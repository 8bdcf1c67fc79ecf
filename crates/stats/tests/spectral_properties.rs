//! Property-based tests of the spectral (gPC) engine and the Sobol
//! quasi-MC sampler: quadrature exactness up to the rule's polynomial
//! order, low-discrepancy superiority of the Sobol stream, bitwise
//! determinism of the gPC coefficients across thread counts, and the
//! fingerprint refusal of a resumed spectral campaign whose plan
//! changed under the snapshot.

use linvar_stats::sampling::sobol_point;
use linvar_stats::{
    gauss_hermite, rng_from_seed, run_spectral, CampaignConfig, CampaignFingerprint,
    CheckpointError, GridKind, RecoveryPolicy, RunSpec, SampleStatus, SpectralConfig, SpectralPlan,
    SpectralRun, SpectralRunError,
};
use proptest::prelude::*;
use rand::RngExt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

/// `E[x^k]` under the standard normal: `(k-1)!!` for even `k`, 0 odd.
fn gaussian_moment(k: usize) -> f64 {
    if k % 2 == 1 {
        0.0
    } else {
        (1..=k).step_by(2).map(|j| j as f64).product()
    }
}

/// A spectral run at `threads` workers under `campaign`, fingerprinted
/// by `(seed, model)` and the default policy.
fn spectral_run(
    plan: &SpectralPlan,
    threads: usize,
    campaign: &CampaignConfig,
    seed: u64,
    model_fp: u64,
    model: impl Fn(&[f64], usize) -> Result<(f64, SampleStatus), String> + Sync,
) -> Result<SpectralRun, SpectralRunError> {
    let policy = RecoveryPolicy::default();
    let spec = RunSpec {
        threads,
        policy,
        campaign: campaign.clone(),
        shards: None,
    };
    let fp = CampaignFingerprint {
        master_seed: seed,
        n_samples: 0,
        policy,
        model: model_fp,
    };
    run_spectral(plan, &spec, &fp, model)
}

fn tmp_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let k = SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "linvar-spectral-props-{}-{tag}-{k}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).expect("create tmp dir");
    dir
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// An `n`-point Gauss-Hermite rule integrates every polynomial of
    /// degree ≤ 2n−1 exactly against the standard normal weight.
    #[test]
    fn gauss_hermite_exact_to_polynomial_order(
        n in 1usize..9,
        coeffs in prop::collection::vec(-3.0f64..3.0, 17),
    ) {
        let (nodes, weights) = gauss_hermite(n).expect("rule builds");
        let degree = 2 * n - 1;
        let quad: f64 = nodes
            .iter()
            .zip(&weights)
            .map(|(&x, &w)| {
                let p: f64 = (0..=degree).map(|k| coeffs[k] * x.powi(k as i32)).sum();
                w * p
            })
            .sum();
        let exact: f64 = (0..=degree).map(|k| coeffs[k] * gaussian_moment(k)).sum();
        let scale = coeffs[..=degree].iter().map(|c| c.abs()).sum::<f64>()
            * gaussian_moment(degree + degree % 2);
        prop_assert!(
            (quad - exact).abs() <= 1e-10 * scale.max(1.0),
            "n={n} degree={degree}: quadrature {quad} vs exact {exact}"
        );
    }

    /// A tensor collocation grid of level `order+1` recovers the exact
    /// mean of any polynomial of per-dimension degree ≤ `order` — the
    /// multi-dimensional face of the same exactness contract.
    #[test]
    fn tensor_grid_mean_exact_for_polynomials(
        dims in 1usize..4,
        order in 1usize..4,
        coeffs in prop::collection::vec(-2.0f64..2.0, 12),
    ) {
        let plan = SpectralPlan::build(dims, SpectralConfig::tensor(order)).expect("plan");
        // Separable polynomial: y = Π_k (Σ_j c_{k,j} x_k^j), degree ≤ order/dim.
        let poly = |x: &[f64]| -> f64 {
            x.iter()
                .enumerate()
                .map(|(k, &xk)| {
                    (0..=order)
                        .map(|j| coeffs[(k * (order + 1) + j) % coeffs.len()] * xk.powi(j as i32))
                        .sum::<f64>()
                })
                .product()
        };
        let values: Vec<f64> = plan.nodes.iter().map(|node| poly(node)).collect();
        let c = plan.coefficients(&values).expect("projection");
        let exact: f64 = (0..dims)
            .map(|k| {
                (0..=order)
                    .map(|j| coeffs[(k * (order + 1) + j) % coeffs.len()] * gaussian_moment(j))
                    .sum::<f64>()
            })
            .product();
        let scale = values.iter().map(|v| v.abs()).fold(1.0f64, f64::max);
        prop_assert!(
            (c[0] - exact).abs() <= 1e-9 * scale,
            "dims={dims} order={order}: gPC mean {} vs exact {exact}",
            c[0]
        );
    }

    /// The digitally-shifted Sobol stream integrates a smooth function
    /// with lower RMS error than pseudo-random sampling at the same
    /// count, in every dimension count and for every digital shift —
    /// the low-discrepancy property the quasi-MC engine rides on.
    #[test]
    fn sobol_low_discrepancy_beats_pseudo_random(dims in 1usize..7) {
        // ∫ Π u_k du = 2^-dims over the unit cube.
        let n = 512usize;
        let trials = 16u64;
        let exact = 0.5f64.powi(dims as i32);
        let integrand = |u: &[f64]| u.iter().product::<f64>();
        let mut sobol_sq = 0.0f64;
        let mut prandom_sq = 0.0f64;
        for seed in 0..trials {
            let s: f64 = (0..n)
                .map(|i| integrand(&sobol_point(seed, i as u64, dims)))
                .sum::<f64>()
                / n as f64;
            sobol_sq += (s - exact) * (s - exact);
            let mut rng = rng_from_seed(seed);
            let p: f64 = (0..n)
                .map(|_| {
                    let u: Vec<f64> = (0..dims).map(|_| rng.random::<f64>()).collect();
                    integrand(&u)
                })
                .sum::<f64>()
                / n as f64;
            prandom_sq += (p - exact) * (p - exact);
        }
        let sobol_rms = (sobol_sq / trials as f64).sqrt();
        let prandom_rms = (prandom_sq / trials as f64).sqrt();
        prop_assert!(
            2.0 * sobol_rms < prandom_rms,
            "dims={dims}: sobol rms {sobol_rms:e} vs pseudo rms {prandom_rms:e}"
        );
    }

    /// The gPC coefficients — and everything derived from them — are
    /// bitwise identical at 1, 2 and 8 worker threads, for random
    /// models on every grid family.
    #[test]
    fn gpc_coefficients_bitwise_across_threads(
        grid in 0usize..3,
        a in -2.0f64..2.0,
        b in -2.0f64..2.0,
        c in -1.0f64..1.0,
    ) {
        let config = match grid {
            0 => SpectralConfig::tensor(2),
            1 => SpectralConfig::smolyak(2, 1),
            _ => SpectralConfig::stochastic_testing(2),
        };
        let plan = SpectralPlan::build(3, config).expect("plan");
        let model = |x: &[f64], _attempt: usize| -> Result<(f64, SampleStatus), String> {
            Ok((
                a * x[0] + b * x[1] * x[1] + c * (0.3 * x[2]).sin() + 5.0,
                SampleStatus::Clean,
            ))
        };
        let plain = CampaignConfig::default();
        let reference = spectral_run(&plan, 1, &plain, 17, 0, model)
            .expect("1 thread")
            .result
            .expect("complete");
        for threads in [2usize, 8] {
            let res = spectral_run(&plan, threads, &plain, 17, 0, model)
                .expect("parallel run")
                .result
                .expect("complete");
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(
                bits(&res.coefficients),
                bits(&reference.coefficients),
                "{} grid, {} threads",
                plan.config.grid.name(),
                threads
            );
            prop_assert_eq!(res.mean.to_bits(), reference.mean.to_bits());
            prop_assert_eq!(res.std.to_bits(), reference.std.to_bits());
            prop_assert_eq!(bits(&res.quantiles.iter().map(|&(_, v)| v).collect::<Vec<_>>()),
                            bits(&reference.quantiles.iter().map(|&(_, v)| v).collect::<Vec<_>>()));
        }
    }
}

/// A spectral campaign resumed under a *different* plan (here: order 1
/// instead of 2) must refuse the snapshot with a typed
/// [`CheckpointError::FingerprintMismatch`] — the plan's node set is
/// folded into the campaign fingerprint, so grid geometry is identity.
#[test]
fn resumed_spectral_campaign_refuses_changed_plan() {
    let dir = tmp_dir("fp-mismatch");
    let snapshot = dir.join("spectral.ckpt");
    let model = |x: &[f64], _a: usize| -> Result<(f64, SampleStatus), String> {
        Ok((x.iter().sum::<f64>() + 1.0, SampleStatus::Clean))
    };
    let plan2 = SpectralPlan::build(2, SpectralConfig::stochastic_testing(2)).expect("plan");
    let write_cfg = CampaignConfig {
        checkpoint: Some(snapshot.clone()),
        ..CampaignConfig::default()
    };
    let done = spectral_run(&plan2, 1, &write_cfg, 21, 0xFEED, model).expect("campaign completes");
    assert!(done.nodes.completed > 0 && done.result.is_some());

    // Same model fingerprint and seed, different spectral plan: the
    // node grid changed, so the snapshot no longer belongs to this
    // campaign and resume must refuse rather than merge wrong nodes.
    let plan1 = SpectralPlan::build(2, SpectralConfig::stochastic_testing(1)).expect("plan");
    let resume_cfg = CampaignConfig {
        resume: Some(snapshot.clone()),
        ..CampaignConfig::default()
    };
    let err = spectral_run(&plan1, 1, &resume_cfg, 21, 0xFEED, model)
        .expect_err("changed plan must be refused");
    match err {
        SpectralRunError::Checkpoint(CheckpointError::FingerprintMismatch { .. }) => {}
        other => panic!("expected a fingerprint mismatch, got {other:?}"),
    }

    // Sanity: the unchanged plan resumes cleanly from the same snapshot.
    let resumed =
        spectral_run(&plan2, 1, &resume_cfg, 21, 0xFEED, model).expect("unchanged plan resumes");
    assert_eq!(
        resumed.nodes.evaluated, 0,
        "everything restored from snapshot"
    );
    assert!(resumed.result.is_some());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Smolyak sparse grids stay exact for additive polynomials up to the
/// level's 1-D order while using far fewer nodes than the tensor grid
/// of the same accuracy — spot-checked here at a fixed geometry so the
/// node-count claim in DESIGN.md stays honest.
#[test]
fn smolyak_node_count_beats_tensor_at_same_1d_exactness() {
    let dims = 5usize;
    let smolyak = SpectralPlan::build(dims, SpectralConfig::smolyak(2, 1)).expect("smolyak");
    let tensor = SpectralPlan::build(dims, SpectralConfig::tensor(1)).expect("tensor");
    assert_eq!(smolyak.config.grid, GridKind::Smolyak);
    assert!(
        smolyak.nodes.len() < tensor.nodes.len(),
        "smolyak {} nodes vs tensor {}",
        smolyak.nodes.len(),
        tensor.nodes.len()
    );
    // Additive quadratic: exactly integrated by the level-1 grid.
    let values: Vec<f64> = smolyak
        .nodes
        .iter()
        .map(|x| 2.0 + x.iter().map(|&v| 0.7 * v + 0.2 * v * v).sum::<f64>())
        .collect();
    let c = smolyak.coefficients(&values).expect("projection");
    let exact = 2.0 + 0.2 * dims as f64;
    assert!(
        (c[0] - exact).abs() < 1e-10,
        "smolyak mean {} vs exact {exact}",
        c[0]
    );
}
