//! Fault matrix: one injected failure per solver-stack layer, asserting
//! the recovery ladder's response — a typed error or a named degradation
//! rung, never a panic across a public API, and bitwise-identical results
//! at any thread count.
//!
//! Layer map (see DESIGN.md, "Failure semantics & degradation ladder"):
//! numeric → LU singularity; mor → order-degradation ladder; teta → SC
//! divergence under damping; spice → DC continuation rungs; stats →
//! quarantine/fail-fast policies; core → whole-path recovering driver.

use linvar::numeric::{Complex, LuFactor, Matrix, NumericError};
use linvar::prelude::*;

// ---------------------------------------------------------------- numeric

#[test]
fn lu_singularity_reports_condition_and_perturbation_recovers() {
    // Exactly singular: duplicate rows cancel exactly in elimination
    // (no rounding rescues the pivot).
    let mut a = Matrix::zeros(3, 3);
    let rows = [[1.0, 2.0, 3.0], [1.0, 2.0, 3.0], [0.0, 0.0, 1.0]];
    for (i, r) in rows.iter().enumerate() {
        for (j, v) in r.iter().enumerate() {
            a[(i, j)] = *v;
        }
    }
    match LuFactor::new(&a) {
        Err(NumericError::SingularMatrix { .. }) => {}
        other => panic!("expected singular-matrix error, got {other:?}"),
    }
    // The recovering factorization perturbs the diagonal and reports it,
    // together with a finite condition estimate of what it factored.
    let (lu, rec) = LuFactor::new_recovering(&a).expect("perturbation recovers");
    assert!(rec.perturbed, "must record the diagonal perturbation");
    assert!(rec.perturbation > 0.0);
    assert!(
        rec.condition_estimate.is_finite(),
        "recovered factorization reports a condition estimate: {rec:?}"
    );
    let x = lu.solve(&[1.0, 1.0, 1.0]).expect("factored system solves");
    assert!(x.iter().all(|v| v.is_finite()));
}

// ------------------------------------------------------------- numeric (sparse)

use linvar::numeric::{analyze_cached, SparseLu, SparseMatrix};

#[test]
fn sparse_singular_and_degenerate_patterns_are_typed_errors() {
    // Exactly singular: two structurally distinct columns with identical
    // values — elimination cancels the second pivot exactly.
    let dup = SparseMatrix::from_triplets(
        3,
        3,
        &[
            (0, 0, 1.0),
            (1, 0, 2.0),
            (0, 1, 1.0),
            (1, 1, 2.0),
            (2, 2, 1.0),
        ],
    )
    .unwrap();
    match SparseLu::new(&dup) {
        Err(NumericError::SingularMatrix { condition, .. }) => {
            assert!(condition.is_some(), "singular error carries an estimate");
        }
        other => panic!("expected singular-matrix error, got {other:?}"),
    }
    // Structurally empty row: no entry anywhere in row 1.
    let empty_row =
        SparseMatrix::from_triplets(3, 3, &[(0, 0, 1.0), (2, 2, 1.0), (0, 2, 0.5)]).unwrap();
    assert!(
        matches!(
            SparseLu::new(&empty_row),
            Err(NumericError::SingularMatrix { .. })
        ),
        "empty row must be a typed singularity, not a panic"
    );
    // All-zero values on a full pattern (stamps that cancelled to zero).
    let zeros =
        SparseMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (0, 0, -1.0), (1, 1, 0.0), (0, 1, 0.0)])
            .unwrap();
    assert!(matches!(
        SparseLu::new(&zeros),
        Err(NumericError::SingularMatrix { .. })
    ));
}

#[test]
fn sparse_zero_pivot_is_rescued_by_pivoting_not_recovery() {
    // MNA saddle: zero diagonal at the branch row. Partial pivoting must
    // handle this without engaging the perturbation ladder.
    let a = SparseMatrix::from_triplets(
        3,
        3,
        &[
            (0, 0, 1e-3),
            (0, 2, 1.0),
            (2, 0, 1.0),
            (1, 1, 1e-3),
            (0, 1, -1e-3),
            (1, 0, -1e-3),
        ],
    )
    .unwrap();
    let symbolic = analyze_cached(&a).unwrap();
    let (lu, rec) = SparseLu::new_recovering(&a, &symbolic).expect("pivoting suffices");
    assert!(
        !rec.perturbed,
        "pivoting must not count as recovery: {rec:?}"
    );
    let x = lu.solve(&[0.0, 0.0, 1.0]).unwrap();
    assert!((x[0] - 1.0).abs() < 1e-12, "source pins node 0: {x:?}");
}

#[test]
fn sparse_permuted_duplicate_stamps_assemble_identically() {
    // The same physical stamps in two emission orders (duplicates summed
    // in-stream) must assemble to matrices that solve identically — order
    // only matters for bitwise golden replay, which uses one fixed order.
    let fwd = [
        (0, 0, 2.0),
        (0, 0, 0.5),
        (1, 1, 3.0),
        (0, 1, -1.0),
        (1, 0, -1.0),
    ];
    let rev: Vec<(usize, usize, f64)> = fwd.iter().rev().copied().collect();
    let a = SparseMatrix::from_triplets(2, 2, &fwd).unwrap();
    let b = SparseMatrix::from_triplets(2, 2, &rev).unwrap();
    let xa = SparseLu::new(&a).unwrap().solve(&[1.0, 1.0]).unwrap();
    let xb = SparseLu::new(&b).unwrap().solve(&[1.0, 1.0]).unwrap();
    for (u, v) in xa.iter().zip(&xb) {
        assert!((u - v).abs() < 1e-14);
    }
}

#[test]
fn sparse_stale_pattern_refactor_is_rejected_typed() {
    let a = SparseMatrix::from_triplets(2, 2, &[(0, 0, 2.0), (1, 1, 2.0)]).unwrap();
    let mut lu = SparseLu::new(&a).unwrap();
    // New coupling entry changes the sparsity pattern: the cached
    // elimination pattern is stale and refactor must say so (the engine
    // falls back to a full factorization on this signal).
    let grown =
        SparseMatrix::from_triplets(2, 2, &[(0, 0, 2.0), (1, 1, 2.0), (0, 1, -0.5)]).unwrap();
    assert!(matches!(
        lu.refactor(&grown),
        Err(NumericError::InvalidInput(_))
    ));
    // The rejected refactor must not have corrupted the resident factors.
    let x = lu.solve(&[2.0, 4.0]).unwrap();
    assert!((x[0] - 1.0).abs() < 1e-12 && (x[1] - 2.0).abs() < 1e-12);
}

#[test]
fn sparse_recovery_ladder_matches_dense_semantics() {
    // The same exactly-singular system the dense rung test uses: the
    // sparse ladder must also recover by diagonal perturbation and report
    // the same shape of evidence.
    let a = SparseMatrix::from_triplets(
        3,
        3,
        &[
            (0, 0, 1.0),
            (0, 1, 2.0),
            (0, 2, 3.0),
            (1, 0, 1.0),
            (1, 1, 2.0),
            (1, 2, 3.0),
            (2, 2, 1.0),
        ],
    )
    .unwrap();
    let symbolic = analyze_cached(&a).unwrap();
    let (lu, rec) = SparseLu::new_recovering(&a, &symbolic).expect("perturbation recovers");
    assert!(rec.perturbed);
    assert!(rec.perturbation > 0.0);
    assert!(rec.condition_estimate.is_finite());
    let x = lu.solve(&[1.0, 1.0, 1.0]).expect("factored system solves");
    assert!(x.iter().all(|v| v.is_finite()));
}

// ------------------------------------------------------- numeric (complex/AC)

use linvar::numeric::{embed_triplets, CAnySolver, SolverChoice};

#[test]
fn ac_singular_complex_system_recovers_on_both_backends() {
    // Row 2 is exactly zero in both real and imaginary parts: the
    // embedded 2n×2n real system is exactly singular, and the complex
    // wrapper must ride the same perturbation rung as the real path —
    // on both backends — reporting the recovery, never panicking.
    let triplets = [
        (0, 0, Complex::new(2.0, 1.0)),
        (0, 1, Complex::new(-1.0, 0.0)),
        (1, 1, Complex::new(3.0, -0.5)),
        (1, 0, Complex::new(-1.0, 0.2)),
    ];
    for choice in [SolverChoice::Dense, SolverChoice::Sparse] {
        let (solver, rec) = CAnySolver::factor_triplets_recovering(3, &triplets, choice)
            .expect("perturbation recovers the empty row");
        assert!(rec.perturbed, "{choice:?}: must record the perturbation");
        assert!(rec.perturbation > 0.0);
        let x = solver
            .solve(&[Complex::ONE, Complex::ZERO, Complex::new(0.0, 1.0)])
            .expect("recovered factorization solves");
        assert!(x.iter().all(|z| z.re.is_finite() && z.im.is_finite()));
    }
}

#[test]
fn ac_embedding_and_refactor_misuse_are_typed_errors() {
    // Out-of-range complex triplet: a typed InvalidInput from the
    // embedding, not an out-of-bounds panic in the 4-block expansion.
    let bad = [(2, 0, Complex::ONE)];
    assert!(matches!(
        embed_triplets(2, &bad),
        Err(NumericError::InvalidInput(_))
    ));
    // Refactoring with a different order is a typed dimension mismatch
    // and must not corrupt the resident factors.
    let good = [
        (0, 0, Complex::new(2.0, 0.1)),
        (1, 1, Complex::new(4.0, 0.0)),
    ];
    let mut solver = CAnySolver::factor_triplets(2, &good, SolverChoice::Dense).unwrap();
    assert!(matches!(
        solver.refactor_triplets(3, &good),
        Err(NumericError::DimensionMismatch { .. })
    ));
    let x = solver
        .solve(&[Complex::new(2.0, 0.1), Complex::ZERO])
        .unwrap();
    assert!((x[0].re - 1.0).abs() < 1e-12 && x[0].im.abs() < 1e-12);
}

#[test]
fn ac_sweep_through_a_dc_singular_netlist_stays_finite() {
    use linvar::circuit::{Netlist, SourceWaveform};
    use linvar::spice::ac_analysis_with;
    // A purely capacitive divider: at f = 0 every capacitor vanishes and
    // the output node's row is exactly zero — the sweep's first factor
    // must engage the recovery rung, and the later points must refactor
    // back onto the unperturbed physics. No panic, finite magnitudes,
    // and the high-frequency gain must recover the C1/(C1+C2) divider.
    let mut nl = Netlist::new();
    let inp = nl.node("in");
    let out = nl.node("out");
    nl.add_vsource("Vin", inp, Netlist::GROUND, SourceWaveform::Dc(0.0))
        .unwrap();
    nl.add_capacitor("C1", inp, out, 2e-12).unwrap();
    nl.add_capacitor("C2", out, Netlist::GROUND, 1e-12).unwrap();
    let freqs = [0.0, 1e6, 1e9];
    for choice in [SolverChoice::Dense, SolverChoice::Sparse] {
        let res = ac_analysis_with(&nl, "Vin", &["out"], &freqs, choice)
            .expect("recovery rung must carry the DC point");
        let mags = res.magnitude("out").unwrap();
        assert!(mags.iter().all(|m| m.is_finite()), "{choice:?}: {mags:?}");
        assert!(
            (mags[2] - 2.0 / 3.0).abs() < 1e-6,
            "{choice:?}: capacitive divider gain at 1 GHz, got {}",
            mags[2]
        );
    }
}

// -------------------------------------------------------------------- mor

#[test]
fn mor_order_ladder_degrades_or_exhausts_with_typed_errors() {
    // All-RHP model: every order of the ladder strips every pole, so the
    // ladder must exhaust with a typed error — not panic, not serve an
    // empty model.
    let all_rhp = linvar::mor::ReducedModel {
        gr: Matrix::from_fn(2, 2, |i, j| if i == j { -1e-3 } else { 0.0 }),
        cr: Matrix::from_fn(2, 2, |i, j| if i == j { 1e-15 } else { 0.0 }),
        br: Matrix::from_fn(2, 1, |_, _| 1.0),
    };
    assert!(
        linvar::mor::extract_stabilized_degrading(&all_rhp, DEFAULT_BETA_TOL).is_err(),
        "an all-RHP pencil must exhaust the order ladder"
    );

    // Mixed model: one stable, one unstable mode. The ladder serves a
    // lower order and the degradation report names it.
    let mixed = linvar::mor::ReducedModel {
        gr: Matrix::from_fn(2, 2, |i, j| match (i, j) {
            (0, 0) => 1e-3,
            (1, 1) => -2e-3,
            _ => 0.0,
        }),
        cr: Matrix::from_fn(2, 2, |i, j| if i == j { 1e-15 } else { 0.0 }),
        br: Matrix::from_fn(2, 1, |_, _| 1.0),
    };
    // A β tolerance the pole-stripped order-2 model cannot meet, but the
    // order-1 truncation (purely stable) meets exactly.
    let (pr, _report, deg) = linvar::mor::extract_stabilized_degrading(&mixed, 0.4)
        .expect("the stable mode must survive the ladder");
    assert_eq!(deg.original_order, 2);
    assert!(
        deg.served_order < deg.original_order,
        "served order must drop: {deg:?}"
    );
    assert!(!deg.attempted_orders.is_empty());
    assert!(
        pr.poles.iter().all(|p| p.re < 0.0),
        "served model must be stable: {:?}",
        pr.poles
    );
}

use linvar::mor::DEFAULT_BETA_TOL;

// ------------------------------------------------------------------- teta

#[test]
fn sc_divergence_stays_typed_under_damped_chords() {
    use linvar::mor::PoleResidueModel;
    use linvar::numeric::CMatrix;
    use linvar::teta::engine::DriverSpec;
    use linvar::teta::{StageSolver, StageSolverOptions, TetaError};
    // The pathological load of `failure_injection`: instantaneous
    // impedance so large the SC fixed point cannot contract. Even with
    // chord re-selection (damping) the solver must give up with a typed
    // divergence error, not hang or panic.
    let mut r = CMatrix::zeros(1, 1);
    r[(0, 0)] = Complex::from_real(1e20);
    let load = PoleResidueModel {
        poles: vec![Complex::from_real(-1e6)],
        residues: vec![r],
        direct: Matrix::zeros(1, 1),
    };
    let tech = tech_018();
    let nmos = tech.library.get(&tech.library.nmos_name()).unwrap().clone();
    let pmos = tech.library.get(&tech.library.pmos_name()).unwrap().clone();
    let driver = DriverSpec {
        port: 0,
        input: Waveform::ramp(0.0, 1.8, 10e-12, 30e-12),
        nmos,
        pmos,
        wn: tech.wn,
        wp: tech.wp,
        length: tech.library.lmin,
        g_out: 1e-3,
    };
    let mut opts = StageSolverOptions::new(1.8, 1e-9, 1e-12);
    opts.sc_damping = 0.5;
    let res = StageSolver::new(&load, vec![driver], opts).unwrap().run();
    assert!(
        matches!(res, Err(TetaError::ScDivergence { .. })),
        "expected typed SC divergence under damping, got {res:?}"
    );
}

// ------------------------------------------------------------------ spice

#[test]
fn dc_ladder_escalates_when_direct_newton_is_starved() {
    use linvar::circuit::{MosType, Netlist, SourceWaveform};
    // An inverter biased at midrail with a Newton budget too small for a
    // cold start: rung 0 (direct Newton) fails, and the continuation rungs
    // — which approach the solution through a chain of warm starts — must
    // serve the operating point and say so in the recovery log.
    let tech = tech_018();
    let mut nl = Netlist::new();
    let vdd = nl.node("vdd");
    let inp = nl.node("in");
    let out = nl.node("out");
    nl.add_vsource("Vdd", vdd, Netlist::GROUND, SourceWaveform::Dc(1.8))
        .unwrap();
    nl.add_vsource("Vin", inp, Netlist::GROUND, SourceWaveform::Dc(0.9))
        .unwrap();
    nl.add_mosfet(
        "MP",
        out,
        inp,
        vdd,
        vdd,
        MosType::Pmos,
        &tech.library.pmos_name(),
        tech.wp,
        tech.library.lmin,
    )
    .unwrap();
    nl.add_mosfet(
        "MN",
        out,
        inp,
        Netlist::GROUND,
        Netlist::GROUND,
        MosType::Nmos,
        &tech.library.nmos_name(),
        tech.wn,
        tech.library.lmin,
    )
    .unwrap();
    nl.add_capacitor("CL", out, Netlist::GROUND, 10e-15)
        .unwrap();
    let mut opts = TransientOptions::new(10e-12, 1e-12);
    opts.max_newton = 2;
    let res = Transient::with_devices(&nl, &tech.library, DeviceVariation::nominal(), &opts)
        .unwrap()
        .run()
        .expect("continuation rungs must rescue the starved Newton");
    assert_ne!(
        res.recovery.dc_strategy,
        DcStrategy::DirectNewton,
        "recovery log must name the continuation rung: {:?}",
        res.recovery
    );
    assert!(!res.recovery.was_clean());
}

// ------------------------------------------------------------------ stats

/// A run through the executor at `threads` workers under `policy`, with
/// no persistence and no shards.
fn policy_run<S: Sync>(
    samples: &[S],
    threads: usize,
    policy: RecoveryPolicy,
    f: impl Fn(&S, usize) -> Result<(f64, SampleStatus), String> + Sync,
) -> linvar::stats::MonteCarloResult {
    let spec = RunSpec {
        threads,
        policy,
        ..RunSpec::default()
    };
    let fp = linvar::stats::CampaignFingerprint {
        master_seed: 0,
        n_samples: samples.len(),
        policy,
        model: 0,
    };
    linvar::stats::execute(samples, &spec, &fp, f).expect("no snapshot or shard plan to fail")
}

/// A spectral run at `threads` workers under `policy` and `campaign`,
/// fingerprinted by `(seed, model_fp)`.
fn spectral_run(
    plan: &SpectralPlan,
    threads: usize,
    policy: RecoveryPolicy,
    campaign: &CampaignConfig,
    (seed, model_fp): (u64, u64),
    f: impl Fn(&[f64], usize) -> Result<(f64, SampleStatus), String> + Sync,
) -> Result<linvar::stats::SpectralRun, linvar::stats::SpectralRunError> {
    let spec = RunSpec {
        threads,
        policy,
        campaign: campaign.clone(),
        shards: None,
    };
    let fp = linvar::stats::CampaignFingerprint {
        master_seed: seed,
        n_samples: 0,
        policy,
        model: model_fp,
    };
    linvar::stats::run_spectral(plan, &spec, &fp, f)
}

#[test]
fn panicking_evaluator_is_quarantined_bitwise_across_threads() {
    // Samples whose evaluator panics on every attempt must consume the
    // full attempt budget, land as Failed with a panic diagnostic, and
    // never tear down the run — identically at every thread count.
    let samples: Vec<usize> = (0..90).collect();
    let policy = RecoveryPolicy::default();
    let eval = |&k: &usize, attempt: usize| -> Result<(f64, SampleStatus), String> {
        if k % 9 == 0 {
            panic!("injected panic at sample {k} attempt {attempt}");
        }
        Ok((k as f64 * 1.5, SampleStatus::Clean))
    };
    let serial = policy_run(&samples, 1, policy, eval);
    assert_eq!(serial.health.n_failed, 10);
    assert_eq!(serial.health.n_clean, 80);
    let budget = policy.attempt_budget();
    for h in &serial.sample_health {
        if h.status == SampleStatus::Failed {
            assert_eq!(h.attempts, budget, "panics must consume the budget");
        }
    }
    let diag = serial.first_error.as_deref().expect("diagnostic kept");
    assert!(diag.contains("panic"), "diagnostic {diag:?}");
    for threads in [2, 8] {
        let par = policy_run(&samples, threads, policy, eval);
        assert_eq!(par.values, serial.values, "threads={threads}");
        assert_eq!(par.sample_health, serial.sample_health);
        assert_eq!(par.health, serial.health);
        assert_eq!(par.failed_indices, serial.failed_indices);
        assert_eq!(par.first_error, serial.first_error);
    }
}

#[test]
fn fail_fast_truncates_at_the_same_sample_at_any_thread_count() {
    // Deterministic injected-failure schedule: sample 41 fails every
    // attempt under a fail-fast strict policy. The run must truncate at
    // index 41 regardless of scheduling.
    let samples: Vec<usize> = (0..120).collect();
    let policy = RecoveryPolicy::strict();
    let eval = |&k: &usize, _attempt: usize| -> Result<(f64, SampleStatus), String> {
        if k == 41 || k == 97 {
            Err(format!("injected failure at {k}"))
        } else {
            Ok((f64::sin(k as f64), SampleStatus::Clean))
        }
    };
    let serial = policy_run(&samples, 1, policy, eval);
    assert_eq!(serial.truncated_at, Some(41));
    assert_eq!(serial.failed_indices, vec![41]);
    assert_eq!(
        serial.first_error.as_deref(),
        Some("injected failure at 41")
    );
    for threads in [2, 8] {
        let par = policy_run(&samples, threads, policy, eval);
        assert_eq!(par.truncated_at, Some(41), "threads={threads}");
        assert_eq!(par.values, serial.values);
        assert_eq!(par.sample_health, serial.sample_health);
        assert_eq!(par.failed_indices, serial.failed_indices);
        assert_eq!(par.first_error, serial.first_error);
    }
}

// --------------------------------------------------------------- spectral

#[test]
fn singular_quadrature_system_is_a_typed_error() {
    use linvar::stats::{SpectralError, SpectralRunError};
    // A stochastic-testing plan whose node set collapses (two identical
    // collocation nodes) makes the Vandermonde system exactly singular.
    // The plan builder never produces this; the injection goes through
    // the public plan fields, and the solve must answer with a typed
    // error — not a panic, not garbage coefficients.
    let mut plan = SpectralPlan::build(2, SpectralConfig::stochastic_testing(1)).unwrap();
    let dup = plan.nodes[0].clone();
    plan.nodes[1] = dup;
    let res = spectral_run(
        &plan,
        1,
        RecoveryPolicy::default(),
        &CampaignConfig::default(),
        (3, 0),
        |x: &[f64], _a: usize| -> Result<(f64, SampleStatus), String> {
            Ok((x[0] + x[1], SampleStatus::Clean))
        },
    );
    match res {
        Err(SpectralRunError::Spectral(SpectralError::SingularSystem(msg))) => {
            assert!(!msg.is_empty(), "singular error carries a diagnostic");
        }
        other => panic!("expected a singular-system error, got {other:?}"),
    }
}

#[test]
fn nan_at_collocation_node_is_typed_and_ladder_matches_mc() {
    use linvar::stats::{SpectralError, SpectralRunError};
    let plan = SpectralPlan::build(2, SpectralConfig::tensor(2)).unwrap();
    let policy = RecoveryPolicy::default();
    let plain = CampaignConfig::default();

    // A NaN surfacing at one collocation node: every quadrature weight
    // is load-bearing, so the solve must refuse with the node's index
    // rather than launder the NaN into the coefficients.
    let res = spectral_run(
        &plan,
        2,
        policy,
        &plain,
        (3, 0),
        |x: &[f64], _a: usize| -> Result<(f64, SampleStatus), String> {
            if x[0] > 1.5 {
                Ok((f64::NAN, SampleStatus::Clean))
            } else {
                Ok((x[0] * x[1], SampleStatus::Clean))
            }
        },
    );
    match res {
        Err(SpectralRunError::Spectral(SpectralError::NonFiniteNode { index })) => {
            assert!(plan.nodes[index][0] > 1.5, "error names the NaN node");
        }
        other => panic!("expected a non-finite-node error, got {other:?}"),
    }

    // A permanently failing node is *terminal* for the spectral engine
    // (MC quarantines and carries on — a collocation grid cannot).
    let res = spectral_run(
        &plan,
        2,
        policy,
        &plain,
        (3, 0),
        |x: &[f64], a: usize| -> Result<(f64, SampleStatus), String> {
            if x[0] > 1.5 {
                Err(format!("injected permanent failure (attempt {a})"))
            } else {
                Ok((x[0] * x[1], SampleStatus::Clean))
            }
        },
    );
    match res {
        Err(SpectralRunError::Spectral(SpectralError::NodeFailures {
            failed,
            first_error,
        })) => {
            assert!(failed >= 1);
            let diag = first_error.expect("diagnostic kept");
            assert!(diag.contains("injected permanent failure"), "{diag}");
        }
        other => panic!("expected a node-failures error, got {other:?}"),
    }

    // Recovery parity: a NaN-then-recover node rides the *same* attempt
    // ladder as the MC driver — identical per-sample health on the same
    // node set, and a bitwise-clean final result.
    let flaky = |x: &[f64], a: usize| -> Result<(f64, SampleStatus), String> {
        if x[0] > 1.5 && a == 0 {
            Err("transient NaN at the extreme node".into())
        } else {
            Ok((x[0] * x[1] + 1.0, SampleStatus::Clean))
        }
    };
    let clean = |x: &[f64], _a: usize| -> Result<(f64, SampleStatus), String> {
        Ok((x[0] * x[1] + 1.0, SampleStatus::Clean))
    };
    let recovered =
        spectral_run(&plan, 2, policy, &plain, (3, 0), flaky).expect("retry rescues the node");
    let reference = spectral_run(&plan, 2, policy, &plain, (3, 0), clean)
        .expect("clean run")
        .result
        .expect("complete grid");
    assert!(
        recovered.nodes.health.n_recovered >= 1,
        "ladder must report the retry: {:?}",
        recovered.nodes.health
    );
    assert_eq!(
        recovered
            .result
            .as_ref()
            .expect("complete grid")
            .coefficients
            .iter()
            .map(|c| c.to_bits())
            .collect::<Vec<_>>(),
        reference
            .coefficients
            .iter()
            .map(|c| c.to_bits())
            .collect::<Vec<_>>(),
        "a recovered node must not shift a coefficient bit"
    );
    let mc = policy_run(&plan.nodes, 2, policy, |node: &Vec<f64>, a| flaky(node, a));
    assert_eq!(
        recovered.nodes.sample_health, mc.sample_health,
        "spectral nodes and MC samples must ride the same attempt ladder"
    );
}

#[test]
fn spectral_campaign_kill_and_resume_mid_grid_is_bitwise() {
    use linvar::stats::CampaignVerdict;
    let plan = SpectralPlan::build(3, SpectralConfig::smolyak(2, 1)).unwrap();
    let n_nodes = plan.nodes.len();
    let model = |x: &[f64], _a: usize| -> Result<(f64, SampleStatus), String> {
        Ok((
            (x[0] + 0.5 * x[1] * x[1] - 0.25 * x[2]).exp(),
            SampleStatus::Clean,
        ))
    };
    let policy = RecoveryPolicy::default();
    let clean = spectral_run(
        &plan,
        1,
        policy,
        &CampaignConfig::default(),
        (5, 0xABCD),
        model,
    )
    .expect("clean campaign");
    let clean_res = clean.result.expect("complete");
    let clean_bits: Vec<u64> = clean_res.coefficients.iter().map(|c| c.to_bits()).collect();
    for threads in [1usize, 2, 8] {
        let dir = std::env::temp_dir().join(format!(
            "linvar-fault-matrix-spectral-{}-{threads}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let snapshot = dir.join("grid.ckpt");
        // Kill mid-grid: the deterministic sample-budget preemption
        // stops the campaign halfway with a snapshot on disk.
        let first = spectral_run(
            &plan,
            threads,
            policy,
            &CampaignConfig {
                checkpoint: Some(snapshot.clone()),
                sample_budget: Some(n_nodes / 2),
                checkpoint_every: 1,
                ..CampaignConfig::default()
            },
            (5, 0xABCD),
            model,
        )
        .expect("truncated campaign");
        assert!(
            matches!(first.nodes.verdict, CampaignVerdict::Truncated { .. }),
            "threads={threads}: must truncate mid-grid"
        );
        assert!(
            first.result.is_none(),
            "a half-evaluated grid must not produce spectral estimates"
        );
        let second = spectral_run(
            &plan,
            threads,
            policy,
            &CampaignConfig {
                resume: Some(snapshot.clone()),
                ..CampaignConfig::default()
            },
            (5, 0xABCD),
            model,
        )
        .expect("resumed campaign");
        assert_eq!(second.nodes.verdict, CampaignVerdict::Complete);
        assert_eq!(
            second.nodes.resumed, first.nodes.completed,
            "threads={threads}"
        );
        let res = second.result.expect("resume completes the grid");
        let bits: Vec<u64> = res.coefficients.iter().map(|c| c.to_bits()).collect();
        assert_eq!(
            bits, clean_bits,
            "threads={threads}: resumed coefficients must match the clean run"
        );
        assert_eq!(res.mean.to_bits(), clean_res.mean.to_bits());
        assert_eq!(res.std.to_bits(), clean_res.std.to_bits());
        for (a, b) in res.quantiles.iter().zip(&clean_res.quantiles) {
            assert_eq!(a.1.to_bits(), b.1.to_bits(), "threads={threads}: quantile");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

// ------------------------------------------------------------------- core

#[test]
fn path_recovering_driver_is_deterministic_and_reports_health() {
    // The whole-path recovering Monte-Carlo driver: bitwise identical
    // delays and health at every thread count, with the degradation
    // reports empty when the fast path serves every sample.
    let spec = PathSpec {
        cells: vec!["inv".into(), "inv".into()],
        linear_elements_between_stages: 10,
        input_slew: 50e-12,
    };
    let model = PathModel::build(&spec, &tech_018(), &WireTech::m018()).unwrap();
    let sources = VariationSources::example3(0.33, 0.33);
    let policy = RecoveryPolicy::default();
    let spec = |threads| RunSpec {
        threads,
        policy,
        ..RunSpec::default()
    };
    let base = model.run(&sources, Sampling::Lhs(4), 7, &spec(1)).unwrap();
    assert_eq!(base.health.total(), 4);
    assert_eq!(base.sample_health.len(), 4);
    assert_eq!(base.failures, base.health.n_failed);
    for threads in [2, 4] {
        let par = model
            .run(&sources, Sampling::Lhs(4), 7, &spec(threads))
            .unwrap();
        assert_eq!(par.delays, base.delays, "threads={threads}");
        assert_eq!(par.sample_health, base.sample_health);
        assert_eq!(par.health, base.health);
        assert_eq!(par.reports, base.reports);
    }
    if base.health.all_clean() {
        assert!(base.reports.is_empty(), "clean runs carry no reports");
    } else {
        // Any assisted sample must carry a report naming its rung.
        assert!(!base.reports.is_empty());
    }
}

#[test]
fn degradation_report_display_names_the_serving_rung() {
    let report = DegradationReport {
        sample_index: 7,
        rung: EngineRung::UnreducedMna,
        sc_retries: 3,
        notes: vec!["stage 1 (nand2): served by the unreduced MNA load".into()],
    };
    let text = report.to_string();
    assert!(text.contains("sample 7"), "{text}");
    assert!(text.contains("unreduced MNA"), "{text}");
    assert!(text.contains("3 SC retries"), "{text}");
    assert_eq!(report.status(), SampleStatus::Degraded);
    // Every rung renders a distinct human-readable name.
    let rungs = [
        EngineRung::VariationalRom,
        EngineRung::RefinedSc,
        EngineRung::ExactReduction,
        EngineRung::DegradedOrder(3),
        EngineRung::UnreducedMna,
        EngineRung::SpiceBaseline,
    ];
    let names: Vec<String> = rungs.iter().map(|r| r.to_string()).collect();
    for (i, a) in names.iter().enumerate() {
        for b in names.iter().skip(i + 1) {
            assert_ne!(a, b);
        }
    }
}

// ------------------------------------------------------------------ shard

/// Shared scaffolding for the shard-layer rows: a deterministic mixed
/// workload run once unsharded (the parity reference), and the
/// process-per-shard pieces — one worker per shard of a 4-shard plan and
/// the resumed walk that merges their snapshots.
mod shard_rows {
    use linvar::stats::{
        execute, run_campaign, shard_checkpoint_path, CampaignConfig, CampaignFingerprint,
        MonteCarloResult, RunError, RunSpec, SampleStatus, ShardConfig,
    };
    use linvar_core::RecoveryPolicy;
    use std::path::{Path, PathBuf};
    use std::sync::atomic::{AtomicUsize, Ordering};

    pub const N: usize = 16;
    pub const SHARDS: usize = 4;

    pub fn eval(s: &usize, attempt: usize) -> Result<(f64, SampleStatus), String> {
        let k = *s;
        if k == 9 {
            return Err(format!("injected permanent failure at {k}"));
        }
        if k % 5 == 2 && attempt == 0 {
            return Err(format!("injected transient at {k}"));
        }
        Ok(((k as f64).cos(), SampleStatus::Clean))
    }

    fn fingerprint() -> CampaignFingerprint {
        CampaignFingerprint {
            master_seed: 3,
            n_samples: N,
            policy: RecoveryPolicy::default(),
            model: linvar::stats::fingerprint_str("fault-matrix-shard"),
        }
    }

    /// A process-unique snapshot prefix for one row.
    pub fn tmp_prefix(tag: &str) -> PathBuf {
        static SEQ: AtomicUsize = AtomicUsize::new(0);
        let k = SEQ.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "linvar-fault-matrix-shard-{}-{tag}-{k}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).expect("create tmp dir");
        dir.join("campaign")
    }

    /// Snapshot path of shard `k` under `prefix`.
    pub fn snapshot(prefix: &Path, k: usize) -> PathBuf {
        shard_checkpoint_path(prefix, k, SHARDS)
    }

    /// Campaign knobs writing under `prefix`, resuming from it if asked.
    pub fn writing(prefix: &Path, resume: bool) -> CampaignConfig {
        CampaignConfig {
            checkpoint: Some(prefix.to_path_buf()),
            resume: resume.then(|| prefix.to_path_buf()),
            ..CampaignConfig::default()
        }
    }

    fn run(
        shard_index: Option<usize>,
        campaign: CampaignConfig,
    ) -> Result<MonteCarloResult, RunError> {
        let samples: Vec<usize> = (0..N).collect();
        let spec = RunSpec {
            threads: 2,
            campaign,
            shards: Some(ShardConfig {
                n_shards: SHARDS,
                shard_index,
            }),
            ..RunSpec::default()
        };
        execute(&samples, &spec, &fingerprint(), eval)
    }

    /// One shard process: shard `k` of the plan under `campaign`.
    pub fn worker(k: usize, campaign: CampaignConfig) -> Result<MonteCarloResult, RunError> {
        run(Some(k), campaign)
    }

    /// The merging run: every shard resumed from `prefix`, nothing written.
    pub fn merge(prefix: &Path) -> Result<MonteCarloResult, RunError> {
        run(
            None,
            CampaignConfig {
                resume: Some(prefix.to_path_buf()),
                ..CampaignConfig::default()
            },
        )
    }

    /// Asserts bitwise parity of `merged` with the unsharded reference.
    pub fn assert_parity(merged: &MonteCarloResult, tag: &str) {
        let samples: Vec<usize> = (0..N).collect();
        let reference = run_campaign(
            &samples,
            1,
            RecoveryPolicy::default(),
            &CampaignConfig::default(),
            fingerprint(),
            eval,
        )
        .expect("reference campaign");
        assert_eq!(merged.values, reference.values, "{tag}: values");
        assert_eq!(
            merged.sample_health, reference.sample_health,
            "{tag}: sample health"
        );
        assert_eq!(merged.health, reference.health, "{tag}: health");
        assert_eq!(
            merged.first_error, reference.first_error,
            "{tag}: first_error"
        );
        assert_eq!(
            merged.summary.mean.to_bits(),
            reference.summary.mean.to_bits(),
            "{tag}: mean bits"
        );
    }
}

#[test]
fn killed_shard_is_retried_to_parity() {
    use shard_rows::{snapshot, worker, writing};
    // Shard 1's process dies half-way: its snapshot holds the samples it
    // finished, and the write in flight left a torn `.tmp` sibling. The
    // re-run with resume reaps the torn file, evaluates only the rest,
    // and the merged walk is bitwise parity.
    let prefix = shard_rows::tmp_prefix("kill");
    let cut = worker(
        1,
        CampaignConfig {
            sample_budget: Some(2),
            ..writing(&prefix, false)
        },
    )
    .expect("cut worker");
    assert_eq!(cut.evaluated, 2);
    let mut torn = snapshot(&prefix, 1).into_os_string();
    torn.push(".tmp");
    std::fs::write(&torn, b"torn partial checkpoint write\x00garbage").expect("write torn tmp");
    let rerun = worker(1, writing(&prefix, true)).expect("re-run worker");
    assert_eq!((rerun.resumed, rerun.evaluated), (2, 2));
    assert!(
        !std::path::Path::new(&torn).exists(),
        "the resume reaps the torn staging file"
    );
    for k in [0, 2, 3] {
        worker(k, writing(&prefix, false)).expect("worker");
    }
    let merged = shard_rows::merge(&prefix).expect("merging run");
    assert_eq!(merged.evaluated, 0, "the merge evaluates nothing");
    shard_rows::assert_parity(&merged, "kill");
    let _ = std::fs::remove_dir_all(prefix.parent().expect("tmp dir"));
}

#[test]
fn corrupted_shard_checkpoint_is_refused_and_kept() {
    use linvar::stats::{CheckpointError, RunError};
    use shard_rows::{snapshot, worker, writing};
    // A bit-flipped shard snapshot is refused on resume with a typed
    // checksum error — never merged, never silently deleted and re-run —
    // and stays on disk as it was.
    let prefix = shard_rows::tmp_prefix("corrupt");
    for k in 0..shard_rows::SHARDS {
        worker(k, writing(&prefix, false)).expect("worker");
    }
    let victim = snapshot(&prefix, 1);
    let mut bytes = std::fs::read(&victim).expect("read snapshot");
    let at = bytes.len() / 2;
    bytes[at] ^= 0x40;
    std::fs::write(&victim, &bytes).expect("corrupt snapshot");
    let err = shard_rows::merge(&prefix).expect_err("a corrupt shard must be refused");
    assert!(
        matches!(
            err,
            RunError::Checkpoint(CheckpointError::ChecksumMismatch { .. })
        ),
        "{err}"
    );
    assert_eq!(
        std::fs::read(&victim).expect("snapshot kept"),
        bytes,
        "the refused snapshot is left as it was"
    );
    let _ = std::fs::remove_dir_all(prefix.parent().expect("tmp dir"));
}
