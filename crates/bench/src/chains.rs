//! Shared evaluation logic for the `chains` large-circuit benchmark.
//!
//! Lives in the library (not the bin) so the golden-fixture test at the
//! workspace root drives exactly the code the benchmark runs: one
//! Monte-Carlo delay campaign over a [`ChainCase`] through
//! [`crate::run_points`], with the linear solver backend pinned per run. The `mc` rows round their statistics
//! to `%.6e`, coarse enough that the dense and sparse backends (which
//! agree to ~1e-10 relative) print byte-identical lines — that is the
//! property `ci.sh` diffs and `tests/golden_chains.rs` pins.

use crate::{run_points, BenchError, Points};
use linvar_interconnect::ChainCase;
use linvar_numeric::SolverChoice;
use linvar_spice::{ac_analysis_with, crossing_time, Transient, TransientOptions};
use linvar_stats::sampling::lhs_normal_streamed;
use linvar_stats::{
    fingerprint_str, fingerprint_words, sobol_normal_streamed, AnalysisKind, CampaignFingerprint,
    MonteCarloResult, RecoveryPolicy, RunSpec, SpectralConfig, SpectralResult, Summary,
};

/// Master seed of the chains campaigns (fixtures depend on it).
pub const CHAINS_SEED: u64 = 0x00c4a15;

/// Per-parameter sigma of the W/T/S/H/ρ fluctuations (normalized units,
/// same 0.33 the paper's examples use).
pub const CHAINS_SIGMA: f64 = 0.33;

/// Largest matrix order the dense backend is asked to factor. Above it a
/// dense factor is infeasible for a Monte-Carlo campaign (cubic cost,
/// quadratic memory) and only the sparse backend runs.
pub const DENSE_MAX_ORDER: usize = 5000;

/// Order of the matrix each sample of `case` factors under `analysis`:
/// the MNA dimension for the transient, twice it for the AC analysis,
/// which factors the real embedding of the complex system.
pub fn factored_order(case: &ChainCase, analysis: AnalysisKind) -> usize {
    match analysis {
        AnalysisKind::Ac => 2 * case.dim,
        _ => case.dim,
    }
}

/// Whether the dense backend runs beside the sparse one on `case`: its
/// factored order is at most [`DENSE_MAX_ORDER`].
pub fn runs_dense(case: &ChainCase, analysis: AnalysisKind) -> bool {
    factored_order(case, analysis) <= DENSE_MAX_ORDER
}

/// Deterministic variation samples for a chains campaign: `n` draws of
/// the five normalized wire parameters. Streamed LHS, so the set depends
/// only on the seed — never on thread count or evaluation order.
pub fn sample_set(n: usize) -> Vec<Vec<f64>> {
    lhs_normal_streamed(CHAINS_SEED, n, 5, CHAINS_SIGMA)
}

/// The Sobol quasi-MC counterpart of [`sample_set`]: same seed, same
/// dimensions and σ, drawn from the digitally-shifted Sobol sequence.
/// Each sample is a pure function of `(CHAINS_SEED, index)`.
pub fn sample_set_sobol(n: usize) -> Vec<Vec<f64>> {
    sobol_normal_streamed(CHAINS_SEED, n, 5, CHAINS_SIGMA)
}

/// Evaluates one Monte-Carlo sample: freeze the variational netlist at
/// `w`, run the transient on the requested backend, and measure the 50 %
/// crossing of the probe node.
///
/// # Errors
///
/// Returns [`BenchError`] if the transient fails or the waveform never
/// crosses 50 % inside the case's window.
pub fn delay_for_sample(
    case: &ChainCase,
    w: &[f64],
    solver: SolverChoice,
) -> Result<f64, BenchError> {
    let frozen = case.netlist.frozen_at(w);
    let mut opts = TransientOptions::new(case.tstop, case.dt);
    opts.probes.push(case.probe.clone());
    opts.solver = solver;
    let res = Transient::new(&frozen, &opts)?.run()?;
    let wave = res
        .probe(&case.probe)
        .ok_or_else(|| BenchError::Msg(format!("probe {} missing", case.probe)))?;
    crossing_time(&res.times, wave, 0.5, true, 0.0)
        .ok_or_else(|| BenchError::Msg(format!("{}: no 50% crossing in window", case.name)))
}

/// Runs the plain delay campaign for one case on one backend:
/// [`crate::run_points`] with [`RunSpec::plain`].
///
/// # Errors
///
/// Returns [`BenchError`] if every sample fails (per-sample failures are
/// reported in the result, not raised).
pub fn run_case(
    case: &ChainCase,
    samples: &[Vec<f64>],
    threads: usize,
    solver: SolverChoice,
) -> Result<MonteCarloResult, BenchError> {
    run_points(
        &case.name,
        Points::Draws(samples),
        &RunSpec::plain(threads),
        &chains_fingerprint(&case.name, samples.len()),
        |w| delay_for_sample(case, w, solver),
    )
    .map(|run| run.mc)
}

/// The fixed AC measurement frequency of one case (`--analysis ac`): a
/// pure function of the case's transient window (`tstop ≈ 8τ`), placed
/// near the knee of its nominal response so the gain magnitude is
/// neither ~1 nor ~0 and the wire fluctuations move it measurably —
/// a near-unity gain would leave the sample std small enough for the
/// dense/sparse backends to disagree inside the `%.6e` row rounding.
pub fn ac_frequency(case: &ChainCase) -> f64 {
    2.0 / case.tstop
}

/// The `--analysis ac` row name of a case: the case name with an `.ac`
/// suffix, so AC rows can never be confused with (or diffed against)
/// the transient delay rows of the same circuit.
pub fn ac_case_name(case: &ChainCase) -> String {
    format!("{}.ac", case.name)
}

/// Evaluates one AC Monte-Carlo sample: freeze the variational netlist
/// at `w`, run a single-point AC sweep with a unit stimulus on the
/// `Vdrv` driver, and return the gain magnitude |V(probe)| at
/// [`ac_frequency`].
///
/// # Errors
///
/// Returns [`BenchError`] if the AC solve fails.
pub fn ac_mag_for_sample(
    case: &ChainCase,
    w: &[f64],
    solver: SolverChoice,
) -> Result<f64, BenchError> {
    let frozen = case.netlist.frozen_at(w);
    let res = ac_analysis_with(
        &frozen,
        "Vdrv",
        &[&case.probe],
        &[ac_frequency(case)],
        solver,
    )?;
    let mags = res
        .magnitude(&case.probe)
        .ok_or_else(|| BenchError::Msg(format!("probe {} missing", case.probe)))?;
    mags.first()
        .copied()
        .ok_or_else(|| BenchError::Msg(format!("{}: empty AC sweep", case.name)))
}

/// Campaign fingerprint of one chains case: seed, sample-set shape, and
/// the case name folded into the model hash. Shard snapshots taken under
/// one case refuse to resume another; the seed also seeds a gPC run's
/// surrogate quantiles.
pub fn chains_fingerprint(case_name: &str, n_samples: usize) -> CampaignFingerprint {
    CampaignFingerprint {
        master_seed: CHAINS_SEED,
        n_samples,
        policy: RecoveryPolicy::strict(),
        model: fingerprint_words([fingerprint_str(case_name), n_samples as u64, 5]),
    }
}

/// [`chains_fingerprint`] for the AC gain campaigns (`--analysis ac`):
/// folds
/// [`AnalysisKind::Ac`] into the model hash, so an AC snapshot refuses
/// to resume a transient campaign of the same case and shape. (The
/// transient fingerprint predates analysis tagging and stays untouched
/// for checkpoint compatibility.)
pub fn chains_ac_fingerprint(case_name: &str, n_samples: usize) -> CampaignFingerprint {
    CampaignFingerprint {
        master_seed: CHAINS_SEED,
        n_samples,
        policy: RecoveryPolicy::strict(),
        model: fingerprint_words([
            fingerprint_str(case_name),
            AnalysisKind::Ac.fingerprint_word(),
            n_samples as u64,
            5,
        ]),
    }
}

/// The spectral grid every chains gPC run uses: Smolyak sparse level 1
/// over the five wire parameters at total degree 2 — 11 transient
/// solves per case instead of a sample campaign.
pub const CHAINS_GPC_CONFIG: SpectralConfig = SpectralConfig {
    order: 2,
    level: 1,
    grid: linvar_stats::GridKind::Smolyak,
};

/// The deterministic statistics row for one completed campaign under
/// `engine` (`mc` or `sobol` — the row prefix, which `ci.sh` greps per
/// engine). Statistics are rounded to `%.6e` so both backends and any
/// worker count print the same bytes (the solver name is deliberately
/// absent). Takes the summary and failure count, so plain, durable and
/// sharded runs print through the same formatter — identity of their
/// rows is a CI invariant, not a coincidence.
pub fn engine_line(engine: &str, case_name: &str, summary: &Summary, failures: usize) -> String {
    format!(
        "{engine} {case_name}: n={} mean={:.6e} std={:.6e} min={:.6e} max={:.6e} failures={}",
        summary.n, summary.mean, summary.std, summary.min, summary.max, failures
    )
}

/// [`engine_line`] for the default Monte-Carlo engine.
pub fn mc_line(case_name: &str, summary: &Summary, failures: usize) -> String {
    engine_line("mc", case_name, summary, failures)
}

/// The deterministic `gpc` row for one completed spectral run: node
/// count, surrogate moments and quantiles at the same `%.6e` rounding
/// as the MC rows (backend- and thread-count-invariant bytes).
pub fn gpc_line(case_name: &str, res: &SpectralResult) -> String {
    let q = |p: f64| {
        res.quantiles
            .iter()
            .find(|(prob, _)| *prob == p)
            .map_or(f64::NAN, |(_, v)| *v)
    };
    format!(
        "gpc {case_name}: nodes={} mean={:.6e} std={:.6e} q05={:.6e} q50={:.6e} q95={:.6e}",
        res.nodes_evaluated,
        res.mean,
        res.std,
        q(0.05),
        q(0.5),
        q(0.95)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use linvar_interconnect::rc_chain_case;
    use linvar_stats::{ShardConfig, SpectralPlan};

    fn spec(threads: usize, n_shards: Option<usize>) -> RunSpec {
        RunSpec {
            shards: n_shards.map(|n_shards| ShardConfig {
                n_shards,
                shard_index: None,
            }),
            ..RunSpec::plain(threads)
        }
    }

    fn ac_run(case: &ChainCase, samples: &[Vec<f64>], spec: &RunSpec) -> MonteCarloResult {
        let fp = chains_ac_fingerprint(&case.name, samples.len());
        run_points(
            &ac_case_name(case),
            Points::Draws(samples),
            spec,
            &fp,
            |w| ac_mag_for_sample(case, w, SolverChoice::Sparse),
        )
        .unwrap()
        .mc
    }

    fn gpc_run(case: &ChainCase, threads: usize, solver: SolverChoice) -> SpectralResult {
        let plan = SpectralPlan::build(5, CHAINS_GPC_CONFIG).unwrap();
        let points = Points::Nodes {
            plan: &plan,
            sigma: CHAINS_SIGMA,
        };
        let fp = chains_fingerprint(&case.name, 0);
        run_points(&case.name, points, &spec(threads, None), &fp, |w| {
            delay_for_sample(case, w, solver)
        })
        .unwrap()
        .spectral
        .unwrap()
    }

    #[test]
    fn samples_are_thread_independent_and_seeded() {
        let a = sample_set(8);
        let b = sample_set(8);
        assert_eq!(a, b);
        assert_eq!(a.len(), 8);
        assert!(a.iter().all(|w| w.len() == 5));
        assert!(a.iter().flatten().any(|&v| v != 0.0));
    }

    #[test]
    fn nominal_delay_is_positive_and_backend_invariant_text() {
        let case = rc_chain_case(50).unwrap();
        let w = vec![0.0; 5];
        let dense = delay_for_sample(&case, &w, SolverChoice::Dense).unwrap();
        let sparse = delay_for_sample(&case, &w, SolverChoice::Sparse).unwrap();
        assert!(dense > 0.0);
        assert!(
            (dense - sparse).abs() <= 1e-9 * dense,
            "backends disagree: dense {dense:e} vs sparse {sparse:e}"
        );
        assert_eq!(format!("{dense:.6e}"), format!("{sparse:.6e}"));
    }

    #[test]
    fn mc_rows_match_across_backends() {
        let case = rc_chain_case(50).unwrap();
        let samples = sample_set(4);
        let d = run_case(&case, &samples, 1, SolverChoice::Dense).unwrap();
        let s = run_case(&case, &samples, 2, SolverChoice::Sparse).unwrap();
        assert_eq!(
            mc_line(&case.name, &d.summary, d.failures),
            mc_line(&case.name, &s.summary, s.failures)
        );
        assert_eq!(d.failures, 0);
    }

    #[test]
    fn sobol_samples_are_seeded_and_distinct_from_lhs() {
        let a = sample_set_sobol(8);
        let b = sample_set_sobol(8);
        assert_eq!(a, b);
        assert!(a.iter().all(|w| w.len() == 5));
        assert_ne!(a, sample_set(8), "sobol and LHS streams must differ");
    }

    #[test]
    fn gpc_rows_match_across_backends_and_threads() {
        let case = rc_chain_case(50).unwrap();
        let dense = gpc_run(&case, 1, SolverChoice::Dense);
        let sparse = gpc_run(&case, 2, SolverChoice::Sparse);
        assert_eq!(dense.nodes_evaluated, 11, "smolyak level-1 grid in 5 dims");
        assert_eq!(
            gpc_line(&case.name, &dense),
            gpc_line(&case.name, &sparse),
            "gpc rows must be backend- and thread-count-invariant"
        );
        assert!(dense.mean > 0.0 && dense.std >= 0.0);
    }

    #[test]
    fn ac_gain_is_physical_and_backend_invariant() {
        let case = rc_chain_case(50).unwrap();
        let w = vec![0.0; 5];
        let dense = ac_mag_for_sample(&case, &w, SolverChoice::Dense).unwrap();
        let sparse = ac_mag_for_sample(&case, &w, SolverChoice::Sparse).unwrap();
        assert!(
            dense > 0.05 && dense < 0.999,
            "measurement frequency should sit near the knee, got |H| = {dense}"
        );
        assert_eq!(format!("{dense:.6e}"), format!("{sparse:.6e}"));
    }

    #[test]
    fn ac_rows_are_distinct_from_transient_rows() {
        let case = rc_chain_case(50).unwrap();
        let samples = sample_set(4);
        let ac = ac_run(&case, &samples, &spec(2, None));
        let tran = run_case(&case, &samples, 2, SolverChoice::Sparse).unwrap();
        let ac_row = mc_line(&ac_case_name(&case), &ac.summary, ac.failures);
        let tran_row = mc_line(&case.name, &tran.summary, tran.failures);
        assert!(ac_row.starts_with(&format!("mc {}.ac:", case.name)));
        assert_ne!(ac_row, tran_row);
        assert_eq!(ac.failures, 0);
    }

    #[test]
    fn ac_fingerprint_differs_from_transient() {
        let tran = chains_fingerprint("chain50", 8);
        let ac = chains_ac_fingerprint("chain50", 8);
        assert_eq!(tran.master_seed, ac.master_seed);
        assert_ne!(
            tran.model, ac.model,
            "AC must not resume transient snapshots"
        );
    }

    #[test]
    fn ac_sharded_rows_match_unsharded() {
        let case = rc_chain_case(50).unwrap();
        let samples = sample_set(6);
        let base = ac_run(&case, &samples, &spec(1, None));
        let sharded = ac_run(&case, &samples, &spec(2, Some(3)));
        assert_eq!(
            mc_line(&ac_case_name(&case), &sharded.summary, sharded.failures),
            mc_line(&ac_case_name(&case), &base.summary, base.failures)
        );
    }

    #[test]
    fn sharded_rows_match_unsharded() {
        let case = rc_chain_case(50).unwrap();
        let samples = sample_set(6);
        let base = run_case(&case, &samples, 1, SolverChoice::Sparse).unwrap();
        let base_line = mc_line(&case.name, &base.summary, base.failures);
        for n_shards in [1, 3] {
            let fp = chains_fingerprint(&case.name, samples.len());
            let sharded = run_points(
                &case.name,
                Points::Draws(&samples),
                &spec(2, Some(n_shards)),
                &fp,
                |w| delay_for_sample(&case, w, SolverChoice::Sparse),
            )
            .unwrap()
            .mc;
            assert_eq!(
                mc_line(&case.name, &sharded.summary, sharded.failures),
                base_line,
                "{n_shards} shards"
            );
        }
    }
}
