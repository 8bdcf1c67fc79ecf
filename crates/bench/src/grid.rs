//! Shared evaluation logic for the `acgrid` IR-drop benchmark.
//!
//! Mirrors [`crate::chains`], with the transient delay metric replaced
//! by the worst-case DC IR drop of a stochastic power grid
//! ([`linvar_interconnect::grid`]). Lives in the library so the golden
//! fixture at the workspace root drives exactly the code the benchmark
//! runs. The `mc` rows round to `%.6e`, coarse enough that the dense and
//! sparse backends print byte-identical lines — the property `ci.sh`
//! diffs and `tests/golden_fixtures.rs` pins. Fingerprints fold
//! [`AnalysisKind::IrDrop`], so grid checkpoints refuse to resume a
//! transient or AC campaign of the same shape.

use crate::{run_points, BenchError, Points};
use linvar_interconnect::{ir_drop_for_sample, GridCase};
use linvar_numeric::SolverChoice;
use linvar_stats::sampling::lhs_normal_streamed;
use linvar_stats::{
    fingerprint_str, fingerprint_words, sobol_normal_streamed, AnalysisKind, CampaignFingerprint,
    MonteCarloResult, RecoveryPolicy, RunSpec, SpectralConfig,
};

/// Master seed of the grid campaigns (fixtures depend on it).
pub const GRID_SEED: u64 = 0x00961d;

/// Per-parameter sigma of the W/T/S/H/ρ fluctuations (normalized units,
/// same 0.33 as the chains workload so the engines share a germ scale).
pub const GRID_SIGMA: f64 = 0.33;

/// Deterministic variation samples for a grid campaign: `n` streamed-LHS
/// draws of the five normalized wire parameters, a pure function of the
/// seed — never of thread count or evaluation order.
pub fn sample_set(n: usize) -> Vec<Vec<f64>> {
    lhs_normal_streamed(GRID_SEED, n, 5, GRID_SIGMA)
}

/// The Sobol quasi-MC counterpart of [`sample_set`]: same seed, same
/// dimensions and σ, drawn from the digitally-shifted Sobol sequence.
pub fn sample_set_sobol(n: usize) -> Vec<Vec<f64>> {
    sobol_normal_streamed(GRID_SEED, n, 5, GRID_SIGMA)
}

/// Evaluates one Monte-Carlo sample: freeze the grid at `w`, solve the
/// DC operating point on the requested backend, and return the worst IR
/// drop over the loaded nodes.
///
/// # Errors
///
/// Returns [`BenchError`] if the DC solve fails or produces a
/// non-finite node voltage.
pub fn drop_for_sample(
    case: &GridCase,
    w: &[f64],
    solver: SolverChoice,
) -> Result<f64, BenchError> {
    ir_drop_for_sample(case, w, solver).map_err(|e| BenchError::Msg(format!("{}: {e}", case.name)))
}

/// Runs the plain IR-drop campaign for one case on one backend:
/// [`crate::run_points`] with [`RunSpec::plain`].
///
/// # Errors
///
/// Returns [`BenchError`] if every sample fails (per-sample failures
/// are reported in the result, not raised).
pub fn run_case(
    case: &GridCase,
    samples: &[Vec<f64>],
    threads: usize,
    solver: SolverChoice,
) -> Result<MonteCarloResult, BenchError> {
    run_points(
        &case.name,
        Points::Draws(samples),
        &RunSpec::plain(threads),
        &grid_fingerprint(&case.name, samples.len()),
        |w| drop_for_sample(case, w, solver),
    )
    .map(|run| run.mc)
}

/// Campaign fingerprint of one grid case: seed, sample-set shape, the
/// case name, and [`AnalysisKind::IrDrop`] folded into the model hash —
/// a grid snapshot refuses to resume a transient or AC campaign even if
/// every other coordinate matches. The seed also seeds a gPC run's
/// surrogate quantiles.
pub fn grid_fingerprint(case_name: &str, n_samples: usize) -> CampaignFingerprint {
    CampaignFingerprint {
        master_seed: GRID_SEED,
        n_samples,
        policy: RecoveryPolicy::strict(),
        model: fingerprint_words([
            fingerprint_str(case_name),
            AnalysisKind::IrDrop.fingerprint_word(),
            n_samples as u64,
            5,
        ]),
    }
}

/// The spectral grid every acgrid gPC run uses — same Smolyak level-1,
/// degree-2 plan over five parameters as the chains workload (11 DC
/// solves per case).
pub const GRID_GPC_CONFIG: SpectralConfig = SpectralConfig {
    order: 2,
    level: 1,
    grid: linvar_stats::GridKind::Smolyak,
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chains::{gpc_line, mc_line};
    use linvar_interconnect::{power_grid_case, PowerGridSpec, WireTech};
    use linvar_stats::{ShardConfig, SpectralPlan, SpectralResult};

    fn gpc_run(case: &GridCase, threads: usize, solver: SolverChoice) -> SpectralResult {
        let plan = SpectralPlan::build(5, GRID_GPC_CONFIG).unwrap();
        let points = Points::Nodes {
            plan: &plan,
            sigma: GRID_SIGMA,
        };
        let fp = grid_fingerprint(&case.name, 0);
        run_points(&case.name, points, &RunSpec::plain(threads), &fp, |w| {
            drop_for_sample(case, w, solver)
        })
        .unwrap()
        .spectral
        .unwrap()
    }

    fn quick_case() -> GridCase {
        power_grid_case(&PowerGridSpec::new(8, 8, WireTech::m018())).unwrap()
    }

    #[test]
    fn samples_are_seeded_and_distinct_from_chains() {
        let a = sample_set(8);
        assert_eq!(a, sample_set(8));
        assert!(a.iter().all(|w| w.len() == 5));
        assert_ne!(
            a,
            crate::chains::sample_set(8),
            "grid and chains streams must differ (different master seeds)"
        );
        let s = sample_set_sobol(8);
        assert_eq!(s, sample_set_sobol(8));
        assert_ne!(s, a, "sobol and LHS streams must differ");
    }

    #[test]
    fn mc_rows_match_across_backends_and_threads() {
        let case = quick_case();
        let samples = sample_set(6);
        let d = run_case(&case, &samples, 1, SolverChoice::Dense).unwrap();
        let s = run_case(&case, &samples, 2, SolverChoice::Sparse).unwrap();
        assert_eq!(
            mc_line(&case.name, &d.summary, d.failures),
            mc_line(&case.name, &s.summary, s.failures)
        );
        assert_eq!(d.failures, 0);
        assert!(d.summary.mean > 0.0);
    }

    #[test]
    fn sharded_rows_match_unsharded() {
        let case = quick_case();
        let samples = sample_set(6);
        let base = run_case(&case, &samples, 1, SolverChoice::Sparse).unwrap();
        let base_line = mc_line(&case.name, &base.summary, base.failures);
        let spec = RunSpec {
            shards: Some(ShardConfig {
                n_shards: 3,
                shard_index: None,
            }),
            ..RunSpec::plain(2)
        };
        let fp = grid_fingerprint(&case.name, samples.len());
        let sharded = run_points(&case.name, Points::Draws(&samples), &spec, &fp, |w| {
            drop_for_sample(&case, w, SolverChoice::Sparse)
        })
        .unwrap()
        .mc;
        assert_eq!(
            mc_line(&case.name, &sharded.summary, sharded.failures),
            base_line
        );
    }

    #[test]
    fn gpc_rows_match_across_backends_and_threads() {
        let case = quick_case();
        let dense = gpc_run(&case, 1, SolverChoice::Dense);
        let sparse = gpc_run(&case, 2, SolverChoice::Sparse);
        assert_eq!(dense.nodes_evaluated, 11, "smolyak level-1 grid in 5 dims");
        assert_eq!(gpc_line(&case.name, &dense), gpc_line(&case.name, &sparse));
        assert!(dense.mean > 0.0 && dense.std >= 0.0);
    }

    #[test]
    fn fingerprint_separates_analyses_and_cases() {
        let ir = grid_fingerprint("grid8x8", 16);
        let other_case = grid_fingerprint("grid16x16", 16);
        assert_ne!(ir.model, other_case.model);
        let chains = crate::chains::chains_fingerprint("grid8x8", 16);
        assert_ne!(
            ir.model, chains.model,
            "IR-drop campaigns must not resume transient snapshots"
        );
    }
}
