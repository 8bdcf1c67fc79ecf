//! Large-circuit solver benchmark: Monte-Carlo delay campaigns over the
//! generated RC-chain / H-tree suite ([`linvar_interconnect::standard_cases`]),
//! run on both linear-solver backends where feasible.
//!
//! For every case the sparse backend always runs; the dense backend runs
//! only when the order of the matrix each sample factors (the MNA
//! dimension, or twice it for `--analysis ac`) is small enough for an
//! `O(n³)` dense factorization to finish in reasonable time
//! ([`linvar_bench::chains::runs_dense`]; the larger suite members exist
//! precisely because it cannot). Where both backends run, their
//! `mc` statistic rows must be byte-identical — the bin exits 1 on a
//! mismatch, which is what `ci.sh` checks — and the bin prints the row
//! once with the dense/sparse wall-time speedup.
//!
//! `--shards <N>` runs every campaign as N contiguous shards, one after
//! another — the `mc` rows are byte-identical either way.
//!
//! `--engine sobol` reruns the MC flow over the Sobol quasi-MC sample
//! stream (rows prefixed `sobol`); `--engine gpc` replaces the sample
//! campaign with the Smolyak spectral grid of
//! [`linvar_bench::chains::CHAINS_GPC_CONFIG`] — 11 transient solves
//! per case — printing `gpc` rows with surrogate moments and quantiles.
//! Neither spectral engine supports `--shards`.
//!
//! `--analysis ac` swaps the per-sample metric from the transient 50 %
//! delay to the single-point AC gain |V(probe)| at each case's knee
//! frequency (complex MNA through the same backends — see
//! `linvar_spice::ac_analysis_with`). AC rows carry a `.ac`-suffixed
//! case name so they can never be confused with delay rows; AC shard
//! snapshots fold `AnalysisKind::Ac` into their fingerprint so the two
//! analyses refuse to resume each other. Supported for the sample
//! engines (`mc`, `sobol`); `--engine gpc` keeps its transient driver.
//!
//! Phase timings (`symbolic`, `numeric_factor`, `solve`) and per-case
//! throughput land in `BENCH_chains.json`; `--metrics <path>` writes a
//! copy of the report.
//!
//! Run with `cargo run --release -p linvar-bench --bin chains [-- --quick]`
//! (set `LINVAR_THREADS` to pin the Monte-Carlo worker count).

#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

use linvar_bench::chains::{
    ac_case_name, ac_frequency, ac_mag_for_sample, chains_ac_fingerprint, chains_fingerprint,
    delay_for_sample, engine_line, factored_order, gpc_line, runs_dense, sample_set,
    sample_set_sobol, CHAINS_GPC_CONFIG, CHAINS_SIGMA, DENSE_MAX_ORDER,
};
use linvar_bench::{run_points, BenchArgs, BenchError, BenchMeter, Engine, Points, PointsRun};
use linvar_interconnect::{standard_cases, ChainCase};
use linvar_numeric::SolverChoice;
use linvar_stats::{resolve_threads, AnalysisKind, RunSpec, SpectralPlan};
use std::time::Instant;

fn main() {
    if let Err(e) = run() {
        eprintln!("chains: {e}");
        std::process::exit(e.exit_code());
    }
}

fn run() -> Result<(), BenchError> {
    let args = BenchArgs::parse(std::env::args().skip(1))?;
    args.reject_campaign_flags("chains")?;
    args.validate_engine("chains", true)?;
    if args.analysis == AnalysisKind::Ac && args.engine == Engine::Gpc {
        return Err(BenchError::Usage(
            "--analysis ac supports --engine mc and sobol (no spectral AC driver)".into(),
        ));
    }
    let mut meter = BenchMeter::start("chains");
    let run_start = Instant::now();
    let threads = resolve_threads(0);
    let engine = args.engine.name();
    let n_samples = if args.quick { 6 } else { 16 };
    println!("==== chains: large-circuit solver benchmark ====");
    println!(
        "({} suite, {n_samples} samples/case, {threads} worker thread(s); \
         set LINVAR_THREADS to change)",
        if args.quick { "quick" } else { "full" }
    );
    println!("comparing backends (dense skipped above factored order {DENSE_MAX_ORDER})");
    if let Some(n_shards) = args.shards {
        println!("shards: {n_shards} per campaign, run one after another");
    }
    if args.engine != Engine::Mc {
        println!("statistics engine: {engine}");
    }
    if args.analysis == AnalysisKind::Ac {
        println!("analysis: ac (single-point |V(probe)| gain at each case's knee frequency)");
    }
    println!();
    // The Sobol engine is the MC flow over the quasi-MC sample stream;
    // the gPC engine replaces the campaign with a spectral node grid.
    let samples = match args.engine {
        Engine::Sobol => sample_set_sobol(n_samples),
        _ => sample_set(n_samples),
    };
    let plan = SpectralPlan::build(5, CHAINS_GPC_CONFIG).map_err(|e| e.to_string())?;
    let (points, unit) = match args.engine {
        Engine::Gpc => (
            Points::Nodes {
                plan: &plan,
                sigma: CHAINS_SIGMA,
            },
            "nodes",
        ),
        _ => (Points::Draws(&samples), "samples"),
    };
    let cases = standard_cases(args.quick)?;
    for case in &cases {
        // AC rows carry a `.ac`-suffixed case name everywhere — output
        // rows, meter keys, shard snapshot tags — so the two analyses
        // can never collide.
        let row_name = match args.analysis {
            AnalysisKind::Ac => ac_case_name(case),
            _ => case.name.clone(),
        };
        let order = factored_order(case, args.analysis);
        match args.analysis {
            AnalysisKind::Ac => println!(
                "-- {} (dim {}, factored order {order}, {} elements, f_c {:.3e} Hz)",
                row_name,
                case.dim,
                case.element_count,
                ac_frequency(case)
            ),
            _ => println!(
                "-- {} (dim {}, {} elements, tstop {:.3e} s)",
                case.name, case.dim, case.element_count, case.tstop
            ),
        }
        // The rows stay byte-identical with and without shards.
        let spec = args.run_spec(&row_name, run_start, RunSpec::plain(threads))?;
        let campaign = |choice| -> Result<(String, f64), BenchError> {
            let (run, rate) = timed_campaign(case, points, &spec, choice, args.analysis)?;
            let row = match &run.spectral {
                Some(res) => gpc_line(&case.name, res),
                None => engine_line(engine, &row_name, &run.mc.summary, run.mc.failures),
            };
            Ok((row, rate))
        };
        let (row_s, rate_s) = campaign(SolverChoice::Sparse)?;
        meter.set(&format!("{row_name}.sparse.{unit}_per_sec"), rate_s);
        if runs_dense(case, args.analysis) {
            let (row_d, rate_d) = campaign(SolverChoice::Dense)?;
            meter.set(&format!("{row_name}.dense.{unit}_per_sec"), rate_d);
            if row_s != row_d {
                return Err(BenchError::Msg(format!(
                    "backend mismatch on {row_name}:\n  dense:  {row_d}\n  sparse: {row_s}"
                )));
            }
            println!("{row_s}");
            let speedup = rate_s / rate_d;
            println!(
                "{row_name}: sparse {rate_s:.2} {unit}/sec, dense {rate_d:.2} \
                 {unit}/sec, speedup {speedup:.2}x"
            );
            meter.set(&format!("{row_name}.speedup"), speedup);
        } else {
            println!("{row_s}");
            let dense_gib = (order as f64) * (order as f64) * 8.0 / (1024.0 * 1024.0 * 1024.0);
            println!(
                "{row_name}: sparse {rate_s:.2} {unit}/sec; dense infeasible at factored \
                 order {order} (~{dense_gib:.1} GiB per factor, cap {DENSE_MAX_ORDER})"
            );
            meter.set(&format!("{row_name}.dense_infeasible"), true);
        }
        if args.engine == Engine::Gpc {
            meter.set(&format!("{}.gpc_nodes", case.name), plan.nodes.len() as u64);
        }
        meter.set(&format!("{row_name}.dim"), case.dim as u64);
        println!();
    }
    meter.finish(&args)
}

/// Runs one campaign through the bench runner — the per-point metric
/// picked by `analysis` (transient delay or AC gain) — and returns it
/// with its points/sec rate.
fn timed_campaign(
    case: &ChainCase,
    points: Points<'_>,
    spec: &RunSpec,
    solver: SolverChoice,
    analysis: AnalysisKind,
) -> Result<(PointsRun, f64), BenchError> {
    let t0 = Instant::now();
    let n = match points {
        Points::Draws(samples) => samples.len(),
        Points::Nodes { plan, .. } => plan.nodes.len(),
    };
    let run = if analysis == AnalysisKind::Ac {
        let fp = chains_ac_fingerprint(&case.name, n);
        run_points(&ac_case_name(case), points, spec, &fp, |w| {
            ac_mag_for_sample(case, w, solver)
        })?
    } else {
        let fp = chains_fingerprint(&case.name, n);
        run_points(&case.name, points, spec, &fp, |w| {
            delay_for_sample(case, w, solver)
        })?
    };
    let rate = n as f64 / t0.elapsed().as_secs_f64().max(1e-12);
    Ok((run, rate))
}
