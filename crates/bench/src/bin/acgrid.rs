//! Stochastic IR-drop benchmark: Monte-Carlo worst-drop campaigns over
//! the generated power-grid suite
//! ([`linvar_interconnect::standard_grid_cases`]), run on both
//! linear-solver backends.
//!
//! Every sample freezes the variational grid at one W/T/ρ fluctuation
//! draw and solves the DC operating point; the metric is the worst IR
//! drop over the loaded tiles. Both backends always run (grid MNA
//! dimensions are small), their `mc` rows must be byte-identical — the
//! bin exits 1 on a mismatch, `ci.sh` checks that and
//! `tests/golden_fixtures.rs` pins the rows — and the bin prints the
//! dense/sparse throughput comparison.
//!
//! `--shards <N>` runs each campaign as N contiguous shards, one after
//! another (rows byte-identical either way). `--engine sobol` reruns the
//! flow over the Sobol quasi-MC stream; `--engine gpc` replaces the
//! campaign with the Smolyak spectral grid of
//! [`linvar_bench::grid::GRID_GPC_CONFIG`] — 11 DC solves per case.
//! Neither spectral engine supports `--shards`.
//!
//! Per-case throughput lands in `BENCH_acgrid.json`; `--metrics <path>`
//! writes a copy of the report.
//!
//! Run with `cargo run --release -p linvar-bench --bin acgrid [-- --quick]`
//! (set `LINVAR_THREADS` to pin the Monte-Carlo worker count).

#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

use linvar_bench::chains::{engine_line, gpc_line};
use linvar_bench::grid::{
    drop_for_sample, grid_fingerprint, sample_set, sample_set_sobol, GRID_GPC_CONFIG, GRID_SIGMA,
};
use linvar_bench::{run_points, workspace_note, BenchArgs, BenchError, BenchMeter, Engine, Points};
use linvar_interconnect::standard_grid_cases;
use linvar_numeric::SolverChoice;
use linvar_stats::{resolve_threads, RunSpec, SpectralPlan};
use std::time::Instant;

fn main() {
    if let Err(e) = run() {
        eprintln!("acgrid: {e}");
        std::process::exit(e.exit_code());
    }
}

fn run() -> Result<(), BenchError> {
    let args = BenchArgs::parse(std::env::args().skip(1))?;
    args.reject_campaign_flags("acgrid")?;
    args.reject_analysis_flag("acgrid")?;
    args.validate_engine("acgrid", true)?;
    let mut meter = BenchMeter::start("acgrid");
    let run_start = Instant::now();
    let threads = resolve_threads(0);
    let engine = args.engine.name();
    let n_samples = if args.quick { 8 } else { 24 };
    println!("==== acgrid: stochastic power-grid IR-drop benchmark ====");
    println!(
        "({} suite, {n_samples} samples/case, {threads} worker thread(s); \
         set LINVAR_THREADS to change)",
        if args.quick { "quick" } else { "full" }
    );
    println!("comparing backends (grid MNA is small; both always run)");
    if let Some(n_shards) = args.shards {
        println!("shards: {n_shards} per campaign, run one after another");
    }
    if args.engine != Engine::Mc {
        println!("statistics engine: {engine}");
    }
    println!();
    let samples = match args.engine {
        Engine::Sobol => sample_set_sobol(n_samples),
        _ => sample_set(n_samples),
    };
    let plan = SpectralPlan::build(5, GRID_GPC_CONFIG).map_err(|e| e.to_string())?;
    let (points, unit) = match args.engine {
        Engine::Gpc => (
            Points::Nodes {
                plan: &plan,
                sigma: GRID_SIGMA,
            },
            "nodes",
        ),
        _ => (Points::Draws(&samples), "samples"),
    };
    let cases = standard_grid_cases(args.quick)?;
    for case in &cases {
        println!(
            "-- {} (dim {}, {} wire elements, {} load tiles)",
            case.name,
            case.dim,
            case.element_count,
            case.observe.len()
        );
        let spec = args.run_spec(&case.name, run_start, RunSpec::plain(threads))?;
        let campaign = |solver| -> Result<(String, f64), BenchError> {
            let t0 = Instant::now();
            let fp = grid_fingerprint(&case.name, samples.len());
            let run = run_points(&case.name, points, &spec, &fp, |w| {
                drop_for_sample(case, w, solver)
            })?;
            let n = run.mc.sample_health.len();
            let rate = n as f64 / t0.elapsed().as_secs_f64().max(1e-12);
            let row = match &run.spectral {
                Some(res) => gpc_line(&case.name, res),
                None => engine_line(engine, &case.name, &run.mc.summary, run.mc.failures),
            };
            Ok((row, rate))
        };
        let (row_s, rate_s) = campaign(SolverChoice::Sparse)?;
        let (row_d, rate_d) = campaign(SolverChoice::Dense)?;
        meter.set(&format!("{}.sparse.{unit}_per_sec", case.name), rate_s);
        meter.set(&format!("{}.dense.{unit}_per_sec", case.name), rate_d);
        if row_s != row_d {
            return Err(BenchError::Msg(format!(
                "backend mismatch on {}:\n  dense:  {row_d}\n  sparse: {row_s}",
                case.name
            )));
        }
        println!("{row_s}");
        println!(
            "{}: sparse {rate_s:.2} {unit}/sec, dense {rate_d:.2} {unit}/sec",
            case.name
        );
        if args.engine == Engine::Gpc {
            meter.set(&format!("{}.gpc_nodes", case.name), plan.nodes.len() as u64);
        }
        meter.set(&format!("{}.dim", case.name), case.dim as u64);
        println!();
    }
    println!("{}", workspace_note());
    meter.finish(&args)
}
