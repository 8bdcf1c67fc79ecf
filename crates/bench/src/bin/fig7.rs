//! Regenerates the paper's Figure 7: histograms of the longest-path delays
//! of s27 and s208 from the Monte-Carlo and Gradient-Analysis methods
//! (under DL and VT variations, std 0.33 each).
//!
//! The GA histogram is the normal distribution implied by the GA
//! (mean, σ), sampled on equal-probability strata so the two histograms
//! have the same sample count.
//!
//! Flags: `--checkpoint <prefix>` / `--resume <prefix>` /
//! `--deadline <secs>` run the Monte-Carlo portion as a durable campaign
//! (one snapshot per circuit). Completed circuits print a deterministic
//! `mc …` line with the statistics as raw `f64` bit patterns.
//! `--shards <N>` runs each campaign as N contiguous shards, one after
//! another (`mc` lines byte-identical to the unsharded run); with
//! `--shard-index <K> --checkpoint <prefix>` this process evaluates
//! only shard K and leaves its snapshot for a later `--resume` merge.
//!
//! `--engine sobol` reruns the Monte-Carlo flow on the Sobol quasi-MC
//! stream (rows prefixed `sobol`); `--engine gpc` replaces the sample
//! campaign with a stochastic-testing gPC surrogate (order 2 over the
//! two active sources, 6 transient solves) whose implied normal is
//! histogrammed against GA on the same equal-probability strata. Both
//! spectral engines honor the campaign flags; neither combines with
//! `--shards`.
//!
//! Run with `cargo run --release -p linvar-bench --bin fig7`
//! (set `LINVAR_THREADS` to pin the Monte-Carlo worker count).

#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

use linvar_bench::{bits_hex, quantile_at, BenchArgs, BenchError, BenchMeter, Engine};
use linvar_core::path::{PathModel, PathSpec, Sampling, VariationSources};
use linvar_core::{CampaignVerdict, RunSpec};
use linvar_devices::tech_018;
use linvar_interconnect::WireTech;
use linvar_iscas::{benchmark, decompose_to_primitives, longest_path};
use linvar_stats::sampling::inverse_normal_cdf;
use linvar_stats::{resolve_threads, Histogram, SpectralConfig};
use std::time::Instant;

/// Renders the engine-vs-GA comparison tail shared by every engine:
/// the stratified GA normal, the paired histogram, and the moment line.
fn render_vs_ga(
    model: &PathModel,
    sources: &VariationSources,
    circuit: &str,
    label: &str,
    mean: f64,
    std: f64,
    delays: &[f64],
) -> Result<(), BenchError> {
    let ga = model.gradient_analysis(sources)?;
    // Stratified normal sample implied by the GA statistics.
    let n = delays.len();
    let ga_sample: Vec<f64> = (0..n)
        .map(|k| {
            let u = (k as f64 + 0.5) / n as f64;
            ga.nominal_delay + ga.std * inverse_normal_cdf(u)
        })
        .collect();
    let (h_eng, h_ga) = Histogram::pair(delays, &ga_sample, 12)?;
    println!(
        "{circuit}: {label} mean {:.2} ps std {:.2} ps | GA mean {:.2} ps std {:.2} ps",
        mean * 1e12,
        std * 1e12,
        ga.nominal_delay * 1e12,
        ga.std * 1e12
    );
    print!("{}", h_eng.render_pair(&h_ga, label, "GA", 1e12, "ps"));
    println!();
    Ok(())
}

fn main() {
    if let Err(e) = run() {
        eprintln!("fig7: {e}");
        std::process::exit(e.exit_code());
    }
}

fn run() -> Result<(), BenchError> {
    let args = BenchArgs::parse(std::env::args().skip(1))?;
    if args.quick {
        return Err(BenchError::Usage("fig7 has no --quick mode".into()));
    }
    args.validate_engine("fig7", true)?;
    let mut meter = BenchMeter::start("fig7");
    let run_start = Instant::now();
    let threads = resolve_threads(0);
    let engine = args.engine.name();
    println!("==== Figure 7: MC vs GA delay histograms (DL, VT variations) ====");
    println!("(Monte-Carlo on {threads} worker thread(s); set LINVAR_THREADS to change)");
    if args.engine != Engine::Mc {
        println!("statistics engine: {engine}");
    }
    println!();
    let tech = tech_018();
    let wire = WireTech::m018();
    let sources = VariationSources::example3(0.33, 0.33);
    let mut truncated = 0usize;
    for circuit in ["s27", "s208"] {
        if args.deadline_exhausted(run_start) {
            truncated += 1;
            eprintln!("deadline: skipping {circuit} (no budget left)");
            continue;
        }
        let bench = benchmark(circuit).ok_or("unknown benchmark")?;
        let report = longest_path(&bench.netlist)?;
        let stages = decompose_to_primitives(&bench.netlist, &report)?;
        let spec = PathSpec {
            cells: stages.into_iter().map(|s| s.cell).collect(),
            linear_elements_between_stages: 10,
            input_slew: 60e-12,
        };
        let model = PathModel::build(&spec, &tech, &wire)?;
        let run_spec = args.run_spec(
            circuit,
            run_start,
            RunSpec {
                threads,
                ..RunSpec::default()
            },
        )?;
        if args.engine == Engine::Gpc {
            let t0 = Instant::now();
            let pc = model.run(
                &sources,
                Sampling::Spectral(SpectralConfig::stochastic_testing(2)),
                7,
                &run_spec,
            )?;
            let Some(res) = pc.spectral else {
                truncated += 1;
                eprintln!(
                    "deadline: {circuit} truncated mid-grid ({} nodes done); resume with \
                     --resume to finish",
                    pc.completed
                );
                continue;
            };
            println!(
                "gpc {circuit}: nodes={} mean={} std={} q05={} q50={} q95={}",
                res.nodes_evaluated,
                bits_hex(res.mean),
                bits_hex(res.std),
                bits_hex(quantile_at(&res.quantiles, 0.05)),
                bits_hex(quantile_at(&res.quantiles, 0.5)),
                bits_hex(quantile_at(&res.quantiles, 0.95)),
            );
            if pc.evaluated > 0 {
                eprintln!(
                    "{circuit}: {:.1} nodes/sec",
                    pc.evaluated as f64 / t0.elapsed().as_secs_f64()
                );
            } else {
                eprintln!("{circuit}: restored from snapshot");
            }
            // Histogram the surrogate's implied normal on the same
            // equal-probability strata the GA histogram uses, so the
            // figure compares the two closed-form estimates directly.
            let delays: Vec<f64> = (0..100)
                .map(|k| {
                    let u = (k as f64 + 0.5) / 100.0;
                    res.mean + res.std * inverse_normal_cdf(u)
                })
                .collect();
            render_vs_ga(&model, &sources, circuit, "gPC", res.mean, res.std, &delays)?;
            continue;
        }
        let t0 = Instant::now();
        // Plain, durable and sharded runs feed the same deterministic
        // `mc` line and histogram — byte-identical at any shard count.
        // The Sobol engine is the identical flow over the quasi-MC
        // sample stream.
        let sampling = match args.engine {
            Engine::Sobol => Sampling::Sobol(100),
            _ => Sampling::Lhs(100),
        };
        let mc = model.run(&sources, sampling, 7, &run_spec)?;
        if let (Some(n_shards), Some(k)) = (args.shards, args.shard_index) {
            // Worker mode: only shard k ran; its snapshot is the output
            // (merged later by `--shards N --resume`).
            println!(
                "shard {k}/{n_shards}: {circuit} completed={} evaluated={} failures={}",
                mc.completed, mc.evaluated, mc.failures
            );
            continue;
        }
        if let CampaignVerdict::Truncated { remaining } = mc.verdict {
            truncated += 1;
            eprintln!(
                "deadline: {circuit} truncated with {remaining}/100 samples pending; \
                 resume with --resume to finish"
            );
            continue;
        }
        let (delays, summary, failures, evaluated) =
            (mc.delays, mc.summary, mc.failures, mc.evaluated);
        println!(
            "{engine} {circuit}: n={} mean={} std={} failures={}",
            summary.n,
            bits_hex(summary.mean),
            bits_hex(summary.std),
            failures
        );
        if evaluated > 0 {
            eprintln!(
                "{circuit}: {:.1} samples/sec",
                evaluated as f64 / t0.elapsed().as_secs_f64()
            );
        } else {
            eprintln!("{circuit}: restored from snapshot");
        }
        let label = if args.engine == Engine::Sobol {
            "Sobol"
        } else {
            "MC"
        };
        render_vs_ga(
            &model,
            &sources,
            circuit,
            label,
            summary.mean,
            summary.std,
            &delays,
        )?;
    }
    if truncated > 0 {
        println!(
            "note: {truncated} circuit(s) hit the deadline; rerun with --resume \
             to finish from the snapshots"
        );
    }
    meter.set("truncated_circuits", truncated as u64);
    meter.finish(&args)?;
    Ok(())
}
