//! Regenerates the paper's Table 4: framework speedup over the SPICE
//! baseline on ISCAS-89 critical paths, at 10 and 500 linear elements
//! between stages.
//!
//! Per circuit/configuration, the per-sample Monte-Carlo cost of each
//! engine is measured (the framework on several samples through the
//! durable campaign driver, the baseline on one — its per-sample cost is
//! deterministic) and the ratio reported. Framework throughput is
//! reported as samples/sec at the worker count selected by
//! `LINVAR_THREADS` (default: all available cores).
//!
//! Flags: `--quick` skips the 500-element column of the two largest
//! circuits; `--checkpoint <prefix>` / `--resume <prefix>` /
//! `--deadline <secs>` run the Monte-Carlo portions as durable campaigns
//! (one snapshot per circuit/configuration under the prefix). Completed
//! configurations print a deterministic `mc <circuit>@<elements>: …`
//! line with the statistics as raw `f64` bit patterns — identical
//! between a clean run and any interrupted-and-resumed schedule.
//!
//! `--shards <N>` routes each campaign through the shard supervisor
//! (fault-tolerant, per-shard snapshots under `--checkpoint`); the `mc`
//! lines stay byte-identical to the unsharded run at any shard count.
//! `--shards <N> --shard-index <K> --checkpoint <prefix>` instead runs
//! only shard K of every campaign in this process, leaving its snapshot
//! as the output — a later `--shards N --resume <prefix>` run merges
//! the per-shard snapshots without re-evaluating any sample.
//!
//! `--engine gpc|sobol` switches to the engine-comparison mode: per
//! circuit at 10 linear elements, an MC reference runs next to the
//! requested engine and the agreement (plus, for gPC, the
//! solves-to-tolerance ratio) is recorded in `BENCH_table4.json`. The
//! gPC refinement runs as a durable campaign, so the campaign flags
//! apply to it; `--shards` does not combine with a spectral engine.
//!
//! Run with `cargo run --release -p linvar-bench --bin table4`
//! (`LINVAR_THREADS=4 cargo run …` to pin the worker count).

#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

use linvar_bench::budget::{Agreement, SolvesToTolerance, ENGINE_MC_REF_N, ENGINE_SEED};
use linvar_bench::{
    bits_hex, quantile_at, render_table, BenchArgs, BenchError, BenchMeter, Engine,
};
use linvar_core::path::{PathModel, PathSpec, Sampling, VariationSources};
use linvar_core::{CampaignVerdict, RunSpec};
use linvar_devices::tech_018;
use linvar_interconnect::WireTech;
use linvar_iscas::{benchmark, decompose_to_primitives, longest_path};
use linvar_metrics::Json;
use linvar_stats::{resolve_threads, SpectralConfig};
use std::time::Instant;

/// `--engine gpc|sobol`: per circuit at 10 linear elements, run an MC
/// reference plus the requested engine, print the engine's deterministic
/// statistics rows, and record the agreement + solves-to-tolerance
/// metrics in `BENCH_table4.json`.
///
/// The gPC mode runs the stochastic-testing grid twice — order 1 (the
/// cheap estimate) and order 2 (the refined one, as a durable campaign
/// honoring `--checkpoint`/`--resume`/`--deadline`). The spread between
/// the two is the achieved tolerance ([`SolvesToTolerance`]); the budgets
/// are [`Agreement`]'s.
fn run_engine_mode(args: &BenchArgs) -> Result<(), BenchError> {
    let mut meter = BenchMeter::start("table4");
    let mut configs = Json::obj();
    let run_start = Instant::now();
    let threads = resolve_threads(0);
    let engine = args.engine.name();
    println!("==== Table 4 ({engine} engine): agreement with the MC reference ====");
    println!("(MC reference n={ENGINE_MC_REF_N}; {threads} worker thread(s))\n");
    let tech = tech_018();
    let wire = WireTech::m018();
    let sources = VariationSources::example3_table4();
    let circuits: &[&str] = if args.quick {
        &["s27", "s208"]
    } else {
        &["s27", "s208", "s444", "s1423", "s9234"]
    };
    let master_seed = ENGINE_SEED;
    let n_elem = 10usize;
    let base = RunSpec {
        threads,
        ..RunSpec::default()
    };
    let mut rows = Vec::new();
    let mut truncated = 0usize;
    let mut all_within = true;
    for &circuit in circuits {
        if args.deadline_exhausted(run_start) {
            truncated += 1;
            eprintln!("deadline: skipping {circuit}@{n_elem} (no budget left)");
            continue;
        }
        let spec = PathSpec {
            cells: path_cells(circuit)?,
            linear_elements_between_stages: n_elem,
            input_slew: 60e-12,
        };
        let model = PathModel::build(&spec, &tech, &wire)?;
        let mc = model.run(
            &sources,
            Sampling::Lhs(ENGINE_MC_REF_N),
            master_seed,
            &RunSpec::plain(threads),
        )?;
        let mut cfg = Json::obj();
        cfg.set("engine", engine);
        cfg.set("mc_ref_n", mc.summary.n as u64);
        cfg.set("mc_mean_bits", bits_hex(mc.summary.mean));
        cfg.set("mc_std_bits", bits_hex(mc.summary.std));
        let (mean, std, solves) = match args.engine {
            Engine::Sobol => {
                let spec = args.run_spec(
                    &format!("sobol.{circuit}.{n_elem}"),
                    run_start,
                    base.clone(),
                )?;
                let qmc = model.run(
                    &sources,
                    Sampling::Sobol(ENGINE_MC_REF_N),
                    master_seed,
                    &spec,
                )?;
                if let CampaignVerdict::Truncated { remaining } = qmc.verdict {
                    truncated += 1;
                    eprintln!(
                        "deadline: {circuit}@{n_elem} truncated with {remaining} samples \
                         pending; resume with --resume to finish"
                    );
                    continue;
                }
                println!(
                    "sobol {circuit}@{n_elem}: n={} mean={} std={} failures={}",
                    qmc.summary.n,
                    bits_hex(qmc.summary.mean),
                    bits_hex(qmc.summary.std),
                    qmc.failures
                );
                cfg.set("sobol_mean_bits", bits_hex(qmc.summary.mean));
                cfg.set("sobol_std_bits", bits_hex(qmc.summary.std));
                cfg.set("failures", qmc.failures as u64);
                (qmc.summary.mean, qmc.summary.std, qmc.summary.n)
            }
            _ => {
                // Cheap estimate: stochastic-testing order 1 (d+1 solves).
                let lo = model
                    .run(
                        &sources,
                        Sampling::Spectral(SpectralConfig::stochastic_testing(1)),
                        master_seed,
                        &base,
                    )?
                    .spectral
                    .ok_or("a plain gPC run completes its grid")?;
                // Refined estimate: order 2, as a durable campaign.
                let spec =
                    args.run_spec(&format!("gpc.{circuit}.{n_elem}"), run_start, base.clone())?;
                let pc = model.run(
                    &sources,
                    Sampling::Spectral(SpectralConfig::stochastic_testing(2)),
                    master_seed,
                    &spec,
                )?;
                let Some(hi) = pc.spectral else {
                    truncated += 1;
                    eprintln!(
                        "deadline: {circuit}@{n_elem} truncated mid-grid ({} nodes done); \
                         resume with --resume to finish",
                        pc.completed
                    );
                    continue;
                };
                println!(
                    "gpc {circuit}@{n_elem}: nodes={} mean={} std={} q05={} q50={} q95={}",
                    hi.nodes_evaluated,
                    bits_hex(hi.mean),
                    bits_hex(hi.std),
                    bits_hex(quantile_at(&hi.quantiles, 0.05)),
                    bits_hex(quantile_at(&hi.quantiles, 0.5)),
                    bits_hex(quantile_at(&hi.quantiles, 0.95)),
                );
                let solves = SolvesToTolerance::new(&lo, &hi);
                cfg.set("gpc_solves_lo", lo.nodes_evaluated as u64);
                cfg.set("gpc_solves_hi", hi.nodes_evaluated as u64);
                cfg.set("gpc_solves", solves.gpc_solves as u64);
                cfg.set("gpc_mean_bits", bits_hex(hi.mean));
                cfg.set("gpc_std_bits", bits_hex(hi.std));
                cfg.set("tol_achieved", solves.tol_achieved);
                cfg.set("mc_solves_to_tol", solves.mc_solves_to_tol);
                cfg.set("solves_ratio", solves.ratio);
                cfg.set("solves_ratio_ok", solves.within());
                if !solves.within() {
                    all_within = false;
                }
                (hi.mean, hi.std, solves.gpc_solves)
            }
        };
        let agreement = Agreement::new(&mc.summary, mean, std);
        let within = agreement.within();
        all_within = all_within && within;
        cfg.set("mean_abs_err", agreement.mean_abs_err);
        cfg.set("mean_budget", agreement.mean_budget);
        cfg.set("std_abs_err", agreement.std_abs_err);
        cfg.set("std_budget", agreement.std_budget);
        cfg.set("within_budget", within);
        configs.set(&format!("{circuit}@{n_elem}"), cfg);
        rows.push(vec![
            circuit.to_string(),
            format!("{solves}"),
            format!("{}", mc.summary.n),
            format!(
                "{:.2}%",
                1e2 * agreement.mean_abs_err / mc.summary.mean.abs()
            ),
            format!("{:.1}%", 1e2 * agreement.std_abs_err / mc.summary.std.abs()),
            if within { "yes" } else { "NO" }.to_string(),
        ]);
        eprintln!("done: {circuit} @ {n_elem} elements ({engine})");
    }
    println!(
        "{}",
        render_table(
            &[
                "circuit",
                "engine solves",
                "MC ref n",
                "Δmean vs MC",
                "Δstd vs MC",
                "within budget",
            ],
            &rows
        )
    );
    println!("(budgets: mean 2% + 4·SE, std 25% + 4·SE of the MC reference; the gPC");
    println!(" solves-to-tolerance ratio in BENCH_table4.json must stay ≤ 0.1)");
    if truncated > 0 {
        println!(
            "note: {truncated} configuration(s) hit the deadline; rerun with \
             --resume to finish from the snapshots"
        );
    }
    if !all_within && truncated == 0 {
        return Err(BenchError::Msg(format!(
            "{engine} engine left the documented agreement budget (see table above)"
        )));
    }
    meter.set("engine", engine);
    meter.set("configs", configs);
    meter.set("truncated_configs", truncated as u64);
    meter.set("all_within_budget", all_within);
    eprintln!("{}", linvar_bench::workspace_note());
    meter.finish(args)?;
    Ok(())
}

fn path_cells(circuit: &str) -> Result<Vec<String>, BenchError> {
    let bench = benchmark(circuit).ok_or_else(|| format!("unknown benchmark {circuit}"))?;
    let report = longest_path(&bench.netlist)?;
    let stages = decompose_to_primitives(&bench.netlist, &report)?;
    Ok(stages.into_iter().map(|s| s.cell).collect())
}

fn main() {
    if let Err(e) = run() {
        eprintln!("table4: {e}");
        std::process::exit(e.exit_code());
    }
}

fn run() -> Result<(), BenchError> {
    let args = BenchArgs::parse(std::env::args().skip(1))?;
    args.validate_engine("table4", true)?;
    if args.engine != Engine::Mc {
        return run_engine_mode(&args);
    }
    let mut meter = BenchMeter::start("table4");
    let mut configs = Json::obj();
    let run_start = Instant::now();
    let threads = resolve_threads(0);
    println!("==== Table 4: speedup of the framework vs the SPICE baseline ====");
    println!(
        "(framework Monte-Carlo on {threads} worker thread(s); set LINVAR_THREADS to change)\n"
    );
    let tech = tech_018();
    let wire = WireTech::m018();
    let sources = VariationSources::example3_table4();
    let circuits = ["s27", "s208", "s444", "s1423", "s9234"];
    let master_seed = 4;
    let mut rows = Vec::new();
    let mut truncated = 0usize;
    for circuit in circuits {
        let cells = path_cells(circuit)?;
        for &n_elem in &[10usize, 500] {
            if args.quick && n_elem == 500 && (circuit == "s1423" || circuit == "s9234") {
                continue;
            }
            if args.deadline_exhausted(run_start) {
                // No budget left even to build the model — leave this
                // configuration entirely to a resumed run.
                truncated += 1;
                eprintln!("deadline: skipping {circuit}@{n_elem} (no budget left)");
                continue;
            }
            let spec = PathSpec {
                cells: cells.clone(),
                linear_elements_between_stages: n_elem,
                input_slew: 60e-12,
            };
            let t_build = Instant::now();
            let model = PathModel::build(&spec, &tech, &wire)?;
            let build_s = t_build.elapsed().as_secs_f64();
            let n_teta = if n_elem == 500 { 3 } else { 5 };
            let config_tag = format!("{circuit}.{n_elem}");
            let spec = args.run_spec(
                &config_tag,
                run_start,
                RunSpec {
                    threads,
                    ..RunSpec::default()
                },
            )?;
            let t0 = Instant::now();
            // Plain, durable and sharded runs all feed the same `mc` line
            // below — the rows are byte-identical at any shard count,
            // which ci.sh's shard smoke diffs.
            let mc = model.run(&sources, Sampling::Lhs(n_teta), master_seed, &spec)?;
            if let (Some(n_shards), Some(k)) = (args.shards, args.shard_index) {
                // Process-per-shard worker: only shard k of this
                // configuration ran, and its snapshot is the output. A
                // later `--shards N --resume <prefix>` run merges the
                // snapshots without re-evaluating anything.
                println!(
                    "shard {k}/{n_shards}: {circuit}@{n_elem} completed={} evaluated={} failures={}",
                    mc.completed, mc.evaluated, mc.failures
                );
                eprintln!("done: {circuit} @ {n_elem} elements (shard {k} only)");
                continue;
            }
            if let CampaignVerdict::Truncated { remaining } = mc.verdict {
                truncated += 1;
                eprintln!(
                    "deadline: {circuit}@{n_elem} truncated with {remaining}/{n_teta} \
                     samples pending ({} completed this run); resume with --resume to \
                     finish",
                    mc.evaluated
                );
                continue;
            }
            let (summary, failures, first_error, evaluated) =
                (mc.summary, mc.failures, mc.first_error, mc.evaluated);
            let elapsed = t0.elapsed().as_secs_f64();
            if failures > 0 {
                eprintln!(
                    "warning: {circuit}@{n_elem}: {failures}/{n_teta} samples failed (first: {})",
                    first_error.as_deref().unwrap_or("unknown"),
                );
            }
            // Deterministic statistics line: bit patterns, not timings —
            // identical between clean and interrupted-resumed schedules.
            println!(
                "mc {circuit}@{n_elem}: n={} mean={} std={} failures={}",
                summary.n,
                bits_hex(summary.mean),
                bits_hex(summary.std),
                failures
            );
            if args.deadline_exhausted(run_start) {
                // The campaign finished (e.g. entirely from the resume
                // snapshot) but there is no budget left for the SPICE
                // measurement; skip the timing row rather than run over.
                truncated += 1;
                eprintln!("deadline: skipping the {circuit}@{n_elem} SPICE measurement");
                continue;
            }
            // Throughput of the samples evaluated in *this* run; a fully
            // resumed campaign evaluates none, so no rate is measurable.
            let timing = if evaluated > 0 {
                Some((elapsed * 1e3 / evaluated as f64, evaluated as f64 / elapsed))
            } else {
                None
            };
            let mut sample_rng = linvar_stats::rng_from_seed(master_seed);
            let samples = model.draw_samples(&sources, 1, &mut sample_rng);
            let t0 = Instant::now();
            model.evaluate_sample_spice(&samples[0])?;
            let spice_ms = t0.elapsed().as_secs_f64() * 1e3;
            let (teta_ms, sps) = match timing {
                Some((ms, sps)) => (format!("{ms:.1}"), format!("{sps:.1}")),
                None => ("resumed".to_string(), "-".to_string()),
            };
            let speedup = match timing {
                Some((ms, _)) => format!("{:.2}", spice_ms / ms),
                None => "-".to_string(),
            };
            rows.push(vec![
                circuit.to_string(),
                format!("{}", model.stage_count()),
                format!("{n_elem}"),
                teta_ms,
                sps,
                format!("{spice_ms:.1}"),
                speedup,
                format!("{build_s:.2}"),
            ]);
            let mut cfg = Json::obj();
            cfg.set("stages", model.stage_count() as u64);
            cfg.set("linear_elements", n_elem as u64);
            cfg.set("spice_ms_per_sample", spice_ms);
            if let Some((ms, sps)) = timing {
                cfg.set("framework_ms_per_sample", ms);
                cfg.set("samples_per_sec", sps);
                cfg.set("speedup", spice_ms / ms);
            }
            cfg.set("mc_mean_bits", bits_hex(summary.mean));
            cfg.set("mc_std_bits", bits_hex(summary.std));
            cfg.set("failures", failures as u64);
            configs.set(&format!("{circuit}@{n_elem}"), cfg);
            eprintln!("done: {circuit} @ {n_elem} elements");
        }
    }
    println!(
        "{}",
        render_table(
            &[
                "circuit",
                "stages",
                "lin. elements",
                "framework ms/sample",
                "samples/sec",
                "SPICE ms/sample",
                "speedup",
                "build s",
            ],
            &rows
        )
    );
    println!("(speedup = per-sample Monte-Carlo cost ratio; the framework's");
    println!(" one-time construction cost is amortized over the sample set)");
    if truncated > 0 {
        println!(
            "note: {truncated} configuration(s) hit the deadline; rerun with \
             --resume to finish from the snapshots"
        );
    }
    meter.set("configs", configs);
    meter.set("truncated_configs", truncated as u64);
    eprintln!("{}", linvar_bench::workspace_note());
    meter.finish(&args)?;
    Ok(())
}
