//! Regenerates the paper's Table 5: longest-path delay statistics
//! (mean, σ) from Gradient Analysis vs Monte-Carlo, under `std(DL) = 0.33`
//! alone and with `std(VT) = 0.33` added.
//!
//! Flags: `--quick` runs 30-sample Monte-Carlo; `--checkpoint <prefix>` /
//! `--resume <prefix>` / `--deadline <secs>` run the Monte-Carlo portions
//! as durable campaigns (one snapshot per circuit/configuration).
//! Completed configurations print a deterministic `mc …` line with the
//! statistics as raw `f64` bit patterns.
//!
//! Run with `cargo run --release -p linvar-bench --bin table5`
//! (set `LINVAR_THREADS` to pin the Monte-Carlo worker count).

#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

use linvar_bench::{bits_hex, render_table, BenchArgs, BenchError, BenchMeter};
use linvar_core::path::{PathModel, PathSpec, Sampling, VariationSources};
use linvar_core::{CampaignVerdict, RunSpec};
use linvar_devices::tech_018;
use linvar_interconnect::WireTech;
use linvar_iscas::{benchmark, decompose_to_primitives, longest_path};
use linvar_stats::resolve_threads;
use std::time::Instant;

fn main() {
    if let Err(e) = run() {
        eprintln!("table5: {e}");
        std::process::exit(e.exit_code());
    }
}

fn run() -> Result<(), BenchError> {
    let args = BenchArgs::parse(std::env::args().skip(1))?;
    args.reject_shard_flags("table5")?;
    let mut meter = BenchMeter::start("table5");
    let run_start = Instant::now();
    let n_mc = if args.quick { 30 } else { 100 };
    let threads = resolve_threads(0);
    println!("==== Table 5: longest-path delay statistics (GA vs MC, {n_mc} samples) ====");
    println!("(Monte-Carlo on {threads} worker thread(s); set LINVAR_THREADS to change)\n");
    let tech = tech_018();
    let wire = WireTech::m018();
    let circuits = ["s27", "s208", "s832", "s444", "s1423"];
    let configs = [("0.33", "0", 0.33, 0.0), ("0.33", "0.33", 0.33, 0.33)];
    let mut rows = Vec::new();
    let mut truncated = 0usize;
    for (dl_label, vt_label, dl, vt) in configs {
        for circuit in circuits {
            if args.deadline_exhausted(run_start) {
                truncated += 1;
                eprintln!("deadline: skipping {circuit} DL={dl} VT={vt} (no budget left)");
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
            let sources = VariationSources::example3(dl, vt);
            let ga = model.gradient_analysis(&sources)?;
            let spec = args.run_spec(
                &format!("{circuit}.dl{dl_label}-vt{vt_label}"),
                run_start,
                RunSpec {
                    threads,
                    ..RunSpec::default()
                },
            )?;
            let t0 = Instant::now();
            let mc = model.run(&sources, Sampling::Lhs(n_mc), 5, &spec)?;
            let elapsed = t0.elapsed().as_secs_f64();
            if let CampaignVerdict::Truncated { remaining } = mc.verdict {
                truncated += 1;
                eprintln!(
                    "deadline: {circuit} DL={dl_label} VT={vt_label} truncated with \
                     {remaining}/{n_mc} samples pending; resume with --resume to finish"
                );
                continue;
            }
            println!(
                "mc {circuit} DL={dl_label} VT={vt_label}: n={} mean={} std={} failures={}",
                mc.summary.n,
                bits_hex(mc.summary.mean),
                bits_hex(mc.summary.std),
                mc.failures
            );
            let n_stages = model.stage_count();
            rows.push(vec![
                format!("{circuit} ({n_stages} stages)"),
                dl_label.to_string(),
                vt_label.to_string(),
                "GA".to_string(),
                format!("{:.2}", ga.nominal_delay * 1e12),
                format!("{:.2}", ga.std * 1e12),
            ]);
            rows.push(vec![
                String::new(),
                String::new(),
                String::new(),
                "MC".to_string(),
                format!("{:.2}", mc.summary.mean * 1e12),
                format!("{:.2}", mc.summary.std * 1e12),
            ]);
            if mc.evaluated > 0 {
                eprintln!(
                    "done: {circuit} DL={dl} VT={vt} ({:.1} samples/sec)",
                    mc.evaluated as f64 / elapsed
                );
            } else {
                eprintln!("done: {circuit} DL={dl} VT={vt} (restored from snapshot)");
            }
        }
    }
    println!(
        "{}",
        render_table(
            &[
                "circuit",
                "std(DL)",
                "std(VT)",
                "method",
                "mean (ps)",
                "std (ps)"
            ],
            &rows
        )
    );
    if truncated > 0 {
        println!(
            "note: {truncated} configuration(s) hit the deadline; rerun with \
             --resume to finish from the snapshots"
        );
    }
    meter.set("truncated_configs", truncated as u64);
    eprintln!("{}", linvar_bench::workspace_note());
    meter.finish(&args)?;
    Ok(())
}
