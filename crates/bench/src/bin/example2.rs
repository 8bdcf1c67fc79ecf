//! Regenerates the paper's Example 2: Figure 5 (CPU time vs wirelength)
//! and Figure 6 (delay histograms, full vs variational reduced model).
//!
//! A 4-port stage: four parallel coupled minimum-width lines, each driven
//! by an inverter; the delay is measured at the probe line's far end. Wire
//! parameters (W, T, S, H, ρ) fluctuate uniformly within their tolerances;
//! 100 Latin-Hypercube samples.
//!
//! Flags: `--checkpoint <prefix>` / `--resume <prefix>` /
//! `--deadline <secs>` run the two Figure-6 Monte-Carlo sweeps as durable
//! campaigns (snapshots `<prefix>.fig6-reduced.ckpt` and
//! `<prefix>.fig6-full.ckpt`). Completed sweeps print deterministic `mc …`
//! lines with the statistics as raw `f64` bit patterns.
//!
//! Run with `cargo run --release -p linvar-bench --bin example2`
//! (set `LINVAR_THREADS` to pin the Monte-Carlo worker count).

#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

use linvar_bench::{bits_hex, render_table, BenchArgs, BenchError, BenchMeter};
use linvar_circuit::{MosType, Netlist, SourceWaveform};
use linvar_devices::{tech_018, DeviceVariation};
use linvar_interconnect::{builder::build_coupled_lines, CoupledLineSpec, WireTech};
use linvar_mor::ReductionMethod;
use linvar_spice::{Transient, TransientOptions};
use linvar_stats::{
    execute, fingerprint_str, fingerprint_words, lhs_uniform, monte_carlo_par, resolve_threads,
    rng_from_seed, CampaignFingerprint, CampaignVerdict, Histogram, MonteCarloResult,
    RecoveryPolicy, RunSpec, SampleStatus,
};
use linvar_teta::{StageModel, Waveform};
use std::time::Instant;

const N_LINES: usize = 4;
const PROBE_LINE: usize = 1;
const MASTER_SEED: u64 = 2;
const N_SAMPLES: usize = 100;
const FIG6_LENGTH_UM: f64 = 50.0;

struct FourPortStage {
    model: StageModel,
    netlist: Netlist,
    inputs: Vec<linvar_circuit::NodeId>,
    probe_far: linvar_circuit::NodeId,
    probe_port: usize,
}

fn build_stage(length_um: f64) -> Result<FourPortStage, BenchError> {
    let tech = tech_018();
    let spec = CoupledLineSpec::new(N_LINES, length_um * 1e-6, WireTech::m018());
    let built = build_coupled_lines(&spec)?;
    let model = StageModel::build(
        &built.netlist,
        &built.inputs,
        &tech,
        ReductionMethod::Prima { order: 8 },
        0.02,
    )?;
    let probe_far = built.outputs[PROBE_LINE];
    let probe_port = built
        .netlist
        .ports()
        .iter()
        .position(|p| *p == probe_far)
        .ok_or("probe far end is not a port")?;
    Ok(FourPortStage {
        model,
        netlist: built.netlist,
        inputs: built.inputs,
        probe_far,
        probe_port,
    })
}

/// TETA evaluation of the stage at a wire sample; returns the probe delay.
fn teta_delay(stage: &FourPortStage, w: &[f64]) -> Result<f64, BenchError> {
    let vdd = 1.8;
    let input = Waveform::ramp(0.0, vdd, 50e-12, 50e-12);
    let m_in = 75e-12;
    let inputs = vec![input; N_LINES];
    let res = stage
        .model
        .evaluate(w, DeviceVariation::nominal(), &inputs, 1e-12, 2e-9)?;
    let out = &res.waveforms[stage.probe_port];
    let m_out = out
        .crossing(vdd / 2.0, false)
        .ok_or("probe output did not switch")?;
    Ok(m_out - m_in)
}

/// Same evaluation through the exact (per-sample re-reduced) model.
fn teta_exact_delay(stage: &FourPortStage, w: &[f64]) -> Result<f64, BenchError> {
    let vdd = 1.8;
    let input = Waveform::ramp(0.0, vdd, 50e-12, 50e-12);
    let m_in = 75e-12;
    let inputs = vec![input; N_LINES];
    let res = stage
        .model
        .evaluate_exact(w, DeviceVariation::nominal(), &inputs, 1e-12, 2e-9)?;
    let out = &res.waveforms[stage.probe_port];
    let m_out = out
        .crossing(vdd / 2.0, false)
        .ok_or("probe output did not switch")?;
    Ok(m_out - m_in)
}

/// SPICE evaluation: four transistor inverters driving the frozen bundle.
fn spice_delay(stage: &FourPortStage, w: &[f64]) -> Result<f64, BenchError> {
    let tech = tech_018();
    let vdd = tech.library.vdd;
    let frozen = stage.netlist.frozen_at(w);
    let mut sim = Netlist::new();
    let vdd_node = sim.node("vdd");
    let in_node = sim.node("stage_in");
    sim.instantiate(&frozen, "", &[])?;
    sim.add_vsource("Vdd", vdd_node, Netlist::GROUND, SourceWaveform::Dc(vdd))?;
    sim.add_vsource(
        "Vin",
        in_node,
        Netlist::GROUND,
        SourceWaveform::Ramp {
            v0: 0.0,
            v1: vdd,
            t0: 50e-12,
            tr: 50e-12,
        },
    )?;
    for (k, near) in stage.inputs.iter().enumerate() {
        let name = frozen
            .node_name(*near)
            .ok_or("stage input is unnamed")?
            .to_string();
        let node = sim
            .find_node(&name)
            .ok_or("stage input missing after instantiation")?;
        sim.add_mosfet(
            &format!("MP{k}"),
            node,
            in_node,
            vdd_node,
            vdd_node,
            MosType::Pmos,
            &tech.library.pmos_name(),
            tech.wp,
            tech.library.lmin,
        )?;
        sim.add_mosfet(
            &format!("MN{k}"),
            node,
            in_node,
            Netlist::GROUND,
            Netlist::GROUND,
            MosType::Nmos,
            &tech.library.nmos_name(),
            tech.wn,
            tech.library.lmin,
        )?;
    }
    let probe_name = frozen
        .node_name(stage.probe_far)
        .ok_or("probe node is unnamed")?
        .to_string();
    let mut opts = TransientOptions::new(2e-9, 1e-12);
    opts.probes.push(probe_name.clone());
    let res =
        Transient::with_devices(&sim, &tech.library, DeviceVariation::nominal(), &opts)?.run()?;
    let times = &res.times;
    let vals = res.probe(&probe_name).ok_or("probe was not recorded")?;
    let m_out = linvar_spice::crossing_time(times, vals, vdd / 2.0, false, 0.0)
        .ok_or("spice probe did not switch")?;
    Ok(m_out - 75e-12)
}

/// Identity of one Figure-6 campaign: the sampling scheme (uniform LHS
/// over the 5 wire sources), the stage geometry, and which engine.
fn fig6_fingerprint(variant: &str) -> CampaignFingerprint {
    CampaignFingerprint {
        master_seed: MASTER_SEED,
        n_samples: N_SAMPLES,
        policy: RecoveryPolicy {
            max_retries: 0,
            allow_fallback: false,
            fail_fast: false,
        },
        model: fingerprint_words([
            fingerprint_str("example2-fig6"),
            fingerprint_str(variant),
            N_LINES as u64,
            FIG6_LENGTH_UM.to_bits(),
        ]),
    }
}

fn main() {
    if let Err(e) = run() {
        eprintln!("example2: {e}");
        std::process::exit(e.exit_code());
    }
}

fn run() -> Result<(), BenchError> {
    let args = BenchArgs::parse(std::env::args().skip(1))?;
    args.reject_shard_flags("example2")?;
    if args.quick {
        return Err(BenchError::Usage("example2 has no --quick mode".into()));
    }
    let mut meter = BenchMeter::start("example2");
    let run_start = Instant::now();
    let threads = resolve_threads(0);
    println!("==== Example 2 (paper Figures 5-6) ====");
    println!("(TETA Monte-Carlo on {threads} worker thread(s); set LINVAR_THREADS to change)\n");
    let mut rng = rng_from_seed(MASTER_SEED);
    let samples = lhs_uniform(&mut rng, N_SAMPLES, 5, -1.0, 1.0);

    // ---------------- Figure 5: CPU time vs wirelength ----------------
    let mut rows = Vec::new();
    for &len in &[10.0, 25.0, 50.0, 100.0] {
        if args.deadline_exhausted(run_start) {
            eprintln!("deadline: skipping the Figure-5 {len} um measurement");
            continue;
        }
        let stage = build_stage(len)?;
        let n_teta = 20;
        let t0 = Instant::now();
        let mc = monte_carlo_par(&samples[..n_teta], threads, |s| teta_delay(&stage, s));
        let elapsed = t0.elapsed().as_secs_f64();
        if let Some(diag) = &mc.first_error {
            return Err(format!("TETA evaluation failed at {len} um: {diag}").into());
        }
        let teta_ms = elapsed * 1e3 / n_teta as f64;
        let sps = n_teta as f64 / elapsed;
        let n_spice = 3;
        let t0 = Instant::now();
        for s in samples.iter().take(n_spice) {
            spice_delay(&stage, s)?;
        }
        let spice_ms = t0.elapsed().as_secs_f64() * 1e3 / n_spice as f64;
        rows.push(vec![
            format!("{len:.0}"),
            format!("{}", N_LINES * (len as usize) * 3 - (len as usize)),
            format!("{teta_ms:.2}"),
            format!("{sps:.1}"),
            format!("{spice_ms:.2}"),
            format!("{:.1}", spice_ms / teta_ms),
        ]);
    }
    println!("Figure 5: CPU time per Monte-Carlo sample vs wirelength");
    println!(
        "{}",
        render_table(
            &[
                "length (um)",
                "lin. elements",
                "TETA ms",
                "TETA samples/s",
                "SPICE ms",
                "speedup"
            ],
            &rows
        )
    );

    // ---------------- Figure 6: delay histograms ----------------------
    let stage = build_stage(FIG6_LENGTH_UM)?;
    let fig6 = |variant: &str,
                eval: &(dyn Fn(&Vec<f64>) -> Result<f64, BenchError> + Sync)|
     -> Result<MonteCarloResult, BenchError> {
        let fp = fig6_fingerprint(variant);
        let spec = args.run_spec(
            &format!("fig6-{variant}"),
            run_start,
            RunSpec::plain(threads),
        )?;
        let res = execute(&samples, &spec, &fp, |s: &Vec<f64>, _attempt| {
            eval(s).map(|d| (d, SampleStatus::Clean))
        })?;
        if res.verdict == CampaignVerdict::Complete {
            println!(
                "mc fig6-{variant}: n={} mean={} std={} failures={}",
                res.summary.n,
                bits_hex(res.summary.mean),
                bits_hex(res.summary.std),
                res.failures
            );
        }
        Ok(res)
    };
    let reduced_mc = fig6("reduced", &|s| teta_delay(&stage, s))?;
    let full_mc = fig6("full", &|s| teta_exact_delay(&stage, s))?;
    if reduced_mc.verdict != CampaignVerdict::Complete
        || full_mc.verdict != CampaignVerdict::Complete
    {
        println!(
            "note: the Figure-6 sweeps hit the deadline; rerun with --resume to \
             finish from the snapshots"
        );
        return Ok(());
    }
    if let Some(diag) = reduced_mc
        .first_error
        .as_ref()
        .or(full_mc.first_error.as_ref())
    {
        return Err(format!("Figure-6 evaluation failed: {diag}").into());
    }
    let reduced = reduced_mc.values;
    let full = full_mc.values;
    let rs = reduced_mc.summary;
    let fs = full_mc.summary;
    println!("Figure 6: probe delay over {N_SAMPLES} LHS samples (50 um lines)");
    println!(
        "  variational ROM : mean {:.3} ps, std {:.3} ps",
        rs.mean * 1e12,
        rs.std * 1e12
    );
    println!(
        "  exact reduction : mean {:.3} ps, std {:.3} ps",
        fs.mean * 1e12,
        fs.std * 1e12
    );
    println!(
        "  |mean error| = {:.3} ps, |std error| = {:.3} ps",
        (rs.mean - fs.mean).abs() * 1e12,
        (rs.std - fs.std).abs() * 1e12
    );
    let (h_red, h_full) = Histogram::pair(&reduced, &full, 12)?;
    print!(
        "{}",
        h_red.render_pair(&h_full, "variational ROM", "exact reduction", 1e12, "ps")
    );
    // SPICE cross-check on a few samples.
    if args.deadline_exhausted(run_start) {
        eprintln!("deadline: skipping the SPICE cross-check");
        eprintln!("{}", linvar_bench::workspace_note());
        meter.finish(&args)?;
        return Ok(());
    }
    let mut worst = 0.0_f64;
    for s in samples.iter().take(3) {
        let d_teta = teta_delay(&stage, s)?;
        let d_spice = spice_delay(&stage, s)?;
        worst = worst.max((d_teta - d_spice).abs() / d_spice.abs());
    }
    println!(
        "\nSPICE cross-check on 3 samples: worst relative delay error {:.2}%",
        worst * 100.0
    );
    meter.set("spice_crosscheck_worst_rel_error", worst);
    eprintln!("{}", linvar_bench::workspace_note());
    meter.finish(&args)?;
    Ok(())
}
