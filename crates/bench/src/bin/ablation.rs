//! Ablation studies of the framework's design choices (the extensions
//! `DESIGN.md` calls out):
//!
//! 1. **ROM order sweep** — accuracy of the variational macromodel's delay
//!    vs reduction order (cost of each extra Krylov vector vs error);
//! 2. **Stability filter on/off** — fraction of Monte-Carlo samples whose
//!    raw variational model is unstable, and what the filter costs in
//!    waveform accuracy on stable samples;
//! 3. **LHS vs plain Monte-Carlo** — variance of the mean-delay estimator
//!    at equal sample counts;
//! 4. **Finite-difference step δ** — characterization robustness.
//!
//! Run with `cargo run --release -p linvar-bench --bin ablation`.

#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

use linvar_bench::{render_table, BenchArgs, BenchError, BenchMeter};
use linvar_devices::{tech_018, DeviceVariation};
use linvar_interconnect::{builder::build_coupled_lines, CoupledLineSpec, WireTech};
use linvar_mor::{extract_pole_residue, ReductionMethod, VariationalRom};
use linvar_numeric::vector::{mean, std_dev};
use linvar_stats::{lhs_uniform, rng_from_seed, uniform_samples, SampleRng};
use linvar_teta::{StageModel, Waveform};

fn stage_delay(stage: &StageModel, out_port: usize, w: &[f64]) -> Result<f64, BenchError> {
    let input = Waveform::ramp(0.0, 1.8, 20e-12, 50e-12);
    let res = stage.evaluate(w, DeviceVariation::nominal(), &[input], 1e-12, 2e-9)?;
    res.waveforms[out_port]
        .crossing(0.9, false)
        .ok_or_else(|| "stage output did not fall".into())
}

fn main() {
    if let Err(e) = run() {
        eprintln!("ablation: {e}");
        std::process::exit(e.exit_code());
    }
}

fn run() -> Result<(), BenchError> {
    let args = BenchArgs::parse(std::env::args().skip(1))?;
    args.reject_campaign_flags("ablation")?;
    args.reject_shard_flags("ablation")?;
    if args.quick {
        return Err(BenchError::Usage("ablation has no --quick mode".into()));
    }
    let meter = BenchMeter::start("ablation");
    let tech = tech_018();
    let spec = CoupledLineSpec::new(1, 60e-6, WireTech::m018());
    let built = build_coupled_lines(&spec)?;
    let out_pos = built
        .netlist
        .ports()
        .iter()
        .position(|p| *p == built.outputs[0])
        .ok_or("line far end is not a port")?;

    // ---------- 1. ROM order sweep --------------------------------------
    println!("==== Ablation 1: reduction order vs delay accuracy ====\n");
    let reference = {
        let stage = StageModel::build(
            &built.netlist,
            &[built.inputs[0]],
            &tech,
            ReductionMethod::Prima { order: 14 },
            0.02,
        )?;
        stage_delay(&stage, out_pos, &[0.5, -0.5, 0.5, -0.5, 0.5])?
    };
    let mut rows = Vec::new();
    for order in [2usize, 3, 4, 6, 8, 10] {
        let stage = StageModel::build(
            &built.netlist,
            &[built.inputs[0]],
            &tech,
            ReductionMethod::Prima { order },
            0.02,
        )?;
        let d = stage_delay(&stage, out_pos, &[0.5, -0.5, 0.5, -0.5, 0.5])?;
        rows.push(vec![
            format!("{order}"),
            format!("{:.3}", d * 1e12),
            format!("{:+.3}", (d - reference) * 1e12),
        ]);
    }
    println!(
        "{}",
        render_table(
            &["ROM order", "delay (ps)", "error vs order-14 (ps)"],
            &rows
        )
    );

    // ---------- 2. Stability filter incidence ---------------------------
    println!("==== Ablation 2: raw-macromodel stability across samples ====\n");
    let var = {
        let mut v = built.netlist.variational_stamps()?;
        // Fold a unit-driver conductance like the stage builder does.
        let nmos = tech
            .library
            .get(&tech.library.nmos_name())
            .ok_or("nmos model missing from the library")?;
        let pmos = tech
            .library
            .get(&tech.library.pmos_name())
            .ok_or("pmos model missing from the library")?;
        let g_out = linvar_devices::chord_conductance(nmos, tech.wn, tech.library.lmin, 1.8)
            + linvar_devices::chord_conductance(pmos, tech.wp, tech.library.lmin, 1.8);
        let idx = v.port_indices[0];
        v.add_grounded_conductance(idx, g_out)?;
        v.sparse()?
    };
    let vrom = VariationalRom::characterize(&var, ReductionMethod::Prima { order: 6 }, 0.02)?;
    let mut rng = rng_from_seed(31);
    let mut rows = Vec::new();
    for &range in &[1.0, 2.0, 3.0] {
        let samples = lhs_uniform(&mut rng, 200, 5, -range, range);
        let mut unstable = 0usize;
        let mut worst_beta = 0.0_f64;
        for s in &samples {
            let pr = extract_pole_residue(&vrom.evaluate(s)?)?;
            if !pr.is_stable() {
                unstable += 1;
                let (_, rep) = linvar_mor::stabilize(&pr);
                worst_beta = worst_beta.max(rep.max_beta_deviation);
            }
        }
        rows.push(vec![
            format!("±{range}"),
            format!("{unstable}/200"),
            format!("{worst_beta:.2e}"),
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "sample range (norm. units)",
                "unstable samples",
                "worst |beta-1|"
            ],
            &rows
        )
    );

    // ---------- 3. LHS vs plain MC estimator variance -------------------
    println!("==== Ablation 3: LHS vs plain MC (mean-delay estimator std) ====\n");
    let stage = StageModel::build(
        &built.netlist,
        &[built.inputs[0]],
        &tech,
        ReductionMethod::Prima { order: 6 },
        0.02,
    )?;
    let trials = 12;
    let n = 16;
    let mut lhs_means = Vec::new();
    let mut mc_means = Vec::new();
    for t in 0..trials {
        let mut rng: SampleRng = rng_from_seed(100 + t);
        let lhs = lhs_uniform(&mut rng, n, 5, -1.0, 1.0);
        let ds: Vec<f64> = lhs
            .iter()
            .map(|s| stage_delay(&stage, out_pos, s))
            .collect::<Result<_, _>>()?;
        lhs_means.push(mean(&ds));
        let mut plain = Vec::with_capacity(n);
        for _ in 0..n {
            let s = uniform_samples(&mut rng, 5, -1.0, 1.0);
            plain.push(stage_delay(&stage, out_pos, &s)?);
        }
        mc_means.push(mean(&plain));
    }
    println!("estimator std over {trials} trials of {n} samples:");
    println!("  LHS      : {:.4} ps", std_dev(&lhs_means) * 1e12);
    println!("  plain MC : {:.4} ps", std_dev(&mc_means) * 1e12);
    println!(
        "  variance reduction: {:.1}x\n",
        (std_dev(&mc_means) / std_dev(&lhs_means)).powi(2)
    );

    // ---------- 4. FD step robustness ------------------------------------
    println!("==== Ablation 4: characterization step delta ====\n");
    let mut rows = Vec::new();
    for &delta in &[0.002, 0.01, 0.02, 0.1, 0.3] {
        let stage = StageModel::build(
            &built.netlist,
            &[built.inputs[0]],
            &tech,
            ReductionMethod::Prima { order: 6 },
            delta,
        )?;
        let d = stage_delay(&stage, out_pos, &[0.8, 0.0, 0.0, -0.8, 0.0])?;
        rows.push(vec![format!("{delta}"), format!("{:.3}", d * 1e12)]);
    }
    println!(
        "{}",
        render_table(&["delta", "delay at test sample (ps)"], &rows)
    );
    println!("(delays should agree across delta — the basis sensitivities are");
    println!(" linear over a wide step range)");
    eprintln!("{}", linvar_bench::workspace_note());
    meter.finish(&args)?;
    Ok(())
}
