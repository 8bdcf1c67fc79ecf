//! Regenerates the paper's Example 1: Table 2 (electrical model), Table 3
//! (unstable poles of the raw variational macromodel) and Figure 3
//! (nominal / extreme / reconstructed-macromodel waveforms).
//!
//! Run with `cargo run --release -p linvar-bench --bin example1`.

#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

use linvar_bench::{render_table, BenchArgs, BenchError, BenchMeter};
use linvar_circuit::{MosType, Netlist, SourceWaveform};
use linvar_devices::{tech_06, DeviceVariation, Technology};
use linvar_interconnect::example1::{example1_load, TABLE2};
use linvar_mor::{extract_pole_residue, ReductionMethod, VariationalRom};
use linvar_spice::{OnePortPoleResidue, Transient, TransientOptions};
use linvar_teta::{StageModel, Waveform};

fn main() {
    if let Err(e) = run() {
        eprintln!("example1: {e}");
        std::process::exit(e.exit_code());
    }
}

fn run() -> Result<(), BenchError> {
    let args = BenchArgs::parse(std::env::args().skip(1))?;
    args.reject_campaign_flags("example1")?;
    args.reject_shard_flags("example1")?;
    if args.quick {
        return Err(BenchError::Usage("example1 has no --quick mode".into()));
    }
    let mut meter = BenchMeter::start("example1");
    println!("==== Example 1 (paper Tables 2-3, Figure 3) ====\n");

    // ---------------- Table 2 ----------------------------------------
    let names = ["R1", "R2", "R3", "C1", "C2", "C3", "CC1", "CC2", "CC3"];
    let mut rows = Vec::new();
    for p in [0.0, 0.1] {
        let mut row = vec![format!("{p}")];
        for (k, (nom, sens)) in TABLE2.iter().enumerate() {
            let v = nom + sens * p;
            row.push(if k < 3 {
                format!("{v:.0}")
            } else {
                format!("{:.0}pf", v * 1e12)
            });
        }
        rows.push(row);
    }
    let mut headers = vec!["p"];
    headers.extend(names);
    println!("Table 2: electrical model of the Example-1 circuit");
    println!("{}", render_table(&headers, &rows));

    // ---------------- Table 3 ----------------------------------------
    let (nl, port) = example1_load()?;
    let var = nl.variational_stamps()?.sparse()?;
    let raw =
        VariationalRom::characterize(&var, ReductionMethod::Pact { internal_modes: 3 }, 0.02)?;
    let mut rows = Vec::new();
    let mut worst: Option<(f64, f64)> = None;
    for &p in &[0.0, 0.02, 0.05, 0.06, 0.08, 0.09, 0.1] {
        let pr = extract_pole_residue(&raw.evaluate(&[p])?)?;
        let unstable = pr.unstable_poles();
        let cell = if unstable.is_empty() {
            "-".to_string()
        } else {
            unstable
                .iter()
                .map(|z| format!("{:+.2e}", z.re))
                .collect::<Vec<_>>()
                .join(" ")
        };
        for z in &unstable {
            if worst.is_none_or(|(_, w)| z.re > w) {
                worst = Some((p, z.re));
            }
        }
        rows.push(vec![format!("{p}"), cell]);
    }
    println!("Table 3: unstable poles of the raw variational PACT-4 model");
    println!("{}", render_table(&["p", "unstable poles (rad/s)"], &rows));

    // SPICE on the most unstable raw model → divergence, as in the paper.
    if let Some((p, _)) = worst {
        let pr = extract_pole_residue(&raw.evaluate(&[p])?)?;
        let outcome = spice_on_macromodel(&pr);
        println!("SPICE with the raw macromodel subcircuit at p={p}: {outcome}\n");
    }

    // ---------------- Figure 3 ---------------------------------------
    let tech = tech_06();
    let stage = StageModel::build(
        &nl,
        &[port],
        &tech,
        ReductionMethod::Prima { order: 4 },
        0.02,
    )?;
    let input = Waveform::ramp(tech.library.vdd, 0.0, 1e-9, 2e-9);
    let res = stage.evaluate(
        &[0.1],
        DeviceVariation::nominal(),
        std::slice::from_ref(&input),
        10e-12,
        40e-9,
    )?;
    let v_macro = &res.waveforms[0];
    let v_nom = spice_exact(&nl, port, &tech, 0.0)?;
    let v_ext = spice_exact(&nl, port, &tech, 0.1)?;
    let mut rows = Vec::new();
    let mut max_err = 0.0_f64;
    for k in 0..=20 {
        let t = 2e-9 * k as f64;
        max_err = max_err.max((v_ext.eval(t) - v_macro.eval(t)).abs());
        rows.push(vec![
            format!("{:.0}", t * 1e9),
            format!("{:.3}", v_nom.eval(t)),
            format!("{:.3}", v_ext.eval(t)),
            format!("{:.3}", v_macro.eval(t)),
        ]);
    }
    println!("Figure 3: port waveform, 0.6um inverter driving the load");
    println!(
        "{}",
        render_table(
            &["t (ns)", "nominal p=0", "extreme p=0.1", "macromodel p=0.1"],
            &rows
        )
    );
    println!("max |extreme - macromodel| = {max_err:.4} V (VDD = 5 V)");
    meter.set("fig3_max_macromodel_error_v", max_err);
    meter.finish(&args)?;
    Ok(())
}

fn spice_on_macromodel(pr: &linvar_mor::PoleResidueModel) -> String {
    let run = || -> Result<(), BenchError> {
        let mut drive = Netlist::new();
        let inp = drive.node("in");
        let out = drive.node("out");
        drive.add_vsource(
            "V1",
            inp,
            Netlist::GROUND,
            SourceWaveform::Ramp {
                v0: 0.0,
                v1: 5.0,
                t0: 1e-9,
                tr: 2e-9,
            },
        )?;
        drive.add_resistor("Rdrv", inp, out, 270.0)?;
        let idx = out.mna_index().ok_or("macromodel port is grounded")?;
        let load = OnePortPoleResidue::from_model(pr, idx)?;
        let mut opts = TransientOptions::new(50e-9, 20e-12);
        opts.probes.push("out".into());
        Transient::new(&drive, &opts)?
            .with_poleres_load(load)?
            .run()?;
        Ok(())
    };
    match run() {
        Err(e) => format!("FAILED as in the paper ({e})"),
        Ok(()) => "converged (instability too mild to diverge)".to_string(),
    }
}

fn spice_exact(
    nl: &Netlist,
    port: linvar_circuit::NodeId,
    tech: &Technology,
    p: f64,
) -> Result<Waveform, BenchError> {
    let frozen = nl.frozen_at(&[p]);
    let mut sim = Netlist::new();
    let vdd = sim.node("vdd");
    let inp = sim.node("in");
    sim.instantiate(&frozen, "", &[])?;
    let port_name = frozen
        .node_name(port)
        .ok_or("load port is unnamed")?
        .to_string();
    let out = sim
        .find_node(&port_name)
        .ok_or("load port missing after instantiation")?;
    sim.add_vsource(
        "Vdd",
        vdd,
        Netlist::GROUND,
        SourceWaveform::Dc(tech.library.vdd),
    )?;
    sim.add_vsource(
        "Vin",
        inp,
        Netlist::GROUND,
        SourceWaveform::Ramp {
            v0: tech.library.vdd,
            v1: 0.0,
            t0: 1e-9,
            tr: 2e-9,
        },
    )?;
    sim.add_mosfet(
        "MP",
        out,
        inp,
        vdd,
        vdd,
        MosType::Pmos,
        &tech.library.pmos_name(),
        tech.wp,
        tech.library.lmin,
    )?;
    sim.add_mosfet(
        "MN",
        out,
        inp,
        Netlist::GROUND,
        Netlist::GROUND,
        MosType::Nmos,
        &tech.library.nmos_name(),
        tech.wn,
        tech.library.lmin,
    )?;
    let mut opts = TransientOptions::new(40e-9, 10e-12);
    opts.probes.push(port_name.clone());
    let res =
        Transient::with_devices(&sim, &tech.library, DeviceVariation::nominal(), &opts)?.run()?;
    let probed = res.probe(&port_name).ok_or("probe was not recorded")?;
    let pts: Vec<(f64, f64)> = res
        .times
        .iter()
        .copied()
        .zip(probed.iter().copied())
        .collect();
    Ok(Waveform::from_points(pts).compress(1e-3))
}
