//! The paper's Example 1: instability of variational reduced-order models
//! and the framework's fix.
//!
//! Builds the Table-2 coupled RC line, reduces the one-port load (port 2
//! shunted with 100 Ω) with fourth-order variational PACT, and shows:
//!
//! 1. unstable poles of the raw first-order macromodel over the spatial
//!    parameter sweep (paper Table 3);
//! 2. the SPICE baseline diverging on an unstable raw macromodel;
//! 3. the framework (chords folded, stability filter, TETA) producing a
//!    waveform that tracks the exact extreme-case circuit (paper Figure 3).
//!
//! Run with `cargo run --release --example variational_rc`.

use linvar::circuit::Netlist;
use linvar::interconnect::example1_load;
use linvar::mor::StabilityReport;
use linvar::prelude::*;
use linvar::spice::OnePortPoleResidue;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (nl, port) = example1_load()?;
    let var = nl.variational_stamps()?.sparse()?;
    println!(
        "Example-1 load: {} nodes, {} elements, spatial parameter p",
        var.order(),
        nl.elements().len()
    );

    // ---- Table 3: raw variational PACT (order 4 = 1 port + 3 modes) ----
    let raw =
        VariationalRom::characterize(&var, ReductionMethod::Pact { internal_modes: 3 }, 0.02)?;
    println!("\np      unstable poles of the raw variational macromodel");
    let mut p_unstable: Option<(f64, f64)> = None; // (p, worst Re)
    for &p in &[0.0, 0.02, 0.05, 0.06, 0.08, 0.09, 0.1] {
        let pr = extract_pole_residue(&raw.evaluate(&[p])?)?;
        let unstable = pr.unstable_poles();
        if let Some(worst) = unstable
            .iter()
            .map(|z| z.re)
            .fold(None, |m: Option<f64>, x| Some(m.map_or(x, |m| m.max(x))))
        {
            if p > 0.0 && p_unstable.is_none_or(|(_, w)| worst > w) {
                p_unstable = Some((p, worst));
            }
        }
        let desc = if unstable.is_empty() {
            "stable".to_string()
        } else {
            unstable
                .iter()
                .map(|z| format!("{:+.3e}", z.re))
                .collect::<Vec<_>>()
                .join(", ")
        };
        println!("{p:<6} {desc}");
    }

    // ---- SPICE on a raw (unstable) macromodel: expect divergence -------
    if let Some((p, _)) = p_unstable {
        let pr = extract_pole_residue(&raw.evaluate(&[p])?)?;
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
        let load = OnePortPoleResidue::from_model(&pr, out.mna_index().unwrap())?;
        let mut opts = TransientOptions::new(50e-9, 20e-12);
        opts.probes.push("out".into());
        match Transient::new(&drive, &opts)?
            .with_poleres_load(load)?
            .run()
        {
            Err(e) => {
                println!("\nSPICE on the raw macromodel at p={p}: FAILED as expected\n  ({e})")
            }
            Ok(_) => {
                println!("\nSPICE on the raw macromodel at p={p}: converged (mild instability)")
            }
        }
    } else {
        println!("\n(no unstable sample found in the sweep — numerics differ from the paper)");
    }

    // ---- Figure 3: framework waveform vs exact circuit at p = 0.1 ------
    // Effective load: fold the 0.6 µm inverter chord conductance first.
    let tech = tech_06();
    // The framework characterizes the effective load with variational
    // PRIMA: Krylov bases vary smoothly with the parameters, unlike the
    // PACT eigenvectors of this (symmetric, hence mode-degenerate) load.
    let stage = StageModel::build(
        &nl,
        &[port],
        &tech,
        ReductionMethod::Prima { order: 4 },
        0.02,
    )?;
    let p_ext = 0.1;
    let input = Waveform::ramp(tech.library.vdd, 0.0, 1e-9, 2e-9);
    let res = stage.evaluate(
        &[p_ext],
        DeviceVariation::nominal(),
        std::slice::from_ref(&input),
        10e-12,
        40e-9,
    )?;
    report_stability(&res.stability);
    let v_macro = &res.waveforms[0];

    // Exact reference: SPICE on the frozen full circuit with the same
    // inverter, at p = 0 (nominal) and p = 0.1 (extreme).
    let v_nom = spice_exact(&nl, port, &tech, 0.0)?;
    let v_ext = spice_exact(&nl, port, &tech, p_ext)?;
    println!("\nFigure-3 comparison at the driven port (driver output):");
    println!("  t (ns) | nominal p=0 (V) | extreme p=0.1 (V) | macromodel p=0.1 (V)");
    for k in 0..=10 {
        let t = 4e-9 * k as f64;
        println!(
            "  {:>6.1} | {:>15.3} | {:>17.3} | {:>20.3}",
            t * 1e9,
            v_nom.eval(t),
            v_ext.eval(t),
            v_macro.eval(t)
        );
    }
    let err: f64 = (0..200)
        .map(|k| {
            let t = 40e-9 * k as f64 / 200.0;
            (v_ext.eval(t) - v_macro.eval(t)).abs()
        })
        .fold(0.0, f64::max);
    println!(
        "\nmax |extreme - macromodel| = {:.3} V (VDD = {} V)",
        err, tech.library.vdd
    );
    Ok(())
}

fn report_stability(rep: &StabilityReport) {
    if rep.was_stable() {
        println!("\nframework: variational macromodel stable at this sample");
    } else {
        println!(
            "\nframework: removed {} unstable pole(s), max |beta - 1| = {:.2e}",
            rep.removed_poles.len(),
            rep.max_beta_deviation
        );
    }
}

/// SPICE reference: the exact (frozen) Example-1 circuit driven by the
/// 0.6 µm inverter, probed at the driver output.
fn spice_exact(
    nl: &Netlist,
    port: linvar::circuit::NodeId,
    tech: &Technology,
    p: f64,
) -> Result<Waveform, Box<dyn std::error::Error>> {
    let frozen = nl.frozen_at(&[p]);
    let mut sim = Netlist::new();
    let vdd = sim.node("vdd");
    let inp = sim.node("in");
    sim.instantiate(&frozen, "", &[])?;
    let port_name = frozen.node_name(port).expect("port exists").to_string();
    let out = sim.find_node(&port_name).expect("instantiated");
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
        linvar::circuit::MosType::Pmos,
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
        linvar::circuit::MosType::Nmos,
        &tech.library.nmos_name(),
        tech.wn,
        tech.library.lmin,
    )?;
    let mut opts = TransientOptions::new(40e-9, 10e-12);
    opts.probes.push(port_name.clone());
    let res =
        Transient::with_devices(&sim, &tech.library, DeviceVariation::nominal(), &opts)?.run()?;
    let pts: Vec<(f64, f64)> = res
        .times
        .iter()
        .copied()
        .zip(res.probe(&port_name).expect("probed").iter().copied())
        .collect();
    Ok(Waveform::from_points(pts).compress(1e-3))
}
