//! Quickstart: statistical delay analysis of a small critical path.
//!
//! Builds a three-stage path (inverter → NAND2 → NOR2) with 10 linear
//! interconnect elements between stages, then compares the two statistical
//! methods of the paper on it: Monte-Carlo with full waveform propagation
//! and Gradient Analysis with (M, S) propagation.
//!
//! Run with `cargo run --release --example quickstart`.

use linvar::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- Construction (paper Table 1): chords folded, vROM library built.
    let spec = PathSpec {
        cells: vec!["inv".into(), "nand2".into(), "nor2".into()],
        linear_elements_between_stages: 10,
        input_slew: 50e-12,
    };
    let tech = tech_018();
    let wire = WireTech::m018();
    let model = PathModel::build(&spec, &tech, &wire)?;
    println!(
        "path: {:?} ({} stages, VDD = {} V)",
        model.cells(),
        model.stage_count(),
        model.vdd()
    );

    // --- Nominal corner.
    let nominal = model.evaluate_sample(&PathSample::default())?;
    println!("nominal delay: {:.2} ps", nominal * 1e12);

    // --- Monte-Carlo under the paper's Example-3 variations: 50 LHS
    // samples of master seed 2002, one attempt each, on all cores
    // (`LINVAR_THREADS` pins the worker count; results never depend on it).
    let sources = VariationSources::example3(0.33, 0.33);
    let mc = model.run(&sources, Sampling::Lhs(50), 2002, &RunSpec::plain(0))?;
    println!(
        "MC  ({} samples): mean = {:.2} ps, std = {:.2} ps",
        mc.summary.n,
        mc.summary.mean * 1e12,
        mc.summary.std * 1e12
    );

    // --- Gradient Analysis on the same sources.
    let ga = model.gradient_analysis(&sources)?;
    println!(
        "GA  ({} stage sims): mean = {:.2} ps, std = {:.2} ps",
        ga.evaluations,
        ga.nominal_delay * 1e12,
        ga.std * 1e12
    );

    // --- Distribution sketch.
    let hist = Histogram::auto(&mc.delays, 12)?;
    print!("{}", hist.render("MC path delay distribution", 1e12, "ps"));
    Ok(())
}
