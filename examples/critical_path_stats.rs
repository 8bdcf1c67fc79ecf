//! The paper's Example 3: critical-path delay statistics on ISCAS-89.
//!
//! Extracts the longest latch-to-latch path of `s27` (the real benchmark)
//! with the unit-delay timing analyzer, decomposes it into primitive
//! stages, and evaluates the delay distribution with both statistical
//! methods — the per-circuit content of the paper's Table 5 and Figure 7.
//!
//! Run with `cargo run --release --example critical_path_stats`.

use linvar::iscas::{benchmark, decompose_to_primitives, longest_path};
use linvar::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let bench = benchmark("s27").expect("s27 is embedded");
    let report = longest_path(&bench.netlist).map_err(CoreError::BadSpec)?;
    println!(
        "s27: critical path {:?} (sink {})",
        report.critical_path, report.critical_sink
    );
    let stages = decompose_to_primitives(&bench.netlist, &report).map_err(CoreError::BadSpec)?;
    let cells: Vec<String> = stages.iter().map(|s| s.cell.clone()).collect();
    println!("primitive stages: {cells:?}");

    let spec = PathSpec {
        cells,
        linear_elements_between_stages: 10,
        input_slew: 60e-12,
    };
    let model = PathModel::build(&spec, &tech_018(), &WireTech::m018())?;

    // Table-5 configuration: std(DL) = std(VT) = 0.33.
    let sources = VariationSources::example3(0.33, 0.33);
    let mc = model.run(&sources, Sampling::Lhs(100), 27, &RunSpec::plain(0))?;
    let ga = model.gradient_analysis(&sources)?;

    println!("\nmethod |  mean (ps) |  std (ps)");
    println!(
        "GA     | {:>10.2} | {:>9.2}",
        ga.nominal_delay * 1e12,
        ga.std * 1e12
    );
    println!(
        "MC     | {:>10.2} | {:>9.2}   ({} samples, {} failures)",
        mc.summary.mean * 1e12,
        mc.summary.std * 1e12,
        mc.summary.n,
        mc.failures
    );

    // Figure-7 style histogram.
    let hist = Histogram::auto(&mc.delays, 12)?;
    print!(
        "{}",
        hist.render("\ns27 longest-path delay (MC)", 1e12, "ps")
    );
    Ok(())
}
