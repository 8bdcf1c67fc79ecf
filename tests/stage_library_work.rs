//! The work the stage library saves: building the five Table-4 paths at
//! 10 elements per stage side by side characterizes each distinct stage
//! load once. Kept in a binary of its own, because the library is process-wide
//! and another test holding one of these stages would change the count.

use linvar::devices::Cell;
use linvar::iscas::{benchmark, decompose_to_primitives, longest_path};
use linvar::metrics;
use linvar::prelude::*;
use std::collections::BTreeSet;

const CIRCUITS: [&str; 5] = ["s27", "s208", "s444", "s1423", "s9234"];

#[test]
fn table4_paths_characterize_each_distinct_stage_once() {
    let _guard = metrics::test_lock();
    let tech = tech_018();
    let wire = WireTech::m018();
    let specs: Vec<PathSpec> = CIRCUITS
        .iter()
        .map(|circuit| {
            let bench = benchmark(circuit).expect("embedded benchmark");
            let report = longest_path(&bench.netlist).expect("has a path");
            let stages = decompose_to_primitives(&bench.netlist, &report).expect("decomposes");
            PathSpec {
                cells: stages.into_iter().map(|s| s.cell).collect(),
                linear_elements_between_stages: 10,
                input_slew: 60e-12,
            }
        })
        .collect();
    metrics::reset();
    metrics::enable();
    let paths: Vec<PathModel> = specs
        .iter()
        .map(|spec| PathModel::build(spec, &tech, &wire).expect("path builds"))
        .collect();
    let calls = metrics::snapshot().counters["phase.prima_project.calls"];
    metrics::disable();
    metrics::reset();
    // A stage load depends on its cells only through the driver's output
    // and the receiver's input capacitance.
    let cells = CellLibrary::standard(tech.clone());
    let cap = |name: &str, pin: fn(&Cell) -> f64| pin(cells.get(name).expect("cell")).to_bits();
    let mut pairs = BTreeSet::new();
    let mut loads = BTreeSet::new();
    for spec in &specs {
        for (k, driver) in spec.cells.iter().enumerate() {
            let receiver = spec.cells.get(k + 1).map_or("inv", String::as_str);
            pairs.insert((driver.as_str(), receiver));
            loads.insert((
                cap(driver, Cell::output_cap),
                cap(receiver, Cell::input_cap),
            ));
        }
    }
    let per_path: usize = specs
        .iter()
        .map(|spec| {
            let mut own = BTreeSet::new();
            for (k, driver) in spec.cells.iter().enumerate() {
                own.insert((driver, spec.cells.get(k + 1).map_or("inv", String::as_str)));
            }
            own.len()
        })
        .sum();
    assert_eq!(paths.len(), 5);
    // One cache per path characterized 54 stages (594 bases). The 24
    // distinct cell pairs make 19 distinct loads, since some cells share
    // a pin capacitance; each is characterized once, by the nominal basis
    // plus ±δ for five wire parameters.
    assert_eq!((per_path, pairs.len(), loads.len()), (54, 24, 19));
    assert_eq!(calls, 19 * 11);
}
