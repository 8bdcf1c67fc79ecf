//! The process-wide stage library behind `StageModel::shared`: one live
//! model per distinct set of inputs, held only through `Weak` references.
//!
//! Every test takes `metrics::test_lock`, so no other test of this binary
//! holds a model or records metrics while one runs.

use linvar::core::stage_builder::{build_stage_load, StageLoad, StageLoadSpec};
use linvar::iscas::{benchmark, decompose_to_primitives, longest_path};
use linvar::metrics;
use linvar::numeric::Matrix;
use linvar::prelude::*;
use std::sync::{Arc, Barrier};

fn load(
    n_elem: usize,
    driver: &str,
    receiver: &str,
    tech: &Technology,
    wire: &WireTech,
) -> StageLoad {
    let spec = StageLoadSpec {
        linear_elements: n_elem,
        driver_cell: driver.into(),
        receiver_cell: receiver.into(),
    };
    build_stage_load(&spec, &CellLibrary::standard(tech.clone()), wire).expect("stage load")
}

fn shared(
    load: &StageLoad,
    tech: &Technology,
    method: ReductionMethod,
    delta: f64,
) -> Arc<StageModel> {
    StageModel::shared(&load.netlist, &[load.near], tech, method, delta).expect("builds")
}

const PRIMA: ReductionMethod = ReductionMethod::Prima { order: 6 };

fn prima_calls() -> u64 {
    metrics::snapshot().counters["phase.prima_project.calls"]
}

#[test]
fn same_inputs_share_one_model_and_any_change_gives_another() {
    let _guard = metrics::test_lock();
    let tech = tech_018();
    let wire = WireTech::m018();
    let base_load = load(16, "inv", "nand2", &tech, &wire);
    let base = shared(&base_load, &tech, PRIMA, 0.02);
    let again = shared(&load(16, "inv", "nand2", &tech, &wire), &tech, PRIMA, 0.02);
    assert!(Arc::ptr_eq(&base, &again), "same inputs, same live model");

    let mut wide = tech.clone();
    wide.wn *= 1.25;
    let mut wider_wire = wire.clone();
    wider_wire.w0 *= 1.25;
    let variants = [
        (
            "driver cell",
            shared(
                &load(16, "nand2", "nand2", &tech, &wire),
                &tech,
                PRIMA,
                0.02,
            ),
        ),
        (
            "receiver cell",
            shared(&load(16, "inv", "nor2", &tech, &wire), &tech, PRIMA, 0.02),
        ),
        (
            "element count",
            shared(&load(18, "inv", "nand2", &tech, &wire), &tech, PRIMA, 0.02),
        ),
        ("Technology::wn", shared(&base_load, &wide, PRIMA, 0.02)),
        (
            "WireTech::w0",
            shared(
                &load(16, "inv", "nand2", &tech, &wider_wire),
                &tech,
                PRIMA,
                0.02,
            ),
        ),
        (
            "method",
            shared(&base_load, &tech, ReductionMethod::Prima { order: 5 }, 0.02),
        ),
        ("delta", shared(&base_load, &tech, PRIMA, 0.03)),
    ];
    for (i, (what, model)) in variants.iter().enumerate() {
        assert!(
            !Arc::ptr_eq(&base, model),
            "changing the {what} shares the model"
        );
        for (other, m) in &variants[..i] {
            assert!(!Arc::ptr_eq(m, model), "{what} and {other} share a model");
        }
    }
}

#[test]
fn a_dropped_model_is_characterized_again() {
    let _guard = metrics::test_lock();
    let tech = tech_018();
    let wire = WireTech::m018();
    let stage = load(14, "inv", "nor3", &tech, &wire);
    metrics::reset();
    metrics::enable();
    let first = shared(&stage, &tech, PRIMA, 0.02);
    let once = prima_calls();
    let second = shared(&stage, &tech, PRIMA, 0.02);
    let reused = prima_calls();
    StageModel::build(&stage.netlist, &[stage.near], &tech, PRIMA, 0.02).expect("builds");
    let fresh = prima_calls() - reused;
    let weak = Arc::downgrade(&first);
    drop((first, second));
    let dead = weak.upgrade().is_none();
    let third = shared(&stage, &tech, PRIMA, 0.02);
    let twice = prima_calls();
    metrics::disable();
    metrics::reset();
    // The nominal basis plus ±δ for each of the five wire parameters.
    assert_eq!(once, 11, "one characterization");
    assert_eq!(reused, once, "a live model is not characterized again");
    assert_eq!(fresh, once, "a direct build characterizes afresh");
    assert!(dead, "the library keeps nothing alive");
    assert_eq!(
        twice - reused - fresh,
        once,
        "a dropped model is characterized again"
    );
    assert!(Arc::strong_count(&third) == 1);
}

/// Every matrix of a ROM as raw bits.
fn rom_bits(rom: &VariationalRom) -> Vec<Vec<u64>> {
    let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    let nominal = rom.evaluate(&[]).expect("nominal");
    let mut out = vec![
        bits(rom.basis()),
        bits(&nominal.gr),
        bits(&nominal.cr),
        bits(&nominal.br),
    ];
    for i in 0..rom.param_count() {
        let (dg, dc, db) = rom.reduced_sensitivity(i).expect("sensitivity");
        out.push(bits(rom.basis_sensitivity(i).expect("dX")));
        out.extend([bits(dg), bits(dc), bits(db)]);
    }
    out
}

#[test]
fn racing_path_builds_get_bit_identical_models() {
    let _guard = metrics::test_lock();
    let tech = tech_018();
    let wire = WireTech::m018();
    let bench = benchmark("s27").expect("embedded benchmark");
    let report = longest_path(&bench.netlist).expect("has a path");
    let stages = decompose_to_primitives(&bench.netlist, &report).expect("decomposes");
    let spec = PathSpec {
        cells: stages.into_iter().map(|s| s.cell).collect(),
        linear_elements_between_stages: 10,
        input_slew: 60e-12,
    };
    let start = Barrier::new(2);
    let paths: Vec<PathModel> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                s.spawn(|| {
                    start.wait();
                    PathModel::build(&spec, &tech, &wire).expect("path builds")
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("no panic"))
            .collect()
    });
    assert!(paths[0].stage_count() > 1);
    for k in 0..spec.cells.len() {
        let (a, _) = paths[0].stage(k);
        let (b, _) = paths[1].stage(k);
        assert!(
            rom_bits(a.vrom()) == rom_bits(b.vrom()),
            "stage {k} differs"
        );
    }
}
