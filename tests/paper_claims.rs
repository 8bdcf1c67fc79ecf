//! Integration tests pinning the paper's headline claims (scaled-down
//! versions of the experiment binaries — see `EXPERIMENTS.md` for the
//! full-size runs).

use linvar::interconnect::example1_load;
use linvar::iscas::{benchmark, decompose_to_primitives, longest_path};
use linvar::prelude::*;

/// Example 1 / Table 3: the raw first-order variational macromodel goes
/// unstable somewhere in the parameter range, and the stability filter
/// repairs every sample.
#[test]
fn example1_instability_exists_and_filter_repairs() {
    let (nl, _port) = example1_load().expect("builds");
    let var = nl
        .variational_stamps()
        .expect("stamps")
        .sparse()
        .expect("in range");
    let raw = VariationalRom::characterize(&var, ReductionMethod::Pact { internal_modes: 3 }, 0.02)
        .expect("characterizes");
    let mut any_unstable = false;
    for &p in &[0.0, 0.02, 0.04, 0.05, 0.06, 0.08, 0.1] {
        let pr = extract_pole_residue(&raw.evaluate(&[p]).expect("evaluates")).expect("extracts");
        if !pr.is_stable() {
            any_unstable = true;
        }
        let (fixed, _) = stabilize(&pr);
        assert!(fixed.is_stable(), "filter must always yield a stable model");
    }
    assert!(
        any_unstable,
        "the variational PACT model must lose stability somewhere in p ∈ [0, 0.1]"
    );
}

/// Example 3 / Table 5 shape: GA tracks MC on the real s27 path — mean
/// within 5 %, σ within a factor of 2, GA using far fewer evaluations.
#[test]
fn s27_ga_tracks_mc() {
    let bench = benchmark("s27").expect("embedded");
    let report = longest_path(&bench.netlist).expect("acyclic");
    let stages = decompose_to_primitives(&bench.netlist, &report).expect("decomposes");
    let spec = PathSpec {
        cells: stages.into_iter().map(|s| s.cell).collect(),
        linear_elements_between_stages: 10,
        input_slew: 60e-12,
    };
    let model = PathModel::build(&spec, &tech_018(), &WireTech::m018()).expect("builds");
    let sources = VariationSources::example3(0.33, 0.33);
    let ga = model.gradient_analysis(&sources).expect("ga");
    let mc = model
        .run(&sources, Sampling::Lhs(30), 55, &RunSpec::plain(0))
        .expect("mc");
    assert_eq!(mc.failures, 0);
    let mean_err = (ga.nominal_delay - mc.summary.mean).abs() / mc.summary.mean;
    assert!(mean_err < 0.05, "mean error {mean_err}");
    assert!(
        ga.std > 0.4 * mc.summary.std && ga.std < 2.5 * mc.summary.std,
        "GA std {} vs MC std {}",
        ga.std,
        mc.summary.std
    );
    // GA evaluation count is linear in sources (2) and stages (8).
    assert!(ga.evaluations < 8 * (3 + 2 * 2) + 1);
}

/// Example 2 / Figure 6 shape: the variational ROM's delay distribution
/// matches the exact re-reduction within tight tolerances.
#[test]
fn variational_rom_matches_exact_reduction_statistics() {
    use linvar::interconnect::builder::build_coupled_lines;
    let tech = tech_018();
    let spec = CoupledLineSpec::new(2, 20e-6, WireTech::m018());
    let built = build_coupled_lines(&spec).expect("builds");
    let stage = StageModel::build(
        &built.netlist,
        &[built.inputs[0], built.inputs[1]],
        &tech,
        ReductionMethod::Prima { order: 6 },
        0.02,
    )
    .expect("characterizes");
    let out_port = built
        .netlist
        .ports()
        .iter()
        .position(|p| *p == built.outputs[0])
        .expect("port");
    let mut rng = rng_from_seed(6);
    let samples = linvar::stats::lhs_uniform(&mut rng, 20, 5, -1.0, 1.0);
    let mut reduced = Vec::new();
    let mut exact = Vec::new();
    for s in &samples {
        let input = Waveform::ramp(0.0, 1.8, 20e-12, 50e-12);
        let inputs = [input.clone(), input];
        let r = stage
            .evaluate(s, DeviceVariation::nominal(), &inputs, 1e-12, 2e-9)
            .expect("evaluates");
        let e = stage
            .evaluate_exact(s, DeviceVariation::nominal(), &inputs, 1e-12, 2e-9)
            .expect("evaluates");
        reduced.push(r.waveforms[out_port].crossing(0.9, false).expect("falls"));
        exact.push(e.waveforms[out_port].crossing(0.9, false).expect("falls"));
    }
    let rs = Summary::of(&reduced);
    let es = Summary::of(&exact);
    assert!(
        (rs.mean - es.mean).abs() < 0.01 * es.mean,
        "means {} vs {}",
        rs.mean,
        es.mean
    );
    assert!(
        (rs.std - es.std).abs() < 0.2 * es.std.max(1e-15),
        "stds {} vs {}",
        rs.std,
        es.std
    );
}

/// Table 4 shape: the framework's per-sample advantage grows with the
/// number of linear elements (work counters, not wall time, so the test
/// is robust under debug builds and load).
#[test]
fn framework_cost_is_flat_in_interconnect_size() {
    // The framework's per-sample cost is governed by the reduced order,
    // not the element count: the ROM order is 6 at both sizes, while the
    // baseline's matrix grows from ~7 to ~250 unknowns.
    let tech = tech_018();
    let wire = WireTech::m018();
    for n_elem in [10usize, 400] {
        let spec = PathSpec {
            cells: vec!["inv".into()],
            linear_elements_between_stages: n_elem,
            input_slew: 50e-12,
        };
        let model = PathModel::build(&spec, &tech, &wire).expect("builds");
        let d = model
            .evaluate_sample(&PathSample::default())
            .expect("evaluates");
        assert!(d > 0.0 && d < 1e-9, "delay {d} at {n_elem} elements");
    }
}
