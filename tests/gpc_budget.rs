//! The gPC engine's budgets on the quick Table-4 circuits (s27 and s208 at
//! 10 elements, Table-4 sources): the comparison `table4 --engine gpc
//! --quick` records. The order-2 stochastic-testing estimate must agree
//! with a 60-sample MC reference within the documented moment budget, and
//! the two gPC runs must cost at most a tenth of the MC samples that pin
//! the mean as tightly.

use linvar::iscas::{benchmark, decompose_to_primitives, longest_path};
use linvar::prelude::*;
use linvar_bench::budget::{Agreement, SolvesToTolerance, ENGINE_MC_REF_N, ENGINE_SEED};

fn quick_path(circuit: &str) -> PathModel {
    let bench = benchmark(circuit).expect("embedded benchmark");
    let report = longest_path(&bench.netlist).expect("has a path");
    let stages = decompose_to_primitives(&bench.netlist, &report).expect("decomposes");
    let spec = PathSpec {
        cells: stages.into_iter().map(|s| s.cell).collect(),
        linear_elements_between_stages: 10,
        input_slew: 60e-12,
    };
    PathModel::build(&spec, &tech_018(), &WireTech::m018()).expect("path builds")
}

#[test]
fn gpc_stays_within_its_budgets_on_the_quick_circuits() {
    let sources = VariationSources::example3_table4();
    let spec = RunSpec {
        threads: 2,
        ..RunSpec::default()
    };
    for circuit in ["s27", "s208"] {
        let model = quick_path(circuit);
        let mc = model
            .run(
                &sources,
                Sampling::Lhs(ENGINE_MC_REF_N),
                ENGINE_SEED,
                &RunSpec::plain(2),
            )
            .expect("MC reference runs");
        let gpc = |order| {
            model
                .run(
                    &sources,
                    Sampling::Spectral(SpectralConfig::stochastic_testing(order)),
                    ENGINE_SEED,
                    &spec,
                )
                .expect("gPC runs")
                .spectral
                .expect("a plain gPC run completes its grid")
        };
        let (lo, hi) = (gpc(1), gpc(2));
        let agreement = Agreement::new(&mc.summary, hi.mean, hi.std);
        let solves = SolvesToTolerance::new(&lo, &hi);
        eprintln!(
            "{circuit}@10: mean diff {:.2e}, solves ratio {:.2e} ({} gpc vs {:.0} MC solves \
             to tolerance)",
            agreement.mean_abs_err / mc.summary.mean.abs(),
            solves.ratio,
            solves.gpc_solves,
            solves.mc_solves_to_tol
        );
        assert!(agreement.within(), "{circuit}@10: {agreement:?}");
        assert!(solves.within(), "{circuit}@10: {solves:?}");
    }
}
