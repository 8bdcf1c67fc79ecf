//! Criterion benchmark of the Monte-Carlo execution engine: the sample
//! executor at 1 (inline) and 2/4/8 worker threads on the Table-4 s27
//! workload (longest path, 10 linear elements between
//! stages, 100 samples, the example3_table4 variation sources).
//!
//! On a multi-core host the parallel driver should scale close to
//! linearly until the core count is exhausted (the workload is
//! embarrassingly parallel and per-sample cost is milliseconds); on a
//! single-core host all rows collapse to the inline cost plus negligible
//! scheduling overhead. Either way the outputs are bitwise-identical —
//! asserted here before timing starts.
//!
//! Run with `cargo bench -p linvar-bench --bench montecarlo`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use linvar_core::path::{PathModel, PathSpec, VariationSources};
use linvar_devices::tech_018;
use linvar_interconnect::WireTech;
use linvar_iscas::{benchmark, decompose_to_primitives, longest_path};
use linvar_stats::{monte_carlo_par, rng_from_seed};

const N_SAMPLES: usize = 100;
const MASTER_SEED: u64 = 4;

fn s27_model() -> PathModel {
    let bench = benchmark("s27").expect("embedded benchmark");
    let report = longest_path(&bench.netlist).expect("has a path");
    let stages = decompose_to_primitives(&bench.netlist, &report).expect("decomposes");
    let spec = PathSpec {
        cells: stages.into_iter().map(|s| s.cell).collect(),
        linear_elements_between_stages: 10,
        input_slew: 60e-12,
    };
    PathModel::build(&spec, &tech_018(), &WireTech::m018()).expect("builds")
}

fn bench_mc_drivers(c: &mut Criterion) {
    let model = s27_model();
    let sources = VariationSources::example3_table4();
    let mut rng = rng_from_seed(MASTER_SEED);
    let samples = model.draw_samples(&sources, N_SAMPLES, &mut rng);

    // Determinism sanity before timing: every parallel configuration must
    // reproduce the one-worker (inline) values bitwise.
    let serial = monte_carlo_par(&samples, 1, |s| model.evaluate_sample(s));
    for threads in [2usize, 8] {
        let par = monte_carlo_par(&samples, threads, |s| model.evaluate_sample(s));
        assert_eq!(par.values, serial.values, "{threads}-thread run diverged");
    }

    let mut group = c.benchmark_group("monte_carlo_s27_100samples");
    group.sample_size(10);
    for &threads in &[1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("parallel", threads),
            &threads,
            |b, &threads| {
                b.iter(|| monte_carlo_par(&samples, threads, |s| model.evaluate_sample(s)))
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_mc_drivers);
criterion_main!(benches);
