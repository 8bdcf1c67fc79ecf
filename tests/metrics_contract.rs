//! The observability layer's two contracts, checked end-to-end on the
//! s27 longest path:
//!
//! 1. **Determinism** — the `counters` section of the metrics report is
//!    bitwise-identical for the same master seed at any worker count
//!    (1/2/8 threads). Timers and gauges are run-dependent and
//!    explicitly excluded.
//! 2. **Zero interference** — running with the sink disabled produces
//!    bitwise-identical simulation results to running instrumented, and
//!    a disabled run leaves the sink empty.
//!
//! The sink is process-global, so every test serializes on
//! [`linvar::metrics::test_lock`].

use linvar::iscas::{benchmark, decompose_to_primitives, longest_path};
use linvar::metrics;
use linvar::prelude::*;

const MASTER_SEED: u64 = 2002;
const N_SAMPLES: usize = 8;

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

/// A recovering LHS run at `threads` workers under the default policy.
fn recovering_run(model: &PathModel, threads: usize) -> McPathResult {
    let spec = RunSpec {
        threads,
        ..RunSpec::default()
    };
    model
        .run(
            &VariationSources::example3(0.33, 0.33),
            Sampling::Lhs(N_SAMPLES),
            MASTER_SEED,
            &spec,
        )
        .expect("recovering run")
}

fn instrumented_run(model: &PathModel, threads: usize) -> (McPathResult, String) {
    metrics::reset();
    metrics::enable();
    let res = recovering_run(model, threads);
    metrics::flush_local();
    let counters = metrics::snapshot().counters_json();
    metrics::disable();
    metrics::reset();
    (res, counters)
}

fn delay_bits(res: &McPathResult) -> Vec<u64> {
    res.delays.iter().map(|d| d.to_bits()).collect()
}

#[test]
fn counters_are_identical_across_thread_counts() {
    let _guard = metrics::test_lock();
    let model = s27_model();
    let (ref_res, ref_counters) = instrumented_run(&model, 1);
    assert_eq!(ref_res.delays.len(), N_SAMPLES);
    assert_eq!(ref_res.failures, 0, "{:?}", ref_res.first_error);
    // The run did real work: phase call counts and sample tallies are
    // populated, not a sea of zeros.
    for needle in [
        "\"phase.sample_eval.calls\"",
        "\"phase.sc_loop.calls\"",
        "\"phase.lu_factor.calls\"",
        "\"mc.samples_completed\": 8",
        "\"rung.",
    ] {
        assert!(
            ref_counters.contains(needle),
            "missing {needle} in:\n{ref_counters}"
        );
    }
    for threads in [2usize, 8] {
        let (res, counters) = instrumented_run(&model, threads);
        assert_eq!(
            counters, ref_counters,
            "counters section diverged at {threads} threads"
        );
        assert_eq!(
            delay_bits(&res),
            delay_bits(&ref_res),
            "instrumentation must not perturb results ({threads} threads)"
        );
    }
}

#[test]
fn disabled_sink_leaves_results_and_sink_untouched() {
    let _guard = metrics::test_lock();
    let model = s27_model();

    // Disabled run: the no-op sink must stay empty.
    metrics::reset();
    metrics::disable();
    let plain = recovering_run(&model, 2);
    metrics::flush_local();
    let report = metrics::snapshot();
    assert!(
        report.counters.values().all(|&v| v == 0),
        "disabled sink accumulated counts: {:?}",
        report.counters
    );
    assert!(
        report
            .timers
            .values()
            .all(|t| t.calls == 0 && t.total_ns == 0),
        "disabled sink accumulated timings"
    );

    // Instrumented run: same inputs, bitwise-identical outputs.
    let (instrumented, counters) = instrumented_run(&model, 2);
    assert_eq!(
        delay_bits(&plain),
        delay_bits(&instrumented),
        "enabling metrics changed the simulation results"
    );
    assert_eq!(
        plain.summary.mean.to_bits(),
        instrumented.summary.mean.to_bits()
    );
    assert_eq!(
        plain.summary.std.to_bits(),
        instrumented.summary.std.to_bits()
    );
    assert!(counters.contains("\"mc.samples_completed\": 8"));
}

#[test]
fn spectral_counters_are_identical_across_thread_counts() {
    let _guard = metrics::test_lock();
    let model = s27_model();
    let sources = VariationSources::example3(0.33, 0.33);
    let config = SpectralConfig::stochastic_testing(2);
    let run = |threads: usize| {
        metrics::reset();
        metrics::enable();
        let spec = RunSpec {
            threads,
            ..RunSpec::default()
        };
        let res = model
            .run(&sources, Sampling::Spectral(config), MASTER_SEED, &spec)
            .expect("spectral run")
            .spectral
            .expect("complete grid");
        metrics::flush_local();
        let counters = metrics::snapshot().counters_json();
        metrics::disable();
        metrics::reset();
        (res, counters)
    };
    let (ref_res, ref_counters) = run(1);
    // The spectral.* counter contract: every node evaluation, the
    // single post-merge solve, the coefficient count and the surrogate
    // sample count are all tallied — next to the mc.* tallies of the
    // node campaign underneath and the SpectralSolve phase timer's call
    // count (timings themselves are run-dependent and excluded).
    let nodes = ref_res.nodes_evaluated;
    let coeffs = ref_res.coefficients.len();
    for needle in [
        format!("\"spectral.nodes_evaluated\": {nodes}"),
        "\"spectral.solves\": 1".to_string(),
        format!("\"spectral.coefficients\": {coeffs}"),
        format!(
            "\"spectral.surrogate_samples\": {}",
            linvar::stats::SURROGATE_SAMPLES
        ),
        format!("\"mc.samples_completed\": {nodes}"),
        "\"phase.spectral_solve.calls\": 1".to_string(),
    ] {
        assert!(
            ref_counters.contains(&needle),
            "missing {needle} in:\n{ref_counters}"
        );
    }
    for threads in [2usize, 8] {
        let (res, counters) = run(threads);
        assert_eq!(
            counters, ref_counters,
            "spectral counters diverged at {threads} threads"
        );
        assert_eq!(
            res.coefficients
                .iter()
                .map(|c| c.to_bits())
                .collect::<Vec<_>>(),
            ref_res
                .coefficients
                .iter()
                .map(|c| c.to_bits())
                .collect::<Vec<_>>(),
            "instrumentation must not perturb the coefficients ({threads} threads)"
        );
    }
}

#[test]
fn shard_counters_are_identical_across_thread_counts() {
    use linvar::stats::ShardConfig;
    let _guard = metrics::test_lock();
    let model = s27_model();
    let sources = VariationSources::example3(0.33, 0.33);
    let cfg = ShardConfig {
        n_shards: 2,
        ..ShardConfig::default()
    };
    let run = |threads: usize| {
        metrics::reset();
        metrics::enable();
        let spec = RunSpec {
            threads,
            shards: Some(cfg.clone()),
            ..RunSpec::default()
        };
        let res = model
            .run(&sources, Sampling::Lhs(N_SAMPLES), MASTER_SEED, &spec)
            .expect("sharded run");
        metrics::flush_local();
        let counters = metrics::snapshot().counters_json();
        metrics::disable();
        metrics::reset();
        (res, counters)
    };
    let (ref_res, ref_counters) = run(1);
    assert_eq!(ref_res.failures, 0, "{:?}", ref_res.first_error);
    // The supervisor's own counters are in the report next to the inner
    // campaigns' mc.* tallies (which must match an unsharded run —
    // shard accounting never inflates the sample bookkeeping).
    for needle in [
        "\"shard.launched\": 2",
        "\"shard.completed\": 2",
        "\"shard.merged_samples\": 8",
        "\"shard.retries\": 0",
        "\"shard.redispatched\": 0",
        "\"shard.faults_injected\": 0",
        "\"shard.merge_duplicates\": 0",
        "\"phase.shard_run.calls\": 2",
        "\"mc.samples_completed\": 8",
    ] {
        assert!(
            ref_counters.contains(needle),
            "missing {needle} in:\n{ref_counters}"
        );
    }
    for threads in [2usize, 8] {
        let (res, counters) = run(threads);
        assert_eq!(
            counters, ref_counters,
            "shard counters diverged at {threads} threads"
        );
        assert_eq!(
            res.delays.iter().map(|d| d.to_bits()).collect::<Vec<_>>(),
            ref_res
                .delays
                .iter()
                .map(|d| d.to_bits())
                .collect::<Vec<_>>(),
            "sharded results must not depend on the thread count"
        );
    }
}
