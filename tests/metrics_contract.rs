//! The observability layer's two contracts, checked end-to-end on the
//! s27 longest path:
//!
//! 1. **Determinism** — the `counters` section of the metrics report is
//!    bitwise-identical for the same master seed at any worker count
//!    (1/2/8 threads) and shard count. Timers and gauges are
//!    run-dependent and explicitly excluded.
//! 2. **Zero interference** — running with the sink disabled produces
//!    bitwise-identical simulation results to running instrumented, and
//!    a disabled run leaves the sink empty.
//!
//! A third test checks that the solver phase counters tell which route
//! ran: a chains transient pinned to a backend, and an AC sweep that
//! factors once and refactors at every later point.
//!
//! The sink is process-global, so every test serializes on
//! [`linvar::metrics::test_lock`].

use std::collections::BTreeMap;

use linvar::interconnect::rc_chain_case;
use linvar::iscas::{benchmark, decompose_to_primitives, longest_path};
use linvar::metrics;
use linvar::numeric::SolverChoice;
use linvar::prelude::*;
use linvar::spice::{ac_analysis_with, log_frequencies};
use linvar::stats::ShardConfig;
use linvar_bench::chains::{ac_frequency, delay_for_sample, sample_set};

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
fn recovering_run(model: &PathModel, threads: usize, shards: Option<ShardConfig>) -> McPathResult {
    let spec = RunSpec {
        threads,
        shards,
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

fn instrumented_run(
    model: &PathModel,
    threads: usize,
    shards: Option<ShardConfig>,
) -> (McPathResult, String) {
    metrics::reset();
    metrics::enable();
    let res = recovering_run(model, threads, shards);
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
    let (ref_res, ref_counters) = instrumented_run(&model, 1, None);
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
        let (res, counters) = instrumented_run(&model, threads, None);
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
    let plain = recovering_run(&model, 2, None);
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
    let (instrumented, counters) = instrumented_run(&model, 2, None);
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
    // A sharded run is the unsharded run cut into ranges: the same
    // samples are evaluated once each and merged once, so its counters
    // section is the unsharded one, byte for byte, at any worker count.
    let _guard = metrics::test_lock();
    let model = s27_model();
    let (ref_res, ref_counters) = instrumented_run(&model, 1, None);
    assert_eq!(ref_res.failures, 0, "{:?}", ref_res.first_error);
    assert!(ref_counters.contains("\"mc.samples_completed\": 8"));
    let shards = ShardConfig {
        n_shards: 2,
        shard_index: None,
    };
    for threads in [1usize, 2, 8] {
        let (res, counters) = instrumented_run(&model, threads, Some(shards));
        assert_eq!(
            counters, ref_counters,
            "2-shard counters diverged from the unsharded run at {threads} threads"
        );
        assert_eq!(
            delay_bits(&res),
            delay_bits(&ref_res),
            "sharded results must not depend on the thread count"
        );
    }
}

/// The counters section of a clean sink after running `f` instrumented.
fn counters_of(f: impl FnOnce()) -> BTreeMap<String, u64> {
    metrics::reset();
    metrics::enable();
    f();
    let counters = metrics::snapshot().counters;
    metrics::disable();
    metrics::reset();
    counters
}

#[test]
fn solver_phase_counters_follow_the_route_taken() {
    let _guard = metrics::test_lock();
    let case = rc_chain_case(500).expect("chain2x500 builds");
    let w = &sample_set(1)[0];
    let transient = |solver| {
        counters_of(|| {
            delay_for_sample(&case, w, solver).expect("chain2x500 sample");
        })
    };
    let sparse = transient(SolverChoice::Sparse);
    for phase in ["numeric_factor", "solve"] {
        let calls = sparse[&format!("phase.{phase}.calls")];
        assert!(
            calls >= 1,
            "sparse-pinned sample made {calls} {phase} calls"
        );
    }
    let dense = transient(SolverChoice::Dense);
    for phase in ["symbolic", "numeric_factor", "solve"] {
        let calls = dense[&format!("phase.{phase}.calls")];
        assert_eq!(
            calls, 0,
            "dense-pinned sample made {calls} sparse {phase} calls"
        );
    }

    // An N-point sweep factors at its first point and refactors on the
    // stored pattern at each later one.
    const N: u64 = 5;
    let f0 = ac_frequency(&case);
    let freqs = log_frequencies(f0 / 10.0, f0 * 10.0, N as usize);
    let frozen = case.netlist.frozen_at(w);
    let ac = counters_of(|| {
        ac_analysis_with(
            &frozen,
            "Vdrv",
            &[&case.probe],
            &freqs,
            SolverChoice::Sparse,
        )
        .expect("AC sweep");
    });
    assert_eq!(ac["ac.points_solved"], N);
    assert_eq!(ac["phase.ac_factor.calls"], N);
    assert_eq!(ac["phase.ac_solve.calls"], N);
    assert_eq!(
        ac["ac.refactors"],
        N - 1,
        "the sweep must refactor every point after the first"
    );
}
