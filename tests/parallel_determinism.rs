//! End-to-end determinism contract of the sample executor: the same
//! master seed must produce bitwise-identical results at any worker
//! count, shard count and interrupt/resume schedule, and every parallel
//! run must agree exactly with the one-worker (inline) run. Exercised on
//! the s27 longest path — the full stack from ISCAS netlist through
//! decomposition, path modelling and TETA evaluation — and, for dense
//! coverage of the run-spec axes, on a fast synthetic evaluator.

use linvar::iscas::{benchmark, decompose_to_primitives, longest_path};
use linvar::prelude::*;
use linvar::stats::{
    execute, lhs_normal_streamed, monte_carlo_par, shard_checkpoint_path, sobol_normal_streamed,
    CampaignFingerprint, CampaignVerdict, MonteCarloResult,
};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

const MASTER_SEED: u64 = 2002;
const N_SAMPLES: usize = 12;

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

#[test]
fn s27_path_mc_is_invariant_under_thread_count() {
    let model = s27_model();
    let sources = VariationSources::example3(0.33, 0.33);
    let plain = |threads| {
        model
            .run(
                &sources,
                Sampling::Lhs(N_SAMPLES),
                MASTER_SEED,
                &RunSpec::plain(threads),
            )
            .expect("plain run")
    };
    let reference = plain(1);
    assert_eq!(reference.delays.len(), N_SAMPLES);
    assert_eq!(reference.failures, 0, "{:?}", reference.first_error);
    for threads in [2usize, 8] {
        let run = plain(threads);
        let ref_bits: Vec<u64> = reference.delays.iter().map(|d| d.to_bits()).collect();
        let run_bits: Vec<u64> = run.delays.iter().map(|d| d.to_bits()).collect();
        assert_eq!(run_bits, ref_bits, "delays diverged at {threads} threads");
        assert_eq!(
            run.summary.mean.to_bits(),
            reference.summary.mean.to_bits(),
            "summary mean diverged at {threads} threads"
        );
        assert_eq!(
            run.summary.std.to_bits(),
            reference.summary.std.to_bits(),
            "summary std diverged at {threads} threads"
        );
        assert_eq!(run.failed_indices, reference.failed_indices);
        assert_eq!(run.first_error, reference.first_error);
    }
}

#[test]
fn s27_parallel_agrees_exactly_with_serial_driver() {
    let model = s27_model();
    let sources = VariationSources::example3(0.33, 0.33);

    // One worker evaluates inline on this thread; four spawn a pool.
    let run = |threads| {
        model
            .run(
                &sources,
                Sampling::Lhs(N_SAMPLES),
                MASTER_SEED,
                &RunSpec::plain(threads),
            )
            .expect("plain run")
    };
    let serial = run(1);
    let parallel = run(4);

    let s_bits: Vec<u64> = serial.delays.iter().map(|d| d.to_bits()).collect();
    let p_bits: Vec<u64> = parallel.delays.iter().map(|d| d.to_bits()).collect();
    assert_eq!(p_bits, s_bits, "serial and parallel drivers disagree");
    assert_eq!(
        parallel.summary.mean.to_bits(),
        serial.summary.mean.to_bits()
    );
    assert_eq!(parallel.summary.std.to_bits(), serial.summary.std.to_bits());
}

#[test]
fn raw_drivers_agree_on_the_s27_workload() {
    // Same contract one layer down: the stats front door over the exact
    // sample set drawn by the path model.
    let model = s27_model();
    let sources = VariationSources::example3(0.33, 0.33);
    let mut rng = rng_from_seed(MASTER_SEED);
    let samples = model.draw_samples(&sources, N_SAMPLES, &mut rng);

    let serial = monte_carlo_par(&samples, 1, |s| model.evaluate_sample(s));
    for threads in [2usize, 8] {
        let par = monte_carlo_par(&samples, threads, |s| model.evaluate_sample(s));
        let s_bits: Vec<u64> = serial.values.iter().map(|v| v.to_bits()).collect();
        let p_bits: Vec<u64> = par.values.iter().map(|v| v.to_bits()).collect();
        assert_eq!(p_bits, s_bits, "threads={threads}");
    }
}

// ---------------------------------------------------------------------
// The run-spec table: source × durability × shards × threads.
// ---------------------------------------------------------------------

const TABLE_SEED: u64 = 16;
const TABLE_N: usize = 24;

/// One indexed point of a sample source.
type Point = (usize, Vec<f64>);

/// Fast deterministic evaluator: point 5 fails on every attempt, every
/// point with `k % 4 == 1` needs one retry, the rest are clean.
fn synth(&(k, ref w): &Point, attempt: usize) -> Result<(f64, SampleStatus), String> {
    if k == 5 {
        return Err(format!("point {k} is unserviceable (attempt {attempt})"));
    }
    if k % 4 == 1 && attempt == 0 {
        return Err(format!("point {k} transient"));
    }
    let v: f64 = w
        .iter()
        .enumerate()
        .map(|(i, x)| (i as f64 + 1.0) * x)
        .sum();
    Ok(((0.3 * v).exp(), SampleStatus::Clean))
}

fn indexed(points: Vec<Vec<f64>>) -> Vec<Point> {
    points.into_iter().enumerate().collect()
}

/// The three sample sources the executor serves: LHS draws, Sobol
/// points, and a spectral plan's collocation nodes.
fn table_sources() -> Vec<(&'static str, Vec<Point>)> {
    let plan = SpectralPlan::build(3, SpectralConfig::smolyak(2, 2)).expect("plan");
    vec![
        (
            "lhs",
            indexed(lhs_normal_streamed(TABLE_SEED, TABLE_N, 3, 1.0)),
        ),
        (
            "sobol",
            indexed(sobol_normal_streamed(TABLE_SEED, TABLE_N, 3, 1.0)),
        ),
        ("spectral", indexed(plan.nodes)),
    ]
}

fn table_fingerprint(source: &str, n: usize) -> CampaignFingerprint {
    CampaignFingerprint {
        master_seed: TABLE_SEED,
        n_samples: n,
        policy: RecoveryPolicy::default(),
        model: linvar::stats::fingerprint_str(source),
    }
}

fn tmp_prefix(tag: &str) -> PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let k = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "linvar-determinism-{}-{tag}-{k}",
        std::process::id()
    ))
}

/// Runs one cell of the table. A durable unsharded cell is cut by a
/// sample budget and resumed from its checkpoint; a durable sharded cell
/// runs shards 0 and 1 as process-per-shard workers, then a resumed walk
/// over the plan merges their snapshots.
fn run_cell(
    source: &str,
    points: &[Point],
    durable: bool,
    shards: bool,
    threads: usize,
) -> MonteCarloResult {
    let fp = table_fingerprint(source, points.len());
    let spec = |campaign: CampaignConfig, shards: Option<ShardConfig>| RunSpec {
        threads,
        campaign,
        shards,
        ..RunSpec::default()
    };
    let run = |spec: RunSpec| execute(points, &spec, &fp, synth).expect("cell runs");
    let prefix = tmp_prefix(source);
    let res = match (durable, shards) {
        (false, false) => run(spec(CampaignConfig::default(), None)),
        (false, true) => run(spec(
            CampaignConfig::default(),
            Some(ShardConfig {
                n_shards: 3,
                shard_index: None,
            }),
        )),
        (true, false) => {
            let cut = run(spec(
                CampaignConfig {
                    checkpoint: Some(prefix.clone()),
                    sample_budget: Some(points.len() / 3),
                    checkpoint_every: 2,
                    ..CampaignConfig::default()
                },
                None,
            ));
            assert!(matches!(cut.verdict, CampaignVerdict::Truncated { .. }));
            let res = run(spec(
                CampaignConfig {
                    checkpoint: Some(prefix.clone()),
                    resume: Some(prefix.clone()),
                    ..CampaignConfig::default()
                },
                None,
            ));
            assert_eq!(res.resumed, cut.completed);
            res
        }
        (true, true) => {
            let sharded = |shard_index| ShardConfig {
                n_shards: 3,
                shard_index,
            };
            let campaign = |resume| CampaignConfig {
                checkpoint: Some(prefix.clone()),
                resume,
                ..CampaignConfig::default()
            };
            for k in 0..2 {
                run(spec(campaign(None), Some(sharded(Some(k)))));
            }
            let res = run(spec(campaign(Some(prefix.clone())), Some(sharded(None))));
            assert!(res.resumed > 0, "the worker snapshots must be merged");
            res
        }
    };
    let _ = std::fs::remove_file(&prefix);
    for k in 0..3 {
        let _ = std::fs::remove_file(shard_checkpoint_path(&prefix, k, 3));
    }
    res
}

fn assert_cell_matches(cell: &MonteCarloResult, reference: &MonteCarloResult, what: &str) {
    let bits = |r: &MonteCarloResult| r.values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(cell), bits(reference), "{what}: value bits");
    assert_eq!(
        cell.summary.mean.to_bits(),
        reference.summary.mean.to_bits(),
        "{what}: mean bits"
    );
    assert_eq!(
        cell.summary.std.to_bits(),
        reference.summary.std.to_bits(),
        "{what}: std bits"
    );
    assert_eq!(
        cell.sample_health, reference.sample_health,
        "{what}: health"
    );
    assert_eq!(
        cell.first_error, reference.first_error,
        "{what}: first error"
    );
    assert_eq!(cell.verdict, CampaignVerdict::Complete, "{what}: verdict");
}

/// Every cell of source × durability × shards × threads equals the
/// one-worker plain run of its source, bit for bit.
#[test]
fn run_spec_table_is_bitwise_identical_to_the_one_worker_plain_run() {
    for (source, points) in table_sources() {
        let reference = run_cell(source, &points, false, false, 1);
        assert_eq!(
            reference.failed_indices,
            vec![5],
            "{source}: the injected failure"
        );
        assert!(
            reference.health.n_recovered > 0,
            "{source}: retries exercised"
        );
        for durable in [false, true] {
            for shards in [false, true] {
                for threads in [1, 2, 8] {
                    let cell = run_cell(source, &points, durable, shards, threads);
                    let what =
                        format!("{source} durable={durable} shards={shards} threads={threads}");
                    assert_cell_matches(&cell, &reference, &what);
                }
            }
        }
    }
}

/// A fail-fast policy truncates at the lowest failing index — the same
/// index at 1, 2 and 8 workers.
#[test]
fn fail_fast_truncation_index_is_thread_count_invariant() {
    let points = indexed(lhs_normal_streamed(TABLE_SEED, TABLE_N, 3, 1.0));
    let policy = RecoveryPolicy {
        max_retries: 1,
        allow_fallback: false,
        fail_fast: true,
    };
    let fp = CampaignFingerprint {
        policy,
        ..table_fingerprint("fail-fast", points.len())
    };
    let run = |threads| {
        let spec = RunSpec {
            threads,
            policy,
            ..RunSpec::default()
        };
        execute(&points, &spec, &fp, synth).expect("fail-fast run")
    };
    let reference = run(1);
    assert_eq!(reference.truncated_at, Some(5));
    assert_eq!(reference.failed_indices, vec![5]);
    for threads in [2, 8] {
        let res = run(threads);
        assert_eq!(res.truncated_at, Some(5), "threads={threads}");
        assert_eq!(res.values, reference.values);
        assert_eq!(res.sample_health, reference.sample_health);
        assert_eq!(res.first_error, reference.first_error);
    }
}

/// One s27 cell per source through `PathModel::run`: LHS under 3
/// shards, Sobol cut and resumed from a checkpoint, and the spectral
/// nodes at 8 workers — each equal to the one-worker plain run.
#[test]
fn s27_cells_per_source_match_the_one_worker_run() {
    let model = s27_model();
    let sources = VariationSources::example3(0.33, 0.33);
    let n = 4;
    let bits = |r: &McPathResult| r.delays.iter().map(|d| d.to_bits()).collect::<Vec<_>>();
    let run = |sampling, spec: &RunSpec| {
        model
            .run(&sources, sampling, MASTER_SEED, spec)
            .expect("s27 run")
    };

    let lhs = Sampling::Lhs(n);
    let sharded = RunSpec {
        threads: 2,
        shards: Some(ShardConfig {
            n_shards: 3,
            shard_index: None,
        }),
        ..RunSpec::default()
    };
    let reference = run(lhs, &RunSpec::plain(1));
    let cell = run(lhs, &sharded);
    assert_eq!(bits(&cell), bits(&reference), "s27 lhs under 3 shards");
    assert_eq!(cell.sample_health, reference.sample_health);

    let sobol = Sampling::Sobol(n);
    let ckpt = tmp_prefix("s27-sobol");
    let durable = |campaign| RunSpec {
        campaign,
        ..RunSpec::plain(2)
    };
    let reference = run(sobol, &RunSpec::plain(1));
    let cut = run(
        sobol,
        &durable(CampaignConfig {
            checkpoint: Some(ckpt.clone()),
            sample_budget: Some(2),
            ..CampaignConfig::default()
        }),
    );
    assert!(matches!(cut.verdict, CampaignVerdict::Truncated { .. }));
    let cell = run(
        sobol,
        &durable(CampaignConfig {
            checkpoint: Some(ckpt.clone()),
            resume: Some(ckpt.clone()),
            ..CampaignConfig::default()
        }),
    );
    let _ = std::fs::remove_file(&ckpt);
    assert_eq!(cell.resumed, 2);
    assert_eq!(bits(&cell), bits(&reference), "s27 sobol cut and resumed");
    assert_eq!(cell.sample_health, reference.sample_health);

    let spectral = Sampling::Spectral(SpectralConfig::stochastic_testing(1));
    let reference = run(spectral, &RunSpec::plain(1));
    let cell = run(spectral, &RunSpec::plain(8));
    assert_eq!(
        bits(&cell),
        bits(&reference),
        "s27 spectral nodes at 8 workers"
    );
    let coeff_bits = |r: &McPathResult| {
        r.spectral
            .as_ref()
            .expect("complete grid")
            .coefficients
            .iter()
            .map(|c| c.to_bits())
            .collect::<Vec<_>>()
    };
    assert_eq!(coeff_bits(&cell), coeff_bits(&reference));
}
