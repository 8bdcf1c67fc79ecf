//! Bitwise-identity of the sharded campaign supervisor.
//!
//! The contract (DESIGN.md, "Sharding protocol & merge invariants"): a
//! campaign split across N supervised shards merges to a result
//! **bitwise-identical** to a single-process run over the same samples —
//! at any shard count, any thread count, and under every injected
//! [`ShardFault`]. These tests pin that identity on a synthetic workload
//! (values, health, failure bookkeeping, `first_error`), through the
//! full `PathModel` framework surface, and across the process-per-shard
//! worker flow (`ShardConfig::shard_index` snapshots merged by a resumed
//! supervisor without re-evaluating a single sample).

use linvar_core::path::{PathModel, PathSpec, Sampling, VariationSources};
use linvar_core::{RecoveryPolicy, RunSpec};
use linvar_devices::tech_018;
use linvar_interconnect::WireTech;
use linvar_stats::{
    execute, run_campaign, CampaignConfig, CampaignFingerprint, MonteCarloResult, SampleStatus,
    ShardConfig, ShardFault, ShardOutcome, Summary,
};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

/// A process-unique directory for one test's shard snapshots.
fn tmp_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let k = SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "linvar-shard-identity-{}-{tag}-{k}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).expect("create tmp dir");
    dir
}

fn assert_summaries_bitwise(a: &Summary, b: &Summary, what: &str) {
    assert_eq!(a.n, b.n, "{what}: n");
    for (x, y, field) in [
        (a.mean, b.mean, "mean"),
        (a.std, b.std, "std"),
        (a.min, b.min, "min"),
        (a.max, b.max, "max"),
        (a.std_err_mean, b.std_err_mean, "std_err_mean"),
        (a.rel_err_std, b.rel_err_std, "rel_err_std"),
    ] {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: {field}");
    }
}

// ---------------------------------------------------------------------
// Synthetic workload: pure function of (sample, attempt), mixed health.
// ---------------------------------------------------------------------

const SYNTH_N: usize = 24;

fn synth_fingerprint() -> CampaignFingerprint {
    CampaignFingerprint {
        master_seed: 11,
        n_samples: SYNTH_N,
        policy: RecoveryPolicy::default(),
        model: linvar_stats::fingerprint_str("shard-identity-synthetic"),
    }
}

/// Deterministic evaluator: every 11th sample needs one retry (and its
/// value depends on the serving attempt, so attempt parity is part of
/// the identity), every 7th degrades, sample 13 fails its whole budget.
fn synth_eval(s: &usize, attempt: usize) -> Result<(f64, SampleStatus), String> {
    let k = *s;
    if k == 13 {
        return Err(format!("permanent failure at {k}"));
    }
    if k % 11 == 5 && attempt == 0 {
        return Err(format!("transient at {k}"));
    }
    let status = if k % 7 == 3 {
        SampleStatus::Degraded
    } else {
        SampleStatus::Clean
    };
    Ok(((k as f64).sin() * (attempt as f64 + 1.0), status))
}

/// A sharded run of the synthetic workload at `threads` workers.
fn synth_sharded(
    threads: usize,
    cfg: &ShardConfig,
    f: impl Fn(&usize, usize) -> Result<(f64, SampleStatus), String> + Sync,
) -> MonteCarloResult {
    let samples: Vec<usize> = (0..SYNTH_N).collect();
    let spec = RunSpec {
        threads,
        shards: Some(cfg.clone()),
        ..RunSpec::default()
    };
    execute(&samples, &spec, &synth_fingerprint(), f).expect("sharded campaign")
}

fn synth_baseline() -> MonteCarloResult {
    let samples: Vec<usize> = (0..SYNTH_N).collect();
    run_campaign(
        &samples,
        1,
        RecoveryPolicy::default(),
        &CampaignConfig::default(),
        synth_fingerprint(),
        synth_eval,
    )
    .expect("baseline campaign")
}

fn assert_matches_baseline(sharded: &MonteCarloResult, base: &MonteCarloResult, what: &str) {
    assert_eq!(sharded.values, base.values, "{what}: values");
    assert_summaries_bitwise(&sharded.summary, &base.summary, what);
    assert_eq!(sharded.sample_health, base.sample_health, "{what}: health");
    assert_eq!(sharded.health, base.health, "{what}: health summary");
    assert_eq!(sharded.failures, base.failures, "{what}: failures");
    assert_eq!(
        sharded.failed_indices, base.failed_indices,
        "{what}: failed indices"
    );
    assert_eq!(sharded.first_error, base.first_error, "{what}: first_error");
    assert_eq!(sharded.completed, base.completed, "{what}: completed");
}

#[test]
fn synthetic_identity_across_shard_and_thread_counts() {
    let base = synth_baseline();
    for n_shards in [1usize, 2, 4] {
        for threads in [1usize, 2, 8] {
            let cfg = ShardConfig {
                n_shards,
                ..ShardConfig::default()
            };
            let sharded = synth_sharded(threads, &cfg, synth_eval);
            assert_matches_baseline(&sharded, &base, &format!("{n_shards}x{threads}"));
            assert_eq!(sharded.shards.len(), n_shards);
            assert!(sharded
                .shards
                .iter()
                .all(|v| v.outcome == ShardOutcome::Completed));
        }
    }
}

#[test]
fn identity_holds_under_every_injected_fault() {
    let base = synth_baseline();
    let faults = [
        ("kill", ShardFault::KillBeforeCheckpoint),
        ("killmid", ShardFault::KillMidWrite),
        ("corrupt", ShardFault::CorruptCheckpoint),
        ("stall", ShardFault::Stall { millis: 300 }),
        ("dup", ShardFault::DuplicateCompletion),
    ];
    for (tag, fault) in faults {
        let dir = tmp_dir(tag);
        let stalled = matches!(fault, ShardFault::Stall { .. });
        let cfg = ShardConfig {
            n_shards: 4,
            checkpoint: Some(dir.join("campaign")),
            faults: vec![(1, fault)],
            // Tight watchdog so the stall test re-dispatches quickly;
            // harmless for the others (their heartbeats stay fresh).
            stall_after: Some(Duration::from_millis(50)),
            poll_interval: Duration::from_millis(5),
            ..ShardConfig::default()
        };
        let sharded = synth_sharded(2, &cfg, synth_eval);
        assert_matches_baseline(&sharded, &base, tag);
        assert!(
            sharded
                .shards
                .iter()
                .all(|v| v.outcome == ShardOutcome::Completed),
            "{tag}: every shard must recover: {:?}",
            sharded.shards
        );
        if stalled {
            assert!(
                sharded.shards.iter().any(|v| v.redispatched),
                "stalled shard must have been re-dispatched: {:?}",
                sharded.shards
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn worker_snapshots_merge_without_reevaluation() {
    let base = synth_baseline();
    let dir = tmp_dir("workers");
    let cfg = ShardConfig {
        n_shards: 3,
        checkpoint: Some(dir.join("campaign")),
        ..ShardConfig::default()
    };
    // Phase 1: each shard in its own supervised worker call (the
    // process-per-shard flow the bench bins expose via --shard-index).
    let mut worker_total = 0;
    for k in 0..3 {
        let worker_cfg = ShardConfig {
            shard_index: Some(k),
            ..cfg.clone()
        };
        let worker = synth_sharded(2, &worker_cfg, synth_eval);
        assert!(worker.evaluated > 0, "worker {k} evaluated nothing");
        worker_total += worker.evaluated;
    }
    assert_eq!(worker_total, SYNTH_N, "workers cover the range exactly");
    // Phase 2: a resumed supervisor merges the snapshots. Nothing is
    // re-evaluated — the merge is pure bookkeeping.
    let merge_cfg = ShardConfig {
        resume: true,
        ..cfg
    };
    let merged = synth_sharded(2, &merge_cfg, |_: &usize, _| {
        panic!("merge-only run must not evaluate samples")
    });
    assert_eq!(
        merged.evaluated, 0,
        "merge must come entirely from snapshots"
    );
    assert_matches_baseline(&merged, &base, "worker merge");
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Framework surface: the PathModel sharded driver.
// ---------------------------------------------------------------------

#[test]
fn path_model_sharded_matches_single_process() {
    let spec = PathSpec {
        cells: vec!["inv".into(), "nand2".into()],
        linear_elements_between_stages: 10,
        input_slew: 50e-12,
    };
    let model = PathModel::build(&spec, &tech_018(), &WireTech::m018()).unwrap();
    let sources = VariationSources::example3(0.33, 0.33);
    let policy = RecoveryPolicy::default();
    let base = model
        .monte_carlo_campaign(&sources, 6, 7, 1, policy, &CampaignConfig::default())
        .unwrap();
    for n_shards in [1usize, 2, 4] {
        for threads in [1usize, 2] {
            let cfg = ShardConfig {
                n_shards,
                ..ShardConfig::default()
            };
            let spec = RunSpec {
                threads,
                policy,
                shards: Some(cfg),
                ..RunSpec::default()
            };
            let sharded = model.run(&sources, Sampling::Lhs(6), 7, &spec).unwrap();
            let what = format!("path {n_shards}x{threads}");
            assert_eq!(sharded.delays, base.delays, "{what}: delays");
            assert_summaries_bitwise(&sharded.summary, &base.summary, &what);
            assert_eq!(sharded.sample_health, base.sample_health, "{what}");
            assert_eq!(sharded.health, base.health, "{what}");
            assert_eq!(sharded.failures, base.failures, "{what}");
            assert_eq!(sharded.first_error, base.first_error, "{what}");
            assert_eq!(sharded.reports, base.reports, "{what}: reports");
        }
    }
}
