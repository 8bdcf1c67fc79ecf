//! Bitwise-identity of sharded runs.
//!
//! The contract (DESIGN.md, "Sharding protocol & merge invariants"): a
//! campaign split into N shards — walked in one process, or run one
//! shard per process and merged by a resumed walk — is
//! **bitwise-identical** to a single-process run over the same samples
//! at any shard count and any thread count. These tests pin that
//! identity on a synthetic workload (values, health, failure
//! bookkeeping, `first_error`), through the full `PathModel` framework
//! surface, and across the process-per-shard worker flow
//! (`ShardConfig::shard_index` snapshots merged without re-evaluating a
//! single sample), and they check by counter that an interrupted shard
//! or walk re-evaluates only what its snapshots miss.

use linvar_bench::BenchArgs;
use linvar_core::path::{PathModel, PathSpec, Sampling, VariationSources};
use linvar_core::{RecoveryPolicy, RunSpec};
use linvar_devices::tech_018;
use linvar_interconnect::WireTech;
use linvar_stats::{
    execute, load_checkpoint, run_campaign, shard_checkpoint_path, shard_fingerprint,
    CampaignConfig, CampaignFingerprint, CampaignVerdict, MonteCarloResult, SampleStatus,
    ShardConfig, ShardPlan, Summary,
};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

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
    shards: ShardConfig,
    campaign: CampaignConfig,
    f: impl Fn(&usize, usize) -> Result<(f64, SampleStatus), String> + Sync,
) -> MonteCarloResult {
    let samples: Vec<usize> = (0..SYNTH_N).collect();
    let spec = RunSpec {
        threads,
        campaign,
        shards: Some(shards),
        ..RunSpec::default()
    };
    execute(&samples, &spec, &synth_fingerprint(), f).expect("sharded campaign")
}

/// Every shard of an `n_shards` plan, walked in this process.
fn walk(n_shards: usize) -> ShardConfig {
    ShardConfig {
        n_shards,
        shard_index: None,
    }
}

/// Campaign knobs writing snapshots under `prefix`, resuming from it
/// if asked.
fn writing(prefix: &Path, resume: bool) -> CampaignConfig {
    CampaignConfig {
        checkpoint: Some(prefix.to_path_buf()),
        resume: resume.then(|| prefix.to_path_buf()),
        ..CampaignConfig::default()
    }
}

/// `synth_eval`, noting every sample it starts (attempt 0) in `log`.
fn logged(
    log: &Mutex<Vec<usize>>,
) -> impl Fn(&usize, usize) -> Result<(f64, SampleStatus), String> + Sync + '_ {
    move |s, attempt| {
        if attempt == 0 {
            log.lock().expect("log lock").push(*s);
        }
        synth_eval(s, attempt)
    }
}

/// The samples `log` noted, ascending, leaving it empty.
fn take_sorted(log: &Mutex<Vec<usize>>) -> Vec<usize> {
    let mut v = std::mem::take(&mut *log.lock().expect("log lock"));
    v.sort_unstable();
    v
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
            let sharded = synth_sharded(
                threads,
                walk(n_shards),
                CampaignConfig::default(),
                synth_eval,
            );
            assert_matches_baseline(&sharded, &base, &format!("{n_shards}x{threads}"));
        }
    }
}

#[test]
fn huge_shard_count_equals_the_unsharded_run() {
    // The plan computes its ranges and the walk visits only the
    // non-empty shards, so usize::MAX shards is one sample per shard —
    // no per-shard allocation, no per-shard thread.
    let base = synth_baseline();
    let sharded = synth_sharded(2, walk(usize::MAX), CampaignConfig::default(), synth_eval);
    assert_matches_baseline(&sharded, &base, "usize::MAX shards");
    assert_eq!(sharded.evaluated, SYNTH_N);
}

#[test]
fn worker_snapshots_merge_without_reevaluation() {
    let base = synth_baseline();
    let dir = tmp_dir("workers");
    let prefix = dir.join("campaign");
    // Phase 1: each shard in its own worker call (the process-per-shard
    // flow the bench bins expose via --shard-index).
    let mut worker_total = 0;
    for k in 0..3 {
        let worker_cfg = ShardConfig {
            n_shards: 3,
            shard_index: Some(k),
        };
        let worker = synth_sharded(2, worker_cfg, writing(&prefix, false), synth_eval);
        assert!(worker.evaluated > 0, "worker {k} evaluated nothing");
        worker_total += worker.evaluated;
    }
    assert_eq!(worker_total, SYNTH_N, "workers cover the range exactly");
    // Phase 2: a resumed walk merges the snapshots. Nothing is
    // re-evaluated — the merge is pure bookkeeping.
    let merged = synth_sharded(2, walk(3), writing(&prefix, true), |_: &usize, _| {
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
            let spec = RunSpec {
                threads,
                policy,
                shards: Some(walk(n_shards)),
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

// ---------------------------------------------------------------------
// Interrupted shards re-evaluate only what their snapshots miss.
// ---------------------------------------------------------------------

#[test]
fn rerun_shard_worker_evaluates_only_what_its_snapshot_misses() {
    let base = synth_baseline();
    let dir = tmp_dir("rerun");
    let prefix = dir.join("campaign");
    let log = Mutex::new(Vec::new());
    let worker = |k| ShardConfig {
        n_shards: 3,
        shard_index: Some(k),
    };
    // A budget of 3 stands in for a kill after three samples: the final
    // snapshot holds exactly what the process finished.
    let cut = synth_sharded(
        2,
        worker(1),
        CampaignConfig {
            sample_budget: Some(3),
            ..writing(&prefix, false)
        },
        logged(&log),
    );
    assert!(matches!(cut.verdict, CampaignVerdict::Truncated { .. }));
    assert_eq!((cut.evaluated, take_sorted(&log).len()), (3, 3));

    let (start, end) = ShardPlan::new(SYNTH_N, 3).expect("plan").range(1);
    let snapshot = load_checkpoint(
        &shard_checkpoint_path(&prefix, 1, 3),
        &shard_fingerprint(&synth_fingerprint(), 1, 3, start, end),
    )
    .expect("the cut worker's snapshot");
    let missing: Vec<usize> = (start..end)
        .filter(|&i| snapshot.outcomes[i - start].is_none())
        .collect();
    assert_eq!(missing.len(), end - start - 3);

    let rerun = synth_sharded(2, worker(1), writing(&prefix, true), logged(&log));
    assert_eq!(take_sorted(&log), missing, "the re-run evaluates the gap");
    assert_eq!(rerun.evaluated, missing.len());
    assert_eq!(rerun.resumed, cut.completed);
    assert_eq!(rerun.verdict, CampaignVerdict::Complete);

    for k in [0, 2] {
        synth_sharded(2, worker(k), writing(&prefix, false), synth_eval);
    }
    let merged = synth_sharded(2, walk(3), writing(&prefix, true), logged(&log));
    assert!(take_sorted(&log).is_empty(), "the merge evaluates nothing");
    assert_matches_baseline(&merged, &base, "re-run worker merge");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sharded_budget_bounds_the_whole_walk() {
    let base = synth_baseline();
    let dir = tmp_dir("budget");
    let prefix = dir.join("campaign");
    let log = Mutex::new(Vec::new());
    // Four shards of six samples under a budget of 10: shard 0 takes 6,
    // shard 1 the remaining 4, shards 2 and 3 none — 10 in total, not 10
    // per shard.
    let cut = synth_sharded(
        2,
        walk(4),
        CampaignConfig {
            sample_budget: Some(10),
            ..writing(&prefix, false)
        },
        logged(&log),
    );
    assert_eq!(take_sorted(&log), (0..10).collect::<Vec<_>>());
    assert_eq!((cut.evaluated, cut.completed), (10, 10));
    assert_eq!(
        cut.verdict,
        CampaignVerdict::Truncated {
            remaining: SYNTH_N - 10
        }
    );
    for k in 0..4 {
        assert!(
            shard_checkpoint_path(&prefix, k, 4).exists(),
            "shard {k} leaves a resumable snapshot"
        );
    }
    let resumed = synth_sharded(2, walk(4), writing(&prefix, true), logged(&log));
    assert_eq!(take_sorted(&log), (10..SYNTH_N).collect::<Vec<_>>());
    assert_eq!((resumed.resumed, resumed.evaluated), (10, SYNTH_N - 10));
    assert_matches_baseline(&resumed, &base, "budget-cut walk resumed");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bench_sharded_resume_reads_the_resume_prefix_and_writes_the_checkpoint_prefix() {
    // `--resume A --checkpoint B --shards N` follows the unsharded rule:
    // read A's snapshots, write B's.
    const TAG: &str = "synth";
    let base = synth_baseline();
    let dir = tmp_dir("bench-prefixes");
    let (a, b) = (dir.join("a"), dir.join("b"));
    let path = |p: &Path| p.to_str().expect("utf-8 tmp path").to_string();
    let spec = |argv: &[String]| {
        BenchArgs::parse(argv.iter().cloned())
            .expect("argv parses")
            .run_spec(
                TAG,
                Instant::now(),
                RunSpec {
                    threads: 2,
                    ..RunSpec::default()
                },
            )
            .expect("run spec")
    };
    let samples: Vec<usize> = (0..SYNTH_N).collect();
    for k in 0..3 {
        let argv = [
            "--shards".into(),
            "3".into(),
            "--shard-index".into(),
            k.to_string(),
            "--checkpoint".into(),
            path(&a),
        ];
        execute(&samples, &spec(&argv), &synth_fingerprint(), synth_eval).expect("worker");
    }
    let log = Mutex::new(Vec::new());
    let argv = [
        "--shards".into(),
        "3".into(),
        "--resume".into(),
        path(&a),
        "--checkpoint".into(),
        path(&b),
    ];
    let merged =
        execute(&samples, &spec(&argv), &synth_fingerprint(), logged(&log)).expect("merging run");
    assert!(take_sorted(&log).is_empty(), "A's snapshots were read");
    assert_eq!(merged.evaluated, 0);
    assert_matches_baseline(&merged, &base, "bench merge from A into B");
    let b_prefix = PathBuf::from(format!("{}.{TAG}", path(&b)));
    for k in 0..3 {
        assert!(
            shard_checkpoint_path(&b_prefix, k, 3).exists(),
            "shard {k} snapshot written under B"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
