//! Sharded campaign supervisor (see DESIGN.md, "Sharding protocol &
//! merge invariants").
//!
//! A run whose [`crate::RunSpec`] carries a [`ShardConfig`] has its
//! sample range split into contiguous shards, each run by the executor
//! with its own fingerprinted checkpoint. The supervisor provides the
//! robustness layer the durable campaign machinery stops short of:
//!
//! * **heartbeats + watchdog** — every evaluator call ticks a per-shard
//!   heartbeat; a shard silent past `stall_after` is re-dispatched as a
//!   fresh straggler attempt while the original keeps running;
//! * **retry ladder** — a dead shard attempt (killed worker, torn or
//!   corrupted snapshot, checkpoint I/O failure) is retried with capped
//!   exponential backoff, resuming from the shard's own snapshot so
//!   completed samples are never re-evaluated;
//! * **first-writer-wins merge** — deliveries are deduplicated per
//!   sample index, so duplicate completions (stragglers racing their
//!   re-dispatch, a shard delivering twice) cannot perturb the result;
//! * **typed verdicts** — each shard reports a [`ShardVerdict`];
//!   permanently dead shards surface as `Failed` samples in the merged
//!   health instead of aborting the whole run.
//!
//! The merge contract: every sample outcome is a pure function of
//! `(sample, attempt)`, and the delivered records go through the
//! executor's own index-ordered merge, so the merged result is
//! **bitwise-identical to a single-process run at any shard count and
//! any thread count** — including under every injected [`ShardFault`].

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use linvar_metrics::{Counter, Phase};

use crate::campaign::{
    fingerprint_words, load_checkpoint, CampaignConfig, CampaignFingerprint, SampleRecord,
};
use crate::executor::{run_range, Eval, RunError};
use crate::montecarlo::{MonteCarloResult, RecoveryPolicy, SampleStatus};

/// Contiguous near-equal split of `n_samples` into shards. The first
/// `n_samples % n_shards` shards hold one extra sample, so the plan is
/// a pure function of `(n_samples, n_shards)` — every participant
/// (supervisor, per-shard worker processes, the merge step) derives the
/// same ranges independently.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    ranges: Vec<(usize, usize)>,
}

impl ShardPlan {
    /// Splits `n_samples` into `n_shards` contiguous ranges.
    pub fn new(n_samples: usize, n_shards: usize) -> Result<Self, RunError> {
        if n_shards == 0 {
            return Err(RunError::Plan {
                reason: "shard count must be at least 1".into(),
            });
        }
        let base = n_samples / n_shards;
        let extra = n_samples % n_shards;
        let mut ranges = Vec::with_capacity(n_shards);
        let mut at = 0;
        for k in 0..n_shards {
            let len = base + usize::from(k < extra);
            ranges.push((at, at + len));
            at += len;
        }
        Ok(Self { ranges })
    }

    /// Number of shards in the plan.
    pub fn n_shards(&self) -> usize {
        self.ranges.len()
    }

    /// Half-open global sample range `[start, end)` of shard `k`.
    pub fn range(&self, k: usize) -> (usize, usize) {
        self.ranges[k]
    }
}

/// Injected shard failure, for the fault matrix and recovery tests.
/// Faults fire once, on the targeted shard's first attempt; every one
/// is recoverable by the supervisor, so the merged result stays
/// bitwise-identical to a fault-free run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardFault {
    /// The shard dies after evaluating about half its samples, before
    /// any snapshot is written: the retry re-runs the shard from
    /// scratch.
    KillBeforeCheckpoint,
    /// The shard dies after a valid half-way snapshot, leaving a torn
    /// `.tmp` sibling behind (a crash inside the atomic write): the
    /// retry resumes from the snapshot and never re-runs the completed
    /// half.
    KillMidWrite,
    /// The shard completes but its snapshot is bit-flipped afterwards:
    /// the retry's checksum validation rejects and deletes the file,
    /// then re-runs the shard from scratch.
    CorruptCheckpoint,
    /// The shard goes silent for `millis` before starting: the watchdog
    /// re-dispatches a straggler attempt; whichever delivery lands
    /// first wins, per sample index.
    Stall {
        /// How long the shard sleeps before its first heartbeat.
        millis: u64,
    },
    /// The shard delivers its completed range twice: the second
    /// delivery is fully deduplicated.
    DuplicateCompletion,
}

/// Per-shard outcome, as judged by the supervisor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardOutcome {
    /// The shard's full range was delivered (by its controller or by a
    /// straggler re-dispatch).
    Completed,
    /// Every attempt died and no re-dispatch delivered; the shard's
    /// samples enter the merge as `Failed` records carrying this
    /// diagnostic.
    Failed(String),
}

/// What happened to one shard over the whole supervised run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardVerdict {
    /// Shard index in the plan.
    pub shard: usize,
    /// Global sample range start (inclusive).
    pub start: usize,
    /// Global sample range end (exclusive).
    pub end: usize,
    /// Controller attempts spent (1 = clean first try; 0 = empty shard).
    pub attempts: usize,
    /// The watchdog re-dispatched this shard as a straggler.
    pub redispatched: bool,
    /// Final outcome.
    pub outcome: ShardOutcome,
}

/// Supervisor configuration.
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// How many shards to split the campaign into.
    pub n_shards: usize,
    /// Checkpoint path prefix; shard `k` writes
    /// `<prefix>.shard<k>of<N>.ckpt` (see [`shard_checkpoint_path`]).
    /// `None` disables shard snapshots (retries then re-run from
    /// scratch).
    pub checkpoint: Option<PathBuf>,
    /// Resume pre-existing shard snapshots on the first attempt.
    /// Retries always resume from their own attempt's snapshot
    /// regardless — that is the point of the ladder.
    pub resume: bool,
    /// Retry attempts after each shard's first (the shard ladder, on
    /// top of the per-sample `RecoveryPolicy` ladder inside).
    pub max_shard_retries: usize,
    /// First retry delay; attempt `a` waits `base * 2^(a-1)`.
    pub backoff_base: Duration,
    /// Ceiling on the exponential backoff.
    pub backoff_cap: Duration,
    /// A live shard silent for longer than this is re-dispatched as a
    /// straggler. `None` disables the watchdog.
    pub stall_after: Option<Duration>,
    /// Watchdog poll interval.
    pub poll_interval: Duration,
    /// Forwarded to each shard's [`CampaignConfig::checkpoint_every`].
    pub checkpoint_every: usize,
    /// Injected faults: `(shard index, fault)`, fired once on that
    /// shard's first attempt.
    pub faults: Vec<(usize, ShardFault)>,
    /// Process-per-shard mode: run only this shard of the plan, with no
    /// supervisor, and leave its snapshot under `checkpoint` as the
    /// output. A later run over the same prefix with `resume: true`
    /// merges the per-process snapshots without re-evaluating anything.
    pub shard_index: Option<usize>,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            n_shards: 1,
            checkpoint: None,
            resume: false,
            max_shard_retries: 2,
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(500),
            stall_after: Some(Duration::from_secs(30)),
            poll_interval: Duration::from_millis(10),
            checkpoint_every: 0,
            faults: Vec::new(),
            shard_index: None,
        }
    }
}

impl ShardConfig {
    fn fault_for(&self, shard: usize) -> Option<ShardFault> {
        self.faults
            .iter()
            .find(|(k, _)| *k == shard)
            .map(|(_, f)| *f)
    }

    fn backoff(&self, attempt: usize) -> Duration {
        debug_assert!(attempt >= 1);
        let shift = (attempt - 1).min(16) as u32;
        self.backoff_base
            .saturating_mul(1u32 << shift)
            .min(self.backoff_cap)
    }
}

/// Snapshot path of shard `k` of `n`: `<prefix>.shard<k>of<n>.ckpt`.
pub fn shard_checkpoint_path(prefix: &Path, k: usize, n: usize) -> PathBuf {
    let mut s = prefix.as_os_str().to_owned();
    s.push(format!(".shard{k}of{n}.ckpt"));
    PathBuf::from(s)
}

/// Shard-local fingerprint: the campaign fingerprint narrowed to shard
/// `k`'s range, with the model hash folded over the shard coordinates
/// so a snapshot written for one shard (or one shard count) is refused
/// by every other via `FingerprintMismatch`.
pub fn shard_fingerprint(
    base: &CampaignFingerprint,
    k: usize,
    n_shards: usize,
    start: usize,
    end: usize,
) -> CampaignFingerprint {
    CampaignFingerprint {
        master_seed: base.master_seed,
        n_samples: end - start,
        policy: base.policy,
        model: fingerprint_words([
            base.model,
            k as u64,
            n_shards as u64,
            start as u64,
            end as u64,
        ]),
    }
}

/// Merge ledger: first-writer-wins sample records plus per-shard
/// delivery state, all under one mutex (deliveries are rare and
/// coarse; contention is not a concern).
struct MergeState {
    slots: Vec<Option<SampleRecord>>,
    delivered: Vec<bool>,
    merged: usize,
    resumed: usize,
    evaluated: usize,
    checkpoints_written: usize,
}

impl MergeState {
    fn new(n_samples: usize, n_shards: usize) -> Self {
        MergeState {
            slots: vec![None; n_samples],
            delivered: vec![false; n_shards],
            merged: 0,
            resumed: 0,
            evaluated: 0,
            checkpoints_written: 0,
        }
    }

    /// Books the work a shard attempt did, delivered or not.
    fn account(&mut self, attempt: &MonteCarloResult) {
        self.resumed += attempt.resumed;
        self.evaluated += attempt.evaluated;
        self.checkpoints_written += attempt.checkpoints_written;
    }

    /// Delivers a completed shard's records into the global slots,
    /// first writer wins per sample index.
    fn deliver(&mut self, shard: usize, start: usize, records: &[Option<SampleRecord>]) {
        for (local, rec) in records.iter().enumerate() {
            let slot = &mut self.slots[start + local];
            if slot.is_none() {
                *slot = rec.clone();
                self.merged += 1;
                linvar_metrics::incr(Counter::ShardMergedSamples);
            } else {
                linvar_metrics::incr(Counter::ShardMergeDuplicates);
            }
        }
        if !self.delivered[shard] {
            self.delivered[shard] = true;
            linvar_metrics::incr(Counter::ShardsCompleted);
        }
    }
}

/// Per-shard liveness state shared between controller, watchdog and
/// re-dispatch tasks.
struct ShardState {
    /// Milliseconds since supervisor start of the last evaluator tick
    /// (0 = never ticked).
    heartbeat: AtomicU64,
    /// Controller finished (delivered or permanently dead).
    done: AtomicBool,
    /// The watchdog already re-dispatched this shard.
    redispatched: AtomicBool,
}

impl ShardState {
    fn new() -> Self {
        ShardState {
            heartbeat: AtomicU64::new(0),
            done: AtomicBool::new(false),
            redispatched: AtomicBool::new(false),
        }
    }
}

/// What a controller reports back for its verdict.
#[derive(Clone, Default)]
struct ControllerOutcome {
    attempts: usize,
    last_err: Option<String>,
}

/// Runs `samples` split into supervised shards (or, with
/// `config.shard_index`, exactly one shard) and merges the shard results
/// into one [`MonteCarloResult`] that is bitwise-identical to a
/// single-process run over the same samples — at any shard count, any
/// thread count, and under every [`ShardFault`].
///
/// `threads` is the worker count *per shard attempt* (shards run
/// concurrently; correctness never depends on the schedule). The policy's
/// `fail_fast` is ignored: a dead sample is quarantined, never a reason
/// to stop the other shards.
///
/// Only plan-level problems error out. Shard deaths do not: a shard that
/// exhausts its retry ladder surfaces as `Failed` samples in the merged
/// health, with a [`ShardOutcome::Failed`] verdict.
pub(crate) fn supervise<S: Sync>(
    samples: &[S],
    threads: usize,
    policy: RecoveryPolicy,
    config: &ShardConfig,
    fingerprint: &CampaignFingerprint,
    f: &Eval<'_, S>,
) -> Result<MonteCarloResult, RunError> {
    let n = samples.len();
    let plan = ShardPlan::new(n, config.n_shards)?;
    let n_shards = plan.n_shards();
    let policy = RecoveryPolicy {
        fail_fast: false,
        ..policy
    };
    if let Some(k) = config.shard_index {
        return run_one(samples, threads, policy, config, fingerprint, k, f);
    }
    let start_time = Instant::now();

    let states: Vec<ShardState> = (0..n_shards).map(|_| ShardState::new()).collect();
    let merge = Mutex::new(MergeState::new(n, n_shards));
    let outcomes: Mutex<Vec<ControllerOutcome>> =
        Mutex::new(vec![ControllerOutcome::default(); n_shards]);
    let plan_ref = &plan;
    let states_ref = &states;
    let merge_ref = &merge;

    // One supervised shard attempt. Returns Ok(()) once the shard's
    // full range has been delivered into the merge ledger.
    let run_attempt = |k: usize,
                       fault: Option<ShardFault>,
                       resume_allowed: bool,
                       with_checkpoint: bool|
     -> Result<(), String> {
        let (start, end) = plan_ref.range(k);
        let len = end - start;
        let st = &states_ref[k];
        let shard_fp = shard_fingerprint(fingerprint, k, n_shards, start, end);

        linvar_metrics::incr(Counter::ShardsLaunched);
        let _span = linvar_metrics::timer(Phase::ShardRun);

        // Fault pre-processing: kills preempt via a deterministic
        // sample budget; a stall just goes silent for a while.
        let mut kill_after = None;
        let mut suppress_checkpoint = false;
        match fault {
            Some(ShardFault::KillBeforeCheckpoint) => {
                kill_after = Some(len.div_ceil(2).max(1));
                suppress_checkpoint = true;
            }
            Some(ShardFault::KillMidWrite) => kill_after = Some(len.div_ceil(2).max(1)),
            Some(ShardFault::Stall { millis }) => {
                std::thread::sleep(Duration::from_millis(millis));
            }
            _ => {}
        }
        if fault.is_some() {
            linvar_metrics::incr(Counter::ShardFaultsInjected);
        }

        let ckpt = (with_checkpoint && !suppress_checkpoint)
            .then(|| {
                config
                    .checkpoint
                    .as_ref()
                    .map(|p| shard_checkpoint_path(p, k, n_shards))
            })
            .flatten();

        // Pre-validate a resume candidate: a damaged or foreign snapshot
        // costs one deletion and a from-scratch attempt, not the whole
        // ladder.
        let mut resume = None;
        if resume_allowed {
            if let Some(p) = ckpt.as_ref().filter(|p| p.exists()) {
                match load_checkpoint(p, &shard_fp) {
                    Ok(_) => resume = Some(p.clone()),
                    Err(_) => {
                        let _ = std::fs::remove_file(p);
                    }
                }
            }
        }

        let campaign_config = CampaignConfig {
            checkpoint: ckpt.clone(),
            resume,
            checkpoint_every: config.checkpoint_every,
            sample_budget: kill_after,
            ..CampaignConfig::default()
        };

        // Heartbeat-wrapped evaluator: every sample entry and exit
        // refreshes the shard's liveness stamp.
        let hb = &st.heartbeat;
        let tick = || hb.store(start_time.elapsed().as_millis() as u64, Ordering::Relaxed);
        let wrapped = |s: &S, attempt: usize| {
            tick();
            let r = f(s, attempt);
            tick();
            r
        };

        let ran = run_range(
            &samples[start..end],
            threads,
            policy,
            &campaign_config,
            &shard_fp,
            &wrapped,
        )
        .map_err(|e| format!("shard {k} campaign error: {e}"))?;
        let attempt = ran.result();
        merge_ref
            .lock()
            .expect("shard merge lock")
            .account(&attempt);

        // Fault post-processing: the injected deaths happen *after* the
        // truncated run, simulating a worker crash at that point.
        match fault {
            Some(ShardFault::KillBeforeCheckpoint) => {
                return Err(format!(
                    "shard {k} injected fault: killed before checkpoint"
                ));
            }
            Some(ShardFault::KillMidWrite) => {
                if let Some(p) = ckpt.as_ref() {
                    // A crash inside the atomic write leaves a torn
                    // temp sibling; the rename target stays valid.
                    let mut tmp = p.as_os_str().to_owned();
                    tmp.push(".tmp");
                    let _ = std::fs::write(tmp, b"torn partial checkpoint write\x00garbage");
                }
                return Err(format!(
                    "shard {k} injected fault: killed mid checkpoint write"
                ));
            }
            Some(ShardFault::CorruptCheckpoint) => {
                if let Some(p) = ckpt.as_ref() {
                    corrupt_one_byte(p);
                }
                return Err(format!(
                    "shard {k} injected fault: snapshot corrupted after write"
                ));
            }
            _ => {}
        }
        if let crate::CampaignVerdict::Truncated { remaining } = attempt.verdict {
            return Err(format!(
                "shard {k} truncated with {remaining} samples remaining"
            ));
        }

        let mut ledger = merge_ref.lock().expect("shard merge lock");
        ledger.deliver(k, start, &ran.records);
        if matches!(fault, Some(ShardFault::DuplicateCompletion)) {
            ledger.deliver(k, start, &ran.records);
        }
        Ok(())
    };
    let run_attempt = &run_attempt;

    std::thread::scope(|scope| {
        for (k, st) in states_ref.iter().enumerate() {
            let (start, end) = plan.range(k);
            let outcomes = &outcomes;
            scope.spawn(move || {
                // Controllers run shard merges on this thread; their
                // phase metrics must be folded in before the scope joins.
                let _flush = linvar_metrics::flush_on_drop();
                let mut outcome = ControllerOutcome::default();
                if start == end {
                    // Empty shard (more shards than samples): vacuously
                    // delivered.
                    merge_ref.lock().expect("shard merge lock").delivered[k] = true;
                } else {
                    let ladder = 1 + config.max_shard_retries;
                    for attempt in 0..ladder {
                        if attempt > 0 {
                            linvar_metrics::incr(Counter::ShardRetries);
                            std::thread::sleep(config.backoff(attempt));
                        }
                        let fault = if attempt == 0 {
                            config.fault_for(k)
                        } else {
                            None
                        };
                        let resume_allowed = config.resume || attempt > 0;
                        outcome.attempts = attempt + 1;
                        match run_attempt(k, fault, resume_allowed, true) {
                            Ok(()) => {
                                outcome.last_err = None;
                                break;
                            }
                            Err(e) => outcome.last_err = Some(e),
                        }
                    }
                }
                outcomes.lock().expect("shard outcomes lock")[k] = outcome;
                st.done.store(true, Ordering::Release);
            });
        }

        // Watchdog: poll heartbeats on the scope-owner thread and
        // re-dispatch stragglers (once per shard, checkpoint-less so
        // the original's snapshot writes are never raced).
        loop {
            if states.iter().all(|st| st.done.load(Ordering::Acquire)) {
                break;
            }
            if let Some(stall) = config.stall_after {
                let now = start_time.elapsed();
                let delivered: Vec<bool> =
                    merge.lock().expect("shard merge lock").delivered.clone();
                for (k, st) in states.iter().enumerate() {
                    if st.done.load(Ordering::Acquire)
                        || delivered[k]
                        || st.redispatched.load(Ordering::Relaxed)
                    {
                        continue;
                    }
                    let last = Duration::from_millis(st.heartbeat.load(Ordering::Relaxed));
                    if now.saturating_sub(last) > stall {
                        st.redispatched.store(true, Ordering::Relaxed);
                        linvar_metrics::incr(Counter::ShardsRedispatched);
                        scope.spawn(move || {
                            let _flush = linvar_metrics::flush_on_drop();
                            // Best effort: the original may still win.
                            let _ = run_attempt(k, None, false, false);
                        });
                    }
                }
            }
            std::thread::sleep(config.poll_interval);
        }
    });

    let mut ledger = merge.into_inner().expect("supervisor joined");
    let outcomes = outcomes.into_inner().expect("supervisor joined");

    // Verdicts + dead-shard fills: a permanently dead shard's samples
    // enter the merge as failed records carrying its diagnostic.
    let mut shards = Vec::with_capacity(n_shards);
    for (k, oc) in outcomes.iter().enumerate() {
        let (start, end) = plan.range(k);
        let outcome = if ledger.delivered[k] {
            ShardOutcome::Completed
        } else {
            let msg = oc
                .last_err
                .clone()
                .unwrap_or_else(|| "shard never completed".into());
            let fill = SampleRecord {
                status: SampleStatus::Failed,
                attempts: 0,
                outcome: Err(format!("shard {k} dead: {msg}")),
            };
            for slot in &mut ledger.slots[start..end] {
                slot.get_or_insert_with(|| fill.clone());
            }
            ShardOutcome::Failed(msg)
        };
        shards.push(ShardVerdict {
            shard: k,
            start,
            end,
            attempts: oc.attempts,
            redispatched: states[k].redispatched.load(Ordering::Relaxed),
            outcome,
        });
    }

    // The executor's own index-ordered merge over global indices. The
    // `mc.*` counters are NOT recorded again here — each shard attempt
    // already counted its own samples.
    let mut res = MonteCarloResult::merge(&ledger.slots, false);
    res.completed = ledger.merged;
    res.resumed = ledger.resumed;
    res.evaluated = ledger.evaluated;
    res.checkpoints_written = ledger.checkpoints_written;
    res.shards = shards;
    Ok(res)
}

/// Process-per-shard mode: runs exactly shard `k` of the plan and leaves
/// its snapshot under the configured prefix as the output.
fn run_one<S: Sync>(
    samples: &[S],
    threads: usize,
    policy: RecoveryPolicy,
    config: &ShardConfig,
    fingerprint: &CampaignFingerprint,
    k: usize,
    f: &Eval<'_, S>,
) -> Result<MonteCarloResult, RunError> {
    let plan = ShardPlan::new(samples.len(), config.n_shards)?;
    if k >= plan.n_shards() {
        return Err(RunError::Plan {
            reason: format!(
                "shard index {k} out of range (plan has {})",
                plan.n_shards()
            ),
        });
    }
    let Some(prefix) = config.checkpoint.as_ref() else {
        return Err(RunError::Plan {
            reason: "a shard worker requires a checkpoint prefix (its snapshot IS its output)"
                .into(),
        });
    };
    let (start, end) = plan.range(k);
    let shard_fp = shard_fingerprint(fingerprint, k, plan.n_shards(), start, end);
    let path = shard_checkpoint_path(prefix, k, plan.n_shards());
    let campaign_config = CampaignConfig {
        checkpoint: Some(path.clone()),
        resume: (config.resume && path.exists()).then(|| path.clone()),
        checkpoint_every: config.checkpoint_every,
        ..CampaignConfig::default()
    };
    linvar_metrics::incr(Counter::ShardsLaunched);
    let _span = linvar_metrics::timer(Phase::ShardRun);
    let ran = run_range(
        &samples[start..end],
        threads,
        policy,
        &campaign_config,
        &shard_fp,
        f,
    )?;
    linvar_metrics::incr(Counter::ShardsCompleted);
    Ok(ran.result())
}

/// Flips one byte in the middle of a file (fault injection helper).
fn corrupt_one_byte(path: &Path) {
    if let Ok(mut bytes) = std::fs::read(path) {
        if !bytes.is_empty() {
            let at = bytes.len() / 2;
            bytes[at] ^= 0x40;
            let _ = std::fs::write(path, bytes);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{run_campaign, save_checkpoint, CheckpointError};
    use crate::executor::{execute, RunSpec};
    use std::sync::atomic::AtomicUsize;

    /// A sharded run through the executor.
    fn sharded(
        samples: &[usize],
        threads: usize,
        config: &ShardConfig,
        fp: &CampaignFingerprint,
    ) -> Result<MonteCarloResult, RunError> {
        let spec = RunSpec {
            threads,
            shards: Some(config.clone()),
            ..RunSpec::default()
        };
        execute(samples, &spec, fp, synth)
    }

    fn tmp_prefix(tag: &str) -> PathBuf {
        static SEQ: AtomicUsize = AtomicUsize::new(0);
        let k = SEQ.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "linvar-shard-unit-{}-{tag}-{k}",
            std::process::id()
        ))
    }

    fn cleanup(prefix: &Path, n_shards: usize) {
        for k in 0..n_shards {
            let _ = std::fs::remove_file(shard_checkpoint_path(prefix, k, n_shards));
        }
    }

    fn base_fp(n: usize) -> CampaignFingerprint {
        CampaignFingerprint {
            master_seed: 9,
            n_samples: n,
            policy: RecoveryPolicy::default(),
            model: fingerprint_words([7, 7, 7]),
        }
    }

    /// Deterministic synthetic evaluator: sample 3 fails permanently
    /// with its own message, sample 5 fails permanently with another.
    fn synth(s: &usize, _attempt: usize) -> Result<(f64, SampleStatus), String> {
        match *s {
            3 => Err("boom at three".into()),
            5 => Err("boom at five".into()),
            k => Ok(((k as f64) * 1.5 - 4.0, SampleStatus::Clean)),
        }
    }

    #[test]
    fn plan_splits_contiguously_with_remainder_up_front() {
        let plan = ShardPlan::new(10, 3).expect("plan");
        assert_eq!(plan.n_shards(), 3);
        assert_eq!(plan.range(0), (0, 4));
        assert_eq!(plan.range(1), (4, 7));
        assert_eq!(plan.range(2), (7, 10));
        // More shards than samples: trailing shards are empty.
        let wide = ShardPlan::new(2, 4).expect("plan");
        assert_eq!(wide.range(0), (0, 1));
        assert_eq!(wide.range(1), (1, 2));
        assert_eq!(wide.range(2), (2, 2));
        assert_eq!(wide.range(3), (2, 2));
        assert!(matches!(ShardPlan::new(5, 0), Err(RunError::Plan { .. })));
    }

    #[test]
    fn first_error_is_lowest_global_index_not_lowest_per_shard() {
        // Two shards over 0..8: failures at global 3 (shard 0, local 3)
        // and global 5 (shard 1, local 1). A merge that picked the
        // lowest *local* index, or whichever shard delivered first,
        // could report "boom at five"; the contract is global order.
        let samples: Vec<usize> = (0..8).collect();
        let config = ShardConfig {
            n_shards: 2,
            ..ShardConfig::default()
        };
        let res = sharded(&samples, 2, &config, &base_fp(8)).expect("sharded run");
        assert_eq!(res.failed_indices, vec![3, 5]);
        assert_eq!(res.first_error.as_deref(), Some("boom at three"));

        // And it matches the single-process campaign verbatim.
        let single = run_campaign(
            &samples,
            2,
            RecoveryPolicy::default(),
            &CampaignConfig::default(),
            base_fp(8),
            synth,
        )
        .expect("single run");
        assert_eq!(res.first_error, single.first_error);
        assert_eq!(res.failed_indices, single.failed_indices);
    }

    #[test]
    fn shard_fingerprints_refuse_foreign_snapshots() {
        let base = base_fp(8);
        let fp0 = shard_fingerprint(&base, 0, 2, 0, 4);
        let fp1 = shard_fingerprint(&base, 1, 2, 4, 8);
        assert_ne!(fp0.model, fp1.model);
        // A snapshot written under shard 0's fingerprint must be
        // refused when validated as shard 1.
        let path = tmp_prefix("foreign").with_extension("ckpt");
        save_checkpoint(&path, &fp0, &vec![None; 4]).expect("write");
        assert!(load_checkpoint(&path, &fp0).is_ok());
        assert!(matches!(
            load_checkpoint(&path, &fp1),
            Err(CheckpointError::FingerprintMismatch { .. })
        ));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn empty_and_oversharded_campaigns_merge_cleanly() {
        let samples: Vec<usize> = (0..2).collect();
        let config = ShardConfig {
            n_shards: 4,
            ..ShardConfig::default()
        };
        let res = sharded(&samples, 1, &config, &base_fp(2)).expect("sharded run");
        assert_eq!(res.values.len(), 2);
        assert_eq!(res.shards.len(), 4);
        assert!(res
            .shards
            .iter()
            .all(|v| v.outcome == ShardOutcome::Completed));
    }

    #[test]
    fn exhausted_retry_ladder_surfaces_as_failed_samples() {
        // KillBeforeCheckpoint with a zero-retry ladder: shard 1 dies
        // permanently; its samples must enter the merge as Failed with
        // a "shard dead" diagnostic instead of erroring the whole run.
        let samples: Vec<usize> = (0..8).map(|k| k + 100).collect();
        let config = ShardConfig {
            n_shards: 2,
            max_shard_retries: 0,
            stall_after: None,
            faults: vec![(1, ShardFault::KillBeforeCheckpoint)],
            ..ShardConfig::default()
        };
        let res = sharded(&samples, 1, &config, &base_fp(8)).expect("sharded run");
        assert_eq!(res.health.n_failed, 4);
        assert_eq!(res.failed_indices, vec![4, 5, 6, 7]);
        let msg = res.first_error.expect("dead-shard diagnostic");
        assert!(msg.contains("shard 1 dead"), "{msg}");
        assert!(matches!(res.shards[1].outcome, ShardOutcome::Failed(_)));
        assert_eq!(res.shards[1].attempts, 1);
        assert_eq!(res.shards[0].outcome, ShardOutcome::Completed);
    }

    #[test]
    fn worker_requires_checkpoint_prefix_and_valid_index() {
        let samples: Vec<usize> = (0..4).collect();
        let config = ShardConfig {
            n_shards: 2,
            shard_index: Some(0),
            ..ShardConfig::default()
        };
        assert!(matches!(
            sharded(&samples, 1, &config, &base_fp(4)),
            Err(RunError::Plan { .. })
        ));
        let with_ckpt = ShardConfig {
            checkpoint: Some(tmp_prefix("worker")),
            shard_index: Some(5),
            ..config
        };
        assert!(matches!(
            sharded(&samples, 1, &with_ckpt, &base_fp(4)),
            Err(RunError::Plan { .. })
        ));
        let prefix = with_ckpt.checkpoint.clone().expect("prefix");
        let worker = ShardConfig {
            shard_index: Some(1),
            ..with_ckpt
        };
        let res = sharded(&samples, 1, &worker, &base_fp(4)).expect("worker run");
        assert_eq!(res.values.len(), 1); // local samples 2,3 — 3 fails
        assert!(shard_checkpoint_path(&prefix, 1, 2).exists());
        cleanup(&prefix, 2);
    }
}
