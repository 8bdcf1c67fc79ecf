//! The sample executor: the one loop behind every statistical engine.
//!
//! Monte Carlo over LHS or Sobol draws, the collocation nodes of a
//! spectral plan, a durable campaign and a sharded campaign are all the
//! same computation: evaluate a pure function at an indexed set of
//! points, then merge the outcomes in index order. [`execute`] is that
//! computation, written once. A [`RunSpec`] says how to run it — worker
//! count, per-sample [`RecoveryPolicy`], the durable-campaign knobs of
//! [`CampaignConfig`], and an optional [`ShardConfig`] — and the sample
//! source is simply the slice handed in.
//!
//! This module is the only code in the workspace that spawns sample
//! workers, walks the per-sample attempt ladder, checks deadline,
//! cancel, budget and fail-fast, writes periodic snapshots, and merges
//! outcomes in index order. A sharded run ([`crate::shard`]) runs the
//! worker pool once per shard.
//!
//! **Determinism contract.** Every outcome is a pure function of
//! `(sample, attempt)` and the merge walks sample-index order, so the
//! merged result is bitwise-identical at any worker count, any shard
//! count, and across any interrupt/resume schedule. See DESIGN.md,
//! "The sample executor & determinism contract".
//!
//! Each worker thread owns a thread-local scratch **workspace**
//! (`linvar_numeric::with_workspace`) that the sample hot path draws its
//! LU/eigen/matrix temporaries from; pooling only recycles storage, so
//! it cannot leak one sample's values into the next.

use crate::campaign::{
    load_checkpoint, reap_orphan_tmp, save_checkpoint, CampaignConfig, CampaignFingerprint,
    CheckpointError, SampleRecord,
};
use crate::montecarlo::{resolve_threads, MonteCarloResult, RecoveryPolicy, SampleStatus};
use crate::shard::{run_sharded, ShardConfig};
use std::fmt::{self, Display};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// How a run executes: every value a caller can set besides the samples
/// and the evaluator.
#[derive(Debug, Clone, Default)]
pub struct RunSpec {
    /// Sample workers; `0` resolves via [`resolve_threads`]
    /// (`LINVAR_THREADS`, then available cores). One worker evaluates
    /// inline on the calling thread. Shards run one after another, each
    /// with this many workers.
    pub threads: usize,
    /// Per-sample attempt budget. `fail_fast` truncates the run at the
    /// lowest failing sample index; sharded runs ignore it.
    pub policy: RecoveryPolicy,
    /// Checkpoint, resume, deadline, watchdog, sample budget and cancel.
    /// In a sharded run `checkpoint` and `resume` are path prefixes each
    /// shard extends, and `deadline` and `sample_budget` bound the whole
    /// run.
    pub campaign: CampaignConfig,
    /// Split the run into contiguous shards, walked in order (or run
    /// only one of them).
    pub shards: Option<ShardConfig>,
}

impl RunSpec {
    /// One attempt per sample, failures quarantined, no persistence —
    /// the plain Monte-Carlo run.
    pub fn plain(threads: usize) -> RunSpec {
        RunSpec {
            threads,
            policy: RecoveryPolicy {
                max_retries: 0,
                allow_fallback: false,
                fail_fast: false,
            },
            ..RunSpec::default()
        }
    }

    /// A durable campaign: `threads` workers under `policy`, with
    /// `campaign` as the knobs. `fail_fast` is cleared — a campaign's
    /// answer to a failing sample is quarantine-and-checkpoint, not
    /// truncation — so callers keep the policy as given in the run's
    /// fingerprint, and existing snapshots still resume.
    pub fn durable(threads: usize, policy: RecoveryPolicy, campaign: &CampaignConfig) -> RunSpec {
        RunSpec {
            threads,
            policy: RecoveryPolicy {
                fail_fast: false,
                ..policy
            },
            campaign: campaign.clone(),
            shards: None,
        }
    }
}

/// Why a run could not start or finish.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// The run is unusable as specified: the fingerprint disagrees with
    /// the sample count, or the shard plan is invalid.
    Plan {
        /// What was wrong.
        reason: String,
    },
    /// A checkpoint could not be loaded, validated or written.
    Checkpoint(CheckpointError),
}

impl Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Plan { reason } => write!(f, "run plan error: {reason}"),
            RunError::Checkpoint(e) => write!(f, "checkpoint error: {e}"),
        }
    }
}

impl std::error::Error for RunError {}

impl From<CheckpointError> for RunError {
    fn from(e: CheckpointError) -> Self {
        RunError::Checkpoint(e)
    }
}

/// The evaluator as the executor sees it: diagnostics already rendered.
pub(crate) type Eval<'a, S> = dyn Fn(&S, usize) -> Result<(f64, SampleStatus), String> + Sync + 'a;

/// Evaluates `f` on every sample as `spec` directs and merges the
/// outcomes in sample-index order.
///
/// `f(sample, attempt)` must be a deterministic pure function: attempt 0
/// is the fast path, attempts `1..=max_retries` the recovery rungs, and
/// (with `allow_fallback`) the last attempt the reduced-fidelity
/// fallback. It reports the status it earned; the executor floors it by
/// the attempt that served the sample. Panics are contained per attempt
/// and recorded as `"panic: …"` diagnostics.
///
/// `fingerprint` identifies the run in its snapshots: its `n_samples`
/// must equal `samples.len()`, and a resume refuses any snapshot whose
/// seed, sample count, policy or model disagree.
///
/// # Errors
///
/// [`RunError::Plan`] for a sample-count or shard-plan problem;
/// [`RunError::Checkpoint`] when a resume snapshot is rejected or the
/// final snapshot cannot be written. Failed samples and truncation are
/// not errors: they are reported in the result.
pub fn execute<S, E>(
    samples: &[S],
    spec: &RunSpec,
    fingerprint: &CampaignFingerprint,
    f: impl Fn(&S, usize) -> Result<(f64, SampleStatus), E> + Sync,
) -> Result<MonteCarloResult, RunError>
where
    S: Sync,
    E: Display,
{
    if fingerprint.n_samples != samples.len() {
        return Err(RunError::Plan {
            reason: format!(
                "fingerprint says {} samples but {} were provided",
                fingerprint.n_samples,
                samples.len()
            ),
        });
    }
    let f = |s: &S, attempt: usize| f(s, attempt).map_err(|e| e.to_string());
    match spec.shards {
        Some(cfg) => run_sharded(samples, spec, cfg, fingerprint, &f),
        None => Ok(run_range(
            samples,
            spec.threads,
            spec.policy,
            &spec.campaign,
            fingerprint,
            &f,
        )?
        .result()),
    }
}

/// What one pass of the worker pool (or a walk over shards) left behind.
#[derive(Default)]
pub(crate) struct Ran {
    /// Per-index outcomes; `None` = not evaluated (truncated).
    records: Vec<Option<SampleRecord>>,
    /// Fail-fast cut: the lowest failing index, beyond which nothing is kept.
    truncated_at: Option<usize>,
    /// Records evaluated in this run (the rest of the completed ones
    /// were restored from a resume snapshot).
    pub(crate) evaluated: usize,
    /// Snapshots written (periodic + final).
    checkpoints_written: usize,
}

impl Ran {
    /// Appends the next shard's pass; its records follow the ones held.
    pub(crate) fn append(&mut self, shard: Ran) {
        self.records.extend(shard.records);
        self.evaluated += shard.evaluated;
        self.checkpoints_written += shard.checkpoints_written;
    }

    /// Merges the records, recording the `mc.*` counters.
    pub(crate) fn result(&self) -> MonteCarloResult {
        let mut res = MonteCarloResult::merge(&self.records);
        res.truncated_at = self.truncated_at;
        res.resumed = res.completed - self.evaluated;
        res.evaluated = self.evaluated;
        res.checkpoints_written = self.checkpoints_written;
        res
    }
}

struct PoolState {
    records: Vec<Option<SampleRecord>>,
    since_snapshot: usize,
}

/// The worker pool: resumes, evaluates every pending index under the
/// attempt ladder until done or stopped (deadline, cancel, budget,
/// fail-fast), writes periodic and final snapshots.
pub(crate) fn run_range<S: Sync>(
    samples: &[S],
    threads: usize,
    policy: RecoveryPolicy,
    config: &CampaignConfig,
    fingerprint: &CampaignFingerprint,
    f: &Eval<'_, S>,
) -> Result<Ran, CheckpointError> {
    let start = Instant::now();
    let n = samples.len();
    let mut records: Vec<Option<SampleRecord>> = vec![None; n];
    if let Some(resume_path) = &config.resume {
        // A crash between creating the staging file and the rename
        // leaves an orphan next to the snapshot; the resume boundary is
        // the one place no writer can be active.
        reap_orphan_tmp(resume_path);
        if let Some(ck_path) = config.checkpoint.as_ref().filter(|p| *p != resume_path) {
            reap_orphan_tmp(ck_path);
        }
        records = load_checkpoint(resume_path, fingerprint)?.outcomes;
    }

    let pending: Vec<usize> = (0..n).filter(|&i| records[i].is_none()).collect();
    // A deadline past what `Instant` can represent never expires.
    let deadline = config.deadline.and_then(|d| start.checked_add(d));
    let budget = config.sample_budget;
    let every = if config.checkpoint_every == 0 {
        32
    } else {
        config.checkpoint_every
    };
    let cursor = AtomicUsize::new(0);
    let started = AtomicUsize::new(0);
    // Smallest failing index seen; only decreases, so a stale read can
    // delay the stop but never skip work at or below the final cut.
    let min_failed = AtomicUsize::new(usize::MAX);
    let snapshots = AtomicUsize::new(0);
    let state = Mutex::new(PoolState {
        records,
        since_snapshot: 0,
    });
    // Serializes snapshot writes (never held while evaluating).
    let write_gate = Mutex::new(());

    let work = || loop {
        if deadline.is_some_and(|dl| Instant::now() >= dl)
            || config
                .cancel
                .as_ref()
                .is_some_and(|c| c.load(Ordering::Relaxed))
        {
            break;
        }
        if budget.is_some_and(|b| started.fetch_add(1, Ordering::Relaxed) >= b) {
            break;
        }
        let pos = cursor.fetch_add(1, Ordering::Relaxed);
        let Some(&idx) = pending.get(pos) else { break };
        // Claims are handed out in ascending index order, so once one is
        // beyond the cut every later one is too.
        if policy.fail_fast && idx > min_failed.load(Ordering::Relaxed) {
            break;
        }
        let rec = evaluate_sample(f, &samples[idx], policy, config.sample_timeout);
        if policy.fail_fast && rec.status == SampleStatus::Failed {
            min_failed.fetch_min(idx, Ordering::Relaxed);
        }
        let snapshot = {
            let mut st = state.lock().expect("pool state lock");
            st.records[idx] = Some(rec);
            st.since_snapshot += 1;
            if config.checkpoint.is_some() && st.since_snapshot >= every {
                st.since_snapshot = 0;
                Some(st.records.clone())
            } else {
                None
            }
        };
        if let (Some(snap), Some(path)) = (snapshot, &config.checkpoint) {
            // Periodic snapshots are best-effort: a failed write must not
            // kill the run it protects. The final write is authoritative.
            let _gate = write_gate.lock().expect("checkpoint write gate");
            if save_checkpoint(path, fingerprint, &snap).is_ok() {
                snapshots.fetch_add(1, Ordering::Relaxed);
            }
        }
    };

    if !pending.is_empty() && budget != Some(0) {
        let workers = resolve_threads(threads).min(pending.len());
        if workers <= 1 {
            work();
            linvar_metrics::flush_local();
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..workers)
                    .map(|_| {
                        scope.spawn(|| {
                            // Merge this worker's phase metrics on every
                            // exit path before it is joined.
                            let _flush = linvar_metrics::flush_on_drop();
                            work();
                        })
                    })
                    .collect();
                // Join the OS threads, not only their closures as the
                // scope's own wait does: a thread that is still exiting
                // holds its malloc arena, the next campaign's workers then
                // open fresh ones, and a run's peak memory would depend on
                // thread timing.
                let joined: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
                if let Some(payload) = joined.into_iter().find_map(Result::err) {
                    std::panic::resume_unwind(payload);
                }
            });
        }
    }

    let mut records = state.into_inner().expect("workers joined").records;
    // Deterministic fail-fast cut: everything at or below the lowest
    // failing index was evaluated; everything beyond it is dropped, so
    // the output never depends on how far other workers got.
    let truncated_at = if policy.fail_fast {
        records
            .iter()
            .position(|r| r.as_ref().is_some_and(|r| r.status == SampleStatus::Failed))
    } else {
        None
    };
    if let Some(cut) = truncated_at {
        records[cut + 1..].iter_mut().for_each(|r| *r = None);
    }
    let evaluated = pending.iter().filter(|&&i| records[i].is_some()).count();
    if let Some(path) = &config.checkpoint {
        save_checkpoint(path, fingerprint, &records)?;
        snapshots.fetch_add(1, Ordering::Relaxed);
    }
    Ok(Ran {
        records,
        truncated_at,
        evaluated,
        checkpoints_written: snapshots.into_inner(),
    })
}

/// The attempt ladder for one sample: walks the policy's budget with
/// per-attempt panic containment and the optional soft watchdog, and
/// floors the status by the effort spent (retry ⇒ at least `Recovered`,
/// fallback ⇒ at least `Degraded`, watchdog overrun ⇒ `TimedOut`).
fn evaluate_sample<S>(
    f: &Eval<'_, S>,
    s: &S,
    policy: RecoveryPolicy,
    soft_timeout: Option<Duration>,
) -> SampleRecord {
    let budget = policy.attempt_budget();
    let mut last: Option<String> = None;
    let mut timed_out = false;
    for attempt in 0..budget {
        let t0 = soft_timeout.map(|_| Instant::now());
        let res = match catch_unwind(AssertUnwindSafe(|| f(s, attempt))) {
            Ok(res) => res,
            Err(payload) => Err(format!("panic: {}", panic_message(payload.as_ref()))),
        };
        let overran = t0
            .zip(soft_timeout)
            .is_some_and(|(t0, lim)| t0.elapsed() > lim);
        timed_out |= overran;
        match res {
            Ok((v, status)) => {
                let floor = if policy.is_fallback_attempt(attempt) {
                    SampleStatus::Degraded
                } else if attempt > 0 {
                    SampleStatus::Recovered
                } else {
                    SampleStatus::Clean
                };
                let mut status = status.max(floor);
                if timed_out {
                    status = status.max(SampleStatus::TimedOut);
                }
                return SampleRecord {
                    status,
                    attempts: attempt + 1,
                    outcome: Ok(v),
                };
            }
            Err(msg) if overran => {
                last = Some(format!("soft timeout overrun on attempt {attempt}: {msg}"));
            }
            Err(msg) => last = Some(msg),
        }
    }
    SampleRecord {
        status: SampleStatus::Failed,
        attempts: budget,
        outcome: Err(last.unwrap_or_else(|| "empty attempt budget".to_string())),
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "unknown panic payload".to_string())
}
