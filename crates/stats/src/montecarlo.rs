//! The sample-level vocabulary of the executor — statuses, health,
//! recovery policy and the merged [`MonteCarloResult`] — plus the plain
//! parallel Monte-Carlo front door [`monte_carlo_par`].
//!
//! Every run, plain or durable or sharded, goes through
//! [`crate::execute`]; see [`crate::executor`] for the determinism
//! contract.

use crate::campaign::{CampaignFingerprint, CampaignVerdict, SampleRecord};
use crate::executor::{execute, RunSpec};
use crate::shard::ShardVerdict;
use crate::summary::Summary;
use std::fmt::Display;

/// How a sample was ultimately served. Ordered worst-last so
/// [`Ord::max`] implements "floor the status by how hard we had to try".
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SampleStatus {
    /// First attempt, fast path, no assistance.
    Clean,
    /// A retry rung served the sample at full fidelity.
    Recovered,
    /// A fallback rung served the sample at reduced fidelity.
    Degraded,
    /// The sample was served, but an attempt overran the campaign
    /// watchdog's soft per-sample timeout (see
    /// [`crate::campaign::CampaignConfig::sample_timeout`]).
    TimedOut,
    /// Every attempt in the budget failed.
    Failed,
}

/// Per-sample recovery record, in sample-index order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SampleHealth {
    /// Sample index.
    pub index: usize,
    /// Final status of the sample.
    pub status: SampleStatus,
    /// Attempts spent (1 = clean first try).
    pub attempts: usize,
}

/// Run-level health summary: how many samples landed in each status.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HealthSummary {
    /// Samples served on the first attempt.
    pub n_clean: usize,
    /// Samples served by a retry.
    pub n_recovered: usize,
    /// Samples served by a fallback.
    pub n_degraded: usize,
    /// Samples that overran the per-sample watchdog's soft timeout.
    pub n_timed_out: usize,
    /// Samples lost after exhausting the attempt budget.
    pub n_failed: usize,
}

impl HealthSummary {
    pub(crate) fn count(&mut self, status: SampleStatus) {
        match status {
            SampleStatus::Clean => self.n_clean += 1,
            SampleStatus::Recovered => self.n_recovered += 1,
            SampleStatus::Degraded => self.n_degraded += 1,
            SampleStatus::TimedOut => self.n_timed_out += 1,
            SampleStatus::Failed => self.n_failed += 1,
        }
    }

    /// Total samples accounted for.
    pub fn total(&self) -> usize {
        self.n_clean + self.n_recovered + self.n_degraded + self.n_timed_out + self.n_failed
    }

    /// `true` when every sample was served on its first attempt.
    pub fn all_clean(&self) -> bool {
        self.n_recovered == 0 && self.n_degraded == 0 && self.n_timed_out == 0 && self.n_failed == 0
    }
}

/// How the Monte-Carlo driver spends effort on failing samples.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryPolicy {
    /// Retry attempts after the fast path (full-fidelity rungs).
    pub max_retries: usize,
    /// Grant one final reduced-fidelity fallback attempt.
    pub allow_fallback: bool,
    /// Abort the run at the first sample that exhausts its budget
    /// (deterministically: the run is truncated at the smallest failing
    /// sample index, regardless of thread count). `false` quarantines
    /// failures and keeps going.
    pub fail_fast: bool,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            max_retries: 2,
            allow_fallback: true,
            fail_fast: false,
        }
    }
}

impl RecoveryPolicy {
    /// No retries, no fallback, stop at the first failure.
    pub fn strict() -> Self {
        RecoveryPolicy {
            max_retries: 0,
            allow_fallback: false,
            fail_fast: true,
        }
    }

    /// Total attempts a sample may consume: the fast path, the retries,
    /// and the optional fallback.
    pub fn attempt_budget(&self) -> usize {
        1 + self.max_retries + usize::from(self.allow_fallback)
    }

    /// Is `attempt` (0-based) the reduced-fidelity fallback attempt?
    pub fn is_fallback_attempt(&self, attempt: usize) -> bool {
        self.allow_fallback && attempt + 1 == self.attempt_budget()
    }
}

/// Result of any run of the executor: plain, durable or sharded.
///
/// Statistics cover every *completed* sample — restored from a resume
/// snapshot or evaluated in this run — merged in sample-index order,
/// exactly as an uninterrupted single-process run would produce them.
#[derive(Debug, Clone)]
pub struct MonteCarloResult {
    /// Value per successful sample, in sample-index order.
    pub values: Vec<f64>,
    /// Summary statistics of the values.
    pub summary: Summary,
    /// Number of samples whose evaluation failed.
    pub failures: usize,
    /// Indices of the failed samples, ascending.
    pub failed_indices: Vec<usize>,
    /// Diagnostic of the failure with the smallest sample index (panics in
    /// the evaluator are captured as `"panic: …"`). `None` when every
    /// sample succeeded.
    pub first_error: Option<String>,
    /// Per-sample status and attempt count of the completed samples, in
    /// sample-index order.
    pub sample_health: Vec<SampleHealth>,
    /// Run-level tally of `sample_health`.
    pub health: HealthSummary,
    /// Index of the failing sample a fail-fast policy stopped at; samples
    /// beyond it were not kept. `None` otherwise.
    pub truncated_at: Option<usize>,
    /// Complete, or truncated (deadline, budget, cancel, fail-fast) with
    /// the remainder resumable from the final snapshot.
    pub verdict: CampaignVerdict,
    /// Completed samples (resumed + evaluated this run).
    pub completed: usize,
    /// Samples restored from snapshots instead of evaluated.
    pub resumed: usize,
    /// Samples evaluated in this run; in a sharded run, summed over every
    /// shard attempt, including attempts that later died.
    pub evaluated: usize,
    /// Snapshots written in this run (periodic + final, every shard).
    pub checkpoints_written: usize,
    /// Per-shard verdicts of a sharded run, in shard order; empty
    /// otherwise.
    pub shards: Vec<ShardVerdict>,
}

impl MonteCarloResult {
    /// The index-ordered merge: folds per-index records (`None` = not
    /// completed) into values, failure bookkeeping and health.
    ///
    /// With `count`, the `mc.*` counters are recorded here — at the merge
    /// point, over exactly the samples the merged output covers — and
    /// nowhere else. The shard supervisor's final merge passes `false`:
    /// each shard attempt already counted its own samples.
    pub(crate) fn merge(records: &[Option<SampleRecord>], count: bool) -> MonteCarloResult {
        let mut values = Vec::with_capacity(records.len());
        let mut failed_indices = Vec::new();
        let mut first_error = None;
        let mut sample_health = Vec::with_capacity(records.len());
        let mut health = HealthSummary::default();
        for (idx, rec) in records.iter().enumerate() {
            let Some(rec) = rec else { continue };
            if count {
                linvar_metrics::incr(linvar_metrics::Counter::McSamplesCompleted);
                if rec.outcome.is_err() {
                    linvar_metrics::incr(linvar_metrics::Counter::McSamplesFailed);
                }
                linvar_metrics::count(
                    linvar_metrics::Counter::McSampleRetries,
                    rec.attempts.saturating_sub(1) as u64,
                );
            }
            health.count(rec.status);
            sample_health.push(SampleHealth {
                index: idx,
                status: rec.status,
                attempts: rec.attempts,
            });
            match &rec.outcome {
                Ok(v) => values.push(*v),
                Err(msg) => {
                    if first_error.is_none() {
                        first_error = Some(msg.clone());
                    }
                    failed_indices.push(idx);
                }
            }
        }
        let completed = sample_health.len();
        let remaining = records.len() - completed;
        MonteCarloResult {
            summary: Summary::of(&values),
            values,
            failures: failed_indices.len(),
            failed_indices,
            first_error,
            sample_health,
            health,
            truncated_at: None,
            verdict: if remaining == 0 {
                CampaignVerdict::Complete
            } else {
                CampaignVerdict::Truncated { remaining }
            },
            completed,
            resumed: 0,
            evaluated: completed,
            checkpoints_written: 0,
            shards: Vec::new(),
        }
    }
}

/// Resolves the worker count of a run (`RunSpec::threads`).
///
/// Precedence: an explicit `requested > 0` wins; otherwise the
/// `LINVAR_THREADS` environment variable (a positive integer); otherwise
/// the machine's available parallelism.
///
/// An invalid `LINVAR_THREADS` value — `0`, negative, non-numeric, or
/// non-unicode — is **not** silently ignored: a one-line warning is
/// printed to stderr and the fallback (available cores) is used, so a
/// typo in a job script degrades loudly instead of mysteriously changing
/// the worker count.
pub fn resolve_threads(requested: usize) -> usize {
    if requested > 0 {
        return requested;
    }
    if let Some(n) = crate::env_knob_usize("LINVAR_THREADS", "available cores").valid() {
        return n;
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Plain parallel Monte-Carlo: evaluates `f` once per sample across
/// `threads` workers (`0` = auto, one = inline on the calling thread)
/// and summarizes the results — [`crate::execute`] with
/// [`RunSpec::plain`].
///
/// Failed samples (including panics, captured as `"panic: …"`) are
/// quarantined and counted, not fatal: a statistical analysis should
/// report partial results with diagnostics rather than lose an hour of
/// work to one corner. The output is bitwise-identical at any thread
/// count.
pub fn monte_carlo_par<S, E>(
    samples: &[S],
    threads: usize,
    f: impl Fn(&S) -> Result<f64, E> + Sync,
) -> MonteCarloResult
where
    S: Sync,
    E: Display,
{
    let spec = RunSpec::plain(threads);
    let fingerprint = CampaignFingerprint {
        master_seed: 0,
        n_samples: samples.len(),
        policy: spec.policy,
        model: 0,
    };
    execute(samples, &spec, &fingerprint, |s, _attempt| {
        f(s).map(|v| (v, SampleStatus::Clean))
    })
    .expect("a plain run has no snapshot or shard plan that can fail")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampling::{lhs_normal, rng_from_seed};

    /// A policy run through the executor (no persistence, no shards).
    fn policy_run<S: Sync>(
        samples: &[S],
        threads: usize,
        policy: RecoveryPolicy,
        f: impl Fn(&S, usize) -> Result<(f64, SampleStatus), String> + Sync,
    ) -> MonteCarloResult {
        let spec = RunSpec {
            threads,
            policy,
            ..RunSpec::default()
        };
        let fp = CampaignFingerprint {
            master_seed: 0,
            n_samples: samples.len(),
            policy,
            model: 0,
        };
        execute(samples, &spec, &fp, f).unwrap()
    }

    #[test]
    fn linear_function_of_normals() {
        // f(w) = 3 + 2·w0 − w1 with unit normals: mean 3, σ = √5.
        let mut rng = rng_from_seed(77);
        let samples = lhs_normal(&mut rng, 2000, 2, 1.0);
        let res = monte_carlo_par::<_, std::convert::Infallible>(&samples, 1, |w| {
            Ok(3.0 + 2.0 * w[0] - w[1])
        });
        assert_eq!(res.failures, 0);
        assert!((res.summary.mean - 3.0).abs() < 0.05);
        assert!((res.summary.std - 5.0_f64.sqrt()).abs() < 0.05);
    }

    #[test]
    fn failures_are_counted_not_fatal() {
        let samples: Vec<f64> = (0..10).map(|k| k as f64).collect();
        let res = monte_carlo_par(&samples, 1, |&x| {
            if x < 3.0 {
                Err("corner failed")
            } else {
                Ok(x)
            }
        });
        assert_eq!(res.failures, 3);
        assert_eq!(res.values.len(), 7);
        assert_eq!(res.summary.n, 7);
        assert_eq!(res.failed_indices, vec![0, 1, 2]);
        assert_eq!(res.first_error.as_deref(), Some("corner failed"));
    }

    #[test]
    fn empty_sample_set() {
        let res = monte_carlo_par::<f64, &str>(&[], 1, |_| Ok(0.0));
        assert_eq!(res.summary.n, 0);
        assert_eq!(res.failures, 0);
        assert!(res.first_error.is_none());
        let res = monte_carlo_par::<f64, &str>(&[], 4, |_| Ok(0.0));
        assert_eq!(res.summary.n, 0);
        assert_eq!(res.failures, 0);
    }

    #[test]
    fn parallel_matches_serial_bitwise() {
        let mut rng = rng_from_seed(13);
        let samples = lhs_normal(&mut rng, 500, 3, 1.0);
        let f = |w: &Vec<f64>| -> Result<f64, &'static str> {
            if w[0] > 1.8 {
                Err("tail corner rejected")
            } else {
                Ok((w[0] * 1.5 - w[1]).exp() + w[2])
            }
        };
        let serial = monte_carlo_par(&samples, 1, f);
        for threads in [2, 3, 8] {
            let par = monte_carlo_par(&samples, threads, f);
            assert_eq!(par.values, serial.values, "values at {threads} threads");
            assert_eq!(par.failed_indices, serial.failed_indices);
            assert_eq!(par.first_error, serial.first_error);
            assert_eq!(par.summary.mean.to_bits(), serial.summary.mean.to_bits());
            assert_eq!(par.summary.std.to_bits(), serial.summary.std.to_bits());
        }
    }

    #[test]
    fn parallel_contains_panics_as_failures() {
        let samples: Vec<usize> = (0..40).collect();
        let res = monte_carlo_par(&samples, 4, |&k| -> Result<f64, &str> {
            if k == 17 {
                panic!("evaluator exploded on sample {k}");
            }
            Ok(k as f64)
        });
        assert_eq!(res.failures, 1);
        assert_eq!(res.failed_indices, vec![17]);
        assert_eq!(res.values.len(), 39);
        let msg = res.first_error.expect("diagnostic recorded");
        assert!(msg.contains("panic"), "diagnostic {msg:?}");
        assert!(msg.contains("17"), "diagnostic {msg:?}");
    }

    #[test]
    fn first_error_is_lowest_index_regardless_of_schedule() {
        let samples: Vec<usize> = (0..64).collect();
        for threads in [2, 5, 8] {
            let res = monte_carlo_par(&samples, threads, |&k| {
                if k % 10 == 3 {
                    Err(format!("failed at {k}"))
                } else {
                    Ok(k as f64)
                }
            });
            assert_eq!(res.first_error.as_deref(), Some("failed at 3"));
            assert_eq!(res.failed_indices, vec![3, 13, 23, 33, 43, 53, 63]);
        }
    }

    #[test]
    fn policy_floors_statuses_by_attempt() {
        // Samples: value k. k % 4 == 1 fails once then recovers; k % 4 == 2
        // fails until the fallback attempt; k % 4 == 3 always fails.
        let samples: Vec<usize> = (0..16).collect();
        let policy = RecoveryPolicy {
            max_retries: 1,
            allow_fallback: true,
            fail_fast: false,
        };
        assert_eq!(policy.attempt_budget(), 3);
        let f = |&k: &usize, attempt: usize| -> Result<(f64, SampleStatus), String> {
            match k % 4 {
                0 => Ok((k as f64, SampleStatus::Clean)),
                1 if attempt >= 1 => Ok((k as f64, SampleStatus::Clean)),
                2 if attempt >= 2 => Ok((k as f64, SampleStatus::Clean)),
                _ => Err(format!("sample {k} attempt {attempt}")),
            }
        };
        let res = policy_run(&samples, 1, policy, f);
        assert_eq!(res.health.n_clean, 4);
        assert_eq!(res.health.n_recovered, 4);
        assert_eq!(res.health.n_degraded, 4);
        assert_eq!(res.health.n_failed, 4);
        assert_eq!(res.failures, 4);
        // Per-sample attempts: clean 1, recovered 2, degraded 3, failed 3.
        assert_eq!(res.sample_health[0].attempts, 1);
        assert_eq!(res.sample_health[1].status, SampleStatus::Recovered);
        assert_eq!(res.sample_health[1].attempts, 2);
        assert_eq!(res.sample_health[2].status, SampleStatus::Degraded);
        assert_eq!(res.sample_health[2].attempts, 3);
        assert_eq!(res.sample_health[3].status, SampleStatus::Failed);
        assert_eq!(res.sample_health[3].attempts, 3);
        assert!(res.truncated_at.is_none());
    }

    #[test]
    fn policy_parallel_matches_serial_bitwise() {
        // Injected-failure schedule: deterministic function of (index,
        // attempt). The merged result must be bitwise identical at 1, 2
        // and 8 threads, including the health bookkeeping.
        let mut rng = rng_from_seed(99);
        let samples = lhs_normal(&mut rng, 300, 2, 1.0);
        let policy = RecoveryPolicy::default();
        let f = |w: &Vec<f64>, attempt: usize| -> Result<(f64, SampleStatus), String> {
            // Tail corners need one retry; extreme corners need fallback.
            let severity = w[0].abs() + w[1].abs();
            let needed = if severity > 3.5 {
                policy.attempt_budget() - 1
            } else if severity > 2.5 {
                1
            } else {
                0
            };
            if attempt < needed {
                Err(format!("needs attempt {needed}"))
            } else {
                Ok(((w[0] - 0.3 * w[1]).exp(), SampleStatus::Clean))
            }
        };
        let serial = policy_run(&samples, 1, policy, f);
        assert!(serial.health.n_recovered > 0, "schedule exercises retries");
        for threads in [2, 8] {
            let par = policy_run(&samples, threads, policy, f);
            assert_eq!(par.values, serial.values, "values at {threads} threads");
            assert_eq!(par.sample_health, serial.sample_health);
            assert_eq!(par.health, serial.health);
            assert_eq!(par.summary.mean.to_bits(), serial.summary.mean.to_bits());
            assert_eq!(par.truncated_at, serial.truncated_at);
        }
    }

    #[test]
    fn fail_fast_truncates_deterministically() {
        let samples: Vec<usize> = (0..200).collect();
        let policy = RecoveryPolicy {
            max_retries: 0,
            allow_fallback: false,
            fail_fast: true,
        };
        let f = |&k: &usize, _attempt: usize| -> Result<(f64, SampleStatus), String> {
            if k == 73 || k == 150 {
                Err(format!("hard failure at {k}"))
            } else {
                Ok((k as f64, SampleStatus::Clean))
            }
        };
        let serial = policy_run(&samples, 1, policy, f);
        assert_eq!(serial.truncated_at, Some(73));
        assert_eq!(serial.values.len(), 73);
        assert_eq!(serial.failed_indices, vec![73]);
        for threads in [2, 8] {
            let par = policy_run(&samples, threads, policy, f);
            assert_eq!(par.truncated_at, Some(73), "at {threads} threads");
            assert_eq!(par.values, serial.values);
            assert_eq!(par.failed_indices, serial.failed_indices);
            assert_eq!(par.sample_health, serial.sample_health);
            assert_eq!(par.first_error, serial.first_error);
        }
    }

    #[test]
    fn panicking_attempts_consume_budget_then_quarantine() {
        let samples: Vec<usize> = (0..20).collect();
        let policy = RecoveryPolicy {
            max_retries: 1,
            allow_fallback: true,
            fail_fast: false,
        };
        let res = policy_run(
            &samples,
            4,
            policy,
            |&k, attempt| -> Result<(f64, SampleStatus), String> {
                if k == 7 {
                    panic!("evaluator exploded on sample {k} attempt {attempt}");
                }
                if k == 11 && attempt == 0 {
                    panic!("transient panic");
                }
                Ok((k as f64, SampleStatus::Clean))
            },
        );
        // Sample 7 panics on every attempt: failed, budget consumed.
        assert_eq!(res.failed_indices, vec![7]);
        assert_eq!(res.sample_health[7].attempts, policy.attempt_budget());
        assert!(res.first_error.as_deref().unwrap().contains("panic"));
        // Sample 11 panics once, then recovers.
        assert_eq!(res.sample_health[11].status, SampleStatus::Recovered);
        assert_eq!(res.health.n_failed, 1);
        assert_eq!(res.health.n_recovered, 1);
        assert_eq!(res.health.n_clean, 18);
    }

    #[test]
    fn strict_policy_is_single_attempt() {
        let policy = RecoveryPolicy::strict();
        assert_eq!(policy.attempt_budget(), 1);
        assert!(!policy.is_fallback_attempt(0));
        let samples = [1.0_f64, 2.0, 3.0];
        let res = policy_run(
            &samples,
            1,
            policy,
            |&x, _| -> Result<(f64, SampleStatus), String> { Ok((x, SampleStatus::Clean)) },
        );
        assert!(res.health.all_clean());
        assert_eq!(res.health.total(), 3);
    }

    #[test]
    fn plain_runs_report_clean_health() {
        let samples: Vec<f64> = (0..6).map(|k| k as f64).collect();
        let res = monte_carlo_par(
            &samples,
            1,
            |&x| if x < 2.0 { Err("corner") } else { Ok(x) },
        );
        assert_eq!(res.health.n_clean, 4);
        assert_eq!(res.health.n_failed, 2);
        assert!(res.truncated_at.is_none());
        assert_eq!(res.sample_health.len(), 6);
    }

    #[test]
    fn thread_resolution_prefers_explicit_request() {
        assert_eq!(resolve_threads(3), 3);
        assert!(resolve_threads(0) >= 1);
    }

    #[test]
    fn invalid_linvar_threads_falls_back_loudly() {
        // Env manipulation is process-global; keep every env-writing
        // assertion inside this one test. Concurrent tests only ever
        // *read* the variable through `resolve_threads(0)`, whose
        // assertions hold for any value this test sets.
        let prev = std::env::var_os("LINVAR_THREADS");
        for bad in ["0", "-2", "lots", "", "4.5"] {
            std::env::set_var("LINVAR_THREADS", bad);
            assert!(resolve_threads(0) >= 1, "fallback for {bad:?}");
            assert_eq!(resolve_threads(5), 5, "explicit request wins over {bad:?}");
        }
        std::env::set_var("LINVAR_THREADS", " 3 ");
        assert_eq!(resolve_threads(0), 3, "valid value (whitespace-trimmed)");
        match prev {
            Some(v) => std::env::set_var("LINVAR_THREADS", v),
            None => std::env::remove_var("LINVAR_THREADS"),
        }
    }

    #[test]
    fn oversubscribed_threads_are_harmless() {
        let samples: Vec<f64> = (0..5).map(|k| k as f64).collect();
        let res = monte_carlo_par::<_, &str>(&samples, 64, |&x| Ok(2.0 * x));
        assert_eq!(res.values, vec![0.0, 2.0, 4.0, 6.0, 8.0]);
    }
}
