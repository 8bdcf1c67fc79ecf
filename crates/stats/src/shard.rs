//! Sharded runs: one walk over a [`ShardPlan`] (see DESIGN.md, "Sharding
//! protocol & merge invariants").
//!
//! A run whose [`crate::RunSpec`] carries a [`ShardConfig`] has its
//! sample range split into contiguous shards. Each shard runs through
//! the executor's worker pool under its own fingerprint and snapshot,
//! one after another — or, with [`ShardConfig::shard_index`], only that
//! shard, so one campaign can span processes whose snapshots a later
//! resumed run merges.
//!
//! The merge contract: every sample outcome is a pure function of
//! `(sample, attempt)`, and the shard records, concatenated in plan
//! order, go through the executor's one index-ordered merge, so the
//! merged result is **bitwise-identical to an unsharded run at any shard
//! count and any thread count**.

use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::campaign::{fingerprint_words, CampaignConfig, CampaignFingerprint};
use crate::executor::{run_range, Eval, Ran, RunError, RunSpec};
use crate::montecarlo::{MonteCarloResult, RecoveryPolicy};

/// Contiguous near-equal split of `n_samples` into shards. The first
/// `n_samples % n_shards` shards hold one extra sample, so the plan is
/// a pure function of `(n_samples, n_shards)` — every participant (the
/// per-shard worker processes, the merging run) derives the same ranges
/// independently. Ranges are computed, not stored, so a plan costs
/// nothing at any shard count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardPlan {
    n_samples: usize,
    n_shards: usize,
}

impl ShardPlan {
    /// Splits `n_samples` into `n_shards` contiguous ranges.
    pub fn new(n_samples: usize, n_shards: usize) -> Result<Self, RunError> {
        if n_shards == 0 {
            return Err(RunError::Plan {
                reason: "shard count must be at least 1".into(),
            });
        }
        Ok(Self {
            n_samples,
            n_shards,
        })
    }

    /// Number of shards in the plan.
    pub fn n_shards(&self) -> usize {
        self.n_shards
    }

    /// Half-open global sample range `[start, end)` of shard `k`. Shards
    /// at and beyond `min(n_shards, n_samples)` are empty.
    ///
    /// # Panics
    ///
    /// When `k` is not a shard of the plan.
    pub fn range(&self, k: usize) -> (usize, usize) {
        assert!(
            k < self.n_shards,
            "shard {k} of a {}-shard plan",
            self.n_shards
        );
        let base = self.n_samples / self.n_shards;
        let extra = self.n_samples % self.n_shards;
        let start = k * base + k.min(extra);
        (start, start + base + usize::from(k < extra))
    }
}

/// How a run is sharded. Every other knob — snapshot and resume
/// prefixes, snapshot interval, deadline, budget — is the run's
/// [`CampaignConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardConfig {
    /// How many shards the plan splits the samples into.
    pub n_shards: usize,
    /// Process-per-shard mode: run only this shard of the plan and leave
    /// its snapshot under the checkpoint prefix as the output. A later
    /// run whose resume prefix names the same snapshots merges them
    /// without re-evaluating anything.
    pub shard_index: Option<usize>,
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

/// Runs the shards of `samples` that `config` selects — every non-empty
/// shard of the plan in order, or only `shard_index` — and merges their
/// records once.
///
/// `spec.campaign` shapes the whole walk: `checkpoint` and `resume` are
/// prefixes, so shard `k` writes `shard_checkpoint_path(checkpoint, k,
/// N)` and resumes from `shard_checkpoint_path(resume, k, N)` when that
/// file exists; `deadline` and `sample_budget` bound the run, so each
/// shard gets what the shards before it left. Each shard runs with
/// `spec.threads` workers. The policy's `fail_fast` is ignored: a
/// failed sample is quarantined, never a reason to stop the walk.
pub(crate) fn run_sharded<S: Sync>(
    samples: &[S],
    spec: &RunSpec,
    config: ShardConfig,
    fingerprint: &CampaignFingerprint,
    f: &Eval<'_, S>,
) -> Result<MonteCarloResult, RunError> {
    let plan = ShardPlan::new(samples.len(), config.n_shards)?;
    let n_shards = plan.n_shards();
    let campaign = &spec.campaign;
    let shards = match config.shard_index {
        None => 0..n_shards.min(samples.len()),
        Some(k) if k >= n_shards => {
            return Err(RunError::Plan {
                reason: format!("shard index {k} out of range (plan has {n_shards})"),
            })
        }
        Some(_) if campaign.checkpoint.is_none() => {
            return Err(RunError::Plan {
                reason: "a shard worker requires a checkpoint prefix (its snapshot is its output)"
                    .into(),
            })
        }
        Some(k) => k..k + 1,
    };
    let policy = RecoveryPolicy {
        fail_fast: false,
        ..spec.policy
    };
    let started = Instant::now();
    let mut walk = Ran::default();
    for k in shards {
        let (start, end) = plan.range(k);
        let at = |prefix: &PathBuf| shard_checkpoint_path(prefix, k, n_shards);
        let shard_config = CampaignConfig {
            checkpoint: campaign.checkpoint.as_ref().map(at),
            resume: campaign.resume.as_ref().map(at).filter(|p| p.exists()),
            deadline: campaign
                .deadline
                .map(|d| d.saturating_sub(started.elapsed())),
            sample_budget: campaign
                .sample_budget
                .map(|b| b.saturating_sub(walk.evaluated)),
            ..campaign.clone()
        };
        let shard_fp = shard_fingerprint(fingerprint, k, n_shards, start, end);
        let shard = run_range(
            &samples[start..end],
            spec.threads,
            policy,
            &shard_config,
            &shard_fp,
            f,
        )?;
        walk.append(shard);
    }
    Ok(walk.result())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{load_checkpoint, run_campaign, save_checkpoint, CheckpointError};
    use crate::executor::execute;
    use crate::montecarlo::SampleStatus;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A sharded run through the executor.
    fn sharded(
        samples: &[usize],
        threads: usize,
        shards: ShardConfig,
        campaign: CampaignConfig,
        fp: &CampaignFingerprint,
    ) -> Result<MonteCarloResult, RunError> {
        let spec = RunSpec {
            threads,
            campaign,
            shards: Some(shards),
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
        // The ranges are arithmetic: a huge plan allocates nothing.
        let huge = ShardPlan::new(10, usize::MAX).expect("plan");
        assert_eq!(huge.range(9), (9, 10));
        assert_eq!(huge.range(usize::MAX - 1), (10, 10));
        let tall = ShardPlan::new(usize::MAX, 3).expect("plan");
        assert_eq!(tall.range(2).1, usize::MAX);
    }

    #[test]
    fn first_error_is_lowest_global_index_not_lowest_per_shard() {
        // Two shards over 0..8: failures at global 3 (shard 0, local 3)
        // and global 5 (shard 1, local 1). A merge that picked the
        // lowest *local* index could report "boom at five"; the contract
        // is global order.
        let samples: Vec<usize> = (0..8).collect();
        let shards = ShardConfig {
            n_shards: 2,
            shard_index: None,
        };
        let res = sharded(&samples, 2, shards, CampaignConfig::default(), &base_fp(8))
            .expect("sharded run");
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
    fn oversharded_campaigns_visit_only_non_empty_shards() {
        let samples: Vec<usize> = (0..2).collect();
        let prefix = tmp_prefix("wide");
        let shards = ShardConfig {
            n_shards: 4,
            shard_index: None,
        };
        let campaign = CampaignConfig {
            checkpoint: Some(prefix.clone()),
            ..CampaignConfig::default()
        };
        let res = sharded(&samples, 1, shards, campaign, &base_fp(2)).expect("sharded run");
        assert_eq!(res.values.len(), 2);
        assert_eq!(
            res.checkpoints_written, 2,
            "one final snapshot per visited shard"
        );
        assert!(shard_checkpoint_path(&prefix, 1, 4).exists());
        assert!(!shard_checkpoint_path(&prefix, 2, 4).exists());
        cleanup(&prefix, 4);
    }

    #[test]
    fn worker_requires_checkpoint_prefix_and_valid_index() {
        let samples: Vec<usize> = (0..4).collect();
        let worker = |k| ShardConfig {
            n_shards: 2,
            shard_index: Some(k),
        };
        assert!(matches!(
            sharded(
                &samples,
                1,
                worker(0),
                CampaignConfig::default(),
                &base_fp(4)
            ),
            Err(RunError::Plan { .. })
        ));
        let prefix = tmp_prefix("worker");
        let with_ckpt = CampaignConfig {
            checkpoint: Some(prefix.clone()),
            ..CampaignConfig::default()
        };
        assert!(matches!(
            sharded(&samples, 1, worker(5), with_ckpt.clone(), &base_fp(4)),
            Err(RunError::Plan { .. })
        ));
        let res = sharded(&samples, 1, worker(1), with_ckpt, &base_fp(4)).expect("worker run");
        assert_eq!(res.values.len(), 1); // local samples 2,3 — 3 fails
        assert!(shard_checkpoint_path(&prefix, 1, 2).exists());
        assert!(!shard_checkpoint_path(&prefix, 0, 2).exists());
        cleanup(&prefix, 2);
    }
}
