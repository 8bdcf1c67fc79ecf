//! The durable job store: journal format, lifecycle state machine, and
//! the startup recovery scan.
//!
//! Every job owns two files inside the store directory:
//!
//! * `job-<id>.rec` — the **journal record**: identity (tenant, model,
//!   seed, n, policy, budget), current lifecycle state, and — once
//!   terminal — the result or error. Rewritten atomically (temp
//!   sibling + fsync + rename + directory fsync) on *every* state
//!   transition, with an FNV-1a checksum trailer — the checkpoint's
//!   own routines, `linvar_stats::campaign::{write_atomic, seal,
//!   read_sealed}` — so a crash at any instant leaves either the
//!   previous record or the complete new one.
//! * `job-<id>.ckpt` — the campaign checkpoint, written by the durable
//!   campaign driver itself while the job runs.
//!
//! The job id is a fingerprint of the submission (model fingerprint,
//! seed, n, policy, budget), which is what makes submission
//! **idempotent**: the same campaign submitted twice maps to the same
//! record file, so the server returns the existing job instead of
//! double-running it.
//!
//! **Recovery scan** ([`JobStore::recover`]): reap orphaned `*.tmp`
//! staging files (crash mid-write), quarantine unreadable records
//! (renamed to `.bad` — bit rot must not block restart), prevalidate
//! the checkpoint of every interrupted job against its fingerprint
//! (corrupt snapshots are deleted — costing a re-run, never a wrong
//! answer), and journal interrupted jobs back to [`JobState::Queued`]
//! for re-dispatch.

use linvar_metrics::Counter;
use linvar_stats::campaign::{
    escape, parse_policy, policy_line, read_sealed, seal, unescape, write_atomic,
};
use linvar_stats::{
    fingerprint_str, fingerprint_words, load_checkpoint, reap_tmp_in_dir, CampaignFingerprint,
    CheckpointError, RecoveryPolicy,
};
use std::path::{Path, PathBuf};

/// On-disk format tag, first line of every job record.
pub const JOB_FORMAT_VERSION: &str = "linvar-job-v1";

/// Largest sample count a job may request. A run holds one record per
/// sample in memory, so the submit handler and the journal loader both
/// refuse anything larger rather than let one request exhaust memory.
pub const MAX_JOB_SAMPLES: usize = 1 << 20;

/// Largest `max_retries` a job may request: keeps the per-sample attempt
/// budget small and far from integer overflow.
pub const MAX_JOB_RETRIES: usize = 64;

/// Lifecycle state of a job.
///
/// ```text
///            ┌────────────► Cancelled
///            │                  ▲
/// Queued ──► Running ──┬─► Done │
///    ▲          │      ├─► Failed
///    └──────────┘      └─► Truncated
///     (recovery scan)
/// ```
///
/// `Done`/`Failed`/`Cancelled`/`Truncated` are terminal. The one
/// backward edge — `Running → Queued` — is the restart recovery scan
/// re-queuing a job the previous process died while running; it never
/// happens inside a live process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum JobState {
    /// Journaled, waiting for a worker.
    Queued,
    /// A worker owns it.
    Running,
    /// Campaign complete; result recorded.
    Done,
    /// Campaign errored; diagnostic recorded.
    Failed,
    /// Cancelled by request (from queue or mid-run).
    Cancelled,
    /// Sample budget exhausted; partial result recorded, checkpoint
    /// kept for a future resubmission with a larger budget.
    Truncated,
}

impl JobState {
    /// Every state, in declaration order.
    pub const ALL: [JobState; 6] = [
        JobState::Queued,
        JobState::Running,
        JobState::Done,
        JobState::Failed,
        JobState::Cancelled,
        JobState::Truncated,
    ];

    /// Stable lowercase name (journal spelling and API spelling).
    pub fn name(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
            JobState::Truncated => "truncated",
        }
    }

    /// Inverse of [`JobState::name`].
    pub fn from_name(s: &str) -> Option<JobState> {
        JobState::ALL.into_iter().find(|st| st.name() == s)
    }

    /// No further transitions out of these.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobState::Done | JobState::Failed | JobState::Cancelled | JobState::Truncated
        )
    }

    /// The exhaustive transition relation. Everything not listed is
    /// invalid — in particular, terminal states accept nothing, and no
    /// state transitions to itself.
    pub fn can_transition(self, to: JobState) -> bool {
        matches!(
            (self, to),
            (JobState::Queued, JobState::Running)
                | (JobState::Queued, JobState::Cancelled)
                | (JobState::Running, JobState::Done)
                | (JobState::Running, JobState::Failed)
                | (JobState::Running, JobState::Cancelled)
                | (JobState::Running, JobState::Truncated)
                | (JobState::Running, JobState::Queued)
        )
    }
}

/// One job: submission identity plus current lifecycle state.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRecord {
    /// Fingerprint-derived id (16 hex digits); also the record filename.
    pub id: String,
    /// Submitting tenant (fairness key, not identity).
    pub tenant: String,
    /// Registry model id.
    pub model: String,
    /// Campaign master seed.
    pub seed: u64,
    /// Campaign sample count.
    pub n: usize,
    /// Recovery policy for the attempts.
    pub policy: RecoveryPolicy,
    /// Optional total sample budget (jobs over budget end Truncated).
    pub budget: Option<usize>,
    /// Lifecycle state.
    pub state: JobState,
    /// Deterministic result line, once Done/Truncated.
    pub result: Option<String>,
    /// Diagnostic, once Failed.
    pub error: Option<String>,
}

impl JobRecord {
    /// A fresh queued record with the fingerprint-derived id.
    pub fn new(
        tenant: &str,
        model: &str,
        model_fingerprint: u64,
        seed: u64,
        n: usize,
        policy: RecoveryPolicy,
        budget: Option<usize>,
    ) -> JobRecord {
        let id = job_id(model_fingerprint, seed, n, policy, budget);
        JobRecord {
            id,
            tenant: tenant.to_string(),
            model: model.to_string(),
            seed,
            n,
            policy,
            budget,
            state: JobState::Queued,
            result: None,
            error: None,
        }
    }

    /// The campaign fingerprint this job's checkpoints validate
    /// against.
    pub fn campaign_fingerprint(&self, model_fingerprint: u64) -> CampaignFingerprint {
        CampaignFingerprint {
            master_seed: self.seed,
            n_samples: self.n,
            policy: self.policy,
            model: model_fingerprint,
        }
    }
}

/// Deterministic job id: a fingerprint of everything that identifies
/// the campaign (the [`CampaignFingerprint`] fields) plus the budget.
/// The tenant is deliberately excluded — two tenants submitting the
/// identical campaign share the job and its single run.
pub fn job_id(
    model_fingerprint: u64,
    seed: u64,
    n: usize,
    policy: RecoveryPolicy,
    budget: Option<usize>,
) -> String {
    let words = [
        fingerprint_str("job-v1"),
        model_fingerprint,
        seed,
        n as u64,
        policy.max_retries as u64,
        u64::from(policy.allow_fallback),
        u64::from(policy.fail_fast),
        budget.map_or(u64::MAX, |b| b as u64),
    ];
    format!("{:016x}", fingerprint_words(words))
}

fn serialize_record(rec: &JobRecord) -> String {
    let mut body = String::with_capacity(256);
    body.push_str(JOB_FORMAT_VERSION);
    body.push('\n');
    body.push_str(&format!("id={}\n", rec.id));
    body.push_str(&format!("tenant={}\n", escape(&rec.tenant)));
    body.push_str(&format!("model={}\n", escape(&rec.model)));
    body.push_str(&format!("seed={}\n", rec.seed));
    body.push_str(&format!("n={}\n", rec.n));
    body.push_str(&policy_line(&rec.policy));
    if let Some(b) = rec.budget {
        body.push_str(&format!("budget={b}\n"));
    }
    body.push_str(&format!("state={}\n", rec.state.name()));
    if let Some(r) = &rec.result {
        body.push_str(&format!("result={}\n", escape(r)));
    }
    if let Some(e) = &rec.error {
        body.push_str(&format!("error={}\n", escape(e)));
    }
    seal(&mut body);
    body
}

/// Reads, checksum-verifies and parses one record file.
fn load_record(path: &Path) -> Result<JobRecord, CheckpointError> {
    let payload = read_sealed(path)?;
    let malformed = |reason: String| CheckpointError::Malformed { reason };
    let mut lines = payload.lines();
    let version = lines
        .next()
        .ok_or_else(|| malformed("empty record".into()))?;
    if version != JOB_FORMAT_VERSION {
        return Err(CheckpointError::VersionMismatch {
            found: version.to_string(),
        });
    }
    let mut id = None;
    let mut tenant = None;
    let mut model = None;
    let mut seed = None;
    let mut n = None;
    let mut policy = None;
    let mut budget = None;
    let mut state = None;
    let mut result = None;
    let mut error = None;
    for line in lines {
        if let Some(v) = line.strip_prefix("id=") {
            id = Some(v.to_string());
        } else if let Some(v) = line.strip_prefix("tenant=") {
            tenant = Some(unescape(v));
        } else if let Some(v) = line.strip_prefix("model=") {
            model = Some(unescape(v));
        } else if let Some(v) = line.strip_prefix("seed=") {
            seed = Some(
                v.parse::<u64>()
                    .map_err(|_| malformed(format!("bad seed {v:?}")))?,
            );
        } else if let Some(v) = line.strip_prefix("n=") {
            n = Some(
                v.parse::<usize>()
                    .map_err(|_| malformed(format!("bad n {v:?}")))?,
            );
        } else if let Some(v) = line.strip_prefix("policy=") {
            policy = Some(parse_policy(v)?);
        } else if let Some(v) = line.strip_prefix("budget=") {
            budget = Some(
                v.parse::<usize>()
                    .map_err(|_| malformed(format!("bad budget {v:?}")))?,
            );
        } else if let Some(v) = line.strip_prefix("state=") {
            state =
                Some(JobState::from_name(v).ok_or_else(|| malformed(format!("bad state {v:?}")))?);
        } else if let Some(v) = line.strip_prefix("result=") {
            result = Some(unescape(v));
        } else if let Some(v) = line.strip_prefix("error=") {
            error = Some(unescape(v));
        } else if !line.is_empty() {
            return Err(malformed(format!("unrecognized line: {line:?}")));
        }
    }
    let n = n.ok_or_else(|| malformed("missing n= line".into()))?;
    if n == 0 || n > MAX_JOB_SAMPLES {
        return Err(malformed(format!(
            "sample count {n} outside 1..={MAX_JOB_SAMPLES}"
        )));
    }
    let policy: RecoveryPolicy = policy.ok_or_else(|| malformed("missing policy= line".into()))?;
    if policy.max_retries > MAX_JOB_RETRIES {
        return Err(malformed(format!(
            "max_retries {} above {MAX_JOB_RETRIES}",
            policy.max_retries
        )));
    }
    Ok(JobRecord {
        id: id.ok_or_else(|| malformed("missing id= line".into()))?,
        tenant: tenant.ok_or_else(|| malformed("missing tenant= line".into()))?,
        model: model.ok_or_else(|| malformed("missing model= line".into()))?,
        seed: seed.ok_or_else(|| malformed("missing seed= line".into()))?,
        n,
        policy,
        budget,
        state: state.ok_or_else(|| malformed("missing state= line".into()))?,
        result,
        error,
    })
}

/// What the startup recovery scan found and did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Job ids journaled back to queued for re-dispatch (previous
    /// process died while they were queued or running), sorted.
    pub requeued: Vec<String>,
    /// Of those, how many were mid-run (state was `running`).
    pub interrupted: usize,
    /// Orphaned `*.tmp` staging files reaped.
    pub tmp_reaped: usize,
    /// Corrupt checkpoints deleted by prevalidation (each costs a
    /// re-run of that job's samples — never a wrong answer).
    pub corrupt_checkpoints: usize,
    /// Unreadable job records quarantined to `*.bad`.
    pub quarantined_records: usize,
    /// Terminal job records left in the journal (those the scan journaled
    /// as failed included); the server answers for them from disk.
    pub terminal: usize,
}

/// The on-disk job store.
#[derive(Debug, Clone)]
pub struct JobStore {
    dir: PathBuf,
}

impl JobStore {
    /// Opens (creating if needed) the store directory.
    pub fn open(dir: &Path) -> Result<JobStore, CheckpointError> {
        std::fs::create_dir_all(dir).map_err(|e| CheckpointError::io("create", dir, e))?;
        Ok(JobStore {
            dir: dir.to_path_buf(),
        })
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Journal record path of a job id.
    pub fn record_path(&self, id: &str) -> PathBuf {
        self.dir.join(format!("job-{id}.rec"))
    }

    /// Campaign checkpoint path of a job id.
    pub fn checkpoint_path(&self, id: &str) -> PathBuf {
        self.dir.join(format!("job-{id}.ckpt"))
    }

    /// Journals `rec` atomically ([`write_atomic`]). After this returns
    /// `Ok`, a crash at any later instant leaves the complete new record
    /// visible.
    pub fn save(&self, rec: &JobRecord) -> Result<(), CheckpointError> {
        write_atomic(&self.record_path(&rec.id), serialize_record(rec).as_bytes())
    }

    /// Loads and checksum-verifies one record file.
    pub fn load(&self, id: &str) -> Result<JobRecord, CheckpointError> {
        load_record(&self.record_path(id))
    }

    /// Every `job-*.rec` file in the store, sorted (so by id).
    fn record_files(&self) -> Vec<PathBuf> {
        let Ok(entries) = std::fs::read_dir(&self.dir) else {
            return Vec::new();
        };
        let mut rec_files: Vec<PathBuf> = entries
            .flatten()
            .map(|e| e.path())
            .filter(|p| {
                p.extension().is_some_and(|x| x == "rec")
                    && p.file_name()
                        .and_then(|f| f.to_str())
                        .is_some_and(|f| f.starts_with("job-"))
            })
            .collect();
        rec_files.sort();
        rec_files
    }

    /// Loads every readable record, sorted by id, and leaves unreadable
    /// ones where they are (a listing moves no file).
    pub fn list(&self) -> Vec<JobRecord> {
        self.record_files()
            .iter()
            .filter_map(|p| load_record(p).ok())
            .collect()
    }

    /// Loads every readable record, sorted by id. Unreadable records
    /// are renamed to `<name>.bad` (quarantine — restart must not be
    /// blocked by one rotten file) and counted.
    pub fn load_all(&self) -> (Vec<JobRecord>, usize) {
        let mut out = Vec::new();
        let mut quarantined = 0usize;
        for path in self.record_files() {
            match load_record(&path) {
                Ok(rec) => out.push(rec),
                Err(e) => {
                    eprintln!(
                        "serve: quarantining unreadable job record {}: {e}",
                        path.display()
                    );
                    let mut bad = path.as_os_str().to_owned();
                    bad.push(".bad");
                    let _ = std::fs::rename(&path, PathBuf::from(bad));
                    quarantined += 1;
                }
            }
        }
        (out, quarantined)
    }

    /// The startup recovery scan. `fingerprint_of` maps a record to its
    /// campaign fingerprint (`None` = the model is no longer
    /// registered; the job is journaled as failed rather than wedging
    /// the queue forever).
    ///
    /// Returns the report plus the records re-queued for dispatch, in
    /// id order (deterministic restart behavior).
    pub fn recover(
        &self,
        fingerprint_of: impl Fn(&JobRecord) -> Option<CampaignFingerprint>,
    ) -> (RecoveryReport, Vec<JobRecord>) {
        let mut report = RecoveryReport {
            tmp_reaped: reap_tmp_in_dir(&self.dir),
            ..RecoveryReport::default()
        };
        let (records, quarantined) = self.load_all();
        report.quarantined_records = quarantined;
        let mut requeue = Vec::new();
        for mut rec in records {
            match rec.state {
                JobState::Queued => {
                    requeue.push(rec);
                }
                JobState::Running => {
                    report.interrupted += 1;
                    linvar_metrics::incr(Counter::ServeJobsRecovered);
                    match fingerprint_of(&rec) {
                        Some(fp) => {
                            // Checkpoint prevalidation: a corrupt or
                            // mismatched snapshot is deleted so the
                            // resumed run starts clean — one re-run,
                            // never a wrong answer.
                            let ckpt = self.checkpoint_path(&rec.id);
                            if ckpt.exists() {
                                let ok = load_checkpoint(&ckpt, &fp).is_ok();
                                if !ok {
                                    report.corrupt_checkpoints += 1;
                                    let _ = std::fs::remove_file(&ckpt);
                                }
                            }
                            rec.state = JobState::Queued;
                            let _ = self.save(&rec);
                            requeue.push(rec);
                        }
                        None => {
                            rec.state = JobState::Failed;
                            rec.error = Some(format!("model {:?} is not registered", rec.model));
                            let _ = self.save(&rec);
                            report.terminal += 1;
                        }
                    }
                }
                _ => report.terminal += 1,
            }
        }
        requeue.sort_by(|a, b| a.id.cmp(&b.id));
        report.requeued = requeue.iter().map(|r| r.id.clone()).collect();
        (report, requeue)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn tmp_dir(tag: &str) -> PathBuf {
        static SEQ: AtomicUsize = AtomicUsize::new(0);
        let k = SEQ.fetch_add(1, Ordering::Relaxed);
        let d = std::env::temp_dir().join(format!(
            "linvar-store-unit-{}-{tag}-{k}",
            std::process::id()
        ));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn rec(state: JobState) -> JobRecord {
        let mut r = JobRecord::new(
            "acme",
            "demo-fast",
            0x1234,
            7,
            40,
            RecoveryPolicy::default(),
            None,
        );
        r.state = state;
        r
    }

    #[test]
    fn exhaustive_transition_table() {
        use JobState::*;
        let valid = [
            (Queued, Running),
            (Queued, Cancelled),
            (Running, Done),
            (Running, Failed),
            (Running, Cancelled),
            (Running, Truncated),
            (Running, Queued), // recovery scan only
        ];
        for from in JobState::ALL {
            for to in JobState::ALL {
                let expect = valid.contains(&(from, to));
                assert_eq!(
                    from.can_transition(to),
                    expect,
                    "{from:?} -> {to:?} must be {}",
                    if expect { "valid" } else { "invalid" }
                );
            }
        }
        // Terminal states accept nothing; non-terminals go somewhere.
        for s in JobState::ALL {
            let outgoing = JobState::ALL.iter().any(|&t| s.can_transition(t));
            assert_eq!(outgoing, !s.is_terminal(), "{s:?}");
        }
    }

    #[test]
    fn state_names_roundtrip() {
        for s in JobState::ALL {
            assert_eq!(JobState::from_name(s.name()), Some(s));
        }
        assert_eq!(JobState::from_name("bogus"), None);
    }

    #[test]
    fn record_roundtrip_with_special_characters() {
        let store = JobStore::open(&tmp_dir("roundtrip")).unwrap();
        let mut r = rec(JobState::Failed);
        r.tenant = "ten\nant \\ x".into();
        r.error = Some("line1\nline2 \\ tail".into());
        r.budget = Some(17);
        store.save(&r).unwrap();
        let back = store.load(&r.id).unwrap();
        assert_eq!(back, r);
        std::fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn corrupt_record_is_rejected_and_quarantined() {
        let store = JobStore::open(&tmp_dir("corrupt")).unwrap();
        let r = rec(JobState::Queued);
        store.save(&r).unwrap();
        let path = store.record_path(&r.id);
        let clean = std::fs::read(&path).unwrap();
        // Bytes after the checksum line are refused, even a blank line.
        std::fs::write(&path, [&clean[..], b"\n"].concat()).unwrap();
        assert!(matches!(
            store.load(&r.id),
            Err(CheckpointError::Malformed { .. })
        ));
        // Flip one byte of the payload: checksum must catch it.
        let mut bytes = clean;
        bytes[20] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            store.load(&r.id),
            Err(CheckpointError::ChecksumMismatch { .. })
        ));
        // A listing skips it and moves nothing; the startup load moves it.
        assert!(store.list().is_empty());
        assert!(path.exists(), "a listing renames no file");
        let (records, quarantined) = store.load_all();
        assert_eq!(records.len(), 0);
        assert_eq!(quarantined, 1);
        assert!(!path.exists(), "rotten record renamed away");
        std::fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn oversized_journaled_jobs_are_rejected_and_quarantined() {
        let store = JobStore::open(&tmp_dir("oversized")).unwrap();
        let huge_retries = RecoveryPolicy {
            max_retries: usize::MAX,
            ..RecoveryPolicy::default()
        };
        let jobs = [
            JobRecord::new(
                "acme",
                "demo-fast",
                1,
                7,
                1 << 50,
                RecoveryPolicy::default(),
                None,
            ),
            JobRecord::new("acme", "demo-fast", 1, 7, 40, huge_retries, None),
        ];
        for r in &jobs {
            store.save(r).unwrap();
            assert!(
                matches!(store.load(&r.id), Err(CheckpointError::Malformed { .. })),
                "n={} max_retries={} must be refused",
                r.n,
                r.policy.max_retries
            );
        }
        let (records, quarantined) = store.load_all();
        assert!(records.is_empty());
        assert_eq!(quarantined, 2);
        std::fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn job_id_is_deterministic_and_sensitive() {
        let p = RecoveryPolicy::default();
        let a = job_id(1, 2, 3, p, None);
        assert_eq!(a, job_id(1, 2, 3, p, None));
        assert_ne!(a, job_id(1, 2, 3, p, Some(3)));
        assert_ne!(a, job_id(1, 9, 3, p, None));
        assert_ne!(a, job_id(9, 2, 3, p, None));
        assert_eq!(a.len(), 16);
    }

    #[test]
    fn recovery_scan_requeues_reaps_and_prevalidates() {
        let store = JobStore::open(&tmp_dir("recover")).unwrap();
        // One of each persisted state.
        let mut ids = std::collections::BTreeMap::new();
        for (k, st) in [
            JobState::Queued,
            JobState::Running,
            JobState::Done,
            JobState::Cancelled,
        ]
        .iter()
        .enumerate()
        {
            let mut r = rec(*st);
            r.seed = 100 + k as u64; // distinct ids
            r.id = job_id(0x1234, r.seed, r.n, r.policy, None);
            store.save(&r).unwrap();
            ids.insert(*st, r.id.clone());
        }
        // Orphaned staging files + a *corrupt* checkpoint for the
        // running job (prevalidation must delete it).
        std::fs::write(store.dir().join("junk.ckpt.tmp"), b"torn").unwrap();
        let running_id = ids[&JobState::Running].clone();
        let ckpt = store.checkpoint_path(&running_id);
        std::fs::write(&ckpt, b"not a checkpoint at all").unwrap();

        let fp = |r: &JobRecord| {
            Some(CampaignFingerprint {
                master_seed: r.seed,
                n_samples: r.n,
                policy: r.policy,
                model: 0x1234,
            })
        };
        let (report, requeued) = store.recover(fp);
        assert_eq!(report.tmp_reaped, 1);
        assert_eq!(report.interrupted, 1);
        assert_eq!(report.corrupt_checkpoints, 1);
        assert_eq!(report.terminal, 2, "done + cancelled stay on disk");
        assert!(!ckpt.exists(), "corrupt checkpoint deleted");
        assert_eq!(requeued.len(), 2, "queued + running come back");
        assert!(requeued.iter().all(|r| r.state == JobState::Queued));
        // The interrupted job's journal now says queued again.
        assert_eq!(store.load(&running_id).unwrap().state, JobState::Queued);
        // Terminal jobs are untouched.
        assert_eq!(
            store.load(&ids[&JobState::Done]).unwrap().state,
            JobState::Done
        );
        // A second scan is a no-op fixed point.
        let (report2, requeued2) = store.recover(fp);
        assert_eq!(report2.tmp_reaped, 0);
        assert_eq!(report2.interrupted, 0);
        assert_eq!(requeued2.len(), 2);
        std::fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn recovery_fails_jobs_of_unregistered_models() {
        let store = JobStore::open(&tmp_dir("unreg")).unwrap();
        let r = rec(JobState::Running);
        store.save(&r).unwrap();
        let (report, requeued) = store.recover(|_| None);
        assert!(requeued.is_empty());
        assert_eq!(report.interrupted, 1);
        assert_eq!(report.terminal, 1, "journaled as failed");
        let back = store.load(&r.id).unwrap();
        assert_eq!(back.state, JobState::Failed);
        assert!(back.error.unwrap().contains("not registered"));
        std::fs::remove_dir_all(store.dir()).ok();
    }
}
