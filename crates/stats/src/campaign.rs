//! Durable Monte-Carlo campaigns: checkpoint/resume, deadline budgets
//! and a cooperative per-sample watchdog.
//!
//! The attempt ladder in [`crate::executor`] makes *individual samples*
//! resilient; the knobs and snapshot format here make the *campaign
//! itself* survivable. A run whose [`CampaignConfig`] names a checkpoint
//! periodically writes atomic, checksummed snapshots of every completed
//! sample, can resume from such a snapshot by re-running only the
//! missing indices, and enforces a wall-clock deadline with graceful
//! truncation — on deadline, in-flight samples finish, the run returns
//! valid partial statistics plus a final checkpoint so the campaign can
//! be continued later. [`run_campaign`] is the durable-campaign front
//! door of [`crate::execute`].
//!
//! **Resume invariant.** Sample outcomes are pure functions of
//! `(sample, attempt)` and the sample set is a pure function of the
//! master seed, so a campaign interrupted at *any* point and resumed
//! from its snapshot produces a [`crate::Summary`] **bitwise-identical**
//! to an uninterrupted run, at any worker count. Checkpoints store
//! `f64` results as raw bit patterns to keep the round-trip exact, and
//! carry seed/policy/model fingerprints so a snapshot can never be
//! resumed against the wrong campaign (typed
//! [`CheckpointError::FingerprintMismatch`]).
//!
//! **Atomicity.** Snapshots are written to a temporary sibling file,
//! fsynced, then renamed over the target (and the directory fsynced), so
//! a crash mid-write leaves either the old snapshot or the new one —
//! never a torn file. Torn or bit-flipped files are rejected by an
//! FNV-1a checksum with a typed error; no partial load is possible.
//!
//! See DESIGN.md, "Durable campaigns: checkpoint format & resume
//! invariants".

use crate::executor::{execute, RunError, RunSpec};
use crate::{MonteCarloResult, RecoveryPolicy, SampleStatus};
use std::fmt::{self, Display};
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Duration;

/// On-disk format tag, first line of every snapshot.
pub const FORMAT_VERSION: &str = "linvar-campaign-v1";

/// Identity of the RNG/sampling scheme the campaign's sample set is
/// drawn with. Stored in every snapshot: a resume under a different
/// scheme would silently change the sample set, so mismatches refuse.
pub const SEED_SCHEME: &str = "stdrng-lhs-v1";

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into the FNV-1a 64-bit state `h`.
fn fnv_step(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// FNV-1a 64-bit hash of a byte slice (the checkpoint checksum).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv_step(FNV_OFFSET, bytes)
}

/// FNV-1a 64-bit hash of a word sequence (each word's little-endian
/// bytes) — the helper model/config fingerprints are built from.
pub fn fingerprint_words<I: IntoIterator<Item = u64>>(words: I) -> u64 {
    words
        .into_iter()
        .fold(FNV_OFFSET, |h, w| fnv_step(h, &w.to_le_bytes()))
}

/// FNV-1a 64-bit hash of a string's bytes, for folding names into a
/// fingerprint.
pub fn fingerprint_str(s: &str) -> u64 {
    fnv1a64(s.as_bytes())
}

/// Which analysis a campaign's per-sample scalar comes from.
///
/// Folded into the [`CampaignFingerprint::model`] hash (via
/// [`AnalysisKind::fingerprint_word`]) by every campaign that can run
/// more than one analysis over the same circuit: a transient-delay
/// checkpoint must never resume an AC-response or IR-drop campaign whose
/// circuit and sample set happen to match.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AnalysisKind {
    /// Transient analysis; the scalar is a delay (threshold crossing).
    #[default]
    Transient,
    /// AC small-signal analysis; the scalar is a frequency-response
    /// metric (e.g. magnitude at a probe frequency).
    Ac,
    /// DC IR-drop analysis; the scalar is a worst-case supply droop.
    IrDrop,
}

impl AnalysisKind {
    /// Every kind, in declaration order.
    pub const ALL: [AnalysisKind; 3] = [
        AnalysisKind::Transient,
        AnalysisKind::Ac,
        AnalysisKind::IrDrop,
    ];

    /// Stable lowercase name (CLI values and fingerprint salt).
    pub fn name(self) -> &'static str {
        match self {
            AnalysisKind::Transient => "tran",
            AnalysisKind::Ac => "ac",
            AnalysisKind::IrDrop => "irdrop",
        }
    }

    /// Parses a CLI-style name.
    pub fn parse(s: &str) -> Option<AnalysisKind> {
        AnalysisKind::ALL
            .into_iter()
            .find(|k| k.name() == s.trim().to_ascii_lowercase())
    }

    /// The word this kind contributes to a model fingerprint.
    pub fn fingerprint_word(self) -> u64 {
        fingerprint_str(self.name())
    }
}

/// What a checkpoint must agree with before a resume is allowed.
///
/// `model` is an opaque caller-computed hash of everything that shapes a
/// sample's value beyond `(seed, index)` — circuit, sources, engine
/// configuration. [`fingerprint_words`] / [`fingerprint_str`] are the
/// intended building blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CampaignFingerprint {
    /// Master seed the sample set is drawn from.
    pub master_seed: u64,
    /// Total samples in the campaign.
    pub n_samples: usize,
    /// Recovery policy the attempts run under.
    pub policy: RecoveryPolicy,
    /// Opaque model/configuration hash.
    pub model: u64,
}

/// Typed error of the checkpoint layer. Every failure mode — I/O, torn
/// or corrupted files, version or fingerprint disagreement — is its own
/// variant; nothing in this module panics on a bad file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// An I/O operation failed (kind and detail captured as text so the
    /// error stays `Clone`/`PartialEq` for upward conversion).
    Io {
        /// What was being attempted (`"read"`, `"create"`, `"rename"`, …).
        op: &'static str,
        /// Path involved.
        path: String,
        /// OS-level detail.
        detail: String,
    },
    /// The file does not parse as a checkpoint (truncation, garbage,
    /// duplicate or out-of-range sample indices, …).
    Malformed {
        /// What was wrong.
        reason: String,
    },
    /// The payload does not match its recorded checksum (bit rot or a
    /// partial overwrite).
    ChecksumMismatch {
        /// Checksum recorded in the file.
        expected: u64,
        /// Checksum of the payload as read.
        found: u64,
    },
    /// The file is a checkpoint of an unsupported format version.
    VersionMismatch {
        /// Version tag found in the file.
        found: String,
    },
    /// The snapshot belongs to a different campaign (seed, sample count,
    /// policy, model or RNG scheme disagree). Resuming would silently
    /// corrupt the statistics, so it is refused.
    FingerprintMismatch {
        /// Which fingerprint field disagreed.
        field: &'static str,
        /// Value the running campaign expects.
        expected: String,
        /// Value recorded in the snapshot.
        found: String,
    },
}

impl Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io { op, path, detail } => {
                write!(f, "checkpoint {op} failed for {path}: {detail}")
            }
            CheckpointError::Malformed { reason } => {
                write!(f, "malformed checkpoint: {reason}")
            }
            CheckpointError::ChecksumMismatch { expected, found } => write!(
                f,
                "checkpoint checksum mismatch: recorded {expected:016x}, payload hashes to {found:016x}"
            ),
            CheckpointError::VersionMismatch { found } => {
                write!(f, "unsupported checkpoint version {found:?} (want {FORMAT_VERSION:?})")
            }
            CheckpointError::FingerprintMismatch {
                field,
                expected,
                found,
            } => write!(
                f,
                "checkpoint belongs to a different campaign: {field} is {found}, expected {expected}"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl CheckpointError {
    /// [`CheckpointError::Io`] for a failed `op` on `path`.
    pub fn io(op: &'static str, path: &Path, e: std::io::Error) -> CheckpointError {
        CheckpointError::Io {
            op,
            path: path.display().to_string(),
            detail: e.to_string(),
        }
    }
}

/// Appends the checksum trailer: a last line `sum=<16 hex digits>`
/// holding the FNV-1a hash of every byte before it. Snapshots and the
/// service's job records both end this way; [`read_sealed`] checks it.
pub fn seal(body: &mut String) {
    let sum = fnv1a64(body.as_bytes());
    body.push_str(&format!("sum={sum:016x}\n"));
}

/// Reads a file that ends in a [`seal`] trailer and returns the payload
/// before it. A file that is not UTF-8, has no well-formed trailer as its
/// last line (truncated, or bytes after it) or fails the checksum is
/// rejected with a typed error.
pub fn read_sealed(path: &Path) -> Result<String, CheckpointError> {
    let bytes = std::fs::read(path).map_err(|e| CheckpointError::io("read", path, e))?;
    let mut text = String::from_utf8(bytes).map_err(|_| CheckpointError::Malformed {
        reason: "not valid UTF-8".into(),
    })?;
    let sum_at = text.rfind("sum=").ok_or(CheckpointError::Malformed {
        reason: "missing checksum line (file truncated?)".into(),
    })?;
    if sum_at > 0 && text.as_bytes()[sum_at - 1] != b'\n' {
        return Err(CheckpointError::Malformed {
            reason: "checksum line does not start a line".into(),
        });
    }
    let sum_line = text[sum_at..].trim_end();
    let recorded = u64::from_str_radix(sum_line.trim_start_matches("sum="), 16).map_err(|_| {
        CheckpointError::Malformed {
            reason: format!("unparseable checksum line {sum_line:?}"),
        }
    })?;
    if sum_line.len() != "sum=".len() + 16 || &text[sum_at + sum_line.len()..] != "\n" {
        return Err(CheckpointError::Malformed {
            reason: "trailing bytes after the checksum line".into(),
        });
    }
    text.truncate(sum_at);
    let found = fnv1a64(text.as_bytes());
    if found != recorded {
        return Err(CheckpointError::ChecksumMismatch {
            expected: recorded,
            found,
        });
    }
    Ok(text)
}

/// Writes `body` to `path` atomically: temp sibling + fsync + rename +
/// parent-directory fsync. After this returns `Ok`, a crash at any later
/// point leaves the complete new file visible under `path`; a crash
/// before leaves the previous one.
pub fn write_atomic(path: &Path, body: &[u8]) -> Result<(), CheckpointError> {
    use std::io::Write as _;
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    {
        let mut f =
            std::fs::File::create(&tmp).map_err(|e| CheckpointError::io("create", &tmp, e))?;
        f.write_all(body)
            .map_err(|e| CheckpointError::io("write", &tmp, e))?;
        f.sync_all()
            .map_err(|e| CheckpointError::io("fsync", &tmp, e))?;
    }
    std::fs::rename(&tmp, path).map_err(|e| CheckpointError::io("rename", path, e))?;
    // Make the rename itself durable: until the parent directory's entry
    // table reaches disk, a crash can forget the just-renamed file even
    // though its data blocks were fsynced. Directory fsync is a unix-ism;
    // elsewhere (and on filesystems that refuse it) the rename already
    // happened, so a failure here is not worth losing the write over. A
    // bare relative filename has an empty `parent()`, which means the
    // current directory — fsync "." rather than silently skipping the
    // directory sync for that spelling.
    #[cfg(unix)]
    {
        let dir = match path.parent() {
            Some(d) if !d.as_os_str().is_empty() => d,
            _ => Path::new("."),
        };
        if let Ok(d) = std::fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// One completed sample as stored in (and restored from) a snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct SampleRecord {
    /// Final status of the sample.
    pub status: SampleStatus,
    /// Attempts spent.
    pub attempts: usize,
    /// Value, or the terminal diagnostic.
    pub outcome: Result<f64, String>,
}

/// A loaded snapshot: fingerprint plus per-index outcomes (`None` =
/// sample not yet evaluated).
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// Campaign identity recorded in the snapshot.
    pub fingerprint: CampaignFingerprint,
    /// Per-index outcomes, length `fingerprint.n_samples`.
    pub outcomes: Vec<Option<SampleRecord>>,
}

impl CampaignFingerprint {
    /// Refuses (with a typed error) unless `self` — a snapshot's recorded
    /// identity — matches the running campaign's on every field.
    fn check_against(&self, expected: &CampaignFingerprint) -> Result<(), CheckpointError> {
        let fp = self;
        let mismatch = |field, exp: String, found: String| {
            Err(CheckpointError::FingerprintMismatch {
                field,
                expected: exp,
                found,
            })
        };
        if fp.master_seed != expected.master_seed {
            return mismatch(
                "master seed",
                expected.master_seed.to_string(),
                fp.master_seed.to_string(),
            );
        }
        if fp.n_samples != expected.n_samples {
            return mismatch(
                "sample count",
                expected.n_samples.to_string(),
                fp.n_samples.to_string(),
            );
        }
        if fp.policy != expected.policy {
            return mismatch(
                "recovery policy",
                format!("{:?}", expected.policy),
                format!("{:?}", fp.policy),
            );
        }
        if fp.model != expected.model {
            return mismatch(
                "model fingerprint",
                format!("{:016x}", expected.model),
                format!("{:016x}", fp.model),
            );
        }
        Ok(())
    }
}

fn status_tag(status: SampleStatus) -> char {
    match status {
        SampleStatus::Clean => 'C',
        SampleStatus::Recovered => 'R',
        SampleStatus::Degraded => 'D',
        SampleStatus::TimedOut => 'T',
        SampleStatus::Failed => 'F',
    }
}

fn status_from_tag(tag: &str) -> Option<SampleStatus> {
    match tag {
        "C" => Some(SampleStatus::Clean),
        "R" => Some(SampleStatus::Recovered),
        "D" => Some(SampleStatus::Degraded),
        "T" => Some(SampleStatus::TimedOut),
        "F" => Some(SampleStatus::Failed),
        _ => None,
    }
}

/// Escapes backslashes, newlines and carriage returns so a free-text
/// value fits on one line of a snapshot or job record; [`unescape`]
/// inverts it.
pub fn escape(msg: &str) -> String {
    msg.replace('\\', "\\\\")
        .replace('\n', "\\n")
        .replace('\r', "\\r")
}

/// Inverts [`escape`].
pub fn unescape(msg: &str) -> String {
    let mut out = String::with_capacity(msg.len());
    let mut chars = msg.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('n') => out.push('\n'),
                Some('r') => out.push('\r'),
                Some('\\') => out.push('\\'),
                Some(other) => {
                    out.push('\\');
                    out.push(other);
                }
                None => out.push('\\'),
            }
        } else {
            out.push(c);
        }
    }
    out
}

/// The `policy=` line of a snapshot or job record:
/// `policy=<max_retries> <allow_fallback 0|1> <fail_fast 0|1>`.
pub fn policy_line(policy: &RecoveryPolicy) -> String {
    format!(
        "policy={} {} {}\n",
        policy.max_retries,
        u8::from(policy.allow_fallback),
        u8::from(policy.fail_fast)
    )
}

/// Parses the value after `policy=` of a [`policy_line`].
pub fn parse_policy(v: &str) -> Result<RecoveryPolicy, CheckpointError> {
    let bad = || CheckpointError::Malformed {
        reason: format!("bad policy line {v:?}"),
    };
    let flag = |s: Option<&str>| match s {
        Some("0") => Ok(false),
        Some("1") => Ok(true),
        _ => Err(bad()),
    };
    let mut it = v.split(' ');
    let max_retries: usize = it.next().and_then(|s| s.parse().ok()).ok_or_else(bad)?;
    Ok(RecoveryPolicy {
        max_retries,
        allow_fallback: flag(it.next())?,
        fail_fast: flag(it.next())?,
    })
}

fn serialize(fp: &CampaignFingerprint, outcomes: &[Option<SampleRecord>]) -> String {
    let mut body = String::with_capacity(64 + outcomes.len() * 32);
    body.push_str(FORMAT_VERSION);
    body.push('\n');
    body.push_str(&format!("scheme={SEED_SCHEME}\n"));
    body.push_str(&format!("seed={}\n", fp.master_seed));
    body.push_str(&format!("n={}\n", fp.n_samples));
    body.push_str(&policy_line(&fp.policy));
    body.push_str(&format!("model={:016x}\n", fp.model));
    for (idx, rec) in outcomes.iter().enumerate() {
        let Some(rec) = rec else { continue };
        match &rec.outcome {
            Ok(v) => body.push_str(&format!(
                "s {idx} {} {} v {:016x}\n",
                status_tag(rec.status),
                rec.attempts,
                v.to_bits()
            )),
            Err(msg) => body.push_str(&format!(
                "s {idx} {} {} e {}\n",
                status_tag(rec.status),
                rec.attempts,
                escape(msg)
            )),
        }
    }
    seal(&mut body);
    body
}

/// Writes a snapshot with [`write_atomic`]: a crash at any point leaves
/// either the previous snapshot or the complete new one.
pub fn save_checkpoint(
    path: &Path,
    fingerprint: &CampaignFingerprint,
    outcomes: &[Option<SampleRecord>],
) -> Result<(), CheckpointError> {
    let _span = linvar_metrics::timer(linvar_metrics::Phase::CheckpointWrite);
    let body = serialize(fingerprint, outcomes);
    write_atomic(path, body.as_bytes())?;
    linvar_metrics::incr(linvar_metrics::Counter::CheckpointsWritten);
    linvar_metrics::count(linvar_metrics::Counter::CheckpointBytes, body.len() as u64);
    Ok(())
}

/// Removes the orphaned `<checkpoint>.tmp` sibling a crash mid-write
/// can leave behind. Returns whether a file was reaped.
///
/// Safe at any point where no writer is active on `checkpoint`: the
/// temp sibling is only ever a *staging* file — [`save_checkpoint`]
/// recreates it from scratch on every write — so an orphan carries no
/// information the real snapshot doesn't. Counted under
/// `campaign.tmp_reaped`.
pub fn reap_orphan_tmp(checkpoint: &Path) -> bool {
    let mut tmp = checkpoint.as_os_str().to_owned();
    tmp.push(".tmp");
    let reaped = std::fs::remove_file(Path::new(&tmp)).is_ok();
    if reaped {
        linvar_metrics::incr(linvar_metrics::Counter::CampaignTmpReaped);
    }
    reaped
}

/// Reaps every `*.tmp` file directly inside `dir` (non-recursive) — the
/// directory-wide sweep a server's recovery scan runs over its job
/// store before resuming anything. Returns the number reaped; counts
/// each under `campaign.tmp_reaped`. Unreadable directories reap
/// nothing (recovery must not die over hygiene).
pub fn reap_tmp_in_dir(dir: &Path) -> usize {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    let mut reaped = 0usize;
    for entry in entries.flatten() {
        let path = entry.path();
        let is_tmp = path.extension().is_some_and(|e| e == "tmp");
        if is_tmp && path.is_file() && std::fs::remove_file(&path).is_ok() {
            reaped += 1;
        }
    }
    linvar_metrics::count(linvar_metrics::Counter::CampaignTmpReaped, reaped as u64);
    reaped
}

/// Loads, checksum-verifies and fingerprint-validates a snapshot.
/// Truncated, bit-flipped or otherwise damaged files are rejected with a
/// typed error — a partial load is never returned — and a snapshot of a
/// different campaign (seed, sample count, policy, model or RNG scheme)
/// is refused with [`CheckpointError::FingerprintMismatch`]. The header
/// is checked against `expected` before anything sized by the file's
/// `n=` line is allocated, so a crafted sample count cannot exhaust
/// memory.
pub fn load_checkpoint(
    path: &Path,
    expected: &CampaignFingerprint,
) -> Result<Checkpoint, CheckpointError> {
    parse_payload(&read_sealed(path)?, expected)
}

fn parse_payload(
    payload: &str,
    expected: &CampaignFingerprint,
) -> Result<Checkpoint, CheckpointError> {
    let malformed = |reason: String| CheckpointError::Malformed { reason };
    let mut lines = payload.lines();
    let version = lines
        .next()
        .ok_or_else(|| malformed("empty payload".into()))?;
    if version != FORMAT_VERSION {
        return Err(CheckpointError::VersionMismatch {
            found: version.to_string(),
        });
    }
    let mut scheme = None;
    let mut seed = None;
    let mut n = None;
    let mut policy = None;
    let mut model = None;
    // Pass 1: the header. Sample lines are only noted here; nothing is
    // sized by `n=` until the header has matched `expected`.
    for line in lines.clone() {
        if line.starts_with("s ") {
            if n.is_none() {
                return Err(malformed("sample line before the n= header".into()));
            }
        } else if let Some(v) = line.strip_prefix("scheme=") {
            scheme = Some(v.to_string());
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
        } else if let Some(v) = line.strip_prefix("model=") {
            model = Some(
                u64::from_str_radix(v, 16).map_err(|_| malformed(format!("bad model {v:?}")))?,
            );
        } else if !line.is_empty() {
            return Err(malformed(format!("unrecognized line: {line:?}")));
        }
    }
    let scheme = scheme.ok_or_else(|| malformed("missing scheme= header".into()))?;
    if scheme != SEED_SCHEME {
        return Err(CheckpointError::FingerprintMismatch {
            field: "RNG scheme",
            expected: SEED_SCHEME.to_string(),
            found: scheme,
        });
    }
    let fingerprint = CampaignFingerprint {
        master_seed: seed.ok_or_else(|| malformed("missing seed= header".into()))?,
        n_samples: n.ok_or_else(|| malformed("missing n= header".into()))?,
        policy: policy.ok_or_else(|| malformed("missing policy= header".into()))?,
        model: model.ok_or_else(|| malformed("missing model= header".into()))?,
    };
    fingerprint.check_against(expected)?;

    // Pass 2: the samples, into a table the validated header sized.
    let n = fingerprint.n_samples;
    let mut outcomes: Vec<Option<SampleRecord>> = vec![None; n];
    for (lineno, line) in lines.enumerate() {
        let Some(rest) = line.strip_prefix("s ") else {
            continue;
        };
        let mut parts = rest.splitn(5, ' ');
        let bad = || malformed(format!("unparseable sample line {}: {line:?}", lineno + 2));
        let idx: usize = parts.next().and_then(|s| s.parse().ok()).ok_or_else(bad)?;
        let status = parts.next().and_then(status_from_tag).ok_or_else(bad)?;
        let attempts: usize = parts.next().and_then(|s| s.parse().ok()).ok_or_else(bad)?;
        let kind = parts.next().ok_or_else(bad)?;
        let rest = parts.next().ok_or_else(bad)?;
        let outcome = match kind {
            "v" => Ok(f64::from_bits(
                u64::from_str_radix(rest, 16).map_err(|_| bad())?,
            )),
            "e" => Err(unescape(rest)),
            _ => return Err(bad()),
        };
        if idx >= n {
            return Err(malformed(format!(
                "sample index {idx} out of range (n={n})"
            )));
        }
        if outcomes[idx].is_some() {
            return Err(malformed(format!("duplicate sample index {idx}")));
        }
        outcomes[idx] = Some(SampleRecord {
            status,
            attempts,
            outcome,
        });
    }
    Ok(Checkpoint {
        outcomes,
        fingerprint,
    })
}

/// How a campaign run persists, resumes, and bounds itself.
#[derive(Debug, Clone, Default)]
pub struct CampaignConfig {
    /// Where to write snapshots (periodic + final). `None` = no
    /// persistence.
    pub checkpoint: Option<PathBuf>,
    /// Snapshot to resume from. The file must exist and match the
    /// campaign's fingerprint; mismatches refuse with a typed error.
    pub resume: Option<PathBuf>,
    /// Completed samples between periodic snapshots (0 = default, 32).
    pub checkpoint_every: usize,
    /// Wall-clock budget for this run, measured from its start. On
    /// expiry workers stop claiming new samples;
    /// in-flight samples finish, a final snapshot is written, and the
    /// result carries a [`CampaignVerdict::Truncated`] verdict with
    /// valid statistics over the completed prefix of work.
    pub deadline: Option<Duration>,
    /// Cooperative per-sample watchdog: a *soft* timeout per attempt.
    /// Attempts are never interrupted (evaluators stay pure functions),
    /// but an attempt that overruns the budget is recorded: a
    /// slow-but-successful sample keeps its value with its status
    /// floored to [`SampleStatus::TimedOut`], and an overrunning
    /// *failed* attempt falls through to the next (lower-rung, cheaper)
    /// attempt in the policy budget rather than stalling the queue.
    /// Enabling the watchdog makes health bookkeeping timing-dependent;
    /// values stay deterministic.
    pub sample_timeout: Option<Duration>,
    /// Evaluate at most this many samples in this run, then truncate
    /// (deterministic preemption — the test harness's "kill point", and
    /// an operator's per-shift work budget).
    pub sample_budget: Option<usize>,
    /// Cooperative cancellation: when the flag reads `true`, workers
    /// stop claiming new samples exactly as on deadline expiry —
    /// in-flight samples finish, the final snapshot is written, and the
    /// verdict is [`CampaignVerdict::Truncated`]. This is how a serving
    /// layer implements both job cancel and graceful shutdown without
    /// losing completed work.
    pub cancel: Option<Arc<AtomicBool>>,
}

/// Did the campaign finish?
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CampaignVerdict {
    /// Every sample is accounted for.
    Complete,
    /// The run stopped early (deadline or sample budget); the statistics
    /// cover the completed samples and the final snapshot makes the
    /// remainder resumable.
    Truncated {
        /// Samples not yet evaluated.
        remaining: usize,
    },
}

/// Runs a durable Monte-Carlo campaign over `samples`: the executor
/// ([`crate::execute`]) with `config` as the run's campaign knobs.
///
/// The evaluator contract is the executor's: `f(sample, attempt)` must be
/// a deterministic pure function (attempt 0 the fast path, later attempts
/// the recovery rungs). Given that, the merged output over any
/// interrupted-and-resumed schedule is **bitwise-identical** to an
/// uninterrupted run at any worker count.
///
/// * `config.resume` — restore completed samples from a snapshot
///   (fingerprint-validated; mismatches refuse with a typed error) and
///   evaluate only the missing indices.
/// * `config.checkpoint` — write atomic checksummed snapshots every
///   `checkpoint_every` completions, plus a final one before returning.
///   Periodic write failures are tolerated (the run is worth more than a
///   snapshot); the *final* write's failure is returned as an error.
/// * `config.deadline` / `config.sample_budget` / `config.cancel` — stop
///   claiming new samples; in-flight samples finish; the verdict is
///   [`CampaignVerdict::Truncated`] and the final snapshot makes the
///   remainder resumable.
///
/// `policy.fail_fast` is ignored for execution (a campaign's answer to a
/// failing sample is the quarantine-and-checkpoint bookkeeping, not
/// truncation) but stays part of `fingerprint`, so existing snapshots
/// keep resuming.
///
/// # Errors
///
/// Checkpoint load/validation failures, the final snapshot write, and a
/// fingerprint whose sample count disagrees with `samples`.
pub fn run_campaign<S, E>(
    samples: &[S],
    threads: usize,
    policy: RecoveryPolicy,
    config: &CampaignConfig,
    fingerprint: CampaignFingerprint,
    f: impl Fn(&S, usize) -> Result<(f64, SampleStatus), E> + Sync,
) -> Result<MonteCarloResult, CheckpointError>
where
    S: Sync,
    E: Display,
{
    let spec = RunSpec::durable(threads, policy, config);
    execute(samples, &spec, &fingerprint, f).map_err(|e| match e {
        RunError::Checkpoint(e) => e,
        RunError::Plan { reason } => CheckpointError::Malformed { reason },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn tmp_path(tag: &str) -> PathBuf {
        static SEQ: AtomicUsize = AtomicUsize::new(0);
        let k = SEQ.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "linvar-campaign-unit-{}-{tag}-{k}.ckpt",
            std::process::id()
        ))
    }

    fn fp(n: usize) -> CampaignFingerprint {
        CampaignFingerprint {
            master_seed: 42,
            n_samples: n,
            policy: RecoveryPolicy::default(),
            model: fingerprint_words([1, 2, 3]),
        }
    }

    fn eval(k: &usize, _attempt: usize) -> Result<(f64, SampleStatus), String> {
        Ok((*k as f64 * 1.5, SampleStatus::Clean))
    }

    #[test]
    fn checkpoint_roundtrip_is_bit_exact() {
        let path = tmp_path("roundtrip");
        let outcomes = vec![
            Some(SampleRecord {
                status: SampleStatus::Clean,
                attempts: 1,
                outcome: Ok(std::f64::consts::PI),
            }),
            None,
            Some(SampleRecord {
                status: SampleStatus::Failed,
                attempts: 3,
                outcome: Err("line1\nline2 \\ backslash".into()),
            }),
            Some(SampleRecord {
                status: SampleStatus::TimedOut,
                attempts: 2,
                outcome: Ok(-0.0),
            }),
        ];
        save_checkpoint(&path, &fp(4), &outcomes).unwrap();
        let ck = load_checkpoint(&path, &fp(4)).unwrap();
        assert_eq!(ck.fingerprint, fp(4));
        assert_eq!(ck.outcomes, outcomes);
        // Bit-exactness (−0.0 and π survive exactly).
        let restored = ck.outcomes[3].as_ref().unwrap();
        assert_eq!(
            restored.outcome.as_ref().unwrap().to_bits(),
            (-0.0f64).to_bits()
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn campaign_without_config_matches_policy_driver_shape() {
        let samples: Vec<usize> = (0..20).collect();
        let res = run_campaign(
            &samples,
            2,
            RecoveryPolicy::default(),
            &CampaignConfig::default(),
            fp(20),
            eval,
        )
        .unwrap();
        assert_eq!(res.verdict, CampaignVerdict::Complete);
        assert_eq!(res.completed, 20);
        assert_eq!(res.resumed, 0);
        assert_eq!(res.evaluated, 20);
        assert_eq!(res.values.len(), 20);
        assert!(res.health.all_clean());
        assert_eq!(res.checkpoints_written, 0);
    }

    #[test]
    fn sample_budget_truncates_then_resume_completes_identically() {
        let samples: Vec<usize> = (0..30).collect();
        let clean = run_campaign(
            &samples,
            1,
            RecoveryPolicy::default(),
            &CampaignConfig::default(),
            fp(30),
            eval,
        )
        .unwrap();
        let path = tmp_path("budget");
        let first = run_campaign(
            &samples,
            3,
            RecoveryPolicy::default(),
            &CampaignConfig {
                checkpoint: Some(path.clone()),
                sample_budget: Some(11),
                ..CampaignConfig::default()
            },
            fp(30),
            eval,
        )
        .unwrap();
        assert_eq!(first.verdict, CampaignVerdict::Truncated { remaining: 19 });
        assert_eq!(first.completed, 11);
        assert!(first.checkpoints_written >= 1);
        let second = run_campaign(
            &samples,
            3,
            RecoveryPolicy::default(),
            &CampaignConfig {
                checkpoint: Some(path.clone()),
                resume: Some(path.clone()),
                ..CampaignConfig::default()
            },
            fp(30),
            eval,
        )
        .unwrap();
        assert_eq!(second.verdict, CampaignVerdict::Complete);
        assert_eq!(second.resumed, 11);
        assert_eq!(second.evaluated, 19);
        let a: Vec<u64> = clean.values.iter().map(|v| v.to_bits()).collect();
        let b: Vec<u64> = second.values.iter().map(|v| v.to_bits()).collect();
        assert_eq!(a, b);
        assert_eq!(clean.summary.mean.to_bits(), second.summary.mean.to_bits());
        assert_eq!(clean.sample_health, second.sample_health);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn zero_deadline_truncates_gracefully() {
        let samples: Vec<usize> = (0..10).collect();
        let path = tmp_path("deadline");
        let res = run_campaign(
            &samples,
            2,
            RecoveryPolicy::default(),
            &CampaignConfig {
                checkpoint: Some(path.clone()),
                deadline: Some(Duration::ZERO),
                ..CampaignConfig::default()
            },
            fp(10),
            eval,
        )
        .unwrap();
        assert_eq!(res.verdict, CampaignVerdict::Truncated { remaining: 10 });
        assert_eq!(res.summary.n, 0);
        // The final snapshot exists and is resumable.
        let res = run_campaign(
            &samples,
            2,
            RecoveryPolicy::default(),
            &CampaignConfig {
                resume: Some(path.clone()),
                ..CampaignConfig::default()
            },
            fp(10),
            eval,
        )
        .unwrap();
        assert_eq!(res.verdict, CampaignVerdict::Complete);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn watchdog_floors_slow_samples_to_timed_out() {
        let samples: Vec<usize> = (0..6).collect();
        let res = run_campaign(
            &samples,
            2,
            RecoveryPolicy::default(),
            &CampaignConfig {
                sample_timeout: Some(Duration::from_millis(5)),
                ..CampaignConfig::default()
            },
            fp(6),
            |&k: &usize, _attempt: usize| -> Result<(f64, SampleStatus), String> {
                if k == 3 {
                    std::thread::sleep(Duration::from_millis(30));
                }
                Ok((k as f64, SampleStatus::Clean))
            },
        )
        .unwrap();
        assert_eq!(res.health.n_timed_out, 1);
        assert_eq!(res.health.n_clean, 5);
        assert_eq!(res.sample_health[3].status, SampleStatus::TimedOut);
        // The slow sample's value is kept, not discarded.
        assert_eq!(res.values.len(), 6);
        assert_eq!(res.failures, 0);
    }

    #[test]
    fn watchdog_overrunning_failure_falls_down_the_ladder() {
        let samples: Vec<usize> = (0..4).collect();
        let res = run_campaign(
            &samples,
            1,
            RecoveryPolicy {
                max_retries: 1,
                allow_fallback: false,
                fail_fast: false,
            },
            &CampaignConfig {
                sample_timeout: Some(Duration::from_millis(5)),
                ..CampaignConfig::default()
            },
            fp(4),
            |&k: &usize, attempt: usize| -> Result<(f64, SampleStatus), String> {
                if k == 2 && attempt == 0 {
                    // A stuck fast path: slow *and* failing.
                    std::thread::sleep(Duration::from_millis(30));
                    return Err("solver wedged".into());
                }
                Ok((k as f64, SampleStatus::Clean))
            },
        )
        .unwrap();
        // Attempt 1 (the lower rung) served it; the watchdog is recorded.
        assert_eq!(res.sample_health[2].status, SampleStatus::TimedOut);
        assert_eq!(res.sample_health[2].attempts, 2);
        assert_eq!(res.failures, 0);
        assert_eq!(res.health.n_timed_out, 1);
    }

    #[test]
    fn mismatched_fingerprint_refuses_resume() {
        let samples: Vec<usize> = (0..8).collect();
        let path = tmp_path("mismatch");
        run_campaign(
            &samples,
            1,
            RecoveryPolicy::default(),
            &CampaignConfig {
                checkpoint: Some(path.clone()),
                ..CampaignConfig::default()
            },
            fp(8),
            eval,
        )
        .unwrap();
        let mut wrong = fp(8);
        wrong.master_seed = 43;
        let err = run_campaign(
            &samples,
            1,
            RecoveryPolicy::default(),
            &CampaignConfig {
                resume: Some(path.clone()),
                ..CampaignConfig::default()
            },
            wrong,
            eval,
        )
        .unwrap_err();
        assert!(matches!(
            err,
            CheckpointError::FingerprintMismatch {
                field: "master seed",
                ..
            }
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_resume_file_is_a_typed_io_error() {
        let samples: Vec<usize> = (0..2).collect();
        let err = run_campaign(
            &samples,
            1,
            RecoveryPolicy::default(),
            &CampaignConfig {
                resume: Some(tmp_path("never-written")),
                ..CampaignConfig::default()
            },
            fp(2),
            eval,
        )
        .unwrap_err();
        assert!(matches!(err, CheckpointError::Io { op: "read", .. }));
    }

    #[test]
    fn resume_reaps_orphan_tmp_sibling() {
        let samples: Vec<usize> = (0..6).collect();
        let path = tmp_path("reap");
        run_campaign(
            &samples,
            1,
            RecoveryPolicy::default(),
            &CampaignConfig {
                checkpoint: Some(path.clone()),
                sample_budget: Some(3),
                ..CampaignConfig::default()
            },
            fp(6),
            eval,
        )
        .unwrap();
        // Simulate a crash mid-write: a torn staging file next to the
        // (valid) snapshot.
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = PathBuf::from(tmp);
        std::fs::write(&tmp, b"torn partial checkpoint write\x00garbage").unwrap();
        let res = run_campaign(
            &samples,
            1,
            RecoveryPolicy::default(),
            &CampaignConfig {
                checkpoint: Some(path.clone()),
                resume: Some(path.clone()),
                ..CampaignConfig::default()
            },
            fp(6),
            eval,
        )
        .unwrap();
        assert_eq!(res.verdict, CampaignVerdict::Complete);
        assert!(!tmp.exists(), "orphaned .tmp must be reaped on resume");
        // Reaping again is a no-op, not an error.
        assert!(!reap_orphan_tmp(&path));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn reap_tmp_in_dir_sweeps_only_tmp_files() {
        let dir = std::env::temp_dir().join(format!("linvar-reap-dir-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("a.ckpt"), b"keep").unwrap();
        std::fs::write(dir.join("a.ckpt.tmp"), b"torn").unwrap();
        std::fs::write(dir.join("b.ckpt.tmp"), b"torn").unwrap();
        assert_eq!(reap_tmp_in_dir(&dir), 2);
        assert!(dir.join("a.ckpt").exists(), "real snapshots are kept");
        assert!(!dir.join("a.ckpt.tmp").exists());
        assert_eq!(reap_tmp_in_dir(&dir), 0, "sweep is idempotent");
        assert_eq!(reap_tmp_in_dir(&dir.join("missing")), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cancel_flag_truncates_then_resume_completes_identically() {
        let samples: Vec<usize> = (0..24).collect();
        let clean = run_campaign(
            &samples,
            1,
            RecoveryPolicy::default(),
            &CampaignConfig::default(),
            fp(24),
            eval,
        )
        .unwrap();
        let path = tmp_path("cancel");
        let cancel = Arc::new(AtomicBool::new(false));
        let hits = AtomicUsize::new(0);
        let first = run_campaign(
            &samples,
            2,
            RecoveryPolicy::default(),
            &CampaignConfig {
                checkpoint: Some(path.clone()),
                cancel: Some(cancel.clone()),
                ..CampaignConfig::default()
            },
            fp(24),
            |k: &usize, attempt: usize| {
                // Trip the flag partway through: later claims must stop.
                if hits.fetch_add(1, Ordering::Relaxed) == 7 {
                    cancel.store(true, Ordering::Relaxed);
                }
                eval(k, attempt)
            },
        )
        .unwrap();
        assert!(
            matches!(first.verdict, CampaignVerdict::Truncated { .. }),
            "cancel mid-run must truncate, got {:?}",
            first.verdict
        );
        assert!(first.completed < 24 && first.completed >= 8);
        let second = run_campaign(
            &samples,
            2,
            RecoveryPolicy::default(),
            &CampaignConfig {
                resume: Some(path.clone()),
                ..CampaignConfig::default()
            },
            fp(24),
            eval,
        )
        .unwrap();
        assert_eq!(second.verdict, CampaignVerdict::Complete);
        let a: Vec<u64> = clean.values.iter().map(|v| v.to_bits()).collect();
        let b: Vec<u64> = second.values.iter().map(|v| v.to_bits()).collect();
        assert_eq!(a, b, "cancel + resume must be bitwise-identical");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn pre_set_cancel_flag_evaluates_nothing() {
        let samples: Vec<usize> = (0..5).collect();
        let res = run_campaign(
            &samples,
            2,
            RecoveryPolicy::default(),
            &CampaignConfig {
                cancel: Some(Arc::new(AtomicBool::new(true))),
                ..CampaignConfig::default()
            },
            fp(5),
            eval,
        )
        .unwrap();
        assert_eq!(res.verdict, CampaignVerdict::Truncated { remaining: 5 });
        assert_eq!(res.evaluated, 0);
    }

    #[test]
    fn fingerprint_helpers_are_stable_and_sensitive() {
        assert_eq!(fingerprint_words([1, 2]), fingerprint_words([1, 2]));
        assert_ne!(fingerprint_words([1, 2]), fingerprint_words([2, 1]));
        assert_ne!(fingerprint_str("inv"), fingerprint_str("nand2"));
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
    }
}
