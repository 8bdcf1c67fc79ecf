//! Checkpoint corruption and fingerprint-mismatch rejection.
//!
//! The durability contract: a damaged snapshot — truncated mid-write,
//! bit-flipped by storage rot, or plain garbage — must be rejected by the
//! checksum with a typed [`CheckpointError`], never panic, and never
//! yield a partial load; a snapshot of a *different* campaign (other
//! seed, policy, sample count, or model) must refuse to resume.

use linvar_stats::{
    fingerprint_str, load_checkpoint, run_campaign, save_checkpoint, CampaignConfig,
    CampaignFingerprint, CheckpointError, RecoveryPolicy, SampleRecord, SampleStatus,
};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

fn tmp_path(tag: &str) -> PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let k = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "linvar-ckpt-corruption-{}-{tag}-{k}.ckpt",
        std::process::id()
    ))
}

fn fingerprint() -> CampaignFingerprint {
    CampaignFingerprint {
        master_seed: 99,
        n_samples: 12,
        policy: RecoveryPolicy::default(),
        model: fingerprint_str("corruption-suite"),
    }
}

fn records() -> Vec<Option<SampleRecord>> {
    (0..12)
        .map(|k| {
            if k == 5 {
                Some(SampleRecord {
                    status: SampleStatus::Failed,
                    attempts: 4,
                    outcome: Err("solver diverged\nat stage 2".into()),
                })
            } else {
                Some(SampleRecord {
                    status: SampleStatus::Clean,
                    attempts: 1,
                    outcome: Ok((k as f64).exp() * 1e-12),
                })
            }
        })
        .collect()
}

fn write_snapshot(tag: &str) -> PathBuf {
    let path = tmp_path(tag);
    save_checkpoint(&path, &fingerprint(), &records()).expect("snapshot written");
    path
}

#[test]
fn truncated_snapshots_are_rejected() {
    let path = write_snapshot("truncate");
    let full = std::fs::read(&path).expect("readable");
    // Cut the file at every prefix length that drops at least one byte:
    // a torn write can stop anywhere. All must fail typed, none panic.
    for cut in (0..full.len()).step_by(17).chain([full.len() - 1]) {
        std::fs::write(&path, &full[..cut]).expect("written");
        let err = load_checkpoint(&path, &fingerprint())
            .expect_err(&format!("cut at {cut} must be rejected"));
        assert!(
            matches!(
                err,
                CheckpointError::Malformed { .. }
                    | CheckpointError::ChecksumMismatch { .. }
                    | CheckpointError::VersionMismatch { .. }
            ),
            "cut at {cut}: unexpected error class {err:?}"
        );
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn bit_flips_are_rejected_by_the_checksum() {
    let path = write_snapshot("bitflip");
    let full = std::fs::read(&path).expect("readable");
    // Flip a bit in every region of the file: header, sample lines, and
    // the checksum line itself.
    for pos in (0..full.len()).step_by(23) {
        let mut damaged = full.clone();
        damaged[pos] ^= 0x10;
        std::fs::write(&path, &damaged).expect("written");
        match load_checkpoint(&path, &fingerprint()) {
            Err(_) => {}
            Ok(ck) => {
                // A flip can land in a spot the checksum covers but the
                // parser round-trips identically (it cannot: the checksum
                // is over the raw bytes). Loading successfully would mean
                // the flip escaped detection entirely.
                panic!("bit flip at {pos} loaded successfully: {ck:?}");
            }
        }
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn garbage_and_empty_files_fail_typed() {
    let path = tmp_path("garbage");
    for body in [
        &b""[..],
        b"not a checkpoint at all\n",
        b"sum=0123456789abcdef\n",
        &[0xff, 0xfe, 0x00, 0x80, 0x13],
    ] {
        std::fs::write(&path, body).expect("written");
        let err = load_checkpoint(&path, &fingerprint()).expect_err("garbage must be rejected");
        assert!(
            matches!(
                err,
                CheckpointError::Malformed { .. }
                    | CheckpointError::ChecksumMismatch { .. }
                    | CheckpointError::VersionMismatch { .. }
            ),
            "unexpected error class {err:?}"
        );
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn wrong_version_is_its_own_error() {
    let path = write_snapshot("version");
    let text = std::fs::read_to_string(&path).expect("readable");
    let body = text.replace("linvar-campaign-v1", "linvar-campaign-v9");
    // Re-checksum so the version check (not the checksum) is what trips.
    let payload_end = body.rfind("sum=").expect("has checksum line");
    let payload = &body[..payload_end];
    let sum = linvar_stats::fnv1a64(payload.as_bytes());
    std::fs::write(&path, format!("{payload}sum={sum:016x}\n")).expect("written");
    let err = load_checkpoint(&path, &fingerprint()).expect_err("version must be rejected");
    assert!(
        matches!(err, CheckpointError::VersionMismatch { ref found } if found == "linvar-campaign-v9"),
        "{err:?}"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn duplicate_and_out_of_range_indices_are_malformed() {
    let path = write_snapshot("dup");
    let text = std::fs::read_to_string(&path).expect("readable");
    for (find, replace) in [("s 3 ", "s 2 "), ("s 3 ", "s 99 ")] {
        let body = text.replacen(find, replace, 1);
        let payload_end = body.rfind("sum=").expect("has checksum line");
        let payload = &body[..payload_end];
        let sum = linvar_stats::fnv1a64(payload.as_bytes());
        std::fs::write(&path, format!("{payload}sum={sum:016x}\n")).expect("written");
        let err = load_checkpoint(&path, &fingerprint()).expect_err("must be rejected");
        assert!(
            matches!(err, CheckpointError::Malformed { .. }),
            "{find}→{replace}: {err:?}"
        );
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn intact_snapshot_still_loads_after_all_that() {
    // Sanity: the suite's baseline snapshot is actually valid.
    let path = write_snapshot("sanity");
    let ck = load_checkpoint(&path, &fingerprint()).expect("intact snapshot loads");
    assert_eq!(ck.fingerprint, fingerprint());
    assert_eq!(ck.outcomes, records());
    std::fs::remove_file(&path).ok();
}

#[test]
fn mismatched_fingerprints_refuse_to_resume() {
    let path = write_snapshot("fingerprint");
    let base = fingerprint();
    let cases: Vec<(&str, CampaignFingerprint)> = vec![
        (
            "master seed",
            CampaignFingerprint {
                master_seed: 100,
                ..base
            },
        ),
        (
            "sample count",
            CampaignFingerprint {
                n_samples: 13,
                ..base
            },
        ),
        (
            "recovery policy",
            CampaignFingerprint {
                policy: RecoveryPolicy {
                    max_retries: 0,
                    allow_fallback: false,
                    fail_fast: false,
                },
                ..base
            },
        ),
        (
            "model fingerprint",
            CampaignFingerprint {
                model: fingerprint_str("some other circuit"),
                ..base
            },
        ),
    ];
    for (field, wrong) in cases {
        let err = load_checkpoint(&path, &wrong).expect_err("must refuse");
        assert!(
            matches!(err, CheckpointError::FingerprintMismatch { field: f, .. } if f == field),
            "expected {field} mismatch, got {err:?}"
        );
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn run_campaign_refuses_a_mismatched_resume_end_to_end() {
    let path = write_snapshot("e2e");
    let samples: Vec<usize> = (0..12).collect();
    let mut wrong = fingerprint();
    wrong.master_seed = 1;
    let err = run_campaign(
        &samples,
        2,
        RecoveryPolicy::default(),
        &CampaignConfig {
            resume: Some(path.clone()),
            ..CampaignConfig::default()
        },
        wrong,
        |&k: &usize, _| -> Result<(f64, SampleStatus), String> {
            Ok((k as f64, SampleStatus::Clean))
        },
    )
    .expect_err("mismatched resume must refuse");
    assert!(matches!(
        err,
        CheckpointError::FingerprintMismatch {
            field: "master seed",
            ..
        }
    ));
    // And a corrupted file refuses too — no partial load reaches the run.
    let mut bytes = std::fs::read(&path).expect("readable");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&path, &bytes).expect("written");
    let err = run_campaign(
        &samples,
        2,
        RecoveryPolicy::default(),
        &CampaignConfig {
            resume: Some(path.clone()),
            ..CampaignConfig::default()
        },
        fingerprint(),
        |&k: &usize, _| -> Result<(f64, SampleStatus), String> {
            Ok((k as f64, SampleStatus::Clean))
        },
    )
    .expect_err("corrupt resume must refuse");
    assert!(
        !matches!(err, CheckpointError::Io { .. }),
        "corruption must be detected as such, got {err:?}"
    );
    std::fs::remove_file(&path).ok();
}
