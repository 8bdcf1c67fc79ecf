//! Kill-and-resume determinism of the durable campaign runner.
//!
//! The contract (DESIGN.md, "Durable campaigns: checkpoint format &
//! resume invariants"): a campaign interrupted at an arbitrary point and
//! resumed from its snapshot produces a `Summary` and `HealthSummary`
//! **bitwise-identical** to an uninterrupted run, at any worker count.
//! These tests drop campaigns mid-flight at several cut points — using
//! the deterministic `sample_budget` preemption — resume them, and
//! compare everything against uninterrupted references at 1, 2 and 8
//! threads, both on a synthetic workload (dense cut-point coverage) and
//! through the full `PathModel` framework surface.

use linvar_core::path::{PathModel, PathSpec, Sampling, VariationSources};
use linvar_core::{CampaignConfig, CampaignVerdict, McPathResult, RecoveryPolicy, RunSpec};
use linvar_devices::tech_018;
use linvar_interconnect::WireTech;
use linvar_stats::{
    fnv1a64, load_checkpoint, run_campaign, CampaignFingerprint, CheckpointError, MonteCarloResult,
    SampleStatus, Summary,
};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

fn tmp_path(tag: &str) -> PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let k = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "linvar-campaign-resume-{}-{tag}-{k}.ckpt",
        std::process::id()
    ))
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
// Synthetic workload: cheap evaluator, dense cut points, mixed health.
// ---------------------------------------------------------------------

const SYNTH_N: usize = 24;

fn synth_fingerprint() -> CampaignFingerprint {
    CampaignFingerprint {
        master_seed: 7,
        n_samples: SYNTH_N,
        policy: RecoveryPolicy::default(),
        model: linvar_stats::fingerprint_str("campaign-resume-synthetic"),
    }
}

/// Deterministic evaluator with a mixed health profile: most samples are
/// clean, every 7th needs a retry, every 11th degrades, sample 13 fails
/// outright.
fn synth_eval(k: &usize, attempt: usize) -> Result<(f64, SampleStatus), String> {
    let k = *k;
    if k == 13 {
        return Err(format!("sample {k} is unserviceable (attempt {attempt})"));
    }
    if k.is_multiple_of(7) && k > 0 && attempt == 0 {
        return Err(format!("sample {k} fast path failed"));
    }
    // Succeeds only on the final (fallback) attempt of the default
    // policy's 4-attempt budget → classified Degraded.
    if k.is_multiple_of(11) && k > 0 && attempt < 3 {
        return Err(format!("sample {k} needs the fallback"));
    }
    Ok(((k as f64).sin() * 1e-10 + 2e-10, SampleStatus::Clean))
}

fn synth_run(threads: usize, config: &CampaignConfig) -> MonteCarloResult {
    let samples: Vec<usize> = (0..SYNTH_N).collect();
    run_campaign(
        &samples,
        threads,
        RecoveryPolicy::default(),
        config,
        synth_fingerprint(),
        synth_eval,
    )
    .expect("campaign runs")
}

#[test]
fn synthetic_kill_and_resume_is_bitwise_identical() {
    let clean = synth_run(1, &CampaignConfig::default());
    assert!(clean.failures > 0, "the profile must exercise failures");
    assert!(clean.health.n_recovered > 0 && clean.health.n_degraded > 0);
    let clean_bits: Vec<u64> = clean.values.iter().map(|v| v.to_bits()).collect();

    for cut in [0, 1, SYNTH_N / 2, SYNTH_N - 1, SYNTH_N] {
        for threads in [1, 2, 8] {
            let path = tmp_path(&format!("synth-{cut}-{threads}"));
            let first = synth_run(
                threads,
                &CampaignConfig {
                    checkpoint: Some(path.clone()),
                    sample_budget: Some(cut),
                    checkpoint_every: 4,
                    ..CampaignConfig::default()
                },
            );
            if cut < SYNTH_N {
                assert!(
                    matches!(first.verdict, CampaignVerdict::Truncated { .. }),
                    "cut={cut} threads={threads} should truncate"
                );
            }
            // Partial statistics are valid over the completed prefix of
            // work: count matches what was evaluated.
            assert_eq!(first.completed, first.summary.n + first.failures);
            let second = synth_run(
                threads,
                &CampaignConfig {
                    checkpoint: Some(path.clone()),
                    resume: Some(path.clone()),
                    ..CampaignConfig::default()
                },
            );
            assert_eq!(second.verdict, CampaignVerdict::Complete);
            assert_eq!(second.resumed, first.completed);
            let bits: Vec<u64> = second.values.iter().map(|v| v.to_bits()).collect();
            assert_eq!(bits, clean_bits, "values at cut={cut} threads={threads}");
            assert_summaries_bitwise(
                &second.summary,
                &clean.summary,
                &format!("cut={cut} threads={threads}"),
            );
            assert_eq!(second.health, clean.health, "cut={cut} threads={threads}");
            assert_eq!(second.sample_health, clean.sample_health);
            assert_eq!(second.failed_indices, clean.failed_indices);
            assert_eq!(second.first_error, clean.first_error);
            std::fs::remove_file(&path).ok();
        }
    }
}

#[test]
fn synthetic_double_interruption_chains() {
    // Two successive interruptions before completion: 0..8, 8..16, rest.
    let clean = synth_run(1, &CampaignConfig::default());
    let path = tmp_path("synth-chain");
    let mut last = None;
    for leg in 0..3 {
        let res = synth_run(
            2,
            &CampaignConfig {
                checkpoint: Some(path.clone()),
                resume: if leg == 0 { None } else { Some(path.clone()) },
                sample_budget: if leg < 2 { Some(8) } else { None },
                ..CampaignConfig::default()
            },
        );
        last = Some(res);
    }
    let last = last.expect("three legs ran");
    assert_eq!(last.verdict, CampaignVerdict::Complete);
    assert_eq!(last.resumed, 16);
    assert_summaries_bitwise(&last.summary, &clean.summary, "chained resume");
    assert_eq!(last.health, clean.health);
    std::fs::remove_file(&path).ok();
}

/// A snapshot with a valid checksum whose `n=` header names an absurd
/// sample count must be refused with a typed fingerprint mismatch before
/// anything is sized by that count — a crafted file must never abort the
/// loader with an allocation failure or a capacity-overflow panic.
#[test]
fn crafted_sample_count_is_refused_before_allocation() {
    let fp = synth_fingerprint();
    for n in ["1125899906842624", "18446744073709551615"] {
        let path = tmp_path("crafted-n");
        let payload = format!(
            "linvar-campaign-v1\nscheme=stdrng-lhs-v1\nseed={}\nn={n}\npolicy=2 1 0\n\
             model={:016x}\ns 0 C 1 v 3ff0000000000000\n",
            fp.master_seed, fp.model
        );
        let sum = fnv1a64(payload.as_bytes());
        std::fs::write(&path, format!("{payload}sum={sum:016x}\n")).expect("written");
        let err = load_checkpoint(&path, &fp).expect_err("absurd n must be refused");
        assert!(
            matches!(
                err,
                CheckpointError::FingerprintMismatch {
                    field: "sample count",
                    ..
                }
            ),
            "n={n}: {err:?}"
        );
        let samples: Vec<usize> = (0..SYNTH_N).collect();
        let resumed = run_campaign(
            &samples,
            2,
            RecoveryPolicy::default(),
            &CampaignConfig {
                resume: Some(path.clone()),
                ..CampaignConfig::default()
            },
            fp,
            synth_eval,
        );
        assert!(
            matches!(resumed, Err(CheckpointError::FingerprintMismatch { .. })),
            "n={n}: resume must refuse, got {:?}",
            resumed.map(|r| r.verdict)
        );
        std::fs::remove_file(&path).ok();
    }
}

// ---------------------------------------------------------------------
// Framework surface: PathModel::monte_carlo_campaign.
// ---------------------------------------------------------------------

fn small_path() -> PathModel {
    let spec = PathSpec {
        cells: vec!["inv".into(), "nand2".into(), "inv".into()],
        linear_elements_between_stages: 10,
        input_slew: 50e-12,
    };
    PathModel::build(&spec, &tech_018(), &WireTech::m018()).expect("path builds")
}

fn path_run(model: &PathModel, threads: usize, config: &CampaignConfig) -> McPathResult {
    model
        .monte_carlo_campaign(
            &VariationSources::example3(0.33, 0.33),
            8,
            21,
            threads,
            RecoveryPolicy::default(),
            config,
        )
        .expect("campaign runs")
}

#[test]
fn path_model_kill_and_resume_is_bitwise_identical() {
    let model = small_path();
    let clean = path_run(&model, 1, &CampaignConfig::default());
    assert_eq!(clean.verdict, CampaignVerdict::Complete);
    assert_eq!(clean.completed, 8);
    let clean_bits: Vec<u64> = clean.delays.iter().map(|d| d.to_bits()).collect();

    for threads in [1, 2, 8] {
        let path = tmp_path(&format!("path-{threads}"));
        let first = path_run(
            &model,
            threads,
            &CampaignConfig {
                checkpoint: Some(path.clone()),
                sample_budget: Some(3),
                checkpoint_every: 2,
                ..CampaignConfig::default()
            },
        );
        assert_eq!(first.verdict, CampaignVerdict::Truncated { remaining: 5 });
        assert_eq!(first.completed, 3);
        assert!(first.checkpoints_written >= 1);
        let second = path_run(
            &model,
            threads,
            &CampaignConfig {
                checkpoint: Some(path.clone()),
                resume: Some(path.clone()),
                ..CampaignConfig::default()
            },
        );
        assert_eq!(second.verdict, CampaignVerdict::Complete);
        assert_eq!(second.resumed, 3);
        assert_eq!(second.evaluated, 5);
        let bits: Vec<u64> = second.delays.iter().map(|d| d.to_bits()).collect();
        assert_eq!(bits, clean_bits, "delays at {threads} threads");
        assert_summaries_bitwise(&second.summary, &clean.summary, "path model");
        assert_eq!(second.health, clean.health);
        assert_eq!(second.sample_health, clean.sample_health);
        std::fs::remove_file(&path).ok();
    }

    // The durable campaign agrees with a plain run when every sample is
    // clean — the checkpoint machinery adds no numerical drift.
    let plain = model
        .run(
            &VariationSources::example3(0.33, 0.33),
            Sampling::Lhs(8),
            21,
            &RunSpec::plain(2),
        )
        .expect("plain mc runs");
    let plain_bits: Vec<u64> = plain.delays.iter().map(|d| d.to_bits()).collect();
    assert_eq!(plain_bits, clean_bits);
}

#[test]
fn path_model_deadline_truncation_is_graceful_and_resumable() {
    let model = small_path();
    let path = tmp_path("path-deadline");
    let first = path_run(
        &model,
        2,
        &CampaignConfig {
            checkpoint: Some(path.clone()),
            deadline: Some(std::time::Duration::ZERO),
            ..CampaignConfig::default()
        },
    );
    // Valid partial statistics (here: empty) plus a Truncated verdict.
    assert_eq!(first.verdict, CampaignVerdict::Truncated { remaining: 8 });
    assert_eq!(first.summary.n, 0);
    assert_eq!(first.completed, 0);
    // The final snapshot exists and resumes to completion.
    let clean = path_run(&model, 1, &CampaignConfig::default());
    let second = path_run(
        &model,
        8,
        &CampaignConfig {
            resume: Some(path.clone()),
            ..CampaignConfig::default()
        },
    );
    assert_eq!(second.verdict, CampaignVerdict::Complete);
    assert_summaries_bitwise(&second.summary, &clean.summary, "deadline resume");
    std::fs::remove_file(&path).ok();
}

/// A deadline past what `Instant` can represent never expires: `execute`
/// completes with the bits of the same run without a deadline.
#[test]
fn unrepresentable_deadline_means_no_deadline() {
    let samples: Vec<usize> = (0..SYNTH_N).collect();
    let run = |deadline| {
        let config = CampaignConfig {
            deadline,
            ..CampaignConfig::default()
        };
        let spec = RunSpec::durable(2, RecoveryPolicy::default(), &config);
        linvar_stats::execute(&samples, &spec, &synth_fingerprint(), synth_eval)
            .expect("campaign runs")
    };
    let base = run(None);
    let far = run(Some(std::time::Duration::MAX));
    assert_eq!(far.verdict, CampaignVerdict::Complete);
    assert_summaries_bitwise(&far.summary, &base.summary, "Duration::MAX deadline");
    let bits = |r: &MonteCarloResult| r.values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&far), bits(&base));
    assert_eq!(far.health, base.health);
}

/// `--deadline` rejects a number of seconds no `Duration` holds with a
/// usage error (exit 2) instead of panicking; 1e19 s fits and parses.
#[test]
fn oversized_deadline_flag_is_a_usage_error() {
    use linvar_bench::{BenchArgs, BenchError};
    let parse =
        |raw: &str| BenchArgs::parse(["--deadline".to_string(), raw.to_string()].into_iter());
    for raw in ["1e20", "inf", "NaN", "-1"] {
        let err = parse(raw).expect_err(raw);
        assert!(matches!(err, BenchError::Usage(_)), "{raw}: {err}");
        assert_eq!(err.exit_code(), 2, "{raw}");
    }
    let fits = parse("1e19").expect("1e19 s fits a Duration");
    assert_eq!(
        fits.deadline,
        Some(std::time::Duration::from_secs(10_000_000_000_000_000_000))
    );
}
