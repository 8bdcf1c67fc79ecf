//! Golden fixture for the `chains` benchmark rows: the exact `mc` stat
//! lines of the quick suite, pinned byte-for-byte, plus the raw `f64`
//! bit patterns of the sparse-backend statistics behind them.
//!
//! The determinism contract is asserted *before* the fixture compare:
//!
//! * 1, 2 and 8 Monte-Carlo worker threads reproduce the same delay
//!   values bit-for-bit (streamed LHS sampling + deterministic merge);
//! * the dense and sparse solver backends print the same `mc` row (their
//!   ~1e-10 relative difference vanishes at `%.6e`), each pinned per run
//!   via `TransientOptions::solver`;
//! * the bench runner prints the same row under 3 shards, and as a
//!   checkpointed campaign cut after two samples and then resumed.
//!
//! Regenerate after an intended numeric change with:
//!
//! ```sh
//! LINVAR_BLESS=1 cargo test --test golden_chains
//! ```

use linvar_bench::chains::{chains_fingerprint, delay_for_sample, mc_line, run_case, sample_set};
use linvar_bench::{run_points, Points};
use linvar_interconnect::{htree_case, rc_chain_case, ChainCase};
use linvar_numeric::SolverChoice;
use linvar_stats::{CampaignConfig, CampaignVerdict, RunSpec, ShardConfig};
use std::fmt::Write as _;
use std::path::PathBuf;

/// `f64` as its 16-hex-digit bit pattern (the benches' `bits_hex` form).
fn hex(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/chains_rows.txt")
}

fn check_or_bless(rows: &[(String, String)]) {
    let mut rendered =
        String::from("# Golden fixture: exact f64 bit patterns (LINVAR_BLESS=1 regenerates).\n");
    for (k, v) in rows {
        let _ = writeln!(rendered, "{k} = {v}");
    }
    let path = fixture_path();
    if std::env::var("LINVAR_BLESS").is_ok_and(|v| v == "1") {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &rendered).unwrap();
        eprintln!("blessed {}", path.display());
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {} ({e}); generate it with \
             `LINVAR_BLESS=1 cargo test --test golden_chains`",
            path.display()
        )
    });
    if expected != rendered {
        let diff = expected
            .lines()
            .zip(rendered.lines())
            .find(|(a, b)| a != b)
            .map(|(a, b)| format!("first difference:\n  golden: {a}\n  actual: {b}"))
            .unwrap_or_else(|| "line counts differ".to_string());
        panic!(
            "golden chains fixture drifted — solver numerics changed. {diff}\n\
             If the change is intended, regenerate with \
             `LINVAR_BLESS=1 cargo test --test golden_chains` and commit the diff."
        );
    }
}

/// The case's `mc` row through the bench runner under `spec`.
fn runner_line(
    case: &ChainCase,
    samples: &[Vec<f64>],
    spec: &RunSpec,
) -> (String, CampaignVerdict) {
    let fp = chains_fingerprint(&case.name, samples.len());
    let run = run_points(&case.name, Points::Draws(samples), spec, &fp, |w| {
        delay_for_sample(case, w, SolverChoice::Sparse)
    })
    .unwrap();
    let line = mc_line(&case.name, &run.mc.summary, run.mc.failures);
    (line, run.mc.verdict)
}

/// The bench runner must print `base_line` under 3 shards, and as a
/// checkpointed campaign cut after two samples and then resumed.
fn assert_runner_rows(case: &ChainCase, samples: &[Vec<f64>], base_line: &str) {
    let sharded = RunSpec {
        shards: Some(ShardConfig {
            n_shards: 3,
            shard_index: None,
        }),
        ..RunSpec::plain(2)
    };
    let (line, _) = runner_line(case, samples, &sharded);
    assert_eq!(line, base_line, "{}: 3-shard row", case.name);

    let ckpt = std::env::temp_dir().join(format!(
        "linvar-golden-chains-{}-{}.ckpt",
        std::process::id(),
        case.name
    ));
    let durable = |campaign: CampaignConfig| RunSpec {
        campaign,
        ..RunSpec::plain(2)
    };
    let (_, cut) = runner_line(
        case,
        samples,
        &durable(CampaignConfig {
            checkpoint: Some(ckpt.clone()),
            sample_budget: Some(2),
            ..CampaignConfig::default()
        }),
    );
    assert!(
        matches!(cut, CampaignVerdict::Truncated { .. }),
        "{}: the cut must truncate",
        case.name
    );
    let (line, verdict) = runner_line(
        case,
        samples,
        &durable(CampaignConfig {
            checkpoint: Some(ckpt.clone()),
            resume: Some(ckpt.clone()),
            ..CampaignConfig::default()
        }),
    );
    assert_eq!(verdict, CampaignVerdict::Complete);
    assert_eq!(line, base_line, "{}: cut-and-resumed row", case.name);
    std::fs::remove_file(&ckpt).ok();
}

/// One test covers every backend × thread-count combination so nothing
/// in the binary mutates shared process state concurrently.
#[test]
fn golden_chains_rows_across_backends_and_threads() {
    let samples = sample_set(6); // matches the bin's --quick campaign
    let cases = [rc_chain_case(500).unwrap(), htree_case(4).unwrap()];
    let mut rows = Vec::new();
    for case in &cases {
        let base = run_case(case, &samples, 1, SolverChoice::Sparse).unwrap();
        let base_line = mc_line(&case.name, &base.summary, base.failures);
        // Thread sweep: bitwise-identical values, hence identical rows.
        for threads in [2, 8] {
            let mc = run_case(case, &samples, threads, SolverChoice::Sparse).unwrap();
            assert_eq!(
                mc.values, base.values,
                "{}: sparse values differ between 1 and {threads} threads",
                case.name
            );
            assert_eq!(mc_line(&case.name, &mc.summary, mc.failures), base_line);
        }
        // Backend sweep: dense is feasible at these quick-suite sizes and
        // must print the very same bytes.
        let dense = run_case(case, &samples, 2, SolverChoice::Dense).unwrap();
        assert_eq!(
            mc_line(&case.name, &dense.summary, dense.failures),
            base_line,
            "{}: dense and sparse mc rows diverged",
            case.name
        );
        assert_runner_rows(case, &samples, &base_line);
        rows.push((format!("{}.line", case.name), base_line));
        rows.push((format!("{}.mean", case.name), hex(base.summary.mean)));
        rows.push((format!("{}.std", case.name), hex(base.summary.std)));
        for (i, d) in base.values.iter().enumerate() {
            rows.push((format!("{}.delay.{i}", case.name), hex(*d)));
        }
    }
    check_or_bless(&rows);
}

/// The `chains` bin runs the dense backend beside the sparse one only
/// where the matrix each sample factors has order at most
/// `DENSE_MAX_ORDER`: the MNA dimension for the transient, twice it for
/// the AC analysis's real embedding. Every full-suite decision, listed.
#[test]
fn chains_dense_backend_is_gated_on_the_factored_order() {
    use linvar_bench::chains::{factored_order, runs_dense};
    use linvar_stats::AnalysisKind;
    let cases = linvar_interconnect::standard_cases(false).unwrap();
    let decisions: Vec<_> = cases
        .iter()
        .map(|case| {
            let at = |a| (factored_order(case, a), runs_dense(case, a));
            (
                case.name.as_str(),
                at(AnalysisKind::Transient),
                at(AnalysisKind::Ac),
            )
        })
        .collect();
    assert_eq!(
        decisions,
        [
            ("chain2x500", (1004, true), (2008, true)),
            ("htree4", (2081, true), (4162, true)),
            ("chain2x2500", (5004, false), (10008, false)),
            ("htree6", (3201, true), (6402, false)),
            ("chain2x10000", (20004, false), (40008, false)),
        ]
    );
}
