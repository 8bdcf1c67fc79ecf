//! Correctness gate: a run whose outputs are wrong fails instead of
//! printing a number.
//!
//! Every campaign yields one deterministic result row (the statistics of
//! its samples as raw `f64` bits, or `%.6e` where two solver backends
//! must agree). At the default seed the rows of the first sweep (each
//! client's first job on `serve`) must equal the rows stored in
//! `expected/<workload>.txt` byte for byte. At any seed every statistic
//! must be finite and no sample may fail.

use std::path::Path;

/// The seed whose result rows are stored with the benchmark.
pub const DEFAULT_SEED: u64 = 1;

/// Compares the first-sweep rows of a default-seed run with the stored
/// expectation (one row per line; blank lines and `#` comments ignored).
pub fn check_rows(expected: &str, actual: &[String]) -> Result<(), String> {
    let want: Vec<&str> = expected
        .lines()
        .map(str::trim_end)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect();
    if want.len() != actual.len() {
        return Err(format!(
            "expected {} result rows, the run produced {}",
            want.len(),
            actual.len()
        ));
    }
    for (w, a) in want.iter().zip(actual) {
        if w != a {
            return Err(format!(
                "result row mismatch:\n  expected {w}\n  got      {a}"
            ));
        }
    }
    Ok(())
}

/// Reads the expectation file and checks `rows` against it, or — with
/// `bless` — writes `rows` as the new expectation.
pub fn check_or_bless(path: &Path, rows: &[String], bless: bool) -> Result<(), String> {
    if bless {
        let mut text = String::from(
            "# Result rows checked at the default seed (README.md, \"Correctness gate\").\n",
        );
        for r in rows {
            text.push_str(r);
            text.push('\n');
        }
        return std::fs::write(path, text).map_err(|e| format!("write {}: {e}", path.display()));
    }
    let expected = std::fs::read_to_string(path)
        .map_err(|e| format!("read expected rows {}: {e}", path.display()))?;
    check_rows(&expected, rows)
}

/// Fails unless every statistic is finite and nothing failed.
pub fn check_stats(what: &str, values: &[f64], failed: usize) -> Result<(), String> {
    if failed > 0 {
        return Err(format!("{what}: {failed} sample(s) failed"));
    }
    match values.iter().find(|v| !v.is_finite()) {
        Some(v) => Err(format!("{what}: non-finite statistic {v}")),
        None => Ok(()),
    }
}

/// The `%.6e` rounding at which the dense and sparse backends must agree.
pub fn row6(v: f64) -> String {
    format!("{v:.6e}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows() -> Vec<String> {
        vec![
            "s27@10: n=2 mean=3e2b0f6a1c9d8e7f std=3d0a1b2c3d4e5f60 failures=0".into(),
            "s27@500: n=2 mean=3e2c0f6a1c9d8e7f std=3d1a1b2c3d4e5f60 failures=0".into(),
        ]
    }

    #[test]
    fn identical_rows_pass() {
        let text = format!("# comment\n{}\n\n{}\n", rows()[0], rows()[1]);
        check_rows(&text, &rows()).expect("identical rows");
    }

    #[test]
    fn a_perturbed_result_bit_is_rejected() {
        let mut text = format!("{}\n{}\n", rows()[0], rows()[1]);
        // Flip the last hex digit of the first mean: one result bit.
        text = text.replacen("8e7f std", "8e7e std", 1);
        let err = check_rows(&text, &rows()).expect_err("perturbed bit must fail");
        assert!(err.contains("mismatch"), "{err}");
    }

    #[test]
    fn missing_or_extra_rows_are_rejected() {
        assert!(check_rows(&rows()[0], &rows()).is_err());
        let text = format!("{}\n{}\n{}\n", rows()[0], rows()[1], rows()[1]);
        assert!(check_rows(&text, &rows()).is_err());
    }

    #[test]
    fn failures_and_non_finite_statistics_are_rejected() {
        assert!(check_stats("x", &[1.0, 2.0], 0).is_ok());
        assert!(check_stats("x", &[1.0, f64::NAN], 0).is_err());
        assert!(check_stats("x", &[f64::INFINITY], 0).is_err());
        assert!(check_stats("x", &[1.0], 1).is_err());
    }

    #[test]
    fn bless_round_trips() {
        let dir = std::env::temp_dir().join(format!("perfbench-gate-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("rows.txt");
        check_or_bless(&path, &rows(), true).expect("bless");
        check_or_bless(&path, &rows(), false).expect("check blessed rows");
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
}
