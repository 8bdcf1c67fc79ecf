//! The machine-readable bench report: every benchmark binary wraps
//! its run in a [`BenchMeter`], which enables the [`linvar_metrics`]
//! sink, lets the bin attach run-level facts (accuracy deltas, speedup
//! ratios, sample counts), and on completion writes a canonical-JSON
//! report — `BENCH_<bin>.json` next to the process, plus a copy at
//! `--metrics <path>` when given.
//!
//! The report has four top-level sections (keys sorted, 2-space indent):
//!
//! * `"bench"` — bin name, wall time, and whatever the bin attached via
//!   [`BenchMeter::set`];
//! * `"counters"` — the deterministic work counts (identical for the
//!   same seed at any thread count, modulo the fail-fast/deadline
//!   caveats documented in `linvar_metrics`) — this is the section CI
//!   diffs between same-seed runs;
//! * `"gauges"` — run-dependent scalars (wall seconds, samples/sec);
//! * `"timers"` — per-phase call counts, total nanoseconds, and log2-ns
//!   histograms.

use crate::{BenchArgs, BenchError};
use linvar_metrics::Json;
use std::path::Path;
use std::time::Instant;

/// Observability harness for one benchmark binary run.
///
/// Construct with [`BenchMeter::start`] as the first act of `run()`
/// (it resets and enables the metrics sink), attach run-level facts
/// with [`BenchMeter::set`], and call [`BenchMeter::finish`] last.
#[derive(Debug)]
pub struct BenchMeter {
    bin: &'static str,
    start: Instant,
    extra: Json,
}

impl BenchMeter {
    /// Resets and enables the process-wide metrics sink and starts the
    /// wall clock. `bin` names the output file: `BENCH_<bin>.json`.
    pub fn start(bin: &'static str) -> BenchMeter {
        linvar_metrics::reset();
        linvar_metrics::enable();
        BenchMeter {
            bin,
            start: Instant::now(),
            extra: Json::obj(),
        }
    }

    /// Attaches a bin-specific entry to the report's `bench` section
    /// (accuracy deltas, speedup ratios, configuration names, …).
    pub fn set(&mut self, key: &str, value: impl Into<Json>) -> &mut Self {
        self.extra.set(key, value);
        self
    }

    /// Finalizes the report: folds this thread's local buffers into
    /// the sink, snapshots it, derives run-level gauges, and writes the
    /// report to `BENCH_<bin>.json` (and to `--metrics <path>` if set).
    ///
    /// # Errors
    ///
    /// [`BenchError::Msg`] if a report file cannot be written.
    pub fn finish(self, args: &BenchArgs) -> Result<(), BenchError> {
        // An empty directory joins to the bare file name: the CWD.
        self.finish_in(Path::new(""), args)
    }

    /// [`BenchMeter::finish`] with `BENCH_<bin>.json` written into `dir`.
    fn finish_in(self, dir: &Path, args: &BenchArgs) -> Result<(), BenchError> {
        linvar_metrics::flush_local();
        let wall = self.start.elapsed().as_secs_f64();
        let mut report = linvar_metrics::snapshot();
        report.set_gauge("wall_seconds", wall);
        let completed = report
            .counters
            .get("mc.samples_completed")
            .copied()
            .unwrap_or(0);
        if completed > 0 && wall > 0.0 {
            report.set_gauge("mc.samples_per_sec", completed as f64 / wall);
        }
        let mut bench = self.extra;
        bench.set("bin", self.bin);
        bench.set("quick", args.quick);
        bench.set("wall_seconds", wall);
        let mut top = report.to_json_value();
        top.set("bench", bench);
        let text = top.render();
        let default_path = dir.join(format!("BENCH_{}.json", self.bin));
        write_report(&default_path, &text)?;
        if let Some(path) = &args.metrics {
            write_report(path, &text)?;
        }
        Ok(())
    }
}

fn write_report(path: &Path, text: &str) -> Result<(), BenchError> {
    std::fs::write(path, text)
        .map_err(|e| BenchError::Msg(format!("cannot write metrics report {path:?}: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    /// A directory removed on drop, so also when the test fails.
    struct TempDir(PathBuf);

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn meter_writes_canonical_report_with_bench_section() {
        let _guard = linvar_metrics::test_lock();
        let tmp =
            TempDir(std::env::temp_dir().join(format!("linvar_meter_test-{}", std::process::id())));
        let dir = &tmp.0;
        std::fs::create_dir_all(dir).unwrap();
        let out = dir.join("meter.json");
        let mut meter = BenchMeter::start("metertest");
        linvar_metrics::incr(linvar_metrics::Counter::McSamplesCompleted);
        meter.set("speedup", 8.5);
        let args = BenchArgs {
            metrics: Some(out.clone()),
            ..BenchArgs::default()
        };
        // The default report goes into the temp dir instead of the CWD,
        // beside the --metrics copy.
        meter.finish_in(dir, &args).unwrap();
        let text = std::fs::read_to_string(&out).unwrap();
        let default = std::fs::read_to_string(dir.join("BENCH_metertest.json")).unwrap();
        assert_eq!(text, default, "--metrics copy must match the default");
        for needle in [
            "\"bench\"",
            "\"bin\": \"metertest\"",
            "\"speedup\": 8.5",
            "\"counters\"",
            "\"mc.samples_completed\": 1",
            "\"gauges\"",
            "\"wall_seconds\"",
            "\"timers\"",
        ] {
            assert!(text.contains(needle), "missing {needle} in:\n{text}");
        }
        assert!(text.ends_with('\n'));
        linvar_metrics::disable();
        linvar_metrics::reset();
    }
}
