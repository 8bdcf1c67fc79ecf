//! Measurement helpers shared by every workload: percentile selection,
//! peak-RSS parsing, per-job seeds, bench-side spans and the one-line
//! JSON result.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// Observations a tail percentile needs beyond it to be more than a
/// handful of outliers; runs report how many theirs had.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest-rank position of percentile `p` among `n > 0` values.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile of `sorted` (ascending) at `p` in `(0, 1]`:
/// the smallest value with at least `p · n` observations at or below
/// it. `None` for an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    (!sorted.is_empty()).then(|| sorted[rank(sorted.len(), p) - 1])
}

/// Observations strictly after the nearest-rank position of `p`.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// The median of `values` (any order): the mean of the two middle
/// observations for an even count.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// Peak resident set size in MiB from the text of `/proc/self/status`
/// (the `VmHWM` line, reported by the kernel in kB).
pub fn parse_vm_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut parts = line["VmHWM:".len()..].split_whitespace();
    let kb: f64 = parts.next()?.parse().ok()?;
    (parts.next()? == "kB").then_some(kb / 1024.0)
}

/// This process's peak resident set size in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    parse_vm_hwm_mb(&status).ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// The master seed of job `j` in a run seeded with `seed` (splitmix64):
/// every job draws distinct inputs, and the same `(seed, j)` always
/// draws the same ones.
pub fn job_seed(seed: u64, j: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(j.wrapping_add(1).wrapping_mul(0xbf58_476d_1ce4_e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Durations (seconds) of bench-side spans, by layer name. Shared by
/// the worker threads of one traced phase; empty and unused when the
/// run is not traced.
#[derive(Default)]
pub struct Spans {
    by_name: Mutex<BTreeMap<String, Vec<f64>>>,
}

impl Spans {
    /// Runs `f`, recording its wall time under `name`.
    pub fn time<R>(&self, name: &str, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let out = f();
        self.record(name, t.elapsed().as_secs_f64());
        out
    }

    /// Records one span of `secs` seconds under `name`.
    pub fn record(&self, name: &str, secs: f64) {
        self.by_name
            .lock()
            .expect("span lock poisoned by a panicking worker")
            .entry(name.to_string())
            .or_default()
            .push(secs);
    }

    /// Total seconds recorded under `name` (0 when none).
    pub fn total(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }

    /// Every duration recorded under `name`, sorted ascending.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        let mut v = self
            .by_name
            .lock()
            .expect("span lock poisoned by a panicking worker")
            .get(name)
            .cloned()
            .unwrap_or_default();
        v.sort_by(f64::total_cmp);
        v
    }
}

/// Metric values by name, each with its unit.
#[derive(Default)]
pub struct Metrics(BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.insert(name.to_string(), (value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).map(|(v, _)| *v)
    }

    /// The metrics must be exactly `names`, so the output and
    /// `BENCHMARK.json` cannot drift apart.
    pub fn check_only(&self, names: &[(&str, &str)]) -> Result<(), String> {
        if let Some(k) = self.0.keys().find(|k| !names.iter().any(|(n, _)| n == k)) {
            return Err(format!("metric {k} is not declared"));
        }
        match names.iter().find(|(n, _)| !self.0.contains_key(*n)) {
            Some((n, _)) => Err(format!("metric {n} was not measured")),
            None => Ok(()),
        }
    }

    /// Every value must be finite: a NaN or ∞ metric is a benchmark bug.
    pub fn check_finite(&self) -> Result<(), String> {
        match self.0.iter().find(|(_, (v, _))| !v.is_finite()) {
            Some((k, (v, _))) => Err(format!("metric {k} is not finite ({v})")),
            None => Ok(()),
        }
    }

    /// The one-line result object: `correct`, `attempted`, `failed` and
    /// `metrics` (each `{"value": .., "unit": ..}`).
    pub fn result_line(&self, attempted: u64, failed: u64) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(k, (v, u))| format!("\"{k}\": {{\"value\": {}, \"unit\": \"{u}\"}}", num(*v)))
            .collect();
        format!(
            "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            body.join(", ")
        )
    }
}

/// A JSON number with every digit of `v` (shortest round-trip form).
fn num(v: f64) -> String {
    let s = format!("{v:?}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(50.0));
        assert_eq!(percentile(&v, 0.9), Some(90.0));
        assert_eq!(percentile(&v, 1.0), Some(100.0));
        assert_eq!(percentile(&[7.0], 0.9), Some(7.0));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&[1.0, 2.0, 3.0], 0.5), Some(2.0));
    }

    #[test]
    fn p90_needs_a_hundred_observations_for_ten_beyond() {
        assert_eq!(beyond(100, 0.9), 10);
        assert!(beyond(99, 0.9) < MIN_BEYOND);
        assert!(beyond(1000, 0.9) >= MIN_BEYOND);
        assert_eq!(beyond(20, 0.5), 10);
        assert!(beyond(19, 0.5) < MIN_BEYOND);
        assert_eq!(beyond(0, 0.9), 0);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn vm_hwm_parsing() {
        let status =
            "Name:\tperfbench\nVmPeak:\t  300000 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 10240 kB\n";
        assert_eq!(parse_vm_hwm_mb(status), Some(20.0));
        assert_eq!(parse_vm_hwm_mb("VmRSS:\t 10240 kB\n"), None);
        assert_eq!(parse_vm_hwm_mb("VmHWM:\t lots kB\n"), None);
        assert_eq!(parse_vm_hwm_mb("VmHWM:\t 2048 MB\n"), None);
        assert!(peak_rss_mb().expect("linux procfs") > 0.0);
    }

    #[test]
    fn job_seeds_are_distinct_and_reproducible() {
        let a: Vec<u64> = (0..64).map(|j| job_seed(1, j)).collect();
        let mut sorted = a.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), a.len());
        assert_eq!(job_seed(1, 5), a[5]);
        assert_ne!(job_seed(2, 5), a[5]);
    }

    #[test]
    fn result_line_is_one_json_object() {
        let mut m = Metrics::default();
        m.set("setup_s", 0.5, "s");
        m.set("samples_per_s", 12.25, "1/s");
        let line = m.result_line(10, 0);
        assert!(!line.contains('\n'));
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0,"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}"));
        assert_eq!(num(3.0), "3.0");
    }
}
