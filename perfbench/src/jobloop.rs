//! The closed job loop shared by `paths`, `chains` and `irdrop`. One
//! client runs one *job* at a time: a sweep over the workload's
//! configurations, one library campaign on each in turn, as the
//! `table4`, `chains` and `acgrid` bins sweep their suites. Each
//! campaign has the size its bin gives it and spreads its samples over
//! [`THREADS`] workers.
//!
//! A plain run runs whole sweeps until `--seconds` of sweeping have
//! passed, rebuilding and timing the workload [`SETUP_REPS`] times along
//! the way. A traced run sets up once with the
//! metrics sink on, then runs two halves of `--seconds`: a plain half
//! through the library entry point and a traced half through the
//! workload's instrumented replica of it. Both halves start from the
//! same seeds, so their first-sweep rows must agree bit for bit.

use crate::gate;
use crate::measure::{
    beyond, job_seed, median, peak_rss_mb, percentile, Metrics, Spans, MIN_BEYOND,
};
use crate::{Args, Outcome, SETUP_REPS, THREADS};
use linvar_metrics::MetricsReport;
use std::time::Instant;

/// One completed campaign.
pub struct CampaignOut {
    /// Samples the campaign evaluated.
    pub samples: usize,
    /// Samples that failed.
    pub failed: usize,
    /// The deterministic result row of the campaign.
    pub row: String,
    /// Statistics that must be finite.
    pub stats: Vec<f64>,
}

/// A benchmark workload driven as a closed loop of sweeps.
pub trait Workload: Sized + Sync {
    /// The span the traced replica records around each sample.
    const SAMPLE_SPAN: &'static str = "sample";

    /// Builds everything needed before the first sample. With `spans`,
    /// the construction layers record into it.
    fn setup(spans: Option<&Spans>) -> Result<Self, String>;

    /// Number of configurations one sweep walks through.
    fn configs(&self) -> usize;

    /// Runs one campaign on configuration `c` with master seed `seed`:
    /// through the library entry point when `spans` is `None`, otherwise
    /// through the instrumented replica recording into `spans`.
    fn run_campaign(
        &self,
        c: usize,
        seed: u64,
        spans: Option<&Spans>,
    ) -> Result<CampaignOut, String>;

    /// Re-checks a few samples of the campaign on configuration `c`
    /// another way (another solver backend); runs after measuring.
    fn cross_check(&self, _c: usize, _seed: u64) -> Result<(), String> {
        Ok(())
    }

    /// Per-layer metrics of a traced phase that ran `phase`, given the
    /// sink snapshots of set-up and of the traced half.
    fn layers(
        &self,
        setup: &MetricsReport,
        setup_spans: &Spans,
        traced: &MetricsReport,
        spans: &Spans,
        phase: &Phase,
        m: &mut Metrics,
    );
}

/// What one measured phase did.
pub struct Phase {
    /// Seconds spent sweeping (set-ups excluded).
    pub swept_s: f64,
    /// Sweep latencies in milliseconds, sorted ascending.
    pub sweep_ms: Vec<f64>,
    pub samples: usize,
    /// Result rows of the first sweep.
    pub rows: Vec<String>,
    /// Set-up times in seconds, when the phase rebuilt the workload.
    pub setups: Vec<f64>,
}

impl Phase {
    pub fn samples_per_s(&self) -> f64 {
        self.samples as f64 / self.swept_s
    }
}

/// Runs whole sweeps until `seconds` of sweeping have passed. With
/// `time_setups`, the workload in `slot` is rebuilt and timed
/// [`SETUP_REPS`] times, spread evenly over the run: set-up then sees the
/// same load from outside the benchmark as the sweeps do.
fn drive<W: Workload>(
    slot: &mut Option<W>,
    seed: u64,
    seconds: f64,
    spans: Option<&Spans>,
    time_setups: bool,
) -> Result<Phase, String> {
    let mut phase = Phase {
        swept_s: 0.0,
        sweep_ms: Vec::new(),
        samples: 0,
        rows: Vec::new(),
        setups: Vec::new(),
    };
    let mut k = 0;
    loop {
        let due = seconds * phase.setups.len() as f64 / SETUP_REPS as f64;
        if time_setups && phase.setups.len() < SETUP_REPS && phase.swept_s >= due {
            // Free the previous build before timing the next one.
            *slot = None;
            let t = Instant::now();
            *slot = Some(W::setup(None)?);
            phase.setups.push(t.elapsed().as_secs_f64());
        }
        if !phase.sweep_ms.is_empty() && phase.swept_s >= seconds {
            break;
        }
        let w = slot
            .as_ref()
            .expect("the workload is built before it sweeps");
        let t = Instant::now();
        for c in 0..w.configs() {
            let out = w.run_campaign(c, job_seed(seed, k), spans)?;
            gate::check_stats(&out.row, &out.stats, out.failed)?;
            if phase.sweep_ms.is_empty() {
                phase.rows.push(out.row);
            }
            phase.samples += out.samples;
            k += 1;
        }
        let dt = t.elapsed().as_secs_f64();
        phase.swept_s += dt;
        phase.sweep_ms.push(dt * 1e3);
    }
    phase.sweep_ms.sort_by(f64::total_cmp);
    Ok(phase)
}

fn gate_rows<W: Workload>(w: &W, args: &Args, phase: &Phase) -> Result<(), String> {
    if args.gated_seed() || args.bless {
        gate::check_or_bless(&args.expected, &phase.rows, args.bless)?;
    }
    for c in 0..w.configs() {
        w.cross_check(c, job_seed(args.seed, c as u64))?;
    }
    Ok(())
}

/// Runs workload `W` as `args` asks.
pub fn run<W: Workload>(args: &Args) -> Result<Outcome, String> {
    let mut m = Metrics::default();
    let phase = if args.trace {
        linvar_metrics::reset();
        linvar_metrics::enable();
        let setup_spans = Spans::default();
        let mut slot = Some(W::setup(Some(&setup_spans))?);
        let setup = linvar_metrics::snapshot();
        linvar_metrics::disable();

        let plain = drive(&mut slot, args.seed, args.seconds / 2.0, None, false)?;
        linvar_metrics::reset();
        linvar_metrics::enable();
        let spans = Spans::default();
        let traced = drive(
            &mut slot,
            args.seed,
            args.seconds / 2.0,
            Some(&spans),
            false,
        )?;
        let w = slot.expect("drive keeps the workload built");
        let report = linvar_metrics::snapshot();
        linvar_metrics::disable();

        if traced.rows != plain.rows {
            return Err(format!(
                "the traced replica disagrees with the library entry point:\n  {:?}\n  {:?}",
                traced.rows, plain.rows
            ));
        }
        gate_rows(&w, args, &plain)?;
        w.layers(&setup, &setup_spans, &report, &spans, &traced, &mut m);
        m.set(
            "trace_overhead_frac",
            1.0 - traced.samples_per_s() / plain.samples_per_s(),
            "frac",
        );
        eprintln!(
            "{}: traced {} sweeps / {} samples in {:.2} s, {:.2} workers busy on average; \
             plain {} sweeps / {} samples in {:.2} s",
            args.workload,
            traced.sweep_ms.len(),
            traced.samples,
            traced.swept_s,
            spans.total(W::SAMPLE_SPAN) / traced.swept_s,
            plain.sweep_ms.len(),
            plain.samples,
            plain.swept_s
        );
        traced
    } else {
        let mut slot: Option<W> = None;
        let phase = drive(&mut slot, args.seed, args.seconds, None, true)?;
        // Read before the gate: its cross-checks re-solve samples on the
        // other backend (on `irdrop` a dense LU of the 64×64 mesh), which
        // the workload itself never does.
        m.set("peak_rss_mb", peak_rss_mb()?, "MiB");
        let w = slot.expect("drive keeps the workload built");
        gate_rows(&w, args, &phase)?;
        let p = |q| percentile(&phase.sweep_ms, q).expect("at least one sweep ran");
        m.set("setup_s", median(&phase.setups), "s");
        m.set("samples_per_s", phase.samples_per_s(), "1/s");
        m.set(
            "jobs_per_s",
            phase.sweep_ms.len() as f64 / phase.swept_s,
            "1/s",
        );
        m.set("job_ms_p50", p(0.5), "ms");
        m.set("job_ms_p90", p(0.9), "ms");
        eprintln!(
            "{}: {} sweeps of {} campaigns ({} workers each), {} samples in {:.2} s; \
             sweeps {:.3?} ms; set-ups {:.3?} s; {} sweeps lie beyond the p90 \
             (a tail needs {MIN_BEYOND})",
            args.workload,
            phase.sweep_ms.len(),
            w.configs(),
            THREADS,
            phase.samples,
            phase.swept_s,
            phase.sweep_ms,
            phase.setups,
            beyond(phase.sweep_ms.len(), 0.9)
        );
        phase
    };
    Ok(Outcome {
        metrics: m,
        attempted: phase.samples as u64,
        // The gate refuses any failed sample.
        failed: 0,
    })
}

/// Total seconds of library phase `name` in `r`.
pub fn phase_s(r: &MetricsReport, name: &str) -> f64 {
    r.timers.get(name).map_or(0.0, |t| t.total_ns as f64 * 1e-9)
}

/// Calls of library phase `name` in `r`.
pub fn phase_calls(r: &MetricsReport, name: &str) -> f64 {
    r.timers.get(name).map_or(0.0, |t| t.calls as f64)
}

/// Value of library counter `name` in `r`.
pub fn counter(r: &MetricsReport, name: &str) -> f64 {
    r.counters.get(name).copied().unwrap_or(0) as f64
}

/// Numeric-layer metrics every workload shares, per sample.
pub fn numeric_layers(r: &MetricsReport, samples: f64, m: &mut Metrics) {
    let per = |v: f64| v / samples;
    m.set(
        "numeric.lu_factor_s",
        per(phase_s(r, "lu_factor")),
        "s/sample",
    );
    m.set(
        "numeric.lu_factor_calls",
        per(phase_calls(r, "lu_factor")),
        "1/sample",
    );
    m.set(
        "numeric.lu_solve_s",
        per(phase_s(r, "lu_solve")),
        "s/sample",
    );
    m.set(
        "numeric.lu_solve_calls",
        per(phase_calls(r, "lu_solve")),
        "1/sample",
    );
    m.set(
        "numeric.lu_factor_recoveries",
        per(counter(r, "lu.factor_recoveries")),
        "1/sample",
    );
    m.set(
        "numeric.sparse_symbolic_s",
        per(phase_s(r, "symbolic")),
        "s/sample",
    );
    m.set(
        "numeric.sparse_symbolic_calls",
        per(phase_calls(r, "symbolic")),
        "1/sample",
    );
    m.set(
        "numeric.sparse_factor_s",
        per(phase_s(r, "numeric_factor")),
        "s/sample",
    );
    m.set(
        "numeric.sparse_factor_calls",
        per(phase_calls(r, "numeric_factor")),
        "1/sample",
    );
    m.set(
        "numeric.sparse_solve_s",
        per(phase_s(r, "solve")),
        "s/sample",
    );
    m.set(
        "numeric.sparse_solve_calls",
        per(phase_calls(r, "solve")),
        "1/sample",
    );
    let factors = phase_calls(r, "lu_factor") + phase_calls(r, "numeric_factor");
    let solves = phase_calls(r, "lu_solve") + phase_calls(r, "solve");
    if factors > 0.0 {
        m.set("numeric.solves_per_factor", solves / factors, "1/factor");
    }
    let hits = r.gauges.get("ws.hits").copied().unwrap_or(0.0);
    let misses = r.gauges.get("ws.misses").copied().unwrap_or(0.0);
    if hits + misses > 0.0 {
        m.set("numeric.ws_hit_frac", hits / (hits + misses), "frac");
    }
}

/// Share of `root_s` that no leaf layer covers.
pub fn unattributed(root_s: f64, leaves_s: &[f64], m: &mut Metrics) {
    let covered: f64 = leaves_s.iter().sum();
    m.set("unattributed_frac", 1.0 - covered / root_s, "frac");
}
