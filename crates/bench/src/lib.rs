//! Shared helpers for the paper-reproduction benchmark binaries.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the DATE
//! 2002 paper (see `DESIGN.md` for the experiment index). This library crate
//! holds what they share: the table formatter, the [`BenchError`] type
//! (typed errors + process exit codes instead of panics), the
//! [`BenchArgs`] parser for the campaign flags
//! (`--checkpoint`/`--resume`/`--deadline`/`--shards`/`--metrics`) and
//! the [`RunSpec`] it builds, the one campaign runner [`run_points`]
//! behind the `chains` and `acgrid` bins, and the [`BenchMeter`]
//! observability harness that emits the machine-readable
//! `BENCH_<bin>.json` report.

#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod budget;
pub mod chains;
pub mod grid;
mod meter;

pub use linvar_serve::bits_hex;
pub use meter::BenchMeter;

use linvar_circuit::CircuitError;
use linvar_core::CoreError;
use linvar_numeric::NumericError;
use linvar_spice::SpiceError;
use linvar_stats::{
    execute, run_spectral, AnalysisKind, CampaignConfig, CampaignFingerprint, CheckpointError,
    HistogramError, MonteCarloResult, RecoveryPolicy, RunError, RunSpec, SampleStatus, ShardConfig,
    SpectralPlan, SpectralResult,
};
use linvar_teta::TetaError;
use std::fmt;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Error type of the benchmark binaries.
///
/// Every user-reachable failure — bad flags, missing benchmark data, a
/// solver error, a rejected checkpoint — surfaces as a variant here and
/// maps to a process exit code via [`BenchError::exit_code`], instead of
/// an `unwrap`/`expect` panic.
#[derive(Debug)]
pub enum BenchError {
    /// Bad command-line usage (exit code 2).
    Usage(String),
    /// A campaign checkpoint was rejected or could not be written (exit
    /// code 3) — distinct so wrappers can tell "stale/corrupt snapshot"
    /// from a simulation failure.
    Checkpoint(CheckpointError),
    /// A framework-layer failure.
    Core(CoreError),
    /// Netlist construction failed.
    Circuit(CircuitError),
    /// Linear algebra failed.
    Numeric(NumericError),
    /// A TETA evaluation failed.
    Teta(TetaError),
    /// A SPICE reference run failed.
    Spice(SpiceError),
    /// Anything else (benchmark data lookups, measurement probes, …).
    Msg(String),
}

impl BenchError {
    /// Process exit code for this failure: 2 for usage errors, 3 for
    /// checkpoint problems, 1 otherwise.
    pub fn exit_code(&self) -> i32 {
        match self {
            BenchError::Usage(_) => 2,
            BenchError::Checkpoint(_) => 3,
            _ => 1,
        }
    }
}

impl fmt::Display for BenchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BenchError::Usage(msg) => write!(f, "usage: {msg}"),
            BenchError::Checkpoint(e) => write!(f, "checkpoint: {e}"),
            BenchError::Core(e) => write!(f, "{e}"),
            BenchError::Circuit(e) => write!(f, "circuit: {e}"),
            BenchError::Numeric(e) => write!(f, "numeric: {e}"),
            BenchError::Teta(e) => write!(f, "teta: {e}"),
            BenchError::Spice(e) => write!(f, "spice: {e}"),
            BenchError::Msg(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for BenchError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BenchError::Checkpoint(e) => Some(e),
            BenchError::Core(e) => Some(e),
            BenchError::Circuit(e) => Some(e),
            BenchError::Numeric(e) => Some(e),
            BenchError::Teta(e) => Some(e),
            BenchError::Spice(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CoreError> for BenchError {
    fn from(e: CoreError) -> Self {
        // Surface checkpoint rejections under their own exit code even
        // when they arrive wrapped by the framework layer.
        match e {
            CoreError::Checkpoint(c) => BenchError::Checkpoint(c),
            other => BenchError::Core(other),
        }
    }
}

impl From<CheckpointError> for BenchError {
    fn from(e: CheckpointError) -> Self {
        BenchError::Checkpoint(e)
    }
}

impl From<RunError> for BenchError {
    fn from(e: RunError) -> Self {
        CoreError::from(e).into()
    }
}

impl From<CircuitError> for BenchError {
    fn from(e: CircuitError) -> Self {
        BenchError::Circuit(e)
    }
}

impl From<NumericError> for BenchError {
    fn from(e: NumericError) -> Self {
        BenchError::Numeric(e)
    }
}

impl From<TetaError> for BenchError {
    fn from(e: TetaError) -> Self {
        BenchError::Teta(e)
    }
}

impl From<SpiceError> for BenchError {
    fn from(e: SpiceError) -> Self {
        BenchError::Spice(e)
    }
}

impl From<HistogramError> for BenchError {
    fn from(e: HistogramError) -> Self {
        BenchError::Msg(format!("histogram: {e}"))
    }
}

impl From<String> for BenchError {
    fn from(msg: String) -> Self {
        BenchError::Msg(msg)
    }
}

impl From<&str> for BenchError {
    fn from(msg: &str) -> Self {
        BenchError::Msg(msg.to_string())
    }
}

/// Statistics engine selected with `--engine` on the multi-engine bins
/// (`table4`, `fig7`, `chains`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// Monte Carlo over the LHS sample stream (the default).
    #[default]
    Mc,
    /// Hermite-basis polynomial chaos (stochastic testing / collocation).
    Gpc,
    /// Monte Carlo over the Sobol quasi-MC sample stream.
    Sobol,
}

impl Engine {
    /// Stable engine name — also the prefix of the engine's
    /// deterministic output rows (`mc …`, `gpc …`, `sobol …`).
    pub fn name(self) -> &'static str {
        match self {
            Engine::Mc => "mc",
            Engine::Gpc => "gpc",
            Engine::Sobol => "sobol",
        }
    }

    fn parse(raw: &str) -> Result<Engine, BenchError> {
        match raw {
            "mc" => Ok(Engine::Mc),
            "gpc" => Ok(Engine::Gpc),
            "sobol" => Ok(Engine::Sobol),
            other => Err(BenchError::Usage(format!(
                "--engine wants mc, gpc or sobol, got {other:?}"
            ))),
        }
    }
}

/// Command-line arguments shared by the campaign-capable bins
/// (`table4`, `table5`, `fig7`, `example2`).
#[derive(Debug, Clone, Default)]
pub struct BenchArgs {
    /// `--quick`: reduced sample counts / skipped configurations.
    pub quick: bool,
    /// `--checkpoint <prefix>`: write per-run snapshots under this path
    /// prefix (each campaign appends `.<tag>.ckpt`, or with `--shards`
    /// `.<tag>.shard<k>of<N>.ckpt`).
    pub checkpoint: Option<PathBuf>,
    /// `--resume <prefix>`: resume campaigns whose snapshot under this
    /// prefix exists (missing snapshots start fresh).
    pub resume: Option<PathBuf>,
    /// `--deadline <secs>`: wall-clock budget for the whole process.
    pub deadline: Option<Duration>,
    /// `--metrics <path>`: also write the machine-readable metrics
    /// report (the `BENCH_<bin>.json` content) to this path.
    pub metrics: Option<PathBuf>,
    /// `--shards <N>`: run each Monte-Carlo campaign as `N` contiguous
    /// shards, one after another, each with its own snapshot (output
    /// stays byte-identical to an unsharded run).
    pub shards: Option<usize>,
    /// `--shard-index <K>`: process-per-shard mode — run only shard `K`
    /// of the `--shards` plan and write its snapshot (requires
    /// `--checkpoint`); a later `--shards N --resume <prefix>` run
    /// merges the snapshots.
    pub shard_index: Option<usize>,
    /// `--engine <mc|gpc|sobol>`: statistics engine for the
    /// multi-engine bins.
    pub engine: Engine,
    /// `--analysis <tran|ac>`: per-sample analysis on the bins that have
    /// a frequency-domain mode (`chains`). Default is transient.
    pub analysis: AnalysisKind,
}

impl BenchArgs {
    /// Parses `argv` (without the program name). Unknown flags are a
    /// [`BenchError::Usage`] error.
    pub fn parse<I: Iterator<Item = String>>(mut argv: I) -> Result<BenchArgs, BenchError> {
        fn value<I: Iterator<Item = String>>(
            argv: &mut I,
            flag: &str,
        ) -> Result<String, BenchError> {
            argv.next()
                .ok_or_else(|| BenchError::Usage(format!("{flag} requires a value")))
        }
        let mut out = BenchArgs::default();
        while let Some(arg) = argv.next() {
            match arg.as_str() {
                "--quick" => out.quick = true,
                "--checkpoint" => {
                    out.checkpoint = Some(PathBuf::from(value(&mut argv, "--checkpoint")?));
                }
                "--resume" => {
                    out.resume = Some(PathBuf::from(value(&mut argv, "--resume")?));
                }
                "--metrics" => {
                    out.metrics = Some(PathBuf::from(value(&mut argv, "--metrics")?));
                }
                "--deadline" => {
                    let raw = value(&mut argv, "--deadline")?;
                    let secs: f64 = raw.parse().map_err(|_| {
                        BenchError::Usage(format!("--deadline wants seconds, got {raw:?}"))
                    })?;
                    let deadline = Duration::try_from_secs_f64(secs).map_err(|_| {
                        BenchError::Usage(format!(
                            "--deadline wants a non-negative number of seconds within \
                             range, got {raw:?}"
                        ))
                    })?;
                    out.deadline = Some(deadline);
                }
                "--shards" => {
                    let raw = value(&mut argv, "--shards")?;
                    let n: usize = raw.parse().unwrap_or(0);
                    if n == 0 {
                        return Err(BenchError::Usage(format!(
                            "--shards wants a positive shard count, got {raw:?}"
                        )));
                    }
                    out.shards = Some(n);
                }
                "--shard-index" => {
                    let raw = value(&mut argv, "--shard-index")?;
                    let k: usize = raw.parse().map_err(|_| {
                        BenchError::Usage(format!(
                            "--shard-index wants a shard number, got {raw:?}"
                        ))
                    })?;
                    out.shard_index = Some(k);
                }
                "--engine" => {
                    out.engine = Engine::parse(&value(&mut argv, "--engine")?)?;
                }
                "--analysis" => {
                    let raw = value(&mut argv, "--analysis")?;
                    out.analysis = AnalysisKind::parse(&raw).ok_or_else(|| {
                        BenchError::Usage(format!("--analysis wants tran or ac, got {raw:?}"))
                    })?;
                    if out.analysis == AnalysisKind::IrDrop {
                        return Err(BenchError::Usage(
                            "--analysis irdrop is the acgrid bin's workload, not a chains mode"
                                .into(),
                        ));
                    }
                }
                other => {
                    return Err(BenchError::Usage(format!(
                        "unknown argument {other:?} (expected --quick, --checkpoint <prefix>, \
                         --resume <prefix>, --deadline <secs>, --metrics <path>, --shards <N>, \
                         --shard-index <K>, --engine <mc|gpc|sobol>, --analysis <tran|ac>)"
                    )));
                }
            }
        }
        Ok(out)
    }

    /// Snapshot path of one campaign: `<prefix>.<tag>.ckpt`, or with
    /// `--shards` the prefix `<prefix>.<tag>` that each shard extends to
    /// `<prefix>.<tag>.shard<k>of<N>.ckpt`.
    fn snapshot_path(&self, prefix: &std::path::Path, tag: &str) -> PathBuf {
        let mut os = prefix.as_os_str().to_owned();
        os.push(format!(".{tag}"));
        if self.shards.is_none() {
            os.push(".ckpt");
        }
        PathBuf::from(os)
    }

    /// Builds the [`CampaignConfig`] for one campaign of this run.
    ///
    /// * the checkpoint and resume paths are `--checkpoint` and
    ///   `--resume` narrowed by the tag (see `snapshot_path`);
    /// * a resume snapshot is used only if it exists (first runs of a
    ///   `--resume`d invocation start fresh) — a sharded run makes that
    ///   check per shard;
    /// * the process-wide `--deadline` is converted to this campaign's
    ///   remaining budget, measured from `run_start` — an exhausted
    ///   budget yields a zero deadline, so later campaigns truncate
    ///   immediately (writing empty, resumable snapshots) instead of
    ///   running over.
    pub fn campaign_config(&self, tag: &str, run_start: Instant) -> CampaignConfig {
        CampaignConfig {
            checkpoint: self.checkpoint.as_ref().map(|p| self.snapshot_path(p, tag)),
            resume: self
                .resume
                .as_ref()
                .map(|p| self.snapshot_path(p, tag))
                .filter(|p| self.shards.is_some() || p.exists()),
            deadline: self.deadline.map(|d| d.saturating_sub(run_start.elapsed())),
            ..CampaignConfig::default()
        }
    }

    /// The [`RunSpec`] of one campaign of this run: `base`'s worker
    /// count and policy, plus the campaign knobs of
    /// [`BenchArgs::campaign_config`] and the shard plan of
    /// [`BenchArgs::shard_config`] — every bin builds its runs here.
    ///
    /// # Errors
    ///
    /// The usage errors of [`BenchArgs::shard_config`].
    pub fn run_spec(
        &self,
        tag: &str,
        run_start: Instant,
        base: RunSpec,
    ) -> Result<RunSpec, BenchError> {
        Ok(RunSpec {
            campaign: self.campaign_config(tag, run_start),
            shards: self.shard_config()?,
            ..base
        })
    }

    /// `true` once the process-wide `--deadline` has elapsed — bins use
    /// this to skip auxiliary measurements (e.g. SPICE baselines) that
    /// are not checkpointable.
    pub fn deadline_exhausted(&self, run_start: Instant) -> bool {
        self.deadline.is_some_and(|d| run_start.elapsed() >= d)
    }

    /// Rejects the campaign flags for bins that have no campaign driver
    /// (`ablation`, `example1`): accepting `--checkpoint` and silently
    /// doing nothing would be worse than a usage error.
    pub fn reject_campaign_flags(&self, bin: &str) -> Result<(), BenchError> {
        if self.checkpoint.is_some() || self.resume.is_some() || self.deadline.is_some() {
            return Err(BenchError::Usage(format!(
                "{bin} has no campaign mode (--checkpoint/--resume/--deadline unsupported)"
            )));
        }
        Ok(())
    }

    /// Rejects the shard flags for bins without a sharded driver
    /// (`table5`, `example2`, `ablation`, `example1`).
    pub fn reject_shard_flags(&self, bin: &str) -> Result<(), BenchError> {
        if self.shards.is_some() || self.shard_index.is_some() {
            return Err(BenchError::Usage(format!(
                "{bin} has no sharded mode (--shards/--shard-index unsupported)"
            )));
        }
        Ok(())
    }

    /// Rejects a non-default `--analysis` for bins without a
    /// frequency-domain mode (every bin except `chains`).
    pub fn reject_analysis_flag(&self, bin: &str) -> Result<(), BenchError> {
        if self.analysis != AnalysisKind::Transient {
            return Err(BenchError::Usage(format!(
                "{bin} has no AC mode (--analysis unsupported)"
            )));
        }
        Ok(())
    }

    /// Rejects a non-default `--engine` for single-engine bins, and the
    /// shard flags for the spectral/Sobol engines on multi-engine bins
    /// (only the MC/LHS driver runs sharded).
    pub fn validate_engine(&self, bin: &str, multi_engine: bool) -> Result<(), BenchError> {
        if !multi_engine && self.engine != Engine::Mc {
            return Err(BenchError::Usage(format!(
                "{bin} has a single statistics engine (--engine unsupported)"
            )));
        }
        if self.engine != Engine::Mc && (self.shards.is_some() || self.shard_index.is_some()) {
            return Err(BenchError::Usage(format!(
                "--shards/--shard-index support only --engine mc (got --engine {})",
                self.engine.name()
            )));
        }
        Ok(())
    }

    /// Builds the [`ShardConfig`] of this run, or `None` when
    /// `--shards` was not given. The snapshot and resume prefixes, and
    /// the `--deadline` budget the shards share, are in
    /// [`BenchArgs::campaign_config`].
    ///
    /// * `--shard-index` runs only that shard and leaves its snapshot as
    ///   the output, so it needs `--checkpoint`;
    /// * a later `--shards N --resume <prefix>` run merges the
    ///   per-process snapshots.
    pub fn shard_config(&self) -> Result<Option<ShardConfig>, BenchError> {
        let Some(n_shards) = self.shards else {
            if self.shard_index.is_some() {
                return Err(BenchError::Usage(
                    "--shard-index requires --shards <N>".into(),
                ));
            }
            return Ok(None);
        };
        if self.shard_index.is_some() && self.checkpoint.is_none() {
            return Err(BenchError::Usage(
                "--shard-index requires --checkpoint <prefix> (the shard snapshot is \
                 the worker's output)"
                    .into(),
            ));
        }
        Ok(Some(ShardConfig {
            n_shards,
            shard_index: self.shard_index,
        }))
    }
}

/// The sample points of one bench campaign.
#[derive(Debug, Clone, Copy)]
pub enum Points<'a> {
    /// Monte-Carlo draws (LHS or Sobol), one sample per point.
    Draws(&'a [Vec<f64>]),
    /// The nodes of a spectral plan; each germ coordinate is scaled by
    /// `sigma` before evaluation.
    Nodes {
        /// The spectral plan.
        plan: &'a SpectralPlan,
        /// Standard deviation of every parameter, in germ units.
        sigma: f64,
    },
}

/// What one bench campaign produced.
#[derive(Debug, Clone)]
pub struct PointsRun {
    /// The executor's merged result (raw node values for a spectral run).
    pub mc: MonteCarloResult,
    /// The spectral estimate of a completed [`Points::Nodes`] run.
    pub spectral: Option<SpectralResult>,
}

/// The one campaign runner of the `chains` and `acgrid` bins: evaluates
/// `eval` at every point under `spec` through the executor (a spectral
/// plan through [`run_spectral`]), one attempt per point.
///
/// A spectral rule cannot quarantine a node, so a [`Points::Nodes`] run
/// stops at its first failed node. `fingerprint` keys the snapshots of
/// a sharded run; its `master_seed` also seeds a spectral run's
/// surrogate quantiles.
///
/// # Errors
///
/// Run-plan and checkpoint errors, a failed spectral node or solve, and
/// a campaign in which every point failed (per-point failures are
/// reported in the result, not raised). `name` labels the messages.
pub fn run_points(
    name: &str,
    points: Points<'_>,
    spec: &RunSpec,
    fingerprint: &CampaignFingerprint,
    eval: impl Fn(&[f64]) -> Result<f64, BenchError> + Sync,
) -> Result<PointsRun, BenchError> {
    let f = |w: &[f64], _attempt: usize| eval(w).map(|v| (v, SampleStatus::Clean));
    let run = match points {
        Points::Draws(samples) => PointsRun {
            mc: execute(samples, spec, fingerprint, |w: &Vec<f64>, a| f(w, a))?,
            spectral: None,
        },
        Points::Nodes { plan, sigma } => {
            let spec = RunSpec {
                policy: RecoveryPolicy {
                    fail_fast: true,
                    ..spec.policy
                },
                ..spec.clone()
            };
            let run = run_spectral(plan, &spec, fingerprint, |node, a| {
                let w: Vec<f64> = node.iter().map(|x| x * sigma).collect();
                f(&w, a)
            })
            .map_err(|e| BenchError::Msg(format!("{name}: {e}")))?;
            PointsRun {
                mc: run.nodes,
                spectral: run.result,
            }
        }
    };
    if run.mc.summary.n == 0 {
        return Err(BenchError::Msg(format!(
            "{name}: all {} samples failed ({})",
            run.mc.sample_health.len(),
            run.mc.first_error.as_deref().unwrap_or("no error recorded")
        )));
    }
    Ok(run)
}

/// Looks up a named probability in a spectral result's `(p, value)`
/// quantile list (NaN if the surrogate was not asked for it).
pub fn quantile_at(quantiles: &[(f64, f64)], p: f64) -> f64 {
    quantiles
        .iter()
        .find(|(q, _)| (q - p).abs() < 1e-12)
        .map(|&(_, v)| v)
        .unwrap_or(f64::NAN)
}

/// Renders a simple fixed-width text table with a header row.
///
/// # Example
///
/// ```
/// let t = linvar_bench::render_table(
///     &["circuit", "speedup"],
///     &[vec!["s27".to_string(), "8.1".to_string()]],
/// );
/// assert!(t.contains("s27"));
/// ```
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let ncols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (j, cell) in row.iter().enumerate().take(ncols) {
            widths[j] = widths[j].max(cell.len());
        }
    }
    let mut out = String::new();
    let sep: String = widths
        .iter()
        .map(|w| "-".repeat(w + 2))
        .collect::<Vec<_>>()
        .join("+");
    out.push_str(&format!("+{sep}+\n"));
    out.push('|');
    for (h, w) in headers.iter().zip(&widths) {
        out.push_str(&format!(" {h:w$} |", w = w));
    }
    out.push('\n');
    out.push_str(&format!("+{sep}+\n"));
    for row in rows {
        out.push('|');
        for (j, w) in widths.iter().enumerate() {
            let empty = String::new();
            let cell = row.get(j).unwrap_or(&empty);
            out.push_str(&format!(" {cell:w$} |", w = w));
        }
        out.push('\n');
    }
    out.push_str(&format!("+{sep}+\n"));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_contains_all_cells() {
        let t = render_table(
            &["a", "b"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
        for needle in ["a", "b", "1", "2", "333", "4"] {
            assert!(t.contains(needle), "missing {needle} in:\n{t}");
        }
    }

    #[test]
    fn table_handles_short_rows() {
        let t = render_table(&["x", "y"], &[vec!["only".into()]]);
        assert!(t.contains("only"));
    }

    fn argv(args: &[&str]) -> impl Iterator<Item = String> {
        args.iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>()
            .into_iter()
    }

    #[test]
    fn args_parse_roundtrip() {
        let a = BenchArgs::parse(argv(&[
            "--quick",
            "--checkpoint",
            "/tmp/t4",
            "--resume",
            "/tmp/t4",
            "--deadline",
            "2.5",
            "--metrics",
            "/tmp/m.json",
        ]))
        .unwrap();
        assert!(a.quick);
        assert_eq!(
            a.checkpoint.as_deref(),
            Some(std::path::Path::new("/tmp/t4"))
        );
        assert_eq!(a.resume.as_deref(), Some(std::path::Path::new("/tmp/t4")));
        assert_eq!(a.deadline, Some(Duration::from_secs_f64(2.5)));
        assert_eq!(
            a.metrics.as_deref(),
            Some(std::path::Path::new("/tmp/m.json"))
        );
        let none = BenchArgs::parse(argv(&[])).unwrap();
        assert!(!none.quick && none.deadline.is_none() && none.metrics.is_none());
        assert!(none.shards.is_none() && none.shard_index.is_none());
        let sharded = BenchArgs::parse(argv(&["--shards", "4", "--shard-index", "2"])).unwrap();
        assert_eq!(sharded.shards, Some(4));
        assert_eq!(sharded.shard_index, Some(2));
    }

    #[test]
    fn args_reject_bad_usage() {
        for bad in [
            vec!["--frobnicate"],
            vec!["--checkpoint"],
            vec!["--metrics"],
            vec!["--deadline", "soon"],
            vec!["--deadline", "-1"],
            vec!["--shards"],
            vec!["--shards", "0"],
            vec!["--shards", "four"],
            vec!["--shard-index"],
            vec!["--shard-index", "two"],
        ] {
            let err = BenchArgs::parse(argv(&bad)).unwrap_err();
            assert!(matches!(err, BenchError::Usage(_)), "{bad:?} → {err}");
            assert_eq!(err.exit_code(), 2);
        }
    }

    #[test]
    fn campaign_config_derivation() {
        let a =
            BenchArgs::parse(argv(&["--checkpoint", "/tmp/pfx", "--resume", "/tmp/pfx"])).unwrap();
        let cfg = a.campaign_config("s27.10", Instant::now());
        assert_eq!(
            cfg.checkpoint.as_deref(),
            Some(std::path::Path::new("/tmp/pfx.s27.10.ckpt"))
        );
        // The resume snapshot does not exist, so the campaign starts
        // fresh instead of failing.
        assert!(cfg.resume.is_none());
        assert!(cfg.deadline.is_none());
    }

    #[test]
    fn campaign_flags_rejected_for_non_campaign_bins() {
        let plain = BenchArgs::parse(argv(&["--quick", "--metrics", "/tmp/m.json"])).unwrap();
        assert!(plain.reject_campaign_flags("example1").is_ok());
        for flags in [
            vec!["--checkpoint", "/tmp/p"],
            vec!["--resume", "/tmp/p"],
            vec!["--deadline", "1"],
        ] {
            let a = BenchArgs::parse(argv(&flags)).unwrap();
            let err = a.reject_campaign_flags("example1").unwrap_err();
            assert_eq!(err.exit_code(), 2, "{flags:?}");
        }
    }

    #[test]
    fn shard_config_derivation_and_validation() {
        // No --shards → no sharded mode.
        let plain = BenchArgs::parse(argv(&["--quick"])).unwrap();
        assert!(plain.shard_config().unwrap().is_none());
        // --shard-index without --shards is a usage error even when the
        // bin would otherwise run unsharded.
        let orphan = BenchArgs::parse(argv(&["--shard-index", "1"])).unwrap();
        assert_eq!(orphan.shard_config().unwrap_err().exit_code(), 2);
        // A per-process shard worker's snapshot IS its output.
        let worker = BenchArgs::parse(argv(&["--shards", "2", "--shard-index", "0"])).unwrap();
        assert_eq!(worker.shard_config().unwrap_err().exit_code(), 2);
        // --deadline bounds a sharded run like any other.
        let timed = BenchArgs::parse(argv(&["--shards", "2", "--deadline", "1"])).unwrap();
        let spec = timed
            .run_spec("t", Instant::now(), RunSpec::default())
            .unwrap();
        assert!(spec.campaign.deadline.is_some());
        // The shard prefixes narrow the campaign prefixes by the tag, and
        // a resume prefix is kept whether or not its snapshots exist (each
        // shard checks its own).
        let a = BenchArgs::parse(argv(&[
            "--shards",
            "4",
            "--checkpoint",
            "/tmp/pfx",
            "--resume",
            "/tmp/old",
        ]))
        .unwrap();
        let spec = a
            .run_spec("s27.10", Instant::now(), RunSpec::default())
            .unwrap();
        assert_eq!(
            spec.shards,
            Some(ShardConfig {
                n_shards: 4,
                shard_index: None
            })
        );
        assert_eq!(
            spec.campaign.checkpoint.as_deref(),
            Some(std::path::Path::new("/tmp/pfx.s27.10"))
        );
        assert_eq!(
            spec.campaign.resume.as_deref(),
            Some(std::path::Path::new("/tmp/old.s27.10"))
        );
    }

    #[test]
    fn shard_flags_rejected_for_unsharded_bins() {
        let plain = BenchArgs::parse(argv(&["--quick"])).unwrap();
        assert!(plain.reject_shard_flags("table5").is_ok());
        for flags in [
            vec!["--shards", "2"],
            vec!["--shards", "2", "--shard-index", "0"],
        ] {
            let a = BenchArgs::parse(argv(&flags)).unwrap();
            let err = a.reject_shard_flags("table5").unwrap_err();
            assert_eq!(err.exit_code(), 2, "{flags:?}");
        }
    }

    #[test]
    fn engine_flag_parsing_and_validation() {
        assert_eq!(BenchArgs::parse(argv(&[])).unwrap().engine, Engine::Mc);
        for (raw, want) in [
            ("mc", Engine::Mc),
            ("gpc", Engine::Gpc),
            ("sobol", Engine::Sobol),
        ] {
            let a = BenchArgs::parse(argv(&["--engine", raw])).unwrap();
            assert_eq!(a.engine, want, "{raw}");
            assert_eq!(a.engine.name(), raw);
        }
        let bad = BenchArgs::parse(argv(&["--engine", "qmc"])).unwrap_err();
        assert_eq!(bad.exit_code(), 2);
        // Single-engine bins refuse a non-default engine; multi-engine
        // bins refuse sharding for non-MC engines.
        let gpc = BenchArgs::parse(argv(&["--engine", "gpc"])).unwrap();
        assert_eq!(
            gpc.validate_engine("table5", false)
                .unwrap_err()
                .exit_code(),
            2
        );
        assert!(gpc.validate_engine("table4", true).is_ok());
        let sharded = BenchArgs::parse(argv(&["--engine", "gpc", "--shards", "2"])).unwrap();
        assert_eq!(
            sharded
                .validate_engine("table4", true)
                .unwrap_err()
                .exit_code(),
            2
        );
        let mc_sharded = BenchArgs::parse(argv(&["--shards", "2"])).unwrap();
        assert!(mc_sharded.validate_engine("table4", true).is_ok());
    }

    #[test]
    fn analysis_flag_parsing_and_rejection() {
        assert_eq!(
            BenchArgs::parse(argv(&[])).unwrap().analysis,
            AnalysisKind::Transient
        );
        let ac = BenchArgs::parse(argv(&["--analysis", "ac"])).unwrap();
        assert_eq!(ac.analysis, AnalysisKind::Ac);
        assert_eq!(
            ac.reject_analysis_flag("table4").unwrap_err().exit_code(),
            2
        );
        let tran = BenchArgs::parse(argv(&["--analysis", "tran"])).unwrap();
        assert!(tran.reject_analysis_flag("table4").is_ok());
        for bad in [["--analysis", "dc"], ["--analysis", "irdrop"]] {
            assert_eq!(BenchArgs::parse(argv(&bad)).unwrap_err().exit_code(), 2);
        }
    }

    #[test]
    fn exit_codes_by_class() {
        use linvar_stats::CheckpointError;
        assert_eq!(BenchError::Usage("x".into()).exit_code(), 2);
        assert_eq!(
            BenchError::Checkpoint(CheckpointError::Malformed { reason: "x".into() }).exit_code(),
            3
        );
        assert_eq!(BenchError::Msg("x".into()).exit_code(), 1);
        // Core-wrapped checkpoint errors keep the checkpoint exit code.
        let wrapped: BenchError =
            linvar_core::CoreError::Checkpoint(CheckpointError::ChecksumMismatch {
                expected: 1,
                found: 2,
            })
            .into();
        assert_eq!(wrapped.exit_code(), 3);
    }

    #[test]
    fn bits_hex_is_deterministic_text() {
        assert_eq!(bits_hex(1.0), "3ff0000000000000");
        assert_eq!(bits_hex(0.0), "0000000000000000");
    }
}
