//! Critical-path delay statistics (paper §4.3).
//!
//! A [`PathModel`] holds one precharacterized [`StageModel`] per stage —
//! built **once**, since the chord models and therefore the effective
//! loads do not depend on the fluctuating parameters. Two statistics
//! engines run on top:
//!
//! * [`PathModel::run`] (§4.3.1) — per sample, the stages are simulated
//!   in topological order and the *full piecewise-linear output
//!   waveform* is propagated to the next stage's input. One call covers
//!   every statistics engine: LHS or Sobol Monte Carlo and Hermite
//!   polynomial chaos ([`Sampling`]), under any [`RunSpec`] — worker
//!   count, recovery policy, durable checkpoints, shards — with
//!   bitwise-identical results (the sample set is a pure function of the
//!   master seed, evaluation is read-only `&self`);
//! * [`PathModel::gradient_analysis`] (§4.3.2) — one nominal pass plus
//!   central-difference perturbations of the input-slew and every
//!   variation source per stage; the saturated-ramp parameters `(M, S)`
//!   and their derivatives chain through eq. (31) and σ(D) follows from
//!   eq. (24).
//!
//! [`StageModel`]: linvar_teta::StageModel

use crate::error::CoreError;
use crate::recovery::{DegradationReport, EngineRung};
use crate::stage_builder::{build_stage_load, StageLoad, StageLoadSpec};
use linvar_devices::{CellLibrary, DeviceVariation, Technology};
use linvar_interconnect::WireTech;
use linvar_mor::ReductionMethod;
use linvar_stats::{
    execute, fingerprint_str, fingerprint_words, lhs_normal, rng_from_seed, run_spectral,
    sobol_normal_streamed, CampaignConfig, CampaignFingerprint, CampaignVerdict, HealthSummary,
    MonteCarloResult, RecoveryPolicy, RunSpec, SampleHealth, SampleRng, SampleStatus,
    SpectralConfig, SpectralPlan, SpectralResult, Summary,
};
use linvar_teta::{StageModel, StopRule, Waveform};
use std::sync::{Arc, Mutex};

/// Tail multiple of the cut `m + k·s` past which a path drops each stage
/// output before it drives the next stage.
const PATH_TAIL: f64 = 4.0;

/// Specification of a critical path.
#[derive(Debug, Clone)]
pub struct PathSpec {
    /// Primitive cell name per stage (`inv`, `nand2`, `nand3`, `nor2`,
    /// `nor3`).
    pub cells: Vec<String>,
    /// Linear interconnect elements between consecutive stages (the
    /// Table-4 knob: 10 or 500).
    pub linear_elements_between_stages: usize,
    /// Transition time of the saturated ramp driving the path input (s).
    pub input_slew: f64,
}

/// Standard deviations of the variation sources, in normalized units
/// (1 normalized unit = one 3σ manufacturing tolerance, so a source at its
/// specified tolerance has σ = 1/3 ≈ 0.33 — the paper's `std(DL) = 0.33`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VariationSources {
    /// σ of the five wire parameters (W, T, S, H, ρ).
    pub wire: [f64; 5],
    /// σ of the channel-length reduction source `DL`.
    pub dl: f64,
    /// σ of the threshold source `VT`.
    pub vt: f64,
}

impl VariationSources {
    /// The paper's Example-3 configuration: device sources only.
    pub fn example3(dl: f64, vt: f64) -> Self {
        VariationSources {
            wire: [0.0; 5],
            dl,
            vt,
        }
    }

    /// The Example-3 Table-4 sampling: channel length plus the W and H
    /// wire parameters, each at the standard normalized σ.
    pub fn example3_table4() -> Self {
        VariationSources {
            wire: [1.0 / 3.0, 0.0, 0.0, 1.0 / 3.0, 0.0],
            dl: 1.0 / 3.0,
            vt: 0.0,
        }
    }

    /// All seven sources at a common σ.
    pub fn uniform(sigma: f64) -> Self {
        VariationSources {
            wire: [sigma; 5],
            dl: sigma,
            vt: sigma,
        }
    }

    /// Active sources as `(label, σ)` pairs in canonical order
    /// (W, T, S, H, rho, DL, VT).
    pub fn active(&self) -> Vec<(&'static str, f64)> {
        const WIRE_NAMES: [&str; 5] = ["W", "T", "S", "H", "rho"];
        let mut out = Vec::new();
        for (i, &s) in self.wire.iter().enumerate() {
            if s > 0.0 {
                out.push((WIRE_NAMES[i], s));
            }
        }
        if self.dl > 0.0 {
            out.push(("DL", self.dl));
        }
        if self.vt > 0.0 {
            out.push(("VT", self.vt));
        }
        out
    }
}

/// One sampled point of the variation space.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PathSample {
    /// Wire parameter values (normalized).
    pub wire: [f64; 5],
    /// Device variation values.
    pub device: DeviceVariation,
}

/// Where a [`PathModel::run`] draws its variation samples from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Sampling {
    /// `n` Latin-Hypercube draws from `rng_from_seed(master_seed)`
    /// ([`PathModel::draw_samples`]).
    Lhs(usize),
    /// `n` points of the digitally-shifted Sobol sequence
    /// ([`PathModel::draw_samples_sobol`]).
    Sobol(usize),
    /// The collocation/testing nodes of a Hermite polynomial-chaos plan
    /// over the **active** variation sources.
    Spectral(SpectralConfig),
}

/// Result of a path-delay run ([`PathModel::run`]).
///
/// Statistics cover every *completed* sample — restored from a resume
/// snapshot or evaluated in this run — merged in sample-index order,
/// exactly as an uninterrupted single-process run would produce them.
/// An all-failed run is not an error: the health summary is the answer.
#[derive(Debug, Clone)]
pub struct McPathResult {
    /// Path delay per successful sample (s), in sample-index order (node
    /// order for a spectral run).
    pub delays: Vec<f64>,
    /// Summary statistics of the delays.
    pub summary: Summary,
    /// Samples lost after exhausting the attempt budget.
    pub failures: usize,
    /// Indices of the failed samples, ascending.
    pub failed_indices: Vec<usize>,
    /// Diagnostic of the lowest-index failure, if any.
    pub first_error: Option<String>,
    /// Per-sample status and attempt count of the completed samples.
    pub sample_health: Vec<SampleHealth>,
    /// Run-level tally: clean / recovered / degraded / timed out / failed.
    pub health: HealthSummary,
    /// Index a fail-fast policy truncated the run at.
    pub truncated_at: Option<usize>,
    /// Complete, or truncated with a resumable snapshot.
    pub verdict: CampaignVerdict,
    /// Completed samples (resumed + evaluated this run).
    pub completed: usize,
    /// Samples restored from snapshots.
    pub resumed: usize,
    /// Samples evaluated in this run.
    pub evaluated: usize,
    /// Snapshots written in this run.
    pub checkpoints_written: usize,
    /// Degradation reports of the assisted samples *evaluated in this
    /// run*, ascending index. Checkpoints persist status and attempts but
    /// not report notes, so resumed samples carry no report. Spectral
    /// runs keep none.
    pub reports: Vec<DegradationReport>,
    /// The polynomial-chaos estimate of a [`Sampling::Spectral`] run
    /// whose every node completed; `None` otherwise.
    pub spectral: Option<SpectralResult>,
}

impl McPathResult {
    fn new(
        res: MonteCarloResult,
        reports: Vec<DegradationReport>,
        spectral: Option<SpectralResult>,
    ) -> McPathResult {
        McPathResult {
            delays: res.values,
            summary: res.summary,
            failures: res.failures,
            failed_indices: res.failed_indices,
            first_error: res.first_error,
            sample_health: res.sample_health,
            health: res.health,
            truncated_at: res.truncated_at,
            verdict: res.verdict,
            completed: res.completed,
            resumed: res.resumed,
            evaluated: res.evaluated,
            checkpoints_written: res.checkpoints_written,
            reports,
            spectral,
        }
    }
}

/// Result of the Gradient-Analysis path analysis.
#[derive(Debug, Clone)]
pub struct GaPathResult {
    /// Nominal path delay (s) — the GA mean estimate.
    pub nominal_delay: f64,
    /// Standard deviation from eq. (24) (s).
    pub std: f64,
    /// Path-delay sensitivity per active source (s per normalized unit),
    /// aligned with [`VariationSources::active`].
    pub sensitivities: Vec<f64>,
    /// Number of stage simulations performed.
    pub evaluations: usize,
}

/// One stage of a path. Stages with the same (driver, receiver) pair share
/// one load, and every stage model comes from the process-wide stage
/// library ([`StageModel::shared`]), so paths built side by side share
/// their repeated stages too.
pub(crate) struct StageEntry {
    model: Arc<StageModel>,
    /// Far-end port position in the stage's port list.
    out_port: usize,
    /// The raw load (kept for the SPICE reference flow).
    load: Arc<StageLoad>,
    cell: String,
}

/// A precharacterized critical path.
pub struct PathModel {
    stages: Vec<StageEntry>,
    vdd: f64,
    input_slew: f64,
    pub(crate) tech: Technology,
}

// The parallel Monte-Carlo driver shares one PathModel across worker
// threads with `&self` evaluation. Regressing these bounds (e.g. by adding
// interior mutability to a stage model) must be a compile error, not a
// latent data race.
const _: () = {
    const fn assert_sync_send<T: Sync + Send>() {}
    assert_sync_send::<PathModel>();
    assert_sync_send::<StageEntry>();
    assert_sync_send::<McPathResult>();
};

impl PathModel {
    /// Builds and precharacterizes the path: one effective-load vROM per
    /// stage (PRIMA, order 6 — small enough to be cheap, rich enough for
    /// RC lines of hundreds of segments), taken from the stage library
    /// when a live path already holds it.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BadSpec`] for an empty path or unknown cells
    /// and propagates characterization failures.
    pub fn build(spec: &PathSpec, tech: &Technology, wire: &WireTech) -> Result<Self, CoreError> {
        if spec.cells.is_empty() {
            return Err(CoreError::BadSpec("path has no stages".into()));
        }
        if !(spec.input_slew > 0.0 && spec.input_slew.is_finite()) {
            return Err(CoreError::BadSpec(
                "input slew must be positive and finite".into(),
            ));
        }
        let cells = CellLibrary::standard(tech.clone());
        let mut stages = Vec::with_capacity(spec.cells.len());
        // Stages with the same (driver, receiver) pair share an identical
        // effective load: build and stamp each distinct pair once. Long
        // ISCAS paths reuse a handful of pairs.
        type Characterized = (Arc<StageModel>, Arc<StageLoad>, usize);
        let mut cache: std::collections::HashMap<(String, String), Characterized> =
            std::collections::HashMap::new();
        for (k, cell) in spec.cells.iter().enumerate() {
            let receiver = spec
                .cells
                .get(k + 1)
                .cloned()
                .unwrap_or_else(|| "inv".to_string());
            let key = (cell.clone(), receiver.clone());
            if !cache.contains_key(&key) {
                let load = build_stage_load(
                    &StageLoadSpec {
                        linear_elements: spec.linear_elements_between_stages,
                        driver_cell: cell.clone(),
                        receiver_cell: receiver,
                    },
                    &cells,
                    wire,
                )?;
                let model = StageModel::shared(
                    &load.netlist,
                    &[load.near],
                    tech,
                    ReductionMethod::Prima { order: 6 },
                    0.02,
                )?;
                let out_port = load
                    .netlist
                    .ports()
                    .iter()
                    .position(|p| *p == load.far)
                    .expect("far end is a port");
                cache.insert(key.clone(), (model, Arc::new(load), out_port));
            }
            let (model, load, out_port) = cache.get(&key).expect("just inserted").clone();
            stages.push(StageEntry {
                model,
                out_port,
                load,
                cell: cell.clone(),
            });
        }
        Ok(PathModel {
            stages,
            vdd: tech.library.vdd,
            input_slew: spec.input_slew,
            tech: tech.clone(),
        })
    }

    /// Number of stages.
    pub fn stage_count(&self) -> usize {
        self.stages.len()
    }

    /// Supply voltage.
    pub fn vdd(&self) -> f64 {
        self.vdd
    }

    /// Cell names along the path.
    pub fn cells(&self) -> Vec<&str> {
        self.stages.iter().map(|s| s.cell.as_str()).collect()
    }

    /// The characterized model of stage `k` and the load port its output
    /// is read at (for diagnostics and differential tests).
    pub fn stage(&self, k: usize) -> (&StageModel, usize) {
        (&self.stages[k].model, self.stages[k].out_port)
    }

    /// The raw load of stage `k` (for the SPICE reference flow).
    pub(crate) fn stage_load(&self, k: usize) -> &StageLoad {
        &self.stages[k].load
    }

    /// The path input waveform: a rising saturated ramp.
    pub fn input_waveform(&self) -> Waveform {
        Waveform::ramp(0.0, self.vdd, self.input_slew, self.input_slew)
    }

    /// Simulation timestep used for stage evaluations.
    fn stage_h(&self) -> f64 {
        (self.input_slew / 50.0).clamp(0.2e-12, 1e-12)
    }

    /// Evaluates the path delay at one variation sample with the TETA
    /// flow, propagating full waveforms (§4.3.1).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::StageStuck`] if a stage output cannot complete
    /// its transition even with an enlarged window, or propagates solver
    /// failures.
    pub fn evaluate_sample(&self, sample: &PathSample) -> Result<f64, CoreError> {
        let _span = linvar_metrics::timer(linvar_metrics::Phase::SampleEval);
        let h = self.stage_h();
        self.propagate(self.input_slew, |k, stage, input, rule| {
            let settled = self.settle(input, rule, |t_end| {
                let res = stage.model.evaluate_until(
                    &sample.wire,
                    sample.device,
                    std::slice::from_ref(input),
                    h,
                    t_end,
                    Some(*rule),
                )?;
                Ok::<_, CoreError>((res.waveforms, ()))
            })?;
            settled
                .map(|(out, ())| out)
                .ok_or(CoreError::StageStuck { stage: k })
        })
    }

    /// Walks the stages in order, feeding each one's settled output into
    /// the next — trimmed past its settled tail and rebased so its
    /// transition sits near the origin, keeping simulation windows short.
    /// `stage_out(k, stage, input, rule)` produces stage `k`'s output,
    /// which must cross mid-rail; `rule` names what this walk reads of it,
    /// so the stage may stop there. `fallback_s` stands in for the slew of
    /// an output without a 10 % or 90 % crossing. Returns the path delay.
    pub(crate) fn propagate(
        &self,
        fallback_s: f64,
        mut stage_out: impl FnMut(
            usize,
            &StageEntry,
            &Waveform,
            &StopRule,
        ) -> Result<Waveform, CoreError>,
    ) -> Result<f64, CoreError> {
        let mut input = self.input_waveform();
        let m_path_in = input
            .crossing(self.vdd / 2.0, true)
            .expect("ramp crosses midpoint");
        let mut offset = 0.0; // accumulated rebasing shifts
        let mut m_out_abs = m_path_in;
        for (k, stage) in self.stages.iter().enumerate() {
            let rule = StopRule {
                port: stage.out_port,
                rising: !input.is_rising(),
                tail: PATH_TAIL,
            };
            let out = stage_out(k, stage, &input, &rule)?;
            let read = rule
                .reading(&out, self.vdd, fallback_s)
                .expect("stage outputs cross mid-rail");
            m_out_abs = read.m + offset;
            let shift = (read.m - 2.0 * read.s).max(0.0);
            input = out.truncated(read.cut).shifted(-shift);
            offset += shift;
        }
        Ok(m_out_abs - m_path_in)
    }

    /// Runs `eval(t_end)` on one stage with a growing window — the
    /// input's end plus 1 ns, doubled up to twice — until the rule's port
    /// settles within 5 % of its final rail and crosses mid-rail. `eval`
    /// returns the port waveforms plus a by-product handed back with the
    /// winning output; `Ok(None)` when the output never settles.
    fn settle<R, E>(
        &self,
        input: &Waveform,
        rule: &StopRule,
        mut eval: impl FnMut(f64) -> Result<(Vec<Waveform>, R), E>,
    ) -> Result<Option<(Waveform, R)>, E> {
        let mut t_end = input.end_time() + 1.0e-9;
        for _attempt in 0..3 {
            let (mut waveforms, extra) = eval(t_end)?;
            let w = &waveforms[rule.port];
            if rule.settled(w, self.vdd) && w.crossing(self.vdd / 2.0, rule.rising).is_some() {
                // Take the winning waveform out instead of cloning its
                // point vector; the other ports are dropped.
                return Ok(Some((waveforms.swap_remove(rule.port), extra)));
            }
            t_end *= 2.0;
        }
        Ok(None)
    }

    /// Draws `n` variation samples (LHS with normal marginals).
    pub fn draw_samples(
        &self,
        sources: &VariationSources,
        n: usize,
        rng: &mut SampleRng,
    ) -> Vec<PathSample> {
        let raw = lhs_normal(rng, n, 7, 1.0);
        raw.into_iter().map(|z| scale_sample(sources, &z)).collect()
    }

    /// Draws `n` samples from the Sobol quasi-MC sequence instead of
    /// LHS: the same 7-dimensional standard-normal scaling as
    /// [`PathModel::draw_samples`], but over the digitally-shifted Sobol
    /// points of [`linvar_stats::sobol_point`]. Each sample is a pure
    /// function of `(master_seed, index)`, so the set composes with
    /// every parallel/resume contract exactly as the LHS stream does.
    pub fn draw_samples_sobol(
        &self,
        sources: &VariationSources,
        n: usize,
        master_seed: u64,
    ) -> Vec<PathSample> {
        let raw = sobol_normal_streamed(master_seed, n, 7, 1.0);
        raw.into_iter().map(|z| scale_sample(sources, &z)).collect()
    }

    /// Evaluates the path delay at one sample under the per-stage
    /// failure-recovery ladder.
    ///
    /// Each stage runs [`linvar_teta::StageModel::evaluate_recovering`]
    /// (vROM with order degradation, SC retry schedule, exact reduction,
    /// unreduced MNA); if the whole TETA ladder is exhausted for a stage
    /// and `spice_fallback` is set, that stage alone is served by the
    /// baseline SPICE engine. The returned [`DegradationReport`] names the
    /// most severe rung used along the path (`sample_index` is left 0 for
    /// the caller to fill).
    ///
    /// # Errors
    ///
    /// Returns the stage's terminal error when the ladder is exhausted and
    /// SPICE fallback is disabled (or itself fails).
    pub fn evaluate_sample_recovering(
        &self,
        sample: &PathSample,
        spice_fallback: bool,
    ) -> Result<(f64, DegradationReport), CoreError> {
        let _span = linvar_metrics::timer(linvar_metrics::Phase::SampleEval);
        let h = self.stage_h();
        let mut report = DegradationReport::clean();
        let delay = self.propagate(self.input_slew, |k, stage, input, rule| {
            let settled = self.settle(input, rule, |t_end| {
                stage
                    .model
                    .evaluate_recovering(
                        &sample.wire,
                        sample.device,
                        std::slice::from_ref(input),
                        h,
                        t_end,
                        Some(*rule),
                    )
                    .map(|(res, rec)| (res.waveforms, rec))
            });
            let (out, rec) = match settled {
                Ok(Some(served)) => served,
                Ok(None) | Err(_) if spice_fallback => {
                    let out = self.spice_stage_output(k, input, sample, rule)?;
                    linvar_metrics::incr(linvar_metrics::Counter::StageSpiceRescues);
                    report.rung = report.rung.worst(EngineRung::SpiceBaseline);
                    report.notes.push(format!(
                        "stage {k} ({}): served by baseline SPICE",
                        stage.cell
                    ));
                    return Ok(out);
                }
                Ok(None) => return Err(CoreError::StageStuck { stage: k }),
                Err(e) => return Err(e.into()),
            };
            report.sc_retries += rec.sc_retries;
            let rung = EngineRung::from_stage(&rec);
            report.rung = report.rung.worst(rung);
            if !rec.was_clean() {
                report.notes.push(format!(
                    "stage {k} ({}): {rung}, order {}→{}, {} SC retr{}",
                    stage.cell,
                    rec.original_order,
                    rec.served_order,
                    rec.sc_retries,
                    if rec.sc_retries == 1 { "y" } else { "ies" }
                ));
            }
            Ok(out)
        })?;
        Ok((delay, report))
    }

    /// Fingerprint of everything (beyond seed and sample count) that
    /// shapes a sample's delay: the cells along the path, the stage
    /// count, input slew, supply, and the σ of every variation source.
    ///
    /// Stored in campaign checkpoints so a snapshot taken against one
    /// path/source configuration refuses to resume against another.
    pub fn campaign_fingerprint(&self, sources: &VariationSources) -> u64 {
        let mut words = Vec::with_capacity(self.stages.len() + 10);
        for stage in &self.stages {
            words.push(fingerprint_str(&stage.cell));
        }
        words.push(self.stages.len() as u64);
        words.push(self.input_slew.to_bits());
        words.push(self.vdd.to_bits());
        for &s in &sources.wire {
            words.push(s.to_bits());
        }
        words.push(sources.dl.to_bits());
        words.push(sources.vt.to_bits());
        fingerprint_words(words)
    }

    /// Path-delay statistics (§4.3.1) under any engine and any run
    /// shape: the one entry point for Monte Carlo, quasi-Monte Carlo and
    /// polynomial chaos, plain or durable or sharded.
    ///
    /// * `sampling` picks the sample set: LHS draws from
    ///   `rng_from_seed(master_seed)`, Sobol points of `master_seed`, or
    ///   the nodes of a Hermite polynomial-chaos plan over the active
    ///   sources (a node in standard-normal germ coordinates maps to a
    ///   sample by scaling each coordinate with its source's σ;
    ///   `master_seed` then seeds only the surrogate quantile sample).
    /// * `spec` is handed to the executor ([`linvar_stats::execute`]):
    ///   worker count, [`RecoveryPolicy`], checkpoint/resume/deadline/
    ///   watchdog/budget/cancel, and shards.
    ///
    /// Attempt mapping per sample: attempt 0 is the fast path
    /// ([`PathModel::evaluate_sample`]); attempts `1..=max_retries` run
    /// the per-stage TETA recovery ladder
    /// ([`PathModel::evaluate_sample_recovering`], with per-stage SPICE
    /// fallback when the policy allows fallback); the final fallback
    /// attempt runs the whole path through the baseline SPICE engine.
    ///
    /// Snapshots are keyed by [`PathModel::campaign_fingerprint`] (folded
    /// with a `sobol-v1` tag for Sobol runs and the plan's fingerprint
    /// for spectral runs) plus the seed, sample count and policy, so a
    /// snapshot never resumes a different campaign. The result —
    /// degradation reports included — is **bitwise-identical at any
    /// thread count, any shard count, and across any interrupt/resume
    /// schedule**.
    ///
    /// # Errors
    ///
    /// Checkpoint load/validation failures and the final snapshot write
    /// as [`CoreError::Checkpoint`]; run-plan problems as
    /// [`CoreError::Run`]; a spectral run with no active source, an
    /// unbuildable plan, a failed node or a failed coefficient solve as
    /// [`CoreError::BadSpec`] / [`CoreError::Spectral`]. Failed samples
    /// and truncation are reported in the result, not raised.
    pub fn run(
        &self,
        sources: &VariationSources,
        sampling: Sampling,
        master_seed: u64,
        spec: &RunSpec,
    ) -> Result<McPathResult, CoreError> {
        self.run_fingerprinted(sources, sampling, master_seed, spec, spec.policy)
    }

    /// Durable LHS Monte-Carlo path-delay campaign: [`PathModel::run`]
    /// with `threads`, `policy` and `config` as the run spec.
    ///
    /// `policy.fail_fast` is ignored for execution — a campaign's answer
    /// to a failing sample is quarantine-and-checkpoint, not truncation —
    /// but stays part of the snapshot fingerprint, so existing snapshots
    /// keep resuming.
    ///
    /// # Errors
    ///
    /// As [`PathModel::run`].
    pub fn monte_carlo_campaign(
        &self,
        sources: &VariationSources,
        n: usize,
        master_seed: u64,
        threads: usize,
        policy: RecoveryPolicy,
        config: &CampaignConfig,
    ) -> Result<McPathResult, CoreError> {
        let spec = RunSpec::durable(threads, policy, config);
        self.run_fingerprinted(sources, Sampling::Lhs(n), master_seed, &spec, policy)
    }

    /// [`PathModel::run`] with the snapshot fingerprint's policy given
    /// separately from the executed one (the campaign front doors clear
    /// `fail_fast` for execution but keep it in the fingerprint).
    pub(crate) fn run_fingerprinted(
        &self,
        sources: &VariationSources,
        sampling: Sampling,
        master_seed: u64,
        spec: &RunSpec,
        fingerprint_policy: RecoveryPolicy,
    ) -> Result<McPathResult, CoreError> {
        let mut fingerprint = CampaignFingerprint {
            master_seed,
            n_samples: 0,
            policy: fingerprint_policy,
            model: self.campaign_fingerprint(sources),
        };
        // Report side channel: written at most once per successful
        // evaluation, sorted after the merge — deterministic because each
        // report is a pure function of its sample.
        let reports: Mutex<Vec<DegradationReport>> = Mutex::new(Vec::new());
        let samples = match sampling {
            Sampling::Lhs(n) => self.draw_samples(sources, n, &mut rng_from_seed(master_seed)),
            Sampling::Sobol(n) => {
                fingerprint.model =
                    fingerprint_words([fingerprint.model, fingerprint_str("sobol-v1")]);
                self.draw_samples_sobol(sources, n, master_seed)
            }
            Sampling::Spectral(config) => {
                let active = sources.active();
                if active.is_empty() {
                    return Err(CoreError::BadSpec(
                        "polynomial chaos needs at least one active variation source".into(),
                    ));
                }
                let plan = SpectralPlan::build(active.len(), config)?;
                let run = run_spectral(&plan, spec, &fingerprint, |node, attempt| {
                    let s = (0usize, sample_at_node(&active, node));
                    self.campaign_eval(spec.policy, &reports, &s, attempt)
                })?;
                return Ok(McPathResult::new(run.nodes, Vec::new(), run.result));
            }
        };
        fingerprint.n_samples = samples.len();
        let indexed: Vec<(usize, PathSample)> = samples.into_iter().enumerate().collect();
        let res = execute(&indexed, spec, &fingerprint, |s, attempt| {
            self.campaign_eval(spec.policy, &reports, s, attempt)
        })?;
        let mut reports = reports.into_inner().expect("workers joined");
        // Drop reports beyond a fail-fast cut; each sample is evaluated at
        // most once per run, so the rest are one per assisted sample.
        reports.retain(|r| res.truncated_at.is_none_or(|cut| r.sample_index <= cut));
        reports.sort_by_key(|r| r.sample_index);
        Ok(McPathResult::new(res, reports, None))
    }

    /// The attempt ladder for one globally-indexed sample: attempt 0 on
    /// the vROM fast path, middle attempts through the per-stage recovery
    /// ladder, the final attempt on the whole-path SPICE baseline. Every
    /// engine and run shape evaluates samples through this one function —
    /// structural identity of the evaluator is one half of the bitwise
    /// identity contracts (the other is the index-ordered merge).
    fn campaign_eval(
        &self,
        policy: RecoveryPolicy,
        reports: &Mutex<Vec<DegradationReport>>,
        s: &(usize, PathSample),
        attempt: usize,
    ) -> Result<(f64, SampleStatus), String> {
        let (idx, ref sample) = *s;
        if attempt == 0 {
            return self
                .evaluate_sample(sample)
                .map(|d| {
                    linvar_metrics::incr(linvar_metrics::Counter::RungVariationalRom);
                    (d, SampleStatus::Clean)
                })
                .map_err(|e| e.to_string());
        }
        if policy.is_fallback_attempt(attempt) {
            let d = self
                .evaluate_sample_spice(sample)
                .map_err(|e| e.to_string())?;
            let mut report = DegradationReport::clean();
            report.sample_index = idx;
            report.rung = EngineRung::SpiceBaseline;
            report
                .notes
                .push("whole path served by baseline SPICE".into());
            reports.lock().expect("reports lock").push(report);
            linvar_metrics::incr(linvar_metrics::Counter::RungSpiceBaseline);
            return Ok((d, SampleStatus::Degraded));
        }
        let (d, mut report) = self
            .evaluate_sample_recovering(sample, policy.allow_fallback)
            .map_err(|e| e.to_string())?;
        report.sample_index = idx;
        let status = report.status();
        linvar_metrics::incr(rung_counter(report.rung));
        if !report.is_clean() {
            reports.lock().expect("reports lock").push(report);
        }
        Ok((d, status))
    }

    /// One GA stage evaluation: ramp input with slew `s_in` (direction by
    /// stage parity), returning `(stage delay, output slew)`. GA reads only
    /// the output's 10/50/90 % crossings, so the stage stops at a zero
    /// tail past them.
    fn ga_stage(&self, k: usize, s_in: f64, sample: &PathSample) -> Result<(f64, f64), CoreError> {
        let stage = &self.stages[k];
        let rising_in = k.is_multiple_of(2);
        let rule = StopRule {
            port: stage.out_port,
            rising: !rising_in,
            tail: 0.0,
        };
        let (v0, v1) = if rising_in {
            (0.0, self.vdd)
        } else {
            (self.vdd, 0.0)
        };
        let input = Waveform::ramp(v0, v1, s_in, s_in);
        let m_in = 1.5 * s_in;
        let h = self.stage_h();
        let mut t_end = 3.0 * s_in + 1.0e-9;
        for _attempt in 0..3 {
            let res = stage.model.evaluate_until(
                &sample.wire,
                sample.device,
                std::slice::from_ref(&input),
                h,
                t_end,
                Some(rule),
            )?;
            let out = &res.waveforms[stage.out_port];
            if let Ok(sr) = out.to_saturated_ramp(0.0, self.vdd) {
                return Ok((sr.m - m_in, sr.s));
            }
            t_end *= 2.0;
        }
        Err(CoreError::StageStuck { stage: k })
    }

    /// Gradient-Analysis path-delay statistics (§4.3.2).
    ///
    /// Per stage: one nominal evaluation, two input-slew perturbations and
    /// two per active source; `(M, S)` derivatives chain through eq. (31)
    /// and the path σ follows from eq. (24).
    ///
    /// # Errors
    ///
    /// Propagates stage-evaluation failures.
    pub fn gradient_analysis(&self, sources: &VariationSources) -> Result<GaPathResult, CoreError> {
        let active = sources.active();
        let n_src = active.len();
        let nominal = PathSample::default();
        let mut evaluations = 0usize;

        // dM/dw and dS/dw accumulated along the path, per source.
        let mut dm = vec![0.0; n_src];
        let mut ds = vec![0.0; n_src];
        let mut s_in = self.input_slew;
        let mut total_delay = 0.0;

        for k in 0..self.stages.len() {
            let (d0, s_out0) = self.ga_stage(k, s_in, &nominal)?;
            evaluations += 1;
            // Input-slew sensitivities (∂Π/∂S_in, ∂Ψ/∂S_in).
            let ds_in = 0.05 * s_in;
            let (d_hi, s_hi) = self.ga_stage(k, s_in + ds_in, &nominal)?;
            let (d_lo, s_lo) = self.ga_stage(k, s_in - ds_in, &nominal)?;
            evaluations += 2;
            let dpi_dsin = (d_hi - d_lo) / (2.0 * ds_in);
            let dpsi_dsin = (s_hi - s_lo) / (2.0 * ds_in);
            // Per-source sensitivities (∂Π/∂w, ∂Ψ/∂w) at step ±σ.
            for (l, &(name, sigma)) in active.iter().enumerate() {
                let mut hi = nominal;
                let mut lo = nominal;
                apply_source(&mut hi, name, sigma);
                apply_source(&mut lo, name, -sigma);
                let (dh, sh) = self.ga_stage(k, s_in, &hi)?;
                let (dl_, sl) = self.ga_stage(k, s_in, &lo)?;
                evaluations += 2;
                let dpi_dw = (dh - dl_) / (2.0 * sigma);
                let dpsi_dw = (sh - sl) / (2.0 * sigma);
                // Eq. (31): chain through the input-slew dependence.
                let dm_new = dm[l] + dpi_dw + dpi_dsin * ds[l];
                let ds_new = dpsi_dw + dpsi_dsin * ds[l];
                dm[l] = dm_new;
                ds[l] = ds_new;
            }
            total_delay += d0;
            s_in = s_out0;
        }
        // Eq. (24) with the source σ's.
        let sigmas: Vec<f64> = active.iter().map(|&(_, s)| s).collect();
        let std = linvar_stats::gradient_std(&sigmas, &dm);
        Ok(GaPathResult {
            nominal_delay: total_delay,
            std,
            sensitivities: dm,
            evaluations,
        })
    }
}

impl McPathResult {
    /// Empirical timing yield at the given clock period (s) — the
    /// fraction of samples meeting it (paper §4, ref \[13\]).
    pub fn timing_yield(&self, period: f64) -> f64 {
        linvar_stats::empirical_yield(&self.delays, period)
    }
}

impl GaPathResult {
    /// Normal-model timing yield at the given clock period (s), from the
    /// GA (mean, σ).
    pub fn timing_yield(&self, period: f64) -> f64 {
        linvar_stats::normal_yield(self.nominal_delay, self.std, period)
    }

    /// Clock period achieving the target yield under the GA normal model.
    pub fn period_for_yield(&self, target: f64) -> f64 {
        linvar_stats::period_for_yield(self.nominal_delay, self.std, target)
    }
}

/// Applies `value` (normalized units) of the named source to a sample.
pub(crate) fn apply_source_pub(sample: &mut PathSample, name: &str, value: f64) {
    apply_source(sample, name, value);
}

/// Maps one collocation node in standard-normal germ coordinates onto a
/// [`PathSample`]: coordinate `k` scales by the σ of the `k`-th active
/// source (canonical [`VariationSources::active`] order).
fn sample_at_node(active: &[(&'static str, f64)], node: &[f64]) -> PathSample {
    let mut sample = PathSample::default();
    for ((name, sigma), &x) in active.iter().zip(node) {
        apply_source(&mut sample, name, sigma * x);
    }
    sample
}

/// Maps one 7-dimensional standard-normal draw onto a [`PathSample`] by
/// the per-source σ — shared by the LHS and Sobol sample streams.
fn scale_sample(sources: &VariationSources, z: &[f64]) -> PathSample {
    let mut wire = [0.0; 5];
    for i in 0..5 {
        wire[i] = z[i] * sources.wire[i];
    }
    PathSample {
        wire,
        device: DeviceVariation::new(z[5] * sources.dl, z[6] * sources.vt),
    }
}

/// Applies `value` (normalized units) of the named source to a sample.
/// Maps the rung that served a sample to its observability counter.
///
/// Recorded by the *succeeding* attempt only; since every attempt is a
/// pure function of `(sample, attempt)`, the tally is deterministic at
/// any thread count (fail-fast truncation excepted — samples evaluated
/// past the truncation point still count their rung).
fn rung_counter(rung: EngineRung) -> linvar_metrics::Counter {
    match rung {
        EngineRung::VariationalRom => linvar_metrics::Counter::RungVariationalRom,
        EngineRung::RefinedSc => linvar_metrics::Counter::RungRefinedSc,
        EngineRung::ExactReduction => linvar_metrics::Counter::RungExactReduction,
        EngineRung::DegradedOrder(_) => linvar_metrics::Counter::RungDegradedOrder,
        EngineRung::UnreducedMna => linvar_metrics::Counter::RungUnreducedMna,
        EngineRung::SpiceBaseline => linvar_metrics::Counter::RungSpiceBaseline,
    }
}

fn apply_source(sample: &mut PathSample, name: &str, value: f64) {
    match name {
        "W" => sample.wire[0] += value,
        "T" => sample.wire[1] += value,
        "S" => sample.wire[2] += value,
        "H" => sample.wire[3] += value,
        "rho" => sample.wire[4] += value,
        "DL" => sample.device.dl += value,
        "VT" => sample.device.vt += value,
        other => unreachable!("unknown source {other}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use linvar_devices::tech_018;

    /// A plain LHS run: one attempt per sample, no persistence.
    fn plain(model: &PathModel, sources: &VariationSources, n: usize, seed: u64) -> McPathResult {
        model
            .run(sources, Sampling::Lhs(n), seed, &RunSpec::plain(1))
            .unwrap()
    }

    fn small_path() -> PathModel {
        let spec = PathSpec {
            cells: vec!["inv".into(), "nand2".into(), "inv".into()],
            linear_elements_between_stages: 10,
            input_slew: 50e-12,
        };
        PathModel::build(&spec, &tech_018(), &WireTech::m018()).unwrap()
    }

    #[test]
    fn nominal_delay_is_positive_and_reasonable() {
        let model = small_path();
        let d = model.evaluate_sample(&PathSample::default()).unwrap();
        // 3 lightly loaded 0.18 µm stages: tens to hundreds of ps.
        assert!(d > 10e-12 && d < 2e-9, "delay {d}");
    }

    #[test]
    fn slower_devices_increase_delay() {
        let model = small_path();
        let nominal = model.evaluate_sample(&PathSample::default()).unwrap();
        let slow = model
            .evaluate_sample(&PathSample {
                wire: [0.0; 5],
                device: DeviceVariation::new(-1.0, 2.0), // longer L, higher VT
            })
            .unwrap();
        assert!(slow > nominal, "{slow} vs {nominal}");
    }

    #[test]
    fn monte_carlo_produces_spread() {
        let model = small_path();
        let sources = VariationSources::example3(0.33, 0.33);
        let mc = plain(&model, &sources, 12, 5);
        assert_eq!(mc.failures, 0);
        assert_eq!(mc.delays.len(), 12);
        assert!(mc.summary.std > 0.0);
        assert!(mc.summary.std < 0.3 * mc.summary.mean, "plausible spread");
    }

    #[test]
    fn parallel_mc_is_bitwise_identical_to_serial() {
        let model = small_path();
        let sources = VariationSources::example3(0.33, 0.33);
        let seed = 21;
        let serial = plain(&model, &sources, 8, seed);
        for threads in [2, 4] {
            let par = model
                .run(&sources, Sampling::Lhs(8), seed, &RunSpec::plain(threads))
                .unwrap();
            let serial_bits: Vec<u64> = serial.delays.iter().map(|d| d.to_bits()).collect();
            let par_bits: Vec<u64> = par.delays.iter().map(|d| d.to_bits()).collect();
            assert_eq!(par_bits, serial_bits, "delays at {threads} threads");
            assert_eq!(par.failures, serial.failures);
            assert_eq!(
                par.summary.mean.to_bits(),
                serial.summary.mean.to_bits(),
                "mean at {threads} threads"
            );
        }
    }

    #[test]
    fn recovering_mc_is_bitwise_identical_across_threads() {
        let model = small_path();
        let sources = VariationSources::example3(0.33, 0.33);
        let policy = RecoveryPolicy::default();
        let seed = 21;
        let spec = |threads| RunSpec {
            threads,
            policy,
            ..RunSpec::default()
        };
        let base = model
            .run(&sources, Sampling::Lhs(8), seed, &spec(1))
            .unwrap();
        // A moderate spread is served entirely by the fast path.
        assert!(base.health.all_clean(), "health: {:?}", base.health);
        assert!(base.reports.is_empty());
        assert!(base.truncated_at.is_none());
        assert_eq!(base.health.total(), 8);
        let base_bits: Vec<u64> = base.delays.iter().map(|d| d.to_bits()).collect();
        for threads in [2, 4] {
            let par = model
                .run(&sources, Sampling::Lhs(8), seed, &spec(threads))
                .unwrap();
            let par_bits: Vec<u64> = par.delays.iter().map(|d| d.to_bits()).collect();
            assert_eq!(par_bits, base_bits, "delays at {threads} threads");
            assert_eq!(par.sample_health, base.sample_health);
            assert_eq!(par.health, base.health);
            assert_eq!(par.reports, base.reports);
        }
        // On a clean run the recovering driver reproduces the plain one.
        let plain = model
            .run(&sources, Sampling::Lhs(8), seed, &RunSpec::plain(2))
            .unwrap();
        let plain_bits: Vec<u64> = plain.delays.iter().map(|d| d.to_bits()).collect();
        assert_eq!(plain_bits, base_bits);
    }

    #[test]
    fn ga_matches_mc_roughly() {
        let model = small_path();
        let sources = VariationSources::example3(0.33, 0.33);
        let ga = model.gradient_analysis(&sources).unwrap();
        let mc = plain(&model, &sources, 24, 9);
        // Means within a few percent; σ within a factor of two (the
        // paper's Table 5 shows GA σ within ~30 % of MC σ).
        let mean_err = (ga.nominal_delay - mc.summary.mean).abs() / mc.summary.mean;
        assert!(mean_err < 0.05, "GA mean off by {mean_err}");
        assert!(
            ga.std > 0.3 * mc.summary.std && ga.std < 3.0 * mc.summary.std,
            "GA std {} vs MC std {}",
            ga.std,
            mc.summary.std
        );
        assert_eq!(ga.sensitivities.len(), 2);
        assert!(ga.evaluations > 0);
    }

    #[test]
    fn bad_specs_rejected() {
        let tech = tech_018();
        let wire = WireTech::m018();
        let empty = PathSpec {
            cells: vec![],
            linear_elements_between_stages: 10,
            input_slew: 50e-12,
        };
        assert!(PathModel::build(&empty, &tech, &wire).is_err());
        let bad_slew = PathSpec {
            cells: vec!["inv".into()],
            linear_elements_between_stages: 10,
            input_slew: 0.0,
        };
        assert!(PathModel::build(&bad_slew, &tech, &wire).is_err());
        let bad_cell = PathSpec {
            cells: vec!["mystery".into()],
            linear_elements_between_stages: 10,
            input_slew: 50e-12,
        };
        assert!(PathModel::build(&bad_cell, &tech, &wire).is_err());
    }

    #[test]
    fn timing_yield_integration() {
        let model = small_path();
        let sources = VariationSources::example3(0.33, 0.33);
        let mc = plain(&model, &sources, 16, 3);
        let ga = model.gradient_analysis(&sources).unwrap();
        // Yield is monotone in the period and hits the extremes.
        assert_eq!(mc.timing_yield(0.0), 0.0);
        assert_eq!(mc.timing_yield(1.0), 1.0);
        let p50 = ga.period_for_yield(0.5);
        assert!((ga.timing_yield(p50) - 0.5).abs() < 1e-6);
        let p999 = ga.period_for_yield(0.999);
        assert!(p999 > p50);
        // GA and MC yields agree loosely near the distribution center.
        let y_mc = mc.timing_yield(p50);
        assert!((0.1..=0.9).contains(&y_mc), "MC yield at GA median: {y_mc}");
    }

    #[test]
    fn sources_active_enumeration() {
        let s = VariationSources::example3(0.33, 0.0);
        assert_eq!(s.active(), vec![("DL", 0.33)]);
        let s = VariationSources::example3_table4();
        let names: Vec<&str> = s.active().iter().map(|&(n, _)| n).collect();
        assert_eq!(names, vec!["W", "H", "DL"]);
        let s = VariationSources::uniform(0.1);
        assert_eq!(s.active().len(), 7);
    }
}
