//! Logic-stage assembly: the Table-1 "construction" step.
//!
//! A [`StageModel`] packages everything the framework precharacterizes
//! once per stage:
//!
//! 1. the chord output conductances `G_out` of the nonlinear drivers;
//! 2. the *effective load* — the stage's linear interconnect with `G_out`
//!    folded onto the driven ports (paper eq. 12);
//! 3. the variational reduced-order model library of that effective load.
//!
//! Evaluating the model at a parameter sample performs the Table-1
//! "evaluation" steps: first-order ROM evaluation, pole/residue
//! transformation, stability filtering and the successive-chords transient.
//!
//! [`StageModel::shared`] is the paper's precharacterized library: one
//! live model per distinct stage, handed to every path built in the
//! process.

use crate::engine::{DriverSpec, StageSolver, StageSolverOptions, StageStats, StopRule};
use crate::error::TetaError;
use crate::waveform::Waveform;
use linvar_circuit::{MosType, Netlist, NodeId, SparseVariationalMna};
use linvar_devices::{chord_conductance, DeviceVariation, MosParams, Technology};
use linvar_mor::{
    extract_pole_residue, extract_stabilized_degrading, stabilize, PoleResidueModel, ReducedModel,
    ReductionMethod, StabilityReport, VariationalRom, DEFAULT_BETA_TOL,
};
use linvar_numeric::SparseMatrix;
use std::collections::BTreeMap;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, Weak};

/// A precharacterized logic stage.
#[derive(Debug, Clone)]
pub struct StageModel {
    vrom: VariationalRom,
    inputs: StageInputs,
}

/// Everything [`StageModel::build`] characterizes from: the key of the
/// stage library.
#[derive(Debug, Clone)]
struct StageInputs {
    /// The effective-load variational matrices (chords already folded),
    /// kept sparse for the rungs that read the full-order load (exact
    /// reduction, unreduced load) and the exact reference flow.
    load: SparseVariationalMna,
    /// `(port index, g_out)` of each driven port, in driver order.
    driver_ports: Vec<(usize, f64)>,
    nmos: MosParams,
    pmos: MosParams,
    wn: f64,
    wp: f64,
    length: f64,
    /// Supply voltage (V).
    vdd: f64,
    method: ReductionMethod,
    delta: f64,
}

/// Live stage models by the hash of their key. Entries are `Weak`, so
/// the library keeps nothing alive.
type Library = BTreeMap<u64, Vec<Weak<StageModel>>>;

static LIBRARY: Mutex<Library> = Mutex::new(BTreeMap::new());

/// The library, also after a panic elsewhere poisoned its lock: every
/// critical section leaves the map consistent.
fn library() -> MutexGuard<'static, Library> {
    LIBRARY.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The live model in `library` whose key is `key`.
fn find(library: &Library, hash: u64, key: &[u64]) -> Option<Arc<StageModel>> {
    library
        .get(&hash)?
        .iter()
        .filter_map(Weak::upgrade)
        .find(|m| m.inputs.key() == key)
}

// Stage models are built once and evaluated read-only from many threads by
// the parallel Monte-Carlo engine; `Sync + Send` is part of the public
// contract and must not regress silently.
const _: () = {
    const fn assert_sync_send<T: Sync + Send>() {}
    assert_sync_send::<StageModel>();
};

/// Result of one stage evaluation.
#[derive(Debug, Clone)]
pub struct StageResult {
    /// Waveform at every load port (port-marking order).
    pub waveforms: Vec<Waveform>,
    /// What the stability filter did to this sample's macromodel.
    pub stability: StabilityReport,
    /// Solver statistics.
    pub stats: StageStats,
}

/// What [`StageModel::evaluate_recovering`] had to do to serve a sample.
///
/// The ladder, in order: first-order variational ROM with the MOR
/// order-degradation ladder, SC retry schedule (step refinement plus
/// under-relaxation, the chord re-selection analog), the exact per-sample
/// reduction, and finally the unreduced MNA load. A clean evaluation uses
/// the first rung at full order with the plain SC iteration.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StageRecovery {
    /// SC attempts that failed before one succeeded (0 = first try).
    pub sc_retries: usize,
    /// Reduced order of the variational ROM as characterized.
    pub original_order: usize,
    /// Order of the model that finally served the sample (full MNA
    /// dimension when `unreduced_fallback` is set).
    pub served_order: usize,
    /// Right-half-plane poles the stability filter removed.
    pub removed_poles: usize,
    /// `max |β - 1|` of the served model's DC rescale.
    pub max_beta_deviation: f64,
    /// The exact per-sample reduction replaced the variational ROM.
    pub exact_reduction: bool,
    /// The unreduced MNA load replaced every reduced model.
    pub unreduced_fallback: bool,
}

impl StageRecovery {
    /// `true` when the fast path served the sample unassisted.
    pub fn was_clean(&self) -> bool {
        self.sc_retries == 0
            && self.served_order == self.original_order
            && !self.exact_reduction
            && !self.unreduced_fallback
    }
}

/// SC retry schedule: `(timestep divisor, damping)` per attempt. The first
/// entry is the plain iteration; later entries refine the step and damp the
/// fixed point.
const SC_SCHEDULE: [(f64, f64); 3] = [(1.0, 1.0), (2.0, 0.7), (4.0, 0.5)];

/// Is this error worth another rung, or a configuration mistake that every
/// rung would repeat?
fn recoverable(e: &TetaError) -> bool {
    matches!(e, TetaError::ScDivergence { .. } | TetaError::Numeric(_))
}

impl StageInputs {
    /// Stamps the load, folds the driver chords onto the driven ports and
    /// looks up the device models: everything of a build but the
    /// characterization.
    fn new(
        netlist: &Netlist,
        driven: &[NodeId],
        tech: &Technology,
        method: ReductionMethod,
        delta: f64,
    ) -> Result<Self, TetaError> {
        let mut stamps = netlist
            .variational_stamps()
            .map_err(|e| TetaError::BadStage(e.to_string()))?;
        let nmos = tech
            .library
            .get(&tech.library.nmos_name())
            .ok_or_else(|| TetaError::BadStage("missing nmos model".into()))?
            .clone();
        let pmos = tech
            .library
            .get(&tech.library.pmos_name())
            .ok_or_else(|| TetaError::BadStage("missing pmos model".into()))?
            .clone();
        let vdd = tech.library.vdd;
        let g_out = chord_conductance(&nmos, tech.wn, tech.library.lmin, vdd)
            + chord_conductance(&pmos, tech.wp, tech.library.lmin, vdd);
        // Map driven nodes to port positions and fold the chords.
        let ports = netlist.ports();
        let mut driver_ports = Vec::with_capacity(driven.len());
        for node in driven {
            let port_pos = ports.iter().position(|p| p == node).ok_or_else(|| {
                TetaError::BadStage(format!(
                    "driven node {:?} is not a marked port",
                    netlist.node_name(*node)
                ))
            })?;
            let mna_idx = stamps.port_indices[port_pos];
            stamps
                .add_grounded_conductance(mna_idx, g_out)
                .map_err(|e| TetaError::BadStage(e.to_string()))?;
            driver_ports.push((port_pos, g_out));
        }
        Ok(StageInputs {
            load: stamps.sparse()?,
            driver_ports,
            nmos,
            pmos,
            wn: tech.wn,
            wp: tech.wp,
            length: tech.library.lmin,
            vdd,
            method,
            delta,
        })
    }

    /// The library key: every bit of the inputs, as words. Lists carry
    /// their lengths, so two different inputs never share a key.
    fn key(&self) -> Vec<u64> {
        let mut k = Vec::new();
        let load = &self.load;
        k.push(load.port_indices().len() as u64);
        k.extend(load.port_indices().iter().map(|&p| p as u64));
        k.push(load.param_count() as u64);
        let matrices = [load.g0(), load.c0()].into_iter();
        for m in matrices.chain(load.dg()).chain(load.dc()) {
            push_matrix(&mut k, m);
        }
        k.push(self.driver_ports.len() as u64);
        for &(port, g_out) in &self.driver_ports {
            k.extend([port as u64, g_out.to_bits()]);
        }
        push_mos(&mut k, &self.nmos);
        push_mos(&mut k, &self.pmos);
        k.extend([self.wn, self.wp, self.length, self.vdd, self.delta].map(f64::to_bits));
        k.extend(match self.method {
            ReductionMethod::Prima { order } => [0, order as u64],
            ReductionMethod::Pact { internal_modes } => [1, internal_modes as u64],
        });
        k
    }

    fn characterize(self) -> Result<StageModel, TetaError> {
        Ok(StageModel {
            vrom: VariationalRom::characterize(&self.load, self.method, self.delta)?,
            inputs: self,
        })
    }
}

/// Appends a CSC matrix's shape, pattern and value bits.
fn push_matrix(k: &mut Vec<u64>, m: &SparseMatrix) {
    k.extend([m.n_rows() as u64, m.n_cols() as u64]);
    k.extend(m.col_ptr().iter().map(|&p| p as u64));
    k.extend(m.row_indices().iter().map(|&i| i as u64));
    k.extend(m.values().iter().map(|v| v.to_bits()));
}

/// Appends every field of a device model (destructured, so a new field
/// cannot be left out of the key).
fn push_mos(k: &mut Vec<u64>, p: &MosParams) {
    let MosParams {
        mos_type,
        vto,
        kp,
        lambda,
        gamma,
        phi,
        cox,
        cgo,
        cj_per_width,
        ld,
    } = p;
    k.push(match mos_type {
        MosType::Nmos => 0,
        MosType::Pmos => 1,
    });
    k.extend([vto, kp, lambda, gamma, phi, cox, cgo, cj_per_width, ld].map(|v| v.to_bits()));
}

impl StageModel {
    /// Builds the stage model from the interconnect netlist.
    ///
    /// `driven` lists the netlist nodes that carry drivers (each must be a
    /// marked port of the netlist); every driver is the technology's unit
    /// equivalent inverter. `method`/`delta` configure the variational
    /// reduction (see [`VariationalRom::characterize`]), which reads the
    /// chord-folded load in its sparse form.
    ///
    /// # Errors
    ///
    /// Returns [`TetaError::BadStage`] for nodes that are not ports or
    /// missing device models, and propagates characterization failures.
    pub fn build(
        netlist: &Netlist,
        driven: &[NodeId],
        tech: &Technology,
        method: ReductionMethod,
        delta: f64,
    ) -> Result<Self, TetaError> {
        StageInputs::new(netlist, driven, tech, method, delta)?.characterize()
    }

    /// [`StageModel::build`] through the process-wide stage library: while
    /// any holder keeps a model alive, a build from the same inputs (the
    /// chord-folded load, driven ports, device models, geometry, supply,
    /// method and δ, compared bit for bit) returns that model instead of
    /// characterizing again. The library holds only `Weak` references, and
    /// two racing builds of one key keep the first model inserted.
    ///
    /// # Errors
    ///
    /// As [`StageModel::build`].
    pub fn shared(
        netlist: &Netlist,
        driven: &[NodeId],
        tech: &Technology,
        method: ReductionMethod,
        delta: f64,
    ) -> Result<Arc<Self>, TetaError> {
        let inputs = StageInputs::new(netlist, driven, tech, method, delta)?;
        let key = inputs.key();
        let hash = {
            let mut h = DefaultHasher::new();
            key.hash(&mut h);
            h.finish()
        };
        if let Some(model) = find(&library(), hash, &key) {
            return Ok(model);
        }
        // Characterize without the lock; a racing build of the same key
        // computes the same bits.
        let model = Arc::new(inputs.characterize()?);
        let mut lib = library();
        if let Some(first) = find(&lib, hash, &key) {
            return Ok(first);
        }
        lib.retain(|_, bucket| {
            bucket.retain(|m| m.strong_count() > 0);
            !bucket.is_empty()
        });
        lib.entry(hash).or_default().push(Arc::downgrade(&model));
        Ok(model)
    }

    /// Number of load ports.
    pub fn port_count(&self) -> usize {
        self.vrom.port_count()
    }

    /// Number of drivers.
    pub fn driver_count(&self) -> usize {
        self.inputs.driver_ports.len()
    }

    /// The underlying variational ROM (for diagnostics and benches).
    pub fn vrom(&self) -> &VariationalRom {
        &self.vrom
    }

    /// The effective load (chords folded) the ROM was characterized from,
    /// in sparse form (for diagnostics and differential tests).
    pub fn load(&self) -> &SparseVariationalMna {
        &self.inputs.load
    }

    /// Evaluates the stage at an interconnect parameter sample `w` and a
    /// device variation sample, driving each driver port with the
    /// corresponding input waveform, over the full window `[0, t_end]`.
    ///
    /// # Errors
    ///
    /// Returns [`TetaError::BadStage`] if `inputs.len()` differs from the
    /// driver count, and propagates pole-extraction or SC-divergence
    /// failures.
    pub fn evaluate(
        &self,
        w: &[f64],
        variation: DeviceVariation,
        inputs: &[Waveform],
        h: f64,
        t_end: f64,
    ) -> Result<StageResult, TetaError> {
        self.evaluate_until(w, variation, inputs, h, t_end, None)
    }

    /// [`StageModel::evaluate`] with an optional [`StopRule`]: the time
    /// loop stops before `t_end` once the rule's reader has all it reads
    /// of its port. What the rule reads is bit-identical to the full
    /// window's.
    ///
    /// # Errors
    ///
    /// As [`StageModel::evaluate`], plus [`TetaError::BadStage`] for a rule
    /// naming a missing port or a negative or non-finite tail.
    pub fn evaluate_until(
        &self,
        w: &[f64],
        variation: DeviceVariation,
        inputs: &[Waveform],
        h: f64,
        t_end: f64,
        stop: Option<StopRule>,
    ) -> Result<StageResult, TetaError> {
        let _span = linvar_metrics::timer(linvar_metrics::Phase::StageEval);
        let rom = self.vrom.evaluate(w)?;
        self.evaluate_with_rom(&rom, inputs, self.options(variation, h, t_end, stop))
    }

    /// Evaluates the stage under the failure-recovery ladder.
    ///
    /// Rungs, in order; each reduced-model rung gets the full SC retry
    /// schedule (plain iteration, then step refinement with damping):
    ///
    /// 1. first-order variational ROM, passed through the MOR
    ///    order-degradation ladder ([`extract_stabilized_degrading`]);
    /// 2. exact per-sample reduction (fresh matrices, fresh basis);
    /// 3. the unreduced MNA load — no reduction at all, pole/residue
    ///    extraction straight from `(G(w), C(w))`.
    ///
    /// Configuration errors ([`TetaError::BadStage`]) abort immediately:
    /// every rung would repeat them. On success the [`StageRecovery`]
    /// records which rung and retry served the sample. Every SC attempt
    /// runs under `stop` (see [`StageModel::evaluate_until`]).
    ///
    /// # Errors
    ///
    /// Returns the last rung's error once the ladder is exhausted. Callers
    /// with access to a SPICE engine should treat that as "degrade to
    /// baseline SPICE".
    pub fn evaluate_recovering(
        &self,
        w: &[f64],
        variation: DeviceVariation,
        inputs: &[Waveform],
        h: f64,
        t_end: f64,
        stop: Option<StopRule>,
    ) -> Result<(StageResult, StageRecovery), TetaError> {
        let _span = linvar_metrics::timer(linvar_metrics::Phase::StageEval);
        let opts = self.options(variation, h, t_end, stop);
        let mut recovery = StageRecovery::default();
        let mut sc_retries = 0usize;
        let mut last_err: Option<TetaError> = None;

        // Rung 1: variational ROM + order-degradation ladder.
        let rung1 = self
            .vrom
            .evaluate(w)
            .map_err(TetaError::from)
            .and_then(|rom| {
                recovery.original_order = rom.order();
                extract_stabilized_degrading(&rom, DEFAULT_BETA_TOL).map_err(TetaError::from)
            });
        match rung1 {
            Ok((stable, stability, deg)) => {
                recovery.served_order = deg.served_order;
                recovery.removed_poles = deg.removed_poles;
                recovery.max_beta_deviation = deg.max_beta_deviation;
                match self.sc_attempts(&stable, &stability, inputs, &opts, &mut sc_retries)? {
                    Ok(res) => {
                        recovery.sc_retries = sc_retries;
                        return Ok((res, recovery));
                    }
                    Err(e) => drop(last_err.get_or_insert(e)),
                }
            }
            Err(e) if recoverable(&e) => drop(last_err.get_or_insert(e)),
            Err(e) => return Err(e),
        }

        // Rungs 2 and 3 read the full-order load, densified at the sample
        // once.
        let load = &self.inputs.load;
        let (g, c) = load.eval(w);

        // Rung 2: exact reduction at the sample.
        let rung2 = self
            .vrom
            .evaluate_exact(&g, &c, load.port_indices())
            .map_err(TetaError::from)
            .and_then(|rom| {
                extract_stabilized_degrading(&rom, DEFAULT_BETA_TOL).map_err(TetaError::from)
            });
        match rung2 {
            Ok((stable, stability, deg)) => {
                match self.sc_attempts(&stable, &stability, inputs, &opts, &mut sc_retries)? {
                    Ok(res) => {
                        recovery.exact_reduction = true;
                        recovery.served_order = deg.served_order;
                        recovery.removed_poles = deg.removed_poles;
                        recovery.max_beta_deviation = deg.max_beta_deviation;
                        recovery.sc_retries = sc_retries;
                        return Ok((res, recovery));
                    }
                    Err(e) => drop(last_err.get_or_insert(e)),
                }
            }
            Err(e) if recoverable(&e) => drop(last_err.get_or_insert(e)),
            Err(e) => return Err(e),
        }

        // Rung 3: the unreduced MNA load — stabilize the full node-space
        // pencil directly. Expensive (dense eigensolve at full dimension)
        // but the most faithful model short of baseline SPICE.
        let full = ReducedModel {
            gr: g,
            cr: c,
            br: load.port_incidence(),
        };
        let rung3 = extract_pole_residue(&full)
            .map(|pr| (full.order(), stabilize(&pr)))
            .map_err(TetaError::from);
        match rung3 {
            Ok((order, (stable, stability))) => {
                match self.sc_attempts(&stable, &stability, inputs, &opts, &mut sc_retries)? {
                    Ok(res) => {
                        recovery.unreduced_fallback = true;
                        recovery.served_order = order;
                        recovery.removed_poles = stability.removed_poles.len();
                        recovery.max_beta_deviation = stability.max_beta_deviation;
                        recovery.sc_retries = sc_retries;
                        return Ok((res, recovery));
                    }
                    Err(e) => drop(last_err.get_or_insert(e)),
                }
            }
            Err(e) if recoverable(&e) => drop(last_err.get_or_insert(e)),
            Err(e) => return Err(e),
        }

        Err(last_err.unwrap_or_else(|| {
            TetaError::BadStage("stage recovery ladder exhausted with no recorded error".into())
        }))
    }

    /// Runs the SC retry schedule against one stabilized model. The outer
    /// `Result` carries unrecoverable configuration errors (abort the
    /// ladder); the inner one reports whether any attempt converged.
    fn sc_attempts(
        &self,
        stable: &PoleResidueModel,
        stability: &StabilityReport,
        inputs: &[Waveform],
        opts: &StageSolverOptions,
        sc_retries: &mut usize,
    ) -> Result<Result<StageResult, TetaError>, TetaError> {
        let mut last: Option<TetaError> = None;
        for &(refine, damping) in &SC_SCHEDULE {
            let mut attempt = opts.clone();
            attempt.h = opts.h / refine;
            attempt.sc_damping = damping;
            match self.run_sc(stable, stability, inputs, attempt) {
                Ok(res) => return Ok(Ok(res)),
                Err(e) if recoverable(&e) => {
                    *sc_retries += 1;
                    linvar_metrics::incr(linvar_metrics::Counter::ScStageRetries);
                    last = Some(e);
                }
                Err(e) => return Err(e),
            }
        }
        Ok(Err(last.unwrap_or_else(|| {
            TetaError::BadStage("empty SC retry schedule".into())
        })))
    }

    /// Reference evaluation: recomputes the *exact* reduction at the
    /// sample (fresh matrices, fresh basis) instead of the first-order
    /// variational model — what a non-variational flow would pay for every
    /// sample. Used by the Figure-6 accuracy comparison.
    ///
    /// # Errors
    ///
    /// Same conditions as [`StageModel::evaluate`].
    pub fn evaluate_exact(
        &self,
        w: &[f64],
        variation: DeviceVariation,
        inputs: &[Waveform],
        h: f64,
        t_end: f64,
    ) -> Result<StageResult, TetaError> {
        let load = &self.inputs.load;
        let (g, c) = load.eval(w);
        let rom = self.vrom.evaluate_exact(&g, &c, load.port_indices())?;
        self.evaluate_with_rom(&rom, inputs, self.options(variation, h, t_end, None))
    }

    /// Solver options of one plain SC run of this stage.
    fn options(
        &self,
        variation: DeviceVariation,
        h: f64,
        t_end: f64,
        stop: Option<StopRule>,
    ) -> StageSolverOptions {
        let vdd = self.inputs.vdd;
        let mut opts = StageSolverOptions::new(vdd, t_end, h);
        opts.variation = variation;
        opts.compress_tol = 1e-4 * vdd;
        opts.stop = stop;
        opts
    }

    fn evaluate_with_rom(
        &self,
        rom: &linvar_mor::ReducedModel,
        inputs: &[Waveform],
        opts: StageSolverOptions,
    ) -> Result<StageResult, TetaError> {
        let pr = extract_pole_residue(rom)?;
        let (stable, stability) = stabilize(&pr);
        self.run_sc(&stable, &stability, inputs, opts)
    }

    /// One successive-chords run against a stabilized load model. The
    /// stability report is borrowed so the SC retry schedule does not clone
    /// it per attempt; only the successful run materializes a copy into the
    /// returned [`StageResult`].
    fn run_sc(
        &self,
        stable: &PoleResidueModel,
        stability: &StabilityReport,
        inputs: &[Waveform],
        opts: StageSolverOptions,
    ) -> Result<StageResult, TetaError> {
        let s = &self.inputs;
        if inputs.len() != s.driver_ports.len() {
            return Err(TetaError::BadStage(format!(
                "{} inputs for {} drivers",
                inputs.len(),
                s.driver_ports.len()
            )));
        }
        let drivers: Vec<DriverSpec> = s
            .driver_ports
            .iter()
            .zip(inputs)
            .map(|(&(port, g_out), input)| DriverSpec {
                port,
                input: input.clone(),
                nmos: s.nmos.clone(),
                pmos: s.pmos.clone(),
                wn: s.wn,
                wp: s.wp,
                length: s.length,
                g_out,
            })
            .collect();
        let (waveforms, stats) = StageSolver::new(stable, drivers, opts)?.run()?;
        Ok(StageResult {
            waveforms,
            stability: stability.clone(),
            stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use linvar_devices::tech_018;
    use linvar_interconnect::{CoupledLineSpec, WireTech};

    /// Single line, 20 µm, driver at the near end, observer at the far end.
    fn line_stage() -> (StageModel, usize) {
        let tech = tech_018();
        let spec = CoupledLineSpec::new(1, 20e-6, WireTech::m018());
        let built = linvar_interconnect::builder::build_coupled_lines(&spec).unwrap();
        let model = StageModel::build(
            &built.netlist,
            &[built.inputs[0]],
            &tech,
            ReductionMethod::Prima { order: 6 },
            0.02,
        )
        .unwrap();
        // Output port position: far end was marked after the near ends.
        let out_pos = built
            .netlist
            .ports()
            .iter()
            .position(|p| *p == built.outputs[0])
            .unwrap();
        (model, out_pos)
    }

    #[test]
    fn nominal_stage_switches() {
        let (model, out_pos) = line_stage();
        let input = Waveform::ramp(0.0, 1.8, 20e-12, 50e-12);
        let res = model
            .evaluate(
                &[0.0; 5],
                DeviceVariation::nominal(),
                &[input],
                1e-12,
                1.5e-9,
            )
            .unwrap();
        let out = &res.waveforms[out_pos];
        assert!(out.initial_value() > 1.7, "far end starts high");
        assert!(out.final_value() < 0.1, "far end discharges");
    }

    #[test]
    fn wire_variation_changes_delay() {
        let (model, out_pos) = line_stage();
        let input = Waveform::ramp(0.0, 1.8, 20e-12, 50e-12);
        let delay = |w: &[f64]| -> f64 {
            let res = model
                .evaluate(
                    w,
                    DeviceVariation::nominal(),
                    std::slice::from_ref(&input),
                    1e-12,
                    2e-9,
                )
                .unwrap();
            res.waveforms[out_pos].crossing(0.9, false).expect("falls")
        };
        let nominal = delay(&[0.0; 5]);
        // Thicker metal (+T) raises both R⁻¹… T up → R down but C up; use
        // resistivity which is unambiguous: +rho → slower.
        let slow = delay(&[0.0, 0.0, 0.0, 0.0, 1.0]);
        let fast = delay(&[0.0, 0.0, 0.0, 0.0, -1.0]);
        assert!(
            slow > nominal && nominal > fast,
            "rho ordering: {fast} < {nominal} < {slow}"
        );
    }

    #[test]
    fn wrong_input_count_rejected() {
        let (model, _) = line_stage();
        let res = model.evaluate(&[0.0; 5], DeviceVariation::nominal(), &[], 1e-12, 1e-9);
        assert!(res.is_err());
    }

    #[test]
    fn clean_sample_recovering_matches_plain_evaluate() {
        let (model, out_pos) = line_stage();
        let input = Waveform::ramp(0.0, 1.8, 20e-12, 50e-12);
        let plain = model
            .evaluate(
                &[0.0; 5],
                DeviceVariation::nominal(),
                std::slice::from_ref(&input),
                1e-12,
                1.5e-9,
            )
            .unwrap();
        let (recovered, recovery) = model
            .evaluate_recovering(
                &[0.0; 5],
                DeviceVariation::nominal(),
                &[input],
                1e-12,
                1.5e-9,
                None,
            )
            .unwrap();
        assert!(recovery.was_clean(), "recovery: {recovery:?}");
        assert_eq!(recovery.sc_retries, 0);
        assert!(!recovery.exact_reduction && !recovery.unreduced_fallback);
        // The clean rung is the same computation as the plain flow:
        // identical waveforms, bitwise.
        assert_eq!(
            plain.waveforms[out_pos].points(),
            recovered.waveforms[out_pos].points()
        );
    }

    #[test]
    fn stability_report_is_returned() {
        let (model, _) = line_stage();
        let input = Waveform::ramp(0.0, 1.8, 10e-12, 40e-12);
        let res = model
            .evaluate(&[0.5; 5], DeviceVariation::nominal(), &[input], 1e-12, 1e-9)
            .unwrap();
        // Whether or not poles were removed, β must be finite and the
        // resulting run completed.
        assert!(res.stability.max_beta_deviation.is_finite());
    }
}
