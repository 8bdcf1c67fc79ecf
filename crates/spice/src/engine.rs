//! The transient analysis engine.
//!
//! Modified nodal analysis with trapezoidal companion models for
//! capacitors, Newton-Raphson linearization for level-1 MOSFETs, gmin
//! stepping for the DC operating point, and timestep halving with
//! divergence detection.
//!
//! # Linear solve strategy
//!
//! The system matrix is `A = A0 + Σ_k u_k·v_kᵀ` where `A0` collects every
//! *linear* stamp (resistors, capacitor companions, source rows,
//! pole/residue state rows — all constant for a fixed timestep) and each
//! MOSFET contributes a rank-one Newton update (its conductance rows `d`
//! and `s` are negatives of each other). `A0` is factored once per
//! timestep value and the Newton iterations solve through the Woodbury
//! identity, which is algebraically exact. A `dense_rebuild` option
//! re-assembles and refactors the full matrix every iteration instead;
//! tests cross-check the two paths.

use crate::error::SpiceError;
use crate::poleres_load::OnePortPoleResidue;
use linvar_circuit::{Element, Netlist, NodeId};
use linvar_devices::{DeviceVariation, ModelLibrary, MosParams};
use linvar_numeric::{
    AnySolver, LinearSolver, LuFactor, Matrix, SolverBackend, SolverChoice, SparseLu, SparseMatrix,
};
use std::collections::HashMap;

/// Options for a transient analysis.
#[derive(Debug, Clone)]
pub struct TransientOptions {
    /// Stop time (s).
    pub tstop: f64,
    /// Nominal timestep (s).
    pub dt: f64,
    /// Minimum timestep before declaring divergence (s).
    pub dt_min: f64,
    /// Newton iteration limit per timestep.
    pub max_newton: usize,
    /// Relative convergence tolerance on voltages.
    pub reltol: f64,
    /// Absolute convergence tolerance on voltages (V).
    pub vabstol: f64,
    /// Node names whose waveforms are recorded.
    pub probes: Vec<String>,
    /// Voltage magnitude treated as numerical blow-up (V).
    pub v_limit: f64,
    /// Rebuild and refactor the dense matrix every Newton iteration
    /// instead of using the Woodbury update (slow; for cross-checking).
    pub dense_rebuild: bool,
    /// Always-on conductance from every node to ground (S), for floating
    /// nodes.
    pub gmin: f64,
    /// Linear-solver backend for the `A0` factorizations. `Auto` (the
    /// default) consults `LINVAR_SOLVER` and then matrix order; pinning
    /// `Dense`/`Sparse` here keeps tests free of environment races.
    /// Circuits with a pole/residue load always use the dense backend.
    pub solver: SolverChoice,
}

impl TransientOptions {
    /// Creates options with the given stop time and timestep and library
    /// defaults for everything else.
    pub fn new(tstop: f64, dt: f64) -> Self {
        TransientOptions {
            tstop,
            dt,
            dt_min: dt / 4096.0,
            max_newton: 80,
            reltol: 1e-4,
            vabstol: 1e-6,
            probes: Vec::new(),
            v_limit: 1e3,
            dense_rebuild: false,
            gmin: 1e-12,
            solver: SolverChoice::Auto,
        }
    }
}

/// Result of a transient analysis.
#[derive(Debug, Clone)]
pub struct TransientResult {
    /// Accepted time points (s).
    pub times: Vec<f64>,
    /// Probed waveforms, keyed by node name.
    pub waveforms: HashMap<String, Vec<f64>>,
    /// Performance counters for runtime comparisons.
    pub stats: SolveStats,
    /// What the failure-recovery ladder had to do to complete the run.
    pub recovery: RecoveryLog,
}

/// Which rung of the DC recovery ladder produced the operating point.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum DcStrategy {
    /// Plain damped Newton from a zero initial guess, no artificial
    /// conductance beyond the always-on `gmin` option.
    #[default]
    DirectNewton,
    /// Continuation over a decreasing extra node-to-ground conductance,
    /// relaxed to zero for the final reported solve.
    GminStepping,
    /// Continuation over the source amplitudes ramped from 10% to 100%.
    SourceStepping,
}

/// Recovery actions recorded during one analysis.
///
/// A run that needed no recovery reports the default value: `DirectNewton`,
/// zero counted steps, and no timestep halvings.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecoveryLog {
    /// Ladder rung that produced the DC operating point.
    pub dc_strategy: DcStrategy,
    /// Number of gmin continuation solves performed (including the final
    /// relax-to-zero solve).
    pub dc_gmin_steps: usize,
    /// Number of source-stepping continuation solves performed.
    pub dc_source_steps: usize,
    /// Timestep halvings during the sweep (exponential backoff events).
    pub timestep_halvings: usize,
    /// Smallest timestep actually used by an accepted step (s); equals the
    /// nominal `dt` when no halving was needed, 0.0 if no steps were taken.
    pub min_timestep_used: f64,
}

impl RecoveryLog {
    /// `true` if the run completed without any recovery action.
    pub fn was_clean(&self) -> bool {
        self.dc_strategy == DcStrategy::DirectNewton && self.timestep_halvings == 0
    }
}

impl TransientResult {
    /// The waveform of a probed node.
    pub fn probe(&self, node: &str) -> Option<&[f64]> {
        self.waveforms.get(node).map(|v| v.as_slice())
    }
}

/// Work counters of one analysis.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SolveStats {
    /// Accepted timesteps.
    pub steps: usize,
    /// Total Newton iterations.
    pub newton_iterations: usize,
    /// Full dense LU factorizations performed.
    pub lu_factorizations: usize,
    /// Triangular solves performed.
    pub solves: usize,
}

/// One device's Newton-update row pattern: `(drain, gate, source, gm, gds)`.
type DeviceRow = (Option<usize>, Option<usize>, Option<usize>, f64, f64);

/// A MOSFET instance resolved against the model library.
#[derive(Debug, Clone)]
struct ResolvedMos {
    d: Option<usize>,
    g: Option<usize>,
    s: Option<usize>,
    b: Option<usize>,
    params: MosParams,
    width: f64,
    length: f64,
}

/// One independent source resolved to matrix positions.
#[derive(Debug, Clone)]
enum ResolvedSource {
    V {
        branch_row: usize,
        waveform: linvar_circuit::SourceWaveform,
    },
    I {
        pos: Option<usize>,
        neg: Option<usize>,
        waveform: linvar_circuit::SourceWaveform,
    },
}

/// Capacitor with trapezoidal companion state.
#[derive(Debug, Clone)]
struct CapState {
    a: Option<usize>,
    b: Option<usize>,
    value: f64,
    /// Capacitor current at the last accepted time point.
    i_prev: f64,
}

/// Inductor with trapezoidal companion state (no extra unknown: the
/// branch current is reconstructed from the terminal voltages).
#[derive(Debug, Clone)]
struct IndState {
    a: Option<usize>,
    b: Option<usize>,
    value: f64,
    /// Inductor current (a → b) at the last accepted time point.
    i_prev: f64,
}

/// Conductance standing in for an inductor at DC (a short).
const INDUCTOR_DC_SHORT: f64 = 1e6;

/// A prepared transient analysis.
#[derive(Debug)]
pub struct Transient {
    opts: TransientOptions,
    /// `opts.probes` resolved to MNA rows in `build` (ground and unknown
    /// names are rejected there).
    probes: Vec<(String, usize)>,
    n_nodes: usize,
    n_vsrc: usize,
    /// Total unknowns including pole/residue extras.
    dim: usize,
    devices: Vec<ResolvedMos>,
    sources: Vec<ResolvedSource>,
    caps: Vec<CapState>,
    inductors: Vec<IndState>,
    /// Constant conductance stamps (resistors, vsource incidence, gmin),
    /// kept as `(row, col, value)` triplets in emission order so either
    /// backend can assemble them: the dense path replays them with `+=`
    /// (bit-identical to the historical presummed matrix), the sparse
    /// path hands them to CSC assembly, which sums duplicates in the
    /// same emission order.
    static_stamps: Vec<(usize, usize, f64)>,
    poleres: Option<OnePortPoleResidue>,
    variation: DeviceVariation,
    /// Amplitude scale on every independent source (1.0 except while the
    /// DC source-stepping rung is active).
    source_scale: f64,
}

impl Transient {
    /// Prepares an analysis of a linear (device-free) netlist.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::BadCircuit`] if the netlist contains MOSFETs
    /// (use [`Transient::with_devices`]) or has no nodes, or if a probe
    /// name is unknown or names ground.
    pub fn new(nl: &Netlist, opts: &TransientOptions) -> Result<Self, SpiceError> {
        if !nl.mosfets().is_empty() {
            return Err(SpiceError::BadCircuit(
                "netlist has mosfets; use Transient::with_devices".into(),
            ));
        }
        Self::build(nl, None, DeviceVariation::nominal(), opts)
    }

    /// Prepares an analysis of a netlist with MOSFETs, resolving models
    /// against `lib` and applying the device variation sample.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::BadCircuit`] for unknown model names, empty
    /// netlists, or probe names that are unknown or name ground.
    pub fn with_devices(
        nl: &Netlist,
        lib: &ModelLibrary,
        variation: DeviceVariation,
        opts: &TransientOptions,
    ) -> Result<Self, SpiceError> {
        Self::build(nl, Some(lib), variation, opts)
    }

    /// Attaches a one-port pole/residue load to the prepared analysis.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::BadCircuit`] if the load's node is unknown.
    pub fn with_poleres_load(mut self, load: OnePortPoleResidue) -> Result<Self, SpiceError> {
        if load.node_index() >= self.n_nodes {
            return Err(SpiceError::BadCircuit(format!(
                "pole/residue load node index {} out of range",
                load.node_index()
            )));
        }
        self.dim = self.n_nodes + self.n_vsrc + load.extra_unknowns();
        self.poleres = Some(load);
        Ok(self)
    }

    fn build(
        nl: &Netlist,
        lib: Option<&ModelLibrary>,
        variation: DeviceVariation,
        opts: &TransientOptions,
    ) -> Result<Self, SpiceError> {
        let n_nodes = nl.node_count();
        if n_nodes == 0 {
            return Err(SpiceError::BadCircuit("netlist has no nodes".into()));
        }
        let probes = opts
            .probes
            .iter()
            .map(|p| match nl.find_node(p).map(NodeId::mna_index) {
                None => Err(SpiceError::BadCircuit(format!("unknown probe node {p}"))),
                Some(None) => Err(SpiceError::BadCircuit(format!("cannot probe ground ({p})"))),
                Some(Some(i)) => Ok((p.clone(), i)),
            })
            .collect::<Result<Vec<_>, _>>()?;
        let n_vsrc = nl.vsource_count();
        let dim = n_nodes + n_vsrc;
        let mut static_stamps: Vec<(usize, usize, f64)> = Vec::new();
        let mut sources = Vec::new();
        let mut caps = Vec::new();
        let mut inductors = Vec::new();
        let mut branch = n_nodes;
        let idx = |n: NodeId| n.mna_index();
        for e in nl.elements() {
            match e {
                Element::Resistor { a, b, value, .. } => {
                    stamp_t(&mut static_stamps, idx(*a), idx(*b), 1.0 / value.nominal);
                }
                Element::Capacitor { a, b, value, .. } => {
                    caps.push(CapState {
                        a: idx(*a),
                        b: idx(*b),
                        value: value.nominal,
                        i_prev: 0.0,
                    });
                }
                Element::Inductor { a, b, value, .. } => {
                    inductors.push(IndState {
                        a: idx(*a),
                        b: idx(*b),
                        value: value.nominal,
                        i_prev: 0.0,
                    });
                }
                Element::VSource {
                    pos, neg, waveform, ..
                } => {
                    if let Some(i) = idx(*pos) {
                        static_stamps.push((i, branch, 1.0));
                        static_stamps.push((branch, i, 1.0));
                    }
                    if let Some(j) = idx(*neg) {
                        static_stamps.push((j, branch, -1.0));
                        static_stamps.push((branch, j, -1.0));
                    }
                    sources.push(ResolvedSource::V {
                        branch_row: branch,
                        waveform: waveform.clone(),
                    });
                    branch += 1;
                }
                Element::ISource {
                    pos, neg, waveform, ..
                } => {
                    sources.push(ResolvedSource::I {
                        pos: idx(*pos),
                        neg: idx(*neg),
                        waveform: waveform.clone(),
                    });
                }
            }
        }
        // Gmin from every node to ground.
        for i in 0..n_nodes {
            static_stamps.push((i, i, opts.gmin));
        }
        let mut devices = Vec::new();
        for m in nl.mosfets() {
            let lib = lib.ok_or_else(|| {
                SpiceError::BadCircuit("mosfets present but no model library given".into())
            })?;
            let params = lib
                .get(&m.model)
                .ok_or_else(|| SpiceError::BadCircuit(format!("unknown model {}", m.model)))?
                .clone();
            devices.push(ResolvedMos {
                d: idx(m.drain),
                g: idx(m.gate),
                s: idx(m.source),
                b: idx(m.bulk),
                params,
                width: m.width,
                length: m.length,
            });
        }
        Ok(Transient {
            opts: opts.clone(),
            probes,
            n_nodes,
            n_vsrc,
            dim,
            devices,
            sources,
            caps,
            inductors,
            static_stamps,
            poleres: None,
            variation,
            source_scale: 1.0,
        })
    }

    /// Runs the analysis: DC operating point, then timestepping to `tstop`.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::DcOperatingPoint`] or
    /// [`SpiceError::ConvergenceFailure`] when Newton cannot converge —
    /// including the voltage blow-up produced by unstable macromodel loads.
    pub fn run(mut self) -> Result<TransientResult, SpiceError> {
        let mut stats = SolveStats::default();
        let mut recovery = RecoveryLog::default();
        let opts = self.opts.clone();
        let dc_span = linvar_metrics::timer(linvar_metrics::Phase::SpiceDc);
        // ---------------- DC operating point (recovery ladder) -----------
        // Rung 0: plain damped Newton, no artificial conductance, so a
        // well-behaved circuit reports an operating point with nothing
        // extra stamped into it.
        // Factorization cache, shared across the DC ladder and the
        // transient loop so the sparse backend can refactor on a reused
        // elimination pattern instead of re-running symbolic analysis.
        let mut cache: Option<StepCache> = None;
        let mut x = vec![0.0; self.dim];
        let mut last_err = self.solve_dc(&mut x, 0.0, &mut cache, &mut stats).err();
        if last_err.is_some() {
            // Rung 1: gmin stepping — continuation over a decreasing extra
            // node-to-ground conductance. Unlike the classic loop that
            // leaves the last gmin stamped, the ladder finishes with a
            // relax-to-zero solve from the converged continuation point.
            recovery.dc_strategy = DcStrategy::GminStepping;
            x = vec![0.0; self.dim];
            let mut converged = false;
            for gmin_exp in [-3.0_f64, -5.0, -7.0, -9.0, -12.0] {
                let gmin = 10f64.powf(gmin_exp);
                recovery.dc_gmin_steps += 1;
                match self.solve_dc(&mut x, gmin, &mut cache, &mut stats) {
                    Ok(()) => converged = true,
                    Err(e) => {
                        // Keep the partial solution as the next start.
                        converged = false;
                        last_err = Some(e);
                    }
                }
            }
            if converged {
                recovery.dc_gmin_steps += 1;
                last_err = self.solve_dc(&mut x, 0.0, &mut cache, &mut stats).err();
            }
        }
        if last_err.is_some() {
            // Rung 2: source stepping — ramp every independent source from
            // 10% to full amplitude with continuation, then solve clean.
            recovery.dc_strategy = DcStrategy::SourceStepping;
            x = vec![0.0; self.dim];
            let mut ramp_ok = true;
            for k in 1..=10u32 {
                self.source_scale = f64::from(k) / 10.0;
                recovery.dc_source_steps += 1;
                if let Err(e) = self.solve_dc(&mut x, 1e-9, &mut cache, &mut stats) {
                    last_err = Some(e);
                    ramp_ok = false;
                    break;
                }
            }
            self.source_scale = 1.0;
            if ramp_ok {
                recovery.dc_source_steps += 1;
                last_err = self.solve_dc(&mut x, 0.0, &mut cache, &mut stats).err();
            }
        }
        if let Some(e) = last_err {
            return Err(match e {
                SpiceError::ConvergenceFailure { reason, .. } => SpiceError::DcOperatingPoint {
                    reason: format!(
                        "dc recovery ladder exhausted (direct newton, gmin stepping, \
                         source stepping): {reason}"
                    ),
                },
                other => other,
            });
        }
        linvar_metrics::incr(match recovery.dc_strategy {
            DcStrategy::DirectNewton => linvar_metrics::Counter::DcDirectNewton,
            DcStrategy::GminStepping => linvar_metrics::Counter::DcGminStepping,
            DcStrategy::SourceStepping => linvar_metrics::Counter::DcSourceStepping,
        });
        // Initialize companion currents at the DC point: zero through
        // capacitors; through each inductor, the current of its DC short.
        for c in &mut self.caps {
            c.i_prev = 0.0;
        }
        for l in &mut self.inductors {
            let v = volt(&x, l.a) - volt(&x, l.b);
            l.i_prev = INDUCTOR_DC_SHORT * v;
        }
        if let Some(p) = &mut self.poleres {
            p.initialize_dc(&x, self.n_nodes + self.n_vsrc);
        }

        // ---------------- transient loop ---------------------------------
        drop(dc_span);
        let _tran_span = linvar_metrics::timer(linvar_metrics::Phase::SpiceTran);
        let mut times = vec![0.0];
        let mut waves: HashMap<String, Vec<f64>> = HashMap::new();
        let probe_idx = std::mem::take(&mut self.probes);
        for (name, i) in &probe_idx {
            waves.insert(name.clone(), vec![x[*i]]);
        }

        let mut t = 0.0;
        let mut h = opts.dt;
        let mut good_steps = 0usize;
        // The DC cache seeds the first transient rebuild (h mismatch); a
        // sparse backend then refactors on the step pattern as h changes.
        while t < opts.tstop - 1e-18 {
            let h_eff = h.min(opts.tstop - t);
            let rebuild = match &cache {
                Some(c) => (c.h - h_eff).abs() > 1e-18 * h_eff,
                None => true,
            };
            if rebuild {
                cache = Some(self.make_cache(
                    h_eff,
                    Some(h_eff),
                    opts.gmin,
                    cache.take(),
                    &mut stats,
                )?);
            }
            let c = cache.as_ref().expect("just built");
            let mut x_new = x.clone();
            let t_new = t + h_eff;
            let res = self.newton(&mut x_new, c, t_new, Some((h_eff, &x)), &mut stats);
            match res {
                Ok(()) => {
                    // Accept the step: update companion states.
                    self.update_cap_currents(&x_new, &x, h_eff);
                    if let Some(p) = &mut self.poleres {
                        p.accept_step(&x_new, self.n_nodes + self.n_vsrc);
                    }
                    t = t_new;
                    x = x_new;
                    times.push(t);
                    for (name, i) in &probe_idx {
                        waves.get_mut(name).expect("inserted").push(x[*i]);
                    }
                    stats.steps += 1;
                    good_steps += 1;
                    recovery.min_timestep_used = if recovery.min_timestep_used == 0.0 {
                        h_eff
                    } else {
                        recovery.min_timestep_used.min(h_eff)
                    };
                    if good_steps >= 8 && h < opts.dt {
                        h = (h * 2.0).min(opts.dt);
                        good_steps = 0;
                    }
                }
                Err(SpiceError::ConvergenceFailure { reason, .. }) => {
                    // Exponential backoff on the timestep, with the dt_min
                    // floor bounding the retry ladder.
                    // The h change makes the next iteration rebuild from
                    // the kept cache (sparse: pattern-reusing refactor).
                    h /= 2.0;
                    good_steps = 0;
                    recovery.timestep_halvings += 1;
                    linvar_metrics::incr(linvar_metrics::Counter::TimestepHalvings);
                    if h < opts.dt_min {
                        return Err(SpiceError::ConvergenceFailure { time: t, reason });
                    }
                }
                Err(other) => return Err(other),
            }
        }
        Ok(TransientResult {
            times,
            waveforms: waves,
            stats,
            recovery,
        })
    }

    /// One DC solve at the given extra node-to-ground conductance, starting
    /// from (and refining) `x`. Sources are scaled by `self.source_scale`.
    /// `reuse` carries the factorization cache across the ladder's
    /// continuation solves (the sparse backend refactors on the reused
    /// elimination pattern instead of factoring from scratch).
    fn solve_dc(
        &self,
        x: &mut Vec<f64>,
        extra_gmin: f64,
        reuse: &mut Option<StepCache>,
        stats: &mut SolveStats,
    ) -> Result<(), SpiceError> {
        let cache = self.make_cache(0.0, None, extra_gmin, reuse.take(), stats)?;
        let res = self.newton(x, &cache, 0.0, None, stats);
        *reuse = Some(cache);
        res
    }

    /// Which factorization backend this analysis uses. Pole/residue loads
    /// stamp dense state rows, so they pin the dense backend; otherwise
    /// the option's choice resolves by system order.
    fn backend(&self) -> SolverBackend {
        if self.poleres.is_some() {
            SolverBackend::Dense
        } else {
            self.opts.solver.backend_for(self.dim)
        }
    }

    /// Assembles the constant part of the Newton matrix as stamp triplets:
    /// static stamps, the extra ladder gmin, and capacitor/inductor
    /// trapezoidal companions for timestep `h` (`None` = DC). The
    /// emission order exactly mirrors the historical dense assembly, so
    /// replaying the triplets with `+=` reproduces its bits.
    fn assemble_triplets(&self, h: Option<f64>, extra_gmin: f64) -> Vec<(usize, usize, f64)> {
        let extra = self.n_nodes + 4 * (self.caps.len() + self.inductors.len());
        let mut t = Vec::with_capacity(self.static_stamps.len() + extra);
        t.extend_from_slice(&self.static_stamps);
        for i in 0..self.n_nodes {
            t.push((i, i, extra_gmin));
        }
        if let Some(h) = h {
            for c in &self.caps {
                let geq = 2.0 * c.value / h;
                stamp_t(&mut t, c.a, c.b, geq);
            }
            for l in &self.inductors {
                let geq = h / (2.0 * l.value);
                stamp_t(&mut t, l.a, l.b, geq);
            }
        } else {
            // DC: inductors are shorts.
            for l in &self.inductors {
                stamp_t(&mut t, l.a, l.b, INDUCTOR_DC_SHORT);
            }
        }
        t
    }

    /// Replays stamp triplets into a dense matrix in emission order.
    fn assemble_dense(&self, triplets: &[(usize, usize, f64)]) -> Matrix {
        let mut a = Matrix::zeros(self.dim, self.dim);
        for &(i, j, v) in triplets {
            a[(i, j)] += v;
        }
        a
    }

    /// Stamps the pole/residue load's constant rows.
    fn stamp_poleres(&self, a: &mut Matrix, h: Option<f64>) {
        if let Some(p) = &self.poleres {
            p.stamp(a, self.n_nodes + self.n_vsrc, h);
        }
    }

    /// RHS vector at time `t` given the previous state (for companions).
    fn assemble_rhs(&self, t: f64, step: Option<(f64, &[f64])>) -> Vec<f64> {
        let mut rhs = vec![0.0; self.dim];
        for s in &self.sources {
            match s {
                ResolvedSource::V {
                    branch_row,
                    waveform,
                } => {
                    rhs[*branch_row] += self.source_scale * waveform.eval(t);
                }
                ResolvedSource::I { pos, neg, waveform } => {
                    let i = self.source_scale * waveform.eval(t);
                    if let Some(p) = pos {
                        rhs[*p] += i;
                    }
                    if let Some(n) = neg {
                        rhs[*n] -= i;
                    }
                }
            }
        }
        if let Some((h, x_prev)) = step {
            for c in &self.caps {
                let geq = 2.0 * c.value / h;
                let v_prev = volt(x_prev, c.a) - volt(x_prev, c.b);
                let ieq = geq * v_prev + c.i_prev;
                if let Some(i) = c.a {
                    rhs[i] += ieq;
                }
                if let Some(j) = c.b {
                    rhs[j] -= ieq;
                }
            }
            for l in &self.inductors {
                let geq = h / (2.0 * l.value);
                let v_prev = volt(x_prev, l.a) - volt(x_prev, l.b);
                // Trap: i_{n+1} = i_n + geq·(v_n + v_{n+1}); the history
                // current i_n + geq·v_n enters the RHS flowing a → b.
                let ieq = l.i_prev + geq * v_prev;
                if let Some(i) = l.a {
                    rhs[i] -= ieq;
                }
                if let Some(j) = l.b {
                    rhs[j] += ieq;
                }
            }
            if let Some(p) = &self.poleres {
                p.rhs(&mut rhs, self.n_nodes + self.n_vsrc, h);
            }
        }
        rhs
    }

    /// Builds the per-timestep cache: for the Woodbury path, factor `A0`
    /// once (on the selected backend) and pre-solve the device incidence
    /// columns. `h_opt` is the companion timestep (`None` = DC); `prev`
    /// donates its sparse factorization for a pattern-reusing numeric
    /// refactor when the backend allows it.
    fn make_cache(
        &self,
        h: f64,
        h_opt: Option<f64>,
        extra_gmin: f64,
        prev: Option<StepCache>,
        stats: &mut SolveStats,
    ) -> Result<StepCache, SpiceError> {
        let triplets = self.assemble_triplets(h_opt, extra_gmin);
        if self.opts.dense_rebuild {
            let mut a0 = self.assemble_dense(&triplets);
            self.stamp_poleres(&mut a0, h_opt);
            return Ok(StepCache {
                h,
                a0: Some(a0),
                solver: None,
                a0inv_u: Matrix::zeros(0, 0),
            });
        }
        let solver = match self.backend() {
            SolverBackend::Dense => {
                let mut a0 = self.assemble_dense(&triplets);
                self.stamp_poleres(&mut a0, h_opt);
                let mut lu = LuFactor::new(&a0).map_err(SpiceError::from)?;
                // The cache serves every Newton iteration until the
                // timestep changes; index the (ladder-sparse) factors once
                // so each of those solves substitutes over the nonzeros
                // only.
                lu.optimize_for_solves();
                AnySolver::Dense(lu)
            }
            SolverBackend::Sparse => {
                let a = SparseMatrix::from_triplets(self.dim, self.dim, &triplets)
                    .map_err(SpiceError::from)?;
                // Numeric-only refactor when the previous step's pattern
                // matches (same circuit, new companion values); a pattern
                // change or pivot breakdown falls back to a full factor —
                // whose symbolic ordering is itself served by the
                // per-worker pattern cache.
                let reused = prev.and_then(|p| match p.solver {
                    Some(AnySolver::Sparse(mut lu)) => lu.refactor(&a).ok().map(|()| lu),
                    _ => None,
                });
                match reused {
                    Some(lu) => AnySolver::Sparse(lu),
                    None => AnySolver::Sparse(SparseLu::new(&a).map_err(SpiceError::from)?),
                }
            }
        };
        stats.lu_factorizations += 1;
        let ndev = self.devices.len();
        let a0inv_u = if ndev > 0 {
            // u_k = e_d - e_s (columns).
            let mut u = Matrix::zeros(self.dim, ndev);
            for (k, dev) in self.devices.iter().enumerate() {
                if let Some(d) = dev.d {
                    u[(d, k)] += 1.0;
                }
                if let Some(s) = dev.s {
                    u[(s, k)] -= 1.0;
                }
            }
            stats.solves += ndev;
            solver.solve_mat(&u).map_err(SpiceError::from)?
        } else {
            Matrix::zeros(0, 0)
        };
        Ok(StepCache {
            h,
            a0: None,
            solver: Some(solver),
            a0inv_u,
        })
    }

    /// Newton-Raphson at one time point. `step` carries `(h, previous
    /// state)` for transient points and is `None` for DC.
    fn newton(
        &self,
        x: &mut Vec<f64>,
        cache: &StepCache,
        t: f64,
        step: Option<(f64, &[f64])>,
        stats: &mut SolveStats,
    ) -> Result<(), SpiceError> {
        let rhs_base = self.assemble_rhs(t, step);
        let (delta_l, delta_vt) = (self.variation.delta_l(), self.variation.delta_vt());
        let ndev = self.devices.len();
        let solver = &cache.solver;
        let a0inv_u = &cache.a0inv_u;

        for _iter in 0..self.opts.max_newton {
            stats.newton_iterations += 1;
            linvar_metrics::incr(linvar_metrics::Counter::NewtonIterations);
            // Device evaluation at the current iterate.
            let mut rhs = rhs_base.clone();
            // v-row coefficient vectors for Woodbury (one per device).
            let mut vrows: Vec<DeviceRow> = Vec::with_capacity(ndev);
            for dev in &self.devices {
                let vd = volt(x, dev.d);
                let vg = volt(x, dev.g);
                let vs = volt(x, dev.s);
                let vb = volt(x, dev.b);
                let op = dev.params.eval(
                    vg - vs,
                    vd - vs,
                    vb - vs,
                    dev.width,
                    dev.length,
                    delta_l,
                    delta_vt,
                );
                // Norton companion: current into drain ≈
                //   gds·vd + gm·vg - (gm+gds)·vs + ieq
                let ieq = op.ids - op.gm * (vg - vs) - op.gds * (vd - vs);
                if let Some(d) = dev.d {
                    rhs[d] -= ieq;
                }
                if let Some(s) = dev.s {
                    rhs[s] += ieq;
                }
                vrows.push((dev.d, dev.g, dev.s, op.gm, op.gds));
            }
            // Solve the linearized system.
            let x_next = if let Some(solver) = solver {
                stats.solves += 1;
                let y = solver.solve(&rhs).map_err(SpiceError::from)?;
                if ndev == 0 {
                    y
                } else {
                    // Woodbury: (A0 + U Vᵀ)⁻¹ rhs
                    //   = y - A0⁻¹U (I + VᵀA0⁻¹U)⁻¹ Vᵀ y.
                    // Each Vᵀ row touches at most three entries of its
                    // operand, so read them straight from `a0inv_u`/`y`
                    // (same accumulation order as a materialized column).
                    fn vt_dot(row: &DeviceRow, vec_src: impl Fn(usize) -> f64) -> f64 {
                        let (d, g, s, gm, gds) = *row;
                        let mut acc = 0.0;
                        if let Some(d) = d {
                            acc += gds * vec_src(d);
                        }
                        if let Some(g) = g {
                            acc += gm * vec_src(g);
                        }
                        if let Some(s) = s {
                            acc -= (gm + gds) * vec_src(s);
                        }
                        acc
                    }
                    let mut small = Matrix::identity(ndev);
                    for (r, row) in vrows.iter().enumerate() {
                        for ccol in 0..ndev {
                            small[(r, ccol)] += vt_dot(row, |i| a0inv_u[(i, ccol)]);
                        }
                    }
                    let vty: Vec<f64> = vrows.iter().map(|row| vt_dot(row, |i| y[i])).collect();
                    let lu_small = LuFactor::new(&small).map_err(SpiceError::from)?;
                    let z = lu_small.solve(&vty).map_err(SpiceError::from)?;
                    let mut out = y;
                    for i in 0..self.dim {
                        let mut corr = 0.0;
                        for k in 0..ndev {
                            corr += a0inv_u[(i, k)] * z[k];
                        }
                        out[i] -= corr;
                    }
                    out
                }
            } else {
                // Dense rebuild path: stamp devices into a copy and factor.
                let mut a = cache
                    .a0
                    .as_ref()
                    .expect("dense_rebuild cache carries the assembled matrix")
                    .clone();
                for (d, g, s, gm, gds) in &vrows {
                    stamp_device(&mut a, *d, *g, *s, *gm, *gds);
                }
                stats.lu_factorizations += 1;
                stats.solves += 1;
                let lu = LuFactor::new(&a).map_err(SpiceError::from)?;
                lu.solve(&rhs).map_err(SpiceError::from)?
            };
            // Convergence / blow-up checks with voltage-step damping.
            let mut max_dx = 0.0_f64;
            let mut max_v = 0.0_f64;
            let mut x_damped = x.clone();
            for i in 0..self.dim {
                let mut dx = x_next[i] - x[i];
                if i < self.n_nodes {
                    dx = dx.clamp(-1.0, 1.0);
                }
                x_damped[i] = x[i] + dx;
                max_dx = max_dx.max(dx.abs());
                max_v = max_v.max(x_damped[i].abs());
                if !x_damped[i].is_finite() {
                    return Err(SpiceError::ConvergenceFailure {
                        time: t,
                        reason: "non-finite solution".into(),
                    });
                }
            }
            if max_v > self.opts.v_limit {
                return Err(SpiceError::ConvergenceFailure {
                    time: t,
                    reason: "voltage overflow (unstable load?)".into(),
                });
            }
            *x = x_damped;
            let vnorm = x
                .iter()
                .take(self.n_nodes)
                .fold(0.0_f64, |m, v| m.max(v.abs()));
            if max_dx < self.opts.vabstol + self.opts.reltol * vnorm {
                return Ok(());
            }
        }
        Err(SpiceError::ConvergenceFailure {
            time: t,
            reason: "newton iteration limit".into(),
        })
    }

    /// Updates capacitor and inductor companion currents after an
    /// accepted step.
    fn update_cap_currents(&mut self, x_new: &[f64], x_old: &[f64], h: f64) {
        for c in &mut self.caps {
            let geq = 2.0 * c.value / h;
            let v_new = volt(x_new, c.a) - volt(x_new, c.b);
            let v_old = volt(x_old, c.a) - volt(x_old, c.b);
            c.i_prev = geq * (v_new - v_old) - c.i_prev;
        }
        for l in &mut self.inductors {
            let geq = h / (2.0 * l.value);
            let v_new = volt(x_new, l.a) - volt(x_new, l.b);
            let v_old = volt(x_old, l.a) - volt(x_old, l.b);
            l.i_prev += geq * (v_new + v_old);
        }
    }
}

/// Cache of the factorization data for one timestep value.
#[derive(Debug)]
struct StepCache {
    h: f64,
    /// Assembled `A0` — kept only on the `dense_rebuild` path, which
    /// restamps devices into a copy every iteration. The factoring paths
    /// never materialize it (a dense mirror of a large sparse system
    /// would dominate memory).
    a0: Option<Matrix>,
    /// Factorization of `A0` (absent on the `dense_rebuild` path).
    solver: Option<AnySolver>,
    /// `A0⁻¹·U` for the Woodbury device update.
    a0inv_u: Matrix,
}

fn volt(x: &[f64], idx: Option<usize>) -> f64 {
    idx.map_or(0.0, |i| x[i])
}

/// Records a two-terminal conductance as stamp triplets, in the same
/// entry order the dense stamping historically used.
fn stamp_t(t: &mut Vec<(usize, usize, f64)>, i: Option<usize>, j: Option<usize>, g: f64) {
    if let Some(i) = i {
        t.push((i, i, g));
    }
    if let Some(j) = j {
        t.push((j, j, g));
    }
    if let (Some(i), Some(j)) = (i, j) {
        t.push((i, j, -g));
        t.push((j, i, -g));
    }
}

/// Stamps a MOSFET Newton linearization into a dense matrix (used by the
/// `dense_rebuild` cross-check path).
fn stamp_device(
    a: &mut Matrix,
    d: Option<usize>,
    g: Option<usize>,
    s: Option<usize>,
    gm: f64,
    gds: f64,
) {
    if let Some(d_) = d {
        if let Some(dd) = d {
            a[(d_, dd)] += gds;
        }
        if let Some(gg) = g {
            a[(d_, gg)] += gm;
        }
        if let Some(ss) = s {
            a[(d_, ss)] -= gm + gds;
        }
    }
    if let Some(s_) = s {
        if let Some(dd) = d {
            a[(s_, dd)] -= gds;
        }
        if let Some(gg) = g {
            a[(s_, gg)] -= gm;
        }
        if let Some(ss) = s {
            a[(s_, ss)] += gm + gds;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use linvar_circuit::MosType;
    use linvar_circuit::SourceWaveform;
    use linvar_devices::tech_018;

    fn rc_netlist() -> Netlist {
        let mut nl = Netlist::new();
        let inp = nl.node("in");
        let out = nl.node("out");
        nl.add_vsource(
            "V1",
            inp,
            Netlist::GROUND,
            SourceWaveform::Ramp {
                v0: 0.0,
                v1: 1.0,
                t0: 0.0,
                tr: 1e-12,
            },
        )
        .unwrap();
        nl.add_resistor("R1", inp, out, 1000.0).unwrap();
        nl.add_capacitor("C1", out, Netlist::GROUND, 1e-12).unwrap();
        nl
    }

    #[test]
    fn rc_step_response_matches_analytic() {
        let nl = rc_netlist();
        let mut opts = TransientOptions::new(5e-9, 5e-12);
        opts.probes.push("out".into());
        let res = Transient::new(&nl, &opts).unwrap().run().unwrap();
        let tau = 1e-9;
        let out = res.probe("out").unwrap();
        for (k, &t) in res.times.iter().enumerate() {
            let expect = 1.0 - (-t / tau).exp();
            assert!(
                (out[k] - expect).abs() < 5e-3,
                "t={t:.3e}: {} vs {expect}",
                out[k]
            );
        }
    }

    #[test]
    fn coupling_cap_conserves_charge() {
        // Two caps in series from a ramp source: voltage divider by C.
        let mut nl = Netlist::new();
        let inp = nl.node("in");
        let mid = nl.node("mid");
        nl.add_vsource(
            "V1",
            inp,
            Netlist::GROUND,
            SourceWaveform::Ramp {
                v0: 0.0,
                v1: 2.0,
                t0: 0.0,
                tr: 1e-9,
            },
        )
        .unwrap();
        nl.add_capacitor("C1", inp, mid, 1e-12).unwrap();
        nl.add_capacitor("C2", mid, Netlist::GROUND, 1e-12).unwrap();
        let mut opts = TransientOptions::new(2e-9, 2e-12);
        opts.probes.push("mid".into());
        // Without the gmin leak the mid node floats; with it the divider
        // holds at C1/(C1+C2)·Vin = 1 V during the fast ramp.
        let res = Transient::new(&nl, &opts).unwrap().run().unwrap();
        let mid_v = res.probe("mid").unwrap();
        let at_ramp_end = res
            .times
            .iter()
            .position(|&t| t >= 1e-9)
            .unwrap_or(mid_v.len() - 1);
        assert!(
            (mid_v[at_ramp_end] - 1.0).abs() < 0.05,
            "capacitive divider: {}",
            mid_v[at_ramp_end]
        );
    }

    #[test]
    fn inverter_switches() {
        let tech = tech_018();
        let mut nl = Netlist::new();
        let vdd = nl.node("vdd");
        let inp = nl.node("in");
        let out = nl.node("out");
        nl.add_vsource("Vdd", vdd, Netlist::GROUND, SourceWaveform::Dc(1.8))
            .unwrap();
        nl.add_vsource(
            "Vin",
            inp,
            Netlist::GROUND,
            SourceWaveform::Ramp {
                v0: 0.0,
                v1: 1.8,
                t0: 50e-12,
                tr: 50e-12,
            },
        )
        .unwrap();
        nl.add_mosfet(
            "MP",
            out,
            inp,
            vdd,
            vdd,
            MosType::Pmos,
            &tech.library.pmos_name(),
            tech.wp,
            tech.library.lmin,
        )
        .unwrap();
        nl.add_mosfet(
            "MN",
            out,
            inp,
            Netlist::GROUND,
            Netlist::GROUND,
            MosType::Nmos,
            &tech.library.nmos_name(),
            tech.wn,
            tech.library.lmin,
        )
        .unwrap();
        nl.add_capacitor("CL", out, Netlist::GROUND, 10e-15)
            .unwrap();
        let mut opts = TransientOptions::new(1e-9, 1e-12);
        opts.probes.push("out".into());
        let res = Transient::with_devices(&nl, &tech.library, DeviceVariation::nominal(), &opts)
            .unwrap()
            .run()
            .unwrap();
        let out_w = res.probe("out").unwrap();
        assert!(
            out_w[0] > 1.7,
            "output starts high (input low): {}",
            out_w[0]
        );
        let last = *out_w.last().unwrap();
        assert!(last < 0.1, "output ends low: {last}");
    }

    #[test]
    fn woodbury_matches_dense_rebuild() {
        let tech = tech_018();
        let mut nl = Netlist::new();
        let vdd = nl.node("vdd");
        let inp = nl.node("in");
        let out = nl.node("out");
        nl.add_vsource("Vdd", vdd, Netlist::GROUND, SourceWaveform::Dc(1.8))
            .unwrap();
        nl.add_vsource(
            "Vin",
            inp,
            Netlist::GROUND,
            SourceWaveform::Ramp {
                v0: 1.8,
                v1: 0.0,
                t0: 20e-12,
                tr: 80e-12,
            },
        )
        .unwrap();
        nl.add_mosfet(
            "MP",
            out,
            inp,
            vdd,
            vdd,
            MosType::Pmos,
            &tech.library.pmos_name(),
            tech.wp,
            tech.library.lmin,
        )
        .unwrap();
        nl.add_mosfet(
            "MN",
            out,
            inp,
            Netlist::GROUND,
            Netlist::GROUND,
            MosType::Nmos,
            &tech.library.nmos_name(),
            tech.wn,
            tech.library.lmin,
        )
        .unwrap();
        nl.add_resistor("Rload", out, Netlist::GROUND, 1e5).unwrap();
        nl.add_capacitor("CL", out, Netlist::GROUND, 5e-15).unwrap();
        let mut opts = TransientOptions::new(0.5e-9, 1e-12);
        opts.probes.push("out".into());
        let fast = Transient::with_devices(&nl, &tech.library, DeviceVariation::nominal(), &opts)
            .unwrap()
            .run()
            .unwrap();
        opts.dense_rebuild = true;
        let slow = Transient::with_devices(&nl, &tech.library, DeviceVariation::nominal(), &opts)
            .unwrap()
            .run()
            .unwrap();
        let f = fast.probe("out").unwrap();
        let s = slow.probe("out").unwrap();
        assert_eq!(f.len(), s.len());
        for (a, b) in f.iter().zip(s) {
            assert!((a - b).abs() < 1e-6, "woodbury {a} vs dense {b}");
        }
        // Woodbury must factor far fewer matrices.
        assert!(fast.stats.lu_factorizations < slow.stats.lu_factorizations / 2);
    }

    #[test]
    fn unknown_probe_rejected() {
        let nl = rc_netlist();
        let mut opts = TransientOptions::new(1e-9, 1e-12);
        opts.probes.push("nope".into());
        assert!(Transient::new(&nl, &opts).is_err());
    }

    #[test]
    fn mosfets_require_library() {
        let tech = tech_018();
        let mut nl = Netlist::new();
        let a = nl.node("a");
        nl.add_mosfet(
            "M1",
            a,
            a,
            Netlist::GROUND,
            Netlist::GROUND,
            MosType::Nmos,
            &tech.library.nmos_name(),
            1e-6,
            0.18e-6,
        )
        .unwrap();
        let opts = TransientOptions::new(1e-9, 1e-12);
        assert!(Transient::new(&nl, &opts).is_err());
    }

    #[test]
    fn stats_are_populated() {
        let nl = rc_netlist();
        let opts = TransientOptions::new(1e-9, 10e-12);
        let res = Transient::new(&nl, &opts).unwrap().run().unwrap();
        assert!(res.stats.steps > 50);
        assert!(res.stats.newton_iterations >= res.stats.steps);
        assert!(res.stats.lu_factorizations >= 1);
    }

    #[test]
    fn well_behaved_circuits_need_no_recovery() {
        // Linear RC network: rung 0 (direct Newton, zero extra gmin) must
        // serve the operating point, and the sweep never halves the step.
        let nl = rc_netlist();
        let opts = TransientOptions::new(1e-9, 10e-12);
        let res = Transient::new(&nl, &opts).unwrap().run().unwrap();
        assert_eq!(res.recovery.dc_strategy, DcStrategy::DirectNewton);
        assert_eq!(res.recovery.dc_gmin_steps, 0);
        assert_eq!(res.recovery.dc_source_steps, 0);
        assert_eq!(res.recovery.timestep_halvings, 0);
        assert!((res.recovery.min_timestep_used - 10e-12).abs() < 1e-15);
        assert!(res.recovery.was_clean());

        // Device circuit: the inverter's DC point also comes from rung 0.
        let tech = tech_018();
        let mut nl = Netlist::new();
        let vdd = nl.node("vdd");
        let inp = nl.node("in");
        let out = nl.node("out");
        nl.add_vsource("Vdd", vdd, Netlist::GROUND, SourceWaveform::Dc(1.8))
            .unwrap();
        nl.add_vsource("Vin", inp, Netlist::GROUND, SourceWaveform::Dc(0.0))
            .unwrap();
        nl.add_mosfet(
            "MP",
            out,
            inp,
            vdd,
            vdd,
            MosType::Pmos,
            &tech.library.pmos_name(),
            tech.wp,
            tech.library.lmin,
        )
        .unwrap();
        nl.add_mosfet(
            "MN",
            out,
            inp,
            Netlist::GROUND,
            Netlist::GROUND,
            MosType::Nmos,
            &tech.library.nmos_name(),
            tech.wn,
            tech.library.lmin,
        )
        .unwrap();
        nl.add_capacitor("CL", out, Netlist::GROUND, 10e-15)
            .unwrap();
        let opts = TransientOptions::new(50e-12, 1e-12);
        let res = Transient::with_devices(&nl, &tech.library, DeviceVariation::nominal(), &opts)
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(res.recovery.dc_strategy, DcStrategy::DirectNewton);
    }
}
