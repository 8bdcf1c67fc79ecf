//! The successive-chords stage solver.
//!
//! Each time point solves the fixed point between the chord Norton sources
//! of the nonlinear drivers and the instantaneous impedance of the
//! (stabilized) pole/residue load:
//!
//! ```text
//! v⁽ᵐ⁾ = Z_inst · i_eq(v⁽ᵐ⁻¹⁾) + hist,
//! i_eq(v)_j = I_driver,j(v_in,j(t), v_j) + G_out,j · v_j
//! ```
//!
//! The chord conductances `G_out` were folded into the load *before*
//! reduction (paper eq. 12), so the macromodel already sees them; the
//! Norton source is the residual nonlinearity. Because the chord bounds
//! the device slope, the map is a contraction for reasonable timesteps.
//! No full-matrix factorization occurs anywhere in the time loop.

use crate::conv::RecursiveConvolution;
use crate::error::TetaError;
use crate::waveform::{compress_points, Waveform};
use linvar_devices::{DeviceVariation, MosParams};
use linvar_mor::PoleResidueModel;

/// One nonlinear driver bound to a load port: a CMOS equivalent inverter
/// (NMOS pull-down + PMOS pull-up) driven by a known input waveform.
#[derive(Debug, Clone)]
pub struct DriverSpec {
    /// Port index of the load the driver output connects to.
    pub port: usize,
    /// Gate input waveform.
    pub input: Waveform,
    /// NMOS model.
    pub nmos: MosParams,
    /// PMOS model.
    pub pmos: MosParams,
    /// NMOS width (m).
    pub wn: f64,
    /// PMOS width (m).
    pub wp: f64,
    /// Drawn channel length (m).
    pub length: f64,
    /// Chord output conductance folded into the load (S). Must equal the
    /// value used when the effective load was built.
    pub g_out: f64,
}

/// Options of the stage solver.
#[derive(Debug, Clone)]
pub struct StageSolverOptions {
    /// Timestep (s).
    pub h: f64,
    /// Stop time (s).
    pub t_end: f64,
    /// Supply voltage (V).
    pub vdd: f64,
    /// SC convergence tolerance on port voltages (V).
    pub vtol: f64,
    /// SC iteration limit per time point.
    pub max_iterations: usize,
    /// Device variation sample (ΔL, ΔV_T). The chords stay nominal.
    pub variation: DeviceVariation,
    /// Adaptive-breakpoint compression tolerance for the recorded
    /// waveforms (V); 0 disables compression.
    pub compress_tol: f64,
    /// SC under-relaxation factor in `(0, 1]`. `1.0` is the plain chord
    /// fixed point; smaller values damp the update
    /// `v ← v + λ·(v_new − v)`, trading iterations for contraction — the
    /// recovery ladder's "chord re-selection" analog when the plain
    /// iteration diverges.
    pub sc_damping: f64,
    /// Stops the time loop before `t_end` once the caller has all it reads
    /// of one port; `None` runs the full window.
    pub stop: Option<StopRule>,
}

impl StageSolverOptions {
    /// Reasonable defaults for the given supply and horizon.
    pub fn new(vdd: f64, t_end: f64, h: f64) -> Self {
        StageSolverOptions {
            h,
            t_end,
            vdd,
            vtol: 1e-6,
            max_iterations: 400,
            variation: DeviceVariation::nominal(),
            compress_tol: 0.0,
            sc_damping: 1.0,
            stop: None,
        }
    }
}

/// Largest number of time steps one stage run takes. The solver records
/// one sample per step and port, sized up front, so the cap bounds its
/// memory: 2²² steps are 4.2 µs at a 1 ps step and 64 MiB per port.
pub const MAX_STEPS: usize = 1 << 22;

/// What a caller reads of one output port: the first mid-rail crossing `m`
/// in the given direction, the saturated-ramp transition time `s`, and the
/// waveform up to the cut `m + tail·s`. With this rule in
/// [`StageSolverOptions::stop`], the time loop stops once a longer run
/// could not change any of that.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StopRule {
    /// Load port the caller reads.
    pub port: usize,
    /// Direction of the transition the caller expects at the port.
    pub rising: bool,
    /// Tail multiple `k` of the cut `m + k·s`.
    pub tail: f64,
}

/// The part of a port waveform a [`StopRule`] reader takes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reading {
    /// First crossing of `vdd/2` in the rule's direction (s).
    pub m: f64,
    /// Saturated-ramp transition time (s).
    pub s: f64,
    /// `m + tail·s`: the reader keeps the waveform up to here (s).
    pub cut: f64,
}

impl StopRule {
    /// `true` when `w` ends within 5 % of the rail the rule's transition
    /// heads for.
    pub fn settled(&self, w: &Waveform, vdd: f64) -> bool {
        (w.final_value() - if self.rising { vdd } else { 0.0 }).abs() < 0.05 * vdd
    }

    /// What the reader takes of `w`, or `None` when `w` never crosses
    /// `vdd/2` in the rule's direction. `s` is `fallback_s` when `w` lacks
    /// the 10 % or 90 % crossing.
    pub fn reading(&self, w: &Waveform, vdd: f64, fallback_s: f64) -> Option<Reading> {
        let m = w.crossing(vdd / 2.0, self.rising)?;
        let s = w.to_saturated_ramp(0.0, vdd).map_or(fallback_s, |sr| sr.s);
        Some(Reading {
            m,
            s,
            cut: m + self.tail * s,
        })
    }

    /// `true` when `w`, the compressed output of a run cut short at its
    /// last sample, already reads exactly as the longer run's would:
    ///
    /// * it ends settled in the rule's direction. A settled stage output
    ///   stays in its band, so the longer run ends settled too, with the
    ///   same direction (`is_rising`); `tests/stage_stop.rs` checks this
    ///   on every Table-4 stage;
    /// * its 10/50/90 % crossings lie in segments that end before its last
    ///   point;
    /// * the cut lies before its last point.
    ///
    /// Compression keeps or drops a sample reading at most one sample
    /// ahead, so every point of `w` but the last is a point of the longer
    /// run's output, and the longer run keeps no other point before it.
    /// Each crossing, the reading and the output truncated at the cut are
    /// therefore bit-identical to the longer run's.
    fn fixed_by(&self, w: &Waveform, vdd: f64) -> bool {
        let last = w.points().len().saturating_sub(1);
        let before_last = |f: f64| {
            w.crossing_segment(f * vdd, self.rising)
                .is_some_and(|(j, _)| j + 1 < last)
        };
        w.is_rising() == self.rising
            && self.settled(w, vdd)
            && [0.1, 0.5, 0.9].into_iter().all(before_last)
            && self
                .reading(w, vdd, f64::NAN)
                .is_some_and(|r| r.cut < w.end_time())
    }
}

/// Watches a [`StopRule`] over the raw samples of its port, and runs the
/// exact check on the compressed prefix once the raw samples say it may
/// pass.
struct StopWatch {
    rule: StopRule,
    /// 10/50/90 % of the swing, in the order the rule's transition meets
    /// them, and the time of the first raw sample at or past each.
    levels: [f64; 3],
    crossed: [Option<f64>; 3],
    /// How far past the raw estimate of the cut the exact check waits.
    /// The raw crossing times run late by less than one step, so the
    /// exact cut lies less than `1.25·tail` steps past the raw one; one
    /// more step covers compression.
    margin: f64,
    /// Sample count before which a failed exact check is not repeated.
    next_check: usize,
    /// Failed exact checks.
    resumes: usize,
}

impl StopWatch {
    fn new(rule: StopRule, vdd: f64, h: f64) -> Self {
        let [l10, l50, l90] = [0.1, 0.5, 0.9].map(|f| f * vdd);
        StopWatch {
            rule,
            levels: if rule.rising {
                [l10, l50, l90]
            } else {
                [l90, l50, l10]
            },
            crossed: [None; 3],
            margin: (1.0 + 1.25 * rule.tail) * h,
            next_check: 0,
            resumes: 0,
        }
    }

    /// Looks at the newest raw sample of the port and returns the
    /// compressed output when the run may stop there.
    fn check(&mut self, raw: &[(f64, f64)], vdd: f64, tol: f64) -> Option<Waveform> {
        let (t, v) = raw[raw.len() - 1];
        let v_prev = raw[raw.len() - 2].1;
        let rising = self.rule.rising;
        for (&level, crossed) in self.levels.iter().zip(&mut self.crossed) {
            let past = if rising {
                v_prev < level && v >= level
            } else {
                v_prev > level && v <= level
            };
            if crossed.is_none() && past {
                *crossed = Some(t);
            }
        }
        let [Some(t_first), Some(m), Some(t_second)] = self.crossed else {
            return None;
        };
        let rail = if rising { vdd } else { 0.0 };
        let cut = m + self.rule.tail * (t_second - t_first) / 0.8;
        if (v - rail).abs() >= 0.05 * vdd || t <= cut + self.margin || raw.len() < self.next_check {
            return None;
        }
        let out = Waveform::from_points(if tol > 0.0 {
            compress_points(raw, tol)
        } else {
            raw.to_vec()
        });
        if self.rule.fixed_by(&out, vdd) {
            return Some(out);
        }
        // Resume stepping; retry once the run is an eighth longer, so the
        // checks cost O(steps) in all.
        linvar_metrics::incr(linvar_metrics::Counter::ScStopResumes);
        self.resumes += 1;
        self.next_check = raw.len() + raw.len() / 8;
        None
    }
}

/// Performance counters of one stage evaluation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageStats {
    /// Accepted time points.
    pub steps: usize,
    /// Total SC iterations.
    pub sc_iterations: usize,
    /// Stop-rule checks that failed before the loop stopped or ran out.
    pub stop_resumes: usize,
}

/// The stage solver: load + drivers, ready to run.
#[derive(Debug)]
pub struct StageSolver {
    conv: RecursiveConvolution,
    drivers: Vec<DriverSpec>,
    opts: StageSolverOptions,
}

impl StageSolver {
    /// Creates a solver for the given stabilized load model and drivers.
    ///
    /// # Errors
    ///
    /// Returns [`TetaError::BadStage`] if a driver references a port out of
    /// range, two drivers share a port, or the model is unstable (run the
    /// stability filter first).
    pub fn new(
        load: &PoleResidueModel,
        drivers: Vec<DriverSpec>,
        opts: StageSolverOptions,
    ) -> Result<Self, TetaError> {
        let np = load.port_count();
        let mut seen = vec![false; np];
        for d in &drivers {
            if d.port >= np {
                return Err(TetaError::BadStage(format!(
                    "driver port {} out of range ({} ports)",
                    d.port, np
                )));
            }
            if seen[d.port] {
                return Err(TetaError::BadStage(format!(
                    "two drivers on port {}",
                    d.port
                )));
            }
            seen[d.port] = true;
        }
        if !load.is_stable() {
            return Err(TetaError::BadStage(
                "load model has unstable poles; apply the stability filter first".into(),
            ));
        }
        if !(opts.h > 0.0 && opts.t_end > opts.h && opts.h.is_finite() && opts.t_end.is_finite()) {
            return Err(TetaError::BadStage(format!(
                "bad time axis: h = {:e}, t_end = {:e}",
                opts.h, opts.t_end
            )));
        }
        if (opts.t_end / opts.h).ceil() > MAX_STEPS as f64 {
            return Err(TetaError::BadStage(format!(
                "t_end / h = {:e} time steps exceed the cap of {MAX_STEPS}",
                opts.t_end / opts.h
            )));
        }
        if let Some(rule) = &opts.stop {
            if rule.port >= np || !(rule.tail >= 0.0 && rule.tail.is_finite()) {
                return Err(TetaError::BadStage(format!("bad stop rule {rule:?}")));
            }
        }
        if !(opts.sc_damping > 0.0 && opts.sc_damping <= 1.0) {
            return Err(TetaError::BadStage(format!(
                "sc_damping must be in (0, 1], got {}",
                opts.sc_damping
            )));
        }
        Ok(StageSolver {
            conv: RecursiveConvolution::new(load, opts.h),
            drivers,
            opts,
        })
    }

    /// Driver Norton source current at a port: residual device current plus
    /// the chord make-up term.
    fn i_eq(&self, d: &DriverSpec, vin: f64, vout: f64) -> f64 {
        let dl = self.opts.variation.delta_l();
        let dvt = self.opts.variation.delta_vt();
        let vdd = self.opts.vdd;
        let n = d.nmos.eval(vin, vout, 0.0, d.wn, d.length, dl, dvt);
        let p = d
            .pmos
            .eval(vin - vdd, vout - vdd, 0.0, d.wp, d.length, dl, dvt);
        // Injection into the port: -ids_n - ids_p; add back the chord
        // conductance that lives inside the load.
        -(n.ids + p.ids) + d.g_out * vout
    }

    /// Applies SC under-relaxation `v_new ← v + λ·(v_new − v)` in place.
    ///
    /// At `λ = 1.0` this is a no-op branch (not an algebraic identity):
    /// the undamped path must remain bitwise identical to the legacy
    /// iteration so determinism guarantees carry over.
    fn damp(&self, v_new: &mut [f64], v: &[f64]) {
        let lambda = self.opts.sc_damping;
        if lambda < 1.0 {
            for (a, b) in v_new.iter_mut().zip(v) {
                *a = *b + lambda * (*a - *b);
            }
        }
    }

    /// Runs the stage up to `t_end`, or until the stop rule fires,
    /// returning one waveform per load port and the SC statistics.
    ///
    /// # Errors
    ///
    /// Returns [`TetaError::ScDivergence`] if the fixed point fails at any
    /// time point.
    pub fn run(mut self) -> Result<(Vec<Waveform>, StageStats), TetaError> {
        let loop_span = linvar_metrics::timer(linvar_metrics::Phase::ScLoop);
        let np = self.conv.port_count();
        let h = self.opts.h;
        let steps = (self.opts.t_end / h).ceil() as usize;
        let mut stats = StageStats::default();

        // ---- DC initialization: v = Z(0)·i_eq(v) fixed point -----------
        let zdc = self.conv.dc_impedance();
        let mut v = vec![0.0; np];
        // Start from the logical quiescent levels: output of an inverting
        // driver with a low input is VDD, with a high input 0.
        for d in &self.drivers {
            let vin0 = d.input.initial_value();
            v[d.port] = if vin0 < self.opts.vdd / 2.0 {
                self.opts.vdd
            } else {
                0.0
            };
        }
        // Gate input values are iteration-invariant at a fixed time, so
        // they are evaluated once per time point, not once per chord
        // iteration (same values, same results, far fewer waveform
        // interpolations — the inputs of late path stages carry hundreds
        // of breakpoints).
        let mut vin_at: Vec<f64> = self.drivers.iter().map(|d| d.input.eval(0.0)).collect();
        let mut i = vec![0.0; np];
        let mut v_new: Vec<f64> = Vec::with_capacity(np);
        for iter in 0..self.opts.max_iterations * 2 {
            for x in i.iter_mut() {
                *x = 0.0;
            }
            for (d, &vin) in self.drivers.iter().zip(&vin_at) {
                i[d.port] = self.i_eq(d, vin, v[d.port]);
            }
            zdc.mul_vec_into(&i, &mut v_new);
            self.damp(&mut v_new, &v);
            // NaN-aware convergence check: `f64::max` ignores NaN, so an
            // exploding fixed point could otherwise masquerade as
            // converged.
            let mut delta = 0.0_f64;
            let mut finite = true;
            for (a, b) in v_new.iter().zip(&v) {
                finite &= a.is_finite();
                delta = delta.max((a - b).abs());
            }
            // Buffer rotation instead of a move: `v` receives the new
            // iterate, the stale contents parked in `v_new` are fully
            // overwritten at the top of the next iteration.
            std::mem::swap(&mut v, &mut v_new);
            if !finite || v.iter().any(|x| x.abs() > 1e6) {
                return Err(TetaError::ScDivergence {
                    time: 0.0,
                    iterations: iter + 1,
                });
            }
            if delta < self.opts.vtol {
                break;
            }
            if iter == self.opts.max_iterations * 2 - 1 {
                return Err(TetaError::ScDivergence {
                    time: 0.0,
                    iterations: iter + 1,
                });
            }
        }
        self.conv.initialize_dc(&i);

        // ---- time loop ---------------------------------------------------
        // Every buffer of the SC fixed point lives outside the loop: the
        // steady state runs allocation-free (`hist`/`i_new`/`v_new` are
        // fully overwritten each step, `recorded` is sized up front), and
        // each rewrite below is bitwise identical to the allocating
        // original — same values, same operation order, only the
        // allocator traffic is gone.
        let mut recorded: Vec<Vec<(f64, f64)>> = (0..np)
            .map(|p| {
                let mut rec = Vec::with_capacity(steps + 1);
                rec.push((0.0, v[p]));
                rec
            })
            .collect();
        let mut hist: Vec<f64> = Vec::with_capacity(np);
        let mut i_new: Vec<f64> = Vec::with_capacity(np);
        let (vdd, tol) = (self.opts.vdd, self.opts.compress_tol);
        let mut watch = self.opts.stop.map(|rule| StopWatch::new(rule, vdd, h));
        // The stop rule's port, compressed, when the loop stopped early.
        let mut stopped: Option<(usize, Waveform)> = None;
        let mut t = 0.0;
        for _ in 0..steps {
            t += h;
            self.conv.history_into(&mut hist);
            // Gate inputs depend only on `t`: evaluate once per step.
            vin_at.clear();
            vin_at.extend(self.drivers.iter().map(|d| d.input.eval(t)));
            // SC fixed point, warm-started from the previous voltages.
            let mut converged = false;
            i_new.clear();
            i_new.extend_from_slice(&i);
            for iter in 0..self.opts.max_iterations {
                stats.sc_iterations += 1;
                linvar_metrics::incr(linvar_metrics::Counter::ScChordIterations);
                for x in i_new.iter_mut() {
                    *x = 0.0;
                }
                for (d, &vin) in self.drivers.iter().zip(&vin_at) {
                    i_new[d.port] = self.i_eq(d, vin, v[d.port]);
                }
                self.conv.voltages_into(&i_new, &hist, &mut v_new);
                self.damp(&mut v_new, &v);
                let mut delta = 0.0_f64;
                let mut finite = true;
                for (a, b) in v_new.iter().zip(&v) {
                    finite &= a.is_finite();
                    delta = delta.max((a - b).abs());
                }
                std::mem::swap(&mut v, &mut v_new);
                // Check for blow-up *before* declaring convergence:
                // `f64::max` ignores NaN, so an all-NaN iterate would
                // otherwise read as delta = 0.
                if !finite || v.iter().any(|x| x.abs() > 1e3) {
                    return Err(TetaError::ScDivergence {
                        time: t,
                        iterations: iter + 1,
                    });
                }
                if delta < self.opts.vtol {
                    converged = true;
                    break;
                }
            }
            if !converged {
                return Err(TetaError::ScDivergence {
                    time: t,
                    iterations: self.opts.max_iterations,
                });
            }
            self.conv.advance(&i_new);
            i.copy_from_slice(&i_new);
            stats.steps += 1;
            for (p, rec) in recorded.iter_mut().enumerate() {
                rec.push((t, v[p]));
            }
            if let Some(watch) = &mut watch {
                let port = watch.rule.port;
                if let Some(out) = watch.check(&recorded[port], vdd, tol) {
                    stopped = Some((port, out));
                    break;
                }
            }
        }
        drop(loop_span);
        stats.stop_resumes = watch.map_or(0, |w| w.resumes);
        let waveforms = recorded
            .into_iter()
            .enumerate()
            .map(|(p, pts)| match &mut stopped {
                Some((port, out)) if *port == p => std::mem::take(out),
                _ => {
                    let w = Waveform::from_points(pts);
                    if tol > 0.0 {
                        w.compress(tol)
                    } else {
                        w
                    }
                }
            })
            .collect();
        Ok((waveforms, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use linvar_devices::{chord_conductance, tech_018};
    use linvar_mor::PoleResidueModel;
    use linvar_numeric::{CMatrix, Complex, Matrix};

    /// One-port load: parallel combination of the chord conductance and a
    /// capacitor — Z(s) = (1/C)/(s + G/C).
    fn chord_rc_load(g: f64, c: f64) -> PoleResidueModel {
        let mut r = CMatrix::zeros(1, 1);
        r[(0, 0)] = Complex::from_real(1.0 / c);
        PoleResidueModel {
            poles: vec![Complex::from_real(-g / c)],
            residues: vec![r],
            direct: Matrix::zeros(1, 1),
        }
    }

    fn unit_driver(input: Waveform, g_out: f64) -> DriverSpec {
        let tech = tech_018();
        DriverSpec {
            port: 0,
            input,
            nmos: tech.library.get(&tech.library.nmos_name()).unwrap().clone(),
            pmos: tech.library.get(&tech.library.pmos_name()).unwrap().clone(),
            wn: tech.wn,
            wp: tech.wp,
            length: tech.library.lmin,
            g_out,
        }
    }

    fn unit_gout() -> f64 {
        let tech = tech_018();
        let n = tech.library.get(&tech.library.nmos_name()).unwrap();
        let p = tech.library.get(&tech.library.pmos_name()).unwrap();
        chord_conductance(n, tech.wn, tech.library.lmin, 1.8)
            + chord_conductance(p, tech.wp, tech.library.lmin, 1.8)
    }

    #[test]
    fn inverter_discharges_capacitive_load() {
        let g_out = unit_gout();
        let cl = 20e-15;
        let load = chord_rc_load(g_out, cl);
        let input = Waveform::ramp(0.0, 1.8, 20e-12, 50e-12);
        let driver = unit_driver(input, g_out);
        let opts = StageSolverOptions::new(1.8, 2e-9, 1e-12);
        let (waves, stats) = StageSolver::new(&load, vec![driver], opts)
            .unwrap()
            .run()
            .unwrap();
        let out = &waves[0];
        assert!(
            out.initial_value() > 1.7,
            "starts at VDD: {}",
            out.initial_value()
        );
        assert!(out.final_value() < 0.05, "ends at 0: {}", out.final_value());
        assert!(!out.is_rising());
        assert!(stats.steps > 100);
        // SC converges in a handful of iterations per point on average.
        let avg = stats.sc_iterations as f64 / stats.steps as f64;
        assert!(avg < 30.0, "avg SC iterations {avg}");
    }

    #[test]
    fn falling_input_produces_rising_output() {
        let g_out = unit_gout();
        let load = chord_rc_load(g_out, 10e-15);
        let input = Waveform::ramp(1.8, 0.0, 20e-12, 60e-12);
        let driver = unit_driver(input, g_out);
        let opts = StageSolverOptions::new(1.8, 2e-9, 1e-12);
        let (waves, _) = StageSolver::new(&load, vec![driver], opts)
            .unwrap()
            .run()
            .unwrap();
        assert!(waves[0].initial_value() < 0.05);
        assert!(waves[0].final_value() > 1.75);
    }

    #[test]
    fn delta_vt_slows_the_stage() {
        let g_out = unit_gout();
        let load = chord_rc_load(g_out, 30e-15);
        let input = Waveform::ramp(0.0, 1.8, 10e-12, 40e-12);
        let mut opts = StageSolverOptions::new(1.8, 3e-9, 1e-12);
        let delay_at = |opts: &StageSolverOptions| -> f64 {
            let (waves, _) =
                StageSolver::new(&load, vec![unit_driver(input.clone(), g_out)], opts.clone())
                    .unwrap()
                    .run()
                    .unwrap();
            waves[0].crossing(0.9, false).expect("output falls")
        };
        let nominal = delay_at(&opts);
        opts.variation = DeviceVariation::new(0.0, 2.0); // +60 mV threshold
        let slowed = delay_at(&opts);
        assert!(
            slowed > nominal,
            "higher VT must slow the stage: {slowed} vs {nominal}"
        );
    }

    #[test]
    fn chords_stay_nominal_under_variation() {
        // The load (with folded chords) is identical across variation
        // samples; only the Norton sources change. This is structural in
        // the API: the same `load` object is reused. Smoke-check it runs.
        let g_out = unit_gout();
        let load = chord_rc_load(g_out, 10e-15);
        for vt in [-1.0, 0.0, 1.0] {
            let mut opts = StageSolverOptions::new(1.8, 1e-9, 1e-12);
            opts.variation = DeviceVariation::new(0.0, vt);
            let input = Waveform::ramp(0.0, 1.8, 10e-12, 30e-12);
            let (waves, _) = StageSolver::new(&load, vec![unit_driver(input, g_out)], opts)
                .unwrap()
                .run()
                .unwrap();
            assert!(waves[0].final_value() < 0.1);
        }
    }

    #[test]
    fn bad_configurations_rejected() {
        let g_out = unit_gout();
        let load = chord_rc_load(g_out, 1e-15);
        let input = Waveform::ramp(0.0, 1.8, 0.0, 1e-11);
        let mut d = unit_driver(input.clone(), g_out);
        d.port = 5;
        let opts = StageSolverOptions::new(1.8, 1e-9, 1e-12);
        assert!(StageSolver::new(&load, vec![d], opts.clone()).is_err());

        // Duplicate port.
        let d1 = unit_driver(input.clone(), g_out);
        let d2 = unit_driver(input.clone(), g_out);
        assert!(StageSolver::new(&load, vec![d1, d2], opts.clone()).is_err());

        // Stop rule on a missing port, or with a negative tail.
        for (port, tail) in [(1, 4.0), (0, -1.0)] {
            let mut bad = opts.clone();
            bad.stop = Some(StopRule {
                port,
                rising: false,
                tail,
            });
            let d = unit_driver(input.clone(), g_out);
            assert!(StageSolver::new(&load, vec![d], bad).is_err());
        }

        // Unstable load.
        let mut unstable = chord_rc_load(g_out, 1e-15);
        unstable.poles[0] = Complex::from_real(1e12);
        assert!(StageSolver::new(&unstable, vec![unit_driver(input, g_out)], opts).is_err());
    }

    #[test]
    fn undriven_port_observes_coupling() {
        // Two-port load: driven port 0, observed port 1 coupled through
        // the residue matrix.
        let g_out = unit_gout();
        let c = 20e-15;
        let mut r = CMatrix::zeros(2, 2);
        r[(0, 0)] = Complex::from_real(1.0 / c);
        r[(1, 1)] = Complex::from_real(1.0 / c);
        r[(0, 1)] = Complex::from_real(0.8 / c);
        r[(1, 0)] = Complex::from_real(0.8 / c);
        let load = PoleResidueModel {
            poles: vec![Complex::from_real(-g_out / c)],
            residues: vec![r],
            direct: Matrix::zeros(2, 2),
        };
        let input = Waveform::ramp(0.0, 1.8, 20e-12, 50e-12);
        let driver = unit_driver(input, g_out);
        let opts = StageSolverOptions::new(1.8, 2e-9, 1e-12);
        let (waves, _) = StageSolver::new(&load, vec![driver], opts)
            .unwrap()
            .run()
            .unwrap();
        // The observed port must move with the driven one (transfer 0.8).
        let v0 = waves[0].final_value();
        let v1 = waves[1].final_value();
        assert!(
            (v1 - 0.8 * v0).abs() < 0.15 + 0.1 * v0.abs(),
            "v0={v0} v1={v1}"
        );
    }

    #[test]
    fn damped_iteration_still_converges() {
        let g_out = unit_gout();
        let load = chord_rc_load(g_out, 20e-15);
        let input = Waveform::ramp(0.0, 1.8, 20e-12, 50e-12);
        let mut opts = StageSolverOptions::new(1.8, 1e-9, 1e-12);
        opts.sc_damping = 0.6;
        let (waves, stats) = StageSolver::new(&load, vec![unit_driver(input.clone(), g_out)], opts)
            .unwrap()
            .run()
            .unwrap();
        assert!(waves[0].final_value() < 0.05);
        assert!(stats.steps > 0);
        // Out-of-range damping is a configuration error, not a panic.
        let mut bad = StageSolverOptions::new(1.8, 1e-9, 1e-12);
        bad.sc_damping = 0.0;
        assert!(StageSolver::new(&load, vec![unit_driver(input, g_out)], bad).is_err());
    }

    #[test]
    fn compression_reduces_points() {
        let g_out = unit_gout();
        let load = chord_rc_load(g_out, 10e-15);
        let input = Waveform::ramp(0.0, 1.8, 10e-12, 30e-12);
        let mut opts = StageSolverOptions::new(1.8, 2e-9, 1e-12);
        opts.compress_tol = 1e-3;
        let (waves, stats) = StageSolver::new(&load, vec![unit_driver(input, g_out)], opts)
            .unwrap()
            .run()
            .unwrap();
        assert!(
            waves[0].points().len() < stats.steps / 2,
            "compressed {} of {}",
            waves[0].points().len(),
            stats.steps
        );
    }
}
