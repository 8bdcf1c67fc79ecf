//! Recursive convolution of a pole/residue multiport impedance.
//!
//! For each pole `p_k` with residue matrix `R_k`, the convolution state
//! advances exactly under piecewise-linear port currents:
//!
//! ```text
//! x_k(t+h) = e^{p_k h}·x_k(t) + c0(p_k, h)·i(t) + c1(p_k, h)·i(t+h)
//! v(t+h)   = direct·i(t+h) + Σ_k Re{ R_k x_k(t+h) }
//! ```
//!
//! which splits into a constant *instantaneous impedance*
//! `Z_inst = direct + Σ Re{c1·R_k}` acting on the new current and a
//! *history* term known before the new current is — the structure the
//! successive-chords fixed point exploits.

use linvar_mor::PoleResidueModel;
use linvar_numeric::{Complex, Matrix};

/// Exact PWL convolution coefficients for pole `p` and step `h`:
/// `(E, c0, c1)` with `E = e^{p·h}`.
fn coefficients(p: Complex, h: f64) -> (Complex, Complex, Complex) {
    let a = p;
    let ah = a.scale(h);
    let e = ah.exp();
    // For |a·h| very small, use series expansions to avoid cancellation.
    if ah.abs() < 1e-6 {
        // E ≈ 1 + ah + (ah)²/2
        // ∫₀ʰ e^{a(h-u)} du            = h(1 + ah/2 + (ah)²/6)
        // ∫₀ʰ e^{a(h-u)}(u/h) du       = h(1/2 + ah/6 + (ah)²/24)
        let c_total = (Complex::ONE + ah.scale(0.5) + (ah * ah).scale(1.0 / 6.0)).scale(h);
        let c1 =
            (Complex::from_real(0.5) + ah.scale(1.0 / 6.0) + (ah * ah).scale(1.0 / 24.0)).scale(h);
        return (e, c_total - c1, c1);
    }
    // c1 = (E - 1 - a·h)/(a²·h); c0 = (E - 1)/a - c1.
    let em1 = e - Complex::ONE;
    let c1 = (em1 - ah) / (a * a).scale(h);
    let c0 = em1 / a - c1;
    (e, c0, c1)
}

/// Streaming recursive-convolution evaluator for one pole/residue model at
/// a fixed timestep.
#[derive(Debug, Clone)]
pub struct RecursiveConvolution {
    np: usize,
    h: f64,
    direct: Matrix,
    /// Per pole: `(E, c0, c1, R_k)`.
    poles: Vec<(Complex, Complex, Complex, Vec<Complex>)>,
    /// Convolution state per pole, one complex entry per port.
    states: Vec<Vec<Complex>>,
    /// Port currents at the last accepted point.
    i_prev: Vec<f64>,
    /// Instantaneous impedance matrix (acts on the newest current sample).
    z_inst: Matrix,
}

impl RecursiveConvolution {
    /// Prepares the evaluator for timestep `h`.
    ///
    /// # Panics
    ///
    /// Panics if `h` is not positive (debug assertion).
    pub fn new(model: &PoleResidueModel, h: f64) -> Self {
        debug_assert!(h > 0.0, "timestep must be positive");
        let np = model.port_count();
        let mut poles = Vec::with_capacity(model.pole_count());
        let mut z_inst = model.direct.clone();
        for (p, r) in model.poles.iter().zip(&model.residues) {
            let (e, c0, c1) = coefficients(*p, h);
            // Flatten the residue matrix row-major for cache-friendly use.
            let mut rf = Vec::with_capacity(np * np);
            for i in 0..np {
                for j in 0..np {
                    rf.push(r[(i, j)]);
                }
            }
            for i in 0..np {
                for j in 0..np {
                    z_inst[(i, j)] += (rf[i * np + j] * c1).re;
                }
            }
            poles.push((e, c0, c1, rf));
        }
        RecursiveConvolution {
            np,
            h,
            direct: model.direct.clone(),
            poles,
            states: vec![vec![Complex::ZERO; np]; model.pole_count()],
            i_prev: vec![0.0; np],
            z_inst,
        }
    }

    /// Number of ports.
    pub fn port_count(&self) -> usize {
        self.np
    }

    /// Timestep the evaluator was built for.
    pub fn timestep(&self) -> f64 {
        self.h
    }

    /// DC impedance of the underlying model (for initialization).
    pub fn dc_impedance(&self) -> Matrix {
        let mut z = self.direct.clone();
        for (e, _c0, _c1, rf) in &self.poles {
            // Recover p from E = e^{p h}: cheaper to store? Recompute from
            // state advance at steady state: at DC, x = -i/p, contribution
            // Re(R x). We kept only E; p = ln(E)/h.
            let p = Complex::new(e.abs().ln() / self.h, e.arg() / self.h);
            for i in 0..self.np {
                for j in 0..self.np {
                    z[(i, j)] += (-(rf[i * self.np + j] / p)).re;
                }
            }
        }
        z
    }

    /// Initializes the convolution states to the steady state consistent
    /// with constant port currents `i0` flowing since `t = -∞`.
    pub fn initialize_dc(&mut self, i0: &[f64]) {
        assert_eq!(i0.len(), self.np, "port-count mismatch");
        for (k, (e, _c0, _c1, _rf)) in self.poles.iter().enumerate() {
            let p = Complex::new(e.abs().ln() / self.h, e.arg() / self.h);
            for j in 0..self.np {
                self.states[k][j] = -(Complex::from_real(i0[j]) / p);
            }
        }
        self.i_prev.copy_from_slice(i0);
    }

    /// History contribution to the port voltages at the *next* time point,
    /// excluding the new current's instantaneous term:
    /// `hist = Σ_k Re{ R_k (E·x_k + c0·i_prev) }`.
    pub fn history(&self) -> Vec<f64> {
        let mut hist = Vec::new();
        self.history_into(&mut hist);
        hist
    }

    /// [`RecursiveConvolution::history`] into a reusable buffer (fully
    /// overwritten; resized if needed). The accumulation starts from a
    /// zeroed buffer and runs in the same pole/port order as the
    /// allocating form, so results are bitwise identical — this is the
    /// per-timestep call of the SC inner loop, where a fresh `Vec`
    /// per step was pure allocator traffic.
    pub fn history_into(&self, hist: &mut Vec<f64>) {
        hist.clear();
        hist.resize(self.np, 0.0);
        for (k, (e, c0, _c1, rf)) in self.poles.iter().enumerate() {
            for j in 0..self.np {
                let xe = *e * self.states[k][j] + *c0 * Complex::from_real(self.i_prev[j]);
                for i in 0..self.np {
                    hist[i] += (rf[i * self.np + j] * xe).re;
                }
            }
        }
    }

    /// Port voltages for a candidate new current vector, given the
    /// precomputed history: `v = Z_inst·i_new + hist`.
    pub fn voltages(&self, i_new: &[f64], hist: &[f64]) -> Vec<f64> {
        let mut v = Vec::new();
        self.voltages_into(i_new, hist, &mut v);
        v
    }

    /// [`RecursiveConvolution::voltages`] into a reusable buffer (fully
    /// overwritten). Each entry is the same row accumulation the
    /// allocating path's `mul_vec` produces, plus `hist[i]` as the
    /// final addend — exactly the `+=` the allocating path applied —
    /// so results are bitwise identical. This runs once per SC chord
    /// iteration: the hottest call in the framework.
    pub fn voltages_into(&self, i_new: &[f64], hist: &[f64], v: &mut Vec<f64>) {
        assert_eq!(i_new.len(), self.np, "port-count mismatch");
        assert_eq!(hist.len(), self.np, "history length mismatch");
        v.clear();
        v.extend((0..self.np).map(|i| {
            let mut acc = 0.0;
            for (a, b) in self.z_inst.row(i).iter().zip(i_new.iter()) {
                acc += a * b;
            }
            acc + hist[i]
        }));
    }

    /// Commits the step with the converged new currents, advancing all
    /// convolution states.
    pub fn advance(&mut self, i_new: &[f64]) {
        assert_eq!(i_new.len(), self.np, "port-count mismatch");
        for (k, (e, c0, c1, _rf)) in self.poles.iter().enumerate() {
            for j in 0..self.np {
                let x = self.states[k][j];
                self.states[k][j] = *e * x
                    + *c0 * Complex::from_real(self.i_prev[j])
                    + *c1 * Complex::from_real(i_new[j]);
            }
        }
        self.i_prev.copy_from_slice(i_new);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use linvar_numeric::CMatrix;

    fn one_pole_model(p: f64, r: f64) -> PoleResidueModel {
        let mut rm = CMatrix::zeros(1, 1);
        rm[(0, 0)] = Complex::from_real(r);
        PoleResidueModel {
            poles: vec![Complex::from_real(p)],
            residues: vec![rm],
            direct: Matrix::zeros(1, 1),
        }
    }

    /// Z(s) = (1/C)/(s + 1/RC): parallel RC driven by a current step must
    /// produce v(t) = R·I·(1 - e^{-t/RC}).
    #[test]
    fn current_step_into_parallel_rc() {
        let (r, c) = (1000.0, 1e-12);
        let model = one_pole_model(-1.0 / (r * c), 1.0 / c);
        let h = 5e-12;
        let mut conv = RecursiveConvolution::new(&model, h);
        let i = 1e-3;
        let mut t = 0.0;
        for step in 0..1000 {
            let hist = conv.history();
            let v = conv.voltages(&[i], &hist)[0];
            t += h;
            conv.advance(&[i]);
            if step < 3 {
                continue; // within the PWL turn-on ramp of the current
            }
            // The convolution sees the current rise linearly over the
            // first interval — equivalent to an ideal step delayed h/2.
            let expect = r * i * (1.0 - (-(t - h / 2.0) / (r * c)).exp());
            assert!(
                (v - expect).abs() < 2e-3 * (r * i),
                "t={t:.2e}: v={v} expect={expect}"
            );
        }
    }

    #[test]
    fn dc_initialization_gives_steady_state() {
        let (r, c) = (500.0, 2e-12);
        let model = one_pole_model(-1.0 / (r * c), 1.0 / c);
        let mut conv = RecursiveConvolution::new(&model, 1e-12);
        let i = 2e-3;
        conv.initialize_dc(&[i]);
        // With constant current, the voltage must stay at R·I.
        for _ in 0..100 {
            let hist = conv.history();
            let v = conv.voltages(&[i], &hist)[0];
            assert!(
                (v - r * i).abs() < 1e-6 * (r * i),
                "steady state drift: {v}"
            );
            conv.advance(&[i]);
        }
    }

    #[test]
    fn dc_impedance_matches_model() {
        let model = one_pole_model(-2e9, 3e12);
        let conv = RecursiveConvolution::new(&model, 1e-12);
        let z = conv.dc_impedance()[(0, 0)];
        assert!((z - 3e12 / 2e9).abs() < 1e-6 * (3e12 / 2e9));
    }

    #[test]
    fn complex_pair_is_real_response() {
        // Underdamped pair: response must be real and settle to Z(0)·i.
        let p = Complex::new(-5e8, 3e9);
        let r = Complex::new(1e12, 2e11);
        let mut r1 = CMatrix::zeros(1, 1);
        r1[(0, 0)] = r;
        let mut r2 = CMatrix::zeros(1, 1);
        r2[(0, 0)] = r.conj();
        let model = PoleResidueModel {
            poles: vec![p, p.conj()],
            residues: vec![r1, r2],
            direct: Matrix::zeros(1, 1),
        };
        let z0 = model.dc()[(0, 0)];
        let h = 10e-12;
        let mut conv = RecursiveConvolution::new(&model, h);
        let i = 1e-3;
        let mut last = 0.0;
        for _ in 0..3000 {
            let hist = conv.history();
            last = conv.voltages(&[i], &hist)[0];
            conv.advance(&[i]);
        }
        assert!(
            (last - z0 * i).abs() < 1e-3 * (z0 * i).abs(),
            "settled {last} vs {}",
            z0 * i
        );
    }

    #[test]
    fn small_ah_series_branch_is_accurate() {
        // Pole slow enough that |p·h| < 1e-6 exercises the series branch.
        let model = one_pole_model(-1e3, 1e6);
        let h = 1e-12;
        let mut conv = RecursiveConvolution::new(&model, h);
        conv.initialize_dc(&[1e-3]);
        let hist = conv.history();
        let v = conv.voltages(&[1e-3], &hist)[0];
        let z0 = 1e6 / 1e3;
        assert!((v - z0 * 1e-3).abs() < 1e-6 * z0 * 1e-3);
    }

    #[test]
    fn into_forms_match_allocating_forms_bitwise() {
        let p = Complex::new(-5e8, 3e9);
        let r = Complex::new(1e12, 2e11);
        let mut r1 = CMatrix::zeros(1, 1);
        r1[(0, 0)] = r;
        let mut r2 = CMatrix::zeros(1, 1);
        r2[(0, 0)] = r.conj();
        let model = PoleResidueModel {
            poles: vec![p, p.conj()],
            residues: vec![r1, r2],
            direct: Matrix::from_rows(&[&[7.5]]),
        };
        let mut conv = RecursiveConvolution::new(&model, 2e-12);
        let mut hist_buf = vec![99.0; 3]; // stale + wrong length
        let mut v_buf = Vec::new();
        for step in 0..50 {
            let i = [1e-3 * (step as f64 * 0.1).sin()];
            let hist = conv.history();
            conv.history_into(&mut hist_buf);
            assert_eq!(hist.len(), hist_buf.len());
            for (a, b) in hist.iter().zip(&hist_buf) {
                assert_eq!(a.to_bits(), b.to_bits(), "history step {step}");
            }
            let v = conv.voltages(&i, &hist);
            conv.voltages_into(&i, &hist_buf, &mut v_buf);
            for (a, b) in v.iter().zip(&v_buf) {
                assert_eq!(a.to_bits(), b.to_bits(), "voltages step {step}");
            }
            conv.advance(&i);
        }
    }

    #[test]
    fn two_port_coupling() {
        // Symmetric 2-port with an off-diagonal residue: current in port 0
        // must raise the port-1 voltage.
        let mut r = CMatrix::zeros(2, 2);
        r[(0, 0)] = Complex::from_real(1e12);
        r[(1, 1)] = Complex::from_real(1e12);
        r[(0, 1)] = Complex::from_real(4e11);
        r[(1, 0)] = Complex::from_real(4e11);
        let model = PoleResidueModel {
            poles: vec![Complex::from_real(-1e9)],
            residues: vec![r],
            direct: Matrix::zeros(2, 2),
        };
        let mut conv = RecursiveConvolution::new(&model, 1e-11);
        let i = [1e-3, 0.0];
        let mut v1_last = 0.0;
        for _ in 0..2000 {
            let hist = conv.history();
            let v = conv.voltages(&i, &hist);
            v1_last = v[1];
            conv.advance(&i);
        }
        // Settled coupling: Z(0)[1,0]·i0 = (4e11/1e9)·1e-3 = 0.4.
        assert!((v1_last - 0.4).abs() < 1e-3, "coupled voltage {v1_last}");
    }
}
