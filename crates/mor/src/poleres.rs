//! Pole/residue transformation of reduced-order models (paper eqs. 13–20).
//!
//! The port impedance matrix of a reduced model is
//! `Z(s) = Brᵀ (Gr + s·Cr)⁻¹ Br`. With `T = -Gr⁻¹Cr = S·D·S⁻¹`:
//!
//! ```text
//! Z(s) = Brᵀ S (I - s·D)⁻¹ S⁻¹ Gr⁻¹ Br
//! Z_ij(s) = Σ_k  µ_ik·ν_kj / (1 - s·d_k)
//! ```
//!
//! Rewriting each term over the pole `p_k = 1/d_k` gives the standard
//! `r_k / (s - p_k)` form stored here (modes with `d_k ≈ 0` contribute a
//! constant, resistive term). The eigendecomposition is performed **once**
//! and shared by all `Np²` entries — the efficiency note under eq. (20).

use crate::prima::ReducedModel;
use linvar_numeric::{
    eigen_decompose, CLuFactor, CMatrix, Complex, LuFactor, Matrix, NumericError,
};

/// A multiport impedance macromodel in pole/residue form:
/// `Z(s) = direct + Σ_k R_k / (s - p_k)`.
#[derive(Debug, Clone)]
pub struct PoleResidueModel {
    /// Poles `p_k` (rad/s). Conjugate pairs appear explicitly.
    pub poles: Vec<Complex>,
    /// Residue matrix per pole; `residues[k]` is `Np x Np`.
    pub residues: Vec<CMatrix>,
    /// Constant (resistive) term from zero-capacitance modes.
    pub direct: Matrix,
}

/// Relative threshold below which an eigenvalue of `T` counts as a
/// zero-capacitance (purely resistive) mode. Applied against the *median*
/// eigenvalue magnitude: a floating load's integrator mode produces one
/// astronomically large `|d|` that would otherwise swallow every real
/// time constant into the threshold.
const ZERO_MODE_REL_TOL: f64 = 1e-9;

impl PoleResidueModel {
    /// Number of ports.
    pub fn port_count(&self) -> usize {
        self.direct.rows()
    }

    /// Number of poles.
    pub fn pole_count(&self) -> usize {
        self.poles.len()
    }

    /// Largest pole magnitude (the frequency scale of the model).
    pub fn pole_scale(&self) -> f64 {
        self.poles.iter().fold(0.0_f64, |m, p| m.max(p.abs()))
    }

    /// Whether a given pole counts as unstable *relative to the model's
    /// frequency scale*. A real part within `1e-9` of the scale is
    /// numerical noise around an integrator mode (a floating RC load has a
    /// pole at the origin whose computed sign is arbitrary) and is treated
    /// as stable.
    pub fn pole_is_unstable(&self, p: Complex) -> bool {
        p.re > 1e-9 * self.pole_scale()
    }

    /// Poles with (significantly) positive real part — instability
    /// witnesses.
    pub fn unstable_poles(&self) -> Vec<Complex> {
        self.poles
            .iter()
            .copied()
            .filter(|&p| self.pole_is_unstable(p))
            .collect()
    }

    /// `true` if every pole lies in the (numerically) closed left half
    /// plane.
    pub fn is_stable(&self) -> bool {
        self.unstable_poles().is_empty()
    }

    /// Evaluates `Z(s)` at a complex frequency.
    pub fn eval(&self, s: Complex) -> CMatrix {
        let np = self.port_count();
        let mut z = CMatrix::from_real(&self.direct);
        for (p, r) in self.poles.iter().zip(&self.residues) {
            let denom = s - *p;
            for i in 0..np {
                for j in 0..np {
                    z[(i, j)] += r[(i, j)] / denom;
                }
            }
        }
        z
    }

    /// DC impedance `Z(0) = direct - Σ R_k / p_k`.
    pub fn dc(&self) -> Matrix {
        let np = self.port_count();
        let mut z = self.direct.clone();
        for (p, r) in self.poles.iter().zip(&self.residues) {
            for i in 0..np {
                for j in 0..np {
                    z[(i, j)] += (-(r[(i, j)] / *p)).re;
                }
            }
        }
        z
    }
}

/// Extracts the pole/residue macromodel of a reduced-order model.
///
/// # Errors
///
/// Returns [`NumericError::SingularMatrix`] if `Gr` is singular (a load
/// with no DC path — fold the driver conductances first) and propagates
/// eigensolver failures for defective `T` matrices.
pub fn extract_pole_residue(rom: &ReducedModel) -> Result<PoleResidueModel, NumericError> {
    let q = rom.order();
    let np = rom.port_count();
    let gr_lu = LuFactor::new(&rom.gr)?;
    // T = -Gr⁻¹ Cr.
    let mut t = gr_lu.solve_mat(&rom.cr)?;
    t.scale_mut(-1.0);
    let dec = eigen_decompose(&t)?;
    let s = &dec.vectors;
    let s_inv = CLuFactor::new(s)?.inverse()?;
    // µ = Brᵀ S  (Np x q), ν = S⁻¹ Gr⁻¹ Br (q x Np).
    let mu = {
        // Brᵀ S: (Np x q).
        let brt = CMatrix::from_real(&rom.br.transpose());
        brt.mul_mat(s)
    };
    let nu = s_inv.mul_mat(&CMatrix::from_real(&gr_lu.solve_mat(&rom.br)?));
    // Median |d| is robust against a floating-load integrator mode.
    let zero_threshold = {
        let mut mags: Vec<f64> = dec.values.iter().map(|v| v.abs()).collect();
        mags.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let median = mags.get(mags.len() / 2).copied().unwrap_or(0.0);
        ZERO_MODE_REL_TOL * median + f64::MIN_POSITIVE
    };
    let mut poles = Vec::new();
    let mut residues = Vec::new();
    let mut direct = Matrix::zeros(np, np);
    for k in 0..q {
        let d_k = dec.values[k];
        // Outer product µ[:,k] ⊗ ν[k,:].
        let mut outer = CMatrix::zeros(np, np);
        for i in 0..np {
            for j in 0..np {
                outer[(i, j)] = mu[(i, k)] * nu[(k, j)];
            }
        }
        if d_k.abs() < zero_threshold {
            // 1/(1 - s·0) = 1: constant resistive contribution.
            for i in 0..np {
                for j in 0..np {
                    direct[(i, j)] += outer[(i, j)].re;
                }
            }
        } else {
            // µν/(1 - s·d) = (-µν/d) / (s - 1/d).
            let p_k = d_k.recip();
            let mut r_k = CMatrix::zeros(np, np);
            for i in 0..np {
                for j in 0..np {
                    r_k[(i, j)] = -(outer[(i, j)] / d_k);
                }
            }
            poles.push(p_k);
            residues.push(r_k);
        }
    }
    Ok(PoleResidueModel {
        poles,
        residues,
        direct,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Single-pole RC: G = diag(g), C = diag(c), one port.
    fn one_pole(g: f64, c: f64) -> ReducedModel {
        ReducedModel {
            gr: Matrix::from_rows(&[&[g]]),
            cr: Matrix::from_rows(&[&[c]]),
            br: Matrix::from_rows(&[&[1.0]]),
        }
    }

    #[test]
    fn single_rc_pole_location_and_residue() {
        // Z(s) = 1/(g + s·c) = (1/c)/(s + g/c): pole at -g/c, residue 1/c.
        let (g, c) = (1e-3, 1e-12);
        let model = extract_pole_residue(&one_pole(g, c)).unwrap();
        assert_eq!(model.pole_count(), 1);
        let p = model.poles[0];
        assert!((p.re + g / c).abs() < 1e-3 * (g / c));
        assert!(p.im.abs() < 1e-6 * (g / c));
        let r = model.residues[0][(0, 0)];
        assert!((r.re - 1.0 / c).abs() < 1e-3 / c);
        // DC value: 1/g.
        assert!((model.dc()[(0, 0)] - 1.0 / g).abs() < 1e-6 / g);
    }

    #[test]
    fn frequency_response_matches_direct_solve() {
        // Two-state model with coupling.
        let rom = ReducedModel {
            gr: Matrix::from_rows(&[&[2e-3, -1e-3], &[-1e-3, 3e-3]]),
            cr: Matrix::from_rows(&[&[2e-12, 0.0], &[0.0, 1e-12]]),
            br: Matrix::from_rows(&[&[1.0], &[0.0]]),
        };
        let model = extract_pole_residue(&rom).unwrap();
        assert_eq!(model.pole_count(), 2);
        assert!(model.is_stable());
        // Compare Z(jω) against (Gr + jωCr)⁻¹ directly.
        for &omega in &[1e7, 1e9, 1e11] {
            let s = Complex::new(0.0, omega);
            let z_pr = model.eval(s)[(0, 0)];
            let mut a = CMatrix::from_real(&rom.gr);
            for i in 0..2 {
                for j in 0..2 {
                    a[(i, j)] += s * Complex::from_real(rom.cr[(i, j)]);
                }
            }
            let lu = CLuFactor::new(&a).unwrap();
            let x = lu.solve(&[Complex::ONE, Complex::ZERO]).unwrap();
            let z_direct = x[0];
            assert!(
                (z_pr - z_direct).abs() < 1e-6 * z_direct.abs(),
                "mismatch at ω={omega}: {z_pr} vs {z_direct}"
            );
        }
    }

    #[test]
    fn resistive_mode_goes_to_direct_term() {
        // One state with no capacitance: purely resistive.
        let rom = ReducedModel {
            gr: Matrix::from_rows(&[&[0.01, 0.0], &[0.0, 0.02]]),
            cr: Matrix::from_rows(&[&[1e-12, 0.0], &[0.0, 0.0]]),
            br: Matrix::from_rows(&[&[1.0], &[1.0]]),
        };
        let model = extract_pole_residue(&rom).unwrap();
        assert_eq!(model.pole_count(), 1, "only one dynamic mode");
        // The resistive mode contributes 1/0.02 = 50 Ω to the direct term.
        assert!((model.direct[(0, 0)] - 50.0).abs() < 1e-6);
    }

    #[test]
    fn dc_matches_rom_dc() {
        let rom = ReducedModel {
            gr: Matrix::from_rows(&[&[5e-3, -2e-3], &[-2e-3, 4e-3]]),
            cr: Matrix::from_rows(&[&[3e-12, -1e-12], &[-1e-12, 2e-12]]),
            br: Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]),
        };
        let model = extract_pole_residue(&rom).unwrap();
        let dc_pr = model.dc();
        let dc_rom = rom.dc_impedance().unwrap();
        assert!((&dc_pr - &dc_rom).max_abs() < 1e-6 * dc_rom.max_abs());
    }

    #[test]
    fn unstable_pole_detected() {
        // Negative conductance → right-half-plane pole.
        let model = extract_pole_residue(&one_pole(-1e-3, 1e-12)).unwrap();
        assert!(!model.is_stable());
        assert_eq!(model.unstable_poles().len(), 1);
        assert!(model.unstable_poles()[0].re > 0.0);
    }

    #[test]
    fn singular_gr_rejected() {
        let rom = ReducedModel {
            gr: Matrix::zeros(2, 2),
            cr: Matrix::identity(2),
            br: Matrix::from_rows(&[&[1.0], &[0.0]]),
        };
        assert!(extract_pole_residue(&rom).is_err());
    }
}
