//! Variational reduced-order models (paper §2, eqs. 8–11).
//!
//! The library precharacterization computes the nominal projection basis
//! `X0` and per-parameter basis sensitivities `dXi` by central finite
//! differences over a design of experiments (one ±δ pair per parameter).
//! The evaluated reduced matrices keep only the 0th- and 1st-order terms:
//!
//! ```text
//! Gr(w) ≈ X0ᵀG0X0 + Σ wi·(dXiᵀG0X0 + X0ᵀdGiX0 + X0ᵀG0dXi)
//! ```
//!
//! which is *not* a congruence transformation — exactly the property the
//! paper identifies as the reason variational macromodels lose passivity
//! (and possibly stability), motivating the pole/residue stabilization and
//! the chord-based simulation flow.

use crate::pact::pact_reduce;
use crate::prima::{prima_basis, prima_project, ReducedModel};
use linvar_circuit::{port_incidence, SparseVariationalMna};
use linvar_numeric::{CMatrix, Complex, Matrix, NumericError, SparseMatrix};

/// Projection algorithm used for the reduction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReductionMethod {
    /// Block-Arnoldi PRIMA with the given total reduced order.
    Prima {
        /// Number of Krylov basis vectors (reduced order).
        order: usize,
    },
    /// PACT keeping the given number of internal modes
    /// (reduced order = ports + modes).
    Pact {
        /// Number of retained internal modes.
        internal_modes: usize,
    },
}

/// A precharacterized variational reduced-order model library entry.
///
/// Built once per interconnect structure; evaluated cheaply for every
/// parameter sample of a statistical analysis.
#[derive(Debug, Clone)]
pub struct VariationalRom {
    method: ReductionMethod,
    /// Nominal basis (original order × reduced order).
    x0: Matrix,
    /// Basis sensitivities per parameter.
    dx: Vec<Matrix>,
    gr0: Matrix,
    cr0: Matrix,
    br0: Matrix,
    dgr: Vec<Matrix>,
    dcr: Vec<Matrix>,
    dbr: Vec<Matrix>,
}

/// Computes the projection basis for `(G, C)` with the given method. PACT's
/// eigen-partition needs the dense pencil, so it densifies `C`.
fn basis_at(
    g: &Matrix,
    c: &SparseMatrix,
    b: &Matrix,
    port_indices: &[usize],
    method: ReductionMethod,
) -> Result<Matrix, NumericError> {
    match method {
        ReductionMethod::Prima { order } => prima_basis(g, c, b, order),
        ReductionMethod::Pact { internal_modes } => {
            let (_, x) = pact_reduce(g, &c.to_dense(), port_indices, internal_modes)?;
            Ok(x)
        }
    }
}

/// Aligns `x` to `x0` column by column: greedy max-|inner-product| matching
/// followed by a sign fix, so finite differences of bases are meaningful
/// despite eigenvector/Krylov-vector ordering and sign ambiguity.
fn align_basis(x0: &Matrix, x: &Matrix) -> Matrix {
    let q = x0.cols();
    let mut aligned = Matrix::zeros(x0.rows(), q);
    let mut used = vec![false; x.cols()];
    for j in 0..q {
        let target = x0.col(j);
        let mut best = None;
        let mut best_dot = 0.0_f64;
        for k in 0..x.cols() {
            if used[k] {
                continue;
            }
            let cand = x.col(k);
            let dot: f64 = target.iter().zip(&cand).map(|(a, b)| a * b).sum();
            if dot.abs() > best_dot.abs() || best.is_none() {
                best_dot = dot;
                best = Some(k);
            }
        }
        if let Some(k) = best {
            used[k] = true;
            let col = x.col(k);
            let sign = if best_dot < 0.0 { -1.0 } else { 1.0 };
            let col: Vec<f64> = col.iter().map(|v| v * sign).collect();
            aligned.set_col(j, &col);
        }
    }
    aligned
}

impl VariationalRom {
    /// Precharacterizes the variational ROM library for the given linear
    /// load and method. `delta` is the finite-difference step on the
    /// normalized parameters (0.01–0.1 is appropriate for parameters whose
    /// working range is about ±1).
    ///
    /// The load stays sparse: only `G(±δ)` is densified, for the basis's
    /// dense LU, and every product with a load matrix is a CSC × dense
    /// product summed in [`Matrix::mul_mat`]'s order, so the model is
    /// bit-identical to one characterized from the dense matrices.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::InvalidInput`] for a non-positive `delta` or
    /// when a perturbed basis loses rank, plus any factorization error from
    /// the underlying reduction.
    pub fn characterize(
        var: &SparseVariationalMna,
        method: ReductionMethod,
        delta: f64,
    ) -> Result<Self, NumericError> {
        if !(delta > 0.0 && delta.is_finite()) {
            return Err(NumericError::InvalidInput(
                "finite-difference step must be positive".into(),
            ));
        }
        let b = var.port_incidence();
        let ports = var.port_indices();
        let x0 = basis_at(&var.g_at(&[]), var.c0(), &b, ports, method)?;
        let q = x0.cols();
        let np = var.param_count();
        let mut dx = Vec::with_capacity(np);
        for i in 0..np {
            let mut w = vec![0.0; np];
            w[i] = delta;
            let x_hi = basis_at(&var.g_at(&w), &var.c_at(&w)?, &b, ports, method)?;
            w[i] = -delta;
            let x_lo = basis_at(&var.g_at(&w), &var.c_at(&w)?, &b, ports, method)?;
            if x_hi.cols() != q || x_lo.cols() != q {
                return Err(NumericError::InvalidInput(format!(
                    "perturbed basis rank changed for parameter {i} \
                     ({} / {} vs {q} columns)",
                    x_hi.cols(),
                    x_lo.cols()
                )));
            }
            let x_hi = align_basis(&x0, &x_hi);
            let x_lo = align_basis(&x0, &x_lo);
            let mut d = &x_hi - &x_lo;
            d.scale_mut(1.0 / (2.0 * delta));
            dx.push(d);
        }
        // Nominal reduced matrices, the congruence over X0.
        let x0t = x0.transpose();
        let g0x0 = var.g0().mul_mat(&x0);
        let c0x0 = var.c0().mul_mat(&x0);
        // First-order reduced-matrix sensitivities, eq. (11):
        // dMr_i = dXiᵀ M0 X0 + X0ᵀ dMi X0 + X0ᵀ M0 dXi.
        let sensitivity =
            |dxit: &Matrix, dxi: &Matrix, m0: &SparseMatrix, m0x0: &Matrix, dmi: &SparseMatrix| {
                let t1 = dxit.mul_mat(m0x0);
                let t2 = x0t.mul_mat(&dmi.mul_mat(&x0));
                let t3 = x0t.mul_mat(&m0.mul_mat(dxi));
                &(&t1 + &t2) + &t3
            };
        let mut dgr = Vec::with_capacity(np);
        let mut dcr = Vec::with_capacity(np);
        let mut dbr = Vec::with_capacity(np);
        for (i, dxi) in dx.iter().enumerate() {
            let dxit = dxi.transpose();
            dgr.push(sensitivity(&dxit, dxi, var.g0(), &g0x0, &var.dg()[i]));
            dcr.push(sensitivity(&dxit, dxi, var.c0(), &c0x0, &var.dc()[i]));
            dbr.push(dxit.mul_mat(&b));
        }
        Ok(VariationalRom {
            method,
            gr0: x0t.mul_mat(&g0x0),
            cr0: x0t.mul_mat(&c0x0),
            br0: x0t.mul_mat(&b),
            x0,
            dx,
            dgr,
            dcr,
            dbr,
        })
    }

    /// Evaluates the first-order variational reduced model at sample `w`
    /// (paper eq. 11 — higher-order terms dropped, congruence broken).
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::DimensionMismatch`] if a sensitivity matrix
    /// disagrees in shape with the nominal reduced matrices (possible only
    /// through inconsistent mutation after characterization).
    pub fn evaluate(&self, w: &[f64]) -> Result<ReducedModel, NumericError> {
        let mut out = ReducedModel {
            gr: self.gr0.clone(),
            cr: self.cr0.clone(),
            br: self.br0.clone(),
        };
        self.accumulate_sensitivities(w, &mut out)?;
        Ok(out)
    }

    /// Evaluates the first-order model at `w` *into* an existing
    /// [`ReducedModel`] of matching shape, reusing its `Gr/Cr/Br`
    /// storage — the per-sample hot-path form of
    /// [`VariationalRom::evaluate`]. The output matrices are fully
    /// overwritten with the nominal matrices and then receive the same
    /// AXPY updates in the same order, so the result is bitwise
    /// identical to the allocating path.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::DimensionMismatch`] if a sensitivity matrix
    /// disagrees in shape with the nominal reduced matrices.
    ///
    /// # Panics
    ///
    /// Panics if `out`'s matrices do not match the ROM's shapes (take
    /// them from a workspace arena sized by [`VariationalRom::order`] /
    /// [`VariationalRom::port_count`]).
    pub fn evaluate_into(&self, w: &[f64], out: &mut ReducedModel) -> Result<(), NumericError> {
        out.gr.copy_from(&self.gr0);
        out.cr.copy_from(&self.cr0);
        out.br.copy_from(&self.br0);
        self.accumulate_sensitivities(w, out)
    }

    /// Shared AXPY accumulation of eq. (11)'s first-order terms.
    fn accumulate_sensitivities(
        &self,
        w: &[f64],
        out: &mut ReducedModel,
    ) -> Result<(), NumericError> {
        for (i, ((dg, dc), db)) in self.dgr.iter().zip(&self.dcr).zip(&self.dbr).enumerate() {
            if let Some(&wi) = w.get(i) {
                if wi != 0.0 {
                    out.gr.axpy(wi, dg)?;
                    out.cr.axpy(wi, dc)?;
                    out.br.axpy(wi, db)?;
                }
            }
        }
        Ok(())
    }

    /// Port transfer matrix `H(w, s) = Br(w)ᵀ (Gr(w) + s·Cr(w))⁻¹ Br(w)`
    /// of the first-order variational model at sample `w` and complex
    /// frequency `s` (use `s = jω` for the AC response).
    ///
    /// This is the vROM's answer to the question the full-order AC sweep
    /// answers exactly — evaluating it over a frequency grid gives the
    /// point-by-point comparison the frequency-domain conformance suite
    /// locks down.
    ///
    /// # Errors
    ///
    /// Propagates shape mismatches from [`VariationalRom::evaluate`] and
    /// [`NumericError::SingularMatrix`] from an exactly-hit pole.
    pub fn transfer_at(&self, w: &[f64], s: Complex) -> Result<CMatrix, NumericError> {
        self.evaluate(w)?.transfer_at(s)
    }

    /// Reference evaluation: recomputes the *exact* reduction of the
    /// full-order load `(G(w), C(w))` evaluated at a sample, with the ports
    /// at MNA rows `ports` (fresh basis, same method). This is what a
    /// non-variational flow would do for every sample; used to measure the
    /// first-order model's accuracy and the runtime advantage.
    ///
    /// # Errors
    ///
    /// Propagates reduction errors at the sample point.
    pub fn evaluate_exact(
        &self,
        g: &Matrix,
        c: &Matrix,
        ports: &[usize],
    ) -> Result<ReducedModel, NumericError> {
        let b = port_incidence(g.rows(), ports);
        let x = basis_at(g, &SparseMatrix::from_dense(c), &b, ports, self.method)?;
        Ok(prima_project(g, c, &b, &x))
    }

    /// The nominal projection basis.
    pub fn basis(&self) -> &Matrix {
        &self.x0
    }

    /// Basis sensitivity for parameter `i`.
    pub fn basis_sensitivity(&self, i: usize) -> Option<&Matrix> {
        self.dx.get(i)
    }

    /// The eq. (11) reduced-matrix sensitivities `(dGr_i, dCr_i, dBr_i)`
    /// for parameter `i`.
    pub fn reduced_sensitivity(&self, i: usize) -> Option<(&Matrix, &Matrix, &Matrix)> {
        Some((self.dgr.get(i)?, self.dcr.get(i)?, self.dbr.get(i)?))
    }

    /// Reduced order.
    pub fn order(&self) -> usize {
        self.gr0.rows()
    }

    /// Number of ports.
    pub fn port_count(&self) -> usize {
        self.br0.cols()
    }

    /// Number of variation parameters.
    pub fn param_count(&self) -> usize {
        self.dgr.len()
    }

    /// The reduction method used at characterization.
    pub fn method(&self) -> ReductionMethod {
        self.method
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use linvar_circuit::{Netlist, VariationalValue};

    /// The exact reduction of `var` at `w`.
    fn exact(rom: &VariationalRom, var: &SparseVariationalMna, w: &[f64]) -> ReducedModel {
        let (g, c) = var.eval(w);
        rom.evaluate_exact(&g, &c, var.port_indices()).unwrap()
    }

    /// Variational RC ladder netlist: R and C values scale with parameter 0.
    fn var_ladder(n: usize) -> SparseVariationalMna {
        let mut nl = Netlist::new();
        let p = nl.params.declare("p");
        let mut prev = nl.node("n0");
        nl.mark_port(prev).unwrap();
        // Driver conductance grounds the port (G_SC folding).
        nl.add_resistor("Rdrv", prev, Netlist::GROUND, 50.0)
            .unwrap();
        for i in 1..=n {
            let next = nl.node(&format!("n{i}"));
            nl.add_variational_resistor(
                &format!("R{i}"),
                prev,
                next,
                VariationalValue::new(10.0).with_relative_sensitivity(p, 0.5),
            )
            .unwrap();
            nl.add_variational_capacitor(
                &format!("C{i}"),
                next,
                Netlist::GROUND,
                VariationalValue::new(1e-12).with_relative_sensitivity(p, 0.5),
            )
            .unwrap();
            prev = next;
        }
        nl.variational_stamps().unwrap().sparse().unwrap()
    }

    #[test]
    fn nominal_evaluation_matches_direct_reduction() {
        let var = var_ladder(10);
        let rom =
            VariationalRom::characterize(&var, ReductionMethod::Prima { order: 4 }, 0.01).unwrap();
        let at0 = rom.evaluate(&[0.0]).unwrap();
        let exact = exact(&rom, &var, &[0.0]);
        assert!((&at0.gr - &exact.gr).max_abs() < 1e-9 * exact.gr.max_abs());
        assert!((&at0.cr - &exact.cr).max_abs() < 1e-9 * exact.cr.max_abs());
    }

    #[test]
    fn first_order_tracks_exact_for_small_w() {
        let var = var_ladder(10);
        let rom =
            VariationalRom::characterize(&var, ReductionMethod::Prima { order: 4 }, 0.01).unwrap();
        let w = [0.05];
        let approx = rom.evaluate(&w).unwrap();
        let exact = exact(&rom, &var, &w);
        // DC impedance comparison is basis-independent.
        let z_a = approx.dc_impedance().unwrap()[(0, 0)];
        let z_e = exact.dc_impedance().unwrap()[(0, 0)];
        assert!(
            (z_a - z_e).abs() < 0.02 * z_e.abs(),
            "first-order {z_a} vs exact {z_e}"
        );
    }

    #[test]
    fn first_order_error_grows_quadratically() {
        let var = var_ladder(8);
        let rom =
            VariationalRom::characterize(&var, ReductionMethod::Prima { order: 3 }, 0.01).unwrap();
        let err_at = |wv: f64| -> f64 {
            let a = rom.evaluate(&[wv]).unwrap().dc_impedance().unwrap()[(0, 0)];
            let e = exact(&rom, &var, &[wv]).dc_impedance().unwrap()[(0, 0)];
            (a - e).abs()
        };
        let e1 = err_at(0.05);
        let e2 = err_at(0.2);
        // Quadratic scaling: e2/e1 ≈ (0.2/0.05)² = 16; accept 8–32.
        if e1 > 1e-12 {
            let ratio = e2 / e1;
            assert!((4.0..=64.0).contains(&ratio), "error ratio {ratio}");
        }
    }

    #[test]
    fn pact_method_also_characterizes() {
        let var = var_ladder(10);
        let rom =
            VariationalRom::characterize(&var, ReductionMethod::Pact { internal_modes: 3 }, 0.01)
                .unwrap();
        assert_eq!(rom.order(), 1 + 3, "ports + internal modes");
        assert_eq!(rom.port_count(), 1);
        assert_eq!(rom.param_count(), 1);
        let z0 = rom.evaluate(&[0.0]).unwrap().dc_impedance().unwrap()[(0, 0)];
        let ze = exact(&rom, &var, &[0.0]).dc_impedance().unwrap()[(0, 0)];
        assert!((z0 - ze).abs() < 1e-8 * ze.abs());
    }

    #[test]
    fn invalid_delta_rejected() {
        let var = var_ladder(4);
        assert!(
            VariationalRom::characterize(&var, ReductionMethod::Prima { order: 2 }, 0.0).is_err()
        );
        assert!(
            VariationalRom::characterize(&var, ReductionMethod::Prima { order: 2 }, f64::NAN)
                .is_err()
        );
    }

    #[test]
    fn align_basis_fixes_signs() {
        let x0 = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
        // Same basis with flipped signs and swapped columns.
        let x = Matrix::from_rows(&[&[0.0, -1.0], &[1.0, 0.0]]);
        let a = align_basis(&x0, &x);
        assert!((a[(0, 0)] - 1.0).abs() < 1e-15);
        assert!((a[(1, 1)] - 1.0).abs() < 1e-15);
        assert!(a[(0, 1)].abs() < 1e-15);
    }

    #[test]
    fn evaluate_with_short_sample_vector() {
        let var = var_ladder(5);
        let rom =
            VariationalRom::characterize(&var, ReductionMethod::Prima { order: 3 }, 0.01).unwrap();
        let a = rom.evaluate(&[]).unwrap();
        let b = rom.evaluate(&[0.0]).unwrap();
        assert!((&a.gr - &b.gr).max_abs() == 0.0);
    }
}
