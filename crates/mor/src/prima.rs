//! PRIMA: passive reduced-order interconnect macromodeling algorithm.
//!
//! Block Arnoldi iteration on `(G⁻¹C, G⁻¹B)` followed by the congruence
//! transformation `Gr = XᵀGX`, `Cr = XᵀCX`, `Br = XᵀB`. For the *nominal*
//! symmetric RC case this preserves passivity; the variational first-order
//! version built on top of this basis does not (see [`crate::variational`]).

use linvar_numeric::{
    gram_schmidt_orthonormalize, AnySolver, CLuFactor, CMatrix, Complex, LinearSolver, LuFactor,
    Matrix, NumericError, SolverChoice, SparseMatrix,
};

/// A reduced-order model `(Gr + s·Cr)·vr = Br·ip`, `vp = Brᵀ·vr`.
#[derive(Debug, Clone)]
pub struct ReducedModel {
    /// Reduced admittance matrix (`q x q`).
    pub gr: Matrix,
    /// Reduced susceptance matrix (`q x q`).
    pub cr: Matrix,
    /// Reduced input/output incidence (`q x Np`).
    pub br: Matrix,
}

impl ReducedModel {
    /// Reduced order `q`.
    pub fn order(&self) -> usize {
        self.gr.rows()
    }

    /// Number of ports.
    pub fn port_count(&self) -> usize {
        self.br.cols()
    }

    /// Restriction of the model to its leading `q` reduced states.
    ///
    /// The PRIMA basis is nested (block-Krylov vectors in construction
    /// order), so the leading `q × q` sub-blocks of `Gr`/`Cr` and the
    /// leading `q` rows of `Br` form the model that a reduction of order
    /// `q` would have produced over the same leading basis vectors. This is
    /// the cheap step behind the order-degradation ladder
    /// ([`crate::degrade`]): no re-factorization of the full system needed.
    ///
    /// `q` is clamped to `1..=order()`.
    pub fn truncated(&self, q: usize) -> ReducedModel {
        let q = q.clamp(1, self.order().max(1));
        let np = self.port_count();
        ReducedModel {
            gr: Matrix::from_fn(q, q, |i, j| self.gr[(i, j)]),
            cr: Matrix::from_fn(q, q, |i, j| self.cr[(i, j)]),
            br: Matrix::from_fn(q, np, |i, j| self.br[(i, j)]),
        }
    }

    /// DC port impedance matrix `Z(0) = Brᵀ Gr⁻¹ Br`.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::SingularMatrix`] if `Gr` is singular (a load
    /// with a floating port).
    pub fn dc_impedance(&self) -> Result<Matrix, NumericError> {
        let lu = LuFactor::new(&self.gr)?;
        let x = lu.solve_mat(&self.br)?;
        Ok(self.br.transpose().mul_mat(&x))
    }

    /// Port transfer (impedance) matrix at a complex frequency:
    /// `Z(s) = Brᵀ (Gr + s·Cr)⁻¹ Br`.
    ///
    /// This is the frequency-domain face of the reduced model — the
    /// quantity the AC conformance suite compares point-by-point against
    /// a full-order complex-MNA solve at `s = jω`. The reduced system is
    /// small (order 4–40), so a dense complex factor is the right tool.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::SingularMatrix`] if `Gr + s·Cr` is
    /// singular at `s` (an exactly-hit pole).
    pub fn transfer_at(&self, s: Complex) -> Result<CMatrix, NumericError> {
        let q = self.order();
        let np = self.port_count();
        let mut a = CMatrix::from_real(&self.gr);
        for i in 0..q {
            for j in 0..q {
                let cij = self.cr[(i, j)];
                if cij != 0.0 {
                    a[(i, j)] += s.scale(cij);
                }
            }
        }
        let lu = CLuFactor::new(&a)?;
        // X = (Gr + s·Cr)⁻¹ Br, column by column.
        let mut x = CMatrix::zeros(q, np);
        let mut col = vec![Complex::ZERO; q];
        for j in 0..np {
            for i in 0..q {
                col[i] = Complex::from_real(self.br[(i, j)]);
            }
            let solved = lu.solve(&col)?;
            for i in 0..q {
                x[(i, j)] = solved[i];
            }
        }
        let mut z = CMatrix::zeros(np, np);
        for i in 0..np {
            for j in 0..np {
                let mut acc = Complex::ZERO;
                for k in 0..q {
                    acc += x[(k, j)].scale(self.br[(k, i)]);
                }
                z[(i, j)] = acc;
            }
        }
        Ok(z)
    }
}

/// Computes the PRIMA projection basis of dimension at most `order`.
///
/// The basis spans the block Krylov space
/// `K(G⁻¹C, G⁻¹B) = span{G⁻¹B, (G⁻¹C)G⁻¹B, …}`, orthonormalized with
/// modified Gram-Schmidt; linearly dependent candidates are deflated, so
/// the returned basis may have fewer than `order` columns. `G` is dense
/// for its LU; `C` only multiplies Krylov vectors, so it stays sparse.
///
/// # Errors
///
/// Returns [`NumericError::SingularMatrix`] if `G` is singular,
/// [`NumericError::InvalidInput`] for an empty port set or zero order, and
/// [`NumericError::DimensionMismatch`] if `C` does not match `G`'s order.
pub fn prima_basis(
    g: &Matrix,
    c: &SparseMatrix,
    b: &Matrix,
    order: usize,
) -> Result<Matrix, NumericError> {
    let _span = linvar_metrics::timer(linvar_metrics::Phase::PrimaProject);
    if b.cols() == 0 {
        return Err(NumericError::InvalidInput("no ports".into()));
    }
    if order == 0 {
        return Err(NumericError::InvalidInput(
            "reduction order must be >= 1".into(),
        ));
    }
    let n = g.rows();
    // The full-order G is the one matrix in the PRIMA iteration that can
    // be benchmark-interconnect sized; let the backend auto-select.
    let lu = AnySolver::factor_dense_matrix(g, SolverChoice::Auto)?;
    // R = G⁻¹ B: the zeroth block.
    let r = lu.solve_mat(b)?;
    let mut basis: Vec<Vec<f64>> = Vec::new();
    let candidates: Vec<Vec<f64>> = (0..r.cols()).map(|j| r.col(j)).collect();
    gram_schmidt_orthonormalize(&mut basis, &candidates, 1e-10);
    // Block Arnoldi: multiply the *orthonormalized* vectors of the previous
    // block by A = G⁻¹C and orthonormalize against everything so far.
    let mut block_start = 0;
    while basis.len() < order.min(n) {
        let block_end = basis.len();
        if block_start == block_end {
            break; // Krylov space exhausted.
        }
        let mut next: Vec<Vec<f64>> = Vec::new();
        for v in &basis[block_start..block_end] {
            next.push(lu.solve(&krylov_product(c, v)?)?);
        }
        block_start = block_end;
        gram_schmidt_orthonormalize(&mut basis, &next, 1e-10);
    }
    basis.truncate(order.min(n));
    let q = basis.len();
    let mut x = Matrix::zeros(n, q);
    for (j, v) in basis.iter().enumerate() {
        x.set_col(j, v);
    }
    Ok(x)
}

/// `C·v` with the bits of [`Matrix::mul_vec`] on the dense `C`. For a
/// finite `v` the CSC product adds each row's terms in ascending column
/// order from `+0.0`, as the dense product does, and every term it skips
/// is an exact zero times a finite value. A non-finite `v` replays the
/// dense product, whose skipped terms would be NaN.
fn krylov_product(c: &SparseMatrix, v: &[f64]) -> Result<Vec<f64>, NumericError> {
    if v.iter().all(|x| x.is_finite()) {
        c.mul_vec(v)
    } else {
        Ok(c.to_dense().mul_vec(v))
    }
}

/// Reduces `(G, C, B)` with the congruence transformation over basis `x`.
pub fn prima_project(g: &Matrix, c: &Matrix, b: &Matrix, x: &Matrix) -> ReducedModel {
    ReducedModel {
        gr: g.congruence(x),
        cr: c.congruence(x),
        br: x.transpose().mul_mat(b),
    }
}

/// One-call PRIMA reduction to the given order.
///
/// # Errors
///
/// Same conditions as [`prima_basis`].
pub fn prima_reduce(
    g: &Matrix,
    c: &Matrix,
    b: &Matrix,
    order: usize,
) -> Result<ReducedModel, NumericError> {
    let x = prima_basis(g, &SparseMatrix::from_dense(c), b, order)?;
    Ok(prima_project(g, c, b, &x))
}

#[cfg(test)]
mod tests {
    use super::*;
    use linvar_numeric::eigenvalues;

    /// RC ladder: n nodes, R between consecutive nodes, C to ground at
    /// every node, port at node 0. A driver output conductance of `1/r`
    /// grounds node 0 (the paper's `G_SC` folding), making `G`
    /// nonsingular — a floating RC line has a singular admittance matrix.
    fn ladder(n: usize, r: f64, c: f64) -> (Matrix, Matrix, Matrix) {
        let g_val = 1.0 / r;
        let mut g = Matrix::zeros(n, n);
        let mut cm = Matrix::zeros(n, n);
        for i in 0..n {
            cm[(i, i)] = c;
        }
        for i in 1..n {
            g[(i, i)] += g_val;
            g[(i - 1, i - 1)] += g_val;
            g[(i, i - 1)] -= g_val;
            g[(i - 1, i)] -= g_val;
        }
        g[(0, 0)] += g_val; // driver output conductance (G_SC)
        let mut b = Matrix::zeros(n, 1);
        b[(0, 0)] = 1.0;
        (g, cm, b)
    }

    #[test]
    fn basis_is_orthonormal() {
        let (g, c, b) = ladder(20, 10.0, 1e-12);
        let x = prima_basis(&g, &SparseMatrix::from_dense(&c), &b, 5).unwrap();
        assert_eq!(x.cols(), 5);
        let xtx = x.transpose().mul_mat(&x);
        assert!((&xtx - &Matrix::identity(5)).max_abs() < 1e-10);
    }

    #[test]
    fn reduction_preserves_dc_impedance() {
        // Moment matching at s=0 means Z(0) is exact.
        let (g, c, b) = ladder(15, 5.0, 2e-12);
        let rom = prima_reduce(&g, &c, &b, 4).unwrap();
        let z_full = {
            let lu = LuFactor::new(&g).unwrap();
            let x = lu.solve_mat(&b).unwrap();
            b.transpose().mul_mat(&x)[(0, 0)]
        };
        let z_red = rom.dc_impedance().unwrap()[(0, 0)];
        assert!(
            (z_full - z_red).abs() < 1e-6 * z_full.abs(),
            "dc {z_full} vs {z_red}"
        );
    }

    #[test]
    fn nominal_reduction_is_stable() {
        // Symmetric RC: reduced poles (eigenvalues of -Gr⁻¹Cr inverted)
        // must all lie in the left half plane.
        let (g, c, b) = ladder(25, 10.0, 1e-12);
        let rom = prima_reduce(&g, &c, &b, 6).unwrap();
        let ginv = LuFactor::new(&rom.gr).unwrap().inverse().unwrap();
        let t = -&ginv.mul_mat(&rom.cr);
        for ev in eigenvalues(&t).unwrap() {
            // T eigenvalues d_k; poles are 1/d_k. Stability ⇔ d_k < 0.
            assert!(ev.re < 0.0, "unstable mode {ev}");
        }
    }

    #[test]
    fn reduction_preserves_symmetry() {
        let (g, c, b) = ladder(12, 1.0, 1e-12);
        let rom = prima_reduce(&g, &c, &b, 4).unwrap();
        assert!(rom.gr.is_symmetric(1e-10 * rom.gr.max_abs()));
        assert!(rom.cr.is_symmetric(1e-10 * rom.cr.max_abs()));
    }

    #[test]
    fn deflation_caps_basis_size() {
        // A 3-node system cannot produce more than 3 basis vectors.
        let (g, c, b) = ladder(3, 1.0, 1e-12);
        let x = prima_basis(&g, &SparseMatrix::from_dense(&c), &b, 10).unwrap();
        assert!(x.cols() <= 3);
    }

    #[test]
    fn transfer_function_matches_at_low_frequency() {
        // Compare Z(jω) of full vs reduced model at a frequency well below
        // the dominant pole.
        let (g, c, b) = ladder(20, 10.0, 1e-12);
        let rom = prima_reduce(&g, &c, &b, 6).unwrap();
        let omega = 1e8; // rad/s, low for RC ≈ 10Ω·20pF
        let z_full = z_at(&g, &c, &b, omega);
        let z_red = z_at(&rom.gr, &rom.cr, &rom.br, omega);
        assert!(
            (z_full - z_red).abs() < 1e-3 * z_full.abs(),
            "{z_full} vs {z_red}"
        );
    }

    /// |Z(jω)| via real-equivalent 2x2 block solve.
    fn z_at(g: &Matrix, c: &Matrix, b: &Matrix, omega: f64) -> f64 {
        let n = g.rows();
        // [[G, -ωC], [ωC, G]] [vr; vi] = [b; 0]
        let mut big = Matrix::zeros(2 * n, 2 * n);
        big.set_block(0, 0, g);
        big.set_block(n, n, g);
        big.set_block(0, n, &(&(c * omega) * -1.0));
        big.set_block(n, 0, &(c * omega));
        let mut rhs = vec![0.0; 2 * n];
        for i in 0..n {
            rhs[i] = b[(i, 0)];
        }
        let x = LuFactor::new(&big).unwrap().solve(&rhs).unwrap();
        let (mut re, mut im) = (0.0, 0.0);
        for i in 0..n {
            re += b[(i, 0)] * x[i];
            im += b[(i, 0)] * x[n + i];
        }
        (re * re + im * im).sqrt()
    }

    #[test]
    fn zero_order_rejected() {
        let (g, c, b) = ladder(5, 1.0, 1e-12);
        let c = SparseMatrix::from_dense(&c);
        assert!(prima_basis(&g, &c, &b, 0).is_err());
        let empty_b = Matrix::zeros(5, 0);
        assert!(prima_basis(&g, &c, &empty_b, 3).is_err());
    }
}
