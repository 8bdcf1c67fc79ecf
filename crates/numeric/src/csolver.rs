//! Complex linear solves through the real solver stack.
//!
//! The AC small-signal system `(G + jωC) x = b` is solved by embedding
//! the complex `n×n` operator `A = Ar + j·Ai` into the real `2n×2n`
//! block form
//!
//! ```text
//!   [ Ar  -Ai ] [ Re(x) ]   [ Re(b) ]
//!   [ Ai   Ar ] [ Im(x) ] = [ Im(b) ]
//! ```
//!
//! which routes every complex solve through the existing [`AnySolver`]
//! machinery rather than a parallel complex implementation: dense/sparse
//! backend selection (by the *embedded* order `2n`), the
//! diagonal-perturbation recovery ladder, and sparse pattern-reuse
//! refactorization across a frequency sweep.
//!
//! Pattern invariance is deliberate: [`embed_triplets`] emits all four
//! block entries for every complex triplet, zero components included, so
//! the embedded sparsity pattern depends only on the stamped structure —
//! not on the frequency. A sweep can therefore factor once and walk the
//! remaining points through [`CAnySolver::refactor_triplets`], which on
//! the sparse backend is the numeric-only fast path.

use crate::complex::Complex;
use crate::error::NumericError;
use crate::lu::FactorRecovery;
use crate::solver::{AnySolver, LinearSolver, SolverBackend, SolverChoice};

/// Embeds complex triplets for an `n×n` system into real triplets for
/// the `2n×2n` block form `[[Ar, -Ai], [Ai, Ar]]`.
///
/// Every complex triplet emits its four real block entries (zeros
/// included) so the embedded sparsity pattern is identical for every
/// value assignment — the invariant the sweep-refactor fast path relies
/// on. Emission order is deterministic (triplet order, then Ar/-Ai/Ai/Ar
/// block order), so dense replay and sparse CSC duplicate-summing both
/// accumulate in a reproducible order.
///
/// # Errors
///
/// Returns [`NumericError::InvalidInput`] for triplets outside the
/// complex system's range.
pub fn embed_triplets(
    n: usize,
    triplets: &[(usize, usize, Complex)],
) -> Result<Vec<(usize, usize, f64)>, NumericError> {
    let mut out = Vec::with_capacity(4 * triplets.len());
    for &(i, j, z) in triplets {
        if i >= n || j >= n {
            return Err(NumericError::InvalidInput(format!(
                "complex triplet ({i}, {j}) out of range for a {n}x{n} system"
            )));
        }
        out.push((i, j, z.re));
        out.push((i, j + n, -z.im));
        out.push((i + n, j, z.im));
        out.push((i + n, j + n, z.re));
    }
    Ok(out)
}

/// A complex factorization living on whichever real backend selection
/// picked for the embedded order.
#[derive(Debug, Clone)]
pub struct CAnySolver {
    inner: AnySolver,
    n: usize,
}

impl CAnySolver {
    /// Factors the complex system described by `triplets` on the backend
    /// `choice` resolves to for the embedded order `2n`.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::InvalidInput`] for out-of-range triplets
    /// and [`NumericError::SingularMatrix`] on factorization breakdown.
    pub fn factor_triplets(
        n: usize,
        triplets: &[(usize, usize, Complex)],
        choice: SolverChoice,
    ) -> Result<Self, NumericError> {
        let _span = linvar_metrics::timer(linvar_metrics::Phase::AcFactor);
        let real = embed_triplets(n, triplets)?;
        let inner = AnySolver::factor_triplets(2 * n, &real, choice)?;
        Ok(CAnySolver { inner, n })
    }

    /// Like [`CAnySolver::factor_triplets`] but walking the
    /// diagonal-perturbation recovery ladder on breakdown — the same
    /// one-retry `A + εI` policy as the real path, applied to the
    /// embedded operator.
    ///
    /// # Errors
    ///
    /// Returns the underlying error if even the perturbed embedding
    /// fails.
    pub fn factor_triplets_recovering(
        n: usize,
        triplets: &[(usize, usize, Complex)],
        choice: SolverChoice,
    ) -> Result<(Self, FactorRecovery), NumericError> {
        let _span = linvar_metrics::timer(linvar_metrics::Phase::AcFactor);
        let real = embed_triplets(n, triplets)?;
        let (inner, recovery) = AnySolver::factor_triplets_recovering(2 * n, &real, choice)?;
        if recovery.perturbed {
            linvar_metrics::incr(linvar_metrics::Counter::AcFactorRecoveries);
        }
        Ok((CAnySolver { inner, n }, recovery))
    }

    /// Refactors with new values at the same sparsity pattern — the
    /// sweep fast path. On the sparse backend this reuses the pivot
    /// sequence (numeric-only refactorization, full factor as fallback);
    /// dense factors afresh.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::SingularMatrix`] if the new values are
    /// singular and [`NumericError::InvalidInput`] for out-of-range
    /// triplets.
    pub fn refactor_triplets(
        &mut self,
        n: usize,
        triplets: &[(usize, usize, Complex)],
    ) -> Result<(), NumericError> {
        let _span = linvar_metrics::timer(linvar_metrics::Phase::AcFactor);
        if n != self.n {
            return Err(NumericError::DimensionMismatch {
                expected: format!("complex order {}", self.n),
                found: format!("complex order {n}"),
            });
        }
        let real = embed_triplets(n, triplets)?;
        self.inner.refactor_triplets(2 * n, &real)?;
        linvar_metrics::incr(linvar_metrics::Counter::AcRefactors);
        Ok(())
    }

    /// Complex system order `n` (the embedded real order is `2n`).
    pub fn order(&self) -> usize {
        self.n
    }

    /// The real backend this factorization lives on.
    pub fn backend(&self) -> SolverBackend {
        self.inner.backend()
    }

    /// Condition estimate of the embedded real factorization.
    pub fn condition_estimate(&self) -> f64 {
        self.inner.condition_estimate()
    }

    /// Dense-backend fast path for repeated solves against one factor.
    pub fn optimize_for_solves(&mut self) {
        self.inner.optimize_for_solves();
    }

    /// Solves `A x = b` into `x` (overwritten; capacity reused). `b` is
    /// packed into a real `2n` right-hand side and the real `2n` solution
    /// unpacked into `x`.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::DimensionMismatch`] if `b.len()` differs
    /// from the complex order.
    pub fn solve_into(&self, b: &[Complex], x: &mut Vec<Complex>) -> Result<(), NumericError> {
        let _span = linvar_metrics::timer(linvar_metrics::Phase::AcSolve);
        if b.len() != self.n {
            return Err(NumericError::DimensionMismatch {
                expected: format!("rhs of length {}", self.n),
                found: format!("length {}", b.len()),
            });
        }
        let rb: Vec<f64> = b
            .iter()
            .map(|z| z.re)
            .chain(b.iter().map(|z| z.im))
            .collect();
        let mut rx = Vec::new();
        self.inner.solve_into(&rb, &mut rx)?;
        x.clear();
        x.extend((0..self.n).map(|i| Complex::new(rx[i], rx[i + self.n])));
        Ok(())
    }

    /// Solves `A x = b`.
    ///
    /// # Errors
    ///
    /// Same contract as [`CAnySolver::solve_into`].
    pub fn solve(&self, b: &[Complex]) -> Result<Vec<Complex>, NumericError> {
        let mut x = Vec::new();
        self.solve_into(b, &mut x)?;
        Ok(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cmatrix::{CLuFactor, CMatrix};

    /// A well-conditioned complex test system with duplicate stamps,
    /// mimicking `(G + jωC)` MNA emission.
    fn test_triplets(n: usize) -> Vec<(usize, usize, Complex)> {
        let mut t = Vec::new();
        for i in 0..n {
            t.push((i, i, Complex::new(2.0, 0.3)));
            t.push((i, i, Complex::new(0.5 + i as f64 * 0.1, 0.05 * i as f64)));
            if i + 1 < n {
                t.push((i, i + 1, Complex::new(-1.0, -0.2)));
                t.push((i + 1, i, Complex::new(-1.0, -0.2)));
            }
        }
        t
    }

    fn test_rhs(n: usize) -> Vec<Complex> {
        (0..n)
            .map(|i| Complex::new((i as f64).sin(), (i as f64 * 0.7).cos()))
            .collect()
    }

    /// Sums the triplets into a dense complex matrix (oracle assembly).
    fn dense_of(n: usize, t: &[(usize, usize, Complex)]) -> CMatrix {
        let mut a = CMatrix::zeros(n, n);
        for &(i, j, z) in t {
            a[(i, j)] += z;
        }
        a
    }

    #[test]
    fn embedding_matches_native_complex_lu() {
        let n = 9;
        let t = test_triplets(n);
        let b = test_rhs(n);
        let embedded = CAnySolver::factor_triplets(n, &t, SolverChoice::Dense).unwrap();
        let x = embedded.solve(&b).unwrap();
        let native = CLuFactor::new(&dense_of(n, &t)).unwrap();
        let xref = native.solve(&b).unwrap();
        for (a, r) in x.iter().zip(&xref) {
            assert!((*a - *r).abs() < 1e-12 * r.abs().max(1.0), "{a:?} vs {r:?}");
        }
    }

    #[test]
    fn dense_and_sparse_backends_agree() {
        let n = 11;
        let t = test_triplets(n);
        let b = test_rhs(n);
        let dense = CAnySolver::factor_triplets(n, &t, SolverChoice::Dense).unwrap();
        let sparse = CAnySolver::factor_triplets(n, &t, SolverChoice::Sparse).unwrap();
        assert_eq!(dense.backend(), SolverBackend::Dense);
        assert_eq!(sparse.backend(), SolverBackend::Sparse);
        assert_eq!(dense.order(), n);
        let xd = dense.solve(&b).unwrap();
        let xs = sparse.solve(&b).unwrap();
        for (a, s) in xd.iter().zip(&xs) {
            assert!((*a - *s).abs() < 1e-12 * s.abs().max(1.0));
        }
        assert!(dense.condition_estimate().is_finite());
        assert!(sparse.condition_estimate().is_finite());
    }

    #[test]
    fn refactor_matches_fresh_factor_on_both_backends() {
        let n = 8;
        let t = test_triplets(n);
        let b = test_rhs(n);
        // Same pattern, different values: scale the imaginary part the
        // way ω scales the susceptance stamps.
        let scaled: Vec<_> = t
            .iter()
            .map(|&(i, j, z)| (i, j, Complex::new(z.re, 3.0 * z.im)))
            .collect();
        for choice in [SolverChoice::Dense, SolverChoice::Sparse] {
            let mut solver = CAnySolver::factor_triplets(n, &t, choice).unwrap();
            solver.refactor_triplets(n, &scaled).unwrap();
            let x = solver.solve(&b).unwrap();
            let fresh = CAnySolver::factor_triplets(n, &scaled, choice).unwrap();
            let xf = fresh.solve(&b).unwrap();
            for (a, f) in x.iter().zip(&xf) {
                assert!((*a - *f).abs() < 1e-10 * f.abs().max(1.0));
            }
        }
    }

    #[test]
    fn recovery_ladder_perturbs_singular_complex_systems() {
        // Row 1 is exactly zero: singular until the ladder adds εI.
        let n = 3;
        let t = vec![
            (0, 0, Complex::new(2.0, 0.5)),
            (2, 2, Complex::new(1.5, -0.25)),
            (0, 2, Complex::new(-0.5, 0.0)),
            (2, 0, Complex::new(-0.5, 0.0)),
        ];
        for choice in [SolverChoice::Dense, SolverChoice::Sparse] {
            let (solver, rec) = CAnySolver::factor_triplets_recovering(n, &t, choice).unwrap();
            assert!(rec.perturbed, "{choice:?} should need the ladder");
            assert!(rec.perturbation > 0.0);
            let x = solver.solve(&test_rhs(n)).unwrap();
            assert!(x.iter().all(|z| z.is_finite()));
        }
    }

    #[test]
    fn out_of_range_and_mismatched_inputs_are_typed_errors() {
        let n = 4;
        assert!(matches!(
            CAnySolver::factor_triplets(n, &[(4, 0, Complex::ONE)], SolverChoice::Dense),
            Err(NumericError::InvalidInput(_))
        ));
        let solver =
            CAnySolver::factor_triplets(n, &test_triplets(n), SolverChoice::Dense).unwrap();
        assert!(matches!(
            solver.solve(&test_rhs(n + 1)),
            Err(NumericError::DimensionMismatch { .. })
        ));
    }
}
