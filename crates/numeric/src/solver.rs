//! Backend-agnostic linear-solver selection.
//!
//! Two factorization backends live behind the [`LinearSolver`] trait:
//!
//! * **Dense** — the existing [`LuFactor`], right for the reduced-order
//!   model matrices (order 4–40) and the small paper circuits;
//! * **Sparse** — the CSC [`SparseLu`] with its symbolic/numeric phase
//!   split, right for the large benchmark interconnect nets where a
//!   dense factor would be O(n³) on a matrix that is almost all zeros.
//!
//! [`AnySolver`] is the one way an engine factors a stamped system.
//! Callers that don't care pick [`SolverChoice::Auto`], which decides by
//! matrix order alone: at or above [`SPARSE_AUTO_MIN_DIM`] unknowns the
//! sparse backend wins. The threshold sits above every existing paper
//! workload on purpose, so default-configuration results (and the
//! table4/fig7 golden fixtures) are bit-for-bit unchanged.

use crate::error::NumericError;
use crate::lu::{FactorRecovery, LuFactor};
use crate::matrix::Matrix;
use crate::sparse::SparseMatrix;
use crate::sparse_lu::{analyze_cached, SparseLu};

/// Matrix order at which [`SolverChoice::Auto`] switches to the sparse
/// backend. Every pre-existing workload sits far below this, so `Auto`
/// preserves historical dense results bit for bit.
pub const SPARSE_AUTO_MIN_DIM: usize = 4096;

/// Which backend a factorization ended up on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolverBackend {
    /// Dense partial-pivoting LU ([`LuFactor`]).
    Dense,
    /// Compressed-sparse-column LU ([`SparseLu`]).
    Sparse,
}

impl SolverBackend {
    /// Stable lowercase name (used in logs and benchmark rows).
    pub fn name(self) -> &'static str {
        match self {
            SolverBackend::Dense => "dense",
            SolverBackend::Sparse => "sparse",
        }
    }
}

/// Caller-facing backend request.
///
/// `Auto` decides by matrix order; the explicit variants pin the backend
/// for one call (the equivalence tests run both).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SolverChoice {
    /// Size heuristic.
    #[default]
    Auto,
    /// Always the dense backend.
    Dense,
    /// Always the sparse backend.
    Sparse,
}

impl SolverChoice {
    /// Resolves this choice to a concrete backend for a system of order
    /// `n`: `Auto` is sparse at [`SPARSE_AUTO_MIN_DIM`] unknowns or more
    /// and dense below.
    pub fn backend_for(self, n: usize) -> SolverBackend {
        match self {
            SolverChoice::Dense => SolverBackend::Dense,
            SolverChoice::Sparse => SolverBackend::Sparse,
            SolverChoice::Auto if n >= SPARSE_AUTO_MIN_DIM => SolverBackend::Sparse,
            SolverChoice::Auto => SolverBackend::Dense,
        }
    }
}

/// Common interface over the dense and sparse LU backends.
///
/// Only the operations every consumer (SPICE engine, MOR projection,
/// benchmarks) needs are on the trait; backend-specific fast paths
/// (dense `optimize_for_solves`, sparse `refactor`) stay on the
/// concrete types and are reached by matching on [`AnySolver`].
pub trait LinearSolver {
    /// Matrix order.
    fn order(&self) -> usize;

    /// Which backend this factorization uses.
    fn backend(&self) -> SolverBackend;

    /// Cheap condition estimate (ratio of extreme pivot magnitudes).
    fn condition_estimate(&self) -> f64;

    /// Solves `A x = b` into `x` (overwritten; capacity reused).
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::DimensionMismatch`] if `b.len()` differs
    /// from the matrix order.
    fn solve_into(&self, b: &[f64], x: &mut Vec<f64>) -> Result<(), NumericError>;

    /// Solves `A x = b`.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::DimensionMismatch`] if `b.len()` differs
    /// from the matrix order.
    fn solve(&self, b: &[f64]) -> Result<Vec<f64>, NumericError> {
        let mut x = Vec::new();
        self.solve_into(b, &mut x)?;
        Ok(x)
    }

    /// Solves `A X = B` column by column.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::DimensionMismatch`] if `b.rows()` differs
    /// from the matrix order.
    fn solve_mat(&self, b: &Matrix) -> Result<Matrix, NumericError>;
}

impl LinearSolver for LuFactor {
    fn order(&self) -> usize {
        LuFactor::order(self)
    }
    fn backend(&self) -> SolverBackend {
        SolverBackend::Dense
    }
    fn condition_estimate(&self) -> f64 {
        LuFactor::condition_estimate(self)
    }
    fn solve_into(&self, b: &[f64], x: &mut Vec<f64>) -> Result<(), NumericError> {
        LuFactor::solve_into(self, b, x)
    }
    fn solve_mat(&self, b: &Matrix) -> Result<Matrix, NumericError> {
        LuFactor::solve_mat(self, b)
    }
}

impl LinearSolver for SparseLu {
    fn order(&self) -> usize {
        SparseLu::order(self)
    }
    fn backend(&self) -> SolverBackend {
        SolverBackend::Sparse
    }
    fn condition_estimate(&self) -> f64 {
        SparseLu::condition_estimate(self)
    }
    fn solve_into(&self, b: &[f64], x: &mut Vec<f64>) -> Result<(), NumericError> {
        SparseLu::solve_into(self, b, x)
    }
    fn solve_mat(&self, b: &Matrix) -> Result<Matrix, NumericError> {
        SparseLu::solve_mat(self, b)
    }
}

/// A factorization on whichever backend selection picked.
#[derive(Debug, Clone)]
pub enum AnySolver {
    /// Dense backend.
    Dense(LuFactor),
    /// Sparse backend.
    Sparse(SparseLu),
}

impl AnySolver {
    /// Factors the stamped system described by `triplets` on the backend
    /// `choice` resolves to for order `n`. Dense assembly replays the
    /// triplets with `+=` in emission order, matching how sparse CSC
    /// assembly sums duplicates — both backends factor bitwise-identical
    /// coefficient values.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::InvalidInput`] for out-of-range triplets
    /// and [`NumericError::SingularMatrix`] on factorization breakdown.
    pub fn factor_triplets(
        n: usize,
        triplets: &[(usize, usize, f64)],
        choice: SolverChoice,
    ) -> Result<Self, NumericError> {
        match choice.backend_for(n) {
            SolverBackend::Dense => {
                let a = dense_from_triplets(n, triplets)?;
                Ok(AnySolver::Dense(LuFactor::new(&a)?))
            }
            SolverBackend::Sparse => {
                let a = SparseMatrix::from_triplets(n, n, triplets)?;
                Ok(AnySolver::Sparse(SparseLu::new(&a)?))
            }
        }
    }

    /// Like [`AnySolver::factor_triplets`] but walking the
    /// diagonal-perturbation recovery ladder on breakdown (one retry on
    /// `A + εI`), identical policy on both backends.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::InvalidInput`] for out-of-range triplets
    /// and the underlying error if even the perturbed matrix fails.
    pub fn factor_triplets_recovering(
        n: usize,
        triplets: &[(usize, usize, f64)],
        choice: SolverChoice,
    ) -> Result<(Self, FactorRecovery), NumericError> {
        match choice.backend_for(n) {
            SolverBackend::Dense => AnySolver::dense_recovering(&dense_from_triplets(n, triplets)?),
            SolverBackend::Sparse => {
                AnySolver::sparse_recovering(&SparseMatrix::from_triplets(n, n, triplets)?)
            }
        }
    }

    /// Factors an assembled stamp stream (e.g. the `g` of
    /// `Netlist::stamp_mna`) with the same bits as assembling it densely
    /// and calling [`AnySolver::factor_dense_matrix_recovering`], but
    /// without a dense matrix on the sparse backend: that route factors
    /// [`SparseMatrix::from_stamps`], which equals
    /// [`SparseMatrix::from_dense`] of the `+=` replay.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::InvalidInput`] for out-of-range triplets
    /// and the underlying error if even the perturbed matrix fails.
    pub fn factor_stamps_recovering(
        n: usize,
        triplets: &[(usize, usize, f64)],
        choice: SolverChoice,
    ) -> Result<(Self, FactorRecovery), NumericError> {
        match choice.backend_for(n) {
            SolverBackend::Dense => AnySolver::dense_recovering(&dense_from_triplets(n, triplets)?),
            SolverBackend::Sparse => {
                AnySolver::sparse_recovering(&SparseMatrix::from_stamps(n, n, triplets)?)
            }
        }
    }

    /// Factors a dense matrix on the chosen backend (converting to CSC
    /// when sparse is selected). Used by consumers that already hold a
    /// dense operator, e.g. the MOR projection path.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::SingularMatrix`] on breakdown and
    /// [`NumericError::DimensionMismatch`] for non-square input.
    pub fn factor_dense_matrix(a: &Matrix, choice: SolverChoice) -> Result<Self, NumericError> {
        match choice.backend_for(a.rows()) {
            SolverBackend::Dense => Ok(AnySolver::Dense(LuFactor::new(a)?)),
            SolverBackend::Sparse => {
                let s = SparseMatrix::from_dense(a);
                Ok(AnySolver::Sparse(SparseLu::new(&s)?))
            }
        }
    }

    /// Like [`AnySolver::factor_dense_matrix`] but walking the
    /// diagonal-perturbation recovery ladder on breakdown (one retry on
    /// `A + εI`), identical policy on both backends.
    ///
    /// # Errors
    ///
    /// Returns the underlying error if even the perturbed matrix fails.
    pub fn factor_dense_matrix_recovering(
        a: &Matrix,
        choice: SolverChoice,
    ) -> Result<(Self, FactorRecovery), NumericError> {
        match choice.backend_for(a.rows()) {
            SolverBackend::Dense => AnySolver::dense_recovering(a),
            SolverBackend::Sparse => AnySolver::sparse_recovering(&SparseMatrix::from_dense(a)),
        }
    }

    /// The dense backend of the recovering factorizations.
    fn dense_recovering(a: &Matrix) -> Result<(Self, FactorRecovery), NumericError> {
        let (lu, rec) = LuFactor::new_recovering(a)?;
        Ok((AnySolver::Dense(lu), rec))
    }

    /// The sparse backend of the recovering factorizations: cached
    /// symbolic analysis, then the perturbation ladder.
    fn sparse_recovering(a: &SparseMatrix) -> Result<(Self, FactorRecovery), NumericError> {
        let symbolic = analyze_cached(a)?;
        let (lu, rec) = SparseLu::new_recovering(a, &symbolic)?;
        Ok((AnySolver::Sparse(lu), rec))
    }

    /// Refactors in place when the backend supports pattern reuse.
    ///
    /// On the sparse backend this is the fast numeric-only
    /// refactorization (with a full re-pivoting factor as fallback if
    /// the reused pivots break down); the dense backend has no
    /// pattern to reuse, so it simply factors afresh.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::SingularMatrix`] if the new values are
    /// singular and [`NumericError::InvalidInput`] for out-of-range
    /// triplets.
    pub fn refactor_triplets(
        &mut self,
        n: usize,
        triplets: &[(usize, usize, f64)],
    ) -> Result<(), NumericError> {
        match self {
            AnySolver::Dense(lu) => {
                let a = dense_from_triplets(n, triplets)?;
                *lu = LuFactor::new(&a)?;
                Ok(())
            }
            AnySolver::Sparse(lu) => {
                let a = SparseMatrix::from_triplets(n, n, triplets)?;
                match lu.refactor(&a) {
                    Ok(()) => Ok(()),
                    // Pattern drift or pivot breakdown: re-pivot from
                    // scratch rather than failing the timestep.
                    Err(_) => {
                        *lu = SparseLu::new(&a)?;
                        Ok(())
                    }
                }
            }
        }
    }

    /// The backend this factorization lives on.
    pub fn backend(&self) -> SolverBackend {
        match self {
            AnySolver::Dense(_) => SolverBackend::Dense,
            AnySolver::Sparse(_) => SolverBackend::Sparse,
        }
    }

    /// Dense-backend fast path: build the compact solve index so
    /// repeated `solve` calls skip the permutation bookkeeping. No-op on
    /// the sparse backend (its factor is already compressed).
    pub fn optimize_for_solves(&mut self) {
        if let AnySolver::Dense(lu) = self {
            lu.optimize_for_solves();
        }
    }
}

impl LinearSolver for AnySolver {
    fn order(&self) -> usize {
        match self {
            AnySolver::Dense(lu) => lu.order(),
            AnySolver::Sparse(lu) => lu.order(),
        }
    }
    fn backend(&self) -> SolverBackend {
        AnySolver::backend(self)
    }
    fn condition_estimate(&self) -> f64 {
        match self {
            AnySolver::Dense(lu) => lu.condition_estimate(),
            AnySolver::Sparse(lu) => lu.condition_estimate(),
        }
    }
    fn solve_into(&self, b: &[f64], x: &mut Vec<f64>) -> Result<(), NumericError> {
        match self {
            AnySolver::Dense(lu) => lu.solve_into(b, x),
            AnySolver::Sparse(lu) => lu.solve_into(b, x),
        }
    }
    fn solve_mat(&self, b: &Matrix) -> Result<Matrix, NumericError> {
        match self {
            AnySolver::Dense(lu) => lu.solve_mat(b),
            AnySolver::Sparse(lu) => lu.solve_mat(b),
        }
    }
}

/// Replays triplets into a dense matrix with `+=` in emission order —
/// the exact accumulation order sparse CSC assembly uses for duplicates,
/// and the exact order the stamping loops used before the solver
/// abstraction existed (preserving historical bit patterns).
fn dense_from_triplets(n: usize, triplets: &[(usize, usize, f64)]) -> Result<Matrix, NumericError> {
    let mut a = Matrix::zeros(n, n);
    for &(i, j, v) in triplets {
        if i >= n || j >= n {
            return Err(NumericError::InvalidInput(format!(
                "triplet ({i}, {j}) out of range for a {n}x{n} system"
            )));
        }
        a[(i, j)] += v;
    }
    Ok(a)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_triplets(n: usize) -> Vec<(usize, usize, f64)> {
        let mut t = Vec::new();
        for i in 0..n {
            // Duplicate diagonal contributions, like two elements
            // stamping the same node.
            t.push((i, i, 2.0));
            t.push((i, i, 0.5 + i as f64 * 0.1));
            if i + 1 < n {
                t.push((i, i + 1, -1.0));
                t.push((i + 1, i, -1.0));
            }
        }
        t
    }

    #[test]
    fn auto_decides_by_order_alone() {
        assert_eq!(SolverChoice::default(), SolverChoice::Auto);
        assert_eq!(
            SolverChoice::Auto.backend_for(SPARSE_AUTO_MIN_DIM - 1),
            SolverBackend::Dense
        );
        assert_eq!(
            SolverChoice::Auto.backend_for(SPARSE_AUTO_MIN_DIM),
            SolverBackend::Sparse
        );
    }

    #[test]
    fn explicit_choices_pin_the_backend() {
        assert_eq!(
            SolverChoice::Dense.backend_for(1 << 20),
            SolverBackend::Dense
        );
        assert_eq!(SolverChoice::Sparse.backend_for(2), SolverBackend::Sparse);
    }

    #[test]
    fn both_backends_agree_through_the_trait() {
        let n = 12;
        let t = test_triplets(n);
        let dense = AnySolver::factor_triplets(n, &t, SolverChoice::Dense).unwrap();
        let sparse = AnySolver::factor_triplets(n, &t, SolverChoice::Sparse).unwrap();
        assert_eq!(dense.backend(), SolverBackend::Dense);
        assert_eq!(sparse.backend(), SolverBackend::Sparse);
        let b: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let xd = dense.solve(&b).unwrap();
        let xs = sparse.solve(&b).unwrap();
        for (a, b) in xd.iter().zip(&xs) {
            assert!((a - b).abs() < 1e-12 * a.abs().max(1.0));
        }
        assert!(dense.condition_estimate().is_finite());
        assert!(sparse.condition_estimate().is_finite());
    }

    #[test]
    fn refactor_triplets_updates_values_on_both_backends() {
        let n = 10;
        let t = test_triplets(n);
        for choice in [SolverChoice::Dense, SolverChoice::Sparse] {
            let mut solver = AnySolver::factor_triplets(n, &t, choice).unwrap();
            let scaled: Vec<_> = t.iter().map(|&(i, j, v)| (i, j, 2.0 * v)).collect();
            solver.refactor_triplets(n, &scaled).unwrap();
            let b = vec![1.0; n];
            let x = solver.solve(&b).unwrap();
            // Doubling A halves the solution of the original system.
            let orig = AnySolver::factor_triplets(n, &t, choice).unwrap();
            let x0 = orig.solve(&b).unwrap();
            for (half, full) in x.iter().zip(&x0) {
                assert!((2.0 * half - full).abs() < 1e-10 * full.abs().max(1.0));
            }
        }
    }

    #[test]
    fn out_of_range_triplets_are_invalid_input() {
        assert!(matches!(
            AnySolver::factor_triplets(2, &[(2, 0, 1.0)], SolverChoice::Dense),
            Err(NumericError::InvalidInput(_) | NumericError::DimensionMismatch { .. })
        ));
        assert!(matches!(
            AnySolver::factor_triplets(2, &[(0, 5, 1.0)], SolverChoice::Sparse),
            Err(NumericError::InvalidInput(_) | NumericError::DimensionMismatch { .. })
        ));
    }
}
