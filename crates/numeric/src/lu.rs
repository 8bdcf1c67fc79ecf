//! LU factorization with partial pivoting for real matrices.

use crate::error::NumericError;
use crate::matrix::Matrix;

/// LU factorization with partial (row) pivoting: `P * A = L * U`.
///
/// The factorization is computed once and can then solve many right-hand
/// sides — the access pattern of both the MNA transient simulators (one
/// factorization per Newton iteration) and the block-Arnoldi PRIMA iteration
/// (one factorization of `G`, many solves).
///
/// # Example
///
/// ```
/// use linvar_numeric::{LuFactor, Matrix};
///
/// # fn main() -> Result<(), linvar_numeric::NumericError> {
/// let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]);
/// let lu = LuFactor::new(&a)?;
/// let x = lu.solve(&[3.0, 4.0])?;
/// assert!((x[0] - 1.0).abs() < 1e-12 && (x[1] - 1.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct LuFactor {
    /// Combined L (strict lower, unit diagonal implied) and U (upper) factors.
    lu: Matrix,
    /// Row permutation: row `i` of the factored matrix is row `perm[i]` of `A`.
    perm: Vec<usize>,
    /// Sign of the permutation, for determinant computation.
    perm_sign: f64,
    /// Optional nonzero index over the factors, built by
    /// [`LuFactor::optimize_for_solves`] for factorizations that serve
    /// many right-hand sides.
    solve_index: Option<SolveIndex>,
}

/// Compressed index of the structurally nonzero off-diagonal factor
/// entries, `(column, value)` pairs per row in ascending column order.
///
/// MNA matrices from ladder-dominated netlists factor with O(n) fill, so
/// triangular substitution over only the stored nonzeros turns an O(n²)
/// dense sweep into an O(nnz) one. Skipped entries are exact `0.0`
/// factors whose dense contribution `acc -= 0.0 * x[j]` cannot change a
/// finite accumulation, so the indexed solve is bitwise identical to the
/// dense one for finite iterates.
#[derive(Debug, Clone)]
struct SolveIndex {
    /// `(j, l_ij)` for `j < i`, rows concatenated.
    lower: Vec<(u32, f64)>,
    /// Start of row `i`'s entries in `lower`; length `n + 1`.
    lower_off: Vec<u32>,
    /// `(j, u_ij)` for `j > i`, rows concatenated.
    upper: Vec<(u32, f64)>,
    /// Start of row `i`'s entries in `upper`; length `n + 1`.
    upper_off: Vec<u32>,
}

/// Relative pivot threshold below which the matrix is declared singular.
const PIVOT_TOL: f64 = 1e-300;

/// What [`LuFactor::new_recovering`] had to do to obtain a factorization.
///
/// The recovery ladder for a near-singular system is: factor as-is, and if
/// that breaks down retry exactly once with a small diagonal perturbation
/// (Tikhonov-style regularization scaled to the matrix magnitude). The report
/// lets callers attribute the result — a perturbed factorization solves a
/// slightly different system and downstream layers may want to degrade
/// further or discard the sample.
#[derive(Debug, Clone, PartialEq)]
pub struct FactorRecovery {
    /// `true` if the diagonal had to be perturbed to complete the factorization.
    pub perturbed: bool,
    /// Magnitude of the diagonal perturbation applied (`0.0` when clean).
    pub perturbation: f64,
    /// Cheap condition estimate of the factored matrix: the ratio of the
    /// largest to the smallest `|U|` diagonal magnitude.
    pub condition_estimate: f64,
}

impl LuFactor {
    /// Factors the square matrix `a`.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::DimensionMismatch`] if `a` is not square and
    /// [`NumericError::SingularMatrix`] if a pivot underflows.
    pub fn new(a: &Matrix) -> Result<Self, NumericError> {
        let _span = linvar_metrics::timer(linvar_metrics::Phase::LuFactor);
        if !a.is_square() {
            return Err(NumericError::DimensionMismatch {
                expected: "square matrix".into(),
                found: format!("{}x{}", a.rows(), a.cols()),
            });
        }
        let mut lu = a.clone();
        let n = lu.rows();
        let mut perm: Vec<usize> = (0..n).collect();
        let mut perm_sign = 1.0;
        let mut max_pivot: f64 = 0.0;

        for k in 0..n {
            // Partial pivoting: find the largest magnitude entry in column k.
            let mut p = k;
            let mut pmax = lu[(k, k)].abs();
            for i in (k + 1)..n {
                let v = lu[(i, k)].abs();
                if v > pmax {
                    pmax = v;
                    p = i;
                }
            }
            if pmax < PIVOT_TOL || !pmax.is_finite() {
                let condition = if pmax.is_finite() && max_pivot > 0.0 {
                    Some(if pmax > 0.0 {
                        max_pivot / pmax
                    } else {
                        f64::INFINITY
                    })
                } else {
                    None
                };
                return Err(NumericError::SingularMatrix {
                    pivot: k,
                    condition,
                });
            }
            max_pivot = max_pivot.max(pmax);
            if p != k {
                for j in 0..n {
                    let tmp = lu[(k, j)];
                    lu[(k, j)] = lu[(p, j)];
                    lu[(p, j)] = tmp;
                }
                perm.swap(k, p);
                perm_sign = -perm_sign;
            }
            let pivot = lu[(k, k)];
            for i in (k + 1)..n {
                let m = lu[(i, k)] / pivot;
                lu[(i, k)] = m;
                if m != 0.0 {
                    for j in (k + 1)..n {
                        let ukj = lu[(k, j)];
                        lu[(i, j)] -= m * ukj;
                    }
                }
            }
        }
        Ok(LuFactor {
            lu,
            perm,
            perm_sign,
            solve_index: None,
        })
    }

    /// Builds the nonzero index over the factors so subsequent solves
    /// substitute over O(nnz) entries instead of sweeping the dense
    /// triangles. Worth the one-off O(n²) scan only when the same
    /// factorization serves many right-hand sides (the MNA transient
    /// simulators resolve one factorization hundreds of times per
    /// timestep cache); allocates, so the Monte-Carlo hot path leaves it
    /// off. Solves remain bitwise identical to the dense sweep.
    pub fn optimize_for_solves(&mut self) {
        let n = self.order();
        let mut lower = Vec::new();
        let mut lower_off = Vec::with_capacity(n + 1);
        let mut upper = Vec::new();
        let mut upper_off = Vec::with_capacity(n + 1);
        lower_off.push(0);
        upper_off.push(0);
        for i in 0..n {
            let row = self.lu.row(i);
            for (j, &v) in row.iter().enumerate().take(i) {
                if v != 0.0 {
                    lower.push((j as u32, v));
                }
            }
            lower_off.push(lower.len() as u32);
            for (j, &v) in row.iter().enumerate().skip(i + 1) {
                if v != 0.0 {
                    upper.push((j as u32, v));
                }
            }
            upper_off.push(upper.len() as u32);
        }
        self.solve_index = Some(SolveIndex {
            lower,
            lower_off,
            upper,
            upper_off,
        });
    }

    /// Factors `a`, retrying once with a diagonal perturbation on breakdown.
    ///
    /// This is the first rung of the workspace recovery ladder: a pivot
    /// underflow triggers exactly one retry on `a + εI` with
    /// `ε = 1e-12 · max|a_ij|` (clamped to a tiny absolute floor so exact
    /// zero matrices still regularize). The returned [`FactorRecovery`]
    /// records whether the perturbation was needed and carries a cheap
    /// condition estimate so callers can decide whether to trust the result.
    ///
    /// # Errors
    ///
    /// Returns the underlying error if `a` is not square or if even the
    /// perturbed matrix fails to factor.
    pub fn new_recovering(a: &Matrix) -> Result<(Self, FactorRecovery), NumericError> {
        match Self::new(a) {
            Ok(lu) => {
                let condition_estimate = lu.condition_estimate();
                Ok((
                    lu,
                    FactorRecovery {
                        perturbed: false,
                        perturbation: 0.0,
                        condition_estimate,
                    },
                ))
            }
            Err(NumericError::SingularMatrix { .. }) => {
                let eps = 1e-12 * a.max_abs().max(1e-6);
                let mut regularized = a.clone();
                for i in 0..a.rows() {
                    regularized[(i, i)] += eps;
                }
                let lu = Self::new(&regularized)?;
                linvar_metrics::incr(linvar_metrics::Counter::LuFactorRecoveries);
                let condition_estimate = lu.condition_estimate();
                Ok((
                    lu,
                    FactorRecovery {
                        perturbed: true,
                        perturbation: eps,
                        condition_estimate,
                    },
                ))
            }
            Err(e) => Err(e),
        }
    }

    /// Cheap condition estimate: ratio of the largest to the smallest `|U|`
    /// diagonal magnitude. A crude bound, but enough to flag factorizations
    /// that survived pivoting yet sit close to singularity.
    pub fn condition_estimate(&self) -> f64 {
        let n = self.order();
        if n == 0 {
            return 1.0;
        }
        let mut umax: f64 = 0.0;
        let mut umin = f64::INFINITY;
        for i in 0..n {
            let d = self.lu[(i, i)].abs();
            umax = umax.max(d);
            umin = umin.min(d);
        }
        if umin > 0.0 {
            umax / umin
        } else {
            f64::INFINITY
        }
    }

    /// Matrix order.
    pub fn order(&self) -> usize {
        self.lu.rows()
    }

    /// Solves `A x = b`.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::DimensionMismatch`] if `b.len()` differs from
    /// the matrix order.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, NumericError> {
        let mut x = Vec::new();
        self.solve_into(b, &mut x)?;
        Ok(x)
    }

    /// Solves `A x = b` into `x` (fully overwritten; reuses `x`'s
    /// capacity). Bitwise identical to [`LuFactor::solve`] — same
    /// substitution order, no allocation once `x` has warmed up.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::DimensionMismatch`] if `b.len()` differs from
    /// the matrix order.
    pub fn solve_into(&self, b: &[f64], x: &mut Vec<f64>) -> Result<(), NumericError> {
        let _span = linvar_metrics::timer(linvar_metrics::Phase::LuSolve);
        let n = self.order();
        if b.len() != n {
            return Err(NumericError::DimensionMismatch {
                expected: format!("vector of length {n}"),
                found: format!("length {}", b.len()),
            });
        }
        // Apply permutation and forward-substitute L y = P b.
        x.clear();
        x.extend(self.perm.iter().map(|&pi| b[pi]));
        if let Some(ix) = &self.solve_index {
            // Indexed substitution: same ascending-column accumulation,
            // skipping only exact-zero factors (see [`SolveIndex`]).
            for i in 1..n {
                let mut acc = x[i];
                let (lo, hi) = (ix.lower_off[i] as usize, ix.lower_off[i + 1] as usize);
                for &(j, v) in &ix.lower[lo..hi] {
                    acc -= v * x[j as usize];
                }
                x[i] = acc;
            }
            for i in (0..n).rev() {
                let mut acc = x[i];
                let (lo, hi) = (ix.upper_off[i] as usize, ix.upper_off[i + 1] as usize);
                for &(j, v) in &ix.upper[lo..hi] {
                    acc -= v * x[j as usize];
                }
                x[i] = acc / self.lu[(i, i)];
            }
            return Ok(());
        }
        for i in 1..n {
            let mut acc = x[i];
            for j in 0..i {
                acc -= self.lu[(i, j)] * x[j];
            }
            x[i] = acc;
        }
        // Back-substitute U x = y.
        for i in (0..n).rev() {
            let mut acc = x[i];
            for j in (i + 1)..n {
                acc -= self.lu[(i, j)] * x[j];
            }
            x[i] = acc / self.lu[(i, i)];
        }
        Ok(())
    }

    /// Solves `A X = B` for a matrix right-hand side, column by column.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::DimensionMismatch`] if `b.rows()` differs from
    /// the matrix order.
    pub fn solve_mat(&self, b: &Matrix) -> Result<Matrix, NumericError> {
        let n = self.order();
        if b.rows() != n {
            return Err(NumericError::DimensionMismatch {
                expected: format!("{n} rows"),
                found: format!("{} rows", b.rows()),
            });
        }
        let mut x = Matrix::zeros(n, b.cols());
        let mut col = Vec::new();
        let mut sol = Vec::new();
        for j in 0..b.cols() {
            b.col_into(j, &mut col);
            self.solve_into(&col, &mut sol)?;
            x.set_col(j, &sol);
        }
        Ok(x)
    }

    /// Computes the inverse matrix.
    ///
    /// # Errors
    ///
    /// Propagates solve errors (which cannot occur for a successfully
    /// constructed factorization of the right shape).
    pub fn inverse(&self) -> Result<Matrix, NumericError> {
        self.solve_mat(&Matrix::identity(self.order()))
    }

    /// Determinant of the factored matrix.
    pub fn determinant(&self) -> f64 {
        let mut det = self.perm_sign;
        for i in 0..self.order() {
            det *= self.lu[(i, i)];
        }
        det
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vector::{norm2, sub};

    #[test]
    fn solve_2x2() {
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]);
        let lu = LuFactor::new(&a).unwrap();
        let x = lu.solve(&[3.0, 4.0]).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-14);
        assert!((x[1] - 1.0).abs() < 1e-14);
    }

    #[test]
    fn solve_needs_pivoting() {
        // Zero in the (0,0) position forces a row swap.
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let lu = LuFactor::new(&a).unwrap();
        let x = lu.solve(&[5.0, 7.0]).unwrap();
        assert!((x[0] - 7.0).abs() < 1e-14);
        assert!((x[1] - 5.0).abs() < 1e-14);
    }

    #[test]
    fn residual_is_small_for_random_system() {
        // Fixed pseudo-random matrix (LCG) so the test is deterministic.
        let n = 20;
        let mut state = 12345_u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        let a = Matrix::from_fn(n, n, |i, j| next() + if i == j { 4.0 } else { 0.0 });
        let b: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let lu = LuFactor::new(&a).unwrap();
        let x = lu.solve(&b).unwrap();
        let r = sub(&a.mul_vec(&x), &b);
        assert!(norm2(&r) < 1e-10 * norm2(&b).max(1.0));
    }

    #[test]
    fn singular_matrix_is_detected() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert!(matches!(
            LuFactor::new(&a),
            Err(NumericError::SingularMatrix { .. })
        ));
    }

    #[test]
    fn non_square_is_rejected() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(
            LuFactor::new(&a),
            Err(NumericError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn determinant_matches_known_value() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let lu = LuFactor::new(&a).unwrap();
        assert!((lu.determinant() + 2.0).abs() < 1e-14);
    }

    #[test]
    fn inverse_times_matrix_is_identity() {
        let a = Matrix::from_rows(&[&[4.0, 1.0, 0.0], &[1.0, 3.0, 1.0], &[0.0, 1.0, 2.0]]);
        let inv = LuFactor::new(&a).unwrap().inverse().unwrap();
        let prod = a.mul_mat(&inv);
        let err = (&prod - &Matrix::identity(3)).max_abs();
        assert!(err < 1e-13);
    }

    #[test]
    fn singular_error_carries_condition_estimate() {
        // Nearly-dependent rows: breakdown happens after a healthy pivot,
        // so a finite condition estimate must be attached.
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        match LuFactor::new(&a) {
            Err(NumericError::SingularMatrix { condition, .. }) => {
                assert!(condition.is_some(), "expected condition estimate");
            }
            other => panic!("expected singular error, got {other:?}"),
        }
    }

    #[test]
    fn recovering_factorization_perturbs_singular_systems() {
        // Clean matrix: no perturbation.
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]);
        let (lu, rec) = LuFactor::new_recovering(&a).unwrap();
        assert!(!rec.perturbed);
        assert_eq!(rec.perturbation, 0.0);
        assert!(rec.condition_estimate.is_finite());
        assert!(lu.solve(&[3.0, 4.0]).is_ok());

        // Exactly singular: one diagonal-perturbation retry succeeds and is
        // reported as such; the solution is finite (if inaccurate).
        let s = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        let (lu, rec) = LuFactor::new_recovering(&s).unwrap();
        assert!(rec.perturbed);
        assert!(rec.perturbation > 0.0);
        let x = lu.solve(&[1.0, 2.0]).unwrap();
        assert!(x.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn rhs_length_mismatch() {
        let a = Matrix::identity(3);
        let lu = LuFactor::new(&a).unwrap();
        assert!(lu.solve(&[1.0, 2.0]).is_err());
    }

    #[test]
    fn indexed_solves_are_bitwise_identical_to_dense() {
        // Ladder-sparse system of the kind the MNA simulators factor:
        // tridiagonal conductance chain plus a dense-ish corner row.
        let n = 24;
        let mut a = Matrix::zeros(n, n);
        for i in 0..n {
            a[(i, i)] = 2.5 + (i as f64) * 0.125;
            if i + 1 < n {
                a[(i, i + 1)] = -1.0 - (i as f64) * 0.01;
                a[(i + 1, i)] = -0.75;
            }
        }
        a[(0, n - 1)] = 0.5;
        a[(n - 1, 3)] = -0.25;
        let dense = LuFactor::new(&a).unwrap();
        let mut indexed = LuFactor::new(&a).unwrap();
        indexed.optimize_for_solves();
        for k in 0..4 {
            let b: Vec<f64> = (0..n)
                .map(|i| ((i * 7 + k * 13) % 11) as f64 - 5.0)
                .collect();
            let xd = dense.solve(&b).unwrap();
            let xi = indexed.solve(&b).unwrap();
            let (bd, bi): (Vec<u64>, Vec<u64>) = (
                xd.iter().map(|v| v.to_bits()).collect(),
                xi.iter().map(|v| v.to_bits()).collect(),
            );
            assert_eq!(bd, bi, "indexed solve drifted from dense for rhs {k}");
        }
    }

    #[test]
    fn solve_mat_is_bitwise_identical_to_per_column_solves() {
        let a = Matrix::from_rows(&[&[4.0, 1.0, -0.5], &[1.0, 3.0, 1.0], &[0.25, 1.0, 2.0]]);
        let b = Matrix::from_rows(&[&[1.0, 0.5], &[-2.0, 3.0], &[0.75, -1.25]]);
        let lu = LuFactor::new(&a).unwrap();
        let x = lu.solve_mat(&b).unwrap();
        let mut col = Vec::new();
        for j in 0..b.cols() {
            lu.solve_into(&b.col(j), &mut col).unwrap();
            let got: Vec<u64> = x.col(j).iter().map(|v| v.to_bits()).collect();
            let want: Vec<u64> = col.iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, want, "column {j}");
        }
    }
}
