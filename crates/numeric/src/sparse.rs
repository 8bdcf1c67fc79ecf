//! Compressed-sparse-column matrices assembled from circuit stamps.
//!
//! MNA matrices of large interconnect structures (long RC chains, clock
//! trees) are overwhelmingly sparse: a node couples only to its few
//! electrical neighbours, so the dense `Matrix` representation wastes
//! O(n²) memory and — worse — forces O(n²)–O(n³) factorization work on
//! systems whose true fill is O(n). [`SparseMatrix`] stores such systems
//! in compressed-sparse-column (CSC) form and is the input type of the
//! sparse LU backend in [`crate::sparse_lu`].
//!
//! # Assembly contract
//!
//! [`SparseMatrix::from_triplets`] consumes `(row, col, value)` stamps in
//! the order the stamping code emitted them and **sums duplicates in that
//! emission order**. This mirrors how the dense path accumulates stamps
//! with `+=` into a zeroed matrix, so for any entry the summation order —
//! and therefore the rounded f64 value — is identical between the dense
//! and sparse assemblies of the same stamp stream.

use crate::error::NumericError;
use crate::matrix::Matrix;

/// A real matrix in compressed-sparse-column (CSC) storage.
///
/// Within each column the stored row indices are strictly ascending and
/// duplicate-free; structural zeros may be stored explicitly (a stamp
/// stream can legitimately sum to `0.0`).
#[derive(Debug, Clone, PartialEq)]
pub struct SparseMatrix {
    n_rows: usize,
    n_cols: usize,
    /// `col_ptr[j]..col_ptr[j+1]` indexes column `j`'s entries.
    col_ptr: Vec<usize>,
    /// Row index of each entry, ascending within a column.
    row_idx: Vec<usize>,
    /// Value of each entry.
    values: Vec<f64>,
}

impl SparseMatrix {
    /// Builds a CSC matrix from `(row, col, value)` triplets.
    ///
    /// Duplicate `(row, col)` entries are summed **in triplet order**, so
    /// the accumulated value is bitwise identical to stamping the same
    /// stream into a zeroed dense matrix with `+=`.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::InvalidInput`] if any triplet indexes out
    /// of range.
    pub fn from_triplets(
        n_rows: usize,
        n_cols: usize,
        triplets: &[(usize, usize, f64)],
    ) -> Result<Self, NumericError> {
        for &(r, c, _) in triplets {
            if r >= n_rows || c >= n_cols {
                return Err(NumericError::InvalidInput(format!(
                    "triplet ({r}, {c}) out of range for {n_rows}x{n_cols} matrix"
                )));
            }
        }
        // Bucket triplets by column, preserving emission order within
        // each column (counting sort is stable).
        let mut counts = vec![0usize; n_cols + 1];
        for &(_, c, _) in triplets {
            counts[c + 1] += 1;
        }
        for j in 0..n_cols {
            counts[j + 1] += counts[j];
        }
        let mut next = counts.clone();
        let mut rows = vec![0usize; triplets.len()];
        let mut seqs = vec![0usize; triplets.len()];
        let mut vals = vec![0.0f64; triplets.len()];
        for (seq, &(r, c, v)) in triplets.iter().enumerate() {
            let slot = next[c];
            next[c] += 1;
            rows[slot] = r;
            seqs[slot] = seq;
            vals[slot] = v;
        }
        // Per column: order by (row, emission sequence), then fold
        // duplicates left-to-right so summation follows emission order.
        let mut col_ptr = Vec::with_capacity(n_cols + 1);
        let mut out_rows = Vec::with_capacity(triplets.len());
        let mut out_vals = Vec::with_capacity(triplets.len());
        col_ptr.push(0);
        let mut scratch: Vec<(usize, usize, f64)> = Vec::new();
        for j in 0..n_cols {
            scratch.clear();
            for k in counts[j]..counts[j + 1] {
                scratch.push((rows[k], seqs[k], vals[k]));
            }
            scratch.sort_unstable_by_key(|&(r, s, _)| (r, s));
            for &(r, _, v) in scratch.iter() {
                if out_rows.last() == Some(&r) && out_rows.len() > *col_ptr.last().expect("pushed")
                {
                    let last = out_vals.len() - 1;
                    out_vals[last] += v;
                } else {
                    out_rows.push(r);
                    out_vals.push(v);
                }
            }
            col_ptr.push(out_rows.len());
        }
        Ok(SparseMatrix {
            n_rows,
            n_cols,
            col_ptr,
            row_idx: out_rows,
            values: out_vals,
        })
    }

    /// Builds exactly the CSC matrix [`SparseMatrix::from_dense`] builds
    /// from the `+=` replay of `triplets` into a zeroed dense matrix:
    /// duplicates are summed in triplet order as in
    /// [`SparseMatrix::from_triplets`], and positions whose stamps sum to
    /// exactly `0.0` (e.g. a resistor with both ends on one node) are
    /// dropped.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::InvalidInput`] if any triplet indexes out
    /// of range.
    pub fn from_stamps(
        n_rows: usize,
        n_cols: usize,
        triplets: &[(usize, usize, f64)],
    ) -> Result<Self, NumericError> {
        let mut a = SparseMatrix::from_triplets(n_rows, n_cols, triplets)?;
        let mut kept = 0;
        let mut lo = 0;
        for j in 0..a.n_cols {
            let hi = a.col_ptr[j + 1];
            for k in lo..hi {
                if a.values[k] != 0.0 {
                    a.row_idx[kept] = a.row_idx[k];
                    a.values[kept] = a.values[k];
                    kept += 1;
                }
            }
            a.col_ptr[j + 1] = kept;
            lo = hi;
        }
        a.row_idx.truncate(kept);
        a.values.truncate(kept);
        Ok(a)
    }

    /// Converts a dense matrix, keeping only its nonzero entries.
    ///
    /// Walks the row-major storage in order, once to count each column's
    /// entries and once to place them (a counting sort), so the rows of
    /// every column come out ascending.
    pub fn from_dense(a: &Matrix) -> Self {
        let (n_rows, n_cols) = (a.rows(), a.cols());
        let mut col_ptr = vec![0usize; n_cols + 1];
        for i in 0..n_rows {
            for (j, &v) in a.row(i).iter().enumerate() {
                if v != 0.0 {
                    col_ptr[j + 1] += 1;
                }
            }
        }
        for j in 0..n_cols {
            col_ptr[j + 1] += col_ptr[j];
        }
        let nnz = col_ptr[n_cols];
        let mut next = col_ptr[..n_cols].to_vec();
        let mut row_idx = vec![0usize; nnz];
        let mut values = vec![0.0f64; nnz];
        for i in 0..n_rows {
            for (j, &v) in a.row(i).iter().enumerate() {
                if v != 0.0 {
                    row_idx[next[j]] = i;
                    values[next[j]] = v;
                    next[j] += 1;
                }
            }
        }
        SparseMatrix {
            n_rows,
            n_cols,
            col_ptr,
            row_idx,
            values,
        }
    }

    /// Expands to a dense matrix (tests and small-system fallbacks).
    pub fn to_dense(&self) -> Matrix {
        let mut a = Matrix::zeros(self.n_rows, self.n_cols);
        for j in 0..self.n_cols {
            let (rows, vals) = self.col(j);
            for (&i, &v) in rows.iter().zip(vals) {
                a[(i, j)] += v;
            }
        }
        a
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of columns.
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// `true` if the matrix is square.
    pub fn is_square(&self) -> bool {
        self.n_rows == self.n_cols
    }

    /// Number of stored entries (explicit zeros included).
    pub fn nnz(&self) -> usize {
        self.row_idx.len()
    }

    /// Fraction of stored entries over the full `rows × cols` grid.
    pub fn density(&self) -> f64 {
        let cells = self.n_rows as f64 * self.n_cols as f64;
        if cells > 0.0 {
            self.nnz() as f64 / cells
        } else {
            0.0
        }
    }

    /// Column `j` as parallel `(row_indices, values)` slices.
    pub fn col(&self, j: usize) -> (&[usize], &[f64]) {
        let (lo, hi) = (self.col_ptr[j], self.col_ptr[j + 1]);
        (&self.row_idx[lo..hi], &self.values[lo..hi])
    }

    /// Entry `(i, j)`, `0.0` when not stored. O(log nnz_col) lookup.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        let (rows, vals) = self.col(j);
        match rows.binary_search(&i) {
            Ok(k) => vals[k],
            Err(_) => 0.0,
        }
    }

    /// The column-pointer array (length `n_cols + 1`).
    pub fn col_ptr(&self) -> &[usize] {
        &self.col_ptr
    }

    /// The row-index array, columns concatenated.
    pub fn row_indices(&self) -> &[usize] {
        &self.row_idx
    }

    /// The value array, parallel to [`SparseMatrix::row_indices`].
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Largest entry magnitude (`0.0` for an empty matrix).
    pub fn max_abs(&self) -> f64 {
        self.values.iter().fold(0.0f64, |m, v| m.max(v.abs()))
    }

    /// `self + eps·I`, extending the pattern with any missing diagonal
    /// entries. Used by the diagonal-perturbation recovery ladder; for
    /// entries already present the accumulation order (`value + eps`)
    /// matches the dense ladder's `a[(i,i)] += eps`.
    pub fn add_diagonal(&self, eps: f64) -> SparseMatrix {
        let n = self.n_rows.min(self.n_cols);
        let mut triplets = Vec::with_capacity(self.nnz() + n);
        for j in 0..self.n_cols {
            let (rows, vals) = self.col(j);
            for (&i, &v) in rows.iter().zip(vals) {
                triplets.push((i, j, v));
            }
        }
        for i in 0..n {
            triplets.push((i, i, eps));
        }
        SparseMatrix::from_triplets(self.n_rows, self.n_cols, &triplets)
            .expect("indices come from a valid matrix")
    }

    /// `A·x`, accumulated column-major (deterministic order).
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::DimensionMismatch`] if `x.len() != n_cols`.
    pub fn mul_vec(&self, x: &[f64]) -> Result<Vec<f64>, NumericError> {
        if x.len() != self.n_cols {
            return Err(NumericError::DimensionMismatch {
                expected: format!("vector of length {}", self.n_cols),
                found: format!("length {}", x.len()),
            });
        }
        let mut y = vec![0.0; self.n_rows];
        for j in 0..self.n_cols {
            let xj = x[j];
            let (rows, vals) = self.col(j);
            for (&i, &v) in rows.iter().zip(vals) {
                y[i] += v * xj;
            }
        }
        Ok(y)
    }

    /// `A·X` for a dense `X`, bit-identical to [`Matrix::mul_mat`] on the
    /// dense form of `A`: each entry sums `a_ik·x_kj` over ascending `k`
    /// from `+0.0`, skipping every `a_ik` that is zero, stored or not.
    ///
    /// # Panics
    ///
    /// Panics if `x.rows() != n_cols`.
    pub fn mul_mat(&self, x: &Matrix) -> Matrix {
        assert_eq!(
            self.n_cols,
            x.rows(),
            "matmul dimension mismatch: {}x{} * {}x{}",
            self.n_rows,
            self.n_cols,
            x.rows(),
            x.cols()
        );
        let q = x.cols();
        let mut out = Matrix::zeros(self.n_rows, q);
        let dst = out.as_mut_slice();
        for k in 0..self.n_cols {
            let xk = x.row(k);
            let (rows, vals) = self.col(k);
            for (&i, &a) in rows.iter().zip(vals) {
                if a == 0.0 {
                    continue;
                }
                for (o, &xkj) in dst[i * q..(i + 1) * q].iter_mut().zip(xk) {
                    *o += a * xkj;
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triplets_assemble_and_sum_duplicates_in_order() {
        // The same (0,0) cell stamped three times must accumulate exactly
        // like `+=` into a dense zero matrix.
        let t = [
            (0, 0, 1e16),
            (1, 1, 2.0),
            (0, 0, 1.0),
            (0, 1, -3.0),
            (0, 0, -1e16),
        ];
        let a = SparseMatrix::from_triplets(2, 2, &t).unwrap();
        let mut dense = Matrix::zeros(2, 2);
        for &(i, j, v) in &t {
            dense[(i, j)] += v;
        }
        assert_eq!(a.get(0, 0).to_bits(), dense[(0, 0)].to_bits());
        assert_eq!(a.get(0, 1), -3.0);
        assert_eq!(a.get(1, 0), 0.0);
        assert_eq!(a.nnz(), 3);
    }

    #[test]
    fn row_indices_sorted_within_columns() {
        let t = [(3, 0, 1.0), (0, 0, 2.0), (2, 0, 3.0), (1, 1, 4.0)];
        let a = SparseMatrix::from_triplets(4, 2, &t).unwrap();
        let (rows, _) = a.col(0);
        assert_eq!(rows, &[0, 2, 3]);
    }

    #[test]
    fn out_of_range_triplet_rejected() {
        assert!(matches!(
            SparseMatrix::from_triplets(2, 2, &[(2, 0, 1.0)]),
            Err(NumericError::InvalidInput(_))
        ));
        assert!(matches!(
            SparseMatrix::from_triplets(2, 2, &[(0, 5, 1.0)]),
            Err(NumericError::InvalidInput(_))
        ));
    }

    #[test]
    fn from_stamps_matches_from_dense_of_the_replay() {
        // (0,1) sums to exactly zero and (1,1) is a lone -0.0: both vanish
        // from the dense replay, so neither may be stored.
        let t = [
            (0, 0, 1.0),
            (0, 1, 0.5),
            (1, 0, -2.0),
            (0, 1, -0.5),
            (1, 1, -0.0),
            (2, 2, 3.0),
        ];
        let mut dense = Matrix::zeros(3, 3);
        for &(i, j, v) in &t {
            dense[(i, j)] += v;
        }
        let a = SparseMatrix::from_stamps(3, 3, &t).unwrap();
        assert_eq!(a, SparseMatrix::from_dense(&dense));
        assert_eq!(a.nnz(), 3);
        assert_eq!(SparseMatrix::from_triplets(3, 3, &t).unwrap().nnz(), 5);
        assert!(SparseMatrix::from_stamps(3, 3, &[(3, 0, 1.0)]).is_err());
    }

    #[test]
    fn dense_roundtrip() {
        let d = Matrix::from_rows(&[&[1.0, 0.0, 2.0], &[0.0, 0.0, 3.0], &[4.0, 5.0, 0.0]]);
        let s = SparseMatrix::from_dense(&d);
        assert_eq!(s.nnz(), 5);
        let back = s.to_dense();
        assert_eq!(back.as_slice(), d.as_slice());
    }

    #[test]
    fn mul_vec_matches_dense() {
        let d = Matrix::from_rows(&[&[2.0, -1.0, 0.0], &[-1.0, 2.0, -1.0], &[0.0, -1.0, 2.0]]);
        let s = SparseMatrix::from_dense(&d);
        let x = [1.0, 2.0, 3.0];
        let want = d.mul_vec(&x);
        let got = s.mul_vec(&x).unwrap();
        assert_eq!(got, want);
        assert!(s.mul_vec(&[1.0]).is_err());
    }

    #[test]
    fn mul_mat_matches_dense_bits() {
        // A stored zero and a sum whose order matters (1e16 + 1 - 1e16).
        let t = [(0, 0, 1e16), (0, 1, 1.0), (0, 2, -1e16), (1, 1, 0.0)];
        let a = SparseMatrix::from_triplets(2, 3, &t).unwrap();
        let x = Matrix::from_rows(&[&[1.0, 2.0], &[1.0, f64::INFINITY], &[1.0, -3.0]]);
        let got = a.mul_mat(&x);
        let want = a.to_dense().mul_mat(&x);
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got), bits(&want));
        assert!(
            got[(1, 1)] == 0.0,
            "a skipped stored zero does not meet the infinity"
        );
    }

    #[test]
    fn add_diagonal_extends_pattern() {
        // (1,1) missing from the pattern: add_diagonal must create it.
        let t = [(0, 0, 2.0), (1, 0, 1.0)];
        let a = SparseMatrix::from_triplets(2, 2, &t).unwrap();
        let b = a.add_diagonal(0.5);
        assert_eq!(b.get(0, 0), 2.5);
        assert_eq!(b.get(1, 1), 0.5);
        assert_eq!(b.get(1, 0), 1.0);
    }

    #[test]
    fn density_and_shape() {
        let a = SparseMatrix::from_triplets(4, 4, &[(0, 0, 1.0), (3, 3, 1.0)]).unwrap();
        assert!(a.is_square());
        assert_eq!(a.n_rows(), 4);
        assert!((a.density() - 2.0 / 16.0).abs() < 1e-15);
    }
}
