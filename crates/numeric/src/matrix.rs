//! Dense, row-major, `f64` matrix.

use crate::error::NumericError;
use std::fmt;
use std::ops::{Add, AddAssign, Index, IndexMut, Mul, Neg, Sub, SubAssign};

/// A dense, row-major matrix of `f64` values.
///
/// `Matrix` is the workhorse container of the workspace: MNA admittance and
/// susceptance matrices, Krylov bases, reduced-order model blocks, and sample
/// covariance matrices are all stored in this type.
///
/// # Example
///
/// ```
/// use linvar_numeric::Matrix;
///
/// let a = Matrix::identity(3);
/// let b = &a * 2.0;
/// assert_eq!(b[(1, 1)], 2.0);
/// ```
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    ///
    /// # Panics
    ///
    /// Panics if `rows * cols` overflows `usize`.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows.checked_mul(cols).expect("matrix size overflow")],
        }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have inconsistent lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "inconsistent row lengths");
            data.extend_from_slice(row);
        }
        Matrix {
            rows: r,
            cols: c,
            data,
        }
    }

    /// Creates a matrix from a closure evaluated at every `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = Matrix::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m[(i, j)] = f(i, j);
            }
        }
        m
    }

    /// Creates a square diagonal matrix from the given diagonal entries.
    pub fn from_diagonal(diag: &[f64]) -> Self {
        let n = diag.len();
        let mut m = Matrix::zeros(n, n);
        for (i, &d) in diag.iter().enumerate() {
            m[(i, i)] = d;
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Returns `true` if the matrix is square.
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Returns a view of the underlying row-major data.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Returns a mutable view of the underlying row-major data.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Returns row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rows()`.
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.rows, "row index {i} out of bounds");
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Returns column `j` as an owned vector.
    pub fn col(&self, j: usize) -> Vec<f64> {
        assert!(j < self.cols, "column index {j} out of bounds");
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// Overwrites column `j` with `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.rows()`.
    pub fn set_col(&mut self, j: usize, v: &[f64]) {
        assert_eq!(v.len(), self.rows, "column length mismatch");
        for (i, &x) in v.iter().enumerate() {
            self[(i, j)] = x;
        }
    }

    /// Writes column `j` into `out` (cleared first) without allocating
    /// beyond `out`'s capacity.
    pub fn col_into(&self, j: usize, out: &mut Vec<f64>) {
        assert!(j < self.cols, "column index {j} out of bounds");
        out.clear();
        out.extend((0..self.rows).map(|i| self[(i, j)]));
    }

    /// Overwrites `self` with `other`'s contents, reusing `self`'s
    /// storage. The allocation-free analog of `*self = other.clone()`.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn copy_from(&mut self, other: &Matrix) {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "copy_from shape mismatch"
        );
        self.data.copy_from_slice(&other.data);
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Matrix-vector product `self * x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()`.
    pub fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "matvec dimension mismatch");
        let mut y = vec![0.0; self.rows];
        for i in 0..self.rows {
            let row = self.row(i);
            let mut acc = 0.0;
            for (a, b) in row.iter().zip(x.iter()) {
                acc += a * b;
            }
            y[i] = acc;
        }
        y
    }

    /// Matrix-vector product `self * x` written into `y` (fully
    /// overwritten; resized if needed). Identical arithmetic — same
    /// per-row accumulation order — as [`Matrix::mul_vec`], so results
    /// are bitwise equal; only the allocation is gone.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()`.
    pub fn mul_vec_into(&self, x: &[f64], y: &mut Vec<f64>) {
        assert_eq!(x.len(), self.cols, "matvec dimension mismatch");
        y.clear();
        y.extend((0..self.rows).map(|i| {
            let mut acc = 0.0;
            for (a, b) in self.row(i).iter().zip(x.iter()) {
                acc += a * b;
            }
            acc
        }));
    }

    /// Transposed matrix-vector product `selfᵀ * x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.rows()`.
    pub fn mul_vec_transposed(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.rows, "matvec dimension mismatch");
        let mut y = vec![0.0; self.cols];
        for i in 0..self.rows {
            let xi = x[i];
            for j in 0..self.cols {
                y[j] += self[(i, j)] * xi;
            }
        }
        y
    }

    /// Matrix product `self * other`.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.rows()`.
    pub fn mul_mat(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.rows,
            "matmul dimension mismatch: {}x{} * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let aik = self[(i, k)];
                if aik == 0.0 {
                    continue;
                }
                for j in 0..other.cols {
                    out[(i, j)] += aik * other[(k, j)];
                }
            }
        }
        out
    }

    /// Computes the congruence transform `xᵀ * self * x`.
    ///
    /// This is the core operation of projection-based model order reduction.
    ///
    /// # Panics
    ///
    /// Panics if `x.rows() != self.cols()` or `self` is not square.
    pub fn congruence(&self, x: &Matrix) -> Matrix {
        assert!(self.is_square(), "congruence requires a square matrix");
        assert_eq!(x.rows(), self.cols, "congruence dimension mismatch");
        x.transpose().mul_mat(&self.mul_mat(x))
    }

    /// Extracts the sub-matrix with rows in `[r0, r1)` and columns in `[c0, c1)`.
    ///
    /// # Panics
    ///
    /// Panics if the ranges are out of bounds or reversed.
    pub fn submatrix(&self, r0: usize, r1: usize, c0: usize, c1: usize) -> Matrix {
        assert!(r0 <= r1 && r1 <= self.rows, "row range out of bounds");
        assert!(c0 <= c1 && c1 <= self.cols, "column range out of bounds");
        Matrix::from_fn(r1 - r0, c1 - c0, |i, j| self[(r0 + i, c0 + j)])
    }

    /// Writes `block` into `self` with its top-left corner at `(r0, c0)`.
    ///
    /// # Panics
    ///
    /// Panics if the block does not fit.
    pub fn set_block(&mut self, r0: usize, c0: usize, block: &Matrix) {
        assert!(r0 + block.rows <= self.rows, "block rows out of bounds");
        assert!(c0 + block.cols <= self.cols, "block cols out of bounds");
        for i in 0..block.rows {
            for j in 0..block.cols {
                self[(r0 + i, c0 + j)] = block[(i, j)];
            }
        }
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Maximum absolute entry (∞-norm of the vectorized matrix).
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |m, x| m.max(x.abs()))
    }

    /// Returns `true` if `self` is symmetric within `tol` (absolute).
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if !self.is_square() {
            return false;
        }
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                if (self[(i, j)] - self[(j, i)]).abs() > tol {
                    return false;
                }
            }
        }
        true
    }

    /// Scales the matrix in place by `s`.
    pub fn scale_mut(&mut self, s: f64) {
        for x in &mut self.data {
            *x *= s;
        }
    }

    /// `self += s * other` (AXPY on matrices).
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::DimensionMismatch`] if the shapes differ.
    pub fn axpy(&mut self, s: f64, other: &Matrix) -> Result<(), NumericError> {
        if self.rows != other.rows || self.cols != other.cols {
            return Err(NumericError::DimensionMismatch {
                expected: format!("{}x{}", self.rows, self.cols),
                found: format!("{}x{}", other.rows, other.cols),
            });
        }
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += s * b;
        }
        Ok(())
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols, "index out of bounds");
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols, "index out of bounds");
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows.min(12) {
            write!(f, "  ")?;
            for j in 0..self.cols.min(12) {
                write!(f, "{:>12.4e} ", self[(i, j)])?;
            }
            writeln!(f, "{}", if self.cols > 12 { "..." } else { "" })?;
        }
        if self.rows > 12 {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

impl Add<&Matrix> for &Matrix {
    type Output = Matrix;

    fn add(self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "add shape mismatch"
        );
        let mut out = self.clone();
        out.axpy(1.0, rhs).expect("shapes already checked");
        out
    }
}

impl Sub<&Matrix> for &Matrix {
    type Output = Matrix;

    fn sub(self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "sub shape mismatch"
        );
        let mut out = self.clone();
        out.axpy(-1.0, rhs).expect("shapes already checked");
        out
    }
}

impl Mul<f64> for &Matrix {
    type Output = Matrix;

    fn mul(self, s: f64) -> Matrix {
        let mut out = self.clone();
        out.scale_mut(s);
        out
    }
}

impl Mul<&Matrix> for &Matrix {
    type Output = Matrix;

    fn mul(self, rhs: &Matrix) -> Matrix {
        self.mul_mat(rhs)
    }
}

impl Neg for &Matrix {
    type Output = Matrix;

    fn neg(self) -> Matrix {
        self * -1.0
    }
}

impl AddAssign<&Matrix> for Matrix {
    fn add_assign(&mut self, rhs: &Matrix) {
        self.axpy(1.0, rhs).expect("add-assign shape mismatch");
    }
}

impl SubAssign<&Matrix> for Matrix {
    fn sub_assign(&mut self, rhs: &Matrix) {
        self.axpy(-1.0, rhs).expect("sub-assign shape mismatch");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_identity() {
        let z = Matrix::zeros(2, 3);
        assert_eq!(z.rows(), 2);
        assert_eq!(z.cols(), 3);
        assert!(z.as_slice().iter().all(|&x| x == 0.0));

        let i = Matrix::identity(3);
        assert_eq!(i[(0, 0)], 1.0);
        assert_eq!(i[(0, 1)], 0.0);
        assert!(i.is_symmetric(0.0));
    }

    #[test]
    fn from_rows_and_indexing() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(m[(0, 1)], 2.0);
        assert_eq!(m[(1, 0)], 3.0);
        assert_eq!(m.row(1), &[3.0, 4.0]);
        assert_eq!(m.col(0), vec![1.0, 3.0]);
    }

    #[test]
    fn transpose_involution() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let t = m.transpose();
        assert_eq!(t.rows(), 3);
        assert_eq!(t[(2, 1)], 6.0);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn matvec_and_matmul() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let y = a.mul_vec(&[1.0, 1.0]);
        assert_eq!(y, vec![3.0, 7.0]);

        let b = Matrix::identity(2);
        assert_eq!(a.mul_mat(&b), a);

        let yt = a.mul_vec_transposed(&[1.0, 1.0]);
        assert_eq!(yt, vec![4.0, 6.0]);
    }

    #[test]
    fn congruence_preserves_symmetry() {
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]);
        let x = Matrix::from_rows(&[&[1.0], &[1.0]]);
        let r = a.congruence(&x);
        assert_eq!(r.rows(), 1);
        assert!((r[(0, 0)] - 7.0).abs() < 1e-14);
    }

    #[test]
    fn submatrix_and_set_block() {
        let m = Matrix::from_fn(4, 4, |i, j| (i * 4 + j) as f64);
        let s = m.submatrix(1, 3, 2, 4);
        assert_eq!(s[(0, 0)], 6.0);
        assert_eq!(s[(1, 1)], 11.0);

        let mut z = Matrix::zeros(4, 4);
        z.set_block(2, 2, &s);
        assert_eq!(z[(2, 2)], 6.0);
        assert_eq!(z[(3, 3)], 11.0);
    }

    #[test]
    fn arithmetic_operators() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::identity(2);
        let c = &a + &b;
        assert_eq!(c[(0, 0)], 2.0);
        let d = &c - &b;
        assert_eq!(d, a);
        let e = &a * 2.0;
        assert_eq!(e[(1, 1)], 8.0);
        let n = -&a;
        assert_eq!(n[(0, 0)], -1.0);
    }

    #[test]
    fn axpy_shape_mismatch_is_error() {
        let mut a = Matrix::zeros(2, 2);
        let b = Matrix::zeros(3, 2);
        assert!(a.axpy(1.0, &b).is_err());
    }

    #[test]
    fn norms() {
        let a = Matrix::from_rows(&[&[3.0, 0.0], &[0.0, -4.0]]);
        assert!((a.frobenius_norm() - 5.0).abs() < 1e-14);
        assert_eq!(a.max_abs(), 4.0);
    }

    #[test]
    fn diagonal_constructor() {
        let d = Matrix::from_diagonal(&[1.0, 2.0, 3.0]);
        assert_eq!(d[(1, 1)], 2.0);
        assert_eq!(d[(0, 1)], 0.0);
    }

    #[test]
    fn debug_is_nonempty() {
        let m = Matrix::identity(2);
        assert!(!format!("{m:?}").is_empty());
    }

    #[test]
    fn mul_vec_into_matches_mul_vec_bitwise() {
        let a = Matrix::from_rows(&[&[1.5, -2.25, 0.1], &[0.0, 3.0, -7.5]]);
        let x = [0.3, -1.7, 2.9];
        let mut y = vec![9.0; 5]; // stale contents and wrong length
        a.mul_vec_into(&x, &mut y);
        let reference = a.mul_vec(&x);
        assert_eq!(y.len(), reference.len());
        for (got, want) in y.iter().zip(&reference) {
            assert_eq!(got.to_bits(), want.to_bits());
        }
    }

    #[test]
    fn copy_from_and_col_into_reuse_storage() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let mut b = Matrix::zeros(2, 2);
        b.copy_from(&a);
        assert_eq!(b.as_slice(), a.as_slice());
        let mut c = vec![0.0; 7];
        a.col_into(1, &mut c);
        assert_eq!(c, vec![2.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "copy_from shape mismatch")]
    fn copy_from_rejects_shape_mismatch() {
        let mut b = Matrix::zeros(2, 3);
        b.copy_from(&Matrix::zeros(3, 2));
    }
}
