//! Property-based tests of the numeric kernels on random inputs.

use linvar::numeric::{
    eigen_decompose, householder_qr, jacobi_eigen, LuFactor, Matrix, SparseMatrix,
};
use proptest::prelude::*;

/// `SparseMatrix::from_dense` as it walked the dense storage before, one
/// column at a time, kept as the reference: `(col_ptr, row_idx, values)`.
fn column_walk_csc(a: &Matrix) -> (Vec<usize>, Vec<usize>, Vec<f64>) {
    let mut col_ptr = vec![0];
    let (mut row_idx, mut values) = (Vec::new(), Vec::new());
    for j in 0..a.cols() {
        for i in 0..a.rows() {
            let v = a[(i, j)];
            if v != 0.0 {
                row_idx.push(i);
                values.push(v);
            }
        }
        col_ptr.push(row_idx.len());
    }
    (col_ptr, row_idx, values)
}

fn random_matrix(n: usize, seed: &[f64], diag_boost: f64) -> Matrix {
    Matrix::from_fn(n, n, |i, j| {
        let v = seed[(i * n + j) % seed.len()];
        v + if i == j { diag_boost } else { 0.0 }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// LU solve residual is tiny for diagonally dominant systems.
    #[test]
    fn lu_solve_residual(
        n in 2usize..25,
        seed in prop::collection::vec(-1.0f64..1.0, 64),
        rhs_seed in prop::collection::vec(-10.0f64..10.0, 32),
    ) {
        let a = random_matrix(n, &seed, 30.0);
        let b: Vec<f64> = (0..n).map(|i| rhs_seed[i % rhs_seed.len()]).collect();
        let x = LuFactor::new(&a).expect("dominant").solve(&b).expect("solves");
        let r = a.mul_vec(&x);
        for i in 0..n {
            prop_assert!((r[i] - b[i]).abs() < 1e-9 * (1.0 + b[i].abs()));
        }
    }

    /// det(A) from LU changes sign when two rows are swapped.
    #[test]
    fn determinant_antisymmetry(
        seed in prop::collection::vec(-1.0f64..1.0, 16),
    ) {
        let n = 4;
        let a = random_matrix(n, &seed, 5.0);
        let det_a = LuFactor::new(&a).expect("factors").determinant();
        let mut swapped = Matrix::zeros(n, n);
        for j in 0..n {
            swapped[(0, j)] = a[(1, j)];
            swapped[(1, j)] = a[(0, j)];
            for i in 2..n {
                swapped[(i, j)] = a[(i, j)];
            }
        }
        let det_s = LuFactor::new(&swapped).expect("factors").determinant();
        prop_assert!((det_a + det_s).abs() < 1e-9 * det_a.abs().max(1e-12));
    }

    /// QR: Q orthonormal and QR = A.
    #[test]
    fn qr_reconstruction(
        m in 3usize..12,
        extra in 0usize..4,
        seed in prop::collection::vec(-2.0f64..2.0, 48),
    ) {
        let rows = m + extra;
        let a = Matrix::from_fn(rows, m, |i, j| {
            seed[(i * m + j) % seed.len()] + if i == j { 3.0 } else { 0.0 }
        });
        let qr = householder_qr(&a).expect("factors");
        let qtq = qr.q().transpose().mul_mat(qr.q());
        prop_assert!((&qtq - &Matrix::identity(m)).max_abs() < 1e-10);
        let rec = qr.q().mul_mat(qr.r());
        prop_assert!((&rec - &a).max_abs() < 1e-10 * a.max_abs().max(1.0));
    }

    /// Symmetric Jacobi: eigenvalue equation and trace preservation.
    #[test]
    fn jacobi_invariants(
        n in 2usize..10,
        seed in prop::collection::vec(-3.0f64..3.0, 32),
    ) {
        let mut a = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let v = seed[(i * n + j) % seed.len()];
                a[(i, j)] = v;
                a[(j, i)] = v;
            }
        }
        let eig = jacobi_eigen(&a).expect("symmetric");
        let trace: f64 = (0..n).map(|i| a[(i, i)]).sum();
        let sum: f64 = eig.values.iter().sum();
        prop_assert!((trace - sum).abs() < 1e-9 * trace.abs().max(1.0));
        for k in 0..n {
            let v = eig.vectors.col(k);
            let av = a.mul_vec(&v);
            for i in 0..n {
                prop_assert!(
                    (av[i] - eig.values[k] * v[i]).abs() < 1e-8 * a.max_abs().max(1.0)
                );
            }
        }
    }

    /// General eigensolver: conjugate symmetry and residual on random
    /// real matrices.
    #[test]
    fn eigen_residual_and_conjugacy(
        n in 2usize..10,
        seed in prop::collection::vec(-2.0f64..2.0, 64),
    ) {
        let a = random_matrix(n, &seed, 0.0);
        let dec = eigen_decompose(&a).expect("decomposes");
        prop_assert!(dec.max_residual(&a) < 1e-6 * a.max_abs().max(1.0));
        // Real matrix: imaginary parts cancel pairwise.
        let sum_im: f64 = dec.values.iter().map(|v| v.im).sum();
        prop_assert!(sum_im.abs() < 1e-7 * a.max_abs().max(1.0));
        // Eigenvalue sum equals the trace.
        let trace: f64 = (0..n).map(|i| a[(i, i)]).sum();
        let sum_re: f64 = dec.values.iter().map(|v| v.re).sum();
        prop_assert!((sum_re - trace).abs() < 1e-7 * a.max_abs().max(1.0) * n as f64);
    }

    /// The row-order `from_dense` builds the CSC of the column walk, bit
    /// for bit, on rectangular (and empty) matrices whose entries include
    /// exact zeros, `-0.0` and NaN.
    #[test]
    fn from_dense_matches_the_column_walk(
        rows in 0usize..12,
        cols in 0usize..12,
        kinds in prop::collection::vec(0u32..6, 144),
        vals in prop::collection::vec(-1.0f64..1.0, 144),
    ) {
        let a = Matrix::from_fn(rows, cols, |i, j| {
            let k = i * cols + j;
            match kinds[k] {
                0 | 1 => 0.0,
                2 => -0.0,
                3 => f64::NAN,
                _ => vals[k],
            }
        });
        let s = SparseMatrix::from_dense(&a);
        let (col_ptr, row_idx, values) = column_walk_csc(&a);
        prop_assert_eq!(s.col_ptr(), col_ptr.as_slice());
        prop_assert_eq!(s.row_indices(), row_idx.as_slice());
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(s.values()), bits(&values));
    }
}
