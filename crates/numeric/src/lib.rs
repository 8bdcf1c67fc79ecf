//! Dense numerical linear algebra kernel for the `linvar` workspace.
//!
//! The linear-centric simulation framework needs a small but complete set of
//! dense kernels: real/complex LU factorization, Householder QR and modified
//! Gram-Schmidt (for the block-Arnoldi PRIMA iteration), a general real
//! eigensolver (Hessenberg reduction + Francis double-shift QR +
//! inverse-iteration eigenvectors, used for pole/residue extraction), and a
//! symmetric Jacobi eigensolver (used by PACT and by PCA).
//!
//! Two linear-solver backends live here. The *dense* kernels serve the
//! reduced-order model matrices (order 4–40) and the small paper circuits,
//! where a straightforward well-tested dense implementation is the right
//! tool. For the large benchmark interconnect nets (tens of thousands of
//! unknowns, a handful of nonzeros per row) there is a *sparse* backend: a
//! compressed-sparse-column [`SparseMatrix`] assembled directly from circuit
//! stamps and a [`SparseLu`] factorization with a symbolic/numeric phase
//! split, so per-sample refactors reuse the elimination pattern. The
//! [`LinearSolver`] trait and [`AnySolver`] wrapper select between them at
//! runtime by matrix order, or as pinned per call by [`SolverChoice`].
//!
//! # Example
//!
//! ```
//! use linvar_numeric::{Matrix, LuFactor};
//!
//! # fn main() -> Result<(), linvar_numeric::NumericError> {
//! let a = Matrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]]);
//! let lu = LuFactor::new(&a)?;
//! let x = lu.solve(&[1.0, 2.0])?;
//! assert!((4.0 * x[0] + x[1] - 1.0).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

// Dense matrix kernels index rows/columns explicitly; iterator
// adaptors would obscure the classic algorithm shapes.
#![allow(clippy::needless_range_loop)]
// The Monte-Carlo hot path must not clone what a borrow (or a
// workspace buffer) can serve; keep the lint a hard error here.
#![deny(clippy::redundant_clone)]

pub mod cmatrix;
pub mod complex;
pub mod csolver;
pub mod eigen;
pub mod error;
pub mod lu;
pub mod matrix;
pub mod qr;
pub mod solver;
pub mod sparse;
pub mod sparse_lu;
pub mod sym_eigen;
pub mod vector;
pub mod workspace;

pub use cmatrix::{CLuFactor, CMatrix};
pub use complex::Complex;
pub use csolver::{embed_triplets, CAnySolver};
pub use eigen::{eigen_decompose, eigen_decompose_recovering, eigenvalues, EigenDecomposition};
pub use error::NumericError;
pub use lu::{FactorRecovery, LuFactor};
pub use matrix::Matrix;
pub use qr::{gram_schmidt_orthonormalize, householder_qr, QrFactor};
pub use solver::{AnySolver, LinearSolver, SolverBackend, SolverChoice, SPARSE_AUTO_MIN_DIM};
pub use sparse::SparseMatrix;
pub use sparse_lu::{analyze_cached, SparseLu, SparseSymbolic};
pub use sym_eigen::{cholesky, generalized_sym_eigen, jacobi_eigen, SymEigen};
pub use workspace::{with_workspace, Workspace, WsStats};
