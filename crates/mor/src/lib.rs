//! Model order reduction: PRIMA, PACT, variational reduced-order models,
//! pole/residue extraction and the stability filter.
//!
//! This crate implements §2 and §3.3 of the paper:
//!
//! * [`prima`] — projection by block Arnoldi (moment matching at `s = 0`)
//!   with a congruence transformation; passive for the *nominal* RC case;
//! * [`pact`] — pole analysis via congruence transforms: eliminate the DC
//!   internal coupling, eigenanalyze the internal pencil, keep the dominant
//!   internal modes. Produces exactly the block structure of paper eq. (5):
//!   `Gr = diag(A, I)`, `Cr = [[B, R], [Rᵀ, diag(µ)]]`;
//! * [`variational`] — the first-order expansion
//!   `X(w) = X0 + Σ dXi·wi` (eq. 8) and reduced matrices truncated to first
//!   order (eq. 11). Because the truncation breaks the congruence, the
//!   evaluated models are **not passive and may be unstable** — that is the
//!   phenomenon Example 1 demonstrates and the framework works around;
//! * [`poleres`] — the impedance transformation of eqs. (13)–(20):
//!   eigendecompose `T = -Gr⁻¹Cr` once and share it across all `Z_ij`;
//! * [`stability`] — the two-step fix of eqs. (21)–(23): drop
//!   right-half-plane poles, rescale surviving residues by β to restore the
//!   DC value.

// Dense matrix kernels index rows/columns explicitly; iterator
// adaptors would obscure the classic algorithm shapes.
#![allow(clippy::needless_range_loop)]
// User-reachable library paths must surface typed errors, never panic.
// Tests are exempt: unwrap/expect on known-good fixtures is idiomatic there.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
// The per-sample hot path (evaluate/extract/stabilize) must not clone
// what a borrow or a buffer it already owns can serve.
#![deny(clippy::redundant_clone)]

pub mod degrade;
pub mod moments;
pub mod pact;
pub mod poleres;
pub mod prima;
pub mod stability;
pub mod variational;

pub use degrade::{extract_stabilized_degrading, MorDegradation, DEFAULT_BETA_TOL};
pub use moments::{elmore_delay, elmore_transfer, matched_moment_count, moments, reduced_moments};
pub use pact::pact_reduce;
pub use poleres::{extract_pole_residue, PoleResidueModel};
pub use prima::{prima_basis, prima_project, prima_reduce, ReducedModel};
pub use stability::{stabilize, StabilityReport};
pub use variational::{ReductionMethod, VariationalRom};
