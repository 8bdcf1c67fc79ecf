//! The agreement budgets of the spectral and quasi-MC engines against an
//! MC reference (see DESIGN.md, "Stochastic spectral engines").
//! `table4 --engine gpc|sobol` records them per circuit, and
//! `tests/gpc_budget.rs` holds the gPC engine to them on the quick
//! circuits.

use linvar_stats::{SpectralResult, Summary};

/// MC reference sample count of the engine comparison.
pub const ENGINE_MC_REF_N: usize = 60;

/// Master seed of the engine comparison.
pub const ENGINE_SEED: u64 = 4;

/// The mean must agree to this share of the MC mean plus four MC standard
/// errors.
pub const MEAN_BUDGET_REL: f64 = 0.02;

/// The std must agree to this share of the MC std plus four of its own
/// standard errors (an n-sample MC std carries ~`1/√(2(n−1))` relative
/// noise).
pub const STD_BUDGET_REL: f64 = 0.25;

/// Largest solves-to-tolerance ratio the gPC engine may spend.
pub const MAX_SOLVES_RATIO: f64 = 0.1;

/// An engine's mean and std against the budgets an MC reference sets.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Agreement {
    /// `|engine mean − MC mean|`.
    pub mean_abs_err: f64,
    /// Largest allowed mean error.
    pub mean_budget: f64,
    /// `|engine std − MC std|`.
    pub std_abs_err: f64,
    /// Largest allowed std error.
    pub std_budget: f64,
}

impl Agreement {
    /// Compares an engine's `mean` and `std` with the MC reference `mc`.
    pub fn new(mc: &Summary, mean: f64, std: f64) -> Self {
        let n = mc.n as f64;
        Agreement {
            mean_abs_err: (mean - mc.mean).abs(),
            mean_budget: MEAN_BUDGET_REL * mc.mean.abs() + 4.0 * mc.std / n.sqrt(),
            std_abs_err: (std - mc.std).abs(),
            std_budget: STD_BUDGET_REL * mc.std + 4.0 * mc.std / (2.0 * (n - 1.0)).sqrt(),
        }
    }

    /// `true` when both moments are within budget.
    pub fn within(&self) -> bool {
        self.mean_abs_err <= self.mean_budget && self.std_abs_err <= self.std_budget
    }
}

/// The gPC engine's solves against MC's at the tolerance gPC reached.
///
/// gPC runs the stochastic-testing grid at order 1 (`lo`, the cheap
/// estimate) and order 2 (`hi`, the refined one). The relative mean spread
/// between them is the achieved tolerance, and MC needs `(σ/(tol·μ))²`
/// samples to pin the mean that tightly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolvesToTolerance {
    /// Nodes both gPC runs evaluated.
    pub gpc_solves: usize,
    /// Relative mean spread between the two orders, floored at 1e-6 so
    /// the MC equivalent stays finite when they coincide.
    pub tol_achieved: f64,
    /// MC samples needed to reach `tol_achieved`.
    pub mc_solves_to_tol: f64,
    /// `gpc_solves / mc_solves_to_tol`.
    pub ratio: f64,
}

impl SolvesToTolerance {
    /// The ratio of the order-1 run `lo` and the order-2 run `hi`.
    pub fn new(lo: &SpectralResult, hi: &SpectralResult) -> Self {
        let gpc_solves = lo.nodes_evaluated + hi.nodes_evaluated;
        let tol_achieved = ((lo.mean - hi.mean).abs() / hi.mean.abs()).max(1e-6);
        let mc_solves_to_tol = (hi.std / (tol_achieved * hi.mean.abs()))
            .powi(2)
            .ceil()
            .max(1.0);
        SolvesToTolerance {
            gpc_solves,
            tol_achieved,
            mc_solves_to_tol,
            ratio: gpc_solves as f64 / mc_solves_to_tol,
        }
    }

    /// `true` when gPC stays within [`MAX_SOLVES_RATIO`].
    pub fn within(&self) -> bool {
        self.ratio <= MAX_SOLVES_RATIO
    }
}
