//! Stochastic-spectral statistical engines: generalized polynomial
//! chaos (gPC) over the Gaussian fluctuation vector.
//!
//! The framework's vROM carries the affine parameter form
//! `X0 + Σ dXi·wi`; the retrieved UQ literature (arXiv:1409.4824,
//! 1409.4822) shows that for such smooth parameterizations a Hermite
//! polynomial-chaos surrogate reaches Monte-Carlo-quality delay
//! distributions with orders of magnitude fewer model solves. This
//! module supplies the three node-selection schemes of that family:
//!
//! * **tensor stochastic collocation** — full Gauss-Hermite product
//!   grids, quadrature-exact projection (low dimension counts);
//! * **Smolyak sparse grids** — the combination-technique subset of
//!   the tensor grid for higher dimension counts;
//! * **stochastic testing** — a greedily selected square node set
//!   (one node per basis term) solved as a Vandermonde system, the
//!   fewest-solves option.
//!
//! A [`SpectralPlan`] is a *deterministic* object: its node set and
//! basis are pure functions of `(dims, SpectralConfig)` — no seeds —
//! so its nodes are just another indexed sample set for the executor.
//! [`run_spectral`] evaluates them through [`crate::execute`] under any
//! [`RunSpec`] (attempt ladder, workers, durable checkpoints keyed by a
//! [`CampaignFingerprint`] extended with [`SpectralPlan::fingerprint`]),
//! and the coefficient solve, moments and surrogate quantiles are
//! computed post-merge in one fixed summation order — bitwise-identical
//! at any thread count and across any interrupt/resume schedule (see
//! DESIGN.md, "Stochastic spectral engines: basis, node selection &
//! determinism contract").

use crate::campaign::{
    fingerprint_str, fingerprint_words, CampaignFingerprint, CampaignVerdict, CheckpointError,
};
use crate::executor::{execute, RunError, RunSpec};
use crate::montecarlo::{MonteCarloResult, SampleStatus};
use crate::sampling::lhs_normal_streamed;
use crate::summary::Summary;
use linvar_numeric::{LuFactor, Matrix};
use std::fmt;

/// Deterministic surrogate-sample size behind the reported quantiles.
pub const SURROGATE_SAMPLES: usize = 4001;

/// The quantile probabilities every spectral result reports.
pub const QUANTILE_PROBS: [f64; 3] = [0.05, 0.5, 0.95];

/// Salt separating the surrogate-sampling seed stream from the node
/// evaluation (which consumes no randomness at all).
const SURROGATE_SALT: u64 = 0x51AB_0C8E_77F0_3A19;

/// Spectral-engine failures. All typed — a spectral run never panics
/// across the public API.
#[derive(Debug, Clone, PartialEq)]
pub enum SpectralError {
    /// The requested configuration cannot produce a plan (zero dims,
    /// zero-point rule, basis larger than the candidate node set, …).
    BadConfig(String),
    /// The stochastic-testing Vandermonde system is singular — the
    /// node set does not determine the basis coefficients.
    SingularSystem(String),
    /// A node evaluation returned a non-finite value; quadrature over
    /// it would poison every coefficient.
    NonFiniteNode {
        /// Index of the offending node.
        index: usize,
    },
    /// Nodes exhausted their recovery attempt budget. Unlike MC, a
    /// spectral rule cannot quarantine a node — every weight is load-
    /// bearing — so failures are terminal (after the full ladder).
    NodeFailures {
        /// Number of failed nodes.
        failed: usize,
        /// Diagnostic of the lowest-index failure.
        first_error: Option<String>,
    },
    /// `values.len()` handed to the solve does not match the plan.
    WrongValueCount {
        /// Nodes in the plan.
        expected: usize,
        /// Values supplied.
        found: usize,
    },
}

impl fmt::Display for SpectralError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpectralError::BadConfig(msg) => write!(f, "bad spectral config: {msg}"),
            SpectralError::SingularSystem(msg) => {
                write!(f, "singular stochastic-testing system: {msg}")
            }
            SpectralError::NonFiniteNode { index } => {
                write!(f, "non-finite model output at collocation node {index}")
            }
            SpectralError::NodeFailures {
                failed,
                first_error,
            } => write!(
                f,
                "{failed} collocation node(s) exhausted the recovery ladder{}",
                first_error
                    .as_deref()
                    .map(|e| format!("; first error: {e}"))
                    .unwrap_or_default()
            ),
            SpectralError::WrongValueCount { expected, found } => {
                write!(f, "expected {expected} node values, got {found}")
            }
        }
    }
}

impl std::error::Error for SpectralError {}

// ---------------------------------------------------------------- basis

/// Probabilists' Hermite polynomial `He_n(x)` (three-term recurrence
/// `He_{n+1} = x·He_n − n·He_{n−1}`), orthogonal under the standard
/// normal weight with `E[He_m He_n] = n! δ_mn`.
pub fn hermite_prob(n: usize, x: f64) -> f64 {
    let mut h0 = 1.0;
    if n == 0 {
        return h0;
    }
    let mut h1 = x;
    for k in 1..n {
        let h2 = x * h1 - k as f64 * h0;
        h0 = h1;
        h1 = h2;
    }
    h1
}

fn factorial(n: usize) -> f64 {
    (1..=n).map(|k| k as f64).product()
}

/// The orthonormal Hermite basis function of multi-index `alpha`:
/// `Ψ_α(ξ) = Π_k He_{α_k}(ξ_k) / √(α_k!)`, so `E[Ψ_α Ψ_β] = δ_αβ`.
pub fn basis_eval(alpha: &[usize], xi: &[f64]) -> f64 {
    alpha
        .iter()
        .zip(xi)
        .map(|(&a, &x)| hermite_prob(a, x) / factorial(a).sqrt())
        .product()
}

/// Total-degree multi-index set: every `α ∈ ℕ^dims` with `|α| ≤ order`
/// and at most `max_interaction` nonzero components, in graded
/// lexicographic order (constant term first — coefficient 0 is always
/// the surrogate mean).
pub fn multi_indices(dims: usize, order: usize, max_interaction: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    let mut stack = vec![0usize; dims];
    for total in 0..=order {
        emit_indices(&mut out, &mut stack, 0, total, max_interaction);
    }
    out
}

fn emit_indices(
    out: &mut Vec<Vec<usize>>,
    stack: &mut [usize],
    dim: usize,
    remaining: usize,
    max_interaction: usize,
) {
    if dim == stack.len() {
        if remaining == 0 && stack.iter().filter(|&&a| a > 0).count() <= max_interaction {
            out.push(stack.to_vec());
        }
        return;
    }
    for a in (0..=remaining).rev() {
        stack[dim] = a;
        emit_indices(out, stack, dim + 1, remaining - a, max_interaction);
    }
    stack[dim] = 0;
}

// ----------------------------------------------------------- quadrature

/// The `n`-point Gauss-Hermite rule for the **standard normal** weight:
/// nodes and weights such that `Σ w_i p(x_i) = E[p(ξ)]` exactly for
/// polynomials `p` of degree ≤ `2n−1`. Deterministic: roots by
/// interlacing bisection (no iteration-count data dependence), weights
/// by the closed form `w_i = n! / (n² He_{n−1}(x_i)²)`.
///
/// # Errors
///
/// [`SpectralError::BadConfig`] for a zero-point rule.
pub fn gauss_hermite(n: usize) -> Result<(Vec<f64>, Vec<f64>), SpectralError> {
    if n == 0 {
        return Err(SpectralError::BadConfig("0-point quadrature".into()));
    }
    let nodes = hermite_roots(n);
    let nf = n as f64;
    let scale = factorial(n) / (nf * nf);
    let weights: Vec<f64> = nodes
        .iter()
        .map(|&x| {
            let h = hermite_prob(n - 1, x);
            scale / (h * h)
        })
        .collect();
    Ok((nodes, weights))
}

/// Roots of `He_n`, ascending. Built up by degree: the roots of
/// `He_{m}` strictly interlace those of `He_{m−1}`, so each is
/// bracketed by consecutive lower-degree roots (outermost brackets at
/// `±(2√m + 2)`, beyond the last root of any `He_m`). 200 bisection
/// steps drive each bracket to one ulp — a fixed instruction stream,
/// no convergence test, identical on every run.
fn hermite_roots(n: usize) -> Vec<f64> {
    let mut roots = vec![0.0f64];
    for m in 2..=n {
        let bound = 2.0 * (m as f64).sqrt() + 2.0;
        let mut brackets = Vec::with_capacity(m + 1);
        brackets.push(-bound);
        brackets.extend(roots.iter().copied());
        brackets.push(bound);
        let mut next = Vec::with_capacity(m);
        for w in brackets.windows(2) {
            next.push(bisect_hermite(m, w[0], w[1]));
        }
        // Enforce the exact ± symmetry of the rule (bisection rounding
        // could otherwise leave the two halves an ulp apart).
        let half = m / 2;
        for i in 0..half {
            let mag = 0.5 * (next[m - 1 - i].abs() + next[i].abs());
            next[i] = -mag;
            next[m - 1 - i] = mag;
        }
        if m % 2 == 1 {
            next[half] = 0.0;
        }
        roots = next;
    }
    roots
}

fn bisect_hermite(m: usize, mut lo: f64, mut hi: f64) -> f64 {
    let f_lo = hermite_prob(m, lo);
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if mid <= lo || mid >= hi {
            break;
        }
        if (hermite_prob(m, mid) >= 0.0) == (f_lo >= 0.0) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

// ---------------------------------------------------------------- plans

/// Node-selection scheme of a spectral plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GridKind {
    /// Full Gauss-Hermite product grid, `level` points per dimension.
    Tensor,
    /// Smolyak sparse grid at sparse level `level` (linear 1-D growth).
    Smolyak,
    /// Stochastic testing: one node per basis term, greedily selected
    /// from the tensor candidate grid, coefficients by a square solve.
    StochasticTesting,
}

impl GridKind {
    /// Stable name, folded into fingerprints and printed in bench rows.
    pub fn name(self) -> &'static str {
        match self {
            GridKind::Tensor => "tensor",
            GridKind::Smolyak => "smolyak",
            GridKind::StochasticTesting => "st",
        }
    }
}

/// Configuration of a spectral engine run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpectralConfig {
    /// Total polynomial degree of the Hermite basis.
    pub order: usize,
    /// Grid refinement: points per dimension (tensor), sparse level
    /// (Smolyak; ignored by stochastic testing).
    pub level: usize,
    /// Node-selection scheme.
    pub grid: GridKind,
}

impl SpectralConfig {
    /// Quadrature-exact tensor collocation at `order`: `order+1` points
    /// per dimension integrate products of two basis terms exactly.
    pub fn tensor(order: usize) -> Self {
        SpectralConfig {
            order,
            level: order + 1,
            grid: GridKind::Tensor,
        }
    }

    /// Smolyak sparse collocation: sparse level `level`, basis
    /// interactions capped at `level` (the grid has no nodes that could
    /// separate higher-interaction terms).
    pub fn smolyak(order: usize, level: usize) -> Self {
        SpectralConfig {
            order,
            level,
            grid: GridKind::Smolyak,
        }
    }

    /// Stochastic testing at `order`: the fewest-solves scheme — node
    /// count equals basis size.
    pub fn stochastic_testing(order: usize) -> Self {
        SpectralConfig {
            order,
            level: order + 1,
            grid: GridKind::StochasticTesting,
        }
    }
}

/// A fully built spectral plan: the basis, the node set, and (for the
/// projection grids) the quadrature weights. Pure function of
/// `(dims, config)`; all fields are public so tests can inject
/// degenerate systems.
#[derive(Debug, Clone)]
pub struct SpectralPlan {
    /// Dimension count of the fluctuation vector.
    pub dims: usize,
    /// The configuration the plan was built from.
    pub config: SpectralConfig,
    /// Basis multi-indices, graded order; `basis[0]` is the constant.
    pub basis: Vec<Vec<usize>>,
    /// Collocation/testing nodes in standard-normal coordinates.
    pub nodes: Vec<Vec<f64>>,
    /// Quadrature weights (projection grids; empty for stochastic
    /// testing, which solves instead of integrating).
    pub weights: Vec<f64>,
}

impl SpectralPlan {
    /// Builds the plan for `dims` fluctuation dimensions.
    ///
    /// # Errors
    ///
    /// [`SpectralError::BadConfig`] for zero dimensions, a zero-point
    /// rule, or a stochastic-testing basis larger than its candidate
    /// grid.
    pub fn build(dims: usize, config: SpectralConfig) -> Result<SpectralPlan, SpectralError> {
        if dims == 0 {
            return Err(SpectralError::BadConfig("zero dimensions".into()));
        }
        match config.grid {
            GridKind::Tensor => {
                if config.level <= config.order {
                    return Err(SpectralError::BadConfig(format!(
                        "tensor level {} cannot project an order-{} basis \
                         (needs ≥ order+1 points per dim)",
                        config.level, config.order
                    )));
                }
                let basis = multi_indices(dims, config.order, dims);
                let (nodes, weights) = tensor_grid(dims, config.level)?;
                Ok(SpectralPlan {
                    dims,
                    config,
                    basis,
                    nodes,
                    weights,
                })
            }
            GridKind::Smolyak => {
                if config.level == 0 {
                    return Err(SpectralError::BadConfig("smolyak level 0".into()));
                }
                // Interactions beyond `level` have no supporting nodes
                // in the sparse grid; their projections would silently
                // vanish, so the basis excludes them up front.
                let basis = multi_indices(dims, config.order, config.level.min(dims));
                let (nodes, weights) = smolyak_grid(dims, config.level)?;
                Ok(SpectralPlan {
                    dims,
                    config,
                    basis,
                    nodes,
                    weights,
                })
            }
            GridKind::StochasticTesting => {
                let basis = multi_indices(dims, config.order, dims);
                let nodes = stochastic_testing_nodes(dims, config.order, &basis)?;
                Ok(SpectralPlan {
                    dims,
                    config,
                    basis,
                    nodes,
                    weights: Vec::new(),
                })
            }
        }
    }

    /// Opaque hash of everything that shapes the node set and basis —
    /// folded into a spectral campaign's [`CampaignFingerprint`] so a
    /// checkpoint taken under one plan refuses to resume under another
    /// (different order, level, grid kind, or dimension count).
    pub fn fingerprint(&self) -> u64 {
        let mut words = vec![
            fingerprint_str("spectral-v1"),
            fingerprint_str(self.config.grid.name()),
            self.dims as u64,
            self.config.order as u64,
            self.config.level as u64,
            self.nodes.len() as u64,
            self.basis.len() as u64,
        ];
        for node in &self.nodes {
            for &x in node {
                words.push(x.to_bits());
            }
        }
        fingerprint_words(words)
    }

    /// Solves for the gPC coefficients from the node values, in one
    /// fixed summation order (bitwise-deterministic). Records the
    /// [`linvar_metrics::Phase::SpectralSolve`] timer and the
    /// `spectral.solves` / `spectral.coefficients` counters.
    ///
    /// # Errors
    ///
    /// [`SpectralError::WrongValueCount`], [`SpectralError::NonFiniteNode`]
    /// (NaN/inf model output would poison every coefficient), and
    /// [`SpectralError::SingularSystem`] when the stochastic-testing
    /// Vandermonde solve fails.
    pub fn coefficients(&self, values: &[f64]) -> Result<Vec<f64>, SpectralError> {
        let _span = linvar_metrics::timer(linvar_metrics::Phase::SpectralSolve);
        if values.len() != self.nodes.len() {
            return Err(SpectralError::WrongValueCount {
                expected: self.nodes.len(),
                found: values.len(),
            });
        }
        if let Some(index) = values.iter().position(|v| !v.is_finite()) {
            return Err(SpectralError::NonFiniteNode { index });
        }
        let coeffs = if self.weights.is_empty() {
            // Stochastic testing: square Vandermonde solve.
            let n = self.basis.len();
            let mut v = Matrix::zeros(n, n);
            for (j, node) in self.nodes.iter().enumerate() {
                for (b, alpha) in self.basis.iter().enumerate() {
                    v[(j, b)] = basis_eval(alpha, node);
                }
            }
            let lu = LuFactor::new(&v).map_err(|e| SpectralError::SingularSystem(e.to_string()))?;
            lu.solve(values)
                .map_err(|e| SpectralError::SingularSystem(e.to_string()))?
        } else {
            // Discrete projection: c_α = Σ_j w_j Ψ_α(x_j) y_j, node-
            // index order.
            self.basis
                .iter()
                .map(|alpha| {
                    self.nodes
                        .iter()
                        .zip(&self.weights)
                        .zip(values)
                        .map(|((node, &w), &y)| w * basis_eval(alpha, node) * y)
                        .sum()
                })
                .collect()
        };
        linvar_metrics::incr(linvar_metrics::Counter::SpectralSolves);
        linvar_metrics::count(
            linvar_metrics::Counter::SpectralCoefficients,
            coeffs.len() as u64,
        );
        Ok(coeffs)
    }

    /// Evaluates the surrogate `Σ c_α Ψ_α(ξ)` at one point.
    pub fn evaluate(&self, coeffs: &[f64], xi: &[f64]) -> f64 {
        self.basis
            .iter()
            .zip(coeffs)
            .map(|(alpha, &c)| c * basis_eval(alpha, xi))
            .sum()
    }

    /// Surrogate mean: the constant-term coefficient (orthonormal
    /// basis).
    pub fn mean(&self, coeffs: &[f64]) -> f64 {
        coeffs.first().copied().unwrap_or(0.0)
    }

    /// Surrogate standard deviation: `√(Σ_{α≠0} c_α²)` (Parseval under
    /// the orthonormal basis), fixed summation order.
    pub fn std(&self, coeffs: &[f64]) -> f64 {
        coeffs.iter().skip(1).map(|&c| c * c).sum::<f64>().sqrt()
    }
}

/// Full Gauss-Hermite product grid: `points_per_dim^dims` nodes.
fn tensor_grid(
    dims: usize,
    points_per_dim: usize,
) -> Result<(Vec<Vec<f64>>, Vec<f64>), SpectralError> {
    let (x1, w1) = gauss_hermite(points_per_dim)?;
    let mut nodes = vec![Vec::new()];
    let mut weights = vec![1.0f64];
    for _ in 0..dims {
        let mut next_nodes = Vec::with_capacity(nodes.len() * x1.len());
        let mut next_weights = Vec::with_capacity(nodes.len() * x1.len());
        for (node, &w) in nodes.iter().zip(&weights) {
            for (&x, &wx) in x1.iter().zip(&w1) {
                let mut n = node.clone();
                n.push(x);
                next_nodes.push(n);
                next_weights.push(w * wx);
            }
        }
        nodes = next_nodes;
        weights = next_weights;
    }
    Ok((nodes, weights))
}

/// Smolyak sparse grid at sparse level `ℓ` with linear 1-D growth
/// (`i`-point Gauss-Hermite at 1-D level `i`): the combination
/// technique `A(q,d) = Σ_{q−d+1 ≤ |i| ≤ q} (−1)^{q−|i|} C(d−1, q−|i|)
/// ⊗_k U_{i_k}` with `q = d + ℓ` (level 1 = origin plus the 2d axis
/// nodes). Duplicate nodes (shared axes and
/// the origin) are merged by exact coordinate bits; the final node list
/// is sorted by coordinates so the plan's node order is canonical.
fn smolyak_grid(dims: usize, level: usize) -> Result<(Vec<Vec<f64>>, Vec<f64>), SpectralError> {
    let q = dims + level;
    let lo = q - dims + 1;
    let mut acc: Vec<(Vec<f64>, f64)> = Vec::new();
    let mut index = vec![1usize; dims];
    loop {
        let total: usize = index.iter().sum();
        if total >= lo.max(dims) && total <= q {
            let deficit = q - total;
            let sign = if deficit.is_multiple_of(2) { 1.0 } else { -1.0 };
            let coeff = sign * binomial(dims - 1, deficit);
            if coeff != 0.0 {
                let mut rules = Vec::with_capacity(dims);
                for &i in &index {
                    rules.push(gauss_hermite(i)?);
                }
                let mut nodes = vec![Vec::new()];
                let mut weights = vec![coeff];
                for (x1, w1) in &rules {
                    let mut next_nodes = Vec::with_capacity(nodes.len() * x1.len());
                    let mut next_weights = Vec::with_capacity(nodes.len() * x1.len());
                    for (node, &w) in nodes.iter().zip(&weights) {
                        for (&x, &wx) in x1.iter().zip(w1) {
                            let mut n = node.clone();
                            n.push(x);
                            next_nodes.push(n);
                            next_weights.push(w * wx);
                        }
                    }
                    nodes = next_nodes;
                    weights = next_weights;
                }
                acc.extend(nodes.into_iter().zip(weights));
            }
        }
        // Advance the odometer over 1 ≤ i_k ≤ q − (d − 1).
        let cap = q - (dims - 1);
        let mut k = 0;
        loop {
            if k == dims {
                // Merge duplicates by exact bits, then canonical sort.
                return Ok(merge_nodes(acc));
            }
            index[k] += 1;
            if index[k] <= cap {
                break;
            }
            index[k] = 1;
            k += 1;
        }
    }
}

fn binomial(n: usize, k: usize) -> f64 {
    if k > n {
        return 0.0;
    }
    let mut v = 1.0f64;
    for i in 0..k {
        v = v * (n - i) as f64 / (i + 1) as f64;
    }
    v
}

fn merge_nodes(acc: Vec<(Vec<f64>, f64)>) -> (Vec<Vec<f64>>, Vec<f64>) {
    use std::collections::BTreeMap;
    let mut merged: BTreeMap<Vec<u64>, (Vec<f64>, f64)> = BTreeMap::new();
    for (node, w) in acc {
        let key: Vec<u64> = node.iter().map(|x| x.to_bits()).collect();
        merged
            .entry(key)
            .and_modify(|e| e.1 += w)
            .or_insert((node, w));
    }
    let mut items: Vec<(Vec<f64>, f64)> = merged.into_values().collect();
    items.sort_by(|a, b| {
        a.0.iter()
            .zip(&b.0)
            .map(|(x, y)| x.total_cmp(y))
            .find(|o| o.is_ne())
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    items.into_iter().unzip()
}

/// Stochastic-testing node selection (after arXiv:1409.4824): from the
/// `(order+1)^dims` tensor candidate grid, greedily pick one node per
/// basis term — candidates in descending tensor-weight order (stable
/// tie-break by candidate position), accepted only if the node's basis
/// row keeps the Vandermonde well-conditioned (modified Gram-Schmidt
/// residual above a fixed threshold). Deterministic: a pure function of
/// `(dims, order)`.
fn stochastic_testing_nodes(
    dims: usize,
    order: usize,
    basis: &[Vec<usize>],
) -> Result<Vec<Vec<f64>>, SpectralError> {
    let (candidates, cand_weights) = tensor_grid(dims, order + 1)?;
    if candidates.len() < basis.len() {
        return Err(SpectralError::BadConfig(format!(
            "{} candidates cannot seat a {}-term basis",
            candidates.len(),
            basis.len()
        )));
    }
    let mut ranked: Vec<usize> = (0..candidates.len()).collect();
    ranked.sort_by(|&a, &b| cand_weights[b].total_cmp(&cand_weights[a]).then(a.cmp(&b)));
    let n = basis.len();
    let mut selected: Vec<Vec<f64>> = Vec::with_capacity(n);
    let mut ortho: Vec<Vec<f64>> = Vec::with_capacity(n);
    for &c in &ranked {
        if selected.len() == n {
            break;
        }
        let mut row: Vec<f64> = basis
            .iter()
            .map(|alpha| basis_eval(alpha, &candidates[c]))
            .collect();
        let norm0 = row.iter().map(|v| v * v).sum::<f64>().sqrt();
        for q in &ortho {
            let proj: f64 = row.iter().zip(q).map(|(r, q)| r * q).sum();
            for (r, q) in row.iter_mut().zip(q) {
                *r -= proj * q;
            }
        }
        let norm = row.iter().map(|v| v * v).sum::<f64>().sqrt();
        if norm > 1e-8 * norm0.max(1.0) {
            for v in &mut row {
                *v /= norm;
            }
            ortho.push(row);
            selected.push(candidates[c].clone());
        }
    }
    if selected.len() < n {
        return Err(SpectralError::BadConfig(format!(
            "greedy selection seated only {} of {} basis terms",
            selected.len(),
            n
        )));
    }
    Ok(selected)
}

// --------------------------------------------------------------- driver

/// The spectral estimate of a completed node grid: the coefficients, the
/// moments they imply, and deterministic surrogate quantiles.
#[derive(Debug, Clone)]
pub struct SpectralResult {
    /// gPC coefficients, basis order.
    pub coefficients: Vec<f64>,
    /// Surrogate mean (the constant coefficient).
    pub mean: f64,
    /// Surrogate standard deviation (Parseval).
    pub std: f64,
    /// `(probability, value)` quantiles of the surrogate at
    /// [`QUANTILE_PROBS`], from [`SURROGATE_SAMPLES`] deterministic
    /// stratified samples.
    pub quantiles: Vec<(f64, f64)>,
    /// Statistics of the deterministic surrogate sample (its mean/std
    /// converge on `mean`/`std`; `min`/`max` bound the surrogate).
    pub surrogate_summary: Summary,
    /// Nodes evaluated (the plan's node count).
    pub nodes_evaluated: usize,
}

/// One spectral run: the executor's record of the node evaluations plus,
/// once every node has completed, the spectral estimate.
#[derive(Debug, Clone)]
pub struct SpectralRun {
    /// Node outcomes in node order: raw model values, per-node health,
    /// verdict and campaign bookkeeping. Its `summary` covers the raw
    /// node values — diagnostic only, since nodes are quadrature
    /// samples, not draws.
    pub nodes: MonteCarloResult,
    /// The estimate; `None` when the run was truncated mid-grid (deadline,
    /// budget or cancel — resume to finish).
    pub result: Option<SpectralResult>,
}

/// Evaluates a plan's nodes through the executor under `spec`, then
/// solves for the coefficients, moments and quantiles. `f` is the model:
/// a pure function of `(node, attempt)` exactly as for the executor.
///
/// `fingerprint` is the caller's campaign identity; the run's
/// checkpoints are keyed by it **extended with the plan's own
/// fingerprint** and `n_samples` pinned to the node count, so a snapshot
/// taken under one grid/basis refuses to resume under another. Its
/// `master_seed` seeds only the surrogate quantile sample — the node set
/// is seed-free.
///
/// Bitwise-deterministic at any thread count, and kill-and-resume is
/// bitwise-exact: the coefficient solve runs only on a complete grid.
///
/// # Errors
///
/// [`SpectralRunError::Checkpoint`] for checkpoint load/validation/
/// write failures (including fingerprint-mismatch refusal on resume);
/// [`SpectralRunError::Spectral`] with [`SpectralError::NodeFailures`]
/// when a node exhausts its attempt budget (a spectral rule cannot
/// quarantine a node), plus every [`SpectralPlan::coefficients`] error.
/// A deadline/budget/cancel truncation is not an error: it returns `Ok`
/// with `result: None` and a `Truncated` verdict.
pub fn run_spectral<E: fmt::Display>(
    plan: &SpectralPlan,
    spec: &RunSpec,
    fingerprint: &CampaignFingerprint,
    f: impl Fn(&[f64], usize) -> Result<(f64, SampleStatus), E> + Sync,
) -> Result<SpectralRun, SpectralRunError> {
    let fingerprint = CampaignFingerprint {
        master_seed: fingerprint.master_seed,
        n_samples: plan.nodes.len(),
        policy: fingerprint.policy,
        model: fingerprint_words([fingerprint.model, plan.fingerprint()]),
    };
    let nodes = execute(&plan.nodes, spec, &fingerprint, |node: &Vec<f64>, a| {
        f(node, a)
    })
    .map_err(|e| match e {
        RunError::Checkpoint(e) => SpectralRunError::Checkpoint(e),
        RunError::Plan { reason } => SpectralRunError::Spectral(SpectralError::BadConfig(reason)),
    })?;
    let complete = nodes.verdict == CampaignVerdict::Complete;
    if nodes.failures > 0 && (complete || nodes.truncated_at.is_some()) {
        return Err(SpectralRunError::Spectral(SpectralError::NodeFailures {
            failed: nodes.failures,
            first_error: nodes.first_error,
        }));
    }
    let result = if complete {
        Some(finish(plan, &nodes.values, fingerprint.master_seed)?)
    } else {
        None
    };
    Ok(SpectralRun { nodes, result })
}

/// Error of a spectral run: either the checkpoint layer or the spectral
/// solve.
#[derive(Debug)]
pub enum SpectralRunError {
    /// Checkpoint load/validation/write failure.
    Checkpoint(CheckpointError),
    /// Node or coefficient-solve failure.
    Spectral(SpectralError),
}

impl fmt::Display for SpectralRunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpectralRunError::Checkpoint(e) => write!(f, "{e}"),
            SpectralRunError::Spectral(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SpectralRunError {}

impl From<SpectralError> for SpectralRunError {
    fn from(e: SpectralError) -> Self {
        SpectralRunError::Spectral(e)
    }
}

/// The post-merge tail: counters, coefficient solve, moments,
/// deterministic surrogate quantiles. One fixed order throughout.
fn finish(
    plan: &SpectralPlan,
    values: &[f64],
    surrogate_seed: u64,
) -> Result<SpectralResult, SpectralError> {
    linvar_metrics::count(
        linvar_metrics::Counter::SpectralNodesEvaluated,
        values.len() as u64,
    );
    let coefficients = plan.coefficients(values)?;
    let mean = plan.mean(&coefficients);
    let std = plan.std(&coefficients);
    let sample = lhs_normal_streamed(
        surrogate_seed ^ SURROGATE_SALT,
        SURROGATE_SAMPLES,
        plan.dims,
        1.0,
    );
    let mut surrogate: Vec<f64> = sample
        .iter()
        .map(|xi| plan.evaluate(&coefficients, xi))
        .collect();
    linvar_metrics::count(
        linvar_metrics::Counter::SpectralSurrogateSamples,
        surrogate.len() as u64,
    );
    let surrogate_summary = Summary::of(&surrogate);
    surrogate.sort_by(f64::total_cmp);
    let quantiles = QUANTILE_PROBS
        .iter()
        .map(|&p| {
            let k = ((surrogate.len() - 1) as f64 * p).round() as usize;
            (p, surrogate[k])
        })
        .collect();
    Ok(SpectralResult {
        nodes_evaluated: values.len(),
        coefficients,
        mean,
        std,
        quantiles,
        surrogate_summary,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::montecarlo::RecoveryPolicy;

    fn spec(threads: usize, policy: RecoveryPolicy) -> RunSpec {
        RunSpec {
            threads,
            policy,
            ..RunSpec::default()
        }
    }

    fn fp(seed: u64, policy: RecoveryPolicy) -> CampaignFingerprint {
        CampaignFingerprint {
            master_seed: seed,
            n_samples: 0,
            policy,
            model: 0,
        }
    }

    #[test]
    fn hermite_recurrence_reference_values() {
        assert_eq!(hermite_prob(0, 1.7), 1.0);
        assert_eq!(hermite_prob(1, 1.7), 1.7);
        // He_2 = x² − 1, He_3 = x³ − 3x, He_4 = x⁴ − 6x² + 3.
        let x = 0.83;
        assert!((hermite_prob(2, x) - (x * x - 1.0)).abs() < 1e-14);
        assert!((hermite_prob(3, x) - (x * x * x - 3.0 * x)).abs() < 1e-14);
        assert!((hermite_prob(4, x) - (x.powi(4) - 6.0 * x * x + 3.0)).abs() < 1e-13);
    }

    #[test]
    fn gauss_hermite_small_rules_are_exact() {
        // n=3: nodes 0, ±√3, weights 2/3, 1/6, 1/6.
        let (x, w) = gauss_hermite(3).unwrap();
        assert!((x[1]).abs() < 1e-15);
        assert!((x[2] - 3f64.sqrt()).abs() < 1e-12);
        assert!((w[1] - 2.0 / 3.0).abs() < 1e-12);
        assert!((w[0] - 1.0 / 6.0).abs() < 1e-12);
        // Gaussian moments through the rule: E[1]=1, E[x²]=1, E[x⁴]=3.
        for n in 1..=12usize {
            let (x, w) = gauss_hermite(n).unwrap();
            let m0: f64 = w.iter().sum();
            assert!((m0 - 1.0).abs() < 1e-12, "n={n} m0={m0}");
            if n >= 2 {
                let m2: f64 = x.iter().zip(&w).map(|(x, w)| w * x * x).sum();
                assert!((m2 - 1.0).abs() < 1e-11, "n={n} m2={m2}");
            }
            if n >= 3 {
                let m4: f64 = x.iter().zip(&w).map(|(x, w)| w * x.powi(4)).sum();
                assert!((m4 - 3.0).abs() < 1e-10, "n={n} m4={m4}");
            }
        }
    }

    #[test]
    fn multi_indices_counts_and_order() {
        // Total degree ≤ 2 in 3 dims: C(3+2,2) = 10 terms.
        let b = multi_indices(3, 2, 3);
        assert_eq!(b.len(), 10);
        assert_eq!(b[0], vec![0, 0, 0], "constant term first");
        // Interaction cap 1 keeps only per-dimension terms: 1 + 3 + 3.
        let additive = multi_indices(3, 2, 1);
        assert_eq!(additive.len(), 7);
        assert!(additive
            .iter()
            .all(|a| a.iter().filter(|&&x| x > 0).count() <= 1));
    }

    #[test]
    fn plans_are_pure_functions_of_config() {
        for config in [
            SpectralConfig::tensor(2),
            SpectralConfig::smolyak(2, 2),
            SpectralConfig::stochastic_testing(2),
        ] {
            let a = SpectralPlan::build(3, config).unwrap();
            let b = SpectralPlan::build(3, config).unwrap();
            assert_eq!(a.nodes, b.nodes, "{config:?}");
            assert_eq!(a.weights, b.weights);
            assert_eq!(a.basis, b.basis);
            assert_eq!(a.fingerprint(), b.fingerprint());
        }
        let t = SpectralPlan::build(3, SpectralConfig::tensor(2)).unwrap();
        let s = SpectralPlan::build(3, SpectralConfig::smolyak(2, 2)).unwrap();
        assert_ne!(t.fingerprint(), s.fingerprint());
    }

    #[test]
    fn tensor_plan_recovers_polynomial_exactly() {
        // y = 2 + x0 − 0.5 x1 + 0.25 x0 x2 + 0.125 x1²: an order-2
        // polynomial; tensor collocation at order 2 is quadrature-exact,
        // so mean and std match the analytic values to rounding.
        let plan = SpectralPlan::build(3, SpectralConfig::tensor(2)).unwrap();
        let f = |x: &[f64]| 2.0 + x[0] - 0.5 * x[1] + 0.25 * x[0] * x[2] + 0.125 * x[1] * x[1];
        let values: Vec<f64> = plan.nodes.iter().map(|n| f(n)).collect();
        let c = plan.coefficients(&values).unwrap();
        assert!(
            (plan.mean(&c) - 2.125).abs() < 1e-12,
            "mean {}",
            plan.mean(&c)
        );
        // Var = 1 + 0.25 + 0.25²·E[x0²x2²] + 0.125²·Var[x1²]
        //     = 1 + 0.25 + 0.0625 + 0.03125.
        let var: f64 = 1.0 + 0.25 + 0.0625 + 0.03125;
        assert!(
            (plan.std(&c) - var.sqrt()).abs() < 1e-12,
            "std {} want {}",
            plan.std(&c),
            var.sqrt()
        );
    }

    #[test]
    fn stochastic_testing_matches_tensor_on_polynomials() {
        let st = SpectralPlan::build(3, SpectralConfig::stochastic_testing(2)).unwrap();
        assert_eq!(st.nodes.len(), st.basis.len(), "square system");
        let f = |x: &[f64]| 1.0 + 0.3 * x[0] + 0.2 * x[1] * x[2] - 0.1 * x[2] * x[2];
        let values: Vec<f64> = st.nodes.iter().map(|n| f(n)).collect();
        let c = st.coefficients(&values).unwrap();
        assert!((st.mean(&c) - 0.9).abs() < 1e-10);
        let var: f64 = 0.09 + 0.04 + 2.0 * 0.01;
        assert!((st.std(&c) - var.sqrt()).abs() < 1e-10);
    }

    #[test]
    fn smolyak_grid_is_small_and_integrates_gaussian_moments() {
        let plan = SpectralPlan::build(4, SpectralConfig::smolyak(2, 1)).unwrap();
        // Level-1 sparse grid in d dims: origin + 2d axis nodes.
        assert_eq!(plan.nodes.len(), 9);
        let w_sum: f64 = plan.weights.iter().sum();
        assert!((w_sum - 1.0).abs() < 1e-12);
        // Additive quadratics integrate exactly on the level-1 grid.
        let f = |x: &[f64]| x.iter().map(|&v| v * v).sum::<f64>();
        let m: f64 = plan
            .nodes
            .iter()
            .zip(&plan.weights)
            .map(|(n, &w)| w * f(n))
            .sum();
        assert!((m - 4.0).abs() < 1e-11, "E[Σx²] = d, got {m}");
    }

    #[test]
    fn duplicated_testing_node_is_a_typed_singularity() {
        let mut plan = SpectralPlan::build(2, SpectralConfig::stochastic_testing(1)).unwrap();
        let first = plan.nodes[0].clone();
        plan.nodes[1] = first; // two identical Vandermonde rows
        let values = vec![1.0; plan.nodes.len()];
        match plan.coefficients(&values) {
            Err(SpectralError::SingularSystem(_)) => {}
            other => panic!("expected typed singularity, got {other:?}"),
        }
    }

    #[test]
    fn non_finite_node_value_is_a_typed_error() {
        let plan = SpectralPlan::build(2, SpectralConfig::tensor(1)).unwrap();
        let mut values = vec![1.0; plan.nodes.len()];
        values[1] = f64::NAN;
        assert_eq!(
            plan.coefficients(&values),
            Err(SpectralError::NonFiniteNode { index: 1 })
        );
        let short = vec![1.0; plan.nodes.len() - 1];
        assert!(matches!(
            plan.coefficients(&short),
            Err(SpectralError::WrongValueCount { .. })
        ));
    }

    #[test]
    fn run_spectral_is_bitwise_identical_across_threads() {
        let plan = SpectralPlan::build(3, SpectralConfig::smolyak(2, 2)).unwrap();
        let f = |x: &[f64], _a: usize| -> Result<(f64, SampleStatus), String> {
            Ok((
                (0.4 * x[0] + 0.1 * x[1] * x[1] - 0.05 * x[2]).exp(),
                SampleStatus::Clean,
            ))
        };
        let policy = RecoveryPolicy::default();
        let run = |threads| {
            run_spectral(&plan, &spec(threads, policy), &fp(7, policy), f)
                .unwrap()
                .result
                .unwrap()
        };
        let base = run(1);
        for threads in [2usize, 8] {
            let par = run(threads);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(&par.coefficients),
                bits(&base.coefficients),
                "threads={threads}"
            );
            assert_eq!(par.mean.to_bits(), base.mean.to_bits());
            assert_eq!(par.std.to_bits(), base.std.to_bits());
            assert_eq!(par.quantiles, base.quantiles);
        }
        // Quantiles are ordered and bracket the mean for this smooth map.
        assert!(base.quantiles[0].1 < base.quantiles[1].1);
        assert!(base.quantiles[1].1 < base.quantiles[2].1);
    }

    #[test]
    fn failed_node_is_terminal_not_quarantined() {
        let plan = SpectralPlan::build(2, SpectralConfig::tensor(1)).unwrap();
        let strict = RecoveryPolicy::strict();
        let res = run_spectral(
            &plan,
            &spec(2, strict),
            &fp(1, strict),
            |_x: &[f64], _a| -> Result<(f64, SampleStatus), String> {
                Err("injected node failure".into())
            },
        );
        match res {
            Err(SpectralRunError::Spectral(SpectralError::NodeFailures { failed, .. })) => {
                assert!(failed > 0)
            }
            other => panic!("expected NodeFailures, got {other:?}"),
        }
    }
}
