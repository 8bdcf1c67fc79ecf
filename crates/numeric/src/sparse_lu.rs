//! Sparse LU factorization with a symbolic/numeric phase split.
//!
//! The factorization is organized the way sparse circuit simulators
//! (KLU, Sparse 1.3) organize theirs:
//!
//! 1. **Symbolic analysis** ([`SparseSymbolic::analyze`]): a fill-reducing
//!    minimum-degree ordering of the columns, computed from the structural
//!    pattern of `A + Aᵀ` only. This is the expensive, value-independent
//!    step, and it is cached per pattern (see [`analyze_cached`]) so a
//!    Monte-Carlo campaign pays it once per circuit topology, not once per
//!    sample.
//! 2. **Numeric factorization** ([`SparseLu::factor`]): a left-looking
//!    Gilbert–Peierls elimination with partial (row) pivoting. The first
//!    factorization discovers the elimination pattern with depth-first
//!    reachability over the partially built `L` and stores the complete
//!    `L`/`U` patterns plus the pivot permutation.
//! 3. **Refactorization** ([`SparseLu::refactor`]): recomputes the factor
//!    *values* over the stored pattern with the stored pivot order —
//!    no reach, no pivot search, no allocation. This is the per-timestep /
//!    per-sample fast path.
//!
//! # Bitwise contracts
//!
//! Within one column the elimination updates are applied in ascending
//! pivot order — a valid topological order for the lower-triangular
//! dependency — both in the first factorization and in every refactor.
//! Each update targets a distinct accumulator per source column, so
//! `factor` followed by `refactor` on the *same values* reproduces the
//! factor arrays bit for bit, and repeated refactors are bitwise
//! self-consistent (asserted in `tests/sparse_dense_equivalence.rs`).
//!
//! A triangular solve allocates one order-`n` vector, the row-permuted
//! right-hand side it substitutes in place; the solution goes into the
//! caller's buffer.

use crate::error::NumericError;
use crate::lu::FactorRecovery;
use crate::matrix::Matrix;
use crate::sparse::SparseMatrix;
use std::cell::RefCell;
use std::sync::Arc;

/// Relative pivot threshold below which the matrix is declared singular
/// (same contract as the dense `LuFactor`).
const PIVOT_TOL: f64 = 1e-300;

/// Result of the symbolic-analysis phase: a fill-reducing column order
/// plus the analyzed pattern (kept so cache lookups and refactors can
/// verify they are reusing the right analysis).
#[derive(Debug, Clone)]
pub struct SparseSymbolic {
    n: usize,
    /// Column elimination order: position `k` eliminates original column
    /// `q[k]`.
    q: Vec<usize>,
    /// Pattern the ordering was computed for.
    a_col_ptr: Vec<usize>,
    a_row_idx: Vec<usize>,
}

impl SparseSymbolic {
    /// Runs the symbolic phase: a minimum-degree ordering on the pattern
    /// of `A + Aᵀ` (ties broken toward the smallest node index, so the
    /// ordering is deterministic).
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::DimensionMismatch`] if `a` is not square.
    pub fn analyze(a: &SparseMatrix) -> Result<Self, NumericError> {
        let _span = linvar_metrics::timer(linvar_metrics::Phase::SparseSymbolic);
        if !a.is_square() {
            return Err(NumericError::DimensionMismatch {
                expected: "square matrix".into(),
                found: format!("{}x{}", a.n_rows(), a.n_cols()),
            });
        }
        let q = min_degree_order(a.n_rows(), a.col_ptr(), a.row_indices());
        Ok(SparseSymbolic {
            n: a.n_rows(),
            q,
            a_col_ptr: a.col_ptr().to_vec(),
            a_row_idx: a.row_indices().to_vec(),
        })
    }

    /// Matrix order the analysis was computed for.
    pub fn order(&self) -> usize {
        self.n
    }

    /// The fill-reducing column order.
    pub fn column_order(&self) -> &[usize] {
        &self.q
    }

    /// `true` if `a` has exactly the analyzed pattern.
    pub fn matches(&self, a: &SparseMatrix) -> bool {
        a.n_rows() == self.n
            && a.is_square()
            && a.col_ptr() == self.a_col_ptr.as_slice()
            && a.row_indices() == self.a_row_idx.as_slice()
    }
}

/// Entries the per-worker symbolic cache holds before evicting the least
/// recently used. A Monte-Carlo worker typically sees two patterns per
/// circuit (DC and transient companion stamps), so a handful suffices.
const SYMBOLIC_CACHE_CAP: usize = 8;

thread_local! {
    static SYMBOLIC_CACHE: RefCell<Vec<Arc<SparseSymbolic>>> = const { RefCell::new(Vec::new()) };
}

/// Symbolic analysis through the per-worker pattern cache.
///
/// The cache is thread-local, so each Monte-Carlo worker has its own:
/// repeated factorizations of matrices with an identical pattern — every
/// sample of a Monte-Carlo campaign, every timestep rebuild of one
/// transient — reuse the stored ordering instead of re-running
/// minimum-degree. Patterns are compared exactly, so a hit can never
/// return the wrong analysis.
///
/// # Errors
///
/// Returns [`NumericError::DimensionMismatch`] if `a` is not square.
pub fn analyze_cached(a: &SparseMatrix) -> Result<Arc<SparseSymbolic>, NumericError> {
    SYMBOLIC_CACHE.with(|cell| {
        let mut cache = cell.borrow_mut();
        if let Some(pos) = cache.iter().position(|s| s.matches(a)) {
            let hit = cache.remove(pos);
            cache.push(Arc::clone(&hit));
            return Ok(hit);
        }
        let fresh = Arc::new(SparseSymbolic::analyze(a)?);
        if cache.len() >= SYMBOLIC_CACHE_CAP {
            cache.remove(0);
        }
        cache.push(Arc::clone(&fresh));
        Ok(fresh)
    })
}

/// Minimum-degree ordering on the structural pattern of `A + Aᵀ`.
///
/// Classic elimination-graph formulation with a lazy bucket queue: pop the
/// lowest `(degree, node)` pair (stale entries are skipped), eliminate the
/// node, and union its neighbourhood into each neighbour's adjacency. For
/// the near-banded / tree-shaped MNA patterns this backend targets, node
/// degrees stay small and the whole ordering is O(n·d²).
fn min_degree_order(n: usize, col_ptr: &[usize], row_idx: &[usize]) -> Vec<usize> {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for j in 0..n {
        for &i in &row_idx[col_ptr[j]..col_ptr[j + 1]] {
            if i != j {
                adj[i].push(j);
                adj[j].push(i);
            }
        }
    }
    for a in &mut adj {
        a.sort_unstable();
        a.dedup();
    }
    let mut degree: Vec<usize> = adj.iter().map(Vec::len).collect();
    let mut heap: BinaryHeap<Reverse<(usize, usize)>> =
        (0..n).map(|v| Reverse((degree[v], v))).collect();
    let mut eliminated = vec![false; n];
    let mut order = Vec::with_capacity(n);
    let mut nbrs: Vec<usize> = Vec::new();
    let mut merged: Vec<usize> = Vec::new();
    while order.len() < n {
        let v = loop {
            match heap.pop() {
                Some(Reverse((d, v))) if !eliminated[v] && d == degree[v] => break v,
                Some(_) => continue, // stale entry
                None => break (0..n).find(|&v| !eliminated[v]).expect("n nodes remain"),
            }
        };
        eliminated[v] = true;
        order.push(v);
        nbrs.clear();
        nbrs.extend(adj[v].iter().copied().filter(|&u| !eliminated[u]));
        adj[v] = Vec::new();
        for &u in &nbrs {
            // adj[u] ← (adj[u] ∪ nbrs) \ {u} \ eliminated  (sorted merge)
            merged.clear();
            let au = &adj[u];
            let (mut i, mut k) = (0, 0);
            while i < au.len() || k < nbrs.len() {
                let x = match (au.get(i), nbrs.get(k)) {
                    (Some(&a), Some(&b)) => {
                        if a <= b {
                            i += 1;
                            if a == b {
                                k += 1;
                            }
                            a
                        } else {
                            k += 1;
                            b
                        }
                    }
                    (Some(&a), None) => {
                        i += 1;
                        a
                    }
                    (None, Some(&b)) => {
                        k += 1;
                        b
                    }
                    (None, None) => unreachable!("loop condition"),
                };
                if x != u && !eliminated[x] {
                    merged.push(x);
                }
            }
            adj[u].clear();
            adj[u].extend_from_slice(&merged);
            degree[u] = adj[u].len();
            heap.push(Reverse((degree[u], u)));
        }
    }
    order
}

/// Sparse LU factors `P·A·Q = L·U` with partial pivoting, storing a
/// reusable elimination pattern.
///
/// `Q` is the fill-reducing column order from the symbolic phase; `P` is
/// the row permutation chosen by partial pivoting during the first
/// numeric factorization. Both factors are stored column-compressed in
/// pivot coordinates (`L` strictly lower with implied unit diagonal, `U`
/// strictly upper with the diagonal kept separately).
#[derive(Debug, Clone)]
pub struct SparseLu {
    n: usize,
    /// Column order: position `k` eliminated original column `q[k]`.
    q: Vec<usize>,
    /// `rowperm[k]` = original row pivotal at position `k`.
    rowperm: Vec<usize>,
    /// `pinv[r]` = pivot position of original row `r`.
    pinv: Vec<usize>,
    l_colptr: Vec<usize>,
    l_rows: Vec<usize>,
    l_vals: Vec<f64>,
    u_colptr: Vec<usize>,
    u_rows: Vec<usize>,
    u_vals: Vec<f64>,
    udiag: Vec<f64>,
    /// Pattern of the factored matrix ([`SparseLu::refactor`] validation).
    a_colptr: Vec<usize>,
    a_rows: Vec<usize>,
    /// Pivot-space scratch for refactors; zero outside an active column.
    work: Vec<f64>,
}

impl SparseLu {
    /// Factors `a`, running (or reusing, via the per-worker cache) the
    /// symbolic analysis first.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::DimensionMismatch`] if `a` is not square
    /// and [`NumericError::SingularMatrix`] if a pivot underflows.
    pub fn new(a: &SparseMatrix) -> Result<Self, NumericError> {
        let symbolic = analyze_cached(a)?;
        Self::factor(a, &symbolic)
    }

    /// Numeric factorization of `a` under a precomputed column order.
    ///
    /// The ordering must have the same order as `a`; it may come from a
    /// different (e.g. diagonally extended) pattern — any permutation is
    /// *valid*, just possibly less fill-reducing.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::DimensionMismatch`] on shape mismatch and
    /// [`NumericError::SingularMatrix`] (with a condition estimate when
    /// one is available) if no acceptable pivot exists in some column —
    /// structurally empty columns included. Never panics on singular
    /// input.
    pub fn factor(a: &SparseMatrix, symbolic: &SparseSymbolic) -> Result<Self, NumericError> {
        let _span = linvar_metrics::timer(linvar_metrics::Phase::SparseNumericFactor);
        if !a.is_square() {
            return Err(NumericError::DimensionMismatch {
                expected: "square matrix".into(),
                found: format!("{}x{}", a.n_rows(), a.n_cols()),
            });
        }
        let n = a.n_rows();
        if symbolic.n != n {
            return Err(NumericError::DimensionMismatch {
                expected: format!("symbolic analysis of order {n}"),
                found: format!("order {}", symbolic.n),
            });
        }
        // Scatter vector over original rows plus membership flags.
        let mut x = vec![0.0f64; n];
        let mut in_pattern = vec![false; n];
        let mut pattern: Vec<usize> = Vec::new();
        // DFS state over pivot positions.
        let mut visited = vec![false; n];
        let mut reach: Vec<usize> = Vec::new();
        let mut stack: Vec<usize> = Vec::new();
        let mut pinv = vec![usize::MAX; n];
        let mut rowperm: Vec<usize> = Vec::with_capacity(n);
        let mut lcols: Vec<Vec<(usize, f64)>> = Vec::with_capacity(n);
        let mut ucols: Vec<Vec<(usize, f64)>> = Vec::with_capacity(n);
        let mut udiag: Vec<f64> = Vec::with_capacity(n);
        let mut max_pivot = 0.0f64;

        for k in 0..n {
            let c = symbolic.q[k];
            pattern.clear();
            reach.clear();
            // Scatter A(:, c) and collect the reach of its pivotal rows
            // through the partially built L.
            let (arows, avals) = a.col(c);
            for (&r, &v) in arows.iter().zip(avals) {
                x[r] = v;
                if !in_pattern[r] {
                    in_pattern[r] = true;
                    pattern.push(r);
                }
                let start = pinv[r];
                if start != usize::MAX && !visited[start] {
                    visited[start] = true;
                    stack.push(start);
                    while let Some(j) = stack.pop() {
                        reach.push(j);
                        for &(r2, _) in &lcols[j] {
                            if !in_pattern[r2] {
                                in_pattern[r2] = true;
                                pattern.push(r2);
                            }
                            let pj = pinv[r2];
                            if pj != usize::MAX && !visited[pj] {
                                visited[pj] = true;
                                stack.push(pj);
                            }
                        }
                    }
                }
            }
            // Ascending pivot order is a valid topological order for the
            // strictly-lower-triangular dependency, and it is the order
            // `refactor` replays — the bitwise-consistency contract.
            reach.sort_unstable();
            let mut ucol = Vec::with_capacity(reach.len());
            for &j in &reach {
                let xj = x[rowperm[j]];
                ucol.push((j, xj));
                for &(r2, l) in &lcols[j] {
                    x[r2] -= l * xj;
                }
            }
            // Partial pivot: largest magnitude among not-yet-pivotal
            // pattern rows, ties toward the smallest row index.
            let mut prow = usize::MAX;
            let mut pmax = -1.0f64;
            for &r in &pattern {
                if pinv[r] == usize::MAX {
                    let v = x[r].abs();
                    if v > pmax || (v == pmax && r < prow) {
                        pmax = v;
                        prow = r;
                    }
                }
            }
            let pmax = if prow == usize::MAX { 0.0 } else { pmax };
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
            let pivot = x[prow];
            pinv[prow] = k;
            rowperm.push(prow);
            udiag.push(pivot);
            let mut lcol = Vec::new();
            for &r in &pattern {
                if pinv[r] == usize::MAX {
                    lcol.push((r, x[r] / pivot));
                }
            }
            lcol.sort_unstable_by_key(|&(r, _)| r);
            for &r in &pattern {
                x[r] = 0.0;
                in_pattern[r] = false;
            }
            for &j in &reach {
                visited[j] = false;
            }
            ucols.push(ucol);
            lcols.push(lcol);
        }

        // Renumber L into pivot coordinates (every row is pivotal now)
        // and compress both factors.
        let mut l_colptr = Vec::with_capacity(n + 1);
        let mut l_rows = Vec::new();
        let mut l_vals = Vec::new();
        l_colptr.push(0);
        let mut tmp: Vec<(usize, f64)> = Vec::new();
        for col in &lcols {
            tmp.clear();
            tmp.extend(col.iter().map(|&(r, v)| (pinv[r], v)));
            tmp.sort_unstable_by_key(|&(i, _)| i);
            for &(i, v) in &tmp {
                l_rows.push(i);
                l_vals.push(v);
            }
            l_colptr.push(l_rows.len());
        }
        let mut u_colptr = Vec::with_capacity(n + 1);
        let mut u_rows = Vec::new();
        let mut u_vals = Vec::new();
        u_colptr.push(0);
        for col in &ucols {
            for &(i, v) in col {
                u_rows.push(i);
                u_vals.push(v);
            }
            u_colptr.push(u_rows.len());
        }
        Ok(SparseLu {
            n,
            q: symbolic.q.clone(),
            rowperm,
            pinv,
            l_colptr,
            l_rows,
            l_vals,
            u_colptr,
            u_rows,
            u_vals,
            udiag,
            a_colptr: a.col_ptr().to_vec(),
            a_rows: a.row_indices().to_vec(),
            work: vec![0.0; n],
        })
    }

    /// Factors `a`, retrying once with a diagonal perturbation on
    /// breakdown — the same recovery ladder as the dense
    /// `LuFactor::new_recovering` (ε = `1e-12·max|a|`, clamped; the
    /// `lu.factor_recoveries` counter is incremented on the retry).
    ///
    /// # Errors
    ///
    /// Returns the underlying error if even the perturbed matrix fails
    /// to factor.
    pub fn new_recovering(
        a: &SparseMatrix,
        symbolic: &SparseSymbolic,
    ) -> Result<(Self, FactorRecovery), NumericError> {
        match Self::factor(a, symbolic) {
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
                let regularized = a.add_diagonal(eps);
                // The ordering stays a valid permutation for the extended
                // pattern (possibly missing diagonal entries were added).
                let lu = Self::factor(&regularized, symbolic)?;
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

    /// Recomputes the factor values for a matrix with the **same pattern**
    /// as the one originally factored, reusing the stored elimination
    /// pattern and pivot permutation — no reach, no pivot search, no
    /// allocation.
    ///
    /// The stored pivot order is replayed without magnitude checks beyond
    /// the underflow guard, so values that drift far from the originally
    /// factored ones can degrade accuracy; on error, run a fresh
    /// [`SparseLu::factor`] to re-pivot.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::InvalidInput`] if `a`'s pattern differs
    /// from the factored pattern (never panics), and
    /// [`NumericError::SingularMatrix`] if a reused pivot underflows.
    pub fn refactor(&mut self, a: &SparseMatrix) -> Result<(), NumericError> {
        let _span = linvar_metrics::timer(linvar_metrics::Phase::SparseNumericFactor);
        if a.n_rows() != self.n || a.n_cols() != self.n {
            return Err(NumericError::DimensionMismatch {
                expected: format!("{0}x{0} matrix", self.n),
                found: format!("{}x{}", a.n_rows(), a.n_cols()),
            });
        }
        if a.col_ptr() != self.a_colptr.as_slice() || a.row_indices() != self.a_rows.as_slice() {
            return Err(NumericError::InvalidInput(
                "sparse refactor: matrix pattern differs from the factored pattern; \
                 run a full factor instead"
                    .into(),
            ));
        }
        let n = self.n;
        for k in 0..n {
            let c = self.q[k];
            let (arows, avals) = a.col(c);
            for (&r, &v) in arows.iter().zip(avals) {
                self.work[self.pinv[r]] = v;
            }
            for idx in self.u_colptr[k]..self.u_colptr[k + 1] {
                let j = self.u_rows[idx];
                let xj = self.work[j];
                self.u_vals[idx] = xj;
                for li in self.l_colptr[j]..self.l_colptr[j + 1] {
                    self.work[self.l_rows[li]] -= self.l_vals[li] * xj;
                }
            }
            let pivot = self.work[k];
            if pivot.abs() < PIVOT_TOL || !pivot.is_finite() {
                // Zero the touched entries so `work` stays clean for the
                // fallback full factor the caller should run.
                self.clear_column_scratch(k);
                let prev_max = self.udiag[..k].iter().fold(0.0f64, |m, v| m.max(v.abs()));
                let condition = if pivot.is_finite() && prev_max > 0.0 {
                    Some(if pivot.abs() > 0.0 {
                        prev_max / pivot.abs()
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
            self.udiag[k] = pivot;
            for li in self.l_colptr[k]..self.l_colptr[k + 1] {
                let i = self.l_rows[li];
                self.l_vals[li] = self.work[i] / pivot;
            }
            self.clear_column_scratch(k);
        }
        Ok(())
    }

    /// Zeroes every scratch entry column `k` can have touched: its `U`
    /// pattern, the diagonal, and its `L` pattern (scatter positions are
    /// subsets of these by construction).
    fn clear_column_scratch(&mut self, k: usize) {
        for idx in self.u_colptr[k]..self.u_colptr[k + 1] {
            self.work[self.u_rows[idx]] = 0.0;
        }
        self.work[k] = 0.0;
        for li in self.l_colptr[k]..self.l_colptr[k + 1] {
            self.work[self.l_rows[li]] = 0.0;
        }
    }

    /// Matrix order.
    pub fn order(&self) -> usize {
        self.n
    }

    /// Cheap condition estimate: ratio of the largest to the smallest
    /// `|U|` diagonal magnitude (same estimator as the dense backend).
    pub fn condition_estimate(&self) -> f64 {
        if self.n == 0 {
            return 1.0;
        }
        let mut umax = 0.0f64;
        let mut umin = f64::INFINITY;
        for &d in &self.udiag {
            let d = d.abs();
            umax = umax.max(d);
            umin = umin.min(d);
        }
        if umin > 0.0 {
            umax / umin
        } else {
            f64::INFINITY
        }
    }

    /// Solves `A x = b`.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::DimensionMismatch`] if `b.len()` differs
    /// from the matrix order.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, NumericError> {
        let mut x = Vec::new();
        self.solve_into(b, &mut x)?;
        Ok(x)
    }

    /// Solves `A x = b` into `x` (fully overwritten; reuses `x`'s
    /// capacity). The substitutions run in place on a fresh vector
    /// holding the row-permuted `b`.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::DimensionMismatch`] if `b.len()` differs
    /// from the matrix order.
    pub fn solve_into(&self, b: &[f64], x: &mut Vec<f64>) -> Result<(), NumericError> {
        let _span = linvar_metrics::timer(linvar_metrics::Phase::SparseSolve);
        let n = self.n;
        if b.len() != n {
            return Err(NumericError::DimensionMismatch {
                expected: format!("vector of length {n}"),
                found: format!("length {}", b.len()),
            });
        }
        let mut y: Vec<f64> = self.rowperm.iter().map(|&r| b[r]).collect();
        // Forward: L y' = P b (unit lower triangular).
        for k in 0..n {
            let yk = y[k];
            if yk != 0.0 {
                for li in self.l_colptr[k]..self.l_colptr[k + 1] {
                    y[self.l_rows[li]] -= self.l_vals[li] * yk;
                }
            }
        }
        // Backward: U z = y'.
        for k in (0..n).rev() {
            let yk = y[k] / self.udiag[k];
            y[k] = yk;
            if yk != 0.0 {
                for ui in self.u_colptr[k]..self.u_colptr[k + 1] {
                    y[self.u_rows[ui]] -= self.u_vals[ui] * yk;
                }
            }
        }
        // Undo the column permutation: x[q[k]] = z[k].
        x.clear();
        x.resize(n, 0.0);
        for k in 0..n {
            x[self.q[k]] = y[k];
        }
        Ok(())
    }

    /// Solves `A X = B` for a matrix right-hand side, column by column.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::DimensionMismatch`] if `b.rows()` differs
    /// from the matrix order.
    pub fn solve_mat(&self, b: &Matrix) -> Result<Matrix, NumericError> {
        let n = self.n;
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lu::LuFactor;

    /// Stamp-style conductance ladder with some long-range coupling — the
    /// shape the MNA engines hand the solver.
    fn ladder(n: usize) -> Matrix {
        let mut a = Matrix::zeros(n, n);
        for i in 0..n {
            a[(i, i)] = 2.5 + (i as f64) * 0.125;
            if i + 1 < n {
                a[(i, i + 1)] = -1.0 - (i as f64) * 0.01;
                a[(i + 1, i)] = -0.75;
            }
        }
        a[(0, n - 1)] = 0.5;
        a[(n - 1, 3 % n)] = -0.25;
        a
    }

    #[test]
    fn solves_match_dense_to_tight_tolerance() {
        let d = ladder(24);
        let s = SparseMatrix::from_dense(&d);
        let lu_d = LuFactor::new(&d).unwrap();
        let lu_s = SparseLu::new(&s).unwrap();
        let b: Vec<f64> = (0..24).map(|i| ((i * 7) % 11) as f64 - 5.0).collect();
        let xd = lu_d.solve(&b).unwrap();
        let xs = lu_s.solve(&b).unwrap();
        for (a, b) in xd.iter().zip(&xs) {
            assert!((a - b).abs() <= 1e-12 * a.abs().max(1.0), "{a} vs {b}");
        }
    }

    #[test]
    fn pivoting_handles_zero_diagonal() {
        // Permutation-like matrix: every pivot requires a row swap.
        let d = Matrix::from_rows(&[&[0.0, 1.0, 0.0], &[0.0, 0.0, 2.0], &[3.0, 0.0, 0.0]]);
        let s = SparseMatrix::from_dense(&d);
        let lu = SparseLu::new(&s).unwrap();
        let x = lu.solve(&[1.0, 2.0, 3.0]).unwrap();
        let y = s.mul_vec(&x).unwrap();
        for (got, want) in y.iter().zip(&[1.0, 2.0, 3.0]) {
            assert!((got - want).abs() < 1e-12);
        }
    }

    #[test]
    fn singular_and_empty_patterns_are_typed_errors() {
        // Duplicate rows.
        let s = SparseMatrix::from_triplets(
            2,
            2,
            &[(0, 0, 1.0), (0, 1, 2.0), (1, 0, 1.0), (1, 1, 2.0)],
        )
        .unwrap();
        assert!(matches!(
            SparseLu::new(&s),
            Err(NumericError::SingularMatrix { .. })
        ));
        // Structurally empty row/column.
        let s = SparseMatrix::from_triplets(3, 3, &[(0, 0, 1.0), (1, 1, 1.0)]).unwrap();
        assert!(matches!(
            SparseLu::new(&s),
            Err(NumericError::SingularMatrix { .. })
        ));
    }

    #[test]
    fn recovery_ladder_matches_dense_semantics() {
        let s = SparseMatrix::from_triplets(
            2,
            2,
            &[(0, 0, 1.0), (0, 1, 2.0), (1, 0, 2.0), (1, 1, 4.0)],
        )
        .unwrap();
        let symbolic = SparseSymbolic::analyze(&s).unwrap();
        let (lu, rec) = SparseLu::new_recovering(&s, &symbolic).unwrap();
        assert!(rec.perturbed);
        assert!(rec.perturbation > 0.0);
        let x = lu.solve(&[1.0, 2.0]).unwrap();
        assert!(x.iter().all(|v| v.is_finite()));

        // Clean systems report no perturbation.
        let c = SparseMatrix::from_dense(&ladder(6));
        let symbolic = SparseSymbolic::analyze(&c).unwrap();
        let (_, rec) = SparseLu::new_recovering(&c, &symbolic).unwrap();
        assert!(!rec.perturbed);
        assert!(rec.condition_estimate.is_finite());
    }

    #[test]
    fn refactor_reproduces_factor_bitwise() {
        let d = ladder(20);
        let s = SparseMatrix::from_dense(&d);
        let symbolic = SparseSymbolic::analyze(&s).unwrap();
        let reference = SparseLu::factor(&s, &symbolic).unwrap();
        let mut refactored = reference.clone();
        refactored.refactor(&s).unwrap();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&reference.l_vals), bits(&refactored.l_vals));
        assert_eq!(bits(&reference.u_vals), bits(&refactored.u_vals));
        assert_eq!(bits(&reference.udiag), bits(&refactored.udiag));
    }

    #[test]
    fn refactor_rejects_pattern_mismatch() {
        let s = SparseMatrix::from_dense(&ladder(8));
        let mut lu = SparseLu::new(&s).unwrap();
        let other = SparseMatrix::from_dense(&Matrix::identity(8));
        assert!(matches!(
            lu.refactor(&other),
            Err(NumericError::InvalidInput(_))
        ));
        let wrong_size = SparseMatrix::from_dense(&Matrix::identity(4));
        assert!(matches!(
            lu.refactor(&wrong_size),
            Err(NumericError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn solve_mat_and_condition_estimate() {
        let d = ladder(10);
        let s = SparseMatrix::from_dense(&d);
        let lu = SparseLu::new(&s).unwrap();
        assert!(lu.condition_estimate().is_finite());
        assert!(lu.condition_estimate() >= 1.0);
        let b = Matrix::from_fn(10, 3, |i, j| (i + 2 * j) as f64 - 4.0);
        let x = lu.solve_mat(&b).unwrap();
        for j in 0..3 {
            let y = s.mul_vec(&x.col(j)).unwrap();
            for (got, want) in y.iter().zip(&b.col(j)) {
                assert!((got - want).abs() < 1e-9);
            }
        }
        assert!(lu.solve(&[1.0]).is_err());
    }

    #[test]
    fn symbolic_cache_hits_on_repeated_patterns() {
        let s = SparseMatrix::from_dense(&ladder(12));
        let a = analyze_cached(&s).unwrap();
        let b = analyze_cached(&s).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "second analysis must be a cache hit");
    }

    #[test]
    fn min_degree_order_is_a_permutation() {
        let s = SparseMatrix::from_dense(&ladder(17));
        let sym = SparseSymbolic::analyze(&s).unwrap();
        let mut seen = [false; 17];
        for &c in sym.column_order() {
            assert!(!seen[c]);
            seen[c] = true;
        }
        assert!(seen.iter().all(|&x| x));
    }
}
