//! Per-worker workspace arenas: reusable, size-keyed scratch buffers
//! for the Monte-Carlo hot path.
//!
//! The paper's pitch is that the variational ROM is "built once per
//! interconnect structure; evaluated cheaply for every parameter
//! sample" — but "cheaply" dies by a thousand allocations if every
//! sample's affine evaluation, pole/residue extraction, and chord
//! convolution re-allocates fresh `Matrix`/`Vec` temporaries. This
//! module keeps those temporaries alive *across samples*.
//!
//! # Model
//!
//! A [`Workspace`] is a set of size-keyed free lists: `Vec<f64>` keyed
//! by length, `Vec<Complex>` keyed by length, and [`Matrix`] keyed by
//! `(rows, cols)`. [`Workspace::take_vec`] et al. pop a recycled
//! buffer when one of the exact size is pooled (a *hit*) or allocate a
//! fresh one (a *miss*); callers hand buffers back with the matching
//! `recycle_*` once done. Ownership stays plain: a taken buffer is an
//! ordinary owned value, and forgetting to recycle it merely drops it
//! (a future miss, never a leak or a double-use).
//!
//! # Determinism
//!
//! Recycled buffers are **zero-filled on take**, so a pooled buffer is
//! bit-for-bit indistinguishable from a fresh `vec![0.0; n]` /
//! `Matrix::zeros`. No arithmetic path can observe whether its scratch
//! came from the pool, which is why the workspace-backed hot path is
//! bitwise identical to the allocating one at every thread count.
//!
//! # Granularity: per worker, not per sample
//!
//! Workspaces live in a thread-local reached via [`with_workspace`].
//! The Monte-Carlo drivers spawn a fixed set of worker threads, so the
//! thread-local gives exactly one arena per worker with zero plumbing
//! through the (already published) solver APIs; buffers warm up during
//! the first sample a worker runs and are hits for every sample after.
//! A per-sample arena would re-pay every allocation each sample; a
//! shared arena would need locks on the hottest path in the codebase.
//!
//! Set `LINVAR_WS_DISABLE=1` to turn every pool into a pass-through
//! (every take allocates, every recycle drops) — the A/B switch `ci.sh`
//! uses to check that the pooled and allocating paths give the same
//! counters and golden bits.

use crate::complex::Complex;
use crate::matrix::Matrix;
use std::cell::RefCell;
use std::collections::BTreeMap;

/// Upper bound on bytes a workspace keeps pooled; recycles beyond this
/// are dropped. Generous for ROM-order matrices (q ≤ ~40) while
/// bounding worst-case retention per worker thread.
const MAX_HELD_BYTES: u64 = 16 << 20;

/// Cumulative pool statistics of one [`Workspace`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WsStats {
    /// Takes served from the pool.
    pub hits: u64,
    /// Takes that had to allocate.
    pub misses: u64,
    /// Bytes currently held by pooled (idle) buffers.
    pub bytes_held: u64,
    /// High-water mark of `bytes_held`.
    pub bytes_high_water: u64,
}

/// A size-keyed free-list arena for numeric scratch buffers.
#[derive(Debug, Default)]
pub struct Workspace {
    vecs: BTreeMap<usize, Vec<Vec<f64>>>,
    cvecs: BTreeMap<usize, Vec<Vec<Complex>>>,
    mats: BTreeMap<(usize, usize), Vec<Matrix>>,
    stats: WsStats,
    /// Pass-through mode: takes always allocate, recycles always drop.
    passthrough: bool,
    /// Hit/miss counts already folded into the metrics gauges.
    published_hits: u64,
    published_misses: u64,
    published_high_water: u64,
}

impl Workspace {
    /// A pooling workspace, unless `LINVAR_WS_DISABLE=1` is set in the
    /// environment (then a pass-through one).
    pub fn new() -> Self {
        if std::env::var("LINVAR_WS_DISABLE").is_ok_and(|v| v == "1") {
            Self::passthrough()
        } else {
            Self::pooling()
        }
    }

    /// A pooling workspace regardless of the environment.
    pub fn pooling() -> Self {
        Workspace::default()
    }

    /// A pass-through workspace: behaves exactly like the allocator.
    pub fn passthrough() -> Self {
        Workspace {
            passthrough: true,
            ..Workspace::default()
        }
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> WsStats {
        self.stats
    }

    /// Takes a zero-filled `Vec<f64>` of exactly `len` elements.
    pub fn take_vec(&mut self, len: usize) -> Vec<f64> {
        if !self.passthrough {
            if let Some(mut v) = self.vecs.get_mut(&len).and_then(Vec::pop) {
                self.note_hit(bytes_f64(len));
                v.fill(0.0);
                return v;
            }
        }
        self.note_miss();
        vec![0.0; len]
    }

    /// Returns a `Vec<f64>` to the pool (keyed by its length).
    pub fn recycle_vec(&mut self, v: Vec<f64>) {
        let bytes = bytes_f64(v.len());
        if self.accepts(v.len(), bytes) {
            self.note_held(bytes);
            self.vecs.entry(v.len()).or_default().push(v);
        }
    }

    /// Takes a zero-filled `Vec<Complex>` of exactly `len` elements.
    pub fn take_cvec(&mut self, len: usize) -> Vec<Complex> {
        if !self.passthrough {
            if let Some(mut v) = self.cvecs.get_mut(&len).and_then(Vec::pop) {
                self.note_hit(bytes_cplx(len));
                v.fill(Complex::ZERO);
                return v;
            }
        }
        self.note_miss();
        vec![Complex::ZERO; len]
    }

    /// Returns a `Vec<Complex>` to the pool (keyed by its length).
    pub fn recycle_cvec(&mut self, v: Vec<Complex>) {
        let bytes = bytes_cplx(v.len());
        if self.accepts(v.len(), bytes) {
            self.note_held(bytes);
            self.cvecs.entry(v.len()).or_default().push(v);
        }
    }

    /// Takes an all-zeros matrix of exactly `rows x cols`.
    pub fn take_matrix(&mut self, rows: usize, cols: usize) -> Matrix {
        if !self.passthrough {
            if let Some(mut m) = self.mats.get_mut(&(rows, cols)).and_then(Vec::pop) {
                self.note_hit(bytes_f64(rows * cols));
                m.as_mut_slice().fill(0.0);
                return m;
            }
        }
        self.note_miss();
        Matrix::zeros(rows, cols)
    }

    /// Returns a matrix to the pool (keyed by its shape).
    pub fn recycle_matrix(&mut self, m: Matrix) {
        let bytes = bytes_f64(m.rows() * m.cols());
        if self.accepts(m.rows() * m.cols(), bytes) {
            self.note_held(bytes);
            self.mats.entry((m.rows(), m.cols())).or_default().push(m);
        }
    }

    fn accepts(&self, elems: usize, bytes: u64) -> bool {
        !self.passthrough && elems > 0 && self.stats.bytes_held + bytes <= MAX_HELD_BYTES
    }

    fn note_hit(&mut self, bytes: u64) {
        self.stats.hits += 1;
        self.stats.bytes_held = self.stats.bytes_held.saturating_sub(bytes);
    }

    fn note_miss(&mut self) {
        self.stats.misses += 1;
    }

    fn note_held(&mut self, bytes: u64) {
        self.stats.bytes_held += bytes;
        self.stats.bytes_high_water = self.stats.bytes_high_water.max(self.stats.bytes_held);
    }

    /// Folds stats accumulated since the last publish into the global
    /// `ws.*` metrics gauges (no-op when the sink is disabled).
    fn publish_metrics(&mut self) {
        use linvar_metrics::Gauge;
        let dh = self.stats.hits - self.published_hits;
        let dm = self.stats.misses - self.published_misses;
        if dh > 0 {
            linvar_metrics::gauge_add(Gauge::WsHits, dh);
            self.published_hits = self.stats.hits;
        }
        if dm > 0 {
            linvar_metrics::gauge_add(Gauge::WsMisses, dm);
            self.published_misses = self.stats.misses;
        }
        if self.stats.bytes_high_water > self.published_high_water {
            linvar_metrics::gauge_max(Gauge::WsBytesHeld, self.stats.bytes_high_water);
            self.published_high_water = self.stats.bytes_high_water;
        }
    }
}

fn bytes_f64(elems: usize) -> u64 {
    (elems * std::mem::size_of::<f64>()) as u64
}

fn bytes_cplx(elems: usize) -> u64 {
    (elems * std::mem::size_of::<Complex>()) as u64
}

thread_local! {
    static WORKSPACE: RefCell<Workspace> = RefCell::new(Workspace::new());
}

/// Runs `f` with this thread's workspace arena.
///
/// One arena exists per OS thread, so the Monte-Carlo drivers get one
/// arena per worker with no API plumbing. On scope exit the arena's
/// stats are folded into the `ws.*` metrics gauges.
///
/// Re-entrant calls (an `f` that itself reaches `with_workspace`) get
/// a temporary pass-through workspace instead of deadlocking on the
/// thread-local — semantically identical, just without pooling — so
/// nesting is safe but pointless; structure code to avoid it.
pub fn with_workspace<R>(f: impl FnOnce(&mut Workspace) -> R) -> R {
    WORKSPACE.with(|cell| match cell.try_borrow_mut() {
        Ok(mut ws) => {
            let out = f(&mut ws);
            ws.publish_metrics();
            out
        }
        Err(_) => f(&mut Workspace::passthrough()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_is_zero_filled_and_recycle_hits() {
        let mut ws = Workspace::pooling();
        let mut v = ws.take_vec(8);
        assert_eq!(v, vec![0.0; 8]);
        v[3] = 42.0;
        ws.recycle_vec(v);
        assert_eq!(ws.stats().bytes_held, 64);
        let v2 = ws.take_vec(8);
        assert_eq!(v2, vec![0.0; 8], "recycled buffer must be zeroed");
        let s = ws.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert_eq!(s.bytes_held, 0);
        assert_eq!(s.bytes_high_water, 64);
    }

    #[test]
    fn size_keying_is_exact() {
        let mut ws = Workspace::pooling();
        ws.recycle_vec(vec![1.0; 4]);
        let v = ws.take_vec(5);
        assert_eq!(v.len(), 5);
        assert_eq!(ws.stats().misses, 1, "length mismatch must not hit");
    }

    #[test]
    fn matrix_pool_keyed_by_shape() {
        let mut ws = Workspace::pooling();
        let m = ws.take_matrix(3, 2);
        ws.recycle_matrix(m);
        let m2 = ws.take_matrix(2, 3);
        assert_eq!((m2.rows(), m2.cols()), (2, 3));
        assert_eq!(ws.stats().misses, 2, "transposed shape is a different key");
        let m3 = ws.take_matrix(3, 2);
        assert_eq!(ws.stats().hits, 1);
        assert!(m3.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn complex_pool_round_trips() {
        let mut ws = Workspace::pooling();
        let mut v = ws.take_cvec(6);
        v[0] = Complex::new(1.0, -2.0);
        ws.recycle_cvec(v);
        let v2 = ws.take_cvec(6);
        assert!(v2.iter().all(|&c| c == Complex::ZERO));
        assert_eq!(ws.stats().hits, 1);
    }

    #[test]
    fn passthrough_never_pools() {
        let mut ws = Workspace::passthrough();
        ws.recycle_vec(vec![0.0; 16]);
        assert_eq!(ws.stats().bytes_held, 0);
        let _ = ws.take_vec(16);
        assert_eq!(ws.stats().misses, 1);
        assert_eq!(ws.stats().hits, 0);
    }

    #[test]
    fn zero_length_buffers_are_not_pooled() {
        let mut ws = Workspace::pooling();
        ws.recycle_vec(Vec::new());
        assert_eq!(ws.stats().bytes_held, 0);
    }

    #[test]
    fn held_bytes_are_capped() {
        let mut ws = Workspace::pooling();
        let big = (MAX_HELD_BYTES as usize) / std::mem::size_of::<f64>();
        ws.recycle_vec(vec![0.0; big]);
        assert!(ws.stats().bytes_held > 0);
        ws.recycle_vec(vec![0.0; 8]);
        assert_eq!(
            ws.stats().bytes_held,
            bytes_f64(big),
            "recycle past the cap must drop"
        );
    }

    #[test]
    fn with_workspace_reuses_across_scopes_and_nests_safely() {
        let v = with_workspace(|ws| ws.take_vec(33));
        with_workspace(|ws| ws.recycle_vec(v));
        let (outer_hit, inner_miss) = with_workspace(|ws| {
            let v = ws.take_vec(33);
            let hit = ws.stats().hits;
            // Nested entry must not panic; it gets a pass-through arena.
            let inner = with_workspace(|inner| {
                let _ = inner.take_vec(33);
                inner.stats().misses
            });
            ws.recycle_vec(v);
            (hit, inner)
        });
        assert!(outer_hit >= 1, "thread-local pool must persist");
        assert_eq!(inner_miss, 1, "nested scope is pass-through");
    }
}
