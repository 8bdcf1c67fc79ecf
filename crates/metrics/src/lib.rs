//! Lock-free observability layer for the linvar solver stack.
//!
//! The simulation crates (`numeric`, `mor`, `teta`, `spice`, `stats`,
//! `core`) record *where time goes* (phase timers: LU factor/solve, eigen,
//! PRIMA/PACT projection, pole-residue stabilization, SPICE DC/transient,
//! stage and sample evaluation, checkpoint writes) and *how often the
//! recovery machinery fires* (counters: Newton iterations, SC chord
//! iterations, timestep halvings, DC-ladder rungs, MOR order drops,
//! engine-rung selections, sample retries). A benchmark binary enables the
//! sink, runs its campaign, and serializes a [`MetricsReport`] snapshot to
//! canonical sorted-key JSON — the machine-readable report whose counters
//! `ci.sh` diffs across worker counts.
//!
//! # Design contract
//!
//! * **Wait-free hot path.** Events accumulate into plain thread-local
//!   arrays — no atomics, no locks, no allocation per event. A thread's
//!   buffer is folded into the global atomic accumulators when it calls
//!   [`flush_local`] (the Monte-Carlo worker loops do this as their last
//!   action, which `thread::scope`'s join synchronizes with), when the
//!   coordinating thread calls [`snapshot`], and — as a fallback for
//!   free-running threads — when the thread exits and its TLS drops.
//!   Note that `thread::scope` can return *before* a finished worker's TLS
//!   destructors run, so scoped workers must use the explicit flush.
//! * **Zero-cost when disabled.** Every recording entry point first does a
//!   single relaxed load of a global flag; the sink starts disabled, so
//!   library users who never call [`enable`] pay one predictable branch.
//! * **Deterministic counters, best-effort timers.** Counter values count
//!   *work*, which the workspace determinism contract fixes per seed
//!   regardless of worker count — the `counters` section of the JSON
//!   snapshot is bitwise-diffable across thread counts. Timer values count
//!   *nanoseconds*, which are machine- and run-dependent; they live in a
//!   separate `timers` section that trend tooling reads but CI never diffs.
//!
//! # Snapshot semantics
//!
//! [`snapshot`] folds the calling thread's buffer and reads the global
//! accumulators. Threads still running concurrently may hold unflushed
//! events; take snapshots from the coordinating thread after worker scopes
//! have joined (the bench bins and campaign driver do exactly that).
//! [`reset`] zeroes the globals and the calling thread's buffer — call it
//! from the same coordinating thread between measured sections.

#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

mod json;
mod report;

pub use json::Json;
pub use report::{MetricsReport, TimerStat};

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// Timed solver phases. Each gets a call count, a total-nanoseconds
/// accumulator, and a log2-bucketed duration histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// LU factorization ([`linvar-numeric`]'s `LuFactor::new`).
    LuFactor,
    /// Triangular solve against an existing factorization.
    LuSolve,
    /// Dense nonsymmetric eigendecomposition (pole extraction).
    Eigen,
    /// PRIMA block-Arnoldi basis + congruence projection.
    PrimaProject,
    /// PACT pole-analysis reduction.
    PactProject,
    /// Pole-residue stabilization filter.
    Stabilize,
    /// One TETA stage evaluation (successive-chords transient).
    StageEval,
    /// One whole-path Monte-Carlo sample evaluation.
    SampleEval,
    /// SPICE DC operating-point ladder.
    SpiceDc,
    /// SPICE transient run (after DC).
    SpiceTran,
    /// Campaign checkpoint serialization + atomic write.
    CheckpointWrite,
    /// Sparse-LU symbolic analysis (fill-reducing ordering).
    SparseSymbolic,
    /// Sparse-LU numeric factorization (first factor or pattern-reuse
    /// refactor).
    SparseNumericFactor,
    /// Sparse-LU triangular solve.
    SparseSolve,
    /// One accepted connection on the campaign service listener (accept
    /// through handler dispatch).
    ServeAccept,
    /// One HTTP request handled by the campaign service (parse through
    /// response write).
    ServeHandle,
    /// Spectral-coefficient solve: gPC projection or the stochastic-
    /// testing Vandermonde solve, node values in, coefficients out.
    SpectralSolve,
    /// AC small-signal factorization: real-embedded complex MNA factor
    /// (first factor or pattern-reuse refactor at a new frequency).
    AcFactor,
    /// AC small-signal solve against an existing complex factorization.
    AcSolve,
    /// The successive-chords fixed points of one TETA stage run: the DC
    /// point and the time loop, stop-rule checks included.
    ScLoop,
}

/// Number of [`Phase`] variants.
pub const N_PHASES: usize = 20;

impl Phase {
    /// Every phase, in declaration order (= index order).
    pub const ALL: [Phase; N_PHASES] = [
        Phase::LuFactor,
        Phase::LuSolve,
        Phase::Eigen,
        Phase::PrimaProject,
        Phase::PactProject,
        Phase::Stabilize,
        Phase::StageEval,
        Phase::SampleEval,
        Phase::SpiceDc,
        Phase::SpiceTran,
        Phase::CheckpointWrite,
        Phase::SparseSymbolic,
        Phase::SparseNumericFactor,
        Phase::SparseSolve,
        Phase::ServeAccept,
        Phase::ServeHandle,
        Phase::SpectralSolve,
        Phase::AcFactor,
        Phase::AcSolve,
        Phase::ScLoop,
    ];

    /// Stable snake_case name used as the JSON key.
    pub fn name(self) -> &'static str {
        match self {
            Phase::LuFactor => "lu_factor",
            Phase::LuSolve => "lu_solve",
            Phase::Eigen => "eigen",
            Phase::PrimaProject => "prima_project",
            Phase::PactProject => "pact_project",
            Phase::Stabilize => "stabilize",
            Phase::StageEval => "stage_eval",
            Phase::ScLoop => "sc_loop",
            Phase::SampleEval => "sample_eval",
            Phase::SpiceDc => "spice_dc",
            Phase::SpiceTran => "spice_tran",
            Phase::CheckpointWrite => "checkpoint_write",
            // The sparse phases keep the short names the chains benchmark
            // records into `BENCH_chains.json`.
            Phase::SparseSymbolic => "symbolic",
            Phase::SparseNumericFactor => "numeric_factor",
            Phase::SparseSolve => "solve",
            Phase::ServeAccept => "serve_accept",
            Phase::ServeHandle => "serve_handle",
            Phase::SpectralSolve => "spectral_solve",
            Phase::AcFactor => "ac_factor",
            Phase::AcSolve => "ac_solve",
        }
    }
}

/// Monotone event counters. All are *work* counts: for a fixed seed and
/// configuration they are identical at any worker count, so the `counters`
/// JSON section is diffable across runs (the workspace determinism
/// contract, extended to observability).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Counter {
    /// LU factorizations that needed the diagonal-perturbation retry.
    LuFactorRecoveries,
    /// Eigendecompositions served by the perturbed retry.
    EigenRecoveries,
    /// MOR stabilization ladder served a lower order than requested.
    MorOrderDrops,
    /// Unstable poles removed by the stabilization filter.
    MorUnstablePolesRemoved,
    /// TETA successive-chords iterations (all stages, all timesteps).
    ScChordIterations,
    /// TETA stage evaluations that walked past the first ladder attempt.
    ScStageRetries,
    /// SPICE Newton iterations (DC + transient).
    NewtonIterations,
    /// SPICE transient timestep halvings.
    TimestepHalvings,
    /// SPICE DC runs solved by direct Newton.
    DcDirectNewton,
    /// SPICE DC runs that needed gmin stepping.
    DcGminStepping,
    /// SPICE DC runs that needed source stepping.
    DcSourceStepping,
    /// Samples served at the `VariationalRom` rung (clean fast path).
    RungVariationalRom,
    /// Samples served at the `RefinedSc` rung.
    RungRefinedSc,
    /// Samples served at the `ExactReduction` rung.
    RungExactReduction,
    /// Samples served at the `DegradedOrder` rung.
    RungDegradedOrder,
    /// Samples served at the `UnreducedMna` rung.
    RungUnreducedMna,
    /// Samples served by the whole-path SPICE baseline rescue.
    RungSpiceBaseline,
    /// Per-stage SPICE rescues inside otherwise-TETA samples.
    StageSpiceRescues,
    /// Monte-Carlo samples completed (success or quarantined failure).
    McSamplesCompleted,
    /// Monte-Carlo samples that exhausted their attempt budget.
    McSamplesFailed,
    /// Extra per-sample attempts beyond the first (retry pressure).
    McSampleRetries,
    /// Campaign snapshots written (periodic + final).
    CheckpointsWritten,
    /// Bytes of checkpoint payload written.
    CheckpointBytes,
    /// Orphaned `*.tmp` snapshot siblings reaped by the checkpoint
    /// hygiene pass (resume and server recovery scans).
    CampaignTmpReaped,
    /// HTTP requests handled by the campaign service (any status).
    ServeRequests,
    /// Campaign jobs admitted by the service (journaled as queued).
    ServeJobsSubmitted,
    /// Submissions answered with an existing job (idempotent dedup by
    /// campaign fingerprint).
    ServeDuplicateSubmits,
    /// Submissions shed with HTTP 429 by admission control.
    ServeShed429,
    /// Jobs that ran to a `Done` terminal state.
    ServeJobsCompleted,
    /// Jobs that ended `Failed`.
    ServeJobsFailed,
    /// Jobs that ended `Cancelled`.
    ServeJobsCancelled,
    /// In-flight jobs re-queued by the startup recovery scan.
    ServeJobsRecovered,
    /// Faults injected by the serve fault harness.
    ServeFaultsInjected,
    /// Requests rejected as malformed, oversized, or timed out (HTTP
    /// 4xx other than 404/429).
    ServeBadRequests,
    /// Collocation/testing nodes whose model evaluation completed
    /// (success or quarantined failure) in a spectral engine run.
    SpectralNodesEvaluated,
    /// Spectral-coefficient solves (one per completed gPC run).
    SpectralSolves,
    /// gPC coefficients produced across all spectral solves.
    SpectralCoefficients,
    /// Deterministic surrogate evaluations behind spectral quantiles.
    SpectralSurrogateSamples,
    /// AC frequency points solved (one per sweep point per run).
    AcPointsSolved,
    /// AC sweep points served by the pattern-reuse refactor fast path
    /// (every point after the first at a fixed sparsity pattern).
    AcRefactors,
    /// AC factorizations that needed the diagonal-perturbation retry.
    AcFactorRecoveries,
    /// Stop-rule checks that failed, so the time loop stepped on.
    ScStopResumes,
}

/// Number of [`Counter`] variants.
pub const N_COUNTERS: usize = 42;

impl Counter {
    /// Every counter, in declaration order (= index order).
    pub const ALL: [Counter; N_COUNTERS] = [
        Counter::LuFactorRecoveries,
        Counter::EigenRecoveries,
        Counter::MorOrderDrops,
        Counter::MorUnstablePolesRemoved,
        Counter::ScChordIterations,
        Counter::ScStageRetries,
        Counter::NewtonIterations,
        Counter::TimestepHalvings,
        Counter::DcDirectNewton,
        Counter::DcGminStepping,
        Counter::DcSourceStepping,
        Counter::RungVariationalRom,
        Counter::RungRefinedSc,
        Counter::RungExactReduction,
        Counter::RungDegradedOrder,
        Counter::RungUnreducedMna,
        Counter::RungSpiceBaseline,
        Counter::StageSpiceRescues,
        Counter::McSamplesCompleted,
        Counter::McSamplesFailed,
        Counter::McSampleRetries,
        Counter::CheckpointsWritten,
        Counter::CheckpointBytes,
        Counter::CampaignTmpReaped,
        Counter::ServeRequests,
        Counter::ServeJobsSubmitted,
        Counter::ServeDuplicateSubmits,
        Counter::ServeShed429,
        Counter::ServeJobsCompleted,
        Counter::ServeJobsFailed,
        Counter::ServeJobsCancelled,
        Counter::ServeJobsRecovered,
        Counter::ServeFaultsInjected,
        Counter::ServeBadRequests,
        Counter::SpectralNodesEvaluated,
        Counter::SpectralSolves,
        Counter::SpectralCoefficients,
        Counter::SpectralSurrogateSamples,
        Counter::AcPointsSolved,
        Counter::AcRefactors,
        Counter::AcFactorRecoveries,
        Counter::ScStopResumes,
    ];

    /// Stable dotted name used as the JSON key.
    pub fn name(self) -> &'static str {
        match self {
            Counter::LuFactorRecoveries => "lu.factor_recoveries",
            Counter::EigenRecoveries => "eigen.recoveries",
            Counter::MorOrderDrops => "mor.order_drops",
            Counter::MorUnstablePolesRemoved => "mor.unstable_poles_removed",
            Counter::ScChordIterations => "sc.chord_iterations",
            Counter::ScStageRetries => "sc.stage_retries",
            Counter::ScStopResumes => "sc.stop_resumes",
            Counter::NewtonIterations => "spice.newton_iterations",
            Counter::TimestepHalvings => "spice.timestep_halvings",
            Counter::DcDirectNewton => "dc.direct_newton",
            Counter::DcGminStepping => "dc.gmin_stepping",
            Counter::DcSourceStepping => "dc.source_stepping",
            Counter::RungVariationalRom => "rung.variational_rom",
            Counter::RungRefinedSc => "rung.refined_sc",
            Counter::RungExactReduction => "rung.exact_reduction",
            Counter::RungDegradedOrder => "rung.degraded_order",
            Counter::RungUnreducedMna => "rung.unreduced_mna",
            Counter::RungSpiceBaseline => "rung.spice_baseline",
            Counter::StageSpiceRescues => "rung.stage_spice_rescues",
            Counter::McSamplesCompleted => "mc.samples_completed",
            Counter::McSamplesFailed => "mc.samples_failed",
            Counter::McSampleRetries => "mc.sample_retries",
            Counter::CheckpointsWritten => "campaign.checkpoints_written",
            Counter::CheckpointBytes => "campaign.checkpoint_bytes",
            Counter::CampaignTmpReaped => "campaign.tmp_reaped",
            Counter::ServeRequests => "serve.requests",
            Counter::ServeJobsSubmitted => "serve.jobs_submitted",
            Counter::ServeDuplicateSubmits => "serve.duplicate_submits",
            Counter::ServeShed429 => "serve.shed_429",
            Counter::ServeJobsCompleted => "serve.jobs_completed",
            Counter::ServeJobsFailed => "serve.jobs_failed",
            Counter::ServeJobsCancelled => "serve.jobs_cancelled",
            Counter::ServeJobsRecovered => "serve.jobs_recovered",
            Counter::ServeFaultsInjected => "serve.faults_injected",
            Counter::ServeBadRequests => "serve.bad_requests",
            Counter::SpectralNodesEvaluated => "spectral.nodes_evaluated",
            Counter::SpectralSolves => "spectral.solves",
            Counter::SpectralCoefficients => "spectral.coefficients",
            Counter::SpectralSurrogateSamples => "spectral.surrogate_samples",
            Counter::AcPointsSolved => "ac.points_solved",
            Counter::AcRefactors => "ac.refactors",
            Counter::AcFactorRecoveries => "ac.factor_recoveries",
        }
    }
}

/// Log2 duration-histogram buckets per phase: bucket `k` counts durations
/// in `[2^(k-1), 2^k)` nanoseconds (bucket 0 is `< 1 ns`); the last bucket
/// absorbs everything from ~9 minutes up.
pub const N_BUCKETS: usize = 40;

fn bucket_of(ns: u64) -> usize {
    ((u64::BITS - ns.leading_zeros()) as usize).min(N_BUCKETS - 1)
}

// ---------------------------------------------------------------------------
// Global accumulators (merge targets) and the enable flag.
// ---------------------------------------------------------------------------

static ENABLED: AtomicBool = AtomicBool::new(false);
static G_COUNTERS: [AtomicU64; N_COUNTERS] = [const { AtomicU64::new(0) }; N_COUNTERS];
static G_CALLS: [AtomicU64; N_PHASES] = [const { AtomicU64::new(0) }; N_PHASES];
static G_NS: [AtomicU64; N_PHASES] = [const { AtomicU64::new(0) }; N_PHASES];
#[allow(clippy::large_stack_arrays)]
static G_BUCKETS: [[AtomicU64; N_BUCKETS]; N_PHASES] =
    [const { [const { AtomicU64::new(0) }; N_BUCKETS] }; N_PHASES];

// ---------------------------------------------------------------------------
// Thread-local buffer (the wait-free hot path).
// ---------------------------------------------------------------------------

struct LocalBuf {
    counters: [u64; N_COUNTERS],
    calls: [u64; N_PHASES],
    ns: [u64; N_PHASES],
    buckets: [[u64; N_BUCKETS]; N_PHASES],
    dirty: bool,
}

impl LocalBuf {
    const fn zeroed() -> Self {
        LocalBuf {
            counters: [0; N_COUNTERS],
            calls: [0; N_PHASES],
            ns: [0; N_PHASES],
            buckets: [[0; N_BUCKETS]; N_PHASES],
            dirty: false,
        }
    }

    /// Folds this buffer into the global atomics and zeroes it.
    fn flush(&mut self) {
        if !self.dirty {
            return;
        }
        for (i, v) in self.counters.iter_mut().enumerate() {
            if *v != 0 {
                G_COUNTERS[i].fetch_add(*v, Ordering::Relaxed);
                *v = 0;
            }
        }
        for (i, v) in self.calls.iter_mut().enumerate() {
            if *v != 0 {
                G_CALLS[i].fetch_add(*v, Ordering::Relaxed);
                *v = 0;
            }
        }
        for (i, v) in self.ns.iter_mut().enumerate() {
            if *v != 0 {
                G_NS[i].fetch_add(*v, Ordering::Relaxed);
                *v = 0;
            }
        }
        for (p, row) in self.buckets.iter_mut().enumerate() {
            for (b, v) in row.iter_mut().enumerate() {
                if *v != 0 {
                    G_BUCKETS[p][b].fetch_add(*v, Ordering::Relaxed);
                    *v = 0;
                }
            }
        }
        self.dirty = false;
    }
}

impl Drop for LocalBuf {
    fn drop(&mut self) {
        // Fallback merge for free-running threads. Scoped workers cannot
        // rely on this (their scope may be observed as joined before TLS
        // teardown) and call `flush_local()` explicitly instead.
        self.flush();
    }
}

thread_local! {
    static LOCAL: RefCell<LocalBuf> = const { RefCell::new(LocalBuf::zeroed()) };
}

// ---------------------------------------------------------------------------
// Public recording API.
// ---------------------------------------------------------------------------

/// Turns the sink on. Off by default; recording entry points are a single
/// relaxed load + branch while off.
pub fn enable() {
    ENABLED.store(true, Ordering::SeqCst);
}

/// Turns the sink off (already-recorded events are kept until [`reset`]).
pub fn disable() {
    ENABLED.store(false, Ordering::SeqCst);
}

/// Whether the sink is currently recording.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Zeroes the global accumulators and the calling thread's buffer.
///
/// Call from the coordinating thread between measured sections, after any
/// worker scopes have joined (concurrent recorders would survive partly).
pub fn reset() {
    LOCAL.with(|l| *l.borrow_mut() = LocalBuf::zeroed());
    for a in &G_COUNTERS {
        a.store(0, Ordering::Relaxed);
    }
    for a in &G_CALLS {
        a.store(0, Ordering::Relaxed);
    }
    for a in &G_NS {
        a.store(0, Ordering::Relaxed);
    }
    for row in &G_BUCKETS {
        for a in row {
            a.store(0, Ordering::Relaxed);
        }
    }
}

/// Adds `n` to a counter. Wait-free (thread-local) when enabled; a single
/// relaxed load when disabled.
#[inline]
pub fn count(c: Counter, n: u64) {
    if !enabled() || n == 0 {
        return;
    }
    let idx = c as usize;
    let fell_through = LOCAL
        .try_with(|l| {
            let mut l = l.borrow_mut();
            l.counters[idx] += n;
            l.dirty = true;
        })
        .is_err();
    if fell_through {
        // TLS teardown (thread exiting): merge straight into the globals.
        G_COUNTERS[idx].fetch_add(n, Ordering::Relaxed);
    }
}

/// Adds 1 to a counter.
#[inline]
pub fn incr(c: Counter) {
    count(c, 1);
}

/// Records one completed `phase` span of `ns` nanoseconds.
#[inline]
pub fn record_ns(p: Phase, ns: u64) {
    if !enabled() {
        return;
    }
    let idx = p as usize;
    let b = bucket_of(ns);
    let fell_through = LOCAL
        .try_with(|l| {
            let mut l = l.borrow_mut();
            l.calls[idx] += 1;
            l.ns[idx] += ns;
            l.buckets[idx][b] += 1;
            l.dirty = true;
        })
        .is_err();
    if fell_through {
        G_CALLS[idx].fetch_add(1, Ordering::Relaxed);
        G_NS[idx].fetch_add(ns, Ordering::Relaxed);
        G_BUCKETS[idx][b].fetch_add(1, Ordering::Relaxed);
    }
}

/// RAII span timer: measures from construction to drop and records into
/// `phase`. When the sink is disabled at construction the guard holds
/// nothing and drop is free.
#[must_use = "the span is measured until the guard drops"]
pub struct PhaseTimer {
    armed: Option<(Phase, Instant)>,
}

impl Drop for PhaseTimer {
    fn drop(&mut self) {
        if let Some((p, t0)) = self.armed.take() {
            let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
            record_ns(p, ns);
        }
    }
}

/// Starts a [`PhaseTimer`] for `phase` (no-op guard when disabled).
#[inline]
pub fn timer(p: Phase) -> PhaseTimer {
    PhaseTimer {
        armed: enabled().then(|| (p, Instant::now())),
    }
}

/// Folds the calling thread's buffer into the global accumulators.
///
/// Worker closures spawned under `std::thread::scope` must call this as
/// their final action: the scope's join synchronizes with the closure's
/// *return*, not with TLS teardown, so the drop-time fallback flush is not
/// guaranteed to be visible to a snapshot taken right after the scope.
pub fn flush_local() {
    let _ = LOCAL.try_with(|l| l.borrow_mut().flush());
}

/// RAII guard returned by [`flush_on_drop`].
pub struct FlushGuard(());

impl Drop for FlushGuard {
    fn drop(&mut self) {
        flush_local();
    }
}

/// Returns a guard that runs [`flush_local`] when dropped — hold it as the
/// first local of a scoped worker closure so every exit path (including
/// `break`s and early returns) merges the thread's buffer before the scope
/// joins.
pub fn flush_on_drop() -> FlushGuard {
    FlushGuard(())
}

/// Flushes the calling thread and captures the merged state as a
/// [`MetricsReport`]. See the module docs for the visibility contract.
pub fn snapshot() -> MetricsReport {
    flush_local();
    let counters = Counter::ALL
        .iter()
        .map(|&c| {
            (
                c.name().to_string(),
                G_COUNTERS[c as usize].load(Ordering::Relaxed),
            )
        })
        .collect();
    let timers = Phase::ALL
        .iter()
        .map(|&p| {
            let i = p as usize;
            let mut buckets: Vec<u64> = G_BUCKETS[i]
                .iter()
                .map(|a| a.load(Ordering::Relaxed))
                .collect();
            while buckets.last() == Some(&0) {
                buckets.pop();
            }
            (
                p.name().to_string(),
                TimerStat {
                    calls: G_CALLS[i].load(Ordering::Relaxed),
                    total_ns: G_NS[i].load(Ordering::Relaxed),
                    buckets,
                },
            )
        })
        .collect();
    MetricsReport::new(counters, timers)
}

/// Serializes tests that touch the process-global sink (cargo's test
/// harness runs `#[test]` fns on parallel threads). Hold the returned
/// guard for the whole test; a poisoned lock is recovered, since sink
/// state is reset at the start of each test anyway.
pub fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enum_indices_match_all_order() {
        for (i, c) in Counter::ALL.iter().enumerate() {
            assert_eq!(*c as usize, i, "{:?}", c);
        }
        for (i, p) in Phase::ALL.iter().enumerate() {
            assert_eq!(*p as usize, i, "{:?}", p);
        }
    }

    #[test]
    fn counter_names_are_unique_and_stable() {
        let mut names: Vec<&str> = Counter::ALL.iter().map(|c| c.name()).collect();
        names.extend(Phase::ALL.iter().map(|p| p.name()));
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate metric name");
    }

    #[test]
    fn bucket_edges() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), N_BUCKETS - 1);
    }

    #[test]
    fn disabled_sink_records_nothing() {
        let _g = test_lock();
        disable();
        reset();
        incr(Counter::NewtonIterations);
        record_ns(Phase::LuFactor, 123);
        {
            let _t = timer(Phase::Eigen);
        }
        let rep = snapshot();
        assert!(rep.counters.values().all(|&v| v == 0));
        assert!(rep.timers.values().all(|t| t.calls == 0 && t.total_ns == 0));
    }

    #[test]
    fn enabled_sink_counts_and_times() {
        let _g = test_lock();
        reset();
        enable();
        count(Counter::ScChordIterations, 7);
        incr(Counter::ScChordIterations);
        record_ns(Phase::LuSolve, 100);
        record_ns(Phase::LuSolve, 5);
        {
            let _t = timer(Phase::StageEval);
        }
        let rep = snapshot();
        disable();
        assert_eq!(rep.counters["sc.chord_iterations"], 8);
        let lu = &rep.timers["lu_solve"];
        assert_eq!(lu.calls, 2);
        assert_eq!(lu.total_ns, 105);
        assert_eq!(lu.buckets.iter().sum::<u64>(), 2);
        assert_eq!(rep.timers["stage_eval"].calls, 1);
        reset();
    }

    #[test]
    fn worker_threads_merge_on_exit() {
        let _g = test_lock();
        reset();
        enable();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        incr(Counter::NewtonIterations);
                    }
                    record_ns(Phase::SampleEval, 50);
                    flush_local();
                });
            }
        });
        let rep = snapshot();
        disable();
        assert_eq!(rep.counters["spice.newton_iterations"], 4000);
        assert_eq!(rep.timers["sample_eval"].calls, 4);
        reset();
    }

    #[test]
    fn reset_zeroes_everything() {
        let _g = test_lock();
        enable();
        incr(Counter::McSamplesCompleted);
        record_ns(Phase::SpiceTran, 9);
        reset();
        let rep = snapshot();
        disable();
        assert!(rep.counters.values().all(|&v| v == 0));
        assert!(rep.timers.values().all(|t| t.calls == 0));
    }
}
