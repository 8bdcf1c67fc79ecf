//! Allocation audit for the Monte-Carlo hot path.
//!
//! A counting global allocator measures how many heap allocations one
//! steady-state sample costs inside the sample executor
//! ([`monte_carlo_par`] at one worker, which evaluates inline on the
//! calling thread). The count is differenced between two run lengths, so
//! per-run fixed costs (result vectors, the summary) cancel and only the
//! true per-sample cost remains.
//!
//! The budgets below are **regression tripwires**, not aspirations. A
//! stage evaluation allocates its per-sample matrices plainly, a few
//! dozen small buffers; what the budget must never include is an
//! allocation per SC iteration or per timestep, which would scale with
//! the work instead of the sample. If a test fails, a hot-path change
//! added allocations: reuse a buffer the evaluation already owns or, if
//! the allocation is genuinely unavoidable, raise the budget in the same
//! commit that explains why.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use linvar_devices::{tech_018, DeviceVariation};
use linvar_interconnect::{CoupledLineSpec, WireTech};
use linvar_mor::ReductionMethod;
use linvar_stats::monte_carlo_par;
use linvar_teta::{StageModel, StopRule, Waveform};

/// Counts every allocation; `realloc` counts once (it may move storage).
struct CountingAlloc;

thread_local! {
    /// Allocations made by this thread. The harness runs the audits
    /// concurrently, and each audit measures work on its own thread, so a
    /// process-wide count would charge it with its neighbours' allocations.
    static ALLOC_CALLS: Cell<u64> = const { Cell::new(0) };
}

fn count_alloc() {
    // `try_with`: the slot is gone while the thread's TLS is torn down.
    let _ = ALLOC_CALLS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc();
        System.realloc(ptr, layout, new_size)
    }
}

// Each file in `tests/` is its own binary, so this allocator governs only
// this audit and cannot interfere with the rest of the suite.
#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOC_CALLS.with(Cell::get)
}

/// Steady-state per-sample allocation budget for one stage evaluation
/// driven through the executor at one worker.
///
/// The measured cost is ~170 allocations per sample (6th-order ROM, one
/// driver). It is a *small documented constant* — independent of the
/// transient length and the SC iteration count — made up of:
///
///   * the reduced model at `w` (`VariationalRom::evaluate`: `Gr`, `Cr`
///     and `Br`);
///   * pole/residue extraction: the LU copy of `Gr` and its pivot
///     vector; `T = -Gr⁻¹Cr` and `Gr⁻¹Br`, each a result matrix plus one
///     column and one solution vector that `LuFactor::solve_mat` reuses
///     across columns; complex eigensolver internals (`CMatrix`
///     temporaries) and the per-sample `PoleResidueModel` (one small
///     `CMatrix` per pole);
///   * `stabilize`'s filtered copy of that model (β-rescaled residues);
///   * per-run solver setup: `DriverSpec` (input waveform + MOS model
///     clones), `RecursiveConvolution` state, and the recorded output
///     waveforms with their compression buffers (under a stop rule, each
///     stop check compresses the read port's prefix once);
///   * executor bookkeeping for the outcome of each sample.
///
/// What the budget must **never** again include: per-SC-iteration or
/// per-timestep allocation (the former cost scaled with the ~36k chord
/// iterations a sample runs — reusing the loop's own buffers there is
/// where the hot-path speedup came from).
const PER_SAMPLE_BUDGET: u64 = 400;

#[test]
fn steady_state_monte_carlo_sample_allocates_within_budget() {
    // Single coupled line, one driver — the smallest realistic stage.
    let tech = tech_018();
    let spec = CoupledLineSpec::new(1, 20e-6, WireTech::m018());
    let built = linvar_interconnect::builder::build_coupled_lines(&spec).unwrap();
    let model = StageModel::build(
        &built.netlist,
        &[built.inputs[0]],
        &tech,
        ReductionMethod::Prima { order: 6 },
        0.02,
    )
    .unwrap();
    let input = Waveform::ramp(0.0, 1.8, 20e-12, 50e-12);

    // Mild parameter excursions: every sample must take the clean path so
    // the two windows measure identical work per sample.
    let sample_at = |i: usize| {
        let x = (i as f64) / 64.0 - 0.25;
        [x, -x, 0.5 * x, 0.0, x]
    };
    // Both window rules: the full window of a direct `evaluate`, and the
    // stop rule a path puts on the far end (its output falls).
    let rule = StopRule {
        port: 1,
        rising: false,
        tail: 4.0,
    };
    for stop in [None, Some(rule)] {
        let eval = |w: &[f64; 5]| -> Result<f64, String> {
            let res = model
                .evaluate_until(
                    w,
                    DeviceVariation::nominal(),
                    std::slice::from_ref(&input),
                    1e-12,
                    1.5e-9,
                    stop,
                )
                .map_err(|e| e.to_string())?;
            if stop.is_some() && res.stats.steps >= 1500 {
                return Err("the stop rule never fired".into());
            }
            res.waveforms[1]
                .crossing(0.9, false)
                .ok_or_else(|| "no crossing".to_string())
        };

        // Warm-up: lets one-time lazy state (thread-locals, first buffer
        // growth) settle. Uses the same driver as the measurement. One
        // worker evaluates inline, so every sample's allocations land on
        // this thread's counter.
        let warm: Vec<[f64; 5]> = (0..4).map(sample_at).collect();
        let r = monte_carlo_par(&warm, 1, |w| eval(w));
        assert_eq!(r.failures, 0, "warm-up failed: {:?}", r.first_error);

        // Two measured windows over identical per-sample work; differencing
        // cancels per-run fixed allocations.
        let short: Vec<[f64; 5]> = (0..4).map(sample_at).collect();
        let long: Vec<[f64; 5]> = (0..12).map(sample_at).collect();

        let a0 = allocs();
        let r_short = monte_carlo_par(&short, 1, |w| eval(w));
        let a1 = allocs();
        let r_long = monte_carlo_par(&long, 1, |w| eval(w));
        let a2 = allocs();
        assert_eq!(r_short.failures + r_long.failures, 0, "samples failed");

        let short_cost = a1 - a0;
        let long_cost = a2 - a1;
        let extra_samples = (long.len() - short.len()) as u64;
        let per_sample = long_cost.saturating_sub(short_cost) / extra_samples;

        eprintln!(
            "alloc audit (stop rule {stop:?}): {per_sample} allocations per steady-state sample"
        );
        assert!(
            per_sample <= PER_SAMPLE_BUDGET,
            "steady-state Monte-Carlo sample (stop rule {stop:?}) allocated \
             {per_sample} times (budget: {PER_SAMPLE_BUDGET}). A hot-path change \
             added per-sample allocation — reuse a buffer the evaluation \
             already owns, or raise PER_SAMPLE_BUDGET in \
             tests/alloc_audit.rs with a documented breakdown. \
             (window costs: {short_cost} for {} samples, {long_cost} for {})",
            short.len(),
            long.len(),
        );
    }
}

/// Steady-state allocation budget for one sparse refactor + solve cycle
/// once the symbolic analysis is cached.
///
/// The numeric refactorization writes into the factor storage resident in
/// the `SparseLu` (pattern replay, no fresh `Vec`s), and `solve_into`
/// allocates one order-`n` vector, the row-permuted right-hand side it
/// substitutes in place. What remains per cycle is that vector and a
/// handful of bookkeeping allocations from assembling the updated
/// `SparseMatrix` values vector — the documented constant below,
/// independent of matrix size and fill. If this trips, a sparse hot-path
/// change reintroduced per-cycle allocation: keep new scratch in the
/// resident factor storage.
const SPARSE_CYCLE_BUDGET: u64 = 24;

#[test]
fn sparse_refactor_solve_cycle_allocates_within_budget() {
    use linvar_numeric::{SparseLu, SparseMatrix};

    // MNA-ladder shape (conductance chain + leaks + one source branch):
    // the same stamp structure the transient engine refactors every time
    // the timestep changes.
    let n_nodes = 200;
    let dim = n_nodes + 1;
    let triplets = |g: f64| -> Vec<(usize, usize, f64)> {
        let mut t = Vec::new();
        for i in 1..n_nodes {
            t.push((i, i, g));
            t.push((i - 1, i - 1, g));
            t.push((i, i - 1, -g));
            t.push((i - 1, i, -g));
        }
        for i in 0..n_nodes {
            t.push((i, i, 1e-9));
        }
        t.push((0, n_nodes, 1.0));
        t.push((n_nodes, 0, 1.0));
        t
    };
    let b: Vec<f64> = (0..dim).map(|i| (i as f64).sin()).collect();

    // One cycle of the steady-state loop: re-assemble values (timestep
    // change rescales the conductances, pattern untouched), refactor on
    // the cached pattern, solve in place.
    let mut lu =
        SparseLu::new(&SparseMatrix::from_triplets(dim, dim, &triplets(1e-3)).unwrap()).unwrap();
    let mut x = Vec::new();
    let mut cycle = |k: usize| {
        let g = 1e-3 * (1.0 + 0.1 * (k % 7) as f64);
        let a = SparseMatrix::from_triplets(dim, dim, &triplets(g)).unwrap();
        lu.refactor(&a).unwrap();
        lu.solve_into(&b, &mut x).unwrap();
        assert!(x.iter().all(|v| v.is_finite()));
    };

    // Warm-up grows `x` and the triplet buffers to their high-water
    // marks; then difference two window lengths so fixed costs cancel.
    for k in 0..4 {
        cycle(k);
    }
    let a0 = allocs();
    for k in 0..4 {
        cycle(k);
    }
    let a1 = allocs();
    for k in 0..12 {
        cycle(k);
    }
    let a2 = allocs();

    let per_cycle = (a2 - a1).saturating_sub(a1 - a0) / 8;
    eprintln!("alloc audit: {per_cycle} allocations per sparse refactor+solve cycle");
    assert!(
        per_cycle <= SPARSE_CYCLE_BUDGET,
        "sparse refactor+solve cycle allocated {per_cycle} times \
         (budget: {SPARSE_CYCLE_BUDGET}). A sparse hot-path change \
         reintroduced per-cycle allocation — keep scratch resident in \
         SparseLu, or raise SPARSE_CYCLE_BUDGET in tests/alloc_audit.rs \
         with a documented breakdown."
    );
}
