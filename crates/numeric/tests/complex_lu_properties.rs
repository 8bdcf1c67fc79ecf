//! Complex (AC) solver property battery.
//!
//! Property tests drive the real-embedded complex solver ([`CAnySolver`])
//! over randomly generated diagonally-dominant complex systems and demand
//! dense/sparse agreement, bitwise determinism when the same system is
//! solved concurrently from 1/2/8 threads (the symbolic cache is
//! thread-local; nothing about the factorization may depend on what other
//! threads are doing), and recovery-ladder parity between the backends on
//! injected exactly-singular complex systems.

use linvar_numeric::{CAnySolver, Complex, SolverChoice};
use proptest::prelude::*;
use std::sync::Arc;

/// Deterministic complex triplet stream: a few off-diagonal entries per
/// row drawn from the seed slice (real and imaginary parts offset into
/// the seed differently), every 5th entry echoed as a duplicate (the
/// embedding must sum duplicates exactly like the dense `+=` replay),
/// and the diagonal boosted to dominance.
fn random_ctriplets(n: usize, seed: &[f64], fill: usize) -> Vec<(usize, usize, Complex)> {
    let mut t = Vec::new();
    for i in 0..n {
        for k in 0..fill {
            let idx = i * fill + k;
            let re = seed[idx % seed.len()];
            let im = seed[(idx * 3 + 1) % seed.len()];
            let j = (i + 1 + (idx * 7 + 3) % (n - 1).max(1)) % n;
            let z = Complex::new(re, im);
            t.push((i, j, z));
            if idx.is_multiple_of(5) {
                t.push((i, j, Complex::new(re * 0.5, im * -0.5)));
            }
        }
        t.push((
            i,
            i,
            Complex::new(
                8.0 + fill as f64 + seed[i % seed.len()].abs(),
                2.0 + seed[(i * 2 + 1) % seed.len()],
            ),
        ));
    }
    t
}

fn rhs_of(n: usize, seed: &[f64]) -> Vec<Complex> {
    (0..n)
        .map(|i| {
            Complex::new(
                seed[i % seed.len()] + 1.0,
                seed[(i * 2 + 3) % seed.len()] - 0.5,
            )
        })
        .collect()
}

fn max_rel_err(x: &[Complex], y: &[Complex]) -> f64 {
    x.iter()
        .zip(y)
        .map(|(a, b)| {
            let d = ((a.re - b.re).powi(2) + (a.im - b.im).powi(2)).sqrt();
            let m = (a.re.powi(2) + a.im.powi(2)).sqrt().max(1e-30);
            d / m
        })
        .fold(0.0, f64::max)
}

fn bits_of(x: &[Complex]) -> Vec<(u64, u64)> {
    x.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
}

/// Factors and solves on the given backend, returning the solution.
fn solve_once(
    n: usize,
    t: &[(usize, usize, Complex)],
    b: &[Complex],
    c: SolverChoice,
) -> Vec<Complex> {
    CAnySolver::factor_triplets(n, t, c)
        .expect("dominant system factors")
        .solve(b)
        .expect("factored system solves")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random duplicate-bearing complex systems: the dense and sparse
    /// embeddings solve to a tight relative tolerance of each other, and
    /// the residual of each is small in its own right.
    #[test]
    fn complex_dense_and_sparse_backends_agree(
        n in 3usize..28,
        fill in 1usize..4,
        seed in prop::collection::vec(-2.0f64..2.0, 64),
    ) {
        let t = random_ctriplets(n, &seed, fill);
        let b = rhs_of(n, &seed);
        let xd = solve_once(n, &t, &b, SolverChoice::Dense);
        let xs = solve_once(n, &t, &b, SolverChoice::Sparse);
        prop_assert!(
            max_rel_err(&xd, &xs) < 1e-10,
            "backends disagree: rel err {:e}", max_rel_err(&xd, &xs)
        );
        // Residual check through the raw triplets (duplicates summed).
        let mut r = vec![Complex::ZERO; n];
        for &(i, j, z) in &t {
            r[i] = Complex::new(
                r[i].re + z.re * xd[j].re - z.im * xd[j].im,
                r[i].im + z.re * xd[j].im + z.im * xd[j].re,
            );
        }
        for i in 0..n {
            prop_assert!((r[i].re - b[i].re).abs() < 1e-8 * (1.0 + b[i].re.abs()));
            prop_assert!((r[i].im - b[i].im).abs() < 1e-8 * (1.0 + b[i].im.abs()));
        }
    }

    /// Solving the same complex system concurrently from 1, 2 and 8
    /// threads is bitwise identical to the serial solve on both backends:
    /// no per-thread state (the symbolic cache) may leak into the
    /// numerics.
    #[test]
    fn complex_solves_are_bitwise_across_1_2_8_threads(
        n in 3usize..20,
        seed in prop::collection::vec(-2.0f64..2.0, 48),
    ) {
        let t = Arc::new(random_ctriplets(n, &seed, 2));
        let b = Arc::new(rhs_of(n, &seed));
        for choice in [SolverChoice::Dense, SolverChoice::Sparse] {
            let reference = bits_of(&solve_once(n, &t, &b, choice));
            for threads in [1usize, 2, 8] {
                let handles: Vec<_> = (0..threads)
                    .map(|_| {
                        let (t, b) = (Arc::clone(&t), Arc::clone(&b));
                        std::thread::spawn(move || bits_of(&solve_once(n, &t, &b, choice)))
                    })
                    .collect();
                for h in handles {
                    let got = h.join().expect("no panic in worker");
                    prop_assert_eq!(
                        &got, &reference,
                        "{:?} at {} threads drifted from the serial solve", choice, threads
                    );
                }
            }
        }
    }

    /// Recovery-ladder parity on injected singular complex systems: zero
    /// out one row entirely (real and imaginary) and both backends must
    /// recover by diagonal perturbation, report it, and produce finite
    /// solutions — the same evidence shape as the real-valued ladder.
    #[test]
    fn recovery_ladder_parity_on_singular_complex_systems(
        n in 3usize..16,
        victim_pick in 0usize..64,
        seed in prop::collection::vec(-2.0f64..2.0, 48),
    ) {
        let victim = victim_pick % n;
        let t: Vec<(usize, usize, Complex)> = random_ctriplets(n, &seed, 2)
            .into_iter()
            .map(|(i, j, z)| if i == victim { (i, j, Complex::ZERO) } else { (i, j, z) })
            .collect();
        let b = rhs_of(n, &seed);
        let mut perturbations = Vec::new();
        for choice in [SolverChoice::Dense, SolverChoice::Sparse] {
            let (solver, rec) = CAnySolver::factor_triplets_recovering(n, &t, choice)
                .expect("perturbation recovers the zero row");
            prop_assert!(rec.perturbed, "{:?}: must report the perturbation", choice);
            prop_assert!(rec.perturbation > 0.0);
            prop_assert!(rec.condition_estimate.is_finite());
            let x = solver.solve(&b).expect("recovered factorization solves");
            prop_assert!(x.iter().all(|z| z.re.is_finite() && z.im.is_finite()));
            perturbations.push(rec.perturbation);
        }
        // Both ladders perturb by the same ε rule over the same embedded
        // matrix, so the recovery evidence must be bitwise identical —
        // the deliberately ill-conditioned recovered *solutions* are not
        // comparable across pivot orders, but the rung taken is.
        prop_assert_eq!(perturbations[0].to_bits(), perturbations[1].to_bits());
    }
}

/// Deterministic anchor for the families above: one fixed complex system
/// solved on both backends, byte-compared through the `%.6e` rounding the
/// benchmark rows use.
#[test]
fn fixed_complex_anchor_case() {
    let seed: Vec<f64> = (0..48)
        .map(|k| ((k * 37 + 11) % 19) as f64 / 9.5 - 1.0)
        .collect();
    let t = random_ctriplets(8, &seed, 3);
    let b = rhs_of(8, &seed);
    let xd = solve_once(8, &t, &b, SolverChoice::Dense);
    let xs = solve_once(8, &t, &b, SolverChoice::Sparse);
    for (d, s) in xd.iter().zip(&xs) {
        assert_eq!(format!("{:.6e}", d.re), format!("{:.6e}", s.re));
        assert_eq!(format!("{:.6e}", d.im), format!("{:.6e}", s.im));
    }
}
