//! Property tests for the parallel Monte-Carlo machinery: per-sample seed
//! streams, streamed Latin-Hypercube stratification, summary merging, and
//! schedule-invariance of the parallel driver itself.

use linvar_stats::{
    latin_hypercube_streamed, monte_carlo_par, normal_samples, SampleRng, SeedStream, Summary,
};
use proptest::prelude::*;

/// Relative floating-point tolerance for pooled-statistics comparisons.
fn close(a: f64, b: f64) -> bool {
    let scale = a.abs().max(b.abs()).max(1.0);
    (a - b).abs() <= 1e-9 * scale
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn seed_streams_reproduce_per_index(seed in any::<u64>(), index in 0u64..10_000) {
        // stream(seed, k) must be a pure function of (seed, k): re-deriving
        // the stream replays the identical sequence.
        let a = normal_samples(&mut SampleRng::stream(seed, index), 16);
        let b = normal_samples(&mut SampleRng::stream(seed, index), 16);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn seed_streams_are_independent_across_indices(
        seed in any::<u64>(),
        i in 0u64..5_000,
        j in 0u64..5_000,
    ) {
        // Distinct sample indices must get decorrelated generators — in
        // particular not merely shifted copies of one global sequence.
        if i != j {
            let a = normal_samples(&mut SampleRng::stream(seed, i), 8);
            let b = normal_samples(&mut SampleRng::stream(seed, j), 8);
            prop_assert_ne!(&a, &b);
            // No single draw collides either (the f64s carry 53 random
            // bits; a collision means the streams are entangled).
            prop_assert!(a.iter().zip(&b).all(|(x, y)| x != y));
        }
    }

    #[test]
    fn seed_streams_separate_across_master_seeds(
        seed in any::<u64>(),
        delta in 1u64..1_000,
        index in 0u64..1_000,
    ) {
        let a = normal_samples(&mut SampleRng::stream(seed, index), 8);
        let b = normal_samples(&mut SampleRng::stream(seed.wrapping_add(delta), index), 8);
        prop_assert_ne!(a, b);
    }

    #[test]
    fn streamed_lhs_keeps_exact_stratification(
        seed in any::<u64>(),
        n in 2usize..48,
        dims in 1usize..5,
    ) {
        // The stream-organized LHS must retain the defining property:
        // every dimension hits each of the n strata exactly once.
        let samples = latin_hypercube_streamed(seed, n, dims, |_, u| u);
        prop_assert_eq!(samples.len(), n);
        for d in 0..dims {
            let mut seen = vec![false; n];
            for s in &samples {
                prop_assert!((0.0..1.0).contains(&s[d]));
                let bin = ((s[d] * n as f64) as usize).min(n - 1);
                prop_assert!(!seen[bin], "stratum {} hit twice in dim {}", bin, d);
                seen[bin] = true;
            }
        }
    }

    #[test]
    fn streamed_lhs_is_reproducible(seed in any::<u64>(), n in 2usize..32) {
        let a = latin_hypercube_streamed(seed, n, 3, |_, u| u);
        let b = latin_hypercube_streamed(seed, n, 3, |_, u| u);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn summary_merge_matches_pooled_computation(
        na in 1usize..24,
        nb in 1usize..24,
        seed in any::<u64>(),
    ) {
        let mut rng = SampleRng::stream(seed, 0);
        let a = normal_samples(&mut rng, na);
        let b = normal_samples(&mut rng, nb);
        let pooled: Vec<f64> = a.iter().chain(&b).copied().collect();
        let merged = Summary::of(&a).merge(&Summary::of(&b));
        let direct = Summary::of(&pooled);
        prop_assert_eq!(merged.n, direct.n);
        prop_assert!(close(merged.mean, direct.mean), "{} vs {}", merged.mean, direct.mean);
        prop_assert!(close(merged.std, direct.std), "{} vs {}", merged.std, direct.std);
        prop_assert_eq!(merged.min, direct.min);
        prop_assert_eq!(merged.max, direct.max);
    }

    #[test]
    fn summary_merge_is_associative(
        na in 0usize..16,
        nb in 0usize..16,
        nc in 0usize..16,
        seed in any::<u64>(),
    ) {
        // ((A ⊕ B) ⊕ C) == (A ⊕ (B ⊕ C)) up to floating-point rounding —
        // the algebra that lets the parallel driver pool chunk statistics
        // in any grouping. Empty parts included: merge must treat the
        // zero summary as the identity element.
        let mut rng = SampleRng::stream(seed, 1);
        let a = Summary::of(&normal_samples(&mut rng, na));
        let b = Summary::of(&normal_samples(&mut rng, nb));
        let c = Summary::of(&normal_samples(&mut rng, nc));
        let left = a.merge(&b).merge(&c);
        let right = a.merge(&b.merge(&c));
        prop_assert_eq!(left.n, right.n);
        prop_assert!(close(left.mean, right.mean), "{} vs {}", left.mean, right.mean);
        prop_assert!(close(left.std, right.std), "{} vs {}", left.std, right.std);
        prop_assert_eq!(left.min, right.min);
        prop_assert_eq!(left.max, right.max);
    }

    #[test]
    fn parallel_driver_is_schedule_invariant(
        n in 0usize..64,
        threads in 1usize..9,
        seed in any::<u64>(),
        fail_stride in 2usize..7,
    ) {
        // For arbitrary workloads (including failing samples) a parallel
        // run must reproduce the one-worker (inline) run bitwise — values,
        // summary, and failure bookkeeping alike.
        let mut rng = SampleRng::stream(seed, 2);
        let samples = normal_samples(&mut rng, n);
        let eval = |&x: &f64| {
            let k = (x.abs() * 1e6) as usize;
            if k.is_multiple_of(fail_stride) {
                Err(format!("injected failure at {x}"))
            } else {
                Ok(x * x + 1.0)
            }
        };
        let serial = monte_carlo_par(&samples, 1, eval);
        let par = monte_carlo_par(&samples, threads, eval);
        let s_bits: Vec<u64> = serial.values.iter().map(|v| v.to_bits()).collect();
        let p_bits: Vec<u64> = par.values.iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(p_bits, s_bits);
        prop_assert_eq!(par.summary.mean.to_bits(), serial.summary.mean.to_bits());
        prop_assert_eq!(par.summary.std.to_bits(), serial.summary.std.to_bits());
        prop_assert_eq!(par.failures, serial.failures);
        prop_assert_eq!(par.failed_indices, serial.failed_indices);
        prop_assert_eq!(par.first_error, serial.first_error);
    }
}
