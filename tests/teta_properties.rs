//! Property-based tests of the TETA waveform machinery and the
//! engine-agreement invariant.

use linvar::devices::{chord_conductance, tech_018, DeviceVariation};
use linvar::interconnect::{builder::build_coupled_lines, CoupledLineSpec, WireTech};
use linvar::mor::{extract_pole_residue, stabilize, ReductionMethod};
use linvar::teta::engine::DriverSpec;
use linvar::teta::{StageModel, StageSolver, StageSolverOptions, Waveform};
use proptest::prelude::*;

/// The quadratic greedy loop `Waveform::compress` must reproduce bit for
/// bit: for each candidate it re-checks every sample since the anchor
/// against the chord to the next sample.
fn quadratic_compress(points: &[(f64, f64)], tol: f64) -> Vec<(f64, f64)> {
    if points.len() <= 2 {
        return points.to_vec();
    }
    let mut kept = vec![points[0]];
    let mut anchor = 0;
    for k in 1..points.len() - 1 {
        let (t0, v0) = points[anchor];
        let (t1, v1) = points[k + 1];
        let mut ok = true;
        for p in &points[anchor + 1..=k] {
            let interp = v0 + (v1 - v0) * (p.0 - t0) / (t1 - t0);
            if (interp - p.1).abs() > tol {
                ok = false;
                break;
            }
        }
        if !ok {
            kept.push(points[k]);
            anchor = k;
        }
    }
    kept.push(*points.last().unwrap());
    kept
}

/// Asserts that `compress` keeps exactly the reference's samples, bit for
/// bit (NaN payloads and signed zeros included).
fn assert_matches_reference(w: &Waveform, tol: f64) {
    let bits = |p: &[(f64, f64)]| -> Vec<(u64, u64)> {
        p.iter().map(|&(t, v)| (t.to_bits(), v.to_bits())).collect()
    };
    let got = bits(w.compress(tol).points());
    let want = bits(&quadratic_compress(w.points(), tol));
    assert!(
        got == want,
        "compress(tol = {tol:e}) kept {} samples, the reference {} ({} samples in)",
        got.len(),
        want.len(),
        w.points().len()
    );
}

/// The prefix lemma the stage solver's stop rule rests on: compressing a
/// prefix `p[..=K]` keeps, before its forced last point, exactly the points
/// that compressing all of `p` keeps before index `K`. A `compress` that
/// looked further ahead than one sample would fail here.
fn assert_prefix_lemma(w: &Waveform, tol: f64) {
    let bits = |p: &[(f64, f64)]| -> Vec<(u64, u64)> {
        p.iter().map(|&(t, v)| (t.to_bits(), v.to_bits())).collect()
    };
    let p = w.points();
    let full = w.compress(tol);
    for k in 0..p.len() {
        let prefix = Waveform::from_points(p[..=k].to_vec()).compress(tol);
        let (_, before_last) = prefix.points().split_last().expect("non-empty");
        // Times increase strictly, so "index < K" is "time < t_K".
        let kept: Vec<(f64, f64)> = full
            .points()
            .iter()
            .copied()
            .take_while(|&(t, _)| t < p[k].0)
            .collect();
        assert!(
            bits(before_last) == bits(&kept),
            "compress(tol = {tol:e}) of the first {} of {} samples keeps {} points \
             before its last, the whole waveform {}",
            k + 1,
            p.len(),
            before_last.len(),
            kept.len()
        );
    }
}

/// `v` moved by `ulps` representable steps (negative: downwards).
fn nudge(v: f64, ulps: i64) -> f64 {
    (0..ulps.unsigned_abs()).fold(v, |x, _| if ulps > 0 { x.next_up() } else { x.next_down() })
}

/// Strategy: samples on a line, half of them moved to exactly `line ± tol`,
/// and every sample then nudged by up to four ulps either way. Chords
/// between on-line samples put the moved ones within a few ulps of the
/// tolerance, where `compress` must fall back to its exact test.
fn boundary_strategy() -> impl Strategy<Value = (Waveform, f64)> {
    (3usize..60, 1e-4f64..0.5, -2.0f64..2.0).prop_flat_map(|(n, tol, slope)| {
        prop::collection::vec((1e-12f64..1e-9, 0usize..4, 0u64..9), n).prop_map(move |steps| {
            let mut t = 0.0;
            let points = steps
                .into_iter()
                .map(|(dt, kind, ulps)| {
                    t += dt;
                    let line = slope * t * 1e9;
                    let v = match kind {
                        0 => line + tol,
                        1 => line - tol,
                        _ => line,
                    };
                    (t, nudge(v, ulps as i64 - 4))
                })
                .collect();
            (Waveform::from_points(points), tol)
        })
    })
}

/// Strategy: a random waveform with up to three values replaced by NaN or
/// ±∞.
fn non_finite_strategy() -> impl Strategy<Value = Waveform> {
    (
        waveform_strategy(),
        prop::collection::vec((0usize..40, 0usize..3), 3),
    )
        .prop_map(|(w, hits)| {
            let mut points = w.points().to_vec();
            let n = points.len();
            for (i, kind) in hits {
                points[i % n].1 = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][kind];
            }
            Waveform::from_points(points)
        })
}

/// Strategy: a strictly increasing time axis with values in [-2, 2].
fn waveform_strategy() -> impl Strategy<Value = Waveform> {
    (2usize..40).prop_flat_map(|n| {
        (
            prop::collection::vec(1e-12f64..1e-9, n),
            prop::collection::vec(-2.0f64..2.0, n),
        )
            .prop_map(|(dts, vals)| {
                let mut t = 0.0;
                let points: Vec<(f64, f64)> = dts
                    .into_iter()
                    .zip(vals)
                    .map(|(dt, v)| {
                        t += dt;
                        (t, v)
                    })
                    .collect();
                Waveform::from_points(points)
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Compression never deviates more than its tolerance anywhere.
    #[test]
    fn compress_bounds_error(w in waveform_strategy(), tol in 1e-4f64..0.5) {
        let c = w.compress(tol);
        prop_assert!(c.points().len() <= w.points().len());
        // Check on a dense grid spanning the waveform.
        let t0 = w.points()[0].0;
        let t1 = w.end_time();
        for k in 0..=200 {
            let t = t0 + (t1 - t0) * k as f64 / 200.0;
            let err = (c.eval(t) - w.eval(t)).abs();
            prop_assert!(err <= tol * 1.0001, "err {} > tol {} at t={}", err, tol, t);
        }
        // Endpoints always survive.
        prop_assert_eq!(c.points()[0], w.points()[0]);
        prop_assert_eq!(*c.points().last().unwrap(), *w.points().last().unwrap());
    }

    /// `compress` keeps exactly the samples the quadratic loop keeps, at
    /// ordinary tolerances and at 0 and ∞.
    #[test]
    fn compress_matches_quadratic_reference(w in waveform_strategy(), tol in 1e-4f64..0.5) {
        for tol in [tol, 0.0, f64::INFINITY] {
            assert_matches_reference(&w, tol);
        }
    }

    /// Samples within a few ulps of `chord ± tol` take the exact test and
    /// still decide as the reference does.
    #[test]
    fn compress_matches_reference_at_the_tolerance_boundary(case in boundary_strategy()) {
        let (w, tol) = case;
        assert_matches_reference(&w, tol);
        assert_matches_reference(&w, tol.next_up());
        assert_matches_reference(&w, tol.next_down());
    }

    /// NaN and ±∞ values, and NaN, negative, zero and infinite tolerances,
    /// take the exact test throughout.
    #[test]
    fn compress_matches_reference_on_non_finite_input(w in non_finite_strategy(), tol in 1e-4f64..0.5) {
        for tol in [tol, 0.0, -tol, f64::INFINITY, f64::NAN] {
            assert_matches_reference(&w, tol);
        }
    }

    /// Every prefix of a random, an ulp-boundary and a non-finite waveform
    /// compresses to the whole waveform's points before it.
    #[test]
    fn compress_prefix_keeps_the_whole_waveforms_points(
        w in waveform_strategy(),
        case in boundary_strategy(),
        nf in non_finite_strategy(),
        tol in 1e-4f64..0.5,
    ) {
        for tol in [tol, 0.0, f64::INFINITY] {
            assert_prefix_lemma(&w, tol);
            assert_prefix_lemma(&nf, tol);
        }
        let (b, b_tol) = case;
        assert_prefix_lemma(&b, b_tol);
        assert_prefix_lemma(&b, b_tol.next_up());
    }

    /// Shifting is exact and invertible.
    #[test]
    fn shift_roundtrip(w in waveform_strategy(), dt in -1e-9f64..1e-9) {
        let back = w.shifted(dt).shifted(-dt);
        for (a, b) in w.points().iter().zip(back.points()) {
            prop_assert!((a.0 - b.0).abs() < 1e-20 + 1e-12 * a.0.abs());
            prop_assert_eq!(a.1, b.1);
        }
        // eval agrees under the shift.
        let t_mid = (w.points()[0].0 + w.end_time()) / 2.0;
        prop_assert!((w.shifted(dt).eval(t_mid + dt) - w.eval(t_mid)).abs() < 1e-9);
    }

    /// Truncation preserves the early samples exactly and extrapolates
    /// constantly beyond the cut.
    #[test]
    fn truncation_properties(w in waveform_strategy()) {
        let t_cut = (w.points()[0].0 + w.end_time()) / 2.0;
        let t = w.truncated(t_cut);
        prop_assert!(t.end_time() <= t_cut);
        for p in t.points() {
            prop_assert!((w.eval(p.0) - p.1).abs() < 1e-12);
        }
        // After the cut: constant at the last kept value.
        prop_assert_eq!(t.eval(w.end_time() + 1e-9), t.final_value());
    }

    /// Saturated-ramp extraction inverts materialization for any (M, S).
    #[test]
    fn saturated_ramp_roundtrip(
        m in 1e-10f64..1e-8,
        s in 1e-11f64..1e-9,
        rising in any::<bool>(),
        vdd in 0.5f64..5.0,
    ) {
        let sr = linvar::teta::SaturatedRamp { m, s, rising };
        let w = sr.to_waveform(0.0, vdd);
        let back = w.to_saturated_ramp(0.0, vdd).expect("complete transition");
        prop_assert!((back.m - m).abs() < 1e-12 + 1e-9 * m);
        prop_assert!((back.s - s).abs() < 1e-12 + 1e-6 * s);
        prop_assert_eq!(back.rising, rising);
    }

    /// Crossings returned by `crossing` actually lie on the waveform.
    #[test]
    fn crossing_is_on_the_waveform(w in waveform_strategy(), level in -1.5f64..1.5) {
        for rising in [true, false] {
            if let Some(t) = w.crossing(level, rising) {
                prop_assert!((w.eval(t) - level).abs() < 1e-9,
                    "crossing at t={} evals to {}", t, w.eval(t));
            }
        }
    }
}

/// Settled tails of `n` samples, the bulk of every stage output: an RC-like
/// exponential, an exactly flat tail and one dithered by an ulp.
fn settled_tails(n: usize) -> Vec<Waveform> {
    let rise = |t: f64| 1.8 * (1.0 - (-t / 20e-12).exp());
    let tails: [&dyn Fn(usize, f64) -> f64; 3] = [
        &|_, t| rise(t),
        &|k, t| if k < 100 { rise(t) } else { 1.8 },
        &|k, _| if k % 2 == 0 { 1.8 } else { 1.8f64.next_up() },
    ];
    tails
        .into_iter()
        .map(|tail| {
            let points = (0..n)
                .map(|k| {
                    let t = k as f64 * 1e-12;
                    (t, tail(k, t))
                })
                .collect();
            Waveform::from_points(points)
        })
        .collect()
}

#[test]
fn compress_matches_reference_on_settled_tails() {
    for w in settled_tails(4000) {
        for tol in [1.8e-4, 1e-2, 1e-12, 0.0, f64::INFINITY] {
            assert_matches_reference(&w, tol);
        }
    }
}

/// The prefix lemma on settled tails as long as a stage output's (every
/// prefix costs a compression, so the tails are shorter than above).
#[test]
fn compress_prefix_lemma_on_settled_tails() {
    for w in settled_tails(1500) {
        for tol in [1.8e-4, 1e-2, 0.0] {
            assert_prefix_lemma(&w, tol);
        }
    }
}

/// The golden stage of `tests/golden_fixtures.rs`, solved with compression
/// off, compresses at `1e-4·vdd` exactly as the reference loop does — and
/// exactly to the waveforms `StageModel::evaluate` returns — and every
/// prefix of it obeys the prefix lemma.
#[test]
fn compress_matches_reference_on_raw_stage_output() {
    let tech = tech_018();
    let lib = &tech.library;
    let built = build_coupled_lines(&CoupledLineSpec::new(1, 20e-6, WireTech::m018())).unwrap();
    let model = StageModel::build(
        &built.netlist,
        &[built.inputs[0]],
        &tech,
        ReductionMethod::Prima { order: 6 },
        0.02,
    )
    .unwrap();
    let w = [0.3, -0.2, 0.1, 0.0, 0.4];
    let variation = DeviceVariation::new(0.25, -0.5);
    let input = Waveform::ramp(0.0, 1.8, 20e-12, 50e-12);
    let (h, t_end) = (1e-12, 1.5e-9);
    let evaluated = model
        .evaluate(&w, variation, std::slice::from_ref(&input), h, t_end)
        .unwrap();

    let rom = model.vrom().evaluate(&w).unwrap();
    let (stable, _) = stabilize(&extract_pole_residue(&rom).unwrap());
    let nmos = lib.get(&lib.nmos_name()).unwrap().clone();
    let pmos = lib.get(&lib.pmos_name()).unwrap().clone();
    let g_out = chord_conductance(&nmos, tech.wn, lib.lmin, lib.vdd)
        + chord_conductance(&pmos, tech.wp, lib.lmin, lib.vdd);
    let port = built
        .netlist
        .ports()
        .iter()
        .position(|p| *p == built.inputs[0])
        .unwrap();
    let driver = DriverSpec {
        port,
        input,
        nmos,
        pmos,
        wn: tech.wn,
        wp: tech.wp,
        length: lib.lmin,
        g_out,
    };
    let mut opts = StageSolverOptions::new(lib.vdd, t_end, h);
    opts.variation = variation;
    let (raw, _) = StageSolver::new(&stable, vec![driver], opts)
        .unwrap()
        .run()
        .unwrap();

    let tol = 1e-4 * lib.vdd;
    assert_eq!(raw.len(), evaluated.waveforms.len());
    for (raw, compressed) in raw.iter().zip(&evaluated.waveforms) {
        assert!(raw.points().len() > 1000, "raw output has every time step");
        assert_matches_reference(raw, tol);
        assert_prefix_lemma(raw, tol);
        assert_eq!(raw.compress(tol).points(), compressed.points());
    }
}
