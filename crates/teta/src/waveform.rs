//! Piecewise-linear waveforms and the saturated-ramp abstraction.
//!
//! The framework propagates "a fine resolution waveform model which
//! captures almost the exact waveform … represented by a piece-wise linear
//! model that adaptively selects the breakpoints" (paper §4.3.1). The
//! Gradient Analysis flow abstracts waveforms further to the saturated
//! ramp with the 50 % arrival point `M` and transition time `S`
//! (paper eq. 29).

use crate::error::TetaError;

/// A piecewise-linear waveform: `(time, value)` samples with constant
/// extrapolation outside the sampled range.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Waveform {
    points: Vec<(f64, f64)>,
}

impl Waveform {
    /// Creates a waveform from `(time, value)` samples.
    ///
    /// # Panics
    ///
    /// Panics if times are not strictly increasing.
    pub fn from_points(points: Vec<(f64, f64)>) -> Self {
        for w in points.windows(2) {
            assert!(
                w[0].0 < w[1].0,
                "waveform times must be strictly increasing"
            );
        }
        Waveform { points }
    }

    /// Creates a saturated-ramp waveform from `v0` to `v1` starting at
    /// `t0` with transition time `tr`.
    pub fn ramp(v0: f64, v1: f64, t0: f64, tr: f64) -> Self {
        Waveform {
            points: vec![(t0, v0), (t0 + tr.max(1e-18), v1)],
        }
    }

    /// Constant waveform.
    pub fn constant(v: f64) -> Self {
        Waveform {
            points: vec![(0.0, v)],
        }
    }

    /// The sample points.
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }

    /// Value at time `t` (linear interpolation, constant extrapolation).
    pub fn eval(&self, t: f64) -> f64 {
        let p = &self.points;
        if p.is_empty() {
            return 0.0;
        }
        if t <= p[0].0 {
            return p[0].1;
        }
        if t >= p[p.len() - 1].0 {
            return p[p.len() - 1].1;
        }
        let mut lo = 0;
        let mut hi = p.len() - 1;
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            if p[mid].0 <= t {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let (t0, v0) = p[lo];
        let (t1, v1) = p[hi];
        v0 + (v1 - v0) * (t - t0) / (t1 - t0)
    }

    /// First and last values.
    pub fn initial_value(&self) -> f64 {
        self.points.first().map_or(0.0, |p| p.1)
    }

    /// Value after the last breakpoint.
    pub fn final_value(&self) -> f64 {
        self.points.last().map_or(0.0, |p| p.1)
    }

    /// Time of the last breakpoint.
    pub fn end_time(&self) -> f64 {
        self.points.last().map_or(0.0, |p| p.0)
    }

    /// `true` if the waveform ends higher than it starts.
    pub fn is_rising(&self) -> bool {
        self.final_value() > self.initial_value()
    }

    /// Adaptive breakpoint selection: the "adaptively selects the
    /// breakpoints" compression of the paper; typical savings are 5–20x on
    /// smooth stage outputs.
    ///
    /// Contract:
    ///
    /// * **Greedy anchored chords.** The first sample is the anchor. Sample
    ///   `k` is dropped if the chord from the anchor to sample `k + 1`
    ///   reproduces every sample after the anchor up to `k` within `tol`
    ///   (absolute); otherwise `k` is kept and becomes the anchor. A sample
    ///   is off the chord if `|v0 + (v1 − v0)·(t − t0)/(t1 − t0) − v| > tol`
    ///   in floating point, so a NaN residual never is.
    /// * The first and last samples are always kept.
    /// * Every dropped sample lies within `tol` of the chord that replaced it.
    /// * **Linear time.** Each sample narrows, in O(1), two running
    ///   intervals of chord slopes from the anchor: those that hold every
    ///   sample since the anchor within `tol − δ` (inner sleeve) and within
    ///   `tol + δ` (outer sleeve). δ = 64·ε·max(max|v|, tol), plus an
    ///   underflow term, bounds the rounding error of the exact test (see
    ///   `sleeve_margin`). A slope inside the inner sleeve drops the
    ///   sample, one outside the outer sleeve keeps it, and only a slope
    ///   between them runs the exact test. So do inputs outside the bound's
    ///   scope: non-finite samples, a non-increasing time axis, or `tol`
    ///   outside `[0, ∞)`; those cost O(n²) in the worst case. The keep/drop
    ///   decisions are the exact test's in every case.
    pub fn compress(&self, tol: f64) -> Waveform {
        Waveform {
            points: compress_points(&self.points, tol),
        }
    }

    /// Returns the waveform translated in time by `dt` (positive shifts
    /// later). Stage-by-stage path analysis uses this to rebase each
    /// stage's input near the time origin so simulation windows stay short.
    pub fn shifted(&self, dt: f64) -> Waveform {
        Waveform {
            points: self.points.iter().map(|&(t, v)| (t + dt, v)).collect(),
        }
    }

    /// Returns the waveform truncated after `t_max` (constant extrapolation
    /// continues from the last kept sample). Path analysis trims each stage
    /// output after it settles, so downstream simulation windows do not
    /// inherit the full upstream time span.
    pub fn truncated(&self, t_max: f64) -> Waveform {
        let mut points: Vec<(f64, f64)> = self
            .points
            .iter()
            .copied()
            .take_while(|&(t, _)| t <= t_max)
            .collect();
        if points.is_empty() {
            if let Some(&first) = self.points.first() {
                points.push(first);
            }
        }
        Waveform { points }
    }

    /// Time of the first crossing of `level` in the given direction, or
    /// `None`.
    pub fn crossing(&self, level: f64, rising: bool) -> Option<f64> {
        self.crossing_segment(level, rising).map(|(_, t)| t)
    }

    /// The first crossing of `level` in the given direction: the index `j`
    /// of the segment `points[j]..points[j + 1]` it lies in, and its time.
    pub(crate) fn crossing_segment(&self, level: f64, rising: bool) -> Option<(usize, f64)> {
        for (j, w) in self.points.windows(2).enumerate() {
            let ((t0, v0), (t1, v1)) = (w[0], w[1]);
            let crossed = if rising {
                v0 < level && v1 >= level
            } else {
                v0 > level && v1 <= level
            };
            if crossed {
                if (v1 - v0).abs() < 1e-300 {
                    return Some((j, t1));
                }
                return Some((j, t0 + (t1 - t0) * (level - v0) / (v1 - v0)));
            }
        }
        None
    }

    /// Extracts the saturated-ramp abstraction `(M, S)` between the given
    /// rails: `M` is the 50 % arrival time, `S` the full-swing transition
    /// time inferred from the 10–90 % interval.
    ///
    /// # Errors
    ///
    /// Returns [`TetaError::IncompleteTransition`] if the waveform does not
    /// cross the required levels.
    pub fn to_saturated_ramp(&self, v_low: f64, v_high: f64) -> Result<SaturatedRamp, TetaError> {
        let swing = v_high - v_low;
        let rising = self.is_rising();
        let m = self
            .crossing(v_low + 0.5 * swing, rising)
            .ok_or(TetaError::IncompleteTransition { what: "50% point" })?;
        let (l10, l90) = (v_low + 0.1 * swing, v_low + 0.9 * swing);
        let (first, second) = if rising { (l10, l90) } else { (l90, l10) };
        let t_first = self
            .crossing(first, rising)
            .ok_or(TetaError::IncompleteTransition { what: "10% point" })?;
        let t_second = self
            .crossing(second, rising)
            .ok_or(TetaError::IncompleteTransition { what: "90% point" })?;
        let s = (t_second - t_first) / 0.8;
        Ok(SaturatedRamp { m, s, rising })
    }
}

/// [`Waveform::compress`] over a slice of samples.
///
/// The decision on sample `k` reads samples `k + 1` and earlier only, and
/// the last sample is always kept. So compressing a prefix `p[..=K]` keeps,
/// below index `K`, exactly the samples that compressing all of `p` keeps
/// there: the stage solver's stop rule relies on this.
pub(crate) fn compress_points(p: &[(f64, f64)], tol: f64) -> Vec<(f64, f64)> {
    if p.len() <= 2 {
        return p.to_vec();
    }
    // The exact test of the contract: no sample strictly between
    // `p[a]` and `p[q]` is off their chord.
    let chord_fits = |a: usize, q: usize| {
        let (t0, v0) = p[a];
        let (t1, v1) = p[q];
        !p[a + 1..q].iter().any(|&(t, v)| {
            let interp = v0 + (v1 - v0) * (t - t0) / (t1 - t0);
            (interp - v).abs() > tol
        })
    };
    // Slopes from the anchor that keep every sample since it within
    // `tol - δ` (inner sleeve) and `tol + δ` (outer sleeve).
    let sleeve_tols = sleeve_margin(p, tol).map(|d| (tol - d, tol + d));
    let open = (f64::NEG_INFINITY, f64::INFINITY);
    let (mut inner, mut outer) = (open, open);
    let mut kept = vec![p[0]];
    let mut anchor = 0;
    for k in 1..p.len() - 1 {
        let (t0, v0) = p[anchor];
        let fits = if let Some((tol_in, tol_out)) = sleeve_tols {
            let (dt, dv) = (p[k].0 - t0, p[k].1 - v0);
            inner.0 = inner.0.max((dv - tol_in) / dt);
            inner.1 = inner.1.min((dv + tol_in) / dt);
            outer.0 = outer.0.max((dv - tol_out) / dt);
            outer.1 = outer.1.min((dv + tol_out) / dt);
            let s = (p[k + 1].1 - v0) / (p[k + 1].0 - t0);
            if s.is_finite() && inner.0 <= s && s <= inner.1 {
                true
            } else if s.is_finite() && (s < outer.0 || s > outer.1) {
                false
            } else {
                chord_fits(anchor, k + 1)
            }
        } else {
            chord_fits(anchor, k + 1)
        };
        if !fits {
            kept.push(p[k]);
            anchor = k;
            (inner, outer) = (open, open);
        }
    }
    kept.push(p[p.len() - 1]);
    kept
}

/// Rounding margin δ of the sleeve test in [`Waveform::compress`], or `None`
/// for inputs outside the scope of its error bound: a non-finite sample, a
/// time step that is not positive, `tol` outside `[0, ∞)`, or magnitudes
/// that could overflow the exact test.
///
/// Error bound. Let u = ε/2, V = max(|v|), T the time span, h the smallest
/// time step and η the smallest subnormal. For a candidate chord from the
/// anchor `(t0, v0)` to `(t1, v1)` and a sample `(t, v)` between them, let
/// Δv = v1 − v0, D = t1 − t0 and d = t − t0 ≤ D as computed, and let
/// m = v0 + Δv·d/D − v be the residual in exact arithmetic. Then:
///
/// * the exact test's computed residual R satisfies
///   |R − m| ≤ 12u·V + η·(1 + 1/h): four roundings on terms of size ≤ 3V,
///   plus underflow in the product and the quotient;
/// * comparing the computed slope Δv/D with a computed sleeve edge
///   (dv ± τ)/d, where dv = v − v0 and τ is the rounded tol − δ (inner
///   sleeve) or tol + δ (outer sleeve), and multiplying through by d moves
///   the edge by ≤ 9u·V + 3u·|τ| + η·T in value.
///
/// With |τ| ≤ (1 + u)·(tol + δ), a slope inside the inner sleeve gives every
/// |R| ≤ tol − δ + 21u·V + 5u·(tol + δ) + η·(1 + T + 1/h) ≤ tol, and a slope
/// outside the outer sleeve gives some |R| ≥ tol + δ − (the same terms) >
/// tol, once δ = 128u·max(V, tol) + (2 + T + 1/h)·2⁻¹⁰²²: that is
/// 64·ε·max(V, tol) plus an underflow term that is negligible on real
/// waveforms. The scope bound max(V, tol)·(1 + T) < MAX/8 keeps every
/// product and sum of the exact test finite. A sleeve edge that overflows
/// to ±∞ still orders correctly against a finite slope, and a non-finite
/// slope takes the exact test.
fn sleeve_margin(p: &[(f64, f64)], tol: f64) -> Option<f64> {
    if !p.iter().all(|&(t, v)| t.is_finite() && v.is_finite()) {
        return None;
    }
    let h_min = p
        .windows(2)
        .map(|w| w[1].0 - w[0].0)
        .fold(f64::INFINITY, f64::min);
    let span = p[p.len() - 1].0 - p[0].0;
    let scale = p.iter().fold(tol, |m, &(_, v)| m.max(v.abs()));
    let in_scope = tol >= 0.0 && h_min > 0.0 && scale * (1.0 + span) < f64::MAX / 8.0;
    in_scope.then(|| {
        64.0 * f64::EPSILON * scale + f64::MIN_POSITIVE * (2.0 + span) + f64::MIN_POSITIVE / h_min
    })
}

/// Saturated-ramp waveform parameters `(M, S)` — the 50 % arrival point and
/// the (full-swing-equivalent) transition time (paper eq. 29).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SaturatedRamp {
    /// 50 % arrival time (s).
    pub m: f64,
    /// Full-swing transition time (s).
    pub s: f64,
    /// Transition direction.
    pub rising: bool,
}

impl SaturatedRamp {
    /// Materializes the ramp as a waveform between the given rails.
    pub fn to_waveform(&self, v_low: f64, v_high: f64) -> Waveform {
        let (v0, v1) = if self.rising {
            (v_low, v_high)
        } else {
            (v_high, v_low)
        };
        let t0 = self.m - self.s / 2.0;
        Waveform::ramp(v0, v1, t0, self.s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ramp_eval_and_extrapolation() {
        let w = Waveform::ramp(0.0, 1.8, 1e-9, 2e-9);
        assert_eq!(w.eval(0.0), 0.0);
        assert!((w.eval(2e-9) - 0.9).abs() < 1e-12);
        assert_eq!(w.eval(9e-9), 1.8);
        assert!(w.is_rising());
        assert_eq!(w.initial_value(), 0.0);
        assert_eq!(w.final_value(), 1.8);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn non_monotonic_times_panic() {
        let _ = Waveform::from_points(vec![(1.0, 0.0), (0.5, 1.0)]);
    }

    #[test]
    fn compress_straight_line() {
        // 100 collinear samples compress to 2 points.
        let points: Vec<(f64, f64)> = (0..100).map(|k| (k as f64, 2.0 * k as f64)).collect();
        let w = Waveform::from_points(points).compress(1e-9);
        assert_eq!(w.points().len(), 2);
        assert!((w.eval(50.0) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn compress_keeps_corners() {
        let w = Waveform::from_points(vec![
            (0.0, 0.0),
            (1.0, 0.0),
            (2.0, 1.0),
            (3.0, 1.0),
            (4.0, 1.0),
        ]);
        let c = w.compress(1e-6);
        // The two corner points must survive.
        assert!(c.points().len() >= 4 - 1);
        for t in [0.5, 1.5, 2.5, 3.5] {
            assert!((c.eval(t) - w.eval(t)).abs() < 1e-6);
        }
    }

    #[test]
    fn compress_tolerance_is_inclusive() {
        // The middle sample lies exactly `tol` off the chord and is
        // dropped; one ulp further out it is kept.
        let tol = 0.1;
        let w = |v: f64| Waveform::from_points(vec![(0.0, 0.0), (1.0, v), (2.0, 0.0)]);
        assert_eq!(w(tol).compress(tol).points().len(), 2);
        assert_eq!(w(tol.next_up()).compress(tol).points().len(), 3);
    }

    #[test]
    fn crossing_detection() {
        let w = Waveform::ramp(0.0, 1.0, 0.0, 2.0);
        let t = w.crossing(0.5, true).unwrap();
        assert!((t - 1.0).abs() < 1e-12);
        assert!(w.crossing(0.5, false).is_none());
    }

    #[test]
    fn saturated_ramp_roundtrip() {
        let sr = SaturatedRamp {
            m: 5e-9,
            s: 2e-9,
            rising: true,
        };
        let w = sr.to_waveform(0.0, 1.8);
        let back = w.to_saturated_ramp(0.0, 1.8).unwrap();
        assert!((back.m - sr.m).abs() < 1e-12);
        assert!((back.s - sr.s).abs() < 1e-12);
        assert!(back.rising);
    }

    #[test]
    fn falling_ramp_extraction() {
        let w = Waveform::ramp(1.8, 0.0, 1e-9, 4e-9);
        let sr = w.to_saturated_ramp(0.0, 1.8).unwrap();
        assert!(!sr.rising);
        assert!((sr.m - 3e-9).abs() < 1e-12);
        assert!((sr.s - 4e-9).abs() < 1e-11);
    }

    #[test]
    fn incomplete_transition_is_error() {
        let w = Waveform::ramp(0.0, 0.4, 0.0, 1e-9); // never reaches 0.9 V
        assert!(matches!(
            w.to_saturated_ramp(0.0, 1.8),
            Err(TetaError::IncompleteTransition { .. })
        ));
    }

    #[test]
    fn constant_waveform() {
        let w = Waveform::constant(1.8);
        assert_eq!(w.eval(-1.0), 1.8);
        assert_eq!(w.eval(100.0), 1.8);
        assert!(!w.is_rising());
    }
}
