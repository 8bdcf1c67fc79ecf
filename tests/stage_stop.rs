//! Differential test of the TETA stop rule: a stage that stops where the
//! path stops reading it hands the path exactly what the full window would.
//!
//! The oracle is the full-window flow built from public parts only: the
//! path's stage models run by `StageModel::evaluate` (which never stops
//! early), and copies of the path walk's settle loop, its (m, s, cut) lines
//! and the Gradient-Analysis recursion. On every Table-4 path (5 circuits ×
//! {10, 500} elements, 60 ps slew, both source sets) each oracle stage also
//! runs under the stop rule on the same input; `PathModel`, which stops
//! early, must then reproduce the oracle's delays and GA results bit for
//! bit. Each path is characterized once; that dominates the run time in a
//! debug build.

use linvar::iscas::{benchmark, decompose_to_primitives, longest_path};
use linvar::mor::PoleResidueModel;
use linvar::numeric::{CMatrix, Complex, Matrix};
use linvar::prelude::*;
use linvar::teta::engine::DriverSpec;
use linvar::teta::{StageSolverOptions, StopRule};

const CIRCUITS: [&str; 5] = ["s27", "s208", "s444", "s1423", "s9234"];
const SLEW: f64 = 60e-12;

fn bits(points: &[(f64, f64)]) -> Vec<(u64, u64)> {
    points
        .iter()
        .map(|&(t, v)| (t.to_bits(), v.to_bits()))
        .collect()
}

fn path_cells(circuit: &str) -> Vec<String> {
    let bench = benchmark(circuit).expect("embedded benchmark");
    let report = longest_path(&bench.netlist).expect("has a path");
    let stages = decompose_to_primitives(&bench.netlist, &report).expect("decomposes");
    stages.into_iter().map(|s| s.cell).collect()
}

/// A stage output as the path walk takes it.
struct Settled {
    out: Waveform,
    /// Window attempt (0, 1 or 2) whose output settled.
    attempt: usize,
    /// Time steps the settling run took.
    steps: usize,
}

/// Copy of the path walk's settle loop: the input's end plus 1 ns, doubled
/// up to twice, until `port` ends within 5 % of its rail and crosses
/// mid-rail.
fn settle(
    vdd: f64,
    port: usize,
    rising: bool,
    input: &Waveform,
    eval: impl Fn(f64) -> linvar::teta::StageResult,
) -> Option<Settled> {
    let mut t_end = input.end_time() + 1.0e-9;
    for attempt in 0..3 {
        let res = eval(t_end);
        let w = &res.waveforms[port];
        let settled = (w.final_value() - if rising { vdd } else { 0.0 }).abs() < 0.05 * vdd;
        if settled && w.crossing(vdd / 2.0, rising).is_some() {
            return Some(Settled {
                out: w.clone(),
                attempt,
                steps: res.stats.steps,
            });
        }
        t_end *= 2.0;
    }
    None
}

/// Copy of the path walk's (m, s, cut) lines: the mid-rail crossing, the
/// saturated-ramp slew (the input slew when 10/90 % are missing) and the
/// output truncated at `m + 4·s`.
fn read(out: &Waveform, vdd: f64, rising: bool) -> (f64, f64, Waveform) {
    let m_out = out.crossing(vdd / 2.0, rising).expect("crosses mid-rail");
    let s_est = out
        .to_saturated_ramp(0.0, vdd)
        .map(|sr| sr.s)
        .unwrap_or(SLEW);
    (m_out, s_est, out.truncated(m_out + 4.0 * s_est))
}

fn apply_source(sample: &mut PathSample, name: &str, value: f64) {
    match name {
        "W" => sample.wire[0] += value,
        "T" => sample.wire[1] += value,
        "S" => sample.wire[2] += value,
        "H" => sample.wire[3] += value,
        "rho" => sample.wire[4] += value,
        "DL" => sample.device.dl += value,
        "VT" => sample.device.vt += value,
        other => unreachable!("unknown source {other}"),
    }
}

/// The full-window flow of one path.
struct Oracle<'a> {
    /// Per stage: its model and output port.
    stages: Vec<(&'a StageModel, usize)>,
    vdd: f64,
    h: f64,
}

/// Tallies over the oracle walks: time steps of the full window and of the
/// stop rule, stage evaluations, and those that needed a longer window.
#[derive(Default)]
struct Steps {
    full: usize,
    stopped: usize,
    stages: usize,
    retried: usize,
}

impl<'a> Oracle<'a> {
    fn new(model: &'a PathModel) -> Self {
        Oracle {
            stages: (0..model.stage_count()).map(|k| model.stage(k)).collect(),
            vdd: model.vdd(),
            h: (SLEW / 50.0).clamp(0.2e-12, 1e-12),
        }
    }

    /// The full-window path delay at `sample`. Each stage also runs under
    /// the stop rule on the same input, and must settle at the same window
    /// attempt with bit-identical m, s and truncated output.
    fn delay(&self, sample: &PathSample, steps: &mut Steps) -> f64 {
        let (vdd, h) = (self.vdd, self.h);
        let mut input = Waveform::ramp(0.0, vdd, SLEW, SLEW);
        let m_path_in = input.crossing(vdd / 2.0, true).expect("ramp crosses");
        let mut offset = 0.0;
        let mut m_out_abs = m_path_in;
        for (k, &(model, port)) in self.stages.iter().enumerate() {
            let rising = !input.is_rising();
            let inputs = std::slice::from_ref(&input);
            let rule = StopRule {
                port,
                rising,
                tail: 4.0,
            };
            let run = |stop: Option<StopRule>| {
                settle(vdd, port, rising, &input, |t_end| {
                    model
                        .evaluate_until(&sample.wire, sample.device, inputs, h, t_end, stop)
                        .expect("stage evaluates")
                })
            };
            let full = run(None).expect("full window settles");
            let stopped = run(Some(rule)).expect("stopped run settles");
            steps.full += full.steps;
            steps.stopped += stopped.steps;
            steps.stages += 1;
            steps.retried += usize::from(full.attempt > 0);
            assert_eq!(full.attempt, stopped.attempt, "stage {k}: settle verdicts");
            let (m, s, kept) = read(&full.out, vdd, rising);
            let (m_stop, s_stop, kept_stop) = read(&stopped.out, vdd, rising);
            assert_eq!(m.to_bits(), m_stop.to_bits(), "stage {k}: m");
            assert_eq!(s.to_bits(), s_stop.to_bits(), "stage {k}: s");
            assert_eq!(
                bits(kept.points()),
                bits(kept_stop.points()),
                "stage {k}: truncated output"
            );
            // The path walk's shared reading is these lines.
            let r = rule.reading(&stopped.out, vdd, SLEW).expect("crosses");
            assert_eq!(
                [r.m, r.s, r.cut].map(f64::to_bits),
                [m, s, m + 4.0 * s].map(f64::to_bits),
                "stage {k}: StopRule::reading"
            );
            m_out_abs = m + offset;
            let shift = (m - 2.0 * s).max(0.0);
            input = kept.shifted(-shift);
            offset += shift;
        }
        m_out_abs - m_path_in
    }

    /// Copy of the GA stage run, over the full window.
    fn ga_stage(&self, k: usize, s_in: f64, sample: &PathSample) -> (f64, f64) {
        let (model, port) = self.stages[k];
        let vdd = self.vdd;
        let (v0, v1) = if k.is_multiple_of(2) {
            (0.0, vdd)
        } else {
            (vdd, 0.0)
        };
        let input = Waveform::ramp(v0, v1, s_in, s_in);
        let m_in = 1.5 * s_in;
        let mut t_end = 3.0 * s_in + 1.0e-9;
        for _attempt in 0..3 {
            let res = model
                .evaluate(
                    &sample.wire,
                    sample.device,
                    std::slice::from_ref(&input),
                    self.h,
                    t_end,
                )
                .expect("GA stage evaluates");
            if let Ok(sr) = res.waveforms[port].to_saturated_ramp(0.0, vdd) {
                return (sr.m - m_in, sr.s);
            }
            t_end *= 2.0;
        }
        panic!("GA stage {k} never completes its transition");
    }

    /// Copy of the Gradient-Analysis recursion: nominal delay, σ and the
    /// per-source sensitivities.
    fn gradient_analysis(&self, sources: &VariationSources) -> (f64, f64, Vec<f64>) {
        let active = sources.active();
        let nominal = PathSample::default();
        let mut dm = vec![0.0; active.len()];
        let mut ds = vec![0.0; active.len()];
        let mut s_in = SLEW;
        let mut total_delay = 0.0;
        for k in 0..self.stages.len() {
            let (d0, s_out0) = self.ga_stage(k, s_in, &nominal);
            let ds_in = 0.05 * s_in;
            let (d_hi, s_hi) = self.ga_stage(k, s_in + ds_in, &nominal);
            let (d_lo, s_lo) = self.ga_stage(k, s_in - ds_in, &nominal);
            let dpi_dsin = (d_hi - d_lo) / (2.0 * ds_in);
            let dpsi_dsin = (s_hi - s_lo) / (2.0 * ds_in);
            for (l, &(name, sigma)) in active.iter().enumerate() {
                let (mut hi, mut lo) = (nominal, nominal);
                apply_source(&mut hi, name, sigma);
                apply_source(&mut lo, name, -sigma);
                let (dh, sh) = self.ga_stage(k, s_in, &hi);
                let (dl, sl) = self.ga_stage(k, s_in, &lo);
                let dpi_dw = (dh - dl) / (2.0 * sigma);
                let dpsi_dw = (sh - sl) / (2.0 * sigma);
                let dm_new = dm[l] + dpi_dw + dpi_dsin * ds[l];
                let ds_new = dpsi_dw + dpsi_dsin * ds[l];
                dm[l] = dm_new;
                ds[l] = ds_new;
            }
            total_delay += d0;
            s_in = s_out0;
        }
        let sigmas: Vec<f64> = active.iter().map(|&(_, s)| s).collect();
        let std = linvar::stats::gradient_std(&sigmas, &dm);
        (total_delay, std, dm)
    }
}

#[test]
fn stop_rule_matches_the_full_window_on_every_table4_path() {
    let tech = tech_018();
    let wire = WireTech::m018();
    let sources = [
        ("example3_table4", VariationSources::example3_table4()),
        ("uniform(1/3)", VariationSources::uniform(1.0 / 3.0)),
    ];
    let mut steps = Steps::default();
    for circuit in CIRCUITS {
        let cells = path_cells(circuit);
        for n_elem in [10, 500] {
            let tag = format!("{circuit}@{n_elem}");
            let spec = PathSpec {
                cells: cells.clone(),
                linear_elements_between_stages: n_elem,
                input_slew: SLEW,
            };
            let model = PathModel::build(&spec, &tech, &wire).expect("path builds");
            let oracle = Oracle::new(&model);
            // The 500-element stages cost ten times as much in a debug build.
            let n = if n_elem == 10 { 2 } else { 1 };
            for (name, src) in &sources {
                let samples = model.draw_samples(src, n, &mut rng_from_seed(18));
                for (i, sample) in samples.iter().enumerate() {
                    let want = oracle.delay(sample, &mut steps);
                    let got = model.evaluate_sample(sample).expect("sample evaluates");
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "{tag} {name} sample {i}: delay {got:e} vs full window {want:e}"
                    );
                }
            }
            if n_elem == 10 {
                // GA at the Table-4 sources; its full-window copy is the
                // slowest part of this test.
                let src = &sources[0].1;
                let ga = model.gradient_analysis(src).expect("GA runs");
                let (nominal, std, sens) = oracle.gradient_analysis(src);
                assert_eq!(
                    ga.nominal_delay.to_bits(),
                    nominal.to_bits(),
                    "{tag}: GA nominal"
                );
                assert_eq!(ga.std.to_bits(), std.to_bits(), "{tag}: GA σ");
                let to_bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    to_bits(&ga.sensitivities),
                    to_bits(&sens),
                    "{tag}: GA sensitivities"
                );
            }
        }
    }
    // The rule does stop early: on these paths the full window runs about
    // twice the steps the rule needs.
    eprintln!(
        "steps: full window {}, stop rule {}; {} of {} stages needed a longer window",
        steps.full, steps.stopped, steps.retried, steps.stages
    );
    assert!(
        4 * steps.stopped < 3 * steps.full,
        "stop rule ran {} of {} full-window steps",
        steps.stopped,
        steps.full
    );
}

/// One-port load: the chord conductance in parallel with a capacitor.
fn chord_rc_load(g: f64, c: f64) -> PoleResidueModel {
    let mut r = CMatrix::zeros(1, 1);
    r[(0, 0)] = Complex::from_real(1.0 / c);
    PoleResidueModel {
        poles: vec![Complex::from_real(-g / c)],
        residues: vec![r],
        direct: Matrix::zeros(1, 1),
    }
}

/// A coarse compression tolerance makes the 90 % crossing's segment run to
/// the last sample when the raw samples first pass the cut, so the exact
/// check fails and the loop steps on. The run must still stop early, with
/// the full window's reading.
#[test]
fn failed_stop_check_resumes_the_same_loop() {
    let tech = tech_018();
    let lib = &tech.library;
    let nmos = lib.get(&lib.nmos_name()).unwrap().clone();
    let pmos = lib.get(&lib.pmos_name()).unwrap().clone();
    let g_out = linvar::devices::chord_conductance(&nmos, tech.wn, lib.lmin, lib.vdd)
        + linvar::devices::chord_conductance(&pmos, tech.wp, lib.lmin, lib.vdd);
    let load = chord_rc_load(g_out, 20e-15);
    let driver = DriverSpec {
        port: 0,
        input: Waveform::ramp(0.0, lib.vdd, 20e-12, 50e-12),
        nmos,
        pmos,
        wn: tech.wn,
        wp: tech.wp,
        length: lib.lmin,
        g_out,
    };
    let rule = StopRule {
        port: 0,
        rising: false,
        tail: 4.0,
    };
    let run = |stop: Option<StopRule>| {
        let mut opts = StageSolverOptions::new(lib.vdd, 2e-9, 1e-12);
        opts.compress_tol = 0.1;
        opts.stop = stop;
        let (mut waves, stats) = StageSolver::new(&load, vec![driver.clone()], opts)
            .unwrap()
            .run()
            .unwrap();
        (waves.swap_remove(0), stats)
    };
    let (full, full_stats) = run(None);
    let (stopped, stats) = run(Some(rule));
    assert!(stats.stop_resumes > 0, "no check failed: {stats:?}");
    assert!(
        stats.steps < full_stats.steps,
        "never stopped: {stats:?} vs {full_stats:?}"
    );
    let r_full = rule.reading(&full, lib.vdd, 0.0).unwrap();
    let r_stop = rule.reading(&stopped, lib.vdd, 0.0).unwrap();
    assert_eq!(
        [r_full.m, r_full.s, r_full.cut].map(f64::to_bits),
        [r_stop.m, r_stop.s, r_stop.cut].map(f64::to_bits)
    );
    assert_eq!(
        bits(full.truncated(r_full.cut).points()),
        bits(stopped.truncated(r_stop.cut).points())
    );
}
