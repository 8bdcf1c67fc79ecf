//! Golden-fixture regression suite: exact-bit `f64` fixtures for the
//! table4/fig7 benchmark rows, a raw stage waveform and the SPICE
//! transient engine's waveforms and work counts, checked into
//! `tests/golden/`. Perf work on the hot path (buffer reuse, algebraic
//! rewrites) must not shift a single result bit; these fixtures catch
//! any drift the statistical asserts elsewhere would absorb.
//!
//! Regenerate after an *intended* numeric change with:
//!
//! ```sh
//! LINVAR_BLESS=1 cargo test --test golden_fixtures
//! ```
//!
//! and commit the diff. A failing fixture prints the first differing
//! line; bless only when the change is understood and deliberate.

use linvar::prelude::*;
use linvar_iscas::{benchmark, decompose_to_primitives, longest_path};
use std::fmt::Write as _;
use std::path::PathBuf;

/// `f64` as its 16-hex-digit bit pattern (the benches' `bits_hex` form).
fn hex(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// Renders rows as `key = value` lines, then either blesses the fixture
/// (`LINVAR_BLESS=1`) or compares byte-for-byte against the checked-in
/// copy.
fn check_or_bless(name: &str, rows: &[(String, String)]) {
    let mut rendered =
        String::from("# Golden fixture: exact f64 bit patterns (LINVAR_BLESS=1 regenerates).\n");
    for (k, v) in rows {
        let _ = writeln!(rendered, "{k} = {v}");
    }
    let path = fixture_path(name);
    if std::env::var("LINVAR_BLESS").is_ok_and(|v| v == "1") {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &rendered).unwrap();
        eprintln!("blessed {}", path.display());
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {} ({e}); generate it with \
             `LINVAR_BLESS=1 cargo test --test golden_fixtures`",
            path.display()
        )
    });
    if expected != rendered {
        let diff = expected
            .lines()
            .zip(rendered.lines())
            .find(|(a, b)| a != b)
            .map(|(a, b)| format!("first difference:\n  golden: {a}\n  actual: {b}"))
            .unwrap_or_else(|| "line counts differ".to_string());
        panic!(
            "golden fixture {name} drifted — hot-path numerics changed. {diff}\n\
             If the change is intended, regenerate with \
             `LINVAR_BLESS=1 cargo test --test golden_fixtures` and commit the diff."
        );
    }
}

fn iscas_path_model(circuit: &str, n_elem: usize) -> PathModel {
    let bench = benchmark(circuit).expect("known benchmark");
    let report = longest_path(&bench.netlist).unwrap();
    let stages = decompose_to_primitives(&bench.netlist, &report).unwrap();
    let spec = PathSpec {
        cells: stages.into_iter().map(|s| s.cell).collect(),
        linear_elements_between_stages: n_elem,
        input_slew: 60e-12,
    };
    PathModel::build(&spec, &tech_018(), &WireTech::m018()).unwrap()
}

/// Monte-Carlo rows exactly as the table4 bin computes them: ISCAS
/// longest path, `example3_table4` sources, master seed 4, five samples
/// at 10 linear elements. Also asserts the thread-count half of the
/// determinism contract — 2 and 8 workers must reproduce the 1-worker
/// bits before they are compared to the fixture.
#[test]
fn golden_table4_rows() {
    let sources = VariationSources::example3_table4();
    let mut rows = Vec::new();
    for circuit in ["s27", "s208"] {
        let model = iscas_path_model(circuit, 10);
        let run = |threads| {
            model
                .run(&sources, Sampling::Lhs(5), 4, &RunSpec::plain(threads))
                .unwrap()
        };
        let mc1 = run(1);
        for threads in [2, 8] {
            let mct = run(threads);
            assert_eq!(
                mc1.delays, mct.delays,
                "{circuit}: delays differ between 1 and {threads} threads"
            );
        }
        rows.push((format!("{circuit}@10.n"), mc1.summary.n.to_string()));
        rows.push((format!("{circuit}@10.mean"), hex(mc1.summary.mean)));
        rows.push((format!("{circuit}@10.std"), hex(mc1.summary.std)));
        for (i, d) in mc1.delays.iter().enumerate() {
            rows.push((format!("{circuit}@10.delay.{i}"), hex(*d)));
        }
    }
    check_or_bless("table4_rows.txt", &rows);
}

/// Fig-7 rows: the s27 MC statistics under the (DL, VT) sources and the
/// gradient-analysis statistics the second histogram is drawn from.
#[test]
fn golden_fig7_rows() {
    let sources = VariationSources::example3(0.33, 0.33);
    let model = iscas_path_model("s27", 10);
    let mc = model
        .run(&sources, Sampling::Lhs(7), 7, &RunSpec::plain(1))
        .unwrap();
    let ga = model.gradient_analysis(&sources).unwrap();
    let mut rows = vec![
        ("s27.mc.n".to_string(), mc.summary.n.to_string()),
        ("s27.mc.mean".to_string(), hex(mc.summary.mean)),
        ("s27.mc.std".to_string(), hex(mc.summary.std)),
        ("s27.ga.nominal".to_string(), hex(ga.nominal_delay)),
        ("s27.ga.std".to_string(), hex(ga.std)),
    ];
    for (i, d) in mc.delays.iter().enumerate() {
        rows.push((format!("s27.mc.delay.{i}"), hex(*d)));
    }
    check_or_bless("fig7_rows.txt", &rows);
}

/// Spectral (gPC) rows: the full stochastic-testing order-2 analysis of
/// the s27 longest path under the (DL, VT) sources — node delays,
/// coefficients, surrogate moments and quantiles, all bit-exact. The
/// thread half of the determinism contract is asserted first: 2 and 8
/// workers must reproduce the 1-worker bits before the fixture compare.
#[test]
fn golden_spectral_rows() {
    let sources = VariationSources::example3(0.33, 0.33);
    let model = iscas_path_model("s27", 10);
    let config = SpectralConfig::stochastic_testing(2);
    let run = |threads| {
        let spec = RunSpec {
            threads,
            ..RunSpec::default()
        };
        model
            .run(&sources, Sampling::Spectral(config), 7, &spec)
            .unwrap()
    };
    let run1 = run(1);
    let pc1 = run1.spectral.as_ref().expect("complete grid");
    for threads in [2, 8] {
        let pct = run(threads).spectral.expect("complete grid");
        assert_eq!(
            pc1.coefficients
                .iter()
                .map(|c| c.to_bits())
                .collect::<Vec<_>>(),
            pct.coefficients
                .iter()
                .map(|c| c.to_bits())
                .collect::<Vec<_>>(),
            "s27 gPC coefficients differ between 1 and {threads} threads"
        );
        assert_eq!(pc1.mean.to_bits(), pct.mean.to_bits());
        assert_eq!(pc1.std.to_bits(), pct.std.to_bits());
    }
    let mut rows = vec![
        ("s27.gpc.nodes".to_string(), pc1.nodes_evaluated.to_string()),
        ("s27.gpc.mean".to_string(), hex(pc1.mean)),
        ("s27.gpc.std".to_string(), hex(pc1.std)),
    ];
    for &(p, v) in &pc1.quantiles {
        rows.push((
            format!("s27.gpc.q{:02}", (p * 100.0).round() as u32),
            hex(v),
        ));
    }
    for (i, c) in pc1.coefficients.iter().enumerate() {
        rows.push((format!("s27.gpc.coeff.{i}"), hex(*c)));
    }
    for (i, d) in run1.delays.iter().enumerate() {
        rows.push((format!("s27.gpc.node_delay.{i}"), hex(*d)));
    }
    check_or_bless("spectral_rows.txt", &rows);
}

/// IR-drop rows exactly as the `acgrid` bin computes them: the quick
/// 8×8 power grid, 8 LHS samples over the 5 wire parameters, worst drop
/// per sample. The determinism contract is asserted before the fixture
/// compare — 2 and 8 worker threads reproduce the 1-worker bits, and the
/// dense backend prints the very same `mc` row as sparse.
#[test]
fn golden_acgrid_rows() {
    use linvar_bench::chains::mc_line;
    use linvar_bench::grid::{drop_for_sample, grid_fingerprint, run_case, sample_set};
    use linvar_bench::{run_points, Points};
    use linvar_interconnect::standard_grid_cases;
    use linvar_numeric::SolverChoice;
    use linvar_stats::CampaignVerdict;
    let samples = sample_set(8); // matches the bin's --quick campaign
    let cases = standard_grid_cases(true).unwrap();
    let mut rows = Vec::new();
    for case in &cases {
        let base = run_case(case, &samples, 1, SolverChoice::Sparse).unwrap();
        let base_line = mc_line(&case.name, &base.summary, base.failures);
        // The bench runner prints the same row under 3 shards, and as a
        // checkpointed campaign cut after two samples and then resumed.
        let runner = |spec: &RunSpec| {
            let fp = grid_fingerprint(&case.name, samples.len());
            let run = run_points(&case.name, Points::Draws(&samples), spec, &fp, |w| {
                drop_for_sample(case, w, SolverChoice::Sparse)
            })
            .unwrap();
            (
                mc_line(&case.name, &run.mc.summary, run.mc.failures),
                run.mc.verdict,
            )
        };
        let sharded = RunSpec {
            shards: Some(ShardConfig {
                n_shards: 3,
                shard_index: None,
            }),
            ..RunSpec::plain(2)
        };
        assert_eq!(runner(&sharded).0, base_line, "{}: 3-shard row", case.name);
        let ckpt = std::env::temp_dir().join(format!(
            "linvar-golden-acgrid-{}-{}.ckpt",
            std::process::id(),
            case.name
        ));
        let durable = |campaign: CampaignConfig| RunSpec {
            campaign,
            ..RunSpec::plain(2)
        };
        let (_, cut) = runner(&durable(CampaignConfig {
            checkpoint: Some(ckpt.clone()),
            sample_budget: Some(2),
            ..CampaignConfig::default()
        }));
        assert!(matches!(cut, CampaignVerdict::Truncated { .. }));
        let (line, verdict) = runner(&durable(CampaignConfig {
            checkpoint: Some(ckpt.clone()),
            resume: Some(ckpt.clone()),
            ..CampaignConfig::default()
        }));
        assert_eq!(verdict, CampaignVerdict::Complete);
        assert_eq!(line, base_line, "{}: cut-and-resumed row", case.name);
        std::fs::remove_file(&ckpt).ok();
        for threads in [2, 8] {
            let mc = run_case(case, &samples, threads, SolverChoice::Sparse).unwrap();
            assert_eq!(
                mc.values, base.values,
                "{}: sparse drops differ between 1 and {threads} threads",
                case.name
            );
            assert_eq!(mc_line(&case.name, &mc.summary, mc.failures), base_line);
        }
        let dense = run_case(case, &samples, 2, SolverChoice::Dense).unwrap();
        assert_eq!(
            mc_line(&case.name, &dense.summary, dense.failures),
            base_line,
            "{}: dense and sparse mc rows diverged",
            case.name
        );
        rows.push((format!("{}.line", case.name), base_line));
        rows.push((format!("{}.mean", case.name), hex(base.summary.mean)));
        rows.push((format!("{}.std", case.name), hex(base.summary.std)));
        for (i, d) in base.values.iter().enumerate() {
            rows.push((format!("{}.drop.{i}", case.name), hex(*d)));
        }
    }
    check_or_bless("acgrid_rows.txt", &rows);
}

/// A raw stage waveform at a non-nominal corner: every breakpoint of the
/// far-end response, bit-exact. This pins the TETA engine (DC solve, SC
/// chord iteration, recursive convolution, compression) below the level
/// where delay extraction could mask a drift.
#[test]
fn golden_stage_waveform() {
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
    let out_pos = built
        .netlist
        .ports()
        .iter()
        .position(|p| *p == built.outputs[0])
        .unwrap();
    let input = Waveform::ramp(0.0, 1.8, 20e-12, 50e-12);
    let res = model
        .evaluate(
            &[0.3, -0.2, 0.1, 0.0, 0.4],
            DeviceVariation::new(0.25, -0.5),
            &[input],
            1e-12,
            1.5e-9,
        )
        .unwrap();
    let points = res.waveforms[out_pos].points();
    let mut rows = vec![("points".to_string(), points.len().to_string())];
    for (i, (t, v)) in points.iter().enumerate() {
        rows.push((format!("p{i:04}.t"), hex(*t)));
        rows.push((format!("p{i:04}.v"), hex(*v)));
    }
    check_or_bless("stage_waveform.txt", &rows);
}

/// FNV-1a over the bit patterns of a waveform, with its length: one
/// stable token per probed waveform for the transient fixture.
fn bits_hash(v: &[f64]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for x in v {
        for b in x.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{}:{h:016x}", v.len())
}

/// One transient run as fixture rows: the work counters, the time axis
/// and every probed waveform (sorted by probe name) as bit hashes, and
/// the last probed value as raw bits.
fn transient_rows(
    rows: &mut Vec<(String, String)>,
    key: &str,
    res: &linvar_spice::TransientResult,
) {
    let s = res.stats;
    rows.push((format!("{key}.steps"), s.steps.to_string()));
    rows.push((format!("{key}.newton"), s.newton_iterations.to_string()));
    rows.push((format!("{key}.factors"), s.lu_factorizations.to_string()));
    rows.push((format!("{key}.solves"), s.solves.to_string()));
    rows.push((format!("{key}.times"), bits_hash(&res.times)));
    let mut probes: Vec<_> = res.waveforms.iter().collect();
    probes.sort_by(|a, b| a.0.cmp(b.0));
    for (name, wave) in probes {
        rows.push((format!("{key}.wave.{name}"), bits_hash(wave)));
        let last = wave.last().copied().unwrap_or(f64::NAN);
        rows.push((format!("{key}.last.{name}"), hex(last)));
    }
}

/// Transient-engine bits below the delay rows: the probed waveforms and
/// the step and factor counts of
///
/// * `chain2x500` frozen at a fixed sample on the dense and the sparse
///   backend, run to `tstop + dt/2` so the last step changes `h` on an
///   unchanged pattern (a sparse refactor) after the DC-to-transient
///   switch changed the pattern (a full factor);
/// * the SPICE reference flow on the s27 longest path at 10 elements
///   (MOSFET stages through the Woodbury update and the DC ladder) —
///   its public result is the path delay, pinned per sample;
/// * the Example-1 PACT pole/residue macromodel driven through a
///   resistor at two stable samples and one that diverges, whose typed
///   error (with the divergence time) is pinned instead.
#[test]
fn golden_transient_bits() {
    use linvar_interconnect::example1::example1_load;
    use linvar_interconnect::rc_chain_case;
    use linvar_numeric::SolverChoice;
    use linvar_spice::OnePortPoleResidue;
    let mut rows = Vec::new();

    let case = rc_chain_case(500).unwrap();
    let frozen = case.netlist.frozen_at(&[0.33, -0.33, 0.2, -0.1, 0.25]);
    for (name, solver) in [
        ("dense", SolverChoice::Dense),
        ("sparse", SolverChoice::Sparse),
    ] {
        let mut opts = TransientOptions::new(case.tstop + case.dt / 2.0, case.dt);
        opts.probes.push(case.probe.clone());
        opts.solver = solver;
        let res = Transient::new(&frozen, &opts).unwrap().run().unwrap();
        transient_rows(&mut rows, &format!("chain2x500.{name}"), &res);
    }

    let model = iscas_path_model("s27", 10);
    let mut samples = vec![PathSample::default()];
    samples.extend(model.draw_samples(
        &VariationSources::example3_table4(),
        2,
        &mut rng_from_seed(4),
    ));
    for (i, sample) in samples.iter().enumerate() {
        let d = model.evaluate_sample_spice(sample).unwrap();
        rows.push((format!("s27@10.spice.delay.{i}"), hex(d)));
    }

    let (nl, _) = example1_load().unwrap();
    let var = nl.variational_stamps().unwrap().sparse().unwrap();
    let raw = VariationalRom::characterize(&var, ReductionMethod::Pact { internal_modes: 3 }, 0.02)
        .unwrap();
    for p in [0.0, 0.05, 0.1] {
        let pr = extract_pole_residue(&raw.evaluate(&[p]).unwrap()).unwrap();
        let mut drive = Netlist::new();
        let inp = drive.node("in");
        let out = drive.node("out");
        drive
            .add_vsource(
                "V1",
                inp,
                Netlist::GROUND,
                SourceWaveform::Ramp {
                    v0: 0.0,
                    v1: 5.0,
                    t0: 1e-9,
                    tr: 2e-9,
                },
            )
            .unwrap();
        drive.add_resistor("Rdrv", inp, out, 270.0).unwrap();
        let load = OnePortPoleResidue::from_model(&pr, out.mna_index().unwrap()).unwrap();
        let mut opts = TransientOptions::new(50e-9, 20e-12);
        opts.probes.push("out".into());
        let run = Transient::new(&drive, &opts)
            .unwrap()
            .with_poleres_load(load)
            .unwrap()
            .run();
        let key = format!("example1.poleres.p{p}");
        match run {
            Ok(res) => transient_rows(&mut rows, &key, &res),
            Err(e) => rows.push((format!("{key}.error"), e.to_string())),
        }
    }
    check_or_bless("transient_bits.txt", &rows);
}
