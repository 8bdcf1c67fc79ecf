//! Engine-agreement tests: the linear-centric engine and the SPICE
//! baseline must produce the same waveforms on shared configurations —
//! the paper's "almost SPICE accuracy" claim for TETA, checked across
//! cell types, loads and variation corners.
//!
//! The second half is the *statistics*-engine conformance table: the
//! spectral (gPC) and Sobol quasi-MC engines must reproduce the
//! Monte-Carlo reference moments and quantiles on a shared path, each
//! metric under its own budget, with a full-table failure report in the
//! same format as the TETA-vs-SPICE budget table.

use linvar::prelude::*;

fn agreement(cells: Vec<String>, n_elem: usize, sample: PathSample) -> (f64, f64) {
    let spec = PathSpec {
        cells,
        linear_elements_between_stages: n_elem,
        input_slew: 50e-12,
    };
    let model = PathModel::build(&spec, &tech_018(), &WireTech::m018()).expect("builds");
    let teta = model.evaluate_sample(&sample).expect("teta evaluates");
    let spice = model
        .evaluate_sample_spice(&sample)
        .expect("spice evaluates");
    (teta, spice)
}

#[test]
fn agreement_across_cell_types() {
    for cell in ["inv", "nand2", "nand3", "nor2", "nor3"] {
        let (teta, spice) = agreement(
            vec![cell.to_string(), "inv".to_string()],
            20,
            PathSample::default(),
        );
        let rel = (teta - spice).abs() / spice;
        assert!(
            rel < 0.10,
            "{cell}: teta {:.2}ps vs spice {:.2}ps ({:.1}% off)",
            teta * 1e12,
            spice * 1e12,
            rel * 100.0
        );
    }
}

#[test]
fn agreement_at_variation_corners() {
    for (wire, dev) in [
        ([1.0, 1.0, 1.0, 1.0, 1.0], DeviceVariation::new(0.0, 0.0)),
        (
            [-1.0, -1.0, -1.0, -1.0, -1.0],
            DeviceVariation::new(0.0, 0.0),
        ),
        ([0.0; 5], DeviceVariation::new(1.0, 1.0)),
        ([0.0; 5], DeviceVariation::new(-1.0, -1.0)),
        ([1.0, -1.0, 0.5, -0.5, 1.0], DeviceVariation::new(0.5, -0.5)),
    ] {
        let sample = PathSample { wire, device: dev };
        let (teta, spice) = agreement(vec!["inv".into(), "inv".into()], 30, sample);
        let rel = (teta - spice).abs() / spice;
        assert!(
            rel < 0.10,
            "corner {wire:?}/{dev:?}: teta {teta:.3e} vs spice {spice:.3e}"
        );
    }
}

#[test]
fn agreement_on_large_load() {
    let (teta, spice) = agreement(vec!["inv".into()], 300, PathSample::default());
    let rel = (teta - spice).abs() / spice;
    assert!(
        rel < 0.05,
        "300 elements: teta {:.2}ps vs spice {:.2}ps",
        teta * 1e12,
        spice * 1e12
    );
}

/// The paper's "almost SPICE accuracy" claim as an explicit per-stage
/// tolerance budget: each benchmark configuration carries its own bound
/// on the relative 50% (VDD/2-crossing) delay error between TETA and
/// the SPICE baseline. All rows are evaluated — a failure reports the
/// whole budget table, not just the first violation.
#[test]
fn tolerance_budget_table() {
    struct Row {
        label: &'static str,
        cells: &'static [&'static str],
        n_elem: usize,
        sample: PathSample,
        bound: f64,
    }
    let corner = PathSample {
        wire: [1.0, -1.0, 0.5, -0.5, 1.0],
        device: DeviceVariation::new(0.5, -0.5),
    };
    let budget = [
        Row {
            label: "inv chain, light load",
            cells: &["inv", "inv"],
            n_elem: 10,
            sample: PathSample::default(),
            bound: 0.10,
        },
        Row {
            label: "nand2 stage, light load",
            cells: &["nand2", "inv"],
            n_elem: 20,
            sample: PathSample::default(),
            bound: 0.10,
        },
        Row {
            label: "nor2 stage, light load",
            cells: &["nor2", "inv"],
            n_elem: 20,
            sample: PathSample::default(),
            bound: 0.10,
        },
        Row {
            label: "inv, heavy interconnect",
            cells: &["inv"],
            n_elem: 300,
            sample: PathSample::default(),
            bound: 0.05,
        },
        Row {
            label: "inv chain, mixed corner",
            cells: &["inv", "inv"],
            n_elem: 30,
            sample: corner,
            bound: 0.10,
        },
    ];
    let mut table = String::new();
    let mut violations = 0usize;
    for row in &budget {
        let cells = row.cells.iter().map(|c| c.to_string()).collect();
        let (teta, spice) = agreement(cells, row.n_elem, row.sample);
        let rel = (teta - spice).abs() / spice.abs();
        let verdict = if rel <= row.bound { "ok" } else { "FAIL" };
        if rel > row.bound {
            violations += 1;
        }
        table.push_str(&format!(
            "{:<28} teta {:>7.2} ps  spice {:>7.2} ps  err {:>5.2}%  budget {:>4.1}%  {}\n",
            row.label,
            teta * 1e12,
            spice * 1e12,
            rel * 100.0,
            row.bound * 100.0,
            verdict
        ));
    }
    assert_eq!(violations, 0, "tolerance budget exceeded:\n{table}");
}

/// Cross-engine conformance: the gPC and Sobol statistics engines vs
/// the Monte-Carlo reference on a shared 2-stage path under the (DL, VT)
/// sources. Every row of the table is evaluated — mean, std and the
/// 5/50/95 % quantiles per engine, each with its own budget — and a
/// failure prints the whole table, mirroring `tolerance_budget_table`.
///
/// Budgets: means within 2 % + 4 MC standard errors; stds within 25 %
/// (both estimators are noisy at n=200); quantiles within 2 % + 4·SE
/// of the matching MC order statistic (SE ≈ σ·√(p(1−p)/n)/φ(z_p),
/// bounded below by the mean budget for the tails).
#[test]
fn cross_engine_conformance_table() {
    let spec = PathSpec {
        cells: vec!["inv".into(), "nand2".into()],
        linear_elements_between_stages: 10,
        input_slew: 50e-12,
    };
    let model = PathModel::build(&spec, &tech_018(), &WireTech::m018()).expect("builds");
    let sources = VariationSources::example3(0.33, 0.33);
    let (n, seed, threads) = (200usize, 11u64, 2usize);

    // Monte-Carlo reference: empirical moments and order statistics.
    let plain = RunSpec::plain(threads);
    let mc = model
        .run(&sources, Sampling::Lhs(n), seed, &plain)
        .expect("mc");
    assert_eq!(mc.failures, 0, "{:?}", mc.first_error);
    let mut sorted = mc.delays.clone();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let mc_q = |p: f64| sorted[((n - 1) as f64 * p).round() as usize];
    let se_mean = mc.summary.std / (n as f64).sqrt();
    // Asymptotic SE of the p-th sample quantile of a normal:
    // σ·√(p(1−p)/n) / φ(Φ⁻¹(p)).
    let se_q = |p: f64| {
        let z = linvar::stats::sampling::inverse_normal_cdf(p);
        let phi = (-0.5 * z * z).exp() / (2.0 * std::f64::consts::PI).sqrt();
        mc.summary.std * (p * (1.0 - p) / n as f64).sqrt() / phi
    };
    let mean_budget = 0.02 * mc.summary.mean.abs() + 4.0 * se_mean;
    let q_budget = |p: f64| mean_budget.max(0.02 * mc_q(p).abs() + 4.0 * se_q(p));
    let std_budget = 0.25 * mc.summary.std;

    // gPC: stochastic-testing order 2 over the two active sources.
    let pc = model
        .run(
            &sources,
            Sampling::Spectral(SpectralConfig::stochastic_testing(2)),
            seed,
            &RunSpec {
                threads,
                ..RunSpec::default()
            },
        )
        .expect("gpc")
        .spectral
        .expect("complete grid");
    let pc_q = |p: f64| {
        pc.quantiles
            .iter()
            .find(|(q, _)| (q - p).abs() < 1e-12)
            .map(|&(_, v)| v)
            .expect("surrogate quantile present")
    };

    // Sobol: the same campaign flow over the quasi-MC stream.
    let qmc = model
        .run(&sources, Sampling::Sobol(n), seed, &plain)
        .expect("sobol");
    assert_eq!(qmc.failures, 0, "{:?}", qmc.first_error);
    let mut qs = qmc.delays.clone();
    qs.sort_by(|a, b| a.total_cmp(b));
    let qmc_q = |p: f64| qs[((n - 1) as f64 * p).round() as usize];

    struct Row {
        engine: &'static str,
        metric: &'static str,
        value: f64,
        reference: f64,
        budget: f64,
    }
    let rows = [
        Row {
            engine: "gpc",
            metric: "mean",
            value: pc.mean,
            reference: mc.summary.mean,
            budget: mean_budget,
        },
        Row {
            engine: "gpc",
            metric: "std",
            value: pc.std,
            reference: mc.summary.std,
            budget: std_budget,
        },
        Row {
            engine: "gpc",
            metric: "q05",
            value: pc_q(0.05),
            reference: mc_q(0.05),
            budget: q_budget(0.05),
        },
        Row {
            engine: "gpc",
            metric: "q50",
            value: pc_q(0.50),
            reference: mc_q(0.50),
            budget: q_budget(0.50),
        },
        Row {
            engine: "gpc",
            metric: "q95",
            value: pc_q(0.95),
            reference: mc_q(0.95),
            budget: q_budget(0.95),
        },
        Row {
            engine: "sobol",
            metric: "mean",
            value: qmc.summary.mean,
            reference: mc.summary.mean,
            budget: mean_budget,
        },
        Row {
            engine: "sobol",
            metric: "std",
            value: qmc.summary.std,
            reference: mc.summary.std,
            budget: std_budget,
        },
        Row {
            engine: "sobol",
            metric: "q05",
            value: qmc_q(0.05),
            reference: mc_q(0.05),
            budget: q_budget(0.05),
        },
        Row {
            engine: "sobol",
            metric: "q50",
            value: qmc_q(0.50),
            reference: mc_q(0.50),
            budget: q_budget(0.50),
        },
        Row {
            engine: "sobol",
            metric: "q95",
            value: qmc_q(0.95),
            reference: mc_q(0.95),
            budget: q_budget(0.95),
        },
    ];
    // The spectral engine's whole point: orders of magnitude fewer solves.
    assert!(
        pc.nodes_evaluated * 10 <= n,
        "gPC used {} solves vs the MC reference's {n}",
        pc.nodes_evaluated
    );
    let mut table = String::new();
    let mut violations = 0usize;
    for row in &rows {
        let err = (row.value - row.reference).abs();
        let verdict = if err <= row.budget { "ok" } else { "FAIL" };
        if err > row.budget {
            violations += 1;
        }
        table.push_str(&format!(
            "{:<6} {:<5} engine {:>9.3} ps  mc {:>9.3} ps  err {:>7.4} ps  budget {:>7.4} ps  {}\n",
            row.engine,
            row.metric,
            row.value * 1e12,
            row.reference * 1e12,
            err * 1e12,
            row.budget * 1e12,
            verdict
        ));
    }
    assert_eq!(
        violations, 0,
        "cross-engine conformance budget exceeded:\n{table}"
    );
}

/// The IR-drop counterpart of [`cross_engine_conformance_table`]: the
/// gPC and Sobol engines vs the Monte-Carlo reference on the 8×8
/// stochastic power grid, same budget formulas (means within
/// 2 % + 4 MC standard errors, stds within 25 %, quantiles within
/// 2 % + 4·SE of the matching MC order statistic), full-table failure
/// report. This is the acceptance gate for the `acgrid` workload: every
/// statistics engine must tell the same story about the worst-drop
/// distribution.
#[test]
fn ir_drop_cross_engine_conformance_table() {
    use linvar_bench::grid::{
        drop_for_sample, grid_fingerprint, run_case, sample_set, sample_set_sobol, GRID_GPC_CONFIG,
        GRID_SIGMA,
    };
    use linvar_bench::{run_points, Points};
    use linvar_interconnect::{power_grid_case, PowerGridSpec};
    use linvar_numeric::SolverChoice;

    let case = power_grid_case(&PowerGridSpec::new(8, 8, WireTech::m018())).expect("grid builds");
    let (n, threads) = (200usize, 2usize);

    let mc = run_case(&case, &sample_set(n), threads, SolverChoice::Sparse).expect("mc");
    assert_eq!(mc.failures, 0, "{:?}", mc.first_error);
    let mut sorted = mc.values.clone();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let mc_q = |p: f64| sorted[((n - 1) as f64 * p).round() as usize];
    let se_mean = mc.summary.std / (n as f64).sqrt();
    let se_q = |p: f64| {
        let z = linvar::stats::sampling::inverse_normal_cdf(p);
        let phi = (-0.5 * z * z).exp() / (2.0 * std::f64::consts::PI).sqrt();
        mc.summary.std * (p * (1.0 - p) / n as f64).sqrt() / phi
    };
    let mean_budget = 0.02 * mc.summary.mean.abs() + 4.0 * se_mean;
    let q_budget = |p: f64| mean_budget.max(0.02 * mc_q(p).abs() + 4.0 * se_q(p));
    let std_budget = 0.25 * mc.summary.std;

    let plan = SpectralPlan::build(5, GRID_GPC_CONFIG).expect("plan");
    let nodes = Points::Nodes {
        plan: &plan,
        sigma: GRID_SIGMA,
    };
    let pc = run_points(
        &case.name,
        nodes,
        &RunSpec::plain(threads),
        &grid_fingerprint(&case.name, 0),
        |w| drop_for_sample(&case, w, SolverChoice::Sparse),
    )
    .expect("gpc")
    .spectral
    .expect("complete grid");
    let pc_q = |p: f64| {
        pc.quantiles
            .iter()
            .find(|(q, _)| (q - p).abs() < 1e-12)
            .map(|&(_, v)| v)
            .expect("surrogate quantile present")
    };

    let qmc = run_case(&case, &sample_set_sobol(n), threads, SolverChoice::Sparse).expect("sobol");
    assert_eq!(qmc.failures, 0, "{:?}", qmc.first_error);
    let mut qs = qmc.values.clone();
    qs.sort_by(|a, b| a.total_cmp(b));
    let qmc_q = |p: f64| qs[((n - 1) as f64 * p).round() as usize];

    assert!(
        pc.nodes_evaluated * 10 <= n,
        "gPC used {} DC solves vs the MC reference's {n}",
        pc.nodes_evaluated
    );

    let rows = [
        ("gpc", "mean", pc.mean, mc.summary.mean, mean_budget),
        ("gpc", "std", pc.std, mc.summary.std, std_budget),
        ("gpc", "q05", pc_q(0.05), mc_q(0.05), q_budget(0.05)),
        ("gpc", "q50", pc_q(0.50), mc_q(0.50), q_budget(0.50)),
        ("gpc", "q95", pc_q(0.95), mc_q(0.95), q_budget(0.95)),
        (
            "sobol",
            "mean",
            qmc.summary.mean,
            mc.summary.mean,
            mean_budget,
        ),
        ("sobol", "std", qmc.summary.std, mc.summary.std, std_budget),
        ("sobol", "q05", qmc_q(0.05), mc_q(0.05), q_budget(0.05)),
        ("sobol", "q50", qmc_q(0.50), mc_q(0.50), q_budget(0.50)),
        ("sobol", "q95", qmc_q(0.95), mc_q(0.95), q_budget(0.95)),
    ];
    let mut table = String::new();
    let mut violations = 0usize;
    for &(engine, metric, value, reference, budget) in &rows {
        let err = (value - reference).abs();
        let verdict = if err <= budget { "ok" } else { "FAIL" };
        if err > budget {
            violations += 1;
        }
        table.push_str(&format!(
            "{engine:<6} {metric:<5} engine {:>9.4} mV  mc {:>9.4} mV  err {:>8.5} mV  \
             budget {:>8.5} mV  {verdict}\n",
            value * 1e3,
            reference * 1e3,
            err * 1e3,
            budget * 1e3,
        ));
    }
    assert_eq!(
        violations, 0,
        "IR-drop cross-engine conformance budget exceeded:\n{table}"
    );
}

#[test]
fn both_engines_monotone_in_resistivity() {
    let d = |rho: f64| {
        let mut s = PathSample::default();
        s.wire[4] = rho;
        agreement(vec!["inv".into()], 100, s)
    };
    let (t_lo, s_lo) = d(-1.0);
    let (t_hi, s_hi) = d(1.0);
    assert!(t_hi > t_lo, "teta monotone in rho");
    assert!(s_hi > s_lo, "spice monotone in rho");
}
