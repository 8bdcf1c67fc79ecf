//! Failure-injection tests: every layer must turn bad inputs into typed
//! errors, never panics, hangs or silent garbage.

use linvar::circuit::{parse_deck, CircuitError, Netlist, SourceWaveform};
use linvar::prelude::*;
use linvar::spice::{SpiceError, Transient, TransientOptions};

#[test]
fn floating_subnetwork_reports_singular_matrix() {
    // A load with a completely floating line (no driver conductance, no DC
    // path) must fail characterization with a singular-matrix error, not
    // hang or produce NaNs.
    use linvar::interconnect::builder::build_coupled_lines;
    let spec = CoupledLineSpec::new(2, 10e-6, WireTech::m018());
    let built = build_coupled_lines(&spec).expect("builds");
    let tech = tech_018();
    // Drive only line 0 — line 1 floats.
    let res = StageModel::build(
        &built.netlist,
        &[built.inputs[0]],
        &tech,
        ReductionMethod::Prima { order: 6 },
        0.02,
    );
    match res {
        Err(linvar::teta::TetaError::Numeric(linvar::numeric::NumericError::SingularMatrix {
            ..
        })) => {}
        other => panic!("expected singular-matrix error, got {other:?}"),
    }
}

#[test]
fn nonsense_decks_produce_line_numbered_errors() {
    for (deck, needle) in [
        ("R1 a b -5", "positive"),
        ("C1 a b 1p q=2", "undeclared"),
        ("flub", "unknown element"),
        ("V1 a 0 SIN 1 2", "unknown source"),
        (".weird", "unknown directive"),
        ("I1 a 0 DC 1e999", "not finite"),
        ("V1 a 0 RAMP 0 1.8 1n -1n", "rise time"),
    ] {
        match parse_deck(deck) {
            Err(CircuitError::ParseError { line: 1, message }) => {
                assert!(
                    message.to_lowercase().contains(needle),
                    "deck {deck:?}: message {message:?} missing {needle:?}"
                );
            }
            other => panic!("deck {deck:?}: expected parse error, got {other:?}"),
        }
    }
}

#[test]
fn ir_drop_observing_a_missing_or_ground_node_is_a_typed_error() {
    use linvar::interconnect::{ir_drop_for_sample, power_grid_case, GridError, PowerGridSpec};
    use linvar::numeric::SolverChoice;
    let mut case = power_grid_case(&PowerGridSpec::new(4, 4, WireTech::m018())).expect("builds");
    for bad in ["nosuch", "0", "gnd"] {
        case.observe = vec!["g0_0".into(), bad.into()];
        match ir_drop_for_sample(&case, &[0.0; 5], SolverChoice::Dense) {
            Err(e @ GridError::UnknownObservedNode { .. }) => {
                assert_eq!(e, GridError::UnknownObservedNode { node: bad.into() });
                assert!(e.to_string().contains(bad), "{e}");
            }
            other => panic!("observing {bad:?}: expected a typed error, got {other:?}"),
        }
    }
}

#[test]
fn transient_on_shorted_vsources_fails_cleanly() {
    // Two ideal voltage sources fighting on the same node: singular MNA.
    let mut nl = Netlist::new();
    let a = nl.node("a");
    nl.add_vsource("V1", a, Netlist::GROUND, SourceWaveform::Dc(1.0))
        .unwrap();
    nl.add_vsource("V2", a, Netlist::GROUND, SourceWaveform::Dc(2.0))
        .unwrap();
    nl.add_resistor("R", a, Netlist::GROUND, 100.0).unwrap();
    let opts = TransientOptions::new(1e-9, 1e-12);
    let res = Transient::new(&nl, &opts).unwrap().run();
    assert!(
        matches!(res, Err(SpiceError::Numeric(_))),
        "conflicting sources must fail: {res:?}"
    );
}

#[test]
fn transient_probing_a_missing_or_ground_node_is_a_typed_error() {
    let mut nl = Netlist::new();
    let a = nl.node("a");
    nl.add_vsource("V1", a, Netlist::GROUND, SourceWaveform::Dc(1.0))
        .unwrap();
    nl.add_resistor("R", a, Netlist::GROUND, 100.0).unwrap();
    for bad in ["nosuch", "0", "gnd"] {
        let mut opts = TransientOptions::new(1e-9, 1e-12);
        opts.probes = vec!["a".into(), bad.into()];
        match Transient::new(&nl, &opts).and_then(Transient::run) {
            Err(SpiceError::BadCircuit(msg)) => assert!(msg.contains(bad), "{msg}"),
            other => panic!("probing {bad:?}: expected a typed error, got {other:?}"),
        }
    }
}

#[test]
fn divergent_stage_is_an_error_not_a_hang() {
    use linvar::mor::PoleResidueModel;
    use linvar::numeric::{CMatrix, Complex, Matrix};
    use linvar::teta::engine::DriverSpec;
    use linvar::teta::{StageSolver, StageSolverOptions};
    // Hand the solver a stable-but-pathological load whose instantaneous
    // impedance is enormous: the SC fixed point cannot contract.
    let mut r = CMatrix::zeros(1, 1);
    r[(0, 0)] = Complex::from_real(1e20);
    let load = PoleResidueModel {
        poles: vec![Complex::from_real(-1e6)],
        residues: vec![r],
        direct: Matrix::zeros(1, 1),
    };
    let tech = tech_018();
    let nmos = tech.library.get(&tech.library.nmos_name()).unwrap().clone();
    let pmos = tech.library.get(&tech.library.pmos_name()).unwrap().clone();
    let driver = DriverSpec {
        port: 0,
        input: Waveform::ramp(0.0, 1.8, 10e-12, 30e-12),
        nmos,
        pmos,
        wn: tech.wn,
        wp: tech.wp,
        length: tech.library.lmin,
        g_out: 1e-3,
    };
    let opts = StageSolverOptions::new(1.8, 1e-9, 1e-12);
    let res = StageSolver::new(&load, vec![driver], opts).unwrap().run();
    assert!(
        matches!(res, Err(linvar::teta::TetaError::ScDivergence { .. })),
        "expected SC divergence, got {res:?}"
    );
}

#[test]
fn empty_path_and_unknown_cells_rejected() {
    let tech = tech_018();
    let wire = WireTech::m018();
    for cells in [vec![], vec!["flipflop9000".to_string()]] {
        let spec = PathSpec {
            cells,
            linear_elements_between_stages: 10,
            input_slew: 50e-12,
        };
        assert!(matches!(
            PathModel::build(&spec, &tech, &wire),
            Err(CoreError::BadSpec(_))
        ));
    }
}

#[test]
fn mc_reports_partial_failures_instead_of_aborting() {
    // The executor must count per-sample failures, not abort the run.
    let samples: Vec<f64> = (0..20).map(|k| k as f64).collect();
    let res = linvar::stats::monte_carlo_par(&samples, 1, |&x| {
        if (x as usize).is_multiple_of(5) {
            Err("corner blew up")
        } else {
            Ok(x)
        }
    });
    assert_eq!(res.failures, 4);
    assert_eq!(res.values.len(), 16);
    // The diagnostics must name the failing samples and keep the
    // lowest-index error message for the caller to report.
    assert_eq!(res.failed_indices, vec![0, 5, 10, 15]);
    assert_eq!(res.first_error.as_deref(), Some("corner blew up"));
}

#[test]
fn parallel_mc_reports_identical_diagnostics() {
    // Parallel runs must produce the same failure bookkeeping as the
    // one-worker (inline) run, independent of worker count and scheduling.
    let samples: Vec<f64> = (0..20).map(|k| k as f64).collect();
    let eval = |&x: &f64| {
        if (x as usize).is_multiple_of(5) {
            Err(format!("corner {x} blew up"))
        } else {
            Ok(x)
        }
    };
    let serial = linvar::stats::monte_carlo_par(&samples, 1, eval);
    for threads in [2, 8] {
        let par = linvar::stats::monte_carlo_par(&samples, threads, eval);
        assert_eq!(par.failures, serial.failures);
        assert_eq!(par.failed_indices, serial.failed_indices);
        assert_eq!(par.first_error, serial.first_error);
        assert_eq!(par.values, serial.values);
    }
}

#[test]
fn worker_panic_is_contained_and_counted() {
    // A panicking evaluator must never tear down the run (or poison other
    // workers): the panic is caught, converted to a counted failure, and
    // every healthy sample still produces its value.
    let samples: Vec<usize> = (0..32).collect();
    for threads in [1, 4] {
        let res = linvar::stats::monte_carlo_par(&samples, threads, |&k| {
            if k == 13 {
                panic!("injected worker panic at sample {k}");
            }
            Ok::<f64, String>(k as f64)
        });
        assert_eq!(res.failures, 1, "threads={threads}");
        assert_eq!(res.failed_indices, vec![13]);
        assert_eq!(res.values.len(), 31);
        let diag = res.first_error.expect("panic recorded as diagnostic");
        assert!(diag.contains("panic"), "diagnostic {diag:?}");
        assert!(diag.contains("13"), "diagnostic {diag:?}");
    }
}

#[test]
fn mutated_variational_model_reports_dimension_mismatch() {
    // Inconsistent post-assembly mutation of a variational model — a
    // sensitivity matrix of the wrong shape — must surface as a typed
    // dimension error from `eval`, not an index panic.
    use linvar::interconnect::builder::build_coupled_lines;
    use linvar::numeric::{Matrix, NumericError};
    let spec = CoupledLineSpec::new(2, 10e-6, WireTech::m018());
    let built = build_coupled_lines(&spec).expect("builds");
    let mut var = built.netlist.assemble_variational().expect("assembles");
    assert!(!var.dg.is_empty(), "model carries sensitivities");
    var.dg[0] = Matrix::zeros(1, 1); // wrong shape
    let res = var.eval(&[1.0, 0.0, 0.0, 0.0, 0.0]);
    assert!(
        matches!(res, Err(NumericError::DimensionMismatch { .. })),
        "expected dimension mismatch, got {res:?}"
    );
}

#[test]
fn all_failed_policy_run_reports_health_instead_of_panicking() {
    // A run where every sample exhausts its budget is still a result:
    // the health summary is the product, and nothing panics.
    use linvar::stats::{execute, CampaignFingerprint};
    let samples: Vec<usize> = (0..16).collect();
    let policy = RecoveryPolicy::default();
    let spec = RunSpec {
        threads: 4,
        policy,
        ..RunSpec::default()
    };
    let fp = CampaignFingerprint {
        master_seed: 0,
        n_samples: samples.len(),
        policy,
        model: 0,
    };
    let res = execute(&samples, &spec, &fp, |&k, attempt| {
        Err::<(f64, SampleStatus), String>(format!("sample {k} attempt {attempt} refused"))
    })
    .expect("no snapshot or shard plan to fail");
    assert_eq!(res.health.n_failed, 16);
    assert_eq!(res.health.total(), 16);
    assert!(res.values.is_empty());
    assert_eq!(res.failed_indices.len(), 16);
    assert!(res
        .sample_health
        .iter()
        .all(|h| h.attempts == policy.attempt_budget()));
    let diag = res.first_error.expect("lowest-index diagnostic kept");
    assert!(diag.contains("sample 0"), "{diag}");
}

#[test]
fn eigen_and_lu_reject_pathological_inputs() {
    use linvar::numeric::{eigen_decompose, eigenvalues, LuFactor, Matrix, NumericError};
    // NaN contamination.
    let mut a = Matrix::identity(3);
    a[(1, 2)] = f64::INFINITY;
    assert!(matches!(
        eigenvalues(&a),
        Err(NumericError::InvalidInput(_))
    ));
    // Exactly singular.
    let z = Matrix::zeros(4, 4);
    assert!(matches!(
        LuFactor::new(&z),
        Err(NumericError::SingularMatrix { .. })
    ));
    // Non-square everywhere.
    let rect = Matrix::zeros(2, 5);
    assert!(eigen_decompose(&rect).is_err());
}
