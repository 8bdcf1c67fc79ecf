//! Differential bit-identity suite for the MNA stamp emitter.
//!
//! `Netlist::stamp_mna(w)` is the one source of assembled MNA stamps: the
//! dense `assemble_mna` replays it, and the IR-drop grid factors it
//! straight into the solver. These tests pin that every route produces
//! the bits the freeze-then-assemble-densely route produced:
//!
//! * the dense `+=` replay of the stream at `w` equals
//!   `frozen_at(w).assemble_mna()` and a test-local copy of the
//!   element-walking dense assembler it replaced;
//! * the CSC the sparse route factors equals `SparseMatrix::from_dense`
//!   of that dense matrix;
//! * `ir_drop_for_sample` returns the same `f64` bits as a test-local
//!   copy of the freeze → assemble → dense-matrix factor route.
//!
//! `Netlist::variational_stamps` is likewise the one source of the
//! variational matrices: `assemble_variational` replays it and must equal
//! a test-local copy of the element-walking assembler it replaced, and
//! its sparse form must evaluate to the same bits.
//!
//! The AC sweeps (`ac_analysis_with`, `ac_impedance_with`) factor the
//! same streams; their results must equal, bit for bit, a test-local copy
//! of the route that assembled dense `(G, C)` and scanned them back into
//! triplets.

use linvar_bench::grid::sample_set;
use linvar_circuit::{parse_deck, Element, Netlist};
use linvar_core::stage_builder::{build_stage_load, StageLoadSpec};
use linvar_devices::{tech_018, CellLibrary};
use linvar_interconnect::builder::build_coupled_lines;
use linvar_interconnect::{
    htree_case, ir_drop_for_sample, power_grid_case, rc_chain_case, CoupledLineSpec, GridCase,
    PowerGridSpec, WireTech,
};
use linvar_numeric::{
    AnySolver, CAnySolver, Complex, LinearSolver, Matrix, SolverChoice, SparseMatrix,
};
use linvar_spice::{ac_analysis_with, ac_impedance_with, log_frequencies};

fn stamp_conductance(m: &mut Matrix, a: Option<usize>, b: Option<usize>, g: f64) {
    if let Some(i) = a {
        m[(i, i)] += g;
    }
    if let Some(j) = b {
        m[(j, j)] += g;
    }
    if let (Some(i), Some(j)) = (a, b) {
        m[(i, j)] -= g;
        m[(j, i)] -= g;
    }
}

/// The element-walking dense assembler `assemble_mna` used before it
/// became a replay of `stamp_mna(&[])`, kept verbatim as the reference.
fn legacy_assemble(nl: &Netlist) -> (Matrix, Matrix) {
    let n = nl.node_count();
    let m = nl.vsource_count();
    let dim = n + m + nl.inductor_count();
    let mut g = Matrix::zeros(dim, dim);
    let mut c = Matrix::zeros(dim, dim);
    let mut branch = n;
    let mut ind_branch = n + m;
    for e in nl.elements() {
        match e {
            Element::Resistor { a, b, value, .. } => {
                stamp_conductance(&mut g, a.mna_index(), b.mna_index(), 1.0 / value.nominal);
            }
            Element::Capacitor { a, b, value, .. } => {
                stamp_conductance(&mut c, a.mna_index(), b.mna_index(), value.nominal);
            }
            Element::VSource { pos, neg, .. } => {
                if let Some(i) = pos.mna_index() {
                    g[(i, branch)] += 1.0;
                    g[(branch, i)] += 1.0;
                }
                if let Some(j) = neg.mna_index() {
                    g[(j, branch)] -= 1.0;
                    g[(branch, j)] -= 1.0;
                }
                branch += 1;
            }
            Element::Inductor { a, b, value, .. } => {
                if let Some(i) = a.mna_index() {
                    g[(i, ind_branch)] += 1.0;
                    g[(ind_branch, i)] -= 1.0;
                }
                if let Some(j) = b.mna_index() {
                    g[(j, ind_branch)] -= 1.0;
                    g[(ind_branch, j)] += 1.0;
                }
                c[(ind_branch, ind_branch)] += value.nominal;
                ind_branch += 1;
            }
            Element::ISource { .. } => {}
        }
    }
    (g, c)
}

/// The element-walking `assemble_variational` used before it became a
/// replay of `variational_stamps`, kept verbatim as the reference:
/// `(G0, C0, dG, dC)`.
fn legacy_assemble_variational(nl: &Netlist) -> (Matrix, Matrix, Vec<Matrix>, Vec<Matrix>) {
    let n = nl.node_count();
    let np = nl.params.len();
    let n_ind = nl.inductor_count();
    let dim = n + n_ind;
    let mut g0 = Matrix::zeros(dim, dim);
    let mut c0 = Matrix::zeros(dim, dim);
    let mut dg = vec![Matrix::zeros(dim, dim); np];
    let mut dc = vec![Matrix::zeros(dim, dim); np];
    let mut ind_branch = n;
    for e in nl.elements() {
        match e {
            Element::Resistor { a, b, value, .. } => {
                let g_nom = 1.0 / value.nominal;
                stamp_conductance(&mut g0, a.mna_index(), b.mna_index(), g_nom);
                for &(p, s) in &value.sens {
                    // dG/dw = -dR/dw / R0^2
                    let dgdw = -s / (value.nominal * value.nominal);
                    stamp_conductance(&mut dg[p], a.mna_index(), b.mna_index(), dgdw);
                }
            }
            Element::Capacitor { a, b, value, .. } => {
                stamp_conductance(&mut c0, a.mna_index(), b.mna_index(), value.nominal);
                for &(p, s) in &value.sens {
                    stamp_conductance(&mut dc[p], a.mna_index(), b.mna_index(), s);
                }
            }
            Element::Inductor { a, b, value, .. } => {
                if let Some(i) = a.mna_index() {
                    g0[(i, ind_branch)] += 1.0;
                    g0[(ind_branch, i)] -= 1.0;
                }
                if let Some(j) = b.mna_index() {
                    g0[(j, ind_branch)] -= 1.0;
                    g0[(ind_branch, j)] += 1.0;
                }
                c0[(ind_branch, ind_branch)] += value.nominal;
                for &(p, sns) in &value.sens {
                    dc[p][(ind_branch, ind_branch)] += sns;
                }
                ind_branch += 1;
            }
            Element::VSource { .. } | Element::ISource { .. } => {}
        }
    }
    (g0, c0, dg, dc)
}

/// `ir_drop_for_sample` as it was before the stamp emitter: freeze the
/// netlist, assemble both dense matrices, factor the dense `G`.
fn legacy_ir_drop(case: &GridCase, w: &[f64], choice: SolverChoice) -> f64 {
    let frozen = case.netlist.frozen_at(w);
    let mna = frozen.assemble_mna().unwrap();
    let mut rhs = vec![0.0; mna.g.rows()];
    let mut branch = mna.node_count;
    for e in frozen.elements() {
        match e {
            Element::VSource { waveform, .. } => {
                rhs[branch] = waveform.eval(0.0);
                branch += 1;
            }
            Element::ISource {
                pos, neg, waveform, ..
            } => {
                let i = waveform.eval(0.0);
                if let Some(p) = pos.mna_index() {
                    rhs[p] += i;
                }
                if let Some(n) = neg.mna_index() {
                    rhs[n] -= i;
                }
            }
            _ => {}
        }
    }
    let (solver, _) = AnySolver::factor_dense_matrix_recovering(&mna.g, choice).unwrap();
    let v = solver.solve(&rhs).unwrap();
    let mut worst = 0.0f64;
    for name in &case.observe {
        let idx = frozen.find_node(name).unwrap().mna_index().unwrap();
        assert!(
            v[idx].is_finite(),
            "{}: node {name} solved to {}",
            case.name,
            v[idx]
        );
        worst = worst.max(case.vdd - v[idx]);
    }
    worst
}

fn grid(side: usize) -> GridCase {
    power_grid_case(&PowerGridSpec::new(side, side, WireTech::m018())).unwrap()
}

/// Every netlist family the emitter must reproduce: both grid sizes the
/// benchmark straddles the dense side with, an RC chain, an H-tree, an
/// RLC deck whose capacitance clamps at 0 under a large sample, and a
/// deck with self-loop resistors (on a node of their own, the stamps sum
/// to exactly 0.0).
fn netlists() -> Vec<(String, Netlist)> {
    let rlc = parse_deck(
        "\
.param p
V1 in 0 DC 1
R1 in a 10 p=2
L1 a b 1n p=0.1n
C1 b 0 1p p=-0.5p
C2 a b 0.2p
R2 b 0 1k
I1 0 b DC 1m
",
    )
    .unwrap();
    let self_loop = parse_deck(
        "\
.param p
V1 in 0 DC 1
R1 in a 10
Rloop a a 5 p=1
R2 a 0 20 p=-3
C1 a 0 1p
Rfloat b b 7
",
    )
    .unwrap();
    vec![
        ("grid8x8".into(), grid(8).netlist),
        ("grid32x32".into(), grid(32).netlist),
        ("chain2x500".into(), rc_chain_case(500).unwrap().netlist),
        ("htree4".into(), htree_case(4).unwrap().netlist),
        ("rlc".into(), rlc),
        ("self_loop".into(), self_loop),
    ]
}

/// Parameter samples: nominal (empty and explicit zeros), the first
/// benchmark LHS draws, and a 3σ corner that drives `C1` of the RLC deck
/// negative before the clamp.
fn samples() -> Vec<Vec<f64>> {
    let mut w = vec![vec![], vec![0.0; 5]];
    w.extend(sample_set(2));
    w.push(vec![3.0, -3.0, 3.0, -3.0, 3.0]);
    w
}

fn same_bits(a: &Matrix, b: &Matrix) -> bool {
    let (a, b) = (a.as_slice(), b.as_slice());
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

#[test]
fn stamp_replay_matches_frozen_dense_assembly_bitwise() {
    for (name, nl) in netlists() {
        for w in samples() {
            let stamps = nl.stamp_mna(&w).unwrap();
            let frozen = nl.frozen_at(&w);
            let mna = frozen.assemble_mna().unwrap();
            let (legacy_g, legacy_c) = legacy_assemble(&frozen);
            let (g, c) = stamps.dense();
            assert_eq!(stamps.dim, mna.g.rows(), "{name} at {w:?}: order");
            assert_eq!(stamps.node_count, mna.node_count, "{name} at {w:?}");
            assert!(same_bits(&g, &mna.g), "{name} at {w:?}: G differs");
            assert!(same_bits(&c, &mna.c), "{name} at {w:?}: C differs");
            assert!(same_bits(&g, &legacy_g), "{name} at {w:?}: G vs legacy");
            assert!(same_bits(&c, &legacy_c), "{name} at {w:?}: C vs legacy");
        }
        // The nominal system is the replay at w = [].
        let (legacy_g, legacy_c) = legacy_assemble(&nl);
        let mna = nl.assemble_mna().unwrap();
        assert!(same_bits(&mna.g, &legacy_g), "{name}: nominal G");
        assert!(same_bits(&mna.c, &legacy_c), "{name}: nominal C");
    }
}

#[test]
fn variational_stamps_match_the_element_walking_assembly_bitwise() {
    // The small families (the large meshes and the chain would hold a
    // dozen dense matrices of 1k+ nodes), plus a 500-element Table-4
    // stage load with its lumped driver and receiver capacitances.
    let tech = tech_018();
    let spec = StageLoadSpec {
        linear_elements: 500,
        driver_cell: "nand2".into(),
        receiver_cell: "inv".into(),
    };
    let stage = build_stage_load(&spec, &CellLibrary::standard(tech), &WireTech::m018()).unwrap();
    let mut cases: Vec<(String, Netlist)> = netlists()
        .into_iter()
        .filter(|(name, _)| !matches!(name.as_str(), "grid32x32" | "chain2x500"))
        .collect();
    cases.push(("stage500".into(), stage.netlist));
    for (name, nl) in cases {
        let var = nl.assemble_variational().unwrap();
        let (g0, c0, dg, dc) = legacy_assemble_variational(&nl);
        assert!(same_bits(&var.g0, &g0), "{name}: G0");
        assert!(same_bits(&var.c0, &c0), "{name}: C0");
        assert_eq!((var.dg.len(), var.dc.len()), (dg.len(), dc.len()), "{name}");
        for (i, (a, b)) in var.dg.iter().zip(&dg).enumerate() {
            assert!(same_bits(a, b), "{name}: dG{i}");
        }
        for (i, (a, b)) in var.dc.iter().zip(&dc).enumerate() {
            assert!(same_bits(a, b), "{name}: dC{i}");
        }
        let sparse = nl.variational_stamps().unwrap().sparse().unwrap();
        let mut ws = samples();
        ws.push(vec![f64::INFINITY, -2.0, 0.5]);
        for w in ws {
            let (g, c) = sparse.eval(&w);
            let (g_want, c_want) = var.eval(&w).unwrap();
            assert!(same_bits(&g, &g_want), "{name} at {w:?}: G(w)");
            assert!(same_bits(&c, &c_want), "{name} at {w:?}: C(w)");
        }
    }
}

#[test]
fn sparse_stamps_equal_from_dense_of_the_assembly() {
    for (name, nl) in netlists() {
        for w in samples() {
            let stamps = nl.stamp_mna(&w).unwrap();
            let mna = nl.frozen_at(&w).assemble_mna().unwrap();
            let n = stamps.dim;
            let g = SparseMatrix::from_stamps(n, n, &stamps.g).unwrap();
            let c = SparseMatrix::from_stamps(n, n, &stamps.c).unwrap();
            assert!(g == SparseMatrix::from_dense(&mna.g), "{name} at {w:?}: G");
            assert!(c == SparseMatrix::from_dense(&mna.c), "{name} at {w:?}: C");
        }
    }
    // `Rfloat`'s four stamps are its node's only ones and sum to exactly
    // zero, so `from_stamps` stores fewer entries than raw triplet assembly.
    let (_, self_loop) = netlists().pop().unwrap();
    let stamps = self_loop.stamp_mna(&[0.5]).unwrap();
    let n = stamps.dim;
    let pruned = SparseMatrix::from_stamps(n, n, &stamps.g).unwrap();
    let raw = SparseMatrix::from_triplets(n, n, &stamps.g).unwrap();
    assert!(pruned.nnz() < raw.nnz(), "self-loop zeros were not dropped");
}

/// Checks one mesh over the benchmark's first four samples under `Auto`
/// and `Sparse` (plus `Dense` when `dense` is set). The reference is
/// computed once per backend the choices resolve to.
fn check_ir_drop_bits(side: usize, dense: bool) {
    let case = grid(side);
    let mut choices = vec![SolverChoice::Auto, SolverChoice::Sparse];
    if dense {
        choices.push(SolverChoice::Dense);
    }
    for (k, w) in sample_set(4).iter().enumerate() {
        let mut reference = Vec::new();
        for &choice in &choices {
            let backend = choice.backend_for(case.dim);
            let want = match reference.iter().find(|(b, _)| *b == backend) {
                Some(&(_, want)) => want,
                None => {
                    let want = legacy_ir_drop(&case, w, choice);
                    reference.push((backend, want));
                    want
                }
            };
            let got = ir_drop_for_sample(&case, w, choice).unwrap();
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "{} sample {k} under {choice:?}: {got:e} vs {want:e}",
                case.name
            );
        }
    }
}

#[test]
fn ir_drop_bits_match_the_frozen_dense_route_8x8() {
    check_ir_drop_bits(8, true);
}

#[test]
fn ir_drop_bits_match_the_frozen_dense_route_32x32() {
    check_ir_drop_bits(32, true);
}

#[test]
fn ir_drop_bits_match_the_frozen_dense_route_64x64() {
    check_ir_drop_bits(64, false);
}

/// The AC sweep as `ac_analysis_with` and `ac_impedance_with` ran it on
/// dense matrices, kept verbatim as the reference: scan `(G, C)` row by
/// row for positions where either is nonzero, then per frequency map
/// them to `g + jωc`, factor the first point through the recovery ladder
/// and refactor every later one (a fresh recovering factor if that
/// fails).
fn legacy_ac_sweep(
    g: &Matrix,
    c: &Matrix,
    rhs: &[Complex],
    freqs: &[f64],
    rows: &[usize],
    choice: SolverChoice,
) -> Vec<Vec<Complex>> {
    let n = g.rows();
    let mut entries = Vec::new();
    for i in 0..n {
        for j in 0..n {
            let (gij, cij) = (g[(i, j)], c[(i, j)]);
            if gij != 0.0 || cij != 0.0 {
                entries.push((i, j, gij, cij));
            }
        }
    }
    let mut out = vec![Vec::with_capacity(freqs.len()); rows.len()];
    let mut trip = Vec::with_capacity(entries.len());
    let mut solver: Option<CAnySolver> = None;
    let mut x = Vec::new();
    for &f in freqs {
        let omega = 2.0 * std::f64::consts::PI * f;
        trip.clear();
        trip.extend(
            entries
                .iter()
                .map(|&(i, j, g, c)| (i, j, Complex::new(g, omega * c))),
        );
        match solver.as_mut() {
            None => {
                let (s, _rec) = CAnySolver::factor_triplets_recovering(n, &trip, choice).unwrap();
                solver = Some(s);
            }
            Some(s) => {
                if s.refactor_triplets(n, &trip).is_err() {
                    let (s2, _rec) =
                        CAnySolver::factor_triplets_recovering(n, &trip, choice).unwrap();
                    *s = s2;
                }
            }
        }
        solver.as_ref().unwrap().solve_into(rhs, &mut x).unwrap();
        for (col, &row) in out.iter_mut().zip(rows) {
            col.push(x[row]);
        }
    }
    out
}

/// `ac_analysis_with` on the dense `assemble_mna` system.
fn legacy_ac_analysis(
    nl: &Netlist,
    source: &str,
    probes: &[&str],
    freqs: &[f64],
    choice: SolverChoice,
) -> Vec<Vec<Complex>> {
    let mna = nl.assemble_mna().unwrap();
    let branch = mna.vsource_names.iter().position(|s| s == source).unwrap();
    let rows: Vec<usize> = probes
        .iter()
        .map(|p| nl.find_node(p).unwrap().mna_index().unwrap())
        .collect();
    let mut rhs = vec![Complex::ZERO; mna.g.rows()];
    rhs[mna.node_count + branch] = Complex::ONE;
    legacy_ac_sweep(&mna.g, &mna.c, &rhs, freqs, &rows, choice)
}

/// `ac_impedance_with` on the dense `assemble_variational` system.
fn legacy_ac_impedance(
    nl: &Netlist,
    port: &str,
    freqs: &[f64],
    choice: SolverChoice,
) -> Vec<Complex> {
    let var = nl.assemble_variational().unwrap();
    let node = nl.find_node(port).unwrap().mna_index().unwrap();
    let mut rhs = vec![Complex::ZERO; var.order()];
    rhs[node] = Complex::ONE;
    legacy_ac_sweep(&var.g0, &var.c0, &rhs, freqs, &[node], choice).remove(0)
}

fn same_complex_bits(a: &[Complex], b: &[Complex]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits())
}

/// One AC differential case: a netlist, the source of `ac_analysis_with`
/// (none for a source-free load), its probes, the port of
/// `ac_impedance_with`, and a sweep of at least three points.
struct AcCase {
    name: String,
    nl: Netlist,
    source: Option<&'static str>,
    probes: Vec<String>,
    port: String,
    freqs: Vec<f64>,
}

/// Both sweeps of `case` under each of `choices` against the dense-scan
/// route.
fn check_ac_bits(case: &AcCase, choices: &[SolverChoice]) {
    let probes: Vec<&str> = case.probes.iter().map(String::as_str).collect();
    for &choice in choices {
        if let Some(source) = case.source {
            let got = ac_analysis_with(&case.nl, source, &probes, &case.freqs, choice).unwrap();
            let want = legacy_ac_analysis(&case.nl, source, &probes, &case.freqs, choice);
            for (p, w) in probes.iter().zip(&want) {
                assert!(
                    same_complex_bits(&got.response[*p], w),
                    "{} ac_analysis {p} under {choice:?}",
                    case.name
                );
            }
        }
        let got = ac_impedance_with(&case.nl, &case.port, &case.freqs, choice).unwrap();
        let want = legacy_ac_impedance(&case.nl, &case.port, &case.freqs, choice);
        assert!(
            same_complex_bits(&got, &want),
            "{} ac_impedance under {choice:?}",
            case.name
        );
    }
}

/// A benchmark chain or tree frozen at the first benchmark draw, swept a
/// decade either side of its `chains --analysis ac` frequency.
fn chain_ac_case(case: linvar_interconnect::ChainCase) -> AcCase {
    let f = 2.0 / case.tstop;
    AcCase {
        name: case.name,
        nl: case.netlist.frozen_at(&sample_set(1)[0]),
        source: Some("Vdrv"),
        probes: vec![case.probe.clone()],
        port: case.probe,
        freqs: vec![f / 10.0, f, 10.0 * f],
    }
}

const BOTH: [SolverChoice; 2] = [SolverChoice::Dense, SolverChoice::Sparse];

/// The quick `chains` suite on the sparse backend. Both backends factor
/// the same set of distinct embedded positions and values (the dense
/// replay and the CSC build are independent of their order), so the
/// sparse bits pin the operator for the dense backend too; a dense
/// factor of these embedded orders (2008 and 4162) takes minutes in an
/// unoptimized test build, so the dense side runs on the smaller chain
/// and the decks below.
#[test]
fn ac_bits_match_the_dense_scan_route_quick_chains() {
    check_ac_bits(
        &chain_ac_case(rc_chain_case(500).unwrap()),
        &[SolverChoice::Sparse],
    );
    check_ac_bits(
        &chain_ac_case(htree_case(4).unwrap()),
        &[SolverChoice::Sparse],
    );
    check_ac_bits(&chain_ac_case(rc_chain_case(50).unwrap()), &BOTH);
}

/// The RLC decks (the inductor deck of `tests/rlc.rs` and the clamping
/// deck above, which carries a current source) and the driven
/// Example-2 lines of `tests/ac_conformance.rs` at a fluctuation corner.
#[test]
fn ac_bits_match_the_dense_scan_route_small_decks() {
    let deck = parse_deck(
        "\
V1 in 0 RAMP 0 1 0 1p
R1 in a 10
L1 a out 5n
C1 out 0 1p
",
    )
    .unwrap();
    let (_, rlc) = netlists().swap_remove(4);
    let mut cases = vec![
        AcCase {
            name: "rlc_deck".into(),
            nl: deck,
            source: Some("V1"),
            probes: vec!["out".into(), "a".into()],
            port: "out".into(),
            freqs: log_frequencies(1e8, 1e10, 5),
        },
        AcCase {
            name: "rlc_clamp".into(),
            nl: rlc.frozen_at(&[0.5]),
            source: Some("V1"),
            probes: vec!["b".into()],
            port: "a".into(),
            freqs: log_frequencies(1e8, 1e10, 3),
        },
    ];
    for (n_lines, length) in [(1, 40e-6), (2, 60e-6)] {
        let built =
            build_coupled_lines(&CoupledLineSpec::new(n_lines, length, WireTech::m018())).unwrap();
        let mut nl = built.netlist;
        for (k, &input) in built.inputs.iter().enumerate() {
            nl.add_resistor(&format!("Rdrv{k}"), input, Netlist::GROUND, 1e3)
                .unwrap();
        }
        let port = nl.node_name(built.inputs[0]).unwrap().to_string();
        cases.push(AcCase {
            name: format!("lines{n_lines}x{}um", length * 1e6),
            nl: nl.frozen_at(&[0.66, -0.66, 0.33, -0.33, 0.66]),
            source: None,
            probes: Vec::new(),
            port,
            freqs: log_frequencies(1e7, 1e10, 4),
        });
    }
    for case in &cases {
        check_ac_bits(case, &BOTH);
    }
}
