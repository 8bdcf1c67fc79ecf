//! The stage models' sparse full-order loads against a dense oracle.
//!
//! A `StageModel` keeps its effective load (`G0`, `C0`, `dGi`, `dCi` with
//! the driver chords folded in) sparse, and densifies `(G(w), C(w))` only
//! where the exact-reduction rung, the unreduced rung and the exact
//! reference flow read it. The oracle is the dense route the model was
//! characterized from: `assemble_variational` plus the chord folding of
//! `StageModel::build`. On every distinct stage of the ten Table-4 paths
//! (5 circuits × {10, 500} elements) the stored load must evaluate to the
//! oracle's matrices and port incidence bit for bit, and on a 500-element
//! stage the exact reduction of the stored load must equal the oracle's.
//!
//! The characterization oracle is the dense route `VariationalRom::
//! characterize` took before it read the sparse load: a copy of its
//! `basis_at`, `align_basis`, dense PRIMA basis, ±δ loop over
//! `VariationalMna::eval`, `prima_project` and eq. (11) products. Every
//! matrix of the ROM characterized from the sparse load must equal it bit
//! for bit.

use linvar::circuit::{NodeId, SparseVariationalMna, VariationalMna};
use linvar::core::stage_builder::{build_stage_load, StageLoad, StageLoadSpec};
use linvar::devices::chord_conductance;
use linvar::interconnect::builder::build_coupled_lines;
use linvar::interconnect::example1_load;
use linvar::iscas::{benchmark, decompose_to_primitives, longest_path};
use linvar::mor::{pact_reduce, prima_project};
use linvar::numeric::{
    gram_schmidt_orthonormalize, AnySolver, LinearSolver, Matrix, NumericError, SolverChoice,
};
use linvar::prelude::*;
use std::collections::BTreeSet;

const CIRCUITS: [&str; 5] = ["s27", "s208", "s444", "s1423", "s9234"];

fn path_cells(circuit: &str) -> Vec<String> {
    let bench = benchmark(circuit).expect("embedded benchmark");
    let report = longest_path(&bench.netlist).expect("has a path");
    let stages = decompose_to_primitives(&bench.netlist, &report).expect("decomposes");
    stages.into_iter().map(|s| s.cell).collect()
}

/// Every value of `m` as raw bits, with its shape.
fn bits(m: &Matrix) -> (usize, usize, Vec<u64>) {
    let v = m.as_slice().iter().map(|x| x.to_bits()).collect();
    (m.rows(), m.cols(), v)
}

/// The load of a stage as `PathModel::build` builds it.
fn stage_load(n_elem: usize, driver: &str, receiver: &str, tech: &Technology) -> StageLoad {
    let spec = StageLoadSpec {
        linear_elements: n_elem,
        driver_cell: driver.into(),
        receiver_cell: receiver.into(),
    };
    build_stage_load(
        &spec,
        &CellLibrary::standard(tech.clone()),
        &WireTech::m018(),
    )
    .expect("stage load")
}

/// The dense effective load: assembled, then the unit inverter's chord
/// conductance folded onto the driven port, as `StageModel::build` does.
fn oracle(load: &StageLoad, tech: &Technology) -> VariationalMna {
    folded(&load.netlist, &[load.near], tech)
}

/// `netlist`'s dense variational matrices with the unit inverter's chord
/// conductance folded onto each driven port, in driver order.
fn folded(netlist: &Netlist, driven: &[NodeId], tech: &Technology) -> VariationalMna {
    let mut var = netlist.assemble_variational().expect("assembles");
    let lib = &tech.library;
    let nmos = lib.get(&lib.nmos_name()).expect("nmos");
    let pmos = lib.get(&lib.pmos_name()).expect("pmos");
    let g_out = chord_conductance(nmos, tech.wn, lib.lmin, lib.vdd)
        + chord_conductance(pmos, tech.wp, lib.lmin, lib.vdd);
    for node in driven {
        let port = netlist.ports().iter().position(|p| p == node);
        let idx = var.port_indices[port.expect("driven node is a port")];
        var.add_grounded_conductance(idx, g_out).expect("folds");
    }
    var
}

/// The dense PRIMA basis: block Arnoldi on `(G⁻¹C, G⁻¹B)` with the dense
/// Krylov product `C·v`.
fn dense_prima_basis(
    g: &Matrix,
    c: &Matrix,
    b: &Matrix,
    order: usize,
) -> Result<Matrix, NumericError> {
    let n = g.rows();
    let lu = AnySolver::factor_dense_matrix(g, SolverChoice::Auto)?;
    let r = lu.solve_mat(b)?;
    let mut basis: Vec<Vec<f64>> = Vec::new();
    let candidates: Vec<Vec<f64>> = (0..r.cols()).map(|j| r.col(j)).collect();
    gram_schmidt_orthonormalize(&mut basis, &candidates, 1e-10);
    let mut block_start = 0;
    while basis.len() < order.min(n) {
        let block_end = basis.len();
        if block_start == block_end {
            break;
        }
        let mut next: Vec<Vec<f64>> = Vec::new();
        for v in &basis[block_start..block_end] {
            let cv = c.mul_vec(v);
            next.push(lu.solve(&cv)?);
        }
        block_start = block_end;
        gram_schmidt_orthonormalize(&mut basis, &next, 1e-10);
    }
    basis.truncate(order.min(n));
    let q = basis.len();
    let mut x = Matrix::zeros(n, q);
    for (j, v) in basis.iter().enumerate() {
        x.set_col(j, v);
    }
    Ok(x)
}

fn dense_basis_at(
    g: &Matrix,
    c: &Matrix,
    b: &Matrix,
    port_indices: &[usize],
    method: ReductionMethod,
) -> Result<Matrix, NumericError> {
    match method {
        ReductionMethod::Prima { order } => dense_prima_basis(g, c, b, order),
        ReductionMethod::Pact { internal_modes } => {
            let (_, x) = pact_reduce(g, c, port_indices, internal_modes)?;
            Ok(x)
        }
    }
}

// The copied routes keep the index loops of `linvar-mor`, which allows
// this lint crate-wide.
#[allow(clippy::needless_range_loop)]
fn align_basis(x0: &Matrix, x: &Matrix) -> Matrix {
    let q = x0.cols();
    let mut aligned = Matrix::zeros(x0.rows(), q);
    let mut used = vec![false; x.cols()];
    for j in 0..q {
        let target = x0.col(j);
        let mut best = None;
        let mut best_dot = 0.0_f64;
        for k in 0..x.cols() {
            if used[k] {
                continue;
            }
            let cand = x.col(k);
            let dot: f64 = target.iter().zip(&cand).map(|(a, b)| a * b).sum();
            if dot.abs() > best_dot.abs() || best.is_none() {
                best_dot = dot;
                best = Some(k);
            }
        }
        if let Some(k) = best {
            used[k] = true;
            let col = x.col(k);
            let sign = if best_dot < 0.0 { -1.0 } else { 1.0 };
            let col: Vec<f64> = col.iter().map(|v| v * sign).collect();
            aligned.set_col(j, &col);
        }
    }
    aligned
}

/// Every matrix of a characterized ROM, in comparison order.
struct RomMatrices {
    x0: Matrix,
    dx: Vec<Matrix>,
    gr0: Matrix,
    cr0: Matrix,
    br0: Matrix,
    dgr: Vec<Matrix>,
    dcr: Vec<Matrix>,
    dbr: Vec<Matrix>,
}

/// The dense characterization route.
#[allow(clippy::needless_range_loop)]
fn dense_characterize(var: &VariationalMna, method: ReductionMethod, delta: f64) -> RomMatrices {
    let b = var.port_incidence();
    let x0 = dense_basis_at(&var.g0, &var.c0, &b, &var.port_indices, method).expect("basis");
    let np = var.param_count();
    let mut dx = Vec::with_capacity(np);
    for i in 0..np {
        let mut w = vec![0.0; np];
        w[i] = delta;
        let (g_hi, c_hi) = var.eval(&w).expect("eval");
        w[i] = -delta;
        let (g_lo, c_lo) = var.eval(&w).expect("eval");
        let x_hi = dense_basis_at(&g_hi, &c_hi, &b, &var.port_indices, method).expect("basis");
        let x_lo = dense_basis_at(&g_lo, &c_lo, &b, &var.port_indices, method).expect("basis");
        let x_hi = align_basis(&x0, &x_hi);
        let x_lo = align_basis(&x0, &x_lo);
        let mut d = &x_hi - &x_lo;
        d.scale_mut(1.0 / (2.0 * delta));
        dx.push(d);
    }
    let nominal = prima_project(&var.g0, &var.c0, &b, &x0);
    let mut dgr = Vec::with_capacity(np);
    let mut dcr = Vec::with_capacity(np);
    let mut dbr = Vec::with_capacity(np);
    for i in 0..np {
        let dxi = &dx[i];
        let dgr_i = {
            let t1 = dxi.transpose().mul_mat(&var.g0.mul_mat(&x0));
            let t2 = x0.transpose().mul_mat(&var.dg[i].mul_mat(&x0));
            let t3 = x0.transpose().mul_mat(&var.g0.mul_mat(dxi));
            &(&t1 + &t2) + &t3
        };
        let dcr_i = {
            let t1 = dxi.transpose().mul_mat(&var.c0.mul_mat(&x0));
            let t2 = x0.transpose().mul_mat(&var.dc[i].mul_mat(&x0));
            let t3 = x0.transpose().mul_mat(&var.c0.mul_mat(dxi));
            &(&t1 + &t2) + &t3
        };
        dgr.push(dgr_i);
        dcr.push(dcr_i);
        dbr.push(dxi.transpose().mul_mat(&b));
    }
    RomMatrices {
        x0,
        dx,
        gr0: nominal.gr,
        cr0: nominal.cr,
        br0: nominal.br,
        dgr,
        dcr,
        dbr,
    }
}

/// The matrices of a characterized ROM, read through its accessors.
fn rom_matrices(rom: &VariationalRom) -> RomMatrices {
    let nominal = rom.evaluate(&[]).expect("nominal");
    let np = rom.param_count();
    let sens: Vec<_> = (0..np)
        .map(|i| rom.reduced_sensitivity(i).expect("sensitivity"))
        .collect();
    RomMatrices {
        x0: rom.basis().clone(),
        dx: (0..np)
            .map(|i| rom.basis_sensitivity(i).expect("dX").clone())
            .collect(),
        gr0: nominal.gr,
        cr0: nominal.cr,
        br0: nominal.br,
        dgr: sens.iter().map(|s| s.0.clone()).collect(),
        dcr: sens.iter().map(|s| s.1.clone()).collect(),
        dbr: sens.iter().map(|s| s.2.clone()).collect(),
    }
}

/// `rom` against the dense route on `dense`, matrix by matrix.
fn assert_rom_matches_dense(
    at: &str,
    rom: &VariationalRom,
    dense: &VariationalMna,
    method: ReductionMethod,
    delta: f64,
) {
    let got = rom_matrices(rom);
    let want = dense_characterize(dense, method, delta);
    assert_eq!(got.dx.len(), want.dx.len(), "{at}: parameter count");
    let pairs = [
        ("X0", &got.x0, &want.x0),
        ("Gr0", &got.gr0, &want.gr0),
        ("Cr0", &got.cr0, &want.cr0),
        ("Br0", &got.br0, &want.br0),
    ];
    for (name, g, w) in pairs {
        assert!(bits(g) == bits(w), "{at}: {name} differs");
    }
    for i in 0..want.dx.len() {
        let pairs = [
            ("dX", &got.dx[i], &want.dx[i]),
            ("dGr", &got.dgr[i], &want.dgr[i]),
            ("dCr", &got.dcr[i], &want.dcr[i]),
            ("dBr", &got.dbr[i], &want.dbr[i]),
        ];
        for (name, g, w) in pairs {
            assert!(bits(g) == bits(w), "{at}: {name}{i} differs");
        }
    }
}

/// The distinct (driver, receiver) pairs of the five Table-4 paths.
fn distinct_stages() -> Vec<(String, String)> {
    let mut seen = BTreeSet::new();
    for circuit in CIRCUITS {
        let cells = path_cells(circuit);
        for (k, cell) in cells.iter().enumerate() {
            let receiver = cells.get(k + 1).map_or("inv", String::as_str);
            seen.insert((cell.clone(), receiver.to_string()));
        }
    }
    seen.into_iter().collect()
}

/// SplitMix64 stream mapped to [-3, 3).
struct Draws(u64);

impl Draws {
    fn next(&mut self) -> f64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d1_049e_b9b9_4a3b);
        z ^= z >> 31;
        6.0 * (z >> 11) as f64 / (1u64 << 53) as f64 - 3.0
    }

    fn vec(&mut self, len: usize) -> Vec<f64> {
        (0..len).map(|_| self.next()).collect()
    }
}

/// Samples for a load with `np` parameters: nominal, zeros, short, long,
/// random with both signs, some entries zeroed, and a non-finite one.
fn samples(np: usize, draws: &mut Draws) -> Vec<Vec<f64>> {
    let mut out = vec![Vec::new(), vec![0.0; np]];
    out.push(draws.vec(np.saturating_sub(2)));
    out.push(draws.vec(np + 3));
    for _ in 0..6 {
        out.push(draws.vec(np));
    }
    let mut sparse = draws.vec(np);
    for v in sparse.iter_mut().step_by(2) {
        *v = 0.0;
    }
    out.push(sparse);
    let mut negative = draws.vec(np);
    for v in &mut negative {
        *v = -v.abs();
    }
    out.push(negative);
    let mut non_finite = draws.vec(np);
    non_finite[0] = f64::INFINITY;
    out.push(non_finite);
    out
}

#[test]
fn stored_loads_evaluate_bit_identically_to_the_dense_oracle() {
    let tech = tech_018();
    let wire = WireTech::m018();
    let mut draws = Draws(0x5eed);
    let mut checked = 0usize;
    for circuit in CIRCUITS {
        let cells = path_cells(circuit);
        for n_elem in [10, 500] {
            let spec = PathSpec {
                cells: cells.clone(),
                linear_elements_between_stages: n_elem,
                input_slew: 60e-12,
            };
            let path = PathModel::build(&spec, &tech, &wire).expect("path builds");
            let mut seen = BTreeSet::new();
            for k in 0..path.stage_count() {
                let receiver = cells.get(k + 1).map_or("inv", String::as_str);
                if !seen.insert((cells[k].as_str(), receiver)) {
                    continue;
                }
                let (stage, _) = path.stage(k);
                let dense = oracle(&stage_load(n_elem, &cells[k], receiver, &tech), &tech);
                let load = stage.load();
                let at = format!("{circuit}@{n_elem} stage {k} ({} -> {receiver})", cells[k]);
                assert_eq!(load.order(), dense.order(), "{at}");
                assert_eq!(load.param_count(), dense.param_count(), "{at}");
                assert_eq!(load.port_indices(), dense.port_indices.as_slice(), "{at}");
                assert_eq!(
                    bits(&load.port_incidence()),
                    bits(&dense.port_incidence()),
                    "{at}: port incidence"
                );
                for w in samples(dense.param_count(), &mut draws) {
                    let (g, c) = load.eval(&w);
                    let (g_want, c_want) = dense.eval(&w).expect("dense eval");
                    assert!(bits(&g) == bits(&g_want), "{at}: G({w:?}) differs");
                    assert!(bits(&c) == bits(&c_want), "{at}: C({w:?}) differs");
                }
                checked += 1;
            }
        }
    }
    assert!(checked >= 10, "only {checked} distinct stage loads checked");
}

#[test]
fn exact_reduction_of_the_stored_load_matches_the_dense_oracle() {
    let tech = tech_018();
    let cells = path_cells("s27");
    let receiver = cells.get(1).map_or("inv", String::as_str);
    let load = stage_load(500, &cells[0], receiver, &tech);
    let stage = StageModel::build(
        &load.netlist,
        &[load.near],
        &tech,
        ReductionMethod::Prima { order: 6 },
        0.02,
    )
    .expect("stage builds");
    let dense = oracle(&load, &tech);
    assert!(dense.order() > 200, "a 500-element load");
    let mut draws = Draws(0x2b);
    let np = dense.param_count();
    let mut ws = vec![Vec::new(), draws.vec(np)];
    let mut negative = draws.vec(np);
    negative[1] = 0.0;
    for v in &mut negative {
        *v = -v.abs();
    }
    ws.push(negative);
    for w in ws {
        // What the exact-reduction rung computes from the stored load ...
        let (g, c) = stage.load().eval(&w);
        let got = stage
            .vrom()
            .evaluate_exact(&g, &c, stage.load().port_indices())
            .expect("reduces");
        // ... and from the dense oracle.
        let (g, c) = dense.eval(&w).expect("dense eval");
        let want = stage
            .vrom()
            .evaluate_exact(&g, &c, &dense.port_indices)
            .expect("reduces");
        assert!(bits(&got.gr) == bits(&want.gr), "Gr at {w:?}");
        assert!(bits(&got.cr) == bits(&want.cr), "Cr at {w:?}");
        assert!(bits(&got.br) == bits(&want.br), "Br at {w:?}");
    }
}

#[test]
fn stage_characterization_matches_the_dense_route_bit_for_bit() {
    let tech = tech_018();
    let stages = distinct_stages();
    assert!(stages.len() >= 20, "{} distinct stages", stages.len());
    let methods = [
        ReductionMethod::Prima { order: 6 },
        ReductionMethod::Pact { internal_modes: 3 },
    ];
    for (driver, receiver) in &stages {
        let load = stage_load(10, driver, receiver, &tech);
        let dense = oracle(&load, &tech);
        for method in methods {
            let stage = StageModel::build(&load.netlist, &[load.near], &tech, method, 0.02)
                .expect("stage builds");
            let at = format!("{driver} -> {receiver} @10, {method:?}");
            assert_rom_matches_dense(&at, stage.vrom(), &dense, method, 0.02);
        }
    }
    let prima = ReductionMethod::Prima { order: 6 };
    for (driver, receiver) in stages.iter().take(3) {
        let load = stage_load(500, driver, receiver, &tech);
        let stage =
            StageModel::build(&load.netlist, &[load.near], &tech, prima, 0.02).expect("builds");
        let at = format!("{driver} -> {receiver} @500");
        assert_rom_matches_dense(&at, stage.vrom(), &oracle(&load, &tech), prima, 0.02);
    }
}

#[test]
fn coupled_rlc_and_example1_characterizations_match_the_dense_route() {
    let tech = tech_018();
    // Two coupled lines, both near ends driven.
    let spec = CoupledLineSpec::new(2, 20e-6, WireTech::m018());
    let built = build_coupled_lines(&spec).expect("builds");
    let driven = [built.inputs[0], built.inputs[1]];
    let prima = ReductionMethod::Prima { order: 6 };
    let stage = StageModel::build(&built.netlist, &driven, &tech, prima, 0.02).expect("builds");
    let dense = folded(&built.netlist, &driven, &tech);
    assert_rom_matches_dense("coupled pair", stage.vrom(), &dense, prima, 0.02);

    // The RLC line deck of `tests/rlc.rs`: inductor branch rows and C
    // sensitivities on them.
    let spec = CoupledLineSpec::new(1, 100e-6, WireTech::m018()).with_inductance();
    let built = build_coupled_lines(&spec).expect("builds");
    let mut nl = built.netlist.clone();
    nl.add_resistor("Rdrv", built.inputs[0], Netlist::GROUND, 200.0)
        .expect("adds");
    let rlc = ReductionMethod::Prima { order: 10 };
    let rom = VariationalRom::characterize(&sparse_load(&nl), rlc, 0.02).expect("characterizes");
    let dense = nl.assemble_variational().expect("assembles");
    assert_rom_matches_dense("rlc line", &rom, &dense, rlc, 0.02);

    // The Example-1 load under PACT.
    let (nl, _) = example1_load().expect("builds");
    let pact = ReductionMethod::Pact { internal_modes: 3 };
    let rom = VariationalRom::characterize(&sparse_load(&nl), pact, 0.02).expect("characterizes");
    let dense = nl.assemble_variational().expect("assembles");
    assert_rom_matches_dense("example 1", &rom, &dense, pact, 0.02);
}

fn sparse_load(nl: &Netlist) -> SparseVariationalMna {
    nl.variational_stamps()
        .expect("stamps")
        .sparse()
        .expect("in range")
}
