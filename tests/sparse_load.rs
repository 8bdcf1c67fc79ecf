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

use linvar::circuit::VariationalMna;
use linvar::core::stage_builder::{build_stage_load, StageLoad, StageLoadSpec};
use linvar::devices::chord_conductance;
use linvar::iscas::{benchmark, decompose_to_primitives, longest_path};
use linvar::numeric::Matrix;
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
    let mut var = load.netlist.assemble_variational().expect("assembles");
    let lib = &tech.library;
    let nmos = lib.get(&lib.nmos_name()).expect("nmos");
    let pmos = lib.get(&lib.pmos_name()).expect("pmos");
    let g_out = chord_conductance(nmos, tech.wn, lib.lmin, lib.vdd)
        + chord_conductance(pmos, tech.wp, lib.lmin, lib.vdd);
    let port = load.netlist.ports().iter().position(|p| *p == load.near);
    let idx = var.port_indices[port.expect("near end is a port")];
    var.add_grounded_conductance(idx, g_out).expect("folds");
    var
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
