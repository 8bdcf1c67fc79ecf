//! Property tests for the zero-allocation evaluation path: the
//! workspace-backed [`VariationalRom::evaluate_into`] must be **bitwise**
//! identical to the allocating [`VariationalRom::evaluate`] — same values,
//! same signed zeros — for any parameter sample, any reduced order, and
//! any order-degradation truncation. Bitwise equality (not an epsilon) is
//! the property the Monte-Carlo determinism contract rests on: swapping
//! the allocator for the workspace arena must not change a single result
//! bit at any thread count.

use linvar_circuit::{Netlist, SparseVariationalMna, VariationalValue};
use linvar_mor::{ReducedModel, ReductionMethod, VariationalRom};
use linvar_numeric::{with_workspace, Matrix};
use proptest::prelude::*;

/// Variational RC ladder with `np` independent parameters striped over the
/// segments (parameter `i` scales every `np`-th RC pair).
fn var_ladder(n: usize, np: usize) -> SparseVariationalMna {
    let mut nl = Netlist::new();
    let params: Vec<_> = (0..np)
        .map(|i| nl.params.declare(&format!("p{i}")))
        .collect();
    let mut prev = nl.node("n0");
    nl.mark_port(prev).unwrap();
    nl.add_resistor("Rdrv", prev, Netlist::GROUND, 50.0)
        .unwrap();
    for i in 1..=n {
        let next = nl.node(&format!("n{i}"));
        let p = params[i % np];
        nl.add_variational_resistor(
            &format!("R{i}"),
            prev,
            next,
            VariationalValue::new(10.0).with_relative_sensitivity(p, 0.4),
        )
        .unwrap();
        nl.add_variational_capacitor(
            &format!("C{i}"),
            next,
            Netlist::GROUND,
            VariationalValue::new(1e-12).with_relative_sensitivity(p, 0.4),
        )
        .unwrap();
        prev = next;
    }
    nl.variational_stamps().unwrap().sparse().unwrap()
}

/// Bitwise matrix comparison: every f64 must match in representation,
/// including the sign of zero.
fn assert_bits_eq(label: &str, a: &Matrix, b: &Matrix) {
    assert_eq!(a.rows(), b.rows(), "{label}: row count");
    assert_eq!(a.cols(), b.cols(), "{label}: col count");
    for (k, (x, y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{label}: element {k} differs: {x:e} vs {y:e}"
        );
    }
}

fn assert_models_bits_eq(label: &str, a: &ReducedModel, b: &ReducedModel) {
    assert_bits_eq(&format!("{label}.gr"), &a.gr, &b.gr);
    assert_bits_eq(&format!("{label}.cr"), &a.cr, &b.cr);
    assert_bits_eq(&format!("{label}.br"), &a.br, &b.br);
}

/// Evaluates through the pooled path exactly as the stage hot path does:
/// take a sized model from the worker workspace, fill it in place, hand
/// the storage back.
fn evaluate_pooled(rom: &VariationalRom, w: &[f64]) -> ReducedModel {
    with_workspace(|ws| {
        let mut out = ReducedModel::take_from(ws, rom.order(), rom.port_count());
        rom.evaluate_into(w, &mut out).unwrap();
        out
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn evaluate_into_is_bitwise_identical(
        w in proptest::collection::vec(-1.5f64..1.5, 3),
        order in 2usize..6,
    ) {
        let var = var_ladder(9, 3);
        let rom = VariationalRom::characterize(
            &var, ReductionMethod::Prima { order }, 0.01,
        ).unwrap();
        let alloc = rom.evaluate(&w).unwrap();
        let pooled = evaluate_pooled(&rom, &w);
        assert_models_bits_eq("evaluate", &alloc, &pooled);
        with_workspace(|ws| pooled.recycle(ws));
    }

    #[test]
    fn pooled_buffers_carry_no_state_between_samples(
        w1 in proptest::collection::vec(-1.0f64..1.0, 3),
        w2 in proptest::collection::vec(-1.0f64..1.0, 3),
    ) {
        // Evaluate at w1, recycle, then evaluate at w2 through the same
        // pool: the second result must match a fresh allocation at w2 —
        // any residue from the first sample would break this.
        let var = var_ladder(9, 3);
        let rom = VariationalRom::characterize(
            &var, ReductionMethod::Prima { order: 4 }, 0.01,
        ).unwrap();
        let first = evaluate_pooled(&rom, &w1);
        with_workspace(|ws| first.recycle(ws));
        let second = evaluate_pooled(&rom, &w2);
        let fresh = rom.evaluate(&w2).unwrap();
        assert_models_bits_eq("reused-pool", &fresh, &second);
        with_workspace(|ws| second.recycle(ws));
    }

    #[test]
    fn truncation_ladder_matches_on_pooled_models(
        w in proptest::collection::vec(-1.0f64..1.0, 3),
        q in 1usize..5,
    ) {
        // The order-degradation ladder truncates whichever model served
        // the sample; a pooled model must truncate to the same sub-blocks.
        let var = var_ladder(9, 3);
        let rom = VariationalRom::characterize(
            &var, ReductionMethod::Prima { order: 5 }, 0.01,
        ).unwrap();
        let alloc = rom.evaluate(&w).unwrap().truncated(q);
        let pooled_full = evaluate_pooled(&rom, &w);
        let pooled = pooled_full.truncated(q);
        assert_models_bits_eq("truncated", &alloc, &pooled);
        with_workspace(|ws| pooled_full.recycle(ws));
    }
}

#[test]
fn short_and_long_sample_vectors_match_allocating_path() {
    // `evaluate` tolerates w shorter or longer than the parameter count;
    // the in-place form must mirror that behavior exactly.
    let var = var_ladder(6, 2);
    let rom =
        VariationalRom::characterize(&var, ReductionMethod::Prima { order: 3 }, 0.01).unwrap();
    for w in [&[][..], &[0.3][..], &[0.3, -0.2, 9.9, 1.0][..]] {
        let alloc = rom.evaluate(w).unwrap();
        let pooled = evaluate_pooled(&rom, w);
        assert_models_bits_eq("ragged-w", &alloc, &pooled);
        with_workspace(|ws| pooled.recycle(ws));
    }
}
