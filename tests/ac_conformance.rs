//! Frequency-domain vROM conformance suite: the variational reduced-order
//! model's transfer function H(jω) must track the full-order complex-MNA
//! AC solve point-by-point over a log-frequency sweep, on the paper's
//! Example-2 coupled-line structures, at the nominal geometry and at
//! fluctuation corners.
//!
//! Every (circuit, corner) row carries its own magnitude and phase
//! budgets — reduction error plus the vROM's first-order sensitivity
//! error both land here, so corner rows get wider budgets than nominal
//! rows — and a violation reports the whole per-frequency table in the
//! `tests/engine_agreement.rs` style, not just the first bad point.
//!
//! The AC path is linear-only by design; the suite also pins the typed
//! rejection of transistor netlists (the `s27`-class benchmarks go
//! through TETA linearization first, never raw AC).

use linvar::interconnect::builder::build_coupled_lines;
use linvar::interconnect::{CoupledLineSpec, WireTech};
use linvar::mor::{ReductionMethod, VariationalRom};
use linvar::numeric::{Complex, SolverChoice};
use linvar::spice::{ac_impedance_with, log_frequencies};

const TWO_PI: f64 = 2.0 * std::f64::consts::PI;

/// Driver source impedance folded into every structure: the coupled-line
/// builders produce floating RC lines (G alone is singular — fine for
/// transient with a voltage driver, not for PRIMA's G⁻¹ moments), so each
/// line gets a physical driver resistor to ground at its near end. Both
/// the vROM and the full-order reference see the same element.
const R_DRIVER: f64 = 1e3;

/// Builds one Example-2 coupled-line structure with driver resistors and
/// returns the netlist plus the first line's near-end node.
fn driven_lines(
    n_lines: usize,
    length: f64,
) -> (linvar::circuit::Netlist, linvar::circuit::NodeId) {
    let spec = CoupledLineSpec::new(n_lines, length, WireTech::m018());
    let built = build_coupled_lines(&spec).expect("example-2 structure builds");
    let mut nl = built.netlist;
    for (k, &input) in built.inputs.iter().enumerate() {
        nl.add_resistor(
            &format!("Rdrv{k}"),
            input,
            linvar::circuit::Netlist::GROUND,
            R_DRIVER,
        )
        .expect("driver resistor");
    }
    (nl, built.inputs[0])
}

struct Row {
    label: &'static str,
    n_lines: usize,
    length: f64,
    /// Normalized W/T/S/H/ρ fluctuation sample the row is evaluated at.
    w: [f64; 5],
    /// PRIMA reduced order.
    order: usize,
    /// Relative magnitude budget per frequency point.
    mag_budget: f64,
    /// Phase budget per frequency point (degrees).
    phase_budget_deg: f64,
}

/// Evaluates one conformance row: reduce the variational netlist once,
/// then compare `rom.transfer_at(w, jω)` against the full-order AC solve
/// of the netlist *frozen at the same sample* across the sweep. Returns
/// the per-frequency report lines and the violation count.
fn run_row(row: &Row, freqs: &[f64]) -> (String, usize) {
    let (nl, port_node) = driven_lines(row.n_lines, row.length);
    let var = nl
        .variational_stamps()
        .expect("variational MNA stamps")
        .sparse()
        .expect("stamps are in range");
    let rom = VariationalRom::characterize(&var, ReductionMethod::Prima { order: row.order }, 0.02)
        .expect("vROM characterizes");

    // The driving-point port: the first line's near end. The vROM's port
    // ordering follows the netlist's mark order, so locate it by MNA row.
    let port_name = nl.node_name(port_node).expect("port is named").to_string();
    let port_row = port_node.mna_index().expect("port is not ground");
    let port_k = var
        .port_indices()
        .iter()
        .position(|&r| r == port_row)
        .expect("near end is marked as a port");

    // Full-order reference: complex MNA of the netlist frozen at w —
    // the same recovery ladder and backends the engine itself uses.
    let frozen = nl.frozen_at(&row.w);
    let z_full = ac_impedance_with(&frozen, &port_name, freqs, SolverChoice::Sparse)
        .expect("full-order AC sweep");

    let mut table = String::new();
    let mut violations = 0usize;
    for (i, &f) in freqs.iter().enumerate() {
        let s = Complex::new(0.0, TWO_PI * f);
        let z_rom = rom.transfer_at(&row.w, s).expect("vROM transfer")[(port_k, port_k)];
        let mag_err = (z_rom.abs() - z_full[i].abs()).abs() / z_full[i].abs();
        let mut phase_err_deg = (z_rom.arg() - z_full[i].arg()).abs().to_degrees();
        if phase_err_deg > 180.0 {
            phase_err_deg = 360.0 - phase_err_deg;
        }
        let ok = mag_err <= row.mag_budget && phase_err_deg <= row.phase_budget_deg;
        if !ok {
            violations += 1;
        }
        table.push_str(&format!(
            "{:<26} f {:>9.3e}  |H| rom {:>10.4e} full {:>10.4e}  mag err {:>6.3}% (budget {:>5.2}%)  \
             phase err {:>6.3}° (budget {:>4.1}°)  {}\n",
            row.label,
            f,
            z_rom.abs(),
            z_full[i].abs(),
            mag_err * 100.0,
            row.mag_budget * 100.0,
            phase_err_deg,
            row.phase_budget_deg,
            if ok { "ok" } else { "FAIL" }
        ));
    }
    (table, violations)
}

/// The conformance table. Budgets: nominal rows carry the pure reduction
/// error (PRIMA moment matching is tight in-band — 1 %, 1°); corner rows
/// add the vROM's first-order sensitivity error at 1σ fluctuations
/// (3 %, 3°) and at an aggressive mixed 2σ corner (6 %, 5°).
#[test]
fn vrom_transfer_matches_full_order_ac_sweep() {
    let rows = [
        Row {
            label: "line1x40 nominal",
            n_lines: 1,
            length: 40e-6,
            w: [0.0; 5],
            order: 8,
            mag_budget: 0.01,
            phase_budget_deg: 1.0,
        },
        Row {
            label: "chain2x60 nominal",
            n_lines: 2,
            length: 60e-6,
            w: [0.0; 5],
            order: 10,
            mag_budget: 0.01,
            phase_budget_deg: 1.0,
        },
        Row {
            label: "chain2x60 +1σ corner",
            n_lines: 2,
            length: 60e-6,
            w: [0.33, 0.33, 0.33, 0.33, 0.33],
            order: 10,
            mag_budget: 0.03,
            phase_budget_deg: 3.0,
        },
        Row {
            label: "chain2x60 -1σ corner",
            n_lines: 2,
            length: 60e-6,
            w: [-0.33, -0.33, -0.33, -0.33, -0.33],
            order: 10,
            mag_budget: 0.03,
            phase_budget_deg: 3.0,
        },
        Row {
            label: "chain2x60 mixed 2σ",
            n_lines: 2,
            length: 60e-6,
            w: [0.66, -0.66, 0.33, -0.33, 0.66],
            order: 10,
            mag_budget: 0.06,
            phase_budget_deg: 5.0,
        },
    ];
    // Three decades up to the structures' multi-GHz knee.
    let freqs = log_frequencies(1e7, 1e10, 12);
    let mut full_table = String::new();
    let mut total_violations = 0usize;
    for row in &rows {
        let (table, violations) = run_row(row, &freqs);
        full_table.push_str(&table);
        total_violations += violations;
    }
    assert_eq!(
        total_violations, 0,
        "vROM/full-order AC conformance budget exceeded:\n{full_table}"
    );
}

/// The dense and sparse complex-MNA backends must agree on the full-order
/// sweep itself to near machine precision — the conformance reference is
/// backend-independent.
#[test]
fn full_order_reference_is_backend_independent() {
    let (nl, port_node) = driven_lines(2, 60e-6);
    let port = nl.node_name(port_node).expect("port is named").to_string();
    let frozen = nl.frozen_at(&[0.33, -0.33, 0.0, 0.33, -0.33]);
    let freqs = log_frequencies(1e7, 1e10, 8);
    let zd = ac_impedance_with(&frozen, &port, &freqs, SolverChoice::Dense).expect("dense sweep");
    let zs = ac_impedance_with(&frozen, &port, &freqs, SolverChoice::Sparse).expect("sparse sweep");
    for (k, (d, s)) in zd.iter().zip(&zs).enumerate() {
        let err = (*d - *s).abs() / d.abs().max(1e-30);
        assert!(err < 1e-9, "f[{k}]: dense {d} vs sparse {s} (rel {err:e})");
    }
}

/// AC analysis is for linear netlists: a transistor stage (the s27-class
/// benchmarks are MOSFET netlists) must be rejected with a typed error,
/// never linearized silently.
#[test]
fn transistor_netlists_are_rejected_typed() {
    use linvar::circuit::{MosType, Netlist, SourceWaveform};
    use linvar::devices::tech_018;
    use linvar::spice::{ac_analysis, SpiceError};
    let tech = tech_018();
    let mut nl = Netlist::new();
    let vdd = nl.node("vdd");
    let inp = nl.node("in");
    let out = nl.node("out");
    nl.add_vsource("Vdd", vdd, Netlist::GROUND, SourceWaveform::Dc(1.8))
        .unwrap();
    nl.add_vsource("Vin", inp, Netlist::GROUND, SourceWaveform::Dc(0.9))
        .unwrap();
    nl.add_mosfet(
        "MN",
        out,
        inp,
        Netlist::GROUND,
        Netlist::GROUND,
        MosType::Nmos,
        &tech.library.nmos_name(),
        tech.wn,
        tech.library.lmin,
    )
    .unwrap();
    let res = ac_analysis(&nl, "Vin", &["out"], &[1e6]);
    assert!(
        matches!(res, Err(SpiceError::BadCircuit(_))),
        "MOSFET netlist must be a typed AC rejection, got {res:?}"
    );
}
