//! Small-signal AC analysis of linear networks.
//!
//! Solves `(G + jωC)·x = b` over a frequency sweep with a unit stimulus on
//! one named source. The primary consumer is macromodel validation: the
//! frequency response of a reduced-order model must track the full
//! netlist's up to the bandwidth its matched moments cover.
//!
//! The complex system is solved through [`CAnySolver`] — the real-embedded
//! `2n×2n` form of the `AnySolver` stack — so AC inherits the dense/sparse
//! backend selection (by the embedded order), the diagonal-perturbation
//! recovery ladder, and workspace pooling of the real path. A sweep sums
//! the netlist's `G` and `C` stamps into CSC once and merges their
//! patterns; every frequency point after the first reuses that union
//! through the pattern-reuse refactor fast path (on the sparse backend,
//! numeric-only refactorization). No dense `n×n` matrix is built.

use crate::error::SpiceError;
use linvar_circuit::{Element, Netlist};
use linvar_numeric::{CAnySolver, Complex, SolverChoice, SparseMatrix};
use std::collections::HashMap;

/// Result of an AC sweep.
#[derive(Debug, Clone)]
pub struct AcResult {
    /// Analysis frequencies (Hz).
    pub freqs: Vec<f64>,
    /// Complex node response per probe, index-aligned with `freqs`.
    pub response: HashMap<String, Vec<Complex>>,
}

impl AcResult {
    /// Magnitude response of a probe.
    pub fn magnitude(&self, probe: &str) -> Option<Vec<f64>> {
        self.response
            .get(probe)
            .map(|v| v.iter().map(|z| z.abs()).collect())
    }
}

/// Generates `n` logarithmically spaced frequencies in `[f_lo, f_hi]`.
///
/// # Panics
///
/// Panics if the bounds are non-positive or reversed, or `n < 2`.
pub fn log_frequencies(f_lo: f64, f_hi: f64, n: usize) -> Vec<f64> {
    assert!(f_lo > 0.0 && f_hi > f_lo, "need 0 < f_lo < f_hi");
    assert!(n >= 2, "need at least two points");
    let (l0, l1) = (f_lo.log10(), f_hi.log10());
    (0..n)
        .map(|k| 10f64.powf(l0 + (l1 - l0) * k as f64 / (n - 1) as f64))
        .collect()
}

/// Generates `n` linearly spaced frequencies in `[f_lo, f_hi]`.
///
/// # Panics
///
/// Panics if the bounds are reversed or `n < 2`.
pub fn linear_frequencies(f_lo: f64, f_hi: f64, n: usize) -> Vec<f64> {
    assert!(f_hi > f_lo, "need f_lo < f_hi");
    assert!(n >= 2, "need at least two points");
    (0..n)
        .map(|k| f_lo + (f_hi - f_lo) * k as f64 / (n - 1) as f64)
        .collect()
}

/// The frequency-invariant part of an AC sweep: the union sparsity
/// pattern of `G` and `C`, stamped once. Each point of the sweep maps
/// the pattern to complex triplets `g + jωc` — same structure at every
/// ω, which is what lets [`sweep_rows`] walk the refactor fast path.
struct AcOperator {
    n: usize,
    /// `(i, j, g, c)` for every position where `G` or `C` is nonzero,
    /// column by column.
    entries: Vec<(usize, usize, f64, f64)>,
}

impl AcOperator {
    /// Sums each stamp stream into CSC ([`SparseMatrix::from_stamps`]:
    /// exactly the nonzero entries of its dense `+=` replay) and merges
    /// the two column patterns; a position only one matrix stores takes
    /// `0.0` for the other.
    fn from_stamps(
        n: usize,
        g: &[(usize, usize, f64)],
        c: &[(usize, usize, f64)],
    ) -> Result<Self, SpiceError> {
        let g = SparseMatrix::from_stamps(n, n, g)?;
        let c = SparseMatrix::from_stamps(n, n, c)?;
        let mut entries = Vec::with_capacity(g.nnz() + c.nnz());
        for j in 0..n {
            let ((g_rows, g_vals), (c_rows, c_vals)) = (g.col(j), c.col(j));
            let (mut a, mut b) = (0, 0);
            while a < g_rows.len() || b < c_rows.len() {
                let rg = g_rows.get(a).copied().unwrap_or(usize::MAX);
                let rc = c_rows.get(b).copied().unwrap_or(usize::MAX);
                let row = rg.min(rc);
                let gij = if rg == row { g_vals[a] } else { 0.0 };
                let cij = if rc == row { c_vals[b] } else { 0.0 };
                entries.push((row, j, gij, cij));
                a += usize::from(rg == row);
                b += usize::from(rc == row);
            }
        }
        Ok(AcOperator { n, entries })
    }

    fn triplets_at(&self, omega: f64, buf: &mut Vec<(usize, usize, Complex)>) {
        buf.clear();
        buf.extend(
            self.entries
                .iter()
                .map(|&(i, j, g, c)| (i, j, Complex::new(g, omega * c))),
        );
    }

    /// Solves the sweep and returns, per requested row, the complex
    /// response at every frequency. The first point factors through the
    /// recovery ladder; later points refactor at the fixed pattern and
    /// fall back to a fresh recovering factor if the reused pivots break
    /// down at some ω.
    fn sweep_rows(
        &self,
        rhs: &[Complex],
        freqs: &[f64],
        rows: &[usize],
        choice: SolverChoice,
    ) -> Result<Vec<Vec<Complex>>, SpiceError> {
        let mut out = vec![Vec::with_capacity(freqs.len()); rows.len()];
        let mut trip = Vec::with_capacity(self.entries.len());
        let mut solver: Option<CAnySolver> = None;
        let mut x = Vec::new();
        for &f in freqs {
            let omega = 2.0 * std::f64::consts::PI * f;
            self.triplets_at(omega, &mut trip);
            match solver.as_mut() {
                None => {
                    let (s, _rec) = CAnySolver::factor_triplets_recovering(self.n, &trip, choice)?;
                    solver = Some(s);
                }
                Some(s) => {
                    if s.refactor_triplets(self.n, &trip).is_err() {
                        let (s2, _rec) =
                            CAnySolver::factor_triplets_recovering(self.n, &trip, choice)?;
                        *s = s2;
                    }
                }
            }
            let s = solver.as_ref().expect("factored above");
            s.solve_into(rhs, &mut x)?;
            linvar_metrics::incr(linvar_metrics::Counter::AcPointsSolved);
            for (col, &row) in out.iter_mut().zip(rows) {
                col.push(x[row]);
            }
        }
        Ok(out)
    }
}

fn reject_mosfets(nl: &Netlist) -> Result<(), SpiceError> {
    if !nl.mosfets().is_empty() {
        return Err(SpiceError::BadCircuit(
            "ac analysis supports linear netlists only".into(),
        ));
    }
    Ok(())
}

/// Runs an AC sweep with a unit stimulus on the voltage source named
/// `source` (all other independent sources are zeroed: voltage sources
/// become shorts through their branch equations, current sources open).
/// Backend selection follows [`SolverChoice::Auto`].
///
/// # Errors
///
/// Returns [`SpiceError::BadCircuit`] for unknown source or probe names,
/// netlists containing MOSFETs (AC analysis here is for the *linear*
/// loads; linearize devices first), or a singular system.
pub fn ac_analysis(
    nl: &Netlist,
    source: &str,
    probes: &[&str],
    freqs: &[f64],
) -> Result<AcResult, SpiceError> {
    ac_analysis_with(nl, source, probes, freqs, SolverChoice::Auto)
}

/// [`ac_analysis`] with an explicit solver-backend choice.
///
/// # Errors
///
/// Same conditions as [`ac_analysis`].
pub fn ac_analysis_with(
    nl: &Netlist,
    source: &str,
    probes: &[&str],
    freqs: &[f64],
    choice: SolverChoice,
) -> Result<AcResult, SpiceError> {
    reject_mosfets(nl)?;
    let stamps = nl.stamp_mna(&[])?;
    let n = stamps.dim;
    // Branch rows follow the node rows, one per voltage source in
    // element order.
    let source_branch = nl
        .elements()
        .iter()
        .filter(|e| matches!(e, Element::VSource { .. }))
        .position(|e| e.name() == source)
        .ok_or_else(|| SpiceError::BadCircuit(format!("unknown voltage source {source}")))?;
    let mut probe_rows = Vec::with_capacity(probes.len());
    for p in probes {
        let node = nl
            .find_node(p)
            .ok_or_else(|| SpiceError::BadCircuit(format!("unknown probe node {p}")))?;
        let row = node
            .mna_index()
            .ok_or_else(|| SpiceError::BadCircuit("cannot probe ground".into()))?;
        probe_rows.push((p.to_string(), row));
    }
    let mut rhs = vec![Complex::ZERO; n];
    rhs[stamps.node_count + source_branch] = Complex::ONE;

    let op = AcOperator::from_stamps(n, &stamps.g, &stamps.c)?;
    let rows: Vec<usize> = probe_rows.iter().map(|&(_, r)| r).collect();
    let per_row = op.sweep_rows(&rhs, freqs, &rows, choice)?;
    let response = probe_rows
        .into_iter()
        .zip(per_row)
        .map(|((p, _), col)| (p, col))
        .collect();
    Ok(AcResult {
        freqs: freqs.to_vec(),
        response,
    })
}

/// AC current-injection sweep into a port node (no sources needed): solves
/// the node-space system `(G + jωC)·v = e_port` and returns the
/// driving-point impedance seen at the port. This is the direct
/// counterpart of a macromodel's `Z(s)` evaluation.
///
/// # Errors
///
/// Same conditions as [`ac_analysis`].
pub fn ac_impedance(nl: &Netlist, port: &str, freqs: &[f64]) -> Result<Vec<Complex>, SpiceError> {
    ac_impedance_with(nl, port, freqs, SolverChoice::Auto)
}

/// [`ac_impedance`] with an explicit solver-backend choice.
///
/// # Errors
///
/// Same conditions as [`ac_analysis`].
pub fn ac_impedance_with(
    nl: &Netlist,
    port: &str,
    freqs: &[f64],
    choice: SolverChoice,
) -> Result<Vec<Complex>, SpiceError> {
    reject_mosfets(nl)?;
    let stamps = nl.variational_stamps()?;
    let node = nl
        .find_node(port)
        .and_then(|n| n.mna_index())
        .ok_or_else(|| SpiceError::BadCircuit(format!("unknown port node {port}")))?;
    let n = stamps.dim;
    let mut rhs = vec![Complex::ZERO; n];
    rhs[node] = Complex::ONE;
    let op = AcOperator::from_stamps(n, &stamps.g0, &stamps.c0)?;
    let mut per_row = op.sweep_rows(&rhs, freqs, &[node], choice)?;
    Ok(per_row.remove(0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use linvar_circuit::SourceWaveform;

    fn rc_lowpass() -> Netlist {
        let mut nl = Netlist::new();
        let inp = nl.node("in");
        let out = nl.node("out");
        nl.add_vsource("V1", inp, Netlist::GROUND, SourceWaveform::Dc(0.0))
            .unwrap();
        nl.add_resistor("R1", inp, out, 1000.0).unwrap();
        nl.add_capacitor("C1", out, Netlist::GROUND, 1e-12).unwrap();
        nl
    }

    #[test]
    fn lowpass_magnitude_and_corner() {
        let nl = rc_lowpass();
        let fc = 1.0 / (2.0 * std::f64::consts::PI * 1000.0 * 1e-12); // ≈159 MHz
        let freqs = [fc / 100.0, fc, fc * 100.0];
        let res = ac_analysis(&nl, "V1", &["out"], &freqs).unwrap();
        let mag = res.magnitude("out").unwrap();
        assert!((mag[0] - 1.0).abs() < 1e-3, "passband gain {}", mag[0]);
        assert!(
            (mag[1] - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-3,
            "-3dB at corner: {}",
            mag[1]
        );
        assert!(mag[2] < 0.02, "stopband {}", mag[2]);
        // Phase at the corner is -45°.
        let phase = res.response["out"][1].arg().to_degrees();
        assert!((phase + 45.0).abs() < 0.5, "phase {phase}");
    }

    #[test]
    fn dense_and_sparse_sweeps_agree() {
        let nl = rc_lowpass();
        let freqs = log_frequencies(1e6, 1e10, 7);
        let dense = ac_analysis_with(&nl, "V1", &["out"], &freqs, SolverChoice::Dense).unwrap();
        let sparse = ac_analysis_with(&nl, "V1", &["out"], &freqs, SolverChoice::Sparse).unwrap();
        for (d, s) in dense.response["out"].iter().zip(&sparse.response["out"]) {
            assert!((*d - *s).abs() < 1e-12 * s.abs().max(1.0), "{d:?} vs {s:?}");
        }
    }

    #[test]
    fn impedance_of_parallel_rc() {
        let mut nl = Netlist::new();
        let p = nl.node("p");
        nl.add_resistor("R", p, Netlist::GROUND, 500.0).unwrap();
        nl.add_capacitor("C", p, Netlist::GROUND, 2e-12).unwrap();
        let fc = 1.0 / (2.0 * std::f64::consts::PI * 500.0 * 2e-12);
        let z = ac_impedance(&nl, "p", &[fc / 1000.0, fc]).unwrap();
        assert!(
            (z[0].abs() - 500.0).abs() < 0.5,
            "dc-ish |Z| {}",
            z[0].abs()
        );
        assert!(
            (z[1].abs() - 500.0 / 2.0_f64.sqrt()).abs() < 1.0,
            "corner |Z| {}",
            z[1].abs()
        );
    }

    #[test]
    fn rom_tracks_full_netlist_impedance() {
        // Reduce a driven RC ladder and compare Z(jω) of the macromodel
        // with the full netlist over three decades.
        use linvar_mor::{extract_pole_residue, prima_reduce};
        let mut nl = Netlist::new();
        let p = nl.node("p");
        nl.add_resistor("Rdrv", p, Netlist::GROUND, 300.0).unwrap();
        let mut prev = p;
        for k in 0..30 {
            let next = nl.node(&format!("n{k}"));
            nl.add_resistor(&format!("R{k}"), prev, next, 5.0).unwrap();
            nl.add_capacitor(&format!("C{k}"), next, Netlist::GROUND, 20e-15)
                .unwrap();
            prev = next;
        }
        nl.mark_port(p).unwrap();
        let var = nl.variational_stamps().unwrap().dense();
        let b = var.port_incidence();
        let rom = prima_reduce(&var.g0, &var.c0, &b, 6).unwrap();
        let pr = extract_pole_residue(&rom).unwrap();
        let freqs = log_frequencies(1e6, 5e9, 10);
        let z_full = ac_impedance(&nl, "p", &freqs).unwrap();
        for (k, &f) in freqs.iter().enumerate() {
            let s = Complex::new(0.0, 2.0 * std::f64::consts::PI * f);
            let z_rom = pr.eval(s)[(0, 0)];
            let err = (z_rom - z_full[k]).abs() / z_full[k].abs();
            assert!(err < 0.01, "f={f:.2e}: rom {z_rom} vs full {}", z_full[k]);
        }
    }

    #[test]
    fn log_frequencies_are_geometric() {
        let fs = log_frequencies(1e3, 1e6, 4);
        assert_eq!(fs.len(), 4);
        assert!((fs[0] - 1e3).abs() < 1e-9);
        assert!((fs[3] - 1e6).abs() < 1e-3);
        let r1 = fs[1] / fs[0];
        let r2 = fs[2] / fs[1];
        assert!((r1 - r2).abs() < 1e-9 * r1);
    }

    #[test]
    fn linear_frequencies_are_arithmetic() {
        let fs = linear_frequencies(1e6, 4e6, 4);
        assert_eq!(fs.len(), 4);
        assert!((fs[0] - 1e6).abs() < 1e-6);
        assert!((fs[1] - 2e6).abs() < 1e-6);
        assert!((fs[3] - 4e6).abs() < 1e-6);
    }

    #[test]
    fn bad_inputs_rejected() {
        let nl = rc_lowpass();
        assert!(ac_analysis(&nl, "Vx", &["out"], &[1e6]).is_err());
        assert!(ac_analysis(&nl, "V1", &["zzz"], &[1e6]).is_err());
        assert!(ac_impedance(&nl, "zzz", &[1e6]).is_err());
    }
}
