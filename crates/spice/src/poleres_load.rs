//! Stamping a one-port pole/residue macromodel into the MNA system.
//!
//! This is the "SPICE-subcircuit created from the reduced order
//! macromodel" of the paper's Example 1: the impedance
//! `Z(s) = d + Σ_k r_k/(s - p_k)` is realized as state equations
//!
//! ```text
//! dx_k/dt = p_k·x_k + i(t)          (one state per real pole)
//! v_port  = d·i + Σ_k r_k·x_k
//! ```
//!
//! with complex conjugate pairs folded into real second-order sections.
//! A right-half-plane pole makes `x_k` grow without bound, which is
//! exactly how a non-passive macromodel wrecks a conventional transient
//! analysis — the engine's overflow detection then reports divergence,
//! reproducing SPICE's behaviour in the paper.

use crate::error::SpiceError;
use linvar_mor::PoleResidueModel;

/// One realized section of the impedance.
#[derive(Debug, Clone)]
enum Section {
    /// Real pole `p` with real residue `r`: one state.
    Real { p: f64, r: f64 },
    /// Conjugate pair `p = pr ± j·pi`, residue `r = rr ± j·ri`: two states.
    Pair { pr: f64, pi: f64, rr: f64, ri: f64 },
}

impl Section {
    fn state_count(&self) -> usize {
        match self {
            Section::Real { .. } => 1,
            Section::Pair { .. } => 2,
        }
    }
}

/// A one-port pole/residue load bound to a circuit node.
///
/// Extra unknowns appended to the MNA system: the port current first, then
/// the section states in order.
#[derive(Debug, Clone)]
pub struct OnePortPoleResidue {
    node_index: usize,
    direct: f64,
    sections: Vec<Section>,
    /// Section states at the last accepted time point.
    x_prev: Vec<f64>,
    /// Port current at the last accepted time point.
    i_prev: f64,
}

impl OnePortPoleResidue {
    /// Builds the load from a single-port [`PoleResidueModel`], attached at
    /// the node with MNA index `node_index`.
    ///
    /// Conjugate pole pairs are detected by matching each pole with
    /// positive imaginary part to its conjugate; unpaired complex poles are
    /// rejected (a real impedance requires conjugate symmetry).
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::BadCircuit`] if the model is not one-port or
    /// has unpaired complex poles.
    pub fn from_model(model: &PoleResidueModel, node_index: usize) -> Result<Self, SpiceError> {
        if model.port_count() != 1 {
            return Err(SpiceError::BadCircuit(format!(
                "pole/residue load must be one-port, got {} ports",
                model.port_count()
            )));
        }
        let mut sections = Vec::new();
        let mut used = vec![false; model.poles.len()];
        let scale = model
            .poles
            .iter()
            .fold(0.0_f64, |m, p| m.max(p.abs()))
            .max(1e-300);
        for k in 0..model.poles.len() {
            if used[k] {
                continue;
            }
            let p = model.poles[k];
            let r = model.residues[k][(0, 0)];
            if p.im.abs() <= 1e-9 * scale {
                used[k] = true;
                sections.push(Section::Real { p: p.re, r: r.re });
            } else {
                // Find the conjugate partner.
                let partner = (0..model.poles.len()).find(|&j| {
                    !used[j] && j != k && (model.poles[j] - p.conj()).abs() <= 1e-6 * scale
                });
                match partner {
                    Some(j) => {
                        used[k] = true;
                        used[j] = true;
                        // Use the member with positive imaginary part.
                        let (pp, rr_) = if p.im > 0.0 {
                            (p, r)
                        } else {
                            (model.poles[j], model.residues[j][(0, 0)])
                        };
                        sections.push(Section::Pair {
                            pr: pp.re,
                            pi: pp.im,
                            rr: rr_.re,
                            ri: rr_.im,
                        });
                    }
                    None => {
                        return Err(SpiceError::BadCircuit(format!(
                            "unpaired complex pole {p} in impedance model"
                        )));
                    }
                }
            }
        }
        let n_states: usize = sections.iter().map(Section::state_count).sum();
        Ok(OnePortPoleResidue {
            node_index,
            direct: model.direct[(0, 0)],
            sections,
            x_prev: vec![0.0; n_states],
            i_prev: 0.0,
        })
    }

    /// MNA index of the attached node.
    pub fn node_index(&self) -> usize {
        self.node_index
    }

    /// Number of extra unknowns (port current + states).
    pub fn extra_unknowns(&self) -> usize {
        1 + self.x_prev.len()
    }

    /// Emits the constant rows as `(row, col, value)` stamps, to be summed
    /// with `+=` after the circuit's own: port KCL coupling, the branch
    /// (voltage) equation and the state equations (trapezoidal for
    /// timestep `h`, steady-state for `None`).
    ///
    /// `base` is the index of the first extra unknown.
    pub fn stamp(&self, t: &mut Vec<(usize, usize, f64)>, base: usize, h: Option<f64>) {
        let i_cur = base; // port current unknown
        let node = self.node_index;
        // KCL at the node: + i (current flows from node into the load).
        t.push((node, i_cur, 1.0));
        // Branch equation: v_node - d·i - Σ c·x = 0.
        t.push((i_cur, node, 1.0));
        t.push((i_cur, i_cur, -self.direct));
        let mut st = base + 1;
        for sec in &self.sections {
            match sec {
                Section::Real { p, r } => {
                    t.push((i_cur, st, -r));
                    // State row: trap: x(1 - h·p/2) - (h/2)·i = rhs
                    // steady:    -p·x - i = 0.
                    match h {
                        Some(h) => {
                            t.push((st, st, 1.0 - h * p / 2.0));
                            t.push((st, i_cur, -(h / 2.0)));
                        }
                        None => {
                            t.push((st, st, -p));
                            t.push((st, i_cur, -1.0));
                        }
                    }
                    st += 1;
                }
                Section::Pair { pr, pi, rr, ri } => {
                    // v contribution: 2(rr·xr - ri·xi).
                    t.push((i_cur, st, -(2.0 * rr)));
                    t.push((i_cur, st + 1, 2.0 * ri));
                    match h {
                        Some(h) => {
                            // xr' = pr·xr - pi·xi + i;  xi' = pi·xr + pr·xi.
                            t.push((st, st, 1.0 - h * pr / 2.0));
                            t.push((st, st + 1, h * pi / 2.0));
                            t.push((st, i_cur, -(h / 2.0)));
                            t.push((st + 1, st + 1, 1.0 - h * pr / 2.0));
                            t.push((st + 1, st, -(h * pi / 2.0)));
                        }
                        None => {
                            t.push((st, st, -pr));
                            t.push((st, st + 1, *pi));
                            t.push((st, i_cur, -1.0));
                            t.push((st + 1, st + 1, -pr));
                            t.push((st + 1, st, -pi));
                        }
                    }
                    st += 2;
                }
            }
        }
    }

    /// Adds the history terms to the RHS for a trapezoidal step of size `h`.
    pub fn rhs(&self, rhs: &mut [f64], base: usize, h: f64) {
        let mut st = base + 1;
        let i_p = self.i_prev;
        let mut idx = 0usize;
        for sec in &self.sections {
            match sec {
                Section::Real { p, .. } => {
                    let x = self.x_prev[idx];
                    rhs[st] += x * (1.0 + h * p / 2.0) + (h / 2.0) * i_p;
                    st += 1;
                    idx += 1;
                }
                Section::Pair { pr, pi, .. } => {
                    let xr = self.x_prev[idx];
                    let xi = self.x_prev[idx + 1];
                    rhs[st] += xr * (1.0 + h * pr / 2.0) - xi * (h * pi / 2.0) + (h / 2.0) * i_p;
                    rhs[st + 1] += xi * (1.0 + h * pr / 2.0) + xr * (h * pi / 2.0);
                    st += 2;
                    idx += 2;
                }
            }
        }
    }

    /// Records the accepted solution's states for the next step's history.
    pub fn accept_step(&mut self, x: &[f64], base: usize) {
        self.i_prev = x[base];
        for (k, xp) in self.x_prev.iter_mut().enumerate() {
            *xp = x[base + 1 + k];
        }
    }

    /// Captures the DC solution as the initial state.
    pub fn initialize_dc(&mut self, x: &[f64], base: usize) {
        self.accept_step(x, base);
    }

    /// DC impedance of the realized load (sanity checks).
    pub fn dc_impedance(&self) -> f64 {
        let mut z = self.direct;
        for sec in &self.sections {
            match sec {
                Section::Real { p, r } => z += -r / p,
                Section::Pair { pr, pi, rr, ri } => {
                    // -2·Re(r/p) for the pair.
                    let denom = pr * pr + pi * pi;
                    z += -2.0 * (rr * pr + ri * pi) / denom;
                }
            }
        }
        z
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Transient, TransientOptions};
    use linvar_circuit::{Netlist, SourceWaveform};
    use linvar_numeric::{CMatrix, Complex, Matrix};

    fn one_port_model(poles: &[Complex], res: &[Complex], direct: f64) -> PoleResidueModel {
        PoleResidueModel {
            poles: poles.to_vec(),
            residues: res
                .iter()
                .map(|&r| {
                    let mut m = CMatrix::zeros(1, 1);
                    m[(0, 0)] = r;
                    m
                })
                .collect(),
            direct: Matrix::from_rows(&[&[direct]]),
        }
    }

    /// Drive the pole/residue load through a source resistor and compare
    /// with the equivalent RC circuit.
    #[test]
    fn single_pole_load_matches_rc() {
        // Z(s) = (1/C)/(s + 1/(RC)) with R=1k, C=1p: pole -1e9, residue 1e12.
        let model = one_port_model(
            &[Complex::from_real(-1e9)],
            &[Complex::from_real(1e12)],
            0.0,
        );
        let load = OnePortPoleResidue::from_model(&model, 1).unwrap();
        assert!((load.dc_impedance() - 1000.0).abs() < 1e-6);

        let mut nl = Netlist::new();
        let inp = nl.node("in");
        let out = nl.node("out");
        assert_eq!(out.mna_index(), Some(1));
        nl.add_vsource(
            "V1",
            inp,
            Netlist::GROUND,
            SourceWaveform::Ramp {
                v0: 0.0,
                v1: 1.0,
                t0: 0.0,
                tr: 1e-12,
            },
        )
        .unwrap();
        nl.add_resistor("Rs", inp, out, 1000.0).unwrap();
        let mut opts = TransientOptions::new(10e-9, 10e-12);
        opts.probes.push("out".into());
        let res = Transient::new(&nl, &opts)
            .unwrap()
            .with_poleres_load(load)
            .unwrap()
            .run()
            .unwrap();
        // Equivalent circuit: source R into (R ∥ C): final value 0.5 V,
        // tau = (R/2)·C = 0.5 ns.
        let out_w = res.probe("out").unwrap();
        for (k, &t) in res.times.iter().enumerate() {
            let expect = 0.5 * (1.0 - (-t / 0.5e-9).exp());
            assert!(
                (out_w[k] - expect).abs() < 0.01,
                "t={t:.2e}: {} vs {expect}",
                out_w[k]
            );
        }
    }

    #[test]
    fn unstable_pole_causes_divergence() {
        // A right-half-plane pole with a tiny residue — the Example-1
        // phenomenon. SPICE-style simulation must fail, not hang.
        let model = one_port_model(
            &[Complex::from_real(-1e9), Complex::from_real(3.75e12)],
            &[Complex::from_real(1e12), Complex::from_real(1e10)],
            0.0,
        );
        let load = OnePortPoleResidue::from_model(&model, 1).unwrap();
        let mut nl = Netlist::new();
        let inp = nl.node("in");
        let out = nl.node("out");
        nl.add_vsource(
            "V1",
            inp,
            Netlist::GROUND,
            SourceWaveform::Ramp {
                v0: 0.0,
                v1: 1.0,
                t0: 0.0,
                tr: 0.1e-9,
            },
        )
        .unwrap();
        nl.add_resistor("Rs", inp, out, 1000.0).unwrap();
        let mut opts = TransientOptions::new(10e-9, 10e-12);
        opts.probes.push("out".into());
        let result = Transient::new(&nl, &opts)
            .unwrap()
            .with_poleres_load(load)
            .unwrap()
            .run();
        assert!(
            matches!(result, Err(SpiceError::ConvergenceFailure { .. })),
            "unstable load must be detected, got {result:?}"
        );
    }

    #[test]
    fn conjugate_pair_load_runs() {
        // Underdamped section: p = -1e9 ± 5e9 j.
        let p = Complex::new(-1e9, 5e9);
        let r = Complex::new(5e11, -1e11);
        let model = one_port_model(&[p, p.conj()], &[r, r.conj()], 10.0);
        let load = OnePortPoleResidue::from_model(&model, 1).unwrap();
        let dc = load.dc_impedance();
        // DC from the model directly.
        let dc_expect = model.dc()[(0, 0)];
        assert!((dc - dc_expect).abs() < 1e-9 * dc_expect.abs());

        let mut nl = Netlist::new();
        let inp = nl.node("in");
        let out = nl.node("out");
        nl.add_vsource(
            "V1",
            inp,
            Netlist::GROUND,
            SourceWaveform::Ramp {
                v0: 0.0,
                v1: 1.0,
                t0: 0.1e-9,
                tr: 0.1e-9,
            },
        )
        .unwrap();
        nl.add_resistor("Rs", inp, out, 500.0).unwrap();
        let mut opts = TransientOptions::new(5e-9, 2e-12);
        opts.probes.push("out".into());
        let run = |opts: &TransientOptions| {
            Transient::new(&nl, opts)
                .unwrap()
                .with_poleres_load(load.clone())
                .unwrap()
                .run()
                .unwrap()
        };
        let res = run(&opts);
        // Final value: divider Rs / (Rs + Z(0)).
        let v_end = *res.probe("out").unwrap().last().unwrap();
        let expect = dc_expect / (500.0 + dc_expect);
        assert!((v_end - expect).abs() < 0.02, "{v_end} vs {expect}");
        // The load's rows are plain stamps: the sparse backend factors
        // them too and tracks the dense waveform.
        opts.solver = linvar_numeric::SolverChoice::Sparse;
        let sparse = run(&opts);
        let (dense_w, sparse_w) = (res.probe("out").unwrap(), sparse.probe("out").unwrap());
        assert_eq!(dense_w.len(), sparse_w.len());
        for (d, s) in dense_w.iter().zip(sparse_w) {
            assert!((d - s).abs() < 1e-9, "dense {d} vs sparse {s}");
        }
    }

    #[test]
    fn multiport_model_rejected() {
        let model = PoleResidueModel {
            poles: vec![Complex::from_real(-1e9)],
            residues: vec![CMatrix::zeros(2, 2)],
            direct: Matrix::zeros(2, 2),
        };
        assert!(OnePortPoleResidue::from_model(&model, 0).is_err());
    }

    #[test]
    fn unpaired_complex_pole_rejected() {
        let model = one_port_model(&[Complex::new(-1e9, 2e9)], &[Complex::ONE], 0.0);
        assert!(OnePortPoleResidue::from_model(&model, 0).is_err());
    }
}
