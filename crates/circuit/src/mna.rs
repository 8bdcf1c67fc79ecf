//! Modified nodal analysis (MNA) assembly.
//!
//! Three products are assembled from a [`Netlist`]:
//!
//! * [`MnaStamps`] — the `(G, C)` stamps of the netlist at one parameter
//!   sample as `(row, col, value)` triplets, the single source of MNA
//!   stamps: the dense and sparse routes both consume this stream;
//! * [`MnaSystem`] — the nominal `(G + sC)` system including voltage-source
//!   branch equations, the dense `+=` replay of [`MnaStamps`] at `w = []`,
//!   used by the linear analyses and as the skeleton of the SPICE baseline;
//! * [`VariationalMna`] — node-space admittance/susceptance matrices in the
//!   paper's variational form `G(w) = G0 + Σ dGi·wi`, `C(w) = C0 + Σ dCi·wi`
//!   (eqs. 3–4), restricted to the linear R/C portion of the netlist. This
//!   is the input to variational reduced-order modeling. It is the dense
//!   replay of [`VariationalStamps`], whose CSC form is
//!   [`SparseVariationalMna`], for holders that only read `G(w)`, `C(w)`
//!   now and then after reduction.

use crate::element::Element;
use crate::error::CircuitError;
use crate::netlist::Netlist;
use crate::variation::VariationalValue;
use linvar_numeric::{Matrix, NumericError, SparseMatrix};

/// The MNA stamps of a netlist at one parameter sample.
///
/// Unknown ordering matches [`MnaSystem`]: node voltages, then one branch
/// current per voltage source, then one per inductor (element order).
/// Replaying `g` (or `c`) with `+=` into a zeroed `dim × dim` matrix
/// gives the [`MnaSystem`] matrices of [`Netlist::frozen_at`]`(w)` bit for
/// bit; the same stream summed into CSC feeds the sparse backend.
#[derive(Debug, Clone, PartialEq)]
pub struct MnaStamps {
    /// Matrix order (`n + m + inductors`).
    pub dim: usize,
    /// Number of node unknowns.
    pub node_count: usize,
    /// Conductance/incidence stamps `(row, col, value)`, in emission
    /// order.
    pub g: Vec<(usize, usize, f64)>,
    /// Susceptance (capacitance/inductance) stamps, in emission order.
    pub c: Vec<(usize, usize, f64)>,
}

impl MnaStamps {
    /// The dense `(G, C)`: each stream replayed with `+=` into a zeroed
    /// `dim × dim` matrix, in emission order.
    pub fn dense(&self) -> (Matrix, Matrix) {
        (replay(self.dim, &self.g), replay(self.dim, &self.c))
    }
}

/// `stamps` replayed with `+=` into a zeroed `dim × dim` matrix, in
/// emission order.
fn replay(dim: usize, stamps: &[(usize, usize, f64)]) -> Matrix {
    let mut m = Matrix::zeros(dim, dim);
    for &(i, j, v) in stamps {
        m[(i, j)] += v;
    }
    m
}

/// Assembled nominal MNA system.
///
/// Unknown ordering: the `node_count` node voltages first, then one branch
/// current per voltage source (in element order).
#[derive(Debug, Clone)]
pub struct MnaSystem {
    /// Conductance/incidence matrix (`n + m` square).
    pub g: Matrix,
    /// Susceptance (capacitance) matrix (`n + m` square).
    pub c: Matrix,
    /// Number of node unknowns.
    pub node_count: usize,
    /// Names of the voltage sources, in branch-equation order.
    pub vsource_names: Vec<String>,
}

/// Node-space variational admittance/susceptance matrices.
#[derive(Debug, Clone)]
pub struct VariationalMna {
    /// Nominal admittance matrix `G0` (`n` square, node space).
    pub g0: Matrix,
    /// Nominal susceptance matrix `C0`.
    pub c0: Matrix,
    /// Admittance sensitivities `dGi`, one per declared parameter.
    pub dg: Vec<Matrix>,
    /// Susceptance sensitivities `dCi`, one per declared parameter.
    pub dc: Vec<Matrix>,
    /// Parameter names, index-aligned with `dg`/`dc`.
    pub param_names: Vec<String>,
    /// MNA indices of the ports, in port-marking order.
    pub port_indices: Vec<usize>,
}

impl VariationalMna {
    /// Evaluates `(G(w), C(w))` at the parameter sample `w`.
    ///
    /// Entries of `w` beyond the declared parameters are ignored; missing
    /// entries are treated as 0 (nominal).
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::DimensionMismatch`] if a sensitivity matrix
    /// disagrees in shape with the nominal matrices (possible only if the
    /// struct fields were mutated inconsistently after assembly).
    pub fn eval(&self, w: &[f64]) -> Result<(Matrix, Matrix), NumericError> {
        let mut g = self.g0.clone();
        let mut c = self.c0.clone();
        for (i, (dg, dc)) in self.dg.iter().zip(&self.dc).enumerate() {
            if let Some(&wi) = w.get(i) {
                if wi != 0.0 {
                    g.axpy(wi, dg)?;
                    c.axpy(wi, dc)?;
                }
            }
        }
        Ok((g, c))
    }

    /// Number of variation parameters.
    pub fn param_count(&self) -> usize {
        self.dg.len()
    }

    /// Number of node unknowns.
    pub fn order(&self) -> usize {
        self.g0.rows()
    }

    /// Port incidence matrix `B` (`n x Np`), with a 1 at each port row.
    pub fn port_incidence(&self) -> Matrix {
        port_incidence(self.order(), &self.port_indices)
    }

    /// Adds conductance `g` from MNA index `idx` to ground on all matrices
    /// (the nominal *and* every sensitivity stays consistent because a
    /// constant conductance has no parameter dependence).
    ///
    /// This is the `G_SC` folding step of the framework (paper eq. 12): the
    /// successive-chords output conductances of the nonlinear drivers are
    /// added to the port diagonals *before* reduction.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::UnknownNode`] if `idx` is out of range.
    pub fn add_grounded_conductance(&mut self, idx: usize, g: f64) -> Result<(), CircuitError> {
        if idx >= self.order() {
            return Err(CircuitError::UnknownNode(idx + 1));
        }
        self.g0[(idx, idx)] += g;
        Ok(())
    }
}

/// Port incidence matrix `B` (`order x ports.len()`), with a 1 at each
/// port's row.
pub fn port_incidence(order: usize, ports: &[usize]) -> Matrix {
    let mut b = Matrix::zeros(order, ports.len());
    for (j, &idx) in ports.iter().enumerate() {
        b[(idx, j)] = 1.0;
    }
    b
}

/// The variational stamps of a netlist's linear portion: `(row, col,
/// value)` triplets of `G0`, `C0` and each `dGi`, `dCi`, in emission
/// order, the one stamping routine behind [`VariationalMna`] and
/// [`SparseVariationalMna`].
#[derive(Debug, Clone, PartialEq)]
pub struct VariationalStamps {
    /// Matrix order (node unknowns plus one branch per inductor).
    pub dim: usize,
    /// Stamps of `G0`.
    pub g0: Vec<(usize, usize, f64)>,
    /// Stamps of `C0`.
    pub c0: Vec<(usize, usize, f64)>,
    /// Stamps of each `dGi`, one list per declared parameter.
    pub dg: Vec<Vec<(usize, usize, f64)>>,
    /// Stamps of each `dCi`, one list per declared parameter.
    pub dc: Vec<Vec<(usize, usize, f64)>>,
    /// Parameter names, index-aligned with `dg`/`dc`.
    pub param_names: Vec<String>,
    /// MNA indices of the ports, in port-marking order.
    pub port_indices: Vec<usize>,
}

impl VariationalStamps {
    /// The dense matrices: each stream replayed with `+=` into a zeroed
    /// `dim × dim` matrix, in emission order.
    pub fn dense(&self) -> VariationalMna {
        let replay_all = |streams: &[Vec<(usize, usize, f64)>]| {
            streams.iter().map(|t| replay(self.dim, t)).collect()
        };
        VariationalMna {
            g0: replay(self.dim, &self.g0),
            c0: replay(self.dim, &self.c0),
            dg: replay_all(&self.dg),
            dc: replay_all(&self.dc),
            param_names: self.param_names.clone(),
            port_indices: self.port_indices.clone(),
        }
    }

    /// The sparse matrices: each stream summed into CSC in emission
    /// order, [`SparseMatrix::from_stamps`], which stores exactly the
    /// nonzero entries of the dense replay.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::InvalidInput`] if a stamp indexes out of
    /// range (possible only if the fields were mutated after assembly).
    pub fn sparse(&self) -> Result<SparseVariationalMna, NumericError> {
        let csc = |t: &[(usize, usize, f64)]| SparseMatrix::from_stamps(self.dim, self.dim, t);
        let csc_all = |streams: &[Vec<(usize, usize, f64)>]| {
            streams
                .iter()
                .map(|t| csc(t))
                .collect::<Result<Vec<_>, _>>()
        };
        Ok(SparseVariationalMna {
            g0: csc(&self.g0)?,
            c0: csc(&self.c0)?,
            dg: csc_all(&self.dg)?,
            dc: csc_all(&self.dc)?,
            port_indices: self.port_indices.clone(),
        })
    }

    /// Stamps conductance `g` from MNA index `idx` to ground into `G0`,
    /// after every element stamp: the `G_SC` folding of
    /// [`VariationalMna::add_grounded_conductance`].
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::UnknownNode`] if `idx` is out of range.
    pub fn add_grounded_conductance(&mut self, idx: usize, g: f64) -> Result<(), CircuitError> {
        if idx >= self.dim {
            return Err(CircuitError::UnknownNode(idx + 1));
        }
        self.g0.push((idx, idx, g));
        Ok(())
    }
}

/// [`VariationalMna`]'s matrices stored as CSC matrices of their nonzero
/// entries, built by [`VariationalStamps::sparse`].
///
/// An RC load has a few nonzeros per row, so this keeps about 1 % of the
/// dense bytes. [`SparseVariationalMna::eval`] densifies `(G(w), C(w))`
/// bit-identically to [`VariationalMna::eval`] of the same stamps. An
/// entry the sparse form does not store is `0.0`, and adding `wi·0.0` to a
/// value leaves it as it was, since accumulated stamps are never `-0.0`. A
/// non-finite `wi`, whose `wi·0.0` is NaN, replays the dense sensitivity.
#[derive(Debug, Clone)]
pub struct SparseVariationalMna {
    g0: SparseMatrix,
    c0: SparseMatrix,
    dg: Vec<SparseMatrix>,
    dc: Vec<SparseMatrix>,
    port_indices: Vec<usize>,
}

impl SparseVariationalMna {
    /// Evaluates the dense `(G(w), C(w))`: `G0` and `C0`, then for each
    /// parameter `i` in order whose `wi` is present and nonzero, `wi·dGi`
    /// (and `wi·dCi`) added entry by entry. Entries of `w` beyond the
    /// parameters are ignored; missing entries are 0 (nominal).
    pub fn eval(&self, w: &[f64]) -> (Matrix, Matrix) {
        (
            dense_at(&self.g0, &self.dg, w),
            dense_at(&self.c0, &self.dc, w),
        )
    }

    /// The `G(w)` half of [`SparseVariationalMna::eval`].
    pub fn g_at(&self, w: &[f64]) -> Matrix {
        dense_at(&self.g0, &self.dg, w)
    }

    /// `C(w)` in CSC form: exactly the nonzero entries of the `C(w)` of
    /// [`SparseVariationalMna::eval`].
    ///
    /// The stamps of `C0` and of `wi·dCi`, for each present nonzero `wi`
    /// in order, are summed by [`SparseMatrix::from_stamps`], so each entry
    /// adds its terms in `eval`'s order. Where `C0` stores nothing, `eval`
    /// adds the terms to `0.0` while the stamp sum starts from the first
    /// term: the two agree from the first term that is not `-0.0` on, and
    /// an entry whose terms are all `-0.0` is zero either way and is not
    /// stored. A non-finite `wi` makes `wi·0.0` NaN in every entry, so that
    /// case is densified.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::InvalidInput`] if a sensitivity indexes out
    /// of `C0`'s shape (impossible for a model built by
    /// [`VariationalStamps::sparse`]).
    pub fn c_at(&self, w: &[f64]) -> Result<SparseMatrix, NumericError> {
        let active = self.dc.iter().zip(w).filter(|(_, &wi)| wi != 0.0);
        if active.clone().any(|(_, wi)| !wi.is_finite()) {
            return Ok(SparseMatrix::from_dense(&dense_at(&self.c0, &self.dc, w)));
        }
        let mut stamps = Vec::new();
        for (m, s) in std::iter::once((&self.c0, &1.0)).chain(active) {
            for j in 0..m.n_cols() {
                let (rows, vals) = m.col(j);
                stamps.extend(rows.iter().zip(vals).map(|(&i, &v)| (i, j, s * v)));
            }
        }
        SparseMatrix::from_stamps(self.order(), self.order(), &stamps)
    }

    /// The nominal admittance matrix `G0`.
    pub fn g0(&self) -> &SparseMatrix {
        &self.g0
    }

    /// The nominal susceptance matrix `C0`.
    pub fn c0(&self) -> &SparseMatrix {
        &self.c0
    }

    /// The admittance sensitivities `dGi`, one per parameter.
    pub fn dg(&self) -> &[SparseMatrix] {
        &self.dg
    }

    /// The susceptance sensitivities `dCi`, one per parameter.
    pub fn dc(&self) -> &[SparseMatrix] {
        &self.dc
    }

    /// Number of variation parameters.
    pub fn param_count(&self) -> usize {
        self.dg.len()
    }

    /// Number of node unknowns.
    pub fn order(&self) -> usize {
        self.g0.n_rows()
    }

    /// MNA indices of the ports, in port-marking order.
    pub fn port_indices(&self) -> &[usize] {
        &self.port_indices
    }

    /// Port incidence matrix `B` (`n x Np`), with a 1 at each port row.
    pub fn port_incidence(&self) -> Matrix {
        port_incidence(self.order(), &self.port_indices)
    }
}

/// `M0 + Σ wi·dMi` densified, as [`VariationalMna::eval`] computes it.
fn dense_at(m0: &SparseMatrix, dm: &[SparseMatrix], w: &[f64]) -> Matrix {
    let mut m = m0.to_dense();
    for (d, &wi) in dm.iter().zip(w) {
        if wi != 0.0 {
            add_scaled(&mut m, wi, d);
        }
    }
    m
}

/// `m += s·a` as [`Matrix::axpy`] with `a` dense would compute it.
fn add_scaled(m: &mut Matrix, s: f64, a: &SparseMatrix) {
    if !s.is_finite() {
        // `s·0.0` is NaN: the entries `a` does not store change too.
        for (x, y) in m.as_mut_slice().iter_mut().zip(a.to_dense().as_slice()) {
            *x += s * y;
        }
        return;
    }
    for j in 0..a.n_cols() {
        let (rows, vals) = a.col(j);
        for (&i, &v) in rows.iter().zip(vals) {
            m[(i, j)] += s * v;
        }
    }
}

/// Emits a two-terminal conductance stamp: the diagonals, then the
/// off-diagonal pair.
fn push_conductance(t: &mut Vec<(usize, usize, f64)>, a: Option<usize>, b: Option<usize>, g: f64) {
    if let Some(i) = a {
        t.push((i, i, g));
    }
    if let Some(j) = b {
        t.push((j, j, g));
    }
    if let (Some(i), Some(j)) = (a, b) {
        t.push((i, j, -g));
        t.push((j, i, -g));
    }
}

/// A capacitance frozen at `w`: a fluctuation may not drive it negative.
fn capacitance_at(value: &VariationalValue, w: &[f64]) -> f64 {
    value.eval(w).max(0.0)
}

impl Netlist {
    /// Emits the MNA stamps of the netlist with every element value taken
    /// at the parameter sample `w` — the values [`Netlist::frozen_at`]
    /// freezes (capacitances clamped at 0) — in element order. MOSFETs and
    /// current sources stamp nothing.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::EmptyNetlist`] if there are no non-ground
    /// nodes.
    pub fn stamp_mna(&self, w: &[f64]) -> Result<MnaStamps, CircuitError> {
        let n = self.node_count();
        if n == 0 {
            return Err(CircuitError::EmptyNetlist);
        }
        let m = self.vsource_count();
        let mut out = MnaStamps {
            dim: n + m + self.inductor_count(),
            node_count: n,
            g: Vec::with_capacity(4 * self.elements().len()),
            c: Vec::new(),
        };
        let mut branch = n;
        let mut ind_branch = n + m;
        for e in self.elements() {
            match e {
                Element::Resistor { a, b, value, .. } => {
                    let g = 1.0 / value.eval(w);
                    push_conductance(&mut out.g, a.mna_index(), b.mna_index(), g);
                }
                Element::Capacitor { a, b, value, .. } => {
                    let c = capacitance_at(value, w);
                    push_conductance(&mut out.c, a.mna_index(), b.mna_index(), c);
                }
                Element::VSource { pos, neg, .. } => {
                    if let Some(i) = pos.mna_index() {
                        out.g.push((i, branch, 1.0));
                        out.g.push((branch, i, 1.0));
                    }
                    if let Some(j) = neg.mna_index() {
                        out.g.push((j, branch, -1.0));
                        out.g.push((branch, j, -1.0));
                    }
                    branch += 1;
                }
                Element::Inductor { a, b, value, .. } => {
                    // Branch current unknown with the PRIMA-friendly sign
                    // convention: KCL gets +i, branch row is
                    // -(v_a - v_b) + sL·i = 0.
                    if let Some(i) = a.mna_index() {
                        out.g.push((i, ind_branch, 1.0));
                        out.g.push((ind_branch, i, -1.0));
                    }
                    if let Some(j) = b.mna_index() {
                        out.g.push((j, ind_branch, -1.0));
                        out.g.push((ind_branch, j, 1.0));
                    }
                    out.c.push((ind_branch, ind_branch, value.eval(w)));
                    ind_branch += 1;
                }
                Element::ISource { .. } => {
                    // Sources enter the RHS, not the matrices.
                }
            }
        }
        Ok(out)
    }

    /// Assembles the nominal MNA system (node equations + voltage-source
    /// branch equations): the dense replay of [`Netlist::stamp_mna`] at
    /// `w = []`. MOSFETs are *not* stamped — nonlinear devices are
    /// handled by the analysis engines.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::EmptyNetlist`] if there are no non-ground
    /// nodes.
    pub fn assemble_mna(&self) -> Result<MnaSystem, CircuitError> {
        let stamps = self.stamp_mna(&[])?;
        let vsource_names = self
            .elements()
            .iter()
            .filter_map(|e| match e {
                Element::VSource { name, .. } => Some(name.clone()),
                _ => None,
            })
            .collect();
        let (g, c) = stamps.dense();
        Ok(MnaSystem {
            g,
            c,
            node_count: stamps.node_count,
            vsource_names,
        })
    }

    /// Stamps the node-space variational matrices of the linear R/C/L
    /// portion (sources and MOSFETs are excluded — the linear load of a
    /// logic stage is driven at its ports).
    ///
    /// The element values' absolute sensitivities are converted to matrix
    /// sensitivities by stamping: for a resistor,
    /// `d(1/R)/dw = -(1/R0²)·dR/dw` (first-order), for a capacitor the
    /// stamp is linear in the value so `dC/dw` stamps directly.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::EmptyNetlist`] if there are no non-ground
    /// nodes.
    pub fn variational_stamps(&self) -> Result<VariationalStamps, CircuitError> {
        let n = self.node_count();
        if n == 0 {
            return Err(CircuitError::EmptyNetlist);
        }
        let np = self.params.len();
        let mut out = VariationalStamps {
            dim: n + self.inductor_count(),
            g0: Vec::new(),
            c0: Vec::new(),
            dg: vec![Vec::new(); np],
            dc: vec![Vec::new(); np],
            param_names: self.params.iter().map(str::to_string).collect(),
            port_indices: self.ports().iter().filter_map(|p| p.mna_index()).collect(),
        };
        let mut ind_branch = n;
        for e in self.elements() {
            match e {
                Element::Resistor { a, b, value, .. } => {
                    let (a, b) = (a.mna_index(), b.mna_index());
                    push_conductance(&mut out.g0, a, b, 1.0 / value.nominal);
                    for &(p, s) in &value.sens {
                        // dG/dw = -dR/dw / R0^2
                        let dgdw = -s / (value.nominal * value.nominal);
                        push_conductance(&mut out.dg[p], a, b, dgdw);
                    }
                }
                Element::Capacitor { a, b, value, .. } => {
                    let (a, b) = (a.mna_index(), b.mna_index());
                    push_conductance(&mut out.c0, a, b, value.nominal);
                    for &(p, s) in &value.sens {
                        push_conductance(&mut out.dc[p], a, b, s);
                    }
                }
                Element::Inductor { a, b, value, .. } => {
                    if let Some(i) = a.mna_index() {
                        out.g0.push((i, ind_branch, 1.0));
                        out.g0.push((ind_branch, i, -1.0));
                    }
                    if let Some(j) = b.mna_index() {
                        out.g0.push((j, ind_branch, -1.0));
                        out.g0.push((ind_branch, j, 1.0));
                    }
                    out.c0.push((ind_branch, ind_branch, value.nominal));
                    for &(p, sns) in &value.sens {
                        out.dc[p].push((ind_branch, ind_branch, sns));
                    }
                    ind_branch += 1;
                }
                Element::VSource { .. } | Element::ISource { .. } => {}
            }
        }
        Ok(out)
    }

    /// Assembles the node-space variational matrices: the dense replay of
    /// [`Netlist::variational_stamps`].
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::EmptyNetlist`] if there are no non-ground
    /// nodes.
    pub fn assemble_variational(&self) -> Result<VariationalMna, CircuitError> {
        Ok(self.variational_stamps()?.dense())
    }

    /// Evaluates the netlist at a parameter sample, returning a plain
    /// netlist whose element values are frozen at `x(w)`.
    ///
    /// Used by the "exact" reference flow: simulate the fully re-evaluated
    /// circuit instead of the variational macromodel.
    pub fn frozen_at(&self, w: &[f64]) -> Netlist {
        let mut out = self.clone();
        out.params = self.params.clone();
        let elements = out
            .elements()
            .iter()
            .map(|e| match e {
                Element::Resistor { name, a, b, value } => Element::Resistor {
                    name: name.clone(),
                    a: *a,
                    b: *b,
                    value: VariationalValue::new(value.eval(w)),
                },
                Element::Capacitor { name, a, b, value } => Element::Capacitor {
                    name: name.clone(),
                    a: *a,
                    b: *b,
                    value: VariationalValue::new(capacitance_at(value, w)),
                },
                Element::Inductor { name, a, b, value } => Element::Inductor {
                    name: name.clone(),
                    a: *a,
                    b: *b,
                    value: VariationalValue::new(value.eval(w)),
                },
                other => other.clone(),
            })
            .collect::<Vec<_>>();
        out.set_elements(elements);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::SourceWaveform;
    use crate::variation::VariationalValue;
    use linvar_numeric::LuFactor;

    fn divider() -> Netlist {
        // V1 (1V) -> R1 (1k) -> mid -> R2 (1k) -> gnd
        let mut nl = Netlist::new();
        let top = nl.node("top");
        let mid = nl.node("mid");
        nl.add_vsource("V1", top, Netlist::GROUND, SourceWaveform::Dc(1.0))
            .unwrap();
        nl.add_resistor("R1", top, mid, 1000.0).unwrap();
        nl.add_resistor("R2", mid, Netlist::GROUND, 1000.0).unwrap();
        nl
    }

    #[test]
    fn resistive_divider_dc_solution() {
        let nl = divider();
        let mna = nl.assemble_mna().unwrap();
        assert_eq!(mna.g.rows(), 3); // 2 nodes + 1 vsource branch
                                     // Solve G x = b with b enforcing V1 = 1.
        let mut b = vec![0.0; 3];
        b[2] = 1.0;
        let x = LuFactor::new(&mna.g).unwrap().solve(&b).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12, "top node at 1 V");
        assert!((x[1] - 0.5).abs() < 1e-12, "mid node at 0.5 V");
        // Branch current = -(1 V / 2 kΩ) by MNA sign convention.
        assert!((x[2] + 0.5e-3).abs() < 1e-12);
    }

    #[test]
    fn capacitor_stamps_into_c() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let b = nl.node("b");
        nl.add_capacitor("C1", a, b, 2e-12).unwrap();
        nl.add_capacitor("C2", a, Netlist::GROUND, 1e-12).unwrap();
        let mna = nl.assemble_mna().unwrap();
        assert!((mna.c[(0, 0)] - 3e-12).abs() < 1e-24);
        assert!((mna.c[(0, 1)] + 2e-12).abs() < 1e-24);
        assert!((mna.c[(1, 1)] - 2e-12).abs() < 1e-24);
        assert!(mna.c.is_symmetric(1e-30));
    }

    #[test]
    fn empty_netlist_rejected() {
        let nl = Netlist::new();
        assert!(matches!(nl.assemble_mna(), Err(CircuitError::EmptyNetlist)));
        assert!(matches!(
            nl.assemble_variational(),
            Err(CircuitError::EmptyNetlist)
        ));
    }

    #[test]
    fn variational_matrices_match_frozen_netlist() {
        // R(w) = 10 + 50 w; at w = 0.1 the conductance matrix of the
        // first-order variational form must be close to (but not exactly)
        // the exact re-evaluated one; the capacitance form is exact because
        // C stamps linearly.
        let mut nl = Netlist::new();
        let p = nl.params.declare("p");
        let a = nl.node("a");
        nl.add_variational_resistor(
            "R1",
            a,
            Netlist::GROUND,
            VariationalValue::new(10.0).with_sensitivity(p, 50.0),
        )
        .unwrap();
        nl.add_variational_capacitor(
            "C1",
            a,
            Netlist::GROUND,
            VariationalValue::new(2e-12).with_sensitivity(p, 1e-11),
        )
        .unwrap();
        let var = nl.assemble_variational().unwrap();
        assert_eq!(var.param_count(), 1);
        let (g, c) = var.eval(&[0.1]).unwrap();
        // Exact: 1/15 S; first-order: 1/10 - 50/100*0.1 = 0.05 S.
        assert!((g[(0, 0)] - 0.05).abs() < 1e-12);
        assert!(
            (1.0 / 15.0 - g[(0, 0)]).abs() < 0.02,
            "first-order is close"
        );
        // C exact: 2p + 0.1*10p = 3 pF.
        assert!((c[(0, 0)] - 3e-12).abs() < 1e-24);

        let frozen = nl.frozen_at(&[0.1]);
        let exact = frozen.assemble_variational().unwrap();
        assert!((exact.g0[(0, 0)] - 1.0 / 15.0).abs() < 1e-12);
        assert!((exact.c0[(0, 0)] - 3e-12).abs() < 1e-24);
    }

    #[test]
    fn eval_at_nominal_returns_nominal() {
        let mut nl = Netlist::new();
        nl.params.declare("p");
        let a = nl.node("a");
        nl.add_variational_resistor(
            "R1",
            a,
            Netlist::GROUND,
            VariationalValue::new(100.0).with_sensitivity(0, 10.0),
        )
        .unwrap();
        let var = nl.assemble_variational().unwrap();
        let (g, _) = var.eval(&[0.0]).unwrap();
        assert_eq!(g, var.g0);
        let (g, _) = var.eval(&[]).unwrap();
        assert_eq!(g, var.g0);
    }

    #[test]
    fn port_incidence_matrix() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let b = nl.node("b");
        nl.add_resistor("R", a, b, 1.0).unwrap();
        nl.mark_port(b).unwrap();
        nl.mark_port(a).unwrap();
        let var = nl.assemble_variational().unwrap();
        let binc = var.port_incidence();
        assert_eq!(binc.rows(), 2);
        assert_eq!(binc.cols(), 2);
        // First marked port is b -> MNA index 1.
        assert_eq!(binc[(1, 0)], 1.0);
        assert_eq!(binc[(0, 1)], 1.0);
    }

    #[test]
    fn c_at_stores_exactly_the_nonzero_entries_of_eval() {
        // C2 has no nominal value, so its entries live in dC1 only; tiny
        // samples make some `wi·dCi` terms underflow to ±0.0.
        let mut nl = Netlist::new();
        let p = nl.params.declare("p");
        let q = nl.params.declare("q");
        let a = nl.node("a");
        let b = nl.node("b");
        let c1 = VariationalValue::new(1e-12)
            .with_sensitivity(p, 1e-13)
            .with_sensitivity(q, -1e-12);
        nl.add_variational_capacitor("C1", a, b, c1).unwrap();
        let c2 = VariationalValue::new(0.0).with_sensitivity(q, 1e-300);
        nl.add_variational_capacitor("C2", b, Netlist::GROUND, c2)
            .unwrap();
        let var = nl.variational_stamps().unwrap().sparse().unwrap();
        let bits = |m: &SparseMatrix| {
            let v: Vec<u64> = m.values().iter().map(|x| x.to_bits()).collect();
            (m.col_ptr().to_vec(), m.row_indices().to_vec(), v)
        };
        let samples: [&[f64]; 8] = [
            &[],
            &[0.5],
            &[0.5, -0.25],
            &[0.0, 1.0],
            &[-1e-300, -1e-30],
            &[1e-300, -1e-300],
            &[f64::NAN, 1.0],
            &[1.0, f64::INFINITY],
        ];
        for w in samples {
            let (_, c) = var.eval(w);
            let got = var.c_at(w).unwrap();
            assert_eq!(bits(&got), bits(&SparseMatrix::from_dense(&c)), "w = {w:?}");
        }
    }

    #[test]
    fn gsc_folding_adds_to_diagonal() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        nl.add_resistor("R", a, Netlist::GROUND, 2.0).unwrap();
        let mut var = nl.assemble_variational().unwrap();
        var.add_grounded_conductance(0, 0.5).unwrap();
        assert!((var.g0[(0, 0)] - 1.0).abs() < 1e-15);
        assert!(var.add_grounded_conductance(7, 1.0).is_err());
    }
}
