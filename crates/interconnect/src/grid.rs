//! Stochastic power-grid generator for IR-drop analysis.
//!
//! The ROADMAP's power-grid workload (arXiv:0710.4649): a `rows × cols`
//! mesh of supply wires whose per-segment resistances carry W/T/ρ
//! fluctuation sensitivities through the same `variational_from`
//! machinery as the coupled-line builder, fed by a Vdd pad through
//! via/strap resistances at the four corners and loaded by a
//! deterministic non-uniform pattern of tile current sources. Stamping
//! the netlist at a fluctuation sample and solving the DC operating
//! point gives that sample's worst-case IR drop — the scalar whose
//! distribution the MC/Sobol/gPC engines characterize.

use crate::builder::variational_from;
use crate::sakurai::resistance_per_meter;
use crate::tech::{WireParam, WireTech};
use linvar_circuit::{CircuitError, Element, Netlist, SourceWaveform};
use linvar_numeric::{AnySolver, LinearSolver, NumericError, SolverChoice};
use std::fmt;

/// Specification of a rectangular power-grid mesh.
#[derive(Debug, Clone)]
pub struct PowerGridSpec {
    /// Grid nodes per column (≥ 2).
    pub rows: usize,
    /// Grid nodes per row (≥ 2).
    pub cols: usize,
    /// Wire length between adjacent grid nodes (m).
    pub pitch: f64,
    /// Wire technology (geometry + tolerances) of the grid straps.
    pub tech: WireTech,
    /// Supply voltage at the pad (V).
    pub vdd: f64,
    /// Nominal load current per tile (A); the builder modulates it with
    /// a deterministic non-uniform pattern.
    pub tile_current: f64,
    /// Via/strap resistance from the pad to each corner (Ω).
    pub via_resistance: f64,
}

impl PowerGridSpec {
    /// A `rows × cols` grid in the given technology with representative
    /// supply-network defaults: 50 µm pitch, 1.8 V pad, 60 µA tiles,
    /// 0.5 Ω corner vias — sized so the nominal worst drop of the quick
    /// grids lands in the few-percent-of-Vdd regime real sign-off cares
    /// about.
    pub fn new(rows: usize, cols: usize, tech: WireTech) -> Self {
        PowerGridSpec {
            rows,
            cols,
            pitch: 50e-6,
            tech,
            vdd: 1.8,
            tile_current: 60e-6,
            via_resistance: 0.5,
        }
    }

    /// Stable case name (`grid{rows}x{cols}`), used in benchmark rows
    /// and golden fixtures.
    pub fn name(&self) -> String {
        format!("grid{}x{}", self.rows, self.cols)
    }
}

/// A built power-grid case, ready for per-sample DC IR-drop evaluation.
#[derive(Debug, Clone)]
pub struct GridCase {
    /// Stable case name (appears in `mc` rows and golden fixtures).
    pub name: String,
    /// Variational netlist: mesh resistors with W/T/ρ sensitivities,
    /// the pad source, corner vias, and tile load current sources.
    pub netlist: Netlist,
    /// Pad supply voltage (V); drops are measured against it.
    pub vdd: f64,
    /// Names of the loaded grid nodes whose droop is observed.
    pub observe: Vec<String>,
    /// MNA unknowns (nodes + source branch).
    pub dim: usize,
    /// Linear element count (diagnostic).
    pub element_count: usize,
}

/// Why an IR-drop evaluation failed.
#[derive(Debug, Clone, PartialEq)]
pub enum GridError {
    /// Netlist construction or assembly failed.
    Circuit(CircuitError),
    /// The DC solve failed (singular grid even after recovery).
    Numeric(NumericError),
    /// A solved node voltage is NaN/∞ — the drop cannot be trusted.
    NonFinite {
        /// Name of the offending node.
        node: String,
        /// The non-finite voltage.
        value: f64,
    },
    /// An `observe` entry names ground or a node the netlist lacks.
    UnknownObservedNode {
        /// The name in [`GridCase::observe`].
        node: String,
    },
}

impl fmt::Display for GridError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GridError::Circuit(e) => write!(f, "grid circuit error: {e}"),
            GridError::Numeric(e) => write!(f, "grid solve error: {e}"),
            GridError::NonFinite { node, value } => {
                write!(f, "node {node} solved to non-finite voltage {value}")
            }
            GridError::UnknownObservedNode { node } => {
                write!(f, "observed node {node} is not a non-ground grid node")
            }
        }
    }
}

impl std::error::Error for GridError {}

impl From<CircuitError> for GridError {
    fn from(e: CircuitError) -> Self {
        GridError::Circuit(e)
    }
}

impl From<NumericError> for GridError {
    fn from(e: NumericError) -> Self {
        GridError::Numeric(e)
    }
}

/// Deterministic non-uniform tile load: the nominal current scaled by a
/// fixed per-tile factor in `[1, 2)`. A uniform load would make the
/// worst drop trivially the grid center; the modulation gives the
/// distribution a workload-shaped spatial profile without any RNG.
fn tile_load(spec: &PowerGridSpec, r: usize, c: usize) -> f64 {
    let key = (r * 31 + c * 17) % 8;
    spec.tile_current * (1.0 + key as f64 / 8.0)
}

/// Builds the power-grid case: mesh resistors (variational in W/T/ρ via
/// the Sakurai sheet resistance), a DC pad source, four corner via
/// straps, and one load current source per grid node.
///
/// Node names are `g{row}_{col}`; the pad is `vddpad`. Wire parameters
/// are declared as `W`, `T`, `S`, `H`, `rho` in [`WireParam::ALL`]
/// order (S and H carry no resistance sensitivity and exist so grid
/// samples share the five-parameter space of every other workload).
///
/// # Errors
///
/// Returns [`CircuitError::InvalidValue`] for a grid smaller than 2×2
/// or a non-positive pitch.
pub fn power_grid_case(spec: &PowerGridSpec) -> Result<GridCase, CircuitError> {
    if spec.rows < 2 || spec.cols < 2 {
        return Err(CircuitError::InvalidValue {
            element: "power-grid".into(),
            value: spec.rows.min(spec.cols) as f64,
            requirement: "need at least a 2x2 mesh",
        });
    }
    if !(spec.pitch > 0.0 && spec.pitch.is_finite()) {
        return Err(CircuitError::InvalidValue {
            element: "power-grid".into(),
            value: spec.pitch,
            requirement: "pitch must be positive",
        });
    }
    let mut nl = Netlist::new();
    let mut params = [0usize; 5];
    for p in WireParam::ALL {
        params[p.index()] = nl.params.declare(p.name());
    }
    let r_seg = variational_from(&spec.tech, &params, |w, t, _s, _h, rho| {
        resistance_per_meter(rho, w, t) * spec.pitch
    });

    let mut element_count = 0usize;
    let node_name = |r: usize, c: usize| format!("g{r}_{c}");
    // Grid nodes first, in row-major order.
    let ids: Vec<Vec<_>> = (0..spec.rows)
        .map(|r| (0..spec.cols).map(|c| nl.node(&node_name(r, c))).collect())
        .collect();
    // Mesh straps: horizontal then vertical, row-major.
    for r in 0..spec.rows {
        for c in 0..spec.cols {
            if c + 1 < spec.cols {
                nl.add_variational_resistor(
                    &format!("Rh_{r}_{c}"),
                    ids[r][c],
                    ids[r][c + 1],
                    r_seg.clone(),
                )?;
                element_count += 1;
            }
            if r + 1 < spec.rows {
                nl.add_variational_resistor(
                    &format!("Rv_{r}_{c}"),
                    ids[r][c],
                    ids[r + 1][c],
                    r_seg.clone(),
                )?;
                element_count += 1;
            }
        }
    }
    // Pad and corner vias (fixed — via stacks don't share the wire
    // fluctuations).
    let pad = nl.node("vddpad");
    nl.add_vsource("Vdd", pad, Netlist::GROUND, SourceWaveform::Dc(spec.vdd))?;
    for (k, &(r, c)) in [
        (0, 0),
        (0, spec.cols - 1),
        (spec.rows - 1, 0),
        (spec.rows - 1, spec.cols - 1),
    ]
    .iter()
    .enumerate()
    {
        nl.add_resistor(&format!("Rvia{k}"), pad, ids[r][c], spec.via_resistance)?;
        element_count += 1;
    }
    // Tile loads: current drawn out of every grid node (into `pos` =
    // ground), deterministically non-uniform.
    let mut observe = Vec::with_capacity(spec.rows * spec.cols);
    for (r, row_ids) in ids.iter().enumerate() {
        for (c, &node) in row_ids.iter().enumerate() {
            nl.add_isource(
                &format!("I_{r}_{c}"),
                Netlist::GROUND,
                node,
                SourceWaveform::Dc(tile_load(spec, r, c)),
            )?;
            observe.push(node_name(r, c));
        }
    }
    let dim = nl.node_count() + nl.vsource_count();
    Ok(GridCase {
        name: spec.name(),
        netlist: nl,
        vdd: spec.vdd,
        observe,
        dim,
        element_count,
    })
}

/// Evaluates one fluctuation sample: stamp the grid at `w`, solve the DC
/// operating point on the requested backend (through the recovery
/// ladder), and return the worst IR drop `Vdd − min(v)` over the loaded
/// nodes.
///
/// The stamps go straight into the solver
/// ([`AnySolver::factor_stamps_recovering`]), so the sparse backend never
/// sees a dense matrix; the result bits equal freezing the netlist,
/// assembling it densely and factoring that.
///
/// # Errors
///
/// Returns [`GridError`] on assembly failure, an unrecoverably singular
/// grid, a non-finite solved voltage, or an `observe` entry that is not a
/// non-ground node of the netlist.
pub fn ir_drop_for_sample(
    case: &GridCase,
    w: &[f64],
    choice: SolverChoice,
) -> Result<f64, GridError> {
    let nl = &case.netlist;
    let stamps = nl.stamp_mna(w)?;
    // DC right-hand side: voltage sources pin their branch rows, current
    // sources enter the KCL rows (into `pos`, out of `neg`).
    let mut rhs = vec![0.0; stamps.dim];
    let mut branch = stamps.node_count;
    for e in nl.elements() {
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
    let (solver, _recovery) = AnySolver::factor_stamps_recovering(stamps.dim, &stamps.g, choice)?;
    let v = solver.solve(&rhs)?;
    let mut worst = 0.0f64;
    for name in &case.observe {
        let idx = nl
            .find_node(name)
            .and_then(|n| n.mna_index())
            .ok_or_else(|| GridError::UnknownObservedNode { node: name.clone() })?;
        if !v[idx].is_finite() {
            return Err(GridError::NonFinite {
                node: name.clone(),
                value: v[idx],
            });
        }
        worst = worst.max(case.vdd - v[idx]);
    }
    Ok(worst)
}

/// The benchmark grid suite: one compact mesh for `--quick`, plus a
/// denser mesh for the full run.
///
/// # Errors
///
/// Propagates builder errors (impossible for these fixed specs).
pub fn standard_grid_cases(quick: bool) -> Result<Vec<GridCase>, CircuitError> {
    let tech = WireTech::m018();
    let mut cases = vec![power_grid_case(&PowerGridSpec::new(8, 8, tech.clone()))?];
    if !quick {
        cases.push(power_grid_case(&PowerGridSpec::new(16, 16, tech))?);
    }
    Ok(cases)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_case() -> GridCase {
        power_grid_case(&PowerGridSpec::new(8, 8, WireTech::m018())).unwrap()
    }

    #[test]
    fn grid_has_expected_shape() {
        let case = quick_case();
        assert_eq!(case.name, "grid8x8");
        // 64 grid nodes + pad, one source branch.
        assert_eq!(case.dim, 65 + 1);
        // Straps: 8×7 horizontal + 7×8 vertical; 4 vias.
        assert_eq!(case.element_count, 2 * 56 + 4);
        assert_eq!(case.observe.len(), 64);
        let var = case.netlist.assemble_variational().unwrap();
        assert_eq!(var.param_names, vec!["W", "T", "S", "H", "rho"]);
    }

    #[test]
    fn nominal_drop_is_positive_and_sane() {
        let case = quick_case();
        let drop = ir_drop_for_sample(&case, &[0.0; 5], SolverChoice::Dense).unwrap();
        assert!(drop > 0.0, "loaded grid must droop");
        assert!(
            drop < 0.5 * case.vdd,
            "drop {drop} V is implausibly large for the default spec"
        );
    }

    #[test]
    fn backends_agree_on_the_drop() {
        let case = quick_case();
        let w = [0.3, -0.2, 0.1, 0.0, 0.4];
        let dense = ir_drop_for_sample(&case, &w, SolverChoice::Dense).unwrap();
        let sparse = ir_drop_for_sample(&case, &w, SolverChoice::Sparse).unwrap();
        assert!(
            (dense - sparse).abs() <= 1e-9 * dense,
            "dense {dense:e} vs sparse {sparse:e}"
        );
        assert_eq!(format!("{dense:.6e}"), format!("{sparse:.6e}"));
    }

    #[test]
    fn narrower_or_more_resistive_wires_droop_more() {
        let case = quick_case();
        let nominal = ir_drop_for_sample(&case, &[0.0; 5], SolverChoice::Dense).unwrap();
        // -1σ width (narrower wires) and +1σ resistivity both raise R.
        let narrow =
            ir_drop_for_sample(&case, &[-1.0, 0.0, 0.0, 0.0, 0.0], SolverChoice::Dense).unwrap();
        let resistive =
            ir_drop_for_sample(&case, &[0.0, 0.0, 0.0, 0.0, 1.0], SolverChoice::Dense).unwrap();
        assert!(narrow > nominal, "narrow {narrow} vs nominal {nominal}");
        assert!(resistive > nominal, "rho+ {resistive} vs nominal {nominal}");
        // Spacing and ILD height must not move a pure-R grid.
        let spaced =
            ir_drop_for_sample(&case, &[0.0, 0.0, 1.0, 1.0, 0.0], SolverChoice::Dense).unwrap();
        assert_eq!(spaced.to_bits(), nominal.to_bits());
    }

    #[test]
    fn loads_are_non_uniform_and_deterministic() {
        let spec = PowerGridSpec::new(4, 4, WireTech::m018());
        let loads: Vec<f64> = (0..4)
            .flat_map(|r| (0..4).map(move |c| (r, c)))
            .map(|(r, c)| tile_load(&spec, r, c))
            .collect();
        assert!(loads.iter().any(|&l| l != loads[0]), "pattern is flat");
        assert!(loads.iter().all(|&l| l >= spec.tile_current));
        let again: Vec<f64> = (0..4)
            .flat_map(|r| (0..4).map(move |c| (r, c)))
            .map(|(r, c)| tile_load(&spec, r, c))
            .collect();
        assert_eq!(loads, again);
    }

    #[test]
    fn degenerate_specs_rejected() {
        let tech = WireTech::m018();
        assert!(power_grid_case(&PowerGridSpec::new(1, 8, tech.clone())).is_err());
        let mut s = PowerGridSpec::new(4, 4, tech);
        s.pitch = 0.0;
        assert!(power_grid_case(&s).is_err());
    }
}
