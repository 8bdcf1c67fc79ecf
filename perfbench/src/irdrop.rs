//! `irdrop`: the factor-heavy use of the numeric layer. Stochastic
//! power-grid DC (Ghanta et al.) through `linvar_bench::grid::run_case`:
//! one fresh factorization and one solve per sample. The two meshes sit
//! on either side of `SPARSE_AUTO_MIN_DIM`, so the auto-picked backend is
//! dense on one and sparse on the other, and a change to that threshold
//! shows here and nowhere else. Loads dense MNA assembly and both LU
//! backends; bypasses transient stepping, TETA, the vROM and HTTP.

use crate::gate::row6;
use crate::jobloop::{numeric_layers, unattributed, CampaignOut, Phase, Workload};
use crate::measure::{Metrics, Spans};
use crate::THREADS;
use linvar_bench::chains::mc_line;
use linvar_bench::grid::{drop_for_sample, run_case, GRID_SIGMA};
use linvar_circuit::Element;
use linvar_interconnect::{power_grid_case, GridCase, PowerGridSpec, WireTech};
use linvar_metrics::MetricsReport;
use linvar_numeric::{AnySolver, LinearSolver, SolverBackend, SolverChoice, SPARSE_AUTO_MIN_DIM};
use linvar_stats::monte_carlo_par;
use linvar_stats::sampling::lhs_normal_streamed;

/// Mesh sides: 32×32 (dim 1026) auto-picks dense, 64×64 (dim 4098)
/// auto-picks sparse.
const MESHES: [usize; 2] = [32, 64];

/// Samples per campaign: the `acgrid` bin's `--quick` size. The
/// library's pool hands out four samples at a time, so eight give each
/// of the [`THREADS`] workers four.
const SAMPLES_PER_CAMPAIGN: usize = 8;

pub struct IrDrop {
    cases: Vec<GridCase>,
}

fn samples(seed: u64) -> Vec<Vec<f64>> {
    lhs_normal_streamed(seed, SAMPLES_PER_CAMPAIGN, 5, GRID_SIGMA)
}

/// `ir_drop_for_sample` with a span around each layer it calls, named
/// after the mesh.
fn traced_drop(case: &GridCase, w: &[f64], spans: &Spans) -> Result<f64, String> {
    let frozen = spans.time("circuit.freeze", || case.netlist.frozen_at(w));
    let mna = spans
        .time(&format!("circuit.assemble_ms.{}", case.name), || {
            frozen.assemble_mna()
        })
        .map_err(|e| e.to_string())?;
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
    let (solver, _recovery) = spans
        .time(&format!("numeric.factor_ms.{}", case.name), || {
            AnySolver::factor_dense_matrix_recovering(&mna.g, SolverChoice::Auto)
        })
        .map_err(|e| e.to_string())?;
    let v = spans
        .time(&format!("numeric.solve_ms.{}", case.name), || {
            solver.solve(&rhs)
        })
        .map_err(|e| e.to_string())?;
    let mut worst = 0.0f64;
    for name in &case.observe {
        let idx = frozen
            .find_node(name)
            .and_then(|n| n.mna_index())
            .ok_or_else(|| format!("observed node {name} missing"))?;
        if !v[idx].is_finite() {
            return Err(format!("node {name} solved to {}", v[idx]));
        }
        worst = worst.max(case.vdd - v[idx]);
    }
    Ok(worst)
}

impl Workload for IrDrop {
    fn setup(_spans: Option<&Spans>) -> Result<Self, String> {
        let cases = MESHES
            .iter()
            .map(|&k| power_grid_case(&PowerGridSpec::new(k, k, WireTech::m018())))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.to_string())?;
        let sides: Vec<bool> = cases.iter().map(|c| c.dim >= SPARSE_AUTO_MIN_DIM).collect();
        if sides != [false, true] {
            return Err("the meshes no longer straddle SPARSE_AUTO_MIN_DIM".into());
        }
        Ok(IrDrop { cases })
    }

    fn configs(&self) -> usize {
        self.cases.len()
    }

    fn run_campaign(
        &self,
        c: usize,
        seed: u64,
        spans: Option<&Spans>,
    ) -> Result<CampaignOut, String> {
        let case = &self.cases[c];
        let samples = samples(seed);
        let mc = match spans {
            None => {
                run_case(case, &samples, THREADS, SolverChoice::Auto).map_err(|e| e.to_string())?
            }
            Some(spans) => monte_carlo_par(&samples, THREADS, |w: &Vec<f64>| {
                spans.time("sample", || traced_drop(case, w, spans))
            }),
        };
        let s = &mc.summary;
        Ok(CampaignOut {
            samples: samples.len(),
            failed: mc.failures,
            row: mc_line(&case.name, s, mc.failures),
            stats: vec![s.mean, s.std, s.min, s.max],
        })
    }

    /// The first sample of the campaign on configuration `c`, re-solved
    /// on the backend `Auto` does not pick, must print the same `%.6e`
    /// drop.
    fn cross_check(&self, c: usize, seed: u64) -> Result<(), String> {
        let case = &self.cases[c];
        let other = match SolverChoice::Auto.backend_for(case.dim) {
            SolverBackend::Dense => SolverChoice::Sparse,
            SolverBackend::Sparse => SolverChoice::Dense,
        };
        let w = &samples(seed)[0];
        let a = drop_for_sample(case, w, SolverChoice::Auto).map_err(|e| e.to_string())?;
        let b = drop_for_sample(case, w, other).map_err(|e| e.to_string())?;
        if row6(a) != row6(b) {
            return Err(format!(
                "{}: auto-backend drop {} but {other:?} {}",
                case.name,
                row6(a),
                row6(b)
            ));
        }
        Ok(())
    }

    fn layers(
        &self,
        _setup: &MetricsReport,
        _setup_spans: &Spans,
        r: &MetricsReport,
        spans: &Spans,
        phase: &Phase,
        m: &mut Metrics,
    ) {
        let n = phase.samples as f64;
        numeric_layers(r, n, m);
        let mut leaves = vec![spans.total("circuit.freeze")];
        for case in &self.cases {
            for layer in [
                "circuit.assemble_ms",
                "numeric.factor_ms",
                "numeric.solve_ms",
            ] {
                let name = format!("{layer}.{}", case.name);
                // Every sweep visits both meshes, so `d` is never empty.
                let d = spans.durations(&name);
                let total: f64 = d.iter().sum();
                m.set(&name, total * 1e3 / d.len() as f64, "ms/sample");
                leaves.push(total);
            }
        }
        // Leaf layers inside a sample: freeze, assembly, factor, solve.
        unattributed(spans.total("sample"), &leaves, m);
    }
}
