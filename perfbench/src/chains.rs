//! `chains`: the solve-heavy use of the numeric layer. Transient delay
//! Monte-Carlo over the full `standard_cases` RC-chain/H-tree suite
//! (about 1k to 20k MNA unknowns) through `linvar_bench::chains::run_case`
//! on the auto-picked backend: hundreds of solves per numeric factor.
//! Loads circuit freezing, the SPICE transient engine and both LU
//! backends; bypasses TETA, the vROM and HTTP.

use crate::gate::row6;
use crate::jobloop::{
    counter, numeric_layers, phase_s, unattributed, CampaignOut, Phase, Workload,
};
use crate::measure::{Metrics, Spans};
use crate::THREADS;
use linvar_bench::chains::{delay_for_sample, mc_line, run_case, CHAINS_SIGMA};
use linvar_interconnect::{standard_cases, ChainCase};
use linvar_metrics::MetricsReport;
use linvar_numeric::{SolverBackend, SolverChoice};
use linvar_spice::{crossing_time, Transient, TransientOptions};
use linvar_stats::monte_carlo_par;
use linvar_stats::sampling::lhs_normal_streamed;

/// Samples per campaign: between the `chains` bin's 6 (`--quick`) and
/// 16. The library's pool hands out four samples at a time, so eight
/// give each of the [`THREADS`] workers four; six would give one worker
/// four and the other two.
const SAMPLES_PER_CAMPAIGN: usize = 8;

pub struct Chains {
    cases: Vec<ChainCase>,
}

fn samples(seed: u64) -> Vec<Vec<f64>> {
    lhs_normal_streamed(seed, SAMPLES_PER_CAMPAIGN, 5, CHAINS_SIGMA)
}

/// `delay_for_sample` with a span around each layer it calls.
fn traced_delay(case: &ChainCase, w: &[f64], spans: &Spans) -> Result<f64, String> {
    let frozen = spans.time("circuit.freeze", || case.netlist.frozen_at(w));
    let res = spans
        .time("spice.transient", || {
            let mut opts = TransientOptions::new(case.tstop, case.dt);
            opts.probes.push(case.probe.clone());
            opts.solver = SolverChoice::Auto;
            Transient::new(&frozen, &opts)?.run()
        })
        .map_err(|e| e.to_string())?;
    let wave = res
        .probe(&case.probe)
        .ok_or_else(|| format!("probe {} missing", case.probe))?;
    crossing_time(&res.times, wave, 0.5, true, 0.0)
        .ok_or_else(|| format!("{}: no 50% crossing in window", case.name))
}

impl Workload for Chains {
    fn setup(_spans: Option<&Spans>) -> Result<Self, String> {
        let cases = standard_cases(false).map_err(|e| e.to_string())?;
        Ok(Chains { cases })
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
                spans.time("sample", || traced_delay(case, w, spans))
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

    /// The first sample of the campaign on configuration `c`, on the
    /// backend `Auto` does not pick, must print the same `%.6e` delay.
    /// Cases above the auto-sparse threshold are skipped: dense cannot
    /// finish them in time.
    fn cross_check(&self, c: usize, seed: u64) -> Result<(), String> {
        let case = &self.cases[c];
        if SolverChoice::Auto.backend_for(case.dim) == SolverBackend::Sparse {
            return Ok(());
        }
        let w = &samples(seed)[0];
        let auto = delay_for_sample(case, w, SolverChoice::Auto).map_err(|e| e.to_string())?;
        let other = delay_for_sample(case, w, SolverChoice::Sparse).map_err(|e| e.to_string())?;
        if row6(auto) != row6(other) {
            return Err(format!(
                "{}: dense delay {} but sparse {}",
                case.name,
                row6(auto),
                row6(other)
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
        let freeze_s = spans.total("circuit.freeze");
        m.set("circuit.freeze_ms", freeze_s * 1e3 / n, "ms/sample");
        m.set(
            "spice.transient_ms",
            spans.total("spice.transient") * 1e3 / n,
            "ms/sample",
        );
        m.set(
            "spice.newton_iterations",
            counter(r, "spice.newton_iterations") / n,
            "1/sample",
        );
        numeric_layers(r, n, m);
        // Leaf layers inside a sample: freezing and the numeric kernels.
        // The transient engine's own stamping and stepping are not timed.
        unattributed(
            spans.total("sample"),
            &[
                freeze_s,
                phase_s(r, "symbolic"),
                phase_s(r, "numeric_factor"),
                phase_s(r, "solve"),
                phase_s(r, "lu_factor"),
                phase_s(r, "lu_solve"),
            ],
            m,
        );
    }
}
