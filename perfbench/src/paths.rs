//! `paths`: the paper's hot path (Table 4). Variational-ROM + TETA
//! Monte-Carlo over the longest paths of the ISCAS-89 set, through
//! `PathModel::monte_carlo_campaign` with no checkpoint and no SPICE
//! baseline. Loads TETA, the vROM pole/residue layer and tiny dense LU;
//! bypasses sparse LU, HTTP and checkpoints. PRIMA characterization runs
//! in `PathModel::build`, which is set-up.

use crate::jobloop::{
    counter, numeric_layers, phase_calls, phase_s, unattributed, CampaignOut, Phase, Workload,
};
use crate::measure::{percentile, Metrics, Spans};
use crate::THREADS;
use linvar_core::path::{PathModel, PathSpec, VariationSources};
use linvar_core::{CampaignConfig, CampaignFingerprint, RecoveryPolicy, SampleStatus};
use linvar_devices::tech_018;
use linvar_interconnect::WireTech;
use linvar_iscas::{benchmark, decompose_to_primitives, longest_path};
use linvar_metrics::{Counter, MetricsReport};
use linvar_serve::bits_hex;
use linvar_stats::{rng_from_seed, run_campaign};

/// The Table-4 circuits, each at 10 and 500 linear elements per stage.
const CIRCUITS: [&str; 5] = ["s27", "s208", "s444", "s1423", "s9234"];
const ELEMENTS: [usize; 2] = [10, 500];

/// Samples per campaign at `n_elem` elements per stage: the sizes the
/// `table4` bin gives its TETA Monte-Carlo. `run_campaign` hands out one
/// sample at a time, so both workers share every campaign.
fn samples_per_campaign(n_elem: usize) -> usize {
    if n_elem == 500 {
        3
    } else {
        5
    }
}

/// One configuration: a built path model and its campaign size.
struct PathConfig {
    name: String,
    model: PathModel,
    samples: usize,
}

pub struct Paths {
    configs: Vec<PathConfig>,
    sources: VariationSources,
}

fn path_cells(circuit: &str) -> Result<Vec<String>, String> {
    let bench = benchmark(circuit).ok_or_else(|| format!("unknown benchmark {circuit}"))?;
    let report = longest_path(&bench.netlist).map_err(|e| e.to_string())?;
    let stages = decompose_to_primitives(&bench.netlist, &report).map_err(|e| e.to_string())?;
    Ok(stages.into_iter().map(|s| s.cell).collect())
}

impl Workload for Paths {
    const SAMPLE_SPAN: &'static str = "core.sample";

    fn setup(spans: Option<&Spans>) -> Result<Self, String> {
        let tech = tech_018();
        let wire = WireTech::m018();
        let mut configs = Vec::new();
        for circuit in CIRCUITS {
            let cells = path_cells(circuit)?;
            for n_elem in ELEMENTS {
                let spec = PathSpec {
                    cells: cells.clone(),
                    linear_elements_between_stages: n_elem,
                    input_slew: 60e-12,
                };
                let build = || PathModel::build(&spec, &tech, &wire).map_err(|e| e.to_string());
                let model = match spans {
                    Some(s) => s.time("core.build", build)?,
                    None => build()?,
                };
                configs.push(PathConfig {
                    name: format!("{circuit}@{n_elem}"),
                    model,
                    samples: samples_per_campaign(n_elem),
                });
            }
        }
        Ok(Paths {
            configs,
            sources: VariationSources::example3_table4(),
        })
    }

    fn configs(&self) -> usize {
        self.configs.len()
    }

    fn run_campaign(
        &self,
        c: usize,
        seed: u64,
        spans: Option<&Spans>,
    ) -> Result<CampaignOut, String> {
        let PathConfig {
            name,
            model,
            samples: n,
        } = &self.configs[c];
        let n = *n;
        let policy = RecoveryPolicy::default();
        let config = CampaignConfig::default();
        let (summary, failed) = match spans {
            None => {
                let mc = model
                    .monte_carlo_campaign(&self.sources, n, seed, THREADS, policy, &config)
                    .map_err(|e| format!("{name}: {e}"))?;
                (mc.summary, mc.failures)
            }
            Some(spans) => {
                // `monte_carlo_campaign`'s own pool and attempt ladder, with
                // a span around each `evaluate_sample`.
                let samples = model.draw_samples(&self.sources, n, &mut rng_from_seed(seed));
                let fingerprint = CampaignFingerprint {
                    master_seed: seed,
                    n_samples: n,
                    policy,
                    model: model.campaign_fingerprint(&self.sources),
                };
                let res = run_campaign(
                    &samples,
                    THREADS,
                    policy,
                    &config,
                    fingerprint,
                    |s, attempt| {
                        if attempt == 0 {
                            let d = spans.time(Self::SAMPLE_SPAN, || model.evaluate_sample(s));
                            return d.map(|d| {
                                linvar_metrics::incr(Counter::RungVariationalRom);
                                (d, SampleStatus::Clean)
                            });
                        }
                        if policy.is_fallback_attempt(attempt) {
                            return model
                                .evaluate_sample_spice(s)
                                .map(|d| (d, SampleStatus::Degraded));
                        }
                        model
                            .evaluate_sample_recovering(s, policy.allow_fallback)
                            .map(|(d, report)| (d, report.status()))
                    },
                )
                .map_err(|e| format!("{name}: {e}"))?;
                (res.summary, res.failures)
            }
        };
        Ok(CampaignOut {
            samples: n,
            failed,
            row: format!(
                "{name}: n={} mean={} std={} failures={failed}",
                summary.n,
                bits_hex(summary.mean),
                bits_hex(summary.std)
            ),
            stats: vec![summary.mean, summary.std],
        })
    }

    fn layers(
        &self,
        setup: &MetricsReport,
        setup_spans: &Spans,
        r: &MetricsReport,
        spans: &Spans,
        phase: &Phase,
        m: &mut Metrics,
    ) {
        let n = phase.samples as f64;
        m.set("core.build_s", setup_spans.total("core.build"), "s");
        m.set("mor.prima_project_s", phase_s(setup, "prima_project"), "s");
        let sample_s = spans.durations(Self::SAMPLE_SPAN);
        let p50 = percentile(&sample_s, 0.5).unwrap_or(0.0);
        m.set("core.sample_ms_p50", p50 * 1e3, "ms");
        m.set(
            "core.rung_vrom_frac",
            counter(r, "rung.variational_rom") / n,
            "frac",
        );
        m.set(
            "core.stage_spice_rescues",
            counter(r, "rung.stage_spice_rescues") / n,
            "1/sample",
        );
        let stage_evals = phase_calls(r, "stage_eval");
        m.set(
            "teta.stage_eval_s",
            phase_s(r, "stage_eval") / n,
            "s/sample",
        );
        m.set("teta.stage_evals", stage_evals / n, "1/sample");
        if stage_evals > 0.0 {
            m.set(
                "teta.chords_per_stage",
                counter(r, "sc.chord_iterations") / stage_evals,
                "1/stage",
            );
        }
        m.set("mor.eigen_s", phase_s(r, "eigen") / n, "s/sample");
        m.set("mor.stabilize_s", phase_s(r, "stabilize") / n, "s/sample");
        numeric_layers(r, n, m);
        // Leaf layers inside a sample: dense LU, eigensolves and pole
        // stabilization. TETA's own chord loop has no finer timer yet.
        unattributed(
            sample_s.iter().sum(),
            &[
                phase_s(r, "lu_factor"),
                phase_s(r, "lu_solve"),
                phase_s(r, "eigen"),
                phase_s(r, "stabilize"),
            ],
            m,
        );
    }
}
