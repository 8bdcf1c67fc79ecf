//! Job-facing campaign model registry.
//!
//! The campaign service (`linvar-serve`) accepts jobs by **model id** —
//! a string naming what to simulate — and runs them through the durable
//! campaign driver. This module defines the contract such a model must
//! satisfy ([`CampaignModel`]) and a [`ModelRegistry`] that maps ids to
//! models.
//!
//! Determinism is the whole point: a model's [`CampaignModel::run`] must
//! be a pure function of `(master_seed, n, policy)` — same inputs, same
//! bitwise [`Summary`] at any worker count, across any
//! interrupt/resume schedule — because the service's crash-recovery
//! guarantee ("a killed and restarted job reports the same result as an
//! uninterrupted one") is exactly the campaign driver's resume
//! invariant lifted to the job level. The
//! [`CampaignModel::model_fingerprint`] feeds the job's
//! [`CampaignFingerprint`], which keys both checkpoint validation *and*
//! the service's idempotent-submission dedup.
//!
//! Built-ins cover the two cost regimes a serving layer needs:
//! * `demo-fast` / `demo-slow` — synthetic closed-form models (no
//!   circuit construction); `demo-slow` holds each sample for a few
//!   milliseconds so kill/cancel windows are easy to hit in tests;
//! * `chain<k>@<elems>` — real framework paths: a `k`-cell inv/nand2
//!   chain with `elems` linear elements between stages, built lazily on
//!   first run and evaluated through [`PathModel::monte_carlo_campaign`];
//! * `gpc-chain<k>@<elems>` — the same chain under polynomial chaos.
//!
//! Binaries that link heavier circuit collections (the ISCAS bench
//! suite lives above this crate in the dependency graph) register their
//! own models with [`ModelRegistry::register`].

use crate::path::{PathModel, PathSpec, Sampling, VariationSources};
use crate::{CampaignConfig, CampaignVerdict, CoreError, RunSpec};
use linvar_devices::tech_018;
use linvar_interconnect::WireTech;
use linvar_stats::{
    fingerprint_str, fingerprint_words, normal_samples, rng_from_seed, run_campaign,
    CampaignFingerprint, RecoveryPolicy, SampleStatus, SpectralConfig, Summary,
};
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// What a completed (or truncated) model run reports back to the job
/// layer. The `summary` fields are the deterministic payload the
/// service's byte-identity guarantee covers.
#[derive(Debug, Clone)]
pub struct ModelRun {
    /// Statistics over every completed sample.
    pub summary: Summary,
    /// Samples that exhausted their attempt budget.
    pub failures: usize,
    /// Complete, or truncated-but-resumable.
    pub verdict: CampaignVerdict,
    /// Samples evaluated in this process (vs restored from a snapshot).
    pub evaluated: usize,
    /// Samples restored from the resume snapshot.
    pub resumed: usize,
}

/// A named, deterministic campaign target the service can run.
pub trait CampaignModel: Send + Sync {
    /// Stable identifier clients submit jobs against.
    fn id(&self) -> &str;

    /// Opaque hash of everything that shapes a sample's value beyond
    /// `(seed, index)` — folded into the job's [`CampaignFingerprint`].
    fn model_fingerprint(&self) -> u64;

    /// Runs (or resumes) the campaign under `config`. Must be a pure
    /// function of `(master_seed, n, policy)` up to the config's
    /// truncation knobs: deadline/budget/cancel may shorten a run, but
    /// the completed prefix and any finished run's summary are bitwise
    /// reproducible.
    fn run(
        &self,
        master_seed: u64,
        n: usize,
        threads: usize,
        policy: RecoveryPolicy,
        config: &CampaignConfig,
    ) -> Result<ModelRun, CoreError>;
}

/// Synthetic closed-form model: samples are standard normals drawn from
/// the master seed, the "delay" is a smooth nonlinear map of the
/// sample. No circuit work — construction is free and per-sample cost
/// is `hold` (zero for the fast variant), which makes these the models
/// of choice for exercising the service's scheduling, overload, and
/// kill windows without paying for simulation.
pub struct SyntheticModel {
    id: String,
    /// Artificial per-sample hold time (deterministic values regardless).
    hold: Duration,
}

impl SyntheticModel {
    /// A new synthetic model named `id` holding each sample for `hold`.
    pub fn new(id: &str, hold: Duration) -> Self {
        SyntheticModel {
            id: id.to_string(),
            hold,
        }
    }
}

impl CampaignModel for SyntheticModel {
    fn id(&self) -> &str {
        &self.id
    }

    fn model_fingerprint(&self) -> u64 {
        // The hold time is *not* folded in: it shapes wall-clock, never
        // values, and a resume after a config tweak must still be
        // accepted. Only the id (= the value map) identifies the model.
        fingerprint_words([fingerprint_str("synthetic-v1"), fingerprint_str(&self.id)])
    }

    fn run(
        &self,
        master_seed: u64,
        n: usize,
        threads: usize,
        policy: RecoveryPolicy,
        config: &CampaignConfig,
    ) -> Result<ModelRun, CoreError> {
        let mut rng = rng_from_seed(master_seed);
        let samples = normal_samples(&mut rng, n);
        let fingerprint = CampaignFingerprint {
            master_seed,
            n_samples: n,
            policy,
            model: self.model_fingerprint(),
        };
        let hold = self.hold;
        let res = run_campaign(
            &samples,
            threads,
            policy,
            config,
            fingerprint,
            move |&x: &f64, _attempt| -> Result<(f64, SampleStatus), String> {
                if !hold.is_zero() {
                    std::thread::sleep(hold);
                }
                // A smooth, strictly deterministic "delay": positive,
                // sample-dependent, no library calls with platform-
                // dependent rounding beyond IEEE basics.
                let v = 1.0 + 0.25 * x + 0.0625 * x * x;
                Ok((v, SampleStatus::Clean))
            },
        )?;
        Ok(ModelRun {
            summary: res.summary,
            failures: res.failures,
            verdict: res.verdict,
            evaluated: res.evaluated,
            resumed: res.resumed,
        })
    }
}

/// A real framework path: `cells.len()` stages with `elems` linear
/// elements between them, evaluated through the Table-1 flow. The
/// [`PathModel`] is built lazily on first run (construction costs real
/// time) and shared across runs of the same registry entry.
pub struct ChainModel {
    id: String,
    spec: PathSpec,
    sources: VariationSources,
    built: OnceLock<Result<PathModel, CoreError>>,
}

impl ChainModel {
    /// A chain of `k` alternating inv/nand2 cells with `elems` linear
    /// elements between stages, using the Table-4 variation sources.
    pub fn new(k: usize, elems: usize) -> Self {
        let cells = (0..k.max(1))
            .map(|i| {
                if i % 2 == 0 {
                    "inv".to_string()
                } else {
                    "nand2".to_string()
                }
            })
            .collect();
        ChainModel {
            id: format!("chain{}@{elems}", k.max(1)),
            spec: PathSpec {
                cells,
                linear_elements_between_stages: elems,
                input_slew: 60e-12,
            },
            sources: VariationSources::example3_table4(),
            built: OnceLock::new(),
        }
    }

    fn model(&self) -> Result<&PathModel, CoreError> {
        self.built
            .get_or_init(|| PathModel::build(&self.spec, &tech_018(), &WireTech::m018()))
            .as_ref()
            .map_err(Clone::clone)
    }
}

impl CampaignModel for ChainModel {
    fn id(&self) -> &str {
        &self.id
    }

    fn model_fingerprint(&self) -> u64 {
        // Spec-derived, not build-derived: the fingerprint must be
        // available (and stable) before the expensive construction runs,
        // because the service dedups submissions by it. The PathModel's
        // own campaign fingerprint also covers engine configuration, but
        // for registry-built chains that is a pure function of the spec.
        let mut words = vec![
            fingerprint_str("chain-v1"),
            self.spec.cells.len() as u64,
            self.spec.linear_elements_between_stages as u64,
            self.spec.input_slew.to_bits(),
        ];
        words.extend(self.spec.cells.iter().map(|c| fingerprint_str(c)));
        fingerprint_words(words)
    }

    fn run(
        &self,
        master_seed: u64,
        n: usize,
        threads: usize,
        policy: RecoveryPolicy,
        config: &CampaignConfig,
    ) -> Result<ModelRun, CoreError> {
        let model = self.model()?;
        let mc =
            model.monte_carlo_campaign(&self.sources, n, master_seed, threads, policy, config)?;
        Ok(ModelRun {
            summary: mc.summary,
            failures: mc.failures,
            verdict: mc.verdict,
            evaluated: mc.evaluated,
            resumed: mc.resumed,
        })
    }
}

/// A chain path served by the stochastic-spectral engine: the same
/// lazily built [`PathModel`] as [`ChainModel`], run with
/// [`Sampling::Spectral`] instead of Monte Carlo.
///
/// The job's requested sample count is **ignored for node selection**
/// — the spectral plan fixes the solve count — mirroring how
/// [`SyntheticModel`] excludes its hold time from identity: `n` shapes
/// neither the node set nor the values, so it is not folded into the
/// fingerprint either. A finished run reports the deterministic
/// surrogate summary; a truncated run reports the partial node-delay
/// summary and a resumable verdict.
pub struct SpectralChainModel {
    id: String,
    chain: ChainModel,
    config: SpectralConfig,
}

impl SpectralChainModel {
    /// A spectral engine over the same path as
    /// [`ChainModel::new`]`(k, elems)`, under `config`.
    pub fn new(k: usize, elems: usize, config: SpectralConfig) -> Self {
        SpectralChainModel {
            id: format!("gpc-chain{}@{elems}", k.max(1)),
            chain: ChainModel::new(k, elems),
            config,
        }
    }
}

impl CampaignModel for SpectralChainModel {
    fn id(&self) -> &str {
        &self.id
    }

    fn model_fingerprint(&self) -> u64 {
        fingerprint_words([
            fingerprint_str("gpc-chain-v1"),
            self.chain.model_fingerprint(),
            self.config.order as u64,
            self.config.level as u64,
            fingerprint_str(self.config.grid.name()),
        ])
    }

    fn run(
        &self,
        master_seed: u64,
        _n: usize,
        threads: usize,
        policy: RecoveryPolicy,
        config: &CampaignConfig,
    ) -> Result<ModelRun, CoreError> {
        let model = self.chain.model()?;
        let spec = RunSpec::durable(threads, policy, config);
        let pc = model.run_fingerprinted(
            &self.chain.sources,
            Sampling::Spectral(self.config),
            master_seed,
            &spec,
            policy,
        )?;
        let summary = match &pc.spectral {
            Some(r) => r.surrogate_summary,
            None => pc.summary,
        };
        Ok(ModelRun {
            summary,
            failures: 0,
            verdict: pc.verdict,
            evaluated: pc.evaluated,
            resumed: pc.resumed,
        })
    }
}

/// Maps model ids to models. Deterministic iteration order (sorted by
/// id) so listings are stable.
#[derive(Default)]
pub struct ModelRegistry {
    models: BTreeMap<String, Arc<dyn CampaignModel>>,
}

impl ModelRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The registry every serve binary starts from: the synthetic pair
    /// plus a small and a medium real chain.
    pub fn with_builtins() -> Self {
        let mut r = Self::new();
        r.register(Arc::new(SyntheticModel::new("demo-fast", Duration::ZERO)));
        r.register(Arc::new(SyntheticModel::new(
            "demo-slow",
            Duration::from_millis(25),
        )));
        r.register(Arc::new(ChainModel::new(3, 10)));
        r.register(Arc::new(ChainModel::new(5, 10)));
        r.register(Arc::new(SpectralChainModel::new(
            3,
            10,
            SpectralConfig::stochastic_testing(2),
        )));
        r
    }

    /// Adds (or replaces) a model under its own id.
    pub fn register(&mut self, model: Arc<dyn CampaignModel>) {
        self.models.insert(model.id().to_string(), model);
    }

    /// Looks a model up by id.
    pub fn get(&self, id: &str) -> Option<Arc<dyn CampaignModel>> {
        self.models.get(id).cloned()
    }

    /// Registered ids, sorted.
    pub fn ids(&self) -> Vec<String> {
        self.models.keys().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_registry_resolves_and_lists_sorted() {
        let r = ModelRegistry::with_builtins();
        let ids = r.ids();
        assert!(ids.contains(&"demo-fast".to_string()));
        assert!(ids.contains(&"chain3@10".to_string()));
        assert!(ids.contains(&"gpc-chain3@10".to_string()));
        let mut sorted = ids.clone();
        sorted.sort();
        assert_eq!(ids, sorted);
        assert!(r.get("demo-slow").is_some());
        assert!(r.get("no-such-model").is_none());
    }

    #[test]
    fn synthetic_model_is_deterministic_across_threads_and_resume() {
        let m = SyntheticModel::new("demo-fast", Duration::ZERO);
        let policy = RecoveryPolicy::default();
        let clean = m.run(7, 40, 1, policy, &CampaignConfig::default()).unwrap();
        assert_eq!(clean.summary.n, 40);
        assert_eq!(clean.failures, 0);
        let par = m.run(7, 40, 4, policy, &CampaignConfig::default()).unwrap();
        assert_eq!(clean.summary.mean.to_bits(), par.summary.mean.to_bits());
        assert_eq!(clean.summary.std.to_bits(), par.summary.std.to_bits());

        // Interrupt at 13 samples, then resume: bitwise-identical.
        let path =
            std::env::temp_dir().join(format!("linvar-registry-unit-{}.ckpt", std::process::id()));
        let cut = m
            .run(
                7,
                40,
                2,
                policy,
                &CampaignConfig {
                    checkpoint: Some(path.clone()),
                    sample_budget: Some(13),
                    ..CampaignConfig::default()
                },
            )
            .unwrap();
        assert!(matches!(cut.verdict, CampaignVerdict::Truncated { .. }));
        let resumed = m
            .run(
                7,
                40,
                2,
                policy,
                &CampaignConfig {
                    resume: Some(path.clone()),
                    ..CampaignConfig::default()
                },
            )
            .unwrap();
        assert_eq!(resumed.verdict, CampaignVerdict::Complete);
        assert_eq!(resumed.resumed, 13);
        assert_eq!(clean.summary.mean.to_bits(), resumed.summary.mean.to_bits());
        assert_eq!(clean.summary.std.to_bits(), resumed.summary.std.to_bits());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fingerprints_separate_models_but_not_hold_time() {
        let fast = SyntheticModel::new("demo-fast", Duration::ZERO);
        let slow = SyntheticModel::new("demo-slow", Duration::from_millis(25));
        assert_ne!(fast.model_fingerprint(), slow.model_fingerprint());
        // Same id, different hold: identical values → identical identity.
        let fast_held = SyntheticModel::new("demo-fast", Duration::from_millis(5));
        assert_eq!(fast.model_fingerprint(), fast_held.model_fingerprint());
        assert_ne!(
            ChainModel::new(3, 10).model_fingerprint(),
            ChainModel::new(3, 500).model_fingerprint()
        );
        // Spectral identity separates from MC identity and tracks the
        // plan configuration.
        let st2 = SpectralChainModel::new(3, 10, SpectralConfig::stochastic_testing(2));
        assert_ne!(
            st2.model_fingerprint(),
            ChainModel::new(3, 10).model_fingerprint()
        );
        assert_ne!(
            st2.model_fingerprint(),
            SpectralChainModel::new(3, 10, SpectralConfig::stochastic_testing(1))
                .model_fingerprint()
        );
        assert_eq!(
            ChainModel::new(3, 10).model_fingerprint(),
            ChainModel::new(3, 10).model_fingerprint()
        );
    }
}
