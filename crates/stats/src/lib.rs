//! Statistical methods of the framework (paper §4.1).
//!
//! * [`sampling`] — seeded sampling: independent normal/uniform sources and
//!   **Latin Hypercube Sampling** (the paper's Example 2 uses 100 LHS
//!   samples);
//! * [`pca`] — Principal Component Analysis of parameter covariance: the
//!   dimensionality reduction the paper recommends before sampling
//!   (§4.1.1), including a synthetic correlated-device-parameter demo that
//!   reproduces the "60 BSIM3 parameters → ~10 factors" observation of the
//!   paper's reference \[11\];
//! * [`executor`] — the one sample executor: [`execute`] evaluates a
//!   pure function at an indexed sample set under a [`RunSpec`] (workers,
//!   recovery policy, campaign knobs, shards) and merges the outcomes in
//!   index order, bitwise-identically at any worker or shard count (see
//!   DESIGN.md, "The sample executor & determinism contract");
//! * [`montecarlo`] — the executor's vocabulary (statuses, health,
//!   [`RecoveryPolicy`], the merged [`MonteCarloResult`]) and the plain
//!   parallel front door [`monte_carlo_par`];
//! * [`campaign`] — durable-campaign knobs and the checkpoint format:
//!   atomic checksummed snapshots, fingerprint-validated resume, deadline
//!   budgets and a cooperative per-sample watchdog (see DESIGN.md,
//!   "Durable campaigns: checkpoint format & resume invariants");
//! * [`shard`] — the sharded campaign supervisor: fingerprinted per-shard
//!   checkpoints, heartbeats with a straggler-re-dispatching watchdog, a
//!   retry ladder with capped exponential backoff, and a first-writer-wins
//!   merge that is bitwise-identical to a single-process run (see
//!   DESIGN.md, "Sharding protocol & merge invariants");
//! * [`envknob`] — hardened environment-knob parsing (trim, validate,
//!   warn-and-fall-back on anything malformed) shared by
//!   [`montecarlo::resolve_threads`] and the campaign service's knobs;
//! * [`spectral`] — the stochastic-spectral engine family: Hermite-basis
//!   generalized polynomial chaos with tensor/Smolyak collocation and
//!   stochastic-testing node selection, its nodes run by the same
//!   executor as Monte Carlo (see
//!   DESIGN.md, "Stochastic spectral engines: basis, node selection &
//!   determinism contract");
//! * [`gradient`] — Gradient Analysis (§4.1.3, eq. 24): σ of a performance
//!   from first-order sensitivities of uncorrelated sources;
//! * [`histogram`] — fixed-bin histograms with a text renderer for the
//!   paper's Figures 6 and 7.

pub mod campaign;
pub mod envknob;
pub mod executor;
pub mod gradient;
pub mod histogram;
pub mod montecarlo;
pub mod pca;
pub mod sampling;
pub mod shard;
pub mod spectral;
pub mod summary;
pub mod timing_yield;

pub use campaign::{
    fingerprint_str, fingerprint_words, fnv1a64, load_checkpoint, reap_orphan_tmp, reap_tmp_in_dir,
    run_campaign, save_checkpoint, AnalysisKind, CampaignConfig, CampaignFingerprint,
    CampaignVerdict, Checkpoint, CheckpointError, SampleRecord,
};
pub use envknob::{env_knob_str, env_knob_usize, EnvKnob};
pub use executor::{execute, RunError, RunSpec};
pub use gradient::central_difference_sensitivities;
pub use gradient::gradient_std;
pub use histogram::{Histogram, HistogramError};
pub use montecarlo::{
    monte_carlo_par, resolve_threads, HealthSummary, MonteCarloResult, RecoveryPolicy,
    SampleHealth, SampleStatus,
};
pub use pca::demo_correlated_device_parameters;
pub use pca::{Pca, PcaModel};
pub use sampling::{
    latin_hypercube, latin_hypercube_streamed, lhs_normal, lhs_normal_streamed, lhs_uniform,
    normal_samples, rng_from_seed, sobol_normal_streamed, sobol_point, uniform_samples, SampleRng,
    SampleSource, SeedStream, SOBOL_MAX_DIMS,
};
pub use shard::{
    shard_checkpoint_path, shard_fingerprint, ShardConfig, ShardFault, ShardOutcome, ShardPlan,
    ShardVerdict,
};
pub use spectral::{
    basis_eval, gauss_hermite, hermite_prob, multi_indices, run_spectral, GridKind, SpectralConfig,
    SpectralError, SpectralPlan, SpectralResult, SpectralRun, SpectralRunError, QUANTILE_PROBS,
    SURROGATE_SAMPLES,
};
pub use summary::Summary;
pub use timing_yield::{empirical_yield, normal_cdf, normal_yield, period_for_yield};
