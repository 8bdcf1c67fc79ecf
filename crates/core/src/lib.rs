//! `linvar-core`: the linear-centric simulation framework for parametric
//! fluctuations — the paper's primary contribution, assembled from the
//! substrate crates.
//!
//! The framework follows the Table-1 flow of the paper:
//!
//! **Construction** (once per design):
//! 1. compute the Successive-Chords output conductances of the drivers;
//! 2. fold them into the multiport interconnect to form the effective load
//!    (eq. 12);
//! 3. precharacterize the variational reduced-order model library.
//!
//! **Evaluation** (per parameter sample):
//! 1. evaluate the first-order variational ROM (eq. 11);
//! 2. transform to pole/residue form (eqs. 13–20);
//! 3. filter unstable poles and apply the β DC correction (eqs. 21–23);
//! 4. simulate with the TETA engine (recursive convolution + SC).
//!
//! On top of the per-stage flow, [`path`] provides the two §4.3
//! path-delay statistics methods: stage-by-stage **Monte-Carlo** with full
//! waveform propagation, and **Gradient Analysis** propagating the
//! saturated-ramp parameters `(M, S)` and their derivatives (eqs. 29–32).
//! [`spice_ref`] runs the same stages through the `linvar-spice` baseline
//! for the paper's accuracy and runtime comparisons.
//!
//! # Example
//!
//! ```no_run
//! use linvar_core::path::{PathModel, PathSpec, Sampling, VariationSources};
//! use linvar_core::RunSpec;
//! use linvar_devices::tech_018;
//! use linvar_interconnect::WireTech;
//!
//! # fn main() -> Result<(), linvar_core::CoreError> {
//! let spec = PathSpec {
//!     cells: vec!["inv".into(), "nand2".into(), "nor2".into()],
//!     linear_elements_between_stages: 10,
//!     input_slew: 50e-12,
//! };
//! let model = PathModel::build(&spec, &tech_018(), &WireTech::m018())?;
//! let sources = VariationSources::example3(0.33, 0.33);
//! let mc = model.run(&sources, Sampling::Lhs(20), 1, &RunSpec::plain(0))?;
//! let ga = model.gradient_analysis(&sources)?;
//! println!("MC {} ± {}", mc.summary.mean, mc.summary.std);
//! println!("GA {} ± {}", ga.nominal_delay, ga.std);
//! # Ok(())
//! # }
//! ```

pub mod error;
pub mod path;
pub mod recovery;
pub mod registry;
pub mod spice_ref;
pub mod stage_builder;
pub mod worst_case;

pub use error::CoreError;
pub use path::{GaPathResult, McPathResult, PathModel, PathSpec, Sampling, VariationSources};
pub use recovery::{DegradationReport, EngineRung};
pub use registry::{
    CampaignModel, ChainModel, ModelRegistry, ModelRun, SpectralChainModel, SyntheticModel,
};
pub use stage_builder::{StageLoad, StageLoadSpec};
pub use worst_case::WorstCaseResult;

// Run-spec, policy and campaign types of the statistics layer,
// re-exported so callers of `PathModel::run` need only this crate.
pub use linvar_stats::{
    shard_checkpoint_path, CampaignConfig, CampaignFingerprint, CampaignVerdict, CheckpointError,
    HealthSummary, RecoveryPolicy, RunError, RunSpec, SampleHealth, SampleStatus, ShardConfig,
    ShardFault, ShardOutcome, ShardPlan, ShardVerdict, SpectralResult,
};
