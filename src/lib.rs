//! `linvar` — a linear-centric simulation framework for parametric
//! fluctuations.
//!
//! Reproduction of Acar, Pileggi, Nassif, *"A Linear-Centric Simulation
//! Framework for Parametric Fluctuations"*, DATE 2002. This umbrella crate
//! re-exports the workspace members; see `README.md` for the architecture
//! and `DESIGN.md` for the experiment index.
//!
//! # Quickstart
//!
//! ```no_run
//! use linvar::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A 3-stage critical path with 10 linear elements between stages.
//! let spec = PathSpec {
//!     cells: vec!["inv".into(), "nand2".into(), "nor2".into()],
//!     linear_elements_between_stages: 10,
//!     input_slew: 50e-12,
//! };
//! let model = PathModel::build(&spec, &tech_018(), &WireTech::m018())?;
//!
//! // Monte-Carlo path-delay distribution under DL/VT fluctuations:
//! // 100 LHS samples of master seed 2002 on all available cores.
//! let sources = VariationSources::example3(0.33, 0.33);
//! let mc = model.run(&sources, Sampling::Lhs(100), 2002, &RunSpec::plain(0))?;
//! println!("delay = {:.1} ± {:.1} ps",
//!          mc.summary.mean * 1e12, mc.summary.std * 1e12);
//!
//! // Gradient Analysis of the same path.
//! let ga = model.gradient_analysis(&sources)?;
//! println!("GA     = {:.1} ± {:.1} ps",
//!          ga.nominal_delay * 1e12, ga.std * 1e12);
//! # Ok(())
//! # }
//! ```

pub use linvar_circuit as circuit;
pub use linvar_core as core;
pub use linvar_devices as devices;
pub use linvar_interconnect as interconnect;
pub use linvar_iscas as iscas;
pub use linvar_metrics as metrics;
pub use linvar_mor as mor;
pub use linvar_numeric as numeric;
pub use linvar_serve as serve;
pub use linvar_spice as spice;
pub use linvar_stats as stats;
pub use linvar_teta as teta;

/// Convenient re-exports for application code.
pub mod prelude {
    pub use linvar_circuit::{Netlist, SourceWaveform, VariationalValue};
    pub use linvar_core::path::{
        GaPathResult, McPathResult, PathModel, PathSample, PathSpec, Sampling, VariationSources,
    };
    pub use linvar_core::{CoreError, DegradationReport, EngineRung};
    pub use linvar_devices::{tech_018, tech_06, CellLibrary, DeviceVariation, Technology};
    pub use linvar_interconnect::{CoupledLineSpec, WireParam, WireTech};
    pub use linvar_mor::{
        extract_pole_residue, pact_reduce, prima_reduce, stabilize, MorDegradation,
        ReductionMethod, VariationalRom,
    };
    pub use linvar_spice::{DcStrategy, RecoveryLog, Transient, TransientOptions};
    pub use linvar_stats::{
        rng_from_seed, CampaignConfig, GridKind, HealthSummary, Histogram, RecoveryPolicy, RunSpec,
        SampleHealth, SampleSource, SampleStatus, ShardConfig, SpectralConfig, SpectralPlan,
        SpectralResult, Summary,
    };
    pub use linvar_teta::{StageModel, StageRecovery, StageSolver, Waveform};
}

#[cfg(test)]
mod tests {
    #[test]
    fn all_subsystems_are_reachable() {
        // Touch one symbol per re-exported crate.
        let _ = crate::numeric::Matrix::identity(1);
        let _ = crate::circuit::Netlist::new();
        let _ = crate::devices::tech_018();
        let _ = crate::interconnect::WireTech::m018();
        let _ = crate::stats::Summary::of(&[1.0]);
        let _ = crate::iscas::benchmark_names();
    }
}
