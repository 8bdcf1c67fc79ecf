//! Error type of the framework layer.

use linvar_circuit::CircuitError;
use linvar_numeric::NumericError;
use linvar_spice::SpiceError;
use linvar_stats::{CheckpointError, RunError, SpectralError, SpectralRunError};
use linvar_teta::TetaError;
use std::fmt;

/// Error produced by the framework flows.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// A path or stage specification is invalid.
    BadSpec(String),
    /// A TETA evaluation failed.
    Teta(TetaError),
    /// A SPICE reference run failed.
    Spice(SpiceError),
    /// Netlist construction failed.
    Circuit(CircuitError),
    /// Linear algebra failed.
    Numeric(NumericError),
    /// A campaign checkpoint could not be written, read, or validated.
    Checkpoint(CheckpointError),
    /// A run could not be planned (sample-count or shard-plan problem).
    Run(RunError),
    /// A stochastic-spectral plan or coefficient solve failed.
    Spectral(SpectralError),
    /// A stage output never completed its transition within the retry
    /// budget (the stage is unable to drive its load).
    StageStuck {
        /// Index of the stage along the path.
        stage: usize,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::BadSpec(msg) => write!(f, "bad specification: {msg}"),
            CoreError::Teta(e) => write!(f, "teta: {e}"),
            CoreError::Spice(e) => write!(f, "spice: {e}"),
            CoreError::Circuit(e) => write!(f, "circuit: {e}"),
            CoreError::Numeric(e) => write!(f, "numeric: {e}"),
            CoreError::Checkpoint(e) => write!(f, "campaign: {e}"),
            CoreError::Run(e) => write!(f, "run: {e}"),
            CoreError::Spectral(e) => write!(f, "spectral: {e}"),
            CoreError::StageStuck { stage } => {
                write!(f, "stage {stage} output never completed its transition")
            }
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Teta(e) => Some(e),
            CoreError::Spice(e) => Some(e),
            CoreError::Circuit(e) => Some(e),
            CoreError::Numeric(e) => Some(e),
            CoreError::Checkpoint(e) => Some(e),
            CoreError::Run(e) => Some(e),
            CoreError::Spectral(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TetaError> for CoreError {
    fn from(e: TetaError) -> Self {
        CoreError::Teta(e)
    }
}

impl From<SpiceError> for CoreError {
    fn from(e: SpiceError) -> Self {
        CoreError::Spice(e)
    }
}

impl From<CircuitError> for CoreError {
    fn from(e: CircuitError) -> Self {
        CoreError::Circuit(e)
    }
}

impl From<NumericError> for CoreError {
    fn from(e: NumericError) -> Self {
        CoreError::Numeric(e)
    }
}

impl From<CheckpointError> for CoreError {
    fn from(e: CheckpointError) -> Self {
        CoreError::Checkpoint(e)
    }
}

impl From<SpectralError> for CoreError {
    fn from(e: SpectralError) -> Self {
        CoreError::Spectral(e)
    }
}

impl From<RunError> for CoreError {
    fn from(e: RunError) -> Self {
        // A run-level checkpoint failure IS a checkpoint failure;
        // keeping the variant lets callers (and the bench error-to-exit
        // mapping) treat both layers uniformly.
        match e {
            RunError::Checkpoint(ck) => CoreError::Checkpoint(ck),
            other => CoreError::Run(other),
        }
    }
}

impl From<SpectralRunError> for CoreError {
    fn from(e: SpectralRunError) -> Self {
        match e {
            SpectralRunError::Checkpoint(ck) => CoreError::Checkpoint(ck),
            SpectralRunError::Spectral(sp) => CoreError::Spectral(sp),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: CoreError = NumericError::SingularMatrix {
            pivot: 1,
            condition: None,
        }
        .into();
        assert!(e.to_string().contains("numeric"));
        let e = CoreError::StageStuck { stage: 3 };
        assert!(e.to_string().contains('3'));
    }

    #[test]
    fn send_sync() {
        fn check<T: Send + Sync>() {}
        check::<CoreError>();
    }
}
