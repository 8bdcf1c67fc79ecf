//! The failure-recovery and degradation layer of the framework.
//!
//! First-order variational macromodels are "inherently non-passive,
//! possibly unstable" (paper §3.3), and the framework's answer — the
//! stability filter — can itself leave a sample without a usable model at
//! a large parameter excursion. Rather than losing the sample (or the
//! run), the framework degrades through a ladder of engines, each slower
//! and more robust than the last:
//!
//! 1. **variational ROM** — the paper's fast path (eq. 11);
//! 2. **refined SC** — same model, refined timestep and damped
//!    successive-chords iteration;
//! 3. **exact reduction** — fresh PRIMA reduction at the sample;
//! 4. **degraded order** — the MOR order ladder `q → q-1 → … → 1`;
//! 5. **unreduced MNA** — pole/residue extraction of the full pencil;
//! 6. **baseline SPICE** — the conventional Newton/trapezoidal engine.
//!
//! Every assisted sample is annotated with a [`DegradationReport`] naming
//! the rung that served it, and the run-level
//! [`crate::McPathResult`] aggregates per-sample health under the
//! [`linvar_stats::RecoveryPolicy`] attempt budget. See DESIGN.md,
//! "Failure semantics & degradation ladder".

use linvar_stats::SampleStatus;
use linvar_teta::StageRecovery;
use std::fmt;

/// Which rung of the engine ladder served a sample (or a stage).
///
/// Ordered by *severity* — how far from the fast path the framework had
/// to walk — not by model fidelity: the unreduced MNA is the most
/// faithful model of all, but serving it means the linear-centric speedup
/// is gone for that sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineRung {
    /// First-order variational ROM, plain SC iteration: the fast path.
    VariationalRom,
    /// The variational ROM with a refined timestep and damped SC
    /// iteration (chord re-selection analog).
    RefinedSc,
    /// An exact per-sample reduction replaced the variational ROM.
    ExactReduction,
    /// The MOR order-degradation ladder served a lower order (payload:
    /// the order that served).
    DegradedOrder(usize),
    /// The unreduced MNA load — no model order reduction at all.
    UnreducedMna,
    /// The baseline SPICE engine.
    SpiceBaseline,
}

impl EngineRung {
    fn severity(self) -> u8 {
        match self {
            EngineRung::VariationalRom => 0,
            EngineRung::RefinedSc => 1,
            EngineRung::ExactReduction => 2,
            EngineRung::DegradedOrder(_) => 3,
            EngineRung::UnreducedMna => 4,
            EngineRung::SpiceBaseline => 5,
        }
    }

    /// The more severe of two rungs.
    pub fn worst(self, other: EngineRung) -> EngineRung {
        if other.severity() > self.severity() {
            other
        } else {
            self
        }
    }

    /// Health classification of a sample served by this rung.
    ///
    /// Retry rungs at full reduced order are `Recovered`; anything that
    /// abandons the characterized variational model (lower order, no
    /// reduction, baseline SPICE) is `Degraded`.
    pub fn status(self) -> SampleStatus {
        match self {
            EngineRung::VariationalRom => SampleStatus::Clean,
            EngineRung::RefinedSc | EngineRung::ExactReduction => SampleStatus::Recovered,
            EngineRung::DegradedOrder(_) | EngineRung::UnreducedMna | EngineRung::SpiceBaseline => {
                SampleStatus::Degraded
            }
        }
    }

    /// Classifies what a stage-level recovery trail amounts to.
    pub(crate) fn from_stage(rec: &StageRecovery) -> EngineRung {
        if rec.unreduced_fallback {
            EngineRung::UnreducedMna
        } else if rec.served_order < rec.original_order {
            EngineRung::DegradedOrder(rec.served_order)
        } else if rec.exact_reduction {
            EngineRung::ExactReduction
        } else if rec.sc_retries > 0 {
            EngineRung::RefinedSc
        } else {
            EngineRung::VariationalRom
        }
    }
}

impl fmt::Display for EngineRung {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineRung::VariationalRom => write!(f, "variational ROM"),
            EngineRung::RefinedSc => write!(f, "refined/damped SC"),
            EngineRung::ExactReduction => write!(f, "exact reduction"),
            EngineRung::DegradedOrder(q) => write!(f, "degraded order (q={q})"),
            EngineRung::UnreducedMna => write!(f, "unreduced MNA"),
            EngineRung::SpiceBaseline => write!(f, "baseline SPICE"),
        }
    }
}

/// What the recovery ladder did to serve one Monte-Carlo sample.
#[derive(Debug, Clone, PartialEq)]
pub struct DegradationReport {
    /// Index of the sample in the run.
    pub sample_index: usize,
    /// The most severe rung used across the path's stages.
    pub rung: EngineRung,
    /// Total failed SC attempts across all stages before success.
    pub sc_retries: usize,
    /// One human-readable note per stage that needed assistance.
    pub notes: Vec<String>,
}

impl DegradationReport {
    pub(crate) fn clean() -> DegradationReport {
        DegradationReport {
            sample_index: 0,
            rung: EngineRung::VariationalRom,
            sc_retries: 0,
            notes: Vec::new(),
        }
    }

    /// Health classification of the sample this report describes.
    pub fn status(&self) -> SampleStatus {
        let base = self.rung.status();
        if base == SampleStatus::Clean && self.sc_retries > 0 {
            SampleStatus::Recovered
        } else {
            base
        }
    }

    /// `true` when the fast path served the sample unassisted.
    pub fn is_clean(&self) -> bool {
        self.status() == SampleStatus::Clean
    }
}

impl fmt::Display for DegradationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "sample {}: served by {} after {} SC retr{}",
            self.sample_index,
            self.rung,
            self.sc_retries,
            if self.sc_retries == 1 { "y" } else { "ies" }
        )?;
        for note in &self.notes {
            write!(f, "; {note}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rung_severity_ordering() {
        let r = EngineRung::VariationalRom;
        assert_eq!(r.worst(EngineRung::RefinedSc), EngineRung::RefinedSc);
        assert_eq!(
            EngineRung::SpiceBaseline.worst(EngineRung::UnreducedMna),
            EngineRung::SpiceBaseline
        );
        assert_eq!(
            EngineRung::DegradedOrder(2).worst(EngineRung::ExactReduction),
            EngineRung::DegradedOrder(2)
        );
    }

    #[test]
    fn rung_status_classification() {
        assert_eq!(EngineRung::VariationalRom.status(), SampleStatus::Clean);
        assert_eq!(EngineRung::RefinedSc.status(), SampleStatus::Recovered);
        assert_eq!(EngineRung::ExactReduction.status(), SampleStatus::Recovered);
        assert_eq!(
            EngineRung::DegradedOrder(3).status(),
            SampleStatus::Degraded
        );
        assert_eq!(EngineRung::UnreducedMna.status(), SampleStatus::Degraded);
        assert_eq!(EngineRung::SpiceBaseline.status(), SampleStatus::Degraded);
    }

    #[test]
    fn stage_recovery_classification() {
        let clean = StageRecovery {
            original_order: 6,
            served_order: 6,
            ..StageRecovery::default()
        };
        assert_eq!(EngineRung::from_stage(&clean), EngineRung::VariationalRom);
        let damped = StageRecovery {
            sc_retries: 2,
            original_order: 6,
            served_order: 6,
            ..StageRecovery::default()
        };
        assert_eq!(EngineRung::from_stage(&damped), EngineRung::RefinedSc);
        let lowered = StageRecovery {
            original_order: 6,
            served_order: 4,
            ..StageRecovery::default()
        };
        assert_eq!(
            EngineRung::from_stage(&lowered),
            EngineRung::DegradedOrder(4)
        );
        let unreduced = StageRecovery {
            unreduced_fallback: true,
            original_order: 6,
            served_order: 42,
            ..StageRecovery::default()
        };
        assert_eq!(EngineRung::from_stage(&unreduced), EngineRung::UnreducedMna);
    }

    #[test]
    fn report_display_names_the_rung() {
        let mut report = DegradationReport::clean();
        report.sample_index = 12;
        report.rung = EngineRung::DegradedOrder(3);
        report.sc_retries = 1;
        report.notes.push("stage 0 (inv): order 6→3".to_string());
        let text = report.to_string();
        assert!(text.contains("sample 12"), "{text}");
        assert!(text.contains("degraded order (q=3)"), "{text}");
        assert!(text.contains("1 SC retry"), "{text}");
        assert!(text.contains("stage 0"), "{text}");
        assert_eq!(report.status(), SampleStatus::Degraded);
        assert!(!report.is_clean());
    }

    #[test]
    fn clean_report_classification() {
        let report = DegradationReport::clean();
        assert!(report.is_clean());
        assert_eq!(report.status(), SampleStatus::Clean);
        let mut retried = DegradationReport::clean();
        retried.sc_retries = 1;
        assert_eq!(retried.status(), SampleStatus::Recovered);
    }
}
