//! TETA: the linear-centric transistor-level waveform evaluation engine.
//!
//! Reimplementation of the engine the framework embeds (paper §3.2,
//! refs \[6\]\[7\]\[9\]): nonlinear drivers are linearized once with *Successive
//! Chords* (fixed chord conductances, computed at nominal parameters and
//! folded into the linear load before reduction — paper eq. 12), and the
//! multiport load, given as a stabilized pole/residue macromodel, is
//! evaluated by **recursive convolution**. Each time point solves a small
//! fixed-point iteration between the chord Norton sources and the
//! instantaneous impedance; no matrix factorizations of the full network
//! ever occur during simulation, which is where the orders-of-magnitude
//! speedup over the SPICE baseline comes from.
//!
//! Because the chord conductances do not depend on the fluctuating wire and
//! device parameters, one macromodel characterization serves an entire
//! Monte-Carlo run — the framework's key efficiency property.
//!
//! * [`waveform`] — piecewise-linear waveforms with adaptive breakpoints
//!   and the saturated-ramp (M, S) abstraction of paper §4.2;
//! * [`conv`] — recursive convolution of a pole/residue multiport;
//! * [`engine`] — the successive-chords stage solver;
//! * [`stage`] — logic-stage assembly: equivalent driver + effective load.

// Dense matrix kernels index rows/columns explicitly; iterator
// adaptors would obscure the classic algorithm shapes.
#![allow(clippy::needless_range_loop)]
// The per-sample hot path (stage evaluation, SC iteration, recursive
// convolution) must not clone what a borrow or a workspace buffer can serve.
#![deny(clippy::redundant_clone)]

pub mod conv;
pub mod engine;
pub mod error;
pub mod stage;
pub mod waveform;

pub use conv::RecursiveConvolution;
pub use engine::{Reading, StageSolver, StageSolverOptions, StageStats, StopRule, MAX_STEPS};
pub use error::TetaError;
pub use stage::{StageModel, StageRecovery, StageResult};
pub use waveform::{SaturatedRamp, Waveform};
