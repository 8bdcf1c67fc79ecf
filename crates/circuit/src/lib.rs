//! Circuit representation and MNA assembly for the `linvar` workspace.
//!
//! This crate owns the netlist data model shared by every analysis engine:
//!
//! * [`Netlist`] — nodes, linear elements (resistors, grounded and coupling
//!   capacitors), independent sources, and MOSFET instances (whose device
//!   *models* live in `linvar-devices`);
//! * [`VariationalValue`] — element values expressed as
//!   `x(w) = x0 · (1 + Σ si·wi)` in a set of named global parameters, the
//!   representation behind the paper's variational matrices
//!   `G(w) = G0 + Σ dGi·wi` (eqs. 3–4);
//! * [`MnaStamps`] — the MNA stamps at one parameter sample, the one
//!   stamping routine behind both the dense and the sparse assembly;
//! * [`MnaSystem`] / [`VariationalMna`] — assembled modified-nodal-analysis
//!   matrices, nominal and variational; [`VariationalStamps`], the
//!   variational stamps behind both [`VariationalMna`] and its sparse
//!   form [`SparseVariationalMna`];
//! * a small SPICE-like deck parser for RC decks ([`parse_deck`]).
//!
//! # Example
//!
//! ```
//! use linvar_circuit::Netlist;
//!
//! # fn main() -> Result<(), linvar_circuit::CircuitError> {
//! let mut nl = Netlist::new();
//! let a = nl.node("a");
//! let b = nl.node("b");
//! nl.add_resistor("R1", a, b, 100.0)?;
//! nl.add_capacitor("C1", b, Netlist::GROUND, 1e-12)?;
//! let mna = nl.assemble_mna()?;
//! assert_eq!(mna.g.rows(), 2);
//! # Ok(())
//! # }
//! ```

// User-reachable library paths must surface typed errors, never panic.
// Tests are exempt: unwrap/expect on known-good fixtures is idiomatic there.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod element;
pub mod error;
pub mod mna;
pub mod netlist;
pub mod parse;
pub mod variation;

pub use element::{Element, MosInstance, MosType, SourceWaveform};
pub use error::CircuitError;
pub use mna::{
    port_incidence, MnaStamps, MnaSystem, SparseVariationalMna, VariationalMna, VariationalStamps,
};
pub use netlist::{Netlist, NodeId};
pub use parse::parse_deck;
pub use variation::{ParamSet, VariationalValue};
