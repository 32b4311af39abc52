//! Gate-level netlist core for the split-manufacturing reproduction.
//!
//! This crate provides the data model every other crate builds on:
//!
//! * [`Netlist`] — a single-output-per-cell, combinational gate-level
//!   netlist with typed [`CellId`]/[`NetId`] handles and cheap connectivity
//!   edits (the randomization defense rewires driver/sink pairs in place).
//! * [`Library`] — a Nangate-45-like standard-cell library carrying the
//!   area, capacitance, drive-resistance, delay and leakage data used by the
//!   placement, timing and power engines.
//! * [`parse`] — reader/writer for the ISCAS-85 `.bench` format.
//! * [`graph`] — topological ordering, levelization, combinational-loop
//!   detection, and [`graph::TopoOrder`]: an incrementally maintained
//!   topological order through which the randomizer and the flow attack
//!   rewire netlists without ever closing a loop.
//!
//! # Example
//!
//! ```
//! use sm_netlist::{Library, NetlistBuilder, GateFn};
//!
//! # fn main() -> Result<(), sm_netlist::NetlistError> {
//! let lib = Library::nangate45();
//! let mut b = NetlistBuilder::new("half_adder", &lib);
//! let a = b.input("a");
//! let c = b.input("b");
//! let s = b.gate(GateFn::Xor, &[a, c])?;
//! let carry = b.gate(GateFn::And, &[a, c])?;
//! b.output("sum", s);
//! b.output("carry", carry);
//! let netlist = b.finish()?;
//! assert_eq!(netlist.num_cells(), 2);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod builder;
mod codec;
mod error;
mod id;
mod library;
mod netlist;

pub mod graph;
pub mod index;
pub mod parse;
pub mod stats;

pub use builder::NetlistBuilder;
pub use error::NetlistError;
pub use id::{CellId, LibCellId, NetId, PortId};
pub use index::ConnectivityIndex;
pub use library::{GateFn, LibCell, Library};
pub use netlist::{Cell, Driver, Net, Netlist, Port, Sink};
