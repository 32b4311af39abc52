//! Benchmark substrate: deterministic circuit generators replaying the
//! statistics of the paper's test cases.
//!
//! The paper evaluates on seven ISCAS-85 circuits and five IBM superblue
//! designs. The real netlists are external artifacts we do not ship (the
//! parsers in [`sm_netlist::parse`] read them if you have them); these
//! generators produce circuits with matching gate counts, I/O counts and
//! depth profiles — and, for superblue, net counts scaled down ~50× so the
//! whole evaluation runs in seconds. Every generator is deterministic for
//! a given profile + seed.
//!
//! # Example
//!
//! ```
//! use sm_benchgen::{iscas, IscasProfile};
//!
//! let c432 = iscas::generate(&IscasProfile::c432(), 1);
//! assert_eq!(c432.input_ports().len(), 36);
//! assert_eq!(c432.output_ports().len(), 7);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod iscas;
pub mod superblue;

pub use iscas::{IscasProfile, ISCAS85_NAMES};
pub use superblue::{SuperblueProfile, SUPERBLUE_NAMES};
