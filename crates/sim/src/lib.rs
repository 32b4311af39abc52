//! Logic simulation and security-metric engines.
//!
//! The paper evaluates attacks with three functional metrics, all computed
//! by stimulating netlists with test patterns (Synopsys VCS in the paper,
//! 1,000,000 patterns):
//!
//! * **OER** (output error rate) — probability that at least one output bit
//!   is wrong for a random input pattern ([`oer`]).
//! * **HD** (Hamming distance) — average fraction of differing output bits
//!   ([`hamming_distance`]).
//! * functional equivalence — the paper validates restored layouts with
//!   Synopsys Formality; we provide a miter + DPLL SAT check in
//!   [`equiv`].
//!
//! Simulation is 64-way bit-parallel: each `u64` word carries 64 patterns.
//! A [`Simulator`] compiles its netlist once into a flat gate program
//! (cells in topological order, one function, output net and input-net
//! range each) and evaluates it block-major: each gate visit computes a
//! block of 16 words (1 024 patterns) before the next gate. A
//! [`GoldenResponse`] simulates the golden netlist once per pattern
//! batch, so scoring many candidates against it simulates only them.
//!
//! # Example
//!
//! ```
//! use sm_netlist::{Library, parse::bench};
//! use sm_sim::{PatternSource, hamming_distance};
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let lib = Library::nangate45();
//! let golden = bench::parse_bench("c17", bench::C17_BENCH, &lib)?;
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let patterns = PatternSource::random(&golden, 1024, &mut rng);
//! let hd = hamming_distance(&golden, &golden, &patterns)?;
//! assert_eq!(hd, 0.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod metrics;
mod patterns;
mod simulator;

#[cfg(test)]
mod differential;

pub mod equiv;
pub mod sat;

pub use metrics::{
    hamming_distance, oer, security_metrics, GoldenResponse, MetricsError, SecurityMetrics,
};
pub use patterns::PatternSource;
pub use simulator::{ActivityProfile, Simulator};
