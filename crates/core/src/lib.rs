//! The DAC'18 split-manufacturing defense: *randomize the netlist, place &
//! route the erroneous design, restore the true functionality through the
//! BEOL*.
//!
//! The flow ([`flow::protect`]) follows Fig. 2 of the paper:
//!
//! 1. [`mod@randomize`] — iteratively swap the connectivity of randomly chosen
//!    driver/sink pairs, never creating a combinational loop, until the
//!    output error rate (OER) of the erroneous netlist approaches 100%.
//! 2. Place and route the erroneous netlist (via [`sm_layout`]); the
//!    swapped nets are lifted to the correction-cell layer (M6 for
//!    ISCAS-85-class designs, M8 for superblue-class).
//! 3. [`correction`] — embed virtual correction cells on the lifted nets;
//!    they occupy no device-layer area and may overlap standard cells.
//! 4. Restore the true connectivity by re-routing between correction-cell
//!    pairs in the BEOL, re-evaluate PPA, and iterate while the budget
//!    allows; finally strip the cells and export.
//!
//! [`baselines`] provides the comparison points of Tables 4/5: naive
//! lifting, placement perturbation, pin swapping and routing perturbation.
//!
//! # Example
//!
//! ```
//! use sm_core::baselines::original_layout;
//! use sm_core::flow::{protect, FlowConfig};
//! use sm_exec::{phase::Recorder, Budget};
//! use sm_netlist::{Library, parse::bench};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let lib = Library::nangate45();
//! let netlist = bench::parse_bench("c17", bench::C17_BENCH, &lib)?;
//! let config = FlowConfig::iscas_default(1);
//! // One budget and one span recorder for every stage.
//! let exec = Budget::with_threads(Some(2));
//! let mut rec = Recorder::new();
//! let original = original_layout(&netlist, config.utilization, config.seed, &exec, &mut rec);
//! let protected = protect(&netlist, &config, &original, &exec, &mut rec);
//! assert!(protected.randomization.oer_achieved > 0.5);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod baselines;
mod codec;
pub mod correction;
pub mod flow;
mod layout;
pub mod ppa;
pub mod randomize;

pub use correction::CorrectionCell;
pub use flow::{protect, FlowConfig, ProtectedDesign};
pub use ppa::PpaReport;
pub use randomize::{randomize, Randomization, RandomizeConfig, SwapRecord};
