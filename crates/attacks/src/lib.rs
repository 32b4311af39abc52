//! Attacks on split-manufactured layouts, and the metrics that score them.
//!
//! Two attack families from the paper's evaluation:
//!
//! * [`proximity`] — the network-flow attack of Wang et al. (DAC'16): pair
//!   dangling driver/sink via stacks using physical proximity, combinational
//!   -loop avoidance, load-capacitance limits and dangling-wire direction;
//!   used against ISCAS-85-class layouts (Tables 4 and 5).
//! * [`crouting`] — the routing-centric attack of Magaña et al. (ICCAD'16):
//!   bound the candidate list of every vpin by a routing-track bounding box;
//!   reports #vpins, E\[LS\] and match-in-list (Table 3), counted without
//!   building the lists: one sorted pair-counting sweep per box, and one
//!   nearest-true-partner distance per vpin.
//!
//! [`solution_space`] estimates the search-space sizes discussed in Sec. 2
//! (footnote 2) of the paper.
//!
//! # Ground-truth discipline
//!
//! [`sm_layout::Vpin`] carries its true net for scoring. Attack code in
//! this crate reads only FEOL-visible fields (`position`, `side`,
//! `stub_direction`, and the driver-side net identity, which the FEOL
//! exposes by construction); the true net of *sink* vpins is touched only
//! by the scoring functions.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod crouting;
pub(crate) mod grid;
pub mod mcmf;
pub mod proximity;
pub mod solution_space;

pub use crouting::{crouting_attack, CroutingConfig, CroutingReport};
pub use proximity::{
    ccr_over_connections, ccr_vs_golden, ccr_vs_golden_for, network_flow_attack_budgeted,
    AttackOutcome, ProximityConfig,
};
