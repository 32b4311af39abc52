//! Reproduction of *"Raise Your Game for Split Manufacturing: Restoring
//! the True Functionality Through BEOL"* (Patnaik, Ashraf, Knechtel,
//! Sinanoglu — DAC 2018).
//!
//! Split manufacturing protects chip IP by letting an untrusted foundry
//! build only the FEOL (transistors + lower metal) while a trusted
//! facility finishes the BEOL (upper metal). Proximity attacks undermine
//! this: placement and routing leak the missing connections. The paper's
//! defense randomizes the netlist, places & routes the *erroneous* design,
//! and restores the true functionality only in the BEOL through virtual
//! correction cells — driving the attacker's correct-connection rate to 0%.
//!
//! This crate re-exports the whole stack:
//!
//! * [`netlist`] — gate-level netlists, Nangate-45-like library, parsers;
//! * [`sim`] — bit-parallel simulation, OER/HD metrics, SAT equivalence;
//! * [`layout`] — placement, 10-layer global routing, STA, power,
//!   FEOL/BEOL splitting (the Innovus stand-in);
//! * [`core`] — the protection flow, correction cells and baselines;
//! * [`attacks`] — the network-flow proximity attack and `crouting`;
//! * [`benchgen`] — deterministic ISCAS-85 / superblue-like generators;
//! * [`engine`] — the parallel experiment-campaign engine behind the
//!   `smctl` CLI: jobs, a work-stealing executor, a content-keyed
//!   bundle cache and deterministic JSON/CSV reporters.
//!
//! # Quickstart
//!
//! ```
//! use split_manufacturing::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // 1. A design to protect (the real c17 here; generators cover the rest).
//! let lib = Library::nangate45();
//! let design = parse_bench("c17", C17_BENCH, &lib)?;
//!
//! // 2. One thread budget bounds every stage below; one recorder times
//! //    their phases.
//! let exec = Budget::with_threads(Some(2));
//! let mut rec = Recorder::new();
//!
//! // 3. Lay out the original netlist, then run the protection flow
//! //    against it: randomize, place & route the erroneous netlist,
//! //    lift through correction cells, restore in the BEOL.
//! let config = FlowConfig::iscas_default(42);
//! let original = original_layout(&design, config.utilization, config.seed, &exec, &mut rec);
//! let protected = protect(&design, &config, &original, &exec, &mut rec);
//! assert_eq!(protected.ppa_overhead.area_pct, 0.0); // zero area cost
//!
//! // 4. Attack the FEOL the untrusted fab would see.
//! let split = split_layout(
//!     &protected.randomization.erroneous,
//!     &protected.placement,
//!     &protected.feol_routing,
//!     4,
//! );
//! let outcome = network_flow_attack_budgeted(
//!     &design,
//!     &protected.randomization.erroneous,
//!     &protected.placement,
//!     &split,
//!     &ProximityConfig::default(),
//!     &exec,
//!     &mut rec,
//! )
//! .expect("the budget has no deadline");
//! // The randomized nets are never recovered correctly.
//! # let _ = outcome;
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub use sm_attacks as attacks;
pub use sm_benchgen as benchgen;
pub use sm_core as core;
pub use sm_engine as engine;
pub use sm_layout as layout;
pub use sm_netlist as netlist;
pub use sm_sim as sim;

/// The types most workflows need, in one import.
pub mod prelude {
    pub use sm_attacks::{
        crouting_attack, network_flow_attack_budgeted, CroutingConfig, ProximityConfig,
    };
    pub use sm_benchgen::{IscasProfile, SuperblueProfile};
    pub use sm_core::baselines::original_layout;
    pub use sm_core::{protect, FlowConfig, ProtectedDesign, RandomizeConfig};
    pub use sm_engine::{
        run_sweep_budgeted, ArtifactCache, AttackKind, Budget, Recorder, SweepSpec,
    };
    pub use sm_layout::{
        split_layout, Floorplan, PlacementEngine, RouteOptions, Router, Technology,
    };
    pub use sm_netlist::parse::bench::{parse_bench, C17_BENCH};
    pub use sm_netlist::{GateFn, Library, Netlist, NetlistBuilder};
    pub use sm_sim::{security_metrics, PatternSource, Simulator};
}
