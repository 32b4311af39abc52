//! Physical-design substrate: the stand-in for Cadence Innovus.
//!
//! The DAC'18 flow needs a place-and-route engine exhibiting the properties
//! proximity attacks exploit (and the defense destroys):
//!
//! * the placer puts connected cells close together ([`place`]),
//! * the router keeps short nets in the lower metal layers and counts every
//!   via ([`route`]),
//! * nets can be forced ("lifted") to route in a chosen upper layer, the
//!   mechanism behind correction cells and naive lifting,
//! * the layout can be split after any metal layer into an FEOL view (what
//!   the untrusted fab sees) and the BEOL ground truth ([`split`]),
//! * timing ([`timing`]) and power ([`power`]) models quantify the PPA cost
//!   the paper budgets (20% for ISCAS-85, 5% for superblue).
//!
//! # Example
//!
//! ```
//! use sm_netlist::{Library, parse::bench};
//! use sm_layout::{Floorplan, PlacementEngine, Router, RouteOptions, Technology};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let lib = Library::nangate45();
//! let netlist = bench::parse_bench("c17", bench::C17_BENCH, &lib)?;
//! let tech = Technology::nangate45_10lm();
//! let fp = Floorplan::for_netlist(&netlist, &tech, 0.7);
//! let placement = PlacementEngine::new(42).place(&netlist, &fp);
//! let routes = Router::new(&tech).route(&netlist, &placement, &fp, &RouteOptions::default());
//! assert!(routes.total_wirelength_dbu() > 0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod bisect;
mod codec;
mod floorplan;
mod fm;
mod geom;
mod tech;

pub mod analysis;
pub mod def;
pub mod hpwl;
pub mod place;
pub mod power;
pub mod route;
pub mod split;
pub mod timing;

pub use floorplan::Floorplan;
pub use geom::{Point, Rect, DBU_PER_UM};
pub use hpwl::{BBox, HpwlIndex};
pub use place::{PlaceMeter, Placement, PlacementEngine};
pub use route::{RouteOptions, Router, RoutingResult, ViaCounts};
pub use split::{split_layout, VpinSide};
pub use split::{FeolView, SplitLayout, Vpin};
pub use tech::{Direction, Layer, Technology, NUM_METAL_LAYERS};
