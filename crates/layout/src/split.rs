//! FEOL/BEOL splitting — what the untrusted foundry actually receives.
//!
//! Splitting after metal layer *k* hands the fab every cell, the full
//! placement, and all wiring on layers ≤ *k*. Nets routed entirely below
//! the split are fully visible; nets reaching above it appear only as
//! *dangling* via stacks ("vpins" in the terminology of Magaña et al.).
//!
//! [`split_layout`] produces a [`SplitLayout`]: the [`FeolView`] is the
//! attacker-visible part; each [`Vpin`] also carries its ground-truth net so
//! the security metrics (CCR, match-in-list) can be scored — attack
//! implementations must only read [`Vpin::position`], [`Vpin::side`] and
//! [`Vpin::stub_direction`].

use crate::geom::Point;
use crate::place::Placement;
use crate::route::RoutingResult;
use sm_netlist::{Driver, NetId, Netlist, Sink};

/// Which side of a cut net a vpin belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VpinSide {
    /// The via stack rising from the net's driver pin.
    Driver(Driver),
    /// A via stack rising from one of the net's sink pins.
    Sink(Sink),
}

/// A dangling via stack at the split layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Vpin {
    /// Location on the die (DBU).
    pub position: Point,
    /// Driver- or sink-side, including which cell pin it serves (FEOL-
    /// visible information: the via stack lands on that pin).
    pub side: VpinSide,
    /// Direction of the metal stub at the top FEOL layer, when the router
    /// left one: the paper's "dangling wire" hint. Unit-less sign vector
    /// (`(1, 0)` = east). `None` when the via stack rises straight up.
    pub stub_direction: Option<(i8, i8)>,
    /// Ground truth: the net this vpin belongs to. **For scoring only.**
    pub net: NetId,
}

/// The FEOL view: everything below/at the split layer.
#[derive(Debug, Clone)]
pub struct FeolView {
    /// The split layer (wiring on layers ≤ this is visible).
    pub split_layer: u8,
    /// Nets routed entirely in the FEOL — connectivity fully known.
    pub visible_nets: Vec<NetId>,
    /// Dangling via stacks of cut nets, driver and sink side.
    pub vpins: Vec<Vpin>,
}

impl FeolView {
    /// Indices of driver-side vpins.
    pub fn driver_vpins(&self) -> Vec<usize> {
        (0..self.vpins.len())
            .filter(|&i| matches!(self.vpins[i].side, VpinSide::Driver(_)))
            .collect()
    }

    /// Indices of sink-side vpins.
    pub fn sink_vpins(&self) -> Vec<usize> {
        (0..self.vpins.len())
            .filter(|&i| matches!(self.vpins[i].side, VpinSide::Sink(_)))
            .collect()
    }
}

/// A split layout: attacker view plus ground truth for scoring.
#[derive(Debug, Clone)]
pub struct SplitLayout {
    /// The attacker-visible FEOL.
    pub feol: FeolView,
    /// Number of nets cut by the split.
    pub cut_nets: usize,
}

impl SplitLayout {
    /// Scores a driver→sink assignment: the fraction of sink vpins paired
    /// with the driver vpin of their true net (the paper's CCR over cut
    /// nets). `pairs` holds `(driver_vpin_index, sink_vpin_index)` tuples.
    pub fn correct_connection_rate(&self, pairs: &[(usize, usize)]) -> f64 {
        let sinks = self.feol.sink_vpins().len();
        if sinks == 0 {
            return 1.0;
        }
        let correct = pairs
            .iter()
            .filter(|&&(d, s)| self.feol.vpins[d].net == self.feol.vpins[s].net)
            .count();
        correct as f64 / sinks as f64
    }
}

/// Fraction of each cut connection's first route leg that the FEOL
/// pin-escape wiring covers before the via stack rises. Real routers
/// travel laterally in low metal toward the destination before going
/// up, which is exactly why proximity attacks work so well on
/// unprotected layouts; `0.0` would model a straight via stack at the
/// pin.
const ESCAPE_FRACTION: f64 = 0.92;

/// Splits a routed layout after `split_layer`.
///
/// Vpins are extracted **per two-pin connection**: every MST edge of a net
/// whose route touches layers above the split leaves two dangling points —
/// one on the parent (net/driver-fragment) side, one at the child sink.
/// Edges routed entirely in the FEOL stay connected and are not attack
/// targets; this mirrors how real split layouts only expose the
/// connections that actually use the withheld metal. Dangling points
/// come from the routed gcells alone; the placement is not read.
///
/// # Panics
///
/// Panics if `split_layer` is 0 or ≥ the number of metal layers (you
/// cannot split above the full stack).
pub fn split_layout(
    netlist: &Netlist,
    _placement: &Placement,
    routes: &RoutingResult,
    split_layer: u8,
) -> SplitLayout {
    assert!(
        (1..10).contains(&split_layer),
        "split layer must be in 1..=9"
    );
    let mut visible = Vec::new();
    let mut vpins = Vec::new();
    let mut cut_nets = 0;
    for (id, net) in netlist.nets() {
        if net.degree() < 2 {
            continue;
        }
        let twopins = &routes.route(id).twopins;
        let mut net_cut = false;
        for tp in twopins {
            if tp.max_used_layer() <= split_layer {
                continue; // connection fully in the FEOL: known to the fab
            }
            net_cut = true;
            let (pos_a, dir_a) = dangling_point(routes, tp, true, split_layer);
            let (pos_b, dir_b) = dangling_point(routes, tp, false, split_layer);
            // Parent side: an attachment point of the net's FEOL fragment.
            vpins.push(Vpin {
                position: pos_a,
                side: VpinSide::Driver(net.driver()),
                stub_direction: dir_a,
                net: id,
            });
            // Child side: always a sink pin (the MST parent is nearer the
            // driver by construction).
            let sink = net.sinks()[(tp.b_pin - 1) as usize];
            vpins.push(Vpin {
                position: pos_b,
                side: VpinSide::Sink(sink),
                stub_direction: dir_b,
                net: id,
            });
        }
        if net_cut {
            cut_nets += 1;
        } else {
            visible.push(id);
        }
    }
    SplitLayout {
        feol: FeolView {
            split_layer,
            visible_nets: visible,
            vpins,
        },
        cut_nets,
    }
}

/// The dangling point of one side of a cut two-pin connection, plus the
/// stub direction of the hidden continuation.
fn dangling_point(
    routes: &RoutingResult,
    tp: &crate::route::TwoPinRoute,
    parent_side: bool,
    split_layer: u8,
) -> (Point, Option<(i8, i8)>) {
    let (own, own_layer, far, far_layer) = if parent_side {
        (tp.a, tp.first_layer, tp.b, tp.second_layer)
    } else {
        (tp.b, tp.second_layer, tp.a, tp.first_layer)
    };
    let corner = tp.corner;
    let own_c = routes.gcell_center(own);
    let corner_c = routes.gcell_center(corner);
    let far_c = routes.gcell_center(far);
    let own_leg_len = manhattan_pt(own_c, corner_c);
    let far_leg_len = manhattan_pt(corner_c, far_c);
    let own_leg_visible = own_layer <= split_layer || own_leg_len == 0;
    let far_leg_visible = far_layer <= split_layer || far_leg_len == 0;
    if own_leg_visible && !far_leg_visible {
        // Own leg reaches the corner in FEOL; the far leg is missing.
        (corner_c, direction(corner_c, far_c))
    } else if own_leg_visible && far_leg_visible {
        // Fully visible (caller filters this case; defensive fallback).
        (own_c, None)
    } else {
        // Own leg is hidden: bare pin stack + detailed-routing escape
        // toward the corner.
        let dx = ((corner_c.x - own_c.x) as f64 * ESCAPE_FRACTION) as i64;
        let dy = ((corner_c.y - own_c.y) as f64 * ESCAPE_FRACTION) as i64;
        let p = Point::new(own_c.x + dx, own_c.y + dy);
        let dir = direction(own_c, corner_c).or_else(|| direction(corner_c, far_c));
        (p, dir)
    }
}

fn direction(from: Point, to: Point) -> Option<(i8, i8)> {
    let dx = (to.x - from.x).signum() as i8;
    let dy = (to.y - from.y).signum() as i8;
    if dx == 0 && dy == 0 {
        None
    } else {
        Some((dx, dy))
    }
}

fn manhattan_pt(a: Point, b: Point) -> i64 {
    a.manhattan(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::place::PlacementEngine;
    use crate::route::{RouteOptions, Router};
    use crate::tech::Technology;
    use crate::Floorplan;
    use sm_netlist::parse::bench::{parse_bench, C17_BENCH};
    use sm_netlist::Library;

    fn make(lift_all_to: Option<u8>) -> (Netlist, SplitLayout) {
        let lib = Library::nangate45();
        let n = parse_bench("c17", C17_BENCH, &lib).unwrap();
        let tech = Technology::nangate45_10lm();
        let fp = Floorplan::for_netlist(&n, &tech, 0.5);
        let pl = PlacementEngine::new(7).place(&n, &fp);
        let mut opts = RouteOptions::default();
        if let Some(l) = lift_all_to {
            for (id, net) in n.nets() {
                if net.degree() >= 2 {
                    opts.lift.insert(id, l);
                }
            }
        }
        let r = Router::new(&tech).route(&n, &pl, &fp, &opts);
        let s = split_layout(&n, &pl, &r, 3);
        (n, s)
    }

    #[test]
    fn split_bookkeeping_consistent() {
        let (n, s) = make(None);
        let multi = n.nets().filter(|(_, net)| net.degree() >= 2).count();
        // Every multi-terminal net is either fully visible or cut.
        assert_eq!(s.feol.visible_nets.len() + s.cut_nets, multi);
        // Each cut net contributes exactly one driver vpin.
        assert_eq!(s.feol.driver_vpins().len(), s.cut_nets);
    }

    #[test]
    fn lifted_nets_all_cut() {
        let (n, s) = make(Some(6));
        // Nets whose pins share a gcell route trivially and stay visible;
        // everything that actually needed wires is cut at M3 when lifted
        // to M6.
        assert!(s.cut_nets > 0);
        // Vpins come in (fragment-attachment, sink) pairs per cut
        // connection.
        assert_eq!(s.feol.driver_vpins().len(), s.feol.sink_vpins().len());
        // Each cut sink vpin belongs to a multi-terminal net of the design.
        for i in s.feol.sink_vpins() {
            assert!(n.net(s.feol.vpins[i].net).degree() >= 2);
        }
    }

    #[test]
    fn perfect_assignment_scores_full_ccr() {
        let (_, s) = make(Some(6));
        let drivers = s.feol.driver_vpins();
        let sinks = s.feol.sink_vpins();
        let pairs: Vec<(usize, usize)> = sinks
            .iter()
            .map(|&si| {
                let net = s.feol.vpins[si].net;
                let di = *drivers
                    .iter()
                    .find(|&&d| s.feol.vpins[d].net == net)
                    .unwrap();
                (di, si)
            })
            .collect();
        assert_eq!(s.correct_connection_rate(&pairs), 1.0);
    }

    #[test]
    fn wrong_assignment_scores_zero() {
        let (_, s) = make(Some(6));
        let drivers = s.feol.driver_vpins();
        let sinks = s.feol.sink_vpins();
        let pairs: Vec<(usize, usize)> = sinks
            .iter()
            .map(|&si| {
                let net = s.feol.vpins[si].net;
                let di = *drivers
                    .iter()
                    .find(|&&d| s.feol.vpins[d].net != net)
                    .unwrap();
                (di, si)
            })
            .collect();
        assert_eq!(s.correct_connection_rate(&pairs), 0.0);
    }

    #[test]
    #[should_panic(expected = "split layer")]
    fn split_above_stack_panics() {
        let lib = Library::nangate45();
        let n = parse_bench("c17", C17_BENCH, &lib).unwrap();
        let tech = Technology::nangate45_10lm();
        let fp = Floorplan::for_netlist(&n, &tech, 0.5);
        let pl = PlacementEngine::new(7).place(&n, &fp);
        let r = Router::new(&tech).route(&n, &pl, &fp, &RouteOptions::default());
        let _ = split_layout(&n, &pl, &r, 10);
    }
}
