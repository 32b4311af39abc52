//! Static timing analysis with a linear-delay gate model and lumped-RC
//! wires (Elmore-style).
//!
//! The paper reports delay overheads from Innovus at the slow corner; here
//! the per-net wire RC comes from the routed wirelength and layer stack, so
//! lifting a net to fat upper metal changes its delay the same way it does
//! in the paper (longer wire but lower resistance per µm).

use crate::route::RoutingResult;
use crate::tech::Technology;
use sm_netlist::graph::topo_order;
use sm_netlist::Netlist;

/// Result of a timing run.
#[derive(Debug, Clone, PartialEq)]
pub struct TimingReport {
    /// Arrival time (ps) at each net, indexed by `NetId`.
    pub net_arrival_ps: Vec<f64>,
    /// The worst arrival time over all primary outputs (critical-path
    /// delay).
    pub critical_path_ps: f64,
}

/// Wire capacitance of a net in fF given its routed length, averaged over
/// the layers it occupies.
fn wire_cap_ff(
    netlist: &Netlist,
    routes: &RoutingResult,
    tech: &Technology,
    net: sm_netlist::NetId,
) -> f64 {
    let _ = netlist;
    let len_um = routes.net_wirelength_dbu(net) as f64 / 1000.0;
    let max_layer = routes.net_max_layer(net).max(2);
    let cap_per_um = tech.avg_cap_ff_per_um(2, max_layer);
    let via_cap: f64 = routes
        .route(net)
        .vias
        .iter()
        .map(|v| (v.to_layer - v.from_layer) as f64 * tech.via_cap_ff)
        .sum();
    len_um * cap_per_um + via_cap
}

/// Wire resistance of a net in kΩ (for the Elmore term), averaged over its
/// layers.
fn wire_res_kohm(
    netlist: &Netlist,
    routes: &RoutingResult,
    tech: &Technology,
    net: sm_netlist::NetId,
) -> f64 {
    let _ = netlist;
    let len_um = routes.net_wirelength_dbu(net) as f64 / 1000.0;
    let max_layer = routes.net_max_layer(net).max(2);
    let slice = &tech.layers[1..max_layer as usize];
    let res_per_um = slice.iter().map(|l| l.res_ohm_per_um).sum::<f64>() / slice.len() as f64;
    let via_res: f64 = routes
        .route(net)
        .vias
        .iter()
        .map(|v| (v.to_layer - v.from_layer) as f64 * tech.via_res_ohm)
        .sum();
    (len_um * res_per_um + via_res) / 1000.0
}

/// Runs STA over the routed design.
///
/// Gate delay: `d = d0 + R_drive · C_load` with
/// `C_load = pin caps + wire cap`; wire delay adds the Elmore term
/// `R_wire · (C_wire / 2 + C_pins)`.
///
/// # Panics
///
/// Panics if the netlist is cyclic (impossible through public APIs).
pub fn analyze(netlist: &Netlist, routes: &RoutingResult, tech: &Technology) -> TimingReport {
    let mut arrival = vec![0.0f64; netlist.num_nets()];
    // Primary-input nets arrive at t = 0 (ideal drivers).
    let order = topo_order(netlist).expect("acyclic netlist");
    for c in order {
        let cell = netlist.cell(c);
        let lib = netlist.library().cell(cell.lib);
        let input_arrival = cell
            .inputs()
            .iter()
            .map(|&n| arrival[n.index()])
            .fold(0.0f64, f64::max);
        let out = cell.output();
        let c_pins = netlist.net_pin_load_ff(out);
        let c_wire = wire_cap_ff(netlist, routes, tech, out);
        let r_wire = wire_res_kohm(netlist, routes, tech, out);
        let gate_delay = lib.delay_ps(c_pins + c_wire);
        let wire_delay = r_wire * (c_wire / 2.0 + c_pins);
        arrival[out.index()] = input_arrival + gate_delay + wire_delay;
    }
    let critical = netlist
        .output_ports()
        .iter()
        .map(|p| arrival[p.net.index()])
        .fold(0.0f64, f64::max);
    TimingReport {
        net_arrival_ps: arrival,
        critical_path_ps: critical,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::place::PlacementEngine;
    use crate::route::{RouteOptions, Router};
    use crate::Floorplan;
    use sm_netlist::parse::bench::{parse_bench, C17_BENCH};
    use sm_netlist::Library;

    fn setup() -> (Netlist, RoutingResult, Technology) {
        let lib = Library::nangate45();
        let n = parse_bench("c17", C17_BENCH, &lib).unwrap();
        let tech = Technology::nangate45_10lm();
        let fp = Floorplan::for_netlist(&n, &tech, 0.5);
        let pl = PlacementEngine::new(7).place(&n, &fp);
        let r = Router::new(&tech).route(&n, &pl, &fp, &RouteOptions::default());
        (n, r, tech)
    }

    #[test]
    fn critical_path_positive_and_bounded() {
        let (n, r, tech) = setup();
        let t = analyze(&n, &r, &tech);
        assert!(t.critical_path_ps > 0.0);
        // c17 is 3 NAND levels; even with wire delay it stays well under 1 ns.
        assert!(t.critical_path_ps < 1000.0, "{}", t.critical_path_ps);
    }

    #[test]
    fn deeper_path_is_slower() {
        let (n, r, tech) = setup();
        let t = analyze(&n, &r, &tech);
        // Output arrival must be at least the arrival of any internal net
        // on its fan-in path; spot-check monotonicity along one path.
        for (_, cell) in n.cells() {
            let out_arr = t.net_arrival_ps[cell.output().index()];
            for &i in cell.inputs() {
                assert!(out_arr > t.net_arrival_ps[i.index()]);
            }
        }
    }

    #[test]
    fn lifting_changes_delay() {
        let lib = Library::nangate45();
        let n = parse_bench("c17", C17_BENCH, &lib).unwrap();
        let tech = Technology::nangate45_10lm();
        let fp = Floorplan::for_netlist(&n, &tech, 0.5);
        let pl = PlacementEngine::new(7).place(&n, &fp);
        let base = Router::new(&tech).route(&n, &pl, &fp, &RouteOptions::default());
        let mut opts = RouteOptions::default();
        for (id, net) in n.nets() {
            if net.degree() >= 2 {
                opts.lift.insert(id, 6);
            }
        }
        let lifted = Router::new(&tech).route(&n, &pl, &fp, &opts);
        let t_base = analyze(&n, &base, &tech).critical_path_ps;
        let t_lift = analyze(&n, &lifted, &tech).critical_path_ps;
        assert!(t_lift != t_base);
    }
}
