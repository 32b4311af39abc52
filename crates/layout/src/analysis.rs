//! Layout analyses backing the paper's tables and figures: driver–sink
//! distance statistics (Table 1, Fig. 4) and per-layer wirelength shares
//! (Fig. 5).

use crate::place::Placement;
use crate::route::RoutingResult;
use sm_netlist::{NetId, Netlist};

/// Summary statistics of a distance sample, in microns.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DistanceStats {
    /// Arithmetic mean.
    pub mean: f64,
    /// Median.
    pub median: f64,
    /// Population standard deviation.
    pub std_dev: f64,
    /// Number of driver→sink pairs sampled.
    pub samples: usize,
}

/// Manhattan distances (µm) between the driver and every sink of each net
/// in `nets`, measured on `placement`. This is the quantity Table 1
/// reports: randomization inflates it by an order of magnitude.
pub fn driver_sink_distances_um(
    netlist: &Netlist,
    placement: &Placement,
    nets: impl IntoIterator<Item = NetId>,
) -> Vec<f64> {
    let mut out = Vec::new();
    for net in nets {
        let d = placement.driver_position(netlist, net);
        for s in placement.sink_positions(netlist, net) {
            out.push(d.manhattan_um(s));
        }
    }
    out
}

/// Computes [`DistanceStats`] over a sample.
///
/// Returns zeros for an empty sample.
pub fn distance_stats(mut sample: Vec<f64>) -> DistanceStats {
    let n = sample.len();
    if n == 0 {
        return DistanceStats {
            mean: 0.0,
            median: 0.0,
            std_dev: 0.0,
            samples: 0,
        };
    }
    sample.sort_by(f64::total_cmp);
    let mean = sample.iter().sum::<f64>() / n as f64;
    let median = if n % 2 == 1 {
        sample[n / 2]
    } else {
        (sample[n / 2 - 1] + sample[n / 2]) / 2.0
    };
    let var = sample.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
    DistanceStats {
        mean,
        median,
        std_dev: var.sqrt(),
        samples: n,
    }
}

/// Per-layer share (%) restricted to a subset of nets (Fig. 5 plots the
/// randomized nets only).
pub fn wirelength_share_by_layer_for(
    routes: &RoutingResult,
    nets: impl IntoIterator<Item = NetId>,
) -> [f64; 10] {
    let mut per_layer = [0i64; 10];
    for net in nets {
        for s in &routes.route(net).segments {
            let len = (s.a.0 as i64 - s.b.0 as i64).abs() + (s.a.1 as i64 - s.b.1 as i64).abs();
            per_layer[(s.layer - 1) as usize] += len * routes.tile_dbu();
        }
    }
    let total: i64 = per_layer.iter().sum();
    let total = total.max(1) as f64;
    let mut out = [0.0; 10];
    for i in 0..10 {
        out[i] = per_layer[i] as f64 / total * 100.0;
    }
    out
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

    #[test]
    fn distance_stats_basics() {
        let s = distance_stats(vec![1.0, 2.0, 3.0, 4.0]);
        assert!((s.mean - 2.5).abs() < 1e-12);
        assert!((s.median - 2.5).abs() < 1e-12);
        assert!((s.std_dev - (1.25f64).sqrt()).abs() < 1e-12);
        assert_eq!(s.samples, 4);
        let empty = distance_stats(vec![]);
        assert_eq!(empty.samples, 0);
        assert_eq!(empty.mean, 0.0);
    }

    #[test]
    fn odd_sample_median() {
        let s = distance_stats(vec![5.0, 1.0, 3.0]);
        assert_eq!(s.median, 3.0);
    }

    #[test]
    fn c17_distances_and_shares() {
        let lib = Library::nangate45();
        let n = parse_bench("c17", C17_BENCH, &lib).unwrap();
        let tech = Technology::nangate45_10lm();
        let fp = Floorplan::for_netlist(&n, &tech, 0.5);
        let pl = PlacementEngine::new(7).place(&n, &fp);
        let r = Router::new(&tech).route(&n, &pl, &fp, &RouteOptions::default());
        let nets: Vec<_> = n
            .nets()
            .filter(|(_, net)| net.degree() >= 2)
            .map(|(id, _)| id)
            .collect();
        let d = driver_sink_distances_um(&n, &pl, nets.iter().copied());
        assert!(!d.is_empty());
        assert!(d.iter().all(|&x| x >= 0.0));
        let sub = wirelength_share_by_layer_for(&r, nets);
        let sub_total: f64 = sub.iter().sum();
        assert!(sub_total > 99.0 && sub_total < 101.0, "sub {sub_total}");
    }
}
