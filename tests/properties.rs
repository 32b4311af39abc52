//! Property-based tests over the core invariants, spanning crates.

use proptest::prelude::*;
use rand::SeedableRng;
use split_manufacturing::core::{randomize, RandomizeConfig};
use split_manufacturing::layout::{Floorplan, PlacementEngine, RouteOptions, Router, Technology};
use split_manufacturing::netlist::graph::topo_order;
use split_manufacturing::netlist::{GateFn, Library, NetId, Netlist, NetlistBuilder};
use split_manufacturing::sim::{security_metrics, PatternSource, Simulator};

/// Builds a random layered circuit from a proptest-driven recipe.
fn arbitrary_netlist(inputs: usize, layers: Vec<Vec<(u8, u8, u8)>>) -> Netlist {
    let lib = Library::nangate45();
    let mut b = NetlistBuilder::new("prop", &lib);
    let mut signals: Vec<NetId> = (0..inputs.max(2))
        .map(|i| b.input(format!("i{i}")))
        .collect();
    for layer in layers {
        let mut next = Vec::new();
        for (f, a, c) in layer {
            let fun = match f % 8 {
                0 => GateFn::Buf,
                1 => GateFn::Inv,
                2 => GateFn::And,
                3 => GateFn::Nand,
                4 => GateFn::Or,
                5 => GateFn::Nor,
                6 => GateFn::Xor,
                _ => GateFn::Xnor,
            };
            let x = signals[a as usize % signals.len()];
            let y = signals[c as usize % signals.len()];
            let out = if fun.is_unary() {
                b.gate(fun, &[x]).expect("unary gate")
            } else if x == y {
                b.gate(GateFn::Inv, &[x]).expect("degenerate pair")
            } else {
                b.gate(fun, &[x, y]).expect("binary gate")
            };
            next.push(out);
        }
        signals.extend(next);
    }
    let out = *signals.last().expect("at least the inputs");
    b.output("y", out);
    b.output("z", signals[signals.len() / 2]);
    b.finish().expect("layered construction is acyclic")
}

fn netlist_strategy() -> impl Strategy<Value = Netlist> {
    (
        2usize..6,
        proptest::collection::vec(
            proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 1..6),
            1..5,
        ),
    )
        .prop_map(|(inputs, layers)| arbitrary_netlist(inputs, layers))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Randomization must never create a combinational loop and must
    /// restore to an exact functional copy.
    #[test]
    fn randomize_preserves_acyclicity_and_restores(netlist in netlist_strategy(), seed in 0u64..1000) {
        let r = randomize(&netlist, &RandomizeConfig::new(seed));
        prop_assert!(topo_order(&r.erroneous).is_ok());
        r.erroneous.validate().expect("consistent erroneous netlist");
        let restored = r.restore();
        restored.validate().expect("consistent restored netlist");
        // Exhaustive equivalence via simulation (≤ 5 inputs ⇒ ≤ 32 patterns).
        let patterns = PatternSource::exhaustive(&netlist);
        let m = security_metrics(&netlist, &restored, &patterns).expect("same ports");
        prop_assert_eq!(m.oer, 0.0);
    }

    /// The placer always produces a legal placement, and routing covers
    /// every multi-terminal net.
    #[test]
    fn place_and_route_always_legal(netlist in netlist_strategy(), seed in 0u64..1000) {
        let tech = Technology::nangate45_10lm();
        let fp = Floorplan::for_netlist(&netlist, &tech, 0.6);
        let pl = PlacementEngine::new(seed).place(&netlist, &fp);
        prop_assert!(pl.is_legal(&fp));
        let routes = Router::new(&tech).route(&netlist, &pl, &fp, &RouteOptions::default());
        for (id, net) in netlist.nets() {
            if net.degree() >= 2 {
                prop_assert!(routes.net_max_layer(id) >= 1, "net {} unrouted", id);
            }
        }
        // Via accounting is self-consistent.
        let mut manual = 0u64;
        for (id, _) in netlist.nets() {
            for v in &routes.route(id).vias {
                manual += (v.to_layer - v.from_layer) as u64;
            }
        }
        prop_assert_eq!(manual, routes.via_counts().total());
    }

    /// Simulation is deterministic and word/single evaluation agree.
    #[test]
    fn simulation_lanes_agree(netlist in netlist_strategy(), seed in 0u64..1000) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let patterns = PatternSource::random(&netlist, 64, &mut rng);
        let mut sim = Simulator::new(&netlist);
        for (words, mask) in patterns.iter_words() {
            let outs = sim.run_word(words);
            for lane in 0..8 {
                if mask >> lane & 1 == 0 {
                    continue;
                }
                let ins: Vec<bool> = words.iter().map(|w| w >> lane & 1 == 1).collect();
                let single = sim.run_single(&ins);
                for (o, w) in single.iter().zip(&outs) {
                    prop_assert_eq!(*o, w >> lane & 1 == 1);
                }
            }
        }
    }

    /// Netlist text round-trips through the `.bench` format.
    #[test]
    fn format_roundtrips(netlist in netlist_strategy()) {
        use split_manufacturing::netlist::parse::bench;
        let lib = Library::nangate45();
        let b = bench::parse_bench("rt", &bench::write_bench(&netlist), &lib).expect("bench parse");
        prop_assert!(b.num_cells() >= netlist.num_cells()); // + alias buffers
        // Functional equality of the bench round-trip.
        let patterns = PatternSource::exhaustive(&netlist);
        let m = security_metrics(&netlist, &b, &patterns).expect("same ports");
        prop_assert_eq!(m.oer, 0.0);
    }
}
