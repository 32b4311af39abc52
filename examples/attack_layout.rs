//! Play the attacker: run both attack families against an *unprotected*
//! layout and watch split manufacturing fail without the defense.
//!
//! ```sh
//! cargo run --release --example attack_layout [c880] [seed]
//! ```

use split_manufacturing::attacks::solution_space;
use split_manufacturing::benchgen::iscas;
use split_manufacturing::prelude::*;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let name = args.get(1).map(String::as_str).unwrap_or("c880");
    let seed: u64 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(1);
    let profile = IscasProfile::by_name(name).unwrap_or_else(IscasProfile::c880);
    let design = iscas::generate(&profile, seed);
    let exec = Budget::with_threads(None);
    let mut rec = Recorder::new();
    let layout = original_layout(&design, 0.7, seed, &exec, &mut rec);
    println!(
        "{}: {} gates placed on {:.0} µm² (no protection applied)",
        profile.name,
        design.num_cells(),
        layout.floorplan.die_area_um2()
    );

    for split_layer in [3u8, 4, 5] {
        let split = split_layout(&design, &layout.placement, &layout.routing, split_layer);
        let out = network_flow_attack_budgeted(
            &design,
            &design,
            &layout.placement,
            &split,
            &ProximityConfig::default(),
            &exec,
            &mut rec,
        )
        .expect("the budget has no deadline");
        println!(
            "network-flow @ M{split_layer}: {} cut nets → CCR {:.1}%  OER {:.1}%  HD {:.1}%",
            split.cut_nets,
            out.ccr * 100.0,
            out.metrics.oer * 100.0,
            out.metrics.hd * 100.0
        );

        let report = crouting_attack(&design, &split, &CroutingConfig::default());
        let widest = report.boxes.last().expect("boxes configured");
        println!(
            "crouting     @ M{split_layer}: {} vpins, E[LS]@45 = {:.2}, match-in-list {:.0}%",
            report.num_vpins,
            widest.expected_list_size,
            widest.match_in_list * 100.0
        );
        // Solution-space framing from the paper's footnote 2.
        let n = split.feol.sink_vpins().len() as u64;
        println!(
            "             solution space: 10^{:.0} netlists unconstrained → 10^{:.0} after crouting",
            solution_space::log10_factorial(n),
            solution_space::log10_residual_space(n, widest.expected_list_size)
        );
    }
}
