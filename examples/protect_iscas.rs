//! Protect a full ISCAS-85-class benchmark and report the paper's key
//! security metrics (the Table 4 "proposed" row for one circuit).
//!
//! ```sh
//! cargo run --release --example protect_iscas [c432|c880|…] [seed]
//! ```

use split_manufacturing::attacks::ccr_over_connections;
use split_manufacturing::benchgen::iscas;
use split_manufacturing::prelude::*;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let name = args.get(1).map(String::as_str).unwrap_or("c432");
    let seed: u64 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(1);
    let profile = IscasProfile::by_name(name).unwrap_or_else(|| {
        eprintln!("unknown benchmark `{name}`, defaulting to c432");
        IscasProfile::c432()
    });
    let design = iscas::generate(&profile, seed);
    println!(
        "{}: {} gates, {} PI, {} PO, depth target {}",
        profile.name, profile.gates, profile.inputs, profile.outputs, profile.depth
    );

    let exec = Budget::with_threads(None);
    let mut rec = Recorder::new();
    let config = FlowConfig::iscas_default(seed);
    let original = original_layout(&design, config.utilization, seed, &exec, &mut rec);
    let protected = protect(&design, &config, &original, &exec, &mut rec);
    println!(
        "randomized {} nets via {} swaps (OER {:.1}%)",
        protected.protected_nets().len(),
        protected.randomization.swaps.len(),
        protected.randomization.oer_achieved * 100.0
    );
    println!(
        "PPA overhead vs unprotected baseline: {}",
        protected.ppa_overhead
    );

    // Attack at each split layer the paper averages over.
    let swapped = protected.randomization.swapped_connections();
    let mut avg = (0.0, 0.0, 0.0);
    for split_layer in [3u8, 4, 5] {
        let split = split_layout(
            &protected.randomization.erroneous,
            &protected.placement,
            &protected.feol_routing,
            split_layer,
        );
        let out = network_flow_attack_budgeted(
            &design,
            &protected.randomization.erroneous,
            &protected.placement,
            &split,
            &ProximityConfig::default(),
            &exec,
            &mut rec,
        )
        .expect("the budget has no deadline");
        let ccr = ccr_over_connections(&split, &out.pairs, &swapped);
        println!(
            "split M{split_layer}: {} cut nets, CCR(protected) {:.1}%, OER {:.1}%, HD {:.1}%",
            split.cut_nets,
            ccr * 100.0,
            out.metrics.oer * 100.0,
            out.metrics.hd * 100.0
        );
        avg.0 += ccr / 3.0;
        avg.1 += out.metrics.oer / 3.0;
        avg.2 += out.metrics.hd / 3.0;
    }
    println!(
        "averaged (paper's Table 4 row): CCR {:.1}%  OER {:.1}%  HD {:.1}%  — paper: 0 / 99.9 / ~40",
        avg.0 * 100.0,
        avg.1 * 100.0,
        avg.2 * 100.0
    );
}
