//! The industrial-scale scenario: protect a (scaled) IBM superblue design
//! with correction cells in M8 and compare against naive lifting — the
//! workload behind Tables 1–3 and Figs. 4–5 of the paper.
//!
//! ```sh
//! cargo run --release --example superblue_flow [superblue18] [scale] [seed]
//! ```

use split_manufacturing::benchgen::superblue;
use split_manufacturing::core::baselines::naive_lifting;
use split_manufacturing::layout::analysis::{distance_stats, driver_sink_distances_um};
use split_manufacturing::prelude::*;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let name = args.get(1).map(String::as_str).unwrap_or("superblue18");
    let scale: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(150);
    let seed: u64 = args.get(3).and_then(|s| s.parse().ok()).unwrap_or(1);
    let profile = SuperblueProfile::by_name(name).unwrap_or_else(SuperblueProfile::superblue18);
    let design = superblue::generate(&profile, scale, seed);
    println!(
        "{} @ 1/{}: {} cells, {} nets ({} nets in the real design)",
        profile.name,
        scale,
        design.num_cells(),
        design.num_nets(),
        profile.nets
    );

    // One layout of the original netlist serves the protection flow's
    // overhead accounting, the naive-lifting baseline and Table 1.
    let exec = Budget::with_threads(None);
    let mut rec = Recorder::new();
    let config = FlowConfig {
        utilization: profile.utilization(),
        ..FlowConfig::superblue_default(seed)
    };
    let original = original_layout(&design, config.utilization, seed, &exec, &mut rec);
    let protected = protect(&design, &config, &original, &exec, &mut rec);
    let nets = protected.protected_nets();
    println!(
        "protected {} nets through {} M8 correction cells; PPA overhead: {}",
        nets.len(),
        protected.correction_cells.len(),
        protected.ppa_overhead
    );

    // Distances between truly connected gates (Table 1's story).
    let lifted = naive_lifting(&design, &original, &nets, config.lift_layer, seed, &exec);
    let d_orig = distance_stats(driver_sink_distances_um(
        &design,
        &original.placement,
        nets.iter().copied(),
    ));
    let d_prop = distance_stats(driver_sink_distances_um(
        &protected.restored,
        &protected.placement,
        nets.iter().copied(),
    ));
    println!(
        "driver–sink distances (µm): original mean {:.2} / median {:.2}; proposed mean {:.2} / median {:.2} ({:.0}× blow-up)",
        d_orig.mean,
        d_orig.median,
        d_prop.mean,
        d_prop.median,
        d_prop.mean / d_orig.mean.max(1e-9)
    );

    // Via migration to the upper layers (Table 2's story).
    let vo = original.routing.via_counts();
    let vl = lifted.routing.via_counts();
    let vp = protected.restored_routing.via_counts();
    println!("vias V67/V78/V89 —");
    println!(
        "  original: {} / {} / {}",
        vo.between(6),
        vo.between(7),
        vo.between(8)
    );
    println!(
        "  lifted:   {} / {} / {}",
        vl.between(6),
        vl.between(7),
        vl.between(8)
    );
    println!(
        "  proposed: {} / {} / {}",
        vp.between(6),
        vp.between(7),
        vp.between(8)
    );
}
