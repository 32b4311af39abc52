//! Quickstart: protect the c17 benchmark and attack its FEOL.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use split_manufacturing::attacks::ccr_over_connections;
use split_manufacturing::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The real ISCAS-85 c17 netlist ships with the crate.
    let lib = Library::nangate45();
    let design = parse_bench("c17", C17_BENCH, &lib)?;
    println!(
        "design: {} — {} gates, {} inputs, {} outputs",
        design.name(),
        design.num_cells(),
        design.input_ports().len(),
        design.output_ports().len()
    );

    // One thread budget (machine parallelism) bounds every stage below;
    // one recorder collects their phase timings.
    let exec = Budget::with_threads(None);
    let mut rec = Recorder::new();

    // Protect it against its original layout: randomize until OER ≈ 100%,
    // place & route the erroneous netlist, embed correction cells in M6,
    // restore in the BEOL.
    let config = FlowConfig::iscas_default(42);
    let original = original_layout(&design, config.utilization, config.seed, &exec, &mut rec);
    let protected = protect(&design, &config, &original, &exec, &mut rec);
    println!(
        "randomization: {} swaps, OER {:.1}%, HD {:.1}%",
        protected.randomization.swaps.len(),
        protected.randomization.oer_achieved * 100.0,
        protected.randomization.hd_achieved * 100.0
    );
    println!(
        "correction cells: {} (pins in M6)",
        protected.correction_cells.len()
    );
    println!("PPA overhead: {}", protected.ppa_overhead);

    // The restored netlist is functionally identical to the original.
    let verdict = split_manufacturing::sim::equiv::check(&design, &protected.restored, 100_000)?;
    println!("formal equivalence of restored netlist: {verdict:?}");

    // Attack the FEOL an untrusted fab would see (split after M4).
    let split = split_layout(
        &protected.randomization.erroneous,
        &protected.placement,
        &protected.feol_routing,
        4,
    );
    let outcome = network_flow_attack_budgeted(
        &design,
        &protected.randomization.erroneous,
        &protected.placement,
        &split,
        &ProximityConfig::default(),
        &exec,
        &mut rec,
    )
    .expect("the budget has no deadline");
    let swapped = protected.randomization.swapped_connections();
    let ccr_protected = ccr_over_connections(&split, &outcome.pairs, &swapped);
    println!(
        "network-flow attack: CCR over randomized nets {:.1}%, OER {:.1}%, HD {:.1}%",
        ccr_protected * 100.0,
        outcome.metrics.oer * 100.0,
        outcome.metrics.hd * 100.0
    );
    Ok(())
}
