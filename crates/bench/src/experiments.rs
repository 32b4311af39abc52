//! Measurement drivers for every table and figure.

use sm_attacks::crouting::{crouting_attack, CroutingConfig, CroutingReport};
use sm_attacks::proximity::{
    ccr_over_connections, network_flow_attack_budgeted, AttackOutcome, ProximityConfig,
};
use sm_core::baselines::{pin_swapping, placement_perturbation, routing_perturbation};
use sm_engine::bundle::{IscasRun, SuperblueRun};
use sm_layout::analysis::{distance_stats, DistanceStats};
use sm_layout::{split_layout, Placement, SplitLayout, ViaCounts};
use sm_netlist::Netlist;

/// Table 1 row: driver/sink distance statistics per layout.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Benchmark name.
    pub name: &'static str,
    /// Original layout (true connectivity, optimized placement).
    pub original: DistanceStats,
    /// Naively lifted layout (placement unchanged → same distances).
    pub lifted: DistanceStats,
    /// Proposed layout: true pairs measured on the erroneous placement.
    pub proposed: DistanceStats,
}

/// Distances (µm) of the *randomized connections* on a given placement:
/// for every `(sink, true_net)` pair the defense rewired, the Manhattan
/// distance between the true driver and the sink.
pub fn swapped_connection_distances_um(
    netlist: &sm_netlist::Netlist,
    placement: &sm_layout::Placement,
    connections: &[(sm_netlist::Sink, sm_netlist::NetId)],
) -> Vec<f64> {
    connections
        .iter()
        .map(|&(sink, net)| {
            let d = placement.driver_position(netlist, net);
            let s = match sink {
                sm_netlist::Sink::Cell { cell, .. } => placement.cell_center(cell),
                sm_netlist::Sink::Port(p) => placement.output_position(p.index()),
            };
            d.manhattan_um(s)
        })
        .collect()
}

/// Computes Table 1 for one superblue run, over the randomized
/// connections (the same set in all three layouts, per the paper's
/// "for a fair comparison" note).
pub fn table1(run: &SuperblueRun) -> Table1Row {
    let swapped = run.protected.randomization.swapped_connections();
    let original = distance_stats(swapped_connection_distances_um(
        &run.netlist,
        &run.original.placement,
        &swapped,
    ));
    let lifted = distance_stats(swapped_connection_distances_um(
        &run.netlist,
        &run.lifted.placement,
        &swapped,
    ));
    // True connectivity on the erroneous placement: this is what the
    // attacker would have to bridge.
    let proposed = distance_stats(swapped_connection_distances_um(
        &run.netlist,
        &run.protected.placement,
        &swapped,
    ));
    Table1Row {
        name: run.name,
        original,
        lifted,
        proposed,
    }
}

/// Table 2 row: via counts per layout.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Benchmark name.
    pub name: &'static str,
    /// Net count of the generated design.
    pub nets: usize,
    /// Original via counts (absolute).
    pub original: ViaCounts,
    /// Naive lifting increase (%) per via level.
    pub lifted_pct: [f64; 9],
    /// Proposed increase (%) per via level.
    pub proposed_pct: [f64; 9],
    /// Total-via increases (%), lifted then proposed.
    pub total_pct: (f64, f64),
}

/// Computes Table 2 for one superblue run.
pub fn table2(run: &SuperblueRun) -> Table2Row {
    let original = *run.original.routing.via_counts();
    let lifted = *run.lifted.routing.via_counts();
    let proposed = *run.protected.restored_routing.via_counts();
    let pct = |x: u64, b: u64| {
        if b == 0 {
            0.0
        } else {
            (x as f64 - b as f64) / b as f64 * 100.0
        }
    };
    Table2Row {
        name: run.name,
        nets: run.netlist.num_nets(),
        original,
        lifted_pct: lifted.percent_increase_vs(&original),
        proposed_pct: proposed.percent_increase_vs(&original),
        total_pct: (
            pct(lifted.total(), original.total()),
            pct(proposed.total(), original.total()),
        ),
    }
}

/// Table 3 row: crouting results per layout.
#[derive(Debug, Clone)]
pub struct Table3Row {
    /// Benchmark name.
    pub name: &'static str,
    /// Attack on the original layout.
    pub original: CroutingReport,
    /// Attack on the naively lifted layout.
    pub lifted: CroutingReport,
    /// Attack on the proposed (erroneous FEOL) layout.
    pub proposed: CroutingReport,
}

/// Computes Table 3 (crouting at the M5 split, boxes 15/30/45 tracks).
pub fn table3(run: &SuperblueRun) -> Table3Row {
    let cfg = CroutingConfig::default();
    let split_orig = split_layout(
        &run.netlist,
        &run.original.placement,
        &run.original.routing,
        5,
    );
    let split_lift = split_layout(&run.netlist, &run.lifted.placement, &run.lifted.routing, 5);
    let split_prop = split_layout(
        &run.protected.randomization.erroneous,
        &run.protected.placement,
        &run.protected.feol_routing,
        5,
    );
    Table3Row {
        name: run.name,
        original: crouting_attack(&run.netlist, &split_orig, &cfg),
        lifted: crouting_attack(&run.netlist, &split_lift, &cfg),
        // The proposed FEOL carries the erroneous netlist; candidate lists
        // are structural, so the erroneous layout is the right reference.
        proposed: crouting_attack(&run.protected.randomization.erroneous, &split_prop, &cfg),
    }
}

/// Security triple in percent.
#[derive(Debug, Clone, Copy, Default)]
pub struct Security {
    /// Correct connection rate (%).
    pub ccr: f64,
    /// Output error rate (%).
    pub oer: f64,
    /// Hamming distance (%).
    pub hd: f64,
}

/// Table 4/5 row: measured attack outcomes on every defense we implement.
#[derive(Debug, Clone)]
pub struct SecurityRow {
    /// Benchmark name.
    pub name: &'static str,
    /// Attack on the unprotected layout.
    pub original: Security,
    /// Attack on placement perturbation (our re-implementation of \[5\]/\[8\]).
    pub placement_perturbation: Security,
    /// Attack on pin swapping (our re-implementation of \[3\]).
    pub pin_swapping: Security,
    /// Attack on routing perturbation (our re-implementation of \[12\]).
    pub routing_perturbation: Security,
    /// Attack on the proposed defense; CCR restricted to protected nets.
    pub proposed: Security,
}

/// Attacks every defense on one ISCAS run, averaging over splits M3/M4/M5
/// exactly as the paper does. The comparison-defense layouts it builds
/// (placement perturbation, pin swapping, routing perturbation) and the
/// attacks all run inside `exec`, so a session's `--threads` budget
/// bounds this row's work like everything else.
pub fn security_row(run: &IscasRun, seed: u64, exec: &sm_exec::Budget) -> SecurityRow {
    let cfg = ProximityConfig::default();
    let attack = |placed: &Netlist, placement: &Placement, split: &SplitLayout| -> AttackOutcome {
        let mut rec = sm_exec::phase::Recorder::new();
        network_flow_attack_budgeted(&run.netlist, placed, placement, split, &cfg, exec, &mut rec)
            .expect("artifact budgets carry no deadline")
    };
    let splits: [u8; 3] = [3, 4, 5];
    let avg3 = |f: &mut dyn FnMut(u8) -> Security| -> Security {
        let mut acc = Security::default();
        for &s in &splits {
            let r = f(s);
            acc.ccr += r.ccr / 3.0;
            acc.oer += r.oer / 3.0;
            acc.hd += r.hd / 3.0;
        }
        acc
    };

    let attack_baseline = |layout: &sm_core::flow::BaselineLayout, split_layer: u8| {
        let split = split_layout(
            &run.netlist,
            &layout.placement,
            &layout.routing,
            split_layer,
        );
        let out = attack(&run.netlist, &layout.placement, &split);
        Security {
            ccr: out.ccr * 100.0,
            oer: out.metrics.oer * 100.0,
            hd: out.metrics.hd * 100.0,
        }
    };

    let util = 0.7;
    let mut f_orig = |s: u8| attack_baseline(&run.original, s);
    let original = avg3(&mut f_orig);

    let pp = placement_perturbation(&run.netlist, 0.3, 3, util, seed, exec);
    let mut f_pp = |s: u8| attack_baseline(&pp, s);
    let placement_perturbation = avg3(&mut f_pp);

    let ps = pin_swapping(&run.netlist, 0.5, util, seed, exec);
    let mut f_ps = |s: u8| attack_baseline(&ps, s);
    let pin_swapping = avg3(&mut f_ps);

    let rp = routing_perturbation(&run.netlist, 0.3, util, seed, exec);
    let mut f_rp = |s: u8| attack_baseline(&rp, s);
    let routing_perturbation = avg3(&mut f_rp);

    let swapped = run.protected.randomization.swapped_connections();
    let mut f_prop = |s: u8| {
        let split = split_layout(
            &run.protected.randomization.erroneous,
            &run.protected.placement,
            &run.protected.feol_routing,
            s,
        );
        let out = attack(
            &run.protected.randomization.erroneous,
            &run.protected.placement,
            &split,
        );
        // The paper reports CCR over the randomized connections.
        let ccr_protected = ccr_over_connections(&split, &out.pairs, &swapped);
        Security {
            ccr: ccr_protected * 100.0,
            oer: out.metrics.oer * 100.0,
            hd: out.metrics.hd * 100.0,
        }
    };
    let proposed = avg3(&mut f_prop);

    SecurityRow {
        name: run.name,
        original,
        placement_perturbation,
        pin_swapping,
        routing_perturbation,
        proposed,
    }
}

/// Table 6 row: upper-via increases with M8 correction cells.
#[derive(Debug, Clone, Copy)]
pub struct Table6Row {
    /// Benchmark name.
    pub name: &'static str,
    /// Measured Δ+V67 (%).
    pub dv67_pct: f64,
    /// Measured Δ+V78 (%).
    pub dv78_pct: f64,
}

/// Computes Table 6 from a superblue run (lift layer M8).
pub fn table6(run: &SuperblueRun) -> Table6Row {
    let original = run.original.routing.via_counts();
    let proposed = run.protected.restored_routing.via_counts();
    let pct = |m: u8| {
        let b = original.between(m);
        if b == 0 {
            0.0
        } else {
            (proposed.between(m) as f64 - b as f64) / b as f64 * 100.0
        }
    };
    Table6Row {
        name: run.name,
        dv67_pct: pct(6),
        dv78_pct: pct(7),
    }
}

/// Fig. 4 data: the raw distance samples (µm) for the three layouts.
#[derive(Debug, Clone)]
pub struct Fig4Data {
    /// Original layout distances per protected net connection.
    pub original: Vec<f64>,
    /// Naively lifted layout distances.
    pub lifted: Vec<f64>,
    /// Proposed layout (true pairs on the erroneous placement).
    pub proposed: Vec<f64>,
}

/// Computes Fig. 4 samples for one superblue run.
pub fn fig4(run: &SuperblueRun) -> Fig4Data {
    let swapped = run.protected.randomization.swapped_connections();
    Fig4Data {
        original: swapped_connection_distances_um(&run.netlist, &run.original.placement, &swapped),
        lifted: swapped_connection_distances_um(&run.netlist, &run.lifted.placement, &swapped),
        proposed: swapped_connection_distances_um(&run.netlist, &run.protected.placement, &swapped),
    }
}

/// Fig. 5 data: wirelength share per metal layer (%) for the randomized
/// nets, per layout.
#[derive(Debug, Clone)]
pub struct Fig5Row {
    /// Benchmark name.
    pub name: &'static str,
    /// Original layout shares, index 0 = M1.
    pub original: [f64; 10],
    /// Naively lifted shares.
    pub lifted: [f64; 10],
    /// Proposed shares.
    pub proposed: [f64; 10],
}

/// Computes Fig. 5 for one superblue run.
pub fn fig5(run: &SuperblueRun) -> Fig5Row {
    use sm_layout::analysis::wirelength_share_by_layer_for;
    let nets = &run.protected_nets;
    Fig5Row {
        name: run.name,
        original: wirelength_share_by_layer_for(&run.original.routing, nets.iter().copied()),
        lifted: wirelength_share_by_layer_for(&run.lifted.routing, nets.iter().copied()),
        proposed: wirelength_share_by_layer_for(
            &run.protected.restored_routing,
            nets.iter().copied(),
        ),
    }
}

/// Fig. 6 row: PPA overheads of the proposed scheme on one ISCAS design.
#[derive(Debug, Clone, Copy)]
pub struct Fig6Row {
    /// Benchmark name.
    pub name: &'static str,
    /// Area overhead (%) — zero by construction.
    pub area_pct: f64,
    /// Power overhead (%).
    pub power_pct: f64,
    /// Delay overhead (%).
    pub delay_pct: f64,
}

/// Computes Fig. 6 for one ISCAS run.
pub fn fig6(run: &IscasRun) -> Fig6Row {
    let o = run.protected.ppa_overhead;
    Fig6Row {
        name: run.name,
        area_pct: o.area_pct,
        power_pct: o.power_pct,
        delay_pct: o.delay_pct,
    }
}
