//! Baseline layouts for the comparative study:
//!
//! * [`naive_lifting`] — the paper's own control: the *same* lifting
//!   machinery (naive lifting cells) applied to the *original* netlist on
//!   its original placement, so the wiring moves up the stack but the
//!   connectivity hints stay true.
//! * [`placement_perturbation`] — the defense of Wang et al. \[5\] /
//!   Sengupta et al. \[8\]: randomly displace a fraction of gates before
//!   routing.
//! * [`pin_swapping`] — Rajendran et al. \[3\]: swap I/O pin locations to
//!   mislead attacks on the system-level interconnect.
//! * [`routing_perturbation`] — Wang et al. \[12\]: post-route detours by
//!   elevating a fraction of nets a couple of layers.
//!
//! All functions are deterministic per seed and return a
//! [`BaselineLayout`] directly comparable with the protected design.
//!
//! The `_with` variants run inside an explicit [`sm_exec::Budget`]. If
//! the budget's token fires mid-build they abort at the next
//! result-neutral checkpoint by unwinding with [`sm_exec::Cancelled`]
//! (see [`sm_exec::abort_cancelled`]) — the campaign engine's job
//! isolation catches that unwind and records the job timed-out. A build
//! that completes is byte-identical whether or not a token was armed.

use crate::flow::BaselineLayout;
use crate::ppa::evaluate;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use sm_layout::{Floorplan, PlacementEngine, Point, RouteOptions, Router, Technology};
use sm_netlist::{NetId, Netlist};

/// Places and routes the plain, unprotected netlist (the "Original" rows
/// of the paper's tables) with the process-global thread budget.
pub fn original_layout(netlist: &Netlist, utilization: f64, seed: u64) -> BaselineLayout {
    original_layout_with(
        netlist,
        utilization,
        seed,
        &sm_exec::Budget::default(),
        &mut sm_exec::phase::Recorder::new(),
    )
}

/// [`original_layout`], with placement's parallel inner work confined to
/// `exec` (bit-identical output; the budget bounds worker threads only)
/// and placement phase spans recorded into `rec` (`original-place` /
/// `original-place-fm`).
pub fn original_layout_with(
    netlist: &Netlist,
    utilization: f64,
    seed: u64,
    exec: &sm_exec::Budget,
    rec: &mut sm_exec::phase::Recorder,
) -> BaselineLayout {
    let meter = sm_layout::PlaceMeter::shared();
    let out = layout_with_options(
        netlist,
        utilization,
        seed,
        &RouteOptions::default(),
        exec,
        Some(&meter),
    );
    crate::flow::drain_place_spans(&meter, rec, "original-place", "original-place-fm");
    out
}

/// Naive lifting: route the original netlist but lift `nets` to
/// `lift_layer` (same net set as the protected design, per Table 2's "for
/// a fair comparison, we randomize the same set of nets"). Lifting
/// changes the routing only, so this lays out the original netlist
/// ([`original_layout`]) and re-routes its placement through
/// [`naive_lifting_with`].
pub fn naive_lifting(
    netlist: &Netlist,
    nets: &[NetId],
    lift_layer: u8,
    utilization: f64,
    seed: u64,
) -> BaselineLayout {
    let original = original_layout(netlist, utilization, seed);
    naive_lifting_with(
        netlist,
        &original,
        nets,
        lift_layer,
        seed,
        &sm_exec::Budget::default(),
    )
}

/// [`naive_lifting`] over a prebuilt `original` layout of `netlist`
/// ([`original_layout`] at the same seed, or its decoded copy): keeps
/// its floorplan and placement, re-routes with `nets` lifted to
/// `lift_layer` and re-evaluates PPA (activity seeded by `seed`). Places
/// nothing, so it records no placement spans; `exec` carries the
/// routing's cancel token.
pub fn naive_lifting_with(
    netlist: &Netlist,
    original: &BaselineLayout,
    nets: &[NetId],
    lift_layer: u8,
    seed: u64,
    exec: &sm_exec::Budget,
) -> BaselineLayout {
    let mut opts = RouteOptions::default();
    for &n in nets {
        opts.lift.insert(n, lift_layer);
    }
    let tech = Technology::nangate45_10lm();
    let routing = Router::new(&tech)
        .try_route(
            netlist,
            &original.placement,
            &original.floorplan,
            &opts,
            exec.cancel_token(),
        )
        .unwrap_or_else(|| sm_exec::abort_cancelled());
    let ppa = evaluate(netlist, &routing, &original.floorplan, &tech, seed);
    BaselineLayout {
        floorplan: original.floorplan.clone(),
        placement: original.placement.clone(),
        routing,
        ppa,
    }
}

/// Placement perturbation \[5\]/\[8\]: displace `fraction` of the cells by a
/// random offset of up to `radius_rows` rows in each direction, then
/// re-legalize and route.
pub fn placement_perturbation(
    netlist: &Netlist,
    fraction: f64,
    radius_rows: i64,
    utilization: f64,
    seed: u64,
) -> BaselineLayout {
    placement_perturbation_with(
        netlist,
        fraction,
        radius_rows,
        utilization,
        seed,
        &sm_exec::Budget::default(),
    )
}

/// [`placement_perturbation`], confined to the `exec` thread budget.
pub fn placement_perturbation_with(
    netlist: &Netlist,
    fraction: f64,
    radius_rows: i64,
    utilization: f64,
    seed: u64,
    exec: &sm_exec::Budget,
) -> BaselineLayout {
    let tech = Technology::nangate45_10lm();
    let fp = Floorplan::for_netlist(netlist, &tech, utilization);
    let engine = PlacementEngine::new(seed).with_budget(exec.clone());
    let mut placement = engine
        .try_place(netlist, &fp)
        .unwrap_or_else(|| sm_exec::abort_cancelled());
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e3779b97f4a7c15);
    let mut cells: Vec<_> = netlist.cells().map(|(id, _)| id).collect();
    cells.shuffle(&mut rng);
    let k = ((cells.len() as f64) * fraction.clamp(0.0, 1.0)).round() as usize;
    let radius = radius_rows.max(1) * fp.row_height();
    for &c in &cells[..k] {
        let o = placement.cell_origin(c);
        let p = Point::new(
            o.x + rng.gen_range(-radius..=radius),
            o.y + rng.gen_range(-radius..=radius),
        );
        placement.set_cell_origin(c, fp.core().clamp(p));
    }
    engine.legalize(&mut placement, &fp);
    let router = Router::new(&tech);
    let routing = router
        .try_route(
            netlist,
            &placement,
            &fp,
            &RouteOptions::default(),
            exec.cancel_token(),
        )
        .unwrap_or_else(|| sm_exec::abort_cancelled());
    let ppa = evaluate(netlist, &routing, &fp, &tech, seed);
    BaselineLayout {
        floorplan: fp,
        placement,
        routing,
        ppa,
    }
}

/// Pin swapping \[3\]: permute the pad locations of primary outputs (the
/// system-level interconnect), leaving gate placement untouched. Only the
/// port-level hints are perturbed, which is why the original attack still
/// recovers ~87% of connections.
pub fn pin_swapping(
    netlist: &Netlist,
    swap_fraction: f64,
    utilization: f64,
    seed: u64,
) -> BaselineLayout {
    pin_swapping_with(
        netlist,
        swap_fraction,
        utilization,
        seed,
        &sm_exec::Budget::default(),
    )
}

/// [`pin_swapping`], confined to the `exec` thread budget.
pub fn pin_swapping_with(
    netlist: &Netlist,
    swap_fraction: f64,
    utilization: f64,
    seed: u64,
    exec: &sm_exec::Budget,
) -> BaselineLayout {
    let tech = Technology::nangate45_10lm();
    let fp = Floorplan::for_netlist(netlist, &tech, utilization);
    let engine = PlacementEngine::new(seed).with_budget(exec.clone());
    let mut placement = engine
        .try_place(netlist, &fp)
        .unwrap_or_else(|| sm_exec::abort_cancelled());
    let mut rng = StdRng::seed_from_u64(seed ^ 0x517cc1b727220a95);
    let num_out = netlist.output_ports().len();
    let mut indices: Vec<usize> = (0..num_out).collect();
    indices.shuffle(&mut rng);
    let k = ((num_out as f64) * swap_fraction.clamp(0.0, 1.0)).round() as usize;
    // Swap pad positions pairwise among the selected outputs.
    for pair in indices[..k].chunks_exact(2) {
        placement.swap_output_positions(pair[0], pair[1]);
    }
    let router = Router::new(&tech);
    let routing = router
        .try_route(
            netlist,
            &placement,
            &fp,
            &RouteOptions::default(),
            exec.cancel_token(),
        )
        .unwrap_or_else(|| sm_exec::abort_cancelled());
    let ppa = evaluate(netlist, &routing, &fp, &tech, seed);
    BaselineLayout {
        floorplan: fp,
        placement,
        routing,
        ppa,
    }
}

/// Routing perturbation \[12\]: elevate a random `fraction` of multi-pin
/// nets by two layers (detours without netlist changes).
pub fn routing_perturbation(
    netlist: &Netlist,
    fraction: f64,
    utilization: f64,
    seed: u64,
) -> BaselineLayout {
    routing_perturbation_with(
        netlist,
        fraction,
        utilization,
        seed,
        &sm_exec::Budget::default(),
    )
}

/// [`routing_perturbation`], confined to the `exec` thread budget.
pub fn routing_perturbation_with(
    netlist: &Netlist,
    fraction: f64,
    utilization: f64,
    seed: u64,
    exec: &sm_exec::Budget,
) -> BaselineLayout {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x2545f4914f6cdd1d);
    let mut nets: Vec<NetId> = netlist
        .nets()
        .filter(|(_, n)| n.degree() >= 2)
        .map(|(id, _)| id)
        .collect();
    nets.shuffle(&mut rng);
    let k = ((nets.len() as f64) * fraction.clamp(0.0, 1.0)).round() as usize;
    let mut opts = RouteOptions::default();
    for &n in &nets[..k] {
        // Elevate to the mid stack (M4/M5): detours, not full lifting.
        opts.lift.insert(n, 4);
    }
    layout_with_options(netlist, utilization, seed, &opts, exec, None)
}

fn layout_with_options(
    netlist: &Netlist,
    utilization: f64,
    seed: u64,
    opts: &RouteOptions,
    exec: &sm_exec::Budget,
    meter: Option<&std::sync::Arc<sm_layout::PlaceMeter>>,
) -> BaselineLayout {
    let tech = Technology::nangate45_10lm();
    let fp = Floorplan::for_netlist(netlist, &tech, utilization);
    let mut engine = PlacementEngine::new(seed).with_budget(exec.clone());
    if let Some(meter) = meter {
        engine = engine.with_meter(meter.clone());
    }
    let placement = engine
        .try_place(netlist, &fp)
        .unwrap_or_else(|| sm_exec::abort_cancelled());
    let routing = Router::new(&tech)
        .try_route(netlist, &placement, &fp, opts, exec.cancel_token())
        .unwrap_or_else(|| sm_exec::abort_cancelled());
    let ppa = evaluate(netlist, &routing, &fp, &tech, seed);
    BaselineLayout {
        floorplan: fp,
        placement,
        routing,
        ppa,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sm_netlist::parse::bench::{parse_bench, C17_BENCH};
    use sm_netlist::Library;

    fn c17() -> Netlist {
        parse_bench("c17", C17_BENCH, &Library::nangate45()).unwrap()
    }

    #[test]
    fn original_layout_is_clean() {
        let n = c17();
        let b = original_layout(&n, 0.6, 1);
        assert!(b.placement.is_legal(&b.floorplan));
        assert!(b.ppa.delay_ps > 0.0);
    }

    #[test]
    fn naive_lifting_raises_nets() {
        let n = c17();
        let nets: Vec<NetId> = n
            .nets()
            .filter(|(_, net)| net.degree() >= 2)
            .map(|(id, _)| id)
            .take(3)
            .collect();
        let b = naive_lifting(&n, &nets, 6, 0.6, 1);
        for &net in &nets {
            assert!(b.routing.net_max_layer(net) >= 6);
        }
    }

    /// Metering is pure observability: the budgeted builder produces the
    /// same layout as the convenience form and records a placement span
    /// pair with the FM slice bounded by the total.
    #[test]
    fn traced_builders_match_untraced_and_record_spans() {
        let n = c17();
        let exec = sm_exec::Budget::default();
        let plain = original_layout(&n, 0.6, 7);
        let mut rec = sm_exec::phase::Recorder::new();
        let traced = original_layout_with(&n, 0.6, 7, &exec, &mut rec);
        assert_eq!(plain.placement, traced.placement);
        assert_eq!(plain.ppa.delay_ps, traced.ppa.delay_ps);
        let spans = rec.spans();
        let names: Vec<&str> = spans.iter().map(|&(name, _)| name).collect();
        assert_eq!(names, ["original-place", "original-place-fm"]);
        let place_ms = spans[0].1;
        let fm_ms = spans[1].1;
        assert!(place_ms > 0.0, "placement took no wall-clock?");
        assert!(
            (0.0..=place_ms).contains(&fm_ms),
            "FM slice {fm_ms}ms exceeds total placement {place_ms}ms"
        );
    }

    #[test]
    fn perturbation_changes_placement_but_stays_legal() {
        let n = c17();
        let plain = original_layout(&n, 0.6, 2);
        let pert = placement_perturbation(&n, 0.5, 3, 0.6, 2);
        assert!(pert.placement.is_legal(&pert.floorplan));
        let moved = n
            .cells()
            .filter(|(id, _)| plain.placement.cell_origin(*id) != pert.placement.cell_origin(*id))
            .count();
        assert!(moved > 0, "perturbation moved no cells");
    }

    #[test]
    fn pin_swapping_permutes_output_pads() {
        let n = c17();
        let plain = original_layout(&n, 0.6, 3);
        let swapped = pin_swapping(&n, 1.0, 0.6, 3);
        let changed = (0..n.output_ports().len())
            .filter(|&i| plain.placement.output_position(i) != swapped.placement.output_position(i))
            .count();
        assert_eq!(changed, 2, "c17 has two outputs; both should swap");
    }

    #[test]
    fn routing_perturbation_elevates_some_nets() {
        let n = c17();
        let plain = original_layout(&n, 0.6, 4);
        let pert = routing_perturbation(&n, 1.0, 0.6, 4);
        let plain_hi: u64 = (4..=9).map(|m| plain.routing.via_counts().between(m)).sum();
        let pert_hi: u64 = (4..=9).map(|m| pert.routing.via_counts().between(m)).sum();
        assert!(pert_hi >= plain_hi);
    }

    #[test]
    fn baselines_are_deterministic() {
        let n = c17();
        let a = placement_perturbation(&n, 0.5, 2, 0.6, 9);
        let b = placement_perturbation(&n, 0.5, 2, 0.6, 9);
        for (id, _) in n.cells() {
            assert_eq!(a.placement.cell_origin(id), b.placement.cell_origin(id));
        }
    }
}
