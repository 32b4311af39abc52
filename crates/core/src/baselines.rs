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
//! Each places and routes through the crate's one layout build, inside
//! the caller's [`sm_exec::Budget`], and records one span per step into
//! the caller's [`Recorder`]: `<p>-place`, `<p>-place-fm` (its FM
//! slice), `<p>-route` and `<p>-ppa`, where `<p>` is `original`, `lift`
//! (which only routes), `place-perturb`, `pin-swap` or `route-perturb`.
//! Placement's parallel inner work stays within the budget's thread
//! allotment (bit-identical output at any thread count). If the
//! budget's token fires mid-build they abort at the next result-neutral
//! checkpoint by unwinding with [`sm_exec::Cancelled`] (see
//! [`sm_exec::abort_cancelled`]) — the campaign engine's job isolation
//! catches that unwind and records the job timed-out. A build that
//! completes is byte-identical whether or not a token was armed.

use crate::flow::BaselineLayout;
use crate::layout::{die, spans, Build};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use sm_exec::phase::Recorder;
use sm_exec::Budget;
use sm_layout::{Point, RouteOptions};
use sm_netlist::{NetId, Netlist};

/// Places and routes the plain, unprotected netlist (the "Original" rows
/// of the paper's tables).
pub fn original_layout(
    netlist: &Netlist,
    utilization: f64,
    seed: u64,
    exec: &Budget,
    rec: &mut Recorder,
) -> BaselineLayout {
    let mut build = Build::new(spans!("original"), die(netlist, utilization), seed, exec);
    let placement = build.place(netlist);
    build.layout(netlist, placement, &RouteOptions::default(), rec)
}

/// Naive lifting: route the original netlist but lift `nets` to
/// `lift_layer` (same net set as the protected design, per Table 2's "for
/// a fair comparison, we randomize the same set of nets"). Lifting
/// changes the routing only, so this takes the `original` layout of
/// `netlist` ([`original_layout`] at the same seed, or its decoded copy),
/// keeps its floorplan and placement, re-routes with `nets` lifted to
/// `lift_layer` and re-evaluates PPA (activity seeded by `seed`). Places
/// nothing, so it records only `lift-route` and `lift-ppa`.
pub fn naive_lifting(
    netlist: &Netlist,
    original: &BaselineLayout,
    nets: &[NetId],
    lift_layer: u8,
    seed: u64,
    exec: &Budget,
    rec: &mut Recorder,
) -> BaselineLayout {
    let mut opts = RouteOptions::default();
    for &n in nets {
        opts.lift.insert(n, lift_layer);
    }
    Build::new(spans!("lift"), original.floorplan.clone(), seed, exec).layout(
        netlist,
        original.placement.clone(),
        &opts,
        rec,
    )
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
    exec: &Budget,
    rec: &mut Recorder,
) -> BaselineLayout {
    let mut build = Build::new(
        spans!("place-perturb"),
        die(netlist, utilization),
        seed,
        exec,
    );
    let mut placement = build.place(netlist);
    let fp = &build.floorplan;
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
    build.legalize(&mut placement);
    build.layout(netlist, placement, &RouteOptions::default(), rec)
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
    exec: &Budget,
    rec: &mut Recorder,
) -> BaselineLayout {
    let mut build = Build::new(spans!("pin-swap"), die(netlist, utilization), seed, exec);
    let mut placement = build.place(netlist);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x517cc1b727220a95);
    let num_out = netlist.output_ports().len();
    let mut indices: Vec<usize> = (0..num_out).collect();
    indices.shuffle(&mut rng);
    let k = ((num_out as f64) * swap_fraction.clamp(0.0, 1.0)).round() as usize;
    // Swap pad positions pairwise among the selected outputs.
    for pair in indices[..k].chunks_exact(2) {
        placement.swap_output_positions(pair[0], pair[1]);
    }
    build.layout(netlist, placement, &RouteOptions::default(), rec)
}

/// Routing perturbation \[12\]: elevate a random `fraction` of multi-pin
/// nets by two layers (detours without netlist changes).
pub fn routing_perturbation(
    netlist: &Netlist,
    fraction: f64,
    utilization: f64,
    seed: u64,
    exec: &Budget,
    rec: &mut Recorder,
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
    let mut build = Build::new(
        spans!("route-perturb"),
        die(netlist, utilization),
        seed,
        exec,
    );
    let placement = build.place(netlist);
    build.layout(netlist, placement, &opts, rec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sm_netlist::parse::bench::{parse_bench, C17_BENCH};
    use sm_netlist::Library;

    fn c17() -> Netlist {
        parse_bench("c17", C17_BENCH, &Library::nangate45()).unwrap()
    }

    fn serial() -> Budget {
        Budget::with_threads(Some(1))
    }

    fn original(n: &Netlist, seed: u64) -> BaselineLayout {
        original_layout(n, 0.6, seed, &serial(), &mut Recorder::new())
    }

    /// The layout is legal and timed: one span per step, with the FM
    /// slice bounded by the placement total.
    #[test]
    fn original_layout_is_clean() {
        let n = c17();
        let mut rec = Recorder::new();
        let b = original_layout(&n, 0.6, 1, &serial(), &mut rec);
        assert!(b.placement.is_legal(&b.floorplan));
        assert!(b.ppa.delay_ps > 0.0);
        let spans = rec.spans();
        let names: Vec<&str> = spans.iter().map(|&(name, _)| name).collect();
        assert_eq!(
            names,
            [
                "original-place",
                "original-place-fm",
                "original-route",
                "original-ppa"
            ]
        );
        let place_ms = spans[0].1;
        let fm_ms = spans[1].1;
        assert!(place_ms > 0.0, "placement took no wall-clock?");
        assert!(
            (0.0..=place_ms).contains(&fm_ms),
            "FM slice {fm_ms}ms exceeds total placement {place_ms}ms"
        );
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
        let b = naive_lifting(
            &n,
            &original(&n, 1),
            &nets,
            6,
            1,
            &serial(),
            &mut Recorder::new(),
        );
        for &net in &nets {
            assert!(b.routing.net_max_layer(net) >= 6);
        }
    }

    #[test]
    fn perturbation_changes_placement_but_stays_legal() {
        let n = c17();
        let plain = original(&n, 2);
        let pert = placement_perturbation(&n, 0.5, 3, 0.6, 2, &serial(), &mut Recorder::new());
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
        let plain = original(&n, 3);
        let swapped = pin_swapping(&n, 1.0, 0.6, 3, &serial(), &mut Recorder::new());
        let changed = (0..n.output_ports().len())
            .filter(|&i| plain.placement.output_position(i) != swapped.placement.output_position(i))
            .count();
        assert_eq!(changed, 2, "c17 has two outputs; both should swap");
    }

    #[test]
    fn routing_perturbation_elevates_some_nets() {
        let n = c17();
        let plain = original(&n, 4);
        let pert = routing_perturbation(&n, 1.0, 0.6, 4, &serial(), &mut Recorder::new());
        let plain_hi: u64 = (4..=9).map(|m| plain.routing.via_counts().between(m)).sum();
        let pert_hi: u64 = (4..=9).map(|m| pert.routing.via_counts().between(m)).sum();
        assert!(pert_hi >= plain_hi);
    }

    #[test]
    fn baselines_are_deterministic() {
        let n = c17();
        let a = placement_perturbation(&n, 0.5, 2, 0.6, 9, &serial(), &mut Recorder::new());
        let b = placement_perturbation(&n, 0.5, 2, 0.6, 9, &serial(), &mut Recorder::new());
        for (id, _) in n.cells() {
            assert_eq!(a.placement.cell_origin(id), b.placement.cell_origin(id));
        }
    }
}
