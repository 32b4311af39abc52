//! The end-to-end protection flow (Fig. 2 of the paper).
//!
//! ```text
//! HDL netlist ─► randomize (OER ≈ 100%, no loops)
//!             ─► place & route the erroneous netlist, lift swapped nets
//!             ─► embed correction cells (pins in M6/M8)
//!             ─► restore true connectivity in the BEOL, re-route
//!             ─► PPA within budget? otherwise drop swaps and repeat
//!             ─► strip correction cells, export protected layout
//! ```
//!
//! Two routing results are produced: the *FEOL routing* of the erroneous
//! netlist (what the untrusted fab manufactures and what attacks see) and
//! the *restored routing* of the true netlist on the same placement (the
//! chip as completed by the trusted BEOL facility; PPA is measured here).
//!
//! The overhead is charged against the original netlist's unprotected
//! layout, which is an input of [`protect_with`]: a caller that also
//! needs that layout (the "Original" rows) builds it once and passes
//! it in; [`protect`] builds it itself.

use crate::correction::{embed_correction_cells, CorrectionCell};
use crate::ppa::{evaluate, PpaOverhead, PpaReport};
use crate::randomize::{randomize, Randomization, RandomizeConfig};
use sm_layout::{
    Floorplan, Placement, PlacementEngine, RouteOptions, Router, RoutingResult, Technology,
};
use sm_netlist::Netlist;

/// Configuration of the protection flow.
#[derive(Debug, Clone)]
pub struct FlowConfig {
    /// Master seed (placement, routing tie-breaks, activity estimation).
    pub seed: u64,
    /// Placement utilization (the paper picks rates that avoid congestion).
    pub utilization: f64,
    /// Correction-cell pin layer: M6 for ISCAS-85-class, M8 for
    /// superblue-class designs.
    pub lift_layer: u8,
    /// Power/delay budget in percent (20% ISCAS-85, 5% superblue).
    pub ppa_budget_percent: f64,
    /// Randomization settings.
    pub randomize: RandomizeConfig,
    /// Budget-loop rounds: each round halves the swap count if the budget
    /// is exceeded.
    pub max_budget_rounds: usize,
}

impl FlowConfig {
    /// Paper settings for ISCAS-85 benchmarks: correction cells in M6,
    /// 20% PPA budget.
    pub fn iscas_default(seed: u64) -> Self {
        FlowConfig {
            seed,
            utilization: 0.7,
            lift_layer: 6,
            ppa_budget_percent: 20.0,
            randomize: RandomizeConfig::new(seed),
            max_budget_rounds: 3,
        }
    }

    /// Paper settings for superblue-class benchmarks: correction cells in
    /// M8, 5% PPA budget.
    pub fn superblue_default(seed: u64) -> Self {
        let mut randomize = RandomizeConfig::new(seed);
        // Large designs: bound the randomization effort; OER saturates
        // long before these caps.
        randomize.max_swaps = 2048;
        randomize.patterns = 2048;
        randomize.swaps_per_round = 64;
        FlowConfig {
            seed,
            utilization: 0.7,
            lift_layer: 8,
            ppa_budget_percent: 5.0,
            randomize,
            max_budget_rounds: 2,
        }
    }
}

/// An unprotected reference layout (used for baselines and overhead
/// accounting).
#[derive(Debug, Clone)]
pub struct BaselineLayout {
    /// Floorplan (shared outline with the protected design — zero area
    /// overhead by construction).
    pub floorplan: Floorplan,
    /// Cell placement.
    pub placement: Placement,
    /// Routing.
    pub routing: RoutingResult,
    /// PPA of this layout.
    pub ppa: PpaReport,
}

/// Everything the protection flow produces.
#[derive(Debug, Clone)]
pub struct ProtectedDesign {
    /// The randomization step (erroneous netlist + swap log + OER/HD).
    pub randomization: Randomization,
    /// The restored netlist (functionally identical to the original).
    pub restored: Netlist,
    /// Die outline (identical to the baseline's).
    pub floorplan: Floorplan,
    /// Placement of the erroneous netlist (shared by FEOL and restored
    /// routing — restoration only re-routes, never re-places).
    pub placement: Placement,
    /// Routing of the erroneous netlist with swapped nets lifted: the
    /// attacker-visible FEOL.
    pub feol_routing: RoutingResult,
    /// Routing of the true netlist on the same placement (FEOL wiring +
    /// BEOL correction wires): the manufactured chip.
    pub restored_routing: RoutingResult,
    /// The embedded correction cells (two per swap).
    pub correction_cells: Vec<CorrectionCell>,
    /// The unprotected baseline layout of the original netlist.
    pub baseline: BaselineLayout,
    /// PPA of the restored (final) design.
    pub ppa: PpaReport,
    /// Overhead vs the baseline.
    pub ppa_overhead: PpaOverhead,
}

impl ProtectedDesign {
    /// Nets protected by randomization (these are lifted and corrected).
    pub fn protected_nets(&self) -> Vec<sm_netlist::NetId> {
        self.randomization.protected_nets()
    }
}

/// Runs the full protection flow on `netlist` with the process-global
/// thread budget: places and routes the unprotected baseline
/// ([`original_layout`](crate::baselines::original_layout) at
/// [`FlowConfig::utilization`] and [`FlowConfig::seed`]), then runs
/// [`protect_with`] against it. Callers that already hold that layout
/// (the campaign engine's bundles) call [`protect_with`] directly and
/// skip the second place and route.
///
/// Deterministic per [`FlowConfig::seed`]. The budget loop drops half of
/// the committed swaps per round while the power/delay overhead exceeds
/// [`FlowConfig::ppa_budget_percent`] (mirroring the "budget expended?"
/// decision in Fig. 2).
///
/// # Panics
///
/// Panics if the netlist is empty.
pub fn protect(netlist: &Netlist, config: &FlowConfig) -> ProtectedDesign {
    let baseline = crate::baselines::original_layout(netlist, config.utilization, config.seed);
    protect_with(
        netlist,
        config,
        &baseline,
        &sm_exec::Budget::default(),
        &mut sm_exec::phase::Recorder::new(),
    )
}

/// The protection flow against a prebuilt unprotected `baseline`, with
/// the flow's parallel inner work (bisection anchor sweeps during
/// placement) confined to `exec`. The budget changes wall-clock only:
/// the produced design is bit-identical across thread counts.
///
/// `baseline` must be the original netlist's layout as
/// [`original_layout`](crate::baselines::original_layout) builds it at
/// [`FlowConfig::utilization`] and [`FlowConfig::seed`] (or its decoded
/// copy): the flow takes the die outline, and the placement, routing
/// and PPA its overhead is charged against, from it, and stores a copy
/// in [`ProtectedDesign::baseline`]. Given that layout, the result is
/// byte-identical to [`protect`]. Debug builds assert that its
/// floorplan is the one `config.utilization` yields.
///
/// Phase spans go to `rec`: `protect-place` (total placement wall-clock
/// across every build the budget loop runs), `protect-place-fm` (the
/// slice of it spent in FM refinement) and `protect-randomize` (the
/// swap search with its OER checks). Recording is side-band
/// observability — pass a fresh [`Recorder`](sm_exec::phase::Recorder)
/// to discard it.
///
/// If `exec`'s token fires mid-flow, the build aborts at the next
/// result-neutral checkpoint (between FM passes, between bisection
/// levels, between routed nets) by unwinding with
/// [`sm_exec::Cancelled`] — the campaign engine's job isolation maps
/// that unwind to the timed-out outcome. A flow that completes is
/// byte-identical whether or not a deadline was armed.
pub fn protect_with(
    netlist: &Netlist,
    config: &FlowConfig,
    baseline: &BaselineLayout,
    exec: &sm_exec::Budget,
    rec: &mut sm_exec::phase::Recorder,
) -> ProtectedDesign {
    let meter = sm_layout::PlaceMeter::shared();
    let out = protect_impl(netlist, config, baseline, exec, &meter, rec);
    drain_place_spans(&meter, rec, "protect-place", "protect-place-fm");
    out
}

/// Drains `meter` into `rec` under the given span names. Shared by the
/// flow and baseline builders.
pub(crate) fn drain_place_spans(
    meter: &sm_layout::PlaceMeter,
    rec: &mut sm_exec::phase::Recorder,
    total_name: &'static str,
    fm_name: &'static str,
) {
    let (place_ms, fm_ms) = meter.drain_ms();
    rec.add(total_name, place_ms);
    rec.add(fm_name, fm_ms);
}

fn protect_impl(
    netlist: &Netlist,
    config: &FlowConfig,
    baseline: &BaselineLayout,
    exec: &sm_exec::Budget,
    meter: &std::sync::Arc<sm_layout::PlaceMeter>,
    rec: &mut sm_exec::phase::Recorder,
) -> ProtectedDesign {
    let tech = Technology::nangate45_10lm();
    let engine = PlacementEngine::new(config.seed)
        .with_budget(exec.clone())
        .with_meter(meter.clone());
    let router = Router::new(&tech);

    // The baseline fixes the shared die outline.
    let fp = &baseline.floorplan;
    debug_assert_eq!(
        *fp,
        Floorplan::for_netlist(netlist, &tech, config.utilization),
        "baseline was laid out at a different utilization"
    );

    // Randomize once at full strength; the budget loop trims the swap log.
    let full = rec.time("protect-randomize", || {
        randomize(netlist, &config.randomize)
    });
    let mut keep = full.swaps.len();
    let mut rounds = 0;
    loop {
        let randomization = truncate_randomization(netlist, &full, keep);
        let design = build_layout(
            config,
            &tech,
            fp,
            &engine,
            &router,
            randomization,
            baseline.clone(),
            exec,
        );
        let within = design.ppa_overhead.worst_pct() <= config.ppa_budget_percent;
        rounds += 1;
        if within || keep <= 1 || rounds >= config.max_budget_rounds {
            return design;
        }
        keep /= 2;
    }
}

/// Re-derives a [`Randomization`] with only the first `keep` swaps.
fn truncate_randomization(original: &Netlist, full: &Randomization, keep: usize) -> Randomization {
    if keep >= full.swaps.len() {
        return full.clone();
    }
    let mut erroneous = original.clone();
    for s in &full.swaps[..keep] {
        erroneous
            .move_sink(s.net_a, s.sink_a, s.net_b)
            .expect("replaying a valid swap log");
        erroneous
            .move_sink(s.net_b, s.sink_b, s.net_a)
            .expect("replaying a valid swap log");
    }
    Randomization {
        erroneous,
        swaps: full.swaps[..keep].to_vec(),
        oer_achieved: full.oer_achieved, // re-measured by callers if needed
        hd_achieved: full.hd_achieved,
    }
}

#[allow(clippy::too_many_arguments)]
fn build_layout(
    config: &FlowConfig,
    tech: &Technology,
    fp: &Floorplan,
    engine: &PlacementEngine,
    router: &Router<'_>,
    randomization: Randomization,
    baseline: BaselineLayout,
    exec: &sm_exec::Budget,
) -> ProtectedDesign {
    // Place the erroneous netlist: every FEOL hint now describes the wrong
    // design.
    let placement = engine
        .try_place(&randomization.erroneous, fp)
        .unwrap_or_else(|| sm_exec::abort_cancelled());
    let protected = randomization.protected_nets();

    // Correction cells sit on the lifted nets, pins on the lift layer's
    // track grid.
    let pitch = tech.layer(config.lift_layer).pitch_dbu;
    let correction_cells = embed_correction_cells(
        &randomization.erroneous,
        &placement,
        &randomization.swaps,
        config.lift_layer,
        pitch,
    );

    // FEOL routing: erroneous connectivity, swapped nets lifted.
    let mut feol_opts = RouteOptions::default();
    for &net in &protected {
        feol_opts.lift.insert(net, config.lift_layer);
    }
    let feol_routing = router
        .try_route(
            &randomization.erroneous,
            &placement,
            fp,
            &feol_opts,
            exec.cancel_token(),
        )
        .unwrap_or_else(|| sm_exec::abort_cancelled());

    // BEOL restoration: true connectivity on the same placement; the
    // protected nets now route between correction-cell pairs in the BEOL.
    let restored = randomization.restore();
    let mut restored_opts = RouteOptions::default();
    for &net in &protected {
        restored_opts.lift.insert(net, config.lift_layer);
    }
    let restored_routing = router
        .try_route(
            &restored,
            &placement,
            fp,
            &restored_opts,
            exec.cancel_token(),
        )
        .unwrap_or_else(|| sm_exec::abort_cancelled());

    let ppa = evaluate(&restored, &restored_routing, fp, tech, config.seed);
    let ppa_overhead = PpaOverhead::between(&baseline.ppa, &ppa);
    ProtectedDesign {
        randomization,
        restored,
        floorplan: fp.clone(),
        placement,
        feol_routing,
        restored_routing,
        correction_cells,
        baseline,
        ppa,
        ppa_overhead,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sm_netlist::parse::bench::{parse_bench, C17_BENCH};
    use sm_netlist::Library;
    use sm_sim::equiv::{check, Equivalence};

    fn c17() -> Netlist {
        parse_bench("c17", C17_BENCH, &Library::nangate45()).unwrap()
    }

    #[test]
    fn flow_produces_equivalent_restored_netlist() {
        let n = c17();
        let p = protect(&n, &FlowConfig::iscas_default(1));
        assert_eq!(
            check(&n, &p.restored, 200_000).unwrap(),
            Equivalence::Equivalent
        );
    }

    #[test]
    fn zero_area_overhead() {
        let n = c17();
        let p = protect(&n, &FlowConfig::iscas_default(2));
        assert_eq!(p.ppa_overhead.area_pct, 0.0);
        assert_eq!(
            p.floorplan.die_area_um2(),
            p.baseline.floorplan.die_area_um2()
        );
    }

    #[test]
    fn protected_nets_are_lifted_in_both_routings() {
        let n = c17();
        let p = protect(&n, &FlowConfig::iscas_default(3));
        for net in p.protected_nets() {
            if p.randomization.erroneous.net(net).degree() >= 2 {
                assert!(
                    p.feol_routing.net_max_layer(net) >= 6,
                    "net {net} not lifted in FEOL"
                );
            }
            if p.restored.net(net).degree() >= 2 {
                assert!(
                    p.restored_routing.net_max_layer(net) >= 6,
                    "net {net} not lifted in restored routing"
                );
            }
        }
    }

    #[test]
    fn correction_cells_come_in_pairs() {
        let n = c17();
        let p = protect(&n, &FlowConfig::iscas_default(4));
        assert_eq!(p.correction_cells.len(), p.randomization.swaps.len() * 2);
    }

    #[test]
    fn overhead_is_finite_and_reported() {
        let n = c17();
        let p = protect(&n, &FlowConfig::iscas_default(5));
        assert!(p.ppa_overhead.power_pct.is_finite());
        assert!(p.ppa_overhead.delay_pct.is_finite());
        assert!(p.ppa.power_uw > 0.0);
    }

    #[test]
    fn flow_is_deterministic() {
        let n = c17();
        let a = protect(&n, &FlowConfig::iscas_default(6));
        let b = protect(&n, &FlowConfig::iscas_default(6));
        assert_eq!(a.randomization.swaps, b.randomization.swaps);
        assert_eq!(a.ppa.delay_ps, b.ppa.delay_ps);
        assert_eq!(
            a.feol_routing.via_counts().total(),
            b.feol_routing.via_counts().total()
        );
    }
}

#[cfg(test)]
mod pins {
    //! Byte pins of the protection flow and naive lifting on generated
    //! ISCAS designs: the designs must not move a byte whether a flow
    //! lays the original netlist out itself or takes that layout from
    //! its caller.

    use super::*;
    use crate::baselines::{naive_lifting, original_layout};
    use sm_benchgen::iscas::{self, IscasProfile};
    use sm_codec::{encode_to_vec, frame::fnv1a};

    /// `(design, seed, fnv1a(protect), fnv1a(naive_lifting))`.
    const PINS: [(&str, u64, u64, u64); 4] = [
        ("c432", 1, 0x2151bdae9633803c, 0x3d54378d85f065de),
        ("c432", 2, 0xb48ee3703857d08e, 0xf0f0ca8996b889bb),
        ("c880", 1, 0x57d773ec903e3c42, 0xc1c0020d1e9dcfa5),
        ("c880", 2, 0xcaa51b2bf1084517, 0x009691bf9277900f),
    ];

    fn design(name: &str, seed: u64) -> Netlist {
        let profile = match name {
            "c432" => IscasProfile::c432(),
            _ => IscasProfile::c880(),
        };
        iscas::generate(&profile, seed)
    }

    #[test]
    fn protect_and_naive_lifting_bytes_are_pinned() {
        for (name, seed, protect_fnv, lift_fnv) in PINS {
            let n = design(name, seed);
            let cfg = FlowConfig::iscas_default(seed);
            let p = protect(&n, &cfg);
            let lifted = naive_lifting(
                &n,
                &p.protected_nets(),
                cfg.lift_layer,
                cfg.utilization,
                seed,
            );
            assert_eq!(fnv1a(&encode_to_vec(&p)), protect_fnv, "{name} seed {seed}");
            assert_eq!(
                fnv1a(&encode_to_vec(&lifted)),
                lift_fnv,
                "{name} seed {seed}"
            );
        }
    }

    #[test]
    fn protect_with_a_prebuilt_baseline_equals_protect() {
        for (name, seed, _, _) in PINS {
            let n = design(name, seed);
            let cfg = FlowConfig::iscas_default(seed);
            let baseline = original_layout(&n, cfg.utilization, cfg.seed);
            let mut rec = sm_exec::phase::Recorder::new();
            let p = protect_with(&n, &cfg, &baseline, &sm_exec::Budget::default(), &mut rec);
            assert_eq!(
                encode_to_vec(&p),
                encode_to_vec(&protect(&n, &cfg)),
                "{name} seed {seed}"
            );
            assert_eq!(
                encode_to_vec(&p.baseline),
                encode_to_vec(&baseline),
                "{name} seed {seed}"
            );
            let names: Vec<&str> = rec.spans().iter().map(|&(n, _)| n).collect();
            assert_eq!(
                names,
                ["protect-randomize", "protect-place", "protect-place-fm"]
            );
        }
    }
}
