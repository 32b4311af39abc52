//! The network-flow proximity attack of Wang et al. (DAC'16).
//!
//! The attacker holds the FEOL: all gates, the placement, wiring up to the
//! split layer, and the dangling via stacks (vpins) of every cut net. The
//! attack reconnects each sink vpin to a driver vpin by minimizing a cost
//! combining the hints the paper lists:
//!
//! 1. physical proximity of the dangling pins,
//! 2. avoidance of combinational loops (a loop would be an invalid design),
//! 3. load-capacitance constraints (a driver's fanout capacitance should
//!    stay plausible for its drive strength),
//! 4. the direction of dangling wires (the FEOL stub points toward the
//!    BEOL continuation).
//!
//! Proximity, direction and load become the costs and capacities of a
//! min-cost-flow network (`source → drivers → sinks → target`, see
//! [`crate::mcmf`]) whose optimum assigns every sink vpin a driver. The
//! assignment is then applied cheapest pair first onto a copy of the
//! FEOL netlist. A connection that would close a loop is retargeted to
//! the sink's cheapest candidate that does not, checked against the
//! connections applied so far through an incremental topological order
//! ([`TopoOrder`]).

use crate::grid::CellGrid;
use sm_exec::Budget;
use sm_layout::{Placement, Point, SplitLayout, VpinSide};
use sm_netlist::graph::TopoOrder;
use sm_netlist::{Netlist, Sink};
use sm_sim::{security_metrics, PatternSource, SecurityMetrics};
use std::collections::BinaryHeap;

// The attack's cost model. Penalties are multiplicative so the attack
// behaves identically on a 3 µm toy die and a millimeter-scale superblue
// die.

/// Weight of the Manhattan distance term (cost per µm).
const DISTANCE_WEIGHT: f64 = 1.0;
/// Multiplier applied to the distance when the driver's dangling stub
/// points away from the candidate sink.
const DIRECTION_FACTOR: f64 = 1.5;
/// Capacitive load (fF) a driver is expected to support; it sets the
/// driver's capacity in the flow network.
const LOAD_BUDGET_FF: f64 = 12.0;
/// Patterns used to score OER/HD of the recovered netlist.
const EVAL_PATTERNS: usize = 65_536;
/// Candidate drivers kept per sink in the flow network (pruning).
const CANDIDATES_PER_SINK: usize = 24;
// `score_sink_grid`'s ring bound holds only for these weights.
const _: () = assert!(DISTANCE_WEIGHT >= 0.0 && DIRECTION_FACTOR >= 1.0);

/// Options of the proximity attack. Its cost model, candidate pruning
/// and pattern count are fixed; only the evaluation seed varies.
#[derive(Debug, Clone, Default)]
pub struct ProximityConfig {
    /// Seed of the OER/HD evaluation RNG. `None` falls back to hashing
    /// the netlist name (the historical behavior); campaigns pass the
    /// job's derived seed so seed sweeps explore attack variance.
    pub eval_seed: Option<u64>,
}

/// Everything the attack produces.
#[derive(Debug, Clone)]
pub struct AttackOutcome {
    /// Committed `(driver_vpin, sink_vpin)` pairs.
    pub pairs: Vec<(usize, usize)>,
    /// Correct connection rate over the cut sinks (the paper's CCR).
    pub ccr: f64,
    /// The netlist the attacker reconstructed.
    pub recovered: Netlist,
    /// OER and HD of the recovered netlist against the true design.
    pub metrics: SecurityMetrics,
}

/// The min-cost-flow instance the attack builds for a split layout:
/// `source → drivers (load-hint capacities) → sinks (unit demand) →
/// target`, with the K cheapest candidate drivers per sink. One
/// construction serves both [`network_flow_attack_budgeted`] and the
/// differential harness, so the tested network is always exactly the
/// attacked one.
#[derive(Debug, Clone)]
pub(crate) struct AssignmentInstance {
    /// Node count (`2 + drivers + sinks`).
    pub nodes: usize,
    /// Source node id.
    pub source: usize,
    /// Target node id.
    pub target: usize,
    /// Units to route: one per sink vpin.
    pub demand: i64,
    /// Directed edges `(from, to, cap, cost)` in insertion order; feed
    /// them to an engine's `add_edge` in this order and keep the
    /// returned handles to read flows back per [`Self::sink_edges`].
    pub edges: Vec<(usize, usize, i64, i64)>,
    /// Per sink: `(edge index into `edges`, driver vpin)` of its
    /// candidate edges, cheapest first.
    pub sink_edges: Vec<Vec<(usize, usize)>>,
    /// Sink vpin indices, in flow-node order.
    pub sinks: Vec<usize>,
    /// Per sink: the scored `(cost, driver vpin)` top-K candidates.
    pub candidates: Vec<Vec<(i64, usize)>>,
}

impl AssignmentInstance {
    /// Scores candidates and wires the flow network (see the type docs).
    ///
    /// Candidate scoring — the attack's dominant cost on superblue-scale
    /// layouts — runs as a data-parallel sweep over the sinks on `exec`
    /// ([`Budget::map`] keeps the reduction order-stable and the live
    /// workers within the budget), each sink probing a [`CellGrid`] over
    /// the flattened driver geometry in expanding rings. A ring is
    /// abandoned only when its distance lower bound *strictly* exceeds
    /// the current K-th best `(cost, driver)` key, so the selected top-K
    /// lists are bit-identical to the full sink × driver scan (pinned by
    /// the `scoring_differential` tests below).
    pub(crate) fn build(
        placed: &Netlist,
        split: &SplitLayout,
        exec: &Budget,
    ) -> AssignmentInstance {
        let drivers = split.feol.driver_vpins();
        let sinks = split.feol.sink_vpins();

        // Candidate edges: the K cheapest drivers per sink (standard
        // pruning; distant drivers never win the global optimum anyway).
        // Driver geometry is flattened into one contiguous arena up
        // front; the grid stores indices into it.
        let driver_geom: Vec<(Point, Option<(i8, i8)>)> = drivers
            .iter()
            .map(|&d| {
                let v = &split.feol.vpins[d];
                (v.position, v.stub_direction)
            })
            .collect();
        let points: Vec<(i64, i64)> = driver_geom.iter().map(|&(pos, _)| (pos.x, pos.y)).collect();
        let grid = CellGrid::build(&points);
        let score = |&s: &usize| {
            score_sink_grid(
                split.feol.vpins[s].position,
                &grid,
                &drivers,
                &driver_geom,
                CANDIDATES_PER_SINK,
            )
        };
        let candidates: Vec<Vec<(i64, usize)>> = if exec.threads() > 1 && sinks.len() >= 64 {
            exec.map(&sinks, |_, s| score(s))
        } else {
            sinks.iter().map(score).collect()
        };

        // Driver capacities from the load hint; if the hint
        // underestimates, scale so a full assignment exists (the cost
        // structure still favors light loads).
        let d_index: std::collections::HashMap<usize, usize> =
            drivers.iter().enumerate().map(|(i, &d)| (d, i)).collect();
        let nodes = 2 + drivers.len() + sinks.len();
        let (source, target) = (0usize, nodes - 1);
        let d_node = |i: usize| 1 + i;
        let s_node = |i: usize| 1 + drivers.len() + i;
        let mut caps: Vec<i64> = drivers
            .iter()
            .map(|&d| driver_capacity(placed, split, d))
            .collect();
        let total_cap: i64 = caps.iter().sum();
        if total_cap < sinks.len() as i64 && !caps.is_empty() {
            let scale = (sinks.len() as i64 + total_cap - 1) / total_cap.max(1) + 1;
            for c in &mut caps {
                *c *= scale;
            }
        }
        let mut edges: Vec<(usize, usize, i64, i64)> = Vec::new();
        for (i, &cap) in caps.iter().enumerate() {
            edges.push((source, d_node(i), cap, 0));
        }
        let mut sink_edges: Vec<Vec<(usize, usize)>> = Vec::with_capacity(sinks.len());
        for (si, row) in candidates.iter().enumerate() {
            let mut handles = Vec::with_capacity(row.len());
            for &(cost, d) in row {
                handles.push((edges.len(), d));
                edges.push((d_node(d_index[&d]), s_node(si), 1, cost.max(0)));
            }
            edges.push((s_node(si), target, 1, 0));
            sink_edges.push(handles);
        }
        AssignmentInstance {
            nodes,
            source,
            target,
            demand: sinks.len() as i64,
            edges,
            sink_edges,
            sinks,
            candidates,
        }
    }
}

/// The attack's connection guess before it is scored.
#[derive(Debug, Clone)]
pub struct FlowAssignment {
    /// Committed `(driver_vpin, sink_vpin)` pairs.
    pub pairs: Vec<(usize, usize)>,
    /// The netlist the attacker reconstructed.
    pub recovered: Netlist,
}

/// Runs the network-flow attack inside `exec`:
/// [`network_flow_assignment`], then [`network_flow_eval`] of its
/// connection guess against `golden`. Results are bit-identical at any
/// thread count.
///
/// * `golden` — the true design (scoring reference for OER/HD).
/// * `placed` — the netlist that was actually placed and routed (equals
///   `golden` for unprotected/prior-art layouts; the *erroneous* netlist
///   for the proposed defense).
/// * `placement` / `split` — the attacked FEOL (`placement` goes unread:
///   the vpins already carry their positions).
///
/// The budget's [`CancelToken`](sm_exec::CancelToken) is consulted at
/// the assignment's phase boundaries and once more before the OER/HD
/// evaluation. A deadlined superblue-scale job therefore stops within
/// one phase of its deadline instead of overshooting by the whole
/// attack; an attack that *completes* is bit-identical whether or not
/// the token was armed. Returns `None` once cancelled.
///
/// Per-phase wall-clock spans go to `rec`: the assignment's
/// `attack-candidates`, `attack-mcmf` and `attack-assign`, then
/// `attack-eval` (OER/HD simulation). Recording is observability only:
/// results are bit-identical with or without it.
///
/// # Panics
///
/// Panics if `split` was not derived from `placed` (vpin sink references
/// must resolve in `placed`).
#[allow(clippy::too_many_arguments)]
pub fn network_flow_attack_budgeted(
    golden: &Netlist,
    placed: &Netlist,
    placement: &Placement,
    split: &SplitLayout,
    config: &ProximityConfig,
    exec: &Budget,
    rec: &mut sm_exec::phase::Recorder,
) -> Option<AttackOutcome> {
    let assignment = network_flow_assignment(placed, split, exec, rec)?;
    let _ = placement; // positions are already baked into the vpins

    // Last phase boundary before the OER/HD simulation (on superblue it
    // is a multi-second stage of its own).
    if exec.cancel_token().is_cancelled() {
        return None;
    }
    let (ccr, metrics) = network_flow_eval(golden, split, &assignment, config.eval_seed, rec);
    let FlowAssignment { pairs, recovered } = assignment;
    Some(AttackOutcome {
        pairs,
        ccr,
        recovered,
        metrics,
    })
}

/// Scores a connection guess against the true design: the CCR of its
/// pairs ([`ccr_vs_golden`]) and the OER/HD of its recovered netlist
/// over 65 536 random patterns drawn from `eval_seed` (see
/// [`ProximityConfig::eval_seed`]). The guess does not depend on the
/// seed, so one guess can be scored under many evaluation seeds. The
/// span goes to `rec` as `attack-eval`.
pub fn network_flow_eval(
    golden: &Netlist,
    split: &SplitLayout,
    assignment: &FlowAssignment,
    eval_seed: Option<u64>,
    rec: &mut sm_exec::phase::Recorder,
) -> (f64, SecurityMetrics) {
    rec.time("attack-eval", || {
        let ccr = ccr_vs_golden(golden, split, &assignment.pairs);
        let mut rng = seeded(golden, eval_seed);
        let patterns = PatternSource::random(golden, EVAL_PATTERNS, &mut rng);
        let metrics = security_metrics(golden, &assignment.recovered, &patterns)
            .expect("same port interface");
        (ccr, metrics)
    })
}

/// The attack up to its connection guess: candidate scoring, the
/// min-cost-flow solve and the loop-free netlist reconstruction, with no
/// OER/HD evaluation. Callers that only need the pairs (CCR) skip the
/// simulation this way; [`network_flow_attack_budgeted`] is this
/// function, a cancellation check and [`network_flow_eval`].
///
/// The result depends only on `placed` and `split`, and is
/// bit-identical at any thread count, so callers may solve it once and
/// score it under many evaluation seeds.
///
/// Candidate scoring fans out over the budget's pool (never exceeding
/// its thread allotment), so campaigns pass each job's split budget
/// here and attack-internal parallelism shares the process-wide worker
/// ceiling. The budget's token is consulted before the scoring pass and
/// between the min-cost-flow engine's scaling phases (see
/// [`MinCostFlow::run_interruptible`](crate::mcmf::MinCostFlow::run_interruptible));
/// `None` means it fired. Spans go to `rec`: `attack-candidates`
/// (instance build + candidate scoring), `attack-mcmf` (the solve) and
/// `attack-assign` (assignment read-off + netlist reconstruction).
///
/// # Panics
///
/// Panics if `split` was not derived from `placed`.
pub fn network_flow_assignment(
    placed: &Netlist,
    split: &SplitLayout,
    exec: &Budget,
    rec: &mut sm_exec::phase::Recorder,
) -> Option<FlowAssignment> {
    let cancel = exec.cancel_token();
    if cancel.is_cancelled() {
        return None;
    }
    let instance = rec.time("attack-candidates", || {
        AssignmentInstance::build(placed, split, exec)
    });
    let AssignmentInstance {
        ref sinks,
        ref candidates,
        ..
    } = instance;

    let mut flow = crate::mcmf::MinCostFlow::new(instance.nodes);
    let handles: Vec<usize> = instance
        .edges
        .iter()
        .map(|&(from, to, cap, cost)| flow.add_edge(from, to, cap, cost))
        .collect();
    rec.time("attack-mcmf", || {
        flow.run_interruptible(
            instance.source,
            instance.target,
            instance.demand,
            &mut || cancel.is_cancelled(),
        )
    })?;

    Some(rec.time("attack-assign", || {
        // Read the assignment off the flow; sinks the flow could not reach
        // fall back to their cheapest candidate.
        let mut chosen: Vec<Option<usize>> = vec![None; sinks.len()];
        for (si, sink_edges) in instance.sink_edges.iter().enumerate() {
            for &(ei, d) in sink_edges {
                if flow.flow_on(handles[ei]) > 0 {
                    chosen[si] = Some(d);
                    break;
                }
            }
            if chosen[si].is_none() {
                chosen[si] = candidates[si].first().map(|&(_, d)| d);
            }
        }

        // Reconstruct the netlist, honoring the loop-avoidance hint: apply
        // assignments cheapest-first; a connection that would close a loop is
        // retargeted to the cheapest loop-free candidate.
        let mut recovered =
            TopoOrder::new(placed.clone()).expect("netlists are acyclic by construction");
        let mut order: Vec<usize> = (0..sinks.len()).collect();
        order.sort_by_key(|&si| {
            chosen[si]
                .and_then(|d| candidates[si].iter().find(|&&(_, dd)| dd == d))
                .map(|&(c, _)| c)
                .unwrap_or(i64::MAX)
        });
        let mut pairs = Vec::with_capacity(sinks.len());
        for si in order {
            let s = sinks[si];
            let sink = match split.feol.vpins[s].side {
                VpinSide::Sink(sk) => sk,
                VpinSide::Driver(_) => unreachable!("s indexes sink vpins"),
            };
            let mut attempt: Vec<usize> = chosen[si].into_iter().collect();
            attempt.extend(candidates[si].iter().map(|&(_, d)| d));
            let mut connected = None;
            for d in attempt {
                let driver_net = split.feol.vpins[d].net; // FEOL-visible
                let ok = match sink {
                    Sink::Cell { cell, .. } => !recovered.would_create_cycle(driver_net, cell),
                    Sink::Port(_) => true,
                };
                if ok {
                    let current_net = current_net_of(recovered.netlist(), sink);
                    if current_net != driver_net {
                        recovered
                            .move_sink(current_net, sink, driver_net)
                            .expect("split derived from placed netlist");
                    }
                    connected = Some(d);
                    break;
                }
            }
            if let Some(d) = connected {
                pairs.push((d, s));
            }
        }
        FlowAssignment {
            pairs,
            recovered: recovered.into_netlist(),
        }
    }))
}

/// CCR of an assignment against the *true* design.
///
/// For protected layouts the split view is derived from the erroneous
/// netlist, so [`SplitLayout::correct_connection_rate`] would score against
/// the wrong reference; this function looks each sink's true driving net up
/// in `golden` instead. Net/cell ids are shared between the original and
/// the erroneous netlist (randomization only moves sinks), so ids resolve
/// directly.
pub fn ccr_vs_golden(golden: &Netlist, split: &SplitLayout, pairs: &[(usize, usize)]) -> f64 {
    let sinks = split.feol.sink_vpins();
    if sinks.is_empty() {
        return 1.0;
    }
    let correct = pairs
        .iter()
        .filter(|&&(d, s)| {
            let sink = match split.feol.vpins[s].side {
                VpinSide::Sink(sk) => sk,
                VpinSide::Driver(_) => return false,
            };
            current_net_of(golden, sink) == split.feol.vpins[d].net
        })
        .count();
    correct as f64 / sinks.len() as f64
}

/// CCR over an explicit set of rewired connections — the metric behind
/// the paper's "0% CCR" headline: for every `(sink, true_net)` pair the
/// defense randomized, did the attacker reconnect that sink to its true
/// net?
pub fn ccr_over_connections(
    split: &SplitLayout,
    pairs: &[(usize, usize)],
    connections: &[(Sink, sm_netlist::NetId)],
) -> f64 {
    use std::collections::HashMap;
    let truth: HashMap<Sink, sm_netlist::NetId> = connections.iter().copied().collect();
    let mut total = 0usize;
    let mut correct = 0usize;
    let mut assigned: HashMap<Sink, sm_netlist::NetId> = HashMap::new();
    for &(d, s) in pairs {
        if let VpinSide::Sink(sk) = split.feol.vpins[s].side {
            assigned.insert(sk, split.feol.vpins[d].net);
        }
    }
    for (sink, true_net) in &truth {
        total += 1;
        if assigned.get(sink) == Some(true_net) {
            correct += 1;
        }
    }
    if total == 0 {
        1.0
    } else {
        correct as f64 / total as f64
    }
}

/// CCR restricted to a net subset (the paper reports CCR over the
/// randomized nets). A sink counts when its *true* net is in `nets`.
pub fn ccr_vs_golden_for(
    golden: &Netlist,
    split: &SplitLayout,
    pairs: &[(usize, usize)],
    nets: &[sm_netlist::NetId],
) -> f64 {
    let mut total = 0usize;
    let mut correct = 0usize;
    for &(d, s) in pairs {
        let sink = match split.feol.vpins[s].side {
            VpinSide::Sink(sk) => sk,
            VpinSide::Driver(_) => continue,
        };
        let truth = current_net_of(golden, sink);
        if !nets.contains(&truth) {
            continue;
        }
        total += 1;
        if truth == split.feol.vpins[d].net {
            correct += 1;
        }
    }
    if total == 0 {
        1.0
    } else {
        correct as f64 / total as f64
    }
}

/// Top-K candidate drivers for one sink via expanding grid rings.
/// Returns the K smallest `(cost, driver)` keys in ascending order;
/// driver vpin indices make every key unique, so the selection is a
/// total order with no tie ambiguity.
///
/// Exactness argument: a driver first visited on ring `r ≥ 1` sits at
/// Manhattan distance ≥ `(r−1)·cell + 1` DBU, its cost is ≥
/// `DISTANCE_WEIGHT · (dist_um + 0.1)` (the direction factor is at
/// least 1), and `x → (x·1000) as i64` is monotone for non-negative
/// finite `x` — so once the ring bound *strictly* exceeds the current
/// K-th `(cost, driver)` key, no unvisited driver can displace a kept
/// one, and the kept set equals the exhaustive scan's (the test-only
/// `score_sink_full`).
fn score_sink_grid(
    sink_pos: Point,
    grid: &CellGrid,
    drivers: &[usize],
    driver_geom: &[(Point, Option<(i8, i8)>)],
    k: usize,
) -> Vec<(i64, usize)> {
    let mut heap: BinaryHeap<(i64, usize)> = BinaryHeap::with_capacity(k + 1);
    let (cx, cy) = grid.cell_of(sink_pos.x, sink_pos.y);
    let mut r = 0i64;
    while !grid.ring_exhausted(cx, cy, r) {
        if heap.len() == k {
            let lb_dbu = if r == 0 {
                0
            } else {
                (r - 1) * grid.cell_len() + 1
            };
            let lb = (DISTANCE_WEIGHT * (lb_dbu as f64 / 1000.0 + 0.1) * 1000.0) as i64;
            if lb > heap.peek().expect("heap holds k entries").0 {
                break;
            }
        }
        grid.visit_ring(cx, cy, r, |items| {
            for &i in items {
                let (pos, stub) = driver_geom[i as usize];
                let entry = (
                    (pair_cost(pos, stub, sink_pos) * 1000.0) as i64,
                    drivers[i as usize],
                );
                if heap.len() < k {
                    heap.push(entry);
                } else if entry < *heap.peek().expect("heap holds k entries") {
                    heap.pop();
                    heap.push(entry);
                }
            }
        });
        r += 1;
    }
    heap.into_sorted_vec()
}

/// Cost of pairing a driver vpin (given by its flattened geometry) with
/// a sink vpin at `sink_pos`. Taking the geometry by value keeps the
/// sink × driver scoring loop on two flat arrays instead of chasing
/// vpin structs per pair.
fn pair_cost(driver_pos: Point, driver_stub: Option<(i8, i8)>, sink_pos: Point) -> f64 {
    let dist_um = driver_pos.manhattan_um(sink_pos);
    // A small floor keeps the multiplicative hint meaningful even for
    // coincident pins.
    let mut cost = DISTANCE_WEIGHT * (dist_um + 0.1);
    // Hint 4: dangling-wire direction. A stub pointing away from the sink
    // scales the cost up; the hint never overrides proximity entirely.
    if let Some((dx, dy)) = driver_stub {
        let to_sink = (
            (sink_pos.x - driver_pos.x).signum(),
            (sink_pos.y - driver_pos.y).signum(),
        );
        let disagrees =
            (dx != 0 && dx as i64 == -to_sink.0) || (dy != 0 && dy as i64 == -to_sink.1);
        if disagrees {
            cost *= DIRECTION_FACTOR;
        }
    }
    cost
}

/// Capacity of a driver in the flow network, from the load hint: how many
/// typical sink pins its drive strength supports.
fn driver_capacity(placed: &Netlist, split: &SplitLayout, d: usize) -> i64 {
    const TYPICAL_SINK_FF: f64 = 1.2;
    let strength = match split.feol.vpins[d].side {
        VpinSide::Driver(sm_netlist::Driver::Cell(c)) => {
            placed.library().cell(placed.cell(c).lib).drive_strength()
        }
        // Pad drivers are strong.
        VpinSide::Driver(sm_netlist::Driver::Port(_)) => 4.0,
        VpinSide::Sink(_) => unreachable!("d indexes driver vpins"),
    };
    ((strength * LOAD_BUDGET_FF / TYPICAL_SINK_FF) as i64).max(1)
}

fn current_net_of(netlist: &Netlist, sink: Sink) -> sm_netlist::NetId {
    match sink {
        Sink::Cell { cell, pin } => netlist.cell(cell).inputs()[pin as usize],
        Sink::Port(p) => netlist.output_ports()[p.index()].net,
    }
}

fn seeded(netlist: &Netlist, eval_seed: Option<u64>) -> rand::rngs::StdRng {
    use rand::SeedableRng;
    let seed = eval_seed.unwrap_or_else(|| {
        netlist.name().bytes().fold(0x9e3779b9u64, |h, b| {
            h.wrapping_mul(131).wrapping_add(b as u64)
        })
    });
    rand::rngs::StdRng::seed_from_u64(seed)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use sm_core::baselines::{naive_lifting, original_layout};
    use sm_core::flow::{protect, BaselineLayout, FlowConfig, ProtectedDesign};
    use sm_exec::phase::Recorder;
    use sm_exec::CancelToken;
    use sm_layout::split_layout;
    use sm_netlist::parse::bench::{parse_bench, C17_BENCH};
    use sm_netlist::{Library, NetId};

    fn c17() -> Netlist {
        parse_bench("c17", C17_BENCH, &Library::nangate45()).unwrap()
    }

    pub(crate) fn serial() -> Budget {
        Budget::with_threads(Some(1))
    }

    /// The original layout of `n` at utilization 0.6.
    pub(crate) fn original(n: &Netlist, seed: u64) -> BaselineLayout {
        original_layout(n, 0.6, seed, &serial(), &mut Recorder::new())
    }

    /// [`original`] re-routed with `nets` lifted to M6.
    pub(crate) fn lifted(n: &Netlist, nets: &[NetId], seed: u64) -> BaselineLayout {
        naive_lifting(n, &original(n, seed), nets, 6, seed, &serial())
    }

    /// The ISCAS protection flow over its own baseline.
    pub(crate) fn protected(n: &Netlist, seed: u64) -> ProtectedDesign {
        let config = FlowConfig::iscas_default(seed);
        let mut rec = Recorder::new();
        let baseline = original_layout(n, config.utilization, seed, &serial(), &mut rec);
        protect(n, &config, &baseline, &serial(), &mut rec)
    }

    fn attack(
        golden: &Netlist,
        placed: &Netlist,
        placement: &Placement,
        split: &SplitLayout,
        config: &ProximityConfig,
    ) -> AttackOutcome {
        let mut rec = Recorder::new();
        network_flow_attack_budgeted(
            golden,
            placed,
            placement,
            split,
            config,
            &serial(),
            &mut rec,
        )
        .expect("a fresh token never cancels")
    }

    #[test]
    fn attack_on_original_layout_recovers_most_connections() {
        let n = c17();
        let base = original(&n, 1);
        let split = split_layout(&n, &base.placement, &base.routing, 3);
        if split.cut_nets == 0 {
            return; // everything below the split: nothing to attack
        }
        let out = attack(&n, &n, &base.placement, &split, &ProximityConfig::default());
        // Unprotected layouts leak: proximity recovers a clear majority.
        assert!(out.ccr >= 0.5, "CCR {}", out.ccr);
        assert_eq!(out.pairs.len(), split.feol.sink_vpins().len());
    }

    #[test]
    fn attack_on_protected_layout_recovers_nothing() {
        let n = c17();
        let p = protected(&n, 7);
        let split = split_layout(&p.randomization.erroneous, &p.placement, &p.feol_routing, 4);
        let out = attack(
            &n,
            &p.randomization.erroneous,
            &p.placement,
            &split,
            &ProximityConfig::default(),
        );
        // The signature result of the paper: the randomized connections
        // are never recovered correctly, and the recovered netlist behaves
        // erroneously.
        let swapped = p.randomization.swapped_connections();
        let ccr_swapped = ccr_over_connections(&split, &out.pairs, &swapped);
        assert!(
            ccr_swapped <= 0.2,
            "CCR over randomized connections should collapse, got {ccr_swapped}"
        );
        assert!(out.metrics.oer > 0.3, "OER {}", out.metrics.oer);
    }

    #[test]
    fn recovered_netlist_is_structurally_valid() {
        let n = c17();
        let base = original(&n, 2);
        let split = split_layout(&n, &base.placement, &base.routing, 3);
        let out = attack(&n, &n, &base.placement, &split, &ProximityConfig::default());
        out.recovered.validate().unwrap();
        sm_netlist::graph::topo_order(&out.recovered).unwrap();
    }

    #[test]
    fn cancelled_attack_returns_none_and_armed_token_changes_nothing() {
        let n = c17();
        let base = original(&n, 1);
        let split = split_layout(&n, &base.placement, &base.routing, 3);
        let cfg = ProximityConfig::default();
        let attack_with = |token: &CancelToken| {
            let exec = serial().with_cancel(token.clone());
            let mut rec = Recorder::new();
            network_flow_attack_budgeted(&n, &n, &base.placement, &split, &cfg, &exec, &mut rec)
        };
        // A pre-cancelled token stops the attack at its first phase
        // boundary with no partial result.
        let cancelled = CancelToken::new();
        cancelled.cancel();
        assert!(attack_with(&cancelled).is_none());
        // An armed-but-never-fired token must not perturb the result:
        // the cancellable path and the plain path agree exactly.
        let via_token = attack_with(&CancelToken::new());
        let plain = attack(&n, &n, &base.placement, &split, &cfg);
        match via_token {
            None => panic!("token never fired"),
            Some(out) => {
                assert_eq!(out.pairs, plain.pairs);
                assert_eq!(out.ccr, plain.ccr);
                assert_eq!(out.metrics.oer, plain.metrics.oer);
                assert_eq!(out.metrics.hd, plain.metrics.hd);
            }
        }
    }

    #[test]
    fn every_sink_gets_assigned_exactly_once() {
        let n = c17();
        let base = original(&n, 3);
        let split = split_layout(&n, &base.placement, &base.routing, 3);
        let out = attack(&n, &n, &base.placement, &split, &ProximityConfig::default());
        let mut seen = std::collections::HashSet::new();
        for &(_, s) in &out.pairs {
            assert!(seen.insert(s), "sink {s} assigned twice");
        }
    }
}

#[cfg(test)]
mod assignment_pin {
    //! Pins the committed pairs of the attack's reconstruction on
    //! generated ISCAS layouts, original and protected: FNV-1a over every
    //! `(driver, sink)` pair as two little-endian `u64`s. Real instances
    //! carry exact cost ties, so these hashes hold the min-cost-flow
    //! engine's tie choice (Dinic + cost scaling, which they were
    //! captured from), on c432/c880 at M3–M5 and on c1355/c1908 at M3–M4
    //! (the designs and layers the `iscas-flow` benchmark workload
    //! solves). A change that moves one moves campaign report bytes, and
    //! ships with a report version bump.

    use super::tests::{original, protected, serial};
    use super::*;
    use sm_layout::split_layout;

    fn pairs_fnv(pairs: &[(usize, usize)]) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for &(d, s) in pairs {
            for b in (d as u64)
                .to_le_bytes()
                .into_iter()
                .chain((s as u64).to_le_bytes())
            {
                hash ^= b as u64;
                hash = hash.wrapping_mul(0x100_0000_01b3);
            }
        }
        hash
    }

    /// `(design, split layer, layout, committed pairs, their hash)`.
    const PINS: [(&str, u8, &str, usize, u64); 20] = [
        ("c432", 3, "original", 208, 0x6117_6c14_3c2f_f9a5),
        ("c432", 3, "protected", 277, 0x15aa_087f_a478_ec75),
        ("c432", 4, "original", 71, 0xd72d_cf34_e18a_fdc6),
        ("c432", 4, "protected", 222, 0x676e_f5a1_3472_0916),
        ("c432", 5, "original", 13, 0x9ff8_b1f7_7333_b4d6),
        ("c432", 5, "protected", 185, 0x8f11_c48e_628d_a8d5),
        ("c880", 3, "original", 508, 0xab97_a5d6_12cb_5887),
        ("c880", 3, "protected", 540, 0x3104_1277_33ab_4462),
        ("c880", 4, "original", 214, 0xfbed_d7e0_3afc_0064),
        ("c880", 4, "protected", 268, 0x3b08_3069_83c5_c017),
        ("c880", 5, "original", 33, 0xb605_1fc6_ad0e_1c0c),
        ("c880", 5, "protected", 93, 0x8c63_e1d9_5754_ea10),
        ("c1355", 3, "original", 858, 0xa2fc_3dd6_7cac_c3aa),
        ("c1355", 3, "protected", 873, 0xbb01_53da_5945_0102),
        ("c1355", 4, "original", 494, 0x9377_3390_018d_5c12),
        ("c1355", 4, "protected", 553, 0x0205_d3cb_aed2_d24e),
        ("c1908", 3, "original", 1388, 0x361d_83b7_e45c_80b3),
        ("c1908", 3, "protected", 1458, 0x4a99_f2f2_5546_33af),
        ("c1908", 4, "original", 729, 0x6438_7c48_4c07_8bac),
        ("c1908", 4, "protected", 868, 0xec32_4784_ec17_6704),
    ];

    #[test]
    fn committed_pairs_match_pinned_hashes() {
        let exec = serial();
        let pairs = |placed: &Netlist, split: &SplitLayout| {
            let out =
                network_flow_assignment(placed, split, &exec, &mut sm_exec::phase::Recorder::new())
                    .expect("a fresh token never cancels");
            (out.pairs.len(), pairs_fnv(&out.pairs))
        };
        for profile in [
            sm_benchgen::iscas::IscasProfile::c432(),
            sm_benchgen::iscas::IscasProfile::c880(),
            sm_benchgen::iscas::IscasProfile::c1355(),
            sm_benchgen::iscas::IscasProfile::c1908(),
        ] {
            let n = sm_benchgen::iscas::generate(&profile, 1);
            let base = original(&n, 1);
            let p = protected(&n, 1);
            let erroneous = &p.randomization.erroneous;
            for &(name, layer, layout, count, hash) in
                PINS.iter().filter(|pin| pin.0 == profile.name)
            {
                let got = if layout == "original" {
                    pairs(&n, &split_layout(&n, &base.placement, &base.routing, layer))
                } else {
                    let split = split_layout(erroneous, &p.placement, &p.feol_routing, layer);
                    pairs(erroneous, &split)
                };
                assert_eq!(got, (count, hash), "{name} M{layer} {layout}");
            }
        }
    }
}

#[cfg(test)]
mod scoring_differential {
    //! Pins the grid-pruned candidate scoring to the exhaustive
    //! reference: identical top-K `(cost, driver)` rows for every sink,
    //! on real generated layouts and at several K.

    use super::tests::{original, serial};
    use super::*;
    use sm_layout::split_layout;

    /// Top-K candidate drivers for one sink by exhaustive scan: the
    /// reference [`score_sink_grid`] must equal.
    fn score_sink_full(
        sink_pos: Point,
        drivers: &[usize],
        driver_geom: &[(Point, Option<(i8, i8)>)],
        k: usize,
    ) -> Vec<(i64, usize)> {
        let mut row: Vec<(i64, usize)> = drivers
            .iter()
            .zip(driver_geom)
            .map(|(&d, &(pos, stub))| ((pair_cost(pos, stub, sink_pos) * 1000.0) as i64, d))
            .collect();
        row.sort_unstable();
        row.truncate(k);
        row
    }

    #[test]
    fn grid_scoring_matches_exhaustive_reference() {
        let c432 = sm_benchgen::iscas::generate(&sm_benchgen::iscas::IscasProfile::c432(), 1);
        let c880 = sm_benchgen::iscas::generate(&sm_benchgen::iscas::IscasProfile::c880(), 1);
        for n in [&c432, &c880] {
            let base = original(n, 1);
            let split = split_layout(n, &base.placement, &base.routing, 3);
            let drivers = split.feol.driver_vpins();
            let driver_geom: Vec<(Point, Option<(i8, i8)>)> = drivers
                .iter()
                .map(|&d| {
                    let v = &split.feol.vpins[d];
                    (v.position, v.stub_direction)
                })
                .collect();
            let points: Vec<(i64, i64)> =
                driver_geom.iter().map(|&(pos, _)| (pos.x, pos.y)).collect();
            let grid = CellGrid::build(&points);
            let sinks: Vec<Point> = split
                .feol
                .sink_vpins()
                .iter()
                .map(|&s| split.feol.vpins[s].position)
                .collect();
            let rows = |k: usize| -> (Vec<_>, Vec<_>) {
                sinks
                    .iter()
                    .map(|&pos| {
                        (
                            score_sink_grid(pos, &grid, &drivers, &driver_geom, k),
                            score_sink_full(pos, &drivers, &driver_geom, k),
                        )
                    })
                    .unzip()
            };
            for k in [1usize, 3, CANDIDATES_PER_SINK, 10_000] {
                let (grid_rows, reference) = rows(k);
                assert_eq!(grid_rows, reference, "{} k={k}", n.name());
            }
            // The attacked instance keeps exactly the exhaustive top-K.
            let inst = AssignmentInstance::build(n, &split, &serial());
            assert_eq!(inst.candidates, rows(CANDIDATES_PER_SINK).1, "{}", n.name());
        }
    }

    #[test]
    fn parallel_scoring_is_order_stable() {
        let n = sm_benchgen::iscas::generate(&sm_benchgen::iscas::IscasProfile::c880(), 1);
        let base = original(&n, 1);
        let split = split_layout(&n, &base.placement, &base.routing, 3);
        let one = AssignmentInstance::build(&n, &split, &serial());
        let four = AssignmentInstance::build(&n, &split, &Budget::with_threads(Some(4)));
        assert_eq!(one.candidates, four.candidates);
        assert_eq!(one.edges, four.edges);
    }
}

#[cfg(test)]
mod differential_tests {
    //! The differential harness on *real* attack instances: the exact
    //! flow network `network_flow_attack_budgeted` builds for generated ISCAS
    //! layouts (via the shared [`AssignmentInstance`] constructor, so
    //! the tested network can never drift from the attacked one), solved
    //! by the engine and by the SSP oracle. Real instances carry exact
    //! cost ties (unlike the tie-free random instances in `mcmf::tests`),
    //! so the pin here is flow value + total cost + both certificates,
    //! and edge for edge wherever the oracle's dual forces the flow;
    //! which optimal matching the engine picks among the ties is pinned
    //! by `assignment_pin`.

    use super::tests::{original, protected, serial};
    use super::*;
    use crate::mcmf::certificate::{verify, verify_edges, Certificate};
    use crate::mcmf::{reference::SspFlow, MinCostFlow};
    use sm_layout::split_layout;

    /// One real instance solved by both engines.
    struct Solved {
        name: String,
        inst: AssignmentInstance,
        fast: MinCostFlow,
        ssp: SspFlow,
        /// Edge handles, in `inst.edges` order (the same in both).
        handles: Vec<usize>,
        /// `(value, cost)` from the engine and from the oracle.
        results: [(i64, i64); 2],
    }

    impl Solved {
        fn engine_certificate(&self) -> Certificate {
            let inst = &self.inst;
            verify(&self.fast, inst.source, inst.target, inst.demand)
                .unwrap_or_else(|v| panic!("{}: engine certificate: {v}", self.name))
        }

        fn oracle_certificate(&self) -> Certificate {
            let inst = &self.inst;
            let views = self.ssp.edge_views();
            verify_edges(
                self.ssp.num_nodes(),
                &views,
                inst.source,
                inst.target,
                inst.demand,
            )
            .unwrap_or_else(|v| panic!("{}: oracle certificate: {v}", self.name))
        }
    }

    /// c432 and c880 at M3–M5 and c1355 and c1908 at M3–M4, original
    /// and protected, each solved by `run` and by the oracle: the
    /// instances `assignment_pin` pins. c1908 at M3 is the largest
    /// instance the `iscas-flow` benchmark workload solves.
    fn solved_iscas_instances() -> Vec<Solved> {
        let solve = |name: String, placed: &Netlist, split: &SplitLayout| {
            let inst = AssignmentInstance::build(placed, split, &serial());
            let mut fast = MinCostFlow::new(inst.nodes);
            let mut ssp = SspFlow::new(inst.nodes);
            let handles: Vec<usize> = inst
                .edges
                .iter()
                .map(|&(from, to, cap, cost)| {
                    let h = fast.add_edge(from, to, cap, cost);
                    assert_eq!(ssp.add_edge(from, to, cap, cost), h);
                    h
                })
                .collect();
            let results = [
                fast.run(inst.source, inst.target, inst.demand),
                ssp.run(inst.source, inst.target, inst.demand),
            ];
            Solved {
                name,
                inst,
                fast,
                ssp,
                handles,
                results,
            }
        };
        let designs = [
            (sm_benchgen::iscas::IscasProfile::c432(), &[3u8, 4, 5][..]),
            (sm_benchgen::iscas::IscasProfile::c880(), &[3, 4, 5]),
            (sm_benchgen::iscas::IscasProfile::c1355(), &[3, 4]),
            (sm_benchgen::iscas::IscasProfile::c1908(), &[3, 4]),
        ];
        let mut solved = Vec::new();
        for (profile, layers) in designs {
            let n = sm_benchgen::iscas::generate(&profile, 1);
            let base = original(&n, 1);
            let p = protected(&n, 1);
            let erroneous = &p.randomization.erroneous;
            for &layer in layers {
                let original = split_layout(&n, &base.placement, &base.routing, layer);
                solved.push(solve(
                    format!("{} M{layer} original", profile.name),
                    &n,
                    &original,
                ));
                let protected = split_layout(erroneous, &p.placement, &p.feol_routing, layer);
                solved.push(solve(
                    format!("{} M{layer} protected", profile.name),
                    erroneous,
                    &protected,
                ));
            }
        }
        assert_eq!(solved.len(), 20);
        solved
    }

    #[test]
    fn real_iscas_instances_agree_on_value_and_cost() {
        for s in solved_iscas_instances() {
            assert_eq!(s.results[0], s.results[1], "{}: value and cost", s.name);
            s.engine_certificate();
            s.oracle_certificate();
        }
    }

    /// Edge for edge against the oracle: an edge whose reduced cost
    /// under the oracle's optimal potentials is non-zero carries the
    /// same flow in every optimal flow of the same value (empty when
    /// positive, saturated when negative), so `run` must match the
    /// oracle's flow there. Only zero-reduced-cost edges, the exact
    /// ties, may differ, and the engine's flow must itself be optimal
    /// under the oracle's potentials.
    #[test]
    fn real_iscas_instances_match_the_oracle_edge_for_edge() {
        for s in solved_iscas_instances() {
            assert_eq!(s.results[0], s.results[1], "{}: value and cost", s.name);
            let pot = s.oracle_certificate().potentials;
            for (&(from, to, cap, cost), &h) in s.inst.edges.iter().zip(&s.handles) {
                let reduced = cost + pot[from] - pot[to];
                let (engine, oracle) = (s.fast.flow_on(h), s.ssp.flow_on(h));
                if reduced != 0 {
                    assert_eq!(
                        engine, oracle,
                        "{}: edge {h}, reduced cost {reduced}",
                        s.name
                    );
                }
                assert!(
                    (reduced <= 0 || engine == 0) && (reduced >= 0 || engine == cap),
                    "{}: edge {h} carries {engine} of {cap} at reduced cost {reduced}",
                    s.name
                );
            }
        }
    }
}
