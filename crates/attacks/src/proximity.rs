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
use sm_exec::{Budget, Pool};
use sm_layout::{Placement, Point, SplitLayout, VpinSide};
use sm_netlist::graph::TopoOrder;
use sm_netlist::{Netlist, Sink};
use sm_sim::{security_metrics, PatternSource, SecurityMetrics};
use std::collections::BinaryHeap;
use std::sync::Arc;

/// Tunables of the proximity attack.
///
/// Penalties are multiplicative so the attack behaves identically on a
/// 3 µm toy die and a millimeter-scale superblue die.
#[derive(Debug, Clone)]
pub struct ProximityConfig {
    /// Weight of the Manhattan distance term (cost per µm).
    pub distance_weight: f64,
    /// Multiplier applied to the distance when the driver's dangling stub
    /// points away from the candidate sink (1.0 disables the hint).
    pub direction_factor: f64,
    /// Capacitive load (fF) a driver is expected to support before the
    /// load hint starts penalizing further fanout.
    pub load_budget_ff: f64,
    /// Distance multiplier per fF of load-budget excess.
    pub load_factor_per_ff: f64,
    /// Patterns used to score OER/HD of the recovered netlist.
    pub eval_patterns: usize,
    /// Candidate drivers kept per sink in the flow network (pruning).
    pub candidates_per_sink: usize,
    /// Seed of the OER/HD evaluation RNG. `None` falls back to hashing
    /// the netlist name (the historical behavior); campaigns pass the
    /// job's derived seed so seed sweeps explore attack variance.
    pub eval_seed: Option<u64>,
}

impl Default for ProximityConfig {
    fn default() -> Self {
        ProximityConfig {
            distance_weight: 1.0,
            direction_factor: 1.5,
            load_budget_ff: 12.0,
            load_factor_per_ff: 0.25,
            eval_patterns: 65_536,
            candidates_per_sink: 24,
            eval_seed: None,
        }
    }
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
/// construction serves both [`network_flow_attack`] and the
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
    /// [`Self::build_with`] on a serial slice of the shared global pool
    /// (the differential tests' reference configuration).
    #[cfg(test)]
    fn build(
        placed: &Netlist,
        split: &SplitLayout,
        config: &ProximityConfig,
    ) -> AssignmentInstance {
        Self::build_with(
            placed,
            split,
            config,
            &Budget::on_pool(Arc::clone(Pool::global()), 1),
        )
    }

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
    pub(crate) fn build_with(
        placed: &Netlist,
        split: &SplitLayout,
        config: &ProximityConfig,
        exec: &Budget,
    ) -> AssignmentInstance {
        let drivers = split.feol.driver_vpins();
        let sinks = split.feol.sink_vpins();

        // Candidate edges: the K cheapest drivers per sink (standard
        // pruning; distant drivers never win the global optimum anyway).
        // Driver geometry is flattened into one contiguous arena up
        // front; the grid stores indices into it.
        let k = config.candidates_per_sink.max(1);
        let driver_geom: Vec<(Point, Option<(i8, i8)>)> = drivers
            .iter()
            .map(|&d| {
                let v = &split.feol.vpins[d];
                (v.position, v.stub_direction)
            })
            .collect();
        // The ring lower bound multiplies the distance floor by the
        // config factors a pair cost can never drop below; hostile
        // configurations (negative weights, NaN) fall back to the full
        // scan instead of pruning.
        let base_mult = 1.0 + (0.0 - config.load_budget_ff).max(0.0) * config.load_factor_per_ff;
        let lb_mult = config.distance_weight * config.direction_factor.min(1.0) * base_mult;
        let prunable = config.distance_weight >= 0.0
            && config.direction_factor >= 0.0
            && base_mult >= 0.0
            && lb_mult >= 0.0;
        let candidates: Vec<Vec<(i64, usize)>> = if !prunable {
            sinks
                .iter()
                .map(|&s| {
                    score_sink_full(
                        split.feol.vpins[s].position,
                        &drivers,
                        &driver_geom,
                        k,
                        config,
                    )
                })
                .collect()
        } else {
            let points: Vec<(i64, i64)> =
                driver_geom.iter().map(|&(pos, _)| (pos.x, pos.y)).collect();
            let grid = CellGrid::build(&points);
            let score = |&s: &usize| {
                score_sink_grid(
                    split.feol.vpins[s].position,
                    &grid,
                    &drivers,
                    &driver_geom,
                    k,
                    config,
                    lb_mult,
                )
            };
            if exec.threads() > 1 && sinks.len() >= 64 {
                exec.map(&sinks, |_, s| score(s))
            } else {
                sinks.iter().map(score).collect()
            }
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
            .map(|&d| driver_capacity(placed, split, d, config))
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

/// Runs the network-flow attack.
///
/// * `golden` — the true design (scoring reference for OER/HD).
/// * `placed` — the netlist that was actually placed and routed (equals
///   `golden` for unprotected/prior-art layouts; the *erroneous* netlist
///   for the proposed defense).
/// * `placement` / `split` — the attacked FEOL.
///
/// # Panics
///
/// Panics if `split` was not derived from `placed` (vpin sink references
/// must resolve in `placed`).
pub fn network_flow_attack(
    golden: &Netlist,
    placed: &Netlist,
    placement: &Placement,
    split: &SplitLayout,
    config: &ProximityConfig,
) -> AttackOutcome {
    let exec = Budget::on_pool(Arc::clone(Pool::global()), 1);
    let mut rec = sm_exec::phase::Recorder::new();
    network_flow_attack_budgeted(golden, placed, placement, split, config, &exec, &mut rec)
        .expect("a fresh token never cancels")
}

/// [`network_flow_attack`] running inside an explicit [`Budget`]:
/// [`network_flow_assignment`], then [`network_flow_eval`] of its
/// connection guess against `golden`. Results are bit-identical at any
/// thread count.
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
    let assignment = network_flow_assignment(placed, split, config, exec, rec)?;
    let _ = placement; // positions are already baked into the vpins

    // Last phase boundary before the OER/HD simulation (on superblue it
    // is a multi-second stage of its own).
    if exec.cancel_token().is_cancelled() {
        return None;
    }
    let (ccr, metrics) = network_flow_eval(golden, split, &assignment, config, rec);
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
/// over `config.eval_patterns` random patterns seeded by
/// `config.eval_seed`. These two are the only config fields it reads,
/// and [`network_flow_assignment`] reads neither, so one guess can be
/// scored under many evaluation seeds. The span goes to `rec` as
/// `attack-eval`.
pub fn network_flow_eval(
    golden: &Netlist,
    split: &SplitLayout,
    assignment: &FlowAssignment,
    config: &ProximityConfig,
    rec: &mut sm_exec::phase::Recorder,
) -> (f64, SecurityMetrics) {
    rec.time("attack-eval", || {
        let ccr = ccr_vs_golden(golden, split, &assignment.pairs);
        let mut rng = seeded(golden, config.eval_seed);
        let patterns = PatternSource::random(golden, config.eval_patterns, &mut rng);
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
/// The result depends only on `placed`, `split` and the config's
/// candidate and cost fields (not on `eval_patterns` or `eval_seed`),
/// and is bit-identical at any thread count, so callers may solve it
/// once and score it under many evaluation seeds.
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
    config: &ProximityConfig,
    exec: &Budget,
    rec: &mut sm_exec::phase::Recorder,
) -> Option<FlowAssignment> {
    let cancel = exec.cancel_token();
    if cancel.is_cancelled() {
        return None;
    }
    let instance = rec.time("attack-candidates", || {
        AssignmentInstance::build_with(placed, split, config, exec)
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

/// Top-K candidate drivers for one sink by exhaustive scan — the
/// scoring reference (and the fallback for configurations the ring
/// bound cannot reason about). Returns the K smallest `(cost, driver)`
/// keys in ascending order; driver vpin indices make every key unique,
/// so the selection is a total order with no tie ambiguity.
fn score_sink_full(
    sink_pos: Point,
    drivers: &[usize],
    driver_geom: &[(Point, Option<(i8, i8)>)],
    k: usize,
    config: &ProximityConfig,
) -> Vec<(i64, usize)> {
    let mut row: Vec<(i64, usize)> = drivers
        .iter()
        .zip(driver_geom)
        .map(|(&d, &(pos, stub))| {
            (
                (pair_cost(pos, stub, sink_pos, config, 0.0) * 1000.0) as i64,
                d,
            )
        })
        .collect();
    row.sort_unstable();
    row.truncate(k);
    row
}

/// Top-K candidate drivers for one sink via expanding grid rings.
///
/// Exactness argument: a driver first visited on ring `r ≥ 1` sits at
/// Manhattan distance ≥ `(r−1)·cell + 1` DBU, its cost is ≥
/// `lb_mult · (dist_um + 0.1)` (`lb_mult` collects the smallest factor
/// combination a pair can be scored with, all non-negative here), and
/// `x → (x·1000) as i64` is monotone for non-negative finite `x` — so
/// once the ring bound *strictly* exceeds the current K-th `(cost,
/// driver)` key, no unvisited driver can displace a kept one, and the
/// kept set equals the exhaustive scan's.
fn score_sink_grid(
    sink_pos: Point,
    grid: &CellGrid,
    drivers: &[usize],
    driver_geom: &[(Point, Option<(i8, i8)>)],
    k: usize,
    config: &ProximityConfig,
    lb_mult: f64,
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
            let lb = (lb_mult * (lb_dbu as f64 / 1000.0 + 0.1) * 1000.0) as i64;
            if lb > heap.peek().expect("heap holds k entries").0 {
                break;
            }
        }
        grid.visit_ring(cx, cy, r, |items| {
            for &i in items {
                let (pos, stub) = driver_geom[i as usize];
                let entry = (
                    (pair_cost(pos, stub, sink_pos, config, 0.0) * 1000.0) as i64,
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
fn pair_cost(
    driver_pos: Point,
    driver_stub: Option<(i8, i8)>,
    sink_pos: Point,
    config: &ProximityConfig,
    driver_load_ff: f64,
) -> f64 {
    let dist_um = driver_pos.manhattan_um(sink_pos);
    // A small floor keeps the multiplicative hints meaningful even for
    // coincident pins.
    let mut cost = config.distance_weight * (dist_um + 0.1);
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
            cost *= config.direction_factor;
        }
    }
    // Hint 3: load capacitance — progressively discourage overloading one
    // driver with every sink in the neighborhood.
    let excess = (driver_load_ff - config.load_budget_ff).max(0.0);
    cost *= 1.0 + excess * config.load_factor_per_ff;
    cost
}

/// Capacity of a driver in the flow network, from the load hint: how many
/// typical sink pins its drive strength supports.
fn driver_capacity(
    placed: &Netlist,
    split: &SplitLayout,
    d: usize,
    config: &ProximityConfig,
) -> i64 {
    const TYPICAL_SINK_FF: f64 = 1.2;
    let strength = match split.feol.vpins[d].side {
        VpinSide::Driver(sm_netlist::Driver::Cell(c)) => {
            placed.library().cell(placed.cell(c).lib).drive_strength()
        }
        // Pad drivers are strong.
        VpinSide::Driver(sm_netlist::Driver::Port(_)) => 4.0,
        VpinSide::Sink(_) => unreachable!("d indexes driver vpins"),
    };
    ((strength * config.load_budget_ff / TYPICAL_SINK_FF) as i64).max(1)
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
mod tests {
    use super::*;
    use sm_core::baselines::original_layout;
    use sm_core::flow::{protect, FlowConfig};
    use sm_exec::CancelToken;
    use sm_layout::split_layout;
    use sm_netlist::parse::bench::{parse_bench, C17_BENCH};
    use sm_netlist::Library;

    fn c17() -> Netlist {
        parse_bench("c17", C17_BENCH, &Library::nangate45()).unwrap()
    }

    #[test]
    fn attack_on_original_layout_recovers_most_connections() {
        let n = c17();
        let base = original_layout(&n, 0.6, 1);
        let split = split_layout(&n, &base.placement, &base.routing, 3);
        if split.cut_nets == 0 {
            return; // everything below the split: nothing to attack
        }
        let out = network_flow_attack(&n, &n, &base.placement, &split, &ProximityConfig::default());
        // Unprotected layouts leak: proximity recovers a clear majority.
        assert!(out.ccr >= 0.5, "CCR {}", out.ccr);
        assert_eq!(out.pairs.len(), split.feol.sink_vpins().len());
    }

    #[test]
    fn attack_on_protected_layout_recovers_nothing() {
        let n = c17();
        let p = protect(&n, &FlowConfig::iscas_default(7));
        let split = split_layout(&p.randomization.erroneous, &p.placement, &p.feol_routing, 4);
        let out = network_flow_attack(
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
        let base = original_layout(&n, 0.6, 2);
        let split = split_layout(&n, &base.placement, &base.routing, 3);
        let out = network_flow_attack(&n, &n, &base.placement, &split, &ProximityConfig::default());
        out.recovered.validate().unwrap();
        sm_netlist::graph::topo_order(&out.recovered).unwrap();
    }

    #[test]
    fn cancelled_attack_returns_none_and_armed_token_changes_nothing() {
        let n = c17();
        let base = original_layout(&n, 0.6, 1);
        let split = split_layout(&n, &base.placement, &base.routing, 3);
        let cfg = ProximityConfig::default();
        let attack = |token: &CancelToken| {
            let exec = Budget::on_pool(Arc::clone(Pool::global()), 1).with_cancel(token.clone());
            let mut rec = sm_exec::phase::Recorder::new();
            network_flow_attack_budgeted(&n, &n, &base.placement, &split, &cfg, &exec, &mut rec)
        };
        // A pre-cancelled token stops the attack at its first phase
        // boundary with no partial result.
        let cancelled = CancelToken::new();
        cancelled.cancel();
        assert!(attack(&cancelled).is_none());
        // An armed-but-never-fired token must not perturb the result:
        // the cancellable path and the plain path agree exactly.
        let via_token = attack(&CancelToken::new());
        let plain = network_flow_attack(&n, &n, &base.placement, &split, &cfg);
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
        let base = original_layout(&n, 0.6, 3);
        let split = split_layout(&n, &base.placement, &base.routing, 3);
        let out = network_flow_attack(&n, &n, &base.placement, &split, &ProximityConfig::default());
        let mut seen = std::collections::HashSet::new();
        for &(_, s) in &out.pairs {
            assert!(seen.insert(s), "sink {s} assigned twice");
        }
    }
}

#[cfg(test)]
mod assignment_pin {
    //! Pins the committed pairs of the attack's reconstruction on
    //! generated ISCAS layouts, original and protected, to hashes
    //! captured from the reference-DFS reconstruction: FNV-1a over every
    //! `(driver, sink)` pair as two little-endian `u64`s.

    use super::*;
    use sm_core::baselines::original_layout;
    use sm_core::flow::{protect, FlowConfig};
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
    const PINS: [(&str, u8, &str, usize, u64); 12] = [
        ("c432", 3, "original", 208, 0x581a_cc84_f555_90ea),
        ("c432", 3, "protected", 277, 0xfbf0_7c92_b97c_c8a2),
        ("c432", 4, "original", 71, 0xfc1b_c8c3_03ab_a97a),
        ("c432", 4, "protected", 222, 0x4844_eddc_c9b2_9384),
        ("c432", 5, "original", 13, 0x9ff8_b1f7_7333_b4d6),
        ("c432", 5, "protected", 185, 0x66e6_2866_f3d7_c6c9),
        ("c880", 3, "original", 508, 0xd9a9_4120_6ba4_22e7),
        ("c880", 3, "protected", 540, 0xa903_458e_d6c8_d7e7),
        ("c880", 4, "original", 214, 0xb518_a56c_fb5d_e0ce),
        ("c880", 4, "protected", 268, 0xda58_3c71_20fc_7f1d),
        ("c880", 5, "original", 33, 0xb38f_ae19_4665_eb0c),
        ("c880", 5, "protected", 93, 0x8c63_e1d9_5754_ea10),
    ];

    #[test]
    fn committed_pairs_match_pinned_hashes() {
        let exec = Budget::on_pool(Arc::clone(Pool::global()), 1);
        let config = ProximityConfig::default();
        let pairs = |placed: &Netlist, split: &SplitLayout| {
            let out = network_flow_assignment(
                placed,
                split,
                &config,
                &exec,
                &mut sm_exec::phase::Recorder::new(),
            )
            .expect("a fresh token never cancels");
            (out.pairs.len(), pairs_fnv(&out.pairs))
        };
        for profile in [
            sm_benchgen::iscas::IscasProfile::c432(),
            sm_benchgen::iscas::IscasProfile::c880(),
        ] {
            let n = sm_benchgen::iscas::generate(&profile, 1);
            let base = original_layout(&n, 0.6, 1);
            let p = protect(&n, &FlowConfig::iscas_default(1));
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
    //! on real generated layouts and across config corners (including
    //! ones where the ring bound must refuse to prune).

    use super::*;
    use sm_core::baselines::original_layout;
    use sm_layout::split_layout;

    type SinkRows = Vec<Vec<(i64, usize)>>;

    fn rows_for(n: &Netlist, config: &ProximityConfig) -> (SinkRows, SinkRows) {
        let base = original_layout(n, 0.6, 1);
        let split = split_layout(n, &base.placement, &base.routing, 3);
        let inst = AssignmentInstance::build(n, &split, config);
        let drivers = split.feol.driver_vpins();
        let driver_geom: Vec<(Point, Option<(i8, i8)>)> = drivers
            .iter()
            .map(|&d| {
                let v = &split.feol.vpins[d];
                (v.position, v.stub_direction)
            })
            .collect();
        let reference: Vec<Vec<(i64, usize)>> = split
            .feol
            .sink_vpins()
            .iter()
            .map(|&s| {
                score_sink_full(
                    split.feol.vpins[s].position,
                    &drivers,
                    &driver_geom,
                    config.candidates_per_sink.max(1),
                    config,
                )
            })
            .collect();
        (inst.candidates, reference)
    }

    #[test]
    fn grid_scoring_matches_exhaustive_reference() {
        let c432 = sm_benchgen::iscas::generate(&sm_benchgen::iscas::IscasProfile::c432(), 1);
        let c880 = sm_benchgen::iscas::generate(&sm_benchgen::iscas::IscasProfile::c880(), 1);
        for n in [&c432, &c880] {
            for k in [1usize, 3, 24, 10_000] {
                let config = ProximityConfig {
                    candidates_per_sink: k,
                    ..ProximityConfig::default()
                };
                let (grid, reference) = rows_for(n, &config);
                assert_eq!(grid, reference, "{} k={k}", n.name());
            }
        }
    }

    #[test]
    fn config_corners_agree_with_reference() {
        let n = sm_benchgen::iscas::generate(&sm_benchgen::iscas::IscasProfile::c432(), 2);
        let corners = [
            // Direction factor below 1 shrinks costs for disagreeing
            // stubs — the bound must use min(1, factor).
            ProximityConfig {
                direction_factor: 0.25,
                ..ProximityConfig::default()
            },
            // Zero distance weight: every pair costs the same floor.
            ProximityConfig {
                distance_weight: 0.0,
                ..ProximityConfig::default()
            },
            // Negative load budget: constant extra multiplier on every
            // pair.
            ProximityConfig {
                load_budget_ff: -3.0,
                ..ProximityConfig::default()
            },
            // Negative distance weight: pruning is unsound, the build
            // must fall back to the full scan (still equal by
            // construction — this guards the fallback is taken, not a
            // crash).
            ProximityConfig {
                distance_weight: -1.0,
                ..ProximityConfig::default()
            },
        ];
        for config in &corners {
            let (grid, reference) = rows_for(&n, config);
            assert_eq!(grid, reference, "corner {config:?}");
        }
    }

    #[test]
    fn parallel_scoring_is_order_stable() {
        let n = sm_benchgen::iscas::generate(&sm_benchgen::iscas::IscasProfile::c880(), 1);
        let base = original_layout(&n, 0.6, 1);
        let split = split_layout(&n, &base.placement, &base.routing, 3);
        let config = ProximityConfig::default();
        let serial = AssignmentInstance::build(&n, &split, &config);
        let parallel =
            AssignmentInstance::build_with(&n, &split, &config, &Budget::with_threads(Some(4)));
        assert_eq!(serial.candidates, parallel.candidates);
        assert_eq!(serial.edges, parallel.edges);
    }
}

#[cfg(test)]
mod differential_tests {
    //! The differential harness on *real* attack instances: the exact
    //! flow network `network_flow_attack` builds for generated ISCAS
    //! layouts (via the shared [`AssignmentInstance`] constructor, so
    //! the tested network can never drift from the attacked one),
    //! solved by both MCMF engines. Real instances carry exact cost
    //! ties (unlike the tie-free random instances in `mcmf::tests`), so
    //! the pin here is flow value + total cost + both certificates —
    //! which optimal matching gets picked is the engines' documented
    //! freedom, and the report-byte guarantee comes from the demand
    //! dispatch in `MinCostFlow::run`.

    use super::*;
    use crate::mcmf::certificate::{verify, verify_edges};
    use crate::mcmf::{reference::SspFlow, MinCostFlow};
    use sm_core::baselines::original_layout;
    use sm_layout::split_layout;

    #[test]
    fn real_iscas_instances_agree_on_value_and_cost() {
        let profile = sm_benchgen::iscas::IscasProfile::c432();
        let n = sm_benchgen::iscas::generate(&profile, 1);
        let base = original_layout(&n, 0.6, 1);
        let mut attacked = 0usize;
        for layer in [3u8, 4, 5] {
            let split = split_layout(&n, &base.placement, &base.routing, layer);
            if split.cut_nets == 0 {
                continue;
            }
            attacked += 1;
            let inst = AssignmentInstance::build(&n, &split, &ProximityConfig::default());
            let mut fast = MinCostFlow::new(inst.nodes);
            let mut ssp = SspFlow::new(inst.nodes);
            for &(from, to, cap, cost) in &inst.edges {
                fast.add_edge(from, to, cap, cost);
                ssp.add_edge(from, to, cap, cost);
            }
            let a = fast.run_cost_scaling(inst.source, inst.target, inst.demand);
            let b = ssp.run(inst.source, inst.target, inst.demand);
            assert_eq!(a, b, "engines disagree on layer {layer}");
            verify(&fast, inst.source, inst.target, inst.demand).expect("scaling certificate");
            verify_edges(
                ssp.num_nodes(),
                &ssp.edge_views(),
                inst.source,
                inst.target,
                inst.demand,
            )
            .expect("oracle certificate");
        }
        assert!(attacked >= 2, "expected cut nets on most layers");
    }

    /// The pinned path on real instances, which are full of exact cost
    /// ties: `run` must return the oracle's flow edge for edge on c432
    /// and c880 at M3–M5, original and protected, and on c1355 at M3.
    #[test]
    fn real_iscas_instances_match_the_oracle_edge_for_edge() {
        use sm_core::flow::{protect, FlowConfig};
        let check = |name: &str, placed: &Netlist, split: &SplitLayout| {
            let inst = AssignmentInstance::build(placed, split, &ProximityConfig::default());
            assert!(inst.demand <= MinCostFlow::PINNED_SSP_MAX_DEMAND);
            let mut fast = MinCostFlow::new(inst.nodes);
            let mut ssp = SspFlow::new(inst.nodes);
            let handles: Vec<usize> = inst
                .edges
                .iter()
                .map(|&(from, to, cap, cost)| {
                    ssp.add_edge(from, to, cap, cost);
                    fast.add_edge(from, to, cap, cost)
                })
                .collect();
            let a = fast.run(inst.source, inst.target, inst.demand);
            let b = ssp.run(inst.source, inst.target, inst.demand);
            assert_eq!(a, b, "{name}: value and cost");
            for &h in &handles {
                assert_eq!(fast.flow_on(h), ssp.flow_on(h), "{name}: edge {h}");
            }
        };
        let designs = [
            (sm_benchgen::iscas::IscasProfile::c432(), &[3u8, 4, 5][..]),
            (sm_benchgen::iscas::IscasProfile::c880(), &[3, 4, 5]),
            (sm_benchgen::iscas::IscasProfile::c1355(), &[3]),
        ];
        for (profile, layers) in designs {
            let n = sm_benchgen::iscas::generate(&profile, 1);
            let base = original_layout(&n, 0.6, 1);
            let p = protect(&n, &FlowConfig::iscas_default(1));
            let erroneous = &p.randomization.erroneous;
            for &layer in layers {
                let original = split_layout(&n, &base.placement, &base.routing, layer);
                check(
                    &format!("{} M{layer} original", profile.name),
                    &n,
                    &original,
                );
                let protected = split_layout(erroneous, &p.placement, &p.feol_routing, layer);
                check(
                    &format!("{} M{layer} protected", profile.name),
                    erroneous,
                    &protected,
                );
            }
        }
    }
}
