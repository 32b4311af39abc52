//! Minimum-cost maximum-flow, the combinatorial core of the network-flow
//! attack.
//!
//! The attack builds `source → drivers → sinks → target` with driver
//! capacities from the load-capacitance hint and per-edge costs from the
//! proximity/direction hints, then reads the optimal assignment off the
//! flow. A global optimum matters: each sink may have many closer false
//! drivers, but the *total*-cost-minimizing matching recovers the placed
//! netlist because the placer minimized the same objective.
//!
//! # Residual graph
//!
//! The engine runs on one frozen CSR (compressed sparse row) residual
//! graph. [`MinCostFlow::add_edge`] only stages `(from, to, cap, cost)`;
//! the first `run*` call freezes the staged edges and drops the staging
//! list, so a solve holds exactly one copy of the graph. Edge `e` owns
//! arc ids `2e` (forward) and `2e + 1` (reverse); the freeze is a stable
//! counting sort of those ids by tail, so the arcs of a node sit
//! contiguously in increasing arc id. Each arc stores its head, the slot
//! of its pair, its residual capacity and its cost (24 bytes). A forward
//! edge's flow is its reverse arc's residual and its capacity the sum of
//! both residuals, so no capacity or flow field exists; `flow_on`,
//! [`MinCostFlow::edge_views`] and the certificate read the same arrays.
//!
//! # Engine
//!
//! [`MinCostFlow::run`] solves the problem in two stages:
//!
//! 1. **Value** — a capped Dinic max-flow fixes the flow value
//!    `F = min(max_flow, maxflow(s, t))` in `O(E·√V)` on the attack's
//!    unit-capacity-dominated bipartite instances.
//! 2. **Cost** — a cost-scaling (ε-scaling push-relabel) refinement
//!    drives that flow to minimum cost: costs are scaled by `n + 1` so
//!    that a 1-optimal flow (every residual edge's reduced cost
//!    ≥ −ε with ε = 1) is *exactly* optimal, and ε is halved each phase
//!    from the largest scaled cost down to 1 — `O(log(nC))` phases of
//!    near-linear push/relabel work. Successive shortest paths are
//!    quadratic in cut pins (245 s on superblue18 at bench scale); the
//!    scaling engine solves the same instance in seconds.
//!
//! Every data structure is index-ordered (flat vectors, FIFO discharge,
//! lowest-arc-id-first scans — no hash-map iteration anywhere), so the
//! solution is a pure function of the instance: the same graph always
//! yields the same flow, which is what lets campaign reports stay
//! byte-identical across runs, thread counts and machines. A phase's
//! saturation sweep runs node by node rather than in arc-id order; its
//! result does not depend on the order, because a saturated arc's pair
//! has positive reduced cost and is never saturated itself, and the
//! excesses are plain sums. Discharge and relabel scan each node's arcs
//! in CSR order.
//!
//! # Tie choice
//!
//! Min-cost flows are **not unique**: real attack instances carry exact
//! cost ties (tens of tied candidate edges on c432 alone), every optimal
//! flow is equally correct, and which one a solver returns is an
//! artifact of its traversal order. Campaign reports record this
//! engine's choice, and hash tests pin it (the tests below on generated
//! instances, `proximity::assignment_pin` on real ISCAS ones). So any
//! change to the order in which Dinic or the refinement scans arcs — a
//! price update, push lookahead, a tie-breaking cost perturbation —
//! moves report bytes and ships with a report version bump.
//!
//! # Oracle and certificate
//!
//! The original adjacency-list successive-shortest-path engine is kept
//! verbatim, in test builds only, as `reference::SspFlow`: the oracle
//! the engine must match in flow value and total cost. [`certificate`]
//! checks any solved instance against the textbook optimality
//! conditions — capacity feasibility, flow conservation, maximality of
//! the value, and non-negative reduced costs under potentials recovered
//! from the residual graph — and runs automatically after every solve in
//! debug builds (hence under `cargo test`), so a regression cannot
//! produce a plausible-but-suboptimal assignment silently.

use std::collections::VecDeque;

/// An edge as [`MinCostFlow::add_edge`] staged it.
#[derive(Debug, Clone, Copy)]
struct StagedEdge {
    from: u32,
    to: u32,
    cap: i64,
    cost: i64,
}

/// One arc of the frozen residual graph. Pushing `d` units along an arc
/// moves `d` from its residual to its pair's.
#[derive(Debug, Clone, Copy, Default)]
struct ResidualArc {
    head: u32,
    /// CSR slot of the reverse arc.
    pair: u32,
    /// Residual capacity: `cap - flow` on a forward arc, `flow` on a
    /// reverse one.
    res: i64,
    /// `cost` on a forward arc, `-cost` on a reverse one.
    cost: i64,
}

/// The frozen CSR residual graph (see the module docs).
#[derive(Debug)]
struct Csr {
    /// The arcs of node `u` are `arcs[first[u]..first[u + 1]]`, in
    /// increasing arc id.
    first: Vec<u32>,
    arcs: Vec<ResidualArc>,
    /// CSR slot of each edge's forward arc.
    slot: Vec<u32>,
}

/// A min-cost max-flow problem instance (see the module docs).
#[derive(Debug, Default)]
pub struct MinCostFlow {
    nodes: usize,
    /// Edges added since construction; emptied by the freeze.
    staged: Vec<StagedEdge>,
    /// The residual graph, built by the first `run*` call.
    csr: Option<Csr>,
}

impl MinCostFlow {
    /// Creates an instance with `nodes` vertices.
    pub fn new(nodes: usize) -> Self {
        MinCostFlow {
            nodes,
            staged: Vec::new(),
            csr: None,
        }
    }

    /// Adds a directed edge; returns its handle (use with
    /// [`MinCostFlow::flow_on`]).
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range, the capacity or the cost
    /// is negative (the test oracle's Dijkstra needs non-negative costs,
    /// so the engine accepts exactly the instances the oracle can
    /// check), an index outgrows `u32`, or the instance has already been
    /// solved.
    pub fn add_edge(&mut self, from: usize, to: usize, cap: i64, cost: i64) -> usize {
        assert!(from < self.nodes && to < self.nodes, "node range");
        assert!(cap >= 0, "negative capacities unsupported");
        assert!(cost >= 0, "negative costs unsupported");
        assert!(
            self.csr.is_none(),
            "edges must be added before the first run"
        );
        let id = self.staged.len();
        u32::try_from(2 * id + 1).expect("arc ids fit in u32");
        self.staged.push(StagedEdge {
            from: u32::try_from(from).expect("node ids fit in u32"),
            to: u32::try_from(to).expect("node ids fit in u32"),
            cap,
            cost,
        });
        2 * id
    }

    /// Flow currently on edge `handle` (zero before the first run).
    ///
    /// # Panics
    ///
    /// Panics if `handle` was not returned by [`MinCostFlow::add_edge`].
    pub fn flow_on(&self, handle: usize) -> i64 {
        assert!(handle.is_multiple_of(2), "not an edge handle");
        match &self.csr {
            Some(g) => g.view(handle / 2).flow,
            None => {
                assert!(handle / 2 < self.staged.len(), "not an edge handle");
                0
            }
        }
    }

    /// Number of nodes of the instance.
    pub fn num_nodes(&self) -> usize {
        self.nodes
    }

    /// The forward edges as certificate views (tail, head, capacity,
    /// cost, flow).
    pub fn edge_views(&self) -> Vec<certificate::EdgeView> {
        match &self.csr {
            Some(g) => (0..g.slot.len()).map(|e| g.view(e)).collect(),
            None => self
                .staged
                .iter()
                .map(|e| certificate::EdgeView {
                    from: e.from as usize,
                    to: e.to as usize,
                    cap: e.cap,
                    cost: e.cost,
                    flow: 0,
                })
                .collect(),
        }
    }

    /// Sends up to `max_flow` units from `s` to `t` along a minimum-cost
    /// flow; returns `(flow, cost)`. In debug builds the solution is
    /// re-verified against the optimality certificate before it is
    /// returned.
    pub fn run(&mut self, s: usize, t: usize, max_flow: i64) -> (i64, i64) {
        self.run_interruptible(s, t, max_flow, &mut || false)
            .expect("uncancellable run")
    }

    /// [`MinCostFlow::run`] with a cooperative stop check, consulted at
    /// phase boundaries — after the Dinic stage and between ε-scaling
    /// phases — and never inside one, so a solve that *completes* is
    /// bit-identical whether or not a token was attached. Returns `None`
    /// if `should_stop` reported `true` at a boundary; the instance is
    /// then left holding a partial flow and must not be read further.
    /// Like the Dinic stage it starts with, it augments whatever flow the
    /// instance already holds.
    pub fn run_interruptible(
        &mut self,
        s: usize,
        t: usize,
        max_flow: i64,
        should_stop: &mut dyn FnMut() -> bool,
    ) -> Option<(i64, i64)> {
        assert!(s < self.nodes && t < self.nodes, "node range");
        let g = self.freeze();
        let flow = g.dinic(s, t, max_flow);
        if should_stop() {
            return None;
        }
        g.min_cost_refine(should_stop)?;
        let total_cost = g.total_cost();
        #[cfg(debug_assertions)]
        certificate::verify(self, s, t, max_flow).expect("optimality certificate");
        Some((flow, total_cost))
    }

    /// The residual graph, frozen from the staged edges on first use.
    fn freeze(&mut self) -> &mut Csr {
        let nodes = self.nodes;
        let staged = &mut self.staged;
        self.csr
            .get_or_insert_with(|| Csr::freeze(nodes, std::mem::take(staged)))
    }

    /// Overwrites the flow on edge `handle`, keeping its capacity — how
    /// the certificate tests corrupt a solved instance.
    #[cfg(test)]
    fn set_flow(&mut self, handle: usize, flow: i64) {
        let g = self.csr.as_mut().expect("a solved instance");
        let fwd = g.slot[handle / 2] as usize;
        let rev = g.arcs[fwd].pair as usize;
        let cap = g.arcs[fwd].res + g.arcs[rev].res;
        g.arcs[fwd].res = cap - flow;
        g.arcs[rev].res = flow;
    }
}

impl Csr {
    /// Builds the CSR graph from the staged edges: a stable counting
    /// sort of arc ids `2e`/`2e + 1` by tail, so each node's arcs keep
    /// increasing arc id. Consumes the staging list.
    fn freeze(nodes: usize, staged: Vec<StagedEdge>) -> Csr {
        let mut first = vec![0u32; nodes + 1];
        for e in &staged {
            first[e.from as usize + 1] += 1;
            first[e.to as usize + 1] += 1;
        }
        for u in 0..nodes {
            first[u + 1] += first[u];
        }
        let mut fill = first[..nodes].to_vec();
        let mut arcs = vec![ResidualArc::default(); 2 * staged.len()];
        let mut slot = Vec::with_capacity(staged.len());
        for e in &staged {
            let fwd = fill[e.from as usize];
            fill[e.from as usize] += 1;
            let rev = fill[e.to as usize];
            fill[e.to as usize] += 1;
            arcs[fwd as usize] = ResidualArc {
                head: e.to,
                pair: rev,
                res: e.cap,
                cost: e.cost,
            };
            arcs[rev as usize] = ResidualArc {
                head: e.from,
                pair: fwd,
                res: 0,
                cost: -e.cost,
            };
            slot.push(fwd);
        }
        Csr { first, arcs, slot }
    }

    fn nodes(&self) -> usize {
        self.first.len() - 1
    }

    /// CSR slots of node `u`'s arcs.
    fn arcs_of(&self, u: usize) -> std::ops::Range<usize> {
        self.first[u] as usize..self.first[u + 1] as usize
    }

    /// Moves `amount` units of residual from arc `a` to its pair.
    fn push(&mut self, a: usize, amount: i64) {
        let pair = self.arcs[a].pair as usize;
        self.arcs[a].res -= amount;
        self.arcs[pair].res += amount;
    }

    /// Edge `e` as a certificate view.
    fn view(&self, e: usize) -> certificate::EdgeView {
        let fwd = self.arcs[self.slot[e] as usize];
        let rev = self.arcs[fwd.pair as usize];
        certificate::EdgeView {
            from: rev.head as usize,
            to: fwd.head as usize,
            cap: fwd.res + rev.res,
            cost: fwd.cost,
            flow: rev.res,
        }
    }

    /// Cost of the current flow.
    fn total_cost(&self) -> i64 {
        (0..self.slot.len())
            .map(|e| {
                let v = self.view(e);
                v.flow * v.cost
            })
            .sum()
    }

    // ----- stage 1: flow value (Dinic) -----------------------------------

    /// Augments the current flow to `min(limit, maxflow)` additional
    /// units from `s` to `t` via Dinic's blocking flows; returns the
    /// units sent.
    fn dinic(&mut self, s: usize, t: usize, limit: i64) -> i64 {
        let n = self.nodes();
        let mut level: Vec<u32> = vec![u32::MAX; n];
        let mut cur: Vec<u32> = vec![0; n];
        let mut queue: VecDeque<usize> = VecDeque::new();
        let mut sent = 0i64;
        while sent < limit {
            // BFS level graph over residual arcs.
            level.fill(u32::MAX);
            level[s] = 0;
            queue.clear();
            queue.push_back(s);
            while let Some(u) = queue.pop_front() {
                for a in self.arcs_of(u) {
                    let arc = self.arcs[a];
                    if arc.res > 0 && level[arc.head as usize] == u32::MAX {
                        level[arc.head as usize] = level[u] + 1;
                        queue.push_back(arc.head as usize);
                    }
                }
            }
            if level[t] == u32::MAX {
                break;
            }
            // Blocking flow along the level graph, lowest arc id first.
            cur.copy_from_slice(&self.first[..n]);
            loop {
                let pushed = self.blocking_dfs(s, t, limit - sent, &mut level, &mut cur);
                if pushed == 0 {
                    break;
                }
                sent += pushed;
                if sent == limit {
                    break;
                }
            }
        }
        sent
    }

    /// One augmenting path of the blocking-flow phase (current-arc DFS).
    fn blocking_dfs(
        &mut self,
        u: usize,
        t: usize,
        f: i64,
        level: &mut [u32],
        cur: &mut [u32],
    ) -> i64 {
        if u == t {
            return f;
        }
        while cur[u] < self.first[u + 1] {
            let a = cur[u] as usize;
            let arc = self.arcs[a];
            let to = arc.head as usize;
            if arc.res > 0 && level[to] == level[u] + 1 {
                let d = self.blocking_dfs(to, t, f.min(arc.res), level, cur);
                if d > 0 {
                    self.push(a, d);
                    return d;
                }
            }
            cur[u] += 1;
        }
        level[u] = u32::MAX; // dead end for this phase
        0
    }

    // ----- stage 2: flow cost (ε-scaling push-relabel) --------------------

    /// Refines the current (max) flow to minimum cost. Costs are scaled
    /// by `n + 1` in `i128` (overflow-free for any `i64` input), so
    /// 1-optimality at the final phase implies exact optimality: a
    /// residual cycle's reduced costs telescope to its plain scaled cost,
    /// a multiple of `n + 1`, which `≥ −n` forces to be non-negative.
    fn min_cost_refine(&mut self, should_stop: &mut dyn FnMut() -> bool) -> Option<()> {
        let n = self.nodes();
        let alpha = n as i128 + 1;
        let max_cost = (0..self.slot.len())
            .map(|e| self.view(e))
            .filter(|v| v.cap > 0)
            .map(|v| (v.cost as i128 * alpha).abs())
            .max()
            .unwrap_or(0);
        if max_cost <= 1 {
            return Some(()); // all costs zero: any max flow is optimal
        }
        let mut state = Refinement {
            alpha,
            pot: vec![0; n],
            excess: vec![0; n],
            cur: vec![0; n],
            in_queue: vec![false; n],
            active: VecDeque::new(),
        };
        let mut eps = max_cost;
        while eps > 1 {
            eps = (eps / 2).max(1);
            self.refine(eps, &mut state);
            if should_stop() {
                return None;
            }
        }
        Some(())
    }

    /// One scaling phase: restores ε-optimality from (at most)
    /// 2ε-optimality by saturating every negative-reduced-cost residual
    /// arc and then discharging the resulting excesses FIFO with
    /// current-arc scans and ε-tight relabels.
    fn refine(&mut self, eps: i128, st: &mut Refinement) {
        debug_assert!(st.excess.iter().all(|&e| e == 0), "refine starts balanced");
        let n = self.nodes();
        // Convert to a 0-optimal pseudoflow: saturate admissible arcs.
        // The result does not depend on the sweep order (module docs).
        for u in 0..n {
            for a in self.arcs_of(u) {
                let arc = self.arcs[a];
                if arc.res > 0 && st.reduced_cost(u, arc) < 0 {
                    self.push(a, arc.res);
                    st.excess[u] -= arc.res;
                    st.excess[arc.head as usize] += arc.res;
                }
            }
        }
        st.active.clear();
        for (v, &e) in st.excess.iter().enumerate() {
            st.in_queue[v] = e > 0;
            if e > 0 {
                st.active.push_back(v as u32);
            }
        }
        st.cur.copy_from_slice(&self.first[..n]);
        // FIFO discharge until the pseudoflow is a flow again.
        while let Some(u) = st.active.pop_front() {
            let u = u as usize;
            st.in_queue[u] = false;
            while st.excess[u] > 0 {
                if st.cur[u] == self.first[u + 1] {
                    // Relabel: the ε-tightest potential that re-admits
                    // at least one residual arc.
                    let mut best = i128::MIN;
                    for a in self.arcs_of(u) {
                        let arc = self.arcs[a];
                        if arc.res > 0 {
                            best =
                                best.max(st.pot[arc.head as usize] - arc.cost as i128 * st.alpha);
                        }
                    }
                    debug_assert!(best > i128::MIN, "active node without residual arcs");
                    st.pot[u] = best - eps;
                    st.cur[u] = self.first[u];
                    continue;
                }
                let a = st.cur[u] as usize;
                let arc = self.arcs[a];
                if arc.res > 0 && st.reduced_cost(u, arc) < 0 {
                    let to = arc.head as usize;
                    let amount = arc.res.min(st.excess[u]);
                    self.push(a, amount);
                    st.excess[u] -= amount;
                    st.excess[to] += amount;
                    if st.excess[to] > 0 && !st.in_queue[to] {
                        st.in_queue[to] = true;
                        st.active.push_back(to as u32);
                    }
                } else {
                    st.cur[u] += 1;
                }
            }
        }
    }
}

/// Per-node state of the ε-scaling refinement, reused across phases.
struct Refinement {
    /// The cost scale `n + 1`.
    alpha: i128,
    pot: Vec<i128>,
    excess: Vec<i64>,
    /// Current arc (CSR slot) of each node's discharge scan.
    cur: Vec<u32>,
    in_queue: Vec<bool>,
    active: VecDeque<u32>,
}

impl Refinement {
    /// Scaled reduced cost of `arc` leaving `u`.
    fn reduced_cost(&self, u: usize, arc: ResidualArc) -> i128 {
        arc.cost as i128 * self.alpha + self.pot[u] - self.pot[arc.head as usize]
    }
}

pub mod certificate {
    //! Optimality certificates for solved min-cost-flow instances.
    //!
    //! [`verify`] re-derives, from nothing but the edge list and the flow
    //! on it, the three textbook conditions that together prove the flow
    //! is a minimum-cost maximum flow:
    //!
    //! 1. **feasibility** — every edge within capacity, reverse edges
    //!    mirroring their forward twin;
    //! 2. **conservation & maximality** — flow balanced at every interior
    //!    node, and no residual `s → t` path left when the value is below
    //!    the requested cap;
    //! 3. **optimality** — node potentials recovered from the residual
    //!    graph (queue-based Bellman–Ford from a virtual root) under
    //!    which every residual edge has non-negative reduced cost; a
    //!    residual negative cycle (the signature of a suboptimal flow)
    //!    makes the recovery itself fail.
    //!
    //! The checker consumes nothing but [`EdgeView`]s, so it verifies
    //! the engine, the test-only reference oracle, and deliberately
    //! corrupted flows (which it must reject) through one code path. Debug builds run it after every
    //! [`MinCostFlow::run`](super::MinCostFlow::run).

    use super::MinCostFlow;

    /// One forward edge of a solved instance.
    #[derive(Debug, Clone, Copy)]
    pub struct EdgeView {
        /// Tail node.
        pub from: usize,
        /// Head node.
        pub to: usize,
        /// Capacity.
        pub cap: i64,
        /// Cost per unit of flow.
        pub cost: i64,
        /// Flow assigned by the solver.
        pub flow: i64,
    }

    /// Why a claimed solution is not a min-cost max-flow.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum Violation {
        /// An edge's flow is negative or exceeds its capacity.
        Capacity {
            /// Forward-edge index into the view list.
            edge: usize,
            /// Offending flow value.
            flow: i64,
            /// The edge's capacity.
            cap: i64,
        },
        /// A non-terminal node creates or destroys flow.
        Conservation {
            /// The unbalanced node.
            node: usize,
            /// Net outflow minus inflow.
            imbalance: i64,
        },
        /// The flow value is below the cap yet an augmenting path remains.
        NotMaximal {
            /// The achieved value.
            flow: i64,
        },
        /// The residual graph contains a negative-cost cycle: a cheaper
        /// flow of the same value exists.
        NegativeCycle,
        /// A residual edge has negative reduced cost under the recovered
        /// potentials (unreachable when cycle detection passes; kept as
        /// an explicit final re-check).
        NegativeReducedCost {
            /// Forward-edge index into the view list.
            edge: usize,
            /// The offending reduced cost.
            reduced: i64,
        },
    }

    impl std::fmt::Display for Violation {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            match self {
                Violation::Capacity { edge, flow, cap } => {
                    write!(f, "edge {edge}: flow {flow} outside [0, {cap}]")
                }
                Violation::Conservation { node, imbalance } => {
                    write!(f, "node {node}: flow imbalance {imbalance}")
                }
                Violation::NotMaximal { flow } => {
                    write!(f, "flow {flow} below cap but an augmenting path remains")
                }
                Violation::NegativeCycle => {
                    write!(f, "residual graph has a negative-cost cycle")
                }
                Violation::NegativeReducedCost { edge, reduced } => {
                    write!(f, "edge {edge}: residual reduced cost {reduced} < 0")
                }
            }
        }
    }

    /// The witnesses of optimality: value, cost and dual potentials.
    #[derive(Debug, Clone)]
    pub struct Certificate {
        /// Units of flow from `s` to `t`.
        pub flow_value: i64,
        /// Total cost of the flow.
        pub total_cost: i64,
        /// Node potentials under which every residual edge has
        /// non-negative reduced cost (the LP dual solution).
        pub potentials: Vec<i64>,
    }

    /// Verifies a solved [`MinCostFlow`] instance.
    ///
    /// # Errors
    ///
    /// Returns the first [`Violation`] found.
    pub fn verify(
        f: &MinCostFlow,
        s: usize,
        t: usize,
        max_flow: i64,
    ) -> Result<Certificate, Violation> {
        verify_edges(f.num_nodes(), &f.edge_views(), s, t, max_flow)
    }

    /// Verifies a claimed solution given as an explicit edge list (see
    /// the module docs for the conditions checked).
    ///
    /// # Errors
    ///
    /// Returns the first [`Violation`] found.
    pub fn verify_edges(
        nodes: usize,
        edges: &[EdgeView],
        s: usize,
        t: usize,
        max_flow: i64,
    ) -> Result<Certificate, Violation> {
        // 1. Capacity feasibility.
        for (i, e) in edges.iter().enumerate() {
            if e.flow < 0 || e.flow > e.cap {
                return Err(Violation::Capacity {
                    edge: i,
                    flow: e.flow,
                    cap: e.cap,
                });
            }
        }
        // 2. Conservation everywhere but s/t; read the value off s.
        let mut imbalance = vec![0i64; nodes];
        for e in edges {
            imbalance[e.from] += e.flow;
            imbalance[e.to] -= e.flow;
        }
        for (v, &im) in imbalance.iter().enumerate() {
            if v != s && v != t && im != 0 {
                return Err(Violation::Conservation {
                    node: v,
                    imbalance: im,
                });
            }
        }
        let flow_value = imbalance[s];
        if flow_value < 0 || flow_value > max_flow || flow_value != -imbalance[t] {
            return Err(Violation::Conservation {
                node: s,
                imbalance: flow_value,
            });
        }
        // Residual adjacency: forward views with headroom, plus reverse
        // views for every unit already flowing.
        let mut radj: Vec<Vec<(usize, i64, usize)>> = vec![Vec::new(); nodes]; // (to, cost, edge)
        for (i, e) in edges.iter().enumerate() {
            if e.flow < e.cap {
                radj[e.from].push((e.to, e.cost, i));
            }
            if e.flow > 0 {
                radj[e.to].push((e.from, -e.cost, i));
            }
        }
        // 3a. Maximality: below the cap, t must be residual-unreachable.
        if flow_value < max_flow {
            let mut seen = vec![false; nodes];
            let mut stack = vec![s];
            seen[s] = true;
            while let Some(u) = stack.pop() {
                for &(v, _, _) in &radj[u] {
                    if !seen[v] {
                        seen[v] = true;
                        stack.push(v);
                    }
                }
            }
            if seen[t] {
                return Err(Violation::NotMaximal { flow: flow_value });
            }
        }
        // 3b. Optimality: recover potentials by queue-based Bellman–Ford
        // from a virtual root wired to every node at cost 0. More than
        // `nodes` relaxation rounds on one node means a negative residual
        // cycle — i.e. the flow is not cost-optimal.
        let mut pot = vec![0i64; nodes];
        let mut in_queue = vec![true; nodes];
        let mut rounds = vec![0u32; nodes];
        let mut queue: std::collections::VecDeque<usize> = (0..nodes).collect();
        while let Some(u) = queue.pop_front() {
            in_queue[u] = false;
            rounds[u] += 1;
            if rounds[u] > nodes as u32 + 1 {
                return Err(Violation::NegativeCycle);
            }
            for &(v, cost, _) in &radj[u] {
                if pot[u] + cost < pot[v] {
                    pot[v] = pot[u] + cost;
                    if !in_queue[v] {
                        in_queue[v] = true;
                        queue.push_back(v);
                    }
                }
            }
        }
        // Final explicit scan: every residual edge's reduced cost ≥ 0.
        for (i, e) in edges.iter().enumerate() {
            if e.flow < e.cap && e.cost + pot[e.from] - pot[e.to] < 0 {
                return Err(Violation::NegativeReducedCost {
                    edge: i,
                    reduced: e.cost + pot[e.from] - pot[e.to],
                });
            }
            if e.flow > 0 && -e.cost + pot[e.to] - pot[e.from] < 0 {
                return Err(Violation::NegativeReducedCost {
                    edge: i,
                    reduced: -e.cost + pot[e.to] - pot[e.from],
                });
            }
        }
        let total_cost = edges.iter().map(|e| e.flow * e.cost).sum();
        Ok(Certificate {
            flow_value,
            total_cost,
            potentials: pot,
        })
    }
}

#[cfg(test)]
pub mod reference {
    //! The original successive-shortest-path engine (per-node adjacency
    //! lists, a lazy binary heap), kept **verbatim** as the test oracle
    //! only: compiled in test builds, reached by no production path.
    //! [`MinCostFlow`](super::MinCostFlow) must reproduce its flow value
    //! and cost. Slow (quadratic in the flow value) but classical and
    //! easy to audit, so every change to the CSR engine is pinned
    //! against an independent implementation.

    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    #[derive(Debug, Clone)]
    struct Edge {
        to: usize,
        cap: i64,
        cost: i64,
        flow: i64,
    }

    /// Successive-shortest-path min-cost max-flow (Dijkstra on reduced
    /// costs with Johnson potentials). Same API surface as the
    /// production engine.
    #[derive(Debug, Default)]
    pub struct SspFlow {
        edges: Vec<Edge>,
        adj: Vec<Vec<usize>>,
    }

    impl SspFlow {
        /// Creates an instance with `nodes` vertices.
        pub fn new(nodes: usize) -> Self {
            SspFlow {
                edges: Vec::new(),
                adj: vec![Vec::new(); nodes],
            }
        }

        /// Adds a directed edge; returns its handle.
        ///
        /// # Panics
        ///
        /// Panics if an endpoint is out of range or the cost is negative
        /// (Dijkstra-based SSP requires non-negative costs).
        pub fn add_edge(&mut self, from: usize, to: usize, cap: i64, cost: i64) -> usize {
            assert!(from < self.adj.len() && to < self.adj.len(), "node range");
            assert!(cost >= 0, "negative costs unsupported");
            let id = self.edges.len();
            self.edges.push(Edge {
                to,
                cap,
                cost,
                flow: 0,
            });
            self.edges.push(Edge {
                to: from,
                cap: 0,
                cost: -cost,
                flow: 0,
            });
            self.adj[from].push(id);
            self.adj[to].push(id + 1);
            id
        }

        /// Flow currently on edge `handle`.
        pub fn flow_on(&self, handle: usize) -> i64 {
            self.edges[handle].flow
        }

        /// Number of nodes of the instance.
        pub fn num_nodes(&self) -> usize {
            self.adj.len()
        }

        /// The forward edges as certificate views.
        pub fn edge_views(&self) -> Vec<super::certificate::EdgeView> {
            (0..self.edges.len())
                .step_by(2)
                .map(|eid| {
                    let e = &self.edges[eid];
                    super::certificate::EdgeView {
                        from: self.edges[eid ^ 1].to,
                        to: e.to,
                        cap: e.cap,
                        cost: e.cost,
                        flow: e.flow,
                    }
                })
                .collect()
        }

        /// Sends up to `max_flow` units from `s` to `t`; returns
        /// `(flow, cost)`.
        pub fn run(&mut self, s: usize, t: usize, max_flow: i64) -> (i64, i64) {
            self.run_interruptible(s, t, max_flow, &mut || false)
                .expect("uncancellable run")
        }

        /// [`SspFlow::run`] with a cooperative stop check, consulted
        /// every 64 augmenting rounds (a phase boundary: never inside a
        /// round, so a completed solve is bit-identical whether or not a
        /// token was attached). Returns `None` once `should_stop`
        /// reports `true`; the instance then holds a partial flow and
        /// must not be read further.
        pub fn run_interruptible(
            &mut self,
            s: usize,
            t: usize,
            max_flow: i64,
            should_stop: &mut dyn FnMut() -> bool,
        ) -> Option<(i64, i64)> {
            let n = self.adj.len();
            let mut potential = vec![0i64; n];
            let mut total_flow = 0i64;
            let mut total_cost = 0i64;
            // Dijkstra state is reused across augmenting rounds: `reached`
            // records which nodes this round touched, so the reset and the
            // potential update walk only the reachable frontier instead of
            // scanning all |V| nodes per round (unreached nodes keep
            // `dist == MAX` and, as before, an unchanged potential).
            let mut dist = vec![i64::MAX; n];
            let mut prev_edge = vec![usize::MAX; n];
            let mut reached: Vec<usize> = Vec::with_capacity(n);
            let mut heap = BinaryHeap::new();
            let mut rounds = 0u64;
            while total_flow < max_flow {
                if rounds.is_multiple_of(64) && should_stop() {
                    return None;
                }
                rounds += 1;
                // Dijkstra on reduced costs.
                for &v in &reached {
                    dist[v] = i64::MAX;
                    prev_edge[v] = usize::MAX;
                }
                reached.clear();
                heap.clear();
                dist[s] = 0;
                reached.push(s);
                heap.push(Reverse((0i64, s)));
                while let Some(Reverse((d, u))) = heap.pop() {
                    if d > dist[u] {
                        continue;
                    }
                    for &eid in &self.adj[u] {
                        let e = &self.edges[eid];
                        if e.cap - e.flow <= 0 {
                            continue;
                        }
                        let nd = d + e.cost + potential[u] - potential[e.to];
                        if nd < dist[e.to] {
                            if dist[e.to] == i64::MAX {
                                reached.push(e.to);
                            }
                            dist[e.to] = nd;
                            prev_edge[e.to] = eid;
                            heap.push(Reverse((nd, e.to)));
                        }
                    }
                }
                if dist[t] == i64::MAX {
                    break;
                }
                for &v in &reached {
                    potential[v] += dist[v];
                }
                // Bottleneck along the path.
                let mut push = max_flow - total_flow;
                let mut v = t;
                while v != s {
                    let e = &self.edges[prev_edge[v]];
                    push = push.min(e.cap - e.flow);
                    v = self.edges[prev_edge[v] ^ 1].to;
                }
                let mut v = t;
                while v != s {
                    let eid = prev_edge[v];
                    self.edges[eid].flow += push;
                    self.edges[eid ^ 1].flow -= push;
                    total_cost += push * self.edges[eid].cost;
                    v = self.edges[eid ^ 1].to;
                }
                total_flow += push;
            }
            Some((total_flow, total_cost))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::certificate::{verify, verify_edges, Violation};
    use super::reference::SspFlow;
    use super::*;

    #[test]
    fn simple_assignment_prefers_cheap_edges() {
        // 2 drivers, 2 sinks; optimal total picks the diagonal.
        let mut f = MinCostFlow::new(6);
        let (s, t) = (0, 5);
        f.add_edge(s, 1, 1, 0);
        f.add_edge(s, 2, 1, 0);
        let e11 = f.add_edge(1, 3, 1, 1);
        let e12 = f.add_edge(1, 4, 1, 10);
        let e21 = f.add_edge(2, 3, 1, 10);
        let e22 = f.add_edge(2, 4, 1, 1);
        f.add_edge(3, t, 1, 0);
        f.add_edge(4, t, 1, 0);
        let (flow, cost) = f.run(s, t, 2);
        assert_eq!(flow, 2);
        assert_eq!(cost, 2);
        assert_eq!(f.flow_on(e11), 1);
        assert_eq!(f.flow_on(e22), 1);
        assert_eq!(f.flow_on(e12), 0);
        assert_eq!(f.flow_on(e21), 0);
    }

    #[test]
    fn global_optimum_beats_greedy() {
        // Greedy would grab the (1→3) cost-0 edge and force 2→4 at 100;
        // the optimum pays 1+1.
        let mut f = MinCostFlow::new(6);
        let (s, t) = (0, 5);
        f.add_edge(s, 1, 1, 0);
        f.add_edge(s, 2, 1, 0);
        f.add_edge(1, 3, 1, 0);
        f.add_edge(1, 4, 1, 1);
        f.add_edge(2, 3, 1, 1);
        f.add_edge(3, t, 1, 0);
        f.add_edge(4, t, 1, 0);
        let (flow, cost) = f.run(s, t, 2);
        assert_eq!(flow, 2);
        assert_eq!(cost, 2); // 1→4 (1) + 2→3 (1), not 1→3 (0) + stuck
    }

    #[test]
    fn capacity_limits_flow() {
        let mut f = MinCostFlow::new(4);
        f.add_edge(0, 1, 2, 1);
        f.add_edge(1, 2, 1, 1); // bottleneck
        f.add_edge(2, 3, 2, 1);
        let (flow, cost) = f.run(0, 3, 10);
        assert_eq!(flow, 1);
        assert_eq!(cost, 3);
    }

    #[test]
    fn disconnected_target_yields_zero() {
        let mut f = MinCostFlow::new(3);
        f.add_edge(0, 1, 1, 1);
        let (flow, cost) = f.run(0, 2, 5);
        assert_eq!(flow, 0);
        assert_eq!(cost, 0);
    }

    #[test]
    fn interruption_at_a_phase_boundary_returns_none() {
        // The stop check must be honoured, and a never-firing check must
        // change nothing.
        let build = || {
            let mut f = MinCostFlow::new(4);
            f.add_edge(0, 1, 2, 3);
            f.add_edge(1, 2, 2, 5);
            f.add_edge(2, 3, 2, 1);
            f
        };
        let mut calls = 0usize;
        let out = build().run_interruptible(0, 3, 2, &mut || {
            calls += 1;
            true
        });
        assert!(out.is_none());
        assert!(calls >= 1);
        let solved = build().run_interruptible(0, 3, 2, &mut || false);
        assert_eq!(solved, Some((2, 2 * 9)));
    }

    /// Small attack-shaped instances: `run` must agree with the oracle
    /// on flow value and total cost, and both must certify.
    #[test]
    fn auto_dispatch_pins_small_instances_to_the_oracle_matching() {
        for seed in 0..64u64 {
            let (mut pair, s, t, demand) = bipartite_instance(seed);
            pair.run_both(s, t, demand);
        }
    }

    // ----- the differential harness ---------------------------------------

    /// A generated instance: both engines built from one edge list.
    struct Pair {
        fast: MinCostFlow,
        oracle: SspFlow,
        handles: Vec<usize>,
    }

    impl Pair {
        fn new(nodes: usize) -> Pair {
            Pair {
                fast: MinCostFlow::new(nodes),
                oracle: SspFlow::new(nodes),
                handles: Vec::new(),
            }
        }

        fn add_edge(&mut self, from: usize, to: usize, cap: i64, cost: i64) {
            let h = self.fast.add_edge(from, to, cap, cost);
            let ho = self.oracle.add_edge(from, to, cap, cost);
            assert_eq!(h, ho, "engines hand out identical handles");
            self.handles.push(h);
        }

        /// Runs the engine against the oracle and checks value/cost
        /// equality plus both certificates. Returns
        /// `(flow, cost, matchings_equal)`.
        fn run_both(&mut self, s: usize, t: usize, max_flow: i64) -> (i64, i64, bool) {
            let fast = self.fast.run(s, t, max_flow);
            let oracle = self.oracle.run(s, t, max_flow);
            assert_eq!(fast.0, oracle.0, "flow value differs from the oracle");
            assert_eq!(fast.1, oracle.1, "total cost differs from the oracle");
            verify(&self.fast, s, t, max_flow).expect("engine certificate");
            verify_edges(
                self.oracle.num_nodes(),
                &self.oracle.edge_views(),
                s,
                t,
                max_flow,
            )
            .expect("oracle certificate");
            let same = self
                .handles
                .iter()
                .all(|&h| self.fast.flow_on(h) == self.oracle.flow_on(h));
            (fast.0, fast.1, same)
        }
    }

    /// A deterministic xorshift64* stream from `seed` (dependency-free).
    fn xorshift(seed: u64) -> impl FnMut() -> u64 {
        let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
        move || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545f4914f6cdd1d)
        }
    }

    /// Deterministic bipartite driver/sink instance from a seed: the
    /// exact shape the proximity attack builds (source → drivers with
    /// capacities → sinks with unit demand → target), with costs drawn
    /// wide enough that total-cost ties (the only case where two optimal
    /// matchings exist) are not generated.
    fn bipartite_instance(seed: u64) -> (Pair, usize, usize, i64) {
        let mut next = xorshift(seed);
        let drivers = 1 + (next() % 9) as usize;
        let sinks = 1 + (next() % 9) as usize;
        let nodes = 2 + drivers + sinks;
        let (s, t) = (0usize, nodes - 1);
        let mut pair = Pair::new(nodes);
        for d in 0..drivers {
            let cap = 1 + (next() % 4) as i64;
            pair.add_edge(s, 1 + d, cap, 0);
        }
        for k in 0..sinks {
            let sink = 1 + drivers + k;
            for d in 0..drivers {
                // ~70% edge density; occasional sinks end up infeasible,
                // which both engines must agree on too.
                if next() % 10 < 7 {
                    let cost = (next() % 1_000_000) as i64;
                    pair.add_edge(1 + d, sink, 1, cost);
                }
            }
            pair.add_edge(sink, t, 1, 0);
        }
        (pair, s, t, sinks as i64)
    }

    /// General layered instance (not the attack shape) from a seed:
    /// longer paths, larger capacities, a flow cap that often binds, and
    /// costs drawn from `0..costs`.
    fn layered_instance(seed: u64, costs: u64) -> (Pair, usize, usize, i64) {
        let mut next = xorshift(seed);
        let layers = 2 + (next() % 4) as usize;
        let width = 1 + (next() % 4) as usize;
        let nodes = 2 + layers * width;
        let (s, t) = (0usize, nodes - 1);
        let node = |l: usize, w: usize| 1 + l * width + w;
        let mut pair = Pair::new(nodes);
        for w in 0..width {
            pair.add_edge(
                s,
                node(0, w),
                1 + (next() % 5) as i64,
                (next() % costs) as i64,
            );
        }
        for l in 0..layers - 1 {
            for a in 0..width {
                for b in 0..width {
                    if next() % 3 < 2 {
                        pair.add_edge(
                            node(l, a),
                            node(l + 1, b),
                            1 + (next() % 3) as i64,
                            (next() % costs) as i64,
                        );
                    }
                }
            }
        }
        for w in 0..width {
            pair.add_edge(
                node(layers - 1, w),
                t,
                1 + (next() % 5) as i64,
                (next() % costs) as i64,
            );
        }
        let cap = 1 + (next() % 8) as i64;
        (pair, s, t, cap)
    }

    /// A tie-heavy attack-shaped instance from a seed: `drivers` drivers
    /// with capacities 1–4, and `sinks` unit sinks, each wired to
    /// `degree` drivers drawn with replacement (parallel edges included)
    /// at costs in `0..4`, so most optimal flows are one of many tied
    /// ones and the engine's tie choice decides the answer.
    fn tie_heavy_instance(
        seed: u64,
        drivers: usize,
        sinks: usize,
        degree: usize,
    ) -> (Pair, usize, usize, i64) {
        let mut next = xorshift(seed);
        let nodes = 2 + drivers + sinks;
        let (s, t) = (0usize, nodes - 1);
        let mut pair = Pair::new(nodes);
        for d in 0..drivers {
            pair.add_edge(s, 1 + d, 1 + (next() % 4) as i64, 0);
        }
        for k in 0..sinks {
            let sink = 1 + drivers + k;
            for _ in 0..degree {
                let d = (next() % drivers as u64) as usize;
                pair.add_edge(1 + d, sink, 1, (next() % 4) as i64);
            }
            pair.add_edge(sink, t, 1, 0);
        }
        (pair, s, t, sinks as i64)
    }

    /// FNV-1a over every edge's flow, as little-endian `i64`s in handle
    /// order.
    fn flows_fnv(flows: impl Iterator<Item = i64>) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for flow in flows {
            for b in flow.to_le_bytes() {
                hash ^= b as u64;
                hash = hash.wrapping_mul(0x100_0000_01b3);
            }
        }
        hash
    }

    /// Pins the engine's tie choice, which the SSP oracle cannot:
    /// `(flow, cost, flows_fnv)` of a small and a 13 000-node tie-heavy
    /// instance, captured from the adjacency-list cost-scaling engine the
    /// CSR graph replaced. The oracle picks a different optimum on the
    /// first instance, so the hash does depend on the tie choice.
    #[test]
    fn cost_scaling_tie_choice_matches_pinned_hashes() {
        let solve = |seed, drivers, sinks, degree| {
            let (mut pair, s, t, demand) = tie_heavy_instance(seed, drivers, sinks, degree);
            let (flow, cost) = pair.fast.run(s, t, demand);
            let hash = flows_fnv(pair.handles.iter().map(|&h| pair.fast.flow_on(h)));
            (flow, cost, hash)
        };
        assert_eq!(solve(1, 40, 120, 6), (92, 16, 0xee24_c97a_4121_b943));
        assert_eq!(solve(2, 4000, 9000, 4), (9000, 5282, 0x8824_3a52_1cc7_af83));

        let (mut pair, s, t, demand) = tie_heavy_instance(1, 40, 120, 6);
        assert_eq!(pair.oracle.run(s, t, demand), (92, 16));
        let oracle_hash = flows_fnv(pair.handles.iter().map(|&h| pair.oracle.flow_on(h)));
        assert_ne!(
            oracle_hash, 0xee24_c97a_4121_b943,
            "the instance must carry ties"
        );
    }

    /// A tie-heavy instance of 4 502 nodes and 2 000 units of demand:
    /// `run` must agree with the oracle on value and cost, and both must
    /// certify.
    #[test]
    fn wide_tie_heavy_instance_pins_the_oracle_flow() {
        let (mut pair, s, t, demand) = tie_heavy_instance(7, 2500, 2000, 4);
        pair.run_both(s, t, demand);
    }

    #[test]
    #[should_panic(expected = "negative capacities unsupported")]
    fn add_edge_rejects_negative_capacity() {
        MinCostFlow::new(2).add_edge(0, 1, -1, 0);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(1024))]

            /// The tentpole guarantee: over ≥ 1000 shim-seeded bipartite
            /// instances (the attack's exact network shape) the scaling
            /// engine matches the SSP oracle in flow value, total cost
            /// **and** the recovered matching, and both engines pass the
            /// optimality certificate. Costs are drawn from a 10^6 range
            /// so the generated optima are tie-free; the shim derives its
            /// case seeds deterministically from the test name, making
            /// this a stable fact rather than a probabilistic one —
            /// adversarial tie shapes are pinned separately below.
            #[test]
            fn differential_bipartite_instances_match_the_oracle(seed in any::<u64>()) {
                let (mut pair, s, t, demand) = bipartite_instance(seed);
                let (_, _, same) = pair.run_both(s, t, demand);
                prop_assert!(
                    same,
                    "engines disagreed on an optimal matching (cost tie in generator?)"
                );
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// Layered graphs with parallel paths and a binding flow cap:
            /// value and cost must agree (matchings are not compared —
            /// wide graphs genuinely tie); certificates checked inside
            /// `run_both`.
            #[test]
            fn differential_layered_instances_match_cost_and_value(seed in any::<u64>()) {
                let (mut pair, s, t, cap) = layered_instance(seed, 997);
                pair.run_both(s, t, cap);
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            /// Tie-heavy instances, where most optima are tied and only
            /// the traversal order picks one: `run` must agree with the
            /// oracle on value and cost, and both must certify.
            #[test]
            fn tie_heavy_instances_pin_the_oracle_matching(
                seed in any::<u64>(),
                drivers in 1usize..17,
                sinks in 1usize..49,
                degree in 1usize..7,
            ) {
                let (mut pair, s, t, demand) = tie_heavy_instance(seed, drivers, sinks, degree);
                pair.run_both(s, t, demand);
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            /// Layered graphs with multi-hop augmenting paths that cancel
            /// flow on reverse arcs, under a flow cap that often binds:
            /// `run` must agree with the oracle on value and cost, with
            /// costs drawn wide (`0..997`) and narrow (`0..4`: exact ties
            /// common).
            #[test]
            fn layered_instances_pin_the_oracle_flow(seed in any::<u64>()) {
                for costs in [997, 4] {
                    let (mut pair, s, t, cap) = layered_instance(seed, costs);
                    pair.run_both(s, t, cap);
                }
            }
        }
    }

    // ----- adversarial shapes ---------------------------------------------

    #[test]
    fn zero_cost_ties_agree_on_cost_and_certify() {
        // Every assignment costs zero: any perfect matching is optimal.
        // The engines may pick different ones; cost/value equality and
        // both certificates are the contract.
        let mut pair = Pair::new(6);
        let (s, t) = (0, 5);
        pair.add_edge(s, 1, 1, 0);
        pair.add_edge(s, 2, 1, 0);
        for d in [1, 2] {
            for k in [3, 4] {
                pair.add_edge(d, k, 1, 0);
            }
        }
        pair.add_edge(3, t, 1, 0);
        pair.add_edge(4, t, 1, 0);
        let (flow, cost, _) = pair.run_both(s, t, 2);
        assert_eq!((flow, cost), (2, 0));
    }

    #[test]
    fn saturated_drivers_scale_is_agreed() {
        // Driver capacity below sink demand: both engines must leave the
        // same sinks dry and still be cost-optimal for the flow they ship.
        let mut pair = Pair::new(7);
        let (s, t) = (0, 6);
        pair.add_edge(s, 1, 1, 0); // one driver, capacity 1
        for (k, cost) in [(2, 5i64), (3, 3), (4, 9)] {
            pair.add_edge(1, k, 1, cost);
            pair.add_edge(k, t, 1, 0);
        }
        pair.add_edge(5, t, 1, 0); // sink with no driver edge at all
        let (flow, cost, same) = pair.run_both(s, t, 4);
        assert_eq!((flow, cost), (1, 3), "the single unit takes the cheap edge");
        assert!(same, "unique optimum must match edge-for-edge");
    }

    #[test]
    fn infeasible_sinks_yield_zero_flow() {
        let mut pair = Pair::new(4);
        pair.add_edge(0, 1, 3, 7);
        pair.add_edge(2, 3, 3, 7); // t's side disconnected from s's
        let (flow, cost, same) = pair.run_both(0, 3, 5);
        assert_eq!((flow, cost), (0, 0));
        assert!(same);
    }

    #[test]
    fn single_edge_graphs() {
        for (cap, cost, ask) in [(1i64, 0i64, 1i64), (1, 9, 4), (7, 3, 7), (7, 3, 2)] {
            let mut pair = Pair::new(2);
            pair.add_edge(0, 1, cap, cost);
            let (flow, total, same) = pair.run_both(0, 1, ask);
            assert_eq!(flow, cap.min(ask));
            assert_eq!(total, flow * cost);
            assert!(same);
        }
    }

    #[test]
    fn zero_flow_request_is_a_noop() {
        let mut pair = Pair::new(3);
        pair.add_edge(0, 1, 2, 4);
        pair.add_edge(1, 2, 2, 4);
        let (flow, cost, same) = pair.run_both(0, 2, 0);
        assert_eq!((flow, cost), (0, 0));
        assert!(same);
    }

    // ----- certificate rejection ------------------------------------------

    /// A solved 2×2 assignment to corrupt: returns (instance, s, t).
    fn solved_assignment() -> (MinCostFlow, usize, usize) {
        let mut f = MinCostFlow::new(6);
        let (s, t) = (0, 5);
        f.add_edge(s, 1, 1, 0);
        f.add_edge(s, 2, 1, 0);
        f.add_edge(1, 3, 1, 1);
        f.add_edge(1, 4, 1, 10);
        f.add_edge(2, 3, 1, 10);
        f.add_edge(2, 4, 1, 1);
        f.add_edge(3, t, 1, 0);
        f.add_edge(4, t, 1, 0);
        f.run(s, t, 2);
        (f, s, t)
    }

    #[test]
    fn certificate_rejects_capacity_violation() {
        let (mut f, s, t) = solved_assignment();
        let cap = f.edge_views()[0].cap;
        f.set_flow(0, cap + 1); // s→driver over capacity
        assert!(matches!(
            verify(&f, s, t, 2),
            Err(Violation::Capacity { .. })
        ));
    }

    #[test]
    fn certificate_rejects_conservation_violation() {
        let (mut f, s, t) = solved_assignment();
        // Drop one unit on the sink→target edge only: node 3 now creates
        // flow out of nothing.
        f.set_flow(12, 0);
        assert!(matches!(
            verify(&f, s, t, 2),
            Err(Violation::Conservation { .. })
        ));
    }

    #[test]
    fn certificate_rejects_suboptimal_matching() {
        let (mut f, s, t) = solved_assignment();
        // Swap the optimal diagonal (cost 2) for the anti-diagonal
        // (cost 20): still a feasible max flow, but a residual negative
        // cycle exists and the certificate must find it.
        for (handle, flow) in [(4usize, 0i64), (6, 1), (8, 1), (10, 0)] {
            f.set_flow(handle, flow);
        }
        assert!(matches!(
            verify(&f, s, t, 2),
            Err(Violation::NegativeCycle | Violation::NegativeReducedCost { .. })
        ));
    }

    #[test]
    fn certificate_rejects_non_maximal_flow() {
        let (mut f, s, t) = solved_assignment();
        // Empty the whole flow: feasible, conserved, trivially "optimal"
        // for value 0 — but an augmenting path remains below the cap.
        for e in 0..f.edge_views().len() {
            f.set_flow(2 * e, 0);
        }
        assert!(matches!(
            verify(&f, s, t, 2),
            Err(Violation::NotMaximal { .. })
        ));
    }

    #[test]
    fn certificate_accepts_the_oracle() {
        let mut o = SspFlow::new(4);
        o.add_edge(0, 1, 2, 1);
        o.add_edge(1, 2, 1, 1);
        o.add_edge(2, 3, 2, 1);
        let (flow, cost) = o.run(0, 3, 10);
        assert_eq!((flow, cost), (1, 3));
        let cert = verify_edges(o.num_nodes(), &o.edge_views(), 0, 3, 10).unwrap();
        assert_eq!(cert.flow_value, 1);
        assert_eq!(cert.total_cost, 3);
        assert_eq!(cert.potentials.len(), 4);
    }
}
