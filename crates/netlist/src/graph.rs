//! Graph algorithms over a [`Netlist`]: topological order, levelization,
//! loop detection and reachability.
//!
//! Two edits must never introduce a combinational loop: the randomization
//! defense's sink swaps (a loop would let an attacker spot the
//! modification, see Sec. 4 of the paper) and the flow attack's
//! reconstruction of a loop-free netlist. Both run thousands of "would this
//! connection close a loop?" queries back to back through [`TopoOrder`],
//! an incremental topological order that answers most of them without a
//! search. [`would_create_cycle`] is the plain DFS it is checked against.

use crate::id::{CellId, NetId};
use crate::netlist::{Driver, Netlist, Sink};
use crate::NetlistError;
use std::collections::VecDeque;

/// Computes a topological order of all cells (fan-in before fan-out).
///
/// # Errors
///
/// Returns [`NetlistError::CombinationalLoop`] naming one cell on a cycle
/// if the netlist is cyclic.
pub fn topo_order(netlist: &Netlist) -> Result<Vec<CellId>, NetlistError> {
    let n = netlist.num_cells();
    let mut indeg = vec![0u32; n];
    // In-degree of a cell = number of its input pins driven by cells.
    // Multiple pins fed by the same driver count separately, which is fine
    // for Kahn's algorithm as long as decrements mirror the counting.
    for (id, cell) in netlist.cells() {
        indeg[id.index()] = cell
            .inputs()
            .iter()
            .filter(|&&net| netlist.driver_cell(net).is_some())
            .count() as u32;
    }
    let mut queue: VecDeque<CellId> = (0..n)
        .map(CellId::new)
        .filter(|c| indeg[c.index()] == 0)
        .collect();
    let mut order = Vec::with_capacity(n);
    while let Some(c) = queue.pop_front() {
        order.push(c);
        for sink in netlist.net(netlist.cell(c).output()).sinks() {
            if let Sink::Cell { cell, .. } = *sink {
                indeg[cell.index()] -= 1;
                if indeg[cell.index()] == 0 {
                    queue.push_back(cell);
                }
            }
        }
    }
    if order.len() != n {
        let stuck = (0..n)
            .map(CellId::new)
            .find(|c| indeg[c.index()] > 0)
            .expect("cycle implies a stuck cell");
        return Err(NetlistError::CombinationalLoop(
            netlist.cell(stuck).name.clone(),
        ));
    }
    Ok(order)
}

/// Logic level of every cell: `level = 1 + max(level of cell fan-ins)`,
/// with cells fed only by primary inputs at level 1.
///
/// # Errors
///
/// Propagates [`NetlistError::CombinationalLoop`] from [`topo_order`].
pub fn levelize(netlist: &Netlist) -> Result<Vec<u32>, NetlistError> {
    let order = topo_order(netlist)?;
    let mut level = vec![0u32; netlist.num_cells()];
    for c in order {
        let max_in = netlist
            .cell(c)
            .inputs()
            .iter()
            .filter_map(|&net| netlist.driver_cell(net))
            .map(|d| level[d.index()])
            .max()
            .unwrap_or(0);
        level[c.index()] = max_in + 1;
    }
    Ok(level)
}

/// Maximum logic depth of the design (0 for an empty netlist).
///
/// # Errors
///
/// Propagates [`NetlistError::CombinationalLoop`].
pub fn depth(netlist: &Netlist) -> Result<u32, NetlistError> {
    Ok(levelize(netlist)?.into_iter().max().unwrap_or(0))
}

/// `true` if combinational paths lead from cell `from` to cell `to`
/// (including `from == to`).
pub fn reaches(netlist: &Netlist, from: CellId, to: CellId) -> bool {
    if from == to {
        return true;
    }
    let mut visited = vec![false; netlist.num_cells()];
    let mut stack = vec![from];
    visited[from.index()] = true;
    while let Some(c) = stack.pop() {
        for sink in netlist.net(netlist.cell(c).output()).sinks() {
            if let Sink::Cell { cell, .. } = *sink {
                if cell == to {
                    return true;
                }
                if !visited[cell.index()] {
                    visited[cell.index()] = true;
                    stack.push(cell);
                }
            }
        }
    }
    false
}

/// Would attaching net `driver_net` to an input pin of `sink_cell` create a
/// combinational loop?
///
/// The new edge `driver → sink_cell` closes a cycle exactly when
/// `sink_cell` already reaches the driver cell. This is the unbounded
/// reference DFS; [`TopoOrder::would_create_cycle`] answers the same
/// question incrementally and is checked against it.
pub fn would_create_cycle(netlist: &Netlist, driver_net: NetId, sink_cell: CellId) -> bool {
    match netlist.net(driver_net).driver() {
        Driver::Cell(d) => reaches(netlist, sink_cell, d),
        Driver::Port(_) => false, // primary inputs can never be downstream
    }
}

/// A netlist under edit together with a topological order of its cells
/// that every edit keeps valid: the incremental algorithm of Pearce and
/// Kelly ("A dynamic topological sort algorithm for directed acyclic
/// graphs", *JEA* 2006).
///
/// The order owns its netlist, so [`TopoOrder::move_sink`] is the only
/// way to rewire it and the order can never go stale:
///
/// * The query for the edge `driver → sink` answers `false` at once when
///   `sink` is already ordered after `driver`, because every path runs
///   forward in the order. Otherwise a DFS from `sink` visits only the
///   cells ordered strictly between the two.
/// * An edit that inserts such a backward edge re-sorts only the
///   affected window. The cells reachable from `sink` and the cells
///   reaching `driver` inside it trade their positions, the latter
///   first; every other cell keeps its position.
///
/// Answers equal [`would_create_cycle`] on the current netlist (debug
/// builds cross-check every one), so a caller switching from the
/// reference DFS makes exactly the same decisions.
#[derive(Debug, Clone)]
pub struct TopoOrder {
    netlist: Netlist,
    /// Position of each cell in the order: every cell-to-cell connection
    /// runs from a lower position to a higher one.
    pos: Vec<usize>,
    /// Visited flags of the running search; all clear between searches.
    seen: Vec<bool>,
    stack: Vec<CellId>,
    /// The cells the last forward search reached from its sink.
    forward: Vec<CellId>,
    /// The cells the last backward search reached from its driver.
    backward: Vec<CellId>,
    /// The positions a re-sort hands back out.
    slots: Vec<usize>,
}

impl TopoOrder {
    /// Orders the cells of `netlist` topologically.
    ///
    /// # Errors
    ///
    /// Propagates [`NetlistError::CombinationalLoop`] from [`topo_order`].
    pub fn new(netlist: Netlist) -> Result<TopoOrder, NetlistError> {
        let mut pos = vec![0; netlist.num_cells()];
        for (i, c) in topo_order(&netlist)?.into_iter().enumerate() {
            pos[c.index()] = i;
        }
        Ok(TopoOrder {
            seen: vec![false; pos.len()],
            pos,
            netlist,
            stack: Vec::new(),
            forward: Vec::new(),
            backward: Vec::new(),
            slots: Vec::new(),
        })
    }

    /// The netlist in its current state.
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// Gives the netlist back, dropping the order.
    pub fn into_netlist(self) -> Netlist {
        self.netlist
    }

    /// Would attaching net `driver_net` to an input pin of `sink_cell`
    /// create a combinational loop? Same answer as
    /// [`would_create_cycle`] on [`Self::netlist`].
    pub fn would_create_cycle(&mut self, driver_net: NetId, sink_cell: CellId) -> bool {
        let closes = match self.netlist.net(driver_net).driver() {
            Driver::Cell(d) => self.search_forward(d, sink_cell),
            Driver::Port(_) => false,
        };
        debug_assert_eq!(
            closes,
            would_create_cycle(&self.netlist, driver_net, sink_cell),
            "incremental order disagrees with the reference DFS"
        );
        closes
    }

    /// [`Netlist::move_sink`], keeping the order valid.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalLoop`], naming the sink cell,
    /// if the new connection would close a loop, and otherwise the errors
    /// of [`Netlist::move_sink`]. On error nothing changes.
    pub fn move_sink(&mut self, from: NetId, sink: Sink, to: NetId) -> Result<(), NetlistError> {
        let edge = match (sink, self.netlist.net(to).driver()) {
            (Sink::Cell { cell, .. }, Driver::Cell(driver)) => Some((driver, cell)),
            // Ports sit outside the cell order.
            _ => None,
        };
        // The forward set does not depend on whether the sink's old
        // connection is still in place: reaching its old driver from the
        // sink would already be a loop.
        if let Some((driver, cell)) = edge {
            if self.search_forward(driver, cell) {
                return Err(NetlistError::CombinationalLoop(
                    self.netlist.cell(cell).name.clone(),
                ));
            }
        }
        self.netlist.move_sink(from, sink, to)?;
        if let Some((driver, cell)) = edge {
            self.reorder(driver, cell);
        }
        Ok(())
    }

    /// Collects in `forward` the cells reachable from `sink` that are
    /// ordered before `driver`, and reports whether `driver` itself is
    /// reachable, i.e. whether the edge `driver → sink` closes a loop.
    fn search_forward(&mut self, driver: CellId, sink: CellId) -> bool {
        self.forward.clear();
        if driver == sink {
            return true;
        }
        let upper = self.pos[driver.index()];
        if self.pos[sink.index()] > upper {
            return false;
        }
        self.seen[sink.index()] = true;
        self.forward.push(sink);
        self.stack.push(sink);
        let mut closes = false;
        'search: while let Some(c) = self.stack.pop() {
            for s in self.netlist.net(self.netlist.cell(c).output()).sinks() {
                if let Sink::Cell { cell, .. } = *s {
                    if cell == driver {
                        closes = true;
                        break 'search;
                    }
                    if self.pos[cell.index()] < upper && !self.seen[cell.index()] {
                        self.seen[cell.index()] = true;
                        self.forward.push(cell);
                        self.stack.push(cell);
                    }
                }
            }
        }
        self.stack.clear();
        for c in &self.forward {
            self.seen[c.index()] = false;
        }
        closes
    }

    /// Restores the order after the edge `driver → sink` was inserted,
    /// with `forward` holding the forward set [`Self::search_forward`]
    /// collected for it.
    fn reorder(&mut self, driver: CellId, sink: CellId) {
        let lower = self.pos[sink.index()];
        if lower > self.pos[driver.index()] {
            return;
        }
        // The cells inside the window that reach `driver`.
        self.backward.clear();
        self.seen[driver.index()] = true;
        self.backward.push(driver);
        self.stack.push(driver);
        while let Some(c) = self.stack.pop() {
            for &net in self.netlist.cell(c).inputs() {
                if let Some(d) = self.netlist.driver_cell(net) {
                    if self.pos[d.index()] > lower && !self.seen[d.index()] {
                        self.seen[d.index()] = true;
                        self.backward.push(d);
                        self.stack.push(d);
                    }
                }
            }
        }
        for c in &self.backward {
            self.seen[c.index()] = false;
        }
        // Both sets keep their inner order; the backward set takes the
        // lowest of the positions the two held, the forward set the rest.
        let pos = &mut self.pos;
        self.backward.sort_unstable_by_key(|c| pos[c.index()]);
        self.forward.sort_unstable_by_key(|c| pos[c.index()]);
        self.slots.clear();
        self.slots.extend(
            self.backward
                .iter()
                .chain(&self.forward)
                .map(|c| pos[c.index()]),
        );
        self.slots.sort_unstable();
        for (c, &slot) in self.backward.iter().chain(&self.forward).zip(&self.slots) {
            pos[c.index()] = slot;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GateFn, Library, NetlistBuilder};

    fn chain(len: usize) -> Netlist {
        let lib = Library::nangate45();
        let mut b = NetlistBuilder::new("chain", &lib);
        let mut cur = b.input("a");
        for _ in 0..len {
            cur = b.gate(GateFn::Inv, &[cur]).unwrap();
        }
        b.output("y", cur);
        b.finish().unwrap()
    }

    #[test]
    fn topo_order_respects_edges() {
        let n = chain(5);
        let order = topo_order(&n).unwrap();
        assert_eq!(order.len(), 5);
        // In a chain built in order, topological position equals build order.
        let pos: Vec<usize> = order.iter().map(|c| c.index()).collect();
        assert_eq!(pos, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn levelize_chain() {
        let n = chain(4);
        let lv = levelize(&n).unwrap();
        assert_eq!(lv, vec![1, 2, 3, 4]);
        assert_eq!(depth(&n).unwrap(), 4);
    }

    #[test]
    fn reaches_transitively() {
        let n = chain(4);
        assert!(reaches(&n, CellId::new(0), CellId::new(3)));
        assert!(!reaches(&n, CellId::new(3), CellId::new(0)));
        assert!(reaches(&n, CellId::new(2), CellId::new(2)));
    }

    #[test]
    fn cycle_guard_detects_back_edge() {
        let n = chain(4);
        // Connecting the last inverter's output back to the first would loop.
        let last_out = n.cell(CellId::new(3)).output();
        assert!(would_create_cycle(&n, last_out, CellId::new(0)));
        // Forward edge is fine.
        let first_out = n.cell(CellId::new(0)).output();
        assert!(!would_create_cycle(&n, first_out, CellId::new(3)));
        // Primary-input nets never create cycles.
        let pi = n.input_ports()[0].net;
        assert!(!would_create_cycle(&n, pi, CellId::new(0)));
    }

    #[test]
    fn topo_order_reorders_backward_edges_and_refuses_loops() {
        // Two independent chains x0 → x1 and y0 → y1.
        let lib = Library::nangate45();
        let mut b = NetlistBuilder::new("two_chains", &lib);
        let a = b.input("a");
        let x0 = b.gate(GateFn::Inv, &[a]).unwrap();
        let y0 = b.gate(GateFn::Inv, &[a]).unwrap();
        let x1 = b.gate(GateFn::Inv, &[x0]).unwrap();
        let y1 = b.gate(GateFn::Inv, &[y0]).unwrap();
        b.output("x", x1);
        b.output("y", y1);
        let mut order = TopoOrder::new(b.finish().unwrap()).unwrap();
        let cell = |order: &TopoOrder, net| order.netlist().driver_cell(net).unwrap();
        let (cx0, cy1) = (cell(&order, x0), cell(&order, y1));
        assert!(order.pos[cx0.index()] < order.pos[cy1.index()]);
        // y1 → x0 runs backward in the initial order without closing a
        // loop: the y chain moves ahead of the x chain.
        assert!(!order.would_create_cycle(y1, cx0));
        order
            .move_sink(a, Sink::Cell { cell: cx0, pin: 0 }, y1)
            .unwrap();
        let n = order.netlist();
        for (driver, c) in n.cells() {
            for sink in n.net(c.output()).sinks() {
                if let Sink::Cell { cell, .. } = *sink {
                    assert!(order.pos[driver.index()] < order.pos[cell.index()]);
                }
            }
        }
        // x1 → y0 would now close y0 → y1 → x0 → x1 → y0.
        let cy0 = cell(&order, y0);
        assert!(order.would_create_cycle(x1, cy0));
        let err = order
            .move_sink(a, Sink::Cell { cell: cy0, pin: 0 }, x1)
            .unwrap_err();
        assert!(matches!(err, NetlistError::CombinationalLoop(_)), "{err}");
        assert_eq!(order.netlist().cell(cy0).inputs(), &[a]);
        order.into_netlist().validate().unwrap();
    }

    #[test]
    fn diamond_levels() {
        let lib = Library::nangate45();
        let mut b = NetlistBuilder::new("diamond", &lib);
        let a = b.input("a");
        let l = b.gate(GateFn::Inv, &[a]).unwrap();
        let r = b.gate(GateFn::Buf, &[a]).unwrap();
        let y = b.gate(GateFn::And, &[l, r]).unwrap();
        b.output("y", y);
        let n = b.finish().unwrap();
        let lv = levelize(&n).unwrap();
        assert_eq!(lv[2], 2); // the AND sits one level above both branches
    }
}

#[cfg(test)]
mod incremental_differential {
    //! Pins [`TopoOrder`] to the reference DFS on generated ISCAS designs:
    //! random rewiring sequences, each move applied only when the guard
    //! allows it (as the flow attack and the randomizer do), with every
    //! answer compared against [`would_create_cycle`] and the order
    //! checked against every connection after every edit.

    use super::*;
    use proptest::prelude::*;

    /// A generated ISCAS design as this crate's own [`Netlist`]. The
    /// generator links the library build of this crate, which is a
    /// distinct crate from this unit-test build, so the design crosses
    /// over through the binary codec (positional ids: the round trip is
    /// exact).
    fn generated(profile: &sm_benchgen::iscas::IscasProfile, seed: u64) -> Netlist {
        let bytes = sm_codec::encode_to_vec(&sm_benchgen::iscas::generate(profile, seed));
        sm_codec::decode_from_slice(&bytes).expect("codec round trip")
    }

    fn assert_every_connection_runs_forward(order: &TopoOrder) {
        let n = order.netlist();
        for (driver, c) in n.cells() {
            for sink in n.net(c.output()).sinks() {
                if let Sink::Cell { cell, .. } = *sink {
                    assert!(
                        order.pos[driver.index()] < order.pos[cell.index()],
                        "{driver} -> {cell} runs backward"
                    );
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn topo_order_matches_reference_dfs(
            c880 in any::<bool>(),
            seed in 1u64..4,
            moves in proptest::collection::vec((any::<u64>(), any::<u64>(), any::<u64>()), 100..300),
        ) {
            let profile = if c880 {
                sm_benchgen::iscas::IscasProfile::c880()
            } else {
                sm_benchgen::iscas::IscasProfile::c432()
            };
            let mut order = TopoOrder::new(generated(&profile, seed)).unwrap();
            let nets = order.netlist().num_nets() as u64;
            for (from, pick, to) in moves {
                let from = NetId::new((from % nets) as usize);
                let to = NetId::new((to % nets) as usize);
                let sinks = order.netlist().net(from).sinks();
                if sinks.is_empty() {
                    continue;
                }
                let sink = sinks[(pick % sinks.len() as u64) as usize];
                let allowed = match sink {
                    Sink::Cell { cell, .. } => {
                        let closes = order.would_create_cycle(to, cell);
                        prop_assert_eq!(closes, would_create_cycle(order.netlist(), to, cell));
                        !closes
                    }
                    Sink::Port(_) => true,
                };
                if allowed {
                    order.move_sink(from, sink, to).unwrap();
                    assert_every_connection_runs_forward(&order);
                } else {
                    let refused = order.move_sink(from, sink, to);
                    prop_assert!(matches!(refused, Err(NetlistError::CombinationalLoop(_))));
                }
            }
            order.netlist().validate().unwrap();
            prop_assert!(topo_order(order.netlist()).is_ok());
        }
    }
}
