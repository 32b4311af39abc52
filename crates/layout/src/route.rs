//! Global routing over the ten-layer stack.
//!
//! The router models what the paper's evaluation measures:
//!
//! * nets are decomposed into two-pin connections (Prim MST) and routed as
//!   L-shapes on a horizontal/vertical *layer pair*, picked by net length —
//!   short nets live low in the stack, long nets high, exactly the
//!   distribution Fig. 5 of the paper shows for original layouts;
//! * *lifted* nets (correction-cell or naive-lifting nets) are forced onto
//!   an upper layer pair via [`RouteOptions::lift`];
//! * every pin reaches its routing layer through a via stack from M1 (or
//!   from the correction-cell pin layer), and every layer change on a route
//!   adds vias — [`ViaCounts`] reproduces the V12…V910 columns of Table 2;
//! * per-edge capacities track congestion; overloaded L-shapes are bumped
//!   to higher layer pairs, and any remaining overflow is reported.

use crate::floorplan::Floorplan;
use crate::geom::Point;
use crate::hpwl::HpwlIndex;
use crate::place::Placement;
use crate::tech::{Direction, Technology};
use sm_netlist::{ConnectivityIndex, NetId, Netlist, Sink};
use std::collections::HashMap;
use std::fmt;

/// How many nets [`Router::try_route`] routes between cancellation
/// checks. Small enough that an expired deadline stops a superblue-scale
/// route within milliseconds, large enough that the check never shows up
/// in a profile.
pub const ROUTE_CANCEL_STRIDE: usize = 64;

/// Per-via-level counts: `counts[k]` is the number of vias between layer
/// `k+1` and `k+2` (so index 0 = V12, index 8 = V910).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ViaCounts {
    /// V12 … V910.
    pub counts: [u64; 9],
}

impl ViaCounts {
    /// Total vias across all levels.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Count of vias between layers `m` and `m+1` (1-based, `m` in 1..=9).
    ///
    /// # Panics
    ///
    /// Panics if `m` is outside `1..=9`.
    pub fn between(&self, m: u8) -> u64 {
        assert!((1..=9).contains(&m), "via level must be 1..=9");
        self.counts[(m - 1) as usize]
    }

    /// Percentage increase of each level vs a baseline (Table 2's Δ%).
    pub fn percent_increase_vs(&self, baseline: &ViaCounts) -> [f64; 9] {
        let mut out = [0.0; 9];
        for (i, slot) in out.iter_mut().enumerate() {
            if baseline.counts[i] > 0 {
                *slot = (self.counts[i] as f64 - baseline.counts[i] as f64)
                    / baseline.counts[i] as f64
                    * 100.0;
            }
        }
        out
    }
}

impl fmt::Display for ViaCounts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, c) in self.counts.iter().enumerate() {
            write!(f, "V{}{}: {}  ", i + 1, i + 2, c)?;
        }
        write!(f, "total: {}", self.total())
    }
}

/// One straight routed wire on a single layer, in gcell coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteSegment {
    /// Metal layer (1-based).
    pub layer: u8,
    /// Start gcell (column, row).
    pub a: (u16, u16),
    /// End gcell (column, row); equal to `a` for zero-length stubs.
    pub b: (u16, u16),
}

/// A via stack at one location, spanning `from_layer` to `to_layer`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ViaStack {
    /// Gcell location.
    pub at: (u16, u16),
    /// Lower layer (1-based, inclusive).
    pub from_layer: u8,
    /// Upper layer (1-based, inclusive).
    pub to_layer: u8,
}

/// One routed two-pin (MST-edge) connection of a net: an L shape from the
/// parent pin `a` over `corner` to the child pin `b`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TwoPinRoute {
    /// Index of the parent pin in the net's pin list (0 = driver).
    pub a_pin: u32,
    /// Index of the child pin in the net's pin list (always a sink).
    pub b_pin: u32,
    /// Parent gcell.
    pub a: (u16, u16),
    /// Child gcell.
    pub b: (u16, u16),
    /// Elbow gcell.
    pub corner: (u16, u16),
    /// Layer of the `a → corner` leg.
    pub first_layer: u8,
    /// Layer of the `corner → b` leg.
    pub second_layer: u8,
}

impl TwoPinRoute {
    /// Highest layer used by a leg of nonzero length.
    pub fn max_used_layer(&self) -> u8 {
        let mut m = 0;
        if self.a != self.corner {
            m = m.max(self.first_layer);
        }
        if self.corner != self.b {
            m = m.max(self.second_layer);
        }
        m
    }
}

/// The full route of one net.
#[derive(Debug, Clone, Default)]
pub struct NetRoute {
    /// Wire segments.
    pub segments: Vec<RouteSegment>,
    /// Via stacks (pin access + corners).
    pub vias: Vec<ViaStack>,
    /// The two-pin connections the net decomposes into (MST edges), with
    /// their elbow geometry — the FEOL/BEOL split works per connection.
    pub twopins: Vec<TwoPinRoute>,
}

/// Options controlling a routing run.
#[derive(Debug, Clone, Default)]
pub struct RouteOptions {
    /// Nets forced to route on (at least) the given layer. The router uses
    /// the layer pair `(lift, lift ± 1)` honoring preferred directions.
    /// This is the mechanism behind correction-cell and naive lifting.
    pub lift: HashMap<NetId, u8>,
    /// Pins of lifted nets that already sit on the lift layer (correction
    /// cell pins) — their via stack starts at that layer instead of M1.
    /// Keyed by net; value is the number of such pins (driver side first).
    pub elevated_pins: HashMap<NetId, usize>,
}

/// Result of routing one netlist.
#[derive(Debug, Clone)]
pub struct RoutingResult {
    pub(crate) tile_dbu: i64,
    pub(crate) nx: u16,
    pub(crate) ny: u16,
    pub(crate) routes: Vec<NetRoute>,
    pub(crate) via_counts: ViaCounts,
    pub(crate) wirelength_per_layer: [i64; 10],
    pub(crate) overflow_edges: usize,
}

impl RoutingResult {
    /// The route of `net`.
    pub fn route(&self, net: NetId) -> &NetRoute {
        &self.routes[net.index()]
    }

    /// Number of routed nets.
    pub fn num_routes(&self) -> usize {
        self.routes.len()
    }

    /// Gcell tile size in DBU.
    pub fn tile_dbu(&self) -> i64 {
        self.tile_dbu
    }

    /// Grid dimensions (columns, rows).
    pub fn grid_dims(&self) -> (u16, u16) {
        (self.nx, self.ny)
    }

    /// Center of gcell `(gx, gy)` in DBU.
    pub fn gcell_center(&self, g: (u16, u16)) -> Point {
        Point::new(
            g.0 as i64 * self.tile_dbu + self.tile_dbu / 2,
            g.1 as i64 * self.tile_dbu + self.tile_dbu / 2,
        )
    }

    /// Aggregate via counts (Table 2).
    pub fn via_counts(&self) -> &ViaCounts {
        &self.via_counts
    }

    /// Wirelength per layer in DBU (Fig. 5); index 0 = M1.
    pub fn wirelength_per_layer_dbu(&self) -> &[i64; 10] {
        &self.wirelength_per_layer
    }

    /// Total routed wirelength in DBU.
    pub fn total_wirelength_dbu(&self) -> i64 {
        self.wirelength_per_layer.iter().sum()
    }

    /// Routed wirelength of one net in DBU (wire only, vias excluded).
    pub fn net_wirelength_dbu(&self, net: NetId) -> i64 {
        self.routes[net.index()]
            .segments
            .iter()
            .map(|s| seg_len(s) * self.tile_dbu)
            .sum()
    }

    /// Number of grid edges whose capacity is exceeded (0 for a clean,
    /// congestion-free layout — the paper's setup guarantees this by
    /// choosing utilization appropriately).
    pub fn overflow_edges(&self) -> usize {
        self.overflow_edges
    }

    /// Highest metal layer used by `net` (0 if unrouted/degenerate).
    pub fn net_max_layer(&self, net: NetId) -> u8 {
        let r = &self.routes[net.index()];
        r.segments
            .iter()
            .map(|s| s.layer)
            .chain(r.vias.iter().map(|v| v.to_layer))
            .max()
            .unwrap_or(0)
    }
}

fn seg_len(s: &RouteSegment) -> i64 {
    (s.a.0 as i64 - s.b.0 as i64).abs() + (s.a.1 as i64 - s.b.1 as i64).abs()
}

/// Target grid resolution of the global router (max gcells per axis).
const MAX_GRID: i64 = 128;

/// The global router.
#[derive(Debug)]
pub struct Router<'t> {
    tech: &'t Technology,
}

struct Grid {
    nx: u16,
    ny: u16,
    /// Edge usage for every layer in one flat arena; layer `l`'s edges
    /// live at `offsets[l-1]..offsets[l]`. One allocation instead of a
    /// `Vec<Vec<u32>>`, and `edge_index` resolves straight into it.
    usage: Vec<u32>,
    /// Arena offset of each layer's edge block (`num_layers + 1`).
    offsets: Vec<usize>,
    /// capacity per edge for each layer
    cap: Vec<u32>,
}

impl Grid {
    #[inline]
    fn edge_index(&self, layer: u8, from: (u16, u16), horizontal: bool) -> usize {
        let base = self.offsets[(layer - 1) as usize];
        base + if horizontal {
            from.1 as usize * (self.nx as usize - 1) + from.0 as usize
        } else {
            from.0 as usize * (self.ny as usize - 1) + from.1 as usize
        }
    }

    /// Layer `l`'s edge block (1-based layer).
    fn layer_usage(&self, layer: u8) -> &[u32] {
        let li = (layer - 1) as usize;
        &self.usage[self.offsets[li]..self.offsets[li + 1]]
    }
}

/// Reusable Prim-MST buffers; one instance serves the whole net loop,
/// so the router performs no per-net scratch allocation.
#[derive(Default)]
struct MstScratch {
    in_tree: Vec<bool>,
    dist: Vec<i64>,
    parent: Vec<usize>,
}

impl MstScratch {
    fn reset(&mut self, n: usize) {
        self.in_tree.clear();
        self.in_tree.resize(n, false);
        self.dist.clear();
        self.dist.resize(n, i64::MAX);
        self.parent.clear();
        self.parent.resize(n, 0);
    }
}

impl<'t> Router<'t> {
    /// Creates a router for the given technology.
    pub fn new(tech: &'t Technology) -> Self {
        Router { tech }
    }

    /// Routes every net of `netlist` over `placement`.
    pub fn route(
        &self,
        netlist: &Netlist,
        placement: &Placement,
        fp: &Floorplan,
        options: &RouteOptions,
    ) -> RoutingResult {
        self.try_route(
            netlist,
            placement,
            fp,
            options,
            &sm_exec::CancelToken::new(),
        )
        .expect("an unarmed token cannot cancel routing")
    }

    /// [`Router::route`], honoring `cancel` between nets (every
    /// [`ROUTE_CANCEL_STRIDE`] of them): `None` means the token fired
    /// and the partial grid was discarded. The checkpoint sits between
    /// nets — never inside one — so a run that completes is
    /// byte-identical to [`Router::route`] whether or not a deadline
    /// was armed.
    pub fn try_route(
        &self,
        netlist: &Netlist,
        placement: &Placement,
        fp: &Floorplan,
        options: &RouteOptions,
        cancel: &sm_exec::CancelToken,
    ) -> Option<RoutingResult> {
        let core = fp.core();
        let span = core.width().max(core.height()).max(1);
        // Tile floor of half a row keeps vpin geometry sharp on small dies
        // while bounding the grid for the big ones.
        let tile = (span / MAX_GRID).max(fp.row_height() / 2);
        let nx = ((core.width() + tile - 1) / tile).max(2) as u16;
        let ny = ((core.height() + tile - 1) / tile).max(2) as u16;
        let num_layers = self.tech.num_layers() as usize;
        let mut offsets = Vec::with_capacity(num_layers + 1);
        offsets.push(0usize);
        for l in 0..num_layers {
            let horizontal = self.tech.layers[l].direction == Direction::Horizontal;
            let edges = if horizontal {
                (nx as usize - 1) * ny as usize
            } else {
                nx as usize * (ny as usize - 1)
            };
            offsets.push(offsets[l] + edges);
        }
        let mut grid = Grid {
            nx,
            ny,
            usage: vec![0u32; offsets[num_layers]],
            offsets,
            // One routing track per pitch crossing the tile; a small
            // reserve is withheld for pin access on M2/M3.
            cap: (0..num_layers)
                .map(|l| {
                    let tracks = ((tile / self.tech.layers[l].pitch_dbu) as u32).max(2);
                    if l < 3 {
                        (tracks * 3 / 4).max(2)
                    } else {
                        tracks
                    }
                })
                .collect(),
        };

        let mut routes = vec![NetRoute::default(); netlist.num_nets()];
        let mut via_counts = ViaCounts::default();
        let mut wpl = [0i64; 10];

        // Route long nets first so they claim the upper layers they need.
        // HPWL is computed once per net through the flat geometry index
        // (bit-identical to `Placement::net_hpwl`) instead of re-deriving
        // it inside the sort comparator and again for layer selection.
        let conn = ConnectivityIndex::build(netlist);
        let geom = HpwlIndex::build(netlist, placement, &conn);
        let mut order: Vec<NetId> = netlist.nets().map(|(id, _)| id).collect();
        order.sort_by_key(|&id| std::cmp::Reverse(geom.net_hpwl(id)));

        // Per-net scratch, reused across the loop: the net loop performs
        // no heap allocation beyond growing each net's own result route.
        let mut pins: Vec<Point> = Vec::new();
        let mut gpins: Vec<(u16, u16)> = Vec::new();
        let mut mst = MstScratch::default();

        for (ni, net) in order.into_iter().enumerate() {
            if ni % ROUTE_CANCEL_STRIDE == 0 && cancel.is_cancelled() {
                return None;
            }
            if netlist.net(net).degree() < 2 {
                continue;
            }
            pins.clear();
            pins.push(placement.driver_position(netlist, net));
            for s in netlist.net(net).sinks() {
                pins.push(match *s {
                    Sink::Cell { cell, .. } => placement.cell_center(cell),
                    Sink::Port(p) => placement.output_position(p.index()),
                });
            }
            gpins.clear();
            gpins.extend(pins.iter().map(|p| {
                (
                    ((p.x - core.lo.x) / tile).clamp(0, nx as i64 - 1) as u16,
                    ((p.y - core.lo.y) / tile).clamp(0, ny as i64 - 1) as u16,
                )
            }));
            let lift = options.lift.get(&net).copied();
            let pair = match lift {
                Some(l) => self.lift_pair(l),
                None => {
                    let len_um = geom.net_hpwl(net) as f64 / 1000.0;
                    self.length_pair(len_um)
                }
            };
            let route = &mut routes[net.index()];
            self.route_net(&mut grid, &gpins, pair, route, &mut mst);
            // Pin via stacks: from the pin layer up to the lower routing
            // layer of the pair, appended after the corner vias (the
            // order the per-net clone used to produce). Cell pins live
            // at M1; correction-cell pins (elevated) already sit at the
            // lift layer.
            let elevated = options.elevated_pins.get(&net).copied().unwrap_or(0);
            let low = pair.0.min(pair.1);
            for (i, &g) in gpins.iter().enumerate() {
                let pin_layer = if i < elevated { low } else { 1 };
                if pin_layer < low {
                    route.vias.push(ViaStack {
                        at: g,
                        from_layer: pin_layer,
                        to_layer: low,
                    });
                }
            }
            for v in &route.vias {
                for k in v.from_layer..v.to_layer {
                    via_counts.counts[(k - 1) as usize] += 1;
                }
            }
            for s in &route.segments {
                wpl[(s.layer - 1) as usize] += seg_len(s) * tile;
            }
        }

        let overflow_edges = (1..=num_layers as u8)
            .map(|l| {
                grid.layer_usage(l)
                    .iter()
                    .filter(|&&u| u > grid.cap[(l - 1) as usize])
                    .count()
            })
            .sum();

        Some(RoutingResult {
            tile_dbu: tile,
            nx,
            ny,
            routes,
            via_counts,
            wirelength_per_layer: wpl,
            overflow_edges,
        })
    }

    /// Layer pair `(horizontal, vertical)` for a lifted net: the lift layer
    /// plus the adjacent layer of the other direction (above if possible).
    fn lift_pair(&self, lift: u8) -> (u8, u8) {
        // The clamp keeps `lift` below the top layer, so the partner
        // above always exists.
        let lift = lift.clamp(2, self.tech.num_layers() - 1);
        let lift_dir = self.tech.layer(lift).direction;
        let partner = lift + 1;
        match lift_dir {
            Direction::Horizontal => (lift, partner),
            Direction::Vertical => (partner, lift),
        }
    }

    /// Length-based layer assignment by absolute net length, mirroring how
    /// routers fill the stack: short nets stay in M2/M3, only genuinely
    /// long wires earn the upper layers. (Horizontal layers are odd,
    /// vertical even in this stack.)
    fn length_pair(&self, len_um: f64) -> (u8, u8) {
        if len_um < 6.0 {
            (3, 2)
        } else if len_um < 12.0 {
            (3, 4)
        } else if len_um < 25.0 {
            (5, 4)
        } else if len_um < 60.0 {
            (5, 6)
        } else if len_um < 150.0 {
            (7, 6)
        } else {
            (9, 8)
        }
    }

    /// Routes one multi-pin net on the given layer pair: Prim MST over the
    /// pins, each MST edge realized as the cheaper of the two L-shapes,
    /// bumping the pair upward when both elbows are congested. Writes
    /// into `route` (the net's result slot) using the shared MST
    /// scratch, so nothing transient is allocated per net.
    fn route_net(
        &self,
        grid: &mut Grid,
        pins: &[(u16, u16)],
        pair: (u8, u8),
        route: &mut NetRoute,
        mst: &mut MstScratch,
    ) {
        if pins.len() < 2 {
            return;
        }
        // Prim MST on Manhattan distance.
        let n = pins.len();
        mst.reset(n);
        let MstScratch {
            in_tree,
            dist,
            parent,
        } = mst;
        in_tree[0] = true;
        for i in 1..n {
            dist[i] = manhattan(pins[0], pins[i]);
        }
        for _ in 1..n {
            let mut best = usize::MAX;
            for i in 0..n {
                if !in_tree[i] && (best == usize::MAX || dist[i] < dist[best]) {
                    best = i;
                }
            }
            in_tree[best] = true;
            for i in 0..n {
                if !in_tree[i] {
                    let d = manhattan(pins[best], pins[i]);
                    if d < dist[i] {
                        dist[i] = d;
                        parent[i] = best;
                    }
                }
            }
            self.route_two_pin(
                grid,
                (parent[best] as u32, pins[parent[best]]),
                (best as u32, pins[best]),
                pair,
                route,
            );
        }
    }

    fn route_two_pin(
        &self,
        grid: &mut Grid,
        a_pin: (u32, (u16, u16)),
        b_pin: (u32, (u16, u16)),
        pair: (u8, u8),
        route: &mut NetRoute,
    ) {
        let (a_idx, a) = a_pin;
        let (b_idx, b) = b_pin;
        if a == b {
            route.twopins.push(TwoPinRoute {
                a_pin: a_idx,
                b_pin: b_idx,
                a,
                b,
                corner: a,
                first_layer: pair.0,
                second_layer: pair.1,
            });
            return;
        }
        let (mut hl, mut vl) = pair;
        let max_layer = self.tech.num_layers();
        loop {
            // Two elbows: corner at (b.x, a.y) = horizontal-first, or
            // (a.x, b.y) = vertical-first.
            let c1 = (b.0, a.1);
            let c2 = (a.0, b.1);
            let cost1 = self
                .l_cost(grid, a, c1, hl)
                .saturating_add(self.l_cost(grid, c1, b, vl));
            let cost2 = self
                .l_cost(grid, a, c2, vl)
                .saturating_add(self.l_cost(grid, c2, b, hl));
            let congested = cost1 == i64::MAX && cost2 == i64::MAX;
            if congested && hl + 2 <= max_layer && vl + 2 <= max_layer {
                hl += 2;
                vl += 2;
                continue;
            }
            let (corner, first_l, second_l) = if cost1 <= cost2 {
                (c1, hl, vl)
            } else {
                (c2, vl, hl)
            };
            self.commit(grid, a, corner, first_l, route);
            self.commit(grid, corner, b, second_l, route);
            // Corner via between the pair's two layers.
            if a != corner && corner != b {
                route.vias.push(ViaStack {
                    at: corner,
                    from_layer: hl.min(vl),
                    to_layer: hl.max(vl),
                });
            }
            route.twopins.push(TwoPinRoute {
                a_pin: a_idx,
                b_pin: b_idx,
                a,
                b,
                corner,
                first_layer: first_l,
                second_layer: second_l,
            });
            return;
        }
    }

    /// Cost of a straight run on `layer`; `i64::MAX` when any edge is at
    /// capacity (signals the caller to bump layers). Walks the arena
    /// directly — no intermediate edge-index buffer.
    fn l_cost(&self, grid: &Grid, a: (u16, u16), b: (u16, u16), layer: u8) -> i64 {
        if a == b {
            return 0;
        }
        let horizontal = a.1 == b.1;
        // Wrong-direction run on this layer: route on the partner instead;
        // caller guarantees direction matches, so treat as plain length.
        // A straight run's edges are contiguous in the arena, so the
        // walk is one slice scan.
        let cap = grid.cap[(layer - 1) as usize];
        let (start, len) = span(grid, a, b, layer, horizontal);
        let mut cost = 0i64;
        for &u in &grid.usage[start..start + len] {
            if u >= cap * 2 {
                return i64::MAX;
            }
            cost += 1 + if u >= cap { 8 } else { 0 };
        }
        cost
    }

    fn commit(
        &self,
        grid: &mut Grid,
        a: (u16, u16),
        b: (u16, u16),
        layer: u8,
        route: &mut NetRoute,
    ) {
        if a == b {
            return;
        }
        let horizontal = a.1 == b.1;
        let (start, len) = span(grid, a, b, layer, horizontal);
        for u in &mut grid.usage[start..start + len] {
            *u += 1;
        }
        route.segments.push(RouteSegment { layer, a, b });
    }
}

fn manhattan(a: (u16, u16), b: (u16, u16)) -> i64 {
    (a.0 as i64 - b.0 as i64).abs() + (a.1 as i64 - b.1 as i64).abs()
}

/// Arena span of the straight run `a → b` on `layer`: the run's edges
/// are consecutive, starting at the lower endpoint.
#[inline]
fn span(grid: &Grid, a: (u16, u16), b: (u16, u16), layer: u8, horizontal: bool) -> (usize, usize) {
    if horizontal {
        let start = grid.edge_index(layer, (a.0.min(b.0), a.1), true);
        (start, (a.0.max(b.0) - a.0.min(b.0)) as usize)
    } else {
        let start = grid.edge_index(layer, (a.0, a.1.min(b.1)), false);
        (start, (a.1.max(b.1) - a.1.min(b.1)) as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::place::PlacementEngine;
    use sm_netlist::parse::bench::{parse_bench, C17_BENCH};
    use sm_netlist::Library;

    fn routed_c17(options: &RouteOptions) -> (Netlist, RoutingResult) {
        let lib = Library::nangate45();
        let n = parse_bench("c17", C17_BENCH, &lib).unwrap();
        let tech = Technology::nangate45_10lm();
        let fp = Floorplan::for_netlist(&n, &tech, 0.5);
        let pl = PlacementEngine::new(7).place(&n, &fp);
        let r = Router::new(&tech).route(&n, &pl, &fp, options);
        (n, r)
    }

    #[test]
    fn all_nets_routed() {
        let (n, r) = routed_c17(&RouteOptions::default());
        assert_eq!(r.num_routes(), n.num_nets());
        assert!(r.total_wirelength_dbu() >= 0);
        // Every multi-terminal net must have pin via stacks.
        for (id, net) in n.nets() {
            if net.degree() >= 2 {
                assert!(!r.route(id).vias.is_empty(), "net {id} has no vias");
            }
        }
    }

    #[test]
    fn try_route_honors_cancellation() {
        let lib = Library::nangate45();
        let n = parse_bench("c17", C17_BENCH, &lib).unwrap();
        let tech = Technology::nangate45_10lm();
        let fp = Floorplan::for_netlist(&n, &tech, 0.5);
        let pl = PlacementEngine::new(7).place(&n, &fp);
        let router = Router::new(&tech);
        let opts = RouteOptions::default();
        // A pre-cancelled token aborts at the first between-nets check.
        let fired = sm_exec::CancelToken::new();
        fired.cancel();
        assert!(router.try_route(&n, &pl, &fp, &opts, &fired).is_none());
        // A completed cancellable run is identical to the plain one.
        let live = sm_exec::CancelToken::new();
        let cancellable = router.try_route(&n, &pl, &fp, &opts, &live).unwrap();
        let plain = router.route(&n, &pl, &fp, &opts);
        assert_eq!(
            cancellable.total_wirelength_dbu(),
            plain.total_wirelength_dbu()
        );
        assert_eq!(cancellable.via_counts(), plain.via_counts());
    }

    #[test]
    fn via_counts_match_routes() {
        let (n, r) = routed_c17(&RouteOptions::default());
        let mut manual = ViaCounts::default();
        for (id, _) in n.nets() {
            for v in &r.route(id).vias {
                for k in v.from_layer..v.to_layer {
                    manual.counts[(k - 1) as usize] += 1;
                }
            }
        }
        assert_eq!(manual, *r.via_counts());
    }

    #[test]
    fn lifting_moves_nets_to_upper_layers() {
        let lib = Library::nangate45();
        let n = parse_bench("c17", C17_BENCH, &lib).unwrap();
        let mut options = RouteOptions::default();
        for (id, net) in n.nets() {
            if net.degree() >= 2 {
                options.lift.insert(id, 6);
            }
        }
        let (_, lifted) = routed_c17(&options);
        let (_, base) = routed_c17(&RouteOptions::default());
        // Lifted layout has more vias at V56 and above.
        let hi_lifted: u64 = (5..=9).map(|m| lifted.via_counts().between(m)).sum();
        let hi_base: u64 = (5..=9).map(|m| base.via_counts().between(m)).sum();
        assert!(
            hi_lifted > hi_base,
            "lifted {hi_lifted} vs base {hi_base} upper-layer vias"
        );
        // And all lifted nets reach at least M6.
        for (id, net) in n.nets() {
            if net.degree() >= 2 {
                assert!(lifted.net_max_layer(id) >= 6, "net {id} not lifted");
            }
        }
    }

    #[test]
    fn elevated_pins_skip_lower_via_stacks() {
        let lib = Library::nangate45();
        let n = parse_bench("c17", C17_BENCH, &lib).unwrap();
        let some_net = n
            .nets()
            .find(|(_, net)| net.degree() >= 2)
            .map(|(id, _)| id)
            .unwrap();
        let mut lifted_only = RouteOptions::default();
        lifted_only.lift.insert(some_net, 6);
        let mut elevated = lifted_only.clone();
        elevated.elevated_pins.insert(some_net, 1);
        let (_, r1) = routed_c17(&lifted_only);
        let (_, r2) = routed_c17(&elevated);
        // With one elevated pin the lower-level via total must shrink.
        assert!(r2.via_counts().between(1) <= r1.via_counts().between(1));
    }

    #[test]
    fn wirelength_per_layer_sums_to_total() {
        let (_, r) = routed_c17(&RouteOptions::default());
        let sum: i64 = r.wirelength_per_layer_dbu().iter().sum();
        assert_eq!(sum, r.total_wirelength_dbu());
    }

    #[test]
    fn gcell_centers_inside_grid() {
        let (_, r) = routed_c17(&RouteOptions::default());
        let (nx, ny) = r.grid_dims();
        let c = r.gcell_center((nx - 1, ny - 1));
        assert!(c.x > 0 && c.y > 0);
    }

    #[test]
    fn layer_pairs_match_directions() {
        let tech = Technology::nangate45_10lm();
        let router = Router::new(&tech);
        let (h, v) = router.lift_pair(6);
        assert_eq!(tech.layer(h).direction, Direction::Horizontal);
        assert_eq!(tech.layer(v).direction, Direction::Vertical);
        assert!(h == 7 && v == 6);
        let (h, v) = router.lift_pair(8);
        assert!(h == 9 && v == 8);
        for frac in [0.001, 0.02, 0.08, 0.2, 0.5, 0.9] {
            let (h, v) = router.length_pair(frac);
            assert_eq!(tech.layer(h).direction, Direction::Horizontal);
            assert_eq!(tech.layer(v).direction, Direction::Vertical);
        }
    }
}
