//! Placement: centroid-driven global placement with Tetris legalization
//! and a greedy detailed-placement pass.
//!
//! The engine optimizes half-perimeter wirelength, which gives layouts the
//! property every proximity attack relies on: *connected gates end up close
//! to each other*. The randomization defense works precisely because this
//! optimization is applied to an erroneous netlist.

use crate::floorplan::Floorplan;
use crate::geom::{Point, Rect};
use crate::hpwl::{HpwlIndex, NetUnionScratch};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use sm_netlist::{CellId, ConnectivityIndex, Driver, NetId, Netlist, Sink};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Cell and port locations for one netlist on one floorplan.
#[derive(Debug, Clone, PartialEq)]
pub struct Placement {
    pub(crate) origins: Vec<Point>,
    pub(crate) widths: Vec<i64>,
    pub(crate) row_height: i64,
    pub(crate) inputs: Vec<Point>,
    pub(crate) outputs: Vec<Point>,
}

impl Placement {
    /// Lower-left origin of a cell.
    pub fn cell_origin(&self, cell: CellId) -> Point {
        self.origins[cell.index()]
    }

    /// Center of a cell (the proximity metric the attacks use).
    pub fn cell_center(&self, cell: CellId) -> Point {
        let o = self.origins[cell.index()];
        Point::new(
            o.x + self.widths[cell.index()] / 2,
            o.y + self.row_height / 2,
        )
    }

    /// Moves a cell's origin (used by perturbation defenses; re-legalize
    /// afterwards with [`PlacementEngine::legalize`]).
    pub fn set_cell_origin(&mut self, cell: CellId, origin: Point) {
        self.origins[cell.index()] = origin;
    }

    /// Pad location of primary input `i`.
    pub fn input_position(&self, i: usize) -> Point {
        self.inputs[i]
    }

    /// Pad location of primary output `i`.
    pub fn output_position(&self, i: usize) -> Point {
        self.outputs[i]
    }

    /// Swaps the pad locations of two primary outputs (the pin-swapping
    /// defense of Rajendran et al. perturbs exactly this).
    pub fn swap_output_positions(&mut self, i: usize, j: usize) {
        self.outputs.swap(i, j);
    }

    /// Position of the pin driving `net`.
    pub fn driver_position(&self, netlist: &Netlist, net: NetId) -> Point {
        match netlist.net(net).driver() {
            Driver::Cell(c) => self.cell_center(c),
            Driver::Port(p) => self.inputs[p.index()],
        }
    }

    /// Positions of all sink pins of `net`.
    pub fn sink_positions(&self, netlist: &Netlist, net: NetId) -> Vec<Point> {
        netlist
            .net(net)
            .sinks()
            .iter()
            .map(|s| match *s {
                Sink::Cell { cell, .. } => self.cell_center(cell),
                Sink::Port(p) => self.outputs[p.index()],
            })
            .collect()
    }

    /// Half-perimeter wirelength of one net in DBU.
    pub fn net_hpwl(&self, netlist: &Netlist, net: NetId) -> i64 {
        let mut pts = self.sink_positions(netlist, net);
        pts.push(self.driver_position(netlist, net));
        hpwl_of(&pts)
    }

    /// Total half-perimeter wirelength in DBU.
    pub fn total_hpwl(&self, netlist: &Netlist) -> i64 {
        netlist
            .nets()
            .map(|(id, _)| self.net_hpwl(netlist, id))
            .sum()
    }

    /// `true` if no two cells overlap and every cell is inside the core.
    pub fn is_legal(&self, fp: &Floorplan) -> bool {
        let core = fp.core();
        let mut by_row: Vec<Vec<(i64, i64)>> = vec![Vec::new(); fp.num_rows()];
        for (i, o) in self.origins.iter().enumerate() {
            let w = self.widths[i];
            if o.x < core.lo.x || o.x + w > core.hi.x || o.y < core.lo.y || o.y >= core.hi.y {
                return false;
            }
            if (o.y - core.lo.y) % self.row_height != 0 {
                return false;
            }
            by_row[fp.row_of(o.y)].push((o.x, o.x + w));
        }
        for row in &mut by_row {
            row.sort_unstable();
            if row.windows(2).any(|w| w[0].1 > w[1].0) {
                return false;
            }
        }
        true
    }
}

fn hpwl_of(pts: &[Point]) -> i64 {
    if pts.is_empty() {
        return 0;
    }
    let (mut xmin, mut xmax, mut ymin, mut ymax) = (i64::MAX, i64::MIN, i64::MAX, i64::MIN);
    for p in pts {
        xmin = xmin.min(p.x);
        xmax = xmax.max(p.x);
        ymin = ymin.min(p.y);
        ymax = ymax.max(p.y);
    }
    (xmax - xmin) + (ymax - ymin)
}

/// Shared wall-clock meter for placement observability.
///
/// An engine wired to a meter (via [`PlacementEngine::with_meter`])
/// accumulates the total placement wall-clock and the slice of it spent
/// inside FM refinement. Engine clones share the meter, so the internal
/// disarmed-clone dance of [`PlacementEngine::place`] still reports into
/// the caller's meter. Metering is side-band observability — it feeds
/// timing reports and journal provenance and never influences placement
/// results.
#[derive(Debug, Default)]
pub struct PlaceMeter {
    place_ns: AtomicU64,
    fm_ns: AtomicU64,
}

impl PlaceMeter {
    /// A fresh zeroed meter behind the `Arc` the engine expects.
    pub fn shared() -> Arc<PlaceMeter> {
        Arc::new(PlaceMeter::default())
    }

    /// Drains both counters, returning `(total_place_ms, fm_refine_ms)`
    /// accumulated since the previous drain.
    pub fn drain_ms(&self) -> (f64, f64) {
        let place = self.place_ns.swap(0, Ordering::Relaxed);
        let fm = self.fm_ns.swap(0, Ordering::Relaxed);
        (place as f64 * 1e-6, fm as f64 * 1e-6)
    }
}

/// Wirelength-driven placement engine.
///
/// Deterministic for a given seed; the paper's flow re-places the erroneous
/// netlist with exactly this engine so the FEOL hints describe the wrong
/// design. The engine carries a [`sm_exec::Budget`]: recursive bisection's
/// large-region anchor sweeps fan out on that budget's shared pool (and
/// stay within its thread allotment) instead of spawning a private
/// machine-parallelism executor per region. The budget changes wall-clock
/// only — placements are bit-identical across any thread count.
#[derive(Debug, Clone)]
pub struct PlacementEngine {
    seed: u64,
    global_iterations: usize,
    detailed_passes: usize,
    budget: sm_exec::Budget,
    meter: Option<Arc<PlaceMeter>>,
}

impl PlacementEngine {
    /// Creates an engine with the default iteration counts, budgeted on
    /// the process-global pool.
    pub fn new(seed: u64) -> Self {
        PlacementEngine {
            seed,
            global_iterations: 24,
            detailed_passes: 2,
            budget: sm_exec::Budget::default(),
            meter: None,
        }
    }

    /// Overrides the number of centroid/legalize rounds.
    pub fn with_global_iterations(mut self, iterations: usize) -> Self {
        self.global_iterations = iterations;
        self
    }

    /// Overrides the number of detailed-placement passes.
    pub fn with_detailed_passes(mut self, passes: usize) -> Self {
        self.detailed_passes = passes;
        self
    }

    /// Runs this engine's parallel inner work (bisection anchor sweeps)
    /// on `budget` instead of the process-global pool. Results are
    /// identical either way; the budget bounds the worker threads the
    /// placement may occupy.
    pub fn with_budget(mut self, budget: sm_exec::Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Wires a [`PlaceMeter`] into the engine: every placement this
    /// engine (or a clone of it) runs adds its total wall-clock and its
    /// FM-refinement wall-clock to the meter.
    pub fn with_meter(mut self, meter: Arc<PlaceMeter>) -> Self {
        self.meter = Some(meter);
        self
    }

    /// Places `netlist` on `fp`.
    ///
    /// Pipeline: recursive min-cut bisection for global positions, a few
    /// centroid refinement rounds, legalization, then greedy detailed
    /// placement.
    ///
    /// Ignores any armed [`sm_exec::CancelToken`] on the engine's budget
    /// (existing callers rely on always getting a placement back); use
    /// [`PlacementEngine::try_place`] to honor a deadline.
    ///
    /// # Panics
    ///
    /// Panics if the netlist has no cells.
    pub fn place(&self, netlist: &Netlist, fp: &Floorplan) -> Placement {
        let disarmed = self.budget.clone().with_cancel(sm_exec::CancelToken::new());
        self.clone()
            .with_budget(disarmed)
            .try_place(netlist, fp)
            .expect("unarmed token cannot cancel a placement")
    }

    /// [`PlacementEngine::place`], honoring the budget's cancellation
    /// token: returns `None` if the token fires at one of the
    /// result-neutral checkpoints (between bisection levels and between
    /// FM passes). A run that completes is byte-identical to
    /// [`PlacementEngine::place`] — cancellation can only abandon a
    /// placement, never alter one.
    ///
    /// # Panics
    ///
    /// Panics if the netlist has no cells.
    pub fn try_place(&self, netlist: &Netlist, fp: &Floorplan) -> Option<Placement> {
        let start = std::time::Instant::now();
        let out = self.place_impl(netlist, fp);
        if let Some(meter) = &self.meter {
            meter
                .place_ns
                .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
        out
    }

    fn place_impl(&self, netlist: &Netlist, fp: &Floorplan) -> Option<Placement> {
        assert!(netlist.num_cells() > 0, "cannot place an empty netlist");
        let mut rng = StdRng::seed_from_u64(self.seed);
        let core = fp.core();
        let widths: Vec<i64> = netlist
            .cells()
            .map(|(_, c)| {
                let area = netlist.library().cell(c.lib).area_um2;
                let w_um = area / (fp.row_height() as f64 / 1000.0);
                ((w_um * 1000.0 / fp.site_width() as f64).ceil() as i64).max(1) * fp.site_width()
            })
            .collect();
        let inputs = edge_positions(core, netlist.input_ports().len(), true);
        let outputs = edge_positions(core, netlist.output_ports().len(), false);
        let mut pl = Placement {
            origins: (0..netlist.num_cells())
                .map(|_| random_point(&mut rng, core))
                .collect(),
            widths,
            row_height: fp.row_height(),
            inputs,
            outputs,
        };
        // Centroid sources per cell, flattened once: the driver of each
        // input net and the sinks of the output net. The Gauss-Seidel
        // sweeps below then walk one contiguous slice per cell instead
        // of pointer-chasing the netlist; visit order — and therefore
        // every update — is unchanged. Pads never move during
        // placement, so their points inline as constants.
        let mut src_off: Vec<u32> = Vec::with_capacity(netlist.num_cells() + 1);
        let mut srcs: Vec<CentroidSrc> = Vec::new();
        src_off.push(0);
        for (_, c) in netlist.cells() {
            for &net in c.inputs() {
                srcs.push(match netlist.net(net).driver() {
                    Driver::Cell(dc) => CentroidSrc::Cell(dc.index() as u32),
                    Driver::Port(p) => CentroidSrc::Fixed(pl.inputs[p.index()]),
                });
            }
            for s in netlist.net(c.output()).sinks() {
                srcs.push(match *s {
                    Sink::Cell { cell: sc, .. } => CentroidSrc::Cell(sc.index() as u32),
                    Sink::Port(p) => CentroidSrc::Fixed(pl.outputs[p.index()]),
                });
            }
            src_off.push(srcs.len() as u32);
        }
        let centroid = |pl: &Placement, cell: CellId| -> Point {
            let lo = src_off[cell.index()] as usize;
            let hi = src_off[cell.index() + 1] as usize;
            if lo == hi {
                return pl.cell_center(cell);
            }
            let (mut sx, mut sy) = (0i64, 0i64);
            for &s in &srcs[lo..hi] {
                let p = match s {
                    CentroidSrc::Cell(i) => pl.cell_center(CellId::new(i as usize)),
                    CentroidSrc::Fixed(p) => p,
                };
                sx += p.x;
                sy += p.y;
            }
            let k = (hi - lo) as i64;
            Point::new(sx / k, sy / k)
        };

        // Stage 1: free-floating centroid iterations give every cell a
        // geometric "home" near its logical neighborhood (ports anchor the
        // solution; overlaps are allowed here).
        let mut order: Vec<CellId> = (0..netlist.num_cells()).map(CellId::new).collect();
        for _ in 0..self.global_iterations.max(8) {
            order.shuffle(&mut rng);
            for &c in &order {
                let target = centroid(&pl, c);
                pl.origins[c.index()] = core.clamp(target);
            }
        }

        // Stage 2: recursive min-cut bisection, seeded by stage 1 (the
        // estimates feed terminal propagation), spreads the clusters over
        // the die without tearing connected cells apart. The CSR
        // connectivity built here also serves both detailed passes.
        let conn = ConnectivityIndex::build(netlist);
        for _ in 0..2 {
            let in_ref = &pl.inputs;
            let out_ref = &pl.outputs;
            let seeded = pl.origins.clone();
            let origins = crate::bisect::bisection_positions(
                netlist,
                &conn,
                core,
                &pl.widths,
                move |d| match d {
                    Driver::Port(p) => in_ref[p.index()],
                    Driver::Cell(_) => core.center(),
                },
                move |i| out_ref[i],
                &seeded,
                &self.budget,
                self.meter.as_deref().map(|m| &m.fm_ns),
            )?;
            pl.origins = origins;
            for _ in 0..4 {
                order.shuffle(&mut rng);
                for &c in &order {
                    let target = centroid(&pl, c);
                    let cur = pl.origins[c.index()];
                    let blended = Point::new((cur.x + target.x) / 2, (cur.y + target.y) / 2);
                    pl.origins[c.index()] = core.clamp(blended);
                }
            }
        }
        // A single legalization at the end; repeated harsh legalization
        // would destroy the clustering the bisection built.
        self.legalize(&mut pl, fp);
        if self.detailed_passes > 0 {
            let mut index = HpwlIndex::build(netlist, &pl, &conn);
            let mut scratch = NetUnionScratch::new(netlist.num_nets());
            for _ in 0..self.detailed_passes {
                self.detailed_pass(&mut pl, fp, &mut index, &mut scratch);
            }
        }
        debug_assert!(pl.is_legal(fp));
        Some(pl)
    }

    /// Snaps all cells to legal, non-overlapping row sites.
    ///
    /// Two phases: capacity-aware row assignment (each cell goes to the
    /// nearest row with free width), then in-row packing that respects the
    /// desired x order, shifting left only as much as needed to fit.
    ///
    /// # Panics
    ///
    /// Panics if the total cell width exceeds the floorplan capacity.
    pub fn legalize(&self, pl: &mut Placement, fp: &Floorplan) {
        let n = pl.origins.len();
        let row_width = fp.core().width();
        let num_rows = fp.num_rows();
        let total: i64 = pl.widths.iter().sum();
        assert!(
            total <= row_width * num_rows as i64,
            "cells exceed floorplan capacity"
        );
        // Phase 1: assign rows, nearest first, respecting capacity.
        let mut used = vec![0i64; num_rows];
        let mut row_cells: Vec<Vec<usize>> = vec![Vec::new(); num_rows];
        let mut idx: Vec<usize> = (0..n).collect();
        // Wider cells first so they never get stranded.
        idx.sort_by_key(|&i| std::cmp::Reverse(pl.widths[i]));
        for &i in &idx {
            let want_row = fp.row_of(pl.origins[i].y) as i64;
            let mut chosen = None;
            for dist in 0..num_rows as i64 {
                for r in [want_row - dist, want_row + dist] {
                    if r < 0 || r >= num_rows as i64 {
                        continue;
                    }
                    if used[r as usize] + pl.widths[i] <= row_width {
                        chosen = Some(r as usize);
                        break;
                    }
                    if dist == 0 {
                        break;
                    }
                }
                if chosen.is_some() {
                    break;
                }
            }
            let r = chosen.expect("capacity checked above");
            used[r] += pl.widths[i];
            row_cells[r].push(i);
        }
        // Phase 2: pack each row preserving desired x order.
        let lo_x = fp.core().lo.x;
        let hi_x = fp.core().hi.x;
        let site = fp.site_width();
        for (r, cells) in row_cells.iter_mut().enumerate() {
            cells.sort_by_key(|&i| pl.origins[i].x);
            let y = fp.row_y(r);
            // Greedy left-to-right at desired x (snapped to sites)…
            let mut xs = Vec::with_capacity(cells.len());
            let mut cursor = lo_x;
            for &i in cells.iter() {
                let want = (pl.origins[i].x - lo_x) / site * site + lo_x;
                let x = cursor.max(want);
                xs.push(x);
                cursor = x + pl.widths[i];
            }
            // …then sweep right-to-left to pull any overflow back inside.
            let mut limit = hi_x;
            for (k, &i) in cells.iter().enumerate().rev() {
                let max_x = limit - pl.widths[i];
                if xs[k] > max_x {
                    xs[k] = (max_x - lo_x) / site * site + lo_x;
                }
                limit = xs[k];
            }
            for (k, &i) in cells.iter().enumerate() {
                pl.origins[i] = Point::new(xs[k], y);
            }
        }
    }

    /// Swaps same-width neighbors in each row when HPWL improves.
    ///
    /// The swap evaluator is incremental and allocation-free: the nets
    /// touching the two cells come from the CSR connectivity (deduped
    /// through the epoch-stamped scratch), "before" reads the cached
    /// per-net boxes, "after" recomputes only the touched nets in
    /// O(pins-touched). HPWL is integer-exact, so accept/reject
    /// decisions are bit-identical to summing
    /// [`Placement::net_hpwl`] over the same net set — the guard
    /// proptests in this module enforce that equivalence.
    fn detailed_pass(
        &self,
        pl: &mut Placement,
        fp: &Floorplan,
        index: &mut HpwlIndex<'_>,
        scratch: &mut NetUnionScratch,
    ) {
        let n = pl.origins.len();
        let conn = index.connectivity();
        let mut by_row: Vec<Vec<usize>> = vec![Vec::new(); fp.num_rows()];
        for i in 0..n {
            by_row[fp.row_of(pl.origins[i].y)].push(i);
        }
        for row in &mut by_row {
            row.sort_by_key(|&i| pl.origins[i].x);
            for w in 0..row.len().saturating_sub(1) {
                let (a, b) = (row[w], row[w + 1]);
                if pl.widths[a] != pl.widths[b] {
                    continue;
                }
                scratch.begin();
                for &net in conn.cell_nets(CellId::new(a)) {
                    scratch.push_unique(net);
                }
                for &net in conn.cell_nets(CellId::new(b)) {
                    scratch.push_unique(net);
                }
                let before: i64 = scratch.nets.iter().map(|&x| index.net_hpwl(x)).sum();
                pl.origins.swap(a, b);
                let mut after = 0i64;
                for &x in &scratch.nets {
                    let bb = index.net_bbox(pl, x);
                    after += bb.hpwl();
                    scratch.boxes.push(bb);
                }
                if after >= before {
                    pl.origins.swap(a, b);
                } else {
                    index.commit_boxes(&scratch.nets, &scratch.boxes);
                    row.swap(w, w + 1);
                }
            }
        }
    }
}

/// One centroid source: a movable cell (by index) or a fixed pad point.
#[derive(Debug, Clone, Copy)]
enum CentroidSrc {
    Cell(u32),
    Fixed(Point),
}

fn random_point(rng: &mut StdRng, core: Rect) -> Point {
    Point::new(
        rng.gen_range(core.lo.x..core.hi.x),
        rng.gen_range(core.lo.y..core.hi.y),
    )
}

/// Ports spread evenly along the left (inputs) or right (outputs) edge.
fn edge_positions(core: Rect, count: usize, left: bool) -> Vec<Point> {
    let x = if left { core.lo.x } else { core.hi.x };
    (0..count)
        .map(|i| {
            let y = core.lo.y + core.height() * (2 * i as i64 + 1) / (2 * count.max(1) as i64);
            Point::new(x, y)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tech::Technology;
    use sm_netlist::parse::bench::{parse_bench, C17_BENCH};
    use sm_netlist::Library;

    fn place_c17(seed: u64) -> (Netlist, Floorplan, Placement) {
        let lib = Library::nangate45();
        let n = parse_bench("c17", C17_BENCH, &lib).unwrap();
        let tech = Technology::nangate45_10lm();
        let fp = Floorplan::for_netlist(&n, &tech, 0.5);
        let pl = PlacementEngine::new(seed).place(&n, &fp);
        (n, fp, pl)
    }

    #[test]
    fn placement_is_legal() {
        let (_, fp, pl) = place_c17(1);
        assert!(pl.is_legal(&fp));
    }

    #[test]
    fn placement_deterministic_per_seed() {
        let (_, _, a) = place_c17(5);
        let (_, _, b) = place_c17(5);
        assert_eq!(a, b);
        // Different seeds may converge to the same tiny-layout optimum;
        // determinism is the contract, divergence is not.
    }

    #[test]
    fn optimized_beats_random() {
        let lib = Library::nangate45();
        let n = parse_bench("c17", C17_BENCH, &lib).unwrap();
        let tech = Technology::nangate45_10lm();
        let fp = Floorplan::for_netlist(&n, &tech, 0.5);
        let optimized = PlacementEngine::new(3).place(&n, &fp);
        let random = PlacementEngine::new(3)
            .with_global_iterations(0)
            .with_detailed_passes(0)
            .place(&n, &fp);
        assert!(optimized.total_hpwl(&n) <= random.total_hpwl(&n));
    }

    #[test]
    fn hpwl_positive_and_consistent() {
        let (n, _, pl) = place_c17(2);
        let total = pl.total_hpwl(&n);
        let manual: i64 = n.nets().map(|(id, _)| pl.net_hpwl(&n, id)).sum();
        assert!(total > 0);
        assert_eq!(total, manual);
    }

    #[test]
    fn ports_on_die_edges() {
        let (n, fp, pl) = place_c17(1);
        for i in 0..n.input_ports().len() {
            assert_eq!(pl.input_position(i).x, fp.core().lo.x);
        }
        for i in 0..n.output_ports().len() {
            assert_eq!(pl.output_position(i).x, fp.core().hi.x);
        }
    }

    #[test]
    fn legalize_resolves_collisions() {
        let (_, fp, mut pl) = place_c17(1);
        // Pile every cell on the same spot, then legalize.
        for o in &mut pl.origins {
            *o = Point::new(fp.core().lo.x + 7, fp.core().lo.y + 3);
        }
        PlacementEngine::new(0).legalize(&mut pl, &fp);
        assert!(pl.is_legal(&fp));
    }

    /// Straightforward reference swap evaluator: the pre-index
    /// detailed-pass inner loop (clone + sort + dedup the touched nets,
    /// full [`Placement::net_hpwl`] recomputation on both sides).
    fn reference_swap_eval(
        netlist: &Netlist,
        pl: &mut Placement,
        a: usize,
        b: usize,
    ) -> (i64, i64) {
        let touching = |i: usize| {
            let c = netlist.cell(CellId::new(i));
            let mut v: Vec<NetId> = c.inputs().to_vec();
            v.push(c.output());
            v.sort_unstable();
            v.dedup();
            v
        };
        let mut nets = touching(a);
        nets.extend(touching(b));
        nets.sort_unstable();
        nets.dedup();
        let before: i64 = nets.iter().map(|&x| pl.net_hpwl(netlist, x)).sum();
        pl.origins.swap(a, b);
        let after: i64 = nets.iter().map(|&x| pl.net_hpwl(netlist, x)).sum();
        pl.origins.swap(a, b);
        (before, after)
    }

    /// A random layered netlist: `widths[k]` gates in layer `k`, each
    /// wired to `fanin[..]`-selected earlier signals.
    fn random_netlist(shape: &[(u8, u8)]) -> Netlist {
        let lib = Library::nangate45();
        let mut b = sm_netlist::NetlistBuilder::new("rand", &lib);
        let mut sigs = vec![b.input("i0"), b.input("i1"), b.input("i2")];
        for (k, &(width, fan)) in shape.iter().enumerate() {
            for g in 0..width.max(1) {
                let x = sigs[(k * 7 + g as usize * 3) % sigs.len()];
                let y = sigs[(k * 5 + g as usize * 11 + fan as usize) % sigs.len()];
                let out = b
                    .gate(
                        if (g + fan) % 2 == 0 {
                            sm_netlist::GateFn::Nand
                        } else {
                            sm_netlist::GateFn::Nor
                        },
                        &[x, y],
                    )
                    .unwrap();
                sigs.push(out);
            }
        }
        b.output("y", *sigs.last().unwrap());
        b.finish().unwrap()
    }

    mod equivalence_guard {
        use super::*;
        use crate::hpwl::NetUnionScratch;
        use proptest::prelude::*;
        use sm_netlist::ConnectivityIndex;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            /// The cached index reproduces `Placement::net_hpwl`
            /// bit-exactly on random placements of random netlists.
            #[test]
            fn index_matches_reference_hpwl(
                shape in proptest::collection::vec((1u8..6, 0u8..8), 1..6),
                seed in 0u64..1_000_000,
            ) {
                let n = random_netlist(&shape);
                let tech = Technology::nangate45_10lm();
                let fp = Floorplan::for_netlist(&n, &tech, 0.5);
                let pl = PlacementEngine::new(seed)
                    .with_global_iterations(0)
                    .with_detailed_passes(0)
                    .place(&n, &fp);
                let conn = ConnectivityIndex::build(&n);
                let index = crate::hpwl::HpwlIndex::build(&n, &pl, &conn);
                for (id, _) in n.nets() {
                    prop_assert_eq!(index.net_hpwl(id), pl.net_hpwl(&n, id));
                }
                prop_assert_eq!(index.total_hpwl(), pl.total_hpwl(&n));
            }

            /// Random swap sequences: the incremental evaluator sees the
            /// same before/after sums as the reference evaluator (hence
            /// identical accept/reject decisions), and the committed
            /// cache stays exact across the whole sequence.
            #[test]
            fn incremental_swaps_match_reference(
                shape in proptest::collection::vec((1u8..6, 0u8..8), 1..5),
                seed in 0u64..1_000_000,
                swaps in proptest::collection::vec((0u16..64, 0u16..64), 1..24),
            ) {
                let n = random_netlist(&shape);
                let tech = Technology::nangate45_10lm();
                let fp = Floorplan::for_netlist(&n, &tech, 0.5);
                let mut pl = PlacementEngine::new(seed)
                    .with_global_iterations(0)
                    .with_detailed_passes(0)
                    .place(&n, &fp);
                let conn = ConnectivityIndex::build(&n);
                let mut index = crate::hpwl::HpwlIndex::build(&n, &pl, &conn);
                let mut scratch = NetUnionScratch::new(n.num_nets());
                for &(ra, rb) in &swaps {
                    let a = ra as usize % n.num_cells();
                    let b = rb as usize % n.num_cells();
                    let (ref_before, ref_after) = reference_swap_eval(&n, &mut pl, a, b);

                    // Incremental evaluation, mirroring detailed_pass.
                    scratch.begin();
                    for &net in conn.cell_nets(CellId::new(a)) {
                        scratch.push_unique(net);
                    }
                    for &net in conn.cell_nets(CellId::new(b)) {
                        scratch.push_unique(net);
                    }
                    let before: i64 =
                        scratch.nets.iter().map(|&x| index.net_hpwl(x)).sum();
                    pl.origins.swap(a, b);
                    let mut after = 0i64;
                    for &x in &scratch.nets {
                        let bb = index.net_bbox(&pl, x);
                        after += bb.hpwl();
                        scratch.boxes.push(bb);
                    }
                    prop_assert_eq!(before, ref_before);
                    prop_assert_eq!(after, ref_after);
                    if after >= before {
                        pl.origins.swap(a, b); // reject, as detailed_pass would
                    } else {
                        index.commit_boxes(&scratch.nets, &scratch.boxes);
                    }
                    // Cache still exact for every net after the decision.
                    for (id, _) in n.nets() {
                        prop_assert_eq!(index.net_hpwl(id), pl.net_hpwl(&n, id));
                    }
                }
            }
        }
    }

    /// Every ISCAS profile placed end to end: the debug-assertions
    /// shadow in `bisect.rs` replays each region's refinement through
    /// the retained reference kernel and asserts identical move
    /// sequences, so this differential-tests the arena FM kernel on
    /// real circuit structure (plus determinism across repeats).
    #[test]
    fn iscas_placements_pin_fm_kernel_to_reference() {
        if !cfg!(debug_assertions) {
            panic!("this test relies on the debug-build FM shadow");
        }
        let tech = Technology::nangate45_10lm();
        for profile in sm_benchgen::iscas::IscasProfile::all() {
            let n = sm_benchgen::iscas::generate(&profile, 1);
            let fp = Floorplan::for_netlist(&n, &tech, 0.6);
            let a = PlacementEngine::new(7).place(&n, &fp);
            let b = PlacementEngine::new(7).place(&n, &fp);
            assert_eq!(a, b, "placement not deterministic for {}", profile.name);
            assert!(a.is_legal(&fp));
        }
    }

    /// An expired budget lands mid-placement: `try_place` returns
    /// `None`, while the legacy `place` entry point disarms the token
    /// and always completes.
    #[test]
    fn try_place_honors_cancellation() {
        let lib = Library::nangate45();
        let n = parse_bench("c17", C17_BENCH, &lib).unwrap();
        let tech = Technology::nangate45_10lm();
        let fp = Floorplan::for_netlist(&n, &tech, 0.5);
        let cancelled = sm_exec::CancelToken::new();
        cancelled.cancel();
        let budget = sm_exec::Budget::default().with_cancel(cancelled);
        let engine = PlacementEngine::new(1).with_budget(budget);
        assert!(engine.try_place(&n, &fp).is_none());
        let pl = engine.place(&n, &fp);
        assert!(pl.is_legal(&fp));
        assert_eq!(pl, PlacementEngine::new(1).place(&n, &fp));
    }

    #[test]
    fn larger_benchmark_places_quickly_and_legally() {
        // A generated 400-gate circuit exercises multi-row legalization.
        let lib = Library::nangate45();
        let mut b = sm_netlist::NetlistBuilder::new("grid", &lib);
        let mut nets: Vec<sm_netlist::NetId> = (0..16).map(|i| b.input(format!("i{i}"))).collect();
        for round in 0..30 {
            let mut next = Vec::new();
            for w in nets.windows(2) {
                let g = b
                    .gate(
                        if round % 2 == 0 {
                            sm_netlist::GateFn::Nand
                        } else {
                            sm_netlist::GateFn::Nor
                        },
                        &[w[0], w[1]],
                    )
                    .unwrap();
                next.push(g);
            }
            // Keep the level wide so the circuit grows past 300 cells.
            next.push(nets[0]);
            nets = next;
            if nets.len() < 2 {
                break;
            }
        }
        for (i, &net) in nets.iter().enumerate() {
            b.output(format!("o{i}"), net);
        }
        let n = b.finish().unwrap();
        assert!(n.num_cells() > 300);
        let tech = Technology::nangate45_10lm();
        let fp = Floorplan::for_netlist(&n, &tech, 0.6);
        let pl = PlacementEngine::new(11).place(&n, &fp);
        assert!(pl.is_legal(&fp));
    }
}
