//! Recursive min-cut bisection global placement.
//!
//! The classic Breuer/Dunlop-Kernighan scheme: split the region along its
//! longer axis, partition the cells to minimize the number of cut nets
//! (greedy Fiduccia–Mattheyses-style refinement with terminal
//! propagation), and recurse. Connected cells end up in the same small
//! region — the tight driver/sink proximity that proximity attacks
//! exploit and that Table 1 of the paper quantifies.
//!
//! Hot-path notes:
//!
//! * connectivity comes from the caller's CSR [`ConnectivityIndex`]
//!   (one build serves both bisection cycles and the detailed passes)
//!   instead of per-call `Vec<Vec<_>>` rebuilds;
//! * the FM refinement itself lives in [`crate::fm`]: an arena-packed
//!   gain-bucket kernel fed region-local CSR adjacency (built here in
//!   the same sweep as the member lists), byte-identical to the
//!   retained reference implementation — debug builds shadow every
//!   region through both and assert identical move sequences;
//! * the per-region cell/net lookup tables are flat scratch arrays
//!   reset on exit, not `HashMap`s rebuilt at every recursion level;
//! * the anchor (terminal-propagation) sweep of large regions fans out
//!   on the caller's [`Budget`] — helper threads on the free slots of
//!   the one pool the whole campaign shares, **not** a fresh
//!   machine-parallelism executor per region — and its output order is
//!   input order, so the result is bit-identical to the sequential sweep
//!   while total live threads stay within the configured thread budget.
//!
//! The two *halves* of one region are **not** recursed concurrently:
//! terminal propagation makes the second half read the first half's
//! fully-refined positions, so sibling-level parallelism would change
//! (not just reorder) the placement. The deterministic parallelism here
//! is confined to the data-parallel anchor sweep and, one level up, to
//! building independent bundles concurrently.

use crate::fm;
use crate::geom::{Point, Rect};
use sm_exec::Budget;
use sm_netlist::{CellId, ConnectivityIndex, Driver, NetId, Netlist, Sink};

/// Regions with at least this many cells compute their anchor sweep on
/// the budget's pool; smaller regions stay sequential (scheduling
/// overhead would dominate). Quick ISCAS designs never reach it; scaled
/// superblue top-level regions do.
const PAR_ANCHOR_CELLS: usize = 4096;

/// Per-cell estimated positions produced by recursive bisection, or
/// `None` if the budget's [`sm_exec::CancelToken`] fired. Cancellation
/// is honored only at result-neutral checkpoints — between recursion
/// levels and between FM passes — so a completed run is byte-identical
/// whether or not a token was armed.
#[allow(clippy::too_many_arguments)]
pub(crate) fn bisection_positions(
    netlist: &Netlist,
    conn: &ConnectivityIndex,
    core: Rect,
    widths: &[i64],
    port_pos: impl Fn(Driver) -> Point + Copy,
    out_pos: impl Fn(usize) -> Point + Copy,
    seed_positions: &[Point],
    budget: &Budget,
    fm_ns: Option<&std::sync::atomic::AtomicU64>,
) -> Option<Vec<Point>> {
    let mut positions = seed_positions.to_vec();
    // Fixed (port) pin positions per net.
    let mut fixed_pins: Vec<Vec<Point>> = vec![Vec::new(); netlist.num_nets()];
    for (id, net) in netlist.nets() {
        if let Driver::Port(_) = net.driver() {
            fixed_pins[id.index()].push(port_pos(net.driver()));
        }
        for s in net.sinks() {
            if let Sink::Port(p) = s {
                fixed_pins[id.index()].push(out_pos(p.index()));
            }
        }
    }

    let all: Vec<CellId> = netlist.cells().map(|(id, _)| id).collect();
    let ctx = Ctx {
        widths,
        conn,
        fixed_pins: &fixed_pins,
        budget,
        fm_ns,
    };
    let mut scratch = Scratch {
        cell_mark: vec![u32::MAX; netlist.num_cells()],
        net_slot: vec![u32::MAX; netlist.num_nets()],
        bufs: Buffers::default(),
    };
    if !recurse(&ctx, all, core, &mut positions, &mut scratch, 0) {
        return None;
    }
    Some(positions)
}

struct Ctx<'a> {
    widths: &'a [i64],
    conn: &'a ConnectivityIndex,
    fixed_pins: &'a [Vec<Point>],
    budget: &'a Budget,
    /// FM-refinement wall-clock accumulator (nanoseconds), summed over
    /// every region of the recursion; `None` when the caller does not
    /// meter. Observability only — never read by the algorithm.
    fm_ns: Option<&'a std::sync::atomic::AtomicU64>,
}

/// Flat lookup tables shared down the (sequential) recursion: an
/// in-region membership mark per cell (`u32::MAX` = outside the current
/// region, anything else = inside; the value carries no meaning) and
/// the slot of a net within the current region's net list. Every level
/// sets its own entries on entry and resets them before recursing, so
/// no `HashMap` is ever (re)built.
struct Scratch {
    cell_mark: Vec<u32>,
    net_slot: Vec<u32>,
    bufs: Buffers,
}

/// Pooled per-region working buffers. A region's buffers are dead by
/// the time it recurses (everything is consumed before the child
/// calls), so one pool serves the whole recursion: regions clear
/// lengths but never reallocate, which removes roughly a dozen heap
/// allocations per region from the hot path.
#[derive(Default)]
struct Buffers {
    region_nets: Vec<NetId>,
    member_counts: Vec<u32>,
    net_sum: Vec<i64>,
    net_pins: Vec<i64>,
    fixed: Vec<[u32; 2]>,
    member_off: Vec<u32>,
    cursor: Vec<u32>,
    member_flat: Vec<u32>,
    cell_off: Vec<u32>,
    cell_slots: Vec<u32>,
    keyed: Vec<(i64, CellId)>,
    state: Vec<fm::FmCell>,
    fm: fm::FmScratch,
}

/// Returns `false` if the budget's token cancelled the placement (the
/// positions array is then abandoned by the caller).
fn recurse(
    ctx: &Ctx<'_>,
    cells: Vec<CellId>,
    region: Rect,
    positions: &mut [Point],
    scratch: &mut Scratch,
    depth: u32,
) -> bool {
    if cells.is_empty() {
        return true;
    }
    // Between-level checkpoint: nothing of this region is computed yet,
    // so aborting here never leaks a partial result.
    if ctx.budget.is_cancelled() {
        return false;
    }
    if cells.len() <= 3 || depth >= 24 || region.width() <= 1 || region.height() <= 1 {
        for c in cells {
            positions[c.index()] = region.center();
        }
        return true;
    }
    let horizontal_axis = region.width() >= region.height();
    let coord = move |p: Point| if horizontal_axis { p.x } else { p.y };
    let cut_coord = if horizontal_axis {
        region.lo.x + region.width() / 2
    } else {
        region.lo.y + region.height() / 2
    };
    let Scratch {
        cell_mark,
        net_slot,
        bufs,
    } = &mut *scratch;

    // The distinct nets touching the region, each mapped to a dense
    // slot, and the in-region membership marks — both via the flat
    // scratch tables (no HashMap, no sort: nothing downstream depends
    // on slot numbering, only on per-net values). `member_counts`
    // doubles as the CSR offset seed for the member lists built later.
    let region_nets = &mut bufs.region_nets;
    region_nets.clear();
    let member_counts = &mut bufs.member_counts;
    member_counts.clear();
    for &c in &cells {
        cell_mark[c.index()] = 0; // in-region membership mark
        for &n in ctx.conn.cell_nets(c) {
            let slot = &mut net_slot[n.index()];
            if *slot == u32::MAX {
                *slot = region_nets.len() as u32;
                region_nets.push(n);
                member_counts.push(1);
            } else {
                member_counts[*slot as usize] += 1;
            }
        }
    }

    // One pass per region net computes both the anchor ingredients
    // (coordinate sum + pin count) and the fixed-side counts of
    // external pins (ports and out-of-region cells — terminal
    // propagation). Summing each net once and subtracting the cell's
    // own contribution is linear in total pins — the naive per-cell
    // walk is quadratic in net fanout — and integer addition is
    // order-independent, so the anchors (and everything downstream)
    // are bit-identical.
    let net_sum = &mut bufs.net_sum;
    net_sum.clear();
    let net_pins = &mut bufs.net_pins;
    net_pins.clear();
    let fixed = &mut bufs.fixed;
    fixed.clear();
    fixed.resize(region_nets.len(), [0u32; 2]);
    for (slot, &n) in region_nets.iter().enumerate() {
        let mut sum = 0i64;
        let mut pins = 0i64;
        for q in &ctx.fixed_pins[n.index()] {
            sum += coord(*q);
            pins += 1;
            fixed[slot][usize::from(coord(*q) >= cut_coord)] += 1;
        }
        for &other in ctx.conn.net_cells(n) {
            let oc = coord(positions[other.index()]);
            sum += oc;
            pins += 1;
            if cell_mark[other.index()] == u32::MAX {
                fixed[slot][usize::from(oc >= cut_coord)] += 1;
            }
        }
        net_sum.push(sum);
        net_pins.push(pins);
    }
    let anchor_of = |c: CellId, positions: &[Point]| -> (i64, CellId) {
        let own = coord(positions[c.index()]);
        let mut sum = 0i64;
        let mut k = 0i64;
        for &n in ctx.conn.cell_nets(c) {
            let slot = net_slot[n.index()] as usize;
            sum += net_sum[slot] - own;
            k += net_pins[slot] - 1;
        }
        let anchor = if k == 0 { own } else { sum / k };
        (anchor, c)
    };
    // Pure reads over the entry snapshot, so large regions fan the
    // sweep out on the caller's budget (helpers on the free slots of the
    // campaign's one pool — never a private machine-parallelism
    // executor) with bit-identical (input-ordered) results.
    let keyed = &mut bufs.keyed;
    keyed.clear();
    if cells.len() >= PAR_ANCHOR_CELLS && ctx.budget.threads() > 1 {
        let snapshot: &[Point] = positions;
        keyed.extend(ctx.budget.map(&cells, |_, &c| anchor_of(c, snapshot)));
    } else {
        keyed.extend(cells.iter().map(|&c| anchor_of(c, positions)));
    }
    keyed.sort_unstable_by_key(|&(a, c)| (a, c));

    // Balanced split by cell width. Width, gain, side and lock state
    // live in one packed 8-byte per-cell record ([`fm::FmCell`]): the
    // FM selection scan then touches a single cache line per probe
    // (the scan revisits balance-blocked candidates many times, so its
    // memory traffic dominates refinement cost).
    let total: i64 = cells.iter().map(|&c| ctx.widths[c.index()]).sum();
    let state = &mut bufs.state;
    state.clear();
    state.extend(keyed.iter().map(|&(_, c)| {
        debug_assert!(ctx.widths[c.index()] <= u32::MAX as i64);
        fm::FmCell::new(ctx.widths[c.index()] as u32, false)
    }));
    let mut acc = 0i64;
    let mut low_width = 0i64;
    for s in state.iter_mut() {
        if acc * 2 < total {
            low_width += s.width as i64;
        } else {
            *s = fm::FmCell::new(s.width, true);
        }
        acc += s.width as i64;
    }

    // Fiduccia–Mattheyses refinement within a ±10% balance corridor.
    // External pins (ports and cells outside this region) are fixed on
    // their geometric side (terminal propagation; folded into `fixed`
    // above).
    let balance_slack = total / 10 + 1;
    let target_low = total / 2;

    // Region-local adjacency in both directions, built in one sweep:
    // per-net member lists (CSR from the counts gathered during net
    // discovery) and per-cell net-slot lists in `cell_nets` order. The
    // refinement kernel reads only these flat arrays — never the global
    // connectivity or the net-slot table.
    let member_off = &mut bufs.member_off;
    member_off.clear();
    member_off.push(0);
    for (slot, &cnt) in member_counts.iter().enumerate() {
        member_off.push(member_off[slot] + cnt);
    }
    let cursor = &mut bufs.cursor;
    cursor.clear();
    cursor.extend_from_slice(member_off);
    let member_flat = &mut bufs.member_flat;
    member_flat.clear();
    member_flat.resize(member_off[region_nets.len()] as usize, 0);
    let cell_off = &mut bufs.cell_off;
    cell_off.clear();
    cell_off.push(0);
    let cell_slots = &mut bufs.cell_slots;
    cell_slots.clear();
    for (i, &(_, c)) in keyed.iter().enumerate() {
        for &n in ctx.conn.cell_nets(c) {
            let slot = net_slot[n.index()];
            member_flat[cursor[slot as usize] as usize] = i as u32;
            cursor[slot as usize] += 1;
            cell_slots.push(slot);
        }
        cell_off.push(cell_slots.len() as u32);
    }

    let max_deg = keyed
        .iter()
        .map(|&(_, c)| ctx.conn.cell_nets(c).len())
        .max()
        .unwrap_or(1) as i32;
    debug_assert!(max_deg <= i16::MAX as i32, "cell degree exceeds i16 gain");

    let problem = fm::FmProblem {
        member_off: member_off.as_slice(),
        member_flat: member_flat.as_slice(),
        cell_off: cell_off.as_slice(),
        cell_slots: cell_slots.as_slice(),
        fixed: fixed.as_slice(),
        target_low,
        balance_slack,
        offset: max_deg,
    };
    // Debug builds shadow every region through the retained reference
    // implementation and assert identical move sequences, best
    // prefixes, cut deltas, final sides and widths — the strongest
    // possible pin of the arena kernel to the original algorithm,
    // exercised by every placement any test performs.
    #[cfg(debug_assertions)]
    let initial_state = state.clone();
    #[cfg(debug_assertions)]
    let mut prod_trace = fm::FmTrace::default();
    #[cfg(debug_assertions)]
    let trace_arg = Some(&mut prod_trace);
    #[cfg(not(debug_assertions))]
    let trace_arg = None;
    let cancel = ctx.budget.cancel_token();
    let fm_start = ctx.fm_ns.map(|_| std::time::Instant::now());
    let refined = fm::refine(&problem, state, &mut bufs.fm, low_width, cancel, trace_arg);
    if let (Some(acc), Some(start)) = (ctx.fm_ns, fm_start) {
        acc.fetch_add(
            start.elapsed().as_nanos() as u64,
            std::sync::atomic::Ordering::Relaxed,
        );
    }
    let Some(new_low) = refined else {
        return false;
    };
    #[cfg(debug_assertions)]
    {
        let mut ref_state = initial_state;
        let mut ref_trace = fm::FmTrace::default();
        // The reference runs on an unarmed token: the production run
        // completed all its passes, so the shadow must too even if the
        // real token fires while it replays.
        let never = sm_exec::CancelToken::new();
        let ref_low = fm::refine_reference(
            &problem,
            &mut ref_state,
            low_width,
            &never,
            Some(&mut ref_trace),
        );
        debug_assert_eq!(ref_low, Some(new_low), "FM kernel diverged on low width");
        debug_assert_eq!(ref_trace, prod_trace, "FM kernel diverged on move trace");
        debug_assert_eq!(&ref_state[..], &state[..], "FM kernel diverged on sides");
    }
    let low_width = new_low;

    // Sub-regions proportional to the area each side needs.
    let frac = low_width.max(1) as f64 / total.max(1) as f64;
    let (low_region, high_region) = if horizontal_axis {
        let cut =
            region.lo.x + ((region.width() as f64 * frac) as i64).clamp(1, region.width() - 1);
        (
            Rect::new(region.lo, Point::new(cut, region.hi.y)),
            Rect::new(Point::new(cut, region.lo.y), region.hi),
        )
    } else {
        let cut =
            region.lo.y + ((region.height() as f64 * frac) as i64).clamp(1, region.height() - 1);
        (
            Rect::new(region.lo, Point::new(region.hi.x, cut)),
            Rect::new(Point::new(region.lo.x, cut), region.hi),
        )
    };
    let mut low_cells = Vec::new();
    let mut high_cells = Vec::new();
    for (i, &(_, c)) in keyed.iter().enumerate() {
        if state[i].is_high() {
            high_cells.push(c);
            positions[c.index()] = high_region.center();
        } else {
            low_cells.push(c);
            positions[c.index()] = low_region.center();
        }
    }
    // Reset this region's scratch entries before descending: the tables
    // are region-scoped, and a child must not mistake its sibling's
    // cells for in-region ones.
    for &(_, c) in keyed.iter() {
        cell_mark[c.index()] = u32::MAX;
    }
    for &n in region_nets.iter() {
        net_slot[n.index()] = u32::MAX;
    }
    recurse(ctx, low_cells, low_region, positions, scratch, depth + 1)
        && recurse(ctx, high_cells, high_region, positions, scratch, depth + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sm_netlist::{GateFn, Library, NetlistBuilder};

    /// Two 8-cell clusters joined by one net: bisection must keep each
    /// cluster on one side (the bridging net is the only cut).
    #[test]
    #[allow(clippy::needless_range_loop)]
    fn fm_separates_two_clusters() {
        let lib = Library::nangate45();
        let mut b = NetlistBuilder::new("clusters", &lib);
        let mut cluster_roots = Vec::new();
        for k in 0..2 {
            let a = b.input(format!("a{k}"));
            let c = b.input(format!("b{k}"));
            // A small dense cone: every gate feeds the next two.
            let mut sigs = vec![a, c];
            for i in 0..8 {
                let x = sigs[sigs.len() - 1];
                let y = sigs[sigs.len() - 2];
                let g = b
                    .gate(
                        if i % 2 == 0 {
                            GateFn::Nand
                        } else {
                            GateFn::Nor
                        },
                        &[x, y],
                    )
                    .unwrap();
                sigs.push(g);
            }
            cluster_roots.push(*sigs.last().unwrap());
        }
        let bridge = b
            .gate(GateFn::And, &[cluster_roots[0], cluster_roots[1]])
            .unwrap();
        b.output("y", bridge);
        let n = b.finish().unwrap();

        let core = Rect::new(Point::new(0, 0), Point::new(100_000, 100_000));
        let widths = vec![600i64; n.num_cells()];
        let seeds = vec![core.center(); n.num_cells()];
        let conn = ConnectivityIndex::build(&n);
        let positions = bisection_positions(
            &n,
            &conn,
            core,
            &widths,
            |_| core.center(),
            |_| core.center(),
            &seeds,
            &Budget::default(),
            None,
        )
        .expect("unarmed budget cannot cancel");
        // Cells of the same cluster must be near each other; the two
        // clusters must be separated by more than the intra-cluster spread.
        let cluster_of = |i: usize| {
            if i < 8 {
                0
            } else if i < 16 {
                1
            } else {
                2
            }
        };
        let mut centers = [Point::new(0, 0); 2];
        for cl in 0..2 {
            let members: Vec<usize> = (0..16).filter(|&i| cluster_of(i) == cl).collect();
            let sx: i64 = members.iter().map(|&i| positions[i].x).sum();
            let sy: i64 = members.iter().map(|&i| positions[i].y).sum();
            centers[cl] = Point::new(sx / members.len() as i64, sy / members.len() as i64);
        }
        let separation = centers[0].manhattan(centers[1]);
        let spread: i64 = (0..8)
            .map(|i| positions[i].manhattan(centers[0]))
            .max()
            .unwrap();
        assert!(
            separation > spread,
            "clusters not separated: sep {separation}, spread {spread}"
        );
    }

    /// Bisection positions stay inside the region and are deterministic.
    #[test]
    fn positions_bounded_and_deterministic() {
        let lib = Library::nangate45();
        let mut b = NetlistBuilder::new("chain", &lib);
        let mut cur = b.input("a");
        for _ in 0..32 {
            cur = b.gate(GateFn::Inv, &[cur]).unwrap();
        }
        b.output("y", cur);
        let n = b.finish().unwrap();
        let core = Rect::new(Point::new(0, 0), Point::new(50_000, 50_000));
        let widths = vec![400i64; n.num_cells()];
        let seeds = vec![core.center(); n.num_cells()];
        let conn = ConnectivityIndex::build(&n);
        let run = || {
            bisection_positions(
                &n,
                &conn,
                core,
                &widths,
                |_| Point::new(0, 25_000),
                |_| Point::new(50_000, 25_000),
                &seeds,
                &Budget::default(),
                None,
            )
            .expect("unarmed budget cannot cancel")
        };
        let a = run();
        let b2 = run();
        assert_eq!(a, b2);
        for p in &a {
            assert!(core.contains(*p) || (p.x == core.hi.x / 2 || p.y == core.hi.y / 2));
            assert!(p.x >= 0 && p.y >= 0 && p.x <= 50_000 && p.y <= 50_000);
        }
    }

    /// The oversubscription fix, asserted at the bisection level: a
    /// design large enough to trigger the parallel anchor sweep
    /// (≥ `PAR_ANCHOR_CELLS` cells in the top regions) must keep every
    /// live thread within the caller's budget — the sweep's helpers take
    /// the free slots of the budget's pool, never a fresh
    /// machine-parallelism executor — and still produce the bit-identical
    /// sequential result.
    #[test]
    fn large_anchor_sweep_respects_the_thread_budget() {
        let lib = Library::nangate45();
        let mut b = NetlistBuilder::new("wide", &lib);
        // A wide layered mesh comfortably past the parallel threshold.
        let mut sigs: Vec<sm_netlist::NetId> = (0..64).map(|i| b.input(format!("i{i}"))).collect();
        let mut total = 0usize;
        'grow: loop {
            let mut next = Vec::with_capacity(sigs.len());
            for w in sigs.windows(2) {
                let g = b
                    .gate(
                        if total.is_multiple_of(2) {
                            GateFn::Nand
                        } else {
                            GateFn::Nor
                        },
                        &[w[0], w[1]],
                    )
                    .unwrap();
                next.push(g);
                total += 1;
                if total >= PAR_ANCHOR_CELLS + 256 {
                    break 'grow;
                }
            }
            next.push(sigs[0]);
            sigs = next;
        }
        b.output("y", sigs[0]);
        let n = b.finish().unwrap();
        assert!(n.num_cells() >= PAR_ANCHOR_CELLS);

        let core = Rect::new(Point::new(0, 0), Point::new(400_000, 400_000));
        let widths = vec![400i64; n.num_cells()];
        let seeds = vec![core.center(); n.num_cells()];
        let conn = ConnectivityIndex::build(&n);
        let run = |budget: &Budget| {
            bisection_positions(
                &n,
                &conn,
                core,
                &widths,
                |_| core.center(),
                |_| core.center(),
                &seeds,
                budget,
                None,
            )
            .expect("unarmed budget cannot cancel")
        };
        let budget = Budget::with_threads(Some(2));
        let parallel = run(&budget);
        assert!(
            budget.pool().peak_live() <= 2,
            "anchor sweep exceeded its 2-thread budget: peak {}",
            budget.pool().peak_live()
        );
        // Bit-identical to the serial sweep.
        let serial = run(&Budget::with_threads(Some(1)));
        assert_eq!(parallel, serial);
    }
}
