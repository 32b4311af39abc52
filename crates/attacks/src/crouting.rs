//! The routing-centric `crouting` attack of Magaña et al. (ICCAD'16).
//!
//! Rather than committing to a netlist, `crouting` confines the solution
//! space: for every vpin it collects the candidate vpins inside a bounding
//! box measured in routing tracks. The paper's Table 3 reports the number
//! of vpins and the expected candidate-list size `E[LS]` for boxes of 15,
//! 30 and 45 tracks; *match in list* records how often the true partner is
//! inside the box at all.
//!
//! Neither number needs the lists themselves. An opposite-side vpin lies
//! in a vpin's box of half-width `r` exactly when the two are within
//! Chebyshev distance `r` of each other. That relation is symmetric, so
//! the summed list size is twice the number of (driver, sink) pairs within
//! `r`, which one sorted sweep per box counts. And a vpin's true partner is
//! in its box exactly when its *nearest* true partner is, so one
//! nearest-partner distance per vpin, sorted once, answers match-in-list
//! for every box by binary search.

use sm_layout::{SplitLayout, VpinSide};
use sm_netlist::{NetId, Netlist, Sink};

/// Configuration of the crouting attack.
#[derive(Debug, Clone)]
pub struct CroutingConfig {
    /// Bounding-box half-widths, in routing tracks (the paper uses
    /// 15/30/45).
    pub bounding_boxes: Vec<i64>,
    /// Routing-track pitch in DBU used to convert boxes to distances
    /// (pitch of the layer right above the split).
    pub track_pitch_dbu: i64,
}

impl Default for CroutingConfig {
    fn default() -> Self {
        CroutingConfig {
            bounding_boxes: vec![15, 30, 45],
            track_pitch_dbu: 280,
        }
    }
}

/// Per-bounding-box results.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoxReport {
    /// Bounding-box half-width in tracks.
    pub bbox_tracks: i64,
    /// Expected (mean) candidate-list size over all vpins.
    pub expected_list_size: f64,
    /// Fraction of vpins whose true partner is inside the box.
    pub match_in_list: f64,
}

/// Full crouting output (one row of Table 3).
#[derive(Debug, Clone)]
pub struct CroutingReport {
    /// Total number of vpins the attacker must reconnect.
    pub num_vpins: usize,
    /// One entry per configured bounding box.
    pub boxes: Vec<BoxReport>,
}

/// One vpin as the kernel sees it: the net its true partners share (a
/// driver's own net, a sink's true net in the golden netlist) and its
/// position.
type Keyed = (NetId, (i64, i64));

/// Runs the crouting attack on a split layout.
///
/// `golden` supplies the true partner relation for match-in-list scoring;
/// pass the placed netlist itself for unprotected layouts. A driver vpin's
/// true partners are the sink vpins whose true net in `golden` is the
/// driver's net, and a sink vpin's are the driver vpins of its true net.
/// Every count and match bit equals the quadratic pair scan's (pinned by
/// the differential tests below).
pub fn crouting_attack(
    golden: &Netlist,
    split: &SplitLayout,
    config: &CroutingConfig,
) -> CroutingReport {
    let vpins = &split.feol.vpins;
    let n = vpins.len();
    let mut drivers: Vec<Keyed> = Vec::new();
    let mut sinks: Vec<Keyed> = Vec::new();
    for v in vpins {
        let at = (v.position.x, v.position.y);
        match v.side {
            VpinSide::Driver(_) => drivers.push((v.net, at)),
            VpinSide::Sink(s) => {
                let true_net = match s {
                    Sink::Cell { cell, pin } => golden.cell(cell).inputs()[pin as usize],
                    Sink::Port(p) => golden.output_ports()[p.index()].net,
                };
                sinks.push((true_net, at));
            }
        }
    }
    let pairs = PairCounter::new(&drivers, &sinks);
    let partner_dist = nearest_partner_distances(&mut drivers, &mut sinks);

    let mut boxes = Vec::with_capacity(config.bounding_boxes.len());
    for &bbox in &config.bounding_boxes {
        let radius = bbox * config.track_pitch_dbu;
        // Each pair within the box sits in both of its vpins' lists.
        let total_candidates = 2 * pairs.count(radius);
        let matches = partner_dist.partition_point(|&d| d <= radius);
        boxes.push(BoxReport {
            bbox_tracks: bbox,
            expected_list_size: if n == 0 {
                0.0
            } else {
                total_candidates as f64 / n as f64
            },
            match_in_list: if n == 0 {
                0.0
            } else {
                matches as f64 / n as f64
            },
        });
    }
    CroutingReport {
        num_vpins: n,
        boxes,
    }
}

/// Chebyshev distance: two points are within it of each other exactly
/// when each lies in the other's square box of that half-width.
fn chebyshev(a: (i64, i64), b: (i64, i64)) -> i64 {
    (a.0 - b.0).abs().max((a.1 - b.1).abs())
}

/// Counts the (driver, sink) pairs within Chebyshev distance `r`, for any
/// number of radii over one pair of point sets.
///
/// One merge of the two y orders finds, for every sink, the y-ranks of
/// the drivers within `r` of it in y. One sweep then visits the sinks in
/// x order while a window over the drivers sorted by x holds exactly
/// those with x in `[x − r, x + r]`, and a Fenwick tree over the window's
/// y-ranks (Fenwick, "A new data structure for cumulative frequency
/// tables", 1994) counts the ones in the sink's rank range:
/// `O((D + S) log D)` per radius, after one sort of each side by x and
/// by y.
#[derive(Debug)]
struct PairCounter {
    /// Driver x coordinates with their y-rank, sorted by x.
    drivers_by_x: Vec<(i64, usize)>,
    /// Driver y coordinates, sorted: rank `k` holds `ys[k]`.
    ys: Vec<i64>,
    /// Sink x coordinates, sorted.
    sink_xs: Vec<i64>,
    /// Sink y coordinates with their index in `sink_xs`, sorted by y.
    sinks_by_y: Vec<(i64, usize)>,
}

impl PairCounter {
    fn new(drivers: &[Keyed], sinks: &[Keyed]) -> PairCounter {
        let mut by_y: Vec<(i64, i64)> = drivers.iter().map(|&(_, (x, y))| (y, x)).collect();
        by_y.sort_unstable();
        let mut drivers_by_x: Vec<(i64, usize)> = by_y
            .iter()
            .enumerate()
            .map(|(rank, &(_, x))| (x, rank))
            .collect();
        drivers_by_x.sort_unstable();
        let mut sinks_by_x: Vec<(i64, i64)> = sinks.iter().map(|&(_, at)| at).collect();
        sinks_by_x.sort_unstable();
        let mut sinks_by_y: Vec<(i64, usize)> = sinks_by_x
            .iter()
            .enumerate()
            .map(|(i, &(_, y))| (y, i))
            .collect();
        sinks_by_y.sort_unstable();
        PairCounter {
            drivers_by_x,
            ys: by_y.into_iter().map(|(y, _)| y).collect(),
            sink_xs: sinks_by_x.into_iter().map(|(x, _)| x).collect(),
            sinks_by_y,
        }
    }

    /// Number of (driver, sink) pairs with `|dx| ≤ r` and `|dy| ≤ r`;
    /// none when `r < 0`.
    fn count(&self, r: i64) -> usize {
        if r < 0 {
            return 0;
        }
        let (drivers, ys) = (&self.drivers_by_x, &self.ys);
        // Per sink in x order, the y-ranks `lo..hi` within `r` of it.
        let mut ranks = vec![(0, 0); self.sink_xs.len()];
        let (mut lo, mut hi) = (0, 0);
        for &(y, i) in &self.sinks_by_y {
            while lo < ys.len() && ys[lo] < y - r {
                lo += 1;
            }
            while hi < ys.len() && ys[hi] <= y + r {
                hi += 1;
            }
            ranks[i] = (lo, hi);
        }
        let mut window = vec![0; ys.len() + 1];
        let (mut enter, mut leave, mut pairs) = (0, 0, 0usize);
        for (&x, &(lo, hi)) in self.sink_xs.iter().zip(&ranks) {
            while enter < drivers.len() && drivers[enter].0 <= x + r {
                fenwick_add(&mut window, drivers[enter].1, 1);
                enter += 1;
            }
            // Every driver left of `x − r` has entered: `x − r ≤ x + r`.
            while leave < enter && drivers[leave].0 < x - r {
                fenwick_add(&mut window, drivers[leave].1, -1);
                leave += 1;
            }
            pairs += fenwick_range(&window, lo, hi) as usize;
        }
        pairs
    }
}

/// Adds `delta` at `rank` of the Fenwick tree `tree`.
fn fenwick_add(tree: &mut [i32], rank: usize, delta: i32) {
    let mut i = rank + 1;
    while i < tree.len() {
        tree[i] += delta;
        i += i & i.wrapping_neg();
    }
}

/// Sum of the Fenwick tree `tree` over the ranks `lo..hi`: the two
/// prefix walks stop where they meet.
fn fenwick_range(tree: &[i32], lo: usize, hi: usize) -> i32 {
    let (mut i, mut j, mut sum) = (hi, lo, 0);
    while i > j {
        sum += tree[i];
        i &= i - 1;
    }
    while j > i {
        sum -= tree[j];
        j &= j - 1;
    }
    sum
}

/// The Chebyshev distance from every vpin to its nearest true partner,
/// sorted ascending; a vpin without a partner has none.
///
/// Groups both sides by key by sorting them, then scans each net's
/// drivers × sinks once.
fn nearest_partner_distances(drivers: &mut [Keyed], sinks: &mut [Keyed]) -> Vec<i64> {
    drivers.sort_unstable_by_key(|&(net, _)| net);
    sinks.sort_unstable_by_key(|&(net, _)| net);
    let mut dist = Vec::with_capacity(drivers.len() + sinks.len());
    let mut sink_best = Vec::new();
    let mut sink_groups = sinks.chunk_by(|a, b| a.0 == b.0).peekable();
    for group in drivers.chunk_by(|a, b| a.0 == b.0) {
        let net = group[0].0;
        while sink_groups.next_if(|g| g[0].0 < net).is_some() {}
        let Some(partners) = sink_groups.next_if(|g| g[0].0 == net) else {
            continue;
        };
        sink_best.clear();
        sink_best.resize(partners.len(), i64::MAX);
        for &(_, d) in group {
            let mut best = i64::MAX;
            for (&(_, s), sink) in partners.iter().zip(sink_best.iter_mut()) {
                let c = chebyshev(d, s);
                best = best.min(c);
                *sink = (*sink).min(c);
            }
            dist.push(best);
        }
        dist.extend_from_slice(&sink_best);
    }
    dist.sort_unstable();
    dist
}

/// The original quadratic pair scan, retained as the differential
/// reference for the sweep.
#[cfg(test)]
fn crouting_attack_reference(
    golden: &Netlist,
    split: &SplitLayout,
    config: &CroutingConfig,
) -> CroutingReport {
    fn opposite_sides(a: VpinSide, b: VpinSide) -> bool {
        matches!(
            (a, b),
            (VpinSide::Driver(_), VpinSide::Sink(_)) | (VpinSide::Sink(_), VpinSide::Driver(_))
        )
    }
    /// `true` when vpins `i` and `j` are truly connected in `golden`.
    fn true_partner(golden: &Netlist, split: &SplitLayout, i: usize, j: usize) -> bool {
        let (drv, snk) = match (split.feol.vpins[i].side, split.feol.vpins[j].side) {
            (VpinSide::Driver(_), VpinSide::Sink(s)) => (i, s),
            (VpinSide::Sink(s), VpinSide::Driver(_)) => (j, s),
            _ => return false,
        };
        let true_net: NetId = match snk {
            sm_netlist::Sink::Cell { cell, pin } => golden.cell(cell).inputs()[pin as usize],
            sm_netlist::Sink::Port(p) => golden.output_ports()[p.index()].net,
        };
        split.feol.vpins[drv].net == true_net
    }

    let vpins = &split.feol.vpins;
    let n = vpins.len();
    let mut boxes = Vec::with_capacity(config.bounding_boxes.len());
    for &bbox in &config.bounding_boxes {
        let radius = bbox * config.track_pitch_dbu;
        let mut total_candidates = 0usize;
        let mut matches = 0usize;
        for (i, v) in vpins.iter().enumerate() {
            let mut list = 0usize;
            let mut true_partner_in_list = false;
            for (j, w) in vpins.iter().enumerate() {
                if i == j || !opposite_sides(v.side, w.side) {
                    continue;
                }
                let dx = (v.position.x - w.position.x).abs();
                let dy = (v.position.y - w.position.y).abs();
                if dx <= radius && dy <= radius {
                    list += 1;
                    if true_partner(golden, split, i, j) {
                        true_partner_in_list = true;
                    }
                }
            }
            total_candidates += list;
            if true_partner_in_list {
                matches += 1;
            }
        }
        boxes.push(BoxReport {
            bbox_tracks: bbox,
            expected_list_size: if n == 0 {
                0.0
            } else {
                total_candidates as f64 / n as f64
            },
            match_in_list: if n == 0 {
                0.0
            } else {
                matches as f64 / n as f64
            },
        });
    }
    CroutingReport {
        num_vpins: n,
        boxes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proximity::tests::{lifted, original, protected};
    use proptest::prelude::*;
    use sm_layout::split_layout;
    use sm_netlist::parse::bench::{parse_bench, C17_BENCH};
    use sm_netlist::Library;

    fn c17() -> Netlist {
        parse_bench("c17", C17_BENCH, &Library::nangate45()).unwrap()
    }

    /// Field-for-field equality of the sweep and the quadratic scan.
    fn assert_matches_reference(golden: &Netlist, split: &SplitLayout, label: &str) {
        let config = CroutingConfig::default();
        let sweep = crouting_attack(golden, split, &config);
        let reference = crouting_attack_reference(golden, split, &config);
        assert_eq!(sweep.num_vpins, reference.num_vpins, "{label}");
        assert_eq!(sweep.boxes, reference.boxes, "{label}");
    }

    #[test]
    fn report_shape_matches_config() {
        let n = c17();
        let nets: Vec<_> = n
            .nets()
            .filter(|(_, net)| net.degree() >= 2)
            .map(|(id, _)| id)
            .collect();
        let lifted = lifted(&n, &nets, 1);
        let split = split_layout(&n, &lifted.placement, &lifted.routing, 3);
        let report = crouting_attack(&n, &split, &CroutingConfig::default());
        assert_eq!(report.boxes.len(), 3);
        assert_eq!(report.num_vpins, split.feol.vpins.len());
        assert!(report.num_vpins > 0);
    }

    #[test]
    fn bigger_boxes_never_shrink_lists() {
        let n = c17();
        let nets: Vec<_> = n
            .nets()
            .filter(|(_, net)| net.degree() >= 2)
            .map(|(id, _)| id)
            .collect();
        let lifted = lifted(&n, &nets, 2);
        let split = split_layout(&n, &lifted.placement, &lifted.routing, 3);
        let report = crouting_attack(&n, &split, &CroutingConfig::default());
        for w in report.boxes.windows(2) {
            assert!(w[1].expected_list_size >= w[0].expected_list_size);
            assert!(w[1].match_in_list >= w[0].match_in_list);
        }
    }

    #[test]
    fn unprotected_layout_has_high_match_in_list() {
        let n = c17();
        let nets: Vec<_> = n
            .nets()
            .filter(|(_, net)| net.degree() >= 2)
            .map(|(id, _)| id)
            .collect();
        // Lift everything so every net is cut; the die is tiny, so the
        // widest box must contain the true partner of every vpin.
        let lifted = lifted(&n, &nets, 3);
        let split = split_layout(&n, &lifted.placement, &lifted.routing, 3);
        let report = crouting_attack(&n, &split, &CroutingConfig::default());
        let widest = report.boxes.last().unwrap();
        assert!(
            widest.match_in_list > 0.9,
            "match in list {}",
            widest.match_in_list
        );
    }

    /// The sweep must reproduce the quadratic pair scan bit for bit:
    /// counts, expected list sizes and match-in-list fractions.
    #[test]
    fn grid_kernel_matches_reference_scan() {
        let c432 = sm_benchgen::iscas::generate(&sm_benchgen::iscas::IscasProfile::c432(), 1);
        let designs = [("c17", c17()), ("c432", c432)];
        for (name, n) in designs {
            let nets: Vec<_> = n
                .nets()
                .filter(|(_, net)| net.degree() >= 2)
                .map(|(id, _)| id)
                .collect();
            for seed in [1u64, 2, 3] {
                let lifted = lifted(&n, &nets, seed);
                for layer in [3u8, 4] {
                    let split = split_layout(&n, &lifted.placement, &lifted.routing, layer);
                    let sweep = crouting_attack(&n, &split, &CroutingConfig::default());
                    let reference =
                        crouting_attack_reference(&n, &split, &CroutingConfig::default());
                    assert_eq!(
                        sweep.num_vpins, reference.num_vpins,
                        "{name} seed {seed} M{layer}"
                    );
                    assert_eq!(sweep.boxes.len(), reference.boxes.len());
                    for (s, r) in sweep.boxes.iter().zip(reference.boxes.iter()) {
                        assert_eq!(s.bbox_tracks, r.bbox_tracks);
                        assert_eq!(
                            s.expected_list_size, r.expected_list_size,
                            "{name} seed {seed} M{layer} box {}",
                            s.bbox_tracks
                        );
                        assert_eq!(
                            s.match_in_list, r.match_in_list,
                            "{name} seed {seed} M{layer} box {}",
                            s.bbox_tracks
                        );
                    }
                }
            }
        }
    }

    /// Odd box geometries (a negative radius, radius zero, one-DBU
    /// boxes) still agree with the reference.
    #[test]
    fn grid_kernel_matches_reference_on_tiny_boxes() {
        let n = c17();
        let nets: Vec<_> = n
            .nets()
            .filter(|(_, net)| net.degree() >= 2)
            .map(|(id, _)| id)
            .collect();
        let lifted = lifted(&n, &nets, 7);
        let split = split_layout(&n, &lifted.placement, &lifted.routing, 3);
        let config = CroutingConfig {
            bounding_boxes: vec![-1, 0, 1, 2, 500],
            track_pitch_dbu: 1,
        };
        let sweep = crouting_attack(&n, &split, &config);
        let reference = crouting_attack_reference(&n, &split, &config);
        for (s, r) in sweep.boxes.iter().zip(reference.boxes.iter()) {
            assert_eq!(
                s.expected_list_size, r.expected_list_size,
                "box {}",
                s.bbox_tracks
            );
            assert_eq!(s.match_in_list, r.match_in_list, "box {}", s.bbox_tracks);
        }
    }

    /// The campaign's two arms on real designs at every split layer:
    /// the protected FEOL against the erroneous netlist, and the
    /// original layout against the netlist itself.
    #[test]
    fn sweep_matches_reference_on_both_arms_m3_to_m9() {
        use sm_benchgen::iscas::{generate, IscasProfile};
        for profile in [
            IscasProfile::c432(),
            IscasProfile::c880(),
            IscasProfile::c1355(),
        ] {
            for seed in [1u64, 2] {
                let n = generate(&profile, seed);
                let p = protected(&n, seed);
                let erroneous = &p.randomization.erroneous;
                for layer in 3u8..=9 {
                    let label = format!("{} seed {seed} M{layer}", profile.name);
                    let prot = split_layout(erroneous, &p.placement, &p.feol_routing, layer);
                    assert_matches_reference(erroneous, &prot, &format!("{label} protected"));
                    let orig = split_layout(&n, &p.baseline.placement, &p.baseline.routing, layer);
                    assert_matches_reference(&n, &orig, &format!("{label} original"));
                }
            }
        }
    }

    /// The double loop `PairCounter` replaces.
    fn brute_pairs(drivers: &[Keyed], sinks: &[Keyed], r: i64) -> usize {
        drivers
            .iter()
            .map(|&(_, d)| {
                sinks
                    .iter()
                    .filter(|&&(_, s)| (d.0 - s.0).abs() <= r && (d.1 - s.1).abs() <= r)
                    .count()
            })
            .sum()
    }

    /// The double loop `nearest_partner_distances` replaces.
    fn brute_nearest(drivers: &[Keyed], sinks: &[Keyed]) -> Vec<i64> {
        let nearest = |&(net, at): &Keyed, others: &[Keyed]| {
            others
                .iter()
                .filter(|&&(other, _)| other == net)
                .map(|&(_, o)| chebyshev(at, o))
                .min()
        };
        let mut dist: Vec<i64> = drivers
            .iter()
            .filter_map(|v| nearest(v, sinks))
            .chain(sinks.iter().filter_map(|v| nearest(v, drivers)))
            .collect();
        dist.sort_unstable();
        dist
    }

    fn keyed(points: Vec<(usize, i64, i64)>, scale: i64) -> Vec<Keyed> {
        points
            .into_iter()
            .map(|(net, x, y)| (NetId::new(net), (x * scale, y * scale)))
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Coordinates on a coarse grid of `scale`, around the origin,
        /// force duplicates, shared x or y and negative values; every
        /// case also runs with each side empty, and radii cover −1, 0,
        /// 1, one grid step (box edges landing on points) and a random
        /// one.
        #[test]
        fn pair_counter_and_nearest_partners_match_brute_force(
            drivers in proptest::collection::vec((0usize..4, -5i64..5, -5i64..5), 0..40),
            sinks in proptest::collection::vec((0usize..4, -5i64..5, -5i64..5), 0..40),
            scale in 1i64..40,
            radius in 0i64..500,
        ) {
            let drivers = keyed(drivers, scale);
            let sinks = keyed(sinks, scale);
            for (d, s) in [
                (drivers.clone(), sinks.clone()),
                (drivers.clone(), Vec::new()),
                (Vec::new(), sinks.clone()),
            ] {
                let counter = PairCounter::new(&d, &s);
                for r in [-1, 0, 1, scale, radius] {
                    prop_assert_eq!(counter.count(r), brute_pairs(&d, &s, r), "radius {}", r);
                }
                let expected = brute_nearest(&d, &s);
                let (mut d, mut s) = (d, s);
                prop_assert_eq!(nearest_partner_distances(&mut d, &mut s), expected);
            }
        }
    }

    #[test]
    fn empty_split_is_safe() {
        let n = c17();
        let base = original(&n, 4);
        // Split at M9: nothing routes that high in c17.
        let split = split_layout(&n, &base.placement, &base.routing, 9);
        let report = crouting_attack(&n, &split, &CroutingConfig::default());
        assert_eq!(report.num_vpins, 0);
        for b in &report.boxes {
            assert_eq!(b.expected_list_size, 0.0);
        }
    }
}
