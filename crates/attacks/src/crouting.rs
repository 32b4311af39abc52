//! The routing-centric `crouting` attack of Magaña et al. (ICCAD'16).
//!
//! Rather than committing to a netlist, `crouting` confines the solution
//! space: for every vpin it collects the candidate vpins inside a bounding
//! box measured in routing tracks. The paper's Table 3 reports the number
//! of vpins and the expected candidate-list size `E[LS]` for boxes of 15,
//! 30 and 45 tracks; *match in list* records how often the true partner is
//! inside the box at all.

use crate::grid::ColumnIndex;
use sm_layout::{SplitLayout, VpinSide};
use sm_netlist::{NetId, Netlist};

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

/// Runs the crouting attack on a split layout.
///
/// `golden` supplies the true partner relation for match-in-list scoring;
/// pass the placed netlist itself for unprotected layouts.
///
/// A vpin's candidate list holds the *opposite-side* vpins inside its
/// bounding box, so the kernel splits the vpins into a driver and a sink
/// point set, counts boxes against a [`ColumnIndex`] over the opposite
/// side, and checks match-in-list against per-net partner tables whose
/// golden lookups are hoisted to a single pass — every count and match
/// bit is identical to the quadratic pair scan (pinned by the
/// `differential` tests below), in near-linear time.
pub fn crouting_attack(
    golden: &Netlist,
    split: &SplitLayout,
    config: &CroutingConfig,
) -> CroutingReport {
    crouting_attack_traced(golden, split, config, &mut sm_exec::phase::Recorder::new())
}

/// [`crouting_attack`] that additionally records the grid kernel's
/// wall-clock into `rec` as `crouting-grid` — the per-box column-index
/// rebuilds plus the box-count/match sweep, i.e. everything except the
/// hoisted golden-lookup setup. Recording is observability only: the
/// report is identical to [`crouting_attack`]'s.
pub fn crouting_attack_traced(
    golden: &Netlist,
    split: &SplitLayout,
    config: &CroutingConfig,
    rec: &mut sm_exec::phase::Recorder,
) -> CroutingReport {
    let vpins = &split.feol.vpins;
    let n = vpins.len();

    // One pass of hoisted golden lookups: the true net of every sink
    // vpin (previously re-derived per candidate pair), plus the two
    // point sets and per-net partner position tables.
    let mut driver_pts: Vec<(i64, i64)> = Vec::new();
    let mut sink_pts: Vec<(i64, i64)> = Vec::new();
    let mut sink_true_net: Vec<NetId> = Vec::with_capacity(n);
    let mut net_bound = 0usize;
    for v in vpins.iter() {
        match v.side {
            VpinSide::Driver(_) => net_bound = net_bound.max(v.net.index() + 1),
            VpinSide::Sink(s) => {
                let true_net: NetId = match s {
                    sm_netlist::Sink::Cell { cell, pin } => {
                        golden.cell(cell).inputs()[pin as usize]
                    }
                    sm_netlist::Sink::Port(p) => golden.output_ports()[p.index()].net,
                };
                net_bound = net_bound.max(true_net.index() + 1);
                sink_true_net.push(true_net);
            }
        }
    }
    // Partner tables: a driver vpin matches any in-box sink whose true
    // net equals the driver's net; a sink vpin matches any in-box driver
    // carrying the sink's true net.
    let mut drivers_by_net: Vec<Vec<(i64, i64)>> = vec![Vec::new(); net_bound];
    let mut sinks_by_true_net: Vec<Vec<(i64, i64)>> = vec![Vec::new(); net_bound];
    let mut next_sink = 0usize;
    for v in vpins.iter() {
        let pt = (v.position.x, v.position.y);
        match v.side {
            VpinSide::Driver(_) => {
                driver_pts.push(pt);
                drivers_by_net[v.net.index()].push(pt);
            }
            VpinSide::Sink(_) => {
                sink_pts.push(pt);
                sinks_by_true_net[sink_true_net[next_sink].index()].push(pt);
                next_sink += 1;
            }
        }
    }

    let mut driver_idx = ColumnIndex::new();
    let mut sink_idx = ColumnIndex::new();
    let mut boxes = Vec::with_capacity(config.bounding_boxes.len());
    let grid_start = std::time::Instant::now();
    for &bbox in &config.bounding_boxes {
        let radius = bbox * config.track_pitch_dbu;
        // Columns at a quarter radius keep the exact edge-column sweep a
        // small fraction of each box count.
        let width = (radius / 4).max(1);
        driver_idx.rebuild(&driver_pts, width);
        sink_idx.rebuild(&sink_pts, width);
        let mut total_candidates = 0usize;
        let mut matches = 0usize;
        let mut next_sink = 0usize;
        for v in vpins.iter() {
            let (x, y) = (v.position.x, v.position.y);
            let (opposite, partners) = match v.side {
                VpinSide::Driver(_) => (&sink_idx, &sinks_by_true_net[v.net.index()]),
                VpinSide::Sink(_) => {
                    let net = sink_true_net[next_sink];
                    next_sink += 1;
                    (&driver_idx, &drivers_by_net[net.index()])
                }
            };
            total_candidates +=
                opposite.count_in_box(x - radius, x + radius, y - radius, y + radius);
            if partners
                .iter()
                .any(|&(px, py)| (x - px).abs() <= radius && (y - py).abs() <= radius)
            {
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
    rec.add("crouting-grid", grid_start.elapsed().as_secs_f64() * 1e3);
    CroutingReport {
        num_vpins: n,
        boxes,
    }
}

/// The original quadratic pair scan, retained as the differential
/// reference for the grid kernel.
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
    use sm_core::baselines::{naive_lifting, original_layout};
    use sm_layout::split_layout;
    use sm_netlist::parse::bench::{parse_bench, C17_BENCH};
    use sm_netlist::Library;

    fn c17() -> Netlist {
        parse_bench("c17", C17_BENCH, &Library::nangate45()).unwrap()
    }

    #[test]
    fn report_shape_matches_config() {
        let n = c17();
        let nets: Vec<_> = n
            .nets()
            .filter(|(_, net)| net.degree() >= 2)
            .map(|(id, _)| id)
            .collect();
        let lifted = naive_lifting(&n, &nets, 6, 0.6, 1);
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
        let lifted = naive_lifting(&n, &nets, 6, 0.6, 2);
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
        let lifted = naive_lifting(&n, &nets, 6, 0.6, 3);
        let split = split_layout(&n, &lifted.placement, &lifted.routing, 3);
        let report = crouting_attack(&n, &split, &CroutingConfig::default());
        let widest = report.boxes.last().unwrap();
        assert!(
            widest.match_in_list > 0.9,
            "match in list {}",
            widest.match_in_list
        );
    }

    /// The grid kernel must reproduce the quadratic pair scan bit for
    /// bit: counts, expected list sizes, and — the hoisted-lookup part —
    /// the match-in-list fractions.
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
                let lifted = naive_lifting(&n, &nets, 6, 0.6, seed);
                for layer in [3u8, 4] {
                    let split = split_layout(&n, &lifted.placement, &lifted.routing, layer);
                    let grid = crouting_attack(&n, &split, &CroutingConfig::default());
                    let reference =
                        crouting_attack_reference(&n, &split, &CroutingConfig::default());
                    assert_eq!(
                        grid.num_vpins, reference.num_vpins,
                        "{name} seed {seed} M{layer}"
                    );
                    assert_eq!(grid.boxes.len(), reference.boxes.len());
                    for (g, r) in grid.boxes.iter().zip(reference.boxes.iter()) {
                        assert_eq!(g.bbox_tracks, r.bbox_tracks);
                        assert_eq!(
                            g.expected_list_size, r.expected_list_size,
                            "{name} seed {seed} M{layer} box {}",
                            g.bbox_tracks
                        );
                        assert_eq!(
                            g.match_in_list, r.match_in_list,
                            "{name} seed {seed} M{layer} box {}",
                            g.bbox_tracks
                        );
                    }
                }
            }
        }
    }

    /// Odd box geometries (radius smaller than a column, radius zero)
    /// still agree with the reference.
    #[test]
    fn grid_kernel_matches_reference_on_tiny_boxes() {
        let n = c17();
        let nets: Vec<_> = n
            .nets()
            .filter(|(_, net)| net.degree() >= 2)
            .map(|(id, _)| id)
            .collect();
        let lifted = naive_lifting(&n, &nets, 6, 0.6, 7);
        let split = split_layout(&n, &lifted.placement, &lifted.routing, 3);
        let config = CroutingConfig {
            bounding_boxes: vec![0, 1, 2, 500],
            track_pitch_dbu: 1,
        };
        let grid = crouting_attack(&n, &split, &config);
        let reference = crouting_attack_reference(&n, &split, &config);
        for (g, r) in grid.boxes.iter().zip(reference.boxes.iter()) {
            assert_eq!(
                g.expected_list_size, r.expected_list_size,
                "box {}",
                g.bbox_tracks
            );
            assert_eq!(g.match_in_list, r.match_in_list, "box {}", g.bbox_tracks);
        }
    }

    #[test]
    fn empty_split_is_safe() {
        let n = c17();
        let base = original_layout(&n, 0.6, 4);
        // Split at M9: nothing routes that high in c17.
        let split = split_layout(&n, &base.placement, &base.routing, 9);
        let report = crouting_attack(&n, &split, &CroutingConfig::default());
        assert_eq!(report.num_vpins, 0);
        for b in &report.boxes {
            assert_eq!(b.expected_list_size, 0.0);
        }
    }
}
