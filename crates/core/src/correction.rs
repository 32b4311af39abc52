//! Correction cells: the BEOL-only pseudo-cells that lift swapped nets and
//! carry the true connectivity.
//!
//! Physically (Sec. 4 of the paper) a correction cell is a 2-input/2-output
//! OR-gate *shell* whose pins sit in a high metal layer (M6 or M8). It has
//! no devices and no pins in lower metal, so it may overlap standard cells
//! freely — only correction cells must not overlap each other. During the
//! initial (erroneous) place-and-route the misleading arc `C→Z` is used;
//! restoration disables it and routes the true paths between *pairs* of
//! correction cells in the BEOL. Before export the cells are removed — they
//! are routing scaffolding, not logic.

use crate::randomize::SwapRecord;
use sm_layout::{Placement, Point};
use sm_netlist::{NetId, Netlist, Sink};

/// A correction cell instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CorrectionCell {
    /// Index of this cell (cells come in pairs: `2k` and `2k+1` belong to
    /// swap `k`).
    pub id: usize,
    /// The erroneous FEOL net this cell is embedded on.
    pub erroneous_net: NetId,
    /// The net whose sink this cell must reconnect during restoration.
    pub true_net: NetId,
    /// Pin layer (M6 for ISCAS-85-class designs, M8 for superblue-class).
    pub pin_layer: u8,
    /// Placed location (pins snap to the routing tracks of `pin_layer`).
    pub position: Point,
}

/// Footprint of a correction cell in DBU (pin cluster extent); used only
/// for the overlap-avoidance legalization among correction cells.
pub const CC_FOOTPRINT_DBU: i64 = 1400;

/// Embeds one pair of correction cells per swap: the cell for the
/// `net_a`-side sits at the midpoint of the erroneous `net_b` connection it
/// was moved to, and vice versa. Pins are snapped to the `pin_layer` track
/// grid (the paper chooses pin dimensions/offsets so they land on tracks).
pub fn embed_correction_cells(
    netlist: &Netlist,
    placement: &Placement,
    swaps: &[SwapRecord],
    pin_layer: u8,
    track_pitch_dbu: i64,
) -> Vec<CorrectionCell> {
    let mut cells = Vec::with_capacity(swaps.len() * 2);
    for (k, swap) in swaps.iter().enumerate() {
        // After the swap, sink_a rides on net_b and sink_b on net_a.
        let pos_a = midpoint(
            placement.driver_position(netlist, swap.net_b),
            sink_position(netlist, placement, swap.sink_a),
        );
        let pos_b = midpoint(
            placement.driver_position(netlist, swap.net_a),
            sink_position(netlist, placement, swap.sink_b),
        );
        cells.push(CorrectionCell {
            id: 2 * k,
            erroneous_net: swap.net_b,
            true_net: swap.net_a,
            pin_layer,
            position: snap(pos_a, track_pitch_dbu),
        });
        cells.push(CorrectionCell {
            id: 2 * k + 1,
            erroneous_net: swap.net_a,
            true_net: swap.net_b,
            pin_layer,
            position: snap(pos_b, track_pitch_dbu),
        });
    }
    legalize_correction_cells(&mut cells, track_pitch_dbu);
    cells
}

/// Shifts correction cells so no two overlap (standard cells are *allowed*
/// to overlap them — the custom legalization of the paper only separates
/// correction cells from each other).
fn legalize_correction_cells(cells: &mut [CorrectionCell], pitch: i64) {
    use std::collections::HashSet;
    // Bucket the plane at footprint granularity: one cell per bucket makes
    // Manhattan separation ≥ footprint automatic between buckets that are
    // not 4-adjacent; a spiral over buckets finds the nearest free slot in
    // O(occupied) instead of O(n²).
    let f = CC_FOOTPRINT_DBU;
    let mut taken: HashSet<(i64, i64)> = HashSet::with_capacity(cells.len() * 2);
    let max_radius = cells.len() as i64 + 2;
    for c in cells.iter_mut() {
        let bx = c.position.x.div_euclid(f);
        let by = c.position.y.div_euclid(f);
        let mut slot = None;
        'spiral: for radius in 0..max_radius {
            for dx in -radius..=radius {
                for dy in [-(radius - dx.abs()), radius - dx.abs()] {
                    let cand = (bx + dx, by + dy);
                    if !taken.contains(&cand)
                        && !taken.contains(&(cand.0 + 1, cand.1))
                        && !taken.contains(&(cand.0 - 1, cand.1))
                        && !taken.contains(&(cand.0, cand.1 + 1))
                        && !taken.contains(&(cand.0, cand.1 - 1))
                    {
                        slot = Some(cand);
                        break 'spiral;
                    }
                    if radius == 0 {
                        continue 'spiral;
                    }
                }
            }
        }
        let (sx, sy) = slot.expect("plane has room for every cell");
        taken.insert((sx, sy));
        c.position = snap(Point::new(sx * f + f / 2, sy * f + f / 2), pitch);
    }
}

/// `true` if no two correction cells overlap.
pub fn correction_cells_legal(cells: &[CorrectionCell]) -> bool {
    for (i, a) in cells.iter().enumerate() {
        for b in &cells[i + 1..] {
            if a.position.manhattan(b.position) < CC_FOOTPRINT_DBU {
                return false;
            }
        }
    }
    true
}

fn sink_position(_netlist: &Netlist, placement: &Placement, sink: Sink) -> Point {
    match sink {
        Sink::Cell { cell, .. } => placement.cell_center(cell),
        Sink::Port(p) => placement.output_position(p.index()),
    }
}

fn midpoint(a: Point, b: Point) -> Point {
    Point::new((a.x + b.x) / 2, (a.y + b.y) / 2)
}

fn snap(p: Point, pitch: i64) -> Point {
    let pitch = pitch.max(1);
    Point::new(p.x / pitch * pitch, p.y / pitch * pitch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::randomize::{randomize, RandomizeConfig};
    use sm_layout::{Floorplan, PlacementEngine, Technology};
    use sm_netlist::parse::bench::{parse_bench, C17_BENCH};
    use sm_netlist::Library;

    fn setup() -> (Netlist, Placement, Vec<SwapRecord>) {
        let lib = Library::nangate45();
        let n = parse_bench("c17", C17_BENCH, &lib).unwrap();
        let r = randomize(&n, &RandomizeConfig::new(3));
        let tech = Technology::nangate45_10lm();
        let fp = Floorplan::for_netlist(&r.erroneous, &tech, 0.5);
        let pl = PlacementEngine::new(3).place(&r.erroneous, &fp);
        (r.erroneous, pl, r.swaps)
    }

    #[test]
    fn two_cells_per_swap() {
        let (n, pl, swaps) = setup();
        let cells = embed_correction_cells(&n, &pl, &swaps, 6, 280);
        assert_eq!(cells.len(), swaps.len() * 2);
        for c in &cells {
            assert_eq!(c.pin_layer, 6);
        }
    }

    #[test]
    fn cells_do_not_overlap_each_other() {
        let (n, pl, swaps) = setup();
        let cells = embed_correction_cells(&n, &pl, &swaps, 6, 280);
        assert!(correction_cells_legal(&cells));
    }

    #[test]
    fn pins_snap_to_tracks() {
        let (n, pl, swaps) = setup();
        let pitch = 280;
        let cells = embed_correction_cells(&n, &pl, &swaps, 6, pitch);
        for c in &cells {
            assert_eq!(c.position.x % pitch, 0, "{:?}", c.position);
            assert_eq!(c.position.y % pitch, 0, "{:?}", c.position);
        }
    }

    #[test]
    fn pair_nets_are_cross_wired() {
        let (n, pl, swaps) = setup();
        let cells = embed_correction_cells(&n, &pl, &swaps, 6, 280);
        for (k, swap) in swaps.iter().enumerate() {
            let a = &cells[2 * k];
            let b = &cells[2 * k + 1];
            // Each cell sits on the erroneous net and restores the true one.
            assert_eq!(a.erroneous_net, swap.net_b);
            assert_eq!(a.true_net, swap.net_a);
            assert_eq!(b.erroneous_net, swap.net_a);
            assert_eq!(b.true_net, swap.net_b);
        }
    }
}
