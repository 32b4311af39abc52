//! Die outline and standard-cell rows.

use crate::geom::{Point, Rect};
use crate::tech::Technology;
use sm_netlist::Netlist;

/// The die area and its placement rows.
///
/// Rows span the full core width; cells snap to sites of
/// [`Technology::site_width_dbu`]. Utilization is total cell area over core
/// area — the paper keeps it at 56–77% for superblue and picks rates that
/// avoid congestion.
#[derive(Debug, Clone, PartialEq)]
pub struct Floorplan {
    pub(crate) core: Rect,
    pub(crate) num_rows: usize,
    pub(crate) row_height: i64,
    pub(crate) site_width: i64,
    pub(crate) sites_per_row: usize,
    pub(crate) target_utilization: f64,
}

impl Floorplan {
    /// Sizes a square-ish die for `netlist` at the given target
    /// utilization (0 < u ≤ 1).
    ///
    /// # Panics
    ///
    /// Panics if `utilization` is not in `(0, 1]` or the netlist is empty.
    pub fn for_netlist(netlist: &Netlist, tech: &Technology, utilization: f64) -> Self {
        assert!(
            utilization > 0.0 && utilization <= 1.0,
            "utilization must be in (0, 1]"
        );
        assert!(netlist.num_cells() > 0, "cannot floorplan an empty netlist");
        let cell_area_um2 = netlist.total_cell_area_um2();
        let core_area_um2 = cell_area_um2 / utilization;
        // Square die rounded up to whole rows/sites.
        let side_um = core_area_um2.sqrt();
        let row_height = tech.row_height_dbu;
        let site_width = tech.site_width_dbu;
        let num_rows = ((side_um * 1000.0 / row_height as f64).ceil() as usize).max(1);
        let sites_per_row = ((side_um * 1000.0 / site_width as f64).ceil() as usize).max(4);
        let core = Rect::new(
            Point::new(0, 0),
            Point::new(
                sites_per_row as i64 * site_width,
                num_rows as i64 * row_height,
            ),
        );
        Floorplan {
            core,
            num_rows,
            row_height,
            site_width,
            sites_per_row,
            target_utilization: utilization,
        }
    }

    /// The core area rectangle.
    pub fn core(&self) -> Rect {
        self.core
    }

    /// Number of placement rows.
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// Row height in DBU.
    pub fn row_height(&self) -> i64 {
        self.row_height
    }

    /// Site width in DBU.
    pub fn site_width(&self) -> i64 {
        self.site_width
    }

    /// Sites per row.
    pub fn sites_per_row(&self) -> usize {
        self.sites_per_row
    }

    /// The utilization the floorplan was sized for.
    pub fn target_utilization(&self) -> f64 {
        self.target_utilization
    }

    /// Die area in µm².
    pub fn die_area_um2(&self) -> f64 {
        self.core.area() as f64 / 1.0e6
    }

    /// The y coordinate of row `r`'s bottom edge.
    ///
    /// # Panics
    ///
    /// Panics if `r >= num_rows()`.
    pub fn row_y(&self, r: usize) -> i64 {
        assert!(r < self.num_rows, "row {r} out of range");
        self.core.lo.y + r as i64 * self.row_height
    }

    /// The row whose band contains `y` (clamped to valid rows).
    pub fn row_of(&self, y: i64) -> usize {
        let r = (y - self.core.lo.y).div_euclid(self.row_height);
        (r.max(0) as usize).min(self.num_rows - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sm_netlist::parse::bench::{parse_bench, C17_BENCH};
    use sm_netlist::Library;

    fn c17() -> Netlist {
        parse_bench("c17", C17_BENCH, &Library::nangate45()).unwrap()
    }

    #[test]
    fn floorplan_fits_cells() {
        let n = c17();
        let tech = Technology::nangate45_10lm();
        let fp = Floorplan::for_netlist(&n, &tech, 0.7);
        let usable = fp.die_area_um2() * 0.7;
        assert!(usable >= n.total_cell_area_um2() * 0.99);
        assert!(fp.num_rows() >= 1);
        assert_eq!(fp.row_height(), 1400);
    }

    #[test]
    fn utilization_shrinks_die() {
        let n = c17();
        let tech = Technology::nangate45_10lm();
        let tight = Floorplan::for_netlist(&n, &tech, 0.9);
        let loose = Floorplan::for_netlist(&n, &tech, 0.3);
        assert!(loose.die_area_um2() >= tight.die_area_um2());
    }

    #[test]
    fn row_lookup_roundtrip() {
        let n = c17();
        let tech = Technology::nangate45_10lm();
        let fp = Floorplan::for_netlist(&n, &tech, 0.5);
        for r in 0..fp.num_rows() {
            assert_eq!(fp.row_of(fp.row_y(r)), r);
        }
        // Clamping below/above.
        assert_eq!(fp.row_of(-100), 0);
        assert_eq!(fp.row_of(i64::MAX / 2), fp.num_rows() - 1);
    }

    #[test]
    #[should_panic(expected = "utilization")]
    fn zero_utilization_panics() {
        let n = c17();
        let tech = Technology::nangate45_10lm();
        let _ = Floorplan::for_netlist(&n, &tech, 0.0);
    }
}
