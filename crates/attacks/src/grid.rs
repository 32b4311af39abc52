//! The spatial index behind the flow attack's candidate scoring.
//!
//! The flow attack scores the nearest driver stubs around every sink.
//! [`CellGrid`] buckets the stubs into square cells and hands them out
//! ring by ring around the sink's cell, so the scan stops at the first
//! ring whose distance bound already exceeds the worst kept candidate:
//! the candidate lists stay exactly those of the brute-force loop while
//! the scan drops to near-linear time. (Crouting needs no index: it
//! counts its boxes with one sorted sweep.)

/// Points bucketed into square cells (CSR layout: one contiguous item
/// arena plus per-cell offsets), for expanding-ring nearest-candidate
/// scans. A point's index is its position in the `points` slice passed to
/// [`CellGrid::build`].
#[derive(Debug)]
pub(crate) struct CellGrid {
    /// Cell edge length in DBU (≥ 1).
    cell: i64,
    min_cx: i64,
    min_cy: i64,
    ncx: usize,
    ncy: usize,
    /// CSR offsets, row-major over `(cy, cx)`; length `ncx · ncy + 1`.
    off: Vec<u32>,
    /// Point indices bucketed by cell.
    items: Vec<u32>,
}

impl CellGrid {
    /// Builds a grid over `points`, sizing cells for a small constant
    /// occupancy (the cell count stays `O(points)` even for degenerate
    /// thin bounding boxes).
    pub(crate) fn build(points: &[(i64, i64)]) -> CellGrid {
        let n = points.len();
        if n == 0 {
            return CellGrid {
                cell: 1,
                min_cx: 0,
                min_cy: 0,
                ncx: 0,
                ncy: 0,
                off: vec![0],
                items: Vec::new(),
            };
        }
        let (mut min_x, mut min_y, mut max_x, mut max_y) = (i64::MAX, i64::MAX, i64::MIN, i64::MIN);
        for &(x, y) in points {
            min_x = min_x.min(x);
            min_y = min_y.min(y);
            max_x = max_x.max(x);
            max_y = max_y.max(y);
        }
        let w = max_x - min_x + 1;
        let h = max_y - min_y + 1;
        // Start near √(area/n) (≈ one point per cell) and grow until the
        // cell count is bounded by the point count.
        let mut cell = (((w as f64) * (h as f64) / n as f64).sqrt() as i64).max(1);
        loop {
            let ncx = (w + cell - 1) / cell;
            let ncy = (h + cell - 1) / cell;
            if ncx.saturating_mul(ncy) <= (4 * n as i64).max(4) {
                break;
            }
            cell *= 2;
        }
        let min_cx = min_x.div_euclid(cell);
        let min_cy = min_y.div_euclid(cell);
        let ncx = (max_x.div_euclid(cell) - min_cx + 1) as usize;
        let ncy = (max_y.div_euclid(cell) - min_cy + 1) as usize;
        let mut off = vec![0u32; ncx * ncy + 1];
        let at = |x: i64, y: i64| {
            let cx = (x.div_euclid(cell) - min_cx) as usize;
            let cy = (y.div_euclid(cell) - min_cy) as usize;
            cy * ncx + cx
        };
        for &(x, y) in points {
            off[at(x, y) + 1] += 1;
        }
        for i in 1..off.len() {
            off[i] += off[i - 1];
        }
        let mut cursor = off.clone();
        let mut items = vec![0u32; n];
        for (i, &(x, y)) in points.iter().enumerate() {
            let c = at(x, y);
            items[cursor[c] as usize] = i as u32;
            cursor[c] += 1;
        }
        CellGrid {
            cell,
            min_cx,
            min_cy,
            ncx,
            ncy,
            off,
            items,
        }
    }

    /// Cell edge length in DBU.
    pub(crate) fn cell_len(&self) -> i64 {
        self.cell
    }

    /// Absolute cell coordinates containing `(x, y)` (may lie outside the
    /// indexed area).
    pub(crate) fn cell_of(&self, x: i64, y: i64) -> (i64, i64) {
        (x.div_euclid(self.cell), y.div_euclid(self.cell))
    }

    /// `true` when the square ring of Chebyshev radius `r` around cell
    /// `(cx, cy)` can no longer intersect the grid at this or any larger
    /// radius (the ring's hole contains the whole grid).
    pub(crate) fn ring_exhausted(&self, cx: i64, cy: i64, r: i64) -> bool {
        if self.ncx == 0 {
            return true;
        }
        let max_cx = self.min_cx + self.ncx as i64 - 1;
        let max_cy = self.min_cy + self.ncy as i64 - 1;
        cx - r < self.min_cx && cx + r > max_cx && cy - r < self.min_cy && cy + r > max_cy
    }

    /// Visits the item slice of every grid cell on the Chebyshev-radius-`r`
    /// ring around `(cx, cy)`.
    pub(crate) fn visit_ring(&self, cx: i64, cy: i64, r: i64, mut f: impl FnMut(&[u32])) {
        if self.ncx == 0 {
            return;
        }
        let max_cx = self.min_cx + self.ncx as i64 - 1;
        let max_cy = self.min_cy + self.ncy as i64 - 1;
        let mut visit = |gx: i64, gy: i64| {
            let c = (gy - self.min_cy) as usize * self.ncx + (gx - self.min_cx) as usize;
            let lo = self.off[c] as usize;
            let hi = self.off[c + 1] as usize;
            if lo != hi {
                f(&self.items[lo..hi]);
            }
        };
        // Iterate only the in-bounds part of each ring edge so queries
        // far outside the indexed area stay cheap.
        let x_lo = (cx - r).max(self.min_cx);
        let x_hi = (cx + r).min(max_cx);
        if r == 0 {
            if x_lo <= x_hi && cy >= self.min_cy && cy <= max_cy {
                visit(cx, cy);
            }
            return;
        }
        if x_lo <= x_hi {
            if cy - r >= self.min_cy && cy - r <= max_cy {
                for gx in x_lo..=x_hi {
                    visit(gx, cy - r);
                }
            }
            if cy + r >= self.min_cy && cy + r <= max_cy {
                for gx in x_lo..=x_hi {
                    visit(gx, cy + r);
                }
            }
        }
        let y_lo = (cy - r + 1).max(self.min_cy);
        let y_hi = (cy + r - 1).min(max_cy);
        if y_lo <= y_hi {
            if cx - r >= self.min_cx && cx - r <= max_cx {
                for gy in y_lo..=y_hi {
                    visit(cx - r, gy);
                }
            }
            if cx + r >= self.min_cx && cx + r <= max_cx {
                for gy in y_lo..=y_hi {
                    visit(cx + r, gy);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_grid_rings_cover_every_point_exactly_once() {
        let mut seed = 0x0135_79bd_f246_8ace_u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for n in [0usize, 1, 3, 100, 400] {
            let points: Vec<(i64, i64)> = (0..n)
                .map(|_| ((next() % 9000) as i64 - 4500, (next() % 60) as i64))
                .collect();
            let grid = CellGrid::build(&points);
            for &(qx, qy) in [(0i64, 0i64), (-9000, 30), (12345, -77)].iter() {
                let (cx, cy) = grid.cell_of(qx, qy);
                let mut seen = vec![0usize; n];
                let mut r = 0i64;
                while !grid.ring_exhausted(cx, cy, r) {
                    grid.visit_ring(cx, cy, r, |items| {
                        for &i in items {
                            seen[i as usize] += 1;
                        }
                    });
                    r += 1;
                }
                assert!(seen.iter().all(|&c| c == 1), "n {n} query ({qx},{qy})");
            }
        }
    }

    #[test]
    fn cell_grid_ring_distance_bound_holds() {
        // Every point first visited on ring r ≥ 1 is at Manhattan
        // distance ≥ (r−1)·cell + 1 — the pruning bound of the scoring
        // kernel.
        let points: Vec<(i64, i64)> = (0..200)
            .map(|i| ((i * 37) % 1000, (i * 91) % 1000))
            .collect();
        let grid = CellGrid::build(&points);
        let (qx, qy) = (517i64, 222i64);
        let (cx, cy) = grid.cell_of(qx, qy);
        let mut r = 0i64;
        while !grid.ring_exhausted(cx, cy, r) {
            grid.visit_ring(cx, cy, r, |items| {
                for &i in items {
                    let (px, py) = points[i as usize];
                    let dist = (px - qx).abs() + (py - qy).abs();
                    if r >= 1 {
                        assert!(
                            dist > (r - 1) * grid.cell_len(),
                            "ring {r} point {i} dist {dist} cell {}",
                            grid.cell_len()
                        );
                    }
                }
            });
            r += 1;
        }
    }
}
