//! Integer geometry in database units (1 DBU = 1 nm).

use serde::{Deserialize, Serialize};
use std::fmt;

/// Database units per micron (1 DBU = 1 nm).
pub const DBU_PER_UM: i64 = 1000;

/// A point on the die, in DBU.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub struct Point {
    /// X coordinate in DBU.
    pub x: i64,
    /// Y coordinate in DBU.
    pub y: i64,
}

impl Point {
    /// Creates a point.
    pub const fn new(x: i64, y: i64) -> Self {
        Point { x, y }
    }

    /// Manhattan distance to `other` in DBU.
    #[inline]
    pub fn manhattan(self, other: Point) -> i64 {
        (self.x - other.x).abs() + (self.y - other.y).abs()
    }

    /// Manhattan distance in microns.
    #[inline]
    pub fn manhattan_um(self, other: Point) -> f64 {
        self.manhattan(other) as f64 / DBU_PER_UM as f64
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.x, self.y)
    }
}

/// An axis-aligned rectangle `[lo, hi)`, in DBU.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub struct Rect {
    /// Lower-left corner (inclusive).
    pub lo: Point,
    /// Upper-right corner (exclusive).
    pub hi: Point,
}

impl Rect {
    /// Creates a rectangle from corners.
    ///
    /// # Panics
    ///
    /// Panics if `hi` is not ≥ `lo` on both axes.
    pub fn new(lo: Point, hi: Point) -> Self {
        assert!(hi.x >= lo.x && hi.y >= lo.y, "degenerate rectangle");
        Rect { lo, hi }
    }

    /// Width in DBU.
    pub fn width(&self) -> i64 {
        self.hi.x - self.lo.x
    }

    /// Height in DBU.
    pub fn height(&self) -> i64 {
        self.hi.y - self.lo.y
    }

    /// Area in DBU².
    pub fn area(&self) -> i128 {
        self.width() as i128 * self.height() as i128
    }

    /// Geometric center.
    pub fn center(&self) -> Point {
        Point::new((self.lo.x + self.hi.x) / 2, (self.lo.y + self.hi.y) / 2)
    }

    /// `true` if `p` lies inside (half-open semantics).
    pub fn contains(&self, p: Point) -> bool {
        p.x >= self.lo.x && p.x < self.hi.x && p.y >= self.lo.y && p.y < self.hi.y
    }

    /// Clamps `p` into the rectangle (hi-exclusive by one DBU).
    pub fn clamp(&self, p: Point) -> Point {
        Point::new(
            p.x.clamp(self.lo.x, self.hi.x - 1),
            p.y.clamp(self.lo.y, self.hi.y - 1),
        )
    }
}

impl fmt::Display for Rect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{} – {}]", self.lo, self.hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manhattan_distance() {
        let a = Point::new(0, 0);
        let b = Point::new(3000, -4000);
        assert_eq!(a.manhattan(b), 7000);
        assert!((a.manhattan_um(b) - 7.0).abs() < 1e-12);
    }

    #[test]
    fn rect_properties() {
        let r = Rect::new(Point::new(0, 0), Point::new(10, 20));
        assert_eq!(r.width(), 10);
        assert_eq!(r.height(), 20);
        assert_eq!(r.area(), 200);
        assert_eq!(r.center(), Point::new(5, 10));
        assert!(r.contains(Point::new(0, 0)));
        assert!(!r.contains(Point::new(10, 0)));
    }

    #[test]
    fn clamp_into_rect() {
        let r = Rect::new(Point::new(0, 0), Point::new(10, 10));
        assert_eq!(r.clamp(Point::new(-5, 50)), Point::new(0, 9));
    }

    #[test]
    #[should_panic(expected = "degenerate")]
    fn degenerate_rect_panics() {
        let _ = Rect::new(Point::new(5, 5), Point::new(0, 0));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Manhattan distance is a metric: symmetric, zero iff equal, and
        /// satisfies the triangle inequality.
        #[test]
        fn manhattan_is_a_metric(
            ax in -1_000_000i64..1_000_000, ay in -1_000_000i64..1_000_000,
            bx in -1_000_000i64..1_000_000, by in -1_000_000i64..1_000_000,
            cx in -1_000_000i64..1_000_000, cy in -1_000_000i64..1_000_000,
        ) {
            let a = Point::new(ax, ay);
            let b = Point::new(bx, by);
            let c = Point::new(cx, cy);
            prop_assert_eq!(a.manhattan(b), b.manhattan(a));
            prop_assert_eq!(a.manhattan(a), 0);
            prop_assert!(a.manhattan(c) <= a.manhattan(b) + b.manhattan(c));
        }

        /// Clamp always lands inside the rectangle.
        #[test]
        fn clamp_stays_inside(
            px in -2_000_000i64..2_000_000, py in -2_000_000i64..2_000_000,
            w in 1i64..1_000_000, h in 1i64..1_000_000,
        ) {
            let r = Rect::new(Point::new(0, 0), Point::new(w, h));
            let q = r.clamp(Point::new(px, py));
            prop_assert!(r.contains(q));
        }
    }
}
