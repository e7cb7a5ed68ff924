//! Axis-aligned rectangles (the playing field).

use std::fmt;

use crate::float;
use crate::point::Point;

/// A closed axis-aligned rectangle.
///
/// The paper's playing fields are squares centred at the origin
/// (`300×300`, `500×500`, `800×800`); [`Rect::centered_square`] builds
/// those directly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rect {
    min: Point,
    max: Point,
}

impl Rect {
    /// Creates a rectangle from two opposite corners (any order).
    pub fn from_corners(a: Point, b: Point) -> Self {
        Rect {
            min: Point::new(a.x.min(b.x), a.y.min(b.y)),
            max: Point::new(a.x.max(b.x), a.y.max(b.y)),
        }
    }

    /// A square of side `side` centred at the origin.
    ///
    /// # Panics
    /// Panics if `side` is negative or not finite.
    pub fn centered_square(side: f64) -> Self {
        assert!(
            side.is_finite() && side >= 0.0,
            "side must be ≥ 0, got {side}"
        );
        let h = side / 2.0;
        Rect::from_corners(Point::new(-h, -h), Point::new(h, h))
    }

    /// Lower-left corner.
    #[inline]
    pub fn min(&self) -> Point {
        self.min
    }

    /// Upper-right corner.
    #[inline]
    pub fn max(&self) -> Point {
        self.max
    }

    /// Width (x-extent).
    #[inline]
    pub fn width(&self) -> f64 {
        self.max.x - self.min.x
    }

    /// Height (y-extent).
    #[inline]
    pub fn height(&self) -> f64 {
        self.max.y - self.min.y
    }

    /// Centre point.
    #[inline]
    pub fn center(&self) -> Point {
        self.min.midpoint(self.max)
    }

    /// Area.
    #[inline]
    pub fn area(&self) -> f64 {
        self.width() * self.height()
    }

    /// Returns `true` if `p` lies in the closed rectangle (with tolerance).
    #[inline]
    pub fn contains(&self, p: Point) -> bool {
        float::geq(p.x, self.min.x)
            && float::leq(p.x, self.max.x)
            && float::geq(p.y, self.min.y)
            && float::leq(p.y, self.max.y)
    }

    /// Clamps `p` into the rectangle.
    #[inline]
    pub fn clamp(&self, p: Point) -> Point {
        Point::new(
            float::clamp(p.x, self.min.x, self.max.x),
            float::clamp(p.y, self.min.y, self.max.y),
        )
    }

    /// Grows the rectangle by `margin` on every side (shrinks if negative).
    ///
    /// # Panics
    /// Panics if shrinking past a degenerate rectangle.
    pub fn inflate(&self, margin: f64) -> Rect {
        let r = Rect {
            min: Point::new(self.min.x - margin, self.min.y - margin),
            max: Point::new(self.max.x + margin, self.max.y + margin),
        };
        assert!(
            r.min.x <= r.max.x && r.min.y <= r.max.y,
            "inflate shrank rect below zero size"
        );
        r
    }

    /// The four corner points in counter-clockwise order starting at `min`.
    pub fn corners(&self) -> [Point; 4] {
        [
            self.min,
            Point::new(self.max.x, self.min.y),
            self.max,
            Point::new(self.min.x, self.max.y),
        ]
    }
}

impl fmt::Display for Rect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Rect[{} .. {}]", self.min, self.max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sag_testkit::prelude::*;

    #[test]
    fn corners_normalised() {
        let r = Rect::from_corners(Point::new(3.0, -1.0), Point::new(-2.0, 5.0));
        assert_eq!(r.min(), Point::new(-2.0, -1.0));
        assert_eq!(r.max(), Point::new(3.0, 5.0));
        assert_eq!(r.width(), 5.0);
        assert_eq!(r.height(), 6.0);
        assert_eq!(r.area(), 30.0);
    }

    #[test]
    fn centered_square_is_symmetric() {
        let r = Rect::centered_square(500.0);
        assert_eq!(r.min(), Point::new(-250.0, -250.0));
        assert_eq!(r.max(), Point::new(250.0, 250.0));
        assert!(r.center().approx_eq(Point::ORIGIN));
    }

    #[test]
    fn contains_and_clamp() {
        let r = Rect::centered_square(10.0);
        assert!(r.contains(Point::ORIGIN));
        assert!(r.contains(Point::new(5.0, 5.0)));
        assert!(!r.contains(Point::new(5.1, 0.0)));
        assert_eq!(r.clamp(Point::new(100.0, -100.0)), Point::new(5.0, -5.0));
        let inside = Point::new(1.0, 2.0);
        assert_eq!(r.clamp(inside), inside);
    }

    #[test]
    fn inflate_grows() {
        let r = Rect::centered_square(10.0).inflate(2.0);
        assert_eq!(r.width(), 14.0);
        let s = r.inflate(-2.0);
        assert_eq!(s.width(), 10.0);
    }

    #[test]
    fn corners_are_contained() {
        let r = Rect::centered_square(8.0);
        for c in r.corners() {
            assert!(r.contains(c));
        }
    }

    #[test]
    #[should_panic]
    fn negative_square_panics() {
        Rect::centered_square(-1.0);
    }

    prop! {
        fn prop_clamp_is_inside(
            ax in -100.0..100.0f64, ay in -100.0..100.0f64,
            bx in -100.0..100.0f64, by in -100.0..100.0f64,
            px in -1e3..1e3f64, py in -1e3..1e3f64,
        ) {
            let r = Rect::from_corners(Point::new(ax, ay), Point::new(bx, by));
            prop_assert!(r.contains(r.clamp(Point::new(px, py))));
        }

        fn prop_clamp_identity_inside(side in 1.0..500.0f64, t in 0.0..1.0f64, u in 0.0..1.0f64) {
            let r = Rect::centered_square(side);
            let p = Point::new(
                r.min().x + t * r.width(),
                r.min().y + u * r.height(),
            );
            prop_assert!(r.clamp(p).approx_eq(p));
        }
    }
}
