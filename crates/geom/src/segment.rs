//! Line segments: the relay links of the steinerized upper tier.
//!
//! Used to validate MBMC chains (hop subdivision), to detect link
//! crossings in topology dumps, and to measure point–link distances for
//! interference diagnostics.

use std::fmt;

use crate::float;
use crate::point::Point;

/// A closed line segment between two points.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    /// Start point.
    pub a: Point,
    /// End point.
    pub b: Point,
}

impl Segment {
    /// Creates a segment.
    ///
    /// # Panics
    /// Panics if either endpoint is not finite.
    pub fn new(a: Point, b: Point) -> Self {
        assert!(
            a.is_finite() && b.is_finite(),
            "segment endpoints must be finite"
        );
        Segment { a, b }
    }

    /// Length of the segment.
    #[inline]
    pub fn length(&self) -> f64 {
        self.a.distance(self.b)
    }

    /// Midpoint.
    #[inline]
    pub fn midpoint(&self) -> Point {
        self.a.midpoint(self.b)
    }

    /// The point at parameter `t ∈ [0, 1]` along the segment (clamped).
    pub fn point_at(&self, t: f64) -> Point {
        self.a.lerp(self.b, float::clamp(t, 0.0, 1.0))
    }

    /// Splits into `n` equal sub-segments, returning the `n − 1` interior
    /// division points — exactly the steinerization rule of MBMC Step 7.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn subdivide(&self, n: usize) -> Vec<Point> {
        assert!(n > 0, "cannot subdivide into zero parts");
        (1..n).map(|k| self.point_at(k as f64 / n as f64)).collect()
    }

    /// The closest point of the segment to `p`.
    pub fn closest_point(&self, p: Point) -> Point {
        let ab = self.b - self.a;
        let len_sq = ab.norm_sq();
        if len_sq <= float::EPS {
            return self.a;
        }
        let t = float::clamp((p - self.a).dot(ab) / len_sq, 0.0, 1.0);
        self.a + ab * t
    }

    /// Distance from `p` to the segment.
    pub fn distance_to_point(&self, p: Point) -> f64 {
        self.closest_point(p).distance(p)
    }

    /// Returns `true` if the two segments intersect (including touching
    /// endpoints and collinear overlap).
    pub fn intersects(&self, other: &Segment) -> bool {
        let d1 = (self.b - self.a).cross(other.a - self.a);
        let d2 = (self.b - self.a).cross(other.b - self.a);
        let d3 = (other.b - other.a).cross(self.a - other.a);
        let d4 = (other.b - other.a).cross(self.b - other.a);
        if ((d1 > float::EPS && d2 < -float::EPS) || (d1 < -float::EPS && d2 > float::EPS))
            && ((d3 > float::EPS && d4 < -float::EPS) || (d3 < -float::EPS && d4 > float::EPS))
        {
            return true;
        }
        // Collinear / touching cases.
        let on = |s: &Segment, p: Point| -> bool {
            (s.b - s.a).cross(p - s.a).abs() <= 1e-6 && s.distance_to_point(p) <= 1e-6
        };
        on(self, other.a) || on(self, other.b) || on(other, self.a) || on(other, self.b)
    }
}

impl fmt::Display for Segment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{} — {}]", self.a, self.b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sag_testkit::prelude::*;

    fn seg(ax: f64, ay: f64, bx: f64, by: f64) -> Segment {
        Segment::new(Point::new(ax, ay), Point::new(bx, by))
    }

    #[test]
    fn length_and_midpoint() {
        let s = seg(0.0, 0.0, 3.0, 4.0);
        assert_eq!(s.length(), 5.0);
        assert!(s.midpoint().approx_eq(Point::new(1.5, 2.0)));
    }

    #[test]
    fn subdivision_matches_steinerization() {
        let s = seg(0.0, 0.0, 100.0, 0.0);
        let pts = s.subdivide(4);
        assert_eq!(pts.len(), 3);
        assert!(pts[0].approx_eq(Point::new(25.0, 0.0)));
        assert!(pts[2].approx_eq(Point::new(75.0, 0.0)));
        assert!(s.subdivide(1).is_empty());
    }

    #[test]
    fn closest_point_cases() {
        let s = seg(0.0, 0.0, 10.0, 0.0);
        // Interior projection.
        assert!(s
            .closest_point(Point::new(5.0, 3.0))
            .approx_eq(Point::new(5.0, 0.0)));
        // Clamped to endpoints.
        assert!(s
            .closest_point(Point::new(-4.0, 3.0))
            .approx_eq(Point::new(0.0, 0.0)));
        assert!(s
            .closest_point(Point::new(14.0, -3.0))
            .approx_eq(Point::new(10.0, 0.0)));
        assert_eq!(s.distance_to_point(Point::new(5.0, 3.0)), 3.0);
        // Degenerate segment.
        let d = seg(1.0, 1.0, 1.0, 1.0);
        assert!(d
            .closest_point(Point::new(5.0, 5.0))
            .approx_eq(Point::new(1.0, 1.0)));
    }

    #[test]
    fn crossing_segments() {
        assert!(seg(0.0, 0.0, 2.0, 2.0).intersects(&seg(0.0, 2.0, 2.0, 0.0)));
        assert!(!seg(0.0, 0.0, 1.0, 0.0).intersects(&seg(0.0, 1.0, 1.0, 1.0)));
    }

    #[test]
    fn touching_and_collinear() {
        // Shared endpoint.
        assert!(seg(0.0, 0.0, 1.0, 0.0).intersects(&seg(1.0, 0.0, 2.0, 1.0)));
        // Collinear overlap.
        assert!(seg(0.0, 0.0, 2.0, 0.0).intersects(&seg(1.0, 0.0, 3.0, 0.0)));
        // Collinear disjoint.
        assert!(!seg(0.0, 0.0, 1.0, 0.0).intersects(&seg(2.0, 0.0, 3.0, 0.0)));
        // T-junction.
        assert!(seg(0.0, 0.0, 2.0, 0.0).intersects(&seg(1.0, -1.0, 1.0, 0.0)));
    }

    prop! {
        fn prop_point_at_on_segment(ax in -50.0..50.0f64, ay in -50.0..50.0f64,
                                    bx in -50.0..50.0f64, by in -50.0..50.0f64,
                                    t in 0.0..1.0f64) {
            let s = seg(ax, ay, bx, by);
            let p = s.point_at(t);
            prop_assert!(s.distance_to_point(p) < 1e-9);
        }

        fn prop_subdivide_even_spacing(n in 1usize..12) {
            let s = seg(0.0, 0.0, 60.0, 0.0);
            let pts = s.subdivide(n);
            prop_assert_eq!(pts.len(), n - 1);
            let mut prev = s.a;
            let hop = s.length() / n as f64;
            for p in pts.iter().copied().chain(std::iter::once(s.b)) {
                prop_assert!((prev.distance(p) - hop).abs() < 1e-9);
                prev = p;
            }
        }

        fn prop_closest_point_is_closest(ax in -20.0..20.0f64, ay in -20.0..20.0f64,
                                         bx in -20.0..20.0f64, by in -20.0..20.0f64,
                                         px in -30.0..30.0f64, py in -30.0..30.0f64,
                                         t in 0.0..1.0f64) {
            let s = seg(ax, ay, bx, by);
            let p = Point::new(px, py);
            let best = s.distance_to_point(p);
            prop_assert!(best <= s.point_at(t).distance(p) + 1e-9);
        }
    }
}
