//! Circles and circle–circle intersections.
//!
//! Every subscriber station `s_i` in the paper induces a *feasible coverage
//! circle* `c_i` of radius `d_i` (its capacity-derived distance request)
//! centred at its location. The *IAC* candidate construction collects the
//! pairwise intersection points of these circles; *RS Sliding Movement*
//! slides relay positions along them.

use std::fmt;

use crate::float;
use crate::point::{Point, Vec2};

/// A circle (and, in predicates, the closed disk it bounds).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Circle {
    /// Centre point.
    pub center: Point,
    /// Radius; must be non-negative and finite.
    pub radius: f64,
}

/// Classification of the relative position of two circles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CircleRelation {
    /// The circles are identical (same centre & radius up to tolerance).
    Coincident,
    /// The closed disks are disjoint (no common point).
    Disjoint,
    /// One disk lies strictly inside the other without touching.
    Nested,
    /// The circles touch at exactly one point.
    Tangent,
    /// The circles cross at two points.
    Crossing,
}

impl Circle {
    /// Creates a circle.
    ///
    /// # Panics
    /// Panics if `radius` is negative or not finite, or the centre is not
    /// finite: such circles indicate a modelling bug upstream.
    pub fn new(center: Point, radius: f64) -> Self {
        assert!(
            radius.is_finite() && radius >= 0.0,
            "circle radius must be finite and non-negative, got {radius}"
        );
        assert!(center.is_finite(), "circle centre must be finite");
        Circle { center, radius }
    }

    /// Returns `true` if `p` lies in the closed disk (with tolerance).
    #[inline]
    pub fn contains(&self, p: Point) -> bool {
        float::leq(self.center.distance(p), self.radius)
    }

    /// Returns `true` if `p` lies on the circle boundary (with tolerance).
    ///
    /// Uses a larger tolerance (`1e-6`) than the generic [`float::EPS`]
    /// because boundary points are produced by trigonometric constructions.
    #[inline]
    pub fn on_boundary(&self, p: Point) -> bool {
        float::approx_eq_eps(self.center.distance(p), self.radius, 1e-6)
    }

    /// The point on the circle at angle `theta` radians.
    #[inline]
    pub fn point_at(&self, theta: f64) -> Point {
        self.center + Vec2::from_angle(theta) * self.radius
    }

    /// Area of the disk.
    #[inline]
    pub fn area(&self) -> f64 {
        std::f64::consts::PI * self.radius * self.radius
    }

    /// Classifies the relative position of `self` and `other`.
    pub fn relation(&self, other: &Circle) -> CircleRelation {
        let d = self.center.distance(other.center);
        let rsum = self.radius + other.radius;
        let rdiff = (self.radius - other.radius).abs();
        if float::approx_eq_eps(d, 0.0, 1e-9) && float::approx_eq_eps(rdiff, 0.0, 1e-9) {
            CircleRelation::Coincident
        } else if float::gt(d, rsum) {
            CircleRelation::Disjoint
        } else if float::approx_eq_eps(d, rsum, float::EPS) {
            CircleRelation::Tangent
        } else if float::lt(d, rdiff) {
            CircleRelation::Nested
        } else if float::approx_eq_eps(d, rdiff, float::EPS) {
            CircleRelation::Tangent
        } else {
            CircleRelation::Crossing
        }
    }

    /// Intersection points of the two circle *boundaries*.
    ///
    /// Returns zero points for disjoint, nested or coincident circles, one
    /// point for tangency, two for a proper crossing. The IAC candidate
    /// generator calls this for every pair of subscriber circles.
    ///
    /// # Example
    /// ```
    /// use sag_geom::{Circle, Point};
    /// let a = Circle::new(Point::new(0.0, 0.0), 1.0);
    /// let b = Circle::new(Point::new(1.0, 0.0), 1.0);
    /// assert_eq!(a.intersection_points(&b).len(), 2);
    /// ```
    pub fn intersection_points(&self, other: &Circle) -> Vec<Point> {
        match self.relation(other) {
            CircleRelation::Disjoint | CircleRelation::Nested | CircleRelation::Coincident => {
                Vec::new()
            }
            CircleRelation::Tangent => {
                let d = self.center.distance(other.center);
                if float::approx_eq_eps(d, 0.0, float::EPS) {
                    // Internally tangent with coincident centres cannot
                    // happen for distinct radii; guard anyway.
                    return Vec::new();
                }
                let dir = (other.center - self.center) / d;
                // External tangency: point between centres. Internal
                // tangency: when this circle is the larger one the touch
                // point is still ahead along `dir`; when it is the
                // smaller one, it sits on the far side.
                let external = float::approx_eq_eps(d, self.radius + other.radius, 1e-7);
                if external || self.radius >= other.radius {
                    vec![self.center + dir * self.radius]
                } else {
                    vec![self.center - dir * self.radius]
                }
            }
            CircleRelation::Crossing => {
                let d = self.center.distance(other.center);
                let r0 = self.radius;
                let r1 = other.radius;
                // Distance from self.center to the radical line along the
                // centre axis.
                let a = (d * d + r0 * r0 - r1 * r1) / (2.0 * d);
                let h_sq = r0 * r0 - a * a;
                let h = h_sq.max(0.0).sqrt();
                let dir = (other.center - self.center) / d;
                let mid = self.center + dir * a;
                let off = dir.perp() * h;
                vec![mid + off, mid - off]
            }
        }
    }
}

impl fmt::Display for Circle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Circle(c={}, r={:.3})", self.center, self.radius)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sag_testkit::prelude::*;

    fn c(x: f64, y: f64, r: f64) -> Circle {
        Circle::new(Point::new(x, y), r)
    }

    #[test]
    fn relation_classification() {
        assert_eq!(
            c(0.0, 0.0, 1.0).relation(&c(3.0, 0.0, 1.0)),
            CircleRelation::Disjoint
        );
        assert_eq!(
            c(0.0, 0.0, 1.0).relation(&c(2.0, 0.0, 1.0)),
            CircleRelation::Tangent
        );
        assert_eq!(
            c(0.0, 0.0, 1.0).relation(&c(1.0, 0.0, 1.0)),
            CircleRelation::Crossing
        );
        assert_eq!(
            c(0.0, 0.0, 3.0).relation(&c(0.5, 0.0, 1.0)),
            CircleRelation::Nested
        );
        assert_eq!(
            c(0.0, 0.0, 1.0).relation(&c(0.0, 0.0, 1.0)),
            CircleRelation::Coincident
        );
        // Internal tangency
        assert_eq!(
            c(0.0, 0.0, 2.0).relation(&c(1.0, 0.0, 1.0)),
            CircleRelation::Tangent
        );
    }

    #[test]
    fn crossing_intersection_points_lie_on_both() {
        let a = c(0.0, 0.0, 5.0);
        let b = c(6.0, 0.0, 5.0);
        let pts = a.intersection_points(&b);
        assert_eq!(pts.len(), 2);
        for p in pts {
            assert!(a.on_boundary(p), "{p} not on a");
            assert!(b.on_boundary(p), "{p} not on b");
        }
    }

    #[test]
    fn tangent_intersection_single_point() {
        let a = c(0.0, 0.0, 1.0);
        let b = c(2.0, 0.0, 1.0);
        let pts = a.intersection_points(&b);
        assert_eq!(pts.len(), 1);
        assert!(pts[0].approx_eq(Point::new(1.0, 0.0)));
    }

    #[test]
    fn disjoint_and_nested_have_no_points() {
        assert!(c(0.0, 0.0, 1.0)
            .intersection_points(&c(5.0, 0.0, 1.0))
            .is_empty());
        assert!(c(0.0, 0.0, 5.0)
            .intersection_points(&c(0.5, 0.0, 1.0))
            .is_empty());
        assert!(c(0.0, 0.0, 1.0)
            .intersection_points(&c(0.0, 0.0, 1.0))
            .is_empty());
    }

    #[test]
    fn contains_and_boundary() {
        let a = c(0.0, 0.0, 2.0);
        assert!(a.contains(Point::new(1.0, 1.0)));
        assert!(a.contains(Point::new(2.0, 0.0)));
        assert!(!a.contains(Point::new(2.1, 0.0)));
        assert!(a.on_boundary(Point::new(0.0, 2.0)));
    }

    #[test]
    fn point_at_is_on_boundary() {
        let a = c(3.0, -1.0, 7.0);
        for k in 0..16 {
            let p = a.point_at(k as f64 * 0.5);
            assert!(a.on_boundary(p));
        }
    }

    #[test]
    #[should_panic]
    fn negative_radius_panics() {
        Circle::new(Point::ORIGIN, -1.0);
    }

    prop! {
        fn prop_intersections_on_both_boundaries(
            ax in -100.0..100.0f64, ay in -100.0..100.0f64, ar in 1.0..50.0f64,
            bx in -100.0..100.0f64, by in -100.0..100.0f64, br in 1.0..50.0f64,
        ) {
            let a = c(ax, ay, ar);
            let b = c(bx, by, br);
            for p in a.intersection_points(&b) {
                prop_assert!(float::approx_eq_eps(a.center.distance(p), ar, 1e-6));
                prop_assert!(float::approx_eq_eps(b.center.distance(p), br, 1e-6));
            }
        }

        fn prop_point_at_round_trip(theta in -6.3..6.3f64, r in 0.5..40.0f64) {
            let a = c(1.0, 2.0, r);
            let p = a.point_at(theta);
            prop_assert!(float::approx_eq_eps(a.center.distance(p), r, 1e-9));
        }
    }
}
