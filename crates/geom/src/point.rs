//! Planar points and displacement vectors.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

use crate::float;

/// A point in the plane.
///
/// Stations (subscribers, relays, base stations) are located at `Point`s.
/// `Point - Point` yields a [`Vec2`]; `Point + Vec2` yields a `Point`.
///
/// # Example
/// ```
/// use sag_geom::{Point, Vec2};
/// let p = Point::new(1.0, 2.0);
/// let q = p + Vec2::new(3.0, 4.0);
/// assert_eq!(p.distance(q), 5.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point {
    /// Horizontal coordinate.
    pub x: f64,
    /// Vertical coordinate.
    pub y: f64,
}

/// A displacement vector in the plane.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec2 {
    /// Horizontal component.
    pub x: f64,
    /// Vertical component.
    pub y: f64,
}

impl Point {
    /// The origin `(0, 0)`.
    pub const ORIGIN: Point = Point { x: 0.0, y: 0.0 };

    /// Creates a point from coordinates.
    #[inline]
    pub const fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// Euclidean distance to `other`.
    #[inline]
    pub fn distance(self, other: Point) -> f64 {
        (self - other).norm()
    }

    /// Midpoint of the segment `self`–`other`.
    #[inline]
    pub fn midpoint(self, other: Point) -> Point {
        Point::new((self.x + other.x) / 2.0, (self.y + other.y) / 2.0)
    }

    /// Linear interpolation: returns `self` when `t = 0`, `other` when
    /// `t = 1`. `t` outside `[0, 1]` extrapolates.
    #[inline]
    pub fn lerp(self, other: Point, t: f64) -> Point {
        self + (other - self) * t
    }

    /// Returns `true` if the two points coincide up to the crate tolerance.
    #[inline]
    pub fn approx_eq(self, other: Point) -> bool {
        float::approx_eq(self.x, other.x) && float::approx_eq(self.y, other.y)
    }

    /// Both coordinates are finite (not NaN / infinite).
    #[inline]
    pub fn is_finite(self) -> bool {
        self.x.is_finite() && self.y.is_finite()
    }

    /// Converts to a displacement vector from the origin.
    #[inline]
    pub fn to_vec(self) -> Vec2 {
        Vec2::new(self.x, self.y)
    }
}

impl Vec2 {
    /// The zero vector.
    pub const ZERO: Vec2 = Vec2 { x: 0.0, y: 0.0 };

    /// Creates a vector from components.
    #[inline]
    pub const fn new(x: f64, y: f64) -> Self {
        Vec2 { x, y }
    }

    /// Unit vector at angle `theta` radians from the positive x-axis.
    #[inline]
    pub fn from_angle(theta: f64) -> Self {
        Vec2::new(theta.cos(), theta.sin())
    }

    /// Euclidean norm.
    #[inline]
    pub fn norm(self) -> f64 {
        self.norm_sq().sqrt()
    }

    /// Squared norm.
    #[inline]
    pub fn norm_sq(self) -> f64 {
        self.x * self.x + self.y * self.y
    }

    /// Dot product.
    #[inline]
    pub fn dot(self, other: Vec2) -> f64 {
        self.x * other.x + self.y * other.y
    }

    /// 2-D cross product (z-component of the 3-D cross product).
    #[inline]
    pub fn cross(self, other: Vec2) -> f64 {
        self.x * other.y - self.y * other.x
    }

    /// The angle of this vector in radians, in `(-pi, pi]`.
    #[inline]
    pub fn angle(self) -> f64 {
        self.y.atan2(self.x)
    }

    /// The perpendicular vector rotated +90 degrees.
    #[inline]
    pub fn perp(self) -> Vec2 {
        Vec2::new(-self.y, self.x)
    }
}

impl Sub for Point {
    type Output = Vec2;
    #[inline]
    fn sub(self, rhs: Point) -> Vec2 {
        Vec2::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl Add<Vec2> for Point {
    type Output = Point;
    #[inline]
    fn add(self, rhs: Vec2) -> Point {
        Point::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl Sub<Vec2> for Point {
    type Output = Point;
    #[inline]
    fn sub(self, rhs: Vec2) -> Point {
        Point::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl AddAssign<Vec2> for Point {
    #[inline]
    fn add_assign(&mut self, rhs: Vec2) {
        self.x += rhs.x;
        self.y += rhs.y;
    }
}

impl SubAssign<Vec2> for Point {
    #[inline]
    fn sub_assign(&mut self, rhs: Vec2) {
        self.x -= rhs.x;
        self.y -= rhs.y;
    }
}

impl Add for Vec2 {
    type Output = Vec2;
    #[inline]
    fn add(self, rhs: Vec2) -> Vec2 {
        Vec2::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl Sub for Vec2 {
    type Output = Vec2;
    #[inline]
    fn sub(self, rhs: Vec2) -> Vec2 {
        Vec2::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl Neg for Vec2 {
    type Output = Vec2;
    #[inline]
    fn neg(self) -> Vec2 {
        Vec2::new(-self.x, -self.y)
    }
}

impl Mul<f64> for Vec2 {
    type Output = Vec2;
    #[inline]
    fn mul(self, rhs: f64) -> Vec2 {
        Vec2::new(self.x * rhs, self.y * rhs)
    }
}

impl Div<f64> for Vec2 {
    type Output = Vec2;
    #[inline]
    fn div(self, rhs: f64) -> Vec2 {
        Vec2::new(self.x / rhs, self.y / rhs)
    }
}

impl From<(f64, f64)> for Point {
    #[inline]
    fn from((x, y): (f64, f64)) -> Self {
        Point::new(x, y)
    }
}

impl From<Point> for (f64, f64) {
    #[inline]
    fn from(p: Point) -> Self {
        (p.x, p.y)
    }
}

impl From<(f64, f64)> for Vec2 {
    #[inline]
    fn from((x, y): (f64, f64)) -> Self {
        Vec2::new(x, y)
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.3}, {:.3})", self.x, self.y)
    }
}

impl fmt::Display for Vec2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<{:.3}, {:.3}>", self.x, self.y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sag_testkit::prelude::*;

    #[test]
    fn distance_is_euclidean() {
        let p = Point::new(0.0, 0.0);
        let q = Point::new(3.0, 4.0);
        assert_eq!(p.distance(q), 5.0);
    }

    #[test]
    fn midpoint_and_lerp_agree() {
        let p = Point::new(-2.0, 0.0);
        let q = Point::new(4.0, 6.0);
        assert!(p.midpoint(q).approx_eq(p.lerp(q, 0.5)));
        assert!(p.lerp(q, 0.0).approx_eq(p));
        assert!(p.lerp(q, 1.0).approx_eq(q));
    }

    #[test]
    fn vector_algebra() {
        let a = Vec2::new(1.0, 2.0);
        let b = Vec2::new(3.0, -1.0);
        assert_eq!(a.dot(b), 1.0);
        assert_eq!(a.cross(b), -7.0);
        assert_eq!((a + b).x, 4.0);
        assert_eq!((a - b).y, 3.0);
        assert_eq!((-a).x, -1.0);
        assert_eq!((a * 2.0).y, 4.0);
        assert_eq!((a / 2.0).x, 0.5);
    }

    #[test]
    fn rotate_quarter_turn() {
        assert_eq!(Vec2::new(1.0, 0.0).perp(), Vec2::new(0.0, 1.0));
    }

    #[test]
    fn from_angle_is_unit() {
        for k in 0..8 {
            let v = Vec2::from_angle(k as f64 * 0.7);
            assert!((v.norm() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn conversions_roundtrip() {
        let p: Point = (1.5, -2.5).into();
        let t: (f64, f64) = p.into();
        assert_eq!(t, (1.5, -2.5));
        assert_eq!(p.to_vec(), Vec2::new(1.5, -2.5));
    }

    #[test]
    fn display_nonempty() {
        assert!(!format!("{}", Point::ORIGIN).is_empty());
        assert!(!format!("{}", Vec2::ZERO).is_empty());
    }

    prop! {
        fn distance_symmetric(ax in -1e3..1e3f64, ay in -1e3..1e3f64,
                              bx in -1e3..1e3f64, by in -1e3..1e3f64) {
            let a = Point::new(ax, ay);
            let b = Point::new(bx, by);
            prop_assert!((a.distance(b) - b.distance(a)).abs() < 1e-9);
        }

        fn triangle_inequality(ax in -1e3..1e3f64, ay in -1e3..1e3f64,
                               bx in -1e3..1e3f64, by in -1e3..1e3f64,
                               cx in -1e3..1e3f64, cy in -1e3..1e3f64) {
            let a = Point::new(ax, ay);
            let b = Point::new(bx, by);
            let c = Point::new(cx, cy);
            prop_assert!(a.distance(c) <= a.distance(b) + b.distance(c) + 1e-9);
        }

        fn lerp_endpoints(ax in -1e3..1e3f64, ay in -1e3..1e3f64,
                          bx in -1e3..1e3f64, by in -1e3..1e3f64) {
            let a = Point::new(ax, ay);
            let b = Point::new(bx, by);
            prop_assert!(a.lerp(b, 0.0).approx_eq(a));
            prop_assert!(a.lerp(b, 1.0).distance(b) < 1e-9);
        }
    }
}

/// Deduplicates points closer than `tol`, preserving first-seen order.
///
/// The rule is sequential: a point is dropped when an earlier *kept*
/// point lies at [`Point::distance`] `< tol` from it, and kept
/// otherwise, so two points `tol` or more apart are both kept. Points
/// with a non-finite coordinate are never within `tol` of anything and
/// are always kept.
///
/// Each point is compared only with the points whose x-coordinates lie
/// within `tol` of its own, found in an x-sorted order. That window
/// loses no pair: the computed distance is never below the computed
/// `|Δx|`, because in binary floating point `sqrt(Δx * Δx)` rounds back
/// to `|Δx|` unless the square underflows, and no `|Δx| ≥ tol` squares
/// to a subnormal at the tolerances allowed here. The cost is one sort
/// plus the comparisons inside the windows.
///
/// # Panics
/// Panics unless `tol` is finite and its square is a normal `f64`
/// (`tol ≥ 2^-511` ≈ 1.5e-154).
pub fn dedup_points(points: Vec<Point>, tol: f64) -> Vec<Point> {
    assert!(
        tol.is_finite() && tol * tol >= f64::MIN_POSITIVE,
        "tolerance must be finite with a normal square, got {tol}"
    );
    let n = points.len();
    let mut order: Vec<(f64, usize)> = points.iter().map(|p| p.x).zip(0..).collect();
    order.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
    let mut rank = vec![0; n];
    for (r, &(_, i)) in order.iter().enumerate() {
        rank[i] = r;
    }
    let mut kept = vec![false; n];
    for (i, &p) in points.iter().enumerate() {
        let near = |&(_, j): &(f64, usize)| j < i && kept[j] && points[j].distance(p) < tol;
        let (left, right) = order.split_at(rank[i]);
        let duplicate = right[1..]
            .iter()
            .take_while(|&&(x, _)| x - p.x < tol)
            .any(near)
            || left
                .iter()
                .rev()
                .take_while(|&&(x, _)| p.x - x < tol)
                .any(near);
        kept[i] = !duplicate;
    }
    points
        .into_iter()
        .zip(kept)
        .filter_map(|(p, keep)| keep.then_some(p))
        .collect()
}

#[cfg(test)]
mod dedup_tests {
    use super::*;
    use sag_testkit::prelude::*;

    #[test]
    fn exact_duplicates_removed() {
        let pts = vec![
            Point::new(0.0, 0.0),
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(0.0, 1e-12),
        ];
        let out = dedup_points(pts, 1e-9);
        assert_eq!(out.len(), 2);
        assert!(out[0].approx_eq(Point::ORIGIN));
    }

    #[test]
    fn order_preserved() {
        let pts = vec![
            Point::new(5.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(5.0, 0.0),
        ];
        let out = dedup_points(pts, 1e-9);
        assert_eq!(out, vec![Point::new(5.0, 0.0), Point::new(1.0, 0.0)]);
    }

    #[test]
    fn distant_points_all_kept() {
        let pts: Vec<Point> = (0..100)
            .map(|k| Point::new(k as f64, -(k as f64)))
            .collect();
        assert_eq!(dedup_points(pts, 1e-9).len(), 100);
    }

    #[test]
    #[should_panic]
    fn zero_tolerance_panics() {
        dedup_points(vec![], 0.0);
    }

    prop! {
        fn prop_no_close_pairs_survive(seed in 0u64..200) {
            let mut rng = Rng::seed_from_u64(seed);
            let pts: Vec<Point> = (0..60)
                .map(|_| Point::new(rng.gen_range(-5.0..5.0), rng.gen_range(-5.0..5.0)))
                .collect();
            let out = dedup_points(pts.clone(), 1e-3);
            // Survivors are pairwise at least tol apart…
            for i in 0..out.len() {
                for j in i + 1..out.len() {
                    prop_assert!(out[i].distance(out[j]) >= 1e-3 - 1e-12);
                }
            }
            // And every input point is within tol of some survivor.
            for p in &pts {
                prop_assert!(out.iter().any(|q| q.distance(*p) < 1e-3 + 1e-12));
            }
        }
    }
}
