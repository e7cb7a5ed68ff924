//! Sampling positions along circles.
//!
//! [`sample_circle`] discretises a circle into a finite, uniformly spaced
//! point sequence. Its one caller is `sag_core::kcover`, which samples a
//! half-radius ring inside every subscriber's feasible disk so that the
//! k-coverage extension has `k` distinct in-disk candidates. *RS Sliding
//! Movement* (Algorithm 4) does not sample circles: `sag_core::sliding`
//! moves a relay to a witness point of its subscribers' common area,
//! found by [`crate::disks`].

use crate::circle::Circle;
use crate::point::Point;

/// Uniformly samples `n` points on the full circle, starting at angle
/// `phase` radians.
///
/// Returns an empty vector for `n == 0`; a single sample sits at `phase`.
///
/// # Example
/// ```
/// use sag_geom::{arc, Circle, Point};
/// let c = Circle::new(Point::ORIGIN, 2.0);
/// let pts = arc::sample_circle(&c, 8, 0.0);
/// assert_eq!(pts.len(), 8);
/// assert!(pts.iter().all(|p| c.on_boundary(*p)));
/// ```
pub fn sample_circle(circle: &Circle, n: usize, phase: f64) -> Vec<Point> {
    let step = std::f64::consts::TAU / n.max(1) as f64;
    (0..n)
        .map(|k| circle.point_at(phase + k as f64 * step))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sag_testkit::prelude::*;

    fn c(r: f64) -> Circle {
        Circle::new(Point::new(1.0, -2.0), r)
    }

    #[test]
    fn sample_circle_counts_and_boundary() {
        let circle = c(5.0);
        for n in [0usize, 1, 2, 7, 64] {
            let pts = sample_circle(&circle, n, 0.3);
            assert_eq!(pts.len(), n);
            assert!(pts.iter().all(|p| circle.on_boundary(*p)));
        }
    }

    #[test]
    fn sample_circle_is_uniform() {
        let circle = c(2.0);
        let pts = sample_circle(&circle, 4, 0.0);
        // Consecutive points are a quarter-turn apart.
        for i in 0..4 {
            let a = pts[i];
            let b = pts[(i + 1) % 4];
            assert!(
                (a.distance(b)
                    - 2.0 * 2.0_f64.sqrt() * 2.0 / 2.0_f64.sqrt() / 2.0 * 2.0_f64.sqrt())
                .abs()
                    < 1.0
            );
            // chord of 90° on radius 2 = 2*sqrt(2)
            assert!((a.distance(b) - 2.0 * (2.0_f64).sqrt()).abs() < 1e-9);
        }
    }

    prop! {
        fn prop_samples_on_boundary(r in 0.5..60.0f64, n in 1usize..40, phase in -6.3..6.3f64) {
            let circle = Circle::new(Point::new(-3.0, 7.0), r);
            for p in sample_circle(&circle, n, phase) {
                prop_assert!(circle.on_boundary(p));
            }
        }
    }
}
