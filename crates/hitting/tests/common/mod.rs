//! Disk families shared by the parity suites.

use sag_geom::{Circle, Point};
use sag_testkit::prelude::*;

/// `n` disks at Fig. 4/5 density: centres uniform on a `field`-sided
/// square, radii U[30, 40] (the paper's distance requirements).
pub fn paper_field(seed: u64, field: f64, n: usize) -> Vec<Circle> {
    let mut rng = Rng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let centre = Point::new(rng.gen_range(0.0..field), rng.gen_range(0.0..field));
            Circle::new(centre, rng.gen_range(30.0..40.0))
        })
        .collect()
}

/// `n` disks snapped to a 10-unit lattice in a 120×120 box with radii
/// in {10, 20, 30}: centres coincide, lattice distances equal radius
/// sums and differences (tangent disks), and equal-centre disks nest.
pub fn snapped_grid(seed: u64, n: usize) -> Vec<Circle> {
    let mut rng = Rng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let centre = Point::new(
                10.0 * rng.gen_range(0..13) as f64,
                10.0 * rng.gen_range(0..13) as f64,
            );
            Circle::new(centre, 10.0 * rng.gen_range(1..4) as f64)
        })
        .collect()
}
