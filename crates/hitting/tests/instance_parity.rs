//! Differential parity for the instance build and the greedy: the
//! windowed `DiskInstance::new` and the incremental-gain greedy must
//! return what the brute-force `reference` build and the recount greedy
//! return — the same candidates bit for bit, the same hit lists, the
//! inverse of those lists as `hitters`, and the same greedy picks in the
//! same order. The deduplication under the build is checked against the
//! quadratic rule on its own.
//!
//! Inputs: the paper's Fig. 4/5 densities and snapped grids (as in
//! `local_search_parity`), circles through one common point, and all of
//! them translated far from the origin. `SAG_PROP_CASES` raises the case
//! count for the CI soak.

mod common;

use common::{paper_field, snapped_grid};
use sag_geom::point::dedup_points;
use sag_geom::{Circle, Point};
use sag_hitting::greedy::greedy_hitting_set_indices;
use sag_hitting::{reference, DiskInstance};
use sag_testkit::prelude::*;

fn bits(points: &[Point]) -> Vec<(u64, u64)> {
    points
        .iter()
        .map(|p| (p.x.to_bits(), p.y.to_bits()))
        .collect()
}

/// Builds `disks` both ways and asserts every output agrees.
fn assert_instance_parity(disks: Vec<Circle>) {
    let expected = reference::instance(&disks);
    let inst = DiskInstance::new(disks);
    assert_eq!(
        bits(inst.candidates()),
        bits(&expected.candidates),
        "candidates differ on {} disks",
        inst.len()
    );
    let n_cands = inst.candidates().len();
    for c in 0..n_cands {
        assert_eq!(
            inst.hit_by(c),
            expected.hits[c],
            "hit list of candidate {c}"
        );
    }
    for d in 0..inst.len() {
        let hitters: Vec<usize> = (0..n_cands)
            .filter(|&c| expected.hits[c].contains(&d))
            .collect();
        assert_eq!(inst.hitters(d), hitters, "hitters of disk {d}");
    }
    assert_eq!(
        greedy_hitting_set_indices(&inst),
        reference::greedy_indices(&expected.hits, inst.len()),
        "greedy picks differ on {} disks",
        inst.len()
    );
}

/// `disks` moved by `offset` in both coordinates.
fn translated(disks: Vec<Circle>, offset: f64) -> Vec<Circle> {
    disks
        .into_iter()
        .map(|d| {
            Circle::new(
                Point::new(d.center.x + offset, d.center.y + offset),
                d.radius,
            )
        })
        .collect()
}

/// No shift, a moderate one, and ±1e10, where a coordinate divided by
/// the 1e-9 candidate tolerance is beyond the `i64` range.
const OFFSETS: [f64; 4] = [0.0, 1e6, 1e10, -1e10];

/// `n ≥ 3` circles of radius `r` whose centres sit on a circle of radius
/// `r` around `p`, so every circle passes through `p`: each pair's
/// computed crossing near `p` is a slightly different point.
fn through_one_point(p: Point, r: f64, angles: &[f64]) -> Vec<Circle> {
    angles
        .iter()
        .map(|&a| Circle::new(Point::new(p.x + r * a.cos(), p.y + r * a.sin()), r))
        .collect()
}

prop! {
    #[cases(24)]
    fn prop_instance_matches_reference_on_paper_fields(
        seed in 0u64..u64::MAX,
        fig5 in 0usize..2,
        n in 1usize..71,
        shift in 0usize..4
    ) {
        let field = if fig5 == 1 { 800.0 } else { 500.0 };
        assert_instance_parity(translated(paper_field(seed, field, n), OFFSETS[shift]));
    }

    #[cases(32)]
    fn prop_instance_matches_reference_on_snapped_grids(
        seed in 0u64..u64::MAX,
        n in 1usize..25,
        shift in 0usize..4
    ) {
        assert_instance_parity(translated(snapped_grid(seed, n), OFFSETS[shift]));
    }

    #[cases(32)]
    fn prop_instance_matches_reference_on_circles_through_one_point(
        seed in 0u64..u64::MAX,
        n in 3usize..7,
        shift in 0usize..4
    ) {
        let mut rng = Rng::seed_from_u64(seed);
        let p = Point::new(rng.gen_range(-400.0..400.0), rng.gen_range(-400.0..400.0));
        let r = rng.gen_range(5.0..40.0);
        let angles: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..std::f64::consts::TAU)).collect();
        let mut disks = through_one_point(p, r, &angles);
        // A bystander disk over the common point.
        disks.push(Circle::new(p, rng.gen_range(1.0..20.0)));
        assert_instance_parity(translated(disks, OFFSETS[shift]));
    }

    #[cases(48)]
    fn prop_dedup_matches_the_quadratic_rule(
        seed in 0u64..u64::MAX,
        n in 0usize..120,
        far in 0usize..3,
        scale in 0usize..3
    ) {
        let mut rng = Rng::seed_from_u64(seed);
        let tol = [1e-9, 1e-3, 0.5][scale];
        let base = [0.0, 1e10, -1e10][far];
        let mut points: Vec<Point> = Vec::with_capacity(n);
        while points.len() < n {
            match rng.gen_range(0..4) {
                // A fresh point in a box a few tolerances to a few
                // thousand tolerances wide.
                0 => {
                    let w = tol * [4.0, 4e3][rng.gen_range(0usize..2)];
                    points.push(Point::new(base + rng.gen_range(0.0..w), base + rng.gen_range(0.0..w)));
                }
                // An exact duplicate of an earlier point.
                1 if !points.is_empty() => {
                    let q = points[rng.gen_range(0..points.len())];
                    points.push(q);
                }
                // A chain spaced exactly `tol` apart along an axis or a
                // diagonal, from an earlier point.
                2 if !points.is_empty() => {
                    let q = points[rng.gen_range(0..points.len())];
                    let (dx, dy) = [(tol, 0.0), (0.0, tol), (tol / 2f64.sqrt(), tol / 2f64.sqrt())]
                        [rng.gen_range(0usize..3)];
                    for k in 1..=rng.gen_range(1..6) {
                        points.push(Point::new(q.x + k as f64 * dx, q.y + k as f64 * dy));
                    }
                }
                // A point just inside or just outside `tol` of an
                // earlier one.
                _ if !points.is_empty() => {
                    let q = points[rng.gen_range(0..points.len())];
                    let d = tol * [1.0 - 1e-6, 1.0 + 1e-6][rng.gen_range(0usize..2)];
                    let a = rng.gen_range(0.0..std::f64::consts::TAU);
                    points.push(Point::new(q.x + d * a.cos(), q.y + d * a.sin()));
                }
                _ => {}
            }
        }
        points.truncate(n);
        prop_assert_eq!(
            bits(&dedup_points(points.clone(), tol)),
            bits(&reference::dedup_points(points, tol))
        );
    }
}

#[test]
fn three_circles_through_one_point_match_reference() {
    // Unit-spaced centres around the origin: all three circles pass
    // through (0, 0), and their pairwise crossings there are computed by
    // different formulas.
    let angles = [0.0, 2.0, 4.0];
    for offset in OFFSETS {
        for r in [1.0, 30.0, 37.5] {
            assert_instance_parity(translated(
                through_one_point(Point::ORIGIN, r, &angles),
                offset,
            ));
        }
    }
}

#[test]
fn dedup_keeps_non_finite_points() {
    let points = vec![
        Point::new(f64::NAN, 0.0),
        Point::new(f64::NAN, 0.0),
        Point::new(f64::INFINITY, 1.0),
        Point::new(f64::INFINITY, 1.0),
        Point::new(0.0, f64::NEG_INFINITY),
        Point::new(0.0, 0.0),
        Point::new(0.0, 0.0),
    ];
    let kept = dedup_points(points.clone(), 1e-9);
    assert_eq!(bits(&kept), bits(&reference::dedup_points(points, 1e-9)));
    assert_eq!(kept.len(), 6);
}
