//! A uniform-grid spatial index for radius and nearest-neighbour queries.
//!
//! Zone partitioning and interference scans repeatedly ask "which stations
//! lie within distance `d` of this point?"; a uniform grid of buckets makes
//! those queries `O(points in range)` instead of `O(n)`. The buckets tile
//! the points' bounding box densely and are stored in CSR form (an offset
//! array and an index array), so finding a bucket is two array reads.

use crate::float;
use crate::point::Point;

/// A spatial index over a fixed set of points.
///
/// Build once with [`SpatialHash::build`], then query. Indices returned by
/// queries refer to the original input slice order.
///
/// # Example
/// ```
/// use sag_geom::{Point, SpatialHash};
/// let pts = vec![Point::new(0.0, 0.0), Point::new(10.0, 0.0), Point::new(1.0, 1.0)];
/// let idx = SpatialHash::build(&pts, 5.0);
/// let mut near = idx.query_radius(Point::new(0.0, 0.0), 2.0);
/// near.sort_unstable();
/// assert_eq!(near, vec![0, 2]);
/// ```
#[derive(Debug, Clone)]
pub struct SpatialHash {
    cell: f64,
    /// Lower-left corner of bucket `(0, 0)`: the bounding box's minimum.
    origin: Point,
    nx: usize,
    ny: usize,
    /// `members[start[b]..start[b + 1]]` are the points of bucket
    /// `b = by·nx + bx`, ascending.
    start: Vec<usize>,
    members: Vec<usize>,
    points: Vec<Point>,
}

impl SpatialHash {
    /// Builds an index over `points` with bucket side `cell`.
    ///
    /// A good `cell` is the typical query radius; correctness does not
    /// depend on the choice, only performance. The side is widened where
    /// needed to keep at most `(2√n + 1)²` buckets over the bounding box.
    ///
    /// # Panics
    /// Panics if `cell` is not strictly positive and finite, or any point
    /// is not finite.
    pub fn build(points: &[Point], cell: f64) -> Self {
        assert!(
            cell.is_finite() && cell > 0.0,
            "cell must be > 0, got {cell}"
        );
        let mut lo = Point::new(f64::INFINITY, f64::INFINITY);
        let mut hi = Point::new(f64::NEG_INFINITY, f64::NEG_INFINITY);
        for (i, p) in points.iter().enumerate() {
            assert!(p.is_finite(), "point {i} is not finite");
            lo = Point::new(lo.x.min(p.x), lo.y.min(p.y));
            hi = Point::new(hi.x.max(p.x), hi.y.max(p.y));
        }
        let n = points.len();
        let extent = (hi.x - lo.x).max(hi.y - lo.y);
        let mut index = SpatialHash {
            cell: cell.max(extent / (2.0 * (n as f64).sqrt())),
            origin: lo,
            nx: 1,
            ny: 1,
            start: Vec::new(),
            members: vec![0; n],
            points: points.to_vec(),
        };
        if n > 0 {
            index.nx = index.offset(hi.x - lo.x) + 1;
            index.ny = index.offset(hi.y - lo.y) + 1;
        }
        // Counting sort by bucket keeps each bucket's points ascending.
        let buckets: Vec<usize> = points.iter().map(|&p| index.bucket_of(p)).collect();
        let mut start = vec![0usize; index.nx * index.ny + 1];
        for &b in &buckets {
            start[b + 1] += 1;
        }
        for b in 0..index.nx * index.ny {
            start[b + 1] += start[b];
        }
        let mut fill = start.clone();
        for (i, &b) in buckets.iter().enumerate() {
            index.members[fill[b]] = i;
            fill[b] += 1;
        }
        index.start = start;
        index
    }

    /// Bucket count spanned by a non-negative offset from the origin,
    /// truncated; `as` saturates a negative offset or NaN to 0.
    #[inline]
    fn offset(&self, along: f64) -> usize {
        (along / self.cell) as usize
    }

    /// The bucket column holding `x`, clamped into the grid.
    #[inline]
    fn column(&self, x: f64) -> usize {
        self.offset(x - self.origin.x).min(self.nx - 1)
    }

    /// The bucket row holding `y`, clamped into the grid.
    #[inline]
    fn row(&self, y: f64) -> usize {
        self.offset(y - self.origin.y).min(self.ny - 1)
    }

    #[inline]
    fn bucket_of(&self, p: Point) -> usize {
        self.row(p.y) * self.nx + self.column(p.x)
    }

    #[inline]
    fn bucket(&self, bx: usize, by: usize) -> &[usize] {
        let b = by * self.nx + bx;
        &self.members[self.start[b]..self.start[b + 1]]
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Returns `true` if the index holds no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Indices of all points within distance `radius` of `center`
    /// (inclusive, with the crate tolerance). Order is unspecified.
    pub fn query_radius(&self, center: Point, radius: f64) -> Vec<usize> {
        let mut out = Vec::new();
        self.query_radius_into(center, radius, &mut out);
        out
    }

    /// Appends the indices of all points within `radius` of `center` to
    /// `out` — the allocation-reusing form of [`SpatialHash::query_radius`]
    /// for callers that query in a hot loop. `out` is *not* cleared.
    pub fn query_radius_into(&self, center: Point, radius: f64, out: &mut Vec<usize>) {
        self.for_each_within(center, radius, |i, _| out.push(i));
    }

    /// Visits every point within distance `radius` of `center` without
    /// allocating, calling `visit(index, distance)` per hit (inclusive
    /// boundary, crate tolerance). Order is unspecified.
    ///
    /// This is the radius-bounded neighbour walk incremental consumers
    /// (e.g. interference-ledger updates under a contribution cutoff)
    /// run per relay move, so it must not allocate or re-test points
    /// outside the covered buckets.
    ///
    /// Every point whose exact offset from `center` is at most `radius`
    /// along each axis lies in a scanned bucket: rounding `center ±
    /// radius` and the bucket arithmetic are monotone, so they cannot
    /// move such a point out of the scanned range.
    pub fn for_each_within(&self, center: Point, radius: f64, mut visit: impl FnMut(usize, f64)) {
        assert!(radius.is_finite() && radius >= 0.0, "radius must be ≥ 0");
        let (x0, x1) = (
            self.column(center.x - radius),
            self.column(center.x + radius),
        );
        let (y0, y1) = (self.row(center.y - radius), self.row(center.y + radius));
        for bx in x0..=x1 {
            for by in y0..=y1 {
                for &i in self.bucket(bx, by) {
                    let d = self.points[i].distance(center);
                    if float::leq(d, radius) {
                        visit(i, d);
                    }
                }
            }
        }
    }

    /// Calls `visit(i, j, distance)` with `i < j` once for every pair of
    /// indexed points within distance `radius` of each other (inclusive
    /// boundary, crate tolerance). Order is unspecified.
    ///
    /// Each point scans the buckets [`SpatialHash::for_each_within`]
    /// would, so every pair at most `radius` apart along each axis is
    /// found, but only those at or after its own in bucket order (and,
    /// in its own bucket, only higher indices): whichever of the two
    /// sits in the earlier bucket finds the pair, so it is tested once.
    pub fn for_each_pair_within(&self, radius: f64, mut visit: impl FnMut(usize, usize, f64)) {
        assert!(radius.is_finite() && radius >= 0.0, "radius must be ≥ 0");
        for (i, &p) in self.points.iter().enumerate() {
            let own = self.bucket_of(p);
            let (x0, x1) = (self.column(p.x - radius), self.column(p.x + radius));
            let (y0, y1) = (self.row(p.y - radius), self.row(p.y + radius));
            for by in y0..=y1 {
                for bx in x0..=x1 {
                    let b = by * self.nx + bx;
                    if b < own {
                        continue;
                    }
                    for &j in self.bucket(bx, by) {
                        if b == own && j <= i {
                            continue;
                        }
                        let d = self.points[j].distance(p);
                        if float::leq(d, radius) {
                            visit(i.min(j), i.max(j), d);
                        }
                    }
                }
            }
        }
    }

    /// Index of the nearest point to `center`, or `None` for an empty
    /// index. Ties break toward the lower index.
    pub fn nearest(&self, center: Point) -> Option<usize> {
        if self.points.is_empty() {
            return None;
        }
        // Expanding rings of buckets around the (clamped) centre bucket.
        // A point `k ≥ 1` rings out is more than `(k − 1)·cell` from
        // `center`, so once a ring starts beyond the best distance no
        // later ring can beat it.
        let (cx, cy) = (self.column(center.x), self.row(center.y));
        let last_ring = cx.max(self.nx - 1 - cx).max(cy).max(self.ny - 1 - cy);
        let mut best: Option<(usize, f64)> = None;
        for ring in 0..=last_ring {
            if let Some((_, bd)) = best {
                if (ring as f64 - 1.0) * self.cell > bd {
                    break;
                }
            }
            let (x0, x1) = (cx.saturating_sub(ring), (cx + ring).min(self.nx - 1));
            let (y0, y1) = (cy.saturating_sub(ring), (cy + ring).min(self.ny - 1));
            for bx in x0..=x1 {
                for by in y0..=y1 {
                    // Only the new ring shell.
                    if bx.abs_diff(cx).max(by.abs_diff(cy)) != ring {
                        continue;
                    }
                    for &i in self.bucket(bx, by) {
                        let d = self.points[i].distance(center);
                        let better = match best {
                            None => true,
                            Some((bi, bd)) => {
                                d < bd - float::EPS || (float::approx_eq(d, bd) && i < bi)
                            }
                        };
                        if better {
                            best = Some((i, d));
                        }
                    }
                }
            }
        }
        best.map(|(i, _)| i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sag_testkit::prelude::*;

    fn brute_radius(pts: &[Point], c: Point, r: f64) -> Vec<usize> {
        let mut v: Vec<usize> = (0..pts.len())
            .filter(|&i| float::leq(pts[i].distance(c), r))
            .collect();
        v.sort_unstable();
        v
    }

    fn brute_nearest(pts: &[Point], c: Point) -> Option<usize> {
        (0..pts.len()).min_by(|&a, &b| float::total_cmp(&pts[a].distance(c), &pts[b].distance(c)))
    }

    #[test]
    fn empty_index() {
        let idx = SpatialHash::build(&[], 5.0);
        assert!(idx.is_empty());
        assert_eq!(idx.len(), 0);
        assert!(idx.query_radius(Point::ORIGIN, 100.0).is_empty());
        assert!(idx.nearest(Point::ORIGIN).is_none());
    }

    #[test]
    fn radius_query_matches_brute_force() {
        let mut rng = Rng::seed_from_u64(7);
        let pts: Vec<Point> = (0..200)
            .map(|_| Point::new(rng.gen_range(-250.0..250.0), rng.gen_range(-250.0..250.0)))
            .collect();
        let idx = SpatialHash::build(&pts, 40.0);
        for _ in 0..50 {
            let c = Point::new(rng.gen_range(-250.0..250.0), rng.gen_range(-250.0..250.0));
            let r = rng.gen_range(0.0..120.0);
            let mut got = idx.query_radius(c, r);
            got.sort_unstable();
            assert_eq!(got, brute_radius(&pts, c, r));
        }
    }

    #[test]
    fn nearest_matches_brute_force() {
        let mut rng = Rng::seed_from_u64(11);
        let pts: Vec<Point> = (0..150)
            .map(|_| Point::new(rng.gen_range(-250.0..250.0), rng.gen_range(-250.0..250.0)))
            .collect();
        let idx = SpatialHash::build(&pts, 25.0);
        for _ in 0..100 {
            let c = Point::new(rng.gen_range(-400.0..400.0), rng.gen_range(-400.0..400.0));
            let got = idx.nearest(c).unwrap();
            let want = brute_nearest(&pts, c).unwrap();
            assert!(
                float::approx_eq(pts[got].distance(c), pts[want].distance(c)),
                "nearest mismatch at {c}: got {got} want {want}"
            );
        }
    }

    #[test]
    fn single_point() {
        let pts = [Point::new(3.0, 4.0)];
        let idx = SpatialHash::build(&pts, 1.0);
        assert_eq!(idx.nearest(Point::ORIGIN), Some(0));
        assert_eq!(idx.query_radius(Point::ORIGIN, 5.0), vec![0]);
        assert!(idx.query_radius(Point::ORIGIN, 4.9).is_empty());
    }

    #[test]
    fn inclusive_boundary() {
        let pts = [Point::new(10.0, 0.0)];
        let idx = SpatialHash::build(&pts, 3.0);
        assert_eq!(idx.query_radius(Point::ORIGIN, 10.0), vec![0]);
    }

    #[test]
    #[should_panic]
    fn zero_cell_panics() {
        SpatialHash::build(&[], 0.0);
    }

    #[test]
    fn for_each_within_reports_true_distances() {
        let pts = [Point::new(3.0, 4.0), Point::new(30.0, 40.0)];
        let idx = SpatialHash::build(&pts, 10.0);
        let mut seen = Vec::new();
        idx.for_each_within(Point::ORIGIN, 10.0, |i, d| seen.push((i, d)));
        assert_eq!(seen.len(), 1);
        assert_eq!(seen[0].0, 0);
        assert!((seen[0].1 - 5.0).abs() < 1e-12);
    }

    #[test]
    fn query_radius_into_appends_without_clearing() {
        let pts = [Point::new(1.0, 0.0)];
        let idx = SpatialHash::build(&pts, 5.0);
        let mut out = vec![99];
        idx.query_radius_into(Point::ORIGIN, 2.0, &mut out);
        assert_eq!(out, vec![99, 0]);
    }

    #[test]
    fn a_fine_cell_over_a_wide_field_keeps_the_grid_linear() {
        let pts: Vec<Point> = (0..50)
            .map(|i| Point::new(f64::from(i) * 1000.0, f64::from(i % 7) * 3000.0))
            .collect();
        let idx = SpatialHash::build(&pts, 0.5);
        let side = 2.0 * 50f64.sqrt() + 1.0;
        assert!((idx.nx * idx.ny) as f64 <= side * side);
        for (i, &p) in pts.iter().enumerate() {
            assert_eq!(idx.query_radius(p, 0.5), vec![i]);
            assert_eq!(idx.nearest(p + crate::Vec2::new(0.1, 0.0)), Some(i));
        }
    }

    prop! {
        fn prop_pairs_equal_brute(
            seed in 0u64..1000,
            n in 0usize..60,
            cell in 1.0..60.0f64,
            r in 0.0..120.0f64,
            snap in one_of([None, Some(10.0f64)]),
        ) {
            let mut rng = Rng::seed_from_u64(seed);
            let pts: Vec<Point> = (0..n)
                .map(|_| {
                    let (x, y): (f64, f64) = (rng.gen_range(-100.0..100.0), rng.gen_range(-100.0..100.0));
                    match snap {
                        Some(s) => Point::new((x / s).round() * s, (y / s).round() * s),
                        None => Point::new(x, y),
                    }
                })
                .collect();
            let idx = SpatialHash::build(&pts, cell);
            let mut got = Vec::new();
            idx.for_each_pair_within(r, |i, j, d| {
                assert!(i < j && d == pts[i].distance(pts[j]));
                got.push((i, j));
            });
            got.sort_unstable();
            let mut want = Vec::new();
            for j in 0..n {
                for i in brute_radius(&pts[..j], pts[j], r) {
                    want.push((i, j));
                }
            }
            want.sort_unstable();
            prop_assert_eq!(got, want);
        }

        fn prop_radius_equals_brute(
            seed in 0u64..1000,
            n in 1usize..60,
            cell in 1.0..60.0f64,
            r in 0.0..200.0f64,
        ) {
            let mut rng = Rng::seed_from_u64(seed);
            let pts: Vec<Point> = (0..n)
                .map(|_| Point::new(rng.gen_range(-100.0..100.0), rng.gen_range(-100.0..100.0)))
                .collect();
            let idx = SpatialHash::build(&pts, cell);
            let c = Point::new(rng.gen_range(-150.0..150.0), rng.gen_range(-150.0..150.0));
            let mut got = idx.query_radius(c, r);
            got.sort_unstable();
            prop_assert_eq!(got, brute_radius(&pts, c, r));
        }
    }
}
