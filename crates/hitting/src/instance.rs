//! Hitting-set instances over families of disks.

use sag_geom::float::EPS;
use sag_geom::point::dedup_points;
use sag_geom::{Circle, Point};

/// Candidates closer than this to an earlier candidate are dropped.
pub(crate) const CANDIDATE_TOL: f64 = 1e-9;

/// A geometric hitting-set instance: a family of closed disks to be hit.
///
/// Candidate points are derived once at construction: every disk centre
/// plus every pairwise boundary intersection point. Any optimal hitting
/// set can be normalised onto these candidates (slide each chosen point
/// until it is pinned by two disk boundaries, or centre it in its only
/// disk), so searching the candidates loses nothing.
///
/// The candidate → disk hit lists and their inverse, the disk →
/// candidate index, are built once here and shared by every solver.
#[derive(Debug, Clone)]
pub struct DiskInstance {
    disks: Vec<Circle>,
    candidates: Vec<Point>,
    /// Row `c`: the disks candidate `c` hits, ascending.
    hits: Rows,
    /// Row `d`: the candidates hitting disk `d`, ascending.
    hitters: Rows,
}

impl DiskInstance {
    /// Builds an instance and its candidate structure.
    ///
    /// A pair of disks farther apart along an axis than their radii sum
    /// plus [`EPS`] is disjoint for [`Circle::intersection_points`], and a
    /// disk whose centre is farther from a candidate along an axis than
    /// its radius plus [`EPS`] fails [`Circle::contains`]: both predicates
    /// compare a computed distance, which is never below the computed
    /// `|Δx|` or `|Δy|`. Those pairs are skipped without a square root,
    /// and a candidate's hit list only visits the disks whose centres lie
    /// within the largest such reach in x, found in centre-x order.
    ///
    /// # Panics
    /// Panics if `disks` is empty (a hitting set of nothing is trivially
    /// empty and callers should not ask).
    pub fn new(disks: Vec<Circle>) -> Self {
        assert!(!disks.is_empty(), "instance must contain at least one disk");
        let mut candidates: Vec<Point> = disks.iter().map(|d| d.center).collect();
        for (i, a) in disks.iter().enumerate() {
            for b in &disks[i + 1..] {
                if !apart(a.center, b.center, a.radius + b.radius + EPS) {
                    candidates.extend(a.intersection_points(b));
                }
            }
        }
        let candidates = dedup_points(candidates, CANDIDATE_TOL);
        // Disks in centre-x order: a candidate is only tested against the
        // window whose centres lie within the largest reach of it in x.
        let mut by_x: Vec<(f64, usize)> = disks
            .iter()
            .enumerate()
            .map(|(d, disk)| (disk.center.x, d))
            .collect();
        by_x.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
        let reach = disks.iter().map(|d| d.radius + EPS).fold(0.0, f64::max);
        let mut row = Vec::new();
        let mut hits = Rows::with_capacity(candidates.len());
        for &p in &candidates {
            let lo = by_x.partition_point(|&(x, _)| x - p.x < -reach);
            let hi = by_x.partition_point(|&(x, _)| x - p.x <= reach);
            row.clear();
            row.extend(by_x[lo..hi].iter().map(|&(_, d)| d).filter(|&d| {
                let disk = &disks[d];
                !apart(disk.center, p, disk.radius + EPS) && disk.contains(p)
            }));
            row.sort_unstable();
            hits.push_row(row.iter().copied());
        }
        let hitters = hits.transpose(disks.len());
        DiskInstance {
            disks,
            candidates,
            hits,
            hitters,
        }
    }

    /// The disks of the instance.
    pub fn disks(&self) -> &[Circle] {
        &self.disks
    }

    /// The candidate points.
    pub fn candidates(&self) -> &[Point] {
        &self.candidates
    }

    /// Number of disks.
    pub fn len(&self) -> usize {
        self.disks.len()
    }

    /// Instances are never empty; provided for API completeness.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Disk indices hit by candidate `c`, ascending.
    ///
    /// # Panics
    /// Panics if `c` is out of range.
    pub fn hit_by(&self, c: usize) -> &[usize] {
        self.hits.row(c)
    }

    /// Candidate indices hitting disk `d`, ascending: the inverse of
    /// [`DiskInstance::hit_by`].
    ///
    /// # Panics
    /// Panics if `d` is out of range.
    pub fn hitters(&self, d: usize) -> &[usize] {
        self.hitters.row(d)
    }

    /// Returns `true` if the given points hit every disk.
    pub fn is_hitting_set(&self, points: &[Point]) -> bool {
        self.disks
            .iter()
            .all(|d| points.iter().any(|&p| d.contains(p)))
    }

    /// Returns `true` if the given *candidate indices* hit every disk.
    ///
    /// # Panics
    /// Panics if an index is out of range.
    pub fn indices_hit_all(&self, chosen: &[usize]) -> bool {
        let mut hit = vec![false; self.disks.len()];
        for &c in chosen {
            for &d in self.hit_by(c) {
                hit[d] = true;
            }
        }
        hit.iter().all(|&h| h)
    }

    /// Materialises candidate indices into points.
    ///
    /// # Panics
    /// Panics if an index is out of range.
    pub fn points_of(&self, chosen: &[usize]) -> Vec<Point> {
        chosen.iter().map(|&c| self.candidates[c]).collect()
    }

    /// Removes dominated candidates: candidate `a` is dominated by `b`
    /// when `hit(a) ⊆ hit(b)` and `a ≠ b`. Returns the surviving
    /// candidate indices (useful to shrink exact searches).
    pub fn non_dominated_candidates(&self) -> Vec<usize> {
        let sets: Vec<std::collections::BTreeSet<usize>> = (0..self.candidates.len())
            .map(|c| self.hit_by(c).iter().copied().collect())
            .collect();
        (0..self.candidates.len())
            .filter(|&a| {
                !(0..self.candidates.len())
                    .any(|b| b != a && sets[a].is_subset(&sets[b]) && (sets[a] != sets[b] || b < a))
            })
            .collect()
    }
}

/// `true` when `a` and `b` are more than `reach` apart along an axis.
fn apart(a: Point, b: Point, reach: f64) -> bool {
    (a.x - b.x).abs() > reach || (a.y - b.y).abs() > reach
}

/// Rows of indices in one flat array.
#[derive(Debug, Clone)]
struct Rows {
    items: Vec<usize>,
    /// Row `i` is `items[start[i]..start[i + 1]]`.
    start: Vec<usize>,
}

impl Rows {
    fn with_capacity(rows: usize) -> Self {
        let mut start = Vec::with_capacity(rows + 1);
        start.push(0);
        Rows {
            items: Vec::new(),
            start,
        }
    }

    fn push_row(&mut self, row: impl IntoIterator<Item = usize>) {
        self.items.extend(row);
        self.start.push(self.items.len());
    }

    fn row(&self, i: usize) -> &[usize] {
        &self.items[self.start[i]..self.start[i + 1]]
    }

    /// The inverse over `n` columns: row `j` lists, ascending, the rows
    /// holding `j`.
    fn transpose(&self, n: usize) -> Rows {
        let mut start = vec![0; n + 1];
        for &j in &self.items {
            start[j + 1] += 1;
        }
        for j in 0..n {
            start[j + 1] += start[j];
        }
        let mut next = start.clone();
        let mut items = vec![0; self.items.len()];
        for i in 0..self.start.len() - 1 {
            for &j in self.row(i) {
                items[next[j]] = i;
                next[j] += 1;
            }
        }
        Rows { items, start }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(x: f64, y: f64, r: f64) -> Circle {
        Circle::new(Point::new(x, y), r)
    }

    #[test]
    fn candidates_include_centres_and_crossings() {
        let inst = DiskInstance::new(vec![c(0.0, 0.0, 2.0), c(2.0, 0.0, 2.0)]);
        // 2 centres + 2 crossing points.
        assert_eq!(inst.candidates().len(), 4);
        assert_eq!(inst.len(), 2);
    }

    #[test]
    fn hit_structure() {
        let inst = DiskInstance::new(vec![c(0.0, 0.0, 2.0), c(2.0, 0.0, 2.0)]);
        // Centre of disk 0 hits both? distance 2 from (2,0) → on boundary → contained.
        let idx_center0 = inst
            .candidates()
            .iter()
            .position(|p| p.approx_eq(Point::new(0.0, 0.0)))
            .unwrap();
        let hits = inst.hit_by(idx_center0);
        assert!(hits.contains(&0) && hits.contains(&1));
    }

    #[test]
    fn hitting_set_predicates() {
        let inst = DiskInstance::new(vec![c(0.0, 0.0, 1.0), c(10.0, 0.0, 1.0)]);
        assert!(!inst.is_hitting_set(&[Point::new(0.0, 0.0)]));
        assert!(inst.is_hitting_set(&[Point::new(0.0, 0.0), Point::new(10.0, 0.0)]));
    }

    #[test]
    fn indices_hit_all_matches_points() {
        let inst = DiskInstance::new(vec![c(0.0, 0.0, 2.0), c(1.0, 0.0, 2.0)]);
        for set in [vec![0], vec![1], vec![0, 1]] {
            assert_eq!(
                inst.indices_hit_all(&set),
                inst.is_hitting_set(&inst.points_of(&set))
            );
        }
    }

    #[test]
    fn dedup_candidates() {
        // Coincident circles produce coincident centres → dedup to one.
        let inst = DiskInstance::new(vec![c(0.0, 0.0, 1.0), c(0.0, 0.0, 2.0)]);
        let centres = inst
            .candidates()
            .iter()
            .filter(|p| p.approx_eq(Point::ORIGIN))
            .count();
        assert_eq!(centres, 1);
    }

    #[test]
    fn non_dominated_pruning() {
        // Candidate hitting both disks dominates ones hitting a single disk.
        let inst = DiskInstance::new(vec![c(0.0, 0.0, 2.0), c(2.0, 0.0, 2.0)]);
        let nd = inst.non_dominated_candidates();
        assert!(!nd.is_empty());
        // Every surviving candidate hits both disks (since such exist here).
        for &cand in &nd {
            assert_eq!(inst.hit_by(cand).len(), 2);
        }
    }

    #[test]
    #[should_panic]
    fn empty_instance_panics() {
        DiskInstance::new(Vec::new());
    }
}
