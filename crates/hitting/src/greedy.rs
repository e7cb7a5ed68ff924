//! Greedy hitting set (ln n approximation).

use crate::instance::DiskInstance;
use sag_geom::Point;

/// Greedy hitting set: repeatedly picks the candidate hitting the most
/// not-yet-hit disks. Ties break toward the lower candidate index for
/// determinism.
///
/// Always returns a valid hitting set (every disk contains its own centre,
/// which is among the candidates).
///
/// # Example
/// ```
/// use sag_geom::{Circle, Point};
/// use sag_hitting::{greedy::greedy_hitting_set, DiskInstance};
/// let inst = DiskInstance::new(vec![Circle::new(Point::ORIGIN, 1.0)]);
/// assert_eq!(greedy_hitting_set(&inst).len(), 1);
/// ```
pub fn greedy_hitting_set(inst: &DiskInstance) -> Vec<Point> {
    greedy_hitting_set_indices(inst)
        .into_iter()
        .map(|c| inst.candidates()[c])
        .collect()
}

/// As [`greedy_hitting_set`] but returns candidate indices.
///
/// Each candidate's gain is kept current instead of recounted: when a
/// pick hits a disk for the first time, every candidate hitting that disk
/// ([`DiskInstance::hitters`]) loses one. A round then only scans the
/// gains for the first largest one.
pub fn greedy_hitting_set_indices(inst: &DiskInstance) -> Vec<usize> {
    let mut gain: Vec<usize> = (0..inst.candidates().len())
        .map(|c| inst.hit_by(c).len())
        .collect();
    let mut hit = vec![false; inst.len()];
    let mut remaining = inst.len();
    let mut chosen = Vec::new();
    while remaining > 0 {
        let c = (1..gain.len()).fold(0, |best, c| if gain[c] > gain[best] { c } else { best });
        assert!(
            gain[c] > 0,
            "every disk centre is a candidate, so progress is always possible"
        );
        chosen.push(c);
        for &d in inst.hit_by(c) {
            if !hit[d] {
                hit[d] = true;
                remaining -= 1;
                for &h in inst.hitters(d) {
                    gain[h] -= 1;
                }
            }
        }
    }
    chosen
}

#[cfg(test)]
mod tests {
    use super::*;
    use sag_geom::Circle;
    use sag_testkit::prelude::*;

    fn c(x: f64, y: f64, r: f64) -> Circle {
        Circle::new(Point::new(x, y), r)
    }

    #[test]
    fn single_disk_single_point() {
        let inst = DiskInstance::new(vec![c(3.0, 4.0, 1.0)]);
        let hs = greedy_hitting_set(&inst);
        assert_eq!(hs.len(), 1);
        assert!(inst.is_hitting_set(&hs));
    }

    #[test]
    fn overlapping_cluster_one_point() {
        let inst = DiskInstance::new(vec![c(0.0, 0.0, 2.0), c(1.0, 0.0, 2.0), c(0.5, 0.5, 2.0)]);
        let hs = greedy_hitting_set(&inst);
        assert_eq!(hs.len(), 1);
        assert!(inst.is_hitting_set(&hs));
    }

    #[test]
    fn two_separated_clusters() {
        let inst = DiskInstance::new(vec![
            c(0.0, 0.0, 2.0),
            c(1.0, 0.0, 2.0),
            c(100.0, 0.0, 2.0),
            c(101.0, 0.0, 2.0),
        ]);
        let hs = greedy_hitting_set(&inst);
        assert_eq!(hs.len(), 2);
        assert!(inst.is_hitting_set(&hs));
    }

    #[test]
    fn disjoint_disks_need_one_each() {
        let disks: Vec<Circle> = (0..5).map(|i| c(i as f64 * 10.0, 0.0, 1.0)).collect();
        let inst = DiskInstance::new(disks);
        let hs = greedy_hitting_set(&inst);
        assert_eq!(hs.len(), 5);
    }

    #[test]
    fn deterministic() {
        let inst = DiskInstance::new(vec![c(0.0, 0.0, 2.0), c(3.0, 0.0, 2.0), c(6.0, 0.0, 2.0)]);
        let a = greedy_hitting_set_indices(&inst);
        let b = greedy_hitting_set_indices(&inst);
        assert_eq!(a, b);
    }

    prop! {
        fn prop_always_valid(seed in 0u64..400, n in 1usize..25) {
            let mut rng = Rng::seed_from_u64(seed);
            let disks: Vec<Circle> = (0..n)
                .map(|_| c(rng.gen_range(-100.0..100.0), rng.gen_range(-100.0..100.0),
                           rng.gen_range(5.0..30.0)))
                .collect();
            let inst = DiskInstance::new(disks);
            let hs = greedy_hitting_set(&inst);
            prop_assert!(inst.is_hitting_set(&hs));
            prop_assert!(hs.len() <= n);
        }
    }
}
