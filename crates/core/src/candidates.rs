//! Candidate relay positions: *IAC* (Intersections As Candidates) and
//! *GAC* (Grids As Candidates), §III-A of the paper.
//!
//! Both constructions feed the exact ILPQC coverage solver
//! ([`crate::ilpqc`]). IAC collects the pairwise intersection points of
//! subscriber feasible circles (Fig. 2(a)); GAC uses the centres of a
//! uniform grid over the field (Fig. 2(b)), trading accuracy against
//! candidate count through the grid size.

use sag_geom::{GridSpec, Point};

use crate::model::Scenario;

/// IAC: all pairwise intersection points of subscriber feasible circles,
/// restricted to the field.
///
/// A subscriber whose circle intersects no other circle contributes its
/// own centre — otherwise an isolated subscriber would have no candidate
/// that can cover it (the paper implicitly assumes coverability).
///
/// Duplicate candidates (within `1e-9`) are merged.
pub fn iac_candidates(scenario: &Scenario) -> Vec<Point> {
    let circles = scenario.feasible_circles();
    let mut cands: Vec<Point> = Vec::new();
    let mut isolated = vec![true; circles.len()];
    for (i, a) in circles.iter().enumerate() {
        for (jo, b) in circles.iter().enumerate().skip(i + 1) {
            let pts = a.intersection_points(b);
            if !pts.is_empty() {
                isolated[i] = false;
                isolated[jo] = false;
            }
            cands.extend(pts.into_iter().filter(|p| scenario.field.contains(*p)));
        }
    }
    for (i, a) in circles.iter().enumerate() {
        // Nested circles have no boundary intersection but do overlap:
        // treat as non-isolated only if another circle's centre region
        // overlaps; simplest robust rule — a subscriber also counts as
        // non-isolated when some candidate already covers it.
        if isolated[i] || !cands.iter().any(|p| a.contains(*p)) {
            cands.push(scenario.field.clamp(a.center));
        }
    }
    dedup_points(cands)
}

/// GAC: the centres of a uniform grid of cell side `grid_size` over the
/// field.
///
/// # Panics
/// Panics unless `grid_size > 0` and finite.
pub fn gac_candidates(scenario: &Scenario, grid_size: f64) -> Vec<Point> {
    GridSpec::new(scenario.field, grid_size).centers().collect()
}

/// Removes near-duplicate points (within `1e-9`), preserving first
/// occurrence order ([`sag_geom::point::dedup_points`]).
pub fn dedup_points(points: Vec<Point>) -> Vec<Point> {
    sag_geom::point::dedup_points(points, 1e-9)
}

/// Filters candidates to those that cover at least one subscriber
/// (within some feasible circle); positions covering nothing can never
/// appear in a minimal solution.
pub fn prune_useless(scenario: &Scenario, candidates: Vec<Point>) -> Vec<Point> {
    let circles = scenario.feasible_circles();
    candidates
        .into_iter()
        .filter(|p| circles.iter().any(|c| c.contains(*p)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{BaseStation, NetworkParams, Scenario, Subscriber};
    use sag_geom::Rect;

    fn scenario(subs: Vec<(f64, f64, f64)>) -> Scenario {
        Scenario::new(
            Rect::centered_square(500.0),
            subs.into_iter()
                .map(|(x, y, d)| Subscriber::new(Point::new(x, y), d))
                .collect(),
            vec![BaseStation::new(Point::new(200.0, 200.0))],
            NetworkParams::default(),
        )
        .unwrap()
    }

    #[test]
    fn iac_crossing_pair_yields_two_points() {
        let sc = scenario(vec![(0.0, 0.0, 30.0), (40.0, 0.0, 30.0)]);
        let c = iac_candidates(&sc);
        assert_eq!(c.len(), 2);
        let circles = sc.feasible_circles();
        for p in &c {
            assert!(circles[0].contains(*p) && circles[1].contains(*p));
        }
    }

    #[test]
    fn iac_isolated_subscriber_gets_centre() {
        let sc = scenario(vec![(0.0, 0.0, 30.0), (200.0, 0.0, 30.0)]);
        let c = iac_candidates(&sc);
        assert_eq!(c.len(), 2);
        assert!(c.iter().any(|p| p.approx_eq(Point::new(0.0, 0.0))));
        assert!(c.iter().any(|p| p.approx_eq(Point::new(200.0, 0.0))));
    }

    #[test]
    fn iac_every_subscriber_coverable() {
        let sc = scenario(vec![
            (0.0, 0.0, 30.0),
            (40.0, 0.0, 35.0),
            (-100.0, 50.0, 32.0),
            (-100.0, 110.0, 31.0),
            (240.0, 240.0, 30.0),
        ]);
        let cands = iac_candidates(&sc);
        for circle in sc.feasible_circles() {
            assert!(
                cands.iter().any(|p| circle.contains(*p)),
                "no candidate covers subscriber at {}",
                circle.center
            );
        }
    }

    #[test]
    fn iac_candidates_inside_field() {
        // Subscriber near the field edge: intersections outside are cut.
        let sc = scenario(vec![(245.0, 0.0, 30.0), (245.0, 20.0, 30.0)]);
        for p in iac_candidates(&sc) {
            assert!(sc.field.contains(p));
        }
    }

    #[test]
    fn gac_count_scales_with_grid() {
        let sc = scenario(vec![(0.0, 0.0, 30.0)]);
        let coarse = gac_candidates(&sc, 50.0);
        let fine = gac_candidates(&sc, 20.0);
        assert!(fine.len() > coarse.len());
        assert_eq!(coarse.len(), 100); // (500/50)²
    }

    #[test]
    fn prune_keeps_only_covering() {
        let sc = scenario(vec![(0.0, 0.0, 30.0)]);
        let cands = vec![Point::new(0.0, 10.0), Point::new(200.0, 200.0)];
        let kept = prune_useless(&sc, cands);
        assert_eq!(kept.len(), 1);
        assert!(kept[0].approx_eq(Point::new(0.0, 10.0)));
    }

    #[test]
    fn dedup_removes_close_duplicates() {
        let pts = vec![
            Point::new(0.0, 0.0),
            Point::new(0.0, 1e-12),
            Point::new(1.0, 0.0),
        ];
        assert_eq!(dedup_points(pts).len(), 2);
    }
}
