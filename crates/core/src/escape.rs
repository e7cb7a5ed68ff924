//! Coverage Link Escape (Algorithm 3).
//!
//! Given the hitting-set relay points of a zone, build the bipartite
//! graph between subscribers (side A) and relay points (side B) with an
//! edge whenever the point lies in the subscriber's feasible circle, then
//! peel by decreasing point degree so that every subscriber ends up
//! assigned to exactly one point and *one-on-one* coverages are maximised
//! — a relay serving exactly one subscriber can later be slid right onto
//! it, raising its signal and lowering everyone else's interference.

use sag_geom::Point;
use sag_graph::BipartiteGraph;

use crate::model::Scenario;

/// The coverage link pair `G_i` of Algorithm 1 Step 4: the bipartite
/// structure plus the escape assignment.
#[derive(Debug, Clone)]
pub struct EscapeResult {
    /// `assignment[j]` = index into the relay points serving subscriber
    /// `j` (guaranteed `Some` when every subscriber is coverable by some
    /// point).
    pub assignment: Vec<Option<usize>>,
    /// For each relay point, the subscribers assigned to it.
    pub served: Vec<Vec<usize>>,
}

/// Builds the subscriber×point bipartite graph of Algorithm 3 Steps 1–2.
pub fn coverage_bipartite(scenario: &Scenario, points: &[Point]) -> BipartiteGraph {
    let mut g = BipartiteGraph::new(scenario.n_subscribers(), points.len());
    for (j, sub) in scenario.subscribers.iter().enumerate() {
        let circle = sub.feasible_circle();
        for (p, &pt) in points.iter().enumerate() {
            if circle.contains(pt) {
                g.add_edge(j, p);
            }
        }
    }
    g
}

/// Runs Coverage Link Escape over the zone's subscribers and hitting-set
/// points.
pub fn coverage_link_escape(scenario: &Scenario, points: &[Point]) -> EscapeResult {
    let g = coverage_bipartite(scenario, points);
    let assignment = g.escape_assignment();
    let mut served = vec![Vec::new(); points.len()];
    for (j, asg) in assignment.iter().enumerate() {
        if let Some(p) = asg {
            served[*p].push(j);
        }
    }
    EscapeResult { assignment, served }
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
    fn bipartite_edges_follow_circles() {
        let sc = scenario(vec![(0.0, 0.0, 30.0), (100.0, 0.0, 30.0)]);
        let pts = vec![Point::new(10.0, 0.0), Point::new(100.0, 10.0)];
        let g = coverage_bipartite(&sc, &pts);
        assert_eq!(g.neighbors_of_left(0), &[0]);
        assert_eq!(g.neighbors_of_left(1), &[1]);
    }

    #[test]
    fn every_coverable_subscriber_assigned() {
        let sc = scenario(vec![
            (0.0, 0.0, 30.0),
            (20.0, 0.0, 30.0),
            (100.0, 0.0, 30.0),
        ]);
        let pts = vec![Point::new(10.0, 0.0), Point::new(100.0, 0.0)];
        let r = coverage_link_escape(&sc, &pts);
        assert_eq!(r.assignment, vec![Some(0), Some(0), Some(1)]);
        assert_eq!(r.served, vec![vec![0, 1], vec![2]]);
    }

    #[test]
    fn absorbed_point_becomes_unused() {
        // Point 1 only covers a subscriber that point 0 (higher degree)
        // absorbs.
        let sc = scenario(vec![(0.0, 0.0, 30.0), (20.0, 0.0, 30.0)]);
        let pts = vec![Point::new(10.0, 0.0), Point::new(30.0, 0.0)];
        let r = coverage_link_escape(&sc, &pts);
        assert_eq!(r.assignment, vec![Some(0), Some(0)]);
        assert!(r.served[1].is_empty());
    }

    #[test]
    fn uncoverable_subscriber_is_none() {
        let sc = scenario(vec![(0.0, 0.0, 30.0), (200.0, 0.0, 30.0)]);
        let pts = vec![Point::new(0.0, 0.0)];
        let r = coverage_link_escape(&sc, &pts);
        assert_eq!(r.assignment[0], Some(0));
        assert_eq!(r.assignment[1], None);
    }
}
