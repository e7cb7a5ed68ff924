//! Zone Partition (Algorithm 2).
//!
//! Partitions subscribers into zones such that stations in different
//! zones cannot meaningfully interfere: an edge joins `s_i` and `s_j`
//! when the *effective* distance `d_eff = dist(s_i, s_j) − max(d_i, d_j)`
//! — the closest two relays serving them could come — is within the
//! ignorable-noise distance `d_max` (where `Pmax·G·d_max^{-α} = N_max`).
//! Connected components of that graph are the zones; SAMC then solves
//! each zone independently.
//!
//! Note the paper's Step 3 writes `d_eff = min{dist−d_i, dist−d_j}`;
//! `min` over subtracted radii equals subtracting the `max` radius.
//!
//! An edge needs `dist ≤ d_max + max d_req`, so instead of testing all
//! pairs the partition walks the pairs within that reach through a
//! [`SpatialHash`] and joins them with a [`UnionFind`]. The seed
//! all-pairs partition is kept as the referee in
//! [`crate::reference::zone_partition_with_dmax`].

use sag_geom::{Point, SpatialHash};
use sag_graph::UnionFind;

use crate::model::Scenario;

/// A zone: indices of the subscribers it contains (sorted ascending).
pub type Zone = Vec<usize>;

/// Runs Zone Partition and returns the zones (ordered by smallest
/// subscriber index).
///
/// # Example
/// ```
/// # use sag_core::model::{BaseStation, NetworkParams, Scenario, Subscriber};
/// # use sag_geom::{Point, Rect};
/// # use sag_radio::LinkBudget;
/// let params = NetworkParams::new(LinkBudget::default(), 1e-3); // dmax = 10
/// let scenario = Scenario::new(
///     Rect::centered_square(500.0),
///     vec![
///         Subscriber::new(Point::new(0.0, 0.0), 3.0),
///         Subscriber::new(Point::new(5.0, 0.0), 3.0),   // near the first
///         Subscriber::new(Point::new(200.0, 0.0), 3.0), // far away
///     ],
///     vec![BaseStation::new(Point::new(0.0, 200.0))],
///     params,
/// ).unwrap();
/// let zones = sag_core::zone::zone_partition(&scenario);
/// assert_eq!(zones, vec![vec![0, 1], vec![2]]);
/// ```
pub fn zone_partition(scenario: &Scenario) -> Vec<Zone> {
    let dmax = scenario.params.dmax();
    zone_partition_with_dmax(scenario, dmax)
}

/// As [`zone_partition`] with an explicit `d_max` (tests use it to
/// sweep zone granularity).
///
/// Only pairs within `d_max + max d_req` of each other are tested, and
/// they are joined with a [`UnionFind`]; the zones equal the connected
/// components of Algorithm 2's all-pairs graph
/// ([`crate::reference::zone_partition_with_dmax`]), zone for zone.
///
/// # Panics
/// Panics unless `dmax` is non-negative and finite and every
/// subscriber position is finite; an infinite distance request panics
/// too ([`Scenario::validate`] rejects both).
pub fn zone_partition_with_dmax(scenario: &Scenario, dmax: f64) -> Vec<Zone> {
    assert!(
        dmax.is_finite() && dmax >= 0.0,
        "dmax must be ≥ 0, got {dmax}"
    );
    let subs = &scenario.subscribers;
    let max_req = subs.iter().map(|s| s.distance_req).fold(0.0, f64::max);
    // A pair passing the edge test below is within `(d_max + max d_req)
    // ·(1 + 7u)` along each axis (u = 2⁻⁵³), or closer than
    // `√MIN_POSITIVE` where its squared offset underflows; both pads
    // keep every such pair inside the walk, and the second keeps the
    // bucket side positive.
    let reach = (dmax + max_req) * (1.0 + 1e-9) + f64::MIN_POSITIVE.sqrt();
    let positions: Vec<Point> = subs.iter().map(|s| s.position).collect();
    let index = SpatialHash::build(&positions, reach);
    let mut uf = UnionFind::new(subs.len());
    index.for_each_pair_within(reach, |i, j, dist| {
        let deff = (dist - subs[i].distance_req).min(dist - subs[j].distance_req);
        if deff <= dmax {
            uf.union(i, j);
        }
    });
    uf.sets()
}

/// Runs [`zone_partition`] under the `zone_partition` span and records
/// every zone's size in the `zone.size` histogram — the shared entry
/// point of both lower-tier solvers, so the partition is instrumented
/// identically whichever one runs.
pub fn observed_zone_partition(scenario: &Scenario) -> Vec<Zone> {
    let _zp = sag_obs::span("zone_partition");
    let zones = zone_partition(scenario);
    if sag_obs::enabled() {
        for zone in &zones {
            sag_obs::observe("zone.size", zone.len() as u64);
        }
    }
    zones
}

/// The sub-scenario induced by one zone: the zone's subscribers with the
/// original field, base stations and parameters. Returned together with
/// the mapping back to original subscriber indices.
pub fn zone_scenario(scenario: &Scenario, zone: &Zone) -> (Scenario, Vec<usize>) {
    let subs = zone.iter().map(|&j| scenario.subscribers[j]).collect();
    let sub_scenario = Scenario {
        field: scenario.field,
        subscribers: subs,
        base_stations: scenario.base_stations.clone(),
        params: scenario.params,
    };
    (sub_scenario, zone.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{BaseStation, NetworkParams, Subscriber};
    use sag_geom::{Point, Rect};
    use sag_radio::LinkBudget;

    fn scenario_with_nmax(subs: Vec<(f64, f64, f64)>, nmax: f64) -> Scenario {
        Scenario::new(
            Rect::centered_square(800.0),
            subs.into_iter()
                .map(|(x, y, d)| Subscriber::new(Point::new(x, y), d))
                .collect(),
            vec![BaseStation::new(Point::new(0.0, 300.0))],
            NetworkParams::new(LinkBudget::default(), nmax),
        )
        .unwrap()
    }

    #[test]
    fn far_groups_split() {
        // nmax = 1e-3 → dmax = 10 (G=1, α=3, Pmax=1).
        let sc = scenario_with_nmax(
            vec![
                (0.0, 0.0, 5.0),
                (12.0, 0.0, 5.0),  // deff = 7 ≤ 10 → same zone
                (300.0, 0.0, 5.0), // far → own zone
                (310.0, 0.0, 5.0), // deff = 5 → joins previous
            ],
            1e-3,
        );
        let zones = zone_partition(&sc);
        assert_eq!(zones, vec![vec![0, 1], vec![2, 3]]);
    }

    #[test]
    fn default_nmax_keeps_everything_together() {
        // Default Nmax gives dmax = 1000, larger than any field distance.
        let sc = Scenario::new(
            Rect::centered_square(800.0),
            vec![
                Subscriber::new(Point::new(-250.0, -250.0), 30.0),
                Subscriber::new(Point::new(250.0, 250.0), 30.0),
            ],
            vec![BaseStation::new(Point::ORIGIN)],
            NetworkParams::default(),
        )
        .unwrap();
        // Separation ≈ 707 − 30 < dmax = 1000 → single zone.
        assert_eq!(zone_partition(&sc).len(), 1);
    }

    #[test]
    fn transitive_zoning() {
        // Chain: A—B and B—C within reach, A—C not: still one zone.
        let sc = scenario_with_nmax(
            vec![(0.0, 0.0, 5.0), (14.0, 0.0, 5.0), (28.0, 0.0, 5.0)],
            1e-3,
        );
        assert_eq!(zone_partition(&sc), vec![vec![0, 1, 2]]);
    }

    #[test]
    fn effective_distance_uses_larger_radius() {
        // dist = 20, radii 15 and 2 → deff = 5; with dmax = 4 they are
        // split, with dmax = 6 they join.
        let subs = vec![(0.0, 0.0, 15.0), (20.0, 0.0, 2.0)];
        let sc = scenario_with_nmax(subs, 1e-3);
        assert_eq!(zone_partition_with_dmax(&sc, 4.0).len(), 2);
        assert_eq!(zone_partition_with_dmax(&sc, 6.0).len(), 1);
    }

    #[test]
    fn zone_scenario_extracts_subscribers() {
        let sc = scenario_with_nmax(vec![(0.0, 0.0, 5.0), (300.0, 0.0, 5.0)], 1e-3);
        let zones = zone_partition(&sc);
        let (zsc, map) = zone_scenario(&sc, &zones[1]);
        assert_eq!(zsc.n_subscribers(), 1);
        assert_eq!(map, vec![1]);
        assert_eq!(zsc.subscribers[0].position, Point::new(300.0, 0.0));
        assert_eq!(zsc.base_stations.len(), 1);
    }

    #[test]
    fn zones_partition_everything() {
        let sc = scenario_with_nmax(
            vec![
                (0.0, 0.0, 5.0),
                (100.0, 0.0, 5.0),
                (200.0, 0.0, 5.0),
                (13.0, 0.0, 5.0),
            ],
            1e-3,
        );
        let zones = zone_partition(&sc);
        let mut all: Vec<usize> = zones.into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2, 3]);
    }
}
