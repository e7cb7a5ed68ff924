//! Multiple Base-station Minimum Connectivity — MBMC (Algorithm 7) and
//! the single-BS MUST baseline of \[1\].
//!
//! The upper tier must carry every coverage relay's traffic to a base
//! station over multi-hop relay links. MBMC:
//!
//! 1. builds a complete graph over the coverage relays, plus one edge per
//!    relay to its **nearest** base station (the multi-BS generalisation
//!    over MUST);
//! 2. weighs every edge `e` with `w1 = ceil(‖e‖ / d_min) − 1` — the
//!    number of relays a steinerized edge of that length would need at
//!    the most conservative feasible distance;
//! 3. takes a minimum spanning tree rooted at the base stations (all BSs
//!    are contracted into one virtual root, which realises "find an MST
//!    with BS as the root" for multiple BSs);
//! 4. computes each node's *effective feasible distance* — the minimum
//!    of its own subscribers' distances and its tree children's
//!    effective distances (the paper's "equals the minimum feasible
//!    distance of all its children", which guarantees every relay link
//!    supports the capacity of the traffic it aggregates);
//! 5. steinerizes every tree edge `(parent, child)` with
//!    `w2 = ceil(‖e‖ / d_child) − 1` equally spaced connectivity relays.
//!
//! MUST is the same pipeline restricted to a single designated base
//! station — the baseline of Fig. 6(d) / Table II.

// Tree bookkeeping over parallel per-vertex arrays reads best indexed.
#![allow(clippy::needless_range_loop)]

use sag_geom::Point;
use sag_graph::{mst, Graph};

use crate::coverage::CoverageSolution;
use crate::error::{SagError, SagResult};
use crate::model::Scenario;

/// One steinerized tree edge: the chain of relay-link transmitters from a
/// child node up to its parent.
#[derive(Debug, Clone)]
pub struct EdgeChain {
    /// Index of the child node (a coverage relay) in the coverage
    /// solution.
    pub child: usize,
    /// Position of the child endpoint.
    pub child_pos: Point,
    /// Position of the parent endpoint (a coverage relay or a BS).
    pub parent_pos: Point,
    /// Number of hops (segments) on the edge; `hops − 1` connectivity
    /// relays are placed.
    pub hops: usize,
    /// Length of each hop `D_i = ‖e‖ / hops`.
    pub hop_length: f64,
    /// Positions of the placed connectivity relays (empty for a direct
    /// single-hop edge).
    pub relays: Vec<Point>,
}

/// The upper-tier plan: steinerized tree + bookkeeping for UCPO.
#[derive(Debug, Clone)]
pub struct ConnectivityPlan {
    /// All placed connectivity (steiner) relays.
    pub relays: Vec<Point>,
    /// One chain per coverage relay (its edge toward its tree parent).
    pub chains: Vec<EdgeChain>,
    /// For each coverage relay, the index of the base station its tree
    /// path ultimately reaches.
    pub serving_bs: Vec<usize>,
    /// Effective feasible distance of each coverage relay (min over its
    /// subtree), used to steinerize and exposed for diagnostics.
    pub effective_distance: Vec<f64>,
}

impl ConnectivityPlan {
    /// Number of placed connectivity relays (the paper's Fig. 4(c)/5(c)
    /// and Table II metric).
    pub fn n_relays(&self) -> usize {
        self.relays.len()
    }

    /// All links of the steinerized topology as point pairs (for the
    /// Fig. 6 style topology dumps).
    pub fn links(&self) -> Vec<(Point, Point)> {
        let mut out = Vec::new();
        for chain in &self.chains {
            let mut prev = chain.child_pos;
            for &r in &chain.relays {
                out.push((prev, r));
                prev = r;
            }
            out.push((prev, chain.parent_pos));
        }
        out
    }
}

/// Edge-weight rule for the spanning tree (an ablation axis; the paper
/// uses [`WeightRule::HopCountDmin`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum WeightRule {
    /// The paper's `w1 = ceil(len / d_min) − 1`: pessimistic hop counts
    /// using the global minimum feasible distance.
    #[default]
    HopCountDmin,
    /// Plain Euclidean length — the geometric MST, ignoring hop
    /// granularity entirely.
    Euclidean,
    /// Hop counts using the *child endpoint's own* feasible distance —
    /// a sharper estimate of the relays an edge will actually need
    /// (still an estimate: the effective distance after subtree
    /// propagation can be smaller).
    HopCountOwn,
}

/// Runs MBMC (Algorithm 7) over the coverage solution.
///
/// # Errors
/// [`SagError::NoBaseStations`] if the scenario has none (checked at
/// scenario construction, double-checked here).
pub fn mbmc(scenario: &Scenario, coverage: &CoverageSolution) -> SagResult<ConnectivityPlan> {
    mbmc_with_weights(scenario, coverage, WeightRule::default())
}

/// Runs MBMC with an explicit edge-weight rule (ablation entry point).
///
/// # Errors
/// See [`mbmc`].
pub fn mbmc_with_weights(
    scenario: &Scenario,
    coverage: &CoverageSolution,
    rule: WeightRule,
) -> SagResult<ConnectivityPlan> {
    let _stage = sag_obs::span("mbmc");
    let bs_choice: Vec<usize> = coverage
        .relays
        .iter()
        .map(|r| nearest_bs(scenario, *r))
        .collect();
    build_plan(scenario, coverage, &bs_choice, rule)
}

/// Runs MUST: every coverage relay connects (via the spanning tree) to
/// the single base station `bs_index` — the baseline of \[1\].
///
/// # Errors
/// [`SagError::NoBaseStations`] when `bs_index` is out of range.
pub fn must(
    scenario: &Scenario,
    coverage: &CoverageSolution,
    bs_index: usize,
) -> SagResult<ConnectivityPlan> {
    if bs_index >= scenario.base_stations.len() {
        return Err(SagError::NoBaseStations);
    }
    let bs_choice = vec![bs_index; coverage.n_relays()];
    build_plan(scenario, coverage, &bs_choice, WeightRule::default())
}

fn nearest_bs(scenario: &Scenario, p: Point) -> usize {
    scenario
        .base_stations
        .iter()
        .enumerate()
        .min_by(|a, b| {
            sag_geom::float::total_cmp(&a.1.position.distance(p), &b.1.position.distance(p))
        })
        .map(|(i, _)| i)
        .expect("scenario construction guarantees ≥ 1 BS")
}

/// Shared MBMC/MUST core, parameterised by each relay's candidate BS.
fn build_plan(
    scenario: &Scenario,
    coverage: &CoverageSolution,
    bs_choice: &[usize],
    rule: WeightRule,
) -> SagResult<ConnectivityPlan> {
    if scenario.base_stations.is_empty() {
        return Err(SagError::NoBaseStations);
    }
    let m = coverage.n_relays();
    let dmin = scenario.dmin();
    // Own feasible distance of each coverage relay: min over its
    // subscribers' distance requests (via the reverse relay→subscriber
    // index).
    let served = coverage.served_index();
    let mut own_dist = vec![f64::INFINITY; m];
    for (r, dist) in own_dist.iter_mut().enumerate() {
        for &j in served.of(r) {
            *dist = dist.min(scenario.subscribers[j].distance_req);
        }
    }
    // Constraint (3.2): every placed relay covers at least one subscriber.
    // A relay with no subscribers would get an infinite feasible distance
    // and silently produce an arbitrary-length single-hop chain.
    assert!(
        own_dist.iter().all(|d| d.is_finite()),
        "every coverage relay must serve at least one subscriber (constraint 3.2)"
    );

    // Graph: vertices = coverage relays [0, m) ∪ virtual root {m}.
    // Relay–relay edges are complete with w1 weights; each relay also
    // gets an edge to the virtual root weighted by its chosen BS.
    let weight = |len: f64, child: usize| -> f64 {
        match rule {
            WeightRule::HopCountDmin => ((len / dmin).ceil() - 1.0).max(0.0),
            WeightRule::Euclidean => len,
            WeightRule::HopCountOwn => {
                let d = own_dist[child].min(dmin * 32.0); // guard ∞ for isolated data
                ((len / d).ceil() - 1.0).max(0.0)
            }
        }
    };
    let mut g = Graph::new(m + 1);
    for i in 0..m {
        for j in i + 1..m {
            let len = coverage.relays[i].distance(coverage.relays[j]);
            // For relay–relay edges either endpoint may end up the child;
            // use the tighter of the two own-distances.
            let child = if own_dist[i] <= own_dist[j] { i } else { j };
            g.add_edge(i, j, weight(len, child));
        }
        let bs_pos = scenario.base_stations[bs_choice[i]].position;
        g.add_edge(i, m, weight(coverage.relays[i].distance(bs_pos), i));
    }
    // Prim's edges run parent → child in the order their child joined
    // the tree, so every parent joins before its children. A relay is
    // anchored by the BS its root-adjacent ancestor chose.
    let tree = mst::prim(&g, m).expect("graph is complete, hence connected");
    let (mut parent, mut serving) = (vec![m; m], vec![0usize; m]);
    for e in &tree.edges {
        parent[e.v] = e.u;
        serving[e.v] = if e.u == m {
            bs_choice[e.v]
        } else {
            serving[e.u]
        };
    }

    // Effective feasible distance: min of own and children's, bottom-up
    // (in reverse join order every child is final before its parent).
    let mut eff = own_dist;
    for e in tree.edges.iter().rev() {
        if e.u != m {
            eff[e.u] = eff[e.u].min(eff[e.v]);
        }
    }

    // Steinerize each edge (parent(child) → child).
    let mut relays = Vec::new();
    let mut chains = Vec::with_capacity(m);
    for v in 0..m {
        let child_pos = coverage.relays[v];
        let parent_pos = if parent[v] == m {
            scenario.base_stations[serving[v]].position
        } else {
            coverage.relays[parent[v]]
        };
        let len = child_pos.distance(parent_pos);
        let d = eff[v];
        assert!(d > 0.0, "effective feasible distance must be positive");
        let hops = (len / d).ceil().max(1.0) as usize;
        let hop_length = len / hops as f64;
        let mut placed = Vec::with_capacity(hops - 1);
        for k in 1..hops {
            placed.push(child_pos.lerp(parent_pos, k as f64 / hops as f64));
        }
        relays.extend(placed.iter().copied());
        chains.push(EdgeChain {
            child: v,
            child_pos,
            parent_pos,
            hops,
            hop_length,
            relays: placed,
        });
    }

    Ok(ConnectivityPlan {
        relays,
        chains,
        serving_bs: serving,
        effective_distance: eff,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{BaseStation, NetworkParams, Scenario, Subscriber};
    use sag_geom::Rect;

    fn scenario(subs: Vec<(f64, f64, f64)>, bss: Vec<(f64, f64)>) -> Scenario {
        Scenario::new(
            Rect::centered_square(600.0),
            subs.into_iter()
                .map(|(x, y, d)| Subscriber::new(Point::new(x, y), d))
                .collect(),
            bss.into_iter()
                .map(|(x, y)| BaseStation::new(Point::new(x, y)))
                .collect(),
            NetworkParams::default(),
        )
        .unwrap()
    }

    fn one_relay_solution(sc: &Scenario) -> CoverageSolution {
        CoverageSolution {
            relays: vec![sc.subscribers[0].position],
            assignment: vec![0; sc.n_subscribers()],
        }
    }

    #[test]
    fn direct_edge_when_close() {
        // Relay 20 from the BS with feasible distance 30: single hop, no
        // steiner relays.
        let sc = scenario(vec![(0.0, 0.0, 30.0)], vec![(20.0, 0.0)]);
        let plan = mbmc(&sc, &one_relay_solution(&sc)).unwrap();
        assert_eq!(plan.n_relays(), 0);
        assert_eq!(plan.chains[0].hops, 1);
        assert!((plan.chains[0].hop_length - 20.0).abs() < 1e-9);
    }

    #[test]
    fn steinerization_counts() {
        // Distance 100, feasible 30 → ceil(100/30) = 4 hops → 3 relays.
        let sc = scenario(vec![(0.0, 0.0, 30.0)], vec![(100.0, 0.0)]);
        let plan = mbmc(&sc, &one_relay_solution(&sc)).unwrap();
        assert_eq!(plan.chains[0].hops, 4);
        assert_eq!(plan.n_relays(), 3);
        assert!((plan.chains[0].hop_length - 25.0).abs() < 1e-9);
        // Relays equally spaced on the segment.
        assert!(plan.relays[0].approx_eq(Point::new(25.0, 0.0)));
        assert!(plan.relays[2].approx_eq(Point::new(75.0, 0.0)));
    }

    #[test]
    fn nearest_bs_chosen() {
        let sc = scenario(vec![(0.0, 0.0, 30.0)], vec![(300.0, 0.0), (-60.0, 0.0)]);
        let plan = mbmc(&sc, &one_relay_solution(&sc)).unwrap();
        assert_eq!(plan.serving_bs[0], 1);
        // ceil(60/30) = 2 hops → 1 relay.
        assert_eq!(plan.n_relays(), 1);
    }

    #[test]
    fn must_forces_far_bs() {
        let sc = scenario(vec![(0.0, 0.0, 30.0)], vec![(300.0, 0.0), (-60.0, 0.0)]);
        let near = mbmc(&sc, &one_relay_solution(&sc)).unwrap();
        let far = must(&sc, &one_relay_solution(&sc), 0).unwrap();
        assert_eq!(far.serving_bs[0], 0);
        assert!(far.n_relays() > near.n_relays());
    }

    #[test]
    fn must_rejects_bad_bs_index() {
        let sc = scenario(vec![(0.0, 0.0, 30.0)], vec![(0.0, 50.0)]);
        assert!(must(&sc, &one_relay_solution(&sc), 3).is_err());
    }

    #[test]
    fn relay_chaining_through_other_relay() {
        // Two coverage relays in a line before the BS: the MST should
        // chain them (relay0 → relay1 → BS) rather than both going direct.
        let sc = scenario(
            vec![(0.0, 0.0, 30.0), (80.0, 0.0, 30.0)],
            vec![(160.0, 0.0)],
        );
        let coverage = CoverageSolution {
            relays: vec![Point::new(0.0, 0.0), Point::new(80.0, 0.0)],
            assignment: vec![0, 1],
        };
        let plan = mbmc(&sc, &coverage).unwrap();
        // Chain of relay 0 should end at relay 1, not the BS.
        let chain0 = &plan.chains[0];
        assert!(chain0.parent_pos.approx_eq(Point::new(80.0, 0.0)));
        // Total: 80/30→3 hops ×2 edges → 2+2 steiner relays.
        assert_eq!(plan.n_relays(), 4);
        assert_eq!(plan.links().len(), 6);
    }

    #[test]
    fn effective_distance_propagates_to_ancestors() {
        // Child relay has a tighter feasible distance than its parent;
        // the parent's uplink must honour the child's distance.
        let sc = scenario(
            vec![(0.0, 0.0, 10.0), (80.0, 0.0, 40.0)],
            vec![(160.0, 0.0)],
        );
        let coverage = CoverageSolution {
            relays: vec![Point::new(0.0, 0.0), Point::new(80.0, 0.0)],
            assignment: vec![0, 1],
        };
        let plan = mbmc(&sc, &coverage).unwrap();
        // Relay 0 (d=10) hangs under relay 1 (d=40): eff(1) = 10.
        assert!((plan.effective_distance[1] - 10.0).abs() < 1e-9);
        let chain1 = plan.chains.iter().find(|c| c.child == 1).unwrap();
        assert_eq!(chain1.hops, 8); // ceil(80/10)
    }

    #[test]
    fn links_are_contiguous() {
        let sc = scenario(vec![(0.0, 0.0, 30.0)], vec![(100.0, 0.0)]);
        let plan = mbmc(&sc, &one_relay_solution(&sc)).unwrap();
        let links = plan.links();
        assert_eq!(links.len(), 4);
        for w in links.windows(2) {
            assert!(w[0].1.approx_eq(w[1].0), "chain must be contiguous");
        }
        assert!(links.last().unwrap().1.approx_eq(Point::new(100.0, 0.0)));
    }
}

#[cfg(test)]
mod weight_rule_tests {
    use super::*;
    use crate::model::{BaseStation, NetworkParams, Scenario, Subscriber};
    use sag_geom::Rect;

    fn scenario() -> (Scenario, CoverageSolution) {
        let sc = Scenario::new(
            Rect::centered_square(600.0),
            vec![
                Subscriber::new(Point::new(0.0, 0.0), 30.0),
                Subscriber::new(Point::new(100.0, 20.0), 40.0),
                Subscriber::new(Point::new(-80.0, -120.0), 35.0),
            ],
            vec![BaseStation::new(Point::new(250.0, 250.0))],
            NetworkParams::default(),
        )
        .unwrap();
        let cov = CoverageSolution {
            relays: vec![
                Point::new(0.0, 0.0),
                Point::new(100.0, 20.0),
                Point::new(-80.0, -120.0),
            ],
            assignment: vec![0, 1, 2],
        };
        (sc, cov)
    }

    #[test]
    fn all_rules_produce_valid_plans() {
        let (sc, cov) = scenario();
        for rule in [
            WeightRule::HopCountDmin,
            WeightRule::Euclidean,
            WeightRule::HopCountOwn,
        ] {
            let plan = mbmc_with_weights(&sc, &cov, rule).unwrap();
            assert_eq!(plan.chains.len(), cov.n_relays());
            for chain in &plan.chains {
                let eff = plan.effective_distance[chain.child];
                assert!(chain.hop_length <= eff + 1e-9, "{rule:?} broke hop bound");
            }
        }
    }

    #[test]
    fn default_rule_is_papers() {
        let (sc, cov) = scenario();
        let default_plan = mbmc(&sc, &cov).unwrap();
        let paper_plan = mbmc_with_weights(&sc, &cov, WeightRule::HopCountDmin).unwrap();
        assert_eq!(default_plan.n_relays(), paper_plan.n_relays());
    }

    #[test]
    fn rules_may_differ_but_stay_close() {
        let (sc, cov) = scenario();
        let counts: Vec<usize> = [
            WeightRule::HopCountDmin,
            WeightRule::Euclidean,
            WeightRule::HopCountOwn,
        ]
        .into_iter()
        .map(|r| mbmc_with_weights(&sc, &cov, r).unwrap().n_relays())
        .collect();
        let max = *counts.iter().max().unwrap();
        let min = *counts.iter().min().unwrap();
        // Alternative weightings reshuffle the tree but cannot blow up the
        // steiner count arbitrarily on such a small instance.
        assert!(max <= min * 2 + 2, "counts diverged: {counts:?}");
    }
}
