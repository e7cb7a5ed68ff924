//! k-coverage relay placement — the dual-relay MMR architecture.
//!
//! **Extension beyond the paper.** The paper's related work (\[8\], \[9\]:
//! Lin et al., IEEE 802.16j dual-relay MMR networks) covers every
//! subscriber by *two* relay stations for resilience. This module
//! generalises the lower tier to `k`-coverage: place a minimum set of
//! relay positions such that every subscriber has at least `k` distinct
//! relays inside its feasible circle, then derive primary/backup
//! assignments (primary = nearest, backups in distance order).
//!
//! Solvers: a greedy set-multicover heuristic (ln-factor approximation)
//! and an exact ILP via `sag-lp` for small instances. The candidate set
//! extends the hitting-set normalisation with per-disk auxiliary rings,
//! because a disk that intersects no other disk still needs `k` distinct
//! in-disk candidates.

use sag_geom::{arc, Point};
use sag_lp::{IlpProblem, LpProblem, Relation};

use crate::error::{SagError, SagResult};
use crate::model::Scenario;

/// A k-coverage placement.
#[derive(Debug, Clone, PartialEq)]
pub struct KCoverageSolution {
    /// Placed relay positions.
    pub relays: Vec<Point>,
    /// For each subscriber, the serving relays in increasing distance
    /// (length ≥ `k`; `[0]` is the primary).
    pub servers: Vec<Vec<usize>>,
    /// The coverage multiplicity that was requested.
    pub k: usize,
}

impl KCoverageSolution {
    /// Number of placed relays.
    pub fn n_relays(&self) -> usize {
        self.relays.len()
    }

    /// The primary assignment (nearest server per subscriber), in the
    /// shape the single-coverage pipeline expects.
    pub fn primary_assignment(&self) -> Vec<usize> {
        self.servers.iter().map(|s| s[0]).collect()
    }
}

/// Which solver to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KCoverStrategy {
    /// Greedy set multicover: pick the candidate covering the most
    /// still-deficient subscribers. `H_n`-approximate, fast.
    #[default]
    Greedy,
    /// Exact ILP (branch-and-bound over the LP relaxation) — small
    /// instances only.
    Exact,
}

/// Candidate positions for k-coverage: disk centres, pairwise circle
/// intersections, plus an auxiliary ring of `2k` points at half-radius
/// inside every disk (guaranteeing `k` distinct in-disk candidates even
/// for isolated subscribers).
pub fn k_cover_candidates(scenario: &Scenario, k: usize) -> Vec<Point> {
    let circles = scenario.feasible_circles();
    let mut cands: Vec<Point> = circles.iter().map(|c| c.center).collect();
    for (i, a) in circles.iter().enumerate() {
        for b in circles.iter().skip(i + 1) {
            cands.extend(a.intersection_points(b));
        }
    }
    for c in &circles {
        let ring = sag_geom::Circle::new(c.center, c.radius / 2.0);
        cands.extend(arc::sample_circle(&ring, (2 * k).max(4), 0.0));
    }
    crate::candidates::dedup_points(cands)
        .into_iter()
        .filter(|p| scenario.field.contains(*p))
        .collect()
}

/// Solves the k-coverage placement.
///
/// # Errors
/// [`SagError::Infeasible`] when some subscriber cannot reach `k`
/// distinct candidates (never happens for `k ≤ 2·k` ring sizes unless
/// the field clips the ring), or the exact solver proves infeasibility.
///
/// # Panics
/// Panics if `k == 0`.
pub fn solve_k_coverage(
    scenario: &Scenario,
    k: usize,
    strategy: KCoverStrategy,
) -> SagResult<KCoverageSolution> {
    assert!(k >= 1, "coverage multiplicity must be ≥ 1");
    let candidates = k_cover_candidates(scenario, k);
    let circles = scenario.feasible_circles();
    // hits[j] = candidates inside subscriber j's circle.
    let hits: Vec<Vec<usize>> = circles
        .iter()
        .map(|c| {
            (0..candidates.len())
                .filter(|&i| c.contains(candidates[i]))
                .collect::<Vec<_>>()
        })
        .collect();
    for (j, h) in hits.iter().enumerate() {
        if h.len() < k {
            return Err(SagError::Infeasible(format!(
                "k-coverage: subscriber {j} reaches only {} candidates (< {k})",
                h.len()
            )));
        }
    }

    let chosen: Vec<usize> = match strategy {
        KCoverStrategy::Greedy => greedy_multicover(candidates.len(), &hits, k),
        KCoverStrategy::Exact => exact_multicover(candidates.len(), &hits, k)?,
    };

    let relays: Vec<Point> = chosen.iter().map(|&c| candidates[c]).collect();
    let servers = server_lists(scenario, &relays, k)?;
    Ok(KCoverageSolution { relays, servers, k })
}

/// Greedy set multicover: each round picks the candidate reducing the
/// total residual demand the most.
fn greedy_multicover(n_cands: usize, hits: &[Vec<usize>], k: usize) -> Vec<usize> {
    let n_subs = hits.len();
    let mut deficit: Vec<usize> = vec![k; n_subs];
    // covers[c] = subscribers candidate c helps.
    let mut covers: Vec<Vec<usize>> = vec![Vec::new(); n_cands];
    for (j, h) in hits.iter().enumerate() {
        for &c in h {
            covers[c].push(j);
        }
    }
    let mut chosen = Vec::new();
    let mut taken = vec![false; n_cands];
    while deficit.iter().any(|&d| d > 0) {
        let (best, gain) = (0..n_cands)
            .filter(|&c| !taken[c])
            .map(|c| (c, covers[c].iter().filter(|&&j| deficit[j] > 0).count()))
            .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))
            .expect("feasibility pre-checked: some candidate still helps");
        debug_assert!(gain > 0, "progress must be possible");
        taken[best] = true;
        chosen.push(best);
        for &j in &covers[best] {
            deficit[j] = deficit[j].saturating_sub(1);
        }
    }
    chosen.sort_unstable();
    chosen
}

/// Exact set multicover via binary ILP: `min Σ T_i` s.t.
/// `Σ_{i ∈ hits(j)} T_i ≥ k` for all `j`.
fn exact_multicover(n_cands: usize, hits: &[Vec<usize>], k: usize) -> SagResult<Vec<usize>> {
    let mut lp = LpProblem::minimize(n_cands);
    lp.set_objective(&vec![1.0; n_cands]);
    for h in hits {
        let row: Vec<(usize, f64)> = h.iter().map(|&c| (c, 1.0)).collect();
        lp.add_constraint(&row, Relation::Ge, k as f64);
    }
    let mut ilp = IlpProblem::new(lp);
    for c in 0..n_cands {
        ilp.set_binary(c);
    }
    let sol = ilp.solve().map_err(SagError::from)?;
    Ok((0..n_cands).filter(|&c| sol.x[c] > 0.5).collect())
}

/// Builds the per-subscriber server lists (distance order), verifying
/// the multiplicity.
fn server_lists(scenario: &Scenario, relays: &[Point], k: usize) -> SagResult<Vec<Vec<usize>>> {
    let mut out = Vec::with_capacity(scenario.n_subscribers());
    for (j, sub) in scenario.subscribers.iter().enumerate() {
        let mut in_range: Vec<usize> = (0..relays.len())
            .filter(|&r| relays[r].distance(sub.position) <= sub.distance_req + 1e-9)
            .collect();
        in_range.sort_by(|&a, &b| {
            sag_geom::float::total_cmp(
                &relays[a].distance(sub.position),
                &relays[b].distance(sub.position),
            )
        });
        if in_range.len() < k {
            return Err(SagError::Infeasible(format!(
                "k-coverage: subscriber {j} ended with {} servers (< {k})",
                in_range.len()
            )));
        }
        out.push(in_range);
    }
    Ok(out)
}

/// Validates a k-coverage solution: every subscriber's first `k` servers
/// are distinct relays within its feasible distance.
pub fn is_k_feasible(scenario: &Scenario, sol: &KCoverageSolution) -> bool {
    if sol.servers.len() != scenario.n_subscribers() {
        return false;
    }
    for (j, servers) in sol.servers.iter().enumerate() {
        if servers.len() < sol.k {
            return false;
        }
        let sub = &scenario.subscribers[j];
        let mut seen = std::collections::HashSet::new();
        for &r in &servers[..sol.k] {
            if r >= sol.relays.len() || !seen.insert(r) {
                return false;
            }
            if sol.relays[r].distance(sub.position) > sub.distance_req + 1e-9 {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{BaseStation, NetworkParams, Scenario, Subscriber};
    use crate::samc::samc;
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
    fn single_subscriber_dual_coverage() {
        let sc = scenario(vec![(0.0, 0.0, 30.0)]);
        let sol = solve_k_coverage(&sc, 2, KCoverStrategy::Greedy).unwrap();
        assert!(is_k_feasible(&sc, &sol));
        assert_eq!(sol.n_relays(), 2);
        assert_eq!(sol.servers[0].len(), 2);
    }

    #[test]
    fn k1_matches_plain_coverage_size_loosely() {
        let sc = scenario(vec![
            (0.0, 0.0, 35.0),
            (30.0, 0.0, 35.0),
            (150.0, 0.0, 30.0),
        ]);
        let k1 = solve_k_coverage(&sc, 1, KCoverStrategy::Exact).unwrap();
        assert!(is_k_feasible(&sc, &k1));
        // k = 1 exact multicover is exactly minimum hitting set: 2 here.
        assert_eq!(k1.n_relays(), 2);
        let samc_sol = samc(&sc).unwrap();
        assert_eq!(samc_sol.n_relays(), k1.n_relays());
    }

    #[test]
    fn dual_needs_no_more_than_double() {
        let sc = scenario(vec![
            (0.0, 0.0, 35.0),
            (30.0, 0.0, 35.0),
            (150.0, 40.0, 30.0),
            (-120.0, -90.0, 32.0),
        ]);
        let k1 = solve_k_coverage(&sc, 1, KCoverStrategy::Exact).unwrap();
        let k2 = solve_k_coverage(&sc, 2, KCoverStrategy::Exact).unwrap();
        assert!(is_k_feasible(&sc, &k2));
        assert!(k2.n_relays() >= k1.n_relays());
        assert!(k2.n_relays() <= 2 * k1.n_relays());
    }

    #[test]
    fn greedy_at_least_exact() {
        let sc = scenario(vec![
            (0.0, 0.0, 35.0),
            (40.0, 0.0, 35.0),
            (20.0, 35.0, 35.0),
        ]);
        let g = solve_k_coverage(&sc, 2, KCoverStrategy::Greedy).unwrap();
        let e = solve_k_coverage(&sc, 2, KCoverStrategy::Exact).unwrap();
        assert!(is_k_feasible(&sc, &g));
        assert!(is_k_feasible(&sc, &e));
        assert!(e.n_relays() <= g.n_relays());
    }

    #[test]
    fn primary_assignment_is_nearest() {
        let sc = scenario(vec![(0.0, 0.0, 30.0), (100.0, 0.0, 30.0)]);
        let sol = solve_k_coverage(&sc, 2, KCoverStrategy::Greedy).unwrap();
        let primary = sol.primary_assignment();
        for (j, &r) in primary.iter().enumerate() {
            let dp = sol.relays[r].distance(sc.subscribers[j].position);
            for &other in &sol.servers[j] {
                let d = sol.relays[other].distance(sc.subscribers[j].position);
                assert!(dp <= d + 1e-9);
            }
        }
    }

    #[test]
    fn shared_dual_relays_across_overlap() {
        // Two heavily-overlapping subscribers: two shared relays cover
        // both twice.
        let sc = scenario(vec![(0.0, 0.0, 40.0), (10.0, 0.0, 40.0)]);
        let sol = solve_k_coverage(&sc, 2, KCoverStrategy::Exact).unwrap();
        assert_eq!(sol.n_relays(), 2);
    }

    #[test]
    fn validation_catches_duplicates() {
        let sc = scenario(vec![(0.0, 0.0, 30.0)]);
        let bogus = KCoverageSolution {
            relays: vec![Point::new(1.0, 0.0)],
            servers: vec![vec![0, 0]],
            k: 2,
        };
        assert!(!is_k_feasible(&sc, &bogus));
    }

    #[test]
    #[should_panic]
    fn zero_k_panics() {
        let sc = scenario(vec![(0.0, 0.0, 30.0)]);
        let _ = solve_k_coverage(&sc, 0, KCoverStrategy::Greedy);
    }
}
