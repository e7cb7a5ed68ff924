//! Greedy set-cover fallback for the lower tier.
//!
//! When the exact [`crate::ilpqc`] branch-and-bound exhausts its
//! [`sag_lp::Budget`] before finding *any* incumbent, the pipeline
//! degrades to this solver instead of failing: a classic greedy set
//! cover over the same candidate set (pick the candidate covering the
//! most still-uncovered subscribers), followed by the nearest-eligible
//! assignment and a bounded SNR-repair loop that inserts closer eligible
//! candidates for violated subscribers — the same repair move the exact
//! search branches on, applied greedily.
//!
//! The building blocks (eligibility lists, greedy selection, the SNR
//! repair + prune pass) are shared `pub(crate)` helpers: the `LpRound`
//! and `LocalSearch` backends in [`crate::solver`] reuse them so every
//! rung of the ladder agrees on what "eligible" and "repaired" mean.
//!
//! The result is feasible whenever the repair loop converges, but
//! carries no optimality certificate; [`crate::sag::SagReport`] records
//! that the greedy solver answered so downstream consumers can tell the
//! difference.

use sag_geom::Point;

use crate::coverage::{snr_violations, CoverageSolution};
use crate::error::{SagError, SagResult};
use crate::model::Scenario;

/// Eligibility lists: `eligible[j]` = candidate indices (ascending)
/// within subscriber `j`'s feasible distance. The shared first step of
/// every candidate-set backend, so they cannot disagree on coverage.
///
/// # Errors
/// [`SagError::Infeasible`] when some subscriber has no eligible
/// candidate at all; `stage` names the solver for the error payload.
pub(crate) fn eligibility(
    scenario: &Scenario,
    candidates: &[Point],
    stage: &str,
) -> SagResult<Vec<Vec<usize>>> {
    let n_cands = candidates.len();
    let mut eligible: Vec<Vec<usize>> = Vec::with_capacity(scenario.n_subscribers());
    for sub in &scenario.subscribers {
        let circle = sub.feasible_circle();
        let e: Vec<usize> = (0..n_cands)
            .filter(|&c| circle.contains(candidates[c]))
            .collect();
        if e.is_empty() {
            return Err(SagError::Infeasible(format!(
                "{stage}: a subscriber has no candidate within distance"
            )));
        }
        eligible.push(e);
    }
    Ok(eligible)
}

/// Nearest-eligible assignment: for each subscriber, the position (index
/// into `selected`) of its closest selected eligible candidate. With all
/// relays at `Pmax` this is the SNR-optimal assignment, because the total
/// received power is assignment-independent.
///
/// # Errors
/// The first subscriber none of whose eligible candidates is selected.
pub(crate) fn nearest_assignment(
    scenario: &Scenario,
    candidates: &[Point],
    eligible: &[Vec<usize>],
    selected: &[usize],
) -> Result<Vec<usize>, usize> {
    let mut out = Vec::with_capacity(scenario.n_subscribers());
    for (j, e) in eligible.iter().enumerate() {
        let spos = scenario.subscribers[j].position;
        let best = e
            .iter()
            .filter_map(|c| selected.binary_search(c).ok())
            .min_by(|&a, &b| {
                sag_geom::float::total_cmp(
                    &candidates[selected[a]].distance(spos),
                    &candidates[selected[b]].distance(spos),
                )
            })
            .ok_or(j)?;
        out.push(best);
    }
    Ok(out)
}

/// Greedy set cover over precomputed eligibility lists: repeatedly take
/// the candidate covering the most still-uncovered subscribers. Returns
/// the selected candidate indices, sorted ascending.
///
/// # Errors
/// [`SagError::Infeasible`] when no remaining candidate covers an
/// uncovered subscriber (only possible with inconsistent lists).
pub(crate) fn greedy_select(
    eligible: &[Vec<usize>],
    n_cands: usize,
    stage: &str,
) -> SagResult<Vec<usize>> {
    let n_subs = eligible.len();
    let mut selected: Vec<usize> = Vec::new();
    let mut covered = vec![false; n_subs];
    while covered.iter().any(|&c| !c) {
        let best = (0..n_cands)
            .filter(|c| !selected.contains(c))
            .max_by_key(|&c| {
                eligible
                    .iter()
                    .enumerate()
                    .filter(|(j, e)| !covered[*j] && e.contains(&c))
                    .count()
            })
            .filter(|&c| {
                eligible
                    .iter()
                    .enumerate()
                    .any(|(j, e)| !covered[j] && e.contains(&c))
            });
        let Some(c) = best else {
            return Err(SagError::Infeasible(format!(
                "{stage}: greedy cover stalled before covering every subscriber"
            )));
        };
        selected.push(c);
        for (j, e) in eligible.iter().enumerate() {
            if e.contains(&c) {
                covered[j] = true;
            }
        }
    }
    selected.sort_unstable();
    Ok(selected)
}

/// SNR repair + prune over a distance-complete selection (sorted
/// candidate indices): while some subscriber is violated, add the
/// closest not-yet-selected eligible candidate strictly closer than its
/// current server — the same repair move the exact search branches on,
/// applied greedily — then drop selected candidates that serve nobody.
/// Bounded by the candidate pool size.
///
/// # Errors
/// [`SagError::Infeasible`] when the repair loop exhausts the candidate
/// pool without clearing every SNR violation, or the selection does not
/// cover every subscriber.
pub(crate) fn repair_and_prune(
    scenario: &Scenario,
    candidates: &[Point],
    eligible: &[Vec<usize>],
    mut selected: Vec<usize>,
    stage: &str,
) -> SagResult<CoverageSolution> {
    loop {
        let assignment =
            nearest_assignment(scenario, candidates, eligible, &selected).map_err(|_| {
                SagError::Infeasible(format!(
                    "{stage}: selection does not cover every subscriber"
                ))
            })?;
        let relays: Vec<Point> = selected.iter().map(|&c| candidates[c]).collect();
        let violated = snr_violations(scenario, &relays, &assignment);
        let Some(&j) = violated.first() else {
            return Ok(prune_unused(candidates, &selected, assignment));
        };
        let spos = scenario.subscribers[j].position;
        let cur_d = candidates[selected[assignment[j]]].distance(spos);
        let repair = eligible[j]
            .iter()
            .copied()
            .filter(|&c| {
                selected.binary_search(&c).is_err() && candidates[c].distance(spos) < cur_d - 1e-9
            })
            .min_by(|&a, &b| {
                sag_geom::float::total_cmp(
                    &candidates[a].distance(spos),
                    &candidates[b].distance(spos),
                )
            });
        let Some(c) = repair else {
            return Err(SagError::Infeasible(format!(
                "{stage}: SNR repair exhausted the candidate pool"
            )));
        };
        let pos = match selected.binary_search(&c) {
            Ok(p) | Err(p) => p,
        };
        selected.insert(pos, c);
    }
}

/// Greedy set cover + SNR repair over `candidates`.
///
/// Runs in `O(n_cands² · n_subs)` worst case and performs no LP solves,
/// so it terminates quickly even when the budget that stopped the exact
/// solver has already expired — it is the last rung of the degradation
/// ladder and deliberately ignores deadlines.
///
/// Under the zone-parallel lower tier ([`crate::engine`]) this runs
/// once per *zone* that exhausted its share of the budget, over that
/// zone's candidates — zones where the exact search finished keep
/// their optimal answer.
///
/// # Errors
/// [`SagError::Infeasible`] when some subscriber has no eligible
/// candidate, or the repair loop exhausts the candidate pool without
/// clearing every SNR violation.
pub fn greedy_cover(scenario: &Scenario, candidates: &[Point]) -> SagResult<CoverageSolution> {
    let _stage = sag_obs::span("greedy_fallback");
    let eligible = eligibility(scenario, candidates, "fallback")?;
    let selected = greedy_select(&eligible, candidates.len(), "fallback")?;
    repair_and_prune(scenario, candidates, &eligible, selected, "fallback")
}

/// Drops selected candidates that serve nobody under `assignment` (an
/// index into `selected` per subscriber) and remaps the assignment onto
/// the compacted relay list.
fn prune_unused(
    candidates: &[Point],
    selected: &[usize],
    assignment: Vec<usize>,
) -> CoverageSolution {
    let mut used = vec![false; selected.len()];
    for &a in &assignment {
        used[a] = true;
    }
    // SNR repair may have left earlier, farther servers idle; keeping
    // them would only add interference. Pruning can only improve SNR.
    let mut remap = vec![usize::MAX; selected.len()];
    let mut relays = Vec::new();
    for (i, &c) in selected.iter().enumerate() {
        if used[i] {
            remap[i] = relays.len();
            relays.push(candidates[c]);
        }
    }
    let assignment = assignment.into_iter().map(|a| remap[a]).collect();
    CoverageSolution { relays, assignment }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::iac_candidates;
    use crate::coverage::is_feasible;
    use crate::testing::scenario;

    #[test]
    fn covers_single_subscriber() {
        let sc = scenario(vec![(0.0, 0.0, 30.0)], -15.0);
        let sol = greedy_cover(&sc, &[Point::new(10.0, 0.0)]).unwrap();
        assert_eq!(sol.n_relays(), 1);
        assert!(is_feasible(&sc, &sol));
    }

    #[test]
    fn prefers_shared_candidate() {
        let sc = scenario(vec![(0.0, 0.0, 30.0), (40.0, 0.0, 30.0)], -15.0);
        let cands = vec![
            Point::new(20.0, 0.0), // covers both
            Point::new(0.0, 0.0),
            Point::new(40.0, 0.0),
        ];
        let sol = greedy_cover(&sc, &cands).unwrap();
        assert_eq!(sol.n_relays(), 1);
        assert!(sol.relays[0].approx_eq(Point::new(20.0, 0.0)));
    }

    #[test]
    fn infeasible_when_no_candidate_in_range() {
        let sc = scenario(vec![(0.0, 0.0, 30.0)], -15.0);
        assert!(matches!(
            greedy_cover(&sc, &[Point::new(100.0, 0.0)]),
            Err(SagError::Infeasible(_))
        ));
        assert!(matches!(
            greedy_cover(&sc, &[]),
            Err(SagError::Infeasible(_))
        ));
    }

    #[test]
    fn iac_candidates_feasible_end_to_end() {
        let sc = scenario(
            vec![
                (0.0, 0.0, 35.0),
                (40.0, 0.0, 35.0),
                (150.0, 10.0, 30.0),
                (180.0, -10.0, 30.0),
            ],
            -15.0,
        );
        let cands = iac_candidates(&sc);
        let sol = greedy_cover(&sc, &cands).unwrap();
        assert!(is_feasible(&sc, &sol));
    }

    #[test]
    fn snr_repair_produces_feasible_cover_under_strict_beta() {
        let sc = scenario(vec![(0.0, 0.0, 32.0), (60.0, 0.0, 32.0)], 5.0);
        let cands = vec![
            Point::new(5.0, 0.0),
            Point::new(55.0, 0.0),
            Point::new(0.0, 0.0),
            Point::new(60.0, 0.0),
            Point::new(30.0, 0.0),
        ];
        let sol = greedy_cover(&sc, &cands).unwrap();
        assert!(is_feasible(&sc, &sol));
    }

    #[test]
    fn eligibility_stage_names_the_caller() {
        let sc = scenario(vec![(0.0, 0.0, 30.0)], -15.0);
        match eligibility(&sc, &[Point::new(500.0, 0.0)], "lp_round") {
            Err(SagError::Infeasible(msg)) => assert!(msg.starts_with("lp_round:")),
            other => panic!("expected Infeasible, got {other:?}"),
        }
    }
}
