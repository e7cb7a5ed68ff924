//! RS Sliding Movement (Algorithm 4) and Update RS Topology
//! (Algorithm 5): the SNR-repair stage of SAMC.
//!
//! After the hitting set and Coverage Link Escape fix the coverage
//! topology, some subscribers may still miss their SNR threshold. The
//! repair moves relays *without changing who covers whom*:
//!
//! 1. every relay serving exactly one subscriber is moved onto that
//!    subscriber (maximum signal, least interference leakage — Alg. 4
//!    Step 2);
//! 2. for each relay covering a violated subscriber, a *virtual circle*
//!    is computed per violated subscriber — positions close enough that
//!    the serving signal beats `β ×` the current interference — and
//!    intersected with the feasible circles of all its other subscribers
//!    (the set `W` of Alg. 5). A relay whose `W` has common area is
//!    *updatable*; the witness point is its proposed new position;
//! 3. combinations of updatable relays are applied and every SNR
//!    re-checked; if violations shrink, the procedure recurses on the
//!    smaller violation set (Alg. 5 Step 3).
//!
//! The paper's "unlimited number of order combinations" is made finite
//! exactly as here: only the discrete updatable-relay subsets are tried.
//!
//! The repair returns its interference ledger, which SAMC hands on to
//! the zone merge and PRO (DESIGN.md, "One ledger per solve").

use sag_geom::{disks, Circle, Point};
use sag_radio::{InterferenceLedger, LedgerStats};

use crate::coverage::{
    flush_ledger_stats, handed_or_built, snr_violations_ledger, CoverageSolution, ServedIndex,
};
use crate::model::Scenario;

/// Upper bound on relays considered in one subset-enumeration round
/// (2^12 = 4096 combinations); beyond this the enumeration degrades to
/// greedy single moves, which keeps the stage polynomial in practice as
/// the paper requires.
const MAX_ENUMERATED: usize = 12;

/// Maximum recursion depth of Update RS Topology; each level strictly
/// shrinks the violation set, so `n_subscribers` levels always suffice.
fn max_depth(scenario: &Scenario) -> usize {
    scenario.n_subscribers() + 1
}

/// Work counters of one repair run, aggregated in plain locals and
/// flushed to the observability layer once at the end (the mask loop
/// itself stays uninstrumented).
#[derive(Default)]
struct SlideStats {
    /// Relay-move combinations evaluated by Update RS Topology.
    trials: u64,
    /// Relay moves committed into the accepted placement (snaps and
    /// mask moves on the successful path).
    accepted_moves: u64,
    /// Combinations rejected because the violation set did not shrink.
    mask_rejections: u64,
    /// Ledger work of the trial clones that were dropped, each counted
    /// from the moment it was cloned (a clone starts from the totals of
    /// the ledger it copies). An accepted clone becomes the repair
    /// ledger, whose work is counted once at the end.
    dropped_trials: LedgerStats,
}

/// Runs the sliding-movement repair on a placement with a fixed
/// assignment. Returns the repaired solution, or `None` when the repair
/// fails (SAMC then reports infeasibility for the zone).
///
/// The input `assignment` must assign every subscriber to a relay index
/// within `relays`.
///
/// # Panics
/// Panics if `assignment` is inconsistent with `relays`/`scenario`.
pub fn rs_sliding_movement(
    scenario: &Scenario,
    relays: Vec<Point>,
    assignment: Vec<usize>,
) -> Option<CoverageSolution> {
    slide_on(scenario, None, relays, assignment).map(|(solution, _)| solution)
}

/// [`rs_sliding_movement`] returning the solution with its ledger, an
/// accepted trial's clone when one was accepted, compacted to the
/// returned relays: bit-identical to a fresh
/// [`crate::coverage::interference_ledger`] over `solution.relays`.
/// `handed` holds `relays` at unit power under ids equal to their
/// indices (the zone merge's ledger); `None` builds one. The ledger's
/// work is flushed here: all of it when built here, what followed the
/// handoff otherwise.
pub(crate) fn slide_on(
    scenario: &Scenario,
    handed: Option<InterferenceLedger>,
    relays: Vec<Point>,
    assignment: Vec<usize>,
) -> Option<(CoverageSolution, InterferenceLedger)> {
    let _span = sag_obs::span("sliding");
    let mut stats = SlideStats::default();
    // One interference ledger for the whole repair: relay ids coincide
    // with indices into `relays`, every slide below is a `move_relay`
    // delta, and each violation scan is O(S) instead of O(S·R²).
    let (mut ledger, flushed) = handed_or_built(scenario, handed, &relays);
    let out = sliding_inner(scenario, &mut ledger, relays, assignment, &mut stats);
    if sag_obs::enabled() {
        sag_obs::counter("sliding.trials", stats.trials);
        sag_obs::counter("sliding.accepted_moves", stats.accepted_moves);
        sag_obs::counter("sliding.mask_rejections", stats.mask_rejections);
    }
    // One flush per call, on every exit: the repair ledger's work (an
    // accepted trial's included) plus every dropped trial clone's.
    let mut work = stats.dropped_trials;
    work += ledger.stats() - flushed;
    flush_ledger_stats(work);
    out.map(|solution| (solution, ledger))
}

fn sliding_inner(
    scenario: &Scenario,
    ledger: &mut InterferenceLedger,
    mut relays: Vec<Point>,
    mut assignment: Vec<usize>,
    stats: &mut SlideStats,
) -> Option<CoverageSolution> {
    assert_eq!(
        assignment.len(),
        scenario.n_subscribers(),
        "assignment length mismatch"
    );
    assert!(
        assignment.iter().all(|&r| r < relays.len()),
        "assignment references a relay out of range"
    );

    // Refinement loop: snap one-on-one relays (Alg. 4 Step 2) and
    // re-serve violated subscribers from their nearest in-range relay.
    // The ILP's `T_ij` is a free variable, so reassignment never leaves
    // the formulation — and with uniform powers the nearest relay is the
    // SNR-optimal server (the interference sum is assignment-
    // independent). Without this, a relay parked *on top of* a
    // subscriber served by someone else jams it unfixably: Algorithm 5
    // only ever moves relays that serve violated subscribers.
    for _ in 0..=scenario.n_subscribers() {
        let served = ServedIndex::build(relays.len(), &assignment);
        for (r, pos) in relays.iter_mut().enumerate() {
            if let [only] = served.of(r) {
                let target = scenario.subscribers[*only].position;
                if !pos.approx_eq(target) {
                    stats.accepted_moves += 1;
                }
                *pos = target;
                ledger.move_relay(r, *pos);
            }
        }
        let violated = snr_violations_ledger(scenario, ledger, &assignment);
        if violated.is_empty() {
            drop_unused_relays(&mut relays, &mut assignment, ledger);
            return Some(CoverageSolution { relays, assignment });
        }
        let mut changed = false;
        for &j in &violated {
            let sub = &scenario.subscribers[j];
            let cur_d = relays[assignment[j]].distance(sub.position);
            let nearer = relays
                .iter()
                .enumerate()
                .filter(|&(r, p)| {
                    r != assignment[j]
                        && p.distance(sub.position) <= sub.distance_req + 1e-9
                        && p.distance(sub.position) < cur_d - 1e-9
                })
                .min_by(|a, b| {
                    sag_geom::float::total_cmp(
                        &a.1.distance(sub.position),
                        &b.1.distance(sub.position),
                    )
                });
            if let Some((r, _)) = nearer {
                assignment[j] = r;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    let violated = snr_violations_ledger(scenario, ledger, &assignment);
    if violated.is_empty() {
        drop_unused_relays(&mut relays, &mut assignment, ledger);
        return Some(CoverageSolution { relays, assignment });
    }
    // Build `served` fresh from the final assignment (the refinement loop
    // may have exited right after a reassignment) so Update RS Topology
    // sees every relay's true subscriber set — otherwise a move could
    // leave a reassigned subscriber outside its feasible circle.
    let served = ServedIndex::build(relays.len(), &assignment);
    let (mut relays, accepted) = update_rs_topology(
        scenario,
        relays,
        ledger,
        &assignment,
        &served,
        violated,
        max_depth(scenario),
        stats,
    )?;
    *ledger = accepted;
    drop_unused_relays(&mut relays, &mut assignment, ledger);
    Some(CoverageSolution { relays, assignment })
}

/// Removes relays that serve no subscriber (possible after violated
/// subscribers were re-served elsewhere), remapping the assignment.
/// Constraint (3.2) — every placed relay covers at least one SS — is
/// thereby restored, and the relay count can only shrink. The ledger is
/// compacted to match, which also re-sums away the repair's drift.
fn drop_unused_relays(
    relays: &mut Vec<Point>,
    assignment: &mut [usize],
    ledger: &mut InterferenceLedger,
) {
    let mut used = vec![false; relays.len()];
    for &r in assignment.iter() {
        used[r] = true;
    }
    ledger.compact(|id| used[id]);
    if used.iter().all(|&u| u) {
        return;
    }
    let mut remap = vec![usize::MAX; relays.len()];
    let mut kept = Vec::with_capacity(relays.len());
    for (r, &u) in used.iter().enumerate() {
        if u {
            remap[r] = kept.len();
            kept.push(relays[r]);
        }
    }
    for a in assignment.iter_mut() {
        *a = remap[*a];
    }
    *relays = kept;
}

/// The virtual circle of Algorithm 5: positions for the serving relay
/// from which subscriber `j`'s SNR clears β given the *current* positions
/// of all other relays (read from the ledger). `None` when no position
/// can (required radius is non-positive).
///
/// The ledger holds unit powers, so the `Pmax` interference of the
/// paper is `Pmax ×` the ledger's aggregate — the per-relay sum itself
/// is the one ledger-backed implementation shared with coverage/PRO.
fn virtual_circle(
    scenario: &Scenario,
    ledger: &InterferenceLedger,
    j: usize,
    serving: usize,
) -> Option<Circle> {
    let beta = scenario.params.link.beta();
    let model = scenario.params.link.model();
    let pmax = scenario.params.link.pmax();
    let interference = pmax * ledger.interference_at(j, serving);
    let sub = &scenario.subscribers[j];
    // Signal needed: Pmax·G·d^{-α} ≥ β·I  →  d ≤ (Pmax·G / (β·I))^{1/α}.
    let d_snr = if interference <= 0.0 {
        f64::INFINITY
    } else {
        model.max_range(pmax, beta * interference)
    };
    let radius = d_snr.min(sub.distance_req);
    (radius > 1e-9).then(|| Circle::new(sub.position, radius.min(1e9)))
}

/// One Update RS Topology round (Algorithm 5), recursing while the
/// violation set shrinks. Returns the repaired positions with the
/// accepted trial's ledger.
#[allow(clippy::too_many_arguments)]
fn update_rs_topology(
    scenario: &Scenario,
    relays: Vec<Point>,
    ledger: &InterferenceLedger,
    assignment: &[usize],
    served: &ServedIndex,
    violated: Vec<usize>,
    depth: usize,
    stats: &mut SlideStats,
) -> Option<(Vec<Point>, InterferenceLedger)> {
    if depth == 0 {
        return None;
    }
    let beta = scenario.params.link.beta();
    // Relays covering violated subscribers (R_u of the paper).
    let mut updatable: Vec<(usize, Point)> = Vec::new();
    let mut r_u: Vec<usize> = violated.iter().map(|&j| assignment[j]).collect();
    r_u.sort_unstable();
    r_u.dedup();
    for &r in &r_u {
        // W = feasible circles of satisfied covered SS ∪ virtual circles
        // of violated covered SS.
        let mut w: Vec<Circle> = Vec::new();
        let mut possible = true;
        for &j in served.of(r) {
            let ok = ledger.snr(j, r) >= beta - 1e-12;
            if ok {
                w.push(scenario.subscribers[j].feasible_circle());
            } else {
                match virtual_circle(scenario, ledger, j, r) {
                    Some(c) => w.push(c),
                    None => {
                        possible = false;
                        break;
                    }
                }
            }
        }
        if !possible {
            continue; // unupdatable (Alg. 5 Step 2 "mark as unupdatable")
        }
        if let Some(target) = disks::deep_common_point(&w) {
            if target.distance(relays[r]) > 1e-9 {
                updatable.push((r, target));
            }
        }
    }
    if updatable.is_empty() {
        return None;
    }
    updatable.truncate(MAX_ENUMERATED);

    // Try combinations of updatable relays, smallest first (Alg. 5 Step 3
    // tries "any combination"; ordering by size prefers minimal moves).
    // Each trial clones the ledger (O(S·R): the path-factor columns come
    // along, one memcpy) and applies ≤ MAX_ENUMERATED move deltas, each
    // computing one column — the full violation rescan the old code did
    // per mask was the hottest loop of the whole stage.
    let m = updatable.len();
    let mut masks: Vec<u32> = (1u32..(1 << m)).collect();
    masks.sort_by_key(|mask| mask.count_ones());
    // A trial clone starts from `ledger`'s totals; only what it does
    // after the clone is its own work.
    let base = ledger.stats();
    for mask in masks {
        stats.trials += 1;
        let mut moved = relays.clone();
        let mut moved_ledger = ledger.clone();
        for (bit, &(r, target)) in updatable.iter().enumerate() {
            if mask & (1 << bit) != 0 {
                moved[r] = target;
                moved_ledger.move_relay(r, target);
            }
        }
        let now_violated = snr_violations_ledger(scenario, &moved_ledger, assignment);
        if now_violated.is_empty() {
            stats.accepted_moves += u64::from(mask.count_ones());
            return Some((moved, moved_ledger));
        }
        let repaired = if now_violated.len() >= violated.len() {
            stats.mask_rejections += 1;
            None
        } else {
            // Alg. 5: recurse on the strictly smaller violation set.
            update_rs_topology(
                scenario,
                moved,
                &moved_ledger,
                assignment,
                served,
                now_violated,
                depth - 1,
                stats,
            )
        };
        if repaired.is_some() {
            stats.accepted_moves += u64::from(mask.count_ones());
            return repaired;
        }
        // This clone is dropped (an accepted deeper trial would be a
        // clone of it, carrying its work).
        stats.dropped_trials += moved_ledger.stats() - base;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coverage::{interference_ledger, is_feasible, snr_violations};
    use crate::testing::scenario;

    #[test]
    fn already_feasible_passes_through() {
        let sc = scenario(vec![(0.0, 0.0, 30.0), (200.0, 0.0, 30.0)], -15.0);
        let relays = vec![Point::new(5.0, 0.0), Point::new(195.0, 0.0)];
        let sol = rs_sliding_movement(&sc, relays, vec![0, 1]).expect("feasible");
        assert!(is_feasible(&sc, &sol));
        // One-on-one relays snapped onto their subscribers.
        assert!(sol.relays[0].approx_eq(Point::new(0.0, 0.0)));
        assert!(sol.relays[1].approx_eq(Point::new(200.0, 0.0)));
    }

    #[test]
    fn one_on_one_snap_fixes_snr() {
        // Relays parked at the far edges of their circles: SS0 sees
        // serving 29 vs interferer 41 → SNR = (41/29)³ ≈ 2.8 (4.5 dB),
        // violated at 5 dB. Snapping one-on-one relays onto their
        // subscribers repairs it.
        let strict = scenario(vec![(0.0, 0.0, 30.0), (70.0, 0.0, 30.0)], 5.0);
        let relays = vec![Point::new(29.0, 0.0), Point::new(41.0, 0.0)];
        let assignment = vec![0, 1];
        let viol = snr_violations(&strict, &relays, &assignment);
        assert!(!viol.is_empty(), "setup should start violated");
        let sol = rs_sliding_movement(&strict, relays, assignment).expect("repairable");
        assert!(is_feasible(&strict, &sol));
        assert!(sol.relays[0].approx_eq(Point::new(0.0, 0.0)));
        assert!(sol.relays[1].approx_eq(Point::new(70.0, 0.0)));
    }

    #[test]
    fn shared_relay_moves_via_common_area() {
        // Relay 0 serves two subscribers (cannot snap one-on-one);
        // relay 1 serves a third close enough to interfere. Starting at
        // the top of the coverage lens, SS0 sees serving 39 vs interferer
        // 70 → (70/39)³ ≈ 5.8 and SS1 sees (40/39)³ ≈ 1.08: both violated
        // at 9 dB (7.94). Moving relay 0 into the common area of the
        // virtual circles (near the lens centre) repairs everything.
        let sc = scenario(
            vec![(0.0, 0.0, 40.0), (30.0, 0.0, 40.0), (70.0, 0.0, 35.0)],
            9.0,
        );
        let relays = vec![Point::new(15.0, 36.0), Point::new(70.0, 0.0)];
        let assignment = vec![0, 0, 1];
        let viol = snr_violations(&sc, &relays, &assignment);
        assert!(!viol.is_empty(), "setup should start violated");
        let sol = rs_sliding_movement(&sc, relays, assignment).expect("repairable");
        assert!(is_feasible(&sc, &sol));
        // Moved relay still covers both assigned subscribers.
        for j in [0usize, 1] {
            let d = sol.relays[0].distance(sc.subscribers[j].position);
            assert!(d <= sc.subscribers[j].distance_req + 1e-6);
        }
    }

    #[test]
    fn impossible_snr_returns_none() {
        // Two shared relays (two subscribers each, so no one-on-one
        // snap): serving distance is pinned at ≈ 6 while the interfering
        // relay sits ≈ 12 away → SNR ≤ (13.4/6)³ ≈ 11 (10.4 dB).
        // A +20 dB threshold is unreachable by any sliding.
        let sc = scenario(
            vec![
                (0.0, -6.0, 6.5),
                (0.0, 6.0, 6.5),
                (12.0, -6.0, 6.5),
                (12.0, 6.0, 6.5),
            ],
            20.0,
        );
        let relays = vec![Point::new(0.0, 0.0), Point::new(12.0, 0.0)];
        let assignment = vec![0, 0, 1, 1];
        assert!(rs_sliding_movement(&sc, relays, assignment).is_none());
    }

    #[test]
    fn virtual_circle_radius_bounded_by_distance_req() {
        let sc = scenario(vec![(0.0, 0.0, 30.0), (500.0, 0.0, 30.0)], -15.0);
        let relays = vec![Point::new(10.0, 0.0), Point::new(490.0, 0.0)];
        let ledger = interference_ledger(&sc, &relays);
        // Interference at SS0 is tiny → d_snr huge → radius capped at d_0.
        let c = virtual_circle(&sc, &ledger, 0, 0).unwrap();
        assert!((c.radius - 30.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic]
    fn bad_assignment_panics() {
        let sc = scenario(vec![(0.0, 0.0, 30.0)], -15.0);
        rs_sliding_movement(&sc, vec![Point::ORIGIN], vec![5]);
    }
}
