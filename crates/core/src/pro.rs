//! Power Reduction Optimization — PRO (Algorithm 6), the LPQC optimal
//! benchmark (§III-A.2) and the all-`Pmax` baseline.
//!
//! Given the fixed coverage topology found by SAMC (relay positions +
//! SS→relay assignment), reduce relay transmit powers while keeping
//! every subscriber's data-rate (coverage) and SNR constraints:
//!
//! * **coverage power** `P_c^i` — the smallest power at which relay `i`
//!   still delivers `P_ss^j` to each of its subscribers `j`
//!   (constraint (3.8));
//! * **SNR power** `P_snr^i` — the smallest power that additionally
//!   clears `β ×` the *current* interference at each of its subscribers
//!   (constraint (3.9), evaluated against the other relays' present
//!   powers).
//!
//! PRO repeatedly tries to drop relays straight to `P_c` (checking SNR),
//! and when stuck, commits the relay with the smallest gap
//! `ΔP = P_snr − P_c` at `P_snr` — exactly the loop of Algorithm 6. Since
//! every later change only *reduces* other relays' powers (reducing
//! interference), constraints verified at commit time stay satisfied:
//! Theorem 1's (1+φ) bound applies.

// Per-relay power vectors are manipulated as parallel indexed arrays.
#![allow(clippy::needless_range_loop)]

use std::time::Instant;

use sag_lp::{Budget, LpProblem, Relation, Spent};
use sag_radio::InterferenceLedger;

use crate::coverage::{powered_ledger, CoverageSolution, ServedIndex};
use crate::error::{SagError, SagResult};
use crate::model::Scenario;

/// How often (in loop iterations) budgets poll the wall clock.
const BUDGET_POLL_MASK: usize = 63;

/// Fixed-point iterations between full ledger rebuilds (drift hygiene
/// over long `set_power` sequences; see the ledger docs).
const LEDGER_REBUILD_PERIOD: usize = 256;

/// A power allocation for the coverage relays, in relay order.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerAllocation {
    /// Per-relay transmit powers.
    pub powers: Vec<f64>,
    /// `true` when PRO stopped at an expired deadline: `powers` are the
    /// feasible powers committed so far (uncommitted relays stay at
    /// `Pmax`), not the end of the descent.
    pub truncated: bool,
}

impl PowerAllocation {
    /// Total transmit power `P_L` (the paper's lower-tier metric).
    pub fn total(&self) -> f64 {
        self.powers.iter().sum()
    }
}

/// The all-`Pmax` baseline the paper compares against.
pub fn baseline_power(scenario: &Scenario, sol: &CoverageSolution) -> PowerAllocation {
    PowerAllocation {
        powers: vec![scenario.params.link.pmax(); sol.n_relays()],
        truncated: false,
    }
}

/// Coverage power `P_c` for every relay: `max_j P_ss^j · d_ij^α / G`
/// over its assigned subscribers (relays with no subscribers — which a
/// valid [`CoverageSolution`] never contains — would get 0).
pub fn coverage_powers(scenario: &Scenario, sol: &CoverageSolution) -> Vec<f64> {
    let model = scenario.params.link.model();
    let mut pc = vec![0.0; sol.n_relays()];
    for (j, &r) in sol.assignment.iter().enumerate() {
        let sub = &scenario.subscribers[j];
        let d = sol.relays[r].distance(sub.position);
        let need = model.required_tx_power(scenario.params.pss_for(sub), d);
        if need > pc[r] {
            pc[r] = need;
        }
    }
    pc
}

/// SNR power `P_snr` for relay `r` given the other relays' current
/// powers (read from the ledger — `interference_at(j, r)` excludes `r`
/// entirely, so `r`'s own registered power is irrelevant): the smallest
/// power clearing `β · I_j` *and* `P_ss^j` at every assigned subscriber
/// `j`.
fn snr_power(
    scenario: &Scenario,
    sol: &CoverageSolution,
    ledger: &InterferenceLedger,
    served: &ServedIndex,
    r: usize,
    pc_r: f64,
) -> f64 {
    let model = scenario.params.link.model();
    let beta = scenario.params.link.beta();
    let mut need = pc_r;
    for &j in served.of(r) {
        let spos = scenario.subscribers[j].position;
        let interference = ledger.interference_at(j, r);
        let d = sol.relays[r].distance(spos);
        let tx = model.required_tx_power(beta * interference, d);
        if tx > need {
            need = tx;
        }
    }
    need
}

/// Checks every subscriber of relay `r` against coverage + SNR with `r`
/// transmitting at `power_r` and every other relay at its power in the
/// ledger, with a small relative slack (`1e-6`) so that allocations
/// sitting exactly on a constraint boundary — the LP optimum always
/// does — verify cleanly.
fn relay_constraints_ok(
    scenario: &Scenario,
    sol: &CoverageSolution,
    ledger: &InterferenceLedger,
    served: &ServedIndex,
    r: usize,
    power_r: f64,
) -> bool {
    const REL_TOL: f64 = 1e-6;
    let model = scenario.params.link.model();
    let beta = scenario.params.link.beta();
    for &j in served.of(r) {
        let sub = &scenario.subscribers[j];
        let d = sol.relays[r].distance(sub.position);
        let signal = model.received_power(power_r, d);
        if signal < scenario.params.pss_for(sub) * (1.0 - REL_TOL) {
            return false;
        }
        let interference = ledger.interference_at(j, r);
        if signal < beta * interference * (1.0 - REL_TOL) {
            return false;
        }
    }
    true
}

/// Runs PRO (Algorithm 6). Returns the reduced power allocation.
///
/// The input must be a feasible coverage solution (as produced by SAMC or
/// the ILPQC); PRO never returns powers above `Pmax` and never breaks a
/// constraint that held at `Pmax`.
///
/// # Panics
/// Panics if the solution's assignment is inconsistent with the scenario
/// (kept: a mismatched assignment is a caller bug, not an input-data
/// condition — validated ingress paths use [`pro_with_budget`]).
pub fn pro(scenario: &Scenario, sol: &CoverageSolution) -> PowerAllocation {
    assert_eq!(
        sol.assignment.len(),
        scenario.n_subscribers(),
        "assignment length mismatch"
    );
    match pro_with_budget(scenario, sol, &Budget::unlimited()) {
        Ok(alloc) => alloc,
        // Unreachable: the length was checked and the budget is
        // unlimited, so no error path remains.
        Err(e) => unreachable!("pro with unlimited budget cannot fail: {e}"),
    }
}

/// Runs PRO under a cooperative [`Budget`], with typed errors instead of
/// panics.
///
/// PRO can answer at any commit round. It starts from all-`Pmax`, the
/// uniform-power state that [`crate::coverage::is_feasible`] accepted,
/// and each commit keeps its own relay's subscribers satisfied while
/// only lowering interference at everyone else's. So when the deadline
/// passes between commit rounds, PRO returns the powers committed so far
/// with [`PowerAllocation::truncated`] set, and the `pro.truncated`
/// counter records it.
///
/// # Errors
/// [`SagError::Infeasible`] (stage message `"pro"`) when the solution's
/// assignment length does not match the scenario;
/// [`SagError::BudgetExceeded`] (stage `"pro"`) when the cancellation
/// flag is raised between commit rounds. An expired deadline is not an
/// error.
pub fn pro_with_budget(
    scenario: &Scenario,
    sol: &CoverageSolution,
    budget: &Budget,
) -> SagResult<PowerAllocation> {
    let _stage = sag_obs::span("pro");
    let started = Instant::now();
    if sol.assignment.len() != scenario.n_subscribers() {
        return Err(SagError::Infeasible(format!(
            "pro: assignment length {} does not match {} subscribers",
            sol.assignment.len(),
            scenario.n_subscribers()
        )));
    }
    let pmax = scenario.params.link.pmax();
    let n = sol.n_relays();
    let pc = coverage_powers(scenario, sol);
    if sag_obs::enabled() {
        sag_obs::gauge("pro.baseline_total", pmax * n as f64);
        sag_obs::gauge("pro.floor_total", pc.iter().sum());
    }
    let served = sol.served_index();
    let mut powers = vec![pmax; n]; // P1, committed state
                                    // The ledger tracks the committed powers; every commit is a
                                    // `set_power` delta and every trial reads `interference_at` in O(1)
                                    // instead of re-summing over all relays.
    let mut ledger = powered_ledger(scenario, &sol.relays, &powers);
    let mut pending: Vec<usize> = (0..n).collect(); // K
    let mut truncated = false;

    while !pending.is_empty() {
        if budget.cancelled() {
            return Err(SagError::BudgetExceeded {
                stage: "pro",
                spent: Spent {
                    nodes: 0,
                    elapsed: started.elapsed(),
                },
            });
        }
        if budget.expired() {
            sag_obs::counter("pro.truncated", 1);
            truncated = true;
            break;
        }
        // Pass 1 (Steps 5–9): tentatively drop each pending relay to its
        // coverage power; commit those whose own subscribers stay happy.
        // A trial power for `r` needs no ledger mutation — the
        // interference at `r`'s subscribers excludes `r` by definition.
        let mut committed_any = false;
        let mut still_pending = Vec::new();
        for &r in &pending {
            let trial = pc[r].min(pmax);
            if relay_constraints_ok(scenario, sol, &ledger, &served, r, trial) {
                powers[r] = trial;
                ledger.set_power(r, trial);
                committed_any = true;
            } else {
                still_pending.push(r);
            }
        }
        pending = still_pending;
        if pending.is_empty() {
            break;
        }
        if !committed_any {
            // Steps 10–13: commit the relay with minimal ΔP = P_snr − P_c
            // at its SNR power.
            let (r_min, p_snr) = pending
                .iter()
                .map(|&r| {
                    (
                        r,
                        snr_power(scenario, sol, &ledger, &served, r, pc[r]).min(pmax),
                    )
                })
                .min_by(|a, b| sag_geom::float::total_cmp(&(a.1 - pc[a.0]), &(b.1 - pc[b.0])))
                .expect("pending not empty");
            powers[r_min] = p_snr;
            ledger.set_power(r_min, p_snr);
            pending.retain(|&r| r != r_min);
        }
    }
    crate::coverage::flush_ledger_stats(&ledger);
    Ok(PowerAllocation { powers, truncated })
}

/// The LPQC optimum (§III-A.2) for the *fixed* assignment of `sol`,
/// computed as the minimal fixed point of the power-control map.
///
/// With `T_ij` fixed, every constraint has the form
/// `P_r ≥ f_r(P_other)` with `f_r` monotone non-decreasing (coverage
/// floor is constant; the SNR floor is `β/g_rj · Σ_{k≠r} P_k g_kj`).
/// Such a system has a unique coordinatewise-minimal solution — the
/// fixed point of `P ← max(P_c, SNR floors)` — and that point minimises
/// `Σ P_r` (it is ≤ every feasible point in every coordinate). This is
/// the classic standard-interference-function result from power-control
/// theory; the iteration from `P = P_c` converges monotonically and is
/// numerically robust where a simplex tableau (mixing path-loss gains
/// across ~14 orders of magnitude) loses precision.
/// [`optimal_power_lp`] keeps the direct LP formulation for
/// cross-validation on well-conditioned instances.
///
/// # Errors
/// [`SagError::Infeasible`] when the minimal fixed point exceeds `Pmax`
/// (the fixed assignment admits no feasible power vector).
pub fn optimal_power(scenario: &Scenario, sol: &CoverageSolution) -> SagResult<PowerAllocation> {
    optimal_power_with_budget(scenario, sol, &Budget::unlimited())
}

/// [`optimal_power`] under a cooperative [`Budget`], polled every 64
/// fixed-point iterations.
///
/// # Errors
/// [`SagError::BudgetExceeded`] (stage `"pro"`) on deadline or
/// cancellation; otherwise see [`optimal_power`].
pub fn optimal_power_with_budget(
    scenario: &Scenario,
    sol: &CoverageSolution,
    budget: &Budget,
) -> SagResult<PowerAllocation> {
    let started = Instant::now();
    let model = scenario.params.link.model();
    let beta = scenario.params.link.beta();
    let pmax = scenario.params.link.pmax();
    let pc = coverage_powers(scenario, sol);
    let mut powers = pc.clone();
    let mut ledger = powered_ledger(scenario, &sol.relays, &powers);
    // Geometric convergence: iterate the monotone map until stationary.
    // The update stays a Jacobi sweep: every `need` is computed from the
    // *current* ledger state, and only then is the whole `next` vector
    // committed via `set_power` deltas (no-ops once coordinates settle).
    for iter in 0..100_000 {
        if iter & BUDGET_POLL_MASK == 0 && budget.check_interrupt().is_err() {
            return Err(SagError::BudgetExceeded {
                stage: "pro",
                spent: Spent {
                    nodes: 0,
                    elapsed: started.elapsed(),
                },
            });
        }
        if iter > 0 && iter.is_multiple_of(LEDGER_REBUILD_PERIOD) {
            ledger.rebuild();
        }
        let mut next = pc.clone();
        for (j, &r) in sol.assignment.iter().enumerate() {
            let spos = scenario.subscribers[j].position;
            let interference = ledger.interference_at(j, r);
            let d = sol.relays[r].distance(spos);
            let need = model.required_tx_power(beta * interference, d);
            if need > next[r] {
                next[r] = need;
            }
        }
        let max_rel_step = powers
            .iter()
            .zip(&next)
            .map(|(&a, &b)| (b - a).abs() / b.max(1e-300))
            .fold(0.0f64, f64::max);
        for (r, &p) in next.iter().enumerate() {
            ledger.set_power(r, p);
        }
        powers = next;
        if powers.iter().any(|&p| p > pmax * (1.0 + 1e-9)) {
            return Err(SagError::Infeasible(
                "optimal_power: fixed point exceeds Pmax".into(),
            ));
        }
        if max_rel_step < 1e-14 {
            return Ok(PowerAllocation {
                powers,
                truncated: false,
            });
        }
    }
    // The map contracts whenever the spectral radius of the β-weighted
    // gain matrix is < 1, which feasibility at Pmax guarantees; hitting
    // the iteration cap means the instance sits exactly at the
    // feasibility boundary — return the (feasible) iterate.
    Ok(PowerAllocation {
        powers,
        truncated: false,
    })
}

/// The LPQC optimum via the explicit LP formulation (`sag-lp` simplex).
///
/// Kept as an independently-derived benchmark: tests assert it matches
/// [`optimal_power`] on instances whose gain spread stays within the
/// dense tableau's precision.
///
/// # Errors
/// [`SagError::Lp`] if the LP solve fails (including numerically — see
/// [`optimal_power`] for the robust route).
pub fn optimal_power_lp(scenario: &Scenario, sol: &CoverageSolution) -> SagResult<PowerAllocation> {
    let model = scenario.params.link.model();
    let beta = scenario.params.link.beta();
    let pmax = scenario.params.link.pmax();
    let n = sol.n_relays();
    // Column scaling: relay powers span many orders of magnitude (a relay
    // sitting on its subscriber needs ~d^α less power than one at the
    // circle edge), which would swamp the simplex tolerances. Solve in
    // units of each relay's coverage power: P_r = s_r · y_r with
    // s_r = P_c^r, so y ≈ 1 at the optimum for coverage-bound relays.
    let scale = coverage_powers(scenario, sol);
    let mut lp = LpProblem::minimize(n);
    lp.set_objective(&scale);
    for r in 0..n {
        assert!(
            scale[r] > 0.0,
            "every relay serves a subscriber, so P_c > 0"
        );
        lp.set_bounds(r, 0.0, pmax / scale[r]);
    }
    for (j, &r) in sol.assignment.iter().enumerate() {
        let sub = &scenario.subscribers[j];
        let d = sol.relays[r].distance(sub.position);
        // Gain of relay k toward subscriber j per unit of y_k.
        let gain =
            |k: usize| scale[k] * model.received_power(1.0, sol.relays[k].distance(sub.position));
        // (3.8) coverage: s_r·y_r·g_rj ≥ P_ss^j.
        lp.add_constraint(
            &[(r, scale[r] * model.received_power(1.0, d))],
            Relation::Ge,
            scenario.params.pss_for(sub),
        );
        // (3.9) SNR (linear with fixed assignment):
        // s_r·y_r·g_rj − β·Σ_{k≠r} s_k·y_k·g_kj ≥ 0.
        let mut row: Vec<(usize, f64)> = Vec::with_capacity(n);
        for k in 0..n {
            if k == r {
                row.push((k, gain(k)));
            } else {
                row.push((k, -beta * gain(k)));
            }
        }
        lp.add_constraint(&row, Relation::Ge, 0.0);
    }
    let lp_sol = lp.solve().map_err(SagError::from)?;
    let powers: Vec<f64> = lp_sol.x.iter().zip(&scale).map(|(&y, &s)| y * s).collect();
    Ok(PowerAllocation {
        powers,
        truncated: false,
    })
}

/// Verifies a power allocation against every coverage + SNR constraint
/// (used by tests and the experiment harness to validate PRO and the LP).
pub fn allocation_is_feasible(
    scenario: &Scenario,
    sol: &CoverageSolution,
    alloc: &PowerAllocation,
) -> bool {
    if alloc.powers.len() != sol.n_relays() {
        return false;
    }
    if alloc
        .powers
        .iter()
        .any(|&p| !(0.0..=scenario.params.link.pmax() + 1e-9).contains(&p))
    {
        return false;
    }
    let ledger = powered_ledger(scenario, &sol.relays, &alloc.powers);
    let served = sol.served_index();
    (0..sol.n_relays())
        .all(|r| relay_constraints_ok(scenario, sol, &ledger, &served, r, alloc.powers[r]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{BaseStation, NetworkParams, Scenario, Subscriber};
    use crate::samc::samc;
    use sag_geom::{Point, Rect};
    use sag_radio::{units::Db, LinkBudget};

    fn scenario(subs: Vec<(f64, f64, f64)>, beta_db: f64) -> Scenario {
        Scenario::new(
            Rect::centered_square(500.0),
            subs.into_iter()
                .map(|(x, y, d)| Subscriber::new(Point::new(x, y), d))
                .collect(),
            vec![BaseStation::new(Point::new(200.0, 200.0))],
            NetworkParams::new(
                LinkBudget::builder()
                    .snr_threshold(Db::new(beta_db))
                    .build(),
                1e-9,
            ),
        )
        .unwrap()
    }

    fn sample_solution(beta_db: f64) -> (Scenario, CoverageSolution) {
        let sc = scenario(
            vec![
                (0.0, 0.0, 35.0),
                (20.0, 10.0, 35.0),
                (120.0, 0.0, 30.0),
                (-150.0, -80.0, 40.0),
            ],
            beta_db,
        );
        let sol = samc(&sc).expect("feasible scenario");
        (sc, sol)
    }

    #[test]
    fn pro_never_exceeds_baseline_and_stays_feasible() {
        let (sc, sol) = sample_solution(-15.0);
        let base = baseline_power(&sc, &sol);
        let reduced = pro(&sc, &sol);
        assert!(reduced.total() <= base.total() + 1e-12);
        assert!(allocation_is_feasible(&sc, &sol, &reduced));
        assert!(allocation_is_feasible(&sc, &sol, &base));
    }

    #[test]
    fn pro_beats_baseline_substantially() {
        // Relays snapped onto subscribers need far less than Pmax.
        let (sc, sol) = sample_solution(-15.0);
        let base = baseline_power(&sc, &sol).total();
        let reduced = pro(&sc, &sol).total();
        assert!(
            reduced < base * 0.8,
            "expected large savings, got {reduced} vs baseline {base}"
        );
    }

    #[test]
    fn lp_optimal_lower_bounds_pro() {
        let (sc, sol) = sample_solution(-15.0);
        let reduced = pro(&sc, &sol);
        let opt = optimal_power_lp(&sc, &sol).unwrap();
        assert!(allocation_is_feasible(&sc, &sol, &opt));
        assert!(
            opt.total() <= reduced.total() + 1e-6,
            "LP optimum {} must not exceed PRO {}",
            opt.total(),
            reduced.total()
        );
    }

    #[test]
    fn coverage_power_at_boundary_equals_pmax() {
        // A relay exactly at the feasible-distance boundary needs Pmax.
        let sc = scenario(vec![(0.0, 0.0, 30.0)], -15.0);
        let sol = CoverageSolution {
            relays: vec![Point::new(30.0, 0.0)],
            assignment: vec![0],
        };
        let pc = coverage_powers(&sc, &sol);
        assert!((pc[0] - sc.params.link.pmax()).abs() < 1e-9);
    }

    #[test]
    fn coverage_power_scales_with_distance() {
        // At half the feasible distance, Pc = Pmax · (1/2)^α = 1/8 (α=3).
        let sc = scenario(vec![(0.0, 0.0, 30.0)], -15.0);
        let sol = CoverageSolution {
            relays: vec![Point::new(15.0, 0.0)],
            assignment: vec![0],
        };
        let pc = coverage_powers(&sc, &sol);
        assert!((pc[0] - 0.125).abs() < 1e-9);
    }

    #[test]
    fn single_relay_drops_to_coverage_power() {
        // No interference: PRO should land exactly on Pc.
        let sc = scenario(vec![(0.0, 0.0, 30.0)], -15.0);
        let sol = CoverageSolution {
            relays: vec![Point::new(15.0, 0.0)],
            assignment: vec![0],
        };
        let reduced = pro(&sc, &sol);
        assert!((reduced.powers[0] - 0.125).abs() < 1e-9);
        let opt = optimal_power_lp(&sc, &sol).unwrap();
        assert!((opt.total() - reduced.total()).abs() < 1e-9);
    }

    #[test]
    fn strict_beta_keeps_powers_feasible() {
        let (sc, sol) = sample_solution(-10.0);
        let reduced = pro(&sc, &sol);
        assert!(allocation_is_feasible(&sc, &sol, &reduced));
    }

    #[test]
    fn pro_with_budget_rejects_length_mismatch() {
        let sc = scenario(vec![(0.0, 0.0, 30.0)], -15.0);
        let sol = CoverageSolution {
            relays: vec![Point::new(15.0, 0.0)],
            assignment: vec![0, 0], // one subscriber, two assignments
        };
        assert!(matches!(
            pro_with_budget(&sc, &sol, &Budget::unlimited()),
            Err(SagError::Infeasible(_))
        ));
    }

    #[test]
    fn pro_with_passed_deadline_answers_with_truncated_pmax() {
        let (sc, sol) = sample_solution(-15.0);
        let passed = Budget::unlimited().with_deadline_until(std::time::Instant::now());
        let alloc = pro_with_budget(&sc, &sol, &passed).unwrap();
        assert!(alloc.truncated);
        assert_eq!(alloc.powers, baseline_power(&sc, &sol).powers);
        assert!(!pro(&sc, &sol).truncated);
    }

    #[test]
    fn pro_with_raised_cancel_flag_reports_budget_exceeded() {
        let (sc, sol) = sample_solution(-15.0);
        let flag = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(true));
        let err =
            pro_with_budget(&sc, &sol, &Budget::unlimited().with_cancel_flag(flag)).unwrap_err();
        assert!(matches!(err, SagError::BudgetExceeded { stage: "pro", .. }));
    }

    #[test]
    fn report_with_truncated_pro_powers_validates_clean() {
        let (sc, _) = sample_solution(-15.0);
        let mut report = crate::sag::run_sag(&sc).unwrap();
        let passed = Budget::unlimited().with_deadline_until(std::time::Instant::now());
        report.lower_power = pro_with_budget(&sc, &report.coverage, &passed).unwrap();
        assert!(report.lower_power.truncated);
        let audit = crate::validate::validate_report(&sc, &report);
        assert_eq!(audit.violations().count(), 0, "{audit}");
    }

    #[test]
    fn optimal_power_with_expired_budget_reports_budget_exceeded() {
        let (sc, sol) = sample_solution(-15.0);
        let err = optimal_power_with_budget(
            &sc,
            &sol,
            &Budget::unlimited().with_deadline(std::time::Duration::ZERO),
        )
        .unwrap_err();
        assert!(matches!(err, SagError::BudgetExceeded { stage: "pro", .. }));
    }

    #[test]
    fn baseline_total_counts_relays() {
        let (sc, sol) = sample_solution(-15.0);
        let base = baseline_power(&sc, &sol);
        assert_eq!(base.powers.len(), sol.n_relays());
        assert!((base.total() - sol.n_relays() as f64 * sc.params.link.pmax()).abs() < 1e-12);
    }
}

#[cfg(test)]
mod fixed_point_tests {
    use super::*;
    use crate::model::{BaseStation, NetworkParams, Scenario, Subscriber};
    use crate::samc::samc;
    use sag_geom::{Point, Rect};
    use sag_radio::{units::Db, LinkBudget};

    fn scenario(subs: Vec<(f64, f64, f64)>, beta_db: f64) -> Scenario {
        Scenario::new(
            Rect::centered_square(500.0),
            subs.into_iter()
                .map(|(x, y, d)| Subscriber::new(Point::new(x, y), d))
                .collect(),
            vec![BaseStation::new(Point::new(200.0, 200.0))],
            NetworkParams::new(
                LinkBudget::builder()
                    .snr_threshold(Db::new(beta_db))
                    .build(),
                1e-9,
            ),
        )
        .unwrap()
    }

    #[test]
    fn fixed_point_matches_lp_when_lp_succeeds() {
        // Relays at moderate distances (no snap): well-conditioned LP.
        let sc = scenario(vec![(0.0, 0.0, 35.0), (80.0, 0.0, 35.0)], -15.0);
        let sol = CoverageSolution {
            relays: vec![Point::new(20.0, 0.0), Point::new(60.0, 0.0)],
            assignment: vec![0, 1],
        };
        let fp = optimal_power(&sc, &sol).unwrap();
        let lp = optimal_power_lp(&sc, &sol).unwrap();
        assert!(
            (fp.total() - lp.total()).abs() / fp.total().max(1e-12) < 1e-6,
            "fixed point {} vs LP {}",
            fp.total(),
            lp.total()
        );
        assert!(allocation_is_feasible(&sc, &sol, &fp));
    }

    #[test]
    fn fixed_point_lower_bounds_pro_on_samc_output() {
        let sc = scenario(
            vec![
                (0.0, 0.0, 35.0),
                (20.0, 10.0, 35.0),
                (120.0, 0.0, 30.0),
                (-150.0, -80.0, 40.0),
            ],
            -15.0,
        );
        let sol = samc(&sc).unwrap();
        let fp = optimal_power(&sc, &sol).unwrap();
        let reduced = pro(&sc, &sol);
        assert!(allocation_is_feasible(&sc, &sol, &fp));
        assert!(fp.total() <= reduced.total() + 1e-9);
        // And PRO's ratio to optimal obeys Theorem 1's (1+φ) with the
        // computed φ.
        let pc = coverage_powers(&sc, &sol);
        let phi: f64 = reduced
            .powers
            .iter()
            .zip(&pc)
            .map(|(&p, &c)| (p - c).max(0.0))
            .sum::<f64>()
            / fp.total().max(1e-300);
        assert!(reduced.total() <= (1.0 + phi) * fp.total() + 1e-9);
    }

    #[test]
    fn fixed_point_infeasible_when_snr_unreachable() {
        // Two shared relays pinned ≈ 6 from their subscribers with the
        // interferer ≈ 12 away: +20 dB is unreachable at any power.
        let sc = scenario(
            vec![
                (0.0, -6.0, 6.5),
                (0.0, 6.0, 6.5),
                (12.0, -6.0, 6.5),
                (12.0, 6.0, 6.5),
            ],
            20.0,
        );
        let sol = CoverageSolution {
            relays: vec![Point::new(0.0, 0.0), Point::new(12.0, 0.0)],
            assignment: vec![0, 0, 1, 1],
        };
        assert!(matches!(
            optimal_power(&sc, &sol),
            Err(SagError::Infeasible(_))
        ));
    }

    #[test]
    fn single_relay_fixed_point_is_coverage_power() {
        let sc = scenario(vec![(0.0, 0.0, 30.0)], -15.0);
        let sol = CoverageSolution {
            relays: vec![Point::new(15.0, 0.0)],
            assignment: vec![0],
        };
        let fp = optimal_power(&sc, &sol).unwrap();
        assert!((fp.powers[0] - 0.125).abs() < 1e-12);
    }
}

/// Per-subscriber power sensitivity from the LPQC duals: how much the
/// total lower-tier power would grow per unit increase of subscriber
/// `j`'s received-power floor `P_ss^j` (the coverage row's shadow price).
///
/// Zero entries mark subscribers whose demands are slack at the optimum;
/// large entries mark the subscribers that pin the power budget — the
/// ones to renegotiate or re-home first.
///
/// # Errors
/// Propagates LP failures (see [`optimal_power_lp`] for conditioning
/// caveats; use on solutions whose relays are not all snapped to zero
/// distance).
pub fn power_sensitivity(scenario: &Scenario, sol: &CoverageSolution) -> SagResult<Vec<f64>> {
    let model = scenario.params.link.model();
    let beta = scenario.params.link.beta();
    let pmax = scenario.params.link.pmax();
    let n = sol.n_relays();
    let scale = coverage_powers(scenario, sol);
    let mut lp = LpProblem::minimize(n);
    lp.set_objective(&scale);
    for r in 0..n {
        lp.set_bounds(r, 0.0, pmax / scale[r]);
    }
    // Row order: for each subscriber, its coverage row then its SNR row.
    for (j, &r) in sol.assignment.iter().enumerate() {
        let sub = &scenario.subscribers[j];
        let d = sol.relays[r].distance(sub.position);
        let gain =
            |k: usize| scale[k] * model.received_power(1.0, sol.relays[k].distance(sub.position));
        lp.add_constraint(
            &[(r, scale[r] * model.received_power(1.0, d))],
            Relation::Ge,
            scenario.params.pss_for(sub),
        );
        let mut row: Vec<(usize, f64)> = Vec::with_capacity(n);
        for k in 0..n {
            if k == r {
                row.push((k, gain(k)));
            } else {
                row.push((k, -beta * gain(k)));
            }
        }
        lp.add_constraint(&row, Relation::Ge, 0.0);
    }
    let detailed = lp.solve_detailed().map_err(SagError::from)?;
    Ok((0..scenario.n_subscribers())
        .map(|j| detailed.duals[2 * j].unwrap_or(0.0).max(0.0))
        .collect())
}

#[cfg(test)]
mod sensitivity_tests {
    use super::*;
    use crate::model::{BaseStation, NetworkParams, Scenario, Subscriber};
    use sag_geom::{Point, Rect};

    #[test]
    fn far_subscriber_dominates_sensitivity() {
        // One relay, two subscribers: the far one sets P_c, so only its
        // coverage row is binding.
        let sc = Scenario::new(
            Rect::centered_square(500.0),
            vec![
                Subscriber::new(Point::new(30.0, 0.0), 35.0), // far (binding)
                Subscriber::new(Point::new(5.0, 0.0), 35.0),  // near (slack)
            ],
            vec![BaseStation::new(Point::new(200.0, 200.0))],
            NetworkParams::default(),
        )
        .unwrap();
        let sol = crate::coverage::CoverageSolution {
            relays: vec![Point::new(0.0, 0.0)],
            assignment: vec![0, 0],
        };
        let s = power_sensitivity(&sc, &sol).unwrap();
        assert!(
            s[0] > 0.0,
            "binding subscriber must have positive sensitivity"
        );
        assert!(
            s[1].abs() < 1e-9,
            "slack subscriber must have zero sensitivity"
        );
        // The dual equals dP/dPss = d^α / G = 30³.
        assert!((s[0] - 27000.0).abs() / 27000.0 < 1e-6, "got {}", s[0]);
    }

    #[test]
    fn sensitivity_matches_finite_difference() {
        // Two relays with interference; perturb one subscriber's distance
        // requirement (which moves its P_ss) and compare.
        let build = |d0: f64| {
            let sc = Scenario::new(
                Rect::centered_square(500.0),
                vec![
                    Subscriber::new(Point::new(20.0, 0.0), d0),
                    Subscriber::new(Point::new(80.0, 0.0), 35.0),
                ],
                vec![BaseStation::new(Point::new(200.0, 200.0))],
                NetworkParams::default(),
            )
            .unwrap();
            let sol = crate::coverage::CoverageSolution {
                relays: vec![Point::new(0.0, 0.0), Point::new(100.0, 0.0)],
                assignment: vec![0, 1],
            };
            (sc, sol)
        };
        let (sc, sol) = build(35.0);
        let s = power_sensitivity(&sc, &sol).unwrap();
        let base = optimal_power(&sc, &sol).unwrap().total();
        // Finite difference in P_ss via a slightly smaller feasible
        // distance (higher floor).
        let (sc2, sol2) = build(34.9);
        let bumped = optimal_power(&sc2, &sol2).unwrap().total();
        let dpss = sc2.params.pss_for(&sc2.subscribers[0]) - sc.params.pss_for(&sc.subscribers[0]);
        let fd = (bumped - base) / dpss;
        assert!(
            (fd - s[0]).abs() / fd.max(1e-12) < 0.05,
            "fd {fd} vs dual {}",
            s[0]
        );
    }
}
