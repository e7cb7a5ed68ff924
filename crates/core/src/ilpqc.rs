//! The ILPQC benchmark solver (§III-A.1) over a finite candidate set —
//! the role Gurobi 5.0 plays in the paper for IAC and GAC.
//!
//! Objective (3.1) minimises the number of chosen candidate positions
//! subject to: each relay covers ≥ 1 subscriber (3.2), each subscriber
//! has exactly one access link (3.3) within its feasible distance (3.4),
//! and the quadratic SNR constraint (3.5). The quadratic constraint is
//! handled *exactly* without a QP solver: for a fixed chosen set at
//! `Pmax`, each subscriber's best SNR is achieved by its nearest chosen
//! relay (the interference sum is assignment-independent), so SNR
//! feasibility of a node is a closed-form check.
//!
//! The search is branch-and-bound over candidate subsets:
//!
//! * branch on the first distance-uncovered subscriber, trying each
//!   eligible candidate (every cover contains one of them, so the search
//!   is exhaustive over covers);
//! * at a distance-complete node with SNR violations, branch on
//!   candidates *closer to a violated subscriber than its current
//!   server* — the only additions that can repair that subscriber (any
//!   other addition strictly worsens its SNR), mirroring the ILP's
//!   freedom to place "extra" relays for SNR;
//! * prune with the incumbent and with the LP relaxation of the
//!   set-cover subproblem (a valid lower bound because dropping (3.5)
//!   only enlarges the feasible region), computed by `sag-lp`. The
//!   relaxation is lowered once per solve into a kept
//!   [`sag_lp::LpSession`]; each bounded node fixes its selection with
//!   lower bounds of 1 and re-solves from the previous node's basis
//!   and factors.
//!
//! [`crate::reference::solve_ilpqc`] keeps the original per-node
//! re-lowering as the parity suite's referee.

use std::time::Instant;

use sag_geom::Point;
use sag_lp::{Budget, CscMatrix, LpError, LpProblem, LpSession, Relation, Spent};
use sag_radio::InterferenceLedger;

use crate::coverage::{interference_ledger, CoverageSolution};
use crate::error::{SagError, SagResult};
use crate::model::Scenario;

/// How often (in nodes) the wall-clock/cancellation state is polled.
pub(crate) const BUDGET_POLL_MASK: usize = 63;

/// SNR evaluations between full ledger rebuilds. Incremental push/pop
/// drift is ~1 ulp per mutation; rebuilding every few hundred
/// evaluations keeps worst-case accumulated drift far below the 1e-12
/// feasibility margins at negligible cost.
pub(crate) const LEDGER_REBUILD_PERIOD: usize = 256;

/// Configuration of the ILPQC branch-and-bound.
#[derive(Debug, Clone)]
pub struct IlpqcConfig {
    /// Node budget; when exhausted the best incumbent is returned with
    /// `optimal = false` (Gurobi's time-limit behaviour).
    pub node_limit: usize,
    /// Cooperative budget (deadline / node cap / cancellation). A node
    /// cap here tightens `node_limit`; a deadline or raised flag stops
    /// the search at the next poll, returning the incumbent if one
    /// exists and [`SagError::BudgetExceeded`] otherwise.
    pub budget: Budget,
    /// Minimum candidate count before per-node LP completion bounds
    /// kick in. Each incomplete node then re-solves the cover LP with
    /// its selection forced to at least 1 — resumed by the dual simplex
    /// from the previous node's basis and factors, so the marginal cost
    /// is a handful of pivots. Small instances (golden tests, hand-laid
    /// scenarios) stay on the pure combinatorial search.
    pub lp_bound_min_cands: usize,
}

impl Default for IlpqcConfig {
    fn default() -> Self {
        IlpqcConfig {
            node_limit: 200_000,
            budget: Budget::unlimited(),
            lp_bound_min_cands: 24,
        }
    }
}

/// Outcome of an ILPQC solve.
#[derive(Debug, Clone)]
pub struct IlpqcOutcome {
    /// The best placement found.
    pub solution: CoverageSolution,
    /// `true` when the search proved optimality (no node-limit hit).
    pub optimal: bool,
    /// Branch-and-bound nodes explored.
    pub nodes: usize,
    /// Resources the search consumed (nodes + wall clock).
    pub spent: Spent,
}

/// Solves the ILPQC over `candidates` for the scenario.
///
/// # Errors
/// [`SagError::Infeasible`] when no subset of the candidates yields
/// feasible coverage (distance or SNR), or some subscriber has no
/// eligible candidate at all; [`SagError::BudgetExceeded`] when the
/// node cap, deadline, or cancellation flag stops the search before
/// *any* feasible incumbent was found (with an incumbent in hand the
/// solve instead returns it with `optimal = false`).
pub fn solve_ilpqc(
    scenario: &Scenario,
    candidates: &[Point],
    config: IlpqcConfig,
) -> SagResult<IlpqcOutcome> {
    let _stage = sag_obs::span("ilpqc");
    let started = Instant::now();
    let n_subs = scenario.n_subscribers();
    let n_cands = candidates.len();

    // eligible[j] = candidate indices within subscriber j's distance
    // (the shared helper every backend builds its lists with).
    let eligible = crate::fallback::eligibility(scenario, candidates, "ilpqc")?;

    // Root lower bound: LP relaxation of the set cover, the kept
    // session's first solve.
    let mut cover = CoverBound::new(n_cands, &eligible, &config.budget);
    let root_lb = cover.bound(&[]).map_err(|e| {
        if e == LpError::Cancelled {
            SagError::BudgetExceeded {
                stage: "ilpqc",
                spent: Spent {
                    nodes: 0,
                    elapsed: started.elapsed(),
                },
            }
        } else {
            SagError::Lp(e)
        }
    })?;

    // The budget's node cap tightens the configured limit.
    let node_cap = config
        .budget
        .node_limit()
        .map_or(config.node_limit, |b| b.min(config.node_limit));

    let mut best: Option<Vec<usize>> = None;
    let mut nodes = 0usize;
    let mut truncated = false;

    // Per-node LP completion bounds (large instances only): the cover
    // LP with the node's selection forced to at least 1 lower-bounds
    // every completion of that node. Only bounds change between nodes,
    // so each solve resumes the session from the previous one.
    let use_lp_bounds = n_cands >= config.lp_bound_min_cands;
    let mut lp_prunes = 0u64;

    // One interference ledger for the whole search, synced to each
    // distance-complete node by a push/pop symmetric diff against the
    // previously evaluated selection — sibling nodes share most of
    // their relays, so the per-node SNR evaluation drops from
    // O(S·R²) to O(Δ·S + S).
    let beta = scenario.params.link.beta();
    let mut ledger = interference_ledger(scenario, &[]);
    let mut slot_of: Vec<Option<usize>> = vec![None; n_cands];
    let mut synced: Vec<usize> = Vec::new();
    let mut evals = 0usize;

    // Depth-first stack of candidate selections (sorted, deduped). The
    // same subset is reachable through every insertion order; memoise to
    // expand each at most once.
    let mut stack: Vec<Vec<usize>> = vec![Vec::new()];
    let mut visited: std::collections::HashSet<Vec<usize>> = Default::default();
    while let Some(selected) = stack.pop() {
        if !visited.insert(selected.clone()) {
            continue;
        }
        nodes += 1;
        // Under a shared pool (parallel zone solves) the cap bounds the
        // combined node count of every worker drawing on this budget.
        let cap_nodes = config.budget.charge_nodes(1).unwrap_or(nodes);
        if cap_nodes > node_cap {
            truncated = true;
            break;
        }
        if (nodes - 1) & BUDGET_POLL_MASK == 0 && config.budget.check_interrupt().is_err() {
            truncated = true;
            break;
        }
        if let Some(b) = &best {
            if selected.len() >= b.len() {
                continue;
            }
            if b.len() == root_lb {
                break; // incumbent provably optimal
            }
        }
        // First subscriber not distance-covered.
        let uncovered = (0..n_subs).find(|&j| {
            !eligible[j]
                .iter()
                .any(|c| selected.binary_search(c).is_ok())
        });
        match uncovered {
            Some(j) => {
                if let Some(b) = &best {
                    if selected.len() + 1 >= b.len() {
                        continue;
                    }
                    // LP completion bound: fix this node's selection to 1
                    // and relax the rest; the cover LP optimum lower-bounds
                    // every completion. Only worth the solve once an
                    // incumbent exists to prune against.
                    if use_lp_bounds {
                        match cover.bound(&selected) {
                            Ok(bound) => {
                                if bound >= b.len() {
                                    lp_prunes += 1;
                                    continue;
                                }
                            }
                            Err(LpError::Cancelled) => {
                                truncated = true;
                                break;
                            }
                            // Infeasible/Numerical relaxations yield no
                            // usable bound; keep branching combinatorially.
                            Err(_) => {}
                        }
                    }
                }
                // Push branches in reverse so nearer candidates pop first.
                let mut options: Vec<usize> = eligible[j]
                    .iter()
                    .copied()
                    .filter(|c| selected.binary_search(c).is_err())
                    .collect();
                options.sort_by(|&a, &b| {
                    sag_geom::float::total_cmp(
                        &candidates[b].distance(scenario.subscribers[j].position),
                        &candidates[a].distance(scenario.subscribers[j].position),
                    )
                });
                for c in options {
                    let mut next = selected.clone();
                    // `c` was filtered to be absent; either arm is the
                    // correct insertion point.
                    let pos = match next.binary_search(&c) {
                        Ok(p) | Err(p) => p,
                    };
                    next.insert(pos, c);
                    stack.push(next);
                }
            }
            None => {
                // Distance-complete: evaluate SNR with nearest assignment.
                sync_ledger(
                    &mut ledger,
                    &mut slot_of,
                    &mut synced,
                    &selected,
                    candidates,
                );
                evals += 1;
                if evals.is_multiple_of(LEDGER_REBUILD_PERIOD) {
                    ledger.rebuild();
                }
                let assignment = nearest_assignment(scenario, candidates, &eligible, &selected);
                let violated: Vec<usize> = (0..n_subs)
                    .filter(|&j| {
                        let slot = slot_of[selected[assignment[j]]]
                            .expect("every selected candidate is synced into the ledger");
                        ledger.snr(j, slot) < beta - 1e-12
                    })
                    .collect();
                if violated.is_empty() {
                    if best.as_ref().is_none_or(|b| selected.len() < b.len()) {
                        best = Some(selected);
                    }
                    continue;
                }
                // SNR-repair branching: only candidates closer to a
                // violated subscriber than its current server can help it.
                if let Some(b) = &best {
                    if selected.len() + 1 >= b.len() {
                        continue;
                    }
                }
                let j = violated[0];
                let spos = scenario.subscribers[j].position;
                let cur_d = candidates[selected[assignment[j]]].distance(spos);
                let mut options: Vec<usize> = eligible[j]
                    .iter()
                    .copied()
                    .filter(|&c| {
                        selected.binary_search(&c).is_err()
                            && candidates[c].distance(spos) < cur_d - 1e-9
                    })
                    .collect();
                options.sort_by(|&a, &b| {
                    sag_geom::float::total_cmp(
                        &candidates[b].distance(spos),
                        &candidates[a].distance(spos),
                    )
                });
                for c in options {
                    let mut next = selected.clone();
                    let pos = match next.binary_search(&c) {
                        Ok(p) | Err(p) => p,
                    };
                    next.insert(pos, c);
                    stack.push(next);
                }
            }
        }
    }

    // One flush per solve: node/eval counting stayed in plain locals.
    if sag_obs::enabled() {
        sag_obs::counter("ilpqc.nodes", nodes as u64);
        sag_obs::counter("ilpqc.ledger_rebuilds", ledger.stats().rebuilds);
        if lp_prunes > 0 {
            sag_obs::counter("ilpqc.lp_prunes", lp_prunes);
        }
        if truncated {
            sag_obs::counter("ilpqc.budget_exhausted", 1);
        }
    }
    crate::coverage::flush_ledger_stats(&ledger);
    let spent = Spent {
        nodes,
        elapsed: started.elapsed(),
    };
    match best {
        Some(selected) => {
            let relays: Vec<Point> = selected.iter().map(|&c| candidates[c]).collect();
            let assignment = nearest_assignment(scenario, candidates, &eligible, &selected);
            let solution = CoverageSolution { relays, assignment };
            Ok(IlpqcOutcome {
                solution,
                optimal: !truncated,
                nodes,
                spent,
            })
        }
        None if truncated => Err(SagError::BudgetExceeded {
            stage: "ilpqc",
            spent,
        }),
        None => Err(SagError::Infeasible(
            "ilpqc: no SNR-feasible cover exists over the candidates".into(),
        )),
    }
}

/// Syncs the search ledger to `selected` with a two-pointer symmetric
/// diff against the previously synced (sorted) selection: candidates
/// that left are popped, candidates that joined are pushed. `slot_of`
/// maps candidate index → live ledger slot.
pub(crate) fn sync_ledger(
    ledger: &mut InterferenceLedger,
    slot_of: &mut [Option<usize>],
    synced: &mut Vec<usize>,
    selected: &[usize],
    candidates: &[Point],
) {
    symmetric_diff(synced, selected, |c, joined| {
        if joined {
            slot_of[c] = Some(ledger.add_relay(candidates[c], 1.0));
        } else {
            let slot = slot_of[c].take().expect("synced candidate has a slot");
            ledger.remove_relay(slot);
        }
    });
    synced.clear();
    synced.extend_from_slice(selected);
}

/// Walks the symmetric difference of two sorted, deduplicated index
/// sets in ascending order: `on(c, true)` for each `c` only in `new`,
/// `on(c, false)` for each `c` only in `old`.
fn symmetric_diff(old: &[usize], new: &[usize], mut on: impl FnMut(usize, bool)) {
    let (mut i, mut k) = (0usize, 0usize);
    while i < old.len() || k < new.len() {
        match (old.get(i), new.get(k)) {
            (Some(&o), Some(&n)) if o == n => {
                i += 1;
                k += 1;
            }
            (Some(&o), next) if next.is_none_or(|&n| o < n) => {
                on(o, false);
                i += 1;
            }
            (_, Some(&n)) => {
                on(n, true);
                k += 1;
            }
            _ => unreachable!("loop condition guarantees one side is non-empty"),
        }
    }
}

/// Nearest-eligible assignment: for each subscriber, the position (index
/// into `selected`) of its closest selected eligible candidate. With all
/// relays at `Pmax` this is the SNR-optimal assignment, because the total
/// received power is assignment-independent.
pub(crate) fn nearest_assignment(
    scenario: &Scenario,
    candidates: &[Point],
    eligible: &[Vec<usize>],
    selected: &[usize],
) -> Vec<usize> {
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
            .expect("distance-complete selection covers every subscriber");
        out.push(best);
    }
    out
}

/// Builds the set-cover relaxation: minimise Σx over x ∈ [0,1] subject
/// to one `≥ 1` coverage row per subscriber. The `LpRound` backend in
/// [`crate::solver`] rounds this relaxation and reads its `x`, so it
/// keeps the `x ≤ 1` bounds (the reference B&B bounds with it too).
pub(crate) fn build_cover_lp(n_cands: usize, eligible: &[Vec<usize>]) -> LpProblem {
    let mut lp = cover_relaxation(n_cands, eligible);
    for c in 0..n_cands {
        lp.set_bounds(c, 0.0, 1.0);
    }
    lp
}

/// The set-cover relaxation without upper bounds: minimise Σx over
/// x ≥ 0 subject to one `≥ 1` coverage row per subscriber. Rows are
/// assembled as one canonical [`CscMatrix`] block (subscribers ×
/// candidates) and bulk-added — the sparse backend consumes the same
/// structure, so nothing is densified on the way in.
///
/// Its optimum equals the bounded one's, also with any candidates
/// fixed to a lower bound of 1: costs are 1 and every row needs only
/// 1, so lowering an `x_c > 1` to 1 keeps every row satisfied and
/// strictly lowers the objective — no optimum sets `x_c > 1`. Dropping
/// the `x ≤ 1` rows keeps the lowered basis at one row per subscriber.
fn cover_relaxation(n_cands: usize, eligible: &[Vec<usize>]) -> LpProblem {
    let mut lp = LpProblem::minimize(n_cands);
    lp.set_objective(&vec![1.0; n_cands]);
    let triplets: Vec<(usize, usize, f64)> = eligible
        .iter()
        .enumerate()
        .flat_map(|(j, e)| e.iter().map(move |&c| (j, c, 1.0)))
        .collect();
    let cover = CscMatrix::from_triplets(eligible.len(), n_cands, &triplets)
        .expect("eligibility indices are in range and finite");
    lp.add_rows_from_csc(&cover, Relation::Ge, 1.0);
    lp
}

/// The ILPQC's LP lower bound: the unbounded cover relaxation of one
/// solve, lowered once into a kept [`LpSession`]. Each call fixes a
/// node's selection with lower bounds of 1 — synced by symmetric
/// difference against the previous call's, as [`sync_ledger`] syncs
/// the ledger — and resumes the session from its last basis.
struct CoverBound {
    session: LpSession,
    /// Candidates currently at lower bound 1 (sorted).
    fixed: Vec<usize>,
    /// Variables + constraints of the bounded formulation, the scale
    /// [`round_lp_lower_bound`] sizes its slack by.
    dimension: usize,
}

impl CoverBound {
    fn new(n_cands: usize, eligible: &[Vec<usize>], budget: &Budget) -> Self {
        let mut lp = cover_relaxation(n_cands, eligible);
        lp.set_budget(budget.clone());
        CoverBound {
            session: LpSession::new(lp),
            fixed: Vec::new(),
            dimension: n_cands + eligible.len(),
        }
    }

    /// The rounded LP lower bound on every cover containing `selected`
    /// (sorted, deduplicated).
    fn bound(&mut self, selected: &[usize]) -> Result<usize, LpError> {
        let session = &mut self.session;
        symmetric_diff(&self.fixed, selected, |c, joined| {
            session.set_bounds(c, if joined { 1.0 } else { 0.0 }, f64::INFINITY);
        });
        self.fixed.clear();
        self.fixed.extend_from_slice(selected);
        let sol = self.session.solve()?;
        Ok(round_lp_lower_bound(sol.objective, self.dimension))
    }
}

/// Rounds an LP-relaxation objective up to a valid integer lower bound.
///
/// The simplex answer is exact only up to its feasibility tolerance
/// ([`sag_lp::SIMPLEX_TOL`]), and accumulated pivot error grows with
/// the tableau, so the slack subtracted before the `ceil` is that
/// tolerance scaled by the instance dimension (variables + constraints)
/// and the objective's magnitude — not a magic constant. Under-rounding
/// here is unsound: lifting a `3−ε` relaxation to 4 would prune an
/// optimal 3-relay cover out of the search.
pub(crate) fn round_lp_lower_bound(objective: f64, dimension: usize) -> usize {
    let slack = sag_lp::SIMPLEX_TOL * (dimension as f64 + 1.0) * objective.abs().max(1.0);
    (objective - slack).ceil().max(1.0) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::iac_candidates;
    use crate::coverage::is_feasible;
    use crate::model::{BaseStation, NetworkParams, Scenario, Subscriber};
    use sag_geom::Rect;
    use sag_radio::{units::Db, LinkBudget};
    use sag_testkit::prelude::*;

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
    fn single_subscriber_one_candidate() {
        let sc = scenario(vec![(0.0, 0.0, 30.0)], -15.0);
        let cands = vec![Point::new(10.0, 0.0)];
        let out = solve_ilpqc(&sc, &cands, IlpqcConfig::default()).unwrap();
        assert!(out.optimal);
        assert_eq!(out.solution.n_relays(), 1);
        assert!(is_feasible(&sc, &out.solution));
    }

    #[test]
    fn shared_candidate_preferred() {
        // One candidate covers both subscribers; two others cover one each.
        let sc = scenario(vec![(0.0, 0.0, 30.0), (40.0, 0.0, 30.0)], -15.0);
        let cands = vec![
            Point::new(20.0, 0.0), // covers both
            Point::new(0.0, 0.0),  // covers SS0
            Point::new(40.0, 0.0), // covers SS1
        ];
        let out = solve_ilpqc(&sc, &cands, IlpqcConfig::default()).unwrap();
        assert!(out.optimal);
        assert_eq!(out.solution.n_relays(), 1);
        assert!(out.solution.relays[0].approx_eq(Point::new(20.0, 0.0)));
    }

    #[test]
    fn no_candidate_in_range_is_infeasible() {
        let sc = scenario(vec![(0.0, 0.0, 30.0)], -15.0);
        let cands = vec![Point::new(100.0, 0.0)];
        assert!(matches!(
            solve_ilpqc(&sc, &cands, IlpqcConfig::default()),
            Err(SagError::Infeasible(_))
        ));
    }

    #[test]
    fn snr_forces_extra_relay() {
        // Two subscribers 60 apart; a mid candidate covers both at
        // distance 30 — a single relay is SNR-trivial (no interference).
        // Force a strict threshold plus per-subscriber candidates: the
        // solver must still find a feasible configuration.
        let sc = scenario(vec![(0.0, 0.0, 32.0), (60.0, 0.0, 32.0)], -15.0);
        let cands = vec![
            Point::new(30.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(59.0, 0.0),
        ];
        let out = solve_ilpqc(&sc, &cands, IlpqcConfig::default()).unwrap();
        assert!(is_feasible(&sc, &out.solution));
        assert_eq!(out.solution.n_relays(), 1, "single shared relay is optimal");
    }

    #[test]
    fn snr_repair_branching_adds_closer_relay() {
        // Strict +5 dB threshold: the shared mid-candidate at distance 30
        // from both has no interference (one relay → infinite SNR), so
        // still one relay. To exercise the repair branch, forbid the mid
        // candidate: the two remaining candidates serve one SS each and
        // at +5 dB the geometry decides.
        let sc = scenario(vec![(0.0, 0.0, 32.0), (60.0, 0.0, 32.0)], 5.0);
        let cands = vec![
            Point::new(5.0, 0.0),
            Point::new(55.0, 0.0),
            Point::new(0.0, 0.0),
            Point::new(60.0, 0.0),
        ];
        let out = solve_ilpqc(&sc, &cands, IlpqcConfig::default()).unwrap();
        assert!(is_feasible(&sc, &out.solution));
        // SNR at SS0 with servers at 5 and interferer at 55:
        // (55/5)³ = 1331 ≫ 3.16 — fine with two relays.
        assert_eq!(out.solution.n_relays(), 2);
    }

    #[test]
    fn iac_candidates_end_to_end() {
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
        let out = solve_ilpqc(&sc, &cands, IlpqcConfig::default()).unwrap();
        assert!(out.optimal);
        assert!(is_feasible(&sc, &out.solution));
        assert_eq!(out.solution.n_relays(), 2);
    }

    #[test]
    fn node_limit_reports_non_optimal_or_budget_exceeded() {
        let sc = scenario(vec![(0.0, 0.0, 30.0), (20.0, 0.0, 30.0)], -15.0);
        let cands = iac_candidates(&sc);
        let config = IlpqcConfig {
            node_limit: 1,
            ..Default::default()
        };
        match solve_ilpqc(&sc, &cands, config) {
            Ok(out) => assert!(!out.optimal),
            Err(SagError::BudgetExceeded { stage, spent }) => {
                assert_eq!(stage, "ilpqc");
                assert!(spent.nodes >= 1);
            }
            Err(e) => panic!("unexpected error {e}"),
        }
    }

    #[test]
    fn budget_node_cap_tightens_config_limit() {
        let sc = scenario(vec![(0.0, 0.0, 30.0), (20.0, 0.0, 30.0)], -15.0);
        let cands = iac_candidates(&sc);
        let config = IlpqcConfig {
            node_limit: usize::MAX,
            budget: Budget::unlimited().with_node_limit(1),
            ..Default::default()
        };
        match solve_ilpqc(&sc, &cands, config) {
            Ok(out) => assert!(!out.optimal),
            Err(SagError::BudgetExceeded { stage, .. }) => assert_eq!(stage, "ilpqc"),
            Err(e) => panic!("unexpected error {e}"),
        }
    }

    #[test]
    fn expired_deadline_stops_the_search() {
        let sc = scenario(vec![(0.0, 0.0, 30.0), (20.0, 0.0, 30.0)], -15.0);
        let cands = iac_candidates(&sc);
        let config = IlpqcConfig {
            budget: Budget::unlimited().with_deadline(std::time::Duration::ZERO),
            ..Default::default()
        };
        match solve_ilpqc(&sc, &cands, config) {
            Ok(out) => assert!(!out.optimal, "expired deadline must not prove optimality"),
            Err(SagError::BudgetExceeded { stage, .. }) => assert_eq!(stage, "ilpqc"),
            Err(e) => panic!("unexpected error {e}"),
        }
    }

    #[test]
    fn successful_solve_reports_spent() {
        let sc = scenario(vec![(0.0, 0.0, 30.0)], -15.0);
        let cands = vec![Point::new(10.0, 0.0)];
        let out = solve_ilpqc(&sc, &cands, IlpqcConfig::default()).unwrap();
        assert_eq!(out.spent.nodes, out.nodes);
        assert!(out.spent.nodes >= 1);
    }

    #[test]
    fn lp_bound_is_valid() {
        // Two disjoint clusters: LP bound must be ≥ 2 and the optimum is 2.
        let sc = scenario(vec![(0.0, 0.0, 30.0), (200.0, 0.0, 30.0)], -15.0);
        let cands = vec![Point::new(0.0, 0.0), Point::new(200.0, 0.0)];
        let out = solve_ilpqc(&sc, &cands, IlpqcConfig::default()).unwrap();
        assert_eq!(out.solution.n_relays(), 2);
        assert!(out.optimal);
    }

    #[test]
    fn bound_rounding_tracks_the_simplex_tolerance() {
        // An objective sitting one simplex-tolerance below an integer
        // must round up to it; the pre-fix magic 1e-6 is not special.
        let dim = 50;
        assert_eq!(round_lp_lower_bound(3.0, dim), 3);
        assert_eq!(
            round_lp_lower_bound(3.0 - 10.0 * sag_lp::SIMPLEX_TOL, dim),
            3
        );
        assert_eq!(round_lp_lower_bound(2.5, dim), 3);
        // Degenerate objectives still yield the trivial bound of 1.
        assert_eq!(round_lp_lower_bound(0.0, dim), 1);
        assert_eq!(round_lp_lower_bound(-1.0, dim), 1);
    }

    prop! {
        /// Soundness of the pruning bound (the S4 regression): over
        /// random set-cover instances, the rounded LP lower bound never
        /// exceeds the brute-forced integer optimum — an over-rounded
        /// bound would prune optimal covers out of the B&B.
        #[cases(64)]
        fn rounded_lp_bound_never_exceeds_integer_optimum(seed in 0u64..100_000) {
            let mut rng = Rng::seed_from_u64(seed);
            let n_cands = rng.gen_range(2..8usize);
            let n_subs = rng.gen_range(1..6usize);
            let eligible: Vec<Vec<usize>> = (0..n_subs)
                .map(|_| {
                    let mut e: Vec<usize> =
                        (0..n_cands).filter(|_| rng.gen_bool(0.4)).collect();
                    if e.is_empty() {
                        e.push(rng.gen_range(0..n_cands));
                    }
                    e
                })
                .collect();
            // Brute-force integer optimum over all candidate subsets.
            let opt = (1u32..1 << n_cands)
                .filter(|mask| {
                    eligible
                        .iter()
                        .all(|e| e.iter().any(|&c| mask & (1 << c) != 0))
                })
                .map(u32::count_ones)
                .min()
                .expect("every subscriber has an eligible candidate");
            let bound = CoverBound::new(n_cands, &eligible, &Budget::unlimited())
                .bound(&[])
                .expect("feasible LP");
            prop_assert!(
                bound as u32 <= opt,
                "LP bound {bound} exceeds integer optimum {opt} (eligible: {eligible:?})"
            );
        }

        /// Dropping the `x ≤ 1` rows keeps the bound: over random cover
        /// instances and random sequences of fixed sets, the unbounded
        /// relaxation (fixed at `x ≥ 1`, re-solved in one kept session)
        /// and the bounded one (fixed at `x = 1`, lowered afresh) give
        /// the same LP value.
        #[cases(64)]
        fn bounded_and_unbounded_cover_lps_agree(seed in 0u64..100_000) {
            let mut rng = Rng::seed_from_u64(seed);
            let n_cands = rng.gen_range(2..30usize);
            let n_subs = rng.gen_range(1..12usize);
            let eligible: Vec<Vec<usize>> = (0..n_subs)
                .map(|_| {
                    let mut e: Vec<usize> =
                        (0..n_cands).filter(|_| rng.gen_bool(0.3)).collect();
                    if e.is_empty() {
                        e.push(rng.gen_range(0..n_cands));
                    }
                    e
                })
                .collect();
            let mut cover = CoverBound::new(n_cands, &eligible, &Budget::unlimited());
            for _ in 0..6 {
                let fixed: Vec<usize> = (0..n_cands).filter(|_| rng.gen_bool(0.2)).collect();
                let mut bounded = build_cover_lp(n_cands, &eligible);
                let mut unbounded = cover_relaxation(n_cands, &eligible);
                for &c in &fixed {
                    bounded.set_bounds(c, 1.0, 1.0);
                    unbounded.set_bounds(c, 1.0, f64::INFINITY);
                }
                let want = bounded.solve().expect("bounded cover LP is feasible").objective;
                let fresh = unbounded.solve().expect("unbounded cover LP is feasible").objective;
                let tol = 1e3 * sag_lp::SIMPLEX_TOL * (1.0 + want.abs());
                prop_assert!(
                    (fresh - want).abs() <= tol,
                    "fixed {fixed:?}: unbounded {fresh} vs bounded {want}"
                );
                let bound = cover.bound(&fixed).expect("session cover LP is feasible");
                prop_assert_eq!(
                    bound,
                    round_lp_lower_bound(want, n_cands + n_subs),
                    "fixed {:?}: session bound vs bounded LP value {}",
                    fixed,
                    want
                );
            }
        }
    }
}
