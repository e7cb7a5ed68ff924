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
//!   and factors. A selected candidate is eligible for no uncovered
//!   subscriber, so that optimum is |selected| plus the cover LP over
//!   the uncovered rows alone: the residual depends only on which
//!   subscribers the selection covers. The search keeps it per covered
//!   mask and solves each mask once.
//!
//! Each subscriber's eligible candidates are listed with their
//! distances once per solve, farthest first; both branching steps
//! filter that list.
//!
//! [`crate::reference::solve_ilpqc`] keeps the original per-node
//! re-lowering as the parity suite's referee.

use std::collections::HashMap;
use std::time::Instant;

use sag_geom::Point;
use sag_lp::{Budget, CscMatrix, LpError, LpProblem, LpSession, Relation, Spent};
use sag_radio::InterferenceLedger;

use crate::coverage::{interference_ledger, CoverageSolution};
use crate::error::{SagError, SagResult};
use crate::fallback::nearest_assignment;
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
}

impl Default for IlpqcConfig {
    fn default() -> Self {
        IlpqcConfig {
            node_limit: 200_000,
            budget: Budget::unlimited(),
        }
    }
}

/// Minimum candidate count before per-node LP completion bounds kick
/// in. Each incomplete node then bounds the cover LP with its
/// selection forced to at least 1: |selected| plus the residual LP
/// over the subscribers it leaves uncovered. A covered-subscriber mask
/// seen before reuses its residual; a new one re-solves, resumed by
/// the dual simplex from the previous solve's basis and factors, so
/// the marginal cost is a handful of pivots. Small instances (golden
/// tests, hand-laid scenarios) stay on the pure combinatorial search.
pub const LP_BOUND_MIN_CANDS: usize = 24;

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
    let mut coverage = CoverageMasks::new(n_cands, &eligible);

    // Root lower bound: LP relaxation of the set cover, the kept
    // session's first solve.
    let mut cover = CoverBound::new(n_cands, &eligible, &config.budget);
    let root_lb = cover.bound(&[], &coverage.covered).map_err(|e| {
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
    let use_lp_bounds = n_cands >= LP_BOUND_MIN_CANDS;
    let mut lp_prunes = 0u64;

    // by_distance[j] = subscriber j's eligible candidates with their
    // distances, farthest first. The sort is stable, so filtering this
    // list gives the order that sorting each node's filtered options
    // would, ties included; branches are pushed in it so that nearer
    // candidates pop first.
    let by_distance: Vec<Vec<(usize, f64)>> = eligible
        .iter()
        .zip(&scenario.subscribers)
        .map(|(e, s)| {
            let mut list: Vec<(usize, f64)> = e
                .iter()
                .map(|&c| (c, candidates[c].distance(s.position)))
                .collect();
            list.sort_by(|a, b| sag_geom::float::total_cmp(&b.1, &a.1));
            list
        })
        .collect();

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
        match coverage.first_uncovered(&selected) {
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
                        match cover.bound(&selected, &coverage.covered) {
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
                for &(c, _) in &by_distance[j] {
                    push_branch(&mut stack, &selected, c);
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
                let assignment = nearest_assignment(scenario, candidates, &eligible, &selected)
                    .expect("distance-complete selection covers every subscriber");
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
                let cur_d =
                    candidates[selected[assignment[j]]].distance(scenario.subscribers[j].position);
                for &(c, d) in &by_distance[j] {
                    if d < cur_d - 1e-9 {
                        push_branch(&mut stack, &selected, c);
                    }
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
        if cover.reuses > 0 {
            sag_obs::counter("ilpqc.bound_reuses", cover.reuses);
        }
        if truncated {
            sag_obs::counter("ilpqc.budget_exhausted", 1);
        }
    }
    crate::coverage::flush_ledger_stats(ledger.stats());
    let spent = Spent {
        nodes,
        elapsed: started.elapsed(),
    };
    match best {
        Some(selected) => {
            let relays: Vec<Point> = selected.iter().map(|&c| candidates[c]).collect();
            let assignment = nearest_assignment(scenario, candidates, &eligible, &selected)
                .expect("distance-complete selection covers every subscriber");
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

/// Per-candidate subscriber bitmasks, built once per solve: a node's
/// distance coverage is the OR of its selected candidates' masks.
struct CoverageMasks {
    n_subs: usize,
    /// 64-bit words per mask.
    words: usize,
    /// Candidate `c`'s mask is `masks[c·words..(c+1)·words]`: bit `j`
    /// is set when `c` is eligible for subscriber `j`.
    masks: Vec<u64>,
    /// The OR under construction (one mask).
    covered: Vec<u64>,
}

impl CoverageMasks {
    fn new(n_cands: usize, eligible: &[Vec<usize>]) -> Self {
        let n_subs = eligible.len();
        let words = n_subs.div_ceil(64);
        let mut masks = vec![0u64; n_cands * words];
        for (j, e) in eligible.iter().enumerate() {
            for &c in e {
                masks[c * words + j / 64] |= 1 << (j % 64);
            }
        }
        CoverageMasks {
            n_subs,
            words,
            masks,
            covered: vec![0; words],
        }
    }

    /// The lowest subscriber no candidate of `selected` is eligible for.
    fn first_uncovered(&mut self, selected: &[usize]) -> Option<usize> {
        self.covered.fill(0);
        for &c in selected {
            let mask = &self.masks[c * self.words..(c + 1) * self.words];
            for (w, m) in self.covered.iter_mut().zip(mask) {
                *w |= m;
            }
        }
        // Bits past `n_subs` are never set, so only the last word can
        // report a subscriber that does not exist.
        self.covered
            .iter()
            .position(|&w| w != u64::MAX)
            .map(|w| w * 64 + self.covered[w].trailing_ones() as usize)
            .filter(|&j| j < self.n_subs)
    }
}

/// Pushes the child `selected ∪ {c}` (kept sorted) onto the depth-first
/// stack unless `c` is already selected.
fn push_branch(stack: &mut Vec<Vec<usize>>, selected: &[usize], c: usize) {
    if let Err(pos) = selected.binary_search(&c) {
        let mut next = Vec::with_capacity(selected.len() + 1);
        next.extend_from_slice(&selected[..pos]);
        next.push(c);
        next.extend_from_slice(&selected[pos..]);
        stack.push(next);
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

/// Builds the set-cover relaxation: minimise Σx over x ∈ [0,1] subject
/// to one `≥ 1` coverage row per subscriber. The LP-rounding backend
/// ([`crate::solver::SolverBackend::LpRound`]) rounds this relaxation
/// and reads its `x`, so it keeps the `x ≤ 1` bounds (the reference
/// B&B bounds with it too).
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
/// solve, lowered once into a kept [`LpSession`]. A solve fixes a
/// node's selection with lower bounds of 1 — synced by symmetric
/// difference against the previous solve's, as [`sync_ledger`] syncs
/// the ledger — and resumes the session from its last basis.
///
/// A selected candidate is eligible for no uncovered subscriber, so
/// the optimum with the selection at `x ≥ 1` sets each selected `x` to
/// exactly 1 and is |selected| plus the cover LP over the uncovered
/// rows alone. That residual depends only on the covered-subscriber
/// mask, so it is kept per mask: a selection whose mask was solved
/// before costs a lookup. At most one entry is added per node, so the
/// node cap bounds the map.
struct CoverBound {
    session: LpSession,
    /// Candidates currently at lower bound 1 (sorted).
    fixed: Vec<usize>,
    /// Variables + constraints of the bounded formulation, the scale
    /// [`round_lp_lower_bound`] sizes its slack by.
    dimension: usize,
    /// LP optimum minus |selected|, per covered-subscriber mask.
    residuals: HashMap<Box<[u64]>, f64>,
    /// Bounds answered from `residuals` without a solve.
    reuses: u64,
}

impl CoverBound {
    fn new(n_cands: usize, eligible: &[Vec<usize>], budget: &Budget) -> Self {
        let mut lp = cover_relaxation(n_cands, eligible);
        lp.set_budget(budget.clone());
        CoverBound {
            session: LpSession::new(lp),
            fixed: Vec::new(),
            dimension: n_cands + eligible.len(),
            residuals: HashMap::new(),
            reuses: 0,
        }
    }

    /// The rounded LP lower bound on every cover containing `selected`
    /// (sorted, deduplicated), whose covered-subscriber mask is
    /// `covered`. A failed solve stores nothing, so the next selection
    /// with that mask solves again.
    fn bound(&mut self, selected: &[usize], covered: &[u64]) -> Result<usize, LpError> {
        let n = selected.len() as f64;
        if let Some(&residual) = self.residuals.get(covered) {
            self.reuses += 1;
            return Ok(round_lp_lower_bound(n + residual, self.dimension));
        }
        let session = &mut self.session;
        symmetric_diff(&self.fixed, selected, |c, joined| {
            session.set_bounds(c, if joined { 1.0 } else { 0.0 }, f64::INFINITY);
        });
        self.fixed.clear();
        self.fixed.extend_from_slice(selected);
        let sol = self.session.solve()?;
        self.residuals.insert(covered.into(), sol.objective - n);
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
    use crate::testing::scenario;
    use sag_testkit::prelude::*;
    use std::collections::HashSet;

    /// `selected`'s covered-subscriber mask, the key the search passes
    /// [`CoverBound::bound`].
    fn covered_mask(n_cands: usize, eligible: &[Vec<usize>], selected: &[usize]) -> Vec<u64> {
        let mut masks = CoverageMasks::new(n_cands, eligible);
        masks.first_uncovered(selected);
        masks.covered
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
        /// The bitmask node test finds the same first uncovered
        /// subscriber as a scan of each subscriber's eligible list, also
        /// past one 64-bit word of subscribers.
        #[cases(64)]
        fn coverage_masks_find_the_first_uncovered_subscriber(seed in 0u64..100_000) {
            let mut rng = Rng::seed_from_u64(seed);
            let n_cands = rng.gen_range(1..40usize);
            let n_subs = rng.gen_range(0..150usize);
            let eligible: Vec<Vec<usize>> = (0..n_subs)
                .map(|_| {
                    let mut e: Vec<usize> = (0..n_cands).filter(|_| rng.gen_bool(0.1)).collect();
                    if e.is_empty() {
                        e.push(rng.gen_range(0..n_cands));
                    }
                    e
                })
                .collect();
            let mut masks = CoverageMasks::new(n_cands, &eligible);
            for _ in 0..8 {
                let selected: Vec<usize> = (0..n_cands).filter(|_| rng.gen_bool(0.3)).collect();
                let want = (0..n_subs).find(|&j| {
                    !eligible[j].iter().any(|c| selected.binary_search(c).is_ok())
                });
                prop_assert_eq!(masks.first_uncovered(&selected), want, "selected {:?}", selected);
            }
        }

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
                .bound(&[], &covered_mask(n_cands, &eligible, &[]))
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
                let bound = cover
                    .bound(&fixed, &covered_mask(n_cands, &eligible, &fixed))
                    .expect("session cover LP is feasible");
                prop_assert_eq!(
                    bound,
                    round_lp_lower_bound(want, n_cands + n_subs),
                    "fixed {:?}: session bound vs bounded LP value {}",
                    fixed,
                    want
                );
            }
        }

        /// Keeping the residual per covered mask changes no bound: over
        /// random cover instances (up to 139 subscribers, so masks span
        /// up to three words) with copied candidate columns, along
        /// selection walks that add a candidate whose mask lies inside
        /// the covered set, swap a selected candidate for one with an
        /// equal mask, or add or drop one at random, the kept
        /// `CoverBound` returns for every selection the bound a fresh one
        /// returns, and it answers exactly the repeated masks without a
        /// solve.
        #[cases(64)]
        fn reused_cover_bounds_equal_fresh_solves(seed in 0u64..100_000) {
            let mut rng = Rng::seed_from_u64(seed);
            let n_subs = rng.gen_range(1..140usize);
            let base = rng.gen_range(2..20usize);
            let mut columns: Vec<Vec<usize>> = (0..base)
                .map(|_| (0..n_subs).filter(|_| rng.gen_bool(0.15)).collect())
                .collect();
            for _ in 0..rng.gen_range(1..8usize) {
                let copy = columns[rng.gen_range(0..base)].clone();
                columns.push(copy);
            }
            let n_cands = columns.len();
            let mut eligible: Vec<Vec<usize>> = vec![Vec::new(); n_subs];
            for (c, column) in columns.iter().enumerate() {
                for &j in column {
                    eligible[j].push(c);
                }
            }
            for e in &mut eligible {
                if e.is_empty() {
                    e.push(rng.gen_range(0..n_cands));
                }
            }
            let mut masks = CoverageMasks::new(n_cands, &eligible);
            let words = masks.words;
            let mask_of: Vec<Vec<u64>> = (0..n_cands)
                .map(|c| masks.masks[c * words..(c + 1) * words].to_vec())
                .collect();
            let mut cover = CoverBound::new(n_cands, &eligible, &Budget::unlimited());
            let mut seen: HashSet<Vec<u64>> = HashSet::new();
            let mut repeats = 0u64;
            let mut selected: Vec<usize> = Vec::new();
            for step in 0..12 {
                if step > 0 {
                    let unselected: Vec<usize> = (0..n_cands)
                        .filter(|c| selected.binary_search(c).is_err())
                        .collect();
                    let inside: Vec<usize> = unselected
                        .iter()
                        .copied()
                        .filter(|&c| {
                            mask_of[c].iter().zip(&masks.covered).all(|(m, w)| m & !w == 0)
                        })
                        .collect();
                    let twins: Vec<(usize, usize)> = selected
                        .iter()
                        .flat_map(|&s| unselected.iter().map(move |&u| (s, u)))
                        .filter(|&(s, u)| mask_of[s] == mask_of[u])
                        .collect();
                    match rng.gen_range(0..4u32) {
                        0 if !inside.is_empty() => {
                            selected.push(inside[rng.gen_range(0..inside.len())]);
                        }
                        1 if !twins.is_empty() => {
                            let (s, u) = twins[rng.gen_range(0..twins.len())];
                            selected.retain(|&c| c != s);
                            selected.push(u);
                        }
                        2 if !selected.is_empty() => {
                            selected.remove(rng.gen_range(0..selected.len()));
                        }
                        _ if !unselected.is_empty() => {
                            selected.push(unselected[rng.gen_range(0..unselected.len())]);
                        }
                        _ => {}
                    }
                    selected.sort_unstable();
                }
                masks.first_uncovered(&selected);
                let covered = masks.covered.clone();
                if !seen.insert(covered.clone()) {
                    repeats += 1;
                }
                let kept = cover.bound(&selected, &covered).expect("cover LP is feasible");
                let fresh = CoverBound::new(n_cands, &eligible, &Budget::unlimited())
                    .bound(&selected, &covered)
                    .expect("cover LP is feasible");
                prop_assert_eq!(kept, fresh, "selected {:?}", selected);
            }
            prop_assert_eq!(cover.reuses, repeats);
        }
    }
}
