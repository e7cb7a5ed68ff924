//! Lower-tier coverage solver backends.
//!
//! The exact ILPQC formulation is only tractable on small zones;
//! everywhere else the pipeline used to *fall* down the degradation
//! ladder (exact → greedy) on budget exhaustion. This module turns that
//! failure path into a first-class scheduling policy: four in-tree
//! backends behind [`SolverBackend::solve`], and a [`SolverBuilder`]
//! that *chooses* a backend per zone.
//!
//! # Backends
//!
//! * [`SolverBackend::ExactIlp`] — the warm-started ILPQC
//!   branch-and-bound ([`crate::ilpqc`]); optimal when it finishes
//!   inside its budget.
//! * [`SolverBackend::LpRound`] — solve the set-cover LP relaxation
//!   with the sparse revised simplex (the same relaxation the B&B
//!   prunes with), round candidates with ≥ 0.5 mass, patch uncovered
//!   subscribers with their highest-mass eligible candidate, then run
//!   the shared SNR repair + prune pass. One LP solve instead of a tree
//!   search.
//! * [`SolverBackend::LocalSearch`] — greedy start, then deterministic
//!   drop and 2-for-1 swap passes that shrink the cover, then SNR
//!   repair.
//! * [`SolverBackend::Greedy`] — the classic greedy set cover
//!   ([`crate::fallback`]); the last rung, deliberately
//!   budget-oblivious.
//!
//! # Selection and determinism
//!
//! Adaptive selection picks by candidate-set size
//! ([`EXACT_MAX_CANDS`], [`LP_ROUND_MAX_CANDS`],
//! [`LOCAL_SEARCH_MAX_CANDS`]) and the *static* properties of the
//! remaining [`Budget`] (node-cap size against
//! [`EXACT_MIN_NODE_BUDGET`], not wall clock) — wall-clock remaining
//! time differs across thread counts and would break the
//! byte-identical `threads = 1 ≡ threads = N` contract of
//! [`crate::engine`].
//!
//! The choice is always explicit: [`SolverBuilder::default`] is
//! adaptive selection, and callers that want a fixed backend say so
//! with [`SolverBuilder::fixed`].

use std::time::Instant;

use sag_geom::Point;
use sag_lp::{Budget, Spent};

use crate::coverage::CoverageSolution;
use crate::error::{SagError, SagResult};
use crate::fallback;
use crate::ilpqc::{build_cover_lp, solve_ilpqc, IlpqcConfig};
use crate::model::Scenario;

/// Candidate count up to which adaptive selection runs the exact
/// search. IAC yields up to `n + 2·C(n,2)` candidates per cluster, so
/// this is roughly "clusters of ≤ 7 subscribers stay exact".
pub const EXACT_MAX_CANDS: usize = 48;
/// Candidate count up to which adaptive selection runs LP rounding.
pub const LP_ROUND_MAX_CANDS: usize = 192;
/// Candidate count up to which adaptive selection runs local search;
/// beyond it, greedy.
pub const LOCAL_SEARCH_MAX_CANDS: usize = 512;
/// Node caps below this make an exact search pointless (it could not
/// even enumerate one branching level); adaptive selection goes
/// straight to greedy.
pub const EXACT_MIN_NODE_BUDGET: usize = 64;
/// Improvement rounds of the local-search backend before it settles
/// (each round is one drop pass plus one swap pass; the loop exits
/// early when a round finds nothing).
const LOCAL_SEARCH_ROUNDS: usize = 4;

/// A lower-tier coverage backend over a finite candidate set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SolverBackend {
    /// Exact ILPQC branch-and-bound.
    ExactIlp,
    /// LP-relaxation rounding with feasibility repair.
    LpRound,
    /// Swap/drop local search from a greedy start.
    LocalSearch,
    /// Greedy set cover.
    Greedy,
}

impl SolverBackend {
    /// Every backend, strongest first.
    pub const ALL: [SolverBackend; 4] = [
        SolverBackend::ExactIlp,
        SolverBackend::LpRound,
        SolverBackend::LocalSearch,
        SolverBackend::Greedy,
    ];

    /// Strength rank: lower is stronger ([`SolverBackend::ALL`] is in
    /// rank order). A multi-zone report names the weakest backend that
    /// answered any zone by this rank.
    pub fn rank(self) -> usize {
        match self {
            SolverBackend::ExactIlp => 0,
            SolverBackend::LpRound => 1,
            SolverBackend::LocalSearch => 2,
            SolverBackend::Greedy => 3,
        }
    }

    /// Stable lowercase name (report fields, JSON).
    pub fn name(self) -> &'static str {
        match self {
            SolverBackend::ExactIlp => "exact",
            SolverBackend::LpRound => "lp_round",
            SolverBackend::LocalSearch => "local_search",
            SolverBackend::Greedy => "greedy",
        }
    }

    /// The `solver.selected.*` counter bumped when this backend's
    /// answer is committed.
    fn selected_counter(self) -> &'static str {
        match self {
            SolverBackend::ExactIlp => "solver.selected.exact",
            SolverBackend::LpRound => "solver.selected.lp_round",
            SolverBackend::LocalSearch => "solver.selected.local_search",
            SolverBackend::Greedy => "solver.selected.greedy",
        }
    }

    /// Solves coverage for `scenario` over `candidates` with this
    /// backend.
    ///
    /// Every backend is a pure function of `(scenario, candidates)` up
    /// to budget truncation: given the same inputs and an un-exhausted
    /// budget it returns the same answer, because zone workers rely on
    /// it for the byte-identical thread-count contract.
    ///
    /// # Errors
    /// [`SagError::Infeasible`] when no feasible cover exists over the
    /// candidates; [`SagError::BudgetExceeded`] when the budget stops
    /// the solve before any feasible answer.
    pub fn solve(
        self,
        scenario: &Scenario,
        candidates: &[Point],
        budget: &Budget,
    ) -> SagResult<BackendAnswer> {
        match self {
            SolverBackend::ExactIlp => solve_exact(scenario, candidates, budget),
            SolverBackend::LpRound => solve_lp_round(scenario, candidates, budget),
            SolverBackend::LocalSearch => solve_local_search(scenario, candidates, budget),
            SolverBackend::Greedy => solve_greedy(scenario, candidates),
        }
    }
}

/// Why a backend was chosen for a zone (recorded per zone in
/// [`crate::sag::SagReport::zone_solvers`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SelectionReason {
    /// A fixed [`SolverChoice::Fixed`] forced the backend.
    Forced,
    /// Candidate set small enough for the exact search.
    SmallZone,
    /// Mid-size candidate set: LP rounding beats tree search.
    MediumZone,
    /// Large candidate set: even one LP solve is dear; local search.
    LargeZone,
    /// Candidate set past every threshold: greedy only.
    HugeZone,
    /// The budget's node cap is too small for any search to finish;
    /// skip straight to the budget-oblivious greedy rung.
    BudgetCapped,
    /// The selected backend exhausted its budget and the ladder
    /// degraded to greedy.
    FallbackRung,
}

impl SelectionReason {
    /// Stable lowercase name (report fields, JSON).
    pub fn as_str(self) -> &'static str {
        match self {
            SelectionReason::Forced => "forced",
            SelectionReason::SmallZone => "small_zone",
            SelectionReason::MediumZone => "medium_zone",
            SelectionReason::LargeZone => "large_zone",
            SelectionReason::HugeZone => "huge_zone",
            SelectionReason::BudgetCapped => "budget_capped",
            SelectionReason::FallbackRung => "fallback_rung",
        }
    }
}

/// A backend's raw answer, before the builder records selection.
#[derive(Debug, Clone)]
pub struct BackendAnswer {
    /// The placement found.
    pub solution: CoverageSolution,
    /// `true` only when the backend proved optimality (exact search
    /// that finished inside its budget).
    pub optimal: bool,
    /// Resources the solve consumed.
    pub spent: Spent,
}

/// The builder's committed answer for one zone: the placement plus the
/// provenance the report and the bench emitters record.
#[derive(Debug, Clone)]
pub struct SolveOutcome {
    /// The placement.
    pub solution: CoverageSolution,
    /// Backend whose answer was committed.
    pub backend: SolverBackend,
    /// Why that backend answered.
    pub reason: SelectionReason,
    /// Whether the answer carries an optimality certificate.
    pub optimal: bool,
    /// Resources consumed (nodes are summed across ladder rungs).
    pub spent: Spent,
}

/// The exact backend: [`crate::ilpqc::solve_ilpqc`] at its default
/// node limit under `budget`.
fn solve_exact(
    scenario: &Scenario,
    candidates: &[Point],
    budget: &Budget,
) -> SagResult<BackendAnswer> {
    let out = solve_ilpqc(
        scenario,
        candidates,
        IlpqcConfig {
            budget: budget.clone(),
            ..IlpqcConfig::default()
        },
    )?;
    Ok(BackendAnswer {
        solution: out.solution,
        optimal: out.optimal,
        spent: out.spent,
    })
}

/// The LP-rounding backend: one sparse-simplex solve of the set-cover
/// relaxation, deterministic rounding at mass ≥ 0.5, a cover-repair
/// pass for subscribers the rounding dropped, then the shared SNR
/// repair + prune. No optimality certificate, but one LP instead of a
/// search tree.
fn solve_lp_round(
    scenario: &Scenario,
    candidates: &[Point],
    budget: &Budget,
) -> SagResult<BackendAnswer> {
    let _stage = sag_obs::span("lp_round");
    let started = Instant::now();
    let eligible = fallback::eligibility(scenario, candidates, "lp_round")?;
    let mut lp = build_cover_lp(candidates.len(), &eligible);
    lp.set_budget(budget.clone());
    let sol = lp.solve().map_err(|e| {
        if e == sag_lp::LpError::Cancelled {
            SagError::BudgetExceeded {
                stage: "lp_round",
                spent: Spent {
                    nodes: 0,
                    elapsed: started.elapsed(),
                },
            }
        } else {
            SagError::Lp(e)
        }
    })?;

    // Round: keep every candidate carrying at least half a unit of
    // LP mass. Threshold rounding of a ≥1-row cover LP can leave a
    // subscriber whose mass is spread thin uncovered; the repair
    // pass below patches exactly those.
    let mut selected: Vec<usize> = (0..candidates.len()).filter(|&c| sol.x[c] >= 0.5).collect();
    for e in &eligible {
        if e.iter().any(|c| selected.binary_search(c).is_ok()) {
            continue;
        }
        // Uncovered after rounding: take its highest-mass eligible
        // candidate, first-max-wins so ties break to the lower
        // index deterministically.
        let mut best = e[0];
        for &c in &e[1..] {
            if sol.x[c] > sol.x[best] + 1e-12 {
                best = c;
            }
        }
        let pos = match selected.binary_search(&best) {
            Ok(p) | Err(p) => p,
        };
        selected.insert(pos, best);
    }

    let solution =
        fallback::repair_and_prune(scenario, candidates, &eligible, selected, "lp_round")?;
    Ok(BackendAnswer {
        solution,
        optimal: false,
        spent: Spent {
            nodes: 0,
            elapsed: started.elapsed(),
        },
    })
}

/// The local-search backend: greedy start, then deterministic
/// improvement passes — drop redundant relays, replace relay *pairs*
/// whose joint duty a single unselected candidate can absorb — up to
/// [`LOCAL_SEARCH_ROUNDS`] rounds, then the shared SNR repair + prune.
/// Iteration order is fixed (ascending indices), so the result is a
/// pure function of the inputs.
fn solve_local_search(
    scenario: &Scenario,
    candidates: &[Point],
    budget: &Budget,
) -> SagResult<BackendAnswer> {
    let _stage = sag_obs::span("local_search");
    let started = Instant::now();
    let interrupted = || SagError::BudgetExceeded {
        stage: "local_search",
        spent: Spent {
            nodes: 0,
            elapsed: started.elapsed(),
        },
    };
    let eligible = fallback::eligibility(scenario, candidates, "local_search")?;
    let mut selected = fallback::greedy_select(&eligible, candidates.len(), "local_search")?;
    for _ in 0..LOCAL_SEARCH_ROUNDS {
        budget.check_interrupt().map_err(|_| interrupted())?;
        let mut improved = drop_pass(&eligible, &mut selected);
        while swap_pass(&eligible, candidates.len(), &mut selected) {
            improved = true;
            budget.check_interrupt().map_err(|_| interrupted())?;
        }
        if !improved {
            break;
        }
    }
    let solution =
        fallback::repair_and_prune(scenario, candidates, &eligible, selected, "local_search")?;
    Ok(BackendAnswer {
        solution,
        optimal: false,
        spent: Spent {
            nodes: 0,
            elapsed: started.elapsed(),
        },
    })
}

/// Removes every selected candidate whose subscribers are all covered
/// by another selected candidate. Returns `true` when anything was
/// dropped.
fn drop_pass(eligible: &[Vec<usize>], selected: &mut Vec<usize>) -> bool {
    let mut counts = vec![0usize; eligible.len()];
    for (j, e) in eligible.iter().enumerate() {
        counts[j] = e
            .iter()
            .filter(|c| selected.binary_search(c).is_ok())
            .count();
    }
    let mut dropped = false;
    let mut i = 0;
    while i < selected.len() {
        let c = selected[i];
        let redundant = eligible
            .iter()
            .enumerate()
            .all(|(j, e)| e.binary_search(&c).is_err() || counts[j] >= 2);
        if redundant {
            for (j, e) in eligible.iter().enumerate() {
                if e.binary_search(&c).is_ok() {
                    counts[j] -= 1;
                }
            }
            selected.remove(i);
            dropped = true;
        } else {
            i += 1;
        }
    }
    dropped
}

/// One 2-for-1 swap: find a selected pair whose sole subscribers can
/// all be served by a single unselected candidate (or by the rest of
/// the selection) and apply the first such move in ascending index
/// order. Returns `true` when a move was applied.
fn swap_pass(eligible: &[Vec<usize>], n_cands: usize, selected: &mut Vec<usize>) -> bool {
    for ai in 0..selected.len() {
        for bi in ai + 1..selected.len() {
            let (a, b) = (selected[ai], selected[bi]);
            // Subscribers whose only selected coverers are a and/or b.
            let must: Vec<usize> = eligible
                .iter()
                .enumerate()
                .filter(|(_, e)| {
                    (e.binary_search(&a).is_ok() || e.binary_search(&b).is_ok())
                        && !e
                            .iter()
                            .any(|&c| c != a && c != b && selected.binary_search(&c).is_ok())
                })
                .map(|(j, _)| j)
                .collect();
            if must.is_empty() {
                // Jointly redundant pair: drop both outright.
                selected.retain(|&s| s != a && s != b);
                return true;
            }
            let replacement = (0..n_cands).find(|&c| {
                selected.binary_search(&c).is_err()
                    && must.iter().all(|&j| eligible[j].binary_search(&c).is_ok())
            });
            if let Some(c) = replacement {
                selected.retain(|&s| s != a && s != b);
                let pos = match selected.binary_search(&c) {
                    Ok(p) | Err(p) => p,
                };
                selected.insert(pos, c);
                return true;
            }
        }
    }
    false
}

/// The greedy set-cover backend ([`crate::fallback::greedy_cover`]);
/// the budget-oblivious last rung.
fn solve_greedy(scenario: &Scenario, candidates: &[Point]) -> SagResult<BackendAnswer> {
    let started = Instant::now();
    let solution = fallback::greedy_cover(scenario, candidates)?;
    Ok(BackendAnswer {
        solution,
        optimal: false,
        spent: Spent {
            nodes: 0,
            elapsed: started.elapsed(),
        },
    })
}

/// How the builder picks a backend for a zone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolverChoice {
    /// Per-zone adaptive selection by candidate count and node cap (the
    /// [`SolverBuilder::default`] choice).
    Adaptive,
    /// Always this backend.
    Fixed(SolverBackend),
}

/// Adaptive per-zone selection: picks a backend for a zone with
/// `n_cands` candidates under `budget`. Deterministic in
/// `(n_cands, budget.node_limit())` — never wall-clock remaining time,
/// which would differ across thread counts and break the determinism
/// contract.
fn select(n_cands: usize, budget: &Budget) -> (SolverBackend, SelectionReason) {
    if budget
        .node_limit()
        .is_some_and(|cap| cap < EXACT_MIN_NODE_BUDGET)
    {
        return (SolverBackend::Greedy, SelectionReason::BudgetCapped);
    }
    if n_cands <= EXACT_MAX_CANDS {
        (SolverBackend::ExactIlp, SelectionReason::SmallZone)
    } else if n_cands <= LP_ROUND_MAX_CANDS {
        (SolverBackend::LpRound, SelectionReason::MediumZone)
    } else if n_cands <= LOCAL_SEARCH_MAX_CANDS {
        (SolverBackend::LocalSearch, SelectionReason::LargeZone)
    } else {
        (SolverBackend::Greedy, SelectionReason::HugeZone)
    }
}

/// Per-zone backend selection front: owns the [`SolverChoice`] and the
/// single copy of the degradation ladder (budget-exhausted → greedy)
/// that both the steady-state pipeline ([`crate::sag`]) and the churn
/// engine ([`crate::churn`]) route through, so rung accounting cannot
/// drift between them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SolverBuilder {
    /// How backends are chosen (default: adaptive).
    pub choice: SolverChoice,
    /// Whether a budget-exhausted backend may degrade to greedy (the
    /// default); [`SolverBuilder::strict_exact`] clears it.
    pub allow_fallback: bool,
}

impl Default for SolverBuilder {
    /// Adaptive per-zone selection with the greedy rescue enabled.
    fn default() -> Self {
        SolverBuilder {
            choice: SolverChoice::Adaptive,
            allow_fallback: true,
        }
    }
}

impl SolverBuilder {
    /// Adaptive per-zone selection (the default).
    pub fn adaptive() -> Self {
        Self::default()
    }

    /// Always `backend`.
    pub fn fixed(backend: SolverBackend) -> Self {
        SolverBuilder {
            choice: SolverChoice::Fixed(backend),
            ..Self::default()
        }
    }

    /// Strict-exact variant: forces the exact backend and disables the
    /// greedy rescue, so budget exhaustion surfaces as
    /// [`SagError::BudgetExceeded`].
    pub fn strict_exact(self) -> Self {
        SolverBuilder {
            choice: SolverChoice::Fixed(SolverBackend::ExactIlp),
            allow_fallback: false,
        }
    }

    /// Solves one zone: select a backend, run the ladder, commit the
    /// answer with its provenance.
    ///
    /// # Errors
    /// Whatever the committed backend surfaces; with
    /// [`SolverBuilder::allow_fallback`] cleared, budget exhaustion
    /// propagates instead of degrading to greedy.
    pub fn solve_zone(
        &self,
        scenario: &Scenario,
        candidates: &[Point],
        budget: &Budget,
    ) -> SagResult<SolveOutcome> {
        let (backend, reason) = match self.choice {
            SolverChoice::Fixed(b) => (b, SelectionReason::Forced),
            SolverChoice::Adaptive => select(candidates.len(), budget),
        };
        match backend.solve(scenario, candidates, budget) {
            Ok(ans) => Ok(commit(ans, backend, reason)),
            Err(SagError::BudgetExceeded { spent, .. })
                if self.allow_fallback && backend != SolverBackend::Greedy =>
            {
                // Last rung: the greedy cover does no LP work and
                // ignores the exhausted budget. The abandoned search's
                // nodes stay billed to the zone.
                let ans = SolverBackend::Greedy.solve(scenario, candidates, budget)?;
                let mut out = commit(ans, SolverBackend::Greedy, SelectionReason::FallbackRung);
                out.spent.nodes += spent.nodes;
                Ok(out)
            }
            Err(e) => Err(e),
        }
    }

    /// Runs a churn-style primary solve with the shared greedy rescue:
    /// `primary` (the zone's preferred exact path, e.g. the SAMC zone
    /// solver) answers when it can; an [`SagError::Infeasible`] answer
    /// falls to the greedy backend over the zone's IAC candidates —
    /// the same rung, counter, and accounting as the steady-state
    /// ladder. Returns the solution and whether the rescue ran.
    ///
    /// # Errors
    /// Non-`Infeasible` primary errors propagate; so does `Infeasible`
    /// when [`SolverBuilder::allow_fallback`] is cleared or the rescue
    /// itself fails.
    pub fn primary_or_greedy_rescue<F>(
        &self,
        zsc: &Scenario,
        primary: F,
    ) -> SagResult<(CoverageSolution, bool)>
    where
        F: FnOnce() -> SagResult<CoverageSolution>,
    {
        match primary() {
            Ok(sol) => Ok((sol, false)),
            Err(SagError::Infeasible(_)) if self.allow_fallback => {
                let cands = crate::candidates::iac_candidates(zsc);
                let ans = solve_greedy(zsc, &cands)?;
                let out = commit(ans, SolverBackend::Greedy, SelectionReason::FallbackRung);
                Ok((out.solution, true))
            }
            Err(e) => Err(e),
        }
    }
}

/// Stamps a committed answer with its provenance and bumps the
/// selection counter.
fn commit(ans: BackendAnswer, backend: SolverBackend, reason: SelectionReason) -> SolveOutcome {
    sag_obs::counter(backend.selected_counter(), 1);
    SolveOutcome {
        solution: ans.solution,
        backend,
        reason,
        optimal: ans.optimal,
        spent: ans.spent,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::scenario;
    use std::time::Duration;

    use crate::candidates::iac_candidates;
    use crate::coverage::is_feasible;
    use crate::model::Scenario;

    fn probe() -> (Scenario, Vec<Point>) {
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
        (sc, cands)
    }

    #[test]
    fn every_backend_answers_feasibly() {
        let (sc, cands) = probe();
        let exact = SolverBackend::ExactIlp
            .solve(&sc, &cands, &Budget::unlimited())
            .unwrap();
        assert!(exact.optimal);
        for backend in SolverBackend::ALL {
            let ans = backend.solve(&sc, &cands, &Budget::unlimited()).unwrap();
            assert!(is_feasible(&sc, &ans.solution), "{backend:?}");
            assert!(
                ans.solution.n_relays() >= exact.solution.n_relays(),
                "{backend:?} beat the proven optimum"
            );
        }
    }

    #[test]
    fn local_search_never_worse_than_greedy() {
        let (sc, cands) = probe();
        let greedy = SolverBackend::Greedy
            .solve(&sc, &cands, &Budget::unlimited())
            .unwrap();
        let ls = SolverBackend::LocalSearch
            .solve(&sc, &cands, &Budget::unlimited())
            .unwrap();
        assert!(ls.solution.n_relays() <= greedy.solution.n_relays());
    }

    #[test]
    fn adaptive_picks_exact_on_small_zone_and_greedy_under_tiny_cap() {
        let (b, r) = select(10, &Budget::unlimited());
        assert_eq!(
            (b, r),
            (SolverBackend::ExactIlp, SelectionReason::SmallZone)
        );
        let (b, r) = select(100, &Budget::unlimited());
        assert_eq!(
            (b, r),
            (SolverBackend::LpRound, SelectionReason::MediumZone)
        );
        let (b, r) = select(300, &Budget::unlimited());
        assert_eq!(
            (b, r),
            (SolverBackend::LocalSearch, SelectionReason::LargeZone)
        );
        let (b, r) = select(10_000, &Budget::unlimited());
        assert_eq!((b, r), (SolverBackend::Greedy, SelectionReason::HugeZone));
        let (b, r) = select(10, &Budget::unlimited().with_node_limit(0));
        assert_eq!(
            (b, r),
            (SolverBackend::Greedy, SelectionReason::BudgetCapped)
        );
    }

    #[test]
    fn fixed_exact_exhaustion_degrades_to_greedy_on_the_ladder() {
        let (sc, cands) = probe();
        let out = SolverBuilder::fixed(SolverBackend::ExactIlp)
            .solve_zone(&sc, &cands, &Budget::unlimited().with_node_limit(0))
            .unwrap();
        assert_eq!(out.backend, SolverBackend::Greedy);
        assert_eq!(out.reason, SelectionReason::FallbackRung);
        assert!(is_feasible(&sc, &out.solution));
    }

    #[test]
    fn strict_exact_surfaces_budget_exceeded() {
        let (sc, cands) = probe();
        let err = SolverBuilder::fixed(SolverBackend::ExactIlp)
            .strict_exact()
            .solve_zone(&sc, &cands, &Budget::unlimited().with_node_limit(0))
            .unwrap_err();
        assert!(matches!(
            err,
            SagError::BudgetExceeded { stage: "ilpqc", .. }
        ));
    }

    #[test]
    fn greedy_rescue_reuses_the_shared_rung() {
        let (sc, _) = probe();
        let builder = SolverBuilder::adaptive();
        let (sol, rescued) = builder
            .primary_or_greedy_rescue(&sc, || Err(SagError::Infeasible("primary declined".into())))
            .unwrap();
        assert!(rescued);
        assert!(is_feasible(&sc, &sol));
        // Non-Infeasible errors must propagate untouched.
        let err = builder
            .primary_or_greedy_rescue(&sc, || {
                Err(SagError::LedgerDesync(sag_radio::DesyncError {
                    subscriber: 0,
                    ledger: 0.0,
                    oracle: 1.0,
                }))
            })
            .unwrap_err();
        assert!(matches!(err, SagError::LedgerDesync(_)));
    }

    #[test]
    fn lp_round_respects_an_expired_deadline() {
        let (sc, cands) = probe();
        let budget = Budget::unlimited().with_deadline(Duration::ZERO);
        match SolverBackend::LpRound.solve(&sc, &cands, &budget) {
            Err(SagError::BudgetExceeded {
                stage: "lp_round", ..
            }) => {}
            other => panic!("expected lp_round budget exhaustion, got {other:?}"),
        }
    }
}
