//! Pluggable lower-tier coverage solver backends.
//!
//! The exact ILPQC formulation is only tractable on small zones;
//! everywhere else the pipeline used to *fall* down the degradation
//! ladder (exact → greedy) on budget exhaustion. This module turns that
//! failure path into a first-class scheduling policy, in the spirit of
//! multi-backend LP fronts: a [`CoverageSolver`] trait with four
//! in-tree backends, a [`SolverBuilder`] that *chooses* a backend per
//! zone, and a deterministic portfolio mode that races two backends
//! under the shared cooperative budget.
//!
//! # Backends
//!
//! * [`ExactIlp`] — the warm-started ILPQC branch-and-bound
//!   ([`crate::ilpqc`]); optimal when it finishes inside its budget.
//! * [`LpRound`] — solve the set-cover LP relaxation with the sparse
//!   revised simplex (the same relaxation the B&B prunes with), round
//!   candidates with ≥ 0.5 mass, patch uncovered subscribers with their
//!   highest-mass eligible candidate, then run the shared SNR
//!   repair + prune pass. One LP solve instead of a tree search.
//! * [`LocalSearch`] — greedy start, then deterministic drop and
//!   2-for-1 swap passes that shrink the cover, then SNR repair.
//! * [`Greedy`] — the classic greedy set cover ([`crate::fallback`]);
//!   the last rung, deliberately budget-oblivious.
//!
//! # Selection and determinism
//!
//! [`SelectionPolicy`] picks by candidate-set size and the *static*
//! properties of the remaining [`Budget`] (node-cap size, not wall
//! clock) — wall-clock remaining time differs across thread counts and
//! would break the byte-identical `threads = 1 ≡ threads = N` contract
//! of [`crate::engine`].
//!
//! [`SolverChoice::Portfolio`] races two backends: the higher-ranked
//! arm (lower [`SolverBackend::rank`]) runs on the calling thread under
//! the real budget; the other arm runs on a scoped thread under its own
//! budget slice (same deadline and node cap, its own cancel flag, **no
//! shared node pool** — a loser charging the winner's pool would
//! perturb the winner's search between runs). The committed answer is
//! decided by *rank*, never by wall-clock arrival: if the primary arm
//! returns a feasible answer it wins regardless of timing, so the
//! result is byte-identical at any thread count and across replays. A
//! loser that panics or hangs past its slice is counted
//! (`portfolio.loser_panic` / `portfolio.loser_cancelled`) and
//! discarded — never allowed to corrupt the committed answer.
//!
//! The process-wide default choice comes from the `SAG_SOLVER`
//! environment variable (read once): `adaptive` (default), a backend
//! name (`exact`, `lp_round`, `local_search`, `greedy`), `portfolio`
//! (exact + lp_round), or `portfolio:<a>+<b>`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use sag_geom::Point;
use sag_lp::{Budget, Spent};

use crate::coverage::CoverageSolution;
use crate::error::{SagError, SagResult};
use crate::fallback;
use crate::ilpqc::{build_cover_lp, solve_ilpqc, IlpqcConfig};
use crate::model::Scenario;

/// Identity of a coverage backend (the key selection and reporting
/// speak in; the trait objects themselves carry tuning knobs).
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

    /// Fixed arbitration rank: lower is stronger. Portfolio races
    /// commit by this rank — never by wall-clock arrival — so racing
    /// stays deterministic.
    pub fn rank(self) -> usize {
        match self {
            SolverBackend::ExactIlp => 0,
            SolverBackend::LpRound => 1,
            SolverBackend::LocalSearch => 2,
            SolverBackend::Greedy => 3,
        }
    }

    /// Stable lowercase name (env values, report fields, JSON).
    pub fn name(self) -> &'static str {
        match self {
            SolverBackend::ExactIlp => "exact",
            SolverBackend::LpRound => "lp_round",
            SolverBackend::LocalSearch => "local_search",
            SolverBackend::Greedy => "greedy",
        }
    }

    /// Parses a backend name as accepted by `SAG_SOLVER`.
    pub fn parse(s: &str) -> Option<SolverBackend> {
        match s.trim().to_ascii_lowercase().as_str() {
            "exact" | "exact_ilp" | "ilpqc" => Some(SolverBackend::ExactIlp),
            "lp_round" | "lpround" => Some(SolverBackend::LpRound),
            "local_search" | "localsearch" => Some(SolverBackend::LocalSearch),
            "greedy" => Some(SolverBackend::Greedy),
            _ => None,
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
}

/// Why a backend was chosen for a zone (recorded per zone in
/// [`crate::sag::SagReport::zone_solvers`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SelectionReason {
    /// A fixed [`SolverChoice::Fixed`] (config or `SAG_SOLVER`) forced
    /// the backend.
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
    /// Won a portfolio race under fixed rank arbitration.
    PortfolioRank,
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
            SelectionReason::PortfolioRank => "portfolio_rank",
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

/// A lower-tier coverage solver over a finite candidate set.
///
/// Implementations must be pure functions of `(scenario, candidates)`
/// up to budget truncation: given the same inputs and an un-exhausted
/// budget they must return the same answer, because zone workers rely
/// on it for the byte-identical thread-count contract.
pub trait CoverageSolver {
    /// Which backend this is.
    fn backend(&self) -> SolverBackend;

    /// Solves coverage for `scenario` over `candidates`.
    ///
    /// # Errors
    /// [`SagError::Infeasible`] when no feasible cover exists over the
    /// candidates; [`SagError::BudgetExceeded`] when the budget stops
    /// the solve before any feasible answer.
    fn solve(
        &self,
        scenario: &Scenario,
        candidates: &[Point],
        budget: &Budget,
    ) -> SagResult<BackendAnswer>;
}

/// The exact ILPQC branch-and-bound backend (wraps
/// [`crate::ilpqc::solve_ilpqc`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExactIlp {
    /// Node budget for the search (see [`IlpqcConfig::node_limit`]).
    pub node_limit: usize,
    /// Candidate-count threshold for per-node LP bounds (see
    /// [`IlpqcConfig::lp_bound_min_cands`]).
    pub lp_bound_min_cands: usize,
}

impl Default for ExactIlp {
    fn default() -> Self {
        let d = IlpqcConfig::default();
        ExactIlp {
            node_limit: d.node_limit,
            lp_bound_min_cands: d.lp_bound_min_cands,
        }
    }
}

impl CoverageSolver for ExactIlp {
    fn backend(&self) -> SolverBackend {
        SolverBackend::ExactIlp
    }

    fn solve(
        &self,
        scenario: &Scenario,
        candidates: &[Point],
        budget: &Budget,
    ) -> SagResult<BackendAnswer> {
        let out = solve_ilpqc(
            scenario,
            candidates,
            IlpqcConfig {
                node_limit: self.node_limit,
                budget: budget.clone(),
                lp_bound_min_cands: self.lp_bound_min_cands,
            },
        )?;
        Ok(BackendAnswer {
            solution: out.solution,
            optimal: out.optimal,
            spent: out.spent,
        })
    }
}

/// The LP-rounding backend: one sparse-simplex solve of the set-cover
/// relaxation, deterministic rounding at mass ≥ 0.5, a cover-repair
/// pass for subscribers the rounding dropped, then the shared SNR
/// repair + prune. No optimality certificate, but one LP instead of a
/// search tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LpRound;

impl CoverageSolver for LpRound {
    fn backend(&self) -> SolverBackend {
        SolverBackend::LpRound
    }

    fn solve(
        &self,
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
}

/// The local-search backend: greedy start, then deterministic
/// improvement passes — drop redundant relays, replace relay *pairs*
/// whose joint duty a single unselected candidate can absorb — up to
/// [`LocalSearch::max_rounds`] rounds, then the shared SNR
/// repair + prune. Iteration order is fixed (ascending indices), so the
/// result is a pure function of the inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LocalSearch {
    /// Improvement rounds before settling (each round is one drop pass
    /// plus one swap pass; the loop exits early when a round finds
    /// nothing).
    pub max_rounds: usize,
}

impl Default for LocalSearch {
    fn default() -> Self {
        LocalSearch { max_rounds: 4 }
    }
}

impl LocalSearch {
    /// Removes every selected candidate whose subscribers are all
    /// covered by another selected candidate. Returns `true` when
    /// anything was dropped.
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

    /// One 2-for-1 swap: find a selected pair whose sole subscribers
    /// can all be served by a single unselected candidate (or by the
    /// rest of the selection) and apply the first such move in
    /// ascending index order. Returns `true` when a move was applied.
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
}

impl CoverageSolver for LocalSearch {
    fn backend(&self) -> SolverBackend {
        SolverBackend::LocalSearch
    }

    fn solve(
        &self,
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
        for _ in 0..self.max_rounds {
            budget.check_interrupt().map_err(|_| interrupted())?;
            let mut improved = LocalSearch::drop_pass(&eligible, &mut selected);
            while LocalSearch::swap_pass(&eligible, candidates.len(), &mut selected) {
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
}

/// The greedy set-cover backend (wraps
/// [`crate::fallback::greedy_cover`]); the budget-oblivious last rung.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Greedy;

impl CoverageSolver for Greedy {
    fn backend(&self) -> SolverBackend {
        SolverBackend::Greedy
    }

    fn solve(
        &self,
        scenario: &Scenario,
        candidates: &[Point],
        _budget: &Budget,
    ) -> SagResult<BackendAnswer> {
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
}

/// Dispatches a backend identity to its default-tuned implementation.
fn run_backend(
    backend: SolverBackend,
    scenario: &Scenario,
    candidates: &[Point],
    budget: &Budget,
) -> SagResult<BackendAnswer> {
    match backend {
        SolverBackend::ExactIlp => ExactIlp::default().solve(scenario, candidates, budget),
        SolverBackend::LpRound => LpRound.solve(scenario, candidates, budget),
        SolverBackend::LocalSearch => LocalSearch::default().solve(scenario, candidates, budget),
        SolverBackend::Greedy => Greedy.solve(scenario, candidates, budget),
    }
}

/// How the builder picks a backend for a zone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SolverChoice {
    /// Per-zone adaptive selection via [`SelectionPolicy`] (default).
    #[default]
    Adaptive,
    /// Always this backend.
    Fixed(SolverBackend),
    /// Race two backends; commit by fixed rank arbitration.
    Portfolio(SolverBackend, SolverBackend),
}

impl SolverChoice {
    /// Parses a `SAG_SOLVER` value; `None` for unrecognised input (the
    /// caller then keeps its default).
    pub fn parse(s: &str) -> Option<SolverChoice> {
        let v = s.trim().to_ascii_lowercase();
        if v == "adaptive" {
            return Some(SolverChoice::Adaptive);
        }
        if v == "portfolio" {
            return Some(SolverChoice::Portfolio(
                SolverBackend::ExactIlp,
                SolverBackend::LpRound,
            ));
        }
        if let Some(arms) = v.strip_prefix("portfolio:") {
            let (a, b) = arms.split_once('+')?;
            return Some(SolverChoice::Portfolio(
                SolverBackend::parse(a)?,
                SolverBackend::parse(b)?,
            ));
        }
        SolverBackend::parse(&v).map(SolverChoice::Fixed)
    }

    /// Stable label for reports and bench JSON.
    pub fn label(self) -> &'static str {
        match self {
            SolverChoice::Adaptive => "adaptive",
            SolverChoice::Fixed(b) => b.name(),
            SolverChoice::Portfolio(..) => "portfolio",
        }
    }
}

/// Thresholds for adaptive per-zone selection. Everything here is a
/// *static* property of the zone or the budget — never wall-clock
/// remaining time, which would differ across thread counts and break
/// the determinism contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SelectionPolicy {
    /// Candidate count up to which the exact search runs. IAC yields
    /// up to `n + 2·C(n,2)` candidates per cluster, so this is roughly
    /// "clusters of ≤ 7 subscribers stay exact".
    pub exact_max_cands: usize,
    /// Candidate count up to which LP rounding runs.
    pub lp_round_max_cands: usize,
    /// Candidate count up to which local search runs; beyond it, greedy.
    pub local_search_max_cands: usize,
    /// Node caps below this make an exact search pointless (it could
    /// not even enumerate one branching level); go straight to greedy.
    pub exact_min_node_budget: usize,
}

impl Default for SelectionPolicy {
    fn default() -> Self {
        SelectionPolicy {
            exact_max_cands: 48,
            lp_round_max_cands: 192,
            local_search_max_cands: 512,
            exact_min_node_budget: 64,
        }
    }
}

impl SelectionPolicy {
    /// Picks a backend for a zone with `n_cands` candidates under
    /// `budget`. Deterministic in `(n_cands, budget.node_limit())`.
    pub fn select(&self, n_cands: usize, budget: &Budget) -> (SolverBackend, SelectionReason) {
        if budget
            .node_limit()
            .is_some_and(|cap| cap < self.exact_min_node_budget)
        {
            return (SolverBackend::Greedy, SelectionReason::BudgetCapped);
        }
        if n_cands <= self.exact_max_cands {
            (SolverBackend::ExactIlp, SelectionReason::SmallZone)
        } else if n_cands <= self.lp_round_max_cands {
            (SolverBackend::LpRound, SelectionReason::MediumZone)
        } else if n_cands <= self.local_search_max_cands {
            (SolverBackend::LocalSearch, SelectionReason::LargeZone)
        } else {
            (SolverBackend::Greedy, SelectionReason::HugeZone)
        }
    }
}

/// Fault injected into the *losing* arm of a portfolio race (chaos
/// testing). Test-only in spirit, like
/// [`crate::engine::inject_zone_worker_panic`]: it exists so the chaos
/// suite can verify that a dying or wedged loser never corrupts the
/// winner's answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoserFault {
    /// The losing arm panics instead of solving.
    Panic,
    /// The losing arm wedges until its budget slice cancels it (with a
    /// hard internal cap so a test can never deadlock).
    Hang,
}

/// Per-zone backend selection front: owns the [`SolverChoice`], the
/// [`SelectionPolicy`], and the single copy of the degradation ladder
/// (budget-exhausted → greedy) that both the steady-state pipeline
/// ([`crate::sag`]) and the churn engine ([`crate::churn`]) route
/// through, so rung accounting cannot drift between them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SolverBuilder {
    /// How backends are chosen (default: `SAG_SOLVER`, else adaptive).
    pub choice: SolverChoice,
    /// Thresholds for [`SolverChoice::Adaptive`].
    pub policy: SelectionPolicy,
    /// Whether a budget-exhausted backend may degrade to greedy (the
    /// `IlpqcWithGreedyFallback` behaviour); strict mode clears it.
    pub allow_fallback: bool,
    loser_fault: Option<LoserFault>,
}

/// The `SAG_SOLVER` process default, read once.
fn env_choice() -> Option<SolverChoice> {
    static CHOICE: OnceLock<Option<SolverChoice>> = OnceLock::new();
    *CHOICE.get_or_init(|| {
        std::env::var("SAG_SOLVER")
            .ok()
            .and_then(|v| SolverChoice::parse(&v))
    })
}

impl Default for SolverBuilder {
    /// The process default: `SAG_SOLVER` when set and parsable,
    /// adaptive selection otherwise.
    fn default() -> Self {
        SolverBuilder {
            choice: env_choice().unwrap_or_default(),
            policy: SelectionPolicy::default(),
            allow_fallback: true,
            loser_fault: None,
        }
    }
}

impl SolverBuilder {
    /// Adaptive per-zone selection (ignores `SAG_SOLVER`).
    pub fn adaptive() -> Self {
        SolverBuilder {
            choice: SolverChoice::Adaptive,
            ..Self::env_free()
        }
    }

    /// Always `backend` (ignores `SAG_SOLVER`).
    pub fn fixed(backend: SolverBackend) -> Self {
        SolverBuilder {
            choice: SolverChoice::Fixed(backend),
            ..Self::env_free()
        }
    }

    /// Race `a` against `b` (ignores `SAG_SOLVER`).
    pub fn portfolio(a: SolverBackend, b: SolverBackend) -> Self {
        SolverBuilder {
            choice: SolverChoice::Portfolio(a, b),
            ..Self::env_free()
        }
    }

    /// A builder with library defaults and no env influence — the base
    /// for the explicit constructors, so tests pinning a choice behave
    /// the same under any `SAG_SOLVER`.
    fn env_free() -> Self {
        SolverBuilder {
            choice: SolverChoice::Adaptive,
            policy: SelectionPolicy::default(),
            allow_fallback: true,
            loser_fault: None,
        }
    }

    /// Strict-exact variant: forces the exact backend and disables the
    /// greedy rescue, so budget exhaustion surfaces as
    /// [`SagError::BudgetExceeded`] (the `IlpqcStrict` contract).
    pub fn strict_exact(self) -> Self {
        SolverBuilder {
            choice: SolverChoice::Fixed(SolverBackend::ExactIlp),
            allow_fallback: false,
            ..self
        }
    }

    /// Arms a chaos fault in the losing arm of every portfolio race.
    pub fn with_loser_fault(mut self, fault: LoserFault) -> Self {
        self.loser_fault = Some(fault);
        self
    }

    /// `true` when the process default came from `SAG_SOLVER`.
    pub fn choice_from_env() -> bool {
        env_choice().is_some()
    }

    /// Solves one zone: select (or race) a backend, run the ladder,
    /// commit the answer with its provenance.
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
        match self.choice {
            SolverChoice::Fixed(b) => {
                self.run_ladder(b, SelectionReason::Forced, scenario, candidates, budget)
            }
            SolverChoice::Adaptive => {
                let (b, reason) = self.policy.select(candidates.len(), budget);
                self.run_ladder(b, reason, scenario, candidates, budget)
            }
            SolverChoice::Portfolio(a, b) => self.race(a, b, scenario, candidates, budget),
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
                let ans = run_backend(SolverBackend::Greedy, zsc, &cands, &Budget::unlimited())?;
                let out = commit(ans, SolverBackend::Greedy, SelectionReason::FallbackRung);
                Ok((out.solution, true))
            }
            Err(e) => Err(e),
        }
    }

    /// Runs `backend`, degrading to greedy on budget exhaustion when
    /// the ladder is enabled.
    fn run_ladder(
        &self,
        backend: SolverBackend,
        reason: SelectionReason,
        scenario: &Scenario,
        candidates: &[Point],
        budget: &Budget,
    ) -> SagResult<SolveOutcome> {
        match run_backend(backend, scenario, candidates, budget) {
            Ok(ans) => Ok(commit(ans, backend, reason)),
            Err(SagError::BudgetExceeded { spent, .. })
                if self.allow_fallback && backend != SolverBackend::Greedy =>
            {
                // Last rung: the greedy cover does no LP work and
                // ignores the exhausted budget. The abandoned search's
                // nodes stay billed to the zone.
                let ans = run_backend(SolverBackend::Greedy, scenario, candidates, budget)?;
                let mut out = commit(ans, SolverBackend::Greedy, SelectionReason::FallbackRung);
                out.spent.nodes += spent.nodes;
                Ok(out)
            }
            Err(e) => Err(e),
        }
    }

    /// Races two backends and commits by fixed rank arbitration.
    ///
    /// The stronger-ranked arm (the *primary*) runs on the calling
    /// thread under the real budget; the other arm runs on a scoped
    /// thread under a derived slice: same absolute deadline and node
    /// cap, its own cancel flag (raised the moment the primary
    /// answers), and no shared node pool — so nothing the loser does
    /// can perturb the primary's search or the committed answer. The
    /// primary's feasible answer always wins; the secondary's answer is
    /// committed only when the primary *fails*, which is itself a
    /// deterministic function of the inputs and budget.
    fn race(
        &self,
        a: SolverBackend,
        b: SolverBackend,
        scenario: &Scenario,
        candidates: &[Point],
        budget: &Budget,
    ) -> SagResult<SolveOutcome> {
        let (primary, secondary) = if a.rank() <= b.rank() { (a, b) } else { (b, a) };
        sag_obs::counter("portfolio.races", 1);

        let loser_stop = Arc::new(AtomicBool::new(false));
        let mut sec_budget = Budget::unlimited().with_cancel_flag(loser_stop.clone());
        if let Some(at) = budget.deadline() {
            sec_budget = sec_budget.with_deadline_until(at);
        }
        if let Some(cap) = budget.node_limit() {
            sec_budget = sec_budget.with_node_limit(cap);
        }
        let fault = self.loser_fault;
        // The loser arm inherits the race's span linkage and live sinks
        // (JSONL) but not the aggregating recorders: how far it gets
        // before the cancel flag lands is scheduling-dependent, and the
        // committed answer never includes its work — so its partial
        // counts would make collected metrics nondeterministic.
        let handoff = sag_obs::Handoff::capture();

        let (prim_result, sec_result) = std::thread::scope(|scope| {
            let sec_handle = scope.spawn(|| {
                catch_unwind(AssertUnwindSafe(|| {
                    handoff.enter(|| match fault {
                        Some(LoserFault::Panic) => panic!("injected portfolio loser panic"),
                        Some(LoserFault::Hang) => hang_until_cancelled(&sec_budget),
                        None => run_backend(secondary, scenario, candidates, &sec_budget),
                    })
                }))
            });
            let prim = run_backend(primary, scenario, candidates, budget);
            if prim.is_ok() {
                // Rank arbitration is already decided; release the
                // loser's slice so it stops burning cycles.
                loser_stop.store(true, Ordering::Relaxed);
            }
            let sec = match sec_handle.join() {
                Ok(Ok(r)) => LoserOutcome::Done(r),
                // catch_unwind caught it, or (fail closed) the join
                // itself reported a panic.
                Ok(Err(_)) | Err(_) => LoserOutcome::Panicked,
            };
            (prim, sec)
        });

        match prim_result {
            Ok(ans) => {
                match &sec_result {
                    LoserOutcome::Panicked => {
                        sag_obs::counter("portfolio.loser_panic", 1);
                        dump_loser("portfolio_loser_panic", secondary);
                    }
                    LoserOutcome::Done(r) => {
                        sag_obs::counter("portfolio.loser_cancelled", 1);
                        if loser_wedged(r) {
                            dump_loser("portfolio_loser_hang", secondary);
                        }
                    }
                }
                Ok(commit(ans, primary, SelectionReason::PortfolioRank))
            }
            Err(prim_err) => match sec_result {
                LoserOutcome::Done(Ok(ans)) => {
                    Ok(commit(ans, secondary, SelectionReason::PortfolioRank))
                }
                LoserOutcome::Done(Err(e)) => {
                    if loser_wedged(&Err(e)) {
                        dump_loser("portfolio_loser_hang", secondary);
                    }
                    Err(prim_err)
                }
                LoserOutcome::Panicked => {
                    sag_obs::counter("portfolio.loser_panic", 1);
                    dump_loser("portfolio_loser_panic", secondary);
                    Err(prim_err)
                }
            },
        }
    }
}

/// Did the loser arm wedge until its slice ran dry (rather than answer
/// or get cancelled mid-iteration)? [`hang_until_cancelled`] is the
/// only producer of a `"portfolio"`-staged budget error.
fn loser_wedged(r: &SagResult<BackendAnswer>) -> bool {
    matches!(r, Err(SagError::BudgetExceeded { stage, .. }) if *stage == "portfolio")
}

/// Leaves a forensics frame for a loser arm that died or wedged
/// (normal cancellation is the expected race outcome and does not
/// dump).
fn dump_loser(class: &'static str, backend: SolverBackend) {
    if !sag_obs::armed() {
        return;
    }
    let detail = format!("portfolio loser arm ({}) {}", backend.name(), class);
    sag_obs::post_mortem(&sag_obs::Dump {
        class,
        stage: Some("portfolio"),
        detail: &detail,
        backend: Some(backend.name()),
        reason: Some("portfolio_rank"),
        ..sag_obs::Dump::default()
    });
}

/// What the losing arm of a race came back with.
enum LoserOutcome {
    /// Finished (possibly with a typed error).
    Done(SagResult<BackendAnswer>),
    /// Died; the panic was contained at the race boundary.
    Panicked,
}

/// Realises [`LoserFault::Hang`]: spin on the cooperative checks like a
/// genuinely wedged backend would, with a hard cap so a test can never
/// deadlock the race even when the primary also fails.
fn hang_until_cancelled(budget: &Budget) -> SagResult<BackendAnswer> {
    const HARD_CAP: Duration = Duration::from_secs(2);
    let started = Instant::now();
    while budget.check_interrupt().is_ok() && started.elapsed() < HARD_CAP {
        std::thread::sleep(Duration::from_millis(1));
    }
    Err(SagError::BudgetExceeded {
        stage: "portfolio",
        spent: Spent {
            nodes: 0,
            elapsed: started.elapsed(),
        },
    })
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
    use crate::candidates::iac_candidates;
    use crate::coverage::is_feasible;
    use crate::model::{BaseStation, NetworkParams, Scenario, Subscriber};
    use sag_geom::Rect;
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
        let exact =
            run_backend(SolverBackend::ExactIlp, &sc, &cands, &Budget::unlimited()).unwrap();
        assert!(exact.optimal);
        for backend in SolverBackend::ALL {
            let ans = run_backend(backend, &sc, &cands, &Budget::unlimited()).unwrap();
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
        let greedy = run_backend(SolverBackend::Greedy, &sc, &cands, &Budget::unlimited()).unwrap();
        let ls = run_backend(
            SolverBackend::LocalSearch,
            &sc,
            &cands,
            &Budget::unlimited(),
        )
        .unwrap();
        assert!(ls.solution.n_relays() <= greedy.solution.n_relays());
    }

    #[test]
    fn adaptive_picks_exact_on_small_zone_and_greedy_under_tiny_cap() {
        let policy = SelectionPolicy::default();
        let (b, r) = policy.select(10, &Budget::unlimited());
        assert_eq!(
            (b, r),
            (SolverBackend::ExactIlp, SelectionReason::SmallZone)
        );
        let (b, r) = policy.select(100, &Budget::unlimited());
        assert_eq!(
            (b, r),
            (SolverBackend::LpRound, SelectionReason::MediumZone)
        );
        let (b, r) = policy.select(300, &Budget::unlimited());
        assert_eq!(
            (b, r),
            (SolverBackend::LocalSearch, SelectionReason::LargeZone)
        );
        let (b, r) = policy.select(10_000, &Budget::unlimited());
        assert_eq!((b, r), (SolverBackend::Greedy, SelectionReason::HugeZone));
        let (b, r) = policy.select(10, &Budget::unlimited().with_node_limit(0));
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
    fn portfolio_commits_the_primary_by_rank_not_arrival() {
        let (sc, cands) = probe();
        // Greedy finishes far sooner than exact, but exact outranks it
        // and must win every replay.
        for _ in 0..3 {
            let out = SolverBuilder::portfolio(SolverBackend::Greedy, SolverBackend::ExactIlp)
                .solve_zone(&sc, &cands, &Budget::unlimited())
                .unwrap();
            assert_eq!(out.backend, SolverBackend::ExactIlp);
            assert_eq!(out.reason, SelectionReason::PortfolioRank);
            assert!(out.optimal);
        }
    }

    #[test]
    fn portfolio_falls_to_secondary_when_primary_fails() {
        let (sc, cands) = probe();
        // node_limit(0) kills the exact arm before any incumbent, but
        // the greedy arm ignores node caps and answers.
        let out = SolverBuilder::portfolio(SolverBackend::ExactIlp, SolverBackend::Greedy)
            .solve_zone(&sc, &cands, &Budget::unlimited().with_node_limit(0))
            .unwrap();
        assert_eq!(out.backend, SolverBackend::Greedy);
        assert!(is_feasible(&sc, &out.solution));
    }

    #[test]
    fn portfolio_loser_panic_and_hang_never_corrupt_the_winner() {
        let (sc, cands) = probe();
        for fault in [LoserFault::Panic, LoserFault::Hang] {
            let out = SolverBuilder::portfolio(SolverBackend::ExactIlp, SolverBackend::LpRound)
                .with_loser_fault(fault)
                .solve_zone(&sc, &cands, &Budget::unlimited())
                .unwrap();
            assert_eq!(out.backend, SolverBackend::ExactIlp, "{fault:?}");
            assert!(is_feasible(&sc, &out.solution), "{fault:?}");
        }
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
    fn choice_parsing_roundtrips() {
        assert_eq!(
            SolverChoice::parse("adaptive"),
            Some(SolverChoice::Adaptive)
        );
        assert_eq!(
            SolverChoice::parse("lp_round"),
            Some(SolverChoice::Fixed(SolverBackend::LpRound))
        );
        assert_eq!(
            SolverChoice::parse("portfolio"),
            Some(SolverChoice::Portfolio(
                SolverBackend::ExactIlp,
                SolverBackend::LpRound
            ))
        );
        assert_eq!(
            SolverChoice::parse("portfolio:greedy+local_search"),
            Some(SolverChoice::Portfolio(
                SolverBackend::Greedy,
                SolverBackend::LocalSearch
            ))
        );
        assert_eq!(SolverChoice::parse("simulated_annealing"), None);
        for backend in SolverBackend::ALL {
            assert_eq!(SolverBackend::parse(backend.name()), Some(backend));
        }
    }

    #[test]
    fn lp_round_respects_an_expired_deadline() {
        let (sc, cands) = probe();
        let budget = Budget::unlimited().with_deadline(Duration::ZERO);
        match LpRound.solve(&sc, &cands, &budget) {
            Err(SagError::BudgetExceeded {
                stage: "lp_round", ..
            }) => {}
            other => panic!("expected lp_round budget exhaustion, got {other:?}"),
        }
    }
}
