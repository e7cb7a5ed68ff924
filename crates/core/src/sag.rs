//! The full SNR-aware Green relay pipeline — SAG (Algorithm 9).
//!
//! `SAG = SAMC → PRO → MBMC → UCPO`: place the minimum coverage relays
//! under SNR, reduce their powers, connect them to base stations with a
//! steinerized multi-BS spanning tree, and power the relay chains at
//! their per-hop minimum. The report carries every intermediate artefact
//! so the experiment harness can reproduce each figure from one run.

use std::fmt;
use std::sync::Arc;
use std::time::Instant;

use sag_lp::{Budget, Spent};
use sag_obs::{Collector, StageMetrics};
use sag_radio::ledger::LedgerMode;
use sag_radio::InterferenceLedger;

use crate::candidates::iac_candidates;
use crate::coverage::{
    flush_ledger_stats, interference_ledger, push_ledger_mode_override, CoverageSolution,
};
use crate::engine::{self, ZoneOutcome};
use crate::error::SagResult;
use crate::mbmc::{mbmc, ConnectivityPlan};
use crate::model::{Relay, RelayRole, Scenario};
use crate::pro::{pro_on, PowerAllocation};
use crate::samc::{samc_with_ledger, SamcConfig};
use crate::solver::{SelectionReason, SolveOutcome, SolverBackend, SolverBuilder};
use crate::ucpo::{ucpo, UpperTierPower};
use crate::zone::{observed_zone_partition, zone_scenario};

/// Which algorithm solves the lower tier (coverage placement).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LowerSolver {
    /// The paper's polynomial SAMC (Algorithm 1) — the default.
    #[default]
    Samc,
    /// Per-zone solves over IAC candidates by the backend
    /// [`SagPipelineConfig::solver`] selects (exact ILPQC
    /// branch-and-bound or a heuristic). Whether an exhausted
    /// [`Budget`] degrades to the greedy set-cover fallback or surfaces
    /// as
    /// [`SagError::BudgetExceeded`](crate::error::SagError::BudgetExceeded)
    /// is the builder's [`SolverBuilder::allow_fallback`]
    /// ([`SolverBuilder::strict_exact`] clears it).
    Candidates,
}

/// Which solver actually produced the coverage in a [`SagReport`].
///
/// On the candidate-set path the report records the *weakest* backend
/// that answered any zone (by [`SolverBackend::rank`]); the full
/// per-zone provenance is in [`SagReport::zone_solvers`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnsweringSolver {
    /// SAMC answered.
    Samc,
    /// The exact ILPQC answered (check the budget spent and the
    /// configured node limit to judge whether it proved optimality).
    Ilpqc,
    /// The LP-rounding backend answered — feasible, no optimality
    /// certificate, but LP-informed.
    LpRound,
    /// The local-search backend answered — feasible, no certificate.
    LocalSearch,
    /// The greedy set cover answered (chosen by policy or reached as
    /// the last rung of the ladder) — feasible, no certificate.
    GreedyFallback,
}

impl AnsweringSolver {
    /// Maps a committed backend identity onto the report enum.
    pub fn from_backend(backend: SolverBackend) -> AnsweringSolver {
        match backend {
            SolverBackend::ExactIlp => AnsweringSolver::Ilpqc,
            SolverBackend::LpRound => AnsweringSolver::LpRound,
            SolverBackend::LocalSearch => AnsweringSolver::LocalSearch,
            SolverBackend::Greedy => AnsweringSolver::GreedyFallback,
        }
    }
}

/// Per-zone solver provenance recorded in [`SagReport::zone_solvers`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ZoneSolverRecord {
    /// Zone index (partition order).
    pub zone: usize,
    /// Backend whose answer was committed for the zone.
    pub backend: SolverBackend,
    /// Why that backend answered.
    pub reason: SelectionReason,
    /// Whether the zone's answer carries an optimality certificate.
    pub optimal: bool,
}

/// Configuration of the full pipeline.
#[derive(Debug, Clone)]
pub struct SagPipelineConfig {
    /// Lower-tier SAMC options.
    pub samc: SamcConfig,
    /// Lower-tier solver selection (default: SAMC).
    pub lower_solver: LowerSolver,
    /// Backend selection front for [`LowerSolver::Candidates`]: fixed
    /// or adaptive choice plus the degradation ladder.
    /// Defaults to adaptive selection with the greedy rescue enabled.
    /// Ignored by [`LowerSolver::Samc`].
    pub solver: SolverBuilder,
    /// Cooperative budget threaded through every stage (default:
    /// unlimited). See [`Budget`].
    pub budget: Budget,
    /// Collect per-stage spans and work counters into
    /// [`SagReport::metrics`] (default: `true`). Disable for
    /// benchmark baselines that want the bare disabled-path cost; any
    /// process-wide sink installed via [`sag_obs::install`] still
    /// receives events either way.
    pub collect_metrics: bool,
    /// Worker threads for the zone-parallel lower tier: `1` solves
    /// zones sequentially on the calling thread, `N > 1` solves up to
    /// `N` zones concurrently, `0` uses every available hardware
    /// thread. `threads = 1` and `threads = N` produce byte-identical
    /// reports (see [`crate::engine`]). Defaults to `1`.
    pub threads: usize,
    /// Ledger query mode: `Some(true)` runs every SNR query on the
    /// O(R)-per-query brute-force oracle ledger, the differential
    /// referee; `None` (the default) and `Some(false)` run the
    /// incremental ledger. The choice is installed as a scoped override
    /// for the duration of the run on the calling thread and propagated
    /// to zone workers.
    pub snr_oracle: Option<bool>,
}

impl Default for SagPipelineConfig {
    fn default() -> Self {
        SagPipelineConfig {
            samc: SamcConfig::default(),
            lower_solver: LowerSolver::default(),
            solver: SolverBuilder::default(),
            budget: Budget::unlimited(),
            collect_metrics: true,
            threads: 1,
            snr_oracle: None,
        }
    }
}

/// Everything the pipeline produced.
#[derive(Debug, Clone)]
pub struct SagReport {
    /// Lower-tier placement (SAMC).
    pub coverage: CoverageSolution,
    /// Lower-tier powers (PRO).
    pub lower_power: PowerAllocation,
    /// Upper-tier plan (MBMC).
    pub plan: ConnectivityPlan,
    /// Upper-tier powers (UCPO).
    pub upper_power: UpperTierPower,
    /// The solver that produced `coverage` (records degradation; the
    /// weakest rung across zones on the candidate-set path).
    pub solver: AnsweringSolver,
    /// Per-zone backend + selection-reason records from the
    /// candidate-set lower tier, in zone index order (empty on the
    /// SAMC path, which has no backend choice).
    pub zone_solvers: Vec<ZoneSolverRecord>,
    /// Budget the lower-tier solve consumed before answering.
    pub budget_spent: Spent,
    /// Per-stage spans and work counters collected during the run
    /// (empty when [`SagPipelineConfig::collect_metrics`] is off).
    pub metrics: StageMetrics,
}

/// Compact power summary of a report (serializable for the harness).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerSummary {
    /// `P_L`: total lower-tier power after PRO.
    pub lower: f64,
    /// `P_H`: total upper-tier power after UCPO.
    pub upper: f64,
    /// `P_total = P_L + P_H` (Algorithm 9's return value).
    pub total: f64,
}

impl SagReport {
    /// Power totals.
    pub fn power_summary(&self) -> PowerSummary {
        let lower = self.lower_power.total();
        let upper = self.upper_power.total();
        PowerSummary {
            lower,
            upper,
            total: lower + upper,
        }
    }

    /// Number of coverage relays placed.
    pub fn n_coverage_relays(&self) -> usize {
        self.coverage.n_relays()
    }

    /// Number of connectivity relays placed.
    pub fn n_connectivity_relays(&self) -> usize {
        self.plan.n_relays()
    }

    /// Materialises every placed relay with role and power (coverage
    /// relays first, then connectivity relays in chain order).
    pub fn relays(&self) -> Vec<Relay> {
        let mut out: Vec<Relay> = self
            .coverage
            .relays
            .iter()
            .zip(&self.lower_power.powers)
            .map(|(&position, &power)| Relay {
                position,
                role: RelayRole::Coverage,
                power,
            })
            .collect();
        for (chain, &hp) in self.plan.chains.iter().zip(&self.upper_power.hop_power) {
            for &position in &chain.relays {
                out.push(Relay {
                    position,
                    role: RelayRole::Connectivity,
                    power: hp,
                });
            }
        }
        out
    }
}

impl fmt::Display for SagReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let p = self.power_summary();
        writeln!(
            f,
            "solver: {:?} ({} nodes, {:.1?})",
            self.solver, self.budget_spent.nodes, self.budget_spent.elapsed
        )?;
        writeln!(
            f,
            "relays: {} coverage + {} connectivity",
            self.n_coverage_relays(),
            self.n_connectivity_relays()
        )?;
        write!(
            f,
            "power: lower {:.3} + upper {:.3} = {:.3}",
            p.lower, p.upper, p.total
        )?;
        if !self.metrics.is_empty() {
            write!(f, "\n{}", self.metrics)?;
        }
        Ok(())
    }
}

/// Runs the full SAG pipeline (Algorithm 9) with default configuration.
///
/// # Errors
/// Propagates [`crate::error::SagError::Infeasible`] from SAMC and any
/// connectivity error from MBMC.
///
/// # Example
/// ```
/// use sag_core::{model::*, sag::run_sag};
/// use sag_geom::{Point, Rect};
///
/// let scenario = Scenario::new(
///     Rect::centered_square(500.0),
///     vec![
///         Subscriber::new(Point::new(0.0, 0.0), 35.0),
///         Subscriber::new(Point::new(120.0, 40.0), 30.0),
///     ],
///     vec![BaseStation::new(Point::new(200.0, 200.0))],
///     NetworkParams::default(),
/// )?;
/// let report = run_sag(&scenario)?;
/// let p = report.power_summary();
/// assert!(p.total > 0.0 && p.total == p.lower + p.upper);
/// # Ok::<(), sag_core::error::SagError>(())
/// ```
pub fn run_sag(scenario: &Scenario) -> SagResult<SagReport> {
    run_sag_with(scenario, SagPipelineConfig::default())
}

/// Runs SAG with explicit configuration.
///
/// The scenario is deep-validated first ([`Scenario::validate`]), so a
/// report is only ever produced from well-formed input. The lower tier
/// is solved per `config.lower_solver`; with [`LowerSolver::Candidates`]
/// and a builder that allows fallback, an exhausted budget degrades to
/// the greedy set cover and the report's `solver` field records the
/// rung of the ladder that answered.
///
/// # Errors
/// [`SagError::InvalidScenario`](crate::error::SagError::InvalidScenario)
/// on malformed input,
/// [`SagError::BudgetExceeded`](crate::error::SagError::BudgetExceeded)
/// when a stage runs out of budget with no fallback available; otherwise
/// see [`run_sag`].
pub fn run_sag_with(scenario: &Scenario, config: SagPipelineConfig) -> SagResult<SagReport> {
    // The pipeline's root span: every stage span links under it, so a
    // JSONL capture of one run reassembles into a single tree. This is
    // also the dump-on-failure boundary — any typed error leaving the
    // pipeline emits exactly one post-mortem frame while the root span
    // is still open.
    let run = || {
        let _root = sag_obs::span("run_sag");
        run_sag_inner(scenario, &config).inspect_err(|e| {
            e.emit_post_mortem();
        })
    };
    if !config.collect_metrics {
        return run();
    }
    let collector = Arc::new(Collector::default());
    let result = sag_obs::with_local(collector.clone(), run);
    result.map(|mut report| {
        report.metrics = collector.summary();
        report
    })
}

fn run_sag_inner(scenario: &Scenario, config: &SagPipelineConfig) -> SagResult<SagReport> {
    let _mode = config.snr_oracle.map(|oracle| {
        push_ledger_mode_override(Some(if oracle {
            LedgerMode::Oracle
        } else {
            LedgerMode::Incremental
        }))
    });
    scenario.validate()?; // Step 1: ingress gate
    let (coverage, ledger, solver, budget_spent, zone_solvers) =
        solve_lower_tier(scenario, config)?;
    // The lower tier answered, so whatever it legitimately consumed
    // must not be double-billed to the polynomial tail: rebudget the
    // tail from what actually remains on *every* rung.
    let tail = tail_budget(&config.budget);
    // PRO powers the lower tier's own ledger: the relays do not move
    // again, so no path factor is computed twice.
    let lower_power = pro_on(scenario, &coverage, Some(ledger), &tail)?; // Step 3
    let plan = mbmc(scenario, &coverage)?; // Step 4
    let upper_power = ucpo(scenario, &coverage, &plan); // Step 5
    if sag_obs::enabled() {
        sag_obs::gauge("coverage.relays", coverage.n_relays() as f64);
        sag_obs::gauge(
            "coverage.one_on_one",
            coverage.served_index().one_on_one() as f64,
        );
        sag_obs::gauge("connectivity.relays", plan.n_relays() as f64);
        sag_obs::gauge(
            "connectivity.hops",
            plan.chains.iter().map(|c| c.hops).sum::<usize>() as f64,
        );
        let mut bs_used = plan.serving_bs.clone();
        bs_used.sort_unstable();
        bs_used.dedup();
        sag_obs::gauge("connectivity.bs_used", bs_used.len() as f64);
    }
    Ok(SagReport {
        coverage,
        lower_power,
        plan,
        upper_power,
        solver,
        zone_solvers,
        budget_spent,
        metrics: StageMetrics::default(),
    })
}

/// Budget for the polynomial tail stages (PRO → MBMC → UCPO) after a
/// successful lower-tier solve.
///
/// The node cap is a lower-tier (branch-and-bound) resource and never
/// carries over. A still-live deadline is kept at the same absolute
/// cutoff: if it passes during the tail, PRO answers with the feasible
/// powers it has committed, flagged [`PowerAllocation::truncated`]. An
/// already-spent deadline is dropped rather than inherited, so PRO
/// still runs its full descent after a lower tier that used up the
/// time. Either way a deadline never turns a successful solve (or
/// degradation) into `SagError::BudgetExceeded`, which would be the
/// shared-deadline double-spend bug. External cancellation is always
/// preserved and still stops PRO with that error.
fn tail_budget(budget: &Budget) -> Budget {
    let mut tail = Budget::unlimited();
    if let Some(flag) = budget.cancel_flag() {
        tail = tail.with_cancel_flag(flag);
    }
    if let Some(at) = budget.deadline() {
        if Instant::now() < at {
            tail = tail.with_deadline_until(at);
        }
    }
    tail
}

/// Step 2 with backend selection: SAMC runs as-is; the candidate-set
/// path routes every zone through [`SolverBuilder::solve_zone`], which
/// owns adaptive selection and the degradation ladder
/// (budget-exhausted → greedy). Both paths run on the zone-parallel
/// engine with `config.threads` workers; the returned [`Spent`] is
/// stage-local (this stage's wall time and node count, not
/// pipeline-so-far) on every arm. The coverage comes with its merged
/// ledger (unit powers, relay ids equal relay indices) for PRO.
fn solve_lower_tier(
    scenario: &Scenario,
    config: &SagPipelineConfig,
) -> SagResult<(
    CoverageSolution,
    InterferenceLedger,
    AnsweringSolver,
    Spent,
    Vec<ZoneSolverRecord>,
)> {
    let stage_started = Instant::now();
    match config.lower_solver {
        LowerSolver::Samc => {
            let (coverage, ledger) =
                samc_with_ledger(scenario, config.samc, &config.budget, config.threads)?;
            let spent = Spent {
                nodes: 0,
                elapsed: stage_started.elapsed(),
            };
            Ok((coverage, ledger, AnsweringSolver::Samc, spent, Vec::new()))
        }
        LowerSolver::Candidates => {
            let zones = observed_zone_partition(scenario);
            // One pool across all zone solves: the node cap bounds the
            // *combined* branch-and-bound effort, so N workers cannot
            // multiply the configured budget by N.
            let shared = config.budget.clone().with_shared_node_pool();
            let outcomes = engine::run_zones("ilpqc", zones.len(), config.threads, |zi| {
                let (zsc, _back_map) = zone_scenario(scenario, &zones[zi]);
                let cands = iac_candidates(&zsc);
                let SolveOutcome {
                    solution,
                    backend,
                    reason,
                    optimal,
                    spent,
                } = config.solver.solve_zone(&zsc, &cands, &shared)?;
                // The zone's ledger for the merge, built and flushed here.
                let ledger = interference_ledger(&zsc, &solution.relays);
                flush_ledger_stats(ledger.stats());
                Ok((
                    ZoneOutcome { solution, ledger },
                    backend,
                    reason,
                    optimal,
                    spent,
                ))
            })?;
            let mut nodes = 0;
            let mut weakest = SolverBackend::ExactIlp;
            let mut zone_solvers = Vec::with_capacity(outcomes.len());
            let mut parts = Vec::with_capacity(outcomes.len());
            for (zone, (part, backend, reason, optimal, zone_spent)) in
                outcomes.into_iter().enumerate()
            {
                nodes += zone_spent.nodes;
                // The report's summary field records the weakest rung
                // that answered any zone.
                if backend.rank() > weakest.rank() {
                    weakest = backend;
                }
                zone_solvers.push(ZoneSolverRecord {
                    zone,
                    backend,
                    reason,
                    optimal,
                });
                parts.push(part);
            }
            let (coverage, ledger) = engine::merge_zone_outcomes(scenario, &zones, parts, "ilpqc")?;
            let spent = Spent {
                nodes,
                elapsed: stage_started.elapsed(),
            };
            Ok((
                coverage,
                ledger,
                AnsweringSolver::from_backend(weakest),
                spent,
                zone_solvers,
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coverage::is_feasible;
    use crate::error::SagError;
    use crate::model::{BaseStation, NetworkParams, Subscriber};
    use crate::pro::{allocation_is_feasible, baseline_power};
    use sag_geom::{Point, Rect};
    use sag_radio::{units::Db, LinkBudget};

    fn scenario(n_bs: usize) -> Scenario {
        let bss = [
            (250.0, 250.0),
            (-250.0, 250.0),
            (250.0, -250.0),
            (-250.0, -250.0),
        ];
        Scenario::new(
            Rect::centered_square(600.0),
            vec![
                Subscriber::new(Point::new(0.0, 0.0), 35.0),
                Subscriber::new(Point::new(30.0, 10.0), 32.0),
                Subscriber::new(Point::new(150.0, -60.0), 30.0),
                Subscriber::new(Point::new(-170.0, 100.0), 38.0),
            ],
            bss[..n_bs]
                .iter()
                .map(|&(x, y)| BaseStation::new(Point::new(x, y)))
                .collect(),
            NetworkParams::new(
                LinkBudget::builder().snr_threshold(Db::new(-15.0)).build(),
                1e-9,
            ),
        )
        .unwrap()
    }

    #[test]
    fn pipeline_end_to_end() {
        let sc = scenario(4);
        let report = run_sag(&sc).unwrap();
        assert!(is_feasible(&sc, &report.coverage));
        assert!(allocation_is_feasible(
            &sc,
            &report.coverage,
            &report.lower_power
        ));
        let p = report.power_summary();
        assert!(p.lower > 0.0 && p.upper > 0.0);
        assert!((p.total - p.lower - p.upper).abs() < 1e-12);
        // PRO must beat the all-Pmax lower tier.
        assert!(p.lower <= baseline_power(&sc, &report.coverage).total());
    }

    #[test]
    fn relays_roundtrip_roles_and_counts() {
        let sc = scenario(2);
        let report = run_sag(&sc).unwrap();
        let relays = report.relays();
        let n_cov = relays
            .iter()
            .filter(|r| r.role == RelayRole::Coverage)
            .count();
        let n_con = relays
            .iter()
            .filter(|r| r.role == RelayRole::Connectivity)
            .count();
        assert_eq!(n_cov, report.n_coverage_relays());
        assert_eq!(n_con, report.n_connectivity_relays());
        for r in &relays {
            assert!(r.power <= sc.params.link.pmax() + 1e-9);
            assert!(r.power >= 0.0);
        }
    }

    #[test]
    fn more_base_stations_never_need_more_connectivity() {
        let one = run_sag(&scenario(1)).unwrap();
        let four = run_sag(&scenario(4)).unwrap();
        assert!(four.n_connectivity_relays() <= one.n_connectivity_relays());
    }

    #[test]
    fn default_pipeline_records_samc_as_answering_solver() {
        let report = run_sag(&scenario(2)).unwrap();
        assert_eq!(report.solver, AnsweringSolver::Samc);
    }

    #[test]
    fn ilpqc_solver_records_ilpqc() {
        let sc = scenario(2);
        let config = SagPipelineConfig {
            lower_solver: LowerSolver::Candidates,
            ..Default::default()
        };
        let report = run_sag_with(&sc, config).unwrap();
        assert_eq!(report.solver, AnsweringSolver::Ilpqc);
        assert!(report.budget_spent.nodes >= 1);
        assert!(is_feasible(&sc, &report.coverage));
        // Small zones: adaptive selection must have picked the exact
        // backend for every zone and recorded why.
        assert!(!report.zone_solvers.is_empty());
        for (i, rec) in report.zone_solvers.iter().enumerate() {
            assert_eq!(rec.zone, i);
            assert_eq!(rec.backend, SolverBackend::ExactIlp);
            assert_eq!(rec.reason, SelectionReason::SmallZone);
            assert!(rec.optimal);
        }
    }

    #[test]
    fn tiny_budget_falls_back_to_greedy() {
        let sc = scenario(2);
        let config = SagPipelineConfig {
            lower_solver: LowerSolver::Candidates,
            budget: Budget::unlimited().with_node_limit(0),
            ..Default::default()
        };
        let report = run_sag_with(&sc, config).unwrap();
        assert_eq!(report.solver, AnsweringSolver::GreedyFallback);
        assert!(is_feasible(&sc, &report.coverage));
        assert!(allocation_is_feasible(
            &sc,
            &report.coverage,
            &report.lower_power
        ));
        // A node cap this small routes straight to the greedy rung.
        assert!(report.zone_solvers.iter().all(
            |r| r.backend == SolverBackend::Greedy && r.reason == SelectionReason::BudgetCapped
        ));
    }

    #[test]
    fn fixed_override_reaches_the_zone_workers() {
        let sc = scenario(2);
        let fixed = run_sag_with(
            &sc,
            SagPipelineConfig {
                lower_solver: LowerSolver::Candidates,
                solver: SolverBuilder::fixed(crate::solver::SolverBackend::LpRound),
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(fixed.solver, AnsweringSolver::LpRound);
        assert!(is_feasible(&sc, &fixed.coverage));
        assert!(fixed
            .zone_solvers
            .iter()
            .all(|r| r.reason == SelectionReason::Forced));
    }

    #[test]
    fn ledger_counters_count_every_ledger_of_a_one_zone_solve() {
        // One zone, SNR-feasible at sliding's first check: sliding builds
        // the solve's one R×S ledger, the merge copies its columns and
        // PRO computes no factor. Only snaps of one-on-one relays compute
        // more, one column each, and a shared relay never snaps.
        let sc = Scenario::new(
            Rect::centered_square(600.0),
            vec![
                Subscriber::new(Point::new(0.0, 0.0), 35.0),
                Subscriber::new(Point::new(30.0, 10.0), 32.0),
                Subscriber::new(Point::new(90.0, -20.0), 30.0),
            ],
            vec![BaseStation::new(Point::new(250.0, 250.0))],
            NetworkParams::new(
                LinkBudget::builder().snr_threshold(Db::new(-15.0)).build(),
                1e-9,
            ),
        )
        .unwrap();
        assert_eq!(crate::zone::zone_partition(&sc).len(), 1);
        let report = run_sag(&sc).unwrap();
        let m = &report.metrics;
        assert_eq!(m.counter("sliding.trials"), 0, "sliding must exit early");
        let (r, s) = (report.n_coverage_relays() as u64, sc.n_subscribers() as u64);
        assert!(
            (report.coverage.served_index().one_on_one() as u64) < r,
            "a shared relay is needed for the bound"
        );
        let factors = m.counter("ledger.path_factors");
        assert!(
            r * s <= factors && factors < 2 * r * s,
            "ledger.path_factors {factors} outside [R·S, 2·R·S) = [{}, {})",
            r * s,
            2 * r * s
        );
    }

    #[test]
    fn tiny_budget_strict_surfaces_budget_exceeded() {
        let sc = scenario(2);
        let config = SagPipelineConfig {
            lower_solver: LowerSolver::Candidates,
            solver: SolverBuilder::default().strict_exact(),
            budget: Budget::unlimited().with_node_limit(0),
            ..Default::default()
        };
        assert!(matches!(
            run_sag_with(&sc, config),
            Err(SagError::BudgetExceeded { stage: "ilpqc", .. })
        ));
    }

    #[test]
    fn invalid_scenario_is_rejected_at_ingress() {
        let mut sc = scenario(1);
        sc.subscribers[0].position.x = f64::NAN;
        assert!(matches!(run_sag(&sc), Err(SagError::InvalidScenario(_))));
    }

    // --- S1: the tail never inherits a spent budget -------------------

    #[test]
    fn tail_budget_drops_an_expired_deadline() {
        let spent = Budget::unlimited().with_deadline(std::time::Duration::from_millis(1));
        std::thread::sleep(std::time::Duration::from_millis(5));
        assert!(spent.check_interrupt().is_err(), "precondition: expired");
        let tail = tail_budget(&spent);
        assert!(tail.deadline().is_none());
        assert!(tail.check_interrupt().is_ok());
    }

    #[test]
    fn tail_budget_keeps_a_live_deadline_at_the_same_cutoff() {
        let live = Budget::unlimited().with_deadline(std::time::Duration::from_secs(3600));
        let at = live.deadline().unwrap();
        let tail = tail_budget(&live);
        assert_eq!(tail.deadline(), Some(at));
    }

    #[test]
    fn tail_budget_drops_the_node_cap_and_keeps_the_cancel_flag() {
        let flag = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let b = Budget::unlimited()
            .with_node_limit(7)
            .with_cancel_flag(flag.clone());
        let tail = tail_budget(&b);
        assert!(tail.node_limit().is_none());
        assert!(tail.check_interrupt().is_ok());
        flag.store(true, std::sync::atomic::Ordering::SeqCst);
        assert!(tail.check_interrupt().is_err(), "cancellation still bites");
    }

    #[test]
    fn exhausted_node_budget_no_longer_starves_the_tail() {
        // The lower tier burns its node budget, degrades to greedy, and
        // the polynomial tail must still complete: the regression was
        // handing PRO the same exhausted budget.
        let sc = scenario(2);
        let config = SagPipelineConfig {
            lower_solver: LowerSolver::Candidates,
            budget: Budget::unlimited().with_node_limit(1),
            ..Default::default()
        };
        let report = run_sag_with(&sc, config).unwrap();
        assert!(is_feasible(&sc, &report.coverage));
    }

    // --- Zone-parallel engine plumbing --------------------------------

    #[test]
    fn thread_counts_produce_identical_reports() {
        let sc = scenario(3);
        for solver in [LowerSolver::Samc, LowerSolver::Candidates] {
            let run = |threads: usize| {
                run_sag_with(
                    &sc,
                    SagPipelineConfig {
                        lower_solver: solver,
                        threads,
                        ..Default::default()
                    },
                )
                .unwrap()
            };
            let seq = run(1);
            let par = run(4);
            assert_eq!(seq.coverage, par.coverage, "{solver:?}");
            assert_eq!(seq.lower_power.powers, par.lower_power.powers);
            assert_eq!(seq.upper_power.hop_power, par.upper_power.hop_power);
            assert_eq!(seq.solver, par.solver);
        }
    }

    #[test]
    fn snr_oracle_override_matches_the_default_ledger() {
        let sc = scenario(2);
        let run = |snr_oracle: Option<bool>| {
            run_sag_with(
                &sc,
                SagPipelineConfig {
                    snr_oracle,
                    ..Default::default()
                },
            )
            .unwrap()
        };
        let default = run(None);
        let oracle = run(Some(true));
        let incremental = run(Some(false));
        // Oracle and incremental ledgers agree on every decision here;
        // the override only swaps the evaluation strategy.
        assert_eq!(oracle.coverage, incremental.coverage);
        assert_eq!(default.coverage, incremental.coverage);
    }

    #[test]
    fn worker_panic_surfaces_as_a_typed_error() {
        let sc = scenario(2);
        crate::engine::inject_zone_worker_panic(true);
        let out = run_sag_with(
            &sc,
            SagPipelineConfig {
                threads: 2,
                ..Default::default()
            },
        );
        crate::engine::inject_zone_worker_panic(false);
        assert!(matches!(
            out,
            Err(SagError::WorkerPanic { stage: "samc", .. })
        ));
    }

    #[test]
    fn field_far_from_the_origin_solves_cleanly() {
        // Candidate coordinates near 1e10 are beyond i64 range once
        // divided by the 1e-9 dedup tolerance; the hitting-set instance
        // must still build, in debug and release builds alike.
        let at = |dx: f64, dy: f64| Point::new(1e10 + dx, 1e10 + dy);
        let sc = Scenario::new(
            Rect::from_corners(at(-250.0, -250.0), at(250.0, 250.0)),
            vec![
                Subscriber::new(at(0.0, 0.0), 35.0),
                Subscriber::new(at(40.0, 10.0), 32.0),
            ],
            vec![BaseStation::new(at(200.0, 200.0))],
            NetworkParams::new(
                LinkBudget::builder().snr_threshold(Db::new(-15.0)).build(),
                1e-9,
            ),
        )
        .unwrap();
        let report = run_sag(&sc).expect("a valid far-field scenario solves");
        let audit = crate::validate::validate_report(&sc, &report);
        assert!(audit.is_clean(), "violations: {audit}");
    }
}
