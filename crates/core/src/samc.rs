//! SNR Aware Minimum Coverage — SAMC (Algorithm 1).
//!
//! The paper's polynomial-time lower-tier solver:
//!
//! 1. **Zone Partition** (Algorithm 2) splits subscribers into
//!    interference-independent zones;
//! 2. per zone, a **minimum hitting set** over the feasible circles
//!    places the coverage relays (the Mustafa–Ray (1+ε) PTAS, so a
//!    feasible SAMC answer inherits the (1+ε) bound — no relay is ever
//!    added or removed afterwards);
//! 3. **Coverage Link Escape** (Algorithm 3) assigns subscribers to
//!    relay points, maximising one-on-one coverages;
//! 4. **RS Sliding Movement** (Algorithms 4–5) repairs SNR violations by
//!    moving relays without changing the coverage topology.
//!
//! If any zone cannot be repaired, SAMC reports infeasibility, exactly
//! like the paper's Step 5.

use std::time::Instant;

use sag_geom::Point;
use sag_hitting::{exact, greedy, local_search, DiskInstance};
use sag_lp::{Budget, Spent};
use sag_radio::InterferenceLedger;

use crate::coverage::CoverageSolution;
use crate::engine::{self, ZoneOutcome};
use crate::error::{SagError, SagResult};
use crate::escape::coverage_link_escape;
use crate::model::Scenario;
use crate::sliding::slide_on;
use crate::zone::{observed_zone_partition, zone_scenario};

/// Which hitting-set solver Step 4 uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum HittingStrategy {
    /// Mustafa–Ray-style local search — the paper's choice.
    #[default]
    LocalSearch,
    /// Plain greedy (ln n): faster, slightly larger answers.
    Greedy,
    /// Exact branch-and-bound: for small zones / ablations.
    Exact,
}

/// SAMC configuration.
#[derive(Debug, Clone, Copy, Default)]
pub struct SamcConfig {
    /// Hitting-set solver for Step 4.
    pub hitting: HittingStrategy,
}

/// Runs SAMC with the default configuration.
///
/// # Errors
/// [`SagError::Infeasible`] when some zone's SNR violations cannot be
/// repaired by sliding (the paper's `return infeasible`).
pub fn samc(scenario: &Scenario) -> SagResult<CoverageSolution> {
    samc_with(scenario, SamcConfig::default())
}

/// Runs SAMC with an explicit configuration.
///
/// # Errors
/// See [`samc`].
pub fn samc_with(scenario: &Scenario, config: SamcConfig) -> SagResult<CoverageSolution> {
    samc_with_budget(scenario, config, &Budget::unlimited())
}

/// Runs SAMC under a cooperative [`Budget`], checked between zones and
/// before the global repair round.
///
/// # Errors
/// [`SagError::BudgetExceeded`] (stage `"samc"`) when the deadline
/// passes or the cancellation flag is raised between zones; otherwise
/// see [`samc`].
pub fn samc_with_budget(
    scenario: &Scenario,
    config: SamcConfig,
    budget: &Budget,
) -> SagResult<CoverageSolution> {
    samc_with_budget_threads(scenario, config, budget, 1)
}

/// Runs SAMC on the zone-parallel engine: up to `threads` zones are
/// solved concurrently, each against a private zone ledger, and merged
/// in zone index order — so `threads = 1` and `threads = N` return
/// byte-identical solutions (see [`crate::engine`]).
///
/// # Errors
/// See [`samc_with_budget`]; additionally
/// [`SagError::WorkerPanic`] when a zone worker dies.
pub fn samc_with_budget_threads(
    scenario: &Scenario,
    config: SamcConfig,
    budget: &Budget,
    threads: usize,
) -> SagResult<CoverageSolution> {
    samc_with_ledger(scenario, config, budget, threads).map(|(solution, _)| solution)
}

/// [`samc_with_budget_threads`] returning the placement with its
/// interference ledger (unit powers, relay ids equal relay indices,
/// bit-identical to [`crate::coverage::interference_ledger`] over the
/// placement): each zone's sliding ledger, merged, and slid again by the
/// global repair round when one runs. `run_sag` hands it to PRO, so the
/// path factors of the final relay positions are computed once. Public
/// only so that benchmarks can compose the stages as `run_sag` does.
///
/// # Errors
/// See [`samc_with_budget_threads`].
#[doc(hidden)]
pub fn samc_with_ledger(
    scenario: &Scenario,
    config: SamcConfig,
    budget: &Budget,
    threads: usize,
) -> SagResult<(CoverageSolution, InterferenceLedger)> {
    let _stage = sag_obs::span("samc");
    let started = Instant::now();
    let exceeded = |started: Instant| SagError::BudgetExceeded {
        stage: "samc",
        spent: Spent {
            nodes: 0,
            elapsed: started.elapsed(),
        },
    };
    let zones = observed_zone_partition(scenario);
    let outcomes = engine::run_zones("samc", zones.len(), threads, |zi| {
        budget.check_interrupt().map_err(|_| exceeded(started))?;
        let (zsc, _back_map) = zone_scenario(scenario, &zones[zi]);
        solve_zone(&zsc, config)
    })?;

    // Zones are interference-independent only up to N_max; the merge
    // re-checks the combined placement and runs one global repair round
    // if the residual inter-zone noise still trips someone.
    budget.check_interrupt().map_err(|_| exceeded(started))?;
    engine::merge_zone_outcomes(scenario, &zones, outcomes, "samc")
}

/// Solves one zone: hitting set → escape → sliding. Different hitting
/// sets induce different coverage topologies, and a topology that fails
/// SNR repair is not proof of infeasibility — so on failure the other
/// solvers' topologies are tried before giving up (the "SAMC stably
/// finds solutions where IAC/GAC fail" behaviour of §IV-B). The first
/// strategy is the configured one, so the (1+ε) size guarantee of the
/// preferred solver still applies whenever it succeeds. The outcome
/// keeps sliding's ledger for the zone merge.
pub(crate) fn solve_zone(zsc: &Scenario, config: SamcConfig) -> SagResult<ZoneOutcome> {
    let order: [HittingStrategy; 3] = match config.hitting {
        HittingStrategy::LocalSearch => [
            HittingStrategy::LocalSearch,
            HittingStrategy::Greedy,
            HittingStrategy::Exact,
        ],
        HittingStrategy::Greedy => [
            HittingStrategy::Greedy,
            HittingStrategy::LocalSearch,
            HittingStrategy::Exact,
        ],
        HittingStrategy::Exact => [
            HittingStrategy::Exact,
            HittingStrategy::LocalSearch,
            HittingStrategy::Greedy,
        ],
    };
    let mut last_err = SagError::Infeasible("samc: zone never attempted".into());
    for strategy in order {
        // The exact solver is exponential; skip it as a fallback on
        // zones large enough to hurt.
        if strategy == HittingStrategy::Exact
            && config.hitting != HittingStrategy::Exact
            && zsc.n_subscribers() > 18
        {
            continue;
        }
        match solve_zone_with(zsc, strategy) {
            Ok(sol) => return Ok(sol),
            Err(e) => last_err = e,
        }
    }
    Err(last_err)
}

fn solve_zone_with(zsc: &Scenario, strategy: HittingStrategy) -> SagResult<ZoneOutcome> {
    let instance = DiskInstance::new(zsc.feasible_circles());
    let points: Vec<Point> = match strategy {
        HittingStrategy::LocalSearch => local_search::local_search_hitting_set(&instance),
        HittingStrategy::Greedy => greedy::greedy_hitting_set(&instance),
        HittingStrategy::Exact => exact::exact_hitting_set(&instance),
    };
    let escape = {
        let _span = sag_obs::span("escape");
        coverage_link_escape(zsc, &points)
    };

    // Keep only the points the escape actually uses, remapping indices.
    let mut keep: Vec<usize> = Vec::new();
    let mut remap = vec![usize::MAX; points.len()];
    for (p, served) in escape.served.iter().enumerate() {
        if !served.is_empty() {
            remap[p] = keep.len();
            keep.push(p);
        }
    }
    let relays: Vec<Point> = keep.iter().map(|&p| points[p]).collect();
    let mut assignment = Vec::with_capacity(zsc.n_subscribers());
    for (j, asg) in escape.assignment.iter().enumerate() {
        match asg {
            Some(p) => assignment.push(remap[*p]),
            None => {
                return Err(SagError::Infeasible(format!(
                    "samc: subscriber {j} not covered by the hitting set"
                )))
            }
        }
    }

    slide_on(zsc, None, relays, assignment)
        .map(|(solution, ledger)| ZoneOutcome { solution, ledger })
        .ok_or_else(|| SagError::Infeasible("samc: zone SNR repair failed".into()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coverage::is_feasible;
    use crate::model::{BaseStation, NetworkParams, Scenario, Subscriber};
    use crate::testing::scenario;
    use sag_geom::Rect;
    use sag_radio::{units::Db, LinkBudget};

    #[test]
    fn single_subscriber_single_relay() {
        let sc = scenario(vec![(10.0, 10.0, 30.0)], -15.0);
        let sol = samc(&sc).unwrap();
        assert_eq!(sol.n_relays(), 1);
        assert!(is_feasible(&sc, &sol));
        // One-on-one snap puts the relay on the subscriber.
        assert!(sol.relays[0].approx_eq(Point::new(10.0, 10.0)));
    }

    #[test]
    fn overlapping_cluster_shares_one_relay() {
        let sc = scenario(
            vec![(0.0, 0.0, 40.0), (30.0, 0.0, 40.0), (15.0, 20.0, 40.0)],
            -15.0,
        );
        let sol = samc(&sc).unwrap();
        assert_eq!(sol.n_relays(), 1, "one point hits all three disks");
        assert!(is_feasible(&sc, &sol));
    }

    #[test]
    fn spread_subscribers_feasible() {
        let sc = scenario(
            vec![
                (-200.0, -200.0, 35.0),
                (-150.0, -180.0, 32.0),
                (0.0, 0.0, 30.0),
                (40.0, 10.0, 38.0),
                (200.0, 200.0, 31.0),
                (180.0, 150.0, 36.0),
            ],
            -15.0,
        );
        let sol = samc(&sc).unwrap();
        assert!(is_feasible(&sc, &sol));
        assert!(sol.n_relays() <= 6);
        assert!(sol.n_relays() >= 2);
    }

    #[test]
    fn strategies_all_feasible() {
        let sc = scenario(
            vec![
                (-100.0, 0.0, 35.0),
                (-60.0, 10.0, 35.0),
                (100.0, 0.0, 30.0),
                (130.0, -20.0, 30.0),
            ],
            -15.0,
        );
        for strategy in [
            HittingStrategy::LocalSearch,
            HittingStrategy::Greedy,
            HittingStrategy::Exact,
        ] {
            let sol = samc_with(&sc, SamcConfig { hitting: strategy }).unwrap();
            assert!(
                is_feasible(&sc, &sol),
                "strategy {strategy:?} produced infeasible"
            );
        }
    }

    #[test]
    fn exact_never_more_relays_than_greedy() {
        let sc = scenario(
            vec![
                (0.0, 0.0, 35.0),
                (50.0, 0.0, 35.0),
                (100.0, 0.0, 35.0),
                (150.0, 0.0, 35.0),
                (25.0, 40.0, 35.0),
            ],
            -15.0,
        );
        let e = samc_with(
            &sc,
            SamcConfig {
                hitting: HittingStrategy::Exact,
            },
        )
        .unwrap();
        let g = samc_with(
            &sc,
            SamcConfig {
                hitting: HittingStrategy::Greedy,
            },
        )
        .unwrap();
        assert!(e.n_relays() <= g.n_relays());
    }

    #[test]
    fn impossible_threshold_reports_infeasible() {
        // One-on-one relays snap onto their subscriber (near-zero serving
        // distance), so pairs of isolated subscribers are always
        // SNR-feasible. Genuine infeasibility needs *shared* relays that
        // cannot snap: two clusters of two subscribers each. A relay
        // covering a cluster sits ≥ 6 from both its subscribers (they are
        // 12 apart vertically); the other cluster's relay is ≈ 12 away,
        // so the SNR tops out near (13.4/6)³ ≈ 11 (10.4 dB) — far below
        // the +20 dB threshold, and no sliding can help.
        let hard = scenario(
            vec![
                (0.0, -6.0, 6.5),
                (0.0, 6.0, 6.5),
                (12.0, -6.0, 6.5),
                (12.0, 6.0, 6.5),
            ],
            20.0,
        );
        assert!(matches!(samc(&hard), Err(SagError::Infeasible(_))));
        // The same geometry at a lenient threshold is fine.
        let easy = scenario(
            vec![
                (0.0, -6.0, 6.5),
                (0.0, 6.0, 6.5),
                (12.0, -6.0, 6.5),
                (12.0, 6.0, 6.5),
            ],
            -15.0,
        );
        assert!(samc(&easy).is_ok());
    }

    #[test]
    fn expired_budget_reports_budget_exceeded() {
        let sc = scenario(vec![(0.0, 0.0, 30.0)], -15.0);
        let err = samc_with_budget(
            &sc,
            SamcConfig::default(),
            &Budget::unlimited().with_deadline(std::time::Duration::ZERO),
        )
        .unwrap_err();
        assert!(matches!(
            err,
            SagError::BudgetExceeded { stage: "samc", .. }
        ));
        // An unlimited budget is transparent.
        assert!(samc_with_budget(&sc, SamcConfig::default(), &Budget::unlimited()).is_ok());
    }

    #[test]
    fn far_zones_solved_independently() {
        // Two clusters far outside each other's interference reach (use a
        // small Nmax to force multiple zones).
        let params = NetworkParams::new(
            LinkBudget::builder().snr_threshold(Db::new(-15.0)).build(),
            1e-3, // dmax = 10
        );
        let sc = Scenario::new(
            Rect::centered_square(500.0),
            vec![
                Subscriber::new(Point::new(0.0, 0.0), 5.0),
                Subscriber::new(Point::new(3.0, 0.0), 5.0),
                Subscriber::new(Point::new(200.0, 0.0), 5.0),
            ],
            vec![BaseStation::new(Point::new(0.0, 200.0))],
            params,
        )
        .unwrap();
        let zones = crate::zone::zone_partition(&sc);
        assert_eq!(zones.len(), 2);
        let sol = samc(&sc).unwrap();
        assert!(is_feasible(&sc, &sol));
        assert_eq!(sol.n_relays(), 2);
    }
}
