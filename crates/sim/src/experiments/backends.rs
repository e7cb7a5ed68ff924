//! Extension experiment (not in the paper): the pluggable coverage
//! solver backends, head to head.
//!
//! Runs the full SAG pipeline over seeded multi-zone scenarios with
//! the lower tier pinned to each [`sag_core::SolverBackend`] in turn,
//! plus the adaptive per-zone selector. Every arm is scored against the
//! exact arm on the same scenario: relay-count ratio (solution
//! quality), the median lower-tier solve time over repeated solves in
//! microseconds (cost), and the fraction of zones whose answer was
//! certified optimal.

use sag_core::sag::{run_sag_with, LowerSolver, SagPipelineConfig, SagReport};
use sag_core::{SolverBackend, SolverBuilder};

use crate::gen::{BsLayout, ScenarioSpec};
use crate::runner::{sweep_multi, SweepConfig};
use crate::table::Table;

/// A named way of constructing the lower-tier solver for one arm.
type Arm = (&'static str, fn() -> SolverBuilder);

/// The arms, in x-axis order of the [`backends`] table.
const ARMS: [Arm; 5] = [
    ("exact", || SolverBuilder::fixed(SolverBackend::ExactIlp)),
    ("lp_round", || SolverBuilder::fixed(SolverBackend::LpRound)),
    ("local_search", || {
        SolverBuilder::fixed(SolverBackend::LocalSearch)
    }),
    ("greedy", || SolverBuilder::fixed(SolverBackend::Greedy)),
    ("adaptive", SolverBuilder::adaptive),
];

/// A clustered multi-zone scenario (the shape per-zone selection is
/// for): short subscriber reach against a large field with a high
/// noise ceiling, so Zone Partition fragments the subscribers.
fn arm_scenario(seed: u64) -> sag_core::model::Scenario {
    ScenarioSpec {
        field_size: 800.0,
        n_subscribers: 24,
        n_base_stations: 2,
        snr_db: -15.0,
        dist_range: (8.0, 14.0),
        nmax: 1e-3,
        bs_layout: BsLayout::Uniform,
        ..Default::default()
    }
    .build(seed)
}

fn solve(sc: &sag_core::model::Scenario, solver: SolverBuilder) -> Option<SagReport> {
    run_sag_with(
        sc,
        SagPipelineConfig {
            lower_solver: LowerSolver::Candidates,
            solver,
            ..Default::default()
        },
    )
    .ok()
}

/// Solves per (arm, seed); `lower_us` is the median of their lower-tier
/// times, so one preempted or cold solve cannot set a cell.
const TIMED_SOLVES: usize = 5;

/// One seeded arm run: `[relays_vs_exact, lower_us, optimal_frac]`, or
/// all-`None` when the scenario is infeasible for either arm.
fn backend_run(arm: usize, seed: u64) -> Vec<Option<f64>> {
    let sc = arm_scenario(seed);
    let (Some(exact), Some(report)) = (
        solve(&sc, SolverBuilder::fixed(SolverBackend::ExactIlp)),
        solve(&sc, ARMS[arm].1()),
    ) else {
        return vec![None; 3];
    };
    let ratio = report.n_coverage_relays() as f64 / exact.n_coverage_relays().max(1) as f64;
    // The solves are deterministic, so the repeats only add timings.
    let mut elapsed: Vec<_> = std::iter::once(report.budget_spent.elapsed)
        .chain(
            (1..TIMED_SOLVES)
                .filter_map(|_| solve(&sc, ARMS[arm].1()).map(|again| again.budget_spent.elapsed)),
        )
        .collect();
    elapsed.sort_unstable();
    let lower_us = elapsed[elapsed.len() / 2].as_nanos() as f64 / 1e3;
    let zones = report.zone_solvers.len().max(1) as f64;
    let optimal = report.zone_solvers.iter().filter(|z| z.optimal).count() as f64;
    vec![Some(ratio), Some(lower_us), Some(optimal / zones)]
}

/// Backend sweep; `relays_vs_exact` must stay bounded in every cell
/// (the heuristics trade optimality for speed, never feasibility).
pub fn backends(config: SweepConfig) -> Table {
    let arms: Vec<f64> = (0..ARMS.len()).map(|i| i as f64).collect();
    let series = sweep_multi(&arms, 3, config, |arm, seed| {
        backend_run(arm as usize, seed)
    });
    let mut t = Table::new(
        "Extension: coverage solver backends \
         (0=exact 1=lp_round 2=local_search 3=greedy 4=adaptive)",
        "arm",
        arms,
    );
    let mut it = series.into_iter();
    t.push_series("relays_vs_exact", it.next().expect("3 series"));
    t.push_series("lower_us", it.next().expect("3 series"));
    t.push_series("optimal_frac", it.next().expect("3 series"));
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_arm_answers_within_bounds() {
        for (arm, (name, _)) in ARMS.iter().enumerate() {
            let out = backend_run(arm, 7);
            let ratio = out[0].unwrap_or_else(|| panic!("arm {name} infeasible"));
            assert!(
                (1.0..=3.0).contains(&ratio),
                "arm {name} drifted from the exact optimum: {ratio}"
            );
        }
    }

    #[test]
    fn exact_arm_is_fully_optimal() {
        let out = backend_run(0, 7);
        assert_eq!(out[2], Some(1.0), "exact arm must certify every zone");
    }

    #[test]
    fn sweep_produces_all_series() {
        let t = backends(SweepConfig {
            runs: 1,
            base_seed: 2,
            threads: 2,
        });
        assert_eq!(t.series.len(), 3);
        assert_eq!(t.series[0].cells.len(), ARMS.len());
    }
}
