//! `run_sag` runs PRO on the ledger its lower tier built, which must
//! change no power: every report's `lower_power` equals, bit for bit,
//! the public `pro_with_budget` on a fresh ledger, and is feasible.
//! Covered: the Fig. 4/5 sizes at −15 dB and stressed SNR, `P_max` 1
//! and 2.5, many-zone mixes that reach the global repair round, the
//! ILPQC tier, and 1 and 4 threads.

use sag_testkit::prelude::*;

use sag_core::pro::{allocation_is_feasible, pro_with_budget};
use sag_core::sag::{run_sag_with, LowerSolver, SagPipelineConfig, SagReport};
use sag_core::{Budget, SagError};
use sag_sim::gen::ScenarioSpec;

/// Checks each thread count's report against PRO on a fresh ledger and
/// returns the last report, or `None` when the scenario is infeasible.
fn assert_handoff(spec: ScenarioSpec, seed: u64, lower_solver: LowerSolver) -> Option<SagReport> {
    let sc = spec.build(seed);
    let mut last = None;
    for threads in [1, 4] {
        let config = SagPipelineConfig {
            lower_solver,
            threads,
            ..Default::default()
        };
        let report = match run_sag_with(&sc, config) {
            Err(SagError::Infeasible(_)) => continue,
            outcome => outcome.expect("feasible or infeasible"),
        };
        let fresh = pro_with_budget(&sc, &report.coverage, &Budget::unlimited()).unwrap();
        let bits = |p: &[f64]| p.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let powers = bits(&report.lower_power.powers);
        assert_eq!(powers, bits(&fresh.powers), "threads={threads}");
        assert!(allocation_is_feasible(&sc, &report.coverage, &fresh));
        last = Some(report);
    }
    last
}

/// Short reach and a small `N_max` cut the subscribers into many zones
/// whose merged placement can still miss SNR.
fn many_zone(n_subscribers: usize, snr_db: f64) -> ScenarioSpec {
    let (field_size, dist_range, nmax) = (400.0, (8.0, 16.0), 1e-4);
    ScenarioSpec {
        field_size,
        n_subscribers,
        snr_db,
        dist_range,
        nmax,
        ..Default::default()
    }
}

prop! {
    /// The paper's settings (the spec defaults) at a Fig. 4 or 5 size.
    #[cases(16)]
    fn paper_sizes_keep_pro_powers(
        size in 0usize..16,
        snr_db in one_of([-15.0, -6.0, -3.0, 0.0, 3.0]),
        pmax in one_of([1.0, 2.5]),
        seed in 0u64..1_000_000,
    ) {
        let (field_size, n_subscribers) =
            if size < 10 { (500.0, 5 + 5 * size) } else { (800.0, 10 * size - 80) };
        let spec = ScenarioSpec { field_size, n_subscribers, snr_db, pmax, ..Default::default() };
        assert_handoff(spec, seed, LowerSolver::Samc);
    }

    #[cases(16)]
    fn many_zone_mixes_keep_pro_powers(
        users in 16usize..48,
        snr_db in one_of([-6.0, 0.0, 3.0, 6.0]),
        lower in one_of([LowerSolver::Samc, LowerSolver::Candidates]),
        seed in 0u64..1_000_000,
    ) {
        assert_handoff(many_zone(users, snr_db), seed, lower);
    }
}

#[test]
fn many_zone_mixes_reach_the_global_repair() {
    let repaired = (0..24)
        .filter_map(|seed| assert_handoff(many_zone(40, 6.0), seed, LowerSolver::Samc))
        .filter(|r| r.metrics.gauge("coverage.snr_violations") > Some(0.0))
        .count();
    assert!(repaired > 0, "no run reached the global repair round");
}
