//! Determinism gate for the zone-parallel solve engine.
//!
//! The engine's contract ([`sag_core::engine`]): `threads = 1` and
//! `threads = N` produce byte-identical reports. Zones are solved
//! against private ledgers and merged in zone index order, so relay
//! coordinates, powers and the connectivity plan must not drift by a
//! single bit whatever the thread count.
//!
//! Comparison note: [`sag_core::mbmc::ConnectivityPlan`] carries no
//! `PartialEq`, so reports are compared through their `Debug`
//! rendering. Rust formats floats as the shortest string that
//! round-trips, so equal renderings imply bit-equal values (modulo NaN
//! payloads, which a validated report never contains).

use sag_testkit::prelude::*;

use sag_core::sag::{run_sag_with, LowerSolver, SagPipelineConfig, SagReport};
use sag_core::zone::zone_partition;
use sag_core::{SolverBackend, SolverBuilder};
use sag_sim::gen::{BsLayout, ScenarioSpec};

/// Everything in a report that must be identical across thread counts
/// (wall-clock spend and collected metrics legitimately differ).
fn fingerprint(report: &SagReport) -> String {
    format!(
        "{:?}|{:?}|{:?}|{:?}|{:?}|{}",
        report.coverage,
        report.lower_power,
        report.plan,
        report.upper_power,
        report.solver,
        report.budget_spent.nodes,
    )
}

/// The S1 gate: collected metrics must be identical too. Wall-clock
/// span durations legitimately differ, so spans contribute name and
/// count only; everything else — counter order and values, gauges
/// (bit-exact), histogram aggregates, buckets and raw sample order —
/// must match byte for byte, because parallel runs replay each zone's
/// buffered events in zone-index order.
fn metrics_fingerprint(report: &SagReport) -> String {
    let m = &report.metrics;
    let mut out = String::new();
    for s in &m.spans {
        out.push_str(&format!("span:{}:{};", s.name, s.count));
    }
    for (name, stage, v) in &m.counters {
        out.push_str(&format!("ctr:{name}:{stage:?}:{v};"));
    }
    for (name, stage, v) in &m.gauges {
        out.push_str(&format!("gauge:{name}:{stage:?}:{:016x};", v.to_bits()));
    }
    for (name, stage, h) in &m.histograms {
        out.push_str(&format!(
            "hist:{name}:{stage:?}:{}:{}:{}:{:?}:{:?};",
            h.count, h.sum, h.max, h.buckets, h.samples
        ));
    }
    out
}

fn arb_spec() -> impl Strategy<Value = (usize, f64, f64, u64)> {
    (
        4usize..20,                 // subscribers
        one_of([500.0, 800.0]),     // field size
        one_of([1e-9, 1e-4, 1e-3]), // N_max: higher values → more zones
        0u64..100_000,              // scenario seed
    )
}

/// The lower-tier arms the headline gate runs: SAMC, and the ILPQC
/// ladder under adaptive selection and under each heuristic backend
/// forced on every zone.
fn lower_tier_arms() -> [(LowerSolver, SolverBuilder); 4] {
    [
        (LowerSolver::Samc, SolverBuilder::adaptive()),
        (LowerSolver::Candidates, SolverBuilder::adaptive()),
        (
            LowerSolver::Candidates,
            SolverBuilder::fixed(SolverBackend::Greedy),
        ),
        (
            LowerSolver::Candidates,
            SolverBuilder::fixed(SolverBackend::LpRound),
        ),
    ]
}

prop! {
    /// The headline gate: over random scenarios spanning single-zone
    /// and many-zone partitions, a sequential and an 8-way parallel run
    /// produce byte-identical reports for SAMC and for the ILPQC ladder
    /// under adaptive, greedy and LP-rounding backends.
    #[cases(24)]
    fn reports_are_identical_across_thread_counts(input in arb_spec()) {
        let (users, field, nmax, seed) = input;
        let sc = ScenarioSpec {
            field_size: field,
            n_subscribers: users,
            n_base_stations: 2,
            snr_db: -15.0,
            // Short reach relative to the field so high N_max genuinely
            // fragments the subscribers into many zones.
            dist_range: (8.0, 14.0),
            nmax,
            bs_layout: BsLayout::Uniform,
            ..Default::default()
        }
        .build(seed);
        for (solver, builder) in lower_tier_arms() {
            let run = |threads: usize| {
                run_sag_with(&sc, SagPipelineConfig {
                    lower_solver: solver,
                    solver: builder,
                    threads,
                    ..Default::default()
                })
            };
            let arm = (solver, builder.choice);
            match (run(1), run(8)) {
                (Ok(seq), Ok(par)) => {
                    prop_assert_eq!(
                        fingerprint(&seq),
                        fingerprint(&par),
                        "{:?}: threads=1 vs threads=8 diverged ({} zones)",
                        arm,
                        zone_partition(&sc).len()
                    );
                    prop_assert_eq!(
                        metrics_fingerprint(&seq),
                        metrics_fingerprint(&par),
                        "{:?}: collected metrics diverged across thread counts \
                         ({} zones)",
                        arm,
                        zone_partition(&sc).len()
                    );
                }
                // Errors must agree in kind; unbudgeted runs only fail
                // deterministically (infeasible geometry), so the whole
                // error must match.
                (Err(a), Err(b)) => prop_assert_eq!(a, b, "{:?}: errors diverged", arm),
                (a, b) => prop_assert!(
                    false,
                    "{:?}: one thread count failed where the other answered: \
                     seq={:?} par={:?}",
                    arm, a.is_ok(), b.is_ok()
                ),
            }
        }
    }
}

/// The partition itself is what makes parallelism safe — pin that the
/// generator configuration above really exercises multi-zone runs.
#[test]
fn high_nmax_scenarios_do_fragment_into_zones() {
    let sc = ScenarioSpec {
        field_size: 800.0,
        n_subscribers: 16,
        n_base_stations: 2,
        snr_db: -15.0,
        dist_range: (8.0, 14.0),
        nmax: 1e-3,
        bs_layout: BsLayout::Uniform,
        ..Default::default()
    }
    .build(1);
    assert!(
        zone_partition(&sc).len() >= 4,
        "generator no longer produces multi-zone scenarios"
    );
}
