//! Adaptive solver selection vs all-exact lower tier (`BENCH_backends.json`).
//!
//! The probe is the clustered multi-zone shape per-zone selection
//! exists for: [`ClusteredProbe::BACKENDS`], a 4×4 grid of tight
//! subscriber clusters, each its own interference zone. Every cluster
//! is dense enough that its candidate set clears
//! [`sag_core::SelectionPolicy`]'s `lp_round_max_cands` threshold, so
//! the adaptive builder routes the zone to the LP-free local-search
//! backend (greedy start, swap/drop improvement) while the all-exact
//! arm pays full branch-and-bound on every zone. Two arms are timed
//! interleaved over the same pipeline run:
//!
//! * **exact** — `SolverBuilder::fixed(ExactIlp)`: warm-started B&B in
//!   all sixteen zones, the pre-selection answer;
//! * **adaptive** — `SolverBuilder::adaptive()`: per-zone choice by
//!   candidate count and budget.
//!
//! Before any timing both arms must pass the independent report audit
//! — a fast heuristic that drops a subscriber is worthless — and the
//! adaptive arm must demonstrably route at least one zone away from
//! the exact backend (otherwise the ratio measures nothing). The
//! speedup gate needs headroom above timer noise to mean anything:
//! when the exact arm lands below the timing floor the gate is
//! recorded as skipped in the JSON.
//!
//! Usage: `bench_backends [--out PATH]`

use sag_bench::harness::interleaved;
use sag_bench::{Artefact, Bound, ClusteredProbe};
use sag_core::model::Scenario;
use sag_core::sag::{run_sag_with, LowerSolver, SagPipelineConfig, SagReport};
use sag_core::validate::validate_report;
use sag_core::zone::zone_partition;
use sag_core::{SolverBackend, SolverBuilder};

/// Interleaved exact/adaptive measurement rounds.
const ROUNDS: usize = 7;
/// Below this per-run exact time the speedup ratio is timer noise.
const TIMING_FLOOR_NS: u128 = 200_000;
/// Gate: the adaptive lower tier is at least this many times faster.
const MIN_SPEEDUP: f64 = 1.5;

fn run(sc: &Scenario, solver: SolverBuilder) -> SagReport {
    run_sag_with(
        sc,
        SagPipelineConfig {
            lower_solver: LowerSolver::Candidates,
            solver,
            ..Default::default()
        },
    )
    .expect("probe scenario is solvable")
}

/// How many zones each backend answered, in `SolverBackend::ALL` order.
fn backend_mix(report: &SagReport) -> [usize; 4] {
    let mut mix = [0usize; 4];
    for rec in &report.zone_solvers {
        mix[rec.backend.rank()] += 1;
    }
    mix
}

fn main() {
    let mut out = Artefact::from_args("solver_backends", "BENCH_backends.json");
    let sc = ClusteredProbe::BACKENDS.build();
    let zones = zone_partition(&sc).len();
    assert_eq!(
        zones,
        ClusteredProbe::BACKENDS.clusters(),
        "probe must fragment into one zone per cluster"
    );

    // Contract before stopwatch: both arms answer, both answers pass
    // the independent audit — equal feasibility, different work.
    let exact_report = run(&sc, SolverBuilder::fixed(SolverBackend::ExactIlp));
    let audit = validate_report(&sc, &exact_report);
    assert!(audit.is_clean(), "exact arm failed the audit:\n{audit}");
    let adaptive_report = run(&sc, SolverBuilder::adaptive());
    let audit = validate_report(&sc, &adaptive_report);
    assert!(audit.is_clean(), "adaptive arm failed the audit:\n{audit}");

    let mix = backend_mix(&adaptive_report);
    assert_eq!(
        mix.iter().sum::<usize>(),
        zones,
        "every zone must record its backend"
    );
    assert!(
        zones - mix[0] > 0,
        "adaptive routed no zone away from the exact backend; \
         the probe no longer exercises selection"
    );

    // Each arm reports its own lower-tier spend: the polynomial tail
    // (PRO, MBMC, UCPO) is identical in both arms and would only dilute
    // the ratio the gate is about.
    let t = interleaved(
        ROUNDS,
        &mut [
            &mut || {
                run(&sc, SolverBuilder::fixed(SolverBackend::ExactIlp))
                    .budget_spent
                    .elapsed
                    .as_nanos()
            },
            &mut || {
                run(&sc, SolverBuilder::adaptive())
                    .budget_spent
                    .elapsed
                    .as_nanos()
            },
        ],
    );
    let speedup = t.ratio_median(&[0], &[1]);
    let exact_ns = t.min_ns(0);
    let skip = (exact_ns < TIMING_FLOOR_NS)
        .then(|| format!("exact arm {exact_ns} ns below the {TIMING_FLOOR_NS} ns timing floor"));
    out.field("subscribers", sc.n_subscribers())
        .field("zones", zones)
        .field("exact_min_ns", exact_ns)
        .field("adaptive_min_ns", t.min_ns(1))
        .field("speedup_median", speedup)
        .field("adaptive_exact_zones", mix[0])
        .field("adaptive_lp_round_zones", mix[1])
        .field("adaptive_local_search_zones", mix[2])
        .field("adaptive_greedy_zones", mix[3])
        .field("exact_coverage_relays", exact_report.n_coverage_relays())
        .field(
            "adaptive_coverage_relays",
            adaptive_report.n_coverage_relays(),
        )
        .gate("speedup_median", speedup, Bound::Floor(MIN_SPEEDUP), skip);
    out.finish();
}
