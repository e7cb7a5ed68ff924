//! Zone-parallel engine benchmark (`BENCH_par.json`).
//!
//! Times the lower-tier solve (where the zone engine lives) on a
//! clustered multi-zone probe at `threads = 1` versus `threads = N`
//! and gates on the median per-round speedup. The full pipeline is
//! timed as well, informationally: its tail stages (PRO → MBMC → UCPO)
//! are sequential by design, so Amdahl caps the end-to-end speedup
//! well below the lower tier's.
//!
//! Before any timing the two thread counts must produce byte-identical
//! deployments — a parallel engine that bought its speedup with
//! nondeterminism would be worthless.
//!
//! The probe is [`ClusteredProbe::PAR`]: eight equal-weight zones.
//!
//! The speedup gate is only enforceable on hardware that can actually
//! run the workers concurrently: when the host exposes fewer hardware
//! threads than [`THREADS`], the gate is recorded as skipped in the
//! JSON (the parity check still runs), so CI on small runners stays
//! honest instead of red.
//!
//! Usage: `bench_par [--out PATH]`

use sag_bench::harness::{interleaved, time_ns};
use sag_bench::{Artefact, Bound, ClusteredProbe};
use sag_core::model::Scenario;
use sag_core::sag::{run_sag_with, SagPipelineConfig, SagReport};
use sag_core::samc::{samc_with_budget_threads, SamcConfig};
use sag_core::zone::zone_partition;
use sag_lp::Budget;

/// Workers of the parallel arm.
const THREADS: usize = 4;
/// Gate: the lower tier at [`THREADS`] workers is at least this many
/// times faster than at one.
const MIN_SPEEDUP: f64 = 2.0;
/// Solves per timing sample.
const INNER_ITERS: u32 = 4;
/// Interleaved sequential/parallel measurement rounds.
const ROUNDS: usize = 15;

fn solve_pipeline(scenario: &Scenario, threads: usize) -> SagReport {
    run_sag_with(
        scenario,
        SagPipelineConfig {
            threads,
            collect_metrics: false,
            ..Default::default()
        },
    )
    .expect("probe scenario is solvable")
}

/// Everything in a report that must be identical across thread counts.
fn fingerprint(report: &SagReport) -> String {
    format!(
        "{:?}|{:?}|{:?}|{:?}|{:?}",
        report.coverage, report.lower_power, report.plan, report.upper_power, report.solver,
    )
}

fn main() {
    let mut out = Artefact::from_args("zone_parallel", "BENCH_par.json");
    let scenario = ClusteredProbe::PAR.build();
    let zones = zone_partition(&scenario).len();
    assert_eq!(
        zones,
        ClusteredProbe::PAR.clusters(),
        "probe must partition into exactly one zone per cluster"
    );
    assert!(
        zones >= THREADS,
        "probe has only {zones} zones for {THREADS} workers; \
         the speedup would be partition-bound, not engine-bound"
    );

    // Determinism gate before any timing: the parallel engine must
    // reproduce the sequential deployment bit for bit.
    let seq_report = solve_pipeline(&scenario, 1);
    let par_report = solve_pipeline(&scenario, THREADS);
    assert_eq!(
        fingerprint(&seq_report),
        fingerprint(&par_report),
        "threads=1 and threads={THREADS} deployments diverged on the probe"
    );
    println!("parity: threads=1 == threads={THREADS} over {zones} zones");

    let budget = Budget::unlimited();
    let lower_tier = |workers: usize| {
        time_ns(INNER_ITERS, || {
            samc_with_budget_threads(&scenario, SamcConfig::default(), &budget, workers)
                .expect("probe is coverable")
        })
    };
    let lower = interleaved(
        ROUNDS,
        &mut [&mut || lower_tier(1), &mut || lower_tier(THREADS)],
    );
    let pipeline = |workers: usize| time_ns(INNER_ITERS, || solve_pipeline(&scenario, workers));
    let whole = interleaved(
        ROUNDS,
        &mut [&mut || pipeline(1), &mut || pipeline(THREADS)],
    );

    let speedup = lower.ratio_median(&[0], &[1]);
    let hardware_threads = sag_bench::hardware_threads();
    // With fewer hardware threads than workers the wall-clock speedup
    // is capped by the hardware, not the engine (at 1 core it cannot
    // exceed 1.0); the gate needs real concurrency to mean anything.
    let skip = (hardware_threads < THREADS)
        .then(|| format!("{hardware_threads} hardware thread(s) for {THREADS} workers"));
    out.field("subscribers", scenario.n_subscribers())
        .field("zones", zones)
        .field("threads", THREADS)
        .field("lower_tier_sequential_min_ns", lower.min_ns(0))
        .field("lower_tier_parallel_min_ns", lower.min_ns(1))
        .field("lower_tier_speedup_median", speedup)
        .field("pipeline_speedup_median", whole.ratio_median(&[0], &[1]))
        .gate(
            "lower_tier_speedup_median",
            speedup,
            Bound::Floor(MIN_SPEEDUP),
            skip,
        );
    out.finish();
}
