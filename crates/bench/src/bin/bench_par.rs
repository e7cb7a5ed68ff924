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
//! The speedup gate is only enforceable on hardware that can actually
//! run the workers concurrently: when the host exposes fewer hardware
//! threads than the benchmark requests, the gate is recorded as
//! skipped in the JSON (the parity check still runs), so CI on
//! single-core runners stays honest instead of red.
//!
//! Usage: `bench_par [--out PATH] [--min-speedup X] [--threads N]`

use sag_bench::harness::{interleaved, time_ns, Interleaved};
use sag_core::model::{BaseStation, NetworkParams, Scenario, Subscriber};
use sag_core::sag::{run_sag_with, SagPipelineConfig, SagReport};
use sag_core::samc::{samc_with_budget_threads, SamcConfig};
use sag_core::zone::zone_partition;
use sag_geom::{Point, Rect};
use sag_lp::Budget;
use sag_radio::{units::Db, LinkBudget};

const FIELD: f64 = 800.0;
const CLUSTERS: usize = 8;
const SUBS_PER_CLUSTER: usize = 9;
/// Solves per timing sample.
const INNER_ITERS: u32 = 4;
/// Interleaved sequential/parallel measurement rounds.
const ROUNDS: usize = 15;

/// The multi-zone probe: eight tight clusters spread across the field,
/// with an ignorable-noise level whose `d_max` (10) links subscribers
/// within a cluster (intra-cluster `d_eff ≤ 5`) but never across
/// clusters (inter-cluster `d_eff ≥ 200`), so Zone Partition yields
/// eight equal-weight zones — the shape the zone-parallel engine
/// exists for. Deterministic sunflower placement, no RNG.
fn probe_scenario() -> Scenario {
    let centers = [
        (-300.0, -300.0),
        (0.0, -300.0),
        (300.0, -300.0),
        (-300.0, 0.0),
        (300.0, 0.0),
        (-300.0, 300.0),
        (0.0, 300.0),
        (300.0, 300.0),
    ];
    let golden = 2.399_963_229_728_653_f64; // radians
    let mut subs = Vec::with_capacity(CLUSTERS * SUBS_PER_CLUSTER);
    for (ci, &(cx, cy)) in centers.iter().enumerate() {
        for k in 0..SUBS_PER_CLUSTER {
            let ang = (ci * SUBS_PER_CLUSTER + k) as f64 * golden;
            let r = 20.0 * ((k as f64 + 0.5) / SUBS_PER_CLUSTER as f64).sqrt();
            subs.push(Subscriber::new(
                Point::new(cx + r * ang.cos(), cy + r * ang.sin()),
                35.0 + 5.0 * ((k as f64 * 0.37).fract()),
            ));
        }
    }
    Scenario::new(
        Rect::centered_square(FIELD),
        subs,
        vec![
            BaseStation::new(Point::new(-350.0, 350.0)),
            BaseStation::new(Point::new(350.0, -350.0)),
        ],
        NetworkParams::new(
            LinkBudget::builder().snr_threshold(Db::new(-15.0)).build(),
            1e-3, // d_max = 10
        ),
    )
    .expect("probe geometry is valid")
}

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

#[allow(clippy::too_many_arguments)]
fn emit_json(
    path: &str,
    zones: usize,
    threads: usize,
    hardware_threads: usize,
    seq_ns: u128,
    par_ns: u128,
    speedup: f64,
    pipeline_speedup: f64,
    min_speedup: f64,
    gate: &str,
) -> std::io::Result<()> {
    let subscribers = CLUSTERS * SUBS_PER_CLUSTER;
    let body = format!(
        "{{\n  \"benchmark\": \"zone_parallel\",\n  \"subscribers\": {subscribers},\n  \"zones\": {zones},\n  \"threads\": {threads},\n  \"hardware_threads\": {hardware_threads},\n  \"lower_tier_sequential_min_ns\": {seq_ns},\n  \"lower_tier_parallel_min_ns\": {par_ns},\n  \"lower_tier_speedup_median\": {speedup:.4},\n  \"pipeline_speedup_median\": {pipeline_speedup:.4},\n  \"min_speedup\": {min_speedup:.2},\n  \"gate\": \"{gate}\"\n}}\n",
    );
    std::fs::write(path, body)
}

fn main() {
    let mut out_path = String::from("BENCH_par.json");
    let mut min_speedup = 2.0f64;
    let mut threads = 4usize;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => out_path = args.next().expect("--out needs a path"),
            "--min-speedup" => {
                let v = args.next().expect("--min-speedup needs a number");
                min_speedup = v.parse().expect("--min-speedup parses as f64");
            }
            "--threads" => {
                let v = args.next().expect("--threads needs a number");
                threads = v.parse().expect("--threads parses as usize");
                assert!(threads >= 2, "--threads below 2 measures nothing");
            }
            other => panic!(
                "unknown argument {other}; usage: \
                 bench_par [--out PATH] [--min-speedup X] [--threads N]"
            ),
        }
    }

    let scenario = probe_scenario();
    let zones = zone_partition(&scenario).len();
    assert_eq!(
        zones, CLUSTERS,
        "probe must partition into exactly one zone per cluster"
    );
    assert!(
        zones >= threads,
        "probe has only {zones} zones for {threads} workers; \
         the speedup would be partition-bound, not engine-bound"
    );

    // Determinism gate before any timing: the parallel engine must
    // reproduce the sequential deployment bit for bit.
    let seq_report = solve_pipeline(&scenario, 1);
    let par_report = solve_pipeline(&scenario, threads);
    assert_eq!(
        fingerprint(&seq_report),
        fingerprint(&par_report),
        "threads=1 and threads={threads} deployments diverged on the probe"
    );
    println!("parity: threads=1 == threads={threads} over {zones} zones");

    let budget = Budget::unlimited();
    let lower_tier = |workers: usize| {
        time_ns(INNER_ITERS, || {
            std::hint::black_box(
                samc_with_budget_threads(&scenario, SamcConfig::default(), &budget, workers)
                    .expect("probe is coverable"),
            );
        })
    };
    let Interleaved {
        a_min_ns: seq_ns,
        b_min_ns: par_ns,
        ratio_median: speedup,
        ..
    } = interleaved(ROUNDS, &mut || lower_tier(1), &mut || lower_tier(threads));
    let pipeline = |workers: usize| {
        time_ns(INNER_ITERS, || {
            std::hint::black_box(solve_pipeline(&scenario, workers));
        })
    };
    let Interleaved {
        a_min_ns: pipe_seq_ns,
        b_min_ns: pipe_par_ns,
        ratio_median: pipeline_speedup,
        ..
    } = interleaved(ROUNDS, &mut || pipeline(1), &mut || pipeline(threads));

    let hardware_threads = sag_bench::hardware_threads();
    // With fewer hardware threads than workers the wall-clock speedup
    // is capped by the hardware, not the engine (at 1 core it cannot
    // exceed 1.0); the gate needs real concurrency to mean anything.
    let (gate, enforce) = sag_bench::resolve_gate(
        hardware_threads >= threads,
        &format!("{hardware_threads} hardware thread(s) for {threads} workers"),
    );

    println!("benchmark group: zone_parallel ({ROUNDS} interleaved rounds, min per-iter ns)");
    println!("lower tier threads=1          {seq_ns:>12}");
    println!("lower tier threads={threads}          {par_ns:>12}");
    println!("pipeline   threads=1          {pipe_seq_ns:>12}");
    println!("pipeline   threads={threads}          {pipe_par_ns:>12}");
    println!(
        "median speedup: lower tier {speedup:.3}x, pipeline {pipeline_speedup:.3}x \
         over {zones} zones [{gate}]"
    );

    emit_json(
        &out_path,
        zones,
        threads,
        hardware_threads,
        seq_ns,
        par_ns,
        speedup,
        pipeline_speedup,
        min_speedup,
        &gate,
    )
    .expect("write benchmark JSON");
    println!("wrote {out_path}");

    if enforce {
        assert!(
            speedup >= min_speedup,
            "zone-parallel lower-tier speedup {speedup:.3}x at {threads} threads \
             is below the {min_speedup:.2}x floor"
        );
    }
}
