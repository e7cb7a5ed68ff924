//! Adaptive solver selection vs all-exact lower tier (`BENCH_backends.json`).
//!
//! The probe is the clustered multi-zone shape per-zone selection
//! exists for: a 4×4 grid of tight subscriber clusters, each its own
//! interference zone. Every cluster is dense enough that its candidate
//! set clears [`sag_core::SelectionPolicy`]'s `lp_round_max_cands`
//! threshold, so the adaptive builder routes the zone to the LP-free
//! local-search backend (greedy start, swap/drop improvement) while
//! the all-exact arm pays full branch-and-bound on every zone. Two
//! arms are timed interleaved over the same pipeline run:
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
//! recorded as skipped in the JSON (`SAG_BENCH_STRICT=1` turns that
//! skip into a failure).
//!
//! Usage: `bench_backends [--out PATH] [--min-speedup X]`

use sag_bench::harness::{interleaved, Interleaved};
use sag_core::model::{BaseStation, NetworkParams, Scenario, Subscriber};
use sag_core::sag::{run_sag_with, LowerSolver, SagPipelineConfig, SagReport};
use sag_core::validate::validate_report;
use sag_core::zone::zone_partition;
use sag_core::{SolverBackend, SolverBuilder};
use sag_geom::{Point, Rect};
use sag_radio::{units::Db, LinkBudget};

const FIELD: f64 = 1200.0;
const CLUSTERS: usize = 16;
const SUBS_PER_CLUSTER: usize = 16;
/// Interleaved exact/adaptive measurement rounds.
const ROUNDS: usize = 7;
/// Below this per-run exact time the speedup ratio is timer noise.
const TIMING_FLOOR_NS: u128 = 200_000;

/// The churn-bench cluster grid, densified: sixteen subscribers per
/// cluster so each zone's IAC candidate set (subscriber positions plus
/// pairwise circle intersections) lands well above the adaptive
/// policy's `lp_round_max_cands` threshold. Deterministic sunflower
/// placement, no RNG.
fn probe_scenario() -> Scenario {
    let centers = [
        (-450.0, -450.0),
        (-150.0, -450.0),
        (150.0, -450.0),
        (450.0, -450.0),
        (-450.0, -150.0),
        (-150.0, -150.0),
        (150.0, -150.0),
        (450.0, -150.0),
        (-450.0, 150.0),
        (-150.0, 150.0),
        (150.0, 150.0),
        (450.0, 150.0),
        (-450.0, 450.0),
        (-150.0, 450.0),
        (150.0, 450.0),
        (450.0, 450.0),
    ];
    let golden = 2.399_963_229_728_653_f64; // radians
    let mut subs = Vec::with_capacity(CLUSTERS * SUBS_PER_CLUSTER);
    for (ci, &(cx, cy)) in centers.iter().enumerate() {
        for k in 0..SUBS_PER_CLUSTER {
            let ang = (ci * SUBS_PER_CLUSTER + k) as f64 * golden;
            let r = 18.0 * ((k as f64 + 0.5) / SUBS_PER_CLUSTER as f64).sqrt();
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
            BaseStation::new(Point::new(-550.0, 550.0)),
            BaseStation::new(Point::new(550.0, -550.0)),
        ],
        NetworkParams::new(
            LinkBudget::builder().snr_threshold(Db::new(-15.0)).build(),
            1e-3, // d_max = 10
        ),
    )
    .expect("probe geometry is valid")
}

fn run(sc: &Scenario, solver: SolverBuilder) -> SagReport {
    run_sag_with(
        sc,
        SagPipelineConfig {
            lower_solver: LowerSolver::IlpqcWithGreedyFallback,
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

#[allow(clippy::too_many_arguments)]
fn emit_json(
    path: &str,
    zones: usize,
    exact_ns: u128,
    adaptive_ns: u128,
    speedup: f64,
    mix: [usize; 4],
    exact_relays: usize,
    adaptive_relays: usize,
    min_speedup: f64,
    gate: &str,
) -> std::io::Result<()> {
    let subscribers = CLUSTERS * SUBS_PER_CLUSTER;
    let hardware_threads = sag_bench::hardware_threads();
    let body = format!(
        "{{\n  \"benchmark\": \"solver_backends\",\n  \"subscribers\": {subscribers},\n  \"zones\": {zones},\n  \"hardware_threads\": {hardware_threads},\n  \"exact_min_ns\": {exact_ns},\n  \"adaptive_min_ns\": {adaptive_ns},\n  \"speedup_median\": {speedup:.4},\n  \"adaptive_exact_zones\": {},\n  \"adaptive_lp_round_zones\": {},\n  \"adaptive_local_search_zones\": {},\n  \"adaptive_greedy_zones\": {},\n  \"exact_coverage_relays\": {exact_relays},\n  \"adaptive_coverage_relays\": {adaptive_relays},\n  \"min_speedup\": {min_speedup:.2},\n  \"gate\": \"{gate}\"\n}}\n",
        mix[0], mix[1], mix[2], mix[3],
    );
    std::fs::write(path, body)
}

fn main() {
    let mut out_path = String::from("BENCH_backends.json");
    let mut min_speedup = 1.5f64;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => out_path = args.next().expect("--out needs a path"),
            "--min-speedup" => {
                let v = args.next().expect("--min-speedup needs a number");
                min_speedup = v.parse().expect("--min-speedup parses as f64");
            }
            other => panic!(
                "unknown argument {other}; usage: \
                 bench_backends [--out PATH] [--min-speedup X]"
            ),
        }
    }

    let sc = probe_scenario();
    let zones = zone_partition(&sc).len();
    assert_eq!(
        zones, CLUSTERS,
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
    let Interleaved {
        a_min_ns: exact_ns,
        b_min_ns: adaptive_ns,
        ratio_median: speedup,
        ..
    } = interleaved(
        ROUNDS,
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
    );

    let (gate, enforce) = sag_bench::resolve_gate(
        exact_ns >= TIMING_FLOOR_NS,
        &format!("exact arm {exact_ns} ns below the {TIMING_FLOOR_NS} ns timing floor"),
    );
    if enforce {
        assert!(
            speedup >= min_speedup,
            "adaptive selection speedup {speedup:.2}x below the {min_speedup:.2}x floor \
             (exact {exact_ns} ns, adaptive {adaptive_ns} ns)"
        );
    }

    emit_json(
        &out_path,
        zones,
        exact_ns,
        adaptive_ns,
        speedup,
        mix,
        exact_report.n_coverage_relays(),
        adaptive_report.n_coverage_relays(),
        min_speedup,
        &gate,
    )
    .expect("write benchmark artefact");
    println!(
        "solver backends: exact {exact_ns} ns, adaptive {adaptive_ns} ns, \
         speedup {speedup:.2}x, mix {mix:?}, gate {gate}"
    );
}
