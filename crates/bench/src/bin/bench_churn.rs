//! Incremental churn repair vs from-scratch re-solve (`BENCH_churn.json`).
//!
//! The probe is the clustered multi-zone shape the dirty-zone repair
//! path exists for: a 4×4 grid of tight subscriber clusters, each its
//! own interference zone, so a mobility event dirties one zone while
//! the from-scratch baseline must re-solve all sixteen. Two arms are
//! timed
//! interleaved over the same stationary cycle of intra-cluster move
//! probes (each displacement is applied and then undone, so every
//! round sees the same workload):
//!
//! * **scratch** — mutate the subscriber position and run a full-field
//!   [`samc`] solve, the pre-churn-engine answer to every event;
//! * **repair** — feed the same move to a long-lived
//!   [`ChurnEngine`], which patches the interference ledger and
//!   re-solves only the dirtied zone.
//!
//! Before any timing the engine must survive a realistic seeded trace
//! (arrivals, departures, moves from [`churn_trace`]) with a clean
//! ledger audit and a feasible placement — a fast repair that corrupts
//! state is worthless. Per-event repair latency percentiles come from
//! the engine's own [`ChurnReport`](sag_core::ChurnReport) over every
//! timed event.
//!
//! The speedup gate needs headroom above timer noise to mean anything:
//! when the repair path lands below the timing floor the gate is
//! recorded as skipped in the JSON (`SAG_BENCH_STRICT=1` turns that
//! skip into a failure).
//!
//! Usage: `bench_churn [--out PATH] [--min-speedup X] [--max-p99-us X]`

use sag_bench::harness::{interleaved, time_ns, Interleaved};
use sag_core::churn::{ChurnConfig, ChurnEngine, ChurnEvent, RepairRung};
use sag_core::coverage::is_feasible;
use sag_core::model::{BaseStation, NetworkParams, Scenario, Subscriber};
use sag_core::samc::samc;
use sag_core::zone::zone_partition;
use sag_geom::{Point, Rect};
use sag_lp::Budget;
use sag_radio::{units::Db, LinkBudget};
use sag_sim::experiments::churn::{churn_trace, ChurnTraceSpec};

const FIELD: f64 = 1200.0;
const CLUSTERS: usize = 16;
const SUBS_PER_CLUSTER: usize = 9;
/// Move probes per round; each probe is two events (out and back).
const PROBES: usize = 8;
/// Interleaved scratch/repair measurement rounds.
const ROUNDS: usize = 9;
/// Contract-trace length replayed before any timing.
const TRACE_EVENTS: usize = 32;
/// Below this per-event repair time the speedup ratio is timer noise.
const TIMING_FLOOR_NS: u128 = 5_000;

/// A 4×4 grid of tight clusters spread across the field with an
/// ignorable-noise level whose `d_max` (10) links subscribers within a
/// cluster but never across clusters, so Zone Partition yields sixteen
/// zones and an intra-cluster move dirties exactly one of them.
/// Deterministic sunflower placement, no RNG.
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

/// Deterministic intra-cluster displacement probes: `(slot, to, back)`.
fn move_probes(sc: &Scenario) -> Vec<(usize, Point, Point)> {
    let n = sc.subscribers.len();
    (0..PROBES)
        .map(|k| {
            let j = (k * 7) % n;
            let orig = sc.subscribers[j].position;
            let ang = k as f64 * 0.61 + 0.3;
            let to = Point::new(orig.x + 10.0 * ang.cos(), orig.y + 10.0 * ang.sin());
            (j, to, orig)
        })
        .collect()
}

#[allow(clippy::too_many_arguments)]
fn emit_json(
    path: &str,
    zones: usize,
    events_per_round: usize,
    scratch_ns: u128,
    repair_ns: u128,
    speedup: f64,
    p50_ns: u64,
    p99_ns: u64,
    min_speedup: f64,
    gate: &str,
) -> std::io::Result<()> {
    let subscribers = CLUSTERS * SUBS_PER_CLUSTER;
    let hardware_threads = sag_bench::hardware_threads();
    let body = format!(
        "{{\n  \"benchmark\": \"churn_repair\",\n  \"subscribers\": {subscribers},\n  \"zones\": {zones},\n  \"events_per_round\": {events_per_round},\n  \"hardware_threads\": {hardware_threads},\n  \"scratch_min_per_event_ns\": {scratch_ns},\n  \"repair_min_per_event_ns\": {repair_ns},\n  \"repair_speedup_median\": {speedup:.4},\n  \"p50_repair_ns\": {p50_ns},\n  \"p99_repair_ns\": {p99_ns},\n  \"min_speedup\": {min_speedup:.2},\n  \"gate\": \"{gate}\"\n}}\n",
    );
    std::fs::write(path, body)
}

fn main() {
    let mut out_path = String::from("BENCH_churn.json");
    let mut min_speedup = 5.0f64;
    let mut max_p99_us: Option<f64> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => out_path = args.next().expect("--out needs a path"),
            "--min-speedup" => {
                let v = args.next().expect("--min-speedup needs a number");
                min_speedup = v.parse().expect("--min-speedup parses as f64");
            }
            "--max-p99-us" => {
                let v = args.next().expect("--max-p99-us needs a number");
                max_p99_us = Some(v.parse().expect("--max-p99-us parses as f64"));
            }
            other => panic!(
                "unknown argument {other}; usage: \
                 bench_churn [--out PATH] [--min-speedup X] [--max-p99-us X]"
            ),
        }
    }

    let scenario = probe_scenario();
    let zones = zone_partition(&scenario).len();
    assert_eq!(
        zones, CLUSTERS,
        "probe must partition into exactly one zone per cluster"
    );

    // Contract gate before any timing: the engine must digest a
    // realistic mixed trace (arrivals, departures, moves) and come out
    // audit-clean and feasible.
    let mut contract =
        ChurnEngine::new(&scenario, ChurnConfig::default()).expect("probe is coverable");
    let trace = churn_trace(
        &scenario,
        &ChurnTraceSpec {
            n_events: TRACE_EVENTS,
            ..Default::default()
        },
        4242,
    );
    contract
        .run(&trace, None)
        .expect("contract trace replays cleanly");
    contract.audit().expect("ledger audit clean after trace");
    let live = contract.scenario().expect("no backlog after final flush");
    let sol = contract.solution().expect("no backlog after final flush");
    assert!(
        is_feasible(&live, &sol),
        "engine placement infeasible after contract trace"
    );
    println!(
        "contract: {} trace events, audit clean, feasible ({} relays over {} live subscribers)",
        trace.len(),
        contract.n_relays(),
        contract.n_subscribers()
    );

    let probes = move_probes(&scenario);
    let events_per_round = 2 * PROBES;
    let budget = Budget::unlimited();
    // The timing engine amortises the exact-oracle ledger audit (an
    // O(S·R) radio-model recompute per audited event) over the probe
    // cycle; correctness is still gated by the default audit-every-event
    // contract engine above and the explicit audit after timing.
    let mut engine = ChurnEngine::new(
        &scenario,
        ChurnConfig {
            audit_every: 2 * PROBES as u64,
            ..Default::default()
        },
    )
    .expect("probe is coverable");
    let mut scratch_sc = scenario.clone();
    // One round is one full probe cycle.
    let Interleaved {
        a_min_ns: scratch_round_ns,
        b_min_ns: repair_round_ns,
        ratio_median: speedup,
        ..
    } = interleaved(
        ROUNDS,
        &mut || {
            time_ns(1, || {
                for &(j, to, back) in &probes {
                    scratch_sc.subscribers[j].position = to;
                    std::hint::black_box(samc(&scratch_sc).expect("scratch solve (out)"));
                    scratch_sc.subscribers[j].position = back;
                    std::hint::black_box(samc(&scratch_sc).expect("scratch solve (back)"));
                }
            })
        },
        &mut || {
            time_ns(1, || {
                for &(j, to, back) in &probes {
                    engine
                        .apply_event(ChurnEvent::SsMove { subscriber: j, to }, &budget)
                        .expect("repair (out)");
                    engine
                        .apply_event(
                            ChurnEvent::SsMove {
                                subscriber: j,
                                to: back,
                            },
                            &budget,
                        )
                        .expect("repair (back)");
                }
            })
        },
    );
    engine.audit().expect("ledger audit clean after timing");
    assert_eq!(
        engine.report().rung_count(RepairRung::Deferred),
        0,
        "unlimited per-event budget must never defer"
    );

    let scratch_ns = scratch_round_ns / events_per_round as u128;
    let repair_ns = repair_round_ns / events_per_round as u128;
    let p50_ns = engine.report().p50_ns();
    let p99_ns = engine.report().p99_ns();

    // Below the floor the ratio measures the timer, not the engine.
    let (gate, enforce) = sag_bench::resolve_gate(
        repair_ns >= TIMING_FLOOR_NS,
        &format!("repair path {repair_ns} ns/event below the {TIMING_FLOOR_NS} ns timing floor"),
    );

    println!("benchmark group: churn_repair ({ROUNDS} interleaved rounds, min per-event ns)");
    println!("scratch samc per event        {scratch_ns:>12}");
    println!("dirty-zone repair per event   {repair_ns:>12}");
    println!("repair latency p50/p99        {p50_ns:>12} / {p99_ns} ns");
    println!("median speedup: {speedup:.3}x over {zones} zones [{gate}]");

    emit_json(
        &out_path,
        zones,
        events_per_round,
        scratch_ns,
        repair_ns,
        speedup,
        p50_ns,
        p99_ns,
        min_speedup,
        &gate,
    )
    .expect("write benchmark JSON");
    println!("wrote {out_path}");

    if enforce {
        assert!(
            speedup >= min_speedup,
            "dirty-zone repair speedup {speedup:.3}x is below the {min_speedup:.2}x floor"
        );
        if let Some(ceiling) = max_p99_us {
            let p99_us = p99_ns as f64 / 1e3;
            assert!(
                p99_us <= ceiling,
                "p99 repair latency {p99_us:.1}us exceeds the {ceiling:.1}us SLO ceiling"
            );
        }
    }
}
