//! Incremental churn repair vs from-scratch re-solve (`BENCH_churn.json`).
//!
//! The probe is the clustered multi-zone shape the dirty-zone repair
//! path exists for: [`ClusteredProbe::CHURN`], a 4×4 grid of tight
//! subscriber clusters, each its own interference zone, so a mobility
//! event dirties one zone while the from-scratch baseline must re-solve
//! all sixteen. Two arms are timed interleaved over the same stationary
//! cycle of intra-cluster move probes (each displacement is applied and
//! then undone, so every round sees the same workload):
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
//! recorded as skipped in the JSON. The p99 latency gate is always
//! enforced.
//!
//! Usage: `bench_churn [--out PATH]`

use sag_bench::harness::{interleaved, time_ns};
use sag_bench::{Artefact, Bound, ClusteredProbe};
use sag_core::churn::{ChurnConfig, ChurnEngine, ChurnEvent, RepairRung};
use sag_core::coverage::is_feasible;
use sag_core::model::Scenario;
use sag_core::samc::samc;
use sag_core::zone::zone_partition;
use sag_geom::Point;
use sag_lp::Budget;
use sag_sim::experiments::churn::{churn_trace, ChurnTraceSpec};

/// Move probes per round; each probe is two events (out and back).
const PROBES: usize = 8;
/// Interleaved scratch/repair measurement rounds.
const ROUNDS: usize = 9;
/// Contract-trace length replayed before any timing.
const TRACE_EVENTS: usize = 32;
/// Below this per-event repair time the speedup ratio is timer noise.
const TIMING_FLOOR_NS: u128 = 5_000;
/// Gate: incremental repair is at least this many times faster than a
/// from-scratch solve per event.
const MIN_SPEEDUP: f64 = 5.0;
/// Gate: p99 per-event repair latency, in ns (500 µs).
const MAX_P99_NS: f64 = 500_000.0;

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

fn main() {
    let mut out = Artefact::from_args("churn_repair", "BENCH_churn.json");
    let scenario = ClusteredProbe::CHURN.build();
    let zones = zone_partition(&scenario).len();
    assert_eq!(
        zones,
        ClusteredProbe::CHURN.clusters(),
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
    let t = interleaved(
        ROUNDS,
        &mut [
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
        ],
    );
    engine.audit().expect("ledger audit clean after timing");
    assert_eq!(
        engine.report().rung_count(RepairRung::Deferred),
        0,
        "unlimited per-event budget must never defer"
    );

    let speedup = t.ratio_median(&[0], &[1]);
    let repair_ns = t.min_ns(1) / events_per_round as u128;
    let p99_ns = engine.report().p99_ns();
    // Below the floor the ratio measures the timer, not the engine.
    let skip = (repair_ns < TIMING_FLOOR_NS).then(|| {
        format!("repair path {repair_ns} ns/event below the {TIMING_FLOOR_NS} ns timing floor")
    });
    out.field("subscribers", scenario.n_subscribers())
        .field("zones", zones)
        .field("events_per_round", events_per_round)
        .field(
            "scratch_min_per_event_ns",
            t.min_ns(0) / events_per_round as u128,
        )
        .field("repair_min_per_event_ns", repair_ns)
        .field("repair_speedup_median", speedup)
        .field("p50_repair_ns", engine.report().p50_ns())
        .field("p99_repair_ns", p99_ns)
        .gate(
            "repair_speedup_median",
            speedup,
            Bound::Floor(MIN_SPEEDUP),
            skip,
        )
        .gate(
            "p99_repair_ns",
            p99_ns as f64,
            Bound::Ceiling(MAX_P99_NS),
            None,
        );
    out.finish();
}
