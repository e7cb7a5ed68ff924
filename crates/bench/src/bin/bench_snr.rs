//! Brute-force vs incremental-ledger SNR benchmark (`BENCH_snr.json`).
//!
//! Replays a fixed sequence of relay-move probes against a 100-subscriber
//! scenario twice: once recomputing every SNR from scratch with
//! [`sag_core::coverage::snr_violations_brute`] (the pre-ledger hot
//! path), and once applying each move as an `O(S)` delta to a shared
//! [`sag_radio::InterferenceLedger`]. Both paths are checked for parity
//! before timing, then the medians and their ratio are written as
//! hand-rolled JSON — the CI gate asserts the speedup floor.
//!
//! Usage: `bench_snr [--out PATH] [--min-speedup X]`

use std::time::Duration;

use sag_bench::bench_scenario;
use sag_bench::harness::Bench;
use sag_core::coverage::{interference_ledger, snr_violations_brute, snr_violations_ledger};
use sag_core::model::Scenario;
use sag_geom::Point;
use sag_radio::InterferenceLedger;

const SUBSCRIBERS: usize = 100;
const FIELD: f64 = 800.0;
const SEED: u64 = 4242;
const PROBES: usize = 32;

/// The benchmark workload: a placement, its nearest-relay assignment,
/// and a deterministic cycle of relay displacement probes.
struct Workload {
    scenario: Scenario,
    relays: Vec<Point>,
    assignment: Vec<usize>,
    /// `(relay, dx, dy)` displacement probes, applied then undone.
    probes: Vec<(usize, f64, f64)>,
}

fn build_workload() -> Workload {
    let scenario = bench_scenario(FIELD, SUBSCRIBERS, SEED);
    // A relay near every 2nd subscriber — dense enough that interference
    // sums are non-trivial at every subscriber. The offset keeps relays
    // off the exact subscriber positions: a co-located pair drives the
    // served SNR to ~1e10, where interference is pure cancellation
    // residue and parity is meaningless.
    let relays: Vec<Point> = scenario
        .subscribers
        .iter()
        .step_by(2)
        .map(|s| Point::new(s.position.x + 6.0, s.position.y + 4.5))
        .collect();
    let assignment: Vec<usize> = scenario
        .subscribers
        .iter()
        .map(|s| {
            let mut best = 0usize;
            let mut best_d = f64::INFINITY;
            for (r, p) in relays.iter().enumerate() {
                let d = s.position.distance(*p);
                if d < best_d {
                    best_d = d;
                    best = r;
                }
            }
            best
        })
        .collect();
    let probes: Vec<(usize, f64, f64)> = (0..PROBES)
        .map(|k| {
            let r = (k * 7) % relays.len();
            let angle = k as f64 * 0.61;
            (r, 15.0 * angle.cos(), 15.0 * angle.sin())
        })
        .collect();
    Workload {
        scenario,
        relays,
        assignment,
        probes,
    }
}

/// One full probe sweep via scratch recomputation: every probe mutates
/// the placement, recounts violations over all (subscriber, relay)
/// pairs, and reverts.
fn sweep_brute(w: &Workload) -> usize {
    let mut relays = w.relays.clone();
    let mut total = 0usize;
    for &(r, dx, dy) in &w.probes {
        let orig = relays[r];
        relays[r] = Point::new(orig.x + dx, orig.y + dy);
        total += snr_violations_brute(&w.scenario, &relays, &w.assignment).len();
        relays[r] = orig;
    }
    total
}

/// The same sweep as ledger deltas: each probe is a `move_relay` pair
/// around an `O(S)`-per-query violation count.
fn sweep_ledger(w: &Workload, ledger: &mut InterferenceLedger) -> usize {
    let mut total = 0usize;
    for &(r, dx, dy) in &w.probes {
        let orig = ledger.position(r);
        ledger.move_relay(r, Point::new(orig.x + dx, orig.y + dy));
        total += snr_violations_ledger(&w.scenario, ledger, &w.assignment).len();
        ledger.move_relay(r, orig);
    }
    total
}

/// Maximum relative SNR disagreement between the two paths across every
/// (subscriber, serving) pair at every probe position.
fn parity_check(w: &Workload) -> f64 {
    let mut ledger = interference_ledger(&w.scenario, &w.relays);
    let mut relays = w.relays.clone();
    let mut worst = 0.0f64;
    for &(r, dx, dy) in &w.probes {
        let orig = relays[r];
        let moved = Point::new(orig.x + dx, orig.y + dy);
        relays[r] = moved;
        ledger.move_relay(r, moved);
        for (j, &serving) in w.assignment.iter().enumerate() {
            let inc = ledger.snr(j, serving);
            let exact = sag_radio::snr::placement_snr_uniform(
                w.scenario.params.link.model(),
                w.scenario.subscribers[j].position,
                &relays,
                serving,
            );
            // Past saturation the two paths are equivalent by contract:
            // the guard clamps sub-ulp interference residue to ∞ where
            // brute may read a finite value above any usable threshold.
            if inc >= sag_radio::ledger::SNR_SATURATED || exact >= sag_radio::ledger::SNR_SATURATED
            {
                assert!(
                    inc >= sag_radio::ledger::SNR_SATURATED
                        && exact >= sag_radio::ledger::SNR_SATURATED,
                    "saturation mismatch at (j={j}, r={serving}): {inc} vs {exact}"
                );
                continue;
            }
            worst = worst.max((inc - exact).abs() / exact.abs().max(1e-300));
        }
        relays[r] = orig;
        ledger.move_relay(r, orig);
    }
    worst
}

fn json_escape_free(s: &str) -> &str {
    assert!(
        s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_-.".contains(c)),
        "bench labels stay in the JSON-safe subset"
    );
    s
}

fn emit_json(
    path: &str,
    brute_ns: u128,
    ledger_ns: u128,
    speedup: f64,
    parity: f64,
    gate: &str,
) -> std::io::Result<()> {
    let body = format!(
        "{{\n  \"benchmark\": \"{}\",\n  \"subscribers\": {},\n  \"relays\": {},\n  \"probes\": {},\n  \"hardware_threads\": {},\n  \"brute_median_ns\": {},\n  \"ledger_median_ns\": {},\n  \"speedup\": {:.3},\n  \"parity_max_rel_err\": {:.3e},\n  \"gate\": \"{}\"\n}}\n",
        json_escape_free("snr_move_probes"),
        SUBSCRIBERS,
        SUBSCRIBERS.div_ceil(2),
        PROBES,
        sag_bench::hardware_threads(),
        brute_ns,
        ledger_ns,
        speedup,
        parity,
        gate,
    );
    std::fs::write(path, body)
}

fn main() {
    let mut out_path = String::from("BENCH_snr.json");
    let mut min_speedup: Option<f64> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => out_path = args.next().expect("--out needs a path"),
            "--min-speedup" => {
                let v = args.next().expect("--min-speedup needs a number");
                min_speedup = Some(v.parse().expect("--min-speedup parses as f64"));
            }
            other => {
                panic!("unknown argument {other}; usage: bench_snr [--out PATH] [--min-speedup X]")
            }
        }
    }

    let w = build_workload();

    // Parity gate before any timing: a fast wrong answer is worthless.
    let parity = parity_check(&w);
    assert!(
        parity <= 1e-9,
        "ledger/brute parity broken before timing: max rel err {parity:.3e}"
    );
    let brute_count = sweep_brute(&w);
    let mut shared = interference_ledger(&w.scenario, &w.relays);
    let ledger_count = sweep_ledger(&w, &mut shared);
    assert_eq!(
        brute_count, ledger_count,
        "violation counts diverge between brute and ledger sweeps"
    );

    let mut bench = Bench::new("snr")
        .samples(11)
        .sample_target(Duration::from_millis(20));
    let brute_ns = bench
        .run("brute_sweep", || sweep_brute(&w))
        .median
        .as_nanos();
    let mut ledger = interference_ledger(&w.scenario, &w.relays);
    let ledger_ns = bench
        .run("ledger_sweep", || sweep_ledger(&w, &mut ledger))
        .median
        .as_nanos();
    bench.print();

    let speedup = brute_ns as f64 / ledger_ns.max(1) as f64;
    let (gate, enforce) =
        sag_bench::resolve_gate(min_speedup.is_some(), "no --min-speedup floor given");
    println!("speedup: {speedup:.2}x (parity max rel err {parity:.3e}) [{gate}]");
    emit_json(&out_path, brute_ns, ledger_ns, speedup, parity, &gate)
        .expect("write benchmark JSON");
    println!("wrote {out_path}");

    if enforce {
        let floor = min_speedup.unwrap_or_default();
        assert!(
            speedup >= floor,
            "speedup {speedup:.2}x is below the required {floor:.2}x floor"
        );
    }
}
