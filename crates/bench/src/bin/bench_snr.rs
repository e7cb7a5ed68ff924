//! Brute-force vs incremental-ledger SNR benchmark (`BENCH_snr.json`).
//!
//! Replays a fixed sequence of relay-move probes against a 100-subscriber
//! scenario twice: once recomputing every SNR from scratch with
//! [`sag_core::coverage::snr_violations_brute`] (the pre-ledger hot
//! path), and once applying each move as an `O(S)` delta to a shared
//! [`sag_radio::InterferenceLedger`]. Both paths are checked for parity
//! before timing; then the two sweeps are timed in interleaved rounds
//! and the median per-round speedup is gated at [`MIN_SPEEDUP`].
//!
//! Usage: `bench_snr [--out PATH]`

use std::time::Duration;

use sag_bench::harness::{calibrated, interleaved};
use sag_bench::{bench_scenario, Artefact, Bound};
use sag_core::coverage::{interference_ledger, snr_violations_brute, snr_violations_ledger};
use sag_core::model::Scenario;
use sag_geom::Point;
use sag_radio::InterferenceLedger;

const SUBSCRIBERS: usize = 100;
const FIELD: f64 = 800.0;
const SEED: u64 = 4242;
const PROBES: usize = 32;
/// Interleaved brute/ledger measurement rounds.
const ROUNDS: usize = 11;
/// Least wall-clock time each arm spends per round.
const ROUND_TARGET: Duration = Duration::from_millis(20);
/// Gate: the ledger sweep is at least this many times faster.
const MIN_SPEEDUP: f64 = 5.0;

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

fn main() {
    let mut out = Artefact::from_args("snr_move_probes", "BENCH_snr.json");
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

    let mut ledger = interference_ledger(&w.scenario, &w.relays);
    let t = interleaved(
        ROUNDS,
        &mut [
            &mut calibrated(ROUND_TARGET, || sweep_brute(&w)),
            &mut calibrated(ROUND_TARGET, || sweep_ledger(&w, &mut ledger)),
        ],
    );
    let speedup = t.ratio_median(&[0], &[1]);
    out.field("subscribers", SUBSCRIBERS)
        .field("relays", w.relays.len())
        .field("probes", PROBES)
        .field("brute_median_ns", t.median_ns(0))
        .field("ledger_median_ns", t.median_ns(1))
        .field("speedup", speedup)
        .field("parity_max_rel_err", parity)
        .gate("speedup", speedup, Bound::Floor(MIN_SPEEDUP), None);
    out.finish();
}
