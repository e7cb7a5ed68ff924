//! Workspace parity suite for the incremental interference ledger.
//!
//! The contracts under test, after **any** sequence of relay mutations
//! (`add_relay` / `remove_relay` / `move_relay` / `set_power`),
//! subscriber mutations (`add_subscriber` / `remove_subscriber` /
//! `move_subscriber`), `rebuild`s and zone-merge round trips:
//!
//! * every `InterferenceLedger::snr` query agrees with the brute-force
//!   recomputation (`sag_radio::snr::placement_snr`) to within 1e-9
//!   relative — with both sides treated as equal once they saturate
//!   past [`SNR_SATURATED`];
//! * the path-factor columns never go stale: every live relay's
//!   `signal` at every subscriber slot, tombstoned ones included, is
//!   bit-identical to `TwoRay::received_power` from the current
//!   positions, also after a `compact`, and `audit()` is clean;
//! * a desynchronised accumulator surfaces as a typed `DesyncError`,
//!   never as a silently wrong answer.

use sag_geom::Point;
use sag_radio::ledger::SNR_SATURATED;
use sag_radio::snr::placement_snr;
use sag_radio::{InterferenceLedger, TwoRay};
use sag_testkit::prelude::*;

const FIELD: f64 = 600.0;

fn model() -> TwoRay {
    TwoRay::new(1.0, 3.0)
}

fn subscribers(n: usize, seed: u64) -> Vec<Point> {
    let mut rng = Rng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            Point::new(
                rng.gen_range(-0.5..0.5f64) * FIELD,
                rng.gen_range(-0.5..0.5f64) * FIELD,
            )
        })
        .collect()
}

/// One mutation drawn from the op-sequence strategy: `(kind, xf, yf, p)`
/// where `kind` selects the operation (see [`apply_op`]) and the
/// fractions are mapped onto field coordinates, roster choices, and
/// powers.
type Op = (usize, f64, f64, f64);

fn op_strategy() -> impl Strategy<Value = Vec<Op>> {
    vec_of((0usize..9, 0.0..1.0f64, 0.0..1.0f64, 0.01..1.0f64), 1..40)
}

fn op_point(xf: f64, yf: f64) -> Point {
    Point::new((xf - 0.5) * FIELD, (yf - 0.5) * FIELD)
}

/// Applies `op` to `ledger`, keeping `ids` as the live relay-id roster
/// and `active` as the active subscriber-slot roster. Kinds: 0 add, 1
/// remove, 2 move, 3 set-power a relay; 4 add, 5 remove, 6 move a
/// subscriber; 7 rebuild; 8 zone-merge round trip. An op whose
/// roster is empty (or, for a subscriber removal, would empty it)
/// degrades to a relay add, so every sequence is valid by construction.
fn apply_op(
    ledger: &mut InterferenceLedger,
    ids: &mut Vec<usize>,
    active: &mut Vec<usize>,
    op: Op,
) {
    let (kind, xf, yf, p) = op;
    let pick = |len: usize| ((xf * len as f64) as usize).min(len - 1);
    match kind {
        1 if !ids.is_empty() => {
            let id = ids.swap_remove(pick(ids.len()));
            ledger.remove_relay(id);
        }
        2 if !ids.is_empty() => ledger.move_relay(ids[pick(ids.len())], op_point(yf, xf)),
        3 if !ids.is_empty() => ledger.set_power(ids[pick(ids.len())], p),
        4 => active.push(ledger.add_subscriber(op_point(xf, yf))),
        5 if active.len() > 1 => {
            let j = active.swap_remove(pick(active.len()));
            ledger.remove_subscriber(j);
        }
        6 => {
            ledger.move_subscriber(active[pick(active.len())], op_point(yf, xf));
        }
        7 => ledger.rebuild(),
        8 => zone_merge_round_trip(ledger, ids, yf),
        _ => ids.push(ledger.add_relay(op_point(xf, yf), p)),
    }
}

/// Rebuilds `ledger` the way the zone engine does: the subscriber slots
/// are cut into two zones at fraction `cut`, the relays dealt to them
/// alternately, each zone's ledger built over the zone's subscribers
/// with its relays, and the zone ledgers merged into a relay-free
/// global ledger in zone order — in-zone path factors copied,
/// cross-zone ones computed. Tombstoned slots are tombstoned again;
/// `ids` becomes the merged relay ids.
fn zone_merge_round_trip(ledger: &mut InterferenceLedger, ids: &mut Vec<usize>, cut: f64) {
    let n = ledger.n_subscribers();
    let positions: Vec<Point> = (0..n).map(|j| ledger.subscriber(j)).collect();
    let cut = ((cut * (n + 1) as f64) as usize).min(n);
    let zones: [Vec<usize>; 2] = [(0..cut).collect(), (cut..n).collect()];
    let mut merged = InterferenceLedger::new(model(), positions.clone());
    let mut merged_ids = Vec::with_capacity(ids.len());
    for (k, zone) in zones.iter().enumerate() {
        let mut piece =
            InterferenceLedger::new(model(), zone.iter().map(|&j| positions[j]).collect());
        for &id in ids.iter().skip(k).step_by(2) {
            piece.add_relay(ledger.position(id), ledger.power(id));
        }
        merged_ids.extend(merged.merge_from(&piece, zone));
    }
    for j in (0..n).filter(|&j| !ledger.is_subscriber_active(j)) {
        merged.remove_subscriber(j);
    }
    *ledger = merged;
    *ids = merged_ids;
}

/// Runs `ops` on a fresh ledger over `n_subs` seeded subscribers and
/// returns it with its relay-id roster.
fn run_ops(ops: Vec<Op>, n_subs: usize, seed: u64) -> (InterferenceLedger, Vec<usize>) {
    let mut ledger = InterferenceLedger::new(model(), subscribers(n_subs, seed));
    let mut ids: Vec<usize> = Vec::new();
    let mut active: Vec<usize> = (0..n_subs).collect();
    for op in ops {
        apply_op(&mut ledger, &mut ids, &mut active, op);
    }
    (ledger, ids)
}

/// Exact SNR over the ledger's current relay set, via the brute helper.
fn brute_snr(ledger: &InterferenceLedger, ids: &[usize], j: usize, serving: usize) -> f64 {
    let positions: Vec<Point> = ids.iter().map(|&i| ledger.position(i)).collect();
    let powers: Vec<f64> = ids.iter().map(|&i| ledger.power(i)).collect();
    let serving_idx = ids
        .iter()
        .position(|&i| i == serving)
        .expect("serving id is in the roster");
    placement_snr(
        &model(),
        ledger.subscriber(j),
        &positions,
        &powers,
        serving_idx,
    )
}

fn saturated_or_close(a: f64, b: f64, rel: f64) -> bool {
    if a >= SNR_SATURATED || b >= SNR_SATURATED {
        a >= SNR_SATURATED && b >= SNR_SATURATED
    } else {
        (a - b).abs() <= rel * b.abs().max(1e-9)
    }
}

prop! {
    /// Headline parity: ledger SNR == brute SNR within 1e-9 after any
    /// random mutation sequence, for every (subscriber, serving) pair.
    #[cases(48)]
    fn ledger_matches_brute_after_any_op_sequence(
        ops in op_strategy(),
        n_subs in 1usize..8,
        seed in 0u64..10_000,
    ) {
        let (ledger, ids) = run_ops(ops, n_subs, seed);
        for j in 0..ledger.n_subscribers() {
            for &serving in &ids {
                let inc = ledger.snr(j, serving);
                let exact = brute_snr(&ledger, &ids, j, serving);
                prop_assert!(
                    saturated_or_close(inc, exact, 1e-9),
                    "parity broken at (j={j}, serving={serving}): ledger {inc} vs brute {exact}"
                );
            }
        }
    }

    /// The column contract: after any op sequence, every live relay's
    /// signal at every subscriber slot (tombstoned slots included) is
    /// bit-identical to `received_power` recomputed from the current
    /// positions and power, and the audit, which recomputes every path
    /// factor from positions, is clean. The same holds for a compaction
    /// of the final ledger that keeps every other live relay, whose
    /// columns are moved entries.
    #[cases(48)]
    fn path_factor_columns_never_go_stale(
        ops in op_strategy(),
        n_subs in 1usize..8,
        seed in 0u64..10_000,
    ) {
        let (ledger, ids) = run_ops(ops, n_subs, seed);
        let mut by_slot = ids.clone();
        by_slot.sort_unstable();
        // Compaction renumbers the kept relays 0, 1, 2, … in slot id order.
        let mut piece = ledger.clone();
        piece.compact(|id| by_slot.binary_search(&id).is_ok_and(|k| k % 2 == 0));
        for (k, &id) in by_slot.iter().enumerate() {
            for j in 0..ledger.n_subscribers() {
                let d = ledger.position(id).distance(ledger.subscriber(j));
                let want = model().received_power(ledger.power(id), d).to_bits();
                prop_assert_eq!(
                    ledger.signal(j, id).to_bits(),
                    want,
                    "stale path factor at (j={}, id={})",
                    j,
                    id
                );
                if k % 2 == 0 {
                    prop_assert_eq!(
                        piece.signal(j, k / 2).to_bits(),
                        want,
                        "compaction moved a wrong path factor at (j={}, id={})",
                        j,
                        id
                    );
                }
            }
        }
        prop_assert!(ledger.audit().is_ok(), "audit: {:?}", ledger.audit());
        prop_assert!(piece.audit().is_ok(), "compaction audit: {:?}", piece.audit());
    }

    /// Chaos hook: under `Fault::LedgerDesync` (a skewed accumulator),
    /// the oracle cross-check answers with a typed `DesyncError` — never
    /// a silently wrong SNR. `rebuild` restores a clean bill of health.
    #[cases(24)]
    fn skewed_accumulator_is_a_typed_error_not_a_wrong_answer(
        seed in 0u64..10_000,
        delta in one_of([1e-3, -1e-3, 1.0, -0.5]),
    ) {
        // The fault is scenario-invisible (see `apply_fault`): it is
        // realised directly on ledger state.
        let _fault = Fault::LedgerDesync;
        let subs = subscribers(4, seed);
        let mut ledger = InterferenceLedger::new(model(), subs);
        let a = ledger.add_relay(Point::new(-40.0, 0.0), 0.8);
        let b = ledger.add_relay(Point::new(55.0, 10.0), 0.6);
        prop_assert!(ledger.audit().is_ok());

        ledger.skew_accumulator(2, delta);
        let err = ledger.audit().expect_err("skew must fail the audit");
        prop_assert_eq!(err.subscriber, 2);
        prop_assert!(ledger.snr_checked(2, a).is_err());
        // Untouched subscribers still cross-check clean.
        prop_assert!(ledger.snr_checked(0, b).is_ok());

        ledger.rebuild();
        prop_assert!(ledger.audit().is_ok());
        prop_assert!(ledger.snr_checked(2, a).is_ok());
    }
}

#[test]
fn zero_interference_saturates_to_infinity() {
    let mut ledger = InterferenceLedger::new(model(), subscribers(3, 7));
    let only = ledger.add_relay(Point::new(10.0, -5.0), 0.5);
    for j in 0..ledger.n_subscribers() {
        assert_eq!(ledger.snr(j, only), f64::INFINITY);
        assert_eq!(brute_snr(&ledger, &[only], j, only), f64::INFINITY);
    }
}

#[test]
fn single_relay_after_churn_still_saturates() {
    let mut ledger = InterferenceLedger::new(model(), subscribers(3, 11));
    let keep = ledger.add_relay(Point::new(0.0, 0.0), 1.0);
    let drop_a = ledger.add_relay(Point::new(1.0, 1.0), 1.0);
    let drop_b = ledger.add_relay(Point::new(-2.0, 3.0), 0.3);
    ledger.remove_relay(drop_a);
    ledger.remove_relay(drop_b);
    // Catastrophic cancellation territory: the accumulator saw nearly
    // identical contributions added and removed. The guard must still
    // report a clean infinity for the lone survivor.
    for j in 0..ledger.n_subscribers() {
        assert_eq!(ledger.snr(j, keep), f64::INFINITY);
    }
}
