//! Zone-parallel solve engine.
//!
//! Zone Partition (Algorithm 2) produces interference-independent
//! zones, which makes the lower tier embarrassingly parallel: each zone
//! is solved against a private [`InterferenceLedger`] restricted to its
//! own subscribers, and the per-zone answers are reassembled in zone
//! index order. `run_zones` is the shared work-queue under both SAMC
//! and the ILPQC path of [`crate::sag::run_sag_with`].
//!
//! # Determinism contract
//!
//! The fan-out itself is [`sag_obs::try_par_indexed`]. Its contract
//! (inline below two workers, ordered claims, one trace tree, buffered
//! metrics folded in index order, contained panics) is documented on
//! [`sag_obs::par_indexed`] and property-tested in `sag-obs`. On top of
//! it, `threads = 1` and `threads = N` produce byte-identical results
//! as long as no zone errors:
//!
//! * the partition itself never depends on the thread count;
//! * each zone solve is a pure function of its zone scenario (every
//!   zone solve re-installs the coordinator's ledger-mode override, so
//!   not even debug switches can diverge);
//! * the merge consumes zone results **in zone index order**, so the
//!   relay numbering, the assignment remap and the merged ledger's
//!   floating-point accumulators replay the sequential build exactly.
//!
//! When a shared budget is exhausted mid-run the *outcome* (which zone
//! trips first) depends on scheduling, so error runs are only
//! deterministic at `threads = 1`. Worker panics surface as
//! [`SagError::WorkerPanic`] — a poisoned zone never hangs the merge.

use std::cell::Cell;

use sag_geom::Point;
use sag_radio::ledger::InterferenceLedger;

use crate::coverage::{
    flush_ledger_stats, ledger_mode_override, push_ledger_mode_override, snr_violations_ledger,
    CoverageSolution,
};
use crate::error::{SagError, SagResult};
use crate::model::Scenario;
use crate::sliding::rs_sliding_movement;
use crate::zone::Zone;

thread_local! {
    /// Chaos switch: when set, every zone solve started from this
    /// thread (or a worker it spawns) panics instead of solving.
    static INJECT_PANIC: Cell<bool> = const { Cell::new(false) };
}

/// Arms (or disarms) the chaos fault that makes zone workers panic.
///
/// Scoped to the calling thread — pipelines started from other threads
/// are unaffected — but propagated to the worker threads those
/// pipelines spawn, so the fault exercises the real panic boundary.
/// Test-only in spirit; it exists so the chaos suite can verify that a
/// dying worker surfaces [`SagError::WorkerPanic`] instead of hanging
/// or poisoning the run.
pub fn inject_zone_worker_panic(armed: bool) {
    INJECT_PANIC.with(|f| f.set(armed));
}

/// Resolves the `threads` knob: `0` means "all hardware threads".
pub(crate) fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        threads
    }
}

/// Solves `n_zones` zone jobs with up to `threads` workers and returns
/// the results in zone index order.
///
/// Runs on [`sag_obs::try_par_indexed`] one zone per claim, so its
/// determinism contract applies: `threads <= 1` (or a single zone) is
/// the sequential loop the merge replays, and the first error **by
/// zone index** wins, with later zones abandoned cooperatively. Each
/// zone solve re-installs the coordinator's ledger-mode override, and a
/// panic in `solve` becomes [`SagError::WorkerPanic`] on both paths.
pub(crate) fn run_zones<T, F>(
    stage: &'static str,
    n_zones: usize,
    threads: usize,
    solve: F,
) -> SagResult<Vec<T>>
where
    T: Send,
    F: Fn(usize) -> SagResult<T> + Sync,
{
    let inject = INJECT_PANIC.with(|f| f.get());
    let mode = ledger_mode_override();
    sag_obs::try_par_indexed(n_zones, resolve_threads(threads), 1, |zone| {
        let _mode = push_ledger_mode_override(mode);
        let _zone_span = sag_obs::span_zone("zone_solve", zone as u64);
        assert!(!inject, "injected zone-worker panic (zone {zone})");
        solve(zone)
    })
    .map_err(|(zone, err)| err.unwrap_or(SagError::WorkerPanic { stage, zone }))
}

/// One zone's contribution to the merged lower-tier answer: the
/// zone-local coverage plus the worker's private zone ledger (relays at
/// unit power, drift-free by construction of
/// [`InterferenceLedger::split`]).
pub(crate) struct ZoneOutcome {
    /// Zone-local placement (relay indices local to the zone).
    pub solution: CoverageSolution,
    /// Private ledger over the zone's subscribers with the zone's
    /// relays applied.
    pub ledger: InterferenceLedger,
}

/// Builds a worker's [`ZoneOutcome`]: split the relay-free base ledger
/// down to the zone's subscribers and apply the zone's relays.
pub(crate) fn zone_outcome(
    base: &InterferenceLedger,
    zone: &Zone,
    solution: CoverageSolution,
) -> ZoneOutcome {
    let mut ledger = base.split(zone);
    for &relay in &solution.relays {
        ledger.add_relay(relay, 1.0);
    }
    ZoneOutcome { solution, ledger }
}

/// Reassembles per-zone outcomes into one global [`CoverageSolution`],
/// strictly in zone index order.
///
/// Relays are concatenated zone by zone, assignments remapped through
/// each zone's subscriber indices, and the zone ledgers merged into a
/// clone of the relay-free base — which replays, add for add, the
/// sequential global build, so the merged accumulators are bit-identical
/// to `threads = 1`. Zones are interference-independent only up to
/// `N_max`; the merged placement is re-checked and one global repair
/// round clears any residual inter-zone violations.
pub(crate) fn merge_zone_outcomes(
    scenario: &Scenario,
    zones: &[Zone],
    outcomes: Vec<ZoneOutcome>,
    base: &InterferenceLedger,
    stage: &str,
) -> SagResult<CoverageSolution> {
    debug_assert_eq!(zones.len(), outcomes.len());
    let mut all_relays: Vec<Point> = Vec::new();
    let mut global_assignment = vec![usize::MAX; scenario.n_subscribers()];
    let mut merged = base.clone();
    for (zone, outcome) in zones.iter().zip(&outcomes) {
        let offset = all_relays.len();
        all_relays.extend(outcome.solution.relays.iter().copied());
        for (local_j, &global_j) in zone.iter().enumerate() {
            global_assignment[global_j] = offset + outcome.solution.assignment[local_j];
        }
        merged.merge_from(&outcome.ledger);
    }
    debug_assert!(global_assignment.iter().all(|&a| a != usize::MAX));

    let violations = snr_violations_ledger(scenario, &merged, &global_assignment);
    // Residual inter-zone violations the merged check surfaced (the
    // global repair round clears them or fails the solve).
    sag_obs::gauge("coverage.snr_violations", violations.len() as f64);
    flush_ledger_stats(&merged);
    if violations.is_empty() {
        return Ok(CoverageSolution {
            relays: all_relays,
            assignment: global_assignment,
        });
    }
    rs_sliding_movement(scenario, all_relays, global_assignment)
        .ok_or_else(|| SagError::Infeasible(format!("{stage}: global SNR repair failed")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_and_parallel_agree_on_results_and_order() {
        let square = |z: usize| -> SagResult<usize> { Ok(z * z) };
        let seq = run_zones("samc", 9, 1, square).unwrap();
        let par = run_zones("samc", 9, 4, square).unwrap();
        assert_eq!(seq, (0..9).map(|z| z * z).collect::<Vec<_>>());
        assert_eq!(seq, par);
    }

    #[test]
    fn first_error_by_zone_index_wins() {
        let solve = |z: usize| -> SagResult<usize> {
            if z >= 3 {
                Err(SagError::Infeasible(format!("zone {z}")))
            } else {
                Ok(z)
            }
        };
        for threads in [1, 4] {
            let err = run_zones("samc", 8, threads, solve).unwrap_err();
            assert_eq!(
                err,
                SagError::Infeasible("zone 3".into()),
                "threads {threads}"
            );
        }
    }

    #[test]
    fn worker_panic_is_caught_as_a_typed_error() {
        let solve = |z: usize| -> SagResult<usize> {
            if z == 2 {
                panic!("boom");
            }
            Ok(z)
        };
        for threads in [1, 4] {
            let err = run_zones("ilpqc", 5, threads, solve).unwrap_err();
            assert_eq!(
                err,
                SagError::WorkerPanic {
                    stage: "ilpqc",
                    zone: 2
                },
                "threads {threads}"
            );
        }
    }

    #[test]
    fn injected_panic_arms_and_disarms_per_thread() {
        inject_zone_worker_panic(true);
        let err = run_zones("samc", 3, 2, Ok).unwrap_err();
        assert!(matches!(err, SagError::WorkerPanic { stage: "samc", .. }));
        inject_zone_worker_panic(false);
        assert!(run_zones("samc", 3, 2, Ok).is_ok());
    }

    #[test]
    fn zero_threads_resolves_to_available_parallelism() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(3), 3);
    }

    #[test]
    fn workers_inherit_the_observability_stack() {
        use std::sync::Arc;
        let collector = Arc::new(sag_obs::Collector::default());
        sag_obs::with_local(collector.clone(), || {
            run_zones("samc", 6, 3, |z| {
                sag_obs::counter("engine.test_zone", 1);
                Ok(z)
            })
            .unwrap();
        });
        let metrics = collector.summary();
        assert_eq!(metrics.counter("engine.test_zone"), 6);
    }
}
