//! The per-cell sweep path, kept as the differential referee for the
//! batched engine in [`crate::batch`].
//!
//! [`sweep_multi_reference`] runs one job per `(x, run)` cell on its own
//! scoped workers with a build-every-time [`SweepCache::disabled`].
//! [`crate::batch::sweep_multi_with`] claims lane batches on
//! `sag_obs::par_indexed` and shares artifacts through its cache, and
//! must return byte-identical [`CellStats`] at any thread count, cache
//! state and job order.
//!
//! Only tests and benchmarks import this module: the determinism suite
//! (`tests/tests/sweep_determinism.rs`) and `batch`'s unit tests assert
//! the two agree, and `bench_sweep` times one against the other.
//! Library code must not call it — it is the slow path by construction.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::batch::{BatchCtx, SweepCache};
use crate::runner::SweepConfig;
use crate::stats::CellStats;

/// The pre-existing per-cell sweep path, kept as the differential
/// reference: one job per `(x, run)` cell, a mutex-guarded outcome
/// grid, and a build-every-time cache, exactly as the runner worked
/// before the batched engine. [`crate::batch::sweep_multi_with`] must stay
/// byte-identical to this at any thread count, cache state and job
/// order — the determinism suite and `bench_sweep` both diff against
/// it.
pub fn sweep_multi_reference<X, F>(
    xs: &[X],
    n_metrics: usize,
    config: SweepConfig,
    eval: F,
) -> Vec<Vec<CellStats>>
where
    X: Copy + Sync,
    F: Fn(&BatchCtx<'_>, X, u64) -> Vec<Option<f64>> + Sync,
{
    if n_metrics == 0 {
        return Vec::new();
    }
    let cache = SweepCache::disabled();
    let ctx = BatchCtx { cache: &cache };
    // outcomes[i][m][r]; failed[i][r] marks crashed runs.
    let outcomes: Vec<Vec<Mutex<Vec<Option<f64>>>>> = xs
        .iter()
        .map(|_| {
            (0..n_metrics)
                .map(|_| Mutex::new(vec![None; config.runs]))
                .collect()
        })
        .collect();
    let failed: Vec<Mutex<Vec<bool>>> = xs
        .iter()
        .map(|_| Mutex::new(vec![false; config.runs]))
        .collect();

    let jobs: Vec<(usize, usize)> = (0..xs.len())
        .flat_map(|i| (0..config.runs).map(move |r| (i, r)))
        .collect();
    let next = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        for _ in 0..config.threads.max(1).min(jobs.len().max(1)) {
            scope.spawn(|| loop {
                let k = next.fetch_add(1, Ordering::Relaxed);
                if k >= jobs.len() {
                    break;
                }
                let (i, r) = jobs[k];
                let vals = catch_unwind(AssertUnwindSafe(|| eval(&ctx, xs[i], config.seed(i, r))))
                    .ok()
                    .filter(|v| v.len() == n_metrics);
                match vals {
                    Some(vals) => {
                        for (m, v) in vals.into_iter().enumerate() {
                            outcomes[i][m].lock().expect("no worker poisons a cell")[r] = v;
                        }
                    }
                    None => {
                        failed[i].lock().expect("no worker poisons a cell")[r] = true;
                    }
                }
            });
        }
    });

    (0..n_metrics)
        .map(|m| {
            xs.iter()
                .enumerate()
                .map(|(i, _)| {
                    let n_failed = failed[i]
                        .lock()
                        .expect("workers joined cleanly")
                        .iter()
                        .filter(|&&f| f)
                        .count();
                    CellStats::from_runs_with_failures(
                        &outcomes[i][m].lock().expect("workers joined cleanly"),
                        n_failed,
                    )
                })
                .collect()
        })
        .collect()
}
