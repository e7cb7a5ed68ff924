//! Batched sweep engine with a fingerprint-keyed invariant cache.
//!
//! The paper's figures are parameter studies: every plotted point
//! averages 10 seeded runs, and whole curves re-evaluate the *same*
//! scenarios while only one knob moves (Fig. 3(d) sweeps the SNR
//! threshold over fixed geometry; Fig. 3(e) sweeps the GAC grid over
//! entirely fixed scenarios). The per-cell runner re-built geometry,
//! candidate sets and solver answers from scratch for every `(x, run)`
//! cell; this engine instead
//!
//! * runs the cells on [`sag_obs::par_indexed`], whose workers claim
//!   contiguous *lane batches* of K cells per atomic fetch,
//! * shares everything invariant across sweep cells through a
//!   [`SweepCache`]: artifacts are keyed by a content
//!   [`Fingerprint`] of the inputs to their (pure, deterministic)
//!   build function, so lanes that differ only in the swept parameter
//!   or the run index hit instead of recomputing.
//!
//! # Determinism contract
//!
//! The fan-out itself (inline below two workers, one trace tree,
//! buffered metrics folded in claim order, contained panics) is
//! [`sag_obs::par_indexed`]'s contract, documented there and
//! property-tested in `sag-obs`. On top of it, as long as `eval` is a
//! pure function of `(x, seed)` and every cached build is a pure
//! function of its fingerprint pre-image, the aggregated [`CellStats`]
//! are byte-identical across thread counts, job orders
//! ([`JobOrder::Shuffled`] included), cache states (cold, warm,
//! disabled) and the per-cell reference path
//! ([`sweep_multi_reference`]). The cache can change only *when* an
//! artifact is built, never its value.

use std::any::{Any, TypeId};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use crate::fingerprint::Fingerprint;
use crate::runner::SweepConfig;
use crate::stats::CellStats;

/// Hit/miss accounting of one [`SweepCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Accesses answered from an already-built artifact.
    pub hits: u64,
    /// Accesses that had to run the build closure.
    pub misses: u64,
    /// Distinct keys currently stored.
    pub entries: usize,
}

/// Fingerprint-keyed store of sweep-invariant artifacts.
///
/// Entries are keyed by `(Fingerprint, TypeId)` — the type id keeps a
/// (vanishingly unlikely) fingerprint collision from ever aliasing two
/// artifacts of different types. Each key owns a private [`OnceLock`],
/// so a missed artifact is built exactly once even when several lanes
/// race for it; the map mutex is held only to fetch the key's cell,
/// never across a build.
pub struct SweepCache {
    enabled: bool,
    #[allow(clippy::type_complexity)]
    entries: Mutex<HashMap<(Fingerprint, TypeId), Arc<OnceLock<Arc<dyn Any + Send + Sync>>>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl SweepCache {
    /// An empty, enabled cache.
    pub fn new() -> Arc<Self> {
        Arc::new(SweepCache {
            enabled: true,
            entries: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        })
    }

    /// A cache that never stores: every access runs the build closure
    /// (and counts as a miss). This is what `SAG_SWEEP_CACHE=0`
    /// installs, and what the per-cell reference path uses.
    pub fn disabled() -> Arc<Self> {
        Arc::new(SweepCache {
            enabled: false,
            entries: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        })
    }

    /// Whether this cache stores artifacts at all.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Returns the artifact for `fp`, building it with `build` on the
    /// first access.
    ///
    /// `build` must be a pure, deterministic function of the data
    /// hashed into `fp` — that is the whole byte-identical contract:
    /// whoever builds, everyone reads the same value a recompute would
    /// have produced.
    pub fn cached<T: Send + Sync + 'static>(
        &self,
        fp: Fingerprint,
        build: impl FnOnce() -> T,
    ) -> Arc<T> {
        if !self.enabled {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return Arc::new(build());
        }
        let slot = {
            let mut entries = self.entries.lock().unwrap_or_else(PoisonError::into_inner);
            entries.entry((fp, TypeId::of::<T>())).or_default().clone()
        };
        let mut built = false;
        let any = slot
            .get_or_init(|| {
                built = true;
                Arc::new(build()) as Arc<dyn Any + Send + Sync>
            })
            .clone();
        if built {
            self.misses.fetch_add(1, Ordering::Relaxed);
        } else {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        any.downcast::<T>()
            .expect("TypeId in the cache key guarantees the stored type")
    }

    /// Snapshot of the hit/miss accounting.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self
                .entries
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .len(),
        }
    }
}

/// Per-sweep handle handed to every `eval` invocation: the gateway to
/// the invariant cache.
pub struct BatchCtx<'a> {
    cache: &'a SweepCache,
}

impl BatchCtx<'_> {
    /// See [`SweepCache::cached`].
    pub fn cached<T: Send + Sync + 'static>(
        &self,
        fp: Fingerprint,
        build: impl FnOnce() -> T,
    ) -> Arc<T> {
        self.cache.cached(fp, build)
    }

    /// Whether artifacts are actually being stored (false under
    /// `SAG_SWEEP_CACHE=0` and on the reference path).
    pub fn cache_enabled(&self) -> bool {
        self.cache.is_enabled()
    }
}

/// The order in which the engine hands cells to workers.
///
/// Results never depend on it (each cell's outcome lands in its own
/// row-major slot); the knob exists so the determinism suite can prove
/// exactly that under adversarial interleavings. Buffered metrics fold
/// in claim order, so they match across thread counts for one order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum JobOrder {
    /// Row-major `(x, run)` — the historical claim order.
    #[default]
    RowMajor,
    /// Seeded Fisher–Yates shuffle of the claim order.
    Shuffled(u64),
}

/// Engine knobs beyond [`SweepConfig`].
#[derive(Clone)]
pub struct SweepOptions {
    /// Cells claimed per worker fetch (the lane-batch width K);
    /// clamped to at least 1. Defaults to `SAG_SWEEP_LANES` (read once
    /// per process), else 4.
    pub lanes: usize,
    /// Claim order (see [`JobOrder`]).
    pub order: JobOrder,
    /// A shared cache to reuse across sweep calls (warm starts across
    /// a whole figure); `None` builds a fresh per-call cache, disabled
    /// when `SAG_SWEEP_CACHE=0`.
    pub cache: Option<Arc<SweepCache>>,
}

impl Default for SweepOptions {
    fn default() -> Self {
        SweepOptions {
            lanes: default_lanes(),
            order: JobOrder::RowMajor,
            cache: None,
        }
    }
}

/// The `SAG_SWEEP_LANES` default, read once per process.
fn default_lanes() -> usize {
    static LANES: OnceLock<usize> = OnceLock::new();
    *LANES.get_or_init(|| {
        std::env::var("SAG_SWEEP_LANES")
            .ok()
            .and_then(|v| v.trim().parse().ok())
            .filter(|&n: &usize| n >= 1)
            .unwrap_or(4)
    })
}

/// Whether `SAG_SWEEP_CACHE` leaves per-call caches enabled (default
/// yes; `0` disables), read once per process.
fn cache_enabled_by_env() -> bool {
    static ON: OnceLock<bool> = OnceLock::new();
    *ON.get_or_init(|| !matches!(std::env::var("SAG_SWEEP_CACHE").as_deref(), Ok("0")))
}

/// One cell's raw outcome: `None` when the eval panicked or returned
/// the wrong metric arity (a *failed* run), `Some(metrics)` otherwise.
type LaneOutcome = Option<Vec<Option<f64>>>;

/// Batched, cached `sweep_multi`: runs `eval(ctx, x, seed)` for every
/// `(x, run)` cell with the default [`SweepOptions`].
///
/// Drop-in upgrade of [`crate::runner::sweep_multi`] for evals that
/// want the invariant cache; an eval that ignores `ctx` behaves — and
/// aggregates — exactly like the uncached runner.
pub fn sweep_multi_cached<X, F>(
    xs: &[X],
    n_metrics: usize,
    config: SweepConfig,
    eval: F,
) -> Vec<Vec<CellStats>>
where
    X: Copy + Sync,
    F: Fn(&BatchCtx<'_>, X, u64) -> Vec<Option<f64>> + Sync,
{
    sweep_multi_with(xs, n_metrics, config, SweepOptions::default(), eval)
}

/// [`sweep_multi_cached`] with explicit engine knobs.
pub fn sweep_multi_with<X, F>(
    xs: &[X],
    n_metrics: usize,
    config: SweepConfig,
    opts: SweepOptions,
    eval: F,
) -> Vec<Vec<CellStats>>
where
    X: Copy + Sync,
    F: Fn(&BatchCtx<'_>, X, u64) -> Vec<Option<f64>> + Sync,
{
    if n_metrics == 0 {
        return Vec::new();
    }
    let cache = opts.cache.clone().unwrap_or_else(|| {
        if cache_enabled_by_env() {
            SweepCache::new()
        } else {
            SweepCache::disabled()
        }
    });
    let stats_before = cache.stats();
    let ctx = BatchCtx { cache: &cache };

    let runs = config.runs;
    let n_cells = xs.len() * runs;

    // The sweep span: every cell span (on whatever thread) parents
    // under it, so a capture reconstructs into one tree.
    let _sweep_span = sag_obs::span("sweep");

    // The claim order is a permutation of the row-major cells; results
    // go back to the cell's row-major slot, so the order never moves
    // them.
    let mut cell_of: Vec<usize> = (0..n_cells).collect();
    if let JobOrder::Shuffled(seed) = opts.order {
        sag_testkit::rng::Rng::seed_from_u64(seed).shuffle(&mut cell_of);
    }
    let claimed = sag_obs::par_indexed(n_cells, config.threads, opts.lanes, |k| {
        let cell = cell_of[k];
        let (i, r) = (cell / runs, cell % runs);
        let _cell_span = sag_obs::span_zone("sweep_cell", cell as u64);
        eval(&ctx, xs[i], config.seed(i, r))
    });
    let mut outcomes: Vec<LaneOutcome> = vec![None; n_cells];
    for (&cell, outcome) in cell_of.iter().zip(claimed) {
        outcomes[cell] = outcome.filter(|v| v.len() == n_metrics);
    }

    // Cache accounting, recorded once from the coordinator: totals are
    // order-invariant (each key is built exactly once), so collected
    // metrics stay identical across thread counts and job orders.
    let stats = cache.stats();
    sag_obs::counter("sweep.cells", n_cells as u64);
    sag_obs::counter(
        "sweep.cache_hits",
        stats.hits.saturating_sub(stats_before.hits),
    );
    sag_obs::counter(
        "sweep.cache_misses",
        stats.misses.saturating_sub(stats_before.misses),
    );

    aggregate(xs.len(), runs, n_metrics, &outcomes)
}

/// Transposes the cell outcomes into per-metric [`CellStats`] series.
fn aggregate(
    n_xs: usize,
    runs: usize,
    n_metrics: usize,
    outcomes: &[LaneOutcome],
) -> Vec<Vec<CellStats>> {
    (0..n_metrics)
        .map(|m| {
            (0..n_xs)
                .map(|i| {
                    let cells = &outcomes[i * runs..(i + 1) * runs];
                    let row: Vec<Option<f64>> = cells
                        .iter()
                        .map(|c| c.as_ref().and_then(|vals| vals[m]))
                        .collect();
                    let failed = cells.iter().filter(|c| c.is_none()).count();
                    CellStats::from_runs_with_failures(&row, failed)
                })
                .collect()
        })
        .collect()
}

/// The pre-existing per-cell sweep path, kept as the differential
/// reference: one job per `(x, run)` cell, a mutex-guarded outcome
/// grid, and a build-every-time cache, exactly as the runner worked
/// before the batched engine. [`sweep_multi_with`] must stay
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fingerprint::FpHasher;

    fn cfg(runs: usize, threads: usize) -> SweepConfig {
        SweepConfig {
            runs,
            base_seed: 0,
            threads,
        }
    }

    #[test]
    fn cache_builds_once_per_key() {
        let cache = SweepCache::new();
        let calls = AtomicU64::new(0);
        let fp = FpHasher::new("k").finish();
        for _ in 0..5 {
            let v = cache.cached(fp, || {
                calls.fetch_add(1, Ordering::Relaxed);
                41u64 + 1
            });
            assert_eq!(*v, 42);
        }
        assert_eq!(calls.load(Ordering::Relaxed), 1);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (4, 1, 1));
    }

    #[test]
    fn cache_separates_types_under_one_fingerprint() {
        let cache = SweepCache::new();
        let fp = FpHasher::new("k").finish();
        let a = cache.cached(fp, || 7u64);
        let b = cache.cached(fp, || "seven".to_string());
        assert_eq!(*a, 7);
        assert_eq!(*b, "seven");
        assert_eq!(cache.stats().entries, 2);
    }

    #[test]
    fn disabled_cache_always_builds() {
        let cache = SweepCache::disabled();
        let calls = AtomicU64::new(0);
        let fp = FpHasher::new("k").finish();
        for _ in 0..3 {
            cache.cached(fp, || calls.fetch_add(1, Ordering::Relaxed));
        }
        assert_eq!(calls.load(Ordering::Relaxed), 3);
        assert_eq!(cache.stats().hits, 0);
        assert_eq!(cache.stats().entries, 0);
    }

    #[test]
    fn batched_matches_reference_on_a_synthetic_sweep() {
        let xs: Vec<f64> = vec![1.0, 2.0, 3.0];
        let eval = |ctx: &BatchCtx<'_>, x: f64, seed: u64| {
            let mut h = FpHasher::new("base");
            h.write_f64(x);
            let base = ctx.cached(h.finish(), || x * 10.0);
            vec![
                Some(*base + seed as f64),
                seed.is_multiple_of(2).then_some(x),
            ]
        };
        let reference = sweep_multi_reference(&xs, 2, cfg(4, 1), eval);
        for threads in [1, 3] {
            for order in [JobOrder::RowMajor, JobOrder::Shuffled(9)] {
                let got = sweep_multi_with(
                    &xs,
                    2,
                    cfg(4, threads),
                    SweepOptions {
                        order,
                        ..Default::default()
                    },
                    eval,
                );
                assert_eq!(got, reference, "threads={threads} order={order:?}");
            }
        }
    }

    #[test]
    fn warm_cache_reuses_entries_across_sweeps() {
        let xs = [1usize, 2];
        let cache = SweepCache::new();
        let eval = |ctx: &BatchCtx<'_>, x: usize, _seed: u64| {
            let mut h = FpHasher::new("artifact");
            h.write_usize(x);
            vec![Some(*ctx.cached(h.finish(), || x as f64))]
        };
        let opts = || SweepOptions {
            cache: Some(cache.clone()),
            ..Default::default()
        };
        let cold = sweep_multi_with(&xs, 1, cfg(2, 2), opts(), eval);
        let after_cold = cache.stats();
        assert_eq!(after_cold.misses, 2, "one build per distinct x");
        let warm = sweep_multi_with(&xs, 1, cfg(2, 2), opts(), eval);
        let after_warm = cache.stats();
        assert_eq!(after_warm.misses, 2, "warm sweep rebuilt nothing");
        assert_eq!(cold, warm);
    }

    #[test]
    fn panicking_lane_is_isolated_and_counted() {
        let xs = [0usize, 1];
        let series = sweep_multi_cached(&xs, 1, cfg(4, 2), |_ctx, x, seed| {
            if x == 1 && seed % 2 == 0 {
                panic!("injected fault");
            }
            vec![Some(1.0)]
        });
        assert_eq!(series[0][0].failed_runs, 0);
        assert_eq!(series[0][1].failed_runs, 2);
        assert_eq!(series[0][1].feasible_runs, 2);
    }

    #[test]
    fn zero_metrics_returns_empty() {
        assert!(sweep_multi_cached(&[1.0f64], 0, cfg(2, 1), |_, _, _| vec![]).is_empty());
        assert!(sweep_multi_reference(&[1.0f64], 0, cfg(2, 1), |_, _, _| vec![]).is_empty());
    }

    #[test]
    fn lane_width_extremes_do_not_change_results() {
        let xs = [1.0f64, 2.0, 3.0];
        let eval = |_: &BatchCtx<'_>, x: f64, seed: u64| vec![Some(x * seed as f64)];
        let reference = sweep_multi_reference(&xs, 1, cfg(3, 1), eval);
        for lanes in [1, 2, 64] {
            let got = sweep_multi_with(
                &xs,
                1,
                cfg(3, 2),
                SweepOptions {
                    lanes,
                    ..Default::default()
                },
                eval,
            );
            assert_eq!(got, reference, "lanes={lanes}");
        }
    }
}
