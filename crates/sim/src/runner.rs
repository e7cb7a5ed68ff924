//! Parameter sweeps: every `(x, run)` cell evaluated in parallel across
//! seeds, aggregated into [`CellStats`].
//!
//! The paper averages 10 runs per plotted point; [`SweepConfig::runs`]
//! defaults to that. A run that returns `None` (infeasible — IAC/GAC do
//! this at tight SNR thresholds, Fig. 3(d)) is excluded from the mean and
//! surfaced in the cell's `feasible_runs`. A run that *panics* is
//! isolated with `catch_unwind` and surfaced in `failed_runs` — one
//! poisoned scenario never takes down a whole sweep.
//!
//! Execution is delegated to the batched engine in [`crate::batch`];
//! [`sweep_multi`] is the cache-oblivious entry point,
//! [`crate::batch::sweep_multi_cached`] the cache-aware one.

use std::error::Error;
use std::fmt;

use crate::stats::CellStats;

/// Rejected sweep parameters (see [`SweepConfig::validated`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SweepError {
    /// `runs == 0`: every cell would be empty.
    ZeroRuns,
    /// `threads == 0`: no worker could make progress.
    ZeroThreads,
}

impl fmt::Display for SweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SweepError::ZeroRuns => write!(f, "sweep config needs at least one run"),
            SweepError::ZeroThreads => write!(f, "sweep config needs at least one thread"),
        }
    }
}

impl Error for SweepError {}

/// Sweep parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepConfig {
    /// Runs (seeds) per x position; the paper uses 10.
    pub runs: usize,
    /// Base seed; run `r` at x-index `i` uses `base_seed + i·stride + r`
    /// with `stride = max(runs, 1000)` (see [`SweepConfig::seed`]).
    pub base_seed: u64,
    /// Maximum worker threads (see [`SweepConfig::default`]).
    pub threads: usize,
}

impl Default for SweepConfig {
    /// Ten runs from seed 1 on `min(hardware threads, 8)` workers —
    /// the historical literal 8 survives only as a cap, so
    /// single-thread hosts do not oversubscribe.
    fn default() -> Self {
        SweepConfig {
            runs: 10,
            base_seed: 1,
            threads: default_threads(),
        }
    }
}

/// `min(hardware threads, 8)`: the default sweep worker count.
fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(8)
}

impl SweepConfig {
    /// A reduced configuration for quick smoke runs and benches.
    pub fn fast() -> Self {
        SweepConfig {
            runs: 3,
            ..Default::default()
        }
    }

    /// Result-returning construction: the non-panicking way to build a
    /// config from untrusted values.
    ///
    /// # Errors
    /// [`SweepError::ZeroRuns`] / [`SweepError::ZeroThreads`].
    pub fn new(runs: usize, base_seed: u64, threads: usize) -> Result<Self, SweepError> {
        SweepConfig {
            runs,
            base_seed,
            threads,
        }
        .validated()
    }

    /// Checks an already-built config (struct literals bypass
    /// [`SweepConfig::new`]).
    ///
    /// # Errors
    /// See [`SweepConfig::new`].
    pub fn validated(self) -> Result<Self, SweepError> {
        if self.runs == 0 {
            return Err(SweepError::ZeroRuns);
        }
        if self.threads == 0 {
            return Err(SweepError::ZeroThreads);
        }
        Ok(self)
    }

    /// The seed for x-index `i`, run `r`.
    ///
    /// The stride between x positions is `max(runs, 1000)`: identical to
    /// the historical fixed 1000 for every config with ≤ 1000 runs (so
    /// seeded golden outputs are stable), while configs beyond 1000 runs
    /// widen the stride instead of silently reusing seeds across x
    /// positions.
    pub fn seed(&self, i: usize, r: usize) -> u64 {
        let stride = (self.runs as u64).max(1000);
        self.base_seed + (i as u64) * stride + r as u64
    }
}

/// Runs `eval(x, seed)` for every x and seed, producing `n_metrics`
/// series of aggregated cells.
///
/// `eval` returns one `Option<f64>` per metric (all-or-nothing
/// feasibility is *not* assumed: a metric can be `None` while another is
/// measured, which Fig. 3 uses when only one solver fails).
///
/// Robustness: `n_metrics == 0` returns an empty vector; a config with
/// zero runs yields all-empty cells; a run whose `eval` panics or
/// returns the wrong metric arity is recorded as a *failed* run (all
/// metrics `None`, counted in [`CellStats::failed_runs`]) instead of
/// aborting the sweep.
pub fn sweep_multi<X, F>(
    xs: &[X],
    n_metrics: usize,
    config: SweepConfig,
    eval: F,
) -> Vec<Vec<CellStats>>
where
    X: Copy + Sync,
    F: Fn(X, u64) -> Vec<Option<f64>> + Sync,
{
    crate::batch::sweep_multi_cached(xs, n_metrics, config, |_ctx, x, seed| eval(x, seed))
}

/// Convenience wrapper for single-metric sweeps.
pub fn sweep<X, F>(xs: &[X], config: SweepConfig, eval: F) -> Vec<CellStats>
where
    X: Copy + Sync,
    F: Fn(X, u64) -> Option<f64> + Sync,
{
    sweep_multi(xs, 1, config, |x, seed| vec![eval(x, seed)])
        .pop()
        .expect("one metric requested")
}

/// Wall-clock seconds of a closure (used for the running-time figures).
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = std::time::Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Runs `f` with a process-wide [`sag_obs::Collector`] installed and
/// returns its result together with the aggregated per-stage
/// time/work summary. The collector is global, so pipeline stages
/// executed on [`sweep_multi`] worker threads are captured too; the
/// recorder is uninstalled before returning.
pub fn collect_stage_metrics<T>(f: impl FnOnce() -> T) -> (T, sag_obs::StageMetrics) {
    let collector = std::sync::Arc::new(sag_obs::Collector::default());
    let guard = sag_obs::install(collector.clone());
    let out = f();
    drop(guard);
    (out, collector.summary())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[test]
    fn default_threads_is_positive_and_env_capped() {
        // Capped by the host: the historical 8 is only a *cap*, never
        // an oversubscribing floor.
        let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(SweepConfig::default().threads, hw.min(8));
    }

    #[test]
    fn sweep_aggregates_all_cells() {
        let cfg = SweepConfig {
            runs: 4,
            base_seed: 0,
            threads: 3,
        };
        let cells = sweep(&[1.0f64, 2.0, 3.0], cfg, |x, _seed| Some(x * 2.0));
        assert_eq!(cells.len(), 3);
        assert_eq!(cells[1].mean, Some(4.0));
        assert_eq!(cells[1].feasible_runs, 4);
    }

    #[test]
    fn seeds_are_distinct_per_cell() {
        let cfg = SweepConfig {
            runs: 2,
            base_seed: 10,
            threads: 2,
        };
        let seen = Mutex::new(std::collections::HashSet::new());
        sweep(&[0usize, 1, 2], cfg, |_x, seed| {
            seen.lock().unwrap().insert(seed);
            Some(0.0)
        });
        assert_eq!(seen.lock().unwrap().len(), 6);
    }

    #[test]
    fn infeasible_runs_excluded() {
        let cfg = SweepConfig {
            runs: 4,
            base_seed: 0,
            threads: 2,
        };
        let cells = sweep(&[0usize], cfg, |_x, seed| (seed % 2 == 0).then_some(10.0));
        assert_eq!(cells[0].feasible_runs, 2);
        assert_eq!(cells[0].mean, Some(10.0));
    }

    #[test]
    fn multi_metric_transpose() {
        let cfg = SweepConfig {
            runs: 2,
            base_seed: 0,
            threads: 1,
        };
        let series = sweep_multi(&[1.0f64, 2.0], 2, cfg, |x, _| vec![Some(x), Some(-x)]);
        assert_eq!(series.len(), 2);
        assert_eq!(series[0][1].mean, Some(2.0));
        assert_eq!(series[1][0].mean, Some(-1.0));
    }

    #[test]
    fn timed_reports_duration() {
        let ((), secs) = timed(|| std::thread::sleep(std::time::Duration::from_millis(10)));
        assert!(secs >= 0.009);
    }

    #[test]
    fn zero_metrics_returns_empty() {
        let series = sweep_multi(&[1.0f64], 0, SweepConfig::default(), |_, _| vec![]);
        assert!(series.is_empty());
    }

    #[test]
    fn validated_rejects_degenerate_configs() {
        assert_eq!(SweepConfig::new(0, 1, 4), Err(SweepError::ZeroRuns));
        assert_eq!(SweepConfig::new(3, 1, 0), Err(SweepError::ZeroThreads));
        assert!(SweepConfig::new(3, 1, 4).is_ok());
        assert!(SweepConfig::default().validated().is_ok());
    }

    #[test]
    fn seed_stride_matches_legacy_below_1000_runs() {
        let cfg = SweepConfig {
            runs: 10,
            base_seed: 7,
            threads: 1,
        };
        assert_eq!(cfg.seed(3, 4), 7 + 3 * 1000 + 4);
    }

    #[test]
    fn seed_stride_widens_beyond_1000_runs() {
        let cfg = SweepConfig {
            runs: 2500,
            base_seed: 0,
            threads: 1,
        };
        // Last run of x=0 and first run of x=1 must not collide.
        assert!(cfg.seed(0, 2499) < cfg.seed(1, 0));
    }

    #[test]
    fn panicking_cell_is_isolated_and_counted() {
        let cfg = SweepConfig {
            runs: 4,
            base_seed: 0,
            threads: 2,
        };
        let cells = sweep(&[0usize, 1], cfg, |x, seed| {
            if x == 1 && seed % 2 == 0 {
                panic!("injected fault");
            }
            Some(1.0)
        });
        assert_eq!(cells[0].failed_runs, 0);
        assert_eq!(cells[0].feasible_runs, 4);
        assert_eq!(cells[1].failed_runs, 2);
        assert_eq!(cells[1].feasible_runs, 2);
        assert_eq!(cells[1].mean, Some(1.0));
    }

    #[test]
    fn wrong_arity_counts_as_failed_run() {
        let cfg = SweepConfig {
            runs: 2,
            base_seed: 0,
            threads: 1,
        };
        let series = sweep_multi(&[0usize], 2, cfg, |_, seed| {
            if seed % 2 == 0 {
                vec![Some(1.0)] // wrong arity
            } else {
                vec![Some(1.0), Some(2.0)]
            }
        });
        assert_eq!(series[0][0].failed_runs, 1);
        assert_eq!(series[0][0].feasible_runs, 1);
    }

    #[test]
    fn zero_runs_config_yields_empty_cells() {
        let cfg = SweepConfig {
            runs: 0,
            base_seed: 0,
            threads: 1,
        };
        let cells = sweep(&[0usize], cfg, |_, _| Some(1.0));
        assert_eq!(cells[0].total_runs, 0);
        assert_eq!(cells[0].mean, None);
    }
}
