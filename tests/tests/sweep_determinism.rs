//! Determinism gate for the batched sweep engine.
//!
//! Extends the `par_determinism` contract from the zone engine to
//! whole parameter sweeps: the batched, fingerprint-cached path must
//! produce byte-identical `CellStats` to the pre-existing per-cell
//! reference path at any thread count, with a cold or warm cache, and
//! under adversarial work-queue interleavings (seeded shuffle). The
//! cache may only change *when* an artifact is built, never its value.
//!
//! Comparison is through the series' `Debug` rendering: Rust formats
//! floats as the shortest round-tripping string, so equal renderings
//! imply bit-equal values.

use sag_testkit::prelude::*;

use sag_sim::batch::{
    sweep_multi_cached, sweep_multi_with, BatchCtx, JobOrder, SweepCache, SweepOptions,
};
use sag_sim::experiments::{relays_metric, run_gac_cached, run_samc_cached};
use sag_sim::gen::ScenarioSpec;
use sag_sim::reference::sweep_multi_reference;
use sag_sim::runner::{sweep_multi, SweepConfig};
use sag_sim::stats::CellStats;

/// The swept x axis: GAC grid sizes over a fixed scenario family, the
/// Fig. 3(e) shape where the invariant cache actually shares work.
const GRIDS: [f64; 3] = [20.0, 30.0, 40.0];

fn fp(series: &[Vec<CellStats>]) -> String {
    format!("{series:?}")
}

fn spec(users: usize) -> ScenarioSpec {
    ScenarioSpec {
        field_size: 300.0,
        n_subscribers: users,
        ..Default::default()
    }
}

/// A real build-and-solve eval: scenarios pinned across x (`seed %
/// 1000`), SAMC shared through the cache, GAC re-solved per grid.
fn eval_for(users: usize) -> impl Fn(&BatchCtx<'_>, f64, u64) -> Vec<Option<f64>> + Sync {
    move |ctx, grid, seed| {
        let sp = spec(users);
        let seed = seed % 1000;
        vec![
            relays_metric(&run_samc_cached(ctx, &sp, seed)),
            relays_metric(&run_gac_cached(ctx, &sp, seed, grid)),
        ]
    }
}

prop! {
    /// The headline gate: batched results equal the per-cell reference
    /// at threads 1 and 8, row-major and shuffled, lanes narrow and
    /// wide — byte for byte, on real scenario-build-and-solve evals.
    #[cases(6)]
    fn batched_sweep_matches_reference_under_any_schedule(
        input in (5usize..9, 0u64..500, 0u64..100_000)
    ) {
        let (users, base_seed, shuffle_seed) = input;
        let eval = eval_for(users);
        let config = SweepConfig { runs: 2, base_seed, threads: 1 };
        let want = fp(&sweep_multi_reference(&GRIDS, 2, config, &eval));
        for threads in [1usize, 8] {
            for (label, opts) in [
                ("row-major", SweepOptions::default()),
                (
                    "shuffled",
                    SweepOptions {
                        order: JobOrder::Shuffled(shuffle_seed),
                        ..Default::default()
                    },
                ),
                (
                    "lanes=4",
                    SweepOptions {
                        lanes: 4,
                        ..Default::default()
                    },
                ),
            ] {
                let cfg = SweepConfig { threads, ..config };
                let got = fp(&sweep_multi_with(&GRIDS, 2, cfg, opts, &eval));
                prop_assert_eq!(
                    &got,
                    &want,
                    "batched sweep diverged from reference (threads={}, {})",
                    threads,
                    label
                );
            }
        }
    }

    /// Cache-hit vs cache-cold: a warm cache reused across sweeps must
    /// rebuild nothing and still reproduce the cold results byte for
    /// byte — hits are observationally invisible except in speed.
    #[cases(4)]
    fn warm_cache_is_byte_identical_to_cold(input in (5usize..9, 0u64..500)) {
        let (users, base_seed) = input;
        let eval = eval_for(users);
        let config = SweepConfig { runs: 2, base_seed, threads: 4 };
        let cache = SweepCache::new();
        let opts = || SweepOptions {
            cache: Some(cache.clone()),
            ..Default::default()
        };
        let cold = fp(&sweep_multi_with(&GRIDS, 2, config, opts(), &eval));
        let after_cold = cache.stats();
        let warm = fp(&sweep_multi_with(&GRIDS, 2, config, opts(), &eval));
        let after_warm = cache.stats();
        prop_assert_eq!(&cold, &warm, "warm cache changed sweep results");
        prop_assert_eq!(
            after_warm.misses, after_cold.misses,
            "a warm sweep rebuilt an artifact it should have reused"
        );
        prop_assert!(
            after_warm.hits > after_cold.hits,
            "the warm sweep never touched the cache"
        );
    }
}

/// The cached wrappers must be a pure routing layer: a sweep through
/// them equals the same sweep written as plain build-and-solve
/// closures on the uncached entry point.
#[test]
fn cached_wrappers_equal_plain_closures() {
    use sag_sim::experiments::{run_gac, run_samc};
    let users = 6;
    let config = SweepConfig {
        runs: 2,
        base_seed: 9,
        threads: 4,
    };
    let cached = sweep_multi_cached(&GRIDS, 2, config, eval_for(users));
    let plain = sweep_multi(&GRIDS, 2, config, |grid, seed| {
        let sc = spec(users).build(seed % 1000);
        vec![
            run_samc(&sc).map(|s| s.n_relays() as f64),
            run_gac(&sc, grid).map(|s| s.n_relays() as f64),
        ]
    });
    assert_eq!(
        fp(&cached),
        fp(&plain),
        "cached wrappers changed sweep values"
    );
}

/// Regression for the failed-vs-infeasible conflation: a crashed run
/// must surface in `failed_runs` only, never in the infeasibility
/// accounting, and `failed_runs` must be distinguishable from
/// `total_runs - feasible_runs`.
#[test]
fn failed_runs_stay_out_of_the_infeasible_denominator() {
    let config = SweepConfig {
        runs: 4,
        base_seed: 0,
        threads: 2,
    };
    // Run r=0 panics, r=1 reports infeasible, r=2 and r=3 answer.
    let series = sweep_multi_cached(&[0usize], 1, config, |_ctx, _x, seed| match seed % 4 {
        0 => panic!("injected crash"),
        1 => vec![None],
        _ => vec![Some(1.0)],
    });
    let cell = &series[0][0];
    assert_eq!(cell.total_runs, 4);
    assert_eq!(cell.feasible_runs, 2);
    assert_eq!(cell.failed_runs, 1);
    assert_eq!(cell.infeasible_runs, 1);
    // The old conflation: total - feasible (= 2) is NOT the failure
    // count (= 1); the two must be reported apart.
    assert_ne!(cell.failed_runs, cell.total_runs - cell.feasible_runs);
    // Rate over completed runs only: 1 infeasible of 3 completed.
    let rate = cell.infeasibility_rate().expect("runs completed");
    assert!((rate - 1.0 / 3.0).abs() < 1e-12, "rate {rate}");
}

/// A crashed lane must not poison cached artifacts for other lanes:
/// cells sharing the poisoned cell's scenario still aggregate.
#[test]
fn panicking_lane_does_not_poison_shared_cache_entries() {
    let config = SweepConfig {
        runs: 2,
        base_seed: 3,
        threads: 4,
    };
    let eval = eval_for(6);
    let series = sweep_multi_cached(&GRIDS, 2, config, |ctx, grid, seed| {
        // The middle grid's first run dies *after* touching the shared
        // scenario artifacts.
        let out = eval(ctx, grid, seed);
        if grid == GRIDS[1] && seed % 1000 == 3 {
            panic!("injected post-cache crash");
        }
        out
    });
    for cells in &series {
        assert_eq!(cells[1].failed_runs, 1, "crash not surfaced");
        for i in [0usize, 2] {
            assert_eq!(cells[i].failed_runs, 0, "crash leaked into cell {i}");
            assert_eq!(
                cells[i].feasible_runs + cells[i].infeasible_runs,
                cells[i].total_runs,
                "shared-cache cell {i} lost runs"
            );
        }
    }
}

/// Everything a `Collector` aggregated that must not depend on the
/// thread count, in the `par_determinism` style: span names and counts
/// (durations legitimately differ), counters, gauge bits, and
/// histograms including raw sample order.
fn metrics_fingerprint(m: &sag_obs::StageMetrics) -> String {
    let mut out = String::new();
    for s in &m.spans {
        out.push_str(&format!("span:{}:{};", s.name, s.count));
    }
    for (name, stage, v) in &m.counters {
        out.push_str(&format!("ctr:{name}:{stage:?}:{v};"));
    }
    for (name, stage, v) in &m.gauges {
        out.push_str(&format!("gauge:{name}:{stage:?}:{:016x};", v.to_bits()));
    }
    for (name, stage, h) in &m.histograms {
        out.push_str(&format!(
            "hist:{name}:{stage:?}:{}:{}:{}:{:?}:{:?};",
            h.count, h.sum, h.max, h.buckets, h.samples
        ));
    }
    out
}

/// Regression for the threads=1 double count: the sequential sweep
/// used to record each cell into a private collector while the
/// caller's collector was still installed, then fold that copy in
/// again, so a caller-side `Collector` saw every buffered event twice
/// at threads=1 (12 `run_sag` spans for 6 cells) and once at threads=4.
/// Collected metrics must be identical at any thread count, for either
/// claim order.
#[test]
fn caller_collector_sees_each_cell_once_at_any_thread_count() {
    use sag_core::sag::{run_sag_with, SagPipelineConfig};
    use std::sync::Arc;

    let users = [5usize, 6, 7];
    let eval = |_: &BatchCtx<'_>, users: usize, seed: u64| {
        let config = SagPipelineConfig {
            collect_metrics: false,
            ..Default::default()
        };
        let relays = run_sag_with(&spec(users).build(seed % 1000), config)
            .ok()
            .map(|report| report.coverage.relays.len() as f64);
        vec![relays]
    };
    for order in [JobOrder::RowMajor, JobOrder::Shuffled(17)] {
        let collect = |threads: usize| {
            let collector = Arc::new(sag_obs::Collector::default());
            let config = SweepConfig {
                runs: 2,
                base_seed: 4,
                threads,
            };
            let opts = SweepOptions {
                order,
                ..Default::default()
            };
            sag_obs::with_local(collector.clone(), || {
                sweep_multi_with(&users, 1, config, opts, eval);
            });
            collector.summary()
        };
        let (seq, par) = (collect(1), collect(4));
        for (threads, m) in [(1, &seq), (4, &par)] {
            let runs = m.span("run_sag").map_or(0, |s| s.count);
            assert_eq!(
                runs, 6,
                "{order:?} threads={threads}: one run_sag span per cell"
            );
        }
        assert_eq!(
            metrics_fingerprint(&seq),
            metrics_fingerprint(&par),
            "{order:?}: collected metrics diverged between threads 1 and 4"
        );
    }
}
