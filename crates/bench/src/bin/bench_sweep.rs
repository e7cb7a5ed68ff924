//! Batched sweep engine benchmark (`BENCH_sweep.json`).
//!
//! Times a Fig. 3(e)-shaped parameter study — scenarios held fixed
//! while the GAC grid size marches across sixteen x positions — through
//! the batched, fingerprint-cached sweep engine versus the pre-existing
//! per-cell path (`sweep_multi_reference`), and gates the
//! sweep-cells-per-second improvement at [`MIN_SPEEDUP`].
//!
//! This is the workload the invariant cache exists for: the IAC and
//! SAMC reference lines, and the scenario geometry itself, are
//! invariant across the whole sweep row, so the per-cell path re-solves
//! them at every plotted point while the cached path builds each once
//! per seed and shares it across all lanes. The speedup is therefore
//! *cache-driven*, not parallelism-driven — it is enforceable on a
//! single hardware thread, and both arms run at the same thread count
//! so scheduling never biases the ratio.
//!
//! Before any timing, the batched path must reproduce the per-cell
//! path's `CellStats` byte-for-byte at threads=1 and threads=N, with a
//! cold and a warm cache, and under a seeded shuffle of the work queue
//! — a cache that bought throughput by changing results would be
//! worthless.
//!
//! The gate self-skips (recorded with its reason in the JSON) only when
//! the reference sweep is too fast for the timer to resolve.
//!
//! Usage: `bench_sweep [--out PATH]`

use sag_bench::harness::{interleaved, time_ns};
use sag_bench::{Artefact, Bound};
use sag_sim::batch::{sweep_multi_with, JobOrder, SweepCache, SweepOptions};
use sag_sim::experiments::{relays_metric, run_gac_cached, run_iac_cached, run_samc_cached};
use sag_sim::gen::ScenarioSpec;
use sag_sim::reference::sweep_multi_reference;
use sag_sim::runner::SweepConfig;
use sag_sim::stats::CellStats;

/// Swept GAC grid sizes (the x axis): coarse enough that each GAC
/// solve stays cheap next to the shared IAC solve, which is what makes
/// the per-cell path's redundant IAC/SAMC recomputes the bottleneck —
/// exactly the Fig. 3(e) cost shape at paper scale.
const GRIDS: [f64; 16] = [
    40.0, 42.0, 44.0, 46.0, 48.0, 50.0, 52.0, 54.0, 56.0, 58.0, 60.0, 62.0, 64.0, 66.0, 68.0, 70.0,
];
/// Sweeps per timing sample.
const INNER_ITERS: u32 = 2;
/// Interleaved reference/batched measurement rounds. The median of 11
/// put the ≥4× floor inside its own run-to-run spread once faster ILPQC
/// solves narrowed the margin (4.00–4.48 over 10 runs on a 2-vCPU
/// host); 33 rounds sample the same probe three times as often.
const ROUNDS: usize = 33;
/// Below this per-sweep reference time the ratio measures the timer,
/// not the engine.
const TIMING_FLOOR_NS: u128 = 2_000_000;
/// Gate: the batched sweep is at least this many times faster.
const MIN_SPEEDUP: f64 = 4.0;

/// The probe scenario family: the paper's 500-field at −15 dB with a
/// user cluster large enough that IAC candidate generation and its
/// ILPQC solve dominate a cell.
fn probe_spec() -> ScenarioSpec {
    ScenarioSpec {
        field_size: 500.0,
        n_subscribers: 40,
        n_base_stations: 4,
        snr_db: -15.0,
        ..Default::default()
    }
}

/// The shared eval, identical for both arms: `seed % 1000` pins the
/// scenarios across x positions (the Fig. 3(d)/(e) idiom), so only the
/// grid size varies along the row.
fn eval(ctx: &sag_sim::batch::BatchCtx<'_>, grid: f64, seed: u64) -> Vec<Option<f64>> {
    let spec = probe_spec();
    let seed = seed % 1000;
    vec![
        relays_metric(&run_iac_cached(ctx, &spec, seed)),
        relays_metric(&run_gac_cached(ctx, &spec, seed, grid)),
        relays_metric(&run_samc_cached(ctx, &spec, seed)),
    ]
}

fn batched(config: SweepConfig, opts: SweepOptions) -> Vec<Vec<CellStats>> {
    sweep_multi_with(&GRIDS, 3, config, opts, eval)
}

/// A cold, explicitly-enabled cache per invocation: the bench measures
/// the engine including its one-time builds.
fn cold_opts() -> SweepOptions {
    SweepOptions {
        cache: Some(SweepCache::new()),
        ..Default::default()
    }
}

fn fingerprint(series: &[Vec<CellStats>]) -> String {
    format!("{series:?}")
}

fn main() {
    let mut out = Artefact::from_args("sweep_batch", "BENCH_sweep.json");
    let config = sag_bench::bench_sweep();
    let threads = config.threads;
    let cells = GRIDS.len() * config.runs;

    // Determinism gates before any timing: batched/cached vs the
    // per-cell reference path, across thread counts, cache states and
    // work-queue interleavings.
    let reference = sweep_multi_reference(&GRIDS, 3, config, eval);
    let one_thread = SweepConfig {
        threads: 1,
        ..config
    };
    let want = fingerprint(&reference);
    let check = |label: &str, got: Vec<Vec<CellStats>>| {
        assert_eq!(
            fingerprint(&got),
            want,
            "batched sweep diverged from the per-cell reference path ({label})"
        );
    };
    check("threads=1 cold", batched(one_thread, cold_opts()));
    check("threads=N cold", batched(config, cold_opts()));
    check(
        "threads=N shuffled",
        batched(
            config,
            SweepOptions {
                order: JobOrder::Shuffled(0xC0FFEE),
                ..cold_opts()
            },
        ),
    );
    let warm = SweepCache::new();
    let warm_opts = || SweepOptions {
        cache: Some(warm.clone()),
        ..Default::default()
    };
    check("threads=N warm(1st)", batched(config, warm_opts()));
    // Stats of a single cold sweep: everything the second pass reuses.
    let cold_stats = warm.stats();
    check("threads=N warm(2nd)", batched(config, warm_opts()));
    println!(
        "parity: batched == per-cell reference over {cells} cells \
         (threads 1/{threads}, cold/warm cache, shuffled queue)"
    );

    let t = interleaved(
        ROUNDS,
        &mut [
            &mut || {
                time_ns(INNER_ITERS, || {
                    sweep_multi_reference(&GRIDS, 3, config, eval)
                })
            },
            &mut || time_ns(INNER_ITERS, || batched(config, cold_opts())),
        ],
    );

    let speedup = t.ratio_median(&[0], &[1]);
    let (ref_ns, batched_ns) = (t.min_ns(0), t.min_ns(1));
    let cells_per_sec = |ns: u128| cells as f64 / (ns.max(1) as f64 / 1e9);
    // The speedup is cache-driven (shared IAC/SAMC/geometry work), so
    // it is enforceable at any hardware thread count; only a sweep too
    // fast for the timer to resolve invalidates the ratio.
    let skip = (ref_ns < TIMING_FLOOR_NS)
        .then(|| format!("reference sweep {ref_ns}ns below the {TIMING_FLOOR_NS}ns timing floor"));
    out.field("xs", GRIDS.len())
        .field("cells", cells)
        .field("threads", threads)
        .field("reference_min_ns", ref_ns)
        .field("batched_min_ns", batched_ns)
        .field("reference_cells_per_sec", cells_per_sec(ref_ns))
        .field("batched_cells_per_sec", cells_per_sec(batched_ns))
        .field("speedup_median", speedup)
        .field("cache_hits", cold_stats.hits)
        .field("cache_misses", cold_stats.misses)
        .gate("speedup_median", speedup, Bound::Floor(MIN_SPEEDUP), skip);
    out.finish();
}
