//! `sweep_fig3`: batch, two sweep workers. One operation is one
//! `(x, run)` evaluation of the Fig. 3(a) relay-count sweep or the
//! Fig. 3(e) GAC-grid sweep, built from `batch::sweep_multi_with` with
//! a `SweepCache` per sweep and the `run_*_cached` solver wrappers. The
//! first pass runs both sweeps at the workload seed; later passes run
//! Fig. 3(a) again at seeds drawn from it.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use sag_core::candidates::{gac_candidates, iac_candidates, prune_useless};
use sag_core::coverage::CoverageSolution;
use sag_core::ilpqc::{solve_ilpqc, IlpqcConfig};
use sag_core::samc::samc;
use sag_sim::batch::{sweep_multi_with, BatchCtx, CacheStats, JobOrder, SweepCache, SweepOptions};
use sag_sim::experiments::fig3::{fig3a, fig3e};
use sag_sim::experiments::{
    build_cached, gac_grid_for, relays_metric, run_gac_cached, run_iac_cached, run_samc_cached,
    ILPQC_NODE_LIMIT,
};
use sag_sim::fingerprint::FpHasher;
use sag_sim::runner::{collect_stage_metrics, SweepConfig};
use sag_sim::{ScenarioSpec, Table};
use sag_testkit::rng::Rng;

use crate::measure::{median, ms, Layers, Samples};
use crate::report::Phase;
use crate::Opts;

/// Fig. 3(a) user counts (500×500, −15 dB).
pub const FIG3A_USERS: [usize; 8] = [15, 20, 25, 30, 35, 40, 45, 50];
/// Fig. 3(e) GAC grid sizes (500×500, 30 SS, −11.55 dB).
pub const FIG3E_GRIDS: [f64; 8] = [13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0, 20.0];
/// Seeded runs per plotted point.
pub const RUNS: usize = 2;
/// Sweep worker threads.
pub const WORKERS: usize = 2;
/// Cells a worker claims per fetch (the library's default lane width).
pub const LANES: usize = 4;

fn coverage_spec(users: usize, snr_db: f64) -> ScenarioSpec {
    ScenarioSpec {
        field_size: 500.0,
        n_subscribers: users,
        snr_db,
        ..ScenarioSpec::default()
    }
}

pub fn sweep_config(seed: u64) -> SweepConfig {
    SweepConfig {
        runs: RUNS,
        base_seed: seed,
        threads: WORKERS,
    }
}

/// How one cell reaches the solvers: the library's cached wrappers, or
/// the same calls split into layer spans.
#[derive(Clone, Copy)]
enum Solvers<'a> {
    Cached,
    Traced(&'a Layers),
}

fn iac(
    ctx: &BatchCtx<'_>,
    spec: &ScenarioSpec,
    seed: u64,
    via: Solvers<'_>,
) -> Arc<Option<CoverageSolution>> {
    let Solvers::Traced(layers) = via else {
        return run_iac_cached(ctx, spec, seed);
    };
    // Same key and body as `run_iac_cached`, with the candidate step
    // and the branch and bound in separate spans.
    let mut h = FpHasher::new("solve/iac/v1");
    h.write_fingerprint(spec.fingerprint(seed));
    ctx.cached(h.finish(), || {
        let sc = build_cached(ctx, spec, seed);
        let cands = layers.time("core.candidates", || iac_candidates(&sc));
        layers.time("core.ilpqc", || {
            solve_ilpqc(&sc, &cands, ilpqc_config())
                .ok()
                .map(|o| o.solution)
        })
    })
}

fn gac(
    ctx: &BatchCtx<'_>,
    spec: &ScenarioSpec,
    seed: u64,
    grid: f64,
    via: Solvers<'_>,
) -> Arc<Option<CoverageSolution>> {
    let Solvers::Traced(layers) = via else {
        return run_gac_cached(ctx, spec, seed, grid);
    };
    // Same key and body as `run_gac_cached`.
    let mut h = FpHasher::new("solve/gac/v1");
    h.write_fingerprint(spec.fingerprint(seed)).write_f64(grid);
    ctx.cached(h.finish(), || {
        let sc = build_cached(ctx, spec, seed);
        let cands = layers.time("core.candidates", || {
            prune_useless(&sc, gac_candidates(&sc, grid))
        });
        if cands.is_empty() {
            return None;
        }
        layers.time("core.ilpqc", || {
            solve_ilpqc(&sc, &cands, ilpqc_config())
                .ok()
                .map(|o| o.solution)
        })
    })
}

fn samc_solve(
    ctx: &BatchCtx<'_>,
    spec: &ScenarioSpec,
    seed: u64,
    via: Solvers<'_>,
) -> Arc<Option<CoverageSolution>> {
    let Solvers::Traced(layers) = via else {
        return run_samc_cached(ctx, spec, seed);
    };
    // Same key and body as `run_samc_cached`.
    let mut h = FpHasher::new("solve/samc/v1");
    h.write_fingerprint(spec.fingerprint(seed));
    ctx.cached(h.finish(), || {
        let sc = build_cached(ctx, spec, seed);
        layers.time("core.samc", || samc(&sc).ok())
    })
}

fn ilpqc_config() -> IlpqcConfig {
    IlpqcConfig {
        node_limit: ILPQC_NODE_LIMIT,
        ..IlpqcConfig::default()
    }
}

/// One pass: the Fig. 3(a) sweep and, on the first pass of a run, the
/// Fig. 3(e) sweep, each with a fresh cache, as `repro fig3a fig3e`
/// runs them.
struct Pass {
    tables: Vec<Table>,
    cell_ms: Samples,
    wall: Duration,
    cache: CacheStats,
}

fn pass(seed: u64, via: Solvers<'_>, with_fig3e: bool) -> Pass {
    let config = sweep_config(seed);
    let cell_ms = Mutex::new(Samples::default());
    let timed_cell = |eval: &dyn Fn() -> Vec<Option<f64>>| {
        let t = Instant::now();
        let out = eval();
        let took = ms(t.elapsed());
        cell_ms
            .lock()
            .expect("cell timing lock poisoned")
            .push(took);
        out
    };
    let options = |cache: &Arc<SweepCache>| SweepOptions {
        lanes: LANES,
        order: JobOrder::RowMajor,
        cache: Some(cache.clone()),
    };
    let table = |xs: Vec<f64>, series: Vec<Vec<sag_sim::stats::CellStats>>| {
        let mut t = Table::new("", "", xs);
        for (name, cells) in ["IAC", "GAC", "SAMC"].into_iter().zip(series) {
            t.push_series(name, cells);
        }
        t
    };
    let mut caches = vec![SweepCache::new()];
    let started = Instant::now();

    let grid = gac_grid_for(500.0);
    let a = sweep_multi_with(
        &FIG3A_USERS,
        3,
        config,
        options(&caches[0]),
        |ctx, n, seed| {
            timed_cell(&|| {
                let spec = coverage_spec(n, -15.0);
                vec![
                    relays_metric(&iac(ctx, &spec, seed, via)),
                    relays_metric(&gac(ctx, &spec, seed, grid, via)),
                    relays_metric(&samc_solve(ctx, &spec, seed, via)),
                ]
            })
        },
    );
    let mut tables = vec![table(FIG3A_USERS.iter().map(|&u| u as f64).collect(), a)];
    if with_fig3e {
        caches.push(SweepCache::new());
        let e = sweep_multi_with(
            &FIG3E_GRIDS,
            3,
            config,
            options(&caches[1]),
            |ctx, grid, seed| {
                timed_cell(&|| {
                    let spec = coverage_spec(30, -11.55);
                    let seed = seed % 1000;
                    vec![
                        relays_metric(&iac(ctx, &spec, seed, via)),
                        relays_metric(&gac(ctx, &spec, seed, grid, via)),
                        relays_metric(&samc_solve(ctx, &spec, seed, via)),
                    ]
                })
            },
        );
        tables.push(table(FIG3E_GRIDS.to_vec(), e));
    }
    let wall = started.elapsed();

    let mut cache = CacheStats {
        hits: 0,
        misses: 0,
        entries: 0,
    };
    for c in &caches {
        let s = c.stats();
        cache.hits += s.hits;
        cache.misses += s.misses;
        cache.entries += s.entries;
    }
    Pass {
        tables,
        cell_ms: cell_ms.into_inner().expect("cell timing lock poisoned"),
        wall,
        cache,
    }
}

fn same_table(got: &Table, want: &Table) -> bool {
    got.xs == want.xs
        && got.series.len() == want.series.len()
        && got
            .series
            .iter()
            .zip(&want.series)
            .all(|(g, w)| g.name == w.name && g.cells == w.cells)
}

/// Tallies of the passes of one phase.
#[derive(Default)]
struct Tally {
    cells: u64,
    cell_ms: Samples,
    wall: Duration,
    hits: u64,
    lookups: u64,
    relay_sum: f64,
    feasible: usize,
    infeasible: usize,
    solver_runs: usize,
    /// Base seed and tables of every pass.
    tables: Vec<(u64, Vec<Table>)>,
}

impl Tally {
    fn add(&mut self, pass: Pass, base_seed: u64, phase: &mut Phase) {
        let cells = pass.cell_ms.len() as u64;
        phase.attempted += cells;
        self.cells += cells;
        self.cell_ms.extend(&pass.cell_ms);
        self.wall += pass.wall;
        self.hits += pass.cache.hits;
        self.lookups += pass.cache.hits + pass.cache.misses;
        for table in &pass.tables {
            for series in &table.series {
                for cell in &series.cells {
                    if cell.failed_runs > 0 {
                        phase.fail(format!(
                            "sweep: {} {} runs crashed",
                            series.name, cell.failed_runs
                        ));
                    }
                    self.relay_sum += cell.mean.unwrap_or(0.0) * cell.feasible_runs as f64;
                    self.feasible += cell.feasible_runs;
                    self.infeasible += cell.infeasible_runs;
                    self.solver_runs += cell.total_runs;
                }
            }
        }
        self.tables.push((base_seed, pass.tables));
    }

    fn finish(&self, phase: &mut Phase) {
        phase.set("ops_per_s", self.cells as f64 / self.wall.as_secs_f64());
        phase.set("relays_mean", self.relay_sum / self.feasible.max(1) as f64);
        phase.set(
            "infeasible_frac",
            self.infeasible as f64 / self.solver_runs.max(1) as f64,
        );
        phase.set(
            "sim.cache_hit_frac",
            self.hits as f64 / self.lookups.max(1) as f64,
        );
        phase.set(
            "sim.busy_frac",
            self.cell_ms.sum() / (ms(self.wall) * WORKERS as f64),
        );
    }
}

/// Base seed of the `k`-th pass: the workload seed first, then seeds
/// drawn from it, so a run averages the branch-and-bound cost over more
/// scenarios than one pass holds.
fn pass_seed(seed: u64, k: usize) -> u64 {
    if k == 0 {
        return seed;
    }
    let mut rng = Rng::seed_from_u64(seed);
    (0..k)
        .map(|_| rng.gen_range(0..1_000_000_000u64))
        .last()
        .unwrap_or(seed)
}

/// Input generation — the first pass's scenarios, built and validated —
/// plus a warm-up: a SAMC solve of each Fig. 3(a) scenario.
fn setup(seed: u64, phase: &mut Phase) -> Duration {
    let started = Instant::now();
    let config = sweep_config(seed);
    for (i, &n) in FIG3A_USERS.iter().enumerate() {
        for r in 0..RUNS {
            let sc = coverage_spec(n, -15.0).build(config.seed(i, r));
            if let Err(e) = sc.validate() {
                phase.fail(format!("sweep set-up: generated scenario is invalid: {e}"));
            }
            std::hint::black_box(samc(&sc).ok());
        }
    }
    for r in 0..RUNS {
        let sc = coverage_spec(30, -11.55).build(config.seed(0, r) % 1000);
        if let Err(e) = sc.validate() {
            phase.fail(format!("sweep set-up: generated scenario is invalid: {e}"));
        }
    }
    started.elapsed()
}

pub fn run(opts: &Opts) -> Phase {
    let mut phase = Phase::default();
    let setups: Vec<f64> = (0..opts.setup_repeats.max(1))
        .map(|_| setup(opts.seed, &mut phase).as_secs_f64())
        .collect();
    phase.set("setup_s", median(&setups));
    phase.note(format!(
        "batch; sweep workers={WORKERS}, lanes={LANES}, runs/point={RUNS}; first pass base seed={}, later passes draw theirs from it; \
         SAMC inside cells on 1 thread, ILPQC node limit={ILPQC_NODE_LIMIT}",
        opts.seed
    ));

    let layers = Layers::default();
    let mut tally = Tally::default();
    let started = Instant::now();
    let mut stage_metrics = Vec::new();
    while tally.cells == 0 || started.elapsed() < opts.seconds {
        let k = tally.tables.len();
        let base_seed = pass_seed(opts.seed, k);
        // Fig. 3(e) runs on the first pass only: its cost rests on two
        // scenarios, one per run index, whose branch and bound varies
        // several-fold, so repeating it would make the run's figures
        // follow those few draws. Later passes add Fig. 3(a) draws.
        let with_fig3e = k == 0;
        let p = if opts.traced {
            let (p, m) =
                collect_stage_metrics(|| pass(base_seed, Solvers::Traced(&layers), with_fig3e));
            stage_metrics.push(m);
            p
        } else {
            pass(base_seed, Solvers::Cached, with_fig3e)
        };
        tally.add(p, base_seed, &mut phase);
    }
    tally.finish(&mut phase);

    // Output check, outside the timed passes: every pass reproduces the
    // library's own Fig. 3(a) and 3(e) tables for the same config.
    for (base_seed, tables) in &tally.tables {
        let config = sweep_config(*base_seed);
        let mut reference = vec![fig3a(config)];
        if tables.len() > 1 {
            reference.push(fig3e(config));
        }
        for (got, want) in tables.iter().zip(&reference) {
            if !same_table(got, want) {
                phase.fail(format!(
                    "sweep: base seed {base_seed}: differs from {}",
                    want.title
                ));
            }
        }
    }

    let lat = &tally.cell_ms;
    phase.note(format!(
        "{} passes, {} (x, run) cells; cache {} hits / {} lookups",
        tally.tables.len(),
        tally.cells,
        tally.hits,
        tally.lookups
    ));
    if opts.traced {
        let cells = tally.cells.max(1) as f64;
        let counter =
            |name: &str| stage_metrics.iter().map(|m| m.counter(name)).sum::<u64>() as f64 / cells;
        phase.set(
            "core.candidates_ms",
            layers.total_ms("core.candidates") / cells,
        );
        phase.set("core.ilpqc_ms", layers.total_ms("core.ilpqc") / cells);
        phase.set("core.samc_ms", layers.total_ms("core.samc") / cells);
        phase.set("core.ilpqc_nodes", counter("ilpqc.nodes"));
        phase.set("core.ilpqc_lp_prunes", counter("ilpqc.lp_prunes"));
        phase.set("lp.solves", counter("lp.sparse_solves"));
        phase.set("lp.pivots", counter("lp.sparse_pivots"));
        phase.set("lp.refactors", counter("lp.sparse_refactors"));
        phase.set("radio.delta_ops", counter("ledger.delta_ops"));
        phase.set(
            "trace.uncovered_frac",
            // Of the time workers spent inside cells; idle workers show
            // in `sim.busy_frac` instead.
            1.0 - layers.covered_ms() / tally.cell_ms.sum(),
        );
    } else {
        phase.set("latency_p50_ms", lat.percentile(50.0));
        phase.set("latency_p90_ms", lat.percentile(90.0));
        phase.set("latency_p99_ms", lat.percentile(99.0));
        phase.note(format!("cell latency samples={}", lat.len()));
    }
    phase
}
