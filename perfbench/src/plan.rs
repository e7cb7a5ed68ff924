//! `plan_paper`: closed loop, one client, one thread. Each operation
//! is one `run_sag` call with the default configuration on a seeded
//! uniform scenario at a Fig. 4 or Fig. 5 user count.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use sag_core::coverage::{is_feasible, CoverageSolution};
use sag_core::escape::coverage_link_escape;
use sag_core::mbmc::mbmc;
use sag_core::pro::pro_with_budget;
use sag_core::sag::{LowerSolver, SagPipelineConfig, SagReport};
use sag_core::samc::{samc_with_budget_threads, HittingStrategy, SamcConfig};
use sag_core::solver::SolverBuilder;
use sag_core::ucpo::ucpo;
use sag_core::validate::validate_report;
use sag_core::zone::{zone_partition, zone_scenario};
use sag_core::{run_sag_with, Budget, SagError, Scenario};
use sag_hitting::{local_search::local_search_hitting_set, DiskInstance};
use sag_sim::ScenarioSpec;
use sag_testkit::rng::Rng;

use crate::measure::{median, ms, Layers, Samples};
use crate::report::Phase;
use crate::Opts;

/// Fig. 4 user counts on the 500×500 field.
pub const FIG4_USERS: [usize; 10] = [5, 10, 15, 20, 25, 30, 35, 40, 45, 50];
/// Fig. 5 user counts on the 800×800 field.
pub const FIG5_USERS: [usize; 6] = [20, 30, 40, 50, 60, 70];
/// Zone workers inside each `run_sag` call.
pub const PIPELINE_THREADS: usize = 1;
/// Distinct scenarios generated per (field, users) size.
const ROUNDS: usize = 128;

/// Every (field side, user count) the paper plots for Fig. 4 and 5.
pub fn sizes() -> Vec<(f64, usize)> {
    let fig4 = FIG4_USERS.iter().map(|&n| (500.0, n));
    let fig5 = FIG5_USERS.iter().map(|&n| (800.0, n));
    fig4.chain(fig5).collect()
}

/// The paper's scenario settings at one size: uniform subscribers and
/// 4 base stations, −15 dB, distance requirements in [30, 40],
/// N_max = 1e-9.
pub fn spec(field: f64, users: usize) -> ScenarioSpec {
    ScenarioSpec {
        field_size: field,
        n_subscribers: users,
        n_base_stations: 4,
        snr_db: -15.0,
        dist_range: (30.0, 40.0),
        pmax: 1.0,
        nmax: 1e-9,
        ..ScenarioSpec::default()
    }
}

/// `rounds` rounds of scenarios; each round holds one scenario of every
/// size, in [`sizes`] order, each from its own seed drawn from `seed`.
pub fn scenarios(seed: u64, rounds: usize) -> Vec<Scenario> {
    let mut rng = Rng::seed_from_u64(seed);
    let sizes = sizes();
    let mut out = Vec::with_capacity(rounds * sizes.len());
    for _ in 0..rounds {
        for &(field, users) in &sizes {
            out.push(spec(field, users).build(rng.next_u64()));
        }
    }
    out
}

/// The `run_sag` configuration `plan` users get, with every setting
/// spelled out instead of read from the environment.
pub fn pipeline_config() -> SagPipelineConfig {
    SagPipelineConfig {
        samc: SamcConfig {
            hitting: HittingStrategy::LocalSearch,
        },
        lower_solver: LowerSolver::Samc,
        solver: SolverBuilder::adaptive(),
        budget: Budget::unlimited(),
        collect_metrics: true,
        threads: PIPELINE_THREADS,
        snr_oracle: Some(false),
    }
}

/// Checks one report: the independent deployment audit finds no
/// violation and the coverage is SNR-feasible.
fn check(sc: &Scenario, report: &SagReport) -> Result<(), String> {
    let audit = validate_report(sc, report);
    let violations = audit.violations().count();
    if violations > 0 {
        return Err(format!("validate_report found {violations} violations"));
    }
    if !is_feasible(sc, &report.coverage) {
        return Err("coverage is not feasible".into());
    }
    Ok(())
}

fn solve(sc: &Scenario, config: &SagPipelineConfig) -> Result<Result<SagReport, SagError>, String> {
    catch_unwind(AssertUnwindSafe(|| run_sag_with(sc, config.clone())))
        .map_err(|_| "run_sag panicked".to_string())
}

/// Per-operation results shared by both phases.
#[derive(Default)]
struct Tally {
    latency_ms: Samples,
    relays: Samples,
    power: Samples,
    infeasible: u64,
}

impl Tally {
    /// Books one `run_sag` outcome; returns the report when there is one.
    fn book(
        &mut self,
        phase: &mut Phase,
        sc: &Scenario,
        outcome: Result<Result<SagReport, SagError>, String>,
        took: Duration,
    ) -> Option<SagReport> {
        phase.attempted += 1;
        match outcome {
            Ok(Ok(report)) => {
                self.latency_ms.push(ms(took));
                if let Err(e) = check(sc, &report) {
                    phase.fail(format!("plan: {} SS: {e}", sc.n_subscribers()));
                }
                self.relays
                    .push((report.n_coverage_relays() + report.n_connectivity_relays()) as f64);
                self.power.push(report.power_summary().total);
                Some(report)
            }
            Ok(Err(SagError::Infeasible(_))) => {
                self.latency_ms.push(ms(took));
                self.infeasible += 1;
                None
            }
            Ok(Err(e)) => {
                phase.fail(format!("plan: {} SS: {e}", sc.n_subscribers()));
                None
            }
            Err(e) => {
                phase.fail(format!("plan: {} SS: {e}", sc.n_subscribers()));
                None
            }
        }
    }

    fn finish(&self, phase: &mut Phase) {
        let solves = phase.attempted.max(1) as f64;
        phase.set("relays_mean", self.relays.mean());
        phase.set("power_mean", self.power.mean());
        phase.set("infeasible_frac", self.infeasible as f64 / solves);
    }
}

/// Input generation plus a warm-up round (one solve of every size).
fn setup(seed: u64, config: &SagPipelineConfig) -> (Vec<Scenario>, Duration) {
    let started = Instant::now();
    let list = scenarios(seed, ROUNDS);
    let warm = scenarios(seed ^ 0x5741_524d, 1);
    for sc in &warm {
        // Warm-up outcomes are not measured; the timed phase checks
        // every report it produces.
        let _ = solve(sc, config);
    }
    (list, started.elapsed())
}

pub fn run(opts: &Opts) -> Phase {
    let config = pipeline_config();
    let mut phase = Phase::default();
    let mut setups = Vec::new();
    let mut list = Vec::new();
    for _ in 0..opts.setup_repeats.max(1) {
        let (l, took) = setup(opts.seed, &config);
        list = l;
        setups.push(took.as_secs_f64());
    }
    phase.set("setup_s", median(&setups));
    let n_sizes = sizes().len();
    phase.note(format!(
        "closed loop, 1 client; run_sag threads={PIPELINE_THREADS}, solver=SAMC (local-search hitting set); \
         {n_sizes} sizes x {ROUNDS} scenarios, whole rounds only"
    ));
    if opts.traced {
        traced(opts, &config, &list, &mut phase);
    } else {
        untraced(opts, &config, &list, &mut phase);
    }
    phase
}

fn untraced(opts: &Opts, config: &SagPipelineConfig, list: &[Scenario], phase: &mut Phase) {
    let n_sizes = sizes().len();
    let mut tally = Tally::default();
    let mut busy = Duration::ZERO;
    let started = Instant::now();
    for round in list.chunks(n_sizes).cycle() {
        for sc in round {
            let t = Instant::now();
            let outcome = solve(sc, config);
            let took = t.elapsed();
            busy += took;
            tally.book(phase, sc, outcome, took);
        }
        if started.elapsed() >= opts.seconds {
            break;
        }
    }
    tally.finish(phase);
    let lat = &tally.latency_ms;
    phase.set("ops_per_s", phase.attempted as f64 / busy.as_secs_f64());
    phase.set("latency_p50_ms", lat.percentile(50.0));
    phase.set("latency_p90_ms", lat.percentile(90.0));
    phase.set("latency_p99_ms", lat.percentile(99.0));
    phase.note(format!(
        "{} solves ({} rounds); latency samples={}",
        phase.attempted,
        phase.attempted as usize / n_sizes,
        lat.len()
    ));
}

/// The traced operation on one scenario: the layer calls `run_sag`
/// makes, each in its own span, then `run_sag` itself.
///
/// * `core.zone`, `hitting.search` and `core.escape` time the partition
///   and, per zone, the hitting set and the link escape that SAMC runs
///   first (probes: SAMC repeats this work inside `core.samc`);
/// * `core.samc` then `core.tail` (PRO, MBMC, UCPO) are the pipeline
///   stage by stage with no collector — the `collect_metrics: false`
///   path;
/// * `obs.run_sag` is `run_sag` as `plan` users call it, collector on;
///   `obs.collect_ms` is its time minus the stage-by-stage path.
fn traced_op(
    sc: &Scenario,
    config: &SagPipelineConfig,
    layers: &Layers,
    tally: &mut Tally,
    stats: &mut TracedStats,
    phase: &mut Phase,
) {
    let zones = layers.time("core.zone", || zone_partition(sc));
    stats.zones.push(zones.len() as f64);
    stats
        .zone_size_max
        .push(zones.iter().map(Vec::len).max().unwrap_or(0) as f64);
    let mut points_total = 0;
    let mut hitting_ms = 0.0;
    for zone in &zones {
        let (zsc, _) = zone_scenario(sc, zone);
        let t = Instant::now();
        let points = layers.time("hitting.search", || {
            local_search_hitting_set(&DiskInstance::new(zsc.feasible_circles()))
        });
        hitting_ms += ms(t.elapsed());
        points_total += points.len();
        layers.time("core.escape", || coverage_link_escape(&zsc, &points));
    }
    stats.hitting_ms.push(hitting_ms);
    stats.points.push(points_total as f64);

    let staged_started = Instant::now();
    let staged = layers
        .time("core.validate", || sc.validate())
        .and_then(|()| {
            let cov = layers.time("core.samc", || {
                samc_with_budget_threads(sc, config.samc, &Budget::unlimited(), PIPELINE_THREADS)
            })?;
            layers.time("core.tail", || -> Result<CoverageSolution, SagError> {
                let lower = pro_with_budget(sc, &cov, &Budget::unlimited())?;
                let plan = mbmc(sc, &cov)?;
                std::hint::black_box((lower, ucpo(sc, &cov, &plan)));
                Ok(cov)
            })
        });
    let staged_ms = ms(staged_started.elapsed());

    let t = Instant::now();
    let outcome = layers.time("obs.run_sag", || solve(sc, config));
    let took = t.elapsed();
    stats.collect_ms.push(ms(took) - staged_ms);
    if let Some(report) = tally.book(phase, sc, outcome, took) {
        stats
            .delta_ops
            .push(report.metrics.counter("ledger.delta_ops") as f64);
        stats
            .lp_solves
            .push(report.metrics.counter("lp.sparse_solves") as f64);
        // The stage-by-stage path must reproduce run_sag's placement.
        if staged.as_ref().ok() != Some(&report.coverage) {
            phase.fail(format!(
                "plan: {} SS: stage-by-stage SAMC differs from run_sag",
                sc.n_subscribers()
            ));
        }
    }
}

#[derive(Default)]
struct TracedStats {
    zones: Samples,
    zone_size_max: Samples,
    hitting_ms: Samples,
    points: Samples,
    collect_ms: Samples,
    delta_ops: Samples,
    lp_solves: Samples,
}

fn traced(opts: &Opts, config: &SagPipelineConfig, list: &[Scenario], phase: &mut Phase) {
    let n_sizes = sizes().len();
    let layers = Layers::default();
    let mut tally = Tally::default();
    let mut stats = TracedStats::default();
    let started = Instant::now();
    for round in list.chunks(n_sizes).cycle() {
        for sc in round {
            traced_op(sc, config, &layers, &mut tally, &mut stats, phase);
        }
        if started.elapsed() >= opts.seconds {
            break;
        }
    }
    let wall_ms = ms(started.elapsed());
    tally.finish(phase);
    let solves = phase.attempted.max(1) as f64;
    let per_solve = |name: &str| layers.total_ms(name) / solves;
    phase.set("ops_per_s", phase.attempted as f64 / (wall_ms / 1e3));
    phase.set("hitting.search_ms", stats.hitting_ms.mean());
    phase.set("hitting.points", stats.points.mean());
    phase.set("core.samc_ms", per_solve("core.samc"));
    phase.set("core.escape_ms", layers.mean_ms("core.escape"));
    phase.set("core.tail_ms", per_solve("core.tail"));
    phase.set("core.zone_ms", per_solve("core.zone"));
    phase.set("core.zones", stats.zones.mean());
    phase.set("core.zone_size_max", stats.zone_size_max.mean());
    phase.set("radio.delta_ops", stats.delta_ops.mean());
    phase.set("lp.solves", stats.lp_solves.mean());
    phase.set("obs.collect_ms", stats.collect_ms.mean());
    phase.set("trace.uncovered_frac", 1.0 - layers.covered_ms() / wall_ms);
    phase.note(format!(
        "traced: {} solves; mean run_sag {:.3} ms; layers per solve (ms): zone {:.3}, hitting {:.3}, \
         escape {:.3}, samc {:.3}, tail {:.3}",
        phase.attempted,
        layers.total_ms("obs.run_sag") / solves,
        per_solve("core.zone"),
        stats.hitting_ms.mean(),
        per_solve("core.escape"),
        per_solve("core.samc"),
        per_solve("core.tail"),
    ));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_fig45_size_appears_equally_often() {
        let list = scenarios(7, 3);
        let sizes = sizes();
        assert_eq!(sizes.len(), 16);
        assert_eq!(list.len(), 3 * sizes.len());
        for &(field, users) in &sizes {
            let count = list
                .iter()
                .filter(|sc| sc.n_subscribers() == users && sc.field.width() == field)
                .count();
            assert_eq!(count, 3, "size {field}x{field}/{users} SS");
        }
        // Whole rounds: every chunk of `sizes().len()` scenarios holds
        // each size once, so a run that stops between rounds stays
        // balanced.
        for round in list.chunks(sizes.len()) {
            let got: Vec<(f64, usize)> = round
                .iter()
                .map(|sc| (sc.field.width(), sc.n_subscribers()))
                .collect();
            assert_eq!(got, sizes);
        }
    }

    #[test]
    fn scenarios_follow_the_seed() {
        assert_eq!(scenarios(3, 1), scenarios(3, 1));
        assert_ne!(scenarios(3, 1), scenarios(4, 1));
        for sc in scenarios(3, 1) {
            assert_eq!(sc.base_stations.len(), 4);
            assert!((sc.params.link.beta() - 10f64.powf(-1.5)).abs() < 1e-12);
        }
    }
}
