//! Observability integration suite: span-tree shape, metrics/report
//! parity and the obs-sink chaos contract.
//!
//! Three contracts from the `sag-obs` tentpole are pinned here:
//!
//! 1. **Well-formed span trees** — every pipeline run emits balanced
//!    enter/exit events that nest properly, and the set of stage spans
//!    equals the set of stages that actually executed (including the
//!    `greedy_fallback` rung when a zero budget forces degradation).
//! 2. **Metrics/report parity** — the `StageMetrics` carried by a
//!    [`SagReport`] agree with the report's own artefacts (relay
//!    counts, hop counts, PRO baselines), so dashboards built on the
//!    metrics stream can be trusted against the golden pipeline.
//! 3. **`Fault::ObsSinkFail`** — a sink whose every write fails must
//!    never alter results or panic; events are dropped and counted.

use std::io;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use sag_testkit::prelude::*;

use sag_core::model::Scenario;
use sag_core::sag::{
    run_sag, run_sag_with, AnsweringSolver, LowerSolver, SagPipelineConfig, SagReport,
};
use sag_core::{SolverBackend, SolverBuilder};
use sag_lp::Budget;
use sag_obs::{JsonlSink, Recorder};
use sag_sim::gen::{BsLayout, ScenarioSpec};
use std::sync::Arc;

fn build(users: usize, bss: usize, seed: u64) -> Scenario {
    ScenarioSpec {
        field_size: 500.0,
        n_subscribers: users,
        n_base_stations: bss,
        snr_db: -15.0,
        bs_layout: BsLayout::Uniform,
        ..Default::default()
    }
    .build(seed)
}

/// Raw span event, as delivered to a [`Recorder`].
#[derive(Debug, Clone, PartialEq)]
enum Ev {
    Enter(&'static str, usize),
    Exit(&'static str, usize, Duration),
}

/// Recorder that logs the raw span event stream for shape checks.
#[derive(Default)]
struct SpanLog(Mutex<Vec<Ev>>);

impl Recorder for SpanLog {
    fn span_enter(&self, span: &sag_obs::SpanMeta) {
        self.0
            .lock()
            .expect("log lock")
            .push(Ev::Enter(span.name, span.depth));
    }
    fn span_exit(&self, span: &sag_obs::SpanMeta, dur: Duration) {
        self.0
            .lock()
            .expect("log lock")
            .push(Ev::Exit(span.name, span.depth, dur));
    }
}

/// Runs one pipeline under a fresh [`SpanLog`] and returns the report
/// with the captured event stream.
fn run_logged(sc: &Scenario, config: SagPipelineConfig) -> (Result<SagReport, String>, Vec<Ev>) {
    let log = Arc::new(SpanLog::default());
    let result =
        sag_obs::with_local(log.clone(), || run_sag_with(sc, config)).map_err(|e| e.to_string());
    let events = log.0.lock().expect("log lock").clone();
    (result, events)
}

/// Replays the event stream against a stack and panics on any
/// malformation; returns the distinct span names in first-seen order.
fn assert_well_formed(events: &[Ev]) -> Vec<&'static str> {
    let mut stack: Vec<&'static str> = Vec::new();
    let mut names: Vec<&'static str> = Vec::new();
    for ev in events {
        match *ev {
            Ev::Enter(name, depth) => {
                assert_eq!(
                    depth,
                    stack.len() + 1,
                    "span '{name}' entered at depth {depth} with {} open",
                    stack.len()
                );
                stack.push(name);
                if !names.contains(&name) {
                    names.push(name);
                }
            }
            Ev::Exit(name, depth, _) => {
                assert_eq!(
                    stack.last().copied(),
                    Some(name),
                    "span '{name}' exited out of nesting order (open: {stack:?})"
                );
                assert_eq!(depth, stack.len(), "span '{name}' exit depth mismatch");
                stack.pop();
            }
        }
    }
    assert!(stack.is_empty(), "unclosed spans at end of run: {stack:?}");
    names
}

prop! {
    /// Every successful pipeline run, over random feasible topologies,
    /// produces a balanced, properly nested span stream whose stage
    /// set matches the `StageMetrics` summary (same names, one
    /// `SpanStat` count per exit event).
    #[cases(24)]
    fn span_trees_are_well_formed(users in 2usize..14, bss in 1usize..4, seed in 0u64..10_000) {
        let sc = build(users, bss, seed);
        let started = Instant::now();
        let (result, events) = run_logged(&sc, SagPipelineConfig::default());
        let elapsed = started.elapsed();
        let Ok(report) = result else {
            // Infeasible random topology: a typed error and no events
            // left dangling is exactly the contract.
            return;
        };
        let names = assert_well_formed(&events);
        prop_assert!(!names.is_empty(), "a successful run must emit spans");
        // Top-level stages run sequentially, so their total time is
        // bounded by the run's wall time.
        let top_total: Duration = events.iter().filter_map(|e| match *e {
            Ev::Exit(_, 1, dur) => Some(dur),
            _ => None,
        }).sum();
        prop_assert!(top_total <= elapsed, "stage spans exceed the run's wall time");
        // The report's metrics describe the same tree.
        for &name in &names {
            let stat = report.metrics.span(name);
            prop_assert!(stat.is_some(), "metrics lost span '{name}'");
            let exits = events.iter().filter(|e| matches!(e, Ev::Exit(n, _, _) if *n == name)).count();
            prop_assert!(stat.map(|s| s.count) == Some(exits as u64),
                "span '{name}' count diverges from the event stream");
        }
        let metric_names: Vec<&str> = report.metrics.spans.iter().map(|s| s.name).collect();
        for name in metric_names {
            prop_assert!(names.contains(&name), "metrics invented span '{name}'");
        }
    }
}

#[test]
fn samc_run_emits_the_samc_stage_set() {
    let sc = build(8, 2, 11);
    let (result, events) = run_logged(&sc, SagPipelineConfig::default());
    let report = result.expect("golden scenario is feasible");
    assert_eq!(report.solver, AnsweringSolver::Samc);
    let names = assert_well_formed(&events);
    for stage in ["samc", "zone_partition", "pro", "mbmc", "ucpo"] {
        assert!(
            names.contains(&stage),
            "missing '{stage}' span in {names:?}"
        );
    }
    for absent in ["ilpqc", "greedy_fallback"] {
        assert!(
            !names.contains(&absent),
            "'{absent}' span must not appear on the SAMC path"
        );
    }
}

#[test]
fn greedy_fallback_run_records_its_rungs() {
    // A zero node budget forces ILPQC to exhaust immediately and the
    // pipeline to degrade; the span set must record both rungs.
    let sc = build(6, 2, 13);
    let config = SagPipelineConfig {
        lower_solver: LowerSolver::Candidates,
        // Pinned: the span-set assertions below are about the exact →
        // greedy ladder, which adaptive selection skips on a zero node
        // budget.
        solver: SolverBuilder::fixed(SolverBackend::ExactIlp),
        budget: Budget::unlimited().with_node_limit(0),
        ..Default::default()
    };
    let (result, events) = run_logged(&sc, config);
    let report = result.expect("fallback keeps the scenario solvable");
    assert_eq!(report.solver, AnsweringSolver::GreedyFallback);
    let names = assert_well_formed(&events);
    for stage in ["ilpqc", "greedy_fallback", "pro", "mbmc", "ucpo"] {
        assert!(
            names.contains(&stage),
            "missing '{stage}' span in {names:?}"
        );
    }
    assert!(
        !names.contains(&"samc"),
        "'samc' span must not appear on the ILPQC path"
    );
}

#[test]
fn stage_metrics_agree_with_the_report() {
    // Parity with the golden pipeline: the gauges in the metrics
    // stream must equal the values derivable from the report itself.
    let sc = build(20, 4, 13);
    let report = run_sag(&sc).expect("golden scenario is feasible");
    let m = &report.metrics;
    assert_eq!(
        m.gauge("coverage.relays"),
        Some(report.n_coverage_relays() as f64)
    );
    assert_eq!(
        m.gauge("coverage.one_on_one"),
        Some(report.coverage.served_index().one_on_one() as f64)
    );
    assert_eq!(
        m.gauge("connectivity.relays"),
        Some(report.n_connectivity_relays() as f64)
    );
    assert_eq!(
        m.gauge("connectivity.hops"),
        Some(report.plan.chains.iter().map(|c| c.hops).sum::<usize>() as f64)
    );
    assert_eq!(
        m.gauge("pro.baseline_total"),
        Some(report.n_coverage_relays() as f64 * sc.params.link.pmax())
    );
    let floor = m.gauge("pro.floor_total").expect("PRO records its floor");
    assert!(floor <= report.lower_power.total() + 1e-12);
    // Zone sizes partition the subscribers.
    let zones = m.histogram("zone.size").expect("SAMC observes zone sizes");
    assert_eq!(zones.samples.iter().sum::<u64>(), sc.n_subscribers() as u64);
}

#[test]
fn ilpqc_run_records_solver_work_counters() {
    // PRO's default power solver is a fixed-point iteration, so the
    // LP/B&B work counters belong to the exact lower-tier path.
    let sc = build(8, 2, 11);
    let config = SagPipelineConfig {
        lower_solver: LowerSolver::Candidates,
        // Pinned: the work counters below belong to the exact backend.
        solver: SolverBuilder::fixed(SolverBackend::ExactIlp),
        ..Default::default()
    };
    let report = run_sag_with(&sc, config).expect("scenario is feasible");
    assert_eq!(report.solver, AnsweringSolver::Ilpqc);
    let m = &report.metrics;
    // Every library LP solve runs the sparse core; the dense referee's
    // `lp.solves` family stays silent.
    assert!(
        m.counter("lp.sparse_solves") > 0,
        "B&B must record its LP solves"
    );
    assert!(
        m.counter("lp.sparse_pivots") > 0,
        "simplex must record pivots"
    );
    assert_eq!(
        m.counter("lp.solves"),
        0,
        "no library path reaches the dense core"
    );
    assert!(m.counter("ilpqc.nodes") > 0, "ILPQC must count its nodes");
}

#[test]
fn budget_spent_is_stage_local_on_every_arm() {
    // S2 regression: `SagReport::budget_spent` must describe the
    // lower-tier *stage* — its own wall time and node count — not
    // pipeline-so-far, and must mean the same thing on the SAMC and
    // ILPQC arms.
    let sc = build(14, 2, 11);

    let started = Instant::now();
    let samc = run_sag(&sc).expect("scenario is feasible");
    let samc_wall = started.elapsed();
    assert_eq!(samc.budget_spent.nodes, 0, "SAMC does no B&B work");
    let samc_span = samc.metrics.span("samc").expect("samc span").total;
    assert!(
        samc.budget_spent.elapsed >= samc_span,
        "stage spend {:?} cannot undercut the samc span {samc_span:?}",
        samc.budget_spent.elapsed
    );
    assert!(
        samc.budget_spent.elapsed <= samc_wall,
        "stage spend {:?} exceeds the whole run ({samc_wall:?})",
        samc.budget_spent.elapsed
    );

    let started = Instant::now();
    let ilpqc = run_sag_with(
        &sc,
        SagPipelineConfig {
            lower_solver: LowerSolver::Candidates,
            // Pinned: `ilpqc.nodes` parity only holds on the exact path.
            solver: SolverBuilder::fixed(SolverBackend::ExactIlp),
            ..Default::default()
        },
    )
    .expect("scenario is feasible");
    let ilpqc_wall = started.elapsed();
    // The reported nodes are exactly the solver's own work counter.
    assert_eq!(
        ilpqc.budget_spent.nodes as u64,
        ilpqc.metrics.counter("ilpqc.nodes")
    );
    let ilpqc_span = ilpqc.metrics.span("ilpqc").expect("ilpqc span").total;
    assert!(ilpqc.budget_spent.elapsed >= ilpqc_span);
    assert!(ilpqc.budget_spent.elapsed <= ilpqc_wall);
}

/// Recorder that logs span identity/linkage, for cross-thread
/// parenting checks where interleaving makes depth replay meaningless.
#[derive(Default)]
struct LinkLog(Mutex<Vec<sag_obs::SpanMeta>>);

impl Recorder for LinkLog {
    fn span_enter(&self, span: &sag_obs::SpanMeta) {
        self.0.lock().expect("log lock").push(*span);
    }
}

#[test]
fn sweep_worker_spans_parent_under_the_coordinator_sweep_span() {
    // Regression for the sweep worker span-context seeding bug: worker
    // threads used to open `sweep_cell` spans with no inherited
    // context, so every cell became its own root and a sweep capture
    // shattered into per-thread fragments. The engine must seed each
    // worker with the coordinator's span context; every cell span —
    // whichever thread runs it, in whatever claim order — parents
    // under the one `sweep` span.
    use sag_sim::batch::{sweep_multi_with, JobOrder, SweepOptions};
    use sag_sim::runner::SweepConfig;

    for threads in [1usize, 4] {
        let log = Arc::new(LinkLog::default());
        let config = SweepConfig {
            runs: 3,
            base_seed: 5,
            threads,
        };
        sag_obs::with_local(log.clone(), || {
            sweep_multi_with(
                &[1.0f64, 2.0, 3.0],
                1,
                config,
                SweepOptions {
                    order: JobOrder::Shuffled(41),
                    ..Default::default()
                },
                |_ctx, x, seed| vec![Some(x + seed as f64)],
            );
        });
        let spans = log.0.lock().expect("log lock").clone();
        let sweeps: Vec<_> = spans.iter().filter(|s| s.name == "sweep").collect();
        assert_eq!(
            sweeps.len(),
            1,
            "threads={threads}: exactly one sweep coordinator span"
        );
        let root = sweeps[0].id;
        let cells: Vec<_> = spans.iter().filter(|s| s.name == "sweep_cell").collect();
        assert_eq!(cells.len(), 9, "threads={threads}: one span per cell");
        for cell in &cells {
            assert_eq!(
                cell.parent,
                Some(root),
                "threads={threads}: cell span {} (zone {:?}) lost its parent link",
                cell.id,
                cell.zone
            );
        }
        // Zone tags cover every cell exactly once.
        let mut zones: Vec<u64> = cells.iter().filter_map(|s| s.zone).collect();
        zones.sort_unstable();
        assert_eq!(zones, (0..9).collect::<Vec<u64>>());
    }
}

/// Writer that fails every operation — the realisation of
/// [`Fault::ObsSinkFail`].
struct FailingWriter;

impl io::Write for FailingWriter {
    fn write(&mut self, _buf: &[u8]) -> io::Result<usize> {
        Err(io::Error::other("injected obs sink failure"))
    }
    fn flush(&mut self) -> io::Result<()> {
        Err(io::Error::other("injected obs sink failure"))
    }
}

#[test]
fn obs_sink_failure_never_alters_results() {
    let _catalogued = Fault::ObsSinkFail; // realised below, at the sink
    let sc = build(12, 3, 17);
    let clean = run_sag(&sc).expect("scenario is feasible");

    let sink = JsonlSink::from_writer(Box::new(FailingWriter));
    let guard = sag_obs::install(sink.clone());
    let faulted = run_sag(&sc).expect("a dead sink must not fail the pipeline");
    drop(guard);

    // Every event (header included) was dropped, counted, and nothing
    // about the deployment changed.
    assert!(
        sink.dropped_events() > 0,
        "the failing sink should have dropped events"
    );
    assert_eq!(clean.power_summary(), faulted.power_summary());
    assert_eq!(clean.n_coverage_relays(), faulted.n_coverage_relays());
    assert_eq!(
        clean.n_connectivity_relays(),
        faulted.n_connectivity_relays()
    );
    assert_eq!(clean.solver, faulted.solver);
}
