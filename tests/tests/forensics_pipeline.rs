//! Failure-forensics acceptance suite for the flight-recorder
//! tentpole.
//!
//! Every typed failure path — [`SagError::WorkerPanic`],
//! [`SagError::LedgerDesync`], [`SagError::BudgetExceeded`], and a
//! churn repair landing on the `Deferred` rung — must emit a structured post-mortem dump frame
//! that [`sag_obs::json::validate`] accepts, and `repro trace`'s
//! analyzer must reconstruct the run's JSONL into a single span tree
//! with correct parent links at 1, 2 and 4 threads. The validator and
//! analyzer must additionally survive truncated, interleaved and
//! byte-flipped streams (the [`Fault::ObsSinkFail`] family) without
//! panicking. The flight recorder is one more recorder on the same
//! event path: armed alone it records every metric a `Collector` does,
//! and a frame's ring events carry the JSONL line schema on the JSONL
//! clock.

use std::collections::HashSet;
use std::io::{self, Write};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Duration;

use sag_testkit::prelude::*;

use sag_core::churn::{ChurnConfig, ChurnEngine, ChurnEvent, RepairRung};
use sag_core::sag::{run_sag_with, LowerSolver, SagPipelineConfig};
use sag_core::{SagError, SolverBuilder};
use sag_lp::Budget;
use sag_obs::json::{field_str, field_u64};
use sag_obs::{Event, JsonlSink, SpanMeta};
use sag_sim::gen::{BsLayout, ScenarioSpec};
use sag_sim::trace::{self, TraceReport};

fn build(users: usize, bss: usize, seed: u64) -> sag_core::model::Scenario {
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

/// Shared in-memory writer so the captured JSONL can be read back
/// after the sink drops its trailer.
#[derive(Clone, Default)]
struct Shared(Arc<Mutex<Vec<u8>>>);

impl Write for Shared {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.lock().expect("buffer lock").extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// The flight-recorder capacity is process-global; serialize the
/// tests that arm it.
fn ring_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(Mutex::default)
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Runs `f` under a thread-local JSONL sink with the flight recorder
/// armed and returns the captured stream (header through trailer).
fn capture(f: impl FnOnce()) -> String {
    let buf = Shared::default();
    sag_obs::ring::configure(64);
    {
        let sink = JsonlSink::from_writer(Box::new(buf.clone()));
        sag_obs::with_local(sink, f);
    }
    sag_obs::ring::configure(0);
    let bytes = buf.0.lock().expect("buffer lock").clone();
    String::from_utf8(bytes).expect("sink emits utf8")
}

/// The newest epoch in the flight recorder's registry, if any: events
/// above it were recorded after this call.
fn last_epoch() -> Option<u64> {
    sag_obs::ring::snapshot().events.last().map(|e| e.epoch)
}

/// A trace object's `kind` and its fields after `t_ns`. A ring event
/// and the JSONL line of the same event differ before that: `epoch`
/// in place of `run`, and their own readings of the clock.
fn kind_and_tail(obj: &str) -> Option<(&str, &str)> {
    let tail = &obj[obj.find(",\"t_ns\":")? + 8..];
    let tail = tail.trim_start_matches(|c: char| c.is_ascii_digit());
    Some((field_str(obj, "kind")?, tail))
}

/// A frame's ring events are the failing run's and carry the JSONL
/// line schema on the JSONL clock: each was recorded after epoch
/// `since`, is `kind`, `epoch`, `t_ns` and then the fields of a span or
/// metric line of `stream`, and none is later than the frame's line.
fn assert_ring_events_are_lines(stream: &str, since: Option<u64>) {
    let lines: HashSet<_> = stream.lines().filter_map(kind_and_tail).collect();
    let frame = stream
        .lines()
        .find(|l| l.contains("\"kind\":\"post_mortem\""))
        .expect("dump line");
    let frame_t = field_u64(frame, "t_ns").expect("frame t_ns");
    // Flat objects closed by `]}}`: the ring events, the ring, the line.
    let events = &frame[frame.find("\"events\":[").expect("ring events") + 10..frame.len() - 3];
    let mut matched = 0;
    for ev in events.split("},{").filter(|e| !e.is_empty()) {
        let ev = format!("{{{}}}", ev.trim_matches(['{', '}']));
        let (Some(epoch), Some(t)) = (field_u64(&ev, "epoch"), field_u64(&ev, "t_ns")) else {
            panic!("ring event without epoch or t_ns: {ev}");
        };
        assert!(
            t <= frame_t,
            "ring event at {t} ns after its frame at {frame_t}: {ev}"
        );
        let (kind, tail) = kind_and_tail(&ev).expect("ring event has a kind");
        assert_eq!(
            ev,
            format!("{{\"kind\":\"{kind}\",\"epoch\":{epoch},\"t_ns\":{t}{tail}")
        );
        assert!(
            since.is_none_or(|s| epoch > s),
            "ring event of an earlier run: {ev}"
        );
        assert!(
            lines.contains(&(kind, tail)),
            "no JSONL line has the fields of {ev}"
        );
        matched += 1;
    }
    assert!(matched > 0, "the frame holds no ring event of this run");
}

/// Every line of the stream must parse; the stream must contain
/// exactly the given post-mortem classes, in order.
fn assert_frames(stream: &str, classes: &[&str]) -> TraceReport {
    for (i, line) in stream.lines().filter(|l| !l.trim().is_empty()).enumerate() {
        sag_obs::json::validate(line)
            .unwrap_or_else(|e| panic!("line {}: invalid JSON ({e}): {line}", i + 1));
    }
    let report = trace::analyze_str(stream);
    assert_eq!(report.malformed, 0, "sink emitted a malformed line");
    let seen: Vec<&str> = report
        .post_mortems
        .iter()
        .map(|p| p.class.as_str())
        .collect();
    assert_eq!(
        seen, classes,
        "post-mortem frames diverge from the expected classes"
    );
    report
}

/// The analyzer must see one well-formed tree: a single root, no
/// orphaned parent links.
fn assert_single_tree(report: &TraceReport, label: &str) {
    assert_eq!(
        report.roots.len(),
        1,
        "{label}: expected one root span, got {:?}",
        report.roots
    );
    assert!(
        report.orphans.is_empty(),
        "{label}: orphaned parent links: {:?}",
        report.orphans
    );
}

#[test]
fn clean_runs_reconstruct_one_tree_at_any_thread_count() {
    let _guard = ring_lock();
    // Short reach + high N_max fragments the subscribers into many
    // zones, so threads > 1 genuinely spawns zone workers.
    let sc = ScenarioSpec {
        field_size: 800.0,
        n_subscribers: 16,
        n_base_stations: 2,
        snr_db: -15.0,
        dist_range: (8.0, 14.0),
        nmax: 1e-3,
        bs_layout: BsLayout::Uniform,
        ..Default::default()
    }
    .build(1);
    let mut span_names: Vec<Vec<String>> = Vec::new();
    for threads in [1usize, 2, 4] {
        let stream = capture(|| {
            run_sag_with(
                &sc,
                SagPipelineConfig {
                    threads,
                    ..Default::default()
                },
            )
            .expect("scenario is feasible");
        });
        let report = assert_frames(&stream, &[]);
        assert_single_tree(&report, &format!("threads={threads}"));
        assert_eq!(report.unclosed, 0, "threads={threads}: dangling spans");
        assert!(
            report.span_totals.contains_key("run_sag"),
            "threads={threads}: missing root span"
        );
        span_names.push(report.span_totals.keys().cloned().collect());
        if threads > 1 {
            assert!(
                report.threads > 1,
                "threads={threads}: no worker thread emitted spans"
            );
        }
    }
    // The tree's *shape* is thread-count independent: same stage set.
    assert_eq!(span_names[0], span_names[1]);
    assert_eq!(span_names[1], span_names[2]);
}

#[test]
fn sweep_captures_reconstruct_one_tree_at_any_thread_count() {
    let _guard = ring_lock();
    // Regression for the sweep worker span-context seeding bug: the
    // batched engine's workers must inherit the coordinator's span
    // context, or a sweep JSONL capture splinters into one rootless
    // fragment per worker thread.
    use sag_sim::batch::sweep_multi_cached;
    use sag_sim::experiments::{relays_metric, run_samc_cached};
    use sag_sim::runner::SweepConfig;

    let spec = ScenarioSpec {
        field_size: 300.0,
        n_subscribers: 6,
        ..Default::default()
    };
    for threads in [1usize, 2, 4] {
        let config = SweepConfig {
            runs: 2,
            base_seed: 1,
            threads,
        };
        let stream = capture(|| {
            sweep_multi_cached(&[1usize, 2, 3], 1, config, |ctx, _x, seed| {
                vec![relays_metric(&run_samc_cached(ctx, &spec, seed % 1000))]
            });
        });
        let report = assert_frames(&stream, &[]);
        assert_single_tree(&report, &format!("sweep threads={threads}"));
        assert_eq!(report.unclosed, 0, "threads={threads}: dangling spans");
        let cells = report
            .span_totals
            .get("sweep_cell")
            .unwrap_or_else(|| panic!("threads={threads}: no sweep_cell spans"));
        assert_eq!(cells.count, 6, "threads={threads}: one span per cell");
        assert_eq!(
            report.span_totals.get("sweep").map(|a| a.count),
            Some(1),
            "threads={threads}: exactly one sweep root"
        );
        // The coordinator records the cache accounting exactly once.
        assert_eq!(report.counters.get("sweep.cells"), Some(&6));
    }
}

#[test]
fn worker_panic_dumps_exactly_once_at_any_thread_count() {
    let _guard = ring_lock();
    let sc = build(8, 2, 7);
    // A clean run first: its events stay in the rings, and no frame
    // below may carry them.
    capture(|| {
        run_sag_with(&sc, SagPipelineConfig::default()).expect("scenario is feasible");
    });
    for threads in [1usize, 2, 4] {
        sag_core::engine::inject_zone_worker_panic(true);
        let mut outcome = Ok(());
        let since = last_epoch();
        assert!(since.is_some(), "the clean run recorded events");
        let stream = capture(|| {
            outcome = run_sag_with(
                &sc,
                SagPipelineConfig {
                    threads,
                    ..Default::default()
                },
            )
            .map(drop);
        });
        sag_core::engine::inject_zone_worker_panic(false);
        assert!(
            matches!(outcome, Err(SagError::WorkerPanic { .. })),
            "threads={threads}: expected WorkerPanic, got {outcome:?}"
        );
        let report = assert_frames(&stream, &["worker_panic"]);
        assert_single_tree(&report, &format!("threads={threads}"));
        let frame = &report.post_mortems[0];
        assert!(
            frame.stage.is_some(),
            "worker_panic frame must name a stage"
        );
        assert!(frame.zone.is_some(), "worker_panic frame must name a zone");
        // The dump line carries the ring timeline and span stack.
        let line = stream
            .lines()
            .find(|l| l.contains("\"kind\":\"post_mortem\""))
            .expect("dump line");
        assert!(line.contains("\"span_stack\":["));
        assert!(line.contains("\"ring\":{"));
        assert_ring_events_are_lines(&stream, since);
    }
}

#[test]
fn budget_exhaustion_dumps_spend_accounting() {
    let _guard = ring_lock();
    let sc = build(8, 2, 11);
    let mut outcome = Ok(());
    let since = last_epoch();
    let stream = capture(|| {
        outcome = run_sag_with(
            &sc,
            SagPipelineConfig {
                lower_solver: LowerSolver::Candidates,
                solver: SolverBuilder::default().strict_exact(),
                budget: Budget::unlimited().with_node_limit(0),
                ..Default::default()
            },
        )
        .map(drop);
    });
    assert!(
        matches!(outcome, Err(SagError::BudgetExceeded { .. })),
        "expected BudgetExceeded, got {outcome:?}"
    );
    let report = assert_frames(&stream, &["budget_exceeded"]);
    assert_single_tree(&report, "budget_exceeded");
    assert_eq!(report.post_mortems[0].stage.as_deref(), Some("ilpqc"));
    // The frame names no zone; its ring's zone_solve spans do not lend theirs.
    assert_eq!(report.post_mortems[0].zone, None);
    let line = stream
        .lines()
        .find(|l| l.contains("\"kind\":\"post_mortem\""))
        .expect("dump line");
    assert!(
        line.contains("\"budget\":{"),
        "budget_exceeded frame must carry spend accounting: {line}"
    );
    assert_ring_events_are_lines(&stream, since);
}

#[test]
fn ring_alone_records_every_metric_a_collector_records() {
    let _guard = ring_lock();
    let sc = build(30, 2, 7);
    let config = |collect_metrics| SagPipelineConfig {
        collect_metrics,
        ..Default::default()
    };
    let collected = run_sag_with(&sc, config(true)).expect("feasible").metrics;
    let since = last_epoch();
    sag_obs::ring::configure(4096); // far above the run's ~40 events
    run_sag_with(&sc, config(false)).expect("feasible");
    let snap = sag_obs::ring::snapshot();
    sag_obs::ring::configure(0);
    // The registry is process-wide: keep the events of this run.
    let events: Vec<Event> = snap
        .events
        .iter()
        .filter(|e| since.is_none_or(|s| e.epoch > s))
        .map(|e| e.event)
        .collect();
    assert!(events.len() < 4096, "the ring overflowed");
    let recorded: HashSet<_> = events
        .iter()
        .filter_map(|e| match *e {
            Event::Counter(name, _, stage) => Some(("counter", name, stage)),
            Event::Gauge(name, _, stage) => Some(("gauge", name, stage)),
            _ => None,
        })
        .collect();
    let counters = collected
        .counters
        .iter()
        .map(|&(n, s, _)| ("counter", n, s));
    let gauges = collected.gauges.iter().map(|&(n, s, _)| ("gauge", n, s));
    let wanted: Vec<_> = counters.chain(gauges).collect();
    assert!(wanted.iter().any(|(_, n, _)| n.starts_with("ledger.")));
    let missing: Vec<_> = wanted.iter().filter(|w| !recorded.contains(*w)).collect();
    assert!(missing.is_empty(), "the ring alone missed {missing:?}");
    let zone_spans: Vec<SpanMeta> = events
        .iter()
        .filter_map(|e| match *e {
            Event::SpanEnter(s) | Event::SpanExit(s, _) if s.name == "zone_solve" => Some(s),
            _ => None,
        })
        .collect();
    assert!(
        !zone_spans.is_empty(),
        "no zone_solve span reached the ring"
    );
    assert!(
        zone_spans.iter().all(|s| s.zone.is_some()),
        "a zone_solve span event lost its zone: {zone_spans:?}"
    );
}

#[test]
fn ledger_desync_dumps_exactly_once() {
    let _guard = ring_lock();
    let sc = build(6, 2, 3);
    let (depart, unlimited) = (ChurnEvent::SsDepart { subscriber: 1 }, Budget::unlimited());
    // The same event on a clean engine first: its events stay in the
    // rings, and the frame below may not carry them.
    let mut clean = ChurnEngine::new(&sc, ChurnConfig::default()).expect("seed solve");
    capture(|| clean.apply_event(depart, &unlimited).expect("clean event"));
    let mut eng = ChurnEngine::new(&sc, ChurnConfig::default()).expect("seed solve");
    eng.skew_ledger(0, 1e12);
    let mut outcome = Ok(());
    let since = last_epoch();
    let stream = capture(|| {
        outcome = eng.apply_event(depart, &unlimited);
    });
    assert!(
        matches!(outcome, Err(SagError::LedgerDesync(_))),
        "expected LedgerDesync, got {outcome:?}"
    );
    assert_frames(&stream, &["ledger_desync"]);
    assert_ring_events_are_lines(&stream, since);
}

#[test]
fn churn_deferral_dumps_a_degradation_frame() {
    let _guard = ring_lock();
    let sc = build(7, 2, 5);
    let mut eng = ChurnEngine::new(&sc, ChurnConfig::default()).expect("seed solve");
    let to = sag_geom::Point::new(
        sc.subscribers[0].position.x + 5.0,
        sc.subscribers[0].position.y,
    );
    let starved = Budget::unlimited().with_deadline(Duration::ZERO);
    let stream = capture(|| {
        eng.apply_event(ChurnEvent::SsMove { subscriber: 0, to }, &starved)
            .expect("starved events defer, never fail");
    });
    assert!(
        eng.report().rung_count(RepairRung::Deferred) >= 1,
        "a zero deadline must land on the Deferred rung"
    );
    let report = assert_frames(&stream, &["churn_deferred"]);
    assert_eq!(report.post_mortems[0].stage.as_deref(), Some("churn"));
    // A flush of that backlog whose worker dies dumps its own events
    // only, not the deferred event's.
    let since = last_epoch();
    sag_core::engine::inject_zone_worker_panic(true);
    let mut outcome = Ok(0);
    let stream = capture(|| outcome = eng.flush());
    sag_core::engine::inject_zone_worker_panic(false);
    assert!(
        matches!(outcome, Err(SagError::WorkerPanic { .. })),
        "expected WorkerPanic, got {outcome:?}"
    );
    assert_frames(&stream, &["worker_panic"]);
    assert_ring_events_are_lines(&stream, since);
}

#[test]
fn analyzer_survives_truncated_and_interleaved_streams() {
    let _guard = ring_lock();
    let sc = build(8, 2, 7);
    let stream = capture(|| {
        run_sag_with(
            &sc,
            SagPipelineConfig {
                threads: 4,
                ..Default::default()
            },
        )
        .expect("scenario is feasible");
    });
    // Truncation at any byte (a crashed process mid-write) must never
    // panic the analyzer; at most the cut line goes malformed.
    for frac in [0.15, 0.5, 0.85] {
        let cut = (stream.len() as f64 * frac) as usize;
        let report = trace::analyze_str(&stream[..cut]);
        assert!(
            report.malformed <= 1,
            "truncation made {} lines malformed",
            report.malformed
        );
    }
    // Two runs' streams interleaved line by line (concurrent captures
    // sharing one file): span ids are process-unique, so the analyzer
    // sees two disjoint trees, not a corrupted one.
    let second = capture(|| {
        run_sag_with(&sc, SagPipelineConfig::default()).expect("scenario is feasible");
    });
    let mut merged = String::new();
    let (mut a, mut b) = (stream.lines(), second.lines());
    loop {
        match (a.next(), b.next()) {
            (None, None) => break,
            (x, y) => {
                for line in [x, y].into_iter().flatten() {
                    merged.push_str(line);
                    merged.push('\n');
                }
            }
        }
    }
    let report = trace::analyze_str(&merged);
    assert_eq!(report.malformed, 0);
    assert_eq!(report.roots.len(), 2, "two runs = two roots");
    assert!(report.orphans.is_empty());
}

#[test]
fn validator_and_analyzer_survive_byte_flip_fuzz() {
    let _guard = ring_lock();
    let _catalogued = Fault::ObsSinkFail; // the corruption family realised here
    let sc = build(6, 2, 13);
    sag_core::engine::inject_zone_worker_panic(true);
    let stream = capture(|| {
        let _ = run_sag_with(&sc, SagPipelineConfig::default());
    });
    sag_core::engine::inject_zone_worker_panic(false);
    assert!(stream.contains("\"kind\":\"post_mortem\""));
    let mut rng = Rng::seed_from_u64(0xF1A9);
    let mut rejected = 0usize;
    for _ in 0..300 {
        let mut bytes = stream.clone().into_bytes();
        flip_byte(&mut rng, &mut bytes);
        let corrupted = String::from_utf8_lossy(&bytes).into_owned();
        // Neither the validator nor the analyzer may panic on any
        // corrupted line; invalid lines are counted, not fatal.
        let mut any_invalid = false;
        for line in corrupted.lines().filter(|l| !l.trim().is_empty()) {
            if sag_obs::json::validate(line).is_err() {
                any_invalid = true;
            }
            let _ = sag_obs::json::field_str(line, "kind");
            let _ = sag_obs::json::field_u64(line, "id");
        }
        let report = trace::analyze_str(&corrupted);
        if any_invalid {
            rejected += 1;
            assert!(report.malformed >= 1);
        }
    }
    assert!(
        rejected > 0,
        "300 byte flips never produced an invalid line — fuzz is toothless"
    );
}
