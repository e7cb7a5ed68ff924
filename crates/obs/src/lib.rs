//! `sag-obs` — zero-dependency structured observability.
//!
//! The workspace is hermetic (no registry crates), so the usual
//! `tracing`/`metrics` stack is off the table; this crate is the
//! in-tree substitute. It provides six layers:
//!
//! 1. **Spans** — [`span`] returns an RAII guard that times a named,
//!    hierarchical region on the monotonic clock and reports
//!    enter/exit events to every active [`Recorder`]. Every span
//!    carries a process-unique id and its parent's id ([`SpanMeta`]);
//!    fan-outs run on [`par_indexed`], which hands the linkage to its
//!    workers, so a trace reassembles into one tree at any thread
//!    count.
//! 2. **Metrics** — [`counter`], [`gauge`] and [`observe`] record
//!    named counters, gauges and bucketed histogram samples. The
//!    [`Collector`] recorder aggregates them into a [`StageMetrics`]
//!    summary (what `SagReport::metrics` carries).
//! 3. **Sink** — [`JsonlSink`] renders every event as one JSON line
//!    (see `DESIGN.md` "Observability" for the schema). It is
//!    installed process-wide from the environment via
//!    [`init_from_env`]: `SAG_OBS_JSON=<path>` writes to a file,
//!    `SAG_OBS=1` writes to stderr.
//! 4. **Flight recorder** — the [`ring`] module's recorder keeps a
//!    bounded per-thread ring of recent [`Event`]s. `SAG_OBS_RING=<n>`
//!    or [`ring::configure`] installs it globally, so it captures
//!    history even when no other recorder is installed.
//! 5. **Forensics** — [`post_mortem`] renders a structured dump frame
//!    (failure class + span stack + ring timeline + budget spend) and
//!    fans it out through [`Recorder::post_mortem`]; typed failure
//!    boundaries across the workspace call it exactly once per
//!    failure.
//! 6. **Fan-out** — [`par_indexed`] and [`try_par_indexed`], the one
//!    scoped executor under zone solves and sweep cells (the solver
//!    crates spawn no thread of their own). Its docs hold the
//!    determinism contract: results and collected metrics are
//!    identical at any thread count.
//!
//! Every event takes one path: the entry points check [`enabled`] and
//! dispatch to each active recorder. The JSONL sink and the flight
//! recorder render an [`Event`] with the same fields on the same `t_ns`
//! clock, so a trace line and a post-mortem frame's ring event agree.
//!
//! # Cost model
//!
//! Recorders come in two scopes: **global** (process-wide, installed
//! with [`install`]; the flight recorder is one) and **thread-local**
//! (active only inside a [`with_local`] closure, so parallel sweeps do
//! not cross-mix events). When neither is active, every
//! instrumentation call short-circuits on the one [`enabled`] check —
//! a relaxed atomic load plus a thread-local flag read — with no
//! allocation, no clock read, no dispatch. Hot solver loops
//! additionally aggregate their counts in plain locals and flush once
//! per solve behind the same check, so the per-iteration cost is zero
//! even with recording enabled.
//!
//! Recorder implementations must never call back into this crate's
//! recording entry points (the dispatch loop is not re-entrant for
//! mutation) and must never panic; failures are dropped, not raised.

#![deny(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod forensics;
pub mod json;
mod metrics;
mod par;
mod recorder;
pub mod ring;
mod sink;
mod span;

pub use forensics::{Dump, PostMortem};
pub use metrics::{bucket_floor, Collector, HistSummary, SpanStat, StageMetrics};
pub use par::{par_indexed, try_par_indexed};
pub use recorder::{enabled, install, with_local, Event, Recorder, RecorderGuard, SpanMeta};
pub use sink::JsonlSink;
pub use span::{span, span_zone, Span};

use std::sync::Arc;

/// Adds `delta` to the named counter on every active recorder.
///
/// No-op (one [`enabled`] check) when no recorder is active or
/// `delta == 0`.
pub fn counter(name: &'static str, delta: u64) {
    if delta != 0 {
        dispatch(|r, stage| r.counter(name, delta, stage));
    }
}

/// Sets the named gauge to `value` on every active recorder.
pub fn gauge(name: &'static str, value: f64) {
    dispatch(|r, stage| r.gauge(name, value, stage));
}

/// Records one histogram observation of `value` under `name`.
pub fn observe(name: &'static str, value: u64) {
    dispatch(|r, stage| r.observe(name, value, stage));
}

/// Calls `hook` on every active recorder with the recording thread's
/// stage; one [`enabled`] check when none is active.
#[inline]
fn dispatch(hook: impl Fn(&dyn Recorder, Option<&'static str>)) {
    if enabled() {
        let stage = recorder::current_stage();
        recorder::for_each(|r| hook(r, stage));
    }
}

/// Renders a post-mortem frame for `dump` and dispatches it to every
/// active recorder (see [`forensics`]).
pub fn post_mortem(dump: &Dump<'_>) {
    forensics::post_mortem(dump);
}

/// A process-wide JSONL sink installed from the environment.
///
/// Keep it alive for the duration of the run; dropping it uninstalls
/// the sink. [`ObsSession::sink`] exposes the sink for a final
/// `dropped_events` report.
pub struct ObsSession {
    /// The installed sink (shared so callers can read drop counts).
    pub sink: Arc<JsonlSink>,
    _guard: RecorderGuard,
}

/// Installs a [`JsonlSink`] if the environment asks for one, and the
/// flight recorder if `SAG_OBS_RING` is set.
///
/// `SAG_OBS_JSON=<path>` selects a file sink (the path is truncated);
/// otherwise `SAG_OBS=1` selects a stderr sink. Returns `None` when
/// neither variable is set (the flight recorder, which works without a
/// sink, may still have been installed). A file that cannot be created
/// is reported on stderr and treated as "not configured" —
/// observability must never take the pipeline down.
pub fn init_from_env() -> Option<ObsSession> {
    ring::init_env();
    let sink = match std::env::var("SAG_OBS_JSON") {
        Ok(path) if !path.is_empty() => match JsonlSink::create(&path) {
            Ok(sink) => sink,
            Err(e) => {
                eprintln!("sag-obs: cannot open {path}: {e}; events will not be recorded");
                return None;
            }
        },
        _ => match std::env::var("SAG_OBS") {
            Ok(v) if v == "1" => JsonlSink::stderr(),
            _ => return None,
        },
    };
    let guard = install(sink.clone());
    Some(ObsSession {
        sink,
        _guard: guard,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn disabled_path_is_inert() {
        // No recorder active: nothing panics, nothing records.
        counter("t.counter", 3);
        gauge("t.gauge", 1.5);
        observe("t.hist", 7);
        let s = span("t.span");
        drop(s);
    }

    #[test]
    fn local_collector_sees_everything() {
        let c = Arc::new(Collector::default());
        with_local(c.clone(), || {
            let _outer = span("outer");
            counter("work", 2);
            counter("work", 3);
            gauge("level", 4.5);
            observe("size", 9);
            let _inner = span("inner");
        });
        let m = c.summary();
        assert_eq!(m.counter("work"), 5);
        assert_eq!(m.gauge("level"), Some(4.5));
        let span_names: Vec<_> = m.spans.iter().map(|s| s.name).collect();
        assert!(span_names.contains(&"outer") && span_names.contains(&"inner"));
        let h = m.histogram("size").expect("histogram recorded");
        assert_eq!((h.count, h.sum, h.max), (1, 9, 9));
    }

    #[test]
    fn with_local_scopes_recording() {
        let c = Arc::new(Collector::default());
        with_local(c.clone(), || counter("in", 1));
        counter("out", 1); // after the scope: not recorded
        let m = c.summary();
        assert_eq!(m.counter("in"), 1);
        assert_eq!(m.counter("out"), 0);
    }

    #[test]
    fn with_local_pops_on_panic() {
        let c = Arc::new(Collector::default());
        let r = std::panic::catch_unwind(|| {
            with_local(c.clone(), || {
                counter("before.panic", 1);
                panic!("boom");
            })
        });
        assert!(r.is_err());
        counter("after.panic", 1); // recorder must be popped by now
        let m = c.summary();
        assert_eq!(m.counter("before.panic"), 1);
        assert_eq!(
            m.counter("after.panic"),
            0,
            "local recorder leaked after panic"
        );
    }

    #[test]
    fn counters_carry_enclosing_stage() {
        let c = Arc::new(Collector::default());
        with_local(c.clone(), || {
            let _s = span("stage_a");
            counter("ops", 1);
        });
        let m = c.summary();
        assert_eq!(m.counters, vec![("ops", Some("stage_a"), 1)]);
    }

    #[test]
    fn span_durations_are_nonnegative_and_counted() {
        let c = Arc::new(Collector::default());
        with_local(c.clone(), || {
            for _ in 0..3 {
                let _s = span("loop");
                std::thread::sleep(Duration::from_micros(50));
            }
        });
        let m = c.summary();
        let s = m.span("loop").expect("span recorded");
        assert_eq!(s.count, 3);
        assert!(s.total >= Duration::from_micros(150));
    }
}
