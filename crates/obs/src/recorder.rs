//! The [`Recorder`] trait, the two dispatch scopes (global +
//! thread-local) behind every instrumentation call, and the one event
//! model ([`Event`], its renderer and the trace clock) that the JSONL
//! sink and the flight recorder share.

use std::cell::{Cell, RefCell};
use std::fmt::{self, Write as _};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock, PoisonError, RwLock};
use std::time::{Duration, Instant};

use crate::forensics::PostMortem;
use crate::json;
use crate::metrics::StageMetrics;

/// Identity and linkage of one span, passed to the span hooks.
///
/// `id` is unique per process; `parent` is the id of the span that was
/// innermost when this one opened — on the same thread via the span
/// stack, or across threads via [`crate::par_indexed`]'s worker
/// handoff — so a JSONL stream can be reassembled into one tree at any
/// thread count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanMeta {
    /// Span name.
    pub name: &'static str,
    /// 1-based nesting depth on the opening thread.
    pub depth: usize,
    /// Process-unique span id (never 0).
    pub id: u64,
    /// Id of the enclosing span, if any.
    pub parent: Option<u64>,
    /// Zone index this span is attributed to, if any (see
    /// [`crate::span_zone`]).
    pub zone: Option<u64>,
}

/// One span or metric event, holding what its [`Recorder`] hook
/// received: what the JSONL sink writes as a line and the flight
/// recorder keeps in a ring slot (see [`crate::ring`]). Metric events
/// hold `(name, value, stage)`, in the hooks' argument order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Event {
    /// A span opened.
    SpanEnter(SpanMeta),
    /// A span closed after the given wall time.
    SpanExit(SpanMeta, Duration),
    /// A counter's name, the delta added to it, and its stage.
    Counter(&'static str, u64, Option<&'static str>),
    /// A gauge's name, its new value, and its stage.
    Gauge(&'static str, f64, Option<&'static str>),
    /// A histogram's name, the observed value, and its stage.
    Observe(&'static str, u64, Option<&'static str>),
}

impl Event {
    /// Appends the event as one JSON object: the fields
    /// [`open_object`] writes, then a span's `name`, `depth`, `id`,
    /// `parent` and `zone` when present and `dur_ns` on exit, or a
    /// metric's `name`, `stage` when known and `value`.
    pub(crate) fn render_into(
        &self,
        out: &mut String,
        tag: impl fmt::Display,
        t_ns: u64,
        thread: u64,
    ) {
        let kind = match self {
            Event::SpanEnter(_) => "span_enter",
            Event::SpanExit(..) => "span_exit",
            Event::Counter(..) => "counter",
            Event::Gauge(..) => "gauge",
            Event::Observe(..) => "observe",
        };
        open_object(out, kind, tag, t_ns, thread);
        match *self {
            Event::SpanEnter(span) => span_fields(out, &span),
            Event::SpanExit(span, dur) => {
                span_fields(out, &span);
                let _ = write!(out, ",\"dur_ns\":{}", dur.as_nanos());
            }
            Event::Counter(name, value, stage) | Event::Observe(name, value, stage) => {
                metric_fields(out, name, stage);
                let _ = write!(out, "{value}");
            }
            Event::Gauge(name, value, stage) => {
                metric_fields(out, name, stage);
                json::number_into(out, value);
            }
        }
        out.push('}');
    }
}

/// A span's `name`, `depth` and `id`, plus `parent` and `zone` when
/// present.
fn span_fields(out: &mut String, span: &SpanMeta) {
    out.push_str(",\"name\":");
    json::escape_into(out, span.name);
    let _ = write!(out, ",\"depth\":{},\"id\":{}", span.depth, span.id);
    if let Some(parent) = span.parent {
        let _ = write!(out, ",\"parent\":{parent}");
    }
    if let Some(zone) = span.zone {
        let _ = write!(out, ",\"zone\":{zone}");
    }
}

/// A metric's `name`, its `stage` when known, and the `value` key.
fn metric_fields(out: &mut String, name: &str, stage: Option<&str>) {
    out.push_str(",\"name\":");
    json::escape_into(out, name);
    if let Some(stage) = stage {
        out.push_str(",\"stage\":");
        json::escape_into(out, stage);
    }
    out.push_str(",\"value\":");
}

/// Opens the JSON object of one trace record with the fields that
/// every JSONL line after the header and every ring event start with:
/// `kind`, the caller's `tag` field (a line's `"run":"<id>"`, a ring
/// slot's `"epoch":<n>`), `t_ns` on the trace clock and `thread`.
pub(crate) fn open_object(
    out: &mut String,
    kind: &str,
    tag: impl fmt::Display,
    t_ns: u64,
    thread: u64,
) {
    let _ = write!(
        out,
        "{{\"kind\":\"{kind}\",{tag},\"t_ns\":{t_ns},\"thread\":{thread}"
    );
}

/// Origin of the trace clock: the process's first reading of it.
static T0: OnceLock<Instant> = OnceLock::new();
static NEXT_THREAD_ORDINAL: AtomicU64 = AtomicU64::new(0);

/// Monotonic nanoseconds on the trace clock, the one `t_ns` origin of
/// JSONL lines and ring events.
pub(crate) fn t_ns() -> u64 {
    T0.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// This thread's small, stable per-process ordinal (the `thread`
/// field; `std::thread::ThreadId` has no stable numeric accessor).
pub(crate) fn thread_ordinal() -> u64 {
    thread_local! {
        static ORDINAL: u64 = NEXT_THREAD_ORDINAL.fetch_add(1, Ordering::Relaxed);
    }
    ORDINAL.with(|t| *t)
}

/// Sink for observability events.
///
/// All methods default to no-ops, so a recorder only implements what
/// it cares about. Implementations must be cheap, must not panic and
/// must not call back into the `sag-obs` recording entry points.
pub trait Recorder: Send + Sync {
    /// The span `span` opened.
    fn span_enter(&self, span: &SpanMeta) {
        let _ = span;
    }

    /// The span `span` closed after `dur`.
    fn span_exit(&self, span: &SpanMeta, dur: Duration) {
        let _ = (span, dur);
    }

    /// `delta` added to the counter `name`; `stage` is the innermost
    /// open span on the recording thread, if any.
    fn counter(&self, name: &'static str, delta: u64, stage: Option<&'static str>) {
        let _ = (name, delta, stage);
    }

    /// Gauge `name` set to `value`.
    fn gauge(&self, name: &'static str, value: f64, stage: Option<&'static str>) {
        let _ = (name, value, stage);
    }

    /// One histogram observation of `value` under `name`.
    fn observe(&self, name: &'static str, value: u64, stage: Option<&'static str>) {
        let _ = (name, value, stage);
    }

    /// A structured post-mortem frame (see [`crate::post_mortem`]).
    fn post_mortem(&self, dump: &PostMortem) {
        let _ = dump;
    }

    /// True for aggregating recorders whose fan-out worker events must
    /// be buffered per index and folded in index order (via
    /// [`Recorder::absorb`], see [`crate::par_indexed`]) instead of
    /// being recorded live from racing worker threads. Streaming
    /// recorders (the JSONL sink) stay live and keep their per-thread
    /// attribution.
    fn buffered(&self) -> bool {
        false
    }

    /// Folds an independently aggregated summary into this recorder —
    /// the merge half of the [`Recorder::buffered`] contract.
    fn absorb(&self, metrics: &StageMetrics) {
        let _ = metrics;
    }
}

/// Count of globally installed recorders — the disabled-path check is
/// one relaxed load of this.
static GLOBAL_ACTIVE: AtomicUsize = AtomicUsize::new(0);
static NEXT_GLOBAL_ID: AtomicU64 = AtomicU64::new(0);
#[allow(clippy::type_complexity)]
static GLOBALS: RwLock<Vec<(u64, Arc<dyn Recorder>)>> = RwLock::new(Vec::new());

thread_local! {
    /// Recorders active only on this thread (see [`with_local`]).
    static LOCALS: RefCell<Vec<Arc<dyn Recorder>>> = const { RefCell::new(Vec::new()) };
    /// Cheap mirror of `LOCALS.len()` for the disabled-path check.
    static LOCAL_ACTIVE: Cell<usize> = const { Cell::new(0) };
    /// `(name, id)` of the open spans on this thread, innermost last.
    static SPAN_STACK: RefCell<Vec<(&'static str, u64)>> = const { RefCell::new(Vec::new()) };
    /// Cross-thread seed consulted when `SPAN_STACK` is empty:
    /// `(parent span id or 0, enclosing stage)` — see
    /// [`with_span_context`].
    static SEED: Cell<(u64, Option<&'static str>)> = const { Cell::new((0, None)) };
}

/// Is any recorder (global or local to this thread) active?
#[inline]
pub fn enabled() -> bool {
    GLOBAL_ACTIVE.load(Ordering::Relaxed) != 0 || LOCAL_ACTIVE.with(|c| c.get() != 0)
}

/// Installs a process-wide recorder; it stays active until the
/// returned guard is dropped. Every thread's events reach it.
pub fn install(rec: Arc<dyn Recorder>) -> RecorderGuard {
    let id = NEXT_GLOBAL_ID.fetch_add(1, Ordering::Relaxed);
    GLOBALS
        .write()
        .unwrap_or_else(PoisonError::into_inner)
        .push((id, rec));
    GLOBAL_ACTIVE.fetch_add(1, Ordering::SeqCst);
    RecorderGuard { id }
}

/// Uninstalls its recorder on drop (returned by [`install`]).
pub struct RecorderGuard {
    id: u64,
}

impl Drop for RecorderGuard {
    fn drop(&mut self) {
        GLOBALS
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .retain(|(id, _)| *id != self.id);
        GLOBAL_ACTIVE.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Runs `f` with `rec` active as a thread-local recorder.
///
/// Only events emitted by the current thread inside `f` reach `rec`,
/// which is what keeps parallel sweep workers from cross-mixing
/// events. The recorder is popped even if `f` panics.
pub fn with_local<T>(rec: Arc<dyn Recorder>, f: impl FnOnce() -> T) -> T {
    with_local_stack(std::slice::from_ref(&rec), f)
}

/// Snapshot of this thread's local recorder stack, outermost first.
///
/// Spawned workers do not inherit thread-local recorders; the
/// executor's `Handoff` captures the snapshot on the coordinating thread
/// and re-installs it per worker with [`with_local_stack`] (each
/// worker keeps its own span stack, so stage attribution stays
/// per-thread correct).
pub(crate) fn local_stack() -> Vec<Arc<dyn Recorder>> {
    LOCALS.with(|l| l.borrow().clone())
}

/// Runs `f` with every recorder in `stack` active as a thread-local
/// recorder (outermost first, matching [`local_stack`]). The recorders
/// are popped even if `f` panics.
pub(crate) fn with_local_stack<T>(stack: &[Arc<dyn Recorder>], f: impl FnOnce() -> T) -> T {
    struct PopGuard(usize);
    impl Drop for PopGuard {
        fn drop(&mut self) {
            LOCALS.with(|l| {
                let mut locals = l.borrow_mut();
                let keep = locals.len().saturating_sub(self.0);
                locals.truncate(keep);
            });
            LOCAL_ACTIVE.with(|c| c.set(c.get().saturating_sub(self.0)));
        }
    }
    LOCALS.with(|l| l.borrow_mut().extend(stack.iter().cloned()));
    LOCAL_ACTIVE.with(|c| c.set(c.get() + stack.len()));
    let _pop = PopGuard(stack.len());
    f()
}

/// Span linkage carried across thread boundaries.
///
/// The executor's `Handoff` captures it on the coordinating thread with
/// [`span_context`] and re-seeds it per worker with
/// [`with_span_context`], so spans opened at a worker's stack base
/// link to the coordinator's enclosing span (`parent`) and metrics
/// recorded before any worker span opens still attribute to the
/// coordinator's enclosing stage (`stage`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct SpanContext {
    /// Id of the enclosing span, if any.
    pub parent: Option<u64>,
    /// Name of the enclosing stage, if any.
    pub stage: Option<&'static str>,
}

/// The current thread's innermost span linkage (open span if any,
/// else the seeded cross-thread context).
pub(crate) fn span_context() -> SpanContext {
    let top = SPAN_STACK.with(|s| s.borrow().last().copied());
    match top {
        Some((name, id)) => SpanContext {
            parent: Some(id),
            stage: Some(name),
        },
        None => SEED.with(|s| {
            let (parent, stage) = s.get();
            SpanContext {
                parent: (parent != 0).then_some(parent),
                stage,
            }
        }),
    }
}

/// Runs `f` with `ctx` seeded as this thread's base span context; the
/// previous seed is restored even if `f` panics.
pub(crate) fn with_span_context<T>(ctx: SpanContext, f: impl FnOnce() -> T) -> T {
    struct Restore((u64, Option<&'static str>));
    impl Drop for Restore {
        fn drop(&mut self) {
            SEED.with(|s| s.set(self.0));
        }
    }
    let prev = SEED.with(|s| s.get());
    SEED.with(|s| s.set((ctx.parent.unwrap_or(0), ctx.stage)));
    let _restore = Restore(prev);
    f()
}

/// Dispatches `f` to every active recorder: thread-locals first, then
/// globals. Local recorders are cloned out one at a time so a
/// recorder can never observe the stack borrowed.
pub(crate) fn for_each(f: impl Fn(&dyn Recorder)) {
    if LOCAL_ACTIVE.with(|c| c.get() != 0) {
        let n = LOCALS.with(|l| l.borrow().len());
        for i in 0..n {
            let rec = LOCALS.with(|l| l.borrow().get(i).cloned());
            if let Some(rec) = rec {
                f(rec.as_ref());
            }
        }
    }
    if GLOBAL_ACTIVE.load(Ordering::Relaxed) != 0 {
        let globals = GLOBALS.read().unwrap_or_else(PoisonError::into_inner);
        for (_, rec) in globals.iter() {
            f(rec.as_ref());
        }
    }
}

/// The innermost open span name on this thread (falling back to the
/// seeded cross-thread stage), if any.
pub(crate) fn current_stage() -> Option<&'static str> {
    span_context().stage
}

/// The id a span opened now should link to as its parent.
pub(crate) fn current_parent() -> Option<u64> {
    span_context().parent
}

/// Names of the open spans on this thread, outermost first (the
/// "active span stack" a post-mortem frame captures).
pub(crate) fn stack_snapshot() -> Vec<(&'static str, u64)> {
    SPAN_STACK.with(|s| s.borrow().clone())
}

/// Pushes a span; returns its 1-based depth.
pub(crate) fn push_span(name: &'static str, id: u64) -> usize {
    SPAN_STACK.with(|s| {
        let mut stack = s.borrow_mut();
        stack.push((name, id));
        stack.len()
    })
}

/// Pops the innermost span if it matches `name` (tolerates misnested
/// guard drops rather than corrupting the stack).
pub(crate) fn pop_span(name: &'static str) {
    SPAN_STACK.with(|s| {
        let mut stack = s.borrow_mut();
        if stack.last().map(|&(n, _)| n) == Some(name) {
            stack.pop();
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Collector;

    #[test]
    fn install_and_drop_uninstall_the_recorder() {
        let c = Arc::new(Collector::default());
        let guard = install(c.clone());
        assert!(enabled());
        crate::counter("global.hits", 1);
        drop(guard);
        crate::counter("global.hits", 1); // after uninstall: not delivered to c
        assert_eq!(c.summary().counter("global.hits"), 1);
    }

    #[test]
    fn global_recorder_sees_other_threads() {
        let c = Arc::new(Collector::default());
        let guard = install(c.clone());
        std::thread::spawn(|| crate::counter("cross.thread", 2))
            .join()
            .expect("worker");
        drop(guard);
        assert_eq!(c.summary().counter("cross.thread"), 2);
    }

    #[test]
    fn local_stack_replays_into_spawned_workers() {
        let c = Arc::new(Collector::default());
        with_local(c.clone(), || {
            let stack = local_stack();
            assert_eq!(stack.len(), 1);
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    with_local_stack(&stack, || crate::counter("worker.thread", 3));
                    // Outside the scope the worker's events vanish again.
                    crate::counter("worker.after", 1);
                });
            });
        });
        let m = c.summary();
        assert_eq!(m.counter("worker.thread"), 3);
        assert_eq!(m.counter("worker.after"), 0);
    }

    #[test]
    fn local_recorder_is_invisible_to_other_threads() {
        let c = Arc::new(Collector::default());
        with_local(c.clone(), || {
            std::thread::spawn(|| crate::counter("other.thread", 1))
                .join()
                .expect("worker");
            crate::counter("this.thread", 1);
        });
        let m = c.summary();
        assert_eq!(m.counter("other.thread"), 0);
        assert_eq!(m.counter("this.thread"), 1);
    }

    #[test]
    fn span_context_links_workers_to_the_coordinator_span() {
        let c = Arc::new(Collector::default());
        with_local(c.clone(), || {
            let outer = crate::span("coordinator_stage");
            let ctx = span_context();
            assert_eq!(ctx.parent, Some(outer.id()));
            assert_eq!(ctx.stage, Some("coordinator_stage"));
            let stack = local_stack();
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    with_span_context(ctx, || {
                        with_local_stack(&stack, || {
                            // No span open on this worker yet: the seeded
                            // stage attributes the counter.
                            crate::counter("worker.pre_span", 1);
                            let child = crate::span("worker_stage");
                            assert_eq!(child.parent(), Some(outer.id()));
                        });
                    });
                    // Seed restored after the scope: no linkage leaks.
                    assert_eq!(span_context(), SpanContext::default());
                });
            });
        });
        let m = c.summary();
        assert_eq!(
            m.counters,
            vec![("worker.pre_span", Some("coordinator_stage"), 1)]
        );
    }

    #[test]
    fn nested_span_context_prefers_the_open_span() {
        with_span_context(
            SpanContext {
                parent: Some(7),
                stage: Some("seeded"),
            },
            || {
                assert_eq!(current_stage(), Some("seeded"));
                assert_eq!(current_parent(), Some(7));
                let c = Arc::new(Collector::default());
                with_local(c, || {
                    let s = crate::span("inner");
                    assert_eq!(s.parent(), Some(7)); // seeded parent adopted
                    assert_eq!(current_stage(), Some("inner"));
                    assert_eq!(current_parent(), Some(s.id()));
                });
            },
        );
    }
}
