//! The deterministic fan-out executor ([`par_indexed`],
//! [`try_par_indexed`]) and the worker `Handoff` behind it.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use crate::metrics::{Collector, StageMetrics};
use crate::recorder::{
    local_stack, span_context, with_local, with_local_stack, with_span_context, Recorder,
    SpanContext,
};

/// What a worker thread inherits from the thread that spawns it: the
/// span context and the live (streaming) recorders.
///
/// Buffered recorders stay behind. A worker's events reach them only
/// through the ordered fold of [`par_indexed`].
struct Handoff {
    ctx: SpanContext,
    live: Vec<Arc<dyn Recorder>>,
}

impl Handoff {
    /// Runs `f` under the captured span context and live recorders.
    /// Both are restored even if `f` panics.
    fn enter<T>(&self, f: impl FnOnce() -> T) -> T {
        with_span_context(self.ctx, || with_local_stack(&self.live, f))
    }
}

/// The calling thread's [`Handoff`] plus the buffered recorders it
/// leaves behind.
fn capture_split() -> (Handoff, Vec<Arc<dyn Recorder>>) {
    let (buffered, live) = local_stack().into_iter().partition(|r| r.buffered());
    let ctx = span_context();
    (Handoff { ctx, live }, buffered)
}

/// Runs `f(i)` for every `i in 0..n` on up to `threads` workers, each
/// claiming `lanes` indices at a time, and returns the outcomes in
/// index order: `Some(f(i))`, or `None` where `f(i)` panicked. Every
/// index runs, whatever fails.
///
/// The zone engine (`sag_core::engine`, through [`try_par_indexed`])
/// and the batched sweep (`sag_sim::batch`) both run on this executor,
/// so it owns their determinism contract.
///
/// # Determinism contract
///
/// * **Inline below two workers.** When `threads <= 1` or `n <= 1`,
///   the indices run on the calling thread in index order. Nothing is
///   spawned and no per-index collector is created, so every event
///   reaches the caller's recorders exactly once, directly.
/// * **Claims in index order.** Otherwise `min(threads, n)` scoped
///   workers each claim `lanes` consecutive indices per atomic fetch
///   and run the whole batch in order. Any index below a claimed index
///   has therefore been claimed too.
/// * **One trace tree.** Workers run under the coordinator's
///   `Handoff`: its span context and its live (streaming) recorders.
///   A span a worker opens parents under the coordinator's enclosing
///   span, and metrics recorded before it opens one attribute to the
///   coordinator's stage.
/// * **Buffered metrics fold in index order.** Buffered (aggregating)
///   recorders, such as the run's [`Collector`], are never written from
///   racing workers. Each index records into a private `Collector`;
///   after the join the summaries are absorbed in index order, which is
///   the order the inline path records them in. Collected metrics are
///   therefore identical at any thread count, down to gauge bits and
///   histogram sample order.
/// * **Contained panics.** A panic in `f(i)` is caught and reported as
///   index `i`'s failure. It never unwinds through the executor and
///   never hangs the join.
///
/// Results are identical at any thread count and lane width as long as
/// each `f(i)` is a pure function of `i` and shared read-only state.
pub fn par_indexed<T: Send>(
    n: usize,
    threads: usize,
    lanes: usize,
    f: impl Fn(usize) -> T + Sync,
) -> Vec<Option<T>> {
    fan_out(n, threads, lanes, None, &f)
}

/// [`par_indexed`] for fallible work that stops at the first failure.
///
/// Returns every value in index order, or the first failed index by
/// index together with `f`'s error (`None` when `f` panicked there).
/// Once any index fails, workers stop claiming new batches; indices
/// already claimed still run. The answer is deterministic, because
/// every index below a claimed one runs to completion.
pub fn try_par_indexed<T: Send, E: Send>(
    n: usize,
    threads: usize,
    lanes: usize,
    f: impl Fn(usize) -> Result<T, E> + Sync,
) -> Result<Vec<T>, (usize, Option<E>)> {
    let mut out = Vec::with_capacity(n);
    for (i, outcome) in fan_out(n, threads, lanes, Some(Result::is_err), &f)
        .into_iter()
        .enumerate()
    {
        match outcome {
            Some(Ok(v)) => out.push(v),
            Some(Err(e)) => return Err((i, Some(e))),
            // A panic, or (unreachably: claims are ordered) an index
            // nobody claimed below the first failure. Fail closed.
            None => return Err((i, None)),
        }
    }
    Ok(out)
}

/// The executor behind both entry points. `failed`, when given, marks
/// returned values that count as failures; a panic always counts, and
/// any failure stops further claims. Without it nothing stops.
fn fan_out<T: Send>(
    n: usize,
    threads: usize,
    lanes: usize,
    failed: Option<fn(&T) -> bool>,
    f: &(impl Fn(usize) -> T + Sync),
) -> Vec<Option<T>> {
    let run = |i: usize| catch_unwind(AssertUnwindSafe(|| f(i))).ok();
    let stops = |out: &Option<T>| failed.is_some_and(|failed| out.as_ref().is_none_or(failed));

    let workers = threads.min(n);
    if workers <= 1 {
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            let outcome = run(i);
            let stop = stops(&outcome);
            out.push(outcome);
            if stop {
                break;
            }
        }
        out.resize_with(n, || None);
        return out;
    }

    let (handoff, buffered) = capture_split();
    let lanes = lanes.max(1);
    // Neither atomic publishes data: outcomes travel through the join.
    let next = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let worker = || {
        let mut done: Vec<(usize, Option<T>, Option<StageMetrics>)> = Vec::new();
        handoff.enter(|| {
            while !stop.load(Ordering::Relaxed) {
                let start = next.fetch_add(lanes, Ordering::Relaxed);
                if start >= n {
                    break;
                }
                for i in start..(start + lanes).min(n) {
                    let (outcome, metrics) = if buffered.is_empty() {
                        (run(i), None)
                    } else {
                        let collector = Arc::new(Collector::default());
                        let outcome = with_local(collector.clone(), || run(i));
                        (outcome, Some(collector.summary()))
                    };
                    if stops(&outcome) {
                        stop.store(true, Ordering::Relaxed);
                    }
                    done.push((i, outcome, metrics));
                }
            }
        });
        done
    };
    let per_worker: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers).map(|_| scope.spawn(worker)).collect();
        // A worker can only die outside `catch_unwind` (a recorder
        // panicking); its indices then stay `None`, i.e. failed.
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_default())
            .collect()
    });

    let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
    let mut metrics: Vec<Option<StageMetrics>> = vec![None; n];
    for (i, outcome, summary) in per_worker.into_iter().flatten() {
        out[i] = outcome;
        metrics[i] = summary;
    }
    for summary in metrics.iter().flatten() {
        for recorder in &buffered {
            recorder.absorb(summary);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sag_testkit::prelude::*;
    use std::sync::Mutex;

    /// Everything a `Collector` aggregated that must not depend on the
    /// thread count: span names and counts (not durations), counters,
    /// gauge bits, histograms with raw sample order.
    fn fingerprint(m: &StageMetrics) -> String {
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
            out.push_str(&format!("hist:{name}:{stage:?}:{:?};", h.samples));
        }
        out
    }

    /// Instrumented work whose events depend on the index.
    fn work(i: usize) -> u64 {
        let _span = crate::span_zone("item", i as u64);
        crate::counter("par.items", 1);
        crate::counter(
            if i.is_multiple_of(2) {
                "par.even"
            } else {
                "par.odd"
            },
            i as u64,
        );
        crate::gauge("par.last", i as f64 * 0.1);
        crate::observe("par.index", i as u64);
        (i * i) as u64
    }

    /// Runs `par_indexed(work)` under a coordinator span and a local
    /// collector; returns the results and the metrics fingerprint.
    fn collected(n: usize, threads: usize, lanes: usize) -> (Vec<Option<u64>>, String) {
        let c = Arc::new(Collector::default());
        let out = with_local(c.clone(), || {
            let _outer = crate::span("coordinator");
            par_indexed(n, threads, lanes, work)
        });
        (out, fingerprint(&c.summary()))
    }

    prop! {
        /// The headline property: results and collected metrics at any
        /// thread count and lane width equal the inline run.
        #[cases(24)]
        fn results_and_metrics_match_the_inline_run(
            input in (0usize..40, 2usize..6, 1usize..5)
        ) {
            let (n, threads, lanes) = input;
            let (want, want_metrics) = collected(n, 1, lanes);
            prop_assert_eq!(
                &want,
                &(0..n).map(|i| Some((i * i) as u64)).collect::<Vec<_>>()
            );
            let (got, got_metrics) = collected(n, threads, lanes);
            prop_assert_eq!(&got, &want, "threads={} lanes={}", threads, lanes);
            prop_assert_eq!(
                &got_metrics,
                &want_metrics,
                "metrics diverged at threads={} lanes={}",
                threads,
                lanes
            );
        }

        /// Panics are per-index failures; the rest still run, once.
        #[cases(24)]
        fn panics_fail_only_their_own_index(
            input in (1usize..30, 1usize..5, 1usize..4, 2usize..5)
        ) {
            let (n, threads, lanes, every) = input;
            let runs: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            let out = par_indexed(n, threads, lanes, |i| {
                runs[i].fetch_add(1, Ordering::Relaxed);
                assert!(i % every != 0, "injected panic at {i}");
                i
            });
            for (i, outcome) in out.iter().enumerate() {
                let want = (i % every != 0).then_some(i);
                prop_assert_eq!(*outcome, want, "index {}", i);
                prop_assert_eq!(runs[i].load(Ordering::Relaxed), 1, "index {} ran", i);
            }
        }

        /// The first failure by index wins at any thread count, whether
        /// it is an error or a panic, and every index below it ran.
        #[cases(24)]
        fn first_failure_by_index_wins(
            input in (1usize..30, 1usize..5, 1usize..4, 0usize..30, 0usize..2)
        ) {
            let (n, threads, lanes, first, panics) = input;
            let runs: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            let got = try_par_indexed(n, threads, lanes, |i| {
                runs[i].fetch_add(1, Ordering::Relaxed);
                if i >= first {
                    assert!(panics == 0, "injected panic at {i}");
                    return Err(i);
                }
                Ok(i)
            });
            if first < n {
                let err = if panics == 0 { Some(first) } else { None };
                prop_assert_eq!(got, Err((first, err)));
            } else {
                prop_assert_eq!(got, Ok((0..n).collect::<Vec<_>>()));
            }
            for (i, count) in runs.iter().enumerate().take(first.min(n)) {
                prop_assert_eq!(count.load(Ordering::Relaxed), 1, "index {} ran", i);
            }
            for count in &runs {
                prop_assert!(count.load(Ordering::Relaxed) <= 1, "an index ran twice");
            }
        }
    }

    /// Counts how often the executor folds into it.
    #[derive(Default)]
    struct AbsorbCount(Mutex<usize>, Collector);

    impl Recorder for AbsorbCount {
        fn counter(&self, name: &'static str, delta: u64, stage: Option<&'static str>) {
            self.1.counter(name, delta, stage);
        }
        fn buffered(&self) -> bool {
            true
        }
        fn absorb(&self, metrics: &StageMetrics) {
            *self.0.lock().expect("count lock") += 1;
            self.1.absorb(metrics);
        }
    }

    #[test]
    fn only_worker_threads_fold_per_index_summaries() {
        // Inline: no thread, no per-index collector, each event once.
        let rec = Arc::new(AbsorbCount::default());
        let caller = std::thread::current().id();
        for (n, threads) in [(5, 1), (5, 0), (1, 4)] {
            let out = with_local(rec.clone(), || {
                par_indexed(n, threads, 2, |i| {
                    assert_eq!(std::thread::current().id(), caller);
                    crate::counter("inline.items", 1);
                    i
                })
            });
            assert_eq!(out, (0..n).map(Some).collect::<Vec<_>>());
        }
        assert_eq!(*rec.0.lock().expect("count lock"), 0, "no per-index fold");
        assert_eq!(rec.1.summary().counter("inline.items"), 11);

        // Workers: one folded summary per index.
        let rec = Arc::new(AbsorbCount::default());
        with_local(rec.clone(), || {
            par_indexed(6, 3, 1, |_| crate::counter("worker.items", 1));
        });
        assert_eq!(*rec.0.lock().expect("count lock"), 6);
        assert_eq!(rec.1.summary().counter("worker.items"), 6);
    }

    /// Records every span's linkage (a live, unbuffered recorder).
    #[derive(Default)]
    struct Links(Mutex<Vec<(&'static str, u64, Option<u64>)>>);

    impl Recorder for Links {
        fn span_enter(&self, span: &crate::SpanMeta) {
            self.0
                .lock()
                .expect("links lock")
                .push((span.name, span.id, span.parent));
        }
    }

    #[test]
    fn worker_spans_parent_under_the_coordinator_span() {
        for threads in [1, 4] {
            let links = Arc::new(Links::default());
            let root = with_local(links.clone(), || {
                let outer = crate::span("coordinator");
                par_indexed(8, threads, 2, |i| drop(crate::span_zone("item", i as u64)));
                outer.id()
            });
            let links = links.0.lock().expect("links lock");
            let items: Vec<_> = links.iter().filter(|(name, ..)| *name == "item").collect();
            assert_eq!(items.len(), 8, "threads={threads}");
            assert!(items.iter().all(|&&(_, _, parent)| parent == Some(root)));
        }
    }

    #[test]
    fn handoff_carries_live_recorders_but_not_buffered_ones() {
        let links = Arc::new(Links::default());
        let collector = Arc::new(Collector::default());
        with_local(links.clone(), || {
            with_local(collector.clone(), || {
                let outer = crate::span("coordinator");
                let (handoff, _buffered) = capture_split();
                std::thread::scope(|scope| {
                    scope.spawn(|| {
                        handoff.enter(|| {
                            crate::counter("worker.work", 1);
                            let inner = crate::span("worker");
                            assert_eq!(inner.parent(), Some(outer.id()));
                        });
                        // Outside `enter` no linkage leaks.
                        assert_eq!(span_context(), SpanContext::default());
                    });
                });
            });
        });
        assert_eq!(collector.summary().counter("worker.work"), 0);
        let names: Vec<_> = links
            .0
            .lock()
            .expect("links lock")
            .iter()
            .map(|l| l.0)
            .collect();
        assert_eq!(names, ["coordinator", "worker"]);
    }
}
