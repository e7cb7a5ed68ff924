//! Flight recorder: bounded, allocation-free per-thread event rings.
//!
//! The flight recorder is a [`Recorder`]. [`configure`] with a
//! capacity above 0 installs it globally and `0` uninstalls it;
//! [`crate::init_from_env`] calls it with `SAG_OBS_RING=<capacity>`.
//! Events reach it through the same dispatch as the JSONL sink and the
//! `Collector`, so it sees exactly what they see, even with neither
//! installed. Each slot keeps the [`Event`] its hook received, stamped
//! with the recording thread, a `t_ns` on the JSONL sink's clock and a
//! process-global epoch (one relaxed `fetch_add`), so rings from the
//! coordinator and its fan-out workers merge into one totally ordered
//! timeline. A post-mortem frame renders the failing run's part of that
//! timeline with the JSONL line schema (see [`crate::forensics`]).
//!
//! Cost model: while the flight recorder is installed, `enabled()` is
//! true, so every instrumentation call and every guarded flush runs and
//! reaches it. Each event costs the dispatch to global recorders, one
//! epoch `fetch_add`, one clock read, one uncontended per-thread mutex
//! lock and one slot overwrite, with no allocation after the ring's
//! one-time creation. Overwritten events are counted
//! per ring and surfaced in aggregate by [`overflow_total`] (the
//! `run_end` JSONL trailer reports it as `ring_overflow`).

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

use crate::recorder::{self, Event, Recorder, RecorderGuard, SpanMeta};

/// Ring capacity in events; 0 = flight recorder off.
static CAPACITY: AtomicUsize = AtomicUsize::new(0);
/// The installed flight recorder's guard, while the capacity is above 0.
static INSTALLED: Mutex<Option<RecorderGuard>> = Mutex::new(None);
/// Process-global event sequence number (total order across threads).
static EPOCH: AtomicU64 = AtomicU64::new(0);
/// Overflow carried by rings that were pruned from the registry.
static PRUNED_OVERFLOW: AtomicU64 = AtomicU64::new(0);
/// Every live ring, in registration order.
static REGISTRY: Mutex<Vec<Arc<Mutex<RingBuf>>>> = Mutex::new(Vec::new());

/// Registry size above which orphaned rings (their thread exited) are
/// pruned. Generously above any per-run thread count, so the rings of
/// freshly dead workers survive until the dump that needs them.
const PRUNE_THRESHOLD: usize = 64;

thread_local! {
    /// This thread's ring, created lazily on its first event.
    static RING: RefCell<Option<Arc<Mutex<RingBuf>>>> = const { RefCell::new(None) };
}

/// One ring slot: the event a recorder hook received, stamped when the
/// flight recorder recorded it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RingEvent {
    /// Process-global sequence number (merge key across threads).
    pub epoch: u64,
    /// Nanoseconds on the trace clock (the JSONL lines' `t_ns`).
    pub t_ns: u64,
    /// Recording thread's per-process ordinal.
    pub thread: u64,
    /// What the hook received.
    pub event: Event,
}

/// A merged view of every thread's ring (see [`snapshot`]).
#[derive(Debug, Clone, Default)]
pub struct RingSnapshot {
    /// All retained events, ascending by epoch.
    pub events: Vec<RingEvent>,
    /// How many events were overwritten (lost) across all rings.
    pub overflow: u64,
}

struct RingBuf {
    slots: Vec<RingEvent>,
    /// Index of the oldest slot once the ring has wrapped.
    head: usize,
    cap: usize,
    overflow: u64,
}

impl RingBuf {
    fn new(cap: usize) -> Self {
        RingBuf {
            slots: Vec::with_capacity(cap),
            head: 0,
            cap,
            overflow: 0,
        }
    }

    fn push(&mut self, ev: RingEvent) {
        if self.slots.len() < self.cap {
            self.slots.push(ev);
        } else {
            self.slots[self.head] = ev;
            self.head = (self.head + 1) % self.cap;
            self.overflow += 1;
        }
    }

    fn in_order(&self) -> impl Iterator<Item = &RingEvent> {
        self.slots[self.head..]
            .iter()
            .chain(&self.slots[..self.head])
    }
}

/// Sets the per-thread ring capacity; above 0 installs the flight
/// recorder, `0` uninstalls it. Rings that already exist keep their
/// creation-time capacity; new threads pick up the new value.
pub fn configure(capacity: usize) {
    let mut installed = INSTALLED.lock().unwrap_or_else(PoisonError::into_inner);
    CAPACITY.store(capacity, Ordering::SeqCst);
    if capacity == 0 {
        *installed = None;
    } else if installed.is_none() {
        *installed = Some(crate::install(Arc::new(FlightRecorder)));
    }
}

/// Reads `SAG_OBS_RING` and configures the ring accordingly; unset,
/// empty or unparseable values leave the current configuration alone
/// (observability must never take the pipeline down).
pub fn init_env() {
    if let Ok(v) = std::env::var("SAG_OBS_RING") {
        if let Ok(cap) = v.trim().parse::<usize>() {
            configure(cap);
        }
    }
}

/// Total events lost to ring overwrites so far, across all threads.
pub fn overflow_total() -> u64 {
    let rings = REGISTRY.lock().unwrap_or_else(PoisonError::into_inner);
    let live: u64 = rings
        .iter()
        .map(|r| r.lock().unwrap_or_else(PoisonError::into_inner).overflow)
        .sum();
    live + PRUNED_OVERFLOW.load(Ordering::Relaxed)
}

/// Merges every thread's retained events into one epoch-ordered
/// timeline.
pub fn snapshot() -> RingSnapshot {
    let rings = REGISTRY.lock().unwrap_or_else(PoisonError::into_inner);
    let mut events = Vec::new();
    let mut overflow = PRUNED_OVERFLOW.load(Ordering::Relaxed);
    for ring in rings.iter() {
        let ring = ring.lock().unwrap_or_else(PoisonError::into_inner);
        events.extend(ring.in_order().copied());
        overflow += ring.overflow;
    }
    events.sort_unstable_by_key(|e| e.epoch);
    RingSnapshot { events, overflow }
}

/// The flight recorder: the [`Recorder`] that [`configure`] installs.
struct FlightRecorder;

impl Recorder for FlightRecorder {
    fn span_enter(&self, span: &SpanMeta) {
        record(Event::SpanEnter(*span));
    }

    fn span_exit(&self, span: &SpanMeta, dur: Duration) {
        record(Event::SpanExit(*span, dur));
    }

    fn counter(&self, name: &'static str, delta: u64, stage: Option<&'static str>) {
        record(Event::Counter(name, delta, stage));
    }

    fn gauge(&self, name: &'static str, value: f64, stage: Option<&'static str>) {
        record(Event::Gauge(name, value, stage));
    }

    fn observe(&self, name: &'static str, value: u64, stage: Option<&'static str>) {
        record(Event::Observe(name, value, stage));
    }
}

/// Records `event` into this thread's ring. A no-op at capacity 0,
/// which a hook can still see while [`configure`] uninstalls the
/// flight recorder.
fn record(event: Event) {
    let cap = CAPACITY.load(Ordering::Relaxed);
    if cap == 0 {
        return;
    }
    let slot = RingEvent {
        epoch: EPOCH.fetch_add(1, Ordering::Relaxed),
        t_ns: recorder::t_ns(),
        thread: recorder::thread_ordinal(),
        event,
    };
    RING.with(|ring| {
        let mut ring = ring.borrow_mut();
        let ring = ring.get_or_insert_with(|| {
            let ring = Arc::new(Mutex::new(RingBuf::new(cap)));
            register(ring.clone());
            ring
        });
        ring.lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(slot);
    });
}

fn register(ring: Arc<Mutex<RingBuf>>) {
    let mut rings = REGISTRY.lock().unwrap_or_else(PoisonError::into_inner);
    if rings.len() >= PRUNE_THRESHOLD {
        // Drop rings whose thread has exited (only the registry still
        // holds them), oldest first, keeping their loss accounted.
        rings.retain(|r| {
            if Arc::strong_count(r) > 1 {
                return true;
            }
            let overflow = r.lock().unwrap_or_else(PoisonError::into_inner).overflow;
            PRUNED_OVERFLOW.fetch_add(overflow, Ordering::Relaxed);
            false
        });
    }
    rings.push(ring);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `CAPACITY` is process-global, so the tests that flip it must
    /// not interleave under the parallel test runner.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    /// The `(delta, stage)` of a ring event if it is the counter `name`.
    fn counted(e: &RingEvent, name: &str) -> Option<(u64, Option<&'static str>)> {
        match e.event {
            Event::Counter(n, delta, stage) if n == name => Some((delta, stage)),
            _ => None,
        }
    }

    #[test]
    fn disarmed_ring_records_nothing() {
        let _serial = TEST_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        crate::counter("ring.disarmed_probe", 1);
        drop(crate::span("ring.disarmed_span"));
        // The registry is process-global: look at this thread's events.
        let me = recorder::thread_ordinal();
        let recorded = snapshot().events.iter().any(|e| {
            e.thread == me
                && (counted(e, "ring.disarmed_probe").is_some()
                    || matches!(e.event, Event::SpanEnter(s) if s.name == "ring.disarmed_span"))
        });
        assert!(!recorded);
    }

    #[test]
    fn armed_ring_captures_bounded_history_and_counts_overflow() {
        let _serial = TEST_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        configure(4);
        // A fresh thread gets a fresh ring at this capacity.
        let (snap, me) = std::thread::scope(|s| {
            s.spawn(|| {
                let _stage = crate::span("stage");
                for i in 1..=10u64 {
                    crate::counter("ring.bounded_probe", i);
                }
                (snapshot(), recorder::thread_ordinal())
            })
            .join()
            .expect("probe thread")
        });
        configure(0);
        let mine: Vec<_> = snap.events.iter().filter(|e| e.thread == me).collect();
        let values: Vec<u64> = mine
            .iter()
            .filter_map(|e| counted(e, "ring.bounded_probe"))
            .map(|(delta, stage)| {
                assert_eq!(stage, Some("stage"));
                delta
            })
            .collect();
        // The ring holds 4 slots; only the newest events survive.
        assert!(
            mine.len() <= 4,
            "ring must stay bounded, got {}",
            mine.len()
        );
        assert!(
            values.contains(&10),
            "newest event must survive: {values:?}"
        );
        assert!(!values.contains(&1), "oldest event must be overwritten");
        assert!(snap.overflow >= 7, "11 events into 4 slots lose 7");
        // Epochs strictly increase within a thread's timeline.
        assert!(mine.windows(2).all(|w| w[0].epoch < w[1].epoch));
    }

    #[test]
    fn rings_merge_across_threads_by_epoch() {
        let _serial = TEST_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        configure(16);
        crate::counter("ring.merge_probe", 1);
        std::thread::scope(|s| {
            s.spawn(|| crate::counter("ring.merge_probe", 2));
        });
        crate::counter("ring.merge_probe", 3);
        let snap = snapshot();
        configure(0);
        let probe: Vec<_> = snap
            .events
            .iter()
            .filter(|e| counted(e, "ring.merge_probe").is_some())
            .collect();
        assert!(probe.len() >= 3);
        assert!(snap.events.windows(2).all(|w| w[0].epoch <= w[1].epoch));
        // The worker's event came from a different thread ordinal.
        let threads: std::collections::HashSet<u64> = probe.iter().map(|e| e.thread).collect();
        assert!(threads.len() >= 2);
    }
}
