//! Flight recorder: bounded, allocation-free per-thread event rings.
//!
//! When armed (capacity > 0), every span/counter/gauge/observe event
//! is additionally copied into a fixed-capacity ring owned by the
//! recording thread — even when no [`crate::Recorder`] is installed —
//! so a post-mortem frame can always show what the failing run was
//! doing. Each event carries a process-global epoch (one relaxed
//! `fetch_add`), so rings from the coordinator and its fan-out workers
//! merge into one totally ordered timeline.
//!
//! Cost model: the disarmed check is one relaxed atomic load (stacked
//! on the recorder-disabled check, the fully-off instrumentation path
//! stays at two relaxed loads plus a thread-local flag read). The
//! armed path is one epoch `fetch_add`, one uncontended per-thread
//! mutex lock and one slot overwrite — no allocation after the ring's
//! one-time creation.
//!
//! Arm it with `SAG_OBS_RING=<capacity>` (picked up by
//! [`crate::init_from_env`]) or programmatically with [`configure`];
//! `0` disarms. Overwritten events are counted per ring and surfaced
//! in aggregate by [`overflow_total`] (the `run_end` JSONL trailer
//! reports it as `ring_overflow`).

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant};

use crate::recorder::SpanMeta;

/// Ring capacity in events; 0 = flight recorder off.
static CAPACITY: AtomicUsize = AtomicUsize::new(0);
/// Process-global event sequence number (total order across threads).
static EPOCH: AtomicU64 = AtomicU64::new(0);
/// Overflow carried by rings that were pruned from the registry.
static PRUNED_OVERFLOW: AtomicU64 = AtomicU64::new(0);
/// Every live ring, in registration order.
static REGISTRY: Mutex<Vec<Arc<Mutex<RingBuf>>>> = Mutex::new(Vec::new());
/// Monotonic time base shared by all rings.
static T0: OnceLock<Instant> = OnceLock::new();

/// Registry size above which orphaned rings (their thread exited) are
/// pruned. Generously above any per-run thread count, so the rings of
/// freshly dead workers survive until the dump that needs them.
const PRUNE_THRESHOLD: usize = 64;

static NEXT_THREAD_ORDINAL: AtomicU64 = AtomicU64::new(0);
thread_local! {
    /// Small stable per-thread id for event attribution
    /// (`std::thread::ThreadId` has no stable numeric accessor).
    /// Shared with the JSONL sink so ring and sink timelines agree.
    static THREAD_ORDINAL: u64 = NEXT_THREAD_ORDINAL.fetch_add(1, Ordering::Relaxed);
    /// This thread's ring, created lazily on first armed record.
    static RING: RefCell<Option<Arc<Mutex<RingBuf>>>> = const { RefCell::new(None) };
}

/// This thread's stable per-process ordinal.
pub(crate) fn thread_ordinal() -> u64 {
    THREAD_ORDINAL.with(|t| *t)
}

/// Nanoseconds since the process-wide ring time base.
pub(crate) fn t_ns() -> u64 {
    T0.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// What kind of event a ring slot holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RingKind {
    /// A span opened (`a` = span id, `b` = parent id or 0).
    SpanEnter,
    /// A span closed (`a` = span id, `b` = duration in ns).
    SpanExit,
    /// A counter increment (`a` = delta).
    Counter,
    /// A gauge update (`a` = the `f64` value's bit pattern).
    Gauge,
    /// A histogram observation (`a` = value).
    Observe,
}

impl RingKind {
    /// Stable lower-case name (what dump frames render).
    pub fn as_str(self) -> &'static str {
        match self {
            RingKind::SpanEnter => "span_enter",
            RingKind::SpanExit => "span_exit",
            RingKind::Counter => "counter",
            RingKind::Gauge => "gauge",
            RingKind::Observe => "observe",
        }
    }
}

/// One captured event. `a`/`b` are per-kind payloads (see
/// [`RingKind`]); `depth` is only meaningful for span events.
#[derive(Debug, Clone, Copy)]
pub struct RingEvent {
    /// Process-global sequence number (merge key across threads).
    pub epoch: u64,
    /// Nanoseconds since the ring time base.
    pub t_ns: u64,
    /// Recording thread's per-process ordinal.
    pub thread: u64,
    /// Event kind (fixes the meaning of `a`/`b`).
    pub kind: RingKind,
    /// Event name.
    pub name: &'static str,
    /// Innermost open span at record time, if any.
    pub stage: Option<&'static str>,
    /// First payload word.
    pub a: u64,
    /// Second payload word.
    pub b: u64,
    /// 1-based span depth (0 for metric events).
    pub depth: u32,
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

/// Is the flight recorder armed?
#[inline]
pub fn active() -> bool {
    CAPACITY.load(Ordering::Relaxed) != 0
}

/// Sets the per-thread ring capacity (0 disarms). Rings that already
/// exist keep their creation-time capacity; new threads pick up the
/// new value.
pub fn configure(capacity: usize) {
    CAPACITY.store(capacity, Ordering::SeqCst);
}

/// Reads `SAG_OBS_RING` and arms the recorder accordingly; unset,
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

/// Records one event into this thread's ring (no-op when disarmed).
fn record(
    kind: RingKind,
    name: &'static str,
    stage: Option<&'static str>,
    a: u64,
    b: u64,
    depth: u32,
) {
    let cap = CAPACITY.load(Ordering::Relaxed);
    if cap == 0 {
        return;
    }
    let ev = RingEvent {
        epoch: EPOCH.fetch_add(1, Ordering::Relaxed),
        t_ns: t_ns(),
        thread: thread_ordinal(),
        kind,
        name,
        stage,
        a,
        b,
        depth,
    };
    RING.with(|slot| {
        let mut slot = slot.borrow_mut();
        let ring = slot.get_or_insert_with(|| {
            let ring = Arc::new(Mutex::new(RingBuf::new(cap)));
            register(ring.clone());
            ring
        });
        ring.lock().unwrap_or_else(PoisonError::into_inner).push(ev);
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

pub(crate) fn record_span_enter(meta: &SpanMeta) {
    record(
        RingKind::SpanEnter,
        meta.name,
        None,
        meta.id,
        meta.parent.unwrap_or(0),
        meta.depth as u32,
    );
}

pub(crate) fn record_span_exit(meta: &SpanMeta, dur: Duration) {
    record(
        RingKind::SpanExit,
        meta.name,
        None,
        meta.id,
        dur.as_nanos() as u64,
        meta.depth as u32,
    );
}

pub(crate) fn record_metric(
    kind: RingKind,
    name: &'static str,
    stage: Option<&'static str>,
    a: u64,
) {
    record(kind, name, stage, a, 0, 0);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `CAPACITY` is process-global, so the tests that flip it must
    /// not interleave under the parallel test runner.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    /// The ring registry is process-global, so tests (which cargo runs
    /// on parallel threads) assert on their own thread's events only.
    fn my_events(snap: &RingSnapshot) -> Vec<RingEvent> {
        let me = thread_ordinal();
        snap.events
            .iter()
            .filter(|e| e.thread == me)
            .copied()
            .collect()
    }

    #[test]
    fn disarmed_ring_records_nothing() {
        let _serial = TEST_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        record_metric(RingKind::Counter, "ring.disarmed_probe", None, 1);
        let snap = snapshot();
        assert!(my_events(&snap)
            .iter()
            .all(|e| e.name != "ring.disarmed_probe"));
    }

    #[test]
    fn armed_ring_captures_bounded_history_and_counts_overflow() {
        let _serial = TEST_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        configure(4);
        for i in 0..10u64 {
            record_metric(RingKind::Observe, "ring.bounded_probe", Some("stage"), i);
        }
        let snap = snapshot();
        configure(0);
        let mine: Vec<_> = my_events(&snap)
            .into_iter()
            .filter(|e| e.name == "ring.bounded_probe")
            .collect();
        // This thread's ring holds 4 slots; only the newest survive
        // (the ring may also hold this thread's events from other
        // tests, so "last 4 of 10" is the upper bound that matters).
        assert!(
            mine.len() <= 4,
            "ring must stay bounded, got {}",
            mine.len()
        );
        let values: Vec<u64> = mine.iter().map(|e| e.a).collect();
        assert!(values.contains(&9), "newest event must survive: {values:?}");
        assert!(!values.contains(&0), "oldest event must be overwritten");
        assert!(snap.overflow >= 6, "10 events into 4 slots lose >= 6");
        // Epochs strictly increase within a thread's timeline.
        assert!(mine.windows(2).all(|w| w[0].epoch < w[1].epoch));
    }

    #[test]
    fn rings_merge_across_threads_by_epoch() {
        let _serial = TEST_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        configure(16);
        record_metric(RingKind::Counter, "ring.merge_probe", None, 1);
        std::thread::scope(|s| {
            s.spawn(|| {
                record_metric(RingKind::Counter, "ring.merge_probe", None, 2);
            });
        });
        record_metric(RingKind::Counter, "ring.merge_probe", None, 3);
        let snap = snapshot();
        configure(0);
        let probe: Vec<_> = snap
            .events
            .iter()
            .filter(|e| e.name == "ring.merge_probe")
            .collect();
        assert!(probe.len() >= 3);
        assert!(snap.events.windows(2).all(|w| w[0].epoch <= w[1].epoch));
        // The worker's event came from a different thread ordinal.
        let threads: std::collections::HashSet<u64> = probe.iter().map(|e| e.thread).collect();
        assert!(threads.len() >= 2);
    }
}
