//! Hierarchical timed spans with cross-thread linkage.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use crate::recorder::{self, SpanMeta};

/// Process-wide span id allocator; 0 is reserved for "no span", so a
/// disarmed guard can carry id 0.
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

/// RAII guard for a timed region (returned by [`span`]).
///
/// Entering dispatches a `span_enter` event; dropping dispatches
/// `span_exit` with the monotonic-clock duration. When no recorder is
/// active at creation the guard is disarmed: no clock read, no stack
/// push, and the drop is free.
#[must_use = "a span only times the region while the guard is alive"]
pub struct Span {
    meta: SpanMeta,
    start: Option<Instant>,
}

impl Span {
    /// This span's process-unique id (0 when the guard is disarmed).
    pub fn id(&self) -> u64 {
        self.meta.id
    }

    /// The id of the enclosing span at creation, if any.
    pub fn parent(&self) -> Option<u64> {
        self.meta.parent
    }
}

/// Opens the span `name` until the returned guard drops.
pub fn span(name: &'static str) -> Span {
    span_impl(name, None)
}

/// Opens the span `name` attributed to zone `zone` — what the
/// parallel engine wraps each per-zone solve in, so a trace can
/// attribute wall time to zones.
pub fn span_zone(name: &'static str, zone: u64) -> Span {
    span_impl(name, Some(zone))
}

fn span_impl(name: &'static str, zone: Option<u64>) -> Span {
    if !crate::enabled() {
        return Span {
            meta: SpanMeta {
                name,
                depth: 0,
                id: 0,
                parent: None,
                zone,
            },
            start: None,
        };
    }
    let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    let parent = recorder::current_parent();
    let depth = recorder::push_span(name, id);
    let meta = SpanMeta {
        name,
        depth,
        id,
        parent,
        zone,
    };
    recorder::for_each(|r| r.span_enter(&meta));
    Span {
        meta,
        start: Some(Instant::now()),
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let dur = start.elapsed();
        recorder::for_each(|r| r.span_exit(&self.meta, dur));
        recorder::pop_span(self.meta.name);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Collector;
    use crate::with_local;
    use std::sync::Arc;

    #[test]
    fn nested_spans_report_depth_and_parent_links() {
        use std::sync::Mutex;
        use std::time::Duration;

        /// (name, depth, parent id, is_enter) per recorded event.
        type Event = (&'static str, usize, Option<u64>, bool);
        #[derive(Default)]
        struct Log(Mutex<Vec<Event>>);
        impl crate::Recorder for Log {
            fn span_enter(&self, span: &SpanMeta) {
                self.0
                    .lock()
                    .expect("lock")
                    .push((span.name, span.depth, span.parent, true));
            }
            fn span_exit(&self, span: &SpanMeta, _dur: Duration) {
                self.0
                    .lock()
                    .expect("lock")
                    .push((span.name, span.depth, span.parent, false));
            }
        }

        let rec = Arc::new(Log::default());
        let (a_id, b_parent) = with_local(rec.clone(), || {
            let a = span("a");
            let b = span("b");
            (a.id(), b.parent())
        });
        assert_eq!(b_parent, Some(a_id));
        let events = rec.0.lock().expect("lock").clone();
        assert_eq!(
            events,
            vec![
                ("a", 1, None, true),
                ("b", 2, Some(a_id), true),
                ("b", 2, Some(a_id), false),
                ("a", 1, None, false)
            ]
        );
    }

    #[test]
    fn span_ids_are_unique_and_nonzero() {
        let c = Arc::new(Collector::default());
        with_local(c, || {
            let a = span("a");
            let b = span("b");
            assert_ne!(a.id(), 0);
            assert_ne!(b.id(), 0);
            assert_ne!(a.id(), b.id());
        });
    }

    #[test]
    fn disarmed_span_records_nothing_after_recorder_arrives() {
        let disarmed = Span {
            meta: SpanMeta {
                name: "early",
                depth: 0,
                id: 0,
                parent: None,
                zone: None,
            },
            start: None, // what span() returns when recording is off
        };
        assert_eq!(disarmed.id(), 0);
        let c = Arc::new(Collector::default());
        with_local(c.clone(), || {
            drop(disarmed); // exit of a disarmed span must not dispatch
        });
        assert!(c.summary().span("early").is_none());
    }
}
