//! Post-mortem dump frames: structured failure forensics.
//!
//! When a typed failure fires (any `SagError`/`LpError`, a worker
//! panic, a ledger desync, or a churn repair deferral), the owning
//! boundary calls [`crate::post_mortem`] with a [`Dump`] describing
//! the failure. The frame that results bundles everything needed to
//! reconstruct what the run was doing:
//!
//! * the failure class, detail, stage, zone and budget spend;
//! * the recording thread's active span stack (names + ids, so the
//!   frame links into the span tree);
//! * the failing run's part of the merged flight-recorder timeline
//!   (see [`crate::ring`]): the events recorded at or after the entry
//!   of the recording thread's outermost open span, on every thread,
//!   with the process-wide overflow count. Each ring event carries the
//!   fields of the JSONL line for the same event, `zone` included, with
//!   `epoch` in place of `run`, on the same `t_ns` clock.
//!
//! Frames are dispatched through the normal recorder fan-out via
//! [`crate::Recorder::post_mortem`], their one path; the JSONL sink
//! renders them as one `"kind":"post_mortem"` line under its
//! never-panic drop-and-count policy.

use crate::ring::{self, RingEvent};
use crate::{json, recorder, Event};

/// What a failing boundary reports (borrowed; the frame copies it).
#[derive(Debug, Clone, Copy, Default)]
pub struct Dump<'a> {
    /// Stable failure class, e.g. `worker_panic`, `budget_exceeded`,
    /// `ledger_desync`, `lp_error`, `churn_deferred`.
    pub class: &'a str,
    /// Pipeline stage the failure fired in, when known.
    pub stage: Option<&'a str>,
    /// Zone index the failure is attributed to, when known.
    pub zone: Option<u64>,
    /// Human-readable detail (typically the error's `Display`).
    pub detail: &'a str,
    /// Branch-and-bound nodes spent before the failure, when known.
    pub nodes_spent: Option<u64>,
    /// Wall time spent before the failure in ns, when known.
    pub elapsed_ns: Option<u64>,
}

/// A rendered post-mortem frame (what recorders receive).
#[derive(Debug, Clone)]
pub struct PostMortem {
    class: String,
    fields: String,
}

impl PostMortem {
    /// The failure class this frame reports.
    pub fn class(&self) -> &str {
        &self.class
    }

    /// The frame's fields as a comma-separated list of JSON
    /// `"key":value` pairs (no surrounding braces), ready for a sink
    /// to splice after its own line prefix.
    pub fn fields_json(&self) -> &str {
        &self.fields
    }

    /// The frame as one complete standalone JSON object.
    pub fn to_json(&self) -> String {
        format!("{{\"kind\":\"post_mortem\",{}}}", self.fields)
    }
}

/// Builds a post-mortem frame for `dump` and dispatches it to every
/// active recorder. Never panics; cost is irrelevant (failure path).
pub fn post_mortem(dump: &Dump<'_>) {
    let frame = render(dump);
    recorder::for_each(|r| r.post_mortem(&frame));
}

/// Renders `dump` into a frame without dispatching it (what
/// [`post_mortem`] builds; also lets callers inspect or persist a
/// frame out-of-band).
pub fn render(dump: &Dump<'_>) -> PostMortem {
    let mut f = String::with_capacity(512);
    f.push_str("\"class\":");
    json::escape_into(&mut f, dump.class);
    f.push_str(",\"detail\":");
    json::escape_into(&mut f, dump.detail);
    if let Some(stage) = dump.stage {
        f.push_str(",\"stage\":");
        json::escape_into(&mut f, stage);
    }
    if let Some(zone) = dump.zone {
        f.push_str(&format!(",\"zone\":{zone}"));
    }
    if dump.nodes_spent.is_some() || dump.elapsed_ns.is_some() {
        f.push_str(",\"budget\":{");
        let mut first = true;
        if let Some(nodes) = dump.nodes_spent {
            f.push_str(&format!("\"nodes\":{nodes}"));
            first = false;
        }
        if let Some(ns) = dump.elapsed_ns {
            if !first {
                f.push(',');
            }
            f.push_str(&format!("\"elapsed_ns\":{ns}"));
        }
        f.push('}');
    }
    f.push_str(",\"span_stack\":[");
    let stack = recorder::stack_snapshot();
    for (i, (name, id)) in stack.iter().enumerate() {
        if i > 0 {
            f.push(',');
        }
        f.push_str("{\"name\":");
        json::escape_into(&mut f, name);
        f.push_str(&format!(",\"id\":{id}}}"));
    }
    f.push(']');
    // The failing run's events: those at or after the entry of this
    // thread's outermost open span (all of them when none is open), as
    // rings keep earlier runs' events. If the ring overwrote that entry,
    // the frame starts at this thread's oldest retained event, and
    // `overflow` says the run lost events.
    let snap = ring::snapshot();
    let since = stack.first().map_or(0, |&(_, root)| {
        let me = recorder::thread_ordinal();
        let entry = |e: &&RingEvent| matches!(e.event, Event::SpanEnter(s) if s.id == root);
        let events = || snap.events.iter();
        let start = events()
            .find(entry)
            .or_else(|| events().find(|e| e.thread == me));
        start.map_or(0, |e| e.epoch)
    });
    f.push_str(&format!(
        ",\"ring\":{{\"overflow\":{},\"events\":[",
        snap.overflow
    ));
    let run = snap.events.iter().filter(|e| e.epoch >= since);
    for (i, ev) in run.enumerate() {
        if i > 0 {
            f.push(',');
        }
        // A JSONL line's fields, with the slot's `epoch` for `run`.
        let epoch = format_args!("\"epoch\":{}", ev.epoch);
        ev.event.render_into(&mut f, epoch, ev.t_ns, ev.thread);
    }
    f.push_str("]}");
    PostMortem {
        class: dump.class.to_string(),
        fields: f,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Collector;
    use std::sync::{Arc, Mutex};

    #[test]
    fn frames_render_valid_json_with_all_fields() {
        let dump = Dump {
            class: "budget_exceeded",
            stage: Some("ilpqc"),
            zone: Some(3),
            detail: "nodes exhausted with \"quotes\" and\nnewlines",
            nodes_spent: Some(4096),
            elapsed_ns: Some(1_500_000),
        };
        let frame = render(&dump);
        assert_eq!(frame.class(), "budget_exceeded");
        let line = frame.to_json();
        json::validate(&line).expect("frame must be valid JSON");
        assert!(line.contains("\"kind\":\"post_mortem\""));
        assert!(line.contains("\"class\":\"budget_exceeded\""));
        assert!(line.contains("\"zone\":3"));
        assert!(line.contains("\"budget\":{\"nodes\":4096,\"elapsed_ns\":1500000}"));
        assert!(line.contains("\"span_stack\":["));
        assert!(line.contains("\"ring\":{\"overflow\":"));
    }

    #[test]
    fn minimal_frames_render_valid_json() {
        let frame = render(&Dump {
            class: "worker_panic",
            detail: "boom",
            ..Dump::default()
        });
        json::validate(&frame.to_json()).expect("minimal frame must be valid JSON");
    }

    #[test]
    fn post_mortem_reaches_recorders() {
        struct Saw(Mutex<Vec<String>>);
        impl crate::Recorder for Saw {
            fn post_mortem(&self, dump: &PostMortem) {
                self.0.lock().expect("lock").push(dump.to_json());
            }
        }
        let saw = Arc::new(Saw(Mutex::new(Vec::new())));
        crate::with_local(saw.clone(), || {
            post_mortem(&Dump {
                class: "churn_deferred",
                detail: "starved",
                ..Dump::default()
            });
        });
        let frames = saw.0.lock().expect("lock");
        assert_eq!(frames.len(), 1);
        json::validate(&frames[0]).expect("a frame is valid JSON");
        assert!(frames[0].contains("\"class\":\"churn_deferred\""));
        // A collector ignores frames without panicking (default hook).
        crate::with_local(Arc::new(Collector::default()), || {
            post_mortem(&Dump {
                class: "noop",
                detail: "",
                ..Dump::default()
            });
        });
    }
}
