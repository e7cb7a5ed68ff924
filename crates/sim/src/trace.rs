//! Post-mortem trace analyzer over `sag-obs` JSONL streams.
//!
//! Backs the `repro trace` subcommand: reads a run's JSONL (written
//! via `SAG_OBS_JSON=path`), reconstructs the cross-thread span tree
//! from the `id`/`parent` links, and reports
//!
//! * tree health — roots, orphaned parents, unclosed spans, distinct
//!   threads, sink drops and flight-recorder overflow from `run_end`,
//! * the critical path (greedy longest-child walk from the root),
//! * per-zone time attribution over zone-tagged spans,
//! * per-span-name totals with self time (total minus child time),
//! * a windowed p50/p99 series over `churn.repair_ns` observations
//!   against the 500 µs repair SLO, with per-window burn flags,
//! * every `post_mortem` forensics frame in the stream.
//!
//! [`diff`] compares two runs stage by stage (span totals and
//! counters), for "what got slower between these two traces".
//!
//! The analyzer is deliberately forgiving: a truncated, interleaved
//! or byte-flipped line is counted as malformed and skipped, never
//! fatal — forensics input is by definition from a run that went
//! wrong.

use std::collections::{BTreeMap, HashMap};

use sag_obs::json;

/// Churn repair-latency SLO the windowed series is judged against
/// (matches the `bench_churn` p99 gate: 500 µs).
pub const CHURN_SLO_NS: u64 = 500_000;

/// One span assembled from its `span_enter`/`span_exit` lines.
#[derive(Debug, Clone)]
struct SpanRec {
    name: String,
    parent: Option<u64>,
    zone: Option<u64>,
    thread: u64,
    dur_ns: Option<u64>,
}

/// Aggregate over all spans sharing a name.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanAgg {
    /// Completed spans with this name.
    pub count: u64,
    /// Total wall time across them.
    pub total_ns: u64,
    /// Total minus time spent in child spans (attribution).
    pub self_ns: u64,
}

/// One forensics frame found in the stream.
#[derive(Debug, Clone)]
pub struct PostMortemRec {
    /// Failure class (`worker_panic`, `budget_exceeded`, ...).
    pub class: String,
    /// Stage the failure was attributed to, when recorded.
    pub stage: Option<String>,
    /// Zone index, when the failure was zone-local.
    pub zone: Option<u64>,
}

/// One window of the churn repair-latency SLO series.
#[derive(Debug, Clone, Copy)]
pub struct ChurnWindow {
    /// Window start (monotonic sink time).
    pub start_ns: u64,
    /// Window end (exclusive).
    pub end_ns: u64,
    /// Repairs observed in the window.
    pub count: usize,
    /// Median repair latency.
    pub p50_ns: u64,
    /// 99th-percentile repair latency.
    pub p99_ns: u64,
    /// `true` when the window's p99 burns the 500 µs SLO.
    pub burn: bool,
}

/// Everything [`analyze_str`] learned about one JSONL stream.
#[derive(Debug, Default)]
pub struct TraceReport {
    /// Non-empty lines seen.
    pub lines: usize,
    /// Lines that failed JSON validation or lacked a `kind` (counted,
    /// skipped, never fatal).
    pub malformed: usize,
    /// Run id from the `run_start` header.
    pub run: Option<String>,
    /// `dropped_events` from the `run_end` trailer.
    pub dropped_events: Option<u64>,
    /// `ring_overflow` from the `run_end` trailer.
    pub ring_overflow: Option<u64>,
    /// Distinct thread ordinals that emitted span lines.
    pub threads: usize,
    /// Spans with both enter and exit.
    pub completed: usize,
    /// Spans entered but never exited (crash or truncation).
    pub unclosed: usize,
    /// Span ids with no parent — a well-formed run has exactly one.
    pub roots: Vec<u64>,
    /// Span ids whose parent never appeared in the stream.
    pub orphans: Vec<u64>,
    /// Per-name span aggregates, name-ordered.
    pub span_totals: BTreeMap<String, SpanAgg>,
    /// Per-zone total span time, from zone-tagged spans.
    pub zone_totals: BTreeMap<u64, SpanAgg>,
    /// Counter sums by name.
    pub counters: BTreeMap<String, u64>,
    /// Forensics frames in stream order.
    pub post_mortems: Vec<PostMortemRec>,
    spans: HashMap<u64, SpanRec>,
    children: HashMap<u64, Vec<u64>>,
    churn_repairs: Vec<(u64, u64)>,
}

/// Parses one JSONL stream into a [`TraceReport`].
pub fn analyze_str(input: &str) -> TraceReport {
    let mut r = TraceReport::default();
    for raw in input.lines() {
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        r.lines += 1;
        if json::validate(line).is_err() {
            r.malformed += 1;
            continue;
        }
        let Some(kind) = json::field_str(line, "kind") else {
            r.malformed += 1;
            continue;
        };
        match kind {
            "run_start" => r.run = json::field_str(line, "run").map(str::to_owned),
            "run_end" => {
                r.dropped_events = json::field_u64(line, "dropped_events");
                r.ring_overflow = json::field_u64(line, "ring_overflow");
            }
            "span_enter" | "span_exit" => r.span_line(kind, line),
            "counter" => {
                if let (Some(name), Some(v)) = (
                    json::field_str(line, "name"),
                    json::field_u64(line, "value"),
                ) {
                    *r.counters.entry(name.to_owned()).or_insert(0) += v;
                }
            }
            "observe" if json::field_str(line, "name") == Some("churn.repair_ns") => {
                if let (Some(t), Some(v)) = (
                    json::field_u64(line, "t_ns"),
                    json::field_u64(line, "value"),
                ) {
                    r.churn_repairs.push((t, v));
                }
            }
            "post_mortem" => {
                // The frame's own fields precede its span stack and its
                // ring events, which carry `stage` and `zone` of their own.
                let frame = line.split(",\"span_stack\":").next().unwrap_or(line);
                if let Some(class) = json::field_str(frame, "class") {
                    r.post_mortems.push(PostMortemRec {
                        class: class.to_owned(),
                        stage: json::field_str(frame, "stage").map(str::to_owned),
                        zone: json::field_u64(frame, "zone"),
                    });
                }
            }
            // `gauge` and any future kinds are tolerated, not errors.
            _ => {}
        }
    }
    r.finish();
    r
}

/// Reads and analyzes a JSONL file.
///
/// # Errors
/// Propagates the underlying read error.
pub fn analyze_file(path: &str) -> std::io::Result<TraceReport> {
    Ok(analyze_str(&std::fs::read_to_string(path)?))
}

impl TraceReport {
    fn span_line(&mut self, kind: &str, line: &str) {
        let (Some(name), Some(id)) = (json::field_str(line, "name"), json::field_u64(line, "id"))
        else {
            self.malformed += 1;
            return;
        };
        let parent = json::field_u64(line, "parent");
        let zone = json::field_u64(line, "zone");
        let thread = json::field_u64(line, "thread").unwrap_or(0);
        let rec = self.spans.entry(id).or_insert_with(|| SpanRec {
            name: name.to_owned(),
            parent,
            zone,
            thread,
            dur_ns: None,
        });
        // A truncated stream may lose the enter line; links present on
        // either line count.
        rec.parent = rec.parent.or(parent);
        rec.zone = rec.zone.or(zone);
        if kind == "span_exit" {
            rec.dur_ns = Some(json::field_u64(line, "dur_ns").unwrap_or(0));
        }
    }

    /// Second pass once every line is in: tree links, aggregates.
    fn finish(&mut self) {
        let mut threads: Vec<u64> = Vec::new();
        let mut ids: Vec<u64> = self.spans.keys().copied().collect();
        ids.sort_unstable();
        for &id in &ids {
            let rec = &self.spans[&id];
            if !threads.contains(&rec.thread) {
                threads.push(rec.thread);
            }
            match rec.parent {
                None => self.roots.push(id),
                Some(p) if self.spans.contains_key(&p) => {
                    self.children.entry(p).or_default().push(id);
                }
                Some(_) => self.orphans.push(id),
            }
            if rec.dur_ns.is_some() {
                self.completed += 1;
            } else {
                self.unclosed += 1;
            }
        }
        self.threads = threads.len();
        for &id in &ids {
            let rec = &self.spans[&id];
            let Some(dur) = rec.dur_ns else { continue };
            let child_ns: u64 = self
                .children
                .get(&id)
                .map(|kids| {
                    kids.iter()
                        .filter_map(|k| self.spans[k].dur_ns)
                        .sum::<u64>()
                })
                .unwrap_or(0);
            let self_ns = dur.saturating_sub(child_ns);
            let agg = self.span_totals.entry(rec.name.clone()).or_default();
            agg.count += 1;
            agg.total_ns += dur;
            agg.self_ns += self_ns;
            if let Some(zone) = rec.zone {
                let z = self.zone_totals.entry(zone).or_default();
                z.count += 1;
                z.total_ns += dur;
                z.self_ns += self_ns;
            }
        }
    }

    /// The greedy critical path: from the heaviest root, repeatedly
    /// descend into the longest completed child. Returns
    /// `(name, dur_ns)` pairs root-first; empty when no completed
    /// root exists.
    pub fn critical_path(&self) -> Vec<(String, u64)> {
        let mut path = Vec::new();
        let mut cur = self
            .roots
            .iter()
            .filter_map(|&id| self.spans[&id].dur_ns.map(|d| (id, d)))
            .max_by_key(|&(_, d)| d)
            .map(|(id, _)| id);
        while let Some(id) = cur {
            let rec = &self.spans[&id];
            path.push((rec.name.clone(), rec.dur_ns.unwrap_or(0)));
            cur = self
                .children
                .get(&id)
                .into_iter()
                .flatten()
                .filter_map(|&k| self.spans[&k].dur_ns.map(|d| (k, d)))
                .max_by_key(|&(_, d)| d)
                .map(|(k, _)| k);
        }
        path
    }

    /// Splits the `churn.repair_ns` observations into `n` equal time
    /// windows that together cover every observation, and reports
    /// p50/p99 per window against [`CHURN_SLO_NS`]. Empty when the
    /// stream had no repairs.
    pub fn churn_windows(&self, n: usize) -> Vec<ChurnWindow> {
        if self.churn_repairs.is_empty() || n == 0 {
            return Vec::new();
        }
        let lo = self
            .churn_repairs
            .iter()
            .map(|&(t, _)| t)
            .min()
            .unwrap_or(0);
        let hi = self
            .churn_repairs
            .iter()
            .map(|&(t, _)| t)
            .max()
            .unwrap_or(0);
        // `n * width > hi - lo`, so window `i` is
        // `[lo + i·width, lo + (i+1)·width)` and the last one ends past `hi`.
        let width = (hi - lo) / n as u64 + 1;
        let mut buckets: Vec<Vec<u64>> = vec![Vec::new(); n];
        for &(t, v) in &self.churn_repairs {
            buckets[((t - lo) / width) as usize].push(v);
        }
        buckets
            .into_iter()
            .enumerate()
            .filter(|(_, vals)| !vals.is_empty())
            .map(|(i, mut vals)| {
                vals.sort_unstable();
                let p50 = percentile(&vals, 50.0);
                let p99 = percentile(&vals, 99.0);
                ChurnWindow {
                    start_ns: lo + i as u64 * width,
                    end_ns: lo + (i as u64 + 1) * width,
                    count: vals.len(),
                    p50_ns: p50,
                    p99_ns: p99,
                    burn: p99 > CHURN_SLO_NS,
                }
            })
            .collect()
    }

    /// Renders the full human-readable report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let run = self.run.as_deref().unwrap_or("<no run_start>");
        out.push_str(&format!(
            "trace run {run}: {} lines ({} malformed), {} spans \
             ({} unclosed), {} thread(s)\n",
            self.lines,
            self.malformed,
            self.completed + self.unclosed,
            self.unclosed,
            self.threads,
        ));
        out.push_str(&format!(
            "tree: {} root(s), {} orphan(s)",
            self.roots.len(),
            self.orphans.len()
        ));
        match (self.dropped_events, self.ring_overflow) {
            (Some(d), Some(o)) => {
                out.push_str(&format!("; sink dropped {d}, ring overflowed {o}\n"));
            }
            _ => out.push_str("; no run_end trailer (truncated stream?)\n"),
        }

        let path = self.critical_path();
        if !path.is_empty() {
            out.push_str("\ncritical path:\n");
            for (depth, (name, dur)) in path.iter().enumerate() {
                out.push_str(&format!(
                    "  {}{name} {}\n",
                    "  ".repeat(depth),
                    fmt_ns(*dur)
                ));
            }
        }

        if !self.span_totals.is_empty() {
            out.push_str("\nper-stage time (name, count, total, self):\n");
            let mut rows: Vec<_> = self.span_totals.iter().collect();
            rows.sort_by_key(|(_, a)| std::cmp::Reverse(a.total_ns));
            for (name, a) in rows {
                out.push_str(&format!(
                    "  {name:<18} {:>6}  {:>10}  {:>10}\n",
                    a.count,
                    fmt_ns(a.total_ns),
                    fmt_ns(a.self_ns)
                ));
            }
        }

        if !self.zone_totals.is_empty() {
            out.push_str("\nper-zone time (zone, spans, total):\n");
            for (zone, a) in &self.zone_totals {
                out.push_str(&format!(
                    "  zone {zone:<4} {:>6}  {:>10}\n",
                    a.count,
                    fmt_ns(a.total_ns)
                ));
            }
        }

        let windows = self.churn_windows(8);
        if !windows.is_empty() {
            let burns = windows.iter().filter(|w| w.burn).count();
            out.push_str(&format!(
                "\nchurn repair SLO (p99 ≤ {}), burn rate {burns}/{}:\n",
                fmt_ns(CHURN_SLO_NS),
                windows.len()
            ));
            for w in &windows {
                out.push_str(&format!(
                    "  [{:>10}..{:>10}] n={:<6} p50={:>9} p99={:>9}{}\n",
                    fmt_ns(w.start_ns),
                    fmt_ns(w.end_ns),
                    w.count,
                    fmt_ns(w.p50_ns),
                    fmt_ns(w.p99_ns),
                    if w.burn { "  ** SLO BURN **" } else { "" }
                ));
            }
        }

        if self.post_mortems.is_empty() {
            out.push_str("\nno post-mortem frames (clean run)\n");
        } else {
            out.push_str(&format!(
                "\npost-mortem frames ({}):\n",
                self.post_mortems.len()
            ));
            for pm in &self.post_mortems {
                out.push_str(&format!("  class={}", pm.class));
                if let Some(stage) = &pm.stage {
                    out.push_str(&format!(" stage={stage}"));
                }
                if let Some(zone) = pm.zone {
                    out.push_str(&format!(" zone={zone}"));
                }
                out.push('\n');
            }
        }
        out
    }
}

/// Stage-by-stage comparison of two runs: span-time totals and
/// counter sums, largest absolute change first.
pub fn diff(old: &TraceReport, new: &TraceReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "trace diff: old={} new={}\n",
        old.run.as_deref().unwrap_or("?"),
        new.run.as_deref().unwrap_or("?")
    ));

    let mut names: Vec<&String> = old.span_totals.keys().collect();
    for k in new.span_totals.keys() {
        if !old.span_totals.contains_key(k) {
            names.push(k);
        }
    }
    let mut rows: Vec<(&str, u64, u64)> = names
        .into_iter()
        .map(|name| {
            let a = old.span_totals.get(name).map_or(0, |s| s.total_ns);
            let b = new.span_totals.get(name).map_or(0, |s| s.total_ns);
            (name.as_str(), a, b)
        })
        .collect();
    rows.sort_by_key(|&(_, a, b)| std::cmp::Reverse(a.abs_diff(b)));
    if !rows.is_empty() {
        out.push_str("\nstage time (name, old, new, delta):\n");
        for (name, a, b) in rows {
            out.push_str(&format!(
                "  {name:<18} {:>10}  {:>10}  {}\n",
                fmt_ns(a),
                fmt_ns(b),
                fmt_delta(a, b)
            ));
        }
    }

    let mut cnames: Vec<&String> = old.counters.keys().collect();
    for k in new.counters.keys() {
        if !old.counters.contains_key(k) {
            cnames.push(k);
        }
    }
    cnames.sort();
    let changed: Vec<_> = cnames
        .into_iter()
        .filter_map(|name| {
            let a = old.counters.get(name).copied().unwrap_or(0);
            let b = new.counters.get(name).copied().unwrap_or(0);
            (a != b).then_some((name, a, b))
        })
        .collect();
    if !changed.is_empty() {
        out.push_str("\ncounters (name, old, new):\n");
        for (name, a, b) in changed {
            out.push_str(&format!("  {name:<24} {a:>10}  {b:>10}\n"));
        }
    }

    let (pa, pb) = (old.post_mortems.len(), new.post_mortems.len());
    out.push_str(&format!("\npost-mortem frames: old {pa}, new {pb}\n"));
    out
}

/// Nearest-rank percentile over a sorted slice.
fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Human duration: ns below 1 µs, then µs, ms, s.
fn fmt_ns(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.1}ms", ns as f64 / 1e6)
    } else {
        format!("{:.2}s", ns as f64 / 1e9)
    }
}

fn fmt_delta(old: u64, new: u64) -> String {
    let sign = if new >= old { "+" } else { "-" };
    let delta = new.abs_diff(old);
    if old == 0 {
        return format!("{sign}{}", fmt_ns(delta));
    }
    format!(
        "{sign}{} ({sign}{:.1}%)",
        fmt_ns(delta),
        100.0 * delta as f64 / old as f64
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span_enter(t: u64, thread: u64, name: &str, id: u64, parent: Option<u64>) -> String {
        let p = parent
            .map(|p| format!(",\"parent\":{p}"))
            .unwrap_or_default();
        format!(
            "{{\"kind\":\"span_enter\",\"run\":\"r\",\"t_ns\":{t},\"thread\":{thread},\
             \"name\":\"{name}\",\"depth\":0,\"id\":{id}{p}}}"
        )
    }

    fn span_exit(
        t: u64,
        thread: u64,
        name: &str,
        id: u64,
        parent: Option<u64>,
        zone: Option<u64>,
        dur: u64,
    ) -> String {
        let p = parent
            .map(|p| format!(",\"parent\":{p}"))
            .unwrap_or_default();
        let z = zone.map(|z| format!(",\"zone\":{z}")).unwrap_or_default();
        format!(
            "{{\"kind\":\"span_exit\",\"run\":\"r\",\"t_ns\":{t},\"thread\":{thread},\
             \"name\":\"{name}\",\"depth\":0,\"id\":{id}{p}{z},\"dur_ns\":{dur}}}"
        )
    }

    /// `churn.repair_ns` observation lines, one per `(t_ns, value)`.
    fn repairs(obs: &[(u64, u64)]) -> String {
        obs.iter()
            .map(|(t, v)| {
                format!(
                    "{{\"kind\":\"observe\",\"run\":\"r\",\"t_ns\":{t},\"thread\":0,\
                     \"name\":\"churn.repair_ns\",\"stage\":\"churn\",\"value\":{v}}}\n"
                )
            })
            .collect()
    }

    fn sample_stream() -> String {
        let mut s = String::new();
        s.push_str("{\"kind\":\"run_start\",\"run\":\"r\",\"pid\":1,\"wall_unix_ns\":0}\n");
        s.push_str(&span_enter(0, 0, "run_sag", 1, None));
        s.push('\n');
        // Two zone solves on two worker threads, linked to the root.
        for (thread, id, zone, dur) in [(1u64, 2u64, 0u64, 4_000u64), (2, 3, 1, 9_000)] {
            s.push_str(&span_enter(10, thread, "zone_solve", id, Some(1)));
            s.push('\n');
            s.push_str(&span_exit(
                20,
                thread,
                "zone_solve",
                id,
                Some(1),
                Some(zone),
                dur,
            ));
            s.push('\n');
        }
        s.push_str(
            "{\"kind\":\"counter\",\"run\":\"r\",\"t_ns\":30,\"thread\":0,\
             \"name\":\"lp.solves\",\"value\":5}\n",
        );
        s.push_str(&repairs(&[(100, 80_000), (200, 90_000), (10_000, 700_000)]));
        s.push_str(
            "{\"kind\":\"post_mortem\",\"run\":\"r\",\"t_ns\":40,\"thread\":2,\
             \"class\":\"worker_panic\",\"detail\":\"boom\",\"stage\":\"samc\",\
             \"zone\":1,\"span_stack\":[],\"ring\":{\"overflow\":0,\"events\":[]}}\n",
        );
        s.push_str(&span_exit(50, 0, "run_sag", 1, None, None, 20_000));
        s.push('\n');
        s.push_str(
            "{\"kind\":\"run_end\",\"run\":\"r\",\"t_ns\":60,\"thread\":0,\
             \"dropped_events\":0,\"ring_overflow\":7}\n",
        );
        s
    }

    #[test]
    fn reconstructs_one_tree_across_threads() {
        let r = analyze_str(&sample_stream());
        assert_eq!(r.malformed, 0);
        assert_eq!(r.roots, vec![1]);
        assert!(r.orphans.is_empty());
        assert_eq!(r.completed, 3);
        assert_eq!(r.unclosed, 0);
        assert_eq!(r.threads, 3);
        assert_eq!(r.dropped_events, Some(0));
        assert_eq!(r.ring_overflow, Some(7));
        assert_eq!(r.counters["lp.solves"], 5);
        assert_eq!(r.post_mortems.len(), 1);
        assert_eq!(r.post_mortems[0].class, "worker_panic");
        assert_eq!(r.post_mortems[0].zone, Some(1));
    }

    #[test]
    fn critical_path_follows_the_longest_child() {
        let r = analyze_str(&sample_stream());
        let path = r.critical_path();
        assert_eq!(
            path,
            vec![
                ("run_sag".to_owned(), 20_000),
                ("zone_solve".to_owned(), 9_000)
            ]
        );
        // Self time: the root spent 20µs total, 13µs of it in zones.
        let root = &r.span_totals["run_sag"];
        assert_eq!(root.total_ns, 20_000);
        assert_eq!(root.self_ns, 7_000);
        assert_eq!(r.zone_totals[&1].total_ns, 9_000);
    }

    #[test]
    fn churn_windows_flag_slo_burn() {
        let r = analyze_str(&sample_stream());
        let windows = r.churn_windows(4);
        assert!(!windows.is_empty());
        // The early repairs are under the SLO; the late 700µs one burns.
        assert!(!windows[0].burn);
        let last = windows.last().expect("windows");
        assert_eq!(last.p99_ns, 700_000);
        assert!(last.burn);
        // Every observation lies in `[start_ns, end_ns)` of the window
        // that counts it, also for repairs at t = 0, 5 and 10 in three
        // windows, where the last window must reach past t = 10.
        let edge = analyze_str(&repairs(&[(0, 1), (5, 1), (10, 1)]));
        for (report, n) in [(&r, 4), (&edge, 3)] {
            let windows = report.churn_windows(n);
            for w in &windows {
                let (lo, hi) = (w.start_ns, w.end_ns);
                let inside = report
                    .churn_repairs
                    .iter()
                    .filter(|&&(t, _)| lo <= t && t < hi);
                assert_eq!(inside.count(), w.count, "window [{lo}, {hi})");
            }
            let counted: usize = windows.iter().map(|w| w.count).sum();
            assert_eq!(counted, report.churn_repairs.len());
        }
        let rendered = r.render();
        assert!(rendered.contains("SLO BURN"));
        assert!(rendered.contains("critical path"));
        assert!(rendered.contains("worker_panic"));
    }

    #[test]
    fn malformed_and_truncated_lines_are_skipped_not_fatal() {
        let mut s = sample_stream();
        s.push_str(
            "{\"kind\":\"span_exit\",\"name\":\"x\",\"id\":99,\"parent\":42,\
                     \"dur_ns\":5}\n",
        );
        s.push_str("{\"kind\":\"counter\",\"name\":\"trunc\n");
        s.push_str("not json at all\n");
        let r = analyze_str(&s);
        assert_eq!(r.malformed, 2);
        assert_eq!(r.orphans, vec![99]);
        assert_eq!(r.roots, vec![1]);
        // Stream with no run_end still renders.
        let r2 = analyze_str(
            &sample_stream()
                .lines()
                .take(3)
                .collect::<Vec<_>>()
                .join("\n"),
        );
        assert!(r2.render().contains("truncated stream?"));
        assert_eq!(r2.unclosed, 2);
    }

    #[test]
    fn diff_reports_stage_and_counter_deltas() {
        let old = analyze_str(&sample_stream());
        let doubled = sample_stream()
            .replace("\"dur_ns\":20000", "\"dur_ns\":40000")
            .replace("\"value\":5", "\"value\":9");
        let new = analyze_str(&doubled);
        let d = diff(&old, &new);
        assert!(d.contains("run_sag"));
        assert!(d.contains("+100.0%"));
        assert!(d.contains("lp.solves"));
        assert!(d.contains("post-mortem frames: old 1, new 1"));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v = [10u64, 20, 30, 40];
        assert_eq!(percentile(&v, 50.0), 20);
        assert_eq!(percentile(&v, 99.0), 40);
        assert_eq!(percentile(&v, 1.0), 10);
        assert_eq!(percentile(&[], 50.0), 0);
    }
}
