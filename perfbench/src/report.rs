//! Metric names, units, and the result printer.

use std::collections::BTreeMap;

/// End-to-end metrics, measured with tracing off. Every workload
/// reports every one of them.
pub const END_TO_END: [(&str, &str); 5] = [
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("relays_mean", "relays"),
    ("setup_s", "s"),
];

/// Per-layer metrics, measured in the traced run. A layer a workload
/// does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 31] = [
    ("hitting.search_ms", "ms"),
    ("hitting.points", "count"),
    ("core.samc_ms", "ms"),
    ("core.escape_ms", "ms"),
    ("core.tail_ms", "ms"),
    ("core.zone_ms", "ms"),
    ("core.zones", "count"),
    ("core.zone_size_max", "count"),
    ("core.candidates_ms", "ms"),
    ("core.ilpqc_ms", "ms"),
    ("core.ilpqc_nodes", "count"),
    ("core.ilpqc_lp_prunes", "count"),
    ("lp.solves", "count"),
    ("lp.pivots", "count"),
    ("lp.refactors", "count"),
    ("core.churn_service_p50_ms", "ms"),
    ("core.churn_service_p99_ms", "ms"),
    ("core.churn_dirty_zones", "count"),
    ("core.churn_greedy", "count"),
    ("core.churn_deferred", "count"),
    ("core.churn_global_repairs", "count"),
    ("radio.audit_ms", "ms"),
    ("radio.delta_ops", "count"),
    ("sim.cache_hit_frac", "share"),
    ("sim.busy_frac", "share"),
    ("obs.collect_ms", "ms"),
    ("load.queue_wait_p99_ms", "ms"),
    ("load.gen_lag_p99_ms", "ms"),
    ("load.latency_p99_ms", "ms"),
    ("trace_overhead", "ratio"),
    ("trace.uncovered_frac", "share"),
];

/// Metrics that are printed but not recorded: zero whenever all is
/// well, defined on one workload only, or swinging from run to run by
/// more than any regression bound of at most 25 % could hold (the p99
/// with host stalls; peak memory with the largest branch and bound on
/// `sweep_fig3`).
pub const PRINTED_ONLY: [(&str, &str); 5] = [
    ("latency_p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("fail_frac", "share"),
    ("infeasible_frac", "share"),
    ("power_mean", "Pmax"),
];

/// What one measured phase of a workload produced.
#[derive(Debug, Default)]
pub struct Phase {
    /// Operations attempted (solves, sweep cells, churn events).
    pub attempted: u64,
    /// Typed errors, panics and failed output checks.
    pub failed: u64,
    /// One line per failure, for the report.
    pub problems: Vec<String>,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Settings and sample counts worth printing.
    pub notes: Vec<String>,
}

impl Phase {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.metrics.get(name).copied().unwrap_or(0.0)
    }

    /// Records a failed operation or output check.
    pub fn fail(&mut self, problem: String) {
        self.failed += 1;
        self.problems.push(problem);
    }

    pub fn note(&mut self, note: String) {
        self.notes.push(note);
    }
}

/// Prints the human-readable table, then the one-line JSON result as
/// the last line of standard output. Returns whether the run was
/// correct.
pub fn print(header: &str, phase: &Phase, recorded: &[(&'static str, &'static str)]) -> bool {
    println!("{header}");
    for note in &phase.notes {
        println!("  {note}");
    }
    let mut problems = phase.problems.clone();
    println!("  {:<28} {:>16}  unit", "metric", "value");
    let mut json = Vec::new();
    for &(name, unit) in recorded {
        let value = match phase.metrics.get(name) {
            Some(v) if v.is_finite() => *v,
            Some(v) => {
                problems.push(format!("metric {name} is not finite ({v})"));
                0.0
            }
            None => 0.0,
        };
        println!("  {name:<28} {value:>16.6}  {unit}");
        json.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    for &(name, unit) in &PRINTED_ONLY {
        if let Some(v) = phase.metrics.get(name) {
            println!("  {name:<28} {v:>16.6}  {unit}  (printed only)");
        }
    }
    // Problems found while printing count as failed checks too.
    let failed = phase.failed + (problems.len() - phase.problems.len()) as u64;
    let correct = problems.is_empty() && failed == 0 && phase.attempted > 0;
    if problems.is_empty() {
        println!("  output checks: all passed");
    }
    for p in &problems {
        println!("  FAILED: {p}");
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        phase.attempted.max(1),
        failed,
        json.join(", ")
    );
    correct
}
