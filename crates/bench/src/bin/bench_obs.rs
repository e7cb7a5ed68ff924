//! Observability overhead benchmark (`BENCH_obs.json`) and JSONL
//! checker.
//!
//! Four variants of the same full-pipeline solves are timed, each sample
//! one pass over a fixed probe of bench scenarios at every Fig. 4
//! (500×500, 5–50 SS) and Fig. 5 (800×800, 20–70 SS) size — several
//! milliseconds, so a 2% difference stands clear of the timer's and the
//! scheduler's noise:
//!
//! * **baseline** — the stages composed by hand with no recorder
//!   anywhere (validate → SAMC → PRO → MBMC → UCPO, SAMC handing its
//!   interference ledger to PRO as the pipeline does), the closest
//!   thing to an uninstrumented build the instrumented binary can
//!   offer;
//! * **disabled** — [`run_sag_with`] with `collect_metrics: false`, the
//!   production disabled path (every span/counter call short-circuits
//!   on the `enabled()` check);
//! * **collected** — the default [`run_sag`], which installs a
//!   thread-local [`sag_obs::Collector`] for the run (informational);
//! * **ring** — `collect_metrics: false` with the flight recorder
//!   installed alone (`SAG_OBS_RING`-style). The flight recorder is a
//!   recorder, so `enabled()` holds: every span, counter and guarded
//!   flush runs and lands in the ring. This measures what the
//!   always-on crash timeline costs (informational).
//!
//! All variants are checked for identical deployments on every probe
//! scenario before any timing — instrumentation must never change
//! results. The gate asserts the disabled path (no recorder installed,
//! the flight recorder included) stays within [`MAX_OVERHEAD`] of the
//! baseline.
//!
//! `--check-jsonl FILE` switches to validator mode: every line of a
//! `SAG_OBS_JSON` capture must parse as JSON, the header/trailer must
//! frame the run, the trailer must carry the `dropped_events` and
//! `ring_overflow` loss accounting, every pipeline stage must have a
//! span, and the solver work counters (`lp.*`, `ledger.*`) must be
//! present.
//!
//! Usage: `bench_obs [--out PATH]` or `bench_obs --check-jsonl FILE`

use sag_bench::harness::{interleaved, time_ns};
use sag_bench::{bench_scenario, Artefact, Bound};
use sag_core::mbmc::mbmc;
use sag_core::model::Scenario;
use sag_core::pro::pro_on;
use sag_core::sag::{run_sag, run_sag_with, SagPipelineConfig, SagReport};
use sag_core::samc::{samc_with_ledger, SamcConfig};
use sag_core::ucpo::ucpo;
use sag_lp::Budget;
use sag_obs::json::{field_str, field_u64};

/// Fig. 4 user counts on the 500×500 field.
const FIG4_USERS: [usize; 10] = [5, 10, 15, 20, 25, 30, 35, 40, 45, 50];
/// Fig. 5 user counts on the 800×800 field.
const FIG5_USERS: [usize; 6] = [20, 30, 40, 50, 60, 70];
const SEED: u64 = 4242;
/// What the artefact records as the probe.
const PROBE: &str = "bench_scenario at Fig. 4 (500x500: 5-50 SS, step 5) and \
                     Fig. 5 (800x800: 20-70 SS, step 10) sizes, seed 4242";
/// Passes over the probe per timing sample.
const INNER_ITERS: u32 = 1;
/// Interleaved baseline/disabled/collected/ring measurement rounds: at
/// 25 the median per-round ratio still wandered ±2.5% between runs,
/// the width of the gate.
const ROUNDS: usize = 75;
/// Gate: the disabled path costs at most this multiple of the baseline.
const MAX_OVERHEAD: f64 = 1.02;

/// Stage spans every full-pipeline run must emit.
const REQUIRED_STAGES: &[&str] = &["samc", "zone_partition", "pro", "mbmc", "ucpo"];

/// The hand-composed pipeline: the same stage sequence as
/// `run_sag_with`, with the same one ledger handed from SAMC to PRO,
/// minus any collector plumbing. Returns the total power and relay
/// count so parity against the real pipeline is checkable.
fn baseline_pipeline(scenario: &Scenario) -> (f64, usize) {
    scenario.validate().expect("bench scenario is valid");
    let budget = Budget::unlimited();
    let (coverage, ledger) = samc_with_ledger(scenario, SamcConfig::default(), &budget, 1)
        .expect("bench scenario is coverable");
    let lower = pro_on(scenario, &coverage, Some(ledger), &budget).expect("PRO succeeds");
    let plan = mbmc(scenario, &coverage).expect("bench scenario is connectable");
    let upper = ucpo(scenario, &coverage, &plan);
    (
        lower.total() + upper.total(),
        coverage.n_relays() + plan.n_relays(),
    )
}

fn disabled_pipeline(scenario: &Scenario) -> SagReport {
    run_sag_with(
        scenario,
        SagPipelineConfig {
            collect_metrics: false,
            ..Default::default()
        },
    )
    .expect("pipeline succeeds")
}

/// The timed probe: one bench scenario at every Fig. 4/5 size.
fn probe() -> Vec<Scenario> {
    let fig4 = FIG4_USERS.map(|users| (500.0, users));
    let fig5 = FIG5_USERS.map(|users| (800.0, users));
    fig4.into_iter()
        .chain(fig5)
        .map(|(field, users)| bench_scenario(field, users, SEED))
        .collect()
}

fn parity_check(scenario: &Scenario) {
    let (base_power, base_relays) = baseline_pipeline(scenario);
    let disabled = disabled_pipeline(scenario);
    let collected = run_sag(scenario).expect("pipeline succeeds");
    for (label, report) in [("disabled", &disabled), ("collected", &collected)] {
        let power = report.power_summary().total;
        let relays = report.n_coverage_relays() + report.n_connectivity_relays();
        assert!(
            (power - base_power).abs() < 1e-12 && relays == base_relays,
            "{label} path diverged from baseline: power {power} vs {base_power}, \
             relays {relays} vs {base_relays}"
        );
    }
    assert!(
        disabled.metrics.is_empty(),
        "collect_metrics: false must leave the report metrics empty"
    );
    assert!(
        !collected.metrics.is_empty(),
        "the default pipeline must collect stage metrics"
    );
    for stage in REQUIRED_STAGES {
        assert!(
            collected.metrics.span(stage).is_some(),
            "collected run is missing the '{stage}' span"
        );
    }
}

fn check_jsonl(path: &str) {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read JSONL capture {path}: {e}"));
    let lines: Vec<&str> = text.lines().filter(|l| !l.is_empty()).collect();
    assert!(
        lines.len() >= 3,
        "capture {path} has only {} line(s); expected header, events, trailer",
        lines.len()
    );
    let mut enters = 0usize;
    let mut exits = 0usize;
    let mut stages_seen: Vec<&str> = Vec::new();
    let mut lp_counters = 0usize;
    let mut ledger_counters = 0usize;
    for (i, line) in lines.iter().enumerate() {
        sag_obs::json::validate(line)
            .unwrap_or_else(|e| panic!("{path}:{}: invalid JSON ({e}): {line}", i + 1));
        match field_str(line, "kind") {
            Some("run_start") => assert_eq!(i, 0, "run_start must be the first line"),
            Some("run_end") => {
                assert_eq!(i, lines.len() - 1, "run_end must be the last line");
                assert!(
                    field_u64(line, "dropped_events").is_some(),
                    "{path}:{}: run_end trailer lacks dropped_events",
                    i + 1
                );
                assert!(
                    field_u64(line, "ring_overflow").is_some(),
                    "{path}:{}: run_end trailer lacks ring_overflow",
                    i + 1
                );
            }
            Some("span_enter") => {
                enters += 1;
                if let Some(name) = field_str(line, "name") {
                    if !stages_seen.contains(&name) {
                        stages_seen.push(name);
                    }
                }
            }
            Some("span_exit") => {
                exits += 1;
                assert!(
                    line.contains("\"dur_ns\":"),
                    "{path}:{}: span_exit without dur_ns",
                    i + 1
                );
            }
            Some("counter") => match field_str(line, "name") {
                Some(name) if name.starts_with("lp.") => lp_counters += 1,
                Some(name) if name.starts_with("ledger.") => ledger_counters += 1,
                _ => {}
            },
            _ => {}
        }
    }
    assert!(
        field_str(lines[0], "kind") == Some("run_start"),
        "first line of {path} is not a run_start header"
    );
    assert!(
        field_str(lines[lines.len() - 1], "kind") == Some("run_end"),
        "last line of {path} is not a run_end trailer"
    );
    assert_eq!(
        enters, exits,
        "span enter/exit counts diverge in {path}: {enters} vs {exits}"
    );
    for stage in REQUIRED_STAGES {
        assert!(
            stages_seen.contains(stage),
            "capture {path} has no '{stage}' span (saw {stages_seen:?})"
        );
    }
    assert!(
        lp_counters > 0,
        "capture {path} has no lp.* solver counters"
    );
    assert!(
        ledger_counters > 0,
        "capture {path} has no ledger.* counters"
    );
    println!(
        "checked {path}: {} lines, {enters} spans, stages {stages_seen:?}, \
         {lp_counters} lp.* and {ledger_counters} ledger.* counter events",
        lines.len()
    );
}

fn main() {
    let mut args = std::env::args().skip(1);
    if args.next().as_deref() == Some("--check-jsonl") {
        check_jsonl(&args.next().expect("--check-jsonl needs a path"));
        return;
    }
    let mut out = Artefact::from_args("obs_overhead", "BENCH_obs.json");

    let probe = probe();

    // Parity gate before any timing: instrumentation that changes the
    // deployment would make the overhead number meaningless.
    for scenario in &probe {
        parity_check(scenario);
    }

    // A ≤2% gate is below the run-to-run noise of timing the variants
    // back to back (clock ramp, scheduler interference): interleave
    // them instead, so every noise phase hits all four, and gate on the
    // median per-round ratio.
    let t = interleaved(
        ROUNDS,
        &mut [
            &mut || {
                time_ns(INNER_ITERS, || {
                    probe.iter().map(baseline_pipeline).collect::<Vec<_>>()
                })
            },
            &mut || {
                time_ns(INNER_ITERS, || {
                    probe.iter().map(disabled_pipeline).collect::<Vec<_>>()
                })
            },
            &mut || {
                time_ns(INNER_ITERS, || {
                    probe
                        .iter()
                        .map(|scenario| run_sag(scenario).expect("pipeline succeeds"))
                        .collect::<Vec<_>>()
                })
            },
            // The flight recorder installed alone: what the crash
            // timeline costs when somebody sets SAG_OBS_RING. It is
            // uninstalled after every sample so the other variants keep
            // measuring the path with no recorder at all.
            &mut || {
                time_ns(INNER_ITERS, || {
                    sag_obs::ring::configure(256);
                    let reports: Vec<_> = probe.iter().map(disabled_pipeline).collect();
                    sag_obs::ring::configure(0);
                    reports
                })
            },
        ],
    );
    let overhead = t.ratio_median(&[1], &[0]);
    out.field("probe", PROBE)
        .field("scenarios", probe.len())
        .field(
            "subscribers",
            probe.iter().map(Scenario::n_subscribers).sum::<usize>(),
        )
        .field("baseline_min_ns", t.min_ns(0))
        .field("disabled_min_ns", t.min_ns(1))
        .field("collected_min_ns", t.min_ns(2))
        .field("ring_min_ns", t.min_ns(3))
        .field("overhead_disabled", overhead)
        .field("overhead_collected", t.ratio_median(&[2], &[0]))
        .field("overhead_ring", t.ratio_median(&[3], &[0]))
        .gate(
            "overhead_disabled",
            overhead,
            Bound::Ceiling(MAX_OVERHEAD),
            None,
        );
    out.finish();
}
