//! Stage-by-stage pipeline tracing.
//!
//! Operating a placement pipeline means answering "why did this
//! deployment come out this way?" — how many zones the field split into,
//! how large the hitting sets were, how many repairs the sliding stage
//! needed, how much power each stage shaved. [`run_sag_traced`] runs the
//! standard pipeline once and derives a [`PipelineTrace`] of typed
//! events from the run's own [`sag_obs::StageMetrics`] stream plus the
//! report artefacts — no stage is re-executed and no SNR is recomputed.

use std::fmt;

use crate::error::SagResult;
use crate::model::Scenario;
use crate::sag::{run_sag_with, SagPipelineConfig, SagReport};

/// One recorded pipeline event.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// Zone Partition produced this many zones with the given sizes.
    Zones {
        /// Subscribers per zone.
        sizes: Vec<usize>,
    },
    /// The lower tier placed this many coverage relays.
    CoveragePlaced {
        /// Relay count.
        relays: usize,
        /// Subscribers in one-on-one coverage (their relay serves only
        /// them — the quantity Coverage Link Escape maximises).
        one_on_one: usize,
        /// Residual SNR violations the merged-zone check surfaced
        /// before the global repair round (0 when the zones were truly
        /// interference-independent; the final output is always
        /// violation-free).
        violations: usize,
    },
    /// PRO reduced the lower tier from `before` to `after` total power.
    LowerPower {
        /// All-`Pmax` total.
        before: f64,
        /// Post-PRO total.
        after: f64,
        /// Sum of the coverage-power floors (the unreachable ideal).
        floor: f64,
    },
    /// MBMC built the upper tier.
    ConnectivityPlaced {
        /// Steiner relays placed.
        relays: usize,
        /// Total hops across all chains.
        hops: usize,
        /// Distinct base stations used.
        base_stations_used: usize,
    },
    /// UCPO reduced the upper tier from `before` to `after`.
    UpperPower {
        /// All-`Pmax` total.
        before: f64,
        /// Post-UCPO total.
        after: f64,
    },
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceEvent::Zones { sizes } => {
                write!(f, "zones: {} ({:?} subscribers)", sizes.len(), sizes)
            }
            TraceEvent::CoveragePlaced {
                relays,
                one_on_one,
                violations,
            } => write!(
                f,
                "coverage: {relays} relays, {one_on_one} one-on-one, {violations} SNR violations"
            ),
            TraceEvent::LowerPower {
                before,
                after,
                floor,
            } => write!(
                f,
                "lower power: {before:.3} -> {after:.3} (floor {floor:.3})"
            ),
            TraceEvent::ConnectivityPlaced {
                relays,
                hops,
                base_stations_used,
            } => write!(
                f,
                "connectivity: {relays} relays over {hops} hops to {base_stations_used} BS(s)"
            ),
            TraceEvent::UpperPower { before, after } => {
                write!(f, "upper power: {before:.3} -> {after:.3}")
            }
        }
    }
}

/// The ordered event log of one pipeline run.
#[derive(Debug, Clone, Default)]
pub struct PipelineTrace {
    /// Events in stage order.
    pub events: Vec<TraceEvent>,
}

impl PipelineTrace {
    /// Total power saved versus running every transmitter at `Pmax`.
    pub fn total_saving(&self) -> f64 {
        self.events
            .iter()
            .map(|e| match e {
                TraceEvent::LowerPower { before, after, .. }
                | TraceEvent::UpperPower { before, after } => before - after,
                _ => 0.0,
            })
            .sum()
    }
}

impl fmt::Display for PipelineTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for e in &self.events {
            writeln!(f, "  {e}")?;
        }
        write!(f, "  total saving vs all-Pmax: {:.3}", self.total_saving())
    }
}

/// Runs the SAG pipeline under `config` and returns the report together
/// with its trace.
///
/// # Errors
/// Exactly those of [`crate::sag::run_sag_with`].
pub fn run_sag_traced(
    scenario: &Scenario,
    config: SagPipelineConfig,
) -> SagResult<(SagReport, PipelineTrace)> {
    let report = run_sag_with(scenario, config)?;
    let trace = trace_from_report(scenario, &report);
    Ok((report, trace))
}

/// Derives the stage trace from a finished report: zone sizes and
/// residual violations come from the run's recorded metrics, power and
/// topology figures from the report artefacts. Nothing is re-solved.
pub fn trace_from_report(scenario: &Scenario, report: &SagReport) -> PipelineTrace {
    let mut trace = PipelineTrace::default();
    let m = &report.metrics;

    // `zone.size` is observed once per zone, in partition order, by the
    // SAMC stage; the retained raw samples reconstruct the event. The
    // ILPQC/fallback solvers do not partition, so the event is omitted
    // for their runs (as it is when metrics collection is disabled).
    if let Some(h) = m.histogram("zone.size") {
        trace.events.push(TraceEvent::Zones {
            sizes: h.samples.iter().map(|&s| s as usize).collect(),
        });
    }

    trace.events.push(TraceEvent::CoveragePlaced {
        relays: report.coverage.n_relays(),
        one_on_one: report.coverage.served_index().one_on_one(),
        violations: m.gauge("coverage.snr_violations").unwrap_or(0.0) as usize,
    });

    // PRO records its own baseline and floor; fall back to the closed
    // forms (`R · Pmax`, Σ coverage floors would need a re-solve, so the
    // floor defaults to the recorded value or 0) when metrics are off.
    let pmax = scenario.params.link.pmax();
    trace.events.push(TraceEvent::LowerPower {
        before: m
            .gauge("pro.baseline_total")
            .unwrap_or(report.n_coverage_relays() as f64 * pmax),
        after: report.lower_power.total(),
        floor: m.gauge("pro.floor_total").unwrap_or(0.0),
    });

    let mut bs_used: Vec<usize> = report.plan.serving_bs.clone();
    bs_used.sort_unstable();
    bs_used.dedup();
    trace.events.push(TraceEvent::ConnectivityPlaced {
        relays: report.plan.n_relays(),
        hops: report.plan.chains.iter().map(|c| c.hops).sum(),
        base_stations_used: bs_used.len(),
    });

    let upper_before: f64 = report
        .plan
        .chains
        .iter()
        .map(|c| c.hops as f64 * pmax)
        .sum();
    trace.events.push(TraceEvent::UpperPower {
        before: upper_before,
        after: report.upper_power.total(),
    });

    trace
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{BaseStation, NetworkParams, Scenario, Subscriber};
    use sag_geom::{Point, Rect};

    fn scenario() -> Scenario {
        Scenario::new(
            Rect::centered_square(500.0),
            vec![
                Subscriber::new(Point::new(0.0, 0.0), 35.0),
                Subscriber::new(Point::new(30.0, 10.0), 35.0),
                Subscriber::new(Point::new(-150.0, 90.0), 32.0),
            ],
            vec![
                BaseStation::new(Point::new(200.0, 200.0)),
                BaseStation::new(Point::new(-200.0, 200.0)),
            ],
            NetworkParams::default(),
        )
        .unwrap()
    }

    #[test]
    fn trace_records_every_stage() {
        let sc = scenario();
        let (report, trace) = run_sag_traced(&sc, SagPipelineConfig::default()).unwrap();
        assert_eq!(trace.events.len(), 5);
        assert!(matches!(trace.events[0], TraceEvent::Zones { .. }));
        assert!(matches!(trace.events[4], TraceEvent::UpperPower { .. }));
        // Zone sizes partition the subscribers.
        if let TraceEvent::Zones { sizes } = &trace.events[0] {
            assert_eq!(sizes.iter().sum::<usize>(), sc.n_subscribers());
        }
        // Coverage counts agree with the report.
        if let TraceEvent::CoveragePlaced {
            relays, violations, ..
        } = trace.events[1]
        {
            assert_eq!(relays, report.n_coverage_relays());
            assert_eq!(violations, 0);
        }
    }

    #[test]
    fn savings_are_consistent() {
        let sc = scenario();
        let (report, trace) = run_sag_traced(&sc, SagPipelineConfig::default()).unwrap();
        let saving = trace.total_saving();
        assert!(saving >= 0.0);
        // Savings equal (baseline totals) − (report totals).
        let lower_base = report.n_coverage_relays() as f64;
        let upper_base: f64 = report.plan.chains.iter().map(|c| c.hops as f64).sum();
        let expected = lower_base + upper_base - report.power_summary().total;
        assert!((saving - expected).abs() < 1e-9);
    }

    #[test]
    fn floor_below_after_below_before() {
        let sc = scenario();
        let (_, trace) = run_sag_traced(&sc, SagPipelineConfig::default()).unwrap();
        if let TraceEvent::LowerPower {
            before,
            after,
            floor,
        } = trace.events[2]
        {
            assert!(floor <= after + 1e-12);
            assert!(after <= before + 1e-12);
        } else {
            panic!("event order changed");
        }
    }

    #[test]
    fn display_renders() {
        let sc = scenario();
        let (_, trace) = run_sag_traced(&sc, SagPipelineConfig::default()).unwrap();
        let s = format!("{trace}");
        assert!(s.contains("zones:"));
        assert!(s.contains("total saving"));
        for e in &trace.events {
            assert!(!format!("{e}").is_empty());
        }
    }
}
