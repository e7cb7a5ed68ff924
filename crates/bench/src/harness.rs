//! Zero-dependency wall-clock micro-benchmark harness.
//!
//! Not a Criterion replacement — no outlier rejection, no HTML reports —
//! but deterministic in *what* it measures (fixed warm-up, fixed
//! measured iteration count once calibrated) and entirely offline.
//! [`Bench`] calibrates and times single closures; [`interleaved`] times
//! two arms round by round for the gated median-of-ratios benches.
//!
//! ```
//! use sag_bench::harness::Bench;
//! let mut bench = Bench::new("demo");
//! bench.run("sum 1..1000", || (1..1000u64).sum::<u64>());
//! let report = bench.report();
//! assert!(report.contains("sum 1..1000"));
//! ```

use std::hint::black_box;
use std::time::{Duration, Instant};

/// One measured benchmark row.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Benchmark label.
    pub name: String,
    /// Median per-iteration time.
    pub median: Duration,
    /// Mean per-iteration time.
    pub mean: Duration,
    /// Fastest sample.
    pub min: Duration,
    /// Iterations per sample after calibration.
    pub iters: u64,
}

/// A group of wall-clock benchmarks sharing a target sample time.
#[derive(Debug)]
pub struct Bench {
    group: String,
    /// Samples collected per benchmark.
    samples: usize,
    /// Target wall-clock time per sample (calibration goal).
    sample_target: Duration,
    results: Vec<Measurement>,
}

impl Bench {
    /// A harness with the defaults used by the smoke benches: 15 samples
    /// of ~5 ms each.
    pub fn new(group: impl Into<String>) -> Self {
        Bench {
            group: group.into(),
            samples: 15,
            sample_target: Duration::from_millis(5),
            results: Vec::new(),
        }
    }

    /// Overrides the number of measured samples.
    pub fn samples(mut self, samples: usize) -> Self {
        assert!(samples > 0, "need at least one sample");
        self.samples = samples;
        self
    }

    /// Overrides the per-sample time budget.
    pub fn sample_target(mut self, target: Duration) -> Self {
        self.sample_target = target;
        self
    }

    /// Measures `f`, appending a row to the report. The return value is
    /// routed through [`black_box`] so the closure is never optimised
    /// away.
    pub fn run<T>(&mut self, name: impl Into<String>, mut f: impl FnMut() -> T) -> &Measurement {
        // Calibrate: how many iterations fit in one sample target?
        let once = Self::time(&mut f, 1);
        let iters = if once >= self.sample_target {
            1
        } else {
            let est = self.sample_target.as_nanos() / once.as_nanos().max(1);
            est.clamp(1, 1 << 24) as u64
        };
        // Warm-up sample, then measured samples.
        let _ = Self::time(&mut f, iters);
        let mut per_iter: Vec<Duration> = (0..self.samples)
            .map(|_| Self::time(&mut f, iters) / iters as u32)
            .collect();
        per_iter.sort_unstable();
        let median = per_iter[per_iter.len() / 2];
        let mean = per_iter.iter().sum::<Duration>() / per_iter.len() as u32;
        let min = per_iter[0];
        self.results.push(Measurement {
            name: name.into(),
            median,
            mean,
            min,
            iters,
        });
        self.results.last().expect("just pushed")
    }

    fn time<T>(f: &mut impl FnMut() -> T, iters: u64) -> Duration {
        let start = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        start.elapsed()
    }

    /// All measurements so far.
    pub fn measurements(&self) -> &[Measurement] {
        &self.results
    }

    /// Renders the aligned text report.
    pub fn report(&self) -> String {
        let mut out = format!("benchmark group: {}\n", self.group);
        let width = self
            .results
            .iter()
            .map(|m| m.name.len())
            .max()
            .unwrap_or(4)
            .max(4);
        out.push_str(&format!(
            "{:<width$}  {:>12}  {:>12}  {:>12}  {:>9}\n",
            "name", "median", "mean", "min", "iters"
        ));
        for m in &self.results {
            out.push_str(&format!(
                "{:<width$}  {:>12}  {:>12}  {:>12}  {:>9}\n",
                m.name,
                fmt_duration(m.median),
                fmt_duration(m.mean),
                fmt_duration(m.min),
                m.iters
            ));
        }
        out
    }

    /// Prints the report to stdout (the default path `scripts/ci.sh`
    /// smoke-exercises).
    pub fn print(&self) {
        print!("{}", self.report());
    }
}

/// Per-arm timings of one [`interleaved`] measurement, in nanoseconds
/// per round.
#[derive(Debug, Clone, Copy)]
pub struct Interleaved {
    /// Fastest round of arm `a`.
    pub a_min_ns: u128,
    /// Fastest round of arm `b`.
    pub b_min_ns: u128,
    /// Median round of arm `a`.
    pub a_median_ns: u128,
    /// Median round of arm `b`.
    pub b_median_ns: u128,
    /// Median over rounds of the per-round ratio `a / b`.
    pub ratio_median: f64,
}

/// Interleaved two-arm timing: one unmeasured warm-up round, then
/// `rounds` rounds that each run `a` and then `b`. Adjacent samples share
/// the same noise phase, so per-round ratios are stable and their median
/// discards outliers. Each arm returns the nanoseconds its round took:
/// [`time_ns`] around the work, or a time the work measured itself.
///
/// # Panics
/// Panics if `rounds` is zero.
pub fn interleaved(
    rounds: usize,
    a: &mut dyn FnMut() -> u128,
    b: &mut dyn FnMut() -> u128,
) -> Interleaved {
    assert!(rounds > 0, "need at least one measured round");
    a();
    b();
    let (mut xs, mut ys): (Vec<u128>, Vec<u128>) = (0..rounds).map(|_| (a(), b())).unzip();
    let mut ratios: Vec<f64> = xs
        .iter()
        .zip(&ys)
        .map(|(&x, &y)| x as f64 / y.max(1) as f64)
        .collect();
    ratios.sort_by(f64::total_cmp);
    xs.sort_unstable();
    ys.sort_unstable();
    Interleaved {
        a_min_ns: xs[0],
        b_min_ns: ys[0],
        a_median_ns: xs[rounds / 2],
        b_median_ns: ys[rounds / 2],
        ratio_median: ratios[rounds / 2],
    }
}

/// Wall-clock nanoseconds per call of `f`, over `calls` back-to-back
/// calls.
pub fn time_ns(calls: u32, mut f: impl FnMut()) -> u128 {
    let start = Instant::now();
    for _ in 0..calls {
        f();
    }
    (start.elapsed() / calls).as_nanos()
}

fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.2} s", ns as f64 / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_and_reports() {
        let mut b = Bench::new("unit")
            .samples(3)
            .sample_target(Duration::from_micros(200));
        let m = b.run("noop-ish", || 1 + 1);
        assert!(m.iters >= 1);
        let m = m.clone();
        assert!(m.median >= m.min);
        let report = b.report();
        assert!(report.contains("noop-ish"), "{report}");
        assert!(report.contains("median"), "{report}");
    }

    #[test]
    fn slow_closures_run_once_per_sample() {
        let mut b = Bench::new("unit")
            .samples(2)
            .sample_target(Duration::from_nanos(1));
        let m = b.run("sleepy", || std::thread::sleep(Duration::from_micros(50)));
        assert_eq!(m.iters, 1);
    }

    #[test]
    fn interleaved_reports_min_median_and_median_ratio() {
        // Arm `a` takes 10, 40, 20, 30, 50 ns after a 999 ns warm-up;
        // arm `b` always takes 10 ns.
        let mut a_times = [999u128, 10, 40, 20, 30, 50].into_iter();
        let t = interleaved(5, &mut || a_times.next().expect("six calls"), &mut || 10);
        assert_eq!(a_times.next(), None, "one warm-up plus five rounds");
        assert_eq!((t.a_min_ns, t.a_median_ns), (10, 30));
        assert_eq!((t.b_min_ns, t.b_median_ns), (10, 10));
        assert_eq!(t.ratio_median, 3.0);
    }

    #[test]
    fn duration_formatting_scales() {
        assert_eq!(fmt_duration(Duration::from_nanos(500)), "500 ns");
        assert_eq!(fmt_duration(Duration::from_micros(1500)), "1.50 ms");
        assert_eq!(fmt_duration(Duration::from_secs(2)), "2.00 s");
        assert!(fmt_duration(Duration::from_micros(2)).contains("µs"));
    }

    #[test]
    fn end_to_end_on_a_real_kernel() {
        // The harness must survive a real SAG workload: one small SAMC
        // solve, measured honestly.
        let sc = crate::bench_scenario(300.0, 6, 3);
        let mut b = Bench::new("smoke")
            .samples(2)
            .sample_target(Duration::from_millis(1));
        b.run("samc small", || sag_sim::experiments::run_samc(&sc));
        assert_eq!(b.measurements().len(), 1);
    }
}
