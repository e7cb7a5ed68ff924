//! Measurement primitives: latency samples, the benchmark's own layer
//! spans, medians and peak memory.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Milliseconds in a duration, as a float.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// A set of samples (any unit) with nearest-rank percentiles.
#[derive(Debug, Default, Clone)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn extend(&mut self, other: &Samples) {
        self.0.extend_from_slice(&other.0);
    }

    /// Nearest-rank percentile (`p` in percent); 0 when empty.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
        v[rank.clamp(1, v.len()) - 1]
    }

    /// The median, over `windows` consecutive equal slices of the
    /// samples in arrival order, of each slice's percentile `p`. A host
    /// stall that backs up an open-loop queue then moves one slice, not
    /// the result.
    pub fn windowed_percentile(&self, p: f64, windows: usize) -> f64 {
        let size = self.0.len().div_ceil(windows.max(1)).max(1);
        let per_window: Vec<f64> = self
            .0
            .chunks(size)
            .map(|w| Samples(w.to_vec()).percentile(p))
            .collect();
        median(&per_window)
    }

    /// Arithmetic mean; 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        self.0.iter().sum::<f64>() / self.0.len() as f64
    }

    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }
}

/// Median of `values` (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Layer spans the benchmark records around its own calls into the
/// library: per layer name, how often it ran and for how long.
///
/// Spans are never nested and each thread runs one span at a time, so
/// the summed durations are the time the layer spans cover.
#[derive(Debug, Default)]
pub struct Layers {
    totals: Mutex<BTreeMap<&'static str, (u64, Duration)>>,
}

impl Layers {
    /// Runs `f` inside the layer span `name`.
    pub fn time<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let out = f();
        let took = started.elapsed();
        let mut totals = self.totals.lock().expect("layer totals lock poisoned");
        let entry = totals.entry(name).or_default();
        entry.0 += 1;
        entry.1 += took;
        out
    }

    /// Total milliseconds spent in layer `name`.
    pub fn total_ms(&self, name: &str) -> f64 {
        let totals = self.totals.lock().expect("layer totals lock poisoned");
        totals.get(name).map_or(0.0, |&(_, d)| ms(d))
    }

    /// Mean milliseconds per span of layer `name`.
    pub fn mean_ms(&self, name: &str) -> f64 {
        let totals = self.totals.lock().expect("layer totals lock poisoned");
        totals
            .get(name)
            .map_or(0.0, |&(n, d)| if n == 0 { 0.0 } else { ms(d) / n as f64 })
    }

    /// Milliseconds covered by any layer span.
    pub fn covered_ms(&self) -> f64 {
        let totals = self.totals.lock().expect("layer totals lock poisoned");
        totals.values().map(|&(_, d)| ms(d)).sum()
    }
}

/// Peak resident set size of this process in MB (`VmHWM`), 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Waits until `due` by spinning. A sleep would let the CPU idle, and
/// waking it again can take milliseconds on a virtual machine, which
/// would show up as generator lateness.
pub fn wait_until(due: Instant) {
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let mut s = Samples::default();
        for v in 1..=100 {
            s.push(v as f64);
        }
        assert_eq!(s.percentile(50.0), 50.0);
        assert_eq!(s.percentile(90.0), 90.0);
        assert_eq!(s.percentile(99.0), 99.0);
        assert_eq!(s.percentile(100.0), 100.0);
        assert_eq!(Samples::default().percentile(50.0), 0.0);
    }

    #[test]
    fn windowed_percentile_ignores_one_bad_window() {
        let mut s = Samples::default();
        for w in 0..5 {
            for v in 1..=100 {
                s.push(if w == 2 { 1000.0 } else { v as f64 });
            }
        }
        assert_eq!(s.windowed_percentile(99.0, 5), 99.0);
        assert_eq!(s.percentile(99.0), 1000.0);
    }

    #[test]
    fn medians() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
