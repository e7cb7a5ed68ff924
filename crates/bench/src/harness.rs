//! Zero-dependency wall-clock timing for the `bench_*` binaries.
//!
//! Not a Criterion replacement — no outlier rejection, no HTML reports —
//! but deterministic in *what* it measures and entirely offline.
//! [`interleaved`] times any number of arms round by round: adjacent
//! samples share the same noise phase, so per-round ratios are stable
//! and their median discards outliers. Each arm times itself with
//! [`time_ns`], or with [`calibrated`] when one call is too short for
//! the clock to resolve.
//!
//! ```
//! use sag_bench::harness::{interleaved, time_ns};
//! use std::hint::black_box;
//! let sum = |n: u64| move || (1..black_box(n)).sum::<u64>();
//! let t = interleaved(
//!     3,
//!     &mut [&mut || time_ns(4, sum(4000)), &mut || time_ns(4, sum(40))],
//! );
//! assert!(t.min_ns(0) <= t.median_ns(0));
//! assert!(t.ratio_median(&[0], &[1]) > 0.0);
//! ```

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Per-arm, per-round timings of one [`interleaved`] measurement, in
/// nanoseconds.
#[derive(Debug, Clone)]
pub struct Interleaved {
    /// `times[arm][round]`, in round order.
    times: Vec<Vec<u128>>,
}

impl Interleaved {
    /// Fastest round of `arm`.
    pub fn min_ns(&self, arm: usize) -> u128 {
        *self.times[arm].iter().min().expect("at least one round")
    }

    /// Median round of `arm` (the upper median for an even count).
    pub fn median_ns(&self, arm: usize) -> u128 {
        let mut xs = self.times[arm].clone();
        xs.sort_unstable();
        xs[xs.len() / 2]
    }

    /// Median over rounds of the per-round ratio of the summed times of
    /// the `num` arms to the summed times of the `den` arms.
    pub fn ratio_median(&self, num: &[usize], den: &[usize]) -> f64 {
        let sum = |arms: &[usize], round: usize| -> u128 {
            arms.iter().map(|&arm| self.times[arm][round]).sum()
        };
        let mut ratios: Vec<f64> = (0..self.times[0].len())
            .map(|r| sum(num, r) as f64 / sum(den, r).max(1) as f64)
            .collect();
        ratios.sort_by(f64::total_cmp);
        ratios[ratios.len() / 2]
    }
}

/// Interleaved N-arm timing: one unmeasured warm-up round, then
/// `rounds` rounds that each run every arm once, in order. Each arm
/// returns the nanoseconds its round took: [`time_ns`] around the work,
/// or a time the work measured itself.
///
/// # Panics
/// Panics if `rounds` is zero or `arms` is empty.
pub fn interleaved(rounds: usize, arms: &mut [&mut dyn FnMut() -> u128]) -> Interleaved {
    assert!(rounds > 0, "need at least one measured round");
    assert!(!arms.is_empty(), "need at least one arm");
    for arm in arms.iter_mut() {
        arm();
    }
    let mut times = vec![Vec::with_capacity(rounds); arms.len()];
    for _ in 0..rounds {
        for (arm, t) in arms.iter_mut().zip(&mut times) {
            t.push(arm());
        }
    }
    Interleaved { times }
}

/// Wall-clock nanoseconds per call of `f`, over `calls` back-to-back
/// calls. Each result goes through [`black_box`], so the work is never
/// optimised away.
pub fn time_ns<T>(calls: u32, mut f: impl FnMut() -> T) -> u128 {
    let start = Instant::now();
    for _ in 0..calls {
        black_box(f());
    }
    (start.elapsed() / calls).as_nanos()
}

/// An [`interleaved`] arm that runs `f` often enough per round to fill
/// at least `target` and returns the nanoseconds per call. The call
/// count is fixed once, from one timed call of `f`.
pub fn calibrated<T>(target: Duration, mut f: impl FnMut() -> T) -> impl FnMut() -> u128 {
    let once = time_ns(1, &mut f);
    let calls = target.as_nanos().div_ceil(once.max(1)).clamp(1, 1 << 24) as u32;
    move || time_ns(calls, &mut f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    #[test]
    fn slow_closures_run_once_per_sample() {
        let mut calls = 0;
        let mut arm = calibrated(Duration::from_nanos(1), || {
            calls += 1;
            std::thread::sleep(Duration::from_micros(50));
        });
        assert!(arm() >= 50_000);
        drop(arm);
        assert_eq!(calls, 2, "one calibrating call, then one call per round");
    }

    #[test]
    fn interleaved_reports_min_median_and_median_ratio() {
        // Arm 0 takes 10, 40, 20, 30, 50 ns after a 999 ns warm-up;
        // arm 1 always takes 10 ns; arm 2 takes 5 ns after a warm-up.
        let log = RefCell::new(Vec::new());
        let mut a_times = [999u128, 10, 40, 20, 30, 50].into_iter();
        let mut c_times = [7u128, 5, 5, 5, 5, 5].into_iter();
        let t = interleaved(
            5,
            &mut [
                &mut || {
                    log.borrow_mut().push('a');
                    a_times.next().expect("six calls")
                },
                &mut || {
                    log.borrow_mut().push('b');
                    10
                },
                &mut || {
                    log.borrow_mut().push('c');
                    c_times.next().expect("six calls")
                },
            ],
        );
        assert_eq!(a_times.next(), None, "one warm-up plus five rounds");
        assert_eq!(log.into_inner().iter().collect::<String>(), "abc".repeat(6));
        assert_eq!((t.min_ns(0), t.median_ns(0)), (10, 30));
        assert_eq!((t.min_ns(1), t.median_ns(1)), (10, 10));
        assert_eq!((t.min_ns(2), t.median_ns(2)), (5, 5));
        assert_eq!(t.ratio_median(&[0], &[1]), 3.0);
        assert_eq!(t.ratio_median(&[1], &[2]), 2.0);
        // Per round (a + b) / c: 4, 10, 6, 8, 12.
        assert_eq!(t.ratio_median(&[0, 1], &[2]), 8.0);
    }

    #[test]
    fn end_to_end_on_a_real_kernel() {
        // The harness must survive a real SAG workload: one small SAMC
        // solve against itself, measured honestly.
        let sc = crate::bench_scenario(300.0, 6, 3);
        let target = Duration::from_micros(200);
        let t = interleaved(
            3,
            &mut [
                &mut calibrated(target, || sag_sim::experiments::run_samc(&sc)),
                &mut calibrated(target, || sag_sim::experiments::run_samc(&sc)),
            ],
        );
        assert!(t.min_ns(0) > 0 && t.min_ns(0) <= t.median_ns(0));
        assert!(t.ratio_median(&[0], &[1]) > 0.0);
    }
}
