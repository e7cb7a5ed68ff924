//! Shared scaffolding for the eight `bench_*` binaries: gate
//! resolution, canonical scenario builders, and a built-in wall-clock
//! [`harness`].
//!
//! Everything is zero-dependency and runs offline; `crates/bench/README.md`
//! lists the binaries, their artefacts and their CI gates.

use sag_core::model::Scenario;
use sag_sim::gen::{BsLayout, ScenarioSpec};
use sag_sim::runner::SweepConfig;

pub mod harness;

/// Hardware threads visible to this process (1 when the query fails).
/// Every `BENCH_*.json` emitter records this so a gate skipped on a
/// small runner is distinguishable from one skipped by a bug.
pub fn hardware_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Whether `SAG_BENCH_STRICT` requests that benchmark self-skips fail
/// instead of recording `"gate": "skipped (…)"`. Any non-empty value
/// other than `0` turns it on.
pub fn strict() -> bool {
    matches!(std::env::var("SAG_BENCH_STRICT").as_deref(), Ok(v) if !v.is_empty() && v != "0")
}

/// Shared enforce-or-skip resolution for benchmark gates: returns the
/// machine-readable `gate` string for the JSON artefact and whether the
/// floor/ceiling assertions should run. Under [`strict`] a would-be
/// skip panics instead, so CI environments that must never silently
/// drop a gate (e.g. the release runner) turn self-skips into failures.
pub fn resolve_gate(enforce: bool, skip_reason: &str) -> (String, bool) {
    if enforce {
        ("enforced".to_string(), true)
    } else if strict() {
        panic!("SAG_BENCH_STRICT is set: refusing to skip benchmark gate ({skip_reason})")
    } else {
        (format!("skipped ({skip_reason})"), false)
    }
}

/// The sweep configuration benches use: few runs, deterministic seeds.
pub fn bench_sweep() -> SweepConfig {
    SweepConfig {
        runs: 2,
        base_seed: 77,
        threads: 4,
    }
}

/// A canonical benchmark scenario on the given field with `users`
/// subscribers (paper defaults: −15 dB, 4 BSs).
pub fn bench_scenario(field: f64, users: usize, seed: u64) -> Scenario {
    ScenarioSpec {
        field_size: field,
        n_subscribers: users,
        n_base_stations: 4,
        snr_db: -15.0,
        bs_layout: BsLayout::Uniform,
        ..Default::default()
    }
    .build(seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_are_deterministic() {
        assert_eq!(bench_scenario(500.0, 10, 1), bench_scenario(500.0, 10, 1));
        assert_eq!(bench_sweep().runs, 2);
    }

    #[test]
    fn hardware_threads_is_positive() {
        assert!(hardware_threads() >= 1);
    }

    #[test]
    fn gate_resolution() {
        let (gate, enforce) = resolve_gate(true, "unused");
        assert_eq!(gate, "enforced");
        assert!(enforce);
        // The skip branch panics under SAG_BENCH_STRICT by design, so
        // only exercise it when the knob is off in this environment.
        if !strict() {
            let (gate, enforce) = resolve_gate(false, "2 zones below the 16-zone minimum");
            assert_eq!(gate, "skipped (2 zones below the 16-zone minimum)");
            assert!(!enforce);
        }
    }
}
