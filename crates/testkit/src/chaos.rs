//! Fault-injection primitives for chaos/robustness testing.
//!
//! Zero-dependency building blocks for adversarial inputs: poisoned
//! floats (NaN/∞/subnormal extremes) and a catalogue of structural
//! [`Fault`]s that robustness suites apply to domain objects (the
//! scenario-specific mutators live with the types they mutate, e.g. in
//! the workspace `tests` crate). The invariant such suites assert is
//! always the same: **any input → a typed error or a validated result,
//! never a panic**.

use crate::rng::Rng;

/// A structural fault an adversarial-input generator can inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Fault {
    /// Replace a numeric field with NaN.
    NanInject,
    /// Replace a numeric field with ±∞.
    InfInject,
    /// Collapse a region to zero width/height.
    ZeroWidthRegion,
    /// Duplicate a station exactly on top of another.
    CoincidentStations,
    /// Place three or more stations exactly on one line.
    ColinearStations,
    /// Push a threshold (β, SNR, power cap) to an extreme magnitude.
    ExtremeThreshold,
    /// Cluster many stations in a vanishingly small area.
    AdversarialCluster,
    /// Desynchronise an incremental accumulator from its inputs (a
    /// stale interference-ledger entry). Realised by skewing ledger
    /// state rather than mutating the scenario; the invariant under
    /// test is that oracle cross-checks surface it as a typed error.
    LedgerDesync,
    /// Make the observability sink fail on every write. Realised at
    /// the sink level (a failing writer behind `sag_obs::JsonlSink`)
    /// rather than by mutating the scenario; the invariant under test
    /// is that a broken sink never alters results or panics — events
    /// are dropped and counted.
    ObsSinkFail,
    /// Kill a zone worker thread mid-solve. Realised at the
    /// zone-engine level (`sag_core::engine::inject_zone_worker_panic`)
    /// rather than by mutating the scenario; the invariant under test
    /// is that a panicking worker surfaces a typed `WorkerPanic` error
    /// instead of hanging the merge or poisoning the process.
    ZoneWorkerPanic,
    /// Starve the per-event repair budget with an event burst: a batch
    /// of churn events delivered under a zero (already-expired) budget.
    /// Realised at the churn-engine level (a `Budget` whose deadline has
    /// passed before the first event); the invariant under test is that
    /// the degradation ladder bottoms out in defer-and-batch — never a
    /// hang or an unserved subscriber after the final flush.
    ChurnBurst,
    /// Drive a mobility trace straight across a zone boundary: a
    /// subscriber move whose destination lands in (or bridges) a
    /// different interference zone, forcing the dirty-set closure to
    /// merge/split zones. Realised at the churn trace-generator level;
    /// the invariant under test is that cross-zone repairs stay
    /// audit-clean and leave no stale relay behind.
    ChurnBoundaryHop,
    /// Skew one entry of the sparse LP basis factorization so the
    /// factored basis no longer matches the true basis columns.
    /// Realised at the solver level (`sag_lp::revised::inject_lu_skew`)
    /// rather than by mutating the scenario; the invariant under test
    /// is that the residual self-check detects the drift and either
    /// refactorizes (transient skew) or surfaces a typed
    /// `LpError::Numerical` (persistent skew) — never a silently wrong
    /// objective.
    LpBasisDesync,
}

impl Fault {
    /// Every fault, for exhaustive sweeps.
    pub const fn all() -> [Fault; 13] {
        [
            Fault::NanInject,
            Fault::InfInject,
            Fault::ZeroWidthRegion,
            Fault::CoincidentStations,
            Fault::ColinearStations,
            Fault::ExtremeThreshold,
            Fault::AdversarialCluster,
            Fault::LedgerDesync,
            Fault::ObsSinkFail,
            Fault::ZoneWorkerPanic,
            Fault::ChurnBurst,
            Fault::ChurnBoundaryHop,
            Fault::LpBasisDesync,
        ]
    }

    /// A uniformly random fault.
    pub fn sample(rng: &mut Rng) -> Fault {
        let all = Fault::all();
        all[rng.gen_range(0usize..all.len())]
    }
}

/// Flips one random byte of `data` to a random different value and
/// returns the (index, original, replacement) triple. Pairs with
/// [`Fault::ObsSinkFail`]: corrupt a captured JSONL stream in place
/// and assert the validator rejects (or a scanner survives) the
/// damaged line without panicking. No-op returning `None` on empty
/// input.
pub fn flip_byte(rng: &mut Rng, data: &mut [u8]) -> Option<(usize, u8, u8)> {
    if data.is_empty() {
        return None;
    }
    let idx = rng.gen_range(0usize..data.len());
    let orig = data[idx];
    let mut repl = orig;
    while repl == orig {
        repl = rng.gen_range(0u8..=u8::MAX);
    }
    data[idx] = repl;
    Some((idx, orig, repl))
}

/// A "poisoned" float: NaN, ±∞, a signed zero, or a magnitude extreme
/// (subnormal / near-`MAX`) — the values numeric code mishandles first.
pub fn poisoned_f64(rng: &mut Rng) -> f64 {
    match rng.gen_range(0usize..8) {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => 0.0,
        4 => -0.0,
        5 => f64::MIN_POSITIVE / 2.0, // subnormal
        6 => f64::MAX / 2.0,
        _ => -f64::MAX / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_faults_are_distinct() {
        let all = Fault::all();
        for (i, a) in all.iter().enumerate() {
            for b in &all[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn sample_covers_every_fault() {
        let mut rng = Rng::seed_from_u64(42);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..1000 {
            seen.insert(Fault::sample(&mut rng));
        }
        assert_eq!(seen.len(), Fault::all().len());
    }

    #[test]
    fn flip_byte_changes_exactly_one_byte() {
        let mut rng = Rng::seed_from_u64(11);
        for _ in 0..200 {
            let mut data = b"{\"kind\":\"counter\",\"v\":1}".to_vec();
            let before = data.clone();
            let (idx, orig, repl) = flip_byte(&mut rng, &mut data).expect("non-empty");
            assert_eq!(before[idx], orig);
            assert_eq!(data[idx], repl);
            assert_ne!(orig, repl);
            let diffs = before.iter().zip(&data).filter(|(a, b)| a != b).count();
            assert_eq!(diffs, 1);
        }
        assert!(flip_byte(&mut rng, &mut []).is_none());
    }

    #[test]
    fn poisoned_floats_hit_non_finite_and_finite_extremes() {
        let mut rng = Rng::seed_from_u64(7);
        let vals: Vec<f64> = (0..500).map(|_| poisoned_f64(&mut rng)).collect();
        assert!(vals.iter().any(|v| v.is_nan()));
        assert!(vals.iter().any(|v| v.is_infinite()));
        assert!(vals.iter().any(|v| v.is_finite()));
    }
}
