//! Feasible coverage: assignment, SNR checks, and the
//! [`CoverageSolution`] type shared by all lower-tier algorithms.
//!
//! Definition 1 (feasible coverage): relay `r` feasibly covers subscriber
//! `s_j` when `d(r, s_j) ≤ d_j` (capacity) **and** the SNR received at
//! `s_j` clears the threshold β (Definition 2, with every placed relay as
//! an interferer). With all relays at equal power the SNR depends only on
//! distances — the form used during placement; per-relay powers enter
//! later through PRO.

use sag_geom::Point;
use sag_radio::ledger::{InterferenceLedger, LedgerMode};
use sag_radio::snr;

use crate::model::Scenario;

thread_local! {
    /// Scoped override of the ledger query mode, installed by
    /// [`push_ledger_mode_override`]. Thread-local so concurrent
    /// pipelines (sweep workers, parallel tests) cannot race each
    /// other; the zone engine re-installs the coordinator's override on
    /// its workers explicitly.
    static MODE_OVERRIDE: std::cell::Cell<Option<LedgerMode>> =
        const { std::cell::Cell::new(None) };
}

/// The ledger query mode the pipeline runs with: the scoped override
/// when one is installed (an explicit
/// [`crate::sag::SagPipelineConfig::snr_oracle`] choice), incremental
/// otherwise.
fn ledger_mode() -> LedgerMode {
    MODE_OVERRIDE.with(std::cell::Cell::get).unwrap_or_default()
}

/// The currently installed scoped override, if any (what the zone
/// engine copies onto its workers).
pub(crate) fn ledger_mode_override() -> Option<LedgerMode> {
    MODE_OVERRIDE.with(std::cell::Cell::get)
}

/// Installs a scoped ledger-mode override on this thread; the previous
/// value is restored when the returned guard drops. `None` clears any
/// outer override back to the incremental default for the scope.
pub(crate) fn push_ledger_mode_override(mode: Option<LedgerMode>) -> LedgerModeGuard {
    let previous = MODE_OVERRIDE.with(|c| c.replace(mode));
    LedgerModeGuard { previous }
}

/// Restores the previous ledger-mode override on drop (returned by
/// [`push_ledger_mode_override`]).
pub(crate) struct LedgerModeGuard {
    previous: Option<LedgerMode>,
}

impl Drop for LedgerModeGuard {
    fn drop(&mut self) {
        MODE_OVERRIDE.with(|c| c.set(self.previous));
    }
}

/// Builds an [`InterferenceLedger`] over the scenario's subscribers with
/// the given relays at uniform (unit) power — the placement-time view
/// where the power level cancels out of every SNR. Relay ids coincide
/// with indices into `relays`. Runs in the mode of the scoped
/// [`crate::sag::SagPipelineConfig::snr_oracle`] override, if any.
pub fn interference_ledger(scenario: &Scenario, relays: &[Point]) -> InterferenceLedger {
    let mut ledger = InterferenceLedger::new(
        *scenario.params.link.model(),
        scenario.subscribers.iter().map(|s| s.position).collect(),
    )
    .with_mode(ledger_mode());
    for &r in relays {
        ledger.add_relay(r, 1.0);
    }
    ledger
}

/// Builds an [`InterferenceLedger`] with explicit per-relay powers —
/// the PRO-time view. Relay ids coincide with indices into `relays`.
///
/// # Panics
/// Panics if `relays` and `powers` differ in length.
pub fn powered_ledger(scenario: &Scenario, relays: &[Point], powers: &[f64]) -> InterferenceLedger {
    assert_eq!(
        relays.len(),
        powers.len(),
        "one power per relay ({} relays, {} powers)",
        relays.len(),
        powers.len()
    );
    let mut ledger = InterferenceLedger::new(
        *scenario.params.link.model(),
        scenario.subscribers.iter().map(|s| s.position).collect(),
    )
    .with_mode(ledger_mode());
    for (&r, &p) in relays.iter().zip(powers) {
        ledger.add_relay(r, p);
    }
    ledger
}

/// Flushes a ledger's accumulated [`sag_radio::LedgerStats`] into the
/// observability counters (`ledger.delta_ops`, `ledger.cancel_refreshes`,
/// `ledger.guard_activations`, `ledger.rebuilds`). Stages call this once
/// at the end of a solve so the per-mutation hot paths stay
/// uninstrumented; a no-op while recording is disabled.
pub(crate) fn flush_ledger_stats(ledger: &InterferenceLedger) {
    if !sag_obs::enabled() {
        return;
    }
    let s = ledger.stats();
    sag_obs::counter("ledger.delta_ops", s.delta_ops);
    sag_obs::counter("ledger.cancel_refreshes", s.cancel_refreshes);
    sag_obs::counter("ledger.guard_activations", s.guard_activations);
    sag_obs::counter("ledger.rebuilds", s.rebuilds);
}

/// A reverse relay→subscribers index over an assignment, in CSR form:
/// `of(r)` is the slice of subscribers served by relay `r`, in
/// subscriber order. Built once in `O(S + R)` by counting sort, so
/// stage loops stop paying `O(S)` per relay for
/// [`CoverageSolution::subscribers_of`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServedIndex {
    starts: Vec<usize>,
    subs: Vec<usize>,
}

impl ServedIndex {
    /// Builds the index for `n_relays` relays from `assignment`.
    ///
    /// # Panics
    /// Panics if some assignment entry is `≥ n_relays`.
    pub fn build(n_relays: usize, assignment: &[usize]) -> Self {
        let mut counts = vec![0usize; n_relays];
        for &r in assignment {
            assert!(
                r < n_relays,
                "assignment references relay {r} of {n_relays}"
            );
            counts[r] += 1;
        }
        let mut starts = Vec::with_capacity(n_relays + 1);
        let mut acc = 0usize;
        starts.push(0);
        for &c in &counts {
            acc += c;
            starts.push(acc);
        }
        let mut cursor = starts.clone();
        let mut subs = vec![0usize; assignment.len()];
        for (j, &r) in assignment.iter().enumerate() {
            subs[cursor[r]] = j;
            cursor[r] += 1;
        }
        ServedIndex { starts, subs }
    }

    /// Number of relays the index covers.
    pub fn n_relays(&self) -> usize {
        self.starts.len() - 1
    }

    /// Subscribers served by relay `r`, in subscriber order.
    pub fn of(&self, r: usize) -> &[usize] {
        &self.subs[self.starts[r]..self.starts[r + 1]]
    }

    /// Number of relays serving exactly one subscriber (the
    /// one-on-one relays of the Sliding-Movement stage).
    pub fn one_on_one(&self) -> usize {
        (0..self.n_relays())
            .filter(|&r| self.of(r).len() == 1)
            .count()
    }
}

/// A lower-tier placement: relay positions plus the SS→relay assignment.
#[derive(Debug, Clone, PartialEq)]
pub struct CoverageSolution {
    /// Positions of the placed coverage relays.
    pub relays: Vec<Point>,
    /// `assignment[j]` = index into `relays` serving subscriber `j`.
    pub assignment: Vec<usize>,
}

impl CoverageSolution {
    /// Number of placed relays.
    pub fn n_relays(&self) -> usize {
        self.relays.len()
    }

    /// Subscribers assigned to relay `r`, in subscriber order.
    ///
    /// `O(S)` per call; stage loops that query every relay should build
    /// a [`ServedIndex`] via
    /// [`served_index`](CoverageSolution::served_index) once instead.
    pub fn subscribers_of(&self, r: usize) -> Vec<usize> {
        self.assignment
            .iter()
            .enumerate()
            .filter_map(|(j, &a)| (a == r).then_some(j))
            .collect()
    }

    /// Builds the reverse relay→subscribers index for this solution
    /// (`O(S + R)` once, then `O(1)` slice access per relay).
    pub fn served_index(&self) -> ServedIndex {
        ServedIndex::build(self.relays.len(), &self.assignment)
    }
}

/// SNR at subscriber `j` when served by `relays[serving]`, all relays
/// transmitting at the same power (placement-time check; the power level
/// cancels).
pub fn placement_snr(scenario: &Scenario, relays: &[Point], j: usize, serving: usize) -> f64 {
    snr::placement_snr_uniform(
        scenario.params.link.model(),
        scenario.subscribers[j].position,
        relays,
        serving,
    )
}

/// SNR at subscriber `j` when served by `relays[serving]` with explicit
/// per-relay powers (PRO-time check).
pub fn powered_snr(
    scenario: &Scenario,
    relays: &[Point],
    powers: &[f64],
    j: usize,
    serving: usize,
) -> f64 {
    snr::placement_snr(
        scenario.params.link.model(),
        scenario.subscribers[j].position,
        relays,
        powers,
        serving,
    )
}

/// Greedy feasibility-maximising assignment: each subscriber is served by
/// its **nearest** relay within its feasible distance.
///
/// With equal relay powers the nearest in-range relay maximises the SNR
/// (the interference term is the same whichever relay serves), so this
/// assignment is feasible whenever *any* assignment is.
///
/// Returns `None` if some subscriber has no relay within distance.
pub fn assign_nearest(scenario: &Scenario, relays: &[Point]) -> Option<Vec<usize>> {
    let mut assignment = Vec::with_capacity(scenario.n_subscribers());
    for sub in &scenario.subscribers {
        let best = relays
            .iter()
            .enumerate()
            .filter(|(_, r)| r.distance(sub.position) <= sub.distance_req + 1e-9)
            .min_by(|a, b| {
                sag_geom::float::total_cmp(&a.1.distance(sub.position), &b.1.distance(sub.position))
            })
            .map(|(i, _)| i)?;
        assignment.push(best);
    }
    Some(assignment)
}

/// Indices of subscribers whose SNR constraint is violated under the
/// given placement and assignment (uniform powers).
///
/// Goes through a freshly built [`InterferenceLedger`], which is
/// bit-identical to the brute-force sum
/// ([`snr_violations_brute`]); callers that already hold a ledger
/// should use [`snr_violations_ledger`] and skip the rebuild.
pub fn snr_violations(scenario: &Scenario, relays: &[Point], assignment: &[usize]) -> Vec<usize> {
    let ledger = interference_ledger(scenario, relays);
    snr_violations_ledger(scenario, &ledger, assignment)
}

/// [`snr_violations`] against an existing ledger: `O(S)` total instead
/// of `O(S·R)`. The ledger's relay ids must coincide with the
/// assignment's relay indices (true for ledgers built by
/// [`interference_ledger`] / [`powered_ledger`]).
pub fn snr_violations_ledger(
    scenario: &Scenario,
    ledger: &InterferenceLedger,
    assignment: &[usize],
) -> Vec<usize> {
    let beta = scenario.params.link.beta();
    (0..scenario.n_subscribers())
        .filter(|&j| ledger.snr(j, assignment[j]) < beta - 1e-12)
        .collect()
}

/// The original ad-hoc `O(S·R²)` violation scan, recomputing every SNR
/// from scratch via [`placement_snr`]. Kept as the reference
/// implementation for parity tests and benchmarks; production paths use
/// the ledger.
pub fn snr_violations_brute(
    scenario: &Scenario,
    relays: &[Point],
    assignment: &[usize],
) -> Vec<usize> {
    let beta = scenario.params.link.beta();
    (0..scenario.n_subscribers())
        .filter(|&j| placement_snr(scenario, relays, j, assignment[j]) < beta - 1e-12)
        .collect()
}

/// Full feasibility check of a coverage solution under uniform powers:
/// every subscriber in distance range of its relay and above the SNR
/// threshold.
pub fn is_feasible(scenario: &Scenario, sol: &CoverageSolution) -> bool {
    if sol.assignment.len() != scenario.n_subscribers() {
        return false;
    }
    for (j, sub) in scenario.subscribers.iter().enumerate() {
        let r = sol.assignment[j];
        if r >= sol.relays.len() {
            return false;
        }
        if sol.relays[r].distance(sub.position) > sub.distance_req + 1e-9 {
            return false;
        }
    }
    snr_violations(scenario, &sol.relays, &sol.assignment).is_empty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{BaseStation, NetworkParams, Subscriber};
    use sag_geom::Rect;
    use sag_radio::{units::Db, LinkBudget};

    fn scenario(subs: Vec<(f64, f64, f64)>, beta_db: f64) -> Scenario {
        let params = NetworkParams::new(
            LinkBudget::builder()
                .snr_threshold(Db::new(beta_db))
                .build(),
            1e-9,
        );
        Scenario::new(
            Rect::centered_square(500.0),
            subs.into_iter()
                .map(|(x, y, d)| Subscriber::new(Point::new(x, y), d))
                .collect(),
            vec![BaseStation::new(Point::new(200.0, 200.0))],
            params,
        )
        .unwrap()
    }

    #[test]
    fn assignment_prefers_nearest_in_range() {
        let sc = scenario(vec![(0.0, 0.0, 30.0)], -15.0);
        let relays = vec![Point::new(20.0, 0.0), Point::new(5.0, 0.0)];
        let a = assign_nearest(&sc, &relays).unwrap();
        assert_eq!(a, vec![1]);
    }

    #[test]
    fn assignment_none_when_out_of_range() {
        let sc = scenario(vec![(0.0, 0.0, 30.0)], -15.0);
        assert!(assign_nearest(&sc, &[Point::new(100.0, 0.0)]).is_none());
    }

    #[test]
    fn single_relay_always_meets_snr() {
        // One relay → no interference → infinite SNR.
        let sc = scenario(vec![(0.0, 0.0, 30.0), (10.0, 0.0, 30.0)], -10.0);
        let relays = vec![Point::new(5.0, 0.0)];
        let assignment = assign_nearest(&sc, &relays).unwrap();
        let sol = CoverageSolution { relays, assignment };
        assert!(is_feasible(&sc, &sol));
        assert_eq!(sol.n_relays(), 1);
        assert_eq!(sol.subscribers_of(0), vec![0, 1]);
    }

    #[test]
    fn close_interferer_violates_snr() {
        // Two subscribers, each with its own relay; SS0's interferer sits
        // close enough that a strict threshold fails while a lenient one
        // passes.
        let subs = vec![(0.0, 0.0, 30.0), (60.0, 0.0, 30.0)];
        // SS0: serving at 25, interferer at 40 → SNR = (40/25)³ ≈ 4.10
        // (6.1 dB). SS1: serving at 20, interferer at 35 → (35/20)³ ≈
        // 5.36 (7.3 dB).
        let relays = vec![Point::new(25.0, 0.0), Point::new(40.0, 0.0)];
        let lenient = scenario(subs.clone(), -15.0);
        let a = assign_nearest(&lenient, &relays).unwrap();
        assert_eq!(a, vec![0, 1]);
        assert!(snr_violations(&lenient, &relays, &a).is_empty());
        // 6.5 dB (4.47): SS0 violated (4.10), SS1 fine (5.36).
        let strict = scenario(subs, 6.5);
        let a = assign_nearest(&strict, &relays).unwrap();
        assert_eq!(snr_violations(&strict, &relays, &a), vec![0]);
    }

    #[test]
    fn feasibility_rejects_malformed() {
        let sc = scenario(vec![(0.0, 0.0, 30.0)], -15.0);
        // Assignment out of bounds.
        let sol = CoverageSolution {
            relays: vec![Point::ORIGIN],
            assignment: vec![3],
        };
        assert!(!is_feasible(&sc, &sol));
        // Wrong assignment length.
        let sol = CoverageSolution {
            relays: vec![Point::ORIGIN],
            assignment: vec![],
        };
        assert!(!is_feasible(&sc, &sol));
    }

    #[test]
    fn ledger_and_brute_violations_agree() {
        let subs = vec![(0.0, 0.0, 30.0), (60.0, 0.0, 30.0)];
        let relays = vec![Point::new(25.0, 0.0), Point::new(40.0, 0.0)];
        let sc = scenario(subs, 6.5);
        let a = assign_nearest(&sc, &relays).unwrap();
        assert_eq!(
            snr_violations(&sc, &relays, &a),
            snr_violations_brute(&sc, &relays, &a)
        );
        let ledger = interference_ledger(&sc, &relays);
        assert_eq!(
            snr_violations_ledger(&sc, &ledger, &a),
            snr_violations_brute(&sc, &relays, &a)
        );
        // Per-subscriber parity with the uniform brute helper.
        for j in 0..sc.n_subscribers() {
            for r in 0..relays.len() {
                assert_eq!(ledger.snr(j, r), placement_snr(&sc, &relays, j, r));
            }
        }
    }

    #[test]
    fn powered_ledger_matches_powered_snr() {
        let sc = scenario(vec![(0.0, 0.0, 30.0)], -15.0);
        let relays = vec![Point::new(10.0, 0.0), Point::new(30.0, 0.0)];
        let powers = [1.0, 0.1];
        let ledger = powered_ledger(&sc, &relays, &powers);
        assert_eq!(ledger.snr(0, 0), powered_snr(&sc, &relays, &powers, 0, 0));
    }

    #[test]
    fn served_index_matches_subscribers_of() {
        let sol = CoverageSolution {
            relays: vec![Point::ORIGIN, Point::new(1.0, 0.0), Point::new(2.0, 0.0)],
            assignment: vec![2, 0, 2, 0, 0],
        };
        let idx = sol.served_index();
        assert_eq!(idx.n_relays(), 3);
        for r in 0..3 {
            assert_eq!(idx.of(r), sol.subscribers_of(r).as_slice());
        }
        assert!(idx.of(1).is_empty());
        assert_eq!(idx.one_on_one(), 0);
        let idx = ServedIndex::build(2, &[0, 1, 0]);
        assert_eq!(idx.one_on_one(), 1);
    }

    #[test]
    fn powered_snr_tracks_power_changes() {
        let sc = scenario(vec![(0.0, 0.0, 30.0)], -15.0);
        let relays = vec![Point::new(10.0, 0.0), Point::new(30.0, 0.0)];
        let hi = powered_snr(&sc, &relays, &[1.0, 1.0], 0, 0);
        let better = powered_snr(&sc, &relays, &[1.0, 0.1], 0, 0);
        assert!(better > hi);
    }

    #[test]
    fn ledger_mode_override_scopes_and_restores() {
        // Regression for the `snr_oracle` plumbing: the explicit
        // override must reach every ledger built in its scope, nest
        // properly, and restore the incremental default when dropped.
        let sc = scenario(vec![(0.0, 0.0, 30.0)], -15.0);
        let relays = [Point::new(10.0, 0.0)];
        assert_eq!(
            interference_ledger(&sc, &relays).mode(),
            LedgerMode::Incremental
        );
        {
            let _g = push_ledger_mode_override(Some(LedgerMode::Oracle));
            assert_eq!(ledger_mode_override(), Some(LedgerMode::Oracle));
            assert_eq!(interference_ledger(&sc, &relays).mode(), LedgerMode::Oracle);
            assert_eq!(
                powered_ledger(&sc, &relays, &[1.0]).mode(),
                LedgerMode::Oracle
            );
            {
                let _inner = push_ledger_mode_override(Some(LedgerMode::Incremental));
                assert_eq!(
                    interference_ledger(&sc, &relays).mode(),
                    LedgerMode::Incremental
                );
            }
            // The inner guard restored the outer override.
            assert_eq!(interference_ledger(&sc, &relays).mode(), LedgerMode::Oracle);
        }
        assert_eq!(ledger_mode_override(), None);
        assert_eq!(
            interference_ledger(&sc, &relays).mode(),
            LedgerMode::Incremental
        );
    }
}
