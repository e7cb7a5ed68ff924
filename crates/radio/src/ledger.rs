//! The incremental interference ledger — the SNR hot-path engine.
//!
//! Every placement-search loop in the pipeline asks the same question
//! over and over: "with the relays *here*, what is subscriber `j`'s
//! interference-limited SNR (Definition 2)?" Recomputing the mutual
//! interference sum from scratch costs `O(R)` per subscriber and
//! `O(S·R)` per probe; branch-and-bound, sliding-movement enumeration
//! and power reduction each issue thousands of probes.
//!
//! [`InterferenceLedger`] maintains, per subscriber, the aggregate
//! received power `T_j = Σ_i Pr(p_i, d_ij)` over all registered relays.
//! Relay mutations ([`add_relay`](InterferenceLedger::add_relay),
//! [`remove_relay`](InterferenceLedger::remove_relay),
//! [`move_relay`](InterferenceLedger::move_relay),
//! [`set_power`](InterferenceLedger::set_power)) are `O(S)` deltas and
//! SNR queries are `O(1)`: `snr(j, a) = signal / (T_j − signal)` with
//! `signal = Pr(p_a, d_aj)`.
//!
//! ## Path-factor columns
//!
//! `Pr(p, d) = (p·G)·x` with the geometry-only path factor
//! `x = max(d, NEAR_FIELD)^{-α}` (`TwoRay::path_factor`, one `powf`).
//! The ledger keeps, per relay slot, the column of `x` to every
//! subscriber slot, and computes a factor only when a relay or a
//! subscriber takes a new position:
//! [`add_relay`](InterferenceLedger::add_relay) and
//! [`move_relay`](InterferenceLedger::move_relay) compute one column
//! (`S` factors), [`add_subscriber`](InterferenceLedger::add_subscriber)
//! one entry per live relay, and
//! [`merge_from`](InterferenceLedger::merge_from) only the entries
//! between a zone's relays and the subscribers outside the zone. Every
//! other operation — `set_power`, `remove_relay`, `signal`, `snr`,
//! `interference_at`, the exact refreshes, `rebuild`, `snr_checked`,
//! [`LedgerMode::Oracle`] and [`compact`](InterferenceLedger::compact)
//! — multiplies cached factors.
//! Each term is the same `f64` that [`TwoRay::received_power`] returns,
//! so caching changes no result. The columns cost one `f64` per
//! (relay slot, subscriber slot); [`LedgerStats::path_factors`] counts
//! the factors computed.
//!
//! ## Exactness and the brute-force oracle
//!
//! A freshly built ledger accumulates contributions in relay order, so
//! `T_j` is **bit-identical** to the sum inside
//! [`crate::snr::snr_interference_limited`] and the resulting SNR is
//! bit-identical to [`crate::snr::placement_snr`]. After incremental
//! mutations the accumulators can drift from the exact sum by a few
//! ulps (floating-point addition is not associative); the documented
//! parity bound is `1e-9` relative, enforced by property tests and far
//! below every feasibility margin in the pipeline.
//!
//! [`LedgerMode::Oracle`] keeps the exact sum alive behind a switch:
//! every query re-sums the registered relays' terms, ignoring the
//! accumulators. [`snr_checked`](InterferenceLedger::snr_checked)
//! cross-checks the accumulators against that sum, and
//! [`audit`](InterferenceLedger::audit) recomputes every term from the
//! relay and subscriber positions; every accumulator is a sum of column
//! terms, so the audit checks the cached columns as well as the
//! accumulators. Both surface divergence as a typed [`DesyncError`] —
//! never a silently wrong answer.

use crate::tworay::TwoRay;
use sag_geom::Point;

/// Relative tolerance of the oracle cross-checks ([`DesyncError`]
/// detection). Incremental ulp drift sits orders of magnitude below
/// this; an actually stale accumulator sits far above.
pub const AUDIT_REL_TOL: f64 = 1e-6;

/// Relative cancellation guard: incremental interference below this
/// fraction of the aggregate received power is indistinguishable from
/// accumulated ulp drift (floating-point `total − signal` cancels
/// catastrophically when the serving relay dominates). Queries landing
/// in this regime are answered by an exact `O(R)` recompute from the
/// slot table instead of the ambiguous difference, so the ledger never
/// reports drift as physics — and never guesses `∞` where an
/// adversarially large threshold would make the guess unsound.
pub const CANCELLATION_GUARD: f64 = 1e-12;

/// SNR values at or above this are *saturated*: deep inside the
/// cancellation regime, where the interference is a sub-ulp residue of
/// the aggregate and tiny rounding differences between two exact-sum
/// *orders* can still swing "huge finite" to `∞`. The oracle
/// cross-checks and the parity suite treat two saturated values as
/// equal; every physical threshold in the pipeline sits many orders of
/// magnitude below.
pub const SNR_SATURATED: f64 = 1e11;

/// When a subtraction delta erases more than this fraction of an
/// accumulator's magnitude, the result is dominated by rounding noise
/// from the *old* (larger) magnitude, so the ledger recomputes that
/// subscriber exactly instead of trusting the difference. With this
/// threshold every surviving incremental step loses at most ~2 ulps
/// *relative to the current value*, which keeps total drift far below
/// [`CANCELLATION_GUARD`] between rebuilds.
const CANCEL_REFRESH: f64 = 0.5;

/// How the ledger answers queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LedgerMode {
    /// `O(1)` queries from the per-subscriber accumulators.
    #[default]
    Incremental,
    /// Exact re-sum per query (`O(R)`): the reference path, kept alive
    /// for parity checking and debugging
    /// (`SagPipelineConfig::snr_oracle: Some(true)` in the pipeline).
    Oracle,
}

/// Typed divergence between the incremental accumulators and the exact
/// brute-force recompute: the ledger's answer can no longer be trusted.
///
/// Produced by [`InterferenceLedger::audit`] and
/// [`InterferenceLedger::snr_checked`]; the chaos suite injects a stale
/// accumulator via [`InterferenceLedger::skew_accumulator`] and asserts
/// this error surfaces instead of a wrong answer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DesyncError {
    /// Subscriber whose state diverged.
    pub subscriber: usize,
    /// The incremental (ledger) value.
    pub ledger: f64,
    /// The exact brute-force (oracle) value.
    pub oracle: f64,
}

impl std::fmt::Display for DesyncError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "interference ledger desync at subscriber {}: ledger {:e}, oracle {:e}",
            self.subscriber, self.ledger, self.oracle
        )
    }
}

impl std::error::Error for DesyncError {}

/// One registered relay.
#[derive(Debug, Clone, Copy)]
struct RelaySlot {
    pos: Point,
    power: f64,
}

/// Snapshot of a ledger's cumulative work counters (see
/// [`InterferenceLedger::stats`]). These are observability data, not
/// algorithm state: consumers flush them into `sag-obs` counters at
/// stage boundaries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LedgerStats {
    /// Public mutations applied (`add`/`remove`/`move`/`set_power`).
    pub delta_ops: u64,
    /// Path factors computed into the columns (one `powf` each); see
    /// the module docs for which operations compute them.
    pub path_factors: u64,
    /// Subscribers recomputed exactly after a cancelling subtraction
    /// (the `CANCEL_REFRESH` mechanism).
    pub cancel_refreshes: u64,
    /// Queries answered by the exact fallback because the incremental
    /// difference fell inside the [`CANCELLATION_GUARD`] drift regime.
    pub guard_activations: u64,
    /// Full [`rebuild`](InterferenceLedger::rebuild) passes.
    pub rebuilds: u64,
}

/// The work between two snapshots, field by field: `earlier` must be a
/// snapshot of the same ledger or of one it was cloned from.
impl std::ops::Sub for LedgerStats {
    type Output = LedgerStats;
    fn sub(self, earlier: LedgerStats) -> LedgerStats {
        LedgerStats {
            delta_ops: self.delta_ops - earlier.delta_ops,
            path_factors: self.path_factors - earlier.path_factors,
            cancel_refreshes: self.cancel_refreshes - earlier.cancel_refreshes,
            guard_activations: self.guard_activations - earlier.guard_activations,
            rebuilds: self.rebuilds - earlier.rebuilds,
        }
    }
}

impl std::ops::AddAssign for LedgerStats {
    fn add_assign(&mut self, work: LedgerStats) {
        self.delta_ops += work.delta_ops;
        self.path_factors += work.path_factors;
        self.cancel_refreshes += work.cancel_refreshes;
        self.guard_activations += work.guard_activations;
        self.rebuilds += work.rebuilds;
    }
}

/// Internal counter cell. Mutation counters are plain integers (those
/// paths take `&mut self`); the guard counter is atomic because the
/// guarded queries run through `&self`.
#[derive(Debug, Default)]
struct StatsCell {
    delta_ops: u64,
    path_factors: u64,
    cancel_refreshes: u64,
    rebuilds: u64,
    guard_activations: std::sync::atomic::AtomicU64,
}

impl StatsCell {
    fn snapshot(&self) -> LedgerStats {
        LedgerStats {
            delta_ops: self.delta_ops,
            path_factors: self.path_factors,
            cancel_refreshes: self.cancel_refreshes,
            guard_activations: self
                .guard_activations
                .load(std::sync::atomic::Ordering::Relaxed),
            rebuilds: self.rebuilds,
        }
    }

    fn note_guard(&self) {
        self.guard_activations
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }
}

impl Clone for StatsCell {
    fn clone(&self) -> Self {
        let s = self.snapshot();
        StatsCell {
            delta_ops: s.delta_ops,
            path_factors: s.path_factors,
            cancel_refreshes: s.cancel_refreshes,
            rebuilds: s.rebuilds,
            guard_activations: std::sync::atomic::AtomicU64::new(s.guard_activations),
        }
    }
}

/// Per-subscriber aggregate received-interference accumulators with
/// `O(S)` relay deltas and `O(1)` SNR queries. See the module docs.
///
/// Relay identifiers returned by
/// [`add_relay`](InterferenceLedger::add_relay) are slot indices:
/// stable across unrelated mutations, reused after
/// [`remove_relay`](InterferenceLedger::remove_relay) (lowest freed
/// slot first). Adding relays to a fresh ledger in order yields ids
/// `0, 1, 2, …` aligned with the caller's relay indexing.
#[derive(Debug, Clone)]
pub struct InterferenceLedger {
    model: TwoRay,
    subscribers: Vec<Point>,
    /// Subscriber-slot liveness: tombstoned slots keep their position
    /// and keep receiving relay deltas (so re-activation is exact and
    /// [`audit`](InterferenceLedger::audit) stays uniform), they are
    /// just not meaningful to query.
    sub_active: Vec<bool>,
    /// Freed subscriber slots, reused LIFO by
    /// [`add_subscriber`](InterferenceLedger::add_subscriber).
    sub_free: Vec<usize>,
    slots: Vec<Option<RelaySlot>>,
    free: Vec<usize>,
    n_active: usize,
    total_rx: Vec<f64>,
    /// Path-factor columns: relay slot `id`'s factor to subscriber slot
    /// `j` is `path[id * stride + j]`. A freed slot's column is stale
    /// until the slot is reused.
    path: Vec<f64>,
    /// Column length: subscriber slots the columns have room for
    /// (at least `subscribers.len()`).
    stride: usize,
    mode: LedgerMode,
    /// Reused buffer of subscribers needing an exact refresh after a
    /// severely-cancelling subtraction (see [`CANCEL_REFRESH`]).
    scratch: Vec<usize>,
    /// Cumulative work counters (see [`InterferenceLedger::stats`]).
    stats: StatsCell,
}

impl InterferenceLedger {
    /// An empty ledger over the given subscriber positions, in
    /// incremental mode.
    ///
    /// # Panics
    /// Panics if any subscriber position is not finite.
    pub fn new(model: TwoRay, subscribers: Vec<Point>) -> Self {
        for (j, s) in subscribers.iter().enumerate() {
            assert!(s.is_finite(), "subscriber {j} position is not finite");
        }
        let n = subscribers.len();
        InterferenceLedger {
            model,
            subscribers,
            sub_active: vec![true; n],
            sub_free: Vec::new(),
            slots: Vec::new(),
            free: Vec::new(),
            n_active: 0,
            total_rx: vec![0.0; n],
            path: Vec::new(),
            stride: n,
            mode: LedgerMode::default(),
            scratch: Vec::new(),
            stats: StatsCell::default(),
        }
    }

    /// Switches the query mode (builder style).
    pub fn with_mode(mut self, mode: LedgerMode) -> Self {
        self.mode = mode;
        self
    }

    /// The active query mode.
    pub fn mode(&self) -> LedgerMode {
        self.mode
    }

    /// Number of subscribers the ledger tracks.
    pub fn n_subscribers(&self) -> usize {
        self.subscribers.len()
    }

    /// Position of subscriber `j`.
    ///
    /// # Panics
    /// Panics if `j` is out of range.
    pub fn subscriber(&self, j: usize) -> Point {
        self.subscribers[j]
    }

    /// Whether subscriber slot `j` is active (never tombstoned, or
    /// re-activated by [`add_subscriber`](InterferenceLedger::add_subscriber)).
    ///
    /// # Panics
    /// Panics if `j` is out of range.
    pub fn is_subscriber_active(&self, j: usize) -> bool {
        self.sub_active[j]
    }

    /// Number of active (non-tombstoned) subscriber slots.
    pub fn n_active_subscribers(&self) -> usize {
        self.subscribers.len() - self.sub_free.len()
    }

    /// Registers a subscriber and returns its slot id, mirroring
    /// [`add_relay`](InterferenceLedger::add_relay): the lowest-freed
    /// slot is reused first (LIFO), otherwise a new slot is appended.
    /// Computes the slot's path factor to every live relay, then
    /// initialises the accumulator to the exact slot-order sum, so an
    /// added subscriber is **bit-identical** to one present in a fresh
    /// build with the same relay sequence. `O(R)`.
    ///
    /// # Panics
    /// Panics if `pos` is not finite.
    pub fn add_subscriber(&mut self, pos: Point) -> usize {
        assert!(pos.is_finite(), "subscriber position is not finite");
        let j = match self.sub_free.pop() {
            Some(j) => j,
            None => {
                if self.subscribers.len() == self.stride {
                    self.grow_columns();
                }
                self.subscribers.push(pos);
                self.sub_active.push(false);
                self.total_rx.push(0.0);
                self.subscribers.len() - 1
            }
        };
        self.subscribers[j] = pos;
        self.sub_active[j] = true;
        for (id, slot) in self.slots.iter().enumerate() {
            if let Some(slot) = slot {
                self.path[id * self.stride + j] = self.model.path_factor(slot.pos.distance(pos));
            }
        }
        self.stats.path_factors += self.n_active as u64;
        self.total_rx[j] = self.expected_total(j);
        self.stats.delta_ops += 1;
        j
    }

    /// Tombstones subscriber slot `j`, returning its position. The slot
    /// keeps its position, its path factors and continues to receive
    /// relay deltas (so [`audit`](InterferenceLedger::audit) stays
    /// uniform across slots and re-activation is exact); it is merely
    /// excluded from the active count and eligible for reuse. `O(1)`.
    ///
    /// # Panics
    /// Panics if `j` is not an active subscriber slot.
    pub fn remove_subscriber(&mut self, j: usize) -> Point {
        assert!(
            self.sub_active.get(j).copied().unwrap_or(false),
            "subscriber slot {j} is not active"
        );
        self.sub_active[j] = false;
        self.sub_free.push(j);
        self.stats.delta_ops += 1;
        self.subscribers[j]
    }

    /// Moves subscriber `j` to `pos`, returning its old position.
    /// Implemented literally as remove + add on the same slot (the LIFO
    /// free list guarantees slot reuse), so the result is bit-identical
    /// to [`remove_subscriber`](InterferenceLedger::remove_subscriber)
    /// followed by [`add_subscriber`](InterferenceLedger::add_subscriber)
    /// by construction. `O(R)`.
    ///
    /// # Panics
    /// Panics if `j` is not an active subscriber slot or `pos` is not
    /// finite.
    pub fn move_subscriber(&mut self, j: usize, pos: Point) -> Point {
        assert!(pos.is_finite(), "subscriber position is not finite");
        let old = self.remove_subscriber(j);
        let reused = self.add_subscriber(pos);
        debug_assert_eq!(reused, j, "LIFO free list must reuse the freed slot");
        old
    }

    /// Number of currently registered relays.
    pub fn n_relays(&self) -> usize {
        self.n_active
    }

    /// Registers a relay and returns its id: computes its path-factor
    /// column and adds its contribution. `O(S)`.
    ///
    /// # Panics
    /// Panics if `pos` is not finite or `power` is negative/non-finite.
    pub fn add_relay(&mut self, pos: Point, power: f64) -> usize {
        assert!(pos.is_finite(), "relay position is not finite");
        assert!(
            power.is_finite() && power >= 0.0,
            "relay power must be ≥ 0 and finite, got {power}"
        );
        let id = self.register(pos, power);
        self.compute_column(id, pos);
        self.apply_add(id, power);
        id
    }

    /// Unregisters relay `id`, returning its position and power. Its
    /// contribution is subtracted through its cached column.
    ///
    /// # Panics
    /// Panics if `id` is not a registered relay.
    pub fn remove_relay(&mut self, id: usize) -> (Point, f64) {
        let slot = self.take_slot(id);
        self.n_active -= 1;
        self.stats.delta_ops += 1;
        if self.n_active == 0 {
            // No relays left: reset the accumulators to exact zero so
            // incremental drift cannot survive an empty ledger.
            self.total_rx.fill(0.0);
        } else {
            let mut dirty = std::mem::take(&mut self.scratch);
            self.apply_sub(id, slot.power, &mut dirty);
            self.refresh(&mut dirty);
        }
        self.free.push(id);
        (slot.pos, slot.power)
    }

    /// Moves relay `id` to `pos`: subtracts its old contribution through
    /// the cached column, computes the column at `pos` and adds the new
    /// contribution.
    ///
    /// # Panics
    /// Panics if `id` is not registered or `pos` is not finite.
    pub fn move_relay(&mut self, id: usize, pos: Point) {
        assert!(pos.is_finite(), "relay position is not finite");
        let slot = self.slot(id);
        if slot.pos == pos {
            return;
        }
        let power = slot.power;
        // Commit the slot first: exact refreshes recompute from the
        // slot table, which must describe the *final* state.
        self.slot_mut(id).pos = pos;
        self.stats.delta_ops += 1;
        let mut dirty = std::mem::take(&mut self.scratch);
        self.apply_sub(id, power, &mut dirty);
        self.compute_column(id, pos);
        self.apply_add(id, power);
        self.refresh(&mut dirty);
    }

    /// Changes relay `id`'s transmit power. The relay did not move, so
    /// both deltas reuse its cached column.
    ///
    /// # Panics
    /// Panics if `id` is not registered or `power` is
    /// negative/non-finite.
    pub fn set_power(&mut self, id: usize, power: f64) {
        assert!(
            power.is_finite() && power >= 0.0,
            "relay power must be ≥ 0 and finite, got {power}"
        );
        let slot = self.slot(id);
        if slot.power == power {
            return;
        }
        let old_power = slot.power;
        self.slot_mut(id).power = power;
        self.stats.delta_ops += 1;
        let mut dirty = std::mem::take(&mut self.scratch);
        self.apply_sub(id, old_power, &mut dirty);
        self.apply_add(id, power);
        self.refresh(&mut dirty);
    }

    /// Relay `id`'s position.
    ///
    /// # Panics
    /// Panics if `id` is not registered.
    pub fn position(&self, id: usize) -> Point {
        self.slot(id).pos
    }

    /// Relay `id`'s transmit power.
    ///
    /// # Panics
    /// Panics if `id` is not registered.
    pub fn power(&self, id: usize) -> f64 {
        self.slot(id).power
    }

    /// Exact received power at subscriber `j` from relay `id` at its
    /// registered power (never subject to drift):
    /// [`signal_at`](InterferenceLedger::signal_at) that power.
    pub fn signal(&self, j: usize, id: usize) -> f64 {
        self.signal_at(j, id, self.slot(id).power)
    }

    /// Received power at subscriber `j` from relay `id` were it
    /// transmitting at `power` instead of its registered power — a trial
    /// power, such as PRO's, checked without a mutation. Bit-identical
    /// to [`TwoRay::received_power`] at the relay's distance.
    ///
    /// # Panics
    /// Panics if `id` is not registered, `j` is out of range or `power`
    /// is negative.
    pub fn signal_at(&self, j: usize, id: usize, power: f64) -> f64 {
        assert!(power >= 0.0, "transmit power must be ≥ 0, got {power}");
        // Panics on an unregistered id: a freed slot's column is stale.
        self.slot(id);
        power * self.model.gain() * self.column(id)[j]
    }

    /// Aggregate interference at subscriber `j` excluding relay
    /// `serving` — the denominator of Definition 2. `O(1)` in
    /// incremental mode; exact re-sum in [`LedgerMode::Oracle`].
    pub fn interference_at(&self, j: usize, serving: usize) -> f64 {
        match self.mode {
            LedgerMode::Oracle => self.interference_oracle(j, serving),
            LedgerMode::Incremental => {
                let v = self.total_rx[j] - self.signal(j, serving);
                if v <= CANCELLATION_GUARD * self.total_rx[j].abs() {
                    // Drift-scale difference: resolve exactly rather
                    // than clamp (see `snr_incremental`).
                    self.stats.note_guard();
                    self.interference_oracle(j, serving)
                } else {
                    v
                }
            }
        }
    }

    /// Interference-limited SNR at subscriber `j` served by relay
    /// `serving` (Definition 2): `0.0` when the serving signal is zero,
    /// `∞` when there is no interference. `O(1)` in incremental mode.
    pub fn snr(&self, j: usize, serving: usize) -> f64 {
        match self.mode {
            LedgerMode::Oracle => self.snr_oracle(j, serving),
            LedgerMode::Incremental => self.snr_incremental(j, serving),
        }
    }

    /// [`snr`](InterferenceLedger::snr) with the oracle cross-check:
    /// re-sums the exact SNR from the registered relays and returns a
    /// typed [`DesyncError`] when the incremental answer diverges beyond
    /// [`AUDIT_REL_TOL`]. This is the "wrong answers become typed
    /// errors" hook the chaos suite drives.
    ///
    /// # Errors
    /// [`DesyncError`] when the accumulators no longer agree with the
    /// exact re-sum.
    pub fn snr_checked(&self, j: usize, serving: usize) -> Result<f64, DesyncError> {
        // Accumulator staleness first: the cancellation-guard fallback
        // answers from the slot table when the incremental difference is
        // ambiguous, so a skewed accumulator could otherwise produce a
        // correct *answer* while the state is corrupt. A desync is a
        // desync regardless of which path the query took.
        let expected = self.expected_total(j);
        let got = self.total_rx[j];
        if (got - expected).abs() > AUDIT_REL_TOL * expected.abs().max(1e-12) {
            return Err(DesyncError {
                subscriber: j,
                ledger: got,
                oracle: expected,
            });
        }
        let oracle = self.snr_oracle(j, serving);
        let inc = self.snr_incremental(j, serving);
        // Two saturated answers (including ∞) are equivalent: inside the
        // cancellation-guard regime the exact and incremental paths may
        // legitimately disagree about "huge vs infinite".
        let saturated = inc >= SNR_SATURATED && oracle >= SNR_SATURATED;
        if saturated || (inc - oracle).abs() <= AUDIT_REL_TOL * oracle.abs().max(AUDIT_REL_TOL) {
            Ok(match self.mode {
                LedgerMode::Oracle => oracle,
                LedgerMode::Incremental => inc,
            })
        } else {
            Err(DesyncError {
                subscriber: j,
                ledger: inc,
                oracle,
            })
        }
    }

    /// Full accumulator audit against a recompute from positions:
    /// `Ok(())` when every subscriber slot's accumulator (tombstoned
    /// slots included) matches it within [`AUDIT_REL_TOL`], the first
    /// divergence otherwise.
    ///
    /// The recompute takes every term from the relay's and the
    /// subscriber's positions, not from the cached columns, and sums the
    /// same relays in the same slot order as the accumulators' exact
    /// sum. Every accumulator is a sum of column terms, so a stale column
    /// fails the audit at each subscriber slot it feeds, as a stale
    /// accumulator does. Each term comes from the `powf`-free closed form
    /// at `α = 3`; it agrees with [`TwoRay::received_power`] to a few
    /// ulps and the sum to ~1e-14 relative — eight orders of magnitude
    /// inside [`AUDIT_REL_TOL`] — so a clean ledger passes.
    ///
    /// # Errors
    /// [`DesyncError`] naming the lowest diverged subscriber slot.
    pub fn audit(&self) -> Result<(), DesyncError> {
        for (j, &got) in self.total_rx.iter().enumerate() {
            let expected = self.recomputed_total(j);
            if (got - expected).abs() > AUDIT_REL_TOL * expected.abs().max(1e-12) {
                return Err(DesyncError {
                    subscriber: j,
                    ledger: got,
                    oracle: expected,
                });
            }
        }
        Ok(())
    }

    /// Recomputes every accumulator from the registered relays' cached
    /// columns, discarding any incremental drift. `O(R·S)`, no path
    /// factor computed — cheap insurance for long mutation sequences
    /// (branch-and-bound calls this periodically).
    pub fn rebuild(&mut self) {
        self.stats.rebuilds += 1;
        self.total_rx.fill(0.0);
        for id in 0..self.slots.len() {
            if let Some(slot) = self.slots[id] {
                self.apply_add(id, slot.power);
            }
        }
    }

    /// Chaos hook: skews subscriber `j`'s accumulator by `delta`,
    /// simulating a stale/corrupted ledger entry. Only the robustness
    /// suites should call this; [`audit`](InterferenceLedger::audit)
    /// and [`snr_checked`](InterferenceLedger::snr_checked) are
    /// expected to surface the damage as a [`DesyncError`].
    pub fn skew_accumulator(&mut self, j: usize, delta: f64) {
        self.total_rx[j] += delta;
    }

    /// Keeps the relays whose slot id `keep` accepts, renumbered
    /// `0, 1, 2, …` in slot order with their columns moved, drops every
    /// other slot, and re-sums the accumulators
    /// ([`rebuild`](InterferenceLedger::rebuild)): no path factor is
    /// computed, and the result is bit-identical to a fresh build over
    /// the kept relays. Each dropped relay counts as one mutation.
    pub fn compact(&mut self, mut keep: impl FnMut(usize) -> bool) {
        let stride = self.stride;
        let mut kept = 0;
        for id in 0..self.slots.len() {
            let Some(slot) = self.slots[id] else {
                continue;
            };
            if !keep(id) {
                self.stats.delta_ops += 1;
                continue;
            }
            if kept != id {
                self.path
                    .copy_within(id * stride..(id + 1) * stride, kept * stride);
            }
            self.slots[kept] = Some(slot);
            kept += 1;
        }
        self.slots.truncate(kept);
        self.path.truncate(kept * stride);
        self.free.clear();
        self.n_active = kept;
        self.rebuild();
    }

    /// Registers every relay of `other` into `self` (in `other`'s slot
    /// id order), returning the ids assigned here. `other` must be a
    /// ledger over the subscriber subset `subset` of this one, such as a
    /// zone solve's ledger: its subscriber slot `i` is this ledger's
    /// slot `subset[i]`. Only `other`'s relay slots (positions, powers
    /// and columns) are read, never its accumulators, so a ledger whose
    /// accumulators drifted under mutations merges exactly. Column
    /// entries for the subset are copied from `other`; only those to the
    /// subscribers outside it are computed. Contributions are summed
    /// against *this* ledger's subscribers, so merging the per-zone
    /// ledgers of a partition back into an empty global ledger — in zone
    /// order — reproduces, bit for bit, the ledger a sequential build of
    /// the concatenated relay list would produce.
    ///
    /// # Panics
    /// Panics if the two ledgers' models differ, `subset` does not name
    /// one slot here per subscriber slot of `other`, or a named slot
    /// sits at another position.
    pub fn merge_from(&mut self, other: &InterferenceLedger, subset: &[usize]) -> Vec<usize> {
        assert_eq!(self.model, other.model, "merged ledgers share one model");
        assert_eq!(
            subset.len(),
            other.subscribers.len(),
            "one subscriber slot per merged subscriber"
        );
        let mut local = vec![None; self.subscribers.len()];
        for (i, &j) in subset.iter().enumerate() {
            assert_eq!(
                self.subscribers[j], other.subscribers[i],
                "merged subscriber {i} is not at slot {j}'s position"
            );
            local[j] = Some(i);
        }
        let cross_zone = local.iter().filter(|i| i.is_none()).count() as u64;
        let model = self.model;
        other
            .live_slots()
            .map(|(oid, slot)| {
                let column = other.column(oid);
                let id = self.register(slot.pos, slot.power);
                self.set_column(id, |j, sub| match local[j] {
                    Some(i) => column[i],
                    None => model.path_factor(slot.pos.distance(sub)),
                });
                self.stats.path_factors += cross_zone;
                self.apply_add(id, slot.power);
                id
            })
            .collect()
    }

    /// Snapshot of the cumulative work counters: delta mutations, path
    /// factors computed, exact cancel-refresh recomputes,
    /// cancellation-guard query fallbacks and full rebuilds. Counters
    /// survive [`Clone`] (the clone starts from the parent's totals) and
    /// are never reset.
    pub fn stats(&self) -> LedgerStats {
        self.stats.snapshot()
    }

    // ---- internals ----------------------------------------------------

    fn slot(&self, id: usize) -> &RelaySlot {
        self.slots
            .get(id)
            .and_then(|s| s.as_ref())
            .unwrap_or_else(|| panic!("relay id {id} is not registered"))
    }

    fn slot_mut(&mut self, id: usize) -> &mut RelaySlot {
        self.slots
            .get_mut(id)
            .and_then(|s| s.as_mut())
            .unwrap_or_else(|| panic!("relay id {id} is not registered"))
    }

    fn take_slot(&mut self, id: usize) -> RelaySlot {
        self.slots
            .get_mut(id)
            .and_then(Option::take)
            .unwrap_or_else(|| panic!("relay id {id} is not registered"))
    }

    /// The registered relays with their slot ids, in slot order.
    fn live_slots(&self) -> impl Iterator<Item = (usize, RelaySlot)> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(id, slot)| slot.map(|s| (id, s)))
    }

    /// Relay slot `id`'s path factors, one per subscriber slot.
    #[inline]
    fn column(&self, id: usize) -> &[f64] {
        &self.path[id * self.stride..][..self.subscribers.len()]
    }

    /// Takes a slot for a new relay (the lowest freed one, else a new
    /// column) and counts the mutation. The caller fills the column and
    /// adds the contribution.
    fn register(&mut self, pos: Point, power: f64) -> usize {
        let id = match self.free.pop() {
            Some(id) => id,
            None => {
                self.slots.push(None);
                self.path.resize(self.slots.len() * self.stride, 0.0);
                self.slots.len() - 1
            }
        };
        self.slots[id] = Some(RelaySlot { pos, power });
        self.n_active += 1;
        self.stats.delta_ops += 1;
        id
    }

    /// Writes `factor(j, subscriber j's position)` into relay slot
    /// `id`'s column for every subscriber slot `j`.
    fn set_column(&mut self, id: usize, mut factor: impl FnMut(usize, Point) -> f64) {
        let column = &mut self.path[id * self.stride..][..self.subscribers.len()];
        for (j, (x, &sub)) in column.iter_mut().zip(&self.subscribers).enumerate() {
            *x = factor(j, sub);
        }
    }

    /// Computes relay slot `id`'s column for a relay at `pos`: one path
    /// factor per subscriber slot.
    fn compute_column(&mut self, id: usize, pos: Point) {
        let model = self.model;
        self.set_column(id, |_, sub| model.path_factor(pos.distance(sub)));
        self.stats.path_factors += self.subscribers.len() as u64;
    }

    /// Lengthens every column by a quarter (at least one slot) so an
    /// appended subscriber slot fits; columns move to their new offsets.
    fn grow_columns(&mut self) {
        let (old, stride) = (self.stride, self.stride + self.stride / 4 + 1);
        let mut path = vec![0.0; self.slots.len() * stride];
        for id in 0..self.slots.len() {
            path[id * stride..][..old].copy_from_slice(&self.path[id * old..][..old]);
        }
        self.path = path;
        self.stride = stride;
    }

    /// Adds relay `id`'s contribution at `power` to every accumulator,
    /// each term `(power·G)·x` from its column. Addition of
    /// non-negative terms cannot cancel, so no refresh bookkeeping is
    /// needed on this path.
    fn apply_add(&mut self, id: usize, power: f64) {
        let pg = power * self.model.gain();
        let column = &self.path[id * self.stride..][..self.subscribers.len()];
        for (total, &x) in self.total_rx.iter_mut().zip(column) {
            *total += pg * x;
        }
    }

    /// Subtracts relay `id`'s contribution at `power` through its
    /// column. Subscribers whose accumulator lost more than
    /// [`CANCEL_REFRESH`] of its magnitude (the difference is then
    /// rounding noise from the old, larger value) are pushed onto
    /// `dirty` for exact recomputation once the slot table reflects the
    /// final state.
    fn apply_sub(&mut self, id: usize, power: f64, dirty: &mut Vec<usize>) {
        let pg = power * self.model.gain();
        let column = &self.path[id * self.stride..][..self.subscribers.len()];
        for (j, (total, &x)) in self.total_rx.iter_mut().zip(column).enumerate() {
            let old = *total;
            let new = old - pg * x;
            *total = new;
            if new.abs() < CANCEL_REFRESH * old.abs() {
                dirty.push(j);
            }
        }
    }

    /// Exactly recomputes the accumulators of every subscriber in
    /// `dirty` from the slot table, then returns the buffer to
    /// `scratch` for reuse.
    fn refresh(&mut self, dirty: &mut Vec<usize>) {
        let mut buf = std::mem::take(dirty);
        self.stats.cancel_refreshes += buf.len() as u64;
        for &j in &buf {
            self.total_rx[j] = self.expected_total(j);
        }
        buf.clear();
        self.scratch = buf;
    }

    fn snr_incremental(&self, j: usize, serving: usize) -> f64 {
        let signal = self.signal(j, serving);
        if signal <= 0.0 {
            return 0.0;
        }
        let interference = self.total_rx[j] - signal;
        // The cancellation guard subsumes the `≤ 0` branch: interference
        // at ulp scale relative to the aggregate is drift, not physics —
        // the incremental difference cannot distinguish "exactly zero"
        // from "tiny but real". Resolve the ambiguity exactly instead of
        // guessing: an `O(R)` re-sum, paid only in the rare regime
        // where the serving relay all but owns the aggregate. Guessing
        // `∞` here would be unsound against adversarially huge
        // thresholds (the chaos suite's `ExtremeThreshold` pushes β far
        // beyond any physical SNR).
        if interference <= CANCELLATION_GUARD * self.total_rx[j].abs() {
            self.stats.note_guard();
            self.snr_oracle(j, serving)
        } else {
            signal / interference
        }
    }

    fn interference_oracle(&self, j: usize, serving: usize) -> f64 {
        let g = self.model.gain();
        let mut sum = 0.0;
        for (id, slot) in self.live_slots() {
            if id != serving {
                sum += slot.power * g * self.column(id)[j];
            }
        }
        sum
    }

    fn snr_oracle(&self, j: usize, serving: usize) -> f64 {
        // Mirror `snr_interference_limited`: accumulate the *total* in
        // slot order and subtract the serving signal, so a fresh ledger
        // and the brute helper agree bit-for-bit.
        let total = self.expected_total(j);
        let signal = self.signal(j, serving);
        let interference = total - signal;
        if signal <= 0.0 {
            0.0
        } else if interference <= 0.0 {
            f64::INFINITY
        } else {
            signal / interference
        }
    }

    /// What `total_rx[j]` *should* hold: the slot-order sum of every
    /// active relay's term `(power·G)·x`, from the cached columns.
    fn expected_total(&self, j: usize) -> f64 {
        let g = self.model.gain();
        let mut total = 0.0;
        for (id, slot) in self.live_slots() {
            total += slot.power * g * self.column(id)[j];
        }
        total
    }

    /// The audit's recompute of `total_rx[j]` from positions: the
    /// slot-order sum of every active relay's
    /// [`TwoRay::received_power_closed_form`] term.
    fn recomputed_total(&self, j: usize) -> f64 {
        let sub = self.subscribers[j];
        let mut total = 0.0;
        for slot in self.slots.iter().flatten() {
            total += self
                .model
                .received_power_closed_form(slot.power, slot.pos.distance(sub));
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snr;
    use sag_testkit::prelude::*;

    fn model() -> TwoRay {
        TwoRay::new(1.0, 3.0)
    }

    fn subs() -> Vec<Point> {
        vec![
            Point::new(0.0, 0.0),
            Point::new(50.0, 0.0),
            Point::new(0.0, 80.0),
        ]
    }

    /// Exact SNR via the brute helpers, for parity assertions.
    fn brute_snr(ledger: &InterferenceLedger, ids: &[usize], j: usize, serving: usize) -> f64 {
        let positions: Vec<Point> = ids.iter().map(|&i| ledger.position(i)).collect();
        let powers: Vec<f64> = ids.iter().map(|&i| ledger.power(i)).collect();
        let serving_idx = ids.iter().position(|&i| i == serving).unwrap();
        snr::placement_snr(
            &model(),
            ledger.subscribers[j],
            &positions,
            &powers,
            serving_idx,
        )
    }

    #[test]
    fn stats_count_mutations_refreshes_and_rebuilds() {
        let mut ledger = InterferenceLedger::new(model(), subs());
        assert_eq!(ledger.stats(), LedgerStats::default());
        let a = ledger.add_relay(Point::new(10.0, 0.0), 1.0);
        let b = ledger.add_relay(Point::new(40.0, 10.0), 1.0);
        ledger.move_relay(a, Point::new(12.0, 0.0));
        ledger.set_power(b, 0.5);
        ledger.remove_relay(b);
        let s = ledger.stats();
        assert_eq!(s.delta_ops, 5);
        // Removing the dominant contributor next to a subscriber forces
        // at least one cancelling refresh somewhere along the sequence.
        ledger.rebuild();
        assert_eq!(ledger.stats().rebuilds, 1);
        // Clones carry the parent's totals forward.
        let clone = ledger.clone();
        assert_eq!(clone.stats(), ledger.stats());
    }

    #[test]
    fn path_factors_are_computed_only_for_new_positions() {
        let mut ledger = InterferenceLedger::new(model(), subs());
        let factors = |l: &InterferenceLedger| l.stats().path_factors;
        // `add_relay` and `move_relay` compute one column of S.
        let a = ledger.add_relay(Point::new(10.0, 0.0), 1.0);
        let b = ledger.add_relay(Point::new(40.0, 10.0), 0.5);
        assert_eq!(factors(&ledger), 6);
        ledger.move_relay(a, Point::new(12.0, 3.0));
        assert_eq!(factors(&ledger), 9);
        // Power changes, removals, queries, checks, rebuilds and
        // compactions multiply cached factors.
        let before = factors(&ledger);
        ledger.set_power(b, 0.25);
        for j in 0..3 {
            for id in [a, b] {
                let _ = ledger.signal(j, id);
                let _ = ledger.signal_at(j, id, 0.6);
                let _ = ledger.snr(j, id);
                let _ = ledger.interference_at(j, id);
                let _ = ledger.snr_checked(j, id);
            }
        }
        ledger.rebuild();
        assert!(ledger.audit().is_ok());
        let mut piece = ledger.clone();
        piece.compact(|id| id == b);
        assert_eq!(piece.stats().path_factors, before);
        let oracle = ledger.clone().with_mode(LedgerMode::Oracle);
        let _ = oracle.snr(1, a);
        let _ = oracle.interference_at(1, b);
        assert_eq!(oracle.stats().path_factors, before);
        let c = ledger.add_relay(Point::new(-30.0, 60.0), 1.0);
        ledger.remove_relay(c);
        assert_eq!(factors(&ledger), before + 3);
        // `add_subscriber` computes one entry per live relay.
        let j = ledger.add_subscriber(Point::new(25.0, 25.0));
        assert_eq!(factors(&ledger), before + 3 + 2);
        ledger.remove_subscriber(j);
        assert_eq!(factors(&ledger), before + 5);
    }

    #[test]
    fn signal_at_is_received_power_at_a_trial_power() {
        let mut ledger = InterferenceLedger::new(TwoRay::new(0.8, 3.3), subs());
        let id = ledger.add_relay(Point::new(17.0, -4.0), 1.0);
        for j in 0..3 {
            let d = ledger.position(id).distance(ledger.subscriber(j));
            for p in [0.0, 0.3, 1.0, 2.5] {
                let want = TwoRay::new(0.8, 3.3).received_power(p, d);
                assert_eq!(ledger.signal_at(j, id, p).to_bits(), want.to_bits());
            }
        }
    }

    #[test]
    fn audit_catches_a_stale_path_factor() {
        let mut ledger = InterferenceLedger::new(model(), subs());
        ledger.add_relay(Point::new(10.0, 0.0), 1.0);
        let id = ledger.add_relay(Point::new(30.0, 40.0), 0.6);
        assert!(ledger.audit().is_ok());
        // A column entry that no longer matches the positions is a
        // desync even when the accumulators agree with the columns.
        ledger.path[id * ledger.stride + 2] *= 1.0 + 1e-3;
        ledger.rebuild();
        let err = ledger.audit().unwrap_err();
        assert_eq!(err.subscriber, 2);
        assert_eq!(err.ledger, ledger.total_rx[2]);
    }

    #[test]
    fn columns_survive_subscriber_slot_growth() {
        let mut ledger = InterferenceLedger::new(model(), subs());
        let ids: Vec<usize> = [(10.0, 0.0), (40.0, 10.0), (-20.0, 35.0)]
            .iter()
            .map(|&(x, y)| ledger.add_relay(Point::new(x, y), 0.9))
            .collect();
        for k in 0..9 {
            ledger.add_subscriber(Point::new(5.0 * k as f64, -7.0 * k as f64));
        }
        assert!(ledger.stride >= ledger.n_subscribers());
        for j in 0..ledger.n_subscribers() {
            for &id in &ids {
                let d = ledger.position(id).distance(ledger.subscriber(j));
                let want = model().received_power(ledger.power(id), d);
                assert_eq!(ledger.signal(j, id).to_bits(), want.to_bits());
            }
        }
        assert!(ledger.audit().is_ok());
    }

    #[test]
    fn guard_activations_count_exact_fallback_queries() {
        // One lone relay serving a subscriber: all interference comes
        // from itself, so the incremental difference is pure drift and
        // the guard must answer via the oracle.
        let mut ledger = InterferenceLedger::new(model(), subs());
        let id = ledger.add_relay(Point::new(1.0, 0.0), 1.0);
        assert_eq!(ledger.stats().guard_activations, 0);
        let _ = ledger.snr(0, id);
        assert!(ledger.stats().guard_activations >= 1);
    }

    fn assert_snr_close(a: f64, b: f64) {
        if a >= SNR_SATURATED || b >= SNR_SATURATED {
            assert!(
                a >= SNR_SATURATED && b >= SNR_SATURATED,
                "saturation mismatch: {a} vs {b}"
            );
        } else {
            assert!(
                (a - b).abs() <= 1e-9 * b.abs().max(1e-9),
                "SNR parity broken: {a} vs {b}"
            );
        }
    }

    #[test]
    fn compact_matches_a_direct_build_over_the_kept_relays() {
        let mut ledger = InterferenceLedger::new(model(), subs());
        let a = ledger.add_relay(Point::new(10.0, 0.0), 1.0);
        let gone = ledger.add_relay(Point::new(30.0, 40.0), 0.6);
        ledger.add_relay(Point::new(45.0, 5.0), 0.7);
        let freed = ledger.add_relay(Point::new(-5.0, 70.0), 1.3);
        ledger.move_relay(a, Point::new(12.0, 3.0));
        ledger.remove_relay(freed);
        let before = ledger.stats();
        ledger.compact(|id| id != gone);
        let work = ledger.stats() - before;
        assert_eq!(
            (work.path_factors, work.delta_ops, work.rebuilds),
            (0, 1, 1)
        );
        let mut direct = InterferenceLedger::new(model(), subs());
        direct.add_relay(Point::new(12.0, 3.0), 1.0);
        direct.add_relay(Point::new(45.0, 5.0), 0.7);
        assert_eq!(ledger.total_rx, direct.total_rx);
        assert_eq!(ledger.n_relays(), 2);
        for (j, id) in (0..3).flat_map(|j| (0..2).map(move |id| (j, id))) {
            assert_eq!(ledger.position(id), direct.position(id));
            assert_eq!(
                ledger.signal(j, id).to_bits(),
                direct.signal(j, id).to_bits()
            );
            assert_eq!(ledger.snr(j, id).to_bits(), direct.snr(j, id).to_bits());
        }
        assert!(ledger.audit().is_ok());
        // The freed slot went too, and the mode survives.
        assert_eq!(ledger.add_relay(Point::new(1.0, 1.0), 1.0), 2);
        let mut oracle = ledger.clone().with_mode(LedgerMode::Oracle);
        oracle.compact(|_| false);
        assert_eq!((oracle.mode(), oracle.n_relays()), (LedgerMode::Oracle, 0));
    }

    #[test]
    fn merging_zone_ledgers_reproduces_the_sequential_build() {
        // Three "zones" over disjoint, interleaved subscriber subsets;
        // each zone ledger carries its own relays. Merging them into an
        // empty global ledger in zone order must equal adding the
        // concatenated relay list to a fresh global ledger, copying the
        // in-zone path factors and computing only the cross-zone ones.
        let mut all = subs();
        all.extend([Point::new(-60.0, 10.0), Point::new(30.0, 120.0)]);
        let zones: [&[usize]; 3] = [&[0, 3], &[1], &[2, 4]];
        let relays: [&[(Point, f64)]; 3] = [
            &[(Point::new(8.0, 2.0), 1.0), (Point::new(-55.0, 12.0), 0.4)],
            &[(Point::new(42.0, -3.0), 1.0)],
            &[(Point::new(4.0, 71.0), 0.8), (Point::new(28.0, 115.0), 1.0)],
        ];
        let mut merged = InterferenceLedger::new(model(), all.clone());
        let mut next_id = 0;
        for (zone, zone_relays) in zones.iter().zip(relays) {
            let mut piece =
                InterferenceLedger::new(model(), zone.iter().map(|&j| all[j]).collect());
            for &(p, w) in zone_relays {
                piece.add_relay(p, w);
            }
            let before = merged.stats().path_factors;
            let ids = merged.merge_from(&piece, zone);
            assert_eq!(
                ids,
                (next_id..next_id + zone_relays.len()).collect::<Vec<_>>()
            );
            next_id += zone_relays.len();
            let cross = (all.len() - zone.len()) * zone_relays.len();
            assert_eq!(merged.stats().path_factors - before, cross as u64);
        }

        let mut sequential = InterferenceLedger::new(model(), all.clone());
        for &(p, w) in relays.iter().flat_map(|r| r.iter()) {
            sequential.add_relay(p, w);
        }
        for j in 0..all.len() {
            for id in 0..next_id {
                assert_eq!(
                    merged.interference_at(j, id).to_bits(),
                    sequential.interference_at(j, id).to_bits(),
                    "merge diverged at (j={j}, id={id})"
                );
                assert_eq!(
                    merged.snr(j, id).to_bits(),
                    sequential.snr(j, id).to_bits(),
                    "merge diverged at (j={j}, id={id})"
                );
            }
        }
        merged.audit().expect("merged ledger is exact");
    }

    #[test]
    #[should_panic(expected = "not at slot")]
    fn merging_with_a_mismatched_subset_panics() {
        let global = InterferenceLedger::new(model(), subs());
        let mut piece = InterferenceLedger::new(model(), subs()[..2].to_vec());
        piece.add_relay(Point::new(8.0, 2.0), 1.0);
        let mut merged = global.clone();
        merged.merge_from(&piece, &[0, 2]);
    }

    #[test]
    fn fresh_ledger_is_bit_identical_to_brute() {
        let mut ledger = InterferenceLedger::new(model(), subs());
        let positions = [
            Point::new(10.0, 0.0),
            Point::new(45.0, 5.0),
            Point::new(-5.0, 70.0),
        ];
        for p in positions {
            ledger.add_relay(p, 1.0);
        }
        for j in 0..3 {
            for serving in 0..3 {
                let want = snr::placement_snr_uniform(&model(), subs()[j], &positions, serving);
                let got = ledger.snr(j, serving);
                assert!(
                    got == want || (got.is_infinite() && want.is_infinite()),
                    "bit parity broken at j={j} serving={serving}: {got} vs {want}"
                );
            }
        }
    }

    #[test]
    fn single_relay_has_infinite_snr() {
        let mut ledger = InterferenceLedger::new(model(), subs());
        let id = ledger.add_relay(Point::new(10.0, 0.0), 1.0);
        assert_eq!(ledger.snr(0, id), f64::INFINITY);
        assert_eq!(ledger.interference_at(0, id), 0.0);
    }

    #[test]
    fn zero_power_serving_is_zero_snr() {
        let mut ledger = InterferenceLedger::new(model(), subs());
        let a = ledger.add_relay(Point::new(10.0, 0.0), 0.0);
        ledger.add_relay(Point::new(20.0, 0.0), 1.0);
        assert_eq!(ledger.snr(0, a), 0.0);
    }

    #[test]
    fn remove_returns_slot_and_resets_empty_ledger() {
        let mut ledger = InterferenceLedger::new(model(), subs());
        let a = ledger.add_relay(Point::new(10.0, 0.0), 0.7);
        let (pos, power) = ledger.remove_relay(a);
        assert_eq!(pos, Point::new(10.0, 0.0));
        assert_eq!(power, 0.7);
        assert_eq!(ledger.n_relays(), 0);
        assert!(ledger.total_rx.iter().all(|&t| t == 0.0));
        // Slot ids are reused.
        let b = ledger.add_relay(Point::new(1.0, 1.0), 1.0);
        assert_eq!(b, a);
    }

    #[test]
    fn move_and_set_power_track_the_oracle() {
        let mut ledger = InterferenceLedger::new(model(), subs());
        let a = ledger.add_relay(Point::new(10.0, 0.0), 1.0);
        let b = ledger.add_relay(Point::new(40.0, 10.0), 1.0);
        ledger.move_relay(a, Point::new(5.0, 2.0));
        ledger.set_power(b, 0.25);
        for j in 0..3 {
            for serving in [a, b] {
                assert_snr_close(
                    ledger.snr(j, serving),
                    brute_snr(&ledger, &[a, b], j, serving),
                );
            }
        }
        assert!(ledger.audit().is_ok());
    }

    #[test]
    fn oracle_mode_matches_incremental() {
        let mut inc = InterferenceLedger::new(model(), subs());
        let mut ora = InterferenceLedger::new(model(), subs()).with_mode(LedgerMode::Oracle);
        for p in [Point::new(10.0, 0.0), Point::new(45.0, 5.0)] {
            inc.add_relay(p, 1.0);
            ora.add_relay(p, 1.0);
        }
        assert_eq!(ora.mode(), LedgerMode::Oracle);
        for j in 0..3 {
            for s in 0..2 {
                assert_snr_close(inc.snr(j, s), ora.snr(j, s));
            }
        }
    }

    #[test]
    fn skewed_accumulator_surfaces_typed_desync() {
        let mut ledger = InterferenceLedger::new(model(), subs());
        ledger.add_relay(Point::new(10.0, 0.0), 1.0);
        ledger.add_relay(Point::new(30.0, 0.0), 1.0);
        assert!(ledger.audit().is_ok());
        assert!(ledger.snr_checked(0, 0).is_ok());
        ledger.skew_accumulator(0, 1e-3);
        let err = ledger.audit().unwrap_err();
        assert_eq!(err.subscriber, 0);
        let err = ledger.snr_checked(0, 0).unwrap_err();
        assert_eq!(err.subscriber, 0);
        // Other subscribers are untouched.
        assert!(ledger.snr_checked(1, 0).is_ok());
        // The error renders.
        assert!(format!("{err}").contains("desync at subscriber 0"));
        // Rebuild repairs the damage.
        ledger.rebuild();
        assert!(ledger.audit().is_ok());
    }

    #[test]
    fn audit_names_the_lowest_diverged_slot_active_or_tombstoned() {
        let mut subscribers = subs();
        subscribers.push(Point::new(-40.0, 30.0));
        let mut ledger = InterferenceLedger::new(model(), subscribers);
        ledger.add_relay(Point::new(10.0, 0.0), 1.0);
        ledger.add_relay(Point::new(30.0, 40.0), 0.6);
        ledger.add_relay(Point::new(-20.0, 20.0), 1.3);
        ledger.remove_subscriber(1);
        let skew = |ledger: &mut InterferenceLedger, j: usize, by: f64| {
            let delta = by * AUDIT_REL_TOL * ledger.total_rx[j];
            ledger.skew_accumulator(j, delta);
        };
        // Half the tolerance passes; twice it is a desync.
        skew(&mut ledger, 3, 0.5);
        assert!(ledger.audit().is_ok());
        skew(&mut ledger, 3, 1.5);
        assert_eq!(ledger.audit().unwrap_err().subscriber, 3);
        // The tombstoned slot is checked too, and is the lower slot.
        skew(&mut ledger, 1, 2.0);
        let err = ledger.audit().unwrap_err();
        assert_eq!(err.subscriber, 1);
        assert_eq!(err.ledger, ledger.total_rx[1]);
        ledger.rebuild();
        assert!(ledger.audit().is_ok());
    }

    #[test]
    fn subscriber_mutations_reuse_slots_and_track_activity() {
        let mut ledger = InterferenceLedger::new(model(), subs());
        ledger.add_relay(Point::new(10.0, 0.0), 1.0);
        ledger.add_relay(Point::new(40.0, 10.0), 0.5);
        assert_eq!(ledger.n_active_subscribers(), 3);
        let gone = ledger.remove_subscriber(1);
        assert_eq!(gone, Point::new(50.0, 0.0));
        assert!(!ledger.is_subscriber_active(1));
        assert_eq!(ledger.n_active_subscribers(), 2);
        // Tombstoned slots stay audit-consistent.
        assert!(ledger.audit().is_ok());
        // LIFO reuse of the freed slot.
        let j = ledger.add_subscriber(Point::new(60.0, 5.0));
        assert_eq!(j, 1);
        assert!(ledger.is_subscriber_active(1));
        assert_eq!(ledger.subscriber(1), Point::new(60.0, 5.0));
        // No free slot left: the next add appends.
        let k = ledger.add_subscriber(Point::new(5.0, 5.0));
        assert_eq!(k, 3);
        assert_eq!(ledger.n_subscribers(), 4);
        assert_eq!(ledger.n_active_subscribers(), 4);
        assert!(ledger.audit().is_ok());
    }

    #[test]
    fn added_subscriber_is_bit_identical_to_fresh_build() {
        let relays = [
            (Point::new(10.0, 0.0), 1.0),
            (Point::new(45.0, 5.0), 0.7),
            (Point::new(-5.0, 70.0), 1.3),
        ];
        let mut grown = InterferenceLedger::new(model(), subs());
        for (p, w) in relays {
            grown.add_relay(p, w);
        }
        let newcomer = Point::new(25.0, 25.0);
        let j = grown.add_subscriber(newcomer);

        let mut fresh_subs = subs();
        fresh_subs.push(newcomer);
        let mut fresh = InterferenceLedger::new(model(), fresh_subs);
        for (p, w) in relays {
            fresh.add_relay(p, w);
        }
        for id in 0..relays.len() {
            assert_eq!(grown.snr(j, id), fresh.snr(3, id), "bit parity broken");
        }
    }

    #[test]
    fn move_subscriber_is_bit_identical_to_remove_plus_add() {
        let mut a = InterferenceLedger::new(model(), subs());
        for (p, w) in [(Point::new(10.0, 0.0), 1.0), (Point::new(45.0, 5.0), 0.7)] {
            a.add_relay(p, w);
        }
        let mut b = a.clone();
        let target = Point::new(33.0, 12.0);
        let old = a.move_subscriber(1, target);
        assert_eq!(old, Point::new(50.0, 0.0));
        b.remove_subscriber(1);
        assert_eq!(b.add_subscriber(target), 1);
        assert_eq!(a.total_rx, b.total_rx);
        for id in 0..2 {
            assert_eq!(a.snr(1, id), b.snr(1, id));
        }
    }

    #[test]
    #[should_panic]
    fn removing_an_inactive_subscriber_panics() {
        let mut ledger = InterferenceLedger::new(model(), subs());
        ledger.remove_subscriber(1);
        ledger.remove_subscriber(1);
    }

    #[test]
    #[should_panic]
    fn unknown_relay_id_panics() {
        let ledger = InterferenceLedger::new(model(), subs());
        ledger.power(0);
    }

    prop! {
        /// Random add/remove/move/set-power sequences: the incremental
        /// accumulators track the exact brute recompute within 1e-9
        /// relative at every step.
        fn prop_ledger_brute_parity(
            subs_raw in vec_of((0.0..500.0f64, 0.0..500.0f64), 1..8),
            ops in vec_of((0usize..4, 0.0..500.0f64, 0.0..500.0f64, 0.01..2.0f64), 1..30),
        ) {
            let subscribers: Vec<Point> =
                subs_raw.iter().map(|&(x, y)| Point::new(x, y)).collect();
            let mut ledger = InterferenceLedger::new(model(), subscribers.clone());
            let mut ids: Vec<usize> = Vec::new();
            for (kind, x, y, p) in ops {
                match kind {
                    0 => ids.push(ledger.add_relay(Point::new(x, y), p)),
                    1 if !ids.is_empty() => {
                        let victim = ids.remove(ids.len() / 2);
                        ledger.remove_relay(victim);
                    }
                    2 if !ids.is_empty() => {
                        let target = ids[ids.len() / 2];
                        ledger.move_relay(target, Point::new(x, y));
                    }
                    3 if !ids.is_empty() => {
                        let target = ids[ids.len() / 2];
                        ledger.set_power(target, p);
                    }
                    _ => ids.push(ledger.add_relay(Point::new(x, y), p)),
                }
                prop_assert!(ledger.audit().is_ok(), "audit failed mid-sequence");
                for j in 0..subscribers.len() {
                    for &serving in &ids {
                        let got = ledger.snr(j, serving);
                        let want = brute_snr(&ledger, &ids, j, serving);
                        if got >= SNR_SATURATED || want >= SNR_SATURATED {
                            prop_assert!(
                                got >= SNR_SATURATED && want >= SNR_SATURATED,
                                "saturation mismatch: {got} vs {want}"
                            );
                        } else {
                            prop_assert!(
                                (got - want).abs() <= 1e-9 * want.abs().max(1e-9),
                                "parity broken: {got} vs {want}"
                            );
                        }
                    }
                }
            }
        }

        /// The audit's recompute from positions agrees with the
        /// slot-order sum of `received_power` within 1e-13 relative, at
        /// the closed-form and `powf` exponents, over relays inside the
        /// near field, coincident with a subscriber, or at zero power;
        /// the cached-column sum equals that sum bit for bit.
        fn prop_audit_recompute_matches_received_power_sum(
            alpha in one_of([2.0, 2.5, 3.0, 3.3, 4.0]),
            g in 0.1..10.0f64,
            at in (-300.0..300.0f64, -300.0..300.0f64),
            relays in vec_of((-300.0..300.0f64, -300.0..300.0f64, 0.0..2.0f64, 0usize..5), 0..40),
        ) {
            let at = Point::new(at.0, at.1);
            let model = TwoRay::new(g, alpha);
            let mut ledger = InterferenceLedger::new(model, vec![at]);
            let near = TwoRay::NEAR_FIELD;
            for (x, y, pt, kind) in relays {
                let (pos, pt) = match kind {
                    0 => (at, pt),
                    1 => (Point::new(at.x + near * x / 400.0, at.y + near * y / 400.0), pt),
                    2 => (Point::new(x, y), 0.0),
                    _ => (Point::new(x, y), pt),
                };
                ledger.add_relay(pos, pt);
            }
            let got = ledger.recomputed_total(0);
            let want = ledger
                .live_slots()
                .map(|(_, s)| model.received_power(s.power, s.pos.distance(at)))
                .fold(0.0, |sum, term| sum + term);
            prop_assert_eq!(ledger.expected_total(0).to_bits(), want.to_bits());
            prop_assert!(
                (got - want).abs() <= 1e-13 * want.abs(),
                "α {alpha}: audit recompute {got:e} vs received_power sum {want:e}"
            );
        }

        /// The audit passes after every op of random relay sequences
        /// (add/remove/move/set-power) interleaved with subscriber
        /// mutations, at closed-form and `powf` exponents.
        fn prop_audit_passes_after_mutation_sequences(
            alpha in one_of([2.0, 2.5, 3.0, 3.3, 4.0]),
            subs_raw in vec_of((0.0..500.0f64, 0.0..500.0f64), 1..8),
            ops in vec_of((0usize..7, 0.0..500.0f64, 0.0..500.0f64, 0.0..2.0f64), 1..30),
        ) {
            let subscribers: Vec<Point> =
                subs_raw.iter().map(|&(x, y)| Point::new(x, y)).collect();
            let mut ledger = InterferenceLedger::new(TwoRay::new(1.0, alpha), subscribers);
            let mut relay_ids: Vec<usize> = Vec::new();
            let mut active: Vec<usize> = (0..ledger.n_subscribers()).collect();
            for (kind, x, y, p) in ops {
                let at = Point::new(x, y);
                let mid = relay_ids.len() / 2;
                match kind {
                    1 if !relay_ids.is_empty() => {
                        ledger.remove_relay(relay_ids.remove(mid));
                    }
                    2 if !relay_ids.is_empty() => ledger.move_relay(relay_ids[mid], at),
                    3 if !relay_ids.is_empty() => ledger.set_power(relay_ids[mid], p),
                    4 => active.push(ledger.add_subscriber(at)),
                    5 if active.len() > 1 => {
                        ledger.remove_subscriber(active.remove(active.len() / 2));
                    }
                    6 => {
                        ledger.move_subscriber(active[active.len() / 2], at);
                    }
                    _ => relay_ids.push(ledger.add_relay(at, p)),
                }
                prop_assert!(ledger.audit().is_ok(), "audit failed after op {kind}");
            }
        }

        /// Random interleavings of relay *and* subscriber mutations:
        /// every slot's accumulator (active or tombstoned) stays within
        /// 1e-9 relative of a fresh rebuild over the final slot layout,
        /// and the audit passes after every op.
        fn prop_subscriber_mutations_match_fresh_build(
            subs_raw in vec_of((0.0..500.0f64, 0.0..500.0f64), 1..6),
            ops in vec_of((0usize..6, 0.0..500.0f64, 0.0..500.0f64, 0.01..2.0f64), 1..30),
        ) {
            let subscribers: Vec<Point> =
                subs_raw.iter().map(|&(x, y)| Point::new(x, y)).collect();
            let mut ledger = InterferenceLedger::new(model(), subscribers);
            let mut relay_ids: Vec<usize> = Vec::new();
            let mut active: Vec<usize> = (0..ledger.n_subscribers()).collect();
            for (kind, x, y, p) in ops {
                match kind {
                    0 => relay_ids.push(ledger.add_relay(Point::new(x, y), p)),
                    1 if !relay_ids.is_empty() => {
                        let victim = relay_ids.remove(relay_ids.len() / 2);
                        ledger.remove_relay(victim);
                    }
                    2 if !relay_ids.is_empty() => {
                        let target = relay_ids[relay_ids.len() / 2];
                        ledger.move_relay(target, Point::new(x, y));
                    }
                    3 => active.push(ledger.add_subscriber(Point::new(x, y))),
                    4 if active.len() > 1 => {
                        let victim = active.remove(active.len() / 2);
                        ledger.remove_subscriber(victim);
                    }
                    5 if !active.is_empty() => {
                        let target = active[active.len() / 2];
                        ledger.move_subscriber(target, Point::new(x, y));
                    }
                    _ => relay_ids.push(ledger.add_relay(Point::new(x, y), p)),
                }
                prop_assert!(ledger.audit().is_ok(), "audit failed mid-sequence");
                // Fresh rebuild over the final slot layout (positions of
                // every slot, tombstoned or not) and the same relay
                // sequence in slot-id order.
                let mut fresh =
                    InterferenceLedger::new(model(), ledger.subscribers.clone());
                for slot in ledger.slots.iter().flatten() {
                    fresh.add_relay(slot.pos, slot.power);
                }
                for j in 0..ledger.n_subscribers() {
                    let got = ledger.total_rx[j];
                    let want = fresh.total_rx[j];
                    prop_assert!(
                        (got - want).abs() <= 1e-9 * want.abs().max(1e-12),
                        "slot {j}: incremental {got:e} vs fresh {want:e}"
                    );
                }
                for &j in &active {
                    for &serving in &relay_ids {
                        let got = ledger.snr(j, serving);
                        let want = brute_snr(&ledger, &relay_ids, j, serving);
                        if got >= SNR_SATURATED || want >= SNR_SATURATED {
                            prop_assert!(
                                got >= SNR_SATURATED && want >= SNR_SATURATED,
                                "saturation mismatch: {got} vs {want}"
                            );
                        } else {
                            prop_assert!(
                                (got - want).abs() <= 1e-9 * want.abs().max(1e-9),
                                "parity broken: {got} vs {want}"
                            );
                        }
                    }
                }
            }
        }

        /// `move_subscriber` is bit-identical to `remove_subscriber` +
        /// `add_subscriber` on the same slot, for any relay background.
        fn prop_move_subscriber_is_remove_plus_add(
            subs_raw in vec_of((0.0..500.0f64, 0.0..500.0f64), 2..6),
            relays_raw in vec_of((0.0..500.0f64, 0.0..500.0f64, 0.1..2.0f64), 0..5),
            mover in 0usize..64,
            to in (0.0..500.0f64, 0.0..500.0f64),
        ) {
            let subscribers: Vec<Point> =
                subs_raw.iter().map(|&(x, y)| Point::new(x, y)).collect();
            let j = mover % subscribers.len();
            let mut moved = InterferenceLedger::new(model(), subscribers);
            for &(x, y, p) in &relays_raw {
                moved.add_relay(Point::new(x, y), p);
            }
            let mut stepped = moved.clone();
            moved.move_subscriber(j, Point::new(to.0, to.1));
            stepped.remove_subscriber(j);
            prop_assert_eq!(stepped.add_subscriber(Point::new(to.0, to.1)), j);
            prop_assert_eq!(moved.total_rx.clone(), stepped.total_rx.clone());
        }
    }
}
