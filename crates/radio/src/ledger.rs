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
//! [`set_power`](InterferenceLedger::set_power)) are `O(S)` deltas —
//! or better under a cutoff, see below — and SNR queries are `O(1)`:
//! `snr(j, a) = signal / (T_j − signal)` with
//! `signal = Pr(p_a, d_aj)`.
//!
//! ## Exactness and the brute-force oracle
//!
//! A freshly built ledger (no cutoff) accumulates contributions in
//! relay order, so `T_j` is **bit-identical** to the sum inside
//! [`crate::snr::snr_interference_limited`] and the resulting SNR is
//! bit-identical to [`crate::snr::placement_snr`]. After incremental
//! mutations the accumulators can drift from the exact sum by a few
//! ulps (floating-point addition is not associative); the documented
//! parity bound is `1e-9` relative, enforced by property tests and far
//! below every feasibility margin in the pipeline.
//!
//! [`LedgerMode::Oracle`] keeps the brute-force path alive behind a
//! switch: every query recomputes the full sum from the registered
//! relays, ignoring the accumulators.
//! [`snr_checked`](InterferenceLedger::snr_checked) and
//! [`audit`](InterferenceLedger::audit) cross-check the incremental
//! state against the oracle and surface divergence as a typed
//! [`DesyncError`] — never a silently wrong answer.
//!
//! ## Cutoff and the residual bound
//!
//! With a negligible-contribution cutoff `d_cut`, mutations only touch
//! subscribers within `d_cut` of the relay (found through a
//! [`sag_geom::SpatialHash`] radius walk). Each far subscriber's missed
//! contribution is *over*-approximated by the per-relay bound
//! `Pr(p, d_cut)` folded into a residual term, so the queried SNR is a
//! **lower bound** on the exact SNR: a constraint that passes under the
//! cutoff also passes exactly (soundness; see DESIGN.md, "Interference
//! engine"). The default everywhere in the pipeline is no cutoff.

use crate::tworay::TwoRay;
use sag_geom::{float, Point, SpatialHash};

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
    /// Brute-force recompute per query (`O(R)`): the exact reference
    /// path, kept alive for parity checking and debugging
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

/// Cutoff state: the subscriber spatial index plus the conservative
/// residual bookkeeping (see the module docs).
#[derive(Debug, Clone)]
struct Cutoff {
    radius: f64,
    index: SpatialHash,
    /// `Σ` over active relays of the per-relay far bound `Pr(p, d_cut)`.
    residual_total: f64,
    /// Per subscriber, the portion of `residual_total` contributed by
    /// relays *within* its cutoff range (whose exact contribution is in
    /// `total_rx` instead). Residual for `j` is the difference.
    near_bound: Vec<f64>,
}

/// Snapshot of a ledger's cumulative work counters (see
/// [`InterferenceLedger::stats`]). These are observability data, not
/// algorithm state: consumers flush them into `sag-obs` counters at
/// stage boundaries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LedgerStats {
    /// Public mutations applied (`add`/`remove`/`move`/`set_power`).
    pub delta_ops: u64,
    /// Subscribers recomputed exactly after a cancelling subtraction
    /// (the `CANCEL_REFRESH` mechanism).
    pub cancel_refreshes: u64,
    /// Queries answered by the exact fallback because the incremental
    /// difference fell inside the [`CANCELLATION_GUARD`] drift regime.
    pub guard_activations: u64,
    /// Full [`rebuild`](InterferenceLedger::rebuild) passes.
    pub rebuilds: u64,
}

/// Internal counter cell. Mutation counters are plain integers (those
/// paths take `&mut self`); the guard counter is atomic because the
/// guarded queries run through `&self`.
#[derive(Debug, Default)]
struct StatsCell {
    delta_ops: u64,
    cancel_refreshes: u64,
    rebuilds: u64,
    guard_activations: std::sync::atomic::AtomicU64,
}

impl StatsCell {
    fn snapshot(&self) -> LedgerStats {
        LedgerStats {
            delta_ops: self.delta_ops,
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
    mode: LedgerMode,
    cutoff: Option<Cutoff>,
    /// Reused buffer of subscribers needing an exact refresh after a
    /// severely-cancelling subtraction (see [`CANCEL_REFRESH`]).
    scratch: Vec<usize>,
    /// Cumulative work counters (see [`InterferenceLedger::stats`]).
    stats: StatsCell,
}

impl InterferenceLedger {
    /// An empty ledger over the given subscriber positions (exact: no
    /// cutoff, incremental mode).
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
            mode: LedgerMode::default(),
            cutoff: None,
            scratch: Vec::new(),
            stats: StatsCell::default(),
        }
    }

    /// Switches the query mode (builder style).
    pub fn with_mode(mut self, mode: LedgerMode) -> Self {
        self.mode = mode;
        self
    }

    /// Enables the negligible-contribution cutoff at `radius` (builder
    /// style): mutations only touch subscribers within `radius` of the
    /// relay; farther contributions are folded into the conservative
    /// residual bound. Queries become SNR *lower* bounds — sound but
    /// not exact. Must be set before any relay is added.
    ///
    /// # Panics
    /// Panics if `radius` is not strictly positive and finite, or if
    /// relays were already added.
    pub fn with_cutoff(mut self, radius: f64) -> Self {
        assert!(
            radius.is_finite() && radius > 0.0,
            "cutoff radius must be > 0, got {radius}"
        );
        assert!(
            self.n_active == 0,
            "set the cutoff before adding relays (it is part of the accumulator layout)"
        );
        assert!(
            self.sub_free.is_empty(),
            "set the cutoff before mutating subscribers (the spatial index is static)"
        );
        let index = SpatialHash::build(&self.subscribers, radius);
        self.cutoff = Some(Cutoff {
            radius,
            index,
            residual_total: 0.0,
            near_bound: vec![0.0; self.subscribers.len()],
        });
        self
    }

    /// The active query mode.
    pub fn mode(&self) -> LedgerMode {
        self.mode
    }

    /// The cutoff radius, if one is set.
    pub fn cutoff_radius(&self) -> Option<f64> {
        self.cutoff.as_ref().map(|c| c.radius)
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
    /// The new accumulator is initialised to the exact slot-order sum
    /// of [`TwoRay::received_power`] over the registered relays, so an
    /// added subscriber is **bit-identical** to one present in a fresh
    /// build with the same relay sequence. `O(R)`.
    ///
    /// # Panics
    /// Panics if `pos` is not finite, or if a cutoff is set (the
    /// subscriber spatial index is static; churn requires an exact
    /// ledger, which is the pipeline default).
    pub fn add_subscriber(&mut self, pos: Point) -> usize {
        assert!(pos.is_finite(), "subscriber position is not finite");
        assert!(
            self.cutoff.is_none(),
            "subscriber mutations require an exact (no-cutoff) ledger"
        );
        let j = match self.sub_free.pop() {
            Some(j) => j,
            None => {
                self.subscribers.push(pos);
                self.sub_active.push(false);
                self.total_rx.push(0.0);
                self.subscribers.len() - 1
            }
        };
        self.subscribers[j] = pos;
        self.sub_active[j] = true;
        self.total_rx[j] = self.expected_total(j);
        self.stats.delta_ops += 1;
        j
    }

    /// Tombstones subscriber slot `j`, returning its position. The slot
    /// keeps its position and continues to receive relay deltas (so
    /// [`audit`](InterferenceLedger::audit) stays uniform across slots
    /// and re-activation is exact); it is merely excluded from the
    /// active count and eligible for reuse. `O(1)`.
    ///
    /// # Panics
    /// Panics if `j` is not an active subscriber slot, or if a cutoff
    /// is set.
    pub fn remove_subscriber(&mut self, j: usize) -> Point {
        assert!(
            self.cutoff.is_none(),
            "subscriber mutations require an exact (no-cutoff) ledger"
        );
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
    /// Panics if `j` is not an active subscriber slot, `pos` is not
    /// finite, or a cutoff is set.
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

    /// Registers a relay and returns its id. `O(S)`, or `O(|near|)`
    /// under a cutoff.
    ///
    /// # Panics
    /// Panics if `pos` is not finite or `power` is negative/non-finite.
    pub fn add_relay(&mut self, pos: Point, power: f64) -> usize {
        assert!(pos.is_finite(), "relay position is not finite");
        assert!(
            power.is_finite() && power >= 0.0,
            "relay power must be ≥ 0 and finite, got {power}"
        );
        let id = match self.free.pop() {
            Some(id) => id,
            None => {
                self.slots.push(None);
                self.slots.len() - 1
            }
        };
        self.slots[id] = Some(RelaySlot { pos, power });
        self.n_active += 1;
        self.stats.delta_ops += 1;
        self.apply_add(pos, power);
        id
    }

    /// Unregisters relay `id`, returning its position and power.
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
            if let Some(c) = &mut self.cutoff {
                c.residual_total = 0.0;
                c.near_bound.fill(0.0);
            }
        } else {
            let mut dirty = std::mem::take(&mut self.scratch);
            let residual_stale = self.apply_sub(slot.pos, slot.power, &mut dirty);
            self.refresh(&mut dirty, residual_stale);
        }
        self.free.push(id);
        (slot.pos, slot.power)
    }

    /// Moves relay `id` to `pos` (remove + add delta in one pass pair).
    ///
    /// # Panics
    /// Panics if `id` is not registered or `pos` is not finite.
    pub fn move_relay(&mut self, id: usize, pos: Point) {
        assert!(pos.is_finite(), "relay position is not finite");
        let slot = self.slot(id);
        if slot.pos == pos {
            return;
        }
        let (old_pos, power) = (slot.pos, slot.power);
        // Commit the slot first: exact refreshes recompute from the
        // slot table, which must describe the *final* state.
        self.slot_mut(id).pos = pos;
        self.stats.delta_ops += 1;
        let mut dirty = std::mem::take(&mut self.scratch);
        let residual_stale = self.apply_sub(old_pos, power, &mut dirty);
        self.apply_add(pos, power);
        self.refresh(&mut dirty, residual_stale);
    }

    /// Changes relay `id`'s transmit power.
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
        let (pos, old_power) = (slot.pos, slot.power);
        self.slot_mut(id).power = power;
        self.stats.delta_ops += 1;
        let mut dirty = std::mem::take(&mut self.scratch);
        let residual_stale = self.apply_sub(pos, old_power, &mut dirty);
        self.apply_add(pos, power);
        self.refresh(&mut dirty, residual_stale);
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

    /// Exact received power at subscriber `j` from relay `id` (always
    /// recomputed from the relay's registered position/power — never
    /// subject to cutoff or drift).
    pub fn signal(&self, j: usize, id: usize) -> f64 {
        let slot = self.slot(id);
        self.model
            .received_power(slot.power, slot.pos.distance(self.subscribers[j]))
    }

    /// Aggregate interference at subscriber `j` excluding relay
    /// `serving` — the denominator of Definition 2. `O(1)` in
    /// incremental mode; an upper bound under a cutoff (hence SNR from
    /// it is a sound lower bound); exact brute recompute in
    /// [`LedgerMode::Oracle`].
    pub fn interference_at(&self, j: usize, serving: usize) -> f64 {
        match self.mode {
            LedgerMode::Oracle => self.interference_oracle(j, serving),
            LedgerMode::Incremental => {
                let v = self.interference_incremental(j, self.signal(j, serving));
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
    /// recomputes the exact SNR from the registered relays and returns
    /// a typed [`DesyncError`] when the incremental answer diverges
    /// beyond [`AUDIT_REL_TOL`] (beyond the sound direction, for cutoff
    /// ledgers). This is the "wrong answers become typed errors" hook
    /// the chaos suite drives.
    ///
    /// # Errors
    /// [`DesyncError`] when the accumulators no longer agree with the
    /// brute-force recompute.
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
        let ok = saturated
            || if self.cutoff.is_some() {
                // Conservative mode: the incremental answer must stay a
                // lower bound (up to tolerance).
                inc <= oracle * (1.0 + AUDIT_REL_TOL)
            } else {
                (inc - oracle).abs() <= AUDIT_REL_TOL * oracle.abs().max(AUDIT_REL_TOL)
            };
        if ok {
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

    /// Full accumulator audit against the brute-force recompute:
    /// `Ok(())` when every subscriber slot's accumulator (tombstoned
    /// slots included) matches the exact sum within [`AUDIT_REL_TOL`],
    /// the first divergence otherwise.
    ///
    /// The recompute sums the same relays in the same slot order as
    /// the accumulators' exact sum, under the same cutoff membership,
    /// but takes each term from the `powf`-free closed form at `α = 3`.
    /// It agrees with the `received_power` sum to ~1e-14 relative —
    /// eight orders of magnitude inside [`AUDIT_REL_TOL`] — so a clean
    /// ledger passes and a stale accumulator still fails.
    ///
    /// # Errors
    /// [`DesyncError`] naming the lowest diverged subscriber slot.
    pub fn audit(&self) -> Result<(), DesyncError> {
        for (j, &got) in self.total_rx.iter().enumerate() {
            let expected = self.slot_order_total(j, TwoRay::received_power_closed_form);
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

    /// Recomputes every accumulator from the registered relays,
    /// discarding any incremental drift. `O(R·S)` — cheap insurance for
    /// long mutation sequences (branch-and-bound calls this
    /// periodically).
    pub fn rebuild(&mut self) {
        self.stats.rebuilds += 1;
        self.total_rx.fill(0.0);
        if let Some(c) = &mut self.cutoff {
            c.residual_total = 0.0;
            c.near_bound.fill(0.0);
        }
        let active: Vec<RelaySlot> = self.slots.iter().filter_map(|s| *s).collect();
        for slot in active {
            self.apply_add(slot.pos, slot.power);
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

    /// A new ledger restricted to the subscriber subset `subset`
    /// (indices into this ledger, kept in the caller's order), with the
    /// same propagation model, query mode, cutoff and registered relays.
    ///
    /// Subset accumulators are rebuilt exactly (relays re-added in slot
    /// id order), so a split of a freshly built ledger is bit-identical
    /// to building over the subset directly — zone workers get private
    /// drift-free state. Relay ids compact to `0, 1, 2, …` in the
    /// parent's slot id order.
    ///
    /// # Panics
    /// Panics if any subset index is out of range.
    pub fn split(&self, subset: &[usize]) -> InterferenceLedger {
        let subs: Vec<Point> = subset.iter().map(|&j| self.subscribers[j]).collect();
        let mut out = InterferenceLedger::new(self.model, subs).with_mode(self.mode);
        if let Some(c) = &self.cutoff {
            out = out.with_cutoff(c.radius);
        }
        for slot in self.slots.iter().flatten() {
            out.add_relay(slot.pos, slot.power);
        }
        out
    }

    /// Registers every relay of `other` into `self` (in `other`'s slot
    /// id order), returning the ids assigned here. Contributions are
    /// recomputed against *this* ledger's subscribers, so merging the
    /// per-zone ledgers of a partition back into an empty global ledger
    /// — in zone order — reproduces, bit for bit, the ledger a
    /// sequential build of the concatenated relay list would produce.
    pub fn merge_from(&mut self, other: &InterferenceLedger) -> Vec<usize> {
        other
            .slots
            .iter()
            .flatten()
            .map(|slot| self.add_relay(slot.pos, slot.power))
            .collect()
    }

    /// Snapshot of the cumulative work counters: delta mutations,
    /// exact cancel-refresh recomputes, cancellation-guard query
    /// fallbacks and full rebuilds. Counters survive [`Clone`] (the
    /// clone starts from the parent's totals) and are never reset.
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

    /// Adds one relay's contribution to every (in-range) accumulator.
    /// Addition of non-negative terms cannot cancel, so no refresh
    /// bookkeeping is needed on this path.
    fn apply_add(&mut self, pos: Point, power: f64) {
        match &mut self.cutoff {
            None => {
                for (j, sub) in self.subscribers.iter().enumerate() {
                    self.total_rx[j] += self.model.received_power(power, pos.distance(*sub));
                }
            }
            Some(c) => {
                let bound = self.model.received_power(power, c.radius);
                c.residual_total += bound;
                let Cutoff {
                    radius,
                    index,
                    near_bound,
                    ..
                } = c;
                let total_rx = &mut self.total_rx;
                let model = self.model;
                index.for_each_within(pos, *radius, |j, d| {
                    total_rx[j] += model.received_power(power, d);
                    near_bound[j] += bound;
                });
            }
        }
    }

    /// Subtracts one relay's contribution. Subscribers whose
    /// accumulator lost more than [`CANCEL_REFRESH`] of its magnitude
    /// (the difference is then rounding noise from the old, larger
    /// value) are pushed onto `dirty` for exact recomputation once the
    /// slot table reflects the final state. Returns whether the cutoff
    /// residual total suffered the same fate.
    fn apply_sub(&mut self, pos: Point, power: f64, dirty: &mut Vec<usize>) -> bool {
        match &mut self.cutoff {
            None => {
                for (j, sub) in self.subscribers.iter().enumerate() {
                    let old = self.total_rx[j];
                    let new = old - self.model.received_power(power, pos.distance(*sub));
                    self.total_rx[j] = new;
                    if new.abs() < CANCEL_REFRESH * old.abs() {
                        dirty.push(j);
                    }
                }
                false
            }
            Some(c) => {
                let bound = self.model.received_power(power, c.radius);
                let old_rt = c.residual_total;
                c.residual_total -= bound;
                let residual_stale = c.residual_total.abs() < CANCEL_REFRESH * old_rt.abs();
                let Cutoff {
                    radius,
                    index,
                    near_bound,
                    ..
                } = c;
                let total_rx = &mut self.total_rx;
                let model = self.model;
                index.for_each_within(pos, *radius, |j, d| {
                    let old = total_rx[j];
                    let new = old - model.received_power(power, d);
                    total_rx[j] = new;
                    let old_nb = near_bound[j];
                    near_bound[j] -= bound;
                    if new.abs() < CANCEL_REFRESH * old.abs()
                        || near_bound[j].abs() < CANCEL_REFRESH * old_nb.abs()
                    {
                        dirty.push(j);
                    }
                });
                residual_stale
            }
        }
    }

    /// Exactly recomputes the accumulators of every subscriber in
    /// `dirty` (and the residual total when stale) from the slot table,
    /// then returns the buffer to `scratch` for reuse.
    fn refresh(&mut self, dirty: &mut Vec<usize>, residual_stale: bool) {
        let mut buf = std::mem::take(dirty);
        self.stats.cancel_refreshes += buf.len() as u64;
        for &j in &buf {
            self.total_rx[j] = self.expected_total(j);
            if self.cutoff.is_some() {
                let nb = self.expected_near_bound(j);
                if let Some(c) = &mut self.cutoff {
                    c.near_bound[j] = nb;
                }
            }
        }
        if residual_stale {
            let rt = self.expected_residual_total();
            if let Some(c) = &mut self.cutoff {
                c.residual_total = rt;
            }
        }
        buf.clear();
        self.scratch = buf;
    }

    /// The conservative residual interference bound for subscriber `j`
    /// (0 without a cutoff).
    fn residual(&self, j: usize) -> f64 {
        match &self.cutoff {
            None => 0.0,
            Some(c) => (c.residual_total - c.near_bound[j]).max(0.0),
        }
    }

    /// Interference at `j` given the serving relay's `signal` there.
    fn interference_incremental(&self, j: usize, signal: f64) -> f64 {
        // Without a cutoff this is exactly `total − signal`, matching
        // the brute path bit-for-bit on a freshly built ledger. With a
        // cutoff the serving relay may or may not be inside `total`;
        // either way the residual covers the gap from above (see
        // DESIGN.md "Interference engine" for the case analysis).
        let base = self.total_rx[j] - signal;
        match &self.cutoff {
            None => base,
            Some(_) => base + self.residual(j),
        }
    }

    fn snr_incremental(&self, j: usize, serving: usize) -> f64 {
        let signal = self.signal(j, serving);
        if signal <= 0.0 {
            return 0.0;
        }
        let interference = self.interference_incremental(j, signal);
        // The cancellation guard subsumes the `≤ 0` branch: interference
        // at ulp scale relative to the aggregate is drift, not physics —
        // the incremental difference cannot distinguish "exactly zero"
        // from "tiny but real". Resolve the ambiguity exactly instead of
        // guessing: an `O(R)` recompute, paid only in the rare regime
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
        let sub = self.subscribers[j];
        let mut sum = 0.0;
        for (id, slot) in self.slots.iter().enumerate() {
            if id == serving {
                continue;
            }
            if let Some(s) = slot {
                sum += self.model.received_power(s.power, s.pos.distance(sub));
            }
        }
        sum
    }

    fn snr_oracle(&self, j: usize, serving: usize) -> f64 {
        // Mirror `snr_interference_limited`: accumulate the *total* in
        // slot order and subtract the serving signal, so a fresh ledger
        // and the brute helper agree bit-for-bit.
        let sub = self.subscribers[j];
        let mut total = 0.0;
        for slot in self.slots.iter().flatten() {
            total += self
                .model
                .received_power(slot.power, slot.pos.distance(sub));
        }
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
    /// active relay's contribution, restricted to in-range relays under
    /// a cutoff (same membership predicate as the spatial walk).
    fn expected_total(&self, j: usize) -> f64 {
        self.slot_order_total(j, TwoRay::received_power)
    }

    /// `Σ term(model, power, d)` over the active relays in slot order
    /// (only those within the cutoff radius of `j` when one is set).
    #[inline]
    fn slot_order_total(&self, j: usize, term: impl Fn(&TwoRay, f64, f64) -> f64) -> f64 {
        let sub = self.subscribers[j];
        let mut total = 0.0;
        for slot in self.slots.iter().flatten() {
            let d = slot.pos.distance(sub);
            if let Some(c) = &self.cutoff {
                if !float::leq(d, c.radius) {
                    continue;
                }
            }
            total += term(&self.model, slot.power, d);
        }
        total
    }

    /// What `near_bound[j]` should hold: the sum of per-relay far
    /// bounds over active relays within cutoff range of `j`.
    fn expected_near_bound(&self, j: usize) -> f64 {
        let Some(c) = &self.cutoff else {
            return 0.0;
        };
        let sub = self.subscribers[j];
        let mut total = 0.0;
        for slot in self.slots.iter().flatten() {
            if float::leq(slot.pos.distance(sub), c.radius) {
                total += self.model.received_power(slot.power, c.radius);
            }
        }
        total
    }

    /// What `residual_total` should hold: the sum of every active
    /// relay's far bound.
    fn expected_residual_total(&self) -> f64 {
        let Some(c) = &self.cutoff else {
            return 0.0;
        };
        self.slots
            .iter()
            .flatten()
            .map(|slot| self.model.received_power(slot.power, c.radius))
            .sum()
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
    fn split_matches_a_direct_build_over_the_subset() {
        let mut parent = InterferenceLedger::new(model(), subs());
        parent.add_relay(Point::new(10.0, 0.0), 1.0);
        parent.add_relay(Point::new(45.0, 5.0), 0.7);
        let piece = parent.split(&[0, 2]);
        assert_eq!(piece.n_subscribers(), 2);
        assert_eq!(piece.n_relays(), 2);
        assert_eq!(piece.subscriber(1), Point::new(0.0, 80.0));
        // Bit-identical to building fresh over the subset.
        let mut direct =
            InterferenceLedger::new(model(), vec![Point::new(0.0, 0.0), Point::new(0.0, 80.0)]);
        direct.add_relay(Point::new(10.0, 0.0), 1.0);
        direct.add_relay(Point::new(45.0, 5.0), 0.7);
        for j in 0..2 {
            for id in 0..2 {
                assert_eq!(piece.interference_at(j, id), direct.interference_at(j, id));
            }
        }
        // Mode survives the split.
        let oracle = parent.clone().with_mode(LedgerMode::Oracle).split(&[1]);
        assert_eq!(oracle.mode(), LedgerMode::Oracle);
    }

    #[test]
    fn merging_zone_ledgers_reproduces_the_sequential_build() {
        // Two "zones" over disjoint subscriber subsets; each zone
        // ledger carries its own relays. Merging them into an empty
        // global ledger in zone order must equal adding the
        // concatenated relay list to a fresh global ledger.
        let all = subs();
        let global_empty = InterferenceLedger::new(model(), all.clone());
        let mut zone_a = global_empty.split(&[0, 1]);
        zone_a.add_relay(Point::new(8.0, 2.0), 1.0);
        zone_a.add_relay(Point::new(42.0, -3.0), 1.0);
        let mut zone_b = global_empty.split(&[2]);
        zone_b.add_relay(Point::new(4.0, 71.0), 1.0);

        let mut merged = global_empty.clone();
        let ids_a = merged.merge_from(&zone_a);
        let ids_b = merged.merge_from(&zone_b);
        assert_eq!(ids_a, vec![0, 1]);
        assert_eq!(ids_b, vec![2]);

        let mut sequential = InterferenceLedger::new(model(), all);
        for p in [
            Point::new(8.0, 2.0),
            Point::new(42.0, -3.0),
            Point::new(4.0, 71.0),
        ] {
            sequential.add_relay(p, 1.0);
        }
        for j in 0..3 {
            for id in 0..3 {
                assert_eq!(
                    merged.interference_at(j, id),
                    sequential.interference_at(j, id),
                    "merge diverged at (j={j}, id={id})"
                );
            }
        }
        merged.audit().expect("merged ledger is exact");
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
    fn cutoff_snr_is_a_sound_lower_bound() {
        let positions = [
            Point::new(5.0, 0.0),
            Point::new(55.0, 0.0),
            Point::new(0.0, 75.0),
            Point::new(400.0, 400.0), // far: outside every cutoff range
        ];
        let mut exact = InterferenceLedger::new(model(), subs());
        let mut cut = InterferenceLedger::new(model(), subs()).with_cutoff(150.0);
        for p in positions {
            exact.add_relay(p, 1.0);
            cut.add_relay(p, 1.0);
        }
        assert_eq!(cut.cutoff_radius(), Some(150.0));
        for j in 0..3 {
            for s in 0..3 {
                let lo = cut.snr(j, s);
                let hi = exact.snr(j, s);
                assert!(
                    lo <= hi * (1.0 + 1e-12) || (lo.is_infinite() && hi.is_infinite()),
                    "cutoff SNR {lo} must lower-bound exact {hi}"
                );
            }
        }
        // The bound is tight when everything is in range.
        let mut wide = InterferenceLedger::new(model(), subs()).with_cutoff(1e4);
        for p in positions {
            wide.add_relay(p, 1.0);
        }
        for j in 0..3 {
            assert_snr_close(wide.snr(j, 0), exact.snr(j, 0));
        }
        assert!(cut.audit().is_ok());
        assert!(cut.snr_checked(0, 0).is_ok());
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
    fn subscriber_mutation_under_cutoff_panics() {
        let mut ledger = InterferenceLedger::new(model(), subs()).with_cutoff(100.0);
        ledger.add_subscriber(Point::new(1.0, 1.0));
    }

    #[test]
    #[should_panic]
    fn unknown_relay_id_panics() {
        let ledger = InterferenceLedger::new(model(), subs());
        ledger.power(0);
    }

    #[test]
    #[should_panic]
    fn cutoff_after_relays_panics() {
        let mut ledger = InterferenceLedger::new(model(), subs());
        ledger.add_relay(Point::ORIGIN, 1.0);
        let _ = ledger.with_cutoff(10.0);
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

        /// The audit's recompute agrees with the slot-order sum of
        /// `received_power` within 1e-13 relative, at the closed-form and
        /// `powf` exponents, with and without a cutoff, over relays
        /// inside the near field, coincident with a subscriber, or at
        /// zero power.
        fn prop_audit_recompute_matches_received_power_sum(
            alpha in one_of([2.0, 2.5, 3.0, 3.3, 4.0]),
            g in 0.1..10.0f64,
            cutoff in one_of([None, Some(5.0), Some(150.0)]),
            at in (-300.0..300.0f64, -300.0..300.0f64),
            relays in vec_of((-300.0..300.0f64, -300.0..300.0f64, 0.0..2.0f64, 0usize..5), 0..40),
        ) {
            let at = Point::new(at.0, at.1);
            let mut ledger = InterferenceLedger::new(TwoRay::new(g, alpha), vec![at]);
            if let Some(r) = cutoff {
                ledger = ledger.with_cutoff(r);
            }
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
            let got = ledger.slot_order_total(0, TwoRay::received_power_closed_form);
            let want = ledger.expected_total(0);
            prop_assert!(
                (got - want).abs() <= 1e-13 * want.abs(),
                "α {alpha}: audit recompute {got:e} vs received_power sum {want:e}"
            );
        }

        /// The audit passes after every op of random relay sequences
        /// (add/remove/move/set-power) interleaved with subscriber
        /// mutations, at closed-form and `powf` exponents, on plain and
        /// cutoff ledgers (which allow no subscriber mutations).
        fn prop_audit_passes_after_mutation_sequences(
            alpha in one_of([2.0, 2.5, 3.0, 3.3, 4.0]),
            cutoff in one_of([None, Some(60.0), Some(250.0)]),
            subs_raw in vec_of((0.0..500.0f64, 0.0..500.0f64), 1..8),
            ops in vec_of((0usize..7, 0.0..500.0f64, 0.0..500.0f64, 0.0..2.0f64), 1..30),
        ) {
            let subscribers: Vec<Point> =
                subs_raw.iter().map(|&(x, y)| Point::new(x, y)).collect();
            let mut ledger = InterferenceLedger::new(TwoRay::new(1.0, alpha), subscribers);
            if let Some(r) = cutoff {
                ledger = ledger.with_cutoff(r);
            }
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
                    4 if cutoff.is_none() => active.push(ledger.add_subscriber(at)),
                    5 if cutoff.is_none() && active.len() > 1 => {
                        ledger.remove_subscriber(active.remove(active.len() / 2));
                    }
                    6 if cutoff.is_none() => {
                        ledger.move_subscriber(active[active.len() / 2], at);
                    }
                    _ => relay_ids.push(ledger.add_relay(at, p)),
                }
                prop_assert!(ledger.audit().is_ok(), "audit failed after op {kind}");
            }
        }

        /// Cutoff ledgers never overestimate the SNR (soundness), for
        /// any cutoff radius and geometry.
        fn prop_cutoff_is_sound(
            subs_raw in vec_of((0.0..400.0f64, 0.0..400.0f64), 1..6),
            relays_raw in vec_of((0.0..400.0f64, 0.0..400.0f64, 0.1..2.0f64), 1..6),
            radius in 10.0..500.0f64,
        ) {
            let subscribers: Vec<Point> =
                subs_raw.iter().map(|&(x, y)| Point::new(x, y)).collect();
            let mut exact = InterferenceLedger::new(model(), subscribers.clone());
            let mut cut =
                InterferenceLedger::new(model(), subscribers.clone()).with_cutoff(radius);
            let mut ids = Vec::new();
            for &(x, y, p) in &relays_raw {
                ids.push(exact.add_relay(Point::new(x, y), p));
                cut.add_relay(Point::new(x, y), p);
            }
            for j in 0..subscribers.len() {
                for &s in &ids {
                    let lo = cut.snr(j, s);
                    let hi = exact.snr(j, s);
                    prop_assert!(
                        lo <= hi * (1.0 + 1e-9)
                            || hi >= SNR_SATURATED
                            || hi.is_infinite(),
                        "cutoff SNR {lo} exceeds exact {hi}"
                    );
                }
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
