//! Streaming churn engine: incremental placement repair under subscriber
//! arrivals, departures and mobility.
//!
//! The paper's pipeline is batch: given a fixed subscriber set, SAMC
//! places relays once. Real deployments churn — subscribers join, leave
//! and move — and re-running the whole pipeline per event is wasteful
//! when one event only perturbs one interference zone. [`ChurnEngine`]
//! keeps a live placement and repairs it *incrementally*:
//!
//! 1. every event patches the [`InterferenceLedger`] in place through
//!    its subscriber mutations (`add/remove/move_subscriber`), so SNR
//!    state stays `O(R)`-per-event instead of `O(S·R)` rebuilds;
//! 2. the event dirties only the interference zone(s) it touches; the
//!    dirty set is closed over serving relays so a zone split/merge or
//!    boundary crossing drags every co-served zone along;
//! 3. only dirty zones are re-solved, through the same work queue as
//!    the batch path ([`crate::engine`]), under a per-event cooperative
//!    [`Budget`].
//!
//! # Degradation ladder
//!
//! When an event burst starves the budget the engine does not block —
//! it falls down a ladder, recording every rung in the [`ChurnReport`]:
//!
//! * **[`RepairRung::Exact`]** — dirty zones re-solved by the full SAMC
//!   zone solver (hitting set → escape → sliding);
//! * **[`RepairRung::Greedy`]** — a zone whose exact solve came back
//!   infeasible is patched by the shared greedy rescue rung
//!   ([`SolverBuilder::primary_or_greedy_rescue`]) instead — the same
//!   ladder bottom the steady-state pipeline uses, so rung accounting
//!   agrees between churn and batch paths;
//! * **[`RepairRung::Deferred`]** — no budget at all: the event's slots
//!   join a backlog that the next funded event (or an explicit
//!   [`ChurnEngine::flush`]) batch-repairs; the backlog is bounded by
//!   [`ChurnConfig::max_backlog`], past which a forced flush runs.
//!
//! Departures are the fast path: removing a subscriber (and its relay,
//! when orphaned) only ever *lowers* interference, so no zone needs a
//! re-solve.
//!
//! # Safety contract
//!
//! Every entry point returns a typed [`SagError`] or leaves the engine
//! audit-clean — never a hang, a panic escape, or a silently corrupted
//! placement. Worker panics inside a repair surface as
//! [`SagError::WorkerPanic`]; a skewed ledger accumulator (chaos
//! injection or a real bug) is caught by the audit policy
//! ([`ChurnConfig::audit_every`]) as [`SagError::LedgerDesync`]; a
//! repair that fails re-queues its slots so the caller can retry.

use std::time::{Duration, Instant};

use sag_geom::Point;
use sag_lp::{Budget, Spent};
use sag_radio::ledger::InterferenceLedger;

use crate::coverage::{interference_ledger, CoverageSolution};
use crate::engine;
use crate::error::{SagError, SagResult};
use crate::model::{Scenario, Subscriber};
use crate::samc::{self, SamcConfig};
use crate::solver::SolverBuilder;
use crate::zone::{zone_partition, zone_scenario};

/// One subscriber-side event in the churn stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ChurnEvent {
    /// A new subscriber appears and must be covered.
    SsArrive {
        /// Where the subscriber appears (must be finite, inside the field).
        position: Point,
        /// Its capacity-derived feasible distance (Definition 1).
        distance_req: f64,
    },
    /// An existing subscriber leaves the network.
    SsDepart {
        /// Engine slot of the departing subscriber (as returned in
        /// arrival order; slots are reused LIFO after departures).
        subscriber: usize,
    },
    /// An existing subscriber moves (one mobility-trace step).
    SsMove {
        /// Engine slot of the moving subscriber.
        subscriber: usize,
        /// New position (must be finite, inside the field).
        to: Point,
    },
}

/// Which rung of the degradation ladder repaired an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RepairRung {
    /// Dirty zones re-solved exactly by the SAMC zone solver.
    Exact,
    /// At least one dirty zone fell back to the greedy cover patch.
    Greedy,
    /// No budget: the event joined the deferred backlog.
    Deferred,
}

/// Tuning knobs for the churn engine.
#[derive(Debug, Clone, Copy)]
pub struct ChurnConfig {
    /// Zone-solver configuration used for exact repairs.
    pub samc: SamcConfig,
    /// Worker threads for multi-zone repairs (`1` = sequential and
    /// fully deterministic, `0` = all hardware threads).
    pub threads: usize,
    /// Backlog bound: once this many slots are deferred, the next
    /// deferral triggers a forced batch flush so degradation stays
    /// bounded instead of open-ended.
    pub max_backlog: usize,
    /// Audit cadence: run a full ledger [`InterferenceLedger::audit`]
    /// every `audit_every` events (`0` disables; `1`, the default,
    /// audits after every event). An audit failure surfaces as
    /// [`SagError::LedgerDesync`].
    pub audit_every: u64,
    /// Backend selection front shared with the steady-state pipeline;
    /// the repair ladder's Exact→Greedy rescue routes through
    /// [`SolverBuilder::primary_or_greedy_rescue`] so rung accounting
    /// cannot drift between churn and batch paths.
    pub solver: SolverBuilder,
}

impl Default for ChurnConfig {
    fn default() -> Self {
        ChurnConfig {
            samc: SamcConfig::default(),
            threads: 1,
            max_backlog: 8,
            audit_every: 1,
            solver: SolverBuilder::default(),
        }
    }
}

/// What happened to one event: its ladder rung and repair latency.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EventRecord {
    /// The event as applied.
    pub event: ChurnEvent,
    /// Ladder rung that handled it.
    pub rung: RepairRung,
    /// Wall-clock latency of the whole apply (mutate + repair + audit).
    pub latency_ns: u64,
    /// Number of zones the repair re-solved (0 for departures and
    /// deferred events).
    pub dirty_zones: usize,
    /// Backlog size after the event.
    pub backlog: usize,
}

/// Aggregated outcome of a churn run: per-event records plus ladder and
/// repair counters. Latency percentiles are the SLO surface gated by
/// `BENCH_churn.json`.
#[derive(Debug, Clone, Default)]
pub struct ChurnReport {
    /// One record per applied event, in stream order.
    pub events: Vec<EventRecord>,
    /// Batch flushes of the deferred backlog (explicit or forced).
    pub flushes: u64,
    /// Global sliding-repair rounds triggered by residual cross-zone
    /// SNR violations after a commit.
    pub global_repairs: u64,
    /// Ledger audits that ran (and passed) under the audit policy.
    pub audits: u64,
}

impl ChurnReport {
    /// How many events landed on `rung`.
    pub fn rung_count(&self, rung: RepairRung) -> usize {
        self.events.iter().filter(|e| e.rung == rung).count()
    }

    /// Nearest-rank latency percentile over all events, in nanoseconds
    /// (`p` in percent, e.g. `99.0`). Returns 0 for an empty report.
    pub fn latency_percentile_ns(&self, p: f64) -> u64 {
        let mut v: Vec<u64> = self.events.iter().map(|e| e.latency_ns).collect();
        if v.is_empty() {
            return 0;
        }
        v.sort_unstable();
        let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
        v[rank.saturating_sub(1).min(v.len() - 1)]
    }

    /// Median per-event repair latency (ns).
    pub fn p50_ns(&self) -> u64 {
        self.latency_percentile_ns(50.0)
    }

    /// Tail per-event repair latency (ns).
    pub fn p99_ns(&self) -> u64 {
        self.latency_percentile_ns(99.0)
    }
}

/// A live placement under churn: slot tables mirroring the ledger, the
/// current serving assignment, and the deferred-repair backlog.
///
/// Slot discipline: subscriber slot `j` is active iff `subs[j]` is
/// `Some`; the ledger's subscriber slot `j` always agrees (both reuse
/// freed slots LIFO). Relay ids are ledger relay ids, mirrored in
/// `relay_pos` (both reuse freed ids LIFO).
#[derive(Debug)]
pub struct ChurnEngine {
    /// Field, base stations and radio parameters (the subscriber list
    /// inside is the *initial* one; the live set is `subs`).
    template: Scenario,
    /// Slot-aligned live subscribers (`None` = tombstoned slot).
    subs: Vec<Option<Subscriber>>,
    /// Slot-aligned serving relay ids (`None` = awaiting repair).
    serving: Vec<Option<usize>>,
    /// Relay-id-aligned positions (`None` = freed id).
    relay_pos: Vec<Option<Point>>,
    /// Incremental interference state over all slots (exact mode; churn
    /// forbids the truncated cutoff because subscriber mutations do).
    ledger: InterferenceLedger,
    config: ChurnConfig,
    /// Subscriber slots whose repair was deferred (dedup'd, unordered).
    deferred: Vec<usize>,
    report: ChurnReport,
    events_seen: u64,
}

impl ChurnEngine {
    /// Builds an engine by solving `scenario` from scratch with SAMC.
    pub fn new(scenario: &Scenario, config: ChurnConfig) -> SagResult<ChurnEngine> {
        scenario.validate()?;
        let initial = samc::samc_with(scenario, config.samc)?;
        ChurnEngine::with_placement(scenario, initial, config)
    }

    /// Builds an engine around an existing placement (e.g. a cached
    /// from-scratch solve), skipping the initial SAMC run.
    ///
    /// # Errors
    /// [`SagError::InvalidScenario`] (or another validation error) when
    /// the scenario fails [`Scenario::validate`], a relay position is
    /// not finite, or the assignment does not match the subscribers.
    pub fn with_placement(
        scenario: &Scenario,
        solution: CoverageSolution,
        config: ChurnConfig,
    ) -> SagResult<ChurnEngine> {
        scenario.validate()?;
        if let Some(i) = solution.relays.iter().position(|p| !p.is_finite()) {
            return Err(SagError::InvalidScenario(format!(
                "churn: relay {i} at non-finite position"
            )));
        }
        if solution.assignment.len() != scenario.n_subscribers()
            || solution
                .assignment
                .iter()
                .any(|&r| r >= solution.relays.len())
        {
            return Err(SagError::InvalidScenario(
                "churn: placement does not match the scenario's subscribers".into(),
            ));
        }
        let ledger = interference_ledger(scenario, &solution.relays);
        Ok(ChurnEngine {
            template: scenario.clone(),
            subs: scenario.subscribers.iter().map(|&s| Some(s)).collect(),
            serving: solution.assignment.iter().map(|&r| Some(r)).collect(),
            relay_pos: solution.relays.iter().map(|&p| Some(p)).collect(),
            ledger,
            config,
            deferred: Vec::new(),
            report: ChurnReport::default(),
            events_seen: 0,
        })
    }

    /// Live subscriber count.
    pub fn n_subscribers(&self) -> usize {
        self.subs.iter().filter(|s| s.is_some()).count()
    }

    /// Powered-on relay count.
    pub fn n_relays(&self) -> usize {
        self.ledger.n_relays()
    }

    /// Slots currently awaiting a deferred repair.
    pub fn backlog(&self) -> usize {
        self.deferred.len()
    }

    /// The accumulated report so far.
    pub fn report(&self) -> &ChurnReport {
        &self.report
    }

    /// Consumes the engine, yielding its report.
    pub fn into_report(self) -> ChurnReport {
        self.report
    }

    /// Read-only view of the live interference ledger.
    pub fn ledger(&self) -> &InterferenceLedger {
        &self.ledger
    }

    /// Full ledger audit on demand (the audit policy runs this
    /// automatically every [`ChurnConfig::audit_every`] events).
    pub fn audit(&self) -> SagResult<()> {
        self.ledger.audit().map_err(SagError::from)
    }

    /// Chaos hook: skews one accumulator of the live ledger (see
    /// [`InterferenceLedger::skew_accumulator`]). Test-only in spirit —
    /// the chaos suite uses it to prove the audit policy converts state
    /// corruption into [`SagError::LedgerDesync`].
    pub fn skew_ledger(&mut self, subscriber_slot: usize, delta: f64) {
        self.ledger.skew_accumulator(subscriber_slot, delta);
    }

    /// The live scenario over active subscribers (compact order =
    /// ascending slot). `None` when no subscriber is active.
    pub fn scenario(&self) -> Option<Scenario> {
        self.compact().map(|(sc, _)| sc)
    }

    /// The live placement as a [`CoverageSolution`] over the compact
    /// scenario of [`ChurnEngine::scenario`]. `None` while repairs are
    /// deferred (call [`ChurnEngine::flush`] first) or when no
    /// subscriber is active.
    pub fn solution(&self) -> Option<CoverageSolution> {
        let (_, slots) = self.compact()?;
        let ids: Vec<usize> = (0..self.relay_pos.len())
            .filter(|&i| self.relay_pos[i].is_some())
            .collect();
        let mut id_to_k = vec![usize::MAX; self.relay_pos.len()];
        for (k, &id) in ids.iter().enumerate() {
            id_to_k[id] = k;
        }
        let relays: Vec<Point> = ids.iter().filter_map(|&i| self.relay_pos[i]).collect();
        let mut assignment = Vec::with_capacity(slots.len());
        for &j in &slots {
            assignment.push(id_to_k[self.serving[j]?]);
        }
        Some(CoverageSolution { relays, assignment })
    }

    /// Applies one event under `budget` and repairs (or defers) the
    /// placement. See the module docs for the ladder semantics.
    ///
    /// This is a dump-on-failure boundary: a typed error leaving here
    /// emits exactly one post-mortem frame (inner layers never dump,
    /// so a propagating error cannot double-dump), and an event that
    /// lands on the `Deferred` rung emits a `churn_deferred` frame.
    pub fn apply_event(&mut self, event: ChurnEvent, budget: &Budget) -> SagResult<()> {
        self.apply_event_impl(event, budget).inspect_err(|e| {
            e.emit_post_mortem();
        })
    }

    fn apply_event_impl(&mut self, event: ChurnEvent, budget: &Budget) -> SagResult<()> {
        let _span = sag_obs::span("churn_event");
        let started = Instant::now();
        self.events_seen += 1;

        // 1. Validate, then mutate the slot tables and the ledger.
        let mut seeds: Vec<usize> = Vec::new();
        match event {
            ChurnEvent::SsArrive {
                position,
                distance_req,
            } => {
                self.check_point(position, "arrival")?;
                if !(distance_req.is_finite() && distance_req > 0.0) {
                    return Err(SagError::InvalidScenario(format!(
                        "churn: arrival with invalid distance_req {distance_req}"
                    )));
                }
                let j = self.ledger.add_subscriber(position);
                if j == self.subs.len() {
                    self.subs.push(None);
                    self.serving.push(None);
                }
                self.subs[j] = Some(Subscriber {
                    position,
                    distance_req,
                });
                self.serving[j] = None;
                seeds.push(j);
            }
            ChurnEvent::SsDepart { subscriber } => {
                self.check_active(subscriber, "depart")?;
                self.ledger.remove_subscriber(subscriber);
                self.subs[subscriber] = None;
                self.deferred.retain(|&s| s != subscriber);
                if let Some(r) = self.serving[subscriber].take() {
                    if !self.serving.contains(&Some(r)) {
                        self.ledger.remove_relay(r);
                        self.relay_pos[r] = None;
                    }
                }
                // Fast path: dropping a subscriber (and its orphaned
                // relay) only lowers interference, so no zone dirties.
            }
            ChurnEvent::SsMove { subscriber, to } => {
                self.check_active(subscriber, "move")?;
                self.check_point(to, "move destination")?;
                self.ledger.move_subscriber(subscriber, to);
                if let Some(sub) = self.subs[subscriber].as_mut() {
                    sub.position = to;
                }
                seeds.push(subscriber);
            }
        }

        // 2. Pick the ladder rung. A funded event also drains the
        // backlog; a starved one grows it.
        let starved = budget.check_interrupt().is_err();
        let (rung, dirty_zones) = if starved {
            self.push_deferred(&seeds);
            (RepairRung::Deferred, 0)
        } else {
            let mut all = std::mem::take(&mut self.deferred);
            for &s in &seeds {
                if !all.contains(&s) {
                    all.push(s);
                }
            }
            match self.repair(&all, budget, started) {
                Ok(outcome) => outcome,
                Err(SagError::BudgetExceeded { .. }) => {
                    self.push_deferred(&all);
                    (RepairRung::Deferred, 0)
                }
                Err(e) => {
                    // Re-queue so a later event or flush retries; the
                    // commit protocol keeps state consistent on error.
                    self.push_deferred(&all);
                    return Err(e);
                }
            }
        };

        // Deferral is the rung the SLO burn-rate analysis cares about:
        // leave a forensics frame with the backlog state.
        if rung == RepairRung::Deferred && sag_obs::armed() {
            let detail = format!(
                "repair deferred ({} backlog slots, {})",
                self.deferred.len(),
                if starved {
                    "budget starved before repair"
                } else {
                    "repair budget exhausted"
                }
            );
            sag_obs::post_mortem(&sag_obs::Dump {
                class: "churn_deferred",
                stage: Some("churn"),
                detail: &detail,
                ..sag_obs::Dump::default()
            });
        }

        // 3. Bounded degradation: a backlog at the cap forces a flush.
        if rung == RepairRung::Deferred && self.deferred.len() >= self.config.max_backlog {
            self.flush_impl()?;
        }

        // 4. Audit policy: catch accumulator drift as a typed error.
        if self.config.audit_every > 0 && self.events_seen.is_multiple_of(self.config.audit_every) {
            self.ledger.audit()?;
            self.report.audits += 1;
        }

        // 5. Record the event and its SLO metrics.
        let latency_ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.report.events.push(EventRecord {
            event,
            rung,
            latency_ns,
            dirty_zones,
            backlog: self.deferred.len(),
        });
        sag_obs::counter(
            match rung {
                RepairRung::Exact => "churn.rung_exact",
                RepairRung::Greedy => "churn.rung_greedy",
                RepairRung::Deferred => "churn.rung_deferred",
            },
            1,
        );
        sag_obs::observe("churn.repair_ns", latency_ns);
        sag_obs::gauge("churn.backlog", self.deferred.len() as f64);
        Ok(())
    }

    /// Batch-repairs the deferred backlog under an unlimited budget.
    /// Returns how many slots were drained. On error the backlog is
    /// restored so the flush can be retried.
    ///
    /// Like [`ChurnEngine::apply_event`], a dump-on-failure boundary.
    pub fn flush(&mut self) -> SagResult<usize> {
        self.flush_impl().inspect_err(|e| {
            e.emit_post_mortem();
        })
    }

    fn flush_impl(&mut self) -> SagResult<usize> {
        let seeds = std::mem::take(&mut self.deferred);
        if seeds.is_empty() {
            return Ok(0);
        }
        let _span = sag_obs::span("churn_flush");
        self.report.flushes += 1;
        sag_obs::counter("churn.flushes", 1);
        match self.repair(&seeds, &Budget::unlimited(), Instant::now()) {
            Ok(_) => {
                sag_obs::gauge("churn.backlog", 0.0);
                Ok(seeds.len())
            }
            Err(e) => {
                self.deferred = seeds;
                Err(e)
            }
        }
    }

    /// Drives a whole event stream: applies each event under its own
    /// budget (`per_event = None` means unlimited) and flushes any
    /// remaining backlog at the end.
    pub fn run(&mut self, events: &[ChurnEvent], per_event: Option<Duration>) -> SagResult<()> {
        for &event in events {
            let budget = match per_event {
                Some(d) => Budget::unlimited().with_deadline(d),
                None => Budget::unlimited(),
            };
            self.apply_event(event, &budget)?;
        }
        self.flush()?;
        Ok(())
    }

    /// Active slots in ascending order plus the compact live scenario.
    fn compact(&self) -> Option<(Scenario, Vec<usize>)> {
        let slots: Vec<usize> = (0..self.subs.len())
            .filter(|&j| self.subs[j].is_some())
            .collect();
        if slots.is_empty() {
            return None;
        }
        let sc = Scenario {
            field: self.template.field,
            subscribers: slots.iter().filter_map(|&j| self.subs[j]).collect(),
            base_stations: self.template.base_stations.clone(),
            params: self.template.params,
        };
        Some((sc, slots))
    }

    /// Re-solves every zone touched by `seeds` (transitively through
    /// serving relays) and commits the result. Solve happens before any
    /// mutation, so an error leaves the placement exactly as it was.
    fn repair(
        &mut self,
        seeds: &[usize],
        budget: &Budget,
        started: Instant,
    ) -> SagResult<(RepairRung, usize)> {
        // Stale seeds (departed while deferred) repair to nothing.
        let seeds: Vec<usize> = seeds
            .iter()
            .copied()
            .filter(|&j| self.subs.get(j).is_some_and(|s| s.is_some()))
            .collect();
        if seeds.is_empty() {
            return Ok((RepairRung::Exact, 0));
        }
        let _span = sag_obs::span("churn_repair");
        let Some((sc, slots)) = self.compact() else {
            return Ok((RepairRung::Exact, 0));
        };

        // Zone geometry of the *live* subscriber set.
        let zones = zone_partition(&sc);
        let mut compact_of = vec![usize::MAX; self.subs.len()];
        for (c, &j) in slots.iter().enumerate() {
            compact_of[j] = c;
        }
        let mut zone_of = vec![usize::MAX; slots.len()];
        for (zi, z) in zones.iter().enumerate() {
            for &c in z {
                zone_of[c] = zi;
            }
        }

        // Dirty set: the seeds' zones, closed over serving relays — a
        // relay with one foot in a dirty zone drags its other zones in
        // (this is what makes boundary hops and zone merges safe).
        let mut dirty = vec![false; zones.len()];
        for &j in &seeds {
            dirty[zone_of[compact_of[j]]] = true;
        }
        let mut relay_dirty = vec![false; self.relay_pos.len()];
        loop {
            for &j in &slots {
                if let Some(r) = self.serving[j] {
                    if dirty[zone_of[compact_of[j]]] {
                        relay_dirty[r] = true;
                    }
                }
            }
            let mut changed = false;
            for &j in &slots {
                if let Some(r) = self.serving[j] {
                    if relay_dirty[r] && !dirty[zone_of[compact_of[j]]] {
                        dirty[zone_of[compact_of[j]]] = true;
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        let dirty_zone_ids: Vec<usize> = (0..zones.len()).filter(|&z| dirty[z]).collect();
        sag_obs::gauge("churn.dirty_zones", dirty_zone_ids.len() as f64);

        // Solve every dirty zone (pure; no state touched yet). Budget
        // exhaustion between zones surfaces as BudgetExceeded, which
        // the caller converts into a deferral.
        let cfg = self.config.samc;
        let solver = self.config.solver;
        let solved = engine::run_zones(
            "churn",
            dirty_zone_ids.len(),
            self.config.threads,
            |k| -> SagResult<(CoverageSolution, RepairRung)> {
                budget
                    .check_interrupt()
                    .map_err(|_| SagError::BudgetExceeded {
                        stage: "churn",
                        spent: Spent {
                            nodes: 0,
                            elapsed: started.elapsed(),
                        },
                    })?;
                let (zsc, _) = zone_scenario(&sc, &zones[dirty_zone_ids[k]]);
                // One ladder for both paths: the SAMC zone solver is
                // the exact rung; an infeasible answer falls to the
                // shared greedy rescue in the solver builder, so the
                // rung accounting here matches the steady-state
                // pipeline's by construction.
                let (sol, rescued) =
                    solver.primary_or_greedy_rescue(&zsc, || samc::solve_zone(&zsc, cfg))?;
                Ok((
                    sol,
                    if rescued {
                        RepairRung::Greedy
                    } else {
                        RepairRung::Exact
                    },
                ))
            },
        )?;

        // Commit: retire every dirty relay, install the zone answers.
        for (id, d) in relay_dirty.iter().enumerate() {
            if *d {
                self.ledger.remove_relay(id);
                self.relay_pos[id] = None;
            }
        }
        for &j in &slots {
            if dirty[zone_of[compact_of[j]]] {
                self.serving[j] = None;
            }
        }
        let mut rung = RepairRung::Exact;
        for (&zid, (sol, zone_rung)) in dirty_zone_ids.iter().zip(solved) {
            if zone_rung == RepairRung::Greedy {
                rung = RepairRung::Greedy;
            }
            let ids: Vec<usize> = sol
                .relays
                .iter()
                .map(|&p| {
                    let id = self.ledger.add_relay(p, 1.0);
                    if id == self.relay_pos.len() {
                        self.relay_pos.push(None);
                    }
                    self.relay_pos[id] = Some(p);
                    id
                })
                .collect();
            for (local, &c) in zones[zid].iter().enumerate() {
                self.serving[slots[c]] = Some(ids[sol.assignment[local]]);
            }
        }

        // Zones are interference-independent only up to N_max: new
        // relays can push a *clean* zone's subscriber under β. Re-check
        // everyone against the patched ledger and run one global
        // sliding-repair round if needed (same policy as the batch
        // merge in `engine::merge_zone_outcomes`).
        let beta = sc.params.link.beta();
        let violated = slots
            .iter()
            .any(|&j| self.serving[j].is_some_and(|r| self.ledger.snr(j, r) < beta - 1e-12));
        if violated {
            self.global_repair(&sc, &slots)?;
        }
        Ok((rung, dirty_zone_ids.len()))
    }

    /// One global RS Sliding Movement round over the live placement,
    /// committed back through `move_relay` diffs (relay ids stable).
    fn global_repair(&mut self, sc: &Scenario, slots: &[usize]) -> SagResult<()> {
        self.report.global_repairs += 1;
        sag_obs::counter("churn.global_repairs", 1);
        let ids: Vec<usize> = (0..self.relay_pos.len())
            .filter(|&i| self.relay_pos[i].is_some())
            .collect();
        let mut id_to_k = vec![usize::MAX; self.relay_pos.len()];
        for (k, &id) in ids.iter().enumerate() {
            id_to_k[id] = k;
        }
        let relays: Vec<Point> = ids.iter().filter_map(|&i| self.relay_pos[i]).collect();
        let mut assignment = Vec::with_capacity(slots.len());
        for &j in slots {
            match self.serving[j] {
                Some(r) => assignment.push(id_to_k[r]),
                None => {
                    return Err(SagError::Infeasible(
                        "churn: global repair with unserved subscriber".into(),
                    ))
                }
            }
        }
        match crate::sliding::rs_sliding_movement(sc, relays, assignment) {
            Some(sol) => {
                debug_assert_eq!(sol.relays.len(), ids.len());
                for (k, &id) in ids.iter().enumerate() {
                    self.ledger.move_relay(id, sol.relays[k]);
                    self.relay_pos[id] = Some(sol.relays[k]);
                }
                for (c, &j) in slots.iter().enumerate() {
                    self.serving[j] = Some(ids[sol.assignment[c]]);
                }
                Ok(())
            }
            None => Err(SagError::Infeasible(
                "churn: global SNR repair failed".into(),
            )),
        }
    }

    fn push_deferred(&mut self, seeds: &[usize]) {
        for &s in seeds {
            if !self.deferred.contains(&s) {
                self.deferred.push(s);
            }
        }
    }

    fn check_point(&self, p: Point, what: &str) -> SagResult<()> {
        if !p.is_finite() {
            return Err(SagError::InvalidScenario(format!(
                "churn: {what} at non-finite position"
            )));
        }
        if !self.template.field.contains(p) {
            return Err(SagError::InvalidScenario(format!(
                "churn: {what} outside the field"
            )));
        }
        Ok(())
    }

    fn check_active(&self, j: usize, what: &str) -> SagResult<()> {
        if !matches!(self.subs.get(j), Some(Some(_))) {
            return Err(SagError::InvalidScenario(format!(
                "churn: {what} of unknown subscriber slot {j}"
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coverage::is_feasible;
    use crate::model::{BaseStation, NetworkParams, Scenario, Subscriber};
    use sag_geom::{Point, Rect};
    use sag_radio::{units::Db, LinkBudget};

    fn scenario(subs: Vec<(f64, f64, f64)>) -> Scenario {
        Scenario::new(
            Rect::centered_square(500.0),
            subs.into_iter()
                .map(|(x, y, d)| Subscriber::new(Point::new(x, y), d))
                .collect(),
            vec![BaseStation::new(Point::new(200.0, 200.0))],
            NetworkParams::new(
                LinkBudget::builder().snr_threshold(Db::new(-15.0)).build(),
                1e-9,
            ),
        )
        .unwrap()
    }

    fn engine() -> ChurnEngine {
        let sc = scenario(vec![
            (0.0, 0.0, 35.0),
            (40.0, 10.0, 35.0),
            (-150.0, -150.0, 35.0),
        ]);
        ChurnEngine::new(&sc, ChurnConfig::default()).unwrap()
    }

    fn assert_live_feasible(eng: &ChurnEngine) {
        let sc = eng.scenario().expect("live scenario");
        let sol = eng.solution().expect("fully served placement");
        assert!(is_feasible(&sc, &sol), "live placement infeasible");
        eng.audit().unwrap();
    }

    #[test]
    fn arrival_is_repaired_exactly_and_stays_feasible() {
        let mut eng = engine();
        let before = eng.n_subscribers();
        eng.apply_event(
            ChurnEvent::SsArrive {
                position: Point::new(120.0, -40.0),
                distance_req: 35.0,
            },
            &Budget::unlimited(),
        )
        .unwrap();
        assert_eq!(eng.n_subscribers(), before + 1);
        assert_eq!(eng.backlog(), 0);
        assert_eq!(eng.report().events.last().unwrap().rung, RepairRung::Exact);
        assert_live_feasible(&eng);
    }

    #[test]
    fn depart_is_a_fast_path_that_prunes_orphaned_relays() {
        let mut eng = engine();
        let relays_before = eng.n_relays();
        // Slot 2 is the isolated far-corner subscriber: its relay
        // serves nobody else and must be powered off on departure.
        eng.apply_event(ChurnEvent::SsDepart { subscriber: 2 }, &Budget::unlimited())
            .unwrap();
        assert_eq!(eng.n_subscribers(), 2);
        assert!(eng.n_relays() < relays_before, "orphaned relay not pruned");
        let rec = *eng.report().events.last().unwrap();
        assert_eq!(rec.rung, RepairRung::Exact);
        assert_eq!(rec.dirty_zones, 0, "departures must not re-solve zones");
        assert_live_feasible(&eng);
    }

    #[test]
    fn move_across_the_field_is_repaired() {
        let mut eng = engine();
        eng.apply_event(
            ChurnEvent::SsMove {
                subscriber: 0,
                to: Point::new(180.0, 180.0),
            },
            &Budget::unlimited(),
        )
        .unwrap();
        assert_live_feasible(&eng);
    }

    #[test]
    fn starved_budget_defers_and_flush_drains() {
        let mut eng = engine();
        let expired = Budget::unlimited().with_deadline(Duration::ZERO);
        eng.apply_event(
            ChurnEvent::SsArrive {
                position: Point::new(100.0, 100.0),
                distance_req: 35.0,
            },
            &expired,
        )
        .unwrap();
        assert_eq!(
            eng.report().events.last().unwrap().rung,
            RepairRung::Deferred
        );
        assert_eq!(eng.backlog(), 1);
        assert!(
            eng.solution().is_none(),
            "unserved arrival must gate solution()"
        );
        assert_eq!(eng.flush().unwrap(), 1);
        assert_eq!(eng.backlog(), 0);
        assert_live_feasible(&eng);
    }

    #[test]
    fn backlog_at_cap_forces_a_flush() {
        let sc = scenario(vec![(0.0, 0.0, 35.0)]);
        let mut eng = ChurnEngine::new(
            &sc,
            ChurnConfig {
                max_backlog: 2,
                ..ChurnConfig::default()
            },
        )
        .unwrap();
        let expired = Budget::unlimited().with_deadline(Duration::ZERO);
        for i in 0..5 {
            eng.apply_event(
                ChurnEvent::SsArrive {
                    position: Point::new(30.0 * f64::from(i), -60.0),
                    distance_req: 35.0,
                },
                &expired,
            )
            .unwrap();
            assert!(
                eng.backlog() < 2,
                "backlog must stay below the cap after every event"
            );
        }
        assert!(eng.report().flushes >= 2);
        eng.flush().unwrap();
        assert_live_feasible(&eng);
    }

    #[test]
    fn invalid_events_are_typed_errors() {
        let mut eng = engine();
        let b = Budget::unlimited();
        for event in [
            ChurnEvent::SsArrive {
                position: Point::new(f64::NAN, 0.0),
                distance_req: 35.0,
            },
            ChurnEvent::SsArrive {
                position: Point::new(9e9, 0.0),
                distance_req: 35.0,
            },
            ChurnEvent::SsArrive {
                position: Point::new(0.0, 0.0),
                distance_req: -1.0,
            },
            ChurnEvent::SsDepart { subscriber: 99 },
            ChurnEvent::SsMove {
                subscriber: 99,
                to: Point::new(0.0, 0.0),
            },
        ] {
            match eng.apply_event(event, &b) {
                Err(SagError::InvalidScenario(_)) => {}
                other => panic!("{event:?} must be rejected, got {other:?}"),
            }
        }
        // Rejected events leave the placement untouched.
        assert_live_feasible(&eng);
    }

    #[test]
    fn bad_placements_are_typed_errors() {
        let sc = scenario(vec![(0.0, 0.0, 35.0), (40.0, 10.0, 35.0)]);
        let placement = |relay: Point| CoverageSolution {
            relays: vec![Point::new(10.0, 0.0), relay],
            assignment: vec![0, 1],
        };
        let cfg = ChurnConfig::default();
        let nan_relay = ChurnEngine::with_placement(&sc, placement(Point::new(f64::NAN, 0.0)), cfg);
        assert!(
            matches!(nan_relay, Err(SagError::InvalidScenario(_))),
            "{nan_relay:?}"
        );
        let mut nan_sub = sc.clone();
        nan_sub.subscribers[0].position = Point::new(0.0, f64::NAN);
        let nan_sub = ChurnEngine::with_placement(&nan_sub, placement(Point::new(40.0, 0.0)), cfg);
        assert!(
            matches!(nan_sub, Err(SagError::InvalidScenario(_))),
            "{nan_sub:?}"
        );
        assert!(ChurnEngine::with_placement(&sc, placement(Point::new(40.0, 0.0)), cfg).is_ok());
    }

    #[test]
    fn departed_slot_rejects_further_events_until_reused() {
        let mut eng = engine();
        let b = Budget::unlimited();
        eng.apply_event(ChurnEvent::SsDepart { subscriber: 1 }, &b)
            .unwrap();
        let err = eng
            .apply_event(
                ChurnEvent::SsMove {
                    subscriber: 1,
                    to: Point::new(5.0, 5.0),
                },
                &b,
            )
            .unwrap_err();
        assert!(matches!(err, SagError::InvalidScenario(_)));
    }

    #[test]
    fn skewed_ledger_surfaces_a_typed_desync() {
        let mut eng = engine();
        // Skew the isolated far-corner subscriber's accumulator: the
        // depart below repairs nothing near it, so no incremental
        // refresh can mask the corruption before the audit runs. The
        // delta dwarfs any received power at this field scale.
        eng.skew_ledger(2, 1e12);
        let err = eng
            .apply_event(ChurnEvent::SsDepart { subscriber: 1 }, &Budget::unlimited())
            .unwrap_err();
        assert!(
            matches!(err, SagError::LedgerDesync(_)),
            "expected LedgerDesync, got {err:?}"
        );
    }

    #[test]
    fn same_stream_is_deterministic() {
        let events = vec![
            ChurnEvent::SsArrive {
                position: Point::new(110.0, -30.0),
                distance_req: 35.0,
            },
            ChurnEvent::SsMove {
                subscriber: 0,
                to: Point::new(-120.0, 80.0),
            },
            ChurnEvent::SsDepart { subscriber: 1 },
            ChurnEvent::SsArrive {
                position: Point::new(-100.0, -90.0),
                distance_req: 35.0,
            },
        ];
        let mut a = engine();
        let mut b = engine();
        a.run(&events, None).unwrap();
        b.run(&events, None).unwrap();
        let ra: Vec<_> = a.report().events.iter().map(|e| e.rung).collect();
        let rb: Vec<_> = b.report().events.iter().map(|e| e.rung).collect();
        assert_eq!(ra, rb);
        assert_eq!(a.solution().unwrap().relays, b.solution().unwrap().relays);
        assert_live_feasible(&a);
    }

    #[test]
    fn report_percentiles_are_nearest_rank() {
        let mut report = ChurnReport::default();
        for ns in [10u64, 20, 30, 40] {
            report.events.push(EventRecord {
                event: ChurnEvent::SsDepart { subscriber: 0 },
                rung: RepairRung::Exact,
                latency_ns: ns,
                dirty_zones: 0,
                backlog: 0,
            });
        }
        assert_eq!(report.p50_ns(), 20);
        assert_eq!(report.p99_ns(), 40);
        assert_eq!(report.latency_percentile_ns(100.0), 40);
        assert_eq!(ChurnReport::default().p99_ns(), 0);
    }
}
