//! `churn_hotspots`: open loop, one thread, fixed offered rate. A
//! `ChurnEngine` with the default configuration (exact repair, full
//! ledger audit after every event) serves a seeded event trace over a
//! 6×6 grid of hotspots, each its own interference zone.

use std::f64::consts::TAU;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use sag_core::churn::{ChurnConfig, ChurnEngine, ChurnEvent, RepairRung};
use sag_core::coverage::is_feasible;
use sag_core::samc::{HittingStrategy, SamcConfig};
use sag_core::solver::SolverBuilder;
use sag_core::zone::zone_partition;
use sag_core::{BaseStation, Budget, NetworkParams, Scenario, Subscriber};
use sag_geom::{Point, Rect};
use sag_radio::{units::Db, LinkBudget};
use sag_testkit::rng::Rng;

use crate::measure::{median, ms, wait_until, Layers, Samples};
use crate::report::Phase;
use crate::Opts;

/// Hotspots per side of the grid.
pub const GRID: usize = 6;
/// Distance between neighbouring hotspot centres (m).
pub const SPACING: f64 = 600.0;
/// Subscribers per hotspot at the start.
pub const PER_HOTSPOT: usize = 8;
/// Radius of a hotspot (m). Two subscribers of one hotspot are at most
/// 120 m apart, so with distance requirements of at least 30 m their
/// effective distance stays within d_max = 100 m: a hotspot is one zone.
pub const RADIUS: f64 = 60.0;
/// N_max = 1e-6, so d_max = 100 m.
pub const NMAX: f64 = 1e-6;
/// Share of events that move a subscriber inside its hotspot; the rest
/// are arrivals and departures.
pub const MOVE_SHARE: f64 = 0.8;
/// The live population stays within this many subscribers of its start.
pub const POP_BAND: usize = 16;
/// Events offered per second: about a fifth of the ~700/s the engine
/// sustains back to back on the reference host (2 vCPUs). At 300/s the
/// host's stalls backed the queue up far enough to swing p90 by a
/// quarter from run to run; at this rate queues stay short and no
/// backlog grows.
pub const OFFERED_RATE: f64 = 150.0;
/// Per-event repair budget; no event comes near it.
pub const EVENT_BUDGET: Duration = Duration::from_millis(250);
/// Events applied back to back during set-up, before timing.
pub const WARMUP_EVENTS: usize = 200;
/// Consecutive windows the recorded latency percentiles are the median
/// of; at the default 25 s run each holds 750 events, so a window's p90
/// has 75 samples beyond it.
pub const LATENCY_WINDOWS: usize = 5;
/// Zone workers inside the churn engine.
pub const CHURN_THREADS: usize = 1;

const FIELD: f64 = GRID as f64 * SPACING;

/// Centres of the hotspot grid, row by row.
pub fn hotspot_centers() -> Vec<Point> {
    let mid = (GRID as f64 - 1.0) / 2.0;
    (0..GRID * GRID)
        .map(|k| {
            let (i, j) = ((k % GRID) as f64, (k / GRID) as f64);
            Point::new((i - mid) * SPACING, (j - mid) * SPACING)
        })
        .collect()
}

fn point_in_hotspot(rng: &mut Rng, center: Point) -> Point {
    let r = RADIUS * rng.f64().sqrt();
    let theta = rng.gen_range(0.0..TAU);
    Point::new(center.x + r * theta.cos(), center.y + r * theta.sin())
}

fn distance_req(rng: &mut Rng) -> f64 {
    rng.gen_range(30.0..=40.0)
}

/// The starting deployment: `PER_HOTSPOT` subscribers in every hotspot
/// (hotspot-major order), 4 base stations, −15 dB.
pub fn deployment(seed: u64) -> Scenario {
    let mut rng = Rng::seed_from_u64(seed);
    let subscribers = hotspot_centers()
        .into_iter()
        .flat_map(|c| (0..PER_HOTSPOT).map(move |_| c))
        .map(|c| {
            let p = point_in_hotspot(&mut rng, c);
            Subscriber::new(p, distance_req(&mut rng))
        })
        .collect();
    let h = FIELD / 2.0 - SPACING / 4.0;
    let base_stations = [(h, h), (-h, h), (-h, -h), (h, -h)]
        .into_iter()
        .map(|(x, y)| BaseStation::new(Point::new(x, y)))
        .collect();
    let link = LinkBudget::builder()
        .max_power(1.0)
        .snr_threshold(Db::new(-15.0))
        .build();
    Scenario::new(
        Rect::centered_square(FIELD),
        subscribers,
        base_stations,
        NetworkParams::new(link, NMAX),
    )
    .expect("the hotspot deployment is non-empty")
}

/// A seeded event trace against [`deployment`]. Slot ids mirror the
/// engine's slot table (freed slots are reused last-in first-out).
/// Moves stay inside the subscriber's hotspot; arrivals pick a hotspot
/// uniformly; arrivals and departures keep the live population within
/// `POP_BAND` of its start. Traces of one seed are prefixes of each
/// other.
pub fn trace(seed: u64, n_events: usize) -> Vec<ChurnEvent> {
    let centers = hotspot_centers();
    let start = centers.len() * PER_HOTSPOT;
    let mut rng = Rng::seed_from_u64(seed ^ 0x7472_6163);
    let mut hotspot_of: Vec<Option<usize>> = (0..start).map(|j| Some(j / PER_HOTSPOT)).collect();
    let mut alive: Vec<usize> = (0..start).collect();
    let mut free: Vec<usize> = Vec::new();
    let mut events = Vec::with_capacity(n_events);
    while events.len() < n_events {
        if rng.f64() < MOVE_SHARE {
            let slot = alive[rng.gen_range(0..alive.len())];
            let h = hotspot_of[slot].expect("live slots have a hotspot");
            events.push(ChurnEvent::SsMove {
                subscriber: slot,
                to: point_in_hotspot(&mut rng, centers[h]),
            });
            continue;
        }
        let arrive = if alive.len() + POP_BAND <= start {
            true
        } else if alive.len() >= start + POP_BAND {
            false
        } else {
            rng.gen_bool(0.5)
        };
        if arrive {
            let h = rng.gen_range(0..centers.len());
            events.push(ChurnEvent::SsArrive {
                position: point_in_hotspot(&mut rng, centers[h]),
                distance_req: distance_req(&mut rng),
            });
            let slot = free.pop().unwrap_or_else(|| {
                hotspot_of.push(None);
                hotspot_of.len() - 1
            });
            hotspot_of[slot] = Some(h);
            alive.push(slot);
        } else {
            let slot = alive.swap_remove(rng.gen_range(0..alive.len()));
            events.push(ChurnEvent::SsDepart { subscriber: slot });
            hotspot_of[slot] = None;
            free.push(slot);
        }
    }
    events
}

/// The default churn configuration with every setting spelled out.
pub fn churn_config() -> ChurnConfig {
    ChurnConfig {
        samc: SamcConfig {
            hitting: HittingStrategy::LocalSearch,
        },
        threads: CHURN_THREADS,
        max_backlog: 8,
        audit_every: 1,
        solver: SolverBuilder::adaptive(),
    }
}

fn apply(engine: &mut ChurnEngine, event: ChurnEvent) -> Result<(), String> {
    let budget = Budget::unlimited().with_deadline(EVENT_BUDGET);
    match catch_unwind(AssertUnwindSafe(|| engine.apply_event(event, &budget))) {
        Ok(Ok(())) => Ok(()),
        Ok(Err(e)) => Err(e.to_string()),
        Err(_) => Err("apply_event panicked".into()),
    }
}

/// Input generation, the initial placement and the warm-up events.
fn setup(seed: u64, n_events: usize) -> Result<(ChurnEngine, Vec<ChurnEvent>, Duration), String> {
    let started = Instant::now();
    let scenario = deployment(seed);
    let events = trace(seed, n_events);
    let mut engine = ChurnEngine::new(&scenario, churn_config())
        .map_err(|e| format!("initial placement: {e}"))?;
    for &event in &events[..WARMUP_EVENTS] {
        apply(&mut engine, event).map_err(|e| format!("warm-up: {e}"))?;
    }
    Ok((engine, events, started.elapsed()))
}

/// What the open loop measured.
#[derive(Default)]
struct Tally {
    latency_ms: Samples,
    service_ms: Samples,
    queue_wait_ms: Samples,
    gen_lag_ms: Samples,
    relays: Samples,
    delta_ops: Samples,
    zones: Samples,
    zone_size_max: Samples,
    completed: u64,
}

/// Drives the measured part of the trace on the open-loop schedule.
///
/// Event `i` is due `i / OFFERED_RATE` seconds after the start and is
/// timed from when it was due. In the traced run the probe calls after
/// each event (`radio.audit`, `core.zone`) pause the schedule, so they
/// do not delay later events.
fn drive(
    engine: &mut ChurnEngine,
    events: &[ChurnEvent],
    seconds: Duration,
    probes: Option<&Layers>,
    phase: &mut Phase,
) -> (Tally, Duration) {
    let mut tally = Tally::default();
    let interval = Duration::from_secs_f64(1.0 / OFFERED_RATE);
    let started = Instant::now();
    let mut paused = Duration::ZERO;
    let mut last_done = started;
    for (i, &event) in events.iter().enumerate() {
        let offset = interval.mul_f64(i as f64);
        if offset >= seconds {
            break;
        }
        let due = started + paused + offset;
        let idle = Instant::now() < due;
        match probes {
            Some(layers) => layers.time("load.wait", || wait_until(due)),
            None => wait_until(due),
        }
        let ops_before = engine.ledger().stats().delta_ops;
        let begin = Instant::now();
        let outcome = match probes {
            Some(layers) => layers.time("core.churn_service", || apply(engine, event)),
            None => apply(engine, event),
        };
        let done = Instant::now();
        last_done = done;
        phase.attempted += 1;
        match outcome {
            Ok(()) => tally.completed += 1,
            Err(e) => phase.fail(format!("churn event {i}: {e}")),
        }
        tally.latency_ms.push(ms(done - due));
        tally.service_ms.push(ms(done - begin));
        tally.queue_wait_ms.push(ms(begin - due));
        if idle {
            tally.gen_lag_ms.push(ms(begin - due));
        }
        tally.relays.push(engine.n_relays() as f64);
        tally
            .delta_ops
            .push((engine.ledger().stats().delta_ops - ops_before) as f64);

        if let Some(layers) = probes {
            let probe_started = Instant::now();
            if let Err(e) = layers.time("radio.audit", || engine.audit()) {
                phase.fail(format!("churn event {i}: audit: {e}"));
            }
            if let Some(live) = engine.scenario() {
                let zones = layers.time("core.zone", || zone_partition(&live));
                tally.zones.push(zones.len() as f64);
                tally
                    .zone_size_max
                    .push(zones.iter().map(Vec::len).max().unwrap_or(0) as f64);
            }
            paused += probe_started.elapsed();
        }
    }
    (tally, last_done - started - paused)
}

/// Output checks after the timed window: the ledger audit passes, the
/// backlog flushes, and the flushed placement is feasible.
fn check(engine: &mut ChurnEngine, phase: &mut Phase) {
    if let Err(e) = engine.audit() {
        phase.fail(format!("churn: final audit: {e}"));
    }
    if let Err(e) = engine.flush() {
        phase.fail(format!("churn: flush: {e}"));
    }
    match (engine.scenario(), engine.solution()) {
        (Some(live), Some(sol)) if is_feasible(&live, &sol) => {}
        (Some(_), Some(_)) => phase.fail("churn: flushed placement is not feasible".into()),
        _ => phase.fail("churn: no placement after flush".into()),
    }
}

pub fn run(opts: &Opts) -> Phase {
    let mut phase = Phase::default();
    let n_events = WARMUP_EVENTS + (OFFERED_RATE * opts.seconds.as_secs_f64()).ceil() as usize + 1;
    let mut setups = Vec::new();
    let mut prepared = None;
    for _ in 0..opts.setup_repeats.max(1) {
        match setup(opts.seed, n_events) {
            Ok((engine, events, took)) => {
                setups.push(took.as_secs_f64());
                prepared = Some((engine, events));
            }
            Err(e) => {
                phase.attempted += 1;
                phase.fail(format!("churn set-up: {e}"));
                return phase;
            }
        }
    }
    let Some((mut engine, events)) = prepared else {
        return phase;
    };
    phase.set("setup_s", median(&setups));
    phase.note(format!(
        "open loop, 1 thread; offered rate {OFFERED_RATE}/s; per-event budget {EVENT_BUDGET:?}; \
         churn threads={CHURN_THREADS}, audit every event; {} hotspots x {PER_HOTSPOT} SS, \
         N_max={NMAX:e}",
        GRID * GRID
    ));

    let measured = &events[WARMUP_EVENTS..];
    let first_record = engine.report().events.len();
    let repairs_before = engine.report().global_repairs;
    let layers = Layers::default();
    let wall_started = Instant::now();
    let (tally, busy_window) = drive(
        &mut engine,
        measured,
        opts.seconds,
        opts.traced.then_some(&layers),
        &mut phase,
    );
    let wall_ms = ms(wall_started.elapsed());
    let records = &engine.report().events[first_record..];
    let rung = |r: RepairRung| records.iter().filter(|e| e.rung == r).count() as f64;
    let dirty: f64 =
        records.iter().map(|e| e.dirty_zones as f64).sum::<f64>() / records.len().max(1) as f64;
    let global_repairs = (engine.report().global_repairs - repairs_before) as f64;
    let greedy = rung(RepairRung::Greedy);
    let deferred = rung(RepairRung::Deferred);
    check(&mut engine, &mut phase);

    phase.set(
        "ops_per_s",
        tally.completed as f64 / busy_window.as_secs_f64(),
    );
    phase.set("relays_mean", tally.relays.mean());
    phase.note(format!(
        "{} events; generator lateness while idle: p50 {:.4} ms, p99 {:.4} ms, n={}",
        phase.attempted,
        tally.gen_lag_ms.percentile(50.0),
        tally.gen_lag_ms.percentile(99.0),
        tally.gen_lag_ms.len()
    ));
    if opts.traced {
        let events = tally.service_ms.len().max(1) as f64;
        phase.set(
            "core.churn_service_p50_ms",
            tally.service_ms.percentile(50.0),
        );
        phase.set(
            "core.churn_service_p99_ms",
            tally.service_ms.percentile(99.0),
        );
        phase.set("core.churn_dirty_zones", dirty);
        phase.set("core.churn_greedy", greedy);
        phase.set("core.churn_deferred", deferred);
        phase.set("core.churn_global_repairs", global_repairs);
        phase.set("radio.audit_ms", layers.total_ms("radio.audit") / events);
        phase.set("radio.delta_ops", tally.delta_ops.mean());
        phase.set("core.zone_ms", layers.total_ms("core.zone") / events);
        phase.set("core.zones", tally.zones.mean());
        phase.set("core.zone_size_max", tally.zone_size_max.mean());
        phase.set(
            "load.queue_wait_p99_ms",
            tally.queue_wait_ms.percentile(99.0),
        );
        phase.set("load.gen_lag_p99_ms", tally.gen_lag_ms.percentile(99.0));
        phase.set("load.latency_p99_ms", tally.latency_ms.percentile(99.0));
        phase.set("trace.uncovered_frac", 1.0 - layers.covered_ms() / wall_ms);
    } else {
        let lat = &tally.latency_ms;
        phase.set(
            "latency_p50_ms",
            lat.windowed_percentile(50.0, LATENCY_WINDOWS),
        );
        phase.set(
            "latency_p90_ms",
            lat.windowed_percentile(90.0, LATENCY_WINDOWS),
        );
        phase.set(
            "latency_p99_ms",
            lat.windowed_percentile(99.0, LATENCY_WINDOWS),
        );
        phase.note(format!(
            "due->done latency over all {} events: p50 {:.4} ms, p90 {:.4} ms, p99 {:.4} ms \
             (recorded: median of {LATENCY_WINDOWS} windows)",
            lat.len(),
            lat.percentile(50.0),
            lat.percentile(90.0),
            lat.percentile(99.0)
        ));
        phase.note(format!(
            "service time p50 {:.4} ms, p99 {:.4} ms; ladder: {greedy} greedy, {deferred} deferred, \
             {global_repairs} global repairs",
            tally.service_ms.percentile(50.0),
            tally.service_ms.percentile(99.0),
        ));
    }
    phase
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nearest_hotspot(p: Point) -> (usize, f64) {
        hotspot_centers()
            .iter()
            .enumerate()
            .map(|(h, c)| (h, c.distance(p)))
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .expect("the grid is not empty")
    }

    /// Replays a trace against a mirror of the engine's slot table,
    /// returning the live count after every event.
    fn replay(events: &[ChurnEvent], mut on_move: impl FnMut(Point, Point)) -> Vec<usize> {
        let sc = deployment(11);
        let mut pos: Vec<Option<Point>> = sc.subscribers.iter().map(|s| Some(s.position)).collect();
        let mut free = Vec::new();
        let mut live = pos.len();
        let mut counts = Vec::new();
        for ev in events {
            match *ev {
                ChurnEvent::SsMove { subscriber, to } => {
                    let from = pos[subscriber].expect("moves name live slots");
                    on_move(from, to);
                    pos[subscriber] = Some(to);
                }
                ChurnEvent::SsArrive { position, .. } => {
                    let slot = free.pop().unwrap_or_else(|| {
                        pos.push(None);
                        pos.len() - 1
                    });
                    pos[slot] = Some(position);
                    live += 1;
                }
                ChurnEvent::SsDepart { subscriber } => {
                    assert!(
                        pos[subscriber].take().is_some(),
                        "departures name live slots"
                    );
                    free.push(subscriber);
                    live -= 1;
                }
            }
            counts.push(live);
        }
        counts
    }

    #[test]
    fn trace_follows_the_seed() {
        assert_eq!(trace(5, 500), trace(5, 500));
        assert_ne!(trace(5, 500), trace(6, 500));
        // Longer traces extend shorter ones.
        assert_eq!(trace(5, 800)[..500], trace(5, 500)[..]);
        assert_eq!(deployment(5), deployment(5));
        assert_ne!(deployment(5), deployment(6));
    }

    #[test]
    fn moves_stay_inside_their_hotspot() {
        let events = trace(11, 4000);
        let mut moves = 0;
        replay(&events, |from, to| {
            let (h_from, _) = nearest_hotspot(from);
            let (h_to, d) = nearest_hotspot(to);
            assert_eq!(h_from, h_to, "a move left its hotspot");
            assert!(d <= RADIUS + 1e-9, "a move landed {d} m from the centre");
            moves += 1;
        });
        let share = moves as f64 / events.len() as f64;
        assert!((0.75..0.85).contains(&share), "move share {share}");
    }

    #[test]
    fn population_stays_in_its_band() {
        let start = GRID * GRID * PER_HOTSPOT;
        let events = trace(11, 20_000);
        let counts = replay(&events, |_, _| {});
        for live in counts {
            assert!(
                live + POP_BAND >= start && live <= start + POP_BAND,
                "live population {live} left the band around {start}"
            );
        }
        let departures = events
            .iter()
            .filter(|e| matches!(e, ChurnEvent::SsDepart { .. }))
            .count() as f64;
        let share = departures / events.len() as f64;
        assert!((0.07..0.13).contains(&share), "departure share {share}");
    }

    #[test]
    fn one_zone_per_hotspot() {
        for seed in [1, 2, 3] {
            let sc = deployment(seed);
            assert!((sc.params.dmax() - 100.0).abs() < 1e-6);
            let zones = zone_partition(&sc);
            assert_eq!(zones.len(), GRID * GRID);
            for zone in zones {
                let hotspots: Vec<usize> = zone
                    .iter()
                    .map(|&j| nearest_hotspot(sc.subscribers[j].position).0)
                    .collect();
                assert!(hotspots.iter().all(|&h| h == hotspots[0]));
                assert_eq!(zone.len(), PER_HOTSPOT);
            }
        }
    }
}
