//! Reference vs incremental local-search hitting set (`BENCH_hitting.json`).
//!
//! Times SAMC Step 4 on the instances the paper's Fig. 4/5 fields give:
//! seeded uniform scenarios at every plotted user count (500×500 with
//! 5–50 SS, 800×800 with 20–70 SS), 4 base stations, −15 dB, distance
//! requirements in [30, 40] and N_max 1e-9. At that N_max each field is
//! one zone, and the zone's `feasible_circles()` is the instance. Each
//! instance is solved with the default `LocalSearchConfig` twice: by
//! [`sag_hitting::reference`] (the pre-incremental hot path, which
//! re-derives coverage over the whole solution for every removal set) and by
//! [`sag_hitting::local_search`]. The two must return identical
//! candidate indices on every instance before anything is timed; then
//! all 32 arms are timed in interleaved rounds, and the median
//! per-round ratio of the summed reference to the summed incremental
//! times is gated at [`MIN_SPEEDUP`].
//!
//! Usage: `bench_hitting [--out PATH]`

use std::time::Duration;

use sag_bench::harness::{calibrated, interleaved};
use sag_bench::{Artefact, Bound, Fields};
use sag_core::zone::{zone_partition, zone_scenario};
use sag_hitting::local_search::{local_search_with, LocalSearchConfig};
use sag_hitting::{reference, DiskInstance};
use sag_sim::ScenarioSpec;

/// Fig. 4 user counts on the 500×500 field, then Fig. 5's on 800×800.
const SIZES: [(f64, usize); 16] = [
    (500.0, 5),
    (500.0, 10),
    (500.0, 15),
    (500.0, 20),
    (500.0, 25),
    (500.0, 30),
    (500.0, 35),
    (500.0, 40),
    (500.0, 45),
    (500.0, 50),
    (800.0, 20),
    (800.0, 30),
    (800.0, 40),
    (800.0, 50),
    (800.0, 60),
    (800.0, 70),
];
/// Scenarios per size.
const SEEDS: u64 = 4;
const BASE_SEED: u64 = 1300;
/// Interleaved measurement rounds.
const ROUNDS: usize = 7;
/// Least wall-clock time each arm spends per round.
const ROUND_TARGET: Duration = Duration::from_millis(20);
/// Gate: the incremental search is at least this many times faster in
/// aggregate.
const MIN_SPEEDUP: f64 = 10.0;

/// The instances of one size: every zone of every seeded scenario.
struct SizeSet {
    field: f64,
    users: usize,
    instances: Vec<DiskInstance>,
}

fn build_sizes() -> Vec<SizeSet> {
    SIZES
        .iter()
        .enumerate()
        .map(|(k, &(field, users))| {
            let spec = ScenarioSpec {
                field_size: field,
                n_subscribers: users,
                n_base_stations: 4,
                snr_db: -15.0,
                dist_range: (30.0, 40.0),
                pmax: 1.0,
                nmax: 1e-9,
                ..ScenarioSpec::default()
            };
            let instances = (0..SEEDS)
                .flat_map(|s| {
                    let sc = spec.build(BASE_SEED + 100 * k as u64 + s);
                    zone_partition(&sc)
                        .iter()
                        .map(|zone| {
                            DiskInstance::new(zone_scenario(&sc, zone).0.feasible_circles())
                        })
                        .collect::<Vec<_>>()
                })
                .collect();
            SizeSet {
                field,
                users,
                instances,
            }
        })
        .collect()
}

/// A local-search entry point: the reference or the incremental one.
type Solver = fn(&DiskInstance, LocalSearchConfig) -> Vec<usize>;

/// Solves every instance of a size; returns the total hitting-set size
/// so the work cannot be optimised away.
fn solve_all(set: &SizeSet, solve: Solver) -> usize {
    set.instances
        .iter()
        .map(|inst| solve(inst, LocalSearchConfig::default()).len())
        .sum()
}

fn main() {
    let mut out = Artefact::from_args("hitting_local_search", "BENCH_hitting.json");
    let sizes = build_sizes();

    // Parity gate before any timing: a fast wrong answer is worthless.
    for set in &sizes {
        for inst in &set.instances {
            let config = LocalSearchConfig::default();
            assert_eq!(
                local_search_with(inst, config),
                reference::local_search_with(inst, config),
                "incremental and reference local search diverge on a {}×{} field with {} SS",
                set.field,
                set.users,
                inst.len()
            );
        }
    }

    // Arms 2s and 2s + 1 are size s's reference and incremental solves.
    let solvers: [Solver; 2] = [reference::local_search_with, local_search_with];
    let mut arms: Vec<_> = sizes
        .iter()
        .flat_map(|set| {
            solvers.map(|solve| calibrated(ROUND_TARGET, move || solve_all(set, solve)))
        })
        .collect();
    let mut arms: Vec<&mut dyn FnMut() -> u128> = arms
        .iter_mut()
        .map(|arm| arm as &mut dyn FnMut() -> u128)
        .collect();
    let t = interleaved(ROUNDS, &mut arms);

    let ms = |arm: usize| t.median_ns(arm) as f64 / 1e6;
    let rows: Vec<Fields> = sizes
        .iter()
        .enumerate()
        .map(|(s, set)| {
            Fields::default()
                .with("field", set.field)
                .with("users", set.users)
                .with("instances", set.instances.len())
                .with("points", solve_all(set, local_search_with))
                .with("reference_ms", ms(2 * s))
                .with("incremental_ms", ms(2 * s + 1))
                .with("speedup", t.ratio_median(&[2 * s], &[2 * s + 1]))
        })
        .collect();
    let reference_arms: Vec<usize> = (0..sizes.len()).map(|s| 2 * s).collect();
    let incremental_arms: Vec<usize> = (0..sizes.len()).map(|s| 2 * s + 1).collect();
    let speedup = t.ratio_median(&reference_arms, &incremental_arms);
    let default = LocalSearchConfig::default();
    out.field("swap_size", default.swap_size)
        .field("max_rounds", default.max_rounds)
        .field("seeds_per_size", SEEDS)
        .field("sizes", rows)
        .field(
            "reference_ms",
            reference_arms.iter().map(|&a| ms(a)).sum::<f64>(),
        )
        .field(
            "incremental_ms",
            incremental_arms.iter().map(|&a| ms(a)).sum::<f64>(),
        )
        .field("speedup", speedup)
        .field("parity", "identical")
        .gate("speedup", speedup, Bound::Floor(MIN_SPEEDUP), None);
    out.finish();
}
