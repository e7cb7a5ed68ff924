//! Reference vs incremental SAMC Step 4 (`BENCH_hitting.json`).
//!
//! Times SAMC Step 4 on the instances the paper's Fig. 4/5 fields give:
//! seeded uniform scenarios at every plotted user count (500×500 with
//! 5–50 SS, 800×800 with 20–70 SS), 4 base stations, −15 dB, distance
//! requirements in [30, 40] and N_max 1e-9. At that N_max each field is
//! one zone, and the zone's `feasible_circles()` is the instance. Step 4
//! is three layers, each timed against its referee in
//! [`sag_hitting::reference`]:
//!
//! * the instance build: the brute-force candidates and hit lists
//!   (`reference_build_ms`) vs [`DiskInstance::new`] (`build_ms`);
//! * the greedy start: the recount greedy (`reference_greedy_ms`) vs the
//!   incremental-gain one (`greedy_ms`);
//! * the default `LocalSearchConfig` search, greedy start included: the
//!   full-recompute search (`reference_ms`) vs
//!   [`sag_hitting::local_search`] (`incremental_ms`).
//!
//! Each pair must agree on every instance before anything is timed
//! (candidate bits, hit lists, greedy picks, hitting-set indices); then
//! all six arms of all 16 sizes are timed in interleaved rounds. The
//! median per-round ratio of the summed reference to the summed
//! incremental search times is gated at [`MIN_SPEEDUP`]; the build and
//! greedy ratios are recorded, not gated.
//!
//! Usage: `bench_hitting [--out PATH]`

use std::time::Duration;

use sag_bench::harness::{calibrated, interleaved};
use sag_bench::{Artefact, Bound, Fields};
use sag_core::zone::{zone_partition, zone_scenario};
use sag_geom::{Circle, Point};
use sag_hitting::greedy::greedy_hitting_set_indices;
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
    /// Each instance's disks, as SAMC hands them to Step 4.
    disks: Vec<Vec<Circle>>,
    instances: Vec<DiskInstance>,
    /// The brute-force build of each instance, for the recount greedy.
    references: Vec<reference::Instance>,
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
            let disks: Vec<Vec<Circle>> = (0..SEEDS)
                .flat_map(|s| {
                    let sc = spec.build(BASE_SEED + 100 * k as u64 + s);
                    zone_partition(&sc)
                        .iter()
                        .map(|zone| zone_scenario(&sc, zone).0.feasible_circles())
                        .collect::<Vec<_>>()
                })
                .collect();
            SizeSet {
                field,
                users,
                instances: disks.iter().cloned().map(DiskInstance::new).collect(),
                references: disks.iter().map(|d| reference::instance(d)).collect(),
                disks,
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

/// Timed arms per size; arm `a` of size `s` is arm `ARMS * s + a` of
/// the interleaved measurement.
const ARMS: usize = 6;
const REFERENCE: usize = 0;
const INCREMENTAL: usize = 1;
const REFERENCE_BUILD: usize = 2;
const BUILD: usize = 3;
const REFERENCE_GREEDY: usize = 4;
const GREEDY: usize = 5;

/// Runs arm `arm` of `set` once; returns a size so the work stays.
fn run_arm(set: &SizeSet, arm: usize) -> usize {
    match arm {
        REFERENCE => solve_all(set, reference::local_search_with),
        INCREMENTAL => solve_all(set, local_search_with),
        REFERENCE_BUILD => set
            .disks
            .iter()
            .map(|d| reference::instance(d).candidates.len())
            .sum(),
        BUILD => set
            .disks
            .iter()
            .map(|d| DiskInstance::new(d.clone()).candidates().len())
            .sum(),
        REFERENCE_GREEDY => set
            .references
            .iter()
            .zip(&set.disks)
            .map(|(r, d)| reference::greedy_indices(&r.hits, d.len()).len())
            .sum(),
        GREEDY => set
            .instances
            .iter()
            .map(|inst| greedy_hitting_set_indices(inst).len())
            .sum(),
        _ => unreachable!("{ARMS} arms per size"),
    }
}

fn bits(points: &[Point]) -> Vec<(u64, u64)> {
    points
        .iter()
        .map(|p| (p.x.to_bits(), p.y.to_bits()))
        .collect()
}

/// Asserts that every instance of `set` gets the same answers from the
/// referees and the incremental code.
fn assert_parity(set: &SizeSet) {
    let what = format!("{}×{} field with {} SS", set.field, set.field, set.users);
    for ((inst, expected), disks) in set.instances.iter().zip(&set.references).zip(&set.disks) {
        assert_eq!(
            bits(inst.candidates()),
            bits(&expected.candidates),
            "candidates diverge on a {what}"
        );
        assert!(
            (0..expected.hits.len()).all(|c| inst.hit_by(c) == expected.hits[c]),
            "hit lists diverge on a {what}"
        );
        assert_eq!(
            greedy_hitting_set_indices(inst),
            reference::greedy_indices(&expected.hits, disks.len()),
            "greedy picks diverge on a {what}"
        );
        let config = LocalSearchConfig::default();
        assert_eq!(
            local_search_with(inst, config),
            reference::local_search_with(inst, config),
            "incremental and reference local search diverge on a {what}"
        );
    }
}

fn main() {
    let mut out = Artefact::from_args("hitting_local_search", "BENCH_hitting.json");
    let sizes = build_sizes();

    // Parity gate before any timing: a fast wrong answer is worthless.
    sizes.iter().for_each(assert_parity);

    let mut arms: Vec<_> = sizes
        .iter()
        .flat_map(|set| {
            (0..ARMS).map(move |arm| calibrated(ROUND_TARGET, move || run_arm(set, arm)))
        })
        .collect();
    let mut arms: Vec<&mut dyn FnMut() -> u128> = arms
        .iter_mut()
        .map(|arm| arm as &mut dyn FnMut() -> u128)
        .collect();
    let t = interleaved(ROUNDS, &mut arms);

    let ms = |arm: usize| t.median_ns(arm) as f64 / 1e6;
    let of = |s: usize, arm: usize| ARMS * s + arm;
    let rows: Vec<Fields> = sizes
        .iter()
        .enumerate()
        .map(|(s, set)| {
            Fields::default()
                .with("field", set.field)
                .with("users", set.users)
                .with("instances", set.instances.len())
                .with("points", solve_all(set, local_search_with))
                .with("reference_ms", ms(of(s, REFERENCE)))
                .with("incremental_ms", ms(of(s, INCREMENTAL)))
                .with(
                    "speedup",
                    t.ratio_median(&[of(s, REFERENCE)], &[of(s, INCREMENTAL)]),
                )
                .with("reference_build_ms", ms(of(s, REFERENCE_BUILD)))
                .with("build_ms", ms(of(s, BUILD)))
                .with("reference_greedy_ms", ms(of(s, REFERENCE_GREEDY)))
                .with("greedy_ms", ms(of(s, GREEDY)))
        })
        .collect();
    let all = |arm: usize| -> Vec<usize> { (0..sizes.len()).map(|s| of(s, arm)).collect() };
    let total_ms = |arm: usize| all(arm).iter().map(|&a| ms(a)).sum::<f64>();
    let speedup = t.ratio_median(&all(REFERENCE), &all(INCREMENTAL));
    let default = LocalSearchConfig::default();
    out.field("swap_size", default.swap_size)
        .field("max_rounds", default.max_rounds)
        .field("seeds_per_size", SEEDS)
        .field("sizes", rows)
        .field("reference_ms", total_ms(REFERENCE))
        .field("incremental_ms", total_ms(INCREMENTAL))
        .field("speedup", speedup)
        .field("reference_build_ms", total_ms(REFERENCE_BUILD))
        .field("build_ms", total_ms(BUILD))
        .field(
            "build_speedup",
            t.ratio_median(&all(REFERENCE_BUILD), &all(BUILD)),
        )
        .field("reference_greedy_ms", total_ms(REFERENCE_GREEDY))
        .field("greedy_ms", total_ms(GREEDY))
        .field(
            "greedy_speedup",
            t.ratio_median(&all(REFERENCE_GREEDY), &all(GREEDY)),
        )
        .field("parity", "identical")
        .gate("speedup", speedup, Bound::Floor(MIN_SPEEDUP), None);
    out.finish();
}
