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
//! per-size and aggregate medians and their ratio are written as
//! hand-rolled JSON, and the CI gate asserts the aggregate speedup floor.
//!
//! Usage: `bench_hitting [--out PATH] [--min-speedup X]`

use std::time::Duration;

use sag_bench::harness::Bench;
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

/// Solves every instance of a size; returns the total hitting-set size
/// so the work cannot be optimised away.
fn solve_all(set: &SizeSet, solve: fn(&DiskInstance, LocalSearchConfig) -> Vec<usize>) -> usize {
    set.instances
        .iter()
        .map(|inst| solve(inst, LocalSearchConfig::default()).len())
        .sum()
}

/// One timed size: medians in milliseconds per pass over its instances.
struct Row {
    field: f64,
    users: usize,
    instances: usize,
    points: usize,
    reference_ms: f64,
    incremental_ms: f64,
}

fn emit_json(
    path: &str,
    rows: &[Row],
    (reference_ms, incremental_ms): (f64, f64),
    speedup: f64,
    gate: &str,
) -> std::io::Result<()> {
    let sizes: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"field\": {}, \"users\": {}, \"instances\": {}, \"points\": {}, \"reference_ms\": {:.4}, \"incremental_ms\": {:.4}, \"speedup\": {:.2}}}",
                r.field,
                r.users,
                r.instances,
                r.points,
                r.reference_ms,
                r.incremental_ms,
                r.reference_ms / r.incremental_ms.max(1e-9),
            )
        })
        .collect();
    let default = LocalSearchConfig::default();
    let body = format!(
        "{{\n  \"benchmark\": \"hitting_local_search\",\n  \"swap_size\": {},\n  \"max_rounds\": {},\n  \"seeds_per_size\": {SEEDS},\n  \"hardware_threads\": {},\n  \"sizes\": [\n{}\n  ],\n  \"reference_ms\": {reference_ms:.3},\n  \"incremental_ms\": {incremental_ms:.3},\n  \"speedup\": {speedup:.2},\n  \"parity\": \"identical\",\n  \"gate\": \"{gate}\"\n}}\n",
        default.swap_size,
        default.max_rounds,
        sag_bench::hardware_threads(),
        sizes.join(",\n"),
    );
    std::fs::write(path, body)
}

fn main() {
    let mut out_path = String::from("BENCH_hitting.json");
    let mut min_speedup: Option<f64> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => out_path = args.next().expect("--out needs a path"),
            "--min-speedup" => {
                let v = args.next().expect("--min-speedup needs a number");
                min_speedup = Some(v.parse().expect("--min-speedup parses as f64"));
            }
            other => panic!(
                "unknown argument {other}; usage: bench_hitting [--out PATH] [--min-speedup X]"
            ),
        }
    }

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

    let mut bench = Bench::new("hitting")
        .samples(7)
        .sample_target(Duration::from_millis(20));
    let rows: Vec<Row> = sizes
        .iter()
        .map(|set| {
            let label = format!("{}x{}_{}ss", set.field, set.field, set.users);
            let reference_ms = bench
                .run(format!("reference_{label}"), || {
                    solve_all(set, reference::local_search_with)
                })
                .median
                .as_secs_f64()
                * 1e3;
            let incremental_ms = bench
                .run(format!("incremental_{label}"), || {
                    solve_all(set, local_search_with)
                })
                .median
                .as_secs_f64()
                * 1e3;
            Row {
                field: set.field,
                users: set.users,
                instances: set.instances.len(),
                points: solve_all(set, local_search_with),
                reference_ms,
                incremental_ms,
            }
        })
        .collect();
    bench.print();

    let reference_ms: f64 = rows.iter().map(|r| r.reference_ms).sum();
    let incremental_ms: f64 = rows.iter().map(|r| r.incremental_ms).sum();
    let speedup = reference_ms / incremental_ms.max(1e-9);
    let (gate, enforce) =
        sag_bench::resolve_gate(min_speedup.is_some(), "no --min-speedup floor given");
    println!(
        "aggregate: reference {reference_ms:.2} ms, incremental {incremental_ms:.3} ms, speedup {speedup:.2}x [{gate}]"
    );
    emit_json(
        &out_path,
        &rows,
        (reference_ms, incremental_ms),
        speedup,
        &gate,
    )
    .expect("write benchmark JSON");
    println!("wrote {out_path}");

    if enforce {
        let floor = min_speedup.unwrap_or_default();
        assert!(
            speedup >= floor,
            "speedup {speedup:.2}x is below the required {floor:.2}x floor"
        );
    }
}
