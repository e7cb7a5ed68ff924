//! `plan` — deployment planner CLI.
//!
//! Runs the full SAG pipeline on a scenario (random via flags, or loaded
//! from a snapshot written by the `topology_export` example) and prints
//! the deployment, its validation audit, an ASCII topology map and an
//! SNR heatmap.
//!
//! ```text
//! cargo run -p sag-sim --release --bin plan -- --users 20 --field 500 --seed 7
//! cargo run -p sag-sim --release --bin plan -- --load target/fig6/fig6_scenario.bin
//! cargo run -p sag-sim --release --bin plan -- --users 15 --map --heatmap
//! ```

use sag_core::model::Scenario;
use sag_core::resilience;
use sag_core::sag::{run_sag_with, SagPipelineConfig};
use sag_core::validate::validate_report;
use sag_sim::experiments::fig6::TopologyDump;
use sag_sim::gen::{BsLayout, ScenarioSpec};
use sag_sim::heatmap::SnrField;
use sag_sim::plot::render_topology;
use sag_sim::snapshot;

struct Args {
    spec: ScenarioSpec,
    seed: u64,
    load: Option<String>,
    map: bool,
    heatmap: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        spec: ScenarioSpec::default(),
        seed: 7,
        load: None,
        map: true,
        heatmap: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--users" => {
                i += 1;
                args.spec.n_subscribers = value(&argv, i, "--users");
            }
            "--field" => {
                i += 1;
                args.spec.field_size = value(&argv, i, "--field");
            }
            "--bs" => {
                i += 1;
                args.spec.n_base_stations = value(&argv, i, "--bs");
            }
            "--snr" => {
                i += 1;
                args.spec.snr_db = value(&argv, i, "--snr");
            }
            "--seed" => {
                i += 1;
                args.seed = value(&argv, i, "--seed");
            }
            "--corners" => args.spec.bs_layout = BsLayout::Corners,
            "--load" => {
                i += 1;
                args.load = Some(
                    argv.get(i)
                        .cloned()
                        .unwrap_or_else(|| die("--load needs a path")),
                );
            }
            "--map" => args.map = true,
            "--no-map" => args.map = false,
            "--heatmap" => args.heatmap = true,
            "--help" | "-h" => {
                println!(
                    "usage: plan [--users N] [--field F] [--bs N] [--snr DB] [--seed S] \
                     [--corners] [--load FILE] [--map|--no-map] [--heatmap]"
                );
                println!(
                    "env: SAG_THREADS=N  zone-parallel workers for the solve \
                     (deterministic: any N matches N=1 byte for byte)"
                );
                std::process::exit(0);
            }
            other => die(&format!("unknown argument '{other}' (try --help)")),
        }
        i += 1;
    }
    args
}

/// The value of the flag `what` at `argv[i]`, parsed as a `T` (a
/// count or seed must be a non-negative integer, so `2.9` and `-1` are
/// usage errors, not silently truncated).
fn value<T: std::str::FromStr>(argv: &[String], i: usize, what: &str) -> T {
    argv.get(i)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| die(&format!("{what} needs a {}", std::any::type_name::<T>())))
}

/// Zone-parallel workers for the solve: `SAG_THREADS` when set and
/// parsable (`0` means every hardware thread), else 1.
fn env_threads() -> usize {
    std::env::var("SAG_THREADS")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(1)
}

fn main() {
    let _obs = sag_obs::init_from_env();
    let args = parse_args();
    if args.load.is_none() {
        if args.spec.n_subscribers == 0 {
            die("--users must be at least 1");
        }
        if args.spec.n_base_stations == 0 {
            die("--bs must be at least 1");
        }
        if !(args.spec.field_size.is_finite() && args.spec.field_size > 0.0) {
            die("--field must be a positive number");
        }
        if !args.spec.snr_db.is_finite() {
            die("--snr must be a finite number");
        }
    }
    let scenario: Scenario = match &args.load {
        Some(path) => {
            let bytes =
                std::fs::read(path).unwrap_or_else(|e| die(&format!("cannot read {path}: {e}")));
            snapshot::decode(bytes.as_slice())
                .unwrap_or_else(|e| die(&format!("cannot decode {path}: {e}")))
        }
        None => args.spec.build(args.seed),
    };

    println!(
        "scenario: {} subscribers, {} base stations, field {:.0}x{:.0}, beta {}",
        scenario.n_subscribers(),
        scenario.base_stations.len(),
        scenario.field.width(),
        scenario.field.height(),
        scenario.params.link.beta_db(),
    );

    let config = SagPipelineConfig {
        threads: env_threads(),
        ..SagPipelineConfig::default()
    };
    let report =
        run_sag_with(&scenario, config).unwrap_or_else(|e| die(&format!("pipeline failed: {e}")));
    println!("{report}");
    // Every coverage relay and every chain hop transmitting at Pmax.
    let hops: usize = report.plan.chains.iter().map(|c| c.hops).sum();
    let all_pmax = (report.n_coverage_relays() + hops) as f64 * scenario.params.link.pmax();
    println!(
        "saving vs all-Pmax: {:.3}",
        all_pmax - report.power_summary().total
    );

    let audit = validate_report(&scenario, &report);
    println!("{audit}");
    if !audit.is_clean() {
        die("deployment failed validation");
    }

    let resilience = resilience::analyze(&scenario, &report.coverage, &report.plan);
    println!(
        "resilience: {}/{} relays are single points of failure ({:.0}% fragility)",
        resilience.critical_relays.len(),
        resilience.n_relays,
        100.0 * resilience.fragility
    );

    if args.map {
        let dump = TopologyDump {
            name: "deployment".to_string(),
            subscribers: scenario.subscriber_positions(),
            base_stations: scenario.base_station_positions(),
            coverage_relays: report.coverage.relays.clone(),
            connectivity_relays: report.plan.relays.clone(),
            links: report.plan.links(),
        };
        println!("{}", render_topology(&dump, scenario.field));
    }

    if args.heatmap {
        let cell = scenario.field.width() / 64.0;
        let field = SnrField::sample(
            &scenario,
            &report.coverage.relays,
            &report.lower_power.powers,
            cell,
        );
        let beta = scenario.params.link.beta();
        println!(
            "SNR field under PRO powers ({}% of the field above beta):",
            (100.0 * field.coverage_fraction(beta)).round()
        );
        println!("{}", field.render(-30.0, 30.0));
    }
}

fn die(msg: &str) -> ! {
    eprintln!("plan: {msg}");
    std::process::exit(2);
}
