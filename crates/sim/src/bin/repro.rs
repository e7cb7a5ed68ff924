//! `repro` — regenerates every table and figure of the paper.
//!
//! ```text
//! cargo run -p sag-sim --release --bin repro -- all --fast
//! cargo run -p sag-sim --release --bin repro -- fig3a fig4b table2
//! cargo run -p sag-sim --release --bin repro -- fig6 --csv out/
//! ```
//!
//! Flags: `--fast` (3 runs instead of 10), `--runs N`, `--threads N`
//! (sweep workers), `--csv DIR` (also write each table as CSV into
//! DIR).

use std::io::Write as _;

use sag_sim::experiments::{
    alpha_sweep, backends, channels, churn, fig3, fig45, fig6, fig7, ledger, mbmc_weights, scaling,
    snr_stress, table2,
};
use sag_sim::runner::{collect_stage_metrics, SweepConfig};
use sag_sim::table::Table;

const EXPERIMENTS: &[&str] = &[
    "fig3a",
    "fig3b",
    "fig3c",
    "fig3d",
    "fig3e",
    "fig4a",
    "fig4b",
    "fig4c",
    "fig4d",
    "fig5a",
    "fig5b",
    "fig5c",
    "fig5d",
    "fig6",
    "fig7a",
    "fig7b",
    "fig7c",
    "table2",
    "snr_stress",
    "alpha_sweep",
    "scaling",
    "mbmc_weights",
    "channels",
    "ledger",
    "churn",
    "churn_chaos",
    "backends",
];

fn main() {
    let obs = sag_obs::init_from_env();
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("trace") {
        run_trace(&args[1..]);
        return;
    }
    let mut config = SweepConfig::default();
    let mut csv_dir: Option<String> = None;
    let mut report_path: Option<String> = None;
    let mut picked: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--fast" => config = SweepConfig { runs: 3, ..config },
            "--runs" => {
                i += 1;
                config.runs = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("--runs needs a positive integer"));
            }
            "--threads" => {
                i += 1;
                config.threads = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("--threads needs a positive integer"));
            }
            "--csv" => {
                i += 1;
                csv_dir = Some(
                    args.get(i)
                        .cloned()
                        .unwrap_or_else(|| die("--csv needs a directory")),
                );
            }
            "--report" => {
                i += 1;
                report_path = Some(
                    args.get(i)
                        .cloned()
                        .unwrap_or_else(|| die("--report needs a file")),
                );
            }
            "--help" | "-h" => {
                usage();
                return;
            }
            name if EXPERIMENTS.contains(&name) || name == "all" => picked.push(name.to_string()),
            other => die(&format!("unknown argument '{other}' (try --help)")),
        }
        i += 1;
    }
    let config = config.validated().unwrap_or_else(|e| die(&e.to_string()));
    if picked.is_empty() {
        usage();
        return;
    }
    if picked.iter().any(|p| p == "all") {
        picked = EXPERIMENTS.iter().map(|s| s.to_string()).collect();
    }

    let mut report = report_path.as_ref().map(|_| {
        format!(
            "# SAG reproduction report\n\n{} runs per point, base seed {}.\n\n",
            config.runs, config.base_seed
        )
    });
    for name in &picked {
        run_experiment(name, config, csv_dir.as_deref(), report.as_mut());
    }
    if let (Some(path), Some(contents)) = (report_path, report) {
        write_file(&path, &contents);
    }
    if let Some(session) = obs {
        let dropped = session.sink.dropped_events();
        if dropped > 0 {
            eprintln!("[repro] obs sink dropped {dropped} event(s)");
        }
    }
}

/// `repro trace FILE` — analyze one obs JSONL stream;
/// `repro trace OLD NEW` — additionally diff the two runs.
fn run_trace(args: &[String]) {
    let files: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();
    match files.as_slice() {
        [file] => {
            let report = sag_sim::trace::analyze_file(file)
                .unwrap_or_else(|e| die(&format!("cannot read {file}: {e}")));
            print!("{}", report.render());
        }
        [old_file, new_file] => {
            let old = sag_sim::trace::analyze_file(old_file)
                .unwrap_or_else(|e| die(&format!("cannot read {old_file}: {e}")));
            let new = sag_sim::trace::analyze_file(new_file)
                .unwrap_or_else(|e| die(&format!("cannot read {new_file}: {e}")));
            print!("{}", old.render());
            println!();
            print!("{}", new.render());
            println!();
            print!("{}", sag_sim::trace::diff(&old, &new));
        }
        _ => die("trace needs one JSONL file (report) or two (diff)"),
    }
}

fn run_experiment(
    name: &str,
    config: SweepConfig,
    csv_dir: Option<&str>,
    report: Option<&mut String>,
) {
    eprintln!("[repro] running {name} ({} runs/point)…", config.runs);
    let started = std::time::Instant::now();
    // Install a process-wide collector per experiment so pipeline stages
    // on sweep worker threads land in one aggregated time/work table.
    let ((), stages) = collect_stage_metrics(|| match name {
        "fig6" => {
            for dump in fig6::fig6(7) {
                let field = fig6::fig6_scenario(7).field;
                println!("{}", sag_sim::plot::render_topology(&dump, field));
                println!("{}", dump.to_text());
                if let Some(dir) = csv_dir {
                    let path = format!("{dir}/fig6_{}.csv", dump.name.replace('+', "_"));
                    write_file(&path, &dump.to_csv());
                }
            }
        }
        _ => {
            let table: Table = match name {
                "fig3a" => fig3::fig3a(config),
                "fig3b" => fig3::fig3b(config),
                "fig3c" => fig3::fig3c(config),
                "fig3d" => fig3::fig3d(config),
                "fig3e" => fig3::fig3e(config),
                "fig4a" => fig45::power_pro(500.0, config),
                "fig4b" => fig45::running_times(500.0, config),
                "fig4c" => fig45::connectivity(500.0, config),
                "fig4d" => fig45::power_ucpo(500.0, config),
                "fig5a" => fig45::power_pro(800.0, config),
                "fig5b" => fig45::running_times(800.0, config),
                "fig5c" => fig45::connectivity(800.0, config),
                "fig5d" => fig45::power_ucpo(800.0, config),
                "fig7a" => fig7::fig7(300.0, config),
                "fig7b" => fig7::fig7(500.0, config),
                "fig7c" => fig7::fig7(800.0, config),
                "table2" => table2::table2(config),
                "snr_stress" => snr_stress::snr_stress(config),
                "alpha_sweep" => alpha_sweep::alpha_sweep(config),
                "scaling" => scaling::scaling(config),
                "mbmc_weights" => mbmc_weights::mbmc_weights(config),
                "channels" => channels::channels(config),
                "ledger" => ledger::ledger(config),
                "churn" => churn::churn(config),
                "churn_chaos" => churn::churn_chaos(config),
                "backends" => backends::backends(config),
                _ => unreachable!("filtered by EXPERIMENTS"),
            };
            println!("{table}");
            if let Some(dir) = csv_dir {
                write_file(&format!("{dir}/{name}.csv"), &table.to_csv());
            }
            if let Some(report) = report {
                report.push_str(&table.to_markdown());
                report.push('\n');
            }
        }
    });
    // Stage tables go to stderr so the stdout tables/CSVs stay clean.
    if !stages.is_empty() {
        eprintln!("[repro] {name} stage summary:\n{stages}");
    }
    eprintln!(
        "[repro] {name} done in {:.1}s",
        started.elapsed().as_secs_f64()
    );
}

fn write_file(path: &str, contents: &str) {
    if let Some(parent) = std::path::Path::new(path).parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    match std::fs::File::create(path) {
        Ok(mut f) => {
            if let Err(e) = f.write_all(contents.as_bytes()) {
                eprintln!("[repro] failed to write {path}: {e}");
            } else {
                eprintln!("[repro] wrote {path}");
            }
        }
        Err(e) => eprintln!("[repro] failed to create {path}: {e}"),
    }
}

fn usage() {
    println!(
        "usage: repro [--fast] [--runs N] [--threads N] [--csv DIR] [--report FILE] <experiment>…"
    );
    println!("       repro trace FILE.jsonl [OLD.jsonl NEW.jsonl for a diff]");
    println!("experiments: all {}", EXPERIMENTS.join(" "));
}

fn die(msg: &str) -> ! {
    eprintln!("repro: {msg}");
    std::process::exit(2);
}
