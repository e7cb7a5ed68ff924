//! End-to-end benchmark of the SAG workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload plan_paper|sweep_fig3|churn_hotspots --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the
//! workload untraced and then traced, and prints the per-layer metrics.
//! The last line of standard output is the JSON result. See README.md.

mod churn;
mod measure;
mod plan;
mod report;
mod sweep;

use std::process::ExitCode;
use std::time::Duration;

use report::{Phase, END_TO_END, PER_LAYER};

/// Every environment variable the library crates read. They are read
/// once per process and would silently change what is measured.
const LIBRARY_ENV: [&str; 10] = [
    "SAG_SOLVER",
    "SAG_THREADS",
    "SAG_SWEEP_CACHE",
    "SAG_SWEEP_LANES",
    "SAG_LP_ORACLE",
    "SAG_LP_DEBUG",
    "SAG_SNR_ORACLE",
    "SAG_OBS",
    "SAG_OBS_JSON",
    "SAG_OBS_RING",
];

const USAGE: &str = "usage: sag-perfbench --workload plan_paper|sweep_fig3|churn_hotspots \
                     --seed N --seconds S --trace 0|1";

/// Set-up repetitions in an end-to-end run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;

/// What one phase of a workload is asked to do.
pub struct Opts {
    pub seed: u64,
    pub seconds: Duration,
    pub traced: bool,
    pub setup_repeats: usize,
}

#[derive(Clone, Copy)]
enum Workload {
    PlanPaper,
    SweepFig3,
    ChurnHotspots,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "plan_paper" => Some(Workload::PlanPaper),
            "sweep_fig3" => Some(Workload::SweepFig3),
            "churn_hotspots" => Some(Workload::ChurnHotspots),
            _ => None,
        }
    }

    fn run(self, opts: &Opts) -> Phase {
        match self {
            Workload::PlanPaper => plan::run(opts),
            Workload::SweepFig3 => sweep::run(opts),
            Workload::ChurnHotspots => churn::run(opts),
        }
    }
}

struct Args {
    workload: Workload,
    name: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some((
                    Workload::parse(&value).ok_or_else(|| bad("unknown workload"))?,
                    value.clone(),
                ));
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("not an integer"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("not a number"))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err(bad("must be in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let (workload, name) = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        name,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("sag-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let ambient: Vec<&str> = LIBRARY_ENV
        .into_iter()
        .filter(|v| std::env::var_os(v).is_some())
        .collect();
    if !ambient.is_empty() {
        eprintln!(
            "sag-perfbench: refusing to run with {} set: the library reads it once per \
             process and it would change what is measured",
            ambient.join(", ")
        );
        return ExitCode::from(2);
    }

    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let header = format!(
        "sag-perfbench workload={} seed={} seconds={} trace={} nproc={nproc} \
         threads: run_sag={} sweep={} churn={}",
        args.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        plan::PIPELINE_THREADS,
        sweep::WORKERS,
        churn::CHURN_THREADS,
    );
    let seconds = Duration::from_secs_f64(args.seconds);
    let untraced = args.workload.run(&Opts {
        seed: args.seed,
        seconds,
        traced: false,
        setup_repeats: if args.trace { 1 } else { SETUP_REPEATS },
    });
    let correct = if args.trace {
        let mut traced = args.workload.run(&Opts {
            seed: args.seed,
            seconds,
            traced: true,
            setup_repeats: 1,
        });
        traced.set(
            "trace_overhead",
            traced.get("ops_per_s") / untraced.get("ops_per_s"),
        );
        traced.attempted += untraced.attempted;
        traced.failed += untraced.failed;
        traced.problems.extend(untraced.problems);
        report::print(&header, &traced, &PER_LAYER)
    } else {
        let mut phase = untraced;
        phase.set("peak_rss_mb", measure::peak_rss_mb());
        phase.set(
            "fail_frac",
            phase.failed as f64 / phase.attempted.max(1) as f64,
        );
        report::print(&header, &phase, &END_TO_END)
    };
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
