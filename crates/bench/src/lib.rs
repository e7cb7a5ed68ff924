//! Shared scaffolding for the eight `bench_*` binaries: the one
//! `BENCH_*.json` writer ([`Artefact`]), the clustered multi-zone probe
//! three of them time ([`ClusteredProbe`]), canonical scenario builders,
//! and the wall-clock [`harness`].
//!
//! An [`Artefact`] records the benchmark name, the host's hardware
//! threads, the binary's measured fields and its gates, renders them
//! with [`sag_obs::json`], writes the file, prints it, and only then
//! fails on any enforced gate that missed — so a red gate always leaves
//! the numbers that made it red behind.
//!
//! Everything is zero-dependency and runs offline; `crates/bench/README.md`
//! lists the binaries, their artefacts and their gates.

use sag_core::model::{BaseStation, NetworkParams, Scenario, Subscriber};
use sag_geom::{Point, Rect};
use sag_obs::json::{escape_into, number_into};
use sag_radio::{units::Db, LinkBudget};
use sag_sim::gen::{BsLayout, ScenarioSpec};
use sag_sim::runner::SweepConfig;

pub mod harness;

/// Hardware threads visible to this process (1 when the query fails).
/// Every artefact records this so a gate skipped on a small runner is
/// distinguishable from one skipped by a bug.
pub fn hardware_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The sweep configuration benches use: few runs, deterministic seeds.
pub fn bench_sweep() -> SweepConfig {
    SweepConfig {
        runs: 2,
        base_seed: 77,
        threads: 4,
    }
}

/// A canonical benchmark scenario on the given field with `users`
/// subscribers (paper defaults: −15 dB, 4 BSs).
pub fn bench_scenario(field: f64, users: usize, seed: u64) -> Scenario {
    ScenarioSpec {
        field_size: field,
        n_subscribers: users,
        n_base_stations: 4,
        snr_db: -15.0,
        bs_layout: BsLayout::Uniform,
        ..Default::default()
    }
    .build(seed)
}

/// A clustered multi-zone probe: tight subscriber clusters on a square
/// lattice of pitch 300 with an ignorable-noise level whose `d_max`
/// (10) links subscribers within a cluster but never across clusters,
/// so Zone Partition yields one zone per cluster. Two base stations sit
/// in opposite corners, 50 inside the edge. Deterministic sunflower
/// placement, no RNG.
#[derive(Debug, Clone, Copy)]
pub struct ClusteredProbe {
    /// Side of the square field.
    field: f64,
    /// Clusters per lattice side.
    side: usize,
    /// Leaves out the lattice's centre cluster.
    hollow: bool,
    /// Subscribers per cluster.
    per_cluster: usize,
    /// Radius of each cluster's sunflower.
    radius: f64,
}

impl ClusteredProbe {
    /// `bench_par`'s probe: eight equal-weight zones (a hollow 3×3
    /// lattice) on 800×800, nine subscribers each — the shape the
    /// zone-parallel engine exists for.
    pub const PAR: ClusteredProbe = ClusteredProbe {
        field: 800.0,
        side: 3,
        hollow: true,
        per_cluster: 9,
        radius: 20.0,
    };

    /// `bench_churn`'s probe: a 4×4 lattice on 1200×1200, nine
    /// subscribers each, so an intra-cluster move dirties exactly one
    /// of sixteen zones.
    pub const CHURN: ClusteredProbe = ClusteredProbe {
        field: 1200.0,
        side: 4,
        hollow: false,
        per_cluster: 9,
        radius: 18.0,
    };

    /// `bench_backends`' probe: the churn lattice densified to sixteen
    /// subscribers per cluster, so each zone's IAC candidate set lands
    /// well above [`sag_core::solver::LP_ROUND_MAX_CANDS`], the adaptive
    /// LP-round threshold.
    pub const BACKENDS: ClusteredProbe = ClusteredProbe {
        per_cluster: 16,
        ..ClusteredProbe::CHURN
    };

    /// Cluster centres in row-major order.
    fn centres(&self) -> Vec<(f64, f64)> {
        let mid = (self.side - 1) as f64 / 2.0;
        let coord = |i: usize| (i as f64 - mid) * 300.0;
        (0..self.side)
            .flat_map(|iy| (0..self.side).map(move |ix| (coord(ix), coord(iy))))
            .filter(|&c| !(self.hollow && c == (0.0, 0.0)))
            .collect()
    }

    /// Number of clusters (and so of zones).
    pub fn clusters(&self) -> usize {
        self.centres().len()
    }

    /// Builds the probe scenario.
    pub fn build(&self) -> Scenario {
        let golden = 2.399_963_229_728_653_f64; // radians
        let per = self.per_cluster;
        let mut subs = Vec::new();
        for (ci, (cx, cy)) in self.centres().into_iter().enumerate() {
            for k in 0..per {
                let ang = (ci * per + k) as f64 * golden;
                let r = self.radius * ((k as f64 + 0.5) / per as f64).sqrt();
                subs.push(Subscriber::new(
                    Point::new(cx + r * ang.cos(), cy + r * ang.sin()),
                    35.0 + 5.0 * ((k as f64 * 0.37).fract()),
                ));
            }
        }
        let corner = self.field / 2.0 - 50.0;
        Scenario::new(
            Rect::centered_square(self.field),
            subs,
            vec![
                BaseStation::new(Point::new(-corner, corner)),
                BaseStation::new(Point::new(corner, -corner)),
            ],
            NetworkParams::new(
                LinkBudget::builder().snr_threshold(Db::new(-15.0)).build(),
                1e-3, // d_max = 10
            ),
        )
        .expect("probe geometry is valid")
    }
}

/// A value an [`Artefact`] field can hold.
pub trait Value {
    /// Appends `self` to `out` as JSON.
    fn render(&self, out: &mut String);
}

impl Value for f64 {
    fn render(&self, out: &mut String) {
        number_into(out, *self);
    }
}

macro_rules! integer_value {
    ($($t:ty),*) => {$(
        impl Value for $t {
            fn render(&self, out: &mut String) {
                out.push_str(&self.to_string());
            }
        }
    )*};
}
integer_value!(usize, u64, u128);

impl Value for &str {
    fn render(&self, out: &mut String) {
        escape_into(out, self);
    }
}

/// An array of objects, one per line.
impl Value for Vec<Fields> {
    fn render(&self, out: &mut String) {
        let rows: Vec<String> = self.iter().map(|row| row.render("{", ", ", "}")).collect();
        out.push_str(&format!("[\n    {}\n  ]", rows.join(",\n    ")));
    }
}

/// An ordered list of named, already-rendered JSON values: one object.
#[derive(Debug, Clone, Default)]
pub struct Fields(Vec<(&'static str, String)>);

impl Fields {
    /// Appends the field `name`.
    pub fn with(mut self, name: &'static str, value: impl Value) -> Self {
        let mut rendered = String::new();
        value.render(&mut rendered);
        self.0.push((name, rendered));
        self
    }

    fn render(&self, open: &str, separator: &str, close: &str) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(name, value)| {
                let mut field = String::new();
                escape_into(&mut field, name);
                field + ": " + value
            })
            .collect();
        format!("{open}{}{close}", fields.join(separator))
    }
}

/// The bound a gate holds its measured value to.
#[derive(Debug, Clone, Copy)]
pub enum Bound {
    /// The value must be at least this.
    Floor(f64),
    /// The value must be at most this.
    Ceiling(f64),
}

/// One benchmark's `BENCH_*.json` artefact, built up field by field.
#[derive(Debug)]
pub struct Artefact {
    path: String,
    fields: Fields,
    gates: Vec<Fields>,
    /// One line per enforced gate that missed its bound.
    missed: Vec<String>,
}

impl Artefact {
    /// An artefact for `benchmark` that [`Artefact::finish`] writes to
    /// `path`. It starts with the `benchmark` and `hardware_threads`
    /// fields.
    pub fn new(benchmark: &str, path: impl Into<String>) -> Self {
        Artefact {
            path: path.into(),
            fields: Fields::default()
                .with("benchmark", benchmark)
                .with("hardware_threads", hardware_threads()),
            gates: Vec::new(),
            missed: Vec::new(),
        }
    }

    /// [`Artefact::new`] at the path the binary's `--out PATH` argument
    /// names, or `default_path` without one.
    ///
    /// # Panics
    /// Panics on any other argument.
    pub fn from_args(benchmark: &str, default_path: &str) -> Self {
        let mut path = default_path.to_string();
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--out" => path = args.next().expect("--out needs a path"),
                other => panic!("unknown argument {other}; usage: [--out PATH]"),
            }
        }
        Artefact::new(benchmark, path)
    }

    /// Records the measured field `name`.
    pub fn field(&mut self, name: &'static str, value: impl Value) -> &mut Self {
        self.fields = std::mem::take(&mut self.fields).with(name, value);
        self
    }

    /// Records the gate `name`: `value` held to `bound`, enforced unless
    /// `skip` gives the reason this host cannot resolve it.
    pub fn gate(
        &mut self,
        name: &'static str,
        value: f64,
        bound: Bound,
        skip: Option<String>,
    ) -> &mut Self {
        let (kind, limit, holds) = match bound {
            Bound::Floor(floor) => ("floor", floor, value >= floor),
            Bound::Ceiling(ceiling) => ("ceiling", ceiling, value <= ceiling),
        };
        if skip.is_none() && !holds {
            self.missed
                .push(format!("{name} = {value} misses its {kind} {limit}"));
        }
        let status = skip.map_or_else(|| "enforced".to_string(), |r| format!("skipped ({r})"));
        self.gates.push(
            Fields::default()
                .with("name", name)
                .with("value", value)
                .with(kind, limit)
                .with("status", status.as_str()),
        );
        self
    }

    /// Writes the artefact with its `gates` list, prints it, and then
    /// fails if any enforced gate missed its bound.
    ///
    /// # Panics
    /// Panics when the file cannot be written, and — after writing it —
    /// when an enforced gate missed.
    pub fn finish(self) {
        let body = self
            .fields
            .with("gates", self.gates)
            .render("{\n  ", ",\n  ", "\n}\n");
        std::fs::write(&self.path, &body)
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", self.path));
        print!("{body}");
        println!("wrote {}", self.path);
        assert!(
            self.missed.is_empty(),
            "gate missed: {}",
            self.missed.join("; ")
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn builders_are_deterministic() {
        assert_eq!(bench_scenario(500.0, 10, 1), bench_scenario(500.0, 10, 1));
        assert_eq!(bench_sweep().runs, 2);
    }

    #[test]
    fn hardware_threads_is_positive() {
        assert!(hardware_threads() >= 1);
    }

    #[test]
    fn clustered_probes_give_one_zone_per_cluster() {
        for (probe, zones, subscribers) in [
            (ClusteredProbe::PAR, 8, 72),
            (ClusteredProbe::CHURN, 16, 144),
            (ClusteredProbe::BACKENDS, 16, 256),
        ] {
            let sc = probe.build();
            assert_eq!(probe.clusters(), zones);
            assert_eq!(sag_core::zone::zone_partition(&sc).len(), zones);
            assert_eq!(sc.n_subscribers(), subscribers);
        }
    }
    /// A scratch artefact path unique to `test`.
    fn scratch_path(test: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("sag-bench-{}-{test}.json", std::process::id()))
    }

    fn written(path: &std::path::Path) -> String {
        let text = std::fs::read_to_string(path).expect("artefact was written");
        std::fs::remove_file(path).expect("scratch artefact removable");
        text
    }

    #[test]
    fn artefact_validates_as_json() {
        let path = scratch_path("valid");
        let mut out = Artefact::new("unit \"quoted\"", path.to_string_lossy());
        out.field("count", 3usize)
            .field("ns", 12_345u128)
            .field("ratio", 2.5)
            .field("nan", f64::NAN)
            .field("label", "a\nb")
            .field(
                "rows",
                vec![
                    Fields::default().with("x", 1u64),
                    Fields::default().with("x", 2u64),
                ],
            )
            .field("empty", Vec::<Fields>::new())
            .gate("ratio", 2.5, Bound::Floor(2.0), None);
        out.finish();
        let text = written(&path);
        sag_obs::json::validate(&text).unwrap_or_else(|e| panic!("{e}:\n{text}"));
        for want in [
            "\"benchmark\": \"unit \\\"quoted\\\"\"",
            "\"hardware_threads\": ",
            "\"ratio\": 2.5",
            "\"nan\": null",
            "{\"x\": 2}",
            "{\"name\": \"ratio\", \"value\": 2.5, \"floor\": 2.0, \"status\": \"enforced\"}",
        ] {
            assert!(text.contains(want), "missing {want} in:\n{text}");
        }
    }

    #[test]
    fn missed_enforced_gate_fails_after_the_file_is_written() {
        let path = scratch_path("missed");
        let mut out = Artefact::new("unit", path.to_string_lossy());
        out.field("speedup", 1.5)
            .gate("speedup", 1.5, Bound::Floor(4.0), None)
            .gate("p99_ns", 900.0, Bound::Ceiling(500.0), None);
        let failure = catch_unwind(AssertUnwindSafe(|| out.finish()))
            .expect_err("missed enforced gates fail the run");
        let message = failure
            .downcast_ref::<String>()
            .expect("assert message")
            .clone();
        assert!(
            message.contains("speedup = 1.5 misses its floor 4"),
            "{message}"
        );
        assert!(
            message.contains("p99_ns = 900 misses its ceiling 500"),
            "{message}"
        );
        let text = written(&path);
        assert!(sag_obs::json::validate(&text).is_ok(), "{text}");
        assert!(text.contains("\"ceiling\": 500.0"), "{text}");
    }

    #[test]
    fn gate_resolution() {
        // A skipped gate records its reason and never fails the run,
        // even when its value misses the bound; an enforced gate that
        // holds records "enforced".
        let path = scratch_path("skipped");
        let mut out = Artefact::new("unit", path.to_string_lossy());
        out.gate(
            "speedup",
            1.2,
            Bound::Floor(2.0),
            Some("2 hardware thread(s) for 4 workers".to_string()),
        )
        .gate("overhead", 1.0, Bound::Ceiling(1.02), None);
        out.finish();
        let text = written(&path);
        assert!(
            text.contains("\"status\": \"skipped (2 hardware thread(s) for 4 workers)\""),
            "{text}"
        );
        assert!(
            text.contains("\"ceiling\": 1.02, \"status\": \"enforced\""),
            "{text}"
        );
    }
}
