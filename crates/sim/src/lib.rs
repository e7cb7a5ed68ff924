//! # sag-sim — simulation & experiment harness
//!
//! Reproduces every table and figure of the ICDCS 2013 SAG paper's
//! evaluation (§IV) on top of `sag-core`:
//!
//! * [`gen`] — seeded random scenario generation (uniform SS/BS
//!   placement, `d_i ∈ [30, 40]`, the paper's field sizes),
//! * [`stats`] — mean/std aggregation over the paper's 10-run averages,
//! * [`table`] — text tables and CSV series for figure data,
//! * [`runner`] — parameter sweeps parallelised across seeds,
//! * [`batch`] — the batched sweep engine: lane batches over the
//!   `(x, run)` grid on `sag_obs::par_indexed` workers, and the
//!   fingerprint-keyed invariant cache,
//! * [`fingerprint`] — 128-bit content hashes keying that cache,
//! * [`reference`](mod@reference) — the per-cell sweep path, kept as
//!   the batched engine's differential referee (tests and benches
//!   only),
//! * [`snapshot`] — compact binary scenario snapshots (`bytes`),
//! * [`experiments`] — one module per paper artefact: Fig. 3(a–e),
//!   Fig. 4/5(a–d), Fig. 6, Fig. 7(a–c), Table II,
//! * [`trace`] — the `repro trace` failure-forensics analyzer over
//!   `sag-obs` JSONL streams (span trees, critical path, churn SLO
//!   windows, run-to-run diffs),
//! * the `repro` binary — `cargo run -p sag-sim --bin repro -- <exp>`.
//!
//! # Example
//!
//! ```
//! use sag_sim::gen::{ScenarioSpec, BsLayout};
//!
//! let spec = ScenarioSpec {
//!     field_size: 500.0,
//!     n_subscribers: 10,
//!     n_base_stations: 4,
//!     snr_db: -15.0,
//!     bs_layout: BsLayout::Uniform,
//!     ..ScenarioSpec::default()
//! };
//! let scenario = spec.build(42);
//! assert_eq!(scenario.n_subscribers(), 10);
//! ```

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod batch;
pub mod experiments;
pub mod fingerprint;
pub mod gen;
pub mod heatmap;
pub mod plot;
pub mod reference;
pub mod runner;
pub mod snapshot;
pub mod stats;
pub mod table;
pub mod trace;

pub use gen::{BsLayout, ScenarioSpec};
pub use table::{Series, Table};
