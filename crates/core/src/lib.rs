//! # sag-core — Signal-Aware Green wireless relay network design
//!
//! A faithful, self-contained implementation of every algorithm in
//! *"Signal-Aware Green Wireless Relay Network Design"* (ICDCS 2013):
//! relay station placement and power allocation in two-tier wireless
//! relay networks under channel-capacity (distance) and SNR constraints,
//! with multiple base stations.
//!
//! ## The problem
//!
//! Subscribers (`SS`) must each be covered by a relay (`RS`) within their
//! capacity-derived feasible distance **and** above an SNR threshold β
//! under mutual relay interference (the *LCRA* problem); every coverage
//! relay must then reach a base station (`BS`) over multi-hop relay links
//! (the *UCRA* problem); and the total transmit power of all placed
//! relays should be minimal (the *SAG* problem, Definition 3).
//!
//! ## Module map (paper → code)
//!
//! | Paper artefact | Module |
//! |---|---|
//! | network model, Defs. 1–3 | [`model`], [`coverage`] |
//! | IAC / GAC candidates (Fig. 2) | [`candidates`] |
//! | ILPQC (3.1)–(3.5), Gurobi benchmark | [`ilpqc`] |
//! | Zone Partition (Alg. 2) | [`zone`] |
//! | SAMC (Alg. 1) | [`samc`] |
//! | Coverage Link Escape (Alg. 3) | [`escape`] |
//! | RS Sliding Movement / Update RS Topology (Algs. 4–5) | [`sliding`] |
//! | PRO (Alg. 6, Theorem 1) + LPQC optimum | [`pro`] |
//! | MBMC (Alg. 7) + MUST baseline | [`mbmc`] |
//! | UCPO (Alg. 8) | [`ucpo`] |
//! | DARP baseline (\[1\]) | [`darp`] |
//! | SAG pipeline (Alg. 9) | [`sag`] |
//!
//! [`reference`](mod@reference) keeps the original ILPQC branch-and-bound
//! and all-pairs Zone Partition as the differential referees that tests
//! and benchmarks compare [`ilpqc::solve_ilpqc`] and
//! [`zone::zone_partition_with_dmax`] against; library code does not use
//! it.
//!
//! Extensions beyond the paper (flagged as such in their module docs):
//! [`kcover`] (dual-relay k-coverage, after the cited 802.16j MMR
//! architecture) and [`lifetime`] (battery-driven network lifetime,
//! after the cited lifetime-oriented deployment line of work).
//!
//! ## Quickstart
//!
//! ```
//! use sag_core::{model::*, sag::run_sag};
//! use sag_geom::{Point, Rect};
//!
//! let scenario = Scenario::new(
//!     Rect::centered_square(500.0),
//!     vec![
//!         Subscriber::new(Point::new(0.0, 0.0), 35.0),
//!         Subscriber::new(Point::new(60.0, 20.0), 30.0),
//!     ],
//!     vec![BaseStation::new(Point::new(200.0, 200.0))],
//!     NetworkParams::default(),
//! )?;
//! let report = run_sag(&scenario)?;
//! println!(
//!     "{} coverage + {} connectivity relays, total power {:.3}",
//!     report.n_coverage_relays(),
//!     report.n_connectivity_relays(),
//!     report.power_summary().total,
//! );
//! # Ok::<(), sag_core::error::SagError>(())
//! ```

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]
// Library code must degrade through typed errors, not panic on `None`/
// `Err`; tests may unwrap freely.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod candidates;
pub mod channels;
pub mod churn;
pub mod coverage;
pub mod darp;
pub mod engine;
pub mod error;
pub mod escape;
pub mod fallback;
pub mod ilpqc;
pub mod kcover;
pub mod lifetime;
pub mod mbmc;
pub mod model;
pub mod pro;
pub mod reference;
pub mod resilience;
pub mod sag;
pub mod samc;
pub mod sliding;
pub mod solver;
pub mod ucpo;
pub mod validate;
pub mod zone;

pub use churn::{ChurnConfig, ChurnEngine, ChurnEvent, ChurnReport, EventRecord, RepairRung};
pub use coverage::{CoverageSolution, ServedIndex};
pub use error::{SagError, SagResult};
pub use model::{BaseStation, NetworkParams, Relay, RelayRole, Scenario, Subscriber};
pub use sag::{run_sag, run_sag_with, AnsweringSolver, LowerSolver, SagPipelineConfig, SagReport};
pub use sag_lp::{Budget, Spent};
pub use solver::{
    CoverageSolver, LoserFault, SelectionPolicy, SelectionReason, SolveOutcome, SolverBackend,
    SolverBuilder, SolverChoice,
};
