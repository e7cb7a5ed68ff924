//! # sag-hitting — geometric minimum hitting set
//!
//! Step 4 of the paper's SAMC algorithm covers each zone's subscribers by
//! solving a *minimum hitting set* over their feasible-coverage disks:
//! find the fewest points (relay positions) such that every disk contains
//! at least one point. The paper adopts the Mustafa–Ray local-search PTAS
//! \[5\] for this step.
//!
//! Three solvers are provided:
//!
//! * [`greedy::greedy_hitting_set`] — classic greedy (ln n approximation),
//! * [`local_search::local_search_hitting_set`] — greedy start plus
//!   Mustafa–Ray-style `b`-swap local search (the paper's (1+ε) PTAS
//!   family; ε shrinks as the swap size grows),
//! * [`exact::exact_hitting_set`] — branch-and-bound optimum for small
//!   instances (`prop_local_between_exact_and_greedy` checks the local
//!   search against it).
//!
//! [`reference`](mod@reference) keeps the full-recompute local-search
//! swap evaluation as the differential referee that tests and benchmarks
//! compare the incremental one against; library code does not use it.
//!
//! Candidate points follow the standard normalisation: any hitting set can
//! be moved onto disk centres and pairwise circle-intersection points
//! without losing feasibility, so those finitely many candidates suffice.
//!
//! # Example
//!
//! ```
//! use sag_geom::{Circle, Point};
//! use sag_hitting::{greedy::greedy_hitting_set, instance::DiskInstance};
//!
//! let disks = vec![
//!     Circle::new(Point::new(0.0, 0.0), 2.0),
//!     Circle::new(Point::new(1.0, 0.0), 2.0),
//!     Circle::new(Point::new(10.0, 0.0), 2.0),
//! ];
//! let inst = DiskInstance::new(disks);
//! let hs = greedy_hitting_set(&inst);
//! assert!(inst.is_hitting_set(&hs));
//! assert_eq!(hs.len(), 2); // two clusters
//! ```

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod exact;
pub mod greedy;
pub mod instance;
pub mod local_search;
pub mod reference;

pub use instance::DiskInstance;
