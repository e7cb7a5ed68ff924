//! # sag-lp — linear programming and branch-and-bound ILP
//!
//! A self-contained LP solver plus a binary/integer branch-and-bound
//! layer. Every solve runs on a sparse revised simplex ([`revised`]:
//! CSC storage, LU basis factors with eta updates, dual-simplex warm
//! starts); the original dense two-phase tableau ([`simplex`]) stays as
//! the differential referee that tests call by name
//! ([`LpProblem::solve_dense`]). This
//! crate is the reproduction's substitute for **Gurobi 5.0**, which the
//! paper uses for its ILPQC (coverage with quadratic SNR constraints,
//! §III-A.1) and LPQC (power minimisation, §III-A.2) benchmark
//! formulations:
//!
//! * the LPQC becomes a true LP once the SS→RS assignment is fixed (the
//!   SNR constraint (3.9) is linear in the power vector), solved directly
//!   by [`LpProblem::solve`];
//! * the ILPQC is solved exactly in `sag-core` by combinatorial
//!   branch-and-bound whose lower bounds come from this crate's LP
//!   relaxation of the set-cover subproblem, re-solved node after node
//!   in one kept [`LpSession`].
//!
//! # Example
//!
//! ```
//! use sag_lp::{LpProblem, Relation};
//!
//! // min x + 2y  s.t.  x + y ≥ 3,  y ≤ 2,  x,y ≥ 0.
//! let mut lp = LpProblem::minimize(2);
//! lp.set_objective(&[1.0, 2.0]);
//! lp.add_constraint(&[(0, 1.0), (1, 1.0)], Relation::Ge, 3.0);
//! lp.add_constraint(&[(1, 1.0)], Relation::Le, 2.0);
//! let sol = lp.solve().unwrap();
//! assert!((sol.objective - 3.0).abs() < 1e-9); // x = 3, y = 0
//! ```

#![deny(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]
#![warn(rust_2018_idioms)]

pub mod budget;
pub mod error;
pub mod ilp;
pub mod problem;
pub mod revised;
pub mod simplex;
pub mod sparse;

pub use budget::{Budget, Spent};
pub use error::LpError;
pub use ilp::{IlpProblem, IlpSolution};
pub use problem::{LpProblem, LpSession, LpSolution, LpSolutionDetailed, Relation, WarmStart};
pub use revised::{RevisedSolution, SparseStandardForm};
pub use simplex::TOL as SIMPLEX_TOL;
pub use sparse::{CscBuilder, CscMatrix, SparseError};
