//! # sag-radio — radio propagation substrate
//!
//! Physical-layer models for the SAG (Signal-Aware Green relay network
//! design) reproduction:
//!
//! * [`units`] — decibel newtypes ([`Db`], [`DbMilliwatt`]) and exact
//!   linear↔dB conversions,
//! * [`tworay`] — the two-ray ground path-loss model of Eq. (2.1),
//!   `Pr = Pt · G · d^{-α}`,
//! * [`snr`] — the paper's interference-limited SNR (Definition 2),
//! * [`ledger`] — the incremental [`InterferenceLedger`]: per-subscriber
//!   interference accumulators with O(S) relay deltas, O(1) SNR queries
//!   and a brute-force oracle mode for parity checks,
//! * [`capacity`] — Shannon capacity and the capacity↔distance reduction
//!   of §II that turns data-rate requests into distance requests,
//! * [`link`] — a [`LinkBudget`] convenience facade combining all of the
//!   above.
//!
//! # Example: the paper's data-rate → distance reduction
//!
//! ```
//! use sag_radio::{capacity, tworay::TwoRay};
//!
//! let model = TwoRay::new(1.0, 3.0); // G = 1, α = 3
//! // A subscriber requests 2 Mbps over a 1 MHz channel at max power 1.0
//! // with thermal noise 1e-6: what is its feasible distance?
//! let d = capacity::max_distance_for_rate(&model, 1.0, 2.0e6, 1.0e6, 1.0e-6);
//! assert!(d > 0.0);
//! // At that distance the rate is exactly met.
//! let c = capacity::capacity_at_distance(&model, 1.0, d, 1.0e6, 1.0e-6);
//! assert!((c - 2.0e6).abs() / 2.0e6 < 1e-9);
//! ```

#![deny(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]
#![warn(rust_2018_idioms)]

pub mod capacity;
pub mod ledger;
pub mod link;
pub mod models;
pub mod snr;
pub mod tworay;
pub mod units;

pub use ledger::{DesyncError, InterferenceLedger, LedgerMode, LedgerStats};
pub use link::LinkBudget;
pub use models::PathLoss;
pub use tworay::TwoRay;
pub use units::{Db, DbMilliwatt};
