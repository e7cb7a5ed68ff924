//! Scenario builders shared by the unit tests.

use sag_geom::{Point, Rect};
use sag_radio::{units::Db, LinkBudget};

use crate::model::{BaseStation, NetworkParams, Scenario, Subscriber};

/// Subscribers `(x, y, distance_req)` on a 500×500 field with one base
/// station at (200, 200), SNR threshold `beta_db` dB and `N_max` =
/// `nmax`.
pub(crate) fn scenario_nmax(subs: &[(f64, f64, f64)], beta_db: f64, nmax: f64) -> Scenario {
    let link = LinkBudget::builder()
        .snr_threshold(Db::new(beta_db))
        .build();
    let subs = subs
        .iter()
        .map(|&(x, y, d)| Subscriber::new(Point::new(x, y), d));
    let bs = vec![BaseStation::new(Point::new(200.0, 200.0))];
    let params = NetworkParams::new(link, nmax);
    Scenario::new(Rect::centered_square(500.0), subs.collect(), bs, params).unwrap()
}

/// [`scenario_nmax`] at `N_max` = 1e-9, where every subscriber falls in
/// one zone.
pub(crate) fn scenario(subs: Vec<(f64, f64, f64)>, beta_db: f64) -> Scenario {
    scenario_nmax(&subs, beta_db, 1e-9)
}
