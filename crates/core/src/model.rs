//! The network model: subscribers, base stations, relays, scenarios.
//!
//! Mirrors §II of the paper. A [`Scenario`] is the immutable problem
//! input — subscriber stations with per-SS feasible distances `d_i`, base
//! stations, a playing field and the physical parameters. Algorithm
//! outputs (relay placements, power allocations) live in the stage
//! modules.

use sag_geom::{Circle, Point, Rect};
use sag_radio::LinkBudget;

use crate::error::{SagError, SagResult};

/// A fixed subscriber station (`s_i` with distance request `d_i`).
///
/// The paper's SSs are static, high-traffic sites (retail stores, gas
/// stations); their data-rate request `b_i` is pre-reduced to the feasible
/// distance `d_i` via the capacity↔distance equivalence of §II.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Subscriber {
    /// Location of the subscriber.
    pub position: Point,
    /// Feasible coverage distance `d_i` (derived from the data rate).
    pub distance_req: f64,
}

impl Subscriber {
    /// Creates a subscriber.
    ///
    /// # Panics
    /// Panics unless `distance_req > 0` and finite and the position is
    /// finite.
    pub fn new(position: Point, distance_req: f64) -> Self {
        assert!(position.is_finite(), "subscriber position must be finite");
        assert!(
            distance_req.is_finite() && distance_req > 0.0,
            "distance requirement must be > 0, got {distance_req}"
        );
        Subscriber {
            position,
            distance_req,
        }
    }

    /// The feasible coverage circle `c_i` (centre = position, radius =
    /// `d_i`): a relay anywhere in this disk satisfies the distance/
    /// capacity constraint.
    pub fn feasible_circle(&self) -> Circle {
        Circle::new(self.position, self.distance_req)
    }
}

/// A base station (macro cell anchor of the upper tier).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BaseStation {
    /// Location of the base station.
    pub position: Point,
}

impl BaseStation {
    /// Creates a base station.
    ///
    /// # Panics
    /// Panics if the position is not finite.
    pub fn new(position: Point) -> Self {
        assert!(position.is_finite(), "base station position must be finite");
        BaseStation { position }
    }
}

/// Role of a placed relay station.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RelayRole {
    /// Lower-tier relay serving subscribers over access links.
    Coverage,
    /// Upper-tier relay forwarding traffic toward a base station.
    Connectivity,
}

/// A placed relay station with its allocated transmit power.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Relay {
    /// Location of the relay.
    pub position: Point,
    /// Tier of the relay.
    pub role: RelayRole,
    /// Allocated transmit power (`≤ Pmax`).
    pub power: f64,
}

/// Physical parameters shared by all algorithms.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkParams {
    /// Propagation model, max power, SNR threshold β, noise, bandwidth.
    pub link: LinkBudget,
    /// `N_max` of Zone Partition: the largest received power that can be
    /// ignored as noise. Determines the zone radius `d_max`.
    pub nmax: f64,
}

impl NetworkParams {
    /// Creates parameters.
    ///
    /// # Panics
    /// Panics unless `nmax > 0` and finite.
    pub fn new(link: LinkBudget, nmax: f64) -> Self {
        assert!(
            nmax.is_finite() && nmax > 0.0,
            "nmax must be > 0, got {nmax}"
        );
        NetworkParams { link, nmax }
    }

    /// The Zone Partition distance `d_max`: beyond it, a `Pmax`
    /// transmitter contributes ignorable noise.
    pub fn dmax(&self) -> f64 {
        self.link
            .model()
            .ignorable_noise_distance(self.link.pmax(), self.nmax)
    }

    /// `P_ss^j` for a subscriber with feasible distance `d`: the minimum
    /// received power implied by its data-rate request (constraint (3.8)).
    pub fn pss_for(&self, sub: &Subscriber) -> f64 {
        self.link.min_received_power_for_distance(sub.distance_req)
    }
}

impl Default for NetworkParams {
    /// Reproduction defaults: [`LinkBudget::default`], `nmax = 1e-9`
    /// (zone radius 1000 under `G=1, α=3, Pmax=1`).
    fn default() -> Self {
        NetworkParams::new(LinkBudget::default(), 1e-9)
    }
}

/// An immutable problem instance.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// The playing field.
    pub field: Rect,
    /// Subscriber stations.
    pub subscribers: Vec<Subscriber>,
    /// Base stations.
    pub base_stations: Vec<BaseStation>,
    /// Physical parameters.
    pub params: NetworkParams,
}

impl Scenario {
    /// Creates and validates a scenario.
    ///
    /// # Errors
    /// [`SagError::NoSubscribers`] / [`SagError::NoBaseStations`] when
    /// the respective list is empty.
    pub fn new(
        field: Rect,
        subscribers: Vec<Subscriber>,
        base_stations: Vec<BaseStation>,
        params: NetworkParams,
    ) -> SagResult<Self> {
        if subscribers.is_empty() {
            return Err(SagError::NoSubscribers);
        }
        if base_stations.is_empty() {
            return Err(SagError::NoBaseStations);
        }
        Ok(Scenario {
            field,
            subscribers,
            base_stations,
            params,
        })
    }

    /// Number of subscribers `n`.
    pub fn n_subscribers(&self) -> usize {
        self.subscribers.len()
    }

    /// The subscribers' feasible circles, in subscriber order.
    pub fn feasible_circles(&self) -> Vec<Circle> {
        self.subscribers
            .iter()
            .map(Subscriber::feasible_circle)
            .collect()
    }

    /// Subscriber positions, in order.
    pub fn subscriber_positions(&self) -> Vec<Point> {
        self.subscribers.iter().map(|s| s.position).collect()
    }

    /// Base station positions, in order.
    pub fn base_station_positions(&self) -> Vec<Point> {
        self.base_stations.iter().map(|b| b.position).collect()
    }

    /// The smallest feasible distance `d_min` (used by MBMC's edge
    /// weights).
    pub fn dmin(&self) -> f64 {
        self.subscribers
            .iter()
            .map(|s| s.distance_req)
            .fold(f64::INFINITY, f64::min)
    }

    /// Deep ingress validation, beyond the structural checks of
    /// [`Scenario::new`].
    ///
    /// `Scenario::new` only rejects empty station lists; scenarios built
    /// from untrusted bytes (snapshots, fuzzers) or via direct struct
    /// literals can still carry poisoned values. This walks every field
    /// and rejects:
    ///
    /// * non-finite (NaN/∞) field corners, or a field with
    ///   non-positive width/height;
    /// * non-finite subscriber/base-station coordinates;
    /// * non-finite or non-positive subscriber distance requests;
    /// * stations lying outside the playing field;
    /// * non-finite or out-of-range physical parameters (gain, path-loss
    ///   exponent, `Pmax`, β, noise, bandwidth, `N_max`).
    ///
    /// # Errors
    /// [`SagError::InvalidScenario`] describing the first defect found;
    /// [`SagError::NoSubscribers`] / [`SagError::NoBaseStations`] for
    /// empty lists (possible when the struct was built literally).
    pub fn validate(&self) -> SagResult<()> {
        fn bad(why: String) -> SagResult<()> {
            Err(SagError::InvalidScenario(why))
        }
        if !self.field.min().is_finite() || !self.field.max().is_finite() {
            return bad("field corners must be finite".into());
        }
        // NaN-safe: `<= 0.0` alone would wave a NaN width through.
        if self.field.width() <= 0.0
            || self.field.height() <= 0.0
            || self.field.width().is_nan()
            || self.field.height().is_nan()
        {
            return bad(format!(
                "field must have positive area, got {}x{}",
                self.field.width(),
                self.field.height()
            ));
        }
        if self.subscribers.is_empty() {
            return Err(SagError::NoSubscribers);
        }
        if self.base_stations.is_empty() {
            return Err(SagError::NoBaseStations);
        }
        for (i, s) in self.subscribers.iter().enumerate() {
            if !s.position.is_finite() {
                return bad(format!("subscriber {i} has a non-finite position"));
            }
            if !s.distance_req.is_finite() || s.distance_req <= 0.0 {
                return bad(format!(
                    "subscriber {i} distance request must be finite and > 0, got {}",
                    s.distance_req
                ));
            }
            if !self.field.contains(s.position) {
                return bad(format!("subscriber {i} lies outside the field"));
            }
        }
        for (i, b) in self.base_stations.iter().enumerate() {
            if !b.position.is_finite() {
                return bad(format!("base station {i} has a non-finite position"));
            }
            if !self.field.contains(b.position) {
                return bad(format!("base station {i} lies outside the field"));
            }
        }
        let link = &self.params.link;
        let model = link.model();
        if !model.gain().is_finite() || model.gain() <= 0.0 {
            return bad(format!(
                "link gain must be finite and > 0, got {}",
                model.gain()
            ));
        }
        if !model.alpha().is_finite() || model.alpha() < 1.0 {
            return bad(format!(
                "path-loss exponent must be finite and >= 1, got {}",
                model.alpha()
            ));
        }
        if !link.pmax().is_finite() || link.pmax() <= 0.0 {
            return bad(format!("Pmax must be finite and > 0, got {}", link.pmax()));
        }
        if !link.beta().is_finite() || link.beta() < 0.0 {
            return bad(format!(
                "SNR threshold beta must be finite and >= 0, got {}",
                link.beta()
            ));
        }
        if !link.noise().is_finite() || link.noise() < 0.0 {
            return bad(format!(
                "noise must be finite and >= 0, got {}",
                link.noise()
            ));
        }
        if !link.bandwidth().is_finite() || link.bandwidth() <= 0.0 {
            return bad(format!(
                "bandwidth must be finite and > 0, got {}",
                link.bandwidth()
            ));
        }
        if !self.params.nmax.is_finite() || self.params.nmax <= 0.0 {
            return bad(format!(
                "nmax must be finite and > 0, got {}",
                self.params.nmax
            ));
        }
        // Numerical conditioning. Every individual field can be a legal
        // float while their *combination* still drives the pipeline's
        // arithmetic to inf or into subnormal territory (MBMC divides
        // edge lengths by `dmin` and exponentiates distances; PRO scales
        // delivered powers by `gain·d^-α`). Bound the dynamic range here
        // so downstream stages never see it.
        let diag = (self.field.width().powi(2) + self.field.height().powi(2)).sqrt();
        let max_dreq = self
            .subscribers
            .iter()
            .map(|s| s.distance_req)
            .fold(0.0, f64::max);
        // The farthest distance any stage ever exponentiates: relay
        // candidates lie within a coverage radius of some subscriber, so
        // every pairwise distance is ≤ field diagonal + 2·max radius.
        let reach = diag + 2.0 * max_dreq;
        if !reach.is_finite() {
            return bad(format!(
                "scenario reach (field diagonal + coverage radii) overflows: {reach}"
            ));
        }
        let spread = reach.powf(link.model().alpha());
        if !spread.is_finite() {
            return bad(format!(
                "reach^alpha overflows f64 (reach {reach}, alpha {})",
                link.model().alpha()
            ));
        }
        // MBMC hop-count weights divide edge lengths by `dmin`.
        if !(reach / self.dmin()).is_finite() {
            return bad(format!(
                "reach/dmin overflows (reach {reach}, dmin {})",
                self.dmin()
            ));
        }
        // Weakest delivered power must stay a *normal* float, or power
        // feasibility margins drown in subnormal rounding error.
        let weakest_rx = link.pmax() * link.model().gain() / spread;
        if weakest_rx < f64::MIN_POSITIVE {
            return bad(format!(
                "weakest delivered power {weakest_rx:e} is subnormal; \
                 Pmax/gain/alpha are numerically degenerate"
            ));
        }
        // Strongest required transmit power must stay finite.
        let worst_tx = link.beta() * link.noise() / link.model().gain() * spread;
        if !worst_tx.is_finite() {
            return bad(format!(
                "worst-case required transmit power overflows: {worst_tx}"
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sub(x: f64, y: f64, d: f64) -> Subscriber {
        Subscriber::new(Point::new(x, y), d)
    }

    #[test]
    fn subscriber_circle() {
        let s = sub(1.0, 2.0, 35.0);
        let c = s.feasible_circle();
        assert_eq!(c.center, Point::new(1.0, 2.0));
        assert_eq!(c.radius, 35.0);
    }

    #[test]
    fn scenario_validation() {
        let field = Rect::centered_square(500.0);
        let params = NetworkParams::default();
        assert_eq!(
            Scenario::new(field, vec![], vec![BaseStation::new(Point::ORIGIN)], params)
                .unwrap_err(),
            SagError::NoSubscribers
        );
        assert_eq!(
            Scenario::new(field, vec![sub(0.0, 0.0, 30.0)], vec![], params).unwrap_err(),
            SagError::NoBaseStations
        );
        let sc = Scenario::new(
            field,
            vec![sub(0.0, 0.0, 30.0), sub(50.0, 0.0, 40.0)],
            vec![BaseStation::new(Point::new(100.0, 100.0))],
            params,
        )
        .unwrap();
        assert_eq!(sc.n_subscribers(), 2);
        assert_eq!(sc.dmin(), 30.0);
        assert_eq!(sc.feasible_circles().len(), 2);
    }

    #[test]
    fn params_dmax_matches_model() {
        let p = NetworkParams::default();
        // G=1, α=3, Pmax=1, Nmax=1e-9 → dmax = (1/1e-9)^(1/3) = 1000.
        assert!((p.dmax() - 1000.0).abs() < 1e-6);
    }

    #[test]
    fn pss_is_boundary_received_power() {
        let p = NetworkParams::default();
        let s = sub(0.0, 0.0, 10.0);
        // Pmax·G·10⁻³ = 1e-3.
        assert!((p.pss_for(&s) - 1e-3).abs() < 1e-12);
    }

    #[test]
    fn validate_accepts_well_formed_scenario() {
        let sc = Scenario::new(
            Rect::centered_square(500.0),
            vec![sub(0.0, 0.0, 30.0)],
            vec![BaseStation::new(Point::new(100.0, 100.0))],
            NetworkParams::default(),
        )
        .unwrap();
        assert!(sc.validate().is_ok());
    }

    #[test]
    fn validate_rejects_poisoned_fields() {
        let good = Scenario::new(
            Rect::centered_square(500.0),
            vec![sub(0.0, 0.0, 30.0)],
            vec![BaseStation::new(Point::new(100.0, 100.0))],
            NetworkParams::default(),
        )
        .unwrap();

        // NaN subscriber coordinate (bypassing the constructor).
        let mut sc = good.clone();
        sc.subscribers[0].position.x = f64::NAN;
        assert!(matches!(sc.validate(), Err(SagError::InvalidScenario(_))));

        // Non-positive distance request.
        let mut sc = good.clone();
        sc.subscribers[0].distance_req = -1.0;
        assert!(matches!(sc.validate(), Err(SagError::InvalidScenario(_))));

        // Station outside the field.
        let mut sc = good.clone();
        sc.base_stations[0].position = Point::new(1e6, 0.0);
        assert!(matches!(sc.validate(), Err(SagError::InvalidScenario(_))));

        // Degenerate (zero-width) field.
        let mut sc = good.clone();
        sc.field = Rect::from_corners(Point::ORIGIN, Point::new(0.0, 100.0));
        assert!(matches!(sc.validate(), Err(SagError::InvalidScenario(_))));

        // Poisoned parameter.
        let mut sc = good.clone();
        sc.params.nmax = f64::INFINITY;
        assert!(matches!(sc.validate(), Err(SagError::InvalidScenario(_))));

        // Emptied list after construction.
        let mut sc = good.clone();
        sc.subscribers.clear();
        assert_eq!(sc.validate(), Err(SagError::NoSubscribers));
    }

    #[test]
    #[should_panic]
    fn zero_distance_req_panics() {
        sub(0.0, 0.0, 0.0);
    }

    #[test]
    #[should_panic]
    fn bad_nmax_panics() {
        NetworkParams::new(LinkBudget::default(), 0.0);
    }
}
