//! Link-budget facade combining the propagation, SNR and capacity models.
//!
//! [`LinkBudget`] bundles the model constants the SAG algorithms carry
//! around (two-ray model, max transmit power, SNR threshold β, thermal
//! noise, bandwidth) behind one value with convenience queries. It is the
//! type the `sag-core` crate embeds in its `NetworkParams`.

use crate::capacity;
use crate::tworay::TwoRay;
use crate::units::Db;
use sag_geom::Point;

/// Bundled link-budget parameters.
///
/// Construct with [`LinkBudget::builder`]; all fields have physically
/// sensible defaults matching the reproduction's simulation settings.
///
/// # Example
/// ```
/// use sag_radio::{LinkBudget, units::Db};
/// let lb = LinkBudget::builder()
///     .snr_threshold(Db::new(-15.0))
///     .max_power(1.0)
///     .build();
/// assert!(lb.beta() < 0.04);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkBudget {
    model: TwoRay,
    pmax: f64,
    beta: f64,
    noise: f64,
    bandwidth: f64,
}

/// Builder for [`LinkBudget`]. See [`LinkBudget::builder`].
#[derive(Debug, Clone)]
pub struct LinkBudgetBuilder {
    model: TwoRay,
    pmax: f64,
    beta: f64,
    noise: f64,
    bandwidth: f64,
}

impl LinkBudget {
    /// Starts a builder with the reproduction defaults: two-ray `G = 1`,
    /// `α = 3`, `Pmax = 1`, β = −15 dB, noise `1e-9`, bandwidth 1 MHz.
    pub fn builder() -> LinkBudgetBuilder {
        LinkBudgetBuilder {
            model: TwoRay::default(),
            pmax: 1.0,
            beta: Db::new(-15.0).to_linear(),
            noise: 1e-9,
            bandwidth: 1.0e6,
        }
    }

    /// The propagation model.
    #[inline]
    pub fn model(&self) -> &TwoRay {
        &self.model
    }

    /// Maximum relay transmit power `Pmax`.
    #[inline]
    pub fn pmax(&self) -> f64 {
        self.pmax
    }

    /// Linear SNR threshold β.
    #[inline]
    pub fn beta(&self) -> f64 {
        self.beta
    }

    /// The SNR threshold as dB.
    pub fn beta_db(&self) -> Db {
        Db::from_linear(self.beta)
    }

    /// Thermal noise floor `N0`.
    #[inline]
    pub fn noise(&self) -> f64 {
        self.noise
    }

    /// Channel bandwidth in Hz.
    #[inline]
    pub fn bandwidth(&self) -> f64 {
        self.bandwidth
    }

    /// Received power at `rx` from a transmitter at `tx` with power `pt`.
    pub fn received_power(&self, tx: Point, rx: Point, pt: f64) -> f64 {
        self.model.received_power(pt, tx.distance(rx))
    }

    /// The `P_ss` of constraint (3.8) for a subscriber whose feasible
    /// distance is `d`: the power received at exactly distance `d` under
    /// `Pmax`. (The reproduction ties data-rate requests to distances, so
    /// `P_ss` falls out of the distance rather than the rate.)
    pub fn min_received_power_for_distance(&self, d: f64) -> f64 {
        self.model.received_power(self.pmax, d)
    }

    /// Channel capacity (bps) of a link of length `d` at power `pt`.
    pub fn capacity(&self, pt: f64, d: f64) -> f64 {
        capacity::capacity_at_distance(&self.model, pt, d, self.bandwidth, self.noise)
    }

    /// Feasible distance for a requested `rate` in bps at `Pmax`.
    pub fn feasible_distance(&self, rate: f64) -> f64 {
        capacity::max_distance_for_rate(&self.model, self.pmax, rate, self.bandwidth, self.noise)
    }
}

impl Default for LinkBudget {
    fn default() -> Self {
        LinkBudget::builder().build()
    }
}

impl LinkBudgetBuilder {
    /// Sets the propagation model.
    pub fn model(&mut self, model: TwoRay) -> &mut Self {
        self.model = model;
        self
    }

    /// Sets the maximum relay transmit power.
    ///
    /// # Panics
    /// Panics (at [`LinkBudgetBuilder::build`]) unless `pmax > 0`.
    pub fn max_power(&mut self, pmax: f64) -> &mut Self {
        self.pmax = pmax;
        self
    }

    /// Sets the SNR threshold.
    pub fn snr_threshold(&mut self, beta: Db) -> &mut Self {
        self.beta = beta.to_linear();
        self
    }

    /// Sets the thermal noise floor.
    pub fn noise(&mut self, n0: f64) -> &mut Self {
        self.noise = n0;
        self
    }

    /// Sets the channel bandwidth in Hz.
    pub fn bandwidth(&mut self, hz: f64) -> &mut Self {
        self.bandwidth = hz;
        self
    }

    /// Builds the [`LinkBudget`].
    ///
    /// # Panics
    /// Panics if any parameter is out of range (`pmax <= 0`,
    /// `beta < 0`, `noise < 0`, `bandwidth <= 0`).
    pub fn build(&self) -> LinkBudget {
        assert!(self.pmax > 0.0, "pmax must be > 0, got {}", self.pmax);
        assert!(self.beta >= 0.0, "beta must be ≥ 0, got {}", self.beta);
        assert!(self.noise >= 0.0, "noise must be ≥ 0, got {}", self.noise);
        assert!(
            self.bandwidth > 0.0,
            "bandwidth must be > 0, got {}",
            self.bandwidth
        );
        LinkBudget {
            model: self.model,
            pmax: self.pmax,
            beta: self.beta,
            noise: self.noise,
            bandwidth: self.bandwidth,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults() {
        let lb = LinkBudget::default();
        assert_eq!(lb.pmax(), 1.0);
        assert!((lb.beta_db().value() + 15.0).abs() < 1e-9);
        assert_eq!(lb.bandwidth(), 1.0e6);
    }

    #[test]
    fn builder_overrides() {
        let lb = LinkBudget::builder()
            .max_power(2.5)
            .snr_threshold(Db::new(-20.0))
            .noise(1e-8)
            .bandwidth(5.0e6)
            .model(TwoRay::new(4.0, 2.0))
            .build();
        assert_eq!(lb.pmax(), 2.5);
        assert!((lb.beta() - 0.01).abs() < 1e-9);
        assert_eq!(lb.noise(), 1e-8);
        assert_eq!(lb.model().alpha(), 2.0);
    }

    #[test]
    fn received_power_between_points() {
        let lb = LinkBudget::default();
        let pr = lb.received_power(Point::new(0.0, 0.0), Point::new(10.0, 0.0), 1.0);
        assert!((pr - 1e-3).abs() < 1e-12); // 1 / 10³
    }

    #[test]
    fn pss_at_feasible_distance_boundary() {
        let lb = LinkBudget::default();
        let pss = lb.min_received_power_for_distance(35.0);
        // Received power at 35.0 under Pmax equals P_ss by construction.
        assert!(
            (lb.received_power(Point::ORIGIN, Point::new(35.0, 0.0), lb.pmax()) - pss).abs()
                < 1e-15
        );
    }

    #[test]
    fn capacity_and_feasible_distance_roundtrip() {
        let lb = LinkBudget::builder().noise(1e-7).build();
        let rate = 2.0e6;
        let d = lb.feasible_distance(rate);
        assert!((lb.capacity(lb.pmax(), d) - rate).abs() / rate < 1e-9);
    }

    #[test]
    #[should_panic]
    fn invalid_pmax_panics() {
        LinkBudget::builder().max_power(0.0).build();
    }
}
