//! Alternative path-loss models and the [`PathLoss`] abstraction.
//!
//! The paper fixes the two-ray ground model (Eq. 2.1) but leaves the
//! attenuation exponent open ("α usually varies in a range of 2–4").
//! This module abstracts the propagation law so sensitivity studies
//! (the `alpha_sweep` experiment, the `ablation` benches) can swap
//! models without touching the algorithms:
//!
//! * [`FreeSpace`] — Friis free-space loss (`α = 2` with a wavelength
//!   constant),
//! * [`LogDistance`] — log-distance loss around a reference distance,
//!   the standard empirical generalisation,
//! * [`crate::TwoRay`] — the paper's model, which also implements the
//!   trait.
//!
//! All models expose the same `received_power` / `required_tx_power` /
//! `max_range` triple with the same invariants (monotone decay,
//! inverse consistency).

use crate::tworay::TwoRay;

/// A deterministic distance-dependent path-loss law.
///
/// Implementations must be monotone non-increasing in distance and
/// satisfy the round-trip identities
/// `required_tx_power(received_power(pt, d), d) == pt` and
/// `received_power(pt, max_range(pt, pr)) == pr` (up to float error).
pub trait PathLoss {
    /// Received power at distance `d` for transmit power `pt`.
    fn received_power(&self, pt: f64, d: f64) -> f64;

    /// Transmit power needed to deliver `pr` at distance `d`.
    fn required_tx_power(&self, pr: f64, d: f64) -> f64;

    /// Maximum distance at which `pt` still delivers `pr_min`.
    fn max_range(&self, pt: f64, pr_min: f64) -> f64;
}

impl PathLoss for TwoRay {
    fn received_power(&self, pt: f64, d: f64) -> f64 {
        TwoRay::received_power(self, pt, d)
    }
    fn required_tx_power(&self, pr: f64, d: f64) -> f64 {
        TwoRay::required_tx_power(self, pr, d)
    }
    fn max_range(&self, pt: f64, pr_min: f64) -> f64 {
        TwoRay::max_range(self, pt, pr_min)
    }
}

/// Friis free-space propagation: `Pr = Pt · (λ / 4πd)²`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FreeSpace {
    wavelength: f64,
}

impl FreeSpace {
    /// Creates the model for carrier wavelength `wavelength` (metres).
    ///
    /// # Panics
    /// Panics unless `wavelength > 0` and finite.
    pub fn new(wavelength: f64) -> Self {
        assert!(
            wavelength.is_finite() && wavelength > 0.0,
            "wavelength must be > 0, got {wavelength}"
        );
        FreeSpace { wavelength }
    }

    /// The carrier wavelength.
    pub fn wavelength(&self) -> f64 {
        self.wavelength
    }

    #[inline]
    fn k(&self) -> f64 {
        let f = self.wavelength / (4.0 * std::f64::consts::PI);
        f * f
    }
}

impl PathLoss for FreeSpace {
    fn received_power(&self, pt: f64, d: f64) -> f64 {
        assert!(pt >= 0.0 && d >= 0.0, "powers and distances must be ≥ 0");
        let d = d.max(TwoRay::NEAR_FIELD);
        pt * self.k() / (d * d)
    }

    fn required_tx_power(&self, pr: f64, d: f64) -> f64 {
        assert!(pr >= 0.0 && d >= 0.0, "powers and distances must be ≥ 0");
        let d = d.max(TwoRay::NEAR_FIELD);
        pr * d * d / self.k()
    }

    fn max_range(&self, pt: f64, pr_min: f64) -> f64 {
        assert!(pt >= 0.0 && pr_min >= 0.0, "powers must be ≥ 0");
        if pt == 0.0 {
            return 0.0;
        }
        if pr_min == 0.0 {
            return f64::INFINITY;
        }
        (pt * self.k() / pr_min).sqrt()
    }
}

/// Log-distance path loss: `Pr = Pt · K · (d0 / d)^γ` — free-space-like
/// decay `γ` anchored at a measured reference distance `d0` with gain
/// `K` (the received-power fraction at `d0`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogDistance {
    d0: f64,
    k: f64,
    gamma: f64,
}

impl LogDistance {
    /// Creates a model with reference distance `d0`, reference gain `k`
    /// (received/transmitted power ratio at `d0`) and exponent `gamma`.
    ///
    /// # Panics
    /// Panics unless all parameters are positive and `gamma ≥ 1`.
    pub fn new(d0: f64, k: f64, gamma: f64) -> Self {
        assert!(d0.is_finite() && d0 > 0.0, "d0 must be > 0, got {d0}");
        assert!(k.is_finite() && k > 0.0, "k must be > 0, got {k}");
        assert!(
            gamma.is_finite() && gamma >= 1.0,
            "gamma must be ≥ 1, got {gamma}"
        );
        LogDistance { d0, k, gamma }
    }

    /// The path-loss exponent γ.
    pub fn gamma(&self) -> f64 {
        self.gamma
    }
}

impl PathLoss for LogDistance {
    fn received_power(&self, pt: f64, d: f64) -> f64 {
        assert!(pt >= 0.0 && d >= 0.0, "powers and distances must be ≥ 0");
        let d = d.max(TwoRay::NEAR_FIELD);
        pt * self.k * (self.d0 / d).powf(self.gamma)
    }

    fn required_tx_power(&self, pr: f64, d: f64) -> f64 {
        assert!(pr >= 0.0 && d >= 0.0, "powers and distances must be ≥ 0");
        let d = d.max(TwoRay::NEAR_FIELD);
        pr / (self.k * (self.d0 / d).powf(self.gamma))
    }

    fn max_range(&self, pt: f64, pr_min: f64) -> f64 {
        assert!(pt >= 0.0 && pr_min >= 0.0, "powers must be ≥ 0");
        if pt == 0.0 {
            return 0.0;
        }
        if pr_min == 0.0 {
            return f64::INFINITY;
        }
        self.d0 * (pt * self.k / pr_min).powf(1.0 / self.gamma)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sag_testkit::prelude::*;

    fn check_roundtrip<M: PathLoss>(m: &M, pt: f64, d: f64) {
        let pr = m.received_power(pt, d);
        assert!((m.required_tx_power(pr, d) - pt).abs() / pt < 1e-9);
        let range = m.max_range(pt, pr);
        assert!((range - d).abs() / d < 1e-9, "range {range} vs d {d}");
    }

    #[test]
    fn freespace_follows_inverse_square() {
        let m = FreeSpace::new(0.125); // 2.4 GHz
        let p1 = m.received_power(1.0, 10.0);
        let p2 = m.received_power(1.0, 20.0);
        assert!((p1 / p2 - 4.0).abs() < 1e-9);
        check_roundtrip(&m, 2.0, 35.0);
    }

    #[test]
    fn log_distance_reference_gain() {
        let m = LogDistance::new(10.0, 1e-4, 3.0);
        // At d0 the received fraction is exactly k.
        assert!((m.received_power(1.0, 10.0) - 1e-4).abs() < 1e-12);
        // One decade further: 10^-γ less.
        assert!((m.received_power(1.0, 100.0) - 1e-7).abs() < 1e-15);
        check_roundtrip(&m, 0.5, 42.0);
    }

    #[test]
    fn two_ray_trait_object_usable() {
        let models: Vec<Box<dyn PathLoss>> = vec![
            Box::new(TwoRay::new(1.0, 3.0)),
            Box::new(FreeSpace::new(0.125)),
            Box::new(LogDistance::new(10.0, 1e-4, 3.0)),
        ];
        for m in &models {
            let pr = m.received_power(1.0, 50.0);
            assert!(pr > 0.0 && pr < 1.0);
            assert!(m.max_range(1.0, pr * 2.0) < 50.0);
        }
    }

    #[test]
    fn log_distance_matches_two_ray_when_aligned() {
        // LogDistance with k = G·d0^{-α} and γ = α is exactly TwoRay.
        let alpha = 3.0;
        let g = 2.0;
        let d0 = 10.0;
        let tr = TwoRay::new(g, alpha);
        let ld = LogDistance::new(d0, g * d0.powf(-alpha), alpha);
        for d in [5.0, 20.0, 80.0, 300.0] {
            let a = tr.received_power(1.0, d);
            let b = ld.received_power(1.0, d);
            assert!((a - b).abs() / a < 1e-12, "mismatch at d={d}");
        }
    }

    #[test]
    #[should_panic]
    fn bad_wavelength_panics() {
        FreeSpace::new(0.0);
    }

    #[test]
    #[should_panic]
    fn bad_gamma_panics() {
        LogDistance::new(1.0, 1.0, 0.5);
    }

    prop! {
        fn prop_monotone_decay(d1 in 1.0..400.0f64, d2 in 1.0..400.0f64, gamma in 2.0..4.0f64) {
            prop_assume!(d1 < d2);
            let models: Vec<Box<dyn PathLoss>> = vec![
                Box::new(TwoRay::new(1.0, gamma)),
                Box::new(FreeSpace::new(0.125)),
                Box::new(LogDistance::new(10.0, 1e-3, gamma)),
            ];
            for m in &models {
                prop_assert!(m.received_power(1.0, d1) >= m.received_power(1.0, d2));
            }
        }

        fn prop_roundtrips(pt in 0.01..10.0f64, d in 1.0..300.0f64, gamma in 2.0..4.0f64) {
            check_roundtrip(&TwoRay::new(1.5, gamma), pt, d);
            check_roundtrip(&FreeSpace::new(0.3), pt, d);
            check_roundtrip(&LogDistance::new(7.0, 1e-3, gamma), pt, d);
        }
    }
}
