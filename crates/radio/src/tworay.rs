//! The two-ray ground path-loss model of Eq. (2.1).
//!
//! `Pr = Pt · Gt · Gr · ht² · hr² · d^{-α}`. The antenna gains and tower
//! heights are folded into a single constant `G = Gt·Gr·ht²·hr²`, exactly
//! as the paper does in constraints (3.8)–(3.9) and in the Zone Partition
//! algorithm (`P_max · G · d_max^{-α} = N_max`).

use std::fmt;

/// Two-ray ground propagation model with folded gain constant.
///
/// # Example
/// ```
/// use sag_radio::TwoRay;
/// let m = TwoRay::new(1.0, 3.0);
/// let pr = m.received_power(8.0, 2.0);
/// assert!((pr - 1.0).abs() < 1e-12); // 8 / 2³
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TwoRay {
    g: f64,
    alpha: f64,
}

impl TwoRay {
    /// Creates a model with gain constant `g = Gt·Gr·ht²·hr²` and
    /// attenuation exponent `alpha` (the paper uses `α ∈ [2, 4]`).
    ///
    /// # Panics
    /// Panics unless `g > 0` and `alpha >= 1`, both finite.
    pub fn new(g: f64, alpha: f64) -> Self {
        assert!(
            g.is_finite() && g > 0.0,
            "gain constant must be > 0, got {g}"
        );
        assert!(
            alpha.is_finite() && alpha >= 1.0,
            "attenuation exponent must be ≥ 1, got {alpha}"
        );
        TwoRay { g, alpha }
    }

    /// Builds the model from explicit antenna parameters:
    /// transmitter/receiver gains `gt`, `gr` and tower heights `ht`, `hr`.
    ///
    /// # Panics
    /// Panics if any parameter is non-positive or `alpha < 1`.
    pub fn from_antennas(gt: f64, gr: f64, ht: f64, hr: f64, alpha: f64) -> Self {
        assert!(
            gt > 0.0 && gr > 0.0 && ht > 0.0 && hr > 0.0,
            "antenna parameters must be > 0"
        );
        TwoRay::new(gt * gr * ht * ht * hr * hr, alpha)
    }

    /// The folded gain constant `G`.
    #[inline]
    pub fn gain(&self) -> f64 {
        self.g
    }

    /// The attenuation exponent `α`.
    #[inline]
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Received power at distance `d` for transmit power `pt`:
    /// `Pr = Pt·G·d^{-α}`.
    ///
    /// Distances below [`TwoRay::NEAR_FIELD`] are clamped to it — the
    /// far-field model diverges as `d → 0` and stations are never
    /// physically co-located.
    ///
    /// # Panics
    /// Panics if `pt < 0` or `d < 0`.
    pub fn received_power(&self, pt: f64, d: f64) -> f64 {
        assert!(pt >= 0.0, "transmit power must be ≥ 0, got {pt}");
        assert!(d >= 0.0, "distance must be ≥ 0, got {d}");
        let d = d.max(Self::NEAR_FIELD);
        pt * self.g * d.powf(-self.alpha)
    }

    /// Minimum near-field distance; receivers closer than this are treated
    /// as being at this distance.
    pub const NEAR_FIELD: f64 = 1e-3;

    /// [`TwoRay::received_power`] for recomputes that sum many terms,
    /// such as the interference ledger's audit: at `α = 3` the factor
    /// `d^{-3}` is `1/(d·d·d)` instead of `powf`, so a term may differ
    /// from `received_power` by a few ulps; at any other `α` it is
    /// `received_power` exactly.
    #[inline]
    pub(crate) fn received_power_closed_form(&self, pt: f64, d: f64) -> f64 {
        if self.alpha != 3.0 {
            return self.received_power(pt, d);
        }
        let d = d.max(Self::NEAR_FIELD);
        pt * self.g / (d * d * d)
    }

    /// Transmit power needed so the receiver at distance `d` gets `pr`:
    /// the inverse of [`TwoRay::received_power`].
    ///
    /// # Panics
    /// Panics if `pr < 0` or `d < 0`.
    pub fn required_tx_power(&self, pr: f64, d: f64) -> f64 {
        assert!(pr >= 0.0, "received power must be ≥ 0, got {pr}");
        assert!(d >= 0.0, "distance must be ≥ 0, got {d}");
        let d = d.max(Self::NEAR_FIELD);
        pr * d.powf(self.alpha) / self.g
    }

    /// Maximum distance at which transmit power `pt` still delivers
    /// received power `pr_min`: `d = (Pt·G / Pr)^{1/α}`.
    ///
    /// Returns `0.0` when `pt == 0`, and `f64::INFINITY` when
    /// `pr_min == 0`.
    ///
    /// # Panics
    /// Panics if `pt < 0` or `pr_min < 0`.
    pub fn max_range(&self, pt: f64, pr_min: f64) -> f64 {
        assert!(pt >= 0.0 && pr_min >= 0.0, "powers must be ≥ 0");
        if pt == 0.0 {
            return 0.0;
        }
        if pr_min == 0.0 {
            return f64::INFINITY;
        }
        (pt * self.g / pr_min).powf(1.0 / self.alpha)
    }

    /// The `d_max` of the Zone Partition algorithm: the distance beyond
    /// which a station transmitting at `pmax` contributes at most
    /// `n_max` of noise — i.e. solves `Pmax·G·d^{-α} = Nmax`.
    ///
    /// # Panics
    /// Panics unless `pmax > 0` and `n_max > 0`.
    pub fn ignorable_noise_distance(&self, pmax: f64, n_max: f64) -> f64 {
        assert!(pmax > 0.0 && n_max > 0.0, "pmax and n_max must be > 0");
        (pmax * self.g / n_max).powf(1.0 / self.alpha)
    }
}

impl Default for TwoRay {
    /// The reproduction's default: `G = 1`, `α = 3`.
    fn default() -> Self {
        TwoRay::new(1.0, 3.0)
    }
}

impl fmt::Display for TwoRay {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TwoRay(G={:.3e}, α={:.2})", self.g, self.alpha)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sag_testkit::prelude::*;

    #[test]
    fn power_law() {
        let m = TwoRay::new(2.0, 3.0);
        assert!((m.received_power(1.0, 2.0) - 0.25).abs() < 1e-12);
        // Doubling the distance with α=3 cuts power by 8.
        let p1 = m.received_power(1.0, 10.0);
        let p2 = m.received_power(1.0, 20.0);
        assert!((p1 / p2 - 8.0).abs() < 1e-9);
    }

    #[test]
    fn antenna_folding() {
        let m = TwoRay::from_antennas(2.0, 3.0, 1.5, 0.5, 2.0);
        assert!((m.gain() - 2.0 * 3.0 * 2.25 * 0.25).abs() < 1e-12);
    }

    #[test]
    fn inverse_relations() {
        let m = TwoRay::new(0.7, 3.3);
        let pr = m.received_power(5.0, 37.0);
        assert!((m.required_tx_power(pr, 37.0) - 5.0).abs() < 1e-9);
        let d = m.max_range(5.0, pr);
        assert!((d - 37.0).abs() < 1e-9);
    }

    #[test]
    fn near_field_clamp() {
        let m = TwoRay::default();
        let at_zero = m.received_power(1.0, 0.0);
        let at_near = m.received_power(1.0, TwoRay::NEAR_FIELD);
        assert_eq!(at_zero, at_near);
        assert!(at_zero.is_finite());
    }

    #[test]
    fn range_edge_cases() {
        let m = TwoRay::default();
        assert_eq!(m.max_range(0.0, 1.0), 0.0);
        assert_eq!(m.max_range(1.0, 0.0), f64::INFINITY);
    }

    #[test]
    fn zone_partition_dmax() {
        let m = TwoRay::new(1.0, 3.0);
        let dmax = m.ignorable_noise_distance(1.0, 1e-6);
        // 1·1·d⁻³ = 1e-6  →  d = 100.
        assert!((dmax - 100.0).abs() < 1e-9);
        // At that distance the received power equals Nmax.
        assert!((m.received_power(1.0, dmax) - 1e-6).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn zero_gain_panics() {
        TwoRay::new(0.0, 3.0);
    }

    #[test]
    #[should_panic]
    fn sub_linear_alpha_panics() {
        TwoRay::new(1.0, 0.5);
    }

    prop! {
        fn prop_monotone_in_distance(
            g in 0.1..10.0f64, alpha in 2.0..4.0f64,
            d1 in 1.0..500.0f64, d2 in 1.0..500.0f64,
        ) {
            prop_assume!(d1 < d2);
            let m = TwoRay::new(g, alpha);
            prop_assert!(m.received_power(1.0, d1) > m.received_power(1.0, d2));
        }

        fn prop_tx_rx_roundtrip(
            g in 0.1..10.0f64, alpha in 2.0..4.0f64,
            pt in 0.01..100.0f64, d in 0.5..500.0f64,
        ) {
            let m = TwoRay::new(g, alpha);
            let pr = m.received_power(pt, d);
            prop_assert!((m.required_tx_power(pr, d) - pt).abs() / pt < 1e-9);
        }

        fn prop_max_range_consistent(
            g in 0.1..10.0f64, alpha in 2.0..4.0f64,
            pt in 0.01..100.0f64, pr in 1e-9..1e-3f64,
        ) {
            let m = TwoRay::new(g, alpha);
            let d = m.max_range(pt, pr);
            // Just inside the range the delivered power meets the floor.
            prop_assert!(m.received_power(pt, d * 0.999) >= pr);
            // Just outside it does not.
            prop_assert!(m.received_power(pt, d * 1.001) <= pr);
        }
    }
}
