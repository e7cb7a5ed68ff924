//! Signal-to-noise computations.
//!
//! Definition 2 of the paper: if subscriber `s` receives powers
//! `p_1, …, p_n` from the placed relays and is served by relay `j`, its SNR
//! is `p_j / (Σ_i p_i − p_j)` — the serving signal over the sum of all
//! *other* relays' signals. The SNR is interference-limited: thermal noise
//! enters only the capacity↔distance reduction in [`crate::capacity`].

use crate::tworay::TwoRay;
use sag_geom::Point;

/// Interference-limited SNR per Definition 2.
///
/// `received` holds the power received from every relay (including the
/// serving one at `serving_idx`).
///
/// Returns `f64::INFINITY` when there is no interference (single relay or
/// all other powers zero) and the serving power is positive; returns `0.0`
/// when the serving power is zero.
///
/// # Panics
/// Panics if `serving_idx` is out of bounds or any power is negative/NaN.
///
/// # Example
/// ```
/// use sag_radio::snr::snr_interference_limited;
/// let snr = snr_interference_limited(&[1.0, 0.25], 0);
/// assert!((snr - 4.0).abs() < 1e-12);
/// ```
pub fn snr_interference_limited(received: &[f64], serving_idx: usize) -> f64 {
    assert!(
        serving_idx < received.len(),
        "serving index {serving_idx} out of bounds"
    );
    let mut total = 0.0;
    for (i, &p) in received.iter().enumerate() {
        assert!(
            p >= 0.0 && !p.is_nan(),
            "received power {i} must be ≥ 0, got {p}"
        );
        total += p;
    }
    let signal = received[serving_idx];
    let interference = total - signal;
    if signal <= 0.0 {
        0.0
    } else if interference <= 0.0 {
        f64::INFINITY
    } else {
        signal / interference
    }
}

/// Received-power vector at a subscriber location from a set of
/// transmitters with per-transmitter powers, under `model`.
///
/// `transmitters` and `powers` must have equal length.
///
/// # Panics
/// Panics on length mismatch.
pub fn received_powers(
    model: &TwoRay,
    subscriber: Point,
    transmitters: &[Point],
    powers: &[f64],
) -> Vec<f64> {
    assert_eq!(
        transmitters.len(),
        powers.len(),
        "transmitters ({}) and powers ({}) length mismatch",
        transmitters.len(),
        powers.len()
    );
    transmitters
        .iter()
        .zip(powers)
        .map(|(t, &p)| model.received_power(p, t.distance(subscriber)))
        .collect()
}

/// SNR at `subscriber` served by transmitter `serving_idx`, with all
/// transmitter positions and powers given explicitly (Definition 2 applied
/// through the two-ray model).
///
/// This is the workhorse predicate behind constraint (3.5): with all
/// relays at `Pmax` the powers cancel and the SNR depends only on
/// distances, but the general form is needed by PRO and the LPQC.
pub fn placement_snr(
    model: &TwoRay,
    subscriber: Point,
    transmitters: &[Point],
    powers: &[f64],
    serving_idx: usize,
) -> f64 {
    let rx = received_powers(model, subscriber, transmitters, powers);
    snr_interference_limited(&rx, serving_idx)
}

/// The uniform-power specialisation of constraint (3.5): all relays
/// transmit the same power, so SNR reduces to
/// `d_aj^{-α} / (Σ_i d_ij^{-α} − d_aj^{-α})` and the power level cancels.
pub fn placement_snr_uniform(
    model: &TwoRay,
    subscriber: Point,
    transmitters: &[Point],
    serving_idx: usize,
) -> f64 {
    let powers = vec![1.0; transmitters.len()];
    placement_snr(model, subscriber, transmitters, &powers, serving_idx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sag_testkit::prelude::*;

    #[test]
    fn definition_two() {
        // p_j / (Σ p_i − p_j)
        let snr = snr_interference_limited(&[3.0, 1.0, 2.0], 0);
        assert!((snr - 1.0).abs() < 1e-12);
        let snr = snr_interference_limited(&[3.0, 1.0, 2.0], 1);
        assert!((snr - 0.2).abs() < 1e-12);
    }

    #[test]
    fn no_interference_is_infinite() {
        assert_eq!(snr_interference_limited(&[5.0], 0), f64::INFINITY);
        assert_eq!(snr_interference_limited(&[5.0, 0.0], 0), f64::INFINITY);
    }

    #[test]
    fn zero_signal_is_zero() {
        assert_eq!(snr_interference_limited(&[0.0, 1.0], 0), 0.0);
    }

    #[test]
    fn placement_snr_uniform_cancels_power() {
        let m = TwoRay::new(1.0, 3.0);
        let s = Point::new(0.0, 0.0);
        let tx = [Point::new(10.0, 0.0), Point::new(40.0, 0.0)];
        let u = placement_snr_uniform(&m, s, &tx, 0);
        for p in [0.1, 1.0, 17.0] {
            let powers = vec![p, p];
            let v = placement_snr(&m, s, &tx, &powers, 0);
            assert!(
                (u - v).abs() / u < 1e-9,
                "power level leaked into uniform SNR"
            );
        }
        // d=10 vs 40 at α=3: ratio = (40/10)³ = 64.
        assert!((u - 64.0).abs() < 1e-9);
    }

    #[test]
    fn nearer_server_better_snr() {
        let m = TwoRay::default();
        let s = Point::ORIGIN;
        let tx = [Point::new(10.0, 0.0), Point::new(20.0, 0.0)];
        let near = placement_snr_uniform(&m, s, &tx, 0);
        let far = placement_snr_uniform(&m, s, &tx, 1);
        assert!(near > 1.0 && far < 1.0);
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_serving_panics() {
        snr_interference_limited(&[1.0], 1);
    }

    #[test]
    #[should_panic]
    fn negative_power_panics() {
        snr_interference_limited(&[1.0, -0.5], 0);
    }

    #[test]
    #[should_panic]
    fn mismatched_lengths_panic() {
        received_powers(&TwoRay::default(), Point::ORIGIN, &[Point::ORIGIN], &[]);
    }

    prop! {
        fn prop_snr_nonnegative(
            ps in vec_of(0.0..10.0f64, 1..6),
            idx in 0usize..6,
        ) {
            prop_assume!(idx < ps.len());
            let s = snr_interference_limited(&ps, idx);
            prop_assert!(s >= 0.0);
        }

        fn prop_scaling_invariance(
            ps in vec_of(0.01..10.0f64, 2..6),
            idx in 0usize..6,
            k in 0.1..100.0f64,
        ) {
            prop_assume!(idx < ps.len());
            let a = snr_interference_limited(&ps, idx);
            let scaled: Vec<f64> = ps.iter().map(|p| p * k).collect();
            let b = snr_interference_limited(&scaled, idx);
            prop_assert!((a - b).abs() / a.max(1e-12) < 1e-9);
        }

        fn prop_more_interference_lower_snr(
            ps in vec_of(0.01..10.0f64, 2..6),
            extra in 0.01..5.0f64,
        ) {
            let base = snr_interference_limited(&ps, 0);
            let mut worse = ps.clone();
            worse.push(extra);
            let w = snr_interference_limited(&worse, 0);
            prop_assert!(w <= base + 1e-12);
        }
    }
}
