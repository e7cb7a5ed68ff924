//! Network-lifetime analysis under battery-powered relays.
//!
//! **Extension beyond the paper.** The related work the paper builds on
//! (\[12\] Hou et al., \[13\] Xu/Hassanein et al., \[14\] Pan et al.) studies
//! relay deployment for *network lifetime*. This module closes the loop:
//! given a power allocation (PRO, UCPO, or the all-`Pmax` baseline) and
//! per-relay battery capacities, it computes how long the network lives,
//! so a green allocation's lifetime can be set against the baseline's.
//!
//! Lifetime here is the classic first-failure definition: the network is
//! alive while *every* relay is alive, so
//! `lifetime = min_i capacity_i / power_i` (a relay idling at zero power
//! never dies).

use crate::pro::PowerAllocation;

/// Battery capacities per relay, in energy units (power·time).
#[derive(Debug, Clone, PartialEq)]
pub struct BatteryBank {
    capacities: Vec<f64>,
}

impl BatteryBank {
    /// Creates a bank from explicit capacities.
    ///
    /// # Panics
    /// Panics if any capacity is non-positive or not finite.
    pub fn new(capacities: Vec<f64>) -> Self {
        assert!(
            capacities.iter().all(|c| c.is_finite() && *c > 0.0),
            "battery capacities must be finite and > 0"
        );
        BatteryBank { capacities }
    }

    /// A uniform bank: `n` relays with equal `capacity`.
    ///
    /// # Panics
    /// Panics unless `capacity > 0` and finite.
    pub fn uniform(n: usize, capacity: f64) -> Self {
        assert!(
            capacity.is_finite() && capacity > 0.0,
            "capacity must be > 0"
        );
        BatteryBank {
            capacities: vec![capacity; n],
        }
    }

    /// Number of batteries.
    pub fn len(&self) -> usize {
        self.capacities.len()
    }

    /// Returns `true` for an empty bank.
    pub fn is_empty(&self) -> bool {
        self.capacities.is_empty()
    }

    /// Per-relay capacities.
    pub fn capacities(&self) -> &[f64] {
        &self.capacities
    }
}

/// Lifetime analysis of one power allocation against a battery bank.
#[derive(Debug, Clone, PartialEq)]
pub struct LifetimeReport {
    /// Time until the first relay battery dies (`f64::INFINITY` when
    /// every relay draws zero power).
    pub first_failure: f64,
    /// Index of the first relay to die (`None` when none ever does).
    pub bottleneck: Option<usize>,
    /// Per-relay time-to-death.
    pub per_relay: Vec<f64>,
}

/// Computes the lifetime of `alloc` on `bank`.
///
/// # Panics
/// Panics if the allocation and bank sizes differ, or any power is
/// negative.
pub fn lifetime(alloc: &PowerAllocation, bank: &BatteryBank) -> LifetimeReport {
    assert_eq!(
        alloc.powers.len(),
        bank.len(),
        "allocation ({}) and battery bank ({}) size mismatch",
        alloc.powers.len(),
        bank.len()
    );
    let per_relay: Vec<f64> = alloc
        .powers
        .iter()
        .zip(bank.capacities())
        .map(|(&p, &c)| {
            assert!(p >= 0.0, "negative power");
            if p <= 0.0 {
                f64::INFINITY
            } else {
                c / p
            }
        })
        .collect();
    let (bottleneck, first_failure) = per_relay
        .iter()
        .enumerate()
        .min_by(|a, b| sag_geom::float::total_cmp(a.1, b.1))
        .map(|(i, &t)| (Some(i).filter(|_| t.is_finite()), t))
        .unwrap_or((None, f64::INFINITY));
    LifetimeReport {
        first_failure,
        bottleneck,
        per_relay,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{BaseStation, NetworkParams, Scenario, Subscriber};
    use crate::pro::{baseline_power, pro};
    use crate::samc::samc;
    use sag_geom::{Point, Rect};

    #[test]
    fn basic_lifetime_math() {
        let alloc = PowerAllocation {
            powers: vec![0.5, 1.0, 0.0],
            truncated: false,
        };
        let bank = BatteryBank::new(vec![10.0, 10.0, 10.0]);
        let r = lifetime(&alloc, &bank);
        assert_eq!(r.per_relay, vec![20.0, 10.0, f64::INFINITY]);
        assert_eq!(r.first_failure, 10.0);
        assert_eq!(r.bottleneck, Some(1));
    }

    #[test]
    fn all_idle_network_lives_forever() {
        let alloc = PowerAllocation {
            powers: vec![0.0, 0.0],
            truncated: false,
        };
        let bank = BatteryBank::uniform(2, 5.0);
        let r = lifetime(&alloc, &bank);
        assert!(r.first_failure.is_infinite());
        assert_eq!(r.bottleneck, None);
    }

    #[test]
    fn pro_extends_lifetime_over_baseline() {
        let sc = Scenario::new(
            Rect::centered_square(500.0),
            vec![
                Subscriber::new(Point::new(0.0, 0.0), 35.0),
                Subscriber::new(Point::new(25.0, 5.0), 35.0),
                Subscriber::new(Point::new(140.0, -30.0), 30.0),
            ],
            vec![BaseStation::new(Point::new(200.0, 200.0))],
            NetworkParams::default(),
        )
        .unwrap();
        let sol = samc(&sc).unwrap();
        let bank = BatteryBank::uniform(sol.n_relays(), 100.0);
        let base = lifetime(&baseline_power(&sc, &sol), &bank);
        let green = lifetime(&pro(&sc, &sol), &bank);
        assert!(green.first_failure >= base.first_failure);
        let gain = green.first_failure / base.first_failure;
        assert!(gain >= 1.0, "PRO must never shorten lifetime, gain {gain}");
        // Baseline lifetime with uniform batteries is exactly C / Pmax.
        assert!((base.first_failure - 100.0).abs() < 1e-9);
    }

    #[test]
    fn heterogeneous_batteries_shift_bottleneck() {
        let alloc = PowerAllocation {
            powers: vec![1.0, 1.0],
            truncated: false,
        };
        let bank = BatteryBank::new(vec![5.0, 50.0]);
        let r = lifetime(&alloc, &bank);
        assert_eq!(r.bottleneck, Some(0));
        assert_eq!(r.first_failure, 5.0);
    }

    #[test]
    #[should_panic]
    fn size_mismatch_panics() {
        lifetime(
            &PowerAllocation {
                powers: vec![1.0],
                truncated: false,
            },
            &BatteryBank::uniform(2, 1.0),
        );
    }

    #[test]
    #[should_panic]
    fn zero_capacity_panics() {
        BatteryBank::new(vec![0.0]);
    }
}
