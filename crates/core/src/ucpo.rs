//! Upper-tier Connectivity Power Optimization — UCPO (Algorithm 8) and
//! the all-`Pmax` upper-tier baseline.
//!
//! For each coverage relay `r_i`, the received-power requirement on its
//! relay links is `P_rs^i = max` of its subscribers' `P_ss` (the chain
//! must sustain the largest per-subscriber rate it aggregates). The chain
//! toward the parent is split into `N_i` equal hops of length
//! `D_i = ‖e‖ / N_i`, and every transmitter on it (the coverage relay's
//! uplink radio plus each steiner relay) gets the minimum power
//! delivering `P_rs^i` over one hop: `p_ij = P_rs^i · D_i^α / G`.

use crate::coverage::CoverageSolution;
use crate::mbmc::ConnectivityPlan;
use crate::model::Scenario;
use crate::pro::PowerAllocation;

/// Per-chain hop power and totals computed by UCPO.
#[derive(Debug, Clone)]
pub struct UpperTierPower {
    /// For each chain (same order as the plan's), the power of each of
    /// its transmitters.
    pub hop_power: Vec<f64>,
    /// Number of transmitters per chain (`N_i`).
    pub hops: Vec<usize>,
}

impl UpperTierPower {
    /// Total upper-tier power `P_H = Σ_i N_i · p_i`.
    pub fn total(&self) -> f64 {
        self.hop_power
            .iter()
            .zip(&self.hops)
            .map(|(&p, &n)| p * n as f64)
            .sum()
    }

    /// Flat per-transmitter allocation (chain order, hop order).
    pub fn flatten(&self) -> PowerAllocation {
        let mut powers = Vec::new();
        for (&p, &n) in self.hop_power.iter().zip(&self.hops) {
            powers.extend(std::iter::repeat_n(p, n));
        }
        PowerAllocation {
            powers,
            truncated: false,
        }
    }
}

/// Runs UCPO (Algorithm 8) over a connectivity plan.
///
/// Powers are clamped to `Pmax`; a hop longer than the `Pmax` range of
/// its requirement cannot occur because steinerization bounds every hop
/// by the chain's effective feasible distance.
pub fn ucpo(
    scenario: &Scenario,
    coverage: &CoverageSolution,
    plan: &ConnectivityPlan,
) -> UpperTierPower {
    let _stage = sag_obs::span("ucpo");
    let model = scenario.params.link.model();
    let pmax = scenario.params.link.pmax();

    // P_rs per coverage relay: max P_ss over its subscribers.
    let mut prs = vec![0.0f64; coverage.n_relays()];
    for (j, &r) in coverage.assignment.iter().enumerate() {
        prs[r] = prs[r].max(scenario.params.pss_for(&scenario.subscribers[j]));
    }

    let mut hop_power = Vec::with_capacity(plan.chains.len());
    let mut hops = Vec::with_capacity(plan.chains.len());
    for chain in &plan.chains {
        let p = model
            .required_tx_power(prs[chain.child], chain.hop_length)
            .min(pmax);
        hop_power.push(p);
        hops.push(chain.hops);
    }
    UpperTierPower { hop_power, hops }
}

/// The all-`Pmax` upper-tier baseline: every relay-link transmitter at
/// maximum power.
pub fn baseline_upper_power(scenario: &Scenario, plan: &ConnectivityPlan) -> UpperTierPower {
    let pmax = scenario.params.link.pmax();
    UpperTierPower {
        hop_power: vec![pmax; plan.chains.len()],
        hops: plan.chains.iter().map(|c| c.hops).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mbmc::mbmc;
    use crate::model::{BaseStation, NetworkParams, Scenario, Subscriber};
    use sag_geom::{Point, Rect};

    fn scenario(subs: Vec<(f64, f64, f64)>, bss: Vec<(f64, f64)>) -> Scenario {
        Scenario::new(
            Rect::centered_square(600.0),
            subs.into_iter()
                .map(|(x, y, d)| Subscriber::new(Point::new(x, y), d))
                .collect(),
            bss.into_iter()
                .map(|(x, y)| BaseStation::new(Point::new(x, y)))
                .collect(),
            NetworkParams::default(),
        )
        .unwrap()
    }

    #[test]
    fn hop_power_is_per_hop_requirement() {
        // Relay on the subscriber, BS 100 away, feasible distance 25 →
        // 4 hops of 25. P_rs = Pmax·G·25^{-α}; hop power =
        // P_rs·25^α/G = Pmax·(25/25)^α = Pmax·1 → exactly Pmax.
        let sc = scenario(vec![(0.0, 0.0, 25.0)], vec![(100.0, 0.0)]);
        let coverage = CoverageSolution {
            relays: vec![Point::new(0.0, 0.0)],
            assignment: vec![0],
        };
        let plan = mbmc(&sc, &coverage).unwrap();
        let up = ucpo(&sc, &coverage, &plan);
        assert_eq!(up.hops, vec![4]);
        assert!((up.hop_power[0] - sc.params.link.pmax()).abs() < 1e-9);
        assert!((up.total() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn shorter_hops_cost_less() {
        // BS 90 away, feasible 30: 3 hops of 30 → hop power = Pmax.
        // BS 80 away, feasible 30: 3 hops of 26.67 → hop power < Pmax.
        let sc1 = scenario(vec![(0.0, 0.0, 30.0)], vec![(90.0, 0.0)]);
        let sc2 = scenario(vec![(0.0, 0.0, 30.0)], vec![(80.0, 0.0)]);
        let cov = CoverageSolution {
            relays: vec![Point::new(0.0, 0.0)],
            assignment: vec![0],
        };
        let p1 = ucpo(&sc1, &cov, &mbmc(&sc1, &cov).unwrap());
        let p2 = ucpo(&sc2, &cov, &mbmc(&sc2, &cov).unwrap());
        assert!((p1.hop_power[0] - 1.0).abs() < 1e-9);
        assert!(p2.hop_power[0] < 1.0);
    }

    #[test]
    fn ucpo_never_exceeds_baseline() {
        let sc = scenario(
            vec![(0.0, 0.0, 30.0), (100.0, 50.0, 35.0), (-120.0, -40.0, 32.0)],
            vec![(250.0, 250.0), (-250.0, -250.0)],
        );
        let coverage = CoverageSolution {
            relays: vec![
                Point::new(0.0, 0.0),
                Point::new(100.0, 50.0),
                Point::new(-120.0, -40.0),
            ],
            assignment: vec![0, 1, 2],
        };
        let plan = mbmc(&sc, &coverage).unwrap();
        let opt = ucpo(&sc, &coverage, &plan);
        let base = baseline_upper_power(&sc, &plan);
        assert!(opt.total() <= base.total() + 1e-12);
        assert_eq!(opt.flatten().powers.len(), base.flatten().powers.len());
    }

    #[test]
    fn prs_uses_strictest_subscriber() {
        // Two subscribers on one relay: the smaller feasible distance
        // (higher P_ss) drives the chain requirement.
        let sc = scenario(vec![(0.0, 0.0, 10.0), (1.0, 0.0, 40.0)], vec![(60.0, 0.0)]);
        let cov = CoverageSolution {
            relays: vec![Point::new(0.0, 0.0)],
            assignment: vec![0, 0],
        };
        let plan = mbmc(&sc, &cov).unwrap();
        let up = ucpo(&sc, &cov, &plan);
        // eff distance = 10 → 6 hops of 10; P_rs = Pmax·10^{-3};
        // hop power = Pmax·(10/10)³ = Pmax.
        assert_eq!(up.hops, vec![6]);
        assert!((up.hop_power[0] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn flatten_matches_totals() {
        let sc = scenario(vec![(0.0, 0.0, 30.0)], vec![(100.0, 0.0)]);
        let cov = CoverageSolution {
            relays: vec![Point::new(0.0, 0.0)],
            assignment: vec![0],
        };
        let plan = mbmc(&sc, &cov).unwrap();
        let up = ucpo(&sc, &cov, &plan);
        assert!((up.flatten().total() - up.total()).abs() < 1e-12);
    }
}
