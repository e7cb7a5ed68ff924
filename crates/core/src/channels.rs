//! Channel assignment — frequency reuse against co-channel interference.
//!
//! **Extension beyond the paper.** The paper keeps every relay on one
//! shared channel and repairs SNR by *moving* relays. Real small-cell
//! deployments also get to split relays across orthogonal channels: a
//! subscriber then only hears interference from relays on its server's
//! channel. This module computes a small channel plan that makes a
//! placement SNR-feasible:
//!
//! 1. build a *conflict graph* over the coverage relays — an edge joins
//!    `r` and `k` when co-channel operation at `Pmax` would break the
//!    pairwise SNR of one of their subscribers;
//! 2. color it with DSATUR (`sag-graph`);
//! 3. verify the *full* (not just pairwise) SNR per channel and add
//!    conflict edges for any residual violation, recoloring until clean —
//!    the loop terminates because each round adds an edge and the
//!    all-distinct-channels coloring is always feasible.

use sag_graph::{coloring, Graph};

use crate::coverage::CoverageSolution;
use crate::model::Scenario;

/// A channel plan for the coverage relays.
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelPlan {
    /// Channel index per relay (channels are `0..n_channels`).
    pub channel: Vec<usize>,
    /// Number of orthogonal channels used.
    pub n_channels: usize,
    /// Conflict-resolution rounds the verifier needed.
    pub rounds: usize,
}

/// SNR of subscriber `j` when interference comes only from the relays
/// sharing its server's channel (all at `Pmax`).
pub fn co_channel_snr(
    scenario: &Scenario,
    sol: &CoverageSolution,
    channel: &[usize],
    j: usize,
) -> f64 {
    let model = scenario.params.link.model();
    let pmax = scenario.params.link.pmax();
    let r = sol.assignment[j];
    let spos = scenario.subscribers[j].position;
    let signal = model.received_power(pmax, sol.relays[r].distance(spos));
    let interference: f64 = sol
        .relays
        .iter()
        .enumerate()
        .filter(|&(k, _)| k != r && channel[k] == channel[r])
        .map(|(_, &rp)| model.received_power(pmax, rp.distance(spos)))
        .sum();
    if interference <= 0.0 {
        f64::INFINITY
    } else {
        signal / interference
    }
}

/// Computes a channel plan making every subscriber's SNR feasible under
/// `Pmax` operation. Always succeeds: in the worst case every relay gets
/// its own channel, which removes all interference.
///
/// # Panics
/// Panics if the solution's assignment is inconsistent with the scenario.
pub fn assign_channels(scenario: &Scenario, sol: &CoverageSolution) -> ChannelPlan {
    assert_eq!(
        sol.assignment.len(),
        scenario.n_subscribers(),
        "assignment length mismatch"
    );
    let model = scenario.params.link.model();
    let beta = scenario.params.link.beta();
    let pmax = scenario.params.link.pmax();
    let n = sol.n_relays();

    // Pairwise conflicts: relay k alone would push subscriber j of relay
    // r below β.
    let mut g = Graph::new(n);
    let mut edges: std::collections::HashSet<(usize, usize)> = Default::default();
    let add_edge = |g: &mut Graph,
                    a: usize,
                    b: usize,
                    edges: &mut std::collections::HashSet<(usize, usize)>| {
        let key = (a.min(b), a.max(b));
        if a != b && edges.insert(key) {
            g.add_edge(key.0, key.1, 1.0);
        }
    };
    for (j, &r) in sol.assignment.iter().enumerate() {
        let spos = scenario.subscribers[j].position;
        let signal = model.received_power(pmax, sol.relays[r].distance(spos));
        for (k, &kp) in sol.relays.iter().enumerate() {
            if k == r {
                continue;
            }
            let interference = model.received_power(pmax, kp.distance(spos));
            if signal < beta * interference {
                add_edge(&mut g, r, k, &mut edges);
            }
        }
    }

    // Color, verify aggregate SNR, tighten, repeat.
    let mut rounds = 0usize;
    loop {
        rounds += 1;
        let channel = coloring::dsatur(&g);
        debug_assert!(coloring::is_proper(&g, &channel));
        let mut clean = true;
        for (j, &r) in sol.assignment.iter().enumerate() {
            if co_channel_snr(scenario, sol, &channel, j) >= beta - 1e-12 {
                continue;
            }
            clean = false;
            // Separate the server from its strongest same-channel
            // interferer for this subscriber.
            let spos = scenario.subscribers[j].position;
            let worst = sol
                .relays
                .iter()
                .enumerate()
                .filter(|&(k, _)| k != r && channel[k] == channel[r])
                .max_by(|a, b| {
                    sag_geom::float::total_cmp(
                        &model.received_power(pmax, a.1.distance(spos)),
                        &model.received_power(pmax, b.1.distance(spos)),
                    )
                })
                .map(|(k, _)| k)
                .expect("a violated subscriber has a same-channel interferer");
            add_edge(&mut g, r, worst, &mut edges);
        }
        if clean {
            let n_channels = coloring::color_count(&channel);
            return ChannelPlan {
                channel,
                n_channels,
                rounds,
            };
        }
        // Termination: at most C(n,2) edges can ever be added, and the
        // complete graph's coloring (all distinct) is trivially clean.
    }
}

/// Returns `true` if the plan clears every subscriber's SNR threshold.
pub fn plan_is_feasible(scenario: &Scenario, sol: &CoverageSolution, plan: &ChannelPlan) -> bool {
    let beta = scenario.params.link.beta();
    (0..scenario.n_subscribers())
        .all(|j| co_channel_snr(scenario, sol, &plan.channel, j) >= beta - 1e-12)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::samc::samc;
    use crate::testing::scenario;
    use sag_geom::Point;

    #[test]
    fn benign_placement_uses_one_channel() {
        let sc = scenario(vec![(0.0, 0.0, 30.0), (200.0, 0.0, 30.0)], -15.0);
        let sol = samc(&sc).unwrap();
        let plan = assign_channels(&sc, &sol);
        assert_eq!(plan.n_channels, 1);
        assert!(plan_is_feasible(&sc, &sol, &plan));
    }

    #[test]
    fn impossible_co_channel_case_splits_channels() {
        // The double-cluster trap that sliding cannot fix at +20 dB:
        // channel separation fixes it with two channels.
        let sc = scenario(
            vec![
                (0.0, -6.0, 6.5),
                (0.0, 6.0, 6.5),
                (12.0, -6.0, 6.5),
                (12.0, 6.0, 6.5),
            ],
            20.0,
        );
        let sol = CoverageSolution {
            relays: vec![Point::new(0.0, 0.0), Point::new(12.0, 0.0)],
            assignment: vec![0, 0, 1, 1],
        };
        let plan = assign_channels(&sc, &sol);
        assert_eq!(plan.n_channels, 2);
        assert_ne!(plan.channel[0], plan.channel[1]);
        assert!(plan_is_feasible(&sc, &sol, &plan));
    }

    #[test]
    fn aggregate_violations_fixed_by_verifier_rounds() {
        // Several relays each individually tolerable but collectively
        // violating at a strict threshold: the pairwise graph alone may
        // be edgeless, forcing the verification loop to do the work.
        let sc = scenario(
            vec![
                (0.0, 0.0, 20.0),
                (60.0, 0.0, 20.0),
                (0.0, 60.0, 20.0),
                (60.0, 60.0, 20.0),
            ],
            8.0,
        );
        let sol = CoverageSolution {
            relays: vec![
                Point::new(18.0, 0.0),
                Point::new(42.0, 0.0),
                Point::new(0.0, 42.0),
                Point::new(60.0, 42.0),
            ],
            assignment: vec![0, 1, 2, 3],
        };
        let plan = assign_channels(&sc, &sol);
        assert!(plan_is_feasible(&sc, &sol, &plan));
        assert!(plan.n_channels <= sol.n_relays());
    }

    #[test]
    fn channels_never_exceed_relays() {
        for seed_subs in [
            vec![(0.0, 0.0, 35.0), (10.0, 0.0, 35.0), (20.0, 0.0, 35.0)],
            vec![
                (0.0, 0.0, 30.0),
                (100.0, 0.0, 30.0),
                (0.0, 100.0, 30.0),
                (100.0, 100.0, 30.0),
            ],
        ] {
            let sc = scenario(seed_subs, 3.0);
            if let Ok(sol) = samc(&sc) {
                let plan = assign_channels(&sc, &sol);
                assert!(plan.n_channels <= sol.n_relays().max(1));
                assert!(plan_is_feasible(&sc, &sol, &plan));
            }
        }
    }

    #[test]
    fn co_channel_snr_single_relay_infinite() {
        let sc = scenario(vec![(0.0, 0.0, 30.0)], -15.0);
        let sol = CoverageSolution {
            relays: vec![Point::new(1.0, 0.0)],
            assignment: vec![0],
        };
        assert!(co_channel_snr(&sc, &sol, &[0], 0).is_infinite());
    }
}
