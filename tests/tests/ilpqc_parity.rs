//! ILPQC parity: the kept-session branch-and-bound in
//! `sag_core::ilpqc` must return the same [`IlpqcOutcome`] as the seed
//! solver kept in `sag_core::reference` — relay coordinates to the bit,
//! the assignment, the node count and the optimality flag — and fail
//! the same way when it fails.
//!
//! Inputs are seeded IAC and GAC candidate sets at the Fig. 3(a)–(e)
//! shapes (fields, thresholds, user counts and GAC grids of the paper's
//! sweeps), at the experiments' node limit and truncated to 1 and 50
//! nodes, plus fixed arms at the SNR-repair-heavy thresholds −11.55 dB
//! and −10.5 dB and on the largest Fig. 3(a) GAC sets, where most
//! bounds are reused. `SAG_PROP_CASES` raises the case count for the
//! CI soak.

use std::sync::Arc;

use sag_core::candidates::{gac_candidates, iac_candidates, prune_useless};
use sag_core::error::SagError;
use sag_core::ilpqc::{solve_ilpqc, IlpqcConfig, IlpqcOutcome, LP_BOUND_MIN_CANDS};
use sag_core::model::Scenario;
use sag_core::reference;
use sag_geom::Point;
use sag_sim::experiments::{gac_grid_for, ILPQC_NODE_LIMIT};
use sag_sim::gen::ScenarioSpec;
use sag_testkit::prelude::*;

/// One Fig. 3 panel: its field, the user counts and thresholds it
/// sweeps, and the GAC grids it solves over.
struct Shape {
    panel: &'static str,
    field: f64,
    users: &'static [usize],
    snr_db: &'static [f64],
    grids: &'static [f64],
}

const SHAPES: [Shape; 5] = [
    Shape {
        panel: "3(a)",
        field: 500.0,
        users: &[15, 20, 25, 30, 35, 40, 45, 50],
        snr_db: &[-15.0],
        grids: &[20.0],
    },
    Shape {
        panel: "3(b)",
        field: 800.0,
        users: &[20, 30, 40, 50, 60, 70],
        snr_db: &[-15.0],
        grids: &[32.0],
    },
    Shape {
        panel: "3(c)",
        field: 800.0,
        users: &[50, 55, 60, 65, 70],
        snr_db: &[-40.0],
        grids: &[32.0],
    },
    Shape {
        panel: "3(d)",
        field: 500.0,
        users: &[30],
        snr_db: &[
            -14.0, -13.5, -13.0, -12.5, -12.0, -11.5, -11.0, -10.5, -10.0,
        ],
        grids: &[20.0],
    },
    Shape {
        panel: "3(e)",
        field: 500.0,
        users: &[30],
        snr_db: &[-11.55],
        grids: &[13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0, 20.0],
    },
];

/// Node limits the suite runs at: the experiments' cap, and two that
/// truncate the search.
const NODE_LIMITS: [usize; 3] = [ILPQC_NODE_LIMIT, 1, 50];

fn scenario(field: f64, users: usize, snr_db: f64, seed: u64) -> Scenario {
    ScenarioSpec {
        field_size: field,
        n_subscribers: users,
        snr_db,
        ..Default::default()
    }
    .build(seed)
}

/// The comparable part of a solve: everything but wall-clock time.
#[derive(Debug, PartialEq, Eq)]
enum Seen {
    Solved {
        relay_bits: Vec<(u64, u64)>,
        assignment: Vec<usize>,
        nodes: usize,
        optimal: bool,
    },
    BudgetExceeded {
        stage: &'static str,
        nodes: usize,
    },
    Other(String),
}

fn seen(out: Result<IlpqcOutcome, SagError>) -> Seen {
    match out {
        Ok(o) => Seen::Solved {
            relay_bits: o
                .solution
                .relays
                .iter()
                .map(|p: &Point| (p.x.to_bits(), p.y.to_bits()))
                .collect(),
            assignment: o.solution.assignment,
            nodes: o.nodes,
            optimal: o.optimal,
        },
        Err(SagError::BudgetExceeded { stage, spent }) => Seen::BudgetExceeded {
            stage,
            nodes: spent.nodes,
        },
        Err(e) => Seen::Other(e.to_string()),
    }
}

/// Solves `cands` with both solvers and asserts identical outcomes.
fn assert_parity(sc: &Scenario, cands: &[Point], node_limit: usize, what: &str) {
    let config = IlpqcConfig {
        node_limit,
        ..IlpqcConfig::default()
    };
    let fast = seen(solve_ilpqc(sc, cands, config.clone()));
    let slow = seen(reference::solve_ilpqc(sc, cands, config));
    assert_eq!(
        fast,
        slow,
        "{what}: {} candidates, node limit {node_limit}",
        cands.len()
    );
}

/// Parity over both candidate families of one scenario.
fn assert_parity_iac_gac(sc: &Scenario, grid: f64, node_limit: usize, what: &str) {
    let iac = iac_candidates(sc);
    assert_parity(sc, &iac, node_limit, &format!("{what} IAC"));
    let gac = prune_useless(sc, gac_candidates(sc, grid));
    if !gac.is_empty() {
        assert_parity(sc, &gac, node_limit, &format!("{what} GAC grid {grid}"));
    }
}

prop! {
    /// Seeded Fig. 3(a)–(e) instances: one panel, user count,
    /// threshold, GAC grid and node limit per case.
    #[cases(10)]
    fn ilpqc_matches_reference_on_fig3_shapes(seed in 0u64..1_000_000) {
        let mut rng = Rng::seed_from_u64(seed);
        let shape = &SHAPES[rng.gen_range(0..SHAPES.len())];
        let users = shape.users[rng.gen_range(0..shape.users.len())];
        let snr_db = shape.snr_db[rng.gen_range(0..shape.snr_db.len())];
        let grid = shape.grids[rng.gen_range(0..shape.grids.len())];
        let node_limit = NODE_LIMITS[rng.gen_range(0..NODE_LIMITS.len())];
        let sc = scenario(shape.field, users, snr_db, rng.next_u64() % 1000);
        assert_parity_iac_gac(
            &sc,
            grid,
            node_limit,
            &format!("Fig. {} {users} users {snr_db} dB", shape.panel),
        );
    }
}

/// The SNR-repair-heavy thresholds of Fig. 3(d)/(e) — where distance
/// covers keep failing the SNR check and the search branches on closer
/// candidates — at every node limit.
#[test]
fn ilpqc_matches_reference_at_snr_repair_thresholds() {
    let grid = gac_grid_for(500.0);
    for snr_db in [-11.55, -10.5] {
        for seed in 0..2u64 {
            let sc = scenario(500.0, 30, snr_db, seed);
            for node_limit in NODE_LIMITS {
                assert_parity_iac_gac(&sc, grid, node_limit, &format!("{snr_db} dB seed {seed}"));
            }
        }
    }
}

/// The per-node LP bound is actually exercised: on a Fig. 3(a)-shaped
/// GAC instance (more candidates than `LP_BOUND_MIN_CANDS`) the kept
/// session re-solves node after node and prunes with its bound, nodes
/// whose covered subscribers were bounded before reuse that bound, so
/// the session solves fewer LPs than the referee (one per node that
/// asks for a bound, plus the root), and the two solvers still agree.
#[test]
fn gac_instances_reach_the_per_node_lp_bound() {
    let sc = scenario(500.0, 25, -15.0, 3);
    let gac = prune_useless(&sc, gac_candidates(&sc, gac_grid_for(500.0)));
    assert!(
        gac.len() >= LP_BOUND_MIN_CANDS,
        "only {} GAC candidates",
        gac.len()
    );
    let collector = Arc::new(sag_obs::Collector::default());
    sag_obs::with_local(collector.clone(), || {
        solve_ilpqc(&sc, &gac, IlpqcConfig::default()).expect("feasible instance")
    });
    let m = collector.summary();
    assert!(
        m.counter("ilpqc.lp_prunes") > 0,
        "no node was pruned by the LP bound"
    );
    assert!(
        m.counter("lp.sparse_solves") > 1,
        "the session solved only the root bound"
    );
    assert!(
        m.counter("ilpqc.bound_reuses") > 0,
        "no node reused the bound of an equal covered set"
    );
    let referee = Arc::new(sag_obs::Collector::default());
    sag_obs::with_local(referee.clone(), || {
        reference::solve_ilpqc(&sc, &gac, IlpqcConfig::default()).expect("feasible instance")
    });
    let asked = referee.summary().counter("lp.sparse_solves");
    assert!(
        m.counter("lp.sparse_solves") < asked,
        "the session solved {} LPs for {asked} bound requests",
        m.counter("lp.sparse_solves")
    );
    assert_parity(&sc, &gac, ILPQC_NODE_LIMIT, "Fig. 3(a) 25 users GAC");
}

/// The shape where bounds are reused most: Fig. 3(a) GAC sets at the
/// two largest user counts (grid 20, the experiments' node limit),
/// where neighbouring grid points often cover the same subscribers.
#[test]
fn ilpqc_matches_reference_on_the_largest_fig3a_gac_sets() {
    let grid = gac_grid_for(500.0);
    for (users, seed) in [(45, 0), (50, 1)] {
        let sc = scenario(500.0, users, -15.0, seed);
        let gac = prune_useless(&sc, gac_candidates(&sc, grid));
        assert_parity(
            &sc,
            &gac,
            ILPQC_NODE_LIMIT,
            &format!("Fig. 3(a) {users} users seed {seed} GAC grid {grid}"),
        );
    }
}
