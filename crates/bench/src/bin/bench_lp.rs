//! Dense-vs-sparse LP core benchmark (`BENCH_lp.json`).
//!
//! Three probes, all parity-checked before any timing:
//!
//! 1. **Cover LP, dense vs sparse.** A 96-zone block-structured
//!    set-cover relaxation (the exact row shape `ilpqc` feeds the LP
//!    layer) solved by the dense referee [`LpProblem::solve_dense`]
//!    and by [`LpProblem::solve`], which runs the sparse revised
//!    simplex. The dense tableau touches `O(m·width)` per pivot;
//!    the revised simplex touches the nonzeros. The gate asserts the
//!    sparse floor.
//! 2. **Branch-and-bound, warm vs cold.** A chain of odd-cycle
//!    (triangle) covers whose LP relaxation is fractional at every
//!    node, so the search must branch; warm starts re-solve each child
//!    from its parent's basis via the dual simplex, cold starts solve
//!    every node from scratch. Gated on node *throughput* (nodes/s), so
//!    a warm run that explored a different tree still compares fairly.
//! 3. **ILPQC, reference vs kept session.** Seeded Fig. 3(a)-shaped GAC
//!    instances (500×500, −15 dB, 15–50 users, grid 20, the
//!    experiments' node limit) solved by `sag_core::reference`'s
//!    per-node re-lowering and by `sag_core::ilpqc`'s kept LP session.
//!    Identical outcomes (relays, assignment, nodes, optimality) are
//!    asserted on every instance before timing; the gate asserts
//!    the session's speedup floor. One session run under a collector
//!    also records its LP solves (`lp.sparse_solves`), the bounds it
//!    reused for covered sets it had solved (`ilpqc.bound_reuses`) and
//!    the pricing passes (`lp.sparse_pricings`) per LP solve: a
//!    kept-session re-solve that makes no pivot prices no column.
//!
//! Usage: `bench_lp [--out PATH]`

use std::sync::Arc;

use sag_bench::harness::{interleaved, time_ns};
use sag_bench::{Artefact, Bound};
use sag_core::candidates::{gac_candidates, prune_useless};
use sag_core::ilpqc::{solve_ilpqc, IlpqcConfig, IlpqcOutcome};
use sag_core::model::Scenario;
use sag_core::reference;
use sag_geom::Point;
use sag_lp::{IlpProblem, LpProblem, Relation};
use sag_sim::experiments::{gac_grid_for, ILPQC_NODE_LIMIT};
use sag_sim::gen::ScenarioSpec;

/// Zones in the cover probe (past the large end of the paper's sweeps:
/// the dense tableau's advantage shrinks as the block count grows, so
/// the gate probe sits where the asymptotics, not constants, decide).
const ZONES: usize = 96;
const ROWS_PER_ZONE: usize = 6;
const CANDS_PER_ZONE: usize = 8;
/// Triangles in the branch-and-bound probe.
const TRIANGLES: usize = 12;
/// Interleaved measurement rounds per probe.
const ROUNDS: usize = 9;
/// Fig. 3(a) user counts of the ILPQC probe, one instance each.
const ILPQC_USERS: [usize; 8] = [15, 20, 25, 30, 35, 40, 45, 50];
/// Scenario seed of the ILPQC probe.
const ILPQC_SEED: u64 = 1;
/// Gate: the sparse cover solve is at least this many times faster.
const MIN_SPEEDUP: f64 = 3.0;
/// Gate: warm-started B&B explores at least this many times more nodes
/// per second.
const MIN_WARM_SPEEDUP: f64 = 1.5;
/// Gate: the kept-session ILPQC is at least this many times faster.
const MIN_ILPQC_SPEEDUP: f64 = 4.0;

/// Deterministic splitmix64 stream (no RNG dependency).
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Block-structured set-cover relaxation: each zone contributes
/// `CANDS_PER_ZONE` candidate columns and `ROWS_PER_ZONE` coverage rows
/// over 2–4 of its own candidates — the sparsity pattern `ilpqc`'s
/// coverage assembly produces, scaled up. Costs carry a deterministic
/// jitter so the optimum is unique and pivot paths are stable.
fn cover_probe(zones: usize) -> LpProblem {
    let n = zones * CANDS_PER_ZONE;
    let mut lp = LpProblem::minimize(n);
    let mut state = 0x5AB0_BE4C_u64;
    for j in 0..n {
        lp.set_objective_coeff(j, 1.0 + (next(&mut state) % 97) as f64 / 400.0);
        lp.set_bounds(j, 0.0, 1.0);
    }
    for z in 0..zones {
        let base = z * CANDS_PER_ZONE;
        for _ in 0..ROWS_PER_ZONE {
            let k = 2 + (next(&mut state) % 3) as usize;
            let mut cols: Vec<usize> = Vec::with_capacity(k);
            while cols.len() < k {
                let c = base + (next(&mut state) % CANDS_PER_ZONE as u64) as usize;
                if !cols.contains(&c) {
                    cols.push(c);
                }
            }
            let coeffs: Vec<(usize, f64)> = cols.into_iter().map(|c| (c, 1.0)).collect();
            lp.add_constraint(&coeffs, Relation::Ge, 1.0);
        }
    }
    lp
}

/// Odd-cycle cover ILP: each triangle `{a,b},{b,c},{a,c}` relaxes to
/// `x = (½,½,½)` (objective ~1.5), forcing a branch per triangle.
fn triangle_ilp(warm: bool) -> IlpProblem {
    let n = 3 * TRIANGLES;
    let mut lp = LpProblem::minimize(n);
    for t in 0..TRIANGLES {
        let b = 3 * t;
        for k in 0..3 {
            lp.set_objective_coeff(b + k, 1.0 + ((3 * t + k) % 7) as f64 / 100.0);
        }
        lp.add_constraint(&[(b, 1.0), (b + 1, 1.0)], Relation::Ge, 1.0);
        lp.add_constraint(&[(b + 1, 1.0), (b + 2, 1.0)], Relation::Ge, 1.0);
        lp.add_constraint(&[(b, 1.0), (b + 2, 1.0)], Relation::Ge, 1.0);
    }
    let mut ilp = IlpProblem::new(lp);
    for v in 0..n {
        ilp.set_binary(v);
    }
    ilp.set_warm_start(warm);
    ilp
}

/// One Fig. 3(a)-shaped ILPQC instance: the scenario and its pruned
/// GAC candidates.
struct IlpqcInstance {
    scenario: Scenario,
    candidates: Vec<Point>,
}

/// The ILPQC probe's instances (GAC sets that prune to nothing are
/// skipped, as the Fig. 3 wrapper skips them).
fn ilpqc_probe() -> Vec<IlpqcInstance> {
    ILPQC_USERS
        .iter()
        .filter_map(|&users| {
            let scenario = ScenarioSpec {
                field_size: 500.0,
                n_subscribers: users,
                snr_db: -15.0,
                ..Default::default()
            }
            .build(ILPQC_SEED);
            let candidates =
                prune_useless(&scenario, gac_candidates(&scenario, gac_grid_for(500.0)));
            (!candidates.is_empty()).then_some(IlpqcInstance {
                scenario,
                candidates,
            })
        })
        .collect()
}

fn ilpqc_config() -> IlpqcConfig {
    IlpqcConfig {
        node_limit: ILPQC_NODE_LIMIT,
        ..IlpqcConfig::default()
    }
}

/// The comparable part of an ILPQC outcome: relay bits, assignment,
/// node count and optimality (never the wall clock).
fn ilpqc_fingerprint(out: &IlpqcOutcome) -> (Vec<(u64, u64)>, Vec<usize>, usize, bool) {
    (
        out.solution
            .relays
            .iter()
            .map(|p| (p.x.to_bits(), p.y.to_bits()))
            .collect(),
        out.solution.assignment.clone(),
        out.nodes,
        out.optimal,
    )
}

/// Measurements of the ILPQC arm (probe 3).
struct IlpqcArm {
    instances: usize,
    /// GAC candidates summed over the instances.
    candidates: usize,
    /// Branch-and-bound nodes summed over the instances.
    nodes: usize,
    /// LP solves over one session run of the probe.
    lp_solves: u64,
    /// Bounds answered from an equal covered set over that run.
    bound_reuses: u64,
    /// Pricing passes per LP solve over that run.
    pricings_per_solve: f64,
    reference_ns: u128,
    session_ns: u128,
    speedup: f64,
}

/// Probe 3: asserts identical ILPQC outcomes on every instance, then
/// races the reference solver against the kept session.
fn run_ilpqc_arm() -> IlpqcArm {
    let probe = ilpqc_probe();
    let mut nodes = 0;
    for inst in &probe {
        let fast = solve_ilpqc(&inst.scenario, &inst.candidates, ilpqc_config())
            .expect("ILPQC probe instance is feasible (session)");
        let slow = reference::solve_ilpqc(&inst.scenario, &inst.candidates, ilpqc_config())
            .expect("ILPQC probe instance is feasible (reference)");
        assert_eq!(
            ilpqc_fingerprint(&fast),
            ilpqc_fingerprint(&slow),
            "ILPQC parity broken before timing ({} users)",
            inst.scenario.n_subscribers()
        );
        nodes += fast.nodes;
    }
    let collector = Arc::new(sag_obs::Collector::default());
    sag_obs::with_local(collector.clone(), || {
        for inst in &probe {
            let _ = solve_ilpqc(&inst.scenario, &inst.candidates, ilpqc_config());
        }
    });
    let lp = collector.summary();
    let lp_solves = lp.counter("lp.sparse_solves");
    let pricings_per_solve = lp.counter("lp.sparse_pricings") as f64 / lp_solves.max(1) as f64;
    let solve_all = |solve: fn(
        &Scenario,
        &[Point],
        IlpqcConfig,
    ) -> sag_core::error::SagResult<IlpqcOutcome>| {
        for inst in &probe {
            let _ = std::hint::black_box(solve(&inst.scenario, &inst.candidates, ilpqc_config()));
        }
    };
    let t = interleaved(
        ROUNDS,
        &mut [
            &mut || time_ns(1, || solve_all(reference::solve_ilpqc)),
            &mut || time_ns(1, || solve_all(solve_ilpqc)),
        ],
    );
    IlpqcArm {
        instances: probe.len(),
        candidates: probe.iter().map(|i| i.candidates.len()).sum(),
        nodes,
        lp_solves,
        bound_reuses: lp.counter("ilpqc.bound_reuses"),
        pricings_per_solve,
        reference_ns: t.median_ns(0),
        session_ns: t.median_ns(1),
        speedup: t.ratio_median(&[0], &[1]),
    }
}

fn main() {
    let mut out = Artefact::from_args("lp_core", "BENCH_lp.json");

    // ---- Probe 1: cover LP, dense vs sparse -------------------------
    let lp = cover_probe(ZONES);
    let (rows, cols) = (lp.num_constraints(), lp.num_vars());

    // Parity gate before any timing: a fast wrong answer is worthless.
    let sparse_sol = lp.solve().expect("cover probe is feasible (sparse)");
    let dense_sol = lp.solve_dense().expect("cover probe is feasible (dense)");
    let mut parity =
        (sparse_sol.objective - dense_sol.objective).abs() / (1.0 + dense_sol.objective.abs());
    assert!(
        parity <= 1e-6,
        "dense/sparse objective parity broken before timing: \
         sparse {} vs dense {}",
        sparse_sol.objective,
        dense_sol.objective
    );

    let cover = interleaved(
        ROUNDS,
        &mut [
            &mut || time_ns(1, || lp.solve_dense().expect("dense solve")),
            &mut || time_ns(1, || lp.solve().expect("sparse solve")),
        ],
    );
    let speedup = cover.ratio_median(&[0], &[1]);

    // ---- Probe 2: branch-and-bound, warm vs cold --------------------
    let cold_ilp = triangle_ilp(false);
    let warm_ilp = triangle_ilp(true);
    let cold_ref = cold_ilp.solve().expect("triangle probe is feasible");
    let warm_ref = warm_ilp.solve().expect("triangle probe is feasible");
    let bb_parity =
        (cold_ref.objective - warm_ref.objective).abs() / (1.0 + cold_ref.objective.abs());
    assert!(
        bb_parity <= 1e-9,
        "warm/cold incumbent parity broken before timing: \
         cold {} vs warm {}",
        cold_ref.objective,
        warm_ref.objective
    );
    parity = parity.max(bb_parity);

    let mut cold_nodes = 0usize;
    let mut warm_nodes = 0usize;
    let bb = interleaved(
        ROUNDS,
        &mut [
            &mut || {
                time_ns(1, || {
                    cold_nodes = cold_ilp.solve().expect("cold solve").nodes
                })
            },
            &mut || {
                time_ns(1, || {
                    warm_nodes = warm_ilp.solve().expect("warm solve").nodes
                })
            },
        ],
    );
    let cold_nodes_per_s = cold_nodes as f64 / (bb.median_ns(0).max(1) as f64 / 1e9);
    let warm_nodes_per_s = warm_nodes as f64 / (bb.median_ns(1).max(1) as f64 / 1e9);
    let warm_speedup = warm_nodes_per_s / cold_nodes_per_s;

    // ---- Probe 3: ILPQC, reference vs kept session ------------------
    let ilpqc = run_ilpqc_arm();

    out.field("zones", ZONES)
        .field("rows", rows)
        .field("cols", cols)
        .field("dense_median_ns", cover.median_ns(0))
        .field("sparse_median_ns", cover.median_ns(1))
        .field("speedup", speedup)
        .field("bb_triangles", TRIANGLES)
        .field("cold_nodes_per_s", cold_nodes_per_s)
        .field("warm_nodes_per_s", warm_nodes_per_s)
        .field("warm_speedup", warm_speedup)
        .field("parity_max_rel_err", parity)
        .field("ilpqc_instances", ilpqc.instances)
        .field("ilpqc_candidates", ilpqc.candidates)
        .field("ilpqc_nodes", ilpqc.nodes)
        .field("ilpqc_lp_solves", ilpqc.lp_solves)
        .field("ilpqc_bound_reuses", ilpqc.bound_reuses)
        .field("ilpqc_pricings_per_solve", ilpqc.pricings_per_solve)
        .field("ilpqc_reference_median_ns", ilpqc.reference_ns)
        .field("ilpqc_session_median_ns", ilpqc.session_ns)
        .field("ilpqc_speedup", ilpqc.speedup)
        .field("ilpqc_parity", "identical outcomes")
        .gate("speedup", speedup, Bound::Floor(MIN_SPEEDUP), None)
        .gate(
            "warm_speedup",
            warm_speedup,
            Bound::Floor(MIN_WARM_SPEEDUP),
            None,
        )
        .gate(
            "ilpqc_speedup",
            ilpqc.speedup,
            Bound::Floor(MIN_ILPQC_SPEEDUP),
            None,
        );
    out.finish();
}
