//! Dense-vs-sparse LP core benchmark (`BENCH_lp.json`).
//!
//! Two probes, both parity-checked before any timing:
//!
//! 1. **Cover LP, dense vs sparse.** A 64-zone block-structured
//!    set-cover relaxation (the exact row shape `ilpqc` feeds the LP
//!    layer) solved by the dense referee [`LpProblem::solve_dense`]
//!    and by [`LpProblem::solve`], which runs the sparse revised
//!    simplex. The dense tableau touches `O(m·width)` per pivot;
//!    the revised simplex touches the nonzeros. The CI gate asserts the
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
//!    asserted on every instance before timing; the CI gate asserts
//!    the session's speedup floor.
//!
//! The dense-vs-sparse gate needs a large instance to mean anything:
//! below `MIN_GATE_ZONES` zones the probe is recorded as skipped in the
//! JSON instead of enforcing a floor on noise.
//!
//! Usage: `bench_lp [--out PATH] [--min-speedup X] [--min-warm-speedup X]
//! [--min-ilpqc-speedup X] [--zones N]`

use sag_bench::harness::{interleaved, time_ns, Interleaved};
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
const DEFAULT_ZONES: usize = 96;
/// Below this many zones the dense-vs-sparse gate is skipped.
const MIN_GATE_ZONES: usize = 16;
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

#[allow(clippy::too_many_arguments)]
fn emit_json(
    path: &str,
    zones: usize,
    rows: usize,
    cols: usize,
    dense_ns: u128,
    sparse_ns: u128,
    speedup: f64,
    gate: &str,
    cold_nodes_per_s: f64,
    warm_nodes_per_s: f64,
    warm_speedup: f64,
    parity: f64,
    ilpqc: &IlpqcArm,
) -> std::io::Result<()> {
    let hardware_threads = sag_bench::hardware_threads();
    let IlpqcArm {
        instances,
        candidates,
        nodes,
        reference_ns,
        session_ns,
        speedup: ilpqc_speedup,
    } = ilpqc;
    let body = format!(
        "{{\n  \"benchmark\": \"lp_core\",\n  \"zones\": {zones},\n  \"rows\": {rows},\n  \"cols\": {cols},\n  \"hardware_threads\": {hardware_threads},\n  \"dense_median_ns\": {dense_ns},\n  \"sparse_median_ns\": {sparse_ns},\n  \"speedup\": {speedup:.3},\n  \"gate\": \"{gate}\",\n  \"bb_triangles\": {TRIANGLES},\n  \"cold_nodes_per_s\": {cold_nodes_per_s:.1},\n  \"warm_nodes_per_s\": {warm_nodes_per_s:.1},\n  \"warm_speedup\": {warm_speedup:.3},\n  \"parity_max_rel_err\": {parity:.3e},\n  \"ilpqc_instances\": {instances},\n  \"ilpqc_candidates\": {candidates},\n  \"ilpqc_nodes\": {nodes},\n  \"ilpqc_reference_median_ns\": {reference_ns},\n  \"ilpqc_session_median_ns\": {session_ns},\n  \"ilpqc_speedup\": {ilpqc_speedup:.3},\n  \"ilpqc_parity\": \"identical outcomes\"\n}}\n"
    );
    std::fs::write(path, body)
}

/// Measurements of the ILPQC arm (probe 3).
struct IlpqcArm {
    instances: usize,
    /// GAC candidates summed over the instances.
    candidates: usize,
    /// Branch-and-bound nodes summed over the instances.
    nodes: usize,
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
    let solve_all = |solve: fn(
        &Scenario,
        &[Point],
        IlpqcConfig,
    ) -> sag_core::error::SagResult<IlpqcOutcome>| {
        for inst in &probe {
            let _ = std::hint::black_box(solve(&inst.scenario, &inst.candidates, ilpqc_config()));
        }
    };
    let Interleaved {
        a_median_ns: reference_ns,
        b_median_ns: session_ns,
        ratio_median: speedup,
        ..
    } = interleaved(
        ROUNDS,
        &mut || time_ns(1, || solve_all(reference::solve_ilpqc)),
        &mut || time_ns(1, || solve_all(solve_ilpqc)),
    );
    IlpqcArm {
        instances: probe.len(),
        candidates: probe.iter().map(|i| i.candidates.len()).sum(),
        nodes,
        reference_ns,
        session_ns,
        speedup,
    }
}

fn main() {
    let mut out_path = String::from("BENCH_lp.json");
    let mut min_speedup = 3.0f64;
    let mut min_warm_speedup = 1.5f64;
    let mut min_ilpqc_speedup = 4.0f64;
    let mut zones = DEFAULT_ZONES;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => out_path = args.next().expect("--out needs a path"),
            "--min-speedup" => {
                let v = args.next().expect("--min-speedup needs a number");
                min_speedup = v.parse().expect("--min-speedup parses as f64");
            }
            "--min-warm-speedup" => {
                let v = args.next().expect("--min-warm-speedup needs a number");
                min_warm_speedup = v.parse().expect("--min-warm-speedup parses as f64");
            }
            "--min-ilpqc-speedup" => {
                let v = args.next().expect("--min-ilpqc-speedup needs a number");
                min_ilpqc_speedup = v.parse().expect("--min-ilpqc-speedup parses as f64");
            }
            "--zones" => {
                let v = args.next().expect("--zones needs a number");
                zones = v.parse().expect("--zones parses as usize");
                assert!(zones >= 1, "--zones must be at least 1");
            }
            other => panic!(
                "unknown argument {other}; usage: bench_lp [--out PATH] \
                 [--min-speedup X] [--min-warm-speedup X] [--min-ilpqc-speedup X] \
                 [--zones N]"
            ),
        }
    }

    // ---- Probe 1: cover LP, dense vs sparse -------------------------
    let lp = cover_probe(zones);
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

    let Interleaved {
        a_median_ns: dense_ns,
        b_median_ns: sparse_ns,
        ratio_median: speedup,
        ..
    } = interleaved(
        ROUNDS,
        &mut || {
            time_ns(1, || {
                std::hint::black_box(lp.solve_dense().expect("dense solve"));
            })
        },
        &mut || {
            time_ns(1, || {
                std::hint::black_box(lp.solve().expect("sparse solve"));
            })
        },
    );

    // The floor only means something on a large instance; a small probe
    // records the measurement but skips enforcement.
    let (gate, enforce) = sag_bench::resolve_gate(
        zones >= MIN_GATE_ZONES,
        &format!("{zones} zones below the {MIN_GATE_ZONES}-zone minimum"),
    );

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
    let Interleaved {
        a_median_ns: cold_ns,
        b_median_ns: warm_ns,
        ..
    } = interleaved(
        ROUNDS,
        &mut || {
            time_ns(1, || {
                cold_nodes = std::hint::black_box(cold_ilp.solve().expect("cold solve")).nodes;
            })
        },
        &mut || {
            time_ns(1, || {
                warm_nodes = std::hint::black_box(warm_ilp.solve().expect("warm solve")).nodes;
            })
        },
    );
    let cold_nodes_per_s = cold_nodes as f64 / (cold_ns.max(1) as f64 / 1e9);
    let warm_nodes_per_s = warm_nodes as f64 / (warm_ns.max(1) as f64 / 1e9);
    let warm_speedup = warm_nodes_per_s / cold_nodes_per_s;

    println!("benchmark group: lp_core ({ROUNDS} interleaved rounds, median ns)");
    println!("cover {rows}x{cols} dense      {dense_ns:>12}");
    println!("cover {rows}x{cols} sparse     {sparse_ns:>12}");
    println!("speedup: {speedup:.2}x [{gate}]");
    println!("b&b cold  {cold_nodes:>5} nodes  {cold_ns:>12} ns  ({cold_nodes_per_s:.0} nodes/s)");
    println!("b&b warm  {warm_nodes:>5} nodes  {warm_ns:>12} ns  ({warm_nodes_per_s:.0} nodes/s)");
    println!("warm node throughput: {warm_speedup:.2}x (parity max rel err {parity:.3e})");

    // ---- Probe 3: ILPQC, reference vs kept session ------------------
    let ilpqc = run_ilpqc_arm();
    println!(
        "ilpqc reference  {:>2} GAC instances {:>5} nodes {:>12} ns",
        ilpqc.instances, ilpqc.nodes, ilpqc.reference_ns
    );
    println!(
        "ilpqc session    {:>2} GAC instances {:>5} nodes {:>12} ns",
        ilpqc.instances, ilpqc.nodes, ilpqc.session_ns
    );
    println!("ilpqc speedup: {:.2}x (identical outcomes)", ilpqc.speedup);

    emit_json(
        &out_path,
        zones,
        rows,
        cols,
        dense_ns,
        sparse_ns,
        speedup,
        &gate,
        cold_nodes_per_s,
        warm_nodes_per_s,
        warm_speedup,
        parity,
        &ilpqc,
    )
    .expect("write benchmark JSON");
    println!("wrote {out_path}");

    if enforce {
        assert!(
            speedup >= min_speedup,
            "dense-vs-sparse speedup {speedup:.2}x is below the required \
             {min_speedup:.2}x floor"
        );
        assert!(
            warm_speedup >= min_warm_speedup,
            "warm-vs-cold node throughput {warm_speedup:.2}x is below the \
             required {min_warm_speedup:.2}x floor"
        );
    }
    // The ILPQC probe is paper-scale by construction, so its floor is
    // always enforced.
    assert!(
        ilpqc.speedup >= min_ilpqc_speedup,
        "ILPQC session-vs-reference speedup {:.2}x is below the required \
         {min_ilpqc_speedup:.2}x floor",
        ilpqc.speedup
    );
}
