//! Cross-solver validation: the three lower-tier solvers (SAMC, ILPQC
//! over IAC, ILPQC over GAC) must agree on feasibility structure and
//! respect the orderings the paper reports, and the two LPQC power
//! solvers (fixed point vs simplex) must agree numerically.

use std::sync::Arc;

use sag_core::candidates::{gac_candidates, iac_candidates, prune_useless};
use sag_core::coverage::{is_feasible, CoverageSolution};
use sag_core::ilpqc::{solve_ilpqc, IlpqcConfig};
use sag_core::pro::{allocation_is_feasible, optimal_power, optimal_power_lp, pro};
use sag_core::samc::{samc, samc_with, HittingStrategy, SamcConfig};
use sag_geom::Point;
use sag_integration::scenario;
use sag_sim::gen::ScenarioSpec;

#[test]
fn ilpqc_matches_hand_computed_optimum() {
    // Two clusters, each coverable by one candidate; plus a decoy.
    let sc = scenario(
        500.0,
        &[(0.0, 0.0, 35.0), (30.0, 0.0, 35.0), (200.0, 0.0, 30.0)],
        &[(240.0, 240.0)],
        -15.0,
    );
    let cands = vec![
        Point::new(15.0, 0.0),
        Point::new(200.0, 0.0),
        Point::new(-100.0, -100.0),
    ];
    let out = solve_ilpqc(&sc, &cands, IlpqcConfig::default()).unwrap();
    assert!(out.optimal);
    assert_eq!(out.solution.n_relays(), 2);
    assert!(is_feasible(&sc, &out.solution));
}

#[test]
fn samc_beats_or_matches_candidate_solvers_on_average() {
    let mut samc_total = 0.0;
    let mut iac_total = 0.0;
    let mut gac_total = 0.0;
    let mut counted = 0;
    for seed in 0..6u64 {
        let sc = ScenarioSpec {
            field_size: 400.0,
            n_subscribers: 10,
            n_base_stations: 2,
            snr_db: -15.0,
            ..Default::default()
        }
        .build(seed);
        let s = samc(&sc).ok().map(|s| s.n_relays());
        let iac = iac_candidates(&sc);
        let i = solve_ilpqc(&sc, &iac, IlpqcConfig::default())
            .ok()
            .map(|o| o.solution.n_relays());
        let gac = prune_useless(&sc, gac_candidates(&sc, 16.0));
        let g = solve_ilpqc(&sc, &gac, IlpqcConfig::default())
            .ok()
            .map(|o| o.solution.n_relays());
        if let (Some(s), Some(i), Some(g)) = (s, i, g) {
            samc_total += s as f64;
            iac_total += i as f64;
            gac_total += g as f64;
            counted += 1;
        }
    }
    assert!(counted >= 4, "most seeds must be solvable by all three");
    // The Fig. 3 ordering on averages: SAMC ≤ IAC ≤ GAC (small slack for
    // the tiny sample).
    assert!(
        samc_total <= iac_total + 1.0,
        "SAMC {samc_total} vs IAC {iac_total}"
    );
    assert!(
        iac_total <= gac_total + 1.0,
        "IAC {iac_total} vs GAC {gac_total}"
    );
}

#[test]
fn fixed_point_agrees_with_simplex_on_spread_relays() {
    // Relays kept away from subscribers so the LP stays well-conditioned;
    // then the two independent optimal-power implementations must agree.
    let sc = scenario(
        500.0,
        &[(0.0, 0.0, 40.0), (70.0, 0.0, 40.0), (35.0, 60.0, 40.0)],
        &[(200.0, 200.0)],
        -12.0,
    );
    let sol = CoverageSolution {
        relays: vec![
            Point::new(10.0, 5.0),
            Point::new(60.0, -5.0),
            Point::new(30.0, 50.0),
        ],
        assignment: vec![0, 1, 2],
    };
    assert!(is_feasible(&sc, &sol));
    let fp = optimal_power(&sc, &sol).unwrap();
    let lp = optimal_power_lp(&sc, &sol).unwrap();
    assert!(
        (fp.total() - lp.total()).abs() / fp.total() < 1e-6,
        "fixed point {} vs simplex {}",
        fp.total(),
        lp.total()
    );
    assert!(allocation_is_feasible(&sc, &sol, &fp));
    assert!(allocation_is_feasible(&sc, &sol, &lp));
}

#[test]
fn pro_within_theorem_bound_across_seeds() {
    for seed in 0..6u64 {
        let sc = ScenarioSpec {
            field_size: 500.0,
            n_subscribers: 15,
            snr_db: -15.0,
            ..Default::default()
        }
        .build(seed);
        let Ok(sol) = samc(&sc) else { continue };
        let reduced = pro(&sc, &sol);
        let opt = optimal_power(&sc, &sol).unwrap();
        assert!(
            reduced.total() <= opt.total() * 3.0 + 1e-9,
            "seed {seed}: PRO {} vs optimal {} — far outside any sane φ",
            reduced.total(),
            opt.total()
        );
        assert!(
            opt.total() <= reduced.total() + 1e-9,
            "seed {seed}: optimality violated"
        );
    }
}

#[test]
fn hitting_strategies_all_yield_feasible_coverage() {
    let sc = ScenarioSpec {
        field_size: 400.0,
        n_subscribers: 12,
        snr_db: -15.0,
        ..Default::default()
    }
    .build(2);
    for strategy in [
        HittingStrategy::LocalSearch,
        HittingStrategy::Greedy,
        HittingStrategy::Exact,
    ] {
        let sol = samc_with(&sc, SamcConfig { hitting: strategy }).unwrap();
        assert!(is_feasible(&sc, &sol), "{strategy:?}");
    }
}

/// Backend cross-validation at the LP level, where the dense referee
/// belongs: ILPQC bounds its branch and bound with the set-cover
/// relaxation re-solved in one kept sparse `LpSession`, and the dense
/// tableau (`LpProblem::solve_dense`) must agree with every re-solve.
/// On every zone of a partitioned scenario — the same per-zone route
/// the parallel engine takes — the GAC candidate sets that reach
/// `lp_bound_min_cands` open a session on that relaxation (one `≥ 1`
/// row per subscriber over its distance-eligible candidates, unit
/// costs, `x ≥ 0`) and replay a depth-first branch-and-bound walk,
/// fixing and releasing candidates as `CoverBound::bound` does. The
/// kept-session ILPQC itself must prune nodes by that bound on these
/// sets.
#[test]
fn ilpqc_backends_agree_per_zone() {
    use sag_core::zone::{zone_partition, zone_scenario};

    let min_cands = IlpqcConfig::default().lp_bound_min_cands;
    let mut bounded_sets = 0usize;
    let mut resolves = 0usize;
    let log = Arc::new(sag_obs::Collector::default());
    for seed in 0..5u64 {
        let sc = ScenarioSpec {
            field_size: 600.0,
            n_subscribers: 14,
            n_base_stations: 2,
            snr_db: -15.0,
            ..Default::default()
        }
        .build(seed);
        for zone in zone_partition(&sc) {
            let (zsc, _members) = zone_scenario(&sc, &zone);
            let gac = prune_useless(&zsc, gac_candidates(&zsc, GAC_GRID));
            if gac.len() < min_cands {
                continue;
            }
            bounded_sets += 1;
            resolves += replay_cover_bounds(&zsc, &gac, &format!("seed {seed}"));
            sag_obs::with_local(log.clone(), || {
                solve_ilpqc(&zsc, &gac, IlpqcConfig::default()).ok()
            });
        }
    }
    assert!(
        bounded_sets >= 3,
        "too few GAC candidate sets reach the per-node LP bound ({bounded_sets})"
    );
    assert_eq!(
        resolves,
        bounded_sets * BOUND_REPLAY_SOLVES,
        "every bounded set replays its full walk"
    );
    let prunes = log.summary().counter("ilpqc.lp_prunes");
    assert!(prunes > 0, "no node was pruned by the LP bound");
}

/// Re-solves per candidate set in [`ilpqc_backends_agree_per_zone`].
const BOUND_REPLAY_SOLVES: usize = 60;

/// Opens a kept session on the cover relaxation of `cands` and walks
/// the branch-and-bound tree depth first — branching on the first
/// subscriber no fixed candidate covers, nearest candidate first — for
/// [`BOUND_REPLAY_SOLVES`] nodes. Each node fixes its selection to
/// `[1, ∞)` and releases the previous node's other candidates to
/// `[0, ∞)`; the re-solve must match the dense referee on the
/// session's problem in status and in objective. Returns the number of
/// re-solves checked.
fn replay_cover_bounds(sc: &sag_core::model::Scenario, cands: &[Point], what: &str) -> usize {
    use sag_lp::{LpProblem, LpSession, Relation, SIMPLEX_TOL};

    let eligible: Vec<Vec<usize>> = sc
        .subscribers
        .iter()
        .map(|sub| {
            let circle = sub.feasible_circle();
            (0..cands.len())
                .filter(|&c| circle.contains(cands[c]))
                .collect()
        })
        .collect();
    let mut lp = LpProblem::minimize(cands.len());
    lp.set_objective(&vec![1.0; cands.len()]);
    for e in &eligible {
        let row: Vec<(usize, f64)> = e.iter().map(|&c| (c, 1.0)).collect();
        lp.add_constraint(&row, Relation::Ge, 1.0);
    }
    let mut session = LpSession::new(lp);

    let mut fixed: Vec<usize> = Vec::new();
    let mut stack: Vec<Vec<usize>> = vec![Vec::new()];
    let mut resolves = 0usize;
    while let Some(selected) = stack.pop() {
        if resolves == BOUND_REPLAY_SOLVES {
            break;
        }
        for &c in fixed.iter().filter(|c| !selected.contains(c)) {
            session.set_bounds(c, 0.0, f64::INFINITY);
        }
        for &c in selected.iter().filter(|c| !fixed.contains(c)) {
            session.set_bounds(c, 1.0, f64::INFINITY);
        }
        fixed.clone_from(&selected);
        let got = session.solve();
        let want = session.problem().solve_dense();
        match (&got, &want) {
            (Ok(g), Ok(w)) => {
                let scale = 1.0 + w.objective.abs();
                assert!(
                    (g.objective - w.objective).abs() <= 1e3 * SIMPLEX_TOL * scale,
                    "{what}, node {resolves}: session {} vs dense {}",
                    g.objective,
                    w.objective
                );
            }
            (Err(g), Err(w)) => assert_eq!(g, w, "{what}, node {resolves}: status"),
            (g, w) => panic!("{what}, node {resolves}: session {g:?} vs dense {w:?}"),
        }
        resolves += 1;

        let uncovered = eligible
            .iter()
            .position(|e| !e.iter().any(|c| selected.contains(c)));
        if let Some(j) = uncovered {
            let at = sc.subscribers[j].position;
            let mut options: Vec<usize> = eligible[j].clone();
            options.sort_by(|&a, &b| cands[b].distance(at).total_cmp(&cands[a].distance(at)));
            for c in options {
                let mut next = selected.clone();
                next.push(c);
                next.sort_unstable();
                stack.push(next);
            }
        }
    }
    resolves
}

/// GAC grid of the per-zone backend check: fine enough that a zone's
/// candidate set passes `lp_bound_min_cands`.
const GAC_GRID: f64 = 8.0;

/// Brute force over every candidate subset: the ILPQC's claimed optimum
/// must match on instances small enough to enumerate.
#[test]
fn ilpqc_matches_exhaustive_enumeration() {
    use sag_core::coverage::{assign_nearest, snr_violations};

    for seed in 0..8u64 {
        let sc = ScenarioSpec {
            field_size: 300.0,
            n_subscribers: 4,
            n_base_stations: 1,
            snr_db: -12.0,
            ..Default::default()
        }
        .build(seed);
        let cands = iac_candidates(&sc);
        if cands.len() > 14 {
            continue; // keep 2^n enumeration cheap
        }
        let ilp = solve_ilpqc(&sc, &cands, IlpqcConfig::default()).ok();

        // Exhaustive search over all subsets.
        let mut best: Option<usize> = None;
        for mask in 1u32..(1 << cands.len()) {
            let subset: Vec<sag_geom::Point> = (0..cands.len())
                .filter(|&i| mask & (1 << i) != 0)
                .map(|i| cands[i])
                .collect();
            let Some(assignment) = assign_nearest(&sc, &subset) else {
                continue;
            };
            if snr_violations(&sc, &subset, &assignment).is_empty() {
                let k = subset.len();
                if best.is_none_or(|b| k < b) {
                    best = Some(k);
                }
            }
        }

        match (ilp, best) {
            (Some(out), Some(opt)) => {
                assert!(out.optimal, "seed {seed}: solver did not prove optimality");
                assert_eq!(
                    out.solution.n_relays(),
                    opt,
                    "seed {seed}: ILPQC {} vs exhaustive {opt}",
                    out.solution.n_relays()
                );
            }
            (None, None) => {} // both infeasible — consistent
            (a, b) => panic!(
                "seed {seed}: feasibility disagreement ilp={:?} brute={b:?}",
                a.map(|o| o.solution.n_relays())
            ),
        }
    }
}
