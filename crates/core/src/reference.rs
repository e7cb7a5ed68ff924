//! Seed implementations kept as differential referees for the fast
//! paths that replaced them.
//!
//! * [`solve_ilpqc`] is the original ILPQC solver: every
//!   branch-and-bound node that needs an LP completion bound clones the
//!   bounded cover LP (`x ≤ 1` per candidate), fixes the node's
//!   selection with `x = 1`, and re-lowers it for a warm-started
//!   one-shot solve. [`crate::ilpqc::solve_ilpqc`] re-solves one kept LP
//!   session without the `x ≤ 1` rows instead, and must return the same
//!   [`IlpqcOutcome`] — relays, assignment, node count and optimality
//!   flag — on every input.
//! * [`zone_partition_with_dmax`] is the original Zone Partition: it
//!   tests every subscriber pair and takes the connected components of
//!   the resulting [`Graph`]. [`crate::zone::zone_partition_with_dmax`]
//!   only tests pairs from neighbouring grid cells and joins them with a
//!   union-find, and must return the same zones.
//!
//! Only tests and benchmarks import this module: the parity suites
//! (`tests/tests/ilpqc_parity.rs`, `tests/tests/zone_parity.rs`) assert
//! each pair agrees, and `bench_lp` times the ILPQC pair. Library code
//! must not call it — it is the slow path by construction.

use std::time::Instant;

use sag_geom::Point;
use sag_graph::{components, Graph};
use sag_lp::{Budget, Spent, WarmStart};

use crate::coverage::{interference_ledger, CoverageSolution};
use crate::error::{SagError, SagResult};
use crate::ilpqc::{
    build_cover_lp, nearest_assignment, round_lp_lower_bound, sync_ledger, IlpqcConfig,
    IlpqcOutcome, BUDGET_POLL_MASK, LEDGER_REBUILD_PERIOD,
};
use crate::model::Scenario;
use crate::zone::Zone;

/// Solves the ILPQC over `candidates` for the scenario.
///
/// # Errors
/// [`SagError::Infeasible`] when no subset of the candidates yields
/// feasible coverage (distance or SNR), or some subscriber has no
/// eligible candidate at all; [`SagError::BudgetExceeded`] when the
/// node cap, deadline, or cancellation flag stops the search before
/// *any* feasible incumbent was found (with an incumbent in hand the
/// solve instead returns it with `optimal = false`).
pub fn solve_ilpqc(
    scenario: &Scenario,
    candidates: &[Point],
    config: IlpqcConfig,
) -> SagResult<IlpqcOutcome> {
    let _stage = sag_obs::span("ilpqc");
    let started = Instant::now();
    let n_subs = scenario.n_subscribers();
    let n_cands = candidates.len();

    // eligible[j] = candidate indices within subscriber j's distance
    // (the shared helper every backend builds its lists with).
    let eligible = crate::fallback::eligibility(scenario, candidates, "ilpqc")?;

    // Root lower bound: LP relaxation of the set cover.
    let root_lb = set_cover_lp_bound(n_cands, &eligible, &config.budget).map_err(|e| {
        if e == SagError::Lp(sag_lp::LpError::Cancelled) {
            SagError::BudgetExceeded {
                stage: "ilpqc",
                spent: Spent {
                    nodes: 0,
                    elapsed: started.elapsed(),
                },
            }
        } else {
            e
        }
    })?;

    // The budget's node cap tightens the configured limit.
    let node_cap = config
        .budget
        .node_limit()
        .map_or(config.node_limit, |b| b.min(config.node_limit));

    let mut best: Option<Vec<usize>> = None;
    let mut nodes = 0usize;
    let mut truncated = false;

    // Per-node LP completion bounds (large instances only): the cover
    // LP with the node's selection forced to 1 lower-bounds every
    // completion of that node. Consecutive nodes share a matrix shape
    // (only bounds change), so each solve warm-starts from the previous
    // one's basis via the dual simplex.
    let use_lp_bounds = n_cands >= config.lp_bound_min_cands;
    let cover_lp = if use_lp_bounds {
        Some(build_cover_lp(n_cands, &eligible))
    } else {
        None
    };
    let mut lp_warm: Option<WarmStart> = None;
    let mut lp_prunes = 0u64;

    // One interference ledger for the whole search, synced to each
    // distance-complete node by a push/pop symmetric diff against the
    // previously evaluated selection — sibling nodes share most of
    // their relays, so the per-node SNR evaluation drops from
    // O(S·R²) to O(Δ·S + S).
    let beta = scenario.params.link.beta();
    let mut ledger = interference_ledger(scenario, &[]);
    let mut slot_of: Vec<Option<usize>> = vec![None; n_cands];
    let mut synced: Vec<usize> = Vec::new();
    let mut evals = 0usize;

    // Depth-first stack of candidate selections (sorted, deduped). The
    // same subset is reachable through every insertion order; memoise to
    // expand each at most once.
    let mut stack: Vec<Vec<usize>> = vec![Vec::new()];
    let mut visited: std::collections::HashSet<Vec<usize>> = Default::default();
    while let Some(selected) = stack.pop() {
        if !visited.insert(selected.clone()) {
            continue;
        }
        nodes += 1;
        // Under a shared pool (parallel zone solves) the cap bounds the
        // combined node count of every worker drawing on this budget.
        let cap_nodes = config.budget.charge_nodes(1).unwrap_or(nodes);
        if cap_nodes > node_cap {
            truncated = true;
            break;
        }
        if (nodes - 1) & BUDGET_POLL_MASK == 0 && config.budget.check_interrupt().is_err() {
            truncated = true;
            break;
        }
        if let Some(b) = &best {
            if selected.len() >= b.len() {
                continue;
            }
            if b.len() == root_lb {
                break; // incumbent provably optimal
            }
        }
        // First subscriber not distance-covered.
        let uncovered = (0..n_subs).find(|&j| {
            !eligible[j]
                .iter()
                .any(|c| selected.binary_search(c).is_ok())
        });
        match uncovered {
            Some(j) => {
                if let Some(b) = &best {
                    if selected.len() + 1 >= b.len() {
                        continue;
                    }
                    // LP completion bound: fix this node's selection to 1
                    // and relax the rest; the cover LP optimum lower-bounds
                    // every completion. Only worth the solve once an
                    // incumbent exists to prune against.
                    if let Some(template) = &cover_lp {
                        let mut lp = template.clone();
                        for &c in &selected {
                            lp.set_bounds(c, 1.0, 1.0);
                        }
                        lp.set_budget(config.budget.clone());
                        match lp.solve_with_warm_start(lp_warm.as_ref()) {
                            Ok(out) => {
                                lp_warm = out.warm;
                                let bound =
                                    round_lp_lower_bound(out.solution.objective, n_cands + n_subs);
                                if bound >= b.len() {
                                    lp_prunes += 1;
                                    continue;
                                }
                            }
                            Err(sag_lp::LpError::Cancelled) => {
                                truncated = true;
                                break;
                            }
                            // Infeasible/Numerical relaxations yield no
                            // usable bound; keep branching combinatorially.
                            Err(_) => {}
                        }
                    }
                }
                // Push branches in reverse so nearer candidates pop first.
                let mut options: Vec<usize> = eligible[j]
                    .iter()
                    .copied()
                    .filter(|c| selected.binary_search(c).is_err())
                    .collect();
                options.sort_by(|&a, &b| {
                    sag_geom::float::total_cmp(
                        &candidates[b].distance(scenario.subscribers[j].position),
                        &candidates[a].distance(scenario.subscribers[j].position),
                    )
                });
                for c in options {
                    let mut next = selected.clone();
                    // `c` was filtered to be absent; either arm is the
                    // correct insertion point.
                    let pos = match next.binary_search(&c) {
                        Ok(p) | Err(p) => p,
                    };
                    next.insert(pos, c);
                    stack.push(next);
                }
            }
            None => {
                // Distance-complete: evaluate SNR with nearest assignment.
                sync_ledger(
                    &mut ledger,
                    &mut slot_of,
                    &mut synced,
                    &selected,
                    candidates,
                );
                evals += 1;
                if evals.is_multiple_of(LEDGER_REBUILD_PERIOD) {
                    ledger.rebuild();
                }
                let assignment = nearest_assignment(scenario, candidates, &eligible, &selected);
                let violated: Vec<usize> = (0..n_subs)
                    .filter(|&j| {
                        let slot = slot_of[selected[assignment[j]]]
                            .expect("every selected candidate is synced into the ledger");
                        ledger.snr(j, slot) < beta - 1e-12
                    })
                    .collect();
                if violated.is_empty() {
                    if best.as_ref().is_none_or(|b| selected.len() < b.len()) {
                        best = Some(selected);
                    }
                    continue;
                }
                // SNR-repair branching: only candidates closer to a
                // violated subscriber than its current server can help it.
                if let Some(b) = &best {
                    if selected.len() + 1 >= b.len() {
                        continue;
                    }
                }
                let j = violated[0];
                let spos = scenario.subscribers[j].position;
                let cur_d = candidates[selected[assignment[j]]].distance(spos);
                let mut options: Vec<usize> = eligible[j]
                    .iter()
                    .copied()
                    .filter(|&c| {
                        selected.binary_search(&c).is_err()
                            && candidates[c].distance(spos) < cur_d - 1e-9
                    })
                    .collect();
                options.sort_by(|&a, &b| {
                    sag_geom::float::total_cmp(
                        &candidates[b].distance(spos),
                        &candidates[a].distance(spos),
                    )
                });
                for c in options {
                    let mut next = selected.clone();
                    let pos = match next.binary_search(&c) {
                        Ok(p) | Err(p) => p,
                    };
                    next.insert(pos, c);
                    stack.push(next);
                }
            }
        }
    }

    // One flush per solve: node/eval counting stayed in plain locals.
    if sag_obs::enabled() {
        sag_obs::counter("ilpqc.nodes", nodes as u64);
        sag_obs::counter("ilpqc.ledger_rebuilds", ledger.stats().rebuilds);
        if lp_prunes > 0 {
            sag_obs::counter("ilpqc.lp_prunes", lp_prunes);
        }
        if truncated {
            sag_obs::counter("ilpqc.budget_exhausted", 1);
        }
    }
    crate::coverage::flush_ledger_stats(&ledger);
    let spent = Spent {
        nodes,
        elapsed: started.elapsed(),
    };
    match best {
        Some(selected) => {
            let relays: Vec<Point> = selected.iter().map(|&c| candidates[c]).collect();
            let assignment = nearest_assignment(scenario, candidates, &eligible, &selected);
            let solution = CoverageSolution { relays, assignment };
            Ok(IlpqcOutcome {
                solution,
                optimal: !truncated,
                nodes,
                spent,
            })
        }
        None if truncated => Err(SagError::BudgetExceeded {
            stage: "ilpqc",
            spent,
        }),
        None => Err(SagError::Infeasible(
            "ilpqc: no SNR-feasible cover exists over the candidates".into(),
        )),
    }
}

/// LP relaxation of the set-cover part: a valid lower bound on the ILPQC
/// optimum (dropping (3.5) relaxes the problem).
fn set_cover_lp_bound(
    n_cands: usize,
    eligible: &[Vec<usize>],
    budget: &Budget,
) -> SagResult<usize> {
    let mut lp = build_cover_lp(n_cands, eligible);
    lp.set_budget(budget.clone());
    let sol = lp.solve()?;
    Ok(round_lp_lower_bound(
        sol.objective,
        n_cands + eligible.len(),
    ))
}

/// Zone Partition over all subscriber pairs: an edge joins `i < j` when
/// `d_eff ≤ dmax`, and the zones are the graph's connected components
/// (ordered by smallest subscriber index, each ascending).
///
/// # Panics
/// Panics unless `dmax` is non-negative and finite.
pub fn zone_partition_with_dmax(scenario: &Scenario, dmax: f64) -> Vec<Zone> {
    assert!(
        dmax.is_finite() && dmax >= 0.0,
        "dmax must be ≥ 0, got {dmax}"
    );
    let n = scenario.n_subscribers();
    let mut g = Graph::new(n);
    for i in 0..n {
        for j in i + 1..n {
            let si = &scenario.subscribers[i];
            let sj = &scenario.subscribers[j];
            let dist = si.position.distance(sj.position);
            let deff = (dist - si.distance_req).min(dist - sj.distance_req);
            if deff <= dmax {
                g.add_edge(i, j, deff.max(0.0));
            }
        }
    }
    components::connected_components(&g)
}
