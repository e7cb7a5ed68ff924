//! Branch-and-bound integer programming over [`LpProblem`] relaxations.
//!
//! Depth-first branch and bound with best-incumbent pruning; variables
//! declared integer are branched on their fractional LP values. Intended
//! for the small exact benchmarks of the reproduction (set-cover style
//! coverage instances with tens of binaries), mirroring how the paper
//! leans on Gurobi only for modest instance sizes.

use crate::budget::Budget;
use crate::error::LpError;
#[cfg(test)]
use crate::problem::Relation;
use crate::problem::{LpProblem, WarmStart};

/// An integer program: an [`LpProblem`] plus a set of integer variables.
///
/// # Example
/// ```
/// use sag_lp::{IlpProblem, LpProblem, Relation};
/// // min x + y  s.t.  2x + y ≥ 3, x,y ∈ {0,1,2,…}
/// let mut lp = LpProblem::minimize(2);
/// lp.set_objective(&[1.0, 1.0]);
/// lp.add_constraint(&[(0, 2.0), (1, 1.0)], Relation::Ge, 3.0);
/// let mut ilp = IlpProblem::new(lp);
/// ilp.set_integer(0);
/// ilp.set_integer(1);
/// let sol = ilp.solve().unwrap();
/// assert!((sol.objective - 2.0).abs() < 1e-9); // x = 1, y = 1  (or x=2,y=0? 2x+y≥3 ⇒ (2,0) costs 2 too)
/// ```
#[derive(Debug, Clone)]
pub struct IlpProblem {
    lp: LpProblem,
    integer: Vec<bool>,
    node_limit: usize,
    budget: Budget,
    warm_start: bool,
}

/// An optimal ILP solution.
#[derive(Debug, Clone)]
pub struct IlpSolution {
    /// Optimal objective value.
    pub objective: f64,
    /// Optimal variable values; integer variables are exact integers.
    pub x: Vec<f64>,
    /// Number of branch-and-bound nodes explored.
    pub nodes: usize,
}

const INT_TOL: f64 = 1e-6;

/// Branch-and-bound work counts, flushed to `sag-obs` once per solve.
#[derive(Default)]
struct BbStats {
    /// Nodes popped and expanded.
    nodes: usize,
    /// Nodes cut by the incumbent bound.
    pruned: usize,
    /// Times the incumbent improved.
    incumbents: usize,
    /// Relaxations solved from a parent basis by the dual simplex.
    warm_starts: usize,
    /// Relaxations solved cold (root, shape change, unusable seed, or
    /// warm starts disabled).
    cold_starts: usize,
}

/// A pending branch-and-bound node: `(var, lo, hi)` bound tightenings
/// applied on top of the base problem, plus the basis the parent
/// relaxation ended on (dual feasible for the child: only bounds
/// changed).
type BbNode = (Vec<(usize, f64, f64)>, Option<WarmStart>);

impl IlpProblem {
    /// Wraps an LP; no variables are integer until marked.
    pub fn new(lp: LpProblem) -> Self {
        let n = lp.num_vars();
        IlpProblem {
            lp,
            integer: vec![false; n],
            node_limit: 200_000,
            budget: Budget::unlimited(),
            warm_start: true,
        }
    }

    /// Enables or disables dual-simplex warm starts of child
    /// relaxations from their parent's basis (on by default). Cold
    /// solves are the differential baseline — `bench_lp` measures the
    /// gap.
    pub fn set_warm_start(&mut self, warm: bool) -> &mut Self {
        self.warm_start = warm;
        self
    }

    /// Marks a variable as integer.
    ///
    /// # Panics
    /// Panics if `var` is out of range.
    pub fn set_integer(&mut self, var: usize) -> &mut Self {
        assert!(var < self.integer.len(), "variable {var} out of range");
        self.integer[var] = true;
        self
    }

    /// Marks a variable binary: integer with bounds `[0, 1]`.
    ///
    /// # Panics
    /// Panics if `var` is out of range.
    pub fn set_binary(&mut self, var: usize) -> &mut Self {
        self.lp.set_bounds(var, 0.0, 1.0);
        self.set_integer(var)
    }

    /// Caps the number of branch-and-bound nodes (default 200 000).
    pub fn set_node_limit(&mut self, limit: usize) -> &mut Self {
        self.node_limit = limit;
        self
    }

    /// Attaches a cooperative [`Budget`]: its node cap tightens the
    /// configured node limit, and its deadline / cancellation flag are
    /// polled once per node and inside every relaxation solve.
    pub fn set_budget(&mut self, budget: Budget) -> &mut Self {
        self.budget = budget;
        self
    }

    /// Solves to optimality by branch and bound on the LP relaxation.
    ///
    /// # Errors
    /// [`LpError::Infeasible`] when no integral point exists;
    /// [`LpError::Unbounded`] when the relaxation is unbounded;
    /// [`LpError::NodeLimit`] when the node cap is hit;
    /// [`LpError::Cancelled`] when an attached budget's deadline passes
    /// or its cancellation flag is raised.
    pub fn solve(&self) -> Result<IlpSolution, LpError> {
        let mut stats = BbStats::default();
        let out = self.solve_inner(&mut stats);
        // One flush per solve, even on the error paths.
        if sag_obs::enabled() {
            sag_obs::counter("ilp.nodes", stats.nodes as u64);
            sag_obs::counter("ilp.pruned", stats.pruned as u64);
            sag_obs::counter("ilp.incumbents", stats.incumbents as u64);
            sag_obs::counter("ilp.warm_starts", stats.warm_starts as u64);
            sag_obs::counter("ilp.cold_starts", stats.cold_starts as u64);
            if matches!(out, Err(LpError::NodeLimit | LpError::Cancelled)) {
                sag_obs::counter("ilp.budget_exhausted", 1);
            }
        }
        out
    }

    fn solve_inner(&self, stats: &mut BbStats) -> Result<IlpSolution, LpError> {
        // Maximisation is handled by the LP layer transparently; for
        // pruning we always compare in minimisation sense.
        let sense = if self.lp.is_minimize() { 1.0 } else { -1.0 };
        let node_cap = self
            .budget
            .node_limit()
            .map_or(self.node_limit, |b| b.min(self.node_limit));
        let mut best: Option<(f64, Vec<f64>)> = None; // minimisation sense
        let mut nodes = 0usize;
        let mut stack: Vec<BbNode> = vec![(Vec::new(), None)];
        while let Some((extra, parent_warm)) = stack.pop() {
            nodes += 1;
            stats.nodes = nodes;
            if nodes > node_cap {
                return Err(LpError::NodeLimit);
            }
            self.budget.check_interrupt()?;
            let mut lp = self.lp.clone();
            lp.set_budget(self.budget.clone());
            let mut infeasible_bounds = false;
            for &(v, lo, hi) in &extra {
                let new_lo = lo.max(lp.lower_bound(v));
                let new_hi = hi.min(lp.upper_bound(v));
                if new_lo > new_hi {
                    infeasible_bounds = true;
                    break;
                }
                lp.set_bounds(v, new_lo, new_hi);
            }
            if infeasible_bounds {
                continue;
            }
            let seed = if self.warm_start {
                parent_warm.as_ref()
            } else {
                None
            };
            let (relax, node_warm) = match lp.solve_with_warm_start(seed) {
                Ok(out) => {
                    if out.warm_used {
                        stats.warm_starts += 1;
                    } else {
                        stats.cold_starts += 1;
                    }
                    (out.solution, out.warm)
                }
                Err(LpError::Infeasible) => continue,
                Err(e) => return Err(e),
            };
            let relax_min = sense * relax.objective;
            if let Some((incumbent, _)) = &best {
                // A deeper node can only tighten (increase) the relaxation.
                if relax_min >= *incumbent - 1e-9 {
                    stats.pruned += 1;
                    continue;
                }
            }
            // Find the most fractional integer variable.
            let frac_var = self
                .integer
                .iter()
                .enumerate()
                .filter(|&(_, &is_int)| is_int)
                .map(|(v, _)| (v, (relax.x[v] - relax.x[v].round()).abs()))
                .filter(|&(_, f)| f > INT_TOL)
                .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite fractions"));
            match frac_var {
                None => {
                    // Integral: candidate incumbent.
                    let mut x = relax.x.clone();
                    for (v, &is_int) in self.integer.iter().enumerate() {
                        if is_int {
                            x[v] = x[v].round();
                        }
                    }
                    let obj_min = sense * relax.objective;
                    if best.as_ref().is_none_or(|(b, _)| obj_min < *b - 1e-12) {
                        best = Some((obj_min, x));
                        stats.incumbents += 1;
                    }
                }
                Some((v, _)) => {
                    let val = relax.x[v];
                    let floor = val.floor();
                    // Branch down: x_v ≤ floor; branch up: x_v ≥ floor+1.
                    let mut down = extra.clone();
                    down.push((v, f64::NEG_INFINITY_SAFE(), floor));
                    let mut up = extra;
                    up.push((v, floor + 1.0, f64::INFINITY));
                    // Both children inherit this node's terminal basis.
                    // Explore the branch nearer the fractional value first.
                    if val - floor < 0.5 {
                        stack.push((up, node_warm.clone()));
                        stack.push((down, node_warm));
                    } else {
                        stack.push((down, node_warm.clone()));
                        stack.push((up, node_warm));
                    }
                }
            }
        }
        match best {
            Some((obj_min, x)) => Ok(IlpSolution {
                objective: sense * obj_min,
                x,
                nodes,
            }),
            None => Err(LpError::Infeasible),
        }
    }
}

/// The LP layer requires finite lower bounds; branching "down" keeps the
/// base lower bound by passing a sentinel that [`IlpProblem::solve`]
/// clamps via `max` with the existing bound.
trait NegInfSafe {
    #[allow(non_snake_case)]
    fn NEG_INFINITY_SAFE() -> f64;
}
impl NegInfSafe for f64 {
    fn NEG_INFINITY_SAFE() -> f64 {
        f64::MIN
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sag_testkit::prelude::*;

    #[test]
    fn knapsack_binary() {
        // max 10a + 6b + 4c  s.t. a + b + c ≤ 2 (binaries).
        let mut lp = LpProblem::maximize(3);
        lp.set_objective(&[10.0, 6.0, 4.0]);
        lp.add_constraint(&[(0, 1.0), (1, 1.0), (2, 1.0)], Relation::Le, 2.0);
        let mut ilp = IlpProblem::new(lp);
        for v in 0..3 {
            ilp.set_binary(v);
        }
        let s = ilp.solve().unwrap();
        assert!((s.objective - 16.0).abs() < 1e-9);
        assert!((s.x[0] - 1.0).abs() < 1e-9 && (s.x[1] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn fractional_relaxation_forced_integral() {
        // min x s.t. 2x ≥ 3, x integer → x = 2 (relaxation gives 1.5).
        let mut lp = LpProblem::minimize(1);
        lp.set_objective(&[1.0]);
        lp.add_constraint(&[(0, 2.0)], Relation::Ge, 3.0);
        let mut ilp = IlpProblem::new(lp);
        ilp.set_integer(0);
        let s = ilp.solve().unwrap();
        assert!((s.x[0] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn set_cover_exact() {
        // Universe {1,2,3}; sets A={1,2}, B={2,3}, C={3}, D={1}.
        // Optimal cover: {A, B} (2 sets).
        let mut lp = LpProblem::minimize(4);
        lp.set_objective(&[1.0, 1.0, 1.0, 1.0]);
        lp.add_constraint(&[(0, 1.0), (3, 1.0)], Relation::Ge, 1.0); // elt 1
        lp.add_constraint(&[(0, 1.0), (1, 1.0)], Relation::Ge, 1.0); // elt 2
        lp.add_constraint(&[(1, 1.0), (2, 1.0)], Relation::Ge, 1.0); // elt 3
        let mut ilp = IlpProblem::new(lp);
        for v in 0..4 {
            ilp.set_binary(v);
        }
        let s = ilp.solve().unwrap();
        assert!((s.objective - 2.0).abs() < 1e-9);
        // Verify the returned selection really covers all three elements
        // (several 2-set optima exist, e.g. {A,B} or {B,D}).
        let picked: Vec<usize> = (0..4).filter(|&v| s.x[v] > 0.5).collect();
        assert_eq!(picked.len(), 2);
        let covers = [vec![1, 2], vec![2, 3], vec![3], vec![1]];
        let mut covered: std::collections::HashSet<usize> = Default::default();
        for &p in &picked {
            covered.extend(covers[p].iter().copied());
        }
        assert_eq!(covered.len(), 3);
    }

    #[test]
    fn mixed_integer_continuous() {
        // min y  s.t. y ≥ x − 0.5, x ≥ 1.3, x integer, y continuous.
        let mut lp = LpProblem::minimize(2);
        lp.set_objective(&[0.0, 1.0]);
        lp.add_constraint(&[(1, 1.0), (0, -1.0)], Relation::Ge, -0.5);
        lp.add_constraint(&[(0, 1.0)], Relation::Ge, 1.3);
        lp.set_bounds(0, 0.0, 10.0);
        let mut ilp = IlpProblem::new(lp);
        ilp.set_integer(0);
        let s = ilp.solve().unwrap();
        assert!((s.x[0] - 2.0).abs() < 1e-9);
        assert!((s.x[1] - 1.5).abs() < 1e-9);
    }

    #[test]
    fn infeasible_integrality() {
        // 0.4 ≤ x ≤ 0.6, x integer: no integral point.
        let mut lp = LpProblem::minimize(1);
        lp.set_objective(&[1.0]);
        lp.set_bounds(0, 0.4, 0.6);
        let mut ilp = IlpProblem::new(lp);
        ilp.set_integer(0);
        assert_eq!(ilp.solve().unwrap_err(), LpError::Infeasible);
    }

    #[test]
    fn pure_lp_passthrough() {
        // No integer variables: ILP == LP.
        let mut lp = LpProblem::minimize(1);
        lp.set_objective(&[1.0]);
        lp.add_constraint(&[(0, 1.0)], Relation::Ge, 1.5);
        let s = IlpProblem::new(lp).solve().unwrap();
        assert!((s.x[0] - 1.5).abs() < 1e-9);
        assert_eq!(s.nodes, 1);
    }

    #[test]
    fn node_limit_respected() {
        let mut lp = LpProblem::minimize(1);
        lp.set_objective(&[1.0]);
        lp.set_bounds(0, 0.4, 0.6);
        let mut ilp = IlpProblem::new(lp);
        ilp.set_integer(0);
        ilp.set_node_limit(0);
        assert_eq!(ilp.solve().unwrap_err(), LpError::NodeLimit);
    }

    #[test]
    fn budget_node_cap_tightens_node_limit() {
        let mut lp = LpProblem::minimize(1);
        lp.set_objective(&[1.0]);
        lp.set_bounds(0, 0.4, 0.6);
        let mut ilp = IlpProblem::new(lp);
        ilp.set_integer(0);
        ilp.set_budget(Budget::unlimited().with_node_limit(0));
        assert_eq!(ilp.solve().unwrap_err(), LpError::NodeLimit);
    }

    #[test]
    fn expired_budget_deadline_cancels() {
        let mut lp = LpProblem::minimize(1);
        lp.set_objective(&[1.0]);
        lp.add_constraint(&[(0, 2.0)], Relation::Ge, 3.0);
        let mut ilp = IlpProblem::new(lp);
        ilp.set_integer(0);
        ilp.set_budget(Budget::unlimited().with_deadline(std::time::Duration::ZERO));
        assert_eq!(ilp.solve().unwrap_err(), LpError::Cancelled);
    }

    /// Brute-force checker for random binary set-cover instances.
    fn brute_cover(costs: &[f64], covers: &[Vec<usize>], n_elts: usize) -> Option<f64> {
        let n = costs.len();
        let mut best: Option<f64> = None;
        for mask in 0u32..(1 << n) {
            let mut covered = vec![false; n_elts];
            let mut cost = 0.0;
            for s in 0..n {
                if mask & (1 << s) != 0 {
                    cost += costs[s];
                    for &e in &covers[s] {
                        covered[e] = true;
                    }
                }
            }
            if covered.iter().all(|&c| c) && best.is_none_or(|b| cost < b) {
                best = Some(cost);
            }
        }
        best
    }

    prop! {
        fn prop_matches_brute_force_set_cover(seed in 0u64..150) {
            let mut rng = Rng::seed_from_u64(seed);
            let n_sets = rng.gen_range(2..7usize);
            let n_elts = rng.gen_range(1..6usize);
            let costs: Vec<f64> = (0..n_sets).map(|_| rng.gen_range(1.0..5.0)).collect();
            let covers: Vec<Vec<usize>> = (0..n_sets)
                .map(|_| (0..n_elts).filter(|_| rng.gen_bool(0.5)).collect())
                .collect();
            let mut lp = LpProblem::minimize(n_sets);
            lp.set_objective(&costs);
            let mut rows_ok = true;
            for e in 0..n_elts {
                let row: Vec<(usize, f64)> = (0..n_sets)
                    .filter(|&s| covers[s].contains(&e))
                    .map(|s| (s, 1.0))
                    .collect();
                if row.is_empty() {
                    rows_ok = false; // element uncoverable
                    break;
                }
                lp.add_constraint(&row, Relation::Ge, 1.0);
            }
            prop_assume!(rows_ok);
            let mut ilp = IlpProblem::new(lp);
            for v in 0..n_sets {
                ilp.set_binary(v);
            }
            let got = ilp.solve().unwrap();
            let want = brute_cover(&costs, &covers, n_elts).unwrap();
            prop_assert!((got.objective - want).abs() < 1e-6,
                "ilp {} vs brute {}", got.objective, want);
        }
    }
}
