//! User-facing LP modelling: sparse rows, ≤/≥/=, variable bounds.
//!
//! [`LpProblem`] lowers itself to equality standard form for one of two
//! cores: the sparse revised simplex ([`crate::revised`]), which every
//! solve runs, or the dense two-phase tableau ([`crate::simplex`]), the
//! differential referee that tests call by name through
//! [`LpProblem::solve_dense`]. Both lowerings shift
//! variables by their lower bounds, turn finite upper bounds into extra
//! `≤` rows, and give inequality rows slack/surplus columns. They
//! differ in one deliberate way: the dense core requires `b ≥ 0`, so
//! its lowering negates rows — the sparse core accepts any-sign `b`,
//! keeping the lowered matrix *identical* across bound changes so
//! branch-and-bound children can warm-start from a parent basis
//! ([`LpProblem::solve_with_warm_start`]), and an [`LpSession`] can
//! lower once and re-solve under changing bounds from its kept basis
//! and factors.

// Building dense rows/columns is index arithmetic by nature.
#![allow(clippy::needless_range_loop)]

use crate::budget::Budget;
use crate::error::LpError;
use crate::revised::{
    resume_dual, solve_cold, Factored, RevisedSolution, Solved, SparseStandardForm,
    DEFAULT_REFACTOR_PERIOD,
};
use crate::simplex::{solve_standard_with, StandardForm};
use crate::sparse::CscMatrix;

/// Relation of a linear constraint row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Relation {
    /// `≤ rhs`
    Le,
    /// `≥ rhs`
    Ge,
    /// `= rhs`
    Eq,
}

#[derive(Debug, Clone)]
struct Row {
    coeffs: Vec<(usize, f64)>,
    rel: Relation,
    rhs: f64,
}

/// A linear program in natural (modeller's) form.
///
/// Variables are indexed `0..n`; default bounds are `[0, +inf)`.
///
/// # Example
/// ```
/// use sag_lp::{LpProblem, Relation};
/// // max x + y  s.t.  x ≤ 1, y ≤ 2   (as min of the negation)
/// let mut lp = LpProblem::maximize(2);
/// lp.set_objective(&[1.0, 1.0]);
/// lp.add_constraint(&[(0, 1.0)], Relation::Le, 1.0);
/// lp.add_constraint(&[(1, 1.0)], Relation::Le, 2.0);
/// let sol = lp.solve().unwrap();
/// assert!((sol.objective - 3.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct LpProblem {
    n: usize,
    minimize: bool,
    objective: Vec<f64>,
    rows: Vec<Row>,
    lower: Vec<f64>,
    upper: Vec<f64>,
    budget: Budget,
}

/// An optimal LP solution.
#[derive(Debug, Clone)]
pub struct LpSolution {
    /// The optimal objective value, in the problem's own sense
    /// (maximisation problems report the maximum).
    pub objective: f64,
    /// Optimal variable values.
    pub x: Vec<f64>,
}

/// An optimal LP solution with sensitivity information.
#[derive(Debug, Clone)]
pub struct LpSolutionDetailed {
    /// The optimal objective value, in the problem's own sense.
    pub objective: f64,
    /// Optimal variable values.
    pub x: Vec<f64>,
    /// Shadow price of each *inequality* constraint row, in input order:
    /// the derivative of the optimal objective with respect to that
    /// row's right-hand side. `None` for equality rows (their duals are
    /// not recovered by this solver).
    pub duals: Vec<Option<f64>>,
    /// Reduced cost of each variable in the internal minimisation sense
    /// (zero for basic variables).
    pub reduced_costs: Vec<f64>,
}

/// The structural signature of a sparse lowering: row/column counts
/// plus the set of finite-upper-bound variables. Two problems share a
/// shape exactly when they differ only in bound *values* and right-hand
/// sides — the condition under which a basis from one is dual feasible
/// for the other.
#[derive(Debug, Clone, PartialEq, Eq)]
struct LoweredShape {
    m: usize,
    total: usize,
    n: usize,
    ub_vars: Vec<usize>,
}

/// An opaque warm-start handle: the terminal basis of a sparse solve
/// plus the shape it belongs to. Obtained from
/// [`LpProblem::solve_with_warm_start`] and fed back into a later solve
/// of a same-shaped problem (e.g. a branch-and-bound child).
#[derive(Debug, Clone)]
pub struct WarmStart {
    basis: Vec<usize>,
    shape: LoweredShape,
}

/// Result of [`LpProblem::solve_with_warm_start`].
#[derive(Debug, Clone)]
pub struct WarmOutcome {
    /// The optimal solution.
    pub solution: LpSolution,
    /// Warm-start handle for a subsequent same-shaped solve; `None`
    /// when the terminal basis cannot seed one (it kept an artificial
    /// for a redundant row).
    pub warm: Option<WarmStart>,
    /// Whether the provided seed basis was actually used (shape
    /// matched and the dual simplex accepted it).
    pub warm_used: bool,
}

/// A problem lowered to the any-sign-rhs sparse standard form, plus
/// what it takes to map a solution back and to recompute `b` after a
/// bound change.
#[derive(Debug, Clone)]
struct Lowered {
    sf: SparseStandardForm,
    /// Each user row's coefficients with duplicate variables combined,
    /// sorted by variable: the order `b`'s bound shift is summed in.
    combined: Vec<Vec<(usize, f64)>>,
    /// Each user row's equilibration scale (its largest |coefficient|).
    row_scales: Vec<f64>,
    /// Each user row's slack/surplus column (`None` for equality rows).
    slack_cols: Vec<Option<usize>>,
    shape: LoweredShape,
}

impl LpProblem {
    /// Creates a minimisation problem with `n` variables (zero objective).
    pub fn minimize(n: usize) -> Self {
        LpProblem {
            n,
            minimize: true,
            objective: vec![0.0; n],
            rows: Vec::new(),
            lower: vec![0.0; n],
            upper: vec![f64::INFINITY; n],
            budget: Budget::unlimited(),
        }
    }

    /// Creates a maximisation problem with `n` variables (zero objective).
    pub fn maximize(n: usize) -> Self {
        let mut p = Self::minimize(n);
        p.minimize = false;
        p
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.n
    }

    /// Number of constraint rows.
    pub fn num_constraints(&self) -> usize {
        self.rows.len()
    }

    /// Sets the full objective vector.
    ///
    /// # Panics
    /// Panics if `coeffs.len() != num_vars()` or any coefficient is not
    /// finite.
    pub fn set_objective(&mut self, coeffs: &[f64]) -> &mut Self {
        assert_eq!(coeffs.len(), self.n, "objective length mismatch");
        assert!(
            coeffs.iter().all(|c| c.is_finite()),
            "objective must be finite"
        );
        self.objective.copy_from_slice(coeffs);
        self
    }

    /// Sets a single objective coefficient.
    ///
    /// # Panics
    /// Panics if `var` is out of range or `coeff` is not finite.
    pub fn set_objective_coeff(&mut self, var: usize, coeff: f64) -> &mut Self {
        assert!(var < self.n, "variable {var} out of range");
        assert!(coeff.is_finite(), "objective coefficient must be finite");
        self.objective[var] = coeff;
        self
    }

    /// Adds a sparse constraint `Σ coeff·x rel rhs`.
    ///
    /// # Panics
    /// Panics if a variable index is out of range or a value is not
    /// finite.
    pub fn add_constraint(
        &mut self,
        coeffs: &[(usize, f64)],
        rel: Relation,
        rhs: f64,
    ) -> &mut Self {
        for &(v, c) in coeffs {
            assert!(
                v < self.n,
                "constraint references variable {v}, have {}",
                self.n
            );
            assert!(c.is_finite(), "constraint coefficient must be finite");
        }
        assert!(rhs.is_finite(), "rhs must be finite");
        self.rows.push(Row {
            coeffs: coeffs.to_vec(),
            rel,
            rhs,
        });
        self
    }

    /// Sets bounds `lo ≤ x_var ≤ hi` (either side may be infinite; `lo`
    /// must be finite for this solver).
    ///
    /// # Panics
    /// Panics if `var` out of range, `lo` not finite, `lo > hi`, or `hi`
    /// is NaN.
    pub fn set_bounds(&mut self, var: usize, lo: f64, hi: f64) -> &mut Self {
        assert!(var < self.n, "variable {var} out of range");
        assert!(lo.is_finite(), "lower bound must be finite (got {lo})");
        assert!(!hi.is_nan() && lo <= hi, "invalid bounds [{lo}, {hi}]");
        self.lower[var] = lo;
        self.upper[var] = hi;
        self
    }

    /// Attaches a cooperative [`Budget`] (deadline / cancellation flag)
    /// polled by the simplex core during [`LpProblem::solve`].
    pub fn set_budget(&mut self, budget: Budget) -> &mut Self {
        self.budget = budget;
        self
    }

    /// Solves the problem.
    ///
    /// # Errors
    /// [`LpError::Infeasible`] / [`LpError::Unbounded`] /
    /// [`LpError::IterationLimit`] from the simplex core, and
    /// [`LpError::Cancelled`] when an attached budget trips.
    pub fn solve(&self) -> Result<LpSolution, LpError> {
        self.solve_with_warm_start(None).map(|out| out.solution)
    }

    /// Solves the problem and additionally recovers shadow prices
    /// (inequality-row duals) and reduced costs.
    ///
    /// Strong duality is property-tested: on an optimal solution,
    /// `objective == Σ duals_i · rhs_i + Σ bound contributions` for the
    /// tight rows. Equality-row duals are reported as `None`.
    ///
    /// Runs on the sparse revised simplex.
    ///
    /// # Errors
    /// As [`LpProblem::solve`].
    pub fn solve_detailed(&self) -> Result<LpSolutionDetailed, LpError> {
        let lowered = self.lower_sparse();
        let (solved, _) = solve_lowered(&lowered.sf, None, &self.budget)?;
        Ok(self.sparse_detailed(&lowered, &solved.solution))
    }

    /// Solves the problem on the dense two-phase tableau
    /// ([`crate::simplex`]), duals included: the differential referee
    /// for the sparse core. Library code never calls it; parity tests
    /// and `bench_lp` compare it against [`LpProblem::solve_detailed`]
    /// and [`LpSession::solve`].
    ///
    /// # Errors
    /// As [`LpProblem::solve`].
    pub fn solve_dense(&self) -> Result<LpSolutionDetailed, LpError> {
        // Shift x = lower + x'. Build rows over x' ≥ 0.
        let n = self.n;
        let mut rows: Vec<(Vec<f64>, Relation, f64)> = Vec::new();
        let mut row_scales: Vec<f64> = Vec::with_capacity(self.rows.len());
        for row in &self.rows {
            let mut dense = vec![0.0; n];
            let mut shift = 0.0;
            for &(v, c) in &row.coeffs {
                dense[v] += c;
                shift += c * self.lower[v];
            }
            let mut rhs = row.rhs - shift;
            // Equilibrate: physical models (e.g. path-loss gains) mix
            // coefficient magnitudes across ~15 orders; normalising each
            // row by its largest coefficient keeps the tableau pivots
            // well-scaled.
            let scale = dense.iter().fold(0.0f64, |m, c| m.max(c.abs()));
            if scale > 0.0 {
                for c in dense.iter_mut() {
                    *c /= scale;
                }
                rhs /= scale;
            }
            row_scales.push(if scale > 0.0 { scale } else { 1.0 });
            rows.push((dense, row.rel, rhs));
        }
        // Finite upper bounds become x'_v ≤ hi − lo.
        for v in 0..n {
            if self.upper[v].is_finite() {
                let mut dense = vec![0.0; n];
                dense[v] = 1.0;
                rows.push((dense, Relation::Le, self.upper[v] - self.lower[v]));
            }
        }

        // Count slack columns.
        let n_slack = rows
            .iter()
            .filter(|(_, rel, _)| *rel != Relation::Eq)
            .count();
        let total = n + n_slack;
        let mut a: Vec<Vec<f64>> = Vec::with_capacity(rows.len());
        let mut b: Vec<f64> = Vec::with_capacity(rows.len());
        let mut slack_idx = n;
        // (slack column, relation, negated) per row — user rows first,
        // then the synthesised upper-bound rows; only the user rows feed
        // the dual recovery.
        let mut row_meta: Vec<(Option<usize>, Relation, bool)> = Vec::with_capacity(rows.len());
        for (dense, rel, rhs) in rows {
            let mut full = vec![0.0; total];
            full[..n].copy_from_slice(&dense);
            let mut rhs = rhs;
            let slack_col = match rel {
                Relation::Le => {
                    full[slack_idx] = 1.0;
                    slack_idx += 1;
                    Some(slack_idx - 1)
                }
                Relation::Ge => {
                    full[slack_idx] = -1.0;
                    slack_idx += 1;
                    Some(slack_idx - 1)
                }
                Relation::Eq => None,
            };
            let mut negated = false;
            if rhs < 0.0 {
                for c in full.iter_mut() {
                    *c = -*c;
                }
                rhs = -rhs;
                negated = true;
            }
            row_meta.push((slack_col, rel, negated));
            a.push(full);
            b.push(rhs);
        }

        let mut c = vec![0.0; total];
        for v in 0..n {
            c[v] = if self.minimize {
                self.objective[v]
            } else {
                -self.objective[v]
            };
        }

        let sol = solve_standard_with(&StandardForm { a, b, c }, &self.budget)?;
        let x: Vec<f64> = (0..n).map(|v| sol.x[v] + self.lower[v]).collect();
        let objective: f64 = self.objective.iter().zip(&x).map(|(c, v)| c * v).sum();

        // Dual recovery for the user's inequality rows: the reduced cost
        // of a row's slack/surplus column encodes its dual in the
        // internal minimisation. A Ge surplus (−1 coefficient) yields
        // rc = +y; a Le slack (+1) yields rc = −y; row negation flips the
        // coefficient and hence the sign; row scaling by k makes the
        // recovered dual k-times the user row's (y_user = y_scaled / k);
        // maximisation flips once more so the reported value is always
        // dObjective/d rhs in the problem's own sense.
        let sense = if self.minimize { 1.0 } else { -1.0 };
        let duals: Vec<Option<f64>> = self
            .rows
            .iter()
            .enumerate()
            .map(|(i, _)| {
                let (slack_col, rel, negated) = row_meta[i];
                let col = slack_col?;
                let rc = sol.reduced_costs[col];
                let mut y = match rel {
                    Relation::Ge => rc,
                    Relation::Le => -rc,
                    Relation::Eq => unreachable!("Eq rows have no slack"),
                };
                if negated {
                    y = -y;
                }
                Some(sense * y / row_scales[i])
            })
            .collect();

        Ok(LpSolutionDetailed {
            objective,
            x,
            duals,
            reduced_costs: sol.reduced_costs[..n].to_vec(),
        })
    }

    /// Bulk-adds one constraint per row of a CSC-assembled block:
    /// `block` is an `r × num_vars()` matrix and each of its rows
    /// becomes `Σ block[i,·]·x rel rhs`. This is the assembly path the
    /// ILPQC coverage rows use — triplets go straight into a canonical
    /// [`CscMatrix`] (duplicates summed, zeros dropped) instead of
    /// per-row pushes.
    ///
    /// # Panics
    /// Panics if `block.ncols() != num_vars()` or `rhs` is not finite.
    pub fn add_rows_from_csc(&mut self, block: &CscMatrix, rel: Relation, rhs: f64) -> &mut Self {
        assert_eq!(
            block.ncols(),
            self.n,
            "block has {} columns, problem has {} variables",
            block.ncols(),
            self.n
        );
        assert!(rhs.is_finite(), "rhs must be finite");
        for coeffs in block.to_rows() {
            self.rows.push(Row { coeffs, rel, rhs });
        }
        self
    }

    /// Lowers to the any-sign-rhs sparse standard form. Row order and
    /// scaling mirror the dense lowering exactly — minus the rhs
    /// negation, so the matrix (and hence [`LoweredShape`]) depends only
    /// on the constraint structure, never on bound values.
    fn lower_sparse(&self) -> Lowered {
        let n = self.n;
        let m_user = self.rows.len();
        let ub_vars: Vec<usize> = (0..n).filter(|&v| self.upper[v].is_finite()).collect();
        let m = m_user + ub_vars.len();
        let mut triplets: Vec<(usize, usize, f64)> = Vec::new();
        let mut combined_rows: Vec<Vec<(usize, f64)>> = Vec::with_capacity(m_user);
        let mut row_scales: Vec<f64> = Vec::with_capacity(m_user);
        for (i, row) in self.rows.iter().enumerate() {
            // Combine duplicate variable references, as the dense
            // lowering's scatter-add does.
            let mut combined: Vec<(usize, f64)> = row.coeffs.clone();
            combined.sort_by_key(|&(v, _)| v);
            combined.dedup_by(|next, acc| {
                if next.0 == acc.0 {
                    acc.1 += next.1;
                    true
                } else {
                    false
                }
            });
            let scale = combined.iter().fold(0.0f64, |mx, &(_, c)| mx.max(c.abs()));
            let scale = if scale > 0.0 { scale } else { 1.0 };
            for &(v, c) in &combined {
                triplets.push((i, v, c / scale));
            }
            combined_rows.push(combined);
            row_scales.push(scale);
        }
        for (idx, &v) in ub_vars.iter().enumerate() {
            triplets.push((m_user + idx, v, 1.0));
        }
        // Slack/surplus columns in row order: user rows by relation,
        // then a `+1` slack for every synthesised upper-bound row.
        let n_slack = self.rows.iter().filter(|r| r.rel != Relation::Eq).count() + ub_vars.len();
        let total = n + n_slack;
        let mut slack_idx = n;
        let mut slack_cols: Vec<Option<usize>> = Vec::with_capacity(m_user);
        for (i, row) in self.rows.iter().enumerate() {
            let sign = match row.rel {
                Relation::Le => 1.0,
                Relation::Ge => -1.0,
                Relation::Eq => {
                    slack_cols.push(None);
                    continue;
                }
            };
            triplets.push((i, slack_idx, sign));
            slack_cols.push(Some(slack_idx));
            slack_idx += 1;
        }
        for idx in 0..ub_vars.len() {
            triplets.push((m_user + idx, slack_idx, 1.0));
            slack_idx += 1;
        }
        let mut c = vec![0.0; total];
        for v in 0..n {
            c[v] = if self.minimize {
                self.objective[v]
            } else {
                -self.objective[v]
            };
        }
        let a = CscMatrix::from_triplets(m, total, &triplets)
            .expect("lowering emits in-range, finite triplets");
        let shape = LoweredShape {
            m,
            total,
            n,
            ub_vars,
        };
        let mut lowered = Lowered {
            sf: SparseStandardForm {
                a,
                b: Vec::with_capacity(m),
                c,
            },
            combined: combined_rows,
            row_scales,
            slack_cols,
            shape,
        };
        self.lower_rhs(&mut lowered);
        lowered
    }

    /// Writes `lowered.sf.b` from the current bounds: each user row's
    /// rhs less its lower-bound shift, over its scale, then `hi − lo`
    /// per upper-bound row. The one formula both a fresh lowering and a
    /// session re-solve after [`LpSession::set_bounds`] use, so their
    /// `b` agree to the bit.
    fn lower_rhs(&self, lowered: &mut Lowered) {
        let b = &mut lowered.sf.b;
        b.clear();
        for ((row, combined), &scale) in self
            .rows
            .iter()
            .zip(&lowered.combined)
            .zip(&lowered.row_scales)
        {
            let shift: f64 = combined.iter().map(|&(v, c)| c * self.lower[v]).sum();
            b.push((row.rhs - shift) / scale);
        }
        for &v in &lowered.shape.ub_vars {
            b.push(self.upper[v] - self.lower[v]);
        }
    }

    /// Maps a sparse solution's structural values back to this
    /// problem's variables: the unshifted `x` and the objective in the
    /// problem's own sense.
    fn unshift(&self, sol_x: &[f64]) -> LpSolution {
        let x: Vec<f64> = (0..self.n).map(|v| sol_x[v] + self.lower[v]).collect();
        let objective: f64 = self.objective.iter().zip(&x).map(|(c, v)| c * v).sum();
        LpSolution { objective, x }
    }

    /// [`Self::unshift`] plus dual recovery as in the dense path, minus
    /// the negation term (sparse rows are never negated).
    fn sparse_detailed(&self, lowered: &Lowered, sol: &RevisedSolution) -> LpSolutionDetailed {
        let n = self.n;
        let LpSolution { objective, x } = self.unshift(&sol.x);
        let sense = if self.minimize { 1.0 } else { -1.0 };
        let duals: Vec<Option<f64>> = (0..self.rows.len())
            .map(|i| {
                let col = lowered.slack_cols[i]?;
                let rc = sol.reduced_costs[col];
                let y = match self.rows[i].rel {
                    Relation::Ge => rc,
                    Relation::Le => -rc,
                    Relation::Eq => unreachable!("Eq rows have no slack"),
                };
                Some(sense * y / lowered.row_scales[i])
            })
            .collect();
        LpSolutionDetailed {
            objective,
            x,
            duals,
            reduced_costs: sol.reduced_costs[..n].to_vec(),
        }
    }

    /// Solves the problem, seeding the sparse core's dual simplex from
    /// a previous solve's basis when `warm` is compatible (same
    /// `LoweredShape` — i.e. only bounds/right-hand sides changed, as
    /// under branch-and-bound branching). The basis is factorized and
    /// priced afresh.
    ///
    /// # Errors
    /// As [`LpProblem::solve`]; a warm seed that cannot be used falls
    /// back to a cold solve rather than erroring.
    pub fn solve_with_warm_start(&self, warm: Option<&WarmStart>) -> Result<WarmOutcome, LpError> {
        let lowered = self.lower_sparse();
        let seed = warm
            .filter(|ws| ws.shape == lowered.shape)
            .map(|ws| (ws.basis.clone(), None));
        let (solved, warm_used) = solve_lowered(&lowered.sf, seed, &self.budget)?;
        // A basis containing artificials (redundant rows) cannot seed a
        // warm start; report no handle rather than a poisoned one.
        let warm = reusable_basis(&lowered.sf, solved.solution.basis).map(|basis| WarmStart {
            basis,
            shape: lowered.shape,
        });
        Ok(WarmOutcome {
            solution: self.unshift(&solved.solution.x),
            warm,
            warm_used,
        })
    }

    /// Returns the objective coefficients.
    pub fn objective(&self) -> &[f64] {
        &self.objective
    }

    /// Returns `true` if this is a minimisation problem.
    pub fn is_minimize(&self) -> bool {
        self.minimize
    }

    /// Lower bound of a variable.
    ///
    /// # Panics
    /// Panics if `var` is out of range.
    pub fn lower_bound(&self, var: usize) -> f64 {
        self.lower[var]
    }

    /// Upper bound of a variable.
    ///
    /// # Panics
    /// Panics if `var` is out of range.
    pub fn upper_bound(&self, var: usize) -> f64 {
        self.upper[var]
    }

    /// Checks a candidate point against all constraints and bounds with
    /// tolerance `tol`; returns the first violated row index, or `None`
    /// if feasible. (Exposed for tests and for the ILP layer.)
    pub fn first_violation(&self, x: &[f64], tol: f64) -> Option<usize> {
        assert_eq!(x.len(), self.n, "point dimension mismatch");
        for v in 0..self.n {
            if x[v] < self.lower[v] - tol || x[v] > self.upper[v] + tol {
                return Some(usize::MAX); // bound violation marker
            }
        }
        for (i, row) in self.rows.iter().enumerate() {
            let lhs: f64 = row.coeffs.iter().map(|&(v, c)| c * x[v]).sum();
            let ok = match row.rel {
                Relation::Le => lhs <= row.rhs + tol,
                Relation::Ge => lhs >= row.rhs - tol,
                Relation::Eq => (lhs - row.rhs).abs() <= tol,
            };
            if !ok {
                return Some(i);
            }
        }
        None
    }
}

/// Resumes the dual simplex from `seed` — a basis optimal for some
/// problem with this matrix and costs, plus the factors kept for it
/// when there are any — or solves cold without one. A seed that proves
/// unusable ([`LpError::Numerical`]) falls back to a cold solve;
/// anything else (Infeasible, Cancelled, …) is a real outcome and
/// propagates. Returns whether the seed was used.
fn solve_lowered(
    sf: &SparseStandardForm,
    seed: Option<(Vec<usize>, Option<Factored>)>,
    budget: &Budget,
) -> Result<(Solved, bool), LpError> {
    if let Some((basis, kept)) = seed {
        match resume_dual(sf, basis, kept, budget) {
            Ok(solved) => return Ok((solved, true)),
            Err(LpError::Numerical(_)) => {}
            Err(e) => return Err(e),
        }
    }
    Ok((solve_cold(sf, budget, DEFAULT_REFACTOR_PERIOD)?, false))
}

/// `basis` when it can seed a later resume — `None` when it kept an
/// artificial column for a redundant row.
fn reusable_basis(sf: &SparseStandardForm, basis: Vec<usize>) -> Option<Vec<usize>> {
    let total = sf.c.len();
    basis.iter().all(|&j| j < total).then_some(basis)
}

/// A kept LP session: an [`LpProblem`] lowered to sparse standard form
/// once, then re-solved as its variable bounds change.
///
/// [`LpSession::set_bounds`] changes only the lowered right-hand side
/// `b` — recomputed from the bounds by the same formula a fresh
/// lowering uses, so it is bit-identical to one. Each
/// [`LpSession::solve`] resumes the dual simplex from the basis the
/// previous solve ended on, *its LU factors and the reduced costs its
/// extraction priced through them*: a bound change leaves that basis
/// dual feasible, so a re-solve whose dual pass needs no pivot reads the
/// carried costs for the dual-feasibility guard, the primal clean-up
/// check and extraction — one FTRAN for `x_B` and the residual check,
/// no refactorization, no BTRAN, no column pricing. Any pivot,
/// refactorization or applied [`crate::revised::inject_lu_skew`] drops
/// the carried costs, and the solve prices afresh exactly as a one-shot
/// resume does; answers are bit-identical to
/// [`LpProblem::solve_with_warm_start`] from the same basis. Every
/// solve still runs the residual self-check on the factors it uses,
/// the dual-feasibility guard (an unusable basis falls back to a cold
/// solve) and budget polling, extracts through a fresh factorization
/// after any pivot, and flushes its own `lp.sparse_*` counters. A
/// failed solve drops all kept state, so the next one starts cold.
/// [`LpProblem::solve_dense`] on [`LpSession::problem`] is the referee
/// for each re-solve.
///
/// # Example
/// ```
/// use sag_lp::{LpProblem, LpSession, Relation};
///
/// // min x + y  s.t.  x + y ≥ 1, then with x fixed up to ≥ 2.
/// let mut lp = LpProblem::minimize(2);
/// lp.set_objective(&[1.0, 1.0]);
/// lp.add_constraint(&[(0, 1.0), (1, 1.0)], Relation::Ge, 1.0);
/// let mut session = LpSession::new(lp);
/// assert!((session.solve().unwrap().objective - 1.0).abs() < 1e-9);
/// session.set_bounds(0, 2.0, f64::INFINITY);
/// assert!((session.solve().unwrap().objective - 2.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct LpSession {
    problem: LpProblem,
    lowered: Lowered,
    /// The last solve's terminal basis, the factors built for it and
    /// the reduced costs priced through them.
    kept: Option<(Vec<usize>, Factored)>,
    /// Bounds changed since `lowered.sf.b` was last written.
    stale_rhs: bool,
}

impl LpSession {
    /// Lowers `problem` once and opens a session on it (the problem's
    /// [`Budget`] is polled by every solve).
    pub fn new(problem: LpProblem) -> Self {
        let lowered = problem.lower_sparse();
        LpSession {
            problem,
            lowered,
            kept: None,
            stale_rhs: false,
        }
    }

    /// The problem as it stands, bounds included.
    pub fn problem(&self) -> &LpProblem {
        &self.problem
    }

    /// Sets bounds `lo ≤ x_var ≤ hi` for the following solves. The
    /// lowered right-hand side is rewritten to match once, at the next
    /// solve.
    ///
    /// # Panics
    /// As [`LpProblem::set_bounds`]; and when `hi` changes whether the
    /// variable's upper bound is finite — that adds or drops a lowered
    /// row, a new shape the kept basis cannot serve (build a new
    /// session instead).
    pub fn set_bounds(&mut self, var: usize, lo: f64, hi: f64) -> &mut Self {
        assert!(var < self.problem.n, "variable {var} out of range");
        assert_eq!(
            self.problem.upper[var].is_finite(),
            hi.is_finite(),
            "set_bounds on variable {var} would change the lowered shape"
        );
        self.problem.set_bounds(var, lo, hi);
        self.stale_rhs = true;
        self
    }

    /// Solves the problem under its current bounds.
    ///
    /// # Errors
    /// As [`LpProblem::solve`].
    pub fn solve(&mut self) -> Result<LpSolution, LpError> {
        if self.stale_rhs {
            self.problem.lower_rhs(&mut self.lowered);
            self.stale_rhs = false;
        }
        let seed = self.kept.take().map(|(basis, kept)| (basis, Some(kept)));
        let (Solved { solution, fact }, _) =
            solve_lowered(&self.lowered.sf, seed, &self.problem.budget)?;
        let answer = self.problem.unshift(&solution.x);
        let reduced_costs = solution.reduced_costs;
        self.kept = reusable_basis(&self.lowered.sf, solution.basis).map(|basis| {
            (
                basis,
                Factored {
                    fact,
                    reduced_costs,
                },
            )
        });
        Ok(answer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sag_testkit::prelude::*;

    #[test]
    fn min_with_ge() {
        // min x + 2y s.t. x + y ≥ 3, y ≤ 2.
        let mut lp = LpProblem::minimize(2);
        lp.set_objective(&[1.0, 2.0]);
        lp.add_constraint(&[(0, 1.0), (1, 1.0)], Relation::Ge, 3.0);
        lp.add_constraint(&[(1, 1.0)], Relation::Le, 2.0);
        let s = lp.solve().unwrap();
        assert!((s.objective - 3.0).abs() < 1e-9);
        assert!((s.x[0] - 3.0).abs() < 1e-9);
        assert!(s.x[1].abs() < 1e-9);
    }

    #[test]
    fn maximize_reports_max() {
        let mut lp = LpProblem::maximize(2);
        lp.set_objective(&[3.0, 5.0]);
        lp.add_constraint(&[(0, 1.0)], Relation::Le, 4.0);
        lp.add_constraint(&[(1, 2.0)], Relation::Le, 12.0);
        lp.add_constraint(&[(0, 3.0), (1, 2.0)], Relation::Le, 18.0);
        let s = lp.solve().unwrap();
        assert!((s.objective - 36.0).abs() < 1e-9);
        assert!((s.x[0] - 2.0).abs() < 1e-9 && (s.x[1] - 6.0).abs() < 1e-9);
    }

    #[test]
    fn variable_bounds_respected() {
        // min x with x ∈ [2, 5].
        let mut lp = LpProblem::minimize(1);
        lp.set_objective(&[1.0]);
        lp.set_bounds(0, 2.0, 5.0);
        let s = lp.solve().unwrap();
        assert!((s.x[0] - 2.0).abs() < 1e-9);
        // max hits the upper bound.
        let mut lp = LpProblem::maximize(1);
        lp.set_objective(&[1.0]);
        lp.set_bounds(0, 2.0, 5.0);
        let s = lp.solve().unwrap();
        assert!((s.x[0] - 5.0).abs() < 1e-9);
    }

    #[test]
    fn negative_lower_bound_shift() {
        // min x with x ∈ [−3, ∞) and x ≥ −1 → optimum −1.
        let mut lp = LpProblem::minimize(1);
        lp.set_objective(&[1.0]);
        lp.set_bounds(0, -3.0, f64::INFINITY);
        lp.add_constraint(&[(0, 1.0)], Relation::Ge, -1.0);
        let s = lp.solve().unwrap();
        assert!((s.x[0] + 1.0).abs() < 1e-9);
    }

    #[test]
    fn negative_rhs_normalised() {
        // x ≤ −1 with x ∈ [−5, 0]: feasible, min −x → x = −1? No:
        // min x → x = −5; max x → x = −1.
        let mut lp = LpProblem::maximize(1);
        lp.set_objective(&[1.0]);
        lp.set_bounds(0, -5.0, 0.0);
        lp.add_constraint(&[(0, 1.0)], Relation::Le, -1.0);
        let s = lp.solve().unwrap();
        assert!((s.x[0] + 1.0).abs() < 1e-9);
    }

    #[test]
    fn equality_constraints() {
        // min x+y s.t. x + y = 4, x − y = 2 → (3,1).
        let mut lp = LpProblem::minimize(2);
        lp.set_objective(&[1.0, 1.0]);
        lp.add_constraint(&[(0, 1.0), (1, 1.0)], Relation::Eq, 4.0);
        lp.add_constraint(&[(0, 1.0), (1, -1.0)], Relation::Eq, 2.0);
        let s = lp.solve().unwrap();
        assert!((s.x[0] - 3.0).abs() < 1e-9);
        assert!((s.x[1] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn infeasible_detected() {
        let mut lp = LpProblem::minimize(1);
        lp.add_constraint(&[(0, 1.0)], Relation::Ge, 5.0);
        lp.add_constraint(&[(0, 1.0)], Relation::Le, 1.0);
        assert_eq!(lp.solve().unwrap_err(), LpError::Infeasible);
    }

    #[test]
    fn unbounded_detected() {
        let mut lp = LpProblem::maximize(1);
        lp.set_objective(&[1.0]);
        assert_eq!(lp.solve().unwrap_err(), LpError::Unbounded);
    }

    #[test]
    fn lpqc_shape_power_min() {
        // A miniature of the paper's LPQC with a fixed assignment:
        // two relays serving one SS each; coverage floors and an SNR-style
        // cross constraint.
        //   min P1 + P2
        //   P1·g11 ≥ pss1          (coverage of SS1 by RS1)
        //   P2·g22 ≥ pss2          (coverage of SS2 by RS2)
        //   P1·g11 − β·P2·g21 ≥ 0  (SNR at SS1)
        //   P2·g22 − β·P1·g12 ≥ 0  (SNR at SS2)
        //   0 ≤ Pi ≤ pmax
        let (g11, g22, g21, g12) = (1e-3, 1e-3, 1e-5, 1e-5);
        let (pss1, pss2, beta, pmax) = (2e-4, 3e-4, 5.0, 1.0);
        let mut lp = LpProblem::minimize(2);
        lp.set_objective(&[1.0, 1.0]);
        lp.set_bounds(0, 0.0, pmax);
        lp.set_bounds(1, 0.0, pmax);
        lp.add_constraint(&[(0, g11)], Relation::Ge, pss1);
        lp.add_constraint(&[(1, g22)], Relation::Ge, pss2);
        lp.add_constraint(&[(0, g11), (1, -beta * g21)], Relation::Ge, 0.0);
        lp.add_constraint(&[(1, g22), (0, -beta * g12)], Relation::Ge, 0.0);
        let s = lp.solve().unwrap();
        assert!(lp.first_violation(&s.x, 1e-9).is_none());
        // Coverage floors bind: P1 = 0.2, P2 = 0.3 (SNR slack at these).
        assert!((s.x[0] - 0.2).abs() < 1e-6);
        assert!((s.x[1] - 0.3).abs() < 1e-6);
    }

    #[test]
    fn first_violation_reports() {
        let mut lp = LpProblem::minimize(2);
        lp.add_constraint(&[(0, 1.0), (1, 1.0)], Relation::Le, 1.0);
        assert_eq!(lp.first_violation(&[2.0, 0.0], 1e-9), Some(0));
        assert_eq!(lp.first_violation(&[0.5, 0.4], 1e-9), None);
        assert_eq!(lp.first_violation(&[-1.0, 0.0], 1e-9), Some(usize::MAX));
    }

    #[test]
    #[should_panic]
    fn bad_variable_index_panics() {
        LpProblem::minimize(1).add_constraint(&[(1, 1.0)], Relation::Le, 0.0);
    }

    #[test]
    #[should_panic]
    fn inverted_bounds_panic() {
        LpProblem::minimize(1).set_bounds(0, 2.0, 1.0);
    }

    prop! {
        /// Random bounded LPs: the solver's optimum must be feasible and
        /// no random feasible point may beat it.
        fn prop_optimality_vs_random_points(seed in 0u64..300) {
            let mut rng = Rng::seed_from_u64(seed);
            let n = rng.gen_range(1..4usize);
            let m = rng.gen_range(1..4usize);
            let mut lp = LpProblem::minimize(n);
            let obj: Vec<f64> = (0..n).map(|_| rng.gen_range(-5.0..5.0)).collect();
            lp.set_objective(&obj);
            for v in 0..n {
                lp.set_bounds(v, 0.0, rng.gen_range(0.5..10.0));
            }
            for _ in 0..m {
                let coeffs: Vec<(usize, f64)> =
                    (0..n).map(|v| (v, rng.gen_range(-3.0..3.0))).collect();
                lp.add_constraint(&coeffs, Relation::Le, rng.gen_range(0.0..10.0));
            }
            match lp.solve() {
                Ok(sol) => {
                    prop_assert!(lp.first_violation(&sol.x, 1e-6).is_none());
                    // Random feasible points cannot beat the optimum.
                    for _ in 0..50 {
                        let p: Vec<f64> = (0..n)
                            .map(|v| rng.gen_range(0.0..=lp.upper_bound(v)))
                            .collect();
                        if lp.first_violation(&p, 1e-9).is_none() {
                            let val: f64 = obj.iter().zip(&p).map(|(c, x)| c * x).sum();
                            prop_assert!(val >= sol.objective - 1e-6,
                                "random point {val} beat optimum {}", sol.objective);
                        }
                    }
                }
                Err(LpError::Infeasible) => {
                    // Bounded box + Le rows: infeasibility only when a row
                    // excludes the box entirely — possible; nothing to check.
                }
                Err(e) => prop_assert!(false, "unexpected error {e}"),
            }
        }
    }
}

#[cfg(test)]
mod session_tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    #[test]
    fn resumed_solve_polls_the_budget() {
        // min x + y  s.t.  x + y ≥ 1: solved once, then re-solved after
        // the cancel flag is raised — the resume from kept factors must
        // still answer Cancelled, and the next solve starts cold.
        let flag = Arc::new(AtomicBool::new(false));
        let mut lp = LpProblem::minimize(2);
        lp.set_objective(&[1.0, 1.0]);
        lp.add_constraint(&[(0, 1.0), (1, 1.0)], Relation::Ge, 1.0);
        lp.set_budget(Budget::unlimited().with_cancel_flag(flag.clone()));
        let mut session = LpSession::new(lp);
        assert!((session.solve().unwrap().objective - 1.0).abs() < 1e-9);
        session.set_bounds(0, 0.5, f64::INFINITY);
        flag.store(true, Ordering::Relaxed);
        assert_eq!(session.solve().unwrap_err(), LpError::Cancelled);
        assert!(
            session.kept.is_none(),
            "a failed solve drops the kept basis"
        );
        flag.store(false, Ordering::Relaxed);
        assert!((session.solve().unwrap().objective - 1.0).abs() < 1e-9);
    }
}

#[cfg(test)]
mod dual_tests {
    use super::*;

    #[test]
    fn shadow_price_of_binding_row() {
        // min x s.t. 2x ≥ 4 → x = 2, obj = 2, dual = dObj/dRhs = 0.5.
        let mut lp = LpProblem::minimize(1);
        lp.set_objective(&[1.0]);
        lp.add_constraint(&[(0, 2.0)], Relation::Ge, 4.0);
        let d = lp.solve_detailed().unwrap();
        assert!((d.objective - 2.0).abs() < 1e-9);
        let y = d.duals[0].unwrap();
        assert!((y - 0.5).abs() < 1e-9, "dual {y}");
    }

    #[test]
    fn slack_row_has_zero_dual() {
        // min x s.t. x ≥ 1, x ≥ 0.2 (second row slack at optimum).
        let mut lp = LpProblem::minimize(1);
        lp.set_objective(&[1.0]);
        lp.add_constraint(&[(0, 1.0)], Relation::Ge, 1.0);
        lp.add_constraint(&[(0, 1.0)], Relation::Ge, 0.2);
        let d = lp.solve_detailed().unwrap();
        assert!((d.duals[0].unwrap() - 1.0).abs() < 1e-9);
        assert!(d.duals[1].unwrap().abs() < 1e-9);
    }

    #[test]
    fn maximisation_dual_sign() {
        // max 3x s.t. x ≤ 5 → obj = 15, dObj/dRhs = 3.
        let mut lp = LpProblem::maximize(1);
        lp.set_objective(&[3.0]);
        lp.add_constraint(&[(0, 1.0)], Relation::Le, 5.0);
        let d = lp.solve_detailed().unwrap();
        assert!((d.objective - 15.0).abs() < 1e-9);
        assert!((d.duals[0].unwrap() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn strong_duality_on_production_lp() {
        // Classic: max 3x + 5y s.t. x ≤ 4, 2y ≤ 12, 3x + 2y ≤ 18.
        // Optimum 36 at (2, 6); duals: (0, 1.5, 1).
        let mut lp = LpProblem::maximize(2);
        lp.set_objective(&[3.0, 5.0]);
        lp.add_constraint(&[(0, 1.0)], Relation::Le, 4.0);
        lp.add_constraint(&[(1, 2.0)], Relation::Le, 12.0);
        lp.add_constraint(&[(0, 3.0), (1, 2.0)], Relation::Le, 18.0);
        let d = lp.solve_detailed().unwrap();
        let y: Vec<f64> = d.duals.iter().map(|v| v.unwrap()).collect();
        assert!(y[0].abs() < 1e-9);
        assert!((y[1] - 1.5).abs() < 1e-9);
        assert!((y[2] - 1.0).abs() < 1e-9);
        // Strong duality: b'y = objective.
        let by = 4.0 * y[0] + 12.0 * y[1] + 18.0 * y[2];
        assert!((by - d.objective).abs() < 1e-9);
    }

    #[test]
    fn dual_sensitivity_matches_finite_difference() {
        // Nudge a binding rhs and confirm the objective moves by ~dual·Δ.
        let build = |rhs: f64| {
            let mut lp = LpProblem::minimize(2);
            lp.set_objective(&[2.0, 3.0]);
            lp.add_constraint(&[(0, 1.0), (1, 1.0)], Relation::Ge, rhs);
            lp.add_constraint(&[(1, 1.0)], Relation::Le, 2.0);
            lp
        };
        let base = build(5.0).solve_detailed().unwrap();
        let y = base.duals[0].unwrap();
        let eps = 1e-3;
        let bumped = build(5.0 + eps).solve_detailed().unwrap();
        let fd = (bumped.objective - base.objective) / eps;
        assert!((fd - y).abs() < 1e-6, "fd {fd} vs dual {y}");
    }

    #[test]
    fn scaled_row_dual_unscaled_correctly() {
        // Same geometry, wildly scaled coefficients: dual must match the
        // unscaled twin.
        let mut a = LpProblem::minimize(1);
        a.set_objective(&[1.0]);
        a.add_constraint(&[(0, 1.0)], Relation::Ge, 3.0);
        let mut b = LpProblem::minimize(1);
        b.set_objective(&[1.0]);
        b.add_constraint(&[(0, 1e9)], Relation::Ge, 3e9);
        let ya = a.solve_detailed().unwrap().duals[0].unwrap();
        let yb = b.solve_detailed().unwrap().duals[0].unwrap();
        // dObj/dRhs for row b is 1e-9 of row a's (its rhs is 1e9 larger).
        assert!((ya - 1.0).abs() < 1e-9);
        assert!((yb - 1e-9).abs() < 1e-15);
    }

    #[test]
    fn equality_rows_report_none() {
        let mut lp = LpProblem::minimize(1);
        lp.set_objective(&[1.0]);
        lp.add_constraint(&[(0, 1.0)], Relation::Eq, 2.0);
        let d = lp.solve_detailed().unwrap();
        assert!(d.duals[0].is_none());
    }

    #[test]
    fn reduced_costs_nonnegative_at_min_optimum() {
        let mut lp = LpProblem::minimize(2);
        lp.set_objective(&[1.0, 2.0]);
        lp.add_constraint(&[(0, 1.0), (1, 1.0)], Relation::Ge, 3.0);
        let d = lp.solve_detailed().unwrap();
        for rc in &d.reduced_costs {
            assert!(*rc >= -1e-9);
        }
    }
}
