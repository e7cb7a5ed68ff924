//! Dense two-phase primal simplex on equality standard form.
//!
//! This is the numerical core; user-facing modelling lives in
//! [`crate::problem`]. The tableau is dense `Vec<Vec<f64>>` — the
//! reproduction's LPs have at most a few hundred rows/columns, where dense
//! pivoting is both fast and simple to audit.

// Dense-tableau pivoting reads most naturally with explicit indices;
// iterator rewrites obscure the row/column arithmetic.
#![allow(clippy::needless_range_loop)]

use crate::budget::Budget;
use crate::error::LpError;

/// Numerical tolerance for pivoting and feasibility tests.
pub const TOL: f64 = 1e-9;

/// How many pivots run between cooperative budget polls; a power of two
/// so the check is a mask, keeping `Instant::now` off the hot path.
const BUDGET_POLL_MASK: usize = 63;

/// A standard-form LP: minimise `c·x` subject to `A x = b`, `x ≥ 0`,
/// with `b ≥ 0` (rows must be pre-negated by the caller if needed).
#[derive(Debug, Clone)]
pub struct StandardForm {
    /// Constraint matrix, `m × n`.
    pub a: Vec<Vec<f64>>,
    /// Right-hand side, length `m`, all entries ≥ 0.
    pub b: Vec<f64>,
    /// Objective coefficients, length `n`.
    pub c: Vec<f64>,
}

/// Result of a simplex run: optimal objective value, primal solution and
/// the final reduced costs.
#[derive(Debug, Clone)]
pub struct SimplexSolution {
    /// The minimal objective value.
    pub objective: f64,
    /// Values of the structural variables (length `n`).
    pub x: Vec<f64>,
    /// Reduced cost of each structural variable at the optimum
    /// (non-negative for a minimisation optimum; zero for basic
    /// variables). `reduced_costs[j]` is how much the objective would
    /// grow per unit increase of the non-basic variable `j`.
    pub reduced_costs: Vec<f64>,
}

/// Solves a standard-form LP with the two-phase primal simplex method.
///
/// Phase 1 drives artificial variables to zero (detecting infeasibility);
/// phase 2 optimises the true objective. Bland's rule is engaged after a
/// burn-in of Dantzig pivots, guaranteeing termination on degenerate
/// problems.
///
/// # Errors
/// [`LpError::Infeasible`], [`LpError::Unbounded`], or
/// [`LpError::IterationLimit`] (pathological cycling beyond the Bland
/// safeguard, practically unreachable).
pub fn solve_standard(sf: &StandardForm) -> Result<SimplexSolution, LpError> {
    solve_standard_with(sf, &Budget::unlimited())
}

/// [`solve_standard`] under a cooperative [`Budget`]: the deadline and
/// cancellation flag are polled every few pivots.
///
/// # Errors
/// As [`solve_standard`], plus [`LpError::Cancelled`] when the budget's
/// deadline passes or its flag is raised mid-solve.
pub fn solve_standard_with(sf: &StandardForm, budget: &Budget) -> Result<SimplexSolution, LpError> {
    let mut pivots = [0usize; 2];
    let out = solve_inner(sf, budget, &mut pivots);
    // One flush per solve: the pivot loop itself stays uninstrumented.
    if sag_obs::enabled() {
        sag_obs::counter("lp.solves", 1);
        sag_obs::counter("lp.pivots_phase1", pivots[0] as u64);
        sag_obs::counter("lp.pivots_phase2", pivots[1] as u64);
        if matches!(out, Err(LpError::Cancelled)) {
            sag_obs::counter("lp.budget_exhausted", 1);
        }
    }
    out
}

/// [`solve_standard_with`] minus the observability flush; `pivots`
/// receives the per-phase pivot counts even on an error path.
fn solve_inner(
    sf: &StandardForm,
    budget: &Budget,
    pivots: &mut [usize; 2],
) -> Result<SimplexSolution, LpError> {
    let m = sf.a.len();
    let n = sf.c.len();
    for (i, row) in sf.a.iter().enumerate() {
        if row.len() != n {
            return Err(LpError::Malformed(format!(
                "row {i} has {} coefficients, expected {n}",
                row.len()
            )));
        }
        if sf.b[i] < -TOL {
            return Err(LpError::Malformed(format!(
                "b[{i}] = {} is negative",
                sf.b[i]
            )));
        }
    }
    if sf.b.len() != m {
        return Err(LpError::Malformed(format!(
            "b has {} entries, expected {m}",
            sf.b.len()
        )));
    }

    // Slack crashing: a structural column that is a singleton `+1` in
    // row `i` (and zero elsewhere) with zero cost can serve as row `i`'s
    // initial basic variable, so that row needs no artificial. This keeps
    // badly-scaled bound rows (huge rhs) out of the phase-1 objective.
    let mut crash: Vec<Option<usize>> = vec![None; m];
    let mut used_col = vec![false; n];
    for i in 0..m {
        for j in 0..n {
            if used_col[j] || sf.c[j] != 0.0 {
                continue;
            }
            if (sf.a[i][j] - 1.0).abs() <= TOL && (0..m).all(|k| k == i || sf.a[k][j].abs() <= TOL)
            {
                crash[i] = Some(j);
                used_col[j] = true;
                break;
            }
        }
    }

    // Tableau layout: columns [structural 0..n | artificial n..n+m | rhs].
    // Crashed rows keep a zeroed artificial column that never enters.
    let width = n + m + 1;
    let mut t: Vec<Vec<f64>> = Vec::with_capacity(m + 1);
    for i in 0..m {
        let mut row = vec![0.0; width];
        row[..n].copy_from_slice(&sf.a[i]);
        if crash[i].is_none() {
            row[n + i] = 1.0;
        }
        row[width - 1] = sf.b[i].max(0.0);
        t.push(row);
    }
    let mut basis: Vec<usize> = (0..m).map(|i| crash[i].unwrap_or(n + i)).collect();

    // ---- Phase 1: minimise the sum of artificials. ----
    let mut obj = vec![0.0; width];
    for j in n..n + m {
        obj[j] = 1.0;
    }
    // Price out the basic artificials (crashed rows have no artificial
    // and a zero-cost basic column, so they contribute nothing).
    for i in 0..m {
        if crash[i].is_none() {
            for j in 0..width {
                obj[j] -= t[i][j];
            }
        }
    }
    run_phases(&mut t, &mut obj, &mut basis, n + m, budget, &mut pivots[0])?;
    let phase1 = -obj[width - 1];
    if phase1 > 1e-7 {
        return Err(LpError::Infeasible);
    }

    // Pivot any artificial still in the basis out (degenerate rows), or
    // drop redundant rows by zeroing them.
    for i in 0..m {
        if basis[i] >= n {
            // Find a structural column with a non-zero entry in this row.
            if let Some(j) = (0..n).find(|&j| t[i][j].abs() > TOL) {
                pivot(&mut t, &mut obj, &mut basis, i, j);
            }
            // Otherwise the row is all-zero over structurals (redundant);
            // the artificial stays basic at value 0 and never re-enters
            // because phase 2 blocks artificial columns.
        }
    }

    // ---- Phase 2: minimise the true objective. ----
    let mut obj2 = vec![0.0; width];
    obj2[..n].copy_from_slice(&sf.c);
    // Price out basic variables.
    for i in 0..m {
        let bj = basis[i];
        let coeff = obj2[bj];
        if coeff.abs() > 0.0 {
            for j in 0..width {
                obj2[j] -= coeff * t[i][j];
            }
        }
    }
    run_phases(&mut t, &mut obj2, &mut basis, n, budget, &mut pivots[1])?;

    let mut x = vec![0.0; n];
    for i in 0..m {
        if basis[i] < n {
            x[basis[i]] = t[i][width - 1];
        }
    }
    let objective = sf.c.iter().zip(&x).map(|(c, v)| c * v).sum();
    let reduced_costs = obj2[..n].to_vec();
    Ok(SimplexSolution {
        objective,
        x,
        reduced_costs,
    })
}

/// Runs simplex iterations on the current tableau until optimal.
/// Columns `>= allowed_cols` are excluded from entering the basis
/// (used to lock out artificials in phase 2).
fn run_phases(
    t: &mut [Vec<f64>],
    obj: &mut [f64],
    basis: &mut [usize],
    allowed_cols: usize,
    budget: &Budget,
    pivots: &mut usize,
) -> Result<(), LpError> {
    let m = t.len();
    let width = obj.len();
    let max_iters = 50 * (m + width) + 1000;
    let bland_after = 5 * (m + width);
    for iter in 0..max_iters {
        if iter & BUDGET_POLL_MASK == 0 {
            budget.check_interrupt()?;
        }
        // Entering column: most negative reduced cost (Dantzig), or first
        // negative (Bland) once past the burn-in.
        let entering = if iter < bland_after {
            let mut best = None;
            let mut best_val = -TOL;
            for (j, &cj) in obj.iter().enumerate().take(width - 1) {
                if j < allowed_cols && cj < best_val {
                    best_val = cj;
                    best = Some(j);
                }
            }
            best
        } else {
            (0..allowed_cols.min(width - 1)).find(|&j| obj[j] < -TOL)
        };
        let Some(e) = entering else {
            return Ok(());
        };
        // Leaving row: minimum ratio test; Bland tie-break on basis index.
        let mut leave: Option<(usize, f64)> = None;
        for i in 0..m {
            let a = t[i][e];
            if a > TOL {
                let ratio = t[i][width - 1] / a;
                let better = match leave {
                    None => true,
                    Some((li, lr)) => {
                        ratio < lr - TOL || ((ratio - lr).abs() <= TOL && basis[i] < basis[li])
                    }
                };
                if better {
                    leave = Some((i, ratio));
                }
            }
        }
        let Some((l, _)) = leave else {
            return Err(LpError::Unbounded);
        };
        pivot(t, obj, basis, l, e);
        *pivots += 1;
    }
    Err(LpError::IterationLimit)
}

/// Pivots the tableau on row `l`, column `e`.
fn pivot(t: &mut [Vec<f64>], obj: &mut [f64], basis: &mut [usize], l: usize, e: usize) {
    let width = obj.len();
    let p = t[l][e];
    debug_assert!(p.abs() > TOL, "pivot on near-zero element {p}");
    for j in 0..width {
        t[l][j] /= p;
    }
    for i in 0..t.len() {
        if i != l {
            let f = t[i][e];
            if f.abs() > 0.0 {
                for j in 0..width {
                    t[i][j] -= f * t[l][j];
                }
            }
        }
    }
    let f = obj[e];
    if f.abs() > 0.0 {
        for j in 0..width {
            obj[j] -= f * t[l][j];
        }
    }
    basis[l] = e;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn solve(a: Vec<Vec<f64>>, b: Vec<f64>, c: Vec<f64>) -> Result<SimplexSolution, LpError> {
        solve_standard(&StandardForm { a, b, c })
    }

    #[test]
    fn trivial_equality() {
        // min x  s.t. x = 5.
        let s = solve(vec![vec![1.0]], vec![5.0], vec![1.0]).unwrap();
        assert!((s.objective - 5.0).abs() < 1e-9);
        assert!((s.x[0] - 5.0).abs() < 1e-9);
    }

    #[test]
    fn classic_lp() {
        // min -3x - 5y s.t. x + s1 = 4; 2y + s2 = 12; 3x + 2y + s3 = 18.
        // Optimum at x=2, y=6, objective -36.
        let a = vec![
            vec![1.0, 0.0, 1.0, 0.0, 0.0],
            vec![0.0, 2.0, 0.0, 1.0, 0.0],
            vec![3.0, 2.0, 0.0, 0.0, 1.0],
        ];
        let b = vec![4.0, 12.0, 18.0];
        let c = vec![-3.0, -5.0, 0.0, 0.0, 0.0];
        let s = solve(a, b, c).unwrap();
        assert!((s.objective + 36.0).abs() < 1e-9);
        assert!((s.x[0] - 2.0).abs() < 1e-9);
        assert!((s.x[1] - 6.0).abs() < 1e-9);
    }

    #[test]
    fn infeasible_system() {
        // x = 1 and x = 2 simultaneously.
        let a = vec![vec![1.0], vec![1.0]];
        let b = vec![1.0, 2.0];
        let c = vec![1.0];
        assert_eq!(solve(a, b, c).unwrap_err(), LpError::Infeasible);
    }

    #[test]
    fn unbounded_objective() {
        // min -x s.t. x - s = 0 (x ≥ 0, s ≥ 0): x free upward.
        let a = vec![vec![1.0, -1.0]];
        let b = vec![0.0];
        let c = vec![-1.0, 0.0];
        assert_eq!(solve(a, b, c).unwrap_err(), LpError::Unbounded);
    }

    #[test]
    fn redundant_rows_ok() {
        // Same constraint twice: x + y = 2 (duplicated), min x.
        let a = vec![vec![1.0, 1.0], vec![1.0, 1.0]];
        let b = vec![2.0, 2.0];
        let c = vec![1.0, 0.0];
        let s = solve(a, b, c).unwrap();
        assert!((s.objective).abs() < 1e-9);
        assert!((s.x[1] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn degenerate_vertex() {
        // Degenerate: three constraints meeting at a point.
        let a = vec![
            vec![1.0, 0.0, 1.0, 0.0, 0.0],
            vec![0.0, 1.0, 0.0, 1.0, 0.0],
            vec![1.0, 1.0, 0.0, 0.0, 1.0],
        ];
        let b = vec![1.0, 1.0, 2.0];
        let c = vec![-1.0, -1.0, 0.0, 0.0, 0.0];
        let s = solve(a, b, c).unwrap();
        assert!((s.objective + 2.0).abs() < 1e-9);
    }

    #[test]
    fn malformed_row_rejected() {
        let a = vec![vec![1.0, 2.0]];
        let b = vec![1.0];
        let c = vec![1.0];
        assert!(matches!(solve(a, b, c), Err(LpError::Malformed(_))));
    }

    #[test]
    fn negative_rhs_rejected() {
        let a = vec![vec![1.0]];
        let b = vec![-1.0];
        let c = vec![1.0];
        assert!(matches!(solve(a, b, c), Err(LpError::Malformed(_))));
    }

    #[test]
    fn expired_budget_cancels_before_pivoting() {
        let sf = StandardForm {
            a: vec![vec![1.0]],
            b: vec![5.0],
            c: vec![1.0],
        };
        let budget = Budget::unlimited().with_deadline(std::time::Duration::ZERO);
        assert_eq!(
            solve_standard_with(&sf, &budget).unwrap_err(),
            LpError::Cancelled
        );
        // An unlimited budget solves the same system.
        assert!(solve_standard_with(&sf, &Budget::unlimited()).is_ok());
    }

    #[test]
    fn raised_cancel_flag_cancels() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        let flag = Arc::new(AtomicBool::new(false));
        let budget = Budget::unlimited().with_cancel_flag(Arc::clone(&flag));
        let sf = StandardForm {
            a: vec![vec![1.0]],
            b: vec![5.0],
            c: vec![1.0],
        };
        assert!(solve_standard_with(&sf, &budget).is_ok());
        flag.store(true, Ordering::Relaxed);
        assert_eq!(
            solve_standard_with(&sf, &budget).unwrap_err(),
            LpError::Cancelled
        );
    }
}
