//! Sparse revised simplex with LU basis factorization and dual-simplex
//! warm starts.
//!
//! The dense tableau in [`crate::simplex`] pays `O(m·width)` per pivot
//! regardless of structure. ILPQC/LPQC matrices are mostly slack and
//! coverage singletons, so this module keeps `A` in CSC form
//! ([`CscMatrix`]) and represents the basis inverse implicitly:
//!
//! * a direct **LU factorization** built by column-singleton
//!   triangularization — columns with one remaining nonzero pivot
//!   immediately, yielding a permuted upper-triangular block `U11`; the
//!   leftover "bump" `B22` is factorized densely with partial pivoting.
//!   Set-cover bases are almost entirely slack/singleton columns, so
//!   the bump stays tiny and each FTRAN/BTRAN costs `O(nnz + bump²)`;
//! * **product-form eta updates** after each pivot (Bartels–Golub
//!   style), with periodic refactorization once the eta file reaches
//!   `SparseSimplex::refactor_period` — bounding both fill and drift;
//! * a **residual self-check** after every refactorization: if
//!   `‖b − B·x‖∞` drifts past [`RESIDUAL_TOL`], the factorization is
//!   rebuilt once and, failing that, the solve surfaces
//!   [`LpError::Numerical`] instead of a silently wrong basis (this is
//!   the detection path the `Fault::LpBasisDesync` chaos arm exercises
//!   via [`inject_lu_skew`]);
//! * **Bland's rule** after a Dantzig burn-in, guaranteeing termination
//!   on degenerate problems (see the Beale-example regression test);
//! * one **dual simplex** resume core so re-solves start from an
//!   earlier optimal basis: a bound change only moves `b`, leaving that
//!   basis dual feasible. [`solve_sparse_from_basis`] is its one-shot
//!   use (branch-and-bound children seeded with a parent's basis); a
//!   kept [`crate::LpSession`] also hands back the LU factors its last
//!   solve ended on and the reduced costs its extraction priced through
//!   them, so a re-solve that makes no pivot neither refactorizes nor
//!   prices a column.
//!
//! The final answer is always extracted from a *fresh* factorization of
//! the terminal basis — never through the eta file — so the reported
//! objective is a pure function of the final basis and refactorization
//! cadence cannot perturb it. Factors built for the terminal basis with
//! no pivot since are such a factorization, so extraction reuses them.

// This core must never panic on adversarial (fuzzed / chaos-mutated)
// input; every failure is a typed `LpError`.
#![deny(clippy::unwrap_used)]
#![deny(clippy::expect_used)]
// Factorization and substitution kernels read most naturally with
// explicit indices.
#![allow(clippy::needless_range_loop)]

use std::cell::Cell;

use crate::budget::Budget;
use crate::error::LpError;
use crate::simplex::TOL;
use crate::sparse::CscMatrix;

/// Relative residual above which a freshly built factorization is
/// rejected (and rebuilt once before erroring). Generous against honest
/// rounding, far below any real desync.
pub const RESIDUAL_TOL: f64 = 1e-6;

/// Pivots between cooperative budget polls (mask, so a power of two
/// minus one).
const BUDGET_POLL_MASK: usize = 63;

/// Pivot magnitude below which the triangularization leaves a column
/// for the dense bump / the dense LU declares the basis singular.
const SING_TOL: f64 = 1e-11;

/// Reduced costs more negative than this at extraction force the solve
/// to resume (matches the dense phase-1 residual threshold).
const OPT_TOL: f64 = 1e-7;

/// A standard-form LP over a sparse matrix: minimise `c·x` subject to
/// `A x = b`, `x ≥ 0`. Unlike [`crate::simplex::StandardForm`], `b` may
/// carry any sign — rows are *not* negated, which keeps the lowered
/// shape identical across branch-and-bound bound changes (the key to
/// warm-start reuse).
#[derive(Debug, Clone)]
pub struct SparseStandardForm {
    /// Constraint matrix, `m × n`, in CSC form.
    pub a: CscMatrix,
    /// Right-hand side, length `m`, any sign.
    pub b: Vec<f64>,
    /// Objective coefficients, length `n`.
    pub c: Vec<f64>,
}

/// Result of a revised-simplex run.
#[derive(Debug, Clone)]
pub struct RevisedSolution {
    /// The minimal objective value.
    pub objective: f64,
    /// Values of the structural variables (length `n`).
    pub x: Vec<f64>,
    /// Reduced cost of each structural variable at the optimum (zero
    /// for basic variables).
    pub reduced_costs: Vec<f64>,
    /// The optimal basis: one column index per row. Entries `≥ n` are
    /// artificial columns left basic (at zero) by redundant rows. Feed
    /// this to [`solve_sparse_from_basis`] to warm-start a re-solve
    /// after a right-hand-side change.
    pub basis: Vec<usize>,
    /// Total simplex pivots performed (both phases / dual pass).
    pub pivots: usize,
}

thread_local! {
    /// Chaos hook: `(delta, persistent)` — the next factorization build
    /// multiplies one LU entry by `1 + delta`. One-shot skews clear
    /// after the first application (the retry refactorization comes up
    /// clean); persistent skews re-apply every build, forcing the
    /// typed-error path.
    static LU_SKEW: Cell<Option<(f64, bool)>> = const { Cell::new(None) };
}

/// Arms the LU-skew chaos fault on this thread: the next factorization
/// a solve puts to use — freshly built, or kept from an earlier solve
/// by an [`crate::LpSession`] — has one factor entry multiplied by
/// `1 + delta`. With
/// `persistent = false` the skew clears after one application, so the
/// solver's retry refactorization recovers; with `persistent = true`
/// every rebuild is skewed and the solve must surface
/// [`LpError::Numerical`]. Testing hook for `Fault::LpBasisDesync`.
pub fn inject_lu_skew(delta: f64, persistent: bool) {
    LU_SKEW.with(|c| c.set(Some((delta, persistent))));
}

/// Disarms any pending [`inject_lu_skew`] on this thread.
pub fn clear_lu_skew() {
    LU_SKEW.with(|c| c.set(None));
}

/// Takes the pending skew, re-arming it when persistent.
fn consume_lu_skew() -> Option<f64> {
    LU_SKEW.with(|c| {
        let pending = c.get();
        if let Some((delta, persistent)) = pending {
            if !persistent {
                c.set(None);
            }
            Some(delta)
        } else {
            None
        }
    })
}

/// LU factorization of a basis matrix: a column-singleton triangular
/// block plus a dense bump, in permuted form
/// `P_r · B · P_c = [U11 B12; 0 B22]`.
#[derive(Debug, Clone)]
pub(crate) struct Factorization {
    m: usize,
    /// Number of triangularized pivots (`k ≤ m`).
    k: usize,
    /// Basis slot → solve position (0..k triangular, k..m bump).
    pos_of_slot: Vec<usize>,
    slot_of_pos: Vec<usize>,
    /// Original row → solve position.
    pos_of_row: Vec<usize>,
    row_of_pos: Vec<usize>,
    /// `U11` column `t`: above-diagonal entries `(position < t, value)`.
    u_cols: Vec<Vec<(usize, f64)>>,
    u_diag: Vec<f64>,
    /// `B12` bump column `j`: entries `(position < k, value)`.
    b12: Vec<Vec<(usize, f64)>>,
    /// Dense LU of the `nb × nb` bump (row-major, L unit-diagonal in
    /// the strict lower triangle) with partial-pivot row swaps.
    nb: usize,
    lu: Vec<f64>,
    lu_piv: Vec<usize>,
}

impl Factorization {
    /// Factorizes the basis given each slot's column `(rows, values)`.
    /// Returns `None` when the basis is numerically singular.
    fn build(m: usize, cols: &[Vec<(usize, f64)>]) -> Option<Factorization> {
        debug_assert_eq!(cols.len(), m);
        // Active-count bookkeeping for the singleton sweep.
        let mut col_nnz: Vec<usize> = cols.iter().map(Vec::len).collect();
        let mut row_slots: Vec<Vec<usize>> = vec![Vec::new(); m];
        for (s, col) in cols.iter().enumerate() {
            for &(r, _) in col {
                row_slots[r].push(s);
            }
        }
        let mut row_done = vec![false; m];
        let mut col_done = vec![false; m];
        let mut work: Vec<usize> = (0..m).filter(|&s| col_nnz[s] == 1).collect();
        // Pivot order: (row, slot) per triangular step.
        let mut order: Vec<(usize, usize)> = Vec::new();
        while let Some(s) = work.pop() {
            if col_done[s] || col_nnz[s] != 1 {
                continue; // stale worklist entry
            }
            let Some(&(r, v)) = cols[s].iter().find(|&&(r, _)| !row_done[r]) else {
                return None; // active count said 1 but no live row: singular
            };
            if v.abs() <= SING_TOL {
                continue; // leave for the pivoted dense bump
            }
            col_done[s] = true;
            row_done[r] = true;
            order.push((r, s));
            for &other in &row_slots[r] {
                if !col_done[other] {
                    col_nnz[other] -= 1;
                    if col_nnz[other] == 1 {
                        work.push(other);
                    }
                }
            }
        }
        let k = order.len();
        let nb = m - k;

        let mut pos_of_row = vec![usize::MAX; m];
        let mut pos_of_slot = vec![usize::MAX; m];
        for (t, &(r, s)) in order.iter().enumerate() {
            pos_of_row[r] = t;
            pos_of_slot[s] = t;
        }
        let mut next = k;
        for r in 0..m {
            if !row_done[r] {
                pos_of_row[r] = next;
                next += 1;
            }
        }
        debug_assert_eq!(next, m);
        next = k;
        for s in 0..m {
            if !col_done[s] {
                pos_of_slot[s] = next;
                next += 1;
            }
        }
        let mut row_of_pos = vec![0usize; m];
        let mut slot_of_pos = vec![0usize; m];
        for r in 0..m {
            row_of_pos[pos_of_row[r]] = r;
        }
        for s in 0..m {
            slot_of_pos[pos_of_slot[s]] = s;
        }

        // Scatter the columns into U11 / B12 / B22.
        let mut u_cols: Vec<Vec<(usize, f64)>> = vec![Vec::new(); k];
        let mut u_diag = vec![0.0; k];
        let mut b12: Vec<Vec<(usize, f64)>> = vec![Vec::new(); nb];
        let mut lu = vec![0.0; nb * nb];
        for s in 0..m {
            let cpos = pos_of_slot[s];
            for &(r, v) in &cols[s] {
                let rpos = pos_of_row[r];
                if cpos < k {
                    if rpos == cpos {
                        u_diag[cpos] = v;
                    } else {
                        debug_assert!(rpos < cpos, "triangular block must be upper");
                        u_cols[cpos].push((rpos, v));
                    }
                } else if rpos < k {
                    b12[cpos - k].push((rpos, v));
                } else {
                    lu[(rpos - k) * nb + (cpos - k)] = v;
                }
            }
        }

        // Dense LU of the bump with partial pivoting.
        let mut lu_piv = vec![0usize; nb];
        for c in 0..nb {
            let mut p = c;
            let mut pv = lu[c * nb + c].abs();
            for r in c + 1..nb {
                let v = lu[r * nb + c].abs();
                if v > pv {
                    pv = v;
                    p = r;
                }
            }
            if pv <= SING_TOL {
                return None;
            }
            lu_piv[c] = p;
            if p != c {
                for j in 0..nb {
                    lu.swap(c * nb + j, p * nb + j);
                }
            }
            let d = lu[c * nb + c];
            for r in c + 1..nb {
                let f = lu[r * nb + c] / d;
                lu[r * nb + c] = f;
                if f != 0.0 {
                    for j in c + 1..nb {
                        lu[r * nb + j] -= f * lu[c * nb + j];
                    }
                }
            }
        }

        let mut fact = Factorization {
            m,
            k,
            pos_of_slot,
            slot_of_pos,
            pos_of_row,
            row_of_pos,
            u_cols,
            u_diag,
            b12,
            nb,
            lu,
            lu_piv,
        };
        fact.apply_pending_skew();
        Some(fact)
    }

    /// Applies a pending [`inject_lu_skew`] to these factors: one entry
    /// is multiplied by `1 + delta`. Called on every build and on every
    /// reuse of kept factors — the residual self-check must catch the
    /// skew, never the caller. Returns whether a skew was applied.
    fn apply_pending_skew(&mut self) -> bool {
        let Some(delta) = consume_lu_skew() else {
            return false;
        };
        if self.k > 0 {
            self.u_diag[0] *= 1.0 + delta;
        } else if self.nb > 0 {
            self.lu[0] *= 1.0 + delta;
        }
        true
    }

    /// Solves `B x = v` through the factorization alone (no etas).
    /// Input is indexed by original row; output by basis slot.
    fn solve(&self, v: &[f64]) -> Vec<f64> {
        let mut rp = vec![0.0; self.m];
        for r in 0..self.m {
            rp[self.pos_of_row[r]] = v[r];
        }
        self.solve_permuted(rp)
    }

    /// [`Self::solve`] for a right-hand side given as sparse
    /// `(row, value)` entries — skips densifying the input first.
    fn solve_from_entries<I>(&self, entries: I) -> Vec<f64>
    where
        I: IntoIterator<Item = (usize, f64)>,
    {
        let mut rp = vec![0.0; self.m];
        for (r, val) in entries {
            rp[self.pos_of_row[r]] += val;
        }
        self.solve_permuted(rp)
    }

    /// The shared tail of the forward solves: `rp` is the rhs already
    /// permuted to elimination order.
    fn solve_permuted(&self, mut rp: Vec<f64>) -> Vec<f64> {
        let (m, k, nb) = (self.m, self.k, self.nb);
        // Bump: B22 x2 = rp[k..], via P·B22 = L·U. The stored L
        // multipliers are in *final* row order (factorization swaps
        // whole rows, moving earlier multipliers along), so every row
        // swap must hit the rhs before forward substitution starts.
        let mut x2 = rp[k..].to_vec();
        for c in 0..nb {
            let p = self.lu_piv[c];
            if p != c {
                x2.swap(c, p);
            }
        }
        for c in 0..nb {
            // Forward-substitute L (unit diagonal) column-wise.
            let xc = x2[c];
            if xc != 0.0 {
                for r in c + 1..nb {
                    x2[r] -= self.lu[r * nb + c] * xc;
                }
            }
        }
        for c in (0..nb).rev() {
            x2[c] /= self.lu[c * nb + c];
            let xc = x2[c];
            if xc != 0.0 {
                for r in 0..c {
                    x2[r] -= self.lu[r * nb + c] * xc;
                }
            }
        }
        // Eliminated rows: rp[0..k] -= B12 · x2.
        for j in 0..nb {
            let xj = x2[j];
            if xj != 0.0 {
                for &(pos, val) in &self.b12[j] {
                    rp[pos] -= val * xj;
                }
            }
        }
        // Back-substitute the upper-triangular U11.
        for t in (0..k).rev() {
            let xt = rp[t] / self.u_diag[t];
            rp[t] = xt;
            if xt != 0.0 {
                for &(pos, val) in &self.u_cols[t] {
                    rp[pos] -= val * xt;
                }
            }
        }
        // Scatter back to slot indexing.
        let mut out = vec![0.0; m];
        for t in 0..k {
            out[self.slot_of_pos[t]] = rp[t];
        }
        for j in 0..nb {
            out[self.slot_of_pos[k + j]] = x2[j];
        }
        out
    }

    /// Solves `Bᵀ y = c` through the factorization alone (no etas).
    /// Input is indexed by basis slot; output by original row.
    fn solve_transpose(&self, c: &[f64]) -> Vec<f64> {
        let (m, k, nb) = (self.m, self.k, self.nb);
        let mut cp = vec![0.0; m];
        for s in 0..m {
            cp[self.pos_of_slot[s]] = c[s];
        }
        // U11ᵀ y1 = cp[0..k]: forward substitution in elimination order
        // (row t of U11ᵀ is column t of U11).
        for t in 0..k {
            let mut acc = cp[t];
            for &(pos, val) in &self.u_cols[t] {
                acc -= val * cp[pos];
            }
            cp[t] = acc / self.u_diag[t];
        }
        // Bump rhs: cp[k..] − B12ᵀ y1.
        let mut r2 = vec![0.0; nb];
        for j in 0..nb {
            let mut acc = cp[k + j];
            for &(pos, val) in &self.b12[j] {
                acc -= val * cp[pos];
            }
            r2[j] = acc;
        }
        // B22ᵀ y2 = r2: with P·B22 = L·U, solve Uᵀ z = r2 (forward),
        // Lᵀ w = z (backward), y2 = Pᵀ w (swaps in reverse order).
        for c0 in 0..nb {
            let mut acc = r2[c0];
            for r in 0..c0 {
                acc -= self.lu[r * nb + c0] * r2[r];
            }
            r2[c0] = acc / self.lu[c0 * nb + c0];
        }
        for c0 in (0..nb).rev() {
            let mut acc = r2[c0];
            for r in c0 + 1..nb {
                acc -= self.lu[r * nb + c0] * r2[r];
            }
            r2[c0] = acc;
        }
        for c0 in (0..nb).rev() {
            let p = self.lu_piv[c0];
            if p != c0 {
                r2.swap(c0, p);
            }
        }
        // Assemble y indexed by original row.
        let mut y = vec![0.0; m];
        for t in 0..k {
            y[self.row_of_pos[t]] = cp[t];
        }
        for j in 0..nb {
            y[self.row_of_pos[k + j]] = r2[j];
        }
        y
    }
}

/// A product-form eta factor: basis slot `r` replaced by a column whose
/// pivot entry is `wr` and whose off-pivot nonzeros are `nz` (indexed by
/// slot, ascending, `r` excluded). FTRAN'd columns of block-structured
/// bases are mostly exact zeros, so storing only the nonzeros keeps eta
/// application O(nnz) instead of O(m).
#[derive(Debug, Clone)]
struct Eta {
    r: usize,
    wr: f64,
    nz: Vec<(usize, f64)>,
}

/// The working state of a revised-simplex solve.
struct SparseSimplex<'a> {
    sf: &'a SparseStandardForm,
    m: usize,
    n: usize,
    /// Artificial column signs: artificial `i` is a singleton
    /// `sign(b_i)` in row `i`, so its initial value is `|b_i|`.
    art_sign: Vec<f64>,
    basis: Vec<usize>,
    in_basis: Vec<bool>,
    fact: Factorization,
    etas: Vec<Eta>,
    /// Basic variable values, indexed by basis slot.
    x_b: Vec<f64>,
    /// Reduced costs under the true costs `c`, priced through `fact`
    /// for the current basis by the extraction of an earlier solve (zero
    /// for basic columns). Only a resume from kept factors starts with
    /// them; any pivot, refactorization or applied skew drops them, and
    /// pricing then computes them afresh.
    carried: Option<Vec<f64>>,
    /// Etas accumulated before a full refactorization.
    refactor_period: usize,
    /// Rotating start column for partial pricing.
    price_start: usize,
    budget: &'a Budget,
    pivots: usize,
    refactors: usize,
    /// Passes that priced the columns against a BTRAN'd vector.
    pricings: Cell<usize>,
}

/// Where a pass over the columns reads reduced costs from.
enum Pricing<'s> {
    /// The costs carried for the current factors and basis.
    Carried(&'s [f64]),
    /// `y = B⁻ᵀ c_B`, to price each column against.
    Duals(Vec<f64>),
}

/// Partial-pricing block: columns scanned per sweep step before the
/// best negative reduced cost found so far is accepted. Only a full
/// empty sweep proves optimality, so this changes the pivot path but
/// never the answer.
const PRICE_BLOCK: usize = 64;

impl<'a> SparseSimplex<'a> {
    /// Column `j` of the extended matrix `[A | artificials]` as sparse
    /// entries.
    fn col_entries(&self, j: usize) -> Vec<(usize, f64)> {
        if j < self.n {
            let (rows, vals) = self.sf.a.col(j);
            rows.iter().copied().zip(vals.iter().copied()).collect()
        } else {
            vec![(j - self.n, self.art_sign[j - self.n])]
        }
    }

    /// `y · a_j` over the extended matrix.
    fn price_col(&self, j: usize, y: &[f64]) -> f64 {
        if j < self.n {
            self.sf.a.dot_col(j, y)
        } else {
            y[j - self.n] * self.art_sign[j - self.n]
        }
    }

    /// The reduced costs of a pass under `costs`: the carried ones while
    /// they are valid, else `y = B⁻ᵀ c_B` — one pricing pass. Costs are
    /// only carried in a resume, which prices nothing but the true
    /// costs `c`.
    fn pricing(&self, costs: &[f64]) -> Pricing<'_> {
        if let Some(rc) = self.carried.as_deref() {
            debug_assert_eq!(&costs[..self.n], &self.sf.c[..]);
            return Pricing::Carried(rc);
        }
        self.pricings.set(self.pricings.get() + 1);
        let c_b: Vec<f64> = self.basis.iter().map(|&j| costs[j]).collect();
        Pricing::Duals(self.btran(&c_b))
    }

    /// `d_j = c_j − y·a_j` of nonbasic column `j` under `pricing`.
    fn reduced_cost(&self, pricing: &Pricing<'_>, costs: &[f64], j: usize) -> f64 {
        match pricing {
            Pricing::Carried(rc) => rc[j],
            Pricing::Duals(y) => costs[j] - self.price_col(j, y),
        }
    }

    /// FTRAN of extended column `j`: `B⁻¹ a_j` (output by slot) without
    /// densifying the column first — the scatter goes straight into the
    /// factorization's permuted rhs.
    fn ftran_col(&self, j: usize) -> Vec<f64> {
        let mut x = if j < self.n {
            let (rows, vals) = self.sf.a.col(j);
            self.fact
                .solve_from_entries(rows.iter().copied().zip(vals.iter().copied()))
        } else {
            self.fact
                .solve_from_entries(std::iter::once((j - self.n, self.art_sign[j - self.n])))
        };
        self.apply_etas(&mut x);
        x
    }

    /// Applies the eta file in order to an FTRAN intermediate.
    fn apply_etas(&self, x: &mut [f64]) {
        for eta in &self.etas {
            let xr = x[eta.r] / eta.wr;
            if xr != 0.0 {
                for &(i, wi) in &eta.nz {
                    x[i] -= wi * xr;
                }
            }
            x[eta.r] = xr;
        }
    }

    /// BTRAN: `y = B⁻ᵀ c` (input by slot, output by row), through the
    /// eta file in reverse then the factorization transpose.
    fn btran(&self, c: &[f64]) -> Vec<f64> {
        let mut z = c.to_vec();
        for eta in self.etas.iter().rev() {
            let mut acc = z[eta.r];
            for &(i, wi) in &eta.nz {
                acc -= wi * z[i];
            }
            z[eta.r] = acc / eta.wr;
        }
        self.fact.solve_transpose(&z)
    }

    /// `z = B⁻ᵀ e_p`, for a pass that prices the columns against row
    /// `p` of `B⁻¹` (counted as one pricing pass).
    fn btran_row(&self, p: usize) -> Vec<f64> {
        self.pricings.set(self.pricings.get() + 1);
        let mut e_p = vec![0.0; self.m];
        e_p[p] = 1.0;
        self.btran(&e_p)
    }

    /// Rebuilds the factorization from the current basis, clears the
    /// eta file, recomputes `x_B`, and verifies the residual
    /// `‖b − B·x_B‖∞ / (1 + ‖b‖∞)`. One silent retry (recovers a
    /// one-shot skew or accumulated drift); persistent failure is
    /// [`LpError::Numerical`].
    fn refactorize(&mut self) -> Result<(), LpError> {
        self.carried = None;
        for attempt in 0..2 {
            let cols: Vec<Vec<(usize, f64)>> =
                self.basis.iter().map(|&j| self.col_entries(j)).collect();
            let Some(fact) = Factorization::build(self.m, &cols) else {
                sag_obs::counter("lp.numerical_failures", 1);
                return Err(LpError::Numerical("basis factorization is singular".into()));
            };
            self.fact = fact;
            self.etas.clear();
            self.refactors += 1;
            self.x_b = self.fact.solve(&self.sf.b);
            if self.residual_ok() {
                return Ok(());
            }
            if attempt == 0 && sag_obs::enabled() {
                sag_obs::counter("lp.refactor_retries", 1);
            }
        }
        sag_obs::counter("lp.numerical_failures", 1);
        Err(LpError::Numerical(
            "basis residual check failed after refactorization (desynced factors?)".into(),
        ))
    }

    /// Puts factors kept from an earlier solve of the current basis back
    /// to use, with the reduced costs priced through them: recomputes
    /// `x_B` through the factors and runs the residual self-check a
    /// fresh build gets, refactorizing when it fails. A skew applied to
    /// the factors drops the costs.
    fn reuse(&mut self, kept: Factored) -> Result<(), LpError> {
        let Factored {
            mut fact,
            reduced_costs,
        } = kept;
        let skewed = fact.apply_pending_skew();
        self.fact = fact;
        self.etas.clear();
        self.carried = (!skewed && reduced_costs.len() == self.n).then_some(reduced_costs);
        self.x_b = self.fact.solve(&self.sf.b);
        if self.residual_ok() {
            return Ok(());
        }
        if sag_obs::enabled() {
            sag_obs::counter("lp.refactor_retries", 1);
        }
        self.refactorize()
    }

    /// `‖b − B·x_B‖∞ / (1 + ‖b‖∞) ≤ RESIDUAL_TOL` against the *true*
    /// basis columns — independent of the factorization under test.
    fn residual_ok(&self) -> bool {
        let mut r = self.sf.b.clone();
        for (slot, &j) in self.basis.iter().enumerate() {
            let xv = self.x_b[slot];
            if xv == 0.0 {
                continue;
            }
            if j < self.n {
                let (rows, vals) = self.sf.a.col(j);
                for (&row, &val) in rows.iter().zip(vals) {
                    r[row] -= val * xv;
                }
            } else {
                r[j - self.n] -= self.art_sign[j - self.n] * xv;
            }
        }
        let bnorm = self.sf.b.iter().fold(0.0f64, |acc, v| acc.max(v.abs()));
        let rnorm = r.iter().fold(0.0f64, |acc, v| acc.max(v.abs()));
        rnorm.is_finite() && rnorm / (1.0 + bnorm) <= RESIDUAL_TOL
    }

    /// Applies one pivot: entering column `q` with FTRAN'd direction
    /// `w`, leaving slot `p`. Refactorizes when the eta file is full.
    fn pivot(&mut self, p: usize, q: usize, w: Vec<f64>) -> Result<(), LpError> {
        let wr = w[p];
        let t = self.x_b[p] / wr;
        // Compress the FTRAN'd column to its off-pivot nonzeros while
        // updating x_B over the same entries.
        let mut nz = Vec::new();
        for (i, &wi) in w.iter().enumerate() {
            if wi != 0.0 && i != p {
                self.x_b[i] -= wi * t;
                nz.push((i, wi));
            }
        }
        self.x_b[p] = t;
        if self.basis[p] < self.n {
            self.in_basis[self.basis[p]] = false;
        }
        self.basis[p] = q;
        if q < self.n {
            self.in_basis[q] = true;
        }
        self.etas.push(Eta { r: p, wr, nz });
        self.carried = None;
        self.pivots += 1;
        if self.etas.len() >= self.refactor_period {
            self.refactorize()?;
        }
        Ok(())
    }

    /// Runs primal simplex iterations on the given costs until optimal.
    /// Only structural columns may enter (artificials can leave, never
    /// re-enter — standard column dropping).
    fn run_primal(&mut self, costs: &[f64]) -> Result<(), LpError> {
        let max_iters = 50 * (self.m + self.n) + 1000;
        let bland_after = 5 * (self.m + self.n);
        for iter in 0..max_iters {
            if iter & BUDGET_POLL_MASK == 0 {
                self.budget.check_interrupt()?;
            }
            // Pricing: y = B⁻ᵀ c_B, then d_j = c_j − y·a_j (or the
            // carried d_j, before any pivot of a resume).
            let pricing = self.pricing(costs);
            let entering = if iter < bland_after {
                // Partial pricing: scan rotating blocks and take the most
                // negative reduced cost from the first block holding one,
                // instead of re-pricing every column each iteration.
                let mut best: Option<(usize, f64)> = None;
                let mut pos = self.price_start.min(self.n.saturating_sub(1));
                let mut scanned = 0;
                while scanned < self.n {
                    let block_end = (scanned + PRICE_BLOCK).min(self.n);
                    while scanned < block_end {
                        let j = pos;
                        pos += 1;
                        if pos == self.n {
                            pos = 0;
                        }
                        scanned += 1;
                        if self.in_basis[j] {
                            continue;
                        }
                        let d = self.reduced_cost(&pricing, costs, j);
                        if d < -TOL && best.is_none_or(|(_, bv)| d < bv) {
                            best = Some((j, d));
                        }
                    }
                    if best.is_some() {
                        self.price_start = pos;
                        break;
                    }
                }
                best.map(|(j, _)| j)
            } else {
                (0..self.n)
                    .find(|&j| !self.in_basis[j] && self.reduced_cost(&pricing, costs, j) < -TOL)
            };
            let Some(q) = entering else {
                return Ok(());
            };
            let w = self.ftran_col(q);
            // Minimum-ratio test, Bland tie-break on the basis index.
            let mut leave: Option<(usize, f64)> = None;
            for i in 0..self.m {
                if w[i] > TOL {
                    let ratio = self.x_b[i] / w[i];
                    let better = match leave {
                        None => true,
                        Some((li, lr)) => {
                            ratio < lr - TOL
                                || ((ratio - lr).abs() <= TOL && self.basis[i] < self.basis[li])
                        }
                    };
                    if better {
                        leave = Some((i, ratio));
                    }
                }
            }
            let Some((p, _)) = leave else {
                return Err(LpError::Unbounded);
            };
            self.pivot(p, q, w)?;
        }
        sag_obs::counter("lp.iteration_limits", 1);
        Err(LpError::IterationLimit)
    }

    /// Runs dual simplex iterations (basis dual feasible, `x_B` may be
    /// negative) until primal feasible.
    fn run_dual(&mut self, costs: &[f64]) -> Result<(), LpError> {
        let max_iters = 50 * (self.m + self.n) + 1000;
        let bland_after = 5 * (self.m + self.n);
        for iter in 0..max_iters {
            if iter & BUDGET_POLL_MASK == 0 {
                self.budget.check_interrupt()?;
            }
            // Leaving row: most negative basic value (Bland: first, by
            // basis index, once past the burn-in).
            let p = if iter < bland_after {
                let mut best: Option<(usize, f64)> = None;
                for i in 0..self.m {
                    if self.x_b[i] < -TOL && best.is_none_or(|(_, v)| self.x_b[i] < v) {
                        best = Some((i, self.x_b[i]));
                    }
                }
                best.map(|(i, _)| i)
            } else {
                let mut best: Option<usize> = None;
                for i in 0..self.m {
                    if self.x_b[i] < -TOL && best.is_none_or(|bi| self.basis[i] < self.basis[bi]) {
                        best = Some(i);
                    }
                }
                best
            };
            let Some(p) = p else {
                return Ok(());
            };
            // Row p of B⁻¹A over nonbasic structurals.
            let z = self.btran_row(p);
            // Current reduced costs (recomputed after a pivot — dual
            // pivots are few).
            let pricing = self.pricing(costs);
            let mut enter: Option<(usize, f64)> = None;
            for j in 0..self.n {
                if self.in_basis[j] {
                    continue;
                }
                let alpha = self.price_col(j, &z);
                if alpha < -TOL {
                    let d = self.reduced_cost(&pricing, costs, j).max(0.0);
                    let ratio = d / -alpha;
                    let better = match enter {
                        None => true,
                        Some((ej, er)) => ratio < er - TOL || ((ratio - er).abs() <= TOL && j < ej),
                    };
                    if better {
                        enter = Some((j, ratio));
                    }
                }
            }
            let Some((q, _)) = enter else {
                // No column can repair the negative row: primal
                // infeasible (a valid branch-and-bound prune).
                return Err(LpError::Infeasible);
            };
            let w = self.ftran_col(q);
            if w[p].abs() <= TOL {
                sag_obs::counter("lp.numerical_failures", 1);
                return Err(LpError::Numerical(
                    "dual pivot element vanished (stale factors?)".into(),
                ));
            }
            self.pivot(p, q, w)?;
        }
        sag_obs::counter("lp.iteration_limits", 1);
        Err(LpError::IterationLimit)
    }

    /// Pivots still-basic artificials out onto any structural column
    /// with a nonzero in their row (degenerate pivots); rows with no
    /// such column are redundant and keep their artificial pinned at
    /// zero (it can never re-enter or change value).
    fn pivot_out_artificials(&mut self) -> Result<(), LpError> {
        for p in 0..self.m {
            if self.basis[p] < self.n {
                continue;
            }
            let z = self.btran_row(p);
            let candidate =
                (0..self.n).find(|&j| !self.in_basis[j] && self.price_col(j, &z).abs() > 1e-9);
            if let Some(q) = candidate {
                let w = self.ftran_col(q);
                if w[p].abs() > TOL {
                    self.pivot(p, q, w)?;
                }
            }
        }
        Ok(())
    }

    /// Extracts the final answer under the true `costs` from a *fresh*
    /// factorization of the terminal basis, re-verifying optimality;
    /// returns `None` when the recomputed reduced costs or feasibility
    /// demand more pivoting. With an empty eta file no pivot has
    /// happened since the last build, so the current factors already
    /// are that factorization (and `x_B` was solved through them) —
    /// only pivots force a rebuild. Costs still carried were priced
    /// through these factors for this basis by an earlier extraction
    /// and passed the dual-feasibility guard, so they are the answer's
    /// reduced costs as they stand.
    fn extract(&mut self, costs: &[f64]) -> Result<Option<RevisedSolution>, LpError> {
        if !self.etas.is_empty() {
            self.refactorize()?;
        }
        // Primal feasibility of the recomputed basics.
        if self.x_b.iter().any(|&v| v < -OPT_TOL) {
            return Ok(None);
        }
        let reduced_costs = match self.carried.take() {
            Some(rc) => rc,
            None => {
                let pricing = self.pricing(costs);
                let mut reduced_costs = vec![0.0; self.n];
                for j in 0..self.n {
                    if !self.in_basis[j] {
                        reduced_costs[j] = self.reduced_cost(&pricing, costs, j);
                        if reduced_costs[j] < -OPT_TOL {
                            return Ok(None);
                        }
                    }
                }
                reduced_costs
            }
        };
        let mut x = vec![0.0; self.n];
        for (slot, &j) in self.basis.iter().enumerate() {
            if j < self.n {
                x[j] = self.x_b[slot];
            }
        }
        let objective = self.sf.c.iter().zip(&x).map(|(c, v)| c * v).sum();
        Ok(Some(RevisedSolution {
            objective,
            x,
            reduced_costs,
            basis: self.basis.clone(),
            pivots: self.pivots,
        }))
    }
}

/// Validates dimensions and finiteness of a sparse standard form.
fn validate(sf: &SparseStandardForm) -> Result<(usize, usize), LpError> {
    let m = sf.a.nrows();
    let n = sf.a.ncols();
    if sf.b.len() != m {
        return Err(LpError::Malformed(format!(
            "b has {} entries, expected {m}",
            sf.b.len()
        )));
    }
    if sf.c.len() != n {
        return Err(LpError::Malformed(format!(
            "c has {} entries, expected {n}",
            sf.c.len()
        )));
    }
    if let Some(i) = sf.b.iter().position(|v| !v.is_finite()) {
        return Err(LpError::Malformed(format!("b[{i}] is not finite")));
    }
    if let Some(j) = sf.c.iter().position(|v| !v.is_finite()) {
        return Err(LpError::Malformed(format!("c[{j}] is not finite")));
    }
    Ok((m, n))
}

/// The default eta-file length between full refactorizations.
pub const DEFAULT_REFACTOR_PERIOD: usize = 64;

/// Builds the solver state around an initial basis, factorizing it —
/// or reusing `kept`, factors built for exactly this basis by an
/// earlier solve of the same matrix, with the reduced costs priced
/// through them. `refactor_period` is clamped to ≥ 1.
fn make_solver<'a>(
    sf: &'a SparseStandardForm,
    m: usize,
    n: usize,
    basis: Vec<usize>,
    kept: Option<Factored>,
    budget: &'a Budget,
    refactor_period: usize,
) -> Result<SparseSimplex<'a>, LpError> {
    let art_sign: Vec<f64> =
        sf.b.iter()
            .map(|&v| if v < 0.0 { -1.0 } else { 1.0 })
            .collect();
    let mut in_basis = vec![false; n];
    for &j in &basis {
        if j < n {
            in_basis[j] = true;
        }
    }
    let mut solver = SparseSimplex {
        sf,
        m,
        n,
        art_sign,
        basis,
        in_basis,
        fact: Factorization {
            m: 0,
            k: 0,
            pos_of_slot: Vec::new(),
            slot_of_pos: Vec::new(),
            pos_of_row: Vec::new(),
            row_of_pos: Vec::new(),
            u_cols: Vec::new(),
            u_diag: Vec::new(),
            b12: Vec::new(),
            nb: 0,
            lu: Vec::new(),
            lu_piv: Vec::new(),
        },
        etas: Vec::new(),
        x_b: Vec::new(),
        carried: None,
        refactor_period: refactor_period.max(1),
        price_start: 0,
        budget,
        pivots: 0,
        refactors: 0,
        pricings: Cell::new(0),
    };
    match kept {
        Some(kept) if kept.fact.m == m => solver.reuse(kept)?,
        _ => solver.refactorize()?,
    }
    Ok(solver)
}

/// A finished sparse solve: the answer plus the factors it ended on —
/// the fresh factorization of `solution.basis`, through which its
/// extraction priced `solution.reduced_costs`. A kept session resumes
/// from both.
pub(crate) struct Solved {
    pub(crate) solution: RevisedSolution,
    pub(crate) fact: Factorization,
}

/// What a kept session hands a resume besides the basis: the factors
/// an earlier solve of the same matrix ended on for exactly that basis,
/// and the reduced costs its extraction priced through them.
#[derive(Debug, Clone)]
pub(crate) struct Factored {
    pub(crate) fact: Factorization,
    pub(crate) reduced_costs: Vec<f64>,
}

/// Solves a sparse standard-form LP with the revised simplex
/// (two-phase primal, unlimited budget).
///
/// # Errors
/// As [`solve_sparse_with`].
pub fn solve_sparse(sf: &SparseStandardForm) -> Result<RevisedSolution, LpError> {
    solve_sparse_with(sf, &Budget::unlimited())
}

/// [`solve_sparse`] under a cooperative [`Budget`], polled every few
/// pivots.
///
/// # Errors
/// [`LpError::Infeasible`] / [`LpError::Unbounded`] /
/// [`LpError::IterationLimit`] / [`LpError::Malformed`] as the dense
/// core; [`LpError::Cancelled`] when the budget trips; and
/// [`LpError::Numerical`] when the basis factorization is singular or
/// fails its residual self-check twice.
pub fn solve_sparse_with(
    sf: &SparseStandardForm,
    budget: &Budget,
) -> Result<RevisedSolution, LpError> {
    solve_sparse_with_period(sf, budget, DEFAULT_REFACTOR_PERIOD)
}

/// [`solve_sparse_with`] with an explicit refactorization cadence —
/// exposed so the differential rig can assert the reported objective is
/// bit-stable across cadences (1 refactorizes after every pivot).
///
/// # Errors
/// As [`solve_sparse_with`].
pub fn solve_sparse_with_period(
    sf: &SparseStandardForm,
    budget: &Budget,
    refactor_period: usize,
) -> Result<RevisedSolution, LpError> {
    solve_cold(sf, budget, refactor_period).map(|s| s.solution)
}

/// The two-phase primal solve behind [`solve_sparse_with_period`],
/// keeping the terminal factors.
pub(crate) fn solve_cold(
    sf: &SparseStandardForm,
    budget: &Budget,
    refactor_period: usize,
) -> Result<Solved, LpError> {
    let (m, n) = validate(sf)?;
    // Crash basis: zero-cost structural singleton columns whose sign
    // matches their row's rhs can start basic (value b_i/a ≥ 0); the
    // rest of the rows get signed artificials (value |b_i|).
    let mut crash: Vec<Option<usize>> = vec![None; m];
    for j in 0..n {
        if sf.c[j] != 0.0 {
            continue;
        }
        let (rows, vals) = sf.a.col(j);
        if rows.len() != 1 {
            continue;
        }
        let (i, v) = (rows[0], vals[0]);
        if crash[i].is_some() || v.abs() <= TOL {
            continue;
        }
        if sf.b[i] == 0.0 || (v > 0.0) == (sf.b[i] > 0.0) {
            crash[i] = Some(j);
        }
    }
    let basis: Vec<usize> = (0..m).map(|i| crash[i].unwrap_or(n + i)).collect();
    let mut solver = make_solver(sf, m, n, basis, None, budget, refactor_period)?;

    // ---- Phase 1: minimise the artificial mass. ----
    if solver.basis.iter().any(|&j| j >= n) {
        let mut costs = vec![0.0; n + m];
        for j in n..n + m {
            costs[j] = 1.0;
        }
        solver.run_primal(&costs)?;
        let art_mass: f64 = solver
            .basis
            .iter()
            .zip(&solver.x_b)
            .filter(|&(&j, _)| j >= n)
            .map(|(_, &v)| v.max(0.0))
            .sum();
        if art_mass > 1e-7 {
            flush_obs(&solver, false);
            return Err(LpError::Infeasible);
        }
        solver.pivot_out_artificials()?;
    }

    // ---- Phase 2: the true objective. ----
    let mut costs = vec![0.0; n + m];
    costs[..n].copy_from_slice(&sf.c);
    let out = finish_primal(&mut solver, &costs);
    flush_obs(&solver, matches!(out, Err(LpError::Cancelled)));
    out.map(|solution| Solved {
        solution,
        fact: solver.fact,
    })
}

/// Runs phase-2 primal to optimality, extracting through a fresh
/// factorization; resumes pivoting when the recomputed reduced costs
/// disagree (bounded by the phase iteration caps).
fn finish_primal(
    solver: &mut SparseSimplex<'_>,
    costs: &[f64],
) -> Result<RevisedSolution, LpError> {
    for _ in 0..4 {
        solver.run_primal(costs)?;
        if let Some(sol) = solver.extract(costs)? {
            return Ok(sol);
        }
    }
    Err(LpError::IterationLimit)
}

/// Warm-starts a solve from a known basis via the **dual simplex**: the
/// basis must come from an optimal solve of a problem with the same
/// matrix `A` and costs `c` (only `b` changed — e.g. a branch-and-bound
/// bound tightening). Such a basis stays dual feasible, so the dual
/// simplex repairs primal feasibility in a handful of pivots instead of
/// re-running both phases. A one-shot use of the resume core a kept
/// [`crate::LpSession`] re-solves through: the basis is factorized
/// afresh.
///
/// # Errors
/// [`LpError::Numerical`] when the basis cannot seed a warm start
/// (wrong length, contains artificials, singular factorization, or not
/// dual feasible) — callers fall back to a cold [`solve_sparse_with`];
/// [`LpError::Infeasible`] is a *trusted* proof that the new `b` admits
/// no solution. Other variants as [`solve_sparse_with`].
pub fn solve_sparse_from_basis(
    sf: &SparseStandardForm,
    basis: &[usize],
    budget: &Budget,
) -> Result<RevisedSolution, LpError> {
    resume_dual(sf, basis.to_vec(), None, budget).map(|s| s.solution)
}

/// The one dual-simplex entry: resumes from `basis` and, when given,
/// `kept` — the factors an earlier solve of this matrix ended on for
/// exactly that basis, reused instead of refactorizing (their residual
/// is still checked against the new `b`), and the reduced costs priced
/// through them, read instead of re-priced until a pivot, a
/// refactorization or a skew drops them. A resume that makes no pivot
/// therefore runs one FTRAN for `x_B` and the residual check, and
/// prices no column. Errors as [`solve_sparse_from_basis`].
pub(crate) fn resume_dual(
    sf: &SparseStandardForm,
    basis: Vec<usize>,
    kept: Option<Factored>,
    budget: &Budget,
) -> Result<Solved, LpError> {
    let (m, n) = validate(sf)?;
    if basis.len() != m || basis.iter().any(|&j| j >= n) {
        return Err(LpError::Numerical(
            "warm-start basis has the wrong shape or contains artificials".into(),
        ));
    }
    let mut seen = vec![false; n];
    for &j in &basis {
        if seen[j] {
            return Err(LpError::Numerical(
                "warm-start basis repeats a column".into(),
            ));
        }
        seen[j] = true;
    }
    let mut solver = make_solver(sf, m, n, basis, kept, budget, DEFAULT_REFACTOR_PERIOD)?;
    let mut costs = vec![0.0; n + m];
    costs[..n].copy_from_slice(&sf.c);
    // Dual feasibility: the parent's optimal reduced costs must carry
    // over (same A, same c). A materially negative one means the basis
    // is not from a matching problem — fall back cold.
    let pricing = solver.pricing(&costs);
    if (0..n).any(|j| !solver.in_basis[j] && solver.reduced_cost(&pricing, &costs, j) < -OPT_TOL) {
        flush_obs(&solver, false);
        return Err(LpError::Numerical(
            "warm-start basis is not dual feasible".into(),
        ));
    }
    let out = finish_dual(&mut solver, &costs);
    flush_obs(&solver, matches!(out, Err(LpError::Cancelled)));
    out.map(|solution| Solved {
        solution,
        fact: solver.fact,
    })
}

/// Runs the dual simplex to primal feasibility, extracting through a
/// fresh factorization; resumes (dual for feasibility, primal for
/// optimality) when the recomputed state disagrees.
fn finish_dual(solver: &mut SparseSimplex<'_>, costs: &[f64]) -> Result<RevisedSolution, LpError> {
    for _ in 0..4 {
        solver.run_dual(costs)?;
        // Rarely, refreshed numerics reveal residual dual infeasibility;
        // a primal clean-up pass restores it before extraction.
        solver.run_primal(costs)?;
        if let Some(sol) = solver.extract(costs)? {
            return Ok(sol);
        }
    }
    Err(LpError::IterationLimit)
}

/// One observability flush per solve; the pivot loops stay
/// uninstrumented.
fn flush_obs(solver: &SparseSimplex<'_>, cancelled: bool) {
    if sag_obs::enabled() {
        sag_obs::counter("lp.sparse_solves", 1);
        sag_obs::counter("lp.sparse_pivots", solver.pivots as u64);
        sag_obs::counter("lp.sparse_refactors", solver.refactors as u64);
        sag_obs::counter("lp.sparse_pricings", solver.pricings.get() as u64);
        if cancelled {
            sag_obs::counter("lp.budget_exhausted", 1);
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use sag_testkit::prelude::Rng;

    fn csc(nrows: usize, ncols: usize, t: &[(usize, usize, f64)]) -> CscMatrix {
        CscMatrix::from_triplets(nrows, ncols, t).unwrap()
    }

    #[test]
    fn trivial_equality() {
        // min x  s.t. x = 5.
        let sf = SparseStandardForm {
            a: csc(1, 1, &[(0, 0, 1.0)]),
            b: vec![5.0],
            c: vec![1.0],
        };
        let s = solve_sparse(&sf).unwrap();
        assert!((s.objective - 5.0).abs() < 1e-9);
        assert!((s.x[0] - 5.0).abs() < 1e-9);
    }

    #[test]
    fn classic_lp_matches_dense() {
        // min -3x - 5y s.t. x + s1 = 4; 2y + s2 = 12; 3x + 2y + s3 = 18.
        let sf = SparseStandardForm {
            a: csc(
                3,
                5,
                &[
                    (0, 0, 1.0),
                    (2, 0, 3.0),
                    (1, 1, 2.0),
                    (2, 1, 2.0),
                    (0, 2, 1.0),
                    (1, 3, 1.0),
                    (2, 4, 1.0),
                ],
            ),
            b: vec![4.0, 12.0, 18.0],
            c: vec![-3.0, -5.0, 0.0, 0.0, 0.0],
        };
        let s = solve_sparse(&sf).unwrap();
        assert!((s.objective + 36.0).abs() < 1e-9);
        assert!((s.x[0] - 2.0).abs() < 1e-9);
        assert!((s.x[1] - 6.0).abs() < 1e-9);
    }

    #[test]
    fn negative_rhs_allowed() {
        // min x  s.t. -x = -5  ⇒ x = 5 (the dense core would reject
        // this b; the sparse form must not).
        let sf = SparseStandardForm {
            a: csc(1, 1, &[(0, 0, -1.0)]),
            b: vec![-5.0],
            c: vec![1.0],
        };
        let s = solve_sparse(&sf).unwrap();
        assert!((s.x[0] - 5.0).abs() < 1e-9);
    }

    #[test]
    fn infeasible_and_unbounded() {
        let sf = SparseStandardForm {
            a: csc(2, 1, &[(0, 0, 1.0), (1, 0, 1.0)]),
            b: vec![1.0, 2.0],
            c: vec![1.0],
        };
        assert_eq!(solve_sparse(&sf).unwrap_err(), LpError::Infeasible);
        let sf = SparseStandardForm {
            a: csc(1, 2, &[(0, 0, 1.0), (0, 1, -1.0)]),
            b: vec![0.0],
            c: vec![-1.0, 0.0],
        };
        assert_eq!(solve_sparse(&sf).unwrap_err(), LpError::Unbounded);
    }

    #[test]
    fn redundant_rows_ok() {
        let sf = SparseStandardForm {
            a: csc(2, 2, &[(0, 0, 1.0), (1, 0, 1.0), (0, 1, 1.0), (1, 1, 1.0)]),
            b: vec![2.0, 2.0],
            c: vec![1.0, 0.0],
        };
        let s = solve_sparse(&sf).unwrap();
        assert!(s.objective.abs() < 1e-9);
        assert!((s.x[1] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn beale_cycling_example_terminates() {
        // Beale (1955): the classic Dantzig-cycling LP. In standard
        // form: min -0.75x4 + 150x5 - 0.02x6 + 6x7 with the three
        // equality rows below; optimum -0.05. Bland's rule must
        // terminate without any Budget deadline, in a bounded number of
        // pivots.
        let sf = SparseStandardForm {
            a: csc(
                3,
                7,
                &[
                    (0, 0, 1.0),
                    (1, 1, 1.0),
                    (2, 2, 1.0),
                    (0, 3, 0.25),
                    (1, 3, 0.5),
                    (2, 3, 0.0),
                    (0, 4, -60.0),
                    (1, 4, -90.0),
                    (2, 4, 0.0),
                    (0, 5, -0.04),
                    (1, 5, -0.02),
                    (2, 5, 1.0),
                    (0, 6, 9.0),
                    (1, 6, 3.0),
                    (2, 6, 0.0),
                ],
            ),
            b: vec![0.0, 0.0, 1.0],
            c: vec![0.0, 0.0, 0.0, -0.75, 150.0, -0.02, 6.0],
        };
        let s = solve_sparse(&sf).unwrap();
        assert!(
            (s.objective + 0.05).abs() < 1e-9,
            "objective {}",
            s.objective
        );
        // Bounded pivot work: far under the iteration cap, no budget.
        assert!(s.pivots < 100, "pivots {}", s.pivots);
    }

    #[test]
    fn refactor_every_pivot_same_objective() {
        let sf = SparseStandardForm {
            a: csc(
                2,
                4,
                &[
                    (0, 0, 2.0),
                    (0, 1, 1.0),
                    (1, 1, 3.0),
                    (1, 2, 1.0),
                    (0, 3, 1.0),
                ],
            ),
            b: vec![4.0, 6.0],
            c: vec![1.0, 2.0, 0.5, 0.0],
        };
        let every = solve_sparse_with_period(&sf, &Budget::unlimited(), 1).unwrap();
        let rare = solve_sparse_with_period(&sf, &Budget::unlimited(), 64).unwrap();
        assert_eq!(every.objective.to_bits(), rare.objective.to_bits());
    }

    #[test]
    fn warm_start_after_rhs_change() {
        // Optimal basis for b, re-solved after tightening b: the dual
        // simplex must land on the same answer a cold solve finds.
        let a = csc(
            2,
            4,
            &[
                (0, 0, 1.0),
                (1, 0, 1.0),
                (0, 1, 1.0),
                (0, 2, 1.0),
                (1, 3, 1.0),
            ],
        );
        let cold0 = solve_sparse(&SparseStandardForm {
            a: a.clone(),
            b: vec![3.0, 2.0],
            c: vec![1.0, 0.2, 0.0, 0.0],
        })
        .unwrap();
        let tightened = SparseStandardForm {
            a,
            b: vec![3.0, 1.0],
            c: vec![1.0, 0.2, 0.0, 0.0],
        };
        let warm = solve_sparse_from_basis(&tightened, &cold0.basis, &Budget::unlimited()).unwrap();
        let cold = solve_sparse(&tightened).unwrap();
        assert!(
            (warm.objective - cold.objective).abs() < 1e-9,
            "warm {} vs cold {}",
            warm.objective,
            cold.objective
        );
    }

    #[test]
    fn warm_start_rejects_bad_basis() {
        let sf = SparseStandardForm {
            a: csc(1, 2, &[(0, 0, 1.0), (0, 1, 1.0)]),
            b: vec![1.0],
            c: vec![1.0, 2.0],
        };
        // Wrong length.
        assert!(matches!(
            solve_sparse_from_basis(&sf, &[0, 1], &Budget::unlimited()),
            Err(LpError::Numerical(_))
        ));
        // Repeated column.
        let sf2 = SparseStandardForm {
            a: csc(2, 3, &[(0, 0, 1.0), (1, 1, 1.0), (0, 2, 1.0)]),
            b: vec![1.0, 1.0],
            c: vec![0.0, 0.0, 1.0],
        };
        assert!(matches!(
            solve_sparse_from_basis(&sf2, &[0, 0], &Budget::unlimited()),
            Err(LpError::Numerical(_))
        ));
    }

    #[test]
    fn one_shot_skew_recovers_persistent_skew_errors() {
        let sf = SparseStandardForm {
            a: csc(1, 1, &[(0, 0, 1.0)]),
            b: vec![5.0],
            c: vec![1.0],
        };
        inject_lu_skew(0.5, false);
        let s = solve_sparse(&sf).unwrap();
        assert!((s.x[0] - 5.0).abs() < 1e-9, "one-shot skew must recover");
        inject_lu_skew(0.5, true);
        let err = solve_sparse(&sf).unwrap_err();
        clear_lu_skew();
        assert!(matches!(err, LpError::Numerical(_)), "got {err:?}");
    }

    #[test]
    fn expired_budget_cancels() {
        let sf = SparseStandardForm {
            a: csc(1, 1, &[(0, 0, 1.0)]),
            b: vec![5.0],
            c: vec![1.0],
        };
        let budget = Budget::unlimited().with_deadline(std::time::Duration::ZERO);
        assert_eq!(
            solve_sparse_with(&sf, &budget).unwrap_err(),
            LpError::Cancelled
        );
    }

    /// A seeded random cover standard form: one row per subscriber over
    /// its eligible candidates, `x − s = b` with a surplus column per
    /// row, unit costs on the candidates. Returns the form (with `b`
    /// written for all lower bounds at 0) and each row's candidates.
    fn random_cover(rng: &mut Rng) -> (SparseStandardForm, Vec<Vec<usize>>) {
        let n_cands = rng.gen_range(6usize..30);
        let m = rng.gen_range(4usize..16);
        let rows: Vec<Vec<usize>> = (0..m)
            .map(|_| {
                let mut e: Vec<usize> = (0..n_cands).filter(|_| rng.gen_bool(0.3)).collect();
                if e.is_empty() {
                    e.push(rng.gen_range(0..n_cands));
                }
                e
            })
            .collect();
        let mut t: Vec<(usize, usize, f64)> = Vec::new();
        for (i, e) in rows.iter().enumerate() {
            t.extend(e.iter().map(|&c| (i, c, 1.0)));
            t.push((i, n_cands + i, -1.0));
        }
        let mut c = vec![1.0; n_cands];
        c.resize(n_cands + m, 0.0);
        let sf = SparseStandardForm {
            a: csc(m, n_cands + m, &t),
            b: vec![1.0; m],
            c,
        };
        (sf, rows)
    }

    /// The carried reduced costs are a pure speedup: along chains of
    /// lower-bound flips on random cover LPs, a resume from the kept
    /// factors and costs returns the same solution, bit for bit, as a
    /// resume from the same basis with nothing kept (which refactorizes
    /// and prices every column afresh).
    #[test]
    fn carried_costs_resume_matches_a_fresh_resume_bit_for_bit() {
        let budget = Budget::unlimited();
        let (mut pivoted, mut unpivoted) = (0usize, 0usize);
        for seed in 0..48u64 {
            let mut rng = Rng::seed_from_u64(seed);
            let (mut sf, rows) = random_cover(&mut rng);
            let n_cands = sf.c.len() - rows.len();
            let mut lower = vec![0.0f64; n_cands];
            let cold = solve_cold(&sf, &budget, DEFAULT_REFACTOR_PERIOD).unwrap();
            let mut basis = cold.solution.basis;
            let mut kept = Factored {
                fact: cold.fact,
                reduced_costs: cold.solution.reduced_costs,
            };
            for step in 0..24 {
                let c = rng.gen_range(0..n_cands);
                lower[c] = 1.0 - lower[c];
                for (i, e) in rows.iter().enumerate() {
                    sf.b[i] = 1.0 - e.iter().map(|&c| lower[c]).sum::<f64>();
                }
                let fresh = resume_dual(&sf, basis.clone(), None, &budget).unwrap();
                let resumed = resume_dual(&sf, basis, Some(kept), &budget).unwrap();
                let (f, r) = (&fresh.solution, &resumed.solution);
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                let what = format!("seed {seed} step {step}");
                assert_eq!(
                    f.objective.to_bits(),
                    r.objective.to_bits(),
                    "{what}: objective"
                );
                assert_eq!(bits(&f.x), bits(&r.x), "{what}: x");
                assert_eq!(
                    bits(&f.reduced_costs),
                    bits(&r.reduced_costs),
                    "{what}: reduced costs"
                );
                assert_eq!(f.basis, r.basis, "{what}: basis");
                assert_eq!(f.pivots, r.pivots, "{what}: pivots");
                if r.pivots > 0 {
                    pivoted += 1;
                } else {
                    unpivoted += 1;
                }
                basis = resumed.solution.basis;
                kept = Factored {
                    fact: resumed.fact,
                    reduced_costs: resumed.solution.reduced_costs,
                };
            }
        }
        assert!(pivoted >= 100, "only {pivoted} resumes pivoted");
        assert!(
            unpivoted >= 100,
            "only {unpivoted} resumes read carried costs"
        );
    }

    #[test]
    fn malformed_dimensions_rejected() {
        let sf = SparseStandardForm {
            a: csc(1, 1, &[(0, 0, 1.0)]),
            b: vec![1.0, 2.0],
            c: vec![1.0],
        };
        assert!(matches!(solve_sparse(&sf), Err(LpError::Malformed(_))));
        let sf = SparseStandardForm {
            a: csc(1, 1, &[(0, 0, 1.0)]),
            b: vec![f64::NAN],
            c: vec![1.0],
        };
        assert!(matches!(solve_sparse(&sf), Err(LpError::Malformed(_))));
    }
}
