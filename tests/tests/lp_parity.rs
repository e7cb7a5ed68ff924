//! Differential LP test rig: the sparse revised simplex must agree with
//! the dense tableau referee (`LpProblem::solve_dense`) on every
//! instance either can express, the
//! warm-started branch-and-bound must reach the same incumbents as cold
//! re-solves, a kept `LpSession` must answer every bound change as a
//! fresh cold solve would (and an unchanged re-solve to the bit), the
//! refactorization cadence must not change reported objectives by a
//! single bit, and `CscMatrix` construction must map arbitrary garbage
//! to a canonical matrix or a typed error — never a panic.
//!
//! Scale the soak with `SAG_PROP_CASES` (CI runs 150).

use sag_core::candidates::iac_candidates;
use sag_lp::revised::{clear_lu_skew, inject_lu_skew, solve_sparse_with_period};
use sag_lp::{
    Budget, CscMatrix, IlpProblem, LpError, LpProblem, LpSession, LpSolution, Relation,
    SparseStandardForm, SIMPLEX_TOL,
};
use sag_sim::gen::ScenarioSpec;
use sag_testkit::prelude::*;

/// Objective agreement tolerance between the two backends: they follow
/// different pivot paths, so exact equality is too strict, but both
/// claim [`SIMPLEX_TOL`]-accurate optima — a small multiple of it is
/// the honest bound.
const PARITY_TOL: f64 = 1e3 * SIMPLEX_TOL;

/// A seeded random LP with box-bounded variables (so it is never
/// unbounded): mixed Le/Ge/Eq rows, mixed-sign coefficients and rhs.
fn random_lp(rng: &mut Rng) -> LpProblem {
    let n = rng.gen_range(2usize..8);
    let m = rng.gen_range(1usize..9);
    let mut lp = LpProblem::minimize(n);
    let obj: Vec<f64> = (0..n).map(|_| rng.gen_range(-3.0..5.0f64)).collect();
    lp.set_objective(&obj);
    for v in 0..n {
        lp.set_bounds(v, 0.0, rng.gen_range(1.0..20.0f64));
    }
    for _ in 0..m {
        let mut vars: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut vars);
        vars.truncate(rng.gen_range(1usize..=n.min(4)));
        let coeffs: Vec<(usize, f64)> = vars
            .into_iter()
            .map(|v| (v, rng.gen_range(-4.0..4.0f64)))
            .collect();
        let rel = match rng.gen_range(0usize..3) {
            0 => Relation::Le,
            1 => Relation::Ge,
            _ => Relation::Eq,
        };
        lp.add_constraint(&coeffs, rel, rng.gen_range(-5.0..15.0f64));
    }
    lp
}

/// Solves `lp` on the sparse core and on the dense referee and asserts
/// status + objective parity.
fn assert_backend_parity(lp: &LpProblem, what: &str) {
    match (lp.solve(), dense_solve(lp)) {
        (Ok(s), Ok(d)) => {
            let scale = 1.0 + d.objective.abs();
            prop_assert!(
                (s.objective - d.objective).abs() <= PARITY_TOL * scale,
                "{what}: sparse {} vs dense {}",
                s.objective,
                d.objective
            );
        }
        (Err(LpError::Infeasible), Err(LpError::Infeasible)) => {}
        (Err(LpError::Unbounded), Err(LpError::Unbounded)) => {}
        (s, d) => prop_assert!(
            false,
            "{what}: status disagreement sparse={s:?} dense={d:?}"
        ),
    }
}

/// Status and objective agreement between two solves of one LP.
fn assert_same_answer(
    got: &Result<LpSolution, LpError>,
    want: &Result<LpSolution, LpError>,
    what: &str,
) {
    match (got, want) {
        (Ok(g), Ok(w)) => {
            let scale = 1.0 + w.objective.abs();
            prop_assert!(
                (g.objective - w.objective).abs() <= PARITY_TOL * scale,
                "{what}: {} vs {}",
                g.objective,
                w.objective
            );
        }
        (Err(g), Err(w)) => prop_assert_eq!(g, w, "{}: status", what),
        (g, w) => prop_assert!(false, "{what}: status disagreement {g:?} vs {w:?}"),
    }
}

/// Solves `lp` cold on the dense referee.
fn dense_solve(lp: &LpProblem) -> Result<LpSolution, LpError> {
    lp.solve_dense().map(|d| LpSolution {
        objective: d.objective,
        x: d.x,
    })
}

/// A random bound change that keeps the lowered shape: a new lower
/// bound, and a new finite upper bound only where the old one was
/// finite.
fn random_bound_change(rng: &mut Rng, session: &mut LpSession) {
    let n = session.problem().num_vars();
    let v = rng.gen_range(0..n);
    let lo = if rng.gen_bool(0.3) {
        0.0
    } else {
        rng.gen_range(0.0..6.0f64)
    };
    let hi = if session.problem().upper_bound(v).is_finite() {
        lo + rng.gen_range(0.0..15.0f64)
    } else {
        f64::INFINITY
    };
    session.set_bounds(v, lo, hi);
}

/// [`random_lp`] with some upper bounds lifted to infinity, so sessions
/// also carry variables that have no upper-bound row.
fn random_session_lp(rng: &mut Rng) -> LpProblem {
    let mut lp = random_lp(rng);
    for v in 0..lp.num_vars() {
        if rng.gen_bool(0.25) {
            lp.set_bounds(v, 0.0, f64::INFINITY);
        }
    }
    lp
}

prop! {
    /// A kept session under random sequences of bound changes: every
    /// solve agrees in status and objective with a cold sparse solve
    /// and with the dense referee on the same bounds, and a re-solve
    /// with no bound change in between is bit-identical.
    #[cases(64)]
    fn session_matches_cold_solves_under_bound_changes(seed in 0u64..1_000_000) {
        let mut rng = Rng::seed_from_u64(seed);
        let mut session = LpSession::new(random_session_lp(&mut rng));
        for step in 0..8 {
            if step > 0 {
                for _ in 0..rng.gen_range(1usize..4) {
                    random_bound_change(&mut rng, &mut session);
                }
            }
            let got = session.solve();
            let what = format!("step {step}");
            assert_same_answer(&got, &session.problem().solve(), &format!("{what} vs cold sparse"));
            assert_same_answer(&got, &dense_solve(session.problem()), &format!("{what} vs dense referee"));
            let again = session.solve();
            match (&got, &again) {
                (Ok(a), Ok(b)) => {
                    prop_assert_eq!(a.objective.to_bits(), b.objective.to_bits(), "{}: re-solve objective", what);
                    let xa: Vec<u64> = a.x.iter().map(|v| v.to_bits()).collect();
                    let xb: Vec<u64> = b.x.iter().map(|v| v.to_bits()).collect();
                    prop_assert_eq!(xa, xb, "{}: re-solve x", what);
                }
                (Err(a), Err(b)) => prop_assert_eq!(a, b, "{}: re-solve status", what),
                (a, b) => prop_assert!(false, "{what}: re-solve changed status {a:?} -> {b:?}"),
            }
        }
    }

    /// LU skew mid-session: a one-shot skew of the factors the next
    /// solve uses is caught by the residual self-check and repaired; a
    /// persistent one is never a silently wrong answer — it surfaces as
    /// [`LpError::Numerical`] unless it missed every value it could
    /// move (a basic variable at exactly zero), in which case the
    /// answer is still the clean one.
    #[cases(48)]
    fn session_recovers_from_lu_skew(seed in 0u64..1_000_000) {
        let mut rng = Rng::seed_from_u64(seed);
        let mut session = LpSession::new(random_session_lp(&mut rng));
        clear_lu_skew();
        for _ in 0..3 {
            let _ = session.solve();
            random_bound_change(&mut rng, &mut session);
        }
        let clean = session.problem().solve();
        prop_assume!(clean.is_ok());
        let mut skewed = session.clone();
        inject_lu_skew(0.5, false);
        let recovered = session.solve();
        clear_lu_skew();
        prop_assert!(recovered.is_ok(), "one-shot skew must be repaired, got {recovered:?}");
        assert_same_answer(&recovered, &clean, "one-shot skew");
        inject_lu_skew(0.5, true);
        let poisoned = skewed.solve();
        clear_lu_skew();
        match poisoned {
            Err(LpError::Numerical(_)) => {}
            other => assert_same_answer(&other, &clean, "persistent skew"),
        }
    }

    /// Random LPs: both backends report the same status, and the same
    /// objective when optimal.
    #[cases(64)]
    fn sparse_matches_dense_on_random_lps(seed in 0u64..1_000_000) {
        let mut rng = Rng::seed_from_u64(seed);
        let lp = random_lp(&mut rng);
        assert_backend_parity(&lp, "random LP");
    }

    /// Real ILPQC set-cover relaxations: the exact coverage-row LP the
    /// branch-and-bound uses for its lower bounds, built from generated
    /// scenarios, must agree across backends.
    #[cases(24)]
    fn cover_lp_parity_on_ilpqc_instances(seed in 0u64..100_000, n_subs in 3usize..10) {
        let sc = ScenarioSpec {
            field_size: 400.0,
            n_subscribers: n_subs,
            snr_db: -15.0,
            ..Default::default()
        }
        .build(seed);
        let cands = iac_candidates(&sc);
        prop_assume!(!cands.is_empty());
        let mut lp = LpProblem::minimize(cands.len());
        lp.set_objective(&vec![1.0; cands.len()]);
        for v in 0..cands.len() {
            lp.set_bounds(v, 0.0, 1.0);
        }
        let mut coverable = true;
        for sub in &sc.subscribers {
            let circle = sub.feasible_circle();
            let coeffs: Vec<(usize, f64)> = (0..cands.len())
                .filter(|&c| circle.contains(cands[c]))
                .map(|c| (c, 1.0))
                .collect();
            if coeffs.is_empty() {
                coverable = false;
                break;
            }
            lp.add_constraint(&coeffs, Relation::Ge, 1.0);
        }
        prop_assume!(coverable);
        assert_backend_parity(&lp, "cover LP");
    }

    /// Warm-started branch-and-bound reaches exactly the incumbent a
    /// cold-started search proves optimal: warm starts are a speedup,
    /// never a different answer.
    #[cases(32)]
    fn warm_bb_matches_cold_incumbent(seed in 0u64..1_000_000) {
        let build = |warm: bool| {
            let mut rng = Rng::seed_from_u64(seed);
            let n = rng.gen_range(4usize..9);
            let mut lp = LpProblem::minimize(n);
            let obj: Vec<f64> = (0..n).map(|_| rng.gen_range(1.0..4.0f64)).collect();
            lp.set_objective(&obj);
            let m = rng.gen_range(2usize..7);
            for _ in 0..m {
                let mut vars: Vec<usize> = (0..n).collect();
                rng.shuffle(&mut vars);
                vars.truncate(rng.gen_range(2usize..=n.min(4)));
                let coeffs: Vec<(usize, f64)> =
                    vars.into_iter().map(|v| (v, 1.0)).collect();
                lp.add_constraint(&coeffs, Relation::Ge, 1.0);
            }
            let mut ilp = IlpProblem::new(lp);
            for v in 0..n {
                ilp.set_binary(v);
            }
            ilp.set_warm_start(warm);
            ilp.solve()
        };
        let cold = build(false).expect("cover ILPs are always feasible");
        let warm = build(true).expect("cover ILPs are always feasible");
        prop_assert!(
            (cold.objective - warm.objective).abs() <= PARITY_TOL * (1.0 + cold.objective.abs()),
            "cold {} vs warm {}",
            cold.objective,
            warm.objective
        );
    }

    /// Refactorization cadence is invisible: periods 1, 8 and 64 must
    /// report bit-identical objectives, because extraction always goes
    /// through a fresh factorization of the final basis.
    #[cases(32)]
    fn refactor_cadence_is_bit_stable(seed in 0u64..1_000_000) {
        let mut rng = Rng::seed_from_u64(seed);
        let m = rng.gen_range(2usize..7);
        let n = m + rng.gen_range(1usize..8);
        let mut triplets: Vec<(usize, usize, f64)> = Vec::new();
        for j in 0..n {
            for i in 0..m {
                if rng.gen_bool(0.5) {
                    triplets.push((i, j, rng.gen_range(-2.0..2.0f64)));
                }
            }
        }
        let a = CscMatrix::from_triplets(m, n, &triplets).expect("in-range triplets");
        // b = A·x0 for a nonnegative x0 keeps the instance feasible;
        // nonnegative costs keep it bounded.
        let x0: Vec<f64> = (0..n)
            .map(|_| if rng.gen_bool(0.5) { rng.gen_range(0.0..3.0f64) } else { 0.0 })
            .collect();
        let mut b = vec![0.0; m];
        for (j, &xj) in x0.iter().enumerate() {
            if xj != 0.0 {
                a.axpy_col(j, xj, &mut b);
            }
        }
        let c: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..4.0f64)).collect();
        let sf = SparseStandardForm { a, b, c };
        let budget = Budget::unlimited();
        let r1 = solve_sparse_with_period(&sf, &budget, 1);
        let r8 = solve_sparse_with_period(&sf, &budget, 8);
        let r64 = solve_sparse_with_period(&sf, &budget, 64);
        match (r1, r8, r64) {
            (Ok(s1), Ok(s8), Ok(s64)) => {
                prop_assert_eq!(
                    s1.objective.to_bits(),
                    s8.objective.to_bits(),
                    "period 1 {} vs 8 {}",
                    s1.objective,
                    s8.objective
                );
                prop_assert_eq!(
                    s8.objective.to_bits(),
                    s64.objective.to_bits(),
                    "period 8 {} vs 64 {}",
                    s8.objective,
                    s64.objective
                );
            }
            (Err(_), Err(_), Err(_)) => {} // consistently unsolvable
            other => prop_assert!(false, "cadence changed the status: {other:?}"),
        }
    }

    /// `CscMatrix::from_triplets` under garbage: out-of-range indices,
    /// duplicates, out-of-order rows, empty columns and byte-flipped
    /// values yield a canonical matrix or a typed [`sag_lp::SparseError`]
    /// — never a panic, never a non-canonical matrix.
    #[cases(96)]
    fn csc_from_triplets_never_panics(seed in 0u64..1_000_000, n_trip in 0usize..40) {
        let mut rng = Rng::seed_from_u64(seed);
        let nrows = rng.gen_range(0usize..6);
        let ncols = rng.gen_range(0usize..6);
        let triplets: Vec<(usize, usize, f64)> = (0..n_trip)
            .map(|_| {
                let r = rng.gen_range(0usize..8); // may exceed nrows
                let c = rng.gen_range(0usize..8); // may exceed ncols
                let mut v = rng.gen_range(-3.0..3.0f64);
                if rng.gen_bool(0.25) {
                    // Byte-flip: may turn the value into ±∞, NaN, a
                    // subnormal, or just a slightly different float.
                    v = f64::from_bits(v.to_bits() ^ (1u64 << rng.gen_range(0u32..64)));
                }
                (r, c, v)
            })
            .collect();
        match CscMatrix::from_triplets(nrows, ncols, &triplets) {
            Ok(mat) => {
                prop_assert_eq!(mat.nrows(), nrows);
                prop_assert_eq!(mat.ncols(), ncols);
                prop_assert!(mat.nnz() <= triplets.len());
                for j in 0..ncols {
                    let (rows, vals) = mat.col(j);
                    prop_assert!(
                        rows.windows(2).all(|w| w[0] < w[1]),
                        "column {j} rows not strictly increasing: {rows:?}"
                    );
                    prop_assert!(
                        vals.iter().all(|v| v.is_finite() && *v != 0.0),
                        "column {j} kept a zero or non-finite value: {vals:?}"
                    );
                }
            }
            Err(e) => {
                // Typed rejection; the Display impl must name the defect.
                prop_assert!(!e.to_string().is_empty());
            }
        }
    }
}

/// A persistent LU skew on factors a session kept surfaces as the typed
/// [`LpError::Numerical`]: every basic value of this LP is nonzero, so
/// the skew moves `x_B` and the residual self-check sees it on the kept
/// factors, on both rebuilds and on the cold fallback.
#[test]
fn session_surfaces_a_persistent_lu_skew() {
    // min x + 2y  s.t.  x + y ≥ 3,  x ≤ 2 (as a row, not a bound).
    let mut lp = LpProblem::minimize(2);
    lp.set_objective(&[1.0, 2.0]);
    lp.add_constraint(&[(0, 1.0), (1, 1.0)], Relation::Ge, 3.0);
    lp.add_constraint(&[(0, 1.0)], Relation::Le, 2.0);
    let mut session = LpSession::new(lp);
    clear_lu_skew();
    let first = session.solve().expect("feasible LP");
    assert!(
        (first.objective - 4.0).abs() < 1e-9,
        "objective {}",
        first.objective
    );
    session.set_bounds(1, 1.5, f64::INFINITY);
    inject_lu_skew(0.5, true);
    let poisoned = session.solve();
    clear_lu_skew();
    assert!(
        matches!(poisoned, Err(LpError::Numerical(_))),
        "persistent skew must surface as Numerical, got {poisoned:?}"
    );
    // The failed solve dropped the kept basis; the next one is clean:
    // y ≥ 1.5 now, so x = y = 1.5.
    let after = session.solve().expect("clean solve after the fault");
    assert!(
        (after.objective - 4.5).abs() < 1e-9,
        "objective {}",
        after.objective
    );
}

/// A set_bounds that would add or drop an upper-bound row is rejected.
#[test]
#[should_panic(expected = "would change the lowered shape")]
fn session_rejects_a_shape_change() {
    let mut lp = LpProblem::minimize(1);
    lp.set_objective(&[1.0]);
    lp.add_constraint(&[(0, 1.0)], Relation::Ge, 1.0);
    let mut session = LpSession::new(lp);
    session.set_bounds(0, 0.0, 5.0);
}
