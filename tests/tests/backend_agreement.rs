//! Cross-backend agreement suite for the pluggable coverage solvers.
//!
//! Every [`sag_core::SolverBackend`] answers the same
//! contract: a feasible cover of all subscribers by candidate relays.
//! The heuristics are allowed to place *more* relays than the exact
//! optimum, but never fewer (that would be a feasibility bug in the
//! exact solver) and never unboundedly more — the classic greedy
//! set-cover bound is `H(n) · OPT`, and on the small zones generated
//! here a factor of 3 is already generous.

use sag_testkit::prelude::*;

use sag_core::candidates::iac_candidates;
use sag_core::coverage::is_feasible;
use sag_core::model::Scenario;
use sag_core::SolverBackend;
use sag_lp::Budget;
use sag_sim::gen::{BsLayout, ScenarioSpec};

fn arb_spec() -> impl Strategy<Value = (usize, f64, u64)> {
    (
        2usize..10,                    // subscribers: small, exactly solvable
        one_of([300.0, 500.0, 800.0]), // field size
        0u64..100_000,                 // scenario seed
    )
}

fn build(input: (usize, f64, u64)) -> Scenario {
    let (users, field, seed) = input;
    ScenarioSpec {
        field_size: field,
        n_subscribers: users,
        n_base_stations: 1,
        snr_db: -15.0,
        bs_layout: BsLayout::Uniform,
        ..Default::default()
    }
    .build(seed)
}

prop! {
    /// Every heuristic backend answers feasibly on zones the exact
    /// solver can certify, and within a bounded factor of its optimum.
    #[cases(24)]
    fn heuristics_agree_with_the_exact_optimum(input in arb_spec()) {
        let sc = build(input);
        let cands = iac_candidates(&sc);
        let budget = Budget::unlimited();

        let exact = match SolverBackend::ExactIlp.solve(&sc, &cands, &budget) {
            Ok(ans) => ans,
            // Infeasible geometry rejects identically for everyone.
            Err(_) => {
                prop_assert!(
                    SolverBackend::LpRound.solve(&sc, &cands, &budget).is_err(),
                    "lp_round answered a zone the exact solver rejects"
                );
                prop_assert!(
                    SolverBackend::LocalSearch.solve(&sc, &cands, &budget).is_err(),
                    "local_search answered a zone the exact solver rejects"
                );
                prop_assert!(
                    SolverBackend::Greedy.solve(&sc, &cands, &budget).is_err(),
                    "greedy answered a zone the exact solver rejects"
                );
                return;
            }
        };
        prop_assert!(exact.optimal, "unlimited budget must certify optimality");
        prop_assert!(is_feasible(&sc, &exact.solution));
        let opt = exact.solution.relays.len();

        for (name, answer) in [
            ("lp_round", SolverBackend::LpRound.solve(&sc, &cands, &budget)),
            ("local_search", SolverBackend::LocalSearch.solve(&sc, &cands, &budget)),
            ("greedy", SolverBackend::Greedy.solve(&sc, &cands, &budget)),
        ] {
            let ans = match answer {
                Ok(a) => a,
                Err(e) => panic!("{name} failed on a feasible zone: {e}"),
            };
            prop_assert!(
                is_feasible(&sc, &ans.solution),
                "{name} produced an infeasible cover"
            );
            let got = ans.solution.relays.len();
            prop_assert!(
                got >= opt,
                "{name} beat the certified optimum ({got} < {opt}) — exact solver bug"
            );
            prop_assert!(
                got <= 3 * opt,
                "{name} placed {got} relays against an optimum of {opt}"
            );
        }
    }
}
