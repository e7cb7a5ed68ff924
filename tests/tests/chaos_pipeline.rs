//! Workspace chaos suite: the robustness contract, end to end.
//!
//! The invariant every test here asserts is the PR-2 contract: **any
//! input — however adversarial — produces a typed error or a validated
//! feasible report; never a panic, never a run past its deadline plus a
//! scheduling epsilon.** Structural faults come from the shared
//! [`sag_testkit::chaos::Fault`] catalogue, realised against concrete
//! scenarios by [`sag_integration::apply_fault`].

use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sag_testkit::prelude::*;

use sag_core::model::Scenario;
use sag_core::sag::{run_sag_with, AnsweringSolver, LowerSolver, SagPipelineConfig};
use sag_core::validate::validate_report;
use sag_core::{SagError, SolverBackend, SolverBuilder};
use sag_integration::{apply_fault, scenario};
use sag_lp::Budget;
use sag_sim::gen::{BsLayout, ScenarioSpec};
use sag_sim::runner::{sweep_multi, SweepConfig};

fn arb_spec() -> impl Strategy<Value = (usize, usize, f64, u64)> {
    (
        2usize..12,                    // subscribers
        1usize..4,                     // base stations
        one_of([300.0, 500.0, 800.0]), // field size
        0u64..100_000,                 // scenario seed
    )
}

fn build(input: (usize, usize, f64, u64)) -> Scenario {
    let (users, bss, field, seed) = input;
    ScenarioSpec {
        field_size: field,
        n_subscribers: users,
        n_base_stations: bss,
        snr_db: -15.0,
        bs_layout: BsLayout::Uniform,
        ..Default::default()
    }
    .build(seed)
}

/// Is `e` one of the typed errors the robustness contract admits?
fn is_typed_rejection(e: &SagError) -> bool {
    matches!(
        e,
        SagError::InvalidScenario(_)
            | SagError::Infeasible(_)
            | SagError::BudgetExceeded { .. }
            | SagError::NoSubscribers
            | SagError::NoBaseStations
            | SagError::WorkerPanic { .. }
            | SagError::Lp(_)
    )
}

prop! {
    /// The headline property: every catalogue fault, applied to a
    /// random generated scenario, yields either a typed rejection or a
    /// report that passes the independent audit. Nothing panics.
    #[cases(28)]
    fn any_faulted_scenario_errs_or_validates(input in arb_spec(), fidx in 0usize..Fault::all().len(), salt in 0u64..1_000) {
        let mut rng = Rng::seed_from_u64(salt);
        let fault = Fault::all()[fidx];
        let mut sc = build(input);
        apply_fault(&mut sc, fault, &mut rng);
        match run_sag_with(&sc, SagPipelineConfig::default()) {
            Err(e) => prop_assert!(is_typed_rejection(&e), "untyped error {e}"),
            Ok(report) => {
                // A report that comes back from a mutated scenario must
                // still be internally consistent and feasible.
                let audit = validate_report(&sc, &report);
                prop_assert!(audit.is_clean(), "fault {fault:?} produced a dirty report:\n{audit}");
            }
        }
    }

    /// Compound chaos: several random faults stacked on one scenario.
    #[cases(16)]
    fn stacked_faults_never_panic(input in arb_spec(), salt in 0u64..1_000, n_faults in 1usize..4) {
        let mut rng = Rng::seed_from_u64(salt.wrapping_mul(0x9E37_79B9));
        let mut sc = build(input);
        for _ in 0..n_faults {
            let f = Fault::sample(&mut rng);
            apply_fault(&mut sc, f, &mut rng);
        }
        match run_sag_with(&sc, SagPipelineConfig::default()) {
            Err(e) => prop_assert!(is_typed_rejection(&e), "untyped error {e}"),
            Ok(report) => prop_assert!(validate_report(&sc, &report).is_clean()),
        }
    }

    /// Poisoned-float ingress: raw `poisoned_f64` values dropped into a
    /// subscriber must be caught at the `validate()` gate.
    #[cases(24)]
    fn poisoned_ingress_is_rejected_or_survives(input in arb_spec(), salt in 0u64..1_000) {
        let mut rng = Rng::seed_from_u64(salt);
        let mut sc = build(input);
        let i = rng.gen_range(0usize..sc.subscribers.len());
        sc.subscribers[i].distance_req = poisoned_f64(&mut rng);
        match run_sag_with(&sc, SagPipelineConfig::default()) {
            Err(e) => prop_assert!(is_typed_rejection(&e), "untyped error {e}"),
            Ok(report) => prop_assert!(validate_report(&sc, &report).is_clean()),
        }
    }
}

/// Acceptance: an ILPQC run starved of budget provably degrades to the
/// greedy cover, and the report says so.
#[test]
fn starved_ilpqc_falls_back_to_greedy_and_reports_it() {
    let sc = scenario(
        500.0,
        &[(0.0, 0.0, 30.0), (20.0, 0.0, 30.0), (0.0, 20.0, 30.0)],
        &[(100.0, 100.0)],
        -15.0,
    );
    let config = SagPipelineConfig {
        lower_solver: LowerSolver::Candidates,
        // Pinned: this acceptance is about the exact → greedy ladder,
        // which adaptive selection skips on a zero node budget.
        solver: SolverBuilder::fixed(SolverBackend::ExactIlp),
        budget: Budget::unlimited().with_node_limit(0),
        ..Default::default()
    };
    let report = run_sag_with(&sc, config).expect("fallback must answer");
    assert_eq!(report.solver, AnsweringSolver::GreedyFallback);
    // The recorded budget reflects what ILPQC burned before giving up.
    assert!(report.budget_spent.nodes <= 1);
    let audit = validate_report(&sc, &report);
    assert!(audit.is_clean(), "fallback report dirty:\n{audit}");
}

/// The strict variant surfaces the same starvation as a typed error.
#[test]
fn starved_strict_ilpqc_reports_budget_exceeded() {
    let sc = scenario(500.0, &[(0.0, 0.0, 30.0)], &[(100.0, 100.0)], -15.0);
    let config = SagPipelineConfig {
        lower_solver: LowerSolver::Candidates,
        solver: SolverBuilder::default().strict_exact(),
        budget: Budget::unlimited().with_node_limit(0),
        ..Default::default()
    };
    match run_sag_with(&sc, config) {
        Err(SagError::BudgetExceeded { stage, .. }) => assert_eq!(stage, "ilpqc"),
        other => panic!("expected BudgetExceeded, got {other:?}"),
    }
}

/// Deadline honouring: a pipeline run with a wall-clock budget returns
/// (success or typed error) within deadline + a generous scheduling ε.
#[test]
fn deadline_is_honoured_within_epsilon() {
    let deadline = Duration::from_millis(50);
    let epsilon = Duration::from_secs(2); // generous: CI schedulers stall
    for seed in 0..8u64 {
        let sc = ScenarioSpec {
            field_size: 800.0,
            n_subscribers: 30,
            n_base_stations: 2,
            snr_db: -18.0,
            ..Default::default()
        }
        .build(seed);
        let config = SagPipelineConfig {
            lower_solver: LowerSolver::Candidates,
            solver: SolverBuilder::default().strict_exact(),
            budget: Budget::unlimited().with_deadline(deadline),
            ..Default::default()
        };
        let started = Instant::now();
        let out = run_sag_with(&sc, config);
        let took = started.elapsed();
        assert!(
            took < deadline + epsilon,
            "seed {seed}: run took {took:?}, budget was {deadline:?}"
        );
        if let Err(e) = out {
            assert!(is_typed_rejection(&e), "untyped error {e}");
        }
    }
}

/// A pre-cancelled budget short-circuits before any heavy work.
#[test]
fn cancellation_flag_stops_the_pipeline() {
    let flag = Arc::new(AtomicBool::new(true));
    let sc = scenario(500.0, &[(0.0, 0.0, 30.0)], &[(100.0, 100.0)], -15.0);
    let config = SagPipelineConfig {
        lower_solver: LowerSolver::Candidates,
        solver: SolverBuilder::default().strict_exact(),
        budget: Budget::unlimited().with_cancel_flag(Arc::clone(&flag)),
        ..Default::default()
    };
    match run_sag_with(&sc, config) {
        Err(SagError::BudgetExceeded { .. }) => {}
        other => panic!("expected BudgetExceeded from cancelled run, got {other:?}"),
    }
}

/// Acceptance for [`Fault::ZoneWorkerPanic`]: a zone worker that dies
/// mid-solve surfaces as the typed [`SagError::WorkerPanic`] — never a
/// propagated panic, never a hung merge — at any thread count.
#[test]
fn zone_worker_panic_surfaces_a_typed_error_not_a_hang() {
    let sc = build((8, 2, 500.0, 7));
    for threads in [1usize, 2, 4] {
        sag_core::engine::inject_zone_worker_panic(true);
        let out = run_sag_with(
            &sc,
            SagPipelineConfig {
                threads,
                ..Default::default()
            },
        );
        sag_core::engine::inject_zone_worker_panic(false);
        match out {
            Err(e @ SagError::WorkerPanic { .. }) => {
                assert!(is_typed_rejection(&e));
                assert!(e.to_string().contains("zone worker panicked"));
            }
            other => panic!("threads {threads}: expected WorkerPanic, got {other:?}"),
        }
        // The fault is scoped: a disarmed engine recovers immediately.
        assert!(run_sag_with(
            &sc,
            SagPipelineConfig {
                threads,
                ..Default::default()
            }
        )
        .is_ok());
    }
}

/// Acceptance for [`Fault::LpBasisDesync`]: a skewed LU factor in the
/// sparse LP core must be caught by the residual self-check — a
/// transient skew is repaired by refactorization (same objective as an
/// unfaulted solve), a persistent one surfaces as the typed
/// [`sag_lp::LpError::Numerical`]. Never a silently wrong answer.
///
/// The fault is armed with `inject_lu_skew`, which is thread-local, so
/// the test drives `solve_ilpqc` directly on this thread (the pipeline
/// route may hand zones to worker threads the skew cannot reach).
#[test]
fn lp_basis_desync_recovers_or_errs_typed_never_wrong() {
    use sag_core::candidates::iac_candidates;
    use sag_core::ilpqc::{solve_ilpqc, IlpqcConfig};
    use sag_lp::revised::{clear_lu_skew, inject_lu_skew};

    let sc = scenario(
        500.0,
        &[(0.0, 0.0, 30.0), (20.0, 0.0, 30.0), (0.0, 20.0, 30.0)],
        &[(100.0, 100.0)],
        -15.0,
    );
    let cands = iac_candidates(&sc);

    clear_lu_skew();
    let clean = solve_ilpqc(&sc, &cands, IlpqcConfig::default()).expect("clean solve succeeds");

    // Transient skew: the first factorization fails its residual check,
    // the rebuild runs clean, and the answer matches the unfaulted one.
    inject_lu_skew(0.5, false);
    let recovered = solve_ilpqc(&sc, &cands, IlpqcConfig::default());
    clear_lu_skew();
    match recovered {
        Ok(out) => assert_eq!(
            out.solution.relays.len(),
            clean.solution.relays.len(),
            "transient skew changed the answer"
        ),
        Err(e) => panic!("transient skew must be repaired, got {e:?}"),
    }

    // Persistent skew: every rebuild is poisoned, so the solver must
    // refuse with the typed numerical error rather than answer wrong.
    inject_lu_skew(0.5, true);
    let poisoned = solve_ilpqc(&sc, &cands, IlpqcConfig::default());
    clear_lu_skew();
    match poisoned {
        Err(SagError::Lp(sag_lp::LpError::Numerical(_))) => {}
        Ok(out) => assert_eq!(
            out.solution.relays.len(),
            clean.solution.relays.len(),
            "persistent skew produced a silently wrong answer"
        ),
        Err(e) => panic!("expected typed Numerical rejection, got {e:?}"),
    }
}

/// S1 regression: a deadline the lower tier legitimately consumed must
/// never be double-spent against the polynomial tail. Whatever the
/// timing, `BudgetExceeded` may only name the lower-tier stage — a
/// successful SAMC/ILPQC answer implies the tail completes. The ILPQC
/// ladder runs under adaptive selection and with every zone forced onto
/// each heuristic backend.
#[test]
fn tail_stages_never_fail_on_a_deadline_the_lower_tier_spent() {
    for seed in 0..6u64 {
        for deadline_ms in [1u64, 5, 20, 60] {
            let sc = ScenarioSpec {
                field_size: 800.0,
                n_subscribers: 24,
                n_base_stations: 2,
                snr_db: -18.0,
                ..Default::default()
            }
            .build(seed);
            for (solver, builder) in [
                (LowerSolver::Samc, SolverBuilder::adaptive()),
                (LowerSolver::Candidates, SolverBuilder::adaptive()),
                (
                    LowerSolver::Candidates,
                    SolverBuilder::fixed(SolverBackend::Greedy),
                ),
                (
                    LowerSolver::Candidates,
                    SolverBuilder::fixed(SolverBackend::LpRound),
                ),
            ] {
                let config = SagPipelineConfig {
                    lower_solver: solver,
                    solver: builder,
                    budget: Budget::unlimited().with_deadline(Duration::from_millis(deadline_ms)),
                    ..Default::default()
                };
                if let Err(SagError::BudgetExceeded { stage, .. }) = run_sag_with(&sc, config) {
                    assert!(
                        stage == "samc" || stage == "ilpqc",
                        "seed {seed}, {deadline_ms}ms, {solver:?} {:?}: \
                         tail stage {stage:?} starved by a spent deadline",
                        builder.choice
                    );
                }
            }
        }
    }
}

/// Acceptance: a sweep whose eval panics on one cell completes and
/// reports the crash in `failed_runs` instead of tearing down the grid.
#[test]
fn sweep_with_panicking_cell_reports_failed_runs() {
    let xs = [10usize, 20, 30];
    let config = SweepConfig::new(4, 42, 2).expect("valid config");
    let grids = sweep_multi(&xs, 1, config, |x, seed| {
        if x == 20 && seed % 2 == 0 {
            panic!("injected chaos panic");
        }
        vec![Some(x as f64)]
    });
    let cells = &grids[0];
    assert_eq!(cells.len(), xs.len());
    assert_eq!(cells[0].failed_runs, 0);
    assert!(
        cells[1].failed_runs >= 1,
        "panics must surface as failed_runs"
    );
    assert_eq!(cells[2].failed_runs, 0);
    // Healthy cells keep their stats.
    assert_eq!(cells[0].mean, Some(10.0));
    assert_eq!(cells[2].mean, Some(30.0));
    // The poisoned cell still reports its surviving runs.
    assert_eq!(cells[1].total_runs, 4);
    assert!(cells[1].feasible_runs < 4);
}
