//! Shared helpers for the cross-crate integration tests.
//!
//! The real tests live in `tests/tests/*.rs`; this library only hosts
//! small builders they share plus the scenario-level chaos mutators
//! that realise `sag_testkit::chaos::Fault` against concrete domain
//! types (the testkit itself stays zero-dependency, so it cannot name
//! `Scenario`).

use sag_core::model::{BaseStation, NetworkParams, Scenario, Subscriber};
use sag_geom::{Point, Rect};
use sag_radio::{units::Db, LinkBudget};
use sag_testkit::chaos::Fault;
use sag_testkit::rng::Rng;

/// Builds a deterministic hand-laid scenario: `subs` as
/// `(x, y, distance_req)`, `bss` as `(x, y)`, on a centered square field.
pub fn scenario(field: f64, subs: &[(f64, f64, f64)], bss: &[(f64, f64)], snr_db: f64) -> Scenario {
    Scenario::new(
        Rect::centered_square(field),
        subs.iter()
            .map(|&(x, y, d)| Subscriber::new(Point::new(x, y), d))
            .collect(),
        bss.iter()
            .map(|&(x, y)| BaseStation::new(Point::new(x, y)))
            .collect(),
        NetworkParams::new(
            LinkBudget::builder().snr_threshold(Db::new(snr_db)).build(),
            1e-9,
        ),
    )
    .expect("integration scenarios are non-empty")
}

/// Applies one structural [`Fault`] to `sc` in place, using `rng` to
/// pick which field gets poisoned. The mutated scenario is *expected*
/// to be adversarial: callers assert the pipeline answers with a typed
/// error or a still-valid report, never a panic.
pub fn apply_fault(sc: &mut Scenario, fault: Fault, rng: &mut Rng) {
    match fault {
        Fault::NanInject => poison_scalar(sc, rng, f64::NAN),
        Fault::InfInject => {
            let v = if rng.gen_bool(0.5) {
                f64::INFINITY
            } else {
                f64::NEG_INFINITY
            };
            poison_scalar(sc, rng, v);
        }
        Fault::ZeroWidthRegion => {
            let c = sc.field.center();
            sc.field = if rng.gen_bool(0.5) {
                // Zero area entirely.
                Rect::from_corners(c, c)
            } else {
                // Zero width, finite height.
                Rect::from_corners(
                    Point::new(c.x, sc.field.min().y),
                    Point::new(c.x, sc.field.max().y),
                )
            };
        }
        // Struct literals, not `BaseStation::new`: the source position
        // may already be poisoned by a stacked fault, and the checked
        // constructor would panic inside the *mutator*.
        Fault::CoincidentStations => {
            let n = sc.base_stations.len();
            let src = rng.gen_range(0usize..n);
            let dup = sc.base_stations[src];
            sc.base_stations.push(dup);
        }
        Fault::ColinearStations => {
            let base = sc.base_stations[0].position;
            for k in 1..=3u32 {
                let d = f64::from(k);
                sc.base_stations.push(BaseStation {
                    position: Point::new(base.x + d, base.y + d),
                });
            }
        }
        Fault::ExtremeThreshold => {
            let link = &sc.params.link;
            let mut b = LinkBudget::builder();
            b.model(*link.model())
                .noise(link.noise())
                .bandwidth(link.bandwidth());
            match rng.gen_range(0usize..3) {
                // An SNR bar nothing can clear.
                0 => b.snr_threshold(Db::new(500.0)).max_power(link.pmax()),
                // A power cap that silences every transmitter.
                1 => b.snr_threshold(link.beta_db()).max_power(f64::MIN_POSITIVE),
                // An infinite cap: the builder's `pmax > 0` gate admits
                // it, only `Scenario::validate` catches it.
                _ => b.snr_threshold(link.beta_db()).max_power(f64::INFINITY),
            };
            sc.params.link = b.build();
        }
        Fault::AdversarialCluster => {
            // Pile every subscriber into a vanishingly small disc with
            // near-zero coverage radii: legal floats, brutal geometry.
            for (i, s) in sc.subscribers.iter_mut().enumerate() {
                s.position = Point::new(1e-9 * i as f64, 0.0);
                s.distance_req = f64::MIN_POSITIVE * (i + 1) as f64;
            }
        }
        // A ledger desync is a *state* fault, not a scenario fault: it
        // is injected with `InterferenceLedger::skew_accumulator` on a
        // live ledger, so there is nothing to mutate here. The pipeline
        // run under this fault exercises the unfaulted scenario, and
        // the ledger-level suite (`tests/ledger_parity.rs`) asserts the
        // oracle cross-check reports it as a typed `DesyncError`.
        Fault::LedgerDesync => {}
        // An obs-sink failure is likewise state, not scenario: it is
        // realised by installing a `sag_obs::JsonlSink` over a failing
        // writer (see `tests/obs_pipeline.rs`), which must drop events
        // and count them without ever changing the report.
        Fault::ObsSinkFail => {}
        // A dying zone worker is state, not scenario: it is armed with
        // `sag_core::engine::inject_zone_worker_panic` around a run
        // (see `tests/chaos_pipeline.rs`), which must surface a typed
        // `SagError::WorkerPanic` instead of hanging the merge.
        Fault::ZoneWorkerPanic => {}
        // An event burst is churn-driver state, not scenario: it is
        // realised by delivering a batch of events under an
        // already-expired `Budget` (see `tests/churn_pipeline.rs`),
        // which must bottom out in defer-and-batch and drain cleanly on
        // the final flush.
        Fault::ChurnBurst => {}
        // A boundary hop is churn-trace state, not scenario: it is
        // realised by generating `SsMove` events whose destination
        // crosses an interference-zone boundary (see
        // `tests/churn_pipeline.rs`), which must keep cross-zone
        // repairs audit-clean.
        Fault::ChurnBoundaryHop => {}
        // A basis desync is solver state, not scenario: it is armed
        // with `sag_lp::revised::inject_lu_skew` around a solve (see
        // `tests/chaos_pipeline.rs`), which must either recover via
        // refactorization or surface a typed `LpError::Numerical` —
        // never a silently wrong objective.
        Fault::LpBasisDesync => {}
    }
}

fn poison_scalar(sc: &mut Scenario, rng: &mut Rng, v: f64) {
    match rng.gen_range(0usize..4) {
        0 => {
            let i = rng.gen_range(0usize..sc.subscribers.len());
            sc.subscribers[i].position.x = v;
        }
        1 => {
            let i = rng.gen_range(0usize..sc.subscribers.len());
            sc.subscribers[i].distance_req = v;
        }
        2 => {
            let i = rng.gen_range(0usize..sc.base_stations.len());
            sc.base_stations[i].position.y = v;
        }
        _ => sc.params.nmax = v,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn helper_builds() {
        let sc = super::scenario(500.0, &[(0.0, 0.0, 30.0)], &[(100.0, 100.0)], -15.0);
        assert_eq!(sc.n_subscribers(), 1);
    }

    #[test]
    fn every_fault_applies_without_panicking() {
        let mut rng = Rng::seed_from_u64(9);
        for fault in Fault::all() {
            for _ in 0..50 {
                let mut sc = super::scenario(500.0, &[(0.0, 0.0, 30.0)], &[(100.0, 100.0)], -15.0);
                apply_fault(&mut sc, fault, &mut rng);
            }
        }
    }

    #[test]
    fn non_finite_faults_fail_validation() {
        let mut rng = Rng::seed_from_u64(11);
        for fault in [Fault::NanInject, Fault::InfInject, Fault::ZeroWidthRegion] {
            let mut sc = super::scenario(500.0, &[(0.0, 0.0, 30.0)], &[(100.0, 100.0)], -15.0);
            apply_fault(&mut sc, fault, &mut rng);
            assert!(sc.validate().is_err(), "{fault:?} should not validate");
        }
    }
}
