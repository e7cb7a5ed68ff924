//! Zone Partition parity: the spatial-index + union-find partition in
//! `sag_core::zone` must return the same zones as the all-pairs
//! referee kept in `sag_core::reference` — the same `Vec<Zone>`, zones
//! ordered by smallest subscriber index and each zone ascending.
//!
//! Inputs: seeded uniform and clustered fields (1–300 subscribers,
//! sides 100–3600 m, d_req 1–40 m); snapped 10 m grids with equal d_req,
//! where neighbouring pairs sit exactly at `d_eff == d_max`; coincident
//! subscribers; `d_max` of 0, exactly at a pair's `d_eff` and one ulp
//! below it, and 1000 (one zone); and the perfbench `churn_hotspots`
//! layout. `SAG_PROP_CASES` raises the case count for the CI soak.

use std::f64::consts::TAU;

use sag_core::model::{BaseStation, NetworkParams, Scenario, Subscriber};
use sag_core::{reference, zone};
use sag_geom::{Point, Rect};
use sag_testkit::prelude::*;

fn scenario(side: f64, subscribers: Vec<Subscriber>) -> Scenario {
    Scenario {
        field: Rect::centered_square(side),
        subscribers,
        base_stations: vec![BaseStation::new(Point::ORIGIN)],
        params: NetworkParams::default(),
    }
}

fn assert_parity(sc: &Scenario, dmax: f64, what: &str) -> Vec<zone::Zone> {
    let fast = zone::zone_partition_with_dmax(sc, dmax);
    let slow = reference::zone_partition_with_dmax(sc, dmax);
    assert_eq!(
        fast,
        slow,
        "{what}: {} subscribers, dmax {dmax}",
        sc.n_subscribers()
    );
    fast
}

/// `d_eff` of subscribers `i < j`, in the partition's float expression.
fn deff(sc: &Scenario, i: usize, j: usize) -> f64 {
    let (si, sj) = (&sc.subscribers[i], &sc.subscribers[j]);
    let dist = si.position.distance(sj.position);
    (dist - si.distance_req).min(dist - sj.distance_req)
}

/// A seeded field: uniform, or clustered around a few centres so that
/// index buckets hold many subscribers.
fn seeded_field(rng: &mut Rng) -> Scenario {
    let n = rng.gen_range(1..=300usize);
    let side: f64 = rng.gen_range(100.0..=3600.0);
    let (lo, hi): (f64, f64) = (rng.gen_range(1.0..=40.0), rng.gen_range(1.0..=40.0));
    let (req_lo, req_hi) = (f64::min(lo, hi), f64::max(lo, hi));
    let half = side / 2.0;
    let clusters: Vec<Point> = if rng.gen_bool(0.5) {
        (0..rng.gen_range(1..=8usize))
            .map(|_| Point::new(rng.gen_range(-half..=half), rng.gen_range(-half..=half)))
            .collect()
    } else {
        Vec::new()
    };
    let spread = side / 10.0;
    let subs = (0..n)
        .map(|_| {
            let p = if clusters.is_empty() {
                Point::new(rng.gen_range(-half..=half), rng.gen_range(-half..=half))
            } else {
                let c = clusters[rng.gen_range(0..clusters.len())];
                let (r, t) = (spread * rng.f64().sqrt(), rng.gen_range(0.0..TAU));
                Point::new(
                    (c.x + r * t.cos()).clamp(-half, half),
                    (c.y + r * t.sin()).clamp(-half, half),
                )
            };
            Subscriber::new(p, rng.gen_range(req_lo..=req_hi))
        })
        .collect();
    scenario(side, subs)
}

/// The `d_max` values one case is checked at: 0, one scaled to the
/// field's spacing, and the default parameters' 1000 m.
fn dmax_values(rng: &mut Rng, sc: &Scenario) -> [f64; 3] {
    let spacing = sc.field.width() / (sc.n_subscribers() as f64).sqrt();
    [0.0, rng.gen_range(0.0..=3.0 * spacing), 1000.0]
}

/// `d_max` exactly at some pair's `d_eff`, and one ulp below it, so
/// that the pair's edge flips between the two.
fn boundary_dmax(rng: &mut Rng, sc: &Scenario) -> Option<[f64; 2]> {
    let n = sc.n_subscribers();
    if n < 2 {
        return None;
    }
    let i = rng.gen_range(0..n - 1);
    let j = rng.gen_range(i + 1..n);
    let d = deff(sc, i, j);
    (d > 0.0).then(|| [d, d.next_down()])
}

prop! {
    /// Seeded uniform and clustered fields at 0, spacing-scaled and
    /// 1000 m `d_max`, and at a pair's `d_eff` boundary.
    #[cases(40)]
    fn grid_partition_matches_reference_on_seeded_fields(seed in 0u64..1_000_000) {
        let mut rng = Rng::seed_from_u64(seed);
        let sc = seeded_field(&mut rng);
        for dmax in dmax_values(&mut rng, &sc) {
            assert_parity(&sc, dmax, "seeded field");
        }
        if let Some(dmaxes) = boundary_dmax(&mut rng, &sc) {
            for dmax in dmaxes {
                assert_parity(&sc, dmax, "pair boundary");
            }
        }
    }

    /// Snapped 10 m grids with one d_req: a neighbouring pair `10·m` m
    /// apart has `d_eff = 10·m − d_req` exactly, so at that `d_max` the
    /// pairs sit on the boundary, and one ulp below it they split.
    /// Sites repeat, so coincident subscribers occur too.
    #[cases(40)]
    fn grid_partition_matches_reference_on_snapped_grids(seed in 0u64..1_000_000) {
        let mut rng = Rng::seed_from_u64(seed);
        let k = rng.gen_range(1..=12i32);
        let n = rng.gen_range(1..=150usize);
        let req = [1.0, 5.0, 10.0, 20.0][rng.gen_range(0..4usize)];
        let subs = (0..n)
            .map(|_| {
                let (x, y) = (rng.gen_range(-k..=k), rng.gen_range(-k..=k));
                Subscriber::new(Point::new(10.0 * x as f64, 10.0 * y as f64), req)
            })
            .collect();
        let sc = scenario(20.0 * k as f64 + 20.0, subs);
        for m in 1..=3 {
            let dmax = (10.0 * m as f64 - req).max(0.0);
            let at = assert_parity(&sc, dmax, "snapped grid at the boundary");
            if dmax > 0.0 {
                let below = assert_parity(&sc, dmax.next_down(), "snapped grid below");
                prop_assert!(below.len() >= at.len());
            }
        }
    }
}

/// Coincident subscribers: stacks of identical positions always join
/// (`d_eff = −d_req ≤ d_max`), including at `d_max = 0`, and whole
/// fields collapsed onto one point are one zone.
#[test]
fn coincident_subscribers_match_reference() {
    let sites = [(0.0, 0.0), (30.0, 0.0), (0.0, 200.0), (-150.0, -150.0)];
    let subs: Vec<Subscriber> = (0..60)
        .map(|k| {
            let (x, y) = sites[k % sites.len()];
            Subscriber::new(Point::new(x, y), 1.0 + (k % 7) as f64)
        })
        .collect();
    let sc = scenario(500.0, subs.clone());
    for dmax in [0.0, 10.0, 22.0, 23.0, 1000.0] {
        assert_parity(&sc, dmax, "coincident stacks");
    }
    assert_eq!(
        zone::zone_partition_with_dmax(&sc, 0.0).len(),
        sites.len(),
        "each stack is one zone at dmax 0"
    );
    let one_point: Vec<Subscriber> = subs
        .iter()
        .map(|s| Subscriber::new(Point::new(7.0, -3.0), s.distance_req))
        .collect();
    let sc = scenario(500.0, one_point);
    assert_eq!(
        assert_parity(&sc, 0.0, "one point"),
        vec![(0..60).collect::<Vec<_>>()]
    );
}

/// The default parameters' `d_max = 1000` joins every subscriber of a
/// field whose diagonal is below it into one zone.
#[test]
fn dmax_1000_is_one_zone() {
    let mut rng = Rng::seed_from_u64(11);
    for n in [1, 2, 50, 300] {
        let subs = (0..n)
            .map(|_| {
                Subscriber::new(
                    Point::new(rng.gen_range(-350.0..=350.0), rng.gen_range(-350.0..=350.0)),
                    rng.gen_range(1.0..=40.0),
                )
            })
            .collect();
        let sc = scenario(700.0, subs);
        assert_eq!(assert_parity(&sc, 1000.0, "dmax 1000").len(), 1);
    }
}

/// The empty scenario has no zones under either partition.
#[test]
fn empty_scenario_has_no_zones() {
    let sc = scenario(100.0, Vec::new());
    assert!(assert_parity(&sc, 10.0, "empty").is_empty());
}

/// The perfbench `churn_hotspots` deployment: a 6×6 grid of hotspots
/// 600 m apart, 8 subscribers of d_req 30–40 m within 60 m of each
/// centre, at N_max = 1e-6 (d_max = 100 m) — one zone per hotspot —
/// and the same layout after a run of in-hotspot moves.
#[test]
fn churn_hotspots_layout_matches_reference() {
    const GRID: usize = 6;
    const SPACING: f64 = 600.0;
    const RADIUS: f64 = 60.0;
    let mid = (GRID as f64 - 1.0) / 2.0;
    let centres: Vec<Point> = (0..GRID * GRID)
        .map(|k| {
            let (i, j) = ((k % GRID) as f64, (k / GRID) as f64);
            Point::new((i - mid) * SPACING, (j - mid) * SPACING)
        })
        .collect();
    let in_hotspot = |rng: &mut Rng, c: Point| {
        let (r, t) = (RADIUS * rng.f64().sqrt(), rng.gen_range(0.0..TAU));
        Point::new(c.x + r * t.cos(), c.y + r * t.sin())
    };
    for seed in 0..5u64 {
        let mut rng = Rng::seed_from_u64(seed);
        let mut subs: Vec<Subscriber> = centres
            .iter()
            .flat_map(|&c| std::iter::repeat_n(c, 8))
            .map(|c| Subscriber::new(in_hotspot(&mut rng, c), rng.gen_range(30.0..=40.0)))
            .collect();
        let mut sc = Scenario {
            params: NetworkParams::new(sag_radio::LinkBudget::default(), 1e-6),
            ..scenario(GRID as f64 * SPACING, subs.clone())
        };
        let dmax = sc.params.dmax();
        assert!((dmax - 100.0).abs() < 1e-9, "dmax {dmax}");
        assert_eq!(assert_parity(&sc, dmax, "hotspots").len(), GRID * GRID);
        for _ in 0..200 {
            let j = rng.gen_range(0..subs.len());
            subs[j].position = in_hotspot(&mut rng, centres[j / 8]);
        }
        sc.subscribers = subs;
        assert_eq!(
            assert_parity(&sc, dmax, "hotspots after moves").len(),
            GRID * GRID
        );
    }
}
