//! Seeded random scenario generation matching the paper's §IV-A
//! settings: square fields of 300/500/800, subscribers and base stations
//! uniformly distributed, distance requirements uniform in `[30, 40]`,
//! SNR thresholds in `[-25, -10]` dB (down to `-40` dB in Fig. 3(c)).

use sag_testkit::rng::Rng;

use crate::fingerprint::{Fingerprint, FpHasher};
use sag_core::model::{BaseStation, NetworkParams, Scenario, Subscriber};
use sag_geom::{Point, Rect};
use sag_radio::{units::Db, LinkBudget};

/// Base-station placement policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BsLayout {
    /// Uniformly random in the field (the paper's default).
    #[default]
    Uniform,
    /// Pushed toward the four field corners (the Fig. 6 topology plots);
    /// more than four wrap around the corner list.
    Corners,
}

/// Declarative description of a random scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScenarioSpec {
    /// Side of the square playing field (300 / 500 / 800 in the paper).
    pub field_size: f64,
    /// Number of subscriber stations.
    pub n_subscribers: usize,
    /// Number of base stations.
    pub n_base_stations: usize,
    /// SNR threshold in dB.
    pub snr_db: f64,
    /// Distance-requirement range (the paper uses `[30, 40]`).
    pub dist_range: (f64, f64),
    /// Maximum relay transmit power.
    pub pmax: f64,
    /// Ignorable-noise level `N_max` for Zone Partition.
    pub nmax: f64,
    /// Base-station layout.
    pub bs_layout: BsLayout,
}

impl Default for ScenarioSpec {
    fn default() -> Self {
        ScenarioSpec {
            field_size: 500.0,
            n_subscribers: 30,
            n_base_stations: 4,
            snr_db: -15.0,
            dist_range: (30.0, 40.0),
            pmax: 1.0,
            nmax: 1e-9,
            bs_layout: BsLayout::Uniform,
        }
    }
}

impl ScenarioSpec {
    /// Materialises the scenario with a deterministic seed.
    ///
    /// The same `(spec, seed)` pair always produces the identical
    /// scenario, which is what makes every experiment reproducible
    /// bit-for-bit.
    ///
    /// # Panics
    /// Panics if the spec is degenerate (no subscribers/base stations,
    /// empty distance range, non-positive field).
    pub fn build(&self, seed: u64) -> Scenario {
        assert!(self.n_subscribers > 0, "spec needs ≥ 1 subscriber");
        assert!(self.n_base_stations > 0, "spec needs ≥ 1 base station");
        assert!(
            self.dist_range.0 > 0.0 && self.dist_range.0 <= self.dist_range.1,
            "invalid distance range {:?}",
            self.dist_range
        );
        let field = Rect::centered_square(self.field_size);
        let mut rng = Rng::seed_from_u64(seed);
        let uniform_point = |rng: &mut Rng| {
            Point::new(
                rng.gen_range(field.min().x..=field.max().x),
                rng.gen_range(field.min().y..=field.max().y),
            )
        };
        let subscribers: Vec<Subscriber> = (0..self.n_subscribers)
            .map(|_| {
                let p = uniform_point(&mut rng);
                let d = rng.gen_range(self.dist_range.0..=self.dist_range.1);
                Subscriber::new(p, d)
            })
            .collect();
        let base_stations: Vec<BaseStation> = match self.bs_layout {
            BsLayout::Uniform => (0..self.n_base_stations)
                .map(|_| BaseStation::new(uniform_point(&mut rng)))
                .collect(),
            BsLayout::Corners => {
                let h = self.field_size / 2.0 * 0.9;
                let corners = [
                    Point::new(h, h),
                    Point::new(-h, h),
                    Point::new(-h, -h),
                    Point::new(h, -h),
                ];
                (0..self.n_base_stations)
                    .map(|i| BaseStation::new(corners[i % corners.len()]))
                    .collect()
            }
        };
        let link = LinkBudget::builder()
            .max_power(self.pmax)
            .snr_threshold(Db::new(self.snr_db))
            .build();
        Scenario::new(
            field,
            subscribers,
            base_stations,
            NetworkParams::new(link, self.nmax),
        )
        .expect("spec guarantees non-empty subscriber/BS lists")
    }

    /// Content fingerprint of the `(spec, seed)` pair — the complete
    /// pre-image of [`ScenarioSpec::build`], which is a pure function
    /// of exactly these values. Two lanes with equal fingerprints are
    /// therefore guaranteed the bit-identical scenario, which is what
    /// lets the batched sweep cache share built scenarios (and
    /// artifacts derived from them) across sweep cells.
    pub fn fingerprint(&self, seed: u64) -> Fingerprint {
        let mut h = FpHasher::new("scenario-spec/v1");
        h.write_f64(self.field_size)
            .write_usize(self.n_subscribers)
            .write_usize(self.n_base_stations)
            .write_f64(self.snr_db)
            .write_f64(self.dist_range.0)
            .write_f64(self.dist_range.1)
            .write_f64(self.pmax)
            .write_f64(self.nmax)
            .write_str(match self.bs_layout {
                BsLayout::Uniform => "uniform",
                BsLayout::Corners => "corners",
            })
            .write_u64(seed);
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_tracks_every_build_input() {
        let spec = ScenarioSpec::default();
        assert_eq!(spec.fingerprint(7), spec.fingerprint(7));
        assert_ne!(spec.fingerprint(7), spec.fingerprint(8));
        let variants = [
            ScenarioSpec {
                field_size: 300.0,
                ..spec
            },
            ScenarioSpec {
                n_subscribers: 31,
                ..spec
            },
            ScenarioSpec {
                n_base_stations: 5,
                ..spec
            },
            ScenarioSpec {
                snr_db: -11.0,
                ..spec
            },
            ScenarioSpec {
                dist_range: (30.0, 41.0),
                ..spec
            },
            ScenarioSpec { pmax: 2.0, ..spec },
            ScenarioSpec { nmax: 1e-8, ..spec },
            ScenarioSpec {
                bs_layout: BsLayout::Corners,
                ..spec
            },
        ];
        for (i, v) in variants.iter().enumerate() {
            assert_ne!(v.fingerprint(7), spec.fingerprint(7), "variant {i}");
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let spec = ScenarioSpec::default();
        let a = spec.build(7);
        let b = spec.build(7);
        assert_eq!(a, b);
        let c = spec.build(8);
        assert_ne!(a, c);
    }

    #[test]
    fn everything_inside_field() {
        let spec = ScenarioSpec {
            field_size: 300.0,
            n_subscribers: 50,
            ..Default::default()
        };
        let sc = spec.build(1);
        for s in &sc.subscribers {
            assert!(sc.field.contains(s.position));
            assert!((30.0..=40.0).contains(&s.distance_req));
        }
        for b in &sc.base_stations {
            assert!(sc.field.contains(b.position));
        }
    }

    #[test]
    fn corner_layout() {
        let spec = ScenarioSpec {
            n_base_stations: 4,
            bs_layout: BsLayout::Corners,
            ..Default::default()
        };
        let sc = spec.build(0);
        // All four quadrants occupied.
        let quads: std::collections::HashSet<(bool, bool)> = sc
            .base_stations
            .iter()
            .map(|b| (b.position.x > 0.0, b.position.y > 0.0))
            .collect();
        assert_eq!(quads.len(), 4);
    }

    #[test]
    fn snr_threshold_applied() {
        let spec = ScenarioSpec {
            snr_db: -40.0,
            ..Default::default()
        };
        let sc = spec.build(3);
        assert!((sc.params.link.beta() - 1e-4).abs() < 1e-9);
    }

    #[test]
    #[should_panic]
    fn zero_subscribers_panics() {
        ScenarioSpec {
            n_subscribers: 0,
            ..Default::default()
        }
        .build(0);
    }
}
