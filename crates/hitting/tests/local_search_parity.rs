//! Differential parity: the incremental swap evaluation in
//! `local_search` must return the same candidate indices, in the same
//! order, as the full-recompute `reference` search, for every
//! configuration.
//!
//! Inputs cover the paper's Fig. 4/5 densities (500×500 and 800×800
//! fields, radii U[30, 40], up to 70 disks) and snapped grids that force
//! coincident, tangent and nested disks, at swap sizes 1–4 and
//! `max_rounds` 1 and 64. `SAG_PROP_CASES` raises the case count for
//! the CI soak.

use sag_geom::{Circle, Point};
use sag_hitting::local_search::{local_search_with, LocalSearchConfig};
use sag_hitting::{reference, DiskInstance};
use sag_testkit::prelude::*;

/// `n` disks at Fig. 4/5 density: centres uniform on a `field`-sided
/// square, radii U[30, 40] (the paper's distance requirements).
fn paper_field(seed: u64, field: f64, n: usize) -> DiskInstance {
    let mut rng = Rng::seed_from_u64(seed);
    DiskInstance::new(
        (0..n)
            .map(|_| {
                let centre = Point::new(rng.gen_range(0.0..field), rng.gen_range(0.0..field));
                Circle::new(centre, rng.gen_range(30.0..40.0))
            })
            .collect(),
    )
}

/// `n` disks snapped to a 10-unit lattice in a 120×120 box with radii
/// in {10, 20, 30}: centres coincide, lattice distances equal radius
/// sums and differences (tangent disks), and equal-centre disks nest.
fn snapped_grid(seed: u64, n: usize) -> DiskInstance {
    let mut rng = Rng::seed_from_u64(seed);
    DiskInstance::new(
        (0..n)
            .map(|_| {
                let centre = Point::new(
                    10.0 * rng.gen_range(0..13) as f64,
                    10.0 * rng.gen_range(0..13) as f64,
                );
                Circle::new(centre, 10.0 * rng.gen_range(1..4) as f64)
            })
            .collect(),
    )
}

fn assert_parity(inst: &DiskInstance, swap_size: usize, max_rounds: usize) {
    let config = LocalSearchConfig {
        swap_size,
        max_rounds,
    };
    let fast = local_search_with(inst, config);
    let slow = reference::local_search_with(inst, config);
    assert_eq!(
        fast,
        slow,
        "swap_size {swap_size}, max_rounds {max_rounds}, {} disks",
        inst.len()
    );
    assert!(inst.indices_hit_all(&fast));
}

/// `max_rounds` 1 (a single improvement) or 64 (to the local optimum).
fn rounds(long: usize) -> usize {
    if long == 1 {
        64
    } else {
        1
    }
}

prop! {
    #[cases(24)]
    fn prop_matches_reference_on_paper_fields(
        seed in 0u64..u64::MAX,
        fig5 in 0usize..2,
        n in 1usize..71,
        swap_size in 1usize..4,
        long in 0usize..2
    ) {
        let field = if fig5 == 1 { 800.0 } else { 500.0 };
        assert_parity(&paper_field(seed, field, n), swap_size, rounds(long));
    }

    #[cases(16)]
    fn prop_matches_reference_with_four_swaps(
        seed in 0u64..u64::MAX,
        fig5 in 0usize..2,
        n in 1usize..36,
        long in 0usize..2
    ) {
        let field = if fig5 == 1 { 800.0 } else { 500.0 };
        assert_parity(&paper_field(seed, field, n), 4, rounds(long));
    }

    #[cases(32)]
    fn prop_matches_reference_on_snapped_grids(
        seed in 0u64..u64::MAX,
        n in 1usize..25,
        swap_size in 1usize..5,
        long in 0usize..2
    ) {
        assert_parity(&snapped_grid(seed, n), swap_size, rounds(long));
    }
}

#[test]
fn coincident_tangent_and_nested_disks_match_reference() {
    let c = |x: f64, y: f64, r: f64| Circle::new(Point::new(x, y), r);
    let inst = DiskInstance::new(vec![
        c(0.0, 0.0, 10.0),
        c(0.0, 0.0, 10.0),  // coincident
        c(0.0, 0.0, 20.0),  // nested, same centre
        c(20.0, 0.0, 10.0), // externally tangent to the first
        c(10.0, 0.0, 20.0), // internally tangent to the first... and crossing
        c(50.0, 0.0, 10.0),
        c(70.0, 0.0, 10.0), // tangent chain
        c(60.0, 20.0, 15.0),
    ]);
    for swap_size in 1..=4 {
        for max_rounds in [0, 1, 2, 64] {
            assert_parity(&inst, swap_size, max_rounds);
        }
    }
}

#[test]
fn four_for_three_swap_matches_reference() {
    // A snapped grid, found by the soak, whose only improving swap
    // removes four points (positions 1, 2, 4 and 7 of the greedy
    // solution) and adds three; the pair of removed points sharing a
    // candidate between their private disks is not the first two.
    let inst = snapped_grid(14_473_064_984_358_140_282, 18);
    let three = local_search_with(
        &inst,
        LocalSearchConfig {
            swap_size: 3,
            max_rounds: 64,
        },
    );
    let four = local_search_with(
        &inst,
        LocalSearchConfig {
            swap_size: 4,
            max_rounds: 1,
        },
    );
    assert_eq!(four.len() + 1, three.len());
    for swap_size in 3..=4 {
        for max_rounds in [1, 64] {
            assert_parity(&inst, swap_size, max_rounds);
        }
    }
}
