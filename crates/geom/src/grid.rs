//! Uniform grids over a rectangle — the *GAC* (Grids As Candidates)
//! construction.
//!
//! GAC divides the playing field into square cells of a chosen size and
//! uses every cell centre as a candidate relay position. The paper notes
//! the central trade-off: smaller cells give more accurate solutions but
//! the optimiser's running time grows non-linearly with the candidate
//! count (§III-A, Fig. 3(e)).

use crate::point::Point;
use crate::rect::Rect;

/// Specification of a uniform square grid over a rectangle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridSpec {
    rect: Rect,
    cell: f64,
}

impl GridSpec {
    /// Creates a grid with square cells of side `cell` covering `rect`.
    ///
    /// Cells are anchored at the rectangle's min corner; a partial final
    /// row/column still contributes centres (clamped into the rectangle),
    /// so every part of the field is near some candidate.
    ///
    /// # Panics
    /// Panics if `cell` is not strictly positive and finite.
    pub fn new(rect: Rect, cell: f64) -> Self {
        assert!(
            cell.is_finite() && cell > 0.0,
            "grid cell must be > 0, got {cell}"
        );
        GridSpec { rect, cell }
    }

    /// The covered rectangle.
    #[inline]
    pub fn rect(&self) -> Rect {
        self.rect
    }

    /// The cell side length.
    #[inline]
    pub fn cell(&self) -> f64 {
        self.cell
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        (self.rect.width() / self.cell).ceil().max(1.0) as usize
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        (self.rect.height() / self.cell).ceil().max(1.0) as usize
    }

    /// Total number of cells (candidate positions).
    pub fn len(&self) -> usize {
        self.cols() * self.rows()
    }

    /// Returns `true` if the grid has no cells (never happens for valid
    /// specs, provided for API completeness).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The centre of cell `(col, row)`, clamped into the rectangle so a
    /// partial boundary cell still yields an in-field candidate.
    ///
    /// # Panics
    /// Panics if `col`/`row` are out of range.
    pub fn cell_center(&self, col: usize, row: usize) -> Point {
        assert!(
            col < self.cols() && row < self.rows(),
            "cell index out of range"
        );
        let p = Point::new(
            self.rect.min().x + (col as f64 + 0.5) * self.cell,
            self.rect.min().y + (row as f64 + 0.5) * self.cell,
        );
        self.rect.clamp(p)
    }

    /// Iterator over all cell centres, row-major.
    ///
    /// # Example
    /// ```
    /// use sag_geom::{GridSpec, Rect};
    /// let g = GridSpec::new(Rect::centered_square(100.0), 20.0);
    /// assert_eq!(g.centers().count(), g.len());
    /// ```
    pub fn centers(&self) -> Centers {
        Centers {
            grid: *self,
            idx: 0,
        }
    }
}

/// Iterator over grid cell centres. See [`GridSpec::centers`].
#[derive(Debug, Clone)]
pub struct Centers {
    grid: GridSpec,
    idx: usize,
}

impl Iterator for Centers {
    type Item = Point;

    fn next(&mut self) -> Option<Point> {
        if self.idx >= self.grid.len() {
            return None;
        }
        let cols = self.grid.cols();
        let col = self.idx % cols;
        let row = self.idx / cols;
        self.idx += 1;
        Some(self.grid.cell_center(col, row))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.grid.len() - self.idx;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for Centers {}

#[cfg(test)]
mod tests {
    use super::*;
    use sag_testkit::prelude::*;

    #[test]
    fn exact_division() {
        let g = GridSpec::new(Rect::centered_square(100.0), 25.0);
        assert_eq!(g.cols(), 4);
        assert_eq!(g.rows(), 4);
        assert_eq!(g.len(), 16);
        assert_eq!(g.centers().count(), 16);
    }

    #[test]
    fn partial_cells_round_up() {
        let g = GridSpec::new(Rect::centered_square(100.0), 30.0);
        assert_eq!(g.cols(), 4); // 100/30 = 3.33 → 4
        assert_eq!(g.len(), 16);
    }

    #[test]
    fn centers_inside_rect() {
        let g = GridSpec::new(Rect::centered_square(500.0), 17.0);
        for p in g.centers() {
            assert!(g.rect().contains(p), "{p} escaped the field");
        }
    }

    #[test]
    fn first_center_position() {
        let g = GridSpec::new(Rect::centered_square(100.0), 20.0);
        let first = g.centers().next().unwrap();
        assert!(first.approx_eq(Point::new(-40.0, -40.0)));
        // The walk is row-major: centre `i` is cell `(i % cols, i / cols)`.
        for (i, p) in g.centers().enumerate() {
            assert_eq!(p, g.cell_center(i % g.cols(), i / g.cols()));
        }
    }

    #[test]
    fn smaller_cells_more_candidates() {
        let r = Rect::centered_square(500.0);
        let coarse = GridSpec::new(r, 20.0).len();
        let fine = GridSpec::new(r, 13.0).len();
        assert!(fine > coarse);
    }

    #[test]
    #[should_panic]
    fn zero_cell_panics() {
        GridSpec::new(Rect::centered_square(10.0), 0.0);
    }

    prop! {
        fn prop_count_matches_iterator(side in 10.0..900.0f64, cell in 5.0..50.0f64) {
            let g = GridSpec::new(Rect::centered_square(side), cell);
            prop_assert_eq!(g.centers().count(), g.len());
        }

        fn prop_every_point_near_some_center(side in 50.0..400.0f64, cell in 5.0..40.0f64,
                                             t in 0.0..1.0f64, u in 0.0..1.0f64) {
            let r = Rect::centered_square(side);
            let g = GridSpec::new(r, cell);
            let p = Point::new(r.min().x + t * side, r.min().y + u * side);
            let nearest = g
                .centers()
                .map(|c| c.distance(p))
                .fold(f64::INFINITY, f64::min);
            // Any field point is within one cell diagonal of some centre.
            prop_assert!(nearest <= cell * std::f64::consts::SQRT_2 + 1e-9);
        }
    }
}
