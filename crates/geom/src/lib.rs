//! # sag-geom — 2-D computational geometry substrate
//!
//! Geometry primitives used throughout the SAG (Signal-Aware Green relay
//! network design) reproduction:
//!
//! * [`Point`] / [`Vec2`] — planar points and displacement vectors,
//! * [`Circle`] — subscriber feasible-coverage circles and their pairwise
//!   intersections (the *IAC* candidate construction of the paper),
//! * [`Rect`] and [`GridSpec`] — the playing field and the *GAC* grid
//!   candidate construction,
//! * [`disks`] — common-intersection tests over families of disks, used by
//!   the paper's *Update RS Topology* (Algorithm 5) "common area" check,
//! * [`SpatialHash`] — a uniform-bucket spatial index whose fixed-radius
//!   pair walk drives zone partitioning,
//! * [`arc`] — uniform samples along a circle, which give the k-coverage
//!   extension its in-disk candidate rings.
//!
//! All computation is `f64`; tolerance-controlled comparisons live in
//! [`float`].
//!
//! # Example
//!
//! ```
//! use sag_geom::{Circle, Point};
//!
//! let a = Circle::new(Point::new(0.0, 0.0), 5.0);
//! let b = Circle::new(Point::new(6.0, 0.0), 5.0);
//! let pts = a.intersection_points(&b);
//! assert_eq!(pts.len(), 2);
//! for p in pts {
//!     assert!(a.on_boundary(p) && b.on_boundary(p));
//! }
//! ```

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod arc;
pub mod circle;
pub mod disks;
pub mod float;
pub mod grid;
pub mod point;
pub mod rect;
pub mod spatial;

pub use circle::{Circle, CircleRelation};
pub use grid::GridSpec;
pub use point::{Point, Vec2};
pub use rect::Rect;
pub use spatial::SpatialHash;
