//! # sag-graph — graph substrate
//!
//! Self-contained graph algorithms used by the SAG reproduction:
//!
//! * [`UnionFind`] — disjoint sets with path compression + union by rank
//!   (Zone Partition, Algorithm 2, joins subscribers within interference
//!   reach),
//! * [`Graph`] — a small weighted undirected graph (adjacency lists),
//! * [`mst`] — Kruskal and Prim minimum spanning trees (Algorithm 7's
//!   backbone; the two implementations cross-check each other in tests),
//! * [`components`] — connected components / BFS / DFS (relay-graph
//!   resilience, and the all-pairs Zone Partition referee),
//! * [`bipartite`] — bipartite graphs with greedy *Coverage Link Escape*
//!   marking support,
//! * [`mis`] — greedy and exact maximum independent set.
//!
//! # Example
//!
//! ```
//! use sag_graph::{Graph, mst};
//! let mut g = Graph::new(4);
//! g.add_edge(0, 1, 1.0);
//! g.add_edge(1, 2, 2.0);
//! g.add_edge(2, 3, 1.5);
//! g.add_edge(0, 3, 10.0);
//! let t = mst::kruskal(&g).expect("connected");
//! assert_eq!(t.edges.len(), 3);
//! assert!((t.total_weight - 4.5).abs() < 1e-12);
//! ```

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod articulation;
pub mod bipartite;
pub mod coloring;
pub mod components;
pub mod graph;
pub mod mis;
pub mod mst;
pub mod unionfind;

pub use bipartite::BipartiteGraph;
pub use graph::{Edge, Graph};
pub use unionfind::UnionFind;
