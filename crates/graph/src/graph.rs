//! A small weighted undirected graph.

use std::fmt;

/// A weighted undirected edge between vertices `u` and `v`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Edge {
    /// One endpoint.
    pub u: usize,
    /// The other endpoint.
    pub v: usize,
    /// Edge weight.
    pub weight: f64,
}

/// A weighted undirected graph over vertices `0..n`, stored as adjacency
/// lists. Parallel edges are allowed (algorithms treat them independently);
/// self-loops are rejected.
///
/// # Example
/// ```
/// use sag_graph::Graph;
/// let mut g = Graph::new(3);
/// g.add_edge(0, 1, 2.5);
/// assert_eq!(g.degree(0), 1);
/// assert_eq!(g.neighbors(1).count(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Graph {
    adj: Vec<Vec<(usize, f64)>>,
    edges: Vec<Edge>,
}

impl Graph {
    /// Creates a graph with `n` vertices and no edges.
    pub fn new(n: usize) -> Self {
        Graph {
            adj: vec![Vec::new(); n],
            edges: Vec::new(),
        }
    }

    /// Number of vertices.
    pub fn vertex_count(&self) -> usize {
        self.adj.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Returns `true` if the graph has no vertices.
    pub fn is_empty(&self) -> bool {
        self.adj.is_empty()
    }

    /// Adds an undirected edge.
    ///
    /// # Panics
    /// Panics if either endpoint is out of range, `u == v`, or the weight
    /// is not finite.
    pub fn add_edge(&mut self, u: usize, v: usize, weight: f64) {
        let n = self.adj.len();
        assert!(
            u < n && v < n,
            "edge ({u},{v}) out of range for {n} vertices"
        );
        assert!(u != v, "self-loops are not allowed (vertex {u})");
        assert!(
            weight.is_finite(),
            "edge weight must be finite, got {weight}"
        );
        self.adj[u].push((v, weight));
        self.adj[v].push((u, weight));
        self.edges.push(Edge { u, v, weight });
    }

    /// Degree of vertex `u`.
    ///
    /// # Panics
    /// Panics if `u` is out of range.
    pub fn degree(&self, u: usize) -> usize {
        self.adj[u].len()
    }

    /// Iterator over `(neighbor, weight)` pairs of vertex `u`.
    ///
    /// # Panics
    /// Panics if `u` is out of range.
    pub fn neighbors(&self, u: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.adj[u].iter().copied()
    }

    /// All edges in insertion order.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Builds a complete graph over `n` vertices with weights from `w`.
    ///
    /// `w(i, j)` is called once per unordered pair with `i < j`. This is
    /// how MBMC's Step 1 ("construct a complete graph over the coverage
    /// RSs") is realised.
    pub fn complete(n: usize, mut w: impl FnMut(usize, usize) -> f64) -> Self {
        let mut g = Graph::new(n);
        for i in 0..n {
            for j in i + 1..n {
                g.add_edge(i, j, w(i, j));
            }
        }
        g
    }

    /// Total weight of all edges.
    pub fn total_weight(&self) -> f64 {
        self.edges.iter().map(|e| e.weight).sum()
    }
}

impl fmt::Display for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Graph(V={}, E={})",
            self.vertex_count(),
            self.edge_count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_query() {
        let mut g = Graph::new(3);
        g.add_edge(0, 1, 1.0);
        g.add_edge(1, 2, 2.0);
        assert_eq!(g.vertex_count(), 3);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.degree(0), 1);
        let nb: Vec<_> = g.neighbors(1).collect();
        assert!(nb.contains(&(0, 1.0)) && nb.contains(&(2, 2.0)));
        assert!((g.total_weight() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn complete_graph_edge_count() {
        let g = Graph::complete(5, |i, j| (i + j) as f64);
        assert_eq!(g.edge_count(), 10);
        assert_eq!(g.degree(0), 4);
    }

    #[test]
    fn parallel_edges_allowed() {
        let mut g = Graph::new(2);
        g.add_edge(0, 1, 1.0);
        g.add_edge(0, 1, 2.0);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.degree(0), 2);
    }

    #[test]
    #[should_panic]
    fn self_loop_panics() {
        Graph::new(2).add_edge(1, 1, 1.0);
    }

    #[test]
    #[should_panic]
    fn out_of_range_panics() {
        Graph::new(2).add_edge(0, 2, 1.0);
    }

    #[test]
    #[should_panic]
    fn non_finite_weight_panics() {
        Graph::new(2).add_edge(0, 1, f64::NAN);
    }

    #[test]
    fn display_nonempty() {
        assert!(!format!("{}", Graph::new(0)).is_empty());
    }
}
