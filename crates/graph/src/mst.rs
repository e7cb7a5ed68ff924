//! Minimum spanning trees: Kruskal and Prim.
//!
//! Algorithm 7 (MBMC) finds an MST of the coverage-relay graph with the
//! base station as root and then steinerizes long edges. Two independent
//! implementations are provided; property tests assert they agree on total
//! weight, which guards both.

use crate::graph::{Edge, Graph};
use crate::unionfind::UnionFind;

/// A spanning tree: its edges and total weight.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanningTree {
    /// Tree edges (|V| − 1 of them for a connected input).
    pub edges: Vec<Edge>,
    /// Sum of edge weights.
    pub total_weight: f64,
}

/// Computes an MST with Kruskal's algorithm.
///
/// Returns `None` if the graph is disconnected (or has no vertices).
/// A single-vertex graph yields an empty tree.
///
/// # Example
/// ```
/// use sag_graph::{Graph, mst::kruskal};
/// let mut g = Graph::new(3);
/// g.add_edge(0, 1, 1.0);
/// g.add_edge(1, 2, 5.0);
/// g.add_edge(0, 2, 2.0);
/// let t = kruskal(&g).unwrap();
/// assert!((t.total_weight - 3.0).abs() < 1e-12);
/// ```
pub fn kruskal(g: &Graph) -> Option<SpanningTree> {
    let n = g.vertex_count();
    if n == 0 {
        return None;
    }
    let mut edges: Vec<Edge> = g.edges().to_vec();
    edges.sort_by(|a, b| a.weight.partial_cmp(&b.weight).expect("finite weights"));
    let mut uf = UnionFind::new(n);
    let mut tree = Vec::with_capacity(n.saturating_sub(1));
    let mut total = 0.0;
    for e in edges {
        if uf.union(e.u, e.v) {
            total += e.weight;
            tree.push(e);
            if tree.len() == n - 1 {
                break;
            }
        }
    }
    (tree.len() == n - 1).then_some(SpanningTree {
        edges: tree,
        total_weight: total,
    })
}

/// Computes an MST with Prim's algorithm starting from vertex `root`.
///
/// Returns `None` if the graph is disconnected or `root` out of range.
///
/// The returned edges are oriented parent→child from the root outward
/// (`u` is the parent side) and listed in the order their child joined
/// the tree, so every edge's `u` is the root or the `v` of an earlier
/// edge. MBMC reads its rooted tree straight from that order: parents
/// forward, subtree minima in reverse.
pub fn prim(g: &Graph, root: usize) -> Option<SpanningTree> {
    let n = g.vertex_count();
    if root >= n {
        return None;
    }
    let mut in_tree = vec![false; n];
    // best[v] = (weight, parent) of the cheapest edge connecting v to the tree.
    let mut best: Vec<Option<(f64, usize)>> = vec![None; n];
    let mut heap = std::collections::BinaryHeap::new();

    // Min-heap via Reverse on an ordered wrapper.
    #[derive(PartialEq)]
    struct Item(f64, usize, usize); // weight, vertex, parent
    impl Eq for Item {}
    impl PartialOrd for Item {
        fn partial_cmp(&self, o: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(o))
        }
    }
    impl Ord for Item {
        fn cmp(&self, o: &Self) -> std::cmp::Ordering {
            // Reversed for min-heap behaviour.
            o.0.partial_cmp(&self.0).expect("finite weights")
        }
    }

    heap.push(Item(0.0, root, root));
    let mut tree = Vec::with_capacity(n.saturating_sub(1));
    let mut total = 0.0;
    while let Some(Item(w, v, parent)) = heap.pop() {
        if in_tree[v] {
            continue;
        }
        in_tree[v] = true;
        if v != root {
            total += w;
            tree.push(Edge {
                u: parent,
                v,
                weight: w,
            });
        }
        for (nb, nw) in g.neighbors(v) {
            if !in_tree[nb] {
                let better = match best[nb] {
                    None => true,
                    Some((bw, _)) => nw < bw,
                };
                if better {
                    best[nb] = Some((nw, v));
                    heap.push(Item(nw, nb, v));
                }
            }
        }
    }
    (tree.len() == n - 1).then_some(SpanningTree {
        edges: tree,
        total_weight: total,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sag_testkit::prelude::*;

    fn diamond() -> Graph {
        let mut g = Graph::new(4);
        g.add_edge(0, 1, 1.0);
        g.add_edge(1, 2, 2.0);
        g.add_edge(2, 3, 1.5);
        g.add_edge(0, 3, 10.0);
        g.add_edge(0, 2, 2.5);
        g
    }

    #[test]
    fn kruskal_known_tree() {
        let t = kruskal(&diamond()).unwrap();
        assert_eq!(t.edges.len(), 3);
        assert!((t.total_weight - 4.5).abs() < 1e-12);
    }

    #[test]
    fn prim_matches_kruskal() {
        let g = diamond();
        let k = kruskal(&g).unwrap();
        for root in 0..4 {
            let p = prim(&g, root).unwrap();
            assert!((p.total_weight - k.total_weight).abs() < 1e-12);
            assert_eq!(p.edges.len(), 3);
        }
    }

    #[test]
    fn disconnected_returns_none() {
        let mut g = Graph::new(4);
        g.add_edge(0, 1, 1.0);
        g.add_edge(2, 3, 1.0);
        assert!(kruskal(&g).is_none());
        assert!(prim(&g, 0).is_none());
    }

    #[test]
    fn single_vertex_empty_tree() {
        let g = Graph::new(1);
        let t = kruskal(&g).unwrap();
        assert!(t.edges.is_empty());
        assert_eq!(t.total_weight, 0.0);
        let t = prim(&g, 0).unwrap();
        assert!(t.edges.is_empty());
    }

    #[test]
    fn empty_graph_none() {
        assert!(kruskal(&Graph::new(0)).is_none());
        assert!(prim(&Graph::new(0), 0).is_none());
    }

    #[test]
    fn prim_edges_oriented_from_root() {
        let mut g = Graph::new(3);
        g.add_edge(0, 1, 1.0);
        g.add_edge(1, 2, 1.0);
        let t = prim(&g, 0).unwrap();
        // Parent side u is always the already-connected vertex.
        assert_eq!(t.edges[0].u, 0);
        assert_eq!(t.edges[0].v, 1);
        assert_eq!(t.edges[1].u, 1);
        assert_eq!(t.edges[1].v, 2);
    }

    prop! {
        fn prop_prim_equals_kruskal(n in 2usize..30, seed in 0u64..500) {
            let mut rng = Rng::seed_from_u64(seed);
            // Random connected graph: a random spanning chain + extras.
            let mut g = Graph::new(n);
            for v in 1..n {
                let u = rng.gen_range(0..v);
                g.add_edge(u, v, rng.gen_range(0.1..100.0));
            }
            for _ in 0..n {
                let u = rng.gen_range(0..n);
                let v = rng.gen_range(0..n);
                if u != v {
                    g.add_edge(u, v, rng.gen_range(0.1..100.0));
                }
            }
            let k = kruskal(&g).unwrap();
            let root = rng.gen_range(0..n);
            let p = prim(&g, root).unwrap();
            prop_assert!((k.total_weight - p.total_weight).abs() < 1e-6);
            prop_assert_eq!(k.edges.len(), n - 1);
            prop_assert_eq!(p.edges.len(), n - 1);
            // Join order: each edge's parent is the root or an earlier
            // edge's child, and every vertex joins once.
            let mut joined = vec![false; n];
            joined[root] = true;
            for e in &p.edges {
                prop_assert!(joined[e.u] && !joined[e.v], "edge {}→{} out of order", e.u, e.v);
                joined[e.v] = true;
            }
        }

        fn prop_tree_spans_all_vertices(n in 2usize..25, seed in 0u64..300) {
            let mut rng = Rng::seed_from_u64(seed);
            let mut g = Graph::new(n);
            for v in 1..n {
                let u = rng.gen_range(0..v);
                g.add_edge(u, v, rng.gen_range(0.1..10.0));
            }
            let t = kruskal(&g).unwrap();
            let mut uf = crate::UnionFind::new(n);
            for e in &t.edges {
                uf.union(e.u, e.v);
            }
            prop_assert_eq!(uf.set_count(), 1);
        }
    }
}
