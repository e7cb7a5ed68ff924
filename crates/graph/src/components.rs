//! Connected components.
//!
//! The all-pairs Zone Partition (Algorithm 2) referee in
//! `sag_core::reference` builds a graph over subscribers whose effective
//! interference distance is below `d_max` and takes its connected
//! components as zones; this module supplies that step.

use crate::graph::Graph;

/// Connected components of `g`, each a sorted vertex list; components are
/// ordered by their smallest vertex.
///
/// # Example
/// ```
/// use sag_graph::{components::connected_components, Graph};
/// let mut g = Graph::new(5);
/// g.add_edge(0, 1, 1.0);
/// g.add_edge(3, 4, 1.0);
/// let cc = connected_components(&g);
/// assert_eq!(cc, vec![vec![0, 1], vec![2], vec![3, 4]]);
/// ```
pub fn connected_components(g: &Graph) -> Vec<Vec<usize>> {
    let n = g.vertex_count();
    let mut seen = vec![false; n];
    let mut out = Vec::new();
    for start in 0..n {
        if seen[start] {
            continue;
        }
        let mut comp = Vec::new();
        let mut stack = vec![start];
        seen[start] = true;
        while let Some(v) = stack.pop() {
            comp.push(v);
            for (nb, _) in g.neighbors(v) {
                if !seen[nb] {
                    seen[nb] = true;
                    stack.push(nb);
                }
            }
        }
        comp.sort_unstable();
        out.push(comp);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_islands() -> Graph {
        let mut g = Graph::new(6);
        g.add_edge(0, 1, 1.0);
        g.add_edge(1, 2, 1.0);
        g.add_edge(4, 5, 1.0);
        g
    }

    #[test]
    fn components_found() {
        let cc = connected_components(&two_islands());
        assert_eq!(cc, vec![vec![0, 1, 2], vec![3], vec![4, 5]]);
    }

    #[test]
    fn empty_graph() {
        assert!(connected_components(&Graph::new(0)).is_empty());
    }
}
