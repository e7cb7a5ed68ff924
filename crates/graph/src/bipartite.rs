//! Bipartite graphs and greedy degree-peeling (the shape of *Coverage
//! Link Escape*, Algorithm 3).
//!
//! Algorithm 3 builds a bipartite graph between subscribers (side A) and
//! the hitting-set relay positions (side B), then repeatedly commits the
//! highest-degree B-point and deletes competing edges so that as many
//! subscribers as possible end up in *one-on-one* coverage. The generic
//! peeling loop lives here; the SNR-aware wrapper lives in `sag-core`.

/// A bipartite graph between `left` vertices `0..n_left` and `right`
/// vertices `0..n_right`.
///
/// # Example
/// ```
/// use sag_graph::BipartiteGraph;
/// let mut g = BipartiteGraph::new(2, 2);
/// g.add_edge(0, 0);
/// g.add_edge(1, 0);
/// g.add_edge(1, 1);
/// assert_eq!(g.escape_assignment(), vec![Some(0), Some(0)]);
/// ```
#[derive(Debug, Clone)]
pub struct BipartiteGraph {
    n_left: usize,
    n_right: usize,
    adj_left: Vec<Vec<usize>>,
    adj_right: Vec<Vec<usize>>,
}

impl BipartiteGraph {
    /// Creates an empty bipartite graph with the given side sizes.
    pub fn new(n_left: usize, n_right: usize) -> Self {
        BipartiteGraph {
            n_left,
            n_right,
            adj_left: vec![Vec::new(); n_left],
            adj_right: vec![Vec::new(); n_right],
        }
    }

    /// Number of left vertices.
    pub fn n_left(&self) -> usize {
        self.n_left
    }

    /// Number of right vertices.
    pub fn n_right(&self) -> usize {
        self.n_right
    }

    /// Adds an edge between left vertex `l` and right vertex `r`.
    /// Duplicate edges are ignored.
    ///
    /// # Panics
    /// Panics if either endpoint is out of range.
    pub fn add_edge(&mut self, l: usize, r: usize) {
        assert!(l < self.n_left, "left vertex {l} out of range");
        assert!(r < self.n_right, "right vertex {r} out of range");
        if !self.adj_left[l].contains(&r) {
            self.adj_left[l].push(r);
            self.adj_right[r].push(l);
        }
    }

    /// Neighbours (right side) of left vertex `l`.
    pub fn neighbors_of_left(&self, l: usize) -> &[usize] {
        &self.adj_left[l]
    }

    /// Neighbours (left side) of right vertex `r`.
    pub fn neighbors_of_right(&self, r: usize) -> &[usize] {
        &self.adj_right[r]
    }

    /// Total number of edges.
    pub fn edge_count(&self) -> usize {
        self.adj_left.iter().map(Vec::len).sum()
    }

    /// The degree-peeling assignment of *Coverage Link Escape*
    /// (Algorithm 3, Steps 3–5), generic over the bipartite structure.
    ///
    /// Processes right-side points in decreasing degree: when a point `p`
    /// with `k` current edges is committed, its edges are *marked* (its
    /// subscribers are assigned to it) and every other unmarked edge of
    /// those subscribers is deleted, so no subscriber is double-assigned.
    ///
    /// Returns `assignment[l] = Some(r)` for each left vertex; a left
    /// vertex with no edges maps to `None`.
    pub fn escape_assignment(&self) -> Vec<Option<usize>> {
        let mut assignment = vec![None; self.n_left];
        let mut right_alive: Vec<std::collections::BTreeSet<usize>> = self
            .adj_right
            .iter()
            .map(|v| v.iter().copied().collect())
            .collect();
        let mut left_alive: Vec<std::collections::BTreeSet<usize>> = self
            .adj_left
            .iter()
            .map(|v| v.iter().copied().collect())
            .collect();
        let mut committed = vec![false; self.n_right];
        let nmax = right_alive.iter().map(|s| s.len()).max().unwrap_or(0);
        // Step 5: for n from nmax down to 1, commit unmarked points with
        // exactly n live edges.
        for n in (1..=nmax).rev() {
            while let Some(p) =
                (0..self.n_right).find(|&r| !committed[r] && right_alive[r].len() == n)
            {
                committed[p] = true;
                let assigned: Vec<usize> = right_alive[p].iter().copied().collect();
                for &l in &assigned {
                    assignment[l] = Some(p);
                    // Delete all other unmarked edges of l.
                    let others: Vec<usize> = left_alive[l].iter().copied().collect();
                    for r in others {
                        if r != p {
                            right_alive[r].remove(&l);
                            left_alive[l].remove(&r);
                        }
                    }
                }
            }
        }
        assignment
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sag_testkit::prelude::*;

    #[test]
    fn duplicate_edges_ignored() {
        let mut g = BipartiteGraph::new(1, 1);
        g.add_edge(0, 0);
        g.add_edge(0, 0);
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn escape_assigns_every_covered_left() {
        let mut g = BipartiteGraph::new(4, 3);
        g.add_edge(0, 0);
        g.add_edge(1, 0);
        g.add_edge(1, 1);
        g.add_edge(2, 1);
        g.add_edge(3, 2);
        let a = g.escape_assignment();
        for (l, asg) in a.iter().enumerate() {
            let r = asg.expect("covered left must be assigned");
            assert!(g.neighbors_of_left(l).contains(&r));
        }
    }

    #[test]
    fn escape_prefers_high_degree_point() {
        // Point 0 covers {0,1,2}; point 1 covers {2}. The peeling commits
        // point 0 first, so subscriber 2 goes to point 0 and point 1 ends
        // up unused.
        let mut g = BipartiteGraph::new(3, 2);
        g.add_edge(0, 0);
        g.add_edge(1, 0);
        g.add_edge(2, 0);
        g.add_edge(2, 1);
        let a = g.escape_assignment();
        assert_eq!(a, vec![Some(0), Some(0), Some(0)]);
    }

    #[test]
    fn escape_uncovered_left_is_none() {
        let g = BipartiteGraph::new(2, 1);
        assert_eq!(g.edge_count(), 0);
        let a = g.escape_assignment();
        assert_eq!(a, vec![None, None]);
    }

    prop! {
        fn prop_escape_assignment_valid(seed in 0u64..500, nl in 1usize..12, nr in 1usize..12) {
            let mut rng = Rng::seed_from_u64(seed);
            let mut g = BipartiteGraph::new(nl, nr);
            for l in 0..nl {
                for r in 0..nr {
                    if rng.gen_bool(0.4) {
                        g.add_edge(l, r);
                    }
                }
            }
            let a = g.escape_assignment();
            for (l, asg) in a.iter().enumerate() {
                match asg {
                    Some(r) => prop_assert!(g.neighbors_of_left(l).contains(r)),
                    None => prop_assert!(g.neighbors_of_left(l).is_empty(),
                        "left {} has edges but no assignment", l),
                }
            }
        }
    }
}
