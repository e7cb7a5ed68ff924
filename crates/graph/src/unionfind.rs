//! Disjoint-set forest with path compression and union by rank.

/// A union-find (disjoint set) structure over `0..n`.
///
/// # Example
/// ```
/// use sag_graph::UnionFind;
/// let mut uf = UnionFind::new(4);
/// uf.union(0, 1);
/// uf.union(2, 3);
/// assert!(uf.connected(0, 1));
/// assert!(!uf.connected(1, 2));
/// assert_eq!(uf.set_count(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct UnionFind {
    parent: Vec<usize>,
    rank: Vec<u8>,
    sets: usize,
}

impl UnionFind {
    /// Creates `n` singleton sets.
    pub fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n).collect(),
            rank: vec![0; n],
            sets: n,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Returns `true` for the empty structure.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Number of disjoint sets currently represented.
    pub fn set_count(&self) -> usize {
        self.sets
    }

    /// Representative of `x`'s set, with path compression.
    ///
    /// # Panics
    /// Panics if `x` is out of range.
    pub fn find(&mut self, x: usize) -> usize {
        assert!(x < self.parent.len(), "element {x} out of range");
        let mut root = x;
        while self.parent[root] != root {
            root = self.parent[root];
        }
        let mut cur = x;
        while self.parent[cur] != root {
            let next = self.parent[cur];
            self.parent[cur] = root;
            cur = next;
        }
        root
    }

    /// Merges the sets of `a` and `b`; returns `true` if they were
    /// previously disjoint.
    ///
    /// # Panics
    /// Panics if `a` or `b` is out of range.
    pub fn union(&mut self, a: usize, b: usize) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        let (hi, lo) = if self.rank[ra] >= self.rank[rb] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[lo] = hi;
        if self.rank[hi] == self.rank[lo] {
            self.rank[hi] += 1;
        }
        self.sets -= 1;
        true
    }

    /// Returns `true` if `a` and `b` are in the same set.
    pub fn connected(&mut self, a: usize, b: usize) -> bool {
        self.find(a) == self.find(b)
    }

    /// Groups all elements by representative; each inner vector is one set
    /// (ascending element order, sets ordered by smallest element).
    pub fn sets(&mut self) -> Vec<Vec<usize>> {
        let n = self.parent.len();
        // A set is opened by its smallest element, the first one met.
        let mut set_of_root = vec![usize::MAX; n];
        let mut out: Vec<Vec<usize>> = Vec::with_capacity(self.sets);
        for x in 0..n {
            let r = self.find(x);
            if set_of_root[r] == usize::MAX {
                set_of_root[r] = out.len();
                out.push(Vec::new());
            }
            out[set_of_root[r]].push(x);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sag_testkit::prelude::*;

    #[test]
    fn singletons() {
        let mut uf = UnionFind::new(3);
        assert_eq!(uf.set_count(), 3);
        assert_eq!(uf.len(), 3);
        assert!(!uf.is_empty());
        for i in 0..3 {
            assert_eq!(uf.find(i), i);
        }
    }

    #[test]
    fn union_merges_and_counts() {
        let mut uf = UnionFind::new(5);
        assert!(uf.union(0, 1));
        assert!(!uf.union(1, 0));
        assert!(uf.union(2, 3));
        assert!(uf.union(0, 2));
        assert_eq!(uf.set_count(), 2);
        assert!(uf.connected(1, 3));
        assert!(!uf.connected(0, 4));
    }

    #[test]
    fn sets_grouping() {
        let mut uf = UnionFind::new(6);
        uf.union(0, 2);
        uf.union(2, 4);
        uf.union(1, 5);
        let sets = uf.sets();
        assert_eq!(sets, vec![vec![0, 2, 4], vec![1, 5], vec![3]]);
    }

    #[test]
    fn empty_structure() {
        let mut uf = UnionFind::new(0);
        assert!(uf.is_empty());
        assert_eq!(uf.set_count(), 0);
        assert!(uf.sets().is_empty());
    }

    #[test]
    #[should_panic]
    fn out_of_range_panics() {
        UnionFind::new(2).find(2);
    }

    prop! {
        fn prop_set_count_invariant(n in 1usize..40, ops in vec_of((0usize..40, 0usize..40), 0..80)) {
            let mut uf = UnionFind::new(n);
            let mut merges = 0usize;
            for (a, b) in ops {
                let (a, b) = (a % n, b % n);
                if uf.union(a, b) {
                    merges += 1;
                }
            }
            prop_assert_eq!(uf.set_count(), n - merges);
            let total: usize = uf.sets().iter().map(Vec::len).sum();
            prop_assert_eq!(total, n);
        }

        fn prop_connectivity_transitive(n in 3usize..30, seed in 0usize..1000) {
            let mut uf = UnionFind::new(n);
            let a = seed % n;
            let b = (seed / 7) % n;
            let c = (seed / 49) % n;
            uf.union(a, b);
            uf.union(b, c);
            prop_assert!(uf.connected(a, c));
        }
    }
}
