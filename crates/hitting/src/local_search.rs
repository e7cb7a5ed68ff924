//! Mustafa–Ray-style local search for geometric hitting set.
//!
//! Mustafa & Ray (SCG'09) proved that `b`-swap local search on hitting
//! sets of pseudo-disks is a PTAS: for swap size `b = O(1/ε²)` the local
//! optimum is within `(1+ε)` of the minimum. The paper's SAMC adopts that
//! PTAS for Step 4. This implementation starts from the greedy solution
//! and applies swaps of size up to `b` (replace `k ≤ b` chosen points by
//! `k − 1` candidates) until no swap improves — the canonical form of the
//! algorithm.

use crate::greedy::greedy_hitting_set_indices;
use crate::instance::DiskInstance;
use sag_geom::Point;

/// Configuration for the local search.
#[derive(Debug, Clone, Copy)]
pub struct LocalSearchConfig {
    /// Maximum swap size `b` (remove up to `b`, insert up to `b − 1`).
    /// The PTAS guarantee improves with `b`; runtime grows as
    /// `n^{O(b)}`. `b = 2` or `3` is the practical sweet spot.
    pub swap_size: usize,
    /// Hard cap on improvement rounds (safety valve; the search strictly
    /// shrinks the solution each round so it terminates on its own).
    pub max_rounds: usize,
}

impl Default for LocalSearchConfig {
    fn default() -> Self {
        LocalSearchConfig {
            swap_size: 3,
            max_rounds: 64,
        }
    }
}

/// Local-search hitting set with the default configuration.
///
/// # Example
/// ```
/// use sag_geom::{Circle, Point};
/// use sag_hitting::{local_search::local_search_hitting_set, DiskInstance};
/// let inst = DiskInstance::new(vec![
///     Circle::new(Point::new(0.0, 0.0), 2.0),
///     Circle::new(Point::new(1.0, 0.0), 2.0),
/// ]);
/// let hs = local_search_hitting_set(&inst);
/// assert!(inst.is_hitting_set(&hs));
/// ```
pub fn local_search_hitting_set(inst: &DiskInstance) -> Vec<Point> {
    local_search_with(inst, LocalSearchConfig::default())
        .into_iter()
        .map(|c| inst.candidates()[c])
        .collect()
}

/// Local-search hitting set with explicit configuration; returns candidate
/// indices.
///
/// Returns exactly what [`crate::reference::local_search_with`] returns
/// for the same `config`: the same removal sets are tried in the same
/// order and the first improving swap wins, only each one is evaluated
/// from the disks its removed points touch instead of over the whole
/// solution.
///
/// # Panics
/// Panics if `config.swap_size == 0`.
pub fn local_search_with(inst: &DiskInstance, config: LocalSearchConfig) -> Vec<usize> {
    assert!(config.swap_size >= 1, "swap size must be ≥ 1");
    let mut current = greedy_hitting_set_indices(inst);
    let mut search = SwapSearch::new(inst, config.swap_size);
    for _ in 0..config.max_rounds {
        match search.improve_once(&current) {
            Some(next) => current = next,
            None => break,
        }
    }
    current
}

/// Swap evaluation state: lookup tables built once per search, buffers
/// rebuilt once per round.
struct SwapSearch<'a> {
    tables: Tables<'a>,
    /// Maximum swap size `b`.
    b: usize,
    /// `count[d]`: chosen points hitting disk `d`.
    count: Vec<u32>,
    /// `owner[d]`: position of the chosen point hitting `d`, meaningful
    /// when `count[d] == 1` (then `d` is that point's private disk).
    owner: Vec<usize>,
    /// `link[i * s + j]`: some candidate hits a private disk of chosen
    /// point `i` and one of chosen point `j`.
    link: Vec<bool>,
    /// Owners of the private disks one candidate hits (reused buffer).
    owners: Vec<usize>,
    /// Cover-search bitsets: level 0 holds the disks a removal leaves
    /// unhit, level `j + 1` what the first `j + 1` picks leave.
    levels: Vec<u64>,
    /// Candidates the cover search picked, innermost first.
    picks: Vec<usize>,
}

impl<'a> SwapSearch<'a> {
    fn new(inst: &'a DiskInstance, b: usize) -> Self {
        SwapSearch {
            tables: Tables::new(inst),
            b,
            count: vec![0; inst.len()],
            owner: vec![0; inst.len()],
            link: Vec::new(),
            owners: Vec::new(),
            levels: Vec::new(),
            picks: Vec::new(),
        }
    }

    /// Tries one improving swap: remove `k` chosen points and re-cover
    /// the disks they exclusively hit with `k − 1` candidates. Returns
    /// the improved solution, or `None` at a local optimum.
    fn improve_once(&mut self, current: &[usize]) -> Option<Vec<usize>> {
        let inst = self.tables.inst;
        let s = current.len();
        self.count.fill(0);
        for (i, &c) in current.iter().enumerate() {
            for &d in inst.hit_by(c) {
                self.count[d] += 1;
                self.owner[d] = i;
            }
        }
        debug_assert!(
            self.count.iter().all(|&n| n > 0),
            "the solution stays a hitting set across swaps"
        );
        // k = 1: a point is redundant when every disk it hits is hit twice.
        let count = &self.count;
        if let Some(skip) = (0..s).find(|&i| inst.hit_by(current[i]).iter().all(|&d| count[d] >= 2))
        {
            return Some(without(current, &[skip]));
        }
        // From here every chosen point owns a private disk, and the k
        // private disks of a removal set need k − 1 candidates, so by
        // pigeonhole one candidate hits private disks of two removed
        // points: removal sets without such a linked pair cannot improve.
        let k_max = self.b.min(s);
        if k_max < 2 {
            return None;
        }
        self.link_private_disks(current);
        self.levels.clear();
        self.levels.resize(k_max * self.tables.words, 0);
        for k in 2..=k_max {
            let mut removal: Vec<usize> = (0..k).collect();
            loop {
                if self.has_linked_pair(&removal, s) {
                    if let Some(next) = self.try_swap(current, &removal) {
                        return Some(next);
                    }
                }
                if !next_combination(&mut removal, s) {
                    break;
                }
            }
        }
        None
    }

    /// Fills the `s × s` link matrix from the current private disks.
    fn link_private_disks(&mut self, current: &[usize]) {
        let inst = self.tables.inst;
        let s = current.len();
        self.link.clear();
        self.link.resize(s * s, false);
        for c in 0..inst.candidates().len() {
            self.owners.clear();
            for &d in inst.hit_by(c) {
                if self.count[d] == 1 && !self.owners.contains(&self.owner[d]) {
                    self.owners.push(self.owner[d]);
                }
            }
            for (a, &i) in self.owners.iter().enumerate() {
                for &j in &self.owners[a + 1..] {
                    self.link[i * s + j] = true;
                    self.link[j * s + i] = true;
                }
            }
        }
    }

    fn has_linked_pair(&self, removal: &[usize], s: usize) -> bool {
        removal
            .iter()
            .enumerate()
            .any(|(a, &i)| removal[a + 1..].iter().any(|&j| self.link[i * s + j]))
    }

    /// Evaluates one removal set: the disks it leaves unhit are those
    /// whose every hit comes from a removed point, read off the removed
    /// points' hit lists alone; then searches for `k − 1` candidates
    /// hitting them all.
    fn try_swap(&mut self, current: &[usize], removal: &[usize]) -> Option<Vec<usize>> {
        let inst = self.tables.inst;
        let words = self.tables.words;
        let unhit = &mut self.levels[..words];
        unhit.fill(0);
        for &i in removal {
            for &d in inst.hit_by(current[i]) {
                self.count[d] -= 1;
            }
        }
        for &i in removal {
            for &d in inst.hit_by(current[i]) {
                if self.count[d] == 0 {
                    unhit[d / 64] |= 1 << (d % 64);
                }
            }
        }
        for &i in removal {
            for &d in inst.hit_by(current[i]) {
                self.count[d] += 1;
            }
        }
        debug_assert!(
            unhit.iter().any(|&w| w != 0),
            "a removed point's private disk is always left unhit"
        );
        self.picks.clear();
        if !self
            .tables
            .cover(&mut self.levels, removal.len() - 1, &mut self.picks)
        {
            return None;
        }
        let mut next = without(current, removal);
        next.extend_from_slice(&self.picks);
        debug_assert!(inst.indices_hit_all(&next));
        Some(next)
    }
}

/// Per-search lookup tables over the instance's candidates and disks.
struct Tables<'a> {
    inst: &'a DiskInstance,
    /// 64-bit words per disk bitset.
    words: usize,
    /// `hit_bits[c * words..][..words]`: the disks candidate `c` hits.
    hit_bits: Vec<u64>,
    /// Inverted index: `hitters[d]` lists the candidates hitting disk
    /// `d`, ascending.
    hitters: Vec<Vec<usize>>,
}

impl<'a> Tables<'a> {
    fn new(inst: &'a DiskInstance) -> Self {
        let n_cands = inst.candidates().len();
        let words = inst.len().div_ceil(64);
        let mut hit_bits = vec![0u64; n_cands * words];
        let mut hitters = vec![Vec::new(); inst.len()];
        for c in 0..n_cands {
            for &d in inst.hit_by(c) {
                hit_bits[c * words + d / 64] |= 1 << (d % 64);
                hitters[d].push(c);
            }
        }
        Tables {
            inst,
            words,
            hit_bits,
            hitters,
        }
    }

    /// Searches for at most `limit` candidates hitting every disk in the
    /// bitset `levels[..words]`. It branches on the lowest disk left and
    /// tries the candidates hitting it in ascending order, which is the
    /// order the reference's filtered `helpful` scan tries them in, so the
    /// first cover found is the same. Picks are pushed innermost first,
    /// as the reference returns them.
    fn cover(&self, levels: &mut [u64], limit: usize, picks: &mut Vec<usize>) -> bool {
        let words = self.words;
        let (need, below) = levels.split_at_mut(words);
        let Some(d) = lowest_disk(need) else {
            return true;
        };
        if limit == 0 {
            return false;
        }
        for &c in &self.hitters[d] {
            let hits = &self.hit_bits[c * words..][..words];
            let mut left = 0;
            for ((next, &n), &h) in below[..words].iter_mut().zip(need.iter()).zip(hits) {
                *next = n & !h;
                left |= *next;
            }
            if left == 0 || (limit > 1 && self.cover(below, limit - 1, picks)) {
                picks.push(c);
                return true;
            }
        }
        false
    }
}

/// The lowest disk in a bitset, if any.
fn lowest_disk(bits: &[u64]) -> Option<usize> {
    bits.iter()
        .position(|&w| w != 0)
        .map(|i| i * 64 + bits[i].trailing_zeros() as usize)
}

/// `current` without the (ascending) positions in `removal`, in order.
fn without(current: &[usize], removal: &[usize]) -> Vec<usize> {
    current
        .iter()
        .enumerate()
        .filter_map(|(i, &c)| (!removal.contains(&i)).then_some(c))
        .collect()
}

/// Advances `r`, ascending positions in `0..n`, to the next subset of its
/// size in lexicographic order; `false` once `r` is the last.
fn next_combination(r: &mut [usize], n: usize) -> bool {
    let k = r.len();
    let Some(i) = (0..k).rev().find(|&i| r[i] < n - k + i) else {
        return false;
    };
    r[i] += 1;
    for j in i + 1..k {
        r[j] = r[j - 1] + 1;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::exact_hitting_set;
    use crate::greedy::greedy_hitting_set;
    use sag_geom::Circle;
    use sag_testkit::prelude::*;

    fn c(x: f64, y: f64, r: f64) -> Circle {
        Circle::new(Point::new(x, y), r)
    }

    #[test]
    fn next_combination_walks_subsets_in_lexicographic_order() {
        let mut r = vec![0, 1, 2];
        let mut seen = vec![r.clone()];
        while next_combination(&mut r, 5) {
            seen.push(r.clone());
        }
        assert_eq!(seen.len(), 10);
        assert!(seen.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(seen.last(), Some(&vec![2, 3, 4]));
    }

    #[test]
    fn local_search_valid_and_no_worse_than_greedy() {
        let disks: Vec<Circle> = vec![
            c(0.0, 0.0, 3.0),
            c(4.0, 0.0, 3.0),
            c(8.0, 0.0, 3.0),
            c(12.0, 0.0, 3.0),
            c(2.0, 4.0, 3.0),
        ];
        let inst = DiskInstance::new(disks);
        let g = greedy_hitting_set(&inst);
        let l = local_search_hitting_set(&inst);
        assert!(inst.is_hitting_set(&l));
        assert!(l.len() <= g.len());
    }

    #[test]
    fn single_disk() {
        let inst = DiskInstance::new(vec![c(0.0, 0.0, 1.0)]);
        assert_eq!(local_search_hitting_set(&inst).len(), 1);
    }

    #[test]
    fn redundant_point_dropped() {
        // Greedy may pick a point for a cluster then another point that
        // retroactively covers it; the k=1 drop should clean up. Build a
        // case where local search definitely equals the optimum 1.
        let inst = DiskInstance::new(vec![c(0.0, 0.0, 5.0), c(1.0, 0.0, 5.0), c(0.5, 1.0, 5.0)]);
        assert_eq!(local_search_hitting_set(&inst).len(), 1);
    }

    prop! {
        #[cases(30)]
        fn prop_local_between_exact_and_greedy(seed in 0u64..150, n in 1usize..10) {
            let mut rng = Rng::seed_from_u64(seed);
            let disks: Vec<Circle> = (0..n)
                .map(|_| c(rng.gen_range(-40.0..40.0), rng.gen_range(-40.0..40.0),
                           rng.gen_range(4.0..18.0)))
                .collect();
            let inst = DiskInstance::new(disks);
            let e = exact_hitting_set(&inst);
            let l = local_search_hitting_set(&inst);
            let g = greedy_hitting_set(&inst);
            prop_assert!(inst.is_hitting_set(&l));
            prop_assert!(e.len() <= l.len());
            prop_assert!(l.len() <= g.len());
        }
    }
}
