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
/// for the same `config`: the removal sets that can improve are tried in
/// the same order and the first improving swap wins. Only the cost
/// differs: removal sets that cannot improve are never visited, each
/// visited one is evaluated from unions kept per round instead of a
/// rescan of the solution, and cover searches that cannot succeed stop
/// early.
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

/// Swap search state: lookup tables built once per search, buffers
/// rebuilt once per round.
struct SwapSearch<'a> {
    /// Maximum swap size `b`.
    b: usize,
    eval: SwapEval<'a>,
    /// `count[d]`: chosen points hitting disk `d`.
    count: Vec<u32>,
    /// `owner[d]`: position of the chosen point hitting `d`, meaningful
    /// when `count[d] == 1` (then `d` is that point's private disk).
    owner: Vec<usize>,
    /// Owners of the private disks one candidate hits (reused buffer).
    owners: Vec<usize>,
    links: Links,
}

impl<'a> SwapSearch<'a> {
    fn new(inst: &'a DiskInstance, b: usize) -> Self {
        SwapSearch {
            b,
            eval: SwapEval {
                tables: Tables::new(inst),
                runs: Runs::default(),
                levels: Vec::new(),
                picks: Vec::new(),
            },
            count: vec![0; inst.len()],
            owner: vec![0; inst.len()],
            owners: Vec::new(),
            links: Links::default(),
        }
    }

    /// Tries one improving swap: remove `k` chosen points and re-cover
    /// the disks they exclusively hit with `k − 1` candidates. Returns
    /// the improved solution, or `None` at a local optimum.
    fn improve_once(&mut self, current: &[usize]) -> Option<Vec<usize>> {
        let inst = self.eval.tables.inst;
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
        self.link_private_disks(current, k_max);
        let eval = &mut self.eval;
        eval.start_round(current, k_max);
        let links = &mut self.links;
        let mut removal = Vec::with_capacity(k_max);
        (2..=k_max)
            .find_map(|k| links.walk(&mut removal, k, false, &mut |r| eval.try_swap(current, r)))
    }

    /// Links the solution positions whose private disks share a
    /// candidate.
    fn link_private_disks(&mut self, current: &[usize], k_max: usize) {
        let inst = self.eval.tables.inst;
        self.links.reset(current.len());
        for c in 0..inst.candidates().len() {
            self.owners.clear();
            for &d in inst.hit_by(c) {
                if self.count[d] == 1 && !self.owners.contains(&self.owner[d]) {
                    self.owners.push(self.owner[d]);
                }
            }
            for (a, &i) in self.owners.iter().enumerate() {
                for &j in &self.owners[a + 1..] {
                    self.links.link(i, j);
                }
            }
        }
        self.links.seal(k_max);
    }
}

/// What evaluating one removal set needs.
struct SwapEval<'a> {
    tables: Tables<'a>,
    runs: Runs,
    /// Cover-search bitsets: level 0 holds the disks a removal leaves
    /// unhit, level `j + 1` what the first `j + 1` picks leave.
    levels: Vec<u64>,
    /// Candidates the cover search picked, innermost first.
    picks: Vec<usize>,
}

impl SwapEval<'_> {
    /// Sizes the buffers for the solution `current`.
    fn start_round(&mut self, current: &[usize], k_max: usize) {
        let words = self.tables.words;
        self.levels.clear();
        self.levels.resize(k_max * words, 0);
        self.runs.fill(
            words,
            current
                .iter()
                .map(|&c| &self.tables.hit_bits[c * words..][..words]),
        );
    }

    /// Evaluates one removal set: the disks it leaves unhit are those
    /// its points hit and no kept point does, the kept points being the
    /// runs of positions between removed ones; then searches for `k − 1`
    /// candidates hitting them all.
    fn try_swap(&mut self, current: &[usize], removal: &[usize]) -> Option<Vec<usize>> {
        let words = self.tables.words;
        // `kept` is scratch in the level below `unhit`.
        let (unhit, rest) = self.levels.split_at_mut(words);
        let kept = &mut rest[..words];
        unhit.fill(0);
        kept.fill(0);
        let mut lo = 0;
        for &i in removal {
            let hits = &self.tables.hit_bits[current[i] * words..][..words];
            for (u, &h) in unhit.iter_mut().zip(hits) {
                *u |= h;
            }
            self.runs.or_into(lo, i, kept);
            lo = i + 1;
        }
        self.runs.or_into(lo, current.len(), kept);
        for (u, &k) in unhit.iter_mut().zip(kept.iter()) {
            *u &= !k;
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
        debug_assert!(self.tables.inst.indices_hit_all(&next));
        Some(next)
    }
}

/// Unions of bitsets over runs of consecutive positions, as a sparse
/// table: any run's union is the union of two stored ones.
#[derive(Default)]
struct Runs {
    /// Positions.
    n: usize,
    /// 64-bit words per bitset.
    words: usize,
    /// `table[(l * n + i) * words..][..words]`: the union over positions
    /// `i..i + 2^l` (cut off at `n`).
    table: Vec<u64>,
}

impl Runs {
    /// Rebuilds the table over `rows`, one bitset of `words` words per
    /// position.
    fn fill<'r>(&mut self, words: usize, rows: impl ExactSizeIterator<Item = &'r [u64]>) {
        self.n = rows.len();
        self.words = words;
        self.table.clear();
        for row in rows {
            self.table.extend_from_slice(row);
        }
        let (n, w) = (self.n, words);
        let mut half = 1;
        while 2 * half <= n {
            let below = self.table.len() - n * w;
            for i in 0..n * w {
                let far = if i + half * w < n * w {
                    self.table[below + i + half * w]
                } else {
                    0
                };
                self.table.push(self.table[below + i] | far);
            }
            half *= 2;
        }
    }

    /// ORs into `out` the union over positions `lo..hi`.
    fn or_into(&self, lo: usize, hi: usize, out: &mut [u64]) {
        if lo >= hi {
            return;
        }
        let (n, w) = (self.n, self.words);
        let l = (hi - lo).ilog2() as usize;
        let first = &self.table[(l * n + lo) * w..][..w];
        let last = &self.table[(l * n + hi - (1 << l)) * w..][..w];
        for ((o, &a), &b) in out.iter_mut().zip(first).zip(last) {
            *o |= a | b;
        }
    }
}

/// Linked pairs of solution positions (their private disks share a
/// candidate) and the walk over the removal sets that hold one.
#[derive(Default)]
struct Links {
    /// Solution positions.
    s: usize,
    /// 64-bit words per bitset over positions.
    words: usize,
    /// `rows[i * words..][..words]`: the positions linked with `i`.
    rows: Vec<u64>,
    /// `pair_from[i]`: some linked pair has both positions `≥ i`.
    pair_from: Vec<bool>,
    /// `reach[depth * words..][..words]`: the positions linked to one of
    /// the first `depth` positions of the removal set being built.
    reach: Vec<u64>,
}

impl Links {
    /// Clears to `s` positions and no link.
    fn reset(&mut self, s: usize) {
        self.s = s;
        self.words = s.div_ceil(64);
        self.rows.clear();
        self.rows.resize(s * self.words, 0);
    }

    fn link(&mut self, i: usize, j: usize) {
        let w = self.words;
        set_bit(&mut self.rows[i * w..][..w], j);
        set_bit(&mut self.rows[j * w..][..w], i);
    }

    /// Derives the walk's tables once every link is in, for removal sets
    /// of up to `k_max` positions.
    fn seal(&mut self, k_max: usize) {
        let (s, w) = (self.s, self.words);
        self.pair_from.clear();
        self.pair_from.resize(s + 1, false);
        for i in (0..s).rev() {
            self.pair_from[i] = self.pair_from[i + 1] || any_above(&self.rows[i * w..][..w], i);
        }
        self.reach.clear();
        self.reach.resize(k_max * w, 0);
    }

    /// Visits, in lexicographic order, every removal set of `k`
    /// positions that extends `removal` (ascending) and holds a linked
    /// pair; `linked` says whether `removal` already holds one. Stops at
    /// the first visit that returns `Some`.
    ///
    /// A position is appended only when some completion of the set is
    /// linked: `removal` is, or the new position links to it, or a later
    /// position links to the extended set, or, with at least two
    /// positions still to come, a linked pair lies wholly after it. So
    /// every branch reaches a visited set, and the sets are visited in
    /// the order a walk over all `k`-subsets meets them.
    fn walk<T>(
        &mut self,
        removal: &mut Vec<usize>,
        k: usize,
        linked: bool,
        visit: &mut impl FnMut(&[usize]) -> Option<T>,
    ) -> Option<T> {
        let w = self.words;
        let depth = removal.len();
        // Positions still to choose, the next one included.
        let left = k - depth;
        let first = removal.last().map_or(0, |&r| r + 1);
        for i in first..=self.s - left {
            let reach = &self.reach[depth * w..][..w];
            let row = &self.rows[i * w..][..w];
            let now_linked = linked || bit(reach, i);
            let later_link = || {
                (0..w).any(|x| (reach[x] | row[x]) & above_mask(x, i) != 0)
                    || left >= 3 && self.pair_from[i + 1]
            };
            if !now_linked && (left == 1 || !later_link()) {
                continue;
            }
            removal.push(i);
            let found = if left == 1 {
                visit(removal)
            } else {
                let (done, next) = self.reach.split_at_mut((depth + 1) * w);
                let row = &self.rows[i * w..][..w];
                for ((n, &r), &l) in next[..w].iter_mut().zip(&done[depth * w..]).zip(row) {
                    *n = r | l;
                }
                self.walk(removal, k, now_linked, visit)
            };
            removal.pop();
            if found.is_some() {
                return found;
            }
        }
        None
    }
}

/// Per-search lookup tables over the instance's candidates and disks.
struct Tables<'a> {
    inst: &'a DiskInstance,
    /// 64-bit words per disk bitset.
    words: usize,
    /// `hit_bits[c * words..][..words]`: the disks candidate `c` hits.
    hit_bits: Vec<u64>,
    /// 64-bit words per candidate bitset.
    cand_words: usize,
    /// `hitter_bits[d * cand_words..][..cand_words]`: the candidates
    /// hitting disk `d`.
    hitter_bits: Vec<u64>,
    /// `shared[d * words..][..words]`: the disks some candidate hits
    /// together with disk `d`, `d` included.
    shared: Vec<u64>,
}

impl<'a> Tables<'a> {
    fn new(inst: &'a DiskInstance) -> Self {
        let n_cands = inst.candidates().len();
        let words = inst.len().div_ceil(64);
        let cand_words = n_cands.div_ceil(64);
        let mut hit_bits = vec![0u64; n_cands * words];
        let mut hitter_bits = vec![0u64; inst.len() * cand_words];
        for c in 0..n_cands {
            for &d in inst.hit_by(c) {
                set_bit(&mut hit_bits[c * words..][..words], d);
                set_bit(&mut hitter_bits[d * cand_words..][..cand_words], c);
            }
        }
        let mut shared = vec![0u64; inst.len() * words];
        for d in 0..inst.len() {
            let row = &mut shared[d * words..][..words];
            for &c in inst.hitters(d) {
                for (s, &h) in row.iter_mut().zip(&hit_bits[c * words..][..words]) {
                    *s |= h;
                }
            }
        }
        Tables {
            inst,
            words,
            hit_bits,
            cand_words,
            hitter_bits,
            shared,
        }
    }

    /// Searches for at most `limit` candidates hitting every disk in the
    /// bitset `levels[..words]`. It branches on the lowest disk left and
    /// tries the candidates hitting it in ascending order, which is the
    /// order the reference's filtered `helpful` scan tries them in, so the
    /// first cover found is the same. Picks are pushed innermost first,
    /// as the reference returns them.
    ///
    /// Two prunes reject only searches that cannot succeed, so the first
    /// cover found stays the same: a packing of `limit + 1` disks no
    /// candidate hits two of needs `limit + 1` candidates, and one
    /// candidate hitting every disk left is the lowest index in the
    /// intersection of their hitter sets.
    fn cover(&self, levels: &mut [u64], limit: usize, picks: &mut Vec<usize>) -> bool {
        let words = self.words;
        let (need, below) = levels.split_at_mut(words);
        let Some(d) = lowest_bit(need) else {
            return true;
        };
        if limit == 0 || self.packs_past(need, limit, &mut below[..words]) {
            return false;
        }
        if limit == 1 {
            return match self.sole_cover(need) {
                Some(c) => {
                    picks.push(c);
                    true
                }
                None => false,
            };
        }
        for &c in self.inst.hitters(d) {
            let hits = &self.hit_bits[c * words..][..words];
            let mut left = 0;
            for ((next, &n), &h) in below[..words].iter_mut().zip(need.iter()).zip(hits) {
                *next = n & !h;
                left |= *next;
            }
            if left == 0 || self.cover(below, limit - 1, picks) {
                picks.push(c);
                return true;
            }
        }
        false
    }

    /// Whether `need` holds `limit + 1` disks no candidate hits two of,
    /// picked greedily lowest first; `free` is scratch.
    fn packs_past(&self, need: &[u64], limit: usize, free: &mut [u64]) -> bool {
        let words = self.words;
        free.copy_from_slice(need);
        for _ in 0..=limit {
            let Some(d) = lowest_bit(free) else {
                return false;
            };
            for (f, &s) in free.iter_mut().zip(&self.shared[d * words..][..words]) {
                *f &= !s;
            }
        }
        true
    }

    /// The lowest-index candidate hitting every disk in `need`, if any.
    fn sole_cover(&self, need: &[u64]) -> Option<usize> {
        let cw = self.cand_words;
        (0..cw).find_map(|x| {
            let mut common = !0u64;
            for (y, &word) in need.iter().enumerate() {
                let mut rest = word;
                while rest != 0 && common != 0 {
                    let d = y * 64 + rest.trailing_zeros() as usize;
                    common &= self.hitter_bits[d * cw + x];
                    rest &= rest - 1;
                }
            }
            (common != 0).then(|| x * 64 + common.trailing_zeros() as usize)
        })
    }
}

/// The lowest set bit of a bitset, if any.
fn lowest_bit(bits: &[u64]) -> Option<usize> {
    bits.iter()
        .position(|&w| w != 0)
        .map(|i| i * 64 + bits[i].trailing_zeros() as usize)
}

fn bit(bits: &[u64], i: usize) -> bool {
    bits[i / 64] >> (i % 64) & 1 == 1
}

fn set_bit(bits: &mut [u64], i: usize) {
    bits[i / 64] |= 1 << (i % 64);
}

/// The bits of word `x` of a bitset that stand for indices above `i`.
fn above_mask(x: usize, i: usize) -> u64 {
    let first = i + 1;
    if x * 64 >= first {
        !0
    } else if (x + 1) * 64 <= first {
        0
    } else {
        !0 << (first % 64)
    }
}

/// Whether the bitset has a bit above `i`.
fn any_above(bits: &[u64], i: usize) -> bool {
    bits.iter()
        .enumerate()
        .any(|(x, &word)| word & above_mask(x, i) != 0)
}

/// `current` without the (ascending) positions in `removal`, in order.
fn without(current: &[usize], removal: &[usize]) -> Vec<usize> {
    current
        .iter()
        .enumerate()
        .filter_map(|(i, &c)| (!removal.contains(&i)).then_some(c))
        .collect()
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

    /// Every `k`-subset of `0..s`, in lexicographic order.
    fn combinations(s: usize, k: usize) -> Vec<Vec<usize>> {
        fn extend(r: &mut Vec<usize>, s: usize, k: usize, out: &mut Vec<Vec<usize>>) {
            if r.len() == k {
                out.push(r.clone());
                return;
            }
            for i in r.last().map_or(0, |&l| l + 1)..s {
                r.push(i);
                extend(r, s, k, out);
                r.pop();
            }
        }
        let mut out = Vec::new();
        extend(&mut Vec::new(), s, k, &mut out);
        out
    }

    /// The sets [`Links::walk`] visits for removal size `k`.
    fn walked(links: &mut Links, k: usize) -> Vec<Vec<usize>> {
        let mut seen = Vec::new();
        links.walk(&mut Vec::new(), k, false, &mut |r| {
            seen.push(r.to_vec());
            None::<()>
        });
        seen
    }

    #[test]
    fn linked_walk_visits_subsets_in_lexicographic_order() {
        let mut links = Links::default();
        links.reset(5);
        for i in 0..5 {
            for j in i + 1..5 {
                links.link(i, j);
            }
        }
        links.seal(3);
        let seen = walked(&mut links, 3);
        assert_eq!(seen, combinations(5, 3));
        assert_eq!(seen.len(), 10);
        assert_eq!(seen.last(), Some(&vec![2, 3, 4]));
    }

    prop! {
        fn prop_runs_union_every_range(seed in 0u64..u64::MAX, n in 1usize..40, words in 1usize..3) {
            let mut rng = Rng::seed_from_u64(seed);
            let rows: Vec<u64> = (0..n * words).map(|_| rng.next_u64() & rng.next_u64() & rng.next_u64()).collect();
            let mut runs = Runs::default();
            runs.fill(words, rows.chunks(words));
            for lo in 0..=n {
                for hi in lo..=n {
                    let mut got = vec![0; words];
                    runs.or_into(lo, hi, &mut got);
                    let mut want = vec![0; words];
                    for row in rows.chunks(words).take(hi).skip(lo) {
                        for (w, &r) in want.iter_mut().zip(row) {
                            *w |= r;
                        }
                    }
                    prop_assert_eq!(got, want);
                }
            }
        }
    }

    #[test]
    fn linked_walk_stops_at_the_first_hit() {
        let mut links = Links::default();
        links.reset(6);
        links.link(1, 4);
        links.link(2, 3);
        links.seal(3);
        let mut seen = Vec::new();
        let hit = links.walk(&mut Vec::new(), 3, false, &mut |r| {
            seen.push(r.to_vec());
            (r == [1, 2, 3]).then_some(seen.len())
        });
        assert_eq!(seen, vec![vec![0, 1, 4], vec![0, 2, 3], vec![1, 2, 3]]);
        assert_eq!(hit, Some(3));
    }

    prop! {
        fn prop_linked_walk_visits_exactly_the_linked_sets(
            seed in 0u64..u64::MAX,
            s in 2usize..140,
            k in 2usize..5,
            density in 0usize..3
        ) {
            // Past 64 positions the bitsets take a second word; keep the
            // brute-force lists small at the larger removal sizes.
            let s = s.min([0, 0, 140, 40, 20][k]);
            let k = k.min(s);
            let mut rng = Rng::seed_from_u64(seed);
            let mut links = Links::default();
            links.reset(s);
            let mut pairs = Vec::new();
            // One link, as at most local optima, up to dense links.
            for _ in 0..[1, s / 4 + 1, 2 * s][density] {
                let (i, j) = (rng.gen_range(0..s), rng.gen_range(0..s));
                if i != j {
                    links.link(i, j);
                    pairs.push((i, j));
                }
            }
            links.seal(k);
            let expected: Vec<Vec<usize>> = combinations(s, k)
                .into_iter()
                .filter(|r| pairs.iter().any(|(i, j)| r.contains(i) && r.contains(j)))
                .collect();
            prop_assert_eq!(walked(&mut links, k), expected);
        }
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
