//! The full-recompute local-search swap evaluation, kept as the
//! differential referee for [`crate::local_search`].
//!
//! [`local_search_with`] here is the original b-swap search: for every
//! removal set it rebuilds the hit array over the whole remaining
//! solution, rescans every candidate against every unhit disk, and
//! allocates as it goes. [`crate::local_search::local_search_with`]
//! evaluates the same removal sets in the same order and must return
//! byte-identical candidate-index vectors for every
//! [`LocalSearchConfig`].
//!
//! Only tests and benchmarks import this module: the parity property
//! suite (`crates/hitting/tests/local_search_parity.rs`) asserts the two
//! agree, and `bench_hitting` times one against the other. Library code
//! must not call it — it is the slow path by construction.

use crate::greedy::greedy_hitting_set_indices;
use crate::instance::DiskInstance;
use crate::local_search::LocalSearchConfig;

/// Reference local-search hitting set; returns candidate indices.
///
/// # Panics
/// Panics if `config.swap_size == 0`.
pub fn local_search_with(inst: &DiskInstance, config: LocalSearchConfig) -> Vec<usize> {
    assert!(config.swap_size >= 1, "swap size must be ≥ 1");
    let mut current = greedy_hitting_set_indices(inst);
    for _ in 0..config.max_rounds {
        match improve_once(inst, &current, config.swap_size) {
            Some(next) => current = next,
            None => break,
        }
    }
    current
}

/// Tries one improving swap: remove `k` chosen points and re-cover the
/// disks they exclusively hit with `k − 1` candidates. Returns the
/// improved solution, or `None` at a local optimum.
fn improve_once(inst: &DiskInstance, current: &[usize], b: usize) -> Option<Vec<usize>> {
    // Fast path: try dropping a single redundant point (k = 1 swap).
    for skip in 0..current.len() {
        let rest: Vec<usize> = current
            .iter()
            .enumerate()
            .filter_map(|(i, &c)| (i != skip).then_some(c))
            .collect();
        if inst.indices_hit_all(&rest) {
            return Some(rest);
        }
    }
    let all_cands: Vec<usize> = (0..inst.candidates().len()).collect();
    // k-swaps for k = 2..=b: remove k, add k−1.
    for k in 2..=b.min(current.len()) {
        let removals = combinations(current.len(), k);
        for removal in removals {
            let rest: Vec<usize> = current
                .iter()
                .enumerate()
                .filter_map(|(i, &c)| (!removal.contains(&i)).then_some(c))
                .collect();
            // Disks uncovered after removal.
            let mut hit = vec![false; inst.len()];
            for &c in &rest {
                for &d in inst.hit_by(c) {
                    hit[d] = true;
                }
            }
            let unhit: Vec<usize> = (0..inst.len()).filter(|&d| !hit[d]).collect();
            if unhit.is_empty() {
                return Some(rest); // removal alone suffices (stronger than a swap)
            }
            // Candidates that help at all.
            let helpful: Vec<usize> = all_cands
                .iter()
                .copied()
                .filter(|&c| inst.hit_by(c).iter().any(|&d| unhit.contains(&d)))
                .collect();
            if let Some(adds) = cover_with_at_most(inst, &unhit, &helpful, k - 1) {
                let mut next = rest;
                next.extend(adds);
                debug_assert!(inst.indices_hit_all(&next));
                return Some(next);
            }
        }
    }
    None
}

/// Exhaustively searches for ≤ `limit` candidates covering all `unhit`
/// disks (tiny instances: `limit ≤ b − 1 ≤ 2` in practice).
fn cover_with_at_most(
    inst: &DiskInstance,
    unhit: &[usize],
    helpful: &[usize],
    limit: usize,
) -> Option<Vec<usize>> {
    if unhit.is_empty() {
        return Some(Vec::new());
    }
    if limit == 0 {
        return None;
    }
    // Branch on the first unhit disk.
    let d = unhit[0];
    for &c in helpful {
        if inst.hit_by(c).contains(&d) {
            let rest: Vec<usize> = unhit
                .iter()
                .copied()
                .filter(|&u| !inst.hit_by(c).contains(&u))
                .collect();
            if let Some(mut tail) = cover_with_at_most(inst, &rest, helpful, limit - 1) {
                tail.push(c);
                return Some(tail);
            }
        }
    }
    None
}

/// All k-element index combinations of `0..n` (small `k` only).
fn combinations(n: usize, k: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    let mut cur = Vec::with_capacity(k);
    fn rec(start: usize, n: usize, k: usize, cur: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if cur.len() == k {
            out.push(cur.clone());
            return;
        }
        for i in start..n {
            cur.push(i);
            rec(i + 1, n, k, cur, out);
            cur.pop();
        }
    }
    rec(0, n, k, &mut cur, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn combinations_counts() {
        assert_eq!(combinations(4, 2).len(), 6);
        assert_eq!(combinations(3, 3).len(), 1);
        assert_eq!(combinations(3, 0).len(), 1);
    }
}
