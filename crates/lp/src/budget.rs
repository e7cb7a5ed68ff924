//! Cooperative resource budgets for the solvers.
//!
//! A [`Budget`] bundles the three ways a caller can bound a solve — a
//! wall-clock deadline, a branch-and-bound node cap, and a cooperative
//! cancellation flag — into one value that is threaded through the
//! simplex, the ILP layer, and (in `sag-core`) the ILPQC/SAMC/PRO
//! stages. Budgets are *cooperative*: solvers poll [`Budget::check`] at
//! loop boundaries and return a typed error instead of being preempted,
//! so a hit budget never leaves a tableau or search stack in a torn
//! state.
//!
//! [`Spent`] records what a (possibly aborted) solve actually consumed,
//! so degradation decisions upstream can be reported with evidence.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::error::LpError;

/// A cooperative resource budget: deadline + node cap + cancel flag.
///
/// The default budget is unlimited; constraints are opted into with the
/// builder-style `with_*` methods. Cloning a budget shares the
/// cancellation flag (an [`Arc`]), so one controller can cancel every
/// solver holding a clone.
///
/// # Example
/// ```
/// use std::time::Duration;
/// use sag_lp::budget::Budget;
///
/// let b = Budget::unlimited()
///     .with_deadline(Duration::from_millis(200))
///     .with_node_limit(10_000);
/// assert!(!b.is_unlimited());
/// assert!(b.check(0).is_ok());
/// ```
#[derive(Debug, Clone, Default)]
pub struct Budget {
    deadline: Option<Instant>,
    node_limit: Option<usize>,
    cancel: Option<Arc<AtomicBool>>,
    /// Shared node pool: when present, clones charge their node
    /// consumption here and the node cap is enforced against the pool
    /// total, so concurrent solvers draw from one allowance.
    pool: Option<Arc<AtomicUsize>>,
}

impl Budget {
    /// A budget with no constraints (the default).
    pub fn unlimited() -> Self {
        Budget::default()
    }

    /// Adds a wall-clock deadline `timeout` from now.
    pub fn with_deadline(mut self, timeout: Duration) -> Self {
        self.deadline = Some(Instant::now() + timeout);
        self
    }

    /// Adds a branch-and-bound node cap.
    pub fn with_node_limit(mut self, nodes: usize) -> Self {
        self.node_limit = Some(nodes);
        self
    }

    /// Attaches a cooperative cancellation flag; setting it to `true`
    /// makes every solver holding this budget stop at its next check.
    pub fn with_cancel_flag(mut self, flag: Arc<AtomicBool>) -> Self {
        self.cancel = Some(flag);
        self
    }

    /// Re-anchors the deadline at an absolute instant. Unlike
    /// [`with_deadline`](Budget::with_deadline) this does not re-derive
    /// from "now", so a budget rebuilt for a later pipeline stage keeps
    /// the *same* wall-clock cutoff as its parent.
    pub fn with_deadline_until(mut self, at: Instant) -> Self {
        self.deadline = Some(at);
        self
    }

    /// Attaches a fresh shared node pool. Clones of the returned budget
    /// (handed to concurrent workers) all charge the same counter via
    /// [`charge_nodes`](Budget::charge_nodes), so the node cap bounds
    /// their *combined* search effort rather than each worker's own.
    pub fn with_shared_node_pool(mut self) -> Self {
        self.pool = Some(Arc::new(AtomicUsize::new(0)));
        self
    }

    /// The absolute deadline, if one is configured.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// The attached cancellation flag, if any (shared across clones).
    pub fn cancel_flag(&self) -> Option<Arc<AtomicBool>> {
        self.cancel.clone()
    }

    /// Charges `n` nodes to the shared pool and returns the pool total
    /// including this charge; `None` when no pool is attached (the
    /// caller then enforces the cap against its own local count).
    pub fn charge_nodes(&self, n: usize) -> Option<usize> {
        self.pool
            .as_ref()
            .map(|p| p.fetch_add(n, Ordering::Relaxed) + n)
    }

    /// `true` when no constraint is configured.
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none() && self.node_limit.is_none() && self.cancel.is_none()
    }

    /// The configured node cap, if any.
    pub fn node_limit(&self) -> Option<usize> {
        self.node_limit
    }

    /// `true` once the cancellation flag has been raised.
    pub fn cancelled(&self) -> bool {
        self.cancel
            .as_ref()
            .is_some_and(|f| f.load(Ordering::Relaxed))
    }

    /// `true` once the deadline has passed.
    pub fn expired(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// Wall-clock time left before the deadline (`None` = no deadline).
    pub fn remaining(&self) -> Option<Duration> {
        self.deadline
            .map(|d| d.saturating_duration_since(Instant::now()))
    }

    /// Checks the deadline and the cancellation flag.
    ///
    /// # Errors
    /// [`LpError::Cancelled`] when the deadline has passed or the flag
    /// is raised.
    pub fn check_interrupt(&self) -> Result<(), LpError> {
        if self.cancelled() || self.expired() {
            sag_obs::counter("lp.budget_cancelled", 1);
            return Err(LpError::Cancelled);
        }
        Ok(())
    }

    /// Full check: interrupt state plus the node cap against `nodes`
    /// already spent.
    ///
    /// # Errors
    /// [`LpError::Cancelled`] on deadline/cancellation,
    /// [`LpError::NodeLimit`] when `nodes` has reached the cap.
    pub fn check(&self, nodes: usize) -> Result<(), LpError> {
        self.check_interrupt()?;
        if self.node_limit.is_some_and(|cap| nodes >= cap) {
            sag_obs::counter("lp.budget_node_limit", 1);
            return Err(LpError::NodeLimit);
        }
        Ok(())
    }
}

/// Resources a solve actually consumed, reported alongside both
/// successful outcomes and budget-exhaustion errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Spent {
    /// Branch-and-bound nodes explored (0 for pure LP / heuristics).
    pub nodes: usize,
    /// Wall-clock time consumed.
    pub elapsed: Duration,
}

impl std::fmt::Display for Spent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} nodes in {:.1?}", self.nodes, self.elapsed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_trips() {
        let b = Budget::unlimited();
        assert!(b.is_unlimited());
        assert!(b.check(usize::MAX - 1).is_ok());
        assert!(!b.cancelled());
        assert!(!b.expired());
        assert_eq!(b.remaining(), None);
    }

    #[test]
    fn node_limit_trips_at_cap() {
        let b = Budget::unlimited().with_node_limit(10);
        assert!(b.check(9).is_ok());
        assert_eq!(b.check(10), Err(LpError::NodeLimit));
        assert_eq!(b.node_limit(), Some(10));
    }

    #[test]
    fn zero_deadline_expires_immediately() {
        let b = Budget::unlimited().with_deadline(Duration::ZERO);
        assert!(b.expired());
        assert_eq!(b.check_interrupt(), Err(LpError::Cancelled));
        assert_eq!(b.remaining(), Some(Duration::ZERO));
    }

    #[test]
    fn generous_deadline_does_not_trip() {
        let b = Budget::unlimited().with_deadline(Duration::from_secs(3600));
        assert!(!b.expired());
        assert!(b.check(0).is_ok());
        assert!(b.remaining().unwrap() > Duration::from_secs(3000));
    }

    #[test]
    fn cancel_flag_is_shared_across_clones() {
        let flag = Arc::new(AtomicBool::new(false));
        let b = Budget::unlimited().with_cancel_flag(Arc::clone(&flag));
        let clone = b.clone();
        assert!(clone.check_interrupt().is_ok());
        flag.store(true, Ordering::Relaxed);
        assert!(b.cancelled());
        assert_eq!(clone.check_interrupt(), Err(LpError::Cancelled));
    }

    #[test]
    fn shared_pool_is_charged_across_clones() {
        let b = Budget::unlimited()
            .with_node_limit(10)
            .with_shared_node_pool();
        let clone = b.clone();
        assert_eq!(b.charge_nodes(4), Some(4));
        assert_eq!(clone.charge_nodes(3), Some(7));
        // A zero charge reads the shared total through either clone.
        assert_eq!(b.charge_nodes(0), Some(7));
        assert_eq!(clone.charge_nodes(0), Some(7));
        // Without a pool, charging is a no-op and reports nothing.
        let plain = Budget::unlimited();
        assert_eq!(plain.charge_nodes(5), None);
    }

    #[test]
    fn deadline_until_keeps_the_absolute_cutoff() {
        let parent = Budget::unlimited().with_deadline(Duration::from_secs(3600));
        let at = parent.deadline().expect("deadline configured");
        let child = Budget::unlimited().with_deadline_until(at);
        assert_eq!(child.deadline(), Some(at));
        assert!(!child.expired());
        assert!(Budget::unlimited().deadline().is_none());
    }

    #[test]
    fn cancel_flag_accessor_shares_the_flag() {
        let flag = Arc::new(AtomicBool::new(false));
        let b = Budget::unlimited().with_cancel_flag(Arc::clone(&flag));
        let handle = b.cancel_flag().expect("flag attached");
        handle.store(true, Ordering::Relaxed);
        assert!(b.cancelled());
        assert!(Budget::unlimited().cancel_flag().is_none());
    }

    #[test]
    fn spent_displays_both_dimensions() {
        let s = Spent {
            nodes: 42,
            elapsed: Duration::from_millis(7),
        };
        let text = s.to_string();
        assert!(text.contains("42"));
        assert!(text.contains("nodes"));
    }
}
