//! Query-cost accounting.
//!
//! The paper's efficiency measure is the **query cost**: "the number of nodes
//! it has to access in order to obtain a predetermined number of samples"
//! (Section 2.4). Re-querying a node already fetched costs nothing because a
//! crawler caches responses locally; this is also what makes the paper's
//! initial-crawling heuristic cheap ("many nodes in the neighborhood may
//! already be accessed by the WALK part"). The counter therefore tracks
//!
//! * `unique_nodes` — distinct nodes whose neighbor list has been fetched
//!   (this is *the* query cost used everywhere in the experiments),
//! * `api_calls` — raw calls including cache hits, for rate-limit modelling,
//! * an optional hard [`QueryBudget`] that makes further queries fail with
//!   [`AccessError::BudgetExhausted`].
//!
//! # The visited set
//!
//! Every charge looks its node up in the counter's visited set, so the set
//! sits on the hot path of every query. It is a bitset that grows to cover
//! the largest id charged: one bit probe per lookup, and no hashing. Ids are
//! dense graph-internal indices (an unknown node fails before it is
//! charged), so the bitset is bounded by the node count, at most 122 KiB on
//! a 1M-node graph. [`reset`](QueryCounter::reset) frees it.

use crate::error::AccessError;
use crate::sync::lock;
use crate::Result;
use std::sync::Mutex;
use wnw_graph::NodeId;

/// A hard cap on the number of unique-node queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryBudget(pub u64);

impl QueryBudget {
    /// A budget that never runs out.
    pub const UNLIMITED: QueryBudget = QueryBudget(u64::MAX);
}

/// A snapshot of the counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Distinct nodes whose neighborhood has been queried — the paper's
    /// query-cost measure.
    pub unique_nodes: u64,
    /// Total neighbor-list API calls, including repeats served from cache.
    pub api_calls: u64,
    /// Calls served from the local cache (no charge).
    pub cache_hits: u64,
    /// Attribute reads (these target already-visited nodes and are free in
    /// the paper's cost model, but are tracked for completeness).
    pub attribute_reads: u64,
}

/// Thread-safe query-cost accounting shared by an access layer and the
/// experiment harness.
#[derive(Debug)]
pub struct QueryCounter {
    inner: Mutex<CounterInner>,
    budget: QueryBudget,
}

#[derive(Debug, Default)]
struct CounterInner {
    visited: VisitedSet,
    stats: QueryStats,
}

impl CounterInner {
    /// One charge of `v` against `budget`: a hit on a visited node counts
    /// as an API call and a cache hit; a new node within budget is marked
    /// visited and counted as a unique node; a new node past the budget
    /// fails and changes nothing.
    fn charge(&mut self, v: NodeId, budget: QueryBudget) -> Result<bool> {
        if self.visited.contains(v) {
            self.stats.api_calls += 1;
            self.stats.cache_hits += 1;
            return Ok(false);
        }
        self.check_new(budget)?;
        self.stats.api_calls += 1;
        self.visited.insert(v);
        self.stats.unique_nodes += 1;
        Ok(true)
    }

    /// Fails if one more unique node would exceed `budget`.
    fn check_new(&self, budget: QueryBudget) -> Result<()> {
        if self.stats.unique_nodes >= budget.0 {
            return Err(AccessError::BudgetExhausted { budget: budget.0 });
        }
        Ok(())
    }
}

/// The set of charged nodes: bit `v % 64` of word `v / 64` is set when `v`
/// is visited. The words cover ids up to the largest one inserted.
#[derive(Debug, Default)]
struct VisitedSet {
    words: Vec<u64>,
}

impl VisitedSet {
    fn contains(&self, v: NodeId) -> bool {
        self.words
            .get(v.index() / 64)
            .is_some_and(|word| word & (1 << (v.0 % 64)) != 0)
    }

    fn insert(&mut self, v: NodeId) {
        let word = v.index() / 64;
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        self.words[word] |= 1 << (v.0 % 64);
    }
}

impl QueryCounter {
    /// Creates a counter with an unlimited budget.
    pub fn unlimited() -> Self {
        Self::with_budget(QueryBudget::UNLIMITED)
    }

    /// Creates a counter that fails queries beyond `budget` unique nodes.
    pub fn with_budget(budget: QueryBudget) -> Self {
        QueryCounter {
            inner: Mutex::new(CounterInner::default()),
            budget,
        }
    }

    /// The configured budget.
    pub fn budget(&self) -> QueryBudget {
        self.budget
    }

    /// Records a neighbor-list query against node `v`.
    ///
    /// Returns `Ok(true)` if this was the first (charged) access to `v`,
    /// `Ok(false)` on a cache hit, and an error if the budget would be
    /// exceeded by a charged access.
    pub fn record_neighbor_query(&self, v: NodeId) -> Result<bool> {
        let mut inner = lock(&self.inner);
        let charged = inner.charge(v, self.budget);
        if charged.is_err() {
            // The caller did attempt a call, so it counts.
            inner.stats.api_calls += 1;
        }
        charged
    }

    /// Fails, without recording anything, if charging `v` would exceed the
    /// budget: `v` is not visited yet and the budget is spent. One lock.
    pub fn check_charge(&self, v: NodeId) -> Result<()> {
        let inner = lock(&self.inner);
        if inner.visited.contains(v) {
            return Ok(());
        }
        inner.check_new(self.budget)
    }

    /// Charges `v` as a query that passed [`check_charge`](Self::check_charge)
    /// and was answered would be: under one lock, a failed budget check
    /// records nothing; otherwise this is
    /// [`record_neighbor_query`](Self::record_neighbor_query).
    pub fn charge(&self, v: NodeId) -> Result<bool> {
        lock(&self.inner).charge(v, self.budget)
    }

    /// [`charge`](Self::charge)s every node of `nodes` in order under one
    /// lock, stopping at the first budget failure with the counters the
    /// one-by-one loop would leave.
    pub fn charge_all(&self, nodes: &[NodeId]) -> Result<()> {
        let mut inner = lock(&self.inner);
        for &v in nodes {
            inner.charge(v, self.budget)?;
        }
        Ok(())
    }

    /// Records an attribute read (not charged against the budget).
    pub fn record_attribute_read(&self) {
        lock(&self.inner).stats.attribute_reads += 1;
    }

    /// Returns whether node `v` has already been charged (i.e. is cached).
    pub fn is_visited(&self, v: NodeId) -> bool {
        lock(&self.inner).visited.contains(v)
    }

    /// Number of unique nodes charged so far — the query cost.
    pub fn query_cost(&self) -> u64 {
        lock(&self.inner).stats.unique_nodes
    }

    /// Remaining budget in unique-node queries.
    pub fn remaining(&self) -> u64 {
        let used = self.query_cost();
        self.budget.0.saturating_sub(used)
    }

    /// A copy of all counters.
    pub fn stats(&self) -> QueryStats {
        lock(&self.inner).stats
    }

    /// Resets all counters and the visited set (the budget is kept).
    pub fn reset(&self) {
        let mut inner = lock(&self.inner);
        inner.visited = VisitedSet::default();
        inner.stats = QueryStats::default();
    }
}

impl Default for QueryCounter {
    fn default() -> Self {
        Self::unlimited()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unique_node_accounting() {
        let c = QueryCounter::unlimited();
        assert!(c.record_neighbor_query(NodeId(1)).unwrap());
        assert!(!c.record_neighbor_query(NodeId(1)).unwrap());
        assert!(c.record_neighbor_query(NodeId(2)).unwrap());
        let s = c.stats();
        assert_eq!(s.unique_nodes, 2);
        assert_eq!(s.api_calls, 3);
        assert_eq!(s.cache_hits, 1);
        assert_eq!(c.query_cost(), 2);
        assert!(c.is_visited(NodeId(1)));
        assert!(!c.is_visited(NodeId(3)));
    }

    #[test]
    fn budget_enforced_only_for_new_nodes() {
        let c = QueryCounter::with_budget(QueryBudget(2));
        c.record_neighbor_query(NodeId(1)).unwrap();
        c.record_neighbor_query(NodeId(2)).unwrap();
        // Cache hits are still allowed.
        assert!(!c.record_neighbor_query(NodeId(1)).unwrap());
        // A third unique node exceeds the budget.
        let err = c.record_neighbor_query(NodeId(3)).unwrap_err();
        assert_eq!(err, AccessError::BudgetExhausted { budget: 2 });
        assert_eq!(c.remaining(), 0);
    }

    #[test]
    fn reset_clears_counts_but_keeps_budget() {
        let c = QueryCounter::with_budget(QueryBudget(5));
        c.record_neighbor_query(NodeId(1)).unwrap();
        c.record_attribute_read();
        c.reset();
        assert_eq!(c.stats(), QueryStats::default());
        assert_eq!(c.budget(), QueryBudget(5));
        assert_eq!(c.remaining(), 5);
    }

    /// The bitset's length in words.
    fn bitset_words(c: &QueryCounter) -> usize {
        lock(&c.inner).visited.words.len()
    }

    #[test]
    fn visited_set_grows_across_word_boundaries_and_keeps_members() {
        let ids = [0u32, 63, 64, 1 << 20];
        let c = QueryCounter::unlimited();
        for &v in &ids {
            assert!(c.record_neighbor_query(NodeId(v)).unwrap(), "id {v}");
        }
        assert_eq!(bitset_words(&c), (1 << 20) / 64 + 1);
        for &v in &ids {
            assert!(c.is_visited(NodeId(v)), "id {v}");
            assert!(!c.record_neighbor_query(NodeId(v)).unwrap());
        }
        for v in [1, 62, 65, 127, 128, (1 << 20) - 1, (1 << 20) + 1] {
            assert!(!c.is_visited(NodeId(v)), "id {v}");
        }
        let s = c.stats();
        assert_eq!((s.unique_nodes, s.api_calls, s.cache_hits), (4, 8, 4));
    }

    #[test]
    fn probing_past_the_bitset_is_false_and_allocates_nothing() {
        let c = QueryCounter::unlimited();
        for v in 0..100 {
            c.record_neighbor_query(NodeId(v)).unwrap();
        }
        assert_eq!(bitset_words(&c), 2);
        assert!(!c.is_visited(NodeId(128)));
        assert!(!c.is_visited(NodeId(u32::MAX)));
        assert_eq!(c.check_charge(NodeId(u32::MAX)), Ok(()));
        assert_eq!(bitset_words(&c), 2);
        // A budget failure past the bitset leaves it alone too.
        let tight = QueryCounter::with_budget(QueryBudget(100));
        for v in 0..100 {
            tight.record_neighbor_query(NodeId(v)).unwrap();
        }
        assert!(tight.charge(NodeId(5_000)).is_err());
        assert!(tight.record_neighbor_query(NodeId(5_000)).is_err());
        assert_eq!(bitset_words(&tight), 2);
    }

    #[test]
    fn reset_frees_the_bitset() {
        let c = QueryCounter::unlimited();
        for v in 0..1_000 {
            c.record_neighbor_query(NodeId(v)).unwrap();
        }
        c.reset();
        assert_eq!(bitset_words(&c), 0);
        assert!(!c.is_visited(NodeId(0)));
        assert!(c.record_neighbor_query(NodeId(0)).unwrap());
    }

    #[test]
    fn charge_records_nothing_on_a_budget_failure() {
        let charged = QueryCounter::with_budget(QueryBudget(1));
        let recorded = QueryCounter::with_budget(QueryBudget(1));
        charged.charge(NodeId(1)).unwrap();
        recorded.record_neighbor_query(NodeId(1)).unwrap();
        assert_eq!(charged.stats(), recorded.stats());
        let err = AccessError::BudgetExhausted { budget: 1 };
        assert_eq!(charged.charge(NodeId(2)), Err(err.clone()));
        assert_eq!(charged.check_charge(NodeId(2)), Err(err));
        assert_eq!(charged.check_charge(NodeId(1)), Ok(()));
        // record_neighbor_query counts the attempted call; charge does not.
        assert!(recorded.record_neighbor_query(NodeId(2)).is_err());
        assert_eq!(charged.stats().api_calls, 1);
        assert_eq!(recorded.stats().api_calls, 2);
    }

    #[test]
    fn charge_all_stops_at_the_first_budget_failure() {
        let all = QueryCounter::with_budget(QueryBudget(3));
        let one_by_one = QueryCounter::with_budget(QueryBudget(3));
        let nodes = [1, 2, 1, 3, 4, 5].map(NodeId);
        let looped = nodes
            .iter()
            .try_for_each(|&v| one_by_one.charge(v).map(drop));
        assert_eq!(all.charge_all(&nodes), looped);
        assert_eq!(looped, Err(AccessError::BudgetExhausted { budget: 3 }));
        assert_eq!(all.stats(), one_by_one.stats());
        assert!(!all.is_visited(NodeId(4)) && !all.is_visited(NodeId(5)));
    }

    #[test]
    fn attribute_reads_do_not_consume_budget() {
        let c = QueryCounter::with_budget(QueryBudget(1));
        c.record_attribute_read();
        c.record_attribute_read();
        assert_eq!(c.stats().attribute_reads, 2);
        assert_eq!(c.remaining(), 1);
    }
}
