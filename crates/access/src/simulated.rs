//! In-memory simulation of a restricted online social network.
//!
//! [`SimulatedOsn`] wraps a [`wnw_graph::Graph`] behind the
//! [`SocialNetwork`] interface: neighbor queries are metered by a
//! [`QueryCounter`], optionally filtered by a [`NeighborRestriction`], and
//! optionally clocked by a [`RateLimiter`]. This is the stand-in for the real
//! Google Plus / Yelp / Twitter web interfaces the paper crawls.

use crate::counter::{QueryBudget, QueryCounter, QueryStats};
use crate::error::AccessError;
use crate::interface::SocialNetwork;
use crate::rate_limit::{RateLimitMode, RateLimiter};
use crate::restrictions::NeighborRestriction;
use crate::sync::lock;
use crate::Result;
use std::sync::Arc;
use std::sync::Mutex;
use wnw_graph::{Graph, NodeId};

/// A simulated online social network backed by an in-memory graph.
///
/// Cloning is cheap and shares the underlying graph, counters, restriction
/// and rate limiter — convenient when an experiment wants several samplers to
/// draw from the same metered session.
#[derive(Debug, Clone)]
pub struct SimulatedOsn {
    graph: Arc<Graph>,
    counter: Arc<QueryCounter>,
    restriction: NeighborRestriction,
    limiter: Arc<RateLimiter>,
    seed_node: NodeId,
    restriction_seed: u64,
    /// Per-node fetch counts driving the randomised restriction. Using a
    /// *per-node* call index (not a global one) makes every response a pure
    /// function of `(node, how often this node was fetched)`: under
    /// concurrent access the first fetch of each node is identical whatever
    /// the thread interleaving, so a cache layer freezing first responses
    /// (`CachedNetwork`) stays deterministic at any thread count. Kept only
    /// under [`NeighborRestriction::RandomSubset`], the one restriction that
    /// reads the index; under every other restriction it stays empty.
    fetch_counts: Arc<Mutex<std::collections::HashMap<NodeId, u64>>>,
    /// Cached restricted views for the bidirectional-edge check, so the check
    /// itself does not inflate the query cost (the crawler already has both
    /// lists locally when it performs the check).
    restricted_cache: Arc<Mutex<std::collections::HashMap<NodeId, Vec<NodeId>>>>,
}

impl SimulatedOsn {
    /// Wraps `graph` with unlimited budget, no restriction, no rate limit,
    /// and node 0 as the seed.
    pub fn new(graph: Graph) -> Self {
        Self::builder(graph).build()
    }

    /// Starts a builder for fine-grained configuration.
    pub fn builder(graph: Graph) -> SimulatedOsnBuilder {
        SimulatedOsnBuilder {
            graph,
            budget: QueryBudget::UNLIMITED,
            restriction: NeighborRestriction::Full,
            limiter: None,
            seed_node: NodeId(0),
            restriction_seed: 0x5eed,
        }
    }

    /// The underlying graph (ground-truth computations only — samplers must
    /// not touch this).
    pub fn ground_truth(&self) -> &Graph {
        &self.graph
    }

    /// The shared query counter.
    pub fn counter(&self) -> &QueryCounter {
        &self.counter
    }

    /// The shared rate limiter.
    pub fn rate_limiter(&self) -> &RateLimiter {
        &self.limiter
    }

    /// The configured neighbor restriction.
    pub fn restriction(&self) -> NeighborRestriction {
        self.restriction
    }

    /// Admits one query of `v`, shared by list and degree queries. It
    /// checks, in order: an unknown node, the budget, the rate limiter, and
    /// then charges the query.
    fn admit(&self, v: NodeId) -> Result<()> {
        if !self.graph.contains(v) {
            return Err(AccessError::UnknownNode(v));
        }
        if self.limiter.mode() == RateLimitMode::Reject {
            // A rejecting limiter turns the caller away *before* the budget
            // is charged — a 429 costs no quota — and its error carries the
            // `retry_after_secs` a retry policy honors. A query the budget
            // refuses never reaches the limiter, so it burns no slot; the
            // charge below records the refused call.
            if self.counter.check_charge(v).is_ok() {
                self.limiter.acquire()?;
            }
            self.counter.record_neighbor_query(v)?;
        } else {
            self.counter.record_neighbor_query(v)?;
            self.limiter.record_call();
        }
        Ok(())
    }

    /// Fetches the restricted neighbor view of `v`, charging the query.
    fn fetch_restricted(&self, v: NodeId) -> Result<Vec<NodeId>> {
        self.admit(v)?;
        // Only a random subset varies per invocation; every other
        // restriction ignores the index, so it is neither counted nor stored.
        let invocation = match self.restriction {
            NeighborRestriction::RandomSubset { .. } => {
                let mut counts = lock(&self.fetch_counts);
                let entry = counts.entry(v).or_insert(0);
                let current = *entry;
                *entry += 1;
                current
            }
            _ => 0,
        };
        let full = self.graph.neighbors(v);
        let restricted = self
            .restriction
            .apply(v, full, invocation, self.restriction_seed);
        if self.restriction.requires_bidirectional_check() {
            // Fixed subsets are stable per node, so cache them for the check.
            lock(&self.restricted_cache).insert(v, restricted.clone());
        }
        Ok(restricted)
    }

    /// The restricted view of `u` used only for bidirectional checking; does
    /// not charge a query (the check is performed against lists the crawler
    /// has already paid for — conservatively, a cache miss here falls back to
    /// a charged fetch).
    fn restricted_view_for_check(&self, u: NodeId) -> Result<Vec<NodeId>> {
        if let Some(cached) = lock(&self.restricted_cache).get(&u) {
            return Ok(cached.clone());
        }
        self.fetch_restricted(u)
    }
}

impl SocialNetwork for SimulatedOsn {
    fn neighbors(&self, v: NodeId) -> Result<Vec<NodeId>> {
        let restricted = self.fetch_restricted(v)?;
        if !self.restriction.requires_bidirectional_check() {
            return Ok(restricted);
        }
        // Section 6.3.1: under fixed/truncated restrictions only traverse
        // edges visible from both endpoints.
        let mut mutual = Vec::with_capacity(restricted.len());
        for u in restricted {
            let back = self.restricted_view_for_check(u)?;
            if back.binary_search(&v).is_ok() || back.contains(&v) {
                mutual.push(u);
            }
        }
        Ok(mutual)
    }

    /// Answers from the CSR offsets where the restriction allows: `Full`
    /// returns the graph degree and `RandomSubset { k }` returns
    /// `min(degree, k)`, the size of every draw. The random case takes no
    /// draw and leaves the node's invocation index alone, so the list a
    /// later `neighbors(v)` returns does not depend on whether a degree
    /// query came first. The mutual-edge check of `FixedSubset` and
    /// `Truncated` needs the list, so those measure it.
    fn degree(&self, v: NodeId) -> Result<usize> {
        let cap = match self.restriction {
            NeighborRestriction::Full => usize::MAX,
            NeighborRestriction::RandomSubset { k } => k,
            NeighborRestriction::FixedSubset { .. } | NeighborRestriction::Truncated { .. } => {
                return Ok(self.neighbors(v)?.len());
            }
        };
        self.admit(v)?;
        Ok(self.graph.degree(v).min(cap))
    }

    fn attribute(&self, name: &str, v: NodeId) -> Result<f64> {
        if !self.graph.contains(v) {
            return Err(AccessError::UnknownNode(v));
        }
        self.counter.record_attribute_read();
        self.graph
            .attribute(name, v)
            .map_err(|_| AccessError::UnknownAttribute(name.to_string()))
    }

    fn seed_node(&self) -> NodeId {
        self.seed_node
    }

    fn query_stats(&self) -> QueryStats {
        self.counter.stats()
    }

    fn reset_counters(&self) {
        self.counter.reset();
        self.limiter.reset();
        lock(&self.restricted_cache).clear();
        lock(&self.fetch_counts).clear();
    }

    fn node_count_hint(&self) -> Option<usize> {
        Some(self.graph.node_count())
    }
}

/// Builder for [`SimulatedOsn`].
#[derive(Debug)]
pub struct SimulatedOsnBuilder {
    graph: Graph,
    budget: QueryBudget,
    restriction: NeighborRestriction,
    limiter: Option<RateLimiter>,
    seed_node: NodeId,
    restriction_seed: u64,
}

impl SimulatedOsnBuilder {
    /// Sets a hard unique-node query budget.
    pub fn budget(mut self, budget: QueryBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Sets the neighbor-list restriction.
    pub fn restriction(mut self, restriction: NeighborRestriction) -> Self {
        self.restriction = restriction;
        self
    }

    /// Installs a rate limiter.
    pub fn rate_limiter(mut self, limiter: RateLimiter) -> Self {
        self.limiter = Some(limiter);
        self
    }

    /// Chooses the seed node returned by [`SocialNetwork::seed_node`].
    pub fn seed_node(mut self, v: NodeId) -> Self {
        self.seed_node = v;
        self
    }

    /// Seed for the restriction's pseudo-random subset choices.
    pub fn restriction_seed(mut self, seed: u64) -> Self {
        self.restriction_seed = seed;
        self
    }

    /// Finishes the builder.
    pub fn build(self) -> SimulatedOsn {
        SimulatedOsn {
            graph: Arc::new(self.graph),
            counter: Arc::new(QueryCounter::with_budget(self.budget)),
            restriction: self.restriction,
            limiter: Arc::new(self.limiter.unwrap_or_default()),
            seed_node: self.seed_node,
            restriction_seed: self.restriction_seed,
            fetch_counts: Arc::new(Mutex::new(std::collections::HashMap::new())),
            restricted_cache: Arc::new(Mutex::new(std::collections::HashMap::new())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wnw_graph::generators::classic::{complete, cycle, star};
    use wnw_graph::generators::random::barabasi_albert;

    #[test]
    fn neighbors_match_graph_and_are_charged_once() {
        let osn = SimulatedOsn::new(cycle(6));
        let n0 = osn.neighbors(NodeId(0)).unwrap();
        assert_eq!(n0, vec![NodeId(1), NodeId(5)]);
        assert_eq!(osn.query_cost(), 1);
        osn.neighbors(NodeId(0)).unwrap();
        assert_eq!(osn.query_cost(), 1); // cache hit
        osn.neighbors(NodeId(1)).unwrap();
        assert_eq!(osn.query_cost(), 2);
        assert_eq!(osn.query_stats().api_calls, 3);
    }

    #[test]
    fn unknown_node_is_rejected() {
        let osn = SimulatedOsn::new(cycle(3));
        assert_eq!(
            osn.neighbors(NodeId(9)).unwrap_err(),
            AccessError::UnknownNode(NodeId(9))
        );
        assert!(matches!(
            osn.attribute("stars", NodeId(9)),
            Err(AccessError::UnknownNode(_))
        ));
    }

    #[test]
    fn budget_is_enforced() {
        let osn = SimulatedOsn::builder(complete(10))
            .budget(QueryBudget(3))
            .build();
        osn.neighbors(NodeId(0)).unwrap();
        osn.neighbors(NodeId(1)).unwrap();
        osn.neighbors(NodeId(2)).unwrap();
        assert!(matches!(
            osn.neighbors(NodeId(3)),
            Err(AccessError::BudgetExhausted { budget: 3 })
        ));
        // Cached nodes remain readable.
        assert!(osn.neighbors(NodeId(0)).is_ok());
    }

    #[test]
    fn attribute_reads_work_and_do_not_charge() {
        let mut g = cycle(4);
        g.set_attribute("stars", vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let osn = SimulatedOsn::new(g);
        assert_eq!(osn.attribute("stars", NodeId(2)).unwrap(), 3.0);
        assert_eq!(osn.query_cost(), 0);
        assert!(matches!(
            osn.attribute("missing", NodeId(2)),
            Err(AccessError::UnknownAttribute(_))
        ));
    }

    #[test]
    fn truncated_restriction_applies_bidirectional_check() {
        // Star graph: hub 0 with leaves 1..=5. Truncate to 2 neighbors: the
        // hub only "sees" leaves 1 and 2; every leaf still sees the hub.
        let osn = SimulatedOsn::builder(star(6))
            .restriction(NeighborRestriction::Truncated { l: 2 })
            .build();
        let hub = osn.neighbors(NodeId(0)).unwrap();
        assert_eq!(hub, vec![NodeId(1), NodeId(2)]);
        let leaf = osn.neighbors(NodeId(3)).unwrap();
        // Leaf 3 sees the hub, and the hub's truncated list does not contain
        // 3, so the bidirectional check removes the edge.
        assert!(leaf.is_empty());
    }

    #[test]
    fn random_subset_restriction_bounds_list_size() {
        let g = barabasi_albert(100, 5, 3).unwrap();
        let osn = SimulatedOsn::builder(g)
            .restriction(NeighborRestriction::RandomSubset { k: 3 })
            .build();
        for v in [NodeId(0), NodeId(1), NodeId(2)] {
            assert!(osn.neighbors(v).unwrap().len() <= 3);
        }
    }

    #[test]
    fn fetch_counts_are_kept_only_for_random_subsets() {
        let g = barabasi_albert(100, 5, 3).unwrap();
        for restriction in [
            NeighborRestriction::Full,
            NeighborRestriction::FixedSubset { k: 3 },
            NeighborRestriction::Truncated { l: 3 },
        ] {
            let osn = SimulatedOsn::builder(g.clone())
                .restriction(restriction)
                .build();
            for v in 0..100 {
                osn.neighbors(NodeId(v)).unwrap();
            }
            assert!(lock(&osn.fetch_counts).is_empty(), "{restriction:?}");
        }
        let osn = SimulatedOsn::builder(g)
            .restriction(NeighborRestriction::RandomSubset { k: 3 })
            .build();
        osn.neighbors(NodeId(0)).unwrap();
        osn.neighbors(NodeId(0)).unwrap();
        assert_eq!(lock(&osn.fetch_counts).get(&NodeId(0)), Some(&2));
    }

    #[test]
    fn random_subset_degree_leaves_fetch_counts_alone() {
        let osn = SimulatedOsn::builder(barabasi_albert(100, 5, 3).unwrap())
            .restriction(NeighborRestriction::RandomSubset { k: 3 })
            .build();
        for v in 0..100 {
            let v = NodeId(v);
            assert_eq!(osn.degree(v).unwrap(), osn.graph.degree(v).min(3));
        }
        assert!(lock(&osn.fetch_counts).is_empty());
        assert_eq!(osn.query_cost(), 100);
    }

    #[test]
    fn a_query_refused_by_the_budget_burns_no_rate_limit_slot() {
        let osn = SimulatedOsn::builder(cycle(5))
            .budget(QueryBudget(1))
            .rate_limiter(RateLimiter::rejecting(crate::RateLimitPolicy {
                requests_per_window: 2,
                window_secs: 60,
            }))
            .build();
        assert!(osn.neighbors(NodeId(0)).is_ok());
        assert_eq!(
            osn.neighbors(NodeId(1)).unwrap_err(),
            AccessError::BudgetExhausted { budget: 1 }
        );
        // A free re-query still finds the window's second slot.
        assert!(osn.neighbors(NodeId(0)).is_ok());
        assert_eq!(osn.rate_limiter().total_calls(), 2);
        assert_eq!(osn.rate_limiter().rejections(), 0);
        assert_eq!(osn.query_stats().api_calls, 3);
    }

    #[test]
    fn reset_counters_clears_everything() {
        let osn = SimulatedOsn::new(cycle(5));
        osn.neighbors(NodeId(0)).unwrap();
        osn.reset_counters();
        assert_eq!(osn.query_cost(), 0);
        assert_eq!(osn.query_stats(), QueryStats::default());
    }

    #[test]
    fn clones_share_counters() {
        let osn = SimulatedOsn::new(cycle(5));
        let other = osn.clone();
        osn.neighbors(NodeId(0)).unwrap();
        other.neighbors(NodeId(1)).unwrap();
        assert_eq!(osn.query_cost(), 2);
        assert_eq!(other.query_cost(), 2);
    }

    #[test]
    fn seed_node_and_hint() {
        let osn = SimulatedOsn::builder(cycle(7)).seed_node(NodeId(3)).build();
        assert_eq!(osn.seed_node(), NodeId(3));
        assert_eq!(osn.node_count_hint(), Some(7));
    }
}
