//! Per-caller metering over a shared network.
//!
//! When several walkers share one [`CachedNetwork`](crate::CachedNetwork),
//! the cache's counters describe the *pool*: how many distinct nodes anyone
//! paid for. A [`MeteredNetwork`] layers an independent [`QueryCounter`] on
//! top so each walker also has its own view — which nodes *it* touched, and
//! its own [`QueryBudget`] enforced against that view.
//!
//! Per-walker budgets are what keep the sampling engine deterministic: a
//! budget shared by concurrent walkers is exhausted by whichever walker
//! happens to query last, so the accepted-sample multiset would depend on
//! thread interleaving. A budget split across walkers is enforced against
//! each walker's own deterministic query sequence instead.

use crate::counter::{QueryBudget, QueryCounter, QueryStats};
use crate::interface::SocialNetwork;
use crate::Result;
use std::sync::Arc;
use wnw_graph::NodeId;

/// An independent metering (and optional budget) view over a shared network.
///
/// The counter sits behind an [`Arc`] so a caller that hands the view to a
/// sampler (which takes its network by value) can keep a handle for reading
/// the stats afterwards — the engine reports per-walker costs this way.
///
/// The view meters *answered* queries: an inner failure (rate limit, unknown
/// node) consumes no budget and leaves the counters untouched, so a retry is
/// charged as the first access it effectively is.
#[derive(Debug, Clone)]
pub struct MeteredNetwork<N> {
    inner: N,
    counter: Arc<QueryCounter>,
}

impl<N: SocialNetwork> MeteredNetwork<N> {
    /// Wraps `inner` with an unlimited per-view budget.
    pub fn new(inner: N) -> Self {
        Self::with_budget(inner, QueryBudget::UNLIMITED)
    }

    /// Wraps `inner`, failing this view's queries beyond `budget` unique
    /// nodes — regardless of how cheap they are for the wrapped network.
    pub fn with_budget(inner: N, budget: QueryBudget) -> Self {
        MeteredNetwork {
            inner,
            counter: Arc::new(QueryCounter::with_budget(budget)),
        }
    }

    /// The wrapped network.
    pub fn inner(&self) -> &N {
        &self.inner
    }

    /// This view's own counters (also returned by
    /// [`query_stats`](SocialNetwork::query_stats)).
    pub fn counter(&self) -> &QueryCounter {
        &self.counter
    }

    /// A retained handle to this view's counters, usable after the view has
    /// been moved into a sampler.
    pub fn counter_handle(&self) -> Arc<QueryCounter> {
        self.counter.clone()
    }
}

impl<N: SocialNetwork> MeteredNetwork<N> {
    /// Meters one query of `v` answered by `query` on the wrapped network.
    ///
    /// This view's budget is enforced *before* the inner query, but the
    /// charge is recorded only *after* it succeeds: a failed query (rate
    /// limit, unknown node) must not consume budget or mark the node as
    /// visited, or a later successful retry would be mis-counted as free.
    fn metered<T>(&self, v: NodeId, query: impl FnOnce(&N) -> Result<T>) -> Result<T> {
        self.counter.check_charge(v)?;
        let answer = query(&self.inner)?;
        self.counter
            .record_neighbor_query(v)
            .expect("budget was checked before the charge");
        Ok(answer)
    }
}

impl<N: SocialNetwork> SocialNetwork for MeteredNetwork<N> {
    fn neighbors(&self, v: NodeId) -> Result<Vec<NodeId>> {
        self.metered(v, |inner| inner.neighbors(v))
    }

    /// Meters exactly like [`neighbors`](Self::neighbors) but asks the
    /// wrapped network for the degree only, so no layer below has to copy
    /// the list out.
    fn degree(&self, v: NodeId) -> Result<usize> {
        self.metered(v, |inner| inner.degree(v))
    }

    /// Charges `v` to this view exactly as [`neighbors`](Self::neighbors)
    /// would (same budget check, same counters) without querying the
    /// wrapped network, which is never told.
    fn charge(&self, v: NodeId) -> Result<()> {
        self.counter.charge(v).map(drop)
    }

    /// [`charge`](Self::charge)s the whole list under one counter lock,
    /// stopping at the first budget failure with the stats and error the
    /// one-by-one loop would give.
    fn charge_all(&self, nodes: &[NodeId]) -> Result<()> {
        self.counter.charge_all(nodes)
    }

    fn attribute(&self, name: &str, v: NodeId) -> Result<f64> {
        let value = self.inner.attribute(name, v)?;
        self.counter.record_attribute_read();
        Ok(value)
    }

    fn seed_node(&self) -> NodeId {
        self.inner.seed_node()
    }

    fn query_stats(&self) -> QueryStats {
        self.counter.stats()
    }

    fn reset_counters(&self) {
        // A view reset is local: the shared inner network keeps its state.
        self.counter.reset();
    }

    fn node_count_hint(&self) -> Option<usize> {
        self.inner.node_count_hint()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cached::CachedNetwork;
    use crate::simulated::SimulatedOsn;
    use crate::AccessError;
    use wnw_graph::generators::classic::complete;

    #[test]
    fn views_meter_independently_over_one_cache() {
        let cache = CachedNetwork::new(SimulatedOsn::new(complete(6)));
        let a = MeteredNetwork::new(&cache);
        let b = MeteredNetwork::new(&cache);
        a.neighbors(NodeId(0)).unwrap();
        a.neighbors(NodeId(1)).unwrap();
        b.neighbors(NodeId(1)).unwrap();
        assert_eq!(a.query_cost(), 2);
        assert_eq!(b.query_cost(), 1);
        // The pool paid only twice: b's query was a cache hit.
        assert_eq!(cache.query_cost(), 2);
        assert_eq!(cache.query_stats().cache_hits, 1);
    }

    #[test]
    fn view_budget_is_enforced_even_for_cached_nodes() {
        let cache = CachedNetwork::new(SimulatedOsn::new(complete(6)));
        cache.neighbors(NodeId(0)).unwrap();
        cache.neighbors(NodeId(1)).unwrap();
        cache.neighbors(NodeId(2)).unwrap();
        let view = MeteredNetwork::with_budget(&cache, QueryBudget(2));
        view.neighbors(NodeId(0)).unwrap();
        view.neighbors(NodeId(1)).unwrap();
        // Node 2 is free for the pool but exceeds this view's budget.
        assert!(matches!(
            view.neighbors(NodeId(2)),
            Err(AccessError::BudgetExhausted { budget: 2 })
        ));
        // Re-reads of the view's own nodes stay allowed.
        assert!(view.neighbors(NodeId(1)).is_ok());
    }

    #[test]
    fn failed_queries_consume_no_budget() {
        let view = MeteredNetwork::with_budget(SimulatedOsn::new(complete(3)), QueryBudget(2));
        for _ in 0..3 {
            assert!(matches!(
                view.neighbors(NodeId(99)),
                Err(AccessError::UnknownNode(NodeId(99)))
            ));
        }
        assert_eq!(view.query_stats(), QueryStats::default());
        // The full budget is still available for real queries.
        view.neighbors(NodeId(0)).unwrap();
        view.neighbors(NodeId(1)).unwrap();
        assert_eq!(view.query_cost(), 2);
        assert!(matches!(
            view.neighbors(NodeId(2)),
            Err(AccessError::BudgetExhausted { budget: 2 })
        ));
    }

    #[test]
    fn charge_meters_like_neighbors_without_touching_the_inner_network() {
        let cache = CachedNetwork::new(SimulatedOsn::new(complete(6)));
        let queried = MeteredNetwork::with_budget(&cache, QueryBudget(2));
        let charged = MeteredNetwork::with_budget(&cache, QueryBudget(2));
        for v in [0, 1, 1, 2] {
            let a = queried.neighbors(NodeId(v)).map(drop);
            let b = charged.charge(NodeId(v));
            assert_eq!(a, b, "node {v}");
        }
        assert!(matches!(
            charged.charge(NodeId(3)),
            Err(AccessError::BudgetExhausted { budget: 2 })
        ));
        assert_eq!(charged.query_stats(), queried.query_stats());
        assert_eq!(charged.query_stats().unique_nodes, 2);
        // Only the queried view reached the cache.
        assert_eq!(cache.query_stats().api_calls, 3);
    }

    #[test]
    fn reset_is_local_to_the_view() {
        let cache = CachedNetwork::new(SimulatedOsn::new(complete(4)));
        let view = MeteredNetwork::new(&cache);
        view.neighbors(NodeId(0)).unwrap();
        view.reset_counters();
        assert_eq!(view.query_cost(), 0);
        assert_eq!(
            cache.query_cost(),
            1,
            "shared cache state must survive a view reset"
        );
        assert!(cache.is_cached(NodeId(0)));
    }

    #[test]
    fn attribute_and_hints_delegate() {
        let mut g = complete(3);
        g.set_attribute("stars", vec![5.0, 4.0, 3.0]).unwrap();
        let view = MeteredNetwork::new(SimulatedOsn::new(g));
        assert_eq!(view.attribute("stars", NodeId(1)).unwrap(), 4.0);
        assert_eq!(view.query_stats().attribute_reads, 1);
        assert_eq!(view.node_count_hint(), Some(3));
        assert_eq!(view.seed_node(), NodeId(0));
    }
}
