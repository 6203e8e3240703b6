//! A sharded, lock-striped neighbor cache layered over any [`SocialNetwork`].
//!
//! The paper's cost model already assumes a crawler caches responses locally
//! (re-querying a fetched node is free). [`CachedNetwork`] makes that cache a
//! *composable wrapper* so a pool of concurrent walkers can share it: once
//! any walker has paid for `N(v)`, every other walker reads `N(v)` from the
//! cache without touching the wrapped network — the "leverage shared crawl
//! state" idea of the history-assisted sampling line of work, applied to the
//! neighbor lists themselves.
//!
//! Concurrency design:
//!
//! * the cache is split into [`SHARD_COUNT`] shards, each guarded by its own
//!   mutex, so walkers touching different nodes rarely contend;
//! * a miss holds its shard's lock *across the inner fetch*. Two walkers
//!   racing for the same uncached node therefore serialise, and exactly one
//!   of them performs (and is charged for) the inner query — this is what
//!   makes `QueryStats::unique_nodes` exact under contention, with no
//!   double-charging and no lost updates;
//! * shards are [`NodeMap`]s, hashed by node id without SipHash (node ids
//!   are dense graph-internal indices, see [`wnw_graph::hash`]);
//! * counters use the same [`QueryCounter`] as the rest of the access layer,
//!   whose internal mutex is independent of the shard locks (no lock-order
//!   cycles: shard → counter only).
//!
//! Failed inner queries (budget exhaustion, unknown node) are never cached,
//! so a walker retrying after an error observes the wrapped network's fresh
//! answer.
//!
//! The cache keeps each node's **first** successful *list* — exactly the
//! paper's cost model, where a crawler stores responses locally and re-reads
//! its copy for free. Under a per-invocation-randomised interface
//! ([`NeighborRestriction::RandomSubset`](crate::NeighborRestriction)), later
//! calls therefore see the frozen first draw rather than fresh subsets;
//! [`SimulatedOsn`](crate::SimulatedOsn) derives that draw from a per-node
//! call index, keeping it (and everything sampled through the cache)
//! deterministic under concurrency.
//!
//! A `degree` miss asks the inner network for the degree alone and keeps
//! the answer as a degree, so a node only ever asked for its degree (the
//! depth-h ring of an initial crawl) never has its list built or stored. A
//! later `neighbors` call on such a node fetches the list and stores it in
//! place of the degree. The cache's own counters do not tell the two kinds
//! apart: the list fetch counts as a hit on a visited node, as any repeat
//! query does. The inner network does see a second call.

use crate::counter::{QueryCounter, QueryStats};
use crate::interface::SocialNetwork;
use crate::sync::lock;
use crate::Result;
use std::sync::Mutex;
use wnw_graph::{NodeId, NodeMap};

/// Number of independent cache shards. A power of two so the shard index is
/// a mask; 64 keeps contention negligible for worker pools far larger than
/// any machine this runs on.
pub const SHARD_COUNT: usize = 64;

/// A concurrency-safe neighbor cache wrapped around an inner network.
///
/// The wrapper meters its *own* traffic: [`query_stats`] reports the calls
/// walkers made against the cache (`api_calls`), how many were served locally
/// (`cache_hits`), and how many distinct nodes were fetched from the inner
/// network (`unique_nodes` — the paper's query cost). The inner network's own
/// counters keep running independently and stay available through
/// [`CachedNetwork::inner`].
///
/// [`query_stats`]: SocialNetwork::query_stats
#[derive(Debug)]
pub struct CachedNetwork<N> {
    inner: N,
    shards: Vec<Mutex<NodeMap<Entry>>>,
    counter: QueryCounter,
}

/// What the cache holds for a node: its degree alone, or its whole list.
#[derive(Debug)]
enum Entry {
    Degree(usize),
    List(Vec<NodeId>),
}

impl Entry {
    /// The list this entry answers a `neighbors` query with, if it has one.
    fn list(&self) -> Option<Vec<NodeId>> {
        match self {
            Entry::Degree(_) => None,
            Entry::List(list) => Some(list.clone()),
        }
    }

    /// The answer to a `degree` query, which either kind of entry has.
    fn degree(&self) -> Option<usize> {
        Some(match self {
            Entry::Degree(degree) => *degree,
            Entry::List(list) => list.len(),
        })
    }
}

impl<N: SocialNetwork> CachedNetwork<N> {
    /// Wraps `inner` with an empty cache.
    pub fn new(inner: N) -> Self {
        CachedNetwork {
            inner,
            shards: (0..SHARD_COUNT)
                .map(|_| Mutex::new(NodeMap::default()))
                .collect(),
            counter: QueryCounter::unlimited(),
        }
    }

    /// The wrapped network.
    pub fn inner(&self) -> &N {
        &self.inner
    }

    /// Unwraps the cache, returning the inner network.
    pub fn into_inner(self) -> N {
        self.inner
    }

    /// Number of nodes with a cached answer, a degree or a list.
    pub fn cached_nodes(&self) -> usize {
        self.shards.iter().map(|s| lock(s).len()).sum()
    }

    /// Whether `v` has a cached answer, a degree or a list (i.e. a further
    /// query for it is free under the paper's cost model).
    pub fn is_cached(&self, v: NodeId) -> bool {
        lock(&self.shards[Self::shard_of(v)]).contains_key(&v)
    }

    fn shard_of(v: NodeId) -> usize {
        // NodeIds are dense small integers; multiply by a 64-bit odd constant
        // (Fibonacci hashing) so consecutive ids spread across shards.
        (((v.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize) & (SHARD_COUNT - 1)
    }
}

impl<N: SocialNetwork> CachedNetwork<N> {
    /// Answers a query of `v` from its shard: `read` takes the answer off
    /// an entry, or gives `None` when the stored entry cannot answer it.
    /// Then `fetch` asks the wrapped network for an entry that can, and it
    /// is stored in place. The fetch runs while the shard lock is held so a
    /// racing walker cannot issue a duplicate inner query for the same node.
    /// The call is recorded only once it is answered.
    fn lookup<T>(
        &self,
        v: NodeId,
        read: impl Fn(&Entry) -> Option<T>,
        fetch: impl FnOnce(&N) -> Result<Entry>,
    ) -> Result<T> {
        let mut guard = lock(&self.shards[Self::shard_of(v)]);
        let answer = match guard.get(&v).and_then(&read) {
            Some(answer) => answer,
            None => {
                let entry = fetch(&self.inner)?;
                let fetched = read(&entry).expect("a fetched entry answers its query");
                guard.insert(v, entry);
                fetched
            }
        };
        drop(guard);
        // A hit counts as an api call and a cache hit, never as a new unique
        // node (the entry's presence implies it was recorded).
        self.counter
            .record_neighbor_query(v)
            .expect("cache counter is unlimited and each node is recorded once");
        Ok(answer)
    }
}

impl<N: SocialNetwork> SocialNetwork for CachedNetwork<N> {
    /// Answers from a stored list. On a miss, or when only the degree is
    /// stored, fetches the list and stores it in place.
    fn neighbors(&self, v: NodeId) -> Result<Vec<NodeId>> {
        self.lookup(v, Entry::list, |inner| inner.neighbors(v).map(Entry::List))
    }

    /// Answers from either kind of entry. On a miss, asks the wrapped
    /// network for the degree alone and stores it as a degree.
    fn degree(&self, v: NodeId) -> Result<usize> {
        self.lookup(v, Entry::degree, |inner| inner.degree(v).map(Entry::Degree))
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
        for shard in &self.shards {
            lock(shard).clear();
        }
        self.counter.reset();
        self.inner.reset_counters();
    }

    fn node_count_hint(&self) -> Option<usize> {
        self.inner.node_count_hint()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counter::QueryBudget;
    use crate::simulated::SimulatedOsn;
    use crate::AccessError;
    use wnw_graph::generators::classic::{complete, cycle};

    #[test]
    fn hits_are_served_without_touching_inner() {
        let cache = CachedNetwork::new(SimulatedOsn::new(cycle(6)));
        let first = cache.neighbors(NodeId(0)).unwrap();
        assert_eq!(first, vec![NodeId(1), NodeId(5)]);
        assert_eq!(cache.inner().query_stats().api_calls, 1);
        for _ in 0..5 {
            assert_eq!(cache.neighbors(NodeId(0)).unwrap(), first);
        }
        // The inner network saw exactly one call; the cache metered all six.
        assert_eq!(cache.inner().query_stats().api_calls, 1);
        let stats = cache.query_stats();
        assert_eq!(stats.api_calls, 6);
        assert_eq!(stats.cache_hits, 5);
        assert_eq!(stats.unique_nodes, 1);
        assert!(cache.is_cached(NodeId(0)));
        assert!(!cache.is_cached(NodeId(1)));
        assert_eq!(cache.cached_nodes(), 1);
    }

    #[test]
    fn query_cost_matches_distinct_nodes() {
        let cache = CachedNetwork::new(SimulatedOsn::new(complete(10)));
        for round in 0..3 {
            for v in 0..10u32 {
                cache.neighbors(NodeId(v)).unwrap();
            }
            let _ = round;
        }
        assert_eq!(cache.query_cost(), 10);
        assert_eq!(cache.query_stats().api_calls, 30);
        assert_eq!(cache.inner().query_cost(), 10);
    }

    #[test]
    fn errors_are_not_cached() {
        let inner = SimulatedOsn::builder(complete(5))
            .budget(QueryBudget(2))
            .build();
        let cache = CachedNetwork::new(inner);
        cache.neighbors(NodeId(0)).unwrap();
        cache.neighbors(NodeId(1)).unwrap();
        assert!(matches!(
            cache.neighbors(NodeId(2)),
            Err(AccessError::BudgetExhausted { budget: 2 })
        ));
        assert!(!cache.is_cached(NodeId(2)));
        assert_eq!(cache.query_cost(), 2);
        // Cached nodes stay readable after exhaustion.
        assert!(cache.neighbors(NodeId(0)).is_ok());
        assert!(matches!(
            cache.neighbors(NodeId(9)),
            Err(AccessError::UnknownNode(NodeId(9)))
        ));
    }

    #[test]
    fn attribute_reads_delegate_and_are_counted() {
        let mut g = cycle(4);
        g.set_attribute("stars", vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let cache = CachedNetwork::new(SimulatedOsn::new(g));
        assert_eq!(cache.attribute("stars", NodeId(2)).unwrap(), 3.0);
        assert_eq!(cache.query_stats().attribute_reads, 1);
        assert_eq!(cache.query_cost(), 0);
    }

    #[test]
    fn reset_clears_cache_and_both_counter_layers() {
        let cache = CachedNetwork::new(SimulatedOsn::new(cycle(5)));
        cache.neighbors(NodeId(0)).unwrap();
        cache.neighbors(NodeId(0)).unwrap();
        cache.reset_counters();
        assert_eq!(cache.query_stats(), QueryStats::default());
        assert_eq!(cache.inner().query_stats(), QueryStats::default());
        assert_eq!(cache.cached_nodes(), 0);
        // Re-querying after reset charges again.
        cache.neighbors(NodeId(0)).unwrap();
        assert_eq!(cache.query_cost(), 1);
    }

    #[test]
    fn concurrent_walkers_never_double_charge() {
        let n = 400;
        let cache = std::sync::Arc::new(CachedNetwork::new(SimulatedOsn::new(complete(n))));
        std::thread::scope(|scope| {
            for t in 0..8 {
                let cache = cache.clone();
                scope.spawn(move || {
                    // Every thread sweeps all nodes, offset so the threads
                    // collide on different nodes at different times.
                    for i in 0..n {
                        let v = NodeId(((i + t * 50) % n) as u32);
                        let got = cache.neighbors(v).unwrap();
                        assert_eq!(got.len(), n - 1);
                    }
                });
            }
        });
        let stats = cache.query_stats();
        assert_eq!(stats.unique_nodes, n as u64, "exactly one charge per node");
        assert_eq!(stats.api_calls, (8 * n) as u64);
        assert_eq!(stats.cache_hits, (8 * n - n) as u64);
        assert_eq!(cache.inner().query_stats().unique_nodes, n as u64);
        assert_eq!(cache.inner().query_stats().api_calls, n as u64);
    }
}
