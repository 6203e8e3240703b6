//! The local-neighborhood query interface.
//!
//! This trait is the *only* way samplers in this workspace observe the social
//! network — mirroring the restrictive web interface of Section 2.1. Every
//! method that touches the server is fallible, so budget exhaustion and rate
//! limits propagate naturally through the samplers.

use crate::counter::QueryStats;
use crate::Result;
use wnw_graph::NodeId;

/// A social network reachable only through local-neighborhood queries.
///
/// Implementations are expected to be cheap to share by reference: samplers
/// take `&N where N: SocialNetwork + ?Sized`, and interior mutability handles
/// query accounting.
pub trait SocialNetwork {
    /// Returns the neighbor list `N(v)` of node `v`, charging the query cost
    /// if `v` has not been fetched before.
    fn neighbors(&self, v: NodeId) -> Result<Vec<NodeId>>;

    /// Returns the degree `|N(v)|`: a query of `v`, charged exactly like
    /// [`neighbors`](Self::neighbors)`(v)`, whose answer is the length of
    /// the list `neighbors(v)` would return.
    ///
    /// The default fetches that list and measures it. A backend overrides
    /// this when it can answer without building the list, and every wrapper
    /// forwards it through its own metering, faults and retries, so a
    /// degree asked at the top reaches the backend as a degree.
    fn degree(&self, v: NodeId) -> Result<usize> {
        Ok(self.neighbors(v)?.len())
    }

    /// Charges the query for `v` that [`neighbors`](Self::neighbors) would,
    /// for a caller that already holds the answer. The default issues the
    /// query; a metering view overrides it to charge its own counters
    /// without touching the wrapped network. This is how a walker pays for
    /// the crawl another walker of its job already fetched.
    fn charge(&self, v: NodeId) -> Result<()> {
        self.neighbors(v).map(drop)
    }

    /// [`charge`](Self::charge)s every node of `nodes` in order, stopping
    /// at the first error. A metering view overrides it to charge the whole
    /// list under one lock, with the same counters and the same error the
    /// loop would give.
    fn charge_all(&self, nodes: &[NodeId]) -> Result<()> {
        nodes.iter().try_for_each(|&v| self.charge(v))
    }

    /// Reads a numeric attribute of a node the caller has sampled (e.g. its
    /// star rating or self-description word count). Attribute reads target a
    /// profile page already retrieved and are not charged as extra queries.
    fn attribute(&self, name: &str, v: NodeId) -> Result<f64>;

    /// A starting node for walks. Real crawlers bootstrap from a known
    /// account; the simulator returns a fixed, valid node.
    fn seed_node(&self) -> NodeId;

    /// Query-cost counters accumulated so far.
    fn query_stats(&self) -> QueryStats;

    /// The paper's query-cost measure: unique nodes accessed so far.
    fn query_cost(&self) -> u64 {
        self.query_stats().unique_nodes
    }

    /// Resets the query counters (used between repetitions of an experiment).
    fn reset_counters(&self);

    /// Number of users, if the implementation happens to know it.
    ///
    /// Only ground-truth computations use this; the samplers themselves never
    /// do (the paper's third party does not know `|V|`).
    fn node_count_hint(&self) -> Option<usize> {
        None
    }
}

/// A [`SocialNetwork`] that can be shared across walker threads.
///
/// This is a pure marker: the sampling engine takes `N: ThreadedNetwork`
/// where a worker pool fans out over one shared handle, making the
/// `Send + Sync` requirement part of the access contract instead of a bound
/// scattered across the engine. Every `SocialNetwork` whose type is already
/// `Send + Sync` (e.g. [`SimulatedOsn`](crate::SimulatedOsn), or a
/// [`CachedNetwork`](crate::CachedNetwork) over one) gets it for free via the
/// blanket implementation.
pub trait ThreadedNetwork: SocialNetwork + Send + Sync {}

impl<N: SocialNetwork + Send + Sync + ?Sized> ThreadedNetwork for N {}

/// Blanket implementation so `&N` works wherever `N: SocialNetwork` does.
impl<N: SocialNetwork + ?Sized> SocialNetwork for &N {
    fn neighbors(&self, v: NodeId) -> Result<Vec<NodeId>> {
        (**self).neighbors(v)
    }
    fn degree(&self, v: NodeId) -> Result<usize> {
        (**self).degree(v)
    }
    fn charge(&self, v: NodeId) -> Result<()> {
        (**self).charge(v)
    }
    fn charge_all(&self, nodes: &[NodeId]) -> Result<()> {
        (**self).charge_all(nodes)
    }
    fn attribute(&self, name: &str, v: NodeId) -> Result<f64> {
        (**self).attribute(name, v)
    }
    fn seed_node(&self) -> NodeId {
        (**self).seed_node()
    }
    fn query_stats(&self) -> QueryStats {
        (**self).query_stats()
    }
    fn reset_counters(&self) {
        (**self).reset_counters()
    }
    fn node_count_hint(&self) -> Option<usize> {
        (**self).node_count_hint()
    }
}

/// Blanket implementation so `Arc<N>` works wherever `N: SocialNetwork`
/// does — the natural shape for handles shared by walker threads.
impl<N: SocialNetwork + ?Sized> SocialNetwork for std::sync::Arc<N> {
    fn neighbors(&self, v: NodeId) -> Result<Vec<NodeId>> {
        (**self).neighbors(v)
    }
    fn degree(&self, v: NodeId) -> Result<usize> {
        (**self).degree(v)
    }
    fn charge(&self, v: NodeId) -> Result<()> {
        (**self).charge(v)
    }
    fn charge_all(&self, nodes: &[NodeId]) -> Result<()> {
        (**self).charge_all(nodes)
    }
    fn attribute(&self, name: &str, v: NodeId) -> Result<f64> {
        (**self).attribute(name, v)
    }
    fn seed_node(&self) -> NodeId {
        (**self).seed_node()
    }
    fn query_stats(&self) -> QueryStats {
        (**self).query_stats()
    }
    fn reset_counters(&self) {
        (**self).reset_counters()
    }
    fn node_count_hint(&self) -> Option<usize> {
        (**self).node_count_hint()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulated::SimulatedOsn;
    use wnw_graph::generators::classic::cycle;

    fn assert_threaded<N: ThreadedNetwork>(_n: &N) {}

    #[test]
    fn arc_impl_delegates_and_is_threaded() {
        let osn = std::sync::Arc::new(SimulatedOsn::new(cycle(5)));
        assert_eq!(osn.degree(NodeId(0)).unwrap(), 2);
        assert_eq!(osn.query_cost(), 1);
        assert_eq!(osn.node_count_hint(), Some(5));
        assert_threaded(&osn);
        osn.reset_counters();
        assert_eq!(osn.query_cost(), 0);
    }

    #[test]
    fn blanket_ref_impl_delegates() {
        let osn = SimulatedOsn::new(cycle(5));
        let by_ref: &dyn SocialNetwork = &osn;
        assert_eq!(by_ref.degree(NodeId(0)).unwrap(), 2);
        assert_eq!(osn.query_cost(), 1);
        assert_eq!(by_ref.node_count_hint(), Some(5));
        by_ref.reset_counters();
        assert_eq!(by_ref.query_cost(), 0);
    }
}
