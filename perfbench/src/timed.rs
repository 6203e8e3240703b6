//! A timing wrapper for the access layer.
//!
//! [`TimedNetwork`] sits between the program and the backend network it
//! is handed (`Engine::run*` and `SamplingService::builder` both layer
//! their own shared `CachedNetwork` on top), so every call it sees is a
//! backend fetch: a cache miss that reached the simulated OSN. While its
//! [`AccessTimer`] is enabled it counts those calls and the nanoseconds
//! spent in them; while disabled it only forwards. Counters are striped by
//! thread, so walker threads never contend on one cache line or lock.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;
use wnw_access::counter::QueryStats;
use wnw_access::{Result, SocialNetwork};
use wnw_graph::NodeId;

const STRIPES: usize = 16;

#[derive(Debug, Default)]
#[repr(align(64))]
struct Stripe {
    calls: AtomicU64,
    busy_ns: AtomicU64,
}

/// Shared call and busy-time counters of one or more [`TimedNetwork`]s.
#[derive(Debug, Default)]
pub struct AccessTimer {
    enabled: AtomicBool,
    stripes: [Stripe; STRIPES],
}

/// Totals read from an [`AccessTimer`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AccessCounts {
    /// Backend calls (`neighbors` and `degree`) timed so far.
    pub calls: u64,
    /// Nanoseconds spent inside those calls, summed over threads.
    pub busy_ns: u64,
}

impl AccessCounts {
    /// Counts accumulated since `earlier`.
    pub fn since(self, earlier: AccessCounts) -> AccessCounts {
        AccessCounts {
            calls: self.calls - earlier.calls,
            busy_ns: self.busy_ns - earlier.busy_ns,
        }
    }
}

impl AccessTimer {
    /// Turns timing on or off. Statistics only: the flag publishes no data.
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Relaxed);
    }

    /// The counters summed over all stripes.
    pub fn counts(&self) -> AccessCounts {
        self.stripes
            .iter()
            .fold(AccessCounts::default(), |acc, s| AccessCounts {
                calls: acc.calls + s.calls.load(Ordering::Relaxed),
                busy_ns: acc.busy_ns + s.busy_ns.load(Ordering::Relaxed),
            })
    }

    fn stripe(&self) -> &Stripe {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        thread_local!(static SLOT: usize = NEXT.fetch_add(1, Ordering::Relaxed) % STRIPES);
        &self.stripes[SLOT.with(|s| *s)]
    }
}

/// Forwards every [`SocialNetwork`] method to `inner`, timing the backend
/// fetches (`neighbors`, `degree`) while the shared timer is enabled.
#[derive(Debug)]
pub struct TimedNetwork<N> {
    inner: N,
    timer: Arc<AccessTimer>,
}

impl<N> TimedNetwork<N> {
    /// Wraps `inner`, reporting into `timer`.
    pub fn new(inner: N, timer: Arc<AccessTimer>) -> Self {
        TimedNetwork { inner, timer }
    }

    /// The wrapped network.
    pub fn inner(&self) -> &N {
        &self.inner
    }

    fn timed<T>(&self, call: impl FnOnce() -> T) -> T {
        if !self.timer.enabled.load(Ordering::Relaxed) {
            return call();
        }
        let start = Instant::now();
        let out = call();
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let stripe = self.timer.stripe();
        stripe.calls.fetch_add(1, Ordering::Relaxed);
        stripe.busy_ns.fetch_add(ns, Ordering::Relaxed);
        out
    }
}

impl<N: SocialNetwork> SocialNetwork for TimedNetwork<N> {
    fn neighbors(&self, v: NodeId) -> Result<Vec<NodeId>> {
        self.timed(|| self.inner.neighbors(v))
    }
    fn degree(&self, v: NodeId) -> Result<usize> {
        self.timed(|| self.inner.degree(v))
    }
    fn attribute(&self, name: &str, v: NodeId) -> Result<f64> {
        self.inner.attribute(name, v)
    }
    fn seed_node(&self) -> NodeId {
        self.inner.seed_node()
    }
    fn query_stats(&self) -> QueryStats {
        self.inner.query_stats()
    }
    fn query_cost(&self) -> u64 {
        self.inner.query_cost()
    }
    fn reset_counters(&self) {
        self.inner.reset_counters()
    }
    fn node_count_hint(&self) -> Option<usize> {
        self.inner.node_count_hint()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wnw_access::SimulatedOsn;
    use wnw_engine::{Engine, JobReport, SampleJob};
    use wnw_graph::generators::random::barabasi_albert;
    use wnw_mcmc::RandomWalkKind;

    fn job() -> SampleJob {
        SampleJob::walk_estimate(RandomWalkKind::Simple, 24, 1234)
            .with_walkers(4)
            .with_diameter_estimate(4)
    }

    /// `(node, query_cost, attempts)` of every sample, per walker.
    type Samples = Vec<(usize, Vec<(u32, u64, u32)>)>;

    fn fingerprint(report: &JobReport) -> Samples {
        report
            .walkers
            .iter()
            .map(|w| {
                let samples = w
                    .samples
                    .iter()
                    .map(|s| (s.node.0, s.query_cost, s.attempts))
                    .collect();
                (w.walker, samples)
            })
            .collect()
    }

    #[test]
    fn wrapping_leaves_samples_and_query_cost_identical() {
        let graph = barabasi_albert(3_000, 3, 17).unwrap();
        let engine = Engine::with_threads(2);

        let plain = engine
            .run(&SimulatedOsn::new(graph.clone()), &job())
            .unwrap();

        let timer = Arc::new(AccessTimer::default());
        timer.set_enabled(true);
        let timed_net = TimedNetwork::new(SimulatedOsn::new(graph), Arc::clone(&timer));
        let timed = engine.run(&timed_net, &job()).unwrap();

        assert_eq!(fingerprint(&plain), fingerprint(&timed));
        assert_eq!(plain.sorted_nodes(), timed.sorted_nodes());
        assert_eq!(plain.query_cost(), timed.query_cost());
        assert_eq!(plain.uncached_query_cost(), timed.uncached_query_cost());
        assert_eq!(plain.pool_stats, timed.pool_stats);

        // Below the engine's cache every timed call is a backend fetch.
        let counts = timer.counts();
        assert!(counts.calls >= timed.query_cost());
        assert!(counts.busy_ns > 0);
    }

    #[test]
    fn disabled_timer_forwards_without_counting() {
        let timer = Arc::new(AccessTimer::default());
        let net = TimedNetwork::new(
            SimulatedOsn::new(barabasi_albert(200, 3, 5).unwrap()),
            Arc::clone(&timer),
        );
        assert_eq!(
            net.degree(NodeId(0)).unwrap(),
            net.neighbors(NodeId(0)).unwrap().len()
        );
        assert_eq!(net.node_count_hint(), Some(200));
        assert_eq!(timer.counts(), AccessCounts::default());
        timer.set_enabled(true);
        net.degree(NodeId(1)).unwrap();
        net.neighbors(NodeId(1)).unwrap();
        assert_eq!(timer.counts().calls, 2);
        assert_eq!(net.query_cost(), 2);
    }
}
