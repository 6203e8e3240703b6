//! `degree` is a query of its own through the whole access stack, and it
//! answers exactly like `neighbors(v)?.len()`: on the backend under every
//! restriction and limiter mode, in the cache whichever of the two queries
//! comes first, and through the fault and retry wrappers.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicU64, Ordering};
use wnw_access::{
    CachedNetwork, FaultProfile, FaultyNetwork, MeteredNetwork, NeighborRestriction, QueryBudget,
    QueryStats, RateLimitPolicy, RateLimiter, Rebased, ResilientNetwork, Result, RetryPolicy,
    SimulatedOsn, SocialNetwork,
};
use wnw_graph::generators::random::barabasi_albert;
use wnw_graph::{Graph, NodeId};

const NODES: usize = 300;

fn graph() -> Graph {
    barabasi_albert(NODES, 3, 5).unwrap()
}

const RESTRICTIONS: [NeighborRestriction; 4] = [
    NeighborRestriction::Full,
    NeighborRestriction::RandomSubset { k: 3 },
    NeighborRestriction::FixedSubset { k: 3 },
    NeighborRestriction::Truncated { l: 3 },
];

/// A query sequence with repeats and unknown nodes mixed in.
fn sequence(seed: u64, len: usize) -> Vec<NodeId> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len)
        .map(|_| {
            if rng.gen_bool(0.05) {
                NodeId(NODES as u32 + rng.gen_range(0..10u32))
            } else {
                NodeId(rng.gen_range(0..60u32))
            }
        })
        .collect()
}

fn lengths(answer: Result<Vec<NodeId>>) -> Result<usize> {
    answer.map(|list| list.len())
}

fn backend(restriction: NeighborRestriction, limiter: RateLimiter, budget: u64) -> SimulatedOsn {
    SimulatedOsn::builder(graph())
        .restriction(restriction)
        .rate_limiter(limiter)
        .budget(QueryBudget(budget))
        .build()
}

#[test]
fn backend_degree_equals_list_length_under_every_restriction_and_limiter_mode() {
    let policy = RateLimitPolicy {
        requests_per_window: 7,
        window_secs: 60,
    };
    let limiters: [fn(RateLimitPolicy) -> RateLimiter; 2] =
        [RateLimiter::new, RateLimiter::rejecting];
    for restriction in RESTRICTIONS {
        for (mode, limiter) in limiters.iter().enumerate() {
            // Budget 25 runs out part-way through the sequence.
            let by_degree = backend(restriction, limiter(policy), 25);
            let by_list = backend(restriction, limiter(policy), 25);
            let mut outcomes = [0usize; 2];
            for v in sequence(7 + mode as u64, 300) {
                let got = by_degree.degree(v);
                assert_eq!(got, lengths(by_list.neighbors(v)), "{restriction:?} {v}");
                outcomes[usize::from(got.is_err())] += 1;
                assert_eq!(by_degree.query_stats(), by_list.query_stats());
            }
            assert!(outcomes[0] > 0 && outcomes[1] > 0, "{restriction:?}");
            let (a, b) = (by_degree.rate_limiter(), by_list.rate_limiter());
            assert_eq!(a.total_calls(), b.total_calls(), "{restriction:?}");
            assert_eq!(a.rejections(), b.rejections(), "{restriction:?}");
            assert_eq!(a.elapsed_secs(), b.elapsed_secs(), "{restriction:?}");
            assert_eq!(by_degree.query_cost(), 25, "{restriction:?}");
        }
    }
}

#[test]
fn random_subset_degree_takes_no_draw() {
    // A degree query must not use up a node's first draw: after any number
    // of them, the node's first list is the one a fresh backend gives.
    let restriction = NeighborRestriction::RandomSubset { k: 3 };
    let osn = backend(restriction, RateLimiter::default(), u64::MAX);
    let fresh = backend(restriction, RateLimiter::default(), u64::MAX);
    let mut shortened = 0;
    for v in (0..60).map(NodeId) {
        let degree = osn.degree(v).unwrap();
        assert_eq!(degree, osn.ground_truth().degree(v).min(3));
        osn.degree(v).unwrap();
        let list = osn.neighbors(v).unwrap();
        assert_eq!(list, fresh.neighbors(v).unwrap(), "{v}");
        assert_eq!(list.len(), degree);
        shortened += usize::from(osn.ground_truth().degree(v) > 3);
    }
    assert!(shortened > 0, "some lists are drawn, not passed through");
}

/// One cache over a fresh backend.
fn cache(restriction: NeighborRestriction) -> CachedNetwork<SimulatedOsn> {
    CachedNetwork::new(backend(restriction, RateLimiter::default(), u64::MAX))
}

#[test]
fn cache_answers_alike_whichever_query_comes_first() {
    let nodes: Vec<NodeId> = (0..60).map(NodeId).collect();
    for restriction in RESTRICTIONS {
        let (degree_first, list_first) = (cache(restriction), cache(restriction));
        for &v in &nodes {
            let a = (degree_first.degree(v), degree_first.neighbors(v));
            let b = list_first.neighbors(v);
            let b = (list_first.degree(v), b);
            assert_eq!(a, b, "{restriction:?} {v}");
            assert_eq!(a.0, lengths(a.1), "{restriction:?} {v}");
            assert!(degree_first.is_cached(v) && list_first.is_cached(v));
        }
        assert_eq!(degree_first.query_stats(), list_first.query_stats());
        assert_eq!(degree_first.cached_nodes(), list_first.cached_nodes());
        // Asking the degree first costs the backend one more call per node,
        // answered from its own visited set, and no more unique nodes.
        let (a, b) = (
            degree_first.inner().query_stats(),
            list_first.inner().query_stats(),
        );
        assert_eq!(
            a.api_calls,
            b.api_calls + nodes.len() as u64,
            "{restriction:?}"
        );
        assert_eq!(
            a.cache_hits,
            b.cache_hits + nodes.len() as u64,
            "{restriction:?}"
        );
        assert_eq!(a.unique_nodes, b.unique_nodes, "{restriction:?}");
        if !restriction.requires_bidirectional_check() {
            // No mutual-edge check fetches other nodes' lists.
            assert_eq!(b.api_calls, nodes.len() as u64, "{restriction:?}");
        }
    }
}

#[test]
fn cache_keeps_the_first_random_draw_in_either_order() {
    let restriction = NeighborRestriction::RandomSubset { k: 3 };
    let (degree_first, list_first) = (cache(restriction), cache(restriction));
    for v in (0..60).map(NodeId) {
        degree_first.degree(v).unwrap();
        degree_first.degree(v).unwrap();
        let kept = degree_first.neighbors(v).unwrap();
        assert_eq!(kept, list_first.neighbors(v).unwrap(), "{v}");
        list_first.degree(v).unwrap();
        // Repeats read the kept list; a fresh stack's first answer is it.
        assert_eq!(degree_first.neighbors(v).unwrap(), kept);
        assert_eq!(list_first.neighbors(v).unwrap(), kept);
        assert_eq!(cache(restriction).neighbors(v).unwrap(), kept, "{v}");
    }
}

#[test]
fn fault_wrappers_forward_degree_untouched_when_injection_is_off() {
    let bare = SimulatedOsn::new(graph());
    let faulty = FaultyNetwork::new(SimulatedOsn::new(graph()), 3, FaultProfile::OFF);
    let resilient = ResilientNetwork::with_defaults(FaultyNetwork::new(
        SimulatedOsn::new(graph()),
        3,
        FaultProfile::OFF,
    ));
    for v in sequence(11, 200) {
        let want = bare.degree(v);
        assert_eq!(faulty.degree(v), want, "{v}");
        assert_eq!(resilient.degree(v), want, "{v}");
    }
    assert_eq!(faulty.fault_stats().total_injected(), 0);
    assert_eq!(resilient.inner().fault_stats().total_injected(), 0);
    let stats = resilient.stats();
    assert_eq!((stats.faults_seen, stats.retries), (0, 0));
    assert_eq!(stats.calls, 200);
    assert_eq!(faulty.query_stats(), bare.query_stats());
    assert_eq!(resilient.query_stats(), bare.query_stats());
}

fn chaos(seed: u64) -> FaultyNetwork<SimulatedOsn> {
    FaultyNetwork::new(SimulatedOsn::new(graph()), seed, FaultProfile::chaos())
}

#[test]
fn degree_draws_the_same_faults_as_neighbors() {
    for seed in [1, 2, 3] {
        // The fault wrapper alone: every injected fault surfaces.
        let (by_degree, by_list) = (chaos(seed), chaos(seed));
        let mut faults = 0;
        for v in sequence(seed, 400) {
            let got = by_degree.degree(v);
            assert_eq!(got, lengths(by_list.neighbors(v)), "seed {seed} {v}");
            faults += usize::from(got.is_err());
        }
        assert!(faults > 0, "seed {seed}: the chaos profile injects faults");
        assert_eq!(by_degree.fault_stats(), by_list.fault_stats());
        assert_eq!(by_degree.query_stats(), by_list.query_stats());

        // Under retries, with the breaker off so blackouts only degrade.
        let policy = RetryPolicy::DEFAULT.without_breaker();
        let by_degree = ResilientNetwork::new(chaos(seed), policy, seed);
        let by_list = ResilientNetwork::new(chaos(seed), policy, seed);
        for v in sequence(seed, 400) {
            assert_eq!(
                by_degree.degree(v),
                lengths(by_list.neighbors(v)),
                "seed {seed} {v}"
            );
        }
        assert!(by_degree.stats().retries > 0, "seed {seed}");
        assert_eq!(by_degree.stats(), by_list.stats());
        assert_eq!(
            by_degree.inner().fault_stats(),
            by_list.inner().fault_stats()
        );
        assert_eq!(by_degree.query_stats(), by_list.query_stats());
    }
}

/// A backend that counts which kind of query reached it.
struct Spy {
    osn: SimulatedOsn,
    lists: AtomicU64,
    degrees: AtomicU64,
}

impl SocialNetwork for Spy {
    fn neighbors(&self, v: NodeId) -> Result<Vec<NodeId>> {
        self.lists.fetch_add(1, Ordering::Relaxed);
        self.osn.neighbors(v)
    }
    fn degree(&self, v: NodeId) -> Result<usize> {
        self.degrees.fetch_add(1, Ordering::Relaxed);
        self.osn.degree(v)
    }
    fn attribute(&self, name: &str, v: NodeId) -> Result<f64> {
        self.osn.attribute(name, v)
    }
    fn seed_node(&self) -> NodeId {
        self.osn.seed_node()
    }
    fn query_stats(&self) -> QueryStats {
        self.osn.query_stats()
    }
    fn reset_counters(&self) {
        self.osn.reset_counters()
    }
}

#[test]
fn degree_reaches_the_backend_as_a_degree_through_every_wrapper() {
    let spy = Spy {
        osn: SimulatedOsn::new(graph()),
        lists: AtomicU64::new(0),
        degrees: AtomicU64::new(0),
    };
    let faulty = FaultyNetwork::new(&spy, 5, FaultProfile::chaos());
    let policy = RetryPolicy::DEFAULT.without_breaker();
    let cache = CachedNetwork::new(ResilientNetwork::new(faulty, policy, 5));
    let view = Rebased::new(MeteredNetwork::new(&cache), None);
    let nodes: Vec<NodeId> = (0..60).map(NodeId).collect();
    for &v in &nodes {
        // Blackout nodes degrade after their retries; the rest answer.
        if let Ok(degree) = view.degree(v) {
            assert_eq!(degree, spy.osn.ground_truth().degree(v));
        }
    }
    assert!(cache.inner().stats().retries > 0);
    assert_eq!(spy.lists.load(Ordering::Relaxed), 0, "no list was built");
    let degrees = spy.degrees.load(Ordering::Relaxed);
    assert_eq!(degrees, cache.inner().inner().fault_stats().calls_passed);
    // A list asked later is fetched once and kept; the degree stays cached.
    for &v in &nodes {
        if cache.is_cached(v) {
            view.neighbors(v).unwrap();
            view.neighbors(v).unwrap();
            view.degree(v).unwrap();
        }
    }
    assert_eq!(
        spy.lists.load(Ordering::Relaxed) as usize,
        cache.cached_nodes()
    );
    assert_eq!(spy.degrees.load(Ordering::Relaxed), degrees);
}
