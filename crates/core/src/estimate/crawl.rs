//! Initial crawling (Section 5.2).
//!
//! Crawl the `h`-hop neighborhood of the walk's starting node once, and
//! compute the *exact* sampling probability `p_t(v)` for every crawled node
//! and every `t ≤ h` by propagating the transition probabilities forward
//! inside the crawled subgraph. A walk of `t ≤ h` steps can only reach nodes
//! within `h` hops, and every transition probability out of a node at depth
//! `< h` involves only degrees of nodes at depth `≤ h`, so these values are
//! exact — no estimation involved.
//!
//! Backward estimation then terminates as soon as its remaining step count
//! drops to `h`, replacing the noisiest tail of the recursion (the part
//! whose variance UNBIASED-ESTIMATE amplifies the most) with an exact value.
//!
//! The crawl is built once per job, through a [`CrawlSlot`], and charged to
//! every walker: one walker queries the neighborhood, and each of the others
//! is charged the same nodes in the same order without querying them again.
//! Sums run in BFS order, so every build is bit-identical.
//!
//! The nodes at depth `h` are list-free end to end: the crawl asks them for
//! a degree, every access layer forwards it as a degree, the shared cache
//! keeps it as a degree, and the simulated backend answers from its CSR
//! offsets. Only a walker that later steps onto such a node fetches its list.

use crate::config::WalkEstimateConfig;
use std::sync::{Arc, Mutex};
use wnw_access::sync::lock;
use wnw_access::{Result, SocialNetwork};
use wnw_graph::{NodeId, NodeMap};
use wnw_mcmc::RandomWalkKind;

/// Exact sampling probabilities within the `h`-hop neighborhood of a start
/// node, as a dense table over the crawled nodes in BFS order.
#[derive(Debug, Clone)]
pub struct InitialCrawl {
    start: NodeId,
    depth: usize,
    /// Crawled nodes in BFS order, which is also the order they were queried.
    order: Vec<NodeId>,
    /// Node → its position in `order`.
    index: NodeMap<u32>,
    /// `degrees[i]` is the degree of `order[i]`.
    degrees: Vec<usize>,
    /// `probabilities[t][i]` is the exact `p_t(order[i])`, for `t ≤ depth`.
    probabilities: Vec<Vec<f64>>,
}

impl InitialCrawl {
    /// Crawls the `depth`-hop neighborhood of `start` through the restricted
    /// interface and computes the exact `p_t` values for the walk design
    /// `kind`.
    pub fn build<N: SocialNetwork + ?Sized>(
        osn: &N,
        kind: RandomWalkKind,
        start: NodeId,
        depth: usize,
    ) -> Result<Self> {
        // Breadth-first crawl, one level at a time. Nodes at depth < h keep
        // their neighbor lists, as positions in `order`, for the propagation
        // below; the nodes at depth h come last and need only a degree.
        let mut order = vec![start];
        let mut index = NodeMap::from_iter([(start, 0u32)]);
        let mut adjacency: Vec<Vec<u32>> = Vec::new();
        for _ in 0..depth {
            for u in adjacency.len()..order.len() {
                let neighbors = osn.neighbors(order[u])?.into_iter().map(|v| {
                    let next = order.len() as u32;
                    *index.entry(v).or_insert_with(|| {
                        order.push(v);
                        next
                    })
                });
                adjacency.push(neighbors.collect());
            }
        }
        let mut degrees: Vec<usize> = adjacency.iter().map(Vec::len).collect();
        for &v in &order[adjacency.len()..] {
            degrees.push(osn.degree(v)?);
        }

        // Forward propagation of exact probabilities for t = 0..=depth. Mass
        // at step t - 1 < h sits on nodes at depth < h only, and each
        // target sums its contributions in BFS order of their sources.
        let mut probabilities = vec![vec![0.0; order.len()]];
        probabilities[0][0] = 1.0;
        for t in 1..=depth {
            let current = &probabilities[t - 1];
            let mut next = vec![0.0; order.len()];
            for (u, neighbors) in adjacency.iter().enumerate() {
                let mass = current[u];
                let du = degrees[u];
                let mut outgoing = 0.0;
                for &v in neighbors {
                    let p = kind.edge_probability(du, degrees[v as usize]);
                    outgoing += p;
                    next[v as usize] += mass * p;
                }
                let self_loop = (1.0 - outgoing).max(0.0);
                if self_loop > 0.0 {
                    next[u] += mass * self_loop;
                }
            }
            probabilities.push(next);
        }
        Ok(InitialCrawl {
            start,
            depth,
            order,
            index,
            degrees,
            probabilities,
        })
    }

    /// The starting node of the crawl.
    pub fn start(&self) -> NodeId {
        self.start
    }

    /// The crawl depth `h`.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Exact `p_t(v)` for `t ≤ depth` (0.0 for nodes outside the reachable
    /// set — which is exact, not an approximation).
    ///
    /// # Panics
    /// Panics if `t > depth`; callers must check [`depth`](Self::depth).
    pub fn exact_probability(&self, t: usize, v: NodeId) -> f64 {
        assert!(
            t <= self.depth,
            "crawl only covers probabilities up to t = {}",
            self.depth
        );
        self.index
            .get(&v)
            .map_or(0.0, |&i| self.probabilities[t][i as usize])
    }

    /// Whether `v` was reached by the crawl.
    pub fn contains(&self, v: NodeId) -> bool {
        self.index.contains_key(&v)
    }

    /// Number of crawled nodes.
    pub fn crawled_nodes(&self) -> usize {
        self.order.len()
    }

    /// Degree of a crawled node, if known.
    pub fn degree(&self, v: NodeId) -> Option<usize> {
        self.index.get(&v).map(|&i| self.degrees[i as usize])
    }
}

/// One job's initial crawl, shared by all of its walkers (of one start, walk
/// design and depth). A standalone sampler owns a private slot.
#[derive(Debug, Default)]
pub struct CrawlSlot(Mutex<Option<Arc<InitialCrawl>>>);

impl CrawlSlot {
    /// The initial crawl `config` asks for around `start` (`None` if none),
    /// charged to `osn`. The first caller builds and stores it; every later
    /// caller [charges](SocialNetwork::charge_all) its nodes to its own `osn`
    /// in BFS order, in one call, so its counters and budget stop where its
    /// own build would have. A failed build leaves the slot empty for the
    /// next caller.
    pub fn acquire<N: SocialNetwork + ?Sized>(
        &self,
        osn: &N,
        kind: RandomWalkKind,
        start: NodeId,
        config: &WalkEstimateConfig,
    ) -> Result<Option<Arc<InitialCrawl>>> {
        let depth = config.crawl_depth;
        if !config.variant.uses_crawl() || depth == 0 {
            return Ok(None);
        }
        // The build runs under the lock, so a concurrent walker waits for
        // the crawl instead of building it a second time.
        let mut slot = lock(&self.0);
        if let Some(crawl) = slot.clone() {
            drop(slot);
            debug_assert_eq!((crawl.start, crawl.depth), (start, depth));
            osn.charge_all(&crawl.order)?;
            return Ok(Some(crawl));
        }
        let crawl = Arc::new(InitialCrawl::build(osn, kind, start, depth)?);
        *slot = Some(Arc::clone(&crawl));
        Ok(Some(crawl))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wnw_access::SimulatedOsn;
    use wnw_graph::generators::classic::{cycle, star};
    use wnw_graph::generators::random::barabasi_albert;
    use wnw_mcmc::distribution::TransitionMatrix;

    #[test]
    fn crawl_probabilities_match_exact_evolution_srw() {
        let graph = barabasi_albert(80, 3, 11).unwrap();
        let osn = SimulatedOsn::new(graph.clone());
        let start = NodeId(5);
        let h = 2;
        let crawl = InitialCrawl::build(&osn, RandomWalkKind::Simple, start, h).unwrap();
        let matrix = TransitionMatrix::new(&graph, RandomWalkKind::Simple);
        for t in 0..=h {
            let exact = matrix.distribution_after(start, t);
            for v in graph.nodes() {
                let from_crawl = if crawl.contains(v) || exact[v.index()] == 0.0 {
                    crawl.exact_probability(t, v)
                } else {
                    // Nodes outside the crawl must have zero true probability
                    // for t <= h.
                    assert_eq!(exact[v.index()], 0.0, "node {v} at t={t}");
                    0.0
                };
                assert!(
                    (from_crawl - exact[v.index()]).abs() < 1e-12,
                    "t={t} v={v}: {from_crawl} vs {}",
                    exact[v.index()]
                );
            }
        }
    }

    #[test]
    fn crawl_probabilities_match_exact_evolution_mhrw() {
        let graph = barabasi_albert(60, 3, 13).unwrap();
        let osn = SimulatedOsn::new(graph.clone());
        let start = NodeId(2);
        let h = 3;
        let crawl =
            InitialCrawl::build(&osn, RandomWalkKind::MetropolisHastings, start, h).unwrap();
        let matrix = TransitionMatrix::new(&graph, RandomWalkKind::MetropolisHastings);
        for t in 0..=h {
            let exact = matrix.distribution_after(start, t);
            for v in graph.nodes() {
                let got = if t <= crawl.depth() {
                    crawl.exact_probability(t, v)
                } else {
                    0.0
                };
                assert!((got - exact[v.index()]).abs() < 1e-12, "t={t} v={v}");
            }
        }
    }

    #[test]
    fn crawl_probabilities_are_bit_identical_across_threads() {
        let graph = barabasi_albert(5_000, 3, 23).unwrap();
        for kind in [RandomWalkKind::Simple, RandomWalkKind::MetropolisHastings] {
            let build = || {
                let osn = SimulatedOsn::new(graph.clone());
                std::thread::spawn(move || InitialCrawl::build(&osn, kind, NodeId(0), 2).unwrap())
            };
            let (a, b) = (build(), build());
            let (a, b) = (a.join().unwrap(), b.join().unwrap());
            let bits = |crawl: &InitialCrawl| {
                let p_t = crawl.probabilities.iter().flatten();
                (
                    crawl.order.clone(),
                    p_t.map(|p| p.to_bits()).collect::<Vec<_>>(),
                )
            };
            assert_eq!(bits(&a), bits(&b), "{kind:?}");
        }
    }

    #[test]
    fn crawl_of_depth_zero_is_just_the_start() {
        let osn = SimulatedOsn::new(cycle(6));
        let crawl = InitialCrawl::build(&osn, RandomWalkKind::Simple, NodeId(0), 0).unwrap();
        assert_eq!(crawl.crawled_nodes(), 1);
        assert_eq!(crawl.exact_probability(0, NodeId(0)), 1.0);
        assert_eq!(crawl.exact_probability(0, NodeId(1)), 0.0);
    }

    #[test]
    #[should_panic(expected = "crawl only covers")]
    fn asking_beyond_depth_panics() {
        let osn = SimulatedOsn::new(cycle(6));
        let crawl = InitialCrawl::build(&osn, RandomWalkKind::Simple, NodeId(0), 1).unwrap();
        let _ = crawl.exact_probability(2, NodeId(0));
    }

    #[test]
    fn star_crawl_has_exact_hub_probabilities() {
        // From a leaf of a star, p_1(hub) = 1 and p_2(leaves) = 1/(n-1) each
        // under SRW.
        let n = 6;
        let osn = SimulatedOsn::new(star(n));
        let crawl = InitialCrawl::build(&osn, RandomWalkKind::Simple, NodeId(3), 2).unwrap();
        assert_eq!(crawl.exact_probability(1, NodeId(0)), 1.0);
        for leaf in 1..n as u32 {
            assert!(
                (crawl.exact_probability(2, NodeId(leaf)) - 1.0 / (n as f64 - 1.0)).abs() < 1e-12
            );
        }
        assert_eq!(crawl.exact_probability(2, NodeId(0)), 0.0);
        assert_eq!(crawl.degree(NodeId(0)), Some(n - 1));
        assert_eq!(crawl.start(), NodeId(3));
    }

    #[test]
    fn crawl_query_cost_is_bounded_by_neighborhood_size() {
        let graph = barabasi_albert(200, 3, 17).unwrap();
        let osn = SimulatedOsn::new(graph);
        let crawl = InitialCrawl::build(&osn, RandomWalkKind::Simple, NodeId(0), 2).unwrap();
        assert_eq!(osn.query_cost(), crawl.crawled_nodes() as u64);
    }
}
