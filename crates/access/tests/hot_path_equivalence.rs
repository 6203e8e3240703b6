//! The batched and list-free access paths answer exactly like the plain
//! ones: `charge_all` like a loop of `charge`, and `degree` like
//! `neighbors(v)?.len()`, down to every counter and the cache contents.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use wnw_access::{
    CachedNetwork, MeteredNetwork, QueryBudget, QueryStats, Rebased, Result, SimulatedOsn,
    SocialNetwork,
};
use wnw_graph::generators::random::barabasi_albert;
use wnw_graph::{Graph, NodeId};

const NODES: usize = 300;

fn graph() -> Graph {
    barabasi_albert(NODES, 3, 5).unwrap()
}

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

/// Charges `nodes` through `charge_all` on one network and through a loop
/// of `charge` on a twin, and checks that result and stats agree.
fn assert_charge_all_matches_loop<N: SocialNetwork>(
    all: &N,
    one_by_one: &N,
    nodes: &[NodeId],
) -> Result<()> {
    let looped = nodes.iter().try_for_each(|&v| one_by_one.charge(v));
    let batched = all.charge_all(nodes);
    assert_eq!(batched, looped);
    assert_eq!(all.query_stats(), one_by_one.query_stats());
    batched
}

#[test]
fn charge_all_equals_a_loop_of_charge_on_every_forwarding_wrapper() {
    let cache = CachedNetwork::new(SimulatedOsn::new(graph()));
    let nodes: Vec<NodeId> = [1, 2, 1, 3, 4, 2, 5, 6, 7].map(NodeId).to_vec();
    // Budget 5 runs out at node 6, in the middle of the list; budget 20
    // never does.
    for budget in [5, 20] {
        let metered = || MeteredNetwork::with_budget(&cache, QueryBudget(budget));
        let expect_err = budget == 5;

        let (a, b) = (metered(), metered());
        assert_eq!(
            assert_charge_all_matches_loop(&a, &b, &nodes).is_err(),
            expect_err
        );
        assert_eq!(a.query_cost(), 7.min(budget));

        let (a, b) = (Rebased::new(metered(), None), Rebased::new(metered(), None));
        assert_charge_all_matches_loop(&a, &b, &nodes).ok();
        assert_eq!(a.inner().query_stats(), b.inner().query_stats());

        let (a, b) = (metered(), metered());
        assert_charge_all_matches_loop(&&a, &&b, &nodes).ok();

        let (a, b) = (Arc::new(metered()), Arc::new(metered()));
        assert_charge_all_matches_loop(&a, &b, &nodes).ok();
    }
    // None of the views queried the cache.
    assert_eq!(cache.query_stats(), QueryStats::default());
}

#[test]
fn charge_all_default_issues_the_queries_a_loop_would() {
    // A backend with no charge override answers charge by querying, so the
    // default charge_all must query the same nodes and fail the same way.
    let a = SimulatedOsn::builder(graph())
        .budget(QueryBudget(4))
        .build();
    let b = SimulatedOsn::builder(graph())
        .budget(QueryBudget(4))
        .build();
    let nodes: Vec<NodeId> = [3, 3, 8, NODES as u32 + 1, 9, 10, 11].map(NodeId).to_vec();
    assert!(assert_charge_all_matches_loop(&&a, &&b, &nodes).is_err());
    assert!(assert_charge_all_matches_loop(&Arc::new(a), &Arc::new(b), &nodes[..2]).is_ok());
}

/// A cache over a backend with its own budget.
fn cached_stack(backend_budget: u64) -> CachedNetwork<SimulatedOsn> {
    let backend = SimulatedOsn::builder(graph())
        .budget(QueryBudget(backend_budget))
        .build();
    CachedNetwork::new(backend)
}

/// Runs `nodes` through `degree` on one stack and `neighbors(v)?.len()` on
/// the other, comparing every answer, the view, cache and backend stats,
/// and which lists ended up cached.
fn assert_degree_matches_list_length(view_budget: u64, backend_budget: u64, seed: u64) {
    let (by_degree, by_list) = (cached_stack(backend_budget), cached_stack(backend_budget));
    let view_a = MeteredNetwork::with_budget(&by_degree, QueryBudget(view_budget));
    let view_b = MeteredNetwork::with_budget(&by_list, QueryBudget(view_budget));
    let mut errors = 0;
    for v in sequence(seed, 400) {
        let got = view_a.degree(v);
        let want = view_b.neighbors(v).map(|list| list.len());
        assert_eq!(got, want, "node {v}");
        errors += usize::from(got.is_err());
        // The cache alone, without a view above it.
        assert_eq!(by_degree.degree(v), by_list.neighbors(v).map(|l| l.len()));
    }
    assert!(errors > 0, "the sequence hits unknown nodes");
    assert_eq!(view_a.query_stats(), view_b.query_stats());
    assert_eq!(by_degree.query_stats(), by_list.query_stats());
    assert_eq!(
        by_degree.inner().query_stats(),
        by_list.inner().query_stats()
    );
    assert_eq!(by_degree.cached_nodes(), by_list.cached_nodes());
    for v in 0..NODES as u32 + 10 {
        let v = NodeId(v);
        assert_eq!(by_degree.is_cached(v), by_list.is_cached(v), "{v}");
        if by_degree.is_cached(v) {
            assert_eq!(
                by_degree.neighbors(v).unwrap(),
                by_list.neighbors(v).unwrap()
            );
        }
    }
}

#[test]
fn degree_equals_neighbor_list_length_with_unlimited_budgets() {
    assert_degree_matches_list_length(u64::MAX, u64::MAX, 1);
}

#[test]
fn degree_equals_neighbor_list_length_when_the_view_budget_runs_out() {
    assert_degree_matches_list_length(25, u64::MAX, 2);
}

#[test]
fn degree_equals_neighbor_list_length_when_the_backend_budget_runs_out() {
    assert_degree_matches_list_length(u64::MAX, 30, 3);
}
