//! Micro-probes run after the traced window: ns per warm random
//! `neighbors` call as access wrappers are added one at a time, and the
//! worker pool's cost to dispatch one empty round.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::Instant;
use wnw_access::{
    CachedNetwork, FaultProfile, FaultyNetwork, MeteredNetwork, ResilientNetwork, SimulatedOsn,
    SocialNetwork,
};
use wnw_graph::NodeId;
use wnw_runtime::WorkerPool;

/// Distinct nodes probed; each probe first touches all of them once.
const PROBE_NODES: usize = 4_096;
/// Timed calls per probe.
const PROBE_CALLS: usize = 200_000;
/// Empty rounds timed by the dispatch probe.
const DISPATCH_ROUNDS: usize = 20_000;

/// Mean ns per call of `net.neighbors` over random nodes it has seen.
fn ns_per_call<N: SocialNetwork>(net: &N, nodes: &[NodeId]) -> f64 {
    for &v in nodes {
        black_box(net.neighbors(v).expect("probe node exists"));
    }
    let start = Instant::now();
    for i in 0..PROBE_CALLS {
        black_box(
            net.neighbors(nodes[i % nodes.len()])
                .expect("probe node exists"),
        );
    }
    start.elapsed().as_nanos() as f64 / PROBE_CALLS as f64
}

/// `access.probe_ns.*`: the bare backend, then cache, then metering over
/// the cache, then the full `Metered<Cached<Resilient<Faulty(off)>>>`.
pub fn access_probe_ns(osn: &SimulatedOsn, seed: u64) -> Vec<(&'static str, f64)> {
    let n = osn.node_count_hint().expect("simulated OSN knows its size") as u32;
    let mut rng = StdRng::seed_from_u64(seed);
    let nodes: Vec<NodeId> = (0..PROBE_NODES)
        .map(|_| NodeId(rng.gen_range(0..n)))
        .collect();
    let cached = CachedNetwork::new(osn);
    let full = MeteredNetwork::new(CachedNetwork::new(ResilientNetwork::with_defaults(
        FaultyNetwork::new(osn, seed, FaultProfile::OFF),
    )));
    vec![
        ("access.probe_ns.simulated", ns_per_call(osn, &nodes)),
        ("access.probe_ns.cached_hit", ns_per_call(&cached, &nodes)),
        (
            "access.probe_ns.metered_cached",
            ns_per_call(&MeteredNetwork::new(&cached), &nodes),
        ),
        ("access.probe_ns.full_stack", ns_per_call(&full, &nodes)),
    ]
}

/// Microseconds to dispatch one round of `lanes` empty tasks on a pool of
/// that width (the runtime's share of every dispatched engine round).
pub fn dispatch_us(lanes: usize) -> f64 {
    let pool = WorkerPool::new(lanes.max(2));
    let mut items = vec![0u64; lanes.max(2)];
    let start = Instant::now();
    for _ in 0..DISPATCH_ROUNDS {
        pool.round(&mut items, |x| *x = black_box(*x + 1));
    }
    start.elapsed().as_secs_f64() * 1e6 / DISPATCH_ROUNDS as f64
}
