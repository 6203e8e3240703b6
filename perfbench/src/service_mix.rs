//! `service_mix`: open-loop Poisson arrivals into an in-process service.
//!
//! One generator thread submits jobs at due times fixed before the run,
//! and polls every open stream between submissions. Jobs start at
//! Zipf-skewed nodes, so they share a skewed working set: the shared-cache
//! hit path, history-store reads beside publishes, and the scheduler's
//! admission and interleaving carry the time, and queueing shows in the
//! time-to-first-sample tail.
//!
//! A job's first-sample and done times are the moments the service
//! published them, read from its exported per-job trace
//! (`SamplingService::trace_of`) and placed on the generator's clock at the
//! job's `submit` call. The generator's own poll only sees them once it
//! gets a CPU back from the service's two lanes, which on a 2-core machine
//! added 0.1–0.5 ms to a ~1 ms TTFS, differently from run to run.

use crate::report::{LayerMetrics, Tally};
use crate::stats::{delta_quantile, derive_seed, ms_between, quantile, ratio};
use crate::timed::{AccessTimer, TimedNetwork};
use crate::trace::{Layer, Tracer};
use crate::workload::{PassCounters, SetupTimes, Workload};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::zipf::Zipf;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::{Duration, Instant};
use wnw_access::SimulatedOsn;
use wnw_engine::SampleJob;
use wnw_graph::generators::random::barabasi_albert;
use wnw_graph::NodeId;
use wnw_mcmc::RandomWalkKind;
use wnw_service::{
    HistoryPolicy, JobId, JobOutcome, JobStatus, SampleEvent, SampleRequest, SampleStream,
    SamplingService, StreamPoll,
};

const NODES: usize = 100_000;
const GRAPH_SEED: u64 = 0x5eed_0002;
const POOL_THREADS: usize = 2;
/// Offered load: about a sixth of the ~600 jobs/s this mix completes when
/// saturated on a 2-core x86-64 machine. Nearer saturation, queueing turns
/// the machine's scheduling noise into ±25 % swings of the median TTFS
/// between runs; here queueing still shows in the tail.
const RATE_PER_S: f64 = 100.0;
const ZIPF_S: f64 = 1.1;
/// Fixes which node holds each popularity rank (see [`plan`]).
const POPULARITY_SEED: u64 = 0x9e37_0002;
const SAMPLES: usize = 4;
const WALKERS: usize = 2;
const BUDGET: u64 = 1_000_000;
const DIAMETER: usize = 4;
const WARMUP_JOBS: usize = 48;
/// Warm-up jobs are the same for every seed, so set-up times compare.
const WARMUP_SEED: u64 = 0x3a11_0002;
/// Sleep between stream polls while jobs are in flight (Linux stretches it
/// to ~60 µs); spinning instead would take CPU from the service's lanes.
const POLL: Duration = Duration::from_micros(10);

type Net = TimedNetwork<SimulatedOsn>;

/// One planned request.
#[derive(Debug, Clone, Copy)]
struct Planned {
    due: Duration,
    seed: u64,
    start: u32,
    policy: HistoryPolicy,
}

impl Planned {
    fn request(&self) -> SampleRequest {
        SampleRequest::new(
            SampleJob::walk_estimate(RandomWalkKind::Simple, SAMPLES, self.seed)
                .with_walkers(WALKERS)
                .with_budget(BUDGET)
                .with_diameter_estimate(DIAMETER)
                .with_start_node(NodeId(self.start)),
        )
        .with_history_policy(self.policy)
    }
}

/// `count` jobs with Zipf(`ZIPF_S`) start nodes and a 40/40/20 isolated /
/// shared-publish / shared-read history mix. Due times are a Poisson
/// process conditioned on `count` arrivals in `span`: sorted uniform
/// offsets.
///
/// Popularity ranks map to nodes through a fixed random permutation, so
/// the popular start nodes are a fixed sample of the graph rather than its
/// hubs. With rank 1 on node 0 (the top hub of a BA graph) a tenth of the
/// jobs crawled the hub, and those crawls, not the service, set the median
/// TTFS; `engine_batch` measures hub crawls. Ranks are also stratified —
/// one draw from each of `count` equal slices of the Zipf CDF — and the
/// policies are split exactly, both shuffled over the jobs, so every seed
/// offers the same mix while still picking the nodes, order and timing.
fn plan(seed: u64, count: usize, span: Duration) -> Vec<Planned> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut dues: Vec<Duration> = (0..count).map(|_| span.mul_f64(rng.gen::<f64>())).collect();
    dues.sort_unstable();

    let zipf = Zipf::new(NODES, ZIPF_S);
    let mut cdf = Vec::with_capacity(NODES);
    let mut total = 0.0;
    for rank in 1..=NODES {
        total += zipf.probability(rank);
        cdf.push(total);
    }
    let ranks: Vec<u32> = (0..count)
        .map(|i| {
            let u = total * (i as f64 + rng.gen::<f64>()) / count as f64;
            cdf.partition_point(|&c| c < u).min(NODES - 1) as u32
        })
        .collect();
    let mut by_rank: Vec<u32> = (0..NODES as u32).collect();
    by_rank.shuffle(&mut StdRng::seed_from_u64(POPULARITY_SEED));
    let mut starts: Vec<u32> = ranks.into_iter().map(|r| by_rank[r as usize]).collect();
    starts.shuffle(&mut rng);
    let isolated = (count as f64 * 0.4).round() as usize;
    let publish = (count as f64 * 0.8).round() as usize;
    let mut policies: Vec<HistoryPolicy> = (0..count)
        .map(|i| match i {
            i if i < isolated => HistoryPolicy::Isolated,
            i if i < publish => HistoryPolicy::SharedPublish,
            _ => HistoryPolicy::SharedReadOnly,
        })
        .collect();
    policies.shuffle(&mut rng);

    (0..count)
        .map(|i| Planned {
            due: dues[i],
            seed: derive_seed(seed, i as u64),
            start: starts[i],
            policy: policies[i],
        })
        .collect()
}

/// The service workload's stack and job list.
pub struct ServiceMix {
    service: SamplingService<Net>,
    timer: Arc<AccessTimer>,
    plan: Vec<Planned>,
}

/// A submitted job whose stream is still open.
struct Live {
    id: JobId,
    index: usize,
    due: Instant,
    submit_start: Instant,
    submit_end: Instant,
    stream: SampleStream,
    nodes: Vec<u32>,
    attempts: u64,
}

impl Live {
    /// Drains buffered events; returns the outcome once the stream ended.
    fn poll(&mut self) -> Option<Option<JobOutcome>> {
        loop {
            match self.stream.poll_next() {
                StreamPoll::Empty => return None,
                StreamPoll::Finished => return Some(None),
                StreamPoll::Event(SampleEvent::Sample { record, .. }) => {
                    self.nodes.push(record.node.0);
                    self.attempts += u64::from(record.attempts);
                }
                StreamPoll::Event(SampleEvent::Progress(_)) => {}
                StreamPoll::Event(SampleEvent::Done(outcome)) => return Some(Some(outcome)),
            }
        }
    }
}

impl ServiceMix {
    /// When the service published `job`'s first sample and its outcome,
    /// from the job's trace, on the generator's clock: the trace's
    /// `submitted` event is taken to be the start of the `submit` call.
    fn published(&self, job: &Live) -> Option<(Instant, Instant)> {
        let events = self.service.trace_of(job.id);
        let at = |kind: &str| events.iter().find(|e| e.kind.label() == kind).map(|e| e.at);
        let submitted = at("submitted")?;
        let on_clock = |t: Duration| job.submit_start + t.saturating_sub(submitted);
        Some((on_clock(at("sample_published")?), on_clock(at("finished")?)))
    }
}

impl Workload for ServiceMix {
    const CLIENT_THREADS: usize = 1;
    const CLIENT_CONNECTIONS: usize = 0;

    fn setup(seed: u64, seconds: f64) -> Result<(Self, SetupTimes), String> {
        let t0 = Instant::now();
        let graph = barabasi_albert(NODES, 3, GRAPH_SEED).map_err(|e| e.to_string())?;
        let t1 = Instant::now();
        let timer = Arc::new(AccessTimer::default());
        let service = SamplingService::builder(TimedNetwork::new(
            SimulatedOsn::new(graph),
            Arc::clone(&timer),
        ))
        .pool_threads(POOL_THREADS)
        .telemetry(true)
        .build();
        let t2 = Instant::now();
        // Warm the shared cache and the history store with jobs drawn from
        // the same mix, all in flight at once.
        let warm = plan(WARMUP_SEED, WARMUP_JOBS, Duration::ZERO);
        let tickets = warm
            .iter()
            .map(|p| service.submit(p.request()).map_err(|e| e.to_string()))
            .collect::<Result<Vec<_>, _>>()?;
        for ticket in tickets {
            match ticket.stream.wait() {
                Some(o) if o.status == JobStatus::Completed => {}
                other => return Err(format!("warm-up job ended as {other:?}")),
            }
        }
        let t3 = Instant::now();
        let count = (RATE_PER_S * seconds).round().max(1.0) as usize;
        let times = SetupTimes {
            graph_s: (t1 - t0).as_secs_f64(),
            start_s: (t2 - t1).as_secs_f64(),
            warmup_s: (t3 - t2).as_secs_f64(),
        };
        Ok((
            ServiceMix {
                service,
                timer,
                plan: plan(seed, count, Duration::from_secs_f64(seconds)),
            },
            times,
        ))
    }

    fn job_lines(&self) -> Vec<String> {
        self.plan
            .iter()
            .enumerate()
            .map(|(i, p)| {
                format!(
                    "{i}|{}us|seed{}|n{}|{:?}|s{SAMPLES}|w{WALKERS}|b{BUDGET}",
                    p.due.as_micros(),
                    p.seed,
                    p.start,
                    p.policy
                )
            })
            .collect()
    }

    fn pass(
        &mut self,
        _seconds: f64,
        tracer: &mut Tracer,
        layers: &mut LayerMetrics,
    ) -> (Tally, PassCounters) {
        let mut tally = Tally::default();
        let before = self.service.metrics();
        let access_before = self.timer.counts();
        let (mut lag_ms, mut submit_us, mut busy) = (Vec::new(), Vec::new(), Vec::new());
        let mut rounds = 0u64;
        let mut live: Vec<Live> = Vec::new();
        let mut next = 0usize;

        let start = Instant::now();
        loop {
            while next < self.plan.len() && start + self.plan[next].due <= Instant::now() {
                let planned = self.plan[next];
                let due = start + planned.due;
                tally.attempted += 1;
                let submit_start = Instant::now();
                let submitted = self.service.submit(planned.request());
                let submit_end = Instant::now();
                lag_ms.push(ms_between(due, submit_start));
                submit_us.push(ms_between(submit_start, submit_end) * 1e3);
                match submitted {
                    Ok(ticket) => live.push(Live {
                        id: ticket.id,
                        index: next,
                        due,
                        submit_start,
                        submit_end,
                        stream: ticket.stream,
                        nodes: Vec::with_capacity(SAMPLES),
                        attempts: 0,
                    }),
                    Err(e) => tally.fail(format!("job {next}: rejected: {e}")),
                }
                next += 1;
            }

            let mut k = 0;
            while k < live.len() {
                let Some(outcome) = live[k].poll() else {
                    k += 1;
                    continue;
                };
                let job = live.swap_remove(k);
                let Some(outcome) = outcome else {
                    tally.fail(format!("job {}: stream ended without done", job.index));
                    continue;
                };
                let planned = self.plan[job.index];
                if outcome.status != JobStatus::Completed
                    || outcome.samples != SAMPLES
                    || job.nodes.len() != SAMPLES
                {
                    tally.fail(format!(
                        "job {}: {} with {} of {SAMPLES} samples",
                        job.index,
                        outcome.status.label(),
                        job.nodes.len()
                    ));
                    continue;
                }
                if let Some(bad) = job.nodes.iter().find(|&&n| n as usize >= NODES) {
                    tally.fail(format!("job {}: node {bad} out of range", job.index));
                    continue;
                }
                let Some((first, done)) = self.published(&job) else {
                    tally.fail(format!("job {}: no first-sample/finish trace", job.index));
                    continue;
                };
                tally.completed(job.due, first, done, SAMPLES as u64);
                busy.push((job.due, done));
                tally.attempts += job.attempts;
                tally.cost_queries += outcome.query_cost;
                tally.cost_samples += SAMPLES as u64;
                rounds += outcome.rounds as u64;
                if tracer.enabled() {
                    let id = job.index as u64;
                    let root =
                        tracer.record(None, id, Layer::Harness, "harness.job", job.due, done);
                    let running = (job.submit_start + outcome.queue_wait).min(first);
                    for (layer, name, a, b) in [
                        (Layer::Harness, "harness.lag", job.due, job.submit_start),
                        (
                            Layer::Service,
                            "service.submit",
                            job.submit_start,
                            job.submit_end,
                        ),
                        (Layer::Service, "service.queue", job.submit_end, running),
                        (Layer::Compute, "service.first_sample", running, first),
                        (Layer::Compute, "service.done", first, done),
                    ] {
                        tracer.record(Some(root), id, layer, name, a, b);
                    }
                }
                if planned.policy == HistoryPolicy::Isolated {
                    tally.isolated_job(job.index, job.nodes);
                }
            }

            if next == self.plan.len() && live.is_empty() {
                break;
            }
            let until_due = self.plan.get(next).map_or(Duration::MAX, |p| {
                (start + p.due).saturating_duration_since(Instant::now())
            });
            std::thread::sleep(if live.is_empty() {
                until_due
            } else {
                until_due.min(POLL)
            });
        }
        tally.window_s = start.elapsed().as_secs_f64();

        let after = self.service.metrics();
        let jobs = tally.jobs_done as f64;
        let calls = (after.pool.api_calls - before.pool.api_calls) as f64;
        let hits = (after.pool.cache_hits - before.pool.cache_hits) as f64;
        layers.set(
            "access.calls_per_sample",
            ratio(calls, tally.samples as f64),
        );
        layers.set("access.cache_hit_ratio", ratio(hits, calls));
        set_service_metrics(layers, &before, &after, &submit_us, jobs, rounds);
        layers.set("harness.lag_ms_p99", quantile(&lag_ms, 0.99));
        crate::set_pool_metrics(layers, &before.worker_pool, &after.worker_pool);
        let counters = PassCounters {
            access: self.timer.counts().since(access_before),
            rounds_dispatched: after.worker_pool.rounds_dispatched
                - before.worker_pool.rounds_dispatched,
            lanes: POOL_THREADS,
            busy_s: union_s(busy),
        };
        (tally, counters)
    }

    fn timer(&self) -> &AccessTimer {
        &self.timer
    }

    fn osn(&self) -> &SimulatedOsn {
        self.service.network().inner()
    }
}

/// Service, history and engine-round metrics from two service snapshots.
pub fn set_service_metrics(
    layers: &mut LayerMetrics,
    before: &wnw_service::ServiceMetricsSnapshot,
    after: &wnw_service::ServiceMetricsSnapshot,
    submit_us: &[f64],
    jobs: f64,
    rounds: u64,
) {
    let q = |a: &wnw_service::HistogramSnapshot, b: &wnw_service::HistogramSnapshot, p: f64| {
        delta_quantile(a, b, p)
    };
    layers.set("service.submit_us_p50", quantile(submit_us, 0.5));
    layers.set("service.submit_us_p99", quantile(submit_us, 0.99));
    let (qa, qb) = (&after.queue_wait_histogram, &before.queue_wait_histogram);
    layers.set("service.queue_wait_ms_p50", q(qa, qb, 0.5) / 1e3);
    layers.set("service.queue_wait_ms_p99", q(qa, qb, 0.99) / 1e3);
    layers.set(
        "service.ttfs_ms_p50",
        q(
            &after.first_sample_histogram,
            &before.first_sample_histogram,
            0.5,
        ) / 1e3,
    );
    let aggregate = (after.aggregate_query_cost - before.aggregate_query_cost) as f64;
    let isolated = (after.isolated_query_cost - before.isolated_query_cost) as f64;
    layers.set(
        "service.shared_cache_savings",
        if isolated > 0.0 {
            1.0 - aggregate / isolated
        } else {
            0.0
        },
    );
    let (h, hb) = (&after.history, &before.history);
    let hits = (h.hits - hb.hits) as f64;
    let misses = (h.misses - hb.misses) as f64;
    layers.set("history.hit_ratio", ratio(hits, hits + misses));
    layers.set(
        "history.reused_walks_per_job",
        ratio((h.reused_walks - hb.reused_walks) as f64, jobs),
    );
    layers.set(
        "history.publications",
        (h.publications - hb.publications) as f64,
    );
    let (ra, rb) = (
        &after.round_duration_histogram,
        &before.round_duration_histogram,
    );
    layers.set("engine.round_us_p50", q(ra, rb, 0.5));
    layers.set("engine.round_us_p99", q(ra, rb, 0.99));
    layers.set("engine.rounds_per_job", ratio(rounds as f64, jobs));
}

/// Total length of the union of `intervals`, in seconds.
fn union_s(mut intervals: Vec<(Instant, Instant)>) -> f64 {
    intervals.sort_unstable();
    let mut total = Duration::ZERO;
    let mut current: Option<(Instant, Instant)> = None;
    for (a, b) in intervals {
        current = match current {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((ca, cb)) = current {
        total += cb - ca;
    }
    total.as_secs_f64()
}
