//! `engine_batch`: back-to-back WALK-ESTIMATE jobs on the engine alone.
//!
//! One caller runs `Engine::run_observed` closed loop over a 1M-node
//! Barabási–Albert graph. Each job starts with a cold `CachedNetwork` and
//! its working set is far larger than the CPU caches, so access, core and
//! engine rounds do nearly all the work; service and gateway do none.

use crate::report::{LayerMetrics, Tally};
use crate::stats::{derive_seed, ms_between, quantile, ratio};
use crate::timed::{AccessTimer, TimedNetwork};
use crate::trace::{Layer, Tracer};
use crate::workload::{PassCounters, SetupTimes, Workload};
use std::sync::Arc;
use std::time::{Duration, Instant};
use wnw_access::SimulatedOsn;
use wnw_engine::{Engine, EngineObserver, RoundProgress, SampleJob};
use wnw_graph::generators::random::barabasi_albert;
use wnw_mcmc::sampler::SampleRecord;
use wnw_mcmc::RandomWalkKind;

const NODES: usize = 1_000_000;
const GRAPH_SEED: u64 = 0x5eed_0001;
const THREADS: usize = 2;
const SAMPLES: usize = 64;
const WALKERS: usize = 8;
const DIAMETER: usize = 4;
/// Distinct jobs in the list. The window replays the list in order and
/// always completes it at least once; `query_cost_per_sample` is taken
/// over that first pass, so it is fixed for a fixed seed.
const JOBS: usize = 8;
/// The warm-up job is the same for every seed, so set-up times compare.
const WARMUP_SEED: u64 = 0x3a11_0001;

/// The engine workload's stack and job list.
pub struct EngineBatch {
    net: TimedNetwork<SimulatedOsn>,
    timer: Arc<AccessTimer>,
    engine: Engine,
    jobs: Vec<SampleJob>,
}

fn job(samples: usize, seed: u64) -> SampleJob {
    SampleJob::walk_estimate(RandomWalkKind::Simple, samples, seed)
        .with_walkers(WALKERS)
        .with_diameter_estimate(DIAMETER)
}

/// Stamps a job's first sample and, when tracing, each round's interval.
struct Watch {
    first_sample: Option<Instant>,
    samples: usize,
    attempts: u64,
    rounds: usize,
    trace_rounds: bool,
    round_start: Instant,
    round_spans: Vec<(Instant, Instant)>,
}

impl EngineObserver for Watch {
    fn on_sample(&mut self, _walker: usize, record: &SampleRecord) {
        self.first_sample.get_or_insert_with(Instant::now);
        self.samples += 1;
        self.attempts += u64::from(record.attempts);
    }

    fn on_round(&mut self, _progress: &RoundProgress) {
        self.rounds += 1;
        if self.trace_rounds {
            self.round_spans.push((self.round_start, Instant::now()));
        }
    }

    fn cancel_requested(&mut self) -> bool {
        if self.trace_rounds {
            self.round_start = Instant::now();
        }
        false
    }
}

impl Workload for EngineBatch {
    const CLIENT_THREADS: usize = 1;
    const CLIENT_CONNECTIONS: usize = 0;

    fn setup(seed: u64, _seconds: f64) -> Result<(Self, SetupTimes), String> {
        let t0 = Instant::now();
        let graph = barabasi_albert(NODES, 3, GRAPH_SEED).map_err(|e| e.to_string())?;
        let t1 = Instant::now();
        let timer = Arc::new(AccessTimer::default());
        let net = TimedNetwork::new(SimulatedOsn::new(graph), Arc::clone(&timer));
        let engine = Engine::with_threads(THREADS);
        let t2 = Instant::now();
        let warm = job(SAMPLES / 4, WARMUP_SEED);
        let report = engine.run(&net, &warm).map_err(|e| e.to_string())?;
        if report.len() != warm.samples {
            return Err(format!("warm-up job delivered {} samples", report.len()));
        }
        let t3 = Instant::now();
        let jobs = (0..JOBS as u64)
            .map(|i| job(SAMPLES, derive_seed(seed, i)))
            .collect();
        let times = SetupTimes {
            graph_s: (t1 - t0).as_secs_f64(),
            start_s: (t2 - t1).as_secs_f64(),
            warmup_s: (t3 - t2).as_secs_f64(),
        };
        Ok((
            EngineBatch {
                net,
                timer,
                engine,
                jobs,
            },
            times,
        ))
    }

    fn job_lines(&self) -> Vec<String> {
        self.jobs
            .iter()
            .enumerate()
            .map(|(i, j)| format!("{i}|seed{}|s{}|w{}", j.seed, j.samples, j.walkers))
            .collect()
    }

    fn pass(
        &mut self,
        seconds: f64,
        tracer: &mut Tracer,
        layers: &mut LayerMetrics,
    ) -> (Tally, PassCounters) {
        let mut tally = Tally {
            closed_loop: true,
            ..Tally::default()
        };
        let pool_before = self.engine.pool().stats();
        let access_before = self.timer.counts();
        let (mut rounds, mut api_calls, mut cache_hits) = (0usize, 0u64, 0u64);
        let mut round_us = Vec::new();

        let start = Instant::now();
        let deadline = start + Duration::from_secs_f64(seconds);
        let mut i = 0usize;
        while i < JOBS || Instant::now() < deadline {
            let index = i % JOBS;
            let job = &self.jobs[index];
            tally.attempted += 1;
            let mut watch = Watch {
                first_sample: None,
                samples: 0,
                attempts: 0,
                rounds: 0,
                trace_rounds: tracer.enabled(),
                round_start: Instant::now(),
                round_spans: Vec::new(),
            };
            let sent = Instant::now();
            let result = self.engine.run_observed(&self.net, job, &mut watch);
            let returned = Instant::now();
            match result {
                Err(e) => tally.fail(format!("job {index}: {e}")),
                Ok(report) => {
                    let nodes: Vec<u32> = report.samples.iter().map(|s| s.node.0).collect();
                    if report.len() != job.samples
                        || watch.samples != report.len()
                        || report.cancelled
                        || report.degraded
                        || report.budget_exhausted()
                    {
                        tally.fail(format!(
                            "job {index}: {} of {} samples ({} streamed)",
                            report.len(),
                            job.samples,
                            watch.samples
                        ));
                    } else if let Some(bad) = nodes.iter().find(|&&n| n as usize >= NODES) {
                        tally.fail(format!("job {index}: node {bad} out of range"));
                    } else {
                        let first = watch.first_sample.unwrap_or(returned);
                        tally.completed(sent, first, returned, report.len() as u64);
                        tally.attempts += watch.attempts;
                        if i < JOBS {
                            tally.cost_queries += report.query_cost();
                            tally.cost_samples += report.len() as u64;
                        }
                        tally.isolated_job(index, nodes);
                        rounds += watch.rounds;
                        api_calls += report.pool_stats.api_calls;
                        cache_hits += report.pool_stats.cache_hits;
                    }
                }
            }
            if tracer.enabled() {
                let root = tracer.record(
                    None,
                    i as u64,
                    Layer::Harness,
                    "harness.job",
                    sent,
                    Instant::now(),
                );
                let run = tracer.record(
                    Some(root),
                    i as u64,
                    Layer::Engine,
                    "engine.job",
                    sent,
                    returned,
                );
                for &(a, b) in &watch.round_spans {
                    tracer.record(Some(run), i as u64, Layer::Compute, "engine.round", a, b);
                    round_us.push(ms_between(a, b) * 1e3);
                }
            }
            i += 1;
        }
        tally.window_s = start.elapsed().as_secs_f64();

        let pool = self.engine.pool().stats();
        let samples = tally.samples as f64;
        layers.set("access.calls_per_sample", ratio(api_calls as f64, samples));
        layers.set(
            "access.cache_hit_ratio",
            ratio(cache_hits as f64, api_calls as f64),
        );
        layers.set("engine.round_us_p50", quantile(&round_us, 0.5));
        layers.set("engine.round_us_p99", quantile(&round_us, 0.99));
        layers.set(
            "engine.rounds_per_job",
            ratio(rounds as f64, tally.jobs_done as f64),
        );
        crate::set_pool_metrics(layers, &pool_before, &pool);
        let counters = PassCounters {
            access: self.timer.counts().since(access_before),
            rounds_dispatched: pool.rounds_dispatched - pool_before.rounds_dispatched,
            lanes: self.engine.threads(),
            busy_s: tally.window_s,
        };
        (tally, counters)
    }

    fn timer(&self) -> &AccessTimer {
        &self.timer
    }

    fn osn(&self) -> &SimulatedOsn {
        self.net.inner()
    }
}
