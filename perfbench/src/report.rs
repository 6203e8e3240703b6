//! What one timed pass of a workload observed, and the metric list printed.

use crate::stats::{fingerprint, quantile, ratio};
use std::collections::BTreeMap;
use std::time::Instant;

/// One named metric with its unit.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Shorthand constructor.
pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// End-to-end observations of one timed pass.
#[derive(Debug, Default)]
pub struct Tally {
    /// Jobs the pass attempted (submitted or started).
    pub attempted: u64,
    /// One entry per failed job or failed output check.
    pub failures: Vec<String>,
    /// Jobs that finished with every output check passing.
    pub jobs_done: u64,
    /// Samples delivered by those jobs.
    pub samples: u64,
    /// Time to first sample per job, from due (open loop) or sent (closed
    /// loop).
    pub ttfs_ms: Vec<f64>,
    /// Due/sent → done per job.
    pub job_ms: Vec<f64>,
    /// Wall seconds of the timed window.
    pub window_s: f64,
    /// Sent/due → done interval and samples of every completed job.
    pub completions: Vec<(Instant, Instant, u64)>,
    /// Whether the window is a closed loop (see [`Tally::rates`]).
    pub closed_loop: bool,
    /// Σ per-job unique-node query cost over the workload's fixed job set.
    pub cost_queries: u64,
    /// Samples of that fixed job set.
    pub cost_samples: u64,
    /// Σ `SampleRecord::attempts` over delivered samples.
    pub attempts: u64,
    /// Sorted sample multiset of each `Isolated` job, by job-list index.
    pub isolated: BTreeMap<usize, Vec<u32>>,
}

impl Tally {
    /// Records a failed job or check.
    pub fn fail(&mut self, what: String) {
        self.failures.push(what);
    }

    /// Records the sorted multiset of isolated job `index`; a job replayed
    /// later in the pass must deliver the same multiset.
    pub fn isolated_job(&mut self, index: usize, mut nodes: Vec<u32>) {
        nodes.sort_unstable();
        match self.isolated.get(&index) {
            Some(first) if *first != nodes => {
                self.fail(format!("job {index}: replay changed its sample multiset"))
            }
            Some(_) => {}
            None => {
                self.isolated.insert(index, nodes);
            }
        }
    }

    /// Digest of every isolated job's sorted sample multiset.
    pub fn isolated_digest(&self) -> u64 {
        fingerprint(
            self.isolated
                .iter()
                .map(|(i, nodes)| format!("{i}:{nodes:?}"))
                .collect(),
        )
    }

    /// Median job latency (ms).
    pub fn job_ms_p50(&self) -> f64 {
        quantile(&self.job_ms, 0.5)
    }

    /// Records a job that passed every check.
    pub fn completed(&mut self, sent: Instant, first_sample: Instant, done: Instant, samples: u64) {
        self.jobs_done += 1;
        self.samples += samples;
        self.ttfs_ms
            .push(crate::stats::ms_between(sent, first_sample));
        self.job_ms.push(crate::stats::ms_between(sent, done));
        self.completions.push((sent, done, samples));
    }

    /// `(jobs/s, samples/s)`. An open loop reports totals over the window
    /// (its rate is fixed by the schedule). A closed loop reports the
    /// inverse of the median cycle, the time from one job's send to the
    /// next's: on a shared machine a descheduled thread stalls a few jobs
    /// for milliseconds, which moves a mean over the window by far more
    /// than it moves the median.
    pub fn rates(&self) -> (f64, f64) {
        if !self.closed_loop {
            return (
                ratio(self.jobs_done as f64, self.window_s),
                ratio(self.samples as f64, self.window_s),
            );
        }
        let mut bounds: Vec<Instant> = self.completions.iter().map(|c| c.0).collect();
        bounds.extend(self.completions.last().map(|c| c.1));
        let cycles: Vec<f64> = bounds
            .windows(2)
            .map(|w| w[1].saturating_duration_since(w[0]).as_secs_f64())
            .collect();
        let jobs_per_s = ratio(1.0, quantile(&cycles, 0.5));
        let samples_per_job = ratio(self.samples as f64, self.jobs_done as f64);
        (jobs_per_s, jobs_per_s * samples_per_job)
    }

    /// The end-to-end metrics of `BENCHMARK.json` this pass yields (all
    /// but `setup_s` and `peak_rss_mb`, which belong to the whole run).
    pub fn end_to_end(&self) -> Vec<Metric> {
        let (jobs_per_s, samples_per_s) = self.rates();
        vec![
            metric("samples_per_s", samples_per_s, "1/s"),
            metric(
                "query_cost_per_sample",
                ratio(self.cost_queries as f64, self.cost_samples as f64),
                "queries",
            ),
            metric("ttfs_ms_p50", quantile(&self.ttfs_ms, 0.5), "ms"),
            metric("job_ms_p50", self.job_ms_p50(), "ms"),
            metric("jobs_per_s", jobs_per_s, "1/s"),
        ]
    }

    /// Human-readable summary lines, including the tail percentiles that
    /// have enough samples (≥ 1000) to be reported.
    pub fn summary(&self) -> Vec<String> {
        let mut lines = vec![format!(
            "jobs attempted {} done {} failed {} samples {} window {:.3} s",
            self.attempted,
            self.jobs_done,
            self.failures.len(),
            self.samples,
            self.window_s
        )];
        for (name, values) in [("ttfs_ms", &self.ttfs_ms), ("job_ms", &self.job_ms)] {
            let p99 = if values.len() >= 1000 {
                format!("{:.3}", quantile(values, 0.99))
            } else {
                "n/a (< 1000 samples)".to_string()
            };
            lines.push(format!(
                "{name}: n {} p50 {:.3} p99 {p99}",
                values.len(),
                quantile(values, 0.5)
            ));
        }
        lines.push(format!(
            "failed_frac {:.6}",
            ratio(self.failures.len() as f64, self.attempted as f64)
        ));
        lines
    }
}

/// Every per-layer metric of `BENCHMARK.json`, with its unit. A traced run
/// reports all of them; layers a workload does not exercise read 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("access.backend_fetches_per_sample", "count"),
    ("access.backend_ns_per_fetch", "ns"),
    ("access.backend_busy_share", "ratio"),
    ("access.calls_per_sample", "count"),
    ("access.cache_hit_ratio", "ratio"),
    ("access.probe_ns.simulated", "ns"),
    ("access.probe_ns.cached_hit", "ns"),
    ("access.probe_ns.metered_cached", "ns"),
    ("access.probe_ns.full_stack", "ns"),
    ("core.attempts_per_sample", "count"),
    ("engine.round_us_p50", "us"),
    ("engine.round_us_p99", "us"),
    ("engine.rounds_per_job", "count"),
    ("runtime.spawnless_share", "ratio"),
    ("runtime.wakeups_per_dispatched_round", "count"),
    ("runtime.dispatch_us", "us"),
    ("service.submit_us_p50", "us"),
    ("service.submit_us_p99", "us"),
    ("service.queue_wait_ms_p50", "ms"),
    ("service.queue_wait_ms_p99", "ms"),
    ("service.ttfs_ms_p50", "ms"),
    ("service.shared_cache_savings", "ratio"),
    ("history.hit_ratio", "ratio"),
    ("history.reused_walks_per_job", "count"),
    ("history.publications", "count"),
    ("gateway.submit_ms_p50", "ms"),
    ("gateway.submit_ms_p99", "ms"),
    ("gateway.first_byte_ms_p50", "ms"),
    ("gateway.overhead_ms_p50", "ms"),
    ("gateway.bytes_per_job", "B"),
    ("setup.graph_build_s", "s"),
    ("setup.start_s", "s"),
    ("setup.warmup_s", "s"),
    ("harness.lag_ms_p99", "ms"),
    ("harness.trace_overhead_pct", "%"),
    ("self_ms_per_job.harness", "ms"),
    ("self_ms_per_job.gateway", "ms"),
    ("self_ms_per_job.service", "ms"),
    ("self_ms_per_job.engine", "ms"),
    ("self_ms_per_job.runtime", "ms"),
    ("self_ms_per_job.access", "ms"),
    ("self_ms_per_job.core", "ms"),
    ("trace.busy_wall_s", "s"),
    ("trace.ledger_coverage", "ratio"),
];

/// Collects per-layer values by name; [`LayerMetrics::finish`] fills every
/// name of [`PER_LAYER`] the workload did not set with 0.
#[derive(Debug, Default)]
pub struct LayerMetrics(BTreeMap<&'static str, f64>);

impl LayerMetrics {
    /// Sets metric `name`, which must be listed in [`PER_LAYER`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "unlisted per-layer metric {name}"
        );
        self.0.insert(name, value);
    }

    /// Every per-layer metric, in [`PER_LAYER`] order.
    pub fn finish(&self) -> Vec<Metric> {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| metric(name, self.0.get(name).copied().unwrap_or(0.0), unit))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn closed_loop_rates_use_the_median_cycle() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let mut tally = Tally {
            closed_loop: true,
            window_s: 4.0,
            ..Tally::default()
        };
        // 100 ms jobs back to back for 3 s, then one job stalls for 1 s.
        for i in 0..30 {
            tally.completed(at(i * 100), at(i * 100 + 10), at(i * 100 + 100), 2);
        }
        tally.completed(at(3000), at(3010), at(4000), 2);
        let (jobs, samples) = tally.rates();
        assert!((jobs - 10.0).abs() < 1e-6, "{jobs}");
        assert!((samples - 20.0).abs() < 1e-6, "{samples}");
        tally.closed_loop = false;
        assert!((tally.rates().0 - 31.0 / 4.0).abs() < 1e-9);
    }

    #[test]
    fn replayed_job_must_repeat_its_multiset() {
        let mut tally = Tally::default();
        tally.isolated_job(3, vec![5, 1, 2]);
        tally.isolated_job(3, vec![2, 5, 1]);
        assert!(tally.failures.is_empty());
        tally.isolated_job(3, vec![2, 5, 4]);
        assert_eq!(tally.failures.len(), 1);
        assert_eq!(tally.isolated[&3], vec![1, 2, 5]);
    }
}
