//! What every workload provides to the runner.

use crate::report::{LayerMetrics, Tally};
use crate::timed::{AccessCounts, AccessTimer};
use crate::trace::Tracer;
use wnw_access::SimulatedOsn;

/// Where set-up time went, in seconds. The parts sum to `setup_s`.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// Building the graph.
    pub graph_s: f64,
    /// Starting the engine, service or gateway.
    pub start_s: f64,
    /// Warm-up jobs run before the timed window.
    pub warmup_s: f64,
}

impl SetupTimes {
    /// All set-up seconds.
    pub fn total(&self) -> f64 {
        self.graph_s + self.start_s + self.warmup_s
    }
}

/// Layer counters of one pass that the runner turns into access, runtime
/// and ledger metrics.
#[derive(Debug, Clone, Copy, Default)]
pub struct PassCounters {
    /// Backend calls and busy time seen by the access timer.
    pub access: AccessCounts,
    /// Rounds the worker pool dispatched to its workers.
    pub rounds_dispatched: u64,
    /// Worker-pool width (lanes a round's draws are fanned over).
    pub lanes: usize,
    /// Seconds during which at least one job was in the system.
    pub busy_s: f64,
}

/// One benchmark workload: a set-up stack plus a seeded job list.
pub trait Workload: Sized {
    /// Threads the load generator uses (checked against `nproc`).
    const CLIENT_THREADS: usize;
    /// Connections the load generator holds open at once.
    const CLIENT_CONNECTIONS: usize;

    /// Builds the graph, starts the stack, warms it up, and fixes the job
    /// list (every due time included) from `seed`.
    fn setup(seed: u64, seconds: f64) -> Result<(Self, SetupTimes), String>;

    /// One line per planned job, for the job-list fingerprint.
    fn job_lines(&self) -> Vec<String>;

    /// Runs one timed window of about `seconds`, checking every output.
    /// When `tracer` is enabled, records spans and fills `layers`.
    fn pass(
        &mut self,
        seconds: f64,
        tracer: &mut Tracer,
        layers: &mut LayerMetrics,
    ) -> (Tally, PassCounters);

    /// The access timer wrapped around the backend network.
    fn timer(&self) -> &AccessTimer;

    /// The backend network (for the access-layer probes).
    fn osn(&self) -> &SimulatedOsn;
}
