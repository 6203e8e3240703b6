//! The walk-not-wait repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <engine_batch|service_mix|gateway_stream> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Sets the stack up several times (reporting the median set-up time),
//! prints the job-list fingerprint, runs one timed window with tracing
//! off, and checks every output. With `--trace 1` it then runs a second,
//! traced window over the same job list, probes the access wrappers and
//! the worker pool, and reports the per-layer metrics and self-time
//! ledger instead of the end-to-end ones. The last line of standard
//! output is one JSON object; see `perfbench/README.md` for every metric.

mod engine_batch;
mod gateway_stream;
mod probe;
mod report;
mod service_mix;
mod stats;
mod timed;
mod trace;
mod workload;

use report::{metric, LayerMetrics, Metric, Tally};
use stats::{fingerprint, peak_rss_mib, ratio};
use std::path::PathBuf;
use std::process::ExitCode;
use trace::{ComputeSplit, Tracer};
use wnw_runtime::PoolStats;
use workload::{PassCounters, SetupTimes, Workload};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "--seconds takes a number")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Worker-pool metrics from two `PoolStats` snapshots.
pub fn set_pool_metrics(layers: &mut LayerMetrics, before: &PoolStats, after: &PoolStats) {
    let dispatched = (after.rounds_dispatched - before.rounds_dispatched) as f64;
    let spawnless = (after.spawnless_rounds - before.spawnless_rounds) as f64;
    let wakeups = (after.worker_wakeups - before.worker_wakeups) as f64;
    layers.set(
        "runtime.spawnless_share",
        ratio(spawnless, dispatched + spawnless),
    );
    layers.set(
        "runtime.wakeups_per_dispatched_round",
        ratio(wakeups, dispatched),
    );
}

/// The run's verdict and metrics, printed as the last stdout line.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

fn print_result(o: &Outcome) {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct,
        o.attempted,
        o.failed,
        metrics.join(", ")
    );
}

fn print_tally(label: &str, tally: &Tally) {
    for line in tally.summary() {
        println!("[{label}] {line}");
    }
    println!(
        "[{label}] isolated sample digest {:016x} over {} jobs",
        tally.isolated_digest(),
        tally.isolated.len()
    );
    for failure in tally.failures.iter().take(10) {
        println!("[{label}] FAILED {failure}");
    }
}

fn run<W: Workload>(args: &Args) -> Result<Outcome, String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    if W::CLIENT_THREADS > nproc || W::CLIENT_CONNECTIONS > nproc {
        return Err(format!(
            "load generator needs {} threads and {} connections but nproc is {nproc}",
            W::CLIENT_THREADS,
            W::CLIENT_CONNECTIONS
        ));
    }
    println!(
        "workload {} seed {} seconds {} trace {} nproc {nproc} client threads {} connections {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        W::CLIENT_THREADS,
        W::CLIENT_CONNECTIONS
    );

    // Set up several times; keep the last stack, report the median.
    let mut stack = None;
    let mut setups: Vec<SetupTimes> = Vec::new();
    for _ in 0..SETUP_REPS {
        drop(stack.take());
        let (s, times) = W::setup(args.seed, args.seconds)?;
        stack = Some(s);
        setups.push(times);
    }
    let mut stack = stack.expect("at least one set-up");
    setups.sort_by(|a, b| a.total().total_cmp(&b.total()));
    let setup = setups[setups.len() / 2];
    println!(
        "setup_s {:.4} (graph {:.4} start {:.4} warm-up {:.4}; median of {SETUP_REPS})",
        setup.total(),
        setup.graph_s,
        setup.start_s,
        setup.warmup_s
    );
    let lines = stack.job_lines();
    println!(
        "job list: {} jobs, fingerprint {:016x}",
        lines.len(),
        fingerprint(lines)
    );

    let mut layers = LayerMetrics::default();
    let (plain, _) = stack.pass(args.seconds, &mut Tracer::new(false), &mut layers);
    print_tally("untraced", &plain);
    let mut failures = plain.failures.len() as u64;
    let mut attempted = plain.attempted;

    if !args.trace {
        let mut metrics = vec![metric("setup_s", setup.total(), "s")];
        metrics.extend(plain.end_to_end());
        metrics.push(metric(
            "peak_rss_mb",
            peak_rss_mib().ok_or("cannot read VmHWM from /proc/self/status")?,
            "MiB",
        ));
        return Ok(Outcome {
            correct: failures == 0,
            attempted,
            failed: failures,
            metrics,
        });
    }

    let mut tracer = Tracer::new(true);
    stack.timer().set_enabled(true);
    let mut layers = LayerMetrics::default();
    let (traced, counters) = stack.pass(args.seconds, &mut tracer, &mut layers);
    stack.timer().set_enabled(false);
    print_tally("traced", &traced);
    failures += traced.failures.len() as u64;
    attempted += traced.attempted;
    let same_outputs = plain.isolated == traced.isolated;
    if !same_outputs {
        println!("FAILED traced pass changed the isolated jobs' sample multisets");
    }

    let dispatch_us = probe::dispatch_us(counters.lanes);
    for (name, ns) in probe::access_probe_ns(stack.osn(), args.seed) {
        layers.set(name, ns);
    }
    layers.set("runtime.dispatch_us", dispatch_us);
    fill_ledger(&mut layers, &traced, &counters, &tracer, dispatch_us);
    layers.set("setup.graph_build_s", setup.graph_s);
    layers.set("setup.start_s", setup.start_s);
    layers.set("setup.warmup_s", setup.warmup_s);
    layers.set(
        "harness.trace_overhead_pct",
        (ratio(traced.job_ms_p50(), plain.job_ms_p50()) - 1.0) * 100.0,
    );

    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
    tracer
        .write_jsonl(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!(
        "{} spans written to {}",
        tracer.spans().len(),
        path.display()
    );

    Ok(Outcome {
        correct: failures == 0 && same_outputs,
        attempted,
        failed: failures,
        metrics: layers.finish(),
    })
}

/// Access metrics from the timer, `core.attempts_per_sample`, and the
/// self-time ledger of the traced pass.
fn fill_ledger(
    layers: &mut LayerMetrics,
    tally: &Tally,
    counters: &PassCounters,
    tracer: &Tracer,
    dispatch_us: f64,
) {
    let samples = tally.samples as f64;
    let access = counters.access;
    let lanes = counters.lanes.max(1) as f64;
    let access_s = access.busy_ns as f64 / 1e9;
    layers.set(
        "access.backend_fetches_per_sample",
        ratio(access.calls as f64, samples),
    );
    layers.set(
        "access.backend_ns_per_fetch",
        ratio(access.busy_ns as f64, access.calls as f64),
    );
    layers.set(
        "access.backend_busy_share",
        ratio(access_s, lanes * counters.busy_s),
    );
    layers.set(
        "core.attempts_per_sample",
        ratio(tally.attempts as f64, samples),
    );

    let split = ComputeSplit {
        access_s: access_s / lanes,
        runtime_s: counters.rounds_dispatched as f64 * dispatch_us / 1e6,
    };
    let ledger = trace::ledger(tracer.spans(), split);
    let jobs = tally.jobs_done.max(1) as f64;
    for (layer, name) in [
        ("harness", "self_ms_per_job.harness"),
        ("gateway", "self_ms_per_job.gateway"),
        ("service", "self_ms_per_job.service"),
        ("engine", "self_ms_per_job.engine"),
        ("runtime", "self_ms_per_job.runtime"),
        ("access", "self_ms_per_job.access"),
        ("core", "self_ms_per_job.core"),
    ] {
        layers.set(
            name,
            ledger.self_s.get(layer).copied().unwrap_or(0.0) * 1e3 / jobs,
        );
    }
    let self_sum: f64 = ledger.self_s.values().sum();
    layers.set("trace.busy_wall_s", counters.busy_s);
    layers.set("trace.ledger_coverage", ratio(self_sum, counters.busy_s));
    println!(
        "ledger: self-time sum {:.4} s, spans cover {:.4} s, busy wall {:.4} s; {}",
        self_sum,
        ledger.covered_s,
        counters.busy_s,
        ledger
            .self_s
            .iter()
            .map(|(k, v)| format!("{k} {v:.4}"))
            .collect::<Vec<_>>()
            .join(", ")
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "engine_batch" => run::<engine_batch::EngineBatch>(&args),
        "service_mix" => run::<service_mix::ServiceMix>(&args),
        "gateway_stream" => run::<gateway_stream::GatewayStream>(&args),
        other => Err(format!(
            "unknown workload {other:?} (engine_batch | service_mix | gateway_stream)"
        )),
    };
    match outcome {
        Ok(outcome) => {
            print_result(&outcome);
            if outcome.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
