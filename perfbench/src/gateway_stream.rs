//! `gateway_stream`: one closed-loop HTTP client against the gateway.
//!
//! Each iteration opens a connection, posts a tiny job (1 walker, 1
//! sample, isolated) on it, then reads the job's NDJSON stream to `done` on
//! the same connection, which the stream's end closes. The graph is small
//! and the shared cache warm, so HTTP parsing and serialisation,
//! readiness-loop wake-ups and job hand-off make up most of each request,
//! while access and core are nearly idle.
//!
//! One connection per job keeps each job on the one I/O thread that
//! accepted it, rather than a long-lived POST connection on one thread and
//! streams on either. The gateway's threads run with a 1 µs timer slack
//! (see [`TIMER_SLACK_NS`]).

use crate::report::{LayerMetrics, Tally};
use crate::service_mix::set_service_metrics;
use crate::stats::{delta_quantile, derive_seed, ms_between, quantile, ratio};
use crate::timed::{AccessTimer, TimedNetwork};
use crate::trace::{Layer, Tracer};
use crate::workload::{PassCounters, SetupTimes, Workload};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::raw::{c_int, c_ulong};
use std::sync::Arc;
use std::time::{Duration, Instant};
use wnw_access::SimulatedOsn;
use wnw_gateway::json::{self, Json};
use wnw_gateway::GatewayServer;
use wnw_graph::generators::random::barabasi_albert;
use wnw_service::SamplingService;

const NODES: usize = 2_000;
const GRAPH_SEED: u64 = 0x5eed_0003;
const POOL_THREADS: usize = 2;
/// One sample, so one round: with two, the `done` event lands either in
/// the readiness-loop wake that carried the second sample or one idle
/// back-off later, and the median job time flipped between those two
/// modes from run to run (±11 %).
const SAMPLES: u64 = 1;
const DIAMETER: u64 = 4;
/// Distinct jobs in the list, replayed in order; the window completes the
/// list at least once and `query_cost_per_sample` is taken over that pass.
const JOBS: usize = 500;
const WARMUP_JOBS: usize = 256;
/// Warm-up jobs are the same for every seed, so set-up times compare.
const WARMUP_SEED: u64 = 0x3a11_0003;
const TIMEOUT: Duration = Duration::from_secs(30);
/// Timer slack of the threads that serve the workload. The readiness loop
/// sleeps 100 µs and up between ticks that moved nothing, and with
/// Linux's default 50 µs slack such a sleep ends anywhere in its slack
/// window, early only when some other timer or interrupt on that core
/// happens to fire. So the median job time followed what else the host
/// was running: it sat near 0.55 ms and dropped to 0.42 ms for stretches of
/// seconds, within one run and between runs. With 1 µs slack every sleep
/// ends when asked and the median stays at the low figure. The threads
/// inherit the value from the thread that starts them.
const TIMER_SLACK_NS: c_ulong = 1_000;

type Net = TimedNetwork<SimulatedOsn>;

/// One HTTP/1.1 connection that counts the bytes it moves. The gateway's
/// own `client` module hides the byte counts and the moment the response
/// head arrives, which `gateway.bytes_per_job` and
/// `gateway.first_byte_ms_p50` need.
struct Wire {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    bytes: u64,
}

fn bad(message: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message)
}

impl Wire {
    fn connect(addr: SocketAddr) -> io::Result<Wire> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(TIMEOUT))?;
        stream.set_write_timeout(Some(TIMEOUT))?;
        stream.set_nodelay(true)?;
        Ok(Wire {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            bytes: 0,
        })
    }

    fn send(&mut self, request: &[u8]) -> io::Result<()> {
        self.bytes += request.len() as u64;
        self.writer.write_all(request)
    }

    fn line(&mut self) -> io::Result<String> {
        let mut raw = Vec::new();
        let n = self.reader.read_until(b'\n', &mut raw)?;
        if n == 0 {
            return Err(bad("connection closed mid-response".into()));
        }
        self.bytes += n as u64;
        while matches!(raw.last(), Some(b'\n' | b'\r')) {
            raw.pop();
        }
        String::from_utf8(raw).map_err(|_| bad("non-UTF-8 response".into()))
    }

    fn exact(&mut self, len: usize) -> io::Result<Vec<u8>> {
        let mut buf = vec![0; len];
        self.reader.read_exact(&mut buf)?;
        self.bytes += len as u64;
        Ok(buf)
    }

    /// Reads a status line and headers; returns the status and the
    /// `content-length` / chunked framing of the body.
    fn head(&mut self) -> io::Result<(u16, Option<usize>, bool)> {
        let status_line = self.line()?;
        let status = status_line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad(format!("bad status line {status_line:?}")))?;
        let (mut length, mut chunked) = (None, false);
        loop {
            let line = self.line()?;
            if line.is_empty() {
                return Ok((status, length, chunked));
            }
            let (name, value) = line.split_once(':').unwrap_or((&line, ""));
            let (name, value) = (name.to_ascii_lowercase(), value.trim());
            if name == "content-length" {
                length = value.parse().ok();
            } else if name == "transfer-encoding" && value.eq_ignore_ascii_case("chunked") {
                chunked = true;
            }
        }
    }

    /// One chunk of a chunked body; `None` at the terminating chunk.
    fn chunk(&mut self) -> io::Result<Option<Vec<u8>>> {
        let size_line = self.line()?;
        let size = usize::from_str_radix(size_line.split(';').next().unwrap_or("").trim(), 16)
            .map_err(|_| bad(format!("bad chunk size {size_line:?}")))?;
        if size == 0 {
            while !self.line()?.is_empty() {}
            return Ok(None);
        }
        let data = self.exact(size)?;
        if self.exact(2)? != b"\r\n" {
            return Err(bad("chunk not CRLF-terminated".into()));
        }
        Ok(Some(data))
    }
}

/// Sets the calling thread's timer slack (`PR_SET_TIMERSLACK`); threads it
/// starts afterwards inherit it.
fn set_timer_slack(ns: c_ulong) -> io::Result<()> {
    const PR_SET_TIMERSLACK: c_int = 29;
    extern "C" {
        fn prctl(option: c_int, ...) -> c_int;
    }
    // SAFETY: PR_SET_TIMERSLACK reads one unsigned long argument and only
    // changes the calling thread's timer slack.
    if unsafe { prctl(PR_SET_TIMERSLACK, ns) } == 0 {
        Ok(())
    } else {
        Err(io::Error::last_os_error())
    }
}

/// Timestamps and results of one POST + stream exchange.
struct Exchange {
    posted: Instant,
    first_byte: Instant,
    first_sample: Option<Instant>,
    done: Instant,
    nodes: Vec<u32>,
    attempts: u64,
    outcome: Json,
    bytes: u64,
}

/// The gateway workload's stack, client connection and job list.
pub struct GatewayStream {
    server: Option<GatewayServer<Net>>,
    addr: SocketAddr,
    timer: Arc<AccessTimer>,
    jobs: Vec<(u64, u32)>,
    /// A copy of the backend for the access probes (the gateway does not
    /// hand out its service's network).
    probe_osn: SimulatedOsn,
}

impl Drop for GatewayStream {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }
}

impl GatewayStream {
    fn server(&self) -> &GatewayServer<Net> {
        self.server.as_ref().expect("server runs until drop")
    }

    /// Posts job `(seed, start)` on a new connection and reads its stream
    /// to the end on the same connection.
    fn exchange(&self, seed: u64, start: u32) -> io::Result<Exchange> {
        let body = Json::obj(vec![
            ("samples", Json::UInt(SAMPLES)),
            ("walkers", Json::UInt(1)),
            ("seed", Json::UInt(seed)),
            ("diameter_estimate", Json::UInt(DIAMETER)),
            ("start_node", Json::UInt(u64::from(start))),
            ("history_policy", Json::str("isolated")),
        ])
        .encode();
        let mut wire = Wire::connect(self.addr)?;
        wire.send(
            format!(
                "POST /v1/jobs HTTP/1.1\r\nHost: {}\r\nConnection: keep-alive\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
                self.addr,
                body.len()
            )
            .as_bytes(),
        )?;
        let (status, length, _) = wire.head()?;
        let reply = wire.exact(length.ok_or_else(|| bad("POST reply without length".into()))?)?;
        if !(200..300).contains(&status) {
            return Err(bad(format!("POST answered {status}")));
        }
        let reply = json::parse(std::str::from_utf8(&reply).map_err(|_| bad("non-UTF-8".into()))?)
            .map_err(|e| bad(format!("POST reply: {e}")))?;
        let path = reply
            .get("stream")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("POST reply without stream path".into()))?
            .to_string();
        let posted = Instant::now();

        wire.send(
            format!(
                "GET {path} HTTP/1.1\r\nHost: {}\r\nConnection: close\r\n\r\n",
                self.addr
            )
            .as_bytes(),
        )?;
        let (status, _, chunked) = wire.head()?;
        let first_byte = Instant::now();
        if status != 200 || !chunked {
            return Err(bad(format!(
                "stream answered {status} (chunked: {chunked})"
            )));
        }
        let (mut pending, mut nodes, mut attempts) = (Vec::new(), Vec::new(), 0u64);
        let (mut first_sample, mut outcome) = (None, None);
        while let Some(chunk) = wire.chunk()? {
            pending.extend_from_slice(&chunk);
            while let Some(pos) = pending.iter().position(|&b| b == b'\n') {
                let line: Vec<u8> = pending.drain(..=pos).collect();
                let text =
                    std::str::from_utf8(&line[..pos]).map_err(|_| bad("non-UTF-8 event".into()))?;
                let event = json::parse(text).map_err(|e| bad(format!("event {text:?}: {e}")))?;
                match event.get("event").and_then(Json::as_str) {
                    Some("sample") => {
                        first_sample.get_or_insert_with(Instant::now);
                        let node = event.get("node").and_then(Json::as_u64);
                        let node = node.ok_or_else(|| bad("sample without node".into()))?;
                        nodes.push(u32::try_from(node).map_err(|_| bad("node id".into()))?);
                        attempts += event.get("attempts").and_then(Json::as_u64).unwrap_or(0);
                    }
                    Some("progress") => {}
                    Some("done") => outcome = Some(event),
                    other => return Err(bad(format!("unknown event {other:?}"))),
                }
            }
        }
        let done = Instant::now();
        if !pending.is_empty() {
            return Err(bad("stream ended inside a line".into()));
        }
        Ok(Exchange {
            posted,
            first_byte,
            first_sample,
            done,
            nodes,
            attempts,
            outcome: outcome.ok_or_else(|| bad("stream ended without done".into()))?,
            bytes: wire.bytes,
        })
    }

    fn run(&self, index: usize, tally: &mut Tally) -> Result<Exchange, String> {
        let (seed, start) = self.jobs[index];
        let ex = self
            .exchange(seed, start)
            .map_err(|e| format!("job {index}: {e}"))?;
        let field = |k: &str| ex.outcome.get(k).and_then(Json::as_u64);
        let status = ex.outcome.get("status").and_then(Json::as_str);
        if status != Some("completed")
            || field("samples") != Some(SAMPLES)
            || ex.nodes.len() as u64 != SAMPLES
        {
            return Err(format!(
                "job {index}: {status:?} with {} of {SAMPLES} samples",
                ex.nodes.len()
            ));
        }
        if let Some(bad) = ex.nodes.iter().find(|&&n| n as usize >= NODES) {
            return Err(format!("job {index}: node {bad} out of range"));
        }
        tally.isolated_job(index, ex.nodes.clone());
        Ok(ex)
    }
}

impl Workload for GatewayStream {
    const CLIENT_THREADS: usize = 1;
    const CLIENT_CONNECTIONS: usize = 1;

    fn setup(seed: u64, _seconds: f64) -> Result<(Self, SetupTimes), String> {
        set_timer_slack(TIMER_SLACK_NS).map_err(|e| format!("timer slack: {e}"))?;
        let t0 = Instant::now();
        let graph = barabasi_albert(NODES, 3, GRAPH_SEED).map_err(|e| e.to_string())?;
        let t1 = Instant::now();
        let timer = Arc::new(AccessTimer::default());
        let probe_osn = SimulatedOsn::new(graph.clone());
        let service = SamplingService::builder(TimedNetwork::new(
            SimulatedOsn::new(graph),
            Arc::clone(&timer),
        ))
        .pool_threads(POOL_THREADS)
        .build();
        let server = GatewayServer::bind(service, "127.0.0.1:0").map_err(|e| e.to_string())?;
        let addr = server.local_addr();
        let t2 = Instant::now();
        // Start nodes are stratified over the node ids — one per block of
        // NODES / JOBS ids, shuffled over the jobs — so every seed gets the
        // same share of the low-id hubs, which cost the most queries.
        let mut rng = StdRng::seed_from_u64(seed);
        let block = NODES / JOBS;
        let mut starts: Vec<u32> = (0..JOBS)
            .map(|i| (i * block + rng.gen_range(0..block)) as u32)
            .collect();
        starts.shuffle(&mut rng);
        let jobs = (0..JOBS as u64)
            .zip(starts)
            .map(|(i, start)| (derive_seed(seed, i), start))
            .collect();
        let mut warm = GatewayStream {
            server: Some(server),
            addr,
            timer,
            probe_osn,
            jobs: (0..WARMUP_JOBS as u64)
                .map(|i| {
                    (
                        derive_seed(WARMUP_SEED, i),
                        (i as u32 * 7919) % NODES as u32,
                    )
                })
                .collect(),
        };
        let mut warmup = Tally::default();
        for index in 0..WARMUP_JOBS {
            warm.run(index, &mut warmup)?;
        }
        warm.jobs = jobs;
        let t3 = Instant::now();
        let times = SetupTimes {
            graph_s: (t1 - t0).as_secs_f64(),
            start_s: (t2 - t1).as_secs_f64(),
            warmup_s: (t3 - t2).as_secs_f64(),
        };
        Ok((warm, times))
    }

    fn job_lines(&self) -> Vec<String> {
        self.jobs
            .iter()
            .enumerate()
            .map(|(i, (seed, start))| format!("{i}|seed{seed}|n{start}|s{SAMPLES}|w1|isolated"))
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
        let before = self.server().metrics();
        let access_before = self.timer.counts();
        let (mut submit_ms, mut first_byte_ms) = (Vec::new(), Vec::new());
        let (mut bytes, mut rounds) = (0u64, 0u64);

        let start = Instant::now();
        let deadline = start + Duration::from_secs_f64(seconds);
        let mut i = 0usize;
        while i < JOBS || Instant::now() < deadline {
            let index = i % JOBS;
            tally.attempted += 1;
            let sent = Instant::now();
            let ex = match self.run(index, &mut tally) {
                Ok(ex) => ex,
                Err(e) => {
                    tally.fail(e);
                    i += 1;
                    continue;
                }
            };
            let first = ex.first_sample.unwrap_or(ex.done);
            let field = |k: &str| ex.outcome.get(k).and_then(Json::as_f64).unwrap_or(0.0);
            tally.completed(sent, first, ex.done, SAMPLES);
            tally.attempts += ex.attempts;
            if i < JOBS {
                tally.cost_queries += field("query_cost") as u64;
                tally.cost_samples += SAMPLES;
            }
            rounds += field("rounds") as u64;
            submit_ms.push(ms_between(sent, ex.posted));
            first_byte_ms.push(ms_between(ex.posted, ex.first_byte));
            bytes += ex.bytes;
            if tracer.enabled() {
                let id = i as u64;
                let root = tracer.record(
                    None,
                    id,
                    Layer::Harness,
                    "harness.job",
                    sent,
                    Instant::now(),
                );
                tracer.record(
                    Some(root),
                    id,
                    Layer::Gateway,
                    "gateway.post",
                    sent,
                    ex.posted,
                );
                let stream = tracer.record(
                    Some(root),
                    id,
                    Layer::Gateway,
                    "gateway.stream",
                    ex.posted,
                    ex.done,
                );
                let ms = |v: f64| Duration::from_secs_f64(v.max(0.0) / 1e3);
                let job_start = ex
                    .done
                    .checked_sub(ms(field("latency_ms")))
                    .unwrap_or(ex.done);
                let running = job_start + ms(field("queue_wait_ms"));
                let job = tracer.record(
                    Some(stream),
                    id,
                    Layer::Service,
                    "service.job",
                    job_start,
                    ex.done,
                );
                tracer.record(
                    Some(job),
                    id,
                    Layer::Service,
                    "service.queue",
                    job_start,
                    running,
                );
                tracer.record(
                    Some(job),
                    id,
                    Layer::Compute,
                    "service.run",
                    running,
                    ex.done,
                );
            }
            i += 1;
        }
        tally.window_s = start.elapsed().as_secs_f64();

        let after = self.server().metrics();
        let jobs = tally.jobs_done as f64;
        let calls = (after.pool.api_calls - before.pool.api_calls) as f64;
        let hits = (after.pool.cache_hits - before.pool.cache_hits) as f64;
        layers.set(
            "access.calls_per_sample",
            ratio(calls, tally.samples as f64),
        );
        layers.set("access.cache_hit_ratio", ratio(hits, calls));
        // The gateway submits on its task pool; time inside `submit` is not
        // visible from the client, so it reads 0 here.
        set_service_metrics(layers, &before, &after, &[], jobs, rounds);
        crate::set_pool_metrics(layers, &before.worker_pool, &after.worker_pool);
        layers.set("gateway.submit_ms_p50", quantile(&submit_ms, 0.5));
        layers.set("gateway.submit_ms_p99", quantile(&submit_ms, 0.99));
        layers.set("gateway.first_byte_ms_p50", quantile(&first_byte_ms, 0.5));
        let service_ttfs_ms = delta_quantile(
            &after.first_sample_histogram,
            &before.first_sample_histogram,
            0.5,
        ) / 1e3;
        layers.set(
            "gateway.overhead_ms_p50",
            quantile(&tally.ttfs_ms, 0.5) - service_ttfs_ms,
        );
        layers.set("gateway.bytes_per_job", ratio(bytes as f64, jobs));
        let counters = PassCounters {
            access: self.timer.counts().since(access_before),
            rounds_dispatched: after.worker_pool.rounds_dispatched
                - before.worker_pool.rounds_dispatched,
            lanes: POOL_THREADS,
            busy_s: tally.window_s,
        };
        (tally, counters)
    }

    fn timer(&self) -> &AccessTimer {
        &self.timer
    }

    fn osn(&self) -> &SimulatedOsn {
        &self.probe_osn
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timer_slack() -> i64 {
        const PR_GET_TIMERSLACK: c_int = 30;
        extern "C" {
            fn prctl(option: c_int, ...) -> c_int;
        }
        // SAFETY: PR_GET_TIMERSLACK takes no argument and returns the
        // calling thread's timer slack.
        i64::from(unsafe { prctl(PR_GET_TIMERSLACK) })
    }

    #[test]
    fn threads_started_after_setting_the_slack_inherit_it() {
        std::thread::spawn(|| {
            set_timer_slack(TIMER_SLACK_NS).unwrap();
            assert_eq!(timer_slack(), 1_000);
            assert_eq!(std::thread::spawn(timer_slack).join().unwrap(), 1_000);
        })
        .join()
        .unwrap();
    }
}
