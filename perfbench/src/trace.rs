//! Benchmark-side spans and the per-layer self-time ledger.
//!
//! Spans are recorded by the benchmark around its calls into each layer's
//! public functions; nothing inside the program is instrumented. They stay
//! in memory during the run and are written out as JSON lines at the end.
//!
//! Self time is computed by a sweep over the run's timeline: at every
//! instant, the innermost open spans (open spans with no open child) share
//! that instant equally. The parallel walker work inside a round cannot be
//! split by spans from outside, so such spans are tagged
//! [`Layer::Compute`] and their time is divided afterwards: backend access
//! gets the access timer's busy time divided by the pool width, the
//! runtime gets its dispatch probe times the rounds dispatched, and the
//! remainder is the sampler (`core`, which also carries the engine's
//! in-round bookkeeping).

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// The layer a span's own time is charged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// The benchmark's own loop: pacing lag, output checks, bookkeeping.
    Harness,
    /// HTTP exchange with the gateway.
    Gateway,
    /// Admission, queueing and scheduling in the sampling service.
    Service,
    /// Engine job set-up and tear-down outside rounds.
    Engine,
    /// Round execution, split into runtime, access and core afterwards.
    Compute,
}

impl Layer {
    fn label(self) -> &'static str {
        match self {
            Layer::Harness => "harness",
            Layer::Gateway => "gateway",
            Layer::Service => "service",
            Layer::Engine => "engine",
            Layer::Compute => "compute",
        }
    }
}

/// One recorded span. A child lies inside its parent's interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Parent span id (index into the tracer's spans).
    pub parent: Option<usize>,
    /// Job the span belongs to (all spans of one job share it).
    pub job: u64,
    /// Layer charged with the span's self time.
    pub layer: Layer,
    /// What the span covers, e.g. `service.queue`.
    pub name: &'static str,
    /// Start of the interval.
    pub start: Instant,
    /// End of the interval.
    pub end: Instant,
}

/// In-memory span recorder; records nothing while disabled.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records iff `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Records a span and returns its id. Parents must be recorded before
    /// their children; a child is clamped into its parent's interval.
    pub fn record(
        &mut self,
        parent: Option<usize>,
        job: u64,
        layer: Layer,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) -> usize {
        if !self.enabled {
            return 0;
        }
        let (mut start, mut end) = (start, end.max(start));
        if let Some(p) = parent.map(|p| &self.spans[p]) {
            start = start.clamp(p.start, p.end);
            end = end.clamp(start, p.end);
        }
        self.spans.push(Span {
            parent,
            job,
            layer,
            name,
            start,
            end,
        });
        self.spans.len() - 1
    }

    /// Recorded spans, in id order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as one JSON line (times in µs from tracer start).
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let us = |t: Instant| t.saturating_duration_since(self.origin).as_secs_f64() * 1e6;
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"job\":{},\"layer\":\"{}\",\"name\":\"{}\",\"start_us\":{:.1},\"end_us\":{:.1}}}",
                s.job,
                s.layer.label(),
                s.name,
                us(s.start),
                us(s.end)
            )?;
        }
        out.flush()
    }
}

/// Self time per layer, in seconds, over a traced pass.
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    /// Layer name → self seconds (`harness`, `gateway`, `service`,
    /// `engine`, `runtime`, `access`, `core`).
    pub self_s: BTreeMap<&'static str, f64>,
    /// Seconds during which at least one span was open.
    pub covered_s: f64,
}

/// How the compute spans' time is divided among runtime, access and core.
#[derive(Debug, Clone, Copy, Default)]
pub struct ComputeSplit {
    /// Backend busy seconds summed over threads, divided by the pool width.
    pub access_s: f64,
    /// Rounds dispatched to workers × the measured dispatch cost.
    pub runtime_s: f64,
}

/// Computes each layer's self time from `spans` by the sweep described in
/// the module docs.
pub fn ledger(spans: &[Span], split: ComputeSplit) -> Ledger {
    // (time, is_start, id): ends sort before starts at equal times; among
    // starts parents (lower ids) open first, among ends children close first.
    let mut events: Vec<(Instant, bool, usize)> = Vec::with_capacity(spans.len() * 2);
    // Zero-length spans (and their clamped children) cover no time.
    for (id, s) in spans.iter().enumerate().filter(|(_, s)| s.end > s.start) {
        events.push((s.start, true, id));
        events.push((s.end, false, id));
    }
    events.sort_by(|a, b| {
        a.0.cmp(&b.0)
            .then(a.1.cmp(&b.1))
            .then(if a.1 { a.2.cmp(&b.2) } else { b.2.cmp(&a.2) })
    });

    let mut open = vec![false; spans.len()];
    let mut open_children = vec![0u32; spans.len()];
    let mut leaves: BTreeMap<Layer, usize> = BTreeMap::new();
    let mut leaf_total = 0usize;
    let mut by_layer: BTreeMap<Layer, f64> = BTreeMap::new();
    let mut covered_s = 0.0;
    let mut prev: Option<Instant> = None;

    for (at, is_start, id) in events {
        if let Some(prev) = prev {
            let dt = at.saturating_duration_since(prev).as_secs_f64();
            if leaf_total > 0 && dt > 0.0 {
                covered_s += dt;
                for (layer, n) in &leaves {
                    *by_layer.entry(*layer).or_default() += dt * *n as f64 / leaf_total as f64;
                }
            }
        }
        prev = Some(at);
        let span = &spans[id];
        let mut leaf = |layer: Layer, delta: isize| {
            let n = leaves.entry(layer).or_default();
            *n = n.checked_add_signed(delta).expect("leaf count underflow");
            leaf_total = leaf_total
                .checked_add_signed(delta)
                .expect("leaf count underflow");
        };
        if is_start {
            open[id] = true;
            if let Some(p) = span.parent.filter(|&p| open[p]) {
                if open_children[p] == 0 {
                    leaf(spans[p].layer, -1);
                }
                open_children[p] += 1;
            }
            leaf(span.layer, 1);
        } else {
            if open_children[id] == 0 {
                leaf(span.layer, -1);
            }
            open[id] = false;
            if let Some(p) = span.parent.filter(|&p| open[p]) {
                open_children[p] -= 1;
                if open_children[p] == 0 {
                    leaf(spans[p].layer, 1);
                }
            }
        }
    }

    let compute = by_layer.remove(&Layer::Compute).unwrap_or(0.0);
    let runtime = split.runtime_s.min(compute);
    let access = split.access_s.min(compute - runtime);
    let mut self_s: BTreeMap<&'static str, f64> = by_layer
        .into_iter()
        .map(|(layer, s)| (layer.label(), s))
        .collect();
    for name in ["harness", "gateway", "service", "engine"] {
        self_s.entry(name).or_default();
    }
    self_s.insert("runtime", runtime);
    self_s.insert("access", access);
    self_s.insert("core", compute - runtime - access);
    Ledger { self_s, covered_s }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_times_partition_the_covered_time() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let mut tr = Tracer::new(true);
        // Job A: root 0..100, engine job 10..90 with a round 20..80.
        let a = tr.record(None, 1, Layer::Harness, "harness.job", at(0), at(100));
        let aj = tr.record(Some(a), 1, Layer::Engine, "engine.job", at(10), at(90));
        tr.record(Some(aj), 1, Layer::Compute, "engine.round", at(20), at(80));
        // Job B overlaps A's tail: a queue span 50..150 under its root.
        let b = tr.record(None, 2, Layer::Harness, "harness.job", at(50), at(150));
        tr.record(Some(b), 2, Layer::Service, "service.queue", at(50), at(150));

        let split = ComputeSplit {
            access_s: 0.010,
            runtime_s: 0.005,
        };
        let l = ledger(tr.spans(), split);
        let total: f64 = l.self_s.values().sum();
        assert!((l.covered_s - 0.150).abs() < 1e-9);
        assert!((total - l.covered_s).abs() < 1e-9);
        // 20..50 the round runs alone; 50..80 it shares with B's queue.
        let compute = 0.030 + 0.015;
        assert!((l.self_s["access"] - 0.010).abs() < 1e-9);
        assert!((l.self_s["runtime"] - 0.005).abs() < 1e-9);
        assert!((l.self_s["core"] - (compute - 0.015)).abs() < 1e-9);
        // Harness: A's root alone 0..10 and 90..100 shared with B's queue.
        assert!((l.self_s["harness"] - 0.015).abs() < 1e-9);
    }

    #[test]
    fn children_are_clamped_and_disabled_tracer_records_nothing() {
        let t0 = Instant::now();
        let mut tr = Tracer::new(true);
        let root = tr.record(
            None,
            0,
            Layer::Harness,
            "r",
            t0,
            t0 + Duration::from_millis(5),
        );
        let c = tr.record(
            Some(root),
            0,
            Layer::Service,
            "c",
            t0 - Duration::from_millis(1),
            t0 + Duration::from_millis(9),
        );
        assert_eq!(tr.spans()[c].start, t0);
        assert_eq!(tr.spans()[c].end, t0 + Duration::from_millis(5));
        let mut off = Tracer::new(false);
        off.record(None, 0, Layer::Harness, "r", t0, t0);
        assert!(off.spans().is_empty());
    }
}
