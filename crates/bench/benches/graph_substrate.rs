//! Catalog benchmark: what a binary graph catalog buys over regenerating
//! the graph, at the scales the ROADMAP's north star actually needs.
//!
//! For each registry spec (`ba_100k` and `ba_1m` at full scale; `ba_10k`
//! and `ba_50k` under `WNW_BENCH_SMOKE=1`) the bench measures:
//!
//! * **generate** — seeded Barabási–Albert generation of the [`Graph`];
//! * **catalog I/O** — binary save and load times, and the load's speedup
//!   over regenerating the same graph (the whole point of catalogs).
//!
//! Besides the console output, the bench writes
//! `BENCH_graph_substrate.json` at the repo root. At full scale the run
//! **gates**: a catalog load must be ≥ 10× faster than regeneration at the
//! largest spec — the acceptance criterion of the catalog subsystem,
//! enforced, not asserted in prose.
//!
//! [`Graph`]: wnw_graph::Graph

use std::time::{Duration, Instant};
use wnw_catalog::{format, GraphSpec};
use wnw_graph::generators::random::barabasi_albert;

fn smoke() -> bool {
    std::env::var_os("WNW_BENCH_SMOKE").is_some()
}

/// Registry specs measured at each scale.
fn spec_names() -> [&'static str; 2] {
    if smoke() {
        ["ba_10k", "ba_50k"]
    } else {
        ["ba_100k", "ba_1m"]
    }
}

/// Best wall-clock of `tries` runs of `f` (generate/save/load timings are
/// single-shot operations; best-of-N strips scheduler noise).
fn best_of<T>(tries: usize, mut f: impl FnMut() -> T) -> (Duration, T) {
    let mut best: Option<Duration> = None;
    let mut last = None;
    for _ in 0..tries {
        let started = Instant::now();
        let value = f();
        let took = started.elapsed();
        if best.is_none_or(|b| took < b) {
            best = Some(took);
        }
        last = Some(value);
    }
    (best.expect("tries >= 1"), last.expect("tries >= 1"))
}

/// One spec's full measurement row.
struct SpecResult {
    name: &'static str,
    nodes: usize,
    edges: usize,
    generate_ms: f64,
    save_ms: f64,
    load_ms: f64,
    load_speedup: f64,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn measure_spec(name: &'static str) -> SpecResult {
    let spec = GraphSpec::named(name).expect("registry spec");
    let tries = if spec.nodes() > 200_000 { 1 } else { 3 };

    let (generate, graph) = best_of(tries, || {
        barabasi_albert(spec.nodes(), 3, spec.seed()).expect("valid BA parameters")
    });

    let dir = std::env::temp_dir().join(format!("wnw-substrate-bench-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("bench temp dir");
    let path = dir.join(spec.file_name());
    let (save, ()) = best_of(tries.max(2), || {
        format::save(&graph, &path).expect("catalog save")
    });
    let (load, loaded) = best_of(tries.max(2), || format::load(&path).expect("catalog load"));
    assert_eq!(loaded, graph, "load must roundtrip exactly");
    std::fs::remove_dir_all(&dir).ok();

    SpecResult {
        name,
        nodes: graph.node_count(),
        edges: graph.edge_count(),
        generate_ms: ms(generate),
        save_ms: ms(save),
        load_ms: ms(load),
        load_speedup: generate.as_secs_f64() / load.as_secs_f64().max(1e-9),
    }
}

fn write_json(results: &[SpecResult], path: &str) -> std::io::Result<()> {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"benchmark\": \"graph_substrate\",\n");
    out.push_str(
        "  \"description\": \"binary graph catalogs vs regeneration: seeded BA generation, \
         catalog save and load times, and the load's speedup over regenerating the graph\",\n",
    );
    out.push_str(&format!("  \"smoke\": {},\n", smoke()));
    out.push_str("  \"specs\": [\n");
    for (i, r) in results.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"spec\": \"{}\", \"nodes\": {}, \"edges\": {}, \"generate_ms\": {:.2}, \
             \"catalog_save_ms\": {:.2}, \"catalog_load_ms\": {:.2}, \"load_speedup\": {:.1}}}{}\n",
            r.name,
            r.nodes,
            r.edges,
            r.generate_ms,
            r.save_ms,
            r.load_ms,
            r.load_speedup,
            if i + 1 < results.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n}\n");
    std::fs::write(path, out)
}

/// The acceptance gate, judged on the largest spec (1M nodes at full
/// scale). Smoke runs report the same numbers but do not gate — CI shared
/// runners are too noisy for timing ratios at 10k-node scale.
fn verdict(results: &[SpecResult]) -> (String, bool) {
    let largest = results.last().expect("at least one spec");
    (
        format!(
            "{}: catalog load >= 10x faster than regenerating (got {:.1}x)",
            largest.name, largest.load_speedup
        ),
        largest.load_speedup >= 10.0,
    )
}

fn main() {
    let results: Vec<SpecResult> = spec_names().iter().map(|&n| measure_spec(n)).collect();
    eprintln!("graph substrate:");
    for r in &results {
        eprintln!(
            "  {} ({} nodes, {} edges): generate {:.1} ms; save {:.1} ms, load {:.1} ms \
             ({:.1}x vs regen)",
            r.name, r.nodes, r.edges, r.generate_ms, r.save_ms, r.load_ms, r.load_speedup,
        );
    }

    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_graph_substrate.json"
    );
    match write_json(&results, path) {
        Ok(()) => eprintln!("wrote {path}"),
        Err(err) => {
            // The JSON report is the bench's whole point for CI — a silent
            // miss would leave the workflow green with no artifact.
            eprintln!("could not write {path}: {err}");
            std::process::exit(1);
        }
    }

    let (check, pass) = verdict(&results);
    eprintln!("  [{}] {}", if pass { "PASS" } else { "FAIL" }, check);
    if !pass && !smoke() {
        eprintln!("graph_substrate: acceptance criteria not met");
        std::process::exit(1);
    }
}
