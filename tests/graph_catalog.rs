//! Acceptance bar of the `wnw-catalog` subsystem, through the facade crate:
//!
//! * **catalog roundtrip:** save → load through the filesystem is
//!   lossless: the loaded `Graph` equals the saved one;
//! * **spec cache:** `load_or_build_in` builds on a cold directory, loads
//!   on a warm one, and recovers from a stomped cache file.

use std::path::PathBuf;
use walk_not_wait::catalog::{CatalogSource, GraphModel, GraphSpec};
use walk_not_wait::graph::generators::random::barabasi_albert;
use walk_not_wait::prelude::*;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wnwcat-it-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Catalog save → load → verify roundtrip through the real filesystem.
#[test]
fn catalog_roundtrip_through_filesystem_is_lossless() {
    let dir = temp_dir("roundtrip");
    let path = dir.join("roundtrip.wnwcat");
    let graph = barabasi_albert(3_000, 3, 0xD15C).unwrap();

    walk_not_wait::catalog::format::save(&graph, &path).unwrap();
    let loaded = walk_not_wait::catalog::format::load(&path).unwrap();
    assert_eq!(loaded, graph);

    // Verify the loaded graph is usable, not just equal: walk a few nodes.
    for v in [0u32, 1, 1_500, 2_999] {
        let v = NodeId(v);
        assert_eq!(loaded.degree(v), graph.degree(v));
        assert_eq!(loaded.neighbors(v), graph.neighbors(v));
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The spec cache lifecycle: cold build, warm load, corrupt-file recovery.
#[test]
fn spec_cache_builds_loads_and_self_heals() {
    let dir = temp_dir("cache");
    let spec = GraphSpec::new(
        "it_cache",
        GraphModel::BarabasiAlbert { m: 3 },
        1_000,
        0xFEED,
    );

    let (built, src) = spec.load_or_build_in(&dir).unwrap();
    assert_eq!(src, CatalogSource::Built);
    let (loaded, src) = spec.load_or_build_in(&dir).unwrap();
    assert_eq!(src, CatalogSource::Loaded);
    assert_eq!(built, loaded);

    std::fs::write(spec.path_in(&dir), b"\x00garbage").unwrap();
    let (healed, src) = spec.load_or_build_in(&dir).unwrap();
    assert_eq!(src, CatalogSource::Built);
    assert_eq!(healed, built);
    std::fs::remove_dir_all(&dir).ok();
}
