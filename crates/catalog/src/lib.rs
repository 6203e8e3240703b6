//! # wnw-catalog
//!
//! Binary on-disk catalogs for the *"Walk, Not Wait"* (Nazi et al., VLDB
//! 2015) reproduction: a [`wnw_graph::Graph`] serialized to a versioned,
//! checksummed file, and a registry of named seeded graphs that are
//! generated once and loaded per run.
//!
//! A `Graph` is already two flat CSR arrays (`offsets: Vec<u64>`,
//! `adjacency: Vec<NodeId>`), so a catalog is those arrays written as-is
//! and loading one is a flat copy plus validation — no per-node
//! reconstruction, no conversion. A loaded graph is served like any other,
//! through `wnw_access::SimulatedOsn`. This crate supplies:
//!
//! * [`mod@format`] — the `WNWCATLG` binary catalog format (magic, versioned
//!   header, FNV-1a-checksummed little-endian sections, std-only I/O) with
//!   [`save`](format::save)/[`load`](format::load); every way a file can be
//!   damaged maps to a typed [`CatalogError`], never a panic. Catalogs hold
//!   topology only: a graph's attributes are not written;
//! * [`GraphSpec`] — named, seeded graph specifications (`ba_100k`,
//!   `ba_1m`, ...) with a build-once cache under `target/catalogs/` (or
//!   `$WNW_CATALOG_DIR`), so large graphs are loaded in milliseconds
//!   instead of regenerated per run.
//!
//! # Quick example
//!
//! ```
//! use wnw_catalog::{format, GraphModel, GraphSpec};
//! use wnw_graph::NodeId;
//!
//! let spec = GraphSpec::new("demo", GraphModel::BarabasiAlbert { m: 2 }, 500, 42);
//! let graph = spec.build().unwrap();
//! assert_eq!(graph.node_count(), 500);
//! assert!(!graph.neighbors(NodeId(0)).is_empty());
//!
//! let mut bytes = Vec::new();
//! format::save_to(&graph, &mut bytes).unwrap();
//! let loaded = format::load_from(&mut &bytes[..]).unwrap();
//! assert_eq!(loaded, graph);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod format;
pub mod spec;

pub use error::CatalogError;
pub use spec::{catalog_dir, CatalogSource, GraphModel, GraphSpec, CATALOG_DIR_ENV};

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, CatalogError>;
