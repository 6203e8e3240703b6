//! # wnw-graph
//!
//! Graph substrate for the reproduction of *"Walk, Not Wait: Faster Sampling
//! Over Online Social Networks"* (Nazi et al., VLDB 2015).
//!
//! The paper models an online social network as an undirected graph
//! `G⟨V, E⟩` that can only be explored through local-neighborhood queries.
//! This crate provides everything the rest of the workspace needs to *stand
//! in* for such a network:
//!
//! * [`Graph`] — a compact CSR (compressed sparse row) undirected graph with
//!   O(1) degree lookup and contiguous neighbor slices. It is the workspace's
//!   only graph type: access backends serve it, and `wnw-catalog` writes its
//!   two raw arrays ([`Graph::offsets`], [`Graph::adjacency`]) to binary
//!   catalogs and reassembles them with [`Graph::from_parts`],
//! * [`NodeMap`] / [`NodeSet`] — hash maps and sets keyed by [`NodeId`] with
//!   an unkeyed multiplicative hasher ([`NodeIdHasher`]) instead of SipHash,
//!   for the per-node lookups on the samplers' hot paths (node ids are
//!   dense graph-internal indices, so keyed hashing buys nothing there),
//! * [`GraphBuilder`] — an edge-list accumulator that deduplicates parallel
//!   edges and self-loops,
//! * [`generators`] — the theoretical graph models used in the paper's case
//!   studies (cycle, hypercube, barbell, balanced tree, Barabási–Albert, …)
//!   and surrogate online-social-network generators standing in for the
//!   Google Plus / Yelp / Twitter crawls,
//! * [`metrics`] — exact ground-truth graph measures (degrees, diameter,
//!   local clustering coefficient, shortest-path lengths, components) used to
//!   compute the relative error of sample-based estimates,
//! * [`attributes`] — per-node attribute storage (e.g. "stars",
//!   "self-description length") used by the aggregate-estimation experiments,
//! * [`io`] — plain-text edge-list and snapshot formats for manual dataset
//!   handling.
//!
//! # Quick example
//!
//! ```
//! use wnw_graph::generators::classic::cycle;
//! use wnw_graph::metrics;
//!
//! let g = cycle(8);
//! assert_eq!(g.node_count(), 8);
//! assert_eq!(g.edge_count(), 8);
//! assert_eq!(metrics::exact_diameter(&g), Some(4));
//!
//! // The raw CSR arrays reassemble into an equal graph.
//! let copy = wnw_graph::Graph::from_parts(g.offsets().to_vec(), g.adjacency().to_vec()).unwrap();
//! assert_eq!(copy, g);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attributes;
pub mod builder;
pub mod error;
pub mod generators;
pub mod graph;
pub mod hash;
pub mod io;
pub mod metrics;
pub mod node;

pub use attributes::{AttributeTable, NodeAttributes};
pub use builder::GraphBuilder;
pub use error::GraphError;
pub use graph::Graph;
pub use hash::{NodeIdHasher, NodeMap, NodeSet};
pub use node::NodeId;

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, GraphError>;
