//! Unweighted-graph substrate for the `netdecomp` workspace.
//!
//! This crate provides everything the decomposition algorithms need from a
//! graph library, built from scratch so the whole stack is dependency-light
//! and auditable:
//!
//! - [`Graph`]: an immutable, compact CSR (compressed sparse row) simple
//!   undirected graph, constructed through [`GraphBuilder`].
//! - [`generators`]: thirteen synthetic graph families (Erdős–Rényi,
//!   random-regular, grids, tori, hypercubes, trees, Barabási–Albert,
//!   caveman clusters, and the classical fixed topologies).
//! - [`bfs`]: single-source / multi-source / subset-restricted breadth-first
//!   search, the distance oracle used throughout the workspace.
//! - [`components`]: connected components, also restricted to vertex subsets.
//! - [`diameter`]: exact eccentricities and diameters (global and induced),
//!   a 64-source bit-parallel BFS for batched cluster diameters, and a
//!   two-sweep lower-bound heuristic.
//! - [`contraction`]: quotient (super-) graphs induced by a vertex partition,
//!   used to color the cluster graph `G(P)` of a decomposition.
//! - [`induced`]: induced-subgraph extraction with id mapping (the
//!   "collect the cluster topology at a leader" primitive).
//! - [`power`]: graph powers `G^r` for neighborhood-cover constructions.
//! - [`coloring`]: greedy proper coloring (used on supergraphs).
//! - [`VertexSet`]: a dense bitset over vertex ids, used for "alive" sets.
//! - [`io`]: a tiny self-describing edge-list text format.
//!
//! # Example
//!
//! ```
//! use netdecomp_graph::{generators, bfs};
//!
//! let g = generators::grid2d(4, 5);
//! assert_eq!(g.vertex_count(), 20);
//! let dist = bfs::distances(&g, 0);
//! // Manhattan distance from corner (0,0) to corner (3,4):
//! assert_eq!(dist[19], Some(3 + 4));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod builder;
mod csr;
mod error;
mod subset;

pub mod bfs;
pub mod coloring;
pub mod components;
pub mod contraction;
pub mod diameter;
pub mod generators;
pub mod induced;
pub mod io;
pub mod partition;
pub mod power;
pub mod properties;

pub use builder::GraphBuilder;
pub use csr::{Graph, NeighborIter, VertexId};
pub use error::GraphError;
pub use partition::Partition;
pub use subset::VertexSet;
