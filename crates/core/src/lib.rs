#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]
//! The Sage engine: semi-asymmetric parallel graph algorithms (VLDB'20).
//!
//! Sage processes graphs under the Parallel Semi-Asymmetric Model: the graph
//! is a read-only structure in large memory (NVRAM) and all mutable state
//! lives in `O(n)` (relaxed: `O(n + m/log n)`) words of small memory (DRAM).
//! This crate implements the paper's two core techniques and all 18 of its
//! graph algorithms:
//!
//! * [`edge_map()`] — graph traversal with direction optimization, including
//!   the memory-inefficient `edgeMapSparse`, GBBS's `edgeMapBlocked`, and the
//!   paper's `O(n)`-memory **`edgeMapChunked`** (§4.1, Algorithm 1);
//! * [`filter`] — the **graphFilter** (§4.2): a DRAM-resident bit-packed view
//!   of the NVRAM graph supporting batched edge deletions without writing to
//!   the graph;
//! * [`bucket`] — Julienne-style bucketing with the semi-eager packing
//!   strategy of Appendix B;
//! * [`algo`] — the 18 problems of Table 1;
//! * [`seq`] — sequential reference implementations used to verify every
//!   parallel algorithm.
//!
//! ```
//! use sage_graph::gen;
//! use sage_core::algo::bfs;
//!
//! let g = gen::rmat(10, 8, gen::RmatParams::default(), 1);
//! let parents = bfs::bfs(&g, 0);
//! assert_eq!(parents[0], 0); // the source is its own parent
//! ```

pub mod algo;
pub mod arena;
pub mod bucket;
pub mod edge_map;
pub mod filter;
pub mod overlay;
pub mod seq;
pub mod vertex_subset;

pub use arena::QueryArena;
pub use edge_map::{edge_map, EdgeMapFn, EdgeMapOpts, SparseImpl, Strategy};
pub use filter::GraphFilter;
pub use overlay::{DeltaOverlay, EdgeUpdate};
pub use vertex_subset::VertexSubset;
