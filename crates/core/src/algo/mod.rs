//! The 18 graph problems of Table 1, implemented PSAM-style: no writes to the
//! graph, `O(n)` (or `O(n + m/log n)`) words of DRAM state.
//!
//! | Module | Problem(s) | Technique |
//! |---|---|---|
//! | [`bfs`] | Breadth-first search | edgeMapChunked |
//! | [`msbfs`] | Multi-source BFS (≤64 sources, batched serving) | bit-parallel masks |
//! | [`wbfs`] | Integral-weight SSSP | chunked + bucketing |
//! | [`bellman_ford`] | General-weight SSSP | chunked |
//! | [`widest_path`] | Single-source widest path (2 impls) | chunked (+ bucketing) |
//! | [`betweenness`] | Single-source betweenness | chunked, fwd/bwd |
//! | [`spanner`] | O(k)-spanner (MPX15) | LDD |
//! | [`ldd`] | Low-diameter decomposition | chunked |
//! | [`connectivity`] | Connectivity | LDD + union-find finish |
//! | [`spanning_forest`] | Spanning forest | LDD + union-find finish |
//! | [`biconnectivity`] | Biconnectivity | BFS tree + filtered CC |
//! | [`mis`] | Maximal independent set | rootset greedy |
//! | [`maximal_matching`] | Maximal matching | graphFilter |
//! | [`coloring`] | (Δ+1) graph coloring | Jones–Plassmann LF |
//! | [`set_cover`] | Approximate set cover | bucketing + graphFilter |
//! | [`kcore`] | k-core (coreness) | bucketing + histogram |
//! | [`densest_subgraph`] | (2+ε)-approx densest subgraph | peeling + histogram |
//! | [`triangle`] | Triangle counting | graphFilter orientation |
//! | [`pagerank`] | PageRank (+ single iteration) | dense reduce |
//! | [`kclique`] | k-clique counting (§3.2 extension) | graphFilter orientation |

pub mod bellman_ford;
pub mod betweenness;
pub mod bfs;
pub mod biconnectivity;
pub mod coloring;
pub mod connectivity;
pub mod densest_subgraph;
pub mod kclique;
pub mod kcore;
pub mod ldd;
pub mod local;
pub mod maximal_matching;
pub mod mis;
pub mod msbfs;
pub mod pagerank;
pub mod set_cover;
pub mod spanner;
pub mod spanning_forest;
pub mod triangle;
pub mod wbfs;
pub mod widest_path;

pub(crate) mod common;
