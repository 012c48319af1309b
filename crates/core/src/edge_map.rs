//! `edgeMap`: frontier-based graph traversal (§2, §4.1).
//!
//! Four implementations of the sparse (push) direction are provided, matching
//! the paper's taxonomy:
//!
//! * [`SparseImpl::Sparse`] — Ligra's original `edgeMapSparse`: allocates an
//!   intermediate array proportional to the frontier's out-degree sum (up to
//!   `O(m)` — *memory-inefficient*, violates the PSAM; kept as the baseline of
//!   Table 5);
//! * [`SparseImpl::Blocked`] — GBBS's `edgeMapBlocked`: same `O(Σdeg)`
//!   allocation but writes only as many cache lines as the output frontier;
//! * [`SparseImpl::Chunked`] — the paper's **`edgeMapChunked`** (Algorithm 1):
//!   groups adjacency blocks into ≈`max(4096, davg)`-edge units of work,
//!   writes survivors into pooled chunks, and aggregates them with a prefix
//!   sum, using `O(n)` words of small memory (Theorem 4.1).
//!
//! The dense (pull) direction and Beamer-style direction optimization follow
//! Ligra: dense is chosen when `|U| + Σ_{u∈U} deg(u) > m / 20`, a fixed
//! threshold; [`EdgeMapOpts`] selects only the direction policy and the
//! sparse implementation.
//!
//! Dense traversal requires a symmetric graph (in-neighbors = out-neighbors),
//! which holds for every input in the paper's evaluation (§5.1.3). The engine
//! *enforces* this via [`sage_graph::Graph::is_symmetric`]: under
//! [`Strategy::Auto`] an asymmetric graph silently stays on the always-correct
//! sparse (push) side, and [`Strategy::ForceDense`] panics rather than pull
//! over out-edges that are not valid in-edges.

use crate::arena;
use crate::vertex_subset::VertexSubset;
use sage_graph::{Graph, V};
use sage_nvram::meter;
use sage_parallel as par;
use std::sync::atomic::{AtomicU64, Ordering};

/// User-supplied edge function, mirroring Ligra's `F` (§2 and Figure 4).
pub trait EdgeMapFn: Sync {
    /// Non-atomic update, called from the dense direction where each
    /// destination is processed by exactly one thread.
    fn update(&self, s: V, d: V, w: u32) -> bool;

    /// Atomic update (CAS-based), called from the sparse direction where many
    /// sources may target `d` concurrently.
    fn update_atomic(&self, s: V, d: V, w: u32) -> bool;

    /// Whether destination `d` should still be visited.
    fn cond(&self, d: V) -> bool;
}

/// Traversal direction policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Strategy {
    /// Beamer direction optimization with the `m/20` threshold.
    Auto,
    /// Always push (sparse).
    ForceSparse,
    /// Always pull (dense).
    ForceDense,
}

/// Which sparse traversal implementation to use.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SparseImpl {
    /// The paper's memory-efficient `edgeMapChunked` (default).
    Chunked,
    /// GBBS's `edgeMapBlocked`.
    Blocked,
    /// Ligra's `edgeMapSparse`.
    Sparse,
}

/// Options for [`edge_map`].
#[derive(Clone, Copy, Debug)]
pub struct EdgeMapOpts {
    /// Direction policy.
    pub strategy: Strategy,
    /// Sparse implementation.
    pub sparse_impl: SparseImpl,
}

/// Ligra's `m/20`: [`Strategy::Auto`] goes dense when `|U| + Σdeg > m / 20`.
const DENSE_THRESHOLD_DEN: usize = 20;

impl Default for EdgeMapOpts {
    fn default() -> Self {
        Self {
            strategy: Strategy::Auto,
            sparse_impl: SparseImpl::Chunked,
        }
    }
}

/// Apply `f` over the edges out of `frontier`, returning the new frontier
/// (vertices `d` with an edge `(s,d)`, `s ∈ frontier`, `cond(d)` true and
/// `update(s,d,w)` true).
pub fn edge_map<G: Graph, F: EdgeMapFn>(
    g: &G,
    frontier: &mut VertexSubset,
    f: &F,
    opts: EdgeMapOpts,
) -> VertexSubset {
    let n = g.num_vertices();
    if frontier.is_empty() {
        return VertexSubset::empty(n);
    }
    let dense = match opts.strategy {
        Strategy::ForceSparse => false,
        Strategy::ForceDense => {
            assert!(
                g.is_symmetric(),
                "dense (pull) edge_map reads out-edges as in-edges, which is only \
                 correct on a symmetric graph; symmetrize the input (or mark_symmetric \
                 a known-undirected one), or use Strategy::Auto / ForceSparse"
            );
            true
        }
        Strategy::Auto => {
            // Asymmetric graphs stay on the push side (pull would traverse
            // out-edges that are not valid in-edges); checking the flag first
            // skips the O(|frontier|) degree-sum estimate entirely for them.
            g.is_symmetric() && {
                let work = frontier.len() + frontier.out_degree_sum(g);
                work > g.num_edges() / DENSE_THRESHOLD_DEN
            }
        }
    };
    if dense {
        let flags = frontier.as_dense();
        edge_map_dense(g, flags, f)
    } else {
        let ids = frontier.as_sparse();
        let out = match opts.sparse_impl {
            SparseImpl::Chunked => edge_map_chunked(g, ids, f),
            SparseImpl::Blocked => edge_map_blocked(g, ids, f),
            SparseImpl::Sparse => edge_map_sparse(g, ids, f),
        };
        VertexSubset::from_sparse(n, out)
    }
}

/// Dense (pull) traversal: scan the in-edges of every still-eligible vertex.
///
/// Graphs without O(1) random access (compressed) decode each adjacency
/// block *once* into pooled [`arena`] scratch and probe the decoded slice,
/// instead of interleaving varint decoding with the per-edge `cond` probe —
/// early exit stays block-granular either way (§4.2.3). Random-access
/// graphs stream directly; buffering would only add a copy. The pool round
/// trip costs two mutex ops, so only multi-block vertices take it.
fn edge_map_dense<G: Graph, F: EdgeMapFn>(g: &G, flags: &[bool], f: &F) -> VertexSubset {
    let n = g.num_vertices();
    let bs = g.block_size();
    let buffered = !g.supports_random_access();
    let out: Vec<bool> = par::par_map(n, |di| {
        let d = di as V;
        if !f.cond(d) {
            return false;
        }
        let mut added = false;
        let mut processed = 0u64;
        if buffered && g.degree(d) > bs {
            let mut buf = arena::fetch_edges(bs);
            let mut go = true;
            for b in 0..g.num_blocks_of(d) {
                if !go {
                    break;
                }
                buf.clear();
                g.decode_block(d, b, |_, s, w| buf.push((s, w)));
                for &(s, w) in buf.iter() {
                    processed += 1;
                    if flags[s as usize] && f.update(s, d, w) {
                        added = true;
                    }
                    if !f.cond(d) {
                        go = false;
                        break;
                    }
                }
            }
            arena::release_edges(buf);
        } else {
            g.for_each_edge_while(d, |s, w| {
                processed += 1;
                if flags[s as usize] && f.update(s, d, w) {
                    added = true;
                }
                f.cond(d)
            });
        }
        meter::aux_read(processed + 1);
        if added {
            meter::aux_write(1);
        }
        added
    });
    VertexSubset::from_dense(n, out)
}

/// Ligra's `edgeMapSparse`: `O(Σ_{u∈U} deg(u))` intermediate memory (§4.1.1).
fn edge_map_sparse<G: Graph, F: EdgeMapFn>(g: &G, ids: &[V], f: &F) -> Vec<V> {
    let mut offs: Vec<u64> = par::par_map(ids.len(), |i| g.degree(ids[i]) as u64);
    let total = par::scan_add(&mut offs) as usize;
    // The memory-inefficient allocation this paper eliminates: one slot per
    // incident edge.
    let mut slots: Vec<V> = vec![sage_graph::NONE_V; total];
    meter::aux_write(total as u64);
    {
        let sp = par::SendPtr(slots.as_mut_ptr());
        let offs_ref: &[u64] = &offs;
        par::par_for(0, ids.len(), |i| {
            let u = ids[i];
            let base = offs_ref[i] as usize;
            let mut j = 0usize;
            let mut hits = 0u64;
            g.for_each_edge(u, |d, w| {
                if f.cond(d) && f.update_atomic(u, d, w) {
                    // SAFETY: slot `base + j` belongs to source `u` alone.
                    unsafe { *sp.add(base + j) = d };
                    hits += 1;
                }
                j += 1;
            });
            meter::aux_read(j as u64);
            meter::aux_write(hits);
        });
    }
    par::filter_slice(&slots, |&v| v != sage_graph::NONE_V)
}

/// Work unit for the blocked traversal (edges per block).
const EM_BLOCK_EDGES: usize = 2048;

/// GBBS's `edgeMapBlocked`: `O(Σdeg)` slots but compact per-block writes.
fn edge_map_blocked<G: Graph, F: EdgeMapFn>(g: &G, ids: &[V], f: &F) -> Vec<V> {
    let mut offs: Vec<u64> = par::par_map(ids.len(), |i| g.degree(ids[i]) as u64);
    let total = par::scan_add(&mut offs) as usize;
    if total == 0 {
        return Vec::new();
    }
    let nblocks = total.div_ceil(EM_BLOCK_EDGES);
    let mut slots: Vec<V> = Vec::with_capacity(total);
    let mut counts = vec![0u64; nblocks];
    {
        let sp = par::SendPtr(slots.as_mut_ptr());
        let cp = par::SendPtr(counts.as_mut_ptr());
        let offs_ref: &[u64] = &offs;
        par::par_for_grain(0, nblocks, 1, |b| {
            let lo = b * EM_BLOCK_EDGES;
            let hi = ((b + 1) * EM_BLOCK_EDGES).min(total);
            // First frontier vertex whose edge range intersects [lo, hi).
            let mut vi = match offs_ref.binary_search(&(lo as u64)) {
                Ok(mut i) => {
                    // Skip zero-degree entries mapping to the same offset.
                    while i + 1 < offs_ref.len() && offs_ref[i + 1] as usize <= lo {
                        i += 1;
                    }
                    i
                }
                Err(i) => i - 1,
            };
            let mut written = 0usize;
            let mut pos = lo;
            while pos < hi && vi < ids.len() {
                let u = ids[vi];
                let u_base = offs_ref[vi] as usize;
                let u_deg = g.degree(u);
                let local_lo = pos - u_base;
                let local_hi = (hi - u_base).min(u_deg);
                let mut j = 0usize;
                g.for_each_edge(u, |d, w| {
                    if j >= local_lo && j < local_hi && f.cond(d) && f.update_atomic(u, d, w) {
                        // SAFETY: block `b` owns slots [lo, hi); writes compact.
                        unsafe { *sp.add(lo + written) = d };
                        written += 1;
                    }
                    j += 1;
                });
                pos = u_base + local_hi;
                vi += 1;
            }
            meter::aux_read((hi - lo) as u64);
            meter::aux_write(written as u64);
            // SAFETY: each block writes its own counter.
            unsafe { *cp.add(b) = written as u64 };
        });
    }
    // Compact the per-block segments.
    let mut out_offs = counts.clone();
    let out_len = par::scan_add(&mut out_offs) as usize;
    let mut out: Vec<V> = Vec::with_capacity(out_len);
    {
        let op = par::SendPtr(out.as_mut_ptr());
        let sp = par::SendPtr(slots.as_mut_ptr());
        let counts_ref: &[u64] = &counts;
        let out_offs_ref: &[u64] = &out_offs;
        par::par_for_grain(0, nblocks, 1, |b| {
            let src = b * EM_BLOCK_EDGES;
            let dst = out_offs_ref[b] as usize;
            let cnt = counts_ref[b] as usize;
            // SAFETY: disjoint destination ranges; sources were initialized.
            unsafe { std::ptr::copy_nonoverlapping(sp.add(src) as *const V, op.add(dst), cnt) };
        });
        // SAFETY: all out_len slots written above.
        unsafe { out.set_len(out_len) };
    }
    out
}

// The pooled output chunks of the paper's pool-based chunk allocator
// (§4.1.2) live in `crate::arena`: each query draws from its own
// `QueryArena` when one is installed, falling back to a process-wide shared
// pool for one-shot runs.

/// The paper's `edgeMapChunked` (Algorithm 1): memory-efficient sparse
/// traversal with `O(n)` words of intermediate memory (Theorem 4.1).
fn edge_map_chunked<G: Graph, F: EdgeMapFn>(g: &G, ids: &[V], f: &F) -> Vec<V> {
    let bs = g.block_size();
    let davg = g.avg_degree();
    let chunk_size = 4096.max(davg); // Algorithm 1, line 1
    let min_group_size = 4096.max(davg); // Algorithm 1, line 2

    // Lines 11-13: output blocks B for u ∈ U and prefix sums O of block degrees.
    let mut vblock_offs: Vec<u64> = par::par_map(ids.len(), |i| g.num_blocks_of(ids[i]) as u64);
    let total_blocks = par::scan_add(&mut vblock_offs) as usize;
    if total_blocks == 0 {
        return Vec::new();
    }
    // blocks[j] = (frontier index, block id within vertex)
    let mut blocks: Vec<(u32, u32)> = Vec::with_capacity(total_blocks);
    {
        let bp = par::SendPtr(blocks.as_mut_ptr());
        let vb: &[u64] = &vblock_offs;
        par::par_for(0, ids.len(), |i| {
            let base = vb[i] as usize;
            let nb = g.num_blocks_of(ids[i]);
            for b in 0..nb {
                // SAFETY: vertex i owns block slots [base, base + nb).
                unsafe { bp.add(base + b).write((i as u32, b as u32)) };
            }
        });
        // SAFETY: every slot written above.
        unsafe { blocks.set_len(total_blocks) };
    }
    // Prefix sums of block-degree *estimates*. For plain graphs the estimate
    // is exact; for filtered views (whose active degree can be far below
    // blocks x FB) it only steers load balancing, so it is clamped into
    // [1, FB] rather than assumed exact.
    let mut block_deg: Vec<u64> = {
        let blocks_ref: &[(u32, u32)] = &blocks;
        par::par_map(total_blocks, |j| {
            let (i, b) = blocks_ref[j];
            let deg = g.degree(ids[i as usize]);
            deg.saturating_sub((b as usize) * bs).clamp(1, bs) as u64
        })
    };
    let du = par::scan_add(&mut block_deg) as usize; // Line 14: dU

    // Lines 15-18: group boundaries.
    let p = par::num_threads();
    let group_size = (du.div_ceil(8 * p)).max(min_group_size);
    let num_groups = du.div_ceil(group_size).max(1);
    let group_start = |gi: usize| -> usize {
        // First block whose prefix-degree is >= gi * group_size.
        let target = (gi * group_size) as u64;
        block_deg.partition_point(|&x| x < target)
    };

    // Lines 19-23: process groups; per-group chunk vectors. On compressed
    // graphs each block is decoded once into per-query arena scratch (one
    // buffer per group, fetched up front) and the update/cond pass runs
    // over the decoded slice.
    let buffered = !g.supports_random_access();
    let group_results: Vec<Vec<Vec<V>>> = {
        let blocks_ref: &[(u32, u32)] = &blocks;
        par::par_map_grain(num_groups, 1, |gi| {
            let jlo = group_start(gi);
            let jhi = if gi + 1 == num_groups {
                total_blocks
            } else {
                group_start(gi + 1)
            };
            let mut chunks: Vec<Vec<V>> = Vec::new();
            let mut dbuf = buffered.then(|| arena::fetch_edges(bs.min(arena::EDGES_RETAIN_CAP)));
            let mut processed = 0u64;
            let mut hits = 0u64;
            for &(i, b) in &blocks_ref[jlo..jhi] {
                let u = ids[i as usize];
                // FetchChunk: ensure space for a full block.
                let need = bs;
                if chunks
                    .last()
                    .map_or(true, |c| c.len() + need > c.capacity())
                {
                    chunks.push(arena::fetch_chunk(chunk_size.max(need)));
                }
                let chunk = chunks.last_mut().unwrap();
                match dbuf.as_mut() {
                    Some(buf) => {
                        buf.clear();
                        g.decode_block(u, b as usize, |_, d, w| buf.push((d, w)));
                        for &(d, w) in buf.iter() {
                            processed += 1;
                            if f.cond(d) && f.update_atomic(u, d, w) {
                                chunk.push(d);
                                hits += 1;
                            }
                        }
                    }
                    None => {
                        g.decode_block(u, b as usize, |_, d, w| {
                            processed += 1;
                            if f.cond(d) && f.update_atomic(u, d, w) {
                                chunk.push(d);
                                hits += 1;
                            }
                        });
                    }
                }
            }
            if let Some(buf) = dbuf {
                arena::release_edges(buf);
            }
            meter::aux_read(processed);
            meter::aux_write(hits);
            chunks
        })
    };

    // Lines 24-30: aggregate chunks with a scan and parallel copy.
    let all_chunks: Vec<&Vec<V>> = group_results.iter().flatten().collect();
    let mut sizes: Vec<u64> = all_chunks.iter().map(|c| c.len() as u64).collect();
    let out_len = par::scan_add(&mut sizes) as usize;
    let mut out: Vec<V> = Vec::with_capacity(out_len);
    {
        let op = par::SendPtr(out.as_mut_ptr());
        let sizes_ref: &[u64] = &sizes;
        let chunks_ref: &[&Vec<V>] = &all_chunks;
        par::par_for_grain(0, chunks_ref.len(), 1, |ci| {
            let c = chunks_ref[ci];
            let dst = sizes_ref[ci] as usize;
            // SAFETY: destination ranges are disjoint per chunk.
            unsafe { std::ptr::copy_nonoverlapping(c.as_ptr(), op.add(dst), c.len()) };
        });
        // SAFETY: out_len slots written.
        unsafe { out.set_len(out_len) };
    }
    meter::aux_write(out_len as u64);
    for group in group_results {
        for chunk in group {
            arena::release_chunk(chunk);
        }
    }
    out
}

/// A ready-made [`EdgeMapFn`] for BFS-style "claim the destination once"
/// traversals over an atomic parent array; reused by several algorithms.
pub struct ClaimFn<'a> {
    /// `parents[d] == NONE_V` means unvisited.
    pub parents: &'a [AtomicU64],
}

/// Sentinel stored in [`ClaimFn::parents`] for unvisited vertices.
pub const UNVISITED: u64 = u64::MAX;

impl EdgeMapFn for ClaimFn<'_> {
    fn update(&self, s: V, d: V, _w: u32) -> bool {
        if self.parents[d as usize].load(Ordering::Relaxed) == UNVISITED {
            self.parents[d as usize].store(s as u64, Ordering::Relaxed);
            true
        } else {
            false
        }
    }

    fn update_atomic(&self, s: V, d: V, _w: u32) -> bool {
        // ORDERING: AcqRel success / Acquire failure — parent-claim CAS:
        // Release publishes the claim, Acquire orders losers after it.
        self.parents[d as usize]
            .compare_exchange(UNVISITED, s as u64, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }

    fn cond(&self, d: V) -> bool {
        self.parents[d as usize].load(Ordering::Relaxed) == UNVISITED
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sage_graph::gen;

    fn bfs_levels<G: Graph>(g: &G, src: V, opts: EdgeMapOpts) -> Vec<u64> {
        let n = g.num_vertices();
        let parents: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(UNVISITED)).collect();
        parents[src as usize].store(src as u64, Ordering::Relaxed);
        let mut levels = vec![u64::MAX; n];
        levels[src as usize] = 0;
        let mut frontier = VertexSubset::single(n, src);
        let mut level = 0u64;
        while !frontier.is_empty() {
            level += 1;
            let claim = ClaimFn { parents: &parents };
            let mut next = edge_map(g, &mut frontier, &claim, opts);
            for v in next.as_sparse() {
                levels[*v as usize] = level;
            }
            frontier = next;
        }
        levels
    }

    fn check_all_variants_agree<G: Graph>(g: &G, src: V) {
        let base = bfs_levels(
            g,
            src,
            EdgeMapOpts {
                strategy: Strategy::ForceSparse,
                sparse_impl: SparseImpl::Sparse,
            },
        );
        for (name, opts) in [
            (
                "chunked",
                EdgeMapOpts {
                    strategy: Strategy::ForceSparse,
                    sparse_impl: SparseImpl::Chunked,
                },
            ),
            (
                "blocked",
                EdgeMapOpts {
                    strategy: Strategy::ForceSparse,
                    sparse_impl: SparseImpl::Blocked,
                },
            ),
            (
                "dense",
                EdgeMapOpts {
                    strategy: Strategy::ForceDense,
                    ..Default::default()
                },
            ),
            ("auto", EdgeMapOpts::default()),
        ] {
            let got = bfs_levels(g, src, opts);
            assert_eq!(got, base, "variant {name} diverged");
        }
    }

    #[test]
    fn variants_agree_on_rmat() {
        let g = gen::rmat(10, 8, gen::RmatParams::default(), 3);
        check_all_variants_agree(&g, 0);
    }

    #[test]
    fn variants_agree_on_compressed_rmat() {
        let csr = gen::rmat(9, 12, gen::RmatParams::web(), 5);
        let g = sage_graph::CompressedCsr::from_csr(&csr, 64);
        check_all_variants_agree(&g, 1);
    }

    #[test]
    fn compressed_traversals_use_arena_decode_scratch() {
        // Every edge_map direction over a compressed graph must agree with
        // the CSR reference while drawing its block-decode buffers from the
        // installed arena (and returning them: the pool ends non-empty).
        let arena = crate::arena::QueryArena::new();
        let csr = gen::rmat(9, 12, gen::RmatParams::web(), 5);
        let g = sage_graph::CompressedCsr::from_csr(&csr, 64);
        arena.enter(|| check_all_variants_agree(&g, 0));
        assert!(
            arena.retained_edge_buffers() >= 1,
            "block decode must round-trip through the arena pool"
        );
    }

    #[test]
    fn variants_agree_on_grid() {
        let g = gen::grid(30, 40);
        check_all_variants_agree(&g, 0);
    }

    #[test]
    fn variants_agree_on_star_and_path() {
        check_all_variants_agree(&gen::star(500), 3);
        check_all_variants_agree(&gen::path(200), 0);
    }

    fn directed_two_hop() -> sage_graph::Csr {
        // 0 -> 1 -> 2 with NO reverse edges: pulling over out-edges would
        // never discover anything from the frontier.
        sage_graph::build_csr(
            sage_graph::EdgeList::new(3, vec![(0, 1), (1, 2)]),
            sage_graph::BuildOptions {
                symmetrize: false,
                ..Default::default()
            },
        )
    }

    #[test]
    fn auto_falls_back_to_sparse_on_asymmetric_graphs() {
        let g = directed_two_hop();
        assert!(!g.is_symmetric());
        // The frontier {0} does work 2 > m/20 = 0, so the Beamer rule alone
        // would have chosen dense; the symmetry guard must keep the
        // traversal on the (correct) push side.
        let parents: Vec<AtomicU64> = (0..3).map(|_| AtomicU64::new(UNVISITED)).collect();
        parents[0].store(0, Ordering::Relaxed);
        let mut frontier = VertexSubset::single(3, 0);
        let mut next = edge_map(
            &g,
            &mut frontier,
            &ClaimFn { parents: &parents },
            EdgeMapOpts::default(),
        );
        assert_eq!(next.as_sparse(), &[1]);
    }

    #[test]
    #[should_panic(expected = "only correct on a symmetric graph")]
    fn force_dense_rejects_asymmetric_graphs() {
        let g = directed_two_hop();
        let parents: Vec<AtomicU64> = (0..3).map(|_| AtomicU64::new(UNVISITED)).collect();
        let mut frontier = VertexSubset::single(3, 0);
        let _ = edge_map(
            &g,
            &mut frontier,
            &ClaimFn { parents: &parents },
            EdgeMapOpts {
                strategy: Strategy::ForceDense,
                ..Default::default()
            },
        );
    }

    #[test]
    fn empty_frontier_returns_empty() {
        let g = gen::path(10);
        let mut f = VertexSubset::empty(10);
        let parents: Vec<AtomicU64> = (0..10).map(|_| AtomicU64::new(UNVISITED)).collect();
        let out = edge_map(
            &g,
            &mut f,
            &ClaimFn { parents: &parents },
            EdgeMapOpts::default(),
        );
        assert!(out.is_empty());
    }

    #[test]
    fn chunked_handles_huge_degree_vertex() {
        let g = gen::star(20_000);
        let parents: Vec<AtomicU64> = (0..20_000).map(|_| AtomicU64::new(UNVISITED)).collect();
        parents[0].store(0, Ordering::Relaxed);
        let out = edge_map_chunked(&g, &[0], &ClaimFn { parents: &parents });
        assert_eq!(out.len(), 19_999);
    }

    /// The freelist bound every release must respect: at most
    /// `4 × num_threads` chunks of at most `CHUNK_RETAIN_CAP` entries.
    fn chunk_pool_bound_bytes() -> usize {
        4 * par::num_threads() * crate::arena::CHUNK_RETAIN_CAP * std::mem::size_of::<V>()
    }

    /// Regression test for unbounded DRAM retention: the pool used to retain
    /// released chunks of *any* capacity, so one traversal of a
    /// high-average-degree graph parked `4 × num_threads` arbitrarily large
    /// buffers in DRAM forever. Outsized chunks must be shrunk on release.
    #[test]
    fn chunk_pool_does_not_retain_outsized_chunks() {
        // Run inside a private arena so the bound is exact regardless of
        // what other tests park in the shared fallback pool concurrently.
        let arena = crate::arena::QueryArena::new();
        arena.enter(|| {
            let cap = crate::arena::CHUNK_RETAIN_CAP;
            let huge: Vec<Vec<V>> = (0..4 * par::num_threads())
                .map(|_| crate::arena::fetch_chunk(4 * cap))
                .collect();
            for chunk in huge {
                assert!(chunk.capacity() >= 4 * cap);
                crate::arena::release_chunk(chunk);
            }
        });
        let retained = arena.retained_chunk_bytes();
        assert!(
            retained <= chunk_pool_bound_bytes(),
            "pool retains {retained} bytes, bound {}",
            chunk_pool_bound_bytes()
        );
    }

    /// The huge-degree frontier scenario, driven through `edge_map_chunked`
    /// itself: a block size far above `CHUNK_RETAIN_CAP` makes the traversal
    /// fetch a multi-megabyte chunk (`FetchChunk` sizes chunks as
    /// `max(chunk_size, block_size)`), which the unfixed pool then retained
    /// whole. After the traversal the pool must be within its bytes bound —
    /// the paper's §4.1.2 pool holds `O(P)` *bounded* chunks, not `O(P)`
    /// frontiers.
    #[test]
    fn chunk_pool_bounded_after_huge_degree_scenario() {
        let arena = crate::arena::QueryArena::new();
        arena.enter(|| {
            let g = sage_graph::CompressedCsr::from_csr(&gen::star(20_000), 1 << 20);
            let parents: Vec<AtomicU64> = (0..20_000).map(|_| AtomicU64::new(UNVISITED)).collect();
            parents[0].store(0, Ordering::Relaxed);
            let out = edge_map_chunked(&g, &[0], &ClaimFn { parents: &parents });
            assert_eq!(out.len(), 19_999);
        });
        let retained = arena.retained_chunk_bytes();
        assert!(
            retained <= chunk_pool_bound_bytes(),
            "pool retains {retained} bytes after huge-degree traversal, bound {}",
            chunk_pool_bound_bytes()
        );
    }

    #[test]
    fn blocked_handles_zero_degree_frontier_vertices() {
        // Zero-degree vertices in the frontier exercise the binary-search
        // boundary logic in edge_map_blocked.
        let mut edges = vec![(0u32, 1u32)];
        for i in 0..50u32 {
            edges.push((2, 10 + i));
        }
        let g = sage_graph::build_csr(
            sage_graph::EdgeList::new(100, edges),
            sage_graph::BuildOptions::default(),
        );
        let parents: Vec<AtomicU64> = (0..100).map(|_| AtomicU64::new(UNVISITED)).collect();
        // Frontier: {0 (deg 1), 5 (deg 0), 2 (deg 50), 7 (deg 0)}.
        for v in [0u32, 5, 2, 7] {
            parents[v as usize].store(v as u64, Ordering::Relaxed);
        }
        let out = edge_map_blocked(&g, &[0, 5, 2, 7], &ClaimFn { parents: &parents });
        let mut sorted = out.clone();
        sorted.sort_unstable();
        let mut want: Vec<V> = (10..60).collect();
        want.insert(0, 1);
        assert_eq!(sorted, want);
    }

    #[test]
    fn chunked_over_graph_filter() {
        use crate::filter::GraphFilter;
        // edgeMapChunked must work on the filter's block-granular view.
        let g = gen::complete(100);
        let mut f = GraphFilter::new(&g, false);
        f.filter_edges(|_, d, _| d % 2 == 0);
        let parents: Vec<AtomicU64> = (0..100).map(|_| AtomicU64::new(UNVISITED)).collect();
        parents[1].store(1, Ordering::Relaxed);
        let out = edge_map_chunked(&f, &[1], &ClaimFn { parents: &parents });
        let mut sorted = out.clone();
        sorted.sort_unstable();
        let want: Vec<V> = (0..100).filter(|&d| d % 2 == 0).collect();
        assert_eq!(sorted, want);
    }

    #[test]
    fn sparse_dedup_via_atomic_claim() {
        // Two frontier vertices share neighbors; each target claimed once.
        let g = gen::complete(50);
        let parents: Vec<AtomicU64> = (0..50).map(|_| AtomicU64::new(UNVISITED)).collect();
        parents[0].store(0, Ordering::Relaxed);
        parents[1].store(1, Ordering::Relaxed);
        let out = edge_map_chunked(&g, &[0, 1], &ClaimFn { parents: &parents });
        let mut sorted = out.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), out.len(), "duplicate emission");
        assert_eq!(out.len(), 48);
    }
}
