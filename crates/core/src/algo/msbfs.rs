//! Bit-parallel multi-source BFS (the batched-traversal primitive behind
//! `sage-serve`'s query batching).
//!
//! A service answering many BFS-shaped point queries over one snapshot pays
//! one full traversal *per query* if it runs them independently. This module
//! amortizes that cost: up to [`MAX_SOURCES`] sources run as **one**
//! frontier-parallel traversal in which every per-vertex word is a `u64`
//! *source mask* — bit `i` of `seen[v]` means "source `i` has reached `v`".
//! Each round ORs the frontier masks across edges, so k searches advance in
//! lock-step for the cost of one edge sweep over the union frontier (the
//! Graphyti/MS-BFS idea, applied to the PSAM: the graph stays read-only in
//! NVRAM and the mutable mask state is three `O(n)`-word DRAM arrays — not
//! `k` independent parent arrays and frontiers).
//!
//! The traversal is threaded through the ordinary [`edge_map`] machinery
//! (direction optimization included) by an [`EdgeMapFn`] over atomic mask
//! arrays, and results are delivered through a **generic per-vertex
//! payload**: an [`MsBfsVisit`] sink observes `(vertex, newly arrived source
//! bits, round)` exactly once per (source, vertex) pair, so callers can
//! materialize distances, membership bits, or counters without the core
//! paying for state it does not need. [`msbfs_levels`] is the ready-made
//! distance payload used by the serving layer; its output is bit-for-bit
//! identical to running [`bfs_levels`](crate::algo::bfs::bfs_levels) once
//! per source (BFS distances are deterministic even though parent choices
//! are not).

use crate::edge_map::{edge_map, EdgeMapFn, EdgeMapOpts};
use crate::vertex_subset::VertexSubset;
use sage_graph::{Graph, V};
use sage_nvram::meter;
use sage_parallel as par;
use std::sync::atomic::{AtomicU64, Ordering};

/// Maximum number of sources per batched traversal: one bit of a `u64` mask
/// per source.
pub const MAX_SOURCES: usize = 64;

/// Per-vertex payload sink for a multi-source traversal.
///
/// [`visit`](MsBfsVisit::visit) is called once per vertex per round in which
/// that vertex receives previously unseen source bits — i.e. exactly once per
/// `(source, vertex)` reachable pair over the whole run, from parallel
/// contexts (distinct vertices concurrently, never the same vertex twice in
/// one round).
pub trait MsBfsVisit: Sync {
    /// `new_bits` are the sources whose BFS first reaches `v` at `round`
    /// (round 0 = the seed itself).
    fn visit(&self, v: V, new_bits: u64, round: u32);
}

/// A visitor that discards the payload (membership comes from
/// [`MsBfsOutcome::seen`] alone).
pub struct NoPayload;

impl MsBfsVisit for NoPayload {
    fn visit(&self, _v: V, _new_bits: u64, _round: u32) {}
}

/// Result of a mask-level multi-source traversal.
pub struct MsBfsOutcome {
    /// `seen[v]` bit `i` set ⇔ source `i` reaches vertex `v`.
    pub seen: Vec<u64>,
    /// Traversal rounds executed (the largest finite BFS distance).
    pub rounds: usize,
}

/// The [`EdgeMapFn`] of the bit-parallel traversal: propagate the source
/// masks of the current frontier (`cur`) into `next`, masking off bits the
/// destination has already seen. The first edge call that deposits bits into
/// an empty `next[d]` claims `d` for the output frontier, so the frontier
/// stays duplicate-free without a separate parent CAS.
pub(crate) struct MsBfsFn<'a> {
    pub(crate) cur: &'a [AtomicU64],
    pub(crate) next: &'a [AtomicU64],
    pub(crate) seen: &'a [AtomicU64],
    /// Mask of all participating sources; vertices that have seen every
    /// source are skipped via `cond`.
    pub(crate) full: u64,
}

impl EdgeMapFn for MsBfsFn<'_> {
    fn update(&self, s: V, d: V, _w: u32) -> bool {
        // Dense (pull) direction: exactly one thread owns `d`, so plain
        // read-modify-write on `next[d]` is race-free.
        let new = self.cur[s as usize].load(Ordering::Relaxed)
            & !self.seen[d as usize].load(Ordering::Relaxed);
        if new == 0 {
            return false;
        }
        let old = self.next[d as usize].load(Ordering::Relaxed);
        self.next[d as usize].store(old | new, Ordering::Relaxed);
        old == 0
    }

    fn update_atomic(&self, s: V, d: V, _w: u32) -> bool {
        let new = self.cur[s as usize].load(Ordering::Relaxed)
            & !self.seen[d as usize].load(Ordering::Relaxed);
        if new == 0 {
            return false;
        }
        // fetch_or is idempotent per bit; only the transition 0 → nonzero
        // admits `d` to the next frontier (exactly once per round).
        self.next[d as usize].fetch_or(new, Ordering::Relaxed) == 0
    }

    fn cond(&self, d: V) -> bool {
        self.seen[d as usize].load(Ordering::Relaxed) != self.full
    }
}

/// Run up to [`MAX_SOURCES`] BFS traversals as one bit-parallel sweep,
/// delivering per-vertex arrivals to `visitor`.
///
/// Duplicate source vertices are allowed (each still owns its own mask bit).
/// DRAM footprint of the traversal state is three `n`-word mask arrays plus
/// the frontier — independent of the number of sources.
///
/// # Panics
/// Panics if `sources` is empty, longer than [`MAX_SOURCES`], or references
/// a vertex outside the graph.
pub fn msbfs_visit<G: Graph, P: MsBfsVisit>(
    g: &G,
    sources: &[V],
    visitor: &P,
    opts: EdgeMapOpts,
) -> MsBfsOutcome {
    let n = g.num_vertices();
    let k = sources.len();
    assert!(
        (1..=MAX_SOURCES).contains(&k),
        "msbfs needs 1..={MAX_SOURCES} sources, got {k}"
    );
    for &s in sources {
        assert!((s as usize) < n, "msbfs source {s} out of range (n = {n})");
    }
    let seen = crate::algo::common::atomic_vec(n, 0u64);
    let cur = crate::algo::common::atomic_vec(n, 0u64);
    let next = crate::algo::common::atomic_vec(n, 0u64);

    // Seed round 0: one bit per source; duplicate source vertices simply
    // accumulate several bits on the same word.
    let mut roots: Vec<V> = Vec::with_capacity(k);
    for (i, &s) in sources.iter().enumerate() {
        let bit = 1u64 << i;
        let before = seen[s as usize].fetch_or(bit, Ordering::Relaxed);
        cur[s as usize].fetch_or(bit, Ordering::Relaxed);
        if before == 0 {
            roots.push(s);
        }
    }
    for &s in &roots {
        visitor.visit(s, seen[s as usize].load(Ordering::Relaxed), 0);
    }
    meter::aux_write(2 * k as u64);

    let full = if k == MAX_SOURCES {
        u64::MAX
    } else {
        (1u64 << k) - 1
    };
    let f = MsBfsFn {
        cur: &cur,
        next: &next,
        seen: &seen,
        full,
    };
    let mut frontier = VertexSubset::from_sparse(n, roots);
    let mut rounds = 0usize;
    while !frontier.is_empty() {
        rounds += 1;
        let out = edge_map(g, &mut frontier, &f, opts);
        // Retire the old frontier's masks *before* installing the new ones:
        // a vertex may sit in consecutive frontiers (new bits each round).
        frontier.for_each(|v| cur[v as usize].store(0, Ordering::Relaxed));
        meter::aux_write(frontier.len() as u64);
        let r = rounds as u32;
        out.for_each(|v| {
            let bits = next[v as usize].swap(0, Ordering::Relaxed);
            seen[v as usize].fetch_or(bits, Ordering::Relaxed);
            cur[v as usize].store(bits, Ordering::Relaxed);
            visitor.visit(v, bits, r);
        });
        meter::aux_write(3 * out.len() as u64);
        frontier = out;
    }
    MsBfsOutcome {
        seen: crate::algo::common::unwrap_atomic(seen),
        rounds,
    }
}

/// Distances (and reach counts) of a batched multi-source BFS.
pub struct MsLevels {
    /// `levels[i][v]` is the BFS distance from `sources[i]` to `v`
    /// (`u64::MAX` = unreachable) — identical to
    /// [`bfs_levels`](crate::algo::bfs::bfs_levels) run per source.
    pub levels: Vec<Vec<u64>>,
    /// Vertices reached per source (including the source itself) — the
    /// touched-word share a serving batch splits its metered cost by.
    pub reached: Vec<usize>,
    /// Final per-vertex source masks.
    pub seen: Vec<u64>,
    /// Traversal rounds executed.
    pub rounds: usize,
}

/// Distance payload: scatters each arrival round into per-source level
/// arrays through raw pointers (sound because a `(source, vertex)` pair is
/// visited exactly once).
pub(crate) struct LevelsSink {
    pub(crate) ptrs: Vec<par::SendPtr<u64>>,
}

impl MsBfsVisit for LevelsSink {
    fn visit(&self, v: V, new_bits: u64, round: u32) {
        let mut m = new_bits;
        while m != 0 {
            let b = m.trailing_zeros() as usize;
            // SAFETY: bit `b` arrives at vertex `v` exactly once over the
            // run, and distinct vertices are visited from distinct tasks, so
            // every write targets a unique slot.
            unsafe { *self.ptrs[b].add(v as usize) = round as u64 };
            m &= m - 1;
        }
        meter::aux_write(new_bits.count_ones() as u64);
    }
}

/// Multi-source BFS distances: one traversal, up to [`MAX_SOURCES`] sources.
pub fn msbfs_levels<G: Graph>(g: &G, sources: &[V]) -> MsLevels {
    msbfs_levels_with_opts(g, sources, EdgeMapOpts::default())
}

/// [`msbfs_levels`] with explicit traversal options.
pub fn msbfs_levels_with_opts<G: Graph>(g: &G, sources: &[V], opts: EdgeMapOpts) -> MsLevels {
    let n = g.num_vertices();
    let mut levels: Vec<Vec<u64>> = sources.iter().map(|_| vec![u64::MAX; n]).collect();
    let sink = LevelsSink {
        ptrs: levels
            .iter_mut()
            .map(|l| par::SendPtr(l.as_mut_ptr()))
            .collect(),
    };
    let out = msbfs_visit(g, sources, &sink, opts);
    let per_bit = par::count_ones_per_bit(&out.seen);
    meter::aux_read(out.seen.len() as u64);
    MsLevels {
        levels,
        reached: per_bit[..sources.len()]
            .iter()
            .map(|&c| c as usize)
            .collect(),
        seen: out.seen,
        rounds: out.rounds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::bfs::bfs_levels;
    use crate::edge_map::{SparseImpl, Strategy};
    use sage_graph::gen;

    fn check_against_single_source<G: Graph>(g: &G, sources: &[V]) {
        let ms = msbfs_levels(g, sources);
        assert_eq!(ms.levels.len(), sources.len());
        for (i, &s) in sources.iter().enumerate() {
            let (want, _) = bfs_levels(g, s);
            assert_eq!(ms.levels[i], want, "source {s} (slot {i}) diverged");
            let reached = want.iter().filter(|&&l| l != u64::MAX).count();
            assert_eq!(ms.reached[i], reached, "reach count for source {s}");
        }
        // The seen masks agree with the levels.
        for v in 0..g.num_vertices() {
            for (i, lv) in ms.levels.iter().enumerate() {
                let bit = ms.seen[v] & (1 << i) != 0;
                assert_eq!(bit, lv[v] != u64::MAX, "seen/levels disagree at {v}");
            }
        }
    }

    #[test]
    fn matches_single_source_bfs_on_rmat() {
        let g = gen::rmat(10, 8, gen::RmatParams::default(), 21);
        let sources: Vec<V> = (0..32).map(|i| (i * 17) % 1024).collect();
        check_against_single_source(&g, &sources);
    }

    #[test]
    fn full_64_source_batch_on_grid() {
        let g = gen::grid(20, 30);
        let sources: Vec<V> = (0..64).map(|i| (i * 9) % 600).collect();
        check_against_single_source(&g, &sources);
    }

    #[test]
    fn duplicate_sources_get_independent_bits() {
        let g = gen::rmat(9, 8, gen::RmatParams::default(), 3);
        let sources: Vec<V> = vec![5, 5, 9, 5];
        check_against_single_source(&g, &sources);
    }

    #[test]
    fn disconnected_components_stay_separate() {
        let g = gen::two_cliques(6); // vertices 0..6 and 6..12
        let ms = msbfs_levels(&g, &[0, 7]);
        for v in 0..6 {
            assert_ne!(ms.levels[0][v], u64::MAX);
            assert_eq!(ms.levels[1][v], u64::MAX);
        }
        for v in 6..12 {
            assert_eq!(ms.levels[0][v], u64::MAX);
            assert_ne!(ms.levels[1][v], u64::MAX);
        }
        assert_eq!(ms.reached, vec![6, 6]);
    }

    #[test]
    fn sparse_impls_and_dense_agree() {
        let g = gen::rmat(9, 10, gen::RmatParams::default(), 8);
        let sources: Vec<V> = (0..16).map(|i| i * 3).collect();
        let base = msbfs_levels(&g, &sources);
        for (name, opts) in [
            (
                "sparse",
                EdgeMapOpts {
                    strategy: Strategy::ForceSparse,
                    sparse_impl: SparseImpl::Sparse,
                    ..Default::default()
                },
            ),
            (
                "blocked",
                EdgeMapOpts {
                    strategy: Strategy::ForceSparse,
                    sparse_impl: SparseImpl::Blocked,
                    ..Default::default()
                },
            ),
            (
                "dense",
                EdgeMapOpts {
                    strategy: Strategy::ForceDense,
                    ..Default::default()
                },
            ),
        ] {
            let got = msbfs_levels_with_opts(&g, &sources, opts);
            assert_eq!(got.levels, base.levels, "{name} diverged");
        }
    }

    #[test]
    fn visitor_sees_each_pair_exactly_once() {
        use std::sync::atomic::AtomicU64;
        struct CountSink {
            hits: Vec<AtomicU64>,
        }
        impl MsBfsVisit for CountSink {
            fn visit(&self, v: V, new_bits: u64, _round: u32) {
                self.hits[v as usize].fetch_add(new_bits.count_ones() as u64, Ordering::Relaxed);
            }
        }
        let g = gen::complete(40);
        let sources: Vec<V> = (0..8).collect();
        let sink = CountSink {
            hits: (0..40).map(|_| AtomicU64::new(0)).collect(),
        };
        let out = msbfs_visit(&g, &sources, &sink, EdgeMapOpts::default());
        // Complete graph: every source reaches every vertex → 8 bits each.
        for v in 0..40 {
            assert_eq!(sink.hits[v].load(Ordering::Relaxed), 8, "vertex {v}");
            assert_eq!(out.seen[v], 0xFF);
        }
        assert_eq!(out.rounds, 2, "diameter 1 plus the empty closing round");
    }

    #[test]
    fn zero_nvram_writes() {
        use sage_nvram::Meter;
        let g = gen::rmat(9, 8, gen::RmatParams::default(), 2);
        let before = Meter::global().snapshot();
        let _ = msbfs_levels(&g, &[0, 1, 2, 3]);
        let d = Meter::global().snapshot().since(&before);
        assert_eq!(d.graph_write, 0, "MS-BFS must never write the graph");
        assert!(d.graph_read > 0);
    }

    /// On a sharded snapshot the storage layer attributes every graph word:
    /// a traversal and a whole-graph sweep, each run unchanged under a
    /// partitioned scope, put all of their graph reads on the shards' parts
    /// (every shard is read), and answer exactly as the monolithic graph
    /// does — plain and compressed shards alike.
    #[test]
    fn sharded_reads_land_on_their_shards_parts() {
        use crate::algo::pagerank::pagerank;
        use sage_graph::ShardedCsr;
        use sage_nvram::{MeterScope, MeterSnapshot};
        let g = gen::rmat(9, 8, gen::RmatParams::default(), 40);
        let sources: Vec<V> = (0..8).collect();
        let want = msbfs_levels(&g, &sources);
        let want_ranks = pagerank(&g, 1e-9, 10).ranks;
        for sharded in [
            ShardedCsr::from_csr(&g, 3),
            ShardedCsr::from_csr_compressed(&g, 3, 64, 16),
        ] {
            let check = |scope: &MeterScope, what: &str| {
                let parts: Vec<MeterSnapshot> = (0..3).map(|s| scope.part(s)).collect();
                let sum: u64 = parts.iter().map(|p| p.graph_read).sum();
                assert_eq!(sum, scope.snapshot().graph_read, "{what}");
                assert!(parts.iter().all(|p| p.graph_read > 0), "{what}: {parts:?}");
                assert_eq!(scope.snapshot().graph_write, 0, "{what}");
            };
            let scope = MeterScope::partitioned(3);
            let got = scope.enter(|| msbfs_levels(&sharded, &sources));
            check(&scope, "msbfs");
            assert_eq!(got.levels, want.levels);
            assert_eq!(got.seen, want.seen);
            let scope = MeterScope::partitioned(3);
            let ranks = scope.enter(|| pagerank(&sharded, 1e-9, 10).ranks);
            check(&scope, "pagerank");
            assert_eq!(ranks, want_ranks);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_source() {
        let g = gen::path(4);
        let _ = msbfs_levels(&g, &[9]);
    }

    #[test]
    #[should_panic(expected = "sources")]
    fn rejects_too_many_sources() {
        let g = gen::path(100);
        let sources: Vec<V> = (0..65).collect();
        let _ = msbfs_levels(&g, &sources);
    }
}
