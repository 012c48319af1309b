//! Shard-aware traversal driving: per-shard frontier slices in parallel,
//! cross-shard discoveries handed off between delta rounds.
//!
//! A [`ShardedCsr`](sage_graph::ShardedCsr) answers every
//! [`Graph`](sage_graph::Graph) call by
//! routing to the owning shard, so the ordinary algorithms already run over
//! it unchanged. The drivers here go further: they keep **one frontier per
//! shard** and sweep the shards as independent tasks under
//! [`par::scope`], so each shard's NVRAM reads happen on that shard's task —
//! which is what lets the serving layer wrap each shard in its own
//! [`MeterScope`](sage_nvram::meter::MeterScope) and (eventually) pin shards
//! to devices or NUMA nodes.
//!
//! The handoff rule: a round's edge sweep may discover vertices *anywhere*
//! (edge targets are global), so between rounds every newly claimed vertex
//! is routed to its **owning shard's** next frontier. The round barrier makes
//! this a delta-round exchange, exactly the grid-processing shape of the CSD
//! and GraphR designs: compute on local partitions, exchange frontiers,
//! repeat. Claims are deduplicated globally by the same atomic mask
//! transition the monolithic MS-BFS uses, so each vertex enters exactly one
//! shard's frontier exactly once per round and results stay bit-for-bit
//! identical to the monolithic traversal.

use crate::algo::msbfs::{LevelsSink, MsBfsFn, MsBfsOutcome, MsBfsVisit, MsLevels, MAX_SOURCES};
use crate::edge_map::edge_map_blocked;
use sage_graph::{Sharded, V};
use sage_nvram::meter;
use sage_parallel as par;
use sage_parallel::ConcurrentUnionFind;
use std::sync::atomic::Ordering;

/// Wraps each shard's unit of work — the serving layer passes
/// [`MeterShardScopes`] so per-shard NVRAM/DRAM traffic lands on per-shard
/// meters; plain algorithm callers pass [`NoHook`].
pub trait ShardHook: Sync {
    /// Run `f` as shard `s`'s work.
    fn run<R>(&self, s: usize, f: impl FnOnce() -> R) -> R;
}

/// No per-shard context: shard work stays on the caller's scope.
pub struct NoHook;

impl ShardHook for NoHook {
    #[inline]
    fn run<R>(&self, _s: usize, f: impl FnOnce() -> R) -> R {
        f()
    }
}

/// One [`MeterScope`](sage_nvram::meter::MeterScope) per shard: shard `s`'s
/// work is entered into `scopes[s]`, so its traffic is attributed there
/// (and, as always, to the global meter). An empty slice is the one-shard
/// case: the work stays on the caller's scope.
pub struct MeterShardScopes<'a>(pub &'a [meter::MeterScope]);

impl ShardHook for MeterShardScopes<'_> {
    #[inline]
    fn run<R>(&self, s: usize, f: impl FnOnce() -> R) -> R {
        if self.0.is_empty() {
            f()
        } else {
            self.0[s].enter(f)
        }
    }
}

/// Scatter a claimed-vertex list into per-shard frontiers.
fn route<G: Sharded>(g: &G, out: Vec<V>, fronts: &mut [Vec<V>]) {
    for v in out {
        fronts[g.shard_of(v)].push(v);
    }
}

/// [`msbfs_visit`](crate::algo::msbfs::msbfs_visit) over a sharded graph:
/// per-shard frontier slices traverse in parallel (each under
/// `hook.run(shard, ..)`), and newly discovered vertices are handed off to
/// their owning shard's next frontier between rounds.
///
/// Output is bit-for-bit identical to the monolithic traversal: arrival
/// rounds are a property of BFS distance, not of which task discovers a
/// vertex, and the atomic mask transition claims each vertex once per round
/// globally regardless of sharding.
///
/// # Panics
/// Same contract as the monolithic version: 1..=[`MAX_SOURCES`] in-range
/// sources.
pub fn msbfs_visit_sharded<G: Sharded, P: MsBfsVisit, H: ShardHook>(
    g: &G,
    sources: &[V],
    visitor: &P,
    hook: &H,
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
    let num_shards = g.num_shards();
    let seen = crate::algo::common::atomic_vec(n, 0u64);
    let cur = crate::algo::common::atomic_vec(n, 0u64);
    let next = crate::algo::common::atomic_vec(n, 0u64);

    // Seed round 0 on the caller's own scope, exactly like the monolithic
    // traversal (seeding touches only DRAM mask words, no shard data).
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

    let mut fronts: Vec<Vec<V>> = vec![Vec::new(); num_shards];
    route(g, roots, &mut fronts);
    let mut rounds = 0usize;
    while fronts.iter().any(|fr| !fr.is_empty()) {
        rounds += 1;
        // Per-shard edge sweep: every frontier vertex's adjacency lives in
        // its own shard, so each task reads exactly one shard's NVRAM.
        let mut outs: Vec<Vec<V>> = vec![Vec::new(); num_shards];
        par::scope(|sc| {
            for (s, (ids, out)) in fronts.iter().zip(outs.iter_mut()).enumerate() {
                if ids.is_empty() {
                    continue;
                }
                let f = &f;
                sc.spawn(move |_| {
                    *out = hook.run(s, || edge_map_blocked(g, ids, f));
                });
            }
        });
        // Delta-round handoff: route each claimed vertex to its owner.
        let mut nextf: Vec<Vec<V>> = vec![Vec::new(); num_shards];
        for out in outs {
            route(g, out, &mut nextf);
        }
        // Retire old masks, then install new ones — per shard, in parallel;
        // a vertex's owner never changes, so its retire precedes its install
        // within the one task that touches it.
        let r = rounds as u32;
        par::scope(|sc| {
            for (s, (old, new)) in fronts.iter().zip(nextf.iter()).enumerate() {
                if old.is_empty() && new.is_empty() {
                    continue;
                }
                let (cur, seen, next) = (&cur, &seen, &next);
                sc.spawn(move |_| {
                    hook.run(s, || {
                        for &v in old {
                            cur[v as usize].store(0, Ordering::Relaxed);
                        }
                        meter::aux_write(old.len() as u64);
                        for &v in new {
                            let bits = next[v as usize].swap(0, Ordering::Relaxed);
                            seen[v as usize].fetch_or(bits, Ordering::Relaxed);
                            cur[v as usize].store(bits, Ordering::Relaxed);
                            visitor.visit(v, bits, r);
                        }
                        meter::aux_write(3 * new.len() as u64);
                    });
                });
            }
        });
        fronts = nextf;
    }
    MsBfsOutcome {
        seen: crate::algo::common::unwrap_atomic(seen),
        rounds,
    }
}

/// Sharded multi-source BFS distances — the sharded counterpart of
/// [`msbfs_levels`](crate::algo::msbfs::msbfs_levels), bit-for-bit identical
/// output.
pub fn msbfs_levels_sharded<G: Sharded, H: ShardHook>(g: &G, sources: &[V], hook: &H) -> MsLevels {
    let n = g.num_vertices();
    let mut levels: Vec<Vec<u64>> = sources.iter().map(|_| vec![u64::MAX; n]).collect();
    let sink = LevelsSink {
        ptrs: levels
            .iter_mut()
            .map(|l| par::SendPtr(l.as_mut_ptr()))
            .collect(),
    };
    let out = msbfs_visit_sharded(g, sources, &sink, hook);
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

/// Sharded single-source BFS distances, identical to
/// [`bfs_levels`](crate::algo::bfs::bfs_levels) (one-source MS-BFS: BFS
/// distances are deterministic whichever driver computes them).
pub fn bfs_levels_sharded<G: Sharded, H: ShardHook>(g: &G, src: V, hook: &H) -> (Vec<u64>, usize) {
    let mut ms = msbfs_levels_sharded(g, &[src], hook);
    (ms.levels.swap_remove(0), ms.rounds)
}

/// Sharded connectivity: every shard task unites its own edges (in parallel,
/// under the shard's hook) into **one** shared lock-free forest over the
/// global id space — no per-shard forests, no merge pass. The resulting
/// partition is exactly the graph's connected components — identical to the
/// partition found by [`connectivity`](crate::algo::connectivity::connectivity)
/// — though representatives may differ: the forest starts from singletons
/// and links larger roots under smaller, so here a label is its component's
/// minimum vertex id. DRAM cost is the `n` `u32` parents plus the `n` labels,
/// whatever the shard count; admission charges for it.
pub fn connectivity_sharded<G: Sharded, H: ShardHook>(g: &G, hook: &H) -> Vec<V> {
    let n = g.num_vertices() as u64;
    let forest = ConcurrentUnionFind::new(n as usize);
    meter::aux_write(n);
    par::scope(|sc| {
        for s in 0..g.num_shards() {
            let forest = &forest;
            sc.spawn(move |_| {
                hook.run(s, || {
                    let (mut unites, mut linked) = (0u64, 0u64);
                    for v in g.shard_range(s) {
                        g.for_each_edge(v, |u, _| {
                            unites += 1;
                            linked += forest.unite(v, u) as u64;
                        });
                    }
                    // Two finds per unite, one parent written per link.
                    meter::aux_read(2 * unites);
                    meter::aux_write(linked);
                });
            });
        }
    });
    meter::aux_read(n);
    meter::aux_write(n);
    forest.labels()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::connectivity::{connectivity, num_components};
    use crate::algo::msbfs::msbfs_levels;
    use sage_graph::{gen, Graph, ShardedCsr};

    #[test]
    fn sharded_msbfs_matches_monolithic() {
        let g = gen::rmat(10, 8, gen::RmatParams::default(), 23);
        let sources: Vec<V> = (0..24).map(|i| (i * 41) % 1024).collect();
        let want = msbfs_levels(&g, &sources);
        for k in [1, 2, 7] {
            let sharded = ShardedCsr::from_csr(&g, k);
            let got = msbfs_levels_sharded(&sharded, &sources, &NoHook);
            assert_eq!(got.levels, want.levels, "k = {k}");
            assert_eq!(got.reached, want.reached, "k = {k}");
            assert_eq!(got.seen, want.seen, "k = {k}");
            assert_eq!(got.rounds, want.rounds, "k = {k}");
        }
    }

    #[test]
    fn sharded_bfs_matches_monolithic_on_compressed_shards() {
        let g = gen::rmat(9, 12, gen::RmatParams::web(), 31);
        let sharded = ShardedCsr::from_csr_compressed(&g, 4, 64, 64);
        for src in [0 as V, 17, 400] {
            let (want, _) = crate::algo::bfs::bfs_levels(&g, src);
            let (got, _) = bfs_levels_sharded(&sharded, src, &NoHook);
            assert_eq!(got, want, "src {src}");
        }
    }

    #[test]
    fn sharded_connectivity_same_partition() {
        let g = gen::rmat(9, 6, gen::RmatParams::default(), 12);
        let mono = connectivity(&g, 0.2, 0x5EED);
        for k in [1, 3, 7] {
            let sharded = ShardedCsr::from_csr(&g, k);
            let got = connectivity_sharded(&sharded, &NoHook);
            assert_eq!(num_components(&got), num_components(&mono), "k = {k}");
            // Same partition: equal labels iff equal labels.
            for v in 0..g.num_vertices() {
                for u in [0usize, v / 2] {
                    assert_eq!(
                        got[v] == got[u],
                        mono[v] == mono[u],
                        "partition differs at ({u}, {v}), k = {k}"
                    );
                }
            }
        }
    }

    #[test]
    fn per_shard_scopes_reconcile_with_total() {
        use sage_nvram::meter::MeterScope;
        let g = gen::rmat(9, 8, gen::RmatParams::default(), 40);
        let sources: Vec<V> = (0..8).collect();
        let sharded = ShardedCsr::from_csr(&g, 3);
        // Ground truth: the identical sharded traversal with every word on
        // one scope (NoHook leaves the caller's scope installed throughout).
        let total = MeterScope::new();
        total.enter(|| {
            let _ = msbfs_levels_sharded(&sharded, &sources, &NoHook);
        });
        // Same traversal again, split: residual on `outer`, per-shard sweeps
        // on the shard scopes (innermost scope wins).
        let scopes: Vec<MeterScope> = (0..3).map(|_| MeterScope::new()).collect();
        let outer = MeterScope::new();
        outer.enter(|| {
            let _ = msbfs_levels_sharded(&sharded, &sources, &MeterShardScopes(&scopes));
        });
        // Scope splitting repartitions attribution; it must not invent or
        // lose a single word: residual + per-shard sums == the run's total,
        // field for field.
        let mut sum = outer.snapshot();
        for s in &scopes {
            sum = sum.plus(&s.snapshot());
        }
        assert_eq!(sum, total.snapshot());
        assert!(scopes.iter().all(|s| s.snapshot().graph_read > 0));
        assert_eq!(sum.graph_write, 0);
    }

    #[test]
    fn zero_graph_writes() {
        use sage_nvram::Meter;
        let g = gen::rmat(9, 8, gen::RmatParams::default(), 2);
        let sharded = ShardedCsr::from_csr(&g, 4);
        let before = Meter::global().snapshot();
        let _ = msbfs_levels_sharded(&sharded, &[0, 1, 2], &NoHook);
        let _ = connectivity_sharded(&sharded, &NoHook);
        let d = Meter::global().snapshot().since(&before);
        assert_eq!(d.graph_write, 0);
        assert!(d.graph_read > 0);
    }
}
