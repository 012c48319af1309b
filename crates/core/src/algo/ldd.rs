//! Low-diameter decomposition (§4.3.2) — Miller-Peng-Xu random shifts \[70\].
//!
//! Each vertex draws a shift `δ_v ~ Exp(β)`; vertex `v` becomes a cluster
//! center at round `⌊δ_v⌋` if still unclaimed, and clusters grow by parallel
//! BFS (ties broken by arrival). Produces an `(O(β), O(log n / β))`
//! decomposition in `O(m)` expected work and `O(log² n)` depth whp.
//!
//! Small memory: the cluster ids (`n` `u32`), the vertices grouped by start
//! round (`n` `u32`), the frontier, and — only for callers that read the BFS
//! trees — the parents (`n` `u32`).

use crate::edge_map::{edge_map, EdgeMapFn, EdgeMapOpts};
use crate::vertex_subset::VertexSubset;
use sage_graph::{Graph, NONE_V, V};
use sage_parallel as par;
use std::sync::atomic::{AtomicU32, Ordering};

/// Result of a low-diameter decomposition.
pub struct LddResult {
    /// Cluster id of each vertex = the id of its cluster center.
    pub cluster: Vec<V>,
    /// BFS parent within the cluster (`parent[c] == c` for centers).
    pub parent: Vec<V>,
    /// Number of BFS rounds performed (≈ max cluster radius).
    pub rounds: usize,
}

/// Where the cluster BFS trees go: spanning forest and spanner read them,
/// connectivity does not and passes [`NoParents`] to skip the array.
trait ParentSink: Sync {
    fn set(&self, v: V, parent: V);
}

struct NoParents;

impl ParentSink for NoParents {
    #[inline]
    fn set(&self, _v: V, _parent: V) {}
}

impl ParentSink for Vec<AtomicU32> {
    #[inline]
    fn set(&self, v: V, parent: V) {
        self[v as usize].store(parent, Ordering::Relaxed);
    }
}

struct LddFn<'a, P: ParentSink> {
    cluster: &'a [AtomicU32],
    parent: &'a P,
}

impl<P: ParentSink> EdgeMapFn for LddFn<'_, P> {
    fn update(&self, s: V, d: V, _w: u32) -> bool {
        if self.cluster[d as usize].load(Ordering::Relaxed) == NONE_V {
            let c = self.cluster[s as usize].load(Ordering::Relaxed);
            self.cluster[d as usize].store(c, Ordering::Relaxed);
            self.parent.set(d, s);
            true
        } else {
            false
        }
    }

    fn update_atomic(&self, s: V, d: V, _w: u32) -> bool {
        let c = self.cluster[s as usize].load(Ordering::Relaxed);
        // ORDERING: AcqRel success / Acquire failure — cluster-claim CAS:
        // Release publishes the claim, Acquire orders losers after it.
        if self.cluster[d as usize]
            .compare_exchange(NONE_V, c, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
        {
            self.parent.set(d, s);
            true
        } else {
            false
        }
    }

    fn cond(&self, d: V) -> bool {
        self.cluster[d as usize].load(Ordering::Relaxed) == NONE_V
    }
}

/// Group the vertices by start round with a parallel counting sort: the
/// vertices starting in round `r` are `order[bounds[r]..bounds[r + 1]]`.
fn group_by_start(start: &[u32], rounds: usize) -> (Vec<V>, Vec<usize>) {
    let n = start.len();
    // One count per (block, round); fewer blocks when there are many rounds
    // so the table stays within n entries.
    let nblocks = (n / rounds).clamp(1, 8 * par::num_threads());
    let block = n.div_ceil(nblocks);
    let range = |b: usize| b * block..((b + 1) * block).min(n);
    // A private row per block: no two tasks share a cache line of counts.
    let mut counts: Vec<Vec<u32>> = par::par_map_grain(nblocks, 1, |b| {
        let mut row = vec![0u32; rounds];
        for v in range(b) {
            row[start[v] as usize] += 1;
        }
        row
    });
    // Round-major exclusive scan: each count becomes the output offset of
    // its (round, block) run. The table is small; the scan is sequential.
    let mut bounds = Vec::with_capacity(rounds + 1);
    let mut at = 0u32;
    for r in 0..rounds {
        bounds.push(at as usize);
        for row in counts.iter_mut() {
            at += std::mem::replace(&mut row[r], at);
        }
    }
    bounds.push(at as usize);
    let mut order: Vec<V> = Vec::with_capacity(n);
    let op = par::SendPtr(order.as_mut_ptr());
    par::par_for_slices(&mut counts, |b, row| {
        for v in range(b) {
            let at = &mut row[start[v] as usize];
            // SAFETY: the scan gave every (round, block) run its own slots
            // inside `0..n`, and `at` walks block `b`'s run for this round.
            unsafe { op.add(*at as usize).write(v as V) };
            *at += 1;
        }
    });
    // SAFETY: the runs tile `0..n`, so each slot was written exactly once.
    unsafe { order.set_len(n) };
    (order, bounds)
}

/// The decomposition itself; returns the cluster ids and the round count.
fn ldd_into<G: Graph, P: ParentSink>(g: &G, beta: f64, seed: u64, parent: &P) -> (Vec<V>, usize) {
    assert!(beta > 0.0 && beta < 1.0, "beta must be in (0,1)");
    let n = g.num_vertices();
    let cluster: Vec<AtomicU32> = par::par_map(n, |_| AtomicU32::new(NONE_V));

    // Shift for every vertex; start round = floor(shift).
    let start: Vec<u32> = par::par_map(n, |v| {
        let mut rng = par::SplitMix64::new(par::hash64(seed ^ v as u64));
        rng.next_exp(beta) as u32
    });
    let max_start = par::reduce_max(0, n, 0u32, |v| start[v]) as usize;
    let (order, bounds) = group_by_start(&start, max_start + 1);
    drop(start);

    let f = LddFn {
        cluster: &cluster,
        parent,
    };
    let mut frontier = VertexSubset::empty(n);
    let mut rounds = 0usize;
    loop {
        if rounds <= max_start {
            // This round's vertices that no cluster has reached become
            // centers. Nothing else runs between edge_map rounds and each
            // vertex only ever claims itself, so plain stores suffice.
            let centers = par::filter_slice(&order[bounds[rounds]..bounds[rounds + 1]], |&v| {
                cluster[v as usize].load(Ordering::Relaxed) == NONE_V
            });
            par::par_for_grain(0, centers.len(), par::DEFAULT_GRAIN, |i| {
                let c = centers[i];
                cluster[c as usize].store(c, Ordering::Relaxed);
                parent.set(c, c);
            });
            frontier.add_disjoint(&centers);
        } else if frontier.is_empty() {
            break;
        }
        frontier = edge_map(g, &mut frontier, &f, EdgeMapOpts::default());
        rounds += 1;
    }
    let cluster = cluster.into_iter().map(AtomicU32::into_inner).collect();
    (cluster, rounds)
}

/// Decompose `g` with parameter `beta` (the paper uses `β = 0.2` for the
/// connectivity family, §5.3).
pub fn ldd<G: Graph>(g: &G, beta: f64, seed: u64) -> LddResult {
    let parent: Vec<AtomicU32> = par::par_map(g.num_vertices(), |_| AtomicU32::new(NONE_V));
    let (cluster, rounds) = ldd_into(g, beta, seed, &parent);
    LddResult {
        cluster,
        parent: parent.into_iter().map(AtomicU32::into_inner).collect(),
        rounds,
    }
}

/// [`ldd`] without the BFS parents: just the cluster id of each vertex.
pub(crate) fn ldd_clusters<G: Graph>(g: &G, beta: f64, seed: u64) -> Vec<V> {
    ldd_into(g, beta, seed, &NoParents).0
}

/// Count the directed edges whose endpoints lie in different clusters.
pub fn count_inter_cluster_edges<G: Graph>(g: &G, cluster: &[V]) -> u64 {
    par::reduce_add(0, g.num_vertices(), |vi| {
        let v = vi as V;
        let mut cnt = 0u64;
        g.for_each_edge(v, |u, _| {
            if cluster[v as usize] != cluster[u as usize] {
                cnt += 1;
            }
        });
        cnt
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sage_graph::gen;

    fn check_clusters_valid<G: Graph>(g: &G, r: &LddResult) {
        let n = g.num_vertices();
        for v in 0..n {
            let c = r.cluster[v];
            assert_ne!(c, NONE_V, "vertex {v} unclaimed");
            assert_eq!(r.cluster[c as usize], c, "center of {v} not self-clustered");
            // Parent chain stays within the cluster and reaches the center.
            let mut cur = v as V;
            let mut hops = 0;
            while cur != c {
                assert_eq!(r.cluster[cur as usize], c);
                cur = r.parent[cur as usize];
                hops += 1;
                assert!(hops <= n, "parent cycle at {v}");
            }
        }
    }

    #[test]
    fn covers_all_vertices_with_valid_trees() {
        let g = gen::rmat(10, 8, gen::RmatParams::default(), 31);
        let r = ldd(&g, 0.2, 42);
        check_clusters_valid(&g, &r);
    }

    #[test]
    fn high_beta_makes_small_clusters() {
        let g = gen::grid(40, 40);
        let fine = ldd(&g, 0.9, 7);
        let coarse = ldd(&g, 0.05, 7);
        let count = |r: &LddResult| {
            (0..g.num_vertices())
                .filter(|&v| r.cluster[v] as usize == v)
                .count()
        };
        assert!(
            count(&fine) > count(&coarse),
            "expected beta=0.9 to create more clusters than beta=0.05"
        );
        check_clusters_valid(&g, &fine);
        check_clusters_valid(&g, &coarse);
    }

    #[test]
    fn inter_cluster_edge_fraction_tracks_beta() {
        // E[cut edges] <= beta * m; allow generous slack for small graphs.
        let g = gen::rmat(11, 10, gen::RmatParams::default(), 33);
        let r = ldd(&g, 0.2, 9);
        let cut = count_inter_cluster_edges(&g, &r.cluster);
        let frac = cut as f64 / g.num_edges() as f64;
        assert!(frac < 0.5, "cut fraction {frac} too large for beta=0.2");
    }

    #[test]
    fn disconnected_components_get_disjoint_clusters() {
        let g = gen::two_cliques(20);
        let r = ldd(&g, 0.2, 3);
        check_clusters_valid(&g, &r);
        for v in 0..20 {
            assert!(r.cluster[v] < 20);
            assert!(r.cluster[v + 20] >= 20);
        }
    }

    #[test]
    fn deterministic_given_seed_and_single_thread() {
        // Cluster assignment can vary with scheduling, but the set of centers
        // activated in round 0 is deterministic.
        let g = gen::path(100);
        let a = ldd(&g, 0.5, 11);
        let b = ldd(&g, 0.5, 11);
        let centers = |r: &LddResult| (0..100).filter(|&v| r.cluster[v] as usize == v).count();
        // Both runs must produce valid decompositions with similar granularity.
        check_clusters_valid(&g, &a);
        check_clusters_valid(&g, &b);
        let (ca, cb) = (centers(&a), centers(&b));
        assert!(ca > 0 && cb > 0);
    }
}
