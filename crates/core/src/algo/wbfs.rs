//! Integral-weight SSSP — weighted BFS (§4.3.1), after Julienne \[36\].
//!
//! Vertices are bucketed by tentative distance; the minimum bucket is settled
//! each round (weights are ≥ 1, so extraction order is final, as in Dial's
//! algorithm) and its out-edges are relaxed with `edgeMapChunked`. The
//! bucketing structure is the semi-eager variant of Appendix B, which needs
//! only `O(n)` words.

use crate::algo::common::{atomic_min, atomic_vec, unwrap_atomic};
use crate::bucket::{Buckets, Order, Packing};
use crate::edge_map::{edge_map, EdgeMapFn, EdgeMapOpts};
use crate::vertex_subset::VertexSubset;
use sage_graph::{Graph, V};
use sage_parallel as par;
use std::sync::atomic::{AtomicU64, Ordering};

struct RelaxFn<'a> {
    dist: &'a [AtomicU64],
}

impl EdgeMapFn for RelaxFn<'_> {
    fn update(&self, s: V, d: V, w: u32) -> bool {
        let nd = self.dist[s as usize].load(Ordering::Relaxed) + w as u64;
        if nd < self.dist[d as usize].load(Ordering::Relaxed) {
            self.dist[d as usize].store(nd, Ordering::Relaxed);
            true
        } else {
            false
        }
    }

    fn update_atomic(&self, s: V, d: V, w: u32) -> bool {
        let nd = self.dist[s as usize].load(Ordering::Relaxed) + w as u64;
        atomic_min(&self.dist[d as usize], nd)
    }

    fn cond(&self, _d: V) -> bool {
        true
    }
}

/// Shortest-path distances from `src` over positive integral weights
/// (`u64::MAX` = unreachable). Panics on unweighted graphs.
pub fn wbfs<G: Graph>(g: &G, src: V) -> Vec<u64> {
    assert!(g.is_weighted(), "wBFS requires an integral-weight graph");
    par::in_pool(|| settle_by_distance(g, src))
}

fn settle_by_distance<G: Graph>(g: &G, src: V) -> Vec<u64> {
    let n = g.num_vertices();
    let dist = atomic_vec(n, u64::MAX);
    dist[src as usize].store(0, Ordering::Relaxed);
    let mut buckets = Buckets::new(n, Order::Increasing, Packing::SemiEager, |v| {
        if v == src {
            Some(0)
        } else {
            None
        }
    });
    while let Some((_d, ids)) = buckets.next_bucket() {
        // Settled: weights >= 1 guarantee no later improvement.
        let mut frontier = VertexSubset::from_sparse(n, ids);
        let relax = RelaxFn { dist: &dist };
        let mut moved = edge_map(g, &mut frontier, &relax, EdgeMapOpts::default());
        // Re-bucket improved vertices at their new tentative distance. The
        // sort+dedup collapses the frontier's duplicate emissions to one move
        // per vertex, qualifying the batch for the distinct fast path.
        let mut ids: Vec<V> = moved.as_sparse().to_vec();
        par::par_sort(&mut ids);
        ids.dedup();
        let ids_ref: &[V] = &ids;
        let updates: Vec<(V, u64)> = par::par_map(ids.len(), |i| {
            let v = ids_ref[i];
            (v, dist[v as usize].load(Ordering::Relaxed))
        });
        buckets.update_batch_distinct(&updates);
    }
    unwrap_atomic(dist)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq;
    use sage_graph::{build_csr, gen, BuildOptions, CompressedCsr};

    fn weighted_rmat(scale: u32, seed: u64) -> sage_graph::Csr {
        let list =
            gen::rmat_edges(scale, 8, gen::RmatParams::default(), seed).with_random_weights(seed);
        build_csr(list, BuildOptions::default())
    }

    #[test]
    fn matches_dijkstra_on_rmat() {
        let g = weighted_rmat(9, 1);
        assert_eq!(wbfs(&g, 0), seq::dijkstra(&g, 0));
    }

    #[test]
    fn matches_dijkstra_multiple_sources() {
        let g = weighted_rmat(8, 5);
        for src in [0, 7, 100] {
            assert_eq!(wbfs(&g, src), seq::dijkstra(&g, src), "source {src}");
        }
    }

    #[test]
    fn works_on_compressed_weighted() {
        let g = weighted_rmat(8, 9);
        let c = CompressedCsr::from_csr(&g, 64);
        assert_eq!(wbfs(&c, 3), seq::dijkstra(&g, 3));
    }

    #[test]
    fn unreachable_stay_max() {
        let mut edges = vec![(0u32, 1u32)];
        edges.push((2, 3));
        let list = sage_graph::EdgeList {
            n: 4,
            edges,
            weights: Some(vec![2, 3]),
        };
        let g = build_csr(list, BuildOptions::default());
        let d = wbfs(&g, 0);
        assert_eq!(d, vec![0, 2, u64::MAX, u64::MAX]);
    }

    #[test]
    #[should_panic(expected = "requires an integral-weight")]
    fn rejects_unweighted() {
        let g = gen::path(4);
        let _ = wbfs(&g, 0);
    }

    #[test]
    fn zero_nvram_writes() {
        use sage_nvram::Meter;
        let g = weighted_rmat(8, 2);
        let before = Meter::global().snapshot();
        let _ = wbfs(&g, 0);
        assert_eq!(Meter::global().snapshot().since(&before).graph_write, 0);
    }
}
