//! Single-source widest path (max-bottleneck), §4.3.1.
//!
//! The paper provides two implementations; both are reproduced:
//! * [`widest_path_bf`] — Bellman-Ford-style iterative max-min relaxation;
//! * [`widest_path_bucketed`] — the Julienne-based variant: widths are
//!   bucketed in decreasing order and settled bucket-by-bucket (the max-min
//!   analogue of Dial's algorithm, valid because path widths only shrink).

use crate::algo::common::{atomic_max, atomic_vec, unwrap_atomic};
use crate::bucket::{Buckets, Order, Packing};
use crate::edge_map::{edge_map, EdgeMapFn, EdgeMapOpts};
use crate::vertex_subset::VertexSubset;
use sage_graph::{Graph, V};
use sage_parallel as par;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

struct WidestFn<'a> {
    width: &'a [AtomicU64],
    claimed: Option<&'a [AtomicBool]>,
}

impl WidestFn<'_> {
    #[inline]
    fn candidate(&self, s: V, w: u32) -> u64 {
        self.width[s as usize].load(Ordering::Relaxed).min(w as u64)
    }
}

impl EdgeMapFn for WidestFn<'_> {
    fn update(&self, s: V, d: V, w: u32) -> bool {
        let nw = self.candidate(s, w);
        if nw > self.width[d as usize].load(Ordering::Relaxed) {
            self.width[d as usize].store(nw, Ordering::Relaxed);
            match self.claimed {
                Some(c) => !c[d as usize].swap(true, Ordering::Relaxed),
                None => true,
            }
        } else {
            false
        }
    }

    fn update_atomic(&self, s: V, d: V, w: u32) -> bool {
        let nw = self.candidate(s, w);
        if atomic_max(&self.width[d as usize], nw) {
            match self.claimed {
                // ORDERING: AcqRel — emission token, as in Bellman-Ford.
                Some(c) => !c[d as usize].swap(true, Ordering::AcqRel),
                None => true,
            }
        } else {
            false
        }
    }

    fn cond(&self, _d: V) -> bool {
        true
    }
}

/// Bellman-Ford-style widest path: `width[v]` is the maximum over paths of
/// the minimum edge weight (`0` = unreachable; source = `u64::MAX`).
pub fn widest_path_bf<G: Graph>(g: &G, src: V) -> Vec<u64> {
    assert!(g.is_weighted(), "widest path requires a weighted graph");
    let n = g.num_vertices();
    let width = atomic_vec(n, 0);
    width[src as usize].store(u64::MAX, Ordering::Relaxed);
    let claimed: Vec<AtomicBool> = (0..n).map(|_| AtomicBool::new(false)).collect();
    let mut frontier = VertexSubset::single(n, src);
    while !frontier.is_empty() {
        let f = WidestFn {
            width: &width,
            claimed: Some(&claimed),
        };
        let next = edge_map(g, &mut frontier, &f, EdgeMapOpts::default());
        next.for_each(|v| claimed[v as usize].store(false, Ordering::Relaxed));
        frontier = next;
    }
    unwrap_atomic(width)
}

/// Bucketed widest path (the wBFS-based implementation of §4.3.1).
pub fn widest_path_bucketed<G: Graph>(g: &G, src: V) -> Vec<u64> {
    assert!(g.is_weighted(), "widest path requires a weighted graph");
    par::in_pool(|| settle_by_width(g, src))
}

fn settle_by_width<G: Graph>(g: &G, src: V) -> Vec<u64> {
    let n = g.num_vertices();
    // Upper bound on edge weights, for the decreasing bucket key space.
    let wmax = par::reduce_map(
        0,
        n,
        0,
        0u64,
        |vi| {
            let mut mx = 0u64;
            g.for_each_edge(vi as V, |_, w| mx = mx.max(w as u64));
            mx
        },
        |a, b| a.max(b),
    );
    let width = atomic_vec(n, 0);
    width[src as usize].store(u64::MAX, Ordering::Relaxed);
    let key_of = move |w: u64| w.min(wmax + 1); // source clamps to wmax+1
    let mut buckets = Buckets::new(n, Order::Decreasing, Packing::SemiEager, |v| {
        if v == src {
            Some(key_of(u64::MAX))
        } else {
            None
        }
    });
    while let Some((_k, ids)) = buckets.next_bucket() {
        // Extracting the widest bucket settles its vertices: any path through
        // narrower vertices can only be narrower.
        let mut frontier = VertexSubset::from_sparse(n, ids);
        let relax = WidestFn {
            width: &width,
            claimed: None,
        };
        let mut moved = edge_map(g, &mut frontier, &relax, EdgeMapOpts::default());
        let mut ids: Vec<V> = moved.as_sparse().to_vec();
        par::par_sort(&mut ids);
        ids.dedup();
        let ids_ref: &[V] = &ids;
        let updates: Vec<(V, u64)> = par::par_map(ids.len(), |i| {
            let v = ids_ref[i];
            (v, key_of(width[v as usize].load(Ordering::Relaxed)))
        });
        buckets.update_batch_distinct(&updates);
    }
    unwrap_atomic(width)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq;
    use sage_graph::{build_csr, gen, BuildOptions};

    fn weighted(scale: u32, seed: u64) -> sage_graph::Csr {
        let list =
            gen::rmat_edges(scale, 8, gen::RmatParams::default(), seed).with_random_weights(seed);
        build_csr(list, BuildOptions::default())
    }

    #[test]
    fn bf_matches_reference() {
        let g = weighted(9, 11);
        assert_eq!(widest_path_bf(&g, 0), seq::widest_path(&g, 0));
    }

    #[test]
    fn bucketed_matches_reference() {
        let g = weighted(9, 12);
        assert_eq!(widest_path_bucketed(&g, 0), seq::widest_path(&g, 0));
    }

    #[test]
    fn both_impls_agree_from_many_sources() {
        let g = weighted(8, 13);
        for src in [1, 33, 200] {
            assert_eq!(
                widest_path_bf(&g, src),
                widest_path_bucketed(&g, src),
                "source {src}"
            );
        }
    }

    #[test]
    fn unreachable_have_zero_width() {
        let list = sage_graph::EdgeList {
            n: 4,
            edges: vec![(0, 1), (2, 3)],
            weights: Some(vec![7, 9]),
        };
        let g = build_csr(list, BuildOptions::default());
        let w = widest_path_bf(&g, 0);
        assert_eq!(w[0], u64::MAX);
        assert_eq!(w[1], 7);
        assert_eq!(w[2], 0);
        assert_eq!(w[3], 0);
    }
}
