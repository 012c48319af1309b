//! O(k)-spanner (§4.3.1) after Miller, Peng, Vladu, Xu \[69\].
//!
//! Run LDD with `β = ln n / (2k)`; the spanner is the union of the LDD BFS
//! trees and one edge per pair of adjacent clusters. Size `O(n^{1+1/k})`
//! (`O(n)` for `k = Θ(log n)`, the paper's default `k = ⌈log₂ n⌉`), stretch
//! `O(k)` whp.

use crate::algo::ldd::ldd;
use sage_graph::{Graph, NONE_V, V};
use sage_parallel as par;
use sage_parallel::ConcurrentMap;

/// Pack an undirected pair into a canonical u64 key.
#[inline]
fn pair_key(a: V, b: V) -> u64 {
    let (lo, hi) = if a < b { (a, b) } else { (b, a) };
    ((lo as u64) << 32) | hi as u64
}

/// Build an O(k)-spanner; returns its undirected edge list.
pub fn spanner<G: Graph>(g: &G, k: usize, seed: u64) -> Vec<(V, V)> {
    assert!(k >= 1);
    let n = g.num_vertices();
    if n == 0 {
        return Vec::new();
    }
    let beta = ((n.max(2) as f64).ln() / (2.0 * k as f64)).clamp(1e-6, 0.95);
    let d = ldd(g, beta, seed);

    // Tree edges.
    let mut edges: Vec<(V, V)> = (0..n)
        .filter(|&v| d.parent[v] != NONE_V && d.parent[v] as usize != v)
        .map(|v| (d.parent[v], v as V))
        .collect();

    // One witness edge per adjacent cluster pair.
    let inter = crate::algo::ldd::count_inter_cluster_edges(g, &d.cluster);
    if inter > 0 {
        let map = ConcurrentMap::with_capacity((inter as usize).max(16));
        let cluster = &d.cluster;
        par::par_for(0, n, |vi| {
            let v = vi as V;
            let cv = cluster[vi];
            g.for_each_edge(v, |u, _| {
                let cu = cluster[u as usize];
                if cv != cu {
                    map.insert_if_absent(pair_key(cv, cu), ((v as u64) << 32) | u as u64);
                }
            });
        });
        edges.extend(map.entries().into_iter().map(|(_, enc)| {
            let enc = enc - 1; // undo the +1 storage convention
            ((enc >> 32) as V, (enc & 0xFFFF_FFFF) as V)
        }));
    }
    edges
}

/// The default stretch parameter used in the paper's evaluation:
/// `k = ⌈log₂ n⌉` (§4.3.1), giving an `O(log n)`-spanner of size `O(n)`.
pub fn default_k(n: usize) -> usize {
    (usize::BITS - n.max(2).leading_zeros()) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq;
    use sage_graph::{build_csr, gen, BuildOptions, EdgeList};

    fn spanner_graph(n: usize, edges: &[(V, V)]) -> sage_graph::Csr {
        build_csr(EdgeList::new(n, edges.to_vec()), BuildOptions::default())
    }

    #[test]
    fn spanner_edges_are_graph_edges() {
        let g = gen::rmat(9, 8, gen::RmatParams::default(), 61);
        let s = spanner(&g, default_k(g.num_vertices()), 1);
        for &(u, v) in &s {
            assert!(g.neighbors(u).contains(&v));
        }
    }

    #[test]
    fn spanner_preserves_connectivity() {
        let g = gen::rmat(9, 6, gen::RmatParams::default(), 63);
        let s = spanner(&g, default_k(g.num_vertices()), 2);
        let sg = spanner_graph(g.num_vertices(), &s);
        let want = seq::canonicalize_labels(&seq::components(&g));
        let got = seq::canonicalize_labels(&seq::components(&sg));
        assert_eq!(got, want);
    }

    #[test]
    fn spanner_is_sparse_for_log_k() {
        let g = gen::rmat(11, 16, gen::RmatParams::default(), 65);
        let n = g.num_vertices();
        let s = spanner(&g, default_k(n), 3);
        // Size O(n) with small constants; allow 4n.
        assert!(
            s.len() < 4 * n,
            "spanner has {} edges for n = {n} (m = {})",
            s.len(),
            g.num_edges()
        );
    }

    #[test]
    fn stretch_is_bounded_on_sample_pairs() {
        let g = gen::rmat(8, 8, gen::RmatParams::default(), 67);
        let n = g.num_vertices();
        let k = default_k(n);
        let s = spanner(&g, k, 4);
        let sg = spanner_graph(n, &s);
        for src in [0u32, 17, 99] {
            let orig = seq::bfs_levels(&g, src);
            let span = seq::bfs_levels(&sg, src);
            for v in 0..n {
                if orig[v] == u64::MAX {
                    assert_eq!(span[v], u64::MAX);
                    continue;
                }
                assert!(
                    span[v] != u64::MAX,
                    "pair ({src},{v}) disconnected in spanner"
                );
                // O(k) stretch: use a generous 8k + 4 bound for small n.
                assert!(
                    span[v] <= (8 * k as u64) * orig[v].max(1) + 4,
                    "stretch {} -> {} exceeds bound (k={k})",
                    orig[v],
                    span[v]
                );
            }
        }
    }

    #[test]
    fn tree_input_keeps_all_edges() {
        let g = gen::path(200);
        let s = spanner(&g, 4, 5);
        assert_eq!(s.len(), 199, "a tree is its only spanner");
    }
}
