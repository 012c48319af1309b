//! k-clique counting — the paper's §3.2 extension example: "counting and
//! enumerating k-cliques, which were very recently studied in the in-memory
//! setting \[82\], can be adapted to the PSAM using the filtering technique
//! proposed in this paper."
//!
//! The graphFilter orients edges from lower to higher degree-rank (as in
//! triangle counting, which is the `k = 3` case); k-cliques are counted by
//! recursive candidate-set intersection over the oriented out-neighborhoods,
//! after Shi-Dhulipala-Shun. Small memory: one candidate stack of at most
//! `Δ_out · k` words per worker.

use crate::filter::GraphFilter;
use sage_graph::{Graph, V};
use sage_parallel as par;
use std::sync::atomic::{AtomicU64, Ordering};

/// Intersect two sorted vertex lists into `out`.
fn intersect_into(a: &[V], b: &[V], out: &mut Vec<V>) {
    out.clear();
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
}

fn count_rec<G: Graph>(
    filter: &GraphFilter<'_, G>,
    cands: &[V],
    depth: usize,
    scratch: &mut Vec<Vec<V>>,
    ngh_buf: &mut Vec<V>,
) -> u64 {
    if depth == 1 {
        return cands.len() as u64;
    }
    let mut total = 0u64;
    let mut next = scratch.pop().unwrap_or_default();
    for &u in cands {
        filter.active_neighbors_into(u, ngh_buf);
        intersect_into(cands, ngh_buf, &mut next);
        if next.len() as u64 >= depth as u64 - 1 {
            total += count_rec(filter, &next, depth - 1, scratch, ngh_buf);
        }
    }
    scratch.push(next);
    total
}

/// Count the k-cliques of `g` (`k >= 1`). `k = 3` equals triangle counting.
pub fn kclique_count<G: Graph>(g: &G, k: usize) -> u64 {
    assert!(k >= 1, "k must be positive");
    let n = g.num_vertices();
    if k == 1 {
        return n as u64;
    }
    if k == 2 {
        return g.num_edges() as u64 / 2;
    }
    let rank = |v: V| (g.degree(v), v);
    let mut filter = GraphFilter::new(g, false);
    filter.filter_edges(|u, v, _| rank(u) < rank(v));
    let total = AtomicU64::new(0);
    let filter_ref = &filter;
    par::par_for_grain(0, n, 8, |vi| {
        let v = vi as V;
        if filter_ref.degree(v) + 1 < k {
            return;
        }
        let mut cands = Vec::with_capacity(filter_ref.degree(v));
        filter_ref.active_neighbors_into(v, &mut cands);
        let mut scratch: Vec<Vec<V>> = Vec::new();
        let mut ngh_buf = Vec::new();
        let c = count_rec(filter_ref, &cands, k - 1, &mut scratch, &mut ngh_buf);
        if c > 0 {
            total.fetch_add(c, Ordering::Relaxed);
        }
    });
    total.into_inner()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq;
    use sage_graph::gen;

    fn binom(n: u64, k: u64) -> u64 {
        if k > n {
            return 0;
        }
        let mut r = 1u64;
        for i in 0..k {
            r = r * (n - i) / (i + 1);
        }
        r
    }

    #[test]
    fn complete_graph_counts_binomials() {
        let g = gen::complete(10);
        for k in 1..=6 {
            assert_eq!(kclique_count(&g, k), binom(10, k as u64), "k={k}");
        }
    }

    #[test]
    fn k3_equals_triangle_count() {
        let g = gen::rmat(8, 10, gen::RmatParams::default(), 151);
        assert_eq!(kclique_count(&g, 3), seq::triangle_count(&g));
    }

    #[test]
    fn k4_on_two_overlapping_cliques() {
        // K5 sharing an edge with K4: C(5,4) + C(4,4) = 5 + 1.
        let mut edges = Vec::new();
        for i in 0..5u32 {
            for j in (i + 1)..5 {
                edges.push((i, j));
            }
        }
        // K4 on {3,4,5,6} shares edge (3,4).
        for &(a, b) in &[(3u32, 5), (3, 6), (4, 5), (4, 6), (5, 6)] {
            edges.push((a, b));
        }
        let g = sage_graph::build_csr(
            sage_graph::EdgeList::new(7, edges),
            sage_graph::BuildOptions::default(),
        );
        assert_eq!(kclique_count(&g, 4), 6);
        assert_eq!(kclique_count(&g, 5), 1);
        assert_eq!(kclique_count(&g, 6), 0);
    }

    #[test]
    fn triangle_free_graphs_have_no_cliques() {
        assert_eq!(kclique_count(&gen::grid(8, 8), 3), 0);
        assert_eq!(kclique_count(&gen::star(50), 3), 0);
        assert_eq!(kclique_count(&gen::path(30), 4), 0);
    }

    #[test]
    fn degenerate_k() {
        let g = gen::path(10);
        assert_eq!(kclique_count(&g, 1), 10);
        assert_eq!(kclique_count(&g, 2), 9);
    }
}
