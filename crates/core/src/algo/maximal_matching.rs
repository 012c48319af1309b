//! Maximal matching (§4.3.3, App C.3) using the graphFilter.
//!
//! Random-priority matching: each round, every unmatched vertex nominates its
//! minimum-priority active edge; an edge whose two endpoints nominate each
//! other joins the matching, and the filter packs away every edge incident to
//! a matched vertex — the batched "deletion" that GBBS performs by mutating
//! the graph and Sage performs in DRAM bits (§4.2). The globally minimum
//! active edge always matches, and by the analysis of [17, 42] O(log m)
//! rounds suffice whp.

use crate::filter::GraphFilter;
use sage_graph::{Graph, NONE_V, V};
use sage_parallel as par;

#[inline]
fn edge_priority(seed: u64, u: V, v: V) -> u64 {
    let (a, b) = if u < v { (u, v) } else { (v, u) };
    par::hash64_pair(seed ^ a as u64, b as u64)
}

/// Compute a maximal matching; `mate[v]` is `v`'s partner or `NONE_V`.
pub fn maximal_matching<G: Graph>(g: &G, seed: u64) -> Vec<V> {
    let n = g.num_vertices();
    let mut mate = vec![NONE_V; n];
    let mut filter = GraphFilter::new(g, true);
    let mut round = 0usize;
    while filter.active_edges() > 0 {
        round += 1;
        assert!(round <= 64 + n, "matching failed to converge");
        // Nominations: min-priority active edge per vertex.
        let nominee: Vec<V> = par::par_map(n, |vi| {
            let v = vi as V;
            let mut best: Option<(u64, V)> = None;
            filter.for_each_active(v, |u, _| {
                let key = (edge_priority(seed, v, u), u);
                if best.map_or(true, |b| key < b) {
                    best = Some(key);
                }
            });
            best.map_or(NONE_V, |(_, u)| u)
        });
        // Mutual nominations match.
        let matched: Vec<V> = par::pack_index(n, |vi| {
            let u = nominee[vi];
            u != NONE_V && nominee[u as usize] == vi as V
        })
        .into_iter()
        .map(|i| i as V)
        .collect();
        debug_assert!(!matched.is_empty(), "min-priority edge must match");
        for &v in &matched {
            mate[v as usize] = nominee[v as usize];
        }
        // Pack away all edges incident to matched vertices.
        let mate_ref: &[V] = &mate;
        filter.filter_edges(|a, b, _| {
            mate_ref[a as usize] == NONE_V && mate_ref[b as usize] == NONE_V
        });
    }
    mate
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq;
    use sage_graph::{gen, CompressedCsr};

    #[test]
    fn matching_on_rmat_is_valid_and_maximal() {
        let g = gen::rmat(9, 8, gen::RmatParams::default(), 91);
        let mate = maximal_matching(&g, 1);
        seq::check_maximal_matching(&g, &mate).unwrap();
    }

    #[test]
    fn matching_on_path_alternates() {
        let g = gen::path(50);
        let mate = maximal_matching(&g, 2);
        seq::check_maximal_matching(&g, &mate).unwrap();
        let matched = mate.iter().filter(|&&m| m != NONE_V).count();
        assert!(matched >= 34, "path matching too small: {matched}");
    }

    #[test]
    fn matching_on_complete_graph_pairs_everyone() {
        let g = gen::complete(20);
        let mate = maximal_matching(&g, 3);
        seq::check_maximal_matching(&g, &mate).unwrap();
        assert_eq!(mate.iter().filter(|&&m| m != NONE_V).count(), 20);
    }

    #[test]
    fn matching_on_star_has_one_edge() {
        let g = gen::star(40);
        let mate = maximal_matching(&g, 4);
        seq::check_maximal_matching(&g, &mate).unwrap();
        assert_eq!(mate.iter().filter(|&&m| m != NONE_V).count(), 2);
    }

    #[test]
    fn matching_on_compressed() {
        let csr = gen::rmat(8, 10, gen::RmatParams::web(), 93);
        let g = CompressedCsr::from_csr(&csr, 64);
        let mate = maximal_matching(&g, 5);
        seq::check_maximal_matching(&csr, &mate).unwrap();
    }

    #[test]
    fn empty_graph_matches_nothing() {
        let g = sage_graph::build_csr(
            sage_graph::EdgeList::new(5, vec![]),
            sage_graph::BuildOptions::default(),
        );
        assert!(maximal_matching(&g, 6).iter().all(|&m| m == NONE_V));
    }
}
