//! Spanning forest: LDD trees plus the links of the union-find finish
//! (§4.3.2).
//!
//! Same sample-then-finish shape as [`crate::algo::connectivity`]. The LDD's
//! BFS trees span every cluster (`n − #clusters` edges), and the finish keeps
//! the graph edge `(v, u)` behind each `unite` that actually linked two
//! clusters — exactly `#clusters − #components` of them, none closing a
//! cycle, since a link joins two trees that were apart. Together that is
//! `n − #components` edges of the input graph: a spanning forest, in `O(m)`
//! expected work and `O(n)` words of small memory.

use crate::algo::connectivity::unite_clusters;
use crate::algo::ldd::ldd;
use sage_graph::{Graph, V};

/// Edges of a spanning forest of `g`.
pub fn spanning_forest<G: Graph>(g: &G, beta: f64, seed: u64) -> Vec<(V, V)> {
    let d = ldd(g, beta, seed);
    let mut forest: Vec<(V, V)> = (0..g.num_vertices())
        .filter(|&v| d.parent[v] as usize != v)
        .map(|v| (d.parent[v], v as V))
        .collect();
    forest.append(&mut unite_clusters(g, &d.cluster, seed, true).1);
    forest
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::{self, UnionFind};
    use sage_graph::gen;

    fn check_forest(g: &sage_graph::Csr, forest: &[(V, V)]) {
        let n = g.num_vertices();
        // Every forest edge is a real edge.
        for &(u, v) in forest {
            assert!(g.neighbors(u).contains(&v), "({u},{v}) not in graph");
        }
        // Acyclic and spanning: n - #components edges, all unions succeed.
        let mut uf = UnionFind::new(n);
        for &(u, v) in forest {
            assert!(uf.union(u, v), "cycle through ({u},{v})");
        }
        let want_components = crate::algo::connectivity::num_components(&seq::components(g));
        assert_eq!(forest.len(), n - want_components, "forest size");
        // Spanning: same component structure as the graph.
        let mut uf2 = UnionFind::new(n);
        for &(u, v) in forest {
            uf2.union(u, v);
        }
        let labels = seq::components(g);
        for v in 0..n as u32 {
            let in_graph_same = labels[v as usize];
            assert_eq!(
                uf2.find(v),
                uf2.find(in_graph_same),
                "vertex {v} disconnected from its component root in the forest"
            );
        }
    }

    #[test]
    fn forest_of_rmat() {
        let g = gen::rmat(9, 6, gen::RmatParams::default(), 51);
        let f = spanning_forest(&g, 0.2, 1);
        check_forest(&g, &f);
    }

    #[test]
    fn forest_of_disconnected_graph() {
        let g = gen::erdos_renyi(2000, 900, 6);
        let f = spanning_forest(&g, 0.2, 2);
        check_forest(&g, &f);
    }

    #[test]
    fn forest_of_two_cliques() {
        let g = gen::two_cliques(15);
        let f = spanning_forest(&g, 0.2, 3);
        check_forest(&g, &f);
        assert_eq!(f.len(), 28); // (15-1) * 2
    }

    #[test]
    fn forest_of_tree_is_the_tree() {
        let g = gen::path(300);
        let f = spanning_forest(&g, 0.2, 4);
        check_forest(&g, &f);
        assert_eq!(f.len(), 299);
    }
}
