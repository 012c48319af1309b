//! Vertex relabeling / graph reordering.
//!
//! Appendix D.1 of the paper attributes the triangle-counting gap between
//! Sage and GBBS to "the input-ordering the graph is provided in": decode
//! work depends on how active edges cluster into blocks, which the vertex
//! order controls. This module provides the standard orderings so the
//! ablation can be reproduced: degree-descending (hubs first, the order web
//! crawls approximate) and random (the adversarial case).

use crate::builder::{build_csr, BuildOptions, EdgeList};
use crate::csr::Csr;
use crate::{Graph, V};
use sage_parallel as par;

/// A vertex relabeling: `perm[old] = new`.
pub struct Relabeling {
    /// New id of each old vertex.
    pub perm: Vec<V>,
}

impl Relabeling {
    /// Degree-descending order: hubs get the smallest ids.
    // sage-lint: allow(dead-pub) -- ROADMAP item 8 measures hub-first relabeling, then keeps or deletes reorder.rs
    pub fn by_degree_desc(g: &impl Graph) -> Self {
        let n = g.num_vertices();
        let mut order: Vec<V> = (0..n as V).collect();
        par::par_sort_by_key(&mut order, |&v| (std::cmp::Reverse(g.degree(v)), v));
        let mut perm = vec![0 as V; n];
        for (new, &old) in order.iter().enumerate() {
            perm[old as usize] = new as V;
        }
        Self { perm }
    }

    /// Seeded random order.
    // sage-lint: allow(dead-pub) -- ROADMAP item 8 measures hub-first relabeling, then keeps or deletes reorder.rs
    pub fn random(n: usize, seed: u64) -> Self {
        Self {
            perm: par::rng::random_permutation(n, seed),
        }
    }

    /// Identity order (useful as an ablation control).
    // sage-lint: allow(dead-pub) -- ROADMAP item 8 measures hub-first relabeling, then keeps or deletes reorder.rs
    pub fn identity(n: usize) -> Self {
        Self {
            perm: (0..n as V).collect(),
        }
    }
}

/// Apply a relabeling to a graph, producing the reordered CSR.
// sage-lint: allow(dead-pub) -- ROADMAP item 8 measures hub-first relabeling, then keeps or deletes reorder.rs
pub fn relabel(g: &Csr, r: &Relabeling) -> Csr {
    let n = g.num_vertices();
    assert_eq!(r.perm.len(), n, "permutation size mismatch");
    let weighted = g.is_weighted();
    let mut edges = Vec::with_capacity(g.num_edges());
    let mut weights = if weighted {
        Some(Vec::with_capacity(g.num_edges()))
    } else {
        None
    };
    for u in 0..n as V {
        for i in 0..g.degree(u) {
            let v = g.neighbor_at(u, i);
            if u <= v {
                edges.push((r.perm[u as usize], r.perm[v as usize]));
                if let Some(w) = weights.as_mut() {
                    w.push(g.weight_at(u, i));
                }
            }
        }
    }
    build_csr(
        EdgeList { n, edges, weights },
        BuildOptions {
            symmetrize: true,
            block_size: g.block_size(),
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    fn degree_multiset(g: &Csr) -> Vec<usize> {
        let mut d: Vec<usize> = (0..g.num_vertices() as V).map(|v| g.degree(v)).collect();
        d.sort_unstable();
        d
    }

    #[test]
    fn relabel_preserves_structure() {
        let g = gen::rmat(8, 8, gen::RmatParams::default(), 9);
        let r = Relabeling::random(g.num_vertices(), 3);
        let h = relabel(&g, &r);
        assert_eq!(h.num_edges(), g.num_edges());
        assert_eq!(degree_multiset(&h), degree_multiset(&g));
        // Edges map exactly through the permutation.
        for u in 0..g.num_vertices() as V {
            for &v in g.neighbors(u) {
                let (nu, nv) = (r.perm[u as usize], r.perm[v as usize]);
                assert!(h.neighbors(nu).contains(&nv), "({u},{v}) lost");
            }
        }
    }

    #[test]
    fn degree_desc_puts_hubs_first() {
        let g = gen::rmat(9, 16, gen::RmatParams::default(), 5);
        let r = Relabeling::by_degree_desc(&g);
        let h = relabel(&g, &r);
        // New vertex 0 must have the maximum degree; degrees non-increasing
        // overall (up to ties broken by id).
        let dmax = (0..h.num_vertices() as V)
            .map(|v| h.degree(v))
            .max()
            .unwrap();
        assert_eq!(h.degree(0), dmax);
        let degs: Vec<usize> = (0..h.num_vertices() as V).map(|v| h.degree(v)).collect();
        assert!(degs.windows(2).all(|w| w[0] >= w[1]));
    }

    #[test]
    fn identity_is_noop() {
        let g = gen::rmat(7, 8, gen::RmatParams::default(), 6);
        let h = relabel(&g, &Relabeling::identity(g.num_vertices()));
        for v in 0..g.num_vertices() as V {
            assert_eq!(g.neighbors(v), h.neighbors(v));
        }
    }

    #[test]
    fn ordering_preserves_triangle_count() {
        // The App D.1 setting: relabeling changes decode locality but can
        // never change the triangle count.
        let g = gen::rmat(9, 16, gen::RmatParams::default(), 7);
        let hub_first = relabel(&g, &Relabeling::by_degree_desc(&g));
        let random = relabel(&g, &Relabeling::random(g.num_vertices(), 11));
        let a = sage_core_shim::triangle_stats(&hub_first);
        let b = sage_core_shim::triangle_stats(&random);
        let c = sage_core_shim::triangle_stats(&g);
        assert_eq!(a.0, b.0, "orderings must agree on the count");
        assert_eq!(a.0, c.0);
        assert!(a.1 > 0 && b.1 > 0);
    }

    /// The graph crate cannot depend on sage-core; reimplement the minimal
    /// oriented intersection count for the ordering test.
    mod sage_core_shim {
        use super::*;

        pub fn triangle_stats(g: &Csr) -> (u64, u64) {
            let rank = |v: V| (g.degree(v), v);
            let mut count = 0u64;
            let mut work = 0u64;
            for u in 0..g.num_vertices() as V {
                let nu: Vec<V> = g
                    .neighbors(u)
                    .iter()
                    .copied()
                    .filter(|&v| rank(u) < rank(v))
                    .collect();
                work += g.degree(u) as u64;
                for &v in &nu {
                    let nv: Vec<V> = g
                        .neighbors(v)
                        .iter()
                        .copied()
                        .filter(|&w| rank(v) < rank(w))
                        .collect();
                    work += g.degree(v) as u64;
                    let (mut i, mut j) = (0, 0);
                    while i < nu.len() && j < nv.len() {
                        match nu[i].cmp(&nv[j]) {
                            std::cmp::Ordering::Less => i += 1,
                            std::cmp::Ordering::Greater => j += 1,
                            std::cmp::Ordering::Equal => {
                                count += 1;
                                i += 1;
                                j += 1;
                            }
                        }
                    }
                }
            }
            (count, work)
        }
    }
}
