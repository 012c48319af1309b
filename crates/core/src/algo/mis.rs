//! Maximal independent set (§4.3.3) — rootset-based parallel greedy
//! (Blelloch–Fineman–Shun \[17\]).
//!
//! Vertices carry random priorities; each round every undecided vertex with
//! no smaller-priority undecided neighbor joins the MIS and knocks its
//! neighbors out. `O(m)` expected work and `O(log² n)` depth whp; state is
//! one word per vertex.

use sage_graph::{Graph, V};
use sage_parallel as par;
use std::sync::atomic::{AtomicU8, Ordering};

const UNDECIDED: u8 = 0;
const IN: u8 = 1;
const OUT: u8 = 2;

#[inline]
fn priority(seed: u64, v: V) -> (u64, V) {
    (par::hash64(seed ^ v as u64), v)
}

/// Compute a maximal independent set; returns a membership vector.
pub fn mis<G: Graph>(g: &G, seed: u64) -> Vec<bool> {
    let n = g.num_vertices();
    let status: Vec<AtomicU8> = (0..n).map(|_| AtomicU8::new(UNDECIDED)).collect();
    let mut undecided: Vec<V> = (0..n as V).collect();
    while !undecided.is_empty() {
        // Rootset: undecided vertices that are local priority minima.
        let und: &[V] = &undecided;
        let status_ref = &status;
        let roots: Vec<V> = par::pack_index(und.len(), |i| {
            let v = und[i];
            let pv = priority(seed, v);
            let mut is_root = true;
            g.for_each_edge_while(v, |u, _| {
                if status_ref[u as usize].load(Ordering::Relaxed) == UNDECIDED
                    && priority(seed, u) < pv
                {
                    is_root = false;
                    return false;
                }
                true
            });
            is_root
        })
        .into_iter()
        .map(|i| und[i as usize])
        .collect();
        debug_assert!(
            !roots.is_empty(),
            "rootset cannot be empty while vertices remain"
        );
        // Roots join the MIS; their neighbors are knocked out.
        let roots_ref: &[V] = &roots;
        par::par_for(0, roots.len(), |i| {
            status_ref[roots_ref[i] as usize].store(IN, Ordering::Relaxed);
        });
        par::par_for(0, roots.len(), |i| {
            let v = roots_ref[i];
            g.for_each_edge(v, |u, _| {
                // A neighbor of an IN vertex can never be IN: two adjacent
                // roots are impossible (one has the smaller priority).
                status_ref[u as usize].store(OUT, Ordering::Relaxed);
            });
        });
        undecided = par::pack_index(und.len(), |i| {
            status_ref[und[i] as usize].load(Ordering::Relaxed) == UNDECIDED
        })
        .into_iter()
        .map(|i| und[i as usize])
        .collect();
    }
    status.into_iter().map(|s| s.into_inner() == IN).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq;
    use sage_graph::{gen, CompressedCsr};

    #[test]
    fn mis_on_rmat_is_maximal_independent() {
        let g = gen::rmat(10, 8, gen::RmatParams::default(), 81);
        let set = mis(&g, 1);
        seq::check_maximal_independent_set(&g, &set).unwrap();
    }

    #[test]
    fn mis_on_complete_graph_is_single_vertex() {
        let g = gen::complete(50);
        let set = mis(&g, 2);
        assert_eq!(set.iter().filter(|&&b| b).count(), 1);
    }

    #[test]
    fn mis_on_star_contains_leaves_or_center() {
        let g = gen::star(100);
        let set = mis(&g, 3);
        seq::check_maximal_independent_set(&g, &set).unwrap();
        if set[0] {
            assert_eq!(set.iter().filter(|&&b| b).count(), 1);
        } else {
            assert_eq!(set.iter().filter(|&&b| b).count(), 99);
        }
    }

    #[test]
    fn mis_on_edgeless_graph_is_everything() {
        let g = sage_graph::build_csr(
            sage_graph::EdgeList::new(7, vec![]),
            sage_graph::BuildOptions::default(),
        );
        assert!(mis(&g, 4).iter().all(|&b| b));
    }

    #[test]
    fn mis_on_compressed() {
        let csr = gen::rmat(9, 6, gen::RmatParams::default(), 83);
        let g = CompressedCsr::from_csr(&csr, 64);
        let set = mis(&g, 5);
        seq::check_maximal_independent_set(&csr, &set).unwrap();
    }

    #[test]
    fn different_seeds_both_valid() {
        let g = gen::grid(20, 20);
        for seed in [6, 7] {
            seq::check_maximal_independent_set(&g, &mis(&g, seed)).unwrap();
        }
    }
}
