//! (Δ+1) graph coloring (§4.3.3) — Jones–Plassmann with the
//! largest-degree-first (LF) heuristic.
//!
//! Each vertex waits for its higher-priority neighbors (degree, then random
//! tie-break) to be colored, then greedily takes the smallest free color.
//! The dependency counters are one word per vertex; rounds proceed by
//! frontier, giving the `O(log n + L log Δ)` depth of Table 1.

use sage_graph::{Graph, V};
use sage_parallel as par;
use std::sync::atomic::{AtomicU32, Ordering};

const UNCOLORED: u32 = u32::MAX;

#[inline]
fn rank<G: Graph>(g: &G, seed: u64, v: V) -> (usize, u64, V) {
    (g.degree(v), par::hash64(seed ^ v as u64), v)
}

/// Color the graph with at most Δ+1 colors; returns the color per vertex.
pub fn coloring<G: Graph>(g: &G, seed: u64) -> Vec<u32> {
    let n = g.num_vertices();
    let colors: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(UNCOLORED)).collect();
    // Dependency counts: higher-ranked neighbors still uncolored.
    let counts: Vec<AtomicU32> = {
        let tmp: Vec<u32> = par::par_map(n, |vi| {
            let v = vi as V;
            let rv = rank(g, seed, v);
            let mut c = 0u32;
            g.for_each_edge(v, |u, _| {
                if rank(g, seed, u) > rv {
                    c += 1;
                }
            });
            c
        });
        tmp.into_iter().map(AtomicU32::new).collect()
    };
    let mut frontier: Vec<V> = par::pack_index(n, |v| counts[v].load(Ordering::Relaxed) == 0);
    let mut colored = 0usize;
    while !frontier.is_empty() {
        colored += frontier.len();
        // Color the ready vertices: smallest color absent among neighbors.
        let fr: &[V] = &frontier;
        let colors_ref = &colors;
        par::par_for(0, fr.len(), |i| {
            let v = fr[i];
            let deg = g.degree(v);
            let mut used = vec![false; deg + 1];
            g.for_each_edge(v, |u, _| {
                let c = colors_ref[u as usize].load(Ordering::Relaxed);
                if (c as usize) <= deg {
                    used[c as usize] = true;
                }
            });
            let c = used
                .iter()
                .position(|&b| !b)
                .expect("a free color always exists") as u32;
            colors_ref[v as usize].store(c, Ordering::Relaxed);
        });
        // Release dependencies of lower-ranked neighbors.
        let counts_ref = &counts;
        let next: Vec<Vec<V>> = par::par_map_grain(fr.len(), 4, |i| {
            let v = fr[i];
            let rv = rank(g, seed, v);
            let mut ready = Vec::new();
            g.for_each_edge(v, |u, _| {
                // ORDERING: AcqRel on the count — count-to-zero handoff:
                // Release publishes this thread's color write, the final
                // decrementer's Acquire orders it after all predecessors.
                if rank(g, seed, u) < rv
                    && colors_ref[u as usize].load(Ordering::Relaxed) == UNCOLORED
                    && counts_ref[u as usize].fetch_sub(1, Ordering::AcqRel) == 1
                {
                    ready.push(u);
                }
            });
            ready
        });
        frontier = next.into_iter().flatten().collect();
    }
    assert_eq!(colored, n, "coloring did not reach every vertex");
    colors.into_iter().map(|c| c.into_inner()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq;
    use sage_graph::{gen, CompressedCsr};

    #[test]
    fn proper_coloring_on_rmat() {
        let g = gen::rmat(9, 8, gen::RmatParams::default(), 101);
        let c = coloring(&g, 1);
        seq::check_coloring(&g, &c).unwrap();
    }

    #[test]
    fn complete_graph_needs_exactly_n_colors() {
        let g = gen::complete(12);
        let c = coloring(&g, 2);
        seq::check_coloring(&g, &c).unwrap();
        let distinct: std::collections::HashSet<u32> = c.into_iter().collect();
        assert_eq!(distinct.len(), 12);
    }

    #[test]
    fn grid_uses_few_colors() {
        let g = gen::grid(25, 25);
        let c = coloring(&g, 3);
        seq::check_coloring(&g, &c).unwrap();
        let max = c.iter().max().unwrap();
        assert!(*max <= 4, "grid colored with {} colors", max + 1);
    }

    #[test]
    fn star_uses_two_colors() {
        let g = gen::star(64);
        let c = coloring(&g, 4);
        seq::check_coloring(&g, &c).unwrap();
        assert!(c.iter().max().unwrap() <= &1);
    }

    #[test]
    fn compressed_graph_coloring() {
        let csr = gen::rmat(8, 12, gen::RmatParams::web(), 103);
        let g = CompressedCsr::from_csr(&csr, 64);
        let c = coloring(&g, 5);
        seq::check_coloring(&csr, &c).unwrap();
    }
}
