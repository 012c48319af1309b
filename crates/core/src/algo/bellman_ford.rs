//! General-weight SSSP — frontier-based Bellman-Ford (§4.3.1).
//!
//! `O(dG · m)` PSAM work, `O(dG log n)` depth. Each round relaxes the edges
//! out of the vertices whose distance improved in the previous round; a
//! per-round claim flag keeps the output frontier duplicate-free (Ligra's
//! `Visited` array).

use crate::algo::common::{atomic_min, atomic_vec, unwrap_atomic};
use crate::edge_map::{edge_map, EdgeMapFn, EdgeMapOpts};
use crate::vertex_subset::VertexSubset;
use sage_graph::{Graph, V};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

struct BfFn<'a> {
    dist: &'a [AtomicU64],
    claimed: &'a [AtomicBool],
}

impl EdgeMapFn for BfFn<'_> {
    fn update(&self, s: V, d: V, w: u32) -> bool {
        let nd = self.dist[s as usize].load(Ordering::Relaxed) + w as u64;
        if nd < self.dist[d as usize].load(Ordering::Relaxed) {
            self.dist[d as usize].store(nd, Ordering::Relaxed);
            if !self.claimed[d as usize].swap(true, Ordering::Relaxed) {
                return true;
            }
        }
        false
    }

    fn update_atomic(&self, s: V, d: V, w: u32) -> bool {
        let nd = self.dist[s as usize].load(Ordering::Relaxed) + w as u64;
        if atomic_min(&self.dist[d as usize], nd) {
            // First improver in this round emits d exactly once.
            // ORDERING: AcqRel — emission token: Release publishes the
            // improved distance before the token, Acquire orders the winner
            // after prior claimants.
            return !self.claimed[d as usize].swap(true, Ordering::AcqRel);
        }
        false
    }

    fn cond(&self, _d: V) -> bool {
        true
    }
}

/// Shortest-path distances from `src` (`u64::MAX` = unreachable).
///
/// Returns `None` if the relaxation fails to converge within `n` rounds,
/// which for non-negative weights cannot happen (and signals a negative
/// cycle in the general setting the algorithm supports).
pub fn bellman_ford<G: Graph>(g: &G, src: V) -> Option<Vec<u64>> {
    assert!(g.is_weighted(), "Bellman-Ford requires a weighted graph");
    let n = g.num_vertices();
    let dist = atomic_vec(n, u64::MAX);
    dist[src as usize].store(0, Ordering::Relaxed);
    let claimed: Vec<AtomicBool> = (0..n).map(|_| AtomicBool::new(false)).collect();
    let mut frontier = VertexSubset::single(n, src);
    let mut rounds = 0usize;
    while !frontier.is_empty() {
        rounds += 1;
        if rounds > n + 1 {
            return None; // negative cycle (not reachable with our weights)
        }
        let f = BfFn {
            dist: &dist,
            claimed: &claimed,
        };
        let next = edge_map(g, &mut frontier, &f, EdgeMapOpts::default());
        // Reset the claim flags of the next frontier for the following round.
        next.for_each(|v| claimed[v as usize].store(false, Ordering::Relaxed));
        frontier = next;
    }
    Some(unwrap_atomic(dist))
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
    fn matches_dijkstra() {
        let g = weighted(9, 4);
        assert_eq!(bellman_ford(&g, 0).unwrap(), seq::dijkstra(&g, 0));
    }

    #[test]
    fn agrees_with_wbfs() {
        let g = weighted(8, 6);
        assert_eq!(
            bellman_ford(&g, 2).unwrap(),
            super::super::wbfs::wbfs(&g, 2)
        );
    }

    #[test]
    fn weighted_grid_long_paths() {
        let base = gen::grid(20, 20);
        // Re-weight the grid edges.
        let mut edges = Vec::new();
        for u in 0..base.num_vertices() as V {
            for &v in base.neighbors(u) {
                if u < v {
                    edges.push((u, v));
                }
            }
        }
        let list = sage_graph::EdgeList::new(400, edges).with_random_weights(8);
        let g = build_csr(list, BuildOptions::default());
        assert_eq!(bellman_ford(&g, 0).unwrap(), seq::dijkstra(&g, 0));
    }
}
