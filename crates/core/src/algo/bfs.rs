//! Breadth-first search (§4.1.3, Figure 4).
//!
//! `O(m)` PSAM work, `O(dG log n)` depth, `O(n)` words of small memory
//! (Theorem 4.2). The code mirrors the paper's Figure 4 listing: a parent
//! array, a frontier, and one `edgeMapChunked` per round.

use crate::edge_map::{edge_map, ClaimFn, EdgeMapOpts, UNVISITED};
use crate::vertex_subset::VertexSubset;
use sage_graph::{Graph, NONE_V, V};
use sage_parallel as par;
use std::sync::atomic::{AtomicU64, Ordering};

/// BFS tree from `src`: `parents[v]` is the BFS parent, `parents[src] = src`,
/// and `NONE_V` marks unreachable vertices.
pub fn bfs<G: Graph>(g: &G, src: V) -> Vec<V> {
    bfs_with_opts(g, src, EdgeMapOpts::default())
}

/// [`bfs`] with explicit traversal options (used by the Table 5 experiment to
/// compare `edgeMapSparse` / `edgeMapBlocked` / `edgeMapChunked`).
pub fn bfs_with_opts<G: Graph>(g: &G, src: V, opts: EdgeMapOpts) -> Vec<V> {
    let n = g.num_vertices();
    let parents = crate::algo::common::atomic_vec(n, UNVISITED);
    parents[src as usize].store(src as u64, Ordering::Relaxed);
    let mut frontier = VertexSubset::single(n, src);
    while !frontier.is_empty() {
        let f = ClaimFn { parents: &parents };
        frontier = edge_map(g, &mut frontier, &f, opts);
    }
    parents
        .into_iter()
        .map(|p| {
            let p = p.into_inner();
            if p == UNVISITED {
                NONE_V
            } else {
                p as V
            }
        })
        .collect()
}

/// BFS levels from `src` (`u64::MAX` = unreachable), plus the round count.
/// Convenience wrapper used by verification and by betweenness.
pub fn bfs_levels<G: Graph>(g: &G, src: V) -> (Vec<u64>, usize) {
    let n = g.num_vertices();
    let parents = crate::algo::common::atomic_vec(n, UNVISITED);
    parents[src as usize].store(src as u64, Ordering::Relaxed);
    let levels: Vec<AtomicU64> = crate::algo::common::atomic_vec(n, u64::MAX);
    levels[src as usize].store(0, Ordering::Relaxed);
    let mut frontier = VertexSubset::single(n, src);
    let mut round = 0u64;
    while !frontier.is_empty() {
        round += 1;
        let f = ClaimFn { parents: &parents };
        let next = edge_map(g, &mut frontier, &f, EdgeMapOpts::default());
        let r = round;
        next.for_each(|v| levels[v as usize].store(r, Ordering::Relaxed));
        frontier = next;
    }
    (crate::algo::common::unwrap_atomic(levels), round as usize)
}

/// Validate a BFS tree: parents form shortest paths. Used in tests and the
/// integration suite.
pub fn validate_bfs_tree<G: Graph>(g: &G, src: V, parents: &[V]) -> Result<(), String> {
    let n = g.num_vertices();
    // Derive levels by chasing parents (with cycle guard).
    let mut level = vec![u64::MAX; n];
    level[src as usize] = 0;
    for v0 in 0..n as V {
        if parents[v0 as usize] == NONE_V || level[v0 as usize] != u64::MAX {
            continue;
        }
        let mut chain = vec![v0];
        let mut v = v0;
        while level[v as usize] == u64::MAX {
            v = parents[v as usize];
            chain.push(v);
            if chain.len() > n + 1 {
                return Err(format!("parent cycle reached from {v0}"));
            }
        }
        let mut l = level[v as usize];
        for &u in chain.iter().rev().skip(1) {
            l += 1;
            level[u as usize] = l;
        }
    }
    // Tree edges must exist; levels must be BFS-consistent on every edge.
    let errors = par::reduce_add(0, n, |vi| {
        let v = vi as V;
        if parents[vi] == NONE_V || v == src {
            return 0;
        }
        let p = parents[vi];
        let mut is_edge = false;
        g.for_each_edge_while(v, |u, _| {
            if u == p {
                is_edge = true;
                return false;
            }
            true
        });
        if !is_edge || level[vi] != level[p as usize] + 1 {
            return 1;
        }
        0
    });
    if errors > 0 {
        return Err(format!("{errors} invalid parent pointers"));
    }
    // No edge may skip a level.
    let skips = par::reduce_add(0, n, |vi| {
        let v = vi as V;
        if level[vi] == u64::MAX {
            return 0;
        }
        let mut bad = 0u64;
        g.for_each_edge(v, |u, _| {
            let lu = level[u as usize];
            if lu == u64::MAX || lu + 1 < level[vi] {
                bad += 1;
            }
        });
        bad
    });
    if skips > 0 {
        return Err(format!("{skips} edges violate BFS level consistency"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edge_map::{SparseImpl, Strategy};
    use crate::seq;
    use sage_graph::{gen, CompressedCsr};

    fn levels_from_parents<G: Graph>(g: &G, src: V, parents: &[V]) -> Vec<u64> {
        let n = g.num_vertices();
        let mut level = vec![u64::MAX; n];
        level[src as usize] = 0;
        // Relax repeatedly (test helper; fine for small graphs).
        for _ in 0..n {
            let mut changed = false;
            for v in 0..n {
                let p = parents[v];
                if p != NONE_V && v as V != src && level[p as usize] != u64::MAX {
                    let want = level[p as usize] + 1;
                    if level[v] != want {
                        level[v] = want;
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        level
    }

    #[test]
    fn bfs_matches_sequential_on_rmat() {
        let g = gen::rmat(10, 8, gen::RmatParams::default(), 7);
        let want = seq::bfs_levels(&g, 0);
        let parents = bfs(&g, 0);
        validate_bfs_tree(&g, 0, &parents).unwrap();
        assert_eq!(levels_from_parents(&g, 0, &parents), want);
    }

    #[test]
    fn bfs_levels_match_sequential() {
        let g = gen::grid(25, 37);
        let (levels, rounds) = bfs_levels(&g, 0);
        assert_eq!(levels, seq::bfs_levels(&g, 0));
        // Eccentricity of the corner is (25-1)+(37-1); plus one empty round.
        assert_eq!(rounds as u64, 24 + 36 + 1);
    }

    #[test]
    fn bfs_on_compressed_graph() {
        let csr = gen::rmat(9, 10, gen::RmatParams::web(), 3);
        let g = CompressedCsr::from_csr(&csr, 64);
        let parents = bfs(&g, 5);
        validate_bfs_tree(&g, 5, &parents).unwrap();
        assert_eq!(
            levels_from_parents(&g, 5, &parents),
            seq::bfs_levels(&csr, 5)
        );
    }

    #[test]
    fn disconnected_vertices_unreachable() {
        let g = gen::two_cliques(5);
        let parents = bfs(&g, 0);
        assert!(parents[5..].iter().all(|&p| p == NONE_V));
        assert!(parents[..5].iter().all(|&p| p != NONE_V));
    }

    #[test]
    fn all_sparse_impls_give_valid_trees() {
        let g = gen::rmat(9, 8, gen::RmatParams::default(), 9);
        for si in [SparseImpl::Chunked, SparseImpl::Blocked, SparseImpl::Sparse] {
            let parents = bfs_with_opts(
                &g,
                0,
                EdgeMapOpts {
                    strategy: Strategy::ForceSparse,
                    sparse_impl: si,
                },
            );
            validate_bfs_tree(&g, 0, &parents).unwrap();
        }
    }
}
