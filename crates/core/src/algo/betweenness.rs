//! Single-source betweenness centrality (Brandes contributions), §4.3.1.
//!
//! Forward sparse/dense BFS accumulates path counts σ with the
//! fetch-and-add-double pattern (§4.3.4); the backward pass walks the BFS
//! levels in reverse, *pulling* each vertex's dependency from its successors
//! so no atomics are needed. `O(m)` PSAM work, `O(dG log n)` depth, `O(n)`
//! words of small memory.

use crate::algo::common::{atomic_add_f64, atomic_vec};
use crate::edge_map::{edge_map, EdgeMapFn, EdgeMapOpts};
use crate::vertex_subset::VertexSubset;
use sage_graph::{Graph, V};
use sage_parallel as par;
use std::sync::atomic::{AtomicU64, Ordering};

struct SigmaFn<'a> {
    sigma: &'a [AtomicU64], // f64 bits
    level: &'a [AtomicU64], // u64::MAX = unvisited
    round: u64,
}

impl EdgeMapFn for SigmaFn<'_> {
    fn update(&self, s: V, d: V, _w: u32) -> bool {
        // Dense: single-threaded per destination.
        let ls = self.level[s as usize].load(Ordering::Relaxed);
        if ls != self.round - 1 {
            return false;
        }
        let add = f64::from_bits(self.sigma[s as usize].load(Ordering::Relaxed));
        let cur = f64::from_bits(self.sigma[d as usize].load(Ordering::Relaxed));
        self.sigma[d as usize].store((cur + add).to_bits(), Ordering::Relaxed);
        let first = self.level[d as usize].load(Ordering::Relaxed) == u64::MAX;
        if first {
            self.level[d as usize].store(self.round, Ordering::Relaxed);
        }
        first
    }

    fn update_atomic(&self, s: V, d: V, _w: u32) -> bool {
        let ls = self.level[s as usize].load(Ordering::Relaxed);
        if ls != self.round - 1 {
            return false;
        }
        let add = f64::from_bits(self.sigma[s as usize].load(Ordering::Relaxed));
        atomic_add_f64(&self.sigma[d as usize], add);
        // ORDERING: AcqRel success / Acquire failure — level-claim CAS:
        // Release publishes the sigma contribution, Acquire orders losers.
        self.level[d as usize]
            .compare_exchange(u64::MAX, self.round, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }

    fn cond(&self, d: V) -> bool {
        let l = self.level[d as usize].load(Ordering::Relaxed);
        l == u64::MAX || l == self.round
    }
}

/// Brandes dependency scores for all shortest paths from `src`.
pub fn betweenness<G: Graph>(g: &G, src: V) -> Vec<f64> {
    let n = g.num_vertices();
    let sigma = atomic_vec(n, 0f64.to_bits());
    sigma[src as usize].store(1f64.to_bits(), Ordering::Relaxed);
    let level = atomic_vec(n, u64::MAX);
    level[src as usize].store(0, Ordering::Relaxed);

    // Forward phase: record each level's frontier.
    let mut frontiers: Vec<Vec<V>> = vec![vec![src]];
    let mut frontier = VertexSubset::single(n, src);
    let mut round = 0u64;
    loop {
        round += 1;
        let f = SigmaFn {
            sigma: &sigma,
            level: &level,
            round,
        };
        let mut next = edge_map(g, &mut frontier, &f, EdgeMapOpts::default());
        if next.is_empty() {
            break;
        }
        frontiers.push(next.as_sparse().to_vec());
        frontier = next;
    }

    // Backward phase: pull dependencies level by level.
    let levels: Vec<u64> = level.iter().map(|l| l.load(Ordering::Relaxed)).collect();
    let sigmas: Vec<f64> = sigma
        .iter()
        .map(|s| f64::from_bits(s.load(Ordering::Relaxed)))
        .collect();
    let mut delta = vec![0f64; n];
    for l in (0..frontiers.len().saturating_sub(1)).rev() {
        let frontier = &frontiers[l];
        let dp = par::SendPtr(delta.as_mut_ptr());
        let levels_ref = &levels;
        let sigmas_ref = &sigmas;
        // Each vertex of level l is written by exactly one task; reads only
        // touch level l+1, whose values are already final.
        par::par_for(0, frontier.len(), |i| {
            let u = frontier[i];
            let mut acc = 0f64;
            g.for_each_edge(u, |v, _| {
                if levels_ref[v as usize] == l as u64 + 1 {
                    // SAFETY: level-(l+1) entries are read-only in this pass.
                    let dv = unsafe { *dp.add(v as usize) };
                    acc += sigmas_ref[u as usize] / sigmas_ref[v as usize] * (1.0 + dv);
                }
            });
            // SAFETY: distinct u per iteration; u is at level l.
            unsafe { *dp.add(u as usize) = acc };
        });
    }
    delta[src as usize] = 0.0;
    delta
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq;
    use sage_graph::{gen, CompressedCsr};

    fn close(a: &[f64], b: &[f64]) {
        assert_eq!(a.len(), b.len());
        for i in 0..a.len() {
            assert!(
                (a[i] - b[i]).abs() < 1e-6 * (1.0 + a[i].abs()),
                "index {i}: {} vs {}",
                a[i],
                b[i]
            );
        }
    }

    #[test]
    fn matches_brandes_on_rmat() {
        let g = gen::rmat(9, 8, gen::RmatParams::default(), 21);
        close(&betweenness(&g, 0), &seq::brandes(&g, 0));
    }

    #[test]
    fn matches_brandes_on_grid() {
        let g = gen::grid(12, 17);
        close(&betweenness(&g, 5), &seq::brandes(&g, 5));
    }

    #[test]
    fn matches_brandes_on_compressed() {
        let csr = gen::rmat(8, 10, gen::RmatParams::web(), 23);
        let g = CompressedCsr::from_csr(&csr, 64);
        close(&betweenness(&g, 2), &seq::brandes(&csr, 2));
    }

    #[test]
    fn path_dependencies() {
        let g = gen::path(6);
        let d = betweenness(&g, 0);
        assert_eq!(d[1], 4.0);
        assert_eq!(d[5], 0.0);
    }
}
