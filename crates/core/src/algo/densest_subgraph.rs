//! (2(1+ε))-approximate densest subgraph (§4.3.4), after Charikar \[28\] /
//! Bahmani et al.
//!
//! Repeatedly remove every vertex of induced degree `< 2(1+ε)·ρ(S)`; the
//! densest prefix over all rounds is a `2(1+ε)` approximation. Removals are
//! processed with the same histogram machinery as k-core; `O(log n)` rounds
//! for constant ε, `O(m)` work.

use sage_graph::{Graph, V};
use sage_parallel as par;
use std::sync::atomic::{AtomicU64, Ordering};

/// Result of the densest-subgraph approximation.
pub struct DensestResult {
    /// Density `|E(S)| / |S|` of the best subgraph found.
    pub density: f64,
    /// The vertices of that subgraph.
    pub subset: Vec<V>,
    /// Peeling rounds executed.
    pub rounds: usize,
}

/// Run the peeling approximation with parameter `eps` (the paper evaluates
/// `eps = 0.001`, producing subgraphs of similar density to Charikar's exact
/// 2-approximation, §5.3).
pub fn densest_subgraph<G: Graph>(g: &G, eps: f64) -> DensestResult {
    assert!(eps > 0.0);
    par::in_pool(|| peel(g, eps))
}

fn peel<G: Graph>(g: &G, eps: f64) -> DensestResult {
    let n = g.num_vertices();
    let degrees: Vec<AtomicU64> = (0..n)
        .map(|v| AtomicU64::new(g.degree(v as V) as u64))
        .collect();
    // Round in which each vertex was removed (u32::MAX = still alive).
    let mut removed_round = vec![u32::MAX; n];
    let mut alive: Vec<V> = (0..n as V).collect();
    let mut m_alive = g.num_edges() as u64;
    // Dense scratch is reused across rounds (and across queries, via the
    // current QueryArena); see the histogram module docs.
    let mut histogram = crate::arena::fetch_histogram();

    let mut best_density = 0.0f64;
    let mut best_round = 0u32;
    let mut round = 0u32;
    while !alive.is_empty() {
        let density = m_alive as f64 / 2.0 / alive.len() as f64;
        if density > best_density {
            best_density = density;
            best_round = round;
        }
        if m_alive == 0 {
            // Only isolated vertices remain; nothing denser can follow.
            for &v in &alive {
                removed_round[v as usize] = round;
            }
            round += 1;
            break;
        }
        let threshold = 2.0 * (1.0 + eps) * density;
        let alive_ref: &[V] = &alive;
        let deg_ref = &degrees;
        let to_remove: Vec<V> = par::pack_index(alive.len(), |i| {
            (deg_ref[alive_ref[i] as usize].load(Ordering::Relaxed) as f64) < threshold
        })
        .into_iter()
        .map(|i| alive[i as usize])
        .collect();
        debug_assert!(
            !to_remove.is_empty(),
            "a vertex below 2(1+eps)·avg degree always exists"
        );
        for &v in &to_remove {
            removed_round[v as usize] = round;
        }
        // Decrement surviving neighbors via histogram; track removed edges.
        let rm: &[V] = &to_remove;
        let rr: &[u32] = &removed_round;
        let out_deg_removed = par::reduce_add(0, rm.len(), |i| {
            deg_ref[rm[i] as usize].load(Ordering::Relaxed)
        });
        let total_keys = par::reduce_add(0, rm.len(), |i| g.degree(rm[i]) as u64) as usize;
        let counts = histogram.count(rm.len(), total_keys, n, |i, emit| {
            g.for_each_edge(rm[i], |u, _| {
                if rr[u as usize] == u32::MAX {
                    emit(u);
                }
            });
        });
        sage_nvram::meter::aux_read(histogram.last_work());
        // Histogram keys are distinct: decrement in parallel.
        let counts_ref: &[(u32, u32)] = &counts;
        let decrements = par::reduce_add(0, counts.len(), |i| {
            let (u, c) = counts_ref[i];
            let d = degrees[u as usize].load(Ordering::Relaxed);
            degrees[u as usize].store(d.saturating_sub(c as u64), Ordering::Relaxed);
            c as u64
        });
        // Directed edges removed: those out of R plus those into R from
        // survivors (the within-R ones are inside out_deg_removed already).
        m_alive -= out_deg_removed + decrements;
        alive = par::pack_index(alive_ref.len(), |i| rr[alive_ref[i] as usize] == u32::MAX)
            .into_iter()
            .map(|i| alive_ref[i as usize])
            .collect();
        round += 1;
    }
    crate::arena::release_histogram(histogram);
    let subset: Vec<V> = par::pack_index(n, |v| removed_round[v] >= best_round);
    DensestResult {
        density: best_density,
        subset,
        rounds: round as usize,
    }
}

/// Exact density of an induced subgraph (test / verification helper).
pub fn density_of<G: Graph>(g: &G, subset: &[V]) -> f64 {
    if subset.is_empty() {
        return 0.0;
    }
    let mut inset = vec![false; g.num_vertices()];
    for &v in subset {
        inset[v as usize] = true;
    }
    let directed = par::reduce_add(0, subset.len(), |i| {
        let mut c = 0u64;
        g.for_each_edge(subset[i], |u, _| {
            if inset[u as usize] {
                c += 1;
            }
        });
        c
    });
    directed as f64 / 2.0 / subset.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq;
    use sage_graph::gen;

    #[test]
    fn reported_density_matches_subset() {
        let g = gen::rmat(9, 8, gen::RmatParams::default(), 121);
        let r = densest_subgraph(&g, 0.1);
        let actual = density_of(&g, &r.subset);
        assert!(
            (actual - r.density).abs() < 1e-9,
            "reported {} vs actual {actual}",
            r.density
        );
    }

    #[test]
    fn meets_coreness_lower_bound() {
        // The kmax-core has density >= kmax/2, so the output must reach
        // kmax / (2 (1+eps)).
        let g = gen::rmat(9, 10, gen::RmatParams::default(), 123);
        let eps = 0.1;
        let r = densest_subgraph(&g, eps);
        let kmax = *seq::coreness(&g).iter().max().unwrap() as f64;
        assert!(
            r.density >= kmax / (2.0 * (1.0 + eps)) - 1e-9,
            "density {} below bound {}",
            r.density,
            kmax / (2.0 * (1.0 + eps))
        );
    }

    #[test]
    fn planted_clique_is_found() {
        // Sparse background + K20: the clique dominates density.
        let mut edges: Vec<(V, V)> = (0..500u32).map(|i| (i, (i + 1) % 500)).collect();
        for i in 0..20u32 {
            for j in (i + 1)..20 {
                edges.push((500 + i, 500 + j));
            }
        }
        let g = sage_graph::build_csr(
            sage_graph::EdgeList::new(520, edges),
            sage_graph::BuildOptions::default(),
        );
        let r = densest_subgraph(&g, 0.05);
        // K20 density = 9.5.
        assert!(r.density >= 9.5 / (2.0 * 1.05), "density {}", r.density);
        // The found subset should be mostly clique vertices.
        let clique_members = r.subset.iter().filter(|&&v| v >= 500).count();
        assert!(
            clique_members >= 18,
            "only {clique_members} clique vertices found"
        );
    }

    #[test]
    fn whole_graph_when_regular() {
        let g = gen::cycle(100);
        let r = densest_subgraph(&g, 0.1);
        assert!(
            (r.density - 1.0).abs() < 0.01,
            "cycle density {}",
            r.density
        );
    }

    #[test]
    fn zero_nvram_writes() {
        use sage_nvram::Meter;
        let g = gen::rmat(8, 8, gen::RmatParams::default(), 125);
        let before = Meter::global().snapshot();
        let _ = densest_subgraph(&g, 0.1);
        assert_eq!(Meter::global().snapshot().since(&before).graph_write, 0);
    }
}
