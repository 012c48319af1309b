//! Triangle counting (§4.3.4) after Shun–Tangwongsan \[88\].
//!
//! The graphFilter orients every edge from lower to higher degree-rank
//! (§4.3.4: "uses the graph filter structure to orient edges in the graph
//! from lower degree to higher degree"); each remaining directed edge `(u,v)`
//! contributes `|out(u) ∩ out(v)|` triangles, computed by merge intersection
//! over the filter's decode iterator (§4.2.3). The result carries the
//! counters behind Table 4: *intersection work* (merge steps) and *total
//! work* (edges decoded from blocks, including inactive ones).

use crate::filter::GraphFilter;
use sage_graph::{Graph, V};
use sage_parallel as par;
use std::sync::atomic::{AtomicU64, Ordering};

/// Result of triangle counting.
pub struct TriangleResult {
    /// Number of triangles.
    pub count: u64,
    /// Merge-intersection steps performed (Table 4's "Intersection Work").
    pub intersection_work: u64,
    /// Edges decoded from blocks, active or not (Table 4's "Total Work").
    pub total_work: u64,
}

/// Count triangles using a graphFilter with the given block size.
pub fn triangle_count<G: Graph>(g: &G) -> TriangleResult {
    let n = g.num_vertices();
    let rank = |v: V| (g.degree(v), v);
    let mut filter = GraphFilter::new(g, false);
    // Orient: keep (u, v) iff rank(u) < rank(v). Halves the filter (§4.3.4).
    filter.filter_edges(|u, v, _| rank(u) < rank(v));

    let count = AtomicU64::new(0);
    let intersection_work = AtomicU64::new(0);
    let total_work = AtomicU64::new(0);
    let filter_ref = &filter;
    par::par_for_grain(0, n, 16, |ui| {
        let u = ui as V;
        if filter_ref.degree(u) == 0 {
            return;
        }
        let mut out_u: Vec<V> = Vec::with_capacity(filter_ref.degree(u));
        let mut decoded = filter_ref.active_neighbors_into(u, &mut out_u) as u64;
        let mut out_v: Vec<V> = Vec::new();
        let mut local = 0u64;
        let mut steps = 0u64;
        for &v in &out_u {
            decoded += filter_ref.active_neighbors_into(v, &mut out_v) as u64;
            // Merge intersection of sorted out-lists.
            let (mut i, mut j) = (0usize, 0usize);
            while i < out_u.len() && j < out_v.len() {
                steps += 1;
                match out_u[i].cmp(&out_v[j]) {
                    std::cmp::Ordering::Less => i += 1,
                    std::cmp::Ordering::Greater => j += 1,
                    std::cmp::Ordering::Equal => {
                        local += 1;
                        i += 1;
                        j += 1;
                    }
                }
            }
        }
        count.fetch_add(local, Ordering::Relaxed);
        intersection_work.fetch_add(steps, Ordering::Relaxed);
        total_work.fetch_add(decoded, Ordering::Relaxed);
    });
    TriangleResult {
        count: count.into_inner(),
        intersection_work: intersection_work.into_inner(),
        total_work: total_work.into_inner(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq;
    use sage_graph::{gen, CompressedCsr};

    #[test]
    fn counts_match_reference_on_rmat() {
        let g = gen::rmat(9, 8, gen::RmatParams::default(), 131);
        assert_eq!(triangle_count(&g).count, seq::triangle_count(&g));
    }

    #[test]
    fn complete_graph_count() {
        let g = gen::complete(10);
        assert_eq!(triangle_count(&g).count, 120); // C(10,3)
    }

    #[test]
    fn triangle_free_graphs() {
        assert_eq!(triangle_count(&gen::path(100)).count, 0);
        assert_eq!(triangle_count(&gen::star(100)).count, 0);
        assert_eq!(triangle_count(&gen::grid(10, 10)).count, 0);
    }

    #[test]
    fn compressed_graph_counts() {
        let csr = gen::rmat(8, 12, gen::RmatParams::web(), 133);
        let g = CompressedCsr::from_csr(&csr, 64);
        assert_eq!(triangle_count(&g).count, seq::triangle_count(&csr));
    }

    #[test]
    fn work_counters_are_sane() {
        let g = gen::rmat(8, 8, gen::RmatParams::default(), 135);
        let r = triangle_count(&g);
        assert!(r.intersection_work >= r.count);
        assert!(r.total_work as usize >= g.num_edges() / 2);
    }

    #[test]
    fn block_size_changes_total_work_not_count() {
        let base = gen::rmat(8, 16, gen::RmatParams::default(), 137);
        let mut counts = Vec::new();
        for bs in [64usize, 128, 256] {
            let c = CompressedCsr::from_csr(&base, bs);
            let r = triangle_count(&c);
            counts.push(r.count);
        }
        assert_eq!(counts[0], counts[1]);
        assert_eq!(counts[1], counts[2]);
        assert_eq!(counts[0], seq::triangle_count(&base));
    }
}
