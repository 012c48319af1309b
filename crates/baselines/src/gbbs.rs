//! GBBS-style baseline: mutation-based filtering and blocked traversal.
//!
//! GBBS's filtering algorithms "handle deleted edges by actually removing
//! them from the adjacency lists in the graph" (§4.2). [`MutableGraph`] is
//! that representation: an owned adjacency structure whose pack operations
//! physically rewrite neighbor arrays. Every rewritten word is reported to
//! the meter as a **graph write**, which is what makes these codes `Θ(ωW)`
//! in the PSAM (Table 1's `GBBS Work` column) and slow under libvmmalloc in
//! Figure 7 — while on DRAM they are perfectly fast.
//!
//! Traversal-only problems reuse the Sage algorithms with
//! `SparseImpl::Blocked`, which is exactly GBBS's `edgeMapBlocked`.

use sage_core::edge_map::{EdgeMapOpts, SparseImpl, Strategy};
use sage_graph::{Graph, V};
use sage_nvram::meter;
use sage_parallel as par;

/// The GBBS traversal configuration: direction-optimized with
/// `edgeMapBlocked` for the sparse direction.
pub fn gbbs_opts() -> EdgeMapOpts {
    EdgeMapOpts {
        strategy: Strategy::Auto,
        sparse_impl: SparseImpl::Blocked,
    }
}

/// An owned, mutable adjacency structure (the GBBS in-memory graph).
///
/// Under the paper's NVRAM configurations this structure lives in the large
/// memory, so [`MutableGraph::pack_edges`] — which rewrites adjacency
/// arrays — is charged as graph writes.
pub struct MutableGraph {
    adj: Vec<Vec<V>>,
    m: usize,
    block_size: usize,
    /// Inherited from the source graph; cleared by [`Self::pack_edges`],
    /// whose predicate may be one-sided (e.g. the rank orientation in
    /// triangle counting keeps `(u,v)` but drops `(v,u)`).
    symmetric: bool,
}

impl MutableGraph {
    /// Materialize a mutable copy of `g` (counted as one full graph write,
    /// matching GBBS's load-time copy into its own arrays).
    pub fn from_graph<G: Graph>(g: &G) -> Self {
        let n = g.num_vertices();
        let adj: Vec<Vec<V>> = par::par_map(n, |vi| {
            let mut list = Vec::with_capacity(g.degree(vi as V));
            g.for_each_edge(vi as V, |u, _| list.push(u));
            list
        });
        meter::graph_write(g.num_edges() as u64);
        Self {
            adj,
            m: g.num_edges(),
            block_size: g.block_size(),
            symmetric: g.is_symmetric(),
        }
    }

    /// Remove the edges failing `pred`, physically compacting each adjacency
    /// list (GBBS `filterEdges`/`packGraph`). Returns remaining edge count.
    ///
    /// Packing conservatively clears [`Graph::is_symmetric`]: the predicate
    /// may keep `(u,v)` while dropping `(v,u)` (the triangle-count rank
    /// orientation does exactly that), and a lying flag would let the dense
    /// (pull) `edge_map` direction traverse invalid in-edges.
    pub fn pack_edges(&mut self, pred: impl Fn(V, V) -> bool + Sync) -> usize {
        self.symmetric = false;
        par::par_for_slices(&mut self.adj, |vi, list| {
            list.retain(|&u| pred(vi as V, u));
            // Rewriting the list is a write to the (large-memory) graph.
            meter::graph_write(list.len() as u64);
        });
        let adj = &self.adj;
        self.m = par::reduce_add(0, adj.len(), |vi| adj[vi].len() as u64) as usize;
        self.m
    }

    /// Neighbor slice (reads are metered by the `Graph` impl callers use).
    pub fn neighbors(&self, v: V) -> &[V] {
        &self.adj[v as usize]
    }
}

impl Graph for MutableGraph {
    fn num_vertices(&self) -> usize {
        self.adj.len()
    }

    fn num_edges(&self) -> usize {
        self.m
    }

    fn degree(&self, v: V) -> usize {
        self.adj[v as usize].len()
    }

    fn is_weighted(&self) -> bool {
        false
    }

    fn is_symmetric(&self) -> bool {
        self.symmetric
    }

    fn block_size(&self) -> usize {
        self.block_size
    }

    fn for_each_edge<F: FnMut(V, u32)>(&self, v: V, mut f: F) {
        meter::graph_read(self.adj[v as usize].len() as u64 + 2);
        for &u in &self.adj[v as usize] {
            f(u, 0);
        }
    }

    fn for_each_edge_while<F: FnMut(V, u32) -> bool>(&self, v: V, mut f: F) {
        let mut read = 2u64;
        for &u in &self.adj[v as usize] {
            read += 1;
            if !f(u, 0) {
                break;
            }
        }
        meter::graph_read(read);
    }

    fn decode_block<F: FnMut(u32, V, u32)>(&self, v: V, blk: usize, mut f: F) {
        let list = &self.adj[v as usize];
        let lo = blk * self.block_size;
        let hi = ((blk + 1) * self.block_size).min(list.len());
        meter::graph_read((hi - lo) as u64 + 2);
        for (k, &u) in list[lo..hi].iter().enumerate() {
            f(k as u32, u, 0);
        }
    }
}

/// GBBS maximal matching: identical round structure to Sage's, but deletions
/// mutate the graph (graph writes) instead of clearing DRAM bits.
pub fn gbbs_maximal_matching<G: Graph>(g: &G, seed: u64) -> Vec<V> {
    let n = g.num_vertices();
    let mut mg = MutableGraph::from_graph(g);
    let mut mate = vec![sage_graph::NONE_V; n];
    while mg.num_edges() > 0 {
        let nominee: Vec<V> = par::par_map(n, |vi| {
            let v = vi as V;
            let mut best: Option<(u64, V)> = None;
            mg.for_each_edge(v, |u, _| {
                let (a, b) = if v < u { (v, u) } else { (u, v) };
                let key = (par::hash64_pair(seed ^ a as u64, b as u64), u);
                if best.map_or(true, |cur| key < cur) {
                    best = Some(key);
                }
            });
            best.map_or(sage_graph::NONE_V, |(_, u)| u)
        });
        let matched: Vec<V> = par::pack_index(n, |vi| {
            let u = nominee[vi];
            u != sage_graph::NONE_V && nominee[u as usize] == vi as V
        })
        .into_iter()
        .map(|i| i as V)
        .collect();
        for &v in &matched {
            mate[v as usize] = nominee[v as usize];
        }
        let mate_ref: &[V] = &mate;
        mg.pack_edges(|a, b| {
            mate_ref[a as usize] == sage_graph::NONE_V && mate_ref[b as usize] == sage_graph::NONE_V
        });
    }
    mate
}

/// GBBS triangle counting: orient by physically building the directed graph
/// (an `O(m)` graph write), then intersect.
pub fn gbbs_triangle_count<G: Graph>(g: &G) -> u64 {
    let mut mg = MutableGraph::from_graph(g);
    let rank = |v: V| (g.degree(v), v);
    mg.pack_edges(|u, v| rank(u) < rank(v));
    let n = mg.num_vertices();
    let count = std::sync::atomic::AtomicU64::new(0);
    let mg_ref = &mg;
    par::par_for_grain(0, n, 16, |ui| {
        let out_u = mg_ref.neighbors(ui as V);
        meter::graph_read(out_u.len() as u64);
        let mut local = 0u64;
        for &v in out_u {
            let out_v = mg_ref.neighbors(v);
            meter::graph_read(out_v.len() as u64);
            let (mut i, mut j) = (0usize, 0usize);
            while i < out_u.len() && j < out_v.len() {
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
        count.fetch_add(local, std::sync::atomic::Ordering::Relaxed);
    });
    count.into_inner()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sage_core::seq;
    use sage_graph::gen;
    use sage_nvram::{MeterScope, MeterSnapshot};

    /// Run `f` under a fresh meter scope: its traffic alone, whatever sibling
    /// tests charge to the global meter meanwhile.
    fn metered<R>(f: impl FnOnce() -> R) -> (R, MeterSnapshot) {
        let scope = MeterScope::new();
        let r = scope.enter(f);
        (r, scope.snapshot())
    }

    #[test]
    fn mutable_graph_mirrors_source() {
        let g = gen::rmat(8, 8, gen::RmatParams::default(), 1);
        let mg = MutableGraph::from_graph(&g);
        assert_eq!(mg.num_edges(), g.num_edges());
        for v in 0..g.num_vertices() as V {
            assert_eq!(mg.neighbors(v), g.neighbors(v));
        }
    }

    #[test]
    fn pack_edges_removes_and_counts_writes() {
        let g = gen::complete(20);
        let (remaining, d) = metered(|| {
            let mut mg = MutableGraph::from_graph(&g);
            mg.pack_edges(|u, v| u < v)
        });
        assert_eq!(remaining * 2, g.num_edges());
        assert!(
            d.graph_write > 0,
            "mutation must be charged as graph writes"
        );
    }

    #[test]
    fn gbbs_matching_valid_and_writes_graph() {
        let g = gen::rmat(8, 8, gen::RmatParams::default(), 3);
        let (mate, d) = metered(|| gbbs_maximal_matching(&g, 7));
        seq::check_maximal_matching(&g, &mate).unwrap();
        assert!(d.graph_write > 0);
    }

    #[test]
    fn gbbs_triangles_match_reference() {
        let g = gen::rmat(8, 8, gen::RmatParams::default(), 5);
        assert_eq!(gbbs_triangle_count(&g), seq::triangle_count(&g));
        assert_eq!(gbbs_triangle_count(&gen::complete(10)), 120);
    }

    #[test]
    fn sage_matching_is_write_free_where_gbbs_is_not() {
        let g = gen::rmat(8, 8, gen::RmatParams::default(), 9);
        let (_, sage) = metered(|| sage_core::algo::maximal_matching::maximal_matching(&g, 1));
        let (_, gbbs) = metered(|| gbbs_maximal_matching(&g, 1));
        let (sage_writes, gbbs_writes) = (sage.graph_write, gbbs.graph_write);
        assert_eq!(sage_writes, 0);
        assert!(gbbs_writes > 0);
    }
}
