//! Connectivity: LDD sample, then a lock-free union-find finish (§4.3.2).
//!
//! 1. **Sample.** One low-diameter decomposition ([`crate::algo::ldd`], the
//!    paper's sampler) groups the vertices into clusters, each inside one
//!    component. It settles every intra-cluster edge; in expectation `O(βm)`
//!    edges stay inter-cluster.
//! 2. **Finish.** A [`ConcurrentUnionFind`] starts from the cluster ids and
//!    **one** barrier-free parallel loop over the vertices unites the two
//!    clusters of every inter-cluster edge. When the graph is symmetric the
//!    loop skips the adjacency lists of the most frequent cluster (found from
//!    about a thousand seed-derived probes — on skewed graphs one cluster
//!    holds most of the edges): each edge into that cluster is still seen
//!    from its other endpoint. An asymmetric graph has no such guarantee, so
//!    nothing is skipped there and the result is its weak components.
//! 3. `labels[v] = find(v)`.
//!
//! `O(m)` expected work — two passes over the NVRAM edges, the LDD's and the
//! finish's (less the skipped cluster) — and `O(n)` words of small memory
//! whatever `m` is: the LDD state, the `n` `u32` parents of the forest, and
//! the labels. Nothing proportional to the inter-cluster edge count is ever
//! materialised, and the graph is never written. The cluster probes and the
//! union-find traffic are charged to the meter as `aux_read`/`aux_write`,
//! batched per vertex.

use crate::algo::ldd::ldd_clusters;
use sage_graph::{Graph, V};
use sage_nvram::meter;
use sage_parallel as par;
use sage_parallel::ConcurrentUnionFind;
use std::collections::HashMap;

/// Probes used to guess the most frequent cluster.
const SAMPLES: u64 = 1024;

/// The cluster id seen most often among [`SAMPLES`] seed-derived probes
/// (ties go to the larger id, so the choice is a function of the inputs).
fn most_frequent_cluster(cluster: &[V], seed: u64) -> Option<V> {
    let n = cluster.len() as u64;
    let probes = SAMPLES.min(n);
    let mut count: HashMap<V, u32> = HashMap::new();
    for i in 0..probes {
        *count
            .entry(cluster[(par::hash64_pair(seed, i) % n) as usize])
            .or_default() += 1;
    }
    meter::aux_read(probes);
    count
        .into_iter()
        .max_by_key(|&(c, k)| (k, c))
        .map(|(c, _)| c)
}

/// The finish: unite the clusters of every inter-cluster edge of `g` into a
/// forest that starts from `cluster` (a star per cluster, as [`ldd_clusters`]
/// returns it). With `keep_links`, also returns the graph edge `(v, u)` behind
/// every link the forest accepted — one per merge, so `#clusters −
/// #components` of them, which is what turns the cluster trees into a
/// spanning forest.
pub(crate) fn unite_clusters<G: Graph>(
    g: &G,
    cluster: &[V],
    seed: u64,
    keep_links: bool,
) -> (ConcurrentUnionFind, Vec<(V, V)>) {
    let forest = ConcurrentUnionFind::from_parents(cluster);
    meter::aux_write(cluster.len() as u64);
    // Only a symmetric graph shows an edge into the skipped cluster from
    // its other end as well.
    let skip = if g.is_symmetric() {
        most_frequent_cluster(cluster, seed)
    } else {
        None
    };
    let links = par::reduce_map(
        0,
        cluster.len(),
        0,
        Vec::new(),
        |vi| {
            let cv = cluster[vi];
            let mut made = Vec::new();
            if Some(cv) == skip {
                meter::aux_read(1);
                return made;
            }
            let (mut probes, mut unites, mut linked) = (1u64, 0u64, 0u64);
            g.for_each_edge(vi as V, |u, _| {
                probes += 1;
                let cu = cluster[u as usize];
                if cu != cv {
                    unites += 1;
                    if forest.unite(cv, cu) {
                        linked += 1;
                        if keep_links {
                            made.push((vi as V, u));
                        }
                    }
                }
            });
            // One cluster probe per edge end, two finds per unite, one
            // parent written per link.
            meter::aux_read(probes + 2 * unites);
            meter::aux_write(linked);
            made
        },
        |mut a, mut b| {
            a.append(&mut b);
            a
        },
    );
    (forest, links)
}

/// Connected-component labels: `labels[v]` is a vertex id shared by exactly
/// the vertices of `v`'s component.
pub fn connectivity<G: Graph>(g: &G, beta: f64, seed: u64) -> Vec<V> {
    let cluster = ldd_clusters(g, beta, seed);
    let (forest, _) = unite_clusters(g, &cluster, seed, false);
    drop(cluster);
    let n = forest.len() as u64;
    meter::aux_read(n);
    meter::aux_write(n);
    forest.labels()
}

/// Connected-component labels from one lock-free union-find pass over every
/// edge, with no LDD sample: each vertex unites itself with every neighbour
/// into one forest over the whole id space. The forest starts from
/// singletons and links larger roots under smaller, so `labels[v]` is the
/// minimum vertex id of `v`'s component (the partition is that of
/// [`connectivity`]; its representatives may differ). One pass over the
/// NVRAM edges and `O(n)` words of small memory: the `n` `u32` parents and
/// the labels.
pub fn connectivity_union_find<G: Graph>(g: &G) -> Vec<V> {
    let n = g.num_vertices();
    let forest = ConcurrentUnionFind::new(n);
    meter::aux_write(n as u64);
    let (unites, linked) = par::reduce_map(
        0,
        n,
        0,
        (0u64, 0u64),
        |v| {
            let (mut unites, mut linked) = (0u64, 0u64);
            g.for_each_edge(v as V, |u, _| {
                unites += 1;
                linked += forest.unite(v as V, u) as u64;
            });
            (unites, linked)
        },
        |a, b| (a.0 + b.0, a.1 + b.1),
    );
    // Two finds per unite, one parent written per link.
    meter::aux_read(2 * unites);
    meter::aux_write(linked);
    meter::aux_read(n as u64);
    meter::aux_write(n as u64);
    forest.labels()
}

/// Number of connected components implied by a labeling.
pub fn num_components(labels: &[V]) -> usize {
    let mut sorted = labels.to_vec();
    par::par_sort(&mut sorted);
    sorted.dedup();
    sorted.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq;
    use sage_graph::{gen, CompressedCsr, ShardedCsr};
    use sage_nvram::MeterScope;

    fn check_matches_union_find(g: &sage_graph::Csr, seed: u64) {
        let got = seq::canonicalize_labels(&connectivity(g, 0.2, seed));
        let want = seq::canonicalize_labels(&seq::components(g));
        assert_eq!(got, want);
    }

    #[test]
    fn matches_union_find_on_rmat() {
        let g = gen::rmat(10, 4, gen::RmatParams::default(), 41);
        check_matches_union_find(&g, 1);
    }

    #[test]
    fn matches_union_find_on_sparse_fragments() {
        // Very sparse: many components.
        let g = gen::erdos_renyi(4000, 1500, 5);
        check_matches_union_find(&g, 2);
    }

    #[test]
    fn two_cliques_two_components() {
        let g = gen::two_cliques(25);
        let labels = connectivity(&g, 0.2, 3);
        assert_eq!(num_components(&labels), 2);
        check_matches_union_find(&g, 3);
    }

    #[test]
    fn grid_single_component() {
        let g = gen::grid(30, 30);
        let labels = connectivity(&g, 0.2, 4);
        assert_eq!(num_components(&labels), 1);
    }

    #[test]
    fn compressed_graph_connectivity() {
        let csr = gen::rmat(9, 4, gen::RmatParams::default(), 47);
        let g = CompressedCsr::from_csr(&csr, 64);
        let got = seq::canonicalize_labels(&connectivity(&g, 0.2, 9));
        let want = seq::canonicalize_labels(&seq::components(&csr));
        assert_eq!(got, want);
    }

    #[test]
    fn edgeless_graph_all_singletons() {
        let g = sage_graph::build_csr(
            sage_graph::EdgeList::new(10, vec![]),
            sage_graph::BuildOptions::default(),
        );
        let labels = connectivity(&g, 0.2, 1);
        assert_eq!(labels, (0..10).collect::<Vec<V>>());
    }

    #[test]
    fn union_find_labels_are_component_minima_on_any_shard_count() {
        let g = gen::rmat(9, 6, gen::RmatParams::default(), 12);
        let want = seq::components(&g);
        let mut min_of = HashMap::new();
        for (v, &c) in want.iter().enumerate() {
            min_of.entry(c).or_insert(v as V);
        }
        let minima: Vec<V> = want.iter().map(|c| min_of[c]).collect();
        assert_eq!(connectivity_union_find(&g), minima);
        for k in [1, 3, 7] {
            let sharded = ShardedCsr::from_csr(&g, k);
            assert_eq!(connectivity_union_find(&sharded), minima, "k = {k}");
        }
    }

    #[test]
    fn union_find_reads_without_writing_the_graph() {
        let g = ShardedCsr::from_csr(&gen::rmat(9, 8, gen::RmatParams::default(), 2), 4);
        let scope = MeterScope::new();
        let _ = scope.enter(|| connectivity_union_find(&g));
        let d = scope.snapshot();
        assert_eq!(d.graph_write, 0);
        assert!(d.graph_read > 0);
    }
}
