//! End-to-end integration: generate → persist → mmap as NVRAM → run all 18
//! problems → verify results and the zero-NVRAM-write invariant.

use sage_core::algo::*;
use sage_core::seq;
use sage_graph::io::{load_csr, write_csr, Placement};
use sage_graph::{build_csr, gen, BuildOptions, Graph, NONE_V, V};
use sage_nvram::MeterScope;

fn tmp(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("sage-e2e-{}-{}", std::process::id(), name));
    p
}

/// The full pipeline on an NVRAM-mapped weighted graph.
#[test]
fn all_problems_on_mmapped_graph_without_graph_writes() {
    let list = gen::rmat_edges(9, 8, gen::RmatParams::default(), 77).with_random_weights(77);
    let built = build_csr(list, BuildOptions::default());
    let path = tmp("full");
    write_csr(&built, &path).unwrap();
    let g = load_csr(&path, Placement::Nvram).unwrap();
    assert!(g.on_nvram());
    let n = g.num_vertices();

    let scope = MeterScope::new();
    scope.enter(|| {
        // Shortest paths.
        let parents = bfs::bfs(&g, 0);
        bfs::validate_bfs_tree(&g, 0, &parents).unwrap();
        let d_wbfs = wbfs::wbfs(&g, 0);
        assert_eq!(d_wbfs, seq::dijkstra(&built, 0));
        assert_eq!(bellman_ford::bellman_ford(&g, 0).unwrap(), d_wbfs);
        assert_eq!(
            widest_path::widest_path_bf(&g, 0),
            seq::widest_path(&built, 0)
        );
        let bc = betweenness::betweenness(&g, 0);
        let bc_want = seq::brandes(&built, 0);
        for i in 0..n {
            assert!((bc[i] - bc_want[i]).abs() < 1e-6 * (1.0 + bc_want[i].abs()));
        }
        let sp = spanner::spanner(&g, spanner::default_k(n), 1);
        assert!(!sp.is_empty());

        // Connectivity family.
        let labels = connectivity::connectivity(&g, 0.2, 5);
        assert_eq!(
            seq::canonicalize_labels(&labels),
            seq::canonicalize_labels(&seq::components(&built))
        );
        let forest = spanning_forest::spanning_forest(&g, 0.2, 5);
        let comps = connectivity::num_components(&labels);
        assert_eq!(forest.len(), n - comps);
        let b = biconnectivity::biconnectivity(&g, 5);
        assert_eq!(b.labels.len(), n);

        // Covering.
        let set = mis::mis(&g, 5);
        seq::check_maximal_independent_set(&built, &set).unwrap();
        let mate = maximal_matching::maximal_matching(&g, 5);
        seq::check_maximal_matching(&built, &mate).unwrap();
        let colors = coloring::coloring(&g, 5);
        seq::check_coloring(&built, &colors).unwrap();

        // Substructure.
        let cores = kcore::kcore(&g);
        assert_eq!(cores.coreness, seq::coreness(&built));
        let dense = densest_subgraph::densest_subgraph(&g, 0.1);
        assert!(dense.density > 0.0);
        let tri = triangle::triangle_count(&g);
        assert_eq!(tri.count, seq::triangle_count(&built));

        // Eigenvector.
        let pr = pagerank::pagerank(&g, 1e-8, 200);
        let sum: f64 = pr.ranks.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6);
    });

    // The PSAM contract held across the entire suite.
    let traffic = scope.snapshot();
    assert_eq!(
        traffic.graph_write, 0,
        "no Sage algorithm may write the graph"
    );
    assert!(traffic.graph_read > 0);

    std::fs::remove_file(&path).unwrap();
}

/// Set cover end-to-end on a bipartite instance.
#[test]
fn set_cover_pipeline() {
    let g = gen::set_cover_instance(50, 500, 3, 3);
    let r = set_cover::set_cover(&g, 50, 0.1, 11);
    set_cover::check_cover(&g, 50, &r.sets).unwrap();
    let greedy = seq::greedy_set_cover(&g, 50);
    assert!(r.sets.len() <= 3 * greedy.len() + 2);
}

/// Compressed and uncompressed graphs must agree on every problem output
/// that is deterministic given the same seed and structure.
#[test]
fn compressed_equals_uncompressed_outputs() {
    let csr = gen::rmat(9, 10, gen::RmatParams::web(), 33);
    let comp = sage_graph::CompressedCsr::from_csr(&csr, 64);

    assert_eq!(kcore::kcore(&csr).coreness, kcore::kcore(&comp).coreness);
    assert_eq!(
        triangle::triangle_count(&csr).count,
        triangle::triangle_count(&comp).count
    );
    assert_eq!(
        seq::canonicalize_labels(&connectivity::connectivity(&csr, 0.2, 4)),
        seq::canonicalize_labels(&connectivity::connectivity(&comp, 0.2, 4))
    );
    let (la, _) = bfs::bfs_levels(&csr, 0);
    let (lb, _) = bfs::bfs_levels(&comp, 0);
    assert_eq!(la, lb);
}

/// LDD-based algorithms compose across a graphFilter view.
#[test]
fn connectivity_over_filter_view() {
    let g = gen::rmat(9, 8, gen::RmatParams::default(), 44);
    let mut filter = sage_core::GraphFilter::new(&g, true);
    // Remove all edges incident to odd vertices: components = even-even edges.
    filter.filter_edges(|u, v, _| u % 2 == 0 && v % 2 == 0);
    let labels = connectivity::connectivity(&filter, 0.2, 6);
    // Verify against union-find over the filtered edge set.
    let mut uf = seq::UnionFind::new(g.num_vertices());
    for u in 0..g.num_vertices() as V {
        if u % 2 == 0 {
            for &v in g.neighbors(u) {
                if v % 2 == 0 {
                    uf.union(u, v);
                }
            }
        }
    }
    let want: Vec<V> = (0..g.num_vertices() as u32).map(|v| uf.find(v)).collect();
    assert_eq!(
        seq::canonicalize_labels(&labels),
        seq::canonicalize_labels(&want)
    );
}

/// A directed (asymmetrized) load still works for the push-only problems.
#[test]
fn weighted_roundtrip_through_disk_preserves_results() {
    let list = gen::rmat_edges(8, 8, gen::RmatParams::default(), 55).with_random_weights(55);
    let built = build_csr(list, BuildOptions::default());
    let path = tmp("weights");
    write_csr(&built, &path).unwrap();
    for placement in [Placement::Dram, Placement::Nvram] {
        let g = load_csr(&path, placement).unwrap();
        assert_eq!(wbfs::wbfs(&g, 3), seq::dijkstra(&built, 3));
    }
    std::fs::remove_file(&path).unwrap();
}

/// Unreachable-source corner cases across the suite.
#[test]
fn isolated_source_vertex() {
    let mut edges = vec![(1u32, 2u32), (2, 3)];
    edges.push((3, 1));
    let g = build_csr(sage_graph::EdgeList::new(5, edges), BuildOptions::default());
    // Vertex 0 and 4 are isolated.
    let parents = bfs::bfs(&g, 0);
    assert_eq!(parents[0], 0);
    assert!(parents[1..].iter().all(|&p| p == NONE_V));
    let bc = betweenness::betweenness(&g, 0);
    assert!(bc.iter().all(|&x| x == 0.0));
    let labels = connectivity::connectivity(&g, 0.2, 1);
    assert_eq!(connectivity::num_components(&labels), 3);
}
