//! The PSAM write contract, table-driven: every public algorithm entry point
//! in `sage_core::algo` runs on a plain `Csr`, on a `CompressedCsr` and on a
//! 3-shard `ShardedCsr`, each inside its own `MeterScope`, and must read the
//! graph (`graph_read > 0`) without writing it (`graph_write == 0`).
//!
//! A new entry point joins the contract by adding one row to
//! [`entry_points`].

use sage_core::algo::{
    bellman_ford, betweenness, bfs, biconnectivity, coloring, connectivity, densest_subgraph,
    kclique, kcore, ldd, maximal_matching, mis, msbfs, pagerank, set_cover, spanner,
    spanning_forest, triangle, wbfs, widest_path,
};
use sage_core::{EdgeMapOpts, SparseImpl};
use sage_graph::{build_csr, gen, BuildOptions, CompressedCsr, Csr, Graph, ShardedCsr};
use sage_nvram::MeterScope;

/// The three inputs every representation is built from.
struct Inputs<G> {
    /// Unweighted symmetric R-MAT.
    plain: G,
    /// The same shape with random integral weights (the SSSP family).
    weighted: G,
    /// A bipartite set-cover instance with 30 sets.
    cover: G,
}

const COVER_SETS: usize = 30;

fn inputs<G>(view: impl Fn(Csr) -> G) -> Inputs<G> {
    let weights = gen::rmat_edges(8, 8, gen::RmatParams::default(), 3).with_random_weights(3);
    Inputs {
        plain: view(gen::rmat(8, 8, gen::RmatParams::default(), 1)),
        weighted: view(build_csr(weights, BuildOptions::default())),
        cover: view(gen::set_cover_instance(COVER_SETS, 300, 3, 5)),
    }
}

type Run<'a> = Box<dyn Fn() + 'a>;

/// A row's run, its answer discarded.
fn run<'a, T>(f: impl Fn() -> T + 'a) -> Run<'a> {
    Box::new(move || {
        let _ = f();
    })
}

/// One row per public entry point. Inputs a validator needs (a BFS tree, a
/// cover, an LDD clustering) are computed here, outside the metered run.
fn entry_points<G: Graph>(i: &Inputs<G>) -> Vec<(&'static str, Run<'_>)> {
    let (g, wg, sc) = (&i.plain, &i.weighted, &i.cover);
    let n = g.num_vertices();
    let parents = bfs::bfs(g, 0);
    let clusters = ldd::ldd(g, 0.2, 1).cluster;
    let sets = set_cover::set_cover(sc, COVER_SETS, 0.1, 4).sets;
    let uniform = vec![1.0 / n as f64; n];
    let sparse = EdgeMapOpts {
        sparse_impl: SparseImpl::Sparse,
        ..EdgeMapOpts::default()
    };
    vec![
        (
            "bellman_ford",
            run(move || bellman_ford::bellman_ford(wg, 0)),
        ),
        ("betweenness", run(move || betweenness::betweenness(g, 0))),
        ("bfs", run(move || bfs::bfs(g, 0))),
        (
            "bfs_with_opts",
            run(move || bfs::bfs_with_opts(g, 0, sparse)),
        ),
        ("bfs_levels", run(move || bfs::bfs_levels(g, 0))),
        (
            "validate_bfs_tree",
            run(move || bfs::validate_bfs_tree(g, 0, &parents).unwrap()),
        ),
        (
            "biconnectivity",
            run(move || biconnectivity::biconnectivity(g, 1)),
        ),
        ("coloring", run(move || coloring::coloring(g, 1))),
        (
            "connectivity",
            run(move || connectivity::connectivity(g, 0.2, 1)),
        ),
        (
            "connectivity_union_find",
            run(move || connectivity::connectivity_union_find(g)),
        ),
        (
            "densest_subgraph",
            run(move || densest_subgraph::densest_subgraph(g, 0.1)),
        ),
        ("kclique_count", run(move || kclique::kclique_count(g, 4))),
        ("kcore", run(move || kcore::kcore(g))),
        (
            "kcore_bounded",
            run(move || kcore::kcore_bounded(g, Some(2))),
        ),
        (
            "kcore_multi",
            run(move || kcore::kcore_multi(g, None, &[vec![0, 1]])),
        ),
        ("ldd", run(move || ldd::ldd(g, 0.2, 1))),
        (
            "count_inter_cluster_edges",
            run(move || ldd::count_inter_cluster_edges(g, &clusters)),
        ),
        (
            "maximal_matching",
            run(move || maximal_matching::maximal_matching(g, 1)),
        ),
        ("mis", run(move || mis::mis(g, 1))),
        (
            "msbfs_levels",
            run(move || msbfs::msbfs_levels(g, &[0, 1, 2, 3])),
        ),
        ("pagerank", run(move || pagerank::pagerank(g, 1e-6, 50))),
        (
            "pagerank_multi",
            run(move || pagerank::pagerank_multi(g, 1e-6, 50, 0.85, &[vec![0]])),
        ),
        (
            "pagerank_iteration",
            run(move || pagerank::pagerank_iteration(g, &uniform)),
        ),
        (
            "set_cover",
            run(move || set_cover::set_cover(sc, COVER_SETS, 0.1, 4)),
        ),
        (
            "check_cover",
            run(move || set_cover::check_cover(sc, COVER_SETS, &sets).unwrap()),
        ),
        (
            "spanner",
            run(move || spanner::spanner(g, spanner::default_k(n), 1)),
        ),
        (
            "spanning_forest",
            run(move || spanning_forest::spanning_forest(g, 0.2, 1)),
        ),
        ("triangle_count", run(move || triangle::triangle_count(g))),
        ("wbfs", run(move || wbfs::wbfs(wg, 0))),
        (
            "widest_path_bf",
            run(move || widest_path::widest_path_bf(wg, 0)),
        ),
        (
            "widest_path_bucketed",
            run(move || widest_path::widest_path_bucketed(wg, 0)),
        ),
    ]
}

fn check<G: Graph>(repr: &str, inputs: Inputs<G>) {
    for (name, run) in entry_points(&inputs) {
        let scope = MeterScope::new();
        scope.enter(&run);
        let words = scope.snapshot();
        assert_eq!(words.graph_write, 0, "{repr}: {name} wrote the graph");
        assert!(words.graph_read > 0, "{repr}: {name} read no graph words");
    }
}

#[test]
fn every_entry_point_reads_but_never_writes_a_plain_csr() {
    check("csr", inputs(|g| g));
}

#[test]
fn every_entry_point_reads_but_never_writes_a_compressed_csr() {
    check("compressed", inputs(|g| CompressedCsr::from_csr(&g, 64)));
}

#[test]
fn every_entry_point_reads_but_never_writes_three_shards() {
    check("3 shards", inputs(|g| ShardedCsr::from_csr(&g, 3)));
}
