//! Facade-level smoke test: the `sage` crate alone must be enough to build a
//! graph, place it in emulated NVRAM (an `NvRegion` read-only mapping), run
//! BFS and PageRank through the re-exported API, and observe the paper's
//! zero-NVRAM-write discipline (§3) on the meter.

use sage::algo::{bfs, pagerank};
use sage::graph::io::{load_csr, write_csr, Placement};
use sage::{build_csr, gen, BuildOptions, Graph, MeterScope, NONE_V};

#[test]
fn bfs_and_pagerank_on_nvram_graph_never_write_nvram() {
    let path = std::env::temp_dir().join(format!("sage-facade-smoke-{}", std::process::id()));

    // Offline phase (DRAM): build and persist a scale-free input.
    let built = build_csr(
        gen::rmat_edges(12, 10, gen::RmatParams::default(), 7),
        BuildOptions::default(),
    );
    write_csr(&built, &path).expect("persist graph");
    drop(built);

    // Online phase: map the file read-only into an NvRegion.
    let g = load_csr(&path, Placement::Nvram).expect("map graph");
    assert!(g.on_nvram(), "graph must live in the read-only mapping");
    assert!(g.num_edges() > 0);

    let scope = MeterScope::new();
    scope.enter(|| {
        let parents = bfs::bfs(&g, 0);
        assert_eq!(parents[0], 0, "source is its own parent");
        let reached = parents.iter().filter(|&&p| p != NONE_V).count();
        assert!(reached > 1, "BFS must reach beyond the source");

        let pr = pagerank::pagerank(&g, 1e-9, 100);
        let sum: f64 = pr.ranks.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6, "PageRank must be a distribution");
    });

    // The paper's semi-asymmetric contract: analytics never write the graph.
    let traffic = scope.snapshot();
    assert_eq!(traffic.graph_write, 0, "NVRAM-resident graph was written");
    assert!(traffic.graph_read > 0, "runs must be metered");

    std::fs::remove_file(&path).expect("cleanup");
}
