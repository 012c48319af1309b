//! One function per table/figure of the paper, named after it (`fig1`,
//! `table3`, `numa`, ...). All output is printed in the row/series
//! structure of the original, with measured wall-clock times and
//! PSAM-projected costs.

use crate::catalog::{self, GraphType};
use crate::suite::Suite;
use crate::{print_table, run_sage_problem, timed, RunResult, PROBLEMS};
use sage_baselines::{galois_like, gbbs, semi_external};
use sage_core::edge_map::{EdgeMapOpts, SparseImpl, Strategy};
use sage_graph::{build_csr, BuildOptions, EdgeList, Graph, V};
use sage_nvram::{alloc_track, CostModel, MemConfig};
use sage_parallel as par;

/// Bipartite double cover used for set cover on a general graph: vertex `v`
/// becomes set `v` covering elements `n + u` for `u ∈ N(v)`.
pub fn double_cover<G: Graph>(g: &G) -> sage_graph::Csr {
    let n = g.num_vertices();
    let mut edges = Vec::with_capacity(g.num_edges());
    for v in 0..n as V {
        g.for_each_edge(v, |u, _| edges.push((v, n as V + u)));
    }
    build_csr(
        EdgeList::new(2 * n, edges),
        BuildOptions {
            symmetrize: true,
            block_size: 64,
        },
    )
    // NOTE: deliberately NOT marked DRAM-resident — the cover instance *is*
    // the input graph for this problem, so its reads are NVRAM traffic.
}

/// Run a problem the way GBBS would: `edgeMapBlocked` traversal and
/// graph-mutating filtering for the problems that delete edges.
fn run_gbbs_problem<G: Graph, GW: Graph>(
    name: &'static str,
    g: &G,
    gw: &GW,
    src: V,
    seed: u64,
) -> RunResult {
    match name {
        "BFS" => {
            let opts = EdgeMapOpts {
                strategy: Strategy::Auto,
                sparse_impl: SparseImpl::Blocked,
            };
            let (_, r) = timed(name, || sage_core::algo::bfs::bfs_with_opts(g, src, opts));
            r
        }
        "Maximal-Matching" => {
            let (_, r) = timed(name, || gbbs::gbbs_maximal_matching(g, seed));
            r
        }
        "Triangle-Count" => {
            let (_, r) = timed(name, || gbbs::gbbs_triangle_count(g));
            r
        }
        "Apx-Set-Cover" | "Biconnectivity" => {
            // GBBS filters by mutating: model the deletion traffic with a
            // mutable copy pass, then run the Sage logic for the answer.
            let (_, copy_cost) = timed(name, || {
                let mut mg = gbbs::MutableGraph::from_graph(g);
                mg.pack_edges(|_u, _v| true); // identity pack = one rewrite
            });
            let mut r = run_sage_problem(name, g, gw, src, seed);
            r.seconds += copy_cost.seconds;
            r.traffic.graph_write += copy_cost.traffic.graph_write;
            r.traffic.graph_read += copy_cost.traffic.graph_read;
            r
        }
        _ => run_sage_problem(name, g, gw, src, seed),
    }
}

/// Galois-like runs exist for the five problems Gill et al. report.
fn run_galois_problem<G: Graph, GW: Graph>(
    name: &'static str,
    g: &G,
    gw: &GW,
    src: V,
) -> Option<RunResult> {
    match name {
        "BFS" => Some(timed(name, || galois_like::bfs(g, src)).1),
        "Bellman-Ford" => Some(timed(name, || galois_like::sssp(gw, src)).1),
        "Connectivity" => Some(timed(name, || galois_like::connectivity(g)).1),
        "Betweenness" => Some(timed(name, || galois_like::betweenness(g, src)).1),
        "PageRank-Iter" => Some(timed(name, || galois_like::pagerank(g, f64::MAX, 1)).1),
        "PageRank" => Some(timed(name, || galois_like::pagerank(g, 1e-6, 100)).1),
        "k-Core" => Some(timed(name, || galois_like::kcore_single(g, 10)).1),
        _ => None,
    }
}

/// Memory-Mode DRAM hit rate estimate: the paper's machine has 8x as much
/// NVRAM as DRAM and Hyperlink2012 exceeds DRAM, so a direct-mapped cache
/// holding `C` bytes of a `W`-byte working set hits ≈ C/W of random accesses.
fn memmode_hit_rate(graph_bytes: usize) -> f64 {
    let dram = graph_bytes as f64 / 8.0;
    (dram / graph_bytes as f64).clamp(0.0, 0.95)
}

/// Figure 1: Sage (NVRAM) vs GBBS-MemMode vs Galois on the largest graph.
pub fn fig1() {
    crate::report::set_experiment("fig1");
    let suite = Suite::load();
    let g = suite.graphs.last().expect("suite");
    let model = CostModel::default();
    let hit = memmode_hit_rate(g.csr.size_bytes());
    println!(
        "\nFigure 1 — {} (n={}, m={}), MemMode hit-rate model {:.2}",
        g.name,
        g.csr.num_vertices(),
        g.m(),
        hit
    );
    let mut rows = Vec::new();
    for &name in &PROBLEMS {
        let sage = match &g.compressed {
            Some(c) => run_sage_problem(name, c, &g.weighted, 0, 42),
            None => run_sage_problem(name, &g.csr, &g.weighted, 0, 42),
        };
        let gbbs = run_gbbs_problem(name, &g.csr, &g.weighted, 0, 42);
        let galois = run_galois_problem(name, &g.csr, &g.weighted, 0);
        let sage_cost = MemConfig::SageAppDirect.project(&sage.traffic, &model);
        let gbbs_cost = MemConfig::MemoryMode { hit_rate: hit }.project(&gbbs.traffic, &model);
        let galois_cost = galois
            .as_ref()
            .map(|r| MemConfig::MemoryMode { hit_rate: hit }.project(&r.traffic, &model));
        let best = sage_cost
            .min(gbbs_cost)
            .min(galois_cost.unwrap_or(f64::MAX));
        rows.push((
            name.to_string(),
            vec![
                format!("{:.2}x", sage_cost / best),
                format!("{:.2}x", gbbs_cost / best),
                galois_cost.map_or("-".into(), |c| format!("{:.2}x", c / best)),
                format!("{:.3}s", sage.seconds),
            ],
        ));
    }
    print_table(
        "Fig 1: slowdown vs fastest (model-projected)",
        &["Sage(NVRAM)", "GBBS-MemMode", "Galois", "Sage wall"],
        &rows,
    );
}

/// Figure 2: n vs average degree over the published-statistics catalog.
pub fn fig2() {
    crate::report::set_experiment("fig2");
    println!(
        "\nFigure 2 — n vs m/n over {} catalog graphs",
        catalog::CATALOG.len()
    );
    let mut rows = Vec::new();
    for e in catalog::CATALOG {
        let kind = match e.kind {
            GraphType::Social => "social",
            GraphType::Web => "web",
            GraphType::Citation => "citation",
            GraphType::Road => "road",
        };
        rows.push((
            e.name.to_string(),
            vec![
                format!("{:.1e}", e.n as f64),
                format!("{:.1}", e.m as f64 / e.n as f64),
                kind.to_string(),
            ],
        ));
    }
    print_table("Fig 2: catalog", &["n", "m/n", "type"], &rows);
    let frac = catalog::fraction_with_avg_degree_at_least(10.0);
    println!(
        "fraction with davg >= 10: {:.0}% (paper: >90% of SNAP+LAW graphs with n > 1e6)",
        frac * 100.0
    );
}

/// Figure 6: self-relative speedup (T1 / Tp) per problem per graph.
pub fn fig6() {
    crate::report::set_experiment("fig6");
    let suite = Suite::load();
    let p = std::thread::available_parallelism()
        .map(|x| x.get())
        .unwrap_or(2);
    println!("\nFigure 6 — speedup T1/T{p} (App-Direct equivalent: mmap-loaded graphs)");
    // Measure all T1 runs, drop the 1-worker pool, then measure all Tp runs:
    // a live pool's idle workers would otherwise steal cycles from the pool
    // under measurement.
    let best_of = |pool: &par::Pool, name: &'static str, g: &crate::BenchGraph| -> f64 {
        (0..3)
            .map(|_| {
                pool.install(|| run_sage_problem(name, &g.csr, &g.weighted, 0, 42))
                    .seconds
            })
            .fold(f64::MAX, f64::min)
    };
    let mut t1s = Vec::new();
    {
        let pool1 = par::Pool::new(1);
        for g in &suite.graphs {
            for &name in &PROBLEMS {
                t1s.push(best_of(&pool1, name, g));
            }
        }
    }
    let mut rows = Vec::new();
    {
        let poolp = par::Pool::new(p);
        let mut i = 0;
        for g in &suite.graphs {
            for &name in &PROBLEMS {
                let tp = best_of(&poolp, name, g);
                let t1 = t1s[i];
                i += 1;
                rows.push((
                    format!("{}/{}", g.name, name),
                    vec![
                        format!("{:.4}s", t1),
                        format!("{:.4}s", tp),
                        format!("{:.2}x", t1 / tp.max(1e-9)),
                    ],
                ));
            }
        }
    }
    print_table("Fig 6: scalability", &["T1", "Tp", "speedup"], &rows);
    println!(
        "(this machine exposes {p} hardware threads; the paper's Figure 6 uses 96 — \
         speedups here are bounded by {p})"
    );
}

/// Figure 7: the four placement configurations on the ClueWeb-sized input.
pub fn fig7() {
    crate::report::set_experiment("fig7");
    let suite = Suite::load();
    let g = &suite.graphs[0];
    let model = CostModel::default();
    println!("\nFigure 7 — {} (fits in DRAM in the paper)", g.name);
    let mut rows = Vec::new();
    for &name in &PROBLEMS {
        let sage = run_sage_problem(name, &g.csr, &g.weighted, 0, 42);
        let gbbs = run_gbbs_problem(name, &g.csr, &g.weighted, 0, 42);
        let costs = [
            MemConfig::AllDram.project(&gbbs.traffic, &model), // GBBS-DRAM
            MemConfig::NvramHeap.project(&gbbs.traffic, &model), // GBBS-NVRAM (libvmmalloc)
            MemConfig::AllDram.project(&sage.traffic, &model), // Sage-DRAM
            MemConfig::SageAppDirect.project(&sage.traffic, &model), // Sage-NVRAM
        ];
        let best = costs.iter().cloned().fold(f64::MAX, f64::min);
        rows.push((
            name.to_string(),
            costs
                .iter()
                .map(|c| format!("{:.2}x", c / best))
                .chain([format!("{:.3}s", sage.seconds)])
                .collect(),
        ));
    }
    print_table(
        "Fig 7: slowdown vs fastest (model-projected)",
        &[
            "GBBS-DRAM",
            "GBBS-NVRAM",
            "Sage-DRAM",
            "Sage-NVRAM",
            "Sage wall",
        ],
        &rows,
    );
}

/// Table 1: measured PSAM work scaling and the zero-graph-write invariant.
pub fn table1() {
    crate::report::set_experiment("table1");
    let base = Suite::base_scale().min(13);
    let graphs: Vec<(sage_graph::Csr, sage_graph::Csr)> = (0..3)
        .map(|i| {
            let list = sage_graph::gen::rmat_edges(
                base + i,
                16,
                sage_graph::gen::RmatParams::default(),
                7,
            );
            let csr = build_csr(list, BuildOptions::default());
            let w = build_csr(
                sage_graph::gen::rmat_edges(
                    base + i,
                    16,
                    sage_graph::gen::RmatParams::default(),
                    7,
                )
                .with_random_weights(7),
                BuildOptions::default(),
            );
            (csr, w)
        })
        .collect();
    println!("\nTable 1 — measured PSAM work (graph reads + DRAM traffic), zero NVRAM writes");
    let mut rows = Vec::new();
    for &name in &PROBLEMS {
        let works: Vec<f64> = graphs
            .iter()
            .map(|(g, gw)| {
                let r = run_sage_problem(name, g, gw, 0, 42);
                assert_eq!(r.traffic.graph_write, 0, "{name} wrote the graph!");
                r.traffic.psam_work(4.0)
            })
            .collect();
        let m0 = graphs[0].0.num_edges() as f64;
        let m2 = graphs[2].0.num_edges() as f64;
        let exponent = (works[2] / works[0]).ln() / (m2 / m0).ln();
        rows.push((
            name.to_string(),
            vec![
                format!("{:.2e}", works[0]),
                format!("{:.2e}", works[1]),
                format!("{:.2e}", works[2]),
                format!("{:.2}", exponent),
                "0".to_string(),
            ],
        ));
    }
    print_table(
        "Table 1: work scaling (exponent ~1 = linear in m; TC ~1.5)",
        &["W(s)", "W(s+1)", "W(s+2)", "exp", "NVRAM writes"],
        &rows,
    );
}

/// Table 2: the input suite.
pub fn table2() {
    crate::report::set_experiment("table2");
    let suite = Suite::load();
    println!("\nTable 2 — synthetic inputs replacing the paper's datasets");
    let mut rows = Vec::new();
    for g in &suite.graphs {
        let stats = sage_graph::stats::GraphStats::of(&g.csr);
        let comp = g
            .compressed
            .as_ref()
            .map(|c| format!("{:.2}x", g.csr.size_bytes() as f64 / c.size_bytes() as f64))
            .unwrap_or_else(|| "-".into());
        rows.push((
            g.name.to_string(),
            vec![
                stats.n.to_string(),
                stats.m.to_string(),
                format!("{:.1}", stats.davg),
                stats.dmax.to_string(),
                comp,
            ],
        ));
    }
    print_table(
        "Table 2: inputs",
        &["n", "m", "davg", "dmax", "compression"],
        &rows,
    );
}

/// Table 3: semi-external streaming vs Sage.
pub fn table3() {
    crate::report::set_experiment("table3");
    let g = Suite::social();
    let dir = std::env::temp_dir().join(format!("sage-table3-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("grid.bin");
    semi_external::GridFile::build(&g.csr, 8, &path).expect("grid build");
    let engine = semi_external::GridEngine::open(&path).expect("grid open");
    println!(
        "\nTable 3 — semi-external (GridGraph-style, on-disk) vs Sage on {}",
        g.name
    );
    let mut rows = Vec::new();
    let (_, se_bfs) = timed("BFS", || engine.bfs(0).unwrap());
    let (_, sage_bfs) = timed("BFS", || sage_core::algo::bfs::bfs(&g.csr, 0));
    rows.push((
        "BFS".into(),
        vec![
            format!("{:.3}s", se_bfs.seconds),
            format!("{:.3}s", sage_bfs.seconds),
            format!("{:.1}x", se_bfs.seconds / sage_bfs.seconds.max(1e-9)),
        ],
    ));
    let (_, se_cc) = timed("CC", || engine.connectivity().unwrap());
    let (_, sage_cc) = timed("CC", || {
        sage_core::algo::connectivity::connectivity(&g.csr, 0.2, 1)
    });
    rows.push((
        "Connectivity".into(),
        vec![
            format!("{:.3}s", se_cc.seconds),
            format!("{:.3}s", sage_cc.seconds),
            format!("{:.1}x", se_cc.seconds / sage_cc.seconds.max(1e-9)),
        ],
    ));
    let n = g.csr.num_vertices();
    let degree: Vec<u32> = (0..n as V).map(|v| g.csr.degree(v) as u32).collect();
    let p0 = vec![1.0 / n as f64; n];
    let (_, se_pr) = timed("PR", || engine.pagerank_iteration(&p0, &degree).unwrap());
    let (_, sage_pr) = timed("PR", || {
        sage_core::algo::pagerank::pagerank_iteration(&g.csr, &p0)
    });
    rows.push((
        "PageRank-Iter".into(),
        vec![
            format!("{:.3}s", se_pr.seconds),
            format!("{:.3}s", sage_pr.seconds),
            format!("{:.1}x", se_pr.seconds / sage_pr.seconds.max(1e-9)),
        ],
    ));
    print_table(
        "Table 3: measured",
        &["semi-external", "Sage", "ratio"],
        &rows,
    );
    println!("bytes streamed from disk: {}", engine.bytes_read());
    println!("published reference rows (paper Table 3, Hyperlink2012):");
    println!("  FlashGraph BFS 208s | BC 595s | CC 461s | PR 2041s | TC 7818s");
    println!("  Mosaic     BFS 6.55s | CC 708s | PR(1) 21.6s | SSSP 8.6s (Hyperlink2014)");
    println!("  Sage       BFS 11.4s | BC 53.9s | CC 36.2s | SSSP 82.3s | PR 827s | TC 3529s");
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_dir(&dir);
}

/// Table 4: filter block size vs triangle-counting work.
pub fn table4() {
    crate::report::set_experiment("table4");
    let suite = Suite::load();
    let g = &suite.graphs[0];
    println!(
        "\nTable 4 — FB vs intersection/total work for Triangle Counting on {}",
        g.name
    );
    let mut rows = Vec::new();
    for fb in [64usize, 128, 256] {
        let compressed = sage_graph::CompressedCsr::from_csr(&g.csr, fb);
        let (res, run) = timed("TC", || {
            sage_core::algo::triangle::triangle_count(&compressed)
        });
        rows.push((
            format!("FB={fb}"),
            vec![
                format!("{:.3e}", res.intersection_work as f64),
                format!("{:.3e}", res.total_work as f64),
                format!("{}", res.count),
                format!("{:.3}s", run.seconds),
            ],
        ));
    }
    print_table(
        "Table 4 (paper: smaller FB => less total work => faster)",
        &["Intersect work", "Total work", "triangles", "time"],
        &rows,
    );
}

/// Table 5 + App D.2: DRAM usage of the three sparse traversals.
pub fn table5() {
    crate::report::set_experiment("table5");
    let suite = Suite::load();
    println!("\nTable 5 — DRAM usage and BFS time per sparse edgeMap implementation");
    let mut rows = Vec::new();
    for g in &suite.graphs {
        // Sparse-only runs expose the intermediate-memory difference (the
        // dense direction needs no per-edge buffers, App D.2); the final row
        // is the production configuration.
        for (label, si, strat) in [
            (
                "edgeMapSparse (sparse-only)",
                SparseImpl::Sparse,
                Strategy::ForceSparse,
            ),
            (
                "edgeMapBlocked (sparse-only)",
                SparseImpl::Blocked,
                Strategy::ForceSparse,
            ),
            (
                "edgeMapChunked (sparse-only)",
                SparseImpl::Chunked,
                Strategy::ForceSparse,
            ),
            (
                "edgeMapChunked (direction-opt)",
                SparseImpl::Chunked,
                Strategy::Auto,
            ),
        ] {
            let opts = EdgeMapOpts {
                strategy: strat,
                sparse_impl: si,
            };
            alloc_track::reset_peak();
            let before = alloc_track::current_bytes();
            let (_, run) = timed("BFS", || {
                sage_core::algo::bfs::bfs_with_opts(&g.csr, 0, opts)
            });
            let peak = alloc_track::peak_bytes().saturating_sub(before);
            rows.push((
                format!("{}/{}", g.name, label),
                vec![
                    format!("{:.2} MB", peak as f64 / 1e6),
                    format!("{:.4}s", run.seconds),
                ],
            ));
        }
    }
    print_table(
        "Table 5: peak DRAM during BFS",
        &["DRAM peak", "time"],
        &rows,
    );
    println!(
        "(DRAM peaks require the harness binary's tracking allocator; zeros mean it is absent)"
    );
}

/// §5.2: the NUMA graph-layout microbenchmark.
pub fn numa() {
    crate::report::set_experiment("numa");
    let suite = Suite::load();
    let g = &suite.graphs[0];
    let n = g.csr.num_vertices();
    // The paper's microbenchmark: per-vertex neighbor count via full reduce.
    let (total, run) = timed("degree-count", || {
        par::reduce_add(0, n, |v| {
            let mut c = 0u64;
            g.csr.for_each_edge(v as V, |_, _| c += 1);
            c
        })
    });
    assert_eq!(total as usize, g.m());
    let model = CostModel::default();
    // Modeled relative times with all P threads vs replicated storage.
    // one-socket: only half the threads (one socket) can read locally.
    // cross-socket: half the threads pay the remote-read penalty, amplified
    // by the NVRAM-device thrashing the paper hypothesizes (§5.2: small
    // on-DIMM cache, 256 B lines); the thrash factor is calibrated so that
    // cross-socket/one-socket reproduces the paper's measured 3.76x.
    let replicated = 1.0;
    // one_socket = 2.0: only half the workers are available.
    let one_socket = 2.0;
    // Effective per-remote-read cost `x` solves 0.5 + 0.5x = one_socket·3.76,
    // decomposing into the 3.7x remote-read latency times a ~3.8x
    // device-thrash factor.
    let cross_socket = one_socket * (26.7 / 7.1);
    let remote_read_cost = (cross_socket - 0.5) / 0.5;
    let device_thrash = remote_read_cost / model.cross_socket;
    println!(
        "\n§5.2 — NUMA layout microbenchmark on {} (m = {})",
        g.name,
        g.m()
    );
    let paper = [
        ("one-socket", 7.1),
        ("interleaved threads", 26.7),
        ("replicated (Sage)", 4.3),
    ];
    let modeled = [one_socket, cross_socket, replicated];
    let rows: Vec<(String, Vec<String>)> = paper
        .iter()
        .zip(modeled)
        .map(|(&(name, secs), m)| {
            (
                name.to_string(),
                vec![
                    format!("{:.2}x", m),
                    format!("{secs}s"),
                    format!("{:.2}x", secs / 4.3),
                ],
            )
        })
        .collect();
    print_table(
        "NUMA layouts vs per-socket replication",
        &["modeled slowdown", "paper time", "paper slowdown"],
        &rows,
    );
    println!(
        "model: remote NVRAM read = {:.1}x local latency x {:.1}x device thrash \
         (calibrated from the paper's 26.7s/7.1s = 3.76x observation) = {:.1}x effective",
        model.cross_socket, device_thrash, remote_read_cost
    );
    println!("measured local degree-count wall time: {:.4}s", run.seconds);
}

/// Run everything (the `all` subcommand).
pub fn all() {
    table2();
    fig2();
    fig1();
    fig7();
    fig6();
    table1();
    table3();
    table4();
    table5();
    numa();
}
