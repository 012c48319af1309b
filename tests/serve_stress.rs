//! Meter-scope isolation under concurrent serving (the acceptance demo's
//! test twin): ≥ 64 mixed queries from ≥ 4 client threads over a single
//! shared `NvRegion`-mapped graph. Every per-query snapshot must be
//! internally consistent (zero NVRAM writes, non-trivial reads for
//! whole-graph queries) and the per-query sums must reconcile with the
//! global meter delta.

use sage::serve::{Query, Response, ServiceBuilder};
use sage::{algo, gen, Graph, Meter, MeterSnapshot, V};
use sage_graph::io::{load_csr, write_csr, Placement};
use std::sync::Arc;

#[test]
fn concurrent_queries_over_one_nvram_mapping() {
    // Build + persist once (offline phase), then map read-only as NVRAM.
    let dir = std::env::temp_dir().join(format!("sage-serve-stress-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("graph.sage");
    let built = gen::rmat(11, 16, gen::RmatParams::default(), 0xA11CE);
    write_csr(&built, &path).unwrap();
    drop(built);
    let g = load_csr(&path, Placement::Nvram).unwrap();
    assert!(g.on_nvram(), "the served snapshot must live in the mapping");

    let n = g.num_vertices();
    let live: Arc<Vec<V>> = Arc::new((0..n as V).filter(|&v| g.degree(v) > 0).collect());
    assert!(live.len() >= 64);
    let expected_kmax = algo::kcore::kcore(&g).kmax;
    let labels = algo::connectivity::connectivity(&g, 0.2, 3);
    let expected_components = algo::connectivity::num_components(&labels);

    // sage-lint: allow(global-meter) -- no test scope sees the workers; a `<=` bound cannot race
    let global_before = Meter::global().snapshot();
    let service = Arc::new(
        ServiceBuilder::new()
            .workers(4)
            .queue_capacity(128)
            .dram_budget_bytes(0) // auto: 4 × the largest single-query estimate
            .start(g),
    );

    // ≥ 4 clients × 16 queries = 64 mixed queries over the shared snapshot.
    let clients: Vec<_> = (0..4)
        .map(|c| {
            let service = Arc::clone(&service);
            let live = Arc::clone(&live);
            let labels = labels.clone();
            std::thread::spawn(move || {
                let pick = |k: u32| live[(k as usize) % live.len()];
                let mut results = Vec::new();
                for i in 0..16u32 {
                    let q = match (c + i) % 5 {
                        0 => Query::Bfs { src: pick(i * 17) },
                        1 => Query::PageRank {
                            iters: 4,
                            damping: sage_serve::DEFAULT_DAMPING,
                            vertices: vec![pick(i), pick(i + 9)],
                        },
                        2 => Query::KCore {
                            k: None,
                            vertices: vec![pick(i * 3)],
                        },
                        3 => Query::Connected {
                            u: pick(i),
                            v: pick(i * 29),
                        },
                        _ => Query::Neighborhood {
                            src: pick(i),
                            hops: 1 + (i % 2) as u8,
                        },
                    };
                    let label = q.label();
                    let r = service.query(q.clone());
                    // Spot-check correctness against precomputed answers.
                    match (&q, &r.response) {
                        (Query::KCore { .. }, Response::KCore { kmax, .. }) => {
                            assert_eq!(*kmax, expected_kmax)
                        }
                        (
                            Query::Connected { u, v },
                            Response::Connected {
                                connected,
                                components,
                            },
                        ) => {
                            assert_eq!(*connected, labels[*u as usize] == labels[*v as usize]);
                            assert_eq!(*components, expected_components);
                        }
                        (Query::Bfs { src }, Response::Bfs { levels, reached }) => {
                            assert_eq!(levels[*src as usize], 0);
                            assert!(*reached >= 1);
                        }
                        _ => {}
                    }
                    results.push((label, r));
                }
                results
            })
        })
        .collect();

    let mut all = Vec::new();
    for c in clients {
        all.extend(c.join().unwrap());
    }
    assert_eq!(all.len(), 64);

    // Per-query internal consistency + aggregation.
    let mut sum = MeterSnapshot::default();
    for (label, r) in &all {
        assert_eq!(
            r.traffic.graph_write, 0,
            "{label} #{} performed NVRAM writes",
            r.id
        );
        if matches!(label, &"bfs" | &"kcore" | &"connected" | &"pagerank") {
            assert!(
                r.traffic.graph_read > 0,
                "{label} #{} read no graph data",
                r.id
            );
        }
        sum = sum.plus(&r.traffic);
    }

    // Reconciliation: every scoped word was also counted globally, so the
    // per-query sum cannot exceed the global delta (other tests in this
    // binary may add unscoped traffic on top).
    // sage-lint: allow(global-meter) -- no test scope sees the workers; a `<=` bound cannot race
    let delta = Meter::global().snapshot().since(&global_before);
    assert!(sum.graph_read > 0);
    assert!(
        sum.graph_read <= delta.graph_read,
        "scoped graph reads {} exceed global delta {}",
        sum.graph_read,
        delta.graph_read
    );
    assert!(sum.aux_write <= delta.aux_write);
    assert!(sum.aux_read <= delta.aux_read);
    assert_eq!(sum.graph_write, 0, "nothing may write the mapping");

    let stats = service.stats();
    assert_eq!(stats.completed, 64);
    drop(service);
    std::fs::remove_file(&path).ok();
    std::fs::remove_dir(&dir).ok();
}
