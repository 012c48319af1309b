//! Representation-equivalence property tests for the serving layer: on
//! random graphs, every [`Query`] variant must produce a *bitwise identical*
//! [`Response`] whether the snapshot is a plain [`Csr`](sage::Csr) or a
//! [`CompressedCsr`] (hybrid encoding included), whether the scheduler
//! batches compatible queries or runs each alone, and whether it dispatches
//! by priority class or in arrival (FIFO) order. PageRank ranks are `f64`s
//! and are compared exactly — the engine's per-vertex neighbor sums are
//! order-deterministic across representations at these scales, and the test
//! pins that contract.

use proptest::prelude::*;
use sage::graph::compressed::HYBRID_DISABLED;
use sage::serve::{BatchPolicy, SchedPolicy};
use sage::{
    build_csr, BuildOptions, CompressedCsr, EdgeList, Graph, Query, Response, ServiceBuilder, V,
};
use std::time::Duration;

/// Strategy: vertex count and a random symmetric edge list.
fn arb_edges(max_n: usize, max_m: usize) -> impl Strategy<Value = (usize, Vec<(V, V)>)> {
    (2..max_n).prop_flat_map(move |n| {
        proptest::collection::vec((0..n as V, 0..n as V), 0..max_m)
            .prop_map(move |edges| (n, edges))
    })
}

/// One of every query class, plus enough BFS point queries (and a second
/// same-parameter PageRank) that a batching scheduler has material to
/// coalesce.
fn query_mix(n: usize) -> Vec<Query> {
    let pick = |k: usize| (k % n) as V;
    let mut queries: Vec<Query> = (0..8).map(|i| Query::Bfs { src: pick(i * 7) }).collect();
    queries.push(Query::PageRank {
        iters: 5,
        damping: sage_serve::DEFAULT_DAMPING,
        vertices: vec![pick(0), pick(3), pick(n - 1)],
    });
    // Same (iters, damping): the batching arms may answer both from one run.
    queries.push(Query::PageRank {
        iters: 5,
        damping: sage_serve::DEFAULT_DAMPING,
        vertices: vec![pick(1), pick(n / 2)],
    });
    queries.push(Query::KCore {
        k: None,
        vertices: vec![pick(1), pick(n / 2)],
    });
    queries.push(Query::Connected {
        u: pick(0),
        v: pick(n - 1),
    });
    queries.push(Query::Neighborhood {
        src: pick(2),
        hops: 1,
    });
    queries.push(Query::Neighborhood {
        src: pick(5),
        hops: 2,
    });
    queries
}

/// Serve `queries` over `g` with `builder`'s scheduling policy,
/// submit-then-redeem (so batches can form), and return the responses in
/// submission order.
fn serve_all<G: Graph + Send + Sync + 'static>(
    g: G,
    queries: &[Query],
    builder: ServiceBuilder,
    max_batch: usize,
) -> Vec<Response> {
    let service = builder
        .workers(2)
        .queue_capacity(queries.len().max(1))
        .batch(BatchPolicy {
            max_batch,
            max_linger: Duration::from_micros(100),
        })
        .start(g);
    let tickets: Vec<_> = queries.iter().map(|q| service.submit(q.clone())).collect();
    tickets
        .into_iter()
        .map(|t| {
            let r = t.wait();
            assert_eq!(r.traffic.graph_write, 0, "served query wrote the graph");
            r.response
        })
        .collect()
}

/// The (representation × batching × dispatch order) service configurations
/// answer the identical query mix with bitwise-equal responses. (A plain
/// function so the `proptest!` block below stays within the macro recursion
/// limit.)
fn check_equivalence(n: usize, edges: Vec<(V, V)>) -> Result<(), TestCaseError> {
    let csr = || build_csr(EdgeList::new(n, edges.clone()), BuildOptions::default());
    let g = csr();
    let queries = query_mix(g.num_vertices());
    // Hybrid cutoff 8 forces real hybrid regions even at proptest
    // scales; the default is exercised by the bench suite.
    let hybrid = || CompressedCsr::from_csr_with(&g, 64, 8);
    let varint_only = CompressedCsr::from_csr_with(&g, 64, HYBRID_DISABLED);

    let priority = ServiceBuilder::new;
    let fifo = || ServiceBuilder::new().sched(SchedPolicy::fifo());
    let unbatched_comp = serve_all(hybrid(), &queries, priority(), 1);
    let batched_comp = serve_all(hybrid(), &queries, priority(), 32);
    let batched_varint = serve_all(varint_only, &queries, priority(), 32);
    let batched_csr = serve_all(csr(), &queries, priority(), 32);
    let fifo_batched_csr = serve_all(csr(), &queries, fifo(), 32);
    let baseline = serve_all(g, &queries, priority(), 1);
    prop_assert_eq!(&baseline, &batched_csr);
    prop_assert_eq!(&baseline, &fifo_batched_csr);
    prop_assert_eq!(&baseline, &unbatched_comp);
    prop_assert_eq!(&baseline, &batched_comp);
    prop_assert_eq!(&baseline, &batched_varint);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn compressed_and_batched_serving_match_plain_csr(input in arb_edges(64, 300)) {
        let (n, edges) = input;
        check_equivalence(n, edges)?;
    }
}
