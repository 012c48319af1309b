//! Sharding-equivalence property tests for the serving layer: on random
//! graphs, every [`Query`] variant must produce a *bitwise identical*
//! [`Response`] whether the snapshot is one [`Csr`](sage::Csr) or a
//! [`ShardedCsr`] of plain or compressed shards, started through
//! `start_sharded` or `start` alike, batched or unbatched, at shard counts
//! 1, 2, and 7. Results on more than one shard additionally carry one
//! per-shard traffic breakdown per shard (none on one shard), whose
//! invariants — `graph_write == 0`, per-shard snapshots never summing past
//! the query's attributed total, and per-shard graph reads summing to it
//! exactly — are asserted on every served query.

use proptest::prelude::*;
use sage::serve::BatchPolicy;
use sage::{
    build_csr, BuildOptions, EdgeList, Graph, GraphService, MeterSnapshot, Query, QueryResult,
    Response, ServiceBuilder, ServiceConfig, Sharded, ShardedCsr, V,
};
use std::time::Duration;

/// Strategy: vertex count and a random symmetric edge list.
fn arb_edges(max_n: usize, max_m: usize) -> impl Strategy<Value = (usize, Vec<(V, V)>)> {
    (2..max_n).prop_flat_map(move |n| {
        proptest::collection::vec((0..n as V, 0..n as V), 0..max_m)
            .prop_map(move |edges| (n, edges))
    })
}

/// One of every query class, plus enough BFS point queries that a batching
/// scheduler has material to coalesce.
fn query_mix(n: usize) -> Vec<Query> {
    let pick = |k: usize| (k % n) as V;
    let mut queries: Vec<Query> = (0..8).map(|i| Query::Bfs { src: pick(i * 7) }).collect();
    queries.push(Query::PageRank {
        iters: 5,
        damping: sage_serve::DEFAULT_DAMPING,
        vertices: vec![pick(0), pick(3), pick(n - 1)],
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

/// PSAM + attribution invariants every served query must satisfy, sharded
/// or not: the immutable snapshot is never written, and when a per-shard
/// breakdown is present it never sums past the query's own traffic (the
/// difference being residual DRAM work outside any shard) — and, since the
/// storage layer reads every graph word inside some shard, its graph reads
/// sum to the query's exactly.
fn check_result(r: &QueryResult) -> Result<Response, TestCaseError> {
    prop_assert_eq!(r.traffic.graph_write, 0, "served query wrote the graph");
    if !r.per_shard.is_empty() {
        let sum = r
            .per_shard
            .iter()
            .fold(MeterSnapshot::default(), |acc, s| acc.plus(s));
        prop_assert_eq!(sum.graph_read, r.traffic.graph_read);
        prop_assert!(sum.graph_write <= r.traffic.graph_write);
        prop_assert!(sum.aux_read <= r.traffic.aux_read);
        prop_assert!(sum.aux_write <= r.traffic.aux_write);
    }
    Ok(r.response.clone())
}

fn config(queries: usize, max_batch: usize) -> ServiceConfig {
    ServiceConfig {
        workers: 2,
        queue_capacity: queries.max(1),
        batch: BatchPolicy {
            max_batch,
            max_linger: Duration::from_micros(100),
        },
        ..Default::default()
    }
}

/// Serve `queries` through `service`, submit-then-redeem (so batches can
/// form), responses in submission order. Every successful result carries one
/// per-shard breakdown per shard when the snapshot has more than one shard,
/// and none when it has one.
fn serve<G: Sharded + Send + Sync + 'static>(
    service: GraphService<G>,
    queries: &[Query],
) -> Result<Vec<Response>, TestCaseError> {
    let shards = service.snapshot().num_shards();
    let want = if shards > 1 { shards } else { 0 };
    let tickets: Vec<_> = queries.iter().map(|q| service.submit(q.clone())).collect();
    tickets
        .into_iter()
        .map(|t| {
            let r = t.wait();
            if !matches!(r.response, Response::Failed { .. }) {
                prop_assert_eq!(r.per_shard.len(), want, "{:?}", r.response);
            }
            check_result(&r)
        })
        .collect()
}

/// The (shard count × representation × batching × builder entry) sharded
/// configurations all answer the identical query mix bitwise-equal to the
/// monolithic service.
fn check_sharded_equivalence(n: usize, edges: Vec<(V, V)>) -> Result<(), TestCaseError> {
    let csr = || build_csr(EdgeList::new(n, edges.clone()), BuildOptions::default());
    let g = csr();
    let queries = query_mix(g.num_vertices());
    let builder = |max_batch| ServiceBuilder::from_config(config(queries.len(), max_batch));

    let baseline = serve(builder(1).start(csr()), &queries)?;

    for k in [1usize, 2, 7] {
        let plain = || ShardedCsr::from_csr(&g, k);
        // Hybrid cutoff 8 forces real hybrid regions even at proptest scales.
        let compressed = ShardedCsr::from_csr_compressed(&g, k, 64, 8);
        prop_assert!(plain().num_shards() <= k);

        let unbatched = serve(builder(1).start_sharded(plain()), &queries)?;
        let batched = serve(builder(32).start_sharded(plain()), &queries)?;
        let batched_comp = serve(builder(32).start_sharded(compressed), &queries)?;
        let started = serve(builder(1).start(plain()), &queries)?;
        let started_batched = serve(builder(32).start(plain()), &queries)?;
        prop_assert_eq!(&baseline, &unbatched, "unbatched sharded k={}", k);
        prop_assert_eq!(&baseline, &batched, "batched sharded k={}", k);
        prop_assert_eq!(&baseline, &batched_comp, "compressed sharded k={}", k);
        prop_assert_eq!(&baseline, &started, "unbatched start k={}", k);
        prop_assert_eq!(&baseline, &started_batched, "batched start k={}", k);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn sharded_serving_matches_monolithic(input in arb_edges(64, 300)) {
        let (n, edges) = input;
        check_sharded_equivalence(n, edges)?;
    }
}
