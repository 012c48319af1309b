//! SLO-aware scheduling and result-cache acceptance tests.
//!
//! Property half: random query streams through the priority queue must keep
//! FIFO order *within* each priority class, and a fully aged backlog must
//! drain in global arrival order — which is exactly the "analytics wait is
//! bounded by its arrival backlog" guarantee (aging lifts a waiting
//! analytics query to the urgent tier instead of letting point lookups
//! starve it forever).
//!
//! Cache half: a repeat query must be answered bitwise-identically to the
//! fresh run with **zero** graph traffic (`graph_read == graph_write == 0`),
//! its metered `aux_read` must still reconcile with the global meter, and
//! bumping the snapshot epoch must invalidate every cached entry.

use proptest::prelude::*;
use sage::serve::queue::{Pending, RequestQueue};
use sage::{gen, GraphService, Meter, Query, Response, SchedPolicy, ServiceBuilder, Ticket};
use sage_serve::BatchPolicy;
use std::time::Duration;

fn query_of(code: u8, x: u8) -> Query {
    match code % 5 {
        0 => Query::Bfs { src: x as u32 % 50 },
        1 => Query::Connected {
            u: x as u32 % 50,
            v: (x as u32 + 1) % 50,
        },
        2 => Query::Neighborhood {
            src: x as u32 % 50,
            hops: 1 + (x % 2),
        },
        3 => Query::PageRank {
            iters: 5 + (x as usize % 3),
            damping: sage::DEFAULT_DAMPING,
            vertices: vec![x as u32 % 50],
        },
        _ => Query::KCore {
            k: if x % 2 == 0 { None } else { Some(x as u32 % 4) },
            vertices: vec![x as u32 % 50],
        },
    }
}

/// Drain the queue one request at a time under `sched`, returning
/// `(id, priority lane)` in dispatch order.
fn drain(queue: &RequestQueue, sched: &SchedPolicy) -> Vec<(u64, usize)> {
    let mut order = Vec::new();
    while queue.depth() > 0 {
        let p = queue.pop(sched).expect("queue not closed");
        order.push((p.id(), p.query().priority().index()));
    }
    order
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Strict priority mode may reorder *across* classes but never *within*
    /// one: per class, dispatch order equals arrival order.
    #[test]
    fn dispatch_is_fifo_within_each_class(stream in proptest::collection::vec((any::<u8>(), any::<u8>()), 1..48)) {
        let queue = RequestQueue::new(stream.len());
        for (id, &(code, x)) in stream.iter().enumerate() {
            queue.push(Pending::new(id as u64, query_of(code, x)).0);
        }
        let strict = SchedPolicy { priority: true, age_after: Duration::ZERO };
        let order = drain(&queue, &strict);
        prop_assert_eq!(order.len(), stream.len());
        for lane in 0..sage::Priority::COUNT {
            let ids: Vec<u64> = order.iter().filter(|&&(_, l)| l == lane).map(|&(id, _)| id).collect();
            prop_assert!(ids.windows(2).all(|w| w[0] < w[1]),
                "class {} dispatched out of arrival order: {:?}", lane, ids);
        }
    }

    /// Once every head has aged past `2·age_after`, effective priorities are
    /// all equal and the backlog drains in *global* arrival order — an
    /// analytics query's wait is bounded by the backlog present at its
    /// arrival, no matter how many point lookups arrived with it.
    #[test]
    fn aged_backlog_drains_in_arrival_order(stream in proptest::collection::vec((any::<u8>(), any::<u8>()), 1..48)) {
        let queue = RequestQueue::new(stream.len());
        for (id, &(code, x)) in stream.iter().enumerate() {
            queue.push(Pending::new(id as u64, query_of(code, x)).0);
        }
        // 50 µs × 2 levels ≪ the 10 ms sleep: every head ages to urgency 0.
        let sched = SchedPolicy { priority: true, age_after: Duration::from_micros(50) };
        std::thread::sleep(Duration::from_millis(10));
        let order: Vec<u64> = drain(&queue, &sched).into_iter().map(|(id, _)| id).collect();
        prop_assert_eq!(order, (0..stream.len() as u64).collect::<Vec<_>>());
    }
}

fn cached_service() -> GraphService<sage_graph::Csr> {
    ServiceBuilder::new()
        .workers(2)
        .queue_capacity(16)
        .dram_budget_bytes(256 << 20)
        .cache_bytes(4 << 20)
        .start(gen::rmat(9, 8, gen::RmatParams::default(), 0xCAFE))
}

/// Every query kind: the cached repeat is bitwise-identical to the fresh
/// run, touches zero graph words, and its `aux_read` reconciles with the
/// global meter delta.
#[test]
fn cache_hits_are_bitwise_identical_and_graph_free() {
    let service = cached_service();
    let queries = [
        Query::Bfs { src: 3 },
        Query::PageRank {
            iters: 8,
            damping: sage::DEFAULT_DAMPING,
            vertices: vec![0, 5, 9],
        },
        Query::KCore {
            k: Some(3),
            vertices: vec![1, 2],
        },
        Query::Connected { u: 2, v: 7 },
        Query::Neighborhood { src: 4, hops: 2 },
    ];
    for q in queries {
        let fresh = service.query(q.clone());
        // sage-lint: allow(global-meter) -- no test scope sees the workers; a `<=` bound cannot race
        let before = Meter::global().snapshot();
        let hit = service.query(q);
        // sage-lint: allow(global-meter) -- no test scope sees the workers; a `<=` bound cannot race
        let delta = Meter::global().snapshot().since(&before);

        assert_eq!(
            hit.response, fresh.response,
            "cached response must be bitwise-identical to the fresh run"
        );
        assert!(!matches!(hit.response, Response::Failed { .. }));
        assert_eq!(
            hit.traffic.graph_read, 0,
            "hit path must not read the graph"
        );
        assert_eq!(hit.traffic.graph_write, 0);
        assert!(hit.traffic.aux_read > 0, "the response words are metered");
        assert!(
            hit.traffic.aux_read <= delta.aux_read,
            "hit traffic must reconcile with the global meter"
        );
    }
    let stats = service.stats();
    assert_eq!(stats.cache_hits, 5);
    assert_eq!(stats.cache_misses, 5);
    let cs = service.cache_stats().expect("cache enabled");
    assert_eq!((cs.hits, cs.misses, cs.insertions), (5, 5, 5));
    assert_eq!(cs.entries, 5);
    assert!(cs.bytes > 0 && cs.bytes <= 4 << 20);
}

/// Bumping the snapshot epoch invalidates the cache: the next lookup misses
/// (runs the engine again, reading the graph) and the stale entry's bytes
/// are reclaimed eagerly.
#[test]
fn epoch_bump_invalidates_cached_results() {
    let service = cached_service();
    let q = Query::Bfs { src: 3 };
    let fresh = service.query(q.clone());
    assert!(fresh.traffic.graph_read > 0);
    assert_eq!(service.query(q.clone()).traffic.graph_read, 0, "warm hit");
    assert_eq!(service.cache_stats().unwrap().entries, 1);

    assert_eq!(service.epoch(), 0);
    // Republishing the current snapshot is the no-op publish: same graph,
    // next epoch — exactly the invalidation half of a live update.
    assert_eq!(service.publish(service.snapshot()), 1);
    assert_eq!(
        service.cache_stats().unwrap().entries,
        0,
        "stale epoch's entries reclaimed eagerly"
    );

    let after = service.query(q.clone());
    assert!(
        after.traffic.graph_read > 0,
        "post-epoch lookup must re-run the engine"
    );
    assert_eq!(after.response, fresh.response, "same snapshot, same answer");
    assert_eq!(
        service.query(q).traffic.graph_read,
        0,
        "re-cached under epoch 1"
    );
}

/// A hot repeated stream mixed with cold queries: hits never queue, so a
/// cache-heavy workload completes with far fewer engine runs than queries —
/// and batching still forms for the cold analytics stream.
#[test]
fn hot_stream_short_circuits_the_queue() {
    let service = ServiceBuilder::new()
        .workers(2)
        .queue_capacity(32)
        .dram_budget_bytes(256 << 20)
        .cache_bytes(4 << 20)
        .batch(BatchPolicy {
            max_batch: 8,
            max_linger: Duration::from_millis(2),
        })
        .start(gen::rmat(9, 8, gen::RmatParams::default(), 0xCAFE));
    // Warm one hot point lookup, then hammer it while cold same-parameter
    // PageRank queries stream through the engine.
    let hot = Query::Bfs { src: 1 };
    let warm = service.query(hot.clone());
    let tickets: Vec<Ticket> = (0..24)
        .map(|i| {
            if i % 2 == 0 {
                service.submit(hot.clone())
            } else {
                service.submit(Query::PageRank {
                    iters: 6,
                    damping: sage::DEFAULT_DAMPING,
                    vertices: vec![i as u32],
                })
            }
        })
        .collect();
    for t in tickets {
        let r = t.wait();
        assert_eq!(r.traffic.graph_write, 0);
        if let Response::Bfs { .. } = r.response {
            assert_eq!(r.response, warm.response);
        }
    }
    let stats = service.stats();
    assert_eq!(stats.completed, 25);
    assert_eq!(stats.cache_hits, 12, "every hot repeat must hit");
    assert!(
        stats.batched_queries > 0,
        "cold same-parameter PageRank still batches: {stats:?}"
    );
}
