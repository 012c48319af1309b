//! Integration tests for the serving layer: correctness of every query type
//! against direct engine calls, admission-control behaviour, per-query
//! traffic attribution, and a concurrent-clients stress run.

use sage_core::algo;
use sage_graph::{gen, Graph, Sharded, V};
use sage_nvram::Meter;
use sage_serve::{BatchPolicy, Query, Response, SchedPolicy, ServiceBuilder};
use std::sync::Arc;
use std::time::Duration;

fn test_graph() -> sage_graph::Csr {
    gen::rmat(10, 8, gen::RmatParams::default(), 42)
}

#[test]
fn bfs_query_matches_direct_run() {
    let g = test_graph();
    let (expect, _) = algo::bfs::bfs_levels(&g, 3);
    let service = ServiceBuilder::new().start(g);
    let r = service.query(Query::Bfs { src: 3 });
    match r.response {
        Response::Bfs { levels, reached } => {
            // BFS distances are deterministic (unlike parent choices).
            assert_eq!(levels, expect);
            assert_eq!(reached, expect.iter().filter(|&&l| l != u64::MAX).count());
            assert_eq!(levels[3], 0, "source is at distance zero");
        }
        other => panic!("wrong response variant: {other:?}"),
    }
    assert_eq!(r.traffic.graph_write, 0);
    assert!(r.traffic.graph_read > 0);
}

#[test]
fn pagerank_query_matches_direct_run() {
    let g = test_graph();
    let direct = algo::pagerank::pagerank(&g, 1e-6, 20);
    let service = ServiceBuilder::new().start(g);
    let r = service.query(Query::PageRank {
        iters: 20,
        damping: sage_serve::DEFAULT_DAMPING,
        vertices: vec![0, 7, 99],
    });
    match r.response {
        Response::PageRank { ranks, iterations } => {
            assert_eq!(iterations, direct.iterations);
            for (v, rank) in ranks {
                assert!(
                    (rank - direct.ranks[v as usize]).abs() < 1e-12,
                    "rank mismatch at {v}"
                );
            }
        }
        other => panic!("wrong response variant: {other:?}"),
    }
    assert_eq!(r.traffic.graph_write, 0);
}

#[test]
fn kcore_and_connectivity_queries_match() {
    let g = test_graph();
    let kc = algo::kcore::kcore(&g);
    let labels = algo::connectivity::connectivity(&g, 0.2, 1);
    let comps = algo::connectivity::num_components(&labels);
    let service = ServiceBuilder::new().start(g);

    let r = service.query(Query::KCore {
        k: None,
        vertices: vec![1, 2, 500],
    });
    match r.response {
        Response::KCore { coreness, kmax } => {
            assert_eq!(kmax, kc.kmax);
            for (v, c) in coreness {
                assert_eq!(c, kc.coreness[v as usize], "coreness mismatch at {v}");
            }
        }
        other => panic!("wrong response variant: {other:?}"),
    }

    let r = service.query(Query::Connected { u: 4, v: 9 });
    match r.response {
        Response::Connected {
            connected,
            components,
        } => {
            assert_eq!(connected, labels[4] == labels[9]);
            assert_eq!(components, comps);
        }
        other => panic!("wrong response variant: {other:?}"),
    }
}

#[test]
fn neighborhood_queries_match_adjacency() {
    let g = test_graph();
    let mut one_hop: Vec<V> = Vec::new();
    g.for_each_edge(5, |d, _| one_hop.push(d));
    let mut two_hop = one_hop.clone();
    for &u in &one_hop.clone() {
        g.for_each_edge(u, |d, _| two_hop.push(d));
    }
    for set in [&mut one_hop, &mut two_hop] {
        set.sort_unstable();
        set.dedup();
        set.retain(|&v| v != 5);
    }
    let service = ServiceBuilder::new().start(g);
    match service
        .query(Query::Neighborhood { src: 5, hops: 1 })
        .response
    {
        Response::Neighborhood { vertices } => assert_eq!(vertices, one_hop),
        other => panic!("wrong response variant: {other:?}"),
    }
    match service
        .query(Query::Neighborhood { src: 5, hops: 2 })
        .response
    {
        Response::Neighborhood { vertices } => assert_eq!(vertices, two_hop),
        other => panic!("wrong response variant: {other:?}"),
    }
}

#[test]
#[should_panic(expected = "out of range")]
fn out_of_range_query_panics_at_submit() {
    let service = ServiceBuilder::new().start(gen::path(10));
    let _ = service.submit(Query::Bfs { src: 1000 });
}

#[test]
fn tiny_dram_budget_serializes_queries() {
    let g = test_graph();
    let n = g.num_vertices();
    // Budget below two BFS estimates: peak concurrency must stay at 1 even
    // with 4 workers and a deep backlog.
    let service = ServiceBuilder::new()
        .workers(4)
        .queue_capacity(64)
        .dram_budget_bytes(sage_serve::dram_estimate(n, &Query::Bfs { src: 0 }) + 1)
        // Disable batching: this test is about per-query admission.
        .batch(BatchPolicy {
            max_batch: 1,
            ..Default::default()
        })
        // A-priori estimates only: the measured model would learn that a
        // BFS is cheaper than its estimate and admit two at once.
        .measured_admission(false)
        .start(g);
    let tickets: Vec<_> = (0..16)
        .map(|i| service.submit(Query::Bfs { src: i % 50 }))
        .collect();
    for t in tickets {
        let r = t.wait();
        assert_eq!(r.traffic.graph_write, 0);
    }
    let stats = service.stats();
    assert_eq!(stats.completed, 16);
    assert_eq!(
        stats.peak_inflight, 1,
        "budget must have serialized execution"
    );
}

#[test]
fn oversized_query_still_runs_alone() {
    let g = test_graph();
    // Budget far below any single estimate: grants clamp, queries proceed.
    let service = ServiceBuilder::new()
        .workers(2)
        .queue_capacity(8)
        .dram_budget_bytes(1024)
        .start(g);
    let r = service.query(Query::KCore {
        k: None,
        vertices: vec![0],
    });
    assert_eq!(r.traffic.graph_write, 0);
}

/// The acceptance-shaped stress run: ≥ 64 mixed queries from ≥ 4 client
/// threads over one shared snapshot; every per-query snapshot clean and the
/// per-query sums reconcile with (stay within) the global meter delta.
#[test]
fn concurrent_mixed_clients_attribute_traffic_per_query() {
    let g = test_graph();
    let kc_kmax = algo::kcore::kcore(&g).kmax;
    // Query sources must have outgoing edges, or a BFS legitimately reads
    // nothing from the graph.
    let live: Arc<Vec<V>> = Arc::new(
        (0..g.num_vertices() as V)
            .filter(|&v| g.degree(v) > 0)
            .collect(),
    );
    assert!(live.len() >= 100);
    // sage-lint: allow(global-meter) -- no test scope sees the workers; a `<=` bound cannot race
    let global_before = Meter::global().snapshot();
    let service = Arc::new(ServiceBuilder::new().start(g));

    let clients: Vec<_> = (0..4)
        .map(|c| {
            let service = Arc::clone(&service);
            let live = Arc::clone(&live);
            std::thread::spawn(move || {
                let pick = |k: u32| live[(k as usize) % live.len()];
                let mut results = Vec::new();
                for i in 0..16u32 {
                    let q = match (c + i) % 5 {
                        0 => Query::Bfs { src: pick(i * 13) },
                        1 => Query::PageRank {
                            iters: 5,
                            damping: sage_serve::DEFAULT_DAMPING,
                            vertices: vec![pick(i)],
                        },
                        2 => Query::KCore {
                            k: None,
                            vertices: vec![pick(i * 7)],
                        },
                        3 => Query::Connected {
                            u: pick(i),
                            v: pick(i * 31),
                        },
                        _ => Query::Neighborhood {
                            src: pick(i),
                            hops: 1 + (i % 2) as u8,
                        },
                    };
                    results.push((q.label(), service.query(q)));
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

    let mut per_query_sum = sage_nvram::MeterSnapshot::default();
    for (label, r) in &all {
        assert_eq!(
            r.traffic.graph_write, 0,
            "{label} query #{} wrote to the graph",
            r.id
        );
        if matches!(label, &"bfs" | &"kcore" | &"connected" | &"pagerank") {
            assert!(
                r.traffic.graph_read > 0,
                "{label} query #{} read nothing from the graph",
                r.id
            );
        }
        if matches!(label, &"bfs" | &"kcore" | &"connected") {
            assert!(r.traffic.aux_write > 0, "{label} wrote no DRAM state");
        }
        if label == &"kcore" {
            match &r.response {
                Response::KCore { kmax, .. } => assert_eq!(*kmax, kc_kmax),
                other => panic!("wrong response variant: {other:?}"),
            }
        }
        per_query_sum = per_query_sum.plus(&r.traffic);
    }

    // Reconciliation: every scoped word also landed on the global meter, so
    // the per-query sum is bounded by the global delta (other tests in this
    // process may add unscoped traffic on top; exact equality is asserted in
    // the single-process example/demo).
    // sage-lint: allow(global-meter) -- no test scope sees the workers; a `<=` bound cannot race
    let global_delta = Meter::global().snapshot().since(&global_before);
    for (sum, delta, class) in [
        (
            per_query_sum.graph_read,
            global_delta.graph_read,
            "graph_read",
        ),
        (per_query_sum.aux_read, global_delta.aux_read, "aux_read"),
        (per_query_sum.aux_write, global_delta.aux_write, "aux_write"),
    ] {
        assert!(
            sum <= delta,
            "scoped {class} sum {sum} exceeds global delta {delta}"
        );
    }
    assert!(per_query_sum.graph_read > 0);

    let stats = service.stats();
    assert_eq!(stats.completed, 64);
    assert!(stats.peak_inflight >= 1);
    assert!(
        stats.peak_inflight <= 4,
        "peak inflight {} exceeds worker count",
        stats.peak_inflight
    );
}

/// A graph wrapper that panics when vertex 13's edges are requested — used
/// to prove the serving worker contains engine panics.
struct PanickyGraph(sage_graph::Csr);

impl Graph for PanickyGraph {
    fn num_vertices(&self) -> usize {
        self.0.num_vertices()
    }
    fn num_edges(&self) -> usize {
        self.0.num_edges()
    }
    fn degree(&self, v: V) -> usize {
        self.0.degree(v)
    }
    fn is_weighted(&self) -> bool {
        self.0.is_weighted()
    }
    fn is_symmetric(&self) -> bool {
        self.0.is_symmetric()
    }
    fn block_size(&self) -> usize {
        self.0.block_size()
    }
    fn for_each_edge<F: FnMut(V, u32)>(&self, v: V, f: F) {
        assert!(v != 13, "injected engine panic");
        self.0.for_each_edge(v, f)
    }
    fn for_each_edge_while<F: FnMut(V, u32) -> bool>(&self, v: V, f: F) {
        self.0.for_each_edge_while(v, f)
    }
    fn decode_block<F: FnMut(u32, V, u32)>(&self, v: V, blk: usize, f: F) {
        self.0.decode_block(v, blk, f)
    }
    fn supports_random_access(&self) -> bool {
        self.0.supports_random_access()
    }
    fn edge_at(&self, v: V, i: usize) -> (V, u32) {
        self.0.edge_at(v, i)
    }
}

impl Sharded for PanickyGraph {
    type Shard = Self;

    fn shard(&self, _s: usize) -> &Self {
        self
    }
}

#[test]
fn query_panic_is_contained_and_worker_survives() {
    let service = ServiceBuilder::new()
        .workers(1) // one worker: it must survive to serve the follow-up
        .queue_capacity(8)
        .dram_budget_bytes(0)
        .start(PanickyGraph(test_graph()));
    let r = service.query(Query::Neighborhood { src: 13, hops: 1 });
    match r.response {
        Response::Failed { reason } => assert!(reason.contains("injected engine panic")),
        other => panic!("expected Failed, got {other:?}"),
    }
    // The same (sole) worker must still serve subsequent queries.
    let r = service.query(Query::Neighborhood { src: 5, hops: 1 });
    assert!(matches!(r.response, Response::Neighborhood { .. }));
    assert_eq!(service.stats().completed, 2);
}

#[test]
fn drop_drains_accepted_requests() {
    let g = test_graph();
    let service = ServiceBuilder::new()
        .workers(1)
        .queue_capacity(64)
        .dram_budget_bytes(0)
        .start(g);
    let tickets: Vec<_> = (0..8)
        .map(|i| service.submit(Query::Bfs { src: i }))
        .collect();
    drop(service); // close + drain + join
    for t in tickets {
        let r = t.wait(); // must all have been fulfilled
        assert_eq!(r.traffic.graph_write, 0);
    }
}

/// Batched execution must be *bitwise-identical* to unbatched execution:
/// the same mixed workload is pushed through a batching service (deep
/// backlog, large `max_batch`, a linger so batches actually fill) and a
/// batching-disabled one, and every response must compare equal.
#[test]
fn batched_responses_are_bitwise_identical_to_unbatched() {
    let g = test_graph();
    let live: Vec<V> = (0..g.num_vertices() as V)
        .filter(|&v| g.degree(v) > 0)
        .collect();
    let queries: Vec<Query> = (0..48u32)
        .map(|i| {
            let pick = |k: u32| live[(k as usize) % live.len()];
            match i % 3 {
                0 => Query::Bfs { src: pick(i * 13) },
                1 => Query::Connected {
                    u: pick(i),
                    v: pick(i * 31),
                },
                _ => Query::Neighborhood {
                    src: pick(i * 7),
                    hops: 1 + (i % 2) as u8,
                },
            }
        })
        .collect();

    let run = |g: sage_graph::Csr, max_batch: usize| -> Vec<Response> {
        let service = ServiceBuilder::new()
            .workers(2)
            .queue_capacity(64)
            .batch(BatchPolicy {
                max_batch,
                max_linger: Duration::from_millis(2),
            })
            .start(g);
        // Submit the whole backlog first so batches can actually form.
        let tickets: Vec<_> = queries.iter().map(|q| service.submit(q.clone())).collect();
        let responses = tickets.into_iter().map(|t| t.wait().response).collect();
        let stats = service.stats();
        if max_batch > 1 {
            assert!(
                stats.peak_batch > 1,
                "backlogged workload formed no batches: {stats:?}"
            );
        } else {
            assert_eq!(stats.peak_batch, 1, "batching was supposed to be off");
        }
        responses
    };

    let unbatched = run(test_graph(), 1);
    let batched = run(g, 64);
    assert_eq!(unbatched.len(), batched.len());
    for (i, (u, b)) in unbatched.iter().zip(&batched).enumerate() {
        match (u, b) {
            (
                Response::Bfs {
                    levels: lu,
                    reached: ru,
                },
                Response::Bfs {
                    levels: lb,
                    reached: rb,
                },
            ) => {
                assert_eq!(lu, lb, "query {i}: BFS levels diverged");
                assert_eq!(ru, rb, "query {i}: BFS reach diverged");
            }
            (
                Response::Connected {
                    connected: cu,
                    components: ku,
                },
                Response::Connected {
                    connected: cb,
                    components: kb,
                },
            ) => {
                assert_eq!(cu, cb, "query {i}: membership diverged");
                assert_eq!(ku, kb, "query {i}: component count diverged");
            }
            (Response::Neighborhood { vertices: vu }, Response::Neighborhood { vertices: vb }) => {
                assert_eq!(vu, vb, "query {i}: neighborhood diverged");
            }
            other => panic!("query {i}: mismatched variants {other:?}"),
        }
    }
}

/// A batch's split traffic must stay internally consistent: zero graph
/// writes per member, nonzero graph reads for traversal queries, and the
/// member sum bounded by the global delta (the reconciliation invariant).
#[test]
fn batched_traffic_splits_cleanly() {
    let g = test_graph();
    let live: Vec<V> = (0..g.num_vertices() as V)
        .filter(|&v| g.degree(v) > 0)
        .collect();
    // sage-lint: allow(global-meter) -- no test scope sees the workers; a `<=` bound cannot race
    let before = Meter::global().snapshot();
    let service = ServiceBuilder::new()
        .workers(1) // one worker: the backlog drains as maximal batches
        .queue_capacity(64)
        .batch(BatchPolicy {
            max_batch: 64,
            max_linger: Duration::from_millis(2),
        })
        .start(g);
    let tickets: Vec<_> = (0..40)
        .map(|i| {
            service.submit(Query::Bfs {
                src: live[i * 3 % live.len()],
            })
        })
        .collect();
    let mut sum = sage_nvram::MeterSnapshot::default();
    for t in tickets {
        let r = t.wait();
        assert_eq!(r.traffic.graph_write, 0, "query #{} wrote the graph", r.id);
        assert!(
            r.traffic.graph_read > 0,
            "query #{} was attributed no graph reads",
            r.id
        );
        sum = sum.plus(&r.traffic);
    }
    let stats = service.stats();
    assert_eq!(stats.completed, 40);
    assert!(stats.peak_batch > 1, "no batch formed: {stats:?}");
    assert!(stats.batched_queries > 0);
    // sage-lint: allow(global-meter) -- no test scope sees the workers; a `<=` bound cannot race
    let delta = Meter::global().snapshot().since(&before);
    assert!(
        sum.graph_read <= delta.graph_read,
        "split graph reads {} exceed global delta {}",
        sum.graph_read,
        delta.graph_read
    );
}

/// Regression test for FIFO fairness under batch draining: a query that is
/// *incompatible* with the batch being formed must keep its arrival
/// position — the buggy alternative (pop everything, re-push incompatibles
/// at the tail) lets later arrivals overtake it indefinitely.
#[test]
fn incompatible_requests_keep_their_queue_position() {
    use sage_serve::queue::{Pending, RequestQueue};

    let queue = RequestQueue::new(16);
    let policy = BatchPolicy {
        max_batch: 8,
        max_linger: Duration::ZERO,
    };
    // Arrival-order scheduling: this test is about FIFO fairness across
    // batch classes, not priority classes.
    let fifo = SchedPolicy::fifo();
    let mk = |id: u64, q: Query| {
        let (p, _t) = Pending::new(id, q);
        p
    };
    // Arrival order: BFS(0), KCore(1), BFS(2), Neighborhood(3), BFS(4).
    queue.push(mk(0, Query::Bfs { src: 0 }));
    queue.push(mk(
        1,
        Query::KCore {
            k: None,
            vertices: vec![0],
        },
    ));
    queue.push(mk(2, Query::Bfs { src: 1 }));
    queue.push(mk(3, Query::Neighborhood { src: 0, hops: 1 }));
    queue.push(mk(4, Query::Bfs { src: 2 }));

    // First drain: the BFS head plus both compatible BFS queries behind it.
    let batch = queue.pop_batch(&policy, &fifo).unwrap();
    assert_eq!(
        batch.members().iter().map(|p| p.id()).collect::<Vec<_>>(),
        vec![0, 2, 4],
        "batch must drain all compatible members in arrival order"
    );
    assert_eq!(queue.depth(), 2);

    // A new arrival must land *behind* the skipped-over requests.
    queue.push(mk(5, Query::Bfs { src: 3 }));

    // The k-core query kept the head position it arrived with...
    let batch = queue.pop_batch(&policy, &fifo).unwrap();
    assert_eq!(
        batch.members().iter().map(|p| p.id()).collect::<Vec<_>>(),
        vec![1],
        "the incompatible head must be served next, not re-queued at the tail"
    );
    // ...followed by the neighborhood probe, still ahead of the late BFS.
    let batch = queue.pop_batch(&policy, &fifo).unwrap();
    assert_eq!(
        batch.members().iter().map(|p| p.id()).collect::<Vec<_>>(),
        vec![3]
    );
    let batch = queue.pop_batch(&policy, &fifo).unwrap();
    assert_eq!(
        batch.members().iter().map(|p| p.id()).collect::<Vec<_>>(),
        vec![5]
    );
    assert_eq!(queue.depth(), 0);
}

/// Regression test for the lingering drain: a `pop_batch` under a non-zero
/// `max_linger` keeps absorbing *late-arriving* compatible requests into the
/// forming batch, but (a) never grows past `max_batch` — it returns as soon
/// as the cap is hit instead of sleeping out the linger window — and (b)
/// leaves incompatible arrivals in their FIFO positions for the next drain.
#[test]
fn lingering_pop_respects_cap_and_fifo_order() {
    use sage_serve::queue::{Pending, RequestQueue};
    use std::sync::Arc;

    let queue = Arc::new(RequestQueue::new(32));
    let fifo = SchedPolicy::fifo();
    let policy = BatchPolicy {
        max_batch: 4,
        // Generous on purpose: if the cap did not short-circuit the linger,
        // the elapsed-time assertion below would trip.
        max_linger: Duration::from_secs(5),
    };
    let mk = |id: u64, q: Query| Pending::new(id, q).0;

    // Only the head is waiting when the consumer starts lingering.
    queue.push(mk(0, Query::Bfs { src: 0 }));
    let producer = {
        let queue = Arc::clone(&queue);
        std::thread::spawn(move || {
            // Trickle in arrivals mid-linger: three compatible BFS queries
            // interleaved with incompatible probes. The fourth BFS (id 6)
            // lands after the cap is already reachable.
            for (id, q) in [
                (1, Query::Connected { u: 0, v: 1 }),
                (2, Query::Bfs { src: 1 }),
                (3, Query::Neighborhood { src: 0, hops: 1 }),
                (4, Query::Bfs { src: 2 }),
                (5, Query::Bfs { src: 3 }),
                (6, Query::Bfs { src: 4 }),
            ] {
                std::thread::sleep(Duration::from_millis(5));
                queue.push(mk(id, q));
            }
        })
    };

    let start = std::time::Instant::now();
    let batch = queue.pop_batch(&policy, &fifo).unwrap();
    let elapsed = start.elapsed();
    producer.join().unwrap();

    // The linger gathered exactly max_batch compatible members, in arrival
    // order, skipping the interleaved incompatible requests.
    assert_eq!(
        batch.members().iter().map(|p| p.id()).collect::<Vec<_>>(),
        vec![0, 2, 4, 5],
        "lingering drain must absorb late compatible arrivals up to the cap"
    );
    assert!(
        elapsed < Duration::from_secs(2),
        "hitting max_batch must end the linger early, waited {elapsed:?}"
    );

    // Incompatible mid-linger arrivals kept their FIFO positions; the
    // over-cap BFS queues behind them.
    let zero = BatchPolicy {
        max_batch: 8,
        max_linger: Duration::ZERO,
    };
    let ids =
        |b: sage_serve::batch::QueryBatch| b.members().iter().map(|p| p.id()).collect::<Vec<_>>();
    assert_eq!(ids(queue.pop_batch(&zero, &fifo).unwrap()), vec![1]);
    assert_eq!(ids(queue.pop_batch(&zero, &fifo).unwrap()), vec![3]);
    assert_eq!(ids(queue.pop_batch(&zero, &fifo).unwrap()), vec![6]);
    assert_eq!(queue.depth(), 0);
}

/// The batch cap respects both the policy and the class limit; analytics
/// queries batch only with *same-parameter* peers (equal `k` for k-core),
/// and a different-parameter query keeps its queue position.
#[test]
fn batch_caps_respect_policy_and_class() {
    use sage_serve::queue::{Pending, RequestQueue};

    let queue = RequestQueue::new(128);
    let fifo = SchedPolicy::fifo();
    let mk = |id: u64, q: Query| Pending::new(id, q).0;
    for i in 0..10 {
        queue.push(mk(i, Query::Bfs { src: 0 }));
    }
    let batch = queue
        .pop_batch(
            &BatchPolicy {
                max_batch: 4,
                max_linger: Duration::ZERO,
            },
            &fifo,
        )
        .unwrap();
    assert_eq!(batch.len(), 4, "policy cap must bound the drain");
    assert_eq!(queue.depth(), 6);

    // Same-k k-core queries share one batch; a different threshold does not.
    queue.push(mk(
        100,
        Query::KCore {
            k: None,
            vertices: vec![0],
        },
    ));
    queue.push(mk(
        101,
        Query::KCore {
            k: Some(2),
            vertices: vec![2],
        },
    ));
    queue.push(mk(
        102,
        Query::KCore {
            k: None,
            vertices: vec![1],
        },
    ));
    // Drain the remaining BFS backlog first.
    let b = queue.pop_batch(&BatchPolicy::default(), &fifo).unwrap();
    assert_eq!(b.len(), 6);
    let b = queue.pop_batch(&BatchPolicy::default(), &fifo).unwrap();
    assert_eq!(
        b.members().iter().map(|p| p.id()).collect::<Vec<_>>(),
        vec![100, 102],
        "equal-k k-core queries must share one run"
    );
    let b = queue.pop_batch(&BatchPolicy::default(), &fifo).unwrap();
    assert_eq!(
        b.members().iter().map(|p| p.id()).collect::<Vec<_>>(),
        vec![101],
        "a different threshold must not join the batch"
    );
    assert_eq!(queue.depth(), 0);
}
