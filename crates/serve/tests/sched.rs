//! Scheduler tests: priority classes, aging, preemption/promotion counters,
//! linger-driven batch occupancy, per-class completion stats, and the
//! `ServiceConfig` presets that wire it all together.

use sage_serve::queue::{Pending, RequestQueue};
use sage_serve::{
    BatchPolicy, Priority, Query, SchedPolicy, ServiceBuilder, ServiceConfig, DEFAULT_DAMPING,
};
use std::time::Duration;

fn mk(id: u64, q: Query) -> Pending {
    Pending::new(id, q).0
}

fn pagerank(vertices: Vec<u32>) -> Query {
    Query::PageRank {
        iters: 5,
        damping: DEFAULT_DAMPING,
        vertices,
    }
}

fn ids(b: sage_serve::batch::QueryBatch) -> Vec<u64> {
    b.members().iter().map(|p| p.id()).collect()
}

/// With aging disabled, classes are served strictly by urgency: a freshly
/// arrived point lookup overtakes analytics and probes that arrived first,
/// and every such bypass is counted as a preemption.
#[test]
fn strict_priority_serves_urgent_classes_first() {
    let queue = RequestQueue::new(16);
    let strict = SchedPolicy {
        priority: true,
        age_after: Duration::ZERO,
    };
    let policy = BatchPolicy {
        max_batch: 1,
        max_linger: Duration::ZERO,
    };
    // Arrival order: analytics, probe, point lookup — i.e. worst-first.
    queue.push(mk(0, pagerank(vec![0])));
    queue.push(mk(1, Query::Connected { u: 0, v: 1 }));
    queue.push(mk(2, Query::Bfs { src: 0 }));

    assert_eq!(ids(queue.pop_batch(&policy, &strict).unwrap()), vec![2]);
    assert_eq!(ids(queue.pop_batch(&policy, &strict).unwrap()), vec![1]);
    assert_eq!(ids(queue.pop_batch(&policy, &strict).unwrap()), vec![0]);

    let c = queue.sched_counters();
    assert_eq!(
        c.preemptions, 2,
        "the BFS and the probe each bypassed an earlier arrival"
    );
    assert_eq!(c.aged_promotions, 0, "nothing aged with age_after disabled");
}

/// A waiting analytics query ages into the urgent tier: once it has waited
/// `2·age_after` its effective priority matches a fresh point lookup and its
/// earlier arrival wins the tie — counted as an aged promotion.
#[test]
fn aging_promotes_a_waiting_analytics_query() {
    let queue = RequestQueue::new(16);
    let sched = SchedPolicy {
        priority: true,
        age_after: Duration::from_millis(5),
    };
    let policy = BatchPolicy {
        max_batch: 1,
        max_linger: Duration::ZERO,
    };
    queue.push(mk(0, pagerank(vec![0])));
    // Wait well past 2·age_after so the analytics head ages to urgency 0.
    std::thread::sleep(Duration::from_millis(40));
    queue.push(mk(1, Query::Bfs { src: 0 }));

    assert_eq!(
        ids(queue.pop_batch(&policy, &sched).unwrap()),
        vec![0],
        "the aged analytics query must beat the fresh point lookup"
    );
    assert_eq!(ids(queue.pop_batch(&policy, &sched).unwrap()), vec![1]);
    let c = queue.sched_counters();
    assert!(
        c.aged_promotions >= 1,
        "serving analytics over a waiting point lookup is an aged promotion"
    );
}

/// `SchedPolicy::fifo` ignores classes entirely: arrival order, nothing else.
#[test]
fn fifo_policy_ignores_classes() {
    let queue = RequestQueue::new(16);
    let fifo = SchedPolicy::fifo();
    let policy = BatchPolicy {
        max_batch: 1,
        max_linger: Duration::ZERO,
    };
    queue.push(mk(0, pagerank(vec![0])));
    queue.push(mk(1, Query::Bfs { src: 0 }));
    assert_eq!(ids(queue.pop_batch(&policy, &fifo).unwrap()), vec![0]);
    assert_eq!(ids(queue.pop_batch(&policy, &fifo).unwrap()), vec![1]);
    let c = queue.sched_counters();
    assert_eq!((c.preemptions, c.aged_promotions), (0, 0));
}

/// Same-parameter PageRank queries share one batch; different parameters
/// (iters *or* damping) split it, exactly like k-core thresholds.
#[test]
fn same_parameter_pagerank_batches_together() {
    let queue = RequestQueue::new(16);
    let fifo = SchedPolicy::fifo();
    let policy = BatchPolicy {
        max_batch: 8,
        max_linger: Duration::ZERO,
    };
    queue.push(mk(0, pagerank(vec![0])));
    queue.push(mk(
        1,
        Query::PageRank {
            iters: 7, // different iteration cap: different fixed point
            damping: DEFAULT_DAMPING,
            vertices: vec![1],
        },
    ));
    queue.push(mk(2, pagerank(vec![2])));
    queue.push(mk(
        3,
        Query::PageRank {
            iters: 5,
            damping: 0.5, // different damping: different fixed point
            vertices: vec![3],
        },
    ));
    queue.push(mk(4, pagerank(vec![4])));

    assert_eq!(
        ids(queue.pop_batch(&policy, &fifo).unwrap()),
        vec![0, 2, 4],
        "equal (iters, damping) queries share one run"
    );
    assert_eq!(ids(queue.pop_batch(&policy, &fifo).unwrap()), vec![1]);
    assert_eq!(ids(queue.pop_batch(&policy, &fifo).unwrap()), vec![3]);
}

/// Satellite: a non-zero `max_linger` raises batch occupancy under an
/// open-loop trickle — arrivals that would each have dispatched alone are
/// absorbed into the forming batch — without ever violating `max_batch`.
#[test]
fn linger_raises_batch_occupancy_under_trickle() {
    let service = ServiceBuilder::new()
        .workers(2)
        .queue_capacity(32)
        .dram_budget_bytes(256 << 20)
        .batch(BatchPolicy {
            max_batch: 4,
            // Much longer than the trickle gap: the first worker holds
            // the batch open and absorbs the stream.
            max_linger: Duration::from_millis(500),
        })
        .start(sage_graph::gen::rmat(
            9,
            8,
            sage_graph::gen::RmatParams::default(),
            7,
        ));
    let tickets: Vec<_> = (0..8)
        .map(|i| {
            std::thread::sleep(Duration::from_millis(3));
            service.submit(Query::Bfs { src: i })
        })
        .collect();
    for t in tickets {
        assert_eq!(t.wait().traffic.graph_write, 0);
    }
    let stats = service.stats();
    assert_eq!(stats.completed, 8);
    assert!(
        stats.peak_batch > 1,
        "linger must absorb the trickle into shared batches: {stats:?}"
    );
    assert!(
        stats.peak_batch <= 4,
        "linger must never grow a batch past max_batch: {stats:?}"
    );
}

/// Completions are attributed to their priority class, and the scheduler
/// counters surface through `ServiceStats`.
#[test]
fn per_class_completion_stats() {
    let service = ServiceBuilder::new()
        .workers(2)
        .queue_capacity(32)
        .dram_budget_bytes(256 << 20)
        .start(sage_graph::gen::rmat(
            9,
            8,
            sage_graph::gen::RmatParams::default(),
            7,
        ));
    let mut tickets = Vec::new();
    for i in 0..6 {
        tickets.push(service.submit(Query::Bfs { src: i }));
    }
    for i in 0..4 {
        tickets.push(service.submit(Query::Connected { u: i, v: i + 1 }));
        tickets.push(service.submit(Query::Neighborhood { src: i, hops: 1 }));
    }
    for _ in 0..2 {
        tickets.push(service.submit(pagerank(vec![0, 1])));
        tickets.push(service.submit(Query::KCore {
            k: Some(2),
            vertices: vec![0],
        }));
    }
    for t in tickets {
        t.wait();
    }
    let stats = service.stats();
    assert_eq!(stats.completed_point_lookups, 6);
    assert_eq!(stats.completed_probes, 8);
    assert_eq!(stats.completed_analytics, 4);
    assert_eq!(
        stats.completed_point_lookups + stats.completed_probes + stats.completed_analytics,
        stats.completed
    );
}

/// The presets wire the scheduling features coherently: both serving presets
/// linger, cache and schedule by class with aging.
#[test]
fn presets_wire_linger_cache_and_scheduling() {
    for cfg in [ServiceConfig::interactive(), ServiceConfig::throughput()] {
        assert!(cfg.batch.max_linger > Duration::ZERO);
        assert!(cfg.batch.max_batch > 1);
        assert!(cfg.cache_bytes > 0);
        assert!(cfg.sched.priority);
        assert!(cfg.sched.age_after > Duration::ZERO, "aging must be on");
        assert!(cfg.measured_admission);
    }
    // Default stays the conservative pre-scheduler shape: no cache, but
    // priority scheduling on.
    let d = ServiceConfig::default();
    assert_eq!(d.cache_bytes, 0);
    assert!(d.sched.priority);
    let _ = Priority::COUNT; // the class set is part of the public API
}
