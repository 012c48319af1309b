//! Live-update acceptance tests: the ingestion path end to end.
//!
//! Property half: on random symmetric graphs with random insert/delete
//! batches, a service reading **through** the DRAM [`DeltaOverlay`] answers
//! every query class bitwise-identically to a service over the compacted
//! CSR rebuilt from the same updates — across plain, compressed, and
//! sharded representations, batched and unbatched scheduling. The overlay's
//! merged iteration *is* the compacted adjacency, so nothing downstream can
//! tell pre-publish and post-publish snapshots apart.
//!
//! Publish half: the semi-asymmetric contract under concurrent updates —
//! readers never write a graph word while publishes land mid-stream, every
//! result carries the epoch of the snapshot that answered it, the publish's
//! own writes are metered under its own scope and gated by the configured
//! budget *before* anything hits the filesystem.

use proptest::prelude::*;
use sage::serve::BatchPolicy;
use sage::{
    build_csr, gen, BuildOptions, CompressedCsr, DeltaOverlay, EdgeList, EdgeUpdate, Graph,
    PublishError, Query, Response, ServiceBuilder, Sharded, ShardedCsr, V,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Strategy: vertex count, random symmetric edge list, and a random
/// insert/delete stream over the same vertex range.
#[allow(clippy::type_complexity)]
fn arb_case(
    max_n: usize,
    max_m: usize,
    max_u: usize,
) -> impl Strategy<Value = (usize, Vec<(V, V)>, Vec<EdgeUpdate>)> {
    (2..max_n).prop_flat_map(move |n| {
        let edges = proptest::collection::vec((0..n as V, 0..n as V), 0..max_m);
        let updates = proptest::collection::vec((any::<bool>(), 0..n as V, 0..n as V), 0..max_u)
            .prop_map(|ops| {
                ops.into_iter()
                    .map(|(ins, u, v)| {
                        if ins {
                            EdgeUpdate::insert(u, v)
                        } else {
                            EdgeUpdate::delete(u, v)
                        }
                    })
                    .collect::<Vec<_>>()
            });
        (Just(n), edges, updates)
    })
}

/// One of every query class, plus enough BFS point queries to batch.
fn query_mix(n: usize) -> Vec<Query> {
    let pick = |k: usize| (k % n) as V;
    let mut queries: Vec<Query> = (0..6).map(|i| Query::Bfs { src: pick(i * 7) }).collect();
    queries.push(Query::PageRank {
        iters: 5,
        damping: sage_serve::DEFAULT_DAMPING,
        vertices: vec![pick(0), pick(n - 1)],
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
        hops: 2,
    });
    queries
}

/// Serve `queries`, submit-then-redeem, responses in submission order; every
/// result must be write-free and tagged with the initial epoch.
fn serve_all<G: Sharded + Send + Sync + 'static>(
    g: G,
    queries: &[Query],
    max_batch: usize,
) -> Result<Vec<Response>, TestCaseError> {
    let service = ServiceBuilder::new()
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
            prop_assert_eq!(r.traffic.graph_write, 0, "served query wrote the graph");
            prop_assert_eq!(r.epoch, 0, "no publish ran, so every tag is epoch 0");
            Ok(r.response)
        })
        .collect()
}

fn check_overlay_equivalence(
    n: usize,
    edges: Vec<(V, V)>,
    updates: Vec<EdgeUpdate>,
    batched_apply: bool,
) -> Result<(), TestCaseError> {
    let base = build_csr(EdgeList::new(n, edges), BuildOptions::default());
    let mut overlay = DeltaOverlay::new(Arc::new(base));
    if batched_apply {
        overlay.apply(&updates);
    } else {
        for u in &updates {
            overlay.apply(std::slice::from_ref(u));
        }
    }
    let queries = query_mix(n);

    // Ground truth: the compacted CSR the publish pipeline would flush.
    let want = serve_all(overlay.compact(), &queries, 1)?;

    // The overlay itself, served through the unmodified engine (this is the
    // pre-publish read path), batched and unbatched.
    let compressed = CompressedCsr::from_csr(&overlay.compact(), 64);
    let sharded = ShardedCsr::from_csr(&overlay.compact(), 2);
    for max_batch in [1usize, 8] {
        let plain_compact = overlay.compact();
        prop_assert_eq!(
            &serve_all(plain_compact, &queries, max_batch)?,
            &want,
            "compacted plain CSR diverged (max_batch {})",
            max_batch
        );
    }
    prop_assert_eq!(
        &serve_all(compressed, &queries, 8)?,
        &want,
        "compacted compressed CSR diverged"
    );
    {
        let service = ServiceBuilder::new()
            .workers(2)
            .queue_capacity(queries.len())
            .max_batch(8)
            .start_sharded(sharded);
        let tickets: Vec<_> = queries.iter().map(|q| service.submit(q.clone())).collect();
        for (t, want) in tickets.into_iter().zip(&want) {
            let r = t.wait();
            prop_assert_eq!(r.traffic.graph_write, 0);
            prop_assert_eq!(&r.response, want, "compacted sharded CSR diverged");
        }
    }
    for max_batch in [1usize, 8] {
        let over = {
            let mut o = DeltaOverlay::new(Arc::clone(overlay.base()));
            o.apply(&updates);
            o
        };
        prop_assert_eq!(
            &serve_all(over, &queries, max_batch)?,
            &want,
            "overlay serving diverged from the compacted CSR (max_batch {})",
            max_batch
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Base + overlay answers every query class bitwise-identically to the
    /// compacted CSR, across representations and batching, whether the
    /// update stream was applied as one batch or one update at a time.
    #[test]
    fn overlay_serving_equals_compacted_serving(
        input in (arb_case(28, 90, 36), any::<bool>())
    ) {
        let ((n, edges, updates), batched_apply) = input;
        check_overlay_equivalence(n, edges, updates, batched_apply)?;
    }
}

/// While publishes land mid-stream, concurrent readers stay write-free and
/// every answer names the snapshot that produced it; the publish's own
/// writes are visible only in its report (its private scope), and the
/// service's counters record each swap.
#[test]
fn readers_never_write_while_publishes_land() {
    let dir = std::env::temp_dir().join(format!("sage-live-pub-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");

    let g = gen::rmat(10, 8, gen::RmatParams::default(), 0xF00D);
    let n = g.num_vertices();
    let service = Arc::new(
        ServiceBuilder::new()
            .workers(2)
            .queue_capacity(64)
            .publish_budget_words(1 << 26)
            .start(g),
    );

    const PUBLISHES: u64 = 3;
    let stop = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..2)
        .map(|c| {
            let service = Arc::clone(&service);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut checked = 0u64;
                let mut i = 0usize;
                while !stop.load(Ordering::Relaxed) || checked == 0 {
                    let r = service.query(Query::Bfs {
                        src: ((c * 131 + i * 17) % n) as V,
                    });
                    assert_eq!(
                        r.traffic.graph_write, 0,
                        "a reader wrote the graph during a publish"
                    );
                    assert!(r.epoch <= PUBLISHES, "epoch tag out of range");
                    checked += 1;
                    i += 1;
                }
                checked
            })
        })
        .collect();

    for round in 0..PUBLISHES {
        let u = (round as usize * 37 % n) as V;
        let v = ((round as usize * 61 + 1) % n) as V;
        let report = service
            .publish_updates(
                &[EdgeUpdate::insert(u, v)],
                &dir.join(format!("epoch-{}.sage", round + 1)),
            )
            .expect("publish within budget");
        assert_eq!(report.epoch, round + 1);
        assert!(report.graph_write > 0, "a publish must write the snapshot");
        assert_eq!(
            report.traffic.graph_write, report.graph_write,
            "publish writes land on the publish's own scope, word-exactly"
        );
    }

    stop.store(true, Ordering::Relaxed);
    let served: u64 = readers.into_iter().map(|r| r.join().expect("reader")).sum();
    assert!(served > 0);

    let stats = service.stats();
    assert_eq!(stats.publishes, PUBLISHES);
    assert_eq!(stats.epoch, PUBLISHES);
    assert_eq!(service.epoch(), PUBLISHES);
    // Post-publish answers carry the final epoch.
    assert_eq!(service.query(Query::Bfs { src: 0 }).epoch, PUBLISHES);

    drop(service);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The write budget gates *before* the flush: a refused publish writes no
/// file, leaves the epoch alone, and keeps serving the old snapshot.
#[test]
fn publish_budget_refuses_before_writing() {
    let dir = std::env::temp_dir().join(format!("sage-live-budget-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = dir.join("refused.sage");

    let service = ServiceBuilder::new()
        .workers(1)
        .publish_budget_words(8) // far below any real snapshot
        .start(gen::path(64));
    let before = service.query(Query::Bfs { src: 0 });

    match service.publish_updates(&[EdgeUpdate::insert(0, 63)], &path) {
        Err(PublishError::BudgetExceeded(e)) => {
            assert_eq!(e.budget, 8);
            assert!(e.needed > e.budget);
        }
        other => panic!("expected a budget refusal, got {other:?}"),
    }
    assert!(!path.exists(), "a refused publish must write nothing");
    assert_eq!(service.epoch(), 0, "a refused publish must not advance");
    assert_eq!(service.stats().publishes, 0);
    let after = service.query(Query::Bfs { src: 0 });
    assert_eq!(after.response, before.response, "old snapshot still serves");
    assert_eq!(after.epoch, 0);

    let _ = std::fs::remove_dir_all(&dir);
}

/// Round trip: a published delete changes answers, the new answers carry
/// the new epoch, and results cached under the old epoch are invalidated
/// rather than leaking across the publish.
#[test]
fn published_updates_change_answers_and_invalidate_the_cache() {
    let dir = std::env::temp_dir().join(format!("sage-live-roundtrip-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");

    let service = ServiceBuilder::new()
        .workers(1)
        .cache_bytes(1 << 20)
        .start(gen::path(8)); // 0-1-2-...-7
    let q = Query::Bfs { src: 0 };

    let fresh = service.query(q.clone());
    let Response::Bfs { reached, .. } = fresh.response else {
        panic!("expected a BFS response");
    };
    assert_eq!((reached, fresh.epoch), (8, 0));
    let warm = service.query(q.clone());
    assert_eq!(
        warm.traffic.graph_read, 0,
        "second hit comes from the cache"
    );
    assert_eq!(
        warm.epoch, 0,
        "cache hits keep the epoch they were keyed by"
    );

    // Cut the path in half; the publish swaps in the compacted snapshot.
    let report = service
        .publish_updates(&[EdgeUpdate::delete(3, 4)], &dir.join("cut.sage"))
        .expect("publish within (unlimited) budget");
    assert_eq!(report.epoch, 1);

    let after = service.query(q.clone());
    assert!(
        after.traffic.graph_read > 0,
        "the stale cached answer must not survive the publish"
    );
    let Response::Bfs { reached, .. } = after.response else {
        panic!("expected a BFS response");
    };
    assert_eq!(
        (reached, after.epoch),
        (4, 1),
        "the delete halved the reach"
    );

    let _ = std::fs::remove_dir_all(&dir);
}
