//! The round-structured algorithms enter the pool **once**.
//!
//! A primitive called from a thread outside the pool is handed to a worker
//! and waited for — 14.5 µs per `join` against 36 ns between workers — and a
//! peel issues some twenty primitives in each of its hundreds of rounds. The
//! benchmark's analytics section and every serving worker call the engine
//! from plain threads, so a peel that does not open with `par::in_pool` pays
//! that hand-off thousands of times (half of k-core's time, when measured).
//! `Pool::injected_jobs` counts the hand-offs; this test holds each peel loop
//! to exactly one. It is alone in its binary: the counter is pool-wide.

use sage::algo::{densest_subgraph, kcore, set_cover, wbfs, widest_path};
use sage::core::QueryArena;
use sage::nvram::MeterScope;
use sage::parallel::{global_pool, in_worker, Pool};
use sage::{build_csr, gen, BuildOptions, Csr};

type Call<'a> = Box<dyn Fn() + Send + Sync + 'a>;

/// Every bucketed or histogram-driven loop of the engine, by name.
fn peel_loops<'a>(
    weighted: &'a Csr,
    cover: &'a Csr,
    num_sets: usize,
) -> Vec<(&'static str, Call<'a>)> {
    vec![
        ("kcore", Box::new(|| drop(kcore::kcore(weighted)))),
        (
            "kcore_bounded",
            Box::new(|| drop(kcore::kcore_bounded(weighted, Some(3)))),
        ),
        (
            "densest_subgraph",
            Box::new(|| drop(densest_subgraph::densest_subgraph(weighted, 0.1))),
        ),
        (
            "set_cover",
            Box::new(move || drop(set_cover::set_cover(cover, num_sets, 0.1, 7))),
        ),
        ("wbfs", Box::new(|| drop(wbfs::wbfs(weighted, 0)))),
        (
            "widest_path_bucketed",
            Box::new(|| drop(widest_path::widest_path_bucketed(weighted, 0))),
        ),
    ]
}

#[test]
fn peel_loops_inject_exactly_one_job_and_keep_their_context() {
    let weighted = build_csr(
        gen::rmat_edges(10, 8, gen::RmatParams::default(), 3).with_random_weights(3),
        BuildOptions::default(),
    );
    let num_sets = 64;
    let cover = gen::set_cover_instance(num_sets, 960, 3, 5);
    let loops = peel_loops(&weighted, &cover, num_sets);
    let global = global_pool();

    // From a plain thread: one hand-off per call, however many rounds.
    std::thread::scope(|s| {
        s.spawn(|| {
            assert!(!in_worker());
            for (name, call) in &loops {
                let before = global.injected_jobs();
                call();
                assert_eq!(
                    global.injected_jobs() - before,
                    1,
                    "{name} must enter the pool exactly once"
                );
            }
        });
    });

    // Already on a worker — of any pool — nothing is handed to the global one.
    let dedicated = Pool::new(1);
    let before = global.injected_jobs();
    dedicated.install(|| {
        for (_, call) in &loops {
            call();
        }
    });
    assert_eq!(
        global.injected_jobs(),
        before,
        "calls made on a worker stay on its pool"
    );
    assert_eq!(dedicated.injected_jobs(), 1, "the install itself");

    // The caller's meter scope and arena follow the call into the pool: the
    // scope sees the peel's reads, the arena gets its histogram back.
    let (scope, arena) = (MeterScope::new(), QueryArena::new());
    std::thread::scope(|s| {
        s.spawn(|| scope.enter(|| arena.enter(|| drop(kcore::kcore(&weighted)))));
    });
    let seen = scope.snapshot();
    assert!(
        seen.graph_read > 0 && seen.aux_read > 0,
        "scope saw {seen:?}"
    );
    assert_eq!(seen.graph_write, 0);
    assert_eq!(
        arena.retained_counts().2,
        1,
        "histogram released into the caller's arena"
    );
}
