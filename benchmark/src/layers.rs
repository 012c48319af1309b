//! Per-layer micro-measurements of the traced pass: each times calls into one
//! crate's public functions on this run's own graph, so a layer's number can
//! be set beside the end-to-end metric it should move (README, "How the
//! metrics interact"). Nothing here runs in the untraced pass.

use crate::inputs;
use crate::repr::Repr;
use crate::setup::Context;
use crate::spec::{self, Metrics};
use crate::stats::best_of;
use crate::trace::SpanId;
use sage_baselines::{galois_like, gbbs, semi_external};
use sage_core::algo::{bfs, msbfs, pagerank};
use sage_core::{EdgeMapOpts, SparseImpl, Strategy};
use sage_graph::{CompressedCsr, Graph, ShardRepr, Sharded, ShardedCsr, V};
use sage_nvram::{meter, MeterScope, NvRegion};
use sage_parallel as par;
use sage_serve::queue::{Pending, RequestQueue};
use sage_serve::{BatchPolicy, CacheKey, Query, Response, ResultCache, SchedPolicy};
use std::hint::black_box;
use std::time::Instant;

/// Best-of-`reps` seconds of `f`, each repetition a span under `parent`.
fn best_secs<T>(
    ctx: &Context<'_, impl Repr>,
    name: &'static str,
    parent: Option<SpanId>,
    reps: usize,
    mut f: impl FnMut() -> T,
) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let (out, secs) = ctx.tracer.time(name, parent, |_| f());
            black_box(out);
            secs
        })
        .collect();
    best_of(&samples)
}

/// `sage-parallel`: fork-join overhead, streaming bandwidth, scan rate, and
/// what the second core buys PageRank.
pub fn parallel<R: Repr>(ctx: &Context<'_, R>, smoke: bool, m: &mut Metrics) {
    let span = ctx.tracer.begin("layer.parallel", None);
    let shrink = if smoke { 64 } else { 1 };

    const JOINS: usize = 100_000;
    let join_s = best_secs(ctx, "parallel.join", span, 3, || {
        // From inside the pool, so this is the fork-join itself and not the
        // injection of an outside thread's job.
        par::global_pool().install(|| {
            for _ in 0..JOINS / shrink {
                black_box(par::join(|| black_box(1u64), || black_box(2u64)));
            }
        })
    });
    m.put("parallel.join_ns", join_s * 1e9 / (JOINS / shrink) as f64);

    // 64 MB: sixteen times one core's L2, far below this box's shared L3 —
    // so this is cache bandwidth here, and says so in the README.
    let array: Vec<u64> = (0..(8usize << 20) / shrink).map(|i| i as u64).collect();
    let sum_s = best_secs(ctx, "parallel.par_for", span, 3, || {
        par::reduce_add(0, array.len(), |i| array[i])
    });
    m.put(
        "parallel.par_for_gbps",
        (array.len() * 8) as f64 / sum_s / 1e9,
    );
    drop(array);

    let elems = (16usize << 20) / shrink;
    let mut data = vec![1u64; elems];
    let scan_s = best_secs(ctx, "parallel.scan", span, 2, || par::scan_add(&mut data));
    m.put("parallel.scan_melems_per_s", elems as f64 / scan_s / 1e6);
    drop(data);

    // The plain single-threaded baseline of the same problem.
    let g: &R = &ctx.snapshot;
    let p = vec![1.0 / g.num_vertices() as f64; g.num_vertices()];
    let single = par::Pool::new(1);
    let t1 = best_secs(ctx, "parallel.pagerank_1thread", span, 3, || {
        single.install(|| pagerank::pagerank_iteration(g, &p).1)
    });
    let tp = best_secs(ctx, "parallel.pagerank_pool", span, 3, || {
        pagerank::pagerank_iteration(g, &p).1
    });
    m.put("parallel.pagerank_speedup", t1 / tp);
    ctx.tracer.end(span);
}

fn sum_bytes(bytes: &[u8]) -> u64 {
    const BLOCK: usize = 1 << 16;
    par::reduce_add(0, bytes.len().div_ceil(BLOCK), |b| {
        let block = &bytes[b * BLOCK..((b + 1) * BLOCK).min(bytes.len())];
        block
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("chunks_exact(8)")))
            .fold(0u64, u64::wrapping_add)
    })
}

/// `sage-nvram`: mapping cost, the sequential-read roofline over the mapped
/// snapshot, and what one meter charge costs.
pub fn nvram<R: Repr>(ctx: &Context<'_, R>, m: &mut Metrics) -> std::io::Result<f64> {
    let span = ctx.tracer.begin("layer.nvram", None);
    let files = ctx.snapshot.files(&ctx.path);
    let mut regions = Vec::new();
    let (opened, map_s) = ctx.tracer.time("nvram.map", span, |_| {
        files.iter().map(|f| NvRegion::open(f)).collect::<Vec<_>>()
    });
    for r in opened {
        regions.push(r?);
    }
    m.put("nvram.map_ms", map_s * 1e3);
    let bytes: usize = regions.iter().map(|r| r.len()).sum();
    let pass = || -> u64 { regions.iter().map(|r| sum_bytes(r.bytes())).sum() };
    // The mapping is fresh, so the first pass also pays its page faults (the
    // file itself is in the page cache: set-up has just written it).
    let (first, first_s) = ctx.tracer.time("nvram.first_touch", span, |_| pass());
    let warm_s = best_secs(ctx, "nvram.seq_read", span, 3, || {
        assert_eq!(pass(), first, "the mapping changed under a reader");
    });
    let roofline = bytes as f64 / warm_s / 1e9;
    eprintln!(
        "  nvram.seq_read_gbps is computed: {bytes} mapped bytes per pass over the wall time of \
         a parallel sum (cache misses not counted)"
    );
    m.put("nvram.first_touch_gbps", bytes as f64 / first_s / 1e9);
    m.put("nvram.seq_read_gbps", roofline);

    const CHARGES: u64 = 1 << 20;
    let scope = MeterScope::new();
    let charge_s = best_secs(ctx, "nvram.meter", span, 3, || {
        scope.enter(|| {
            for _ in 0..CHARGES {
                meter::graph_read(black_box(1));
            }
        })
    });
    assert_eq!(scope.snapshot().graph_read, 3 * CHARGES);
    m.put("nvram.meter_ns_per_charge", charge_s * 1e9 / CHARGES as f64);
    ctx.tracer.end(span);
    Ok(roofline)
}

/// `sage-graph`: building, encoding and scanning the representations.
pub fn graph<R: Repr>(ctx: &Context<'_, R>, m: &mut Metrics) {
    let span = ctx.tracer.begin("layer.graph", None);
    let g: &R = &ctx.snapshot;
    let (n, edges) = (g.num_vertices(), g.num_edges() as f64);
    m.put("graph.bytes_per_edge", g.size_bytes() as f64 / edges);

    // Every edge of the snapshot through the `Graph` trait, as `edge_map`
    // reads it (a decode on the compressed representation, shard routing on
    // the sharded one).
    let scan_s = best_secs(ctx, "graph.scan", span, 3, || {
        par::reduce_add(0, n, |v| {
            let mut acc = 0u64;
            g.for_each_edge(v as V, |d, _| acc = acc.wrapping_add(d as u64));
            acc
        })
    });
    m.put("graph.raw_scan_medges_per_s", edges / scan_s / 1e6);

    let (compressed, compress_s) = ctx.tracer.time("graph.compress", span, |_| {
        CompressedCsr::from_csr(&ctx.csr, spec::COMPRESS_BLOCK)
    });
    m.put("graph.compress_s", compress_s);
    let word_s = best_secs(ctx, "graph.decode", span, 3, || {
        compressed.decode_checksum()
    });
    let byte_s = best_secs(ctx, "graph.decode_per_byte", span, 3, || {
        compressed.decode_checksum_per_byte()
    });
    m.put("graph.decode_medges_per_s", edges / word_s / 1e6);
    m.put("graph.decode_per_byte_medges_per_s", edges / byte_s / 1e6);
    drop(compressed);

    let (sharded, shard_s) = ctx.tracer.time("graph.shard_build", span, |_| {
        ShardedCsr::from_csr(&ctx.csr, spec::SHARDS)
    });
    m.put("graph.shard_build_s", shard_s);
    let shard_edges: Vec<usize> = (0..sharded.num_shards())
        .map(|s| match sharded.shard(s) {
            ShardRepr::Plain(c) => c.num_edges(),
            ShardRepr::Compressed(c) => c.num_edges(),
        })
        .collect();
    let mean = edges / shard_edges.len() as f64;
    let max = shard_edges.iter().copied().max().unwrap_or(0) as f64;
    m.put("graph.shard_edge_imbalance", max / mean);
    ctx.tracer.end(span);
}

/// `sage-core`: BFS with each traversal strategy forced, and the bit-parallel
/// multi-source BFS against the single-source runs it replaces.
pub fn core<R: Repr>(ctx: &Context<'_, R>, m: &mut Metrics) {
    let span = ctx.tracer.begin("layer.core", None);
    let g: &R = &ctx.snapshot;
    let src = ctx.oracle.sources[0];
    let forced = |strategy, sparse_impl| EdgeMapOpts {
        strategy,
        sparse_impl,
        ..EdgeMapOpts::default()
    };
    for (name, opts) in [
        (
            "core.bfs_dense_ms",
            forced(Strategy::ForceDense, SparseImpl::Chunked),
        ),
        (
            "core.bfs_chunked_ms",
            forced(Strategy::ForceSparse, SparseImpl::Chunked),
        ),
        (
            "core.bfs_blocked_ms",
            forced(Strategy::ForceSparse, SparseImpl::Blocked),
        ),
        (
            "core.bfs_sparse_ms",
            forced(Strategy::ForceSparse, SparseImpl::Sparse),
        ),
    ] {
        let s = best_secs(ctx, name, span, 3, || bfs::bfs_with_opts(g, src, opts));
        m.put(name, s * 1e3);
    }

    let sources: Vec<V> = inputs::reader_sources(&ctx.oracle.giant, ctx.seed)
        .take(msbfs::MAX_SOURCES.min(ctx.oracle.giant.len()))
        .collect();
    let (ms, ms_s) = ctx
        .tracer
        .time("core.msbfs64", span, |_| msbfs::msbfs_levels(g, &sources));
    let (singles, singles_s) = ctx.tracer.time("core.bfs_x64", span, |_| {
        sources
            .iter()
            .map(|&s| bfs::bfs_levels(g, s).0)
            .collect::<Vec<_>>()
    });
    ctx.tally.check(ms.levels == singles, || {
        "msbfs_levels differs from per-source bfs_levels".to_string()
    });
    m.put("core.msbfs64_ms", ms_s * 1e3);
    m.put("core.msbfs_speedup", singles_s / ms_s);
    ctx.tracer.end(span);
}

/// `sage-serve` pieces on their own: the request queue and the result cache,
/// no service around them.
pub fn serve_parts<R: Repr>(ctx: &Context<'_, R>, m: &mut Metrics) {
    let span = ctx.tracer.begin("layer.serve_parts", None);
    let n = ctx.snapshot.num_vertices();

    const BATCH: usize = 32;
    const ROUNDS: usize = 2000;
    let queue = RequestQueue::new(BATCH * 2);
    let policy = BatchPolicy {
        max_batch: BATCH,
        ..BatchPolicy::default()
    };
    let sched = SchedPolicy::default();
    let queue_s = best_secs(ctx, "serve.queue", span, 3, || {
        for round in 0..ROUNDS {
            for i in 0..BATCH {
                let src = ((round * BATCH + i) % n) as V;
                // The ticket is dropped unredeemed: only the queue is timed.
                let (pending, _ticket) = Pending::new(i as u64, Query::Bfs { src });
                queue.push(pending);
            }
            let batch = queue.pop_batch(&policy, &sched).expect("queue is open");
            assert_eq!(batch.len(), BATCH);
        }
    });
    m.put(
        "serve.queue_ns_per_op",
        queue_s * 1e9 / (ROUNDS * BATCH) as f64,
    );

    // A BFS-sized response: n level words.
    const ENTRIES: usize = 16;
    let response = Response::Bfs {
        levels: vec![1; n],
        reached: n,
    };
    let keys =
        |epoch| (0..ENTRIES).map(move |i| CacheKey::new(&Query::Bfs { src: (i % n) as V }, epoch));
    let cache = ResultCache::new(u64::MAX);
    let insert_s = best_secs(ctx, "serve.cache_insert", span, 1, || {
        for key in keys(0) {
            cache.insert(key, &response);
        }
    });
    let get_s = best_secs(ctx, "serve.cache_get", span, 3, || {
        for key in keys(0) {
            assert!(cache.get(&key).is_some());
        }
    });
    m.put("serve.cache_insert_us", insert_s * 1e6 / ENTRIES as f64);
    m.put("serve.cache_get_ns", get_s * 1e9 / ENTRIES as f64);
    ctx.tracer.end(span);
}

/// `sage-baselines`: the paper's comparators on this run's snapshot. No
/// optimisation of Sage should move these — if they move, the machine moved.
pub fn baselines<R: Repr>(ctx: &Context<'_, R>, m: &mut Metrics) -> std::io::Result<()> {
    let span = ctx.tracer.begin("layer.baselines", None);
    let g: &R = &ctx.snapshot;
    let src = ctx.oracle.sources[0];

    let scope = MeterScope::new();
    let gbbs_s = best_secs(ctx, "baselines.gbbs.bfs", span, 3, || {
        scope.enter(|| bfs::bfs_with_opts(g, src, gbbs::gbbs_opts()))
    });
    m.put("baselines.gbbs.bfs_ms", gbbs_s * 1e3);
    m.put(
        "baselines.gbbs.bfs_aux_write_words",
        scope.snapshot().aux_write as f64 / 3.0,
    );

    let galois_bfs_s = best_secs(ctx, "baselines.galois.bfs", span, 3, || {
        galois_like::bfs(g, src)
    });
    m.put("baselines.galois.bfs_ms", galois_bfs_s * 1e3);
    let (_, galois_pr_s) = ctx.tracer.time("baselines.galois.pagerank", span, |_| {
        black_box(galois_like::pagerank(g, 0.0, spec::PAGERANK_ITERS))
    });
    m.put("baselines.galois.pagerank_s", galois_pr_s);
    let (labels, galois_cc_s) = ctx.tracer.time("baselines.galois.cc", span, |_| {
        galois_like::connectivity(g)
    });
    ctx.tally.check(ctx.oracle.partition_ok(&labels), || {
        "galois-like connectivity differs from seq::components".to_string()
    });
    m.put("baselines.galois.cc_s", galois_cc_s);

    let grid = ctx.dir.join("grid");
    semi_external::GridFile::build(g, 4, &grid)?;
    let engine = semi_external::GridEngine::open(&grid)?;
    let began = Instant::now();
    let parents = engine.bfs(src)?;
    let ext_bfs_s = began.elapsed().as_secs_f64();
    ctx.tracer.record(
        "baselines.semi_external.bfs",
        began,
        Instant::now(),
        span,
        None,
        &[("bytes_read", engine.bytes_read())],
    );
    let reached = parents.iter().filter(|&&p| p != sage_graph::NONE_V).count();
    ctx.tally.check(reached == ctx.oracle.giant.len(), || {
        format!("semi-external bfs reached {reached} vertices")
    });
    m.put("baselines.semi_external.bfs_ms", ext_bfs_s * 1e3);
    let n = g.num_vertices();
    let p = vec![1.0 / n as f64; n];
    let degree: Vec<u32> = (0..n as V).map(|v| g.degree(v) as u32).collect();
    let began = Instant::now();
    black_box(engine.pagerank_iteration(&p, &degree)?);
    let ext_pr_s = began.elapsed().as_secs_f64();
    ctx.tracer.record(
        "baselines.semi_external.pagerank_iter",
        began,
        Instant::now(),
        span,
        None,
        &[],
    );
    m.put("baselines.semi_external.pagerank_iter_s", ext_pr_s);
    drop(engine);
    // The grid file is scratch; failing to delete it is not a result.
    let _ = std::fs::remove_file(&grid);
    ctx.tracer.end(span);
    Ok(())
}
