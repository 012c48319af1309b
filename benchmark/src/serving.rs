//! The client's sections: point lookups through `sage-serve`.
//!
//! * [`backlog`] — two closed-loop clients each keep a window of outstanding
//!   `Query::Bfs` tickets with distinct sources (the cache is off and would
//!   miss anyway) and redeem them in order. A standing backlog is where
//!   batch formation and `msbfs` earn their keep; queue wait is there by
//!   construction, so only throughput is read.
//! * [`latency`] — an **open-loop** generator issues lookups at a fixed rate
//!   with Zipf-distributed sources, timing each from when it was *due* and
//!   observing completion by polling; beside it a closed-loop client keeps
//!   a few analytics requests outstanding. Here scheduling, linger,
//!   admission and wake-up dominate and the engine run is the minority.
//!
//! Load is generated by at most two threads of this process, which on a
//! two-core box compete with the service for the processor; that is stated
//! rather than hidden, and it is the same on both sides of any comparison.

use crate::inputs;
use crate::oracle::{self, levels_checksum};
use crate::repr::{Repr, Served};
use crate::setup::Context;
use crate::spec::{self, Metrics};
use crate::stats;
use crate::trace::SpanId;
use sage_core::algo::bfs;
use sage_graph::V;
use sage_serve::{Query, QueryResult, Response, ServiceBuilder, ServiceStats, Ticket};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Serving workers of every service the benchmark starts.
pub const WORKERS: usize = 2;
/// Closed-loop backlog clients.
const BACKLOG_CLIENTS: u64 = 2;
/// Served lookups re-run as direct engine calls after each section.
const VERIFY_SAMPLE: usize = 12;
/// The analytics client's requests are full k-core decompositions, one kind
/// per window slot, whose thresholds differ so that the serving layer never
/// merges two of them into one engine run (same-parameter batching keys on
/// `k`); a threshold no coreness reaches peels the whole graph, so every
/// request is the same work. The issue alternated PageRank and k-core with
/// equal parameters. Two things made that unrepeatable: whether two equal
/// requests happened to be queued together (and so shared a run) changed
/// the analytics rate by a third, and alternating 20 ms and 100 ms jobs
/// left the lookups' tail to the phase the two kinds happened to settle in
/// (p90 spread 17-21 % over ten seeds, against 5 % with one kind).
fn analytics_query(slot: usize, vertices: Vec<V>) -> Query {
    Query::KCore {
        k: Some(u32::MAX - slot as u32),
        vertices,
    }
}

/// Share of the latency section spent settling: the service reaches its
/// steady state (a standing analytics backlog, a steady number of lookups
/// in flight) about a second after the lookups start, and latencies read
/// before that are those of an emptier system.
const SETTLE_SHARE: f64 = 0.2;

/// One completed point lookup, as its client saw it.
#[derive(Clone, Copy, Debug)]
pub struct Lookup {
    /// BFS source.
    pub src: V,
    /// Client-side latency: due (open loop) or submit (closed loop) to
    /// observed completion, seconds.
    pub latency_s: f64,
    /// `QueryResult.seconds`: the engine run that answered it.
    pub engine_s: f64,
    /// When the completion was observed.
    pub done: Instant,
    /// Checksum of the returned levels.
    pub checksum: u64,
    /// Graph words attributed to it (0 for a cache hit).
    pub graph_read: u64,
    /// Epoch that answered it.
    pub epoch: u64,
    /// Per-shard graph words (empty on monolithic services).
    pub shard_reads: [u64; spec::SHARDS],
}

/// Check a served BFS result cheaply, fold it into a [`Lookup`] and record
/// its spans (`serve.request` with a child `serve.engine` reconstructed from
/// `QueryResult.seconds`, placed at the end of the request).
pub fn complete<R: Repr>(
    ctx: &Context<'_, R>,
    parent: Option<SpanId>,
    src: V,
    from: Instant,
    done: Instant,
    r: QueryResult,
) -> Lookup {
    ctx.tally
        .check(oracle::bfs_response_ok(&ctx.oracle, src, &r), || {
            format!("served bfs from {src} failed its invariants")
        });
    let checksum = match &r.response {
        Response::Bfs { levels, .. } => levels_checksum(levels),
        _ => 0,
    };
    let counts = [("graph_read_words", r.traffic.graph_read)];
    let req = ctx
        .tracer
        .record("serve.request", from, done, parent, Some(r.id), &counts);
    let engine = Duration::from_secs_f64(r.seconds.max(0.0));
    let engine_start = done.checked_sub(engine).unwrap_or(from).max(from);
    ctx.tracer
        .record("serve.engine", engine_start, done, req, Some(r.id), &[]);
    let mut shard_reads = [0u64; spec::SHARDS];
    for (slot, s) in shard_reads.iter_mut().zip(&r.per_shard) {
        *slot = s.graph_read;
    }
    Lookup {
        src,
        latency_s: (done - from).as_secs_f64(),
        engine_s: r.seconds,
        done,
        checksum,
        graph_read: r.traffic.graph_read,
        epoch: r.epoch,
        shard_reads,
    }
}

/// Re-run an evenly spaced sample of served lookups as direct engine calls
/// on `g` — the snapshot that answered them — and compare checksums.
pub fn verify_sample<R: Repr>(ctx: &Context<'_, R>, g: &R, lookups: &[Lookup]) {
    let step = lookups.len().div_ceil(VERIFY_SAMPLE).max(1);
    for l in lookups.iter().step_by(step) {
        let (levels, _) = bfs::bfs_levels(g, l.src);
        ctx.tally.check(levels_checksum(&levels) == l.checksum, || {
            format!(
                "served bfs from {} differs from the direct engine call",
                l.src
            )
        });
    }
}

/// What the backlog section measured.
pub struct BacklogReading {
    /// Lookups completed inside the timed window.
    pub lookups: Vec<Lookup>,
    /// Length of the timed window, seconds.
    pub seconds: f64,
    /// Service counters at the end of the section.
    pub stats: ServiceStats,
}

/// Run the backlog section for `seconds`.
pub fn backlog<R: Repr>(ctx: &Context<'_, R>, seconds: f64) -> BacklogReading {
    let span = ctx.tracer.begin("section.backlog", None);
    let service = R::serve(
        ServiceBuilder::throughput().workers(WORKERS).cache_bytes(0),
        ctx.snapshot.clone(),
    );
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    // sage-lint: allow(thread-spawn) -- closed-loop load generator: each thread is one client of the service
    let per_client: Vec<Vec<Lookup>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..BACKLOG_CLIENTS)
            .map(|client| {
                let service = &service;
                s.spawn(move || backlog_client(ctx, service, client, deadline, span))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("backlog client panicked"))
            .collect()
    });
    let stats = service.stats();
    drop(service);
    let all: Vec<Lookup> = per_client.into_iter().flatten().collect();
    verify_sample(ctx, &ctx.snapshot, &all);
    ctx.tracer.end(span);
    BacklogReading {
        lookups: all.into_iter().filter(|l| l.done <= deadline).collect(),
        seconds,
        stats,
    }
}

fn backlog_client<R: Repr>(
    ctx: &Context<'_, R>,
    service: &R::Service,
    client: u64,
    deadline: Instant,
    parent: Option<SpanId>,
) -> Vec<Lookup> {
    let mut sources = inputs::backlog_sources(&ctx.oracle.giant, ctx.seed, client);
    let mut window: VecDeque<(V, Instant, Ticket)> = VecDeque::new();
    let mut done = Vec::new();
    loop {
        while window.len() < spec::BACKLOG_WINDOW && Instant::now() < deadline {
            let src = sources.next().expect("the source stream is endless");
            let at = Instant::now();
            window.push_back((src, at, service.submit(Query::Bfs { src })));
        }
        // Redeem in order; lookups still outstanding at the deadline are
        // drained and checked but fall outside the timed window.
        let Some((src, at, ticket)) = window.pop_front() else {
            return done;
        };
        let r = ticket.wait();
        done.push(complete(ctx, parent, src, at, Instant::now(), r));
    }
}

/// The end-to-end metric of the backlog section.
pub fn backlog_end_to_end(b: &BacklogReading, m: &mut Metrics) {
    m.put("point_qps", b.lookups.len() as f64 / b.seconds);
}

/// The per-layer metrics of the backlog section: how well batches formed and
/// what a lookup cost in graph words.
pub fn backlog_per_layer(b: &BacklogReading, m: &mut Metrics) {
    let runs = b.stats.batches.max(1) as f64;
    m.put("serve.mean_batch", b.stats.completed as f64 / runs);
    m.put("serve.peak_batch", b.stats.peak_batch as f64);
    m.put("serve.engine_runs", b.stats.batches as f64);
    let words: u64 = b.lookups.iter().map(|l| l.graph_read).sum();
    m.put(
        "serve.words_per_point",
        words as f64 / b.lookups.len().max(1) as f64,
    );
}

/// What the latency section measured.
pub struct LatencyReading {
    /// Every open-loop lookup, in completion order.
    pub lookups: Vec<Lookup>,
    /// Analytics requests completed inside the timed window.
    pub analytics_completed: u64,
    /// Length of the timed window, seconds.
    pub seconds: f64,
    /// Wall-clock cost of each `submit` call, seconds.
    pub submit_s: Vec<f64>,
    /// How late the generator issued its latest request, seconds.
    pub late_max_s: f64,
    /// Service counters at the end of the section.
    pub stats: ServiceStats,
}

/// Run the latency section for `seconds` at `rate` lookups per second.
pub fn latency<R: Repr>(ctx: &Context<'_, R>, seconds: f64, rate: f64) -> LatencyReading {
    let span = ctx.tracer.begin("section.latency", None);
    let g: &R = &ctx.snapshot;
    let kmax = ctx.oracle.coreness.iter().copied().max().unwrap_or(0);
    let count = (seconds * rate).round().max(1.0) as usize;
    let sources = inputs::zipf_sources(&ctx.oracle.giant, count, ctx.seed);
    // The interactive preset, but with admission priced a priori. With the
    // preset's measured admission on, this section has two regimes (a lookup
    // median near 30 ms or near 130 ms at scale 16, analytics throughput a
    // third apart) and flips between them every few seconds, so that nothing
    // read here repeats; priced a priori it repeats within a few per cent.
    // README, "What the pilot found", has the numbers.
    let service = R::serve(
        ServiceBuilder::interactive()
            .workers(WORKERS)
            .measured_admission(false),
        ctx.snapshot.clone(),
    );
    let stop = AtomicBool::new(false);
    let analytics_done = AtomicU64::new(0);
    // sage-lint: allow(thread-spawn) -- load generators: one open-loop lookup client, one closed-loop analytics client
    let (generated, analytics_completed) = std::thread::scope(|s| {
        let (service, stop, analytics_done) = (&service, &stop, &analytics_done);
        let analyst = s.spawn(move || {
            let check = |query: &Query, r: &QueryResult| {
                let ok = oracle::reader_ok(r)
                    && matches!(&r.response, Response::KCore { coreness, kmax: k }
                        if *k == kmax
                            && coreness
                                .iter()
                                .all(|&(v, c)| c == ctx.oracle.coreness[v as usize]));
                ctx.tally.check(ok, || {
                    format!(
                        "served {} differs from the direct engine call",
                        query.label()
                    )
                });
            };
            analytics_client(ctx, service, stop, analytics_done, span, check)
        });
        // The lookups start into a standing analytics backlog, not an idle
        // service: wait until the analytics client has turned its window
        // over once.
        // ORDERING: Relaxed — a progress counter; nothing is read through it.
        while analytics_done.load(Ordering::Relaxed) < spec::ANALYTICS_WINDOW as u64 {
            std::thread::sleep(Duration::from_millis(1));
        }
        let start = Instant::now();
        let settle = (sources.len() as f64 * SETTLE_SHARE).round() as usize;
        let generated = open_loop(ctx, service, &sources, settle, rate, start, span);
        // ORDERING: Relaxed — a stop flag polled by one thread; the join
        // below is the synchronization point for everything it wrote.
        stop.store(true, Ordering::Relaxed);
        let (from, to) = (
            start + Duration::from_secs_f64(seconds * SETTLE_SHARE),
            start + Duration::from_secs_f64(seconds),
        );
        let completions = analyst.join().expect("analytics client panicked");
        let in_window = completions
            .iter()
            .filter(|&&t| from <= t && t <= to)
            .count() as u64;
        (generated, in_window)
    });
    let stats = service.stats();
    drop(service);
    let (lookups, submit_s, late_max_s) = generated;
    // Cache hits return the response cached by an earlier engine run, so the
    // sample covers both paths.
    verify_sample(ctx, g, &lookups);
    ctx.tracer.end(span);
    LatencyReading {
        lookups,
        analytics_completed,
        seconds: seconds * (1.0 - SETTLE_SHARE),
        submit_s,
        late_max_s,
        stats,
    }
}

/// The open-loop generator: request `i` is due at `start + i/rate` whatever
/// the service is doing, and is timed from that instant. Completion is
/// observed by polling every outstanding ticket at most 100 µs apart.
fn open_loop<R: Repr>(
    ctx: &Context<'_, R>,
    service: &R::Service,
    sources: &[V],
    settle: usize,
    rate: f64,
    start: Instant,
    parent: Option<SpanId>,
) -> (Vec<Lookup>, Vec<f64>, f64) {
    let due = |i: usize| start + Duration::from_secs_f64(i as f64 / rate);
    let mut outstanding: Vec<(usize, Instant, Ticket)> = Vec::new();
    let mut lookups = Vec::with_capacity(sources.len());
    let mut submit_s = Vec::with_capacity(sources.len());
    let mut late_max_s = 0.0f64;
    let mut next = 0;
    while next < sources.len() || !outstanding.is_empty() {
        while next < sources.len() && due(next) <= Instant::now() {
            let src = sources[next];
            let before = Instant::now();
            let ticket = service.submit(Query::Bfs { src });
            submit_s.push(before.elapsed().as_secs_f64());
            late_max_s = late_max_s.max((before - due(next)).as_secs_f64());
            outstanding.push((next, due(next), ticket));
            next += 1;
        }
        let mut i = 0;
        while i < outstanding.len() {
            if outstanding[i].2.is_ready() {
                let (index, from, ticket) = outstanding.swap_remove(i);
                let r = ticket.wait();
                let lookup = complete(ctx, parent, sources[index], from, Instant::now(), r);
                // Lookups due while the queues were still filling are
                // served and checked but not counted.
                if index >= settle {
                    lookups.push(lookup);
                }
            } else {
                i += 1;
            }
        }
        let now = Instant::now();
        let mut wake = now + Duration::from_micros(100);
        if next < sources.len() {
            wake = wake.min(due(next));
        }
        if wake > now && !(next == sources.len() && outstanding.is_empty()) {
            std::thread::sleep(wake - now);
        }
    }
    (lookups, submit_s, late_max_s)
}

/// The closed-loop analytics client: keeps [`spec::ANALYTICS_WINDOW`]
/// requests outstanding, refilling each slot as soon as it completes, until
/// told to stop; returns when each request completed.
fn analytics_client<R: Repr>(
    ctx: &Context<'_, R>,
    service: &R::Service,
    stop: &AtomicBool,
    done_count: &AtomicU64,
    parent: Option<SpanId>,
    check: impl Fn(&Query, &QueryResult),
) -> Vec<Instant> {
    let n = ctx.snapshot.num_vertices();
    let mut slots: Vec<Option<(Query, Instant, Ticket)>> =
        (0..spec::ANALYTICS_WINDOW).map(|_| None).collect();
    let mut issued = 0u64;
    let mut completed = Vec::new();
    loop {
        // ORDERING: Relaxed — see the store in `latency`.
        let stopping = stop.load(Ordering::Relaxed);
        for (kind, slot) in slots.iter_mut().enumerate() {
            if let Some((query, at, ticket)) = slot.take_if(|(_, _, t)| t.is_ready()) {
                let r = ticket.wait();
                let done = Instant::now();
                check(&query, &r);
                ctx.tracer
                    .record("serve.analytics", at, done, parent, Some(r.id), &[]);
                completed.push(done);
                // ORDERING: Relaxed — see the load in `latency`.
                done_count.fetch_add(1, Ordering::Relaxed);
            }
            if slot.is_none() && !stopping {
                let vertices = inputs::analytics_report(n, ctx.seed, issued);
                issued += 1;
                let query = analytics_query(kind, vertices);
                *slot = Some((query.clone(), Instant::now(), service.submit(query)));
            }
        }
        if stopping && slots.iter().all(Option::is_none) {
            return completed;
        }
        // Requests take a tenth of a second; a millisecond's delay in
        // refilling a slot is nothing, and a faster poll is processor time
        // taken from the service.
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// The tail percentile of the latency section. One level for every workload,
/// so that the metric is the same quantity on every row: p90 is the highest
/// of the usual ladder that has at least ten samples beyond it on all five
/// (the sharded row counts 163 lookups; serve-latency's 748 would support
/// p95, and the run prints what each sample supports).
const TAIL: f64 = 90.0;

/// The end-to-end metrics of the latency section.
pub fn latency_end_to_end(l: &LatencyReading, m: &mut Metrics) {
    let ms: Vec<f64> = l.lookups.iter().map(|x| x.latency_s * 1e3).collect();
    eprintln!(
        "  point latency: {} lookups (enough for p{}), generator at most {:.3} ms late",
        ms.len(),
        stats::supported_percentile(ms.len(), 10),
        l.late_max_s * 1e3
    );
    m.put("point_p50_ms", stats::median(&ms));
    m.put("point_p90_ms", stats::percentile(&ms, TAIL));
    m.put("analytics_qps", l.analytics_completed as f64 / l.seconds);
}

/// The per-layer metrics of the latency section: where a lookup's time went
/// (submit, engine, everything else) and what the scheduler and cache did.
pub fn latency_per_layer(l: &LatencyReading, m: &mut Metrics) {
    let us: Vec<f64> = l.submit_s.iter().map(|s| s * 1e6).collect();
    m.put("serve.submit_us", stats::median(&us));
    // Engine time and wait are read off the lookups an engine run answered;
    // a cache hit has neither.
    let ran: Vec<&Lookup> = l.lookups.iter().filter(|x| x.graph_read > 0).collect();
    let engine: Vec<f64> = ran.iter().map(|x| x.engine_s * 1e3).collect();
    let wait: Vec<f64> = ran
        .iter()
        .map(|x| (x.latency_s - x.engine_s).max(0.0) * 1e3)
        .collect();
    m.put("serve.engine_ms_p50", stats::median(&engine));
    m.put("serve.wait_ms_p50", stats::median(&wait));
    m.put("serve.wait_ms_p90", stats::percentile(&wait, TAIL));
    let probes = (l.stats.cache_hits + l.stats.cache_misses).max(1) as f64;
    m.put("serve.cache_hit_rate", l.stats.cache_hits as f64 / probes);
    m.put("serve.preemptions", l.stats.preemptions as f64);
    m.put("serve.aged_promotions", l.stats.aged_promotions as f64);
    m.put(
        "serve.peak_inflight_mb",
        l.stats.peak_inflight_bytes as f64 / 1e6,
    );
    m.put("serve.loadgen_late_ms_max", l.late_max_s * 1e3);
}

/// Lone lookups through an otherwise idle service against the same sources
/// as direct engine calls: what the serving layer adds when nothing queues.
pub fn idle_tax<R: Repr>(ctx: &Context<'_, R>, m: &mut Metrics) {
    let span = ctx.tracer.begin("section.idle_tax", None);
    let g: &R = &ctx.snapshot;
    let service = R::serve(
        ServiceBuilder::interactive()
            .workers(WORKERS)
            .cache_bytes(0),
        ctx.snapshot.clone(),
    );
    let mut served = Vec::new();
    let mut direct = Vec::new();
    for src in inputs::reader_sources(&ctx.oracle.giant, ctx.seed).take(VERIFY_SAMPLE) {
        let at = Instant::now();
        let r = service.submit(Query::Bfs { src }).wait();
        let lookup = complete(ctx, span, src, at, Instant::now(), r);
        served.push(lookup.latency_s * 1e3);
        let (levels, secs) = ctx
            .tracer
            .time("engine.bfs", span, |_| bfs::bfs_levels(g, src).0);
        direct.push(secs * 1e3);
        ctx.tally
            .check(levels_checksum(&levels) == lookup.checksum, || {
                format!("idle served bfs from {src} differs from the direct engine call")
            });
    }
    ctx.tracer.end(span);
    let (served, direct) = (stats::median(&served), stats::median(&direct));
    m.put("serve.idle_point_ms", served);
    m.put("serve.direct_bfs_ms", direct);
    m.put("serve.tax_ms", served - direct);
}
