//! The operator's section: edge updates published beside a reader.
//!
//! One thread is a closed-loop reader of `Query::Bfs`; the other calls
//! `publish_updates` on a fixed schedule, each batch confined to one of the
//! four edge-balanced vertex ranges (one shard, on the sharded
//! representation), each flush to a fresh path with files two epochs old
//! deleted. The same serving layers are used for writes beside reads: the
//! operator waits for `publish_s` and pays `publish_words` of NVRAM writes,
//! and the reader's rate shows what a publish costs everyone else.

use crate::inputs;
use crate::repr::{Repr, Served};
use crate::serving::{self, Lookup};
use crate::setup::Context;
use crate::spec::{self, Metrics};
use crate::stats;
use sage_core::algo::bfs;
use sage_core::{seq, DeltaOverlay, EdgeUpdate};
use sage_graph::Graph;
use sage_nvram::MeterScope;
use sage_serve::{PublishReport, Query, ServiceBuilder};
use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What the update section measured.
pub struct UpdateReading {
    /// One report per publish.
    pub reports: Vec<PublishReport>,
    /// When each publish ran.
    pub publish_spans: Vec<(Instant, Instant)>,
    /// Reader lookups completed inside the timed window.
    pub reads: Vec<Lookup>,
    /// Length of the timed window, seconds.
    pub seconds: f64,
    /// The first update batch (the replay's input).
    pub first_batch: Vec<EdgeUpdate>,
}

fn remove_files(files: &[PathBuf]) {
    for f in files {
        // A file that is already gone is what we wanted.
        let _ = std::fs::remove_file(f);
    }
}

/// Run the update section: `publishes` publishes, one every
/// [`spec::PUBLISH_INTERVAL_S`] (or back to back if one overruns).
pub fn update<R: Repr>(ctx: &Context<'_, R>, publishes: usize) -> UpdateReading {
    let span = ctx.tracer.begin("section.update", None);
    let batches: Vec<Vec<EdgeUpdate>> = (0..publishes)
        .map(|e| inputs::update_batch(&ctx.csr, e, ctx.seed))
        .collect();
    let service = R::serve(
        ServiceBuilder::interactive()
            .workers(serving::WORKERS)
            .cache_bytes(0),
        ctx.snapshot.clone(),
    );
    let interval = Duration::from_secs_f64(spec::PUBLISH_INTERVAL_S);
    let stop = AtomicBool::new(false);
    let start = Instant::now();
    let mut reports = Vec::with_capacity(publishes);
    let mut publish_spans = Vec::with_capacity(publishes);
    let mut live: VecDeque<Vec<PathBuf>> = VecDeque::new();
    // sage-lint: allow(thread-spawn) -- closed-loop reader client running beside the publisher
    let reads = std::thread::scope(|s| {
        let (service, stop) = (&service, &stop);
        let reader = s.spawn(move || {
            let mut reads = Vec::new();
            let mut sources = inputs::reader_sources(&ctx.oracle.giant, ctx.seed);
            // ORDERING: Relaxed — a stop flag; the join is the
            // synchronization point for everything the reader wrote.
            while !stop.load(Ordering::Relaxed) {
                let src = sources.next().expect("the source stream is endless");
                let at = Instant::now();
                let r = service.submit(Query::Bfs { src }).wait();
                reads.push(serving::complete(ctx, span, src, at, Instant::now(), r));
            }
            reads
        });
        for (e, batch) in batches.iter().enumerate() {
            // Half an interval of quiet first, so the reader is measured
            // both beside a publish and alone.
            let due = start + interval * e as u32 + interval / 2;
            std::thread::sleep(due.saturating_duration_since(Instant::now()));
            let path = ctx.dir.join(format!("epoch-{}", e + 1));
            let began = Instant::now();
            let outcome = service.publish_updates(batch, &path);
            let ended = Instant::now();
            ctx.tracer
                .record("serve.publish", began, ended, span, None, &[]);
            let snapshot = service.snapshot();
            ctx.tally.check(
                outcome.as_ref().is_ok_and(|r| {
                    r.epoch == e as u64 + 1
                        && r.graph_write == r.traffic.graph_write
                        && r.graph_write == snapshot.flush_words()
                }),
                || match &outcome {
                    Ok(r) => format!(
                        "publish {e}: epoch {} wrote {} words, metered {}, file holds {}",
                        r.epoch,
                        r.graph_write,
                        r.traffic.graph_write,
                        snapshot.flush_words()
                    ),
                    Err(err) => format!("publish {e} failed: {err}"),
                },
            );
            if let Ok(report) = outcome {
                reports.push(report);
                publish_spans.push((began, ended));
            }
            live.push_back(snapshot.files(&path));
            if live.len() > 2 {
                remove_files(&live.pop_front().expect("len > 2"));
            }
        }
        let window_end = start + interval * publishes as u32;
        std::thread::sleep(window_end.saturating_duration_since(Instant::now()));
        // ORDERING: Relaxed — see the reader's load.
        stop.store(true, Ordering::Relaxed);
        reader.join().expect("reader panicked")
    });
    let window_end = Instant::now();

    // The published graph must be the base plus every batch, in order: replay
    // the batches onto the plain CSR and compare traversals of the two.
    let mut overlay = DeltaOverlay::new(Arc::clone(&ctx.csr));
    for batch in &batches {
        overlay.apply(batch);
    }
    let expected = overlay.compact();
    let published = service.snapshot();
    let src = ctx.oracle.sources[0];
    let reference = seq::bfs_levels(&expected, src);
    let (direct, _) = bfs::bfs_levels(&*published, src);
    let served = service.submit(Query::Bfs { src }).wait();
    ctx.tally.check(
        published.num_edges() == expected.num_edges()
            && direct == reference
            && matches!(&served.response,
                sage_serve::Response::Bfs { levels, .. } if *levels == reference)
            && served.epoch == publishes as u64,
        || {
            "post-publish bfs differs from bfs on DeltaOverlay::compact() of the same updates"
                .into()
        },
    );
    // Reader answers came from whichever epoch was current; spot-check the
    // ones the first and the final epoch answered against those snapshots
    // (the ones in between are gone).
    let answered_by = |epoch: u64| -> Vec<Lookup> {
        reads.iter().filter(|l| l.epoch == epoch).copied().collect()
    };
    serving::verify_sample(ctx, &ctx.snapshot, &answered_by(0));
    serving::verify_sample(ctx, &published, &answered_by(publishes as u64));
    drop(published);
    drop(service);
    for files in live {
        remove_files(&files);
    }
    ctx.tracer.end(span);
    UpdateReading {
        reports,
        publish_spans,
        reads: reads.into_iter().filter(|l| l.done <= window_end).collect(),
        seconds: (window_end - start).as_secs_f64(),
        first_batch: batches.into_iter().next().unwrap_or_default(),
    }
}

/// The end-to-end metrics of the update section.
pub fn end_to_end(u: &UpdateReading, m: &mut Metrics) {
    let seconds: Vec<f64> = u.reports.iter().map(|r| r.seconds).collect();
    let words: u64 = u.reports.iter().map(|r| r.graph_write).sum();
    let shown: Vec<String> = seconds.iter().map(|s| format!("{s:.3}")).collect();
    eprintln!("  publish seconds: {}", shown.join(" "));
    m.put("publish_s", stats::median(&seconds));
    m.put(
        "publish_words",
        words as f64 / u.reports.len().max(1) as f64,
    );
    m.put("update_read_qps", u.reads.len() as f64 / u.seconds);
}

/// The reader-side per-layer metrics: latency beside a publish and alone,
/// and how evenly the sharded representation spread the reads.
pub fn reader_per_layer(u: &UpdateReading, m: &mut Metrics) {
    let in_publish = |l: &Lookup| {
        u.publish_spans
            .iter()
            .any(|&(a, b)| a <= l.done && l.done <= b)
    };
    let ms = |keep: &dyn Fn(&Lookup) -> bool| -> Vec<f64> {
        u.reads
            .iter()
            .filter(|l| keep(l))
            .map(|l| l.latency_s * 1e3)
            .collect()
    };
    let or_zero = |v: f64| if v.is_finite() { v } else { 0.0 };
    m.put(
        "serve.update.read_p50_in_publish_ms",
        or_zero(stats::median(&ms(&in_publish))),
    );
    m.put(
        "serve.update.read_p50_idle_ms",
        or_zero(stats::median(&ms(&|l| !in_publish(l)))),
    );
    m.put(
        "serve.update.read_p95_ms",
        or_zero(stats::percentile(&ms(&|_| true), 95.0)),
    );
    let mut per_shard = [0u64; spec::SHARDS];
    let mut total = 0u64;
    for l in &u.reads {
        total += l.graph_read;
        for (acc, r) in per_shard.iter_mut().zip(l.shard_reads) {
            *acc += r;
        }
    }
    let in_shards: u64 = per_shard.iter().sum();
    if in_shards == 0 {
        // A monolithic snapshot is one shard holding every read.
        m.put("serve.sharded.read_imbalance", 1.0);
        m.put("serve.sharded.residual_frac", 0.0);
    } else {
        let mean = in_shards as f64 / spec::SHARDS as f64;
        let max = per_shard.iter().copied().max().unwrap_or(0) as f64;
        m.put("serve.sharded.read_imbalance", max / mean);
        m.put(
            "serve.sharded.residual_frac",
            total.saturating_sub(in_shards) as f64 / total.max(1) as f64,
        );
    }
}

/// Replay the first publish outside the service, phase by phase, on the same
/// inputs with the same public calls `publish_updates` makes, and report
/// where its time and words go.
pub fn replay_per_layer<R: Repr>(
    ctx: &Context<'_, R>,
    u: &UpdateReading,
    m: &mut Metrics,
) -> std::io::Result<()> {
    let span = ctx.tracer.begin("publish.replay", None);
    let t = ctx.tracer;

    // The core layer alone: overlay and compaction over the plain heap CSR.
    let mut overlay = DeltaOverlay::new(Arc::clone(&ctx.csr));
    let (_, apply_s) = t.time("core.overlay_apply", span, |_| {
        overlay.apply(&u.first_batch)
    });
    let (compacted, compact_s) = t.time("core.overlay_compact", span, |_| overlay.compact());
    m.put("core.overlay_apply_ms", apply_s * 1e3);
    m.put("core.overlay_compact_s", compact_s);
    drop(compacted);

    // The pipeline over the served representation. `DeltaOverlay` wants an
    // `Arc` of its base and `Snapshot` does not give its own away, so the
    // replay maps the snapshot file a second time.
    let base = Arc::new(R::reload(&ctx.path)?);
    let path = ctx.dir.join("replay");
    let scope = MeterScope::new();
    let (phases, files) = scope.enter(|| -> std::io::Result<_> {
        let mut overlay = DeltaOverlay::new(Arc::clone(&base));
        let (_, apply_s) = t.time("publish.apply", span, |_| overlay.apply(&u.first_batch));
        let (compacted, compact_s) = t.time("publish.compact", span, |_| overlay.compact());
        let (rebuilt, rebuild_s) = t.time("publish.rebuild", span, |_| base.rebuild(compacted));
        let (flushed, flush_s) = t.time("publish.flush", span, |_| rebuilt.flush(&path));
        flushed?;
        let files = rebuilt.files(&path);
        let (reloaded, reload_s) = t.time("publish.reload", span, |_| R::reload(&path));
        let reloaded = reloaded?;
        ctx.tally.check(
            Some(reloaded.flush_words()) == u.reports.first().map(|r| r.graph_write),
            || "the replayed publish flushed a different word count".to_string(),
        );
        Ok(([apply_s, compact_s, rebuild_s, flush_s, reload_s], files))
    })?;
    remove_files(&files);
    ctx.tracer.end(span);

    let [apply_s, compact_s, rebuild_s, flush_s, reload_s] = phases;
    m.put("serve.publish.apply_ms", apply_s * 1e3);
    m.put("serve.publish.compact_s", compact_s);
    m.put("serve.publish.rebuild_s", rebuild_s);
    m.put("serve.publish.flush_s", flush_s);
    m.put("serve.publish.reload_ms", reload_s * 1e3);
    let publish_s = stats::median(&u.reports.iter().map(|r| r.seconds).collect::<Vec<_>>());
    m.put(
        "serve.publish.other_ms",
        (publish_s - phases.iter().sum::<f64>()) * 1e3,
    );
    let traffic = scope.snapshot();
    m.put(
        "serve.publish.aux_words",
        (traffic.aux_read + traffic.aux_write) as f64,
    );
    let words = u.reports.first().map_or(0, |r| r.graph_write);
    m.put(
        "serve.publish.words_per_update",
        words as f64 / spec::UPDATES_PER_PUBLISH as f64,
    );
    m.put(
        "serve.publish.touched_words",
        base.touched_words(&u.first_batch) as f64,
    );
    Ok(())
}
