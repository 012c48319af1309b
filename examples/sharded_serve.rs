//! Serving over a partitioned snapshot.
//!
//! The full sharded pipeline end-to-end: build a web-shaped graph, partition
//! it into edge-balanced vertex-range shards (plain *and* compressed),
//! persist the shard manifest plus per-shard files, map every shard back
//! read-only as its own emulated-NVRAM region, and serve batched BFS point
//! queries through a [`ShardedService`] — asserting along the way that the
//! sharded answers are bitwise-identical to a monolithic [`GraphService`]'s,
//! that per-query traffic reconciles word-exactly with the global meter, and
//! that the per-shard graph reads — attributed by the shards themselves —
//! sum to every graph word served.
//!
//! ```text
//! cargo run --release --example sharded_serve
//! ```

use sage::serve::{Query, ServiceBuilder, Ticket};
use sage::{gen, EdgeUpdate, Graph, Meter, MeterSnapshot, Sharded, ShardedCsr, V};
use sage_graph::io::{load_sharded, write_sharded, Placement};
use std::sync::Arc;
use std::time::Instant;

const SHARDS: usize = 4;
const CLIENTS: usize = 4;
const QUERIES_PER_CLIENT: usize = 32;

fn main() -> std::io::Result<()> {
    let dir = std::env::temp_dir().join(format!("sage-sharded-serve-{}", std::process::id()));
    std::fs::create_dir_all(&dir)?;
    let path = dir.join("graph.sage");

    // Phase 1 (offline, DRAM): build, partition, persist.
    let csr = gen::rmat(13, 24, gen::RmatParams::web(), 0x57A8);
    let sharded = ShardedCsr::from_csr(&csr, SHARDS);
    write_sharded(&sharded, &path)?;
    let shard_bytes: u64 = (0..sharded.num_shards())
        .map(|s| {
            std::fs::metadata(sage_graph::io::shard_path(&path, s))
                .map(|m| m.len())
                .unwrap_or(0)
        })
        .sum();
    println!(
        "persisted {} vertices / {} edges as {} shards ({:.1} MB + manifest)",
        csr.num_vertices(),
        csr.num_edges(),
        sharded.num_shards(),
        shard_bytes as f64 / 1e6,
    );
    for s in 0..sharded.num_shards() {
        let r = sharded.shard_range(s);
        println!(
            "  shard {s}: vertices {}..{} ({} edges)",
            r.start,
            r.end,
            sharded.shard(s).num_edges()
        );
    }

    // Phase 2 (online, NVRAM): map every shard read-only and serve.
    let g = load_sharded(&path, Placement::Nvram)?;
    assert!(g.on_nvram());
    let n = g.num_vertices();
    let live: Arc<Vec<V>> = Arc::new((0..n as V).filter(|&v| g.degree(v) > 0).collect());

    // Monolithic ground truth for the bitwise comparison.
    let mono = ServiceBuilder::new().start(gen::rmat(13, 24, gen::RmatParams::web(), 0x57A8));

    let before = Meter::global().snapshot();
    let service = Arc::new(ServiceBuilder::new().start_sharded(g));
    println!(
        "serving with {CLIENTS} clients over {SHARDS} shards; admission budget {:.1} MB",
        service.dram_budget_bytes() as f64 / 1e6
    );

    let t0 = Instant::now();
    let handles: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let service = Arc::clone(&service);
            let live = Arc::clone(&live);
            // sage-lint: allow(thread-spawn) -- load generator simulating concurrent clients
            std::thread::spawn(move || {
                let submitted: Vec<Ticket> = (0..QUERIES_PER_CLIENT)
                    .map(|i| {
                        service.submit(Query::Bfs {
                            src: live[(c * 131 + i * 17) % live.len()],
                        })
                    })
                    .collect();
                let mut traffic = MeterSnapshot::default();
                let mut per_shard = vec![MeterSnapshot::default(); SHARDS];
                let mut answers = Vec::new();
                for t in submitted {
                    let r = t.wait();
                    assert_eq!(r.traffic.graph_write, 0, "served query wrote the graph");
                    assert_eq!(r.epoch, 0, "pre-publish answers carry the initial epoch");
                    traffic = traffic.plus(&r.traffic);
                    for (acc, s) in per_shard.iter_mut().zip(&r.per_shard) {
                        *acc = acc.plus(s);
                    }
                    answers.push(r.response);
                }
                (c, traffic, per_shard, answers)
            })
        })
        .collect();

    let mut traffic = MeterSnapshot::default();
    let mut per_shard = [MeterSnapshot::default(); SHARDS];
    let mut answers: Vec<(usize, Vec<sage::Response>)> = Vec::new();
    for h in handles {
        let (c, t, ps, a) = h.join().expect("client thread");
        traffic = traffic.plus(&t);
        for (acc, s) in per_shard.iter_mut().zip(&ps) {
            *acc = acc.plus(s);
        }
        answers.push((c, a));
    }
    let elapsed = t0.elapsed().as_secs_f64();
    let delta = Meter::global().snapshot().since(&before);

    // Only the serving workers metered between the two global samples, so
    // per-query attribution must account for every word the meter saw.
    assert_eq!(
        traffic, delta,
        "attributed traffic diverged from the global meter delta"
    );
    // Every graph word is read inside the shard that holds it, so the
    // per-shard breakdown accounts for all of them.
    assert_eq!(
        per_shard.iter().map(|s| s.graph_read).sum::<u64>(),
        traffic.graph_read,
        "per-shard graph reads do not sum to the served graph reads"
    );

    // Every sharded answer matches the monolithic service's, bit for bit.
    answers.sort_by_key(|&(c, _)| c);
    for (c, client_answers) in answers {
        for (i, got) in client_answers.into_iter().enumerate() {
            let want = mono
                .query(Query::Bfs {
                    src: live[(c * 131 + i * 17) % live.len()],
                })
                .response;
            assert_eq!(got, want, "sharded answer diverged (client {c}, query {i})");
        }
    }

    let total = (CLIENTS * QUERIES_PER_CLIENT) as f64;
    println!(
        "\nserved {} BFS queries in {elapsed:.2}s ({:.0} qps), answers bitwise == monolithic",
        total as usize,
        total / elapsed.max(1e-9)
    );
    println!(
        "per-shard attributed graph reads (sum {} words):",
        traffic.graph_read
    );
    for (s, snap) in per_shard.iter().enumerate() {
        println!(
            "  shard {s}: {:>10} graph-read words ({:.0}%)",
            snap.graph_read,
            100.0 * snap.graph_read as f64 / traffic.graph_read.max(1) as f64
        );
    }

    // Live update over the partitioned snapshot: the ingestion pipeline
    // rebuilds with the same shard count and representation, flushes under
    // the write budget, and swaps — after which answers carry epoch 1.
    let u = live[0];
    let report = service
        .publish_updates(
            &[EdgeUpdate::insert(u, live[live.len() / 2])],
            &dir.join("graph-epoch1.sage"),
        )
        .expect("publish updated sharded snapshot");
    println!(
        "published epoch {}: {} NVRAM words written across {} shards + manifest",
        report.epoch,
        report.graph_write,
        service.snapshot().num_shards()
    );
    assert_eq!(service.snapshot().num_shards(), SHARDS);
    let after = service.query(Query::Bfs { src: u });
    assert_eq!(after.epoch, 1, "post-publish answers carry the new epoch");
    assert_eq!(after.traffic.graph_write, 0, "serving still never writes");

    std::fs::remove_dir_all(&dir)?;
    Ok(())
}
