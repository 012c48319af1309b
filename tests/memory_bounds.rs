//! Empirical verification of the PSAM memory claims (Theorem 4.1 / §4.2.3):
//! this binary installs the tracking allocator and measures actual peak heap
//! usage of the traversal variants and the graphFilter.

use sage_core::algo::connectivity::{connectivity, connectivity_union_find};
use sage_core::algo::kcore::kcore;
use sage_core::edge_map::{EdgeMapOpts, SparseImpl, Strategy};
use sage_core::GraphFilter;
use sage_graph::{gen, Graph, Sharded, ShardedCsr};
use sage_nvram::alloc_track::{self, TrackingAlloc};

#[global_allocator]
static ALLOC: TrackingAlloc = TrackingAlloc;

// The peak counter is process-global, so the measurements in this binary
// must not overlap any other allocation: it is a `harness = false` binary
// whose `main` runs the cases one after another on the main thread.
#[path = "../crates/nvram/tests/serial/mod.rs"]
mod serial;

fn peak_of(f: impl FnOnce()) -> u64 {
    alloc_track::reset_peak();
    let before = alloc_track::current_bytes();
    f();
    alloc_track::peak_bytes().saturating_sub(before)
}

/// Theorem 4.1: `edgeMapChunked` uses `O(n + P·chunk)` words of intermediate
/// memory; `edgeMapSparse` allocates `Θ(Σ deg(frontier))`, which on a
/// dense-frontier graph is `Θ(m)`. With m/n ≈ 16 the gap must be visible —
/// after allowing for the chunk pool's explicitly thread-count-dependent
/// term (in-flight groups hold one `max(4096, davg)`-entry chunk each and
/// the freelist retains up to `4 × P` more; both scale with `P`, the
/// `Θ(m)` sparse allocation does not).
fn chunked_uses_asymptotically_less_memory_than_sparse() {
    let g = gen::rmat(13, 16, gen::RmatParams::default(), 1);
    let sparse_only = |si| EdgeMapOpts {
        strategy: Strategy::ForceSparse,
        sparse_impl: si,
    };
    let peak_sparse = peak_of(|| {
        let _ = sage_core::algo::bfs::bfs_with_opts(&g, 0, sparse_only(SparseImpl::Sparse));
    });
    let peak_chunked = peak_of(|| {
        let _ = sage_core::algo::bfs::bfs_with_opts(&g, 0, sparse_only(SparseImpl::Chunked));
    });
    // Debug builds shift small-allocation behavior; the strict 0.7 factor is
    // asserted for optimized builds, monotonicity always.
    let factor = if cfg!(debug_assertions) { 1.0 } else { 0.7 };
    // The thread-dependent chunk term: ≈8·P groups can be in flight at once
    // (the scheduler splits work into ~8·P pieces), each holding one chunk,
    // plus the `4 × P`-chunk freelist the pool retains afterwards.
    let p = sage_parallel::num_threads();
    let chunk_entries = 4096.max(g.avg_degree());
    let chunk_term = (12 * p * chunk_entries * std::mem::size_of::<sage_graph::V>()) as f64;
    assert!(
        (peak_chunked as f64) < factor * peak_sparse as f64 + chunk_term,
        "chunked peak {peak_chunked} not below sparse peak {peak_sparse} \
         (factor {factor}, chunk term {chunk_term}, threads {p})"
    );
}

/// §4.2.3: the filter stores O(m) bits + 3n words, "4.6-8.1x smaller than the
/// size of the uncompressed graph" on the paper's uncompressed inputs.
fn filter_is_much_smaller_than_the_graph() {
    let g = gen::rmat(13, 16, gen::RmatParams::default(), 2);
    let filter = GraphFilter::new(&g, true);
    let ratio = g.size_bytes() as f64 / filter.size_bytes() as f64;
    assert!(
        ratio > 2.5,
        "filter only {ratio:.2}x smaller ({} vs {} bytes)",
        filter.size_bytes(),
        g.size_bytes()
    );
}

/// The filter's measured heap footprint matches its self-reported size.
fn filter_reported_size_matches_allocation() {
    let g = gen::rmat(12, 16, gen::RmatParams::default(), 3);
    let mut reported = 0usize;
    let peak = peak_of(|| {
        let f = GraphFilter::new(&g, true);
        reported = f.size_bytes();
    });
    assert!(
        peak >= reported as u64 / 2 && peak <= reported as u64 * 3,
        "reported {reported} vs measured peak {peak}"
    );
}

/// The PSAM premise for connectivity: `O(n)` words of DRAM whatever `m` is.
/// The LDD + union-find run must fit the admission estimate that admits it,
/// and its peak must not move with the edge factor (8× more edges between
/// `ef = 4` and `ef = 32`) or with the LDD seed. A deduplicating hash table
/// sized by the inter-cluster edge count — what this replaced — fails all
/// three: `O(βm)` words, and a power-of-two capacity that made the peak
/// bimodal in the seed.
fn connectivity_peak_is_o_n_whatever_m_and_seed() {
    let probe = sage_serve::Query::Connected { u: 0, v: 1 };
    let mut peaks = Vec::new();
    for ef in [4, 32] {
        let g = gen::rmat(13, ef, gen::RmatParams::web(), 5);
        let bound = sage_serve::dram_estimate(g.num_vertices(), &probe);
        // Fill the process-lifetime scratch pools (flag buffers, chunks)
        // first: they are retained across runs, not per-run state.
        let _ = connectivity(&g, 0.2, 0);
        for seed in [1, 2, 3] {
            let peak = peak_of(|| {
                let _ = connectivity(&g, 0.2, seed);
            });
            assert!(
                peak <= bound,
                "ef {ef} seed {seed}: peak {peak} B over the admission estimate {bound} B"
            );
            peaks.push(peak);
        }
    }
    let (lo, hi) = (*peaks.iter().min().unwrap(), *peaks.iter().max().unwrap());
    assert!(
        hi as f64 <= 1.5 * lo as f64,
        "peaks {peaks:?} spread more than 1.5x over ef = 4/32 x three seeds"
    );
}

/// k-core holds `O(n)` words too — degrees, the bucket structure, one dense
/// histogram scratch and one round's key and move vectors — and must fit the
/// admission estimate that admits it whatever the edge factor. Each run gets
/// a fresh arena, so the histogram scratch is inside the measured window
/// rather than parked in the shared pool by an earlier run. Two things this
/// replaced grew with `m` instead: a hash table sized `2·keys` per round,
/// and one more overflow-bucket entry per decrement of a far-out vertex.
fn kcore_peak_fits_its_admission_estimate_whatever_m() {
    let probe = sage_serve::Query::KCore {
        k: None,
        vertices: Vec::new(),
    };
    let mut peaks = Vec::new();
    for ef in [4, 32] {
        let g = gen::rmat(13, ef, gen::RmatParams::web(), 5);
        let bound = sage_serve::dram_estimate(g.num_vertices(), &probe);
        let peak = peak_of(|| {
            let _ = sage_core::QueryArena::new().enter(|| kcore(&g));
        });
        assert!(
            peak <= bound,
            "ef {ef}: peak {peak} B over the admission estimate {bound} B"
        );
        peaks.push(peak);
    }
    assert!(
        peaks[1] as f64 <= 2.0 * peaks[0] as f64,
        "peaks {peaks:?} grew more than 2x over an 8x edge factor"
    );
}

/// Same bound for the union-find labeling the service runs on a sharded
/// snapshot, against the estimate it acquires there: one forest plus the
/// labels, whatever the shard count — not a forest per shard.
fn sharded_connectivity_peak_fits_its_admission_estimate() {
    use sage_serve::queue::{BatchPolicy, Pending, RequestQueue, SchedPolicy};
    let queue = RequestQueue::new(1);
    queue.push(Pending::new(0, sage_serve::Query::Connected { u: 0, v: 1 }).0);
    let batch = queue
        .pop_batch(&BatchPolicy::default(), &SchedPolicy::fifo())
        .expect("one queued probe");
    let mut peaks = Vec::new();
    for ef in [4, 32] {
        let g = ShardedCsr::from_csr(&gen::rmat(13, ef, gen::RmatParams::web(), 5), 4);
        let bound = sage_serve::batch_estimate_for(&g, &batch);
        let peak = peak_of(|| {
            let _ = connectivity_union_find(&g);
        });
        assert!(
            peak <= bound,
            "ef {ef}: peak {peak} B over the admission estimate {bound} B"
        );
        peaks.push(peak);
    }
    assert!(
        peaks[1] as f64 <= 1.5 * peaks[0] as f64,
        "peaks {peaks:?} grew with m"
    );
}

/// Serve `sources` as one BFS batch through a one-worker service and return
/// the window's peak heap (the returned level vectors, held until the window
/// closes, included) and the reservation the worker acquired for the batch:
/// with measured admission off and the default budget that is exactly
/// `batch_estimate_for`. The service starts before the window opens; the
/// linger holds the batch open until every source is queued.
fn served_bfs_batch_peak<G: Sharded + Send + Sync + 'static>(
    g: G,
    sources: &[sage_graph::V],
) -> (u64, u64) {
    use sage_serve::{Query, ServiceBuilder};
    let service = ServiceBuilder::new()
        .workers(1)
        .max_batch(sources.len())
        .linger(std::time::Duration::from_secs(5))
        .measured_admission(false)
        .start(g);
    let mut results = Vec::new();
    let peak = peak_of(|| {
        let tickets: Vec<_> = sources
            .iter()
            .map(|&src| service.submit(Query::Bfs { src }))
            .collect();
        results = tickets.into_iter().map(|t| t.wait()).collect();
    });
    let stats = service.stats();
    assert_eq!(
        (stats.batches, stats.peak_batch),
        (1, sources.len() as u64),
        "the sources must run as one batch"
    );
    (peak, stats.peak_inflight_bytes)
}

/// A sharded BFS batch runs the same `msbfs_levels` as a monolithic one, its
/// shard attribution coming from the storage layer: its peak fits the
/// estimate the service acquires for it and exceeds the monolithic batch's
/// by at most a page per shard (the partitioned scope's part meters). A
/// shard-aware round loop that allocates `O(Σdeg)` slots per round would
/// fail the second bound.
fn sharded_bfs_batch_peak_matches_the_monolithic_batch() {
    let csr = gen::rmat(14, 16, gen::RmatParams::web(), 6);
    let n = csr.num_vertices() as sage_graph::V;
    let sources: Vec<sage_graph::V> = (0..32).map(|i| (i * 977) % n).collect();
    let sharded = ShardedCsr::from_csr(&csr, 4);
    assert_eq!(sharded.num_shards(), 4);
    let (mono, _) = served_bfs_batch_peak(csr, &sources);
    let (peak, estimate) = served_bfs_batch_peak(sharded, &sources);
    assert!(
        peak <= estimate,
        "sharded batch peak {peak} B over its admission estimate {estimate} B"
    );
    assert!(
        peak <= mono + 4 * 4096,
        "sharded batch peak {peak} B over the monolithic {mono} B + a page per shard"
    );
}

/// Compression (§5.1.3): web-like graphs shrink by a real factor, so NVRAM
/// reads shrink proportionally.
fn compressed_graph_allocates_less() {
    let csr = gen::rmat(13, 16, gen::RmatParams::web(), 4);
    let raw = csr.size_bytes();
    let compressed = sage_graph::CompressedCsr::from_csr(&csr, 64);
    assert!(
        compressed.size_bytes() * 3 < raw * 2,
        "compression ratio too weak"
    );
}

fn main() {
    serial::run(&[
        (
            "chunked_uses_asymptotically_less_memory_than_sparse",
            chunked_uses_asymptotically_less_memory_than_sparse,
        ),
        (
            "filter_is_much_smaller_than_the_graph",
            filter_is_much_smaller_than_the_graph,
        ),
        (
            "filter_reported_size_matches_allocation",
            filter_reported_size_matches_allocation,
        ),
        (
            "connectivity_peak_is_o_n_whatever_m_and_seed",
            connectivity_peak_is_o_n_whatever_m_and_seed,
        ),
        (
            "kcore_peak_fits_its_admission_estimate_whatever_m",
            kcore_peak_fits_its_admission_estimate_whatever_m,
        ),
        (
            "sharded_connectivity_peak_fits_its_admission_estimate",
            sharded_connectivity_peak_fits_its_admission_estimate,
        ),
        (
            "sharded_bfs_batch_peak_matches_the_monolithic_batch",
            sharded_bfs_batch_peak_matches_the_monolithic_batch,
        ),
        (
            "compressed_graph_allocates_less",
            compressed_graph_allocates_less,
        ),
    ]);
}
