//! Per-query scratch arenas: isolated, reusable DRAM pools for concurrent
//! traversals over one shared graph.
//!
//! The engine's scratch — `edgeMapChunked` output chunks (§4.1.2), dense
//! frontier flag buffers, and the peeling [`Histogram`]'s dense scratch — was
//! historically parked in process-global pools. That is fine for one
//! algorithm at a time, but a serving system runs many queries concurrently:
//! global pools then become contention points, and the retained buffers of
//! one query get resized/recycled under another's feet.
//!
//! A [`QueryArena`] gives each query its own pools. It is installed for the
//! duration of a closure ([`QueryArena::enter`]) and inherited by every
//! parallel task forked inside it via the task-context slot
//! [`sage_parallel::context::SLOT_ARENA`], exactly like the traffic meter's
//! scope. Engine internals resolve their scratch through `with_pools`:
//! the current arena if one is installed, else the process-wide shared pool
//! (the pre-arena behaviour, still right for one-shot CLI runs).
//!
//! The DRAM budget is preserved per arena: at most `4 × num_threads` chunks
//! of at most `CHUNK_RETAIN_CAP` entries, a handful of `O(n)`-bit flag
//! buffers, and a few histograms whose dense scratch is `O(n)` words — the
//! PSAM small-memory discipline, multiplied by the number of *admitted*
//! queries rather than by an unbounded global high-water mark.

use parking_lot::Mutex;
use sage_graph::V;
use sage_parallel as par;
use sage_parallel::context::{self, SLOT_ARENA};
use sage_parallel::Histogram;
use std::sync::Arc;

/// Largest per-chunk capacity (in entries) a pool will retain. Chunks are
/// normally `max(4096, davg)` entries, but a high-average-degree graph can
/// demand arbitrarily large ones; retaining those would park up to
/// `4 × num_threads` chunks of unbounded size in DRAM forever — the paper's
/// small-memory discipline (§4.1.2) caps the pool at `O(P)` *bounded* chunks.
pub(crate) const CHUNK_RETAIN_CAP: usize = 1 << 15;

/// Maximum dense flag buffers retained per pool (each is `O(n)` bytes).
const FLAGS_RETAIN: usize = 8;

/// Maximum block-decode scratch buffers retained per pool. One buffer is
/// live per executing task group, so `O(P)` covers every traversal shape.
const EDGES_RETAIN: usize = 16;

/// Largest per-buffer capacity (entries) the edge-decode pool will retain:
/// one decoded block is `block_size` entries, far below this; outsized
/// buffers (giant-block graphs) are shrunk on release like chunks.
pub(crate) const EDGES_RETAIN_CAP: usize = 1 << 14;

/// Maximum recycled histograms retained per pool (dense scratch is `O(n)`).
const HIST_RETAIN: usize = 4;

/// The scratch pools: one static shared instance plus one per [`QueryArena`].
pub(crate) struct ScratchPools {
    /// `edgeMapChunked` output chunks, recycled across traversals (§4.1.2).
    chunks: Mutex<Vec<Vec<V>>>,
    /// Dense frontier flag buffers (`VertexSubset` conversions).
    flags: Mutex<Vec<Vec<bool>>>,
    /// Peeling histograms with reusable dense scratch.
    histograms: Mutex<Vec<Histogram>>,
    /// Block-decode scratch: a compressed adjacency block is decoded into
    /// one of these `(neighbor, weight)` buffers once, then probed as a
    /// plain slice — instead of re-walking encoded bytes per probe.
    edges: Mutex<Vec<Vec<(V, u32)>>>,
}

impl ScratchPools {
    const fn new() -> Self {
        Self {
            chunks: Mutex::new(Vec::new()),
            flags: Mutex::new(Vec::new()),
            histograms: Mutex::new(Vec::new()),
            edges: Mutex::new(Vec::new()),
        }
    }

    /// Fetch a cleared chunk with at least `capacity` entries of room.
    pub(crate) fn fetch_chunk(&self, capacity: usize) -> Vec<V> {
        let mut guard = self.chunks.lock();
        let mut chunk = guard.pop().unwrap_or_default();
        drop(guard);
        chunk.clear();
        if chunk.capacity() < capacity {
            // `reserve_exact` guarantees `len + additional` capacity; with the
            // chunk cleared that is exactly `capacity`. (Subtracting the old
            // capacity here would under-reserve a recycled chunk.)
            chunk.reserve_exact(capacity);
        }
        chunk
    }

    /// Return a chunk to the freelist (bounded count, outsized ones shrunk).
    pub(crate) fn release_chunk(&self, mut chunk: Vec<V>) {
        let cap = 4 * par::num_threads();
        if self.chunks.lock().len() >= cap {
            return; // full freelist: drop without paying the shrink below
        }
        if chunk.capacity() > CHUNK_RETAIN_CAP {
            // Shrink outsized chunks before retaining them so a single
            // huge-degree frontier cannot pin unbounded DRAM. (`shrink_to`
            // reallocates: the empty chunk keeps `CHUNK_RETAIN_CAP`.)
            chunk.clear();
            chunk.shrink_to(CHUNK_RETAIN_CAP);
        }
        let mut guard = self.chunks.lock();
        if guard.len() < cap {
            guard.push(chunk);
        }
    }

    /// Fetch a flag buffer of exactly `n` entries, all set to `value`.
    fn fetch_flags(&self, n: usize, value: bool) -> Vec<bool> {
        let mut buf = self.flags.lock().pop().unwrap_or_default();
        buf.clear();
        buf.resize(n, value);
        buf
    }

    /// Return a flag buffer for reuse (bounded count).
    fn release_flags(&self, flags: Vec<bool>) {
        if flags.capacity() == 0 {
            return;
        }
        let mut guard = self.flags.lock();
        if guard.len() < FLAGS_RETAIN {
            guard.push(flags);
        }
    }

    /// Fetch a histogram, with the dense scratch a previous query built if
    /// one was released here.
    fn fetch_histogram(&self) -> Histogram {
        self.histograms.lock().pop().unwrap_or_default()
    }

    /// Return a histogram for reuse (bounded count).
    fn release_histogram(&self, h: Histogram) {
        let mut guard = self.histograms.lock();
        if guard.len() < HIST_RETAIN {
            guard.push(h);
        }
    }

    /// Fetch an empty block-decode buffer with room for `capacity` edges.
    fn fetch_edges(&self, capacity: usize) -> Vec<(V, u32)> {
        let mut buf = self.edges.lock().pop().unwrap_or_default();
        buf.clear();
        if buf.capacity() < capacity {
            buf.reserve_exact(capacity);
        }
        buf
    }

    /// Return a block-decode buffer (bounded count, outsized ones shrunk).
    fn release_edges(&self, mut buf: Vec<(V, u32)>) {
        if self.edges.lock().len() >= EDGES_RETAIN {
            return;
        }
        if buf.capacity() > EDGES_RETAIN_CAP {
            buf.clear();
            buf.shrink_to(EDGES_RETAIN_CAP);
        }
        let mut guard = self.edges.lock();
        if guard.len() < EDGES_RETAIN {
            guard.push(buf);
        }
    }

    /// Total bytes currently parked in the chunk freelist (observability).
    pub(crate) fn retained_chunk_bytes(&self) -> usize {
        self.chunks
            .lock()
            .iter()
            .map(|c| c.capacity() * std::mem::size_of::<V>())
            .sum()
    }

    fn retained_counts(&self) -> (usize, usize, usize) {
        (
            self.chunks.lock().len(),
            self.flags.lock().len(),
            self.histograms.lock().len(),
        )
    }
}

/// The process-wide fallback pools, used whenever no arena is installed.
static SHARED: ScratchPools = ScratchPools::new();

/// Run `f` against the current task's pools: the innermost installed arena,
/// or the shared static pools when none is.
pub(crate) fn with_pools<R>(f: impl FnOnce(&ScratchPools) -> R) -> R {
    context::with(SLOT_ARENA, |slot| {
        match slot.and_then(|any| any.downcast_ref::<ScratchPools>()) {
            Some(pools) => f(pools),
            None => f(&SHARED),
        }
    })
}

/// Fetch an `edgeMapChunked` output chunk from the current pools.
pub(crate) fn fetch_chunk(capacity: usize) -> Vec<V> {
    with_pools(|p| p.fetch_chunk(capacity))
}

/// Release an `edgeMapChunked` output chunk to the current pools.
pub(crate) fn release_chunk(chunk: Vec<V>) {
    with_pools(|p| p.release_chunk(chunk))
}

/// Fetch a dense flag buffer (`n` entries, all `value`) from the current pools.
pub(crate) fn fetch_flags(n: usize, value: bool) -> Vec<bool> {
    with_pools(|p| p.fetch_flags(n, value))
}

/// Release a dense flag buffer to the current pools.
pub(crate) fn release_flags(flags: Vec<bool>) {
    with_pools(|p| p.release_flags(flags))
}

/// Fetch a block-decode scratch buffer from the current pools.
pub(crate) fn fetch_edges(capacity: usize) -> Vec<(V, u32)> {
    with_pools(|p| p.fetch_edges(capacity))
}

/// Release a block-decode scratch buffer to the current pools.
pub(crate) fn release_edges(buf: Vec<(V, u32)>) {
    with_pools(|p| p.release_edges(buf))
}

/// Fetch a (possibly recycled) histogram from the current pools.
pub(crate) fn fetch_histogram() -> Histogram {
    with_pools(|p| p.fetch_histogram())
}

/// Release a histogram, retaining its dense scratch for the next query.
pub(crate) fn release_histogram(h: Histogram) {
    with_pools(|p| p.release_histogram(h))
}

/// Shared-pool chunk bytes (test observability for the fallback path).
#[cfg(test)]
pub(crate) fn shared_retained_chunk_bytes() -> usize {
    SHARED.retained_chunk_bytes()
}

/// A reusable, isolated set of scratch pools for one query (or one serving
/// worker that runs queries back to back).
///
/// ```
/// use sage_core::QueryArena;
///
/// let arena = QueryArena::new();
/// let total = arena.enter(|| {
///     // traversals here draw scratch from `arena`, not the shared pool
///     1 + 1
/// });
/// assert_eq!(total, 2);
/// ```
#[derive(Clone)]
pub struct QueryArena {
    pools: Arc<ScratchPools>,
}

impl Default for QueryArena {
    fn default() -> Self {
        Self::new()
    }
}

impl QueryArena {
    /// A fresh arena with empty pools.
    pub fn new() -> Self {
        Self {
            pools: Arc::new(ScratchPools::new()),
        }
    }

    /// Run `f` with this arena installed: engine scratch allocated by `f` and
    /// by parallel tasks forked inside it is drawn from (and recycled into)
    /// this arena. Nestable; the innermost arena wins.
    pub fn enter<R>(&self, f: impl FnOnce() -> R) -> R {
        let value: Arc<ScratchPools> = Arc::clone(&self.pools);
        context::with_slot(SLOT_ARENA, value, f)
    }

    /// Bytes currently parked in this arena's chunk freelist.
    pub fn retained_chunk_bytes(&self) -> usize {
        self.pools.retained_chunk_bytes()
    }

    /// Number of retained (chunks, flag buffers, histograms).
    pub fn retained_counts(&self) -> (usize, usize, usize) {
        self.pools.retained_counts()
    }

    /// Number of retained block-decode scratch buffers.
    pub fn retained_edge_buffers(&self) -> usize {
        self.pools.edges.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arena_scratch_is_isolated_from_shared_pool() {
        let arena = QueryArena::new();
        arena.enter(|| {
            let chunk = fetch_chunk(1024);
            release_chunk(chunk);
        });
        let (chunks, _, _) = arena.retained_counts();
        assert_eq!(chunks, 1, "chunk must land in the arena's pool");
        assert!(arena.retained_chunk_bytes() >= 1024 * std::mem::size_of::<V>());
    }

    #[test]
    fn no_arena_falls_back_to_shared_pool() {
        // Fetch-and-release outside any arena goes through the static pool:
        // bytes must be observable there (>= 0 trivially; assert roundtrip).
        let chunk = fetch_chunk(2048);
        assert!(chunk.capacity() >= 2048);
        release_chunk(chunk);
        assert!(shared_retained_chunk_bytes() > 0);
    }

    #[test]
    fn two_arenas_do_not_share_chunks() {
        let a = QueryArena::new();
        let b = QueryArena::new();
        a.enter(|| release_chunk(fetch_chunk(512)));
        b.enter(|| {
            let (chunks, _, _) = b.retained_counts();
            let _ = chunks;
        });
        assert_eq!(a.retained_counts().0, 1);
        assert_eq!(b.retained_counts().0, 0);
    }

    #[test]
    fn edge_scratch_recycles_bounded() {
        let arena = QueryArena::new();
        arena.enter(|| {
            let buf = fetch_edges(256);
            assert!(buf.capacity() >= 256);
            release_edges(buf);
            // Outsized buffers come back shrunk to the retention cap.
            let big = fetch_edges(4 * EDGES_RETAIN_CAP);
            release_edges(big);
            // Over-releasing never parks more than EDGES_RETAIN buffers.
            for _ in 0..4 * EDGES_RETAIN {
                release_edges(Vec::with_capacity(64));
            }
        });
        assert!(arena.retained_edge_buffers() <= EDGES_RETAIN);
        let bytes: usize = arena
            .pools
            .edges
            .lock()
            .iter()
            .map(|b| b.capacity() * std::mem::size_of::<(V, u32)>())
            .sum();
        assert!(bytes <= EDGES_RETAIN * EDGES_RETAIN_CAP * std::mem::size_of::<(V, u32)>());
    }

    #[test]
    fn flags_recycle_and_rezero() {
        let arena = QueryArena::new();
        arena.enter(|| {
            let mut f1 = fetch_flags(100, false);
            f1[3] = true;
            release_flags(f1);
            let f2 = fetch_flags(50, false);
            assert_eq!(f2.len(), 50);
            assert!(f2.iter().all(|&b| !b), "recycled buffer must be re-zeroed");
            let f3 = fetch_flags(10, true);
            assert!(f3.iter().all(|&b| b));
            release_flags(f2);
            release_flags(f3);
        });
        let (_, flags, _) = arena.retained_counts();
        assert_eq!(flags, 2);
    }

    #[test]
    fn histograms_recycle_with_scratch() {
        let arena = QueryArena::new();
        arena.enter(|| {
            let mut h = fetch_histogram();
            let _ = h.count(10, 10, 64, |i, emit| emit((i % 64) as u32));
            assert_eq!(h.dense_allocations(), 1);
            release_histogram(h);
            let mut h2 = fetch_histogram();
            let _ = h2.count(10, 10, 64, |i, emit| emit((i % 64) as u32));
            assert_eq!(
                h2.dense_allocations(),
                1,
                "recycled histogram must keep its dense scratch"
            );
            release_histogram(h2);
        });
    }

    #[test]
    fn arena_propagates_into_parallel_tasks() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let arena = QueryArena::new();
        let misses = AtomicUsize::new(0);
        arena.enter(|| {
            par::par_for(0, 2000, |_| {
                with_pools(|p| {
                    if !std::ptr::eq(p, arena.pools.as_ref()) {
                        misses.fetch_add(1, Ordering::Relaxed);
                    }
                });
            });
        });
        assert_eq!(misses.load(Ordering::Relaxed), 0);
    }
}
