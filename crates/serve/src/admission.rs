//! Admission control: bound the total *small-memory* (DRAM) footprint of
//! in-flight queries.
//!
//! Every Sage algorithm runs in `O(n)` words of DRAM (the PSAM discipline,
//! Theorem 4.1) — so the aggregate DRAM of a server is `O(n) × active
//! queries`, and bounding concurrency bounds memory. Each query class carries
//! a words-per-vertex estimate ([`dram_estimate`]) and every batch a shared
//! one ([`batch_estimate_for`]); a worker acquires that many bytes from the
//! shared budget before executing and releases them after, blocking while
//! the budget is exhausted. An execution unit whose estimate exceeds the
//! whole budget is clamped, so it can still run — alone.
//!
//! Every snapshot runs the same engine calls, so an estimate reads the graph
//! — its vertex count and whether it decodes — and never the shard a query
//! starts in. The shard count adds only the unit's part meters.

use crate::batch::QueryBatch;
use crate::query::{BatchClass, Query};
use parking_lot::{Condvar, Mutex};
use sage_graph::{Graph, Sharded};
use std::sync::atomic::{AtomicU64, Ordering};

/// Bytes per word in the estimates (the PSAM meters in 8-byte words).
const WORD: u64 = 8;

/// Decode-scratch buffers a traversal can hold live at once — mirrors the
/// retention bound of `sage-core`'s per-query arena edge pool.
const DECODE_BUFFERS: u64 = 16;

/// Words per vertex of one k-core peel; derived in [`dram_estimate`]'s docs.
/// The default service budget is four of these ([`max_estimate`]), so the
/// constant also caps how many sources a BFS batch may carry.
const KCORE_WORDS: u64 = 10;

/// Estimated peak DRAM of one query, in bytes, for a graph of `n` vertices.
///
/// The constants are words-per-vertex upper bounds read off each algorithm's
/// state: BFS keeps parents + frontier (+ flag scratch), PageRank three rank
/// vectors.
/// k-core holds four words for the whole peel — the induced degrees (`u32`,
/// ½; they are the coreness array at the end), the bucket ids (1), the
/// bucket entries (`u32` copies: one in the overflow bucket, up to two in the
/// open range before semi-eager packing drops the stale one — 1½) and the
/// histogram's counters and touched list (½ + ½) — and a round that
/// decrements `d` vertices adds its `(key, count)` pairs (8 B each), its
/// moves (16 B) and the parallel batch's two id vectors (8 B): 4·`d`/`n`
/// more, with `d < n`. Eight words, and two for the capacity the bucket
/// vectors grow ahead of their entries: ten. Nothing in them grows with `m`;
/// a web R-MAT measures ≈ 3 at edge factors 4 and 32 alike.
/// Connectivity keeps `u32` arrays only — the LDD's cluster ids, its
/// vertices grouped by start round and its shifts/frontier (1.5 words), then
/// the union-find forest and the labels (half a word each) — plus half a
/// word of `edge_map` flag and chunk scratch: three words, and nothing in it
/// grows with `m` (`tests/memory_bounds.rs` holds both runs to this).
/// Neighborhood probes are `O(deg)`, bounded here by a small `O(n)` term.
pub fn dram_estimate(n: usize, query: &Query) -> u64 {
    let n = n as u64;
    match query {
        Query::Bfs { .. } => 4 * n * WORD,
        Query::PageRank { .. } => 4 * n * WORD,
        Query::KCore { .. } => KCORE_WORDS * n * WORD,
        Query::Connected { .. } => 3 * n * WORD,
        Query::Neighborhood { hops: 1, .. } => n * WORD / 4 + 4096,
        Query::Neighborhood { .. } => n * WORD + 4096,
    }
}

/// Total report-vertex bytes across an analytics batch's members at
/// `bytes_per_vertex` per reported entry.
fn report_bytes(members: &[crate::queue::Pending], bytes_per_vertex: u64) -> u64 {
    members
        .iter()
        .map(|p| match p.query() {
            Query::PageRank { vertices, .. } | Query::KCore { vertices, .. } => {
                vertices.len() as u64 * bytes_per_vertex
            }
            _ => 0,
        })
        .sum()
}

/// DRAM surcharge for serving a representation without O(1) random access:
/// compressed traversals decode adjacency blocks into pooled `(V, weight)`
/// buffers, up to `DECODE_BUFFERS` of `block_size` entries each. The
/// estimate is derived from the representation itself — capped at a small
/// share of [`Graph::size_bytes`], since scratch can never usefully exceed
/// the encoded graph. Zero for random-access (plain CSR) graphs.
pub(crate) fn decode_scratch_estimate<G: Graph>(g: &G) -> u64 {
    if g.supports_random_access() {
        return 0;
    }
    let per_buffer = (g.block_size() as u64) * 8;
    (DECODE_BUFFERS * per_buffer)
        .min(g.size_bytes() as u64 / 8)
        .max(per_buffer)
}

/// [`dram_estimate`] plus the representation-dependent decode-scratch
/// surcharge — what the serving workers actually acquire.
pub fn dram_estimate_for<G: Graph>(g: &G, query: &Query) -> u64 {
    dram_estimate(g.num_vertices(), query) + decode_scratch_estimate(g)
}

/// Estimated peak DRAM of one execution unit, in bytes — what the serving
/// workers acquire for `batch` on the snapshot `g` (a monolithic graph is
/// the one-shard case).
///
/// The whole point of batched execution is that shared state does **not**
/// scale with the member count:
///
/// * a BFS batch of `k` sources runs on three `O(n)`-word mask arrays plus a
///   frontier — one set for the whole batch, not `k` frontiers — and only
///   the returned level arrays are per-member (`k·n` words, the same words
///   an unbatched run would hand back one query at a time);
/// * a connectivity batch runs **one** labeling regardless of how many
///   `(u, v)` probes consume it;
/// * analytics run one shared power method or peel; only the report pairs
///   are per-member;
/// * neighborhood members execute sequentially, so their peak is the
///   largest single estimate, not the sum.
///
/// A lone query is priced as [`dram_estimate`] prices it. The
/// representation adds its decode scratch once per unit: every buffer comes
/// from the worker's one `QueryArena`, which caps them per arena, not per
/// shard. A snapshot of more than one shard adds a page per shard for the
/// unit's part meters.
pub fn batch_estimate_for<G: Sharded>(g: &G, batch: &QueryBatch) -> u64 {
    let members = batch.members();
    let n = g.num_vertices() as u64;
    let k = members.len() as u64;
    let base = match batch.class() {
        _ if k == 1 => dram_estimate(n as usize, members[0].query()),
        // 3 mask arrays + frontier scratch, plus k level outputs.
        BatchClass::Bfs => (4 * n + k * n) * WORD,
        // One LDD labeling; per-probe state is O(1).
        BatchClass::Connected => 3 * n * WORD + k * 64,
        // One shared power method (three rank vectors + contributions).
        BatchClass::PageRank { .. } => 4 * n * WORD + k * 64 + report_bytes(members, 16),
        // One shared (possibly truncated) peel.
        BatchClass::KCore { .. } => KCORE_WORDS * n * WORD + k * 64 + report_bytes(members, 8),
        BatchClass::Neighborhood => {
            members
                .iter()
                .map(|p| dram_estimate(n as usize, p.query()))
                .max()
                .unwrap_or(0)
                + k * 64
        }
    };
    // On more than one shard the unit's meter scope keeps a part meter per
    // shard: a page each.
    let part_meters = match g.num_shards() {
        1 => 0,
        shards => shards as u64 * 4096,
    };
    base + part_meters + decode_scratch_estimate(g)
}

/// The largest single-query estimate for a graph of `n` vertices; the
/// default service budget is a small multiple of this.
pub(crate) fn max_estimate(n: usize) -> u64 {
    dram_estimate(
        n,
        &Query::KCore {
            k: None,
            vertices: Vec::new(),
        },
    )
}

/// Measured cost model: an EWMA of the DRAM words each query class was
/// *observed* to touch, replacing the pure a-priori `O(n)` estimate for
/// admission and batch formation — with the a-priori bound kept as a safety
/// clamp (measured cost can only *shrink* a reservation, never grow it past
/// the bound, and never below a small floor).
///
/// Workers feed it after every execution unit: the unit's scoped
/// `aux_read + aux_write` words (the DRAM-side traffic of the run — graph
/// words live in NVRAM and don't occupy the budget) divided by the member
/// count. The per-class average then prices the *next* unit of that class:
/// `estimate = clamp(ewma × members, floor, a-priori)`, and
/// [`MeasuredCost::affordable`] turns the same average into a batch-size cap
/// so the scheduler stops growing batches the budget could not admit.
pub struct MeasuredCost {
    /// EWMA of per-member DRAM bytes, one slot per [`CostKind`];
    /// `0` = no observation yet.
    ewma: [AtomicU64; CostKind::COUNT],
}

/// The cost-model bucket of a batch class: analytics parameters don't change
/// the state *shape*, so every parameterization of a class shares a slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CostKind {
    /// BFS point lookups (single or multi-source).
    Bfs = 0,
    /// PageRank runs (any `(iters, damping)`).
    PageRank = 1,
    /// k-core peels (any threshold).
    KCore = 2,
    /// Connectivity labelings.
    Connected = 3,
    /// Neighborhood probes.
    Neighborhood = 4,
}

impl CostKind {
    /// Number of cost buckets.
    pub const COUNT: usize = 5;

    /// The bucket of a batch class.
    pub fn of(class: BatchClass) -> Self {
        match class {
            BatchClass::Bfs => CostKind::Bfs,
            BatchClass::PageRank { .. } => CostKind::PageRank,
            BatchClass::KCore { .. } => CostKind::KCore,
            BatchClass::Connected => CostKind::Connected,
            BatchClass::Neighborhood => CostKind::Neighborhood,
        }
    }
}

/// Never price a member below this, no matter how cheap it measured — keeps
/// dispatch overheads and allocator slack covered.
const MEASURED_FLOOR: u64 = 4096;

/// EWMA smoothing: new = old·7/8 + sample/8.
const EWMA_SHIFT: u32 = 3;

impl Default for MeasuredCost {
    fn default() -> Self {
        Self::new()
    }
}

impl MeasuredCost {
    /// A model with no observations: every estimate falls back a-priori.
    pub fn new() -> Self {
        Self {
            ewma: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Feed one execution unit's observation: `aux_words` DRAM words metered
    /// across `members` same-class queries.
    pub fn observe(&self, kind: CostKind, members: u64, aux_words: u64) {
        let sample = (aux_words * WORD / members.max(1)).max(MEASURED_FLOOR);
        let slot = &self.ewma[kind as usize];
        // Read-modify-write without CAS: a racing observation may overwrite
        // a concurrent sample, losing one data point of an *advisory*
        // moving average — harmless, same as the Relaxed stats counters.
        let old = slot.load(Ordering::Relaxed);
        let new = if old == 0 {
            sample
        } else {
            old - (old >> EWMA_SHIFT) + (sample >> EWMA_SHIFT)
        };
        slot.store(new.max(1), Ordering::Relaxed);
    }

    /// Measured per-member bytes for `kind`, if any unit of it has run.
    pub(crate) fn per_member_bytes(&self, kind: CostKind) -> Option<u64> {
        match self.ewma[kind as usize].load(Ordering::Relaxed) {
            0 => None,
            b => Some(b),
        }
    }

    /// Price a `members`-strong unit of `kind`: the measured cost clamped
    /// into `[MEASURED_FLOOR, apriori]`, or exactly `apriori` while the
    /// class is unobserved.
    pub fn estimate(&self, kind: CostKind, members: u64, apriori: u64) -> u64 {
        match self.per_member_bytes(kind) {
            Some(per) => {
                (per.saturating_mul(members.max(1))).clamp(MEASURED_FLOOR.min(apriori), apriori)
            }
            None => apriori,
        }
    }

    /// How many members of `kind` a budget of `capacity` bytes can hold at
    /// the measured per-member price (`usize::MAX` while unobserved — the
    /// a-priori batch estimate still caps admission; always ≥ 1 so the head
    /// request can dispatch).
    pub fn affordable(&self, kind: CostKind, capacity: u64) -> usize {
        match self.per_member_bytes(kind) {
            Some(per) => ((capacity / per.max(1)) as usize).max(1),
            None => usize::MAX,
        }
    }
}

/// A blocking byte budget shared by all serving workers.
///
/// Admission is FIFO (ticketed): reservations are granted strictly in
/// arrival order, so a large reservation can never be starved by a stream of
/// small ones slipping past it — the trade-off is head-of-line blocking
/// while the budget drains to fit the oldest waiter, which is the bounded,
/// predictable behaviour a serving system wants.
pub(crate) struct DramBudget {
    capacity: u64,
    state: Mutex<BudgetState>,
    freed: Condvar,
}

struct BudgetState {
    used: u64,
    /// Next ticket number to hand out.
    next: u64,
    /// Ticket currently allowed to acquire.
    serving: u64,
}

impl DramBudget {
    pub(crate) fn new(capacity: u64) -> Self {
        Self {
            capacity: capacity.max(1),
            state: Mutex::new(BudgetState {
                used: 0,
                next: 0,
                serving: 0,
            }),
            freed: Condvar::new(),
        }
    }

    /// Reserve `bytes` (clamped to the total capacity so an oversized query
    /// can still run alone), blocking until the reservation fits *and* every
    /// earlier reservation has been granted. Returns the granted amount,
    /// which must be passed back to [`DramBudget::release`].
    pub(crate) fn acquire(&self, bytes: u64) -> u64 {
        let grant = bytes.min(self.capacity);
        let mut state = self.state.lock();
        let ticket = state.next;
        state.next += 1;
        while state.serving != ticket || state.used + grant > self.capacity {
            self.freed.wait(&mut state);
        }
        state.serving += 1;
        state.used += grant;
        drop(state);
        // The next ticket in line may already fit.
        self.freed.notify_all();
        grant
    }

    /// Return a previous grant.
    pub(crate) fn release(&self, grant: u64) {
        let mut state = self.state.lock();
        debug_assert!(state.used >= grant, "budget release exceeds reservations");
        state.used -= grant;
        drop(state);
        self.freed.notify_all();
    }

    pub(crate) fn capacity(&self) -> u64 {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    #[test]
    fn oversized_request_is_clamped_not_deadlocked() {
        let b = DramBudget::new(100);
        let grant = b.acquire(10_000);
        assert_eq!(grant, 100);
        b.release(grant);
    }

    #[test]
    fn budget_serializes_when_exhausted() {
        let b = Arc::new(DramBudget::new(100));
        let inflight = Arc::new(AtomicU64::new(0));
        let peak = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let (b, inflight, peak) = (b.clone(), inflight.clone(), peak.clone());
                std::thread::spawn(move || {
                    for _ in 0..20 {
                        let g = b.acquire(80);
                        // ORDERING: SeqCst — the test asserts a cross-thread,
                        // cross-variable invariant (peak == 1); keep the
                        // harness maximally ordered so a failure blames the
                        // admission gate, not the harness.
                        let now = inflight.fetch_add(1, Ordering::SeqCst) + 1;
                        peak.fetch_max(now, Ordering::SeqCst); // ORDERING: SeqCst harness
                        std::thread::yield_now();
                        inflight.fetch_sub(1, Ordering::SeqCst); // ORDERING: SeqCst harness
                        b.release(g);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // ORDERING: SeqCst — harness read after join; see above.
        assert_eq!(
            peak.load(Ordering::SeqCst),
            1,
            "80/100 bytes => one at a time"
        );
    }

    /// Regression: a large reservation must not be starved by a stream of
    /// small ones — FIFO tickets guarantee it is served in arrival order.
    #[test]
    fn large_reservation_is_not_starved_by_small_ones() {
        let b = Arc::new(DramBudget::new(100));
        // Seed load so the big request cannot be granted immediately.
        let seed = b.acquire(60);
        let big = {
            let b = Arc::clone(&b);
            std::thread::spawn(move || {
                let g = b.acquire(100); // clamped to capacity; needs it all
                b.release(g);
            })
        };
        // Give the big request time to enqueue its ticket, then hammer the
        // budget with small requests; they must queue *behind* it.
        while b.state.lock().next < 2 {
            std::thread::yield_now();
        }
        let smalls: Vec<_> = (0..8)
            .map(|_| {
                let b = Arc::clone(&b);
                std::thread::spawn(move || {
                    let g = b.acquire(10);
                    b.release(g);
                })
            })
            .collect();
        b.release(seed); // budget drains; the big request must be admitted
        big.join().unwrap();
        for s in smalls {
            s.join().unwrap();
        }
    }

    #[test]
    fn estimates_scale_with_n() {
        let q = Query::Bfs { src: 0 };
        assert!(dram_estimate(2000, &q) > dram_estimate(1000, &q));
        assert!(max_estimate(1000) >= dram_estimate(1000, &q));
    }

    /// A unit pays its decode scratch once, whatever its members and the
    /// shard count: the buffers come from the worker's one arena. And a
    /// 1-hop probe is priced by the graph, not by its center's shard range:
    /// its neighbours are global ids, and edge-balanced shards put the hubs
    /// in the smallest ranges.
    #[test]
    fn scratch_charged_once_per_unit_on_a_sharded_snapshot() {
        use crate::batch::QueryBatch;
        use crate::queue::Pending;
        use sage_graph::{gen, ShardedCsr};

        let csr = gen::rmat(9, 8, gen::RmatParams::default(), 23);
        let g = ShardedCsr::from_csr_compressed(&csr, 4, 64, u32::MAX);
        let plain = ShardedCsr::from_csr(&csr, 4);
        assert_eq!(g.num_shards(), 4);
        let scratch = decode_scratch_estimate(&g);
        assert!(scratch > 0, "compressed shards decode");
        assert_eq!(decode_scratch_estimate(&plain), 0, "plain shards do not");

        let batch = |class, queries: Vec<Query>| {
            let members = queries
                .into_iter()
                .enumerate()
                .map(|(i, q)| Pending::new(i as u64, q).0)
                .collect();
            QueryBatch::new(members, class)
        };
        let src = g.shard_range(0).start;
        let units = [
            batch(
                BatchClass::Neighborhood,
                vec![Query::Neighborhood { src, hops: 1 }; 8],
            ),
            batch(BatchClass::Bfs, vec![Query::Bfs { src: 0 }]),
            batch(
                BatchClass::Bfs,
                (0..8).map(|src| Query::Bfs { src }).collect(),
            ),
            batch(
                BatchClass::Connected,
                vec![Query::Connected { u: 0, v: 1 }; 3],
            ),
        ];
        for unit in &units {
            assert_eq!(
                batch_estimate_for(&g, unit) - batch_estimate_for(&plain, unit),
                scratch,
                "{:?}",
                unit.class()
            );
            // Four shards cost the one-shard price plus a page per part
            // meter.
            assert_eq!(
                batch_estimate_for(&plain, unit),
                batch_estimate_for(&csr, unit) + 4 * 4096,
                "{:?}",
                unit.class()
            );
        }
    }

    #[test]
    fn compressed_graphs_pay_a_decode_scratch_surcharge() {
        use sage_graph::{gen, CompressedCsr};
        let csr = gen::rmat(9, 8, gen::RmatParams::default(), 17);
        let comp = CompressedCsr::from_csr(&csr, 64);
        assert_eq!(decode_scratch_estimate(&csr), 0, "CSR streams in place");
        let surcharge = decode_scratch_estimate(&comp);
        assert!(surcharge > 0, "compressed decode needs scratch");
        assert!(
            surcharge <= Graph::size_bytes(&comp) as u64,
            "scratch bounded by the encoded graph"
        );
        let q = Query::Bfs { src: 0 };
        assert_eq!(
            dram_estimate_for(&comp, &q),
            dram_estimate(comp.num_vertices(), &q) + surcharge
        );
    }

    #[test]
    fn measured_cost_starts_apriori_and_learns_downward() {
        let m = MeasuredCost::new();
        let apriori = 1 << 20;
        // Unobserved: full a-priori estimate, unbounded affordability.
        assert_eq!(m.estimate(CostKind::Bfs, 4, apriori), apriori);
        assert_eq!(m.affordable(CostKind::Bfs, apriori), usize::MAX);
        // One observation: 1024 words over 2 members = 4096 bytes each.
        m.observe(CostKind::Bfs, 2, 1024);
        assert_eq!(m.per_member_bytes(CostKind::Bfs), Some(4096));
        assert_eq!(m.estimate(CostKind::Bfs, 2, apriori), 8192);
        assert_eq!(m.affordable(CostKind::Bfs, 40_960), 10);
        // Other kinds stay unobserved.
        assert_eq!(m.per_member_bytes(CostKind::KCore), None);
    }

    #[test]
    fn measured_cost_is_clamped_by_the_apriori_bound_and_floor() {
        let m = MeasuredCost::new();
        // A wildly expensive observation cannot push the estimate past the
        // a-priori bound (it is a safety clamp, not a suggestion)...
        m.observe(CostKind::PageRank, 1, u64::MAX / WORD / 2);
        assert_eq!(m.estimate(CostKind::PageRank, 8, 10_000), 10_000);
        // ...and a near-zero observation cannot price below the floor.
        let m = MeasuredCost::new();
        m.observe(CostKind::PageRank, 1_000_000, 1);
        assert_eq!(m.per_member_bytes(CostKind::PageRank), Some(4096));
        assert_eq!(m.estimate(CostKind::PageRank, 1, 1 << 20), 4096);
        // Affordability always admits the head request.
        assert_eq!(m.affordable(CostKind::PageRank, 0), 1);
    }

    #[test]
    fn measured_cost_ewma_converges_toward_recent_samples() {
        let m = MeasuredCost::new();
        m.observe(CostKind::Connected, 1, 1 << 20); // 8 MiB/member start
        for _ in 0..64 {
            m.observe(CostKind::Connected, 1, 1024); // settle at 8 KiB
        }
        let per = m.per_member_bytes(CostKind::Connected).unwrap();
        assert!(
            (4096..16 * 1024).contains(&per),
            "EWMA should approach the recent 8 KiB sample, got {per}"
        );
    }
}
