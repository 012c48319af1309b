//! Julienne-style bucketing (Appendix B) with semi-eager packing — the
//! **parallel bucket engine** behind wBFS, k-core, approximate densest
//! subgraph, and approximate set cover.
//!
//! A bucketing structure maintains a dynamic map from vertices to integer
//! buckets and repeatedly extracts the lowest (or highest) non-empty bucket.
//!
//! Julienne's original strategy is *lazy*: moved vertices are simply
//! re-inserted and stale copies are skipped at extraction, which can hold up
//! to `O(#updates)` words — too much for the PSAM. The paper's *semi-eager*
//! variant (Appendix B) tracks live/dead counts per bucket and physically
//! packs a bucket when its dead entries outnumber the live ones, bounding the
//! structure at `O(n)` words. Both strategies are implemented and tested for
//! equivalence; semi-eager is the default.
//!
//! As in Julienne's practical variant, a constant number of *open* buckets is
//! kept (the next [`OPEN_BUCKETS`] priorities) plus one overflow bucket that
//! is re-split when reached. The overflow bucket is one bucket: a vertex
//! whose priority changes while it stays out there is not moved (Julienne's
//! "same bucket, no move"), so it holds one copy per vertex however often a
//! far-out degree is decremented.
//!
//! # Parallel batch updates
//!
//! The paper's peeling algorithms run for up to hundreds of thousands of
//! rounds (130,728 on Hyperlink2012), so per-round cost must be proportional
//! to the *batch*, never to `n`, and the batch itself must be applied in
//! parallel to respect the work/depth bounds. [`Buckets::update_batch`]
//! (Julienne's `UpdateBuckets`) therefore:
//!
//! 1. deduplicates the batch in parallel (last move per vertex wins, matching
//!    the sequential loop's semantics);
//! 2. applies id writes and stale-copy accounting with a parallel loop
//!    (distinct vertices touch disjoint slots; per-bucket dead counters are
//!    atomic during the batch);
//! 3. groups surviving moves by destination bucket with a block-local
//!    counting sort — the histogram-style grouping of §4.3.4 — and appends
//!    each group with prefix-sum offsets plus disjoint parallel writes, the
//!    same scatter pattern as `edgeMapChunked`;
//! 4. triggers semi-eager packing once per batch from the updated dead/live
//!    statistics rather than per element, packing stale buckets in parallel.
//!
//! [`Buckets::new`] and the overflow re-split use the same scatter, so
//! construction is a parallel pack instead of an `n`-iteration insert loop.
//! Single-vertex [`Buckets::update`] remains for point updates, and batches
//! below [`SEQ_BATCH`] are applied inline, one move after another, then
//! packed once like step 4: the parallel phases cost a handful of forks and
//! allocations whatever the batch holds, which a peel's typical round (a few
//! hundred moves) never earns back. Both paths are extraction-equivalent by
//! the model tests in `tests/bucket_model.rs`, and neither meters anything
//! that depends on the order of a batch's moves.

use sage_graph::{NONE_V, V};
use sage_nvram::meter;
use sage_parallel as par;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Number of open buckets kept ahead of the current priority.
pub const OPEN_BUCKETS: usize = 128;

/// Bucket id meaning "never schedule this vertex again".
pub const CLOSED: u64 = u64::MAX;

/// Batch sizes below this are applied inline, on the calling thread.
/// Measured break-even on the k-core peel of a scale-17 web R-MAT with two
/// workers (324 batches averaging 1 230 moves): bucket updates took 16.5 ms
/// with the cutoff at 48 and 8.5 ms at 4096, where one thread applies a
/// batch in about the time the parallel path spends forking its phases.
pub const SEQ_BATCH: usize = 4096;

/// Batches applied inline and in parallel, process-wide.
static PATH_CALLS: [AtomicU64; 2] = [AtomicU64::new(0), AtomicU64::new(0)];

/// `(inline, parallel)` batches applied by [`Buckets::update_batch`] and
/// [`Buckets::update_batch_distinct`] in this process so far — lets a test
/// show that its input reached both paths.
#[doc(hidden)]
pub fn path_calls() -> (u64, u64) {
    let read = |i: usize| PATH_CALLS[i].load(Ordering::Relaxed);
    (read(0), read(1))
}

/// Destination slots for the counting-sort scatter: one per open bucket plus
/// the overflow bucket.
const SLOTS: usize = OPEN_BUCKETS + 1;

/// Extraction order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Order {
    /// Extract the smallest bucket first (wBFS, k-core).
    Increasing,
    /// Extract the largest bucket first (set cover).
    Decreasing,
}

/// Packing strategy; see module docs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Packing {
    /// Julienne's lazy deletion.
    Lazy,
    /// The paper's semi-eager packing (Appendix B).
    SemiEager,
}

/// External priority to internal key (`Decreasing` flips the key space).
#[inline]
fn normalize(order: Order, external: u64) -> u64 {
    match (order, external) {
        (_, CLOSED) => CLOSED,
        (Order::Increasing, k) => k,
        (Order::Decreasing, k) => u64::MAX - 1 - k,
    }
}

/// Whether live key `key` lies past the open range that starts at `base`,
/// i.e. its vertex is held by the overflow bucket.
#[inline]
fn in_overflow(key: u64, base: u64) -> bool {
    key != CLOSED && key >= base.saturating_add(OPEN_BUCKETS as u64)
}

/// A dynamic bucketing structure over vertices `0..n`.
pub struct Buckets {
    order: Order,
    packing: Packing,
    /// Current bucket of each vertex (internal key space), CLOSED if done.
    ids: Vec<u64>,
    /// Open buckets: `open[i]` holds vertices with key `base + i`.
    open: Vec<Vec<V>>,
    /// Dead (stale) entry count per open bucket, for semi-eager packing.
    dead: Vec<usize>,
    /// Everything with key >= base + OPEN_BUCKETS.
    overflow: Vec<V>,
    /// Key of `open[0]`.
    base: u64,
}

impl Buckets {
    /// Build from an initial priority function; `None` leaves the vertex out.
    /// Construction is a parallel pack + scatter, `O(n)` work, `O(log n)`
    /// depth — not an `n`-iteration sequential insert loop.
    pub fn new(
        n: usize,
        order: Order,
        packing: Packing,
        key_of: impl Fn(V) -> Option<u64> + Sync,
    ) -> Self {
        let keys: Vec<u64> = par::par_map(n, |v| match key_of(v as V) {
            Some(k) => match order {
                Order::Increasing => k,
                Order::Decreasing => u64::MAX - 1 - k,
            },
            None => CLOSED,
        });
        meter::aux_write(n as u64);
        // `base` starts at 0: clamping in `update` must only reflect already
        // extracted priorities. Inserts beyond the open range fall into the
        // overflow bucket and are re-split on first extraction.
        let mut b = Self {
            order,
            packing,
            ids: keys,
            open: (0..OPEN_BUCKETS).map(|_| Vec::new()).collect(),
            dead: vec![0; OPEN_BUCKETS],
            overflow: Vec::new(),
            base: 0,
        };
        let ids = &b.ids;
        let live: Vec<V> = par::pack_index(n, |v| ids[v] != CLOSED);
        b.scatter_live(&live);
        b
    }

    /// Vertices not yet closed.
    pub fn remaining(&self) -> usize {
        self.ids.iter().filter(|&&k| k != CLOSED).count()
    }

    #[inline]
    fn insert(&mut self, v: V) {
        let k = self.ids[v as usize];
        if k == CLOSED {
            return;
        }
        debug_assert!(k >= self.base, "key below the current bucket");
        let rel = (k - self.base) as usize;
        if rel < OPEN_BUCKETS {
            self.open[rel].push(v);
        } else {
            self.overflow.push(v);
        }
    }

    /// Append every vertex of `items` to the bucket its *current* id selects
    /// (`ids[v]` must be live and `>= base`): block-local destination counts,
    /// a prefix sum per destination, and disjoint parallel writes — the
    /// `edgeMapChunked` aggregation pattern applied to bucket insertion.
    fn scatter_live(&mut self, items: &[V]) {
        let k = items.len();
        if k == 0 {
            return;
        }
        // Bucket pushes are deliberately unmetered, exactly like the
        // sequential `insert` path: callers account the id writes, so both
        // paths report identical traffic for identical logical work.
        if k < SEQ_BATCH {
            for &v in items {
                self.insert(v);
            }
            return;
        }
        let (ids, open, overflow) = (&self.ids, &mut self.open, &mut self.overflow);
        let base = self.base;
        let slot_of = |v: V| -> usize {
            let key = ids[v as usize];
            debug_assert!(key != CLOSED && key >= base, "scatter of a dead vertex");
            (key - base).min(OPEN_BUCKETS as u64) as usize
        };
        // Pass 1: per-block destination counts.
        let block = k.div_ceil(8 * par::num_threads().max(1)).max(SEQ_BATCH);
        let nblocks = k.div_ceil(block);
        let mut offs: Vec<[u32; SLOTS]> = par::par_map_grain(nblocks, 1, |b| {
            let lo = b * block;
            let hi = ((b + 1) * block).min(k);
            let mut c = [0u32; SLOTS];
            for &v in &items[lo..hi] {
                c[slot_of(v)] += 1;
            }
            c
        });
        // Column-wise exclusive scan: offs[b][s] becomes the write offset of
        // block b within destination s; totals[s] the per-destination count.
        // (nblocks × SLOTS is O(P · 129) — constant-ish, scanned serially.)
        let mut totals = [0u32; SLOTS];
        for s in 0..SLOTS {
            let mut acc = 0u32;
            for off in offs.iter_mut() {
                let c = off[s];
                off[s] = acc;
                acc += c;
            }
            totals[s] = acc;
        }
        // Reserve destination tails and capture disjoint write cursors.
        let mut starts = [0usize; SLOTS];
        let mut ptrs: Vec<par::SendPtr<V>> = Vec::with_capacity(SLOTS);
        for s in 0..SLOTS {
            let bucket: &mut Vec<V> = if s < OPEN_BUCKETS {
                &mut open[s]
            } else {
                &mut *overflow
            };
            starts[s] = bucket.len();
            bucket.reserve(totals[s] as usize);
            // SAFETY: pointer to the first uninitialized slot of the reserved
            // tail; `add` below stays within the reservation.
            ptrs.push(par::SendPtr(unsafe { bucket.as_mut_ptr().add(starts[s]) }));
        }
        // Pass 2: disjoint scatter — block b owns [offs[b][s], offs[b+1][s])
        // of every destination s.
        {
            let offs_ref: &[[u32; SLOTS]] = &offs;
            let ptrs_ref: &[par::SendPtr<V>] = &ptrs;
            par::par_for_grain(0, nblocks, 1, |b| {
                let lo = b * block;
                let hi = ((b + 1) * block).min(k);
                let mut cur = offs_ref[b];
                for &v in &items[lo..hi] {
                    let s = slot_of(v);
                    // SAFETY: slot ranges are disjoint per (block, dest).
                    unsafe { ptrs_ref[s].add(cur[s] as usize).write(v) };
                    cur[s] += 1;
                }
            });
        }
        for s in 0..SLOTS {
            let bucket: &mut Vec<V> = if s < OPEN_BUCKETS {
                &mut open[s]
            } else {
                &mut *overflow
            };
            // SAFETY: exactly totals[s] tail slots were written above.
            unsafe { bucket.set_len(starts[s] + totals[s] as usize) };
        }
    }

    /// Move `v` to (internal-order) priority `new_key`; `CLOSED` removes it.
    /// Keys below the current bucket are clamped to it (monotone algorithms
    /// never decrease priorities in Increasing order).
    pub fn update(&mut self, v: V, new_key: u64) {
        if self.apply_move(v, new_key, true) {
            meter::aux_write(1);
        }
    }

    /// [`Buckets::update`] without the metering; `true` when `v` moved.
    /// `pack_now` packs the bucket `v` left as soon as it turns stale; a
    /// batch passes `false` and packs once from the whole batch's statistics,
    /// so that what it packs (and meters) does not depend on the order of
    /// its moves.
    fn apply_move(&mut self, v: V, new_key: u64, pack_now: bool) -> bool {
        let k = normalize(self.order, new_key);
        let old = self.ids[v as usize];
        if old == k {
            return false;
        }
        // Account the stale copy for semi-eager packing.
        if old != CLOSED && old >= self.base {
            let rel = (old - self.base) as usize;
            if rel < OPEN_BUCKETS {
                self.dead[rel] += 1;
                if pack_now && self.packing == Packing::SemiEager {
                    self.maybe_pack(rel);
                }
            }
        }
        let clamped = if k == CLOSED {
            CLOSED
        } else {
            k.max(self.base)
        };
        self.ids[v as usize] = clamped;
        // The overflow bucket is one bucket: a vertex moving within it keeps
        // the copy it has there (the re-split reads its current id), so the
        // bucket holds at most one copy per vertex, not one per move.
        if clamped != CLOSED && !(in_overflow(old, self.base) && in_overflow(clamped, self.base)) {
            self.insert(v);
        }
        true
    }

    /// The small-batch path: the moves one after another on this thread,
    /// metered once.
    fn update_batch_inline(&mut self, moves: &[(V, u64)]) {
        PATH_CALLS[0].fetch_add(1, Ordering::Relaxed);
        let moved = moves
            .iter()
            .filter(|&&(v, k)| self.apply_move(v, k, false))
            .count();
        meter::aux_write(moved as u64);
        if self.packing == Packing::SemiEager {
            self.pack_stale_buckets();
        }
    }

    /// Batch form of [`Buckets::update`] (`UpdateBuckets` in Julienne),
    /// applied in parallel for batches of at least [`SEQ_BATCH`] moves; see
    /// the module docs for the four phases. Duplicate vertices are allowed —
    /// the last move wins, exactly as if the batch were applied in order.
    /// Callers that can guarantee distinct vertices should prefer
    /// [`Buckets::update_batch_distinct`], which skips the dedup sort.
    pub fn update_batch(&mut self, moves: &[(V, u64)]) {
        if moves.len() < SEQ_BATCH {
            self.update_batch_inline(moves);
        } else {
            self.update_batch_parallel(moves, false);
        }
    }

    /// [`Buckets::update_batch`] for batches the caller guarantees contain
    /// **at most one move per vertex** (histogram outputs, deduplicated
    /// frontiers). Skips the `O(k log k)` last-move-wins sort — the dominant
    /// phase-1 cost — which matters at hundreds of thousands of peeling
    /// rounds. Distinctness is debug-checked; a violating batch in release is
    /// still memory-safe (id slots are written atomically, so concurrent
    /// moves of one vertex race benignly: some single move wins, and dead
    /// counts can at worst overcount, which only packs earlier), but which
    /// move wins is unspecified — use [`Buckets::update_batch`] when
    /// duplicates are possible.
    pub fn update_batch_distinct(&mut self, moves: &[(V, u64)]) {
        debug_assert!(
            {
                let mut vs: Vec<V> = moves.iter().map(|&(v, _)| v).collect();
                vs.sort_unstable();
                vs.windows(2).all(|w| w[0] != w[1])
            },
            "update_batch_distinct requires at most one move per vertex"
        );
        if moves.len() < SEQ_BATCH {
            self.update_batch_inline(moves);
        } else {
            self.update_batch_parallel(moves, true);
        }
    }

    /// The large-batch path behind [`Buckets::update_batch`] (`distinct =
    /// false`) and [`Buckets::update_batch_distinct`] (`true`), whatever the
    /// batch size. Public so the model tests can hold it to the same
    /// extraction sequences as the inline path on batches far below
    /// [`SEQ_BATCH`]; everyone else goes through those two.
    #[doc(hidden)]
    pub fn update_batch_parallel(&mut self, moves: &[(V, u64)], distinct: bool) {
        PATH_CALLS[1].fetch_add(1, Ordering::Relaxed);
        let (base, order) = (self.base, self.order);
        // Phase 1: deduplicate unless the caller vouched for distinctness.
        // Sorting (vertex, position) pairs makes "last move wins" a
        // run-boundary pack.
        let deduped: Vec<(V, u64)>;
        let survivors: &[(V, u64)] = if distinct {
            moves
        } else {
            let mut tagged: Vec<(V, u32)> = par::par_map(moves.len(), |i| (moves[i].0, i as u32));
            par::par_sort(&mut tagged);
            let tagged_ref: &[(V, u32)] = &tagged;
            let last_of_run = par::pack_index(tagged.len(), |i| {
                i + 1 == tagged_ref.len() || tagged_ref[i].0 != tagged_ref[i + 1].0
            });
            deduped = par::par_map(last_of_run.len(), |j| {
                moves[tagged_ref[last_of_run[j] as usize].1 as usize]
            });
            &deduped
        };
        // Phase 2: parallel apply; yields each survivor that needs a bucket
        // entry and `NONE_V` for the rest (closes, no-op moves and moves
        // within the overflow bucket).
        // Survivors are one-per-vertex by contract, but id slots are
        // accessed atomically anyway so that a contract violation on the
        // distinct fast path degrades to a benign race (an unspecified move
        // wins) instead of undefined behavior. Relaxed is enough: the
        // scatter below only reads ids after the loop joins.
        let dead_add = [const { AtomicUsize::new(0) }; OPEN_BUCKETS];
        let moved: Vec<V> = {
            // SAFETY: AtomicU64 has the same size, alignment, and bit
            // validity as u64, and `&mut self` guarantees exclusive access
            // to `ids` for the lifetime of this view. The pointer must carry
            // write provenance (`as_mut_ptr`) for the stores below.
            let ids_atomic: &[AtomicU64] = unsafe {
                std::slice::from_raw_parts(
                    self.ids.as_mut_ptr() as *const AtomicU64,
                    self.ids.len(),
                )
            };
            par::par_map(survivors.len(), |j| {
                let (v, external) = survivors[j];
                let k = normalize(order, external);
                let slot = &ids_atomic[v as usize];
                let old = slot.load(Ordering::Relaxed);
                if old == k {
                    return NONE_V; // no-op move, matching the sequential early-out
                }
                if old != CLOSED && old >= base {
                    let rel = (old - base) as usize;
                    if rel < OPEN_BUCKETS {
                        dead_add[rel].fetch_add(1, Ordering::Relaxed);
                    }
                }
                let clamped = if k == CLOSED { CLOSED } else { k.max(base) };
                slot.store(clamped, Ordering::Relaxed);
                // As in `apply_move`: no second copy for a move within the
                // overflow bucket.
                if clamped == CLOSED || (in_overflow(old, base) && in_overflow(clamped, base)) {
                    NONE_V
                } else {
                    v
                }
            })
        };
        meter::aux_write(survivors.len() as u64);
        // Phase 3: group by destination bucket and append (scatter reads the
        // freshly written ids, which now hold each survivor's destination).
        let to_insert: Vec<V> = par::filter_slice(&moved, |&v| v != NONE_V);
        self.scatter_live(&to_insert);
        // Phase 4: merge dead statistics and pack once per batch.
        for (dead, add) in self.dead.iter_mut().zip(dead_add) {
            *dead += add.into_inner();
        }
        if self.packing == Packing::SemiEager {
            self.pack_stale_buckets();
        }
    }

    /// The Appendix B semi-eager threshold, shared by the per-element and
    /// batch packing paths: pack once dead entries outnumber the rest, but
    /// never bother below 16 entries.
    #[inline]
    fn needs_pack(dead: usize, len: usize) -> bool {
        dead > len / 2 && len >= 16
    }

    /// Semi-eager packing: physically drop stale entries once they outnumber
    /// the live ones (Appendix B). Per-element path for [`Buckets::update`].
    fn maybe_pack(&mut self, rel: usize) {
        let bucket = &mut self.open[rel];
        if !Self::needs_pack(self.dead[rel], bucket.len()) {
            return;
        }
        let key = self.base + rel as u64;
        let ids = &self.ids;
        bucket.retain(|&v| ids[v as usize] == key);
        meter::aux_write(bucket.len() as u64);
        self.dead[rel] = 0;
    }

    /// Batch-statistics packing: after a batch, pack every open bucket whose
    /// dead entries outnumber the live ones — across buckets in parallel
    /// when there is a [`SEQ_BATCH`] of entries to walk. Same threshold as
    /// [`Buckets::maybe_pack`].
    fn pack_stale_buckets(&mut self) {
        let mut stale = [false; OPEN_BUCKETS];
        let mut entries = 0;
        for (rel, bucket) in self.open.iter().enumerate() {
            if Self::needs_pack(self.dead[rel], bucket.len()) {
                stale[rel] = true;
                entries += bucket.len();
            }
        }
        if entries == 0 {
            return;
        }
        let (ids, base) = (&self.ids, self.base);
        let pack = |rel: usize, bucket: &mut Vec<V>| {
            if stale[rel] {
                let key = base + rel as u64;
                bucket.retain(|&v| ids[v as usize] == key);
            }
        };
        if entries < SEQ_BATCH {
            self.open
                .iter_mut()
                .enumerate()
                .for_each(|(rel, b)| pack(rel, b));
        } else {
            par::par_for_slices(&mut self.open, pack);
        }
        for rel in (0..OPEN_BUCKETS).filter(|&rel| stale[rel]) {
            meter::aux_write(self.open[rel].len() as u64);
            self.dead[rel] = 0;
        }
    }

    /// Extract the next non-empty bucket: `(external_key, live_vertices)`.
    /// Returns `None` when every vertex is closed.
    pub fn next_bucket(&mut self) -> Option<(u64, Vec<V>)> {
        loop {
            // Scan open buckets.
            for rel in 0..OPEN_BUCKETS {
                if self.open[rel].is_empty() {
                    continue;
                }
                let key = self.base + rel as u64;
                let raw = std::mem::take(&mut self.open[rel]);
                self.dead[rel] = 0;
                let ids = &self.ids;
                let mut live: Vec<V> = if raw.len() > 2048 {
                    let raw_ref: &[V] = &raw;
                    par::pack_index(raw.len(), |i| ids[raw_ref[i] as usize] == key)
                        .into_iter()
                        .map(|i| raw[i as usize])
                        .collect()
                } else {
                    raw.iter()
                        .copied()
                        .filter(|&v| ids[v as usize] == key)
                        .collect()
                };
                // A vertex moved away from this bucket and back again leaves
                // multiple *live* copies; deduplicate before extraction.
                if live.len() > 1 {
                    par::par_sort(&mut live);
                    live.dedup();
                }
                meter::aux_read(raw.len() as u64);
                if live.is_empty() {
                    continue;
                }
                // Close extracted vertices; callers re-insert survivors.
                for &v in &live {
                    self.ids[v as usize] = CLOSED;
                }
                let external = match self.order {
                    Order::Increasing => key,
                    Order::Decreasing => u64::MAX - 1 - key,
                };
                return Some((external, live));
            }
            // Open range exhausted: re-split the overflow bucket in parallel
            // (filter the live entries, advance the base, scatter).
            if self.overflow.is_empty() {
                return None;
            }
            let over = std::mem::take(&mut self.overflow);
            meter::aux_read(over.len() as u64);
            let ids: &[u64] = &self.ids;
            let live: Vec<V> = par::filter_slice(&over, |&v| ids[v as usize] != CLOSED);
            if live.is_empty() {
                return None;
            }
            let live_ref: &[V] = &live;
            let new_base = par::reduce_min(0, live.len(), u64::MAX, |i| ids[live_ref[i] as usize]);
            self.base = new_base;
            self.dead.iter_mut().for_each(|d| *d = 0);
            self.scatter_live(&live);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(b: &mut Buckets) -> Vec<(u64, Vec<V>)> {
        let mut out = Vec::new();
        while let Some((k, mut vs)) = b.next_bucket() {
            vs.sort_unstable();
            out.push((k, vs));
        }
        out
    }

    #[test]
    fn increasing_extraction_order() {
        let keys = [5u64, 1, 5, 3, 1];
        let mut b = Buckets::new(5, Order::Increasing, Packing::SemiEager, |v| {
            Some(keys[v as usize])
        });
        let got = drain(&mut b);
        assert_eq!(got, vec![(1, vec![1, 4]), (3, vec![3]), (5, vec![0, 2])]);
    }

    #[test]
    fn decreasing_extraction_order() {
        let keys = [5u64, 1, 9, 3];
        let mut b = Buckets::new(4, Order::Decreasing, Packing::SemiEager, |v| {
            Some(keys[v as usize])
        });
        let got = drain(&mut b);
        assert_eq!(
            got.iter().map(|(k, _)| *k).collect::<Vec<_>>(),
            vec![9, 5, 3, 1]
        );
    }

    #[test]
    fn none_vertices_never_appear() {
        let mut b = Buckets::new(6, Order::Increasing, Packing::SemiEager, |v| {
            if v % 2 == 0 {
                Some(v as u64)
            } else {
                None
            }
        });
        let got = drain(&mut b);
        let all: Vec<V> = got.into_iter().flat_map(|(_, vs)| vs).collect();
        assert_eq!(all, vec![0, 2, 4]);
    }

    #[test]
    fn update_moves_vertices() {
        let mut b = Buckets::new(3, Order::Increasing, Packing::SemiEager, |_| Some(10));
        b.update(1, 2);
        let (k, vs) = b.next_bucket().unwrap();
        assert_eq!((k, vs), (2, vec![1]));
        b.update(0, CLOSED);
        let (k, vs) = b.next_bucket().unwrap();
        assert_eq!((k, vs), (10, vec![2]));
        assert!(b.next_bucket().is_none());
    }

    #[test]
    fn overflow_resplit() {
        // Keys far beyond the open range.
        let mut b = Buckets::new(4, Order::Increasing, Packing::SemiEager, |v| {
            Some(1000 + 500 * v as u64)
        });
        let got = drain(&mut b);
        assert_eq!(
            got.iter().map(|(k, _)| *k).collect::<Vec<_>>(),
            vec![1000, 1500, 2000, 2500]
        );
    }

    #[test]
    fn lazy_and_semieager_agree_under_churn() {
        let n = 500usize;
        let run = |packing: Packing| {
            let mut b = Buckets::new(n, Order::Increasing, packing, |v| Some(v as u64 % 50));
            let mut order = Vec::new();
            let mut round = 0u64;
            while let Some((k, vs)) = b.next_bucket() {
                order.push((k, {
                    let mut s = vs.clone();
                    s.sort_unstable();
                    s
                }));
                round += 1;
                // Push a fraction of the extracted vertices to later buckets.
                for &v in vs.iter().filter(|&&v| (v as u64 + round) % 3 == 0) {
                    if k < 200 {
                        b.update(v, k + 7);
                    }
                }
            }
            order
        };
        assert_eq!(run(Packing::Lazy), run(Packing::SemiEager));
    }

    #[test]
    fn batched_and_sequential_updates_agree_under_churn() {
        // Same churn as above, but one side applies each round's moves as a
        // single batch on the parallel path, with duplicate moves so that it
        // exercises last-wins dedup.
        let n = 500usize;
        let run = |batched: bool| {
            let mut b = Buckets::new(n, Order::Increasing, Packing::SemiEager, |v| {
                Some(v as u64 % 50)
            });
            let mut order = Vec::new();
            let mut round = 0u64;
            while let Some((k, vs)) = b.next_bucket() {
                order.push((k, {
                    let mut s = vs.clone();
                    s.sort_unstable();
                    s
                }));
                round += 1;
                let moved: Vec<V> = vs
                    .iter()
                    .copied()
                    .filter(|&v| (v as u64 + round) % 3 == 0 && k < 200)
                    .collect();
                if batched {
                    let mut batch: Vec<(V, u64)> = Vec::new();
                    for &v in &moved {
                        batch.push((v, k + 3)); // overwritten by the later move
                        batch.push((v, k + 7));
                    }
                    if let Some(&(dup, _)) = batch.first() {
                        batch.insert(0, (dup, k + 1)); // earlier duplicate loses
                    }
                    b.update_batch_parallel(&batch, false);
                } else {
                    for &v in &moved {
                        b.update(v, k + 7);
                    }
                }
            }
            order
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn parallel_construction_matches_sequential_inserts() {
        // Large enough that new() takes the counting-sort scatter path for
        // both the open range and the overflow bucket.
        let n = 10_000usize;
        let key = |v: u32| match v % 5 {
            0 => None,
            1 => Some(v as u64 % 90),          // open range
            _ => Some(500 + (v as u64 % 300)), // overflow
        };
        let mut b = Buckets::new(n, Order::Increasing, Packing::SemiEager, key);
        let mut expected: Vec<(u64, Vec<V>)> = {
            let mut by_key: std::collections::BTreeMap<u64, Vec<V>> = Default::default();
            for v in 0..n as V {
                if let Some(k) = key(v) {
                    by_key.entry(k).or_default().push(v);
                }
            }
            by_key.into_iter().collect()
        };
        let got = drain(&mut b);
        expected.retain(|(_, vs)| !vs.is_empty());
        assert_eq!(got, expected);
    }

    #[test]
    fn big_batch_with_closes_and_overflow_moves() {
        // Sized from the cutoff: n/2 moves take the parallel batch path and
        // the n/6 of them that re-insert take the counting-sort scatter.
        let n = 16 * SEQ_BATCH;
        let mut b = Buckets::new(n, Order::Increasing, Packing::SemiEager, |v| {
            Some(v as u64 % 8)
        });
        // One parallel batch: close every multiple of 3, push every multiple
        // of 4 far into the overflow, leave the rest.
        let batch: Vec<(V, u64)> = (0..n as V)
            .filter_map(|v| {
                if v % 3 == 0 {
                    Some((v, CLOSED))
                } else if v % 4 == 0 {
                    Some((v, 100_000 + v as u64))
                } else {
                    None
                }
            })
            .collect();
        let reinserted = batch.iter().filter(|&&(_, k)| k != CLOSED).count();
        assert!(batch.len() >= SEQ_BATCH && reinserted >= SEQ_BATCH);
        // The batch is one move per vertex: exercise the distinct fast path.
        let parallel_before = path_calls().1;
        b.update_batch_distinct(&batch);
        assert!(path_calls().1 > parallel_before);
        let got = drain(&mut b);
        let extracted: Vec<V> = got.iter().flat_map(|(_, vs)| vs.iter().copied()).collect();
        assert!(
            extracted.iter().all(|&v| v % 3 != 0),
            "closed vertex escaped"
        );
        for (k, vs) in &got {
            for &v in vs {
                if v % 4 == 0 {
                    assert_eq!(*k, 100_000 + v as u64, "overflow move lost");
                } else {
                    assert_eq!(*k, v as u64 % 8);
                }
            }
        }
        let expected_count = (0..n as V).filter(|v| v % 3 != 0).count();
        assert_eq!(extracted.len(), expected_count);
    }

    #[test]
    fn kcore_style_monotone_updates() {
        // Simulate peeling: everyone starts at degree, moves down as
        // neighbors vanish, clamped at the current bucket.
        let degrees = [3u64, 3, 2, 1];
        let mut b = Buckets::new(4, Order::Increasing, Packing::SemiEager, |v| {
            Some(degrees[v as usize])
        });
        let (k, vs) = b.next_bucket().unwrap();
        assert_eq!((k, vs), (1, vec![3]));
        // Vertex 2 loses a neighbor: key would drop to 1 but clamps to >= 1.
        b.update(2, 1);
        let (k, vs) = b.next_bucket().unwrap();
        assert_eq!((k, vs), (1, vec![2]));
    }
}
