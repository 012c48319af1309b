//! The histogram primitive of GBBS (§4.3.4 of the paper): given a multiset of
//! keys (vertex ids), return `(key, count)` pairs for keys that occur.
//!
//! [`Histogram`] is the round-structured form the peeling algorithms hold:
//! the paper's *dense* histogram (one counter per key of the universe) made
//! reusable, so that a round costs what its keys cost. The one-shot free
//! functions [`histogram_dense`] (allocates and packs `O(universe)` per
//! call) and [`histogram_sparse`] (hash-table aggregation) remain for
//! callers without a round structure and for the ablation bench.
//!
//! # Scratch reuse contract
//!
//! Peeling algorithms call the histogram once per round — 130,728 rounds for
//! k-core on Hyperlink2012 — so anything `O(universe)` or freshly allocated
//! per call turns an `O(|peeled neighborhood|)` round into a `Θ(n)` one.
//! [`Histogram`] therefore owns:
//!
//! * a counter array of `universe` slots, allocated on the **first** call
//!   (and re-allocated only if a later call passes a larger universe — see
//!   [`Histogram::dense_allocations`]);
//! * a *touched-key list* for the parallel path, sized by demand
//!   (`min(total_keys, universe)`, grown geometrically): the first increment
//!   of a counter appends its key, so producing the result and resetting the
//!   counters walk only the touched keys.
//!
//! Between calls every counter is zero and the list is empty — the reset is
//! part of `count`, not the caller's job. Per-call work is thus
//! `O(total_keys + |distinct keys|)` after the first call, reported via
//! [`Histogram::last_work`] so PSAM-metered callers can account for it.
//!
//! # Two ways through one scratch
//!
//! Almost every peeling round is small (321 of 324 on a scale-17 web R-MAT
//! emit under `m/16` keys), and a small round is dominated by what it costs
//! to fork, not by its keys. Rounds under `SEQ_KEYS` (32 Ki) keys therefore run on
//! the calling thread with plain loads and stores and no touched list: first
//! touches go straight into the output, which a second pass fills in and
//! resets from. Larger rounds count in parallel with one `fetch_add` per key;
//! each leaf collects the keys it touched first and claims space for
//! `CLAIM` (64) of them at a time, so the shared cursor sees one RMW per 64
//! distinct keys instead of one each.

use crate::hash_table::ConcurrentMap;
use crate::ops::{auto_grain, pack_index, par_for, par_for_grain, par_map};
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};

/// Rounds reporting fewer keys than this are counted on the calling thread.
/// Measured break-even on the k-core peel of a scale-17 web R-MAT with two
/// workers: below 32 Ki keys the forked scan loses to a single thread doing
/// plain stores (18 ms against 24.5 ms over the whole peel).
const SEQ_KEYS: usize = 1 << 15;

/// First-touched keys a parallel leaf buffers before claiming their slots in
/// the touched list with one `fetch_add`. One claim per key kept every
/// worker on the cursor's cache line (41 ms over the same peel); at 64 the
/// cursor no longer shows and the buffer is four cache lines of stack.
const CLAIM: usize = 64;

/// Calls that took the inline path and the parallel path, process-wide.
static PATH_CALLS: [AtomicU64; 2] = [AtomicU64::new(0), AtomicU64::new(0)];

/// `(inline, parallel)` calls of [`Histogram::count`] in this process so
/// far — lets a test show that its input reached both paths.
#[doc(hidden)]
pub fn path_calls() -> (u64, u64) {
    // ORDERING: Relaxed — statistics; they order nothing.
    let read = |i: usize| PATH_CALLS[i].load(Ordering::Relaxed);
    (read(0), read(1))
}

/// A histogram computer with reusable dense scratch; see the module docs.
#[derive(Default)]
pub struct Histogram {
    /// One counter per key of the universe; all zero between calls.
    counts: Vec<AtomicU32>,
    /// Parallel path only: keys whose counter left zero this call, in claim
    /// order. Sized by demand rather than by the universe, so the persistent
    /// footprint stays one `u32` per universe key plus one per
    /// *observed-distinct* key of the largest round.
    touched: Vec<AtomicU32>,
    /// Valid entries in `touched`; zero between calls.
    cursor: AtomicUsize,
    dense_allocations: usize,
    last_work: u64,
}

impl Histogram {
    /// A histogram with no scratch yet; the first call allocates it.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of times the counter array has been (re-)allocated. Stays at 1
    /// across repeated calls with a non-growing universe — the property the
    /// peeling regression tests pin down.
    pub fn dense_allocations(&self) -> usize {
        self.dense_allocations
    }

    /// Auxiliary (DRAM) words touched by the most recent [`Histogram::count`]
    /// call: `total_keys` counter updates, three per distinct key (append,
    /// read out, reset), and — on an allocating call only — the
    /// `O(universe)` scratch initialization. Callers that meter PSAM traffic
    /// report this as `aux` work.
    pub fn last_work(&self) -> u64 {
        self.last_work
    }

    /// Count occurrences of each key produced by `keys_of(i)` for
    /// `i in 0..items`, where each item yields zero or more keys via the
    /// provided iterator closure. `universe` bounds key values, and
    /// `total_keys` must upper-bound the number of keys emitted: it picks
    /// the path and sizes the parallel path's touched list, which panics on
    /// an under-report rather than corrupts (the inline path sizes nothing
    /// from it and stays exact).
    ///
    /// Each occurring key is returned exactly once, in first-touch order on
    /// the inline path and in no particular order on the parallel one.
    pub fn count<F>(
        &mut self,
        items: usize,
        total_keys: usize,
        universe: usize,
        keys_of: F,
    ) -> Vec<(u32, u32)>
    where
        F: Fn(usize, &mut dyn FnMut(u32)) + Sync,
    {
        let grew = self.counts.len() < universe;
        if grew {
            // Zeroed in parallel: a serial O(universe) init on the first
            // round would undercut the depth bound the reuse contract buys.
            self.counts = par_map(universe, |_| AtomicU32::new(0));
            self.dense_allocations += 1;
        }
        let parallel = total_keys >= SEQ_KEYS;
        // ORDERING: Relaxed — a statistic; it orders nothing.
        PATH_CALLS[parallel as usize].fetch_add(1, Ordering::Relaxed);
        let out = if parallel {
            self.count_parallel(items, total_keys.min(universe), keys_of)
        } else {
            self.count_inline(items, keys_of)
        };
        self.last_work =
            total_keys as u64 + 3 * out.len() as u64 + if grew { universe as u64 } else { 0 };
        out
    }

    /// The small-round path: one thread, no RMWs, no touched list.
    fn count_inline<F>(&self, items: usize, keys_of: F) -> Vec<(u32, u32)>
    where
        F: Fn(usize, &mut dyn FnMut(u32)),
    {
        let counts = &self.counts;
        let mut out: Vec<(u32, u32)> = Vec::new();
        for i in 0..items {
            keys_of(i, &mut |k| {
                let slot = &counts[k as usize];
                // ORDERING: Relaxed — `&mut self` in `count` makes this
                // thread the only one touching the scratch for the whole
                // call, so the load/store pair needs no atomicity.
                let c = slot.load(Ordering::Relaxed);
                // ORDERING: Relaxed — single-threaded; see the load above.
                slot.store(c + 1, Ordering::Relaxed);
                if c == 0 {
                    out.push((k, 0));
                }
            });
        }
        for (k, c) in &mut out {
            let slot = &counts[*k as usize];
            // ORDERING: Relaxed — single-threaded; see the counting loop.
            *c = slot.load(Ordering::Relaxed);
            // ORDERING: Relaxed — single-threaded; see the counting loop.
            slot.store(0, Ordering::Relaxed);
        }
        out
    }

    /// The large-round path; `distinct_bound` caps how many keys can leave
    /// zero (`min(total_keys, universe)`).
    fn count_parallel<F>(
        &mut self,
        items: usize,
        distinct_bound: usize,
        keys_of: F,
    ) -> Vec<(u32, u32)>
    where
        F: Fn(usize, &mut dyn FnMut(u32)) + Sync,
    {
        if self.touched.len() < distinct_bound {
            // `distinct_bound <= universe <= counts.len()` caps the growth.
            let target = distinct_bound.next_power_of_two().min(self.counts.len());
            self.touched = par_map(target, |_| AtomicU32::new(0));
        }
        let (counts, touched, cursor) = (&self.counts, &self.touched, &self.cursor);
        // Claim slots for a leaf's buffered first touches and write them.
        let flush = |keys: &[u32]| {
            // ORDERING: Relaxed — only the RMW's atomicity is needed: it
            // hands each leaf a range no other leaf gets. The appends reach
            // the read-out below through the fork-join barrier (SpinLatch
            // Release/Acquire in `join`), not through this access.
            let at = cursor.fetch_add(keys.len(), Ordering::Relaxed);
            for (slot, &k) in touched[at..at + keys.len()].iter().zip(keys) {
                // ORDERING: Relaxed — the claimed range is exclusively ours.
                slot.store(k, Ordering::Relaxed);
            }
        };
        let block = auto_grain(items);
        par_for_grain(0, items.div_ceil(block), 1, |b| {
            let mut buf = [0u32; CLAIM];
            let mut filled = 0;
            for i in b * block..((b + 1) * block).min(items) {
                keys_of(i, &mut |k| {
                    // Exactly one thread sees the 0 -> 1 transition and
                    // records the key; counters return to zero only in the
                    // read-out below, after all increments joined.
                    // ORDERING: Relaxed — only the RMW's atomicity is
                    // needed (a unique 0 -> 1 per key); visibility of the
                    // final counts comes from the fork-join barrier.
                    if counts[k as usize].fetch_add(1, Ordering::Relaxed) == 0 {
                        buf[filled] = k;
                        filled += 1;
                        if filled == CLAIM {
                            flush(&buf);
                            filled = 0;
                        }
                    }
                });
            }
            flush(&buf[..filled]);
        });
        // ORDERING: Relaxed — the counting phase fully happened-before this
        // read via the fork-join barrier above.
        let t = cursor.load(Ordering::Relaxed);
        // Read out and reset only the touched keys, in one pass: they are
        // distinct, so each counter belongs to exactly one iteration.
        let out = par_map(t, |i| {
            // ORDERING: Relaxed — phase-separated read; see cursor note.
            let k = touched[i].load(Ordering::Relaxed);
            let slot = &counts[k as usize];
            // ORDERING: Relaxed — phase-separated read; see cursor note.
            let c = slot.load(Ordering::Relaxed);
            // ORDERING: Relaxed — exclusive reset; see the note above.
            slot.store(0, Ordering::Relaxed);
            (k, c)
        });
        // ORDERING: Relaxed — runs after the read-out's join barrier.
        cursor.store(0, Ordering::Relaxed);
        out
    }
}

/// One-shot dense histogram: atomic counter per key in `0..universe`, then a
/// parallel pack of nonzero counters, **allocating per call** — work
/// `O(total_keys + universe)`. Round-structured callers should hold a
/// [`Histogram`] instead and reuse its scratch. Results are sorted by key.
pub fn histogram_dense<F>(items: usize, universe: usize, keys_of: F) -> Vec<(u32, u32)>
where
    F: Fn(usize, &mut dyn FnMut(u32)) + Sync,
{
    let counts: Vec<AtomicU32> = (0..universe).map(|_| AtomicU32::new(0)).collect();
    par_for(0, items, |i| {
        keys_of(i, &mut |k| {
            // ORDERING: Relaxed — only RMW atomicity is needed during the
            // counting phase; visibility to the pack below comes from the
            // fork-join barrier, not from this access.
            counts[k as usize].fetch_add(1, Ordering::Relaxed);
        });
    });
    // ORDERING: Relaxed — all increments happened-before via the join.
    let nonzero = pack_index(universe, |k| counts[k].load(Ordering::Relaxed) > 0);
    nonzero
        .into_iter()
        // ORDERING: Relaxed — same phase separation as the pack above.
        .map(|k| (k, counts[k as usize].load(Ordering::Relaxed)))
        .collect()
}

/// Sparse histogram: concurrent hash-table aggregation.
/// Work `O(total_keys)` in expectation, independent of the universe size.
pub fn histogram_sparse<F>(items: usize, total_keys: usize, keys_of: F) -> Vec<(u32, u32)>
where
    F: Fn(usize, &mut dyn FnMut(u32)) + Sync,
{
    let map = ConcurrentMap::with_capacity(total_keys.max(16));
    par_for(0, items, |i| {
        keys_of(i, &mut |k| {
            map.fetch_add(k as u64, 1);
        });
    });
    map.entries()
        .into_iter()
        .map(|(k, c)| (k as u32, c as u32))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    impl Histogram {
        /// The between-calls invariant of the reuse contract.
        fn scratch_is_clean(&self) -> bool {
            self.cursor.load(Ordering::Relaxed) == 0
                && self.counts.iter().all(|c| c.load(Ordering::Relaxed) == 0)
        }
    }

    fn reference(keys: &[u32]) -> HashMap<u32, u32> {
        let mut m = HashMap::new();
        for &k in keys {
            *m.entry(k).or_insert(0) += 1;
        }
        m
    }

    fn keys_fixture(n: usize) -> Vec<u32> {
        (0..n)
            .map(|i| (crate::rng::hash64(i as u64) % 97) as u32)
            .collect()
    }

    fn check_against_reference(keys: &[u32], got: &[(u32, u32)]) {
        let want = reference(keys);
        assert_eq!(got.len(), want.len());
        for &(k, c) in got {
            assert_eq!(want[&k], c);
        }
    }

    #[test]
    fn dense_matches_reference() {
        let keys = keys_fixture(10_000);
        let got = histogram_dense(keys.len(), 100, |i, emit| emit(keys[i]));
        check_against_reference(&keys, &got);
    }

    #[test]
    fn sparse_matches_reference() {
        let keys = keys_fixture(10_000);
        let got = histogram_sparse(keys.len(), keys.len(), |i, emit| emit(keys[i]));
        check_against_reference(&keys, &got);
    }

    #[test]
    fn inline_and_parallel_paths_match_reference_on_the_same_keys() {
        let keys = keys_fixture(10_000);
        assert!(keys.len() < SEQ_KEYS);
        let mut h = Histogram::new();
        // An honest bound takes the inline path; `total_keys` is only an
        // upper bound, so an inflated one sends the same keys down the
        // parallel path.
        let (inline0, parallel0) = path_calls();
        let mut inline = h.count(keys.len(), keys.len(), 100, |i, emit| emit(keys[i]));
        assert!(h.scratch_is_clean());
        let mut parallel = h.count(keys.len(), SEQ_KEYS, 100, |i, emit| emit(keys[i]));
        assert!(h.scratch_is_clean());
        let (inline1, parallel1) = path_calls();
        assert!(inline1 > inline0 && parallel1 > parallel0);
        check_against_reference(&keys, &inline);
        inline.sort_unstable();
        parallel.sort_unstable();
        assert_eq!(inline, parallel);
        assert_eq!(h.dense_allocations(), 1);
    }

    #[test]
    fn one_leaf_flushes_its_claim_buffer_many_times() {
        // A single item emitting far more than CLAIM first touches (and a
        // remainder that is not a multiple of it), every key twice.
        let distinct = 10 * CLAIM + 7;
        let mut h = Histogram::new();
        let mut got = h.count(1, SEQ_KEYS, 4096, |_, emit| {
            for k in 0..distinct as u32 {
                emit(k);
                emit(k);
            }
        });
        got.sort_unstable();
        let want: Vec<(u32, u32)> = (0..distinct as u32).map(|k| (k, 2)).collect();
        assert_eq!(got, want);
        assert!(h.scratch_is_clean());
    }

    #[test]
    #[should_panic]
    fn parallel_path_panics_on_underreported_total_keys() {
        // The touched list is sized from `total_keys`; three times as many
        // distinct keys run off its end — a bounds panic, not a stray write.
        let mut h = Histogram::new();
        let _ = h.count(3 * SEQ_KEYS, SEQ_KEYS, 4 * SEQ_KEYS, |i, emit| {
            emit(i as u32)
        });
    }

    #[test]
    fn inline_path_is_exact_whatever_total_keys_says() {
        let keys = keys_fixture(5_000);
        let mut h = Histogram::new();
        let got = h.count(keys.len(), 1, 100, |i, emit| emit(keys[i]));
        check_against_reference(&keys, &got);
        assert!(h.scratch_is_clean());
    }

    #[test]
    fn scratch_allocated_once_and_clean_across_mixed_size_rounds() {
        // The reuse contract over 1 000 rounds on one universe, sizes on
        // both sides of SEQ_KEYS: never re-allocate, every round exact
        // despite the shared counters, scratch zero and cursor 0 after each.
        let mut h = Histogram::new();
        let universe = 50_000;
        for round in 0..1_000u64 {
            let len = if round % 50 == 7 {
                SEQ_KEYS + 1_000
            } else {
                1 + (crate::rng::hash64(round) % 200) as usize
            };
            let keys: Vec<u32> = (0..len as u64)
                .map(|i| (crate::rng::hash64(round * 100_000 + i) % universe as u64) as u32)
                .collect();
            let got = h.count(keys.len(), keys.len(), universe, |i, emit| emit(keys[i]));
            check_against_reference(&keys, &got);
            assert_eq!(h.dense_allocations(), 1, "round {round} re-allocated");
            assert!(h.scratch_is_clean(), "round {round} left scratch behind");
        }
    }

    #[test]
    fn work_is_key_proportional_after_first_call() {
        let mut h = Histogram::new();
        let universe = 100_000usize;
        let warm: Vec<u32> = (0..universe as u32).step_by(7).collect();
        let _ = h.count(warm.len(), warm.len(), universe, |i, emit| emit(warm[i]));
        assert!(
            h.last_work() >= universe as u64,
            "first call pays the alloc"
        );
        let keys: Vec<u32> = (0..128u32).collect();
        let _ = h.count(keys.len(), keys.len(), universe, |i, emit| emit(keys[i]));
        assert!(
            h.last_work() <= 8 * keys.len() as u64,
            "reused-scratch work {} not O(|keys|)",
            h.last_work()
        );
        assert_eq!(h.dense_allocations(), 1);
    }

    #[test]
    fn scratch_grows_for_larger_universe() {
        let mut h = Histogram::new();
        let _ = h.count(4, 4, 100, |i, emit| emit(i as u32));
        let _ = h.count(4, 4, 1_000, |i, emit| emit(900 + i as u32));
        assert_eq!(h.dense_allocations(), 2);
        // And a shrink does not re-allocate.
        let got = h.count(4, 4, 50, |i, emit| emit(i as u32));
        assert_eq!(h.dense_allocations(), 2);
        assert_eq!(got.len(), 4);
    }

    #[test]
    fn multi_key_emission() {
        // Each item emits two keys.
        let got = histogram_dense(100, 10, |i, emit| {
            emit((i % 10) as u32);
            emit(((i + 1) % 10) as u32);
        });
        assert_eq!(got.len(), 10);
        assert!(got.iter().all(|&(_, c)| c == 20));
    }

    #[test]
    fn empty_input() {
        assert!(histogram_dense(0, 10, |_, _| {}).is_empty());
        assert!(histogram_sparse(0, 0, |_, _| {}).is_empty());
        assert!(Histogram::new().count(0, 0, 10, |_, _| {}).is_empty());
        assert!(Histogram::new()
            .count(0, SEQ_KEYS, 10, |_, _| {})
            .is_empty());
    }
}
