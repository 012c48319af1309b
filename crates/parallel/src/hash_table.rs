//! A fixed-capacity concurrent open-addressing hash table.
//!
//! The paper's maximal-matching implementation "uses a parallel hash table to
//! aggregate edges that will be processed in a given round" (§5.3); the sparse
//! histogram and the spanner's inter-cluster edge deduplication use the same
//! structure. Keys are `u64` (with one reserved EMPTY sentinel), values are
//! `u64`, and all operations are lock-free CAS loops over linear probes.
//!
//! Two value conventions coexist, chosen per key by the caller:
//! * **counter** values ([`ConcurrentMap::fetch_add`] /
//!   [`ConcurrentMap::get_counter`]) are stored raw, starting at 0;
//! * **encoded** values ([`ConcurrentMap::insert_if_absent`]) are stored as
//!   `val + 1` so the zero-initialized slot reads as "unset"; readers decode
//!   them from [`ConcurrentMap::entries`]. This reserves `val == u64::MAX`,
//!   which `insert_if_absent` rejects (it would wrap to the unset sentinel
//!   and corrupt the map). Do not mix the two conventions on the same key.

use crate::rng::hash64;
use std::sync::atomic::{AtomicU64, Ordering};

const EMPTY: u64 = u64::MAX;

/// A concurrent `u64 -> u64` map with a capacity fixed at construction.
///
/// Keys must not equal `u64::MAX`. Inserting more than the declared capacity
/// panics (the callers size it from known bounds, e.g. frontier degrees).
pub struct ConcurrentMap {
    keys: Vec<AtomicU64>,
    vals: Vec<AtomicU64>,
    mask: usize,
}

impl ConcurrentMap {
    /// Create a table able to hold at least `capacity` entries with low
    /// contention (size is rounded to the next power of two, ≥ 2x capacity).
    pub fn with_capacity(capacity: usize) -> Self {
        let slots = (capacity.max(8) * 2).next_power_of_two();
        let keys = (0..slots).map(|_| AtomicU64::new(EMPTY)).collect();
        let vals = (0..slots).map(|_| AtomicU64::new(0)).collect();
        Self {
            keys,
            vals,
            mask: slots - 1,
        }
    }

    /// Total slot count (2x requested capacity, rounded up).
    pub fn slots(&self) -> usize {
        self.keys.len()
    }

    #[inline]
    fn slot_of(&self, key: u64) -> usize {
        (hash64(key) as usize) & self.mask
    }

    /// Find the slot for `key`, claiming an empty one if absent.
    #[inline]
    fn probe_insert(&self, key: u64) -> usize {
        debug_assert_ne!(key, EMPTY, "u64::MAX is reserved");
        let mut i = self.slot_of(key);
        let mut tries = 0;
        loop {
            // ORDERING: Acquire — pairs with the Release half of a racing
            // claimer's CAS below, so a probe that finds `key` is ordered
            // after the claim and the value-slot ops that follow it.
            let cur = self.keys[i].load(Ordering::Acquire);
            if cur == key {
                return i;
            }
            if cur == EMPTY {
                // ORDERING: AcqRel on success — Release publishes the claim
                // to later Acquire probes; Acquire (and the Acquire failure
                // ordering) orders our slot use after a racing claimer.
                match self.keys[i].compare_exchange(EMPTY, key, Ordering::AcqRel, Ordering::Acquire)
                {
                    Ok(_) => return i,
                    Err(found) if found == key => return i,
                    Err(_) => {} // someone else claimed it; keep probing
                }
            } else {
                i = (i + 1) & self.mask;
                tries += 1;
                assert!(tries <= self.mask, "ConcurrentMap over capacity");
                continue;
            }
        }
    }

    /// Add `delta` to the value of `key` (inserting 0 first if absent);
    /// returns the previous value.
    pub fn fetch_add(&self, key: u64, delta: u64) -> u64 {
        let i = self.probe_insert(key);
        // ORDERING: AcqRel — RMWs on one atomic already form a total order;
        // AcqRel additionally keeps the counter's publication ordered with
        // the key claim for readers that probe the key first.
        self.vals[i].fetch_add(delta, Ordering::AcqRel)
    }

    /// Insert `(key, val)` only if the key is absent; returns `true` on the
    /// first insert.
    ///
    /// # Value encoding
    /// Slots are zero-initialized, so values are stored as `val + 1` with `0`
    /// meaning "unset" (decode raw [`Self::entries`] values with `- 1`).
    /// That reserves `u64::MAX`: encoding it would wrap back to the unset
    /// sentinel — silently in release builds, corrupting the map — so it is
    /// rejected here.
    ///
    /// # Panics
    /// Panics if `val == u64::MAX` (unrepresentable under the `+1` encoding).
    pub fn insert_if_absent(&self, key: u64, val: u64) -> bool {
        assert_ne!(
            val,
            u64::MAX,
            "u64::MAX is unrepresentable under the +1 value encoding"
        );
        let i = self.probe_insert(key);
        // ORDERING: AcqRel success / Acquire failure — Release publishes the
        // first-inserted value; Acquire orders a losing thread after the
        // winner so its subsequent reads see the winner's value.
        self.vals[i]
            .compare_exchange(0, val + 1, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }

    /// Raw value lookup (for [`Self::fetch_add`]-style counters).
    pub fn get_counter(&self, key: u64) -> Option<u64> {
        let mut i = self.slot_of(key);
        let mut tries = 0;
        loop {
            // ORDERING: Acquire — pairs with the claimer's Release CAS; a
            // reader that finds the key is ordered after the claim.
            let cur = self.keys[i].load(Ordering::Acquire);
            if cur == key {
                // ORDERING: Acquire — pairs with `fetch_add`'s Release half.
                return Some(self.vals[i].load(Ordering::Acquire));
            }
            if cur == EMPTY {
                return None;
            }
            i = (i + 1) & self.mask;
            tries += 1;
            if tries > self.mask {
                return None;
            }
        }
    }

    /// Snapshot all `(key, raw_value)` pairs. Must not race with writers.
    pub fn entries(&self) -> Vec<(u64, u64)> {
        let keys = &self.keys;
        let vals = &self.vals;
        // ORDERING: Relaxed — the snapshot API is documented as not racing
        // with writers, so there is nothing left to order.
        let idx = crate::ops::pack_index(keys.len(), |i| keys[i].load(Ordering::Relaxed) != EMPTY);
        // ORDERING: Relaxed — same quiescence argument as above.
        idx.iter()
            .map(|&i| {
                let i = i as usize;
                // ORDERING: Relaxed — same quiescence argument as above.
                (
                    keys[i].load(Ordering::Relaxed),
                    vals[i].load(Ordering::Relaxed),
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::par_for;

    #[test]
    fn fetch_add_counts_concurrently() {
        let map = ConcurrentMap::with_capacity(100);
        par_for(0, 10_000, |i| {
            map.fetch_add((i % 50) as u64, 1);
        });
        for k in 0..50u64 {
            assert_eq!(map.get_counter(k), Some(200));
        }
        assert_eq!(map.get_counter(50), None);
    }

    #[test]
    fn insert_if_absent_single_winner() {
        let map = ConcurrentMap::with_capacity(4);
        let winners = std::sync::atomic::AtomicUsize::new(0);
        par_for(0, 512, |i| {
            if map.insert_if_absent(3, i as u64) {
                winners.fetch_add(1, Ordering::Relaxed);
            }
        });
        assert_eq!(winners.load(Ordering::Relaxed), 1);
        // The one stored value is some writer's `i`, encoded as `i + 1`.
        let e = map.entries();
        assert_eq!(e.len(), 1);
        assert_eq!(e[0].0, 3);
        assert!((1..=512).contains(&e[0].1), "{e:?}");
    }

    #[test]
    fn entries_returns_all_pairs() {
        let map = ConcurrentMap::with_capacity(64);
        for k in 0..64u64 {
            map.fetch_add(k * 3, k);
        }
        let mut e = map.entries();
        e.sort_unstable();
        assert_eq!(e.len(), 64);
        assert_eq!(e[1], (3, 1));
    }

    #[test]
    fn insert_if_absent_accepts_largest_encodable_value() {
        // Regression: `u64::MAX - 1` encodes to `u64::MAX` and must round-trip
        // (only `u64::MAX` itself is reserved by the +1 encoding).
        let map = ConcurrentMap::with_capacity(8);
        assert!(map.insert_if_absent(2, u64::MAX - 1));
        assert!(!map.insert_if_absent(2, 5), "the first insert wins");
        assert_eq!(map.entries(), vec![(2, u64::MAX)]);
    }

    #[test]
    #[should_panic(expected = "unrepresentable under the +1 value encoding")]
    fn insert_if_absent_rejects_reserved_value() {
        let map = ConcurrentMap::with_capacity(8);
        map.insert_if_absent(1, u64::MAX);
    }

    #[test]
    #[should_panic(expected = "over capacity")]
    fn overflow_panics() {
        let map = ConcurrentMap::with_capacity(4);
        // capacity rounds up to 16 slots; inserting 17 distinct keys must trip.
        for k in 0..32u64 {
            map.fetch_add(k, 1);
        }
    }
}
