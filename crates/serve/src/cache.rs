//! Epoch-keyed result cache: hot queries short-circuit the engine entirely.
//!
//! The serving layer answers queries over an **immutable** snapshot, so a
//! response is fully determined by `(query kind, parameters, snapshot
//! epoch)` — the cache key. Zipf-distributed workloads (the shape a
//! million-user service sees) repeat a small set of hot sources; answering
//! a repeat from DRAM costs the response's word count in `aux_read` and
//! **zero** graph traffic, versus a full traversal.
//!
//! * **Capacity** is charged in bytes against a budget carved out of the
//!   service's DRAM story ([`crate::ServiceConfig::cache_bytes`]; `0`
//!   disables caching — the default, so exact per-query traffic attribution
//!   stays the out-of-the-box behaviour).
//! * **Eviction** is LRU by a monotone touch tick; an entry larger than the
//!   whole capacity is simply not admitted.
//! * **Epoch keying** is the invalidation hook for live updates: bumping the
//!   service epoch (see [`crate::GraphService::publish`]) makes every
//!   cached key stale at lookup time, and [`ResultCache::retain_epoch`]
//!   reclaims their bytes eagerly.
//! * **Coherence**: only successful responses are inserted, the stored
//!   response is returned by clone — bitwise-identical to the engine run
//!   that produced it — and the hit path meters the response's words as
//!   `aux_read` under the caller's scope so per-query traffic still
//!   reconciles with the global meter (with `graph_write == 0` and
//!   `graph_read == 0`, trivially: the graph was never touched).

use crate::query::{Query, Response};
use parking_lot::Mutex;
use std::collections::HashMap;

/// Canonical cache key: the snapshot epoch plus a word-encoding of the
/// query's kind and every parameter that affects its answer.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct CacheKey {
    epoch: u64,
    words: Box<[u64]>,
}

impl CacheKey {
    /// Encode `query` under `epoch`. Every query kind is cacheable — the
    /// snapshot is immutable, so kind + parameters determine the answer.
    pub fn new(query: &Query, epoch: u64) -> Self {
        let mut words: Vec<u64> = Vec::with_capacity(4);
        match query {
            Query::Bfs { src } => {
                words.push(0);
                words.push(*src as u64);
            }
            Query::PageRank {
                iters,
                damping,
                vertices,
            } => {
                words.push(1);
                words.push(*iters as u64);
                words.push(damping.to_bits());
                words.extend(vertices.iter().map(|&v| v as u64));
            }
            Query::KCore { k, vertices } => {
                words.push(2);
                // None ↦ 0, Some(t) ↦ t+1: distinct from every threshold.
                words.push(k.map_or(0, |t| t as u64 + 1));
                words.extend(vertices.iter().map(|&v| v as u64));
            }
            Query::Connected { u, v } => {
                words.push(3);
                words.push(*u as u64);
                words.push(*v as u64);
            }
            Query::Neighborhood { src, hops } => {
                words.push(4);
                words.push(*src as u64);
                words.push(*hops as u64);
            }
        }
        Self {
            epoch,
            words: words.into_boxed_slice(),
        }
    }

    /// The snapshot epoch this key was minted under.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }
}

/// Approximate resident bytes of a cached response (payload vectors plus a
/// fixed overhead for the entry itself) — the currency the cache's byte
/// budget is charged in. Also the word count the hit path meters.
pub fn response_bytes(response: &Response) -> u64 {
    const ENTRY_OVERHEAD: u64 = 64;
    let payload = match response {
        Response::Bfs { levels, .. } => levels.len() as u64 * 8,
        Response::PageRank { ranks, .. } => ranks.len() as u64 * 16,
        Response::KCore { coreness, .. } => coreness.len() as u64 * 8,
        Response::Connected { .. } => 16,
        Response::Neighborhood { vertices } => vertices.len() as u64 * 4,
        Response::Failed { reason } => reason.len() as u64,
    };
    payload + ENTRY_OVERHEAD
}

/// Point-in-time cache statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that missed (including capacity-declined inserts' lookups).
    pub misses: u64,
    /// Successful responses admitted.
    pub insertions: u64,
    /// Entries evicted to make room (LRU order).
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: u64,
    /// Bytes currently charged.
    pub bytes: u64,
}

struct Entry {
    response: Response,
    bytes: u64,
    touched: u64,
}

struct CacheInner {
    map: HashMap<CacheKey, Entry>,
    bytes: u64,
    tick: u64,
    hits: u64,
    misses: u64,
    insertions: u64,
    evictions: u64,
}

/// A byte-budgeted, LRU, epoch-keyed response cache (see module docs).
pub struct ResultCache {
    capacity: u64,
    inner: Mutex<CacheInner>,
}

impl ResultCache {
    /// A cache charging at most `capacity_bytes` (must be non-zero; the
    /// service treats a zero budget as "no cache at all").
    pub fn new(capacity_bytes: u64) -> Self {
        Self {
            capacity: capacity_bytes.max(1),
            inner: Mutex::new(CacheInner {
                map: HashMap::new(),
                bytes: 0,
                tick: 0,
                hits: 0,
                misses: 0,
                insertions: 0,
                evictions: 0,
            }),
        }
    }

    /// Byte budget.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Look up `key`, counting a hit or miss and refreshing recency.
    pub fn get(&self, key: &CacheKey) -> Option<Response> {
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        match inner.map.get_mut(key) {
            Some(e) => {
                e.touched = tick;
                let r = e.response.clone();
                inner.hits += 1;
                Some(r)
            }
            None => {
                inner.misses += 1;
                None
            }
        }
    }

    /// Admit `response` under `key`, evicting LRU entries until it fits.
    /// Failed responses and responses larger than the whole budget are
    /// declined; re-inserting an existing key refreshes its value.
    pub fn insert(&self, key: CacheKey, response: &Response) {
        if matches!(response, Response::Failed { .. }) {
            return;
        }
        let bytes = response_bytes(response) + key.words.len() as u64 * 8;
        if bytes > self.capacity {
            return;
        }
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(old) = inner.map.remove(&key) {
            inner.bytes -= old.bytes;
        }
        while inner.bytes + bytes > self.capacity {
            // LRU scan: entry counts are small (bounded by budget / entry
            // size), so O(entries) per eviction is fine at dispatch rates.
            let victim = inner
                .map
                .iter()
                .min_by_key(|(_, e)| e.touched)
                .map(|(k, _)| k.clone())
                .expect("over budget implies a resident entry");
            let e = inner.map.remove(&victim).expect("victim resident");
            inner.bytes -= e.bytes;
            inner.evictions += 1;
        }
        inner.map.insert(
            key,
            Entry {
                response: response.clone(),
                bytes,
                touched: tick,
            },
        );
        inner.bytes += bytes;
        inner.insertions += 1;
    }

    /// Drop every entry minted under an epoch other than `epoch` — the
    /// eager half of epoch invalidation (the lazy half is that stale keys
    /// can never match a fresh lookup).
    pub fn retain_epoch(&self, epoch: u64) {
        let mut inner = self.inner.lock();
        let stale: Vec<CacheKey> = inner
            .map
            .keys()
            .filter(|k| k.epoch != epoch)
            .cloned()
            .collect();
        for k in stale {
            let e = inner.map.remove(&k).expect("stale key resident");
            inner.bytes -= e.bytes;
            inner.evictions += 1;
        }
    }

    /// Current statistics.
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.lock();
        CacheStats {
            hits: inner.hits,
            misses: inner.misses,
            insertions: inner.insertions,
            evictions: inner.evictions,
            entries: inner.map.len() as u64,
            bytes: inner.bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bfs_key(src: u32, epoch: u64) -> CacheKey {
        CacheKey::new(&Query::Bfs { src }, epoch)
    }

    fn resp(n: usize) -> Response {
        Response::Bfs {
            levels: vec![0; n],
            reached: n,
        }
    }

    #[test]
    fn hit_returns_identical_response_and_counts() {
        let c = ResultCache::new(1 << 20);
        let r = resp(100);
        c.insert(bfs_key(7, 0), &r);
        assert_eq!(c.get(&bfs_key(7, 0)), Some(r));
        assert_eq!(c.get(&bfs_key(8, 0)), None);
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.insertions), (1, 1, 1));
    }

    #[test]
    fn epoch_partitions_the_key_space() {
        let c = ResultCache::new(1 << 20);
        c.insert(bfs_key(7, 0), &resp(10));
        assert!(c.get(&bfs_key(7, 1)).is_none(), "new epoch never hits");
        c.retain_epoch(1);
        assert_eq!(c.stats().entries, 0);
        assert_eq!(c.stats().bytes, 0);
    }

    #[test]
    fn lru_eviction_respects_the_byte_budget() {
        let per = response_bytes(&resp(100)) + 2 * 8;
        let c = ResultCache::new(3 * per);
        for src in 0..3 {
            c.insert(bfs_key(src, 0), &resp(100));
        }
        assert_eq!(c.stats().entries, 3);
        // Touch 0 so 1 becomes LRU, then overflow.
        assert!(c.get(&bfs_key(0, 0)).is_some());
        c.insert(bfs_key(9, 0), &resp(100));
        let s = c.stats();
        assert_eq!(s.entries, 3);
        assert!(s.bytes <= c.capacity());
        assert!(c.get(&bfs_key(1, 0)).is_none(), "LRU entry evicted");
        assert!(c.get(&bfs_key(0, 0)).is_some(), "recently used survives");
    }

    #[test]
    fn oversized_and_failed_responses_are_declined() {
        let c = ResultCache::new(128);
        c.insert(bfs_key(1, 0), &resp(1_000));
        c.insert(bfs_key(2, 0), &Response::Failed { reason: "x".into() });
        assert_eq!(c.stats().entries, 0);
        assert_eq!(c.stats().insertions, 0);
    }

    #[test]
    fn params_reach_the_key() {
        let c = ResultCache::new(1 << 20);
        let q1 = Query::PageRank {
            iters: 5,
            damping: 0.85,
            vertices: vec![1, 2],
        };
        let q2 = Query::PageRank {
            iters: 5,
            damping: 0.9,
            vertices: vec![1, 2],
        };
        c.insert(
            CacheKey::new(&q1, 0),
            &Response::PageRank {
                ranks: vec![(1, 0.5)],
                iterations: 5,
            },
        );
        assert!(c.get(&CacheKey::new(&q2, 0)).is_none());
        assert!(c.get(&CacheKey::new(&q1, 0)).is_some());
    }
}
