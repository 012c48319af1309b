//! A direct-mapped cache simulator for Optane Memory Mode (§5.1.2).
//!
//! "In Memory Mode, the DRAM acts like a direct-mapped cache between L3 and
//! the NVRAM for each socket … the DRAM hit rate dominates memory
//! performance." The simulator models exactly that: a direct-mapped cache of
//! configurable capacity with 256-byte lines (the effective NVRAM access
//! granularity reported by Izraelevitz et al. \[50\]).
//!
//! It is exercised by the §5.2-style microbenchmark and by Figure 1's
//! GBBS-MemMode projection, where the harness replays a representative access
//! trace to estimate the hit rate plugged into
//! [`crate::meter::MemConfig::MemoryMode`].

/// Default line size: the 256 B effective NVRAM granularity from \[50\].
pub const NVRAM_LINE_BYTES: usize = 256;

/// A direct-mapped write-back cache over a byte address space.
pub struct DirectMappedCache {
    line_bytes: usize,
    tags: Vec<u64>,
    dirty: Vec<bool>,
    hits: u64,
    misses: u64,
    writebacks: u64,
}

const EMPTY_TAG: u64 = u64::MAX;

impl DirectMappedCache {
    /// A cache of `capacity_bytes` with `line_bytes`-sized lines (both must be
    /// powers of two, capacity ≥ one line).
    pub fn new(capacity_bytes: usize, line_bytes: usize) -> Self {
        assert!(
            line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(
            capacity_bytes.is_power_of_two(),
            "capacity must be a power of two"
        );
        assert!(
            capacity_bytes >= line_bytes,
            "capacity smaller than one line"
        );
        let lines = capacity_bytes / line_bytes;
        Self {
            line_bytes,
            tags: vec![EMPTY_TAG; lines],
            dirty: vec![false; lines],
            hits: 0,
            misses: 0,
            writebacks: 0,
        }
    }

    /// Memory-Mode default: capacity as given, 256 B lines.
    // sage-lint: allow(dead-pub) -- ROADMAP item 7 drives this simulator from a traced graph, or deletes it
    pub fn memory_mode(capacity_bytes: usize) -> Self {
        Self::new(capacity_bytes, NVRAM_LINE_BYTES)
    }

    /// Simulate an access of `bytes` bytes at `addr`; `write` marks the lines
    /// dirty (evictions of dirty lines count as NVRAM write-backs).
    // sage-lint: allow(dead-pub) -- ROADMAP item 7 drives this simulator from a traced graph, or deletes it
    pub fn access(&mut self, addr: u64, bytes: usize, write: bool) {
        let first = addr / self.line_bytes as u64;
        let last = (addr + bytes.max(1) as u64 - 1) / self.line_bytes as u64;
        for line_addr in first..=last {
            let idx = (line_addr as usize) % self.tags.len();
            if self.tags[idx] == line_addr {
                self.hits += 1;
            } else {
                self.misses += 1;
                if self.tags[idx] != EMPTY_TAG && self.dirty[idx] {
                    self.writebacks += 1;
                }
                self.tags[idx] = line_addr;
                self.dirty[idx] = false;
            }
            if write {
                self.dirty[idx] = true;
            }
        }
    }

    /// Number of line accesses that hit.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Number of line accesses that missed (each implies an NVRAM line read).
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Dirty evictions (each implies an NVRAM line write).
    // sage-lint: allow(dead-pub) -- ROADMAP item 7 drives this simulator from a traced graph, or deletes it
    pub fn writebacks(&self) -> u64 {
        self.writebacks
    }

    /// Fraction of accesses served from DRAM.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            return 1.0;
        }
        self.hits as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeated_access_hits() {
        let mut c = DirectMappedCache::new(1 << 16, 256);
        c.access(0, 8, false);
        assert_eq!(c.misses(), 1);
        for _ in 0..10 {
            c.access(64, 8, false);
        }
        assert_eq!(c.hits(), 10);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn conflicting_lines_evict() {
        // Two addresses one capacity apart map to the same set.
        let cap = 1 << 12;
        let mut c = DirectMappedCache::new(cap, 256);
        c.access(0, 1, true);
        c.access(cap as u64, 1, false); // evicts dirty line 0
        assert_eq!(c.misses(), 2);
        assert_eq!(c.writebacks(), 1);
        c.access(0, 1, false); // miss again
        assert_eq!(c.misses(), 3);
    }

    #[test]
    fn sequential_scan_hit_rate_matches_line_amortization() {
        // Scanning 8-byte words through 256-byte lines: 1 miss per 32 words.
        let mut c = DirectMappedCache::new(1 << 20, 256);
        for i in 0..32_000u64 {
            c.access(i * 8, 8, false);
        }
        let expected_misses = 32_000 / 32;
        assert_eq!(c.misses(), expected_misses);
        assert!(c.hit_rate() > 0.96);
    }

    #[test]
    fn working_set_larger_than_cache_thrashes() {
        let cap = 1 << 12; // 4 KiB cache
        let mut c = DirectMappedCache::new(cap, 256);
        // Touch a 64 KiB working set twice; second pass still misses.
        for pass in 0..2 {
            for i in 0..256u64 {
                c.access(i * 256, 8, false);
            }
            let _ = pass;
        }
        assert_eq!(c.hits(), 0);
        assert_eq!(c.misses(), 512);
    }

    #[test]
    fn straddling_access_touches_two_lines() {
        let mut c = DirectMappedCache::new(1 << 16, 256);
        c.access(250, 16, false);
        assert_eq!(c.misses(), 2);
    }

    #[test]
    fn empty_cache_hit_rate_is_one() {
        let c = DirectMappedCache::new(1 << 12, 256);
        assert_eq!(c.hit_rate(), 1.0);
    }
}
