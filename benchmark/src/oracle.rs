//! Reference answers and the checks every measured operation goes through.
//!
//! Set-up computes the `sage_core::seq` references once per graph (BFS
//! levels of the fixed sources, ranks, coreness, component partition); each
//! timed round's output is then compared to them in O(n). Served responses
//! are compared with direct engine calls on the same snapshot, every reader
//! result must carry `graph_write == 0`, and every publish must account for
//! exactly the words it flushed. Every check lands in a [`Tally`], which is
//! where `attempted` / `failed` of the result line come from.

use crate::spec;
use sage_core::seq;
use sage_graph::{Csr, V};
use sage_serve::{QueryResult, Response};
use std::sync::atomic::{AtomicU64, Ordering};

/// Largest tolerated absolute rank difference between the parallel and the
/// sequential power method (they sum in different orders).
const RANK_TOLERANCE: f64 = 1e-9;

/// Operations attempted and failed, shared by every thread of a run.
#[derive(Default)]
pub struct Tally {
    attempted: AtomicU64,
    failed: AtomicU64,
}

impl Tally {
    /// Count one attempted operation; `ok == false` counts it as failed and
    /// prints `what` so the first mismatch is visible in the log.
    pub fn check(&self, ok: bool, what: impl FnOnce() -> String) {
        // ORDERING: Relaxed — statistics counters read after the threads
        // that bump them have been joined.
        self.attempted.fetch_add(1, Ordering::Relaxed);
        if !ok {
            // ORDERING: Relaxed — as above.
            if self.failed.fetch_add(1, Ordering::Relaxed) < 8 {
                eprintln!("MISMATCH: {}", what());
            }
        }
    }

    /// Operations counted so far.
    pub fn attempted(&self) -> u64 {
        // ORDERING: Relaxed — see `check`.
        self.attempted.load(Ordering::Relaxed)
    }

    /// Operations that failed a check.
    pub fn failed(&self) -> u64 {
        // ORDERING: Relaxed — see `check`.
        self.failed.load(Ordering::Relaxed)
    }
}

/// Sequential reference answers for one graph.
pub struct Oracle {
    /// Canonical component label (smallest member) of every vertex.
    pub components: Vec<V>,
    /// Vertices of the largest component, ascending.
    pub giant: Vec<V>,
    /// The analytics section's BFS sources.
    pub sources: Vec<V>,
    /// `seq::bfs_levels` of each source.
    pub levels: Vec<Vec<u64>>,
    /// `seq::pagerank(g, 0, PAGERANK_ITERS)`.
    pub ranks: Vec<f64>,
    /// `seq::coreness`.
    pub coreness: Vec<u32>,
}

impl Oracle {
    /// Compute every reference for `g` under `seed`.
    pub fn new(g: &Csr, seed: u64) -> Self {
        let components = seq::components(g);
        let giant = crate::inputs::giant_component(&components);
        let sources = crate::inputs::bfs_sources(&giant, seed);
        let levels = sources.iter().map(|&s| seq::bfs_levels(g, s)).collect();
        let (ranks, _) = seq::pagerank(g, 0.0, spec::PAGERANK_ITERS);
        Self {
            components,
            giant,
            sources,
            levels,
            ranks,
            coreness: seq::coreness(g),
        }
    }

    /// Whether `levels` are the BFS levels of source number `i`.
    pub fn bfs_ok(&self, i: usize, levels: &[u64]) -> bool {
        self.levels[i] == levels
    }

    /// Whether `ranks` match the reference within [`RANK_TOLERANCE`].
    pub fn ranks_ok(&self, ranks: &[f64]) -> bool {
        ranks.len() == self.ranks.len()
            && ranks
                .iter()
                .zip(&self.ranks)
                .all(|(a, b)| (a - b).abs() <= RANK_TOLERANCE)
    }

    /// Whether `coreness` is the reference decomposition.
    pub fn coreness_ok(&self, coreness: &[u32]) -> bool {
        self.coreness == coreness
    }

    /// Whether `labels` induce the reference partition: vertices share a
    /// label exactly when they share a reference component. The reference is
    /// canonical (label = smallest member), so it suffices that every
    /// label class maps to one reference label and back.
    pub fn partition_ok(&self, labels: &[V]) -> bool {
        same_partition(&self.components, labels)
    }
}

/// Whether two labelings of the same vertex set induce the same partition.
pub fn same_partition(a: &[V], b: &[V]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    // Labels are vertex ids (< n) in every labeling the engine produces; a
    // label outside that range cannot be a valid representative.
    let n = a.len();
    let mut a_to_b = vec![V::MAX; n];
    let mut b_to_a = vec![V::MAX; n];
    for (&la, &lb) in a.iter().zip(b) {
        if la as usize >= n || lb as usize >= n {
            return false;
        }
        let (fwd, back) = (&mut a_to_b[la as usize], &mut b_to_a[lb as usize]);
        if *fwd == V::MAX {
            *fwd = lb;
        }
        if *back == V::MAX {
            *back = la;
        }
        if *fwd != lb || *back != la {
            return false;
        }
    }
    true
}

/// A position-sensitive 64-bit checksum of a level array: cheap to keep for
/// every served BFS response so that sampled ones can be compared later
/// without retaining `n` words each.
pub fn levels_checksum(levels: &[u64]) -> u64 {
    levels.iter().enumerate().fold(0u64, |acc, (i, &l)| {
        acc.wrapping_add(sage_parallel::hash64(
            l ^ (i as u64).wrapping_mul(0x9E3779B97F4A7C15),
        ))
    })
}

/// The invariants every reader result must satisfy, whatever it answered:
/// it did not fail inside the engine and it wrote no graph word.
pub fn reader_ok(r: &QueryResult) -> bool {
    !matches!(r.response, Response::Failed { .. }) && r.traffic.graph_write == 0
}

/// Cheap whole-response check of a served BFS from a giant-component
/// source: right shape, source at level 0, and — on the untouched snapshot,
/// before publishes may have merged components — exactly the giant
/// component reached.
pub fn bfs_response_ok(oracle: &Oracle, src: V, r: &QueryResult) -> bool {
    let Response::Bfs { levels, reached } = &r.response else {
        return false;
    };
    reader_ok(r)
        && levels.len() == oracle.components.len()
        && levels[src as usize] == 0
        && (r.epoch != 0 || *reached == oracle.giant.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sage_core::algo::{bfs, connectivity, kcore, pagerank};
    use sage_graph::gen;

    #[test]
    fn engine_answers_pass_and_corrupted_ones_fail() {
        let g = gen::rmat(9, 8, gen::RmatParams::default(), 3);
        let o = Oracle::new(&g, 1);
        assert_eq!(o.sources.len(), spec::BFS_SOURCES);
        let (mut levels, _) = bfs::bfs_levels(&g, o.sources[2]);
        assert!(o.bfs_ok(2, &levels));
        levels[o.giant[5] as usize] += 1;
        assert!(!o.bfs_ok(2, &levels));

        let mut pr = pagerank::pagerank(&g, 0.0, spec::PAGERANK_ITERS).ranks;
        assert!(o.ranks_ok(&pr));
        pr[0] += 1e-6;
        assert!(!o.ranks_ok(&pr));

        let mut kc = kcore::kcore(&g).coreness;
        assert!(o.coreness_ok(&kc));
        kc[o.giant[0] as usize] += 1;
        assert!(!o.coreness_ok(&kc));

        let mut cc = connectivity::connectivity(&g, spec::CC_BETA, spec::CC_SEED);
        assert!(o.partition_ok(&cc));
        // Move one giant-component vertex into a class of its own.
        let v = o.giant[3] as usize;
        cc[v] = if cc[v] == v as V { o.giant[4] } else { v as V };
        assert!(!o.partition_ok(&cc));
    }

    #[test]
    fn same_partition_ignores_label_names_only() {
        assert!(same_partition(&[0, 0, 2, 2], &[1, 1, 3, 3]));
        assert!(!same_partition(&[0, 0, 2, 2], &[1, 1, 1, 1])); // merged
        assert!(!same_partition(&[0, 0, 0, 0], &[1, 1, 3, 3])); // split
        assert!(!same_partition(&[0, 0], &[0, 0, 0]));
    }

    #[test]
    fn checksum_sees_value_and_position() {
        let a = levels_checksum(&[0, 1, 2, u64::MAX]);
        assert_ne!(a, levels_checksum(&[0, 2, 1, u64::MAX]));
        assert_ne!(a, levels_checksum(&[0, 1, 2, 3]));
        assert_eq!(a, levels_checksum(&[0, 1, 2, u64::MAX]));
    }
}
