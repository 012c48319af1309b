//! Every input of a run — the graph, the BFS sources, the query streams, the
//! update batches — generated from `--seed` and nothing else. The program
//! under test receives only what is generated here; the same seed gives the
//! same inputs.

use crate::spec::{self, Workload};
use sage_core::EdgeUpdate;
use sage_graph::gen::{self, RmatParams};
use sage_graph::{Csr, Graph, V};
use sage_parallel::{hash64, SplitMix64};
use std::ops::Range;

/// Independent random streams of one run, so that adding a draw to one input
/// never shifts another.
#[derive(Clone, Copy)]
enum Stream {
    Graph = 1,
    Sources = 2,
    Backlog = 3,
    Zipf = 4,
    Analytics = 5,
    Updates = 6,
    Reader = 7,
}

fn rng(seed: u64, stream: Stream, index: u64) -> SplitMix64 {
    SplitMix64::new(hash64(
        hash64(seed ^ ((stream as u64) << 56)).wrapping_add(index),
    ))
}

/// The workload's graph at `scale`: symmetrized R-MAT, `n = 2^scale`.
pub fn graph(w: &Workload, scale: u32, seed: u64) -> Csr {
    let params = if w.web {
        RmatParams::web()
    } else {
        RmatParams::default()
    };
    gen::rmat(
        scale,
        spec::EDGE_FACTOR,
        params,
        hash64(seed ^ ((Stream::Graph as u64) << 56)),
    )
}

/// The vertices of the largest component of a canonical labeling (each label
/// is the smallest vertex of its component), ascending. Traversal sources
/// are drawn from here: an R-MAT graph has many isolated vertices, and a BFS
/// from one is no work at all.
pub fn giant_component(labels: &[V]) -> Vec<V> {
    let mut size = vec![0u32; labels.len()];
    for &l in labels {
        size[l as usize] += 1;
    }
    let giant = (0..labels.len())
        .max_by_key(|&l| (size[l], std::cmp::Reverse(l)))
        .unwrap_or(0) as V;
    (0..labels.len() as V)
        .filter(|&v| labels[v as usize] == giant)
        .collect()
}

fn shuffle(items: &mut [V], rng: &mut SplitMix64) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.next_below(i as u64 + 1) as usize);
    }
}

/// The analytics section's fixed BFS sources: distinct giant-component
/// vertices.
pub fn bfs_sources(giant: &[V], seed: u64) -> Vec<V> {
    let mut pool = giant.to_vec();
    shuffle(&mut pool, &mut rng(seed, Stream::Sources, 0));
    pool.truncate(spec::BFS_SOURCES);
    pool
}

fn shuffled_cycle(giant: &[V], mut rng: SplitMix64) -> impl Iterator<Item = V> {
    let mut pool = giant.to_vec();
    shuffle(&mut pool, &mut rng);
    pool.into_iter().cycle()
}

/// An endless stream of distinct point-lookup sources for backlog client
/// `client`: a private shuffle of the giant component, so no lookup of one
/// client repeats until it has asked about every vertex.
pub fn backlog_sources(giant: &[V], seed: u64, client: u64) -> impl Iterator<Item = V> {
    shuffled_cycle(giant, rng(seed, Stream::Backlog, client))
}

/// The same for the update section's reader.
pub fn reader_sources(giant: &[V], seed: u64) -> impl Iterator<Item = V> {
    shuffled_cycle(giant, rng(seed, Stream::Reader, 0))
}

/// `count` point-lookup sources drawn Zipf(1.0) over the first
/// [`spec::ZIPF_UNIVERSE`] giant-component vertices (rank 1 the hottest).
pub fn zipf_sources(giant: &[V], count: usize, seed: u64) -> Vec<V> {
    let universe = &giant[..giant.len().min(spec::ZIPF_UNIVERSE)];
    let mut cdf = Vec::with_capacity(universe.len());
    let mut total = 0.0f64;
    for rank in 1..=universe.len() {
        total += 1.0 / rank as f64;
        cdf.push(total);
    }
    let mut rng = rng(seed, Stream::Zipf, 0);
    (0..count)
        .map(|_| {
            let x = rng.next_f64() * total;
            universe[cdf.partition_point(|&c| c < x).min(universe.len() - 1)]
        })
        .collect()
}

/// The vertices the `i`-th served analytics request reports on. Each request
/// draws its own, so no two requests are equal and the result cache is
/// bypassed: every analytics completion is an engine run (or a share of a
/// batched one).
pub fn analytics_report(n: usize, seed: u64, i: u64) -> Vec<V> {
    let mut rng = rng(seed, Stream::Analytics, i);
    (0..spec::ANALYTICS_REPORT)
        .map(|_| rng.next_below(n as u64) as V)
        .collect()
}

/// The vertex range update batch `e` is confined to: range `e mod 4` of the
/// four contiguous edge-balanced ranges of `base` — boundary `i` is the first
/// vertex at or past `i·m/4` edges, the rule `ShardedCsr::from_csr(base, 4)`
/// partitions by. On the sharded representation every batch therefore lands
/// in one shard, which is the locality an O(delta) publish could exploit;
/// the other representations get the same input shape.
pub fn update_range(base: &Csr, e: usize) -> Range<V> {
    let (offsets, m) = (base.offsets(), base.num_edges() as u64);
    let bound = |i: usize| {
        if i == spec::SHARDS {
            return base.num_vertices() as V;
        }
        let target = m * i as u64 / spec::SHARDS as u64;
        offsets.partition_point(|&o| o < target) as V
    };
    let q = e % spec::SHARDS;
    let (lo, hi) = (bound(q), bound(q + 1).max(bound(q)));
    if hi - lo < 2 {
        // Degenerate at toy scales: fall back to the whole vertex space.
        0..base.num_vertices() as V
    } else {
        lo..hi
    }
}

/// Update batch `e` against `base`: [`spec::UPDATES_PER_PUBLISH`] updates,
/// three inserts to one delete, both endpoints inside [`update_range`].
/// Deletes name edges of `base`, so (on the first epoch at least) they
/// remove something; a delete of an edge an earlier batch already removed is
/// a legal no-op.
pub fn update_batch(base: &Csr, e: usize, seed: u64) -> Vec<EdgeUpdate> {
    let range = update_range(base, e);
    let span = (range.end - range.start) as u64;
    let mut rng = rng(seed, Stream::Updates, e as u64);
    let pick = |rng: &mut SplitMix64| range.start + rng.next_below(span) as V;
    // Two distinct vertices of the range (it holds at least two).
    let pair = |rng: &mut SplitMix64| {
        let (u, v) = (pick(rng), pick(rng));
        if v == u {
            (u, range.start + (v - range.start + 1) % span as V)
        } else {
            (u, v)
        }
    };
    (0..spec::UPDATES_PER_PUBLISH)
        .map(|i| {
            if i % 4 == 3 {
                // A delete: an existing edge with both endpoints in range,
                // found by bounded rejection; fall back to deleting a
                // (probably absent) random pair.
                for _ in 0..64 {
                    let u = pick(&mut rng);
                    let nbrs = base.neighbors(u);
                    if nbrs.is_empty() {
                        continue;
                    }
                    let v = nbrs[rng.next_below(nbrs.len() as u64) as usize];
                    if range.contains(&v) {
                        return EdgeUpdate::delete(u, v);
                    }
                }
                let (u, v) = pair(&mut rng);
                EdgeUpdate::delete(u, v)
            } else {
                let (u, v) = pair(&mut rng);
                EdgeUpdate::insert(u, v)
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let w = spec::workload("serve-backlog").unwrap();
        let (a, b, c) = (graph(&w, 8, 1), graph(&w, 8, 1), graph(&w, 8, 2));
        assert_eq!(a.offsets(), b.offsets());
        assert_ne!(a.offsets(), c.offsets());
        assert_eq!(update_batch(&a, 3, 1), update_batch(&b, 3, 1));
        assert_ne!(update_batch(&a, 3, 1), update_batch(&a, 3, 2));
        assert_ne!(update_batch(&a, 3, 1), update_batch(&a, 4, 1));
    }

    #[test]
    fn giant_component_is_the_largest() {
        // components {0,1,4}, {2,3}, {5}
        assert_eq!(giant_component(&[0, 0, 2, 2, 0, 5]), vec![0, 1, 4]);
        // ties go to the smaller label
        assert_eq!(giant_component(&[0, 1, 0, 1]), vec![0, 2]);
    }

    #[test]
    fn updates_stay_in_their_quarter_and_mix_three_to_one() {
        let w = spec::workload("serve-update").unwrap();
        let g = graph(&w, 10, 1);
        for e in 0..4 {
            let range = update_range(&g, e);
            let batch = update_batch(&g, e, 1);
            let deletes = batch
                .iter()
                .filter(|u| matches!(u, EdgeUpdate::Delete { .. }))
                .count();
            assert_eq!(batch.len(), spec::UPDATES_PER_PUBLISH);
            assert_eq!(deletes * 4, batch.len());
            for up in batch {
                let (u, v) = match up {
                    EdgeUpdate::Insert { u, v, .. } | EdgeUpdate::Delete { u, v } => (u, v),
                };
                assert!(range.contains(&u) && range.contains(&v));
                assert_ne!(u, v);
            }
        }
    }

    #[test]
    fn update_ranges_are_the_shard_ranges() {
        use sage_graph::{Sharded, ShardedCsr};
        let w = spec::workload("serve-update").unwrap();
        let g = graph(&w, 12, 1);
        let sharded = ShardedCsr::from_csr(&g, spec::SHARDS);
        for e in 0..spec::SHARDS {
            assert_eq!(update_range(&g, e), sharded.shard_range(e));
        }
    }

    #[test]
    fn zipf_favours_low_ranks_and_stays_in_the_universe() {
        let giant: Vec<V> = (100..10_000).collect();
        let draws = zipf_sources(&giant, 20_000, 1);
        let universe = &giant[..spec::ZIPF_UNIVERSE];
        assert!(draws.iter().all(|v| universe.contains(v)));
        let hottest = draws.iter().filter(|&&v| v == giant[0]).count();
        let tenth = draws.iter().filter(|&&v| v == giant[9]).count();
        // P(rank 1) = 1/H(4096) ≈ 0.112, ten times P(rank 10).
        assert!((1800..2700).contains(&hottest), "{hottest}");
        assert!(hottest > 5 * tenth);
    }

    #[test]
    fn distinct_sources_do_not_repeat_within_a_pass() {
        let giant: Vec<V> = (0..500).collect();
        let mut seen = std::collections::BTreeSet::new();
        for v in backlog_sources(&giant, 1, 0).take(500) {
            assert!(seen.insert(v));
        }
        let a: Vec<V> = backlog_sources(&giant, 1, 0).take(5).collect();
        let b: Vec<V> = backlog_sources(&giant, 1, 1).take(5).collect();
        let r: Vec<V> = reader_sources(&giant, 1).take(5).collect();
        assert_ne!(a, b);
        assert_ne!(a, r);
    }
}
