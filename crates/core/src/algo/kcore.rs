//! k-core / coreness decomposition (§4.3.4) — Julienne peeling.
//!
//! Vertices are bucketed by induced degree; each round peels the minimum
//! bucket, decrements neighbors through the paper's dense histogram (one
//! reusable scratch for the whole peel), and re-buckets. Computes the
//! coreness of every vertex and the number of peeling rounds (the paper
//! reports 130,728 rounds and `kmax = 10565` on Hyperlink2012).
//!
//! With that many rounds, what a round costs beyond its edges is the whole
//! story, so the peel is built to cost what its keys cost: it enters the
//! pool once ([`par::in_pool`]) instead of once per primitive, rounds below
//! the histogram's and the buckets' own cutoffs run on the calling worker
//! without a fork, and the only per-vertex state is one `u32` — the induced
//! degree, which is the coreness once the vertex is peeled.

use crate::bucket::{Buckets, Order, Packing, SEQ_BATCH};
use sage_graph::{Graph, V};
use sage_nvram::meter;
use sage_parallel as par;
use std::sync::atomic::{AtomicU32, Ordering};

/// Result of the k-core decomposition.
pub struct KcoreResult {
    /// Coreness (largest k such that the vertex is in the k-core).
    pub coreness: Vec<u32>,
    /// Number of peeling rounds (bucket extractions).
    pub rounds: usize,
    /// Largest non-empty core (`kmax`).
    pub kmax: u32,
}

/// Several restricted-reporting coreness requests answered by **one** shared
/// peel (possibly [truncated](kcore_bounded)) — the entry point the serving
/// layer's same-`k`-threshold batching uses.
pub struct KcoreMultiResult {
    /// One `(vertex, coreness)` report per request, in request order.
    pub reports: Vec<Vec<(V, u32)>>,
    /// Largest non-empty core found by the shared peel (clamped at the
    /// threshold for truncated peels; see [`kcore_bounded`]).
    pub kmax: u32,
    /// Peeling rounds the shared run performed.
    pub rounds: usize,
}

/// Peel the graph; see [`KcoreResult`].
pub fn kcore<G: Graph>(g: &G) -> KcoreResult {
    kcore_bounded(g, None)
}

/// Peel the graph, optionally stopping at a coreness threshold.
///
/// With `threshold = Some(t)` the peel halts as soon as the minimum bucket
/// reaches `t`: every vertex still unpeeled at that point has induced degree
/// ≥ `t` in the remaining subgraph, i.e. it is in the `t`-core, so its
/// (clamped) coreness is reported as `t` without peeling further. The result
/// equals the full decomposition with `coreness[v] → min(coreness[v], t)`
/// and `kmax → min(kmax, t)` — exact where it matters ("is `v` in the
/// `t`-core, and what is its coreness below `t`?") at a fraction of the
/// rounds, which is what a serving layer answering bounded-`k` queries
/// wants. `threshold = None` is the classic full peel.
pub fn kcore_bounded<G: Graph>(g: &G, threshold: Option<u32>) -> KcoreResult {
    par::in_pool(|| peel(g, threshold))
}

/// `f(0..len)` collected in order: on this worker below [`SEQ_BATCH`]
/// elements (the cutoff the bucket structure applies to the same vectors),
/// forked above it.
fn map_round<T: Send>(len: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    if len < SEQ_BATCH {
        (0..len).map(f).collect()
    } else {
        par::par_map(len, f)
    }
}

fn peel<G: Graph>(g: &G, threshold: Option<u32>) -> KcoreResult {
    let n = g.num_vertices();
    // Induced degree of every unpeeled vertex, clamped from below at the
    // level being peeled; a vertex leaves at the level its degree reached,
    // so once peeled this *is* its coreness, and `degree[u] > k` is exactly
    // "u is still unpeeled" while level `k` is processed (the bucket just
    // extracted held every vertex at degree `k`). All accesses are Relaxed:
    // each round reads in one phase and writes distinct slots in the next,
    // with a fork-join barrier (or nothing but this thread) in between.
    let degree: Vec<AtomicU32> = par::par_map(n, |v| AtomicU32::new(g.degree(v as V) as u32));
    let mut buckets = Buckets::new(n, Order::Increasing, Packing::SemiEager, |v| {
        Some(g.degree(v) as u64)
    });
    let mut k = 0u32;
    let mut rounds = 0usize;
    let mut truncated = false;
    // One histogram for the whole peel, checked out of the current
    // QueryArena so back-to-back queries reuse its scratch too.
    let mut histogram = crate::arena::fetch_histogram();
    while let Some((bkt, ids)) = buckets.next_bucket() {
        let bkt = bkt as u32;
        if threshold.is_some_and(|t| bkt >= t) {
            // Everything still unpeeled (including this bucket) has
            // induced degree ≥ t: it is in the t-core. Stop peeling.
            truncated = true;
            break;
        }
        debug_assert!(bkt >= k, "buckets must come out in increasing order");
        rounds += 1;
        k = bkt;
        // Histogram of still-unpeeled neighbors of the peeled set (§4.3.4).
        let ids_ref: &[V] = &ids;
        let total_keys = if ids.len() < SEQ_BATCH {
            ids.iter().map(|&v| g.degree(v)).sum()
        } else {
            par::reduce_add(0, ids.len(), |i| g.degree(ids_ref[i]) as u64) as usize
        };
        let counts = histogram.count(ids.len(), total_keys, n, |i, emit| {
            g.for_each_edge(ids_ref[i], |u, _| {
                if degree[u as usize].load(Ordering::Relaxed) > k {
                    emit(u);
                }
            });
        });
        meter::aux_read(histogram.last_work());
        // Decrement degrees (clamped at k) and re-bucket. The histogram keys
        // are distinct, so the degree writes are race-free.
        let updates: Vec<(V, u64)> = map_round(counts.len(), |i| {
            let (u, c) = counts[i];
            let slot = &degree[u as usize];
            let nd = slot.load(Ordering::Relaxed).saturating_sub(c).max(k);
            slot.store(nd, Ordering::Relaxed);
            (u, nd as u64)
        });
        buckets.update_batch_distinct(&updates);
    }
    crate::arena::release_histogram(histogram);
    let mut coreness: Vec<u32> = degree.into_iter().map(AtomicU32::into_inner).collect();
    if truncated {
        // Unpeeled vertices sit at degree ≥ t, peeled ones below it. The
        // t-core is non-empty (we stopped because vertices remained at
        // bucket ≥ t), so min(kmax, t) = t.
        let t = threshold.expect("truncation implies a threshold");
        coreness.iter_mut().for_each(|c| *c = (*c).min(t));
        k = t;
    }
    KcoreResult {
        coreness,
        rounds,
        kmax: k,
    }
}

/// Evaluate several restricted-reporting coreness requests over **one**
/// shared (possibly [truncated](kcore_bounded)) peel: the decomposition runs
/// once per threshold and every request's report is read off the same
/// coreness array — so `k` same-threshold queries cost one peel instead of
/// `k`, and each report is bitwise-identical to a standalone
/// [`kcore_bounded`] + lookup.
pub fn kcore_multi<G: Graph>(
    g: &G,
    threshold: Option<u32>,
    requests: &[Vec<V>],
) -> KcoreMultiResult {
    let kc = kcore_bounded(g, threshold);
    let reports = requests
        .iter()
        .map(|req| {
            req.iter()
                .map(|&v| (v, kc.coreness[v as usize]))
                .collect::<Vec<_>>()
        })
        .collect();
    KcoreMultiResult {
        reports,
        kmax: kc.kmax,
        rounds: kc.rounds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq;
    use sage_graph::{gen, CompressedCsr};

    #[test]
    fn matches_sequential_on_rmat() {
        let g = gen::rmat(9, 8, gen::RmatParams::default(), 111);
        let r = kcore(&g);
        assert_eq!(r.coreness, seq::coreness(&g));
        assert_eq!(r.kmax, *r.coreness.iter().max().unwrap());
    }

    #[test]
    fn clique_with_tail() {
        let mut edges = vec![(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)];
        edges.push((3, 4));
        edges.push((4, 5));
        let g = sage_graph::build_csr(
            sage_graph::EdgeList::new(6, edges),
            sage_graph::BuildOptions::default(),
        );
        let r = kcore(&g);
        assert_eq!(r.coreness, vec![3, 3, 3, 3, 1, 1]);
        assert_eq!(r.kmax, 3);
    }

    #[test]
    fn complete_graph_core() {
        let g = gen::complete(10);
        let r = kcore(&g);
        assert!(r.coreness.iter().all(|&c| c == 9));
    }

    #[test]
    fn star_has_core_one() {
        let g = gen::star(100);
        let r = kcore(&g);
        assert!(r.coreness.iter().all(|&c| c == 1));
    }

    #[test]
    fn compressed_graph_kcore() {
        let csr = gen::rmat(8, 12, gen::RmatParams::web(), 113);
        let g = CompressedCsr::from_csr(&csr, 64);
        assert_eq!(kcore(&g).coreness, seq::coreness(&csr));
    }

    #[test]
    fn grid_is_two_core() {
        let g = gen::grid(10, 10);
        let r = kcore(&g);
        assert_eq!(r.kmax, 2);
        assert_eq!(r.coreness, seq::coreness(&g));
    }

    #[test]
    fn zero_nvram_writes() {
        use sage_nvram::Meter;
        let g = gen::rmat(8, 8, gen::RmatParams::default(), 115);
        let before = Meter::global().snapshot();
        let _ = kcore(&g);
        assert_eq!(Meter::global().snapshot().since(&before).graph_write, 0);
    }

    /// The truncated peel equals the full decomposition clamped at the
    /// threshold — for every threshold, including 0 and past-kmax ones —
    /// and never does more rounds than the full peel.
    #[test]
    fn bounded_peel_is_the_clamped_decomposition() {
        let g = gen::rmat(9, 8, gen::RmatParams::default(), 117);
        let full = kcore(&g);
        for t in [0u32, 1, 2, full.kmax, full.kmax + 3] {
            let b = kcore_bounded(&g, Some(t));
            assert_eq!(b.kmax, full.kmax.min(t), "threshold {t}");
            assert!(b.rounds <= full.rounds, "threshold {t}");
            let expect: Vec<u32> = full.coreness.iter().map(|&c| c.min(t)).collect();
            assert_eq!(b.coreness, expect, "threshold {t}");
        }
        // A genuinely truncating threshold saves rounds on this graph.
        assert!(kcore_bounded(&g, Some(1)).rounds < full.rounds);
    }

    #[test]
    fn multi_reports_match_standalone_lookups() {
        let g = gen::rmat(8, 8, gen::RmatParams::default(), 119);
        let requests = vec![vec![0, 3, 3], vec![], vec![9]];
        for t in [None, Some(2)] {
            let multi = kcore_multi(&g, t, &requests);
            let solo = kcore_bounded(&g, t);
            assert_eq!(multi.kmax, solo.kmax);
            assert_eq!(multi.rounds, solo.rounds);
            for (req, report) in requests.iter().zip(&multi.reports) {
                let expect: Vec<(V, u32)> = req
                    .iter()
                    .map(|&v| (v, solo.coreness[v as usize]))
                    .collect();
                assert_eq!(report, &expect);
            }
        }
    }
}
