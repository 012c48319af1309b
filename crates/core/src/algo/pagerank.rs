//! PageRank (§4.3.5).
//!
//! Dense pull-based iteration: each vertex aggregates its in-neighbors'
//! contributions. Sage's improvement over the Ligra implementation is to
//! perform that aggregation with a *parallel reduction* over the adjacency
//! blocks of high-degree vertices, giving `O(m)` work and `O(log n)` depth
//! per iteration (Table 1: `O(Pit · m)` work, `O(Pit log n)` depth).
//! Dangling mass is redistributed uniformly so ranks stay a distribution.

use sage_graph::{Graph, V};
use sage_parallel as par;

/// Damping factor used throughout the paper's evaluation (§5.3).
pub const DAMPING: f64 = 0.85;

/// Result of a PageRank run.
pub struct PageRankResult {
    /// Final rank vector (sums to 1).
    pub ranks: Vec<f64>,
    /// Iterations until the L1 delta fell below the threshold.
    pub iterations: usize,
}

/// Several restricted-reporting requests answered by **one** shared run —
/// the entry point the serving layer's same-parameter batching uses. Each
/// request is a vertex set; `reports[i]` holds `(vertex, rank)` pairs for
/// request `i`, in request order, read off a single converged rank vector.
pub struct PageRankMultiResult {
    /// One `(vertex, rank)` report per request, in request order.
    pub reports: Vec<Vec<(V, f64)>>,
    /// Iterations the shared power method actually ran.
    pub iterations: usize,
}

/// Run PageRank until the L1 change drops below `eps` (the paper uses
/// `eps = 1e-6`) or `max_iters` is reached, with the paper's damping
/// factor ([`DAMPING`]).
pub fn pagerank<G: Graph>(g: &G, eps: f64, max_iters: usize) -> PageRankResult {
    pagerank_damped(g, eps, max_iters, DAMPING)
}

/// [`pagerank`] with an explicit damping factor — `damping` must be in
/// `(0, 1)`. Runs with the same deterministic reduction order as the
/// default-damping path, so results are bitwise-reproducible per
/// `(eps, max_iters, damping)` parameter set.
fn pagerank_damped<G: Graph>(g: &G, eps: f64, max_iters: usize, damping: f64) -> PageRankResult {
    assert!(
        damping > 0.0 && damping < 1.0,
        "damping factor must be in (0, 1), got {damping}"
    );
    let n = g.num_vertices();
    if n == 0 {
        return PageRankResult {
            ranks: Vec::new(),
            iterations: 0,
        };
    }
    let mut p = vec![1.0 / n as f64; n];
    let mut iterations = 0;
    for _ in 0..max_iters {
        iterations += 1;
        let (next, l1) = pagerank_iteration_damped(g, &p, damping);
        p = next;
        if l1 < eps {
            break;
        }
    }
    PageRankResult {
        ranks: p,
        iterations,
    }
}

/// Evaluate several restricted-reporting requests over **one** shared
/// PageRank run: the power method runs once per `(eps, max_iters, damping)`
/// parameter set and every request's report is read off the same converged
/// vector — so `k` same-parameter queries cost one run instead of `k`, and
/// each report is bitwise-identical to what a standalone run at the same
/// parameters + lookup would produce.
pub fn pagerank_multi<G: Graph>(
    g: &G,
    eps: f64,
    max_iters: usize,
    damping: f64,
    requests: &[Vec<V>],
) -> PageRankMultiResult {
    let pr = pagerank_damped(g, eps, max_iters, damping);
    let reports = requests
        .iter()
        .map(|req| {
            req.iter()
                .map(|&v| (v, pr.ranks[v as usize]))
                .collect::<Vec<_>>()
        })
        .collect();
    PageRankMultiResult {
        reports,
        iterations: pr.iterations,
    }
}

/// One PageRank iteration (the paper's standalone `PageRank-Iter` benchmark)
/// at the default [`DAMPING`]; returns the new vector and the L1 change.
pub fn pagerank_iteration<G: Graph>(g: &G, p: &[f64]) -> (Vec<f64>, f64) {
    pagerank_iteration_damped(g, p, DAMPING)
}

/// One PageRank iteration with an explicit damping factor.
fn pagerank_iteration_damped<G: Graph>(g: &G, p: &[f64], damping: f64) -> (Vec<f64>, f64) {
    let n = g.num_vertices();
    // Contribution of each vertex, and the total dangling mass.
    let contrib: Vec<f64> = par::par_map(n, |u| {
        let d = g.degree(u as V);
        if d == 0 {
            0.0
        } else {
            p[u] / d as f64
        }
    });
    let dangling = par::reduce_map(
        0,
        n,
        0,
        0.0f64,
        |u| if g.degree(u as V) == 0 { p[u] } else { 0.0 },
        |a, b| a + b,
    );
    let base = (1.0 - damping) / n as f64 + damping * dangling / n as f64;
    let next: Vec<f64> = par::par_map(n, |vi| {
        let v = vi as V;
        let nblocks = g.num_blocks_of(v);
        let sum = if nblocks > 16 {
            // Parallel reduction over adjacency blocks (the Sage
            // optimization of §4.3.5 for high-degree vertices).
            par::reduce_map(
                0,
                nblocks,
                1,
                0.0f64,
                |b| {
                    let mut acc = 0.0;
                    g.decode_block(v, b, |_, u, _| acc += contrib[u as usize]);
                    acc
                },
                |a, b| a + b,
            )
        } else {
            let mut acc = 0.0;
            g.for_each_edge(v, |u, _| acc += contrib[u as usize]);
            acc
        };
        base + damping * sum
    });
    let l1 = par::reduce_map(0, n, 0, 0.0f64, |i| (next[i] - p[i]).abs(), |a, b| a + b);
    (next, l1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sage_graph::{gen, CompressedCsr};

    #[test]
    fn ranks_sum_to_one() {
        let g = gen::rmat(9, 8, gen::RmatParams::default(), 141);
        let r = pagerank(&g, 1e-8, 200);
        let sum: f64 = r.ranks.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6, "sum {sum}");
        assert!(r.iterations > 2);
    }

    #[test]
    fn star_center_dominates() {
        let g = gen::star(101);
        let r = pagerank(&g, 1e-10, 500);
        let center = r.ranks[0];
        assert!(r.ranks[1..].iter().all(|&x| x < center));
        // Symmetry among the leaves.
        for w in r.ranks[1..].windows(2) {
            assert!((w[0] - w[1]).abs() < 1e-9);
        }
    }

    #[test]
    fn regular_graph_is_uniform() {
        let g = gen::cycle(64);
        let r = pagerank(&g, 1e-12, 500);
        for &x in &r.ranks {
            assert!((x - 1.0 / 64.0).abs() < 1e-9, "{x}");
        }
    }

    #[test]
    fn compressed_matches_uncompressed() {
        let csr = gen::rmat(8, 10, gen::RmatParams::web(), 143);
        let comp = CompressedCsr::from_csr(&csr, 64);
        let a = pagerank(&csr, 1e-9, 100);
        let b = pagerank(&comp, 1e-9, 100);
        assert_eq!(a.iterations, b.iterations);
        for i in 0..a.ranks.len() {
            assert!((a.ranks[i] - b.ranks[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn dangling_mass_redistributed() {
        // Graph with isolated vertices must still sum to 1.
        let g = sage_graph::build_csr(
            sage_graph::EdgeList::new(10, vec![(0, 1), (1, 2)]),
            sage_graph::BuildOptions::default(),
        );
        let r = pagerank(&g, 1e-10, 300);
        let sum: f64 = r.ranks.iter().sum();
        assert!((sum - 1.0).abs() < 1e-8, "sum {sum}");
    }

    #[test]
    fn single_iteration_l1_decreases() {
        let g = gen::rmat(8, 8, gen::RmatParams::default(), 145);
        let n = g.num_vertices();
        let p0 = vec![1.0 / n as f64; n];
        let (p1, l1a) = pagerank_iteration(&g, &p0);
        let (_, l1b) = pagerank_iteration(&g, &p1);
        assert!(l1b < l1a, "L1 must contract: {l1a} -> {l1b}");
    }

    #[test]
    fn default_damping_is_the_damped_path() {
        let g = gen::rmat(8, 8, gen::RmatParams::default(), 149);
        let a = pagerank(&g, 1e-8, 60);
        let b = pagerank_damped(&g, 1e-8, 60, DAMPING);
        assert_eq!(a.iterations, b.iterations);
        assert_eq!(a.ranks, b.ranks, "delegation must be bitwise-identical");
    }

    #[test]
    fn damping_changes_the_fixed_point() {
        let g = gen::star(50);
        let hot = pagerank_damped(&g, 1e-10, 300, 0.95);
        let cold = pagerank_damped(&g, 1e-10, 300, 0.5);
        // More damping concentrates rank on the star center.
        assert!(hot.ranks[0] > cold.ranks[0]);
    }

    #[test]
    #[should_panic(expected = "damping factor")]
    fn damping_out_of_range_panics() {
        let g = gen::star(4);
        let _ = pagerank_damped(&g, 1e-6, 10, 1.0);
    }

    #[test]
    fn multi_reports_are_bitwise_identical_to_standalone_runs() {
        let g = gen::rmat(9, 8, gen::RmatParams::default(), 151);
        let requests = vec![vec![0, 5, 9], vec![], vec![17, 17, 3]];
        let multi = pagerank_multi(&g, 1e-8, 40, 0.85, &requests);
        let solo = pagerank_damped(&g, 1e-8, 40, 0.85);
        assert_eq!(multi.iterations, solo.iterations);
        assert_eq!(multi.reports.len(), requests.len());
        for (req, report) in requests.iter().zip(&multi.reports) {
            let expect: Vec<(V, f64)> = req.iter().map(|&v| (v, solo.ranks[v as usize])).collect();
            assert_eq!(report, &expect);
        }
    }
}
