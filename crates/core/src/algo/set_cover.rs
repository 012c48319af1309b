//! Approximate set cover (§4.3.3) — bucketed parallel greedy in the style of
//! Julienne/MaNIS, with the graphFilter supplying mutation-free "deletion" of
//! covered elements.
//!
//! The instance is a bipartite graph (sets `0..num_sets`, elements above, as
//! produced by `sage_graph::gen::set_cover_instance`). Sets are bucketed by
//! `⌊log_{1+ε} (uncovered degree)⌋` in decreasing order; each round the top
//! bucket's sets race to claim their uncovered elements with random
//! priorities. A set that claims at least a `1/(1+ε)` fraction of its
//! current uncovered degree is added to the cover (so every chosen set is
//! within `(1+ε)` of the greedy choice, preserving the `O(log n)`
//! approximation); the rest release their claims and are re-bucketed at
//! their reduced degree.

use crate::bucket::{Buckets, Order, Packing, CLOSED};
use crate::filter::GraphFilter;
use sage_graph::{Graph, V};
use sage_parallel as par;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Result of the approximate set cover.
pub struct SetCoverResult {
    /// Chosen set ids (all `< num_sets`).
    pub sets: Vec<V>,
    /// Rounds of bucket processing.
    pub rounds: usize,
}

#[inline]
fn log_bucket(eps: f64, deg: u64) -> u64 {
    if deg == 0 {
        return 0;
    }
    ((deg as f64).ln() / (1.0 + eps).ln()).floor() as u64
}

/// Solve the instance; `num_sets` identifies the set-side vertices.
pub fn set_cover<G: Graph>(g: &G, num_sets: usize, eps: f64, seed: u64) -> SetCoverResult {
    assert!(num_sets <= g.num_vertices());
    par::in_pool(|| greedy_rounds(g, num_sets, eps, seed))
}

fn greedy_rounds<G: Graph>(g: &G, num_sets: usize, eps: f64, seed: u64) -> SetCoverResult {
    let n = g.num_vertices();
    let covered: Vec<AtomicBool> = (0..n).map(|_| AtomicBool::new(false)).collect();
    // claim[e]: priority-tagged winning set for element e in this round.
    let claims: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(u64::MAX)).collect();
    let mut filter = GraphFilter::new(g, false);
    // Only set-side vertices are bucketed.
    let mut buckets = Buckets::new(n, Order::Decreasing, Packing::SemiEager, |v| {
        if (v as usize) < num_sets && g.degree(v) > 0 {
            Some(log_bucket(eps, g.degree(v) as u64))
        } else {
            None
        }
    });
    let mut chosen = Vec::new();
    let mut rounds = 0usize;
    while let Some((bkt, sets)) = buckets.next_bucket() {
        rounds += 1;
        // Refresh degrees: pack away covered elements from these sets.
        let covered_ref = &covered;
        let packed = filter.edge_map_pack(&sets, |_, e, _| {
            !covered_ref[e as usize].load(Ordering::Relaxed)
        });
        // Sets whose bucket dropped get re-bucketed; the rest compete.
        // (Bucket each set once, then split with two parallel filters; sets
        // with nothing left to cover drop out.)
        let packed_ref: &[(V, u32)] = &packed;
        let bucketed: Vec<(V, u64, bool)> = par::par_map(packed.len(), |i| {
            let (s, deg) = packed_ref[i];
            (s, log_bucket(eps, deg as u64), deg > 0)
        });
        let competing: Vec<V> = par::filter_slice(&bucketed, |&(_, b, live)| live && b >= bkt)
            .into_iter()
            .map(|(s, _, _)| s)
            .collect();
        let mut rebucket: Vec<(V, u64)> =
            par::filter_slice(&bucketed, |&(_, b, live)| live && b < bkt)
                .into_iter()
                .map(|(s, b, _)| (s, b))
                .collect();
        // Claim phase: min (priority, set) wins each element.
        let comp: &[V] = &competing;
        let claims_ref = &claims;
        let filter_ref = &filter;
        let prio = |s: V| (par::hash64(seed ^ (rounds as u64) << 32 ^ s as u64) << 24) | s as u64;
        par::par_for(0, comp.len(), |i| {
            let s = comp[i];
            let p = prio(s);
            filter_ref.for_each_active(s, |e, _| {
                crate::algo::common::atomic_min(&claims_ref[e as usize], p);
            });
        });
        // Win count per set; winners keep, losers release.
        let win_counts: Vec<u64> = par::par_map(comp.len(), |i| {
            let s = comp[i];
            let p = prio(s);
            let mut wins = 0u64;
            filter_ref.for_each_active(s, |e, _| {
                if claims_ref[e as usize].load(Ordering::Relaxed) == p {
                    wins += 1;
                }
            });
            wins
        });
        for (i, &s) in competing.iter().enumerate() {
            let deg = filter.degree(s) as u64;
            let wins = win_counts[i];
            if wins as f64 >= deg as f64 / (1.0 + eps) {
                chosen.push(s);
                let p = prio(s);
                filter.for_each_active(s, |e, _| {
                    if claims[e as usize].load(Ordering::Relaxed) == p {
                        covered[e as usize].store(true, Ordering::Relaxed);
                    }
                });
                // Removal rides the same batch as the re-buckets below.
                rebucket.push((s, CLOSED));
            } else {
                // Re-bucket at the (possibly reduced) current bucket.
                rebucket.push((s, log_bucket(eps, deg)));
            }
        }
        // Reset the claims touched this round.
        par::par_for(0, comp.len(), |i| {
            filter_ref.for_each_active(comp[i], |e, _| {
                claims_ref[e as usize].store(u64::MAX, Ordering::Relaxed);
            });
        });
        buckets.update_batch_distinct(&rebucket);
    }
    SetCoverResult {
        sets: chosen,
        rounds,
    }
}

/// Verify that `sets` covers every coverable element (test helper).
pub fn check_cover<G: Graph>(g: &G, num_sets: usize, sets: &[V]) -> Result<(), String> {
    let n = g.num_vertices();
    let mut covered = vec![false; n];
    for &s in sets {
        if s as usize >= num_sets {
            return Err(format!("{s} is not a set vertex"));
        }
        g.for_each_edge(s, |e, _| covered[e as usize] = true);
    }
    for (e, &cov) in covered.iter().enumerate().skip(num_sets) {
        if g.degree(e as V) > 0 && !cov {
            return Err(format!("element {e} left uncovered"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq;
    use sage_graph::gen;

    #[test]
    fn covers_random_instance() {
        let g = gen::set_cover_instance(40, 400, 3, 1);
        let r = set_cover(&g, 40, 0.1, 7);
        check_cover(&g, 40, &r.sets).unwrap();
    }

    #[test]
    fn cover_size_close_to_greedy() {
        let g = gen::set_cover_instance(60, 600, 2, 3);
        let r = set_cover(&g, 60, 0.05, 9);
        check_cover(&g, 60, &r.sets).unwrap();
        let greedy = seq::greedy_set_cover(&g, 60);
        assert!(
            r.sets.len() <= 3 * greedy.len() + 2,
            "cover {} vs greedy {}",
            r.sets.len(),
            greedy.len()
        );
    }

    #[test]
    fn single_set_covers_everything() {
        // One set adjacent to all elements dominates.
        let mut edges: Vec<(V, V)> = (0..100u32).map(|e| (0, 5 + e)).collect();
        edges.push((1, 5)); // a redundant small set
        let g = sage_graph::build_csr(
            sage_graph::EdgeList::new(105, edges),
            sage_graph::BuildOptions::default(),
        );
        let r = set_cover(&g, 5, 0.1, 2);
        check_cover(&g, 5, &r.sets).unwrap();
        assert!(r.sets.len() <= 2, "chose {:?}", r.sets);
        assert!(r.sets.contains(&0));
    }

    #[test]
    fn disjoint_sets_all_chosen() {
        // 10 disjoint sets of 5 elements each: all must be chosen.
        let mut edges = Vec::new();
        for s in 0..10u32 {
            for j in 0..5u32 {
                edges.push((s, 10 + s * 5 + j));
            }
        }
        let g = sage_graph::build_csr(
            sage_graph::EdgeList::new(60, edges),
            sage_graph::BuildOptions::default(),
        );
        let r = set_cover(&g, 10, 0.1, 3);
        check_cover(&g, 10, &r.sets).unwrap();
        assert_eq!(r.sets.len(), 10);
    }
}
