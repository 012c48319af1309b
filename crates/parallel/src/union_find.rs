//! A lock-free concurrent union-find (disjoint-set forest) over `0..n`.
//!
//! The finish step of the connectivity family (§4.3.2): after the LDD sample
//! has grouped vertices into clusters, every remaining inter-cluster edge is
//! applied with [`ConcurrentUnionFind::unite`] from one barrier-free parallel
//! loop, in `n` `u32` words of small memory — no contracted graph, no
//! recursion.
//!
//! The algorithm is the classic CAS forest (Anderson & Woll; Jayanti &
//! Tarjan): parents are `AtomicU32`, [`find`](ConcurrentUnionFind::find)
//! halves paths with a CAS per hop, and `unite` CAS-links the **larger** root
//! under the **smaller**. Linking by id keeps the forest acyclic by
//! construction: a link is only ever installed on a node that is still its
//! own parent (the CAS expects `parent[r] == r`), and it points at a smaller
//! id, so ids strictly decrease along every root-to-root hop; halving only
//! replaces a parent by one of that parent's own ancestors.
//!
//! # Memory ordering
//!
//! Every access is `Relaxed`. The forest holds vertex ids and publishes no
//! other memory, and each invariant above is a statement about one location
//! (a node that stopped being a root never becomes one again; a link CAS has
//! exactly one winner), which per-location coherence and CAS atomicity
//! already give. A stale read costs a retry, never a wrong answer: `find`
//! may return a node that has just been linked, `unite` then fails its CAS
//! and walks on. Callers read results (`find`, [`labels`]) after the
//! fork-join barrier that ends the uniting loop, which is what makes the
//! final forest visible to them.
//!
//! [`labels`]: ConcurrentUnionFind::labels

use crate::ops::{par_map, reduce_add};
use std::sync::atomic::{AtomicU32, Ordering};

/// A concurrent disjoint-set forest over the ids `0..len`.
pub struct ConcurrentUnionFind {
    parent: Vec<AtomicU32>,
}

impl ConcurrentUnionFind {
    /// `n` singleton sets. With this start every parent is `<=` its child,
    /// so the root of a set is always its minimum id.
    pub fn new(n: usize) -> Self {
        assert!(n <= u32::MAX as usize, "ids are u32");
        Self {
            parent: par_map(n, |v| AtomicU32::new(v as u32)),
        }
    }

    /// Start from a partition already known: `parents[v]` names the
    /// representative of `v`'s group, and every representative names itself
    /// (a forest of stars — the shape of LDD cluster ids). The root of a set
    /// is then the minimum *representative* id in it.
    ///
    /// # Panics
    /// If some `parents[v]` is out of range or is not its own parent: a
    /// deeper or cyclic input would break the acyclicity argument in the
    /// module docs (and with it `find`'s termination).
    pub fn from_parents(parents: &[u32]) -> Self {
        let bad = reduce_add(0, parents.len(), |v| {
            let p = parents[v] as usize;
            (parents[p] as usize != p) as u64
        });
        assert_eq!(bad, 0, "from_parents needs a forest of stars");
        Self {
            parent: par_map(parents.len(), |v| AtomicU32::new(parents[v])),
        }
    }

    /// Number of ids.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Whether the forest is over zero ids.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// A root of `x`'s set, halving the path walked. Racing with `unite`
    /// the result may already have been linked under another root; once all
    /// unites are done it is the set's unique representative.
    pub fn find(&self, mut x: u32) -> u32 {
        loop {
            // ORDERING: Relaxed — ids only, per-location invariants; see the
            // module docs.
            let p = self.parent[x as usize].load(Ordering::Relaxed);
            if p == x {
                return x;
            }
            // ORDERING: Relaxed — as above.
            let gp = self.parent[p as usize].load(Ordering::Relaxed);
            if gp == p {
                return p;
            }
            // Path halving: point `x` past `p`. Losing the race only means
            // someone else already shortened (or will shorten) this hop.
            // ORDERING: Relaxed success / Relaxed failure — a pure shortcut
            // between two nodes of one tree; nothing is published by it.
            let _ = self.parent[x as usize].compare_exchange_weak(
                p,
                gp,
                Ordering::Relaxed,
                Ordering::Relaxed,
            );
            x = gp;
        }
    }

    /// Merge the sets of `a` and `b`. Returns `true` iff **this call**
    /// installed the link — over any set of concurrent calls exactly
    /// `#sets before − #sets after` of them return `true`.
    pub fn unite(&self, a: u32, b: u32) -> bool {
        let (mut a, mut b) = (a, b);
        loop {
            a = self.find(a);
            b = self.find(b);
            if a == b {
                return false;
            }
            let (hi, lo) = if a > b { (a, b) } else { (b, a) };
            // ORDERING: Relaxed success / Relaxed failure — the CAS itself
            // is the claim: it succeeds only while `hi` is still a root, so
            // each root is linked exactly once; see the module docs for why
            // no cross-location ordering is needed.
            if self.parent[hi as usize]
                .compare_exchange(hi, lo, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
            {
                return true;
            }
            // `hi` was linked by a racing call; retry from where we stand.
        }
    }

    /// `labels[v]` = the representative of `v`'s set, for every id, in
    /// parallel. Must not race with `unite` (run it after the uniting loop
    /// has joined), or two members of one set may report different roots.
    pub fn labels(&self) -> Vec<u32> {
        par_map(self.len(), |v| self.find(v as u32))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::par_for;
    use crate::rng::hash64;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Barrier;

    /// Sequential reference partition: min-id representative per set.
    fn reference(n: usize, pairs: &[(u32, u32)]) -> Vec<u32> {
        fn find(p: &mut [u32], mut x: u32) -> u32 {
            while p[x as usize] != x {
                p[x as usize] = p[p[x as usize] as usize];
                x = p[x as usize];
            }
            x
        }
        let mut p: Vec<u32> = (0..n as u32).collect();
        for &(a, b) in pairs {
            let (ra, rb) = (find(&mut p, a), find(&mut p, b));
            if ra != rb {
                p[ra.max(rb) as usize] = ra.min(rb);
            }
        }
        (0..n as u32).map(|v| find(&mut p, v)).collect()
    }

    fn random_pairs(n: usize, m: usize, seed: u64) -> Vec<(u32, u32)> {
        (0..m as u64)
            .map(|i| {
                (
                    (hash64(seed ^ (2 * i)) % n as u64) as u32,
                    (hash64(seed ^ (2 * i + 1)) % n as u64) as u32,
                )
            })
            .collect()
    }

    #[test]
    fn singleton_start_and_basic_unions() {
        let uf = ConcurrentUnionFind::new(6);
        assert_eq!(uf.len(), 6);
        assert!(!uf.is_empty());
        assert_eq!(uf.labels(), vec![0, 1, 2, 3, 4, 5]);
        assert!(uf.unite(4, 2));
        assert!(!uf.unite(2, 4));
        assert!(uf.unite(5, 4));
        assert!(!uf.unite(3, 3));
        assert_eq!(uf.labels(), vec![0, 1, 2, 3, 2, 2]);
        assert!(ConcurrentUnionFind::new(0).is_empty());
    }

    #[test]
    fn pool_unions_match_sequential_partition() {
        // Sparse enough to leave many sets, dense enough to build long
        // chains: the roots must be the minimum ids and the number of
        // winning calls exactly n − #sets.
        for (n, m, seed) in [(1usize << 12, 3000usize, 1u64), (1 << 14, 40_000, 2)] {
            let pairs = random_pairs(n, m, seed);
            let uf = ConcurrentUnionFind::new(n);
            let wins = AtomicUsize::new(0);
            par_for(0, pairs.len(), |i| {
                if uf.unite(pairs[i].0, pairs[i].1) {
                    // ORDERING: Relaxed — a statistic read after the join.
                    wins.fetch_add(1, Ordering::Relaxed);
                }
            });
            let want = reference(n, &pairs);
            assert_eq!(uf.labels(), want, "n = {n}");
            let sets = (0..n).filter(|&v| want[v] == v as u32).count();
            // ORDERING: Relaxed — the par_for above has joined.
            assert_eq!(wins.load(Ordering::Relaxed), n - sets, "n = {n}");
        }
    }

    /// T OS threads released together by a barrier unite interleaved slices
    /// of one pair list; bounded iteration count so the CI job stays short.
    #[test]
    fn stress_threads_uniting_random_pairs() {
        const THREADS: usize = 4;
        const ITERS: u64 = 20;
        let n = 2048;
        for iter in 0..ITERS {
            let pairs = random_pairs(n, 1500 + 100 * iter as usize, 0xC0FFEE + iter);
            let uf = ConcurrentUnionFind::new(n);
            let barrier = Barrier::new(THREADS);
            let wins: usize = std::thread::scope(|s| {
                let handles: Vec<_> = (0..THREADS)
                    .map(|t| {
                        let (uf, pairs, barrier) = (&uf, &pairs, &barrier);
                        s.spawn(move || {
                            barrier.wait();
                            pairs
                                .iter()
                                .skip(t)
                                .step_by(THREADS)
                                .filter(|&&(a, b)| uf.unite(a, b))
                                .count()
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("uniting thread panicked"))
                    .sum()
            });
            let want = reference(n, &pairs);
            assert_eq!(uf.labels(), want, "iteration {iter}");
            let sets = (0..n).filter(|&v| want[v] == v as u32).count();
            assert_eq!(wins, n - sets, "iteration {iter}");
        }
    }

    /// Every thread links a different partner to the *same* root at the same
    /// moment: only one CAS on that root can win, and the losers must carry
    /// their link to the new root instead of dropping it.
    #[test]
    fn racing_links_on_one_root_are_not_lost() {
        const THREADS: u32 = 4;
        for _ in 0..200 {
            // The contended root is the largest id, so every unite tries to
            // link *it* under the caller's partner.
            let uf = ConcurrentUnionFind::new(THREADS as usize + 1);
            let barrier = Barrier::new(THREADS as usize);
            let wins: usize = std::thread::scope(|s| {
                let handles: Vec<_> = (0..THREADS)
                    .map(|t| {
                        let (uf, barrier) = (&uf, &barrier);
                        s.spawn(move || {
                            barrier.wait();
                            uf.unite(THREADS, t) as usize
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("uniting thread panicked"))
                    .sum()
            });
            assert_eq!(wins, THREADS as usize, "one link per merged set");
            assert_eq!(uf.labels(), vec![0; THREADS as usize + 1]);
        }
    }

    #[test]
    fn from_parents_keeps_groups_and_links_representatives() {
        // Groups {0,3,5} led by 3, {1} led by 1, {2,4} led by 4.
        let uf = ConcurrentUnionFind::from_parents(&[3, 1, 4, 3, 4, 3]);
        assert_eq!(uf.labels(), vec![3, 1, 4, 3, 4, 3]);
        assert!(!uf.unite(0, 5), "already one group");
        assert!(uf.unite(0, 2), "joins the groups led by 3 and 4");
        assert!(!uf.unite(4, 5));
        // Representatives link larger-under-smaller: 4 under 3.
        assert_eq!(uf.labels(), vec![3, 1, 3, 3, 3, 3]);
    }

    #[test]
    #[should_panic(expected = "forest of stars")]
    fn from_parents_rejects_chains() {
        // 2 -> 1 -> 0 is depth two.
        let _ = ConcurrentUnionFind::from_parents(&[0, 0, 1]);
    }
}
