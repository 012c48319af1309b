//! The graphFilter (§4.2): mutation-free batched edge deletion.
//!
//! Algorithms that "delete" edges as they go (biconnectivity, approximate set
//! cover, triangle counting, maximal matching) cannot mutate the read-only
//! NVRAM graph. The graphFilter is a DRAM-resident bit-packed shadow of the
//! adjacency structure (Figure 5): each vertex's incident edges are divided
//! into blocks of `FB` bits (one bit per edge, `FB` = the graph's block size,
//! a multiple of 64); each block stores one word of metadata, its original
//! block id. Once at least half of a vertex's blocks are empty, the empty
//! blocks are physically packed out (within the vertex's original region) to
//! preserve work-efficiency.
//!
//! Total memory: three per-vertex arrays (region start, block count, active
//! degree) plus one block id and `FB` bits per block, i.e. `O(n + m/log n)`
//! words — the relaxed PSAM budget (§4.2.3).
//!
//! The filter itself implements [`Graph`], so every Sage traversal
//! (including `edgeMapChunked`) runs unchanged over a filtered graph; this is
//! how biconnectivity runs connectivity "on the input graph with a large
//! subset of the edges removed" (§4.3.2).

use sage_graph::{Graph, V};
use sage_nvram::meter;
use sage_parallel as par;

/// A bit-packed filter over an immutable graph. See module docs.
pub struct GraphFilter<'g, G: Graph> {
    g: &'g G,
    /// Filter block size FB (bits per block) == `g.block_size()`.
    fb: usize,
    /// Words per block: FB / 64.
    wpb: usize,
    /// Per-vertex start slot of its block region (prefix array, len n+1).
    /// The region capacity is fixed at creation; `vblocks` may shrink.
    vstart: Vec<u64>,
    /// Current number of (possibly empty) blocks per vertex.
    vblocks: Vec<u32>,
    /// Current number of active edges per vertex.
    vdeg: Vec<u32>,
    /// Original block id per block slot.
    block_orig: Vec<u32>,
    /// Bitset words, `wpb` per block slot.
    bits: Vec<u64>,
    /// Whether deletions are mirrored (symmetric predicate, §4.2).
    symmetric: bool,
    /// Current total number of active directed edges.
    m_active: u64,
}

impl<'g, G: Graph> GraphFilter<'g, G> {
    /// Create a filter with every edge active (`makeFilter` with the constant
    /// `true` predicate). `symmetric` declares whether subsequent predicates
    /// treat `(u,v)` and `(v,u)` identically (§4.2).
    pub fn new(g: &'g G, symmetric: bool) -> Self {
        let n = g.num_vertices();
        let fb = g.block_size();
        assert!(
            fb <= 512,
            "filter block size {fb} exceeds the supported 512"
        );
        let wpb = fb / 64;
        let mut vstart = vec![0u64; n + 1];
        {
            let counts: Vec<u64> = par::par_map(n, |v| g.num_blocks_of(v as V) as u64);
            vstart[..n].copy_from_slice(&counts);
        }
        let total_blocks = par::scan_add(&mut vstart[..n]) as usize;
        vstart[n] = total_blocks as u64;

        let vblocks: Vec<u32> = par::par_map(n, |v| g.num_blocks_of(v as V) as u32);
        let vdeg: Vec<u32> = par::par_map(n, |v| g.degree(v as V) as u32);

        let mut block_orig = vec![0u32; total_blocks];
        let mut bits = vec![0u64; total_blocks * wpb];
        {
            let op = par::SendPtr(block_orig.as_mut_ptr());
            let bp = par::SendPtr(bits.as_mut_ptr());
            let vstart_ref: &[u64] = &vstart;
            par::par_for(0, n, |vi| {
                let deg = g.degree(vi as V);
                let nb = deg.div_ceil(fb);
                let base = vstart_ref[vi] as usize;
                for b in 0..nb {
                    let in_block = (deg - b * fb).min(fb);
                    // SAFETY: slot ranges are disjoint per vertex.
                    unsafe {
                        *op.add(base + b) = b as u32;
                        let w = bp.add((base + b) * wpb);
                        for wi in 0..wpb {
                            let bits_here = (in_block.saturating_sub(wi * 64)).min(64);
                            *w.add(wi) = if bits_here == 0 {
                                0
                            } else if bits_here == 64 {
                                u64::MAX
                            } else {
                                (1u64 << bits_here) - 1
                            };
                        }
                    }
                }
            });
        }
        meter::aux_write((total_blocks * (wpb + 1) + 3 * n) as u64);
        let m_active = g.num_edges() as u64;
        Self {
            g,
            fb,
            wpb,
            vstart,
            vblocks,
            vdeg,
            block_orig,
            bits,
            symmetric,
            m_active,
        }
    }

    /// The underlying immutable graph.
    pub fn inner(&self) -> &'g G {
        self.g
    }

    /// Active (not yet deleted) directed edges.
    pub fn active_edges(&self) -> u64 {
        self.m_active
    }

    /// Filter-structure memory in bytes (§4.2.3 reports 4.6–8.1x smaller than
    /// the uncompressed graph).
    pub fn size_bytes(&self) -> usize {
        self.vstart.len() * 8
            + self.vblocks.len() * 4
            + self.vdeg.len() * 4
            + self.block_orig.len() * 4
            + self.bits.len() * 8
    }

    #[inline]
    fn word(&self, slot: usize, wi: usize) -> u64 {
        self.bits[slot * self.wpb + wi]
    }

    /// Visit the active edges of `v` in adjacency order.
    pub fn for_each_active<F: FnMut(V, u32)>(&self, v: V, mut f: F) {
        let base = self.vstart[v as usize] as usize;
        for bi in 0..self.vblocks[v as usize] as usize {
            let slot = base + bi;
            meter::aux_read(self.wpb as u64 + 2);
            let orig = self.block_orig[slot];
            self.g.decode_block(v, orig as usize, |i, d, w| {
                if self.word(slot, (i / 64) as usize) >> (i % 64) & 1 == 1 {
                    f(d, w);
                }
            });
        }
    }

    /// Collect the active neighbors of `v` into `buf` (sorted order, as the
    /// underlying lists are sorted). Used by the triangle-counting
    /// intersection (§4.2.3): compressed blocks are decoded in full and the
    /// bitset is then walked word-by-word (the tzcnt/blsr loop).
    ///
    /// Returns the number of edges *decoded* (active or not) — the "total
    /// work" quantity of Table 4: a mostly-empty block still pays for a full
    /// decode, so larger filter blocks waste more work.
    pub fn active_neighbors_into(&self, v: V, buf: &mut Vec<V>) -> usize {
        buf.clear();
        let base = self.vstart[v as usize] as usize;
        let mut decoded_entries = 0usize;
        let random_access = self.g.supports_random_access();
        for bi in 0..self.vblocks[v as usize] as usize {
            let slot = base + bi;
            meter::aux_read(self.wpb as u64 + 2);
            let orig = self.block_orig[slot];
            if random_access {
                // Uncompressed path (§4.2.3): walk the set bits with the
                // tzcnt/blsr word loop and fetch only the active edges.
                let edge_base = orig as usize * self.fb;
                for wi in 0..self.wpb {
                    let mut word = self.word(slot, wi);
                    while word != 0 {
                        let bit = word.trailing_zeros() as usize; // tzcnt
                        word &= word - 1; // blsr
                        let (d, _) = self.g.edge_at(v, edge_base + wi * 64 + bit);
                        buf.push(d);
                        decoded_entries += 1;
                    }
                }
                continue;
            }
            // Compressed path: the whole block must be decoded to fetch any
            // edge, then the bitset is walked word-by-word.
            let mut decoded: [V; 512] = [0; 512];
            let mut count = 0usize;
            self.g.decode_block(v, orig as usize, |i, d, _| {
                decoded[i as usize] = d;
                count = count.max(i as usize + 1);
            });
            decoded_entries += count;
            for wi in 0..self.wpb {
                let mut word = self.word(slot, wi);
                while word != 0 {
                    let bit = word.trailing_zeros() as usize; // tzcnt
                    word &= word - 1; // blsr
                    let idx = wi * 64 + bit;
                    debug_assert!(idx < count);
                    buf.push(decoded[idx]);
                }
            }
        }
        decoded_entries
    }

    /// Pack the edges of `v`: unset the bit of every active edge for which
    /// `pred(v, u, w)` returns `false`; compact empty blocks when at least
    /// half are empty. Returns the vertex's new active degree.
    ///
    /// Every read and write of the bitset and the block ids goes through
    /// `bits` and `orig`, which [`Self::edge_map_pack`] takes from
    /// `&mut self`; `&self` is used only for the other arrays.
    ///
    /// # Safety-by-contract
    /// Callers must not pack the same vertex from two threads; the public
    /// batch operations guarantee this by iterating distinct vertices.
    fn pack_vertex<P>(
        &self,
        v: V,
        pred: &P,
        bits: par::SendPtr<u64>,
        orig: par::SendPtr<u32>,
    ) -> (u32, u32)
    where
        P: Fn(V, V, u32) -> bool + Sync,
    {
        let base = self.vstart[v as usize] as usize;
        let nb = self.vblocks[v as usize] as usize;
        if nb == 0 {
            return (0, 0);
        }
        let wpb = self.wpb;

        // Phase 1: apply the predicate to each block (parallel across blocks
        // for high-degree vertices, §4.2.2), collecting per-block live counts.
        let counts: Vec<u32> = par::par_map_grain(nb, 8, |bi| {
            let slot = base + bi;
            // SAFETY: `orig` comes from `block_orig.as_mut_ptr()` under
            // `&mut self`, and `slot` lies in this vertex's region, which
            // only this block task touches.
            let orig_block = unsafe { *orig.add(slot) };
            let mut live = 0u32;
            let mut deleted = 0u32;
            self.g.decode_block(v, orig_block as usize, |i, d, w| {
                let wi = (i / 64) as usize;
                let mask = 1u64 << (i % 64);
                // SAFETY: `bits` comes from `bits.as_mut_ptr()` under
                // `&mut self`; slot `slot` is owned by this block task.
                unsafe {
                    let wptr = bits.add(slot * wpb + wi);
                    if *wptr & mask != 0 {
                        if pred(v, d, w) {
                            live += 1;
                        } else {
                            *wptr &= !mask;
                            deleted += 1;
                        }
                    }
                }
            });
            meter::aux_read(wpb as u64 + 2);
            meter::aux_write(deleted.min(1) as u64 * wpb as u64);
            live
        });

        let new_deg: u32 = counts.iter().sum();
        let live_blocks = counts.iter().filter(|&&c| c > 0).count();

        // Phase 2: pack out empty blocks once at least half are empty.
        let new_nb = if live_blocks < nb.div_ceil(2) {
            let mut at = 0usize;
            for (bi, &cnt) in counts.iter().enumerate() {
                if cnt == 0 {
                    continue;
                }
                let src = base + bi;
                let dst = base + at;
                // SAFETY: both pointers come from `as_mut_ptr()` under
                // `&mut self`; this vertex's region is exclusively ours and
                // `dst <= src`, so `ptr::copy` handles the (empty) overlap.
                unsafe {
                    *orig.add(dst) = *orig.add(src);
                    std::ptr::copy(bits.add(src * wpb), bits.add(dst * wpb), wpb);
                }
                at += 1;
            }
            meter::aux_write((at * (wpb + 1)) as u64);
            at
        } else {
            nb
        };

        (new_deg, new_nb as u32)
    }

    /// `edgeMapPack` (§4.2): pack every vertex in `subset` with `pred`,
    /// returning each vertex with its new degree.
    pub fn edge_map_pack<P>(&mut self, subset: &[V], pred: P) -> Vec<(V, u32)>
    where
        P: Fn(V, V, u32) -> bool + Sync,
    {
        debug_assert!(
            {
                let mut s = subset.to_vec();
                s.sort_unstable();
                s.windows(2).all(|w| w[0] != w[1])
            },
            "edge_map_pack requires distinct vertices"
        );
        let bits = par::SendPtr(self.bits.as_mut_ptr());
        let orig = par::SendPtr(self.block_orig.as_mut_ptr());
        let this = &*self;
        let results: Vec<(u32, u32)> = par::par_map_grain(subset.len(), 4, |i| {
            this.pack_vertex(subset[i], &pred, bits, orig)
        });
        let mut delta = 0i64;
        for (i, &(deg, nb)) in results.iter().enumerate() {
            let v = subset[i] as usize;
            delta += deg as i64 - self.vdeg[v] as i64;
            self.vdeg[v] = deg;
            self.vblocks[v] = nb;
        }
        self.m_active = (self.m_active as i64 + delta) as u64;
        subset
            .iter()
            .zip(results)
            .map(|(&v, (deg, _))| (v, deg))
            .collect()
    }

    /// `filterEdges` (§4.2): pack all vertices, returning the number of
    /// active edges remaining in the filter.
    pub fn filter_edges<P>(&mut self, pred: P) -> u64
    where
        P: Fn(V, V, u32) -> bool + Sync,
    {
        let all: Vec<V> = (0..self.g.num_vertices() as V).collect();
        self.edge_map_pack(&all, pred);
        self.m_active
    }
}

impl<G: Graph> Graph for GraphFilter<'_, G> {
    fn num_vertices(&self) -> usize {
        self.g.num_vertices()
    }

    fn num_edges(&self) -> usize {
        self.m_active as usize
    }

    fn degree(&self, v: V) -> usize {
        self.vdeg[v as usize] as usize
    }

    fn is_weighted(&self) -> bool {
        self.g.is_weighted()
    }

    fn is_symmetric(&self) -> bool {
        // Mirrored deletions over a symmetric base preserve symmetry; an
        // unmirrored predicate can delete (u,v) but keep (v,u).
        self.symmetric && self.g.is_symmetric()
    }

    fn block_size(&self) -> usize {
        self.fb
    }

    fn for_each_edge<F: FnMut(V, u32)>(&self, v: V, f: F) {
        self.for_each_active(v, f);
    }

    fn for_each_edge_while<F: FnMut(V, u32) -> bool>(&self, v: V, mut f: F) {
        let base = self.vstart[v as usize] as usize;
        let mut go = true;
        for bi in 0..self.vblocks[v as usize] as usize {
            if !go {
                break;
            }
            let slot = base + bi;
            meter::aux_read(self.wpb as u64 + 2);
            let orig = self.block_orig[slot];
            self.g.decode_block(v, orig as usize, |i, d, w| {
                if go && self.word(slot, (i / 64) as usize) >> (i % 64) & 1 == 1 {
                    go = f(d, w);
                }
            });
        }
    }

    /// Blocks of a filtered vertex are its *current* blocks; edge indices are
    /// the ordinal positions among the block's active edges.
    fn decode_block<F: FnMut(u32, V, u32)>(&self, v: V, blk: usize, mut f: F) {
        let slot = self.vstart[v as usize] as usize + blk;
        meter::aux_read(self.wpb as u64 + 2);
        let orig = self.block_orig[slot];
        let mut at = 0u32;
        self.g.decode_block(v, orig as usize, |i, d, w| {
            if self.word(slot, (i / 64) as usize) >> (i % 64) & 1 == 1 {
                f(at, d, w);
                at += 1;
            }
        });
    }

    fn num_blocks_of(&self, v: V) -> usize {
        self.vblocks[v as usize] as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sage_graph::{gen, CompressedCsr};
    use std::collections::HashSet;

    /// Reference model: plain sets of (u, v) pairs.
    struct Model {
        edges: HashSet<(V, V)>,
    }

    impl Model {
        fn of(g: &impl Graph) -> Self {
            let mut edges = HashSet::new();
            for v in 0..g.num_vertices() as V {
                g.for_each_edge(v, |u, _| {
                    edges.insert((v, u));
                });
            }
            Self { edges }
        }

        fn filter(&mut self, pred: impl Fn(V, V) -> bool) {
            self.edges.retain(|&(u, v)| pred(u, v));
        }

        fn check(&self, f: &GraphFilter<impl Graph>) {
            let mut got = HashSet::new();
            let mut total = 0u64;
            for v in 0..f.num_vertices() as V {
                let mut deg = 0;
                f.for_each_active(v, |u, _| {
                    got.insert((v, u));
                    deg += 1;
                });
                assert_eq!(deg, f.degree(v), "cached degree of {v}");
                total += deg as u64;
            }
            assert_eq!(got, self.edges, "edge sets diverged");
            assert_eq!(total, f.active_edges(), "cached m_active");
        }
    }

    #[test]
    fn fresh_filter_matches_graph() {
        let g = gen::rmat(9, 8, gen::RmatParams::default(), 1);
        let f = GraphFilter::new(&g, true);
        Model::of(&g).check(&f);
        assert_eq!(f.active_edges() as usize, g.num_edges());
    }

    #[test]
    fn filter_edges_applies_predicate() {
        let g = gen::rmat(9, 8, gen::RmatParams::default(), 2);
        let mut f = GraphFilter::new(&g, true);
        let mut model = Model::of(&g);
        let pred = |u: V, v: V| (u as u64 + v as u64) % 3 != 0;
        let remaining = f.filter_edges(|u, v, _| pred(u, v));
        model.filter(pred);
        assert_eq!(remaining as usize, model.edges.len());
        model.check(&f);
    }

    #[test]
    fn repeated_filtering_converges() {
        let g = gen::rmat(8, 10, gen::RmatParams::default(), 3);
        let mut f = GraphFilter::new(&g, true);
        let mut model = Model::of(&g);
        for round in 0..5u64 {
            let pred = move |u: V, v: V| par::hash64_pair(u as u64 ^ round, v as u64) % 4 != 0;
            f.filter_edges(|u, v, _| pred(u, v));
            model.filter(pred);
            model.check(&f);
        }
    }

    #[test]
    fn delete_everything() {
        let g = gen::complete(40);
        let mut f = GraphFilter::new(&g, true);
        let remaining = f.filter_edges(|_, _, _| false);
        assert_eq!(remaining, 0);
        for v in 0..40 {
            assert_eq!(f.degree(v), 0);
        }
    }

    #[test]
    fn pack_subset_only_touches_subset() {
        let g = gen::complete(30);
        let mut f = GraphFilter::new(&g, false);
        let out = f.edge_map_pack(&[0, 1, 2], |_, d, _| d % 2 == 0);
        for &(v, deg) in &out {
            assert!(v <= 2);
            // Neighbors 0,2,4,... excluding self: complete graph K30.
            let expect = (0..30u32).filter(|&d| d % 2 == 0 && d != v).count() as u32;
            assert_eq!(deg, expect);
        }
        assert_eq!(f.degree(5), 29, "untouched vertex must keep its degree");
    }

    #[test]
    fn asymmetric_orientation_filter() {
        // Keep only u -> v with deg-order(u) < deg-order(v): the triangle
        // counting orientation (§4.3.4). Every undirected edge must survive
        // exactly once.
        let g = gen::rmat(8, 8, gen::RmatParams::default(), 5);
        let m = g.num_edges();
        let rank = |v: V| (g.degree(v), v);
        let mut f = GraphFilter::new(&g, false);
        let remaining = f.filter_edges(|u, v, _| rank(u) < rank(v));
        assert_eq!(remaining as usize * 2, m);
    }

    #[test]
    fn filter_works_over_compressed_graphs() {
        let csr = gen::rmat(9, 10, gen::RmatParams::web(), 7);
        let g = CompressedCsr::from_csr(&csr, 64);
        let mut f = GraphFilter::new(&g, true);
        let mut model = Model::of(&g);
        let pred = |u: V, v: V| par::hash64_pair(u as u64, v as u64) % 5 > 1;
        f.filter_edges(|u, v, _| pred(u, v));
        model.filter(pred);
        model.check(&f);
    }

    #[test]
    fn filter_is_a_graph_and_traversable() {
        use crate::edge_map::{edge_map, ClaimFn, EdgeMapOpts, UNVISITED};
        use crate::vertex_subset::VertexSubset;
        use std::sync::atomic::{AtomicU64, Ordering};

        let g = gen::cycle(64);
        let mut f = GraphFilter::new(&g, true);
        // Cut the cycle between 0 and 63: BFS from 0 must now reach 63 last.
        f.filter_edges(|u, v, _| !(u.min(v) == 0 && u.max(v) == 63));
        let n = 64;
        let parents: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(UNVISITED)).collect();
        parents[0].store(0, Ordering::Relaxed);
        let mut frontier = VertexSubset::single(n, 0);
        let mut rounds = 0;
        while !frontier.is_empty() {
            let claim = ClaimFn { parents: &parents };
            frontier = edge_map(&f, &mut frontier, &claim, EdgeMapOpts::default());
            rounds += 1;
        }
        assert_eq!(rounds, 64, "path of 63 edges plus final empty round");
        assert_eq!(parents[63].load(Ordering::Relaxed), 62);
    }

    #[test]
    fn compaction_shrinks_block_count() {
        let g = gen::star(1000);
        let mut f = GraphFilter::new(&g, false);
        let before = f.num_blocks_of(0);
        // Keep only neighbors < 32: all but the first block become empty.
        f.filter_edges(|_, d, _| d < 32);
        let after = f.num_blocks_of(0);
        assert!(after < before, "blocks {before} -> {after}");
        assert!(after <= 2);
        let mut got = Vec::new();
        f.active_neighbors_into(0, &mut got);
        let want: Vec<V> = (1..32).collect();
        assert_eq!(got, want);
    }
}
