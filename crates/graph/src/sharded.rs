//! Vertex-range-partitioned graphs: one snapshot, many shards.
//!
//! A [`ShardedCsr`] splits the vertex id space `0..n` into `k` contiguous
//! ranges and stores each range's adjacency as its own graph — a plain
//! [`Csr`] or a [`CompressedCsr`] — with **local** vertex rows and **global**
//! edge targets. Per-vertex adjacency order is exactly the monolithic
//! order, so every deterministic algorithm answers bitwise-identically over
//! the sharded representation; what changes is the physical layout: each
//! shard can live in its own `NvRegion` mapping (see
//! [`crate::io::write_sharded`] / [`crate::io::load_sharded`]) and be placed
//! on its own device or NUMA node.
//!
//! Per-shard traffic is a fact of this layout, so [`ShardedCsr`] reports it
//! itself: every adjacency read it serves from shard `s` runs inside
//! [`meter::in_shard`]`(s, ..)`, so its words land on part `s` of a
//! [partitioned](sage_nvram::meter::MeterScope::partitioned) meter scope.
//! Any algorithm run over a `ShardedCsr` is attributed per shard with no
//! shard-aware code of its own.
//!
//! Shard boundaries are chosen edge-balanced by [`ShardedCsr::from_csr`]:
//! each shard carries roughly `m/k` directed edges, which is what balances
//! per-shard traversal work (vertex-balanced splits leave hub-heavy shards
//! doing nearly all the work on power-law inputs).
//!
//! [`Sharded`] is the small capability trait the serving layer is generic
//! over: the shard count sizes a unit's partitioned scope (and the page per
//! part meter its admission price adds); nothing else the service runs or
//! prices depends on it. A monolithic graph is its one-shard case: [`Csr`] and
//! [`CompressedCsr`] implement it with the trait's defaults and are their
//! own single shard.

use crate::compressed::CompressedCsr;
use crate::csr::Csr;
use crate::{Graph, V};
use sage_nvram::meter;

/// A graph whose vertex space is partitioned into contiguous ranges, each
/// stored as its own graph. Implementors must preserve monolithic
/// per-vertex adjacency order so traversal results stay representation-
/// independent, and serve shard `s`'s adjacency reads inside
/// [`meter::in_shard`]`(s, ..)` so their traffic is attributed to it.
///
/// The defaults describe one shard covering every vertex, so a monolithic
/// graph only names itself as that shard.
pub trait Sharded: Graph {
    /// The graph type of one shard.
    type Shard: Graph;

    /// Number of shards (≥ 1).
    fn num_shards(&self) -> usize {
        1
    }

    /// The shard owning vertex `v`.
    fn shard_of(&self, _v: V) -> usize {
        0
    }

    /// The global vertex range of shard `s`.
    fn shard_range(&self, _s: usize) -> std::ops::Range<V> {
        0..self.num_vertices() as V
    }

    /// Shard `s`'s graph (for a partitioned graph: local vertex rows, global
    /// edge targets).
    fn shard(&self, s: usize) -> &Self::Shard;
}

impl Sharded for Csr {
    type Shard = Csr;

    fn shard(&self, _s: usize) -> &Csr {
        self
    }
}

impl Sharded for CompressedCsr {
    type Shard = CompressedCsr;

    fn shard(&self, _s: usize) -> &CompressedCsr {
        self
    }
}

/// One shard's representation: a plain or byte-compressed CSR over the
/// shard's local vertex rows (vertex `v` of the snapshot is row
/// `v - start` of its shard) with global edge targets.
pub enum ShardRepr {
    /// Uncompressed rows.
    Plain(Csr),
    /// Byte-compressed rows (varint/hybrid, like a monolithic
    /// [`CompressedCsr`]).
    Compressed(CompressedCsr),
}

macro_rules! delegate {
    ($self:ident, $g:ident => $e:expr) => {
        match $self {
            ShardRepr::Plain($g) => $e,
            ShardRepr::Compressed($g) => $e,
        }
    };
}

impl Graph for ShardRepr {
    #[inline]
    fn num_vertices(&self) -> usize {
        delegate!(self, g => g.num_vertices())
    }

    #[inline]
    fn num_edges(&self) -> usize {
        delegate!(self, g => g.num_edges())
    }

    #[inline]
    fn degree(&self, v: V) -> usize {
        delegate!(self, g => g.degree(v))
    }

    #[inline]
    fn is_weighted(&self) -> bool {
        delegate!(self, g => g.is_weighted())
    }

    #[inline]
    fn is_symmetric(&self) -> bool {
        // Symmetry is a property of the whole snapshot, not of one vertex
        // range; [`ShardedCsr`] tracks it at the top level.
        false
    }

    #[inline]
    fn block_size(&self) -> usize {
        delegate!(self, g => g.block_size())
    }

    #[inline]
    fn for_each_edge<F: FnMut(V, u32)>(&self, v: V, f: F) {
        delegate!(self, g => g.for_each_edge(v, f))
    }

    #[inline]
    fn for_each_edge_while<F: FnMut(V, u32) -> bool>(&self, v: V, f: F) {
        delegate!(self, g => g.for_each_edge_while(v, f))
    }

    #[inline]
    fn decode_block<F: FnMut(u32, V, u32)>(&self, v: V, blk: usize, f: F) {
        delegate!(self, g => g.decode_block(v, blk, f))
    }

    #[inline]
    fn supports_random_access(&self) -> bool {
        delegate!(self, g => g.supports_random_access())
    }

    #[inline]
    fn edge_at(&self, v: V, i: usize) -> (V, u32) {
        delegate!(self, g => g.edge_at(v, i))
    }

    #[inline]
    fn size_bytes(&self) -> usize {
        delegate!(self, g => g.size_bytes())
    }
}

/// A vertex-range-sharded snapshot. Implements [`Graph`] by routing every
/// per-vertex operation to the owning shard, so the whole engine runs over
/// it unchanged; each adjacency read runs inside [`meter::in_shard`] for its
/// shard (`degree` reads no graph words and is not wrapped).
pub struct ShardedCsr {
    shards: Vec<ShardRepr>,
    /// `starts[s]..starts[s+1]` is shard `s`'s vertex range; length `k+1`,
    /// `starts[0] == 0`, `starts[k] == n`.
    starts: Vec<u64>,
    m: usize,
    block_size: usize,
    weighted: bool,
    symmetric: bool,
}

impl ShardedCsr {
    /// Partition `g` into `k` edge-balanced contiguous vertex ranges, each
    /// stored as a plain CSR shard. `k` is clamped to `1..=n`.
    pub fn from_csr(g: &Csr, k: usize) -> Self {
        Self::build(g, k, ShardRepr::Plain)
    }

    /// Like [`ShardedCsr::from_csr`], but each shard is byte-compressed with
    /// the given block size and hybrid cutoff (see
    /// [`CompressedCsr::from_csr_with`]).
    pub fn from_csr_compressed(g: &Csr, k: usize, block_size: usize, hybrid_cutoff: u32) -> Self {
        Self::build(g, k, |local| {
            ShardRepr::Compressed(CompressedCsr::from_csr_with(
                &local,
                block_size,
                hybrid_cutoff,
            ))
        })
    }

    fn build(g: &Csr, k: usize, mut encode: impl FnMut(Csr) -> ShardRepr) -> Self {
        let n = g.num_vertices();
        let starts = edge_balanced_starts(g.offsets(), k);
        let shards = starts
            .windows(2)
            .map(|w| {
                let (lo, hi) = (w[0] as usize, w[1] as usize);
                encode(slice_csr(g, lo, hi))
            })
            .collect();
        let sharded = Self {
            shards,
            starts,
            m: g.num_edges(),
            block_size: g.block_size(),
            weighted: g.is_weighted(),
            symmetric: g.is_symmetric(),
        };
        debug_assert_eq!(sharded.num_vertices(), n);
        sharded
    }

    /// Assemble from already-built shards (the binary loader's path).
    ///
    /// # Panics
    /// Panics if `starts` is not a monotone cover of `0..n` matching the
    /// shard vertex counts, or the shard edge counts do not sum to `m`.
    pub fn from_shard_parts(
        shards: Vec<ShardRepr>,
        starts: Vec<u64>,
        m: usize,
        block_size: usize,
        weighted: bool,
        symmetric: bool,
    ) -> Self {
        assert_eq!(
            starts.len(),
            shards.len() + 1,
            "starts must have k+1 entries"
        );
        assert_eq!(starts[0], 0, "first shard must start at vertex 0");
        for (s, w) in starts.windows(2).enumerate() {
            assert!(w[0] < w[1], "shard {s} has an empty or inverted range");
            assert_eq!(
                (w[1] - w[0]) as usize,
                shards[s].num_vertices(),
                "shard {s} vertex count disagrees with its range"
            );
        }
        assert_eq!(
            shards.iter().map(|s| s.num_edges()).sum::<usize>(),
            m,
            "shard edge counts must sum to m"
        );
        Self {
            shards,
            starts,
            m,
            block_size,
            weighted,
            symmetric,
        }
    }

    /// The shard boundary table (`k+1` entries, first 0, last `n`).
    pub fn starts(&self) -> &[u64] {
        &self.starts
    }

    /// Whether every shard's edge data lives in mapped NVRAM.
    pub fn on_nvram(&self) -> bool {
        self.shards.iter().all(|s| match s {
            ShardRepr::Plain(g) => g.on_nvram(),
            ShardRepr::Compressed(g) => g.on_nvram(),
        })
    }

    #[inline]
    fn locate(&self, v: V) -> (usize, V) {
        let s = self.shard_of(v);
        (s, v - self.starts[s] as V)
    }
}

/// Choose `k` contiguous vertex ranges with roughly equal directed-edge
/// counts: boundary `i` is the first vertex at or past `i·m/k` edges.
/// Degenerate inputs (more shards than vertices, empty prefixes) collapse
/// to fewer, never-empty ranges.
fn edge_balanced_starts(offsets: &[u64], k: usize) -> Vec<u64> {
    let n = offsets.len() - 1;
    let m = *offsets.last().unwrap();
    let k = k.clamp(1, n.max(1));
    let mut starts = Vec::with_capacity(k + 1);
    starts.push(0u64);
    for i in 1..k {
        let target = m * i as u64 / k as u64;
        let cut = offsets.partition_point(|&o| o < target) as u64;
        // Never produce an empty range; skew may merge trailing shards.
        let cut = cut.max(starts.last().unwrap() + 1).min(n as u64);
        if cut > *starts.last().unwrap() && cut < n as u64 {
            starts.push(cut);
        }
    }
    starts.push(n as u64);
    starts
}

/// Extract vertices `lo..hi` of `g` as a local CSR: offsets rebased to 0,
/// edge targets kept global.
fn slice_csr(g: &Csr, lo: usize, hi: usize) -> Csr {
    let offsets = g.offsets();
    let base = offsets[lo];
    let local_offsets: Vec<u64> = offsets[lo..=hi].iter().map(|&o| o - base).collect();
    let (e_lo, e_hi) = (offsets[lo] as usize, offsets[hi] as usize);
    let mut edges: Vec<V> = Vec::with_capacity(e_hi - e_lo);
    let mut weights: Vec<u32> = Vec::new();
    for v in lo..hi {
        let lv = (v - lo) as V;
        let deg = (local_offsets[v - lo + 1] - local_offsets[v - lo]) as usize;
        // Read through the shard-local row via the source's accessors; the
        // builder runs outside any query scope, so this metering is
        // construction-time, not serving traffic.
        let _ = lv;
        for i in 0..deg {
            edges.push(g.neighbor_at(v as V, i));
            if g.is_weighted() {
                weights.push(g.weight_at(v as V, i));
            }
        }
    }
    let mut local = Csr::from_parts(
        local_offsets.into(),
        edges.into(),
        if g.is_weighted() {
            Some(weights.into())
        } else {
            None
        },
        g.block_size(),
    );
    if g.is_symmetric() {
        // The *snapshot* is symmetric; the local rows inherit the flag so a
        // compressed encoding of the slice records it. ShardedCsr reports
        // symmetry from its own top-level flag.
        local.mark_symmetric();
    }
    local
}

impl Sharded for ShardedCsr {
    type Shard = ShardRepr;

    #[inline]
    fn num_shards(&self) -> usize {
        self.shards.len()
    }

    #[inline]
    fn shard_of(&self, v: V) -> usize {
        debug_assert!((v as usize) < self.num_vertices());
        self.starts.partition_point(|&s| s <= v as u64) - 1
    }

    #[inline]
    fn shard_range(&self, s: usize) -> std::ops::Range<V> {
        self.starts[s] as V..self.starts[s + 1] as V
    }

    #[inline]
    fn shard(&self, s: usize) -> &ShardRepr {
        &self.shards[s]
    }
}

impl std::fmt::Debug for ShardedCsr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ShardedCsr(n={}, m={}, shards={}, nvram={})",
            self.num_vertices(),
            self.num_edges(),
            self.shards.len(),
            self.on_nvram()
        )
    }
}

impl Graph for ShardedCsr {
    #[inline]
    fn num_vertices(&self) -> usize {
        *self.starts.last().unwrap() as usize
    }

    #[inline]
    fn num_edges(&self) -> usize {
        self.m
    }

    #[inline]
    fn degree(&self, v: V) -> usize {
        let (s, lv) = self.locate(v);
        self.shards[s].degree(lv)
    }

    #[inline]
    fn is_weighted(&self) -> bool {
        self.weighted
    }

    #[inline]
    fn is_symmetric(&self) -> bool {
        self.symmetric
    }

    #[inline]
    fn block_size(&self) -> usize {
        self.block_size
    }

    #[inline]
    fn for_each_edge<F: FnMut(V, u32)>(&self, v: V, f: F) {
        let (s, lv) = self.locate(v);
        meter::in_shard(s, || self.shards[s].for_each_edge(lv, f))
    }

    #[inline]
    fn for_each_edge_while<F: FnMut(V, u32) -> bool>(&self, v: V, f: F) {
        let (s, lv) = self.locate(v);
        meter::in_shard(s, || self.shards[s].for_each_edge_while(lv, f))
    }

    #[inline]
    fn decode_block<F: FnMut(u32, V, u32)>(&self, v: V, blk: usize, f: F) {
        let (s, lv) = self.locate(v);
        meter::in_shard(s, || self.shards[s].decode_block(lv, blk, f))
    }

    #[inline]
    fn supports_random_access(&self) -> bool {
        self.shards.iter().all(|s| s.supports_random_access())
    }

    #[inline]
    fn edge_at(&self, v: V, i: usize) -> (V, u32) {
        let (s, lv) = self.locate(v);
        meter::in_shard(s, || self.shards[s].edge_at(lv, i))
    }

    #[inline]
    fn size_bytes(&self) -> usize {
        self.starts.len() * 8 + self.shards.iter().map(|s| s.size_bytes()).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    fn adjacency(g: &impl Graph, v: V) -> Vec<(V, u32)> {
        let mut out = Vec::new();
        g.for_each_edge(v, |u, w| out.push((u, w)));
        out
    }

    fn assert_same_graph(a: &impl Graph, b: &impl Graph) {
        assert_eq!(a.num_vertices(), b.num_vertices());
        assert_eq!(a.num_edges(), b.num_edges());
        assert_eq!(a.is_weighted(), b.is_weighted());
        assert_eq!(a.is_symmetric(), b.is_symmetric());
        for v in 0..a.num_vertices() as V {
            assert_eq!(a.degree(v), b.degree(v), "degree of {v}");
            assert_eq!(adjacency(a, v), adjacency(b, v), "adjacency of {v}");
        }
    }

    #[test]
    fn sharded_preserves_monolithic_adjacency() {
        let g = gen::rmat(9, 8, gen::RmatParams::default(), 13);
        for k in [1, 2, 3, 7] {
            let sharded = ShardedCsr::from_csr(&g, k);
            assert_eq!(sharded.num_shards(), k);
            assert_same_graph(&g, &sharded);
            assert!(sharded.supports_random_access());
        }
    }

    #[test]
    fn compressed_shards_preserve_adjacency() {
        let g = gen::rmat(9, 12, gen::RmatParams::web(), 5);
        let sharded = ShardedCsr::from_csr_compressed(&g, 4, 64, 32);
        assert_same_graph(&g, &sharded);
        assert!(!sharded.supports_random_access());
    }

    #[test]
    fn shard_ranges_cover_and_route() {
        let g = gen::rmat(9, 8, gen::RmatParams::default(), 2);
        let sharded = ShardedCsr::from_csr(&g, 5);
        let n = sharded.num_vertices();
        let mut covered = 0usize;
        for s in 0..sharded.num_shards() {
            let r = sharded.shard_range(s);
            assert!(!r.is_empty(), "shard {s} empty");
            covered += r.len();
            for v in r {
                assert_eq!(sharded.shard_of(v), s, "vertex {v} misrouted");
            }
        }
        assert_eq!(covered, n);
        // Edge balance: no shard dominates on an rmat input.
        let m = sharded.num_edges();
        for s in 0..sharded.num_shards() {
            assert!(
                sharded.shard(s).num_edges() <= m * 3 / 4,
                "shard {s} holds nearly every edge"
            );
        }
    }

    #[test]
    fn monolithic_graphs_are_their_own_single_shard() {
        let g = gen::rmat(8, 8, gen::RmatParams::default(), 3);
        let comp = CompressedCsr::from_csr(&g, 64);
        assert_eq!(g.num_shards(), 1);
        assert_eq!(g.shard_of(17), 0);
        assert_eq!(g.shard_range(0), 0..g.num_vertices() as V);
        assert!(std::ptr::eq(g.shard(0), &g));
        assert_eq!(comp.num_shards(), 1);
        assert_eq!(comp.shard_range(0).len(), comp.num_vertices());
        assert!(std::ptr::eq(comp.shard(0), &comp));
    }

    /// Every adjacency read is attributed to the shard that served it, and
    /// only to it: part `s` of a partitioned scope equals what reading shard
    /// `s`'s vertices alone charges, and the parts sum to the scope total.
    #[test]
    fn reads_land_on_the_serving_shards_part() {
        use sage_nvram::meter::MeterScope;
        let g = gen::rmat(9, 8, gen::RmatParams::web(), 6);
        let read = |sh: &ShardedCsr, vs: std::ops::Range<V>| {
            for v in vs {
                sh.for_each_edge(v, |_, _| {});
                sh.for_each_edge_while(v, |_, _| false);
                if sh.degree(v) > 0 {
                    sh.decode_block(v, 0, |_, _, _| {});
                }
            }
        };
        for sharded in [
            ShardedCsr::from_csr(&g, 3),
            ShardedCsr::from_csr_compressed(&g, 3, 64, 16),
        ] {
            let scope = MeterScope::partitioned(3);
            scope.enter(|| read(&sharded, 0..sharded.num_vertices() as V));
            let mut sum = sage_nvram::MeterSnapshot::default();
            for s in 0..3 {
                let alone = MeterScope::new();
                alone.enter(|| read(&sharded, sharded.shard_range(s)));
                assert_eq!(scope.part(s), alone.snapshot(), "shard {s}");
                assert!(alone.snapshot().graph_read > 0);
                sum = sum.plus(&scope.part(s));
            }
            assert_eq!(sum, scope.snapshot());
        }
    }

    #[test]
    fn degenerate_shard_counts_clamp() {
        let g = gen::path(3); // n = 3
        let sharded = ShardedCsr::from_csr(&g, 64);
        assert!(sharded.num_shards() <= 3);
        assert_same_graph(&g, &sharded);
        let one = ShardedCsr::from_csr(&g, 0);
        assert_eq!(one.num_shards(), 1);
    }

    #[test]
    fn weighted_graphs_shard() {
        let list = gen::rmat_edges(8, 8, gen::RmatParams::default(), 1).with_random_weights(2);
        let g = crate::build_csr(list, crate::BuildOptions::default());
        let sharded = ShardedCsr::from_csr(&g, 3);
        assert_same_graph(&g, &sharded);
        let comp = ShardedCsr::from_csr_compressed(&g, 3, 64, 16);
        assert_same_graph(&g, &comp);
    }
}
