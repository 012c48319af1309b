//! DeltaOverlay: batched live edge updates layered over an immutable base.
//!
//! Sage's semi-asymmetric contract keeps the graph read-only in NVRAM; the
//! paper's own mutation story (the graphFilter, §4.2) shows the pattern this
//! module generalizes: absorb mutations in a DRAM-resident structure layered
//! *over* the base, and never write the base in place. [`DeltaOverlay`]
//! extends that from deletions-only to batched edge **insertions and
//! deletions**, presented through the ordinary [`Graph`] trait so every
//! existing algorithm runs unmodified on base + delta:
//!
//! * the base graph is untouched (`graph_write` stays 0 for every reader);
//! * per-vertex deltas are kept neighbor-sorted, so the overlay's adjacency
//!   iteration order equals the order of a CSR rebuilt from the same edge
//!   set — algorithm answers over the overlay are **bitwise-identical** to
//!   answers over the compacted snapshot ([`DeltaOverlay::compact`]);
//! * delta lookups are metered as `aux_read` (the delta is small-memory
//!   state), while base reads keep the base's own metering.
//!
//! The intended lifecycle is the publish pipeline: accumulate update batches
//! in an overlay (readers of the *serving* snapshot never see it), compact
//! into a fresh CSR, flush that to NVRAM under a write budget, then
//! atomically swap the serving snapshot (see `sage-serve`).
//!
//! The base must present neighbor-sorted, duplicate-free adjacency lists
//! (what [`build_csr`](sage_graph::build_csr) produces); the overlay
//! preserves that invariant, which is what makes merge iteration and
//! compaction order-exact.

use sage_graph::{Csr, Graph, Sharded, Storage, V};
use sage_nvram::meter;
use std::collections::HashMap;
use std::sync::Arc;

/// One edge mutation in an update batch.
///
/// On a symmetric base ([`Graph::is_symmetric`]) each update is applied in
/// both directions (`u→v` and `v→u`), preserving symmetry — so the dense
/// (pull) traversal direction stays valid across publishes. On an asymmetric
/// base the update is the single directed arc.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EdgeUpdate {
    /// Insert the edge `u→v` with weight `w` (use 0 for unweighted graphs).
    /// Inserting an edge that already exists is a no-op; re-inserting an
    /// edge deleted from the base restores it (with its base weight).
    Insert {
        /// Source endpoint.
        u: V,
        /// Destination endpoint.
        v: V,
        /// Weight (`0` on unweighted graphs).
        w: u32,
    },
    /// Delete the edge `u→v`. Deleting an absent edge is a no-op.
    Delete {
        /// Source endpoint.
        u: V,
        /// Destination endpoint.
        v: V,
    },
}

impl EdgeUpdate {
    /// An unweighted insertion.
    pub fn insert(u: V, v: V) -> Self {
        EdgeUpdate::Insert { u, v, w: 0 }
    }

    /// A deletion.
    pub fn delete(u: V, v: V) -> Self {
        EdgeUpdate::Delete { u, v }
    }
}

/// Per-vertex delta: edges added beyond the base and base edges deleted,
/// both neighbor-sorted. Invariants: `add` is disjoint from the base list,
/// `del` is a subset of the base list, and `add`/`del` are disjoint.
#[derive(Default)]
struct VertexDelta {
    add: Vec<(V, u32)>,
    del: Vec<V>,
}

/// A DRAM-resident insert/delete overlay over an immutable base graph (see
/// the module docs). Readers see base + delta through the [`Graph`] trait;
/// the base is shared (`Arc`) and never written.
pub struct DeltaOverlay<G> {
    base: Arc<G>,
    delta: HashMap<V, VertexDelta>,
    inserted: usize,
    deleted: usize,
}

impl<G: Graph + Send + Sync> DeltaOverlay<G> {
    /// An empty overlay over `base` (identical to the base until updates are
    /// applied).
    pub fn new(base: Arc<G>) -> Self {
        Self {
            base,
            delta: HashMap::new(),
            inserted: 0,
            deleted: 0,
        }
    }

    /// The shared base snapshot.
    pub fn base(&self) -> &Arc<G> {
        &self.base
    }

    /// Apply a batch of updates. Later updates win over earlier ones within
    /// the batch; on a symmetric base each update is mirrored (see
    /// [`EdgeUpdate`]). Endpoints must be within the base's vertex range.
    pub fn apply(&mut self, updates: &[EdgeUpdate]) {
        let mirror = self.base.is_symmetric();
        for &up in updates {
            match up {
                EdgeUpdate::Insert { u, v, w } => {
                    self.insert_arc(u, v, w);
                    if mirror && u != v {
                        self.insert_arc(v, u, w);
                    }
                }
                EdgeUpdate::Delete { u, v } => {
                    self.delete_arc(u, v);
                    if mirror && u != v {
                        self.delete_arc(v, u);
                    }
                }
            }
        }
    }

    /// Whether `u→v` exists in the *base* (sorted-list early-exit scan).
    fn base_has(&self, u: V, v: V) -> bool {
        let mut found = false;
        self.base.for_each_edge_while(u, |d, _| {
            if d >= v {
                found = d == v;
                return false;
            }
            true
        });
        found
    }

    fn insert_arc(&mut self, u: V, v: V, w: u32) {
        let n = self.base.num_vertices();
        assert!(
            (u as usize) < n && (v as usize) < n,
            "update endpoint out of range for a base of {n} vertices"
        );
        let base_has = self.base_has(u, v);
        let d = self.delta.entry(u).or_default();
        if let Ok(i) = d.del.binary_search(&v) {
            // Re-inserting a deleted base edge restores it (base weight).
            d.del.remove(i);
            self.deleted -= 1;
            return;
        }
        match d.add.binary_search_by_key(&v, |e| e.0) {
            Ok(i) => d.add[i].1 = w, // refresh the pending insert's weight
            Err(i) => {
                if !base_has {
                    d.add.insert(i, (v, w));
                    self.inserted += 1;
                }
                // Already present in the base: no-op.
            }
        }
    }

    fn delete_arc(&mut self, u: V, v: V) {
        let base_has = self.base_has(u, v);
        let d = self.delta.entry(u).or_default();
        if let Ok(i) = d.add.binary_search_by_key(&v, |e| e.0) {
            d.add.remove(i);
            self.inserted -= 1;
            return;
        }
        if base_has {
            if let Err(i) = d.del.binary_search(&v) {
                d.del.insert(i, v);
                self.deleted += 1;
            }
        }
    }

    /// The per-vertex delta, metering the small-memory lookup: one word for
    /// the map probe plus the delta entries the merge will consult.
    fn delta_of(&self, v: V) -> Option<&VertexDelta> {
        let d = self.delta.get(&v);
        let touched = d.map_or(0, |d| (d.add.len() + d.del.len()) as u64);
        meter::aux_read(1 + touched);
        d
    }

    /// Merge base + delta into a fresh heap-resident [`Csr`] — per-vertex
    /// neighbor order is the sorted order both the overlay and the builder
    /// produce, so algorithm answers over the compacted snapshot are
    /// bitwise-identical to answers over the overlay. The arrays are built
    /// in DRAM (charged as `aux_write`); flushing the result to NVRAM is the
    /// caller's budgeted, metered step (see `sage-serve`'s publish path).
    pub fn compact(&self) -> Csr {
        let n = self.num_vertices();
        let mut offsets = vec![0u64; n + 1];
        for v in 0..n {
            offsets[v + 1] = offsets[v] + self.degree(v as V) as u64;
        }
        let m = offsets[n] as usize;
        let weighted = self.is_weighted();
        let mut edges: Vec<V> = Vec::with_capacity(m);
        let mut weights: Vec<u32> = Vec::with_capacity(if weighted { m } else { 0 });
        for v in 0..n {
            self.for_each_edge(v as V, |nbr, w| {
                edges.push(nbr);
                if weighted {
                    weights.push(w);
                }
            });
        }
        debug_assert_eq!(edges.len(), m, "degrees and iteration must agree");
        // Charge the DRAM build: offsets are u64 words, edge/weight arrays
        // are u32 halves.
        let array_words = (n as u64 + 1) + (m as u64).div_ceil(2) * if weighted { 2 } else { 1 };
        meter::aux_write(array_words);
        let mut csr = Csr::from_parts(
            Storage::from(offsets),
            Storage::from(edges),
            weighted.then(|| Storage::from(weights)),
            self.block_size(),
        );
        if self.is_symmetric() {
            csr.mark_symmetric();
        }
        csr
    }
}

/// An overlay is one merged view of its base, hence a single shard (the
/// pre-publish read path serves it like any monolithic snapshot).
impl<G: Graph + Send + Sync> Sharded for DeltaOverlay<G> {
    type Shard = Self;

    fn shard(&self, _s: usize) -> &Self {
        self
    }
}

impl<G: Graph + Send + Sync> Graph for DeltaOverlay<G> {
    fn num_vertices(&self) -> usize {
        self.base.num_vertices()
    }

    fn num_edges(&self) -> usize {
        self.base.num_edges() + self.inserted - self.deleted
    }

    fn degree(&self, v: V) -> usize {
        let d = self.base.degree(v);
        match self.delta_of(v) {
            Some(dv) => d + dv.add.len() - dv.del.len(),
            None => d,
        }
    }

    fn is_weighted(&self) -> bool {
        self.base.is_weighted()
    }

    fn is_symmetric(&self) -> bool {
        // `apply` mirrors every update on a symmetric base, so the property
        // is preserved across arbitrary update batches.
        self.base.is_symmetric()
    }

    fn block_size(&self) -> usize {
        self.base.block_size()
    }

    fn for_each_edge<F: FnMut(V, u32)>(&self, v: V, mut f: F) {
        match self.delta_of(v) {
            None => self.base.for_each_edge(v, f),
            Some(d) => {
                // Streaming sorted merge: pending inserts interleave with
                // the (sorted) base list, deleted base edges are skipped.
                let mut ai = 0;
                self.base.for_each_edge(v, |nbr, w| {
                    while ai < d.add.len() && d.add[ai].0 < nbr {
                        f(d.add[ai].0, d.add[ai].1);
                        ai += 1;
                    }
                    if d.del.binary_search(&nbr).is_err() {
                        f(nbr, w);
                    }
                });
                while ai < d.add.len() {
                    f(d.add[ai].0, d.add[ai].1);
                    ai += 1;
                }
            }
        }
    }

    fn for_each_edge_while<F: FnMut(V, u32) -> bool>(&self, v: V, mut f: F) {
        match self.delta_of(v) {
            None => self.base.for_each_edge_while(v, f),
            Some(d) => {
                let mut ai = 0;
                let mut cont = true;
                self.base.for_each_edge_while(v, |nbr, w| {
                    while cont && ai < d.add.len() && d.add[ai].0 < nbr {
                        cont = f(d.add[ai].0, d.add[ai].1);
                        ai += 1;
                    }
                    if cont && d.del.binary_search(&nbr).is_err() {
                        cont = f(nbr, w);
                    }
                    cont
                });
                while cont && ai < d.add.len() {
                    cont = f(d.add[ai].0, d.add[ai].1);
                    ai += 1;
                }
            }
        }
    }

    fn decode_block<F: FnMut(u32, V, u32)>(&self, v: V, blk: usize, mut f: F) {
        // Logical blocks are positions of the *merged* list; walk it with an
        // index counter and early-exit past the block. O(block end) per
        // call, bounded DRAM — the same closure-decode shape compressed
        // lists use.
        let bs = self.block_size();
        let lo = blk * bs;
        let hi = lo + bs;
        let mut i = 0usize;
        self.for_each_edge_while(v, |nbr, w| {
            if i >= hi {
                return false;
            }
            if i >= lo {
                f((i - lo) as u32, nbr, w);
            }
            i += 1;
            true
        });
    }

    fn supports_random_access(&self) -> bool {
        false
    }

    fn size_bytes(&self) -> usize {
        let delta: usize = self
            .delta
            .values()
            .map(|d| d.add.len() * 8 + d.del.len() * 4 + 48)
            .sum();
        self.base.size_bytes() + delta
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sage_graph::{build_csr, gen, BuildOptions, EdgeList};

    fn adjacency<G: Graph>(g: &G, v: V) -> Vec<(V, u32)> {
        let mut out = Vec::new();
        g.for_each_edge(v, |u, w| out.push((u, w)));
        out
    }

    /// The overlay reads exactly as its base: edge count and every list.
    fn assert_reads_as_base(ov: &DeltaOverlay<Csr>) {
        assert_eq!(ov.num_edges(), ov.base().num_edges());
        for v in 0..ov.num_vertices() as V {
            assert_eq!(adjacency(ov, v), adjacency(&**ov.base(), v), "vertex {v}");
        }
    }

    #[test]
    fn empty_overlay_is_the_base() {
        let g = Arc::new(gen::rmat(6, 8, gen::RmatParams::default(), 3));
        let ov = DeltaOverlay::new(Arc::clone(&g));
        assert_eq!(ov.num_edges(), g.num_edges());
        for v in 0..g.num_vertices() as V {
            assert_eq!(adjacency(&ov, v), adjacency(&*g, v));
            assert_eq!(ov.degree(v), g.degree(v));
        }
    }

    #[test]
    fn insert_delete_and_cancellation() {
        // Path 0-1-2-3 (symmetric).
        let g = Arc::new(gen::path(4));
        let mut ov = DeltaOverlay::new(Arc::clone(&g));
        ov.apply(&[EdgeUpdate::insert(0, 3)]);
        assert_eq!(ov.num_edges(), g.num_edges() + 2, "mirrored on symmetric");
        assert_eq!(ov.degree(0), g.degree(0) + 1);
        assert!(adjacency(&ov, 0).contains(&(3, 0)));
        assert!(adjacency(&ov, 3).contains(&(0, 0)));
        // Delete it again: back to the base.
        ov.apply(&[EdgeUpdate::delete(0, 3)]);
        assert_reads_as_base(&ov);
        // Delete a base edge, then restore it.
        ov.apply(&[EdgeUpdate::delete(1, 2)]);
        assert_eq!(ov.num_edges(), g.num_edges() - 2);
        assert!(!adjacency(&ov, 1).contains(&(2, 0)));
        ov.apply(&[EdgeUpdate::insert(1, 2)]);
        assert_reads_as_base(&ov);
        // Idempotence: inserting a present edge / deleting an absent one.
        ov.apply(&[EdgeUpdate::insert(0, 1), EdgeUpdate::delete(0, 3)]);
        assert_reads_as_base(&ov);
    }

    #[test]
    fn merged_iteration_is_sorted() {
        let g = Arc::new(gen::path(8));
        let mut ov = DeltaOverlay::new(Arc::clone(&g));
        ov.apply(&[
            EdgeUpdate::insert(3, 7),
            EdgeUpdate::insert(3, 0),
            EdgeUpdate::delete(3, 4),
        ]);
        let adj: Vec<V> = adjacency(&ov, 3).into_iter().map(|(v, _)| v).collect();
        assert_eq!(adj, vec![0, 2, 7]);
        let mut sorted = adj.clone();
        sorted.sort_unstable();
        assert_eq!(adj, sorted);
    }

    #[test]
    fn compact_equals_builder_output() {
        let g = Arc::new(gen::rmat(7, 8, gen::RmatParams::default(), 11));
        let mut ov = DeltaOverlay::new(Arc::clone(&g));
        let n = g.num_vertices() as V;
        let updates: Vec<EdgeUpdate> = (0..32u32)
            .map(|i| {
                let u = (i * 37) % n;
                let v = (i * 53 + 7) % n;
                if i % 3 == 0 {
                    EdgeUpdate::delete(u, v)
                } else {
                    EdgeUpdate::insert(u, v)
                }
            })
            .collect();
        ov.apply(&updates);
        let compacted = ov.compact();
        // The compacted CSR must be exactly the edge set the overlay serves,
        // in the same per-vertex order.
        assert_eq!(compacted.num_edges(), ov.num_edges());
        assert_eq!(compacted.is_symmetric(), ov.is_symmetric());
        for v in 0..n {
            assert_eq!(adjacency(&compacted, v), adjacency(&ov, v), "vertex {v}");
        }
        // And it must equal the builder's output for the same edge list.
        let mut edges: Vec<(V, V)> = Vec::new();
        for v in 0..n {
            ov.for_each_edge(v, |u, _| edges.push((v, u)));
        }
        let rebuilt = build_csr(
            EdgeList::new(n as usize, edges),
            BuildOptions {
                symmetrize: false,
                ..BuildOptions::default()
            },
        );
        for v in 0..n {
            assert_eq!(adjacency(&compacted, v), adjacency(&rebuilt, v));
        }
    }

    #[test]
    fn overlay_never_writes_the_graph() {
        let g = Arc::new(gen::rmat(6, 8, gen::RmatParams::default(), 5));
        let mut ov = DeltaOverlay::new(Arc::clone(&g));
        ov.apply(&[EdgeUpdate::insert(1, 2), EdgeUpdate::delete(0, 1)]);
        let scope = sage_nvram::MeterScope::new();
        scope.enter(|| {
            for v in 0..ov.num_vertices() as V {
                ov.for_each_edge(v, |_, _| {});
            }
        });
        let t = scope.snapshot();
        assert_eq!(t.graph_write, 0, "readers never write the graph");
        assert!(t.aux_read > 0, "delta lookups are small-memory traffic");
    }
}
