//! Uncompressed compressed-sparse-row graphs, heap- or NVRAM-resident.

use crate::{Graph, V};
use sage_nvram::{meter, NvSlice, Pod};

/// Backing storage of a graph array: owned heap memory ("DRAM") or a typed
/// window into a read-only mapping ("NVRAM"). Read-only either way, matching
/// the PSAM's immutable large memory.
pub enum Storage<T: Pod> {
    /// Heap-resident (the Sage-DRAM / GBBS-DRAM configurations of Figure 7).
    Heap(Box<[T]>),
    /// Mapped NVRAM (the App-Direct configurations).
    Nv(NvSlice<T>),
}

impl<T: Pod> std::ops::Deref for Storage<T> {
    type Target = [T];

    #[inline]
    fn deref(&self) -> &[T] {
        match self {
            Storage::Heap(b) => b,
            Storage::Nv(s) => s,
        }
    }
}

impl<T: Pod> Storage<T> {
    /// Whether this array lives in a mapped NVRAM region.
    pub fn is_nvram(&self) -> bool {
        matches!(self, Storage::Nv(_))
    }
}

impl<T: Pod> From<Vec<T>> for Storage<T> {
    fn from(v: Vec<T>) -> Self {
        Storage::Heap(v.into_boxed_slice())
    }
}

/// An immutable CSR graph: `offsets[v]..offsets[v+1]` indexes `edges` (and
/// `weights`, when present). Neighbor lists are sorted and deduplicated by
/// the builder.
pub struct Csr {
    pub(crate) offsets: Storage<u64>,
    pub(crate) edges: Storage<V>,
    pub(crate) weights: Option<Storage<u32>>,
    pub(crate) block_size: usize,
    /// Whether in-neighbors equal out-neighbors; see [`Graph::is_symmetric`].
    /// Set by the builder when it symmetrizes, or via
    /// [`Csr::mark_symmetric`] for inputs known to be undirected.
    pub(crate) symmetric: bool,
}

impl Csr {
    /// Assemble from raw parts. `offsets` must have length `n+1`, start at 0,
    /// be non-decreasing, and end at `edges.len()`.
    pub fn from_parts(
        offsets: Storage<u64>,
        edges: Storage<V>,
        weights: Option<Storage<u32>>,
        block_size: usize,
    ) -> Self {
        assert!(!offsets.is_empty(), "offsets must have length n+1 >= 1");
        assert_eq!(offsets[0], 0, "offsets must start at zero");
        assert_eq!(
            *offsets.last().unwrap() as usize,
            edges.len(),
            "offsets must end at the edge count"
        );
        if let Some(w) = &weights {
            assert_eq!(w.len(), edges.len(), "one weight per edge");
        }
        assert!(
            block_size >= 64 && block_size % 64 == 0,
            "block size must be a multiple of 64"
        );
        Self {
            offsets,
            edges,
            weights,
            block_size,
            symmetric: false,
        }
    }

    /// Declare that in-neighbors equal out-neighbors (undirected graph),
    /// unlocking the dense (pull) `edgeMap` direction. The builder sets this
    /// automatically when it symmetrizes; callers constructing from raw parts
    /// must only set it when the property actually holds.
    pub fn mark_symmetric(&mut self) {
        self.symmetric = true;
    }

    #[inline]
    pub(crate) fn meter_read(&self, words: u64) {
        meter::graph_read(words);
    }

    /// The sorted neighbor array of `v` (CSR-only fast path used by
    /// sequential reference algorithms and intersections). Meters the read.
    #[inline]
    pub fn neighbors(&self, v: V) -> &[V] {
        let lo = self.offsets[v as usize] as usize;
        let hi = self.offsets[v as usize + 1] as usize;
        self.meter_read((hi - lo) as u64 + 2);
        &self.edges[lo..hi]
    }

    /// Neighbor at position `i` of `v`'s adjacency list.
    #[inline]
    pub fn neighbor_at(&self, v: V, i: usize) -> V {
        self.meter_read(1);
        self.edges[self.offsets[v as usize] as usize + i]
    }

    /// Weight at position `i` of `v`'s list (0 when unweighted).
    #[inline]
    pub fn weight_at(&self, v: V, i: usize) -> u32 {
        match &self.weights {
            Some(w) => {
                self.meter_read(1);
                w[self.offsets[v as usize] as usize + i]
            }
            None => 0,
        }
    }

    /// Size of the graph arrays in bytes (Table 2 / memory reporting).
    pub fn size_bytes(&self) -> usize {
        self.offsets.len() * 8
            + self.edges.len() * 4
            + self.weights.as_ref().map_or(0, |w| w.len() * 4)
    }

    /// Whether the edge arrays live in mapped NVRAM.
    pub fn on_nvram(&self) -> bool {
        self.edges.is_nvram()
    }

    /// Override the logical block size (must be a positive multiple of 64).
    pub fn set_block_size(&mut self, block_size: usize) {
        assert!(
            block_size >= 64 && block_size % 64 == 0,
            "block size must be a multiple of 64"
        );
        self.block_size = block_size;
    }

    /// Borrow the offsets array.
    pub fn offsets(&self) -> &[u64] {
        &self.offsets
    }
}

impl std::fmt::Debug for Csr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Csr(n={}, m={}, weighted={}, nvram={})",
            self.num_vertices(),
            self.num_edges(),
            self.is_weighted(),
            self.on_nvram()
        )
    }
}

impl Graph for Csr {
    #[inline]
    fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    #[inline]
    fn num_edges(&self) -> usize {
        self.edges.len()
    }

    #[inline]
    fn degree(&self, v: V) -> usize {
        (self.offsets[v as usize + 1] - self.offsets[v as usize]) as usize
    }

    #[inline]
    fn is_weighted(&self) -> bool {
        self.weights.is_some()
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
    fn size_bytes(&self) -> usize {
        Csr::size_bytes(self)
    }

    #[inline]
    fn for_each_edge<F: FnMut(V, u32)>(&self, v: V, mut f: F) {
        let lo = self.offsets[v as usize] as usize;
        let hi = self.offsets[v as usize + 1] as usize;
        match &self.weights {
            None => {
                self.meter_read((hi - lo) as u64 + 2);
                for &u in &self.edges[lo..hi] {
                    f(u, 0);
                }
            }
            Some(w) => {
                self.meter_read(2 * (hi - lo) as u64 + 2);
                for i in lo..hi {
                    f(self.edges[i], w[i]);
                }
            }
        }
    }

    #[inline]
    fn for_each_edge_while<F: FnMut(V, u32) -> bool>(&self, v: V, mut f: F) {
        let lo = self.offsets[v as usize] as usize;
        let hi = self.offsets[v as usize + 1] as usize;
        let mut read = 2u64;
        for i in lo..hi {
            let w = self.weights.as_ref().map_or(0, |w| w[i]);
            read += 1 + self.weights.is_some() as u64;
            if !f(self.edges[i], w) {
                break;
            }
        }
        self.meter_read(read);
    }

    #[inline]
    fn supports_random_access(&self) -> bool {
        true
    }

    #[inline]
    fn edge_at(&self, v: V, i: usize) -> (V, u32) {
        let at = self.offsets[v as usize] as usize + i;
        self.meter_read(1 + self.weights.is_some() as u64);
        (self.edges[at], self.weights.as_ref().map_or(0, |w| w[at]))
    }

    #[inline]
    fn decode_block<F: FnMut(u32, V, u32)>(&self, v: V, blk: usize, mut f: F) {
        let lo = self.offsets[v as usize] as usize;
        let hi = self.offsets[v as usize + 1] as usize;
        let start = lo + blk * self.block_size;
        let end = (start + self.block_size).min(hi);
        debug_assert!(start < hi, "block {blk} out of range for vertex {v}");
        self.meter_read((end - start) as u64 * (1 + self.weights.is_some() as u64) + 2);
        for i in start..end {
            let w = self.weights.as_ref().map_or(0, |w| w[i]);
            f((i - start) as u32, self.edges[i], w);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Csr {
        // 0 -> {1,2}, 1 -> {0}, 2 -> {0}, 3 -> {}
        Csr::from_parts(
            vec![0u64, 2, 3, 4, 4].into(),
            vec![1u32, 2, 0, 0].into(),
            None,
            64,
        )
    }

    #[test]
    fn basic_accessors() {
        let g = tiny();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.degree(3), 0);
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbor_at(0, 1), 2);
        assert!(!g.is_weighted());
        assert!(!g.on_nvram());
    }

    #[test]
    fn iteration_visits_all_edges() {
        let g = tiny();
        let mut seen = Vec::new();
        g.for_each_edge(0, |u, w| seen.push((u, w)));
        assert_eq!(seen, vec![(1, 0), (2, 0)]);
    }

    #[test]
    fn early_exit_stops() {
        let g = tiny();
        let mut count = 0;
        g.for_each_edge_while(0, |_, _| {
            count += 1;
            false
        });
        assert_eq!(count, 1);
    }

    #[test]
    fn weighted_graph_passes_weights() {
        let g = Csr::from_parts(
            vec![0u64, 2].into(),
            vec![0u32, 0].into(),
            Some(vec![5u32, 9].into()),
            64,
        );
        let mut ws = Vec::new();
        g.for_each_edge(0, |_, w| ws.push(w));
        assert_eq!(ws, vec![5, 9]);
        assert_eq!(g.weight_at(0, 1), 9);
        assert!(g.is_weighted());
    }

    #[test]
    fn block_decode_covers_list() {
        // vertex with 130 neighbors, block size 64 -> blocks of 64/64/2
        let deg = 130usize;
        let edges: Vec<u32> = (0..deg as u32).collect();
        let g = Csr::from_parts(vec![0u64, deg as u64].into(), edges.into(), None, 64);
        assert_eq!(g.num_blocks_of(0), 3);
        let mut got = Vec::new();
        for b in 0..3 {
            g.decode_block(0, b, |i, u, _| got.push((b, i, u)));
        }
        assert_eq!(got.len(), deg);
        assert_eq!(got[64], (1, 0, 64));
        assert_eq!(got[129], (2, 1, 129));
    }

    #[test]
    #[should_panic(expected = "offsets must end")]
    fn malformed_offsets_rejected() {
        let _ = Csr::from_parts(vec![0u64, 5].into(), vec![1u32].into(), None, 64);
    }
}
