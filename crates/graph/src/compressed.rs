//! Parallel byte-encoded compressed graphs (Ligra+ \[87\], §2 / §4.2.1).
//!
//! Each vertex's sorted adjacency list is difference-encoded with
//! variable-length byte codes and divided into *compression blocks* of
//! `block_size` edges. Blocks decode sequentially, but the per-vertex block
//! offset table lets the edges of a high-degree vertex be traversed in
//! parallel across blocks — the property `edgeMapChunked` and the graphFilter
//! rely on. The graphFilter's filter block size must equal this compression
//! block size (§4.2.1), which the engine asserts.
//!
//! Layout of a vertex's encoded region (4-byte aligned):
//!
//! ```text
//! [u32 x (nblocks-1): byte offsets of blocks 1.. from region start]
//! [block 0][block 1]...[block nblocks-1]
//! ```
//!
//! Within a block the first edge is a zigzag varint of `ngh - v`; subsequent
//! edges are varints of `diff - 1` (lists are strictly increasing). Weighted
//! graphs interleave a weight varint after each target.
//!
//! Two decode-speed mechanisms sit on top of that layout:
//!
//! - **Word-at-a-time varint decode**: `get_varint` loads 8 bytes at once,
//!   finds the first clear continuation bit with `trailing_zeros`, and
//!   gathers the payload bits branchlessly (`compact7`). Region tails and
//!   varints longer than 8 bytes fall back to a bounded per-byte loop.
//! - **Hybrid encoding**: vertices whose degree reaches `hybrid_cutoff`
//!   skip varints entirely — their region is the raw little-endian `u32`
//!   neighbor (and weight) values at a fixed stride, with no block offset
//!   table (block `b` starts at `b * block_size * entry_bytes`). Heavy
//!   hitters decode at memcpy-like speed and cost exactly the CSR bytes, so
//!   the hybrid never inflates a graph. The cutoff is derived state: no
//!   per-vertex flag is stored, membership is `degree >= cutoff`.

use crate::csr::{Csr, Storage};
use crate::{Graph, V};
use sage_nvram::meter;
use sage_parallel as par;

/// Sentinel cutoff that disables the hybrid encoding (every vertex uses
/// byte codes). Stored as `0` in the binary header, so pre-hybrid files
/// load unchanged.
pub const HYBRID_DISABLED: u32 = u32::MAX;

/// Default degree cutoff for the hybrid raw-`u32` encoding.
///
/// The default is compression-first: on skewed graphs the hubs hold most of
/// the bytes, and a hub's sorted neighbor list is exactly where deltas are
/// small and byte codes shrink 3–4×, so raw-encoding hubs trades real NVRAM
/// residency for decode speed. Only true heavy hitters (four blocks' worth
/// of edges and up) go raw by default, which keeps web-scale snapshots near
/// their pure-varint size. Serving rigs that want decode bandwidth over
/// size pass a lower cutoff to [`CompressedCsr::from_csr_with`] — the
/// compressed bench suite measures `cutoff = block size`, the profile where
/// every multi-block vertex decodes at `memcpy` speed — and the choice is
/// persisted in the snapshot header and the bench report.
pub const DEFAULT_HYBRID_CUTOFF: u32 = 256;

/// A byte-compressed CSR graph.
pub struct CompressedCsr {
    pub(crate) voffsets: Storage<u64>,
    pub(crate) degrees: Storage<u32>,
    pub(crate) data: Storage<u8>,
    pub(crate) m: usize,
    pub(crate) weighted: bool,
    pub(crate) block_size: usize,
    /// See [`Graph::is_symmetric`]; inherited from the source CSR.
    pub(crate) symmetric: bool,
    /// Degree at which vertices switch to the raw encoding
    /// ([`HYBRID_DISABLED`] = pure varint).
    pub(crate) hybrid_cutoff: u32,
}

#[inline]
fn zigzag_encode(x: i64) -> u64 {
    ((x << 1) ^ (x >> 63)) as u64
}

#[inline]
fn zigzag_decode(x: u64) -> i64 {
    ((x >> 1) as i64) ^ -((x & 1) as i64)
}

#[inline]
fn put_varint(buf: &mut Vec<u8>, mut x: u64) {
    loop {
        let byte = (x & 0x7F) as u8;
        x >>= 7;
        if x == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// The continuation bit of every byte lane.
const CONT_MASK: u64 = 0x8080_8080_8080_8080;

/// Gather the low 7 bits of each of up to 8 little-endian bytes into one
/// contiguous value: byte `k` contributes bits `7k..7k+7`, so each lane
/// only needs a right-shift by its index before masking.
#[inline]
fn compact7(w: u64) -> u64 {
    (w & 0x7F)
        | ((w >> 1) & (0x7F << 7))
        | ((w >> 2) & (0x7F << 14))
        | ((w >> 3) & (0x7F << 21))
        | ((w >> 4) & (0x7F << 28))
        | ((w >> 5) & (0x7F << 35))
        | ((w >> 6) & (0x7F << 42))
        | ((w >> 7) & (0x7F << 49))
}

/// Word-at-a-time LEB128 decode: load 8 bytes, locate the terminator lane
/// with one `trailing_zeros`, and extract all payload bits branchlessly.
/// Falls back to [`get_varint_tail`] within 8 bytes of the slice end or for
/// varints longer than 8 bytes (values above `2^56`, e.g. large weights).
#[inline]
fn get_varint(data: &[u8], pos: &mut usize) -> u64 {
    let p = *pos;
    if let Some(window) = data.get(p..p + 8) {
        let word = u64::from_le_bytes(window.try_into().unwrap());
        let stops = !word & CONT_MASK;
        if stops != 0 {
            let len = (stops.trailing_zeros() >> 3) + 1; // 1..=8 bytes
            *pos = p + len as usize;
            return compact7(word & (u64::MAX >> (64 - 8 * len)));
        }
    }
    get_varint_tail(data, pos)
}

/// Per-byte decode path for region tails and over-long varints. The shift
/// is bounded so malformed input can neither overflow the shift (UB in the
/// old decoder) nor poison unrelated bits — full rejection of such input
/// happens at load time via [`get_varint_checked`].
#[cold]
fn get_varint_tail(data: &[u8], pos: &mut usize) -> u64 {
    let mut x = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = data[*pos];
        *pos += 1;
        if shift < 64 {
            x |= ((byte & 0x7F) as u64) << shift;
        }
        if byte & 0x80 == 0 {
            return x;
        }
        shift += 7;
    }
}

/// The pre-word-at-a-time decoder: one byte per iteration, shift bounded.
/// Kept as the measurement baseline for the `decode-bw` experiment and as a
/// differential oracle for the fast path.
#[inline]
fn get_varint_per_byte(data: &[u8], pos: &mut usize) -> u64 {
    let mut x = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = data[*pos];
        *pos += 1;
        if shift < 64 {
            x |= ((byte & 0x7F) as u64) << shift;
        }
        if byte & 0x80 == 0 {
            return x;
        }
        shift += 7;
    }
}

/// Strict LEB128 decode for load-time validation: rejects truncation,
/// sequences past 10 bytes, and payload bits that overflow a `u64`.
fn get_varint_checked(data: &[u8], pos: &mut usize) -> Result<u64, String> {
    let mut x = 0u64;
    let mut shift = 0u32;
    loop {
        let Some(&byte) = data.get(*pos) else {
            return Err("varint truncated at region end".into());
        };
        *pos += 1;
        let bits = (byte & 0x7F) as u64;
        if shift >= 64 || (shift > 57 && (bits >> (64 - shift)) != 0) {
            return Err(format!("over-long varint (shift {shift} past u64)"));
        }
        x |= bits << shift;
        if byte & 0x80 == 0 {
            return Ok(x);
        }
        shift += 7;
    }
}

impl CompressedCsr {
    /// Compress an existing CSR graph with the given compression block size
    /// (a positive multiple of 64, per the graphFilter alignment rule) and
    /// the default hybrid cutoff ([`DEFAULT_HYBRID_CUTOFF`]).
    pub fn from_csr(g: &Csr, block_size: usize) -> Self {
        Self::from_csr_with(g, block_size, DEFAULT_HYBRID_CUTOFF)
    }

    /// Compress with an explicit hybrid degree cutoff. `hybrid_cutoff`
    /// must be positive; pass [`HYBRID_DISABLED`] for a pure varint
    /// encoding (the pre-hybrid format, still used as the `decode-bw`
    /// baseline).
    pub fn from_csr_with(g: &Csr, block_size: usize, hybrid_cutoff: u32) -> Self {
        assert!(
            block_size >= 64 && block_size % 64 == 0,
            "compression block size must be a positive multiple of 64"
        );
        assert!(hybrid_cutoff > 0, "hybrid cutoff must be positive");
        let n = g.num_vertices();
        let weighted = g.is_weighted();
        // Encode each vertex independently, in parallel.
        let encoded: Vec<Vec<u8>> = par::par_map_grain(n, 64, |vi| {
            let v = vi as V;
            let deg = g.degree(v);
            if deg == 0 {
                return Vec::new();
            }
            if hybrid_cutoff != HYBRID_DISABLED && deg >= hybrid_cutoff as usize {
                // Hybrid region: raw little-endian values, fixed stride,
                // no block offset table.
                let entry = if weighted { 8 } else { 4 };
                let mut out = Vec::with_capacity(deg * entry);
                for i in 0..deg {
                    out.extend_from_slice(&g.neighbor_at(v, i).to_le_bytes());
                    if weighted {
                        out.extend_from_slice(&g.weight_at(v, i).to_le_bytes());
                    }
                }
                return out;
            }
            let nblocks = deg.div_ceil(block_size);
            // Encode blocks into a scratch buffer, remembering block starts.
            let mut body = Vec::with_capacity(deg * 2);
            let mut block_starts = Vec::with_capacity(nblocks);
            for b in 0..nblocks {
                block_starts.push(body.len() as u32);
                let lo = b * block_size;
                let hi = ((b + 1) * block_size).min(deg);
                let mut prev: i64 = -1;
                for i in lo..hi {
                    let ngh = g.neighbor_at(v, i) as i64;
                    if i == lo {
                        put_varint(&mut body, zigzag_encode(ngh - v as i64));
                    } else {
                        debug_assert!(ngh > prev, "adjacency lists must be strictly increasing");
                        put_varint(&mut body, (ngh - prev - 1) as u64);
                    }
                    prev = ngh;
                    if weighted {
                        put_varint(&mut body, g.weight_at(v, i) as u64);
                    }
                }
            }
            let header_bytes = (nblocks - 1) * 4;
            let mut out = Vec::with_capacity(header_bytes + body.len());
            for &start in &block_starts[1..nblocks] {
                let abs = header_bytes as u32 + start;
                out.extend_from_slice(&abs.to_le_bytes());
            }
            out.extend_from_slice(&body);
            out
        });
        // Lay regions out 4-byte aligned.
        let mut voffsets = vec![0u64; n + 1];
        {
            let sizes: Vec<u64> = encoded
                .iter()
                .map(|e| (e.len().div_ceil(4) * 4) as u64)
                .collect();
            voffsets[..n].copy_from_slice(&sizes);
        }
        let total = par::scan_add(&mut voffsets[..n]) as usize;
        voffsets[n] = total as u64;
        let mut data = vec![0u8; total];
        {
            let ptr = par::SendPtr(data.as_mut_ptr());
            let voff = &voffsets;
            let enc = &encoded;
            par::par_for_grain(0, n, 64, |vi| {
                let at = voff[vi] as usize;
                let e = &enc[vi];
                // SAFETY: regions are disjoint byte ranges.
                unsafe {
                    std::ptr::copy_nonoverlapping(e.as_ptr(), ptr.add(at), e.len());
                }
            });
        }
        let degrees: Vec<u32> = par::par_map(n, |vi| g.degree(vi as V) as u32);
        Self {
            voffsets: voffsets.into(),
            degrees: degrees.into(),
            data: data.into(),
            m: g.num_edges(),
            weighted,
            block_size,
            symmetric: g.is_symmetric(),
            hybrid_cutoff,
        }
    }

    /// Assemble from raw parts (used by the binary loader).
    pub fn from_parts(
        voffsets: Storage<u64>,
        degrees: Storage<u32>,
        data: Storage<u8>,
        m: usize,
        weighted: bool,
        block_size: usize,
        hybrid_cutoff: u32,
    ) -> Self {
        assert_eq!(voffsets.len(), degrees.len() + 1);
        assert!(block_size >= 64 && block_size % 64 == 0);
        assert!(hybrid_cutoff > 0, "hybrid cutoff must be positive");
        Self {
            voffsets,
            degrees,
            data,
            m,
            weighted,
            block_size,
            symmetric: false,
            hybrid_cutoff,
        }
    }

    /// Declare that in-neighbors equal out-neighbors; see
    /// [`crate::csr::Csr::mark_symmetric`].
    pub fn mark_symmetric(&mut self) {
        self.symmetric = true;
    }

    /// Size of all arrays in bytes (compression-ratio reporting, §4.2.3).
    pub fn size_bytes(&self) -> usize {
        self.voffsets.len() * 8 + self.degrees.len() * 4 + self.data.len()
    }

    /// The degree cutoff of the hybrid encoding ([`HYBRID_DISABLED`] if
    /// every vertex uses byte codes).
    pub fn hybrid_cutoff(&self) -> u32 {
        self.hybrid_cutoff
    }

    /// Number of vertices stored in the raw hybrid encoding.
    pub fn hybrid_vertices(&self) -> usize {
        if self.hybrid_cutoff == HYBRID_DISABLED {
            return 0;
        }
        let cutoff = self.hybrid_cutoff;
        par::reduce_add(0, self.degrees.len(), |vi| {
            (self.degrees[vi] >= cutoff) as u64
        }) as usize
    }

    /// Whether the encoded data lives in mapped NVRAM.
    pub fn on_nvram(&self) -> bool {
        self.data.is_nvram()
    }

    /// Borrow the raw parts (binary writer use).
    pub(crate) fn parts(&self) -> (&[u64], &[u32], &[u8]) {
        (&self.voffsets, &self.degrees, &self.data)
    }

    #[inline]
    fn is_hybrid_degree(&self, deg: usize) -> bool {
        self.hybrid_cutoff != HYBRID_DISABLED && deg >= self.hybrid_cutoff as usize
    }

    #[inline]
    fn region(&self, v: V) -> &[u8] {
        let lo = self.voffsets[v as usize] as usize;
        let hi = self.voffsets[v as usize + 1] as usize;
        &self.data[lo..hi]
    }

    /// Decode edges `[b*BS, min((b+1)*BS, deg))`, invoking
    /// `f(index_in_block, neighbor, weight)`; returns bytes consumed.
    #[inline]
    fn decode_block_raw<F: FnMut(u32, V, u32)>(&self, v: V, blk: usize, f: F) -> usize {
        let deg = self.degrees[v as usize] as usize;
        debug_assert!(blk * self.block_size < deg, "block {blk} out of range");
        let lo = blk * self.block_size;
        let hi = ((blk + 1) * self.block_size).min(deg);
        let region = self.region(v);
        if self.is_hybrid_degree(deg) {
            return self.decode_hybrid_block(region, lo, hi, f);
        }
        let nblocks = deg.div_ceil(self.block_size);
        let header = (nblocks - 1) * 4;
        let base = self.voffsets[v as usize] as usize;
        let start = base
            + if blk == 0 {
                header
            } else {
                let at = (blk - 1) * 4;
                u32::from_le_bytes(region[at..at + 4].try_into().unwrap()) as usize
            };
        let mut pos = start;
        self.decode_varint_block(v, lo, hi, &mut pos, f);
        pos - start
    }

    /// Decode one varint-encoded block (edges `[lo, hi)` of `v`) starting at
    /// the *absolute* data offset `*pos`, advancing `*pos` past it. The
    /// workhorse of both the random-access block decode and the sequential
    /// whole-vertex walk.
    ///
    /// Positions index the whole arena rather than the vertex's region so
    /// that the 8-byte window loads stay in bounds right up to a region's
    /// last varint — the word may *read* a following vertex's bytes, but the
    /// edge counts bound what it *consumes*, and load-time validation
    /// guarantees each region holds exactly the varints its counts claim.
    /// Only the final 8 bytes of the entire arena take the bounded tail.
    #[inline]
    fn decode_varint_block<F: FnMut(u32, V, u32)>(
        &self,
        v: V,
        lo: usize,
        hi: usize,
        pos: &mut usize,
        mut f: F,
    ) {
        let region = &self.data[..];
        // Block-leading edge: zigzag varint of the signed distance from `v`.
        let first = (v as i64 + zigzag_decode(get_varint(region, pos))) as V;
        let w0 = if self.weighted {
            get_varint(region, pos) as u32
        } else {
            0
        };
        f(0, first, w0);
        let mut prev = first as u64;
        if self.weighted {
            for i in lo + 1..hi {
                let ngh = prev + 1 + get_varint(region, pos);
                prev = ngh;
                let w = get_varint(region, pos) as u32;
                f((i - lo) as u32, ngh as V, w);
            }
            return;
        }
        // Unweighted difference run: the word-batched loop. One 8-byte load
        // yields either a run of complete one-byte deltas — the common case
        // for clustered neighbor ids, emitted without any per-byte branching
        // — or one multi-byte varint scanned branchlessly from the same
        // word. Windows clipped by the arena end take the bounded tail.
        let mut i = lo + 1;
        while i < hi {
            if let Some(window) = region.get(*pos..*pos + 8) {
                let word = u64::from_le_bytes(window.try_into().unwrap());
                let conts = word & CONT_MASK;
                // Lanes before the first continuation bit are complete
                // one-byte deltas; turn up to eight of them into neighbor
                // ids at once. A SWAR prefix sum over 16-bit lanes leaves
                // lane `j` holding `d_0 + … + d_j + (j + 1)` — exactly
                // `ngh_j - prev` — so the emission loop carries no
                // serial dependency between edges. Lane sums stay below
                // 8 × 256, so 16-bit lanes cannot overflow.
                let ones = if conts == 0 {
                    8
                } else {
                    (conts.trailing_zeros() >> 3) as usize
                };
                if ones > 0 {
                    let k = ones.min(hi - i);
                    const LANE1: u64 = 0x0001_0001_0001_0001;
                    let spread = |half: u64| {
                        let mut x = (half & 0xFF)
                            | ((half & 0xFF00) << 8)
                            | ((half & 0xFF_0000) << 16)
                            | ((half & 0xFF00_0000) << 24);
                        x += LANE1;
                        x += x << 16;
                        x += x << 32;
                        x
                    };
                    let lo4 = spread(word & 0xFFFF_FFFF);
                    let hi4 = spread(word >> 32) + (lo4 >> 48) * LANE1;
                    let base = (i - lo) as u32;
                    if k == 8 {
                        // Full window: constant-bound emits the compiler
                        // unrolls, no spill of the lane sums.
                        for j in 0..4 {
                            f(
                                base + j as u32,
                                (prev + ((lo4 >> (16 * j)) & 0xFFFF)) as V,
                                0,
                            );
                        }
                        for j in 0..4 {
                            f(
                                base + 4 + j as u32,
                                (prev + ((hi4 >> (16 * j)) & 0xFFFF)) as V,
                                0,
                            );
                        }
                        prev += hi4 >> 48;
                    } else {
                        let mut pfx = [0u64; 8];
                        for j in 0..4 {
                            pfx[j] = (lo4 >> (16 * j)) & 0xFFFF;
                            pfx[j + 4] = (hi4 >> (16 * j)) & 0xFFFF;
                        }
                        for (j, p) in pfx[..k].iter().enumerate() {
                            f(base + j as u32, (prev + p) as V, 0);
                        }
                        prev += pfx[k - 1];
                    }
                    *pos += k;
                    i += k;
                    continue;
                }
                let stops = !word & CONT_MASK;
                if stops != 0 {
                    // A multi-byte varint wholly inside the window: decode it
                    // from the word already loaded.
                    let len = (stops.trailing_zeros() >> 3) + 1;
                    let d = compact7(word & (u64::MAX >> (64 - 8 * len)));
                    *pos += len as usize;
                    let ngh = prev + 1 + d;
                    prev = ngh;
                    f((i - lo) as u32, ngh as V, 0);
                    i += 1;
                    continue;
                }
            }
            let ngh = prev + 1 + get_varint(region, pos);
            prev = ngh;
            f((i - lo) as u32, ngh as V, 0);
            i += 1;
        }
    }

    /// Decode edges `[lo, hi)` of a raw hybrid region; returns bytes read.
    #[inline]
    fn decode_hybrid_block<F: FnMut(u32, V, u32)>(
        &self,
        region: &[u8],
        lo: usize,
        hi: usize,
        mut f: F,
    ) -> usize {
        if self.weighted {
            let bytes = &region[lo * 8..hi * 8];
            for (k, pair) in bytes.chunks_exact(8).enumerate() {
                let ngh = u32::from_le_bytes(pair[0..4].try_into().unwrap());
                let w = u32::from_le_bytes(pair[4..8].try_into().unwrap());
                f(k as u32, ngh, w);
            }
        } else {
            let bytes = &region[lo * 4..hi * 4];
            for (k, raw) in bytes.chunks_exact(4).enumerate() {
                f(k as u32, u32::from_le_bytes(raw.try_into().unwrap()), 0);
            }
        }
        (hi - lo) * if self.weighted { 8 } else { 4 }
    }

    /// Like [`decode_block_raw`](Self::decode_block_raw) but forcing the
    /// per-byte varint loop — the `decode-bw` baseline / differential
    /// oracle. Hybrid regions contain no varints and decode identically.
    fn decode_block_per_byte<F: FnMut(u32, V, u32)>(&self, v: V, blk: usize, mut f: F) -> usize {
        let deg = self.degrees[v as usize] as usize;
        let lo = blk * self.block_size;
        let hi = ((blk + 1) * self.block_size).min(deg);
        let region = self.region(v);
        if self.is_hybrid_degree(deg) {
            return self.decode_hybrid_block(region, lo, hi, f);
        }
        let nblocks = deg.div_ceil(self.block_size);
        let header = (nblocks - 1) * 4;
        let start = if blk == 0 {
            header
        } else {
            let at = (blk - 1) * 4;
            u32::from_le_bytes(region[at..at + 4].try_into().unwrap()) as usize
        };
        let mut pos = start;
        let mut prev: i64 = -1;
        for i in lo..hi {
            let ngh = if i == lo {
                (v as i64 + zigzag_decode(get_varint_per_byte(region, &mut pos))) as V
            } else {
                (prev + 1 + get_varint_per_byte(region, &mut pos) as i64) as V
            };
            prev = ngh as i64;
            let w = if self.weighted {
                get_varint_per_byte(region, &mut pos) as u32
            } else {
                0
            };
            f((i - lo) as u32, ngh, w);
        }
        pos - start
    }

    /// Decode all of `v`'s edges through the per-byte reference decoder,
    /// metered exactly like [`Graph::for_each_edge`].
    // sage-lint: allow(dead-pub) -- ROADMAP item 8 settles the compressed format; the losing decoders go then
    pub fn for_each_edge_per_byte<F: FnMut(V, u32)>(&self, v: V, mut f: F) {
        let deg = self.degree(v);
        if deg == 0 {
            return;
        }
        let mut bytes = 0usize;
        for b in 0..deg.div_ceil(self.block_size) {
            bytes += self.decode_block_per_byte(v, b, |_, u, w| f(u, w));
        }
        meter::graph_read(bytes.div_ceil(8) as u64 + 2);
    }

    /// One full-graph decode pass through the production (word-at-a-time +
    /// hybrid) path, folded into a checksum so a decode-bandwidth
    /// measurement (`benchmark/`'s `graph.decode_medges_per_s`) cannot be
    /// optimized away.
    ///
    /// Deliberately single-threaded: decode bandwidth is a per-core kernel
    /// property, and fork/steal overhead both caps and jitters the measured
    /// rate on small inputs (parallel serving over a compressed snapshot is
    /// what `benchmark/`'s `analytics-compressed` workload measures).
    pub fn decode_checksum(&self) -> u64 {
        let mut acc = 0u64;
        for vi in 0..self.num_vertices() {
            self.for_each_edge(vi as V, |u, w| {
                acc = acc.wrapping_add(u as u64 ^ ((w as u64) << 32));
            });
        }
        acc
    }

    /// The same pass through the per-byte reference decoder
    /// (`graph.decode_per_byte_medges_per_s`).
    pub fn decode_checksum_per_byte(&self) -> u64 {
        let mut acc = 0u64;
        for vi in 0..self.num_vertices() {
            self.for_each_edge_per_byte(vi as V, |u, w| {
                acc = acc.wrapping_add(u as u64 ^ ((w as u64) << 32));
            });
        }
        acc
    }

    /// Walk every region with the strict decoder and reject any structural
    /// defect: truncated or over-long varints, block offsets outside the
    /// region, neighbors out of range or out of order, or a region too
    /// short for its degree. The binary loader runs this before handing a
    /// mapped graph to the engine, so the unchecked hot-path decoders only
    /// ever see well-formed bytes.
    pub fn validate(&self) -> Result<(), String> {
        self.validate_with_target(self.num_vertices())
    }

    /// [`CompressedCsr::validate`] with an explicit edge-target id space:
    /// shard files of a partitioned snapshot store *local* vertex regions
    /// whose neighbors are *global* ids, so their targets are bounded by the
    /// global vertex count rather than this graph's own.
    pub fn validate_with_target(&self, target_n: usize) -> Result<(), String> {
        let n = self.num_vertices();
        assert!(target_n >= n, "target id space smaller than the graph");
        let errors: Vec<Option<String>> =
            par::par_map_grain(n, 64, |vi| self.validate_vertex(vi as V, target_n).err());
        match errors.into_iter().flatten().next() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    fn validate_vertex(&self, v: V, n: usize) -> Result<(), String> {
        let deg = self.degree(v);
        let region = self.region(v);
        if deg == 0 {
            return Ok(());
        }
        let fail = |what: String| format!("vertex {v}: {what}");
        if self.is_hybrid_degree(deg) {
            let entry = if self.weighted { 8 } else { 4 };
            if region.len() < deg * entry {
                return Err(fail(format!(
                    "hybrid region has {} bytes, needs {}",
                    region.len(),
                    deg * entry
                )));
            }
            let mut prev: i64 = -1;
            for i in 0..deg {
                let ngh = u32::from_le_bytes(region[i * entry..i * entry + 4].try_into().unwrap());
                if (ngh as usize) >= n {
                    return Err(fail(format!("neighbor {ngh} out of range")));
                }
                if (ngh as i64) <= prev {
                    return Err(fail(format!(
                        "neighbors not strictly increasing at index {i}"
                    )));
                }
                prev = ngh as i64;
            }
            return Ok(());
        }
        let nblocks = deg.div_ceil(self.block_size);
        let header = (nblocks - 1) * 4;
        if region.len() < header {
            return Err(fail(format!(
                "region has {} bytes, offset table needs {header}",
                region.len()
            )));
        }
        let mut starts = Vec::with_capacity(nblocks);
        starts.push(header);
        for b in 1..nblocks {
            let at = (b - 1) * 4;
            let s = u32::from_le_bytes(region[at..at + 4].try_into().unwrap()) as usize;
            if s < *starts.last().unwrap() || s > region.len() {
                return Err(fail(format!(
                    "block {b} offset {s} out of order or out of range"
                )));
            }
            starts.push(s);
        }
        let mut pos = header;
        for (b, &start) in starts.iter().enumerate() {
            if pos != start {
                return Err(fail(format!(
                    "block {b} starts at {start}, decode reached {pos}"
                )));
            }
            let lo = b * self.block_size;
            let hi = ((b + 1) * self.block_size).min(deg);
            let mut prev: i64 = -1;
            for i in lo..hi {
                let raw = get_varint_checked(region, &mut pos).map_err(&fail)?;
                let ngh = if i == lo {
                    v as i64 + zigzag_decode(raw)
                } else {
                    prev + 1 + raw as i64
                };
                if ngh < 0 || ngh >= n as i64 {
                    return Err(fail(format!("neighbor {ngh} out of range")));
                }
                if ngh <= prev {
                    return Err(fail(format!(
                        "neighbors not strictly increasing at index {i}"
                    )));
                }
                prev = ngh;
                if self.weighted {
                    get_varint_checked(region, &mut pos).map_err(&fail)?;
                }
            }
        }
        // Regions are padded to 4-byte alignment; anything beyond that
        // would mean the offset table and the byte stream disagree.
        if region.len() - pos >= 4 {
            return Err(fail(format!(
                "{} trailing bytes after the last block",
                region.len() - pos
            )));
        }
        Ok(())
    }
}

impl std::fmt::Debug for CompressedCsr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "CompressedCsr(n={}, m={}, block={}, bytes={}, cutoff={})",
            self.num_vertices(),
            self.m,
            self.block_size,
            self.size_bytes(),
            self.hybrid_cutoff,
        )
    }
}

impl Graph for CompressedCsr {
    #[inline]
    fn num_vertices(&self) -> usize {
        self.degrees.len()
    }

    #[inline]
    fn num_edges(&self) -> usize {
        self.m
    }

    #[inline]
    fn degree(&self, v: V) -> usize {
        self.degrees[v as usize] as usize
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
    fn size_bytes(&self) -> usize {
        CompressedCsr::size_bytes(self)
    }

    fn for_each_edge<F: FnMut(V, u32)>(&self, v: V, mut f: F) {
        let deg = self.degree(v);
        if deg == 0 {
            return;
        }
        if self.is_hybrid_degree(deg) {
            let bytes = self.decode_hybrid_block(self.region(v), 0, deg, |_, u, w| f(u, w));
            meter::graph_read(bytes.div_ceil(8) as u64 + 2);
            return;
        }
        // Sequential whole-vertex walk: blocks are laid out back to back, so
        // a full decode never consults the per-block offset table — one pass
        // over the region instead of a header lookup per block.
        let nblocks = deg.div_ceil(self.block_size);
        let start = self.voffsets[v as usize] as usize + (nblocks - 1) * 4;
        let mut pos = start;
        let mut lo = 0usize;
        while lo < deg {
            let hi = (lo + self.block_size).min(deg);
            self.decode_varint_block(v, lo, hi, &mut pos, |_, u, w| f(u, w));
            lo = hi;
        }
        meter::graph_read(((pos - start) as u64).div_ceil(8) + 2);
    }

    fn for_each_edge_while<F: FnMut(V, u32) -> bool>(&self, v: V, mut f: F) {
        let deg = self.degree(v);
        if deg == 0 {
            return;
        }
        let mut bytes = 0usize;
        let mut go = true;
        for b in 0..deg.div_ceil(self.block_size) {
            if !go {
                break;
            }
            // A compressed block must be decoded in full to step through it
            // (§4.2.3); early exit takes effect at block granularity.
            bytes += self.decode_block_raw(v, b, |_, u, w| {
                if go {
                    go = f(u, w);
                }
            });
        }
        meter::graph_read(bytes.div_ceil(8) as u64 + 2);
    }

    fn decode_block<F: FnMut(u32, V, u32)>(&self, v: V, blk: usize, f: F) {
        let bytes = self.decode_block_raw(v, blk, f);
        meter::graph_read(bytes.div_ceil(8) as u64 + 2);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{build_csr, BuildOptions, EdgeList};
    use crate::gen;

    fn roundtrip_check_cutoff(g: &Csr, block_size: usize, cutoff: u32) {
        let c = CompressedCsr::from_csr_with(g, block_size, cutoff);
        assert_eq!(c.num_vertices(), g.num_vertices());
        assert_eq!(c.num_edges(), g.num_edges());
        c.validate().expect("fresh encoding must validate");
        for v in 0..g.num_vertices() as V {
            assert_eq!(c.degree(v), g.degree(v), "degree of {v}");
            let mut want = Vec::new();
            g.for_each_edge(v, |u, w| want.push((u, w)));
            let mut got = Vec::new();
            c.for_each_edge(v, |u, w| got.push((u, w)));
            assert_eq!(got, want, "neighbors of {v}");
            let mut per_byte = Vec::new();
            c.for_each_edge_per_byte(v, |u, w| per_byte.push((u, w)));
            assert_eq!(per_byte, want, "per-byte decode of {v}");
        }
    }

    fn roundtrip_check(g: &Csr, block_size: usize) {
        for cutoff in [DEFAULT_HYBRID_CUTOFF, 1, 16, HYBRID_DISABLED] {
            roundtrip_check_cutoff(g, block_size, cutoff);
        }
    }

    #[test]
    fn varint_roundtrip() {
        // Boundary values around every length transition of the encoding,
        // decoded by the word-at-a-time, per-byte, and checked decoders.
        let mut cases = vec![0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX];
        for k in 1..10 {
            cases.push((1 << (7 * k)) - 1);
            cases.push(1 << (7 * k));
        }
        for x in cases {
            let mut buf = Vec::new();
            put_varint(&mut buf, x);
            let mut pos = 0;
            assert_eq!(get_varint(&buf, &mut pos), x);
            assert_eq!(pos, buf.len());
            pos = 0;
            assert_eq!(get_varint_per_byte(&buf, &mut pos), x);
            assert_eq!(pos, buf.len());
            pos = 0;
            assert_eq!(get_varint_checked(&buf, &mut pos), Ok(x));
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn word_decode_matches_per_byte_on_packed_streams() {
        // Many varints back to back, so the 8-byte window spans successive
        // values and the tail path is exercised at the end.
        let values: Vec<u64> = (0..200u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (i % 60))
            .collect();
        let mut buf = Vec::new();
        for &x in &values {
            put_varint(&mut buf, x);
        }
        let (mut fast, mut slow) = (0, 0);
        for &x in &values {
            assert_eq!(get_varint(&buf, &mut fast), x);
            assert_eq!(get_varint_per_byte(&buf, &mut slow), x);
            assert_eq!(fast, slow);
        }
        assert_eq!(fast, buf.len());
    }

    #[test]
    fn checked_decoder_rejects_malformed_input() {
        // Truncated: continuation bit set, no next byte.
        let mut pos = 0;
        assert!(get_varint_checked(&[0x80], &mut pos).is_err());
        // Over-long: 11 bytes of payload exceeds any u64.
        let over = [0xFFu8; 10]
            .iter()
            .chain(&[0x01])
            .copied()
            .collect::<Vec<_>>();
        pos = 0;
        assert!(get_varint_checked(&over, &mut pos).is_err());
        // 10-byte u64::MAX is the longest legal sequence...
        let mut buf = Vec::new();
        put_varint(&mut buf, u64::MAX);
        assert_eq!(buf.len(), 10);
        pos = 0;
        assert_eq!(get_varint_checked(&buf, &mut pos), Ok(u64::MAX));
        // ...but a 10th byte above 1 overflows bit 63.
        buf[9] = 0x02;
        pos = 0;
        assert!(get_varint_checked(&buf, &mut pos).is_err());
        // The unchecked decoders must stay in bounds on the same input.
        pos = 0;
        get_varint(&buf, &mut pos);
        pos = 0;
        get_varint_per_byte(&buf, &mut pos);
    }

    #[test]
    fn zigzag_roundtrip() {
        for x in [0i64, 1, -1, 63, -64, i32::MAX as i64, i32::MIN as i64] {
            assert_eq!(zigzag_decode(zigzag_encode(x)), x);
        }
    }

    #[test]
    fn compress_small_graphs() {
        roundtrip_check(&gen::path(50), 64);
        roundtrip_check(&gen::star(100), 64);
        roundtrip_check(&gen::complete(20), 64);
    }

    #[test]
    fn compress_rmat_multiple_block_sizes() {
        let g = gen::rmat(10, 8, gen::RmatParams::default(), 1);
        for bs in [64, 128, 256] {
            roundtrip_check(&g, bs);
        }
    }

    #[test]
    fn compress_weighted() {
        let list = gen::rmat_edges(9, 8, gen::RmatParams::default(), 7).with_random_weights(3);
        let g = build_csr(list, BuildOptions::default());
        roundtrip_check(&g, 64);
    }

    #[test]
    fn hybrid_star_center_decodes_raw() {
        // The star center (degree 999) crosses the default cutoff; leaves
        // (degree 1) stay varint. Both must decode identically and the
        // hybrid count must see exactly the center.
        let g = gen::star(1000);
        let c = CompressedCsr::from_csr(&g, 64);
        assert_eq!(c.hybrid_vertices(), 1);
        let pure = CompressedCsr::from_csr_with(&g, 64, HYBRID_DISABLED);
        assert_eq!(pure.hybrid_vertices(), 0);
        assert_eq!(c.decode_checksum(), pure.decode_checksum());
        assert_eq!(c.decode_checksum(), c.decode_checksum_per_byte());
    }

    #[test]
    fn hybrid_region_size_equals_csr_edges() {
        // A hybrid vertex costs exactly 4 bytes per edge (8 weighted) —
        // the raw encoding can never balloon past the CSR edge array.
        let g = gen::star(1000);
        let c = CompressedCsr::from_csr_with(&g, 64, 2);
        let center_region = c.voffsets[1] - c.voffsets[0];
        assert_eq!(center_region, 4 * 999);
    }

    #[test]
    fn block_decode_matches_full_decode() {
        let g = gen::rmat(9, 16, gen::RmatParams::default(), 5);
        for cutoff in [DEFAULT_HYBRID_CUTOFF, 8, HYBRID_DISABLED] {
            let c = CompressedCsr::from_csr_with(&g, 64, cutoff);
            for v in 0..g.num_vertices() as V {
                let mut blockwise = Vec::new();
                for b in 0..c.num_blocks_of(v) {
                    c.decode_block(v, b, |_, u, _| blockwise.push(u));
                }
                let mut full = Vec::new();
                c.for_each_edge(v, |u, _| full.push(u));
                assert_eq!(blockwise, full);
            }
        }
    }

    #[test]
    fn compression_shrinks_real_shaped_graphs() {
        let g = gen::rmat(12, 16, gen::RmatParams::default(), 2);
        let c = CompressedCsr::from_csr(&g, 64);
        assert!(
            c.size_bytes() < g.size_bytes(),
            "compressed {} >= raw {}",
            c.size_bytes(),
            g.size_bytes()
        );
    }

    #[test]
    fn validate_rejects_corrupt_regions() {
        // path(10): vertex 0's region is a single 1-byte varint (delta to
        // vertex 1) padded to 4 bytes, so corruptions are easy to aim.
        let g = gen::path(10);
        let good = CompressedCsr::from_csr_with(&g, 64, HYBRID_DISABLED);
        good.validate().expect("pristine graph");
        let (voff, degs, data) = good.parts();
        let rebuild = |bytes: Vec<u8>| {
            CompressedCsr::from_parts(
                voff.to_vec().into(),
                degs.to_vec().into(),
                bytes.into(),
                good.num_edges(),
                false,
                64,
                HYBRID_DISABLED,
            )
        };
        let start = voff[0] as usize;
        // Vertex 0's delta replaced by a huge one: neighbor out of range.
        let mut huge = data.to_vec();
        huge[start..start + 4].copy_from_slice(&[0xFF, 0xFF, 0xFF, 0x7F]);
        assert!(rebuild(huge).validate().is_err());
        // All continuation bits set: the varint runs off the region end.
        let mut runaway = data.to_vec();
        for b in &mut runaway[start..start + 4] {
            *b = 0x80;
        }
        assert!(rebuild(runaway).validate().is_err());
    }

    #[test]
    fn empty_vertex_regions() {
        let g = build_csr(EdgeList::new(4, vec![(0, 3)]), BuildOptions::default());
        let c = CompressedCsr::from_csr(&g, 64);
        assert_eq!(c.degree(1), 0);
        let mut cnt = 0;
        c.for_each_edge(1, |_, _| cnt += 1);
        assert_eq!(cnt, 0);
    }
}

#[cfg(test)]
mod perf_probe {
    use super::*;
    use crate::gen;

    #[test]
    #[ignore = "manual perf probe"]
    fn decode_bandwidth_probe() {
        let factor: usize = std::env::var("PROBE_FACTOR")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(24);
        let csr = gen::rmat(8, factor, gen::RmatParams::web(), 0xC1);
        println!(
            "factor {factor}: {} vertices, {} edges, csr {} bytes",
            csr.num_vertices(),
            csr.num_edges(),
            csr.size_bytes()
        );
        let m = csr.num_edges();
        let plain = CompressedCsr::from_csr_with(&csr, 64, HYBRID_DISABLED);
        let time = |f: &dyn Fn() -> u64| {
            let want = f();
            let mut passes = 1usize;
            loop {
                let t0 = std::time::Instant::now();
                for _ in 0..passes {
                    assert_eq!(f(), want);
                }
                if t0.elapsed().as_secs_f64() >= 0.02 {
                    break;
                }
                passes *= 2;
            }
            // Best-of-rounds: the minimum per-pass time filters out bursts
            // stolen by background load on the single shared core.
            let mut best = f64::INFINITY;
            for _ in 0..10 {
                let t0 = std::time::Instant::now();
                for _ in 0..passes {
                    assert_eq!(f(), want);
                }
                best = best.min(t0.elapsed().as_secs_f64() / passes as f64);
            }
            m as f64 / best
        };
        let base = time(&|| plain.decode_checksum_per_byte());
        println!("per-byte: {base:.3e} e/s");
        let w = time(&|| plain.decode_checksum());
        println!("word (disabled): {w:.3e} e/s  {:.2}x", w / base);
        for cutoff in [128u32, 64, 32, 16, 8, 1] {
            let c = CompressedCsr::from_csr_with(&csr, 64, cutoff);
            let bw = time(&|| c.decode_checksum());
            println!(
                "word cutoff {cutoff}: {bw:.3e} e/s  {:.2}x  size {} hybrid_v {}",
                bw / base,
                c.size_bytes(),
                c.hybrid_vertices()
            );
        }
        // Harness floor: a no-op parallel reduce over the vertex range. On
        // few-core machines this can sit *below* the serial decode rates —
        // the reason the checksum kernels above are single-threaded.
        let n = plain.num_vertices();
        let noop = time(&|| par::reduce_map(0, n, 64, 0u64, |_| 0, |a, b| a.wrapping_add(b)));
        println!("noop parallel reduce floor: {noop:.3e} e/s-equivalent");
    }
}
