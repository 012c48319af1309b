//! Graph persistence: a binary format loadable zero-copy from mapped NVRAM.
//!
//! The binary layout keeps every array 8-byte aligned so that an
//! [`NvRegion`] can hand out typed slices directly — this is the reproduction
//! of the paper's fsdax + mmap loading path (§5.1.2): build once, then map
//! read-only and run with *zero* copies into DRAM.

use crate::compressed::{CompressedCsr, HYBRID_DISABLED};
use crate::csr::{Csr, Storage};
use crate::sharded::{ShardRepr, Sharded, ShardedCsr};
use crate::{Graph, V};
use sage_nvram::NvRegion;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;

const MAGIC: u64 = 0x5341_4745_4752_0031; // "SAGEGR\0 1"
const FLAG_WEIGHTED: u64 = 1;
const FLAG_COMPRESSED: u64 = 2;
/// In-neighbors equal out-neighbors; loaded graphs keep the dense (pull)
/// `edgeMap` direction available. Files written before this flag existed
/// load as asymmetric, which is always safe (sparse-only traversal).
const FLAG_SYMMETRIC: u64 = 4;
/// The file is a shard *manifest*: its payload is the `k+1`-entry shard
/// boundary table, and the shards themselves live in sibling
/// `<path>.shard<i>` files, each a self-contained graph file mapped as its
/// own `NvRegion`.
const FLAG_SHARDED: u64 = 8;
const HEADER_BYTES: usize = 64;

/// Where to place a loaded graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Placement {
    /// Copy the arrays onto the heap (the DRAM configurations).
    Dram,
    /// Map the file read-only and reference it in place (the NVRAM
    /// App-Direct configurations).
    Nvram,
}

/// Header word 7 (`target`) is the size of the edge-target id space when it
/// differs from `n`: a shard file stores *local* vertex rows whose neighbors
/// are *global* ids bounded by the snapshot's vertex count. 0 means "same as
/// `n`", so every pre-sharding file loads unchanged.
#[allow(clippy::too_many_arguments)]
fn write_header(
    out: &mut impl Write,
    flags: u64,
    n: u64,
    m: u64,
    block_size: u64,
    aux: u64,
    extra: u64,
    target: u64,
) -> io::Result<()> {
    for v in [MAGIC, flags, n, m, block_size, aux, extra, target] {
        out.write_all(&v.to_le_bytes())?;
    }
    Ok(())
}

fn write_u64s(out: &mut impl Write, data: &[u64]) -> io::Result<()> {
    for v in data {
        out.write_all(&v.to_le_bytes())?;
    }
    Ok(())
}

fn write_u32s(out: &mut impl Write, data: &[u32]) -> io::Result<()> {
    for v in data {
        out.write_all(&v.to_le_bytes())?;
    }
    Ok(())
}

fn pad_to_8(out: &mut impl Write, written: usize) -> io::Result<usize> {
    let pad = (8 - written % 8) % 8;
    out.write_all(&[0u8; 8][..pad])?;
    Ok(pad)
}

/// Write an uncompressed CSR graph to `path` in the binary format.
pub fn write_csr(g: &Csr, path: &Path) -> io::Result<()> {
    write_csr_with_target(g, path, 0)
}

fn write_csr_with_target(g: &Csr, path: &Path, target: u64) -> io::Result<()> {
    let mut out = BufWriter::new(File::create(path)?);
    let n = g.num_vertices() as u64;
    let m = g.num_edges() as u64;
    let flags = if g.is_weighted() { FLAG_WEIGHTED } else { 0 }
        | if g.is_symmetric() { FLAG_SYMMETRIC } else { 0 };
    write_header(&mut out, flags, n, m, g.block_size() as u64, 0, 0, target)?;
    write_u64s(&mut out, g.offsets())?;
    let edges: Vec<V> = {
        let mut e = Vec::with_capacity(m as usize);
        for v in 0..n as V {
            for i in 0..g.degree(v) {
                e.push(g.neighbor_at(v, i));
            }
        }
        e
    };
    write_u32s(&mut out, &edges)?;
    let mut written = edges.len() * 4;
    written += pad_to_8(&mut out, written)?;
    if g.is_weighted() {
        let mut w = Vec::with_capacity(m as usize);
        for v in 0..n as V {
            for i in 0..g.degree(v) {
                w.push(g.weight_at(v, i));
            }
        }
        write_u32s(&mut out, &w)?;
        let _ = written;
    }
    out.flush()
}

/// Write a compressed graph to `path` in the binary format.
pub fn write_compressed(g: &CompressedCsr, path: &Path) -> io::Result<()> {
    write_compressed_with_target(g, path, 0)
}

fn write_compressed_with_target(g: &CompressedCsr, path: &Path, target: u64) -> io::Result<()> {
    let mut out = BufWriter::new(File::create(path)?);
    let (voffsets, degrees, data) = g.parts();
    let n = g.num_vertices() as u64;
    let flags = FLAG_COMPRESSED
        | if g.is_weighted() { FLAG_WEIGHTED } else { 0 }
        | if g.is_symmetric() { FLAG_SYMMETRIC } else { 0 };
    // Header word 6 carries the hybrid degree cutoff; 0 means "none", so
    // files written before the hybrid encoding existed load unchanged.
    let cutoff_word = if g.hybrid_cutoff() == HYBRID_DISABLED {
        0
    } else {
        g.hybrid_cutoff() as u64
    };
    write_header(
        &mut out,
        flags,
        n,
        g.num_edges() as u64,
        g.block_size() as u64,
        data.len() as u64,
        cutoff_word,
        target,
    )?;
    write_u64s(&mut out, voffsets)?;
    write_u32s(&mut out, degrees)?;
    let written = degrees.len() * 4;
    pad_to_8(&mut out, written)?;
    out.write_all(data)?;
    out.flush()
}

struct Header {
    flags: u64,
    n: usize,
    m: usize,
    block_size: usize,
    aux: u64,
    extra: u64,
    /// Edge-target id space; equals `n` for monolithic files, the *global*
    /// vertex count for shard files (header word 7; 0 decodes to `n`).
    target: usize,
}

fn read_header(bytes: &[u8]) -> io::Result<Header> {
    if bytes.len() < HEADER_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "truncated header",
        ));
    }
    let word = |i: usize| u64::from_le_bytes(bytes[i * 8..(i + 1) * 8].try_into().unwrap());
    if word(0) != MAGIC {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "bad magic; not a sage graph file",
        ));
    }
    let n = word(2) as usize;
    let h = Header {
        flags: word(1),
        n,
        m: word(3) as usize,
        block_size: word(4) as usize,
        aux: word(5),
        extra: word(6),
        target: match word(7) as usize {
            0 => n,
            t if t >= n => t,
            _ => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "target id space smaller than vertex count",
                ))
            }
        },
    };
    // Cheap sanity limits so corrupt sizes fail before any arithmetic. A
    // shard manifest is exempt: it stores only the boundary table, not the
    // n- and m-sized arrays its header describes.
    if h.flags & FLAG_SHARDED == 0
        && (h.n as u64 > bytes.len() as u64 || h.m as u64 > bytes.len() as u64)
    {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "header sizes exceed file size",
        ));
    }
    if h.block_size != 0 && (h.block_size % 64 != 0 || h.block_size > 4096) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "invalid block size",
        ));
    }
    Ok(h)
}

/// Load an uncompressed CSR graph.
pub fn load_csr(path: &Path, placement: Placement) -> io::Result<Csr> {
    let region = NvRegion::open(path)?;
    let h = read_header(region.bytes())?;
    if h.flags & (FLAG_COMPRESSED | FLAG_SHARDED) != 0 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "file holds a compressed or sharded graph",
        ));
    }
    let weighted = h.flags & FLAG_WEIGHTED != 0;
    let off_at = HEADER_BYTES;
    let edges_at = off_at + (h.n + 1) * 8;
    let weights_at = (edges_at + h.m * 4).div_ceil(8) * 8;
    let end = if weighted {
        weights_at + h.m * 4
    } else {
        edges_at + h.m * 4
    };
    if region.len() < end {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "file shorter than header claims",
        ));
    }
    let offsets = region.slice::<u64>(off_at, h.n + 1)?;
    let edges = region.slice::<V>(edges_at, h.m)?;
    let weights = if weighted {
        Some(region.slice::<u32>(weights_at, h.m)?)
    } else {
        None
    };
    // Validate untrusted structure before constructing the graph: a corrupt
    // header or offset table must surface as an error, not a panic or an
    // out-of-bounds adjacency.
    if offsets[0] != 0 || *offsets.last().unwrap() != h.m as u64 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "offset table endpoints corrupt",
        ));
    }
    if offsets.windows(2).any(|w| w[0] > w[1]) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "offset table not monotone",
        ));
    }
    if edges.iter().any(|&v| v as usize >= h.target) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "edge target out of range",
        ));
    }
    let (o, e, w) = match placement {
        Placement::Nvram => (
            Storage::Nv(offsets),
            Storage::Nv(edges),
            weights.map(Storage::Nv),
        ),
        Placement::Dram => (
            Storage::from(offsets.to_vec()),
            Storage::from(edges.to_vec()),
            weights.map(|w| Storage::from(w.to_vec())),
        ),
    };
    let mut g = Csr::from_parts(o, e, w, h.block_size.max(64));
    if h.flags & FLAG_SYMMETRIC != 0 {
        g.mark_symmetric();
    }
    Ok(g)
}

/// Load a compressed graph.
pub fn load_compressed(path: &Path, placement: Placement) -> io::Result<CompressedCsr> {
    let region = NvRegion::open(path)?;
    let h = read_header(region.bytes())?;
    if h.flags & FLAG_COMPRESSED == 0 || h.flags & FLAG_SHARDED != 0 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "file does not hold a monolithic compressed graph",
        ));
    }
    let weighted = h.flags & FLAG_WEIGHTED != 0;
    let voff_at = HEADER_BYTES;
    let deg_at = voff_at + (h.n + 1) * 8;
    let data_at = (deg_at + h.n * 4).div_ceil(8) * 8;
    let data_len = h.aux as usize;
    if region.len() < data_at + data_len {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "file shorter than header claims",
        ));
    }
    let voffsets = region.slice::<u64>(voff_at, h.n + 1)?;
    let degrees = region.slice::<u32>(deg_at, h.n)?;
    let data = region.slice::<u8>(data_at, data_len)?;
    if voffsets[0] != 0
        || *voffsets.last().unwrap() != data_len as u64
        || voffsets.windows(2).any(|w| w[0] > w[1])
    {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "vertex offset table corrupt",
        ));
    }
    let deg_sum: u64 = degrees.iter().map(|&d| d as u64).sum();
    if deg_sum != h.m as u64 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("degree sum {deg_sum} disagrees with header m {}", h.m),
        ));
    }
    let (vo, de, da) = match placement {
        Placement::Nvram => (
            Storage::Nv(voffsets),
            Storage::Nv(degrees),
            Storage::Nv(data),
        ),
        Placement::Dram => (
            Storage::from(voffsets.to_vec()),
            Storage::from(degrees.to_vec()),
            Storage::from(data.to_vec()),
        ),
    };
    let hybrid_cutoff = match h.extra {
        0 => HYBRID_DISABLED,
        c if c <= u32::MAX as u64 => c as u32,
        c => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("hybrid cutoff {c} exceeds u32"),
            ))
        }
    };
    let mut g = CompressedCsr::from_parts(
        vo,
        de,
        da,
        h.m,
        weighted,
        h.block_size.max(64),
        hybrid_cutoff,
    );
    // Full structural validation with the strict (checked) decoder: the
    // engine's hot-path decoders are unchecked for speed, so malformed byte
    // streams must be rejected here, before the graph is ever traversed.
    // Shard files bound their (global) edge targets by `h.target`.
    g.validate_with_target(h.target)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    if h.flags & FLAG_SYMMETRIC != 0 {
        g.mark_symmetric();
    }
    Ok(g)
}

/// The file backing shard `i` of the manifest at `path`.
pub fn shard_path(path: &Path, i: usize) -> std::path::PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(format!(".shard{i}"));
    std::path::PathBuf::from(os)
}

/// Write a sharded snapshot: a manifest at `path` (header + the `k+1`-entry
/// shard boundary table) plus one self-contained graph file per shard at
/// [`shard_path`]`(path, i)`. Each shard file records the *global* vertex
/// count in header word 7 so its (global) edge targets validate on load,
/// and is mapped as its own [`NvRegion`] by [`load_sharded`].
pub fn write_sharded(g: &ShardedCsr, path: &Path) -> io::Result<()> {
    let k = g.num_shards();
    let n = g.num_vertices() as u64;
    let flags = FLAG_SHARDED
        | if g.is_weighted() { FLAG_WEIGHTED } else { 0 }
        | if g.is_symmetric() { FLAG_SYMMETRIC } else { 0 };
    let mut out = BufWriter::new(File::create(path)?);
    write_header(
        &mut out,
        flags,
        n,
        g.num_edges() as u64,
        g.block_size() as u64,
        k as u64,
        0,
        0,
    )?;
    write_u64s(&mut out, g.starts())?;
    out.flush()?;
    for s in 0..k {
        let p = shard_path(path, s);
        match g.shard(s) {
            ShardRepr::Plain(c) => write_csr_with_target(c, &p, n)?,
            ShardRepr::Compressed(c) => write_compressed_with_target(c, &p, n)?,
        }
    }
    Ok(())
}

/// Exact 8-byte words [`write_csr`] will emit for `g` (header + offsets +
/// edges, padded, + weights), rounded up to whole words. The publish path
/// gates its write budget on this *before* flushing and meters exactly this
/// many `graph_write` words after.
pub fn csr_file_words(g: &Csr) -> u64 {
    let n = g.num_vertices() as u64;
    let m = g.num_edges() as u64;
    let mut bytes = HEADER_BYTES as u64 + (n + 1) * 8 + m * 4;
    bytes += (8 - bytes % 8) % 8;
    if g.is_weighted() {
        bytes += m * 4;
    }
    bytes.div_ceil(8)
}

/// Exact 8-byte words [`write_compressed`] will emit for `g`, rounded up.
pub fn compressed_file_words(g: &CompressedCsr) -> u64 {
    let (voffsets, degrees, data) = g.parts();
    let mut bytes = HEADER_BYTES as u64 + voffsets.len() as u64 * 8 + degrees.len() as u64 * 4;
    bytes += (8 - bytes % 8) % 8;
    bytes += data.len() as u64;
    bytes.div_ceil(8)
}

/// Exact 8-byte words [`write_sharded`] will emit for `g`: the manifest
/// (header + boundary table) plus every per-shard file.
pub fn sharded_file_words(g: &ShardedCsr) -> u64 {
    let manifest = (HEADER_BYTES as u64 + (g.num_shards() as u64 + 1) * 8).div_ceil(8);
    let shards: u64 = (0..g.num_shards())
        .map(|s| match g.shard(s) {
            ShardRepr::Plain(c) => csr_file_words(c),
            ShardRepr::Compressed(c) => compressed_file_words(c),
        })
        .sum();
    manifest + shards
}

/// Load a sharded snapshot written by [`write_sharded`]. Every shard file
/// becomes its own mapping (or heap copy, under [`Placement::Dram`]); plain
/// and compressed shards may mix freely — each file's own header says which
/// it is.
pub fn load_sharded(path: &Path, placement: Placement) -> io::Result<ShardedCsr> {
    let region = NvRegion::open(path)?;
    let h = read_header(region.bytes())?;
    if h.flags & FLAG_SHARDED == 0 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "file is not a shard manifest",
        ));
    }
    let k = h.aux as usize;
    if k == 0 || region.len() < HEADER_BYTES + (k + 1) * 8 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "shard manifest truncated or empty",
        ));
    }
    let starts = region.slice::<u64>(HEADER_BYTES, k + 1)?.to_vec();
    if starts[0] != 0
        || *starts.last().unwrap() != h.n as u64
        || starts.windows(2).any(|w| w[0] >= w[1])
    {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "shard boundary table corrupt",
        ));
    }
    let weighted = h.flags & FLAG_WEIGHTED != 0;
    let mut shards = Vec::with_capacity(k);
    let mut m_sum = 0usize;
    for s in 0..k {
        let p = shard_path(path, s);
        let sh = load_shard(&p, placement, h.n)?;
        let want_n = (starts[s + 1] - starts[s]) as usize;
        if sh.num_vertices() != want_n {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "shard {s} holds {} vertices, manifest says {want_n}",
                    sh.num_vertices()
                ),
            ));
        }
        if sh.is_weighted() != weighted {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("shard {s} weightedness disagrees with the manifest"),
            ));
        }
        m_sum += sh.num_edges();
        shards.push(sh);
    }
    if m_sum != h.m {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("shard edge counts sum to {m_sum}, manifest says {}", h.m),
        ));
    }
    Ok(ShardedCsr::from_shard_parts(
        shards,
        starts,
        h.m,
        h.block_size.max(64),
        weighted,
        h.flags & FLAG_SYMMETRIC != 0,
    ))
}

/// Load one shard file, whichever representation its header declares, and
/// check that it was written against the expected global id space.
fn load_shard(path: &Path, placement: Placement, global_n: usize) -> io::Result<ShardRepr> {
    let header: Header = {
        let region = NvRegion::open(path)?;
        read_header(region.bytes())?
    };
    if header.target != global_n {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "shard targets id space {} but the manifest covers {global_n} vertices",
                header.target
            ),
        ));
    }
    if header.flags & FLAG_COMPRESSED != 0 {
        Ok(ShardRepr::Compressed(load_compressed(path, placement)?))
    } else {
        Ok(ShardRepr::Plain(load_csr(path, placement)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("sage-graph-io-{}-{}", std::process::id(), name));
        p
    }

    fn graphs_equal(a: &impl Graph, b: &impl Graph) {
        assert_eq!(a.num_vertices(), b.num_vertices());
        assert_eq!(a.num_edges(), b.num_edges());
        for v in 0..a.num_vertices() as V {
            let mut ea = Vec::new();
            a.for_each_edge(v, |u, w| ea.push((u, w)));
            let mut eb = Vec::new();
            b.for_each_edge(v, |u, w| eb.push((u, w)));
            assert_eq!(ea, eb, "vertex {v}");
        }
    }

    #[test]
    fn binary_roundtrip_dram_and_nvram() {
        let g = gen::rmat(9, 8, gen::RmatParams::default(), 11);
        let path = tmp("bin");
        write_csr(&g, &path).unwrap();
        let dram = load_csr(&path, Placement::Dram).unwrap();
        graphs_equal(&g, &dram);
        let nv = load_csr(&path, Placement::Nvram).unwrap();
        assert!(nv.on_nvram());
        graphs_equal(&g, &nv);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn file_words_match_bytes_on_disk() {
        let words = |len: u64| len.div_ceil(8);
        let g = gen::rmat(8, 8, gen::RmatParams::default(), 3);
        let p = tmp("words-csr");
        write_csr(&g, &p).unwrap();
        assert_eq!(
            csr_file_words(&g),
            words(std::fs::metadata(&p).unwrap().len())
        );
        std::fs::remove_file(&p).unwrap();

        let wlist = gen::rmat_edges(8, 8, gen::RmatParams::default(), 5).with_random_weights(7);
        let wg = crate::build_csr(wlist, crate::BuildOptions::default());
        let pw = tmp("words-csrw");
        write_csr(&wg, &pw).unwrap();
        assert_eq!(
            csr_file_words(&wg),
            words(std::fs::metadata(&pw).unwrap().len())
        );
        std::fs::remove_file(&pw).unwrap();

        let c = CompressedCsr::from_csr(&g, 64);
        let pc = tmp("words-comp");
        write_compressed(&c, &pc).unwrap();
        assert_eq!(
            compressed_file_words(&c),
            words(std::fs::metadata(&pc).unwrap().len())
        );
        std::fs::remove_file(&pc).unwrap();

        let s = ShardedCsr::from_csr(&g, 3);
        let ps = tmp("words-shard");
        write_sharded(&s, &ps).unwrap();
        let mut on_disk = words(std::fs::metadata(&ps).unwrap().len());
        for i in 0..s.num_shards() {
            on_disk += words(std::fs::metadata(shard_path(&ps, i)).unwrap().len());
            std::fs::remove_file(shard_path(&ps, i)).unwrap();
        }
        assert_eq!(sharded_file_words(&s), on_disk);
        std::fs::remove_file(&ps).unwrap();
    }

    #[test]
    fn binary_roundtrip_weighted() {
        let list = gen::rmat_edges(8, 8, gen::RmatParams::default(), 1).with_random_weights(2);
        let g = crate::build_csr(list, crate::BuildOptions::default());
        let path = tmp("binw");
        write_csr(&g, &path).unwrap();
        let back = load_csr(&path, Placement::Nvram).unwrap();
        assert!(back.is_weighted());
        graphs_equal(&g, &back);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn compressed_roundtrip() {
        let g = gen::rmat(9, 8, gen::RmatParams::web(), 4);
        let c = CompressedCsr::from_csr(&g, 128);
        let path = tmp("binc");
        write_compressed(&c, &path).unwrap();
        let nv = load_compressed(&path, Placement::Nvram).unwrap();
        assert!(nv.on_nvram());
        assert_eq!(nv.block_size(), 128);
        graphs_equal(&c, &nv);
        graphs_equal(&g, &nv);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn symmetry_flag_roundtrips() {
        // Symmetrized graph: the flag must survive write -> load so mmap'd
        // graphs keep the dense edgeMap direction.
        let g = gen::rmat(8, 8, gen::RmatParams::default(), 21);
        assert!(g.is_symmetric());
        let path = tmp("sym");
        write_csr(&g, &path).unwrap();
        assert!(load_csr(&path, Placement::Nvram).unwrap().is_symmetric());
        std::fs::remove_file(&path).unwrap();
        // Directed graph: no flag, loads as asymmetric.
        let d = crate::build_csr(
            crate::EdgeList::new(3, vec![(0, 1), (1, 2)]),
            crate::BuildOptions {
                symmetrize: false,
                ..Default::default()
            },
        );
        assert!(!d.is_symmetric());
        let path = tmp("asym");
        write_csr(&d, &path).unwrap();
        assert!(!load_csr(&path, Placement::Dram).unwrap().is_symmetric());
        std::fs::remove_file(&path).unwrap();
        // Compressed roundtrip keeps the flag too.
        let c = CompressedCsr::from_csr(&g, 64);
        assert!(c.is_symmetric());
        let path = tmp("symc");
        write_compressed(&c, &path).unwrap();
        assert!(load_compressed(&path, Placement::Nvram)
            .unwrap()
            .is_symmetric());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn wrong_kind_rejected() {
        let g = gen::path(10);
        let pc = tmp("kind-c");
        write_csr(&g, &pc).unwrap();
        assert!(load_compressed(&pc, Placement::Dram).is_err());
        std::fs::remove_file(&pc).unwrap();
    }

    #[test]
    fn truncated_file_rejected() {
        let g = gen::rmat(8, 8, gen::RmatParams::default(), 3);
        let path = tmp("trunc");
        write_csr(&g, &path).unwrap();
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() / 2]).unwrap();
        assert!(load_csr(&path, Placement::Nvram).is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn hybrid_cutoff_roundtrips() {
        // A star forces one raw hybrid region; the cutoff must survive the
        // header (word 6) and the loaded graph must decode identically.
        let g = gen::star(600);
        let c = CompressedCsr::from_csr_with(&g, 64, 64);
        assert_eq!(c.hybrid_vertices(), 1);
        let path = tmp("hyb");
        write_compressed(&c, &path).unwrap();
        let back = load_compressed(&path, Placement::Nvram).unwrap();
        assert_eq!(back.hybrid_cutoff(), 64);
        assert_eq!(back.hybrid_vertices(), 1);
        graphs_equal(&c, &back);
        std::fs::remove_file(&path).unwrap();
        // Pure-varint files store 0 and load with the hybrid disabled.
        let pure = CompressedCsr::from_csr_with(&g, 64, crate::compressed::HYBRID_DISABLED);
        let path = tmp("hyb-off");
        write_compressed(&pure, &path).unwrap();
        let back = load_compressed(&path, Placement::Dram).unwrap();
        assert_eq!(back.hybrid_cutoff(), crate::compressed::HYBRID_DISABLED);
        graphs_equal(&pure, &back);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_compressed_payload_rejected() {
        let g = gen::rmat(8, 8, gen::RmatParams::web(), 9);
        let c = CompressedCsr::from_csr(&g, 64);
        let path = tmp("corrupt");
        write_compressed(&c, &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // Overwrite the start of the encoded data stream (vertex 0's region,
        // after header + voffsets + degrees + pad) with continuation bytes:
        // its first varint now runs past every bound the decoder trusts.
        let n = c.num_vertices();
        let data_at = (HEADER_BYTES + (n + 1) * 8 + n * 4).div_ceil(8) * 8;
        for b in &mut bytes[data_at..data_at + 4] {
            *b = 0x80;
        }
        std::fs::write(&path, &bytes).unwrap();
        let err = load_compressed(&path, Placement::Nvram).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn sharded_roundtrip_plain_and_compressed() {
        let g = gen::rmat(9, 8, gen::RmatParams::web(), 17);
        for (name, sharded) in [
            ("shard-plain", ShardedCsr::from_csr(&g, 3)),
            ("shard-comp", ShardedCsr::from_csr_compressed(&g, 3, 64, 64)),
        ] {
            let path = tmp(name);
            write_sharded(&sharded, &path).unwrap();
            let nv = load_sharded(&path, Placement::Nvram).unwrap();
            assert!(nv.on_nvram());
            assert_eq!(nv.num_shards(), sharded.num_shards());
            assert_eq!(nv.starts(), sharded.starts());
            assert!(nv.is_symmetric());
            graphs_equal(&g, &nv);
            let dram = load_sharded(&path, Placement::Dram).unwrap();
            assert!(!dram.on_nvram());
            graphs_equal(&g, &dram);
            for s in 0..sharded.num_shards() {
                std::fs::remove_file(shard_path(&path, s)).unwrap();
            }
            std::fs::remove_file(&path).unwrap();
        }
    }

    #[test]
    fn sharded_weighted_roundtrip() {
        let list = gen::rmat_edges(8, 8, gen::RmatParams::default(), 14).with_random_weights(9);
        let g = crate::build_csr(list, crate::BuildOptions::default());
        let sharded = ShardedCsr::from_csr(&g, 4);
        let path = tmp("shard-w");
        write_sharded(&sharded, &path).unwrap();
        let back = load_sharded(&path, Placement::Nvram).unwrap();
        assert!(back.is_weighted());
        graphs_equal(&g, &back);
        for s in 0..sharded.num_shards() {
            std::fs::remove_file(shard_path(&path, s)).unwrap();
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn sharded_corruption_rejected() {
        let g = gen::rmat(8, 8, gen::RmatParams::default(), 8);
        let sharded = ShardedCsr::from_csr(&g, 2);
        let path = tmp("shard-bad");
        write_sharded(&sharded, &path).unwrap();
        // A missing shard file fails the load.
        let s1 = shard_path(&path, 1);
        let bytes = std::fs::read(&s1).unwrap();
        std::fs::remove_file(&s1).unwrap();
        assert!(load_sharded(&path, Placement::Nvram).is_err());
        // A shard written against the wrong global id space is rejected:
        // re-point shard 1 at a monolithic file (target word 0 -> local n).
        match sharded.shard(1) {
            ShardRepr::Plain(c) => write_csr(c, &s1).unwrap(),
            ShardRepr::Compressed(_) => unreachable!(),
        }
        let err = load_sharded(&path, Placement::Nvram).unwrap_err();
        assert!(err.to_string().contains("id space"), "{err}");
        std::fs::write(&s1, &bytes).unwrap();
        // The manifest itself rejects monolithic loaders, and vice versa.
        assert!(load_csr(&path, Placement::Nvram).is_err());
        assert!(load_compressed(&path, Placement::Nvram).is_err());
        assert!(load_sharded(&s1, Placement::Nvram).is_err());
        for s in 0..sharded.num_shards() {
            std::fs::remove_file(shard_path(&path, s)).unwrap();
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn garbage_magic_rejected() {
        let path = tmp("magic");
        std::fs::write(&path, vec![0xABu8; 256]).unwrap();
        assert!(load_csr(&path, Placement::Dram).is_err());
        std::fs::remove_file(&path).unwrap();
    }
}
