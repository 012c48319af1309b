//! Data-parallel building blocks: loops, maps, reductions, prefix sums, and
//! filter/pack — the primitives defined in §2 of the paper.
//!
//! All of them are built on binary [`join`] recursion, so their depth is
//! `O(log n)` (times the grain) as assumed by the PSAM analyses.

use crate::pool::join;
use crate::DEFAULT_GRAIN;

/// A raw pointer wrapper that asserts cross-thread shareability.
///
/// Used to scatter results into disjoint slots of a pre-sized buffer from a
/// parallel loop. The caller must guarantee that distinct iterations write
/// disjoint locations.
pub struct SendPtr<T>(pub *mut T);

impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SendPtr<T> {}

// SAFETY: SendPtr is a capability to write disjoint slots from multiple
// threads; the disjointness obligation is on every construction site.
unsafe impl<T: Send> Send for SendPtr<T> {}
// SAFETY: same argument as Send — shared copies still target disjoint slots.
unsafe impl<T: Send> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// Pointer to slot `i`.
    ///
    /// # Safety
    /// `i` must be in bounds of the allocation this pointer was derived from,
    /// and no two threads may touch the same slot.
    #[inline]
    pub unsafe fn add(self, i: usize) -> *mut T {
        // SAFETY: in-bounds per this method's own `# Safety` contract.
        unsafe { self.0.add(i) }
    }
}

/// Grain used when the caller passes `grain == 0`: splits the range into
/// roughly `8 x num_threads` pieces, bounded below to amortize task overhead.
#[inline]
pub(crate) fn auto_grain(n: usize) -> usize {
    let pieces = 8 * crate::pool::num_threads();
    (n / pieces.max(1)).clamp(1, DEFAULT_GRAIN)
}

/// Parallel loop over `lo..hi` with an explicit sequential grain.
pub fn par_for_grain<F>(lo: usize, hi: usize, grain: usize, f: F)
where
    F: Fn(usize) + Sync,
{
    if lo >= hi {
        return;
    }
    let grain = if grain == 0 {
        auto_grain(hi - lo)
    } else {
        grain
    };
    fn go<F: Fn(usize) + Sync>(lo: usize, hi: usize, grain: usize, f: &F) {
        if hi - lo <= grain {
            for i in lo..hi {
                f(i);
            }
        } else {
            let mid = lo + (hi - lo) / 2;
            join(|| go(lo, mid, grain, f), || go(mid, hi, grain, f));
        }
    }
    go(lo, hi, grain, &f);
}

/// Parallel loop over `lo..hi` with automatic grain selection.
#[inline]
pub fn par_for<F>(lo: usize, hi: usize, f: F)
where
    F: Fn(usize) + Sync,
{
    par_for_grain(lo, hi, 0, f)
}

/// Parallel in-place update of a mutable slice: `f(i, &mut slice[i])`.
pub fn par_for_slices<T: Send, F>(slice: &mut [T], f: F)
where
    F: Fn(usize, &mut T) + Sync,
{
    let ptr = SendPtr(slice.as_mut_ptr());
    par_for(0, slice.len(), |i| {
        // SAFETY: iterations touch disjoint indices of `slice`.
        let slot = unsafe { &mut *ptr.add(i) };
        f(i, slot);
    });
}

/// Build a `Vec` of length `n` where element `i` is `f(i)`, in parallel.
pub fn par_map_grain<T: Send, F>(n: usize, grain: usize, f: F) -> Vec<T>
where
    F: Fn(usize) -> T + Sync,
{
    let mut out: Vec<T> = Vec::with_capacity(n);
    let ptr = SendPtr(out.as_mut_ptr());
    par_for_grain(0, n, grain, |i| {
        // SAFETY: each index is written exactly once into the reserved buffer.
        unsafe { ptr.add(i).write(f(i)) };
    });
    // SAFETY: all n slots were initialized above.
    unsafe { out.set_len(n) };
    out
}

/// [`par_map_grain`] with automatic grain.
#[inline]
pub fn par_map<T: Send, F>(n: usize, f: F) -> Vec<T>
where
    F: Fn(usize) -> T + Sync,
{
    par_map_grain(n, 0, f)
}

/// Fill a slice with copies of `value` in parallel.
pub fn par_fill<T: Copy + Send + Sync>(slice: &mut [T], value: T) {
    par_for_slices(slice, |_, slot| *slot = value);
}

/// Copy `src` into `dst` in parallel. Panics if lengths differ.
pub fn par_copy<T: Copy + Send + Sync>(dst: &mut [T], src: &[T]) {
    assert_eq!(dst.len(), src.len(), "par_copy length mismatch");
    let ptr = SendPtr(dst.as_mut_ptr());
    // SAFETY: `i` ranges over `dst`'s indices (lengths asserted equal) and
    // each index is written by exactly one iteration.
    par_for(0, src.len(), |i| unsafe { ptr.add(i).write(src[i]) });
}

/// Generic parallel reduction over `lo..hi`: combines `map(i)` with `comb`.
///
/// `comb` must be associative; `id` its identity.
pub fn reduce_map<T, M, C>(lo: usize, hi: usize, grain: usize, id: T, map: M, comb: C) -> T
where
    T: Send + Sync + Clone,
    M: Fn(usize) -> T + Sync,
    C: Fn(T, T) -> T + Sync + Send,
{
    if lo >= hi {
        return id;
    }
    let grain = if grain == 0 {
        auto_grain(hi - lo)
    } else {
        grain
    };
    fn go<T, M, C>(lo: usize, hi: usize, grain: usize, id: &T, map: &M, comb: &C) -> T
    where
        T: Send + Sync + Clone,
        M: Fn(usize) -> T + Sync,
        C: Fn(T, T) -> T + Sync + Send,
    {
        if hi - lo <= grain {
            let mut acc = id.clone();
            for i in lo..hi {
                acc = comb(acc, map(i));
            }
            acc
        } else {
            let mid = lo + (hi - lo) / 2;
            let (a, b) = join(
                || go(lo, mid, grain, id, map, comb),
                || go(mid, hi, grain, id, map, comb),
            );
            comb(a, b)
        }
    }
    go(lo, hi, grain, &id, &map, &comb)
}

/// Parallel sum of `map(i)` over `lo..hi`.
#[inline]
pub fn reduce_add<M>(lo: usize, hi: usize, map: M) -> u64
where
    M: Fn(usize) -> u64 + Sync,
{
    reduce_map(lo, hi, 0, 0u64, map, |a, b| a + b)
}

/// Parallel maximum of `map(i)`; returns `id` for an empty range.
#[inline]
pub fn reduce_max<T, M>(lo: usize, hi: usize, id: T, map: M) -> T
where
    T: Send + Sync + Clone + PartialOrd,
    M: Fn(usize) -> T + Sync,
{
    reduce_map(lo, hi, 0, id, map, |a, b| if b > a { b } else { a })
}

/// Parallel minimum of `map(i)`; returns `id` for an empty range.
#[inline]
pub fn reduce_min<T, M>(lo: usize, hi: usize, id: T, map: M) -> T
where
    T: Send + Sync + Clone + PartialOrd,
    M: Fn(usize) -> T + Sync,
{
    reduce_map(lo, hi, 0, id, map, |a, b| if b < a { b } else { a })
}

/// Parallel bitwise-OR reduction of `map(i)` over `lo..hi`.
///
/// The workhorse of bit-parallel multi-source traversals: OR-ing per-vertex
/// `u64` source masks answers "which sources touched anything in this range"
/// in one `O(n)` pass with `O(log n)` depth.
#[inline]
pub fn reduce_or<M>(lo: usize, hi: usize, map: M) -> u64
where
    M: Fn(usize) -> u64 + Sync,
{
    reduce_map(lo, hi, 0, 0u64, map, |a, b| a | b)
}

/// Parallel population count over a slice of `u64` masks: the total number of
/// set bits. Used to apportion batched-traversal costs by touched-word
/// shares (each set bit of a visited-mask is one source reaching one vertex).
#[inline]
pub fn count_ones(masks: &[u64]) -> u64 {
    reduce_add(0, masks.len(), |i| masks[i].count_ones() as u64)
}

/// Per-bit population counts over a slice of `u64` masks: `out[b]` is the
/// number of mask words with bit `b` set. One pass over the data, combining
/// 64-counter partial histograms up the reduction tree — the share vector a
/// batched multi-source traversal splits its metered cost by.
pub fn count_ones_per_bit(masks: &[u64]) -> [u64; 64] {
    #[derive(Clone)]
    struct Counts([u64; 64]);
    let id = Counts([0u64; 64]);
    let combined = reduce_map(
        0,
        masks.len(),
        0,
        id,
        |i| {
            let mut c = [0u64; 64];
            let mut m = masks[i];
            while m != 0 {
                let b = m.trailing_zeros() as usize;
                c[b] += 1;
                m &= m - 1;
            }
            Counts(c)
        },
        |mut a, b| {
            for (x, y) in a.0.iter_mut().zip(b.0.iter()) {
                *x += y;
            }
            a
        },
    );
    combined.0
}

/// Exclusive prefix sum with a generic associative operator.
///
/// Replaces `data[i]` with `id ⊕ data[0] ⊕ … ⊕ data[i-1]` and returns the
/// total, exactly the Scan of §2. Two-pass blocked implementation:
/// `O(n)` work, `O(log n)` depth.
pub fn scan_with<T, F>(data: &mut [T], id: T, op: F) -> T
where
    T: Copy + Send + Sync,
    F: Fn(T, T) -> T + Sync + Send,
{
    let n = data.len();
    if n == 0 {
        return id;
    }
    let block = DEFAULT_GRAIN.max(n.div_ceil(8 * crate::pool::num_threads()).max(1));
    let nblocks = n.div_ceil(block);
    if nblocks <= 1 {
        let mut acc = id;
        for x in data.iter_mut() {
            let next = op(acc, *x);
            *x = acc;
            acc = next;
        }
        return acc;
    }
    // Pass 1: per-block totals.
    let mut sums: Vec<T> = par_map(nblocks, |b| {
        let lo = b * block;
        let hi = ((b + 1) * block).min(n);
        let mut acc = id;
        for x in &data[lo..hi] {
            acc = op(acc, *x);
        }
        acc
    });
    // Sequential scan over block totals (few blocks).
    let mut acc = id;
    for s in sums.iter_mut() {
        let next = op(acc, *s);
        *s = acc;
        acc = next;
    }
    let total = acc;
    // Pass 2: rewrite each block with its offset.
    let ptr = SendPtr(data.as_mut_ptr());
    let sums_ref = &sums;
    par_for_grain(0, nblocks, 1, |b| {
        let lo = b * block;
        let hi = ((b + 1) * block).min(n);
        let mut acc = sums_ref[b];
        for i in lo..hi {
            // SAFETY: blocks are disjoint index ranges.
            unsafe {
                let slot = ptr.add(i);
                let next = op(acc, *slot);
                *slot = acc;
                acc = next;
            }
        }
    });
    total
}

/// Exclusive prefix sum with `+` over unsigned 64-bit values.
#[inline]
pub fn scan_add(data: &mut [u64]) -> u64 {
    scan_with(data, 0, |a, b| a + b)
}

/// Return the indices `i in 0..n` for which `pred(i)` holds, in order —
/// the Filter of §2 applied to the identity sequence.
pub fn pack_index(n: usize, pred: impl Fn(usize) -> bool + Sync) -> Vec<u32> {
    let block = DEFAULT_GRAIN.max(n.div_ceil(8 * crate::pool::num_threads()).max(1));
    let nblocks = n.div_ceil(block);
    if nblocks <= 1 {
        return (0..n).filter(|&i| pred(i)).map(|i| i as u32).collect();
    }
    let mut counts: Vec<u64> = par_map_grain(nblocks, 1, |b| {
        let lo = b * block;
        let hi = ((b + 1) * block).min(n);
        (lo..hi).filter(|&i| pred(i)).count() as u64
    });
    let total = scan_add(&mut counts) as usize;
    let mut out: Vec<u32> = Vec::with_capacity(total);
    let ptr = SendPtr(out.as_mut_ptr());
    let counts_ref = &counts;
    par_for_grain(0, nblocks, 1, |b| {
        let lo = b * block;
        let hi = ((b + 1) * block).min(n);
        let mut at = counts_ref[b] as usize;
        for i in lo..hi {
            if pred(i) {
                // SAFETY: slots [counts[b], counts[b+1]) are owned by block b.
                unsafe { ptr.add(at).write(i as u32) };
                at += 1;
            }
        }
    });
    // SAFETY: exactly `total` slots were written.
    unsafe { out.set_len(total) };
    out
}

/// Keep the elements of `input` satisfying `pred`, preserving order —
/// the Filter of §2.
pub fn filter_slice<T: Copy + Send + Sync>(
    input: &[T],
    pred: impl Fn(&T) -> bool + Sync,
) -> Vec<T> {
    let n = input.len();
    let block = DEFAULT_GRAIN.max(n.div_ceil(8 * crate::pool::num_threads()).max(1));
    let nblocks = n.div_ceil(block);
    if nblocks <= 1 {
        return input.iter().copied().filter(|x| pred(x)).collect();
    }
    let mut counts: Vec<u64> = par_map_grain(nblocks, 1, |b| {
        let lo = b * block;
        let hi = ((b + 1) * block).min(n);
        input[lo..hi].iter().filter(|x| pred(x)).count() as u64
    });
    let total = scan_add(&mut counts) as usize;
    let mut out: Vec<T> = Vec::with_capacity(total);
    let ptr = SendPtr(out.as_mut_ptr());
    let counts_ref = &counts;
    par_for_grain(0, nblocks, 1, |b| {
        let lo = b * block;
        let hi = ((b + 1) * block).min(n);
        let mut at = counts_ref[b] as usize;
        for x in &input[lo..hi] {
            if pred(x) {
                // SAFETY: disjoint output ranges per block.
                unsafe { ptr.add(at).write(*x) };
                at += 1;
            }
        }
    });
    // SAFETY: exactly `total` slots were written.
    unsafe { out.set_len(total) };
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn par_for_visits_every_index_once() {
        let n = 10_000;
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        par_for(0, n, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn par_for_empty_and_tiny() {
        par_for(5, 5, |_| panic!("must not run"));
        let c = AtomicUsize::new(0);
        par_for(0, 1, |_| {
            c.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(c.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn par_map_matches_sequential() {
        let v = par_map(5000, |i| i * 3);
        assert!(v.iter().enumerate().all(|(i, &x)| x == i * 3));
    }

    #[test]
    fn par_map_zero_len() {
        let v: Vec<usize> = par_map(0, |i| i);
        assert!(v.is_empty());
    }

    #[test]
    fn par_fill_and_copy() {
        let mut a = vec![0u32; 4096];
        par_fill(&mut a, 7);
        assert!(a.iter().all(|&x| x == 7));
        let mut b = vec![0u32; 4096];
        par_copy(&mut b, &a);
        assert_eq!(a, b);
    }

    #[test]
    fn reduce_add_matches() {
        let n = 100_000;
        assert_eq!(
            reduce_add(0, n, |i| i as u64),
            (n as u64 - 1) * n as u64 / 2
        );
    }

    #[test]
    fn reduce_min_max() {
        let data: Vec<i64> = (0..5000)
            .map(|i| ((i * 2654435761u64 as usize) % 999) as i64)
            .collect();
        let mx = reduce_max(0, data.len(), i64::MIN, |i| data[i]);
        let mn = reduce_min(0, data.len(), i64::MAX, |i| data[i]);
        assert_eq!(mx, *data.iter().max().unwrap());
        assert_eq!(mn, *data.iter().min().unwrap());
    }

    #[test]
    fn reduce_or_unions_masks() {
        let masks: Vec<u64> = (0..10_000).map(|i| 1u64 << (i % 64)).collect();
        assert_eq!(reduce_or(0, masks.len(), |i| masks[i]), u64::MAX);
        assert_eq!(reduce_or(0, 3, |i| masks[i]), 0b111);
        assert_eq!(reduce_or(5, 5, |_| u64::MAX), 0);
    }

    #[test]
    fn count_ones_matches_sequential() {
        let masks: Vec<u64> = (0..50_000u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect();
        let want: u64 = masks.iter().map(|m| m.count_ones() as u64).sum();
        assert_eq!(count_ones(&masks), want);
        assert_eq!(count_ones(&[]), 0);
    }

    #[test]
    fn count_ones_per_bit_matches_sequential() {
        let masks: Vec<u64> = (0..30_000u64)
            .map(|i| i.wrapping_mul(0xD134_2543_DE82_EF95))
            .collect();
        let got = count_ones_per_bit(&masks);
        for (b, &count) in got.iter().enumerate() {
            let want = masks.iter().filter(|&&m| m & (1 << b) != 0).count() as u64;
            assert_eq!(count, want, "bit {b}");
        }
        let total: u64 = got.iter().sum();
        assert_eq!(total, count_ones(&masks));
    }

    #[test]
    fn reduce_empty_range_returns_identity() {
        assert_eq!(reduce_add(3, 3, |_| 1), 0);
        assert_eq!(reduce_max(3, 3, -5i64, |_| 100), -5);
    }

    #[test]
    fn scan_add_matches_sequential() {
        for n in [0usize, 1, 2, 100, 4096, 10_001, 100_000] {
            let orig: Vec<u64> = (0..n as u64).map(|i| i % 17).collect();
            let mut v = orig.clone();
            let total = scan_add(&mut v);
            let mut acc = 0u64;
            for i in 0..n {
                assert_eq!(v[i], acc, "index {i} of n={n}");
                acc += orig[i];
            }
            assert_eq!(total, acc);
        }
    }

    #[test]
    fn scan_with_max_operator() {
        let mut v = vec![3u64, 1, 4, 1, 5, 9, 2, 6];
        let total = scan_with(&mut v, 0, |a, b| a.max(b));
        assert_eq!(v, vec![0, 3, 3, 4, 4, 5, 9, 9]);
        assert_eq!(total, 9);
    }

    #[test]
    fn pack_index_matches_sequential() {
        let n = 50_000;
        let got = pack_index(n, |i| i % 7 == 0);
        let want: Vec<u32> = (0..n).filter(|i| i % 7 == 0).map(|i| i as u32).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn pack_index_none_and_all() {
        assert!(pack_index(1000, |_| false).is_empty());
        assert_eq!(pack_index(1000, |_| true).len(), 1000);
    }

    #[test]
    fn filter_slice_preserves_order() {
        let data: Vec<u32> = (0..30_000)
            .map(|i| (i as u32).wrapping_mul(2654435761))
            .collect();
        let got = filter_slice(&data, |&x| x % 3 == 0);
        let want: Vec<u32> = data.iter().copied().filter(|x| x % 3 == 0).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn par_for_slices_disjoint_writes() {
        let mut v = vec![0usize; 9999];
        par_for_slices(&mut v, |i, x| *x = i + 1);
        assert!(v.iter().enumerate().all(|(i, &x)| x == i + 1));
    }
}
