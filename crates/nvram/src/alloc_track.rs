//! A global-allocator shim that tracks current and peak heap usage.
//!
//! Table 5 of the paper reports the total DRAM usage of BFS under
//! `edgeMapSparse` / `edgeMapBlocked` / `edgeMapChunked`. The benchmark
//! harness installs [`TrackingAlloc`] as its `#[global_allocator]` and
//! brackets each run with [`reset_peak`] / [`peak_bytes`].
//!
//! The shim adds two relaxed atomic operations per allocation, which is
//! negligible next to the graph workloads being measured.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static CURRENT: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

/// Heap-tracking allocator; delegate every operation to [`System`].
pub struct TrackingAlloc;

#[inline]
fn add(bytes: usize) {
    // ORDERING: Relaxed — pure statistics counters: no other memory is
    // published through them, and the harness reads them from the same
    // thread after the measured phase (whose fork-join barrier orders any
    // cross-thread increments).
    let cur = CURRENT.fetch_add(bytes as u64, Ordering::Relaxed) + bytes as u64;
    // Update the peak with a CAS loop; contention is rare.
    // ORDERING: Relaxed — monotonic max; the CAS retry loop only needs the
    // atomicity of each exchange, not inter-variable ordering.
    let mut peak = PEAK.load(Ordering::Relaxed);
    while cur > peak {
        // ORDERING: Relaxed — see the peak-loop note above.
        match PEAK.compare_exchange_weak(peak, cur, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => break,
            Err(p) => peak = p,
        }
    }
}

#[inline]
fn sub(bytes: usize) {
    // ORDERING: Relaxed — statistics counter; see `add`.
    CURRENT.fetch_sub(bytes as u64, Ordering::Relaxed);
}

// SAFETY: delegates to System and only adds counter bookkeeping.
unsafe impl GlobalAlloc for TrackingAlloc {
    // SAFETY: all four methods forward verbatim to `System` and only add
    // counter bookkeeping, so `System`'s contract is preserved unchanged.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded verbatim to System; our caller's obligations
        // (valid layout) are exactly System's.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            add(layout.size());
        }
        p
    }

    // SAFETY: see the note on `alloc` above.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim to System; `ptr`/`layout` validity is
        // our caller's obligation, unchanged.
        unsafe { System.dealloc(ptr, layout) };
        sub(layout.size());
    }

    // SAFETY: see the note on `alloc` above.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded verbatim to System, as in `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            add(layout.size());
        }
        p
    }

    // SAFETY: see the note on `alloc` above.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded verbatim to System, as in `alloc`.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            sub(layout.size());
            add(new_size);
        }
        p
    }
}

/// Bytes currently allocated (only meaningful when [`TrackingAlloc`] is the
/// process global allocator).
pub fn current_bytes() -> u64 {
    // ORDERING: Relaxed — statistics read; see `add`.
    CURRENT.load(Ordering::Relaxed)
}

/// High-water mark since the last [`reset_peak`].
pub fn peak_bytes() -> u64 {
    // ORDERING: Relaxed — statistics read; see `add`.
    PEAK.load(Ordering::Relaxed)
}

/// Reset the high-water mark to the current usage.
pub fn reset_peak() {
    // ORDERING: Relaxed — bracketing call made on the measuring thread
    // between phases; see `add`.
    PEAK.store(CURRENT.load(Ordering::Relaxed), Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    // These tests exercise the counter arithmetic directly; end-to-end
    // behaviour with the allocator installed is covered by the crate's
    // integration test (tests/alloc_integration.rs), because a global
    // allocator can only be registered once per binary.
    //
    // Both move the process-wide counters and one asserts an exact delta, so
    // they hold one lock (poison is ignored: a failure must not cascade).
    static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn serial() -> std::sync::MutexGuard<'static, ()> {
        SERIAL
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn add_sub_and_peak() {
        let _serial = serial();
        let base_cur = current_bytes();
        let before_peak = peak_bytes();
        add(1000);
        add(500);
        sub(200);
        assert_eq!(current_bytes() - base_cur, 1300);
        assert!(peak_bytes() >= before_peak);
        assert!(peak_bytes() >= base_cur + 1500);
        sub(1300);
        assert_eq!(current_bytes(), base_cur);
    }

    #[test]
    fn reset_peak_tracks_from_current() {
        let _serial = serial();
        add(64);
        reset_peak();
        let p = peak_bytes();
        add(128);
        assert!(peak_bytes() >= p + 128);
        sub(128);
        sub(64);
    }
}
