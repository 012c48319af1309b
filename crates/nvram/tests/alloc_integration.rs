//! End-to-end test of the tracking allocator, installed as the global
//! allocator of this test binary.

use sage_nvram::alloc_track::{self, TrackingAlloc};

#[global_allocator]
static ALLOC: TrackingAlloc = TrackingAlloc;

// The byte counters are process-wide, so a measurement must not overlap
// any other allocation — a sibling test's or the test harness's own: this
// is a `harness = false` binary whose `main` runs the cases one after
// another on the main thread.
#[path = "serial/mod.rs"]
mod serial;

fn peak_reflects_large_allocation() {
    alloc_track::reset_peak();
    let before = alloc_track::peak_bytes();
    let v: Vec<u8> = vec![1; 8 << 20]; // 8 MiB
    let after = alloc_track::peak_bytes();
    assert!(
        after >= before + (8 << 20) as u64,
        "peak {before} -> {after}"
    );
    drop(v);
    // Current usage returns to (roughly) what it was; peak stays.
    assert!(alloc_track::peak_bytes() >= before + (8 << 20) as u64);
}

fn current_tracks_alloc_and_free() {
    let before = alloc_track::current_bytes();
    let v: Vec<u64> = Vec::with_capacity(1 << 16);
    let held = alloc_track::current_bytes();
    assert!(held >= before + ((1u64 << 16) * 8));
    drop(v);
    assert!(alloc_track::current_bytes() < held);
}

fn main() {
    serial::run(&[
        (
            "peak_reflects_large_allocation",
            peak_reflects_large_allocation,
        ),
        (
            "current_tracks_alloc_and_free",
            current_tracks_alloc_and_free,
        ),
    ]);
}
