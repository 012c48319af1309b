//! End-to-end test of the tracking allocator, installed as the global
//! allocator of this test binary.

use sage_nvram::alloc_track::{self, TrackingAlloc};

#[global_allocator]
static ALLOC: TrackingAlloc = TrackingAlloc;

// The byte counters are process-wide, so each test's measurement must not
// overlap a sibling's allocations. A poisoned lock is fine to reuse: one
// test's failure must not cascade into the others.
static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[test]
fn peak_reflects_large_allocation() {
    let _serial = serial();
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

#[test]
fn current_tracks_alloc_and_free() {
    let _serial = serial();
    let before = alloc_track::current_bytes();
    let v: Vec<u64> = Vec::with_capacity(1 << 16);
    let held = alloc_track::current_bytes();
    assert!(held >= before + ((1u64 << 16) * 8));
    drop(v);
    assert!(alloc_track::current_bytes() < held);
}
