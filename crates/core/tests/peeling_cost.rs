//! Meter-based regression test for the per-round cost of peeling.
//!
//! The paper reports 130,728 peeling rounds for k-core on Hyperlink2012
//! (§4.3.4), so any Θ(n) term *per round* is an asymptotic bug — an O(n)
//! allocate/zero/pack inside the histogram, or bucket moves that rescan the
//! structure. This test drives k-core-shaped rounds over a large structure
//! and asserts, via the PSAM meter plus the histogram's own work counter,
//! that the auxiliary work is proportional to the peeled neighborhood —
//! o(n) — and that the dense scratch was allocated exactly once.
//!
//! Two rounds, one on each side of the engine's cutoffs: a *small* one that
//! the histogram counts inline and the buckets apply inline (what almost
//! every round of a real peel is), and one sized from [`SEQ_BATCH`] that
//! provably takes the parallel histogram and the parallel batch path (the
//! path counters say so). Each round's words are read from its own
//! `MeterScope`, and the test is alone in its binary, so no concurrently
//! running test moves the path counters.

use sage_core::bucket::{self, Buckets, Order, Packing, SEQ_BATCH};
use sage_graph::V;
use sage_nvram::{meter, MeterScope};
use sage_parallel::{hash64, histogram, Histogram};

/// Neighbors emitted per peeled vertex.
const FANOUT: usize = 4;

#[test]
fn peeling_rounds_perform_sublinear_aux_work_on_both_paths() {
    let n = 1usize << 21; // vertices in the structure
    let small = 96; // first bucket: far below every cutoff
    let large = 2 * SEQ_BATCH; // second bucket: ≥ SEQ_BATCH moves come out of it
    let peeled = small + large;
    let far = 50_000u64; // everyone else sits far out in the overflow

    // k-core shape: small lowest buckets, the bulk far away.
    let mut buckets = Buckets::new(n, Order::Increasing, Packing::SemiEager, |v| {
        Some(match v as usize {
            v if v < small => 1,
            v if v < peeled => 2,
            _ => far,
        })
    });
    // Round-structured histogram (what kcore holds), warmed once — the first
    // call is allowed to pay the O(n) scratch allocation.
    let mut hist = Histogram::new();
    let _ = hist.count(1, 1, n, |_, emit| emit(0));
    assert!(hist.last_work() >= n as u64, "first call pays the alloc");
    assert_eq!(hist.dense_allocations(), 1);

    for (key, len, parallel) in [(1, small, false), (2, large, true)] {
        let hist_paths = histogram::path_calls();
        let bucket_paths = bucket::path_calls();
        // ---- One peeling round, fully metered. ----
        let scope = MeterScope::new();
        let (total_keys, moves) = scope.enter(|| {
            let (k, ids) = buckets.next_bucket().expect("low buckets first");
            assert_eq!((k, ids.len()), (key, len));

            // Histogram of a synthetic peeled neighborhood (FANOUT unpeeled
            // neighbors per peeled vertex), exactly how kcore accounts it.
            let total_keys = FANOUT * ids.len();
            let counts = hist.count(ids.len(), total_keys, n, |i, emit| {
                for j in 0..FANOUT as u64 {
                    let u = hash64(ids[i] as u64 * FANOUT as u64 + j) % (n - peeled) as u64;
                    emit((peeled as u64 + u) as u32);
                }
            });
            meter::aux_read(hist.last_work());

            // Re-bucket the decremented neighbors as one batch.
            let updates: Vec<(V, u64)> = counts.iter().map(|&(u, c)| (u, far - c as u64)).collect();
            buckets.update_batch_distinct(&updates);
            (total_keys, updates.len())
        });

        let delta = scope.snapshot();
        let round_work = delta.aux_read + delta.aux_write;

        // Which side of the cutoffs the round ran on, from the engine's own
        // counters rather than from its (private) constants.
        let (hist_inline, hist_parallel) = histogram::path_calls();
        let (bucket_inline, bucket_parallel) = bucket::path_calls();
        assert_eq!(
            (
                hist_inline - hist_paths.0,
                hist_parallel - hist_paths.1,
                bucket_inline - bucket_paths.0,
                bucket_parallel - bucket_paths.1,
            ),
            if parallel { (0, 1, 0, 1) } else { (1, 0, 1, 0) },
            "round of {len} took the wrong path ({} keys, {} moves)",
            total_keys,
            moves
        );

        // The whole round must cost o(n): a small multiple of the peeled
        // bucket's neighborhood, nowhere near n. n/8 is a ceiling that an
        // O(n)-per-round histogram pack alone blows through.
        assert!(
            round_work <= 8 * total_keys as u64 && round_work < (n / 8) as u64,
            "round of {len} cost {round_work} aux words for {total_keys} keys (n = {n})"
        );

        // Scratch reuse: no re-allocation, and the histogram's own work is
        // key-proportional, not universe-proportional.
        assert_eq!(
            hist.dense_allocations(),
            1,
            "dense scratch must be allocated once per Histogram, not per call"
        );
        assert!(
            hist.last_work() <= 4 * total_keys as u64,
            "reused-scratch histogram did {} work for {total_keys} keys",
            hist.last_work()
        );
    }
}
