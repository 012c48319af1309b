#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]
//! Cilk-style fork-join runtime and parallel primitives for the Sage reproduction.
//!
//! The Sage paper analyses algorithms in the binary-forking (T-RAM) model and runs
//! them on a work-stealing scheduler "that we implemented, implemented similarly to
//! Cilk" (§5.1.1). This crate reproduces that substrate: a work-stealing pool built
//! on `crossbeam-deque` exposing a structured [`join`] primitive, plus the parallel
//! primitives the paper relies on (§2): prefix sum ([`scan_add`]/[`scan_with`]),
//! reductions ([`reduce_map`] and friends), filter/pack ([`filter_slice`],
//! [`pack_index`]), parallel sorting, a concurrent hash table, a lock-free
//! union-find, and the histogram primitive used by k-core and densest subgraph
//! (§4.3.4).
//!
//! All primitives are deterministic given fixed inputs (randomized helpers take
//! explicit seeds) and degrade gracefully to sequential execution when the pool has
//! a single worker, which is how the benchmark harness measures `T1`.
//!
//! # Quickstart
//!
//! ```
//! use sage_parallel as par;
//!
//! // Parallel loop with automatic grain selection.
//! let mut squares = vec![0u64; 1000];
//! par::par_for_slices(&mut squares, |i, x| *x = (i * i) as u64);
//!
//! // Fork-join.
//! let (a, b) = par::join(|| 21, || 2);
//! assert_eq!(a * b, 42);
//!
//! // Prefix sums (exclusive scan), as defined in §2 of the paper.
//! let mut v = vec![1u64, 2, 3, 4];
//! let total = par::scan_add(&mut v);
//! assert_eq!((v, total), (vec![0, 1, 3, 6], 10));
//! ```

pub mod context;
pub mod hash_table;
pub mod histogram;
mod job;
mod latch;
pub mod ops;
pub mod pool;
pub mod rng;
pub mod sort;
pub mod union_find;

pub use hash_table::ConcurrentMap;
pub use histogram::{histogram_dense, histogram_sparse, Histogram};
pub use ops::{
    count_ones, count_ones_per_bit, filter_slice, pack_index, par_copy, par_fill, par_for,
    par_for_grain, par_for_slices, par_map, par_map_grain, reduce_add, reduce_map, reduce_max,
    reduce_min, reduce_or, scan_add, scan_with, SendPtr,
};
pub use pool::{
    global_pool, in_pool, in_worker, join, num_threads, scope, worker_index, Pool, Scope,
};
pub use rng::{hash64, hash64_pair, SplitMix64};
pub use sort::{merge_into, par_sort, par_sort_by, par_sort_by_key};
pub use union_find::ConcurrentUnionFind;

/// The default sequential grain size used when a caller does not specify one.
///
/// Chosen so that per-task scheduling overhead is amortized over a few
/// microseconds of work, mirroring the blocking factor used by the paper's
/// scheduler.
pub const DEFAULT_GRAIN: usize = 2048;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn doc_example_shapes() {
        let (a, b) = join(|| 1 + 1, || 2 + 2);
        assert_eq!((a, b), (2, 4));
    }
}
