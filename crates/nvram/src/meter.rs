//! The PSAM cost meter (Figure 3 of the paper).
//!
//! Engine code reports *semantic* memory traffic in words:
//!
//! * `graph_read` / `graph_write` — traffic to the graph itself, which lives
//!   in the large memory (NVRAM) under Sage's discipline;
//! * `aux_read` / `aux_write` — traffic to algorithm state, which lives in the
//!   small memory (DRAM) under Sage's discipline.
//!
//! A [`MemConfig`] then decides which physical memory each class maps to, and
//! a [`CostModel`] prices the accesses: unit-cost DRAM words, `r`-cost NVRAM
//! reads, `r·ω`-cost NVRAM writes. The defaults (`r = 3`, `ω = 4`) are the
//! device ratios the paper cites from \[50, 96\]: NVRAM reads ≈3x slower than
//! DRAM, NVRAM writes a further ≈4x slower (12x total).
//!
//! The meter is a set of global atomics so that instrumentation does not
//! thread a handle through every algorithm; the harness brackets each run
//! with [`Meter::snapshot`].
//!
//! # Scoped attribution
//!
//! A server executing many queries over one shared graph needs *per-query*
//! traffic, not just the process-wide totals. A [`MeterScope`] provides that:
//! while code runs inside [`MeterScope::enter`], every free-function report
//! ([`graph_read`], [`aux_write`], …) is attributed to the scope's private
//! meter **in addition to** the global one. The scope rides the task-context
//! slots of `sage_parallel` ([`sage_parallel::context::SLOT_METER`]), so it
//! follows the computation across `join`/`par_for`/`Pool::scope` onto worker
//! threads — no call-site changes in algorithm code. Scopes may nest; the
//! innermost scope wins (attribution is not split between nested scopes).
//!
//! Because each scope owns a freshly zeroed meter and reads it with
//! [`MeterScope::snapshot`], per-query accounting is independent of
//! [`Meter::reset`] by construction: a concurrent harness reset can skew the
//! *global* totals but can never produce negative or corrupted per-query
//! traffic.
//!
//! # Per-shard attribution
//!
//! A [`MeterScope::partitioned`] scope also keeps one meter per *part*. The
//! storage layer says which part a read belongs to: a sharded graph serves
//! each adjacency read of shard `s` inside [`in_shard`]`(s, ..)`, and every
//! word charged there lands on part `s` as well as on the scope. Algorithms
//! run unchanged and never learn that the graph is partitioned; what a scope
//! charges outside every part (frontier bookkeeping, result gathering) is
//! its residual: [`MeterScope::snapshot`] minus the sum of the parts.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Number of counter stripes; threads hash onto stripes so that hot-path
/// updates never contend on a shared cache line.
const STRIPES: usize = 32;

/// One stripe: all four counters fit in a single 64-byte line, and stripes
/// are line-aligned so distinct threads touch distinct lines.
#[repr(align(64))]
struct Stripe {
    graph_read: AtomicU64,
    graph_write: AtomicU64,
    aux_read: AtomicU64,
    aux_write: AtomicU64,
}

impl Stripe {
    const fn new() -> Self {
        Self {
            graph_read: AtomicU64::new(0),
            graph_write: AtomicU64::new(0),
            aux_read: AtomicU64::new(0),
            aux_write: AtomicU64::new(0),
        }
    }
}

static NEXT_STRIPE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Const-initialized (sentinel = unassigned) so the hot-path load skips
    /// the lazy-init machinery a computed initializer would add to every
    /// metered access; round-robin assignment happens on a thread's first
    /// report instead.
    static MY_STRIPE: Cell<usize> = const { Cell::new(usize::MAX) };

    /// The part index set by [`in_shard`] (`usize::MAX` outside every part).
    static PART: Cell<usize> = const { Cell::new(usize::MAX) };
}

#[inline]
fn stripe() -> usize {
    MY_STRIPE.with(|c| {
        let s = c.get();
        if s != usize::MAX {
            s
        } else {
            // ORDERING: Relaxed — round-robin stripe assignment; only the
            // RMW's uniqueness matters, no data is published through it.
            let s = NEXT_STRIPE.fetch_add(1, Ordering::Relaxed) % STRIPES;
            c.set(s);
            s
        }
    })
}

/// Raw traffic counters, in machine words (striped per thread; see
/// [`Meter::snapshot`] for the aggregate view).
pub struct Meter {
    stripes: [Stripe; STRIPES],
}

impl Default for Meter {
    fn default() -> Self {
        Self {
            stripes: [const { Stripe::new() }; STRIPES],
        }
    }
}

/// A point-in-time copy of the meter, or the difference of two such copies.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MeterSnapshot {
    /// Words read from the graph (large memory under Sage).
    pub graph_read: u64,
    /// Words written to the graph (zero for all Sage algorithms).
    pub graph_write: u64,
    /// Words read from algorithm state (small memory under Sage).
    pub aux_read: u64,
    /// Words written to algorithm state.
    pub aux_write: u64,
}

impl MeterSnapshot {
    /// Traffic between `earlier` and `self`.
    ///
    /// Saturating: if a [`Meter::reset`] raced the two snapshots, a counter in
    /// `self` can be *below* `earlier`; the difference clamps to zero instead
    /// of wrapping to an absurd ~2^64 value. Per-query accounting that must
    /// be exact should use a [`MeterScope`], whose private meter no reset can
    /// touch.
    pub fn since(&self, earlier: &MeterSnapshot) -> MeterSnapshot {
        MeterSnapshot {
            graph_read: self.graph_read.saturating_sub(earlier.graph_read),
            graph_write: self.graph_write.saturating_sub(earlier.graph_write),
            aux_read: self.aux_read.saturating_sub(earlier.aux_read),
            aux_write: self.aux_write.saturating_sub(earlier.aux_write),
        }
    }

    /// Component-wise sum, used to reconcile per-query scoped snapshots
    /// against a global delta.
    pub fn plus(&self, other: &MeterSnapshot) -> MeterSnapshot {
        MeterSnapshot {
            graph_read: self.graph_read + other.graph_read,
            graph_write: self.graph_write + other.graph_write,
            aux_read: self.aux_read + other.aux_read,
            aux_write: self.aux_write + other.aux_write,
        }
    }

    /// Total words across all four traffic classes.
    pub fn total_words(&self) -> u64 {
        self.graph_read + self.graph_write + self.aux_read + self.aux_write
    }

    /// Total PSAM work: unit-cost for every access except graph writes,
    /// which cost ω (the paper's work measure with reads charged 1).
    pub fn psam_work(&self, omega: f64) -> f64 {
        (self.graph_read + self.aux_read + self.aux_write) as f64 + self.graph_write as f64 * omega
    }
}

static GLOBAL: Meter = Meter {
    stripes: [const { Stripe::new() }; STRIPES],
};

impl Meter {
    /// The process-wide meter.
    pub fn global() -> &'static Meter {
        &GLOBAL
    }

    /// Sum the stripes into a point-in-time view.
    pub fn snapshot(&self) -> MeterSnapshot {
        let mut s = MeterSnapshot::default();
        for stripe in &self.stripes {
            // ORDERING: Relaxed (all four) — traffic counters are advisory
            // statistics: a snapshot taken while workers run is inherently
            // approximate, and phase-accurate readings (the PSAM assertions)
            // happen after a fork-join barrier that supplies the ordering.
            s.graph_read += stripe.graph_read.load(Ordering::Relaxed);
            s.graph_write += stripe.graph_write.load(Ordering::Relaxed); // ORDERING: as above
            s.aux_read += stripe.aux_read.load(Ordering::Relaxed); // ORDERING: as above
            s.aux_write += stripe.aux_write.load(Ordering::Relaxed); // ORDERING: as above
        }
        s
    }

    /// Zero all counters.
    ///
    /// **Harness-only API.** The store is not linearizable with respect to
    /// in-flight workers: resetting while *any* metered computation runs
    /// tears that run's deltas. A serving system must never call this —
    /// per-query accounting belongs to [`MeterScope`], whose private meters
    /// a global reset cannot touch, and global deltas taken with
    /// [`MeterSnapshot::since`] saturate rather than underflow if a reset
    /// slips in between.
    pub fn reset(&self) {
        for stripe in &self.stripes {
            // ORDERING: Relaxed (all four) — harness-only quiescent reset,
            // documented above as never racing a metered computation.
            stripe.graph_read.store(0, Ordering::Relaxed);
            stripe.graph_write.store(0, Ordering::Relaxed); // ORDERING: as above
            stripe.aux_read.store(0, Ordering::Relaxed); // ORDERING: as above
            stripe.aux_write.store(0, Ordering::Relaxed); // ORDERING: as above
        }
    }
}

/// A per-query (or per-task) traffic meter, installed for the duration of a
/// closure and inherited by every parallel task forked inside it.
///
/// ```
/// use sage_nvram::meter::{self, MeterScope};
///
/// let scope = MeterScope::new();
/// scope.enter(|| meter::graph_read(128));
/// assert_eq!(scope.snapshot().graph_read, 128);
/// assert_eq!(scope.snapshot().graph_write, 0);
///
/// // A partitioned scope also meters what each part's reads charge.
/// let scope = MeterScope::partitioned(2);
/// scope.enter(|| {
///     meter::in_shard(1, || meter::graph_read(40));
///     meter::aux_write(3); // outside every part: residual
/// });
/// assert_eq!(scope.part(1).graph_read, 40);
/// assert_eq!(scope.part(0).graph_read, 0);
/// assert_eq!(scope.snapshot().graph_read, 40);
/// assert_eq!(scope.snapshot().aux_write, 3);
/// ```
#[derive(Clone)]
pub struct MeterScope {
    meters: Arc<ScopeMeters>,
}

/// What a [`MeterScope`] installs in the task context: its total meter and
/// one meter per part (none for an unpartitioned scope).
struct ScopeMeters {
    total: Meter,
    parts: Box<[Meter]>,
}

impl Default for MeterScope {
    fn default() -> Self {
        Self::new()
    }
}

impl MeterScope {
    /// A fresh scope with a zeroed private meter.
    pub fn new() -> Self {
        Self::partitioned(0)
    }

    /// A fresh scope that also keeps `k` zeroed part meters: a word charged
    /// inside [`in_shard`]`(s, ..)` with `s < k` while this scope is the
    /// innermost one lands on part `s` as well as on the scope.
    /// `partitioned(0)` is [`MeterScope::new`].
    pub fn partitioned(k: usize) -> Self {
        Self {
            meters: Arc::new(ScopeMeters {
                total: Meter::default(),
                parts: (0..k).map(|_| Meter::default()).collect(),
            }),
        }
    }

    /// Run `f` with this scope installed: all traffic reported by `f` and by
    /// parallel tasks forked inside it lands on this scope's meter as well as
    /// the global one. Re-entrant and nestable (innermost scope wins).
    pub fn enter<R>(&self, f: impl FnOnce() -> R) -> R {
        let value: Arc<ScopeMeters> = Arc::clone(&self.meters);
        sage_parallel::context::with_slot(sage_parallel::context::SLOT_METER, value, f)
    }

    /// Point-in-time view of the scope's private meter. Since the meter
    /// starts at zero and only this scope's tasks write to it, this *is* the
    /// scope's attributed traffic — no baseline subtraction, and immune to
    /// [`Meter::reset`].
    pub fn snapshot(&self) -> MeterSnapshot {
        self.meters.total.snapshot()
    }

    /// Point-in-time view of part `s`: the share of [`MeterScope::snapshot`]
    /// charged inside [`in_shard`]`(s, ..)`.
    ///
    /// # Panics
    /// Panics if the scope has no part `s`.
    pub fn part(&self, s: usize) -> MeterSnapshot {
        self.meters.parts[s].snapshot()
    }

    /// Borrow the underlying private meter.
    pub fn meter(&self) -> &Meter {
        &self.meters.total
    }
}

/// Run `f` as part `s`'s work on this thread: every word charged inside `f`
/// also lands on part `s` of the innermost [`MeterScope`], if that scope is
/// [partitioned](MeterScope::partitioned) into more than `s` parts; in every
/// other case the index is ignored. Nests (the innermost index wins) and
/// restores the previous index when `f` returns or unwinds.
///
/// The index is thread-local, not a task-context slot, so `f` **must not
/// fork**: a job this thread steals while `f` waits on a fork would inherit
/// part `s`, and a job another thread steals from `f` would not. The graph
/// representations call this around one adjacency read, whose callback is
/// per-edge work that never forks.
pub fn in_shard<R>(s: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            PART.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(PART.with(|c| c.replace(s)));
    f()
}

/// Add `words` to counter `pick` of the innermost scope's meter, and of its
/// current part's meter, if a scope is installed on the current task.
#[inline]
fn scoped_add(stripe: usize, pick: impl Fn(&Stripe) -> &AtomicU64, words: u64) {
    sage_parallel::context::with(sage_parallel::context::SLOT_METER, |slot| {
        let Some(m) = slot.and_then(|any| any.downcast_ref::<ScopeMeters>()) else {
            return;
        };
        // ORDERING: Relaxed — statistics accumulation; readers are
        // phase-separated by the scope's end (a fork-join barrier).
        pick(&m.total.stripes[stripe]).fetch_add(words, Ordering::Relaxed);
        if !m.parts.is_empty() {
            if let Some(part) = m.parts.get(PART.with(Cell::get)) {
                // ORDERING: Relaxed — as above.
                pick(&part.stripes[stripe]).fetch_add(words, Ordering::Relaxed);
            }
        }
    });
}

/// Record `words` read from the graph (bulk-reported by engine primitives).
#[inline]
pub fn graph_read(words: u64) {
    let s = stripe();
    // ORDERING: Relaxed — statistics accumulation; see `Meter::snapshot`.
    GLOBAL.stripes[s]
        .graph_read
        .fetch_add(words, Ordering::Relaxed);
    scoped_add(s, |st| &st.graph_read, words);
}

/// Record `words` written to the graph (only baseline systems do this).
#[inline]
pub fn graph_write(words: u64) {
    let s = stripe();
    // ORDERING: Relaxed — statistics accumulation; see `Meter::snapshot`.
    GLOBAL.stripes[s]
        .graph_write
        .fetch_add(words, Ordering::Relaxed);
    scoped_add(s, |st| &st.graph_write, words);
}

/// Record `words` read from algorithm state.
#[inline]
pub fn aux_read(words: u64) {
    let s = stripe();
    // ORDERING: Relaxed — statistics accumulation; see `Meter::snapshot`.
    GLOBAL.stripes[s]
        .aux_read
        .fetch_add(words, Ordering::Relaxed);
    scoped_add(s, |st| &st.aux_read, words);
}

/// Record `words` written to algorithm state.
#[inline]
pub fn aux_write(words: u64) {
    let s = stripe();
    // ORDERING: Relaxed — statistics accumulation; see `Meter::snapshot`.
    GLOBAL.stripes[s]
        .aux_write
        .fetch_add(words, Ordering::Relaxed);
    scoped_add(s, |st| &st.aux_write, words);
}

/// Relative per-word access costs (DRAM read ≡ 1).
#[derive(Clone, Copy, Debug)]
pub struct CostModel {
    /// NVRAM read cost relative to a DRAM read (paper: ≈3 \[50, 96\]).
    pub nvram_read: f64,
    /// NVRAM write/read asymmetry ω (paper: ≈4, so writes ≈12x DRAM reads).
    pub omega: f64,
    /// Penalty multiplier for cross-socket NVRAM reads (§5.2: ≈3.7).
    pub cross_socket: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        Self {
            nvram_read: 3.0,
            omega: 4.0,
            cross_socket: 3.7,
        }
    }
}

impl CostModel {
    /// Cost of one NVRAM write in DRAM-read units.
    pub fn nvram_write(&self) -> f64 {
        self.nvram_read * self.omega
    }
}

/// Where each traffic class physically lives — the four configurations of
/// Figure 7 plus Memory Mode (Figure 1).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum MemConfig {
    /// Sage discipline on real NVRAM (App-Direct): graph on NVRAM, state in DRAM.
    SageAppDirect,
    /// Everything in DRAM (the GBBS-DRAM / Sage-DRAM configurations).
    AllDram,
    /// libvmmalloc-style conversion: the entire heap, graph and state, on NVRAM.
    NvramHeap,
    /// Memory Mode: DRAM acts as a cache in front of NVRAM with the given hit
    /// rate (estimated from working-set vs. DRAM size, or measured with
    /// [`crate::memmode::DirectMappedCache`]).
    MemoryMode {
        /// Fraction of accesses served from the DRAM cache.
        hit_rate: f64,
    },
}

impl MemConfig {
    /// Project the traffic in `s` onto this configuration under `model`,
    /// returning abstract cost units (DRAM-read-equivalents).
    pub fn project(&self, s: &MeterSnapshot, model: &CostModel) -> f64 {
        let g_r = s.graph_read as f64;
        let g_w = s.graph_write as f64;
        let a_r = s.aux_read as f64;
        let a_w = s.aux_write as f64;
        match *self {
            MemConfig::SageAppDirect => {
                g_r * model.nvram_read + g_w * model.nvram_write() + a_r + a_w
            }
            MemConfig::AllDram => g_r + g_w + a_r + a_w,
            MemConfig::NvramHeap => {
                (g_r + a_r) * model.nvram_read + (g_w + a_w) * model.nvram_write()
            }
            MemConfig::MemoryMode { hit_rate } => {
                let miss = 1.0 - hit_rate;
                let read_cost = hit_rate + miss * model.nvram_read;
                // A miss on write additionally evicts a dirty line to NVRAM.
                let write_cost = hit_rate + miss * (model.nvram_read + model.nvram_write());
                (g_r + a_r) * read_cost + (g_w + a_w) * write_cost
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The global meter is process-wide, so a test asserting an exact global
    // delta races with every sibling test that charges it. Every test that
    // charges or reads the global meter holds this lock. A poisoned lock is
    // fine to reuse: one test's failure must not cascade into the others.
    static GLOBAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn serial() -> std::sync::MutexGuard<'static, ()> {
        GLOBAL
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn snapshot_diff() {
        let _serial = serial();
        let a = Meter::global().snapshot();
        graph_read(50);
        aux_write(7);
        let b = Meter::global().snapshot();
        let d = b.since(&a);
        assert_eq!(d.graph_read, 50);
        assert_eq!(d.aux_write, 7);
    }

    #[test]
    fn sharded_counters_aggregate_across_threads() {
        let _serial = serial();
        let before = Meter::global().snapshot();
        let handles: Vec<_> = (0..8)
            .map(|_| {
                std::thread::spawn(|| {
                    for _ in 0..1000 {
                        graph_read(1);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let d = Meter::global().snapshot().since(&before);
        assert!(d.graph_read >= 8000);
    }

    #[test]
    fn psam_work_charges_omega_for_graph_writes() {
        let s = MeterSnapshot {
            graph_read: 10,
            graph_write: 5,
            aux_read: 3,
            aux_write: 2,
        };
        assert_eq!(s.psam_work(4.0), 10.0 + 3.0 + 2.0 + 20.0);
    }

    #[test]
    fn sage_config_prices_graph_reads_at_nvram_rate() {
        let model = CostModel::default();
        let s = MeterSnapshot {
            graph_read: 100,
            graph_write: 0,
            aux_read: 10,
            aux_write: 10,
        };
        let sage = MemConfig::SageAppDirect.project(&s, &model);
        let dram = MemConfig::AllDram.project(&s, &model);
        assert_eq!(sage, 100.0 * 3.0 + 20.0);
        assert_eq!(dram, 120.0);
        assert!(sage > dram);
    }

    #[test]
    fn libvmmalloc_is_most_expensive_for_write_heavy_runs() {
        let model = CostModel::default();
        let s = MeterSnapshot {
            graph_read: 50,
            graph_write: 0,
            aux_read: 50,
            aux_write: 100,
        };
        let sage = MemConfig::SageAppDirect.project(&s, &model);
        let vm = MemConfig::NvramHeap.project(&s, &model);
        assert!(vm > sage, "libvmmalloc {vm} must exceed Sage {sage}");
    }

    #[test]
    fn memory_mode_interpolates_between_dram_and_nvram() {
        let model = CostModel::default();
        let s = MeterSnapshot {
            graph_read: 1000,
            graph_write: 0,
            aux_read: 0,
            aux_write: 0,
        };
        let hot = MemConfig::MemoryMode { hit_rate: 1.0 }.project(&s, &model);
        let cold = MemConfig::MemoryMode { hit_rate: 0.0 }.project(&s, &model);
        let dram = MemConfig::AllDram.project(&s, &model);
        assert!((hot - dram).abs() < 1e-9);
        assert_eq!(cold, 3000.0);
    }

    #[test]
    fn global_meter_accumulates() {
        let _serial = serial();
        let before = Meter::global().snapshot();
        graph_read(11);
        aux_write(5);
        let d = Meter::global().snapshot().since(&before);
        assert!(d.graph_read >= 11);
        assert!(d.aux_write >= 5);
    }

    #[test]
    fn since_saturates_across_resets() {
        let big = MeterSnapshot {
            graph_read: 100,
            graph_write: 1,
            aux_read: 50,
            aux_write: 50,
        };
        let after_reset = MeterSnapshot::default();
        let d = after_reset.since(&big);
        assert_eq!(d, MeterSnapshot::default(), "must clamp, not wrap");
    }

    #[test]
    fn scope_attributes_exactly_its_own_traffic() {
        let _serial = serial();
        let scope = MeterScope::new();
        graph_read(1000); // outside the scope: global only
        scope.enter(|| {
            graph_read(40);
            aux_write(7);
        });
        aux_read(3); // outside again
        let s = scope.snapshot();
        assert_eq!(s.graph_read, 40);
        assert_eq!(s.aux_write, 7);
        assert_eq!(s.aux_read, 0);
        assert_eq!(s.graph_write, 0);
    }

    #[test]
    fn scope_also_feeds_the_global_meter() {
        let _serial = serial();
        let before = Meter::global().snapshot();
        let scope = MeterScope::new();
        scope.enter(|| graph_read(123));
        let d = Meter::global().snapshot().since(&before);
        assert!(
            d.graph_read >= 123,
            "scoped traffic must stay in the global"
        );
    }

    #[test]
    fn scope_follows_parallel_tasks_onto_workers() {
        let _serial = serial();
        use sage_parallel as par;
        let scope = MeterScope::new();
        scope.enter(|| {
            par::par_for(0, 1000, |_| aux_write(1));
            let ((), ()) = par::join(|| graph_read(5), || graph_read(6));
        });
        let s = scope.snapshot();
        assert_eq!(s.aux_write, 1000);
        assert_eq!(s.graph_read, 11);
    }

    #[test]
    fn nested_scopes_innermost_wins() {
        let _serial = serial();
        let outer = MeterScope::new();
        let inner = MeterScope::new();
        outer.enter(|| {
            aux_write(10);
            inner.enter(|| aux_write(3));
            aux_write(20);
        });
        assert_eq!(outer.snapshot().aux_write, 30);
        assert_eq!(inner.snapshot().aux_write, 3);
    }

    #[test]
    fn scope_unaffected_by_global_reset() {
        let _serial = serial();
        // A private (non-global) meter stands in for "some other harness
        // meter being reset"; the scope's meter has no shared state with it.
        let scope = MeterScope::new();
        scope.enter(|| {
            graph_read(50);
            Meter::global().snapshot(); // arbitrary global activity
        });
        // Even a *global* reset cannot disturb the scope's private counters.
        // (Do not actually reset the global here — tests share it.)
        let private = MeterScope::new();
        private.enter(|| aux_write(9));
        private.meter().reset();
        assert_eq!(private.snapshot(), MeterSnapshot::default());
        assert_eq!(scope.snapshot().graph_read, 50);
    }

    fn part_index() -> usize {
        PART.with(Cell::get)
    }

    #[test]
    fn in_shard_charges_land_on_the_part_and_the_scope() {
        let _serial = serial();
        let scope = MeterScope::partitioned(3);
        scope.enter(|| {
            in_shard(0, || graph_read(10));
            in_shard(2, || {
                graph_read(5);
                aux_write(2);
            });
            in_shard(7, || graph_read(100)); // no part 7: scope only
            aux_read(4); // outside every part: residual
        });
        assert_eq!(scope.part(0).graph_read, 10);
        assert_eq!(scope.part(1), MeterSnapshot::default());
        assert_eq!(
            scope.part(2),
            MeterSnapshot {
                graph_read: 5,
                aux_write: 2,
                ..Default::default()
            }
        );
        assert_eq!(
            scope.snapshot(),
            MeterSnapshot {
                graph_read: 115,
                graph_write: 0,
                aux_read: 4,
                aux_write: 2,
            }
        );
    }

    #[test]
    fn nested_in_shard_restores_the_previous_index() {
        let _serial = serial();
        let scope = MeterScope::partitioned(2);
        scope.enter(|| {
            in_shard(0, || {
                graph_read(1);
                in_shard(1, || graph_read(20));
                assert_eq!(part_index(), 0);
                graph_read(300);
            });
        });
        assert_eq!(part_index(), usize::MAX);
        assert_eq!(scope.part(0).graph_read, 301);
        assert_eq!(scope.part(1).graph_read, 20);
    }

    #[test]
    fn a_panic_inside_in_shard_restores_the_index() {
        in_shard(1, || {
            let caught = std::panic::catch_unwind(|| in_shard(0, || panic!("read failed")));
            assert!(caught.is_err());
            assert_eq!(part_index(), 1);
        });
        assert_eq!(part_index(), usize::MAX);
    }

    #[test]
    fn unpartitioned_scopes_ignore_the_part_index() {
        let _serial = serial();
        let plain = MeterScope::new();
        plain.enter(|| in_shard(0, || graph_read(9)));
        assert_eq!(plain.snapshot().graph_read, 9);
        // The innermost scope wins: a plain scope nested in a partitioned
        // one takes the words, and the outer parts see none of them.
        let outer = MeterScope::partitioned(1);
        let inner = MeterScope::new();
        outer.enter(|| inner.enter(|| in_shard(0, || graph_read(6))));
        assert_eq!(inner.snapshot().graph_read, 6);
        assert_eq!(outer.snapshot(), MeterSnapshot::default());
        assert_eq!(outer.part(0), MeterSnapshot::default());
    }

    #[test]
    fn concurrent_scopes_do_not_bleed() {
        let _serial = serial();
        let handles: Vec<_> = (0..4)
            .map(|t| {
                std::thread::spawn(move || {
                    let scope = MeterScope::new();
                    scope.enter(|| {
                        for _ in 0..100 {
                            graph_read(t + 1);
                        }
                    });
                    scope.snapshot().graph_read
                })
            })
            .collect();
        for (t, h) in handles.into_iter().enumerate() {
            assert_eq!(h.join().unwrap(), 100 * (t as u64 + 1));
        }
    }
}
