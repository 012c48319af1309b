//! The work-stealing thread pool and the structured [`join`] primitive.
//!
//! One deque per worker (LIFO for the owner, FIFO for thieves) plus a global
//! injector for jobs submitted from outside the pool — the classic Cilk /
//! Blumofe-Leiserson design the paper's own scheduler follows. `join(a, b)`
//! pushes `b`, runs `a`, then either pops `b` back or steals other work until
//! the thief finishes `b`.
//!
//! # FENCE PROTOCOL (sleep/notify)
//!
//! `Sleep::notify` and `Sleep::sleep` form a SeqCst fence pair — the
//! classic check-then-park protocol. The producer publishes work, executes
//! `fence(SeqCst)`, then reads `sleepers`; the sleeper increments
//! `sleepers`, executes `fence(SeqCst)`, then re-checks for work. In the
//! single total order of SeqCst fences one side must observe the other's
//! preceding write: either the producer sees `sleepers > 0` and notifies
//! under the lock the sleeper holds until it parks, or the sleeper's
//! re-check sees the published work and never parks. Both
//! `fence(Ordering::SeqCst)` sites in this file belong to this protocol
//! and are covered by this banner (sage-lint `ordering-comment` rule).

use crate::job::{HeapJob, JobRef, StackJob};
use crate::latch::{CountLatch, LockLatch, SpinLatch};
use crossbeam_deque::{Injector, Stealer, Worker as Deque};
use parking_lot::{Condvar, Mutex};
use std::any::Any;
use std::cell::Cell;
use std::marker::PhantomData;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{fence, AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

thread_local! {
    static WORKER: Cell<*const WorkerThread> = const { Cell::new(std::ptr::null()) };
}

struct Sleep {
    lock: Mutex<()>,
    cond: Condvar,
    sleepers: AtomicUsize,
}

impl Sleep {
    fn new() -> Self {
        Self {
            lock: Mutex::new(()),
            cond: Condvar::new(),
            sleepers: AtomicUsize::new(0),
        }
    }

    /// Wake sleeping workers because new work arrived.
    ///
    /// The caller publishes the work *before* calling this. The seq-cst
    /// fence pairs with the one in [`Sleep::sleep`]: either this load sees
    /// the sleeper's count increment (and the notify goes through the lock
    /// the sleeper holds until it parks), or the sleeper's `has_work`
    /// re-check sees the published work and it never parks. A wakeup can
    /// therefore not fall into the window between a worker's last queue scan
    /// and its park.
    #[inline]
    fn notify(&self) {
        fence(Ordering::SeqCst);
        // ORDERING: Relaxed — the SeqCst fence above already orders this
        // load against the sleeper's increment (see FENCE PROTOCOL); if it
        // still reads 0, the sleeper's post-fence re-check is guaranteed to
        // see the work we published.
        if self.sleepers.load(Ordering::Relaxed) > 0 {
            let _g = self.lock.lock();
            self.cond.notify_all();
        }
    }

    /// Park briefly, unless `has_work` turns up work between the caller's
    /// last queue scan and the park (the lost-wakeup window). The sleeper
    /// count is incremented while holding the lock, so a notifier that
    /// observes it cannot fire `notify_all` before this thread is parked.
    /// A timeout still bounds the stall of any undiscovered interleaving;
    /// longer idle streaks park longer so that idle pools do not steal
    /// cycles from busy ones (the harness runs several pools in one
    /// process).
    fn sleep(&self, streak: u32, has_work: impl FnOnce() -> bool) {
        let mut g = self.lock.lock();
        // ORDERING: Relaxed — visibility to the notifier is supplied by the
        // SeqCst fence below (see FENCE PROTOCOL), not by this RMW itself.
        self.sleepers.fetch_add(1, Ordering::Relaxed);
        fence(Ordering::SeqCst);
        if has_work() {
            // ORDERING: Relaxed — bookkeeping only; a notifier reading a
            // stale nonzero count merely takes the lock and notifies a
            // no-longer-parked thread, which is harmless.
            self.sleepers.fetch_sub(1, Ordering::Relaxed);
            return;
        }
        let ms = (1 + streak / 16).min(20) as u64;
        self.cond.wait_for(&mut g, Duration::from_millis(ms));
        drop(g);
        // ORDERING: Relaxed — same as above: an overestimate only costs a
        // spurious notify_all, never a lost wakeup.
        self.sleepers.fetch_sub(1, Ordering::Relaxed);
    }
}

pub(crate) struct Registry {
    injector: Injector<JobRef>,
    stealers: Vec<Stealer<JobRef>>,
    sleep: Sleep,
    terminate: AtomicBool,
    num_threads: usize,
    /// Jobs that entered through the injector; see [`Pool::injected_jobs`].
    injected: AtomicU64,
}

impl Registry {
    #[inline]
    fn notify_work(&self) {
        self.sleep.notify();
    }

    /// Hand a job from a thread outside the pool to the workers.
    fn inject(&self, job: JobRef) {
        // ORDERING: Relaxed — a statistic; the job itself is published by
        // the injector push and the fence in `notify_work`.
        self.injected.fetch_add(1, Ordering::Relaxed);
        self.injector.push(job);
        self.notify_work();
    }

    /// Attempt to steal one job, scanning the injector and then other
    /// workers' deques starting from `start`. The caller picks a fresh
    /// pseudo-random `start` per attempt: a fixed rotational order would
    /// send every thief to the same victim first and convoy on its `top`
    /// index.
    fn steal(&self, from: usize, start: usize) -> Option<JobRef> {
        loop {
            match self.injector.steal() {
                crossbeam_deque::Steal::Success(job) => return Some(job),
                crossbeam_deque::Steal::Empty => break,
                crossbeam_deque::Steal::Retry => continue,
            }
        }
        let n = self.stealers.len();
        let start = start % n.max(1); // reduce the raw hash so `start + i` cannot overflow
        for i in 0..n {
            let victim = (start + i) % n;
            if victim == from {
                continue;
            }
            loop {
                match self.stealers[victim].steal() {
                    crossbeam_deque::Steal::Success(job) => return Some(job),
                    crossbeam_deque::Steal::Empty => break,
                    crossbeam_deque::Steal::Retry => continue,
                }
            }
        }
        None
    }

    /// Whether any queue in the pool currently holds work. Used by parking
    /// workers for the final pre-park re-check; O(threads) but only run on
    /// the idle path.
    fn has_work(&self) -> bool {
        !self.injector.is_empty() || self.stealers.iter().any(|s| !s.is_empty())
    }
}

pub(crate) struct WorkerThread {
    deque: Deque<JobRef>,
    index: usize,
    registry: Arc<Registry>,
    /// Private SplitMix64 state for picking steal-victim starting points.
    steal_rng: Cell<u64>,
}

impl WorkerThread {
    #[inline]
    pub(crate) fn current() -> *const WorkerThread {
        WORKER.with(|w| w.get())
    }

    #[inline]
    fn push(&self, job: JobRef) {
        self.deque.push(job);
        self.registry.notify_work();
    }

    /// Pop the most recently pushed job (ours, unless it was stolen).
    #[inline]
    fn pop(&self) -> Option<JobRef> {
        self.deque.pop()
    }

    /// Steal from the injector or a sibling, starting the victim scan at a
    /// per-attempt pseudo-random index so thieves spread across victims.
    #[inline]
    fn steal(&self) -> Option<JobRef> {
        let s = self.steal_rng.get();
        self.steal_rng.set(s.wrapping_add(1));
        self.registry
            .steal(self.index, crate::rng::hash64(s) as usize)
    }

    /// Busy-wait for `latch`, executing any available work in the meantime.
    #[inline]
    fn wait_until(&self, latch: &SpinLatch) {
        self.wait_probe(|| latch.probe());
    }

    /// Busy-wait until `probe` turns true, executing any available work in
    /// the meantime. Long waits back off to short sleeps so a starved sibling
    /// (e.g. on an oversubscribed or throttled host) can finish the stolen
    /// job.
    fn wait_probe(&self, probe: impl Fn() -> bool) {
        let mut spins = 0u32;
        while !probe() {
            let job = self.pop().or_else(|| self.steal());
            match job {
                Some(job) => {
                    // SAFETY: the queues hand out each JobRef exactly once,
                    // so a popped/stolen ref is live and not yet executed.
                    unsafe { job.execute() };
                    spins = 0;
                }
                None => {
                    spins += 1;
                    if spins < 64 {
                        std::hint::spin_loop();
                    } else if spins < 512 {
                        std::thread::yield_now();
                    } else {
                        std::thread::sleep(Duration::from_micros(50));
                    }
                }
            }
        }
    }

    fn main_loop(&self) {
        let registry = &self.registry;
        let mut idle_rounds = 0u32;
        // ORDERING: Acquire — pairs with the Release store in `Pool::drop`;
        // a worker that observes termination also observes every write made
        // before shutdown was requested.
        while !registry.terminate.load(Ordering::Acquire) {
            match self.pop().or_else(|| self.steal()) {
                Some(job) => {
                    // SAFETY: the queues hand out each JobRef exactly once,
                    // so a popped/stolen ref is live and not yet executed.
                    unsafe { job.execute() };
                    idle_rounds = 0;
                }
                None => {
                    idle_rounds += 1;
                    if idle_rounds < 32 {
                        std::thread::yield_now();
                    } else {
                        registry.sleep.sleep(idle_rounds - 32, || {
                            // ORDERING: Acquire — same pairing as the loop
                            // condition above (Release store in `Pool::drop`).
                            registry.terminate.load(Ordering::Acquire) || registry.has_work()
                        });
                    }
                }
            }
        }
    }
}

/// A fork-join thread pool.
///
/// Most users interact with the process-wide [`global_pool`]; dedicated pools
/// exist so that the benchmark harness can measure 1-thread (`T1`) and
/// all-thread (`Tp`) executions in one process (Figure 6).
pub struct Pool {
    registry: Arc<Registry>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl Pool {
    /// Create a pool with `num_threads` workers (minimum 1).
    pub fn new(num_threads: usize) -> Self {
        let num_threads = num_threads.max(1);
        let deques: Vec<Deque<JobRef>> = (0..num_threads).map(|_| Deque::new_lifo()).collect();
        let stealers = deques.iter().map(|d| d.stealer()).collect();
        let registry = Arc::new(Registry {
            injector: Injector::new(),
            stealers,
            sleep: Sleep::new(),
            terminate: AtomicBool::new(false),
            num_threads,
            injected: AtomicU64::new(0),
        });
        let mut handles = Vec::with_capacity(num_threads);
        for (index, deque) in deques.into_iter().enumerate() {
            let registry = Arc::clone(&registry);
            let handle = std::thread::Builder::new()
                .name(format!("sage-worker-{index}"))
                .spawn(move || {
                    let worker = WorkerThread {
                        deque,
                        index,
                        registry,
                        steal_rng: Cell::new(crate::rng::hash64(index as u64)),
                    };
                    WORKER.with(|w| w.set(&worker as *const WorkerThread));
                    worker.main_loop();
                    WORKER.with(|w| w.set(std::ptr::null()));
                })
                .expect("failed to spawn sage worker thread");
            handles.push(handle);
        }
        Pool { registry, handles }
    }

    /// Number of worker threads.
    pub fn num_threads(&self) -> usize {
        self.registry.num_threads
    }

    /// Jobs handed to this pool by threads outside it since it was created:
    /// one per external [`Pool::install`] and one per external scope spawn.
    /// Each is a thread hand-off — microseconds, against the tens of
    /// nanoseconds of a `join` between workers — so a round-structured
    /// algorithm should show one per call ([`in_pool`]), not one per
    /// primitive.
    pub fn injected_jobs(&self) -> u64 {
        // ORDERING: Relaxed — a statistic read; it orders nothing.
        self.registry.injected.load(Ordering::Relaxed)
    }

    /// Run `f` inside the pool, blocking until it completes.
    ///
    /// If the current thread is already a worker of this pool, `f` runs
    /// inline; otherwise it is injected and executed by a worker, so nested
    /// `join` calls inside `f` are scheduled on this pool.
    pub fn install<R, F>(&self, f: F) -> R
    where
        F: FnOnce() -> R + Send,
        R: Send,
    {
        let current = WorkerThread::current();
        if !current.is_null() {
            // SAFETY: a non-null WORKER pointer refers to the live
            // WorkerThread of the current thread; it is set for the whole
            // duration of `main_loop`, which this call runs inside.
            let worker = unsafe { &*current };
            if Arc::ptr_eq(&worker.registry, &self.registry) {
                return f();
            }
        }
        let job = StackJob::<LockLatch, F, R>::new(LockLatch::new(), f);
        // SAFETY: `job` lives on this stack frame until `take_result`
        // below, and the latch wait keeps the frame alive until the worker
        // that executes the ref has finished with it.
        let job_ref = unsafe { job.as_job_ref() };
        self.registry.inject(job_ref);
        job.latch().wait();
        // SAFETY: the latch wait above established that the job executed,
        // so the result slot is filled and no other thread touches the job.
        unsafe { job.take_result() }
    }

    /// Run `f` with a [`Scope`] on which heterogeneous jobs can be spawned;
    /// blocks until `f` *and every spawned job* have completed.
    ///
    /// Unlike [`Pool::install`] (one job, one result), a scope expresses a
    /// dynamic fan-out whose closures may borrow data from the caller's stack
    /// (anything outliving `'scope`). Scopes submitted concurrently from
    /// multiple external threads interleave on the worker set: spawns from
    /// outside the pool land in the sharded FIFO injector, spawns from
    /// workers go to their own deque, and idle workers steal across all of
    /// them — this is the multi-query serving entry point.
    ///
    /// `f` runs on the calling thread. Task-inherited context (meter scopes,
    /// query arenas — see [`crate::context`]) is captured per spawn and
    /// installed around each job's execution. A panic in `f` or in any
    /// spawned job is re-thrown here after all jobs have finished (the first
    /// spawned panic wins).
    pub fn scope<'scope, F, R>(&self, f: F) -> R
    where
        F: FnOnce(&Scope<'scope>) -> R,
    {
        scope_on(Arc::clone(&self.registry), f)
    }
}

/// Cross-thread pointer to a [`Scope`]; a method (not field) accessor keeps
/// edition-2021 closures capturing the whole Send wrapper rather than the
/// raw pointer field.
struct ScopePtr<'scope>(*const Scope<'scope>);

// SAFETY: Scope is Sync (all fields are thread-safe) and outlives the jobs
// that carry this pointer, per the latch protocol in `scope_on`.
unsafe impl<'scope> Send for ScopePtr<'scope> {}

impl<'scope> ScopePtr<'scope> {
    /// # Safety
    ///
    /// The caller must ensure the scope is still alive (latch count > 0).
    unsafe fn as_scope(&self) -> &Scope<'scope> {
        // SAFETY: liveness is the caller's obligation, per the doc above.
        unsafe { &*self.0 }
    }
}

/// Shared implementation of [`Pool::scope`] / [`scope`].
fn scope_on<'scope, F, R>(registry: Arc<Registry>, f: F) -> R
where
    F: FnOnce(&Scope<'scope>) -> R,
{
    let scope = Scope {
        registry,
        latch: Arc::new(CountLatch::new()),
        panic: Mutex::new(None),
        _marker: PhantomData,
    };
    let result = panic::catch_unwind(AssertUnwindSafe(|| f(&scope)));
    // The scope body itself holds one count; release it and wait for the
    // spawned jobs. Workers of this pool keep stealing while they wait so
    // a scope created on a worker cannot deadlock the pool.
    scope.latch.decrement();
    let current = WorkerThread::current();
    // SAFETY: `current` is checked non-null first; a non-null WORKER
    // pointer is valid for the lifetime of the worker's `main_loop`.
    let on_this_pool =
        !current.is_null() && Arc::ptr_eq(&unsafe { &*current }.registry, &scope.registry);
    if on_this_pool {
        // SAFETY: non-null and same-pool, per the check directly above.
        unsafe { &*current }.wait_probe(|| scope.latch.probe());
    } else {
        scope.latch.wait();
    }
    match result {
        Err(p) => panic::resume_unwind(p),
        Ok(r) => {
            if let Some(p) = scope.panic.lock().take() {
                panic::resume_unwind(p);
            }
            r
        }
    }
}

/// A fork scope created by [`Pool::scope`]: spawned closures may borrow any
/// data that outlives `'scope`, and the scope does not end until every spawn
/// has completed.
pub struct Scope<'scope> {
    registry: Arc<Registry>,
    /// Outstanding work: 1 for the scope body plus 1 per unfinished spawn.
    ///
    /// `Arc`-shared with every spawned job: the final `decrement()` makes the
    /// scope observable as complete, at which point `scope_on` may return and
    /// free the `Scope` — so the decrementing worker must only touch latch
    /// memory *it* keeps alive, never the scope's stack frame.
    latch: Arc<CountLatch>,
    /// First panic observed in a spawned job, re-thrown when the scope ends.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    /// Invariant over `'scope`, as the spawned closures store borrows of it.
    _marker: PhantomData<fn(&'scope ()) -> &'scope ()>,
}

impl<'scope> Scope<'scope> {
    /// Spawn `f` onto the pool (the `spawn_scoped` operation). Returns
    /// immediately; the job runs on some worker, inheriting the spawning
    /// task's context slots. The closure receives the scope back (as in
    /// rayon) so jobs can spawn further jobs. Panics inside `f` are captured
    /// and re-thrown when the owning [`Pool::scope`] call returns.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce(&Scope<'scope>) + Send + 'scope,
    {
        self.latch.increment();
        let this = ScopePtr(self as *const Self);
        let latch = Arc::clone(&self.latch);
        let job = HeapJob::new(move || {
            {
                // SAFETY: until the decrement below, the latch count is > 0,
                // so `scope_on` is still waiting and the scope is alive.
                let scope = unsafe { this.as_scope() };
                if let Err(p) = panic::catch_unwind(AssertUnwindSafe(|| f(scope))) {
                    let mut slot = scope.panic.lock();
                    if slot.is_none() {
                        *slot = Some(p);
                    }
                }
            }
            // After this point the scope may be freed at any instant (the
            // owner's spin-probe needs no lock); touch only the Arc'd latch.
            latch.decrement();
        });
        // SAFETY: executed exactly once; outstanding-borrow lifetime is
        // guaranteed by the scope's latch wait, as documented on HeapJob.
        let job_ref = unsafe { job.into_job_ref() };
        let current = WorkerThread::current();
        // SAFETY: both derefs are guarded by the non-null check; a non-null
        // WORKER pointer is valid while its thread runs.
        if !current.is_null() && Arc::ptr_eq(&unsafe { &*current }.registry, &self.registry) {
            // SAFETY: same guard as the condition directly above.
            unsafe { &*current }.push(job_ref);
        } else {
            self.registry.inject(job_ref);
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        // ORDERING: Release — pairs with the workers' Acquire loads in
        // `main_loop`, publishing all pre-shutdown writes to them.
        self.registry.terminate.store(true, Ordering::Release);
        // Wake all sleepers repeatedly until every worker observed termination.
        for handle in self.handles.drain(..) {
            while !handle.is_finished() {
                self.registry.sleep.notify();
                std::thread::yield_now();
            }
            let _ = handle.join();
        }
    }
}

static GLOBAL: OnceLock<Pool> = OnceLock::new();

fn default_threads() -> usize {
    if let Ok(v) = std::env::var("SAGE_THREADS") {
        match v.parse::<usize>() {
            Ok(n) => return n.max(1),
            Err(_) => {
                // A typo'd env var must not silently fall back to all cores:
                // that would corrupt T1-vs-Tp bench comparisons. Warn once.
                static WARNED: AtomicBool = AtomicBool::new(false);
                // ORDERING: Relaxed — one-shot warning latch; no data is
                // published through it.
                if !WARNED.swap(true, Ordering::Relaxed) {
                    eprintln!(
                        "sage-parallel: ignoring unparsable SAGE_THREADS={v:?}; \
                         defaulting to all hardware threads"
                    );
                }
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The process-wide pool, created on first use with
/// `SAGE_THREADS`-many workers (default: all hardware threads).
pub fn global_pool() -> &'static Pool {
    GLOBAL.get_or_init(|| Pool::new(default_threads()))
}

/// Number of workers in the pool the current thread belongs to (or the global
/// pool for external threads).
pub fn num_threads() -> usize {
    let current = WorkerThread::current();
    if !current.is_null() {
        // SAFETY: guarded by the non-null check; a non-null WORKER pointer
        // is valid while its thread runs, and we only read a field.
        unsafe { &*current }.registry.num_threads
    } else {
        global_pool().num_threads()
    }
}

/// Index of the current worker thread within its pool, or `None` when called
/// from a thread outside any pool. Used by `edgeMapChunked` for its
/// thread-local chunk vectors (§4.1.2).
pub fn worker_index() -> Option<usize> {
    let current = WorkerThread::current();
    if current.is_null() {
        None
    } else {
        // SAFETY: guarded by the non-null check above; field read only.
        Some(unsafe { (*current).index })
    }
}

/// `true` when the calling thread is a pool worker.
pub fn in_worker() -> bool {
    !WorkerThread::current().is_null()
}

/// Run `f` on a pool worker: inline when the calling thread already is one
/// (of any pool), otherwise through exactly one [`Pool::install`] on the
/// global pool.
///
/// Every primitive called from outside a pool pays that `install` itself —
/// a hand-off to a worker and a blocking wait, measured at 14.5 µs per
/// `join` against 36 ns between workers. An algorithm made of many short
/// rounds opens with `in_pool` so it pays once. Task context (meter scope,
/// query arena) follows `f` as it follows any forked job.
pub fn in_pool<R, F>(f: F) -> R
where
    F: FnOnce() -> R + Send,
    R: Send,
{
    if in_worker() {
        f()
    } else {
        global_pool().install(f)
    }
}

/// Create a fork scope (see [`Pool::scope`]) on the current thread's pool:
/// the pool this worker belongs to, or the global pool for external threads.
pub fn scope<'scope, F, R>(f: F) -> R
where
    F: FnOnce(&Scope<'scope>) -> R,
{
    let current = WorkerThread::current();
    if current.is_null() {
        global_pool().scope(f)
    } else {
        // SAFETY: guarded by the non-null check above; the registry Arc is
        // cloned before this call returns, so no dangling use.
        scope_on(Arc::clone(&unsafe { &*current }.registry), f)
    }
}

/// Run `a` and `b`, potentially in parallel, returning both results.
///
/// This is the binary `fork` of the T-RAM model (§3.1). Panics in either
/// closure propagate to the caller after both branches have finished.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    let current = WorkerThread::current();
    if current.is_null() {
        // External thread: move the whole join into the global pool.
        return global_pool().install(|| join(a, b));
    }
    // SAFETY: `current` is non-null (checked above), so it points at the
    // live WorkerThread of this thread for the duration of the call.
    let worker = unsafe { &*current };
    join_on_worker(worker, a, b)
}

fn join_on_worker<A, B, RA, RB>(worker: &WorkerThread, a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    let job_b = StackJob::<SpinLatch, B, RB>::new(SpinLatch::new(), b);
    // SAFETY: `job_b` lives on this stack frame until `take_result` below;
    // the latch protocol guarantees the frame outlives any thief's use.
    let job_b_ref = unsafe { job_b.as_job_ref() };
    let job_b_id = job_b_ref.id();
    worker.push(job_b_ref);

    let result_a = std::panic::catch_unwind(std::panic::AssertUnwindSafe(a));

    // Either pop `b` back and run it inline, or help out until the thief is done.
    while !job_b.latch().probe() {
        match worker.pop() {
            Some(job) => {
                if job.id() == job_b_id {
                    // SAFETY: we popped `b` back ourselves, so no thief
                    // holds it; it runs exactly once, here.
                    unsafe { job_b.run_inline() };
                    break;
                }
                // A leftover job pushed during `a` (only possible if `a`
                // panicked mid-join); execute it to preserve progress.
                // SAFETY: popped refs are live and executed exactly once.
                unsafe { job.execute() };
            }
            None => {
                worker.wait_until(job_b.latch());
                break;
            }
        }
    }
    debug_assert!(job_b.latch().probe());

    // SAFETY: the latch probe above confirmed `b` finished, so the result
    // slot is filled and no other thread touches the job again.
    let result_b = unsafe { job_b.take_result() };
    match result_a {
        Ok(ra) => (ra, result_b),
        Err(p) => std::panic::resume_unwind(p),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    fn fib(n: u64) -> u64 {
        if n < 2 {
            return n;
        }
        let (a, b) = join(|| fib(n - 1), || fib(n - 2));
        a + b
    }

    #[test]
    fn join_nested_fib() {
        assert_eq!(fib(16), 987);
    }

    #[test]
    fn join_returns_both_results() {
        let (a, b) = join(|| "left", || vec![1, 2, 3]);
        assert_eq!(a, "left");
        assert_eq!(b, vec![1, 2, 3]);
    }

    #[test]
    fn join_propagates_panic_from_b() {
        let r = std::panic::catch_unwind(|| {
            join(|| 1, || -> usize { panic!("b panicked") });
        });
        assert!(r.is_err());
    }

    #[test]
    fn join_propagates_panic_from_a() {
        let r = std::panic::catch_unwind(|| {
            join(|| -> usize { panic!("a panicked") }, || 1);
        });
        assert!(r.is_err());
    }

    #[test]
    fn single_thread_pool_executes() {
        let pool = Pool::new(1);
        let v = pool.install(|| {
            let (a, b) = join(|| 2, || 3);
            a + b
        });
        assert_eq!(v, 5);
    }

    #[test]
    fn dedicated_pool_counts_workers() {
        let pool = Pool::new(3);
        let seen = AtomicU64::new(0);
        pool.install(|| {
            let (_, _) = join(
                || seen.fetch_add(1, Ordering::Relaxed),
                || seen.fetch_add(1, Ordering::Relaxed),
            );
        });
        assert_eq!(seen.load(Ordering::Relaxed), 2);
        assert_eq!(pool.num_threads(), 3);
    }

    #[test]
    fn install_from_external_thread() {
        let total: u64 = global_pool().install(|| (0..100u64).sum());
        assert_eq!(total, 4950);
    }

    #[test]
    fn worker_index_inside_pool() {
        assert_eq!(worker_index(), None);
        let idx = global_pool().install(worker_index);
        assert!(idx.is_some());
        assert!(idx.unwrap() < global_pool().num_threads());
    }

    #[test]
    fn injected_jobs_counts_external_entries_only() {
        let pool = Pool::new(1);
        assert_eq!(pool.injected_jobs(), 0);
        // One external install; everything forked inside stays on the deques.
        let inner = pool.install(|| {
            let (a, b) = join(|| 1, || 2);
            // Already on a worker: `in_pool` and a nested install run inline.
            a + b + in_pool(|| 3) + pool.install(|| 4)
        });
        assert_eq!(inner, 10);
        assert_eq!(pool.injected_jobs(), 1);
        // Each spawn made from outside the pool is its own hand-off.
        pool.scope(|s| {
            for _ in 0..3 {
                s.spawn(|_| ());
            }
        });
        assert_eq!(pool.injected_jobs(), 4);
    }

    #[test]
    fn in_pool_enters_the_global_pool_from_outside() {
        assert!(!in_worker());
        assert!(in_pool(in_worker));
    }

    #[test]
    fn pool_drop_terminates() {
        let pool = Pool::new(2);
        pool.install(|| ());
        drop(pool); // must not hang
    }

    #[test]
    fn scope_runs_all_spawns() {
        let hits = AtomicU64::new(0);
        global_pool().scope(|s| {
            for _ in 0..100 {
                s.spawn(|_| {
                    hits.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(hits.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn scope_spawns_borrow_stack_data() {
        let mut results = [0u64; 8];
        {
            let chunks: Vec<&mut u64> = results.iter_mut().collect();
            scope(|s| {
                for (i, slot) in chunks.into_iter().enumerate() {
                    s.spawn(move |_| *slot = (i * i) as u64);
                }
            });
        }
        assert!(results
            .iter()
            .enumerate()
            .all(|(i, &x)| x == (i * i) as u64));
    }

    #[test]
    fn scope_returns_body_result() {
        let r = global_pool().scope(|s| {
            s.spawn(|_| ());
            "done"
        });
        assert_eq!(r, "done");
    }

    #[test]
    fn scope_nested_spawns_and_joins() {
        let total = AtomicU64::new(0);
        scope(|s| {
            for _ in 0..4 {
                s.spawn(|s| {
                    // Fork-join inside a spawned job; also nested spawns.
                    let (a, b) = join(|| 1u64, || 2u64);
                    total.fetch_add(a + b, Ordering::Relaxed);
                    s.spawn(|_| {
                        total.fetch_add(10, Ordering::Relaxed);
                    });
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 4 * 3 + 4 * 10);
    }

    #[test]
    fn scope_propagates_spawn_panic() {
        let r = std::panic::catch_unwind(|| {
            global_pool().scope(|s| {
                s.spawn(|_| panic!("spawned job panicked"));
            });
        });
        assert!(r.is_err());
    }

    #[test]
    fn scope_completes_remaining_jobs_despite_panic() {
        let hits = Arc::new(AtomicU64::new(0));
        let hits2 = Arc::clone(&hits);
        let r = std::panic::catch_unwind(move || {
            global_pool().scope(|s| {
                for i in 0..50 {
                    let hits = Arc::clone(&hits2);
                    s.spawn(move |_| {
                        if i == 13 {
                            panic!("one bad job");
                        }
                        hits.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
        });
        assert!(r.is_err());
        assert_eq!(
            hits.load(Ordering::Relaxed),
            49,
            "other jobs must still run"
        );
    }

    /// Scopes submitted from several external threads at once share one
    /// worker set without deadlock or starvation — the serving pattern.
    #[test]
    fn concurrent_scopes_from_external_threads() {
        let pool = Arc::new(Pool::new(3));
        let total = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let pool = Arc::clone(&pool);
                let total = Arc::clone(&total);
                std::thread::spawn(move || {
                    for _ in 0..16 {
                        pool.scope(|s| {
                            for _ in 0..8 {
                                let total = Arc::clone(&total);
                                s.spawn(move |_| {
                                    total.fetch_add(t + 1, Ordering::Relaxed);
                                });
                            }
                        });
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(total.load(Ordering::Relaxed), 16 * 8 * (1 + 2 + 3 + 4));
    }

    /// Regression test for the lost-wakeup race: `notify()` used to check
    /// `sleepers` with a relaxed load outside the lock, so work published
    /// while a worker was committing to park could miss the notify and stall
    /// for the full park timeout (up to 20 ms). The producer below fires
    /// exactly when the consumer is between its work check and its park —
    /// the racy window — and bounds the average wakeup latency. All
    /// harness flags use SeqCst so any measured stall is attributable to
    /// the sleep protocol itself, not to the test's own synchronization.
    #[test]
    fn sleep_no_lost_wakeup() {
        use std::sync::atomic::AtomicU64;
        use std::sync::Arc;
        use std::time::Instant;

        const ROUNDS: u32 = 100;
        let sleep = Arc::new(Sleep::new());
        let work = Arc::new(AtomicBool::new(false));
        let done = Arc::new(AtomicBool::new(false));
        // Bumped by the consumer right before it commits to park.
        let parking = Arc::new(AtomicU64::new(0));

        let consumer = {
            let (sleep, work, done, parking) = (
                Arc::clone(&sleep),
                Arc::clone(&work),
                Arc::clone(&done),
                Arc::clone(&parking),
            );
            std::thread::spawn(move || {
                // ORDERING: SeqCst harness flags (see the test doc).
                while !done.load(Ordering::SeqCst) {
                    // ORDERING: SeqCst harness flag
                    if work.swap(false, Ordering::SeqCst) {
                        continue;
                    }
                    // ORDERING: SeqCst harness flag
                    parking.fetch_add(1, Ordering::SeqCst);
                    // Hand the producer the CPU *inside* the racy window
                    // (after the work check, before the park) so the race is
                    // exercised every round even on a single-core host.
                    std::thread::yield_now();
                    // streak 640 => the maximum 20 ms park timeout, so a
                    // lost wakeup costs the full stall.
                    sleep.sleep(640, || work.load(Ordering::SeqCst)); // ORDERING: SeqCst harness flag
                }
            })
        };

        let mut latencies = Vec::with_capacity(ROUNDS as usize);
        for _ in 0..ROUNDS {
            // Wait until the consumer is about to park, then race it.
            let seen = parking.load(Ordering::SeqCst); // ORDERING: SeqCst harness flag
                                                       // ORDERING: SeqCst harness flag
            while parking.load(Ordering::SeqCst) == seen {
                std::thread::yield_now();
            }
            let t0 = Instant::now();
            work.store(true, Ordering::SeqCst); // ORDERING: SeqCst harness flag
            sleep.notify();
            // ORDERING: SeqCst harness flag
            while work.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
            latencies.push(t0.elapsed());
        }
        done.store(true, Ordering::SeqCst); // ORDERING: SeqCst harness flag
        while !consumer.is_finished() {
            sleep.notify();
            std::thread::yield_now();
        }
        consumer.join().unwrap();

        // Lost wakeups cost the full 20 ms timeout and this producer targets
        // the racy window every round, so the old protocol pushes the
        // *median* to ~20 ms. A correct protocol wakes in microseconds; the
        // median (unlike the mean) shrugs off the occasional multi-ms
        // scheduling outlier from concurrently running tests.
        latencies.sort_unstable();
        let median = latencies[latencies.len() / 2];
        assert!(
            median < Duration::from_millis(5),
            "median wakeup latency {median:?} (max {:?})",
            latencies.last().unwrap()
        );
    }
}
