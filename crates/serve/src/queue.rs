//! Bounded MPMC request queue with priority scheduling, batch draining, and
//! completion tickets.
//!
//! Deliberately a straightforward mutex + condvar queue: request dispatch is
//! orders of magnitude less frequent than the work-stealing that executes
//! each query, so the lock is never the bottleneck — and a bounded queue is
//! the first stage of admission control (producers block when the service is
//! saturated instead of buffering unboundedly).
//!
//! # Priority classes and aging
//!
//! Requests land in one deque per [`Priority`] class (point lookups ahead of
//! probes ahead of analytics). Under [`SchedPolicy::default`] a worker
//! serves the *most urgent non-empty class* — so a freshly arrived point
//! lookup overtakes queued analytics (counted as a *preemption*) — but each
//! class head's **effective** priority improves by one level per
//! `age_after` spent waiting, so an analytics query that has waited long
//! enough competes as a point lookup (an *aged promotion*) and can never
//! starve: its wait is bounded by `2·age_after` plus the service time of the
//! point-lookup backlog present when it aged. Ties between classes at equal
//! effective priority go to the earlier arrival. [`SchedPolicy::fifo`]
//! disables all of this and serves strictly in arrival order — the baseline
//! the `serve-sched` benchmark measures against.
//!
//! # Batch draining and FIFO fairness
//!
//! [`RequestQueue::pop_batch`] forms a [`QueryBatch`](crate::batch) for the
//! serving workers: it picks the scheduled head (which fixes the batch's
//! [`BatchClass`]) and then *selectively* drains every same-class request
//! behind it **within the head's priority class**, up to the policy's
//! `max_batch`. Same-parameter analytics (equal `(iters, damping)` PageRank,
//! equal-`k` k-core) share a class and therefore a run. Other requests are
//! left **in their arrival positions** — they are never popped and re-pushed
//! at the tail, so a stream of batchable queries cannot starve an
//! incompatible one that arrived earlier (regression-tested in
//! `tests/service.rs`). If the batch is still short and the policy allows a
//! linger, the worker waits (releasing the lock) up to `max_linger` for more
//! compatible arrivals before dispatching.

use crate::query::{BatchClass, Priority, Query, QueryResult};
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Scheduling policy: how the queue orders requests across [`Priority`]
/// classes.
#[derive(Clone, Debug)]
pub struct SchedPolicy {
    /// `true` = deadline scheduling (urgent classes first, with aging);
    /// `false` = strict arrival order, ignoring classes entirely.
    pub priority: bool,
    /// Waiting this long at the head of its class lifts a request's
    /// effective priority by one level (two levels after `2·age_after`, …),
    /// so lower classes age into the most urgent one instead of starving.
    /// `Duration::ZERO` disables aging (strict class priority).
    pub age_after: Duration,
}

impl Default for SchedPolicy {
    fn default() -> Self {
        Self {
            priority: true,
            age_after: Duration::from_millis(50),
        }
    }
}

impl SchedPolicy {
    /// Strict arrival-order scheduling — the pre-scheduler behaviour, kept
    /// for A/B baselines and for tests that assert global FIFO order.
    pub fn fifo() -> Self {
        Self {
            priority: false,
            age_after: Duration::ZERO,
        }
    }
}

/// Counters the scheduler accumulates under the queue lock (drained into
/// [`crate::ServiceStats`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct SchedCounters {
    /// Dispatches where a lower class was served first because its head had
    /// aged into a more urgent effective priority.
    pub aged_promotions: u64,
    /// Dispatches where the served request bypassed an earlier-arrived
    /// request of a less urgent class.
    pub preemptions: u64,
}

/// Batch-formation policy: how aggressively the scheduler coalesces
/// compatible queued queries into one shared execution.
#[derive(Clone, Debug)]
pub struct BatchPolicy {
    /// Largest batch a worker may drain (additionally capped by the class's
    /// own limit, e.g. 64 sources for bit-parallel BFS). `1` disables
    /// batching entirely.
    pub max_batch: usize,
    /// How long a worker may hold an under-full batch open waiting for more
    /// compatible arrivals. `Duration::ZERO` (the default) dispatches
    /// immediately with whatever is already queued — backlogged workloads
    /// still form full batches, and an isolated query never pays extra
    /// latency.
    pub max_linger: Duration,
}

impl Default for BatchPolicy {
    fn default() -> Self {
        Self {
            max_batch: 32,
            max_linger: Duration::ZERO,
        }
    }
}

/// One queued request: the query plus its completion ticket.
pub struct Pending {
    pub(crate) id: u64,
    pub(crate) query: Query,
    pub(crate) ticket: Arc<TicketState>,
    /// Queue-assigned arrival sequence (set by `push`; the cross-class
    /// arrival order the FIFO mode and tie-breaks use).
    seq: u64,
    /// Enqueue time (set by `push`; drives aging).
    at: Instant,
}

impl Pending {
    /// Build a free-standing pending request plus the [`Ticket`] that will
    /// redeem it — the building block for driving a [`RequestQueue`]
    /// directly (scheduler tests, embedders with their own dispatch loop).
    /// [`crate::GraphService::submit`] does this internally.
    pub fn new(id: u64, query: Query) -> (Self, Ticket) {
        let state = Arc::new(TicketState::new());
        (
            Self {
                id,
                query,
                ticket: Arc::clone(&state),
                seq: 0,
                at: Instant::now(),
            },
            Ticket { state },
        )
    }

    /// Submission sequence number.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The queued query.
    pub fn query(&self) -> &Query {
        &self.query
    }
}

struct QueueInner {
    /// One FIFO lane per [`Priority`] class.
    classes: [VecDeque<Pending>; Priority::COUNT],
    /// Total waiting requests across all lanes.
    len: usize,
    /// Next arrival sequence number to stamp.
    next_seq: u64,
    counters: SchedCounters,
    closed: bool,
}

impl QueueInner {
    /// The class lane the scheduler should serve next, or `None` when empty.
    ///
    /// FIFO mode: the lane whose head arrived first. Priority mode: the lane
    /// whose head has the best `(effective priority, arrival)` pair, where
    /// the effective priority of a head that has waited `w` is its class
    /// lowered by `w / age_after` levels (saturating at the most urgent).
    fn select(&self, sched: &SchedPolicy, now: Instant) -> Option<usize> {
        let mut best: Option<(usize, usize, u64)> = None; // (lane, eff, seq)
        for (lane, q) in self.classes.iter().enumerate() {
            let Some(head) = q.front() else { continue };
            let eff = if !sched.priority {
                0
            } else if sched.age_after.is_zero() {
                lane
            } else {
                let steps = (now.saturating_duration_since(head.at).as_nanos()
                    / sched.age_after.as_nanos().max(1)) as usize;
                lane.saturating_sub(steps)
            };
            let better = match best {
                None => true,
                Some((_, beff, bseq)) => (eff, head.seq) < (beff, bseq),
            };
            if better {
                best = Some((lane, eff, head.seq));
            }
        }
        best.map(|(lane, _, _)| lane)
    }

    /// Record scheduler effects of serving `lane`'s head: an aged promotion
    /// if a less urgent class won only because its head aged into a better
    /// effective priority (some more urgent lane was non-empty), a
    /// preemption if the winner bypassed an earlier arrival waiting in a
    /// less urgent lane.
    fn note_dispatch(&mut self, sched: &SchedPolicy, lane: usize) {
        if !sched.priority {
            return;
        }
        let head_seq = self.classes[lane].front().expect("selected lane").seq;
        if lane > 0 && self.classes[..lane].iter().any(|q| !q.is_empty()) {
            self.counters.aged_promotions += 1;
        }
        let preempted = self
            .classes
            .iter()
            .enumerate()
            .any(|(l, q)| l > lane && q.front().is_some_and(|h| h.seq < head_seq));
        if preempted {
            self.counters.preemptions += 1;
        }
    }
}

/// Bounded multi-producer multi-consumer priority queue.
pub struct RequestQueue {
    inner: Mutex<QueueInner>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
}

impl RequestQueue {
    /// A queue admitting at most `capacity` waiting requests.
    pub fn new(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(QueueInner {
                classes: Default::default(),
                len: 0,
                next_seq: 0,
                counters: SchedCounters::default(),
                closed: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Enqueue a request, blocking while the queue is full.
    ///
    /// # Panics
    /// Panics if the service has been shut down.
    pub fn push(&self, mut pending: Pending) {
        let mut inner = self.inner.lock();
        while inner.len >= self.capacity && !inner.closed {
            self.not_full.wait(&mut inner);
        }
        assert!(!inner.closed, "submit on a shut-down GraphService");
        pending.seq = inner.next_seq;
        inner.next_seq += 1;
        pending.at = Instant::now();
        let lane = pending.query.priority().index();
        inner.classes[lane].push_back(pending);
        inner.len += 1;
        drop(inner);
        // notify_all, not notify_one: a worker lingering in `pop_batch` also
        // waits on `not_empty`, and a single wakeup could land on it, get
        // ignored (the new item may be incompatible with its batch), and
        // leave a genuinely idle worker parked while the request stalls for
        // the whole linger window.
        self.not_empty.notify_all();
    }

    /// Dequeue a single request under `sched`, blocking while the queue is
    /// empty. Returns `None` once the queue is closed *and* drained —
    /// workers finish every accepted request before exiting.
    pub fn pop(&self, sched: &SchedPolicy) -> Option<Pending> {
        let mut inner = self.inner.lock();
        loop {
            let now = Instant::now();
            if let Some(lane) = inner.select(sched, now) {
                inner.note_dispatch(sched, lane);
                let p = inner.classes[lane].pop_front().expect("selected lane");
                inner.len -= 1;
                drop(inner);
                self.not_full.notify_one();
                return Some(p);
            }
            if inner.closed {
                return None;
            }
            self.not_empty.wait(&mut inner);
        }
    }

    /// Dequeue a batch: the scheduled head request plus every same-class
    /// request behind it in its priority lane (up to the policy and class
    /// caps), leaving incompatible requests in their arrival positions.
    /// Blocks while the queue is empty; returns `None` once closed and
    /// drained. The returned batch is never empty and preserves arrival
    /// order among its members.
    pub fn pop_batch(
        &self,
        policy: &BatchPolicy,
        sched: &SchedPolicy,
    ) -> Option<crate::batch::QueryBatch> {
        self.pop_batch_capped(policy, sched, &|_| usize::MAX)
    }

    /// [`RequestQueue::pop_batch`] with a per-class member cap — the hook
    /// the measured-cost admission model uses to stop forming batches the
    /// DRAM budget could not hold (`afford` returns how many members of a
    /// class the budget can currently afford; the head always dispatches).
    pub fn pop_batch_capped(
        &self,
        policy: &BatchPolicy,
        sched: &SchedPolicy,
        afford: &dyn Fn(BatchClass) -> usize,
    ) -> Option<crate::batch::QueryBatch> {
        let mut inner = self.inner.lock();
        let lane = loop {
            let now = Instant::now();
            if let Some(lane) = inner.select(sched, now) {
                inner.note_dispatch(sched, lane);
                break lane;
            }
            if inner.closed {
                return None;
            }
            self.not_empty.wait(&mut inner);
        };
        let class = inner.classes[lane]
            .front()
            .expect("selected lane")
            .query
            .batch_class();
        let cap = policy
            .max_batch
            .max(1)
            .min(class.max_batch())
            .min(afford(class).max(1));
        let mut batch: Vec<Pending> = Vec::new();
        let deadline = Instant::now() + policy.max_linger;
        loop {
            let before = inner.len;
            let taken = drain_compatible(&mut inner.classes[lane], class, cap, &mut batch);
            inner.len -= taken;
            if inner.len < before {
                self.not_full.notify_all();
            }
            if batch.len() >= cap || inner.closed {
                break;
            }
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            // Linger (lock released) for more compatible arrivals; any
            // wakeup — new item, closure, or timeout — loops back to drain.
            let _ = self.not_empty.wait_for(&mut inner, deadline - now);
        }
        debug_assert!(!batch.is_empty(), "head request always joins the batch");
        Some(crate::batch::QueryBatch::new(batch, class))
    }

    /// Close the queue: wake every producer and consumer.
    pub fn close(&self) {
        self.inner.lock().closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Requests currently waiting (observability).
    pub fn depth(&self) -> usize {
        self.inner.lock().len
    }

    /// Scheduler counters accumulated so far (see [`SchedCounters`]).
    pub fn sched_counters(&self) -> SchedCounters {
        self.inner.lock().counters
    }
}

/// Move every `class`-compatible request from `items` into `batch` (front to
/// back, up to `cap` total members), compacting the survivors **in place**:
/// an incompatible request keeps its position relative to every other
/// survivor instead of being re-queued at the tail. Returns how many
/// requests were taken.
fn drain_compatible(
    items: &mut VecDeque<Pending>,
    class: BatchClass,
    cap: usize,
    batch: &mut Vec<Pending>,
) -> usize {
    if batch.len() >= cap || items.is_empty() {
        return 0;
    }
    let before = batch.len();
    let mut kept: VecDeque<Pending> = VecDeque::with_capacity(items.len());
    for p in items.drain(..) {
        if batch.len() < cap && p.query.batch_class() == class {
            batch.push(p);
        } else {
            kept.push_back(p);
        }
    }
    *items = kept;
    batch.len() - before
}

/// Completion slot shared between a worker and the waiting client.
pub(crate) struct TicketState {
    slot: Mutex<Option<QueryResult>>,
    done: Condvar,
}

impl TicketState {
    pub(crate) fn new() -> Self {
        Self {
            slot: Mutex::new(None),
            done: Condvar::new(),
        }
    }

    pub(crate) fn fulfill(&self, result: QueryResult) {
        let mut slot = self.slot.lock();
        debug_assert!(slot.is_none(), "ticket fulfilled twice");
        *slot = Some(result);
        self.done.notify_all();
    }
}

/// A handle to one in-flight query; redeem it with [`Ticket::wait`].
pub struct Ticket {
    pub(crate) state: Arc<TicketState>,
}

impl Ticket {
    /// Block until the query completes and take its result.
    pub fn wait(self) -> QueryResult {
        let mut slot = self.state.slot.lock();
        loop {
            if let Some(r) = slot.take() {
                return r;
            }
            self.state.done.wait(&mut slot);
        }
    }

    /// Whether the result is ready (does not consume it).
    pub fn is_ready(&self) -> bool {
        self.state.slot.lock().is_some()
    }
}
