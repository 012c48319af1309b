#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! Concurrent multi-query serving over one shared read-only graph.
//!
//! Sage's premise — one big immutable graph in NVRAM, cheap `O(n)`-DRAM
//! computations over it (the PSAM, §3) — is exactly the shape of a
//! production graph service: load a snapshot once, answer many concurrent
//! queries against it. This crate provides that serving layer on top of the
//! engine's scoped-runtime substrate:
//!
//! * [`GraphService`] — owns the graph (typically an `NvRegion`-backed,
//!   `PROT_READ`-mapped [`sage_graph::Csr`]), a bounded MPMC request queue,
//!   and a pool of serving workers;
//! * [`Query`]/[`Response`] — the typed request surface (BFS, PageRank over
//!   a vertex subset, k-core, connectivity membership, 1/2-hop
//!   neighborhoods);
//! * **batched execution** — workers drain compatible queued queries into a
//!   [`batch::QueryBatch`] and answer them with *one* engine run: up to 64
//!   BFS point queries share a single bit-parallel
//!   [`msbfs`](sage_core::algo::msbfs) traversal, and any number of
//!   connectivity probes share one labeling, so k point lookups cost one
//!   traversal instead of k (the [`BatchPolicy`] knobs control batch size
//!   and linger, and incompatible requests keep their FIFO positions);
//! * admission control — each execution unit reserves its estimated `O(n)`
//!   DRAM from a shared [`admission::dram_estimate`]/
//!   [`admission::batch_estimate`]-based budget before running, so
//!   aggregate small-memory use stays bounded no matter the offered load
//!   (a batch reserves one set of shared state, not one per member);
//! * per-query attribution — every execution unit runs under its own
//!   [`sage_nvram::MeterScope`] and a per-worker [`sage_core::QueryArena`];
//!   a shared batch run's traffic is split back across members by
//!   touched-word shares, word-exactly, so results carry a
//!   [`MeterSnapshot`](sage_nvram::MeterSnapshot) (zero `graph_write`
//!   words, per the Sage discipline) and per-query sums still reconcile
//!   with the global meter.
//!
//! Parallelism is two-level: serving workers dispatch execution units
//! concurrently, and each unit's internal `par_for`/`join` work interleaves
//! on the shared work-stealing pool, with meter scope and arena following
//! the tasks via `sage_parallel::context`.
//!
//! Snapshots are **live-updatable**: a [`DeltaOverlay`]
//! absorbs batched edge updates in DRAM, and
//! [`GraphService::publish_updates`] compacts base + delta into a fresh
//! snapshot, flushes it to NVRAM under a [write budget](sage_nvram::WriteBudget)
//! (the one sanctioned `graph_write` site), and atomically swaps the serving
//! snapshot — in-flight queries keep the old epoch, and every result is
//! tagged with the epoch it answered from ([`QueryResult::epoch`]).
//!
//! ```
//! use sage_serve::{Query, Response, ServiceBuilder};
//! use sage_graph::gen;
//!
//! let g = gen::rmat(8, 8, gen::RmatParams::default(), 7);
//! let service = ServiceBuilder::new().start(g);
//! let result = service.query(Query::Bfs { src: 0 });
//! assert_eq!(result.traffic.graph_write, 0); // Sage never writes the graph
//! assert_eq!(result.epoch, 0); // answered from the initial snapshot
//! match result.response {
//!     Response::Bfs { reached, .. } => assert!(reached >= 1),
//!     _ => unreachable!(),
//! }
//! ```

pub mod admission;
pub mod batch;
pub mod cache;
mod query;
pub mod queue;
pub mod sharded;
pub mod snapshot;

pub use admission::{
    batch_estimate, batch_estimate_for, dram_estimate, dram_estimate_for, CostKind, MeasuredCost,
};
pub use batch::QueryBatch;
pub use cache::{CacheKey, CacheStats, ResultCache};
pub use query::{BatchClass, Priority, Query, QueryResult, Response, DEFAULT_DAMPING};
pub use queue::{BatchPolicy, SchedCounters, SchedPolicy, Ticket};
pub use sharded::ShardedService;
pub use snapshot::{PublishError, PublishReport, Publishable, ServiceBuilder, Snapshot};

use admission::DramBudget;
use queue::{Pending, RequestQueue};
use sage_core::{DeltaOverlay, QueryArena};
use sage_graph::Graph;
use sage_nvram::{meter, MeterScope, WriteBudget};
use snapshot::SnapshotCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Tuning knobs for a [`GraphService`].
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Serving worker threads (concurrent execution-unit dispatchers). Each
    /// unit's internal parallelism additionally fans out on the shared
    /// work-stealing pool. `0` = default (4).
    pub workers: usize,
    /// Bounded request-queue depth; producers block when it is full.
    /// `0` = default (256).
    pub queue_capacity: usize,
    /// Total DRAM (bytes) that admitted execution units may hold
    /// simultaneously, per the estimates in [`admission`].
    /// `0` = auto: four times the largest single-query estimate.
    pub dram_budget_bytes: u64,
    /// Batch-formation policy: how aggressively workers coalesce compatible
    /// queued queries into shared executions. The default drains up to 32
    /// already-queued compatible requests with no linger; set
    /// `max_batch: 1` to disable batching entirely.
    pub batch: BatchPolicy,
    /// Scheduling policy: deadline classes with aging (the default), or
    /// [`SchedPolicy::fifo`] for strict arrival order.
    pub sched: SchedPolicy,
    /// Byte budget of the epoch-keyed result cache ([`cache::ResultCache`]).
    /// `0` (the default) disables caching entirely — every query runs the
    /// engine and carries its own exact traffic attribution.
    pub cache_bytes: u64,
    /// Use the measured cost model ([`admission::MeasuredCost`]) to price
    /// admission and cap batch formation, with the a-priori estimate as a
    /// safety clamp. `false` prices everything a-priori (the pre-measured
    /// behaviour; some capacity tests rely on its determinism).
    pub measured_admission: bool,
    /// NVRAM write budget (8-byte words) one publish may flush
    /// ([`GraphService::publish_updates`]); `0` = unlimited. The gate runs
    /// *before* the first word is written, so a refused publish leaves the
    /// store untouched.
    pub publish_budget_words: u64,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            workers: 0,
            queue_capacity: 0,
            dram_budget_bytes: 0,
            batch: BatchPolicy::default(),
            sched: SchedPolicy::default(),
            cache_bytes: 0,
            measured_admission: true,
            publish_budget_words: 0,
        }
    }
}

impl ServiceConfig {
    /// Interactive preset: tight batches with a short linger so an open-loop
    /// trickle of point lookups still coalesces, deadline scheduling on, a
    /// modest result cache for hot sources.
    pub fn interactive() -> Self {
        Self {
            batch: BatchPolicy {
                max_batch: 32,
                max_linger: Duration::from_micros(200),
            },
            cache_bytes: 4 << 20,
            ..Self::default()
        }
    }

    /// Throughput preset: big batches held open longer (occupancy over
    /// first-query latency), deadline scheduling on, a larger cache.
    pub fn throughput() -> Self {
        Self {
            batch: BatchPolicy {
                max_batch: 64,
                max_linger: Duration::from_millis(1),
            },
            cache_bytes: 16 << 20,
            ..Self::default()
        }
    }
}

/// Point-in-time serving statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServiceStats {
    /// Queries completed since start (batch members each count once).
    pub completed: u64,
    /// Execution units (batches or single queries) currently running.
    pub inflight: u64,
    /// Highest concurrent execution level observed (units, not members —
    /// bounded by the worker count).
    pub peak_inflight: u64,
    /// Highest simultaneous admitted-DRAM reservation observed (bytes).
    pub peak_inflight_bytes: u64,
    /// Requests currently waiting in the queue.
    pub queue_depth: u64,
    /// Execution units dispatched (each unit is one engine run).
    pub batches: u64,
    /// Queries that were answered as part of a multi-member batch.
    pub batched_queries: u64,
    /// Largest batch dispatched so far.
    pub peak_batch: u64,
    /// Queries answered straight from the result cache (no engine run;
    /// counted in `completed` too).
    pub cache_hits: u64,
    /// Cache lookups that missed (0 when the cache is disabled).
    pub cache_misses: u64,
    /// Dispatches where an aged lower-class request overtook the natural
    /// priority order (see [`queue::SchedCounters`]).
    pub aged_promotions: u64,
    /// Dispatches where an urgent request bypassed an earlier arrival of a
    /// less urgent class.
    pub preemptions: u64,
    /// Completed point lookups ([`Priority::PointLookup`]).
    pub completed_point_lookups: u64,
    /// Completed probes ([`Priority::Probe`]).
    pub completed_probes: u64,
    /// Completed analytics ([`Priority::Analytics`]).
    pub completed_analytics: u64,
    /// Snapshots published (including bare epoch advances) since start.
    pub publishes: u64,
    /// The epoch the service is currently serving (tags every fresh result).
    pub epoch: u64,
}

#[derive(Default)]
struct StatsInner {
    completed: AtomicU64,
    inflight: AtomicU64,
    peak_inflight: AtomicU64,
    inflight_bytes: AtomicU64,
    peak_inflight_bytes: AtomicU64,
    batches: AtomicU64,
    batched_queries: AtomicU64,
    peak_batch: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    completed_by_class: [AtomicU64; Priority::COUNT],
    publishes: AtomicU64,
}

impl StatsInner {
    // All of these are advisory monitoring counters: nothing is published
    // through them and no admission decision reads them, so Relaxed RMWs
    // suffice (each peak only depends on the value its own fetch_add
    // returned, a data dependency). They were SeqCst before the atomics
    // audit; the downgrade is behavior-preserving for every reader, which
    // either polls (`stats`, inherently approximate) or runs after the
    // service has quiesced (tests, joined via channel/thread sync).
    fn on_admit(&self, members: u64, bytes: u64) {
        let now = self.inflight.fetch_add(1, Ordering::Relaxed) + 1;
        self.peak_inflight.fetch_max(now, Ordering::Relaxed);
        let b = self.inflight_bytes.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.peak_inflight_bytes.fetch_max(b, Ordering::Relaxed);
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.peak_batch.fetch_max(members, Ordering::Relaxed);
        if members > 1 {
            self.batched_queries.fetch_add(members, Ordering::Relaxed);
        }
    }

    fn on_finish(&self, members: u64, bytes: u64) {
        self.inflight.fetch_sub(1, Ordering::Relaxed);
        self.inflight_bytes.fetch_sub(bytes, Ordering::Relaxed);
        self.completed.fetch_add(members, Ordering::Relaxed);
    }

    fn on_member_class(&self, pr: Priority) {
        self.completed_by_class[pr.index()].fetch_add(1, Ordering::Relaxed);
    }

    fn on_cache_hit(&self, pr: Priority) {
        self.cache_hits.fetch_add(1, Ordering::Relaxed);
        // A hit completes the query without ever reaching a worker.
        self.completed.fetch_add(1, Ordering::Relaxed);
        self.on_member_class(pr);
    }

    fn on_cache_miss(&self) {
        self.cache_misses.fetch_add(1, Ordering::Relaxed);
    }
}

/// The execution back end a service routes batches to. One implementation
/// serves a monolithic snapshot ([`GraphService`]), another scatter-gathers
/// over a partitioned one ([`ShardedService`]); the queue, admission,
/// worker, and attribution machinery in [`ServiceCore`] is shared verbatim.
pub(crate) trait Engine: Send + Sync + 'static {
    /// Vertex count of the *current* snapshot (query validation bound).
    fn num_vertices(&self) -> usize;
    /// The epoch the engine is currently serving.
    fn current_epoch(&self) -> u64;
    /// DRAM bytes one execution unit of `batch` should reserve.
    fn estimate(&self, batch: &QueryBatch) -> u64;
    /// Execute every member of `batch`, one outcome per member, in order,
    /// against **one** snapshot version loaded at unit start; returns the
    /// epoch of that snapshot so results and cache keys tag the graph that
    /// actually answered them (a publish mid-run never mixes epochs).
    fn run(&self, batch: &QueryBatch) -> (u64, Vec<batch::BatchOutcome>);
}

struct Shared<E> {
    engine: E,
    queue: RequestQueue,
    budget: DramBudget,
    stats: StatsInner,
    policy: BatchPolicy,
    sched: SchedPolicy,
    /// Epoch-keyed result cache; `None` when `cache_bytes == 0`.
    cache: Option<ResultCache>,
    /// Measured per-class cost model (fed by workers even when
    /// `measured_admission` is off, so it can be inspected).
    measured: MeasuredCost,
    measured_admission: bool,
    /// Per-publish NVRAM write cap (see [`ServiceConfig::publish_budget_words`]).
    publish_budget: WriteBudget,
}

/// Engine-generic service chassis: bounded queue, FIFO DRAM admission,
/// serving workers, ticket fulfillment. [`GraphService`] and
/// [`ShardedService`] are thin typed fronts over this.
pub(crate) struct ServiceCore<E: Engine> {
    shared: Arc<Shared<E>>,
    workers: Vec<std::thread::JoinHandle<()>>,
    next_id: AtomicU64,
}

impl<E: Engine> ServiceCore<E> {
    pub(crate) fn start(engine: E, config: ServiceConfig) -> Self {
        let n = engine.num_vertices();
        let budget_bytes = if config.dram_budget_bytes == 0 {
            4 * admission::max_estimate(n)
        } else {
            config.dram_budget_bytes
        };
        let queue_capacity = if config.queue_capacity == 0 {
            256
        } else {
            config.queue_capacity
        };
        let shared = Arc::new(Shared {
            engine,
            queue: RequestQueue::new(queue_capacity),
            budget: DramBudget::new(budget_bytes),
            stats: StatsInner::default(),
            policy: BatchPolicy {
                max_batch: config.batch.max_batch.max(1),
                ..config.batch
            },
            sched: config.sched.clone(),
            cache: (config.cache_bytes > 0).then(|| ResultCache::new(config.cache_bytes)),
            measured: MeasuredCost::new(),
            measured_admission: config.measured_admission,
            publish_budget: WriteBudget::new(config.publish_budget_words),
        });
        let workers = (0..if config.workers == 0 {
            4
        } else {
            config.workers
        })
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("sage-serve-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("failed to spawn serving worker")
            })
            .collect();
        Self {
            shared,
            workers,
            next_id: AtomicU64::new(0),
        }
    }

    pub(crate) fn engine(&self) -> &E {
        &self.shared.engine
    }

    pub(crate) fn dram_budget_bytes(&self) -> u64 {
        self.shared.budget.capacity()
    }

    pub(crate) fn submit(&self, query: Query) -> Ticket {
        query.validate(self.shared.engine.num_vertices());
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        // Cache lookup on the submitting thread: a hit never touches the
        // queue, the budget, or the engine.
        if let Some(cache) = &self.shared.cache {
            let epoch = self.shared.engine.current_epoch();
            let key = CacheKey::new(&query, epoch);
            if let Some(response) = cache.get(&key) {
                let pr = query.priority();
                // Meter the hit under its own scope so the result's traffic
                // (pure aux_read of the response words, zero graph words)
                // still reconciles with the global meter.
                let scope = MeterScope::new();
                let start = std::time::Instant::now();
                scope.enter(|| meter::aux_read(cache::response_bytes(&response) / 8));
                let (pending, ticket) = Pending::new(id, query);
                pending.ticket.fulfill(QueryResult {
                    id,
                    response,
                    traffic: scope.snapshot(),
                    per_shard: Vec::new(),
                    seconds: start.elapsed().as_secs_f64(),
                    epoch: key.epoch(),
                });
                self.shared.stats.on_cache_hit(pr);
                return ticket;
            }
            self.shared.stats.on_cache_miss();
        }
        let (pending, ticket) = Pending::new(id, query);
        self.shared.queue.push(pending);
        ticket
    }

    pub(crate) fn stats(&self) -> ServiceStats {
        let s = &self.shared.stats;
        let sched = self.shared.queue.sched_counters();
        // Relaxed loads: a stats poll is a point-in-time approximation by
        // design; see the note on `StatsInner::on_admit`.
        ServiceStats {
            completed: s.completed.load(Ordering::Relaxed),
            inflight: s.inflight.load(Ordering::Relaxed),
            peak_inflight: s.peak_inflight.load(Ordering::Relaxed),
            peak_inflight_bytes: s.peak_inflight_bytes.load(Ordering::Relaxed),
            queue_depth: self.shared.queue.depth() as u64,
            batches: s.batches.load(Ordering::Relaxed),
            batched_queries: s.batched_queries.load(Ordering::Relaxed),
            peak_batch: s.peak_batch.load(Ordering::Relaxed),
            cache_hits: s.cache_hits.load(Ordering::Relaxed),
            cache_misses: s.cache_misses.load(Ordering::Relaxed),
            aged_promotions: sched.aged_promotions,
            preemptions: sched.preemptions,
            completed_point_lookups: s.completed_by_class[Priority::PointLookup.index()]
                .load(Ordering::Relaxed),
            completed_probes: s.completed_by_class[Priority::Probe.index()].load(Ordering::Relaxed),
            completed_analytics: s.completed_by_class[Priority::Analytics.index()]
                .load(Ordering::Relaxed),
            publishes: s.publishes.load(Ordering::Relaxed),
            epoch: self.shared.engine.current_epoch(),
        }
    }

    /// Current snapshot epoch (part of every cache key).
    pub(crate) fn epoch(&self) -> u64 {
        self.shared.engine.current_epoch()
    }

    /// The bookkeeping half of every publish (after the engine's snapshot
    /// cell has swapped to `new_epoch`): count it and eagerly invalidate
    /// cached results minted under older epochs. Returns `new_epoch`.
    pub(crate) fn note_publish(&self, new_epoch: u64) -> u64 {
        self.shared.stats.publishes.fetch_add(1, Ordering::Relaxed);
        if let Some(cache) = &self.shared.cache {
            cache.retain_epoch(new_epoch);
        }
        new_epoch
    }

    /// Per-publish NVRAM write cap.
    pub(crate) fn publish_budget(&self) -> WriteBudget {
        self.shared.publish_budget
    }

    /// Result-cache statistics, if a cache is configured.
    pub(crate) fn cache_stats(&self) -> Option<CacheStats> {
        self.shared.cache.as_ref().map(|c| c.stats())
    }
}

impl<E: Engine> Drop for ServiceCore<E> {
    fn drop(&mut self) {
        self.shared.queue.close();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

/// The monolithic engine: one swappable snapshot, the classic `run_batch`
/// execution. Each execution unit loads the current version once, so the
/// epoch it reports and the graph it ran on always agree.
struct MonoEngine<G> {
    cell: SnapshotCell<G>,
}

impl<G: Graph + Send + Sync + 'static> Engine for MonoEngine<G> {
    fn num_vertices(&self) -> usize {
        self.cell.load().graph.num_vertices()
    }

    fn current_epoch(&self) -> u64 {
        self.cell.epoch()
    }

    fn estimate(&self, batch: &QueryBatch) -> u64 {
        // Representation-aware: compressed snapshots add a decode-scratch
        // surcharge derived from `Graph::size_bytes`.
        admission::batch_estimate_for(&*self.cell.load().graph, batch)
    }

    fn run(&self, batch: &QueryBatch) -> (u64, Vec<batch::BatchOutcome>) {
        let v = self.cell.load();
        (v.epoch, batch::run_batch(&*v.graph, batch))
    }
}

/// A concurrent query service over one shared graph snapshot.
///
/// Load the graph once (ideally via `sage_graph::io::load_csr` with
/// `Placement::Nvram`, so it is physically read-only), start the service via
/// [`ServiceBuilder`], then submit typed queries from any number of client
/// threads. Dropping the service closes the queue, drains every accepted
/// request, and joins the workers.
///
/// The served snapshot is **live-updatable**: [`GraphService::publish`]
/// atomically swaps in a prepared [`Snapshot`] (advancing the epoch and
/// invalidating cached results), and [`GraphService::publish_updates`] runs
/// the whole ingestion pipeline — overlay → compact → budgeted NVRAM flush →
/// reload → swap. Queries in flight keep the snapshot they started on.
pub struct GraphService<G: Graph + Send + Sync + 'static> {
    core: ServiceCore<MonoEngine<G>>,
}

impl<G: Graph + Send + Sync + 'static> GraphService<G> {
    pub(crate) fn from_snapshot(snapshot: Snapshot<G>, config: ServiceConfig) -> Self {
        Self {
            core: ServiceCore::start(
                MonoEngine {
                    cell: SnapshotCell::new(snapshot.into_arc()),
                },
                config,
            ),
        }
    }

    /// A clonable guard over the currently served snapshot (graph + epoch).
    /// Sound against concurrent publishes: the guard keeps its version of
    /// the graph alive, unlike the old `graph(&self) -> &G` borrow.
    pub fn snapshot(&self) -> Snapshot<G> {
        let v = self.core.engine().cell.load();
        Snapshot::from_parts(Arc::clone(&v.graph), v.epoch)
    }

    /// Atomically install `snapshot` as the next epoch. Queries already
    /// running keep the old snapshot (and their results stay tagged with its
    /// epoch); cached results from older epochs are invalidated. Returns the
    /// new epoch.
    pub fn publish(&self, snapshot: Snapshot<G>) -> u64 {
        let epoch = self.core.engine().cell.swap(snapshot.into_arc());
        self.core.note_publish(epoch)
    }

    /// Total admitted-DRAM budget in bytes.
    pub fn dram_budget_bytes(&self) -> u64 {
        self.core.dram_budget_bytes()
    }

    /// Enqueue `query`; blocks only if the request queue is full. The
    /// returned [`Ticket`] redeems the result.
    ///
    /// # Panics
    /// Panics if the query references out-of-range vertices.
    pub fn submit(&self, query: Query) -> Ticket {
        self.core.submit(query)
    }

    /// Convenience: submit and wait.
    pub fn query(&self, query: Query) -> QueryResult {
        self.submit(query).wait()
    }

    /// Current serving statistics.
    pub fn stats(&self) -> ServiceStats {
        self.core.stats()
    }

    /// Current snapshot epoch (tags every fresh result and result-cache key).
    pub fn epoch(&self) -> u64 {
        self.core.epoch()
    }

    /// Result-cache statistics, if the service was configured with a cache
    /// (`cache_bytes > 0`).
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.core.cache_stats()
    }
}

impl<G: Publishable> GraphService<G> {
    /// The full ingestion pipeline, from update batch to served snapshot:
    ///
    /// 1. layer a [`DeltaOverlay`] over the current snapshot and apply
    ///    `updates` (DRAM-only; readers never see the overlay);
    /// 2. compact base + delta into a fresh CSR and rebuild this service's
    ///    representation from it, still in DRAM;
    /// 3. gate on the configured [write budget](ServiceConfig::publish_budget_words)
    ///    — a refused publish writes **nothing** — then flush to `path`,
    ///    metering the exact flushed words as `graph_write` under the
    ///    publish's own scope (the one sanctioned graph-write site);
    /// 4. reload the flushed snapshot read-only ([`Placement::Nvram`]
    ///    mapping) and atomically swap it in, advancing the epoch.
    ///
    /// Queries in flight throughout keep answering from the old epoch with
    /// `graph_write == 0`; the returned [`PublishReport`] carries the new
    /// epoch and the publisher's own metered traffic.
    ///
    /// [`Placement::Nvram`]: sage_graph::io::Placement::Nvram
    pub fn publish_updates(
        &self,
        updates: &[sage_core::EdgeUpdate],
        path: &std::path::Path,
    ) -> Result<PublishReport, PublishError> {
        let start = std::time::Instant::now();
        let current = self.core.engine().cell.load();
        let budget = self.core.publish_budget();
        let scope = MeterScope::new();
        let (served, words) = scope.enter(|| -> Result<(G, u64), PublishError> {
            let mut overlay = DeltaOverlay::new(Arc::clone(&current.graph));
            overlay.apply(updates);
            let rebuilt = current.graph.rebuild(overlay.compact());
            let words = rebuilt.flush_words();
            budget.admit(words)?;
            rebuilt.flush(path)?;
            sage_nvram::charge_publish_write(words);
            Ok((G::reload(path)?, words))
        })?;
        let epoch = self.core.engine().cell.swap(Arc::new(served));
        self.core.note_publish(epoch);
        Ok(PublishReport {
            epoch,
            graph_write: words,
            traffic: scope.snapshot(),
            seconds: start.elapsed().as_secs_f64(),
        })
    }
}

/// One serving worker: drain a batch → admit → execute under scope(s) +
/// arena → split attribution → fulfill every member.
fn worker_loop<E: Engine>(shared: &Shared<E>) {
    // The arena is per *worker*, reused across that worker's batches:
    // scratch (chunks, flag buffers, histogram dense arrays) warms up once
    // and is never shared with a concurrently executing unit.
    let arena = QueryArena::new();
    let afford = |class: BatchClass| -> usize {
        if shared.measured_admission {
            shared
                .measured
                .affordable(CostKind::of(class), shared.budget.capacity())
        } else {
            usize::MAX
        }
    };
    while let Some(batch) = shared
        .queue
        .pop_batch_capped(&shared.policy, &shared.sched, &afford)
    {
        let members = batch.len() as u64;
        let kind = CostKind::of(batch.class());
        let apriori = shared.engine.estimate(&batch);
        // Measured admission: the learned per-member cost prices the unit,
        // clamped by the a-priori bound (never above it, never below the
        // floor). A-priori only while the class is unobserved or disabled.
        let estimate = if shared.measured_admission {
            shared.measured.estimate(kind, members, apriori)
        } else {
            apriori
        };
        let grant = shared.budget.acquire(estimate);
        shared.stats.on_admit(members, grant);
        // Engine panics are contained inside the engine's `run` (per
        // execution unit), so the worker survives and no ticket is ever
        // stranded. Each outcome carries the wall time of the engine run
        // that answered it (the member's own run, or the shared
        // traversal/labeling) — not the whole batch's sequential wall clock.
        // The engine also reports the epoch of the snapshot version it
        // loaded for this unit, so cached results and result tags always
        // name the graph that actually answered: if a publish lands mid-run,
        // the stale-keyed insert can never be returned to a post-publish
        // lookup.
        let (epoch, outcomes) = arena.enter(|| shared.engine.run(&batch));
        shared.stats.on_finish(members, grant);
        shared.budget.release(grant);
        debug_assert_eq!(outcomes.len(), batch.len());
        // Feed the cost model with what the unit actually touched in DRAM
        // (aux words; graph words live in NVRAM, not in the budget).
        let aux_words: u64 = outcomes
            .iter()
            .map(|o| o.traffic.aux_read + o.traffic.aux_write)
            .sum();
        shared.measured.observe(kind, members, aux_words);
        for (pending, outcome) in batch.into_members().into_iter().zip(outcomes) {
            let (id, ticket) = (pending.id, pending.ticket);
            shared.stats.on_member_class(pending.query.priority());
            if let Some(cache) = &shared.cache {
                cache.insert(CacheKey::new(&pending.query, epoch), &outcome.response);
            }
            ticket.fulfill(QueryResult {
                id,
                response: outcome.response,
                traffic: outcome.traffic,
                per_shard: outcome.per_shard,
                seconds: outcome.seconds,
                epoch,
            });
        }
    }
}
