//! Snapshot handles, the service builder, and the publish pipeline.
//!
//! The serving layer's unit of immutability is the **snapshot**: an
//! `Arc`-shared graph tagged with the epoch it serves under. Queries in
//! flight keep the snapshot they started on (an arc-swap-style handle —
//! publishing never stalls readers), every [`QueryResult`](crate::QueryResult)
//! carries the epoch it answered from, and the epoch-keyed result cache
//! invalidates on publish.
//!
//! Three public pieces live here:
//!
//! * [`Snapshot`] — a clonable guard over the served graph (the sound
//!   replacement for the old `GraphService::graph(&self) -> &G` borrow,
//!   which could dangle across a snapshot swap);
//! * [`ServiceBuilder`] — the one construction surface shared by
//!   [`GraphService`] and
//!   [`ShardedService`], wrapping
//!   [`ServiceConfig`] and its presets;
//! * [`Publishable`] — the per-representation half of the publish pipeline:
//!   rebuild from a compacted CSR, exact flush-word accounting, NVRAM flush
//!   and reload. [`GraphService::publish_updates`](crate::GraphService::publish_updates)
//!   drives it end to end: overlay → compact → budget gate → metered flush →
//!   reload → atomic swap → epoch advance.

use crate::sharded::ShardedService;
use crate::{GraphService, ServiceConfig};
use parking_lot::Mutex;
use sage_graph::io::{self, Placement};
use sage_graph::{CompressedCsr, Csr, Graph, ShardRepr, Sharded, ShardedCsr};
use sage_nvram::{BudgetExceeded, MeterSnapshot};
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

/// A clonable guard over one served graph snapshot: the graph (shared, never
/// copied) plus the epoch it was published under. Holding a `Snapshot` keeps
/// the graph alive across publishes — readers of an old epoch are never
/// invalidated, they just become the only owners of the old `Arc`.
pub struct Snapshot<G> {
    graph: Arc<G>,
    epoch: u64,
}

impl<G> Snapshot<G> {
    /// Wrap a freshly built graph (epoch 0; the service assigns the real
    /// epoch when the snapshot is published).
    pub fn new(graph: G) -> Self {
        Self {
            graph: Arc::new(graph),
            epoch: 0,
        }
    }

    pub(crate) fn from_parts(graph: Arc<G>, epoch: u64) -> Self {
        Self { graph, epoch }
    }

    /// The epoch this snapshot serves (or served) under; 0 for a snapshot
    /// that has never been published.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The shared graph.
    pub fn graph(&self) -> &G {
        &self.graph
    }

    pub(crate) fn into_arc(self) -> Arc<G> {
        self.graph
    }
}

impl<G> Clone for Snapshot<G> {
    fn clone(&self) -> Self {
        Self {
            graph: Arc::clone(&self.graph),
            epoch: self.epoch,
        }
    }
}

impl<G> std::ops::Deref for Snapshot<G> {
    type Target = G;

    fn deref(&self) -> &G {
        &self.graph
    }
}

impl<G> From<G> for Snapshot<G> {
    fn from(graph: G) -> Self {
        Snapshot::new(graph)
    }
}

/// One published version: the epoch and the graph it serves. Execution units
/// load a `Versioned` once at unit start, so the snapshot they run on and
/// the epoch their results are tagged with always agree.
pub(crate) struct Versioned<G> {
    pub(crate) epoch: u64,
    pub(crate) graph: Arc<G>,
}

/// The swap point: a mutex-guarded `Arc` to the current version. The lock is
/// held only long enough to clone or replace the `Arc` (never across an
/// engine run or a flush), so publishing never stalls readers — in-flight
/// units keep their own `Arc` to the old version.
pub(crate) struct SnapshotCell<G> {
    slot: Mutex<Arc<Versioned<G>>>,
}

impl<G> SnapshotCell<G> {
    pub(crate) fn new(graph: Arc<G>) -> Self {
        Self {
            slot: Mutex::new(Arc::new(Versioned { epoch: 0, graph })),
        }
    }

    /// The current version (epoch + graph, consistent).
    pub(crate) fn load(&self) -> Arc<Versioned<G>> {
        Arc::clone(&self.slot.lock())
    }

    /// Current epoch.
    pub(crate) fn epoch(&self) -> u64 {
        self.slot.lock().epoch
    }

    /// Atomically install `graph` as the next epoch; returns the new epoch.
    pub(crate) fn swap(&self, graph: Arc<G>) -> u64 {
        let mut slot = self.slot.lock();
        let epoch = slot.epoch + 1;
        *slot = Arc::new(Versioned { epoch, graph });
        epoch
    }
}

/// The one construction surface for both service fronts: wraps a
/// [`ServiceConfig`] (including the [`interactive`](ServiceBuilder::interactive)
/// and [`throughput`](ServiceBuilder::throughput) presets) and starts a
/// [`GraphService`] over any [`Graph`] or a [`ShardedService`] over a
/// [`ShardedCsr`].
///
/// ```
/// use sage_serve::{Query, ServiceBuilder};
/// use sage_graph::gen;
///
/// let g = gen::rmat(8, 8, gen::RmatParams::default(), 7);
/// let service = ServiceBuilder::interactive().workers(2).start(g);
/// let r = service.query(Query::Bfs { src: 0 });
/// assert_eq!(r.traffic.graph_write, 0);
/// assert_eq!(r.epoch, 0); // nothing published yet
/// ```
#[derive(Clone, Debug, Default)]
pub struct ServiceBuilder {
    config: ServiceConfig,
}

impl ServiceBuilder {
    /// Default configuration (see [`ServiceConfig::default`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Start from an explicit [`ServiceConfig`] (migration aid and
    /// escape hatch for saved configurations).
    pub fn from_config(config: ServiceConfig) -> Self {
        Self { config }
    }

    /// The [`ServiceConfig::interactive`] preset.
    pub fn interactive() -> Self {
        Self::from_config(ServiceConfig::interactive())
    }

    /// The [`ServiceConfig::throughput`] preset.
    pub fn throughput() -> Self {
        Self::from_config(ServiceConfig::throughput())
    }

    /// Serving worker threads (`0` = default).
    pub fn workers(mut self, workers: usize) -> Self {
        self.config.workers = workers;
        self
    }

    /// Bounded request-queue depth (`0` = default).
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.config.queue_capacity = capacity;
        self
    }

    /// Admitted-DRAM budget in bytes (`0` = auto).
    pub fn dram_budget_bytes(mut self, bytes: u64) -> Self {
        self.config.dram_budget_bytes = bytes;
        self
    }

    /// Full batch-formation policy.
    pub fn batch(mut self, batch: crate::BatchPolicy) -> Self {
        self.config.batch = batch;
        self
    }

    /// Largest batch workers may coalesce (`1` disables batching).
    pub fn max_batch(mut self, max_batch: usize) -> Self {
        self.config.batch.max_batch = max_batch;
        self
    }

    /// How long a worker holds a batch open for stragglers.
    pub fn linger(mut self, linger: Duration) -> Self {
        self.config.batch.max_linger = linger;
        self
    }

    /// Scheduling policy (deadline classes by default).
    pub fn sched(mut self, sched: crate::SchedPolicy) -> Self {
        self.config.sched = sched;
        self
    }

    /// Result-cache byte budget (`0` disables caching).
    pub fn cache_bytes(mut self, bytes: u64) -> Self {
        self.config.cache_bytes = bytes;
        self
    }

    /// Measured-cost admission on/off.
    pub fn measured_admission(mut self, on: bool) -> Self {
        self.config.measured_admission = on;
        self
    }

    /// NVRAM write budget (8-byte words) one publish may flush
    /// (`0` = unlimited; see [`sage_nvram::WriteBudget`]).
    pub fn publish_budget_words(mut self, words: u64) -> Self {
        self.config.publish_budget_words = words;
        self
    }

    /// The accumulated configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// Start a [`GraphService`] serving `snapshot` (a bare graph converts
    /// via [`Snapshot::new`]).
    pub fn start<G: Graph + Send + Sync + 'static>(
        self,
        snapshot: impl Into<Snapshot<G>>,
    ) -> GraphService<G> {
        GraphService::from_snapshot(snapshot.into(), self.config)
    }

    /// Start a [`ShardedService`] serving the partitioned `snapshot`.
    pub fn start_sharded(self, snapshot: impl Into<Snapshot<ShardedCsr>>) -> ShardedService {
        ShardedService::from_snapshot(snapshot.into(), self.config)
    }
}

/// Why a publish did not complete. A refused or failed publish leaves the
/// serving snapshot and epoch untouched.
#[derive(Debug)]
pub enum PublishError {
    /// The flush would exceed the configured write budget; nothing was
    /// written (the gate runs before the first NVRAM word).
    BudgetExceeded(BudgetExceeded),
    /// Flushing or reloading the snapshot failed.
    Io(std::io::Error),
}

impl std::fmt::Display for PublishError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PublishError::BudgetExceeded(e) => e.fmt(f),
            PublishError::Io(e) => write!(f, "publish i/o failed: {e}"),
        }
    }
}

impl std::error::Error for PublishError {}

impl From<BudgetExceeded> for PublishError {
    fn from(e: BudgetExceeded) -> Self {
        PublishError::BudgetExceeded(e)
    }
}

impl From<std::io::Error> for PublishError {
    fn from(e: std::io::Error) -> Self {
        PublishError::Io(e)
    }
}

/// What a completed publish did: the new epoch, the exact NVRAM words the
/// flush wrote, and the publisher's own metered traffic.
#[derive(Clone, Debug)]
pub struct PublishReport {
    /// The epoch the new snapshot serves under.
    pub epoch: u64,
    /// NVRAM words the flush wrote (`== traffic.graph_write`; gated by the
    /// configured write budget *before* writing).
    pub graph_write: u64,
    /// Everything the publish metered under its own scope — overlay reads,
    /// DRAM compaction, and the flush. Reader scopes never see any of it.
    pub traffic: MeterSnapshot,
    /// Wall-clock seconds of the whole pipeline (compact + flush + reload +
    /// swap).
    pub seconds: f64,
}

/// A representation the publish pipeline can rebuild, flush, and reload —
/// the per-representation third of `publish_updates`. `rebuild` preserves
/// the receiver's own parameters (block size, hybrid cutoff, shard count),
/// so a service keeps its representation across publishes.
pub trait Publishable: Graph + Send + Sync + Sized + 'static {
    /// Rebuild this representation from a compacted plain CSR, preserving
    /// the receiver's encoding/partition parameters.
    fn rebuild(&self, compacted: Csr) -> Self;

    /// Exact 8-byte words [`Publishable::flush`] will write — the quantity
    /// the write budget gates on and the meter charges.
    fn flush_words(&self) -> u64;

    /// Write the snapshot to `path` (the NVRAM flush).
    fn flush(&self, path: &Path) -> std::io::Result<()>;

    /// Map the flushed snapshot back read-only ([`Placement::Nvram`]).
    fn reload(path: &Path) -> std::io::Result<Self>;
}

impl Publishable for Csr {
    fn rebuild(&self, compacted: Csr) -> Self {
        compacted
    }

    fn flush_words(&self) -> u64 {
        io::csr_file_words(self)
    }

    fn flush(&self, path: &Path) -> std::io::Result<()> {
        io::write_csr(self, path)
    }

    fn reload(path: &Path) -> std::io::Result<Self> {
        io::load_csr(path, Placement::Nvram)
    }
}

impl Publishable for CompressedCsr {
    fn rebuild(&self, compacted: Csr) -> Self {
        CompressedCsr::from_csr_with(&compacted, self.block_size(), self.hybrid_cutoff())
    }

    fn flush_words(&self) -> u64 {
        io::compressed_file_words(self)
    }

    fn flush(&self, path: &Path) -> std::io::Result<()> {
        io::write_compressed(self, path)
    }

    fn reload(path: &Path) -> std::io::Result<Self> {
        io::load_compressed(path, Placement::Nvram)
    }
}

impl Publishable for ShardedCsr {
    fn rebuild(&self, compacted: Csr) -> Self {
        match self.shard(0) {
            ShardRepr::Plain(_) => ShardedCsr::from_csr(&compacted, self.num_shards()),
            ShardRepr::Compressed(c) => ShardedCsr::from_csr_compressed(
                &compacted,
                self.num_shards(),
                c.block_size(),
                c.hybrid_cutoff(),
            ),
        }
    }

    fn flush_words(&self) -> u64 {
        io::sharded_file_words(self)
    }

    fn flush(&self, path: &Path) -> std::io::Result<()> {
        io::write_sharded(self, path)
    }

    fn reload(path: &Path) -> std::io::Result<Self> {
        io::load_sharded(path, Placement::Nvram)
    }
}
