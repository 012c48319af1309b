//! Scatter-gather serving over a partitioned snapshot.
//!
//! [`ShardedService`] is [`GraphService`](crate::GraphService)'s counterpart
//! for a [`ShardedCsr`]: the same bounded queue, FIFO DRAM admission,
//! batching policy, and ticket surface (via the shared `ServiceCore`
//! chassis), but execution **scatters**
//! each unit to the owning shards and **gathers** a response that is
//! bitwise-identical to the monolithic path:
//!
//! * **BFS** (single or batched) runs the shard-aware delta-round traversal
//!   ([`msbfs_levels_sharded`]): per-shard frontier slices sweep in
//!   parallel, cross-shard discoveries hand off between rounds. Distances
//!   are a property of the graph, not the driver, so levels match the
//!   monolithic ones bit for bit.
//! * **Connectivity** probes share one [`connectivity_sharded`] labeling
//!   (every shard task unites its edges into one shared lock-free forest);
//!   the partition — hence every `connected`/`components` answer — is
//!   identical to the monolithic labeling's.
//! * **Neighborhood** probes read each hop under the owning shard's scope.
//! * **Whole-graph analytics** (PageRank, k-core) run the ordinary
//!   algorithms over the sharded snapshot as a [`Graph`] — per-vertex
//!   adjacency order is preserved, so even floating-point results are
//!   bitwise-equal.
//!
//! # Per-shard attribution
//!
//! Every execution unit runs under an *outer* [`MeterScope`] with one
//! additional scope per shard ([`MeterShardScopes`]); shard `s`'s sweep
//! work lands on `scopes[s]`, everything else (seeding, handoff routing,
//! gather) stays on the outer scope as **residual**. Each scope — residual
//! and per-shard alike — is split across batch members word-exactly with
//! the same `split_traffic` the monolithic batcher uses, so for every
//! member `traffic == residual_share + Σ_s per_shard[s]`, and summed over
//! members the unit's scoped totals are conserved to the word: nothing the
//! global meter saw escapes per-query attribution. Analytics that are not
//! shard-driven apportion their traffic over shards by edge count (one
//! PageRank iteration reads every shard's edges exactly once, so the edge
//! share *is* the read share).

use crate::admission;
use crate::batch::{failed_response, split_traffic, BatchOutcome, QueryBatch};
use crate::query::{BatchClass, Query, Response};
use crate::queue::Ticket;
use crate::snapshot::{PublishError, PublishReport, Publishable, Snapshot, SnapshotCell};
use crate::{Engine, Query as Q, QueryResult, ServiceConfig, ServiceCore, ServiceStats};
use sage_core::algo;
use sage_core::sharded::{connectivity_sharded, msbfs_levels_sharded, MeterShardScopes, ShardHook};
use sage_graph::{Graph, Sharded, ShardedCsr, V};
use sage_nvram::{meter, MeterScope, MeterSnapshot};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

/// A concurrent query service over a partitioned snapshot — same request
/// surface and guarantees as [`GraphService`](crate::GraphService), plus a
/// per-shard traffic breakdown on every result
/// ([`QueryResult::per_shard`](crate::QueryResult)).
pub struct ShardedService {
    core: ServiceCore<ShardedEngine>,
}

impl ShardedService {
    pub(crate) fn from_snapshot(snapshot: Snapshot<ShardedCsr>, config: ServiceConfig) -> Self {
        Self {
            core: ServiceCore::start(
                ShardedEngine {
                    cell: SnapshotCell::new(snapshot.into_arc()),
                },
                config,
            ),
        }
    }

    /// A clonable guard over the currently served snapshot (graph + epoch),
    /// sound against concurrent publishes.
    pub fn snapshot(&self) -> Snapshot<ShardedCsr> {
        let v = self.core.engine().cell.load();
        Snapshot::from_parts(Arc::clone(&v.graph), v.epoch)
    }

    /// Atomically install `snapshot` as the next epoch (see
    /// [`GraphService::publish`](crate::GraphService::publish)). Returns the
    /// new epoch.
    pub fn publish(&self, snapshot: Snapshot<ShardedCsr>) -> u64 {
        let epoch = self.core.engine().cell.swap(snapshot.into_arc());
        self.core.note_publish(epoch)
    }

    /// The full ingestion pipeline over the sharded snapshot — overlay →
    /// compact → rebuild with the same shard count and representation →
    /// budgeted NVRAM flush → reload → swap. See
    /// [`GraphService::publish_updates`](crate::GraphService::publish_updates).
    pub fn publish_updates(
        &self,
        updates: &[sage_core::EdgeUpdate],
        path: &std::path::Path,
    ) -> Result<PublishReport, PublishError> {
        let start = Instant::now();
        let current = self.core.engine().cell.load();
        let budget = self.core.publish_budget();
        let scope = MeterScope::new();
        let (served, words) = scope.enter(|| -> Result<(ShardedCsr, u64), PublishError> {
            let mut overlay = sage_core::DeltaOverlay::new(Arc::clone(&current.graph));
            overlay.apply(updates);
            let rebuilt = current.graph.rebuild(overlay.compact());
            let words = rebuilt.flush_words();
            budget.admit(words)?;
            rebuilt.flush(path)?;
            sage_nvram::charge_publish_write(words);
            Ok((ShardedCsr::reload(path)?, words))
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

    /// Total admitted-DRAM budget in bytes.
    pub fn dram_budget_bytes(&self) -> u64 {
        self.core.dram_budget_bytes()
    }

    /// Enqueue `query`; blocks only if the request queue is full.
    ///
    /// # Panics
    /// Panics if the query references out-of-range vertices.
    pub fn submit(&self, query: Q) -> Ticket {
        self.core.submit(query)
    }

    /// Convenience: submit and wait.
    pub fn query(&self, query: Q) -> QueryResult {
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

    /// Result-cache statistics, if the service was configured with a cache.
    pub fn cache_stats(&self) -> Option<crate::CacheStats> {
        self.core.cache_stats()
    }
}

struct ShardedEngine {
    cell: SnapshotCell<ShardedCsr>,
}

impl Engine for ShardedEngine {
    fn num_vertices(&self) -> usize {
        self.cell.load().graph.num_vertices()
    }

    fn current_epoch(&self) -> u64 {
        self.cell.epoch()
    }

    fn estimate(&self, batch: &QueryBatch) -> u64 {
        admission::sharded_batch_estimate_for(&self.cell.load().graph, batch)
    }

    fn run(&self, batch: &QueryBatch) -> (u64, Vec<BatchOutcome>) {
        let v = self.cell.load();
        (v.epoch, run_batch_sharded(&v.graph, batch))
    }
}

/// Execute every member of `batch` against the sharded snapshot, outcomes in
/// member order, panics contained per execution unit.
pub(crate) fn run_batch_sharded(g: &ShardedCsr, batch: &QueryBatch) -> Vec<BatchOutcome> {
    let members = batch.members();
    match batch.class() {
        BatchClass::Bfs => run_bfs_sharded(g, members),
        BatchClass::Connected => run_connected_sharded(g, members),
        BatchClass::Neighborhood => members
            .iter()
            .flat_map(|p| run_neighborhood_sharded(g, p.query()))
            .collect(),
        BatchClass::PageRank { .. } | BatchClass::KCore { .. } => {
            run_analytics_sharded(g, members, batch.class())
        }
    }
}

/// The meter layout of one scatter-gather execution unit: an outer scope
/// for residual work plus one scope per shard for the scattered sweeps.
struct UnitScopes {
    outer: MeterScope,
    shards: Vec<MeterScope>,
}

impl UnitScopes {
    fn new(num_shards: usize) -> Self {
        Self {
            outer: MeterScope::new(),
            shards: (0..num_shards).map(|_| MeterScope::new()).collect(),
        }
    }

    fn hook(&self) -> MeterShardScopes<'_> {
        MeterShardScopes(&self.shards)
    }

    /// Split every scope across `shares.len()` members word-exactly and
    /// recombine per member: `traffic[i] = residual[i] + Σ_s per_shard[i][s]`.
    fn split(&self, shares: &[u64]) -> Vec<(MeterSnapshot, Vec<MeterSnapshot>)> {
        let residual = split_traffic(self.outer.snapshot(), shares);
        let shard_splits: Vec<Vec<MeterSnapshot>> = self
            .shards
            .iter()
            .map(|s| split_traffic(s.snapshot(), shares))
            .collect();
        residual
            .into_iter()
            .enumerate()
            .map(|(i, res)| {
                let per_shard: Vec<MeterSnapshot> = shard_splits.iter().map(|ss| ss[i]).collect();
                let traffic = per_shard.iter().fold(res, |acc, p| acc.plus(p));
                (traffic, per_shard)
            })
            .collect()
    }

    /// Everything the unit metered, all scopes combined — for failed units,
    /// whose per-member attribution is unknowable.
    fn total(&self) -> MeterSnapshot {
        self.shards
            .iter()
            .fold(self.outer.snapshot(), |acc, s| acc.plus(&s.snapshot()))
    }
}

/// A failed unit: split whatever traffic accrued evenly (conserving it), no
/// per-shard breakdown.
fn failed_unit(
    len: usize,
    scopes: &UnitScopes,
    seconds: f64,
    payload: Box<dyn std::any::Any + Send>,
) -> Vec<BatchOutcome> {
    let response = failed_response(payload);
    split_traffic(scopes.total(), &vec![1u64; len])
        .into_iter()
        .map(|traffic| BatchOutcome {
            response: response.clone(),
            traffic,
            per_shard: Vec::new(),
            seconds,
        })
        .collect()
}

/// BFS point queries — one shard-aware delta-round traversal for the whole
/// batch (a singleton is just a 1-source batch; levels and the aux-read
/// parity are identical to the monolithic single-query path).
fn run_bfs_sharded(g: &ShardedCsr, members: &[crate::queue::Pending]) -> Vec<BatchOutcome> {
    let sources: Vec<V> = members
        .iter()
        .map(|p| match p.query() {
            Query::Bfs { src } => *src,
            other => unreachable!("non-BFS query {other:?} in a BFS batch"),
        })
        .collect();
    let scopes = UnitScopes::new(g.num_shards());
    let start = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| {
        scopes.outer.enter(|| {
            let ms = msbfs_levels_sharded(g, &sources, &scopes.hook());
            // Unbatched parity: one aux read per returned level word.
            meter::aux_read((ms.levels.len() * g.num_vertices()) as u64);
            ms
        })
    }));
    let seconds = start.elapsed().as_secs_f64();
    match result {
        Ok(ms) => {
            let shares: Vec<u64> = ms.reached.iter().map(|&r| (r as u64).max(1)).collect();
            let splits = scopes.split(&shares);
            ms.levels
                .into_iter()
                .zip(ms.reached)
                .zip(splits)
                .map(|((levels, reached), (traffic, per_shard))| BatchOutcome {
                    response: Response::Bfs { levels, reached },
                    traffic,
                    per_shard,
                    seconds,
                })
                .collect()
        }
        Err(payload) => failed_unit(members.len(), &scopes, seconds, payload),
    }
}

/// Membership probes — one shared-forest labeling for the whole batch. The
/// partition equals the monolithic labeling's, so answers are
/// bitwise-identical.
fn run_connected_sharded(g: &ShardedCsr, members: &[crate::queue::Pending]) -> Vec<BatchOutcome> {
    let scopes = UnitScopes::new(g.num_shards());
    let start = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| {
        scopes.outer.enter(|| {
            let labels = connectivity_sharded(g, &scopes.hook());
            let components = algo::connectivity::num_components(&labels);
            members
                .iter()
                .map(|p| match p.query() {
                    Query::Connected { u, v } => {
                        meter::aux_read(2);
                        Response::Connected {
                            connected: labels[*u as usize] == labels[*v as usize],
                            components,
                        }
                    }
                    other => unreachable!("non-membership query {other:?} in a Connected batch"),
                })
                .collect::<Vec<_>>()
        })
    }));
    let seconds = start.elapsed().as_secs_f64();
    match result {
        Ok(responses) => {
            let shares = vec![1u64; members.len()];
            let splits = scopes.split(&shares);
            responses
                .into_iter()
                .zip(splits)
                .map(|(response, (traffic, per_shard))| BatchOutcome {
                    response,
                    traffic,
                    per_shard,
                    seconds,
                })
                .collect()
        }
        Err(payload) => failed_unit(members.len(), &scopes, seconds, payload),
    }
}

/// One neighborhood probe: each hop's adjacency reads run under the owning
/// shard's scope; the gathered output (sorted, deduplicated) is order-
/// independent, hence identical to the monolithic probe's.
fn run_neighborhood_sharded(g: &ShardedCsr, query: &Query) -> Vec<BatchOutcome> {
    let &Query::Neighborhood { src, hops } = query else {
        unreachable!("non-neighborhood query {query:?} in a Neighborhood batch");
    };
    let scopes = UnitScopes::new(g.num_shards());
    let hook = MeterShardScopes(&scopes.shards);
    let start = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| {
        scopes.outer.enter(|| {
            let mut out: Vec<V> = Vec::new();
            let mut frontier: Vec<V> = Vec::new();
            hook.run(g.shard_of(src), || {
                g.for_each_edge(src, |d, _| {
                    out.push(d);
                    frontier.push(d);
                });
            });
            if hops == 2 {
                // Scatter the second hop by owner so each shard's reads run
                // under its own scope; the sort below erases visit order.
                let mut by_shard: Vec<Vec<V>> = vec![Vec::new(); g.num_shards()];
                for &u in &frontier {
                    by_shard[g.shard_of(u)].push(u);
                }
                for (s, vs) in by_shard.iter().enumerate() {
                    if vs.is_empty() {
                        continue;
                    }
                    hook.run(s, || {
                        for &u in vs {
                            g.for_each_edge(u, |d, _| out.push(d));
                        }
                    });
                }
            }
            out.sort_unstable();
            out.dedup();
            out.retain(|&v| v != src);
            meter::aux_write(out.len() as u64);
            Response::Neighborhood { vertices: out }
        })
    }));
    let seconds = start.elapsed().as_secs_f64();
    vec![match result {
        Ok(response) => BatchOutcome {
            response,
            traffic: scopes.total(),
            per_shard: scopes.shards.iter().map(|s| s.snapshot()).collect(),
            seconds,
        },
        Err(payload) => failed_unit(1, &scopes, seconds, payload).pop().unwrap(),
    }]
}

/// Whole-graph analytics (PageRank, k-core), any batch size: **one** shared
/// run of the ordinary algorithm over the sharded snapshot as a plain
/// [`Graph`] — bitwise-identical output, same-parameter members answered
/// from the same converged vector / coreness array — with each member's
/// share of the unit's traffic further apportioned over shards by edge
/// count (these algorithms sweep every edge per iteration, so a shard's
/// edge share is its read share). Both splits are word-exact, so
/// `Σ_s per_shard[s] == traffic` per member and `Σ members == scope`.
fn run_analytics_sharded(
    g: &ShardedCsr,
    members: &[crate::queue::Pending],
    class: BatchClass,
) -> Vec<BatchOutcome> {
    let requests: Vec<Vec<V>> = members
        .iter()
        .map(|p| match p.query() {
            Query::PageRank { vertices, .. } | Query::KCore { vertices, .. } => vertices.clone(),
            other => unreachable!("non-analytics query {other:?} in an analytics batch"),
        })
        .collect();
    let scope = MeterScope::new();
    let start = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| {
        scope.enter(|| {
            let responses: Vec<Response> = match class {
                BatchClass::PageRank {
                    iters,
                    damping_bits,
                } => {
                    let multi = algo::pagerank::pagerank_multi(
                        g,
                        crate::query::PAGERANK_EPS,
                        iters,
                        f64::from_bits(damping_bits),
                        &requests,
                    );
                    multi
                        .reports
                        .into_iter()
                        .map(|ranks| Response::PageRank {
                            ranks,
                            iterations: multi.iterations,
                        })
                        .collect()
                }
                BatchClass::KCore { k } => {
                    let multi = algo::kcore::kcore_multi(g, k, &requests);
                    multi
                        .reports
                        .into_iter()
                        .map(|coreness| Response::KCore {
                            coreness,
                            kmax: multi.kmax,
                        })
                        .collect()
                }
                other => unreachable!("non-analytics class {other:?}"),
            };
            // Unbatched parity: one aux read per reported vertex per member.
            for req in &requests {
                meter::aux_read(req.len() as u64);
            }
            responses
        })
    }));
    let seconds = start.elapsed().as_secs_f64();
    match result {
        Ok(responses) => {
            let shares: Vec<u64> = requests.iter().map(|r| (r.len() as u64).max(1)).collect();
            let member_traffic = split_traffic(scope.snapshot(), &shares);
            let edge_shares: Vec<u64> = (0..g.num_shards())
                .map(|s| g.shard(s).num_edges() as u64)
                .collect();
            responses
                .into_iter()
                .zip(member_traffic)
                .map(|(response, traffic)| BatchOutcome {
                    response,
                    per_shard: split_traffic(traffic, &edge_shares),
                    traffic,
                    seconds,
                })
                .collect()
        }
        Err(payload) => {
            let splits = split_traffic(scope.snapshot(), &vec![1u64; members.len()]);
            let response = failed_response(payload);
            splits
                .into_iter()
                .map(|traffic| BatchOutcome {
                    response: response.clone(),
                    traffic,
                    per_shard: Vec::new(),
                    seconds,
                })
                .collect()
        }
    }
}
