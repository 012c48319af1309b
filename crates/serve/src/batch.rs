//! Batched query execution: one engine run answers every member of a
//! [`QueryBatch`], with the batch's metered cost split back across members.
//!
//! The scheduler drains compatible queued queries (see
//! [`RequestQueue::pop_batch`](crate::queue::RequestQueue::pop_batch)) and
//! executes them as a unit over any [`Sharded`] snapshot. Every class runs
//! the one ordinary engine call whatever the shard count:
//!
//! * **BFS** runs [`bfs_levels`](sage_core::algo::bfs::bfs_levels) for a lone
//!   query and one bit-parallel [`msbfs`](sage_core::algo::msbfs) traversal
//!   for a batch (up to 64 point queries for the PSAM cost of a single edge
//!   sweep, `O(n)` words of mask state instead of one frontier per query);
//! * **Connectivity-membership** batches run one LDD
//!   [`connectivity`](sage_core::algo::connectivity::connectivity) labeling
//!   and answer every `(u, v)` pair from it;
//! * **Neighborhood** batches share the dispatch/admission round-trip but
//!   execute members as individual units (each probe is `O(deg)`; there is
//!   no shared traversal to amortize);
//! * **Same-parameter analytics** batches share one engine run, a lone query
//!   being a one-request run: [`BatchClass::PageRank`] groups on
//!   `(iters, damping)` (damping compared by bit pattern) and
//!   [`BatchClass::KCore`] on the threshold `k`, so a different fixed point
//!   never joins someone else's computation.
//!
//! # Attribution
//!
//! Every unit runs under one [`MeterScope`] (`run_unit`), partitioned into
//! one part per shard when the snapshot has more than one. The storage layer
//! fills the parts: a [`ShardedCsr`](sage_graph::ShardedCsr) serves each
//! adjacency read inside [`meter::in_shard`], so every graph word lands on
//! the part of the shard that held it, and what the unit charged outside
//! every part is its residual. The residual and each part are split across
//! members **by touched-word shares** — for BFS, the number of vertices each
//! source reached (each set mask bit is one source touching one vertex); for
//! connectivity, uniformly (every member consumes the same labeling); for
//! analytics, by report size. The split is word-exact: members receive the
//! floor share and the remainder words go to the first members, so the
//! per-query snapshots still sum to precisely the unit's scoped traffic and
//! the service-wide reconciliation invariant (`Σ per-query == global delta`
//! in a quiet process) survives batching.
//!
//! Responses are **bitwise-identical** across batch sizes and shard counts:
//! BFS answers are distance arrays (deterministic, unlike parent choices),
//! connectivity membership depends only on the partition, and analytics run
//! the same deterministic iteration over the same per-vertex adjacency order.

use crate::query::{BatchClass, Query, Response, PAGERANK_EPS, QUERY_SEED};
use crate::queue::Pending;
use sage_core::algo;
use sage_graph::{Graph, Sharded, V};
use sage_nvram::{meter, MeterScope, MeterSnapshot};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// A drained set of same-class requests answered by one shared execution.
pub struct QueryBatch {
    members: Vec<Pending>,
    class: BatchClass,
}

impl QueryBatch {
    /// Wrap drained requests (all of `class`; arrival order preserved).
    pub(crate) fn new(members: Vec<Pending>, class: BatchClass) -> Self {
        debug_assert!(members.iter().all(|p| p.query().batch_class() == class));
        Self { members, class }
    }

    /// Number of member queries.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the batch has no members (never true for scheduler-formed
    /// batches).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The shared execution class every member belongs to.
    pub fn class(&self) -> BatchClass {
        self.class
    }

    /// Member requests in arrival order.
    pub fn members(&self) -> &[Pending] {
        &self.members
    }

    /// Consume the batch for fulfillment.
    pub(crate) fn into_members(self) -> Vec<Pending> {
        self.members
    }
}

/// One member's share of a batch execution.
pub(crate) struct BatchOutcome {
    pub(crate) response: Response,
    pub(crate) traffic: MeterSnapshot,
    /// Per-shard breakdown of `traffic` (empty on a one-shard snapshot and
    /// for failed units).
    pub(crate) per_shard: Vec<MeterSnapshot>,
    /// Wall-clock seconds of the engine run that answered this member: the
    /// individual run for members executed in isolation, the shared run for
    /// members answered by one traversal/labeling. Never the whole batch's
    /// sequential wall time.
    pub(crate) seconds: f64,
}

/// Execute every member of `batch`, returning outcomes in member order.
/// Panics from the engine are contained per execution unit and surface as
/// [`Response::Failed`]; the calling worker always gets one outcome per
/// member.
pub(crate) fn run_batch<G: Sharded>(g: &G, batch: &QueryBatch) -> Vec<BatchOutcome> {
    let members = batch.members();
    match batch.class() {
        BatchClass::Bfs => {
            let sources: Vec<V> = members
                .iter()
                .map(|p| match p.query() {
                    Query::Bfs { src } => *src,
                    other => unreachable!("non-BFS query {other:?} in a BFS batch"),
                })
                .collect();
            run_unit(g, members.len(), || {
                let (levels, reached) = match sources[..] {
                    [src] => {
                        let (levels, _rounds) = algo::bfs::bfs_levels(g, src);
                        let reached = levels.iter().filter(|&&l| l != u64::MAX).count();
                        (vec![levels], vec![reached])
                    }
                    _ => {
                        let ms = algo::msbfs::msbfs_levels(g, &sources);
                        (ms.levels, ms.reached)
                    }
                };
                // One aux read per returned level word.
                meter::aux_read((levels.len() * g.num_vertices()) as u64);
                // Touched-word shares: vertices reached per source.
                let shares = reached.iter().map(|&r| r as u64).collect();
                let responses = levels
                    .into_iter()
                    .zip(reached)
                    .map(|(levels, reached)| Response::Bfs { levels, reached })
                    .collect();
                (responses, shares)
            })
        }
        BatchClass::Connected => run_unit(g, members.len(), || {
            let labels = algo::connectivity::connectivity(g, 0.2, QUERY_SEED);
            let components = algo::connectivity::num_components(&labels);
            let responses = members
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
                .collect();
            // Every member consumed the same labeling: uniform shares.
            (responses, vec![1; members.len()])
        }),
        BatchClass::Neighborhood => members
            .iter()
            .flat_map(|p| {
                let &Query::Neighborhood { src, hops } = p.query() else {
                    unreachable!(
                        "non-neighborhood query {:?} in a Neighborhood batch",
                        p.query()
                    );
                };
                run_unit(g, 1, || (vec![neighborhood(g, src, hops)], vec![1]))
            })
            .collect(),
        BatchClass::PageRank {
            iters,
            damping_bits,
        } => {
            let requests = report_sets(members);
            run_unit(g, members.len(), || {
                let multi = algo::pagerank::pagerank_multi(
                    g,
                    PAGERANK_EPS,
                    iters,
                    f64::from_bits(damping_bits),
                    &requests,
                );
                let responses = multi
                    .reports
                    .into_iter()
                    .map(|ranks| Response::PageRank {
                        ranks,
                        iterations: multi.iterations,
                    })
                    .collect();
                (responses, charge_reports(&requests))
            })
        }
        BatchClass::KCore { k } => {
            let requests = report_sets(members);
            run_unit(g, members.len(), || {
                let multi = algo::kcore::kcore_multi(g, k, &requests);
                let responses = multi
                    .reports
                    .into_iter()
                    .map(|coreness| Response::KCore {
                        coreness,
                        kmax: multi.kmax,
                    })
                    .collect();
                (responses, charge_reports(&requests))
            })
        }
    }
}

/// Run one execution unit of `members` queries: `body` computes one response
/// per member and the shares its traffic is split by, under one meter scope
/// with a part per shard when the snapshot has more than one. Times the run,
/// contains a panic, and splits the residual (the scope total less its parts)
/// and each part word-exactly: for every member
/// `traffic == residual + Σ_s per_shard[s]`, and summed over members every
/// scoped word is accounted for.
///
/// If `body` panics, every member gets [`Response::Failed`] with an empty
/// `per_shard`, and whatever the run metered before dying is split evenly,
/// so nothing leaks out of the per-query accounting.
fn run_unit<G: Sharded>(
    g: &G,
    members: usize,
    body: impl FnOnce() -> (Vec<Response>, Vec<u64>),
) -> Vec<BatchOutcome> {
    let num_parts = match g.num_shards() {
        1 => 0,
        k => k,
    };
    let scope = MeterScope::partitioned(num_parts);
    let start = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| scope.enter(body)));
    let seconds = start.elapsed().as_secs_f64();
    let (responses, shares) = match result {
        Ok(answers) => answers,
        Err(payload) => {
            let response = failed_response(payload);
            return split_traffic(scope.snapshot(), &vec![1; members])
                .into_iter()
                .map(|traffic| BatchOutcome {
                    response: response.clone(),
                    traffic,
                    per_shard: Vec::new(),
                    seconds,
                })
                .collect();
        }
    };
    debug_assert_eq!(responses.len(), members);
    let parts: Vec<MeterSnapshot> = (0..num_parts).map(|s| scope.part(s)).collect();
    let in_parts = parts
        .iter()
        .fold(MeterSnapshot::default(), |acc, p| acc.plus(p));
    let residual = split_traffic(scope.snapshot().since(&in_parts), &shares);
    let part_splits: Vec<Vec<MeterSnapshot>> =
        parts.iter().map(|p| split_traffic(*p, &shares)).collect();
    responses
        .into_iter()
        .zip(residual)
        .enumerate()
        .map(|(i, (response, residual))| {
            let per_shard: Vec<MeterSnapshot> = part_splits.iter().map(|ps| ps[i]).collect();
            let traffic = per_shard.iter().fold(residual, |acc, p| acc.plus(p));
            BatchOutcome {
                response,
                traffic,
                per_shard,
                seconds,
            }
        })
        .collect()
}

/// One neighborhood probe. The gathered output (sorted, deduplicated) is
/// order-independent, hence the same whatever the shard count.
fn neighborhood<G: Graph>(g: &G, src: V, hops: u8) -> Response {
    let mut out: Vec<V> = Vec::new();
    g.for_each_edge(src, |d, _| out.push(d));
    if hops == 2 {
        // The range is fixed here: the first hop only, while `out` grows.
        for i in 0..out.len() {
            let u = out[i];
            g.for_each_edge(u, |d, _| out.push(d));
        }
    }
    out.sort_unstable();
    out.dedup();
    out.retain(|&v| v != src);
    meter::aux_write(out.len() as u64);
    Response::Neighborhood { vertices: out }
}

/// The report vertex sets of an analytics batch, in member order.
fn report_sets(members: &[Pending]) -> Vec<Vec<V>> {
    members
        .iter()
        .map(|p| match p.query() {
            Query::PageRank { vertices, .. } | Query::KCore { vertices, .. } => vertices.clone(),
            other => unreachable!("non-analytics query {other:?} in an analytics batch"),
        })
        .collect()
}

/// Charge an analytics unit's report reads — one aux word per reported
/// vertex per member — and return the shares its traffic is split by: a
/// member's cost of *consuming* the shared result scales with how much of it
/// it reads back.
fn charge_reports(requests: &[Vec<V>]) -> Vec<u64> {
    requests
        .iter()
        .map(|req| {
            meter::aux_read(req.len() as u64);
            req.len() as u64
        })
        .collect()
}

/// Best-effort stringification of a panic payload into a `Failed` response.
fn failed_response(payload: Box<dyn std::any::Any + Send>) -> Response {
    let reason = payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "query panicked".to_string());
    Response::Failed { reason }
}

/// Split `total` across members proportionally to `shares`, word-exactly:
/// the splits always sum to exactly `total`. Whenever a traffic class has at
/// least one word per member, every member receives at least one word — a
/// batch member did participate in the shared run, and downstream
/// invariants ("a BFS query reads the graph") must hold regardless of how
/// lopsided the shares are. The rest is floor-proportional, with the
/// sub-one-word remainder handed to the earliest members.
pub(crate) fn split_traffic(total: MeterSnapshot, shares: &[u64]) -> Vec<MeterSnapshot> {
    assert!(!shares.is_empty());
    let shares: Vec<u64> = shares.iter().map(|&s| s.max(1)).collect();
    let len = shares.len() as u64;
    let sum: u128 = shares.iter().map(|&s| s as u128).sum();
    let mut out = vec![MeterSnapshot::default(); shares.len()];
    let mut split_field = |field: u64, get: fn(&mut MeterSnapshot) -> &mut u64| {
        // Minimum one word per member when the class can afford it.
        let base = if field >= len { 1u64 } else { 0 };
        let spread = field - base * len;
        let mut given = 0u64;
        for (o, &s) in out.iter_mut().zip(&shares) {
            let part = base + ((spread as u128 * s as u128) / sum) as u64;
            *get(o) = part;
            given += part;
        }
        // Remainder: fewer than `len` words; hand them out one per member
        // from the front.
        let mut rem = field - given;
        for o in out.iter_mut() {
            if rem == 0 {
                break;
            }
            *get(o) += 1;
            rem -= 1;
        }
        debug_assert_eq!(rem, 0, "remainder exceeds member count");
    };
    split_field(total.graph_read, |s| &mut s.graph_read);
    split_field(total.graph_write, |s| &mut s.graph_write);
    split_field(total.aux_read, |s| &mut s.aux_read);
    split_field(total.aux_write, |s| &mut s.aux_write);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sum(parts: &[MeterSnapshot]) -> MeterSnapshot {
        parts
            .iter()
            .fold(MeterSnapshot::default(), |acc, p| acc.plus(p))
    }

    #[test]
    fn split_is_exact_and_proportional() {
        let total = MeterSnapshot {
            graph_read: 1_000_003,
            graph_write: 0,
            aux_read: 17,
            aux_write: 999,
        };
        let shares = [5, 1, 1, 1];
        let parts = split_traffic(total, &shares);
        assert_eq!(sum(&parts), total, "split must conserve every word");
        assert!(
            parts[0].graph_read > 3 * parts[1].graph_read,
            "majority share must dominate: {parts:?}"
        );
    }

    #[test]
    fn every_member_gets_a_word_when_affordable() {
        // Extreme skew: one member reached the giant component, the other
        // reached almost nothing — the small member must still be attributed
        // at least one word of each affordable class.
        let total = MeterSnapshot {
            graph_read: 100_000,
            graph_write: 0,
            aux_read: 64,
            aux_write: 2,
        };
        let parts = split_traffic(total, &[1_000_000, 1]);
        assert_eq!(sum(&parts), total);
        assert!(parts[1].graph_read >= 1);
        assert!(parts[1].aux_read >= 1);
    }

    #[test]
    fn split_survives_zero_shares_and_tiny_totals() {
        let total = MeterSnapshot {
            graph_read: 3,
            graph_write: 1,
            aux_read: 0,
            aux_write: 2,
        };
        for shares in [vec![0u64, 0, 0, 0, 0], vec![1], vec![7, 3]] {
            let parts = split_traffic(total, &shares);
            assert_eq!(parts.len(), shares.len());
            assert_eq!(sum(&parts), total, "shares {shares:?}");
        }
    }

    /// A unit whose body charges known words — some outside every shard,
    /// some inside shards — and then panics: every member fails, no member
    /// carries a per-shard breakdown, and member traffic still sums to every
    /// word the body charged.
    #[test]
    fn run_unit_conserves_words_on_a_panic() {
        use sage_graph::{gen, ShardedCsr};
        let csr = gen::rmat(8, 8, gen::RmatParams::default(), 5);
        let sharded = ShardedCsr::from_csr(&csr, 3);
        assert_eq!(sharded.num_shards(), 3);
        fn panicking_unit<G: Sharded>(g: &G) -> Vec<BatchOutcome> {
            run_unit(g, 4, || {
                meter::graph_read(1000);
                meter::aux_write(7);
                for s in 0..g.num_shards() {
                    meter::in_shard(s, || meter::aux_read(10 + s as u64));
                }
                panic!("injected unit panic");
            })
        }
        for (outcomes, shards) in [(panicking_unit(&csr), 1u64), (panicking_unit(&sharded), 3)] {
            assert_eq!(outcomes.len(), 4);
            for o in &outcomes {
                assert!(
                    matches!(&o.response, Response::Failed { reason } if reason == "injected unit panic"),
                    "{:?}",
                    o.response
                );
                assert!(o.per_shard.is_empty());
            }
            let total = sum(&outcomes.iter().map(|o| o.traffic).collect::<Vec<_>>());
            let shard_reads: u64 = (0..shards).map(|s| 10 + s).sum();
            assert_eq!(
                total,
                MeterSnapshot {
                    graph_read: 1000,
                    graph_write: 0,
                    aux_read: shard_reads,
                    aux_write: 7,
                },
                "{shards} shard(s)"
            );
        }
    }

    #[test]
    fn remainder_goes_to_front_members() {
        let total = MeterSnapshot {
            graph_read: 10,
            ..Default::default()
        };
        // 10 / 3 = 3 each, remainder 1 → first member gets 4.
        let parts = split_traffic(total, &[1, 1, 1]);
        assert_eq!(
            parts.iter().map(|p| p.graph_read).collect::<Vec<_>>(),
            vec![4, 3, 3]
        );
    }
}
