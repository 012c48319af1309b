//! Typed query requests and responses served by [`crate::GraphService`].

use sage_core::algo;
use sage_graph::V;
use sage_nvram::MeterSnapshot;

/// Fixed tolerance for the PageRank power iteration; the iteration budget
/// and the damping factor are the client-visible knobs.
pub(crate) const PAGERANK_EPS: f64 = 1e-6;

/// Default PageRank damping factor (the paper's §5.3 value), re-exported so
/// clients constructing [`Query::PageRank`] don't need `sage-core` in scope.
pub const DEFAULT_DAMPING: f64 = algo::pagerank::DAMPING;

/// Deterministic seed for per-query randomized algorithms (connectivity's
/// LDD), so repeated queries over the same snapshot agree — and so batched
/// connectivity answers are indistinguishable from unbatched ones.
pub(crate) const QUERY_SEED: u64 = 0x5A6E_5EED;

/// Which shared execution a query can join: queries of the same class that
/// are waiting in the queue together are drained into one
/// [`QueryBatch`](crate::batch::QueryBatch) and answered by a single engine
/// run over the shared snapshot.
///
/// Analytics classes carry their run parameters, so plain `==` on the class
/// *is* the same-parameter batching rule: two PageRank queries batch iff
/// they share `(iters, damping)` (one power method answers both), two
/// k-core queries batch iff they share the coreness threshold `k` (one —
/// possibly truncated — peel answers both). Report vertex sets stay
/// per-member and never affect compatibility.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BatchClass {
    /// BFS point queries: up to [`sage_core::algo::msbfs::MAX_SOURCES`]
    /// sources share one bit-parallel multi-source traversal.
    Bfs,
    /// Connectivity-membership probes: any number share one labeling run.
    Connected,
    /// Bounded-radius neighborhood probes: share one snapshot pass (each
    /// probe is `O(deg)`, so the win is amortized dispatch/admission, not a
    /// shared traversal).
    Neighborhood,
    /// Same-parameter PageRank: any number of restricted-reporting requests
    /// share one power-method run.
    PageRank {
        /// Shared power-iteration budget.
        iters: usize,
        /// Shared damping factor, by bit pattern (`f64` is not `Eq`; equal
        /// bits ⇒ an identical fixed-point computation).
        damping_bits: u64,
    },
    /// Same-threshold k-core: any number of restricted-reporting requests
    /// share one (possibly truncated) peel.
    KCore {
        /// Shared coreness threshold (`None` = the full decomposition).
        k: Option<u32>,
    },
}

impl BatchClass {
    /// Largest batch this class can absorb (the scheduler additionally caps
    /// at the service's configured `max_batch`).
    pub fn max_batch(self) -> usize {
        match self {
            BatchClass::Bfs => algo::msbfs::MAX_SOURCES,
            BatchClass::Connected
            | BatchClass::Neighborhood
            | BatchClass::PageRank { .. }
            | BatchClass::KCore { .. } => usize::MAX,
        }
    }
}

/// Deadline class of a query — the scheduler serves lower values first,
/// with [aging](crate::queue::SchedPolicy) so higher values never starve.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// Point lookups (BFS from a single source): the latency-critical tier.
    PointLookup = 0,
    /// Cheap probes (connectivity membership, bounded neighborhoods).
    Probe = 1,
    /// Whole-graph analytics (PageRank, k-core): throughput tier.
    Analytics = 2,
}

impl Priority {
    /// Number of priority classes.
    pub const COUNT: usize = 3;

    /// Dense index for per-class tables (`0` is the most urgent class).
    pub fn index(self) -> usize {
        self as usize
    }
}

/// A typed request against the shared graph snapshot.
#[derive(Clone, Debug)]
pub enum Query {
    /// Breadth-first search from `src`: full distance array.
    Bfs {
        /// Source vertex.
        src: V,
    },
    /// PageRank restricted reporting: run `iters` power iterations over the
    /// whole graph, return the ranks of `vertices` only. Queries sharing
    /// `(iters, damping)` batch into one power-method run.
    PageRank {
        /// Power-iteration budget.
        iters: usize,
        /// Damping factor, in `(0, 1)` (see [`DEFAULT_DAMPING`]).
        damping: f64,
        /// Vertices whose ranks the client wants back.
        vertices: Vec<V>,
    },
    /// k-core decomposition: coreness of `vertices` plus the global `kmax`.
    /// With `k: Some(t)` the peel truncates at the `t`-core (coreness and
    /// `kmax` are reported clamped at `t` — exact below the threshold, far
    /// fewer rounds); queries sharing `k` batch into one peel.
    KCore {
        /// Coreness threshold (`None` = the full decomposition).
        k: Option<u32>,
        /// Vertices whose coreness the client wants back.
        vertices: Vec<V>,
    },
    /// Connectivity membership: are `u` and `v` in the same component?
    Connected {
        /// First endpoint.
        u: V,
        /// Second endpoint.
        v: V,
    },
    /// The 1-hop or 2-hop neighborhood of `src`, sorted and deduplicated
    /// (excludes `src` itself).
    Neighborhood {
        /// Center vertex.
        src: V,
        /// Radius: 1 or 2.
        hops: u8,
    },
}

impl Query {
    /// Panic early (on the submitting thread) if the query references
    /// vertices outside the snapshot — a worker panic would strand the
    /// ticket.
    pub(crate) fn validate(&self, n: usize) {
        let check = |v: V, what: &str| {
            assert!(
                (v as usize) < n,
                "{what} {v} out of range for a graph of {n} vertices"
            );
        };
        match self {
            Query::Bfs { src } => check(*src, "bfs source"),
            Query::PageRank {
                damping, vertices, ..
            } => {
                assert!(
                    damping.is_finite() && *damping > 0.0 && *damping < 1.0,
                    "pagerank damping must be in (0, 1), got {damping}"
                );
                for &v in vertices {
                    check(v, "pagerank vertex");
                }
            }
            Query::KCore { vertices, .. } => {
                for &v in vertices {
                    check(v, "kcore vertex");
                }
            }
            Query::Connected { u, v } => {
                check(*u, "connectivity endpoint");
                check(*v, "connectivity endpoint");
            }
            Query::Neighborhood { src, hops } => {
                check(*src, "neighborhood center");
                assert!(
                    (1..=2).contains(hops),
                    "neighborhood radius must be 1 or 2, got {hops}"
                );
            }
        }
    }

    /// Short label for stats / bench reporting.
    pub fn label(&self) -> &'static str {
        match self {
            Query::Bfs { .. } => "bfs",
            Query::PageRank { .. } => "pagerank",
            Query::KCore { .. } => "kcore",
            Query::Connected { .. } => "connected",
            Query::Neighborhood { .. } => "neighborhood",
        }
    }

    /// The shared execution this query can join (see [`BatchClass`]).
    pub fn batch_class(&self) -> BatchClass {
        match self {
            Query::Bfs { .. } => BatchClass::Bfs,
            Query::Connected { .. } => BatchClass::Connected,
            Query::Neighborhood { .. } => BatchClass::Neighborhood,
            Query::PageRank { iters, damping, .. } => BatchClass::PageRank {
                iters: *iters,
                damping_bits: damping.to_bits(),
            },
            Query::KCore { k, .. } => BatchClass::KCore { k: *k },
        }
    }

    /// The deadline class the scheduler slots this query into (see
    /// [`Priority`]).
    pub fn priority(&self) -> Priority {
        match self {
            Query::Bfs { .. } => Priority::PointLookup,
            Query::Connected { .. } | Query::Neighborhood { .. } => Priority::Probe,
            Query::PageRank { .. } | Query::KCore { .. } => Priority::Analytics,
        }
    }
}

/// The answer to one [`Query`].
///
/// `PartialEq` is derived so tests can assert *bitwise* response equality —
/// batched vs unbatched, compressed vs plain CSR (rank floats included).
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// BFS distances (`u64::MAX` = unreached) and the number of reached
    /// vertices. Distances — unlike parent choices — are deterministic, so a
    /// batched execution answers bitwise-identically to an unbatched one.
    Bfs {
        /// BFS distance of each vertex from the source (the source is 0).
        levels: Vec<u64>,
        /// Vertices reachable from the source (including it).
        reached: usize,
    },
    /// Ranks of the requested vertices, in request order.
    PageRank {
        /// `(vertex, rank)` pairs.
        ranks: Vec<(V, f64)>,
        /// Iterations the power method actually ran.
        iterations: usize,
    },
    /// Coreness of the requested vertices, in request order.
    KCore {
        /// `(vertex, coreness)` pairs.
        coreness: Vec<(V, u32)>,
        /// Largest non-empty core in the whole graph.
        kmax: u32,
    },
    /// Same-component membership.
    Connected {
        /// Whether the two endpoints share a component.
        connected: bool,
        /// Total number of components in the snapshot.
        components: usize,
    },
    /// Sorted, deduplicated neighborhood (excluding the center).
    Neighborhood {
        /// The member vertices.
        vertices: Vec<V>,
    },
    /// The query panicked inside the engine. The serving worker survives and
    /// the ticket is still fulfilled; the panic payload is reported here so
    /// a client blocked in [`crate::Ticket::wait`] is never stranded.
    Failed {
        /// Panic message (best-effort stringification of the payload).
        reason: String,
    },
}

/// A completed query: the answer plus its attributed PSAM traffic.
#[derive(Clone, Debug)]
pub struct QueryResult {
    /// Sequence number assigned at submission.
    pub id: u64,
    /// The typed answer.
    pub response: Response,
    /// Per-query traffic from the worker's [`sage_nvram::MeterScope`] —
    /// independent of every other in-flight query.
    pub traffic: MeterSnapshot,
    /// Per-shard breakdown of `traffic` when the snapshot has more than one
    /// shard: `per_shard[s]` is this query's share of the words charged
    /// while the storage layer served shard `s`'s adjacency reads. Every
    /// graph word is read inside some shard, so the `graph_read`s sum to
    /// `traffic.graph_read` exactly; the rest of `traffic` is residual DRAM
    /// work (frontiers, labels, gathering the answer) done outside any
    /// shard. Empty on a one-shard snapshot (a monolithic graph is one
    /// shard), for cache hits and for failed executions.
    pub per_shard: Vec<MeterSnapshot>,
    /// Wall-clock seconds of the engine run that answered this query
    /// (excluding queue wait): the query's own run when it executed in
    /// isolation, or the shared traversal/labeling when it was answered as
    /// part of a batch.
    pub seconds: f64,
    /// Epoch of the snapshot that answered this query. A result produced
    /// while a publish is in flight keeps the epoch of the snapshot it
    /// actually ran on, so clients can tell exactly which graph version
    /// their answer reflects.
    pub epoch: u64,
}
