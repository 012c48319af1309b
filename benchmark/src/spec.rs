//! The benchmark's fixed vocabulary: the five workloads, the four sections
//! every run executes, how a run's `--seconds` is split between them, and the
//! catalog of metric names and units. `BENCHMARK.json` at the repository root
//! declares the same names; `tests/schema_sync.rs` keeps the two in step.

/// How the snapshot under test is stored and served.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReprKind {
    /// Plain `Csr`, served by `GraphService<Csr>`.
    Raw,
    /// `CompressedCsr::from_csr(.., 64)`, served by `GraphService<CompressedCsr>`.
    Compressed,
    /// 4-shard `ShardedCsr`, served by `ShardedService`.
    Sharded,
}

/// The four things users do with the system; every run does all four on its
/// own snapshot, and the workload decides which one gets the long reading.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Section {
    /// An analyst's direct engine calls: BFS ×16, PageRank, k-core, CC.
    Analytics,
    /// Closed-loop clients holding a standing backlog of point lookups.
    Backlog,
    /// Open-loop point lookups beside a closed-loop analytics client.
    Latency,
    /// A closed-loop reader beside an operator publishing edge updates.
    Update,
}

/// One workload: an input shape, a representation, and the section that gets
/// the larger share of the run.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// R-MAT scale (`n = 2^scale`).
    pub scale: u32,
    /// `RmatParams::web()` instead of the Graph500 defaults.
    pub web: bool,
    /// Storage and service type.
    pub repr: ReprKind,
    /// The section measured at full length.
    pub native: Section,
    /// Open-loop point-lookup rate of the latency section, per second: about
    /// a third of what this graph's service sustains beside the analytics
    /// client, so the queue does not grow.
    pub lookup_rate: f64,
    /// The end-to-end metric its native section owns that the traced and the
    /// untraced pass are compared on.
    pub primary: &'static str,
}

/// Sampled edges per vertex before symmetrization and deduplication.
pub const EDGE_FACTOR: usize = 16;
/// Shards of the sharded representation (and update-locality ranges of every
/// representation).
pub const SHARDS: usize = 4;
/// Compression block size of the compressed representation.
pub const COMPRESS_BLOCK: usize = 64;
/// BFS sources per analytics round. Sixteen rather than the issue's eight:
/// a BFS's time follows its source's eccentricity, and with eight the sweep
/// moved by a tenth from one seed's sources to the next's.
pub const BFS_SOURCES: usize = 16;
/// PageRank power iterations per analytics round and per served request.
pub const PAGERANK_ITERS: usize = 10;
/// Connectivity's low-diameter-decomposition parameter.
pub const CC_BETA: f64 = 0.2;
/// Seed of connectivity's random shifts: the one `sage-serve` labels with.
/// It is a parameter of the algorithm, not an input, and it is held fixed
/// because the labeling's DRAM peak has two modes (about 90 and 160 MB at
/// scale 17) picked by this seed alone, whatever the graph.
pub const CC_SEED: u64 = 0x5A6E_5EED;

/// The five workloads. The issue asked for scale 19 on the analytics rows.
/// The contract has every workload report every end-to-end metric, repeats
/// set-up three times a run, and caps 114 runs at 57 minutes on two cores;
/// and the open-loop section needs a few hundred lookups below saturation to
/// give a usable median. Scale 17 is the largest size at which all of that
/// fits in a run.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "analytics-raw",
        scale: 17,
        web: true,
        repr: ReprKind::Raw,
        native: Section::Analytics,
        lookup_rate: 60.0,
        primary: "pagerank_s",
    },
    Workload {
        name: "analytics-compressed",
        scale: 17,
        web: true,
        repr: ReprKind::Compressed,
        native: Section::Analytics,
        lookup_rate: 60.0,
        primary: "pagerank_s",
    },
    Workload {
        name: "serve-backlog",
        scale: 16,
        web: false,
        repr: ReprKind::Raw,
        native: Section::Backlog,
        lookup_rate: 100.0,
        primary: "point_qps",
    },
    Workload {
        name: "serve-latency",
        scale: 16,
        web: false,
        repr: ReprKind::Raw,
        native: Section::Latency,
        lookup_rate: 100.0,
        primary: "point_p50_ms",
    },
    Workload {
        name: "serve-update",
        scale: 17,
        web: false,
        repr: ReprKind::Sharded,
        native: Section::Update,
        lookup_rate: 40.0,
        primary: "publish_s",
    },
];

/// Look a workload up by name.
pub fn workload(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// Sizes of one run, derived from `--seconds`, `--trace` and `--smoke`.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    /// R-MAT scale actually generated (the workload's, or 10 under `--smoke`).
    pub scale: u32,
    /// Times set-up is repeated; `setup_s` is the median.
    pub setup_reps: usize,
    /// Timed analytics rounds (after the verified warm-up round of set-up).
    pub analytics_rounds: usize,
    /// Seconds of the backlog section.
    pub backlog_s: f64,
    /// Seconds of the latency section.
    pub latency_s: f64,
    /// Publishes of the update section, one every [`PUBLISH_INTERVAL_S`].
    pub publishes: usize,
}

/// Share of `--seconds` each section gets when it is not the workload's
/// native one, in [`Section`] order; the native section gets what is left
/// (0.40 to 0.55). The latency section's floor is the largest because a
/// median needs a few hundred lookups wherever it is reported.
pub const BASE_SHARE: [f64; 4] = [0.15, 0.15, 0.30, 0.15];
/// Nominal seconds of one analytics round at scale 17, halving with each
/// scale step down. A section's share is spent in whole rounds: in a 17 s
/// run, 12 when native and 5 otherwise at scale 17, 9 at scale 16.
pub const ROUND_S: f64 = 0.55;
/// The operator's publish schedule.
pub const PUBLISH_INTERVAL_S: f64 = 0.3;
/// Edge updates per publish (3 inserts : 1 delete).
pub const UPDATES_PER_PUBLISH: usize = 4096;
/// Outstanding point lookups per backlog client.
pub const BACKLOG_WINDOW: usize = 32;
/// Outstanding analytics requests of the latency section's second client:
/// twice the workers, so two are always queued for the lookups to overtake.
pub const ANALYTICS_WINDOW: usize = 4;
/// Vertices reported per served analytics request.
pub const ANALYTICS_REPORT: usize = 16;
/// Point-lookup sources of the latency section are Zipf(1.0) over this many
/// vertices, so the interactive preset's 4 MiB cache holds the hottest few.
pub const ZIPF_UNIVERSE: usize = 4096;

impl Plan {
    /// The plan of one run.
    pub fn new(w: &Workload, seconds: f64, trace: bool, smoke: bool) -> Self {
        const ORDER: [Section; 4] = [
            Section::Analytics,
            Section::Backlog,
            Section::Latency,
            Section::Update,
        ];
        let others: f64 = ORDER
            .iter()
            .zip(BASE_SHARE)
            .filter(|(s, _)| **s != w.native)
            .map(|(_, share)| share)
            .sum();
        let secs = |s: Section| {
            let base = BASE_SHARE[ORDER.iter().position(|o| *o == s).expect("listed")];
            seconds * if s == w.native { 1.0 - others } else { base }
        };
        let round_s = ROUND_S * 2f64.powi(w.scale as i32 - 17);
        let rounds = (secs(Section::Analytics) / round_s).round() as usize;
        let publishes = (secs(Section::Update) / PUBLISH_INTERVAL_S).round() as usize;
        Self {
            scale: if smoke { 10 } else { w.scale },
            setup_reps: if smoke || trace { 1 } else { 3 },
            analytics_rounds: rounds.max(1),
            backlog_s: secs(Section::Backlog),
            latency_s: secs(Section::Latency),
            publishes: publishes.max(2),
        }
    }
}

/// Whether a larger or a smaller value is the better one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

/// One metric the benchmark emits.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
    }
}

/// End-to-end metrics: what an analyst, a client and an operator wait for
/// and pay. Emitted by every workload with `--trace 0`.
pub const END_TO_END: &[MetricDef] = &[
    lower("setup_s", "s"),
    lower("peak_dram_mb", "MB"),
    lower("bfs_ms", "ms"),
    lower("pagerank_s", "s"),
    lower("kcore_s", "s"),
    lower("cc_s", "s"),
    lower("graph_read_words", "words"),
    higher("point_qps", "1/s"),
    lower("point_p50_ms", "ms"),
    lower("point_p90_ms", "ms"),
    higher("analytics_qps", "1/s"),
    lower("publish_s", "s"),
    lower("publish_words", "words"),
    higher("update_read_qps", "1/s"),
];

/// Per-layer metrics (prefix = crate). Emitted by every workload with
/// `--trace 1`.
pub const PER_LAYER: &[MetricDef] = &[
    // sage-parallel
    lower("parallel.join_ns", "ns"),
    higher("parallel.par_for_gbps", "GB/s"),
    higher("parallel.scan_melems_per_s", "Melems/s"),
    higher("parallel.pagerank_speedup", "ratio"),
    // sage-nvram
    lower("nvram.map_ms", "ms"),
    higher("nvram.seq_read_gbps", "GB/s"),
    higher("nvram.first_touch_gbps", "GB/s"),
    lower("nvram.meter_ns_per_charge", "ns"),
    // sage-graph
    lower("graph.gen_s", "s"),
    lower("graph.write_s", "s"),
    lower("graph.load_ms", "ms"),
    lower("graph.compress_s", "s"),
    lower("graph.bytes_per_edge", "B/edge"),
    higher("graph.raw_scan_medges_per_s", "Medges/s"),
    higher("graph.decode_medges_per_s", "Medges/s"),
    higher("graph.decode_per_byte_medges_per_s", "Medges/s"),
    lower("graph.shard_build_s", "s"),
    lower("graph.shard_edge_imbalance", "ratio"),
    // sage-core
    lower("core.bfs_dense_ms", "ms"),
    lower("core.bfs_chunked_ms", "ms"),
    lower("core.bfs_blocked_ms", "ms"),
    lower("core.bfs_sparse_ms", "ms"),
    lower("core.msbfs64_ms", "ms"),
    higher("core.msbfs_speedup", "ratio"),
    lower("core.bfs.graph_read_words", "words"),
    lower("core.bfs.aux_read_words", "words"),
    lower("core.bfs.aux_write_words", "words"),
    lower("core.pagerank.graph_read_words", "words"),
    lower("core.pagerank.aux_read_words", "words"),
    lower("core.pagerank.aux_write_words", "words"),
    lower("core.kcore.graph_read_words", "words"),
    lower("core.kcore.aux_read_words", "words"),
    lower("core.kcore.aux_write_words", "words"),
    lower("core.cc.graph_read_words", "words"),
    lower("core.cc.aux_read_words", "words"),
    lower("core.cc.aux_write_words", "words"),
    higher("core.pagerank.read_gbps", "GB/s"),
    higher("core.pagerank.roofline_frac", "ratio"),
    lower("core.overlay_apply_ms", "ms"),
    lower("core.overlay_compact_s", "s"),
    lower("core.peak_dram_words_per_vertex", "words/vertex"),
    // sage-serve
    lower("serve.submit_us", "us"),
    lower("serve.engine_ms_p50", "ms"),
    lower("serve.wait_ms_p50", "ms"),
    lower("serve.wait_ms_p90", "ms"),
    lower("serve.idle_point_ms", "ms"),
    lower("serve.direct_bfs_ms", "ms"),
    lower("serve.tax_ms", "ms"),
    higher("serve.mean_batch", "count"),
    higher("serve.peak_batch", "count"),
    lower("serve.engine_runs", "count"),
    higher("serve.cache_hit_rate", "ratio"),
    higher("serve.preemptions", "count"),
    higher("serve.aged_promotions", "count"),
    lower("serve.peak_inflight_mb", "MB"),
    lower("serve.words_per_point", "words"),
    lower("serve.queue_ns_per_op", "ns"),
    lower("serve.cache_get_ns", "ns"),
    lower("serve.cache_insert_us", "us"),
    lower("serve.loadgen_late_ms_max", "ms"),
    lower("serve.publish.apply_ms", "ms"),
    lower("serve.publish.compact_s", "s"),
    lower("serve.publish.rebuild_s", "s"),
    lower("serve.publish.flush_s", "s"),
    lower("serve.publish.reload_ms", "ms"),
    lower("serve.publish.other_ms", "ms"),
    lower("serve.publish.aux_words", "words"),
    lower("serve.publish.words_per_update", "words"),
    lower("serve.publish.touched_words", "words"),
    lower("serve.update.read_p50_in_publish_ms", "ms"),
    lower("serve.update.read_p50_idle_ms", "ms"),
    lower("serve.update.read_p95_ms", "ms"),
    lower("serve.sharded.read_imbalance", "ratio"),
    lower("serve.sharded.residual_frac", "ratio"),
    // sage-baselines: the paper's comparators and this benchmark's control.
    lower("baselines.gbbs.bfs_ms", "ms"),
    lower("baselines.gbbs.bfs_aux_write_words", "words"),
    lower("baselines.galois.bfs_ms", "ms"),
    lower("baselines.galois.pagerank_s", "s"),
    lower("baselines.galois.cc_s", "s"),
    lower("baselines.semi_external.bfs_ms", "ms"),
    lower("baselines.semi_external.pagerank_iter_s", "s"),
    // the benchmark's own recorder
    lower("trace.overhead_frac", "ratio"),
];

/// Metric values collected by one run, checked against a catalog on the way
/// out so a renamed or forgotten metric is a hard error, not a silent hole.
#[derive(Default)]
pub struct Metrics {
    values: Vec<(&'static str, f64)>,
}

impl Metrics {
    /// Record `name = value`. Recording a name twice is a bug.
    pub fn put(&mut self, name: &'static str, value: f64) {
        assert!(
            self.values.iter().all(|(n, _)| *n != name),
            "metric {name} recorded twice"
        );
        self.values.push((name, value));
    }

    /// The recorded value of `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    /// The values of `catalog`, in catalog order, with their definitions.
    ///
    /// # Panics
    /// Panics when a catalog metric was never recorded or is not finite.
    pub fn select(&self, catalog: &[MetricDef]) -> Vec<(MetricDef, f64)> {
        catalog
            .iter()
            .map(|def| {
                let v = self
                    .get(def.name)
                    .unwrap_or_else(|| panic!("metric {} was never recorded", def.name));
                assert!(v.is_finite(), "metric {} is not finite: {v}", def.name);
                (*def, v)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for def in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(def.name), "{} declared twice", def.name);
            assert!(def.name.len() <= 64);
            assert!(def.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(def
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(def.unit.len() <= 16);
            assert!(def
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(seen.contains("setup_s"));
        assert_eq!(END_TO_END.len(), 14);
        assert!(PER_LAYER.len() <= 128);
    }

    #[test]
    fn the_native_section_gets_the_long_reading() {
        let raw = workload("analytics-raw").unwrap();
        let p = Plan::new(&raw, 17.0, false, false);
        assert_eq!((p.analytics_rounds, p.setup_reps, p.scale), (12, 3, 17));
        assert_eq!((p.publishes, p.latency_s), (9, 17.0 * 0.30));
        let lat = workload("serve-latency").unwrap();
        let p = Plan::new(&lat, 17.0, false, false);
        assert_eq!(p.analytics_rounds, 9);
        assert!((p.latency_s - 17.0 * 0.55).abs() < 1e-9);
        let upd = workload("serve-update").unwrap();
        let p = Plan::new(&upd, 17.0, false, false);
        assert_eq!((p.analytics_rounds, p.publishes), (5, 23));
        let p = Plan::new(&upd, 1.0, true, true);
        assert_eq!((p.analytics_rounds, p.publishes, p.scale), (1, 2, 10));
    }

    #[test]
    #[should_panic(expected = "never recorded")]
    fn select_rejects_a_missing_metric() {
        let mut m = Metrics::default();
        m.put("setup_s", 1.0);
        m.select(END_TO_END);
    }
}
