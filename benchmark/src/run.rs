//! One run: set-up, the four sections, and — in the traced pass — the
//! per-layer measurements and the trace file.

use crate::oracle::Tally;
use crate::repr::Repr;
use crate::setup::{self, SetupTimes};
use crate::spec::{self, MetricDef, Metrics, Plan, ReprKind, Workload};
use crate::trace::Tracer;
use crate::{analytics, layers, serving, stats, update};
use sage_graph::{CompressedCsr, Csr, ShardedCsr};
use std::path::PathBuf;
use std::time::Instant;

/// What to run.
pub struct Config {
    /// The workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Seconds the four sections share.
    pub seconds: f64,
    /// Traced pass (per-layer metrics) instead of the end-to-end pass.
    pub trace: bool,
    /// Toy sizes (scale 10): for the schema test, not for numbers.
    pub smoke: bool,
    /// Directory for scratch data and trace files (inside the checkout).
    pub out: PathBuf,
}

/// The result of a run.
pub struct Outcome {
    /// The declared metrics of this pass, in catalog order.
    pub metrics: Vec<(MetricDef, f64)>,
    /// The end-to-end metrics as this pass measured them (the same as
    /// `metrics` in the untraced pass; measured under tracing in the other).
    pub end_to_end: Vec<(MetricDef, f64)>,
    /// Operations checked.
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
}

impl Outcome {
    /// The contract's result line: exactly `correct`, `attempted`, `failed`
    /// and `metrics`, each value printed with every digit it has.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(def, v)| {
                // Names and units are catalog constants of `[A-Za-z0-9_./%-]`:
                // nothing to escape.
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    def.name, def.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Run `cfg`.
pub fn run(cfg: &Config) -> std::io::Result<Outcome> {
    match cfg.workload.repr {
        ReprKind::Raw => run_as::<Csr>(cfg),
        ReprKind::Compressed => run_as::<CompressedCsr>(cfg),
        ReprKind::Sharded => run_as::<ShardedCsr>(cfg),
    }
}

/// Cost of recording one span, measured on a scratch tracer.
fn span_cost_s() -> f64 {
    const SPANS: usize = 50_000;
    let scratch = Tracer::new(true);
    let began = Instant::now();
    for _ in 0..SPANS {
        scratch.time("calibration", None, |_| ());
    }
    began.elapsed().as_secs_f64() / SPANS as f64
}

fn run_as<R: Repr>(cfg: &Config) -> std::io::Result<Outcome> {
    let w = &cfg.workload;
    let plan = Plan::new(w, cfg.seconds, cfg.trace, cfg.smoke);
    let run_dir = cfg.out.join(format!(
        "{}-seed{}-trace{}-pid{}",
        w.name,
        cfg.seed,
        cfg.trace as u8,
        std::process::id()
    ));
    let data = run_dir.join("data");
    std::fs::create_dir_all(&data)?;
    eprintln!(
        "{}: seed {} scale {} threads {} of {} cpus; plan {plan:?}",
        w.name,
        cfg.seed,
        plan.scale,
        sage_parallel::num_threads(),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );

    let tally = Tally::default();
    let tracer = Tracer::new(cfg.trace);
    let mut m = Metrics::default();

    // Set-up, repeated from scratch. The previous mapping is dropped first:
    // its file is about to be rewritten.
    let mut setups: Vec<SetupTimes> = Vec::new();
    let mut ctx = None;
    for _ in 0..plan.setup_reps {
        drop(ctx.take());
        let (c, t) = setup::setup::<R>(w, plan.scale, cfg.seed, &data, &tally, &tracer)?;
        eprintln!("  setup {t}");
        setups.push(t);
        ctx = Some(c);
    }
    let ctx = ctx.expect("setup_reps >= 1");
    let n = ctx.snapshot.num_vertices();
    eprintln!(
        "  n {n} m {} ({:.2} B/edge), giant component {} vertices",
        ctx.snapshot.num_edges(),
        ctx.snapshot.size_bytes() as f64 / ctx.snapshot.num_edges() as f64,
        ctx.oracle.giant.len()
    );
    let totals: Vec<f64> = setups.iter().map(|t| t.total_s).collect();
    m.put("setup_s", stats::median(&totals));

    let sections_began = Instant::now();
    let a = analytics::section(&ctx, plan.analytics_rounds);
    let b = serving::backlog(&ctx, plan.backlog_s);
    let l = serving::latency(&ctx, plan.latency_s, w.lookup_rate);
    let u = update::update(&ctx, plan.publishes);
    let sections_s = sections_began.elapsed().as_secs_f64();

    analytics::end_to_end(&a, &mut m);
    serving::backlog_end_to_end(&b, &mut m);
    serving::latency_end_to_end(&l, &mut m);
    update::end_to_end(&u, &mut m);

    if cfg.trace {
        let spans_in_sections = tracer.recorded();
        let last = setups[setups.len() - 1];
        m.put("graph.gen_s", last.gen_s);
        m.put("graph.write_s", last.write_s);
        m.put("graph.load_ms", last.load_s * 1e3);
        analytics::per_layer(&a, n, &mut m);
        serving::backlog_per_layer(&b, &mut m);
        serving::latency_per_layer(&l, &mut m);
        update::reader_per_layer(&u, &mut m);
        update::replay_per_layer(&ctx, &u, &mut m)?;
        serving::idle_tax(&ctx, &mut m);
        layers::parallel(&ctx, cfg.smoke, &mut m);
        let roofline_gbps = layers::nvram(&ctx, &mut m)?;
        layers::graph(&ctx, &mut m);
        layers::core(&ctx, &mut m);
        layers::serve_parts(&ctx, &mut m);
        layers::baselines(&ctx, &mut m)?;
        // PageRank reads the whole representation once per iteration; set
        // those computed bytes against the measured sequential-read roofline.
        let pr_gbps =
            (spec::PAGERANK_ITERS * ctx.snapshot.size_bytes()) as f64 / a.typical(1) / 1e9;
        m.put("core.pagerank.read_gbps", pr_gbps);
        m.put("core.pagerank.roofline_frac", pr_gbps / roofline_gbps);
        // What recording cost the sections above: spans recorded in them
        // times the measured cost of one, over their wall time. (run.sh also
        // sets the traced pass's primary metric beside the untraced one.)
        m.put(
            "trace.overhead_frac",
            spans_in_sections as f64 * span_cost_s() / sections_s,
        );
        let trace_path = run_dir.join(format!("trace-{}.json", w.name));
        tracer.write_json(
            &trace_path,
            &[
                ("workload", format!("\"{}\"", w.name)),
                ("seed", cfg.seed.to_string()),
            ],
        )?;
        eprintln!("  trace written to {}", trace_path.display());
    }

    drop(ctx);
    std::fs::remove_dir_all(&data)?;
    if !cfg.trace {
        // Nothing but scratch data was kept there.
        let _ = std::fs::remove_dir(&run_dir);
    }
    let catalog = if cfg.trace {
        spec::PER_LAYER
    } else {
        spec::END_TO_END
    };
    Ok(Outcome {
        metrics: m.select(catalog),
        end_to_end: m.select(spec::END_TO_END),
        attempted: tally.attempted(),
        failed: tally.failed(),
    })
}
