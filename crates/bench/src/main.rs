//! Experiment harness CLI: regenerate every table and figure of the paper.
//!
//! ```text
//! sage-bench <experiment>... [SAGE_SCALE=17] [SAGE_THREADS=N]
//!   fig1 fig2 fig6 fig7 table1 table2 table3 table4 table5 numa all
//! ```
//!
//! Several experiments may be named in one invocation; they run in order and
//! share one JSON report. An unknown experiment name, or a `SAGE_SCALE` that
//! is not a valid scale, exits 2 before anything runs.
//!
//! When `SAGE_BENCH_JSON=<path>` is set, every timed run is additionally
//! written to `<path>` as machine-readable JSON (see `sage_bench::report`);
//! the `bench_diff` binary compares such a report against a committed
//! baseline under `bench/baselines/` and fails on a `graph_write`
//! regression.

use sage_nvram::alloc_track::TrackingAlloc;

// Table 5 measures DRAM peaks, so the harness runs under the tracking
// allocator.
#[global_allocator]
static ALLOC: TrackingAlloc = TrackingAlloc;

fn main() {
    let scale = sage_bench::Suite::scale_from(std::env::var("SAGE_SCALE").ok().as_deref())
        .unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2);
        });
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = if args.is_empty() {
        vec!["all".to_string()]
    } else {
        args
    };
    let experiments: Vec<fn()> = args
        .iter()
        .map(|arg| match arg.as_str() {
            "fig1" => sage_bench::experiments::fig1,
            "fig2" => sage_bench::experiments::fig2,
            "fig6" => sage_bench::experiments::fig6,
            "fig7" => sage_bench::experiments::fig7,
            "table1" => sage_bench::experiments::table1,
            "table2" => sage_bench::experiments::table2,
            "table3" => sage_bench::experiments::table3,
            "table4" => sage_bench::experiments::table4,
            "table5" => sage_bench::experiments::table5,
            "numa" => sage_bench::experiments::numa,
            "all" => sage_bench::experiments::all,
            other => {
                eprintln!("unknown experiment {other:?}");
                eprintln!("choose from: fig1 fig2 fig6 fig7 table1..table5 numa all");
                std::process::exit(2);
            }
        })
        .collect();
    println!(
        "sage-bench: scale=2^{scale} threads={} (override with SAGE_SCALE / SAGE_THREADS)",
        sage_parallel::num_threads()
    );
    for experiment in experiments {
        experiment();
    }
    if let Ok(path) = std::env::var("SAGE_BENCH_JSON") {
        let path = std::path::PathBuf::from(path);
        match sage_bench::report::write_json(&path, scale, sage_parallel::num_threads()) {
            Ok(()) => println!(
                "wrote {} timed records to {}",
                sage_bench::report::len(),
                path.display()
            ),
            Err(e) => {
                eprintln!("failed to write {}: {e}", path.display());
                std::process::exit(3);
            }
        }
    }
}
