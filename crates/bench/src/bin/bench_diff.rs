//! CI word-count gate: compare a fresh `SAGE_BENCH_JSON` report against a
//! committed baseline.
//!
//! ```text
//! bench_diff <fresh.json> <baseline.json>
//! ```
//!
//! Exits non-zero when the gate in [`sage_bench::diff`] fails: a record's
//! `graph_write` rose more than 10% (a zero baseline must stay zero), a
//! baseline record is missing from the fresh report, or nothing matched.
//! CI runs this after the smoke run:
//!
//! ```text
//! cargo run --release -p sage-bench --bin bench_diff -- \
//!     BENCH_SCALE8.json bench/baselines/BENCH_SCALE8.json
//! ```
//!
//! The baseline is refreshed by re-running the smoke command and committing
//! the new JSON alongside the change that legitimately moved the numbers.

use sage_bench::diff::{diff_reports, parse_report};

fn load(path: &str) -> sage_bench::diff::Report {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("bench_diff: cannot read {path}: {e}");
        std::process::exit(2);
    });
    parse_report(&text).unwrap_or_else(|e| {
        eprintln!("bench_diff: cannot parse {path}: {e}");
        std::process::exit(2);
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [fresh_path, baseline_path] = args.as_slice() else {
        eprintln!("usage: bench_diff <fresh.json> <baseline.json>");
        std::process::exit(2);
    };
    let fresh = load(fresh_path);
    let baseline = load(baseline_path);
    println!(
        "bench_diff: {fresh_path} ({} records) vs {baseline_path} ({} records)",
        fresh.records.len(),
        baseline.records.len()
    );
    let failures = diff_reports(&fresh, &baseline);
    if failures.is_empty() {
        println!("bench_diff: PASS");
    } else {
        eprintln!("bench_diff: FAIL — {} failure(s):", failures.len());
        for f in &failures {
            eprintln!("  * {f}");
        }
        std::process::exit(1);
    }
}
