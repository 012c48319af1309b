//! `sage-benchmark compare A.jsonl B.jsonl`: set two result files side by
//! side, cell by cell, against the bounds `BENCHMARK.json` fixes.
//!
//! A result file holds one line per run, as `run --append` writes them:
//! `{"workload": .., "seed": .., "trace": 0|1, "end_to_end": {..}, "result":
//! <the result line>}`, where `end_to_end` holds the end-to-end metrics as
//! that pass measured them (under tracing, in a traced run). Several runs of
//! one workload in a file (several seeds) fold to the median of each metric.

use crate::json::{self, Value};
use crate::spec::{self, Better};
use crate::stats;
use std::collections::BTreeMap;
use std::path::Path;

/// `(workload, metric) -> value` of a result file's end-to-end runs, plus
/// the total number of failed operations it reports.
pub struct ResultSet {
    cells: BTreeMap<(String, String), Vec<f64>>,
    failed: u64,
}

impl ResultSet {
    /// Parse a result file's text.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut cells: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
        let mut failed = 0u64;
        for line in text.lines().filter(|l| !l.trim().is_empty()) {
            let v = json::parse(line)?;
            let workload = v
                .get("workload")
                .and_then(Value::as_str)
                .ok_or("result line without a workload")?;
            let result = v.get("result").ok_or("result line without a result")?;
            failed += result.get("failed").and_then(Value::as_f64).unwrap_or(0.0) as u64;
            if v.get("trace").and_then(Value::as_f64) != Some(0.0) {
                continue;
            }
            for (name, metric) in result.get("metrics").map_or(&[][..], Value::members) {
                let value = metric
                    .get("value")
                    .and_then(Value::as_f64)
                    .ok_or_else(|| format!("metric {name} without a value"))?;
                cells
                    .entry((workload.to_string(), name.clone()))
                    .or_default()
                    .push(value);
            }
        }
        Ok(Self { cells, failed })
    }

    fn median(&self, key: &(String, String)) -> Option<f64> {
        self.cells.get(key).map(|v| stats::median(v))
    }
}

/// `metric -> bound` from `BENCHMARK.json`'s `end_to_end`.
pub fn bounds(manifest: &Value) -> Result<BTreeMap<String, f64>, String> {
    manifest
        .get("end_to_end")
        .ok_or("manifest without end_to_end")?
        .items()
        .iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Value::as_str)
                .ok_or("unnamed metric")?;
            let bound = m
                .get("bound")
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("metric {name} without a bound"))?;
            Ok((name.to_string(), bound))
        })
        .collect()
}

/// Compare two result sets; returns the report and whether every cell of
/// both agrees within its bound (and neither set reports a failed operation).
pub fn compare(a: &ResultSet, b: &ResultSet, bounds: &BTreeMap<String, f64>) -> (String, bool) {
    let mut report = format!(
        "{:<22} {:<18} {:>14} {:>14} {:>9} {:>7}\n",
        "workload", "metric", "A", "B", "rel.diff", "bound"
    );
    let mut ok = true;
    let keys: std::collections::BTreeSet<_> = a.cells.keys().chain(b.cells.keys()).collect();
    for key in keys {
        let (workload, metric) = key;
        let verdict = match (a.median(key), b.median(key), bounds.get(metric)) {
            (Some(x), Some(y), Some(&bound)) => {
                let rel = (y - x) / x;
                let within = rel.abs() <= bound;
                ok &= within;
                let b_is_worse = spec::END_TO_END
                    .iter()
                    .find(|def| def.name == metric)
                    .is_some_and(|def| (def.better == Better::Lower) == (rel > 0.0));
                format!(
                    "{x:>14.6} {y:>14.6} {:>+8.2}% {:>6.0}% {}",
                    rel * 100.0,
                    bound * 100.0,
                    match (within, b_is_worse) {
                        (true, _) => "",
                        (false, true) => "DIFFERS (B worse)",
                        (false, false) => "DIFFERS (B better)",
                    }
                )
            }
            (x, y, bound) => {
                ok = false;
                format!(
                    "missing: A {} B {} bound {}",
                    x.is_some(),
                    y.is_some(),
                    bound.is_some()
                )
            }
        };
        report.push_str(&format!("{workload:<22} {metric:<18} {verdict}\n"));
    }
    if a.failed + b.failed > 0 {
        ok = false;
        report.push_str(&format!(
            "failed operations: A {} B {} (any is a failure)\n",
            a.failed, b.failed
        ));
    }
    (report, ok)
}

/// The `overhead` subcommand: each workload's primary metric as the traced
/// pass measured it, against the untraced pass of the same file. The
/// difference is tracing overhead plus run-to-run noise (and the traced pass
/// is shorter); `trace.overhead_frac` is the recorder's cost alone.
pub fn overhead(file: &Path) -> Result<String, String> {
    let text = std::fs::read_to_string(file).map_err(|e| format!("{}: {e}", file.display()))?;
    let runs = text
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(json::parse)
        .collect::<Result<Vec<Value>, String>>()?;
    let mut report = String::new();
    for w in spec::WORKLOADS {
        let reading = |trace: f64| -> Vec<f64> {
            runs.iter()
                .filter(|v| {
                    v.get("workload").and_then(Value::as_str) == Some(w.name)
                        && v.get("trace").and_then(Value::as_f64) == Some(trace)
                })
                .filter_map(|v| v.get("end_to_end")?.get(w.primary)?.as_f64())
                .collect()
        };
        let (untraced, traced) = (reading(0.0), reading(1.0));
        if untraced.is_empty() || traced.is_empty() {
            continue;
        }
        let (u, t) = (stats::median(&untraced), stats::median(&traced));
        report.push_str(&format!(
            "{} trace_vs_untraced_frac {} ratio ({} {t} traced, {u} untraced)\n",
            w.name,
            (t - u) / u,
            w.primary
        ));
    }
    Ok(report)
}

/// The `compare` subcommand.
pub fn main(a: &Path, b: &Path, manifest: &Path) -> Result<bool, String> {
    let read = |p: &Path| std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()));
    let bounds = bounds(&json::parse(&read(manifest)?)?)?;
    let (a, b) = (ResultSet::parse(&read(a)?)?, ResultSet::parse(&read(b)?)?);
    let (report, ok) = compare(&a, &b, &bounds);
    print!("{report}");
    println!(
        "{}",
        if ok {
            "every end-to-end cell agrees within its bound"
        } else {
            "at least one end-to-end cell differs by more than its bound"
        }
    );
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(workload: &str, trace: u8, failed: u64, metrics: &[(&str, f64)]) -> String {
        let metrics: Vec<String> = metrics
            .iter()
            .map(|(n, v)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"ms\"}}"))
            .collect();
        format!(
            "{{\"workload\": \"{workload}\", \"seed\": 1, \"trace\": {trace}, \"result\": \
             {{\"correct\": true, \"attempted\": 5, \"failed\": {failed}, \"metrics\": {{{}}}}}}}\n",
            metrics.join(", ")
        )
    }

    fn bounds_of(pairs: &[(&str, f64)]) -> BTreeMap<String, f64> {
        pairs.iter().map(|(n, b)| (n.to_string(), *b)).collect()
    }

    #[test]
    fn agreement_within_bound_passes_and_beyond_fails() {
        let a = ResultSet::parse(&line("w", 0, 0, &[("x_ms", 100.0), ("y_ms", 10.0)])).unwrap();
        let near = ResultSet::parse(&line("w", 0, 0, &[("x_ms", 109.0), ("y_ms", 9.5)])).unwrap();
        let far = ResultSet::parse(&line("w", 0, 0, &[("x_ms", 111.0), ("y_ms", 10.0)])).unwrap();
        let bounds = bounds_of(&[("x_ms", 0.10), ("y_ms", 0.10)]);
        assert!(compare(&a, &near, &bounds).1);
        let (report, ok) = compare(&a, &far, &bounds);
        assert!(!ok);
        assert!(report.contains("DIFFERS"));
        // Direction comes from the catalog: a larger `bfs_ms` is worse, a
        // larger `point_qps` better.
        let a = ResultSet::parse(&line("w", 0, 0, &[("bfs_ms", 1.0), ("point_qps", 1.0)])).unwrap();
        let b = ResultSet::parse(&line("w", 0, 0, &[("bfs_ms", 2.0), ("point_qps", 2.0)])).unwrap();
        let (report, _) = compare(&a, &b, &bounds_of(&[("bfs_ms", 0.1), ("point_qps", 0.1)]));
        let tag = |metric: &str| {
            let row = report.lines().find(|l| l.contains(metric)).unwrap();
            row[row.find("DIFFERS").unwrap()..].to_string()
        };
        assert_eq!(tag("bfs_ms"), "DIFFERS (B worse)");
        assert_eq!(tag("point_qps"), "DIFFERS (B better)");
    }

    #[test]
    fn traced_lines_are_ignored_and_seeds_fold_to_the_median() {
        let text = line("w", 0, 0, &[("x_ms", 1.0)])
            + &line("w", 0, 0, &[("x_ms", 3.0)])
            + &line("w", 0, 0, &[("x_ms", 100.0)])
            + &line("w", 1, 0, &[("layer.z", 5.0)]);
        let set = ResultSet::parse(&text).unwrap();
        assert_eq!(set.cells.len(), 1);
        assert_eq!(set.median(&("w".into(), "x_ms".into())), Some(3.0));
    }

    #[test]
    fn a_missing_cell_or_a_failed_operation_fails() {
        let a = ResultSet::parse(&line("w", 0, 0, &[("x_ms", 1.0)])).unwrap();
        let b = ResultSet::parse(&line("v", 0, 0, &[("x_ms", 1.0)])).unwrap();
        let bounds = bounds_of(&[("x_ms", 0.1)]);
        assert!(!compare(&a, &b, &bounds).1);
        let failed = ResultSet::parse(&line("w", 0, 2, &[("x_ms", 1.0)])).unwrap();
        assert!(!compare(&a, &failed, &bounds).1);
        assert!(compare(&a, &a, &bounds).1);
    }
}
