//! Machine-readable experiment reporting.
//!
//! Every [`crate::timed`] call records a `(experiment, problem, seconds,
//! traffic)` row into a process-global sink; [`write_json`] serializes the
//! sink so the perf trajectory can be tracked across PRs (`BENCH_*.json`).
//! The harness binary writes the file when the `SAGE_BENCH_JSON` environment
//! variable names a path — CI's `SAGE_SCALE=8` smoke run produces
//! `BENCH_SCALE8.json` this way.
//!
//! The JSON is hand-rolled (the container has no serde): a flat schema of
//! one object per record, stable across PRs:
//!
//! ```json
//! {
//!   "schema": 6,
//!   "scale": 8,
//!   "threads": 2,
//!   "records": [
//!     {"experiment": "fig1", "name": "BFS", "seconds": 0.001234,
//!      "graph_read": 10, "graph_write": 0, "aux_read": 5, "aux_write": 3}
//!   ]
//! }
//! ```
//!
//! Schema versions 2–6 added optional serving, compression, shard,
//! scheduler and publish fields for serving experiments that have since been
//! retired; a report written today carries none of them, so it reads the
//! same under every version.

use sage_nvram::MeterSnapshot;
use std::io::{self, Write};
use std::path::Path;
use std::sync::Mutex;

/// One timed run, tagged with the experiment that performed it.
#[derive(Clone, Debug)]
pub struct Record {
    /// Experiment label (`fig1`, `table3`, ... or `-` outside experiments).
    pub experiment: String,
    /// Problem / step name as passed to [`crate::timed`].
    pub name: &'static str,
    /// Wall-clock seconds.
    pub seconds: f64,
    /// Meter delta attributed to the run.
    pub traffic: MeterSnapshot,
}

static CURRENT: Mutex<Option<String>> = Mutex::new(None);
static RECORDS: Mutex<Vec<Record>> = Mutex::new(Vec::new());

/// Tag subsequent [`crate::timed`] records with this experiment label.
pub fn set_experiment(label: &str) {
    *CURRENT.lock().unwrap() = Some(label.to_string());
}

/// Append one record to the sink (called by [`crate::timed`]).
pub fn record(name: &'static str, seconds: f64, traffic: MeterSnapshot) {
    let experiment = CURRENT
        .lock()
        .unwrap()
        .clone()
        .unwrap_or_else(|| "-".to_string());
    RECORDS.lock().unwrap().push(Record {
        experiment,
        name,
        seconds,
        traffic,
    });
}

/// Number of records captured so far (the harness reports it alongside the
/// written file; a run with no timed calls still writes an empty-records
/// document so downstream tooling sees a file per CI run).
pub fn len() -> usize {
    RECORDS.lock().unwrap().len()
}

fn escape(s: &str) -> String {
    // Labels are ASCII identifiers today; escape defensively anyway.
    s.chars()
        .flat_map(|c| match c {
            '"' => "\\\"".chars().collect::<Vec<_>>(),
            '\\' => "\\\\".chars().collect(),
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

/// Serialize the sink to the JSON document described in the module docs.
pub fn to_json(scale: u32, threads: usize) -> String {
    let records = RECORDS.lock().unwrap();
    let mut out = String::with_capacity(128 + records.len() * 160);
    out.push_str(&format!(
        "{{\n  \"schema\": 6,\n  \"scale\": {scale},\n  \"threads\": {threads},\n  \"records\": ["
    ));
    for (i, r) in records.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"experiment\": \"{}\", \"name\": \"{}\", \"seconds\": {:.6}, \
             \"graph_read\": {}, \"graph_write\": {}, \"aux_read\": {}, \"aux_write\": {}}}",
            escape(&r.experiment),
            escape(r.name),
            r.seconds,
            r.traffic.graph_read,
            r.traffic.graph_write,
            r.traffic.aux_read,
            r.traffic.aux_write,
        ));
    }
    out.push_str("\n  ]\n}\n");
    out
}

/// Write the JSON document to `path`.
pub fn write_json(path: &Path, scale: u32, threads: usize) -> io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    f.write_all(to_json(scale, threads).as_bytes())?;
    f.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_serialize_to_stable_schema() {
        set_experiment("unit-test");
        record(
            "BFS",
            0.5,
            MeterSnapshot {
                graph_read: 10,
                graph_write: 0,
                aux_read: 7,
                aux_write: 3,
            },
        );
        let json = to_json(8, 2);
        assert!(json.starts_with("{\n  \"schema\": 6,"));
        assert!(json.contains("\"scale\": 8"));
        assert!(json.contains("\"threads\": 2"));
        assert!(json.contains(
            "{\"experiment\": \"unit-test\", \"name\": \"BFS\", \"seconds\": 0.500000, \
             \"graph_read\": 10, \"graph_write\": 0, \"aux_read\": 7, \"aux_write\": 3}"
        ));
        // Balanced braces/brackets as a cheap well-formedness check.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced braces"
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        // And it lands on disk.
        let path = std::env::temp_dir().join(format!("sage-bench-json-{}", std::process::id()));
        write_json(&path, 8, 2).unwrap();
        let back = std::fs::read_to_string(&path).unwrap();
        assert_eq!(back, to_json(8, 2));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn escape_handles_quotes_and_control_chars() {
        assert_eq!(escape("plain"), "plain");
        assert_eq!(escape("a\"b"), "a\\\"b");
        assert_eq!(escape("a\\b"), "a\\\\b");
        assert_eq!(escape("a\nb"), "a\\u000ab");
    }
}
