//! `BENCHMARK.json` and the binary must agree: every workload and metric the
//! manifest declares is emitted exactly once where it is declared, nothing
//! undeclared is emitted, and the manifest itself stays inside the limits of
//! the contract it was written to. Runs the real binary at `--smoke` sizes
//! (scale 10, one second), so it checks names and plumbing, not numbers.

#[path = "../src/json.rs"]
#[allow(dead_code)]
mod json;

use json::Value;
use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;

fn manifest() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    assert!(text.len() <= 64 * 1024, "BENCHMARK.json exceeds 64 KiB");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn names(list: &Value) -> Vec<String> {
    list.items()
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Value::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

fn keys(v: &Value) -> Vec<&str> {
    v.members().iter().map(|(k, _)| k.as_str()).collect()
}

fn well_formed_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn well_formed_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn manifest_is_inside_the_contract() {
    let m = manifest();
    assert_eq!(
        keys(&m),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let command = m.get("command").unwrap().items();
    assert!((1..=32).contains(&command.len()));
    let paths: Vec<&str> = m
        .get("paths")
        .unwrap()
        .items()
        .iter()
        .map(|p| p.as_str().unwrap())
        .collect();
    assert!((1..=16).contains(&paths.len()));
    for p in &paths {
        assert!(p.len() <= 200 && !p.starts_with('/') && !p.contains(".."));
        assert!(p
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-/".contains(c)));
    }
    for word in command {
        let word = word.as_str().unwrap();
        assert!(word.len() <= 200 && !word.starts_with('/') && !word.contains(".."));
        // Any file of the repository the command names lies under `paths`.
        if word.contains('/') {
            assert!(paths
                .iter()
                .any(|p| word.starts_with(p.trim_end_matches('/'))));
        }
    }
    let seconds = m.get("run_seconds").unwrap().as_f64().unwrap();
    assert!(seconds.fract() == 0.0 && (1.0..=60.0).contains(&seconds));

    let workloads = m.get("workloads").unwrap().items();
    assert!((2..=8).contains(&workloads.len()));
    for w in workloads {
        assert_eq!(keys(w), ["name", "why"]);
        let why = w.get("why").unwrap().as_str().unwrap();
        assert!(why.len() <= 200 && !why.contains('\n'), "why: {why}");
    }
    let end_to_end = m.get("end_to_end").unwrap().items();
    assert!((1..=16).contains(&end_to_end.len()));
    for e in end_to_end {
        assert_eq!(keys(e), ["name", "unit", "better", "bound"]);
        let bound = e.get("bound").unwrap().as_f64().unwrap();
        assert!(bound > 0.0 && bound <= 0.25);
    }
    let setup = end_to_end
        .iter()
        .find(|e| e.get("name").unwrap().as_str() == Some("setup_s"))
        .expect("setup_s is declared");
    assert_eq!(setup.get("unit").unwrap().as_str(), Some("s"));
    assert_eq!(setup.get("better").unwrap().as_str(), Some("lower"));
    let per_layer = m.get("per_layer").unwrap().items();
    assert!((1..=128).contains(&per_layer.len()));
    for p in per_layer {
        assert_eq!(keys(p), ["name", "unit", "better"]);
    }
    let mut seen = BTreeSet::new();
    for list in ["workloads", "end_to_end", "per_layer"] {
        for name in names(m.get(list).unwrap()) {
            assert!(well_formed_name(&name), "{name}");
            assert!(seen.insert(name.clone()), "{name} is used twice");
        }
    }
    for e in end_to_end.iter().chain(per_layer) {
        assert!(well_formed_unit(e.get("unit").unwrap().as_str().unwrap()));
        let better = e.get("better").unwrap().as_str().unwrap();
        assert!(better == "lower" || better == "higher");
    }
}

/// Run one smoke pass; return the metric names of the text lines and the
/// parsed result object.
fn smoke(workload: &str, trace: u8) -> (Vec<String>, Value) {
    let out = Command::new(env!("CARGO_BIN_EXE_sage-benchmark"))
        .args(["--workload", workload, "--seed", "2", "--seconds", "1"])
        .args(["--trace", &trace.to_string(), "--smoke", "--out"])
        .arg(Path::new(env!("CARGO_TARGET_TMPDIR")).join("schema_sync"))
        .output()
        .expect("spawn sage-benchmark");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let mut lines: Vec<&str> = stdout.lines().collect();
    let result = json::parse(lines.pop().expect("a result line")).expect("result line parses");
    let text_names = lines
        .iter()
        .map(|l| {
            let fields: Vec<&str> = l.split(' ').collect();
            assert_eq!(fields.len(), 4, "not `workload metric value unit`: {l}");
            assert_eq!(fields[0], workload);
            assert!(fields[2].parse::<f64>().is_ok_and(f64::is_finite), "{l}");
            fields[1].to_string()
        })
        .collect();
    (text_names, result)
}

#[test]
fn every_declared_name_is_emitted_exactly_once_and_nothing_else() {
    let m = manifest();
    for workload in names(m.get("workloads").unwrap()) {
        for (trace, list) in [(0, "end_to_end"), (1, "per_layer")] {
            let declared = m.get(list).unwrap().items();
            let (text_names, result) = smoke(&workload, trace);
            assert_eq!(keys(&result), ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(result.get("correct"), Some(&Value::Bool(true)));
            assert_eq!(result.get("failed").unwrap().as_f64(), Some(0.0));
            assert!(result.get("attempted").unwrap().as_f64().unwrap() >= 1.0);
            let metrics = result.get("metrics").unwrap().members();
            // Same names, same order, once each — in the object and as text.
            let emitted: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(emitted, names(m.get(list).unwrap()), "{workload} {list}");
            assert_eq!(text_names, emitted, "{workload} {list} text lines");
            for ((name, metric), decl) in metrics.iter().zip(declared) {
                assert_eq!(keys(metric), ["value", "unit"], "{name}");
                assert_eq!(metric.get("unit"), decl.get("unit"), "{name}");
                let value = metric.get("value").unwrap().as_f64().unwrap();
                assert!(value.is_finite(), "{name} = {value}");
                if list == "end_to_end" {
                    assert!(value > 0.0, "end-to-end {name} must never be 0");
                }
            }
        }
    }
}

#[test]
fn an_unknown_workload_is_refused_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_sage-benchmark"))
        .args(["--workload", "no-such-workload", "--seed", "1"])
        .args(["--seconds", "1", "--trace", "0"])
        .output()
        .expect("spawn sage-benchmark");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
