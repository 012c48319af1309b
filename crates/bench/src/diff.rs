//! Bench-report regression diffing: the logic behind the `bench_diff`
//! binary, CI's word-count gate.
//!
//! A fresh `SAGE_BENCH_JSON` report (see [`crate::report`]) is compared
//! against a committed baseline under `bench/baselines/`. Records are
//! matched by `(experiment, name)` and, because experiments time one
//! problem several times (Table 1 at three sizes, Figure 6 under two pools,
//! Figures 1 and 7 once for Sage and once for GBBS's copy pass), by their
//! order within that key: the k-th fresh `fig7/Biconnectivity` record is
//! compared with the k-th baseline one. One rule holds for every matched
//! record: **`graph_write` may not rise more than 10%**, and a zero baseline
//! must stay zero (Sage's zero-NVRAM-write invariant is exact and
//! machine-independent). The gate also fails when
//!
//! * the reports were produced at different scales or thread counts (the
//!   GBBS baselines' write counts may depend on the schedule);
//! * a baseline record has no fresh counterpart, so a renamed or dropped
//!   problem cannot leave the gate silently;
//! * no record matched at all.
//!
//! Wall time is not gated: at the smoke scale every record takes
//! microseconds to milliseconds, far below any usable noise floor. Timing
//! claims are measured by `benchmark/` at R-MAT 16–17.

use std::collections::BTreeMap;

/// Allowed fractional `graph_write` regression.
pub const MAX_GRAPH_WRITE_REGRESSION: f64 = 0.10;

/// One parsed bench record (the fields the gate cares about).
#[derive(Clone, Debug)]
pub struct DiffRecord {
    /// Experiment label.
    pub experiment: String,
    /// Problem / step name.
    pub name: String,
    /// NVRAM graph writes (words).
    pub graph_write: u64,
}

/// A parsed report: scale/threads plus its records.
#[derive(Debug)]
pub struct Report {
    /// `SAGE_SCALE` the report was produced at.
    pub scale: u64,
    /// Worker threads the report was produced with.
    pub threads: u64,
    /// All records, in file order.
    pub records: Vec<DiffRecord>,
}

// --- minimal JSON parsing (the container has no serde) -------------------

#[derive(Debug, PartialEq)]
enum Json {
    Object(Vec<(String, Json)>),
    Array(Vec<Json>),
    Str(String),
    Num(f64),
    Bool(bool),
    Null,
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Self {
            bytes: text.as_bytes(),
            at: 0,
        }
    }

    fn err(&self, what: &str) -> String {
        format!("JSON parse error at byte {}: {what}", self.at)
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.at)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.at += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        self.skip_ws();
        if self.bytes.get(self.at) == Some(&b) {
            self.at += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.at).copied()
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(_) => self.number(),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.at..].starts_with(lit.as_bytes()) {
            self.at += lit.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected {lit}")))
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        if self.peek() == Some(b'}') {
            self.at += 1;
            return Ok(Json::Object(fields));
        }
        loop {
            let key = self.string()?;
            self.eat(b':')?;
            fields.push((key, self.value()?));
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b'}') => {
                    self.at += 1;
                    return Ok(Json::Object(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.at += 1;
            return Ok(Json::Array(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b']') => {
                    self.at += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.at).copied() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.at += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.at += 1;
                    match self.bytes.get(self.at).copied() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.at + 1..self.at + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| self.err("bad \\u"))?,
                                16,
                            )
                            .map_err(|_| self.err("bad \\u"))?;
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                            self.at += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.at += 1;
                }
                Some(b) => {
                    out.push(b as char);
                    self.at += 1;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        self.skip_ws();
        let start = self.at;
        while self
            .bytes
            .get(self.at)
            .is_some_and(|b| matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.at += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.at])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| self.err("bad number"))
    }
}

/// Parse a `SAGE_BENCH_JSON` document into a [`Report`].
pub fn parse_report(text: &str) -> Result<Report, String> {
    let mut p = Parser::new(text);
    let root = p.value()?;
    let num = |key: &str| root.get(key).and_then(Json::as_f64).unwrap_or(0.0) as u64;
    let records = match root.get("records") {
        Some(Json::Array(items)) => items,
        _ => return Err("report has no records array".to_string()),
    };
    let records = records
        .iter()
        .map(|r| DiffRecord {
            experiment: r
                .get("experiment")
                .and_then(Json::as_str)
                .unwrap_or("-")
                .to_string(),
            name: r
                .get("name")
                .and_then(Json::as_str)
                .unwrap_or("?")
                .to_string(),
            graph_write: r.get("graph_write").and_then(Json::as_f64).unwrap_or(0.0) as u64,
        })
        .collect();
    Ok(Report {
        scale: num("scale"),
        threads: num("threads"),
        records,
    })
}

/// Each `(experiment, name)` key's `graph_write` values, in file order.
fn by_key(records: &[DiffRecord]) -> BTreeMap<(&str, &str), Vec<u64>> {
    let mut map: BTreeMap<(&str, &str), Vec<u64>> = BTreeMap::new();
    for r in records {
        map.entry((&r.experiment, &r.name))
            .or_default()
            .push(r.graph_write);
    }
    map
}

/// Compare a fresh report against a baseline. Returns the list of failures
/// (empty = gate passes); informational lines go to stdout.
pub fn diff_reports(fresh: &Report, baseline: &Report) -> Vec<String> {
    if fresh.scale != baseline.scale {
        return vec![format!(
            "scale mismatch: fresh 2^{} vs baseline 2^{} — regenerate the baseline",
            fresh.scale, baseline.scale
        )];
    }
    if fresh.threads != baseline.threads {
        return vec![format!(
            "thread-count mismatch: fresh {} vs baseline {} — regenerate the baseline \
             with the CI thread count",
            fresh.threads, baseline.threads
        )];
    }
    let fresh_map = by_key(&fresh.records);
    let mut failures = Vec::new();
    let mut compared = 0usize;
    for (key, base_writes) in by_key(&baseline.records) {
        let new_writes = fresh_map.get(&key).map_or(&[][..], Vec::as_slice);
        if new_writes.len() < base_writes.len() {
            failures.push(format!(
                "{}/{}: {} baseline record(s) but only {} fresh — renamed or dropped?",
                key.0,
                key.1,
                base_writes.len(),
                new_writes.len()
            ));
        }
        for (i, (&base, &new)) in base_writes.iter().zip(new_writes).enumerate() {
            compared += 1;
            let limit = (base as f64 * (1.0 + MAX_GRAPH_WRITE_REGRESSION)) as u64;
            if new > limit {
                failures.push(format!(
                    "{}/{} #{}: graph_write regressed {base} -> {new} (limit {limit})",
                    key.0,
                    key.1,
                    i + 1
                ));
            }
        }
    }
    println!(
        "  compared {compared} records ({} in the fresh report)",
        fresh.records.len()
    );
    if compared == 0 {
        failures.push("no fresh record matched the baseline: nothing was checked".to_string());
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(records: &[(&str, &str, u64)]) -> Report {
        Report {
            scale: 8,
            threads: 2,
            records: records
                .iter()
                .map(|&(e, n, w)| DiffRecord {
                    experiment: e.to_string(),
                    name: n.to_string(),
                    graph_write: w,
                })
                .collect(),
        }
    }

    #[test]
    fn parses_the_writers_output() {
        crate::report::set_experiment("diff-unit-test");
        crate::report::record(
            "BFS",
            0.5,
            sage_nvram::MeterSnapshot {
                graph_write: 7,
                ..Default::default()
            },
        );
        let text = crate::report::to_json(8, 2);
        let parsed = parse_report(&text).expect("writer output must round-trip");
        assert_eq!(parsed.scale, 8);
        assert_eq!(parsed.threads, 2);
        let r = parsed
            .records
            .iter()
            .find(|r| r.experiment == "diff-unit-test" && r.name == "BFS")
            .expect("BFS record");
        assert_eq!(r.graph_write, 7);
    }

    #[test]
    fn passes_when_identical() {
        let base = report(&[("fig1", "BFS", 0), ("fig7", "Maximal-Matching", 5244)]);
        let fresh = report(&[("fig1", "BFS", 0), ("fig7", "Maximal-Matching", 5244)]);
        assert!(diff_reports(&fresh, &base).is_empty());
    }

    #[test]
    fn zero_write_baseline_rejects_any_write() {
        let base = report(&[("table1", "BFS", 0)]);
        let fresh = report(&[("table1", "BFS", 1)]);
        let fails = diff_reports(&fresh, &base);
        assert_eq!(fails.len(), 1, "{fails:?}");
        assert!(fails[0].contains("graph_write regressed 0 -> 1"));
    }

    #[test]
    fn graph_write_tolerates_ten_percent_but_not_eleven() {
        let base = report(&[("fig7", "MM", 1000)]);
        assert!(diff_reports(&report(&[("fig7", "MM", 1100)]), &base).is_empty());
        // One word over the limit already fails.
        let fails = diff_reports(&report(&[("fig7", "MM", 1101)]), &base);
        assert_eq!(fails.len(), 1, "{fails:?}");
        assert!(fails[0].contains("1000 -> 1101"));
        let fails = diff_reports(&report(&[("fig7", "MM", 1110)]), &base);
        assert_eq!(fails.len(), 1, "{fails:?}");
        assert!(fails[0].contains("1000 -> 1110"));
    }

    #[test]
    fn repeated_records_are_compared_in_order() {
        // GBBS's copy pass writes, then Sage's run under the same name must
        // not: folding the two would hide a write in the second.
        let fig7 = |sage_writes| {
            report(&[
                ("fig7", "Biconnectivity", 8344),
                ("fig7", "Biconnectivity", sage_writes),
            ])
        };
        let base = fig7(0);
        assert!(diff_reports(&fig7(0), &base).is_empty());
        let bad = fig7(1);
        let fails = diff_reports(&bad, &base);
        assert_eq!(fails.len(), 1, "{fails:?}");
        assert!(fails[0].contains("Biconnectivity #2"));
    }

    #[test]
    fn a_renamed_record_fails() {
        let base = report(&[("fig1", "BFS", 0), ("fig1", "k-Core", 0)]);
        let fresh = report(&[("fig1", "BFS", 0), ("fig1", "KCore", 0)]);
        let fails = diff_reports(&fresh, &base);
        assert_eq!(fails.len(), 1, "{fails:?}");
        assert!(fails[0].contains("fig1/k-Core"));
    }

    #[test]
    fn an_empty_fresh_report_fails() {
        let base = report(&[("fig1", "BFS", 0)]);
        let fails = diff_reports(&report(&[]), &base);
        assert_eq!(fails.len(), 2, "{fails:?}");
        assert!(fails[1].contains("nothing was checked"));
        // Even an empty baseline checks nothing, and says so.
        assert_eq!(diff_reports(&report(&[]), &report(&[])).len(), 1);
    }

    #[test]
    fn scale_mismatch_is_refused() {
        let mut base = report(&[("fig1", "BFS", 0)]);
        base.scale = 10;
        let fresh = report(&[("fig1", "BFS", 0)]);
        let fails = diff_reports(&fresh, &base);
        assert_eq!(fails.len(), 1);
        assert!(fails[0].contains("scale mismatch"));
    }

    #[test]
    fn thread_count_mismatch_is_refused() {
        let mut base = report(&[("fig1", "BFS", 0)]);
        base.threads = 16;
        let fresh = report(&[("fig1", "BFS", 0)]);
        let fails = diff_reports(&fresh, &base);
        assert_eq!(fails.len(), 1);
        assert!(fails[0].contains("thread-count mismatch"));
    }
}
