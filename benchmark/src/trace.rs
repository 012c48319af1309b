//! In-memory span recorder for the traced pass.
//!
//! Spans are recorded from the benchmark's side of each layer boundary —
//! around every call into a crate — never from inside the product (that is
//! ROADMAP's `QueryTrace` item). A span is `{name, start, end, parent,
//! request}` plus the counts taken at the same boundary; spans of one served
//! request share a `request` id. Everything stays in memory until
//! [`Tracer::write_json`] at exit, and a disabled tracer records nothing, so
//! the untraced pass pays one branch per boundary.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a recorded span (its position in the tracer's span list).
pub type SpanId = usize;

/// One recorded span. Times are nanoseconds since the tracer was created.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// `layer.operation`, e.g. `engine.pagerank` or `serve.request`.
    pub name: &'static str,
    /// Start, ns since tracer creation.
    pub start_ns: u64,
    /// End, ns since tracer creation.
    pub end_ns: u64,
    /// The span that caused this one, if any.
    pub parent: Option<SpanId>,
    /// Request identifier shared by all spans of one served request.
    pub request: Option<u64>,
    /// Counts taken at the same boundary (words, batch members, ...).
    pub counts: Vec<(&'static str, u64)>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The recorder. Cheap to share (`&Tracer` is `Sync`); a disabled tracer
/// ignores every call.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or ignores everything.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds from the tracer's origin to `t`.
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Record a finished span; returns its id (`None` when disabled).
    pub fn record(
        &self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
        request: Option<u64>,
        counts: &[(&'static str, u64)],
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            request,
            counts: counts.to_vec(),
        };
        let mut spans = self.spans.lock().expect("no tracer user panics mid-push");
        spans.push(span);
        Some(spans.len() - 1)
    }

    /// Open a span now; close it with [`Tracer::end`]. Children recorded in
    /// between name the returned id as their parent.
    pub fn begin(&self, name: &'static str, parent: Option<SpanId>) -> Option<SpanId> {
        let now = Instant::now();
        self.record(name, now, now, parent, None, &[])
    }

    /// Close a span opened by [`Tracer::begin`].
    pub fn end(&self, id: Option<SpanId>) {
        if let Some(id) = id {
            let now = self.ns(Instant::now());
            let mut spans = self.spans.lock().expect("no tracer user panics mid-push");
            spans[id].end_ns = now;
        }
    }

    /// Time `f` as a span named `name` under `parent`. `f` receives the
    /// span's id so spans it records can name it as their parent. Returns
    /// `f`'s result and its wall-clock seconds, which are measured whether or
    /// not tracing is on: the metrics use this same reading.
    pub fn time<R>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce(Option<SpanId>) -> R,
    ) -> (R, f64) {
        let id = self.begin(name, parent);
        let start = Instant::now();
        let r = f(id);
        let secs = start.elapsed().as_secs_f64();
        self.end(id);
        (r, secs)
    }

    /// Attach counts to an already-recorded span.
    pub fn add_counts(&self, id: Option<SpanId>, counts: &[(&'static str, u64)]) {
        if let Some(id) = id {
            let mut spans = self.spans.lock().expect("no tracer user panics mid-push");
            spans[id].counts.extend_from_slice(counts);
        }
    }

    /// Spans recorded so far.
    pub fn recorded(&self) -> usize {
        self.spans
            .lock()
            .expect("no tracer user panics mid-push")
            .len()
    }

    /// A copy of everything recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("no tracer user panics mid-push")
            .clone()
    }

    /// Write the spans, their self times and the per-name totals as JSON.
    pub fn write_json(&self, path: &Path, header: &[(&str, String)]) -> std::io::Result<()> {
        let spans = self.spans();
        let selfs = self_times(&spans);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{{")?;
        for (k, v) in header {
            writeln!(out, "  \"{k}\": {v},")?;
        }
        writeln!(out, "  \"by_name\": [")?;
        let totals = totals_by_name(&spans, &selfs);
        for (i, (name, t)) in totals.iter().enumerate() {
            let comma = if i + 1 == totals.len() { "" } else { "," };
            writeln!(
                out,
                "    {{\"name\": \"{name}\", \"count\": {}, \"total_ns\": {}, \"self_ns\": {}}}{comma}",
                t.count, t.total_ns, t.self_ns
            )?;
        }
        writeln!(out, "  ],")?;
        writeln!(out, "  \"spans\": [")?;
        for (i, (s, self_ns)) in spans.iter().zip(&selfs).enumerate() {
            let comma = if i + 1 == spans.len() { "" } else { "," };
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let request = s.request.map_or("null".to_string(), |r| r.to_string());
            let counts: Vec<String> = s
                .counts
                .iter()
                .map(|(k, v)| format!("\"{k}\": {v}"))
                .collect();
            writeln!(
                out,
                "    {{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"self_ns\": {self_ns}, \"parent\": {parent}, \"request\": {request}, \
                 \"counts\": {{{}}}}}{comma}",
                s.name,
                s.start_ns,
                s.end_ns,
                counts.join(", ")
            )?;
        }
        writeln!(out, "  ]")?;
        writeln!(out, "}}")?;
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of its interval its
/// direct children cover. Children are clipped to the parent and overlapping
/// children (batch members sharing one engine run, say) are unioned, so
/// covered time is never subtracted twice and self time is never negative.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent.filter(|&p| p < spans.len()) {
            let (lo, hi) = (spans[p].start_ns, spans[p].end_ns);
            let (a, b) = (s.start_ns.clamp(lo, hi), s.end_ns.clamp(lo, hi));
            if b > a {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Per-name aggregate of a trace.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct NameTotal {
    /// Spans with this name.
    pub count: u64,
    /// Sum of durations.
    pub total_ns: u64,
    /// Sum of self times.
    pub self_ns: u64,
}

/// Totals per span name, in name order.
pub fn totals_by_name(spans: &[Span], selfs: &[u64]) -> Vec<(&'static str, NameTotal)> {
    let mut by: BTreeMap<&str, NameTotal> = BTreeMap::new();
    for (s, &self_ns) in spans.iter().zip(selfs) {
        let t = by.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.duration_ns();
        t.self_ns += self_ns;
    }
    by.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            request: None,
            counts: Vec::new(),
        }
    }

    #[test]
    fn nested_children_subtract_once_per_level() {
        // root 0..100 > child 10..60 > grandchild 20..30
        let spans = [
            span("root", 0, 100, None),
            span("child", 10, 60, Some(0)),
            span("grand", 20, 30, Some(1)),
        ];
        // The grandchild is not a direct child of root: root loses 50 only.
        assert_eq!(self_times(&spans), vec![50, 40, 10]);
    }

    #[test]
    fn overlapping_children_are_unioned() {
        // Two members of one batch share an engine run: 10..50 and 30..70
        // cover 10..70 = 60, not 80.
        let spans = [
            span("root", 0, 100, None),
            span("a", 10, 50, Some(0)),
            span("b", 30, 70, Some(0)),
            span("c", 35, 40, Some(0)), // wholly inside the union
        ];
        assert_eq!(self_times(&spans)[0], 40);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        // A reconstructed engine span may start before its request span.
        let spans = [
            span("request", 100, 200, None),
            span("engine", 50, 150, Some(0)),
            span("late", 190, 400, Some(0)),
            span("outside", 300, 400, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 50 - 10);
    }

    #[test]
    fn totals_group_by_name() {
        let spans = [
            span("x", 0, 10, None),
            span("y", 2, 4, Some(0)),
            span("x", 20, 25, None),
        ];
        let selfs = self_times(&spans);
        let totals = totals_by_name(&spans, &selfs);
        assert_eq!(totals.len(), 2);
        assert_eq!(
            totals[0],
            (
                "x",
                NameTotal {
                    count: 2,
                    total_ns: 15,
                    self_ns: 13
                }
            )
        );
    }

    #[test]
    fn disabled_tracer_records_nothing_but_still_times() {
        let t = Tracer::new(false);
        let (v, secs) = t.time("x", None, |id| (7, id));
        assert_eq!(v, (7, None));
        assert!(secs >= 0.0);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn enabled_tracer_links_parent_and_counts() {
        let t = Tracer::new(true);
        t.time("root", None, |root| {
            let (kid, _) = t.time("kid", root, |kid| kid);
            t.add_counts(kid, &[("words", 3)]);
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].counts, vec![("words", 3)]);
        assert!(spans[0].end_ns >= spans[1].end_ns);
    }
}
