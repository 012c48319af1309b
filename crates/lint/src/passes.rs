//! The contract passes and the pragma engine.
//!
//! Every pass works on the flat token stream from [`crate::lexer`]; none of
//! them build a syntax tree. Each check is a short token-sequence match plus
//! a comment lookup on adjacent lines, so the passes are trivially robust to
//! formatting and cheap enough to run on every `cargo test`.

use crate::lexer::{cfg_test_mask, lex, Kind, Lexed, Token};
use std::collections::{HashMap, HashSet};

/// Rule identifiers, as accepted by `sage-lint: allow(<rule>)` pragmas.
pub const RULES: &[&str] = &[
    "safety-comment",
    "ordering-comment",
    "graph-write",
    "mmap-const",
    "nv-ptr-escape",
    "static-mut",
    "dep-allowlist",
    "thread-spawn",
    "dead-pub",
    "global-meter",
];

/// Where a public function's callers may live: the `dead-pub` pass counts a
/// name as used when any other file under these roots names it.
const CALLER_ROOTS: &[&str] = &["crates/", "src/", "tests/", "examples/", "benchmark/src/"];

/// The atomic-ordering variant names audited by the ordering pass.
const ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// mmap-layer constants and syscalls that must not leave the mmap module:
/// anything that could establish or retune a writable mapping.
const MMAP_IDENTS: &[&str] = &[
    "PROT_READ",
    "PROT_WRITE",
    "PROT_EXEC",
    "MAP_SHARED",
    "MAP_PRIVATE",
    "MAP_ANONYMOUS",
    "MAP_FIXED",
    "MAP_NORESERVE",
    "mprotect",
];

/// NVRAM-view types whose co-occurrence with write-capable pointer idioms
/// outside `crates/nvram` the write-discipline pass flags.
const NV_TYPES: &[&str] = &["NvSlice", "NvRegion", "MmapFile"];

/// The dependency allowlist: workspace crates plus the offline vendor shims.
/// Anything else in a `[*dependencies]` table is a contract violation — the
/// container builds offline and every external crate is an unaudited source
/// of `unsafe` and threads.
pub const ALLOWED_DEPS: &[&str] = &[
    "sage",
    "sage-parallel",
    "sage-nvram",
    "sage-graph",
    "sage-core",
    "sage-baselines",
    "sage-serve",
    "sage-bench",
    "sage-lint",
    "parking_lot",
    "crossbeam-deque",
    "criterion",
    "proptest",
];

/// One finding, reported as `path:line: [rule] message`.
#[derive(Debug, Clone)]
pub struct Violation {
    /// The rule id (one of [`RULES`], or `bad-pragma`).
    pub rule: &'static str,
    /// 1-based source line.
    pub line: u32,
    /// Human-readable explanation.
    pub msg: String,
}

/// How a file's path situates it relative to the contract.
///
/// Paths are workspace-relative with `/` separators (e.g.
/// `crates/parallel/src/pool.rs`); the fixture tests exploit this by
/// scanning the same source under different virtual paths.
struct FileClass<'a> {
    rel: &'a str,
    /// Every `Ordering::*` use needs an `// ORDERING:` comment here: the
    /// lock-free runtime (`crates/parallel`, the vendored Chase-Lev deque)
    /// and the NVRAM boundary (`crates/nvram`).
    strict_atomics: bool,
    /// Files whose `fence(Ordering::SeqCst)` sites are covered by a single
    /// module-level `FENCE PROTOCOL` comment instead of per-site comments.
    fence_file: bool,
    /// Modules allowed to *call* `meter::graph_write`.
    graph_write_ok: bool,
    /// The one file allowed to name mmap protection/flag constants.
    mmap_file: bool,
    in_nvram: bool,
    in_parallel: bool,
    /// Integration-test files (`tests/` directories): thread-spawn exempt.
    tests_dir: bool,
    /// A crate's library or binary source (`crates/*/src`): its `pub fn`s
    /// need a caller elsewhere.
    crate_src: bool,
    /// The one file whose tests may read `Meter::global()`: the meter's own.
    global_meter_ok: bool,
}

impl<'a> FileClass<'a> {
    fn new(rel: &'a str) -> Self {
        let in_parallel = rel.starts_with("crates/parallel/");
        let in_nvram = rel.starts_with("crates/nvram/");
        FileClass {
            rel,
            strict_atomics: rel.starts_with("crates/parallel/src/")
                || rel.starts_with("crates/nvram/src/")
                || rel.starts_with("vendor/crossbeam-deque/src/"),
            fence_file: rel == "crates/parallel/src/pool.rs"
                || rel == "vendor/crossbeam-deque/src/deque.rs",
            graph_write_ok: rel == "crates/nvram/src/meter.rs"
                || rel == "crates/nvram/src/publish.rs"
                || rel == "crates/baselines/src/gbbs.rs",
            mmap_file: rel == "crates/nvram/src/mmap.rs",
            in_nvram,
            in_parallel,
            tests_dir: rel.starts_with("tests/") || rel.contains("/tests/"),
            crate_src: rel.starts_with("crates/") && rel.split('/').nth(2) == Some("src"),
            global_meter_ok: rel == "crates/nvram/src/meter.rs",
        }
    }
}

/// A parsed `// sage-lint: allow(rule, ...) -- reason` pragma.
struct Pragma {
    line: u32,
    rules: Vec<&'static str>,
}

/// Parse pragmas out of the per-line comment text. Malformed pragmas — a
/// rule not in the catalog, or a missing/empty `-- reason` — are themselves
/// violations (`bad-pragma`), and `bad-pragma` cannot be suppressed.
fn parse_pragmas(lx: &Lexed) -> (Vec<Pragma>, Vec<Violation>) {
    let mut pragmas = Vec::new();
    let mut bad = Vec::new();
    for l in 1..=lx.lines {
        let Some(text) = lx.comment_on(l) else {
            continue;
        };
        let Some(at) = text.find("sage-lint:") else {
            continue;
        };
        // Doc comments (`///`, `//!`, `/** */`, `/*! */`) never carry live
        // pragmas — they are where the pragma syntax gets *documented*. A
        // doc marker anywhere before the pragma text means the pragma sits
        // inside documentation (everything after a doc marker on a line is
        // doc text).
        let doc_at = ["///", "//!", "/**", "/*!"]
            .iter()
            .filter_map(|m| text.find(m))
            .min();
        if doc_at.is_some_and(|d| d < at) {
            continue;
        }
        let rest = &text[at + "sage-lint:".len()..];
        fn fail(bad: &mut Vec<Violation>, l: u32, why: &str) {
            bad.push(Violation {
                rule: "bad-pragma",
                line: l,
                msg: format!("malformed sage-lint pragma: {why}"),
            });
        }
        let rest = rest.trim_start();
        let Some(body) = rest.strip_prefix("allow(") else {
            fail(&mut bad, l, "expected `allow(<rule>, ...)`");
            continue;
        };
        let Some(close) = body.find(')') else {
            fail(&mut bad, l, "unclosed `allow(`");
            continue;
        };
        let mut rules = Vec::new();
        let mut unknown = false;
        for name in body[..close].split(',') {
            let name = name.trim();
            match RULES.iter().find(|r| **r == name) {
                Some(r) => rules.push(*r),
                None => {
                    bad.push(Violation {
                        rule: "bad-pragma",
                        line: l,
                        msg: format!("unknown rule `{name}` in allow()"),
                    });
                    unknown = true;
                }
            }
        }
        let tail = body[close + 1..].trim_start();
        let reason_ok = tail
            .strip_prefix("--")
            .map(|r| !r.trim().is_empty())
            .unwrap_or(false);
        if !reason_ok {
            bad.push(Violation {
                rule: "bad-pragma",
                line: l,
                msg: "pragma needs a nonempty justification: `-- <reason>`".to_string(),
            });
            continue;
        }
        if !unknown && rules.is_empty() {
            fail(&mut bad, l, "empty allow()");
            continue;
        }
        pragmas.push(Pragma { line: l, rules });
    }
    (pragmas, bad)
}

/// Scan one Rust source file under its workspace-relative `rel_path` with
/// every per-file rule (`dead-pub` needs the other files: see
/// [`scan_rust_files`]).
///
/// Returns the violations that survive pragma suppression, sorted by line.
pub fn scan_rust(rel_path: &str, src: &str) -> Vec<Violation> {
    scan_lexed(rel_path, &lex(src), None)
}

/// Scan a set of `(workspace-relative path, source)` Rust files together:
/// every per-file rule on each file, plus `dead-pub`, which asks whether any
/// *other* file of the set names a function. Returns each file's surviving
/// violations, in input order.
pub fn scan_rust_files(files: &[(String, String)]) -> Vec<Vec<Violation>> {
    let lexed: Vec<Lexed> = files.iter().map(|(_, src)| lex(src)).collect();
    // How many caller-root files name each identifier.
    let mut named_in: HashMap<&str, usize> = HashMap::new();
    for ((rel, _), lx) in files.iter().zip(&lexed) {
        if !CALLER_ROOTS.iter().any(|r| rel.starts_with(r)) {
            continue;
        }
        let idents: HashSet<&str> = lx
            .tokens
            .iter()
            .filter(|t| t.kind == Kind::Ident)
            .map(|t| t.text.as_str())
            .collect();
        for name in idents {
            *named_in.entry(name).or_default() += 1;
        }
    }
    // A `crates/*/src` file is itself a caller-root file that names its own
    // functions, so a second file is needed.
    let used_elsewhere = |name: &str| named_in.get(name).copied().unwrap_or(0) >= 2;
    files
        .iter()
        .zip(&lexed)
        .map(|((rel, _), lx)| scan_lexed(rel, lx, Some(&used_elsewhere)))
        .collect()
}

/// The per-file passes plus, given `used_elsewhere`, the `dead-pub` pass.
fn scan_lexed(
    rel_path: &str,
    lx: &Lexed,
    used_elsewhere: Option<&dyn Fn(&str) -> bool>,
) -> Vec<Violation> {
    let class = FileClass::new(rel_path);
    let in_test = cfg_test_mask(lx);
    let (pragmas, mut out) = parse_pragmas(lx);

    let mut found: Vec<Violation> = Vec::new();
    check_unsafe(lx, &mut found);
    check_orderings(lx, &class, &in_test, &mut found);
    check_write_discipline(lx, &class, &mut found);
    check_thread_spawn(lx, &class, &in_test, &mut found);
    check_global_meter(lx, &class, &in_test, &mut found);
    if let Some(used) = used_elsewhere {
        check_dead_pub(lx, &class, &in_test, used, &mut found);
    }

    // Apply suppressions: a pragma covers its own line if it shares a line
    // with code (trailing form), otherwise the next code line below it.
    let mut allowed: Vec<(&'static str, u32)> = Vec::new();
    for p in &pragmas {
        let target = if lx.is_code_line(p.line) {
            p.line
        } else {
            lx.next_code_line(p.line).unwrap_or(p.line)
        };
        for r in &p.rules {
            allowed.push((r, target));
        }
    }
    found.retain(|v| !allowed.iter().any(|(r, l)| *r == v.rule && *l == v.line));
    out.extend(found);
    out.sort_by_key(|v| v.line);
    out
}

/// Statement-aware justification: the needle may appear on the site line,
/// on comment lines anywhere inside the enclosing statement (found by
/// scanning back to the previous `;`/`{`/`}` token — multi-line method
/// chains and CAS ordering pairs share one justification), or in the
/// comment block immediately above the statement's first line.
fn stmt_justified(lx: &Lexed, i: usize, needles: &[&str]) -> bool {
    let toks = &lx.tokens;
    let site = toks[i].line;
    if lx.justified(site, needles) {
        return true;
    }
    let mut k = i;
    while k > 0 {
        let t = &toks[k - 1];
        if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
            break;
        }
        k -= 1;
    }
    let start = toks[k].line;
    for l in start..site {
        if let Some(c) = lx.comment_on(l) {
            if needles.iter().any(|n| c.contains(n)) {
                return true;
            }
        }
    }
    lx.justified(start, needles)
}

/// Pass 1 — unsafe-hygiene: every `unsafe` keyword (block, fn, impl, trait)
/// must sit next to a `// SAFETY:` comment or a `# Safety` doc section.
fn check_unsafe(lx: &Lexed, out: &mut Vec<Violation>) {
    for i in 0..lx.tokens.len() {
        let t = &lx.tokens[i];
        if t.is_ident("unsafe") && !stmt_justified(lx, i, &["SAFETY:", "# Safety"]) {
            out.push(Violation {
                rule: "safety-comment",
                line: t.line,
                msg: "`unsafe` without an adjacent `// SAFETY:` comment (or `# Safety` doc)"
                    .to_string(),
            });
        }
    }
}

/// Pass 2 — atomic-ordering audit.
///
/// In the strict set (lock-free runtime + NVRAM boundary) every
/// `Ordering::X` use needs an `// ORDERING:` comment; elsewhere only
/// non-`Relaxed` orderings do (a stray acquire/release in algorithm code is
/// either load-bearing — then it must say why — or noise). `fence(SeqCst)`
/// in the allowlisted fence-protocol files is covered by the module-level
/// `FENCE PROTOCOL` comment. Importing ordering variants (`use ...
/// Ordering::Relaxed`) is banned outright so every use site stays visibly
/// qualified and auditable.
fn check_orderings(lx: &Lexed, class: &FileClass, in_test: &[bool], out: &mut Vec<Violation>) {
    let toks = &lx.tokens;
    let has_fence_protocol = lx
        .comment_text
        .iter()
        .flatten()
        .any(|c| c.contains("FENCE PROTOCOL"));
    for i in 0..toks.len() {
        if !toks[i].is_ident("Ordering") {
            continue;
        }
        if !(i + 3 < toks.len() && toks[i + 1].is_punct(':') && toks[i + 2].is_punct(':')) {
            continue;
        }
        let ord = &toks[i + 3];
        if !ORDERINGS.iter().any(|o| ord.is_ident(o)) {
            continue;
        }
        // `use ...::Ordering::Relaxed;` — ban variant imports everywhere.
        if line_has_leading_use(toks, i) {
            out.push(Violation {
                rule: "ordering-comment",
                line: ord.line,
                msg: "import `Ordering` itself, never its variants: bare orderings \
                      at use sites are unauditable"
                    .to_string(),
            });
            continue;
        }
        let fence_exempt = class.fence_file
            && has_fence_protocol
            && ord.is_ident("SeqCst")
            && i >= 2
            && toks[i - 1].is_punct('(')
            && toks[i - 2].is_ident("fence");
        if fence_exempt {
            continue;
        }
        let strict_here = class.strict_atomics && !in_test.get(i).copied().unwrap_or(false);
        let needs_comment = strict_here || !ord.is_ident("Relaxed");
        if needs_comment && !stmt_justified(lx, i + 3, &["ORDERING:"]) {
            let where_ = if strict_here {
                "in the lock-free runtime every ordering"
            } else {
                "a non-Relaxed ordering"
            };
            out.push(Violation {
                rule: "ordering-comment",
                line: ord.line,
                msg: format!(
                    "{where_} needs an adjacent `// ORDERING:` justification (found \
                     `Ordering::{}`)",
                    ord.text
                ),
            });
        }
    }
}

/// Is there a leading `use` token on the same line before token `i`?
fn line_has_leading_use(toks: &[Token], i: usize) -> bool {
    let line = toks[i].line;
    let mut k = i;
    while k > 0 && toks[k - 1].line == line {
        k -= 1;
        if toks[k].is_ident("use") {
            return true;
        }
    }
    false
}

/// Pass 3 — semi-asymmetry write-discipline.
///
/// * `meter::graph_write(..)` may only be *called* from the allowlist
///   (the meter itself, the publish write-accounting module — the one
///   sanctioned snapshot-flush path — and the deliberately write-heavy
///   GBBS baseline); everywhere else a nonzero graph write is a bug by
///   definition.
/// * mmap protection/flag constants stay inside `crates/nvram/src/mmap.rs`,
///   the single audited place a mapping is created.
/// * Outside `crates/nvram`, an NVRAM view type (`NvSlice`/`NvRegion`/
///   `MmapFile`) appearing on the same line as a write-capable pointer
///   idiom (`*mut`, `as_mut_ptr`, `ptr::write`, `write_volatile`,
///   `transmute`) is flagged: nothing may launder a read-only graph view
///   into a writable pointer.
/// * `static mut` is banned outright.
fn check_write_discipline(lx: &Lexed, class: &FileClass, out: &mut Vec<Violation>) {
    let toks = &lx.tokens;
    for i in 0..toks.len() {
        let t = &toks[i];
        // graph_write called (not defined) outside the allowlist.
        if !class.graph_write_ok
            && t.is_ident("graph_write")
            && toks.get(i + 1).map(|n| n.is_punct('(')).unwrap_or(false)
            && !(i > 0 && toks[i - 1].is_ident("fn"))
        {
            out.push(Violation {
                rule: "graph-write",
                line: t.line,
                msg: format!(
                    "`graph_write` call outside the write allowlist (in {}): NVRAM is \
                     read-only during algorithm execution",
                    class.rel
                ),
            });
        }
        if !class.mmap_file && MMAP_IDENTS.iter().any(|m| t.is_ident(m)) {
            out.push(Violation {
                rule: "mmap-const",
                line: t.line,
                msg: format!(
                    "mmap constant `{}` outside crates/nvram/src/mmap.rs: mappings are \
                     created in exactly one audited place",
                    t.text
                ),
            });
        }
        if t.is_ident("static") && toks.get(i + 1).map(|n| n.is_ident("mut")).unwrap_or(false) {
            out.push(Violation {
                rule: "static-mut",
                line: t.line,
                msg: "`static mut` is banned; use an atomic, a lock, or interior \
                      mutability with a documented protocol"
                    .to_string(),
            });
        }
    }
    if !class.in_nvram {
        check_nv_ptr_escape(lx, out);
    }
}

/// Line-local co-occurrence check for NVRAM types and write idioms.
fn check_nv_ptr_escape(lx: &Lexed, out: &mut Vec<Violation>) {
    let toks = &lx.tokens;
    let mut i = 0;
    while i < toks.len() {
        let line = toks[i].line;
        let mut j = i;
        while j < toks.len() && toks[j].line == line {
            j += 1;
        }
        let span = &toks[i..j];
        let names_nv = span.iter().any(|t| NV_TYPES.iter().any(|n| t.is_ident(n)));
        if names_nv {
            let writey = span
                .windows(2)
                .any(|w| w[0].is_punct('*') && w[1].is_ident("mut"))
                || span.windows(4).any(|w| {
                    w[0].is_ident("ptr")
                        && w[1].is_punct(':')
                        && w[2].is_punct(':')
                        && (w[3].is_ident("write") || w[3].text.starts_with("write_"))
                })
                || span.iter().any(|t| {
                    t.is_ident("as_mut_ptr")
                        || t.is_ident("write_volatile")
                        || t.is_ident("transmute")
                });
            if writey {
                out.push(Violation {
                    rule: "nv-ptr-escape",
                    line,
                    msg: "write-capable pointer idiom next to an NVRAM view type outside \
                          crates/nvram"
                        .to_string(),
                });
            }
        }
        i = j;
    }
}

/// Pass 4b — runtime fence: `std::thread::spawn` / `thread::scope` only in
/// `crates/parallel` (the pool owns every OS thread the engine creates).
/// `#[cfg(test)]` modules and `tests/` directories are exempt — tests and
/// load generators legitimately simulate external clients; non-test code
/// that must spawn (e.g. bench client harnesses) documents itself with a
/// pragma.
fn check_thread_spawn(lx: &Lexed, class: &FileClass, in_test: &[bool], out: &mut Vec<Violation>) {
    if class.in_parallel || class.tests_dir {
        return;
    }
    let toks = &lx.tokens;
    for i in 0..toks.len() {
        if in_test.get(i).copied().unwrap_or(false) {
            continue;
        }
        if toks[i].is_ident("thread")
            && i + 3 < toks.len()
            && toks[i + 1].is_punct(':')
            && toks[i + 2].is_punct(':')
            && (toks[i + 3].is_ident("spawn") || toks[i + 3].is_ident("scope"))
        {
            out.push(Violation {
                rule: "thread-spawn",
                line: toks[i + 3].line,
                msg: "OS threads outside crates/parallel: route work through the pool, \
                      or pragma a documented load-generator exception"
                    .to_string(),
            });
        }
    }
}

/// Pass 4c — tests that cannot race: test code (`#[cfg(test)]` modules and
/// `tests/` directories) never reads `Meter::global()`. Sibling tests charge
/// the one process-wide meter at the same time, so an equality on a global
/// diff depends on what else is running; a `MeterScope` (inherited by
/// forked pool jobs) or a result's own traffic sees one test's words only.
/// The meter's own tests, which exercise the global meter itself, are
/// exempt. A `≤ global delta` bound cannot race — siblings only add to the
/// global meter — and takes a pragma saying why it needs the global meter.
fn check_global_meter(lx: &Lexed, class: &FileClass, in_test: &[bool], out: &mut Vec<Violation>) {
    if class.global_meter_ok {
        return;
    }
    let toks = &lx.tokens;
    for i in 0..toks.len().saturating_sub(3) {
        if (class.tests_dir || in_test[i])
            && toks[i].is_ident("Meter")
            && toks[i + 1].is_punct(':')
            && toks[i + 2].is_punct(':')
            && toks[i + 3].is_ident("global")
        {
            out.push(Violation {
                rule: "global-meter",
                line: toks[i + 3].line,
                msg: "`Meter::global()` in test code: sibling tests charge it too; read a \
                      `MeterScope` or the result's own traffic"
                    .to_string(),
            });
        }
    }
}

/// Pass 5 — dead public surface: a non-test `pub fn` under `crates/*/src`
/// whose name no other file under [`CALLER_ROOTS`] names. Name-based, so a
/// function that shares its name with any identifier elsewhere passes.
fn check_dead_pub(
    lx: &Lexed,
    class: &FileClass,
    in_test: &[bool],
    used_elsewhere: &dyn Fn(&str) -> bool,
    out: &mut Vec<Violation>,
) {
    if !class.crate_src {
        return;
    }
    let toks = &lx.tokens;
    for i in 0..toks.len() {
        if !toks[i].is_ident("pub") || in_test.get(i).copied().unwrap_or(false) {
            continue;
        }
        // `pub [const] [async] [unsafe] [extern "abi"] fn name`; a
        // restricted `pub(..)` never matches.
        let mut k = i + 1;
        while k < toks.len()
            && (["const", "async", "unsafe", "extern"]
                .iter()
                .any(|q| toks[k].is_ident(q))
                || toks[k].kind == Kind::Literal)
        {
            k += 1;
        }
        if !(k + 1 < toks.len() && toks[k].is_ident("fn") && toks[k + 1].kind == Kind::Ident) {
            continue;
        }
        let name = &toks[k + 1];
        if !used_elsewhere(&name.text) {
            out.push(Violation {
                rule: "dead-pub",
                line: name.line,
                msg: format!(
                    "`pub fn {}` is named by no other file: give it a caller, lower \
                     it to `pub(crate)`, or delete it",
                    name.text
                ),
            });
        }
    }
}

/// Pass 4a — dependency allowlist over a `Cargo.toml` manifest.
///
/// Every entry of a `[*dependencies*]` table must name a workspace crate or
/// a vendored shim. The parser is line-oriented TOML — sections and
/// `name = value` / `name.workspace = true` entries — which matches how the
/// workspace manifests are written and keeps the lint dependency-free.
pub fn scan_manifest(rel_path: &str, src: &str) -> Vec<Violation> {
    let _ = rel_path;
    let mut out = Vec::new();
    let mut in_deps = false;
    for (idx, raw) in src.lines().enumerate() {
        let line = raw.trim();
        let lineno = idx as u32 + 1;
        if line.starts_with('[') {
            let section = line.trim_matches(|c| c == '[' || c == ']');
            if let Some(dot) = section.find("dependencies.") {
                // `[dependencies.foo]` header form names the dep itself.
                in_deps = false;
                let name = &section[dot + "dependencies.".len()..];
                check_dep(name, lineno, &mut out);
            } else {
                in_deps = section == "dependencies"
                    || section.ends_with(".dependencies")
                    || section.ends_with("dev-dependencies")
                    || section.ends_with("build-dependencies");
            }
            continue;
        }
        if !in_deps || line.is_empty() || line.starts_with('#') {
            continue;
        }
        let name: String = line
            .chars()
            .take_while(|c| !matches!(c, '=' | '.' | ' ' | '\t'))
            .collect();
        if name.is_empty() {
            continue;
        }
        check_dep(name.trim_matches('"'), lineno, &mut out);
    }
    out
}

fn check_dep(name: &str, line: u32, out: &mut Vec<Violation>) {
    if !ALLOWED_DEPS.contains(&name) {
        out.push(Violation {
            rule: "dep-allowlist",
            line,
            msg: format!(
                "dependency `{name}` is not on the allowlist (workspace crates + \
                 vendored shims only; the build must stay offline-clean)"
            ),
        });
    }
}
