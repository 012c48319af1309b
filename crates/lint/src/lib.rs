#![forbid(unsafe_code)]
//! `sage-lint` — a dependency-free static-analysis pass that mechanically
//! enforces the semi-asymmetric contract.
//!
//! Sage's central invariant is that NVRAM is **read-only during algorithm
//! execution** (`graph_write == 0`). The meter enforces it dynamically and
//! `MmapFile`'s `PROT_READ` mapping enforces it physically, but nothing in
//! the type system stops a new code path from smuggling a write-capable
//! pointer out of `crates/nvram`, or from misusing an atomic ordering in
//! the lock-free runtime (the Chase-Lev deque, the pool sleep protocol, the
//! meter shards). This crate closes that gap at review time: it is a CI
//! gate and a tier-1 test (`tests/lint_gate.rs`) that scans every Rust
//! source and manifest in the workspace.
//!
//! # The rule catalog
//!
//! | rule | requirement |
//! |------|-------------|
//! | `safety-comment` | every `unsafe` (block/fn/impl/trait) is adjacent to a `// SAFETY:` comment or a `# Safety` doc section |
//! | `ordering-comment` | every `Ordering::*` use in `crates/parallel/src`, `crates/nvram/src`, and `vendor/crossbeam-deque/src` has an `// ORDERING:` comment; elsewhere non-`Relaxed` orderings do; variant imports are banned; `fence(SeqCst)` in `pool.rs`/`deque.rs` rides the module-level `FENCE PROTOCOL` comment |
//! | `graph-write` | `meter::graph_write` is only *called* from `crates/nvram/src/meter.rs` and `crates/baselines/src/gbbs.rs` |
//! | `mmap-const` | `PROT_*`/`MAP_*`/`mprotect` identifiers only in `crates/nvram/src/mmap.rs` |
//! | `nv-ptr-escape` | outside `crates/nvram`, no `*mut`/`ptr::write*`/`as_mut_ptr`/`write_volatile`/`transmute` on a line naming `NvSlice`/`NvRegion`/`MmapFile` |
//! | `static-mut` | no `static mut`, anywhere |
//! | `dep-allowlist` | `Cargo.toml` dependency tables only name workspace crates and vendored shims |
//! | `thread-spawn` | `std::thread::{spawn,scope}` only in `crates/parallel` (tests and `#[cfg(test)]` modules exempt) |
//! | `global-meter` | no `Meter::global()` in `#[cfg(test)]` modules or `tests/` directories, except `crates/nvram/src/meter.rs` (sibling tests charge the same meter; read a `MeterScope`) |
//! | `dead-pub` | a non-test `pub fn` under `crates/*/src` is named as an identifier by some other `.rs` file under `crates/`, `src/`, `tests/`, `examples/` or `benchmark/src/` (lint fixtures excluded) |
//!
//! # Pragmas
//!
//! A violation is suppressible only by an adjacent pragma **with a
//! nonempty reason**:
//!
//! ```text
//! // sage-lint: allow(thread-spawn) -- load generator simulating clients
//! ```
//!
//! Trailing on the offending line, or on its own line directly above it.
//! A missing reason or an unknown rule name is itself an error
//! (`bad-pragma`) and cannot be suppressed.
//!
//! # Why lexer-level, and what it cannot see
//!
//! The container is offline, so `syn`/`rustc` internals are unavailable;
//! the scanner is a hand-rolled lexer ([`lexer`]) that strips comments,
//! strings, and char literals and then matches short token sequences. That
//! design has known false negatives, accepted deliberately:
//!
//! * **No name resolution.** A renamed import (`use meter::graph_write as
//!   gw`) or a variant brought in via glob would evade `graph-write` and
//!   the ordering audit — which is why variant imports are banned
//!   syntactically, keeping uses qualified and matchable.
//! * **No data flow.** `nv-ptr-escape` is a same-line co-occurrence check;
//!   laundering a pointer through intermediate bindings across lines is
//!   invisible to it. The dynamic meter and the `PROT_READ` mapping remain
//!   the backstop at runtime.
//! * **No macro expansion.** Tokens generated by macros are not seen.
//!   The workspace defines no macros that emit `unsafe` or atomics.
//! * **Names, not uses.** `dead-pub` counts a function as called when any
//!   other file names an identifier of the same spelling — a field, a
//!   local, a different type's method — so a dead `pub fn new` or
//!   `pub fn len` is never reported.
//! * **cfg-test regions** are tracked only for brace-bodied
//!   `#[cfg(test)] mod` items; `#[cfg(test)]` on single functions keeps
//!   the strict rules (more auditing, never less).
//!
//! False *positives* are handled by the pragma mechanism, which doubles as
//! documentation of every exception.

pub mod lexer;
pub mod passes;

pub use passes::{scan_manifest, scan_rust, scan_rust_files, Violation, ALLOWED_DEPS, RULES};

use std::fs;
use std::path::{Path, PathBuf};

/// The result of scanning a workspace tree.
#[derive(Debug, Default)]
pub struct ScanReport {
    /// Violations paired with the workspace-relative path they occur in.
    pub violations: Vec<(String, Violation)>,
    /// Number of files scanned (Rust sources + manifests).
    pub files: usize,
}

/// Directory names never descended into.
const SKIP_DIRS: &[&str] = &["target", ".git", "node_modules"];

/// Path fragments excluded from the tree scan: the lint's own fixture files
/// are *deliberate* violations.
const SKIP_PATHS: &[&str] = &["crates/lint/tests/fixtures"];

/// Recursively scan `root` (a workspace checkout): every `*.rs` file goes
/// through the Rust passes (together, for `dead-pub`), every `Cargo.toml`
/// through the manifest pass.
pub fn scan_tree(root: &Path) -> std::io::Result<ScanReport> {
    let mut report = ScanReport::default();
    let mut stack = vec![root.to_path_buf()];
    let mut files: Vec<PathBuf> = Vec::new();
    while let Some(dir) = stack.pop() {
        for entry in fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if entry.file_type()?.is_dir() {
                if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                    continue;
                }
                let rel = rel_of(root, &path);
                if SKIP_PATHS.iter().any(|s| rel.starts_with(s)) {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") || name == "Cargo.toml" {
                let rel = rel_of(root, &path);
                if SKIP_PATHS.iter().any(|s| rel.starts_with(s)) {
                    continue;
                }
                files.push(path);
            }
        }
    }
    files.sort();
    let mut rust = Vec::new();
    for path in files {
        let rel = rel_of(root, &path);
        let src = fs::read_to_string(&path)?;
        report.files += 1;
        if rel.ends_with(".rs") {
            rust.push((rel, src));
        } else {
            for v in scan_manifest(&rel, &src) {
                report.violations.push((rel.clone(), v));
            }
        }
    }
    let violations = scan_rust_files(&rust);
    for ((rel, _), vs) in rust.iter().zip(violations) {
        for v in vs {
            report.violations.push((rel.clone(), v));
        }
    }
    Ok(report)
}

/// Workspace-relative path with `/` separators.
fn rel_of(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect::<Vec<_>>()
        .join("/")
}
