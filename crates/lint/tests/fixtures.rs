//! Golden-file tests: each fixture under `tests/fixtures/` is scanned under
//! a *virtual* workspace path (the rule sets are path-keyed), and the test
//! asserts exactly which rules fire on which lines. The fixture directory is
//! excluded from the real tree scan (`SKIP_PATHS` in the library), so the
//! deliberate violations here never fail the gate itself.

use sage_lint::{scan_manifest, scan_rust, scan_rust_files, Violation};

/// `(rule, line)` pairs, sorted, for compact comparison.
fn fired(vs: &[Violation]) -> Vec<(&'static str, u32)> {
    let mut out: Vec<_> = vs.iter().map(|v| (v.rule, v.line)).collect();
    out.sort();
    out
}

/// 1-based line of the first fixture line containing `needle`.
fn line_of(src: &str, needle: &str) -> u32 {
    src.lines()
        .position(|l| l.contains(needle))
        .map(|i| i as u32 + 1)
        .unwrap_or_else(|| panic!("fixture lost its marker: {needle}"))
}

#[test]
fn safety_pass_is_clean() {
    let src = include_str!("fixtures/safety_pass.rs");
    let vs = scan_rust("crates/core/src/fixture.rs", src);
    assert_eq!(fired(&vs), vec![], "{vs:?}");
}

#[test]
fn safety_fail_flags_every_naked_site() {
    let src = include_str!("fixtures/safety_fail.rs");
    let vs = scan_rust("crates/core/src/fixture.rs", src);
    assert_eq!(
        fired(&vs),
        vec![
            ("safety-comment", line_of(src, "unsafe { *p }")),
            (
                "safety-comment",
                line_of(src, "pub unsafe fn naked_unsafe_fn")
            ),
            ("safety-comment", line_of(src, "unsafe impl Sync")),
        ]
    );
}

#[test]
fn strict_orderings_pass_when_justified() {
    let src = include_str!("fixtures/ordering_strict_pass.rs");
    // `crates/parallel/src/pool.rs` is strict AND fence-allowlisted, so the
    // FENCE PROTOCOL comment covers the bare `fence(SeqCst)`.
    let vs = scan_rust("crates/parallel/src/pool.rs", src);
    assert_eq!(fired(&vs), vec![], "{vs:?}");
}

#[test]
fn strict_orderings_fail_unjustified() {
    let src = include_str!("fixtures/ordering_strict_fail.rs");
    // Strict path, but NOT a fence-protocol file: the variant import, the
    // bare Relaxed load, and the bare fence all fire.
    let vs = scan_rust("crates/parallel/src/worker.rs", src);
    assert_eq!(
        fired(&vs),
        vec![
            (
                "ordering-comment",
                line_of(src, "use std::sync::atomic::Ordering::Relaxed")
            ),
            (
                "ordering-comment",
                line_of(src, "x.load(Ordering::Relaxed)")
            ),
            ("ordering-comment", line_of(src, "fence(Ordering::SeqCst)")),
        ]
    );
}

#[test]
fn fence_needs_the_protocol_comment_even_in_pool() {
    // The same failing fixture scanned AS pool.rs: the fence is exempt only
    // if the file actually documents a FENCE PROTOCOL, which this one
    // doesn't — so the fence still fires (plus the import and the load).
    let src = include_str!("fixtures/ordering_strict_fail.rs");
    let vs = scan_rust("crates/parallel/src/pool.rs", src);
    assert!(
        fired(&vs).contains(&("ordering-comment", line_of(src, "fence(Ordering::SeqCst)"))),
        "{vs:?}"
    );
}

#[test]
fn lax_paths_audit_only_non_relaxed() {
    let src = include_str!("fixtures/ordering_lax.rs");
    let vs = scan_rust("crates/serve/src/fixture.rs", src);
    // Relaxed without a comment is fine; commented Release is fine; the
    // bare SeqCst store is the single finding.
    assert_eq!(
        fired(&vs),
        vec![("ordering-comment", line_of(src, "Ordering::SeqCst"))]
    );
}

#[test]
fn write_discipline_flags_each_rule_once() {
    let src = include_str!("fixtures/write_fail.rs");
    let vs = scan_rust("crates/core/src/fixture.rs", src);
    assert_eq!(
        fired(&vs),
        vec![
            ("graph-write", line_of(src, "meter::graph_write")),
            ("mmap-const", line_of(src, "PROT_WRITE")),
            ("nv-ptr-escape", line_of(src, "pub fn launders")),
            ("static-mut", line_of(src, "static mut GLOBAL")),
        ]
    );
}

#[test]
fn write_discipline_ignores_near_misses() {
    let src = include_str!("fixtures/write_pass.rs");
    let vs = scan_rust("crates/core/src/fixture.rs", src);
    assert_eq!(fired(&vs), vec![], "{vs:?}");
}

#[test]
fn graph_write_allowed_in_the_allowlisted_files() {
    let src = include_str!("fixtures/write_fail.rs");
    for ok in ["crates/nvram/src/meter.rs", "crates/baselines/src/gbbs.rs"] {
        let vs = scan_rust(ok, src);
        assert!(
            !fired(&vs).iter().any(|(r, _)| *r == "graph-write"),
            "{ok}: {vs:?}"
        );
    }
}

#[test]
fn thread_spawn_exempt_in_parallel_and_tests() {
    let src = include_str!("fixtures/pragma_fail.rs");
    for ok in [
        "crates/parallel/src/fixture.rs",
        "tests/fixture.rs",
        "crates/serve/tests/fixture.rs",
    ] {
        let vs = scan_rust(ok, src);
        assert!(
            !fired(&vs).iter().any(|(r, _)| *r == "thread-spawn"),
            "{ok}: {vs:?}"
        );
    }
}

#[test]
fn well_formed_pragmas_suppress() {
    let src = include_str!("fixtures/pragma_pass.rs");
    let vs = scan_rust("crates/serve/src/fixture.rs", src);
    assert_eq!(fired(&vs), vec![], "{vs:?}");
}

#[test]
fn malformed_pragmas_fire_and_do_not_suppress() {
    let src = include_str!("fixtures/pragma_fail.rs");
    let vs = scan_rust("crates/serve/src/fixture.rs", src);
    assert_eq!(
        fired(&vs),
        vec![
            ("bad-pragma", line_of(src, "allow(thread-spawn)")),
            ("bad-pragma", line_of(src, "allow(no-such-rule)")),
            ("thread-spawn", line_of(src, "missing_reason") + 2),
            ("thread-spawn", line_of(src, "unknown_rule") + 2),
        ]
    );
}

/// Scan `src` as `rel` beside one caller file that names only
/// `called_elsewhere`; return the fixture's violations.
fn scan_with_caller(rel: &str, src: &str) -> Vec<Violation> {
    let files = [
        (rel.to_string(), src.to_string()),
        (
            "examples/caller.rs".to_string(),
            "fn main() { fixture::called_elsewhere(); }".to_string(),
        ),
    ];
    scan_rust_files(&files).swap_remove(0)
}

#[test]
fn dead_pub_passes_named_restricted_test_and_reserved_fns() {
    let src = include_str!("fixtures/dead_pub_pass.rs");
    let vs = scan_with_caller("crates/core/src/fixture.rs", src);
    assert_eq!(fired(&vs), vec![], "{vs:?}");
}

#[test]
fn dead_pub_flags_every_unnamed_pub_fn() {
    let src = include_str!("fixtures/dead_pub_fail.rs");
    let vs = scan_with_caller("crates/core/src/fixture.rs", src);
    assert_eq!(
        fired(&vs),
        vec![
            ("dead-pub", line_of(src, "pub fn never_named_elsewhere")),
            ("dead-pub", line_of(src, "pub const fn qualified_but_dead")),
            ("dead-pub", line_of(src, "pub fn dead_method")),
        ]
    );
}

#[test]
fn dead_pub_checks_only_crate_sources_and_needs_the_other_files() {
    let src = include_str!("fixtures/dead_pub_fail.rs");
    for rel in ["tests/fixture.rs", "benchmark/src/fixture.rs", "src/lib.rs"] {
        let vs = scan_with_caller(rel, src);
        assert_eq!(fired(&vs), vec![], "{rel}: {vs:?}");
    }
    // Alone, a file cannot tell whether others name its functions.
    let vs = scan_rust("crates/core/src/fixture.rs", src);
    assert_eq!(fired(&vs), vec![], "{vs:?}");
}

#[test]
fn manifest_allowlist_accepts_workspace_shapes() {
    let src = include_str!("fixtures/deps_pass.toml");
    let vs = scan_manifest("crates/serve/Cargo.toml", src);
    assert_eq!(fired(&vs), vec![], "{vs:?}");
}

#[test]
fn manifest_allowlist_rejects_external_crates() {
    let src = include_str!("fixtures/deps_fail.toml");
    let vs = scan_manifest("crates/serve/Cargo.toml", src);
    assert_eq!(
        fired(&vs),
        vec![
            ("dep-allowlist", line_of(src, "serde")),
            ("dep-allowlist", line_of(src, "rand")),
            ("dep-allowlist", line_of(src, "[dependencies.rayon]")),
        ]
    );
}
