//! A libtest-compatible runner for `harness = false` test binaries that
//! measure the process-wide allocator counters: the cases run one after
//! another on the main thread, so no harness thread allocates beside a
//! measurement.
//!
//! It honours the libtest arguments a caller is likely to pass — name
//! filters, `--exact`, `--skip <name>`, `--list`, `--ignored`, `-q` /
//! `--quiet` — and ignores the rest. Output follows libtest's format, and a
//! failing case makes the binary exit with 101.

/// A named test case.
pub type Case = (&'static str, fn());

/// libtest options that take a value, so the value is not a name filter.
const VALUED: &[&str] = &["--test-threads", "--format", "--color", "--logfile", "-Z"];

/// Run the `cases` selected by the command line, in order.
pub fn run(cases: &[Case]) {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |f: &str| args.iter().any(|a| a == f);
    let (mut filters, mut skips) = (Vec::new(), Vec::new());
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--skip" {
            skips.extend(it.next());
        } else if VALUED.contains(&a.as_str()) {
            it.next();
        } else if !a.starts_with('-') {
            filters.push(a.as_str());
        }
    }
    let matches = |name: &str, pat: &str| {
        if flag("--exact") {
            name == pat
        } else {
            name.contains(pat)
        }
    };
    let selected: Vec<&Case> = cases
        .iter()
        .filter(|_| !flag("--ignored"))
        .filter(|(name, _)| filters.is_empty() || filters.iter().any(|f| matches(name, f)))
        .filter(|(name, _)| !skips.iter().any(|s| matches(name, s)))
        .collect();
    if flag("--list") {
        for (name, _) in &selected {
            println!("{name}: test");
        }
        return;
    }
    let quiet = flag("-q") || flag("--quiet");
    println!("\nrunning {} tests", selected.len());
    let mut failed = Vec::new();
    for (name, case) in &selected {
        let ok = std::panic::catch_unwind(case).is_ok();
        if quiet {
            print!("{}", if ok { "." } else { "F" });
        } else {
            println!("test {name} ... {}", if ok { "ok" } else { "FAILED" });
        }
        if !ok {
            failed.push(*name);
        }
    }
    if quiet {
        println!();
    }
    if !failed.is_empty() {
        println!("\nfailures:");
        for name in &failed {
            println!("    {name}");
        }
    }
    println!(
        "\ntest result: {}. {} passed; {} failed; 0 ignored; 0 measured; {} filtered out\n",
        if failed.is_empty() { "ok" } else { "FAILED" },
        selected.len() - failed.len(),
        failed.len(),
        cases.len() - selected.len()
    );
    if !failed.is_empty() {
        std::process::exit(101);
    }
}
