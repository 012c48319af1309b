//! `sage-benchmark`: the repository's measuring instrument.
//!
//! ```text
//! sage-benchmark run --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                    [--smoke] [--out <dir>] [--append <file>]
//! sage-benchmark compare <A.jsonl> <B.jsonl> [--manifest <BENCHMARK.json>]
//! sage-benchmark overhead <A.jsonl>
//! sage-benchmark list
//! ```
//!
//! `run` prints every metric of the pass as `workload metric value unit` and,
//! as the last line of standard output, the result object the driver reads.
//! See `benchmark/README.md` for what is measured and why.

#![deny(unsafe_op_in_unsafe_fn)]

mod analytics;
mod compare;
mod inputs;
mod json;
mod layers;
mod oracle;
mod repr;
mod run;
mod serving;
mod setup;
mod spec;
mod stats;
mod trace;
mod update;

use std::path::PathBuf;
use std::process::ExitCode;

// Heap accounting for `peak_dram_mb`: two relaxed atomic adds per allocation.
#[global_allocator]
static ALLOC: sage_nvram::alloc_track::TrackingAlloc = sage_nvram::alloc_track::TrackingAlloc;

/// Pool threads when `SAGE_THREADS` is not set: every core, up to four.
fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(4)
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: sage-benchmark run --workload <name> --seed <n> --seconds <s> --trace <0|1> \
         [--smoke] [--out <dir>] [--append <file>]\n       \
         sage-benchmark compare <A.jsonl> <B.jsonl> [--manifest <BENCHMARK.json>]\n       \
         sage-benchmark overhead <A.jsonl>\n       \
         sage-benchmark list"
    );
    ExitCode::from(2)
}

fn run_command(args: &[String]) -> Result<ExitCode, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut smoke) = (1u64, 10.0f64, false, false);
    let mut out = PathBuf::from("benchmark/out");
    let mut append = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => smoke = true,
            "--out" => out = PathBuf::from(value()?),
            "--append" => append = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let name = workload.ok_or("--workload is required")?;
    let workload = spec::workload(&name).ok_or_else(|| {
        let names: Vec<_> = spec::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name}; known: {}", names.join(", "))
    })?;
    if !(seconds.is_finite() && (0.5..=600.0).contains(&seconds)) {
        return Err(format!(
            "--seconds must be between 0.5 and 600, not {seconds}"
        ));
    }
    if std::env::var_os("SAGE_THREADS").is_none() {
        // Before the pool's first use, which reads it once.
        std::env::set_var("SAGE_THREADS", default_threads().to_string());
    }
    let cfg = run::Config {
        workload,
        seed,
        seconds,
        trace,
        smoke,
        out,
    };
    let outcome = run::run(&cfg).map_err(|e| format!("i/o error: {e}"))?;
    for (def, v) in &outcome.metrics {
        println!("{} {} {v} {}", workload.name, def.name, def.unit);
    }
    let result = outcome.to_json();
    if let Some(path) = append {
        use std::io::Write;
        let while_traced: Vec<String> = outcome
            .end_to_end
            .iter()
            .map(|(def, v)| format!("\"{}\": {v}", def.name))
            .collect();
        let line = format!(
            "{{\"workload\": \"{}\", \"seed\": {seed}, \"trace\": {}, \"end_to_end\": {{{}}}, \
             \"result\": {result}}}\n",
            workload.name,
            trace as u8,
            while_traced.join(", ")
        );
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .and_then(|mut f| f.write_all(line.as_bytes()))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    println!("{result}");
    Ok(if outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "{} of {} operations failed their checks",
            outcome.failed, outcome.attempted
        );
        ExitCode::FAILURE
    })
}

fn compare_command(args: &[String]) -> Result<ExitCode, String> {
    let mut files = Vec::new();
    let mut manifest = PathBuf::from("BENCHMARK.json");
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--manifest" {
            manifest = PathBuf::from(it.next().ok_or("--manifest needs a value")?);
        } else {
            files.push(PathBuf::from(arg));
        }
    }
    let [a, b] = files.as_slice() else {
        return Err("compare takes exactly two result files".to_string());
    };
    Ok(if compare::main(a, b, &manifest)? {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => run_command(&args[1..]),
        // The driver appends its flags straight after BENCHMARK.json's command.
        Some(flag) if flag.starts_with("--") => run_command(&args),
        Some("compare") => compare_command(&args[1..]),
        Some("overhead") => match &args[1..] {
            [file] => compare::overhead(std::path::Path::new(file)).map(|report| {
                print!("{report}");
                ExitCode::SUCCESS
            }),
            _ => return usage(),
        },
        Some("list") => {
            for w in spec::WORKLOADS {
                println!("{}", w.name);
            }
            Ok(ExitCode::SUCCESS)
        }
        _ => return usage(),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("sage-benchmark: {e}");
        ExitCode::from(2)
    })
}
