//! `bench_snapshot` — record the repository's exact cost counters.
//!
//! Runs the suites from `bench::snapshot` once each and writes a
//! schema-versioned `BENCH_snapshot.json`; with `--compare <baseline>` it
//! also gates against a previous snapshot, exiting 3 on *any* difference
//! in a metric. Every metric is a count or a virtual-time latency, so the
//! file is a pure function of the tree: two runs are byte-identical, and
//! which commit produced a committed baseline is `git log`'s to say.
//!
//! No clock is read here or anywhere else in this workspace; host time is
//! the standalone `benchmark/` package's job.
//!
//! ```text
//! bench_snapshot [--out <path>] [--compare <baseline>] [--quick]
//! ```

#![forbid(unsafe_code)]

use bench::snapshot::{collect, compare, BenchConfig, Snapshot, SCHEMA_VERSION};
use std::process::ExitCode;

struct Args {
    out: String,
    baseline: Option<String>,
    quick: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        out: "BENCH_snapshot.json".to_string(),
        baseline: None,
        quick: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => {
                args.out = it.next().ok_or("--out needs a path")?;
            }
            "--compare" => {
                args.baseline = Some(it.next().ok_or("--compare needs a baseline path")?);
            }
            "--quick" => args.quick = true,
            "--help" | "-h" => {
                return Err(
                    "usage: bench_snapshot [--out <path>] [--compare <baseline>] [--quick]"
                        .to_string(),
                )
            }
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(1);
        }
    };

    let cfg = if args.quick {
        BenchConfig::quick()
    } else {
        BenchConfig::default()
    };
    eprintln!(
        "bench_snapshot: collecting {} suite run…",
        if args.quick { "quick" } else { "full" }
    );
    let snapshot = Snapshot {
        schema_version: SCHEMA_VERSION,
        metrics: collect(&cfg),
    };

    if let Err(e) = std::fs::write(&args.out, snapshot.to_json()) {
        eprintln!("bench_snapshot: cannot write {}: {e}", args.out);
        return ExitCode::from(1);
    }
    println!(
        "wrote {} ({} metrics, schema v{})",
        args.out,
        snapshot.metrics.len(),
        snapshot.schema_version
    );
    for m in &snapshot.metrics {
        println!("  {:32} {:>16.4} {}", m.key(), m.value, m.unit);
    }

    let Some(baseline_path) = args.baseline else {
        return ExitCode::SUCCESS;
    };
    let baseline_text = match std::fs::read_to_string(&baseline_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("bench_snapshot: cannot read baseline {baseline_path}: {e}");
            return ExitCode::from(1);
        }
    };
    let baseline = match Snapshot::from_json(&baseline_text) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("bench_snapshot: malformed baseline {baseline_path}: {e}");
            return ExitCode::from(1);
        }
    };
    let report = compare(&snapshot, &baseline);
    println!("\ncompare vs {baseline_path}:");
    print!("{}", report.render());
    ExitCode::from(report.verdict().exit_code() as u8)
}
