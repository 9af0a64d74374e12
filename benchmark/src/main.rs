//! The performance benchmark of record for the Jitsu simulation.
//!
//! ```text
//! jitsu_benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` one workload runs at full size with tracing off and the
//! end-to-end metrics are printed; with `--trace 1` it runs at a tenth of
//! its size, untraced and traced, followed by the per-layer timings and the
//! `scripted_summon` re-enactment, and the per-layer metrics are printed. The
//! last line of standard output is the result as one JSON object. A failed
//! correctness check exits nonzero and prints no metrics. See `README.md`.
//!
//! `jitsu_benchmark agree <dir_a> <dir_b>` compares two sets of result lines
//! that `check.sh` collected.

#![forbid(unsafe_code)]
// The root `clippy.toml` bans the wall clock because sim logic must not read
// it. Reading it is this package's whole job, as it is for
// `src/bin/bench_snapshot.rs` and `vendor/criterion`, which carry the same
// exemption; like them it sits outside `crates/`.
#![allow(clippy::disallowed_methods, clippy::disallowed_types)]

mod agree;
mod host;
mod json;
mod layers;
mod metrics;
mod scripted;
mod seed;
mod span;
mod speed;
mod stats;
mod storm;
mod warm;
mod workload;

use host::{peak_rss_mib, timed, Stopwatch};
use metrics::{Report, Values, END_TO_END, PER_LAYER};
use span::SpanLog;
use speed::Slowdown;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use storm::{FleetFailover, LongHorizon, SummonSweep};
use warm::WarmTraffic;
use workload::{check_invariants, Outcome, Workload};

/// `run_seconds` of `BENCHMARK.json`: the `--seconds` at which a run does
/// exactly `Workload::UNITS_PER_RUN` units. Work is a fixed operation count,
/// never a wall-time budget, so a parent and a change do identical work;
/// other values of `--seconds` scale the count in proportion.
pub const RUN_SECONDS: u64 = 18;

pub const WORKLOADS: [&str; 4] = [
    SummonSweep::NAME,
    LongHorizon::NAME,
    FleetFailover::NAME,
    WarmTraffic::NAME,
];

/// Set-up runs this many times per process and `setup_s` is the median, so
/// one descheduled set-up does not decide the metric.
const SETUP_REPEATS: usize = 5;

/// A single-threaded workload that got less than this share of a core was
/// descheduled; its host timings are marked `noisy`.
const BUSY_SHARE_FLOOR: f64 = 0.9;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    trace_out: Option<PathBuf>,
}

fn usage() -> String {
    format!(
        "usage: jitsu_benchmark --workload <{}> --seed <n> --seconds <1..=60> --trace <0|1> [--trace-out <file>]",
        WORKLOADS.join("|")
    )
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut trace_out) =
        (None, None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?;
        let number = || -> Result<u64, String> {
            let (digits, radix) = match value.strip_prefix("0x") {
                Some(hex) => (hex, 16),
                None => (value.as_str(), 10),
            };
            u64::from_str_radix(digits, radix).map_err(|_| format!("{flag}: bad number {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()?),
            "--trace-out" => trace_out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown argument {flag}\n{}", usage())),
        }
    }
    let missing = |what: &str| format!("missing {what}\n{}", usage());
    let args = Args {
        workload: workload.ok_or_else(|| missing("--workload"))?,
        seed: seed.ok_or_else(|| missing("--seed"))?,
        seconds: seconds.ok_or_else(|| missing("--seconds"))?,
        trace: match trace.ok_or_else(|| missing("--trace"))? {
            0 => false,
            1 => true,
            other => return Err(format!("--trace takes 0 or 1, not {other}")),
        },
        trace_out,
    };
    if !(1..=60).contains(&args.seconds) {
        return Err(format!("--seconds {} is outside 1..=60", args.seconds));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let [verb, dir_a, dir_b] = argv.as_slice() {
        if verb == "agree" {
            return match agree::run(Path::new(dir_a), Path::new(dir_b)) {
                Ok(0) => ExitCode::SUCCESS,
                Ok(misses) => {
                    eprintln!("FAILED: {misses} metric(s) outside their bound");
                    ExitCode::FAILURE
                }
                Err(e) => {
                    eprintln!("FAILED: {e}");
                    ExitCode::FAILURE
                }
            };
        }
    }
    let args = match parse_args(argv.into_iter()) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let result = match args.workload.as_str() {
        SummonSweep::NAME => drive::<SummonSweep>(&args),
        LongHorizon::NAME => drive::<LongHorizon>(&args),
        FleetFailover::NAME => drive::<FleetFailover>(&args),
        WarmTraffic::NAME => drive::<WarmTraffic>(&args),
        other => Err(format!("unknown workload {other}\n{}", usage())),
    };
    match result {
        Ok(report) => {
            print!("{}", report.to_table());
            println!("{}", report.to_json_line());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("FAILED: {e}");
            ExitCode::FAILURE
        }
    }
}

fn drive<W: Workload>(args: &Args) -> Result<Report, String> {
    let units =
        ((W::UNITS_PER_RUN as u64 * args.seconds + RUN_SECONDS / 2) / RUN_SECONDS).max(1) as usize;
    println!(
        "workload {} seed {:#x} seconds {} trace {}",
        W::NAME,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    if args.trace {
        traced::<W>(args, units)
    } else {
        end_to_end::<W>(args, units)
    }
}

/// Generate the inputs and run the determinism warm-up: the first unit runs
/// twice on fresh worlds and must produce bit-identical virtual outputs. The
/// warm-up also lets the allocator and caches settle, which is why it is
/// charged to set-up.
fn set_up<W: Workload>(seed: u64, units: usize) -> Result<W::Inputs, String> {
    let inputs = W::prepare(seed, units);
    let mut off = SpanLog::new(false);
    let first = W::run(&inputs, 1, &mut off);
    let again = W::run(&inputs, 1, &mut off);
    if first.virtual_outputs() != again.virtual_outputs() {
        return Err(format!(
            "{}: the first unit is not deterministic:\n{:?}\n{:?}",
            W::NAME,
            first.counters,
            again.counters
        ));
    }
    Ok(inputs)
}

/// Host time of one timed region.
struct Timing {
    /// The sum of the units' host times at reference speed (see `speed.rs`).
    wall_s: f64,
    /// `wall_s` scaled by the share of a core the process actually got, so
    /// that `cpu_s / wall_s` is the raw ratio.
    cpu_s: f64,
    /// What the wall clock and `/proc/self/stat` read, reference kernel
    /// included.
    raw_wall_s: f64,
    raw_cpu_s: f64,
}

/// Run all `units` with wall and CPU time around the region, apply the
/// correctness gate, and print the noise guard: raw `cpu_s / wall_s`, with a
/// `noisy` mark when this single-threaded process was descheduled, and the
/// slowdown the reference kernel saw.
fn measure<W: Workload>(
    what: &str,
    inputs: &W::Inputs,
    units: usize,
    log: &mut SpanLog,
) -> Result<(Outcome, Timing), String> {
    let watch = Stopwatch::start();
    let outcome = W::run(inputs, units, log);
    let (raw_wall_s, raw_cpu_s) = watch.stop();
    check_invariants(&outcome).map_err(|e| format!("{}: {e}", W::NAME))?;

    let wall_s = outcome.unit_ms.iter().sum::<f64>() / 1e3;
    let busy = raw_cpu_s / raw_wall_s;
    let slowdowns: Vec<f64> = outcome
        .raw_unit_ms
        .iter()
        .zip(&outcome.unit_ms)
        .map(|(raw, at_reference)| raw / at_reference)
        .collect();
    println!(
        "{what}: raw wall {raw_wall_s:.3} s, raw cpu {raw_cpu_s:.3} s, cpu/wall {busy:.3}{}; \
         machine slowdown p50 {:.3} max {:.3}; {wall_s:.3} s at reference speed",
        if busy < BUSY_SHARE_FLOOR {
            "  ** noisy: descheduled, host timings of this run are suspect **"
        } else {
            ""
        },
        stats::median(&slowdowns),
        stats::quantile(&slowdowns, 1.0),
    );
    Ok((
        outcome,
        Timing {
            wall_s,
            cpu_s: wall_s * busy,
            raw_wall_s,
            raw_cpu_s,
        },
    ))
}

fn end_to_end<W: Workload>(args: &Args, units: usize) -> Result<Report, String> {
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut inputs = None;
    for _ in 0..SETUP_REPEATS {
        let probe = Slowdown::start();
        let (made, secs) = timed(|| set_up::<W>(args.seed, units));
        inputs = Some(made?);
        setups.push(secs / probe.finish_for(W::CONTENTION_SENSITIVITY));
    }
    let inputs = inputs.expect("SETUP_REPEATS is not zero");

    let (outcome, t) = measure::<W>("timed region", &inputs, units, &mut SpanLog::new(false))?;
    W::check(&inputs, &outcome).map_err(|e| format!("{}: {e}", W::NAME))?;

    let n = outcome.unit_ms.len();
    let tail = stats::tail_percentile(n).min(90);
    println!(
        "{n} units; host_ms_per_unit_p90 is p{tail}; set-up ran {SETUP_REPEATS} times: {:?} s",
        setups
    );
    println!(
        "{} requests attempted, {} served, {} virtual latency samples (p50 {:.4} ms, p{} {:.4} ms)",
        outcome.attempted,
        outcome.served,
        outcome.latency_ms.len(),
        stats::median(&outcome.latency_ms),
        stats::tail_percentile(outcome.latency_ms.len()),
        stats::quantile(
            &outcome.latency_ms,
            f64::from(stats::tail_percentile(outcome.latency_ms.len())) / 100.0
        ),
    );

    let mut v = Values::default();
    v.set("setup_s", stats::median(&setups));
    v.set("wall_s", t.wall_s);
    v.set("cpu_s", t.cpu_s);
    v.set("requests_per_host_s", outcome.served as f64 / t.wall_s);
    v.set("host_ms_per_unit_p50", stats::median(&outcome.unit_ms));
    v.set(
        "host_ms_per_unit_p90",
        stats::quantile(&outcome.unit_ms, f64::from(tail) / 100.0),
    );
    v.set(
        "degradation_ratio",
        stats::degradation_ratio(&outcome.unit_ms),
    );
    v.set("peak_rss_mib", peak_rss_mib());
    Ok(Report::new(
        END_TO_END,
        &v,
        true,
        outcome.attempted,
        outcome.attempted - outcome.served,
    ))
}

fn traced<W: Workload>(args: &Args, units: usize) -> Result<Report, String> {
    // A tenth of the run, but enough units for the first to differ from the
    // last.
    let units = (units / 10).max(2);
    let inputs = set_up::<W>(args.seed, units)?;
    let (plain, plain_t) = measure::<W>(
        "reduced run, tracing off",
        &inputs,
        units,
        &mut SpanLog::new(false),
    )?;
    let mut log = SpanLog::new(true);
    let (with_spans, traced_t) = measure::<W>("reduced run, tracing on", &inputs, units, &mut log)?;
    if plain.virtual_outputs() != with_spans.virtual_outputs() {
        return Err(format!("{}: tracing changed the virtual outputs", W::NAME));
    }
    W::check(&inputs, &plain).map_err(|e| format!("{}: {e}", W::NAME))?;

    let mut v = Values::default();
    layers::workload_counts(&plain, plain_t.wall_s, &mut v);
    v.set("host.raw_wall_s", plain_t.raw_wall_s);
    v.set("host.raw_cpu_s", plain_t.raw_cpu_s);
    v.set(
        "trace.overhead_share",
        (traced_t.wall_s - plain_t.wall_s) / plain_t.wall_s,
    );

    // The per-launch cost of the real daemon on short cells, which the
    // scripted re-enactment is compared with.
    let sweep_us_per_launch = if W::NAME == SummonSweep::NAME {
        v.get("jitsu.host_us_per_launch").expect("set above")
    } else {
        let units = (SummonSweep::UNITS_PER_RUN / 10).max(2);
        let sweep = set_up::<SummonSweep>(args.seed, units)?;
        let (o, t) = measure::<SummonSweep>(
            "reduced summon_sweep for trace.coverage",
            &sweep,
            units,
            &mut SpanLog::new(false),
        )?;
        t.wall_s * 1e6 / o.counters.launches as f64
    };

    layers::measure(args.seed, &mut v);
    let scripted = scripted::run(args.seed, &mut log)?;
    println!("{}", scripted.summary);
    v.set(
        "trace.coverage",
        scripted.fresh_us_per_summon / sweep_us_per_launch,
    );
    println!(
        "trace.coverage: {:.1} us scripted per fresh summon / {:.1} us per launch on summon_sweep; \
         the rest is jitsu::concurrent glue only in-program spans can split",
        scripted.fresh_us_per_summon, sweep_us_per_launch
    );
    if W::NAME == WarmTraffic::NAME {
        let handle = v.get("netstack.iface_handle_frame_ns").expect("measured");
        println!(
            "Interface::handle_frame: {:.0} ns x {} frames = {:.1}% of the reduced run's wall time",
            handle,
            plain.counters.frames,
            100.0 * handle * plain.counters.frames as f64 / (plain_t.wall_s * 1e9)
        );
    }
    println!(
        "the repo holds no reference measurements from the paper: the model is unvalidated \
         and no error figure is given"
    );

    let spans = log.spans();
    print!("{}", span::render_table(&span::self_time_table(spans)));
    let out = args
        .trace_out
        .clone()
        .unwrap_or_else(|| PathBuf::from(format!("benchmark/trace-out/{}.trace.json", W::NAME)));
    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&out, span::chrome_trace_json(spans))
        .map_err(|e| format!("{}: {e}", out.display()))?;
    println!("{} spans written to {}", spans.len(), out.display());

    Ok(Report::new(
        PER_LAYER,
        &v,
        true,
        plain.attempted,
        plain.attempted - plain.served,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Result<Args, String> {
        parse_args(v.iter().map(|s| s.to_string()))
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let a = args(&[
            "--workload",
            "summon_sweep",
            "--seed",
            "7",
            "--seconds",
            "15",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("summon_sweep", 7, 15, true)
        );
        assert_eq!(
            args(&[
                "--seed",
                "0x10",
                "--workload",
                "w",
                "--seconds",
                "1",
                "--trace",
                "0"
            ])
            .unwrap()
            .seed,
            16
        );
        assert!(args(&[
            "--workload",
            "w",
            "--seed",
            "1",
            "--seconds",
            "0",
            "--trace",
            "0"
        ])
        .is_err());
        assert!(args(&[
            "--workload",
            "w",
            "--seed",
            "1",
            "--seconds",
            "5",
            "--trace",
            "2"
        ])
        .is_err());
        assert!(args(&["--workload", "w", "--seed", "1", "--seconds", "5"]).is_err());
        assert!(args(&["--bogus", "1"]).is_err());
    }

    /// Every workload at its smallest size: deterministic, passes the
    /// correctness gate, and serves what it attempts.
    fn smoke<W: Workload>(units: usize) -> Outcome {
        let inputs = set_up::<W>(0x5EED, units).expect("deterministic first unit");
        let (outcome, t) =
            measure::<W>("smoke", &inputs, units, &mut SpanLog::new(true)).expect("gate passes");
        assert!(t.wall_s > 0.0 && t.cpu_s > 0.0);
        W::check(&inputs, &outcome).expect("workload check passes");
        assert_eq!(outcome.unit_ms.len(), units);
        assert_eq!(outcome.served, outcome.attempted, "no operation fails");
        outcome
    }

    #[test]
    fn summon_sweep_smoke() {
        let o = smoke::<SummonSweep>(2);
        assert!(o.counters.launches > 0 && o.counters.xs_ops > 0);
        assert_eq!(
            o.counters.launches, o.counters.reaps,
            "every unikernel is reaped"
        );
    }

    #[test]
    fn long_horizon_smoke() {
        let o = smoke::<LongHorizon>(3);
        assert!(o.counters.launches > 0);
    }

    #[test]
    fn fleet_failover_smoke() {
        let o = smoke::<FleetFailover>(1);
        assert!(o.counters.servfails > 0 && o.counters.failovers > 0);
        assert_eq!(o.counters.failover_dropped, 0);
        assert!(o.counters.shard_barriers > 0);
    }

    #[test]
    fn warm_traffic_smoke() {
        let o = smoke::<WarmTraffic>(2);
        assert_eq!(o.attempted, 2 * warm::BATCH as u64);
        assert_eq!(
            o.counters.xs_ops, 0,
            "the data plane never touches XenStore"
        );
        assert_eq!(o.counters.open_connections_end, o.attempted);
    }
}
