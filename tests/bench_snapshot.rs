//! Integration tests for the `bench_snapshot` harness: golden schema,
//! run-to-run byte identity of the whole document, the `--compare` exit
//! codes through the real binary, and the committed `BENCH_BASELINE.json`
//! staying in lockstep with the tree.

use bench::json::{self, Value};
use bench::snapshot::{collect, compare, BenchConfig, Snapshot, Verdict, SCHEMA_VERSION};
use std::path::PathBuf;
use std::process::Command;

fn snap(cfg: &BenchConfig) -> Snapshot {
    Snapshot {
        schema_version: SCHEMA_VERSION,
        metrics: collect(cfg),
    }
}

/// A scratch path unique to this test process.
fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("bench_snapshot_{}_{name}", std::process::id()))
}

#[test]
fn golden_schema_every_metric_carries_the_full_field_set() {
    let snapshot = snap(&BenchConfig::quick());
    let doc = json::parse(&snapshot.to_json()).expect("snapshot renders valid JSON");
    let Value::Obj(top) = &doc else {
        panic!("top level is an object")
    };
    // Nothing that varies between two runs of one tree (a date, a commit
    // id) may sit beside the metrics.
    assert_eq!(
        top.keys().map(String::as_str).collect::<Vec<_>>(),
        ["metrics", "schema_version", "tool"]
    );
    assert_eq!(doc.get("schema_version").and_then(Value::as_num), Some(2.0));
    assert_eq!(
        doc.get("tool").and_then(Value::as_str),
        Some("bench_snapshot")
    );
    let metrics = doc
        .get("metrics")
        .and_then(Value::as_arr)
        .expect("metrics is an array");
    assert!(!metrics.is_empty());
    for m in metrics {
        let Value::Obj(fields) = m else {
            panic!("metric is an object")
        };
        assert_eq!(
            fields.keys().map(String::as_str).collect::<Vec<_>>(),
            ["name", "suite", "unit", "value"]
        );
    }
    // Every suite the issue names is present.
    let suites: Vec<&str> = metrics
        .iter()
        .filter_map(|m| m.get("suite").and_then(Value::as_str))
        .collect();
    for suite in [
        "sim_engine",
        "sharded_engine",
        "xenstore_commit",
        "xenstore_snapshot",
        "vchan",
        "frame_path",
        "handoff",
        "cold_start",
    ] {
        assert!(suites.contains(&suite), "suite `{suite}` missing");
    }
}

#[test]
fn two_collections_produce_identical_virtual_sections() {
    let cfg = BenchConfig::quick();
    let a = snap(&cfg);
    let b = snap(&cfg);
    // Every metric is virtual, so the entire documents are byte-identical.
    assert_eq!(a.to_json(), b.to_json());
    assert_eq!(compare(&a, &b).verdict(), Verdict::Pass);
}

#[test]
fn committed_baseline_virtual_metrics_match_the_current_tree() {
    let baseline_path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("BENCH_BASELINE.json");
    let text = std::fs::read_to_string(&baseline_path)
        .expect("BENCH_BASELINE.json is committed at the repository root");
    let baseline = Snapshot::from_json(&text).expect("baseline parses");
    let current = snap(&BenchConfig::default());
    let report = compare(&current, &baseline);
    assert_eq!(
        report.verdict(),
        Verdict::Pass,
        "virtual metrics drifted from BENCH_BASELINE.json — if the change \
         is intentional, refresh the baseline with \
         `cargo run --release --bin bench_snapshot -- --out BENCH_BASELINE.json`:\n{}",
        report.render()
    );
}

/// What the handoff suite exists to show, independent of any pinned value:
/// nothing lost or repeated, exactly the migrated clients served, and a
/// latency tail (boots queue on the cell's one launch slot; when none
/// waited, p99 equalled p50 and said nothing).
#[test]
fn handoff_suite_loses_nothing_and_has_a_latency_tail() {
    let metrics = collect(&BenchConfig::quick());
    let handoff = |name: &str| {
        metrics
            .iter()
            .find(|m| m.suite == "handoff" && m.name == name)
            .unwrap_or_else(|| panic!("handoff/{name} collected"))
            .value
    };
    assert_eq!(handoff("dropped_bytes"), 0.0);
    assert_eq!(handoff("duplicated_bytes"), 0.0);
    assert_eq!(
        handoff("completed_exchanges"),
        handoff("migrated_connections")
    );
    assert!(handoff("latency_p99") > handoff("latency_p50"));
}

/// Run the real binary with `args`, returning (exit code, stdout).
fn run_binary(args: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_bench_snapshot"))
        .args(args)
        .output()
        .expect("bench_snapshot binary runs");
    (
        out.status.code().expect("binary exits normally"),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

/// Adjust one metric's value in a rendered snapshot document.
fn rewrite_metric(doc: &str, name: &str, f: impl Fn(f64) -> f64) -> String {
    let mut v = json::parse(doc).expect("document parses");
    let Value::Obj(ref mut top) = v else {
        panic!("top level is an object")
    };
    let Some(Value::Arr(metrics)) = top.get_mut("metrics") else {
        panic!("metrics array present")
    };
    let mut hit = false;
    for m in metrics.iter_mut() {
        let Value::Obj(fields) = m else { continue };
        if fields.get("name").and_then(Value::as_str) == Some(name) {
            let old = fields
                .get("value")
                .and_then(Value::as_num)
                .expect("metric has a numeric value");
            fields.insert("value".to_string(), Value::Num(f(old)));
            hit = true;
        }
    }
    assert!(hit, "metric `{name}` found in document");
    v.render()
}

#[test]
fn binary_compare_distinguishes_pass_and_drift() {
    let out = scratch("out.json");
    let out_s = out.to_str().expect("utf-8 temp path");

    // Produce a snapshot; exit 0, file parses.
    let (code, _) = run_binary(&["--quick", "--out", out_s]);
    assert_eq!(code, 0);
    let doc = std::fs::read_to_string(&out).expect("snapshot file written");
    Snapshot::from_json(&doc).expect("snapshot file parses");

    // Same tree vs its own snapshot → exit 0, and the second run's file is
    // the first's byte for byte: the document is a pure function of the
    // tree. (Every run below passes `--out` so no default-named
    // BENCH_snapshot.json lands in the repository root.)
    let rerun = scratch("rerun.json");
    let rerun_s = rerun.to_str().expect("utf-8 temp path");
    let (code, _) = run_binary(&["--quick", "--out", rerun_s, "--compare", out_s]);
    assert_eq!(code, 0, "self-compare must pass");
    assert_eq!(
        std::fs::read(&rerun).expect("second snapshot file written"),
        doc.as_bytes(),
        "two runs of one tree must write identical files"
    );

    // Perturb one metric in the baseline → any drift is exit 3.
    let drifted = scratch("drift.json");
    std::fs::write(&drifted, rewrite_metric(&doc, "xs_merged", |v| v + 1.0))
        .expect("drifted baseline written");
    let (code, stdout) = run_binary(&[
        "--quick",
        "--out",
        rerun_s,
        "--compare",
        drifted.to_str().expect("utf-8 temp path"),
    ]);
    assert_eq!(code, 3, "virtual drift must exit 3:\n{stdout}");
    assert!(stdout.contains("VIRTUAL DRIFT"));

    for p in [out, rerun, drifted] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn binary_rejects_bad_usage() {
    let (code, _) = run_binary(&["--no-such-flag"]);
    assert_eq!(code, 1);
    // Every metric is exact, so there is no tolerance to set.
    let (code, _) = run_binary(&["--quick", "--wall-tolerance", "50"]);
    assert_eq!(code, 1);
    // `--out` keeps the pre-compare snapshot out of the repository root
    // (the binary intentionally writes it before the baseline is read).
    let bad = scratch("bad_usage.json");
    let (code, _) = run_binary(&[
        "--quick",
        "--out",
        bad.to_str().expect("utf-8 temp path"),
        "--compare",
        "/nonexistent/baseline.json",
    ]);
    assert_eq!(code, 1);
    let _ = std::fs::remove_file(bad);
}
