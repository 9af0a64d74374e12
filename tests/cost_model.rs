//! The cost model is one module: every board's `platform::CostModel`,
//! rendered, against `tests/golden/cost_model.txt` byte for byte, and no
//! duration or distribution literal in non-test code outside it.

use std::path::{Path, PathBuf};

const GOLDEN: &str = include_str!("golden/cost_model.txt");

#[test]
fn every_boards_model_matches_the_golden() {
    let text = bench::cost_model();
    assert!(
        text == GOLDEN,
        "the cost model differs from tests/golden/cost_model.txt — if the \
         change is intentional, refresh the golden with \
         `cargo run --release --bin cost_model > tests/golden/cost_model.txt`; \
         rendered:\n{text}"
    );
}

/// Where a literal may stand outside `platform::cost`, and why.
const ALLOWED: [(&str, &str); 5] = [
    ("crates/platform/src/cost.rs", "the cost model itself"),
    (
        "crates/sim/",
        "jitsu_sim defines SimDuration and Distribution",
    ),
    (
        "crates/bench/src/storm.rs",
        "experiment definitions: run lengths, idle TTLs, the fleet epoch",
    ),
    (
        "crates/bench/src/snapshot.rs",
        "experiment definitions: the snapshot suites' epoch and run length",
    ),
    (
        "crates/jitsu/src/config.rs",
        "JitsuConfig::new's two-minute idle-timeout default",
    ),
];

/// The lines of `text` that build a duration from a numeric literal or
/// spell out a distribution, up to the file's `#[cfg(test)] mod tests` and
/// without its comments.
fn literals(text: &str) -> Vec<&str> {
    let code = text
        .split("\n#[cfg(test)]\nmod tests")
        .next()
        .unwrap_or(text);
    code.lines()
        .filter(|line| !line.trim_start().starts_with("//"))
        .filter(|line| {
            let duration = line.match_indices("SimDuration::from_").any(|(at, call)| {
                let rest = &line[at + call.len()..];
                let args = rest.trim_start_matches(|c: char| c.is_alphanumeric() || c == '_');
                args.strip_prefix('(')
                    .is_some_and(|a| a.starts_with(|c: char| c.is_ascii_digit()))
            });
            let distribution = ["Normal", "LogNormal", "Exponential"]
                .iter()
                .any(|v| line.contains(&format!("Distribution::{v} {{")));
            duration || distribution
        })
        .collect()
}

/// Every calibrated cost lives in `platform::cost` and reaches its layer
/// through the board; a duration literal anywhere else is a cost nobody can
/// find, sweep or render.
#[test]
fn no_cost_literal_outside_the_model() {
    let sample = "let a = SimDuration::from_micros(5);\nlet b = SimDuration::from_secs_f64(x);\n\
                  // SimDuration::from_millis(1)\nlet c = Distribution::Normal {\n#[cfg(test)]\n\
                  mod tests {\n    let d = SimDuration::from_millis(2);";
    assert_eq!(
        literals(sample),
        [
            "let a = SimDuration::from_micros(5);",
            "let c = Distribution::Normal {"
        ]
    );

    let workspace = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut dirs: Vec<PathBuf> = vec![workspace.join("crates")];
    let mut found = Vec::new();
    while let Some(dir) = dirs.pop() {
        for entry in std::fs::read_dir(&dir).unwrap_or_else(|e| panic!("{dir:?}: {e}")) {
            let path = entry.expect("a directory entry").path();
            let file = path.strip_prefix(workspace).expect("inside").to_path_buf();
            let name = file.to_string_lossy().into_owned();
            if ALLOWED.iter().any(|(prefix, _)| name.starts_with(prefix)) {
                continue;
            }
            if path.is_dir() {
                dirs.push(path);
            } else if path.extension().is_some_and(|ext| ext == "rs") {
                let text = std::fs::read_to_string(&path).expect("a readable source file");
                for line in literals(&text) {
                    found.push(format!("{name}: {}", line.trim()));
                }
            }
        }
    }
    assert!(
        found.is_empty(),
        "cost literals outside platform::cost (move them into the model):\n{}",
        found.join("\n")
    );
}
