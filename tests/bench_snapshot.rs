//! The exact-counter gate: `bench_snapshot`'s metrics, rendered in-process,
//! against `tests/golden/bench_snapshot.txt` byte for byte. A metric that
//! is added, removed, renamed, changes unit or moves by one unit in the
//! last place fails here.

use bench::snapshot::{collect, render, Metric};
use std::sync::OnceLock;

const GOLDEN: &str = include_str!("golden/bench_snapshot.txt");

/// The default collection, run once per test binary.
fn metrics() -> &'static [Metric] {
    static METRICS: OnceLock<Vec<Metric>> = OnceLock::new();
    METRICS.get_or_init(collect)
}

#[test]
fn rendered_snapshot_matches_the_golden() {
    let text = render(metrics());
    assert!(
        text == GOLDEN,
        "exact counters differ from tests/golden/bench_snapshot.txt — if the \
         change is intentional, refresh the golden with \
         `cargo run --release --bin bench_snapshot > tests/golden/bench_snapshot.txt`; \
         rendered:\n{text}"
    );
}

/// What the handoff suite exists to show, independent of any pinned value:
/// nothing lost or repeated, exactly the migrated clients served, and a
/// latency tail (boots queue on the cell's one launch slot; when none
/// waited, p99 equalled p50 and said nothing).
#[test]
fn handoff_suite_loses_nothing_and_has_a_latency_tail() {
    let handoff = |name: &str| {
        metrics()
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
