#!/usr/bin/env bash
# The root CI does not reach this package, so it checks itself: format, lints
# and unit tests, then two full sets of runs (every workload, end to end and
# traced) with the workload order reversed between them, and a per-metric,
# per-workload agreement table against the benchmark's own bounds. Exits
# nonzero on any miss. Takes about ten minutes on the 2-core reference box.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
manifest=benchmark/Cargo.toml
seed="${SEED:-0x4A175001}"
seconds="$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)"

cargo fmt --manifest-path "$manifest" --check
cargo clippy --offline --manifest-path "$manifest" --all-targets -- -D warnings
cargo test --offline --manifest-path "$manifest"
cargo build --offline --manifest-path "$manifest" --release

bench() {
    cargo run --offline --quiet --release --manifest-path "$manifest" -- "$@"
}

out=benchmark/trace-out/check
rm -rf "$out"

# run_set <dir> <workload>...: each run's full output is kept as a log and
# its last line, the result document, is what `agree` reads.
run_set() {
    local set="$1" dir="$out/$1"
    shift
    mkdir -p "$dir"
    for workload in "$@"; do
        bench --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 \
            | tee "$dir/$workload.e2e.log" | tail -n 1 >"$dir/$workload.e2e.json"
        bench --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 1 \
            --trace-out "$dir/$workload.trace.json" \
            | tee "$dir/$workload.layers.log" | tail -n 1 >"$dir/$workload.layers.json"
        echo "$set set: $workload done"
    done
}

run_set first summon_sweep long_horizon fleet_failover warm_traffic
run_set second warm_traffic fleet_failover long_horizon summon_sweep

bench agree "$out/first" "$out/second"
