//! Figure 3: parallel VM start/stop time under the three XenStore
//! transaction reconciliation engines.
//!
//! The workload launches `n` parallel VM start/stop sequences. Each sequence
//! performs seven toolstack transactions against the shared store (domain
//! home creation, device frontends/backends, console, teardown), and each
//! transaction is accompanied by a slug of domain-building CPU work that
//! must be *redone* if the commit conflicts ("the toolstack \[cancels\] and
//! \[retries\] a large set of domain building RPCs", §3.1). The store is
//! single-threaded, so store work serialises; toolstack work spreads across
//! the board's cores.
//!
//! The engines differ in which interleavings conflict — that decision is
//! made by the real [`xenstore`] engine implementations on a real store, not
//! assumed by the harness.

use jitsu_sim::{Figure, Series, SimDuration};
use platform::BoardKind;
use xenstore::{DomId, EngineKind, Error as XsError, XenStore};

/// Transactions per VM start/stop sequence.
const TXNS_PER_SEQUENCE: usize = 7;
/// XenStore operations per transaction.
const OPS_PER_TXN: usize = 8;
/// How many toolstack threads overlap their transactions at any instant.
const OVERLAP_GROUP: usize = 6;
/// CPU work accompanying each VM start/stop sequence (domain building,
/// device RPCs, hotplug) — redone in part when a commit conflicts.
const SEQUENCE_CPU: SimDuration = SimDuration::from_millis(1_200);
/// CPU work redone per conflicted commit.
const CONFLICT_REDO_CPU: SimDuration = SimDuration::from_millis(350);

/// The result of running the workload for one engine at one parallelism.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fig3Point {
    /// Number of parallel VM start/stop sequences.
    pub parallel_sequences: usize,
    /// Total wall-clock time for all sequences to finish.
    pub total_time: SimDuration,
    /// Commits that conflicted and were retried.
    pub conflicts: u64,
    /// Commits that succeeded.
    pub commits: u64,
}

/// Run the parallel start/stop workload for one engine.
pub fn run_workload(engine: EngineKind, parallel_sequences: usize) -> Fig3Point {
    let mut xs = XenStore::new(engine);
    let cost = engine.cost_model();
    let board = BoardKind::Cubieboard2.board();
    let cores = board.cores as u64;

    // Remaining transactions per worker. Transaction index 0 is the
    // "create the domain home" transaction that creates a child under the
    // shared /local/domain directory; the rest touch only the worker's own
    // subtree.
    let mut remaining: Vec<usize> = vec![TXNS_PER_SEQUENCE; parallel_sequences];
    let mut store_busy = SimDuration::ZERO;
    let mut toolstack_cpu = SimDuration::ZERO;
    let mut conflicts = 0u64;
    let mut commits = 0u64;

    // Fixed per-sequence toolstack CPU work.
    toolstack_cpu += SEQUENCE_CPU * parallel_sequences as u64;

    while remaining.iter().any(|&r| r > 0) {
        // Workers with work left, processed in overlapping groups.
        let active: Vec<usize> = (0..parallel_sequences)
            .filter(|&i| remaining[i] > 0)
            .collect();
        for group in active.chunks(OVERLAP_GROUP) {
            // Everyone in the group opens a transaction and applies its ops
            // before anyone commits — the overlap that provokes conflicts.
            let mut open = Vec::new();
            for &worker in group {
                let txn_index = TXNS_PER_SEQUENCE - remaining[worker];
                let tx = xs.transaction_start(DomId::DOM0).expect("dom0 unlimited");
                store_busy += cost.txn_begin;
                for op in 0..OPS_PER_TXN {
                    let path = if txn_index == 0 {
                        // The conflict-prone creation under the shared parent.
                        format!("/local/domain/{}/op{}", 1000 + worker, op)
                    } else {
                        format!("/local/domain/{}/t{}/op{}", 1000 + worker, txn_index, op)
                    };
                    xs.write(DomId::DOM0, Some(tx), &path, b"v")
                        .expect("txn write");
                    store_busy += cost.op;
                }
                open.push((worker, tx));
            }
            for (worker, tx) in open {
                store_busy += cost.txn_commit;
                match xs.transaction_end(DomId::DOM0, tx, true) {
                    Ok(()) => {
                        commits += 1;
                        remaining[worker] -= 1;
                    }
                    Err(XsError::Again) => {
                        conflicts += 1;
                        store_busy += cost.conflict_penalty;
                        toolstack_cpu += CONFLICT_REDO_CPU;
                        // The worker retries the same transaction next round.
                    }
                    Err(e) => panic!("unexpected store error: {e}"),
                }
            }
        }
    }

    let total_time = store_busy + toolstack_cpu / cores;
    Fig3Point {
        parallel_sequences,
        total_time,
        conflicts,
        commits,
    }
}

/// The x-axis sweep used for the figure.
pub fn default_sweep() -> Vec<usize> {
    vec![1, 25, 50, 100, 150, 200]
}

/// Build Figure 3.
pub fn figure(sweep: &[usize]) -> Figure {
    let mut figure = Figure::new(
        "Figure 3: VM start/stop with parallel sequences",
        "Number of parallel VM sequences",
        "Time / seconds",
    );
    for engine in EngineKind::ALL {
        let mut series = Series::new(engine.label());
        for &n in sweep {
            let point = run_workload(engine, n);
            series.push(n as f64, point.total_time.as_secs_f64());
        }
        figure.add_series(series);
    }
    figure
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jitsu_engine_has_essentially_no_conflicts() {
        let p = run_workload(EngineKind::JitsuMerge, 24);
        assert_eq!(
            p.conflicts, 0,
            "sibling domain creations must merge cleanly"
        );
        assert_eq!(p.commits, (24 * TXNS_PER_SEQUENCE) as u64);
    }

    #[test]
    fn serial_engine_conflicts_heavily_under_parallel_load() {
        let serial = run_workload(EngineKind::Serial, 24);
        let merge = run_workload(EngineKind::Merge, 24);
        let jitsu = run_workload(EngineKind::JitsuMerge, 24);
        assert!(serial.conflicts > merge.conflicts);
        assert!(merge.conflicts > jitsu.conflicts);
        assert!(serial.total_time > merge.total_time);
        assert!(merge.total_time > jitsu.total_time);
    }

    #[test]
    fn single_sequence_never_conflicts() {
        for engine in EngineKind::ALL {
            let p = run_workload(engine, 1);
            assert_eq!(p.conflicts, 0, "{engine:?}");
        }
    }

    #[test]
    fn c_xenstored_grows_superlinearly_jitsu_linearly() {
        let c_small = run_workload(EngineKind::Serial, 10);
        let c_big = run_workload(EngineKind::Serial, 40);
        let j_small = run_workload(EngineKind::JitsuMerge, 10);
        let j_big = run_workload(EngineKind::JitsuMerge, 40);
        let c_ratio = c_big.total_time.as_secs_f64() / c_small.total_time.as_secs_f64();
        let j_ratio = j_big.total_time.as_secs_f64() / j_small.total_time.as_secs_f64();
        assert!(
            c_ratio > 4.5,
            "C xenstored must be superlinear, ratio={c_ratio:.2}"
        );
        assert!(
            j_ratio < 4.6,
            "Jitsu xenstored must stay near-linear, ratio={j_ratio:.2}"
        );
        assert!(c_ratio > j_ratio + 1.0);
    }

    #[test]
    fn figure_has_three_series_over_the_sweep() {
        let fig = figure(&[1, 10]);
        assert_eq!(fig.series().len(), 3);
        for s in fig.series() {
            assert_eq!(s.len(), 2);
            assert!(s.is_monotone_nondecreasing());
        }
    }
}
