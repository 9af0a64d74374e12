//! The XenStore-storm experiment: concurrent-transaction throughput and
//! abort/merge behaviour of the persistent-tree store.
//!
//! The paper's headline boot latencies rest on its from-scratch XenStore
//! rewrite: immutable prefix trees make transaction snapshots O(1), and
//! non-conflicting concurrent transactions *merge* at commit instead of
//! aborting with `EAGAIN`. This experiment measures both claims directly on
//! the real [`xenstore`] implementation:
//!
//! * **merge sweep** — `writers` concurrent toolstack threads, each running
//!   `txns_per_writer` transactions against its own disjoint subtree, with
//!   every transaction in a round held open until the whole round commits
//!   (the overlap pattern of parallel domain builds). Per engine we report
//!   commits, *merged* commits (committed onto a base another writer had
//!   already advanced), `EAGAIN` aborts and the resulting abort/merge rates.
//!   On the Jitsu engine every disjoint-path transaction commits via merge
//!   — zero aborts — while the serialising engine aborts almost the entire
//!   overlap.
//! * **snapshot sweep** — stores pre-populated with increasing node counts;
//!   for each size we take a transaction snapshot and count how many nodes
//!   it copied (none: the snapshot shares the live root), then apply one
//!   write and count again (only the root-to-leaf spine). Snapshot cost no
//!   longer scales with store size.
//!
//! Everything is deterministic: the report is a pure function of the seed.

use jitsu_sim::{SimRng, Table};
use xenstore::{DomId, EngineKind, Error as XsError, Path, Tree, TreeDiff, XenStore};

/// One cell of the merge sweep.
#[derive(Debug, Clone)]
pub struct XsStormConfig {
    /// Reconciliation engine under test.
    pub engine: EngineKind,
    /// Concurrent writers (parallel toolstack threads).
    pub writers: usize,
    /// Transactions each writer issues (the "rate" axis: every round keeps
    /// one transaction per writer open simultaneously).
    pub txns_per_writer: usize,
    /// Writes per transaction.
    pub ops_per_txn: usize,
    /// Nodes pre-populated in the store before the storm.
    pub prepopulated: usize,
    /// Seed for value bytes (keeps the workload deterministic but
    /// non-degenerate).
    pub seed: u64,
}

/// The measured outcome of one merge-sweep cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XsStormResult {
    /// Engine label.
    pub engine: EngineKind,
    /// Concurrent writers.
    pub writers: usize,
    /// Transactions attempted (excluding retries).
    pub txns: u64,
    /// Successful commits (including retried attempts that landed).
    pub commits: u64,
    /// Commits that merged onto a concurrently advanced base.
    pub merged: u64,
    /// Commits aborted with `EAGAIN`.
    pub conflicts: u64,
    /// Retry attempts needed to land every transaction.
    pub retries: u64,
}

impl XsStormResult {
    /// Fraction of commit attempts aborted with `EAGAIN`.
    pub fn abort_rate(&self) -> f64 {
        let attempts = self.commits + self.conflicts;
        if attempts == 0 {
            0.0
        } else {
            self.conflicts as f64 / attempts as f64
        }
    }

    /// Fraction of successful commits that landed via the merge path.
    pub fn merge_rate(&self) -> f64 {
        if self.commits == 0 {
            0.0
        } else {
            self.merged as f64 / self.commits as f64
        }
    }
}

fn prepopulate(xs: &mut XenStore, nodes: usize) {
    for i in 0..nodes {
        xs.write(
            DomId::DOM0,
            None,
            &format!("/warm/b{}/k{}", i % 64, i),
            b"seed",
        )
        .expect("prepopulation writes succeed");
    }
}

/// Run one merge-sweep cell: `writers` transactions per round, all opened
/// before any commits (the interleaving parallel domain builds produce),
/// each writing `ops_per_txn` keys under the writer's own subtree.
pub fn run_cell(cfg: &XsStormConfig) -> XsStormResult {
    let mut xs = XenStore::new(cfg.engine);
    prepopulate(&mut xs, cfg.prepopulated);
    let mut rng = SimRng::seed_from_u64(cfg.seed ^ 0x5707_3713);
    let mut retries = 0u64;

    for round in 0..cfg.txns_per_writer {
        // Every writer opens its transaction before anyone commits.
        let mut open = Vec::new();
        for writer in 0..cfg.writers {
            let tx = xs
                .transaction_start(DomId::DOM0)
                .expect("dom0 transactions are not quota-limited");
            for op in 0..cfg.ops_per_txn {
                let path = format!("/local/domain/{}/r{}/op{}", 2000 + writer, round, op);
                let value = [rng.index(256) as u8, writer as u8, op as u8];
                xs.write(DomId::DOM0, Some(tx), &path, &value)
                    .expect("transactional write succeeds");
            }
            open.push((writer, tx));
        }
        // Commit in order; aborted transactions are redone immediately
        // (the toolstack's retry loop), still overlapping the writers that
        // committed after them in the round.
        for (writer, tx) in open {
            if xs.transaction_end(DomId::DOM0, tx, true) == Err(XsError::Again) {
                let attempts = xs
                    .with_transaction(DomId::DOM0, 16, |xs, t| {
                        for op in 0..cfg.ops_per_txn {
                            let path =
                                format!("/local/domain/{}/r{}/op{}", 2000 + writer, round, op);
                            xs.write(DomId::DOM0, Some(t), &path, b"retry")?;
                        }
                        Ok(())
                    })
                    .expect("the retry loop eventually lands");
                retries += attempts as u64;
            }
        }
    }

    let stats = xs.stats();
    XsStormResult {
        engine: cfg.engine,
        writers: cfg.writers,
        txns: (cfg.writers * cfg.txns_per_writer) as u64,
        commits: stats.commits,
        merged: stats.merged,
        conflicts: stats.conflicts,
        retries,
    }
}

/// The default merge sweep: engines × writers × transaction rate, on a
/// store pre-populated with 2 000 nodes so snapshots would hurt if they
/// still deep-cloned.
pub fn default_sweep(seed: u64) -> Vec<XsStormConfig> {
    let mut cells = Vec::new();
    for engine in EngineKind::ALL {
        for &(writers, txns_per_writer) in &[(2usize, 8usize), (8, 8), (16, 4), (32, 4)] {
            cells.push(XsStormConfig {
                engine,
                writers,
                txns_per_writer,
                ops_per_txn: 6,
                prepopulated: 2_000,
                seed,
            });
        }
    }
    cells
}

/// One row of the snapshot-scaling sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotPoint {
    /// Nodes in the store when the snapshot was taken.
    pub store_nodes: usize,
    /// Nodes copied by taking the snapshot (always zero: O(1) clone).
    pub copied_by_snapshot: usize,
    /// Nodes copied after applying one write through the snapshot — the
    /// root-to-leaf spine only, independent of store size.
    pub copied_by_one_write: usize,
}

/// Measure structural sharing for a store pre-populated with `keys` leaf
/// keys (spread over 64 buckets; `store_nodes` in the result reports the
/// exact total).
pub fn snapshot_point(keys: usize) -> SnapshotPoint {
    let mut tree = Tree::new();
    for i in 0..keys {
        tree.write(
            DomId::DOM0,
            &Path::parse(&format!("/warm/b{}/k{}", i % 64, i)).expect("valid path"),
            b"seed",
            &mut TreeDiff::default(),
        )
        .expect("prepopulation writes succeed");
    }
    let total = tree.node_count();
    let snapshot = tree.clone();
    let copied_by_snapshot = total - tree.shared_node_count(&snapshot);
    let mut mutated = snapshot.clone();
    mutated
        .write(
            DomId::DOM0,
            &Path::parse("/warm/b0/k0").expect("valid path"),
            b"mutated",
            &mut TreeDiff::default(),
        )
        .expect("the write succeeds");
    let copied_by_one_write = mutated.node_count() - mutated.shared_node_count(&tree);
    SnapshotPoint {
        store_nodes: total,
        copied_by_snapshot,
        copied_by_one_write,
    }
}

/// Child-map entries (name + pointer pairs) one write copies under a
/// single flat directory of `children` leaves. The bucketed layout of
/// [`snapshot_point`] never has a directory wider than 64, so node counts
/// alone cannot show what a write costs under a wide one: the spine is
/// three nodes at any fan-out, but copying the directory node copies some
/// of its entries — all of them under a per-node `BTreeMap`, one chunk
/// under the persistent child map.
pub fn flat_directory_entries_copied(children: usize) -> usize {
    let mut tree = Tree::new();
    for i in 0..children {
        tree.write(
            DomId::DOM0,
            &Path::parse(&format!("/flat/k{i}")).expect("valid path"),
            b"seed",
            &mut TreeDiff::default(),
        )
        .expect("prepopulation writes succeed");
    }
    let snapshot = tree.clone();
    tree.write(
        DomId::DOM0,
        &Path::parse(&format!("/flat/k{}", children / 2)).expect("valid path"),
        b"mutated",
        &mut TreeDiff::default(),
    )
    .expect("the write succeeds");
    tree.node_count() - 1 - tree.shared_entry_count(&snapshot)
}

/// Nodes one direct `XenStore::write` copies on its way down a depth-7
/// path. A direct op holds no pre-image of the tree, so with no transaction
/// open nothing shares the nodes and the write lands in place (0); an open
/// transaction's snapshot shares the root, and the write path-copies the
/// depth + 1 nodes from the root to its target (8).
pub fn nodes_copied_by_direct_write(transaction_open: bool) -> usize {
    const KEY: &str = "/local/domain/3/device/vif/0/state";
    let mut xs = XenStore::new(EngineKind::JitsuMerge);
    xs.write(DomId::DOM0, None, KEY, b"1")
        .expect("dom0 writes succeed");
    if transaction_open {
        xs.transaction_start(DomId::DOM0)
            .expect("dom0 is exempt from the transaction quota");
    }
    let path = Path::parse(KEY).expect("valid path");
    let before = xs.tree().spine(&path);
    xs.write(DomId::DOM0, None, KEY, b"2")
        .expect("dom0 writes succeed");
    let after = xs.tree().spine(&path);
    before.iter().zip(&after).filter(|(a, b)| a != b).count()
}

/// The store sizes (leaf-key counts) the snapshot sweep covers.
pub fn snapshot_sizes() -> Vec<usize> {
    vec![100, 1_000, 10_000, 50_000]
}

/// Render the merge sweep as the experiment's report table.
pub fn merge_table(seed: u64) -> Table {
    let mut table = Table::new(
        "XenStore storm: overlapping disjoint-path transactions, per engine (2000-node store)",
        &[
            "engine", "writers", "txns/w", "txns", "commits", "merged", "EAGAIN", "retries",
            "abort %", "merge %",
        ],
    );
    for cfg in default_sweep(seed) {
        let r = run_cell(&cfg);
        table.add_row(&[
            r.engine.label().to_string(),
            r.writers.to_string(),
            cfg.txns_per_writer.to_string(),
            r.txns.to_string(),
            r.commits.to_string(),
            r.merged.to_string(),
            r.conflicts.to_string(),
            r.retries.to_string(),
            format!("{:.1}", r.abort_rate() * 100.0),
            format!("{:.1}", r.merge_rate() * 100.0),
        ]);
    }
    table
}

/// Render the snapshot-scaling sweep.
pub fn snapshot_table() -> Table {
    let mut table = Table::new(
        "XenStore snapshots: nodes copied per snapshot and per first write (persistent tree, structural sharing)",
        &["store nodes", "copied by snapshot", "copied by one write"],
    );
    for size in snapshot_sizes() {
        let p = snapshot_point(size);
        table.add_row(&[
            p.store_nodes.to_string(),
            p.copied_by_snapshot.to_string(),
            p.copied_by_one_write.to_string(),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(engine: EngineKind, writers: usize) -> XsStormConfig {
        XsStormConfig {
            engine,
            writers,
            txns_per_writer: 4,
            ops_per_txn: 4,
            prepopulated: 500,
            seed: 0x5707,
        }
    }

    #[test]
    fn jitsu_engine_commits_every_disjoint_transaction_with_zero_aborts() {
        for cfg in default_sweep(0x5707)
            .into_iter()
            .filter(|c| c.engine == EngineKind::JitsuMerge)
        {
            let r = run_cell(&cfg);
            assert_eq!(r.conflicts, 0, "disjoint paths must never abort: {r:?}");
            assert_eq!(r.commits, r.txns, "every transaction lands first try");
            assert!(
                r.merged > 0,
                "overlapping rounds must exercise the merge path: {r:?}"
            );
            assert_eq!(r.retries, 0);
        }
    }

    #[test]
    fn serial_engine_aborts_most_of_the_overlap() {
        let serial = run_cell(&cell(EngineKind::Serial, 8));
        let jitsu = run_cell(&cell(EngineKind::JitsuMerge, 8));
        assert!(
            serial.conflicts > 0,
            "any interleaving aborts the serialising engine"
        );
        assert!(serial.retries > 0);
        assert!(serial.abort_rate() > jitsu.abort_rate());
        assert_eq!(jitsu.conflicts, 0);
    }

    #[test]
    fn oxenstored_merge_sits_between_the_two() {
        // Sibling creations under /local/domain conflict for the OCaml
        // merge (shared parent child-list) but not for Jitsu's.
        let merge = run_cell(&cell(EngineKind::Merge, 8));
        let serial = run_cell(&cell(EngineKind::Serial, 8));
        assert!(merge.conflicts > 0);
        assert!(merge.conflicts <= serial.conflicts);
    }

    #[test]
    fn snapshots_copy_nothing_regardless_of_store_size() {
        let mut last_write_cost = None;
        for size in [100, 1_000, 10_000] {
            let p = snapshot_point(size);
            assert_eq!(
                p.copied_by_snapshot, 0,
                "snapshot must be an O(1) pointer copy at {size} nodes"
            );
            assert!(
                p.copied_by_one_write <= 4,
                "one write copies only the spine: {p:?}"
            );
            // The spine length is constant across sizes (same path shape).
            if let Some(last) = last_write_cost {
                assert_eq!(p.copied_by_one_write, last);
            }
            last_write_cost = Some(p.copied_by_one_write);
        }
    }

    #[test]
    fn entries_copied_by_a_write_do_not_grow_with_the_directory() {
        let narrow = flat_directory_entries_copied(64);
        let wide = flat_directory_entries_copied(4_096);
        // The root's one entry plus one chunk of the directory's.
        assert_eq!(narrow, 65);
        assert!(wide <= narrow, "narrow {narrow}, wide {wide}");
    }

    #[test]
    fn reports_are_a_pure_function_of_the_seed() {
        let a = merge_table(0xABCD).render();
        let b = merge_table(0xABCD).render();
        assert_eq!(a, b);
        let c = snapshot_table().render();
        let d = snapshot_table().render();
        assert_eq!(c, d);
    }

    #[test]
    fn rates_are_well_formed() {
        let r = run_cell(&cell(EngineKind::Serial, 4));
        assert!((0.0..=1.0).contains(&r.abort_rate()));
        assert!((0.0..=1.0).contains(&r.merge_rate()));
        let empty = XsStormResult {
            engine: EngineKind::Serial,
            writers: 0,
            txns: 0,
            commits: 0,
            merged: 0,
            conflicts: 0,
            retries: 0,
        };
        assert_eq!(empty.abort_rate(), 0.0);
        assert_eq!(empty.merge_rate(), 0.0);
    }
}
