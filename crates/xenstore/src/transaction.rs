//! Transactions.
//!
//! A transaction gives a domain an isolated snapshot of the store: reads and
//! writes inside the transaction see a consistent view, and the batch is
//! applied atomically at commit time (or discarded on abort). Because the
//! tree is persistent, opening a transaction is an O(1) pointer copy — the
//! snapshot shares every node with the live tree until one side mutates.
//!
//! Commit is a *three-way merge*: the transaction keeps the pristine tree it
//! started from (`base`) next to its mutated `snapshot`, so at commit time
//! the store can compute the transaction's net effect as a structural diff
//! `base → snapshot` and graft it onto the (possibly concurrently advanced)
//! live tree. Commit fails with `EAGAIN` only when a concurrent commit
//! actually conflicts — *which* interleavings count as conflicts is decided
//! by the pluggable reconciliation engine ([`crate::engine`]) at node
//! granularity, and is exactly what Figure 3 of the paper measures.
//!
//! When nothing was committed beside the transaction, grafting its net
//! effect onto its own base rebuilds the snapshot it already holds. The
//! store then commits the snapshot as it stands — provided it would pass for
//! the rebuilt tree in every respect a later commit can observe, which
//! [`Transaction::snapshot_is_merge_of`] decides from what the operations
//! reported as they ran.

use crate::error::Result;
use crate::path::Path;
use crate::perms::{DomId, Permissions};
use crate::tree::{Tree, TreeDiff};
use std::borrow::Cow;
use std::collections::BTreeMap;

/// The kind of dependency a transaction recorded on a path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadKind {
    /// The transaction read the node's value (or its permissions, or checked
    /// its existence). Reads of *missing* paths are recorded too: a read
    /// that observed absence conflicts with a concurrent create of that
    /// path.
    Value,
    /// The transaction listed the node's children, or depended on the child
    /// list by creating/removing a child beneath it.
    Directory,
    /// Both of the above: the transaction read the node's value *and*
    /// depended on its child list. Neither dependency may be dropped — a
    /// value read followed by a child creation still conflicts with a
    /// concurrent value change.
    Both,
}

impl ReadKind {
    /// True if the dependency includes the node's value.
    pub fn depends_on_value(self) -> bool {
        matches!(self, ReadKind::Value | ReadKind::Both)
    }

    /// True if the dependency includes the node's child list.
    pub fn depends_on_children(self) -> bool {
        matches!(self, ReadKind::Directory | ReadKind::Both)
    }
}

/// One mutation recorded in a transaction's write log.
#[derive(Debug, Clone, PartialEq)]
pub enum TxnOp {
    /// Write a value (creating the node if needed).
    Write {
        /// Target path.
        path: Path,
        /// New value.
        value: Vec<u8>,
    },
    /// Create an empty node.
    Mkdir {
        /// Target path.
        path: Path,
    },
    /// Remove a subtree.
    Rm {
        /// Target path.
        path: Path,
    },
    /// Replace a node's permissions.
    SetPerms {
        /// Target path.
        path: Path,
        /// New permissions.
        perms: Permissions,
    },
}

impl TxnOp {
    /// The path this operation touches.
    pub fn path(&self) -> &Path {
        match self {
            TxnOp::Write { path, .. }
            | TxnOp::Mkdir { path }
            | TxnOp::Rm { path }
            | TxnOp::SetPerms { path, .. } => path,
        }
    }

    /// Perform this operation on `tree` as `dom`, appending what it changed
    /// to `effects`.
    pub fn apply_to(&self, tree: &mut Tree, dom: DomId, effects: &mut TreeDiff) -> Result<()> {
        match self {
            TxnOp::Write { path, value } => tree.write(dom, path, value, effects),
            TxnOp::Mkdir { path } => tree.mkdir(dom, path, effects),
            TxnOp::Rm { path } => tree.rm(dom, path, effects),
            TxnOp::SetPerms { path, perms } => tree.set_perms(dom, path, perms.clone(), effects),
        }
    }

    /// [`TxnOp::apply_to`] for an operation nobody needs afterwards: the
    /// value or permissions it carries move into the tree instead of being
    /// copied into it.
    pub fn apply_into(self, tree: &mut Tree, dom: DomId, effects: &mut TreeDiff) -> Result<()> {
        match self {
            TxnOp::Write { path, value } => {
                tree.write_value(dom, &path, Cow::Owned(value), effects)
            }
            TxnOp::SetPerms { path, perms } => tree.set_perms(dom, &path, perms, effects),
            op => op.apply_to(tree, dom, effects),
        }
    }
}

/// An open transaction: the pristine base tree it started from, the mutable
/// snapshot all in-transaction operations run against, and the recorded
/// read set and write log.
#[derive(Debug, Clone)]
pub struct Transaction {
    /// The transaction id handed to the client.
    pub id: u32,
    /// The domain that opened the transaction.
    pub dom: DomId,
    /// Store generation at the time the transaction started.
    pub start_gen: u64,
    /// The tree exactly as it was when the transaction started — the common
    /// ancestor of the three-way merge at commit time. An O(1) copy.
    pub base: Tree,
    /// The isolated snapshot all in-transaction operations run against.
    /// Starts as another O(1) copy of `base`; mutations path-copy.
    pub snapshot: Tree,
    /// Paths read (and how) during the transaction, including reads that
    /// observed a path to be *missing*.
    pub read_set: BTreeMap<Path, ReadKind>,
    /// Mutations to replay at commit time, in order.
    pub write_log: Vec<TxnOp>,
    /// Number of times this logical transaction has been retried after
    /// `EAGAIN` (maintained by the store for diagnostics).
    pub retries: u32,
    /// How many effects of each kind the operations have reported as they
    /// ran (added, removed, value changed, permissions changed) — or `None`
    /// once one of them stamped a node without changing it (a write of the
    /// value already there, permissions set to what they were), after which
    /// the snapshot's stamps are no merge's whatever the counts. (Narrow
    /// counters: a transaction is moved into the store's table when it
    /// begins and out of it when it ends, and its size shows there.)
    reported: Option<[u32; 4]>,
}

impl Transaction {
    /// Open a transaction against the current state of `tree`. O(1): both
    /// the base and the snapshot share every node with `tree`.
    pub fn begin(id: u32, dom: DomId, tree: &Tree) -> Transaction {
        Transaction {
            id,
            dom,
            start_gen: tree.generation(),
            base: tree.clone(),
            snapshot: tree.clone(),
            read_set: BTreeMap::new(),
            write_log: Vec::new(),
            retries: 0,
            reported: Some([0; 4]),
        }
    }

    /// Record a value-read dependency on `path`. Callers must record reads
    /// of missing paths too — observing absence is a dependency that a
    /// concurrent create invalidates. Widens an existing directory
    /// dependency to [`ReadKind::Both`].
    pub fn note_read(&mut self, path: &Path) {
        self.read_set
            .entry(path.clone())
            .and_modify(|kind| {
                if *kind == ReadKind::Directory {
                    *kind = ReadKind::Both;
                }
            })
            .or_insert(ReadKind::Value);
    }

    /// Record a directory (child-list) dependency on `path`. Widens an
    /// existing value dependency to [`ReadKind::Both`] — it must never be
    /// dropped, or a concurrent value change would slip past the engines.
    pub fn note_dir_read(&mut self, path: &Path) {
        self.read_set
            .entry(path.clone())
            .and_modify(|kind| {
                if *kind == ReadKind::Value {
                    *kind = ReadKind::Both;
                }
            })
            .or_insert(ReadKind::Directory);
    }

    /// Paths written by this transaction, in log order (may repeat).
    pub fn written_paths(&self) -> impl Iterator<Item = &Path> {
        self.write_log.iter().map(|op| op.path())
    }

    /// True if the transaction performed no mutations.
    pub fn is_read_only(&self) -> bool {
        self.write_log.is_empty()
    }

    /// Apply an operation to the snapshot and record it in the write log.
    /// Mutations that fail permission or validity checks are not recorded.
    pub fn apply(&mut self, op: TxnOp) -> Result<()> {
        let mut effects = TreeDiff::default();
        let stamp = self.snapshot.generation();
        op.apply_to(&mut self.snapshot, self.dom, &mut effects)?;
        let restamped = effects.is_empty() && self.snapshot.generation() != stamp;
        self.reported = self.reported.filter(|_| !restamped).and_then(|mut sums| {
            for (sum, now) in sums.iter_mut().zip(effects.counts()) {
                *sum = sum.checked_add(u32::try_from(now).ok()?)?;
            }
            Some(sums)
        });
        // A creation depends on the child list of the deepest directory
        // that existed before it — the parent of the topmost node it
        // created — and a removal on that of the removed node's parent.
        let topmost = effects.added.first().or(effects.removed.first());
        if let Some(dir) = topmost.and_then(|(path, _)| path.parent()) {
            self.note_dir_read(&dir);
        }
        self.write_log.push(op);
        Ok(())
    }

    /// True if `path` was created by this transaction (it exists in the
    /// snapshot but only came into being after the transaction started).
    pub fn created_by_txn(&self, path: &Path) -> bool {
        self.snapshot
            .get(path)
            .map(|n| n.created_gen > self.start_gen)
            .unwrap_or(false)
    }

    /// The transaction's net effect: the structural diff from the pristine
    /// base to the mutated snapshot. Thanks to structural sharing this costs
    /// O(paths touched), not O(store size).
    pub fn changes(&self) -> TreeDiff {
        Tree::diff(&self.base, &self.snapshot)
    }

    /// True if the snapshot is, node for node and stamp for stamp, what
    /// grafting `net` — this transaction's [`Transaction::changes`] — onto
    /// its own base would build: every effect the operations reported is
    /// still there in the net effect, so none was undone or overwritten by
    /// a later one, and no operation stamped a node it did not change.
    ///
    /// The merge stamps exactly the nodes the net effect names. The
    /// operations stamped the nodes of the effects they reported, and the
    /// net effect can only be those effects less what cancelled out; equal
    /// counts of each kind therefore mean nothing cancelled, and the two
    /// stamp the same nodes. The engines compare a node's stamps with its
    /// base's for equality and nothing more, so a store that commits such a
    /// snapshot as it stands decides every later commit as one that merged
    /// would.
    pub fn snapshot_is_merge_of(&self, net: &TreeDiff) -> bool {
        let reported = self
            .reported
            .map(|sums| sums.map(|sum| usize::try_from(sum).ok()));
        reported == Some(net.counts().map(Some))
    }

    /// Three-way merge: graft the transaction's net effect `diff` (`base →
    /// snapshot`, [`Transaction::changes`]) onto `live`, which may have
    /// advanced concurrently. The engines decide *whether* the merge is
    /// safe; this method performs it.
    ///
    /// Removals are applied first (topmost removed node per subtree), then
    /// creations and value updates in depth-first order (parents before
    /// children) — writes to concurrently removed nodes recreate them with
    /// the snapshot's permissions, matching the remove-then-write serial
    /// order — then permission updates, where a concurrently removed target
    /// is treated as already gone (the write-then-remove serial order).
    ///
    /// An error part-way through can leave `live` partially merged; the
    /// store commits onto an O(1) scratch copy and swaps it in only on
    /// success, so a failed commit never mutates the live tree.
    ///
    /// If `live` was still the tree the transaction started from, `diff` is
    /// also exactly what the merge changed in `live`.
    pub fn merge_onto(&self, live: &mut Tree, diff: &TreeDiff) -> Result<()> {
        // What each step changes in `live` is the caller's to work out, once
        // for the whole merge.
        let unused = &mut TreeDiff::default();
        for path in diff.removed_roots() {
            match live.rm(self.dom, path, unused) {
                Ok(()) | Err(crate::error::Error::NoEntry(_)) => {}
                Err(e) => return Err(e),
            }
        }
        let added = diff.added.iter().map(|(path, _)| (path, true));
        let updated = diff.value_changed.iter().map(|path| (path, false));
        for (path, is_creation) in added.chain(updated) {
            // A *created* path that already exists in the live tree can only
            // be an implicit ancestor (explicit creations of an existing
            // path conflict in the engines): both sides created the same
            // directory on the way to disjoint children, so the nodes merge
            // and the live one — possibly carrying a concurrent value —
            // wins. Never clobber it with the snapshot's empty scaffold.
            if is_creation && live.exists(path) {
                continue;
            }
            let node = self
                .snapshot
                .get(path)
                // jitsu-lint: allow(P001, "the diff enumerates paths present in the snapshot")
                .expect("diff path exists in snapshot");
            live.write(self.dom, path, &node.value, unused)?;
            // Fresh nodes (including value-changed nodes recreated after a
            // concurrent removal) carry whatever permissions the creation
            // rules derive; restamp the snapshot's if they differ, so e.g.
            // guest ownership survives a dom0 rewrite.
            // jitsu-lint: allow(P001, "the path was written into the live tree on the previous line")
            let live_perms = &live.get(path).expect("just written").perms;
            if *live_perms != node.perms {
                live.set_perms(self.dom, path, node.perms.clone(), unused)?;
            }
        }
        for (path, _, _) in &diff.perms_changed {
            // `perms_changed` is disjoint from `added` by construction and
            // the write pass above already restamped the `value_changed`
            // overlap; a node removed concurrently stays gone (the txn only
            // touched its permissions, and the remove wins that serial
            // order).
            if diff.value_changed.binary_search(path).is_ok() || !live.exists(path) {
                continue;
            }
            let node = self
                .snapshot
                .get(path)
                // jitsu-lint: allow(P001, "the diff enumerates paths present in the snapshot")
                .expect("diff path exists in snapshot");
            live.set_perms(self.dom, path, node.perms.clone(), unused)?;
        }
        Ok(())
    }

    /// Replay the write log onto `tree` (used by the engines after deciding
    /// the commit does not conflict). Individual op failures are surfaced.
    ///
    /// [`Transaction::merge_onto`] is the net-effect equivalent the store
    /// uses on its commit path; `replay_onto` is kept for op-order-exact
    /// replays in tests and diagnostics.
    pub fn replay_onto(&self, tree: &mut Tree) -> Result<()> {
        let unused = &mut TreeDiff::default();
        for op in &self.write_log {
            match (op, op.apply_to(tree, self.dom, unused)) {
                // A node removed by a concurrent commit is treated as
                // already gone rather than failing the whole batch.
                (TxnOp::Rm { .. }, Err(crate::error::Error::NoEntry(_))) => {}
                (_, result) => result?,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perms::DomId;

    fn p(s: &str) -> Path {
        Path::parse(s).unwrap()
    }

    #[test]
    fn begin_snapshots_current_state() {
        let mut tree = Tree::new();
        tree.write(DomId::DOM0, &p("/a"), b"1", &mut TreeDiff::default())
            .unwrap();
        let txn = Transaction::begin(1, DomId::DOM0, &tree);
        assert_eq!(txn.start_gen, tree.generation());
        assert_eq!(txn.snapshot.read(DomId::DOM0, &p("/a")).unwrap(), b"1");
        assert!(txn.is_read_only());
    }

    #[test]
    fn begin_is_a_pointer_copy_not_a_deep_clone() {
        let mut tree = Tree::new();
        for i in 0..500 {
            tree.write(
                DomId::DOM0,
                &p(&format!("/bulk/k{i}")),
                b"v",
                &mut TreeDiff::default(),
            )
            .unwrap();
        }
        let txn = Transaction::begin(1, DomId::DOM0, &tree);
        assert!(
            txn.snapshot.shares_root_with(&tree),
            "snapshot must share the live root"
        );
        assert!(txn.base.shares_root_with(&tree), "base must share too");
    }

    #[test]
    fn writes_are_isolated_until_merged() {
        let mut tree = Tree::new();
        let mut txn = Transaction::begin(1, DomId::DOM0, &tree);
        txn.apply(TxnOp::Write {
            path: p("/local/domain/5/name"),
            value: b"web".to_vec(),
        })
        .unwrap();
        assert!(
            !tree.exists(&p("/local/domain/5/name")),
            "live tree untouched"
        );
        assert!(txn.snapshot.exists(&p("/local/domain/5/name")));
        txn.merge_onto(&mut tree, &txn.changes()).unwrap();
        assert_eq!(
            tree.read(DomId::DOM0, &p("/local/domain/5/name")).unwrap(),
            b"web"
        );
        assert!(!txn.is_read_only());
    }

    #[test]
    fn merge_and_replay_agree_on_the_net_effect() {
        let mut tree = Tree::new();
        tree.write(DomId::DOM0, &p("/keep"), b"0", &mut TreeDiff::default())
            .unwrap();
        tree.write(DomId::DOM0, &p("/dead/x"), b"1", &mut TreeDiff::default())
            .unwrap();
        let mut txn = Transaction::begin(1, DomId::DOM0, &tree);
        txn.apply(TxnOp::Write {
            path: p("/a/b"),
            value: b"2".to_vec(),
        })
        .unwrap();
        txn.apply(TxnOp::Rm { path: p("/dead") }).unwrap();
        txn.apply(TxnOp::Write {
            path: p("/keep"),
            value: b"9".to_vec(),
        })
        .unwrap();
        let mut merged = tree.clone();
        let mut replayed = tree.clone();
        txn.merge_onto(&mut merged, &txn.changes()).unwrap();
        txn.replay_onto(&mut replayed).unwrap();
        assert!(Tree::diff(&merged, &replayed).is_empty());
        assert!(Tree::diff(&merged, &txn.snapshot).is_empty());
    }

    /// A few random ops over a small path space, so that an op often undoes
    /// or repeats an earlier one: writes of three values (often the one
    /// already there), removals, re-creations, permission changes.
    fn random_ops(rng: &mut jitsu_sim::SimRng, count: usize) -> Vec<TxnOp> {
        (0..count)
            .map(|_| {
                let mut text = format!("/d{}", rng.index(3));
                for _ in 0..rng.index(3) {
                    text.push_str(["/a", "/b"][rng.index(2)]);
                }
                let path = p(&text);
                match rng.index(8) {
                    0 | 1 => TxnOp::Rm { path },
                    2 => TxnOp::Mkdir { path },
                    3 => TxnOp::SetPerms {
                        path,
                        perms: Permissions::owned_by(DomId(rng.index(2) as u32)),
                    },
                    _ => TxnOp::Write {
                        path,
                        value: vec![rng.index(3) as u8],
                    },
                }
            })
            .collect()
    }

    #[test]
    fn a_snapshot_that_passes_for_the_merge_is_stamped_as_the_merge_would_be() {
        let mut adopted = 0;
        let mut refused = 0;
        for seed in 0..400 {
            let mut rng = jitsu_sim::SimRng::seed_from_u64(0xAD07 ^ seed);
            let mut base = Tree::new();
            for op in random_ops(&mut rng, 12) {
                drop(op.apply_to(&mut base, DomId::DOM0, &mut TreeDiff::default()));
            }
            let mut txn = Transaction::begin(1, DomId::DOM0, &base);
            let ops = 1 + rng.index(4);
            for op in random_ops(&mut rng, ops) {
                drop(txn.apply(op));
            }
            let net = txn.changes();
            let mut merged = base.clone();
            txn.merge_onto(&mut merged, &net).unwrap();
            // On its own base a transaction's snapshot always holds what the
            // merge builds; what the question is about is the stamps.
            assert!(Tree::diff(&merged, &txn.snapshot).is_empty(), "seed {seed}");
            if !txn.snapshot_is_merge_of(&net) {
                refused += 1;
                continue;
            }
            adopted += 1;
            // What an engine can tell of a later commit: whether a node it
            // knew from `base` has since been stamped.
            for path in base.all_paths() {
                let before = base.get(&path).unwrap();
                let (Some(by_merge), Some(by_ops)) = (merged.get(&path), txn.snapshot.get(&path))
                else {
                    continue;
                };
                assert_eq!(
                    by_merge.modified_gen != before.modified_gen,
                    by_ops.modified_gen != before.modified_gen,
                    "seed {seed}: value stamp of {path}"
                );
                assert_eq!(
                    by_merge.children_gen != before.children_gen,
                    by_ops.children_gen != before.children_gen,
                    "seed {seed}: child-list stamp of {path}"
                );
                assert_eq!(by_merge.created_gen, by_ops.created_gen, "seed {seed}");
            }
            assert!(txn.snapshot.generation() >= base.generation());
            assert_eq!(
                txn.snapshot.generation() == base.generation(),
                net.is_empty(),
                "seed {seed}: the generation moves exactly when something changed"
            );
        }
        // Both answers come up: ops that undo, repeat or restamp are refused.
        assert!(adopted > 100 && refused > 100, "{adopted} / {refused}");
    }

    #[test]
    fn ops_that_cancel_or_restamp_do_not_pass_for_the_merge() {
        let mut base = Tree::new();
        base.write(DomId::DOM0, &p("/a"), b"1", &mut TreeDiff::default())
            .unwrap();
        let write = |path: &str, value: &[u8]| TxnOp::Write {
            path: p(path),
            value: value.to_vec(),
        };
        let verdict = |ops: Vec<TxnOp>| {
            let mut txn = Transaction::begin(1, DomId::DOM0, &base);
            for op in ops {
                txn.apply(op).unwrap();
            }
            txn.snapshot_is_merge_of(&txn.changes())
        };
        assert!(verdict(vec![write("/a", b"2"), write("/b/c", b"3")]));
        assert!(verdict(vec![TxnOp::Rm { path: p("/a") }]));
        assert!(verdict(vec![TxnOp::Mkdir { path: p("/a") }]), "no stamp");
        // The value already there: stamped, not changed.
        assert!(!verdict(vec![write("/a", b"1")]));
        // Changed and changed back; created and removed; removed and re-created.
        assert!(!verdict(vec![write("/a", b"2"), write("/a", b"1")]));
        assert!(!verdict(vec![
            write("/t", b"x"),
            TxnOp::Rm { path: p("/t") }
        ]));
        assert!(!verdict(vec![
            TxnOp::Rm { path: p("/a") },
            write("/a", b"1")
        ]));
        // A second write to a node the transaction created itself.
        assert!(!verdict(vec![write("/n", b"1"), write("/n", b"2")]));
    }

    #[test]
    fn changes_reports_the_net_effect_only() {
        let mut tree = Tree::new();
        tree.write(DomId::DOM0, &p("/a"), b"1", &mut TreeDiff::default())
            .unwrap();
        let mut txn = Transaction::begin(1, DomId::DOM0, &tree);
        // Write then remove: net effect on /tmp is nothing.
        txn.apply(TxnOp::Write {
            path: p("/tmp"),
            value: b"x".to_vec(),
        })
        .unwrap();
        txn.apply(TxnOp::Rm { path: p("/tmp") }).unwrap();
        // Overwrite twice: one net value change.
        txn.apply(TxnOp::Write {
            path: p("/a"),
            value: b"2".to_vec(),
        })
        .unwrap();
        txn.apply(TxnOp::Write {
            path: p("/a"),
            value: b"3".to_vec(),
        })
        .unwrap();
        let diff = txn.changes();
        assert!(diff.added.is_empty());
        assert!(diff.removed.is_empty());
        assert_eq!(diff.value_changed, vec![p("/a")]);
        assert_eq!(txn.write_log.len(), 4, "the log still records every op");
    }

    #[test]
    fn apply_records_directory_dependency_on_deepest_existing_ancestor() {
        let mut tree = Tree::new();
        tree.mkdir(DomId::DOM0, &p("/local/domain"), &mut TreeDiff::default())
            .unwrap();
        let mut txn = Transaction::begin(1, DomId::DOM0, &tree);
        txn.apply(TxnOp::Mkdir {
            path: p("/local/domain/5"),
        })
        .unwrap();
        assert_eq!(
            txn.read_set.get(&p("/local/domain")),
            Some(&ReadKind::Directory)
        );
        // A second creation below the new node depends only on state the
        // transaction itself created, so no new shared dependency appears.
        txn.apply(TxnOp::Mkdir {
            path: p("/local/domain/5/device"),
        })
        .unwrap();
        assert!(
            !txn.read_set.contains_key(&p("/local/domain/5"))
                || txn.created_by_txn(&p("/local/domain/5"))
        );
        assert!(txn.created_by_txn(&p("/local/domain/5")));
        assert!(!txn.created_by_txn(&p("/local/domain")));
    }

    #[test]
    fn read_dependencies_widen_and_never_downgrade() {
        let tree = Tree::new();
        let mut txn = Transaction::begin(1, DomId::DOM0, &tree);
        // Directory then value: both dependencies survive.
        txn.note_dir_read(&p("/a"));
        txn.note_read(&p("/a"));
        assert_eq!(txn.read_set.get(&p("/a")), Some(&ReadKind::Both));
        // Value then directory: likewise.
        txn.note_read(&p("/c"));
        txn.note_dir_read(&p("/c"));
        assert_eq!(txn.read_set.get(&p("/c")), Some(&ReadKind::Both));
        txn.note_read(&p("/b"));
        assert_eq!(txn.read_set.get(&p("/b")), Some(&ReadKind::Value));
        assert!(ReadKind::Both.depends_on_value() && ReadKind::Both.depends_on_children());
        assert!(!ReadKind::Directory.depends_on_value());
        assert!(!ReadKind::Value.depends_on_children());
    }

    #[test]
    fn reads_of_missing_paths_are_recorded() {
        let tree = Tree::new();
        let mut txn = Transaction::begin(1, DomId::DOM0, &tree);
        // The store notes the read before attempting it, so a read that
        // returns ENOENT still lands in the read set.
        txn.note_read(&p("/not/yet/here"));
        assert!(txn.snapshot.read(DomId::DOM0, &p("/not/yet/here")).is_err());
        assert_eq!(
            txn.read_set.get(&p("/not/yet/here")),
            Some(&ReadKind::Value)
        );
    }

    #[test]
    fn failed_ops_are_not_logged() {
        let tree = Tree::new();
        let mut txn = Transaction::begin(1, DomId(5), &tree);
        // dom5 cannot write under dom0's tree.
        assert!(txn
            .apply(TxnOp::Write {
                path: p("/tool/x"),
                value: b"v".to_vec()
            })
            .is_err());
        assert!(txn.write_log.is_empty());
    }

    #[test]
    fn merge_tolerates_concurrently_removed_nodes() {
        let mut tree = Tree::new();
        tree.write(DomId::DOM0, &p("/a/b"), b"1", &mut TreeDiff::default())
            .unwrap();
        let mut txn = Transaction::begin(1, DomId::DOM0, &tree);
        txn.apply(TxnOp::Rm { path: p("/a/b") }).unwrap();
        // Concurrently, someone else removes it first.
        tree.rm(DomId::DOM0, &p("/a/b"), &mut TreeDiff::default())
            .unwrap();
        txn.merge_onto(&mut tree, &txn.changes()).unwrap();
        assert!(!tree.exists(&p("/a/b")));
    }

    #[test]
    fn written_paths_and_op_path() {
        let tree = Tree::new();
        let mut txn = Transaction::begin(1, DomId::DOM0, &tree);
        txn.apply(TxnOp::Write {
            path: p("/x"),
            value: vec![1],
        })
        .unwrap();
        txn.apply(TxnOp::Mkdir { path: p("/y") }).unwrap();
        let paths: Vec<String> = txn.written_paths().map(|p| p.to_string()).collect();
        assert_eq!(paths, vec!["/x", "/y"]);
        assert_eq!(TxnOp::Rm { path: p("/z") }.path().to_string(), "/z");
    }
}
