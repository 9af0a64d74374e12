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
//! the store can compute the transaction's net effect — what the snapshot
//! differs from the base in — and graft it onto the (possibly concurrently
//! advanced) live tree. Every difference lies on the way to, at or below a
//! path one of its operations named, so the net effect is found by walking
//! base and snapshot down those paths alone (`Tree::diff_along`), and the
//! graft reaches each path it changes with one descent of the live tree
//! (`Tree::graft`), reporting what it changed as it goes. What a commit
//! costs follows what the transaction touched, not what the directories
//! above it hold. Commit fails with `EAGAIN` only when a concurrent commit
//! actually conflicts — *which* interleavings count as conflicts is decided
//! by the pluggable reconciliation engine ([`crate::engine`]) at node
//! granularity, and is exactly what Figure 3 of the paper measures.
//!
//! When nothing was committed beside the transaction, grafting its net
//! effect onto its own base rebuilds the snapshot it already holds. The
//! store then commits the snapshot as it stands — provided it would pass for
//! the rebuilt tree in every respect a later commit can observe, which
//! `Transaction::snapshot_is_merge_of` decides from what the operations
//! reported as they ran.

use crate::error::{Error, Result};
use crate::node::Node;
use crate::path::Path;
use crate::perms::DomId;
use crate::tree::{Graft, Tree, TreeDiff};
use std::collections::btree_map::{BTreeMap, Entry};

/// The kind of dependency a transaction recorded on a path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadKind {
    /// The transaction read the node's value (or its permissions, or checked
    /// its existence). Reads of *missing* paths are recorded too: a read
    /// that observed absence conflicts with a concurrent create of that
    /// path, even when the transaction goes on to create the path itself
    /// ([`ReadDep::seen`] tells the reads apart).
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

/// What a transaction's first read of a path found there, in its snapshot.
///
/// A node's stamps differ from its base's exactly when they are newer than
/// the transaction's start, so what the first read saw is all the engines
/// need besides the live node: no read is judged by the base or by the
/// snapshot as the transaction left it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Seen {
    /// No node: the read depends on none being made after the transaction
    /// started (a node the transaction removed itself stays gone for it).
    Absent,
    /// A node that was there when the transaction started: the read
    /// depends on it, whatever the transaction does to it later.
    Shared,
    /// A node the transaction had made itself: the read read its own write
    /// and depends on nothing shared.
    Own,
}

impl Seen {
    /// What a read that found `node` (or none) saw, in the snapshot of a
    /// transaction that started at generation `start_gen`.
    pub(crate) fn of(node: Option<&Node>, start_gen: u64) -> Seen {
        match node {
            None => Seen::Absent,
            Some(node) if node.created_gen > start_gen => Seen::Own,
            Some(_) => Seen::Shared,
        }
    }
}

/// One read-set entry: the [`ReadKind`] of the dependencies a transaction
/// took on a path, and what the first of its reads there [`Seen`]. One
/// byte of flags, as wide as the bare kind, so the read set's map nodes
/// keep their size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadDep(u8);

impl ReadDep {
    const VALUE: u8 = 1;
    const CHILDREN: u8 = 2;
    const SHARED: u8 = 4;
    const OWN: u8 = 8;

    /// The dependencies recorded so far.
    pub fn kind(self) -> ReadKind {
        match self.0 & (ReadDep::VALUE | ReadDep::CHILDREN) {
            ReadDep::VALUE => ReadKind::Value,
            ReadDep::CHILDREN => ReadKind::Directory,
            _ => ReadKind::Both,
        }
    }

    /// What the transaction's first read of the path found. A later read
    /// cannot change this: what the first read saw absent stays a
    /// dependency on that absence, and a node it saw stays one on that node
    /// even if the transaction removes it (and makes it again).
    pub fn seen(self) -> Seen {
        if self.0 & ReadDep::OWN != 0 {
            Seen::Own
        } else if self.0 & ReadDep::SHARED != 0 {
            Seen::Shared
        } else {
            Seen::Absent
        }
    }

    fn first(seen: Seen) -> ReadDep {
        ReadDep(match seen {
            Seen::Absent => 0,
            Seen::Shared => ReadDep::SHARED,
            Seen::Own => ReadDep::OWN,
        })
    }
}

/// An open transaction: the pristine base tree it started from, the mutable
/// snapshot all in-transaction operations run against, what it read and
/// the paths its operations wrote.
#[derive(Debug)]
pub(crate) struct Transaction {
    /// The domain that opened the transaction.
    pub(crate) dom: DomId,
    /// Store generation at the time the transaction started.
    pub(crate) start_gen: u64,
    /// The tree exactly as it was when the transaction started — the common
    /// ancestor of the three-way merge at commit time. An O(1) copy.
    pub(crate) base: Tree,
    /// The isolated snapshot all in-transaction operations run against.
    /// Starts as another O(1) copy of `base`; mutations path-copy.
    pub(crate) snapshot: Tree,
    /// Paths read (and how, and what the first read saw) during the
    /// transaction, including reads that observed a path to be *missing*.
    pub(crate) read_set: BTreeMap<Path, ReadDep>,
    /// The paths of the operations that succeeded, sorted, each once: all
    /// the engines read of what the transaction did, besides the snapshot,
    /// and the paths its net effect is found along. The values live in the
    /// snapshot alone.
    written: Vec<Path>,
    /// How many nodes the operations have given the transaction's domain,
    /// net — created or handed to it, less removed or taken from it — as
    /// the effects they reported show. The per-op node quota counts this on
    /// top of what the domain owns in the live store.
    node_gain: i32,
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
    pub(crate) fn begin(dom: DomId, tree: &Tree) -> Transaction {
        Transaction {
            dom,
            start_gen: tree.generation(),
            base: tree.clone(),
            snapshot: tree.clone(),
            read_set: BTreeMap::new(),
            written: Vec::new(),
            node_gain: 0,
            reported: Some([0; 4]),
        }
    }

    /// Record a value-read dependency on `path`, read in the snapshot,
    /// where the read [`Seen`] what it found. Callers must record reads of
    /// missing paths too — observing absence is a dependency that a
    /// concurrent create invalidates. Widens an existing directory
    /// dependency to [`ReadKind::Both`]. Only the first read of a path
    /// records what it saw.
    pub(crate) fn note_read(&mut self, path: &Path, seen: Seen) {
        self.note(path, ReadDep::VALUE, |_, _| seen);
    }

    /// Record a directory (child-list) dependency on `path`. Widens an
    /// existing value dependency to [`ReadKind::Both`] — it must never be
    /// dropped, or a concurrent value change would slip past the engines.
    /// `seen` is as for [`Transaction::note_read`].
    pub(crate) fn note_dir_read(&mut self, path: &Path, seen: Seen) {
        self.note(path, ReadDep::CHILDREN, |_, _| seen);
    }

    /// Record a dependency of `kind` on `path`; `seen` tells, from the
    /// snapshot and the start generation, what the read saw, and is asked
    /// only of a first read.
    fn note(&mut self, path: &Path, kind: u8, seen: impl FnOnce(&Tree, u64) -> Seen) {
        let dep = match self.read_set.entry(path.clone()) {
            Entry::Occupied(dep) => dep.into_mut(),
            Entry::Vacant(dep) => dep.insert(ReadDep::first(seen(&self.snapshot, self.start_gen))),
        };
        dep.0 |= kind;
    }

    /// Paths written by this transaction, sorted, each once.
    pub(crate) fn written_paths(&self) -> impl Iterator<Item = &Path> {
        self.written.iter()
    }

    /// True if none of the transaction's mutations succeeded.
    pub(crate) fn is_read_only(&self) -> bool {
        self.written.is_empty()
    }

    /// Run `mutate`, an operation on `path`, on the snapshot. It reports
    /// what it changed into `effects`, which is empty when it is lent here
    /// and is the caller's to empty again. An operation that fails (a
    /// permission or validity check) changed nothing and is not recorded.
    pub(crate) fn apply(
        &mut self,
        path: &Path,
        effects: &mut TreeDiff,
        mutate: impl FnOnce(&mut Tree, &mut TreeDiff) -> Result<()>,
    ) -> Result<()> {
        let stamp = self.snapshot.generation();
        mutate(&mut self.snapshot, effects)?;
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
        // Either directory is in the snapshot, as it was or as the
        // transaction made it.
        let dom = self.dom;
        let node_gain = &mut self.node_gain;
        effects.owner_changes(|owner, by| {
            if owner == dom {
                *node_gain += if by > 0 { 1 } else { -1 };
            }
        });
        let added = effects.added.first().map(|(path, _)| path);
        let topmost = added.or(effects.removed.first().map(|(path, _)| path));
        if let Some(dir) = topmost.and_then(Path::parent) {
            self.note(&dir, ReadDep::CHILDREN, |snapshot, start_gen| {
                Seen::of(snapshot.get(&dir), start_gen)
            });
        }
        if let Err(at) = self.written.binary_search(path) {
            self.written.insert(at, path.clone());
        }
        Ok(())
    }

    /// How many nodes the operations so far have given the transaction's
    /// domain, net: negative if they removed more of its nodes than they
    /// created.
    pub(crate) fn node_gain(&self) -> isize {
        self.node_gain as isize
    }

    /// The transaction's net effect: what the snapshot differs from the
    /// pristine base in, found along the paths its operations named — one
    /// child-map search a level in each tree, nothing off those paths.
    pub(crate) fn changes(&self) -> TreeDiff {
        Tree::diff_along(&self.base, &self.snapshot, &self.written, self.start_gen)
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
    /// stamp the same nodes, each past the start generation. The engines
    /// ask of a node's stamps only whether they are newer than a
    /// transaction's start, so a store that commits such a snapshot as it
    /// stands decides every later commit as one that merged would.
    pub(crate) fn snapshot_is_merge_of(&self, net: &TreeDiff) -> bool {
        let reported = self
            .reported
            .map(|sums| sums.map(|sum| usize::try_from(sum).ok()));
        reported == Some(net.counts().map(Some))
    }

    /// Three-way merge: graft the transaction's net effect `net`
    /// ([`Transaction::changes`]) onto `live`, which may have advanced
    /// concurrently, and append to `report` what that changed in `live` —
    /// [`Tree::diff`] of `live` before and after, sorted as it sorts. The
    /// engines decide *whether* the merge is safe; this method performs it.
    ///
    /// Removals are applied first (the root of each removed subtree), then
    /// creations, then value updates, each list in depth-first order
    /// (parents before children) — writes to concurrently removed nodes
    /// recreate them with the snapshot's permissions, matching the
    /// remove-then-write serial order — then permission updates, where a
    /// concurrently removed target is treated as already gone (the
    /// write-then-remove serial order). Each path is one descent of `live`
    /// (`Tree::graft`) and one lookup of its node in the snapshot.
    ///
    /// An error part-way through can leave `live` partially merged; the
    /// store commits onto an O(1) scratch copy and swaps it in only on
    /// success, so a failed commit never mutates the live tree.
    pub(crate) fn merge_onto(
        &self,
        live: &mut Tree,
        net: &TreeDiff,
        report: &mut TreeDiff,
    ) -> Result<()> {
        let before = live.generation();
        for (path, _) in &net.removed {
            match live.rm(self.dom, path, report) {
                Ok(()) | Err(Error::NoEntry(_)) => {}
                Err(e) => return Err(e),
            }
        }
        let created = net.added.iter().map(|(path, _)| (path, Graft::Creation));
        let updated = net.value_changed.iter().map(|path| (path, Graft::Value));
        // `perms_changed` is disjoint from `added`, and the value pass has
        // already given the `value_changed` overlap its permissions.
        let permitted = net.perms_changed.iter().map(|(path, _, _)| path);
        let permitted = permitted
            .filter(|path| net.value_changed.binary_search(path).is_err())
            .map(|path| (path, Graft::Perms));
        for (path, step) in created.chain(updated).chain(permitted) {
            #[expect(
                clippy::expect_used,
                reason = "the net effect names paths present in the snapshot"
            )]
            let node = self
                .snapshot
                .get(path)
                .expect("net effect path in snapshot");
            live.graft(self.dom, path, node, step, before, report)?;
        }
        // A node the value pass made again, and a permission change there,
        // can come after later paths of the earlier passes.
        if !report.added.is_sorted_by(|a, b| a.0 <= b.0) {
            report.added.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        }
        if !report.perms_changed.is_sorted_by(|a, b| a.0 <= b.0) {
            report.perms_changed.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perms::{DomId, Permissions};

    fn p(s: &str) -> Path {
        Path::parse(s).unwrap()
    }

    /// An operation a test runs in a transaction and keeps, to run it again
    /// on a tree as the serial reference.
    #[derive(Debug, Clone)]
    enum Op {
        Write(Path, Vec<u8>),
        Mkdir(Path),
        Rm(Path),
        SetPerms(Path, Permissions),
    }

    impl Op {
        fn write(path: &str, value: &[u8]) -> Op {
            Op::Write(p(path), value.to_vec())
        }

        fn path(&self) -> &Path {
            match self {
                Op::Write(path, _) | Op::Mkdir(path) | Op::Rm(path) | Op::SetPerms(path, _) => path,
            }
        }

        /// Run the operation on `tree` as `dom`.
        fn run(&self, tree: &mut Tree, dom: DomId, effects: &mut TreeDiff) -> Result<()> {
            match self {
                Op::Write(path, value) => tree.write(dom, path, value, effects),
                Op::Mkdir(path) => tree.mkdir(dom, path, effects),
                Op::Rm(path) => tree.rm(dom, path, effects),
                Op::SetPerms(path, perms) => tree.set_perms(dom, path, perms.clone(), effects),
            }
        }

        /// Run the operation in `txn`, as the store does.
        fn apply(&self, txn: &mut Transaction) -> Result<()> {
            let dom = txn.dom;
            let mut effects = TreeDiff::default();
            txn.apply(self.path(), &mut effects, |tree, effects| {
                self.run(tree, dom, effects)
            })
        }
    }

    /// Run each of `ops` in `txn`, keeping those that succeeded.
    fn apply_all(txn: &mut Transaction, ops: Vec<Op>) -> Vec<Op> {
        ops.into_iter().filter(|op| op.apply(txn).is_ok()).collect()
    }

    /// The op-order-exact reference for [`Transaction::merge_onto`]: replay
    /// `ops`, what a transaction ran, onto `tree`, treating a node a
    /// concurrent commit removed as already gone.
    fn replay_onto(ops: &[Op], dom: DomId, tree: &mut Tree) -> Result<()> {
        let unused = &mut TreeDiff::default();
        for op in ops {
            match (op, op.run(tree, dom, unused)) {
                (Op::Rm(_), Err(crate::error::Error::NoEntry(_))) => {}
                (_, result) => result?,
            }
        }
        Ok(())
    }

    #[test]
    fn begin_snapshots_current_state() {
        let mut tree = Tree::new();
        tree.write(DomId::DOM0, &p("/a"), b"1", &mut TreeDiff::default())
            .unwrap();
        let txn = Transaction::begin(DomId::DOM0, &tree);
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
        let txn = Transaction::begin(DomId::DOM0, &tree);
        assert!(
            txn.snapshot.shares_root_with(&tree),
            "snapshot must share the live root"
        );
        assert!(txn.base.shares_root_with(&tree), "base must share too");
    }

    #[test]
    fn writes_are_isolated_until_merged() {
        let mut tree = Tree::new();
        let mut txn = Transaction::begin(DomId::DOM0, &tree);
        Op::write("/local/domain/5/name", b"web")
            .apply(&mut txn)
            .unwrap();
        assert!(
            !tree.exists(&p("/local/domain/5/name")),
            "live tree untouched"
        );
        assert!(txn.snapshot.exists(&p("/local/domain/5/name")));
        txn.merge_onto(&mut tree, &txn.changes(), &mut TreeDiff::default())
            .unwrap();
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
        let mut txn = Transaction::begin(DomId::DOM0, &tree);
        let ops = vec![
            Op::write("/a/b", b"2"),
            Op::Rm(p("/dead")),
            Op::write("/keep", b"9"),
        ];
        assert_eq!(apply_all(&mut txn, ops.clone()).len(), ops.len());
        let mut merged = tree.clone();
        let mut replayed = tree.clone();
        txn.merge_onto(&mut merged, &txn.changes(), &mut TreeDiff::default())
            .unwrap();
        replay_onto(&ops, txn.dom, &mut replayed).unwrap();
        assert!(Tree::diff(&merged, &replayed).is_empty());
        assert!(Tree::diff(&merged, &txn.snapshot).is_empty());
    }

    /// A few random ops over a small path space, so that an op often undoes
    /// or repeats an earlier one: writes of three values (often the one
    /// already there), removals, re-creations, permission changes.
    fn random_ops(rng: &mut jitsu_sim::SimRng, count: usize) -> Vec<Op> {
        (0..count)
            .map(|_| {
                let mut text = format!("/d{}", rng.index(3));
                for _ in 0..rng.index(3) {
                    text.push_str(["/a", "/b"][rng.index(2)]);
                }
                let path = p(&text);
                match rng.index(8) {
                    0 | 1 => Op::Rm(path),
                    2 => Op::Mkdir(path),
                    3 => Op::SetPerms(path, Permissions::owned_by(DomId(rng.index(2) as u32))),
                    _ => Op::Write(path, vec![rng.index(3) as u8]),
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
                drop(op.run(&mut base, DomId::DOM0, &mut TreeDiff::default()));
            }
            let mut txn = Transaction::begin(DomId::DOM0, &base);
            let ops = 1 + rng.index(4);
            let ran = apply_all(&mut txn, random_ops(&mut rng, ops));
            let net = txn.changes();
            let mut merged = base.clone();
            txn.merge_onto(&mut merged, &net, &mut TreeDiff::default())
                .unwrap();
            // On its own base a transaction's snapshot always holds what the
            // merge builds, and what its operations build run one by one;
            // what the question is about is the stamps.
            assert!(Tree::diff(&merged, &txn.snapshot).is_empty(), "seed {seed}");
            let mut replayed = base.clone();
            replay_onto(&ran, DomId::DOM0, &mut replayed).unwrap();
            assert!(Tree::diff(&merged, &replayed).is_empty(), "seed {seed}");
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
    fn the_net_effect_and_the_merge_report_are_what_tree_diff_finds() {
        let mut moved = 0;
        for seed in 0..400 {
            let mut rng = jitsu_sim::SimRng::seed_from_u64(0xD1A6 ^ seed);
            let mut base = Tree::new();
            for op in random_ops(&mut rng, 12) {
                drop(op.run(&mut base, DomId::DOM0, &mut TreeDiff::default()));
            }
            let mut txn = Transaction::begin(DomId::DOM0, &base);
            let ops = 1 + rng.index(4);
            apply_all(&mut txn, random_ops(&mut rng, ops));
            let net = txn.changes();
            assert_eq!(net, Tree::diff(&base, &txn.snapshot), "seed {seed}");
            // Onto its own base, or onto a tree concurrent ops have moved.
            let mut live = base.clone();
            if rng.chance(0.5) {
                let ops = 1 + rng.index(3);
                for op in random_ops(&mut rng, ops) {
                    drop(op.run(&mut live, DomId::DOM0, &mut TreeDiff::default()));
                }
                moved += usize::from(live.generation() != base.generation());
            }
            let mut merged = live.clone();
            let mut report = TreeDiff::default();
            txn.merge_onto(&mut merged, &net, &mut report).unwrap();
            assert_eq!(report, Tree::diff(&live, &merged), "seed {seed}");
        }
        assert!(moved > 100, "{moved}");
    }

    #[test]
    fn ops_that_cancel_or_restamp_do_not_pass_for_the_merge() {
        let mut base = Tree::new();
        base.write(DomId::DOM0, &p("/a"), b"1", &mut TreeDiff::default())
            .unwrap();
        let write = Op::write;
        let verdict = |ops: Vec<Op>| {
            let mut txn = Transaction::begin(DomId::DOM0, &base);
            for op in ops {
                op.apply(&mut txn).unwrap();
            }
            txn.snapshot_is_merge_of(&txn.changes())
        };
        assert!(verdict(vec![write("/a", b"2"), write("/b/c", b"3")]));
        assert!(verdict(vec![Op::Rm(p("/a"))]));
        assert!(verdict(vec![Op::Mkdir(p("/a"))]), "no stamp");
        // The value already there: stamped, not changed.
        assert!(!verdict(vec![write("/a", b"1")]));
        // Changed and changed back; created and removed; removed and re-created.
        assert!(!verdict(vec![write("/a", b"2"), write("/a", b"1")]));
        assert!(!verdict(vec![write("/t", b"x"), Op::Rm(p("/t"))]));
        assert!(!verdict(vec![Op::Rm(p("/a")), write("/a", b"1")]));
        // A second write to a node the transaction created itself.
        assert!(!verdict(vec![write("/n", b"1"), write("/n", b"2")]));
    }

    #[test]
    fn changes_reports_the_net_effect_only() {
        let mut tree = Tree::new();
        tree.write(DomId::DOM0, &p("/a"), b"1", &mut TreeDiff::default())
            .unwrap();
        let mut txn = Transaction::begin(DomId::DOM0, &tree);
        // Write then remove: net effect on /tmp is nothing.
        Op::write("/tmp", b"x").apply(&mut txn).unwrap();
        Op::Rm(p("/tmp")).apply(&mut txn).unwrap();
        // Overwrite twice: one net value change.
        Op::write("/a", b"2").apply(&mut txn).unwrap();
        Op::write("/a", b"3").apply(&mut txn).unwrap();
        let diff = txn.changes();
        assert!(diff.added.is_empty());
        assert!(diff.removed.is_empty());
        assert_eq!(diff.value_changed, vec![p("/a")]);
        assert_eq!(txn.written_paths().count(), 2, "each path is recorded once");
    }

    #[test]
    fn apply_records_directory_dependency_on_deepest_existing_ancestor() {
        let mut tree = Tree::new();
        tree.mkdir(DomId::DOM0, &p("/local/domain"), &mut TreeDiff::default())
            .unwrap();
        let mut txn = Transaction::begin(DomId::DOM0, &tree);
        Op::Mkdir(p("/local/domain/5")).apply(&mut txn).unwrap();
        let listed = txn.read_set[&p("/local/domain")];
        assert_eq!(listed.kind(), ReadKind::Directory);
        assert_eq!(listed.seen(), Seen::Shared);
        // A second creation below the new node depends only on state the
        // transaction itself created, so no new shared dependency appears.
        Op::Mkdir(p("/local/domain/5/device"))
            .apply(&mut txn)
            .unwrap();
        assert_eq!(txn.read_set[&p("/local/domain/5")].seen(), Seen::Own);
        assert_eq!(txn.read_set[&p("/local/domain")].seen(), Seen::Shared);
    }

    #[test]
    fn read_dependencies_widen_and_never_downgrade() {
        let tree = Tree::new();
        let mut txn = Transaction::begin(DomId::DOM0, &tree);
        let kind = |txn: &Transaction, path: &str| txn.read_set[&p(path)].kind();
        // Directory then value: both dependencies survive.
        txn.note_dir_read(&p("/a"), Seen::Absent);
        txn.note_read(&p("/a"), Seen::Absent);
        assert_eq!(kind(&txn, "/a"), ReadKind::Both);
        // Value then directory: likewise.
        txn.note_read(&p("/c"), Seen::Absent);
        txn.note_dir_read(&p("/c"), Seen::Absent);
        assert_eq!(kind(&txn, "/c"), ReadKind::Both);
        txn.note_read(&p("/b"), Seen::Absent);
        txn.note_read(&p("/b"), Seen::Own);
        assert_eq!(kind(&txn, "/b"), ReadKind::Value);
        assert!(ReadKind::Both.depends_on_value() && ReadKind::Both.depends_on_children());
        assert!(!ReadKind::Directory.depends_on_value());
        assert!(!ReadKind::Value.depends_on_children());
    }

    #[test]
    fn reads_of_missing_paths_are_recorded() {
        let tree = Tree::new();
        let mut txn = Transaction::begin(DomId::DOM0, &tree);
        // The store notes a read whatever it returned, so a read that
        // returns ENOENT still lands in the read set.
        assert!(txn.snapshot.read(DomId::DOM0, &p("/not/yet/here")).is_err());
        txn.note_read(&p("/not/yet/here"), Seen::Absent);
        let read = txn.read_set[&p("/not/yet/here")];
        assert_eq!(read.kind(), ReadKind::Value);
        assert_eq!(read.seen(), Seen::Absent);
    }

    #[test]
    fn the_first_read_decides_whether_the_node_was_seen() {
        let mut tree = Tree::new();
        tree.write(DomId::DOM0, &p("/shared"), b"1", &mut TreeDiff::default())
            .unwrap();
        let mut txn = Transaction::begin(DomId::DOM0, &tree);
        let seen =
            |txn: &Transaction, path: &str| Seen::of(txn.snapshot.get(&p(path)), txn.start_gen);
        // Read absent, then read again after the transaction created it:
        // the absence stays what was seen, and the kinds still widen.
        txn.note_read(&p("/seen/absent"), Seen::Absent);
        txn.note_dir_read(&p("/seen/absent"), Seen::Own);
        let absent = txn.read_set[&p("/seen/absent")];
        assert_eq!(absent.seen(), Seen::Absent);
        assert_eq!(absent.kind(), ReadKind::Both);
        // Created, then read: the transaction read its own write.
        Op::write("/own/write", b"v").apply(&mut txn).unwrap();
        assert_eq!(seen(&txn, "/own/write"), Seen::Own);
        txn.note_read(&p("/own/write"), Seen::Own);
        txn.note_read(&p("/own/write"), Seen::Absent);
        assert_eq!(txn.read_set[&p("/own/write")].seen(), Seen::Own);
        // The directory a creation depends on is there to be seen.
        assert_eq!(txn.read_set[&p("/")].seen(), Seen::Shared);
        // Read, then removed and made again: still the node that was there.
        assert_eq!(seen(&txn, "/shared"), Seen::Shared);
        txn.note_read(&p("/shared"), Seen::Shared);
        Op::Rm(p("/shared")).apply(&mut txn).unwrap();
        Op::write("/shared", b"2").apply(&mut txn).unwrap();
        assert_eq!(txn.read_set[&p("/shared")].seen(), Seen::Shared);
    }

    #[test]
    fn failed_ops_are_not_logged() {
        let tree = Tree::new();
        let mut txn = Transaction::begin(DomId(5), &tree);
        // dom5 cannot write under dom0's tree.
        assert!(Op::write("/tool/x", b"v").apply(&mut txn).is_err());
        assert!(txn.is_read_only());
        assert_eq!(txn.written_paths().count(), 0);
    }

    #[test]
    fn merge_tolerates_concurrently_removed_nodes() {
        let mut tree = Tree::new();
        tree.write(DomId::DOM0, &p("/a/b"), b"1", &mut TreeDiff::default())
            .unwrap();
        let mut txn = Transaction::begin(DomId::DOM0, &tree);
        Op::Rm(p("/a/b")).apply(&mut txn).unwrap();
        // Concurrently, someone else removes it first.
        tree.rm(DomId::DOM0, &p("/a/b"), &mut TreeDiff::default())
            .unwrap();
        txn.merge_onto(&mut tree, &txn.changes(), &mut TreeDiff::default())
            .unwrap();
        assert!(!tree.exists(&p("/a/b")));
    }

    #[test]
    fn written_paths_and_op_path() {
        let tree = Tree::new();
        let mut txn = Transaction::begin(DomId::DOM0, &tree);
        Op::write("/x", &[1]).apply(&mut txn).unwrap();
        Op::Mkdir(p("/y")).apply(&mut txn).unwrap();
        // A removal of what is not there fails and names nothing.
        assert!(Op::Rm(p("/z")).apply(&mut txn).is_err());
        Op::Rm(p("/x")).apply(&mut txn).unwrap();
        Op::write("/a", &[1]).apply(&mut txn).unwrap();
        let paths: Vec<String> = txn.written_paths().map(|p| p.to_string()).collect();
        assert_eq!(paths, vec!["/a", "/x", "/y"], "sorted, each once");
    }
}
