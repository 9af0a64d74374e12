//! The commit, checked against the diff-and-replay commit it replaced.
//!
//! A commit judges each read by what it saw and each stamp by whether it is
//! newer than the transaction's start, finds the net effect by walking base
//! and snapshot along the paths the transaction wrote, and grafts it onto
//! the live tree with one descent a path, reporting what that changed. The
//! reference here does each step the way the store did before: it compares
//! every dependency's node in the base with the live one, takes the net
//! effect as `Tree::diff` of base and snapshot, replays it onto a copy of
//! the live tree through the public mutators, and diffs the copy against
//! the live tree for what changed.
//!
//! Every history of the isolation checker's generator (10,000 per engine)
//! runs against a store, keeping beside each open transaction what the
//! reference needs: its base, its snapshot rebuilt from what its operations
//! did, what its reads saw and the paths it wrote. Each commit is checked
//! against the reference computed from the live tree just before it: the
//! same decision, the same tree after — every node's value, permissions
//! and three stamps, and the store's generation — and the same record of
//! what changed, as the watch events it fires on `/` show, path by path and
//! in order, with the ownership counts it settles.

#[path = "support/histories.rs"]
mod histories;

use histories::{alphabet, generate, History, Op, Step, GUEST};
use jitsu_repro::xenstore::{DomId, EngineKind, Error, Node, Path, Tree, TreeDiff, TxId, XenStore};
use std::collections::{BTreeMap, BTreeSet};

/// What a transaction's first read of a path found in its snapshot.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Sight {
    Absent,
    /// A node that was there when the transaction started.
    Shared,
    /// A node the transaction had made itself.
    Own,
}

fn sight(node: Option<&Node>, start: u64) -> Sight {
    match node {
        None => Sight::Absent,
        Some(node) if node.created_gen > start => Sight::Own,
        Some(_) => Sight::Shared,
    }
}

/// A read-set entry: the kinds of dependency and what the first read saw.
#[derive(Debug, Clone, Copy)]
struct Dep {
    value: bool,
    children: bool,
    seen: Sight,
}

/// An open transaction as the reference keeps it.
struct Shadow {
    tx: TxId,
    dom: DomId,
    start: u64,
    base: Tree,
    snapshot: Tree,
    reads: BTreeMap<Path, Dep>,
    written: BTreeSet<Path>,
    /// The effects its operations reported, kind by kind, or `None` once
    /// one stamped a node without changing it.
    reported: Option<[usize; 4]>,
    open: bool,
}

impl Shadow {
    fn note(&mut self, path: &Path, value: bool, seen: Sight) {
        let dep = self.reads.entry(path.clone()).or_insert(Dep {
            value: false,
            children: false,
            seen,
        });
        dep.value |= value;
        dep.children |= !value;
    }

    /// Record `op`, which ran in the transaction and returned `ok`.
    fn record(&mut self, op: &Op, ok: bool) {
        if op.is_read() {
            let seen = sight(self.snapshot.get(op.path()), self.start);
            self.note(op.path(), !matches!(op, Op::Directory(_)), seen);
            return;
        }
        if !ok {
            return;
        }
        let before = self.snapshot.generation();
        let mut effects = TreeDiff::default();
        let ran = op.run_on(&mut self.snapshot, self.dom, &mut effects);
        assert!(ran.is_ok(), "what took in the store takes on its snapshot");
        let restamped = effects.is_empty() && self.snapshot.generation() != before;
        self.reported = self.reported.filter(|_| !restamped).map(|mut sums| {
            for (sum, now) in sums.iter_mut().zip(effects.counts()) {
                *sum += now;
            }
            sums
        });
        let topmost = effects.added.first().map(|(path, _)| path);
        let topmost = topmost.or(effects.removed.first().map(|(path, _)| path));
        if let Some(dir) = topmost.and_then(Path::parent) {
            let seen = sight(self.snapshot.get(&dir), self.start);
            self.note(&dir, false, seen);
        }
        self.written.insert(op.path().clone());
    }

    /// Whether `engine` refuses the commit against `live`, every stamp
    /// compared with the base's.
    fn conflicts(&self, engine: EngineKind, live: &Tree) -> bool {
        if live.generation() == self.start {
            return false;
        }
        let ignore_directories = match engine {
            EngineKind::Serial => return true,
            EngineKind::Merge => false,
            EngineKind::JitsuMerge => true,
        };
        let read_conflicts = self.reads.iter().any(|(path, dep)| {
            let (base, now) = (self.base.get(path), live.get(path));
            match dep.seen {
                Sight::Own => false,
                Sight::Absent => match (base, now) {
                    (_, None) => false,
                    (None, Some(_)) => true,
                    (Some(base), Some(now)) => now.created_gen != base.created_gen,
                },
                Sight::Shared => match (base, now) {
                    (Some(base), Some(now)) => {
                        let value = dep.value && now.modified_gen != base.modified_gen;
                        let children = dep.children
                            && !ignore_directories
                            && (now.children_gen != base.children_gen
                                || now.modified_gen != base.modified_gen);
                        value || children
                    }
                    // The node the read saw is gone.
                    _ => true,
                },
            }
        });
        read_conflicts
            || self
                .written
                .iter()
                .any(|path| match (self.base.get(path), live.get(path)) {
                    (None, Some(_)) => true,
                    (Some(base), Some(now)) => now.modified_gen != base.modified_gen,
                    (_, None) => false,
                })
    }

    /// The committed tree and what it changed in `live`, as the store
    /// built them before: the net effect diffed, replayed on a copy of the
    /// live tree unless the snapshot passes for it, and diffed again.
    fn commit(&self, live: &Tree) -> Result<(Tree, TreeDiff), Error> {
        let net = Tree::diff(&self.base, &self.snapshot);
        let unmoved = live.generation() == self.start;
        if unmoved && self.reported == Some(net.counts()) {
            return Ok((self.snapshot.clone(), net));
        }
        let mut merged = live.clone();
        self.replay(&net, &mut merged)?;
        let changed = if unmoved {
            net
        } else {
            Tree::diff(live, &merged)
        };
        Ok((merged, changed))
    }

    /// The three-way merge as it was: removals, creations and rewrites
    /// (each a write, then permissions if they differ), permission changes,
    /// each looked up afresh.
    fn replay(&self, net: &TreeDiff, live: &mut Tree) -> Result<(), Error> {
        let (dom, unused) = (self.dom, &mut TreeDiff::default());
        for (path, _) in &net.removed {
            match live.rm(dom, path, unused) {
                Ok(()) | Err(Error::NoEntry(_)) => {}
                Err(e) => return Err(e),
            }
        }
        let created = net.added.iter().map(|(path, _)| (path, true));
        let updated = net.value_changed.iter().map(|path| (path, false));
        for (path, creation) in created.chain(updated) {
            if creation && live.exists(path) {
                continue;
            }
            let node = self.snapshot.get(path).expect("in the snapshot");
            live.write(dom, path, &node.value, unused)?;
            if live.get(path).expect("just written").perms != node.perms {
                live.set_perms(dom, path, node.perms.clone(), unused)?;
            }
        }
        for (path, _, _) in &net.perms_changed {
            if net.value_changed.binary_search(path).is_ok() || !live.exists(path) {
                continue;
            }
            let perms = self
                .snapshot
                .get(path)
                .expect("in the snapshot")
                .perms
                .clone();
            live.set_perms(dom, path, perms, unused)?;
        }
        Ok(())
    }
}

/// Every path `changed` fires a watch on `/` for, in order: each removed
/// subtree node by node.
fn fired(changed: &TreeDiff) -> Vec<Path> {
    fn subtree(path: &Path, node: &Node, out: &mut Vec<Path>) {
        out.push(path.clone());
        for (name, child) in node.children.iter() {
            subtree(&path.child(name).expect("a stored name"), child, out);
        }
    }
    let mut out = Vec::new();
    for (path, removed) in changed.changed() {
        match removed {
            Some(node) => subtree(path, node, &mut out),
            None => out.push(path.clone()),
        }
    }
    out
}

/// Run `history` against a store with `engine`, checking each commit;
/// how many commits merged onto a store that moved.
fn check(engine: EngineKind, history: &History) -> Result<u32, String> {
    let mut xs = XenStore::new(engine);
    let watcher = DomId::DOM0;
    xs.watch(watcher, "/", "all")
        .map_err(|e| format!("watch: {e:?}"))?;
    let mut txns: Vec<Shadow> = Vec::new();
    let mut merges = 0;
    for (at, step) in history.steps.iter().enumerate() {
        let fail = |what: String| format!("step {at} ({step:?}): {what}");
        match step {
            Step::Direct(dom, op) => drop(op.run(&mut xs, *dom, None)),
            Step::Begin(_, dom) => {
                let tx = xs.transaction_start(*dom);
                txns.push(Shadow {
                    tx: tx.clone().unwrap_or(TxId(u32::MAX)),
                    dom: *dom,
                    start: xs.tree().generation(),
                    base: xs.tree().clone(),
                    snapshot: xs.tree().clone(),
                    reads: BTreeMap::new(),
                    written: BTreeSet::new(),
                    reported: Some([0; 4]),
                    open: tx.is_ok(),
                });
            }
            Step::In(t, op) if txns[*t].open => {
                let txn = &mut txns[*t];
                let ok = op.run(&mut xs, txn.dom, Some(txn.tx)).is_ok();
                txn.record(op, ok);
            }
            Step::End(t, commit) if txns[*t].open => {
                let txn = &mut txns[*t];
                txn.open = false;
                if !commit || txn.written.is_empty() {
                    drop(xs.transaction_end(txn.dom, txn.tx, *commit));
                    continue;
                }
                let live = xs.tree().clone();
                let expected = if txn.conflicts(engine, &live) {
                    Err(Error::Again)
                } else {
                    txn.commit(&live)
                };
                xs.take_watch_events(watcher);
                let merged = xs.stats().merged;
                let ended = xs.transaction_end(txn.dom, txn.tx, true);
                let events: Vec<Path> = xs
                    .take_watch_events(watcher)
                    .into_iter()
                    .map(|event| event.path)
                    .collect();
                match expected {
                    Err(expected) => {
                        if ended != Err(expected.clone()) {
                            return Err(fail(format!("{ended:?}, the reference {expected:?}")));
                        }
                        if *xs.tree() != live || !events.is_empty() {
                            return Err(fail("a refused commit changed the store".into()));
                        }
                    }
                    Ok((tree, changed)) => {
                        if ended.is_err() {
                            return Err(fail(format!("{ended:?}, the reference commits")));
                        }
                        if *xs.tree() != tree {
                            let diff = Tree::diff(&tree, xs.tree());
                            return Err(fail(format!(
                                "the committed tree differs from the reference's \
                                 (generation {} against {}): {diff:?}",
                                xs.tree().generation(),
                                tree.generation()
                            )));
                        }
                        let expected = fired(&changed);
                        if events != expected {
                            return Err(fail(format!(
                                "fired {events:?}, the reference {expected:?}"
                            )));
                        }
                        let moved = live.generation() != txn.start;
                        if xs.stats().merged - merged != u64::from(moved) {
                            return Err(fail("counted as merged wrongly".into()));
                        }
                        merges += u32::from(moved);
                    }
                }
                for dom in [DomId::DOM0, GUEST] {
                    if xs.owned_nodes(dom) != xs.tree().owned_count(dom) {
                        return Err(fail(format!("the ownership count of {dom:?} drifted")));
                    }
                }
            }
            Step::In(..) | Step::End(..) => {}
            Step::Destroy => {
                xs.domain_destroyed(GUEST);
                for txn in txns.iter_mut().filter(|txn| txn.dom == GUEST) {
                    txn.open = false;
                }
            }
        }
    }
    Ok(merges)
}

/// Histories per engine.
const HISTORIES: u64 = 10_000;
/// The isolation checker's first seed, so both check the same histories.
const FIRST_SEED: u64 = 0x150_1A7E;

fn commits_as_the_reference_does(engine: EngineKind) {
    let paths = alphabet();
    let mut merges = 0;
    for seed in FIRST_SEED..FIRST_SEED + HISTORIES {
        let history = generate(seed, &paths);
        match check(engine, &history) {
            Ok(merged) => merges += merged,
            Err(why) => panic!("{engine:?}: {why}\n{history}"),
        }
    }
    // A generator that stopped racing transactions would pass while
    // checking no merge.
    eprintln!("{engine:?}: {merges} merged commits");
    assert!(
        engine == EngineKind::Serial || merges > 4_000,
        "{engine:?}: {merges}"
    );
}

#[test]
fn serial_commits_as_the_reference_does() {
    commits_as_the_reference_does(EngineKind::Serial);
}

#[test]
fn merge_commits_as_the_reference_does() {
    commits_as_the_reference_does(EngineKind::Merge);
}

#[test]
fn jitsu_merge_commits_as_the_reference_does() {
    commits_as_the_reference_does(EngineKind::JitsuMerge);
}
