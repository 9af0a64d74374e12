//! Transaction reconciliation engines.
//!
//! When a transaction commits, the store must decide whether concurrent
//! commits that landed since the transaction started conflict with it. The
//! paper compares three answers (Figure 3):
//!
//! * **Serial** — the behaviour of the default C `xenstored`: *any*
//!   concurrent commit aborts the transaction with `EAGAIN`. Under parallel
//!   VM start/stop load this causes large sets of domain-building RPCs to be
//!   cancelled and retried, and total time grows super-linearly with the
//!   number of parallel sequences.
//! * **Merge** — the OCaml `oxenstored`: the store keeps the transaction's
//!   read and write sets and only conflicts when a concurrently committed
//!   change actually intersects them (node values read or written, or
//!   directory listings the transaction depended on).
//! * **JitsuMerge** — the Jitsu fork's custom merge function: like Merge,
//!   but *sibling creations under a common directory root do not conflict*.
//!   Two toolstack transactions building different domains both create
//!   children under `/local/domain`; the OCaml merge sees both transactions
//!   depending on the shared parent's child list and aborts one of them,
//!   whereas the Jitsu merge recognises the child sets are disjoint and lets
//!   both commit.
//!
//! # The isolation contract
//!
//! `tests/xenstore_isolation.rs` checks it on seeded histories of
//! overlapping transactions, direct operations and a domain's destruction,
//! by replaying each history one transaction at a time on a fresh store.
//!
//! * `Serial` and `Merge` are serializable in commit order. So is
//!   `JitsuMerge`, except for the child-list reads of a directory: two
//!   domain builds that each list `/local/domain` and create different
//!   children both commit. That write skew on the listing is the
//!   relaxation the paper describes, and deliberate; so is its corollary,
//!   that a node two transactions both created on the way to different
//!   children is one node, whose value the first commit set.
//! * A transaction that wrote something serializes at its commit. One that
//!   wrote nothing commits unchecked, so it serializes at its start, where
//!   its snapshot was taken, not at its commit.
//! * A commit applies the transaction's net effect — what its snapshot
//!   differs from its base in — not its operations one by one. Each node
//!   the net effect creates or rewrites gets the snapshot's value and
//!   permissions, so a node recreated after a concurrent removal keeps the
//!   owner the transaction saw; an operation that changed nothing (a
//!   `mkdir` of an existing node, a write of the value already there)
//!   recreates nothing. What a mutation returned is not part of the
//!   contract: one that failed records no dependency, and one that took is
//!   not checked again (a removal of a node removed concurrently commits).
//! * A blind write over a concurrent write is serializable in commit order:
//!   the later commit's value wins in the merge as in the serial order. So
//!   the exact-path write-write rule below (a written path modified
//!   concurrently) is `oxenstored`'s policy rather than something
//!   isolation needs; with it disabled the checker still passes.
//! * A read is judged by what it saw when the transaction first read the
//!   path, not by the snapshot the transaction ends with: a read of a node
//!   the transaction then removed, or removed and made again, still
//!   depends on that node. A child-list dependency also depends on the
//!   node's permissions, which decide whether the listing is allowed at
//!   all.
//!
//! How long each engine's operations take on the ARM evaluation board (the
//! C daemon's filesystem-backed transactions are notably slower per
//! operation) is part of the board's cost model in `platform::cost`; the
//! Figure 3 harness combines the conflict behaviour decided here with those
//! costs.

use crate::transaction::{Seen, Transaction};
use crate::tree::Tree;

/// Which reconciliation engine a store uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// C `xenstored`: abort on any concurrent commit.
    Serial,
    /// OCaml `oxenstored`: merge with read/write-set conflict detection.
    Merge,
    /// Jitsu's fork: merge that additionally treats creations under a common
    /// directory root as non-conflicting.
    JitsuMerge,
}

impl EngineKind {
    /// All engine kinds, in the order the paper's Figure 3 legend lists them.
    pub const ALL: [EngineKind; 3] = [
        EngineKind::Serial,
        EngineKind::Merge,
        EngineKind::JitsuMerge,
    ];

    /// The label used in Figure 3.
    pub fn label(self) -> &'static str {
        match self {
            EngineKind::Serial => "Xen 4.4.0 C Xenstored",
            EngineKind::Merge => "Xen 4.4.0 OCaml Xenstored",
            EngineKind::JitsuMerge => "Jitsu Xenstored",
        }
    }

    /// Decide whether `txn` may commit against the current `live` tree.
    pub(crate) fn reconcile(self, live: &Tree, txn: &Transaction) -> Reconcile {
        // Nothing was committed beside the transaction: the live tree is its
        // base, node for node and stamp for stamp, and no engine finds a
        // conflict in it.
        if live.generation() == txn.start_gen {
            return Reconcile::Commit;
        }
        let conflict = match self {
            // C `xenstored`: any interleaved commit conflicts.
            EngineKind::Serial => Some(format!(
                "store advanced from generation {} to {} during the transaction",
                txn.start_gen,
                live.generation()
            )),
            // OCaml `oxenstored`: only overlapping read/write sets conflict,
            // directory-listing dependencies included.
            EngineKind::Merge => merge_conflicts(live, txn, false),
            // Jitsu's merge: sibling creations under a common directory root
            // do not conflict; only genuine value/write overlaps do.
            EngineKind::JitsuMerge => merge_conflicts(live, txn, true),
        };
        match conflict {
            Some(reason) => Reconcile::Conflict { reason },
            None => Reconcile::Commit,
        }
    }
}

/// The outcome of a conflict check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Reconcile {
    /// The transaction may commit (merge its net effect onto the live tree).
    Commit,
    /// The transaction conflicts and must be retried (`EAGAIN`).
    Conflict {
        /// Human-readable reason, for diagnostics and tests.
        reason: String,
    },
}

/// Shared logic for the two merge engines: a three-way comparison between
/// what the transaction's reads saw, the paths it wrote, and the current
/// `live` tree, at node granularity. A path conflicts only when the node
/// the transaction depended on actually changed underneath it.
///
/// Every stamp made since the transaction started is newer than its start
/// generation, and a node it started with carries older ones, so "changed
/// since the base" is "stamped after the start": each path costs one
/// lookup, in the live tree.
fn merge_conflicts(live: &Tree, txn: &Transaction, ignore_directory_deps: bool) -> Option<String> {
    let since = txn.start_gen;
    // Read-set dependencies, each judged by what its first read saw.
    for (path, read) in &txn.read_set {
        let kind = read.kind();
        match (read.seen(), live.get(path)) {
            // The read read the transaction's own write, not shared state.
            (Seen::Own, _) => {}
            // Observed missing, created concurrently: a read of a
            // nonexistent node conflicts with a concurrent create of that
            // path, whatever kind of read it was — even when the
            // transaction created the path afterwards: the write-set check
            // below does not see the ancestors a write creates.
            (Seen::Absent, Some(node)) if node.created_gen > since => {
                return Some(format!("{path} was created concurrently"));
            }
            (Seen::Absent, _) => {}
            // The node the read saw has been removed concurrently — whether
            // or not the transaction went on to remove it too, and perhaps
            // make it again.
            (Seen::Shared, None) => {
                return Some(format!("{path} was removed concurrently"));
            }
            (Seen::Shared, Some(node)) => {
                if kind.depends_on_value() && node.modified_gen > since {
                    return Some(format!("{path} was modified concurrently"));
                }
                // A child list is read under the node's permissions, which
                // decide whether the listing (or the creation) is allowed at
                // all; a change of them stamps `modified_gen`.
                if kind.depends_on_children()
                    && !ignore_directory_deps
                    && (node.children_gen > since || node.modified_gen > since)
                {
                    return Some(format!("children of {path} changed concurrently"));
                }
            }
        }
    }
    // Write-write conflicts on exact paths. A concurrently removed write
    // target does not conflict: the merge recreates (or re-removes) it.
    for path in txn.written_paths() {
        match live.get(path) {
            Some(node) if node.created_gen > since => {
                return Some(format!("{path} was created concurrently"));
            }
            Some(node) if node.modified_gen > since => {
                return Some(format!("{path} was written concurrently"));
            }
            _ => {}
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path::Path;
    use crate::perms::DomId;
    use crate::tree::TreeDiff;

    fn p(s: &str) -> Path {
        Path::parse(s).unwrap()
    }

    /// Write `value` at `path` in `txn`, as the store does.
    fn write(txn: &mut Transaction, path: &str, value: &[u8]) {
        let (dom, path) = (txn.dom, p(path));
        txn.apply(&path, &mut TreeDiff::default(), |tree, effects| {
            tree.write(dom, &path, value, effects)
        })
        .unwrap();
    }

    /// Build a live tree, a transaction creating one domain subtree, and a
    /// concurrent commit creating a *different* domain subtree — the exact
    /// interleaving produced by parallel VM starts.
    fn parallel_domain_build() -> (Tree, Transaction) {
        let mut live = Tree::new();
        live.write(
            DomId::DOM0,
            &p("/local/domain/0/name"),
            b"dom0",
            &mut TreeDiff::default(),
        )
        .unwrap();

        let mut txn = Transaction::begin(DomId::DOM0, &live);
        write(&mut txn, "/local/domain/5/name", b"unikernel-5");
        write(&mut txn, "/local/domain/5/device/vif/0/state", b"1");

        // Meanwhile another toolstack thread commits domain 6.
        live.write(
            DomId::DOM0,
            &p("/local/domain/6/name"),
            b"unikernel-6",
            &mut TreeDiff::default(),
        )
        .unwrap();
        live.write(
            DomId::DOM0,
            &p("/local/domain/6/device/vif/0/state"),
            b"1",
            &mut TreeDiff::default(),
        )
        .unwrap();
        (live, txn)
    }

    #[test]
    fn serial_engine_aborts_on_any_concurrent_commit() {
        let (live, txn) = parallel_domain_build();
        assert!(matches!(
            EngineKind::Serial.reconcile(&live, &txn),
            Reconcile::Conflict { .. }
        ));
    }

    #[test]
    fn serial_engine_commits_when_no_interleaving() {
        let live = Tree::new();
        let mut txn = Transaction::begin(DomId::DOM0, &live);
        write(&mut txn, "/a", &[1]);
        assert_eq!(EngineKind::Serial.reconcile(&live, &txn), Reconcile::Commit);
    }

    #[test]
    fn merge_engine_conflicts_on_shared_parent_directory() {
        // Both transactions create children of /local/domain: the OCaml merge
        // sees the directory dependency and aborts the later one.
        let (live, txn) = parallel_domain_build();
        assert!(matches!(
            EngineKind::Merge.reconcile(&live, &txn),
            Reconcile::Conflict { .. }
        ));
    }

    #[test]
    fn jitsu_engine_allows_sibling_domain_creation() {
        // The Jitsu merge recognises the created subtrees are disjoint.
        let (live, txn) = parallel_domain_build();
        assert_eq!(
            EngineKind::JitsuMerge.reconcile(&live, &txn),
            Reconcile::Commit
        );
    }

    #[test]
    fn all_engines_conflict_on_same_path_write() {
        let mut live = Tree::new();
        live.write(DomId::DOM0, &p("/state"), b"a", &mut TreeDiff::default())
            .unwrap();
        let mut txn = Transaction::begin(DomId::DOM0, &live);
        write(&mut txn, "/state", b"from-txn");
        // Concurrent write to the same node.
        live.write(
            DomId::DOM0,
            &p("/state"),
            b"concurrent",
            &mut TreeDiff::default(),
        )
        .unwrap();
        for kind in EngineKind::ALL {
            assert!(
                matches!(kind.reconcile(&live, &txn), Reconcile::Conflict { .. }),
                "{kind:?} must detect a write-write conflict"
            );
        }
    }

    #[test]
    fn merge_engines_conflict_when_read_value_changes() {
        let mut live = Tree::new();
        live.write(DomId::DOM0, &p("/config"), b"v1", &mut TreeDiff::default())
            .unwrap();
        let mut txn = Transaction::begin(DomId::DOM0, &live);
        txn.note_read(&p("/config"), Seen::Shared);
        write(&mut txn, "/derived", b"from-v1");
        live.write(DomId::DOM0, &p("/config"), b"v2", &mut TreeDiff::default())
            .unwrap();
        assert!(matches!(
            EngineKind::Merge.reconcile(&live, &txn),
            Reconcile::Conflict { .. }
        ));
        assert!(matches!(
            EngineKind::JitsuMerge.reconcile(&live, &txn),
            Reconcile::Conflict { .. }
        ));
    }

    #[test]
    fn read_of_missing_path_conflicts_with_concurrent_create() {
        // Regression: a transaction that *observed a path to be absent*
        // depends on that absence. A concurrent create of exactly that path
        // must conflict, or the transaction commits against a world it
        // never saw (e.g. two toolstack threads both concluding "service
        // not yet registered" and both claiming the slot).
        let mut live = Tree::new();
        let mut txn = Transaction::begin(DomId::DOM0, &live);
        txn.note_read(&p("/conduit/http_server"), Seen::Absent);
        assert!(txn
            .snapshot
            .read(DomId::DOM0, &p("/conduit/http_server"))
            .is_err());
        write(&mut txn, "/decision", b"claim");
        // Concurrently, another thread creates the path we saw missing.
        live.write(
            DomId::DOM0,
            &p("/conduit/http_server"),
            b"3",
            &mut TreeDiff::default(),
        )
        .unwrap();
        for kind in [EngineKind::Merge, EngineKind::JitsuMerge] {
            assert!(
                matches!(kind.reconcile(&live, &txn), Reconcile::Conflict { .. }),
                "{kind:?} must conflict on concurrent create of a read-miss path"
            );
        }
    }

    #[test]
    fn read_of_missing_path_commits_when_it_stays_missing() {
        let mut live = Tree::new();
        live.write(DomId::DOM0, &p("/other"), b"1", &mut TreeDiff::default())
            .unwrap();
        let mut txn = Transaction::begin(DomId::DOM0, &live);
        txn.note_read(&p("/conduit/http_server"), Seen::Absent);
        write(&mut txn, "/decision", b"claim");
        // An unrelated concurrent commit advances the store, but the absent
        // path stays absent: the dependency holds and the merge engines
        // commit.
        live.write(DomId::DOM0, &p("/other"), b"2", &mut TreeDiff::default())
            .unwrap();
        assert_eq!(EngineKind::Merge.reconcile(&live, &txn), Reconcile::Commit);
        assert_eq!(
            EngineKind::JitsuMerge.reconcile(&live, &txn),
            Reconcile::Commit
        );
    }

    #[test]
    fn directory_listing_of_missing_path_conflicts_with_concurrent_create() {
        // Even the Jitsu engine, which ignores child-list changes on
        // *existing* directories, must honour an existence dependency: a
        // directory listing that failed with ENOENT conflicts with the
        // directory being created concurrently.
        let mut live = Tree::new();
        let mut txn = Transaction::begin(DomId::DOM0, &live);
        txn.note_dir_read(&p("/conduit/flows"), Seen::Absent);
        write(&mut txn, "/decision", &[1]);
        live.mkdir(DomId::DOM0, &p("/conduit/flows"), &mut TreeDiff::default())
            .unwrap();
        assert!(matches!(
            EngineKind::JitsuMerge.reconcile(&live, &txn),
            Reconcile::Conflict { .. }
        ));
    }

    #[test]
    fn merge_engines_conflict_when_read_node_removed() {
        let mut live = Tree::new();
        live.write(DomId::DOM0, &p("/config"), b"v1", &mut TreeDiff::default())
            .unwrap();
        let mut txn = Transaction::begin(DomId::DOM0, &live);
        txn.note_read(&p("/config"), Seen::Shared);
        write(&mut txn, "/derived", &[1]);
        live.rm(DomId::DOM0, &p("/config"), &mut TreeDiff::default())
            .unwrap();
        for kind in [EngineKind::Merge, EngineKind::JitsuMerge] {
            assert!(
                matches!(kind.reconcile(&live, &txn), Reconcile::Conflict { .. }),
                "{kind:?}"
            );
        }
    }

    #[test]
    fn merge_engines_commit_on_disjoint_updates() {
        let mut live = Tree::new();
        live.write(DomId::DOM0, &p("/a"), b"1", &mut TreeDiff::default())
            .unwrap();
        live.mkdir(DomId::DOM0, &p("/b"), &mut TreeDiff::default())
            .unwrap();
        live.mkdir(DomId::DOM0, &p("/c"), &mut TreeDiff::default())
            .unwrap();
        let mut txn = Transaction::begin(DomId::DOM0, &live);
        write(&mut txn, "/b/x", &[1]);
        // Unrelated concurrent commit.
        live.write(DomId::DOM0, &p("/c/y"), b"2", &mut TreeDiff::default())
            .unwrap();
        assert_eq!(EngineKind::Merge.reconcile(&live, &txn), Reconcile::Commit);
        assert_eq!(
            EngineKind::JitsuMerge.reconcile(&live, &txn),
            Reconcile::Commit
        );
        // The serial engine still aborts.
        assert!(matches!(
            EngineKind::Serial.reconcile(&live, &txn),
            Reconcile::Conflict { .. }
        ));
    }

    #[test]
    fn labels() {
        assert!(EngineKind::Serial.label().contains("C Xenstored"));
        assert!(EngineKind::Merge.label().contains("OCaml"));
        assert!(EngineKind::JitsuMerge.label().contains("Jitsu"));
    }
}
