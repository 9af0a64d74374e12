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
//! Each engine also exposes a calibrated [`CostModel`] describing how long
//! its operations take on the ARM evaluation board (the C daemon's
//! filesystem-backed transactions are notably slower per operation); the
//! Figure 3 harness combines conflict behaviour with these costs.

use crate::transaction::Transaction;
use crate::tree::Tree;
use jitsu_sim::SimDuration;

/// Calibrated per-operation costs for a XenStore implementation, used by
/// the Figure 3 harness. These model the relative cost of the C daemon's
/// filesystem-backed transactions versus the in-memory OCaml store, on
/// the Cubieboard2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostModel {
    /// Cost of a single read/write/mkdir/rm request.
    pub op: SimDuration,
    /// Fixed cost of opening a transaction.
    pub txn_begin: SimDuration,
    /// Fixed cost of committing (successfully or not).
    pub txn_commit: SimDuration,
    /// Additional penalty paid when a commit fails and the whole batch
    /// of toolstack RPCs must be retried.
    pub conflict_penalty: SimDuration,
}

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

    /// Calibrated per-operation costs on the ARM evaluation board.
    ///
    /// The C daemon stores transaction state on the (SD-card backed)
    /// filesystem, so both individual operations and commits are markedly
    /// more expensive than the in-memory OCaml implementations.
    pub fn cost_model(self) -> CostModel {
        use SimDuration as D;
        match self {
            EngineKind::Serial => CostModel {
                op: D::from_micros(250),
                txn_begin: D::from_micros(800),
                txn_commit: D::from_micros(1500),
                conflict_penalty: D::from_millis(6),
            },
            EngineKind::Merge => CostModel {
                op: D::from_micros(60),
                txn_begin: D::from_micros(120),
                txn_commit: D::from_micros(300),
                conflict_penalty: D::from_millis(4),
            },
            EngineKind::JitsuMerge => CostModel {
                op: D::from_micros(60),
                txn_begin: D::from_micros(120),
                txn_commit: D::from_micros(320),
                conflict_penalty: D::from_millis(4),
            },
        }
    }

    /// Build the engine implementation.
    pub fn build(self) -> Box<dyn TxnEngine> {
        match self {
            EngineKind::Serial => Box::new(SerialEngine),
            EngineKind::Merge => Box::new(MergeEngine),
            EngineKind::JitsuMerge => Box::new(JitsuMergeEngine),
        }
    }
}

/// The outcome of a conflict check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reconcile {
    /// The transaction may commit (replay its write log).
    Commit,
    /// The transaction conflicts and must be retried (`EAGAIN`).
    Conflict {
        /// Human-readable reason, for diagnostics and tests.
        reason: String,
    },
}

/// A transaction reconciliation policy.
pub trait TxnEngine: Send + Sync {
    /// The engine's kind.
    fn kind(&self) -> EngineKind;

    /// Decide whether `txn` may commit against the current `live` tree.
    fn reconcile(&self, live: &Tree, txn: &Transaction) -> Reconcile;
}

/// C `xenstored` behaviour: any interleaved commit conflicts.
#[derive(Debug, Clone, Copy, Default)]
pub struct SerialEngine;

impl TxnEngine for SerialEngine {
    fn kind(&self) -> EngineKind {
        EngineKind::Serial
    }

    fn reconcile(&self, live: &Tree, txn: &Transaction) -> Reconcile {
        if live.generation() != txn.start_gen {
            Reconcile::Conflict {
                reason: format!(
                    "store advanced from generation {} to {} during the transaction",
                    txn.start_gen,
                    live.generation()
                ),
            }
        } else {
            Reconcile::Commit
        }
    }
}

/// Shared logic for the two merge engines: a three-way comparison between
/// the transaction's pristine `base` tree, its read/write sets, and the
/// current `live` tree, at node granularity. A path conflicts only when the
/// node the transaction depended on actually changed underneath it.
fn merge_conflicts(live: &Tree, txn: &Transaction, ignore_directory_deps: bool) -> Option<String> {
    // Read-set dependencies.
    for (path, kind) in &txn.read_set {
        // Dependencies on nodes the transaction itself created are not
        // dependencies on shared state (the write-set check below still
        // catches a concurrent create of the same path).
        if txn.created_by_txn(path) {
            continue;
        }
        match (txn.base.get(path), live.get(path)) {
            // Observed missing and still missing: the dependency holds.
            (None, None) => {}
            // Observed missing, created concurrently: a read of a
            // nonexistent node conflicts with a concurrent create of that
            // path, whatever kind of read it was.
            (None, Some(_)) => {
                return Some(format!("{path} was created concurrently"));
            }
            (Some(_), None) => {
                // The node we depended on has been removed concurrently —
                // unless the transaction removed it too, in which case the
                // two sides already agree.
                if txn.snapshot.exists(path) {
                    return Some(format!("{path} was removed concurrently"));
                }
            }
            (Some(base), Some(node)) => {
                if kind.depends_on_value() && node.modified_gen != base.modified_gen {
                    return Some(format!("{path} was modified concurrently"));
                }
                if kind.depends_on_children()
                    && !ignore_directory_deps
                    && node.children_gen != base.children_gen
                {
                    return Some(format!("children of {path} changed concurrently"));
                }
            }
        }
    }
    // Write-write conflicts on exact paths.
    for path in txn.written_paths() {
        match (txn.base.get(path), live.get(path)) {
            (None, Some(_)) => {
                return Some(format!("{path} was created concurrently"));
            }
            (Some(base), Some(node)) => {
                if node.modified_gen != base.modified_gen {
                    return Some(format!("{path} was written concurrently"));
                }
            }
            // A concurrently removed write target does not conflict: the
            // merge recreates (or re-removes) it.
            (_, None) => {}
        }
    }
    None
}

/// OCaml `oxenstored` behaviour: conflict only on overlapping read/write
/// sets, including directory-listing dependencies.
#[derive(Debug, Clone, Copy, Default)]
pub struct MergeEngine;

impl TxnEngine for MergeEngine {
    fn kind(&self) -> EngineKind {
        EngineKind::Merge
    }

    fn reconcile(&self, live: &Tree, txn: &Transaction) -> Reconcile {
        match merge_conflicts(live, txn, false) {
            Some(reason) => Reconcile::Conflict { reason },
            None => Reconcile::Commit,
        }
    }
}

/// Jitsu's merge: sibling creations under a common directory root do not
/// conflict; only genuine value/write overlaps do.
#[derive(Debug, Clone, Copy, Default)]
pub struct JitsuMergeEngine;

impl TxnEngine for JitsuMergeEngine {
    fn kind(&self) -> EngineKind {
        EngineKind::JitsuMerge
    }

    fn reconcile(&self, live: &Tree, txn: &Transaction) -> Reconcile {
        match merge_conflicts(live, txn, true) {
            Some(reason) => Reconcile::Conflict { reason },
            None => Reconcile::Commit,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path::Path;
    use crate::perms::DomId;
    use crate::transaction::TxnOp;
    use crate::tree::TreeDiff;

    fn p(s: &str) -> Path {
        Path::parse(s).unwrap()
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

        let mut txn = Transaction::begin(1, DomId::DOM0, &live);
        txn.apply(TxnOp::Write {
            path: p("/local/domain/5/name"),
            value: b"unikernel-5".to_vec(),
        })
        .unwrap();
        txn.apply(TxnOp::Write {
            path: p("/local/domain/5/device/vif/0/state"),
            value: b"1".to_vec(),
        })
        .unwrap();

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
        let engine = SerialEngine;
        assert!(matches!(
            engine.reconcile(&live, &txn),
            Reconcile::Conflict { .. }
        ));
        assert_eq!(engine.kind(), EngineKind::Serial);
    }

    #[test]
    fn serial_engine_commits_when_no_interleaving() {
        let live = Tree::new();
        let mut txn = Transaction::begin(1, DomId::DOM0, &live);
        txn.apply(TxnOp::Write {
            path: p("/a"),
            value: vec![1],
        })
        .unwrap();
        assert_eq!(SerialEngine.reconcile(&live, &txn), Reconcile::Commit);
    }

    #[test]
    fn merge_engine_conflicts_on_shared_parent_directory() {
        // Both transactions create children of /local/domain: the OCaml merge
        // sees the directory dependency and aborts the later one.
        let (live, txn) = parallel_domain_build();
        assert!(matches!(
            MergeEngine.reconcile(&live, &txn),
            Reconcile::Conflict { .. }
        ));
    }

    #[test]
    fn jitsu_engine_allows_sibling_domain_creation() {
        // The Jitsu merge recognises the created subtrees are disjoint.
        let (live, txn) = parallel_domain_build();
        assert_eq!(JitsuMergeEngine.reconcile(&live, &txn), Reconcile::Commit);
        assert_eq!(JitsuMergeEngine.kind(), EngineKind::JitsuMerge);
    }

    #[test]
    fn all_engines_conflict_on_same_path_write() {
        let mut live = Tree::new();
        live.write(DomId::DOM0, &p("/state"), b"a", &mut TreeDiff::default())
            .unwrap();
        let mut txn = Transaction::begin(1, DomId::DOM0, &live);
        txn.apply(TxnOp::Write {
            path: p("/state"),
            value: b"from-txn".to_vec(),
        })
        .unwrap();
        // Concurrent write to the same node.
        live.write(
            DomId::DOM0,
            &p("/state"),
            b"concurrent",
            &mut TreeDiff::default(),
        )
        .unwrap();
        for kind in EngineKind::ALL {
            let engine = kind.build();
            assert!(
                matches!(engine.reconcile(&live, &txn), Reconcile::Conflict { .. }),
                "{kind:?} must detect a write-write conflict"
            );
        }
    }

    #[test]
    fn merge_engines_conflict_when_read_value_changes() {
        let mut live = Tree::new();
        live.write(DomId::DOM0, &p("/config"), b"v1", &mut TreeDiff::default())
            .unwrap();
        let mut txn = Transaction::begin(1, DomId::DOM0, &live);
        txn.note_read(&p("/config"));
        txn.apply(TxnOp::Write {
            path: p("/derived"),
            value: b"from-v1".to_vec(),
        })
        .unwrap();
        live.write(DomId::DOM0, &p("/config"), b"v2", &mut TreeDiff::default())
            .unwrap();
        assert!(matches!(
            MergeEngine.reconcile(&live, &txn),
            Reconcile::Conflict { .. }
        ));
        assert!(matches!(
            JitsuMergeEngine.reconcile(&live, &txn),
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
        let mut txn = Transaction::begin(1, DomId::DOM0, &live);
        txn.note_read(&p("/conduit/http_server"));
        assert!(txn
            .snapshot
            .read(DomId::DOM0, &p("/conduit/http_server"))
            .is_err());
        txn.apply(TxnOp::Write {
            path: p("/decision"),
            value: b"claim".to_vec(),
        })
        .unwrap();
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
                matches!(
                    kind.build().reconcile(&live, &txn),
                    Reconcile::Conflict { .. }
                ),
                "{kind:?} must conflict on concurrent create of a read-miss path"
            );
        }
    }

    #[test]
    fn read_of_missing_path_commits_when_it_stays_missing() {
        let mut live = Tree::new();
        live.write(DomId::DOM0, &p("/other"), b"1", &mut TreeDiff::default())
            .unwrap();
        let mut txn = Transaction::begin(1, DomId::DOM0, &live);
        txn.note_read(&p("/conduit/http_server"));
        txn.apply(TxnOp::Write {
            path: p("/decision"),
            value: b"claim".to_vec(),
        })
        .unwrap();
        // An unrelated concurrent commit advances the store, but the absent
        // path stays absent: the dependency holds and the merge engines
        // commit.
        live.write(DomId::DOM0, &p("/other"), b"2", &mut TreeDiff::default())
            .unwrap();
        assert_eq!(MergeEngine.reconcile(&live, &txn), Reconcile::Commit);
        assert_eq!(JitsuMergeEngine.reconcile(&live, &txn), Reconcile::Commit);
    }

    #[test]
    fn directory_listing_of_missing_path_conflicts_with_concurrent_create() {
        // Even the Jitsu engine, which ignores child-list changes on
        // *existing* directories, must honour an existence dependency: a
        // directory listing that failed with ENOENT conflicts with the
        // directory being created concurrently.
        let mut live = Tree::new();
        let mut txn = Transaction::begin(1, DomId::DOM0, &live);
        txn.note_dir_read(&p("/conduit/flows"));
        txn.apply(TxnOp::Write {
            path: p("/decision"),
            value: vec![1],
        })
        .unwrap();
        live.mkdir(DomId::DOM0, &p("/conduit/flows"), &mut TreeDiff::default())
            .unwrap();
        assert!(matches!(
            JitsuMergeEngine.reconcile(&live, &txn),
            Reconcile::Conflict { .. }
        ));
    }

    #[test]
    fn merge_engines_conflict_when_read_node_removed() {
        let mut live = Tree::new();
        live.write(DomId::DOM0, &p("/config"), b"v1", &mut TreeDiff::default())
            .unwrap();
        let mut txn = Transaction::begin(1, DomId::DOM0, &live);
        txn.note_read(&p("/config"));
        txn.apply(TxnOp::Write {
            path: p("/derived"),
            value: vec![1],
        })
        .unwrap();
        live.rm(DomId::DOM0, &p("/config"), &mut TreeDiff::default())
            .unwrap();
        for kind in [EngineKind::Merge, EngineKind::JitsuMerge] {
            assert!(
                matches!(
                    kind.build().reconcile(&live, &txn),
                    Reconcile::Conflict { .. }
                ),
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
        let mut txn = Transaction::begin(1, DomId::DOM0, &live);
        txn.apply(TxnOp::Write {
            path: p("/b/x"),
            value: vec![1],
        })
        .unwrap();
        // Unrelated concurrent commit.
        live.write(DomId::DOM0, &p("/c/y"), b"2", &mut TreeDiff::default())
            .unwrap();
        assert_eq!(MergeEngine.reconcile(&live, &txn), Reconcile::Commit);
        assert_eq!(JitsuMergeEngine.reconcile(&live, &txn), Reconcile::Commit);
        // The serial engine still aborts.
        assert!(matches!(
            SerialEngine.reconcile(&live, &txn),
            Reconcile::Conflict { .. }
        ));
    }

    #[test]
    fn labels_and_cost_models() {
        assert!(EngineKind::Serial.label().contains("C Xenstored"));
        assert!(EngineKind::Merge.label().contains("OCaml"));
        assert!(EngineKind::JitsuMerge.label().contains("Jitsu"));
        let c = EngineKind::Serial.cost_model();
        let j = EngineKind::JitsuMerge.cost_model();
        assert!(c.op > j.op, "filesystem-backed C daemon is slower per op");
        assert!(c.txn_commit > j.txn_commit);
    }

    #[test]
    fn engine_kind_build_round_trips() {
        for kind in EngineKind::ALL {
            assert_eq!(kind.build().kind(), kind);
        }
    }
}
