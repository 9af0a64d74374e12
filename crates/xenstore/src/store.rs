//! The top-level store: tree + watches + quotas + transactions.
//!
//! `XenStore` is the object the rest of the reproduction talks to. It accepts
//! requests on behalf of a domain (`DomId`), optionally inside a transaction
//! (`TxId`), enforces permissions and quotas, fires watches on mutation, and
//! delegates commit-time conflict decisions to the configured reconciliation
//! engine.
//!
//! Watches and per-domain quota counts are driven by *what a mutation
//! changed*, never by re-walking the store. A direct op gets that from the
//! tree mutator itself, which reports its own effects as it makes them
//! ([`crate::tree`]): the store takes no snapshot and computes no diff, so
//! with no transaction open the live tree is unshared and the op mutates it
//! in place — zero nodes copied. While a transaction is open its snapshot
//! shares the live root, and a direct op path-copies the depth + 1 nodes
//! from the root to its target, leaving the snapshot untouched. A commit
//! works out the transaction's net effect (`base → snapshot`) along the
//! paths its operations named, which is also what the commit changed when
//! the store has not moved since the transaction began; otherwise the
//! three-way merge reports what it changed in the live tree as it grafts —
//! so watches fire from the *committed merged tree* (one event per path
//! that actually changed, not one per operation). On a store that has not
//! moved the merge result is the transaction's own snapshot over again, and
//! the snapshot is committed as it stands unless its operations undid or
//! restamped something, which a merge of the net effect would not show.
//!
//! The two watch models are deliberately asymmetric. *Direct* ops keep the
//! classic protocol semantics: the op's own path always fires (even for a
//! same-value touch), plus any other paths the op structurally changed
//! (implicitly created ancestors, removed descendants). *Transactional*
//! commits fire exactly the net diff of the merged result — a batch that
//! rewrites a key to its old value or creates-then-removes a scratch node
//! notifies nobody, because from any observer's point of view nothing
//! happened atomically. Use a direct write for touch-to-notify.

use crate::engine::{EngineKind, Reconcile};
use crate::error::{Error, Result};
use crate::node::Node;
use crate::path::{Path, StorePath};
use crate::perms::{Access, DomId, Permissions};
use crate::quota::Quota;
use crate::transaction::{Seen, Transaction};
use crate::tree::{permitted, Tree, TreeDiff};
use crate::watch::{WatchEvent, WatchManager};
use std::collections::BTreeMap;

/// A transaction identifier handed out by [`XenStore::transaction_start`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TxId(pub u32);

/// Counters describing the store's activity, used by Figure 3 and by tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Successful commits.
    pub commits: u64,
    /// Commits that landed on a store that had advanced concurrently since
    /// the transaction began — i.e. commits that would have aborted under
    /// the serialising engine but were *merged* instead. A subset of
    /// `commits`.
    pub merged: u64,
    /// Commits rejected with `EAGAIN`.
    pub conflicts: u64,
    /// Transactions aborted by the client.
    pub aborts: u64,
    /// Individual operations processed (reads, writes, directory listings…).
    pub ops: u64,
    /// Watch events fired.
    pub watch_events: u64,
}

impl StoreStats {
    /// Fraction of commit attempts rejected with `EAGAIN`, in `[0, 1]`.
    pub fn abort_rate(&self) -> f64 {
        let attempts = self.commits + self.conflicts;
        if attempts == 0 {
            0.0
        } else {
            self.conflicts as f64 / attempts as f64
        }
    }

    /// Fraction of successful commits that landed via the merge path (their
    /// base had advanced concurrently), in `[0, 1]`.
    pub fn merge_rate(&self) -> f64 {
        if self.commits == 0 {
            0.0
        } else {
            self.merged as f64 / self.commits as f64
        }
    }
}

/// The shared store.
pub struct XenStore {
    tree: Tree,
    watches: WatchManager,
    engine: EngineKind,
    quota: Quota,
    transactions: BTreeMap<u32, Transaction>,
    next_tx_id: u32,
    stats: StoreStats,
    /// Nodes owned per domain, maintained incrementally from the effects
    /// of each mutation so the quota check never walks the tree.
    owned: BTreeMap<u32, usize>,
    /// The record direct ops report their effects into, empty between ops:
    /// kept for its buffers, so that an op does not allocate new ones.
    effects: TreeDiff,
}

impl std::fmt::Debug for XenStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("XenStore")
            .field("engine", &self.engine)
            .field("nodes", &self.tree.node_count())
            .field("open_transactions", &self.transactions.len())
            .field("stats", &self.stats)
            .finish()
    }
}

impl XenStore {
    /// Create a store with the given reconciliation engine and default
    /// quotas.
    pub fn new(engine: EngineKind) -> XenStore {
        XenStore::with_quota(engine, Quota::default())
    }

    /// Create a store with explicit quotas.
    pub fn with_quota(engine: EngineKind, quota: Quota) -> XenStore {
        let tree = Tree::new();
        // Seed the incremental ownership counts with the pre-existing root
        // node; everything else flows in through reported effects.
        #[expect(clippy::expect_used, reason = "Tree::new always creates a root node")]
        let root_owner = tree
            .get(&Path::root())
            .expect("new tree has a root")
            .perms
            .owner();
        XenStore {
            tree,
            watches: WatchManager::new(),
            engine,
            quota,
            transactions: BTreeMap::new(),
            next_tx_id: 1,
            stats: StoreStats::default(),
            owned: BTreeMap::from([(root_owner.0, 1)]),
            effects: TreeDiff::default(),
        }
    }

    /// The engine this store reconciles transactions with.
    pub fn engine_kind(&self) -> EngineKind {
        self.engine
    }

    /// Activity counters.
    pub fn stats(&self) -> StoreStats {
        self.stats
    }

    /// The per-domain quota in force.
    pub fn quota(&self) -> Quota {
        self.quota
    }

    /// Number of nodes currently in the live tree.
    pub fn node_count(&self) -> usize {
        self.tree.node_count()
    }

    /// Direct access to the live tree (read-only), for diagnostics.
    pub fn tree(&self) -> &Tree {
        &self.tree
    }

    /// Open transaction `id`, for an op of `dom` on `path`. An unknown id is
    /// refused, and so is a domain that did not open the transaction, which
    /// must neither act in its snapshot nor plant entries in its read set.
    fn txn_for(&mut self, dom: DomId, id: TxId, path: &Path) -> Result<&mut Transaction> {
        let txn = self
            .transactions
            .get_mut(&id.0)
            .ok_or(Error::UnknownTransaction(id.0))?;
        if txn.dom != dom {
            return Err(Error::PermissionDenied(path.to_string()));
        }
        Ok(txn)
    }

    /// Refuse `dom` a node at `path` it would have to create when it owns
    /// its quota of nodes already. Dom0 has no quota, so for the toolstack
    /// the store is not even searched. A transactional op is checked against
    /// the tree it runs on, the transaction's snapshot, and the domain owns
    /// there what it owns in the live store plus what the transaction has
    /// gained it so far.
    fn check_node_quota(&self, dom: DomId, tx: Option<TxId>, path: &Path) -> Result<()> {
        if dom.is_privileged() {
            return Ok(());
        }
        let (tree, gained) = match tx.map(|id| self.transactions.get(&id.0)) {
            None => (&self.tree, 0),
            Some(Some(txn)) if txn.dom == dom => (&txn.snapshot, txn.node_gain()),
            // The op itself refuses an unknown or a foreign transaction.
            Some(_) => return Ok(()),
        };
        if tree.exists(path) {
            return Ok(());
        }
        if self.owned_nodes(dom).saturating_add_signed(gained) >= self.quota.max_nodes {
            return Err(Error::QuotaExceeded("nodes"));
        }
        Ok(())
    }

    /// Nodes currently owned by `dom`, from the incrementally maintained
    /// count (O(log domains), not O(store size)).
    pub fn owned_nodes(&self, dom: DomId) -> usize {
        self.owned.get(&dom.0).copied().unwrap_or(0)
    }

    /// Enforce the node quota at commit time: per-op checks inside the
    /// transaction ran against the store as it was *then*, so the net
    /// ownership delta of the merged result must be re-checked against the
    /// counts as they are *now* (otherwise N overlapping transactions could
    /// each pass the per-op check and overshoot the limit by N).
    fn check_commit_quota(&self, diff: &TreeDiff) -> Result<()> {
        // Dom0 has no quota, and a commit that touches only its nodes —
        // the toolstack's all do — leaves this map empty and unallocated.
        let mut gained: BTreeMap<u32, isize> = BTreeMap::new();
        diff.owner_changes(|dom, by| {
            if !dom.is_privileged() {
                *gained.entry(dom.0).or_insert(0) += by;
            }
        });
        for (dom, gained) in gained {
            if gained > 0 && self.owned_nodes(DomId(dom)) + gained as usize > self.quota.max_nodes {
                return Err(Error::QuotaExceeded("nodes"));
            }
        }
        Ok(())
    }

    /// Settle the bookkeeping after a mutation of the live tree, given what
    /// it changed: fold ownership changes into the per-domain quota counts
    /// and (when `fire` is set) fire one watch event per path that actually
    /// changed in the committed tree, in path order.
    /// `also_fire` unconditionally fires one extra path, after the others,
    /// even if it did not semantically change — direct ops keep real
    /// xenstored's fire-on-every-write semantics (the touch-a-key-to-notify
    /// pattern), while transactional commits pass `None` and fire the net
    /// diff only.
    ///
    /// Everything is read straight off `diff`, whose lists are sorted: a
    /// direct op's record of no entry or one costs what it holds.
    fn settle(&mut self, diff: &TreeDiff, fire: bool, also_fire: Option<&Path>) {
        let owned = &mut self.owned;
        diff.owner_changes(|dom, by| {
            let count = owned.get(&dom.0).copied().unwrap_or(0);
            // A domain that owns nothing has no entry: domids are never
            // reused, so zero counts would otherwise pile up for ever.
            match count.saturating_add_signed(by) {
                0 => owned.remove(&dom.0),
                count => owned.insert(dom.0, count),
            };
        });
        if fire {
            let mut also_fire = also_fire;
            for (path, removed) in diff.changed() {
                if also_fire == Some(path) {
                    also_fire = None;
                }
                let queued = match removed {
                    Some(subtree) => self.watches.fire_removed(path, subtree),
                    None => self.watches.fire(path),
                };
                self.stats.watch_events += queued as u64;
            }
            if let Some(path) = also_fire {
                self.stats.watch_events += self.watches.fire(path) as u64;
            }
        }
    }

    /// Put back the record taken from `self.effects`, emptied.
    fn recycle(&mut self, mut effects: TreeDiff) {
        effects.clear();
        self.effects = effects;
    }

    // ------------------------------------------------------------------
    // Reads
    // ------------------------------------------------------------------

    /// Read a value.
    pub fn read(&mut self, dom: DomId, tx: Option<TxId>, path: impl StorePath) -> Result<Vec<u8>> {
        self.read_with(dom, tx, path, <[u8]>::to_vec)
    }

    /// The route of every read: what `read` makes of the node at `path`,
    /// checked for `dom`'s read access, in the live tree or in the snapshot
    /// of `tx`, where `note` records the transaction's dependency and what
    /// the read saw there.
    fn read_in<R>(
        &mut self,
        dom: DomId,
        tx: Option<TxId>,
        path: impl StorePath,
        note: fn(&mut Transaction, &Path, Seen),
        read: impl FnOnce(&Node) -> R,
    ) -> Result<R> {
        self.stats.ops += 1;
        let path = path.into_path()?;
        let Some(id) = tx else {
            return permitted(self.tree.get(&path), dom, &path, Access::Read).map(read);
        };
        let txn = self.txn_for(dom, id, &path)?;
        let node = txn.snapshot.get(&path);
        let seen = Seen::of(node, txn.start_gen);
        let result = permitted(node, dom, &path, Access::Read).map(read);
        note(txn, &path, seen);
        result
    }

    /// Read a value and return what `f` makes of it, for a caller that only
    /// compares or parses the value: the value is lent to `f`, not copied.
    pub fn read_with<R>(
        &mut self,
        dom: DomId,
        tx: Option<TxId>,
        path: impl StorePath,
        f: impl FnOnce(&[u8]) -> R,
    ) -> Result<R> {
        self.read_in(dom, tx, path, Transaction::note_read, |node| f(&node.value))
    }

    /// Read a value as a UTF-8 string (lossy).
    pub fn read_string(
        &mut self,
        dom: DomId,
        tx: Option<TxId>,
        path: impl StorePath,
    ) -> Result<String> {
        // Valid UTF-8 becomes the string without a copy; only a value with
        // invalid bytes is copied, with each replaced.
        Ok(String::from_utf8(self.read(dom, tx, path)?)
            .unwrap_or_else(|bytes| String::from_utf8_lossy(bytes.as_bytes()).into_owned()))
    }

    /// True if the path exists (without error on absence).
    pub fn exists(&mut self, dom: DomId, tx: Option<TxId>, path: impl StorePath) -> Result<bool> {
        match self.read_with(dom, tx, path, |_| ()) {
            Ok(()) => Ok(true),
            Err(Error::NoEntry(_)) => Ok(false),
            Err(e) => Err(e),
        }
    }

    /// List a node's children.
    pub fn directory(
        &mut self,
        dom: DomId,
        tx: Option<TxId>,
        path: impl StorePath,
    ) -> Result<Vec<String>> {
        self.read_in(dom, tx, path, Transaction::note_dir_read, Node::child_names)
    }

    /// Read a node's permissions.
    pub fn get_perms(
        &mut self,
        dom: DomId,
        tx: Option<TxId>,
        path: impl StorePath,
    ) -> Result<Permissions> {
        self.read_in(dom, tx, path, Transaction::note_read, |node| {
            node.perms.clone()
        })
    }

    // ------------------------------------------------------------------
    // Writes
    // ------------------------------------------------------------------

    /// The route of every mutation: run `mutate`, an op on `path`, on the
    /// live tree and settle what it changed, or on the snapshot of `tx`.
    /// Either way it reports its effects into the store's one record.
    fn mutate_in(
        &mut self,
        dom: DomId,
        tx: Option<TxId>,
        path: &Path,
        mutate: impl FnOnce(&mut Tree, &mut TreeDiff) -> Result<()>,
    ) -> Result<()> {
        self.stats.ops += 1;
        let mut effects = std::mem::take(&mut self.effects);
        let result = match tx {
            None => {
                let result = mutate(&mut self.tree, &mut effects);
                // The record drives both watch delivery and quota
                // accounting. Watches fire only for completed ops — and
                // always for the op's own path, even when the op was a
                // no-op (same-value write, mkdir of an existing node), as
                // in the real protocol. A failed op changed nothing, so it
                // has nothing to settle either.
                self.settle(&effects, result.is_ok(), Some(path));
                result
            }
            Some(id) => self
                .txn_for(dom, id, path)
                .and_then(|txn| txn.apply(path, &mut effects, mutate)),
        };
        self.recycle(effects);
        result
    }

    /// Write a value (creating the node and missing ancestors if needed).
    /// The value is lent to the tree, the live one or the transaction's
    /// snapshot, which copies it into the node's own buffer, and not at all
    /// if the node holds it already.
    pub fn write(
        &mut self,
        dom: DomId,
        tx: Option<TxId>,
        path: impl StorePath,
        value: &[u8],
    ) -> Result<()> {
        let path = path.into_path()?;
        self.check_node_quota(dom, tx, &path)?;
        self.mutate_in(dom, tx, &path, |tree, effects| {
            tree.write(dom, &path, value, effects)
        })
    }

    /// Create an empty node.
    pub fn mkdir(&mut self, dom: DomId, tx: Option<TxId>, path: impl StorePath) -> Result<()> {
        let path = path.into_path()?;
        self.check_node_quota(dom, tx, &path)?;
        self.mutate_in(dom, tx, &path, |tree, effects| {
            tree.mkdir(dom, &path, effects)
        })
    }

    /// Remove a subtree.
    pub fn rm(&mut self, dom: DomId, tx: Option<TxId>, path: impl StorePath) -> Result<()> {
        let path = path.into_path()?;
        self.mutate_in(dom, tx, &path, |tree, effects| tree.rm(dom, &path, effects))
    }

    /// Replace a node's permissions.
    pub fn set_perms(
        &mut self,
        dom: DomId,
        tx: Option<TxId>,
        path: impl StorePath,
        perms: Permissions,
    ) -> Result<()> {
        let path = path.into_path()?;
        self.mutate_in(dom, tx, &path, |tree, effects| {
            tree.set_perms(dom, &path, perms, effects)
        })
    }

    // ------------------------------------------------------------------
    // Watches
    // ------------------------------------------------------------------

    /// Register a watch on a subtree.
    pub fn watch(&mut self, dom: DomId, path: impl StorePath, token: &str) -> Result<()> {
        if !dom.is_privileged() && self.watches.count_for(dom) >= self.quota.max_watches {
            return Err(Error::QuotaExceeded("watches"));
        }
        let path = path.into_path()?;
        self.watches.watch(dom, path, token)
    }

    /// Remove a previously registered watch.
    pub fn unwatch(&mut self, dom: DomId, path: impl StorePath, token: &str) -> Result<()> {
        let path = path.into_path()?;
        self.watches.unwatch(dom, &path, token)
    }

    /// Drain pending watch events for a domain.
    pub fn take_watch_events(&mut self, dom: DomId) -> Vec<WatchEvent> {
        self.watches.take_events(dom)
    }

    /// Number of watch events queued for a domain.
    pub fn pending_watch_events(&self, dom: DomId) -> usize {
        self.watches.pending(dom)
    }

    // ------------------------------------------------------------------
    // Transactions
    // ------------------------------------------------------------------

    /// Open a transaction.
    pub fn transaction_start(&mut self, dom: DomId) -> Result<TxId> {
        // dom0 is exempt, so its (frequent) transactions skip the count.
        if !dom.is_privileged() {
            let open_for_dom = self.transactions.values().filter(|t| t.dom == dom).count();
            if open_for_dom >= self.quota.max_transactions {
                return Err(Error::QuotaExceeded("transactions"));
            }
        }
        let id = self.next_tx_id;
        self.next_tx_id = self.next_tx_id.wrapping_add(1).max(1);
        self.transactions
            .insert(id, Transaction::begin(dom, &self.tree));
        Ok(TxId(id))
    }

    /// End a transaction. With `commit == false` the transaction is simply
    /// discarded. With `commit == true` the configured engine decides whether
    /// the batch applies; a conflicting commit returns [`Error::Again`] and
    /// the caller is expected to retry the whole transaction.
    pub fn transaction_end(&mut self, dom: DomId, tx: TxId, commit: bool) -> Result<()> {
        let txn = self
            .transactions
            .remove(&tx.0)
            .ok_or(Error::UnknownTransaction(tx.0))?;
        if txn.dom != dom {
            // Put it back: a foreign domain must not be able to close it.
            self.transactions.insert(tx.0, txn);
            return Err(Error::PermissionDenied(format!("transaction {}", tx.0)));
        }
        if !commit {
            self.stats.aborts += 1;
            return Ok(());
        }
        if txn.is_read_only() {
            self.stats.commits += 1;
            return Ok(());
        }
        if let Reconcile::Conflict { .. } = self.engine.reconcile(&self.tree, &txn) {
            self.stats.conflicts += 1;
            return Err(Error::Again);
        }
        // The transaction's net effect, `base → snapshot`: what the commit
        // changes when the store has not moved since the transaction began,
        // and what is grafted on when it has.
        let changes = txn.changes();
        let unmoved = self.tree.generation() == txn.start_gen;
        if unmoved && txn.snapshot_is_merge_of(&changes) {
            // Nothing ran beside the transaction and it left no stamp a
            // merge would not: its snapshot *is* the serial result, and is
            // adopted as it stands instead of being built a second time,
            // node by node, on the live tree.
            self.install(txn.snapshot, &changes)?;
        } else {
            // Three-way merge onto an O(1) scratch copy of the live tree: a
            // merge that fails part-way (e.g. a concurrent permission
            // revocation on a parent) never mutates live state, preserving
            // commit atomicity. The merge reports what it changed into the
            // store's one record.
            let mut merged = self.tree.clone();
            let mut diff = std::mem::take(&mut self.effects);
            let installed = txn
                .merge_onto(&mut merged, &changes, &mut diff)
                .and_then(|()| self.install(merged, &diff));
            self.recycle(diff);
            installed?;
        }
        self.stats.commits += 1;
        if !unmoved {
            // The base moved underneath the transaction and we committed
            // anyway — a merge, not a serial replay.
            self.stats.merged += 1;
        }
        Ok(())
    }

    /// Make `committed` the live tree, given `diff`, what it changes there:
    /// one record serves both the commit-time quota check and the
    /// post-swap bookkeeping. Watches fire from the committed tree: one
    /// event per path that actually changed, in deterministic order.
    fn install(&mut self, committed: Tree, diff: &TreeDiff) -> Result<()> {
        self.check_commit_quota(diff)?;
        self.tree = committed;
        self.settle(diff, true, None);
        Ok(())
    }

    /// Number of transactions currently open.
    pub fn open_transactions(&self) -> usize {
        self.transactions.len()
    }

    /// Convenience: run `body` inside a transaction, retrying on `EAGAIN`
    /// up to `max_retries` times. Returns the number of attempts made.
    pub fn with_transaction<F>(&mut self, dom: DomId, max_retries: u32, mut body: F) -> Result<u32>
    where
        F: FnMut(&mut XenStore, TxId) -> Result<()>,
    {
        let mut attempts = 0;
        loop {
            attempts += 1;
            let tx = self.transaction_start(dom)?;
            if let Err(e) = body(self, tx) {
                // A body that ended the transaction itself left nothing to
                // abort, and its own error is the one to report. Any other
                // abort failure is a store fault and outranks it.
                return match self.transaction_end(dom, tx, false) {
                    Ok(()) | Err(Error::UnknownTransaction(_)) => Err(e),
                    Err(abort) => Err(abort),
                };
            }
            match self.transaction_end(dom, tx, true) {
                Ok(()) => return Ok(attempts),
                Err(Error::Again) if attempts <= max_retries => continue,
                Err(e) => return Err(e),
            }
        }
    }

    /// Remove everything a domain owns and its watches — called when a
    /// domain is destroyed.
    pub fn domain_destroyed(&mut self, dom: DomId) {
        self.watches.remove_domain(dom);
        self.transactions.retain(|_, t| t.dom != dom);
        // Remove the conventional per-domain directory if present.
        let mut effects = std::mem::take(&mut self.effects);
        #[expect(
            clippy::let_underscore_must_use,
            reason = "the only failure is a home directory that is already gone, which needs no cleanup"
        )]
        let _ = self
            .tree
            .rm(DomId::DOM0, &Path::domain_home(dom.0), &mut effects);
        self.settle(&effects, true, None);
        self.recycle(effects);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perms::PermLevel;

    fn store() -> XenStore {
        XenStore::new(EngineKind::JitsuMerge)
    }

    #[test]
    fn stats_rates_are_well_formed() {
        let empty = StoreStats::default();
        assert_eq!(empty.abort_rate(), 0.0);
        assert_eq!(empty.merge_rate(), 0.0);
        let stats = StoreStats {
            commits: 8,
            merged: 6,
            conflicts: 2,
            ..StoreStats::default()
        };
        assert!((stats.abort_rate() - 0.2).abs() < 1e-12);
        assert!((stats.merge_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn basic_read_write() {
        let mut xs = store();
        xs.write(DomId::DOM0, None, "/local/domain/3/name", b"http")
            .unwrap();
        assert_eq!(
            xs.read(DomId::DOM0, None, "/local/domain/3/name").unwrap(),
            b"http"
        );
        assert_eq!(
            xs.read_string(DomId::DOM0, None, "/local/domain/3/name")
                .unwrap(),
            "http"
        );
        assert!(xs
            .exists(DomId::DOM0, None, "/local/domain/3/name")
            .unwrap());
        assert!(!xs.exists(DomId::DOM0, None, "/local/domain/9").unwrap());
        assert_eq!(
            xs.directory(DomId::DOM0, None, "/local/domain").unwrap(),
            vec!["3"]
        );
        assert!(xs.stats().ops >= 5);
    }

    #[test]
    fn invalid_paths_are_rejected() {
        let mut xs = store();
        assert!(matches!(
            xs.write(DomId::DOM0, None, "not-absolute", b"x"),
            Err(Error::Invalid(_))
        ));
        assert!(matches!(
            xs.read(DomId::DOM0, None, "/bad path"),
            Err(Error::Invalid(_))
        ));
    }

    #[test]
    fn transaction_commit_applies_batch_atomically() {
        let mut xs = store();
        let t = xs.transaction_start(DomId::DOM0).unwrap();
        xs.write(DomId::DOM0, Some(t), "/conduit/http_server", b"3")
            .unwrap();
        xs.write(DomId::DOM0, Some(t), "/conduit/flows/1", b"(connecting)")
            .unwrap();
        // Not visible outside the transaction yet.
        assert!(!xs
            .exists(DomId::DOM0, None, "/conduit/http_server")
            .unwrap());
        // Visible inside.
        assert!(xs
            .exists(DomId::DOM0, Some(t), "/conduit/http_server")
            .unwrap());
        xs.transaction_end(DomId::DOM0, t, true).unwrap();
        assert!(xs
            .exists(DomId::DOM0, None, "/conduit/http_server")
            .unwrap());
        assert_eq!(xs.stats().commits, 1);
        assert_eq!(xs.open_transactions(), 0);
    }

    #[test]
    fn transaction_abort_discards_batch() {
        let mut xs = store();
        let t = xs.transaction_start(DomId::DOM0).unwrap();
        xs.write(DomId::DOM0, Some(t), "/a", b"1").unwrap();
        xs.transaction_end(DomId::DOM0, t, false).unwrap();
        assert!(!xs.exists(DomId::DOM0, None, "/a").unwrap());
        assert_eq!(xs.stats().aborts, 1);
    }

    #[test]
    fn unknown_transaction_is_an_error() {
        let mut xs = store();
        assert!(matches!(
            xs.read(DomId::DOM0, Some(TxId(99)), "/a"),
            Err(Error::UnknownTransaction(99))
        ));
        assert!(matches!(
            xs.transaction_end(DomId::DOM0, TxId(99), true),
            Err(Error::UnknownTransaction(99))
        ));
    }

    #[test]
    fn foreign_domain_cannot_use_anothers_transaction() {
        let mut xs = store();
        let t = xs.transaction_start(DomId(3)).unwrap();
        assert!(matches!(
            xs.write(DomId(7), Some(t), "/x", b"1"),
            Err(Error::PermissionDenied(_))
        ));
        // Nor may it read through the snapshot — which would also plant
        // entries in the owner's read set and force spurious EAGAINs.
        assert!(matches!(
            xs.read(DomId(7), Some(t), "/x"),
            Err(Error::PermissionDenied(_))
        ));
        assert!(matches!(
            xs.directory(DomId(7), Some(t), "/"),
            Err(Error::PermissionDenied(_))
        ));
        assert!(matches!(
            xs.get_perms(DomId(7), Some(t), "/"),
            Err(Error::PermissionDenied(_))
        ));
        assert!(xs.transactions[&t.0].read_set.is_empty());
        assert!(matches!(
            xs.transaction_end(DomId(7), t, true),
            Err(Error::PermissionDenied(_))
        ));
        // The rightful owner can still close it.
        assert!(xs.transaction_end(DomId(3), t, false).is_ok());
    }

    #[test]
    fn direct_writes_copy_nodes_only_while_a_transaction_shares_them() {
        let mut xs = store();
        let text = "/local/domain/3/device/vif/0/state";
        let path = Path::parse(text).unwrap();
        xs.write(DomId::DOM0, None, text, b"1").unwrap();
        let copied = |before: &[*const crate::Node], xs: &XenStore| {
            let after = xs.tree().spine(&path);
            assert_eq!(after.len(), path.depth() + 1);
            before.iter().zip(&after).filter(|(a, b)| a != b).count()
        };

        // Nobody else holds the tree: the write lands in place.
        let before = xs.tree().spine(&path);
        xs.write(DomId::DOM0, None, text, b"2").unwrap();
        assert_eq!(copied(&before, &xs), 0);
        // So does one that creates a node.
        xs.write(DomId::DOM0, None, "/local/domain/3/device/vif/0/mac", b"m")
            .unwrap();
        assert_eq!(copied(&before, &xs), 0);

        // An open transaction shares the root: the same write copies the
        // root-to-leaf path and nothing else, and the snapshot keeps the
        // old nodes with the old value.
        let t = xs.transaction_start(DomId::DOM0).unwrap();
        xs.write(DomId::DOM0, None, text, b"3").unwrap();
        assert_eq!(copied(&before, &xs), path.depth() + 1);
        assert_eq!(xs.transactions[&t.0].snapshot.spine(&path), before);
        assert_eq!(xs.read(DomId::DOM0, Some(t), text).unwrap(), b"2");
        // The copies are the live tree's own now: the next write is in
        // place again although the transaction is still open.
        let before = xs.tree().spine(&path);
        xs.write(DomId::DOM0, None, text, b"4").unwrap();
        assert_eq!(copied(&before, &xs), 0);
        xs.transaction_end(DomId::DOM0, t, false).unwrap();
    }

    #[test]
    fn conflicting_commit_returns_eagain() {
        let mut xs = XenStore::new(EngineKind::Serial);
        let t = xs.transaction_start(DomId::DOM0).unwrap();
        xs.write(DomId::DOM0, Some(t), "/a", b"in-txn").unwrap();
        // A concurrent direct write advances the store.
        xs.write(DomId::DOM0, None, "/other", b"x").unwrap();
        assert_eq!(xs.transaction_end(DomId::DOM0, t, true), Err(Error::Again));
        assert_eq!(xs.stats().conflicts, 1);
        // The live tree did not take the transaction's write.
        assert!(!xs.exists(DomId::DOM0, None, "/a").unwrap());
    }

    #[test]
    fn jitsu_engine_allows_parallel_domain_creation_through_store() {
        let mut xs = store();
        // Two "toolstack threads" each build a domain in a transaction.
        let t1 = xs.transaction_start(DomId::DOM0).unwrap();
        let t2 = xs.transaction_start(DomId::DOM0).unwrap();
        xs.write(DomId::DOM0, Some(t1), "/local/domain/5/name", b"u5")
            .unwrap();
        xs.write(DomId::DOM0, Some(t2), "/local/domain/6/name", b"u6")
            .unwrap();
        xs.transaction_end(DomId::DOM0, t1, true).unwrap();
        // With the Jitsu merge the second commit also succeeds.
        xs.transaction_end(DomId::DOM0, t2, true).unwrap();
        assert!(xs
            .exists(DomId::DOM0, None, "/local/domain/5/name")
            .unwrap());
        assert!(xs
            .exists(DomId::DOM0, None, "/local/domain/6/name")
            .unwrap());
        assert_eq!(xs.stats().conflicts, 0);
    }

    #[test]
    fn merge_engine_conflicts_on_parallel_domain_creation() {
        let mut xs = XenStore::new(EngineKind::Merge);
        let t1 = xs.transaction_start(DomId::DOM0).unwrap();
        let t2 = xs.transaction_start(DomId::DOM0).unwrap();
        xs.write(DomId::DOM0, Some(t1), "/local/domain/5/name", b"u5")
            .unwrap();
        xs.write(DomId::DOM0, Some(t2), "/local/domain/6/name", b"u6")
            .unwrap();
        xs.transaction_end(DomId::DOM0, t1, true).unwrap();
        assert_eq!(xs.transaction_end(DomId::DOM0, t2, true), Err(Error::Again));
    }

    #[test]
    fn read_only_transactions_always_commit() {
        let mut xs = XenStore::new(EngineKind::Serial);
        xs.write(DomId::DOM0, None, "/a", b"1").unwrap();
        let t = xs.transaction_start(DomId::DOM0).unwrap();
        let _ = xs.read(DomId::DOM0, Some(t), "/a").unwrap();
        // Concurrent write would normally trip the serial engine.
        xs.write(DomId::DOM0, None, "/b", b"2").unwrap();
        assert!(xs.transaction_end(DomId::DOM0, t, true).is_ok());
    }

    #[test]
    fn with_transaction_retries_until_success() {
        let mut xs = XenStore::new(EngineKind::JitsuMerge);
        xs.write(DomId::DOM0, None, "/counter", b"0").unwrap();
        let attempts = xs
            .with_transaction(DomId::DOM0, 5, |xs, t| {
                let v = xs.read_string(DomId::DOM0, Some(t), "/counter")?;
                let n: u64 = v.parse().unwrap_or(0);
                xs.write(
                    DomId::DOM0,
                    Some(t),
                    "/counter",
                    (n + 1).to_string().as_bytes(),
                )
            })
            .unwrap();
        assert_eq!(attempts, 1);
        assert_eq!(xs.read_string(DomId::DOM0, None, "/counter").unwrap(), "1");
    }

    #[test]
    fn watches_fire_on_direct_and_transactional_writes() {
        let mut xs = store();
        xs.mkdir(DomId::DOM0, None, "/conduit/http_server/listen")
            .unwrap();
        xs.watch(DomId(3), "/conduit/http_server/listen", "listen-token")
            .unwrap();
        // Drain the initial synthetic event.
        assert_eq!(xs.take_watch_events(DomId(3)).len(), 1);

        xs.write(DomId::DOM0, None, "/conduit/http_server/listen/conn1", b"7")
            .unwrap();
        let evs = xs.take_watch_events(DomId(3));
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].path.to_string(), "/conduit/http_server/listen/conn1");
        assert_eq!(evs[0].token, "listen-token");

        let t = xs.transaction_start(DomId::DOM0).unwrap();
        xs.write(
            DomId::DOM0,
            Some(t),
            "/conduit/http_server/listen/conn2",
            b"9",
        )
        .unwrap();
        assert_eq!(
            xs.pending_watch_events(DomId(3)),
            0,
            "no events until commit"
        );
        xs.transaction_end(DomId::DOM0, t, true).unwrap();
        assert_eq!(xs.take_watch_events(DomId(3)).len(), 1);
    }

    #[test]
    fn quotas_are_enforced_for_guests() {
        let mut xs = XenStore::with_quota(EngineKind::JitsuMerge, Quota::tiny());
        // Give dom7 a writable home.
        xs.mkdir(DomId::DOM0, None, "/local/domain/7").unwrap();
        xs.set_perms(
            DomId::DOM0,
            None,
            "/local/domain/7",
            Permissions::owned_by(DomId(7)),
        )
        .unwrap();
        // Node quota.
        let mut hit_quota = false;
        for i in 0..20 {
            match xs.write(DomId(7), None, &format!("/local/domain/7/k{i}"), b"v") {
                Ok(()) => {}
                Err(Error::QuotaExceeded("nodes")) => {
                    hit_quota = true;
                    break;
                }
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert!(hit_quota, "node quota must eventually trip");
        // Watch quota.
        xs.watch(DomId(7), "/local/domain/7", "w1").unwrap();
        xs.watch(DomId(7), "/local/domain/7/a", "w2").unwrap();
        assert_eq!(
            xs.watch(DomId(7), "/local/domain/7/b", "w3"),
            Err(Error::QuotaExceeded("watches"))
        );
        // Transaction quota.
        let _t1 = xs.transaction_start(DomId(7)).unwrap();
        assert_eq!(
            xs.transaction_start(DomId(7)).unwrap_err(),
            Error::QuotaExceeded("transactions")
        );
        // dom0 is exempt.
        for _ in 0..5 {
            xs.transaction_start(DomId::DOM0).unwrap();
        }
    }

    #[test]
    fn guest_perms_enforced_through_store() {
        let mut xs = store();
        xs.write(DomId::DOM0, None, "/secret", b"s").unwrap();
        assert!(matches!(
            xs.read(DomId(5), None, "/secret"),
            Err(Error::PermissionDenied(_))
        ));
        xs.set_perms(
            DomId::DOM0,
            None,
            "/secret",
            Permissions::with_default(DomId::DOM0, PermLevel::Read),
        )
        .unwrap();
        assert!(xs.read(DomId(5), None, "/secret").is_ok());
    }

    #[test]
    fn domain_destroyed_cleans_up() {
        let mut xs = store();
        xs.write(DomId::DOM0, None, "/local/domain/9/name", b"gone")
            .unwrap();
        xs.watch(DomId(9), "/local/domain/9", "t").unwrap();
        let _t = xs.transaction_start(DomId(9)).unwrap();
        xs.domain_destroyed(DomId(9));
        assert!(!xs.exists(DomId::DOM0, None, "/local/domain/9").unwrap());
        assert_eq!(xs.open_transactions(), 0);
        assert_eq!(xs.pending_watch_events(DomId(9)), 0);
    }

    /// With no transaction open the live tree must hold every node, chunk
    /// and key alone; a shared one would be copied by every later write
    /// through it.
    fn assert_held_alone(xs: &XenStore) {
        assert_eq!(xs.open_transactions(), 0);
        assert_eq!(xs.tree().shared_paths(), Vec::<Path>::new());
    }

    #[test]
    fn with_no_transaction_open_the_live_tree_shares_nothing() {
        let mut xs = store();
        // Direct ops, under a directory of more than one chunk.
        for i in 0..2 * crate::children::CHUNK_MAX {
            xs.write(DomId::DOM0, None, &format!("/local/domain/{i}/name"), b"v")
                .unwrap();
        }
        xs.rm(DomId::DOM0, None, "/local/domain/7").unwrap();
        xs.mkdir(DomId::DOM0, None, "/vm/3").unwrap();
        xs.set_perms(DomId::DOM0, None, "/vm/3", Permissions::owned_by(DomId(3)))
            .unwrap();
        assert_held_alone(&xs);
        // An open transaction's snapshot shares the root, and the walk
        // names it.
        let t = xs.transaction_start(DomId::DOM0).unwrap();
        assert_eq!(xs.tree().shared_paths(), vec![Path::root()]);
        // A commit nothing ran beside adopts the snapshot as it stands.
        xs.write(DomId::DOM0, Some(t), "/local/domain/3/device/vif/0", b"1")
            .unwrap();
        xs.rm(DomId::DOM0, Some(t), "/local/domain/4").unwrap();
        xs.transaction_end(DomId::DOM0, t, true).unwrap();
        assert_eq!((xs.stats().commits, xs.stats().merged), (1, 0));
        assert_held_alone(&xs);
        // A commit a direct write ran beside is merged onto the live tree.
        let t = xs.transaction_start(DomId::DOM0).unwrap();
        xs.write(DomId::DOM0, Some(t), "/local/domain/5/state", b"4")
            .unwrap();
        xs.write(DomId::DOM0, None, "/local/domain/6/state", b"4")
            .unwrap();
        xs.transaction_end(DomId::DOM0, t, true).unwrap();
        assert_eq!((xs.stats().commits, xs.stats().merged), (2, 1));
        assert_held_alone(&xs);
        // A conflicting commit and an abort leave nothing behind either.
        let t = xs.transaction_start(DomId::DOM0).unwrap();
        assert!(!xs.exists(DomId::DOM0, Some(t), "/claim").unwrap());
        xs.write(DomId::DOM0, Some(t), "/winner", b"me").unwrap();
        xs.write(DomId::DOM0, None, "/claim", b"them").unwrap();
        assert_eq!(xs.transaction_end(DomId::DOM0, t, true), Err(Error::Again));
        let t = xs.transaction_start(DomId::DOM0).unwrap();
        xs.write(DomId::DOM0, Some(t), "/aborted", b"x").unwrap();
        xs.transaction_end(DomId::DOM0, t, false).unwrap();
        assert_held_alone(&xs);
        // Destroying a domain drops its open transaction with its home.
        xs.transaction_start(DomId(9)).unwrap();
        xs.domain_destroyed(DomId(9));
        assert_held_alone(&xs);
        // A wide directory shrunk back to one chunk while a snapshot shared
        // it holds that chunk's copy alone once the snapshot goes.
        let t = xs.transaction_start(DomId::DOM0).unwrap();
        for i in 20..2 * crate::children::CHUNK_MAX {
            drop(xs.rm(DomId::DOM0, None, &format!("/local/domain/{i}")));
        }
        xs.transaction_end(DomId::DOM0, t, false).unwrap();
        assert_held_alone(&xs);
    }

    #[test]
    fn merged_commits_are_counted_separately_from_serial_ones() {
        let mut xs = store();
        // A commit against an unmoved base is not a merge.
        let t = xs.transaction_start(DomId::DOM0).unwrap();
        xs.write(DomId::DOM0, Some(t), "/a", b"1").unwrap();
        xs.transaction_end(DomId::DOM0, t, true).unwrap();
        assert_eq!(xs.stats().commits, 1);
        assert_eq!(xs.stats().merged, 0);
        // A commit after a concurrent write merges.
        let t = xs.transaction_start(DomId::DOM0).unwrap();
        xs.write(DomId::DOM0, Some(t), "/b", b"2").unwrap();
        xs.write(DomId::DOM0, None, "/c", b"3").unwrap();
        xs.transaction_end(DomId::DOM0, t, true).unwrap();
        assert_eq!(xs.stats().commits, 2);
        assert_eq!(xs.stats().merged, 1);
        assert!(xs.exists(DomId::DOM0, None, "/b").unwrap());
        assert!(xs.exists(DomId::DOM0, None, "/c").unwrap());
    }

    #[test]
    fn read_of_missing_path_conflicts_with_concurrent_create_through_store() {
        // Regression for the read-set bugfix, end to end: `read` (and
        // `exists`) on a nonexistent node records the dependency, and a
        // concurrent create of that path aborts the commit.
        let mut xs = store();
        let t = xs.transaction_start(DomId::DOM0).unwrap();
        assert!(!xs.exists(DomId::DOM0, Some(t), "/claim/slot").unwrap());
        xs.write(DomId::DOM0, Some(t), "/winner", b"me").unwrap();
        // Concurrent create of the path the transaction saw missing.
        xs.write(DomId::DOM0, None, "/claim/slot", b"them").unwrap();
        assert_eq!(xs.transaction_end(DomId::DOM0, t, true), Err(Error::Again));
        assert!(!xs.exists(DomId::DOM0, None, "/winner").unwrap());
        // The same shape with the absent path left alone commits fine.
        let t = xs.transaction_start(DomId::DOM0).unwrap();
        assert!(!xs.exists(DomId::DOM0, Some(t), "/claim/other").unwrap());
        xs.write(DomId::DOM0, Some(t), "/winner", b"me").unwrap();
        xs.write(DomId::DOM0, None, "/unrelated", b"x").unwrap();
        xs.transaction_end(DomId::DOM0, t, true).unwrap();
        assert_eq!(xs.read(DomId::DOM0, None, "/winner").unwrap(), b"me");
    }

    #[test]
    fn incremental_owned_counts_match_the_reference_walk() {
        let mut xs = XenStore::with_quota(EngineKind::JitsuMerge, Quota::default());
        xs.mkdir(DomId::DOM0, None, "/local/domain/7").unwrap();
        xs.set_perms(
            DomId::DOM0,
            None,
            "/local/domain/7",
            Permissions::owned_by(DomId(7)),
        )
        .unwrap();
        for i in 0..6 {
            xs.write(DomId(7), None, &format!("/local/domain/7/deep/k{i}"), b"v")
                .unwrap();
        }
        xs.rm(DomId(7), None, "/local/domain/7/deep/k0").unwrap();
        // Also through a transaction (counts settle at commit).
        let t = xs.transaction_start(DomId(7)).unwrap();
        xs.write(DomId(7), Some(t), "/local/domain/7/txn", b"v")
            .unwrap();
        xs.transaction_end(DomId(7), t, true).unwrap();
        for dom in [DomId::DOM0, DomId(7)] {
            assert_eq!(
                xs.owned_nodes(dom),
                xs.tree().owned_count(dom),
                "cached count for {dom:?} must match the O(n) reference walk"
            );
        }
        // Subtree removal settles every removed descendant.
        xs.rm(DomId::DOM0, None, "/local/domain/7").unwrap();
        assert_eq!(xs.owned_nodes(DomId(7)), 0);
        assert_eq!(xs.tree().owned_count(DomId(7)), 0);
        assert!(
            !xs.owned.contains_key(&7),
            "a domain that owns nothing keeps no entry"
        );
    }

    #[test]
    fn failed_merges_leave_the_live_tree_untouched() {
        // A guest transaction removes one of its nodes and creates another
        // under a directory whose write access dom0 revokes concurrently.
        // The revocation bumps only the parent's modified_gen, so neither
        // merge engine conflicts — the merge itself fails with
        // PermissionDenied, and the earlier removal must not leak into the
        // live tree (the commit swaps in the merged copy only on success).
        let mut xs = store();
        xs.mkdir(DomId::DOM0, None, "/shared").unwrap();
        xs.set_perms(
            DomId::DOM0,
            None,
            "/shared",
            Permissions::with_default(DomId::DOM0, PermLevel::Write),
        )
        .unwrap();
        xs.mkdir(DomId::DOM0, None, "/local/domain/7").unwrap();
        xs.set_perms(
            DomId::DOM0,
            None,
            "/local/domain/7",
            Permissions::owned_by(DomId(7)),
        )
        .unwrap();
        xs.write(DomId(7), None, "/local/domain/7/old", b"x")
            .unwrap();

        let t = xs.transaction_start(DomId(7)).unwrap();
        xs.rm(DomId(7), Some(t), "/local/domain/7/old").unwrap();
        xs.write(DomId(7), Some(t), "/shared/claim", b"7").unwrap();
        // Concurrently dom0 revokes the world-writable bit on /shared.
        xs.set_perms(
            DomId::DOM0,
            None,
            "/shared",
            Permissions::owned_by(DomId::DOM0),
        )
        .unwrap();
        let err = xs.transaction_end(DomId(7), t, true).unwrap_err();
        assert!(matches!(err, Error::PermissionDenied(_)), "{err:?}");
        // Nothing from the failed merge reached the live tree.
        assert!(xs.exists(DomId::DOM0, None, "/local/domain/7/old").unwrap());
        assert!(!xs.exists(DomId::DOM0, None, "/shared/claim").unwrap());
        assert_eq!(xs.stats().commits, 0);
    }

    #[test]
    fn recreated_nodes_keep_their_snapshot_permissions() {
        // dom0 overwrites a guest-owned node inside a transaction while the
        // guest concurrently removes it. The merge recreates the node (the
        // remove-then-write serial order) — with the guest's ownership, not
        // dom0-derived creation perms.
        let mut xs = store();
        xs.mkdir(DomId::DOM0, None, "/local/domain/7").unwrap();
        xs.set_perms(
            DomId::DOM0,
            None,
            "/local/domain/7",
            Permissions::owned_by(DomId(7)),
        )
        .unwrap();
        xs.write(DomId(7), None, "/local/domain/7/k", b"v1")
            .unwrap();

        let t = xs.transaction_start(DomId::DOM0).unwrap();
        xs.write(DomId::DOM0, Some(t), "/local/domain/7/k", b"v2")
            .unwrap();
        xs.rm(DomId(7), None, "/local/domain/7/k").unwrap();
        xs.transaction_end(DomId::DOM0, t, true).unwrap();
        let node = xs.tree().get(&Path::parse("/local/domain/7/k").unwrap());
        assert_eq!(
            node.expect("recreated by the merge").perms.owner(),
            DomId(7),
            "the snapshot's ownership must survive recreation"
        );
        // And the incremental quota counts stayed consistent.
        assert_eq!(xs.owned_nodes(DomId(7)), xs.tree().owned_count(DomId(7)));
    }

    #[test]
    fn node_quota_is_enforced_at_commit_against_current_counts() {
        // The per-op check inside the transaction ran when the guest still
        // had headroom; by commit time direct writes have used it up. The
        // commit must not overshoot the quota.
        let mut xs = XenStore::with_quota(EngineKind::JitsuMerge, Quota::tiny());
        xs.mkdir(DomId::DOM0, None, "/local/domain/7").unwrap();
        xs.set_perms(
            DomId::DOM0,
            None,
            "/local/domain/7",
            Permissions::owned_by(DomId(7)),
        )
        .unwrap();
        // Fill to one below the limit (the home dir counts too).
        let max = Quota::tiny().max_nodes;
        for i in 0..max - 2 {
            xs.write(DomId(7), None, &format!("/local/domain/7/k{i}"), b"v")
                .unwrap();
        }
        assert_eq!(xs.owned_nodes(DomId(7)), max - 1);
        // The transactional write passes its per-op check (one slot left)…
        let t = xs.transaction_start(DomId(7)).unwrap();
        xs.write(DomId(7), Some(t), "/local/domain/7/txn", b"v")
            .unwrap();
        // …but a direct write consumes that slot before the commit.
        xs.write(DomId(7), None, "/local/domain/7/direct", b"v")
            .unwrap();
        assert_eq!(
            xs.transaction_end(DomId(7), t, true),
            Err(Error::QuotaExceeded("nodes")),
            "commit must re-check the quota against current counts"
        );
        assert!(!xs.exists(DomId::DOM0, None, "/local/domain/7/txn").unwrap());
        assert_eq!(xs.owned_nodes(DomId(7)), max);
    }

    /// A store with `Quota::tiny()` where dom7 owns its home and `extra`
    /// nodes under it, `/local/domain/7/k0` up.
    fn guest_owning(extra: usize) -> XenStore {
        let mut xs = XenStore::with_quota(EngineKind::JitsuMerge, Quota::tiny());
        xs.mkdir(DomId::DOM0, None, "/local/domain/7").unwrap();
        xs.set_perms(
            DomId::DOM0,
            None,
            "/local/domain/7",
            Permissions::owned_by(DomId(7)),
        )
        .unwrap();
        for i in 0..extra {
            xs.write(DomId(7), None, &format!("/local/domain/7/k{i}"), b"v")
                .unwrap();
        }
        assert_eq!(xs.owned_nodes(DomId(7)), extra + 1);
        xs
    }

    #[test]
    fn a_transactional_write_to_a_node_its_transaction_made_creates_nothing() {
        let max = Quota::tiny().max_nodes;
        let mut xs = guest_owning(0);
        let t = xs.transaction_start(DomId(7)).unwrap();
        xs.write(DomId(7), Some(t), "/local/domain/7/x", b"1")
            .unwrap();
        // Direct writes use up the domain's quota in the live store…
        for i in 0..max - 1 {
            xs.write(DomId(7), None, &format!("/local/domain/7/k{i}"), b"v")
                .unwrap();
        }
        assert_eq!(xs.owned_nodes(DomId(7)), max);
        // …but `x` exists in the snapshot the transaction writes to, so a
        // second write of it creates nothing and passes the per-op check,
        xs.write(DomId(7), Some(t), "/local/domain/7/x", b"2")
            .unwrap();
        // while a node that would be new there is still refused.
        assert_eq!(
            xs.write(DomId(7), Some(t), "/local/domain/7/y", b"1"),
            Err(Error::QuotaExceeded("nodes"))
        );
        // The commit-time check still refuses the transaction's net gain.
        assert_eq!(
            xs.transaction_end(DomId(7), t, true),
            Err(Error::QuotaExceeded("nodes"))
        );
    }

    #[test]
    fn re_creating_a_node_its_transaction_removed_counts_against_the_quota() {
        let max = Quota::tiny().max_nodes;
        let mut xs = guest_owning(max - 2);
        let t = xs.transaction_start(DomId(7)).unwrap();
        // One slot is left. The transaction frees `k0`, and spends that
        // and the last slot on two new nodes.
        xs.rm(DomId(7), Some(t), "/local/domain/7/k0").unwrap();
        for name in ["y", "z"] {
            xs.write(DomId(7), Some(t), &format!("/local/domain/7/{name}"), b"1")
                .unwrap();
        }
        assert_eq!(xs.transactions[&t.0].node_gain(), 1);
        // `k0` still exists in the live store, but not in the snapshot,
        // where re-creating it would take the domain past its quota.
        assert_eq!(
            xs.write(DomId(7), Some(t), "/local/domain/7/k0", b"again"),
            Err(Error::QuotaExceeded("nodes"))
        );
        xs.transaction_end(DomId(7), t, true).unwrap();
        assert_eq!(xs.owned_nodes(DomId(7)), max);
        assert_eq!(xs.tree().owned_count(DomId(7)), max);
    }

    #[test]
    fn merge_never_clobbers_a_concurrently_created_implicit_ancestor() {
        // Txn writes /a/b, creating /a implicitly (empty scaffold in its
        // snapshot); concurrently another client writes a value to /a. The
        // two creations merge — the commit must not reset /a to the
        // scaffold's empty value.
        let mut xs = store();
        let t = xs.transaction_start(DomId::DOM0).unwrap();
        xs.write(DomId::DOM0, Some(t), "/a/b", b"child").unwrap();
        xs.write(DomId::DOM0, None, "/a", b"precious").unwrap();
        xs.transaction_end(DomId::DOM0, t, true).unwrap();
        assert_eq!(
            xs.read(DomId::DOM0, None, "/a").unwrap(),
            b"precious",
            "the concurrent value must survive the merge"
        );
        assert_eq!(xs.read(DomId::DOM0, None, "/a/b").unwrap(), b"child");
    }

    #[test]
    fn value_read_survives_a_later_directory_dependency_on_the_same_node() {
        // Txn reads /x then creates /x/y (which records a directory dep on
        // /x). The value dependency must not be downgraded away: a
        // concurrent value change to /x still conflicts, even on the Jitsu
        // engine which ignores pure child-list changes.
        let mut xs = store();
        xs.write(DomId::DOM0, None, "/x", b"old").unwrap();
        let t = xs.transaction_start(DomId::DOM0).unwrap();
        assert_eq!(xs.read(DomId::DOM0, Some(t), "/x").unwrap(), b"old");
        xs.write(DomId::DOM0, Some(t), "/x/y", b"derived").unwrap();
        xs.write(DomId::DOM0, None, "/x", b"new").unwrap();
        assert_eq!(xs.transaction_end(DomId::DOM0, t, true), Err(Error::Again));
        assert!(!xs.exists(DomId::DOM0, None, "/x/y").unwrap());
    }

    #[test]
    fn direct_same_value_writes_still_fire_watches() {
        // The touch-a-key-to-notify pattern: a WRITE of an unchanged value
        // fires watches in the real protocol even though nothing changed
        // semantically.
        let mut xs = store();
        xs.write(DomId::DOM0, None, "/svc/flag", b"1").unwrap();
        xs.watch(DomId(3), "/svc", "tok").unwrap();
        xs.take_watch_events(DomId(3));
        xs.write(DomId::DOM0, None, "/svc/flag", b"1").unwrap();
        let evs = xs.take_watch_events(DomId(3));
        assert_eq!(evs.len(), 1, "same-value write must still notify");
        assert_eq!(evs[0].path.to_string(), "/svc/flag");
        // mkdir of an existing node notifies too, and only once.
        xs.mkdir(DomId::DOM0, None, "/svc/flag").unwrap();
        assert_eq!(xs.take_watch_events(DomId(3)).len(), 1);
    }

    #[test]
    fn perms_change_on_a_concurrently_removed_node_stays_removed() {
        // The transaction only touched the node's permissions; the
        // concurrent remove wins (the write-then-remove serial order), and
        // the rest of the batch still lands.
        let mut xs = store();
        xs.write(DomId::DOM0, None, "/a", b"1").unwrap();
        let t = xs.transaction_start(DomId::DOM0).unwrap();
        xs.set_perms(
            DomId::DOM0,
            Some(t),
            "/a",
            Permissions::with_default(DomId::DOM0, PermLevel::Write),
        )
        .unwrap();
        xs.write(DomId::DOM0, Some(t), "/b", b"2").unwrap();
        xs.rm(DomId::DOM0, None, "/a").unwrap();
        xs.transaction_end(DomId::DOM0, t, true).unwrap();
        assert!(!xs.exists(DomId::DOM0, None, "/a").unwrap());
        assert_eq!(xs.read(DomId::DOM0, None, "/b").unwrap(), b"2");
    }

    #[test]
    fn transactional_watch_events_come_from_the_merged_diff() {
        // A transaction that writes the same path three times and also
        // creates-then-removes a scratch node produces events for the *net*
        // change only.
        let mut xs = store();
        xs.mkdir(DomId::DOM0, None, "/svc").unwrap();
        xs.watch(DomId(3), "/svc", "tok").unwrap();
        xs.take_watch_events(DomId(3));
        let t = xs.transaction_start(DomId::DOM0).unwrap();
        for v in [b"1", b"2", b"3"] {
            xs.write(DomId::DOM0, Some(t), "/svc/state", v).unwrap();
        }
        xs.write(DomId::DOM0, Some(t), "/svc/scratch", b"tmp")
            .unwrap();
        xs.rm(DomId::DOM0, Some(t), "/svc/scratch").unwrap();
        xs.transaction_end(DomId::DOM0, t, true).unwrap();
        let evs = xs.take_watch_events(DomId(3));
        assert_eq!(evs.len(), 1, "one event per net-changed path: {evs:?}");
        assert_eq!(evs[0].path.to_string(), "/svc/state");
    }

    #[test]
    fn a_mkdir_of_a_node_the_domain_may_not_write_is_refused() {
        let mut xs = store();
        xs.mkdir(DomId::DOM0, None, "/shared").unwrap();
        let readable = Permissions::with_default(DomId::DOM0, PermLevel::Read);
        xs.set_perms(DomId::DOM0, None, "/shared", readable)
            .unwrap();
        xs.watch(DomId::DOM0, "/shared", "tok").unwrap();
        xs.take_watch_events(DomId::DOM0);
        // As C `xenstored`'s `do_mkdir`: the node is there, but dom7 may
        // not write it.
        let refused = xs.mkdir(DomId(7), None, "/shared");
        assert!(
            matches!(refused, Err(Error::PermissionDenied(_))),
            "{refused:?}"
        );
        assert_eq!(
            xs.pending_watch_events(DomId::DOM0),
            0,
            "a refusal fires nothing"
        );
        // Inside a transaction the refusal is no write: the commit is a
        // read-only one, which no concurrent commit refuses.
        let xs = &mut XenStore::new(EngineKind::Serial);
        xs.mkdir(DomId::DOM0, None, "/shared").unwrap();
        let t = xs.transaction_start(DomId(7)).unwrap();
        let refused = xs.mkdir(DomId(7), Some(t), "/shared");
        assert!(
            matches!(refused, Err(Error::PermissionDenied(_))),
            "{refused:?}"
        );
        assert!(xs.transactions[&t.0].is_read_only());
        xs.write(DomId::DOM0, None, "/other", b"1").unwrap();
        assert_eq!(xs.transaction_end(DomId(7), t, true), Ok(()));
        // A domain that may write the node still makes nothing.
        let writable = Permissions::with_default(DomId::DOM0, PermLevel::Write);
        xs.set_perms(DomId::DOM0, None, "/shared", writable)
            .unwrap();
        let nodes = xs.node_count();
        xs.mkdir(DomId(7), None, "/shared").unwrap();
        assert_eq!(xs.node_count(), nodes);
    }

    #[test]
    fn a_read_keeps_its_dependency_whatever_the_transaction_did_after() {
        for engine in [EngineKind::Merge, EngineKind::JitsuMerge] {
            // Read, then removed by the transaction and concurrently too:
            // serially after the concurrent removal the read finds nothing.
            let mut xs = XenStore::new(engine);
            xs.write(DomId::DOM0, None, "/a/b", b"1").unwrap();
            let t = xs.transaction_start(DomId::DOM0).unwrap();
            assert_eq!(xs.read(DomId::DOM0, Some(t), "/a/b").unwrap(), b"1");
            xs.rm(DomId::DOM0, Some(t), "/a").unwrap();
            xs.rm(DomId::DOM0, None, "/a").unwrap();
            assert_eq!(xs.transaction_end(DomId::DOM0, t, true), Err(Error::Again));
            // Read, removed and made again by the transaction, rewritten
            // concurrently: the read saw the old value.
            xs.write(DomId::DOM0, None, "/c", b"1").unwrap();
            let t = xs.transaction_start(DomId::DOM0).unwrap();
            assert_eq!(xs.read(DomId::DOM0, Some(t), "/c").unwrap(), b"1");
            xs.rm(DomId::DOM0, Some(t), "/c").unwrap();
            xs.write(DomId::DOM0, Some(t), "/c/d", b"2").unwrap();
            xs.write(DomId::DOM0, None, "/c", b"3").unwrap();
            assert_eq!(
                xs.transaction_end(DomId::DOM0, t, true),
                Err(Error::Again),
                "{engine:?}"
            );
        }
        // A listing under `Merge` depends on the permissions that allowed
        // it: dom7's listing was refused, and would not be after dom0 makes
        // the node world-readable.
        let mut xs = XenStore::new(EngineKind::Merge);
        xs.mkdir(DomId::DOM0, None, "/local/domain/7").unwrap();
        let home = Permissions::owned_by(DomId(7));
        xs.set_perms(DomId::DOM0, None, "/local/domain/7", home)
            .unwrap();
        let t = xs.transaction_start(DomId(7)).unwrap();
        let listed = xs.directory(DomId(7), Some(t), "/local/domain");
        assert!(
            matches!(listed, Err(Error::PermissionDenied(_))),
            "{listed:?}"
        );
        xs.write(DomId(7), Some(t), "/local/domain/7/x", b"1")
            .unwrap();
        let readable = Permissions::with_default(DomId::DOM0, PermLevel::Read);
        xs.set_perms(DomId::DOM0, None, "/local/domain", readable)
            .unwrap();
        assert_eq!(xs.transaction_end(DomId(7), t, true), Err(Error::Again));
    }

    #[test]
    fn debug_format_mentions_engine() {
        let xs = store();
        let s = format!("{xs:?}");
        assert!(s.contains("JitsuMerge"));
    }
}
