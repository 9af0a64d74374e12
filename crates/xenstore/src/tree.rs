//! The store tree: a permission-checked hierarchical value store with
//! generation tracking, built on persistent (structurally shared) nodes.
//!
//! `Tree` implements the data model shared by the live store and by
//! transaction snapshots. The root is held behind an [`Rc`], so cloning a
//! tree — which is how transaction snapshots are taken — is an O(1) pointer
//! copy and one non-atomic count increment, regardless of store size. Mutations use *path copying*: only the
//! nodes from the root down to the mutated node are copied (and only when
//! they are still shared with a snapshot); every sibling subtree stays
//! shared. This is what makes transactions cheap enough to open per
//! toolstack RPC under boot-storm load.
//!
//! Every mutation advances a monotonically increasing *generation*; each
//! node remembers the generation of its last value change (`modified_gen`)
//! and of its last child-list change (`children_gen`). The transaction
//! reconciliation engines in [`crate::engine`] compare node generations
//! between a transaction's base snapshot and the live tree to decide, at
//! node granularity, whether concurrent commits conflict.
//!
//! The four mutators ([`Tree::write`], [`Tree::mkdir`], [`Tree::rm`],
//! [`Tree::set_perms`]) *report their own effects*: each appends to the
//! [`TreeDiff`] it is handed exactly what it changed — created ancestors
//! and the node, the removed subtree, a value or permission change — in
//! the order and content [`Tree::diff`] of the tree before and after the
//! call would yield. The store settles quotas and fires watches for a
//! direct op from that record, so it holds no pre-image of the tree, and a
//! tree nobody else holds is mutated in place: no node is copied.
//!
//! Each mutator walks its path once: one child-map search and one
//! copy-on-write step a level, down to the node or to the deepest ancestor
//! that exists, and only then decides. Nodes a write creates are built off
//! the tree and linked in with one insertion. A call that fails — refused,
//! or on a missing path — reports nothing, advances no generation and
//! changes no value, permission or stamp; but where a snapshot shared the
//! nodes (or a wide directory's chunks) it walked through, it may have
//! copied them, so the tree is equal to what it was without being the same
//! allocation.
//!
//! [`Tree::diff`] computes the structural difference between two trees,
//! skipping shared subtrees — and, inside a wide directory, whole shared
//! chunks of its [`crate::children::ChildMap`] — in O(1) via pointer
//! equality. No operation of the store calls it: a commit finds its
//! transaction's net effect (`base → snapshot`) with
//! `Tree::diff_along`, which walks only the paths the transaction
//! named, and grafts it onto the live tree with `Tree::graft`, which
//! reports what it changed. `Tree::diff` is the reference both are checked
//! against, and what a test or a diagnostic compares two trees with.
//!
//! Naming what changed is kept proportional to it. A removed subtree is
//! recorded once, as its root's path and the removed node itself, which
//! carries the rest: nobody names its descendants unless a watch asks for
//! them. A [`Path`] is a prefix of a shared buffer, so the ancestors a write
//! creates are cut from the written path, and an added subtree allocates
//! one buffer per run of first children — a node is a prefix of its first
//! child — not one per node; the diff builds a path only for a node it
//! reports.

use crate::error::{Error, Result};
use crate::node::{Node, MAX_VALUE_LEN};
use crate::path::Path;
use crate::perms::{Access, DomId, Permissions};
use std::rc::Rc;

#[cfg(test)]
mod two_walks;

/// A permission-checked hierarchical store with generation tracking.
///
/// Cloning a `Tree` is O(1): the clone shares every node with the original
/// until one of the two is mutated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tree {
    root: Rc<Node>,
    generation: u64,
}

/// The structural difference between two trees, as computed by
/// [`Tree::diff`] or recorded by one mutator call. Every list is in
/// depth-first (sorted-by-component) order, which for [`Path`]'s
/// component-wise ordering means each list is sorted (binary-searchable)
/// and parents always precede their descendants in `added`. `removed` holds
/// only the roots of removed subtrees, each with the subtree.
/// (A record that several mutator calls appended to is a log of their
/// effects in call order, not a net difference.)
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TreeDiff {
    /// Nodes present in `new` but not in `old`, with their owning domain in
    /// `new`.
    pub added: Vec<(Path, DomId)>,
    /// Subtrees present in `old` but not in `new`, each once: the path of
    /// its root, whose parent is in `new`, and the root node as it was in
    /// `old`, which holds the removed descendants.
    pub removed: Vec<(Path, Rc<Node>)>,
    /// Nodes present in both whose value differs.
    pub value_changed: Vec<Path>,
    /// Nodes present in both whose permissions differ, with their owning
    /// domain before and after.
    pub perms_changed: Vec<(Path, DomId, DomId)>,
}

impl TreeDiff {
    /// True if the two trees were semantically identical.
    pub fn is_empty(&self) -> bool {
        self.added.is_empty()
            && self.removed.is_empty()
            && self.value_changed.is_empty()
            && self.perms_changed.is_empty()
    }

    /// Total number of recorded changes (a node changing both value and
    /// permissions counts twice, and a removed subtree once per node).
    pub fn len(&self) -> usize {
        self.counts().iter().sum()
    }

    /// Forget every recorded change, keeping the lists' buffers.
    pub fn clear(&mut self) {
        self.added.clear();
        self.removed.clear();
        self.value_changed.clear();
        self.perms_changed.clear();
    }

    /// Number of recorded changes of each kind, node by node: added,
    /// removed, value changed, permissions changed.
    pub fn counts(&self) -> [usize; 4] {
        [
            self.added.len(),
            self.removed
                .iter()
                .map(|(_, node)| node.subtree_size())
                .sum(),
            self.value_changed.len(),
            self.perms_changed.len(),
        ]
    }

    /// Every path that changed in any way, in sorted order, each once — the
    /// paths the store fires watches for after a mutation — with the
    /// removed subtree for a removed root. Every node of that subtree
    /// changed too, and its paths come next in sorted order: nothing else
    /// recorded lies below a removed root. A merge of the four lists, so
    /// each must be sorted and hold a path once, as [`Tree::diff`] and any
    /// single mutator call leave them.
    pub fn changed(&self) -> impl Iterator<Item = (&Path, Option<&Node>)> {
        let mut at = [0; 4];
        std::iter::from_fn(move || {
            let removed = self.removed.get(at[1]);
            let heads = [
                self.added.get(at[0]).map(|(path, _)| path),
                removed.map(|(path, _)| path),
                self.value_changed.get(at[2]),
                self.perms_changed.get(at[3]).map(|(path, _, _)| path),
            ];
            let least = heads.into_iter().flatten().min()?;
            // A path that heads several lists is stepped past in all.
            for (at, head) in at.iter_mut().zip(heads) {
                *at += usize::from(head == Some(least));
            }
            let subtree = removed.filter(|(path, _)| path == least);
            Some((least, subtree.map(|(_, node)| &**node)))
        })
    }

    /// Every node-ownership change this record implies, reported one node
    /// at a time as the domain and +1 or −1: creations, removals, and
    /// ownership transfers via permission changes (dom0 handing a guest its
    /// home directory). The one rule the store's quota counts, its checks
    /// and a transaction's own count are all kept by, so they never drift.
    pub(crate) fn owner_changes(&self, mut change: impl FnMut(DomId, isize)) {
        for (_, owner) in &self.added {
            change(*owner, 1);
        }
        for (_, node) in &self.removed {
            for_each_owner(node, &mut |owner| change(owner, -1));
        }
        for (_, old_owner, new_owner) in &self.perms_changed {
            if old_owner != new_owner {
                change(*old_owner, -1);
                change(*new_owner, 1);
            }
        }
    }
}

impl Default for Tree {
    fn default() -> Self {
        Tree::new()
    }
}

impl Tree {
    /// Create a tree containing only a dom0-owned, world-readable root.
    pub fn new() -> Tree {
        let perms = Permissions::with_default(DomId::DOM0, crate::perms::PermLevel::Read);
        Tree {
            root: Rc::new(Node::new(perms, 0)),
            generation: 0,
        }
    }

    /// The current generation counter.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Total number of nodes in the tree.
    pub fn node_count(&self) -> usize {
        self.root.subtree_size()
    }

    /// True if `self` and `other` share their root node allocation — the
    /// case immediately after a snapshot, before either side has mutated.
    /// A shared root means the snapshot copied *zero* nodes.
    pub fn shares_root_with(&self, other: &Tree) -> bool {
        Rc::ptr_eq(&self.root, &other.root)
    }

    /// Number of nodes of `self` that are structurally shared (same
    /// allocation) with `other`. Together with [`Tree::node_count`] this
    /// measures how many nodes a sequence of mutations actually copied:
    /// `copied = node_count() - shared_node_count(snapshot)`.
    pub fn shared_node_count(&self, other: &Tree) -> usize {
        fn walk(a: &Rc<Node>, b: &Rc<Node>) -> usize {
            if Rc::ptr_eq(a, b) {
                return a.subtree_size();
            }
            let mut shared = 0;
            for (name, ca) in a.children.iter() {
                if let Some(cb) = b.children.get(name) {
                    shared += walk(ca, cb);
                }
            }
            shared
        }
        walk(&self.root, &other.root)
    }

    /// Number of child-map entries (name + pointer pairs) of `self` held in
    /// storage shared with `other`: every entry under a shared node, and in
    /// a copied node every entry of a chunk the two still share. A tree of
    /// n nodes holds n - 1 entries, so `node_count() - 1 -
    /// shared_entry_count(snapshot)` is how many entries a sequence of
    /// mutations copied — the cost [`Tree::shared_node_count`] cannot see,
    /// because copying one directory node copies some of its entries.
    pub fn shared_entry_count(&self, other: &Tree) -> usize {
        fn walk(a: &Rc<Node>, b: &Rc<Node>) -> usize {
            if Rc::ptr_eq(a, b) {
                return a.subtree_size() - 1;
            }
            let mut shared = a.children.shared_len(&b.children);
            for (name, ca) in a.children.iter() {
                if let Some(cb) = b.children.get(name) {
                    shared += walk(ca, cb);
                }
            }
            shared
        }
        walk(&self.root, &other.root)
    }

    /// The nodes this tree does not hold alone: a node another tree holds
    /// too, or a directory whose child map shares a chunk or a key with
    /// another map. A write copies each such node or chunk on its path, so
    /// while no snapshot of the tree is alive (no transaction is open) this
    /// is empty and every write mutates in place. Below a node listed here
    /// the walk goes on, so a shared subtree is named by its top node.
    pub fn shared_paths(&self) -> Vec<Path> {
        fn walk(node: &Rc<Node>, path: &Path, out: &mut Vec<Path>) {
            if Rc::strong_count(node) > 1 || !node.children.holds_alone() {
                out.push(path.clone());
            }
            for (name, child) in node.children.iter() {
                walk(child, &child_path(path, name), out);
            }
        }
        let mut out = Vec::new();
        walk(&self.root, &Path::root(), &mut out);
        out
    }

    /// The node allocations from the root down `path`, as far as it exists:
    /// identities to compare, never to dereference. A mutation that copies
    /// a node gives it a new allocation, so two readings count the nodes a
    /// write copied without holding the snapshot that would itself force
    /// the copies ([`Tree::shared_node_count`] needs one).
    pub fn spine(&self, path: &Path) -> Vec<*const Node> {
        let mut node = &*self.root;
        let mut spine = vec![std::ptr::from_ref(node)];
        for comp in path.components() {
            let Some(child) = node.children.get(comp) else {
                break;
            };
            node = child;
            spine.push(std::ptr::from_ref(node));
        }
        spine
    }

    /// Immutable lookup.
    pub fn get(&self, path: &Path) -> Option<&Node> {
        let mut node = &*self.root;
        for comp in path.components() {
            node = node.children.get(comp)?;
        }
        Some(node)
    }

    /// True if the path names an existing node.
    pub fn exists(&self, path: &Path) -> bool {
        self.get(path).is_some()
    }

    /// The node at `path`, if it exists and `dom` holds `access` to it.
    fn checked(&self, dom: DomId, path: &Path, access: Access) -> Result<&Node> {
        permitted(self.get(path), dom, path, access)
    }

    /// Read a node's value.
    pub fn read(&self, dom: DomId, path: &Path) -> Result<Vec<u8>> {
        self.read_with(dom, path, <[u8]>::to_vec)
    }

    /// What `f` makes of a node's value, lent to it.
    pub fn read_with<R>(&self, dom: DomId, path: &Path, f: impl FnOnce(&[u8]) -> R) -> Result<R> {
        Ok(f(&self.checked(dom, path, Access::Read)?.value))
    }

    /// List a node's children (sorted).
    pub fn directory(&self, dom: DomId, path: &Path) -> Result<Vec<String>> {
        Ok(self.checked(dom, path, Access::Read)?.child_names())
    }

    /// Read a node's permissions.
    pub fn get_perms(&self, dom: DomId, path: &Path) -> Result<Permissions> {
        Ok(self.checked(dom, path, Access::Read)?.perms.clone())
    }

    /// Replace a node's permissions. Only the node owner (or dom0) may do so.
    pub fn set_perms(
        &mut self,
        dom: DomId,
        path: &Path,
        perms: Permissions,
        effects: &mut TreeDiff,
    ) -> Result<()> {
        let (node, _, None) = descend_mut(&mut self.root, &mut path.components()) else {
            return Err(Error::NoEntry(path.to_string()));
        };
        if !dom.is_privileged() && node.perms.owner() != dom {
            return Err(Error::PermissionDenied(path.to_string()));
        }
        self.generation += 1;
        if node.perms != perms {
            let change = (path.clone(), node.perms.owner(), perms.owner());
            effects.perms_changed.push(change);
            node.perms = perms;
        }
        node.modified_gen = self.generation;
        Ok(())
    }

    /// The permissions a node created by `dom` under a directory carrying
    /// `parent` should have, honouring the create-restricted extension;
    /// `None` if `dom` may not create there.
    fn new_child_perms(dom: DomId, parent: &Permissions) -> Option<Permissions> {
        if parent.check(dom, Access::Write) {
            // Normal case: the creator owns what it creates; non-privileged
            // creations are owned by the creating domain.
            Some(Permissions::owned_by(if dom.is_privileged() {
                parent.owner()
            } else {
                dom
            }))
        } else if parent.is_create_restricted() {
            // Jitsu extension (§3.2.3): anyone may create, but the new key is
            // visible only to the directory owner and the creator.
            Some(parent.restricted_child_perms(dom))
        } else {
            None
        }
    }

    /// The body of [`Tree::write`] (`value` given) and [`Tree::mkdir`]
    /// (`None`: an existing node is left alone, a new one is empty). The
    /// value is copied into a new node, and into an existing one's own
    /// buffer unless it holds the value already.
    ///
    /// One descent, copying on the way down whatever a snapshot shares,
    /// reaches the node or else the deepest ancestor that exists (the
    /// anchor). The missing nodes are built off the tree, each as the only
    /// child of the one before, and linked in with one insertion under the
    /// anchor: no node is searched for after it is made.
    fn put(
        &mut self,
        dom: DomId,
        path: &Path,
        value: Option<&[u8]>,
        effects: &mut TreeDiff,
    ) -> Result<()> {
        // `node` is the node itself, or else the anchor, `found` components
        // down; `below` is left holding the names after the first missing.
        let mut below = path.components();
        let (node, found, first_missing) = descend_mut(&mut self.root, &mut below);
        let Some(first_missing) = first_missing else {
            // Even a `mkdir`, which leaves an existing node alone, needs the
            // right to write it, as C `xenstored`'s `do_mkdir` does.
            if !node.perms.check(dom, Access::Write) {
                return Err(Error::PermissionDenied(path.to_string()));
            }
            let Some(value) = value else {
                return Ok(());
            };
            self.generation += 1;
            if node.value != value {
                effects.value_changed.push(path.clone());
                value.clone_into(&mut node.value);
            }
            node.modified_gen = self.generation;
            return Ok(());
        };
        // Whether each missing node may be created depends on permissions
        // alone — its parent's, which for all but the first is the node
        // created just before it — and only the first can refuse: whoever
        // creates a directory may write to it. So the first decides for the
        // whole spine before anything is created, and a refusal creates
        // nothing.
        let Some(perms) = Self::new_child_perms(dom, &node.perms) else {
            return Err(Error::PermissionDenied(path.ancestor(found).to_string()));
        };
        effects.added.reserve(path.depth() - found);
        let mut top = Node::new(perms, self.generation + 1);
        self.generation = Self::grow(&mut top, dom, path, found + 1, &mut below, value, effects);
        node.children_gen = top.created_gen;
        node.children.insert(first_missing, Rc::new(top));
        Ok(())
    }

    /// Complete `node`, which [`Tree::put`] created at depth `depth` of
    /// `path` and has not linked into the tree yet: report it, then give it
    /// the rest of the missing suffix — one new node per name left in
    /// `names`, each the only child of the one before — or, at the end of
    /// the path, the value. Each creation is its own generation, one after
    /// its parent's, stamped on the new node and on its parent's child
    /// list. Returns the last generation stamped.
    fn grow<'p>(
        node: &mut Node,
        dom: DomId,
        path: &Path,
        depth: usize,
        names: &mut impl Iterator<Item = &'p str>,
        value: Option<&[u8]>,
        effects: &mut TreeDiff,
    ) -> u64 {
        effects
            .added
            .push((path.ancestor(depth), node.perms.owner()));
        let Some(name) = names.next() else {
            if let Some(value) = value {
                node.value = value.to_vec();
            }
            return node.created_gen;
        };
        #[expect(
            clippy::expect_used,
            reason = "permissions derived for a creator let that creator write"
        )]
        let perms = Self::new_child_perms(dom, &node.perms)
            .expect("a creator may create under what it created");
        let mut child = Node::new(perms, node.created_gen + 1);
        let last = Self::grow(&mut child, dom, path, depth + 1, names, value, effects);
        node.children_gen = child.created_gen;
        node.children.insert(name, Rc::new(child));
        last
    }

    /// Write a value, creating the node (and any missing ancestors) if
    /// necessary, as the real store does. What changed is appended to
    /// `effects`; a call that fails changes nothing.
    pub fn write(
        &mut self,
        dom: DomId,
        path: &Path,
        value: &[u8],
        effects: &mut TreeDiff,
    ) -> Result<()> {
        if path.is_root() {
            return Err(Error::Invalid("cannot write to the root node".into()));
        }
        if value.len() > MAX_VALUE_LEN {
            return Err(Error::Invalid(format!(
                "value larger than {MAX_VALUE_LEN} bytes"
            )));
        }
        self.put(dom, path, Some(value), effects)
    }

    /// Create an empty node (no-op if it already exists and `dom` may write
    /// it, as in the real protocol; `EACCES` if it may not), with any
    /// missing ancestors. What changed is appended to `effects`; a call that
    /// fails changes nothing.
    pub fn mkdir(&mut self, dom: DomId, path: &Path, effects: &mut TreeDiff) -> Result<()> {
        self.put(dom, path, None, effects)
    }

    /// Remove a node and its entire subtree, appending the subtree to
    /// `effects`. Removing a missing node returns `ENOENT`; removing the
    /// root is invalid.
    pub fn rm(&mut self, dom: DomId, path: &Path, effects: &mut TreeDiff) -> Result<()> {
        let (Some(parent), Some(name)) = (path.parent(), path.basename()) else {
            return Err(Error::Invalid("cannot remove the root node".into()));
        };
        let missing = || Error::NoEntry(path.to_string());
        let (parent_node, _, None) = descend_mut(&mut self.root, &mut parent.components()) else {
            return Err(missing());
        };
        let at = parent_node.children.find(name).ok_or_else(missing)?;
        // In a wide directory the removal copies the chunk holding the node
        // if a snapshot shares it, so reading the node's permissions through
        // it costs nothing more.
        let target = parent_node.children.at_mut(at);
        if !target.perms.check(dom, Access::Write) {
            return Err(Error::PermissionDenied(path.to_string()));
        }
        let removed = parent_node.children.remove_at(at);
        self.generation += 1;
        parent_node.children_gen = self.generation;
        effects.removed.push((path.clone(), removed));
        Ok(())
    }

    /// Count the nodes owned by each domain by walking the whole tree.
    ///
    /// This is the O(store) reference implementation; the store keeps an
    /// incremental count maintained from the effects its mutations report
    /// and uses this walk only in tests to cross-check it.
    pub fn owned_count(&self, dom: DomId) -> usize {
        fn walk(node: &Node, dom: DomId) -> usize {
            let own = usize::from(node.perms.owner() == dom);
            own + node.children.values().map(|c| walk(c, dom)).sum::<usize>()
        }
        walk(&self.root, dom)
    }

    /// Collect every path in the tree (depth-first, sorted by component) —
    /// used by tests and the structural diff in the Jitsu merge engine.
    pub fn all_paths(&self) -> Vec<Path> {
        fn walk(node: &Node, prefix: &Path, out: &mut Vec<Path>) {
            out.push(prefix.clone());
            for (name, child) in node.children.iter() {
                walk(child, &child_path(prefix, name), out);
            }
        }
        let mut out = Vec::new();
        walk(&self.root, &Path::root(), &mut out);
        out
    }

    /// Compute the structural difference from `old` to `new`.
    ///
    /// Subtrees shared between the two trees (same `Rc` allocation) are
    /// skipped without descending, and so is every child-map chunk the two
    /// versions of a directory share, so diffing a tree against a snapshot
    /// it was mutated from costs O(changed paths), not O(store size) and
    /// not O(fan-out of the directories above a change). On unrelated
    /// trees the diff degrades gracefully to a full semantic comparison
    /// (generation counters are ignored — only value, permission and
    /// existence changes are reported).
    pub fn diff(old: &Tree, new: &Tree) -> TreeDiff {
        let mut diff = TreeDiff::default();
        if !Rc::ptr_eq(&old.root, &new.root) {
            let mut text = String::with_capacity(SCRATCH_TEXT_LEN);
            diff_subtrees(&old.root, &new.root, &mut text, &mut diff);
        }
        diff
    }

    /// [`Tree::diff`] of two trees that differ only on the way to, at or
    /// below `paths` — sorted, each given once — found by walking those
    /// paths alone: a transaction's net effect, `base → snapshot` along the
    /// paths its operations named.
    ///
    /// The walk goes down all the paths at once, one child-map search a
    /// level in each tree, and looks at no sibling off them, where
    /// [`Tree::diff`] steps through every entry of each directory above a
    /// change. It stops where the two trees share a node, and where one of
    /// them lacks it: a removed or an added subtree. A node of `new` created
    /// after generation `since` that `old` holds too was removed and made
    /// again, and below it the two are compared in full, as by
    /// [`Tree::diff`]: what the removal took lies off the paths.
    pub(crate) fn diff_along(old: &Tree, new: &Tree, paths: &[Path], since: u64) -> TreeDiff {
        let mut diff = TreeDiff::default();
        if !Rc::ptr_eq(&old.root, &new.root) {
            let mut walk = Along {
                since,
                text: String::new(),
            };
            walk.node(&old.root, &new.root, paths, 0, &mut diff);
        }
        diff
    }

    /// One step of a three-way merge onto this tree, as `dom`: give the
    /// node at `path` what `source`, its version in a transaction's
    /// snapshot, holds — the [`Tree::write`] and [`Tree::set_perms`] calls
    /// `step` stands for, with their checks and stamps, in one descent.
    ///
    /// What changed is appended to `report` as [`Tree::diff`] of the tree
    /// before the merge and after it records it, where a node the merge
    /// created — one stamped after generation `before` — is one added
    /// entry carrying the owner it ends with: a later step that writes it
    /// or gives it other permissions adds no entry of its own. A failed
    /// step may leave the tree part-way changed; a merge runs on a copy.
    pub(crate) fn graft(
        &mut self,
        dom: DomId,
        path: &Path,
        source: &Node,
        step: Graft,
        before: u64,
        report: &mut TreeDiff,
    ) -> Result<()> {
        let refused = || Error::PermissionDenied(path.to_string());
        let mut below = path.components();
        let (node, found, first_missing) = descend_mut(&mut self.root, &mut below);
        let Some(first_missing) = first_missing else {
            match step {
                // Both sides created the node on the way to different
                // children: the one already here wins.
                Graft::Creation => return Ok(()),
                Graft::Value => {
                    if !node.perms.check(dom, Access::Write) {
                        return Err(refused());
                    }
                    self.generation += 1;
                    if node.value != source.value {
                        if node.created_gen <= before {
                            report.value_changed.push(path.clone());
                        }
                        source.value.clone_into(&mut node.value);
                    }
                    node.modified_gen = self.generation;
                    if node.perms == source.perms {
                        return Ok(());
                    }
                }
                Graft::Perms => {}
            }
            if !dom.is_privileged() && node.perms.owner() != dom {
                return Err(refused());
            }
            self.generation += 1;
            if node.perms != source.perms {
                let owners = (node.perms.owner(), source.perms.owner());
                if node.created_gen > before {
                    retag(report, path, owners.1);
                } else {
                    report
                        .perms_changed
                        .push((path.clone(), owners.0, owners.1));
                }
                node.perms = source.perms.clone();
            }
            node.modified_gen = self.generation;
            return Ok(());
        };
        if step == Graft::Perms {
            return Ok(());
        }
        // Made as `Tree::write` makes it, and then, if the permissions it
        // derived are not the snapshot's, given those as `Tree::set_perms`
        // would: the new node is the last `grow` made, at the end of a
        // chain of only children.
        let Some(perms) = Self::new_child_perms(dom, &node.perms) else {
            return Err(Error::PermissionDenied(path.ancestor(found).to_string()));
        };
        let mut top = Node::new(perms, self.generation + 1);
        let value = Some(&source.value[..]);
        self.generation = Self::grow(&mut top, dom, path, found + 1, &mut below, value, report);
        let mut made = &mut top;
        for name in path.components().skip(found + 1) {
            let Some(at) = made.children.find(name) else {
                break;
            };
            made = Rc::make_mut(made.children.at_mut(at));
        }
        if made.perms != source.perms {
            if !dom.is_privileged() && made.perms.owner() != dom {
                return Err(refused());
            }
            self.generation += 1;
            made.perms = source.perms.clone();
            made.modified_gen = self.generation;
            retag(report, path, source.perms.owner());
        }
        node.children_gen = top.created_gen;
        node.children.insert(first_missing, Rc::new(top));
        Ok(())
    }
}

/// Which of a transaction's changes a merge step grafts ([`Tree::graft`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Graft {
    /// A node the transaction created: written with its value, and given
    /// its permissions, unless a node is there already.
    Creation,
    /// A node whose value the transaction changed: written (and made again
    /// if it is gone), then given its permissions if they differ.
    Value,
    /// A node whose permissions alone the transaction changed: given them,
    /// unless it is gone.
    Perms,
}

/// Give `path`'s entry among what `report` records added the owner `owner`:
/// the node was made by the merge that reports, and has just been given
/// other permissions.
fn retag(report: &mut TreeDiff, path: &Path, owner: DomId) {
    if let Some(entry) = report
        .added
        .iter_mut()
        .rev()
        .find(|(added, _)| added == path)
    {
        entry.1 = owner;
    }
}

/// Report what differs in the node itself between `old` and `new`, two
/// versions of the node at `path`: its permissions, then its value.
fn diff_node(old: &Node, new: &Node, path: impl FnOnce() -> Path, diff: &mut TreeDiff) {
    let value_changed = old.value != new.value;
    let perms_changed = old.perms != new.perms;
    if value_changed || perms_changed {
        let path = path();
        if perms_changed {
            let change = (path.clone(), old.perms.owner(), new.perms.owner());
            diff.perms_changed.push(change);
        }
        if value_changed {
            diff.value_changed.push(path);
        }
    }
}

/// [`Tree::diff`] below `old` and `new`, two versions of the node whose
/// path has the canonical text `text`. A `Path` is built from the text only
/// for what goes into `diff`, so the copied-but-equal nodes above a change
/// cost no allocation.
fn diff_subtrees(old: &Node, new: &Node, text: &mut String, diff: &mut TreeDiff) {
    diff_node(old, new, || Path::from_canonical(text), diff);
    diff_children(old, new, text, diff);
}

/// [`diff_subtrees`] of the children alone.
fn diff_children(old: &Node, new: &Node, text: &mut String, diff: &mut TreeDiff) {
    // A single merge-iteration over both sorted maps, so every diff list
    // comes out in globally sorted DFS order (the invariant `changed` and
    // the merge's binary searches rely on). Shared chunks and shared
    // children are stepped over before any path text is built for them:
    // they hold no difference, and under a wide directory they are all but
    // one of the entries.
    let here = text.len();
    let mut old_children = old.children.cursor();
    let mut new_children = new.children.cursor();
    loop {
        if old_children.skip_shared_chunk(&mut new_children) {
            continue;
        }
        // This step consumes the smaller name, or both when equal.
        let (gone, came) = match (old_children.peek(), new_children.peek()) {
            (Some(gone), Some(came)) => match gone.0.cmp(came.0) {
                std::cmp::Ordering::Less => (Some(gone), None),
                std::cmp::Ordering::Greater => (None, Some(came)),
                std::cmp::Ordering::Equal => (Some(gone), Some(came)),
            },
            ends => ends,
        };
        match (gone, came) {
            (None, None) => break,
            (Some((name, old_child)), Some((_, new_child))) => {
                if !Rc::ptr_eq(old_child, new_child) {
                    push_component(text, here, name);
                    diff_subtrees(old_child, new_child, text, diff);
                }
            }
            (Some((name, old_child)), None) => {
                push_component(text, here, name);
                let root = Path::from_canonical(text);
                diff.removed.push((root, Rc::clone(old_child)));
            }
            (None, Some((name, new_child))) => {
                push_component(text, here, name);
                record_subtree(new_child, text, &[], &mut diff.added);
            }
        }
        if gone.is_some() {
            old_children.advance();
        }
        if came.is_some() {
            new_children.advance();
        }
    }
    text.truncate(here);
}

/// The walk of [`Tree::diff_along`].
struct Along {
    /// A node made after this generation was made by the walked paths'
    /// operations.
    since: u64,
    /// Scratch for the path text [`diff_children`] and [`record_subtree`]
    /// build on; allocated for the first of them, if one runs.
    text: String,
}

impl Along {
    /// Make the scratch text `path`'s, with room to go deeper.
    fn start_at(&mut self, path: &Path) {
        self.text.clear();
        self.text
            .reserve(SCRATCH_TEXT_LEN.max(2 * path.text().len()));
        self.text.push_str(path.text());
    }

    /// Walk `old` and `new`, two versions of the node whose path is the
    /// first `here` bytes of the text of each of `paths`, and what lies
    /// below it on those paths.
    fn node(&mut self, old: &Node, new: &Node, paths: &[Path], here: usize, diff: &mut TreeDiff) {
        let Some(first) = paths.first() else {
            return;
        };
        // A value or permission change stamps the node, so one stamped
        // before the walked paths' operations holds what `old` holds, and
        // its value need not be read.
        if new.modified_gen > self.since {
            diff_node(old, new, || first.cut(here), diff);
        }
        if new.created_gen > self.since {
            self.start_at(&first.cut(here));
            diff_children(old, new, &mut self.text, diff);
            return;
        }
        // Sorted, the paths through each child are a run, after the path
        // that ends here if one does.
        let mut rest = paths;
        if first.text().len() == here {
            rest = &rest[1..];
        }
        while let Some(first) = rest.first() {
            let text = first.text();
            let name = text[here + 1..].split('/').next().unwrap_or_default();
            let end = here + 1 + name.len();
            let run = rest
                .iter()
                .position(|path| {
                    let theirs = path.text();
                    theirs.get(here..end) != text.get(here..end)
                        || theirs.as_bytes().get(end).is_some_and(|&b| b != b'/')
                })
                .unwrap_or(rest.len());
            let (through, after) = rest.split_at(run);
            rest = after;
            match (old.children.get(name), new.children.get(name)) {
                (Some(old_child), Some(new_child)) => {
                    if !Rc::ptr_eq(old_child, new_child) {
                        self.node(old_child, new_child, through, end, diff);
                    }
                }
                (Some(old_child), None) => {
                    diff.removed.push((first.cut(end), Rc::clone(old_child)));
                }
                (None, Some(new_child)) => {
                    self.start_at(&first.cut(end));
                    record_subtree(new_child, &mut self.text, through, &mut diff.added);
                }
                (None, None) => {}
            }
        }
    }
}

/// `node`, what a lookup of `path` found, if it found one and `dom` holds
/// `access` to it: `ENOENT` for no node, else `EACCES` for a refused one.
pub(crate) fn permitted<'a>(
    node: Option<&'a Node>,
    dom: DomId,
    path: &Path,
    access: Access,
) -> Result<&'a Node> {
    let node = node.ok_or_else(|| Error::NoEntry(path.to_string()))?;
    if node.perms.check(dom, access) {
        Ok(node)
    } else {
        Err(Error::PermissionDenied(path.to_string()))
    }
}

/// Mutable descent via path copying: every node from `root` down `names`
/// that is still shared with a snapshot is copied (shallowly — its child
/// *pointers* are cloned, not the subtrees), so the mutation never disturbs
/// other trees holding the old nodes. Nodes nobody else holds are handed out
/// as they are: a tree with no snapshot is mutated in place. Each level costs
/// one search of its parent's child map and one `Rc::make_mut`.
///
/// The descent goes as far as the path exists and returns the deepest node
/// reached, how many names led to it, and the first name missing under it —
/// `None` if the whole path exists — leaving `names` holding the names after
/// that one. A caller that then refuses has copied what it walked through.
fn descend_mut<'a, 'p>(
    root: &'a mut Rc<Node>,
    names: &mut impl Iterator<Item = &'p str>,
) -> (&'a mut Node, usize, Option<&'p str>) {
    let mut node = Rc::make_mut(root);
    let mut depth = 0;
    for name in names {
        let Some(at) = node.children.find(name) else {
            return (node, depth, Some(name));
        };
        node = Rc::make_mut(node.children.at_mut(at));
        depth += 1;
    }
    (node, depth, None)
}

/// Room for the text of most paths in a store: what a scratch buffer starts
/// with when nothing says how deep it will go.
const SCRATCH_TEXT_LEN: usize = 128;

/// A scratch buffer holding `path`'s canonical text, with room to go deeper.
fn scratch_text(path: &Path) -> String {
    let mut text = String::with_capacity(SCRATCH_TEXT_LEN.max(2 * path.text().len()));
    text.push_str(path.text());
    text
}

/// Make `text`, which holds a path's canonical text in its first `parent`
/// bytes, the text of that path's child `name` (a name read back out of
/// the tree, validated when it went in).
fn push_component(text: &mut String, parent: usize, name: &str) {
    text.truncate(parent);
    text.push('/');
    text.push_str(name);
}

/// Append `node`, whose path has the canonical text `text`, and its whole
/// subtree to `out`, depth-first in name order.
///
/// A path is a prefix of one shared buffer, and a node's path is a prefix of
/// its first child's: one buffer serves each run of first children — for
/// `node`, its first child, that child's first child and so on down to a
/// leaf — and each path along the run is cut from it. Only a later sibling
/// needs a buffer of its own, for the run that starts with it. A run that
/// ends at one of the `known` paths (sorted) is cut from that path's
/// buffer, and allocates none.
fn record_subtree(node: &Node, text: &mut String, known: &[Path], out: &mut Vec<(Path, DomId)>) {
    let top = text.len();
    let mut end = node;
    while let Some((name, first)) = end.children.iter().next() {
        text.push('/');
        text.push_str(name);
        end = first;
    }
    let leaf = match known.binary_search_by(|path| path.cmp_text(text)) {
        Ok(at) => known[at].clone(),
        Err(_) => Path::from_canonical(text),
    };
    record_run(node, &leaf, top, text, known, out);
}

/// [`record_subtree`] for a `node` whose path is the first `len` bytes of
/// the buffer `run` was made from, which is also how `text` begins.
fn record_run(
    node: &Node,
    run: &Path,
    len: usize,
    text: &mut String,
    known: &[Path],
    out: &mut Vec<(Path, DomId)>,
) {
    out.push((run.cut(len), node.perms.owner()));
    let mut children = node.children.iter();
    if let Some((name, first)) = children.next() {
        record_run(first, run, len + 1 + name.len(), text, known, out);
    }
    for (name, child) in children {
        push_component(text, len, name);
        record_subtree(child, text, known, out);
    }
}

/// Call `f` with the canonical text of every node of the subtree `node`,
/// whose path is `root`, depth-first in name order.
pub(crate) fn for_each_path(root: &Path, node: &Node, mut f: impl FnMut(&str)) {
    fn walk(node: &Node, text: &mut String, f: &mut impl FnMut(&str)) {
        f(text);
        let here = text.len();
        for (name, child) in node.children.iter() {
            push_component(text, here, name);
            walk(child, text, f);
        }
        text.truncate(here);
    }
    walk(node, &mut scratch_text(root), &mut f);
}

/// Call `f` with the owner of every node of the subtree `node`.
fn for_each_owner(node: &Node, f: &mut impl FnMut(DomId)) {
    f(node.perms.owner());
    for child in node.children.values() {
        for_each_owner(child, f);
    }
}

/// The path of the child `name` of `parent`, for names read back out of the
/// tree.
#[expect(
    clippy::expect_used,
    reason = "child names were validated when inserted into the tree"
)]
fn child_path(parent: &Path, name: &str) -> Path {
    parent.child(name).expect("stored names are valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::children::CHUNK_MAX;
    use crate::perms::PermLevel;
    use jitsu_sim::SimRng;

    fn p(s: &str) -> Path {
        Path::parse(s).unwrap()
    }

    /// Every removed node, each with its owner, as a record that named each
    /// node would list them: the removed subtrees expanded by the walk that
    /// names an added subtree.
    fn per_node(removed: &[(Path, Rc<Node>)]) -> Vec<(Path, DomId)> {
        let mut out = Vec::new();
        for (root, node) in removed {
            record_subtree(node, &mut scratch_text(root), &[], &mut out);
        }
        out
    }

    fn texts<'a>(paths: impl IntoIterator<Item = &'a Path>) -> Vec<String> {
        paths.into_iter().map(Path::to_string).collect()
    }

    #[test]
    fn write_creates_missing_parents() {
        let mut t = Tree::new();
        t.write(
            DomId::DOM0,
            &p("/local/domain/3/name"),
            b"http",
            &mut TreeDiff::default(),
        )
        .unwrap();
        assert!(t.exists(&p("/local")));
        assert!(t.exists(&p("/local/domain")));
        assert!(t.exists(&p("/local/domain/3")));
        assert_eq!(
            t.read(DomId::DOM0, &p("/local/domain/3/name")).unwrap(),
            b"http"
        );
        assert_eq!(t.node_count(), 5);
    }

    #[test]
    fn read_missing_is_noent() {
        let t = Tree::new();
        assert_eq!(
            t.read(DomId::DOM0, &p("/nope")),
            Err(Error::NoEntry("/nope".into()))
        );
    }

    #[test]
    fn directory_lists_children_sorted() {
        let mut t = Tree::new();
        t.write(
            DomId::DOM0,
            &p("/local/domain/3"),
            b"",
            &mut TreeDiff::default(),
        )
        .unwrap();
        t.write(
            DomId::DOM0,
            &p("/local/domain/1"),
            b"",
            &mut TreeDiff::default(),
        )
        .unwrap();
        t.write(
            DomId::DOM0,
            &p("/local/domain/2"),
            b"",
            &mut TreeDiff::default(),
        )
        .unwrap();
        assert_eq!(
            t.directory(DomId::DOM0, &p("/local/domain")).unwrap(),
            vec!["1", "2", "3"]
        );
    }

    #[test]
    fn mkdir_is_idempotent() {
        let mut t = Tree::new();
        t.mkdir(DomId::DOM0, &p("/conduit"), &mut TreeDiff::default())
            .unwrap();
        t.mkdir(DomId::DOM0, &p("/conduit"), &mut TreeDiff::default())
            .unwrap();
        t.mkdir(DomId::DOM0, &p("/"), &mut TreeDiff::default())
            .unwrap();
        assert!(t.exists(&p("/conduit")));
    }

    #[test]
    fn rm_removes_subtree() {
        let mut t = Tree::new();
        t.write(DomId::DOM0, &p("/a/b/c"), b"1", &mut TreeDiff::default())
            .unwrap();
        t.write(DomId::DOM0, &p("/a/b/d"), b"2", &mut TreeDiff::default())
            .unwrap();
        t.rm(DomId::DOM0, &p("/a/b"), &mut TreeDiff::default())
            .unwrap();
        assert!(!t.exists(&p("/a/b")));
        assert!(!t.exists(&p("/a/b/c")));
        assert!(t.exists(&p("/a")));
        assert_eq!(
            t.rm(DomId::DOM0, &p("/a/b"), &mut TreeDiff::default()),
            Err(Error::NoEntry("/a/b".into()))
        );
        assert!(t
            .rm(DomId::DOM0, &Path::root(), &mut TreeDiff::default())
            .is_err());
    }

    #[test]
    fn root_write_rejected_and_value_size_limited() {
        let mut t = Tree::new();
        assert!(t
            .write(DomId::DOM0, &Path::root(), b"x", &mut TreeDiff::default())
            .is_err());
        let big = vec![0u8; MAX_VALUE_LEN + 1];
        assert!(t
            .write(DomId::DOM0, &p("/big"), &big, &mut TreeDiff::default())
            .is_err());
        let ok = vec![0u8; MAX_VALUE_LEN];
        assert!(t
            .write(DomId::DOM0, &p("/big"), &ok, &mut TreeDiff::default())
            .is_ok());
    }

    #[test]
    fn generations_track_modifications() {
        let mut t = Tree::new();
        let g0 = t.generation();
        t.write(DomId::DOM0, &p("/a"), b"1", &mut TreeDiff::default())
            .unwrap();
        let g1 = t.generation();
        assert!(g1 > g0);
        t.write(DomId::DOM0, &p("/a"), b"2", &mut TreeDiff::default())
            .unwrap();
        let node = t.get(&p("/a")).unwrap();
        assert_eq!(node.modified_gen, t.generation());
        // Creating a child bumps the parent's children_gen but not its
        // modified_gen.
        let parent_modified_before = t.get(&p("/a")).unwrap().modified_gen;
        t.write(DomId::DOM0, &p("/a/b"), b"3", &mut TreeDiff::default())
            .unwrap();
        let parent = t.get(&p("/a")).unwrap();
        assert_eq!(parent.modified_gen, parent_modified_before);
        assert_eq!(parent.children_gen, t.generation());
    }

    #[test]
    fn unprivileged_domains_cannot_touch_others_nodes() {
        let mut t = Tree::new();
        // dom0 creates a private area for dom3.
        t.write(
            DomId::DOM0,
            &p("/local/domain/3/name"),
            b"x",
            &mut TreeDiff::default(),
        )
        .unwrap();
        // A guest cannot read or write dom0-owned nodes...
        assert!(matches!(
            t.read(DomId(7), &p("/local/domain/3/name")),
            Err(Error::PermissionDenied(_))
        ));
        assert!(matches!(
            t.write(
                DomId(7),
                &p("/local/domain/3/name"),
                b"y",
                &mut TreeDiff::default()
            ),
            Err(Error::PermissionDenied(_))
        ));
        // ...until granted access.
        let perms = Permissions::owned_by(DomId::DOM0).granting(DomId(7), PermLevel::Read);
        t.set_perms(
            DomId::DOM0,
            &p("/local/domain/3/name"),
            perms,
            &mut TreeDiff::default(),
        )
        .unwrap();
        assert!(t.read(DomId(7), &p("/local/domain/3/name")).is_ok());
        assert!(t
            .write(
                DomId(7),
                &p("/local/domain/3/name"),
                b"y",
                &mut TreeDiff::default()
            )
            .is_err());
    }

    #[test]
    fn unprivileged_creation_is_owned_by_creator() {
        let mut t = Tree::new();
        // dom0 gives dom7 a writable home directory.
        t.mkdir(DomId::DOM0, &p("/local/domain/7"), &mut TreeDiff::default())
            .unwrap();
        t.set_perms(
            DomId::DOM0,
            &p("/local/domain/7"),
            Permissions::owned_by(DomId(7)),
            &mut TreeDiff::default(),
        )
        .unwrap();
        t.write(
            DomId(7),
            &p("/local/domain/7/data/feature"),
            b"1",
            &mut TreeDiff::default(),
        )
        .unwrap();
        let node = t.get(&p("/local/domain/7/data/feature")).unwrap();
        assert_eq!(node.perms.owner(), DomId(7));
        // Another guest cannot see it.
        assert!(t
            .read(DomId(9), &p("/local/domain/7/data/feature"))
            .is_err());
    }

    #[test]
    fn create_restricted_directory_allows_foreign_creation() {
        let mut t = Tree::new();
        // The server (dom3) owns its listen queue and marks it
        // create-restricted so clients can enqueue connection requests.
        t.mkdir(
            DomId::DOM0,
            &p("/conduit/http_server/listen"),
            &mut TreeDiff::default(),
        )
        .unwrap();
        t.set_perms(
            DomId::DOM0,
            &p("/conduit/http_server/listen"),
            Permissions::owned_by(DomId(3)).create_restricted(),
            &mut TreeDiff::default(),
        )
        .unwrap();
        // A client (dom7) may create its connection key...
        t.write(
            DomId(7),
            &p("/conduit/http_server/listen/conn1"),
            b"7",
            &mut TreeDiff::default(),
        )
        .unwrap();
        // ...which the server and the client can read, but others cannot.
        assert!(t
            .read(DomId(3), &p("/conduit/http_server/listen/conn1"))
            .is_ok());
        assert!(t
            .read(DomId(7), &p("/conduit/http_server/listen/conn1"))
            .is_ok());
        assert!(t
            .read(DomId(9), &p("/conduit/http_server/listen/conn1"))
            .is_err());
        // Without the flag, foreign creation is denied.
        t.mkdir(
            DomId::DOM0,
            &p("/conduit/other/listen"),
            &mut TreeDiff::default(),
        )
        .unwrap();
        t.set_perms(
            DomId::DOM0,
            &p("/conduit/other/listen"),
            Permissions::owned_by(DomId(3)),
            &mut TreeDiff::default(),
        )
        .unwrap();
        assert!(t
            .write(
                DomId(7),
                &p("/conduit/other/listen/conn1"),
                b"7",
                &mut TreeDiff::default()
            )
            .is_err());
    }

    #[test]
    fn set_perms_requires_ownership() {
        let mut t = Tree::new();
        t.mkdir(DomId::DOM0, &p("/local/domain/3"), &mut TreeDiff::default())
            .unwrap();
        t.set_perms(
            DomId::DOM0,
            &p("/local/domain/3"),
            Permissions::owned_by(DomId(3)),
            &mut TreeDiff::default(),
        )
        .unwrap();
        // dom7 does not own the node, so cannot change its perms.
        assert!(t
            .set_perms(
                DomId(7),
                &p("/local/domain/3"),
                Permissions::owned_by(DomId(7)),
                &mut TreeDiff::default()
            )
            .is_err());
        // dom3 owns it and may.
        assert!(t
            .set_perms(
                DomId(3),
                &p("/local/domain/3"),
                Permissions::with_default(DomId(3), PermLevel::Read),
                &mut TreeDiff::default()
            )
            .is_ok());
        assert!(t
            .set_perms(
                DomId::DOM0,
                &p("/missing"),
                Permissions::owned_by(DomId(0)),
                &mut TreeDiff::default()
            )
            .is_err());
    }

    #[test]
    fn owned_count_and_all_paths() {
        let mut t = Tree::new();
        t.write(DomId::DOM0, &p("/a/b"), b"", &mut TreeDiff::default())
            .unwrap();
        t.mkdir(DomId::DOM0, &p("/local/domain/7"), &mut TreeDiff::default())
            .unwrap();
        t.set_perms(
            DomId::DOM0,
            &p("/local/domain/7"),
            Permissions::owned_by(DomId(7)),
            &mut TreeDiff::default(),
        )
        .unwrap();
        t.write(
            DomId(7),
            &p("/local/domain/7/x"),
            b"1",
            &mut TreeDiff::default(),
        )
        .unwrap();
        assert_eq!(t.owned_count(DomId(7)), 2);
        let paths = t.all_paths();
        assert!(paths.contains(&Path::root()));
        assert!(paths.contains(&p("/local/domain/7/x")));
        assert_eq!(paths.len(), t.node_count());
    }

    // ---------------- persistence / structural sharing -------------------

    #[test]
    fn snapshot_is_a_pointer_copy() {
        let mut t = Tree::new();
        for i in 0..200 {
            t.write(
                DomId::DOM0,
                &p(&format!("/warm/k{i}")),
                b"v",
                &mut TreeDiff::default(),
            )
            .unwrap();
        }
        let snap = t.clone();
        assert!(t.shares_root_with(&snap), "clone must not copy any node");
        assert_eq!(t.shared_node_count(&snap), t.node_count());
    }

    #[test]
    fn mutation_copies_only_the_root_to_leaf_path() {
        let mut t = Tree::new();
        for i in 0..100 {
            t.write(
                DomId::DOM0,
                &p(&format!("/data/bucket{}/k", i % 10)),
                b"v",
                &mut TreeDiff::default(),
            )
            .unwrap();
        }
        let snap = t.clone();
        let total = t.node_count();
        t.write(
            DomId::DOM0,
            &p("/data/bucket3/k"),
            b"w",
            &mut TreeDiff::default(),
        )
        .unwrap();
        // Only /, /data, /data/bucket3 and /data/bucket3/k were copied.
        let copied = total - t.shared_node_count(&snap);
        assert_eq!(copied, 4, "path copying must touch exactly the spine");
        // The snapshot still reads the old value.
        assert_eq!(snap.read(DomId::DOM0, &p("/data/bucket3/k")).unwrap(), b"v");
        assert_eq!(t.read(DomId::DOM0, &p("/data/bucket3/k")).unwrap(), b"w");
    }

    #[test]
    fn a_write_under_a_wide_directory_copies_the_spine_and_one_chunk() {
        let mut t = Tree::new();
        for i in 0..4096 {
            t.write(
                DomId::DOM0,
                &p(&format!("/wide/k{i}/leaf")),
                b"v",
                &mut TreeDiff::default(),
            )
            .unwrap();
        }
        let snap = t.clone();
        let total = t.node_count();
        t.write(
            DomId::DOM0,
            &p("/wide/k2000/leaf"),
            b"w",
            &mut TreeDiff::default(),
        )
        .unwrap();
        // Nodes: /, /wide, /wide/k2000 and the leaf, as under any fan-out.
        assert_eq!(total - t.shared_node_count(&snap), 4);
        // Of the wide directory's chunks, only the one holding k2000 was
        // copied; the snapshot still shares every other.
        let wide = &t.get(&p("/wide")).unwrap().children;
        let (shared, chunks) = wide.shared_chunk_counts(&snap.get(&p("/wide")).unwrap().children);
        assert!(chunks > 1, "4,096 children span many chunks");
        assert_eq!(shared, chunks - 1);
        // Entries: that one chunk, plus the single entries of / and k2000.
        let copied = total - 1 - t.shared_entry_count(&snap);
        assert!(
            (3..=CHUNK_MAX + 2).contains(&copied),
            "copied {copied} entries"
        );
        assert_eq!(
            snap.read(DomId::DOM0, &p("/wide/k2000/leaf")).unwrap(),
            b"v"
        );
    }

    #[test]
    fn snapshots_are_immune_to_later_mutations() {
        let mut t = Tree::new();
        t.write(DomId::DOM0, &p("/a/b"), b"1", &mut TreeDiff::default())
            .unwrap();
        t.write(DomId::DOM0, &p("/c"), b"2", &mut TreeDiff::default())
            .unwrap();
        let snap = t.clone();
        let paths_before = snap.all_paths();
        t.rm(DomId::DOM0, &p("/a"), &mut TreeDiff::default())
            .unwrap();
        t.write(DomId::DOM0, &p("/c"), b"3", &mut TreeDiff::default())
            .unwrap();
        t.write(DomId::DOM0, &p("/d/e"), b"4", &mut TreeDiff::default())
            .unwrap();
        assert_eq!(snap.all_paths(), paths_before);
        assert_eq!(snap.read(DomId::DOM0, &p("/a/b")).unwrap(), b"1");
        assert_eq!(snap.read(DomId::DOM0, &p("/c")).unwrap(), b"2");
        assert!(!snap.exists(&p("/d/e")));
    }

    // ---------------- structural diff -------------------------------------

    #[test]
    fn diff_of_identical_trees_is_empty() {
        let mut t = Tree::new();
        t.write(DomId::DOM0, &p("/a/b"), b"1", &mut TreeDiff::default())
            .unwrap();
        let snap = t.clone();
        let d = Tree::diff(&snap, &t);
        assert!(d.is_empty());
        assert_eq!(d.len(), 0);
    }

    #[test]
    fn diff_reports_adds_removes_and_changes() {
        let mut t = Tree::new();
        t.write(DomId::DOM0, &p("/keep"), b"same", &mut TreeDiff::default())
            .unwrap();
        t.write(DomId::DOM0, &p("/gone/x"), b"1", &mut TreeDiff::default())
            .unwrap();
        t.write(DomId::DOM0, &p("/edit"), b"old", &mut TreeDiff::default())
            .unwrap();
        let old = t.clone();
        t.rm(DomId::DOM0, &p("/gone"), &mut TreeDiff::default())
            .unwrap();
        t.write(DomId::DOM0, &p("/edit"), b"new", &mut TreeDiff::default())
            .unwrap();
        t.write(DomId::DOM0, &p("/fresh/y"), b"2", &mut TreeDiff::default())
            .unwrap();
        t.set_perms(
            DomId::DOM0,
            &p("/keep"),
            Permissions::with_default(DomId::DOM0, PermLevel::Write),
            &mut TreeDiff::default(),
        )
        .unwrap();

        let d = Tree::diff(&old, &t);
        assert_eq!(
            texts(d.added.iter().map(|(p, _)| p)),
            ["/fresh", "/fresh/y"]
        );
        // A removed subtree is its root, holding the rest.
        assert_eq!(texts(d.removed.iter().map(|(p, _)| p)), ["/gone"]);
        assert!(Rc::ptr_eq(
            &d.removed[0].1,
            old.root.children.get("gone").unwrap()
        ));
        assert_eq!(
            texts(per_node(&d.removed).iter().map(|(p, _)| p)),
            ["/gone", "/gone/x"]
        );
        assert_eq!(d.counts(), [2, 2, 1, 1]);
        assert_eq!(d.len(), 6);
        assert_eq!(d.value_changed, vec![p("/edit")]);
        assert_eq!(
            d.perms_changed,
            vec![(p("/keep"), DomId::DOM0, DomId::DOM0)]
        );
        // `changed` is the sorted union, the removed root carrying its
        // subtree.
        let changed: Vec<(String, Option<usize>)> = d
            .changed()
            .map(|(path, removed)| (path.to_string(), removed.map(Node::subtree_size)))
            .collect();
        assert_eq!(
            changed,
            [
                ("/edit".to_string(), None),
                ("/fresh".to_string(), None),
                ("/fresh/y".to_string(), None),
                ("/gone".to_string(), Some(2)),
                ("/keep".to_string(), None)
            ]
        );
    }

    #[test]
    fn diff_lists_are_globally_sorted() {
        // The tricky interleaving: a deep addition under an early-sorting
        // common subtree plus a shallow addition under a late-sorting name.
        // A naive two-loop walk would emit /a/deep/x before /m even though
        // /m sorts later than neither — the merge-iteration keeps every
        // list globally sorted.
        let mut t = Tree::new();
        t.write(DomId::DOM0, &p("/a/keep"), b"1", &mut TreeDiff::default())
            .unwrap();
        t.write(DomId::DOM0, &p("/z/keep"), b"1", &mut TreeDiff::default())
            .unwrap();
        let old = t.clone();
        t.write(DomId::DOM0, &p("/z/added"), b"2", &mut TreeDiff::default())
            .unwrap();
        t.write(DomId::DOM0, &p("/m"), b"3", &mut TreeDiff::default())
            .unwrap();
        t.write(
            DomId::DOM0,
            &p("/a/keep"),
            b"changed",
            &mut TreeDiff::default(),
        )
        .unwrap();
        t.rm(DomId::DOM0, &p("/z/keep"), &mut TreeDiff::default())
            .unwrap();
        let d = Tree::diff(&old, &t);
        let added: Vec<String> = d.added.iter().map(|(p, _)| p.to_string()).collect();
        assert_eq!(added, vec!["/m", "/z/added"]);
        let mut sorted = d.added.clone();
        sorted.sort();
        assert_eq!(d.added, sorted);
        assert!(d.value_changed.is_sorted());
        assert!(d.perms_changed.is_sorted());
        assert!(d.removed.is_sorted_by_key(|(path, _)| path));
    }

    #[test]
    fn removed_roots_collapses_each_subtree_independently() {
        let mut t = Tree::new();
        t.write(DomId::DOM0, &p("/a/x/deep"), b"1", &mut TreeDiff::default())
            .unwrap();
        t.write(DomId::DOM0, &p("/a/y"), b"2", &mut TreeDiff::default())
            .unwrap();
        t.write(DomId::DOM0, &p("/b/z"), b"3", &mut TreeDiff::default())
            .unwrap();
        t.write(DomId::DOM0, &p("/keep"), b"4", &mut TreeDiff::default())
            .unwrap();
        let old = t.clone();
        t.rm(DomId::DOM0, &p("/a/x"), &mut TreeDiff::default())
            .unwrap();
        t.rm(DomId::DOM0, &p("/b"), &mut TreeDiff::default())
            .unwrap();
        let d = Tree::diff(&old, &t);
        // /a/x (+deep) and /b (+z) removed; /a/y and /keep untouched.
        assert_eq!(texts(d.removed.iter().map(|(p, _)| p)), ["/a/x", "/b"]);
        assert_eq!(d.counts()[1], 4);
        assert_eq!(
            texts(per_node(&d.removed).iter().map(|(p, _)| p)),
            ["/a/x", "/a/x/deep", "/b", "/b/z"]
        );
    }

    #[test]
    fn a_removal_names_one_path_and_an_added_subtree_one_buffer_per_run() {
        let mut t = Tree::new();
        for leaf in ["a/b/c", "a/b/d", "a/e", "f"] {
            let path = p(&format!("/top/r/{leaf}"));
            t.write(DomId::DOM0, &path, b"1", &mut TreeDiff::default())
                .unwrap();
        }
        let before = t.clone();
        let r = p("/top/r");
        let mut effects = TreeDiff::default();
        t.rm(DomId::DOM0, &r, &mut effects).unwrap();
        // One entry: the op's own path and the node it unlinked, not a copy.
        assert_eq!(effects.removed.len(), 1);
        assert_eq!(effects.removed[0].0, r);
        let node = before.get(&r).unwrap();
        assert!(std::ptr::eq(&*effects.removed[0].1, node));
        assert_eq!(effects.counts(), [0, 7, 0, 0]);
        assert_eq!(
            texts(per_node(&effects.removed).iter().map(|(p, _)| p)),
            [
                "/top/r",
                "/top/r/a",
                "/top/r/a/b",
                "/top/r/a/b/c",
                "/top/r/a/b/d",
                "/top/r/a/e",
                "/top/r/f"
            ]
        );
        // The structural diff records it the same way.
        assert_eq!(Tree::diff(&before, &t), effects);
        // Added the other way round, the subtree is named node by node:
        // a, a/b and a/b/c are one run cut from the buffer of r's; d, e and
        // f each start their own.
        let added = Tree::diff(&t, &before).added;
        assert_eq!(added, per_node(&effects.removed));
        let shares = |a: usize, b: usize| added[a].0.shares_buffer_with(&added[b].0);
        assert!(shares(0, 1) && shares(1, 2) && shares(2, 3));
        assert!(!shares(3, 4) && !shares(4, 5) && !shares(5, 6) && !shares(1, 6));
    }

    #[test]
    fn diff_carries_owners_for_quota_accounting() {
        let mut t = Tree::new();
        t.mkdir(DomId::DOM0, &p("/local/domain/7"), &mut TreeDiff::default())
            .unwrap();
        t.set_perms(
            DomId::DOM0,
            &p("/local/domain/7"),
            Permissions::owned_by(DomId(7)),
            &mut TreeDiff::default(),
        )
        .unwrap();
        let old = t.clone();
        t.write(
            DomId(7),
            &p("/local/domain/7/k"),
            b"v",
            &mut TreeDiff::default(),
        )
        .unwrap();
        let d = Tree::diff(&old, &t);
        assert_eq!(d.added, vec![(p("/local/domain/7/k"), DomId(7))]);
        let back = Tree::diff(&t, &old);
        assert_eq!(per_node(&back.removed), d.added);
    }

    #[test]
    fn diff_ignores_generation_only_differences() {
        // Rebuilding the same content through a different op sequence yields
        // different generation stamps but an empty semantic diff.
        let mut a = Tree::new();
        a.write(DomId::DOM0, &p("/x"), b"1", &mut TreeDiff::default())
            .unwrap();
        let mut b = Tree::new();
        b.mkdir(DomId::DOM0, &p("/x"), &mut TreeDiff::default())
            .unwrap();
        b.write(DomId::DOM0, &p("/x"), b"1", &mut TreeDiff::default())
            .unwrap();
        assert!(Tree::diff(&a, &b).is_empty());
    }

    /// The diff with no shortcuts: every path of either tree, looked up in
    /// both. `all_paths` is depth-first in sorted order, so the lists come
    /// out in the order `Tree::diff` promises. A removed node whose parent
    /// is still there is a removed subtree's root.
    fn reference_diff(old: &Tree, new: &Tree) -> TreeDiff {
        let mut diff = TreeDiff::default();
        for path in old.all_paths() {
            let before = old.get(&path).unwrap();
            match new.get(&path) {
                None if path.parent().is_some_and(|parent| !new.exists(&parent)) => {}
                None => diff.removed.push((path, Rc::new(before.clone()))),
                Some(after) => {
                    if before.value != after.value {
                        diff.value_changed.push(path.clone());
                    }
                    if before.perms != after.perms {
                        let owners = (before.perms.owner(), after.perms.owner());
                        diff.perms_changed.push((path, owners.0, owners.1));
                    }
                }
            }
        }
        for path in new.all_paths() {
            if !old.exists(&path) {
                let owner = new.get(&path).unwrap().perms.owner();
                diff.added.push((path, owner));
            }
        }
        diff
    }

    /// `steps` random mutations, under two wide directories (hundreds of
    /// children, so their maps span, split and merge chunks) and one
    /// narrow, three levels deep.
    fn mutate(t: &mut Tree, rng: &mut SimRng, steps: usize) {
        for step in 0..steps {
            let dir = ["wide", "also-wide", "narrow"][rng.index(3)];
            let fan = if dir == "narrow" { 4 } else { 400 };
            let mut path = format!("/{dir}/n{}", rng.index(fan));
            if rng.chance(0.5) {
                path.push_str(&format!("/leaf{}", rng.index(3)));
            }
            let path = p(&path);
            // Failures (removing what is not there) are part of the mix.
            match rng.index(8) {
                0 | 1 => drop(t.rm(DomId::DOM0, &path, &mut TreeDiff::default())),
                2 => drop(t.set_perms(
                    DomId::DOM0,
                    &path,
                    Permissions::owned_by(DomId(rng.index(3) as u32)),
                    &mut TreeDiff::default(),
                )),
                3 => drop(t.mkdir(DomId::DOM0, &path, &mut TreeDiff::default())),
                _ => drop(t.write(DomId::DOM0, &path, &[step as u8], &mut TreeDiff::default())),
            }
        }
    }

    #[test]
    fn chunk_skipping_diff_equals_the_full_walk_reference() {
        for seed in 0..12 {
            let mut rng = SimRng::seed_from_u64(0xD1FF ^ seed);
            let mut old = Tree::new();
            mutate(&mut old, &mut rng, 1_500);
            // A pair that shares almost everything, a pair that has
            // drifted far apart, and a pair that shares nothing.
            let mut near = old.clone();
            let few = 1 + rng.index(12);
            mutate(&mut near, &mut rng, few);
            let mut far = near.clone();
            mutate(&mut far, &mut rng, 1_200);
            let mut unrelated = Tree::new();
            mutate(&mut unrelated, &mut rng, 800);
            for new in [&old, &near, &far, &unrelated] {
                for (from, to) in [(&old, new), (new, &old)] {
                    let diff = Tree::diff(from, to);
                    assert_eq!(diff, reference_diff(from, to), "seed {seed}");
                    assert!(diff.added.is_sorted());
                    assert!(diff.removed.is_sorted_by_key(|(path, _)| path));
                    assert!(diff.value_changed.is_sorted());
                    assert!(diff.perms_changed.is_sorted());
                    // Each removed subtree is the node `from` held there.
                    for (root, node) in &diff.removed {
                        assert!(std::ptr::eq(&**node, from.get(root).unwrap()));
                    }
                    // Expanded node by node, the subtrees are every path of
                    // `from` that `to` lacks.
                    let gone: Vec<Path> = from
                        .all_paths()
                        .into_iter()
                        .filter(|path| !to.exists(path))
                        .collect();
                    let expanded: Vec<Path> = per_node(&diff.removed)
                        .into_iter()
                        .map(|(p, _)| p)
                        .collect();
                    assert_eq!(expanded, gone);
                    assert_eq!(diff.counts()[1], gone.len());
                }
            }
        }
    }
}
