//! The store tree: a permission-checked hierarchical value store with
//! generation tracking, built on persistent (structurally shared) nodes.
//!
//! `Tree` implements the data model shared by the live store and by
//! transaction snapshots. The root is held behind an [`Arc`], so cloning a
//! tree — which is how transaction snapshots are taken — is an O(1) pointer
//! copy regardless of store size. Mutations use *path copying*: only the
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
//! call would yield (nothing, for a call that fails: the mutators decide
//! before they touch). The store settles quotas and fires watches for
//! a direct op from that record, so it holds no pre-image of the tree, and
//! a tree nobody else holds is mutated in place: no node is copied.
//!
//! [`Tree::diff`] computes the structural difference between two trees,
//! skipping shared subtrees — and, inside a directory, whole shared chunks
//! of its [`crate::children::ChildMap`] — in O(1) via pointer equality. It
//! is for the case no single call can report: a transaction's net effect
//! (`base → snapshot`), and what a three-way merge onto a tree that moved
//! meanwhile actually changed.
//!
//! Naming what changed is kept proportional to it. A [`Path`] is a prefix of
//! a shared buffer, so the ancestors a write creates are cut from the
//! written path, and a removed or added subtree allocates one buffer per run
//! of first children — a node is a prefix of its first child — not one per
//! node; the diff builds a path only for a node it reports.

use crate::error::{Error, Result};
use crate::node::{Node, MAX_VALUE_LEN};
use crate::path::Path;
use crate::perms::{Access, DomId, Permissions};
use std::borrow::Cow;
use std::sync::Arc;

/// A permission-checked hierarchical store with generation tracking.
///
/// Cloning a `Tree` is O(1): the clone shares every node with the original
/// until one of the two is mutated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tree {
    root: Arc<Node>,
    generation: u64,
}

/// The structural difference between two trees, as computed by
/// [`Tree::diff`] or recorded by one mutator call. Every list is in
/// depth-first (sorted-by-component) order, which for [`Path`]'s
/// component-wise ordering means each list is sorted (binary-searchable)
/// and parents always precede their descendants in `added` and `removed`.
/// (A record that several mutator calls appended to is a log of their
/// effects in call order, not a net difference.)
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TreeDiff {
    /// Nodes present in `new` but not in `old`, with their owning domain in
    /// `new`.
    pub added: Vec<(Path, DomId)>,
    /// Nodes present in `old` but not in `new`, with their owning domain in
    /// `old`. A removed subtree contributes every removed descendant.
    pub removed: Vec<(Path, DomId)>,
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
    /// permissions counts twice).
    pub fn len(&self) -> usize {
        self.added.len() + self.removed.len() + self.value_changed.len() + self.perms_changed.len()
    }

    /// Forget every recorded change, keeping the lists' buffers.
    pub fn clear(&mut self) {
        self.added.clear();
        self.removed.clear();
        self.value_changed.clear();
        self.perms_changed.clear();
    }

    /// Number of recorded changes of each kind: added, removed, value
    /// changed, permissions changed.
    pub fn counts(&self) -> [usize; 4] {
        [
            self.added.len(),
            self.removed.len(),
            self.value_changed.len(),
            self.perms_changed.len(),
        ]
    }

    /// Every path that changed in any way, in sorted order, each once — the
    /// paths the store fires watches for after a mutation. A merge of the
    /// four lists, so each must be sorted and hold a path once, as
    /// [`Tree::diff`] and any single mutator call leave them.
    pub fn changed_paths(&self) -> impl Iterator<Item = &Path> {
        let mut at = [0; 4];
        std::iter::from_fn(move || {
            let heads = [
                self.added.get(at[0]).map(|(path, _)| path),
                self.removed.get(at[1]).map(|(path, _)| path),
                self.value_changed.get(at[2]),
                self.perms_changed.get(at[3]).map(|(path, _, _)| path),
            ];
            let least = heads.into_iter().flatten().min()?;
            // A path that heads several lists is stepped past in all.
            for (at, head) in at.iter_mut().zip(heads) {
                *at += usize::from(head == Some(least));
            }
            Some(least)
        })
    }

    /// The topmost removed paths: removed nodes whose ancestors all still
    /// exist. Removing exactly these (as subtrees) reproduces every entry
    /// of `removed`. Linear: `removed` is emitted depth-first with each
    /// subtree contiguous and root-first, so a path belongs to the current
    /// root's subtree iff that root is a prefix of it.
    pub fn removed_roots(&self) -> Vec<&Path> {
        let mut roots: Vec<&Path> = Vec::new();
        for (path, _) in &self.removed {
            if !roots.last().is_some_and(|root| root.is_prefix_of(path)) {
                roots.push(path);
            }
        }
        roots
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
            root: Arc::new(Node::new(perms, 0)),
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
        Arc::ptr_eq(&self.root, &other.root)
    }

    /// Number of nodes of `self` that are structurally shared (same
    /// allocation) with `other`. Together with [`Tree::node_count`] this
    /// measures how many nodes a sequence of mutations actually copied:
    /// `copied = node_count() - shared_node_count(snapshot)`.
    pub fn shared_node_count(&self, other: &Tree) -> usize {
        fn walk(a: &Arc<Node>, b: &Arc<Node>) -> usize {
            if Arc::ptr_eq(a, b) {
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
        fn walk(a: &Arc<Node>, b: &Arc<Node>) -> usize {
            if Arc::ptr_eq(a, b) {
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

    fn bump(&mut self) -> u64 {
        self.generation += 1;
        self.generation
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
        let node = self
            .get(path)
            .ok_or_else(|| Error::NoEntry(path.to_string()))?;
        if node.perms.check(dom, access) {
            Ok(node)
        } else {
            Err(Error::PermissionDenied(path.to_string()))
        }
    }

    /// Read a node's value.
    pub fn read(&self, dom: DomId, path: &Path) -> Result<Vec<u8>> {
        Ok(self.checked(dom, path, Access::Read)?.value.clone())
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
        let node = self
            .get(path)
            .ok_or_else(|| Error::NoEntry(path.to_string()))?;
        if !dom.is_privileged() && node.perms.owner() != dom {
            return Err(Error::PermissionDenied(path.to_string()));
        }
        let gen = self.bump();
        // jitsu-lint: allow(P001, "presence checked by the lookup above")
        let node = descend_mut(&mut self.root, path.components()).expect("checked above");
        if node.perms != perms {
            let change = (path.clone(), node.perms.owner(), perms.owner());
            effects.perms_changed.push(change);
            node.perms = perms;
        }
        node.modified_gen = gen;
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
    /// (`None`: an existing node is left alone, a new one is empty). A value
    /// the caller owns is moved into the node, a borrowed one copied.
    fn put(
        &mut self,
        dom: DomId,
        path: &Path,
        value: Option<Cow<'_, [u8]>>,
        effects: &mut TreeDiff,
    ) -> Result<()> {
        // One descent finds the node, or else the deepest ancestor that
        // exists (`anchor`, `found` components down) and the first name
        // missing under it; `below` is left holding the names after that.
        let mut below = path.components();
        let mut anchor = &*self.root;
        let mut found = 0;
        let mut first_missing = None;
        for name in below.by_ref() {
            match anchor.children.get(name) {
                Some(child) => anchor = child,
                None => {
                    first_missing = Some(name);
                    break;
                }
            }
            found += 1;
        }
        let Some(first_missing) = first_missing else {
            let Some(value) = value else {
                return Ok(());
            };
            if !anchor.perms.check(dom, Access::Write) {
                return Err(Error::PermissionDenied(path.to_string()));
            }
            let gen = self.bump();
            // jitsu-lint: allow(P001, "the descent above found this node")
            let node = descend_mut(&mut self.root, path.components()).expect("found above");
            if node.value != *value {
                effects.value_changed.push(path.clone());
                match value {
                    Cow::Owned(value) => node.value = value,
                    Cow::Borrowed(value) => value.clone_into(&mut node.value),
                }
            }
            node.modified_gen = gen;
            return Ok(());
        };
        // Whether each missing node may be created depends on permissions
        // alone — its parent's, which for all but the first is the node
        // created just before it — and only the first can refuse: whoever
        // creates a directory may write to it. So the first decides for the
        // whole spine before anything is touched, and a refusal creates
        // nothing.
        let Some(mut perms) = Self::new_child_perms(dom, &anchor.perms) else {
            return Err(Error::PermissionDenied(path.ancestor(found).to_string()));
        };
        // Each creation is its own generation, stamped on the new node and
        // on its parent's child list.
        let mut gen = self.generation;
        let mut depth = found;
        effects.added.reserve(path.depth() - found);
        // jitsu-lint: allow(P001, "the descent above ended at this node")
        let mut node = descend_mut(&mut self.root, path.components().take(found)).expect("found");
        for name in std::iter::once(first_missing).chain(below) {
            gen += 1;
            depth += 1;
            effects.added.push((path.ancestor(depth), perms.owner()));
            let next = Self::new_child_perms(dom, &perms)
                // jitsu-lint: allow(P001, "permissions derived for a creator let that creator write")
                .expect("a creator may create under what it created");
            node.children.insert(
                name,
                Arc::new(Node::new(std::mem::replace(&mut perms, next), gen)),
            );
            node.children_gen = gen;
            // jitsu-lint: allow(P001, "the child was inserted two lines up")
            node = Arc::make_mut(node.children.get_mut(name).expect("just inserted"));
        }
        if let Some(value) = value {
            node.value = value.into_owned();
        }
        self.generation = gen;
        Ok(())
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
        self.write_value(dom, path, Cow::Borrowed(value), effects)
    }

    /// [`Tree::write`] for a value the caller may already own: an owned
    /// value becomes the node's without being copied again.
    pub(crate) fn write_value(
        &mut self,
        dom: DomId,
        path: &Path,
        value: Cow<'_, [u8]>,
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

    /// Create an empty node (no-op if it already exists, as in the real
    /// protocol), with any missing ancestors. What changed is appended to
    /// `effects`; a call that fails changes nothing.
    pub fn mkdir(&mut self, dom: DomId, path: &Path, effects: &mut TreeDiff) -> Result<()> {
        self.put(dom, path, None, effects)
    }

    /// Remove a node and its entire subtree, appending every removed node
    /// to `effects`. Removing a missing node returns `ENOENT`; removing
    /// the root is invalid.
    pub fn rm(&mut self, dom: DomId, path: &Path, effects: &mut TreeDiff) -> Result<()> {
        let (Some(parent), Some(name)) = (path.parent(), path.basename()) else {
            return Err(Error::Invalid("cannot remove the root node".into()));
        };
        self.checked(dom, path, Access::Write)?;
        let gen = self.bump();
        // jitsu-lint: allow(P001, "the child was found, so its parent is present")
        let parent_node = descend_mut(&mut self.root, parent.components()).expect("parent exists");
        if let Some(removed) = parent_node.children.remove(name) {
            effects.removed.push((path.clone(), removed.perms.owner()));
            if !removed.is_leaf() {
                let mut text = scratch_text(path);
                record_children(&removed, &mut text, &mut effects.removed);
            }
        }
        parent_node.children_gen = gen;
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
    /// Subtrees shared between the two trees (same `Arc` allocation) are
    /// skipped without descending, and so is every child-map chunk the two
    /// versions of a directory share, so diffing a tree against a snapshot
    /// it was mutated from costs O(changed paths), not O(store size) and
    /// not O(fan-out of the directories above a change). On unrelated
    /// trees the diff degrades gracefully to a full semantic comparison
    /// (generation counters are ignored — only value, permission and
    /// existence changes are reported).
    pub fn diff(old: &Tree, new: &Tree) -> TreeDiff {
        let mut diff = TreeDiff::default();
        /// `text` is the canonical text of the path of `old` and `new`; a
        /// `Path` is built from it only for what goes into `diff`, so the
        /// copied-but-equal nodes above a change cost no allocation.
        fn walk(old: &Node, new: &Node, text: &mut String, diff: &mut TreeDiff) {
            let value_changed = old.value != new.value;
            let perms_changed = old.perms != new.perms;
            if value_changed || perms_changed {
                let path = Path::from_canonical(text);
                if perms_changed {
                    let change = (path.clone(), old.perms.owner(), new.perms.owner());
                    diff.perms_changed.push(change);
                }
                if value_changed {
                    diff.value_changed.push(path);
                }
            }
            // Children: a single merge-iteration over both sorted maps, so
            // every diff list comes out in globally sorted DFS order (the
            // invariant `removed_roots` and the merge's binary searches
            // rely on). Shared chunks and shared children are stepped over
            // before any path text is built for them: they hold no
            // difference, and under a wide directory they are all but one
            // of the entries.
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
                        if !Arc::ptr_eq(old_child, new_child) {
                            push_component(text, here, name);
                            walk(old_child, new_child, text, diff);
                        }
                    }
                    (Some((name, old_child)), None) => {
                        push_component(text, here, name);
                        record_subtree(old_child, text, &mut diff.removed);
                    }
                    (None, Some((name, new_child))) => {
                        push_component(text, here, name);
                        record_subtree(new_child, text, &mut diff.added);
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
        if !Arc::ptr_eq(&old.root, &new.root) {
            let mut text = String::with_capacity(SCRATCH_TEXT_LEN);
            walk(&old.root, &new.root, &mut text, &mut diff);
        }
        diff
    }
}

/// Mutable descent via path copying: every node from `root` down
/// `components` that is still shared with a snapshot is copied (shallowly —
/// its child *pointers* are cloned, not the subtrees), so the mutation never
/// disturbs other trees holding the old nodes. Nodes nobody else holds are
/// handed out as they are: a tree with no snapshot is mutated in place.
fn descend_mut<'a, 'p>(
    root: &'a mut Arc<Node>,
    components: impl Iterator<Item = &'p str>,
) -> Option<&'a mut Node> {
    let mut node = Arc::make_mut(root);
    for comp in components {
        node = Arc::make_mut(node.children.get_mut(comp)?);
    }
    Some(node)
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
/// its first child's: one buffer is allocated per run of first children — for
/// `node`, its first child, that child's first child and so on down to a
/// leaf — and each path along the run is cut from it. Only a later sibling
/// needs a buffer of its own, for the run that starts with it.
fn record_subtree(node: &Node, text: &mut String, out: &mut Vec<(Path, DomId)>) {
    let top = text.len();
    let mut end = node;
    while let Some((name, first)) = end.children.iter().next() {
        text.push('/');
        text.push_str(name);
        end = first;
    }
    let leaf = Path::from_canonical(text);
    record_run(node, &leaf, top, text, out);
}

/// [`record_subtree`] for a `node` whose path is the first `len` bytes of
/// the buffer `run` was made from, which is also how `text` begins.
fn record_run(
    node: &Node,
    run: &Path,
    len: usize,
    text: &mut String,
    out: &mut Vec<(Path, DomId)>,
) {
    out.push((run.cut(len), node.perms.owner()));
    let mut children = node.children.iter();
    if let Some((name, first)) = children.next() {
        record_run(first, run, len + 1 + name.len(), text, out);
    }
    for (name, child) in children {
        push_component(text, len, name);
        record_subtree(child, text, out);
    }
}

/// Append every descendant of `node`, whose path has the canonical text
/// `text`, to `out`, depth-first in name order.
fn record_children(node: &Node, text: &mut String, out: &mut Vec<(Path, DomId)>) {
    let here = text.len();
    for (name, child) in node.children.iter() {
        push_component(text, here, name);
        record_subtree(child, text, out);
    }
}

/// The path of the child `name` of `parent`, for names read back out of the
/// tree.
fn child_path(parent: &Path, name: &str) -> Path {
    parent
        .child(name)
        // jitsu-lint: allow(P001, "child names were validated when inserted into the tree")
        .expect("stored names are valid")
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
        let added: Vec<String> = d.added.iter().map(|(p, _)| p.to_string()).collect();
        let removed: Vec<String> = d.removed.iter().map(|(p, _)| p.to_string()).collect();
        assert_eq!(added, vec!["/fresh", "/fresh/y"]);
        assert_eq!(removed, vec!["/gone", "/gone/x"]);
        assert_eq!(d.value_changed, vec![p("/edit")]);
        assert_eq!(
            d.perms_changed,
            vec![(p("/keep"), DomId::DOM0, DomId::DOM0)]
        );
        // Removed roots collapse the subtree to its topmost node.
        assert_eq!(d.removed_roots(), vec![&p("/gone")]);
        // changed_paths is the sorted union.
        assert_eq!(
            d.changed_paths().cloned().collect::<Vec<_>>(),
            vec![
                p("/edit"),
                p("/fresh"),
                p("/fresh/y"),
                p("/gone"),
                p("/gone/x"),
                p("/keep")
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
        let mut sorted = d.removed.clone();
        sorted.sort();
        assert_eq!(d.removed, sorted);
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
        assert_eq!(d.removed.len(), 4);
        assert_eq!(d.removed_roots(), vec![&p("/a/x"), &p("/b")]);
    }

    #[test]
    fn a_removed_subtree_names_each_run_of_first_children_from_one_buffer() {
        let mut t = Tree::new();
        for leaf in ["a/b/c", "a/b/d", "a/e", "f"] {
            let path = p(&format!("/top/r/{leaf}"));
            t.write(DomId::DOM0, &path, b"1", &mut TreeDiff::default())
                .unwrap();
        }
        let before = t.clone();
        let mut effects = TreeDiff::default();
        t.rm(DomId::DOM0, &p("/top/r"), &mut effects).unwrap();
        let removed: Vec<String> = effects.removed.iter().map(|(p, _)| p.to_string()).collect();
        assert_eq!(
            removed,
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
        let shares = |a: usize, b: usize| {
            effects.removed[a]
                .0
                .shares_buffer_with(&effects.removed[b].0)
        };
        // a, a/b and a/b/c are one run; d, e and f each start their own.
        assert!(shares(1, 2) && shares(2, 3));
        assert!(!shares(3, 4) && !shares(4, 5) && !shares(5, 6) && !shares(1, 6));
        // The structural diff names them the same way, from the root down.
        let diff = Tree::diff(&before, &t);
        assert_eq!(diff.removed, effects.removed);
        let shares = |a: usize, b: usize| diff.removed[a].0.shares_buffer_with(&diff.removed[b].0);
        assert!(shares(0, 1) && shares(1, 3) && !shares(3, 4));
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
        assert_eq!(back.removed, vec![(p("/local/domain/7/k"), DomId(7))]);
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
    /// out in the order `Tree::diff` promises.
    fn reference_diff(old: &Tree, new: &Tree) -> TreeDiff {
        let mut diff = TreeDiff::default();
        for path in old.all_paths() {
            let before = old.get(&path).unwrap();
            match new.get(&path) {
                None => diff.removed.push((path, before.perms.owner())),
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
                    assert!(diff.removed.is_sorted());
                    assert!(diff.value_changed.is_sorted());
                    assert!(diff.perms_changed.is_sorted());
                    // Contiguity: the roots, each with its whole subtree
                    // right behind it, are all of `removed`.
                    let regrown: usize = diff
                        .removed_roots()
                        .iter()
                        .map(|root| {
                            let at = diff.removed.binary_search_by(|(p, _)| p.cmp(root));
                            let subtree = &diff.removed[at.unwrap()..];
                            subtree
                                .iter()
                                .take_while(|(p, _)| root.is_prefix_of(p))
                                .count()
                        })
                        .sum();
                    assert_eq!(regrown, diff.removed.len());
                }
            }
        }
    }
}
