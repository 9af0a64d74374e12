//! Store tree nodes.
//!
//! Nodes are the unit of structural sharing in the persistent store tree:
//! children are held behind [`Rc`]s, so cloning a node (or a whole
//! [`crate::tree::Tree`]) copies pointers, not subtrees. A transaction
//! snapshot is therefore an O(1) root copy, and a mutation copies only the
//! nodes on the root-to-leaf path it touches (path copying) while every
//! untouched sibling subtree stays shared between the snapshot and the live
//! tree. Copying a node copies a directory's entries — a name pointer and
//! a child pointer each, which the node holds itself for up to 64 children
//! — and of a wider directory only its chunk pointers, so the cost of a
//! write grows with the fan-out of the directories above it only up to one
//! chunk a level ([`ChildMap`]).
//!
//! A node is one allocation: a leaf's child map owns no memory and
//! permissions hold their owner entry inline. Creating a node costs that
//! allocation, its value and its name in the parent's map — plus, for the
//! first child of a leaf, the parent's entry buffer.
//!
//! The counts are [`Rc`]'s plain ones, not `Arc`'s atomic ones: the store
//! lives on the simulator's one thread. Every level of a write's descent
//! asks `Rc::make_mut` whether the node is shared, and on a node nobody
//! else holds — every node, while no transaction is open (see
//! [`crate::tree::Tree::shared_paths`]) — that is a load and a compare,
//! not a locked compare-exchange; copying or dropping a chunk adjusts each
//! entry's count with a plain add.

use crate::children::ChildMap;
use crate::perms::Permissions;
use std::rc::Rc;

/// Maximum size of a node's value, matching the classic XenStore payload
/// limit of 4096 bytes.
pub const MAX_VALUE_LEN: usize = 4096;

/// One node of the store tree: a value, child nodes, permissions and the
/// generation counters used by the transaction reconciliation engines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Node {
    /// The node's value (may be empty — directories usually are).
    pub value: Vec<u8>,
    /// Children keyed by component name, each behind an [`Rc`] so sibling
    /// subtrees are structurally shared across snapshots. The map iterates
    /// in name order, which keeps directory listings deterministic.
    pub children: ChildMap<Rc<Node>>,
    /// Access control for this node.
    pub perms: Permissions,
    /// Store generation at which this node was created.
    pub created_gen: u64,
    /// Store generation at which the value or permissions last changed.
    pub modified_gen: u64,
    /// Store generation at which the set of children last changed.
    pub children_gen: u64,
}

impl Node {
    /// Create a node with the given permissions at generation `gen`.
    pub fn new(perms: Permissions, gen: u64) -> Node {
        Node {
            value: Vec::new(),
            children: ChildMap::new(),
            perms,
            created_gen: gen,
            modified_gen: gen,
            children_gen: gen,
        }
    }

    /// Number of nodes in this subtree, including this node.
    pub fn subtree_size(&self) -> usize {
        1 + self
            .children
            .values()
            .map(|c| c.subtree_size())
            .sum::<usize>()
    }

    /// Child names in deterministic (sorted) order.
    pub fn child_names(&self) -> Vec<String> {
        let mut names = Vec::with_capacity(self.children.len());
        names.extend(self.children.keys().map(str::to_string));
        names
    }

    /// True if the node has no children.
    pub fn is_leaf(&self) -> bool {
        self.children.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perms::DomId;

    #[test]
    fn new_node_is_empty_leaf() {
        let n = Node::new(Permissions::owned_by(DomId::DOM0), 5);
        assert!(n.value.is_empty());
        assert!(n.is_leaf());
        assert_eq!(n.created_gen, 5);
        assert_eq!(n.modified_gen, 5);
        assert_eq!(n.children_gen, 5);
        assert_eq!(n.subtree_size(), 1);
    }

    #[test]
    fn subtree_size_counts_descendants() {
        let mut root = Node::new(Permissions::owned_by(DomId::DOM0), 0);
        let mut a = Node::new(Permissions::owned_by(DomId::DOM0), 1);
        a.children.insert(
            "x",
            Rc::new(Node::new(Permissions::owned_by(DomId::DOM0), 2)),
        );
        root.children.insert("a", Rc::new(a));
        root.children.insert(
            "b",
            Rc::new(Node::new(Permissions::owned_by(DomId::DOM0), 3)),
        );
        assert_eq!(root.subtree_size(), 4);
        assert_eq!(root.child_names(), vec!["a".to_string(), "b".to_string()]);
        assert!(!root.is_leaf());
    }

    #[test]
    fn cloning_a_node_shares_child_subtrees() {
        let mut root = Node::new(Permissions::owned_by(DomId::DOM0), 0);
        let child = Rc::new(Node::new(Permissions::owned_by(DomId::DOM0), 1));
        root.children.insert("a", Rc::clone(&child));
        let copy = root.clone();
        // Both nodes hold a pointer to the one child allocation.
        for node in [&root, &copy] {
            assert!(node
                .children
                .get("a")
                .is_some_and(|c| Rc::ptr_eq(c, &child)));
        }
    }
}
