//! The mutators [`Tree::set_perms`], [`Tree::write`], [`Tree::mkdir`] and
//! [`Tree::rm`] as they were before each walked its path once: a read-only
//! descent decided, then a second, copying descent searched every level
//! again, and each node created was searched for again right after it was
//! inserted. Kept as the reference the one-walk mutators are held to:
//! same results, same effects, and trees equal in every value, permission
//! and generation stamp, with and without a snapshot sharing the nodes.

use super::*;
use crate::perms::PermLevel;
use jitsu_sim::SimRng;

impl Tree {
    fn bump(&mut self) -> u64 {
        self.generation += 1;
        self.generation
    }

    fn set_perms_two_walks(
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
        let node = descend_mut_again(&mut self.root, path.components()).expect("checked above");
        if node.perms != perms {
            let change = (path.clone(), node.perms.owner(), perms.owner());
            effects.perms_changed.push(change);
            node.perms = perms;
        }
        node.modified_gen = gen;
        Ok(())
    }

    fn put_two_walks(
        &mut self,
        dom: DomId,
        path: &Path,
        value: Option<&[u8]>,
        effects: &mut TreeDiff,
    ) -> Result<()> {
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
            if !anchor.perms.check(dom, Access::Write) {
                return Err(Error::PermissionDenied(path.to_string()));
            }
            let Some(value) = value else {
                return Ok(());
            };
            let gen = self.bump();
            let node = descend_mut_again(&mut self.root, path.components()).expect("found above");
            if node.value != value {
                effects.value_changed.push(path.clone());
                value.clone_into(&mut node.value);
            }
            node.modified_gen = gen;
            return Ok(());
        };
        let Some(mut perms) = Self::new_child_perms(dom, &anchor.perms) else {
            return Err(Error::PermissionDenied(path.ancestor(found).to_string()));
        };
        let mut gen = self.generation;
        let mut depth = found;
        effects.added.reserve(path.depth() - found);
        let mut node =
            descend_mut_again(&mut self.root, path.components().take(found)).expect("found");
        for name in std::iter::once(first_missing).chain(below) {
            gen += 1;
            depth += 1;
            effects.added.push((path.ancestor(depth), perms.owner()));
            let next = Self::new_child_perms(dom, &perms)
                .expect("a creator may create under what it created");
            node.children.insert(
                name,
                Rc::new(Node::new(std::mem::replace(&mut perms, next), gen)),
            );
            node.children_gen = gen;
            let at = node.children.find(name).expect("just inserted");
            node = Rc::make_mut(node.children.at_mut(at));
        }
        if let Some(value) = value {
            node.value = value.to_vec();
        }
        self.generation = gen;
        Ok(())
    }

    fn rm_two_walks(&mut self, dom: DomId, path: &Path, effects: &mut TreeDiff) -> Result<()> {
        let (Some(parent), Some(name)) = (path.parent(), path.basename()) else {
            return Err(Error::Invalid("cannot remove the root node".into()));
        };
        self.checked(dom, path, Access::Write)?;
        let gen = self.bump();
        let parent_node =
            descend_mut_again(&mut self.root, parent.components()).expect("parent exists");
        let at = parent_node.children.find(name);
        if let Some(removed) = at.map(|at| parent_node.children.remove_at(at)) {
            effects.removed.push((path.clone(), removed));
        }
        parent_node.children_gen = gen;
        Ok(())
    }
}

/// The copying descent of a path already found to exist: every level is
/// searched a second time.
fn descend_mut_again<'a, 'p>(
    root: &'a mut Rc<Node>,
    components: impl Iterator<Item = &'p str>,
) -> Option<&'a mut Node> {
    let mut node = Rc::make_mut(root);
    for comp in components {
        let at = node.children.find(comp)?;
        node = Rc::make_mut(node.children.at_mut(at));
    }
    Some(node)
}

const GUESTS: [DomId; 3] = [DomId(3), DomId(7), DomId(9)];

/// One random op over a small path space of guest homes, a create-restricted
/// spool and dom0's own nodes, so that creations of one to five nodes,
/// overwrites, removals of populated subtrees, refusals and no-ops all come
/// up often.
#[derive(Debug)]
enum Op {
    Write(Path, u8),
    Mkdir(Path),
    Rm(Path),
    SetPerms(Path, Permissions),
}

fn random_op(rng: &mut SimRng) -> (DomId, Op) {
    let dom = if rng.chance(0.4) {
        DomId::DOM0
    } else {
        GUESTS[rng.index(GUESTS.len())]
    };
    let mut text = [
        "/local/domain/3",
        "/local/domain/7",
        "/local/domain/9",
        "/spool",
        "/tool",
        "/local/domain",
    ][rng.index(6)]
    .to_string();
    for _ in 0..rng.index(5) {
        text.push_str(["/a", "/b", "/c-1", "/c"][rng.index(4)]);
    }
    let path = Path::parse(&text).unwrap();
    let op = match rng.index(10) {
        0..=4 => Op::Write(path, rng.index(3) as u8),
        5 => Op::Mkdir(path),
        6 | 7 => Op::Rm(path),
        _ => {
            let owner = [DomId::DOM0, GUESTS[0], GUESTS[1], GUESTS[2]][rng.index(4)];
            let level = [PermLevel::None, PermLevel::Read, PermLevel::ReadWrite][rng.index(3)];
            let perms = Permissions::with_default(owner, level);
            Op::SetPerms(
                path,
                if rng.chance(0.2) {
                    perms.create_restricted()
                } else {
                    perms
                },
            )
        }
    };
    (dom, op)
}

#[test]
fn one_walk_mutators_equal_the_two_walk_reference_with_and_without_a_snapshot() {
    let mut seen = [0usize; 4]; // refused in place / shared, done in place / shared
    for seed in 0..6 {
        let mut rng = SimRng::seed_from_u64(0x0E_3A1C ^ seed);
        let mut tree = Tree::new();
        let mut reference = Tree::new();
        for (text, owner) in [
            ("/local/domain/3", GUESTS[0]),
            ("/local/domain/7", GUESTS[1]),
            ("/local/domain/9", GUESTS[2]),
            ("/spool", GUESTS[0]),
        ] {
            let path = Path::parse(text).unwrap();
            let mut perms = Permissions::owned_by(owner);
            if text == "/spool" {
                perms = perms.create_restricted();
            }
            for t in [&mut tree, &mut reference] {
                let unused = &mut TreeDiff::default();
                t.mkdir(DomId::DOM0, &path, unused).unwrap();
                t.set_perms(DomId::DOM0, &path, perms.clone(), unused)
                    .unwrap();
            }
        }
        for step in 0..2_000 {
            let (dom, op) = random_op(&mut rng);
            // `before` shares the reference's nodes, never the tree's: on
            // half the steps nothing else holds the tree and it is mutated
            // in place; on the other half `held` does, and it path-copies.
            let before = reference.clone();
            let held = rng.chance(0.5).then(|| tree.clone());
            let in_place = Rc::strong_count(&tree.root) == 1;
            assert_eq!(in_place, held.is_none());
            let (mut effects, mut expected) = (TreeDiff::default(), TreeDiff::default());
            let (result, reference_result) = match &op {
                Op::Write(path, value) => (
                    tree.write(dom, path, &[*value], &mut effects),
                    reference.put_two_walks(dom, path, Some(&[*value]), &mut expected),
                ),
                Op::Mkdir(path) => (
                    tree.mkdir(dom, path, &mut effects),
                    reference.put_two_walks(dom, path, None, &mut expected),
                ),
                Op::Rm(path) => (
                    tree.rm(dom, path, &mut effects),
                    reference.rm_two_walks(dom, path, &mut expected),
                ),
                Op::SetPerms(path, perms) => (
                    tree.set_perms(dom, path, perms.clone(), &mut effects),
                    reference.set_perms_two_walks(dom, path, perms.clone(), &mut expected),
                ),
            };
            let context = format!("seed {seed} step {step}: {dom} {op:?} -> {result:?}");
            assert_eq!(result, reference_result, "{context}");
            assert_eq!(effects, expected, "{context}");
            assert!(tree == reference, "{context}: trees differ");
            if let Some(held) = &held {
                assert!(*held == before, "{context}: the snapshot moved");
            }
            let done = result.is_ok();
            if !done {
                assert!(tree == before, "{context}: a refusal changed the tree");
                assert!(effects.is_empty(), "{context}");
            }
            seen[usize::from(done) * 2 + usize::from(!in_place)] += 1;
        }
    }
    // Every combination of outcome and sharing comes up, many times over.
    assert!(seen.iter().all(|&n| n > 1_000), "{seen:?}");
}
