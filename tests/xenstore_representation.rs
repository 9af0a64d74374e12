//! Store semantics held while their representation changes.
//!
//! `Permissions` keeps its owner entry inline and allocates only for further
//! grants, and the store settles a mutation's bookkeeping — per-domain node
//! counts, watch events — by reading the mutation's own record in place
//! rather than through a sorted copy of it. Neither may show. The first
//! property holds `Permissions` to the plain list of entries it used to be;
//! the second holds the store's counts and watch queues, op by op, to a
//! reference that re-derives both from the tree before and after: a
//! whole-tree walk for the counts, and for the events the old recipe — every
//! changed path sorted and deduplicated, then the op's own path if it is not
//! among them. A removed subtree, which the store records once by its root,
//! is named there node by node, as the store's record once named it.

use jitsu_repro::prelude::*;
use jitsu_repro::xenstore::perms::Access;
use jitsu_repro::xenstore::{
    Node, Path, PermLevel, Permission, Permissions, Tree, TxId, WatchEvent, WatchManager,
};
use std::rc::Rc;

const LEVELS: [PermLevel; 4] = [
    PermLevel::None,
    PermLevel::Read,
    PermLevel::Write,
    PermLevel::ReadWrite,
];

/// What a permission list means, read off the list itself.
fn model_level_for(entries: &[Permission], dom: DomId) -> PermLevel {
    let (owner, grants) = entries.split_first().expect("the owner entry");
    if dom == owner.dom {
        return PermLevel::ReadWrite;
    }
    grants
        .iter()
        .find(|e| e.dom == dom)
        .map_or(owner.level, |e| e.level)
}

fn model_check(entries: &[Permission], dom: DomId, access: Access) -> bool {
    let level = model_level_for(entries, dom);
    dom == DomId::DOM0
        || match access {
            Access::Read => level.allows_read(),
            Access::Write => level.allows_write(),
        }
}

#[test]
fn permissions_answer_as_the_list_of_entries_they_stand_for() {
    let mut rng = SimRng::seed_from_u64(0x9E47_0001);
    for case in 0..500 {
        let owner = DomId(rng.index(4) as u32);
        let default = LEVELS[rng.index(4)];
        let mut perms = Permissions::with_default(owner, default);
        let mut model = vec![Permission {
            dom: owner,
            level: default,
        }];
        for _ in 0..rng.index(6) {
            // Few domains, so a grant often replaces an earlier one or
            // names the owner (which changes nothing).
            let (dom, level) = (DomId(rng.index(7) as u32), LEVELS[rng.index(4)]);
            perms.grant(dom, level);
            if dom != owner {
                match model[1..].iter_mut().find(|e| e.dom == dom) {
                    Some(entry) => entry.level = level,
                    None => model.push(Permission { dom, level }),
                }
            }
        }
        assert_eq!(perms.entries().collect::<Vec<_>>(), model, "case {case}");
        assert_eq!((perms.owner(), perms.default_level()), (owner, default));
        for dom in (0..8).map(DomId) {
            assert_eq!(perms.level_for(dom), model_level_for(&model, dom));
            for access in [Access::Read, Access::Write] {
                assert_eq!(
                    perms.check(dom, access),
                    model_check(&model, dom, access),
                    "case {case}: {dom} {access:?} on {model:?}"
                );
            }
        }

        let wire = perms.to_wire();
        let by_hand: Vec<String> = model
            .iter()
            .map(|e| format!("{}{}", e.level.code(), e.dom.0))
            .collect();
        assert_eq!(wire, by_hand.join("\0"));
        assert_eq!(Permissions::from_wire(&wire), Some(perms.clone()));
        // The create-restricted bit is not on the wire, and is part of
        // equality.
        assert_ne!(perms.clone().create_restricted(), perms);
        let child = perms.restricted_child_perms(DomId(6));
        assert_eq!(child.owner(), owner);
        assert!(child.check(DomId(6), Access::Write));
    }
}

const DOMS: [DomId; 3] = [DomId::DOM0, DomId(3), DomId(7)];

/// Every node of the removed subtrees, each named by its own path,
/// depth-first in name order: what the store's record of a removal listed
/// when it named every node.
fn per_node(removed: &[(Path, Rc<Node>)]) -> Vec<Path> {
    fn walk(path: Path, node: &Node, out: &mut Vec<Path>) {
        out.push(path.clone());
        for (name, child) in node.children.iter() {
            walk(path.child(name).expect("a stored name"), child, out);
        }
    }
    let mut out = Vec::new();
    for (root, node) in removed {
        walk(root.clone(), node, &mut out);
    }
    out
}

/// A store and the reference that shadows it.
struct Shadowed {
    xs: XenStore,
    watches: WatchManager,
}

impl Shadowed {
    fn new() -> Shadowed {
        Shadowed::watching(&[
            (DomId::DOM0, "/", "all"),
            (DomId::DOM0, "/local/domain/3", "home3"),
            (DomId(3), "/local/domain/3", "mine"),
            (DomId(3), "/local/domain/3/data/k", "key"),
            (DomId(7), "/tool", "tool"),
            (DomId(7), "/local/domain/3/data", "peek"),
        ])
    }

    /// A store with `watches` registered, and its reference.
    fn watching(watches: &[(DomId, &str, &str)]) -> Shadowed {
        let mut shadowed = Shadowed {
            xs: XenStore::new(EngineKind::JitsuMerge),
            watches: WatchManager::new(),
        };
        for &(dom, path, token) in watches {
            shadowed.xs.watch(dom, path, token).expect("under quota");
            let path = Path::parse(path).expect("a valid path");
            shadowed.watches.watch(dom, path, token).expect("distinct");
        }
        shadowed
    }

    /// Run `op` on the store, then hold the store's counts and queues to
    /// what the trees before and after say they must be. `own` names the
    /// path that fires even if nothing changed there: a direct op's own,
    /// when the op succeeded.
    fn check<T>(
        &mut self,
        what: &str,
        op: impl FnOnce(&mut XenStore) -> T,
        own: impl FnOnce(&T) -> Option<Path>,
    ) -> T {
        let before = self.xs.tree().clone();
        let events_before = self.xs.stats().watch_events;
        let outcome = op(&mut self.xs);
        let after = self.xs.tree();
        for dom in DOMS {
            assert_eq!(
                self.xs.owned_nodes(dom),
                after.owned_count(dom),
                "{what}: nodes owned by {dom}"
            );
        }

        let diff = Tree::diff(&before, after);
        let mut changed: Vec<Path> = diff
            .added
            .iter()
            .map(|(path, _)| path.clone())
            .chain(per_node(&diff.removed))
            .chain(diff.value_changed.iter().cloned())
            .chain(diff.perms_changed.iter().map(|(path, _, _)| path.clone()))
            .collect();
        changed.sort();
        changed.dedup();
        changed.extend(own(&outcome).filter(|own| !changed.contains(own)));
        let fired: usize = changed.iter().map(|path| self.watches.fire(path)).sum();
        for dom in DOMS {
            let got: Vec<WatchEvent> = self.xs.take_watch_events(dom);
            assert_eq!(
                got,
                self.watches.take_events(dom),
                "{what}: events of {dom}"
            );
        }
        assert_eq!(
            self.xs.stats().watch_events - events_before,
            fired as u64,
            "{what}: events counted"
        );
        outcome
    }

    /// A direct op on `path`: if it succeeds, `path` fires whatever changed.
    fn direct(
        &mut self,
        what: &str,
        path: &str,
        op: impl FnOnce(&mut XenStore, &str) -> Outcome,
    ) -> Outcome {
        let own = Path::parse(path).ok();
        self.check(
            what,
            |xs| op(xs, path),
            |outcome| own.filter(|_| outcome.is_ok()),
        )
    }

    /// A direct op that must succeed.
    fn ok(&mut self, what: &str, path: &str, op: impl FnOnce(&mut XenStore, &str) -> Outcome) {
        self.direct(what, path, op)
            .unwrap_or_else(|e| panic!("{what}: {e:?}"));
    }

    /// A direct op that must be refused: it changes and fires nothing.
    fn refused(&mut self, what: &str, path: &str, op: impl FnOnce(&mut XenStore, &str) -> Outcome) {
        assert!(self.direct(what, path, op).is_err(), "{what}");
    }

    /// Anything that fires the tree difference and no more: a commit, a
    /// destroyed domain.
    fn batch(&mut self, what: &str, op: impl FnOnce(&mut XenStore)) {
        self.check(what, op, |()| None);
    }
}

type Outcome = jitsu_repro::xenstore::Result<()>;

#[test]
fn counts_and_watch_queues_follow_every_kind_of_effect() {
    let mut s = Shadowed::new();
    let (dom0, guest, other) = (DomId::DOM0, DomId(3), DomId(7));
    const HOME: &str = "/local/domain/3";
    const KEY: &str = "/local/domain/3/data/k";

    // Effects of no entry or one.
    s.ok("create with ancestors", KEY, |xs, p| {
        xs.write(dom0, None, p, b"1")
    });
    s.ok("overwrite", KEY, |xs, p| xs.write(dom0, None, p, b"2"));
    s.ok("same-value write", KEY, |xs, p| {
        xs.write(dom0, None, p, b"2")
    });
    s.ok("mkdir of an existing node", KEY, |xs, p| {
        xs.mkdir(dom0, None, p)
    });
    s.ok("mkdir of a new node", "/tool/x", |xs, p| {
        xs.mkdir(dom0, None, p)
    });
    s.ok("create a leaf", "/tool/y", |xs, p| {
        xs.write(dom0, None, p, b"")
    });
    s.ok("rm of a leaf", "/tool/y", |xs, p| xs.rm(dom0, None, p));
    s.ok("ownership transfer", HOME, |xs, p| {
        xs.set_perms(dom0, None, p, Permissions::owned_by(guest))
    });
    s.ok("the same permissions again", HOME, |xs, p| {
        xs.set_perms(dom0, None, p, Permissions::owned_by(guest))
    });
    s.ok("a grant, same owner", KEY, |xs, p| {
        let perms = Permissions::owned_by(dom0).granting(other, PermLevel::Read);
        xs.set_perms(dom0, None, p, perms)
    });
    s.refused("rm of a missing node", "/tool/nope", |xs, p| {
        xs.rm(dom0, None, p)
    });
    s.refused("a guest in dom0's tree", "/tool/z", |xs, p| {
        xs.write(guest, None, p, b"1")
    });
    s.refused(
        "a stranger in the guest's home",
        "/local/domain/3/theirs",
        |xs, p| xs.write(other, None, p, b"1"),
    );
    s.refused("an invalid path", "/bad path", |xs, p| {
        xs.write(dom0, None, p, b"1")
    });

    // Effects of several entries.
    s.ok(
        "a guest creates a spine it owns",
        "/local/domain/3/a/b/c",
        |xs, p| xs.write(guest, None, p, b"3"),
    );
    s.ok("rm of a subtree owned by two domains", HOME, |xs, p| {
        xs.rm(dom0, None, p)
    });

    // A commit fires its net effect, in path order, and nothing else.
    s.ok("set the stage", KEY, |xs, p| xs.write(dom0, None, p, b"1"));
    s.batch("a commit of six ops", |xs| {
        let t = xs.transaction_start(dom0).expect("dom0 has no quota");
        let mut write =
            |path: &str, value: &[u8]| xs.write(dom0, Some(t), path, value).expect("dom0");
        write("/tool/x", b"now a value");
        write("/local/domain/9/name", b"nine");
        write("/scratch", b"gone again");
        xs.set_perms(
            dom0,
            Some(t),
            "/local/domain/9",
            Permissions::owned_by(DomId(9)),
        )
        .expect("dom0");
        xs.rm(dom0, Some(t), "/local/domain/3/data").expect("dom0");
        xs.rm(dom0, Some(t), "/scratch").expect("dom0");
        xs.transaction_end(dom0, t, true)
            .expect("nothing ran beside it");
    });
    let t = s.xs.transaction_start(dom0).expect("dom0 has no quota");
    s.xs.write(dom0, Some(t), "/tool/in-txn", b"1")
        .expect("dom0");
    s.ok(
        "a direct write beside the open transaction",
        "/tool/direct",
        |xs, p| xs.write(dom0, None, p, b"2"),
    );
    s.batch("a commit that merges", |xs| {
        xs.transaction_end(dom0, t, true)
            .expect("disjoint keys merge");
    });
    assert_eq!(s.xs.stats().merged, 1);
    s.batch("a domain is destroyed", |xs| xs.domain_destroyed(DomId(9)));
    assert_eq!(s.xs.owned_nodes(DomId(9)), 0);
}

#[test]
fn counts_and_watch_queues_follow_a_random_mix_of_direct_ops() {
    for seed in 0..8 {
        let mut rng = SimRng::seed_from_u64(0x5E77_1E00 ^ seed);
        let mut s = Shadowed::new();
        s.ok("a home", "/local/domain/3", |xs, p| {
            xs.mkdir(DomId::DOM0, None, p)
        });
        s.ok("handed over", "/local/domain/3", |xs, p| {
            xs.set_perms(DomId::DOM0, None, p, Permissions::owned_by(DomId(3)))
        });
        let mut refused = 0;
        for step in 0..300 {
            let dom = DOMS[rng.index(2)];
            let top = ["/local/domain/3", "/tool", "/local/domain/3/data"][rng.index(3)];
            let mut path = top.to_string();
            for _ in 0..rng.index(3) {
                path.push_str(["/k", "/a", "/b"][rng.index(3)]);
            }
            let what = format!("seed {seed} step {step}: {dom} on {path}");
            let kind = rng.index(8);
            let value = [rng.index(3) as u8];
            let owner = DOMS[rng.index(2)];
            let outcome = s.direct(&what, &path, |xs, p| match kind {
                0 | 1 => xs.rm(dom, None, p),
                2 => xs.mkdir(dom, None, p),
                3 => xs.set_perms(dom, None, p, Permissions::owned_by(owner)),
                _ => xs.write(dom, None, p, &value),
            });
            refused += usize::from(outcome.is_err());
        }
        assert!(
            (30..270).contains(&refused),
            "seed {seed}: {refused} refused"
        );
    }
}

/// Where a watch may stand against the subtrees the ops below remove: on a
/// root, above it, below it, or beside it.
const PLACES: [(DomId, &str, &str); 10] = [
    (DomId::DOM0, "/local", "above"),
    (DomId::DOM0, "/local/domain/3", "home"),
    (DomId(3), "/local/domain/3/a", "a"),
    (DomId(3), "/local/domain/3/a/b", "a/b"),
    (DomId(7), "/local/domain/3/a/b/k", "a/b/k"),
    (DomId(7), "/local/domain/3/b", "b"),
    (DomId::DOM0, "/tool", "tool"),
    (DomId(3), "/tool/a/a", "tool/a/a"),
    (DomId(7), "/tool/k", "tool/k"),
    (DomId(7), "/local/domain/7", "beside"),
];

/// One random store op by `dom` on a path under the guest's home or dom0's
/// `/tool`, one to four levels deep, so that removals take subtrees of many
/// shapes.
fn random_op(
    rng: &mut SimRng,
    xs: &mut XenStore,
    dom: DomId,
    tx: Option<TxId>,
) -> (String, Outcome) {
    let mut path = ["/local/domain/3", "/tool"][rng.index(2)].to_string();
    for _ in 0..1 + rng.index(4) {
        path.push_str(["/a", "/b", "/k"][rng.index(3)]);
    }
    let value = [rng.index(3) as u8];
    let owner = DOMS[rng.index(2)];
    let outcome = match rng.index(7) {
        0 | 1 => xs.rm(dom, tx, &path),
        2 => xs.mkdir(dom, tx, &path),
        3 => xs.set_perms(dom, tx, &path, Permissions::owned_by(owner)),
        _ => xs.write(dom, tx, &path, &value),
    };
    (path, outcome)
}

#[test]
fn a_removed_subtree_fires_what_naming_every_node_fired() {
    let (mut subtrees, mut wide, mut concerned_none) = (0, 0, 0);
    for seed in 0..16 {
        let mut rng = SimRng::seed_from_u64(0x5B7E_E000 ^ seed);
        // Each seed watches its own few places, so that some removals have
        // a watch on, above or below them and some have none.
        let watches: Vec<_> = PLACES.into_iter().filter(|_| rng.chance(0.3)).collect();
        let mut s = Shadowed::watching(&watches);
        s.ok("a home", "/local/domain/3", |xs, p| {
            xs.mkdir(DomId::DOM0, None, p)
        });
        s.ok("handed over", "/local/domain/3", |xs, p| {
            xs.set_perms(DomId::DOM0, None, p, Permissions::owned_by(DomId(3)))
        });
        // A dom0 transaction is open now and then, so direct ops run on a
        // shared tree too, and its commit lands unmoved or merged.
        let mut open: Option<TxId> = None;
        for step in 0..400 {
            let what = format!("seed {seed} step {step}");
            match rng.index(10) {
                0 if open.is_none() => {
                    let t = s.xs.transaction_start(DomId::DOM0).expect("dom0");
                    for _ in 0..1 + rng.index(4) {
                        let _ = random_op(&mut rng, &mut s.xs, DomId::DOM0, Some(t));
                    }
                    open = Some(t);
                }
                1 if open.is_some() => {
                    let t = open.take().expect("open");
                    // A conflict is a legitimate outcome; it changes nothing.
                    s.batch(&what, |xs| {
                        let _ = xs.transaction_end(DomId::DOM0, t, true);
                    });
                }
                _ => {
                    let dom = DOMS[rng.index(2)];
                    let before = s.xs.tree().clone();
                    // A direct op's own path fires if it succeeded.
                    let _ = s.check(
                        &what,
                        |xs| random_op(&mut rng, xs, dom, None),
                        |(path, outcome)| outcome.as_ref().ok().and(Path::parse(path).ok()),
                    );
                    for (root, node) in Tree::diff(&before, s.xs.tree()).removed {
                        subtrees += 1;
                        wide += usize::from(!node.is_leaf());
                        let concerned = |(_, watched, _): &(DomId, &str, &str)| {
                            let watched = Path::parse(watched).expect("valid");
                            watched.is_prefix_of(&root) || root.is_prefix_of(&watched)
                        };
                        concerned_none += usize::from(!watches.iter().any(concerned));
                    }
                }
            }
        }
    }
    // Removals of leaves and of subtrees come up, with and without a watch
    // concerned.
    assert!(
        subtrees > 400 && wide > 300,
        "{wide} of {subtrees} removals took subtrees"
    );
    assert!(
        (100..subtrees - 100).contains(&concerned_none),
        "{concerned_none} of {subtrees} removals concerned no watch"
    );
}
