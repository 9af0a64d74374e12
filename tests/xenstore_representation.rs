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
//! among them.

use jitsu_repro::prelude::*;
use jitsu_repro::xenstore::perms::Access;
use jitsu_repro::xenstore::{
    Path, PermLevel, Permission, Permissions, Tree, WatchEvent, WatchManager,
};

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

/// A store and the reference that shadows it.
struct Shadowed {
    xs: XenStore,
    watches: WatchManager,
}

impl Shadowed {
    fn new() -> Shadowed {
        let mut shadowed = Shadowed {
            xs: XenStore::new(EngineKind::JitsuMerge),
            watches: WatchManager::new(),
        };
        for (dom, path, token) in [
            (DomId::DOM0, "/", "all"),
            (DomId::DOM0, "/local/domain/3", "home3"),
            (DomId(3), "/local/domain/3", "mine"),
            (DomId(3), "/local/domain/3/data/k", "key"),
            (DomId(7), "/tool", "tool"),
            (DomId(7), "/local/domain/3/data", "peek"),
        ] {
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
            .chain(&diff.removed)
            .map(|(path, _)| path.clone())
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
