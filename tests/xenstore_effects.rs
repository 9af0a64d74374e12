//! Tree mutators report their own effects, and the store trusts the report.
//!
//! A direct op no longer snapshots the tree and diffs it afterwards: the
//! mutator appends what it changed to a `TreeDiff` as it goes, and watches
//! and per-domain quota counts are settled from that. These properties hold
//! the report to the diff it replaced, over seeded random op sequences mixing
//! dom0 and guest callers, guest-owned homes, a create-restricted directory,
//! ops that are refused and ops that change nothing.

use jitsu_repro::prelude::*;
use jitsu_repro::xenstore::{Path, PermLevel, Permissions, Tree, TreeDiff};
use std::rc::Rc;

const GUESTS: [DomId; 3] = [DomId(3), DomId(7), DomId(9)];

/// One random op over a small path space, so that creations, overwrites,
/// removals of populated subtrees, refusals and no-ops all come up often.
#[derive(Debug)]
enum Op {
    Write(String, Vec<u8>),
    Mkdir(String),
    Rm(String),
    SetPerms(String, Permissions),
}

fn random_path(rng: &mut SimRng) -> String {
    let top = [
        "/local/domain/3",
        "/local/domain/7",
        "/local/domain/9",
        "/spool",
        "/tool",
        "/local/domain",
    ][rng.index(6)];
    let mut path = top.to_string();
    for _ in 0..rng.index(4) {
        path.push_str(["/a", "/b", "/c-1", "/c"][rng.index(4)]);
    }
    path
}

fn random_perms(rng: &mut SimRng) -> Permissions {
    let owner = [DomId::DOM0, GUESTS[0], GUESTS[1], GUESTS[2]][rng.index(4)];
    let level = [PermLevel::None, PermLevel::Read, PermLevel::ReadWrite][rng.index(3)];
    let perms = Permissions::with_default(owner, level);
    if rng.chance(0.2) {
        perms.create_restricted()
    } else {
        perms
    }
}

fn random_op(rng: &mut SimRng) -> (DomId, Op) {
    let dom = if rng.chance(0.4) {
        DomId::DOM0
    } else {
        GUESTS[rng.index(GUESTS.len())]
    };
    let path = random_path(rng);
    let op = match rng.index(10) {
        0..=4 => Op::Write(path, vec![rng.index(3) as u8]),
        5 => Op::Mkdir(path),
        6 | 7 => Op::Rm(path),
        _ => Op::SetPerms(path, random_perms(rng)),
    };
    (dom, op)
}

/// Homes owned by their guests and a create-restricted spool, as the
/// toolstack and Conduit set them up.
const SETUP: [(&str, DomId, bool); 4] = [
    ("/local/domain/3", DomId(3), false),
    ("/local/domain/7", DomId(7), false),
    ("/local/domain/9", DomId(9), false),
    ("/spool", DomId(3), true),
];

fn setup_perms(owner: DomId, restricted: bool) -> Permissions {
    let perms = Permissions::owned_by(owner);
    if restricted {
        perms.create_restricted()
    } else {
        perms
    }
}

#[test]
fn recorded_effects_equal_the_structural_diff() {
    let (mut refused, mut unchanged, mut changed) = (0, 0, 0);
    for seed in 0..8 {
        let mut rng = SimRng::seed_from_u64(0xEFFEC7 ^ seed);
        let mut tree = Tree::new();
        for (path, owner, restricted) in SETUP {
            let path = Path::parse(path).unwrap();
            let unused = &mut TreeDiff::default();
            tree.mkdir(DomId::DOM0, &path, unused).unwrap();
            tree.set_perms(DomId::DOM0, &path, setup_perms(owner, restricted), unused)
                .unwrap();
        }
        for step in 0..2_500 {
            let (dom, op) = random_op(&mut rng);
            let before = tree.clone();
            let mut effects = TreeDiff::default();
            let result = match &op {
                Op::Write(path, value) => {
                    tree.write(dom, &Path::parse(path).unwrap(), value, &mut effects)
                }
                Op::Mkdir(path) => tree.mkdir(dom, &Path::parse(path).unwrap(), &mut effects),
                Op::Rm(path) => tree.rm(dom, &Path::parse(path).unwrap(), &mut effects),
                Op::SetPerms(path, perms) => tree.set_perms(
                    dom,
                    &Path::parse(path).unwrap(),
                    perms.clone(),
                    &mut effects,
                ),
            };
            let diff = Tree::diff(&before, &tree);
            assert_eq!(
                effects, diff,
                "seed {seed} step {step}: {dom} {op:?} -> {result:?}"
            );
            // A removed subtree is recorded as the node the tree held there,
            // by the op and by the diff alike: neither copies it.
            for ((_, reported), (_, found)) in effects.removed.iter().zip(&diff.removed) {
                assert!(Rc::ptr_eq(reported, found), "seed {seed} step {step}");
            }
            match result {
                Err(_) => {
                    assert!(effects.is_empty(), "a refused op changes nothing");
                    assert_eq!(tree.generation(), before.generation());
                    refused += 1;
                }
                Ok(()) if effects.is_empty() => unchanged += 1,
                Ok(()) => changed += 1,
            }
        }
    }
    // The mix really does cover all three outcomes, many times over.
    assert!(refused > 2_000, "refused = {refused}");
    assert!(unchanged > 500, "unchanged = {unchanged}");
    assert!(changed > 5_000, "changed = {changed}");
}

#[test]
fn incremental_owned_counts_equal_the_reference_walk_after_every_op() {
    for seed in 0..4 {
        let mut rng = SimRng::seed_from_u64(0xC00457 ^ seed);
        let mut xs = XenStore::new(EngineKind::JitsuMerge);
        for (path, owner, restricted) in SETUP {
            xs.mkdir(DomId::DOM0, None, path).unwrap();
            xs.set_perms(DomId::DOM0, None, path, setup_perms(owner, restricted))
                .unwrap();
        }
        // Up to two transactions stay open at a time, so direct ops run
        // both on an unshared tree (in place) and on a shared one (path
        // copying), and commits land both on an unmoved base and merged.
        let mut open: Vec<(DomId, jitsu_repro::xenstore::TxId)> = Vec::new();
        for step in 0..1_500 {
            let (dom, op) = random_op(&mut rng);
            match rng.index(12) {
                0 if open.len() < 2 => {
                    open.push((dom, xs.transaction_start(dom).unwrap()));
                }
                1 if !open.is_empty() => {
                    let (owner, tx) = open.swap_remove(rng.index(open.len()));
                    // A conflict or a quota refusal is a legitimate outcome.
                    let _ = xs.transaction_end(owner, tx, rng.chance(0.8));
                }
                _ => {
                    // A third of the ops go through an open transaction.
                    let via = open
                        .iter()
                        .find(|(owner, _)| *owner == dom && step % 3 == 0)
                        .map(|(_, tx)| *tx);
                    // Refusals are part of the mix.
                    let _ = match op {
                        Op::Write(path, value) => xs.write(dom, via, &path, &value),
                        Op::Mkdir(path) => xs.mkdir(dom, via, &path),
                        Op::Rm(path) => xs.rm(dom, via, &path),
                        Op::SetPerms(path, perms) => xs.set_perms(dom, via, &path, perms),
                    };
                }
            }
            for dom in [DomId::DOM0, GUESTS[0], GUESTS[1], GUESTS[2]] {
                assert_eq!(
                    xs.owned_nodes(dom),
                    xs.tree().owned_count(dom),
                    "seed {seed} step {step}: count for {dom}"
                );
            }
        }
        assert!(xs.stats().commits > 20 && xs.stats().merged > 5);
    }
}
