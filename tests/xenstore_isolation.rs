//! XenStore isolation, checked against serial replay (the method of Elle,
//! Kingsbury & Alvaro, VLDB 2020, on Adya's definitions).
//!
//! Each history is seeded: a few direct operations, two to five
//! overlapping transactions (some by a guest, some aborted), more direct
//! operations between them and one `domain_destroyed` of the guest, all
//! over a small path alphabet so that they collide. It runs once against
//! a store with the engine under test, recording what every operation
//! returned.
//!
//! The contract in `xenstore::engine`'s module doc is then checked by
//! replaying the history on a fresh store, one unit at a time: each direct
//! operation where it ran, each committed transaction that wrote something
//! at its commit and each committed read-only one at its start. Every
//! direct operation and every read in a transaction must return what it
//! returned live, but for the reads the contract exempts; a transaction's
//! net effect is then applied as a commit applies it; and the two stores
//! must end equal in paths, values and permissions. A transaction that was
//! aborted, refused or dropped must leave the live tree as it found it.
//!
//! A failure names the engine and the seed, and prints the history shrunk
//! by dropping whole transactions and single steps while it still fails.
//! Disabling any conflict rule of `merge_conflicts` but the exact-path
//! write-write one, or the serial engine's, fails it within the first
//! 10,000 histories.

#[path = "support/histories.rs"]
mod histories;

use histories::{alphabet, generate, History, Op, Seen, Step, GUEST};
use jitsu_repro::xenstore::{DomId, EngineKind, Error, Path, Tree, TxId, XenStore};

/// A transaction as it ran live: the tree it started from and its
/// snapshot, rebuilt by running what it wrote on that tree.
struct Txn {
    tx: TxId,
    dom: DomId,
    base: Tree,
    snapshot: Tree,
    wrote: bool,
    committed: bool,
}

/// What a history did live, and how it ran.
struct Run {
    /// What each step returned; a `Begin` or `Destroy` returns `Done`.
    seen: Vec<Result<Seen, Error>>,
    /// Whether each step read, in its transaction, a node the transaction
    /// had created.
    read_own: Vec<bool>,
    /// The transactions, in the order they began.
    txns: Vec<Txn>,
    /// The live tree at the end.
    tree: Tree,
    conflicted: bool,
    merged: bool,
}

/// A step of a transaction that is not open gets this.
const NOT_OPEN: Error = Error::UnknownTransaction(u32::MAX);

fn run_live(engine: EngineKind, history: &History) -> Result<Run, String> {
    let mut xs = XenStore::new(engine);
    let mut txns: Vec<Txn> = Vec::new();
    let mut open: Vec<bool> = Vec::new();
    let mut seen = Vec::with_capacity(history.steps.len());
    let mut read_own = vec![false; history.steps.len()];
    for (at, step) in history.steps.iter().enumerate() {
        let result = match step {
            Step::Direct(dom, op) => op.run(&mut xs, *dom, None),
            Step::Begin(_, dom) => {
                let tx = xs.transaction_start(*dom);
                open.push(tx.is_ok());
                txns.push(Txn {
                    tx: tx.clone().unwrap_or(TxId(u32::MAX)),
                    dom: *dom,
                    base: xs.tree().clone(),
                    snapshot: xs.tree().clone(),
                    wrote: false,
                    committed: false,
                });
                tx.map(|_| Seen::Done)
            }
            Step::In(t, op) if open[*t] => {
                let txn = &mut txns[*t];
                let start = txn.base.generation();
                read_own[at] = op.is_read()
                    && (txn.snapshot.get(op.path())).is_some_and(|node| node.created_gen > start);
                let result = op.run(&mut xs, txn.dom, Some(txn.tx));
                if result.is_ok() && op.mutates(&mut txn.snapshot, txn.dom) {
                    txn.wrote = true;
                }
                result
            }
            Step::End(t, commit) if open[*t] => {
                open[*t] = false;
                let txn = &mut txns[*t];
                let before = xs.tree().clone();
                let ended = xs.transaction_end(txn.dom, txn.tx, *commit);
                txn.committed = *commit && ended.is_ok();
                if !txn.committed && !same_tree(&before, xs.tree()) {
                    return Err(format!(
                        "step {at}: a transaction that did not commit ({ended:?}) \
                         changed the live tree"
                    ));
                }
                ended.map(|()| Seen::Done)
            }
            Step::In(..) | Step::End(..) => Err(NOT_OPEN),
            Step::Destroy => {
                xs.domain_destroyed(GUEST);
                Ok(Seen::Done)
            }
        };
        seen.push(result);
    }
    let stats = xs.stats();
    Ok(Run {
        seen,
        read_own,
        txns,
        tree: xs.tree().clone(),
        conflicted: stats.conflicts > 0,
        merged: stats.merged > 0,
    })
}

/// Equal in paths, values, permissions and generation.
fn same_tree(a: &Tree, b: &Tree) -> bool {
    a.generation() == b.generation() && Tree::diff(a, b).is_empty()
}

/// Check one history against `engine`; the live run on success.
fn check(engine: EngineKind, history: &History) -> Result<Run, String> {
    let run = run_live(engine, history)?;
    let steps = &history.steps;
    let mut serial = XenStore::new(engine);
    for (at, step) in steps.iter().enumerate() {
        let t = match step {
            Step::Direct(dom, op) => {
                let replayed = op.run(&mut serial, *dom, None);
                if replayed != run.seen[at] {
                    return Err(format!(
                        "step {at}: live {:?}, serial {replayed:?}",
                        run.seen[at]
                    ));
                }
                continue;
            }
            Step::Destroy => {
                serial.domain_destroyed(GUEST);
                continue;
            }
            // A committed transaction serializes at its commit if one of
            // its writes took, and at its start if none did.
            Step::Begin(t, _) if run.txns[*t].committed && !run.txns[*t].wrote => *t,
            Step::End(t, _) if run.txns[*t].committed && run.txns[*t].wrote => *t,
            _ => continue,
        };
        let txn = &run.txns[t];
        // Its reads, run where it serializes, in a transaction of their own
        // on the serial store that its mutations run in too.
        let tx = serial
            .transaction_start(txn.dom)
            .map_err(|e| format!("transaction {t}: serial start failed: {e:?}"))?;
        let mut written = Vec::new();
        for (op_at, step) in steps.iter().enumerate() {
            let Step::In(u, op) = step else { continue };
            if *u != t {
                continue;
            }
            // A mutation's own result is no observation the engines keep:
            // one that failed changed nothing and is not replayed, and one
            // that took counts for its net effect, below.
            if !op.is_read() {
                if run.seen[op_at].is_ok() {
                    drop(op.run(&mut serial, txn.dom, Some(tx)));
                    written.push(op.path().clone());
                }
                continue;
            }
            let replayed = op.run(&mut serial, txn.dom, Some(tx));
            let exempt = run.read_own[op_at] || exempt(engine, op);
            if replayed != run.seen[op_at] && !exempt {
                return Err(format!(
                    "step {op_at} (transaction {t}): live {:?}, serial {replayed:?}",
                    run.seen[op_at]
                ));
            }
        }
        serial
            .transaction_end(txn.dom, tx, false)
            .map_err(|e| format!("transaction {t}: serial abort failed: {e:?}"))?;
        if txn.wrote {
            apply_net_effect(&mut serial, txn, &written)
                .map_err(|e| format!("transaction {t}: its net effect failed: {e:?}"))?;
        }
    }
    let diff = Tree::diff(&run.tree, serial.tree());
    if !diff.is_empty() {
        return Err(format!("the live and serial stores differ: {diff:?}"));
    }
    Ok(run)
}

/// A read of `txn`'s that the contract lets differ from its serial
/// replay, besides one of a node it had created itself, which the commit
/// installs as the transaction's snapshot has it: for `JitsuMerge`, any
/// child-list read.
fn exempt(engine: EngineKind, op: &Op) -> bool {
    engine == EngineKind::JitsuMerge && matches!(op, Op::Directory(_))
}

/// Apply what `txn`'s snapshot differs from its base in to `serial`, as
/// its domain, one operation at a time: removals first, then creations
/// (parents first) and rewrites, each with the snapshot's value and
/// permissions, then changes of permissions alone. A node the transaction
/// did not name (`written`) but created on the way to another keeps its
/// value and permissions if it exists already, and a node whose
/// permissions alone changed stays gone if it is gone.
fn apply_net_effect(serial: &mut XenStore, txn: &Txn, written: &[Path]) -> Result<(), Error> {
    let net = Tree::diff(&txn.base, &txn.snapshot);
    let dom = txn.dom;
    for (path, _) in &net.removed {
        match serial.rm(dom, None, path) {
            Ok(()) | Err(Error::NoEntry(_)) => {}
            Err(e) => return Err(e),
        }
    }
    let implicit = |path: &Path| !written.contains(path);
    let created = net.added.iter().map(|(path, _)| (path, true));
    for (path, creation) in created.chain(net.value_changed.iter().map(|path| (path, false))) {
        if creation && implicit(path) && serial.tree().exists(path) {
            continue;
        }
        let node = txn
            .snapshot
            .get(path)
            .expect("the net effect is in the snapshot");
        serial.write(dom, None, path, &node.value)?;
        if serial
            .tree()
            .get(path)
            .is_some_and(|live| live.perms != node.perms)
        {
            serial.set_perms(dom, None, path, node.perms.clone())?;
        }
    }
    for (path, _, _) in &net.perms_changed {
        if net.value_changed.contains(path) || !serial.tree().exists(path) {
            continue;
        }
        let perms = txn
            .snapshot
            .get(path)
            .expect("the net effect is in the snapshot")
            .perms
            .clone();
        serial.set_perms(dom, None, path, perms)?;
    }
    Ok(())
}

/// `history` with its transaction `t` dropped, the rest renumbered.
fn without_transaction(history: &History, t: usize) -> History {
    let renumber = |u: usize| if u > t { u - 1 } else { u };
    let steps = history
        .steps
        .iter()
        .filter_map(|step| match step {
            Step::Begin(u, _) | Step::In(u, _) | Step::End(u, _) if *u == t => None,
            Step::Begin(u, dom) => Some(Step::Begin(renumber(*u), *dom)),
            Step::In(u, op) => Some(Step::In(renumber(*u), op.clone())),
            Step::End(u, commit) => Some(Step::End(renumber(*u), *commit)),
            step => Some(step.clone()),
        })
        .collect();
    History {
        seed: history.seed,
        steps,
    }
}

/// The smallest history this finds that still fails: drop whole
/// transactions, then single steps other than a `Begin`, while it fails.
fn shrink(engine: EngineKind, mut history: History) -> History {
    let fails = |h: &History| check(engine, h).is_err();
    loop {
        let transactions = history
            .steps
            .iter()
            .filter(|step| matches!(step, Step::Begin(..)))
            .count();
        let smaller = (0..transactions)
            .map(|t| without_transaction(&history, t))
            .chain((0..history.steps.len()).filter_map(|at| {
                if let Step::Begin(..) = history.steps[at] {
                    return None;
                }
                let mut steps = history.steps.clone();
                steps.remove(at);
                Some(History {
                    seed: history.seed,
                    steps,
                })
            }))
            .find(|h| fails(h));
        match smaller {
            Some(h) => history = h,
            None => return history,
        }
    }
}

/// How a batch of histories ran against one engine.
#[derive(Debug, Default)]
struct Tally {
    histories: u32,
    conflicted: u32,
    merged: u32,
}

/// Check `count` histories from `first_seed` on against `engine`, panicking
/// on the first that fails with its seed and its shrunk history.
fn check_histories(engine: EngineKind, first_seed: u64, count: u64) -> Tally {
    let paths = alphabet();
    let mut tally = Tally::default();
    for seed in first_seed..first_seed + count {
        let history = generate(seed, &paths);
        match check(engine, &history) {
            Ok(run) => {
                tally.histories += 1;
                tally.conflicted += u32::from(run.conflicted);
                tally.merged += u32::from(run.merged);
            }
            Err(_) => {
                let shrunk = shrink(engine, history);
                let why = check(engine, &shrunk).err().unwrap_or_default();
                panic!("{engine:?} is not serializable: {why}\n{shrunk}");
            }
        }
    }
    tally
}

/// Histories per engine in the suite; the ignored long run checks ten
/// times as many more.
const HISTORIES: u64 = 10_000;
const FIRST_SEED: u64 = 0x150_1A7E;

/// Check `count` histories against `engine`, and that enough of them raced:
/// at least `min_conflicted` of them had a commit refused, and
/// `min_merged` had one merged onto a store that moved. A generator that
/// stopped producing races would pass while checking nothing.
fn checked(engine: EngineKind, first_seed: u64, count: u64, min_conflicted: f64, min_merged: f64) {
    let tally = check_histories(engine, first_seed, count);
    eprintln!("{engine:?}: {tally:?}");
    let share = |n: u32| f64::from(n) / f64::from(tally.histories);
    assert!(
        share(tally.conflicted) >= min_conflicted,
        "{engine:?}: {tally:?}"
    );
    assert!(share(tally.merged) >= min_merged, "{engine:?}: {tally:?}");
}

// The floors sit at about two thirds of what the first 10,000 seeds give:
// conflicted 64.6%, 36.9% and 29.0% of histories, merged 45.4% and 52.1%
// for the two merge engines (the serial engine merges nothing).

#[test]
fn serial_histories_replay_serially() {
    checked(EngineKind::Serial, FIRST_SEED, HISTORIES, 0.4, 0.0);
}

#[test]
fn merge_histories_replay_serially() {
    checked(EngineKind::Merge, FIRST_SEED, HISTORIES, 0.25, 0.3);
}

#[test]
fn jitsu_merge_histories_replay_serially() {
    checked(EngineKind::JitsuMerge, FIRST_SEED, HISTORIES, 0.2, 0.35);
}

#[test]
#[ignore = "the long run: 100,000 histories per engine"]
fn a_hundred_thousand_histories_per_engine_replay_serially() {
    let first = FIRST_SEED + HISTORIES;
    for (engine, conflicted, merged) in [
        (EngineKind::Serial, 0.4, 0.0),
        (EngineKind::Merge, 0.25, 0.3),
        (EngineKind::JitsuMerge, 0.2, 0.35),
    ] {
        checked(engine, first, 10 * HISTORIES, conflicted, merged);
    }
}
