//! The seeded histories the store's isolation and commit checks run: a
//! few direct operations, two to five overlapping transactions (some by a
//! guest, some aborted), more direct operations between them and one
//! `domain_destroyed` of the guest, all over a small path alphabet so that
//! they collide. A test binary declares it with
//! `#[path = "support/histories.rs"] mod histories;`.

#![allow(dead_code, reason = "each test binary uses the parts it checks with")]

use jitsu_repro::sim::SimRng;
use jitsu_repro::xenstore::{
    DomId, Error, Path, PermLevel, Permissions, Tree, TreeDiff, TxId, XenStore,
};
use std::fmt;

/// The guest: it owns its home, `/local/domain/7`, once dom0 hands it over,
/// and `domain_destroyed` removes that home and drops its transactions.
pub const GUEST: DomId = DomId(7);

/// Every path a history names: depth 1 to 3, each component one of two
/// labels (four in all), so that the guest's home is one of 14 paths.
pub fn alphabet() -> Vec<Path> {
    let levels = [["local", "a"], ["domain", "a"], ["7", "a"]];
    let mut paths = vec![Path::root()];
    let mut at = 0;
    for labels in levels {
        let end = paths.len();
        for parent in at..end {
            for label in labels {
                paths.push(paths[parent].child(label).expect("a valid label"));
            }
        }
        at = end;
    }
    paths.remove(0);
    paths
}

/// The permissions a `SetPerms` sets.
pub fn perms(which: u8) -> Permissions {
    match which {
        0 => Permissions::owned_by(DomId::DOM0),
        1 => Permissions::owned_by(GUEST),
        2 => Permissions::with_default(DomId::DOM0, PermLevel::Write),
        _ => Permissions::with_default(DomId::DOM0, PermLevel::Read),
    }
}

#[derive(Clone, Debug)]
pub enum Op {
    Read(Path),
    Exists(Path),
    Directory(Path),
    GetPerms(Path),
    Write(Path, u8),
    Mkdir(Path),
    Rm(Path),
    SetPerms(Path, u8),
}

/// What an operation returned, in a form two runs can compare.
#[derive(Debug, PartialEq)]
pub enum Seen {
    Value(Vec<u8>),
    Exists(bool),
    Names(Vec<String>),
    Perms(String),
    Done,
}

impl Op {
    pub fn run(&self, xs: &mut XenStore, dom: DomId, tx: Option<TxId>) -> Result<Seen, Error> {
        match self {
            Op::Read(path) => xs.read(dom, tx, path).map(Seen::Value),
            Op::Exists(path) => xs.exists(dom, tx, path).map(Seen::Exists),
            Op::Directory(path) => xs.directory(dom, tx, path).map(Seen::Names),
            Op::GetPerms(path) => xs
                .get_perms(dom, tx, path)
                .map(|p| Seen::Perms(p.to_wire())),
            Op::Write(path, value) => xs
                .write(dom, tx, path, &[b'0' + value])
                .map(|()| Seen::Done),
            Op::Mkdir(path) => xs.mkdir(dom, tx, path).map(|()| Seen::Done),
            Op::Rm(path) => xs.rm(dom, tx, path).map(|()| Seen::Done),
            Op::SetPerms(path, which) => xs
                .set_perms(dom, tx, path, perms(*which))
                .map(|()| Seen::Done),
        }
    }

    pub fn path(&self) -> &Path {
        match self {
            Op::Read(path)
            | Op::Exists(path)
            | Op::Directory(path)
            | Op::GetPerms(path)
            | Op::Write(path, _)
            | Op::Mkdir(path)
            | Op::Rm(path)
            | Op::SetPerms(path, _) => path,
        }
    }

    pub fn is_read(&self) -> bool {
        matches!(
            self,
            Op::Read(_) | Op::Exists(_) | Op::Directory(_) | Op::GetPerms(_)
        )
    }

    /// Run a mutation, which succeeded in a store, on `tree` as `dom`;
    /// false for a read.
    pub fn mutates(&self, tree: &mut Tree, dom: DomId) -> bool {
        if self.is_read() {
            return false;
        }
        let ran = self.run_on(tree, dom, &mut TreeDiff::default());
        ran.expect("what succeeded in the store succeeds on its tree");
        true
    }

    /// Run a mutation on `tree` as `dom`, reporting into `effects`; a read
    /// does nothing there.
    pub fn run_on(&self, tree: &mut Tree, dom: DomId, effects: &mut TreeDiff) -> Result<(), Error> {
        match self {
            Op::Read(_) | Op::Exists(_) | Op::Directory(_) | Op::GetPerms(_) => Ok(()),
            Op::Write(path, value) => tree.write(dom, path, &[b'0' + value], effects),
            Op::Mkdir(path) => tree.mkdir(dom, path, effects),
            Op::Rm(path) => tree.rm(dom, path, effects),
            Op::SetPerms(path, which) => tree.set_perms(dom, path, perms(*which), effects),
        }
    }
}

/// One step of a history. Transactions are numbered in the order they
/// begin; `Direct` is an operation outside any transaction.
#[derive(Clone, Debug)]
pub enum Step {
    Direct(DomId, Op),
    Begin(usize, DomId),
    In(usize, Op),
    End(usize, bool),
    Destroy,
}

#[derive(Debug)]
pub struct History {
    pub seed: u64,
    pub steps: Vec<Step>,
}

impl fmt::Display for History {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "seed {:#x}, {} steps:", self.seed, self.steps.len())?;
        for (at, step) in self.steps.iter().enumerate() {
            writeln!(f, "  {at:3}: {step:?}")?;
        }
        Ok(())
    }
}

pub fn pick<T: Clone>(rng: &mut SimRng, items: &[T]) -> T {
    items[rng.index(items.len())].clone()
}

pub fn random_op(rng: &mut SimRng, paths: &[Path]) -> Op {
    let path = pick(rng, paths);
    match rng.index(14) {
        0 | 1 => Op::Read(path),
        2 => Op::Exists(path),
        3 | 4 => Op::Directory(path),
        5 => Op::GetPerms(path),
        6..=9 => Op::Write(path, rng.index(3) as u8),
        10 => Op::Mkdir(path),
        11 | 12 => Op::Rm(path),
        _ => Op::SetPerms(path, rng.index(4) as u8),
    }
}

pub fn generate(seed: u64, paths: &[Path]) -> History {
    let mut rng = SimRng::seed_from_u64(seed);
    let home = Path::domain_home(GUEST.0);
    // Some state to start from, and the guest's home handed to it.
    let mut steps = Vec::new();
    for _ in 0..2 + rng.index(4) {
        let path = pick(&mut rng, paths);
        steps.push(Step::Direct(
            DomId::DOM0,
            Op::Write(path, rng.index(3) as u8),
        ));
    }
    steps.push(Step::Direct(DomId::DOM0, Op::Mkdir(home.clone())));
    steps.push(Step::Direct(DomId::DOM0, Op::SetPerms(home, 1)));
    // Each transaction's steps, the direct operations and the destruction
    // are queues, interleaved by popping the head of one drawn at random.
    let mut queues: Vec<Vec<Step>> = Vec::new();
    for t in 0..2 + rng.index(4) {
        let dom = if rng.chance(0.3) { GUEST } else { DomId::DOM0 };
        let mut queue = vec![Step::Begin(t, dom)];
        for _ in 0..1 + rng.index(5) {
            queue.push(Step::In(t, random_op(&mut rng, paths)));
        }
        queue.push(Step::End(t, !rng.chance(0.1)));
        queues.push(queue);
    }
    let direct = (0..rng.index(5))
        .map(|_| {
            let dom = if rng.chance(0.3) { GUEST } else { DomId::DOM0 };
            Step::Direct(dom, random_op(&mut rng, paths))
        })
        .collect();
    queues.push(direct);
    queues.push(vec![Step::Destroy]);
    for queue in &mut queues {
        queue.reverse();
    }
    // Transactions begin in the order they are numbered.
    let mut begun = 0;
    loop {
        let ready: Vec<usize> = (0..queues.len())
            .filter(|&q| match queues[q].last() {
                None => false,
                Some(Step::Begin(t, _)) => *t == begun,
                Some(_) => true,
            })
            .collect();
        if ready.is_empty() {
            break;
        }
        let q = pick(&mut rng, &ready);
        let step = queues[q].pop().expect("a ready queue has a head");
        if let Step::Begin(..) = step {
            begun += 1;
        }
        steps.push(step);
    }
    History { seed, steps }
}
