//! The persistent ordered child map of a store node.
//!
//! A directory's children live in a *chunked sorted vector*: a spine of
//! [`Rc`]-shared chunks, each a sorted run of at most `CHUNK_MAX` (64) entries
//! keyed by `Rc<str>`. Cloning the map copies the spine — one pointer per
//! chunk, never a key or an entry — and a mutation copies only the one chunk
//! it lands in, and only while that chunk is still shared with another map
//! (a non-atomic [`Rc`] count decides that; see [`crate::node`]).
//! A write under a directory of *n* children therefore path-copies
//! *n* / `CHUNK_MAX` pointers plus at most `CHUNK_MAX` entries, where a
//! per-node `BTreeMap<String, _>` cloned all *n* keys.
//!
//! Most nodes are leaves and most directories fit one chunk, so the spine is
//! allocated only from the second chunk on: a map of no chunk or one holds
//! it in place, an empty map owns no memory at all, and giving a leaf its
//! first child allocates the chunk and nothing else.
//!
//! Iteration is in key order (byte-wise, the order [`crate::path::Path`]
//! sorts its components in), which the determinism contract relies on:
//! directory listings, [`crate::tree::Tree::all_paths`] and every
//! [`crate::tree::TreeDiff`] list come out sorted because this map does.
//! [`Cursor`] is the merge-iteration primitive `Tree::diff` uses; it can step
//! over a whole chunk that two maps share without looking inside it.
//!
//! A mutable lookup is two steps: [`ChildMap::find`] searches once and
//! returns a [`Position`] — the chunk, and the entry within it — and
//! [`ChildMap::at_mut`] or [`ChildMap::remove_at`] then goes straight there.
//! The split lets a caller descend a tree with one search a level and still
//! keep the deepest node it reached when a name is missing, which a single
//! `get_mut` returning `Option<&mut V>` cannot give the borrow checker.

use std::cmp::Ordering;
use std::rc::Rc;

/// Entries per chunk before it splits in two. Directories up to this size
/// are a single sorted vector, found without searching the spine.
pub(crate) const CHUNK_MAX: usize = 64;

type Chunk<V> = Vec<(Rc<str>, V)>;

/// Where [`ChildMap::find`] found an entry: the index of its chunk and its
/// index within that chunk. Valid for the map it came from until that map is
/// next changed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Position {
    chunk: usize,
    entry: usize,
}

/// A persistent sorted map from child name to `V`.
///
/// Invariants: every chunk is non-empty and sorted, chunks are in key order,
/// and any two neighbouring chunks hold more than `CHUNK_MAX / 2` entries
/// between them (so the spine is never longer than `len / (CHUNK_MAX / 4)`).
#[derive(Clone)]
pub struct ChildMap<V> {
    chunks: Spine<V>,
    len: usize,
}

/// The chunks of a map, in key order.
#[derive(Clone)]
enum Spine<V> {
    /// No chunk or one, held in place.
    Short(Option<Rc<Chunk<V>>>),
    /// Two chunks or more.
    Long(Vec<Rc<Chunk<V>>>),
}

impl<V> Spine<V> {
    fn as_slice(&self) -> &[Rc<Chunk<V>>] {
        match self {
            Spine::Short(chunk) => chunk.as_slice(),
            Spine::Long(chunks) => chunks,
        }
    }

    fn as_mut_slice(&mut self) -> &mut [Rc<Chunk<V>>] {
        match self {
            Spine::Short(chunk) => chunk.as_mut_slice(),
            Spine::Long(chunks) => chunks,
        }
    }

    /// Insert `chunk` as the `at`-th.
    fn insert(&mut self, at: usize, chunk: Rc<Chunk<V>>) {
        *self = match std::mem::replace(self, Spine::Short(None)) {
            Spine::Short(None) => Spine::Short(Some(chunk)),
            Spine::Short(Some(only)) if at == 0 => Spine::Long(vec![chunk, only]),
            Spine::Short(Some(only)) => Spine::Long(vec![only, chunk]),
            Spine::Long(mut chunks) => {
                chunks.insert(at, chunk);
                Spine::Long(chunks)
            }
        };
    }

    /// Remove and return the `at`-th chunk.
    fn remove(&mut self, at: usize) -> Option<Rc<Chunk<V>>> {
        match self {
            Spine::Short(chunk) => chunk.take_if(|_| at == 0),
            Spine::Long(chunks) => {
                let removed = (at < chunks.len()).then(|| chunks.remove(at));
                if chunks.len() == 1 {
                    *self = Spine::Short(chunks.pop());
                }
                removed
            }
        }
    }
}

impl<V> Default for ChildMap<V> {
    fn default() -> Self {
        ChildMap {
            chunks: Spine::Short(None),
            len: 0,
        }
    }
}

impl<V: std::fmt::Debug> std::fmt::Debug for ChildMap<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// Equality is by content: two maps holding the same entries are equal
/// however those entries are chunked.
impl<V: PartialEq> PartialEq for ChildMap<V> {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl<V: Eq> Eq for ChildMap<V> {}

/// Binary search of one chunk, with the contract of `slice::binary_search`.
///
/// Hand-rolled for its early exit and its branches: the standard library's
/// search is branch-free, which chains every string comparison behind the
/// one before it, and on the short keys and small directories of a store
/// tree that made a lookup several times dearer than in the `BTreeMap` this
/// map replaced. Predicted branches let the comparisons overlap.
fn search<V>(chunk: &[(Rc<str>, V)], name: &str) -> Result<usize, usize> {
    let (mut lo, mut hi) = (0, chunk.len());
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        match (*chunk[mid].0).cmp(name) {
            Ordering::Less => lo = mid + 1,
            Ordering::Greater => hi = mid,
            Ordering::Equal => return Ok(mid),
        }
    }
    Err(lo)
}

impl<V> ChildMap<V> {
    /// An empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the map holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Index of the only chunk that may hold `name`: the last one whose
    /// first key is not greater (the first chunk if there is none).
    fn locate(&self, name: &str) -> usize {
        // Chunks below `lo` start at or before `name`, chunks from `hi` on
        // start after it. A one-chunk directory never enters the loop.
        let chunks = self.chunks.as_slice();
        let (mut lo, mut hi) = (1, chunks.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if chunks[mid].first().is_some_and(|(key, _)| **key <= *name) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo - 1
    }

    /// Where the child `name` is, if it is present.
    pub fn find(&self, name: &str) -> Option<Position> {
        let chunk = self.locate(name);
        let entry = search(self.chunks.as_slice().get(chunk)?, name).ok()?;
        Some(Position { chunk, entry })
    }

    /// Look a child up by name.
    pub fn get(&self, name: &str) -> Option<&V> {
        let chunk = self.chunks.as_slice().get(self.locate(name))?;
        let at = search(chunk, name).ok()?;
        Some(&chunk[at].1)
    }

    /// Entries in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &V)> {
        self.chunks
            .as_slice()
            .iter()
            .flat_map(|chunk| chunk.iter())
            .map(|(key, value)| (&**key, value))
    }

    /// Child names in sorted order.
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.iter().map(|(key, _)| key)
    }

    /// Children in name order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.iter().map(|(_, value)| value)
    }

    /// A cursor at the first entry.
    pub fn cursor(&self) -> Cursor<'_, V> {
        Cursor {
            chunks: self.chunks.as_slice(),
            at: 0,
        }
    }

    /// Number of entries held in chunks that `other` holds too (the same
    /// allocation) — what a clone-then-mutate sequence did *not* copy.
    pub fn shared_len(&self, other: &Self) -> usize {
        self.shared_chunks(other).map(|chunk| chunk.len()).sum()
    }

    fn shared_chunks<'a>(&'a self, other: &'a Self) -> impl Iterator<Item = &'a Rc<Chunk<V>>> {
        self.chunks.as_slice().iter().filter(|chunk| {
            chunk
                .first()
                .and_then(|(key, _)| other.chunks.as_slice().get(other.locate(key)))
                .is_some_and(|theirs| Rc::ptr_eq(chunk, theirs))
        })
    }

    /// True if this map is the only holder of each of its chunks and keys,
    /// so a mutation copies none of them.
    pub(crate) fn holds_alone(&self) -> bool {
        self.chunks.as_slice().iter().all(|chunk| {
            Rc::strong_count(chunk) == 1 && chunk.iter().all(|(key, _)| Rc::strong_count(key) == 1)
        })
    }

    /// `(shared, total)` chunk counts against `other`.
    #[cfg(test)]
    pub(crate) fn shared_chunk_counts(&self, other: &Self) -> (usize, usize) {
        (
            self.shared_chunks(other).count(),
            self.chunks.as_slice().len(),
        )
    }
}

impl<V: Clone> ChildMap<V> {
    /// The value at `at`, which [`ChildMap::find`] returned for this map
    /// since it last changed. Copies the chunk holding it if another map
    /// still shares it; no other chunk is touched.
    pub fn at_mut(&mut self, at: Position) -> &mut V {
        &mut Rc::make_mut(&mut self.chunks.as_mut_slice()[at.chunk])[at.entry].1
    }

    /// Insert or replace a child, returning the previous value if any.
    pub fn insert(&mut self, name: &str, value: V) -> Option<V> {
        let at_chunk = self.locate(name);
        let Some(shared) = self.chunks.as_mut_slice().get_mut(at_chunk) else {
            self.chunks = Spine::Short(Some(Rc::new(vec![(Rc::from(name), value)])));
            self.len = 1;
            return None;
        };
        let at = match search(shared, name) {
            Ok(at) => return Some(std::mem::replace(&mut Rc::make_mut(shared)[at].1, value)),
            Err(at) => at,
        };
        let chunk = Rc::make_mut(shared);
        chunk.insert(at, (Rc::from(name), value));
        self.len += 1;
        if chunk.len() > CHUNK_MAX {
            let upper = chunk.split_off(chunk.len() / 2);
            self.chunks.insert(at_chunk + 1, Rc::new(upper));
        }
        None
    }

    /// Remove and return the child at `at`, which [`ChildMap::find`]
    /// returned for this map since it last changed.
    pub fn remove_at(&mut self, at: Position) -> V {
        let chunk = Rc::make_mut(&mut self.chunks.as_mut_slice()[at.chunk]);
        let (_, value) = chunk.remove(at.entry);
        self.len -= 1;
        if chunk.is_empty() {
            self.chunks.remove(at.chunk);
        } else if !self.merge_if_small(at.chunk) && at.chunk > 0 {
            self.merge_if_small(at.chunk - 1);
        }
        value
    }

    /// Fold chunk `lower + 1` into chunk `lower` if the pair has shrunk to
    /// half a chunk or less, keeping the spine proportional to `len`.
    fn merge_if_small(&mut self, lower: usize) -> bool {
        let chunks = self.chunks.as_slice();
        let small = match (chunks.get(lower), chunks.get(lower + 1)) {
            (Some(a), Some(b)) => a.len() + b.len() <= CHUNK_MAX / 2,
            _ => false,
        };
        if !small {
            return false;
        }
        if let Some(upper) = self.chunks.remove(lower + 1) {
            if let Some(into) = self.chunks.as_mut_slice().get_mut(lower) {
                Rc::make_mut(into).extend(upper.iter().cloned());
            }
        }
        true
    }
}

/// A forward cursor over a [`ChildMap`]'s entries in key order.
pub struct Cursor<'a, V> {
    /// The chunks not yet fully consumed; `at` indexes into the first.
    chunks: &'a [Rc<Chunk<V>>],
    at: usize,
}

impl<'a, V> Cursor<'a, V> {
    /// The entry under the cursor, or `None` at the end.
    pub fn peek(&self) -> Option<(&'a str, &'a V)> {
        let (key, value) = self.chunks.first()?.get(self.at)?;
        Some((&**key, value))
    }

    /// Step to the next entry.
    pub fn advance(&mut self) {
        self.at += 1;
        if self.chunks.first().is_some_and(|c| self.at >= c.len()) {
            self.chunks = &self.chunks[1..];
            self.at = 0;
        }
    }

    /// If both cursors stand at the start of the *same* chunk (one
    /// allocation shared by the two maps), step both past it and return
    /// true. A merge-iteration would find every entry of that chunk equal
    /// on both sides, so skipping it changes nothing but the cost.
    pub fn skip_shared_chunk(&mut self, other: &mut Cursor<'a, V>) -> bool {
        if self.at != 0 || other.at != 0 {
            return false;
        }
        match (self.chunks.split_first(), other.chunks.split_first()) {
            (Some((mine, my_rest)), Some((theirs, their_rest))) if Rc::ptr_eq(mine, theirs) => {
                self.chunks = my_rest;
                other.chunks = their_rest;
                true
            }
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jitsu_sim::SimRng;
    use std::collections::BTreeMap;

    /// Structural invariants the lookup and the spine bound rely on.
    fn check_invariants<V>(map: &ChildMap<V>) {
        let mut total = 0;
        let mut last: Option<&str> = None;
        for chunk in map.chunks.as_slice() {
            assert!(!chunk.is_empty(), "no empty chunks");
            assert!(chunk.len() <= CHUNK_MAX);
            for (key, _) in chunk.iter() {
                assert!(last.is_none_or(|l| l < &**key), "keys strictly ascend");
                last = Some(key);
            }
            total += chunk.len();
        }
        assert_eq!(total, map.len());
        // A spine is allocated only for two chunks or more.
        assert!(!matches!(&map.chunks, Spine::Long(chunks) if chunks.len() < 2));
        for pair in map.chunks.as_slice().windows(2) {
            assert!(pair[0].len() + pair[1].len() > CHUNK_MAX / 2);
        }
    }

    /// Remove the child `name` if it is present, as `BTreeMap::remove`.
    fn remove<V: Clone>(map: &mut ChildMap<V>, name: &str) -> Option<V> {
        let at = map.find(name)?;
        Some(map.remove_at(at))
    }

    fn filled(n: usize) -> ChildMap<usize> {
        let mut map = ChildMap::new();
        for i in 0..n {
            assert_eq!(map.insert(&format!("k{i}"), i), None);
        }
        map
    }

    #[test]
    fn empty_map_behaves() {
        let mut map: ChildMap<u8> = ChildMap::new();
        assert!(map.is_empty());
        assert_eq!(map.get("a"), None);
        assert_eq!(map.find("a"), None);
        assert_eq!(remove(&mut map, "a"), None);
        assert_eq!(map.iter().count(), 0);
        assert!(map.cursor().peek().is_none());
    }

    #[test]
    fn iteration_is_sorted_across_chunk_boundaries() {
        let map = filled(1_000);
        check_invariants(&map);
        assert!(map.chunks.as_slice().len() > 1);
        let keys: Vec<&str> = map.keys().collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted);
        assert_eq!(map.len(), 1_000);
        for i in 0..1_000 {
            assert_eq!(map.get(&format!("k{i}")), Some(&i));
        }
        assert_eq!(map.get("k"), None);
        assert_eq!(map.get("zzz"), None);
        assert_eq!(map.get("0"), None);
    }

    #[test]
    fn small_directories_are_one_chunk() {
        let map = filled(CHUNK_MAX);
        assert_eq!(map.chunks.as_slice().len(), 1);
    }

    #[test]
    fn clone_shares_every_chunk_and_a_write_copies_one() {
        let map = filled(4_096);
        let mut copy = map.clone();
        assert_eq!(
            copy.shared_chunk_counts(&map).0,
            map.chunks.as_slice().len()
        );
        assert_eq!(copy.shared_len(&map), 4_096);
        let at = copy.find("k2000").unwrap();
        *copy.at_mut(at) = 7;
        let (shared, total) = copy.shared_chunk_counts(&map);
        assert_eq!(shared, total - 1);
        assert!(4_096 - copy.shared_len(&map) <= CHUNK_MAX);
        // The original is untouched.
        assert_eq!(map.get("k2000"), Some(&2000));
        assert_eq!(copy.get("k2000"), Some(&7));
    }

    #[test]
    fn find_then_at_mut_copies_only_the_addressed_chunk() {
        let map = filled(1_000);
        let mut copy = map.clone();
        let chunks = copy.chunks.as_slice().len();
        assert!(chunks > 2);
        // A search, hit or miss, copies nothing.
        assert_eq!(copy.find("k1000"), None);
        let at = copy.find("k500").unwrap();
        assert_eq!(copy.shared_chunk_counts(&map), (chunks, chunks));
        *copy.at_mut(at) = 9;
        let same = |a: &Rc<Chunk<usize>>, b: &Rc<Chunk<usize>>| Rc::ptr_eq(a, b);
        let copied: Vec<usize> = (0..chunks)
            .filter(|&i| !same(&copy.chunks.as_slice()[i], &map.chunks.as_slice()[i]))
            .collect();
        assert_eq!(copied, [at.chunk], "only the chunk holding k500 is copied");
        // Once copied, the chunk is the copy's own: a second access there
        // copies nothing more.
        let own = Rc::as_ptr(&copy.chunks.as_slice()[at.chunk]);
        let neighbour = copy.find(&format!("k{}", 500 + 1)).unwrap();
        assert_eq!(neighbour.chunk, at.chunk);
        *copy.at_mut(neighbour) = 10;
        assert_eq!(Rc::as_ptr(&copy.chunks.as_slice()[at.chunk]), own);
        assert_eq!(copy.shared_chunk_counts(&map), (chunks - 1, chunks));
        assert_eq!((copy.get("k500"), map.get("k500")), (Some(&9), Some(&500)));
        assert_eq!((copy.get("k501"), map.get("k501")), (Some(&10), Some(&501)));
        // `remove_at` takes the entry `find` named.
        let at = copy.find("k7").unwrap();
        assert_eq!(copy.remove_at(at), 7);
        assert_eq!(copy.get("k7"), None);
        check_invariants(&copy);
        // A copied chunk still shares its keys until the original goes.
        assert!(!copy.holds_alone() && !map.holds_alone());
        drop(map);
        assert!(copy.holds_alone());
    }

    #[test]
    fn removal_merges_small_neighbours_and_drops_empty_chunks() {
        let mut map = filled(1_000);
        for i in 0..1_000 {
            if i % 50 != 0 {
                assert_eq!(remove(&mut map, &format!("k{i}")), Some(i));
                check_invariants(&map);
            }
        }
        assert_eq!(map.len(), 20);
        assert_eq!(map.chunks.as_slice().len(), 1);
        for i in (0..1_000).step_by(50) {
            assert_eq!(remove(&mut map, &format!("k{i}")), Some(i));
        }
        assert!(map.is_empty());
        assert!(matches!(map.chunks, Spine::Short(None)));
    }

    #[test]
    fn equality_ignores_chunking() {
        let forward = filled(300);
        let mut backward = ChildMap::new();
        for i in (0..300).rev() {
            backward.insert(&format!("k{i}"), i);
        }
        assert_eq!(forward, backward);
        backward.insert("k0", 9);
        assert_ne!(forward, backward);
    }

    #[test]
    fn cursors_skip_shared_chunks_only_when_aligned() {
        let old = filled(500);
        let mut new = old.clone();
        new.insert("k250x", 0);
        // One step into a chunk, the rest of it is no longer skippable.
        let (mut a, mut b) = (old.cursor(), new.cursor());
        a.advance();
        assert!(!a.skip_shared_chunk(&mut b));
        assert_eq!(b.peek().map(|(key, _)| key), Some("k0"));

        let (mut a, mut b) = (old.cursor(), new.cursor());
        let mut compared = 0;
        loop {
            if a.skip_shared_chunk(&mut b) {
                continue;
            }
            match (a.peek(), b.peek()) {
                (None, None) => break,
                (Some((x, _)), Some((y, _))) if x == y => {
                    a.advance();
                    b.advance();
                }
                (_, Some((y, _))) => {
                    assert_eq!(y, "k250x");
                    b.advance();
                }
                (Some(_), None) => panic!("old has nothing new lacks"),
            }
            compared += 1;
        }
        assert!(compared <= CHUNK_MAX + 1, "compared {compared} entries");
    }

    // ---------------- model-based property test ---------------------------

    fn assert_matches_model(map: &ChildMap<u64>, model: &BTreeMap<String, u64>) {
        check_invariants(map);
        assert_eq!(map.len(), model.len());
        assert_eq!(map.is_empty(), model.is_empty());
        assert!(map
            .iter()
            .eq(model.iter().map(|(key, value)| (key.as_str(), value))));
        let mut cursor = map.cursor();
        for (key, value) in model {
            assert_eq!(cursor.peek(), Some((key.as_str(), value)));
            cursor.advance();
        }
        assert!(cursor.peek().is_none());
    }

    #[test]
    fn random_ops_interleaved_with_clones_match_a_btreemap_model() {
        for seed in 0..24u64 {
            let mut rng = SimRng::seed_from_u64(0x4A17_5001 ^ seed);
            // Key spaces from "fits one chunk" to "dozens of chunks", so
            // splits, merges and the single-chunk fast path all run.
            let key_space = [8, 100, 700, 3_000][(seed % 4) as usize];
            let mut map: ChildMap<u64> = ChildMap::new();
            let mut model: BTreeMap<String, u64> = BTreeMap::new();
            let mut snapshots: Vec<(ChildMap<u64>, BTreeMap<String, u64>)> = Vec::new();
            for step in 0..4_000u64 {
                let key = format!("n{}", rng.index(key_space));
                // Grow first, then shrink, then mix.
                let remove_bias = if step < 1_500 { 1 } else { 5 };
                match rng.index(10) {
                    r if r < remove_bias => {
                        assert_eq!(remove(&mut map, &key), model.remove(&key));
                    }
                    r if r < 8 => {
                        assert_eq!(map.insert(&key, step), model.insert(key, step));
                    }
                    8 => {
                        if let Some(at) = map.find(&key) {
                            *map.at_mut(at) += 1;
                        }
                        if let Some(slot) = model.get_mut(&key) {
                            *slot += 1;
                        }
                    }
                    _ => assert_eq!(map.get(&key), model.get(&key)),
                }
                if step % 257 == 0 {
                    snapshots.push((map.clone(), model.clone()));
                }
                if step % 64 == 0 {
                    assert_matches_model(&map, &model);
                }
            }
            assert_matches_model(&map, &model);
            // Snapshot immunity: every clone still reads as it did when it
            // was taken, whatever happened to the map since.
            for (snapshot, snapshot_model) in &snapshots {
                assert_matches_model(snapshot, snapshot_model);
            }
        }
    }
}
