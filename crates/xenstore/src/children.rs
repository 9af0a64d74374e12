//! The persistent ordered child map of a store node.
//!
//! A directory of up to `CHUNK_MAX` (64) children — nearly every directory
//! of a store — holds its entries itself: one sorted vector keyed by
//! `Rc<str>`, inside the node. Copying the node, which is what a write's
//! path copy does to every level still shared with a snapshot, copies those
//! entries (a name pointer and a child pointer each, never a name or a
//! subtree), and the descent reaches them without another pointer hop.
//!
//! A wider directory splits into a spine of [`Rc`]-shared *chunks*, each a
//! sorted run of at most `CHUNK_MAX` entries. Copying such a map copies the
//! spine, one pointer per chunk, and a mutation copies only the one chunk it
//! lands in, and only while that chunk is still shared with another map (a
//! non-atomic [`Rc`] count decides that; see [`crate::node`]). A write under
//! a directory of *n* children therefore path-copies *n* / `CHUNK_MAX`
//! pointers plus at most `CHUNK_MAX` entries, where a per-node
//! `BTreeMap<String, _>` cloned all *n* keys. A wide map that shrinks back
//! to one chunk holds its entries itself again.
//!
//! A new map owns no memory at all, and giving a leaf its first child
//! allocates room for four entries and nothing else; a directory whose
//! children all go keeps that room for the next.
//!
//! Iteration is in key order (byte-wise, the order [`crate::path::Path`]
//! sorts its components in), which the determinism contract relies on:
//! directory listings, [`crate::tree::Tree::all_paths`] and every
//! [`crate::tree::TreeDiff`] list come out sorted because this map does.
//! [`Cursor`] is the merge-iteration primitive `Tree::diff` uses; it can step
//! over a whole chunk that two wide maps share without looking inside it.
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
/// hold their entries themselves, found without searching a spine.
pub(crate) const CHUNK_MAX: usize = 64;

/// Room a directory's first entry buffer is given: growing a one-entry
/// buffer would reallocate at the second child, to this.
const FIRST_CAPACITY: usize = 4;

/// A child's name and value.
type Entry<V> = (Rc<str>, V);

type Chunk<V> = Vec<Entry<V>>;

/// Where [`ChildMap::find`] found an entry: the index of its chunk (0 in a
/// map of one) and its index within that chunk. Valid for the map it came
/// from until that map is next changed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Position {
    chunk: usize,
    entry: usize,
}

/// A persistent sorted map from child name to `V`.
///
/// Invariants: a short map holds at most `CHUNK_MAX` entries; a long map
/// holds two chunks or more, every chunk is
/// non-empty and sorted, chunks are in key order, and any two neighbouring
/// chunks hold more than `CHUNK_MAX / 2` entries between them (so the spine
/// is never longer than `len / (CHUNK_MAX / 4)`).
#[derive(Clone)]
pub struct ChildMap<V> {
    spine: Spine<V>,
}

/// The entries of a map, in key order.
#[derive(Clone)]
enum Spine<V> {
    /// Up to `CHUNK_MAX` entries, held in place: a map of this shape is
    /// never shared, so it is copied with the node that holds it.
    Short(Chunk<V>),
    /// Two chunks or more, each shared until a mutation lands in it.
    Long {
        chunks: Vec<Rc<Chunk<V>>>,
        /// Entries over all chunks.
        len: usize,
    },
}

impl<V> Default for ChildMap<V> {
    fn default() -> Self {
        ChildMap {
            spine: Spine::Short(Vec::new()),
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
        self.len() == other.len() && self.iter().eq(other.iter())
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
fn search<V>(chunk: &[Entry<V>], name: &str) -> Result<usize, usize> {
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

/// Index of the only chunk of a long map that may hold `name`: the last one
/// whose first key is not greater (the first chunk if there is none).
fn locate<V>(chunks: &[Rc<Chunk<V>>], name: &str) -> usize {
    // Chunks below `lo` start at or before `name`, chunks from `hi` on
    // start after it.
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

impl<V> ChildMap<V> {
    /// An empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        match &self.spine {
            Spine::Short(entries) => entries.len(),
            Spine::Long { len, .. } => *len,
        }
    }

    /// True if the map holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Where the child `name` is, if it is present.
    pub fn find(&self, name: &str) -> Option<Position> {
        match &self.spine {
            Spine::Short(entries) => {
                let entry = search(entries, name).ok()?;
                Some(Position { chunk: 0, entry })
            }
            Spine::Long { chunks, .. } => {
                let chunk = locate(chunks, name);
                let entry = search(&chunks[chunk], name).ok()?;
                Some(Position { chunk, entry })
            }
        }
    }

    /// Look a child up by name.
    pub fn get(&self, name: &str) -> Option<&V> {
        let entries = match &self.spine {
            Spine::Short(entries) => entries,
            Spine::Long { chunks, .. } => &**chunks[locate(chunks, name)],
        };
        let at = search(entries, name).ok()?;
        Some(&entries[at].1)
    }

    /// The entries of a short map, or else the chunks of a long one.
    fn parts(&self) -> (&[Entry<V>], &[Rc<Chunk<V>>]) {
        match &self.spine {
            Spine::Short(entries) => (entries, &[]),
            Spine::Long { chunks, .. } => (&[], chunks),
        }
    }

    /// Entries in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &V)> {
        let (entries, chunks) = self.parts();
        entries
            .iter()
            .chain(chunks.iter().flat_map(|chunk| chunk.iter()))
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
        let (entries, chunks) = self.parts();
        let mut cursor = Cursor {
            entries,
            at: 0,
            rest: chunks,
        };
        if entries.is_empty() {
            cursor.next_chunk();
        }
        cursor
    }

    /// Number of entries held in chunks that `other` holds too (the same
    /// allocation) — what a clone-then-mutate sequence did *not* copy. A
    /// short map's entries are its own, so it shares none.
    pub fn shared_len(&self, other: &Self) -> usize {
        self.shared_chunks(other).map(|chunk| chunk.len()).sum()
    }

    fn shared_chunks<'a>(&'a self, other: &'a Self) -> impl Iterator<Item = &'a Rc<Chunk<V>>> {
        let theirs = other.parts().1;
        self.parts().1.iter().filter(move |chunk| {
            chunk
                .first()
                .and_then(|(key, _)| theirs.get(locate(theirs, key)))
                .is_some_and(|theirs| Rc::ptr_eq(chunk, theirs))
        })
    }

    /// True if this map is the only holder of each of its chunks and keys,
    /// so a mutation copies none of them.
    pub(crate) fn holds_alone(&self) -> bool {
        let (entries, chunks) = self.parts();
        let keys_alone =
            |entries: &[Entry<V>]| entries.iter().all(|(key, _)| Rc::strong_count(key) == 1);
        keys_alone(entries)
            && chunks
                .iter()
                .all(|chunk| Rc::strong_count(chunk) == 1 && keys_alone(chunk))
    }

    /// `(shared, total)` chunk counts against `other`; a short map is one
    /// chunk, shared with nobody.
    #[cfg(test)]
    pub(crate) fn shared_chunk_counts(&self, other: &Self) -> (usize, usize) {
        let total = match &self.spine {
            Spine::Short(entries) => usize::from(!entries.is_empty()),
            Spine::Long { chunks, .. } => chunks.len(),
        };
        (self.shared_chunks(other).count(), total)
    }
}

impl<V: Clone> ChildMap<V> {
    /// The value at `at`, which [`ChildMap::find`] returned for this map
    /// since it last changed. In a long map, copies the chunk holding it if
    /// another map still shares it; no other chunk is touched.
    pub fn at_mut(&mut self, at: Position) -> &mut V {
        let entries = match &mut self.spine {
            Spine::Short(entries) => entries,
            Spine::Long { chunks, .. } => Rc::make_mut(&mut chunks[at.chunk]),
        };
        &mut entries[at.entry].1
    }

    /// Insert or replace a child, returning the previous value if any.
    pub fn insert(&mut self, name: &str, value: V) -> Option<V> {
        let (entries, at_chunk, found) = match &mut self.spine {
            Spine::Short(entries) => {
                let found = search(entries, name);
                (entries, 0, found)
            }
            Spine::Long { chunks, .. } => {
                let at_chunk = locate(chunks, name);
                let found = search(&chunks[at_chunk], name);
                (Rc::make_mut(&mut chunks[at_chunk]), at_chunk, found)
            }
        };
        let at = match found {
            Ok(at) => return Some(std::mem::replace(&mut entries[at].1, value)),
            Err(at) => at,
        };
        if entries.capacity() == 0 {
            entries.reserve_exact(FIRST_CAPACITY);
        }
        entries.insert(at, (Rc::from(name), value));
        if entries.len() > CHUNK_MAX {
            let upper = entries.split_off(entries.len() / 2);
            match &mut self.spine {
                Spine::Short(lower) => {
                    let lower = std::mem::take(lower);
                    let len = lower.len() + upper.len();
                    let chunks = vec![Rc::new(lower), Rc::new(upper)];
                    self.spine = Spine::Long { chunks, len };
                    return None;
                }
                Spine::Long { chunks, .. } => chunks.insert(at_chunk + 1, Rc::new(upper)),
            }
        }
        if let Spine::Long { len, .. } = &mut self.spine {
            *len += 1;
        }
        None
    }

    /// Remove and return the child at `at`, which [`ChildMap::find`]
    /// returned for this map since it last changed.
    pub fn remove_at(&mut self, at: Position) -> V {
        let (chunks, len) = match &mut self.spine {
            Spine::Short(entries) => {
                // An emptied directory keeps its buffer for the next child.
                return entries.remove(at.entry).1;
            }
            Spine::Long { chunks, len } => (chunks, len),
        };
        let chunk = Rc::make_mut(&mut chunks[at.chunk]);
        let (_, value) = chunk.remove(at.entry);
        *len -= 1;
        if chunk.is_empty() {
            chunks.remove(at.chunk);
        } else if !merge_if_small(chunks, at.chunk) && at.chunk > 0 {
            merge_if_small(chunks, at.chunk - 1);
        }
        // Down to one chunk, the map holds its entries itself again.
        if chunks.len() == 1 {
            if let Some(only) = chunks.pop() {
                self.spine = Spine::Short(Rc::unwrap_or_clone(only));
            }
        }
        value
    }
}

/// Fold chunk `lower + 1` into chunk `lower` if the pair has shrunk to half a
/// chunk or less, keeping the spine proportional to the map's length.
fn merge_if_small<V: Clone>(chunks: &mut Vec<Rc<Chunk<V>>>, lower: usize) -> bool {
    let small = match (chunks.get(lower), chunks.get(lower + 1)) {
        (Some(a), Some(b)) => a.len() + b.len() <= CHUNK_MAX / 2,
        _ => false,
    };
    if small {
        let upper = Rc::unwrap_or_clone(chunks.remove(lower + 1));
        Rc::make_mut(&mut chunks[lower]).extend(upper);
    }
    small
}

/// A forward cursor over a [`ChildMap`]'s entries in key order.
pub struct Cursor<'a, V> {
    /// The entries of the current chunk; `at` indexes into them.
    entries: &'a [Entry<V>],
    at: usize,
    /// The chunks after the current one.
    rest: &'a [Rc<Chunk<V>>],
}

impl<'a, V> Cursor<'a, V> {
    /// Make the next chunk, if there is one, the current one.
    fn next_chunk(&mut self) {
        if let Some((next, rest)) = self.rest.split_first() {
            self.entries = next;
            self.rest = rest;
        } else {
            self.entries = &[];
        }
        self.at = 0;
    }

    /// The entry under the cursor, or `None` at the end.
    pub fn peek(&self) -> Option<(&'a str, &'a V)> {
        let (key, value) = self.entries.get(self.at)?;
        Some((&**key, value))
    }

    /// Step to the next entry.
    pub fn advance(&mut self) {
        self.at += 1;
        if self.at >= self.entries.len() {
            self.next_chunk();
        }
    }

    /// If both cursors stand at the start of the *same* chunk (one
    /// allocation two long maps share), step both past it and return true.
    /// A merge-iteration would find every entry of that chunk equal on both
    /// sides, so skipping it changes nothing but the cost. A short map's
    /// entries are its own and never match another map's.
    pub fn skip_shared_chunk(&mut self, other: &mut Cursor<'a, V>) -> bool {
        let shared = self.at == 0
            && other.at == 0
            && !self.entries.is_empty()
            && std::ptr::eq(self.entries, other.entries);
        if shared {
            self.next_chunk();
            other.next_chunk();
        }
        shared
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jitsu_sim::SimRng;
    use std::collections::BTreeMap;

    /// Structural invariants the lookup and the spine bound rely on.
    fn check_invariants<V>(map: &ChildMap<V>) {
        match &map.spine {
            Spine::Short(entries) => {
                assert!(entries.len() <= CHUNK_MAX, "a short map fits one chunk");
            }
            Spine::Long { chunks, .. } => {
                assert!(chunks.len() >= 2, "a spine holds two chunks or more");
                for chunk in chunks {
                    assert!(!chunk.is_empty(), "no empty chunks");
                    assert!(chunk.len() <= CHUNK_MAX);
                }
                for pair in chunks.windows(2) {
                    assert!(pair[0].len() + pair[1].len() > CHUNK_MAX / 2);
                }
            }
        }
        let mut total = 0;
        let mut last: Option<&str> = None;
        for key in map.keys() {
            assert!(last.is_none_or(|l| l < key), "keys strictly ascend");
            last = Some(key);
            total += 1;
        }
        assert_eq!(total, map.len());
    }

    /// The chunks of a long map; none for a short one.
    fn chunks<V>(map: &ChildMap<V>) -> &[Rc<Chunk<V>>] {
        map.parts().1
    }

    fn is_short<V>(map: &ChildMap<V>) -> bool {
        matches!(map.spine, Spine::Short(_))
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
        assert!(chunks(&map).len() > 1);
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
        assert!(is_short(&map));
        assert_eq!(map.shared_chunk_counts(&map), (0, 1));
        // A first child gets room for four: the second to fourth allocate
        // nothing more.
        let mut map = ChildMap::new();
        for i in 0..FIRST_CAPACITY {
            map.insert(&format!("k{i}"), i);
            let Spine::Short(entries) = &map.spine else {
                panic!("short")
            };
            assert_eq!(entries.capacity(), FIRST_CAPACITY);
        }
    }

    #[test]
    fn a_map_splits_past_one_chunk_and_holds_its_entries_again_below_it() {
        for (order, seed) in [("ascending", 0), ("descending", 1), ("shuffled", 2)] {
            let mut rng = SimRng::seed_from_u64(0x5B17 ^ seed);
            let mut keys: Vec<usize> = (0..=CHUNK_MAX).collect();
            match order {
                "descending" => keys.reverse(),
                "shuffled" => {
                    for i in (1..keys.len()).rev() {
                        keys.swap(i, rng.index(i + 1));
                    }
                }
                _ => {}
            }
            let mut map = ChildMap::new();
            let mut model = BTreeMap::new();
            for (step, &k) in keys.iter().enumerate() {
                let key = format!("k{k:02}");
                assert_eq!(
                    map.insert(&key, step as u64),
                    model.insert(key, step as u64)
                );
                assert_matches_model(&map, &model);
                // Short up to a full chunk; one entry more splits it.
                assert_eq!(is_short(&map), map.len() <= CHUNK_MAX, "{order}");
            }
            assert_eq!(chunks(&map).len(), 2);
            // A snapshot shares both chunks; shrinking the map back to one
            // copies what it keeps, and the snapshot still reads as it was.
            let snapshot = (map.clone(), model.clone());
            assert_eq!(map.shared_len(&snapshot.0), CHUNK_MAX + 1);
            let mut went_short = None;
            for (step, &k) in keys.iter().rev().enumerate() {
                let key = format!("k{k:02}");
                assert_eq!(remove(&mut map, &key), model.remove(&key));
                assert_matches_model(&map, &model);
                if is_short(&map) {
                    went_short.get_or_insert(step);
                } else {
                    assert!(went_short.is_none(), "{order}: a short map stays short");
                }
            }
            assert!(
                went_short.is_some_and(|step| step <= CHUNK_MAX / 2),
                "{order}"
            );
            assert_matches_model(&snapshot.0, &snapshot.1);
            assert!(map.is_empty() && is_short(&map));
        }
        // Unshared, the last chunk becomes the map's own without a copy.
        let mut map = filled(CHUNK_MAX + 1);
        let kept = chunks(&map)[1].as_ptr();
        while !is_short(&map) {
            let key = map.keys().next().unwrap().to_string();
            remove(&mut map, &key);
        }
        let Spine::Short(entries) = &map.spine else {
            panic!("short")
        };
        assert_eq!(entries.as_ptr(), kept);
    }

    #[test]
    fn clone_shares_every_chunk_and_a_write_copies_one() {
        let map = filled(4_096);
        let mut copy = map.clone();
        assert_eq!(copy.shared_chunk_counts(&map).0, chunks(&map).len());
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
        let spine = chunks(&copy).len();
        assert!(spine > 2);
        // A search, hit or miss, copies nothing.
        assert_eq!(copy.find("k1000"), None);
        let at = copy.find("k500").unwrap();
        assert_eq!(copy.shared_chunk_counts(&map), (spine, spine));
        *copy.at_mut(at) = 9;
        let same = |a: &Rc<Chunk<usize>>, b: &Rc<Chunk<usize>>| Rc::ptr_eq(a, b);
        let copied: Vec<usize> = (0..spine)
            .filter(|&i| !same(&chunks(&copy)[i], &chunks(&map)[i]))
            .collect();
        assert_eq!(copied, [at.chunk], "only the chunk holding k500 is copied");
        // Once copied, the chunk is the copy's own: a second access there
        // copies nothing more.
        let own = Rc::as_ptr(&chunks(&copy)[at.chunk]);
        let neighbour = copy.find(&format!("k{}", 500 + 1)).unwrap();
        assert_eq!(neighbour.chunk, at.chunk);
        *copy.at_mut(neighbour) = 10;
        assert_eq!(Rc::as_ptr(&chunks(&copy)[at.chunk]), own);
        assert_eq!(copy.shared_chunk_counts(&map), (spine - 1, spine));
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
        assert!(is_short(&map));
        for i in (0..1_000).step_by(50) {
            assert_eq!(remove(&mut map, &format!("k{i}")), Some(i));
        }
        assert!(map.is_empty() && is_short(&map));
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
