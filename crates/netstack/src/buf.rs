//! Shared, immutable frame buffers: the spine of the frame path.
//!
//! A [`FrameBuf`] is a reference-counted window onto bytes that no longer
//! change: [`FrameBuf::slice`] and `clone` hand out O(1) views — an Ethernet
//! payload, the IPv4 payload inside it, the TCP payload inside *that* — all
//! sharing one allocation. [`FrameBufMut`] is the other half: the emit paths
//! size a builder up front, write headers and payload into it once, and
//! [`FrameBufMut::freeze`] seals it without touching the bytes again.
//!
//! What that does and does not promise, per packet:
//!
//! - **Composing a frame copies its payload once**, into the one buffer that
//!   holds `eth | ip | l4 | payload` (`Interface` sizes it up front; the
//!   codecs' header writers append to it).
//! - **Sealing is free.** The backing store is an `Rc` holding the
//!   `Box<[u8]>` and its sum's memo: sealing moves the builder's allocation
//!   behind a reference count, a plain one because frames never leave the
//!   simulator's thread. (An
//!   `Rc<[u8]>` would be one allocation instead of two, but it cannot adopt
//!   a `Vec`'s allocation: `Rc::from(vec)` allocates again and copies,
//!   where a search for `.clone()` / `.to_vec()` cannot see it; and safe
//!   code can only fill one in place after zeroing it,
//!   which measures slower than the second allocation at every frame size.)
//! - **Crossing a ring copies twice**: into the granted page, and out of it
//!   into one destination buffer per transfer (`conduit::vchan`).
//! - **Everything after that is a view**: parsers, in-order delivery, HTTP
//!   bodies and replay slice the arriving buffer and never copy it. This is
//!   what `tests/frame_path.rs` and the `shares_allocation` assertions
//!   fence.
//! - **Concatenating consecutive views is free.** [`FrameBuf::concat`] of
//!   windows that follow one another in one allocation is the view that
//!   spans them, so a message built or parsed as head plus body emits
//!   without a copy.
//! - **A sealed buffer is summed at most once.** [`FrameBuf::sum`] of a view
//!   spanning its whole allocation computes the Internet checksum's
//!   one's-complement sum on first use and keeps it beside the bytes, which
//!   never change; the transport writers add it instead of reading the
//!   payload again. A stored response sent a million times is summed once.
//!   A view of part of an allocation is summed on every call, and no
//!   receiver consults the memo: a parser verifies every byte it is given.
//!
//! Copies that *must* happen (reassembly of a request split over segments)
//! go through [`FrameBuf::copy_from_slice`] or [`FrameBuf::concat`] so the
//! intent is visible at the call site. `tests/data_plane_budget.rs` pins
//! what one exchange allocates, exactly.

use crate::checksum;
use std::cell::Cell;
use std::ops::{Bound, Deref, RangeBounds};
use std::rc::Rc;

/// One sealed allocation: its bytes, exactly as long as they were sealed
/// with (no spare capacity is kept alive), and their one's-complement sum
/// once [`FrameBuf::sum`] has computed it.
struct Sealed {
    bytes: Box<[u8]>,
    sum: Cell<Option<u32>>,
}

/// An immutable, cheaply cloneable view into shared frame bytes.
///
/// Cloning and slicing are O(1): both produce a new view over the same
/// underlying allocation. The empty buffer holds no allocation at all, so
/// [`FrameBuf::empty`] is free and `const`.
#[derive(Clone)]
pub struct FrameBuf {
    /// `None` iff the buffer is empty — the empty view never allocates.
    data: Option<Rc<Sealed>>,
    start: usize,
    end: usize,
}

impl FrameBuf {
    /// The empty buffer. Allocation-free and `const`.
    pub const fn empty() -> FrameBuf {
        FrameBuf {
            data: None,
            start: 0,
            end: 0,
        }
    }

    /// Seal `bytes` as a shared buffer by adopting its allocation: the
    /// bytes are not copied. Spare capacity is handed back to the allocator
    /// first (a no-op for a `Vec` filled to the size it was created with,
    /// which is how every emit path builds one).
    pub fn from_vec(bytes: Vec<u8>) -> FrameBuf {
        if bytes.is_empty() {
            return FrameBuf::empty();
        }
        let end = bytes.len();
        FrameBuf {
            data: Some(Rc::new(Sealed {
                bytes: bytes.into_boxed_slice(),
                sum: Cell::new(None),
            })),
            start: 0,
            end,
        }
    }

    /// Copy `bytes` into a fresh shared buffer. This is the *explicit* copy
    /// constructor: where the frame path has to copy (bytes the caller only
    /// borrows, reassembly), the copy is spelled out, not hidden in a
    /// `.to_vec()`.
    pub fn copy_from_slice(bytes: &[u8]) -> FrameBuf {
        let mut out = FrameBufMut::with_capacity(bytes.len());
        out.extend_from_slice(bytes);
        out.freeze()
    }

    /// Number of visible bytes.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True when no bytes are visible.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// The visible bytes as a plain slice.
    pub fn as_slice(&self) -> &[u8] {
        match &self.data {
            Some(d) => &d.bytes[self.start..self.end],
            None => &[],
        }
    }

    /// The one's-complement sum of the visible bytes, as
    /// [`checksum::partial`] from a zero sum gives it. A view of its whole
    /// allocation sums it on the first call and answers every later call,
    /// from any view of the whole, from the sum it kept; a view of part of
    /// an allocation is summed on every call and remembers nothing.
    pub fn sum(&self) -> u32 {
        match &self.data {
            Some(d) if self.start == 0 && self.end == d.bytes.len() => {
                d.sum.get().unwrap_or_else(|| {
                    let sum = checksum::partial(0, &d.bytes);
                    d.sum.set(Some(sum));
                    sum
                })
            }
            _ => checksum::partial(0, self.as_slice()),
        }
    }

    /// An O(1) sub-view sharing this buffer's allocation. Follows the std
    /// slice-index contract: an out-of-range or inverted range panics.
    #[expect(
        clippy::panic,
        reason = "mirrors the std slice-index contract: a bad range is a caller bug"
    )]
    pub fn slice(&self, range: impl RangeBounds<usize>) -> FrameBuf {
        let len = self.len();
        let start = match range.start_bound() {
            Bound::Included(&s) => s,
            Bound::Excluded(&s) => s + 1,
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&e) => e + 1,
            Bound::Excluded(&e) => e,
            Bound::Unbounded => len,
        };
        if start > end || end > len {
            panic!("FrameBuf::slice: range {start}..{end} out of bounds for length {len}");
        }
        if start == end {
            return FrameBuf::empty();
        }
        match &self.data {
            Some(d) => FrameBuf {
                data: Some(Rc::clone(d)),
                start: self.start + start,
                end: self.start + end,
            },
            None => FrameBuf::empty(),
        }
    }

    /// Concatenate views. When the non-empty parts are consecutive windows
    /// of one allocation, in order, the result is the O(1) view that spans
    /// them: a single part, a built or parsed message's head and body, or
    /// in-order pieces of one frame. Only parts that lie apart are copied.
    pub fn concat(parts: &[FrameBuf]) -> FrameBuf {
        let mut non_empty = parts.iter().filter(|p| !p.is_empty());
        let Some(first) = non_empty.next() else {
            return FrameBuf::empty();
        };
        let mut span = first.clone();
        for part in non_empty {
            if !(part.shares_allocation(&span) && part.start == span.end) {
                let total = parts.iter().map(|p| p.len()).sum();
                let mut out = FrameBufMut::with_capacity(total);
                for part in parts {
                    out.extend_from_slice(part);
                }
                return out.freeze();
            }
            span.end = part.end;
        }
        span
    }

    /// True when this view is backed by a heap allocation (the empty buffer
    /// never is — the zero-byte vchan read regression test keys on this).
    pub fn has_allocation(&self) -> bool {
        self.data.is_some()
    }

    /// True when both views are windows into the *same* allocation — the
    /// structural zero-copy check the `frame_path` bench suite counts
    /// copies with.
    pub fn shares_allocation(&self, other: &FrameBuf) -> bool {
        match (&self.data, &other.data) {
            (Some(a), Some(b)) => Rc::ptr_eq(a, b),
            _ => false,
        }
    }
}

impl Default for FrameBuf {
    fn default() -> FrameBuf {
        FrameBuf::empty()
    }
}

impl Deref for FrameBuf {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for FrameBuf {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl std::fmt::Debug for FrameBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("FrameBuf").field(&self.as_slice()).finish()
    }
}

impl From<Vec<u8>> for FrameBuf {
    fn from(v: Vec<u8>) -> FrameBuf {
        FrameBuf::from_vec(v)
    }
}

impl From<&[u8]> for FrameBuf {
    fn from(v: &[u8]) -> FrameBuf {
        FrameBuf::copy_from_slice(v)
    }
}

impl<const N: usize> From<&[u8; N]> for FrameBuf {
    fn from(v: &[u8; N]) -> FrameBuf {
        FrameBuf::copy_from_slice(v)
    }
}

impl From<&FrameBuf> for FrameBuf {
    fn from(v: &FrameBuf) -> FrameBuf {
        v.clone()
    }
}

impl From<FrameBufMut> for FrameBuf {
    fn from(v: FrameBufMut) -> FrameBuf {
        v.freeze()
    }
}

impl PartialEq for FrameBuf {
    fn eq(&self, other: &FrameBuf) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for FrameBuf {}

impl PartialEq<[u8]> for FrameBuf {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<&[u8]> for FrameBuf {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_slice() == *other
    }
}

impl PartialEq<Vec<u8>> for FrameBuf {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<const N: usize> PartialEq<[u8; N]> for FrameBuf {
    fn eq(&self, other: &[u8; N]) -> bool {
        self.as_slice() == other
    }
}

impl<const N: usize> PartialEq<&[u8; N]> for FrameBuf {
    fn eq(&self, other: &&[u8; N]) -> bool {
        self.as_slice() == *other
    }
}

impl PartialEq<FrameBuf> for Vec<u8> {
    fn eq(&self, other: &FrameBuf) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<FrameBuf> for [u8] {
    fn eq(&self, other: &FrameBuf) -> bool {
        self == other.as_slice()
    }
}

/// The builder half: an append-only byte buffer that freezes into a
/// [`FrameBuf`]. Emit paths size it up front, compose a frame in it once
/// (headers, then payload) and seal it; sealing does not copy.
#[derive(Debug, Default, Clone)]
pub struct FrameBufMut {
    buf: Vec<u8>,
}

impl FrameBufMut {
    /// An empty builder.
    pub fn new() -> FrameBufMut {
        FrameBufMut::default()
    }

    /// An empty builder with `capacity` bytes pre-reserved (emit paths know
    /// the frame length up front).
    pub fn with_capacity(capacity: usize) -> FrameBufMut {
        FrameBufMut {
            buf: Vec::with_capacity(capacity),
        }
    }

    /// Append one byte.
    pub fn push(&mut self, byte: u8) {
        self.buf.push(byte);
    }

    /// Append a slice.
    pub fn extend_from_slice(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The bytes written so far.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// Overwrite a byte written earlier (checksum backfill in emit paths).
    pub fn set(&mut self, index: usize, byte: u8) {
        self.buf[index] = byte;
    }

    /// Seal into an immutable shared buffer. The bytes stay where they were
    /// written: see [`FrameBuf::from_vec`].
    pub fn freeze(self) -> FrameBuf {
        FrameBuf::from_vec(self.buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_is_allocation_free() {
        let e = FrameBuf::empty();
        assert!(e.is_empty());
        assert_eq!(e.len(), 0);
        assert!(!e.has_allocation());
        assert_eq!(e.as_slice(), &[] as &[u8]);
        assert_eq!(FrameBuf::default(), e);
        assert!(!FrameBuf::from_vec(Vec::new()).has_allocation());
        assert!(!FrameBuf::copy_from_slice(&[]).has_allocation());
    }

    #[test]
    fn from_vec_and_views_share_one_allocation() {
        let b = FrameBuf::from_vec(vec![1, 2, 3, 4, 5]);
        assert_eq!(b.len(), 5);
        assert!(b.has_allocation());
        let mid = b.slice(1..4);
        assert_eq!(mid, [2, 3, 4]);
        assert!(mid.shares_allocation(&b));
        let inner = mid.slice(1..);
        assert_eq!(inner, [3, 4]);
        assert!(inner.shares_allocation(&b));
        let all = b.slice(..);
        assert_eq!(all, b);
        assert!(all.shares_allocation(&b));
        let cloned = b.clone();
        assert!(cloned.shares_allocation(&b));
    }

    #[test]
    fn zero_length_slices_drop_the_allocation() {
        let b = FrameBuf::from_vec(vec![1, 2, 3]);
        let empty = b.slice(2..2);
        assert!(empty.is_empty());
        assert!(!empty.has_allocation());
        assert!(!empty.shares_allocation(&b));
    }

    #[test]
    fn slice_accepts_every_range_form() {
        let b = FrameBuf::from_vec(vec![10, 11, 12, 13]);
        assert_eq!(b.slice(..), [10, 11, 12, 13]);
        assert_eq!(b.slice(1..), [11, 12, 13]);
        assert_eq!(b.slice(..2), [10, 11]);
        assert_eq!(b.slice(1..3), [11, 12]);
        assert_eq!(b.slice(1..=2), [11, 12]);
        assert_eq!(b.slice(4..), [] as [u8; 0]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn slice_past_the_end_panics_like_std() {
        FrameBuf::from_vec(vec![1, 2]).slice(..3);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    #[allow(clippy::reversed_empty_ranges)]
    fn inverted_slice_panics_like_std() {
        FrameBuf::from_vec(vec![1, 2, 3]).slice(2..1);
    }

    #[test]
    fn copies_are_independent_allocations() {
        let a = FrameBuf::copy_from_slice(b"abc");
        let b = FrameBuf::copy_from_slice(b"abc");
        assert_eq!(a, b);
        assert!(!a.shares_allocation(&b));
    }

    #[test]
    fn concat_of_one_part_is_a_view_not_a_copy() {
        let b = FrameBuf::from_vec(vec![1, 2, 3]);
        let joined = FrameBuf::concat(&[FrameBuf::empty(), b.clone(), FrameBuf::empty()]);
        assert_eq!(joined, b);
        assert!(joined.shares_allocation(&b));
    }

    #[test]
    fn concat_of_many_parts_preserves_order() {
        let a = FrameBuf::from_vec(vec![1, 2]);
        let b = FrameBuf::from_vec(vec![3]);
        let c = FrameBuf::from_vec(vec![4, 5]);
        let joined = FrameBuf::concat(&[a.clone(), b, FrameBuf::empty(), c]);
        assert_eq!(joined, [1, 2, 3, 4, 5]);
        assert!(!joined.shares_allocation(&a));
        assert_eq!(FrameBuf::concat(&[]), FrameBuf::empty());
        assert!(!FrameBuf::concat(&[]).has_allocation());
    }

    #[test]
    fn concat_of_consecutive_views_of_one_allocation_is_the_spanning_view() {
        let b = FrameBuf::from_vec((0..10).collect());
        let parts = [
            b.slice(..3),
            FrameBuf::empty(),
            b.slice(3..7),
            b.slice(7..9),
        ];
        let joined = FrameBuf::concat(&parts);
        assert_eq!(joined, b.slice(..9));
        assert!(joined.shares_allocation(&b));
        // Views of views still count by where they lie in the allocation.
        let tail = b.slice(5..);
        let joined = FrameBuf::concat(&[b.slice(2..5), tail.slice(..2), tail.slice(2..)]);
        assert_eq!(joined, b.slice(2..));
        assert!(joined.shares_allocation(&b));
    }

    #[test]
    fn concat_copies_parts_that_are_out_of_order_gapped_or_apart() {
        let b = FrameBuf::from_vec((0..10).collect());
        let twin = FrameBuf::copy_from_slice(&b);
        for (parts, expect) in [
            ([b.slice(3..6), b.slice(..3)], vec![3, 4, 5, 0, 1, 2]),
            ([b.slice(..3), b.slice(4..6)], vec![0, 1, 2, 4, 5]),
            ([b.slice(..3), b.slice(2..4)], vec![0, 1, 2, 2, 3]),
            ([b.slice(..3), twin.slice(3..6)], vec![0, 1, 2, 3, 4, 5]),
        ] {
            let joined = FrameBuf::concat(&parts);
            assert_eq!(joined, expect);
            assert!(!joined.shares_allocation(&b));
            assert!(!joined.shares_allocation(&twin));
        }
    }

    #[test]
    fn equality_against_plain_byte_containers() {
        let b = FrameBuf::from_vec(b"hello".to_vec());
        assert_eq!(b, b"hello");
        assert_eq!(b, *b"hello");
        assert_eq!(b, b"hello".to_vec());
        assert_eq!(b, b"hello" as &[u8]);
        assert_eq!(b"hello".to_vec(), b);
        assert_ne!(b, b"world");
    }

    #[test]
    fn deref_exposes_slice_methods() {
        let b = FrameBuf::from_vec(b"GET / HTTP/1.1".to_vec());
        assert!(b.starts_with(b"GET"));
        assert_eq!(b[4], b'/');
        assert_eq!(b.iter().filter(|&&c| c == b'/').count(), 2);
        let (head, tail) = b.split_at(3);
        assert_eq!(head, b"GET");
        assert_eq!(tail.len(), 11);
    }

    #[test]
    fn builder_freezes_into_a_shared_buffer() {
        let mut m = FrameBufMut::with_capacity(8);
        assert!(m.is_empty());
        m.extend_from_slice(&[0xde, 0x00]);
        m.push(0xbe);
        m.set(1, 0xad);
        assert_eq!(m.len(), 3);
        assert_eq!(m.as_slice(), &[0xde, 0xad, 0xbe]);
        let frozen: FrameBuf = m.into();
        assert_eq!(frozen, [0xde, 0xad, 0xbe]);
        assert!(FrameBufMut::new().freeze().is_empty());
    }

    #[test]
    fn from_conversions() {
        let v: FrameBuf = vec![1, 2].into();
        let s: FrameBuf = (&[1u8, 2][..]).into();
        let a: FrameBuf = (&[1u8, 2]).into();
        assert_eq!(v, s);
        assert_eq!(v, a);
        let r: FrameBuf = (&v).into();
        assert!(r.shares_allocation(&v));
        assert_eq!(format!("{v:?}"), "FrameBuf([1, 2])");
    }
}
