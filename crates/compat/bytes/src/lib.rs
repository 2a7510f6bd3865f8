//! Minimal vendored stand-in for the `bytes` crate.
//!
//! The build environment has no access to crates.io, so this workspace
//! vendors the narrow slice of the `bytes` API it actually uses: cheaply
//! clonable immutable [`Bytes`] payloads (including zero-copy
//! [`Bytes::slice`] views), a growable [`BytesMut`] builder whose buffer
//! round-trips through [`BytesMut::freeze`] / [`Bytes::try_into_mut`]
//! without copying, and the little-endian [`Buf`]/[`BufMut`] accessors the
//! wire codec needs.
//!
//! Semantics match the real crate for this surface: `Bytes::clone` and
//! `Bytes::slice` are reference-count bumps (no byte copying), which is
//! what lets `netdecomp-sim`'s frame transport hand a frame to its
//! destination shard without copying it, and `freeze` / `try_into_mut`
//! move the backing buffer instead of reallocating it, which is what
//! lets the frame transport recycle its encode buffers across rounds.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::RangeBounds;
use std::sync::Arc;

/// Backing storage of a [`Bytes`]: either a borrowed static slice (no
/// allocation, as in the real crate's `from_static`) or a shared buffer.
#[derive(Clone)]
enum Repr {
    Static(&'static [u8]),
    Shared(Arc<Vec<u8>>),
}

impl Repr {
    fn as_full_slice(&self) -> &[u8] {
        match self {
            Repr::Static(s) => s,
            Repr::Shared(v) => v,
        }
    }
}

/// A cheaply clonable, immutable, contiguous byte payload.
///
/// Internally a shared buffer plus a `[pos, end)` view: cloning and
/// [`Bytes::slice`] share the allocation, and [`Buf`] reads advance the
/// view's start without copying.
#[derive(Clone)]
pub struct Bytes {
    repr: Repr,
    /// Start of the view (also the [`Buf`] read cursor).
    pos: usize,
    /// One past the end of the view.
    end: usize,
}

impl Default for Bytes {
    fn default() -> Self {
        Bytes::new()
    }
}

impl Bytes {
    /// An empty payload (no allocation).
    #[must_use]
    pub fn new() -> Self {
        Bytes::from_static(&[])
    }

    /// Wraps a static byte slice without allocating.
    #[must_use]
    pub fn from_static(bytes: &'static [u8]) -> Self {
        Bytes {
            pos: 0,
            end: bytes.len(),
            repr: Repr::Static(bytes),
        }
    }

    /// Bytes remaining from the view's start to its end.
    #[must_use]
    pub fn len(&self) -> usize {
        self.end - self.pos
    }

    /// `true` when no bytes remain.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The remaining bytes as a slice.
    #[must_use]
    pub fn as_slice(&self) -> &[u8] {
        &self.repr.as_full_slice()[self.pos..self.end]
    }

    /// A zero-copy sub-view of the remaining bytes: shares the backing
    /// buffer, no bytes are moved.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds of [`Bytes::len`] or
    /// decreasing.
    #[must_use]
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let len = self.len();
        let start = match range.start_bound() {
            std::ops::Bound::Included(&s) => s,
            std::ops::Bound::Excluded(&s) => s + 1,
            std::ops::Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            std::ops::Bound::Included(&e) => e + 1,
            std::ops::Bound::Excluded(&e) => e,
            std::ops::Bound::Unbounded => len,
        };
        assert!(
            start <= end && end <= len,
            "Bytes::slice: range {start}..{end} out of bounds (len {len})"
        );
        Bytes {
            repr: self.repr.clone(),
            pos: self.pos + start,
            end: self.pos + end,
        }
    }

    /// Attempts to reclaim the backing buffer for mutation without
    /// copying, as in the real crate: succeeds when this handle is the
    /// only reference to a whole (unsliced, unread) shared buffer. On
    /// failure the payload is handed back unchanged so callers can fall
    /// back to a fresh buffer.
    ///
    /// # Errors
    ///
    /// Returns `Err(self)` when the buffer is shared, borrowed from a
    /// static slice, or viewed through a proper sub-slice.
    pub fn try_into_mut(self) -> Result<BytesMut, Bytes> {
        match self.repr {
            Repr::Shared(mut arc) if self.pos == 0 && self.end == arc.len() => {
                if Arc::get_mut(&mut arc).is_some() {
                    Ok(BytesMut { data: arc })
                } else {
                    Err(Bytes {
                        pos: self.pos,
                        end: self.end,
                        repr: Repr::Shared(arc),
                    })
                }
            }
            repr => Err(Bytes {
                pos: self.pos,
                end: self.end,
                repr,
            }),
        }
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        Bytes {
            pos: 0,
            end: v.len(),
            repr: Repr::Shared(Arc::new(v)),
        }
    }
}

impl From<&[u8]> for Bytes {
    fn from(v: &[u8]) -> Self {
        Bytes::from(v.to_vec())
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl std::ops::Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Bytes {}

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.as_slice() {
            write!(f, "\\x{b:02x}")?;
        }
        write!(f, "\"")
    }
}

/// A growable byte buffer that freezes into [`Bytes`] without copying.
///
/// Invariant: the backing `Arc` is uniquely owned for the whole lifetime
/// of the `BytesMut` (constructors allocate fresh; [`Bytes::try_into_mut`]
/// verifies uniqueness before handing a buffer back), so mutation never
/// needs a copy-on-write path.
#[derive(Debug)]
pub struct BytesMut {
    data: Arc<Vec<u8>>,
}

impl Default for BytesMut {
    fn default() -> Self {
        BytesMut::new()
    }
}

impl Clone for BytesMut {
    /// Deep copy: clones the bytes, not the (uniquely owned) handle.
    fn clone(&self) -> Self {
        BytesMut {
            data: Arc::new(self.data.as_ref().clone()),
        }
    }
}

impl PartialEq for BytesMut {
    fn eq(&self, other: &Self) -> bool {
        self.data.as_slice() == other.data.as_slice()
    }
}

impl Eq for BytesMut {}

impl BytesMut {
    /// An empty buffer.
    #[must_use]
    pub fn new() -> Self {
        BytesMut {
            data: Arc::new(Vec::new()),
        }
    }

    /// An empty buffer with `cap` bytes preallocated.
    #[must_use]
    pub fn with_capacity(cap: usize) -> Self {
        BytesMut {
            data: Arc::new(Vec::with_capacity(cap)),
        }
    }

    /// The backing vector (uniquely owned by invariant).
    fn vec_mut(&mut self) -> &mut Vec<u8> {
        Arc::get_mut(&mut self.data).expect("BytesMut buffer is uniquely owned")
    }

    /// Current length in bytes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` when empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Bytes the buffer can hold before reallocating.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.data.capacity()
    }

    /// Drops the contents, keeping the allocation for reuse.
    pub fn clear(&mut self) {
        self.vec_mut().clear();
    }

    /// Resizes to `new_len` bytes, filling any growth with `value` (as in
    /// the real crate). Shrinking keeps the allocation.
    pub fn resize(&mut self, new_len: usize, value: u8) {
        self.vec_mut().resize(new_len, value);
    }

    /// Reserves capacity for at least `additional` more bytes (as in the
    /// real crate; a no-op when capacity already suffices).
    pub fn reserve(&mut self, additional: usize) {
        self.vec_mut().reserve(additional);
    }

    /// Converts into an immutable [`Bytes`] without copying: the backing
    /// buffer is moved, not reallocated.
    #[must_use]
    pub fn freeze(self) -> Bytes {
        let end = self.data.len();
        Bytes {
            pos: 0,
            end,
            repr: Repr::Shared(self.data),
        }
    }
}

impl std::ops::Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl std::ops::DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        self.vec_mut()
    }
}

/// Read access to a byte cursor (subset of `bytes::Buf`).
pub trait Buf {
    /// Bytes left to read.
    fn remaining(&self) -> usize;

    /// Reads `n` bytes into `dst` and advances. Panics if underfull.
    fn copy_to_slice(&mut self, dst: &mut [u8]);

    /// `true` while bytes remain.
    fn has_remaining(&self) -> bool {
        self.remaining() > 0
    }

    /// Reads one byte.
    fn get_u8(&mut self) -> u8 {
        let mut b = [0u8; 1];
        self.copy_to_slice(&mut b);
        b[0]
    }

    /// Reads a little-endian `u16`.
    fn get_u16_le(&mut self) -> u16 {
        let mut b = [0u8; 2];
        self.copy_to_slice(&mut b);
        u16::from_le_bytes(b)
    }

    /// Reads a little-endian `u32`.
    fn get_u32_le(&mut self) -> u32 {
        let mut b = [0u8; 4];
        self.copy_to_slice(&mut b);
        u32::from_le_bytes(b)
    }

    /// Reads a little-endian `u64`.
    fn get_u64_le(&mut self) -> u64 {
        let mut b = [0u8; 8];
        self.copy_to_slice(&mut b);
        u64::from_le_bytes(b)
    }

    /// Reads a little-endian `f64` bit pattern.
    fn get_f64_le(&mut self) -> f64 {
        f64::from_bits(self.get_u64_le())
    }
}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        assert!(dst.len() <= self.remaining(), "Bytes: read past end");
        dst.copy_from_slice(&self.repr.as_full_slice()[self.pos..self.pos + dst.len()]);
        self.pos += dst.len();
    }
}

/// Write access to a growable byte buffer (subset of `bytes::BufMut`).
pub trait BufMut {
    /// Appends raw bytes.
    fn put_slice(&mut self, src: &[u8]);

    /// Appends one byte.
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    /// Appends a little-endian `u16`.
    fn put_u16_le(&mut self, v: u16) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    fn put_u32_le(&mut self, v: u32) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    fn put_u64_le(&mut self, v: u64) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `f64` bit pattern.
    fn put_f64_le(&mut self, v: f64) {
        self.put_u64_le(v.to_bits());
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.vec_mut().extend_from_slice(src);
    }
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shared_arc(b: &Bytes) -> &Arc<Vec<u8>> {
        match &b.repr {
            Repr::Shared(arc) => arc,
            Repr::Static(_) => panic!("expected shared repr"),
        }
    }

    #[test]
    fn clone_is_shallow_and_equal() {
        let a = Bytes::from(vec![1, 2, 3]);
        let b = a.clone();
        assert_eq!(a, b);
        assert_eq!(b.as_slice(), &[1, 2, 3]);
        assert!(Arc::ptr_eq(shared_arc(&a), shared_arc(&b)));
    }

    #[test]
    fn reads_advance_cursor_per_clone() {
        let mut a = Bytes::from(vec![7, 0, 1, 2]);
        let b = a.clone();
        assert_eq!(a.get_u8(), 7);
        assert_eq!(a.remaining(), 3);
        assert_eq!(b.remaining(), 4); // clone keeps its own cursor
    }

    #[test]
    fn round_trip_le() {
        let mut m = BytesMut::new();
        m.put_u16_le(515);
        m.put_u32_le(70_000);
        m.put_u64_le(u64::MAX - 1);
        m.put_f64_le(-2.5);
        let mut b = m.freeze();
        assert_eq!(b.len(), 22);
        assert_eq!(b.get_u16_le(), 515);
        assert_eq!(b.get_u32_le(), 70_000);
        assert_eq!(b.get_u64_le(), u64::MAX - 1);
        assert_eq!(b.get_f64_le(), -2.5);
        assert!(!b.has_remaining());
    }

    #[test]
    #[should_panic(expected = "read past end")]
    fn overread_panics() {
        let mut b = Bytes::from(vec![1]);
        let _ = b.get_u32_le();
    }

    #[test]
    fn static_and_empty() {
        let s = Bytes::from_static(b"xy");
        assert_eq!(s.len(), 2);
        assert!(Bytes::new().is_empty());
    }

    #[test]
    fn slice_shares_the_backing_buffer() {
        let b = Bytes::from(vec![0, 1, 2, 3, 4, 5]);
        let mid = b.slice(2..5);
        assert_eq!(mid.as_slice(), &[2, 3, 4]);
        assert!(Arc::ptr_eq(shared_arc(&b), shared_arc(&mid)));
        // Sub-slicing a slice stays relative to the view.
        let tail = mid.slice(1..);
        assert_eq!(tail.as_slice(), &[3, 4]);
        assert_eq!(b.slice(..0).len(), 0);
        assert_eq!(Bytes::from_static(b"abc").slice(1..=1).as_slice(), b"b");
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn slice_past_end_panics() {
        let _ = Bytes::from(vec![1, 2]).slice(1..4);
    }

    #[test]
    fn freeze_and_reclaim_reuse_the_allocation() {
        let mut m = BytesMut::with_capacity(64);
        m.put_slice(b"hello");
        let cap = m.capacity();
        let frozen = m.freeze();
        assert_eq!(frozen.as_slice(), b"hello");
        let mut back = frozen.try_into_mut().expect("unique buffer reclaims");
        assert_eq!(back.capacity(), cap, "capacity survives the round trip");
        back.clear();
        back.put_slice(b"again");
        assert_eq!(back.freeze().as_slice(), b"again");
    }

    #[test]
    fn shared_or_sliced_buffers_refuse_to_reclaim() {
        let frozen = Bytes::from(vec![1, 2, 3]);
        let held = frozen.clone();
        let frozen = frozen.try_into_mut().expect_err("shared buffer");
        drop(held);
        // Unique again, but a proper sub-view still refuses.
        let sub = frozen.slice(1..);
        assert!(sub.try_into_mut().is_err());
        // Static payloads never reclaim.
        assert!(Bytes::from_static(b"s").try_into_mut().is_err());
    }

    #[test]
    fn bytes_mut_writes_through_deref_mut() {
        let mut m = BytesMut::new();
        m.put_u32_le(0);
        m[0..4].copy_from_slice(&7u32.to_le_bytes());
        let mut b = m.freeze();
        assert_eq!(b.get_u32_le(), 7);
    }

    #[test]
    fn bytes_mut_resize_and_reserve_match_the_real_crate() {
        let mut m = BytesMut::new();
        m.reserve(64);
        let cap = m.capacity();
        assert!(cap >= 64);
        m.put_u8(7);
        m.resize(4, 0xee);
        assert_eq!(&m[..], &[7, 0xee, 0xee, 0xee]);
        m.resize(1, 0);
        assert_eq!(&m[..], &[7]);
        assert_eq!(m.capacity(), cap, "shrinking keeps the allocation");
    }

    #[test]
    fn bytes_mut_clone_is_deep() {
        let mut a = BytesMut::new();
        a.put_u8(1);
        let mut b = a.clone();
        b.put_u8(2);
        assert_eq!(a.len(), 1);
        assert_eq!(b.len(), 2);
    }
}
