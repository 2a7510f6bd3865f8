//! Minimal vendored stand-in for the `bytes` crate.
//!
//! The build environment has no access to crates.io, so this workspace
//! vendors the narrow slice of the `bytes` API it actually uses: cheaply
//! clonable immutable [`Bytes`] payloads, a growable [`BytesMut`] builder
//! whose buffer round-trips through [`BytesMut::freeze`] /
//! [`Bytes::try_into_mut`] without copying, and the little-endian
//! [`BufMut`] writers the wire codec needs. Readers take `&[u8]` through
//! [`Bytes`]' `Deref`.
//!
//! Semantics match the real crate for this surface: `Bytes::clone` is a
//! reference-count bump (no byte copying), which is what lets
//! `netdecomp-sim`'s frame transport hand a frame to its destination
//! shard without copying it, and `freeze` / `try_into_mut` move the
//! backing buffer instead of reallocating it, which is what lets the
//! frame transport recycle its encode buffers across rounds.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// A cheaply clonable, immutable, contiguous byte payload: either a
/// borrowed static slice (no allocation, as in the real crate's
/// `from_static`) or a shared buffer that clones share.
#[derive(Clone)]
pub struct Bytes {
    repr: Repr,
}

#[derive(Clone)]
enum Repr {
    Static(&'static [u8]),
    Shared(Arc<Vec<u8>>),
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
            repr: Repr::Static(bytes),
        }
    }

    /// Length in bytes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// `true` when empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The payload as a slice.
    #[must_use]
    pub fn as_slice(&self) -> &[u8] {
        match &self.repr {
            Repr::Static(s) => s,
            Repr::Shared(v) => v,
        }
    }

    /// Attempts to reclaim the backing buffer for mutation without
    /// copying, as in the real crate: succeeds when this handle is the
    /// only reference to a shared buffer. On failure the payload is
    /// handed back unchanged so callers can fall back to a fresh buffer.
    ///
    /// # Errors
    ///
    /// Returns `Err(self)` when the buffer is shared or borrowed from a
    /// static slice.
    pub fn try_into_mut(self) -> Result<BytesMut, Bytes> {
        match self.repr {
            Repr::Shared(mut arc) => {
                if Arc::get_mut(&mut arc).is_some() {
                    Ok(BytesMut { data: arc })
                } else {
                    Err(Bytes {
                        repr: Repr::Shared(arc),
                    })
                }
            }
            repr @ Repr::Static(_) => Err(Bytes { repr }),
        }
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        Bytes {
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
        Bytes {
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
    fn round_trip_le() {
        let mut m = BytesMut::new();
        m.put_u16_le(515);
        m.put_u32_le(70_000);
        m.put_u64_le(u64::MAX - 1);
        m.put_f64_le(-2.5);
        let b = m.freeze();
        let mut expected = Vec::new();
        expected.extend_from_slice(&515u16.to_le_bytes());
        expected.extend_from_slice(&70_000u32.to_le_bytes());
        expected.extend_from_slice(&(u64::MAX - 1).to_le_bytes());
        expected.extend_from_slice(&(-2.5f64).to_bits().to_le_bytes());
        assert_eq!(b.len(), 22);
        assert_eq!(b.as_slice(), &expected[..]);
    }

    #[test]
    fn static_and_empty() {
        let s = Bytes::from_static(b"xy");
        assert_eq!(s.len(), 2);
        assert!(Bytes::new().is_empty());
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
    fn shared_or_static_buffers_refuse_to_reclaim() {
        let frozen = Bytes::from(vec![1, 2, 3]);
        let held = frozen.clone();
        let frozen = frozen.try_into_mut().expect_err("shared buffer");
        assert_eq!(frozen.as_slice(), &[1, 2, 3], "handed back unchanged");
        drop(held);
        assert!(frozen.try_into_mut().is_ok(), "unique again");
        // Static payloads never reclaim.
        assert!(Bytes::from_static(b"s").try_into_mut().is_err());
    }

    #[test]
    fn bytes_mut_writes_through_deref_mut() {
        let mut m = BytesMut::new();
        m.put_u32_le(0);
        m[0..4].copy_from_slice(&7u32.to_le_bytes());
        assert_eq!(m.freeze().as_slice(), &7u32.to_le_bytes());
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
