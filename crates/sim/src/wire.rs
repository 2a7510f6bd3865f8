//! Fixed-width wire encoding helpers over [`bytes`].
//!
//! Protocols encode their payloads through [`WireWriter`] and decode through
//! [`WireReader`]; all integers are little-endian, floats are IEEE-754 bit
//! patterns. Keeping the encoding fixed-width makes the CONGEST byte
//! accounting directly interpretable as "words". [`WireReader`] is also
//! the crate's one cursor over untrusted bytes: checkpoint payloads and
//! control frames decode through it too.

use bytes::{BufMut, Bytes, BytesMut};

/// Builder for a fixed-width binary payload.
///
/// # Example
///
/// ```
/// use netdecomp_sim::wire::{WireReader, WireWriter};
///
/// let payload = WireWriter::new().u32(7).f64(2.5).finish();
/// let mut r = WireReader::new(&payload);
/// assert_eq!(r.u32(), Some(7));
/// assert_eq!(r.f64(), Some(2.5));
/// assert!(r.is_exhausted());
/// ```
#[derive(Debug, Default)]
pub struct WireWriter {
    buf: BytesMut,
}

impl WireWriter {
    /// Creates an empty writer.
    #[must_use]
    pub fn new() -> Self {
        WireWriter::default()
    }

    /// Appends a `u16`.
    #[must_use]
    pub fn u16(mut self, x: u16) -> Self {
        self.buf.put_u16_le(x);
        self
    }

    /// Appends a `u32`.
    #[must_use]
    pub fn u32(mut self, x: u32) -> Self {
        self.buf.put_u32_le(x);
        self
    }

    /// Appends a `u64`.
    #[must_use]
    pub fn u64(mut self, x: u64) -> Self {
        self.buf.put_u64_le(x);
        self
    }

    /// Appends an `f64` as its IEEE-754 bit pattern.
    #[must_use]
    pub fn f64(mut self, x: f64) -> Self {
        self.buf.put_f64_le(x);
        self
    }

    /// Finalizes into an immutable payload.
    #[must_use]
    pub fn finish(self) -> Bytes {
        self.buf.freeze()
    }
}

/// Cursor decoding a payload written by [`WireWriter`].
///
/// Every accessor returns `None` when too few bytes remain, so malformed
/// (truncated) messages surface as decode failures rather than panics.
///
/// The reader *borrows* its input: decoding advances a slice, so wrapping
/// a delivered payload costs nothing — no handle clone, no reference-count
/// traffic — which is what keeps the typed read path's per-copy cost at
/// zero alongside the engine's slab-backed inboxes.
#[derive(Debug)]
pub struct WireReader<'a> {
    buf: &'a [u8],
}

impl<'a> WireReader<'a> {
    /// Wraps a payload for reading (accepts `&Bytes` through deref).
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        WireReader { buf }
    }

    /// Reads the next `N` bytes as a fixed-size array, if they remain.
    fn take<const N: usize>(&mut self) -> Option<[u8; N]> {
        let (head, rest) = self.buf.split_first_chunk::<N>()?;
        self.buf = rest;
        Some(*head)
    }

    /// Reads a `u16`, if enough bytes remain.
    pub fn u16(&mut self) -> Option<u16> {
        self.take().map(u16::from_le_bytes)
    }

    /// Reads a `u32`, if enough bytes remain.
    pub fn u32(&mut self) -> Option<u32> {
        self.take().map(u32::from_le_bytes)
    }

    /// Reads a `u64`, if enough bytes remain.
    pub fn u64(&mut self) -> Option<u64> {
        self.take().map(u64::from_le_bytes)
    }

    /// Reads an `f64`, if enough bytes remain.
    pub fn f64(&mut self) -> Option<f64> {
        self.u64().map(f64::from_bits)
    }

    /// `true` when every byte has been consumed.
    #[must_use]
    pub fn is_exhausted(&self) -> bool {
        self.buf.is_empty()
    }

    /// Reads one byte, if one remains.
    pub(crate) fn u8(&mut self) -> Option<u8> {
        self.take().map(|[b]| b)
    }

    /// Reads a `u64` that fits a `usize`.
    pub(crate) fn usize(&mut self) -> Option<usize> {
        self.u64().and_then(|v| usize::try_from(v).ok())
    }

    /// Reads the next `n` bytes, if they remain.
    pub(crate) fn bytes(&mut self, n: usize) -> Option<&'a [u8]> {
        if n > self.buf.len() {
            return None;
        }
        let (head, rest) = self.buf.split_at(n);
        self.buf = rest;
        Some(head)
    }

    /// Reads a `u64`-length-prefixed byte run (the [`put_bytes`] inverse);
    /// a length past the end is refused, not sliced.
    pub(crate) fn len_prefixed(&mut self) -> Option<&'a [u8]> {
        let len = self.usize()?;
        self.bytes(len)
    }

    /// Bytes not yet consumed.
    pub(crate) fn remaining(&self) -> usize {
        self.buf.len()
    }
}

/// Appends `v` little-endian (the [`WireReader::u64`] inverse).
pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u64`-length-prefixed byte run.
pub(crate) fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    put_u64(out, bytes.len() as u64);
    out.extend_from_slice(bytes);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_all_types() {
        let payload = WireWriter::new()
            .u16(65535)
            .u32(123_456)
            .u64(u64::MAX)
            .f64(-0.125)
            .finish();
        assert_eq!(payload.len(), 2 + 4 + 8 + 8);
        let mut r = WireReader::new(&payload);
        assert_eq!(r.u16(), Some(65535));
        assert_eq!(r.u32(), Some(123_456));
        assert_eq!(r.u64(), Some(u64::MAX));
        assert_eq!(r.f64(), Some(-0.125));
        assert!(r.is_exhausted());
    }

    #[test]
    fn truncated_reads_return_none() {
        let payload = WireWriter::new().u16(1).finish();
        let mut r = WireReader::new(&payload);
        assert_eq!(r.u32(), None); // only 2 bytes available
        assert_eq!(r.u16(), Some(1));
        assert_eq!(r.u16(), None);
    }

    #[test]
    fn nan_round_trips_bitwise() {
        let payload = WireWriter::new().f64(f64::NAN).finish();
        let mut r = WireReader::new(&payload);
        assert!(r.f64().unwrap().is_nan());
    }

    #[test]
    fn empty_payload_is_exhausted() {
        let r = WireReader::new(&[]);
        assert!(r.is_exhausted());
    }

    #[test]
    fn length_prefixed_runs_refuse_overruns() {
        let mut out = Vec::new();
        put_u64(&mut out, 3);
        put_bytes(&mut out, b"abc");
        let mut r = WireReader::new(&out);
        assert_eq!(r.u64(), Some(3));
        assert_eq!(r.len_prefixed(), Some(&b"abc"[..]));
        assert!(r.is_exhausted());
        assert_eq!(r.u64(), None);
        // A length prefix past the end is refused, not sliced.
        let mut lying = Vec::new();
        put_u64(&mut lying, 1000);
        lying.extend_from_slice(b"short");
        assert_eq!(WireReader::new(&lying).len_prefixed(), None);
    }
}
