//! The frame transport: self-delimiting bucket frames and the shard
//! backends that ship them.
//!
//! With sender-side routing, a round's cross-shard traffic is already
//! batched: shard `k`'s router holds one bucket of
//! `RouteRef`s per destination shard, and the place phase
//! consumes exactly those buckets. This module serializes each bucket —
//! its refs *plus the payload bytes they reference* — into one
//! **self-delimiting frame** per destination shard, the unit a
//! process-per-shard transport ships. Once delivery reads frames instead
//! of in-memory buckets, "shards stop sharing an address space" becomes a
//! [`Transport`] swap, not an engine rewrite.
//!
//! # Frame layout
//!
//! All integers are little-endian `u32` unless noted. One frame carries
//! one `(sender shard, destination shard)` bucket:
//!
//! ```text
//! offset  bytes  field
//! ------  -----  -----------------------------------------------------
//!      0      3  magic  b"NDF"
//!      3      1  format version (u8: 2)
//!      4      4  frame length — total bytes, self-delimiting
//!      8      4  sender shard
//!     12      4  destination shard
//!     16      4  R: ref count
//!     20      4  P: payload count
//!     24      4  4-lane digest over bytes [0, 24) ++ [28, 32)
//!                ++ [32, 32+16R+8P) (++ the payload region, iff flagged)
//!     28      4  flags (bit 0: digest also covers the payload region;
//!                unknown bits reject the frame)
//!     32    16R  ref table:     R x { from, payload index, lo, hi }
//! 32+16R     8P  payload table: P x { offset, length }   (region-relative)
//! 32+16R+8P   …  payload region (concatenated payload bytes)
//! ```
//!
//! A ref's `lo..hi` is the contiguous directed-edge slot range carrying
//! its copies (a unicast is a singleton, a broadcast ref one precomputed
//! adjacency segment), exactly as in the in-memory bucket. Consecutive
//! refs may share one payload-table entry — a multicast's copies are
//! stored once — and the receiving shard copies each payload-table entry
//! once into its payload slab, so a frame is dropped as soon as it has
//! been placed.
//!
//! This is the only format: frames are never persisted, and the socket
//! handshake's `Hello` refuses a peer that encodes any other version, so
//! a decoder rejects every other version byte with
//! [`FrameError::VersionMismatch`].
//!
//! # The word-parallel digest
//!
//! Every covered section is a whole number of `u32` words (the header is
//! 24 + 4 bytes, a ref entry 16, a payload entry 8), so the digest folds
//! *words*, not bytes: word `i` of the covered stream folds into lane
//! `i mod 4` of four independent FNV-1a-style lane states
//! (`lane = (lane ^ word) * FNV_PRIME`, lane `j` seeded with
//! `FNV_INIT + j * 0x9E37_79B9`), and `finish` folds the four lanes into
//! one `u32` with the same multiply chain. Four independent multiply
//! chains avoid the ~4 cycles/byte floor of a byte-serial FNV, while
//! every fold stays bijective per lane, so **any single-bit flip in a
//! covered word still changes the digest** (pinned by this module's
//! proptests).
//!
//! By default the digest covers every header and table byte but not the
//! payload region (whose bytes recipients re-read anyway, and which
//! in-process transports hand over intact): a corrupted ref can never
//! misroute a message silently — it fails decode with a typed
//! [`FrameError`] instead. For transports that do not protect payload
//! bytes themselves (UDP-style sockets), flag bit 0 extends coverage to
//! the payload region, zero-padded to a word boundary
//! ([`FrameConfig::cover_payload`]).
//!
//! # Transports
//!
//! A [`Transport`] moves encoded frames between shards; the engine's
//! framed backends ([`crate::Engine::Framed`]) never let one shard read
//! another's send logs or routers — frames are the *only* cross-shard
//! channel during delivery. Two implementations ship:
//!
//! - [`LoopbackTransport`] — an in-memory slot matrix handing the encoded
//!   [`Bytes`] to the destination by reference count. This prices the
//!   seam itself (encode + checksum + decode) with zero I/O, and stays
//!   allocation-free in steady state: receivers drop each frame once it
//!   is placed, so by the next round's ship a sender's last frame buffer
//!   is unique again and [`Bytes::try_into_mut`] reclaims it.
//! - [`crate::transport::SocketTransport`] — frames cross real OS
//!   sockets (Unix domain by default, TCP behind the same code path)
//!   through a hub that relays by destination shard, with real process
//!   semantics: the same client code drives in-process shards and
//!   separate worker processes (see [`crate::transport::launcher`]).
//!
//! # Wire protocol: control frames, handshake, timeouts
//!
//! Data frames (above) are one half of the wire protocol; the socket
//! backend adds **control frames** so round synchronization and error
//! propagation no longer depend on shared memory. Control frames carry
//! the magic `b"NDC"` (data frames: `b"NDF"`), a kind byte where data
//! frames carry their version byte, the same self-delimiting total
//! length at offset 4, and a FNV-1a checksum:
//!
//! - `Hello { shard, frame_version, graph_digest }` — sent once per
//!   connection (and again after a reconnect). The hub rejects a
//!   duplicate shard id, a frame version other than [`FRAME_VERSION`],
//!   or a graph digest that disagrees with the other workers': every
//!   worker must have loaded the same graph.
//! - `RoundBarrier { round }` — each shard sends one after shipping its
//!   round; the hub broadcasts one back when all shards have, which
//!   doubles as the "all frames relayed" signal.
//! - `Error { origin, SimError }` — a shard's typed failure, relayed to
//!   every peer so the whole fabric stops with the *same* error instead
//!   of each shard timing out separately.
//! - `Shutdown` — orderly end of run.
//!
//! Every blocking point has a deadline (default
//! [`crate::transport::DEFAULT_FRAME_TIMEOUT`], 5 s), so a wedged or
//! dead peer is always a typed error, never a hang:
//!
//! | fault                              | what the user sees                                         |
//! |------------------------------------|------------------------------------------------------------|
//! | peer process killed / link closed  | `SimError::Transport` with `TransportCause::Disconnected` (hub-relayed `Error` beats the local timeout) |
//! | peer wedged (misses its barrier)   | `SimError::Transport` with `TransportCause::Timeout`       |
//! | frame dropped or delayed in flight | `SimError::Frame` with `FrameError::MissingFrame` (timeout-bounded) |
//! | frame corrupted in flight          | `SimError::Frame` with `FrameError::ChecksumMismatch`      |
//! | frame duplicated / reordered       | `SimError::Frame` with `FrameError::Misrouted` (header disagrees with the link) |
//! | handshake mismatch (shard, version, graph digest) | `SimError::Transport` with `TransportCause::Handshake` |
//! | byte-stream desync (framing lost)  | `SimError::Transport` with `TransportCause::Io`            |
//!
//! The deterministic seeded
//! [`crate::transport::FaultInjectingTransport`] wrapper exercises the
//! middle rows on any backend in tests; the
//! [`crate::transport::launcher`] kill tests exercise the first two with
//! real processes.

use std::sync::Mutex;

use bytes::{Bytes, BytesMut};
use netdecomp_graph::VertexId;

use crate::error::{FrameError, TransportError};
use crate::message::{SendLog, RETAIN_FACTOR};
use crate::shard::{BucketTally, RouteRef, Router};

/// The frame format version every encoder writes and every decoder
/// accepts.
pub const FRAME_VERSION: u8 = 2;

/// Magic prefix of every data frame (control frames use `b"NDC"` — see
/// [`crate::transport::control`]).
pub(crate) const MAGIC: &[u8; 3] = b"NDF";

/// Header length in bytes (through the flags word).
const HEADER_LEN: usize = 32;

/// Byte offset of the frame-length word (shared by data and control
/// frames — the stream reader peels both with one code path).
pub(crate) const LEN_OFFSET: usize = 4;

/// Byte offset of the checksum word (the digest skips these 4 bytes).
const CHECKSUM_OFFSET: usize = 24;

/// Byte offset of the flags word.
const FLAGS_OFFSET: usize = 28;

/// Flag bit 0: the digest also covers the payload region.
const FLAG_COVER_PAYLOAD: u32 = 1;

/// All flag bits this build understands; any other set bit rejects
/// the frame as malformed (after the digest verdict).
const FLAGS_KNOWN: u32 = FLAG_COVER_PAYLOAD;

/// Bytes per ref-table entry.
const REF_BYTES: usize = 16;

/// Bytes per payload-table entry.
const PAYLOAD_BYTES: usize = 8;

/// FNV-1a offset basis (the running digest's initial state).
pub(crate) const FNV_INIT: u32 = 0x811c_9dc5;

/// FNV-1a 32-bit prime, the multiplier of every fold step.
const FNV_PRIME: u32 = 0x0100_0193;

/// Golden-ratio stride separating the four lane seeds, so no two lanes
/// start in the same state.
const LANE_SEED_STRIDE: u32 = 0x9E37_79B9;

/// Reads the little-endian `u32` at `off`.
fn le32(data: &[u8], off: usize) -> u32 {
    u32::from_le_bytes(data[off..off + 4].try_into().expect("4 bytes"))
}

/// Folds `bytes` into a running 32-bit FNV-1a digest (the control-frame
/// checksum — control frames are tiny, so the byte-serial fold costs
/// nothing).
pub(crate) fn fnv1a(mut h: u32, bytes: &[u8]) -> u32 {
    for &b in bytes {
        h ^= u32::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// The frame digest: four independent FNV-1a-style lanes
/// striped across the little-endian `u32` words of the covered stream.
///
/// Word `i` (counted across *all* `update` calls) folds into lane
/// `i mod 4` as `lane = (lane ^ word) * FNV_PRIME`; since every covered
/// frame section is a whole number of words, the stripe position is part
/// of the format. Each fold is bijective on its lane (XOR, then multiply
/// by an odd constant, both invertible mod 2^32), and [`LaneDigest::finish`]
/// folds the four lanes with the same chain — so flipping any single bit
/// of any covered word always changes the final digest. Four independent
/// multiply chains give the superscalar core ~4 folds in flight where a
/// byte-serial digest sustains one.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LaneDigest {
    lanes: [u32; 4],
    /// Words folded so far — the stripe cursor.
    idx: usize,
}

impl LaneDigest {
    pub(crate) fn new() -> Self {
        let mut lanes = [0u32; 4];
        for (i, lane) in lanes.iter_mut().enumerate() {
            *lane = FNV_INIT.wrapping_add((i as u32).wrapping_mul(LANE_SEED_STRIDE));
        }
        LaneDigest { lanes, idx: 0 }
    }

    #[inline]
    fn fold_word(&mut self, word: u32) {
        let lane = &mut self.lanes[self.idx & 3];
        *lane = (*lane ^ word).wrapping_mul(FNV_PRIME);
        self.idx += 1;
    }

    /// Folds a word-aligned byte run (`bytes.len() % 4 == 0` — every
    /// covered frame section satisfies this by construction).
    ///
    /// Callers fold whole contiguous *regions*, not per-entry slices: the
    /// peel below runs at most three serial folds per call, after which
    /// the block loop keeps all four multiply chains in flight for the
    /// rest of the region. (Per-entry calls would re-enter the peel on
    /// every misaligned entry and degrade to the serial digest — the
    /// split-invariance of the result is what makes the granularity a
    /// pure performance choice.)
    fn update(&mut self, bytes: &[u8]) {
        debug_assert_eq!(bytes.len() % 4, 0, "lane digest input is word-aligned");
        let mut off = 0;
        // Peel single words until the stripe cursor hits a lane-0
        // boundary, so the block loop below touches each lane once.
        while self.idx & 3 != 0 && off + 4 <= bytes.len() {
            self.fold_word(le32(bytes, off));
            off += 4;
        }
        // Main loop: 16 bytes per iteration, four *independent* lane
        // folds — no dependency between them, which is the whole point.
        let mut blocks = bytes[off..].chunks_exact(16);
        for block in &mut blocks {
            self.lanes[0] = (self.lanes[0] ^ le32(block, 0)).wrapping_mul(FNV_PRIME);
            self.lanes[1] = (self.lanes[1] ^ le32(block, 4)).wrapping_mul(FNV_PRIME);
            self.lanes[2] = (self.lanes[2] ^ le32(block, 8)).wrapping_mul(FNV_PRIME);
            self.lanes[3] = (self.lanes[3] ^ le32(block, 12)).wrapping_mul(FNV_PRIME);
            self.idx += 4;
        }
        for word in blocks.remainder().chunks_exact(4) {
            self.fold_word(le32(word, 0));
        }
    }

    /// Rotates the lane array so the *next* word folds into slot 0 of the
    /// returned copy — the loop bodies below get compile-time lane
    /// indices (registers, not an array indexed by a running cursor)
    /// regardless of the stripe phase. [`LaneDigest::unrotate`] writes
    /// the copy back.
    fn rotate(&self) -> [u32; 4] {
        let p = self.idx & 3;
        [
            self.lanes[p],
            self.lanes[(p + 1) & 3],
            self.lanes[(p + 2) & 3],
            self.lanes[(p + 3) & 3],
        ]
    }

    /// Writes back lanes taken out by [`LaneDigest::rotate`]. The stripe
    /// cursor must not have moved in between (the fused walks below
    /// advance it only after restoring).
    fn unrotate(&mut self, rotated: [u32; 4]) {
        let p = self.idx & 3;
        for (j, lane) in rotated.into_iter().enumerate() {
            self.lanes[(p + j) & 3] = lane;
        }
    }

    /// Fused decode walk over a ref table: folds every entry into the
    /// digest **and** accumulates the structural verdicts — `(ref points
    /// past a payload table of `payload_count`, slot range decreasing)` —
    /// in the same pass, so validation costs no second sweep of the
    /// table. Digest-equivalent to `update(table)` (pinned by the wire
    /// vectors and the split-invariance test).
    fn fold_ref_table(&mut self, table: &[u8], payload_count: usize) -> (bool, bool) {
        debug_assert_eq!(table.len() % REF_BYTES, 0, "whole 16-byte entries");
        let mut lanes = self.rotate();
        let (mut past, mut decreasing) = (false, false);
        for entry in table.chunks_exact(REF_BYTES) {
            let (w0, w1) = (le32(entry, 0), le32(entry, 4));
            let (w2, w3) = (le32(entry, 8), le32(entry, 12));
            lanes[0] = (lanes[0] ^ w0).wrapping_mul(FNV_PRIME);
            lanes[1] = (lanes[1] ^ w1).wrapping_mul(FNV_PRIME);
            lanes[2] = (lanes[2] ^ w2).wrapping_mul(FNV_PRIME);
            lanes[3] = (lanes[3] ^ w3).wrapping_mul(FNV_PRIME);
            past |= w1 as usize >= payload_count;
            decreasing |= w2 > w3;
        }
        self.unrotate(lanes);
        self.idx += table.len() / 4;
        (past, decreasing)
    }

    /// Fused decode walk over a payload table: folds every `(offset,
    /// length)` entry into the digest while checking that it stays inside
    /// a payload region of `region_len` bytes (widened sums — the pair
    /// can overflow `u32` without either field doing so). Two entries per
    /// iteration keep all four lanes in flight; digest-equivalent to
    /// `update(table)`.
    fn fold_payload_table(&mut self, table: &[u8], region_len: u64) -> bool {
        debug_assert_eq!(table.len() % PAYLOAD_BYTES, 0, "whole 8-byte entries");
        let mut lanes = self.rotate();
        let mut overrun = false;
        let mut pairs = table.chunks_exact(2 * PAYLOAD_BYTES);
        for pair in &mut pairs {
            let (w0, w1) = (le32(pair, 0), le32(pair, 4));
            let (w2, w3) = (le32(pair, 8), le32(pair, 12));
            lanes[0] = (lanes[0] ^ w0).wrapping_mul(FNV_PRIME);
            lanes[1] = (lanes[1] ^ w1).wrapping_mul(FNV_PRIME);
            lanes[2] = (lanes[2] ^ w2).wrapping_mul(FNV_PRIME);
            lanes[3] = (lanes[3] ^ w3).wrapping_mul(FNV_PRIME);
            overrun |= u64::from(w0) + u64::from(w1) > region_len;
            overrun |= u64::from(w2) + u64::from(w3) > region_len;
        }
        let tail = pairs.remainder();
        self.unrotate(lanes);
        self.idx += (table.len() - tail.len()) / 4;
        if !tail.is_empty() {
            let (w0, w1) = (le32(tail, 0), le32(tail, 4));
            self.fold_word(w0);
            self.fold_word(w1);
            overrun |= u64::from(w0) + u64::from(w1) > region_len;
        }
        overrun
    }

    /// Folds a region of arbitrary length, zero-padding its tail to a
    /// word boundary (the payload region under [`FLAG_COVER_PAYLOAD`]).
    pub(crate) fn update_padded(&mut self, bytes: &[u8]) {
        let whole = bytes.len() & !3;
        self.update(&bytes[..whole]);
        let tail = &bytes[whole..];
        if !tail.is_empty() {
            let mut word = [0u8; 4];
            word[..tail.len()].copy_from_slice(tail);
            self.fold_word(u32::from_le_bytes(word));
        }
    }

    /// Folds the four lanes into the wire checksum word.
    pub(crate) fn finish(&self) -> u32 {
        let mut h = FNV_INIT;
        for lane in self.lanes {
            h = (h ^ lane).wrapping_mul(FNV_PRIME);
        }
        h
    }
}

/// How a framed engine encodes its frames: whether the digest also covers
/// the payload region.
///
/// The decode side is not configurable — a decoder honors whatever the
/// frame's flags word says — so peers encoding differently interoperate;
/// this only selects what *this* side writes. The default leaves the
/// payload out of the digest; [`crate::Simulator::with_frame_config`]
/// pins another config.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FrameConfig {
    /// Extend the digest over the payload region (flag bit 0), for
    /// transports that do not protect payload bytes themselves.
    pub cover_payload: bool,
}

impl FrameConfig {
    /// The flags word this config writes.
    fn flags(self) -> u32 {
        if self.cover_payload {
            FLAG_COVER_PAYLOAD
        } else {
            0
        }
    }
}

/// Which frame transport a framed engine ships buckets through.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FrameTransport {
    /// In-memory slot matrix: frames change hands by reference count
    /// (zero-copy, allocation-free in steady state). Prices the frame
    /// seam itself.
    #[default]
    Loopback,
    /// Real OS sockets (Unix domain): frames leave the address space and
    /// cross a kernel socket pair through a relay hub — the same client
    /// and hub code the process-per-shard
    /// [`crate::transport::launcher`] runs, exercised in-process. See
    /// [`crate::transport::SocketTransport`].
    Socket,
}

/// Cumulative transport-level health counters, merged into
/// [`crate::DeliveryWork`] by [`crate::Simulator::delivery_work`] and
/// reported as bench metric rows. All counters cover the transport's
/// whole lifetime (a run), not one round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TransportHealth {
    /// Retries performed: reconnect attempts and frame re-sends.
    pub frames_retried: usize,
    /// Frames deliberately discarded or withheld by a fault-injection
    /// wrapper (always zero on production backends).
    pub frames_dropped_injected: usize,
    /// Nanoseconds spent blocked inside [`Transport::collect`] waiting
    /// for peer frames.
    pub collect_wait_ns: u64,
    /// Worker re-admissions on the socket fabric: restarted worker
    /// processes plus surviving-client link reconnects (each one is an
    /// epoch bump past a shard's first registration).
    pub workers_restarted: usize,
    /// Rounds fast-forwarded to reconnecting shards from the hub's
    /// per-destination replay logs.
    pub rounds_replayed: usize,
    /// Heartbeats a supervisor judged overdue before intervening.
    pub heartbeats_missed: usize,
}

impl TransportHealth {
    /// Adds another health report into this one (saturating).
    pub fn absorb(&mut self, other: TransportHealth) {
        self.frames_retried = self.frames_retried.saturating_add(other.frames_retried);
        self.frames_dropped_injected = self
            .frames_dropped_injected
            .saturating_add(other.frames_dropped_injected);
        self.collect_wait_ns = self.collect_wait_ns.saturating_add(other.collect_wait_ns);
        self.workers_restarted = self
            .workers_restarted
            .saturating_add(other.workers_restarted);
        self.rounds_replayed = self.rounds_replayed.saturating_add(other.rounds_replayed);
        self.heartbeats_missed = self
            .heartbeats_missed
            .saturating_add(other.heartbeats_missed);
    }
}

/// Moves one round's encoded bucket frames between shards.
///
/// Contract: during each round every sender shard calls [`Transport::send`]
/// exactly once per destination shard (empty buckets ship header-only
/// frames, so arrival counts are deterministic), all sends complete before
/// any [`Transport::collect`] for that round begins (the round's barrier
/// sits between the engine kernel's send and receive halves), and
/// `collect` is called exactly once per destination per round.
pub trait Transport: Send + Sync + std::fmt::Debug {
    /// Ships one encoded frame from sender shard `from` to destination
    /// shard `to`.
    fn send(&self, from: usize, to: usize, frame: Bytes);

    /// Collects the frames addressed to shard `to`: stores the frame from
    /// sender shard `k` at `into[k]`. `into` has one slot per shard; slots
    /// left `None` (a frame that never arrived) are surfaced by the place
    /// phase as a [`FrameError::MissingFrame`]. An implementation may
    /// return immediately with whatever arrived (loopback) or block — but
    /// never unboundedly: backends that wait must give up after a
    /// deadline (see [`crate::transport::DEFAULT_FRAME_TIMEOUT`]), either
    /// returning `Ok` with the missing slots still `None` (surfaced as
    /// `MissingFrame`) or, when they know *why* the link failed, a typed
    /// [`TransportError`] (surfaced as [`crate::SimError::Transport`]
    /// with the engine's round number patched in).
    ///
    /// # Errors
    ///
    /// A [`TransportError`] reports a broken link: timeout, disconnect,
    /// failed handshake, I/O failure, or a peer-relayed error.
    fn collect(&self, to: usize, into: &mut [Option<Bytes>]) -> Result<(), TransportError>;

    /// Cumulative health counters (retries, injected faults, collect
    /// wait). The default reports zeros — in-memory backends have no
    /// links to retry and never wait measurably.
    fn health(&self) -> TransportHealth {
        TransportHealth::default()
    }
}

/// In-memory [`Transport`]: an `S x S` slot matrix, grouped by
/// destination so a collect locks once.
#[derive(Debug)]
pub struct LoopbackTransport {
    /// `slots[to][from]`, taken (moved out) by the destination's collect.
    slots: Vec<Mutex<Vec<Option<Bytes>>>>,
}

impl LoopbackTransport {
    /// A loopback fabric connecting `shards` shards.
    #[must_use]
    pub fn new(shards: usize) -> Self {
        LoopbackTransport {
            slots: (0..shards)
                .map(|_| Mutex::new(vec![None; shards]))
                .collect(),
        }
    }
}

impl Transport for LoopbackTransport {
    fn send(&self, from: usize, to: usize, frame: Bytes) {
        let mut row = self.slots[to].lock().expect("no poisoned loopback row");
        row[from] = Some(frame);
    }

    fn collect(&self, to: usize, into: &mut [Option<Bytes>]) -> Result<(), TransportError> {
        let mut row = self.slots[to].lock().expect("no poisoned loopback row");
        for (slot, out) in row.iter_mut().zip(into.iter_mut()) {
            *out = slot.take();
        }
        Ok(())
    }
}

/// Encodes one router bucket into a frame in a **single pass**: the hot
/// path behind [`FrameEncoder::ship`], and the only frame encoder.
///
/// The bucket is fully known up front, and its payload-section sizes
/// arrive pre-tallied (`tally`, maintained ref by ref as the account pass
/// routed the bucket), so the frame is laid out exactly once: the tally
/// sizes the frame, then one walk over the refs writes the ref table, the
/// payload table, and the payload region straight to their final
/// positions (no staging, no re-walk). Payload bytes — looked up per ref
/// by `payload_of` — are copied exactly once (send arena → frame), and
/// the checksum is folded in one contiguous pass over the just-written
/// tables — still hot in cache — so the digest's four lanes run at full
/// block speed instead of re-entering the stripe peel on every 16-byte
/// entry.
///
/// Payload sharing uses the same rule the place phase depends on: refs of
/// one `(sender, message)` are consecutive within a bucket, so a
/// consecutive-pair check is an exact dedup and consecutive sharing refs
/// point at one payload-table entry (a multicast's copies ship one
/// payload).
///
/// # Panics
///
/// Panics if the encoded frame would exceed the `u32` wire bound — a
/// bucket that cannot be represented must never ship silently truncated.
pub(crate) fn encode_bucket<'p>(
    sender: usize,
    dest: usize,
    bucket: &[RouteRef],
    tally: BucketTally,
    payload_of: impl Fn(&RouteRef) -> &'p [u8],
    config: FrameConfig,
    mut buf: BytesMut,
) -> Bytes {
    debug_assert_eq!(
        (tally.payload_count, tally.region_len),
        {
            let t = BucketTally::of(bucket, |r| payload_of(r).len());
            (t.payload_count, t.region_len)
        },
        "router tally out of sync with the bucket"
    );
    let (payload_count, region_len) = (tally.payload_count, tally.region_len);
    let head = HEADER_LEN;
    let payload_table = head + REF_BYTES * bucket.len();
    let region_start = payload_table + PAYLOAD_BYTES * payload_count;
    let total = region_start + region_len;
    let total32 = u32::try_from(total).expect("frame length fits the wire format");
    // Size the buffer without a memset: every byte of `0..total` is
    // written below (the checksum word last, patched after the digest),
    // so zero-filling would be pure waste — `resize` only zero-fills
    // bytes past the recycled buffer's previous length, and steady-state
    // rounds (same frame size as two rounds ago) touch nothing here.
    buf.resize(total, 0);
    let data = &mut buf[..];
    data[..3].copy_from_slice(MAGIC);
    data[3] = FRAME_VERSION;
    data[4..8].copy_from_slice(&total32.to_le_bytes());
    let sender32 = u32::try_from(sender).expect("shard index fits the wire format");
    let dest32 = u32::try_from(dest).expect("shard index fits the wire format");
    data[8..12].copy_from_slice(&sender32.to_le_bytes());
    data[12..16].copy_from_slice(&dest32.to_le_bytes());
    data[16..20].copy_from_slice(&(bucket.len() as u32).to_le_bytes());
    data[20..24].copy_from_slice(&(payload_count as u32).to_le_bytes());
    data[CHECKSUM_OFFSET..CHECKSUM_OFFSET + 4].fill(0); // patched below
    let flags = config.flags();
    data[FLAGS_OFFSET..FLAGS_OFFSET + 4].copy_from_slice(&flags.to_le_bytes());
    // Body walk: both tables and the payload region are written in ONE
    // pass over the bucket, through three disjoint cursors into the
    // pre-sized buffer (the tally fixed every section boundary): direct
    // bounds-checked-once `chunks_exact_mut` stores the compiler
    // unrolls, instead of a walk per section with a capacity-checking
    // `put_slice` per entry.
    let (tables, region) = data[head..].split_at_mut(region_start - head);
    let (ref_table, pay_table) = tables.split_at_mut(payload_table - head);
    let mut refs = ref_table.chunks_exact_mut(REF_BYTES);
    let mut pays = pay_table.chunks_exact_mut(PAYLOAD_BYTES);
    let mut last: Option<(u32, u32)> = None;
    let mut payload_idx = 0u32;
    let mut cursor = 0usize;
    for r in bucket {
        if last != Some((r.from, r.msg)) {
            if last.is_some() {
                payload_idx += 1;
            }
            // Payload bytes are copied exactly once, send arena → final
            // frame position (covered by the digest only under the
            // payload-coverage flag — see the module docs).
            let payload = payload_of(r);
            let entry = pays
                .next()
                .expect("payload table sized by the metadata pass");
            entry[0..4].copy_from_slice(&(cursor as u32).to_le_bytes());
            entry[4..8].copy_from_slice(&(payload.len() as u32).to_le_bytes());
            region[cursor..cursor + payload.len()].copy_from_slice(payload);
            cursor += payload.len();
            last = Some((r.from, r.msg));
        }
        let entry = refs.next().expect("ref table sized to the bucket");
        entry[0..4].copy_from_slice(&r.from.to_le_bytes());
        entry[4..8].copy_from_slice(&payload_idx.to_le_bytes());
        entry[8..12].copy_from_slice(&r.lo.to_le_bytes());
        entry[12..16].copy_from_slice(&r.hi.to_le_bytes());
    }
    debug_assert_eq!(cursor, region_len);
    // Digest the header (skipping the zeroed checksum word) and the
    // finished tables in one contiguous fold each — the tables were just
    // written (still cache-warm), and one region-sized `update` keeps the
    // lanes at full block speed. The only post-digest write is patching
    // the 4-byte checksum word.
    let mut sum = LaneDigest::new();
    sum.update(&buf[..CHECKSUM_OFFSET]);
    sum.update(&buf[FLAGS_OFFSET..head]);
    sum.update(&buf[head..region_start]);
    if flags & FLAG_COVER_PAYLOAD != 0 {
        sum.update_padded(&buf[region_start..]);
    }
    let sum = sum.finish();
    buf[CHECKSUM_OFFSET..CHECKSUM_OFFSET + 4].copy_from_slice(&sum.to_le_bytes());
    buf.freeze()
}

/// One decoded ref-table entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameRef {
    /// Global sender vertex id.
    pub from: u32,
    /// Index into the frame's payload table.
    pub payload: u32,
    /// First directed-edge slot of the routed copies.
    pub lo: u32,
    /// One past the last slot.
    pub hi: u32,
}

/// A validated, decoded frame: a zero-copy view over the encoded bytes.
///
/// Decoding checks the magic, version, declared length, header checksum,
/// and every table bound up front, so the accessors below cannot read out
/// of range; [`Frame::payload`] borrows from the payload region without
/// copying.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    bytes: Bytes,
    sender: u32,
    dest: u32,
    flags: u32,
    ref_count: usize,
    payload_count: usize,
    /// Byte offset of the payload table.
    payload_table: usize,
    /// Byte offset of the payload region.
    region: usize,
}

impl Frame {
    /// Parses and validates one encoded frame, verifying the word-parallel
    /// digest (and, if flagged, its payload-region extension).
    ///
    /// # Errors
    ///
    /// Every malformation maps to a typed [`FrameError`]: short or
    /// overlong input, wrong magic, a version other than
    /// [`FRAME_VERSION`], a checksum mismatch, unknown flag bits, or
    /// tables/payload entries that overrun their regions.
    pub fn decode(bytes: Bytes) -> Result<Frame, FrameError> {
        let data = bytes.as_slice();
        if data.len() < HEADER_LEN {
            return Err(FrameError::Truncated {
                needed: HEADER_LEN,
                have: data.len(),
            });
        }
        if &data[..3] != MAGIC {
            return Err(FrameError::BadMagic);
        }
        if data[3] != FRAME_VERSION {
            return Err(FrameError::VersionMismatch {
                found: data[3],
                min: FRAME_VERSION,
                max: FRAME_VERSION,
            });
        }
        let declared = le32(data, LEN_OFFSET) as usize;
        if declared > data.len() {
            return Err(FrameError::Truncated {
                needed: declared,
                have: data.len(),
            });
        }
        if declared < data.len() {
            return Err(FrameError::Malformed {
                detail: "bytes trail the declared frame length",
            });
        }
        let sender = le32(data, 8);
        let dest = le32(data, 12);
        let ref_count = le32(data, 16) as usize;
        let payload_count = le32(data, 20) as usize;
        let flags = le32(data, FLAGS_OFFSET);
        let tables = (ref_count as u64) * (REF_BYTES as u64)
            + (payload_count as u64) * (PAYLOAD_BYTES as u64);
        let region = (HEADER_LEN as u64).saturating_add(tables);
        if region > declared as u64 {
            return Err(FrameError::Malformed {
                detail: "tables overrun the frame",
            });
        }
        let region = region as usize;
        let payload_table = HEADER_LEN + ref_count * REF_BYTES;
        let region_len = declared - region;
        // Verification: digest and structural validation share one pass
        // over the tables — the fused walks fold each entry and check it
        // in the same loop iteration. A structural violation (unknown
        // flag bits included) is only *recorded*: the checksum verdict
        // takes precedence (a corrupted frame reports `ChecksumMismatch`,
        // not whatever nonsense its flipped bits happen to spell).
        let declared_sum = le32(data, CHECKSUM_OFFSET);
        let mut d = LaneDigest::new();
        d.update(&data[..CHECKSUM_OFFSET]);
        d.update(&data[FLAGS_OFFSET..HEADER_LEN]);
        let (ref_past, ref_decreasing) =
            d.fold_ref_table(&data[HEADER_LEN..payload_table], payload_count);
        let payload_overrun = d.fold_payload_table(&data[payload_table..region], region_len as u64);
        if flags & FLAG_COVER_PAYLOAD != 0 {
            d.update_padded(&data[region..declared]);
        }
        let computed = d.finish();
        let malformed = if flags & !FLAGS_KNOWN != 0 {
            Some("unknown frame flags")
        } else if ref_past {
            Some("ref points past the payload table")
        } else if ref_decreasing {
            Some("ref slot range is decreasing")
        } else if payload_overrun {
            Some("payload entry overruns the payload region")
        } else {
            None
        };
        if computed != declared_sum {
            return Err(FrameError::ChecksumMismatch {
                declared: declared_sum,
                computed,
            });
        }
        if let Some(detail) = malformed {
            return Err(FrameError::Malformed { detail });
        }
        Ok(Frame {
            bytes,
            sender,
            dest,
            flags,
            ref_count,
            payload_count,
            payload_table,
            region,
        })
    }

    /// [`Frame::decode`], timing the validation: returns the frame and
    /// the nanoseconds the decode (dominated by the checksum verification
    /// walk) took, feeding [`crate::DeliveryWork::checksum_ns`].
    pub(crate) fn decode_timed(bytes: Bytes) -> Result<(Frame, u64), FrameError> {
        let start = std::time::Instant::now();
        let frame = Frame::decode(bytes)?;
        Ok((frame, start.elapsed().as_nanos() as u64))
    }

    /// Whether this frame's digest also covered the payload region (flag
    /// bit 0).
    #[must_use]
    pub fn covers_payload(&self) -> bool {
        self.flags & FLAG_COVER_PAYLOAD != 0
    }

    /// The shard that encoded this frame.
    #[must_use]
    pub fn sender_shard(&self) -> usize {
        self.sender as usize
    }

    /// The shard this frame is addressed to.
    #[must_use]
    pub fn dest_shard(&self) -> usize {
        self.dest as usize
    }

    /// Number of ref-table entries.
    #[must_use]
    pub fn ref_count(&self) -> usize {
        self.ref_count
    }

    /// Number of payload-table entries.
    #[must_use]
    pub fn payload_count(&self) -> usize {
        self.payload_count
    }

    /// Total encoded size in bytes.
    #[must_use]
    pub fn encoded_len(&self) -> usize {
        self.bytes.len()
    }

    /// The ref-table entries, in bucket (= delivery) order.
    pub fn refs(&self) -> impl Iterator<Item = FrameRef> + '_ {
        self.bytes.as_slice()[HEADER_LEN..self.payload_table]
            .chunks_exact(REF_BYTES)
            .map(|entry| FrameRef {
                from: le32(entry, 0),
                payload: le32(entry, 4),
                lo: le32(entry, 8),
                hi: le32(entry, 12),
            })
    }

    /// Payload `idx`, borrowed from the frame (bounds-checked at decode).
    ///
    /// # Panics
    ///
    /// Panics if `idx >= payload_count()`.
    #[must_use]
    pub fn payload(&self, idx: u32) -> &[u8] {
        assert!(
            (idx as usize) < self.payload_count,
            "payload index in range"
        );
        let data = self.bytes.as_slice();
        let entry = self.payload_table + PAYLOAD_BYTES * idx as usize;
        let off = le32(data, entry) as usize;
        let len = le32(data, entry + 4) as usize;
        &data[self.region + off..self.region + off + len]
    }
}

/// One shard's sender side of the frame seam: encodes every router bucket
/// into a frame and ships it, recycling each destination's frame buffer
/// from one round to the next.
///
/// Receivers copy the payloads they need into their slabs and drop the
/// frame at the end of placement, so the buffer shipped in round `r - 1`
/// is uniquely referenced again by round `r`'s ship and
/// [`Bytes::try_into_mut`] reclaims it — steady-state framing allocates
/// nothing. A transport that holds frames longer (a replay log, a delay
/// fault) just makes the reclaim miss and fall back to a fresh buffer;
/// correctness is unaffected.
///
/// Retained capacity is bounded with the same rolling-high-water policy
/// as the send log and the router buckets: a reclaimed buffer whose
/// capacity sits above [`RETAIN_FACTOR`] times the per-dest mark is
/// dropped, so one bursty round cannot pin `shards` burst-sized frame
/// buffers per shard forever, while constant-volume rounds never shrink
/// (doubling growth stays under the factor) and stay zero-alloc.
#[derive(Debug, Default)]
pub(crate) struct FrameEncoder {
    /// `last[dest]`: this shard's retained handle to the frame it shipped
    /// to `dest` last round (reclaim candidate).
    last: Vec<Option<Bytes>>,
    /// Rolling high-water mark of encoded frame bytes, per destination.
    high_water: Vec<usize>,
}

/// Floor of the frame-buffer retention mark, in bytes (a header-only
/// frame is 32 bytes; tiny frames must never thrash).
const FRAME_RETAIN_FLOOR: usize = 256;

impl FrameEncoder {
    /// Encodes shard `me`'s buckets — refs from `router`, payload bytes
    /// from the shard's own send `log` — and ships one frame per
    /// destination shard of the plan `bounds` through `transport`,
    /// encoded under `config`. Each bucket goes through the single-pass
    /// [`encode_bucket`]: payload bytes are copied exactly once, straight
    /// to their final position in the (recycled) frame buffer.
    pub(crate) fn ship(
        &mut self,
        me: usize,
        bounds: &[VertexId],
        router: &Router,
        log: &SendLog,
        transport: &dyn Transport,
        config: FrameConfig,
    ) {
        let shards = bounds.len() - 1;
        if self.last.len() != shards {
            self.last = vec![None; shards];
            self.high_water = vec![0; shards];
        }
        let payload_of = |r: &RouteRef| log.payload(r.msg);
        for dest in 0..shards {
            let cap = RETAIN_FACTOR * self.high_water[dest].max(FRAME_RETAIN_FLOOR);
            let buf = match self.last[dest].take().map(Bytes::try_into_mut) {
                // Dropping an over-retained buffer (rather than shrinking
                // in place) keeps the shim's `BytesMut` surface identical
                // to the real crate's.
                Some(Ok(buf)) if buf.capacity() <= cap => buf,
                _ => BytesMut::new(),
            };
            let frame = encode_bucket(
                me,
                dest,
                router.bucket(dest),
                router.tally(dest),
                payload_of,
                config,
                buf,
            );
            let hw = &mut self.high_water[dest];
            *hw = (*hw - *hw / 4).max(frame.len());
            self.last[dest] = Some(frame.clone());
            transport.send(me, dest, frame);
        }
    }
}

/// One [`encode_entries`] entry: `(from, slots, payload)`.
#[cfg(test)]
pub(crate) type EntrySpec<'a> = (usize, std::ops::Range<usize>, Option<&'a [u8]>);

/// Builds a frame through the production [`encode_bucket`], for tests:
/// entry `(from, slots, payload)` routes copies from sender vertex `from`
/// along the directed-edge slot range `slots`, carrying a new payload —
/// or, with `None`, the previous entry's payload (a multicast's later
/// copies; as in the engine's buckets, only consecutive entries of one
/// sender share a payload-table entry).
///
/// # Panics
///
/// Panics if the first entry has no payload to share.
#[cfg(test)]
pub(crate) fn encode_entries(
    sender: usize,
    dest: usize,
    entries: &[EntrySpec<'_>],
    config: FrameConfig,
) -> Bytes {
    let mut payloads: Vec<&[u8]> = Vec::new();
    let bucket: Vec<RouteRef> = entries
        .iter()
        .map(|(from, slots, payload)| {
            payloads.extend(*payload);
            RouteRef {
                from: *from as u32,
                msg: (payloads.len() - 1) as u32,
                lo: slots.start as u32,
                hi: slots.end as u32,
            }
        })
        .collect();
    let payload_of = |r: &RouteRef| payloads[r.msg as usize];
    let tally = BucketTally::of(&bucket, |r| payload_of(r).len());
    encode_bucket(
        sender,
        dest,
        &bucket,
        tally,
        payload_of,
        config,
        BytesMut::new(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Both encoding configs: tables-only and payload-covering digests.
    const CONFIGS: [FrameConfig; 2] = [
        FrameConfig {
            cover_payload: false,
        },
        FrameConfig {
            cover_payload: true,
        },
    ];

    #[test]
    fn empty_frame_round_trips_in_every_config() {
        for config in CONFIGS {
            let frame = encode_entries(3, 5, &[], config);
            assert_eq!(frame.len(), HEADER_LEN);
            let f = Frame::decode(frame).unwrap();
            assert_eq!(f.covers_payload(), config.cover_payload);
            assert_eq!(f.sender_shard(), 3);
            assert_eq!(f.dest_shard(), 5);
            assert_eq!(f.ref_count(), 0);
            assert_eq!(f.payload_count(), 0);
            assert_eq!(f.refs().count(), 0);
        }
    }

    /// The lane digest is independent of how the covered stream is split
    /// across `update` calls — the invariant the encoder's per-section
    /// folds lean on.
    #[test]
    fn lane_digest_is_split_invariant() {
        let words: Vec<u8> = (0u8..96).collect();
        let mut whole = LaneDigest::new();
        whole.update(&words);
        for cut in (0..=words.len()).step_by(4) {
            let mut split = LaneDigest::new();
            split.update(&words[..cut]);
            split.update(&words[cut..]);
            assert_eq!(split.finish(), whole.finish(), "cut at {cut}");
        }
        // Padded tails behave like explicit zero padding.
        let mut padded = LaneDigest::new();
        padded.update_padded(&words[..93]);
        let mut explicit = LaneDigest::new();
        let mut zeroed = words[..93].to_vec();
        zeroed.extend_from_slice(&[0, 0, 0]);
        explicit.update(&zeroed);
        assert_eq!(padded.finish(), explicit.finish());
    }

    /// Payload coverage actually covers: flipping a payload byte fails a
    /// covered frame's decode and sails through an uncovered one.
    #[test]
    fn payload_coverage_flag_extends_the_digest() {
        for config in CONFIGS {
            let encoded = encode_entries(0, 1, &[(7, 3..4, Some(b"fragile bytes"))], config);
            let f = Frame::decode(encoded.clone()).unwrap();
            assert_eq!(f.covers_payload(), config.cover_payload);
            let mut bad = encoded.as_slice().to_vec();
            let last = bad.len() - 1;
            bad[last] ^= 0x40; // a payload-region byte (the padded tail)
            let verdict = Frame::decode(Bytes::from(bad));
            if config.cover_payload {
                assert!(
                    matches!(verdict, Err(FrameError::ChecksumMismatch { .. })),
                    "covered payload corruption escaped: {verdict:?}"
                );
            } else {
                assert!(verdict.is_ok(), "uncovered payload rejected: {verdict:?}");
            }
        }
    }

    /// An unknown flag bit rejects the frame — but only after the digest
    /// verdict, so random corruption of the flags word still reads as a
    /// checksum failure.
    #[test]
    fn unknown_flag_bits_are_rejected() {
        let encoded = encode_entries(0, 1, &[], FrameConfig::default());
        let mut bad = encoded.as_slice().to_vec();
        bad[FLAGS_OFFSET] |= 0x02; // an undefined flag, digest not fixed up
        assert!(matches!(
            Frame::decode(Bytes::from(bad.clone())),
            Err(FrameError::ChecksumMismatch { .. })
        ));
        // With the digest recomputed over the bogus flag, the structural
        // rejection surfaces.
        let mut d = LaneDigest::new();
        d.update(&bad[..CHECKSUM_OFFSET]);
        d.update(&bad[FLAGS_OFFSET..HEADER_LEN]);
        let sum = d.finish();
        bad[CHECKSUM_OFFSET..CHECKSUM_OFFSET + 4].copy_from_slice(&sum.to_le_bytes());
        assert_eq!(
            Frame::decode(Bytes::from(bad)),
            Err(FrameError::Malformed {
                detail: "unknown frame flags"
            })
        );
    }

    #[test]
    fn entries_round_trip_with_shared_payloads() {
        let encoded = encode_entries(
            0,
            1,
            &[
                (7, 40..41, Some(b"alpha")),
                (7, 55..56, None), // same multicast payload, second target
                (9, 10..14, Some(b"bee")),
            ],
            FrameConfig::default(),
        );
        let f = Frame::decode(encoded).unwrap();
        let refs: Vec<_> = f.refs().collect();
        assert_eq!(refs.len(), 3);
        assert_eq!(f.payload_count(), 2);
        assert_eq!(refs[0].from, 7);
        assert_eq!((refs[0].lo, refs[0].hi), (40, 41));
        assert_eq!(refs[0].payload, refs[1].payload, "multicast shares bytes");
        assert_eq!(f.payload(refs[1].payload), b"alpha");
        assert_eq!(f.payload(refs[2].payload), b"bee");
        assert_eq!((refs[2].lo, refs[2].hi), (10, 14));
    }

    #[test]
    fn loopback_moves_frames_once() {
        let t = LoopbackTransport::new(2);
        let frame = encode_entries(1, 0, &[], FrameConfig::default());
        t.send(1, 0, frame.clone());
        let mut got = vec![None, None];
        t.collect(0, &mut got).unwrap();
        assert!(got[0].is_none());
        assert_eq!(got[1].as_ref().unwrap().as_slice(), frame.as_slice());
        // A second collect finds the slots drained.
        let mut again = vec![None, None];
        t.collect(0, &mut again).unwrap();
        assert!(again.iter().all(Option::is_none));
    }

    #[test]
    fn encoder_ships_one_valid_frame_per_destination_per_round() {
        let t = LoopbackTransport::new(2);
        let mut router = Router::default();
        router.reset(2);
        let mut enc = FrameEncoder::default();
        for round in 0..6 {
            enc.ship(
                0,
                &[0, 0, 0],
                &router,
                &SendLog::default(),
                &t,
                FrameConfig::default(),
            );
            for dest in 0..2 {
                let mut got = vec![None, None];
                t.collect(dest, &mut got).unwrap();
                let frame = Frame::decode(got[0].take().expect("frame arrived")).unwrap();
                assert_eq!(frame.sender_shard(), 0, "round {round} dest {dest}");
                assert_eq!(frame.dest_shard(), dest, "round {round} dest {dest}");
                assert_eq!(frame.ref_count(), 0);
                assert!(got[1].is_none(), "no frame from a nonexistent sender");
            }
        }
    }

    /// The engine's send-log payload lookup and the test helper's entry
    /// list produce the same frame, byte for byte, in both configs: a
    /// broadcast-style segment ref, then a multicast (two singleton refs
    /// sharing one payload) and a second message from another sender.
    #[test]
    fn send_log_payloads_encode_like_the_entry_list() {
        let mut log = SendLog::default();
        crate::Outbox::new(&mut log, 0).broadcast(b"alpha");
        let mut out1 = crate::Outbox::new(&mut log, 1);
        out1.multicast(&[0, 2], b"bee");
        out1.unicast(2, b"");
        let bucket = [(0, 0, 0..3), (1, 1, 3..4), (1, 1, 5..6), (1, 2, 5..6)];
        let mut router = Router::default();
        router.reset(1);
        for (from, msg, slots) in bucket.clone() {
            let route = RouteRef {
                from,
                msg,
                lo: slots.start,
                hi: slots.end,
            };
            router.push(0, route, log.payload(msg).len());
        }
        for config in CONFIGS {
            let t = LoopbackTransport::new(1);
            FrameEncoder::default().ship(0, &[0, 2], &router, &log, &t, config);
            let mut got = vec![None];
            t.collect(0, &mut got).unwrap();
            let shipped = got[0].take().expect("frame arrived");
            let listed = encode_entries(
                0,
                0,
                &[
                    (0, 0..3, Some(b"alpha")),
                    (1, 3..4, Some(b"bee")),
                    (1, 5..6, None),
                    (1, 5..6, Some(b"")),
                ],
                config,
            );
            assert_eq!(shipped.as_slice(), listed.as_slice(), "{config:?}");
            let f = Frame::decode(shipped).unwrap();
            assert_eq!(f.ref_count(), 4);
            assert_eq!(f.payload_count(), 3);
            let refs: Vec<_> = f.refs().collect();
            assert_eq!(refs[1].payload, refs[2].payload, "multicast shares bytes");
            assert_eq!(f.payload(refs[0].payload), b"alpha");
        }
    }

    #[test]
    fn frame_buffer_capacity_decays_after_a_burst() {
        let t = LoopbackTransport::new(1);
        let drain = |t: &LoopbackTransport| {
            let mut got = vec![None];
            t.collect(0, &mut got).unwrap();
        };
        let mut router = Router::default();
        router.reset(1);
        router.push(
            0,
            RouteRef {
                from: 0,
                msg: 0,
                lo: 0,
                hi: 1,
            },
            64 * 1024,
        );
        let mut log = SendLog::default();
        crate::Outbox::new(&mut log, 0).unicast(0, &vec![7u8; 64 * 1024]);
        let mut enc = FrameEncoder::default();
        let config = FrameConfig::default();
        enc.ship(0, &[0, 1], &router, &log, &t, config);
        drain(&t);
        assert!(enc.high_water[0] >= 64 * 1024, "burst mark recorded");
        // Dozens of empty rounds later, the mark — and with it the
        // retained buffer capacity the reclaim path will accept — has
        // decayed back to the steady scale (same policy as the send log).
        router.reset(1);
        for _ in 0..64 {
            enc.ship(0, &[0, 0], &router, &SendLog::default(), &t, config);
            drain(&t);
        }
        assert!(
            enc.high_water[0] <= FRAME_RETAIN_FLOOR,
            "mark {} still pinned after decay",
            enc.high_water[0]
        );
    }

    #[test]
    fn recycle_ring_never_aliases_a_frame_a_receiver_still_holds() {
        // A receiver that keeps a frame alive across later rounds must
        // see its bytes unchanged: the encoder's reclaim goes through
        // `Bytes::try_into_mut`, which refuses shared buffers, so it falls
        // back to a fresh buffer instead of rewriting one in place.
        let t = LoopbackTransport::new(1);
        let mut router = Router::default();
        router.reset(1);
        let mut enc = FrameEncoder::default();
        let config = FrameConfig::default();
        enc.ship(0, &[0, 0], &router, &SendLog::default(), &t, config);
        let mut got = vec![None];
        t.collect(0, &mut got).unwrap();
        let held = got[0].take().unwrap();
        let snapshot = held.as_slice().to_vec();
        for _ in 0..6 {
            enc.ship(0, &[0, 0], &router, &SendLog::default(), &t, config);
            let mut later = vec![None];
            t.collect(0, &mut later).unwrap();
            assert_eq!(
                held.as_slice(),
                &snapshot[..],
                "a held frame was rewritten in place"
            );
        }
    }

    /// Frame codec robustness: encode -> decode is the identity over
    /// arbitrary bucket contents (empty buckets and multicast-heavy
    /// rounds included) in both encode configs, and malformed frames —
    /// truncated, version-mismatched, checksum-corrupted — are rejected
    /// with typed [`FrameError`]s instead of panicking. The digest is
    /// pinned against an independent per-lane serial reference and
    /// against a hard-coded byte vector, so an accidental format change
    /// fails loudly here.
    mod codec {
        use super::*;
        use proptest::prelude::*;

        /// One bucket entry for the roundtrip property: `share` reuses
        /// the previous entry's sender and payload (a multicast's later
        /// copies), so shrunken cases still cover the payload-sharing
        /// path.
        #[derive(Debug, Clone)]
        struct Entry {
            from: usize,
            lo: usize,
            width: usize,
            payload: Vec<u8>,
            share: bool,
        }

        fn arb_entry() -> impl Strategy<Value = Entry> {
            (
                (0usize..10_000, 0usize..100_000, 0usize..64),
                proptest::collection::vec(0u8..=255, 0..48),
                0u32..2,
            )
                .prop_map(|((from, lo, width), payload, share)| Entry {
                    from,
                    lo,
                    width,
                    payload,
                    share: share == 1,
                })
        }

        /// Expected decoded view of one ref: `(from, lo, hi, payload bytes)`.
        type ExpectedRef = (u32, u32, u32, Vec<u8>);

        /// Encodes `entries` under `config` and returns the frame plus
        /// the expected decoded view per ref.
        fn encode_with(
            config: FrameConfig,
            sender: usize,
            dest: usize,
            entries: &[Entry],
        ) -> (Bytes, Vec<ExpectedRef>) {
            let mut listed = Vec::new();
            let mut expected = Vec::new();
            let mut last: Option<(usize, &[u8])> = None;
            for e in entries {
                let slots = e.lo..e.lo + e.width;
                let (from, payload) = match (last, e.share) {
                    (Some((from, payload)), true) => {
                        listed.push((from, slots, None));
                        (from, payload)
                    }
                    _ => {
                        listed.push((e.from, slots, Some(e.payload.as_slice())));
                        (e.from, e.payload.as_slice())
                    }
                };
                let (lo, hi) = (e.lo as u32, (e.lo + e.width) as u32);
                expected.push((from as u32, lo, hi, payload.to_vec()));
                last = Some((from, payload));
            }
            (encode_entries(sender, dest, &listed, config), expected)
        }

        /// The byte ranges a frame's digest covers, concatenated: header
        /// without the checksum word (plus the flags word), then the
        /// tables, then — under payload coverage — the payload region.
        /// This re-derives the covered stream from the wire bytes alone,
        /// independent of the codec.
        fn covered_stream(encoded: &Bytes, frame: &Frame) -> Vec<u8> {
            let data = encoded.as_slice();
            // Table sizes are part of the pinned format: 16 bytes per ref
            // entry, 8 per payload entry.
            let tables = frame.ref_count() * 16 + frame.payload_count() * 8;
            let mut stream = Vec::new();
            stream.extend_from_slice(&data[..24]);
            stream.extend_from_slice(&data[28..32]);
            stream.extend_from_slice(&data[32..32 + tables]);
            if frame.covers_payload() {
                stream.extend_from_slice(&data[32 + tables..]);
                while stream.len() % 4 != 0 {
                    stream.push(0); // the codec zero-pads the payload tail word
                }
            }
            stream
        }

        /// Independent per-lane serial reference of the digest: word `i`
        /// of the covered stream folds into lane `i mod 4`, one word at a
        /// time (no unrolled blocks — this deliberately mirrors the
        /// *specification*, not the implementation's peel/block/tail
        /// structure).
        fn reference_lane_digest(stream: &[u8]) -> u32 {
            assert_eq!(stream.len() % 4, 0, "covered stream is word-aligned");
            const INIT: u32 = 0x811c_9dc5;
            const PRIME: u32 = 0x0100_0193;
            const STRIDE: u32 = 0x9E37_79B9;
            let mut lanes = [0u32; 4];
            for (i, lane) in lanes.iter_mut().enumerate() {
                *lane = INIT.wrapping_add((i as u32).wrapping_mul(STRIDE));
            }
            for (i, word) in stream.chunks_exact(4).enumerate() {
                let w = u32::from_le_bytes(word.try_into().expect("4 bytes"));
                let lane = &mut lanes[i % 4];
                *lane = (*lane ^ w).wrapping_mul(PRIME);
            }
            let mut h = INIT;
            for lane in lanes {
                h = (h ^ lane).wrapping_mul(PRIME);
            }
            h
        }

        /// Total bytes of the payload region (exempt from the digest
        /// unless the frame was encoded with payload coverage).
        fn frame_payload_region_len(frame: &Frame) -> usize {
            (0..frame.payload_count())
                .map(|i| frame.payload(i as u32).len())
                .sum()
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            /// encode -> decode == identity in both configs: every ref
            /// comes back with its sender, slot range, and payload bytes
            /// intact, in order, and the decoded frame reports the
            /// coverage it was encoded with.
            #[test]
            fn roundtrip_is_identity(
                sender in 0usize..64,
                dest in 0usize..64,
                entries in proptest::collection::vec(arb_entry(), 0..24),
                config_pick in 0usize..2,
            ) {
                let config = CONFIGS[config_pick];
                let (encoded, expected) = encode_with(config, sender, dest, &entries);
                let frame = Frame::decode(encoded).expect("own encoding decodes");
                prop_assert_eq!(frame.covers_payload(), config.cover_payload);
                prop_assert_eq!(frame.sender_shard(), sender);
                prop_assert_eq!(frame.dest_shard(), dest);
                prop_assert_eq!(frame.ref_count(), expected.len());
                let refs: Vec<_> = frame.refs().collect();
                for (r, (from, lo, hi, payload)) in refs.iter().zip(&expected) {
                    prop_assert_eq!(r.from, *from);
                    prop_assert_eq!(r.lo, *lo);
                    prop_assert_eq!(r.hi, *hi);
                    prop_assert_eq!(frame.payload(r.payload), &payload[..]);
                }
                // Shared payloads are stored once: consecutive share
                // entries point at the same payload-table index.
                for (i, e) in entries.iter().enumerate().skip(1) {
                    if e.share {
                        prop_assert_eq!(refs[i].payload, refs[i - 1].payload);
                    }
                }
                prop_assert!(frame.payload_count() <= frame.ref_count().max(1));
            }

            /// The wire checksum of every frame equals the independent
            /// per-lane serial reference over the covered stream —
            /// pinning lane striping, seeds, zero-padding, and the final
            /// lane fold against the unrolled implementation.
            #[test]
            fn lane_digest_matches_per_lane_serial_reference(
                sender in 0usize..64,
                dest in 0usize..64,
                entries in proptest::collection::vec(arb_entry(), 0..24),
                config_pick in 0usize..2,
            ) {
                let (encoded, _) = encode_with(CONFIGS[config_pick], sender, dest, &entries);
                let frame = Frame::decode(encoded.clone()).expect("own encoding decodes");
                let declared = u32::from_le_bytes(
                    encoded.as_slice()[24..28].try_into().expect("4 bytes"),
                );
                let stream = covered_stream(&encoded, &frame);
                prop_assert_eq!(declared, reference_lane_digest(&stream));
            }

            /// Flipping any single bit of any covered word — every
            /// position in all four lanes — changes the digest: every fold
            /// is bijective on its lane, so no flip can cancel. With
            /// payload coverage on, the covered region is the entire
            /// frame.
            #[test]
            fn lane_digest_detects_single_bit_flips_in_every_lane_position(
                entries in proptest::collection::vec(arb_entry(), 0..12),
                pos_pick in 0u32..u32::MAX,
                bit in 0u8..8,
            ) {
                let config = FrameConfig { cover_payload: true };
                let (encoded, _) = encode_with(config, 1, 2, &entries);
                // Skip the checksum word itself — the one uncovered span.
                // (Flipping it is caught as a mismatch too, but by the
                // other side of the comparison.)
                let pos = match (pos_pick as usize) % (encoded.len() - 4) {
                    p if p >= 24 => p + 4,
                    p => p,
                };
                let mut bad = encoded.as_slice().to_vec();
                bad[pos] ^= 1 << bit;
                prop_assert!(
                    Frame::decode(Bytes::from(bad)).is_err(),
                    "covered flip at byte {} (lane {}) escaped validation",
                    pos,
                    (pos / 4) % 4
                );
            }

            /// Every strict prefix of a frame is rejected as truncated —
            /// never a panic, never a partial decode.
            #[test]
            fn truncation_is_rejected(
                entries in proptest::collection::vec(arb_entry(), 0..12),
                cut in 0.0f64..1.0,
                config_pick in 0usize..2,
            ) {
                let (encoded, _) = encode_with(CONFIGS[config_pick], 1, 2, &entries);
                let keep = ((encoded.len() as f64) * cut) as usize; // < len
                let truncated = Bytes::from(encoded.as_slice()[..keep].to_vec());
                match Frame::decode(truncated) {
                    Err(FrameError::Truncated { needed, have }) => {
                        prop_assert_eq!(have, keep);
                        prop_assert!(needed > have);
                    }
                    other => prop_assert!(false, "expected Truncated, got {:?}", other),
                }
            }

            /// Any bit flip in the header or tables is caught — by the
            /// magic, version, length, structural, or checksum check —
            /// before a single copy could be misdelivered.
            #[test]
            fn header_and_table_corruption_is_rejected(
                entries in proptest::collection::vec(arb_entry(), 0..12),
                pos_pick in 0u32..u32::MAX,
                bit in 0u8..8,
                config_pick in 0usize..2,
            ) {
                let (encoded, _) = encode_with(CONFIGS[config_pick], 1, 2, &entries);
                let frame = Frame::decode(encoded.clone()).expect("valid before corruption");
                // Header + tables span everything before the payload region.
                let protected = encoded.len() - frame_payload_region_len(&frame);
                let pos = (pos_pick as usize) % protected;
                let mut bad = encoded.as_slice().to_vec();
                bad[pos] ^= 1 << bit;
                prop_assert!(
                    Frame::decode(Bytes::from(bad)).is_err(),
                    "flip at {} escaped validation", pos
                );
            }
        }

        /// A fixed single-ref bucket used by the deterministic tests below.
        fn fixed_frame(config: FrameConfig) -> Bytes {
            encode_entries(1, 2, &[(4, 7..9, Some(b"netdecomp"))], config)
        }

        #[test]
        fn every_encode_config_decodes_with_the_same_decoder() {
            for config in CONFIGS {
                let encoded = fixed_frame(config);
                let frame = Frame::decode(encoded.clone())
                    .unwrap_or_else(|e| panic!("config {config:?} failed to decode: {e}"));
                assert_eq!(frame.covers_payload(), config.cover_payload);
                assert_eq!(frame.sender_shard(), 1);
                assert_eq!(frame.dest_shard(), 2);
                assert_eq!(frame.ref_count(), 1);
                let r = frame.refs().next().expect("one ref");
                assert_eq!((r.from, r.lo, r.hi), (4, 7, 9));
                assert_eq!(frame.payload(r.payload), b"netdecomp");
                // Header, one ref entry, one payload entry, the payload.
                assert_eq!(encoded.len(), 32 + 16 + 8 + b"netdecomp".len());
            }
        }

        /// Every version byte but [`FRAME_VERSION`] — older, newer, or
        /// nonsense — is rejected, naming the version this build speaks
        /// (see also the display test in `error.rs`).
        #[test]
        fn version_mismatch_is_reported_as_such() {
            for found in [0u8, 1, 9] {
                let encoded = fixed_frame(FrameConfig::default());
                let mut bad = encoded.as_slice().to_vec();
                bad[3] = found;
                let err = Frame::decode(Bytes::from(bad)).expect_err("foreign version");
                assert_eq!(
                    err,
                    FrameError::VersionMismatch {
                        found,
                        min: FRAME_VERSION,
                        max: FRAME_VERSION,
                    }
                );
                assert!(err.to_string().contains(&format!("version {found}")));
            }
        }

        #[test]
        fn checksum_corruption_is_reported_as_such() {
            for config in CONFIGS {
                let mut bad = fixed_frame(config).as_slice().to_vec();
                bad[24] ^= 0x10; // the checksum word itself
                assert!(matches!(
                    Frame::decode(Bytes::from(bad)),
                    Err(FrameError::ChecksumMismatch { .. })
                ));
            }
        }

        #[test]
        fn trailing_bytes_are_rejected() {
            for config in CONFIGS {
                let mut bytes = encode_entries(0, 0, &[], config).as_slice().to_vec();
                bytes.push(0);
                assert!(matches!(
                    Frame::decode(Bytes::from(bytes)),
                    Err(FrameError::Malformed { .. })
                ));
            }
        }

        #[test]
        fn empty_input_is_truncated_not_a_panic() {
            // Every frame carries the full 32-byte header.
            assert_eq!(
                Frame::decode(Bytes::new()),
                Err(FrameError::Truncated {
                    needed: 32,
                    have: 0
                })
            );
            assert_eq!(
                Frame::decode(Bytes::from_static(b"NDF")),
                Err(FrameError::Truncated {
                    needed: 32,
                    have: 3
                })
            );
        }

        #[test]
        fn wrong_magic_is_rejected() {
            assert_eq!(
                Frame::decode(Bytes::from(vec![0u8; 32])),
                Err(FrameError::BadMagic)
            );
        }

        /// Pinned wire-format vectors: the exact bytes the encoder
        /// produces for the fixed bucket above. A failure here means the
        /// wire format changed — which requires a version bump, not a
        /// test update.
        #[test]
        fn wire_format_vectors_are_pinned() {
            let hex = |bytes: &Bytes| -> String {
                bytes
                    .as_slice()
                    .iter()
                    .map(|b| format!("{b:02x}"))
                    .collect()
            };
            assert_eq!(hex(&fixed_frame(CONFIGS[0])), V2_VECTOR);
            assert_eq!(hex(&fixed_frame(CONFIGS[1])), V2_COVER_VECTOR);
        }

        const V2_VECTOR: &str = "4e4446024100000001000000020000000100000001000000caf0a5be000000000400000000000000070000000900000000000000090000006e65746465636f6d70";
        const V2_COVER_VECTOR: &str = "4e44460241000000010000000200000001000000010000004033bc3e010000000400000000000000070000000900000000000000090000006e65746465636f6d70";
    }
}
