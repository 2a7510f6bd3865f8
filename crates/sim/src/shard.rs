//! Recipient-range sharding of the delivery phase, with sender-side
//! message routing.
//!
//! A [`ShardPlan`] partitions the vertex set into contiguous ranges. Each
//! shard owns, exclusively:
//!
//! - the **inbox slice** of its vertices (per-vertex slot ranges into a
//!   flat slot table of compact `{from, payload id}` pairs) and the
//!   **payload slab** those slots resolve through, written only by the
//!   owning shard during placement and read only by the owning shard
//!   during the next compute phase;
//! - the **wake list** (its vertices with a non-empty inbox, a
//!   one-bit-per-vertex map built by placement), which keeps compute
//!   down to the vertices taking part in the round;
//! - the **send log** its vertices append to during compute (messages in
//!   sender order, payload bytes in one arena), which account walks;
//! - the **per-edge CONGEST counters** of the directed-edge slots leaving
//!   its vertices. Edge accounting is *sender-owned*: the slot of the
//!   directed edge `from -> to` lives in `from`'s CSR row, and because a
//!   shard is a contiguous vertex range its slots form one contiguous
//!   block of `0..2m` — sharding needs no counter merge at all. A
//!   slot's counter holds only unicast and multicast bytes: a sender's
//!   broadcasts load every one of its edges alike, so account sums them
//!   once per sender, and a slot's total is its counter plus its
//!   sender's broadcast sum;
//! - the **[`Router`]** of its vertex range: outgoing message references
//!   bucketed by destination shard, written by the owning shard during
//!   the account pass and read by every destination shard during
//!   placement (after a phase barrier).
//!
//! # Who writes which bucket, and when
//!
//! The routing index is built and consumed strictly phase-by-phase:
//!
//! 1. **Account (sender side).** Shard `k` — and only shard `k` — writes
//!    `routers[k]`: while validating and CONGEST-charging each message of
//!    its own send log, it appends one [`RouteRef`] per destination shard
//!    the message touches. Unicasts and multicast targets are resolved to
//!    their (sender-owned) directed-edge slot and routed through a flat
//!    O(1) vertex→shard table; broadcasts reuse the [`RouteIndex`]'s
//!    precomputed per-vertex adjacency segmentation, one ref per
//!    destination-shard segment rather than one per copy.
//! 2. **Place (recipient side).** After the barrier, shard `j` reads
//!    bucket `j` of *every* router — `routers[k].bucket(j)` for all `k` —
//!    and nothing else. It never touches a bucket addressed to another
//!    shard, so buckets are single-writer, then frozen, then
//!    multi-reader; no lock is ever contended.
//!
//! Because shard `k`'s send log is in sender id order, bucket entries
//! are ordered by (sender id, send order, target order), and
//! concatenating buckets for `j` across `k = 0, 1, …` preserves global
//! sender order — per-recipient delivery order stays bit-identical to the
//! sequential single-buffer reference merge that `Determinism::Verify`
//! cross-checks.
//!
//! # Delivery complexity
//!
//! With `S` shards, `M` logged messages, `U` unicast and multicast
//! copies, and `C` delivered copies (`C >= M`; a broadcast counts one
//! copy per incident edge), a round's delivery passes cost:
//!
//! | pass                      | cost                  |
//! |---------------------------|-----------------------|
//! | account (charge + route)  | `O(M + U + segments)` |
//! | count                     | `O(refs + C)`         |
//! | scatter                   | `O(refs + C)`         |
//!
//! where `refs <= M + C` in total across all buckets (a unicast or
//! multicast target is one ref; a broadcast contributes at most
//! `min(degree, S)` segment refs). No shard rescans another shard's
//! messages, so header work carries no shard-count multiplier — the
//! gating property for running shards on separate processes, where a
//! cross-shard rescan would become a cross-process one. Account charges
//! a broadcast in `O(1)`: it adds the bytes to the sender's broadcast sum
//! and compares the sender's fullest edge with the limit, and only a
//! violating broadcast walks its edges, to name the first one past the
//! limit.
//!
//! Per-vertex work follows the round's participants too. The count pass
//! keeps each recipient's copy count in its inbox range and marks it on
//! the wake list, a one-bit-per-vertex map. Sealing reads the map's
//! `⌈len/64⌉` words and hands each recipient, in ascending order, its
//! slot range; the next placement empties exactly those ranges again.
//! Placement thus costs `O(refs + C + W)` plus the word scans, for
//! `W ≤ C` woken vertices, where prefix sums over every owned vertex
//! would cost `O(len)` per round however quiet it was.
//!
//! The remaining `O(C)` scatter term is a *cache-linear 8-byte write* per
//! copy: the inbox stores compact `{from: u32, payload: PayloadId}`
//! slots, and each unique `(sender, message)` payload is copied **once
//! per shard per round** into the shard's [`crate::PayloadSlab`]. Payload
//! bytes move in proportion to *messages*, never to *copies* — a
//! broadcast to ten thousand neighbors costs one slab copy and ten
//! thousand plain slot writes.
//!
//! # The slab ownership rule
//!
//! A shard's slab **owns the payload bytes it serves**. Placement copies
//! each unique payload in — from the sending shard's send arena under the
//! in-memory backends, from the decoded frame under the framed ones — so
//! neither a send log nor a frame has to outlive placement: the next
//! compute phase clears the send logs, and the framed place phase drops
//! its frames as soon as it has scattered them. Slab entries live exactly
//! one round: registered by placement, read by the next compute phase,
//! dropped wholesale by the following placement's
//! [`crate::PayloadSlab::reset`].
//!
//! # The frame seam
//!
//! A per-`(sender, destination)` bucket is exactly the batch a transport
//! ships, and under the framed backends it is shipped: after account,
//! each shard's [`crate::frame::FrameEncoder`] serializes every bucket —
//! refs plus the payload bytes they reference, copied out of the shard's
//! *own* send arena — into one self-delimiting, checksummed frame per
//! destination shard, and [`DeliveryShard::place_frames`] consumes
//! decoded frames instead of reading other shards' send logs or routers.
//! The two placement paths walk identical refs in identical (sender
//! shard, bucket) order, so delivery order — and therefore every result —
//! is bit-identical across backends; `Determinism::Verify` cross-checks
//! the framed paths against the same sequential reference merge.
//!
//! All routing buffers (send logs, buckets, counters, the inbox, slab and
//! wake list, frame buffers and gather/decode tables under the loopback
//! transport) are recycled in place across rounds, so steady-state
//! stepping stays allocation-free (pinned by
//! `crates/sim/tests/steady_state_alloc.rs`).

use std::sync::RwLock;

use netdecomp_graph::{Graph, VertexId};

use crate::error::FrameError;
use crate::frame::{Frame, FrameEncoder, Transport};
use crate::message::{InboxSlot, PayloadSlab, Recipient, SendLog};
use crate::wire::{put_bytes, put_u64, WireReader};
use crate::{CongestLimit, DeliveryWork, Inbox, PayloadId, RoundStats, SimError};

/// First directed-edge slot of `v`'s CSR row (`2m` for `v == n`, so the
/// expression is also valid as an exclusive upper bound).
fn slot_start(graph: &Graph, v: usize) -> usize {
    if v < graph.vertex_count() {
        graph.neighbor_slots(v).start
    } else {
        graph.directed_edge_count()
    }
}

/// A partition of the vertex set into contiguous recipient ranges.
///
/// Boundaries are degree-balanced: shard `k` covers
/// `boundaries()[k]..boundaries()[k + 1]`, chosen so every shard carries
/// roughly the same share of `2m + n` (directed-edge slots plus vertices —
/// the per-round delivery work is linear in both). Because adjacency is
/// CSR-sorted, a contiguous vertex range also owns one contiguous range of
/// directed-edge slots, which is what makes per-shard CONGEST counters a
/// plain slice instead of a merge problem.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    /// `count() + 1` non-decreasing vertex ids from `0` to `n`.
    boundaries: Vec<VertexId>,
}

impl ShardPlan {
    /// The trivial plan: one shard covering all of `0..n`.
    #[must_use]
    pub fn single(n: usize) -> Self {
        ShardPlan {
            boundaries: vec![0, n],
        }
    }

    /// A degree-balanced plan with (at most) `shards` shards.
    ///
    /// The requested count is clamped to `1..=max(n, 1)`; a shard may still
    /// end up empty on extremely skewed degree distributions (e.g. a star's
    /// center outweighing everything else), which the engine handles.
    #[must_use]
    pub fn degree_balanced(graph: &Graph, shards: usize) -> Self {
        let n = graph.vertex_count();
        let s = shards.clamp(1, n.max(1));
        let weight = |v: usize| slot_start(graph, v) + v;
        let total = weight(n);
        let mut boundaries = Vec::with_capacity(s + 1);
        boundaries.push(0);
        for k in 1..s {
            // Smallest v whose cumulative weight reaches the k-th share.
            let target = k * total / s;
            let (mut lo, mut hi) = (boundaries[k - 1], n);
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                if weight(mid) < target {
                    lo = mid + 1;
                } else {
                    hi = mid;
                }
            }
            boundaries.push(lo);
        }
        boundaries.push(n);
        ShardPlan { boundaries }
    }

    /// Number of shards.
    #[must_use]
    pub fn count(&self) -> usize {
        self.boundaries.len() - 1
    }

    /// The non-decreasing shard boundaries: `count() + 1` vertex ids from
    /// `0` to `n`.
    #[must_use]
    pub fn boundaries(&self) -> &[VertexId] {
        &self.boundaries
    }

    /// The contiguous vertex range owned by shard `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k >= count()`.
    #[must_use]
    pub fn range(&self, k: usize) -> std::ops::Range<VertexId> {
        self.boundaries[k]..self.boundaries[k + 1]
    }

    /// The shard owning vertex `v`.
    ///
    /// This is a binary search over the boundaries; hot paths use the
    /// flat O(1) table a [`RouteIndex`] precomputes instead.
    ///
    /// # Panics
    ///
    /// Panics if `v` is at least the plan's vertex count.
    #[must_use]
    pub fn shard_of(&self, v: VertexId) -> usize {
        assert!(v < *self.boundaries.last().expect("non-empty boundaries"));
        // Last boundary <= v (empty shards share a boundary; the owner is
        // the unique shard whose half-open range contains v).
        self.boundaries.partition_point(|&b| b <= v) - 1
    }
}

/// A contiguous run of one vertex's adjacency whose targets all live in
/// the same destination shard.
///
/// `Graph::slot_target` of each slot in [`RouteSegment::slots`] is a
/// recipient, in adjacency order. Concatenating a vertex's segments in
/// order reproduces its `Graph::neighbor_slots` range exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteSegment {
    /// Destination shard owning every target of the run.
    pub shard: usize,
    /// The run's directed-edge slot range (within the sender's CSR row).
    pub slots: std::ops::Range<usize>,
}

/// Compact stored form of a [`RouteSegment`].
#[derive(Debug, Clone, Copy)]
struct Seg {
    shard: u32,
    lo: u32,
    hi: u32,
}

/// Precomputed routing tables for one `(graph, plan)` pair.
///
/// Built once per [`ShardPlan`] (not per round), this answers the two
/// questions the account pass asks of every outgoing message in O(1) per
/// message (unicast / multicast target) or O(segments) per broadcast:
///
/// - **Which shard owns vertex `v`?** A flat `n`-entry table, replacing a
///   per-message binary search over the plan boundaries.
/// - **How does `v`'s adjacency split by destination shard?** Adjacency is
///   CSR-sorted by target id and shard ranges are contiguous, so each
///   vertex's slot range splits into at most `min(degree, shards)`
///   contiguous [`RouteSegment`]s with strictly increasing shard — found
///   once here, not rediscovered per round per scan.
///
/// Slot positions are stored as `u32`: the flat per-slot counter arrays
/// bound practical graphs far below 4 billion directed edges.
#[derive(Debug, Clone)]
pub struct RouteIndex {
    /// Number of shards in the plan this index was built from.
    shards: usize,
    /// Owning shard of each vertex.
    shard_of: Vec<u32>,
    /// CSR offsets: vertex `v`'s segments are
    /// `segs[seg_offsets[v]..seg_offsets[v + 1]]`.
    seg_offsets: Vec<usize>,
    /// All vertices' adjacency segments, concatenated in vertex order.
    segs: Vec<Seg>,
}

impl RouteIndex {
    /// Builds the routing tables for `graph` partitioned by `plan`.
    ///
    /// Runs in `O(n + m)` (`O(n)` for a single-shard plan, whose
    /// segmentation is each vertex's whole row).
    ///
    /// # Panics
    ///
    /// Panics if the plan's vertex count differs from the graph's, or if
    /// the graph exceeds the `u32` slot-position bound (4 billion
    /// directed edges) — misrouting from a silent wrap is never an
    /// acceptable failure mode.
    #[must_use]
    pub fn new(graph: &Graph, plan: &ShardPlan) -> Self {
        let n = graph.vertex_count();
        assert_eq!(
            *plan.boundaries().last().expect("non-empty boundaries"),
            n,
            "plan must cover the graph's vertex set"
        );
        assert!(
            graph.directed_edge_count() <= u32::MAX as usize && n <= u32::MAX as usize,
            "graph exceeds the u32 routing bound"
        );
        let mut seg_offsets = Vec::with_capacity(n + 1);
        seg_offsets.push(0);
        let mut segs = Vec::new();
        if plan.count() == 1 {
            // Single shard: every non-empty row is one whole-row segment —
            // no per-neighbor shard scan needed.
            for v in 0..n {
                let slots = graph.neighbor_slots(v);
                if !slots.is_empty() {
                    segs.push(Seg {
                        shard: 0,
                        lo: slots.start as u32,
                        hi: slots.end as u32,
                    });
                }
                seg_offsets.push(segs.len());
            }
            return RouteIndex {
                shards: 1,
                shard_of: vec![0u32; n],
                seg_offsets,
                segs,
            };
        }
        let mut shard_of = vec![0u32; n];
        for k in 0..plan.count() {
            for v in plan.range(k) {
                shard_of[v] = k as u32;
            }
        }
        for v in 0..n {
            let base = graph.neighbor_slots(v).start;
            let nb = graph.neighbors(v);
            let mut i = 0;
            while i < nb.len() {
                let shard = shard_of[nb[i]];
                let mut j = i + 1;
                while j < nb.len() && shard_of[nb[j]] == shard {
                    j += 1;
                }
                segs.push(Seg {
                    shard,
                    lo: (base + i) as u32,
                    hi: (base + j) as u32,
                });
                i = j;
            }
            seg_offsets.push(segs.len());
        }
        RouteIndex {
            shards: plan.count(),
            shard_of,
            seg_offsets,
            segs,
        }
    }

    /// Number of shards in the plan this index was built from.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards
    }

    /// The shard owning vertex `v` (flat table, O(1)).
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[must_use]
    pub fn shard_of(&self, v: VertexId) -> usize {
        self.shard_of[v] as usize
    }

    /// Vertex `v`'s adjacency segments, in adjacency (= ascending shard)
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn segments(&self, v: VertexId) -> impl Iterator<Item = RouteSegment> + '_ {
        self.segs[self.seg_offsets[v]..self.seg_offsets[v + 1]]
            .iter()
            .map(|s| RouteSegment {
                shard: s.shard as usize,
                slots: s.lo as usize..s.hi as usize,
            })
    }

    /// Raw segments of `v` (internal, allocation- and conversion-free).
    fn raw_segments(&self, v: VertexId) -> &[Seg] {
        &self.segs[self.seg_offsets[v]..self.seg_offsets[v + 1]]
    }
}

/// One routed message reference: which sender, which send-log position, and
/// the contiguous directed-edge slot range carrying the copies addressed
/// to the destination shard.
///
/// `Graph::slot_target` of each slot in `lo..hi` is a recipient, in
/// delivery order; a unicast or a single multicast target is a singleton
/// range (its resolved edge slot), a broadcast ref covers one precomputed
/// adjacency segment.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RouteRef {
    /// Global sender id.
    pub(crate) from: u32,
    /// Position in the sending shard's send log (for the payload lookup).
    pub(crate) msg: u32,
    /// First directed-edge slot of the routed copies.
    pub(crate) lo: u32,
    /// One past the last slot.
    pub(crate) hi: u32,
}

/// Sender-side routing index of one shard: its outgoing message
/// references, bucketed by destination shard.
///
/// Rebuilt every round by the owning shard's account pass (single
/// writer), then read — after the phase barrier — by each destination
/// shard's place pass (multi-reader, each touching only its own bucket).
/// Bucket storage is recycled in place with the same bounded-retention
/// policy as the send log: steady-state rounds allocate nothing, and a
/// bursty round cannot pin burst-sized buckets forever.
#[derive(Debug, Default)]
pub(crate) struct Router {
    /// `buckets[j]`: refs for destination shard `j`, in (sender id, send
    /// order, target order) — i.e. final delivery order.
    buckets: Vec<Vec<RouteRef>>,
    /// Per-bucket rolling high-water marks driving capacity decay.
    high_water: Vec<usize>,
    /// `tallies[j]`: running payload-section sizes of bucket `j`,
    /// maintained ref by ref as the account pass routes — this is what
    /// lets the frame encoder size a whole frame without re-walking the
    /// bucket (the tally compare is in-cache here; a rewalk at encode
    /// time costs a pass over the bucket plus a random send-log lookup
    /// per unique payload).
    tallies: Vec<BucketTally>,
}

/// Per-bucket payload-section tally: how many *unique* payloads the
/// bucket's refs name (refs of one message are pushed consecutively, so a
/// consecutive-pair compare is an exact dedup — the same invariant the
/// frame encoder and the placement slab lean on) and their total length.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub(crate) struct BucketTally {
    /// Unique payloads named by the bucket (= frame payload-table rows).
    pub(crate) payload_count: usize,
    /// Total bytes of those payloads (= frame payload-region length).
    pub(crate) region_len: usize,
    /// Last `(from, msg)` pushed, for the consecutive dedup.
    last: Option<(u32, u32)>,
}

impl BucketTally {
    /// Recomputes a finished bucket's tally from scratch — the reference
    /// the incremental bookkeeping is checked against (tests and debug
    /// assertions; the hot path never re-walks).
    pub(crate) fn of(bucket: &[RouteRef], mut len_of: impl FnMut(&RouteRef) -> usize) -> Self {
        let mut tally = BucketTally::default();
        for r in bucket {
            if tally.last != Some((r.from, r.msg)) {
                tally.payload_count += 1;
                tally.region_len += len_of(r);
                tally.last = Some((r.from, r.msg));
            }
        }
        tally
    }
}

impl Router {
    /// Clears all buckets (decaying over-retained capacity), resizing to
    /// `shards` buckets if the plan changed.
    pub(crate) fn reset(&mut self, shards: usize) {
        if self.buckets.len() != shards {
            self.buckets.resize_with(shards, Vec::new);
            self.high_water.resize(shards, 0);
        }
        self.tallies.clear();
        self.tallies.resize(shards, BucketTally::default());
        for (bucket, high_water) in self.buckets.iter_mut().zip(&mut self.high_water) {
            crate::message::clear_with_decay(bucket, high_water);
        }
    }

    /// Appends a ref to the bucket for `dest`; `len` is the payload's
    /// length, folded into the bucket's tally when the ref names a new
    /// `(from, msg)`.
    pub(crate) fn push(&mut self, dest: u32, route: RouteRef, len: usize) {
        let tally = &mut self.tallies[dest as usize];
        if tally.last != Some((route.from, route.msg)) {
            tally.payload_count += 1;
            tally.region_len += len;
            tally.last = Some((route.from, route.msg));
        }
        self.buckets[dest as usize].push(route);
    }

    /// The refs addressed to destination shard `dest`, in delivery order.
    pub(crate) fn bucket(&self, dest: usize) -> &[RouteRef] {
        &self.buckets[dest]
    }

    /// The payload-section tally of bucket `dest`.
    pub(crate) fn tally(&self, dest: usize) -> BucketTally {
        self.tallies[dest]
    }
}

/// One sender's running CONGEST charge in the account pass.
#[derive(Debug)]
struct SenderCharge {
    /// Global sender id.
    from: u32,
    /// Bytes of the sender's broadcasts so far, carried by each of its
    /// edges.
    broadcast: usize,
    /// The largest unicast and multicast byte count on one of its edges.
    fullest: usize,
}

/// Inbox ranges are `u32` slot positions: a shard receiving more copies
/// in one round (32 GiB of slots) panics rather than wrap into
/// misdelivery.
const INBOX_OVERFLOW: &str = "a shard's inbox exceeds u32::MAX copies in one round";

/// Writes one compact slot through owned vertex `local`'s scatter cursor
/// — the entire per-copy cost of delivery (no payload handle moves here;
/// the handle sits once in the slab).
fn deposit(
    cursors: &mut [u32],
    slots: &mut [InboxSlot],
    local: usize,
    from: u32,
    payload: PayloadId,
) {
    let cursor = &mut cursors[local];
    slots[*cursor as usize] = InboxSlot { from, payload };
    *cursor += 1;
}

/// Counts one copy for owned vertex `local` in a count pass, marking it
/// woken.
fn count_copy(counts: &mut [u32], woken: &mut [u64], local: usize) {
    counts[local] += 1;
    mark(woken, local);
}

/// Sets bit `local` of a one-bit-per-vertex map.
fn mark(map: &mut [u64], local: usize) {
    map[local / 64] |= 1 << (local % 64);
}

/// Whether bit `local` of a one-bit-per-vertex map is set.
fn is_marked(map: &[u64], local: usize) -> bool {
    map[local / 64] >> (local % 64) & 1 == 1
}

/// The vertices a one-bit-per-vertex map holds, in ascending order.
pub(crate) fn ones(map: &[u64]) -> Ones<'_> {
    Ones {
        map,
        next_word: 0,
        bits: 0,
    }
}

/// Iterator of [`ones`]: `O(words + vertices held)`.
pub(crate) struct Ones<'a> {
    map: &'a [u64],
    next_word: usize,
    /// Unread bits of word `next_word - 1`.
    bits: u64,
}

impl Iterator for Ones<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        while self.bits == 0 {
            self.bits = *self.map.get(self.next_word)?;
            self.next_word += 1;
        }
        let bit = self.bits.trailing_zeros() as usize;
        self.bits &= self.bits - 1;
        Some((self.next_word - 1) * 64 + bit)
    }
}

/// Per-shard delivery state: everything one shard touches during a round,
/// so all shards can run every delivery phase concurrently.
///
/// Buffers are sized once (per [`ShardPlan`]) and recycled in place across
/// rounds: the slot table is overwritten 8 bytes at a time by the scatter
/// pass (payload bytes sit once per message in the [`PayloadSlab`], reset
/// wholesale each round), and every table only grows when a round
/// delivers more messages than any round before it.
///
/// A round touches only the vertices that take part in it. Placement
/// marks the vertices it delivered to — the **wake list** — and the next
/// compute steps only those for a message-driven protocol; account walks
/// the send log, which holds only the vertices that sent. Per-vertex
/// inbox ranges are reset through the wake list, so placement costs
/// `O(copies + woken)` plus a scan of one bit per owned vertex.
#[derive(Debug)]
pub(crate) struct DeliveryShard {
    /// First owned vertex.
    start: VertexId,
    /// One past the last owned vertex.
    end: VertexId,
    /// First directed-edge slot of the owned (contiguous) slot range.
    slot_base: usize,
    /// Per-directed-edge unicast and multicast bytes this round, indexed
    /// by `slot - slot_base` (broadcast bytes are summed per sender).
    edge_bytes: Vec<usize>,
    /// Locally-indexed slots dirtied this round (sparse reset).
    touched: Vec<usize>,
    /// Local inbox ranges: vertex `start + i` receives
    /// `slots[inbox_lo[i]..inbox_hi[i]]`, the empty `0..0` for every
    /// vertex off the wake list.
    inbox_lo: Vec<u32>,
    /// Inbox range ends. During placement `inbox_hi[i]` holds first the
    /// vertex's copy count, then its scatter cursor.
    inbox_hi: Vec<u32>,
    /// The wake list, one bit per owned vertex: the vertices with a
    /// non-empty inbox (during a count pass, those a copy reached so
    /// far).
    pub(crate) woken: Vec<u64>,
    /// Number of vertices on the wake list.
    pub(crate) woken_count: usize,
    /// Set by [`crate::Simulator::restart`]: the wake list names the
    /// nodes whose `start` the next (start) round runs, not a delivery.
    pub(crate) starts_listed: bool,
    /// Messages delivered to this shard's vertices, packed per recipient
    /// as compact `{from, payload id}` slots resolved through
    /// [`DeliveryShard::slab`].
    slots: Vec<InboxSlot>,
    /// This round's unique delivered payloads (one copy per
    /// `(sender, message)` per round — see the module docs' slab
    /// ownership rule).
    slab: PayloadSlab,
    /// This shard's slice of the round's accounting (merged by the engine).
    pub(crate) stats: RoundStats,
    /// Work counters for the last round: nodes stepped by compute, then
    /// the place phase's (merged by the engine's [`DeliveryWork`]
    /// accessor).
    pub(crate) work: DeliveryWork,
    /// Flight-recorder ring of the last-K rounds' per-phase timings
    /// (disabled — zero-capacity — unless tracing is on; written only
    /// by whichever driver owns this shard's round loop).
    pub(crate) trace: crate::trace::TraceRing,
    /// First error this shard's account pass hit, if any.
    pub(crate) error: Option<SimError>,
    /// Framed backends: the sender side of the frame seam (the shard's
    /// frame-buffer recycle ring).
    pub(crate) encoder: FrameEncoder,
    /// Framed backends: per-sender-shard frame slots filled by
    /// [`Transport::collect`] each round (recycled in place).
    gather: Vec<Option<bytes::Bytes>>,
    /// Framed backends: this round's decoded frames, in sender-shard
    /// order (cleared after scatter; recycled in place).
    decoded: Vec<Frame>,
}

impl DeliveryShard {
    pub(crate) fn new(graph: &Graph, start: VertexId, end: VertexId) -> Self {
        let slot_base = slot_start(graph, start);
        let slots = slot_start(graph, end) - slot_base;
        DeliveryShard {
            start,
            end,
            slot_base,
            edge_bytes: vec![0; slots],
            touched: Vec::new(),
            inbox_lo: vec![0; end - start],
            inbox_hi: vec![0; end - start],
            woken: vec![0; (end - start).div_ceil(64)],
            woken_count: 0,
            starts_listed: false,
            slots: Vec::new(),
            slab: PayloadSlab::default(),
            stats: RoundStats::default(),
            work: DeliveryWork::default(),
            trace: crate::trace::TraceRing::new(0),
            error: None,
            encoder: FrameEncoder::default(),
            gather: Vec::new(),
            decoded: Vec::new(),
        }
    }

    /// First owned vertex.
    pub(crate) fn start(&self) -> VertexId {
        self.start
    }

    /// Number of owned vertices.
    pub(crate) fn len(&self) -> usize {
        self.end - self.start
    }

    /// Messages delivered to owned vertex `start + local` last round.
    pub(crate) fn incoming(&self, local: usize) -> Inbox<'_> {
        Inbox::new(
            &self.slots[self.inbox_lo[local] as usize..self.inbox_hi[local] as usize],
            &self.slab,
        )
    }

    /// Empties every inbox on the wake list, and the list.
    fn clear_wake_list(&mut self) {
        let (lo, hi) = (&mut self.inbox_lo[..], &mut self.inbox_hi[..]);
        for local in ones(&self.woken) {
            lo[local] = 0;
            hi[local] = 0;
        }
        self.woken.fill(0);
        self.woken_count = 0;
    }

    /// Turns the wake list into the next start round's list of nodes,
    /// empty until [`DeliveryShard::list_start`] adds to it. The pending
    /// inbox goes with the old list: no `start` reads it.
    pub(crate) fn begin_start_list(&mut self) {
        self.clear_wake_list();
        self.starts_listed = true;
    }

    /// Adds owned vertex `start + local` to the start list.
    pub(crate) fn list_start(&mut self, local: usize) {
        if !is_marked(&self.woken, local) {
            mark(&mut self.woken, local);
            self.woken_count += 1;
        }
    }

    /// Cold path (reshard, checkpoint restore): appends one pending copy
    /// to owned vertex `start + local`'s inbox, registering its payload.
    /// Calls must come in ascending `local` order onto an empty inbox.
    pub(crate) fn push_pending(&mut self, local: usize, from: u32, payload: &[u8]) {
        let at = u32::try_from(self.slots.len()).expect(INBOX_OVERFLOW);
        if self.inbox_hi[local] == 0 {
            mark(&mut self.woken, local);
            self.woken_count += 1;
            self.inbox_lo[local] = at;
        }
        let payload = self.slab.register(payload);
        self.slots.push(InboxSlot { from, payload });
        self.inbox_hi[local] = at + 1;
    }

    /// Ends a count pass: gives each vertex on the wake list, in
    /// ascending order, the next `count` slots, leaving its range end at
    /// the range's start as the scatter cursor; then sizes the slot table
    /// for the round's copies.
    fn seal_wake_list(&mut self) {
        let (lo, hi) = (&mut self.inbox_lo[..], &mut self.inbox_hi[..]);
        let (mut total, mut woken) = (0u32, 0);
        for local in ones(&self.woken) {
            let count = hi[local];
            lo[local] = total;
            hi[local] = total;
            total = total.checked_add(count).expect(INBOX_OVERFLOW);
            woken += 1;
        }
        self.woken_count = woken;
        let total = total as usize;
        self.slots.resize(total, InboxSlot::default());
        self.work.inbox_slot_bytes = total * std::mem::size_of::<InboxSlot>();
    }

    /// Leaves every inbox empty after a failed placement, whatever part
    /// of a count pass ran (a cold path, so it resets every vertex).
    fn abandon_count_pass(&mut self) {
        self.woken.fill(0);
        self.woken_count = 0;
        self.inbox_lo.fill(0);
        self.inbox_hi.fill(0);
        self.slots.clear();
    }

    /// **Checkpoint seam** (save side): serializes the pending inbox —
    /// the deliveries the next compute phase will consume — into `out`.
    /// Together with every node's [`crate::Snapshot`] state this makes a
    /// round boundary a complete, restorable cut: nothing else in the
    /// shard survives a round (counts/offsets/slots/slab are rebuilt by
    /// every placement, and account zeroes the per-edge counters it
    /// touched before it charges).
    pub(crate) fn save_delivery(&self, out: &mut Vec<u8>) {
        put_u64(out, self.len() as u64);
        for local in 0..self.len() {
            let inbox = self.incoming(local);
            put_u64(out, inbox.len() as u64);
            for m in inbox.iter() {
                put_u64(out, m.from() as u64);
                put_bytes(out, m.payload());
            }
        }
    }

    /// **Checkpoint seam** (restore side): rebuilds the pending inbox
    /// from a [`DeliveryShard::save_delivery`] section, re-registering
    /// each payload in this shard's slab (the reshard idiom — a cold
    /// path, so per-copy registration is fine).
    /// Returns `false` on any malformed input; the shard is then in an
    /// unspecified but safe state and the caller falls back to round 0.
    pub(crate) fn restore_delivery(&mut self, r: &mut WireReader<'_>) -> bool {
        let Some(vertices) = r.u64() else {
            return false;
        };
        if vertices as usize != self.len() {
            return false;
        }
        // The wake list is rebuilt with the inboxes.
        self.clear_wake_list();
        self.slots.clear();
        self.slab.reset();
        for local in 0..self.len() {
            let Some(count) = r.u64() else {
                return false;
            };
            for _ in 0..count {
                let (Some(from), Some(payload)) = (r.u64(), r.len_prefixed()) else {
                    return false;
                };
                let Ok(from) = u32::try_from(from) else {
                    return false;
                };
                self.push_pending(local, from, payload);
            }
        }
        true
    }

    /// **Account phase** (sender side): validates addressing, charges
    /// CONGEST byte counters, *and builds the routing index* for every
    /// message of this shard's send `log`, in log (= sender id, then
    /// send) order. `router` is the shard's own (exclusively owned)
    /// router, whose buckets the destination shards consume during
    /// placement.
    ///
    /// A sender's broadcasts are charged once, to its running broadcast
    /// sum; its unicast and multicast copies are charged to their edge
    /// slots. An edge's load is its slot counter plus its sender's
    /// broadcast sum, so every check, [`RoundStats`] field and
    /// [`SimError::CongestViolation`] equals what charging each copy to
    /// its edge in send order would give.
    ///
    /// Returns `false` (with [`DeliveryShard::error`] set) on the first
    /// violation, mirroring the abort point of a sequential sender-order
    /// scan.
    pub(crate) fn account(
        &mut self,
        graph: &Graph,
        routes: &RouteIndex,
        limit: CongestLimit,
        round: usize,
        log: &SendLog,
        router: &mut Router,
    ) -> bool {
        // Sparse reset of last round's counters; also reached on the next
        // round after an aborted one, so partial charges never leak.
        for &local in &self.touched {
            self.edge_bytes[local] = 0;
        }
        self.touched.clear();
        self.stats = RoundStats {
            round,
            ..RoundStats::default()
        };
        self.error = None;
        router.reset(routes.shard_count());
        let mut open: Option<SenderCharge> = None;
        for (m, msg) in log.messages().iter().enumerate() {
            if let Some(done) = open.take_if(|c| c.from != msg.from) {
                self.settle(done);
            }
            let charge = open.get_or_insert(SenderCharge {
                from: msg.from,
                broadcast: 0,
                fullest: 0,
            });
            let len = msg.payload_len();
            let sent = match log.recipient(msg) {
                Recipient::Neighbor(to) => {
                    self.route_edge(graph, routes, router, limit, round, charge, m, to, len)
                }
                Recipient::Neighbors(targets) => targets.iter().try_for_each(|&to| {
                    let to = to as VertexId;
                    self.route_edge(graph, routes, router, limit, round, charge, m, to, len)
                }),
                Recipient::AllNeighbors => self
                    .charge_broadcast(graph, limit, round, charge, len)
                    .map(|()| {
                        // One ref per precomputed destination-shard
                        // segment — O(min(degree, shards)), not
                        // O(degree), routing work per broadcast.
                        for seg in routes.raw_segments(charge.from as VertexId) {
                            router.push(
                                seg.shard,
                                RouteRef {
                                    from: charge.from,
                                    msg: m as u32,
                                    lo: seg.lo,
                                    hi: seg.hi,
                                },
                                len,
                            );
                        }
                    }),
            };
            if let Err(e) = sent {
                self.error = Some(e);
                return false;
            }
        }
        if let Some(done) = open {
            self.settle(done);
        }
        true
    }

    /// Folds a sender's finished charge into the round's busiest edge:
    /// its fullest slot counter plus its broadcast sum.
    fn settle(&mut self, charge: SenderCharge) {
        let busiest = charge.fullest + charge.broadcast;
        self.stats.max_edge_bytes = self.stats.max_edge_bytes.max(busiest);
    }

    /// Resolves the (sender-owned) slot of `from -> to`, charges it, and
    /// routes the copy to `to`'s shard.
    #[allow(clippy::too_many_arguments)]
    fn route_edge(
        &mut self,
        graph: &Graph,
        routes: &RouteIndex,
        router: &mut Router,
        limit: CongestLimit,
        round: usize,
        charge: &mut SenderCharge,
        msg: usize,
        to: VertexId,
        len: usize,
    ) -> Result<(), SimError> {
        let from = charge.from as VertexId;
        let slot = graph
            .edge_slot(from, to)
            .ok_or(SimError::NotNeighbor { from, to })?;
        let local = slot - self.slot_base;
        let counter = &mut self.edge_bytes[local];
        if *counter == 0 {
            self.touched.push(local);
        }
        *counter += len;
        let bytes = *counter + charge.broadcast;
        if let CongestLimit::PerEdgeBytes(limit) = limit {
            if bytes > limit {
                return Err(SimError::CongestViolation {
                    from,
                    to,
                    bytes,
                    limit,
                    round,
                });
            }
        }
        charge.fullest = charge.fullest.max(*counter);
        self.stats.messages += 1;
        self.stats.bytes += len;
        router.push(
            routes.shard_of[to],
            RouteRef {
                from: charge.from,
                msg: msg as u32,
                lo: slot as u32,
                hi: slot as u32 + 1,
            },
            len,
        );
        Ok(())
    }

    /// Charges a broadcast of `len` bytes once, to the sender's broadcast
    /// sum. The sender's fullest slot counter tells whether any edge
    /// passes the limit; only then are the edges walked, to report the
    /// first one past it in adjacency order.
    fn charge_broadcast(
        &mut self,
        graph: &Graph,
        limit: CongestLimit,
        round: usize,
        charge: &mut SenderCharge,
        len: usize,
    ) -> Result<(), SimError> {
        let from = charge.from as VertexId;
        let slots = graph.neighbor_slots(from);
        if slots.is_empty() {
            return Ok(());
        }
        charge.broadcast += len;
        if let CongestLimit::PerEdgeBytes(limit) = limit {
            if charge.fullest + charge.broadcast > limit {
                let load = |slot: usize| self.edge_bytes[slot - self.slot_base] + charge.broadcast;
                let slot = slots
                    .clone()
                    .find(|&slot| load(slot) > limit)
                    .expect("the fullest edge is past the limit");
                return Err(SimError::CongestViolation {
                    from,
                    to: graph.slot_target(slot),
                    bytes: load(slot),
                    limit,
                    round,
                });
            }
        }
        self.stats.messages += slots.len();
        self.stats.bytes += slots.len() * len;
        Ok(())
    }

    /// **Placement phase** (recipient side): bucket-sorts every message
    /// addressed *to* this shard's vertices into the shard's own inbox
    /// slice — by walking only the route-ref buckets addressed to this
    /// shard (`me`), never scanning another shard's send log.
    ///
    /// `logs` and `routers` are every shard's send log and router, read-
    /// locked one at a time (writers finished at the phase barrier, so
    /// the locks are uncontended — and lock acquisition is
    /// allocation-free, keeping steady-state rounds zero-alloc).
    ///
    /// Buckets are walked in sender-shard order (a count pass sealed into
    /// the wake list and inbox ranges, then scatter through cursors), so
    /// per-recipient delivery order is (sender id, send order, target
    /// order for multicasts, adjacency order for broadcasts) — identical
    /// to a global sequential merge. Last round's inboxes are emptied
    /// through last round's wake list.
    pub(crate) fn place(
        &mut self,
        graph: &Graph,
        me: usize,
        logs: &[RwLock<SendLog>],
        routers: &[RwLock<Router>],
    ) {
        let lo = self.start;
        self.clear_wake_list();
        let (counts, woken) = (&mut self.inbox_hi[..], &mut self.woken[..]);
        for router in routers {
            let router = router.read().expect("no poisoned router");
            self.work.refs_scanned += router.bucket(me).len();
            for route in router.bucket(me) {
                for &to in graph.slot_targets(route.lo as usize..route.hi as usize) {
                    count_copy(counts, woken, to - lo);
                }
            }
        }
        // The slot table is recycled in place (steady-state rounds reuse
        // both the buffer and its slots, see the type docs).
        self.seal_wake_list();

        // Scatter. Each unique (sender, message) payload is copied into
        // the slab once — refs for one message are consecutive within a
        // bucket, and sender ranges are disjoint across buckets, so a
        // consecutive-pair check is an exact dedup — and every copy is a
        // plain 8-byte slot write.
        self.slab.reset();
        let (cursors, slots) = (&mut self.inbox_hi[..], &mut self.slots[..]);
        let mut last: Option<(u32, u32)> = None;
        let mut payload_id: PayloadId = 0;
        for (router, log) in routers.iter().zip(logs) {
            let router = router.read().expect("no poisoned router");
            let log = log.read().expect("no poisoned send log");
            for route in router.bucket(me) {
                if last != Some((route.from, route.msg)) {
                    payload_id = self.slab.register(log.payload(route.msg));
                    last = Some((route.from, route.msg));
                }
                self.work.copies_delivered += (route.hi - route.lo) as usize;
                for &to in graph.slot_targets(route.lo as usize..route.hi as usize) {
                    deposit(cursors, slots, to - lo, route.from, payload_id);
                }
            }
        }
        self.work.payload_registrations = self.slab.len();
    }

    /// **Placement phase, framed backends**: like [`DeliveryShard::place`],
    /// but every bucket arrives as an encoded frame through `transport` —
    /// this shard reads *no other shard's memory* (no send logs, no
    /// routers), exactly the information boundary of a process-per-shard
    /// deployment. Frames are collected and decoded in sender-shard
    /// order, so per-recipient delivery order is identical to the
    /// shared-memory path and to the sequential reference merge.
    ///
    /// Every frame is validated before any copy is counted: structure and
    /// checksum by [`Frame::decode`], link addressing against `(k, me)`,
    /// each ref's claimed sender against the sending shard's vertex range
    /// and its own CSR row (`bounds` are the plan boundaries), and every
    /// delivered target against this shard's vertex bounds — a corrupted
    /// or misrouted frame, or one fabricating a sender it does not own,
    /// sets a typed [`SimError::Frame`] on this shard instead of
    /// panicking or misdelivering.
    pub(crate) fn place_frames(
        &mut self,
        graph: &Graph,
        me: usize,
        round: usize,
        transport: &dyn Transport,
        bounds: &[VertexId],
    ) {
        // The decoded-frame scratch is moved out so the count and scatter
        // loops can borrow it alongside `self`'s tables; its capacity is
        // kept across rounds either way.
        let mut decoded = std::mem::take(&mut self.decoded);
        let result = self.place_frames_inner(graph, me, round, transport, bounds, &mut decoded);
        // The slab copied every payload it needs, so the frames go now,
        // back to their senders' recycle rings.
        decoded.clear();
        self.decoded = decoded;
        if let Err(e) = result {
            // A failed placement delivers nothing, even if its count pass
            // got part-way.
            self.abandon_count_pass();
            self.error = Some(e);
        }
    }

    /// Error path of a framed round: collects (and drops) the round's
    /// incoming frames without placing them, keeping the transport empty
    /// for the next round. Every shard ships before any knows whether the
    /// round aborted, so an aborting round must still balance the
    /// transport's one-frame-per-link contract. Inboxes keep the previous
    /// round's content.
    pub(crate) fn drain_frames(
        &mut self,
        me: usize,
        transport: &dyn Transport,
        shard_count: usize,
    ) {
        self.gather.resize(shard_count, None);
        // A transport failure while draining an already-aborting round is
        // moot — the round's real error is being reported; the drain only
        // best-effort balances the link.
        let _ = transport.collect(me, &mut self.gather);
        for slot in self.gather.iter_mut() {
            *slot = None;
        }
    }

    fn place_frames_inner(
        &mut self,
        graph: &Graph,
        me: usize,
        round: usize,
        transport: &dyn Transport,
        bounds: &[VertexId],
        decoded: &mut Vec<Frame>,
    ) -> Result<(), SimError> {
        let fail = |error: FrameError| SimError::Frame {
            shard: me,
            round,
            error,
        };
        let shard_count = bounds.len() - 1;
        let lo_v = self.start;
        self.gather.resize(shard_count, None);
        transport
            .collect(me, &mut self.gather)
            .map_err(|mut transport_error| {
                // The engine's round number is authoritative; transports
                // report their own internal counter.
                transport_error.round = round;
                SimError::Transport(transport_error)
            })?;
        for k in 0..shard_count {
            let bytes = self.gather[k]
                .take()
                .ok_or_else(|| fail(FrameError::MissingFrame { sender: k }))?;
            self.work.frame_bytes += bytes.len();
            let (frame, ns) = Frame::decode_timed(bytes).map_err(&fail)?;
            self.work.checksum_ns += ns;
            if frame.sender_shard() != k {
                return Err(fail(FrameError::Misrouted {
                    expected: k,
                    found: frame.sender_shard(),
                }));
            }
            if frame.dest_shard() != me {
                return Err(fail(FrameError::Misrouted {
                    expected: me,
                    found: frame.dest_shard(),
                }));
            }
            decoded.push(frame);
        }
        // Count pass. The checksum already rules out transport corruption
        // of the ref table; the checks here also rule out a well-formed
        // frame that routes into foreign inboxes or fabricates a sender:
        // the claimed sender must belong to the shard the frame came
        // from, the slot range must lie within that sender's own CSR row,
        // and every delivered target must be a vertex this shard owns.
        self.clear_wake_list();
        let (counts, woken) = (&mut self.inbox_hi[..], &mut self.woken[..]);
        let max_slot = graph.directed_edge_count();
        for (k, frame) in decoded.iter().enumerate() {
            self.work.refs_scanned += frame.ref_count();
            let (sender_lo, sender_hi) = (bounds[k], bounds[k + 1]);
            for r in frame.refs() {
                let from = r.from as usize;
                let (slot_lo, slot_hi) = (r.lo as usize, r.hi as usize);
                let foreign = FrameError::ForeignSlots {
                    from,
                    lo: slot_lo,
                    hi: slot_hi,
                };
                if slot_hi > max_slot || from < sender_lo || from >= sender_hi {
                    return Err(fail(foreign));
                }
                if slot_lo < slot_hi {
                    let row = graph.neighbor_slots(from);
                    if slot_lo < row.start || slot_hi > row.end {
                        return Err(fail(foreign));
                    }
                }
                for &to in graph.slot_targets(slot_lo..slot_hi) {
                    // One bounds check per copy: the count table is
                    // exactly this shard's vertex range, so bounding the
                    // wrapping-shifted id by it *is* the ownership test
                    // (`to < lo_v` wraps to a huge index and misses too).
                    let local = to.wrapping_sub(lo_v);
                    if local >= counts.len() {
                        return Err(fail(foreign));
                    }
                    count_copy(counts, woken, local);
                }
            }
        }
        // The slot table is recycled in place exactly as in the
        // shared-memory path.
        self.seal_wake_list();

        // Scatter pass. Each unique frame payload is copied into the slab
        // once (refs sharing a payload arrive consecutively from our own
        // encoder; a foreign encoder that interleaves them merely
        // registers duplicates), and every copy is a plain 8-byte slot
        // write.
        self.slab.reset();
        let (cursors, slots) = (&mut self.inbox_hi[..], &mut self.slots[..]);
        for frame in decoded.iter() {
            let mut last: Option<u32> = None;
            let mut payload_id: PayloadId = 0;
            for r in frame.refs() {
                if last != Some(r.payload) {
                    payload_id = self.slab.register(frame.payload(r.payload));
                    last = Some(r.payload);
                }
                self.work.copies_delivered += (r.hi - r.lo) as usize;
                for &to in graph.slot_targets(r.lo as usize..r.hi as usize) {
                    deposit(cursors, slots, to - lo_v, r.from, payload_id);
                }
            }
        }
        self.work.payload_registrations = self.slab.len();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netdecomp_graph::generators;

    #[test]
    fn a_one_bit_per_vertex_map_reads_back_in_ascending_order() {
        let mut map = vec![0u64; 3];
        for local in [130, 0, 64, 63, 1] {
            mark(&mut map, local);
        }
        assert_eq!(ones(&map).collect::<Vec<_>>(), [0, 1, 63, 64, 130]);
        assert_eq!(ones(&[0, 0]).next(), None);
    }

    fn weights(g: &Graph, plan: &ShardPlan) -> Vec<usize> {
        (0..plan.count())
            .map(|k| {
                let r = plan.range(k);
                r.clone().map(|v| g.degree(v) + 1).sum()
            })
            .collect()
    }

    /// The core segmentation invariants: every vertex's segments
    /// concatenate to exactly its CSR slot range, carry strictly
    /// increasing destination shards, and place every target in the shard
    /// they claim; and the flat `shard_of` table agrees with the plan.
    fn assert_route_index_is_consistent(g: &Graph, plan: &ShardPlan) {
        let idx = RouteIndex::new(g, plan);
        assert_eq!(idx.shard_count(), plan.count());
        for v in 0..g.vertex_count() {
            assert_eq!(idx.shard_of(v), plan.shard_of(v), "shard_of({v})");
            let slots = g.neighbor_slots(v);
            let mut next = slots.start;
            let mut prev_shard = None;
            for seg in idx.segments(v) {
                assert_eq!(seg.slots.start, next, "gap in vertex {v}'s segments");
                assert!(seg.slots.end > seg.slots.start, "empty segment");
                assert!(
                    prev_shard.is_none_or(|p| p < seg.shard),
                    "vertex {v}: shards not strictly increasing"
                );
                for slot in seg.slots.clone() {
                    let to = g.slot_target(slot);
                    assert!(
                        plan.range(seg.shard).contains(&to),
                        "vertex {v}: target {to} outside shard {}",
                        seg.shard
                    );
                }
                next = seg.slots.end;
                prev_shard = Some(seg.shard);
            }
            assert_eq!(
                next, slots.end,
                "vertex {v}'s segments do not cover its row"
            );
        }
    }

    #[test]
    fn plan_covers_all_vertices_contiguously() {
        let g = generators::grid2d(9, 7);
        for s in [1, 2, 3, 7, 63, 100] {
            let plan = ShardPlan::degree_balanced(&g, s);
            let b = plan.boundaries();
            assert_eq!(b[0], 0);
            assert_eq!(*b.last().unwrap(), g.vertex_count());
            assert!(b.windows(2).all(|w| w[0] <= w[1]), "monotone: {b:?}");
            assert_eq!(plan.count(), s.min(g.vertex_count()));
            for v in 0..g.vertex_count() {
                let k = plan.shard_of(v);
                assert!(plan.range(k).contains(&v), "vertex {v} shard {k}");
            }
        }
    }

    #[test]
    fn plan_balances_degree_weight() {
        let g = generators::grid2d(20, 20);
        let plan = ShardPlan::degree_balanced(&g, 4);
        let w = weights(&g, &plan);
        let total: usize = w.iter().sum();
        let ideal = total / 4;
        for (k, &wk) in w.iter().enumerate() {
            // Degree-balanced boundaries land within one max-weight vertex
            // of the ideal share; be generous and just require 2x.
            assert!(wk <= 2 * ideal + 8, "shard {k} weight {wk} vs {ideal}");
        }
    }

    #[test]
    fn plan_handles_skewed_degrees_and_tiny_graphs() {
        // A star's center carries half of all slots; shards may be empty
        // but boundaries stay valid.
        let g = generators::star(50);
        let plan = ShardPlan::degree_balanced(&g, 8);
        assert_eq!(*plan.boundaries().last().unwrap(), 50);
        // Requested shards clamp to the vertex count.
        let tiny = generators::path(3);
        assert_eq!(ShardPlan::degree_balanced(&tiny, 64).count(), 3);
        let empty = Graph::empty(0);
        let plan = ShardPlan::degree_balanced(&empty, 4);
        assert_eq!(plan.count(), 1);
        assert_eq!(plan.range(0), 0..0);
    }

    #[test]
    fn single_is_one_full_range() {
        let plan = ShardPlan::single(12);
        assert_eq!(plan.count(), 1);
        assert_eq!(plan.range(0), 0..12);
        assert_eq!(plan.shard_of(11), 0);
    }

    #[test]
    fn delivery_shard_owns_contiguous_slot_range() {
        let g = generators::grid2d(4, 4);
        let plan = ShardPlan::degree_balanced(&g, 3);
        let mut covered = 0;
        for k in 0..plan.count() {
            let r = plan.range(k);
            let shard = DeliveryShard::new(&g, r.start, r.end);
            assert_eq!(shard.slot_base, covered);
            covered += shard.edge_bytes.len();
        }
        assert_eq!(covered, g.directed_edge_count());
    }

    #[test]
    fn route_segments_cover_adjacency_on_regular_graphs() {
        let g = generators::grid2d(9, 7);
        for s in [1, 2, 3, 7, 63] {
            assert_route_index_is_consistent(&g, &ShardPlan::degree_balanced(&g, s));
        }
    }

    #[test]
    fn route_index_handles_empty_graph() {
        let g = Graph::empty(0);
        let plan = ShardPlan::degree_balanced(&g, 4);
        let idx = RouteIndex::new(&g, &plan);
        assert_eq!(idx.shard_count(), 1);
        assert_route_index_is_consistent(&g, &plan);
    }

    #[test]
    fn route_index_handles_more_shards_than_vertices() {
        let g = generators::path(3);
        let plan = ShardPlan::degree_balanced(&g, 64);
        assert_eq!(plan.count(), 3);
        assert_route_index_is_consistent(&g, &plan);
        // Each path vertex's neighbors land in their own single-vertex
        // shards: the middle vertex splits into two singleton segments.
        let idx = RouteIndex::new(&g, &plan);
        assert_eq!(idx.segments(1).count(), 2);
    }

    #[test]
    fn route_index_handles_high_degree_hub() {
        // A star's center adjacency spans every other shard; its segments
        // must tile the full row, one per destination shard with leaves.
        let g = generators::star(50);
        for s in [2, 7, 8] {
            let plan = ShardPlan::degree_balanced(&g, s);
            assert_route_index_is_consistent(&g, &plan);
            let idx = RouteIndex::new(&g, &plan);
            let hub_segments: Vec<_> = idx.segments(0).collect();
            let covered: usize = hub_segments.iter().map(|s| s.slots.len()).sum();
            assert_eq!(covered, g.degree(0), "hub row fully covered");
            // Leaves see a one-segment row pointing at the hub's shard.
            assert_eq!(idx.segments(1).count(), 1);
        }
    }

    #[test]
    fn router_bucket_capacity_decays_after_a_burst() {
        let route = RouteRef {
            from: 0,
            msg: 0,
            lo: 0,
            hi: 1,
        };
        let mut router = Router::default();
        router.reset(2);
        for _ in 0..1024 {
            router.push(1, route, 0);
        }
        router.reset(2);
        // The burst is still remembered right after it happened...
        assert!(router.buckets[1].capacity() >= 512);
        // ...but dozens of small rounds later the retained capacity has
        // decayed to the steady volume's scale (same policy as the send log).
        for _ in 0..64 {
            router.push(1, route, 0);
            router.reset(2);
        }
        assert!(
            router.buckets[1].capacity() <= 32,
            "bucket capacity {} still pinned after decay",
            router.buckets[1].capacity()
        );
        assert!(router.bucket(1).is_empty());
    }

    /// Corrupted, missing, and misrouted frames must set a typed
    /// [`SimError::Frame`] on the receiving shard — never panic, never
    /// deliver into the wrong inbox.
    #[test]
    fn bad_frames_surface_typed_errors_instead_of_panicking() {
        use crate::frame::{encode_entries, LoopbackTransport, Transport};
        use bytes::Bytes;

        let g = generators::path(4); // adjacency 0:[1] 1:[0,2] 2:[1,3] 3:[2]
        let frame_err = |shard: &DeliveryShard| match &shard.error {
            Some(SimError::Frame { error, .. }) => *error,
            other => panic!("expected a frame error, got {other:?}"),
        };
        let frame = |dest: usize, from: usize, slots: std::ops::Range<usize>| {
            encode_entries(0, dest, &[(from, slots, Some(b"x".as_slice()))])
        };

        // A bit flip in the ref table fails the header checksum.
        let mut shard = DeliveryShard::new(&g, 0, 4);
        let t = LoopbackTransport::new(1);
        let mut bad = frame(0, 0, g.neighbor_slots(0)).as_slice().to_vec();
        bad[32] ^= 0xff;
        t.send(0, 0, Bytes::from(bad));
        shard.place_frames(&g, 0, 0, &t, &[0, 4]);
        assert!(matches!(
            frame_err(&shard),
            crate::FrameError::ChecksumMismatch { .. }
        ));

        // A frame that never arrives is a MissingFrame for its sender.
        let t = LoopbackTransport::new(1);
        shard.place_frames(&g, 0, 3, &t, &[0, 4]);
        assert_eq!(
            shard.error,
            Some(SimError::Frame {
                shard: 0,
                round: 3,
                error: crate::FrameError::MissingFrame { sender: 0 },
            })
        );

        // A checksummed frame whose header claims another destination.
        let t = LoopbackTransport::new(1);
        t.send(0, 0, encode_entries(0, 5, &[]));
        shard.place_frames(&g, 0, 0, &t, &[0, 4]);
        assert!(matches!(
            frame_err(&shard),
            crate::FrameError::Misrouted {
                expected: 0,
                found: 5
            }
        ));

        // A well-formed frame routing into vertices this shard does not
        // own (vertex 3's slot targets vertex 2, outside 0..2).
        let mut shard = DeliveryShard::new(&g, 0, 2);
        let t = LoopbackTransport::new(1);
        t.send(0, 0, frame(0, 3, g.neighbor_slots(3)));
        shard.place_frames(&g, 0, 0, &t, &[0, 4]);
        assert!(matches!(
            frame_err(&shard),
            crate::FrameError::ForeignSlots { from: 3, .. }
        ));

        // A slot range past the graph's directed-edge count.
        let t = LoopbackTransport::new(1);
        t.send(0, 0, frame(0, 0, 900..901));
        shard.place_frames(&g, 0, 0, &t, &[0, 4]);
        assert!(matches!(
            frame_err(&shard),
            crate::FrameError::ForeignSlots { lo: 900, .. }
        ));

        // A fabricated sender: the claimed vertex is not owned by the
        // shard the frame came from (sender shard 0 covers only 0..2).
        let mut shard = DeliveryShard::new(&g, 0, 2);
        let t = LoopbackTransport::new(1);
        t.send(0, 0, frame(0, 3, g.neighbor_slots(3)));
        shard.place_frames(&g, 0, 0, &t, &[0, 2]);
        assert!(matches!(
            frame_err(&shard),
            crate::FrameError::ForeignSlots { from: 3, .. }
        ));

        // A sender claiming another vertex's slots: vertex 0 shipping
        // vertex 2's CSR row (whose targets 1 and 3 are otherwise valid)
        // must be rejected by the row-ownership check, not delivered with
        // a spoofed `from`.
        let mut shard = DeliveryShard::new(&g, 0, 4);
        let t = LoopbackTransport::new(1);
        t.send(0, 0, frame(0, 0, g.neighbor_slots(2)));
        shard.place_frames(&g, 0, 0, &t, &[0, 4]);
        assert!(matches!(
            frame_err(&shard),
            crate::FrameError::ForeignSlots { from: 0, .. }
        ));
    }

    /// The reference the once-per-sender charge is held to: every copy
    /// charged to its own edge slot, in send order.
    fn per_slot_charge(
        graph: &Graph,
        limit: CongestLimit,
        round: usize,
        log: &SendLog,
    ) -> Result<RoundStats, SimError> {
        let mut edge_bytes = vec![0usize; graph.directed_edge_count()];
        let mut stats = RoundStats {
            round,
            ..RoundStats::default()
        };
        let mut charge = |slot: usize, from: VertexId, to: VertexId, len: usize| {
            let bytes = &mut edge_bytes[slot];
            *bytes += len;
            if let CongestLimit::PerEdgeBytes(limit) = limit {
                if *bytes > limit {
                    return Err(SimError::CongestViolation {
                        from,
                        to,
                        bytes: *bytes,
                        limit,
                        round,
                    });
                }
            }
            stats.messages += 1;
            stats.bytes += len;
            stats.max_edge_bytes = stats.max_edge_bytes.max(*bytes);
            Ok(())
        };
        for (from, to, payload) in log.resolved() {
            let (from, len) = (from as VertexId, payload.len());
            let mut edge = |to: VertexId| {
                let slot = graph
                    .edge_slot(from, to)
                    .ok_or(SimError::NotNeighbor { from, to })?;
                charge(slot, from, to, len)
            };
            match to {
                Recipient::Neighbor(to) => edge(to)?,
                Recipient::Neighbors(targets) => {
                    for &to in targets {
                        edge(to as VertexId)?;
                    }
                }
                Recipient::AllNeighbors => {
                    for to in graph.neighbors(from) {
                        edge(*to)?;
                    }
                }
            }
        }
        Ok(stats)
    }

    /// One queued send of a test round: kind (0 unicast, 1 multicast, 2
    /// broadcast), targets, payload length.
    type TestSend = (u8, Vec<usize>, usize);

    /// A random round of sends: each vertex queues a few unicasts,
    /// multicasts (repeated targets included) and broadcasts of 0–19
    /// bytes, in random order.
    fn random_round(graph: &Graph, rng: &mut proptest::TestRng) -> Vec<Vec<TestSend>> {
        (0..graph.vertex_count())
            .map(|v| {
                let nb = graph.neighbors(v);
                (0..rng.below(5))
                    .map(|_| {
                        let (kind, len) = (rng.below(3), rng.below(20) as usize);
                        if nb.is_empty() || kind == 2 {
                            return (2, Vec::new(), len);
                        }
                        let mut targets: Vec<usize> = (0..3)
                            .map(|_| nb[rng.below(nb.len() as u64) as usize])
                            .collect();
                        // A multicast may name its first target twice.
                        targets[2] = targets[0];
                        targets.truncate(if kind == 0 {
                            1
                        } else {
                            1 + rng.below(3) as usize
                        });
                        (kind as u8, targets, len)
                    })
                    .collect()
            })
            .collect()
    }

    /// Logs the sends of the vertices in `range`, in vertex order.
    fn log_sends(range: std::ops::Range<usize>, sends: &[Vec<TestSend>]) -> SendLog {
        let mut log = SendLog::default();
        for v in range {
            let mut out = crate::Outbox::new(&mut log, v);
            for (kind, targets, len) in &sends[v] {
                let payload = vec![7u8; *len];
                match kind {
                    0 => out.unicast(targets[0], &payload),
                    1 => out.multicast(targets, &payload),
                    _ => out.broadcast(&payload),
                }
            }
        }
        log
    }

    /// Runs `sends` through the account pass of every shard of `plan`,
    /// merged as the engine merges them: the summed stats, or the lowest
    /// shard's error.
    fn sharded_charge(
        graph: &Graph,
        plan: &ShardPlan,
        limit: CongestLimit,
        sends: &[Vec<TestSend>],
    ) -> Result<RoundStats, SimError> {
        let routes = RouteIndex::new(graph, plan);
        let mut merged = RoundStats {
            round: 3,
            ..RoundStats::default()
        };
        for k in 0..plan.count() {
            let range = plan.range(k);
            let log = log_sends(range.clone(), sends);
            let mut shard = DeliveryShard::new(graph, range.start, range.end);
            let mut router = Router::default();
            if !shard.account(graph, &routes, limit, 3, &log, &mut router) {
                return Err(shard.error.expect("a failed account sets the error"));
            }
            merged.messages += shard.stats.messages;
            merged.bytes += shard.stats.bytes;
            merged.max_edge_bytes = merged.max_edge_bytes.max(shard.stats.max_edge_bytes);
        }
        Ok(merged)
    }

    mod broadcast_charge {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(400))]

            /// Charging a sender's broadcasts once gives the same round
            /// stats, and the same first CONGEST violation (sender,
            /// recipient, bytes, limit, round), as charging every copy to
            /// its edge — on any mix of unicast, multicast and broadcast
            /// sends, under any limit and shard count.
            #[test]
            fn once_per_sender_charging_equals_the_per_slot_loop(seed in 0u64..u64::MAX) {
                let mut rng = proptest::TestRng::new(seed);
                let n = 2 + rng.below(14) as usize;
                let p = 0.15 + rng.below(60) as f64 / 100.0;
                let graph = generators::gnp(n, p, &mut crate::stream_rng(seed, &[0]))
                    .expect("a valid edge probability");
                let sends = random_round(&graph, &mut rng);
                let limit = match rng.below(3) {
                    0 => CongestLimit::Unlimited,
                    _ => CongestLimit::PerEdgeBytes(1 + rng.below(63) as usize),
                };
                let log = log_sends(0..n, &sends);
                let reference = per_slot_charge(&graph, limit, 3, &log);
                for shards in [1, 2, 5] {
                    let plan = ShardPlan::degree_balanced(&graph, shards);
                    prop_assert_eq!(
                        sharded_charge(&graph, &plan, limit, &sends),
                        reference,
                        "seed {} shards {} limit {:?}",
                        seed,
                        shards,
                        limit
                    );
                }
            }
        }
    }

    #[test]
    fn route_index_handles_isolated_vertices() {
        // Vertices 3 and 4 are isolated: no segments, but still owned by
        // exactly one shard.
        let g = Graph::from_edges(5, &[(0, 1), (1, 2)]).unwrap();
        let plan = ShardPlan::degree_balanced(&g, 3);
        assert_route_index_is_consistent(&g, &plan);
        let idx = RouteIndex::new(&g, &plan);
        for v in 3..5 {
            assert_eq!(idx.segments(v).count(), 0, "isolated vertex {v}");
            assert_eq!(idx.shard_of(v), plan.shard_of(v));
        }
        // Degree balance stays sane: no shard carries more than the whole
        // weight, and all weight is accounted for.
        let w = weights(&g, &plan);
        assert_eq!(w.iter().sum::<usize>(), 2 * g.edge_count() + 5);
    }
}
