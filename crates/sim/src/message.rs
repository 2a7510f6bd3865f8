//! Message types exchanged through the simulator.
//!
//! Payloads are plain bytes end to end. A send appends its payload to its
//! shard's [`SendLog`] arena; placement copies each unique payload once
//! per receiving shard into that shard's [`PayloadSlab`] arena; a
//! protocol reads it back as a borrowed `&[u8]`. No payload is a handle,
//! so nothing a round sends has to outlive the round's placement.

use netdecomp_graph::VertexId;

/// Retained capacity of a per-round recycled buffer is capped at this
/// multiple of its rolling high-water mark (see [`clear_with_decay`]).
pub(crate) const RETAIN_FACTOR: usize = 4;

/// Minimum high-water mark used for the retention cap, so tiny buffers
/// never thrash.
pub(crate) const RETAIN_FLOOR: usize = 8;

/// Shared retained-capacity policy for per-round recycled buffers (send
/// logs, slabs, router buckets): decay the rolling high-water mark by a
/// quarter — but never below the round being discarded, so bursts are
/// remembered, then forgotten geometrically — clear the buffer, and
/// shrink capacity that sits above [`RETAIN_FACTOR`] times the mark.
/// Constant-volume rounds never shrink (doubling growth stays under the
/// factor), preserving the steady-state zero-allocation invariant.
pub(crate) fn clear_with_decay<T>(buf: &mut Vec<T>, high_water: &mut usize) {
    *high_water = (*high_water - *high_water / 4).max(buf.len());
    buf.clear();
    let cap = RETAIN_FACTOR * (*high_water).max(RETAIN_FLOOR);
    if buf.capacity() > cap {
        buf.shrink_to(cap);
    }
}

/// A `u32` position in a per-round buffer. A shard that sends or receives
/// 4 GiB in one round panics rather than wrap into misdelivery.
fn position(at: usize) -> u32 {
    u32::try_from(at).expect("a shard's round buffer exceeds u32::MAX entries")
}

/// Where a logged message goes, with a multicast's targets stored once in
/// the log's flat target list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Dest {
    /// One neighbor.
    One(u32),
    /// The targets `targets[lo..hi]`, in list order.
    Many { lo: u32, hi: u32 },
    /// Every incident edge.
    All,
}

/// Addressing of a logged message, its multicast targets resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Recipient<'a> {
    /// One neighbor.
    Neighbor(VertexId),
    /// A copy to each listed neighbor, in list order; a repeated target
    /// receives (and is charged for) one copy per occurrence.
    Neighbors(&'a [u32]),
    /// A copy along every incident edge.
    AllNeighbors,
}

/// One message of a [`SendLog`]: its sender, addressing and payload span.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Sent {
    /// Global sender vertex id.
    pub(crate) from: u32,
    to: Dest,
    /// First payload byte in the log's arena.
    at: u32,
    /// Payload length in bytes.
    len: u32,
}

impl Sent {
    /// Payload length in bytes — what CONGEST accounting charges.
    pub(crate) fn payload_len(&self) -> usize {
        self.len as usize
    }
}

/// One shard's outgoing messages for one round, in send order.
///
/// Compute steps a shard's nodes in ascending id order, and each node's
/// [`Outbox`] appends to the log, so the log is ordered by (sender id,
/// send order) — the order account charges and routes in, and the order
/// every recipient hears its messages in. Payload bytes sit back to back
/// in one arena and multicast target lists in one flat list, so a send
/// is two appends and never allocates once the log is warm. The log is
/// cleared at the start of the next compute phase, after placement has
/// copied what it needed; retained capacity decays with the
/// [`clear_with_decay`] policy.
#[derive(Debug, Default)]
pub(crate) struct SendLog {
    msgs: Vec<Sent>,
    arena: Vec<u8>,
    targets: Vec<u32>,
    /// Rolling high-water marks of `msgs`, `arena` and `targets`.
    high_water: [usize; 3],
}

impl SendLog {
    /// Empties the log for a new round, decaying over-retained capacity.
    pub(crate) fn clear(&mut self) {
        let [msgs, arena, targets] = &mut self.high_water;
        clear_with_decay(&mut self.msgs, msgs);
        clear_with_decay(&mut self.arena, arena);
        clear_with_decay(&mut self.targets, targets);
    }

    /// Number of logged messages.
    pub(crate) fn len(&self) -> usize {
        self.msgs.len()
    }

    /// The logged messages, in send order.
    pub(crate) fn messages(&self) -> &[Sent] {
        &self.msgs
    }

    /// The payload of message `msg`.
    pub(crate) fn payload(&self, msg: u32) -> &[u8] {
        let sent = &self.msgs[msg as usize];
        &self.arena[sent.at as usize..(sent.at + sent.len) as usize]
    }

    /// The addressing of `sent`, a message of this log.
    pub(crate) fn recipient(&self, sent: &Sent) -> Recipient<'_> {
        match sent.to {
            Dest::One(to) => Recipient::Neighbor(to as VertexId),
            Dest::Many { lo, hi } => Recipient::Neighbors(&self.targets[lo as usize..hi as usize]),
            Dest::All => Recipient::AllNeighbors,
        }
    }

    /// Every message as `(sender, addressing, payload)`, in send order
    /// (for comparing two logs and for the reference merge).
    pub(crate) fn resolved(&self) -> impl Iterator<Item = (u32, Recipient<'_>, &[u8])> + '_ {
        self.msgs
            .iter()
            .enumerate()
            .map(|(m, sent)| (sent.from, self.recipient(sent), self.payload(m as u32)))
    }

    /// Appends one message from `from`, its payload written by `encode`.
    fn push(&mut self, from: u32, to: Dest, encode: impl FnOnce(&mut Vec<u8>)) {
        let at = position(self.arena.len());
        encode(&mut self.arena);
        // The end fits too, so `at + len` cannot wrap where it is read.
        let end = position(self.arena.len());
        self.msgs.push(Sent {
            from,
            to,
            at,
            len: end - at,
        });
    }
}

/// A vertex id as a logged target. Every vertex id fits in a `u32` (the
/// route index refuses larger graphs), so an id that does not fit is no
/// vertex, and `u32::MAX` keeps it one: account reports it as
/// [`crate::SimError::NotNeighbor`].
fn target(v: VertexId) -> u32 {
    u32::try_from(v).unwrap_or(u32::MAX)
}

/// A node's send buffer for one round.
///
/// The engine hands each stepped node an `Outbox` that appends to its
/// shard's send log: the payload bytes go to the shard's arena, so a send
/// allocates nothing in steady state and holds no handle past the round.
/// A node's sends are delivered next round in send order, after those of
/// every lower-id sender.
#[derive(Debug)]
pub struct Outbox<'a> {
    log: &'a mut SendLog,
    from: u32,
    /// The log's length when this node started sending.
    first: usize,
}

impl<'a> Outbox<'a> {
    /// The outbox of vertex `from`, appending to `log`.
    pub(crate) fn new(log: &'a mut SendLog, from: VertexId) -> Self {
        Outbox {
            first: log.len(),
            from: u32::try_from(from).expect("vertex ids fit in u32 (the route index checks)"),
            log,
        }
    }

    /// The same outbox, borrowed for a shorter lifetime.
    pub(crate) fn reborrow(&mut self) -> Outbox<'_> {
        Outbox {
            log: &mut *self.log,
            from: self.from,
            first: self.first,
        }
    }

    /// Queues a copy of `payload` to a single neighbor.
    pub fn unicast(&mut self, to: VertexId, payload: &[u8]) {
        self.unicast_with(to, |arena| arena.extend_from_slice(payload));
    }

    /// Queues one copy of `payload` to each listed neighbor, in list
    /// order (multicast). A repeated target receives — and is
    /// CONGEST-charged for — one copy per occurrence, exactly as the same
    /// number of unicasts would be.
    pub fn multicast(&mut self, to: &[VertexId], payload: &[u8]) {
        self.multicast_with(to, |arena| arena.extend_from_slice(payload));
    }

    /// Queues a copy of `payload` along every incident edge. The bytes
    /// are stored once, however many neighbors receive them.
    pub fn broadcast(&mut self, payload: &[u8]) {
        self.broadcast_with(|arena| arena.extend_from_slice(payload));
    }

    /// Messages this node queued so far this round.
    #[must_use]
    pub fn len(&self) -> usize {
        self.log.len() - self.first
    }

    /// `true` when this node queued nothing this round.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// [`Outbox::unicast`] with the payload appended by `encode`.
    pub(crate) fn unicast_with(&mut self, to: VertexId, encode: impl FnOnce(&mut Vec<u8>)) {
        self.log.push(self.from, Dest::One(target(to)), encode);
    }

    /// [`Outbox::multicast`] with the payload appended by `encode`.
    pub(crate) fn multicast_with(&mut self, to: &[VertexId], encode: impl FnOnce(&mut Vec<u8>)) {
        let lo = position(self.log.targets.len());
        self.log.targets.extend(to.iter().map(|&v| target(v)));
        let hi = position(self.log.targets.len());
        self.log.push(self.from, Dest::Many { lo, hi }, encode);
    }

    /// [`Outbox::broadcast`] with the payload appended by `encode`.
    pub(crate) fn broadcast_with(&mut self, encode: impl FnOnce(&mut Vec<u8>)) {
        self.log.push(self.from, Dest::All, encode);
    }
}

/// A message as delivered to a node at the start of a round, owned.
///
/// The engine's inboxes store compact `InboxSlot`s resolved through a
/// per-shard [`PayloadSlab`] instead (see [`Inbox`]), so `Incoming`
/// appears only where an owned copy is genuinely wanted — the sequential
/// reference merge `Determinism::Verify` cross-checks against, and
/// callers of [`IncomingRef::to_incoming`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Incoming {
    /// The neighbor that sent it (previous round).
    pub from: VertexId,
    /// Encoded payload.
    pub payload: Vec<u8>,
}

/// Index of a payload registered in a shard's [`PayloadSlab`] this round.
pub type PayloadId = u32;

/// One delivered copy, in the engine's compact inbox representation:
/// eight bytes. The payload lives once per unique `(sender, message)` in
/// the owning shard's [`PayloadSlab`]; scattering a copy is a plain
/// 8-byte write.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct InboxSlot {
    /// Global sender vertex id.
    pub(crate) from: u32,
    /// The payload's slab index.
    pub(crate) payload: PayloadId,
}

/// A shard's per-round payload arena: each unique `(sender, message)`
/// payload delivered to the shard is copied in exactly once, and every
/// `InboxSlot` copy refers to it by [`PayloadId`].
///
/// **Slab ownership rule:** the slab owns the bytes it serves. Placement
/// copies each payload from the sender's send arena under shared-memory
/// delivery, or from the decoded frame under framed delivery, so neither
/// has to outlive placement; the next compute phase reads the copies as
/// borrowed slices, and the following placement resets the arena.
///
/// Both tables are recycled in place: a reset keeps their capacity
/// (bounded by the same decaying high-water policy as the send log), so
/// steady-state rounds register without allocating.
#[derive(Debug, Default)]
pub struct PayloadSlab {
    bytes: Vec<u8>,
    /// `(offset, length)` of each registered payload in `bytes`.
    spans: Vec<(u32, u32)>,
    /// Rolling high-water marks of `bytes` and `spans`.
    high_water: [usize; 2],
}

impl PayloadSlab {
    /// Drops last round's payloads, keeping (bounded) capacity.
    pub(crate) fn reset(&mut self) {
        let [bytes, spans] = &mut self.high_water;
        clear_with_decay(&mut self.bytes, bytes);
        clear_with_decay(&mut self.spans, spans);
    }

    /// Copies one payload in and returns its id (the slot scatter
    /// writes).
    pub(crate) fn register(&mut self, payload: &[u8]) -> PayloadId {
        let id = position(self.spans.len());
        let at = position(self.bytes.len());
        self.bytes.extend_from_slice(payload);
        // The end fits too, so `at + len` cannot wrap where it is read.
        let end = position(self.bytes.len());
        self.spans.push((at, end - at));
        id
    }

    /// Payloads registered so far this round.
    pub(crate) fn len(&self) -> usize {
        self.spans.len()
    }

    /// The payload registered under `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not returned by this round's registrations.
    #[must_use]
    pub fn resolve(&self, id: PayloadId) -> &[u8] {
        let (at, len) = self.spans[id as usize];
        &self.bytes[at as usize..(at + len) as usize]
    }
}

/// The messages delivered to one node this round: a view over the owning
/// shard's compact slot range, resolved through its [`PayloadSlab`].
///
/// Iteration yields [`IncomingRef`]s in delivery order (sender id, then
/// send order, then target order). A broadcast's recipients in one shard
/// all resolve to the *same* slab entry; reading is zero-copy. Call
/// [`IncomingRef::to_incoming`] for an owned [`Incoming`] when one is
/// needed.
#[derive(Debug, Clone, Copy)]
pub struct Inbox<'a> {
    slots: &'a [InboxSlot],
    slab: &'a PayloadSlab,
}

impl<'a> Inbox<'a> {
    /// Builds the view (engine-internal; protocols only consume it).
    pub(crate) fn new(slots: &'a [InboxSlot], slab: &'a PayloadSlab) -> Self {
        Inbox { slots, slab }
    }

    /// Number of messages delivered this round.
    #[must_use]
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// `true` when nothing was delivered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The `i`-th delivered message, in delivery order.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[must_use]
    pub fn get(&self, i: usize) -> IncomingRef<'a> {
        let slot = self.slots[i];
        IncomingRef {
            from: slot.from,
            payload: self.slab.resolve(slot.payload),
        }
    }

    /// Iterates the delivered messages in delivery order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = IncomingRef<'a>> + '_ {
        let slab = self.slab;
        self.slots.iter().map(move |slot| IncomingRef {
            from: slot.from,
            payload: slab.resolve(slot.payload),
        })
    }

    /// Materializes the view as owned [`Incoming`] messages (one payload
    /// copy per message — intended for tests and cold paths, not the hot
    /// read path).
    #[must_use]
    pub fn to_vec(&self) -> Vec<Incoming> {
        self.iter().map(|m| m.to_incoming()).collect()
    }
}

/// Inbox views compare equal to the owned reference representation when
/// every message matches in order, sender, and payload bytes (used by
/// `Determinism::Verify` to cross-check sharded delivery against the
/// sequential merge).
impl PartialEq<[Incoming]> for Inbox<'_> {
    fn eq(&self, other: &[Incoming]) -> bool {
        self.len() == other.len()
            && self
                .iter()
                .zip(other)
                .all(|(a, b)| a.from() == b.from && a.payload() == b.payload.as_slice())
    }
}

/// One delivered message, borrowed from the shard's slot table and
/// payload slab — the [`Incoming`]-compatible accessor the compact
/// representation is read through.
#[derive(Debug, Clone, Copy)]
pub struct IncomingRef<'a> {
    from: u32,
    payload: &'a [u8],
}

impl<'a> IncomingRef<'a> {
    /// The neighbor that sent the message (previous round).
    #[must_use]
    pub fn from(&self) -> VertexId {
        self.from as VertexId
    }

    /// The encoded payload, borrowed from the shard's slab.
    #[must_use]
    pub fn payload(&self) -> &'a [u8] {
        self.payload
    }

    /// An owned [`Incoming`] (copies the payload bytes).
    #[must_use]
    pub fn to_incoming(&self) -> Incoming {
        Incoming {
            from: self.from(),
            payload: self.payload.to_vec(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_send_log_keeps_send_order_and_each_payload_once() {
        let mut log = SendLog::default();
        let mut out = Outbox::new(&mut log, 3);
        assert!(out.is_empty());
        out.unicast(2, b"a");
        out.broadcast(b"bc");
        out.multicast(&[4, 1, 4], b"");
        assert_eq!(out.len(), 3);
        let mut out = Outbox::new(&mut log, 5);
        assert!(out.is_empty(), "a node counts only its own sends");
        out.unicast(usize::MAX, b"d");
        let resolved: Vec<_> = log.resolved().collect();
        assert_eq!(
            resolved,
            [
                (3, Recipient::Neighbor(2), b"a".as_slice()),
                (3, Recipient::AllNeighbors, b"bc".as_slice()),
                (3, Recipient::Neighbors(&[4, 1, 4]), b"".as_slice()),
                (5, Recipient::Neighbor(u32::MAX as usize), b"d".as_slice()),
            ]
        );
        assert_eq!(log.arena, b"abcd", "payload bytes sit back to back");
        log.clear();
        assert_eq!(log.len(), 0);
        assert!(log.arena.is_empty() && log.targets.is_empty());
    }

    #[test]
    fn bursty_capacity_decays_toward_the_rolling_high_water_mark() {
        let mut log = SendLog::default();
        let mut out = Outbox::new(&mut log, 0);
        for _ in 0..1024 {
            out.broadcast(b"");
        }
        log.clear();
        // The burst is still remembered right after it happened.
        assert!(log.msgs.capacity() >= 512, "burst capacity kept hot");
        // Dozens of small rounds later, the mark — and with it the
        // retained capacity — has decayed to the steady volume's scale.
        for _ in 0..64 {
            Outbox::new(&mut log, 0).broadcast(b"");
            log.clear();
        }
        assert!(
            log.msgs.capacity() <= RETAIN_FACTOR * RETAIN_FLOOR,
            "capacity {} still pinned after decay",
            log.msgs.capacity()
        );
        // Steady volume never shrinks (no realloc churn): the mark equals
        // the round size, and doubling growth stays under the cap.
        let cap = log.msgs.capacity();
        for _ in 0..32 {
            Outbox::new(&mut log, 0).broadcast(b"");
            log.clear();
            assert_eq!(log.msgs.capacity(), cap);
        }
    }

    #[test]
    fn inbox_view_resolves_slots_through_the_slab() {
        let mut slab = PayloadSlab::default();
        let shared = slab.register(b"broadcast");
        let solo = slab.register(b"unicast");
        let slots = [
            InboxSlot {
                from: 3,
                payload: shared,
            },
            InboxSlot {
                from: 3,
                payload: solo,
            },
            InboxSlot {
                from: 9,
                payload: shared,
            },
        ];
        let inbox = Inbox::new(&slots, &slab);
        assert_eq!(inbox.len(), 3);
        assert!(!inbox.is_empty());
        let collected: Vec<_> = inbox.iter().map(|m| (m.from(), m.payload())).collect();
        assert_eq!(collected[0], (3, b"broadcast".as_slice()));
        assert_eq!(collected[1], (3, b"unicast".as_slice()));
        assert_eq!(collected[2], (9, b"broadcast".as_slice()));
        assert_eq!(inbox.get(2).from(), 9);
        // The owned materialization and the reference comparison agree.
        let owned = inbox.to_vec();
        assert_eq!(owned[1].payload, b"unicast");
        assert!(inbox == *owned.as_slice());
        let mut reordered = owned.clone();
        reordered.swap(0, 2);
        assert!(inbox != *reordered.as_slice(), "order must matter");
    }

    #[test]
    fn slab_recycles_in_place_and_decays_after_a_burst() {
        let mut slab = PayloadSlab::default();
        for _ in 0..1024 {
            slab.register(b"");
        }
        slab.reset();
        assert_eq!(slab.len(), 0);
        // The burst is remembered right after it happened, then decays to
        // the steady volume's scale (same policy as the send log).
        assert!(slab.spans.capacity() >= 512);
        for _ in 0..64 {
            slab.register(b"");
            slab.reset();
        }
        assert!(
            slab.spans.capacity() <= RETAIN_FACTOR * RETAIN_FLOOR,
            "slab capacity {} still pinned after decay",
            slab.spans.capacity()
        );
        // Steady volume registers without reallocating once warm.
        slab.register(b"p");
        slab.reset();
        let caps = (slab.spans.capacity(), slab.bytes.capacity());
        for round in 0..32 {
            let id = slab.register(b"p");
            assert_eq!(id, 0, "ids restart each round (round {round})");
            assert_eq!(slab.resolve(id), b"p");
            slab.reset();
            assert_eq!((slab.spans.capacity(), slab.bytes.capacity()), caps);
        }
    }
}
