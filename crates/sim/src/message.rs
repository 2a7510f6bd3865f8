//! Message types exchanged through the simulator.

use bytes::{Bytes, BytesMut};
use netdecomp_graph::VertexId;

/// Addressing of an outgoing message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Recipient {
    /// Send to one specific neighbor.
    Neighbor(VertexId),
    /// Send a copy to each listed neighbor, in list order (multicast).
    ///
    /// Every target must be a neighbor of the sender; a repeated target
    /// receives — and is CONGEST-charged for — one copy per occurrence,
    /// exactly as the same number of unicasts would be.
    Neighbors(Vec<VertexId>),
    /// Send a copy along every incident edge.
    AllNeighbors,
}

/// A message handed to the engine for delivery next round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outgoing {
    /// Who receives the message.
    pub to: Recipient,
    /// Encoded payload; its length is what CONGEST accounting measures.
    pub payload: Bytes,
}

impl Outgoing {
    /// Message to a single neighbor.
    #[must_use]
    pub fn unicast(to: VertexId, payload: Bytes) -> Self {
        Outgoing {
            to: Recipient::Neighbor(to),
            payload,
        }
    }

    /// Message copied to each listed neighbor (multicast). The payload is
    /// shared by reference count; only the target list is owned.
    #[must_use]
    pub fn multicast(to: Vec<VertexId>, payload: Bytes) -> Self {
        Outgoing {
            to: Recipient::Neighbors(to),
            payload,
        }
    }

    /// Message copied along all incident edges.
    #[must_use]
    pub fn broadcast(payload: Bytes) -> Self {
        Outgoing {
            to: Recipient::AllNeighbors,
            payload,
        }
    }
}

/// A message as delivered to a node at the start of a round.
///
/// This is the *owned* form: the engine's inboxes store compact
/// [`InboxSlot`]s resolved through a per-shard [`PayloadSlab`] instead
/// (see [`Inbox`]), so `Incoming` appears only where an owned copy is
/// genuinely wanted — the sequential reference merge `Determinism::Verify`
/// cross-checks against, and callers of [`IncomingRef::to_incoming`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Incoming {
    /// The neighbor that sent it (previous round).
    pub from: VertexId,
    /// Encoded payload.
    pub payload: Bytes,
}

/// Index of a payload registered in a shard's [`PayloadSlab`] this round.
pub type PayloadId = u32;

/// One delivered copy, in the engine's compact inbox representation:
/// eight bytes, no payload handle. The payload lives once per unique
/// `(sender, message)` in the owning shard's [`PayloadSlab`]; scattering a
/// slot is a plain write with zero reference-count traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct InboxSlot {
    /// Global sender vertex id.
    pub(crate) from: u32,
    /// The payload's slab index.
    pub(crate) payload: PayloadId,
}

/// A shard's per-round payload table: each unique `(sender, message)`
/// payload delivered to the shard is registered here exactly once, and
/// every [`InboxSlot`] copy refers to it by [`PayloadId`].
///
/// **Slab ownership rule:** the slab holds *read-only views* of sender
/// payloads — a reference-counted handle to the sender's outbox encoding
/// under the in-memory backends, a zero-copy slice of the decoded frame
/// under the framed ones. Senders never mutate a payload after shipping
/// it (outboxes are cleared, not edited, and frame buffers are reclaimed
/// only once unreferenced), so a view stays valid for the round its
/// recipients read it.
///
/// The table is recycled in place: [`PayloadSlab::reset`] drops last
/// round's handles and keeps the capacity (bounded by the same decaying
/// high-water policy as [`Outbox`]), so steady-state rounds register
/// without allocating.
#[derive(Debug, Default)]
pub struct PayloadSlab {
    payloads: Vec<Bytes>,
    /// Rolling high-water mark of per-round registration counts.
    high_water: usize,
}

impl PayloadSlab {
    /// Drops last round's payload handles, keeping (bounded) capacity.
    pub(crate) fn reset(&mut self) {
        clear_with_decay(&mut self.payloads, &mut self.high_water);
    }

    /// Registers one payload and returns its id (the slot scatter writes).
    pub(crate) fn register(&mut self, payload: Bytes) -> PayloadId {
        let id = self.payloads.len() as PayloadId;
        self.payloads.push(payload);
        id
    }

    /// Payloads registered so far this round.
    pub(crate) fn len(&self) -> usize {
        self.payloads.len()
    }

    /// The payload registered under `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not returned by this round's registrations.
    #[must_use]
    pub fn resolve(&self, id: PayloadId) -> &Bytes {
        &self.payloads[id as usize]
    }
}

/// The messages delivered to one node this round: a view over the owning
/// shard's compact slot range, resolved through its [`PayloadSlab`].
///
/// Iteration yields [`IncomingRef`]s in delivery order (sender id, then
/// send order, then target order). A broadcast's recipients all resolve
/// to the *same* slab entry — reading is zero-copy and touches no
/// reference counts; call [`IncomingRef::to_incoming`] for an owned
/// [`Incoming`] when one is needed.
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
    /// handle clone per copy — intended for tests and cold paths, not the
    /// hot read path).
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
                .all(|(a, b)| a.from() == b.from && *a.payload() == b.payload)
    }
}

/// One delivered message, borrowed from the shard's slot table and
/// payload slab — the [`Incoming`]-compatible accessor the compact
/// representation is read through.
#[derive(Debug, Clone, Copy)]
pub struct IncomingRef<'a> {
    from: u32,
    payload: &'a Bytes,
}

impl<'a> IncomingRef<'a> {
    /// The neighbor that sent the message (previous round).
    #[must_use]
    pub fn from(&self) -> VertexId {
        self.from as VertexId
    }

    /// The encoded payload (a borrowed view; clone it for an owned
    /// reference-counted handle).
    #[must_use]
    pub fn payload(&self) -> &'a Bytes {
        self.payload
    }

    /// An owned [`Incoming`] (clones the payload handle — one refcount
    /// bump, no byte copy).
    #[must_use]
    pub fn to_incoming(&self) -> Incoming {
        Incoming {
            from: self.from(),
            payload: self.payload.clone(),
        }
    }
}

/// A node's per-round send buffer.
///
/// The engine hands every node a preallocated `Outbox` (one per vertex,
/// reused across rounds), so the compute phase allocates nothing in steady
/// state and can run over all nodes in parallel — each node writes only
/// its own slot. The engine clears an outbox in the next compute phase,
/// and only if it held messages: a node that sent nothing is never
/// touched.
///
/// Retained capacity is bounded: the buffer tracks a rolling high-water
/// mark of recent round sizes (decaying by a quarter per round toward the
/// current size), and a [`Outbox::clear`] that finds the capacity above
/// [`Outbox::RETAIN_FACTOR`] times that mark shrinks it back down. A
/// single bursty round therefore cannot pin a burst-sized buffer forever,
/// while constant-volume workloads never reallocate (capacity from
/// doubling growth stays under the factor), preserving the steady-state
/// zero-allocation invariant.
///
/// Typed sends ([`crate::TypedOutbox`]) encode into payload buffers the
/// engine recycles per shard; clearing the outbox hands those payloads
/// back to the shard's pool.
#[derive(Debug, Clone, Default)]
pub struct Outbox {
    msgs: Vec<Outgoing>,
    /// Rolling high-water mark of per-round message counts (`u32` keeps
    /// the per-vertex outbox at 32 bytes).
    high_water: u32,
    /// Whether a queued payload was encoded into a pool buffer, so that
    /// clearing hands the payloads back to the pool.
    pub(crate) pooled: bool,
}

/// Equality is over queued messages only; the capacity bookkeeping is
/// not observable behavior (`Determinism::Verify` compares live outboxes
/// against freshly allocated reference ones).
impl PartialEq for Outbox {
    fn eq(&self, other: &Self) -> bool {
        self.msgs == other.msgs
    }
}

impl Eq for Outbox {}

impl Outbox {
    /// An empty outbox (the engine preallocates these; protocols normally
    /// never construct one).
    #[must_use]
    pub fn new() -> Self {
        Outbox::default()
    }

    /// Queues a message to a single neighbor.
    pub fn unicast(&mut self, to: VertexId, payload: Bytes) {
        self.msgs.push(Outgoing::unicast(to, payload));
    }

    /// Queues one copy of `payload` to each listed neighbor (multicast).
    ///
    /// The payload is encoded once and shared by all copies; unlike the
    /// rest of the send surface this allocates for the target list, which
    /// the engine drops when the outbox is cleared next round.
    pub fn multicast(&mut self, to: Vec<VertexId>, payload: Bytes) {
        self.msgs.push(Outgoing::multicast(to, payload));
    }

    /// Queues a copy of `payload` along every incident edge.
    ///
    /// The payload is encoded once; delivery hands each recipient a
    /// reference-counted view of the same bytes (zero-copy broadcast).
    pub fn broadcast(&mut self, payload: Bytes) {
        self.msgs.push(Outgoing::broadcast(payload));
    }

    /// Queues an already-addressed message.
    pub fn send(&mut self, msg: Outgoing) {
        self.msgs.push(msg);
    }

    /// Messages queued so far this round.
    #[must_use]
    pub fn len(&self) -> usize {
        self.msgs.len()
    }

    /// `true` when nothing is queued.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.msgs.is_empty()
    }

    /// The queued messages, in send order.
    #[must_use]
    pub fn messages(&self) -> &[Outgoing] {
        &self.msgs
    }

    /// Retained capacity is capped at this multiple of the rolling
    /// high-water mark (with a floor of [`Outbox::RETAIN_FLOOR`] entries,
    /// so tiny outboxes never thrash).
    pub const RETAIN_FACTOR: usize = 4;

    /// Minimum high-water mark used for the retention cap.
    pub const RETAIN_FLOOR: usize = 8;

    /// Drops all queued messages and decays over-retained capacity.
    pub(crate) fn clear(&mut self) {
        let mut high_water = self.high_water as usize;
        clear_with_decay(&mut self.msgs, &mut high_water);
        self.high_water = u32::try_from(high_water).unwrap_or(u32::MAX);
    }

    /// Clears the outbox in the next compute phase, handing typed
    /// payloads back to the shard's `pool`.
    pub(crate) fn retire(&mut self, pool: &mut PayloadPool) {
        if self.pooled {
            self.pooled = false;
            for msg in &mut self.msgs {
                pool.give_back(std::mem::take(&mut msg.payload));
            }
        }
        self.clear();
    }

    /// Currently retained buffer capacity, in messages (for tests and
    /// capacity diagnostics).
    #[must_use]
    pub fn retained_capacity(&self) -> usize {
        self.msgs.capacity()
    }
}

/// Shared retained-capacity policy for per-round recycled buffers
/// (outboxes, router buckets): decay the rolling high-water mark by a
/// quarter — but never below the round being discarded, so bursts are
/// remembered, then forgotten geometrically — clear the buffer, and
/// shrink capacity that sits above [`Outbox::RETAIN_FACTOR`] times the
/// mark. Constant-volume rounds never shrink (doubling growth stays
/// under the factor), preserving the steady-state zero-allocation
/// invariant.
pub(crate) fn clear_with_decay<T>(buf: &mut Vec<T>, high_water: &mut usize) {
    *high_water = (*high_water - *high_water / 4).max(buf.len());
    buf.clear();
    let cap = Outbox::RETAIN_FACTOR * (*high_water).max(Outbox::RETAIN_FLOOR);
    if buf.capacity() > cap {
        buf.shrink_to(cap);
    }
}

/// Payload buffers retained at most this large (bytes of capacity); a
/// larger buffer is dropped instead of recycled. CONGEST messages are
/// `O(log n)` bits, far below it.
const RECYCLE_MAX_BYTES: usize = 256;

/// One shard's recycled payload buffers for typed sends.
///
/// A payload is handed back when its sender's outbox is cleared, in the
/// next compute phase. Under framed delivery the frames carry copies, so
/// the payload is already unique and its buffer goes straight back to
/// the free list. Under shared-memory delivery a recipient's
/// [`PayloadSlab`] still views it until the next placement, so it waits
/// one round in `retired` — the two-deep ring the frame encoder also
/// keeps — and is reclaimed at the following compute phase. A payload
/// some protocol still holds a handle to is dropped rather than
/// reclaimed.
///
/// Retention is bounded by the round's payload count: the free list
/// never keeps more buffers than the rolling high-water mark of payloads
/// handed back per round (decaying by a quarter per round, as
/// [`Outbox`]'s mark does), so a steady relay allocates nothing and a
/// burst is forgotten geometrically.
#[derive(Default)]
pub(crate) struct PayloadPool {
    /// Unique, empty buffers ready for the next typed send.
    free: Vec<BytesMut>,
    /// Payloads handed back while a slab still viewed them.
    retired: Vec<Bytes>,
    /// Payloads handed back this round.
    returned: usize,
    /// Rolling high-water mark of `returned`.
    high_water: usize,
}

impl PayloadPool {
    /// Start of a compute phase: reclaims the payloads retired last
    /// round, which no slab views any more (placement has reset them
    /// since).
    pub(crate) fn begin_round(&mut self) {
        for payload in self.retired.drain(..) {
            if let Ok(buf) = payload.try_into_mut() {
                keep(&mut self.free, buf);
            }
        }
        self.returned = 0;
    }

    /// Takes back one payload from a cleared outbox.
    fn give_back(&mut self, payload: Bytes) {
        self.returned += 1;
        match payload.try_into_mut() {
            Ok(buf) => keep(&mut self.free, buf),
            Err(viewed) => self.retired.push(viewed),
        }
    }

    /// An empty buffer for one typed send: a recycled one, or a fresh
    /// one once the free list runs dry.
    pub(crate) fn take(&mut self) -> BytesMut {
        self.free.pop().unwrap_or_default()
    }

    /// End of a compute phase: trims the free list to the rolling
    /// high-water mark of hand-backs and decays over-retained capacity.
    pub(crate) fn end_round(&mut self) {
        self.high_water = (self.high_water - self.high_water / 4).max(self.returned);
        self.free.truncate(self.high_water);
        let cap = Outbox::RETAIN_FACTOR * self.high_water.max(Outbox::RETAIN_FLOOR);
        if self.free.capacity() > cap {
            self.free.shrink_to(cap);
        }
        if self.retired.capacity() > cap {
            self.retired.shrink_to(cap);
        }
    }
}

/// Files a reclaimed buffer on the free list, emptied, unless it grew
/// past [`RECYCLE_MAX_BYTES`].
fn keep(free: &mut Vec<BytesMut>, mut buf: BytesMut) {
    if buf.capacity() <= RECYCLE_MAX_BYTES {
        buf.clear();
        free.push(buf);
    }
}

/// Counts only: the buffers themselves carry no information.
impl std::fmt::Debug for PayloadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PayloadPool")
            .field("free", &self.free.len())
            .field("retired", &self.retired.len())
            .field("high_water", &self.high_water)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_fields() {
        let u = Outgoing::unicast(3, Bytes::from_static(b"ab"));
        assert_eq!(u.to, Recipient::Neighbor(3));
        assert_eq!(u.payload.len(), 2);
        let b = Outgoing::broadcast(Bytes::new());
        assert_eq!(b.to, Recipient::AllNeighbors);
        assert!(b.payload.is_empty());
    }

    #[test]
    fn outbox_queues_in_send_order() {
        let mut out = Outbox::new();
        assert!(out.is_empty());
        out.unicast(2, Bytes::from_static(b"a"));
        out.broadcast(Bytes::from_static(b"b"));
        out.multicast(vec![4, 1], Bytes::from_static(b"c"));
        out.send(Outgoing::unicast(1, Bytes::new()));
        assert_eq!(out.len(), 4);
        assert_eq!(out.messages()[0].to, Recipient::Neighbor(2));
        assert_eq!(out.messages()[1].to, Recipient::AllNeighbors);
        assert_eq!(out.messages()[2].to, Recipient::Neighbors(vec![4, 1]));
        out.clear();
        assert!(out.is_empty());
    }

    #[test]
    fn multicast_constructor_sets_fields() {
        let m = Outgoing::multicast(vec![3, 5], Bytes::from_static(b"zz"));
        assert_eq!(m.to, Recipient::Neighbors(vec![3, 5]));
        assert_eq!(m.payload.len(), 2);
    }

    #[test]
    fn bursty_capacity_decays_toward_the_rolling_high_water_mark() {
        let mut out = Outbox::new();
        for _ in 0..1024 {
            out.broadcast(Bytes::new());
        }
        out.clear();
        // The burst is still remembered right after it happened.
        assert!(out.retained_capacity() >= 512, "burst capacity kept hot");
        // Dozens of small rounds later, the mark — and with it the
        // retained capacity — has decayed to the steady volume's scale.
        for _ in 0..64 {
            out.broadcast(Bytes::new());
            out.clear();
        }
        assert!(
            out.retained_capacity() <= Outbox::RETAIN_FACTOR * Outbox::RETAIN_FLOOR,
            "capacity {} still pinned after decay",
            out.retained_capacity()
        );
        // Steady volume never shrinks (no realloc churn): the mark equals
        // the round size, and doubling growth stays under the cap.
        let cap = out.retained_capacity();
        for _ in 0..32 {
            out.broadcast(Bytes::new());
            out.clear();
            assert_eq!(out.retained_capacity(), cap);
        }
    }

    #[test]
    fn inbox_view_resolves_slots_through_the_slab() {
        let mut slab = PayloadSlab::default();
        let shared = slab.register(Bytes::from_static(b"broadcast"));
        let solo = slab.register(Bytes::from_static(b"unicast"));
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
        let collected: Vec<_> = inbox
            .iter()
            .map(|m| (m.from(), m.payload().clone()))
            .collect();
        assert_eq!(collected[0], (3, Bytes::from_static(b"broadcast")));
        assert_eq!(collected[1], (3, Bytes::from_static(b"unicast")));
        assert_eq!(collected[2], (9, Bytes::from_static(b"broadcast")));
        assert_eq!(inbox.get(2).from(), 9);
        // The owned materialization and the reference comparison agree.
        let owned = inbox.to_vec();
        assert_eq!(owned[1].payload.as_slice(), b"unicast");
        assert!(inbox == *owned.as_slice());
        let mut reordered = owned.clone();
        reordered.swap(0, 2);
        assert!(inbox != *reordered.as_slice(), "order must matter");
    }

    #[test]
    fn slab_recycles_in_place_and_decays_after_a_burst() {
        let mut slab = PayloadSlab::default();
        for _ in 0..1024 {
            slab.register(Bytes::new());
        }
        slab.reset();
        assert_eq!(slab.len(), 0);
        // The burst is remembered right after it happened, then decays to
        // the steady volume's scale (same policy as Outbox).
        assert!(slab.payloads.capacity() >= 512);
        for _ in 0..64 {
            slab.register(Bytes::new());
            slab.reset();
        }
        assert!(
            slab.payloads.capacity() <= Outbox::RETAIN_FACTOR * Outbox::RETAIN_FLOOR,
            "slab capacity {} still pinned after decay",
            slab.payloads.capacity()
        );
        // Steady volume registers without reallocating.
        let cap = slab.payloads.capacity();
        for round in 0..32 {
            let id = slab.register(Bytes::from_static(b"p"));
            assert_eq!(id, 0, "ids restart each round (round {round})");
            assert_eq!(slab.resolve(id).as_slice(), b"p");
            slab.reset();
            assert_eq!(slab.payloads.capacity(), cap);
        }
    }

    #[test]
    fn equality_ignores_capacity_bookkeeping() {
        let mut bursty = Outbox::new();
        for _ in 0..100 {
            bursty.unicast(0, Bytes::new());
        }
        bursty.clear();
        // Same (empty) message queue, different high-water history.
        assert_eq!(bursty, Outbox::new());
        bursty.unicast(1, Bytes::from_static(b"a"));
        let mut fresh = Outbox::new();
        fresh.unicast(1, Bytes::from_static(b"a"));
        assert_eq!(bursty, fresh);
    }

    /// One compute phase's hand-backs: `sent` unique payloads, one per
    /// outbox, cleared into the pool; returns the free list's length.
    fn recycle_round(pool: &mut PayloadPool, sent: usize, viewed: bool) -> usize {
        let mut outboxes: Vec<Outbox> = (0..sent)
            .map(|_| {
                let mut out = Outbox::new();
                let mut buf = pool.take();
                bytes::BufMut::put_slice(&mut buf, b"fourteen bytes");
                out.broadcast(buf.freeze());
                out.pooled = true;
                out
            })
            .collect();
        // A recipient's slab view, as under shared-memory delivery.
        let views: Vec<Bytes> = if viewed {
            outboxes
                .iter()
                .map(|o| o.messages()[0].payload.clone())
                .collect()
        } else {
            Vec::new()
        };
        pool.begin_round();
        for out in &mut outboxes {
            out.retire(pool);
            assert!(out.is_empty());
        }
        pool.end_round();
        drop(views);
        pool.free.len()
    }

    #[test]
    fn payload_pool_reuses_unique_buffers_and_forgets_a_burst() {
        // Unique payloads go straight back to the free list.
        let mut pool = PayloadPool::default();
        assert_eq!(recycle_round(&mut pool, 16, false), 16);
        // Viewed ones wait a round in `retired`, then come back — up to
        // the mark, which a round with no hand-backs decays by a quarter.
        let mut pool = PayloadPool::default();
        assert_eq!(recycle_round(&mut pool, 16, true), 0);
        assert_eq!(pool.retired.len(), 16);
        assert_eq!(recycle_round(&mut pool, 0, false), 16 - 16 / 4);
        // A burst is kept while remembered, then trimmed as the rolling
        // mark decays toward the steady volume.
        let mut pool = PayloadPool::default();
        assert_eq!(recycle_round(&mut pool, 1024, false), 1024);
        let mut free = 1024;
        for _ in 0..40 {
            free = recycle_round(&mut pool, 8, false);
        }
        assert!(free <= 8 + 8 / 4 + 1, "free list still {free} buffers");
        assert!(pool.free.capacity() <= Outbox::RETAIN_FACTOR * 16);
    }
}
