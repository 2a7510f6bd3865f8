//! Typed message exchange over the byte-level engine.
//!
//! A [`Codec`] pairs a message type with its fixed wire encoding; the
//! [`Typed`] adapter lets a protocol speak in terms of decoded messages
//! while the engine keeps shipping plain bytes. Each outgoing message is
//! encoded exactly once, straight into the sending shard's send arena —
//! a broadcast's recipients all read that one encoding — so a typed send
//! allocates nothing once the arena is warm. Each incoming payload is
//! decoded exactly once per recipient, as the protocol reads it: a
//! [`TypedInbox`] decodes straight from the delivering shard's
//! slab-backed [`Inbox`] view (a borrowed slice; no decoded copy of the
//! inbox).

use bytes::Bytes;
use netdecomp_graph::VertexId;

use crate::{Ctx, Inbox, Outbox, Protocol};

/// A bidirectional mapping between a message type and its wire bytes.
///
/// Implementations are zero-sized tag types. Encoding must be injective;
/// arbitrary byte strings may decode to `None` (malformed). Most codecs
/// round-trip (`decode(encode(m)) == Some(m)`), though a codec may fold a
/// deterministic hop transform into the wire format (e.g. pre-incrementing
/// a distance for the receiver).
pub trait Codec {
    /// The in-memory message type.
    type Msg;

    /// Appends the encoding of `msg` to `buf`. Called once per send,
    /// including broadcasts, with `buf` the sending shard's send arena:
    /// it already holds the round's earlier payloads, so an encoding
    /// must only append, and the payload is exactly the bytes appended.
    /// Encoding allocates nothing once the arena is warm.
    fn encode(msg: &Self::Msg, buf: &mut Vec<u8>);

    /// Decodes a payload, or `None` if malformed/truncated.
    ///
    /// Takes a borrowed byte slice (pass a [`Bytes`] through deref): the
    /// typed read path resolves payloads out of the delivery slab without
    /// cloning a handle per recipient, and decoding must not either.
    fn decode(payload: &[u8]) -> Option<Self::Msg>;
}

/// A protocol exchanging typed messages through a [`Codec`].
///
/// Wrap it in [`Typed`] to obtain a byte-level [`Protocol`] the
/// [`crate::Simulator`] can run.
pub trait TypedProtocol {
    /// The codec defining this protocol's wire format.
    type Codec: Codec;

    /// Round 0, before any delivery.
    fn start(&mut self, ctx: &Ctx<'_>, out: &mut TypedOutbox<'_, Self::Codec>);

    /// Whether [`TypedProtocol::round`] does nothing on an empty inbox,
    /// as in [`Protocol::MESSAGE_DRIVEN`]; [`Typed`] forwards it.
    const MESSAGE_DRIVEN: bool = false;

    /// Every round ≥ 1, with this round's messages, decoded as
    /// `incoming` is iterated (see [`TypedInbox`]).
    fn round(
        &mut self,
        ctx: &Ctx<'_>,
        incoming: TypedInbox<'_, Self::Codec>,
        out: &mut TypedOutbox<'_, Self::Codec>,
    );

    /// Local termination, as in [`Protocol::is_halted`].
    fn is_halted(&self) -> bool {
        false
    }
}

/// One round's delivered messages, decoded on read: iterating yields
/// `(sender, message)` in delivery order, decoding each payload as it is
/// reached. Malformed payloads are skipped (a debug build asserts they
/// do not occur).
#[derive(Debug)]
pub struct TypedInbox<'a, C: Codec> {
    raw: Inbox<'a>,
    next: usize,
    _codec: std::marker::PhantomData<C>,
}

impl<C: Codec> Iterator for TypedInbox<'_, C> {
    type Item = (VertexId, C::Msg);

    fn next(&mut self) -> Option<Self::Item> {
        while self.next < self.raw.len() {
            let m = self.raw.get(self.next);
            self.next += 1;
            let msg = C::decode(m.payload());
            debug_assert!(msg.is_some(), "malformed payload from {}", m.from());
            if let Some(msg) = msg {
                return Some((m.from(), msg));
            }
        }
        None
    }
}

/// Send buffer encoding typed messages through a [`Codec`], each straight
/// into the shard's send arena.
#[derive(Debug)]
pub struct TypedOutbox<'a, C: Codec> {
    raw: Outbox<'a>,
    _codec: std::marker::PhantomData<C>,
}

impl<'a, C: Codec> TypedOutbox<'a, C> {
    fn new(raw: &'a mut Outbox<'_>) -> Self {
        TypedOutbox {
            raw: raw.reborrow(),
            _codec: std::marker::PhantomData,
        }
    }

    /// Encodes `msg` once and queues it to a single neighbor.
    pub fn unicast(&mut self, to: VertexId, msg: &C::Msg) {
        self.raw.unicast_with(to, |buf| C::encode(msg, buf));
    }

    /// Encodes `msg` once and queues one copy per listed neighbor; all
    /// copies share the one encoding.
    pub fn multicast(&mut self, to: &[VertexId], msg: &C::Msg) {
        self.raw.multicast_with(to, |buf| C::encode(msg, buf));
    }

    /// Encodes `msg` once and queues it along every incident edge; all
    /// recipients share the one encoding.
    pub fn broadcast(&mut self, msg: &C::Msg) {
        self.raw.broadcast_with(|buf| C::encode(msg, buf));
    }
}

/// Adapter running a [`TypedProtocol`] as a byte-level [`Protocol`].
///
/// Holds nothing but the wrapped protocol: outgoing messages are encoded
/// into the engine's outbox and incoming ones decoded as the protocol
/// reads its [`TypedInbox`], so no per-node decode buffer outlives a
/// round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Typed<T> {
    /// The wrapped typed protocol (accessible for result extraction).
    pub inner: T,
}

impl<T: TypedProtocol> Typed<T> {
    /// Wraps a typed protocol.
    pub fn new(inner: T) -> Self {
        Typed { inner }
    }
}

impl<T: TypedProtocol> Protocol for Typed<T> {
    const MESSAGE_DRIVEN: bool = T::MESSAGE_DRIVEN;

    fn start(&mut self, ctx: &Ctx<'_>, out: &mut Outbox<'_>) {
        self.inner.start(ctx, &mut TypedOutbox::new(out));
    }

    fn round(&mut self, ctx: &Ctx<'_>, incoming: Inbox<'_>, out: &mut Outbox<'_>) {
        let incoming = TypedInbox {
            raw: incoming,
            next: 0,
            _codec: std::marker::PhantomData,
        };
        self.inner.round(ctx, incoming, &mut TypedOutbox::new(out));
    }

    fn is_halted(&self) -> bool {
        self.inner.is_halted()
    }
}

/// Blanket checkpoint plumbing: a typed protocol that can snapshot its
/// own state makes the whole [`Typed`] wrapper snapshot-capable for
/// free — the inner state is the wrapper's entire state.
impl<T: TypedProtocol + crate::Snapshot> crate::Snapshot for Typed<T> {
    fn save_state(&self) -> Bytes {
        self.inner.save_state()
    }

    fn load_state(&mut self, bytes: &[u8]) -> bool {
        self.inner.load_state(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::WireReader;
    use crate::Simulator;
    use bytes::BufMut;
    use netdecomp_graph::generators;

    /// Counter message: (origin, hops).
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct Hop {
        origin: u32,
        hops: u16,
    }

    struct HopCodec;

    impl Codec for HopCodec {
        type Msg = Hop;

        fn encode(msg: &Hop, buf: &mut Vec<u8>) {
            buf.put_u32_le(msg.origin);
            buf.put_u16_le(msg.hops);
        }

        fn decode(payload: &[u8]) -> Option<Hop> {
            let mut r = WireReader::new(payload);
            let origin = r.u32()?;
            let hops = r.u16()?;
            r.is_exhausted().then_some(Hop { origin, hops })
        }
    }

    #[derive(Debug, Clone, PartialEq, Eq)]
    struct Relay {
        best: Option<Hop>,
    }

    impl TypedProtocol for Relay {
        type Codec = HopCodec;

        fn start(&mut self, ctx: &Ctx<'_>, out: &mut TypedOutbox<'_, HopCodec>) {
            if ctx.id == 0 {
                let msg = Hop { origin: 0, hops: 0 };
                self.best = Some(msg);
                out.broadcast(&msg);
            }
        }

        fn round(
            &mut self,
            _ctx: &Ctx<'_>,
            mut incoming: TypedInbox<'_, HopCodec>,
            out: &mut TypedOutbox<'_, HopCodec>,
        ) {
            if self.best.is_none() {
                if let Some((_, first)) = incoming.next() {
                    let mine = Hop {
                        origin: first.origin,
                        hops: first.hops + 1,
                    };
                    self.best = Some(mine);
                    out.broadcast(&mine);
                }
            }
        }

        fn is_halted(&self) -> bool {
            self.best.is_some()
        }
    }

    #[test]
    fn typed_relay_counts_hops() {
        let g = generators::path(5);
        let mut sim = Simulator::new(&g, |_, _| Typed::new(Relay { best: None }));
        sim.run_to_quiescence(10).unwrap();
        for (v, node) in sim.nodes().iter().enumerate() {
            assert_eq!(node.inner.best.unwrap().hops as usize, v);
        }
    }

    #[test]
    fn codec_round_trips() {
        let m = Hop {
            origin: 77,
            hops: 3,
        };
        let mut buf = Vec::new();
        HopCodec::encode(&m, &mut buf);
        assert_eq!(HopCodec::decode(&buf), Some(m));
        assert_eq!(HopCodec::decode(b"xx"), None);
    }

    /// Typed sends encode straight into the send log, after whatever the
    /// round logged before them: each payload is exactly its encoding,
    /// and a multicast keeps its target list in order.
    #[test]
    fn typed_sends_append_their_encodings_to_the_log() {
        let m = Hop { origin: 5, hops: 9 };
        let mut log = crate::message::SendLog::default();
        Outbox::new(&mut log, 0).unicast(1, b"raw");
        let mut raw = Outbox::new(&mut log, 1);
        let mut out = TypedOutbox::<HopCodec>::new(&mut raw);
        out.broadcast(&m);
        out.multicast(&[0, 2, 0], &m);
        assert_eq!(raw.len(), 2);
        let sent: Vec<_> = log.resolved().collect();
        assert_eq!(sent[0].2, b"raw");
        for &(from, _, payload) in &sent[1..] {
            assert_eq!(from, 1);
            assert_eq!(HopCodec::decode(payload), Some(m));
        }
        assert_eq!(sent[2].1, crate::message::Recipient::Neighbors(&[0, 2, 0]));
    }
}
