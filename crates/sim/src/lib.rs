//! Synchronous message-passing simulator for the LOCAL / CONGEST models,
//! built as a sharded flat-buffer round engine.
//!
//! The distributed model of the paper: each vertex of a graph hosts a
//! processor; computation proceeds in synchronous rounds; in every round a
//! processor may send one message along each incident edge; the CONGEST
//! model additionally caps the message size at `O(log n)` bits.
//!
//! This crate reproduces that model *measurably*: protocols exchange
//! byte-encoded payloads (plain `&[u8]`), and the engine records — and
//! can enforce — per-edge per-round byte budgets, so the paper's "each
//! message consists of `O(1)` words" claim becomes a measured quantity
//! rather than an assumption.
//!
//! # The sharded engine
//!
//! A [`ShardPlan`] partitions the vertex set into contiguous,
//! degree-balanced ranges. The **ownership invariant**: a shard computes
//! only its own nodes, writes only its own send log, its own
//! sender-side router, and its own CSR inbox slice, and — because the
//! slot of the directed edge `from -> to` lives in the *sender's* CSR
//! row — owns a contiguous block of the per-edge CONGEST counters. Every
//! [`Simulator::step`] then runs three shard-local phases:
//!
//! - **Compute.** Each node consumes the slice of messages delivered to it
//!   and sends through an [`Outbox`] that appends to the shard's **send
//!   log**: messages in sender order, payload bytes back to back in one
//!   arena. A protocol that declares
//!   itself [`Protocol::MESSAGE_DRIVEN`] — its `round` does nothing on an
//!   empty inbox — is stepped only on the shard's **wake list**, the
//!   nodes that received a message this round (every node runs `start`,
//!   unless [`Simulator::restart`] lists the ones that do); any other
//!   protocol steps every node. Either way nodes run in ascending id
//!   order, so the log is in sender order.
//! - **Account (sender side).** Each shard walks its send log, validates
//!   addressing, charges per-edge budgets for messages its own vertices
//!   sent (no counter merge — senders own their edge slots outright; a
//!   sender's broadcasts are charged once, not once per edge), and
//!   *routes* each message: references are bucketed by
//!   destination shard, unicast and multicast targets through a flat O(1)
//!   vertex→shard table, broadcasts through a per-vertex adjacency
//!   segmentation both precomputed in the [`RouteIndex`] (once per plan,
//!   not per round).
//! - **Place (recipient side).** Each shard walks only the route-ref
//!   buckets addressed to it — never another shard's send log — and
//!   bucket-sorts those copies into its own inbox slice, marking the
//!   recipients on the next round's wake list, one bit per vertex (every
//!   table is recycled in place across rounds — steady-state stepping
//!   allocates nothing).
//!
//! A round's work therefore follows its messages: compute steps the
//! woken nodes, account walks what they sent, and placement costs
//! `O(copies + woken)` plus a one-bit-per-vertex scan. In the paper's
//! algorithm each phase is a broadcast frontier moving one hop per
//! round, so most nodes sit out most rounds.
//! Sender-side routing is what drops delivery's header work from
//! `O(shards × messages)` to `O(messages + copies)` refs, with no
//! shard-count multiplier (the complexity table lives in the `shard`
//! module docs; [`Simulator::delivery_work`] reports the measured
//! [`DeliveryWork`] counters, nodes stepped included).
//!
//! # Slab-backed inboxes: delivery cost is per message, not per copy
//!
//! An inbox stores compact 8-byte `{from, payload id}` slots: placement
//! copies each unique `(sender, message)` payload **once per shard per
//! round** into the shard's [`PayloadSlab`] arena and then scatters plain
//! slot writes, so a broadcast to ten thousand neighbors costs one
//! payload copy and ten thousand cache-linear writes, under every
//! backend. Protocols read the result through the [`Inbox`] view a
//! [`Protocol::round`] receives: iteration yields borrowed
//! [`IncomingRef`]s whose payload is a `&[u8]` into the slab
//! ([`IncomingRef::to_incoming`] materializes an owned [`Incoming`] when
//! one is wanted).
//!
//! The **slab ownership rule**: a shard's slab owns the bytes it serves.
//! Placement copies them from the sending shard's send arena under the
//! in-memory backends and from the decoded frame under the framed ones,
//! so neither a send log nor a frame outlives placement. Slab entries
//! live exactly one round (registered by placement, read by the next
//! compute, dropped wholesale by the following placement), and slab,
//! slot table, and inbox ranges are all recycled in place, preserving
//! the steady-state zero-allocation invariant. See the `shard` module
//! docs for the full rule.
//!
//! # The frame seam
//!
//! A per-`(sender, destination)` bucket is exactly the batch a transport
//! ships, and under [`Engine::Framed`] it *is* shipped: after the account
//! phase each shard serializes every bucket — refs plus the payload bytes
//! they reference — into one self-delimiting, checksummed frame per
//! destination shard (layout in the [`frame`] module docs), and the place
//! phase decodes frames instead of reading other shards' send logs or
//! routers. Delivery order, CONGEST accounting, and results are
//! untouched; the only thing that changes between sharing an address
//! space and not is which [`frame::Transport`] moves the bytes. The
//! in-memory loopback (a reference-counted [`bytes::Bytes`] handoff of
//! each frame, allocation-free in steady state — the seam itself costs
//! only encode + checksum + decode) prices the seam; [`Simulator::with_transport`]
//! plugs in any other [`Transport`] implementation.
//!
//! The [`transport`] module takes the seam across real process
//! boundaries: [`SocketTransport`] moves the same frames over
//! Unix-domain or TCP streams through a routing hub
//! ([`FrameTransport::Socket`]), [`transport::launcher`] puts one OS
//! process on each shard with [`transport::run_worker`] driving the
//! identical phase code inside each, and [`FaultInjectingTransport`]
//! deterministically drops, corrupts, delays, duplicates, or reorders
//! frames over any backend. Every blocking point in that stack carries a
//! deadline ([`transport::DEFAULT_FRAME_TIMEOUT`] unless the caller sets
//! one), so a wedged or dead shard degrades into a typed
//! [`SimError::Transport`] with the offending shard, round, and
//! [`TransportCause`] attached — never a hang. The fabric is
//! additionally *self-healing* under [`transport::launcher::supervise`]:
//! the hub keeps a bounded per-destination replay log
//! ([`transport::DEFAULT_REPLAY_WINDOW`] rounds unless the supervisor
//! sets another window), so a crashed or wedged worker is killed,
//! relaunched with backoff, re-admitted via handshake resume, and
//! fast-forwarded through the rounds it missed — the run still
//! completes bit-identically, and only an exhausted restart budget
//! surfaces as the typed error naming the lost shard. Those relay
//! queues are themselves bounded (256 MiB per destination): a consumer
//! that stops draining turns into a typed error naming the slow shard,
//! never unbounded hub memory.
//!
//! Crashes *older than the replay window* recover in O(interval)
//! rather than O(run length) through the [`checkpoint`] subsystem:
//! with a [`transport::CheckpointPlan`] of interval `k` and a
//! directory (`netdecomp --checkpoint-interval k`), every worker
//! serializes its protocol state (the [`Snapshot`] seam), inbox, and
//! accumulated stats at each `k`-round barrier —
//! a barrier is already a consistent cut — into a checksummed,
//! versioned on-disk file
//! (magic-tagged header + lane digest, written via atomic
//! write-then-rename). A relaunched worker loads its newest *valid*
//! checkpoint — torn or corrupt files fail the digest, are skipped
//! with a typed `checkpoint_reject` flight-recorder event, and fall
//! back to the previous checkpoint or round 0, never trusted — and
//! re-handshakes at the checkpoint round, so the hub's replay log only
//! ever needs to span one interval. Only with checkpointing off does a
//! beyond-the-window crash fall back to restarting the whole
//! (deterministic) run from round 0. The control-frame wire protocol
//! (handshake, round barriers, heartbeats, stats, worker events, error
//! broadcast) is documented in [`transport::control`]; the
//! failure-mode × recovery-action matrix lives in the [`transport`]
//! module docs, the frame-level failure table in [`frame`].
//! A frame corrupted anywhere in its header or tables — everything that
//! addresses, sizes, or routes messages — or truncated or misrouted
//! surfaces as a typed [`SimError::Frame`]: never a panic, never a
//! misdelivered or reordered message. (By default the payload region is
//! not checksummed — payload-byte integrity is the transport medium's
//! job, exactly as in the shared-memory path — but the format's coverage
//! flag extends the digest over it for transports that want the frame
//! self-verifying end to end; see [`frame::FrameConfig`] and
//! [`Simulator::with_frame_config`].) The engine a caller names is the
//! engine that runs: [`Engine::Parallel`] always delivers through shared
//! memory, and only [`Engine::Framed`] crosses the seam.
//!
//! Every backend runs one round schedule through one per-shard round
//! kernel: each shard's compute → account → ship (framed delivery only),
//! one barrier, then each shard's place. The send half touches only the
//! shard's own state, so a shard's frames go out while other shards are
//! still computing. Under [`Engine::Parallel`] and [`Engine::Framed`]
//! all shards run concurrently inside a single scoped thread set per
//! step; only per-round [`RoundStats`] are merged. [`Engine::Sequential`]
//! runs the same kernel inline, and so does every socket worker process
//! for its one shard (the `engine` module docs diagram the schedule).
//!
//! # Observability
//!
//! The [`trace`] module is the stack's flight recorder. With tracing on
//! ([`Simulator::with_trace`], or [`transport::WorkerConfig::trace`] on
//! a socket worker), every shard keeps a preallocated ring of the last
//! *K* [`RoundTrace`] records: per-phase
//! compute/account/ship/place/barrier-wait nanoseconds plus the round's
//! frame bytes, checksum nanoseconds, and restart generation. Recording
//! is an in-place overwrite of preallocated slots, so the steady-state
//! zero-allocation invariant holds with tracing enabled, and timing
//! never influences delivery, so [`Determinism::Verify`] stays
//! bit-identical on every backend. [`Simulator::flight_traces`]
//! snapshots the rings; on the socket fabric workers stream each
//! committed record to the hub over a dedicated `Trace` control frame,
//! and [`transport::launcher::supervise`] merges the streams with its
//! own restart/chaos/stall annotations into one [`FlightRecorder`]
//! timeline, dumped as JSONL (`netdecomp --trace-out file.jsonl`; the
//! line schema is in the [`trace`] module docs).
//!
//! # Determinism guarantee
//!
//! Each shard's send log is in sender id order, so per-recipient delivery order
//! is sender id, then send order, then adjacency order for broadcasts —
//! independent of thread scheduling *and* shard boundaries. For any
//! protocol that is a deterministic function of `(state, incoming)`, every
//! `(threads, shards)` configuration produces **bit-identical** node
//! states, inboxes, and [`RunStats`]. [`Determinism::Verify`] (via
//! [`Simulator::step_verified`] or the `*_with` runners) checks both
//! halves per round — reference compute on cloned nodes, stepping every
//! node whatever its inbox, and sharded delivery against a sequential
//! single-buffer merge — and fails with [`SimError::Nondeterminism`] if a
//! protocol sneaks in scheduling dependence or, declared message-driven,
//! sends on an empty inbox.
//!
//! # Typed messages
//!
//! Protocols may speak bytes directly ([`Protocol`]) or typed messages
//! through a [`Codec`] ([`TypedProtocol`] wrapped in [`Typed`]): one
//! encode per send — broadcasts included — and one decode per receipt,
//! made as the protocol reads its [`TypedInbox`], with malformed payloads
//! dropped at the boundary. Decoding borrows the slab-resolved payload
//! slice directly: the typed read path decodes straight from the slab.
//!
//! Encoding writes straight into the sending shard's send arena
//! ([`Codec::encode`] appends to a `Vec<u8>`), the same arena raw sends
//! copy their bytes into. The arena is cleared at the next compute phase,
//! after placement has copied what it delivers, and keeps its capacity
//! under a rolling high-water mark, so a steady typed relay allocates
//! nothing (pinned by `crates/sim/tests/steady_state_alloc.rs`) and a
//! burst is forgotten geometrically.
//!
//! # Example: flooding a token
//!
//! ```
//! use netdecomp_graph::generators;
//! use netdecomp_sim::{Ctx, Engine, Inbox, Outbox, Protocol, Simulator};
//!
//! struct Flood { seen: bool }
//!
//! impl Protocol for Flood {
//!     // `round` acts only on what it hears: step just the frontier.
//!     const MESSAGE_DRIVEN: bool = true;
//!
//!     fn start(&mut self, ctx: &Ctx<'_>, out: &mut Outbox<'_>) {
//!         if ctx.id == 0 {
//!             self.seen = true;
//!             out.broadcast(b"x");
//!         }
//!     }
//!     fn round(&mut self, _ctx: &Ctx<'_>, incoming: Inbox<'_>, out: &mut Outbox<'_>) {
//!         if !incoming.is_empty() && !self.seen {
//!             self.seen = true;
//!             out.broadcast(b"x");
//!         }
//!     }
//!     fn is_halted(&self) -> bool { self.seen }
//! }
//!
//! let g = generators::path(4);
//! let mut sim = Simulator::new(&g, |_id, _ctx| Flood { seen: false })
//!     .with_engine(Engine::Parallel { threads: 2, shards: 2 });
//! let run = sim.run_to_quiescence(100).unwrap();
//! assert!(sim.nodes().iter().all(|n| n.seen));
//! // start + 3 hops of relaying + draining the last node's echo.
//! assert_eq!(run.rounds, 5);
//! // That last round stepped only vertex 2, the one the echo reached.
//! assert_eq!(sim.delivery_work().nodes_stepped, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod checkpoint;
mod codec;
mod engine;
mod error;
pub mod frame;
mod message;
mod seeding;
mod shard;
mod stats;
pub mod trace;
pub mod transport;
pub mod wire;

pub use checkpoint::{
    checkpoint_path, load_newest_checkpoint, write_checkpoint, Checkpoint, RejectedCheckpoint,
};
pub use codec::{Codec, Typed, TypedInbox, TypedOutbox, TypedProtocol};
pub use engine::{Ctx, Determinism, Engine, Protocol, Simulator, Snapshot};
pub use error::{FrameError, SimError, TransportCause, TransportError};
pub use frame::{FrameConfig, FrameTransport, Transport, TransportHealth};
pub use message::{Inbox, Incoming, IncomingRef, Outbox, PayloadId, PayloadSlab};
pub use seeding::stream_rng;
pub use shard::{RouteIndex, RouteSegment, ShardPlan};
pub use stats::{CongestLimit, DeliveryWork, RoundStats, RunStats};
pub use trace::{FlightRecorder, RoundTrace, TraceEvent, TraceRing};
pub use transport::{
    graph_digest, FaultInjectingTransport, FaultPlan, HubAddr, HubClient, LinkPartition,
    SocketTransport, TransportFactory, WorkerStats,
};
