//! The synchronous round engine: sharded parallel compute *and* delivery.
//!
//! Each [`Simulator::step`] runs three phases over a fixed
//! [`ShardPlan`] — every shard owns a contiguous vertex range, the send log
//! and inbox slice of those vertices, and the CONGEST counters of the
//! directed-edge slots leaving them (see the [`crate::shard`] module docs
//! for the full ownership invariant):
//!
//! 1. **Compute** — nodes consume their delivered messages and send
//!    through an [`Outbox`] that appends to the shard's send log, in
//!    ascending id order. Every node runs `start` (a
//!    [`Protocol::MESSAGE_DRIVEN`] protocol only the nodes a
//!    [`Simulator::restart`] lists); after that a message-driven protocol
//!    runs only on the shard's wake list (the nodes placement delivered
//!    to), any other on every node. A shard computes only its own nodes
//!    and writes only its own send log, which it clears first.
//! 2. **Account** (sender side) — each shard walks its send log,
//!    validates addressing, charges per-edge byte budgets for the
//!    messages *its own* vertices sent, and builds its sender-side routing
//!    index: outgoing message refs bucketed by destination shard
//!    (unicasts through a flat O(1) vertex→shard table, broadcasts
//!    through the [`RouteIndex`]'s precomputed adjacency segmentation).
//!    Edge slots are sender-owned and contiguous per shard, so there is
//!    no counter merge; a sender's broadcasts are charged once, not per
//!    copy.
//! 3. **Place** (recipient side) — each shard walks only the route-ref
//!    buckets addressed to it and bucket-sorts those copies (unicast,
//!    multicast, and broadcast alike) into its own inbox slice, marking
//!    the recipients on the next wake list, one bit per vertex. It empties
//!    last round's inboxes through last round's wake list, so it costs
//!    `O(copies + woken)` plus a one-bit-per-vertex scan. No shard
//!    rescans another shard's send log, so total header work drops
//!    from `O(shards × messages)` to `O(messages + copies)` refs (no
//!    shard-count multiplier); see the [`crate::shard`] module docs for
//!    the complexity table and [`Simulator::delivery_work`] for the
//!    measured counters.
//!
//! Under [`Engine::Framed`] the hand-off between phases 2 and 3 crosses
//! the **frame seam** instead of shared memory: an extra **ship** phase
//! serializes each shard's buckets (refs + payload bytes, both read only
//! from the shard's own state) into one self-delimiting, checksummed
//! frame per destination shard and hands them to a
//! [`crate::frame::Transport`] — in-memory loopback or real sockets —
//! and the place phase decodes the frames addressed to it, touching no
//! other shard's memory at all. Refs arrive in the same (sender shard,
//! bucket) order either way, so results stay bit-identical across all
//! backends; a frame that fails validation surfaces as a typed
//! [`SimError::Frame`].
//!
//! # The round schedule
//!
//! Every backend runs one schedule, and every driver runs it through one
//! per-shard **round kernel** ([`RoundKernel`]), split at the round's only
//! barrier:
//!
//! ```text
//! per owned shard: [compute → account → ship*]  ─barrier─  per owned shard: [place]
//!                   └ shard A ships while B computes ┘       └ or, after an account
//!                                                              failure, skip (drain*) ┘
//! * framed delivery only
//!
//! place ──wake list──▶ next round's compute ──send log──▶ account
//! ```
//!
//! The send half needs no barrier inside it because it touches only the
//! shard's own state: compute its own nodes, inbox and send log, account
//! its own edge counters and router, ship its own buckets. The only
//! cross-shard hand-off is the receive half — reading other shards'
//! routers and send logs under shared-memory delivery, collecting
//! frames under framed delivery — and the barrier orders every send
//! before any of it.
//!
//! Under [`Engine::Parallel`] and [`Engine::Framed`] both halves run on
//! all shards concurrently inside a **single**
//! [`rayon::ThreadPool::broadcast`] per step; only the per-shard
//! [`RoundStats`] are merged at the end. With one worker
//! ([`Engine::Sequential`], or a parallelism of one) the calling thread
//! runs every shard's send half, then every shard's receive half, with
//! zero spawn overhead. A socket worker process
//! ([`crate::transport::run_worker`]) runs the same kernel for its one
//! shard, with the hub's round barrier in place of the engine's.
//!
//! On an account failure every shard still finishes its send half — a
//! framed shard ships its partial buckets, which hold only validated,
//! charged refs, keeping the transport at one frame per
//! `(sender, dest)` pair — and after the barrier the round skips
//! placement (framed shards drain their frames undecoded), so inboxes
//! keep the previous round's content and the reported error is the
//! lowest shard's.
//!
//! Because each shard's send log is in sender id order, per-recipient delivery
//! order is (sender id, send order, adjacency order for broadcasts) —
//! independent of both thread scheduling and the shard count, so results
//! are bit-identical across every `(threads, shards)` configuration for
//! any deterministic protocol. [`Determinism::Verify`] checks this per
//! round against a sequential reference for *both* phases: reference
//! compute on cloned nodes, and a reference single-buffer merge
//! cross-checked against the sharded delivery.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex, RwLock};

use bytes::Bytes;
use netdecomp_graph::{Graph, VertexId};

use crate::frame::{FrameConfig, FrameTransport, LoopbackTransport, Transport};
use crate::message::{Recipient, SendLog};
use crate::shard::{ones, DeliveryShard, RouteIndex, Router, ShardPlan};
use crate::{CongestLimit, DeliveryWork, Inbox, Incoming, Outbox, RoundStats, RunStats, SimError};

/// Read-only view a node gets of its place in the network.
///
/// A node knows its own id, its degree, and the ids of its neighbors —
/// nothing else about the topology, matching the initial knowledge of the
/// distributed model.
#[derive(Debug)]
pub struct Ctx<'a> {
    /// This node's vertex id.
    pub id: VertexId,
    /// Total number of nodes `n` (the model assumes `n`, or an upper bound
    /// on it, is global knowledge).
    pub n: usize,
    graph: &'a Graph,
}

impl<'a> Ctx<'a> {
    /// Node context for drivers outside this module (the single-shard
    /// [`crate::transport::worker`] builds nodes for its vertex range).
    pub(crate) fn new(id: VertexId, n: usize, graph: &'a Graph) -> Ctx<'a> {
        Ctx { id, n, graph }
    }

    /// The ids of this node's neighbors.
    #[must_use]
    pub fn neighbors(&self) -> &[VertexId] {
        self.graph.neighbors(self.id)
    }

    /// This node's degree.
    #[must_use]
    pub fn degree(&self) -> usize {
        self.graph.degree(self.id)
    }
}

/// A per-node state machine executed by the [`Simulator`].
///
/// The engine drives each node through `start` (round 0, before any message
/// is delivered) and then `round` once per subsequent round with the messages
/// sent to it in the previous round. Outgoing messages go through the
/// node's [`Outbox`] for the round.
///
/// Implementations must be deterministic functions of `(state, incoming)`:
/// the compute phase may run nodes on any thread in any order within a
/// round. [`Determinism::Verify`] can check this at runtime.
pub trait Protocol {
    /// Declares the protocol **message-driven**: its `round` does
    /// nothing — sends nothing and leaves the state as it was — when the
    /// inbox is empty. The engine then runs `round` only for the nodes
    /// that received a message this round, so a round's compute costs
    /// what its messages cost, not `n` calls. Every node runs `start`,
    /// unless [`Simulator::restart`] names the nodes whose `start` runs:
    /// a message-driven node left off that list must do nothing in
    /// `start` either. A protocol that counts rounds inside `round`, or
    /// sends on silence, must keep the default `false`, under which every
    /// node runs every round.
    ///
    /// [`Determinism::Verify`] catches a message-driven node that sends
    /// on an empty inbox, or from `start` while off the start list: its
    /// reference compute runs every node, empty inboxes and unlisted
    /// starts included, so the skipped send fails the round with
    /// [`SimError::Nondeterminism`]. It compares sends, not node
    /// state, so a node that only changes its state on silence goes
    /// unseen.
    const MESSAGE_DRIVEN: bool = false;

    /// Called once at round 0; queues the node's initial messages.
    fn start(&mut self, ctx: &Ctx<'_>, out: &mut Outbox<'_>);

    /// Called every round ≥ 1 with the messages delivered this round.
    /// Messages arrive ordered by sender id (ties: sender's send order).
    ///
    /// `incoming` is a zero-copy [`Inbox`] view over the owning shard's
    /// compact slot table and payload slab: a broadcast's recipients in
    /// one shard all read the same slab entry. Call
    /// [`crate::IncomingRef::to_incoming`] when an owned [`Incoming`] is
    /// genuinely needed.
    fn round(&mut self, ctx: &Ctx<'_>, incoming: Inbox<'_>, out: &mut Outbox<'_>);

    /// `true` once this node has locally terminated. A halted node still
    /// receives messages (and may un-halt by returning messages again).
    fn is_halted(&self) -> bool {
        false
    }
}

/// Checkpointable per-node state: the seam the deterministic
/// checkpoint/restore plane rides on.
///
/// A protocol opts in by serializing its *mutable* state — everything
/// `start`/`round` can change — through the same wire primitives its
/// messages use ([`crate::wire::WireWriter`] / [`crate::wire::WireReader`]).
/// Configuration fixed at construction (caps, modes, ids) need not be
/// saved: restore always runs on a node freshly built by the same
/// `make_node` closure, so [`Snapshot::load_state`] only overlays the
/// evolving fields.
///
/// The contract mirrors the engine's determinism invariant: for any
/// node, `load_state(save_state())` must reproduce a state that behaves
/// bit-identically from that round on. `load_state` must treat its
/// input as untrusted bytes (checkpoint files are validated by digest,
/// but defense in depth is cheap) and return `false` rather than panic
/// on malformed input.
pub trait Snapshot {
    /// Serializes this node's mutable state.
    fn save_state(&self) -> Bytes;

    /// Overlays previously saved state onto this freshly built node.
    /// Returns `false` (leaving the node in an unspecified but safe
    /// state) when the bytes are malformed.
    fn load_state(&mut self, bytes: &[u8]) -> bool;
}

/// How rounds are scheduled across threads and shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// One shard, one thread: every phase runs in id order on the calling
    /// thread with no scheduling overhead at all.
    #[default]
    Sequential,
    /// Vertices are split into `shards` contiguous recipient ranges and
    /// every phase (compute, CONGEST accounting, *and* delivery placement)
    /// runs per shard across `threads` workers. Results are bit-identical
    /// to [`Engine::Sequential`] for any deterministic protocol, for every
    /// `(threads, shards)` combination.
    Parallel {
        /// Worker thread count; `0` picks the machine's parallelism.
        threads: usize,
        /// Shard count; `0` uses the resolved thread count. Clamped to
        /// `1..=n` at simulator construction.
        shards: usize,
    },
    /// Like [`Engine::Parallel`], but delivery crosses shard boundaries
    /// only as encoded bucket frames shipped through a
    /// [`crate::frame::Transport`]: each shard serializes its router
    /// buckets (refs *and* payload bytes) into one self-delimiting frame
    /// per destination shard, and the place phase decodes frames instead
    /// of reading other shards' memory. Results remain bit-identical to
    /// [`Engine::Sequential`] — [`Determinism::Verify`] cross-checks this
    /// round by round — while a corrupted frame surfaces as a typed
    /// [`SimError::Frame`].
    Framed {
        /// Worker thread count; `0` picks the machine's parallelism.
        threads: usize,
        /// Shard count; `0` uses the resolved thread count, as in
        /// [`Engine::Parallel`].
        shards: usize,
        /// Which transport ships the frames (in-memory loopback or real
        /// sockets).
        transport: FrameTransport,
    },
}

impl Engine {
    /// Resolves the configuration to concrete `(threads, shards, backend)`
    /// settings, where a `Some` backend means framed delivery.
    fn resolve(self) -> (usize, usize, Option<FrameTransport>) {
        let (threads, shards, backend) = match self {
            Engine::Sequential => return (1, 1, None),
            Engine::Parallel { threads, shards } => (threads, shards, None),
            Engine::Framed {
                threads,
                shards,
                transport,
            } => (threads, shards, Some(transport)),
        };
        let threads = if threads == 0 {
            rayon::current_num_threads()
        } else {
            threads
        };
        let shards = if shards == 0 { threads } else { shards };
        (threads, shards, backend)
    }
}

/// Whether to double-check sharded parallel rounds against a sequential
/// reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Determinism {
    /// Trust the protocol to be deterministic (no overhead).
    #[default]
    Trust,
    /// Re-run each round sequentially — compute on cloned nodes, delivery
    /// as a single-buffer reference merge — and require bit-identical
    /// sends *and* inboxes ([`SimError::Nondeterminism`] otherwise).
    /// Roughly doubles round cost; meant for tests.
    Verify,
}

/// The round's one barrier, between the kernel's send and receive
/// halves. It *poisons* instead of deadlocking: if any worker panics
/// before arriving (its [`PoisonOnPanic`] guard fires during unwinding),
/// every other worker blocked here panics out too, so the scoped thread
/// set joins and the original panic propagates — matching the panic
/// behavior of an unsharded round. Built per round, so each member
/// waits exactly once.
struct PhaseBarrier {
    members: usize,
    /// `(arrived, poisoned)`.
    state: Mutex<(usize, bool)>,
    cv: Condvar,
}

impl PhaseBarrier {
    fn new(members: usize) -> Self {
        PhaseBarrier {
            members,
            state: Mutex::new((0, false)),
            cv: Condvar::new(),
        }
    }

    /// Blocks until all members arrive (or any member poisons the
    /// barrier, which panics every waiter).
    fn wait(&self) {
        let mut state = self.state.lock().expect("phase barrier lock");
        state.0 += 1;
        self.cv.notify_all();
        while state.0 < self.members && !state.1 {
            state = self.cv.wait(state).expect("phase barrier lock");
        }
        let poisoned = state.1;
        drop(state);
        assert!(!poisoned, "a worker panicked during a sharded round");
    }

    fn poison(&self) {
        let mut state = match self.state.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        state.1 = true;
        self.cv.notify_all();
    }
}

/// Arms a worker so that unwinding (a protocol panic) releases everyone
/// else from the barrier before the panic leaves the broadcast closure.
struct PoisonOnPanic<'a>(&'a PhaseBarrier);

impl Drop for PoisonOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.poison();
        }
    }
}

/// One shard's share of a round: its delivery state plus the node states
/// of its vertex range.
struct ShardSlot<'a, P> {
    /// Global shard index (also indexes the send log array).
    index: usize,
    shard: &'a mut DeliveryShard,
    nodes: &'a mut [P],
}

/// Waits at `barrier`, measuring the blocked time once per worker and
/// attributing it to every shard the worker drives (`slots` — a worker
/// arrives at a barrier once, however many shards it owns). Reads no
/// clock at all when tracing is off.
fn timed_barrier_wait<P>(barrier: &PhaseBarrier, slots: &mut [ShardSlot<'_, P>]) {
    let t = slots.first().and_then(|s| s.shard.trace.begin());
    barrier.wait();
    if let Some(t) = t {
        let ns = u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
        for slot in slots {
            slot.shard.trace.note_barrier_ns(ns);
        }
    }
}

/// Synchronous simulator executing one [`Protocol`] instance per vertex.
///
/// See the crate-level documentation for a complete example.
#[derive(Debug)]
pub struct Simulator<'g, P> {
    graph: &'g Graph,
    nodes: Vec<P>,
    /// The recipient-range partition driving both phases.
    plan: ShardPlan,
    /// Precomputed routing tables (vertex→shard, per-vertex adjacency
    /// segmentation) for the current plan; rebuilt only on reshard.
    routes: RouteIndex,
    /// Per-shard send logs. Written only by the owning shard (compute),
    /// read by all shards after a barrier (shared-memory delivery).
    logs: Vec<RwLock<SendLog>>,
    /// Per-shard sender-side routers. Written only by the owning shard
    /// (account), read per-bucket by destination shards after a barrier
    /// (placement) — or, under a framed backend, read only by the owning
    /// shard's frame encoder.
    routers: Vec<RwLock<Router>>,
    /// Per-shard delivery state (inbox slice, counters, stats, frame
    /// encoder).
    shards: Vec<DeliveryShard>,
    /// `Some` when delivery runs through the frame seam: the fabric
    /// moving encoded frames between shards.
    transport: Option<Box<dyn Transport>>,
    /// Framed backends: the wire format the encoders write.
    frame_config: FrameConfig,
    limit: CongestLimit,
    engine: Engine,
    /// Concurrent workers a step uses: `min(threads, shards)`.
    workers: usize,
    /// Worker pool backing parallel steps, built once in
    /// [`Simulator::with_engine`]; one `broadcast` (one scoped thread set)
    /// per step.
    pool: Option<rayon::ThreadPool>,
    stats: RunStats,
    round: usize,
    started: bool,
}

/// Runs one node's share of a round: `start` before the first round,
/// `round` on its inbox after.
fn step_node<P: Protocol>(
    node: &mut P,
    ctx: &Ctx<'_>,
    started: bool,
    inbox: Inbox<'_>,
    out: &mut Outbox<'_>,
) {
    if started {
        node.round(ctx, inbox, out);
    } else {
        node.start(ctx, out);
    }
}

/// Runs the compute phase for one shard's vertex range, stepping nodes in
/// ascending id order: every node for protocols that are not
/// [`Protocol::MESSAGE_DRIVEN`], and for a message-driven protocol's
/// `start` unless [`Simulator::restart`] listed its nodes; only the wake
/// list (the nodes with a non-empty inbox, or the listed starts)
/// otherwise. The shard's send log is cleared first — placement copied
/// what it needed from last round's — and the stepped nodes append to it
/// in id order, which is the order account walks it in.
fn compute_shard<P: Protocol>(
    graph: &Graph,
    started: bool,
    shard: &mut DeliveryShard,
    nodes: &mut [P],
    log: &mut SendLog,
) {
    shard.work = DeliveryWork::default();
    log.clear();
    let view = &*shard;
    let n = graph.vertex_count();
    let step = |local: usize| {
        let ctx = Ctx::new(view.start() + local, n, graph);
        let mut out = Outbox::new(log, ctx.id);
        step_node(
            &mut nodes[local],
            &ctx,
            started,
            view.incoming(local),
            &mut out,
        );
    };
    let stepped = if P::MESSAGE_DRIVEN && (started || view.starts_listed) {
        ones(&view.woken).for_each(step);
        view.woken_count
    } else {
        (0..view.len()).for_each(step);
        view.len()
    };
    shard.starts_listed = false;
    shard.work.nodes_stepped = stepped;
}

/// How a round's routed buckets reach their destination shards.
#[derive(Clone, Copy)]
pub(crate) enum Delivery<'a> {
    /// Shared memory: each destination shard reads its bucket of every
    /// sender's router and the payloads in every sender's send log.
    Shared {
        logs: &'a [RwLock<SendLog>],
        routers: &'a [RwLock<Router>],
    },
    /// The frame seam: each sender ships one frame per destination shard
    /// through `transport`, and destination shards read only frames.
    Framed {
        transport: &'a dyn Transport,
        config: FrameConfig,
    },
}

/// The per-shard round kernel: one round of one shard, split at the
/// round's single barrier into a send and a receive half. The inline and
/// broadcast engine drivers and the socket worker's
/// [`crate::transport::run_worker`] all run exactly this code — which is
/// what keeps every backend bit-identical (see the module docs).
pub(crate) struct RoundKernel<'a> {
    pub(crate) graph: &'a Graph,
    pub(crate) routes: &'a RouteIndex,
    /// The plan boundaries: shard `k` owns `bounds[k]..bounds[k + 1]`.
    pub(crate) bounds: &'a [VertexId],
    pub(crate) limit: CongestLimit,
    pub(crate) round: usize,
    /// `false` for the round that runs [`Protocol::start`].
    pub(crate) started: bool,
    pub(crate) delivery: Delivery<'a>,
}

impl RoundKernel<'_> {
    /// The send half for shard `me`: compute → account → ship (framed
    /// delivery only), each phase timed into the shard's trace ring.
    /// `log` and `router` are the shard's own. Returns `false` when
    /// account failed, with the error left in [`DeliveryShard::error`].
    pub(crate) fn send<P: Protocol>(
        &self,
        me: usize,
        shard: &mut DeliveryShard,
        nodes: &mut [P],
        log: &mut SendLog,
        router: &mut Router,
    ) -> bool {
        let (graph, round) = (self.graph, self.round);
        let t = shard.trace.begin();
        compute_shard(graph, self.started, shard, nodes, log);
        shard.trace.note_compute(t);
        let t = shard.trace.begin();
        let ok = shard.account(graph, self.routes, self.limit, round, log, router);
        shard.trace.note_account(t);
        if let Delivery::Framed { transport, config } = self.delivery {
            // Ship even when account failed: partial buckets hold only
            // refs charged before the violation, and every receiver
            // expects exactly one frame per link per round (no shard
            // knows yet whether another shard's account failed).
            let t = shard.trace.begin();
            shard
                .encoder
                .ship(me, self.bounds, router, log, transport, config);
            shard.trace.note_ship(t);
        }
        ok
    }

    /// The receive half for shard `me`, after the barrier: when every
    /// shard's account succeeded (`ok`), places the round's deliveries
    /// into the shard's inbox. Otherwise the inbox keeps the previous
    /// round's content, and a framed shard collects and drops its frames
    /// so the transport starts the next round empty.
    pub(crate) fn receive(&self, me: usize, shard: &mut DeliveryShard, ok: bool) {
        let t = shard.trace.begin();
        match (self.delivery, ok) {
            (Delivery::Shared { logs, routers }, true) => {
                shard.place(self.graph, me, logs, routers);
            }
            (Delivery::Framed { transport, .. }, true) => {
                shard.place_frames(self.graph, me, self.round, transport, self.bounds);
            }
            (Delivery::Framed { transport, .. }, false) => {
                shard.drain_frames(me, transport, self.bounds.len() - 1);
            }
            (Delivery::Shared { .. }, false) => {}
        }
        shard.trace.note_place(t);
    }
}

/// The one-worker driver: every shard's send half, then every shard's
/// receive half, on the calling thread.
fn drive_inline<P: Protocol>(
    kernel: &RoundKernel<'_>,
    shards: &mut [DeliveryShard],
    nodes: &mut [P],
    logs: &[RwLock<SendLog>],
    routers: &[RwLock<Router>],
) {
    let mut ok = true;
    let mut node_rest = nodes;
    for (k, shard) in shards.iter_mut().enumerate() {
        let (mine, rest) = node_rest.split_at_mut(shard.len());
        node_rest = rest;
        let mut log = logs[k].write().expect("no poisoned send log");
        let mut router = routers[k].write().expect("no poisoned router");
        ok &= kernel.send(k, shard, mine, &mut log, &mut router);
    }
    for (k, shard) in shards.iter_mut().enumerate() {
        kernel.receive(k, shard, ok);
    }
}

/// The parallel driver: contiguous shard groups dealt to the pool's
/// threads inside one `broadcast`, with one barrier between the kernel's
/// halves.
fn drive_broadcast<P: Protocol + Send>(
    kernel: &RoundKernel<'_>,
    pool: &rayon::ThreadPool,
    shards: &mut [DeliveryShard],
    nodes: &mut [P],
    logs: &[RwLock<SendLog>],
    routers: &[RwLock<Router>],
) {
    // Each worker claims its group of slots through an uncontended mutex,
    // since a broadcast closure is shared (`Fn`) across threads.
    let (workers, total) = (pool.current_num_threads(), shards.len());
    let mut tasks: Vec<Mutex<Vec<ShardSlot<'_, P>>>> = Vec::with_capacity(workers);
    let mut shard_rest = shards;
    let mut node_rest = nodes;
    let mut next = 0usize;
    for w in 0..workers {
        let hi = ((w + 1) * total) / workers;
        let (mine, rest) = shard_rest.split_at_mut(hi - next);
        shard_rest = rest;
        let mut slots = Vec::with_capacity(mine.len());
        for (j, shard) in mine.iter_mut().enumerate() {
            let (nodes, rest) = node_rest.split_at_mut(shard.len());
            node_rest = rest;
            slots.push(ShardSlot {
                index: next + j,
                shard,
                nodes,
            });
        }
        tasks.push(Mutex::new(slots));
        next = hi;
    }

    let barrier = PhaseBarrier::new(workers);
    let abort = AtomicBool::new(false);
    pool.broadcast(|ctx| {
        let _poison_guard = PoisonOnPanic(&barrier);
        let mut slots = tasks[ctx.index()].lock().expect("no poisoned worker task");
        for slot in slots.iter_mut() {
            let mut log = logs[slot.index].write().expect("no poisoned send log");
            let mut router = routers[slot.index].write().expect("no poisoned router");
            if !kernel.send(slot.index, slot.shard, slot.nodes, &mut log, &mut router) {
                abort.store(true, Ordering::Relaxed);
            }
        }
        timed_barrier_wait(&barrier, &mut slots);
        // Every worker reads the same flag after the barrier, so all of
        // them skip placement together.
        let ok = !abort.load(Ordering::Relaxed);
        for slot in slots.iter_mut() {
            kernel.receive(slot.index, slot.shard, ok);
        }
    });
}

/// The sequential single-buffer merge, kept as the reference
/// implementation [`Determinism::Verify`] cross-checks sharded delivery
/// against: one global CSR inbox built in two passes over the reference
/// send log (all vertices, in sender-id order), charging every copy to
/// its own edge slot.
fn deliver_reference(
    graph: &Graph,
    limit: CongestLimit,
    round: usize,
    log: &SendLog,
) -> Result<(Vec<usize>, Vec<Incoming>, RoundStats), SimError> {
    let n = graph.vertex_count();
    let mut stats = RoundStats {
        round,
        ..RoundStats::default()
    };
    let mut edge_bytes = vec![0usize; graph.directed_edge_count()];
    let mut counts = vec![0usize; n];
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
        counts[to] += 1;
        Ok(())
    };
    // Every copy of a message as (slot, recipient), in delivery order.
    let copies = |from: VertexId, to: Recipient<'_>| -> Result<Vec<(usize, VertexId)>, SimError> {
        let edge = |to: VertexId| {
            let slot = graph
                .edge_slot(from, to)
                .ok_or(SimError::NotNeighbor { from, to })?;
            Ok((slot, to))
        };
        match to {
            Recipient::Neighbor(to) => Ok(vec![edge(to)?]),
            Recipient::Neighbors(targets) => {
                targets.iter().map(|&to| edge(to as VertexId)).collect()
            }
            Recipient::AllNeighbors => Ok(graph
                .neighbor_slots(from)
                .map(|slot| (slot, graph.slot_target(slot)))
                .collect()),
        }
    };
    for (from, to, payload) in log.resolved() {
        let from = from as VertexId;
        for (slot, to) in copies(from, to)? {
            charge(slot, from, to, payload.len())?;
        }
    }
    let mut offsets = vec![0usize; n + 1];
    for v in 0..n {
        offsets[v + 1] = offsets[v] + counts[v];
    }
    let mut data = vec![Incoming::default(); offsets[n]];
    let mut cursors = offsets[..n].to_vec();
    for (from, to, payload) in log.resolved() {
        let from = from as VertexId;
        for (_, to) in copies(from, to)? {
            data[cursors[to]] = Incoming {
                from,
                payload: payload.to_vec(),
            };
            cursors[to] += 1;
        }
    }
    Ok((offsets, data, stats))
}

/// The first vertex whose sends differ between two runs of a round, given
/// each run's messages as `(sender, addressing, payload)` in sender order:
/// the sender of the first message that differs, or the lower sender of
/// the two messages found there.
fn first_send_divergence<'a>(
    mut live: impl Iterator<Item = (u32, Recipient<'a>, &'a [u8])>,
    mut reference: impl Iterator<Item = (u32, Recipient<'a>, &'a [u8])>,
) -> Option<VertexId> {
    loop {
        match (live.next(), reference.next()) {
            (None, None) => return None,
            (Some(a), Some(b)) if a == b => {}
            (Some(a), Some(b)) => return Some(a.0.min(b.0) as VertexId),
            (Some(a), None) | (None, Some(a)) => return Some(a.0 as VertexId),
        }
    }
}

impl<'g, P: Protocol> Simulator<'g, P> {
    /// Creates a simulator over `graph`, instantiating each node's protocol
    /// with `make_node`.
    pub fn new<F>(graph: &'g Graph, mut make_node: F) -> Self
    where
        F: FnMut(VertexId, &Ctx<'_>) -> P,
    {
        let n = graph.vertex_count();
        let nodes = (0..n)
            .map(|id| make_node(id, &Ctx::new(id, n, graph)))
            .collect();
        let plan = ShardPlan::single(n);
        let routes = RouteIndex::new(graph, &plan);
        Simulator {
            graph,
            nodes,
            plan,
            routes,
            logs: vec![RwLock::new(SendLog::default())],
            routers: vec![RwLock::new(Router::default())],
            shards: vec![DeliveryShard::new(graph, 0, n)],
            transport: None,
            frame_config: FrameConfig::default(),
            limit: CongestLimit::Unlimited,
            engine: Engine::Sequential,
            workers: 1,
            pool: None,
            stats: RunStats::default(),
            round: 0,
            started: false,
        }
    }

    /// Sets the per-edge byte budget (CONGEST enforcement). Builder-style.
    #[must_use]
    pub fn with_limit(mut self, limit: CongestLimit) -> Self {
        self.limit = limit;
        self
    }

    /// Selects the round scheduler. Builder-style.
    ///
    /// Resolves the engine's `(threads, shards)` request (an unspecified
    /// shard count uses the resolved thread count), rebuilds the
    /// degree-balanced [`ShardPlan`], redistributes any pending state, and
    /// builds the worker-pool handle once, so each step's dispatch is a
    /// single `broadcast` on an existing pool. Note the *vendored* rayon
    /// shim backing this workspace has no persistent workers — a broadcast
    /// spawns one scoped thread set — so parallel stepping costs one spawn
    /// set per round (not one per phase); with the real rayon crate the
    /// same call reuses persistent workers and stepping becomes
    /// spawn-free. Framed encoders write [`FrameConfig::default`] unless
    /// [`Simulator::with_frame_config`] pins another config.
    #[must_use]
    pub fn with_engine(mut self, engine: Engine) -> Self {
        self.engine = engine;
        let (threads, shards, backend) = engine.resolve();
        self.reshard(ShardPlan::degree_balanced(self.graph, shards));
        self.workers = threads.min(self.plan.count()).max(1);
        self.pool = (self.workers > 1).then(|| {
            rayon::ThreadPoolBuilder::new()
                .num_threads(self.workers)
                .build()
                .expect("pool construction is infallible")
        });
        let count = self.plan.count();
        self.transport = backend.map(|t| match t {
            FrameTransport::Loopback => {
                Box::new(LoopbackTransport::new(count)) as Box<dyn Transport>
            }
            FrameTransport::Socket => {
                Box::new(crate::transport::SocketTransport::unix_mesh(count)) as Box<dyn Transport>
            }
        });
        self
    }

    /// Replaces a framed engine's transport with a custom [`Transport`]
    /// implementation — the hook a socket (multi-process) backend plugs
    /// into. Builder-style; call *after* [`Simulator::with_engine`] with
    /// an [`Engine::Framed`] configuration, and connect exactly
    /// [`Simulator::shard_plan`]`.count()` shards (query it between the
    /// two calls if the shard count was left to resolution).
    ///
    /// # Panics
    ///
    /// Panics if the configured engine is not framed — a transport with
    /// nothing routed through it would be silently ignored otherwise.
    #[must_use]
    pub fn with_transport(mut self, transport: Box<dyn Transport>) -> Self {
        assert!(
            self.transport.is_some(),
            "with_transport requires an Engine::Framed configuration"
        );
        self.transport = Some(transport);
        self
    }

    /// Pins whether a framed engine's encoders extend the frame digest
    /// over the payload region, overriding [`FrameConfig::default`]
    /// (digest over header and tables only). Decoding honors either
    /// setting, so differently-configured peers interoperate.
    /// Builder-style; call *after* [`Simulator::with_engine`].
    ///
    /// # Panics
    ///
    /// Panics if the configured engine is not framed — a frame config
    /// with nothing encoded under it would be silently ignored otherwise.
    #[must_use]
    pub fn with_frame_config(mut self, config: FrameConfig) -> Self {
        assert!(
            self.transport.is_some(),
            "with_frame_config requires an Engine::Framed configuration"
        );
        self.frame_config = config;
        self
    }

    /// Enables flight-recorder tracing with a ring of `window` rounds per
    /// shard (or disables it with `window == 0`); shards are built with
    /// tracing off, so this is the one switch. The rings are preallocated
    /// here, so steady-state stepping stays allocation-free with tracing
    /// on; recording never touches delivery, so results stay
    /// bit-identical ([`Determinism::Verify`] passes traced). Snapshot
    /// with [`Simulator::flight_traces`]. Builder-style; call *after*
    /// [`Simulator::with_engine`], which rebuilds the shards.
    #[must_use]
    pub fn with_trace(mut self, window: usize) -> Self {
        for shard in &mut self.shards {
            shard.trace = crate::trace::TraceRing::new(window);
        }
        self
    }

    /// Re-partitions all per-shard state under `plan`, preserving pending
    /// (undelivered) messages. Send logs start empty: what they held was
    /// placed already, or belonged to an aborted round.
    fn reshard(&mut self, plan: ShardPlan) {
        if plan == self.plan {
            return;
        }
        let old = std::mem::take(&mut self.shards);
        self.shards = (0..plan.count())
            .map(|k| {
                let r = plan.range(k);
                DeliveryShard::new(self.graph, r.start, r.end)
            })
            .collect();
        // Vertices ascend across old shards' wake lists, and each new
        // shard's range is contiguous, so a single in-order sweep rebuilds
        // every pending inbox and wake list. Pending payloads are
        // re-registered per copy (not per message) in the receiving slab —
        // resharding is a cold path, and the next round's placement
        // rebuilds the exact per-message dedup.
        for shard in &old {
            for local in ones(&shard.woken) {
                let v = shard.start() + local;
                let new = &mut self.shards[plan.shard_of(v)];
                let base = new.start();
                for m in shard.incoming(local).iter() {
                    new.push_pending(v - base, m.from() as u32, m.payload());
                }
            }
        }
        self.logs = (0..plan.count())
            .map(|_| RwLock::new(SendLog::default()))
            .collect();
        self.routers = (0..plan.count())
            .map(|_| RwLock::new(Router::default()))
            .collect();
        self.routes = RouteIndex::new(self.graph, &plan);
        self.plan = plan;
    }

    /// The configured round scheduler.
    #[must_use]
    pub fn engine(&self) -> Engine {
        self.engine
    }

    /// The resolved recipient-range partition delivery runs over.
    #[must_use]
    pub fn shard_plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// The precomputed routing tables backing the current plan.
    #[must_use]
    pub fn route_index(&self) -> &RouteIndex {
        &self.routes
    }

    /// Work counters from the most recent round, summed over shards:
    /// the nodes its compute phase stepped, and its place phase's
    /// counters. With sender-side routing, `refs_scanned` is bounded
    /// by `messages + copies` at any shard count — exactly `messages`
    /// for unicast traffic, plus up to `min(degree, shards)` segment
    /// refs per broadcast — with no `shards × messages` rescan
    /// multiplier. The engine benches report these counters so the bound
    /// is visible in checked-in artifacts.
    #[must_use]
    pub fn delivery_work(&self) -> DeliveryWork {
        let mut work = DeliveryWork::default();
        for shard in &self.shards {
            // The per-shard counters hold only compute- and place-phase
            // fields; absorb saturates every one, so a long soak run pins
            // instead of wrapping.
            work.absorb(&shard.work);
        }
        // Transport health is cumulative over the run too: retries,
        // injected faults, and time blocked in collect.
        if let Some(transport) = &self.transport {
            let health = transport.health();
            work.frames_retried = work.frames_retried.saturating_add(health.frames_retried);
            work.frames_dropped_injected = work
                .frames_dropped_injected
                .saturating_add(health.frames_dropped_injected);
            work.collect_wait_ns = work.collect_wait_ns.saturating_add(health.collect_wait_ns);
            work.workers_restarted = work
                .workers_restarted
                .saturating_add(health.workers_restarted);
            work.rounds_replayed = work.rounds_replayed.saturating_add(health.rounds_replayed);
            work.heartbeats_missed = work
                .heartbeats_missed
                .saturating_add(health.heartbeats_missed);
        }
        work
    }

    /// Whether any shard is recording flight-recorder round traces.
    #[must_use]
    pub fn trace_enabled(&self) -> bool {
        self.shards.iter().any(|s| s.trace.enabled())
    }

    /// Chronological snapshots of every shard's flight-recorder ring —
    /// the last-K [`crate::RoundTrace`] records per shard. Empty unless
    /// tracing is on ([`Simulator::with_trace`]). Allocates; a cold-path
    /// call for postmortem dumps, never made from the round loop.
    #[must_use]
    pub fn flight_traces(&self) -> Vec<(usize, Vec<crate::RoundTrace>)> {
        self.shards
            .iter()
            .enumerate()
            .filter(|(_, s)| s.trace.enabled())
            .map(|(k, s)| (k, s.trace.snapshot()))
            .collect()
    }

    /// The messages delivered to vertex `v` in the most recent round
    /// (pending for its next compute), as a zero-copy [`Inbox`] view.
    ///
    /// Meant for drivers and tests that inspect delivery state between
    /// steps; protocols receive the same view through
    /// [`Protocol::round`].
    ///
    /// # Panics
    ///
    /// Panics if `v` is not a vertex of the graph.
    #[must_use]
    pub fn incoming(&self, v: VertexId) -> Inbox<'_> {
        let shard = &self.shards[self.plan.shard_of(v)];
        shard.incoming(v - shard.start())
    }

    /// The underlying graph.
    #[must_use]
    pub fn graph(&self) -> &Graph {
        self.graph
    }

    /// Immutable access to all node states (index = vertex id).
    #[must_use]
    pub fn nodes(&self) -> &[P] {
        &self.nodes
    }

    /// Mutable access to all node states, for drivers that reconfigure nodes
    /// between protocol phases.
    pub fn nodes_mut(&mut self) -> &mut [P] {
        &mut self.nodes
    }

    /// Statistics accumulated so far.
    #[must_use]
    pub fn stats(&self) -> &RunStats {
        &self.stats
    }

    /// Number of rounds executed so far.
    #[must_use]
    pub fn rounds_executed(&self) -> usize {
        self.round
    }

    /// `true` when all nodes are halted and no message is in flight.
    #[must_use]
    pub fn is_quiescent(&self) -> bool {
        self.nodes.iter().all(Protocol::is_halted) && self.shards.iter().all(|s| s.woken_count == 0)
    }

    /// Repositions the round cursor: the next step runs `round` — `start`
    /// on every node for round 0, `round` consuming the pending inbox
    /// otherwise. Call between rounds only; a round boundary is the
    /// consistent cut checkpoints are taken at. It drops a start list
    /// [`Simulator::restart`] set.
    ///
    /// Two uses. After restoring checkpointed shard state
    /// ([`Simulator::restore_shard`]), it resumes the original run
    /// exactly. After re-arming nodes through
    /// [`Simulator::nodes_mut`], `resume_at(0)` runs the next phase of a
    /// multi-phase protocol on the same simulator: `start` ignores the
    /// pending inbox, the per-round statistics restart at round 0, and
    /// the shard plan, buffers and transport carry over. The driver must
    /// save every re-armed field in the node's [`Snapshot`] state, so a
    /// checkpoint taken in a later phase restores the phase's
    /// configuration, not the one the rebuilt nodes start from.
    pub fn resume_at(&mut self, round: usize) {
        self.round = round;
        self.started = round > 0;
        for shard in &mut self.shards {
            shard.starts_listed = false;
        }
    }

    /// Rewinds to round 0, like `resume_at(0)`, with a start list: the
    /// start round runs `start` on the nodes `starters` names (any order;
    /// repeats are harmless), and later rounds step the nodes messages
    /// reach, as always. A phase that wakes few nodes then costs what
    /// they cost, not `n` calls. The pending inbox is dropped, since no
    /// `start` reads it.
    ///
    /// Honored only for a [`Protocol::MESSAGE_DRIVEN`] protocol, whose
    /// contract extends to `start`: a node left off the list must do
    /// nothing there — send nothing, change no state. Any other protocol
    /// starts every node, as after `resume_at(0)`.
    /// [`Determinism::Verify`]'s reference runs `start` on every node, so
    /// an unlisted node that sends fails the start round with
    /// [`SimError::Nondeterminism`].
    ///
    /// The list is not part of a checkpoint: a snapshot taken between
    /// this call and the start round, restored and resumed with
    /// `resume_at(0)`, starts every node — the same result for a protocol
    /// that keeps the contract above, but not the same work.
    ///
    /// # Panics
    ///
    /// Panics if a listed node is not a vertex of the graph.
    pub fn restart(&mut self, starters: &[VertexId]) {
        self.resume_at(0);
        if !P::MESSAGE_DRIVEN {
            return;
        }
        for shard in &mut self.shards {
            shard.begin_start_list();
        }
        for &v in starters {
            let shard = &mut self.shards[self.routes.shard_of(v)];
            let local = v - shard.start();
            shard.list_start(local);
        }
    }

    /// Surfaces the round's first error (lowest shard, i.e. lowest sender
    /// id — matching a sequential sender-order scan) or commits the round
    /// by merging all per-shard stats.
    fn finish_round(&mut self) -> Result<RoundStats, SimError> {
        // Commit this round's trace records *before* the error check, so
        // a failing round's partial phase timings are already in the ring
        // when a flight recorder dumps it. No-op (and allocation-free)
        // with tracing off; frame bytes / checksum time come from the
        // per-round counters reset at the top of compute.
        let round = self.round as u64;
        for shard in &mut self.shards {
            let frame_bytes = shard.work.frame_bytes as u64;
            let checksum_ns = shard.work.checksum_ns;
            shard.trace.commit(round, frame_bytes, checksum_ns, 0);
        }
        if let Some(e) = self.shards.iter().find_map(|s| s.error.clone()) {
            return Err(e);
        }
        let mut merged = RoundStats {
            round: self.round,
            ..RoundStats::default()
        };
        for shard in &self.shards {
            merged.messages = merged.messages.saturating_add(shard.stats.messages);
            merged.bytes = merged.bytes.saturating_add(shard.stats.bytes);
            merged.max_edge_bytes = merged.max_edge_bytes.max(shard.stats.max_edge_bytes);
        }
        self.round += 1;
        self.stats.absorb(merged);
        Ok(merged)
    }
}

impl<P: Protocol + Send> Simulator<'_, P> {
    /// Runs one round of the kernel over all shards, leaving results and
    /// any error in the per-shard state (surfaced by `finish_round`).
    fn execute_round(&mut self) {
        let kernel = RoundKernel {
            graph: self.graph,
            routes: &self.routes,
            bounds: self.plan.boundaries(),
            limit: self.limit,
            round: self.round,
            started: self.started,
            delivery: match self.transport.as_deref() {
                Some(transport) => Delivery::Framed {
                    transport,
                    config: self.frame_config,
                },
                None => Delivery::Shared {
                    logs: &self.logs,
                    routers: &self.routers,
                },
            },
        };
        let (shards, nodes) = (&mut self.shards[..], &mut self.nodes[..]);
        let (logs, routers) = (&self.logs[..], &self.routers[..]);
        match &self.pool {
            Some(pool) => drive_broadcast(&kernel, pool, shards, nodes, logs, routers),
            None => drive_inline(&kernel, shards, nodes, logs, routers),
        }
        self.started = true;
    }

    /// Executes one synchronous round: let every node compute, then merge
    /// and queue its outgoing messages for the next round (all phases
    /// sharded, and parallel under [`Engine::Parallel`]).
    ///
    /// # Errors
    ///
    /// [`SimError::NotNeighbor`] if a node unicasts or multicasts to a
    /// non-neighbor; [`SimError::CongestViolation`] if an edge's byte
    /// budget is exceeded.
    pub fn step(&mut self) -> Result<RoundStats, SimError> {
        self.execute_round();
        self.finish_round()
    }

    /// Runs exactly `rounds` rounds.
    ///
    /// # Errors
    ///
    /// Propagates the first [`SimError`] from [`Simulator::step`].
    pub fn run_rounds(&mut self, rounds: usize) -> Result<RunStats, SimError> {
        self.run_rounds_loop(rounds, |s| s.step())
    }

    /// Runs until every node halts and no message is in flight, up to
    /// `max_rounds`.
    ///
    /// # Errors
    ///
    /// [`SimError::RoundLimitExceeded`] if quiescence is not reached within
    /// the budget; otherwise propagates [`Simulator::step`] errors.
    pub fn run_to_quiescence(&mut self, max_rounds: usize) -> Result<RunStats, SimError> {
        self.run_quiescence_loop(max_rounds, |s| s.step())
    }

    /// Shared body of the fixed-round runners.
    fn run_rounds_loop(
        &mut self,
        rounds: usize,
        mut step: impl FnMut(&mut Self) -> Result<RoundStats, SimError>,
    ) -> Result<RunStats, SimError> {
        let mut run = RunStats::default();
        for _ in 0..rounds {
            run.absorb(step(self)?);
        }
        Ok(run)
    }

    /// Shared body of the run-to-quiescence runners.
    fn run_quiescence_loop(
        &mut self,
        max_rounds: usize,
        mut step: impl FnMut(&mut Self) -> Result<RoundStats, SimError>,
    ) -> Result<RunStats, SimError> {
        let mut run = RunStats::default();
        for _ in 0..max_rounds {
            run.absorb(step(self)?);
            if self.is_quiescent() {
                return Ok(run);
            }
        }
        // A zero budget asks for no work: succeed iff already quiescent.
        if max_rounds == 0 && self.is_quiescent() {
            return Ok(run);
        }
        Err(SimError::RoundLimitExceeded { limit: max_rounds })
    }
}

impl<P: Protocol + Send + Clone> Simulator<'_, P> {
    /// Like [`Simulator::step`], but also re-runs the round sequentially —
    /// compute on cloned nodes, delivery as a single-buffer reference
    /// merge — and requires both executions to be bit-identical.
    ///
    /// # Errors
    ///
    /// [`SimError::Nondeterminism`] on divergence, plus everything
    /// [`Simulator::step`] can return.
    pub fn step_verified(&mut self) -> Result<RoundStats, SimError> {
        let sharded = self.workers > 1 || self.shards.len() > 1 || self.transport.is_some();
        if !sharded && !P::MESSAGE_DRIVEN {
            return self.step();
        }
        // Sequential reference compute on cloned nodes, against the same
        // pre-round inboxes. It steps every node, empty inboxes included,
        // which catches a message-driven node that sends on silence.
        let mut reference_nodes = self.nodes.clone();
        let mut reference = SendLog::default();
        let n = self.graph.vertex_count();
        for shard in &self.shards {
            for local in 0..shard.len() {
                let id = shard.start() + local;
                let ctx = Ctx::new(id, n, self.graph);
                step_node(
                    &mut reference_nodes[id],
                    &ctx,
                    self.started,
                    shard.incoming(local),
                    &mut Outbox::new(&mut reference, id),
                );
            }
        }
        let round = self.round;
        self.execute_round();
        let logs: Vec<_> = self
            .logs
            .iter()
            .map(|log| log.read().expect("no poisoned send log"))
            .collect();
        let live = logs.iter().flat_map(|log| log.resolved());
        let diverged = first_send_divergence(live, reference.resolved());
        drop(logs);
        if let Some(vertex) = diverged {
            return Err(SimError::Nondeterminism { round, vertex });
        }
        if let Some(e) = self.shards.iter().find_map(|s| s.error.clone()) {
            return Err(e);
        }
        // Delivery cross-check: the sharded inboxes must match a global
        // sequential merge of the (just verified) sends.
        match deliver_reference(self.graph, self.limit, round, &reference) {
            Ok((offsets, data, reference_stats)) => {
                for shard in &self.shards {
                    for local in 0..shard.len() {
                        let v = shard.start() + local;
                        if shard.incoming(local) != data[offsets[v]..offsets[v + 1]] {
                            return Err(SimError::Nondeterminism { round, vertex: v });
                        }
                    }
                }
                let merged: usize = self.shards.iter().map(|s| s.stats.messages).sum();
                debug_assert_eq!(merged, reference_stats.messages, "stats diverged");
            }
            // The sharded account pass succeeded on identical sends, so
            // a reference-side error is itself a divergence.
            Err(SimError::CongestViolation { from, .. } | SimError::NotNeighbor { from, .. }) => {
                return Err(SimError::Nondeterminism {
                    round,
                    vertex: from,
                });
            }
            Err(e) => return Err(e),
        }
        self.finish_round()
    }

    /// Runs exactly `rounds` rounds under the given [`Determinism`] mode.
    ///
    /// # Errors
    ///
    /// As [`Simulator::step_verified`].
    pub fn run_rounds_with(
        &mut self,
        rounds: usize,
        determinism: Determinism,
    ) -> Result<RunStats, SimError> {
        match determinism {
            Determinism::Trust => self.run_rounds(rounds),
            Determinism::Verify => self.run_rounds_loop(rounds, |s| s.step_verified()),
        }
    }

    /// Runs to quiescence under the given [`Determinism`] mode.
    ///
    /// # Errors
    ///
    /// As [`Simulator::run_to_quiescence`] and
    /// [`Simulator::step_verified`].
    pub fn run_to_quiescence_with(
        &mut self,
        max_rounds: usize,
        determinism: Determinism,
    ) -> Result<RunStats, SimError> {
        match determinism {
            Determinism::Trust => self.run_to_quiescence(max_rounds),
            Determinism::Verify => self.run_quiescence_loop(max_rounds, |s| s.step_verified()),
        }
    }
}

/// The engine-level checkpoint API, available once the protocol opts
/// into the [`Snapshot`] seam. A round boundary (between `step`s) is
/// already a consistent cut: every delivery of the previous round has
/// been placed, nothing of the next has run — so one payload per shard,
/// plus the round cursor, is a complete resumable image of the run.
impl<P: Protocol + Snapshot> Simulator<'_, P> {
    /// Serializes shard `k`'s complete round-boundary state — every
    /// owned node's [`Snapshot`] state, the pending inbox the next
    /// compute will consume, and the accumulated [`RunStats`] — as an
    /// opaque checkpoint payload
    /// (the same bytes a socket worker writes inside a
    /// [`crate::Checkpoint`] file).
    ///
    /// # Panics
    ///
    /// Panics if `k` is not a shard of the current plan.
    #[must_use]
    pub fn snapshot_shard(&self, k: usize) -> Vec<u8> {
        let range = self.plan.range(k);
        crate::checkpoint::encode_worker_payload(
            &self.nodes[range.start..range.end],
            &self.shards[k],
            &self.stats,
        )
    }

    /// Overlays a [`Simulator::snapshot_shard`] payload onto shard `k`:
    /// node states are restored through [`Snapshot::load_state`], the
    /// pending inbox rebuilt, and the simulator's
    /// accumulated stats replaced by the checkpointed accumulation
    /// (snapshots of the same boundary carry identical stats, so
    /// restoring several shards is idempotent on them). Follow with
    /// [`Simulator::resume_at`] to reposition the round cursor.
    ///
    /// Returns `false` — leaving the shard in an unspecified but safe
    /// state — when the payload is malformed or shaped for a different
    /// plan; callers then rebuild from round 0 instead.
    ///
    /// # Panics
    ///
    /// Panics if `k` is not a shard of the current plan.
    pub fn restore_shard(&mut self, k: usize, payload: &[u8]) -> bool {
        let range = self.plan.range(k);
        crate::checkpoint::decode_worker_payload(
            payload,
            &mut self.nodes[range.start..range.end],
            &mut self.shards[k],
            &mut self.stats,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use netdecomp_graph::generators;

    /// Every node floods a token once; distance of first receipt is recorded.
    #[derive(Debug, Clone, PartialEq, Eq)]
    struct FloodDist {
        dist: Option<usize>,
        rounds_seen: usize,
    }

    impl FloodDist {
        fn fresh() -> Self {
            FloodDist {
                dist: None,
                rounds_seen: 0,
            }
        }
    }

    impl Protocol for FloodDist {
        fn start(&mut self, ctx: &Ctx<'_>, out: &mut Outbox<'_>) {
            if ctx.id == 0 {
                self.dist = Some(0);
                out.broadcast(b"t");
            }
        }

        fn round(&mut self, _ctx: &Ctx<'_>, incoming: Inbox<'_>, out: &mut Outbox<'_>) {
            self.rounds_seen += 1;
            if self.dist.is_none() && !incoming.is_empty() {
                self.dist = Some(self.rounds_seen);
                out.broadcast(b"t");
            }
        }

        fn is_halted(&self) -> bool {
            self.dist.is_some()
        }
    }

    fn flood(g: &netdecomp_graph::Graph, engine: Engine) -> Vec<Option<usize>> {
        let mut sim = Simulator::new(g, |_, _| FloodDist::fresh()).with_engine(engine);
        // Flooding cannot take more rounds than n.
        let _ = sim.run_to_quiescence(g.vertex_count() + 2);
        sim.nodes().iter().map(|n| n.dist).collect()
    }

    #[test]
    fn flooding_computes_bfs_distances() {
        for g in [
            generators::path(8),
            generators::cycle(9),
            generators::grid2d(4, 5),
            generators::star(6),
        ] {
            let from_bfs = netdecomp_graph::bfs::distances(&g, 0);
            assert_eq!(flood(&g, Engine::Sequential), from_bfs);
            for (threads, shards) in [(4, 1), (1, 4), (4, 4), (3, 7)] {
                assert_eq!(
                    flood(&g, Engine::Parallel { threads, shards }),
                    from_bfs,
                    "threads {threads} shards {shards}"
                );
                for transport in [FrameTransport::Loopback, FrameTransport::Socket] {
                    assert_eq!(
                        flood(
                            &g,
                            Engine::Framed {
                                threads,
                                shards,
                                transport
                            }
                        ),
                        from_bfs,
                        "{transport:?} threads {threads} shards {shards}"
                    );
                }
            }
        }
    }

    #[test]
    fn parallel_engine_matches_sequential_bit_for_bit() {
        let g = generators::grid2d(7, 9);
        let mut seq = Simulator::new(&g, |_, _| FloodDist::fresh());
        let mut par = Simulator::new(&g, |_, _| FloodDist::fresh()).with_engine(Engine::Parallel {
            threads: 3,
            shards: 5,
        });
        let a = seq.run_rounds(20).unwrap();
        let b = par.run_rounds(20).unwrap();
        assert_eq!(a, b);
        assert_eq!(seq.nodes(), par.nodes());
        assert_eq!(seq.stats(), par.stats());
    }

    #[test]
    fn framed_backends_match_sequential_bit_for_bit() {
        let g = generators::grid2d(7, 9);
        let mut seq = Simulator::new(&g, |_, _| FloodDist::fresh());
        let a = seq.run_rounds(20).unwrap();
        for transport in [FrameTransport::Loopback, FrameTransport::Socket] {
            for (threads, shards) in [(1, 1), (1, 5), (3, 5), (4, 2)] {
                // Payload coverage changes only the digest's span.
                for cover_payload in [false, true] {
                    let mut par = Simulator::new(&g, |_, _| FloodDist::fresh())
                        .with_engine(Engine::Framed {
                            threads,
                            shards,
                            transport,
                        })
                        .with_frame_config(FrameConfig { cover_payload });
                    let b = par.run_rounds(20).unwrap();
                    assert_eq!(
                        a, b,
                        "{transport:?} threads {threads} shards {shards} cover {cover_payload}"
                    );
                    assert_eq!(seq.nodes(), par.nodes());
                    assert_eq!(seq.stats(), par.stats());
                }
            }
        }
    }

    #[test]
    fn framed_verified_stepping_accepts_deterministic_protocols() {
        for transport in [FrameTransport::Loopback, FrameTransport::Socket] {
            let g = generators::grid2d(5, 5);
            let mut sim =
                Simulator::new(&g, |_, _| FloodDist::fresh()).with_engine(Engine::Framed {
                    threads: 2,
                    shards: 3,
                    transport,
                });
            let run = sim.run_to_quiescence_with(40, Determinism::Verify).unwrap();
            assert!(run.rounds > 0);
            assert!(sim.nodes().iter().all(|n| n.dist.is_some()));
        }
    }

    #[test]
    fn framed_delivery_reports_frame_bytes() {
        let g = generators::grid2d(4, 4);
        let mut shared =
            Simulator::new(&g, |_, _| FloodDist::fresh()).with_engine(Engine::Parallel {
                threads: 1,
                shards: 4,
            });
        shared.step().unwrap();
        assert_eq!(shared.delivery_work().frame_bytes, 0, "no frames in memory");
        let mut framed =
            Simulator::new(&g, |_, _| FloodDist::fresh()).with_engine(Engine::Framed {
                threads: 1,
                shards: 4,
                transport: FrameTransport::Loopback,
            });
        framed.step().unwrap();
        let work = framed.delivery_work();
        // 16 frames (4x4) of >= 32 header bytes each, plus the round's
        // refs and payloads.
        assert!(work.frame_bytes >= 16 * 32, "bytes {}", work.frame_bytes);
        assert_eq!(
            work.copies_delivered,
            shared.delivery_work().copies_delivered
        );
    }

    #[test]
    fn checksum_time_is_measured_under_framed_delivery() {
        let g = generators::grid2d(4, 4);
        let mut sim = Simulator::new(&g, |_, _| FloodDist::fresh()).with_engine(Engine::Framed {
            threads: 1,
            shards: 4,
            transport: FrameTransport::Loopback,
        });
        sim.step().unwrap();
        assert!(
            sim.delivery_work().checksum_ns > 0,
            "16 frames validated per round"
        );
    }

    #[test]
    fn custom_transports_plug_into_the_frame_seam() {
        use std::sync::atomic::AtomicUsize;
        use std::sync::Arc;

        /// A stand-in for a socket transport: delegates to loopback but
        /// counts every frame it carries.
        #[derive(Debug)]
        struct Counted {
            inner: LoopbackTransport,
            carried: Arc<AtomicUsize>,
        }
        impl Transport for Counted {
            fn send(&self, from: usize, to: usize, frame: bytes::Bytes) {
                self.carried.fetch_add(1, Ordering::Relaxed);
                self.inner.send(from, to, frame);
            }
            fn collect(
                &self,
                to: usize,
                into: &mut [Option<bytes::Bytes>],
            ) -> Result<(), crate::error::TransportError> {
                self.inner.collect(to, into)
            }
        }

        let g = generators::grid2d(5, 5);
        let mut seq = Simulator::new(&g, |_, _| FloodDist::fresh());
        seq.run_to_quiescence(40).unwrap();

        let carried = Arc::new(AtomicUsize::new(0));
        let shards = 3;
        let mut sim = Simulator::new(&g, |_, _| FloodDist::fresh())
            .with_engine(Engine::Framed {
                threads: 1,
                shards,
                transport: FrameTransport::Loopback,
            })
            .with_transport(Box::new(Counted {
                inner: LoopbackTransport::new(shards),
                carried: Arc::clone(&carried),
            }));
        let run = sim.run_to_quiescence(40).unwrap();
        assert_eq!(seq.nodes(), sim.nodes(), "custom transport diverged");
        // Every round ships exactly shards^2 frames through the plug-in.
        assert_eq!(
            carried.load(Ordering::Relaxed),
            run.rounds * shards * shards
        );
    }

    #[test]
    fn custom_transport_without_a_framed_engine_is_rejected() {
        let g = generators::path(3);
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = Simulator::new(&g, |_, _| FloodDist::fresh())
                .with_engine(Engine::Parallel {
                    threads: 1,
                    shards: 2,
                })
                .with_transport(Box::new(LoopbackTransport::new(2)));
        }));
        let err = panicked.expect_err("with_transport must reject a shared-memory engine");
        let msg = err
            .downcast_ref::<&str>()
            .copied()
            .unwrap_or_default()
            .to_string();
        assert!(msg.contains("requires an Engine::Framed"), "panic: {msg}");
    }

    #[test]
    fn framed_congest_error_is_identical_to_sequential() {
        let g = generators::grid2d(4, 4);
        let seq_err = Simulator::new(&g, |_, _| Shout { payload: 9 })
            .with_limit(CongestLimit::PerEdgeBytes(8))
            .step()
            .unwrap_err();
        for transport in [FrameTransport::Loopback, FrameTransport::Socket] {
            let framed_err = Simulator::new(&g, |_, _| Shout { payload: 9 })
                .with_limit(CongestLimit::PerEdgeBytes(8))
                .with_engine(Engine::Framed {
                    threads: 2,
                    shards: 5,
                    transport,
                })
                .step()
                .unwrap_err();
            assert_eq!(seq_err, framed_err, "{transport:?}");
        }
    }

    #[test]
    fn verified_stepping_accepts_deterministic_protocols() {
        let g = generators::grid2d(5, 5);
        let mut sim = Simulator::new(&g, |_, _| FloodDist::fresh()).with_engine(Engine::Parallel {
            threads: 4,
            shards: 3,
        });
        let run = sim.run_to_quiescence_with(40, Determinism::Verify).unwrap();
        assert!(run.rounds > 0);
        assert!(sim.nodes().iter().all(|n| n.dist.is_some()));
    }

    /// A protocol whose sequential-reference clone misbehaves: the clone
    /// (used only by `Verify`'s reference execution) broadcasts a different
    /// payload, which must be reported as nondeterminism.
    #[derive(Debug, PartialEq, Eq)]
    struct EvilClone {
        cloned: bool,
    }

    impl Clone for EvilClone {
        fn clone(&self) -> Self {
            EvilClone { cloned: true }
        }
    }

    impl Protocol for EvilClone {
        fn start(&mut self, _ctx: &Ctx<'_>, out: &mut Outbox<'_>) {
            out.broadcast(&[u8::from(self.cloned)]);
        }
        fn round(&mut self, _: &Ctx<'_>, _: Inbox<'_>, _: &mut Outbox<'_>) {}
    }

    #[test]
    fn verified_stepping_reports_divergent_outboxes() {
        let g = generators::path(4);
        let mut sim =
            Simulator::new(&g, |_, _| EvilClone { cloned: false }).with_engine(Engine::Parallel {
                threads: 2,
                shards: 2,
            });
        let err = sim.step_verified().unwrap_err();
        assert!(matches!(
            err,
            SimError::Nondeterminism {
                round: 0,
                vertex: 0
            }
        ));
    }

    #[test]
    fn disconnected_nodes_stay_unreached_and_run_hits_limit() {
        let g = netdecomp_graph::Graph::from_edges(3, &[(0, 1)]).unwrap();
        let mut sim = Simulator::new(&g, |_, _| FloodDist::fresh());
        // Node 2 never halts -> quiescence unreachable.
        let err = sim.run_to_quiescence(5).unwrap_err();
        assert_eq!(err, SimError::RoundLimitExceeded { limit: 5 });
        assert_eq!(sim.nodes()[2].dist, None);
    }

    #[test]
    fn stats_count_messages_and_bytes() {
        let g = generators::path(3);
        let mut sim = Simulator::new(&g, |_, _| FloodDist::fresh());
        let run = sim.run_to_quiescence(10).unwrap();
        // Round 0: node 0 broadcasts to 1 neighbor. Round 1: node 1
        // broadcasts to 2 neighbors. Round 2: node 2 broadcasts to 1.
        assert_eq!(run.total_messages, 1 + 2 + 1);
        assert_eq!(run.total_bytes, 4);
        assert_eq!(run.max_edge_bytes, 1);
    }

    #[derive(Debug, Clone)]
    struct Shout {
        payload: usize,
    }

    impl Protocol for Shout {
        fn start(&mut self, _ctx: &Ctx<'_>, out: &mut Outbox<'_>) {
            out.broadcast(&vec![0u8; self.payload]);
        }
        fn round(&mut self, _ctx: &Ctx<'_>, _incoming: Inbox<'_>, _out: &mut Outbox<'_>) {}
        fn is_halted(&self) -> bool {
            true
        }
    }

    #[test]
    fn congest_limit_enforced() {
        let g = generators::path(2);
        let mut sim = Simulator::new(&g, |_, _| Shout { payload: 17 })
            .with_limit(CongestLimit::PerEdgeBytes(16));
        let err = sim.step().unwrap_err();
        assert!(matches!(
            err,
            SimError::CongestViolation {
                bytes: 17,
                limit: 16,
                ..
            }
        ));
    }

    #[test]
    fn congest_limit_allows_exact_budget() {
        let g = generators::path(2);
        let mut sim = Simulator::new(&g, |_, _| Shout { payload: 16 })
            .with_limit(CongestLimit::PerEdgeBytes(16));
        assert!(sim.step().is_ok());
    }

    #[test]
    fn congest_error_is_identical_across_engines() {
        // The reported violation (lowest sender in round order) must not
        // depend on sharding or threading.
        let g = generators::grid2d(4, 4);
        let seq_err = Simulator::new(&g, |_, _| Shout { payload: 9 })
            .with_limit(CongestLimit::PerEdgeBytes(8))
            .step()
            .unwrap_err();
        for (threads, shards) in [(1, 4), (4, 4), (2, 7)] {
            let par_err = Simulator::new(&g, |_, _| Shout { payload: 9 })
                .with_limit(CongestLimit::PerEdgeBytes(8))
                .with_engine(Engine::Parallel { threads, shards })
                .step()
                .unwrap_err();
            assert_eq!(seq_err, par_err, "threads {threads} shards {shards}");
        }
    }

    struct BadAddress;

    impl Protocol for BadAddress {
        fn start(&mut self, ctx: &Ctx<'_>, out: &mut Outbox<'_>) {
            if ctx.id == 0 {
                out.unicast(2, b""); // 2 is not a neighbor of 0
            }
        }
        fn round(&mut self, _ctx: &Ctx<'_>, _incoming: Inbox<'_>, _out: &mut Outbox<'_>) {}
    }

    #[test]
    fn unicast_to_non_neighbor_is_rejected() {
        let g = generators::path(3); // 0-1-2
        let mut sim = Simulator::new(&g, |_, _| BadAddress);
        assert_eq!(
            sim.step().unwrap_err(),
            SimError::NotNeighbor { from: 0, to: 2 }
        );
    }

    #[test]
    fn multicast_to_non_neighbor_is_rejected() {
        struct BadMulticast;
        impl Protocol for BadMulticast {
            fn start(&mut self, ctx: &Ctx<'_>, out: &mut Outbox<'_>) {
                if ctx.id == 0 {
                    out.multicast(&[1, 2], b""); // 2 is not adjacent
                }
            }
            fn round(&mut self, _: &Ctx<'_>, _: Inbox<'_>, _: &mut Outbox<'_>) {}
        }
        let g = generators::path(3);
        let mut sim = Simulator::new(&g, |_, _| BadMulticast);
        assert_eq!(
            sim.step().unwrap_err(),
            SimError::NotNeighbor { from: 0, to: 2 }
        );
    }

    #[test]
    fn two_unicasts_on_one_edge_share_budget() {
        struct TwoMessages;
        impl Protocol for TwoMessages {
            fn start(&mut self, ctx: &Ctx<'_>, out: &mut Outbox<'_>) {
                if ctx.id == 0 {
                    out.unicast(1, &[0u8; 10]);
                    out.unicast(1, &[0u8; 10]);
                }
            }
            fn round(&mut self, _: &Ctx<'_>, _: Inbox<'_>, _: &mut Outbox<'_>) {}
            fn is_halted(&self) -> bool {
                true
            }
        }
        let g = generators::path(2);
        let mut sim =
            Simulator::new(&g, |_, _| TwoMessages).with_limit(CongestLimit::PerEdgeBytes(16));
        let err = sim.step().unwrap_err();
        assert!(matches!(err, SimError::CongestViolation { bytes: 20, .. }));
    }

    #[test]
    fn multicast_charges_every_listed_edge() {
        // A duplicate target is charged (and delivered) twice, exactly as
        // two unicasts would be.
        struct DoubleTap;
        impl Protocol for DoubleTap {
            fn start(&mut self, ctx: &Ctx<'_>, out: &mut Outbox<'_>) {
                if ctx.id == 0 {
                    out.multicast(&[1, 1], &[0u8; 10]);
                }
            }
            fn round(&mut self, _: &Ctx<'_>, _: Inbox<'_>, _: &mut Outbox<'_>) {}
            fn is_halted(&self) -> bool {
                true
            }
        }
        let g = generators::path(2);
        let mut sim =
            Simulator::new(&g, |_, _| DoubleTap).with_limit(CongestLimit::PerEdgeBytes(16));
        let err = sim.step().unwrap_err();
        assert!(matches!(err, SimError::CongestViolation { bytes: 20, .. }));
    }

    #[test]
    fn incoming_is_ordered_by_sender_id() {
        /// Every node broadcasts its own id once; receivers record order.
        #[derive(Debug, Clone)]
        struct Gossip {
            heard: Vec<usize>,
        }
        impl Protocol for Gossip {
            fn start(&mut self, ctx: &Ctx<'_>, out: &mut Outbox<'_>) {
                out.broadcast(&[ctx.id as u8]);
            }
            fn round(&mut self, _ctx: &Ctx<'_>, incoming: Inbox<'_>, _out: &mut Outbox<'_>) {
                for m in incoming.iter() {
                    self.heard.push(m.from());
                }
            }
            fn is_halted(&self) -> bool {
                true
            }
        }
        let g = generators::star(6); // center 0 hears 1..=5
        for engine in [
            Engine::Sequential,
            Engine::Parallel {
                threads: 3,
                shards: 4,
            },
        ] {
            let mut sim =
                Simulator::new(&g, |_, _| Gossip { heard: Vec::new() }).with_engine(engine);
            sim.run_rounds(2).unwrap();
            assert_eq!(sim.nodes()[0].heard, vec![1, 2, 3, 4, 5]);
            for v in 1..6 {
                assert_eq!(sim.nodes()[v].heard, vec![0]);
            }
        }
    }

    #[test]
    fn multicast_delivers_in_list_order_within_sender() {
        // The center multicasts to a permuted neighbor list; delivery
        // order per recipient is (sender, send order), and each listed
        // target gets exactly one copy regardless of sharding.
        #[derive(Debug, Clone)]
        struct Center {
            heard: Vec<usize>,
        }
        impl Protocol for Center {
            fn start(&mut self, ctx: &Ctx<'_>, out: &mut Outbox<'_>) {
                if ctx.id == 0 {
                    out.multicast(&[5, 2, 4], b"m");
                }
            }
            fn round(&mut self, _ctx: &Ctx<'_>, incoming: Inbox<'_>, _out: &mut Outbox<'_>) {
                for m in incoming.iter() {
                    self.heard.push(m.from());
                }
            }
            fn is_halted(&self) -> bool {
                true
            }
        }
        let g = generators::star(6);
        for shards in [1, 3, 6] {
            let mut sim = Simulator::new(&g, |_, _| Center { heard: Vec::new() })
                .with_engine(Engine::Parallel { threads: 2, shards });
            sim.run_rounds(2).unwrap();
            for v in 1..6 {
                let expect: Vec<usize> = if [5, 2, 4].contains(&v) {
                    vec![0]
                } else {
                    vec![]
                };
                assert_eq!(sim.nodes()[v].heard, expect, "vertex {v} shards {shards}");
            }
            assert_eq!(sim.stats().total_messages, 3);
        }
    }

    #[test]
    fn run_rounds_executes_exact_count() {
        let g = generators::cycle(5);
        let mut sim = Simulator::new(&g, |_, _| FloodDist::fresh());
        let run = sim.run_rounds(3).unwrap();
        assert_eq!(run.rounds, 3);
        assert_eq!(sim.rounds_executed(), 3);
    }

    #[test]
    fn zero_round_budget_only_succeeds_when_quiescent() {
        let g = generators::path(2);
        let mut sim = Simulator::new(&g, |_, _| FloodDist::fresh());
        // Fresh simulator: inbox empty but dist=None nodes are not halted.
        assert_eq!(
            sim.run_to_quiescence(0).unwrap_err(),
            SimError::RoundLimitExceeded { limit: 0 }
        );
        sim.run_to_quiescence(5).unwrap();
        // Now quiescent: a zero budget is satisfied without stepping.
        let run = sim.run_to_quiescence(0).unwrap();
        assert_eq!(run.rounds, 0);
    }

    #[test]
    fn protocol_panic_propagates_instead_of_deadlocking_workers() {
        // A node panicking mid-round unwinds one worker while the others
        // sit at a phase barrier; the poisoned barrier must release them
        // so the panic propagates like it does on the sequential engine.
        #[derive(Debug, Clone)]
        struct PanicAt(usize);
        impl Protocol for PanicAt {
            fn start(&mut self, ctx: &Ctx<'_>, out: &mut Outbox<'_>) {
                assert!(ctx.id != self.0, "protocol bug at node {}", self.0);
                out.broadcast(b"x");
            }
            fn round(&mut self, _: &Ctx<'_>, _: Inbox<'_>, _: &mut Outbox<'_>) {}
        }
        let g = generators::grid2d(6, 6);
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut sim = Simulator::new(&g, |_, _| PanicAt(30)).with_engine(Engine::Parallel {
                threads: 4,
                shards: 4,
            });
            let _ = sim.step();
        }));
        assert!(panicked.is_err());
    }

    #[test]
    fn resharding_mid_run_preserves_pending_messages() {
        // Step once sequentially (messages now in flight), then reshard;
        // the flood must still reach everyone with correct distances.
        let g = generators::grid2d(5, 4);
        let mut sim = Simulator::new(&g, |_, _| FloodDist::fresh());
        sim.step().unwrap();
        let mut sim = sim.with_engine(Engine::Parallel {
            threads: 2,
            shards: 5,
        });
        sim.run_to_quiescence(g.vertex_count()).unwrap();
        let dists: Vec<_> = sim.nodes().iter().map(|n| n.dist).collect();
        assert_eq!(dists, netdecomp_graph::bfs::distances(&g, 0));
    }

    #[test]
    fn empty_graph_steps_trivially() {
        let g = netdecomp_graph::Graph::empty(0);
        let mut sim = Simulator::new(&g, |_, _| FloodDist::fresh()).with_engine(Engine::Parallel {
            threads: 4,
            shards: 4,
        });
        let run = sim.run_to_quiescence(1).unwrap();
        assert_eq!(run.total_messages, 0);
        assert!(sim.is_quiescent());
    }

    #[test]
    fn ctx_exposes_neighbors() {
        let g = generators::star(4);
        let sim = Simulator::new(&g, |id, ctx| {
            if id == 0 {
                assert_eq!(ctx.degree(), 3);
                assert_eq!(ctx.neighbors(), &[1, 2, 3]);
            } else {
                assert_eq!(ctx.degree(), 1);
            }
            assert_eq!(ctx.n, 4);
            Shout { payload: 0 }
        });
        assert_eq!(sim.graph().vertex_count(), 4);
        assert!(!sim.is_quiescent() || sim.nodes().len() == 4);
    }

    #[test]
    fn engine_accessor_reports_configuration() {
        let g = generators::path(2);
        let engine = Engine::Parallel {
            threads: 2,
            shards: 2,
        };
        let sim = Simulator::new(&g, |_, _| BadAddress).with_engine(engine);
        assert_eq!(sim.engine(), engine);
        // Shards clamp to the vertex count.
        assert_eq!(sim.shard_plan().count(), 2);
    }

    impl Snapshot for FloodDist {
        fn save_state(&self) -> Bytes {
            let mut out = Vec::with_capacity(17);
            out.push(u8::from(self.dist.is_some()));
            out.extend_from_slice(&(self.dist.unwrap_or(0) as u64).to_le_bytes());
            out.extend_from_slice(&(self.rounds_seen as u64).to_le_bytes());
            Bytes::from(out)
        }

        fn load_state(&mut self, bytes: &[u8]) -> bool {
            if bytes.len() != 17 {
                return false;
            }
            let word = |at: usize| {
                u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes")) as usize
            };
            self.dist = (bytes[0] != 0).then(|| word(1));
            self.rounds_seen = word(9);
            true
        }
    }

    /// The tentpole invariant end to end, in process: snapshot every
    /// shard mid-run, rebuild a fresh simulator, restore + reposition,
    /// and the resumed run must finish bit-identically to the
    /// uninterrupted one.
    #[test]
    fn a_checkpoint_round_trip_resumes_bit_identically() {
        let g = generators::grid2d(5, 5);
        let engine = Engine::Parallel {
            threads: 2,
            shards: 3,
        };
        let cut = 3;
        let tail = 6;

        let mut full = Simulator::new(&g, |_, _| FloodDist::fresh()).with_engine(engine);
        full.run_rounds(cut).unwrap();
        let shards = full.shard_plan().count();
        let payloads: Vec<Vec<u8>> = (0..shards).map(|k| full.snapshot_shard(k)).collect();
        full.run_rounds(tail).unwrap();

        let mut resumed = Simulator::new(&g, |_, _| FloodDist::fresh()).with_engine(engine);
        for (k, payload) in payloads.iter().enumerate() {
            assert!(resumed.restore_shard(k, payload), "shard {k} restore");
        }
        resumed.resume_at(cut);
        resumed.run_rounds(tail).unwrap();

        assert_eq!(resumed.nodes(), full.nodes(), "resumed run diverged");
        assert_eq!(resumed.rounds_executed(), full.rounds_executed());
    }

    /// A message-driven single-source flood: a node learns its distance
    /// from the first copy it hears and relays once; the payload carries
    /// the sender's distance.
    #[derive(Debug, Clone, PartialEq, Eq)]
    struct Frontier {
        dist: Option<u32>,
    }

    impl Protocol for Frontier {
        const MESSAGE_DRIVEN: bool = true;

        fn start(&mut self, ctx: &Ctx<'_>, out: &mut Outbox<'_>) {
            if ctx.id == 0 {
                self.dist = Some(0);
                out.broadcast(&0u32.to_le_bytes());
            }
        }

        fn round(&mut self, _ctx: &Ctx<'_>, incoming: Inbox<'_>, out: &mut Outbox<'_>) {
            if self.dist.is_some() {
                return;
            }
            if let Some(first) = incoming.iter().next() {
                let heard = first.payload().try_into().expect("4-byte distance");
                let dist = u32::from_le_bytes(heard) + 1;
                self.dist = Some(dist);
                out.broadcast(&dist.to_le_bytes());
            }
        }

        fn is_halted(&self) -> bool {
            self.dist.is_some()
        }
    }

    impl Snapshot for Frontier {
        fn save_state(&self) -> Bytes {
            Bytes::from(self.dist.map_or(u64::MAX, u64::from).to_le_bytes().to_vec())
        }

        fn load_state(&mut self, bytes: &[u8]) -> bool {
            let Ok(raw) = <[u8; 8]>::try_from(bytes) else {
                return false;
            };
            self.dist = match u64::from_le_bytes(raw) {
                u64::MAX => None,
                d => u32::try_from(d).ok(),
            };
            true
        }
    }

    /// The frontier flood steps only the nodes that heard something: on
    /// a path that is the (at most two) neighbors of the last relay,
    /// where full stepping would run all 10 000 nodes every round.
    #[test]
    fn a_message_driven_flood_steps_only_its_frontier() {
        let g = generators::path(10_000);
        for engine in [
            Engine::Sequential,
            Engine::Parallel {
                threads: 1,
                shards: 3,
            },
            Engine::Framed {
                threads: 1,
                shards: 3,
                transport: FrameTransport::Loopback,
            },
        ] {
            let mut sim = Simulator::new(&g, |_, _| Frontier { dist: None }).with_engine(engine);
            sim.step().unwrap();
            assert_eq!(
                sim.delivery_work().nodes_stepped,
                10_000,
                "{engine:?} start"
            );
            let mut rounds = 1;
            while !sim.is_quiescent() {
                sim.step().unwrap();
                let stepped = sim.delivery_work().nodes_stepped;
                assert!(stepped <= 2, "{engine:?} round {rounds} stepped {stepped}");
                rounds += 1;
            }
            // 9 999 relays, plus the last node's echo back.
            assert_eq!(rounds, 10_001, "{engine:?}");
            assert!(sim
                .nodes()
                .iter()
                .enumerate()
                .all(|(v, n)| n.dist == Some(v as u32)));
        }
    }

    /// `Ctx` stays shareable across threads: a protocol may hand `&Ctx`
    /// to threads of its own.
    #[test]
    fn ctx_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Ctx<'_>>();
    }

    /// A protocol that claims to be message-driven but sends on an empty
    /// inbox breaks the contract: `Verify`'s reference steps every node,
    /// so the silent senders it skipped surface as nondeterminism — on
    /// the sequential engine too.
    #[test]
    fn verification_catches_a_message_driven_protocol_that_sends_on_silence() {
        #[derive(Debug, Clone)]
        struct Chatter;
        impl Protocol for Chatter {
            const MESSAGE_DRIVEN: bool = true;

            fn start(&mut self, ctx: &Ctx<'_>, out: &mut Outbox<'_>) {
                if ctx.id == 0 {
                    out.broadcast(b"c");
                }
            }

            fn round(&mut self, _ctx: &Ctx<'_>, _incoming: Inbox<'_>, out: &mut Outbox<'_>) {
                out.broadcast(b"c");
            }
        }
        let g = generators::path(4);
        for engine in [
            Engine::Sequential,
            Engine::Parallel {
                threads: 2,
                shards: 2,
            },
            Engine::Framed {
                threads: 1,
                shards: 2,
                transport: FrameTransport::Loopback,
            },
        ] {
            let mut sim = Simulator::new(&g, |_, _| Chatter).with_engine(engine);
            sim.step_verified()
                .expect("start is stepped for every node");
            // Round 1 wakes only vertex 1; the reference also runs the
            // silent vertices 0, 2 and 3, and vertex 0 is the first whose
            // sends differ.
            assert_eq!(
                sim.step_verified(),
                Err(SimError::Nondeterminism {
                    round: 1,
                    vertex: 0
                }),
                "{engine:?}"
            );
        }
    }

    /// `restart` names the start round's nodes: a message-driven
    /// protocol's start round steps exactly those, and the run goes on as
    /// from a fresh start. A fresh simulator, `resume_at(0)` (which drops
    /// a start list) and a protocol that is not message-driven still
    /// start every node.
    #[test]
    fn a_start_list_steps_only_the_listed_nodes() {
        let g = generators::grid2d(6, 7);
        let n = g.vertex_count();
        for engine in [
            Engine::Sequential,
            Engine::Parallel {
                threads: 2,
                shards: 3,
            },
            Engine::Framed {
                threads: 1,
                shards: 3,
                transport: FrameTransport::Loopback,
            },
        ] {
            let mut fresh = Simulator::new(&g, |_, _| Frontier { dist: None }).with_engine(engine);
            fresh.step().unwrap();
            assert_eq!(fresh.delivery_work().nodes_stepped, n, "{engine:?}");
            let stats = fresh.run_to_quiescence(2 * n).unwrap();

            let mut sim = Simulator::new(&g, |_, _| Frontier { dist: None }).with_engine(engine);
            sim.run_to_quiescence(2 * n).unwrap();
            for listed in [true, false] {
                for node in sim.nodes_mut() {
                    node.dist = None;
                }
                sim.restart(&[0, 17, 0]);
                if !listed {
                    sim.resume_at(0);
                }
                sim.step().unwrap();
                let want = if listed { 2 } else { n };
                assert_eq!(sim.delivery_work().nodes_stepped, want, "{engine:?}");
                assert_eq!(sim.run_to_quiescence(2 * n).unwrap(), stats, "{engine:?}");
                assert_eq!(sim.nodes(), fresh.nodes(), "{engine:?}");
            }

            let mut flood = Simulator::new(&g, |_, _| FloodDist::fresh()).with_engine(engine);
            flood.restart(&[0]);
            flood.step().unwrap();
            assert_eq!(flood.delivery_work().nodes_stepped, n, "{engine:?}");
        }
    }

    /// A message-driven node left off the start list must do nothing in
    /// `start`: `Verify`'s reference starts every node, so an unlisted
    /// sender fails the start round.
    #[test]
    fn verification_catches_an_unlisted_start_that_sends() {
        let g = generators::path(5);
        for engine in [
            Engine::Sequential,
            Engine::Parallel {
                threads: 2,
                shards: 2,
            },
            Engine::Framed {
                threads: 1,
                shards: 2,
                transport: FrameTransport::Loopback,
            },
        ] {
            let mut sim = Simulator::new(&g, |_, _| Frontier { dist: None }).with_engine(engine);
            sim.restart(&[2, 4]);
            assert_eq!(
                sim.step_verified(),
                Err(SimError::Nondeterminism {
                    round: 0,
                    vertex: 0
                }),
                "{engine:?}"
            );
            sim.restart(&[0, 2]);
            sim.step_verified().expect("every sender is listed");
        }
    }

    /// A checkpoint cut mid-flood restores the wake list with the
    /// inboxes: the resumed message-driven run steps the same nodes,
    /// delivers the same messages to every vertex and ends bit-identical.
    #[test]
    fn a_mid_flood_checkpoint_of_a_message_driven_protocol_resumes_bit_identically() {
        let g = generators::grid2d(9, 7);
        for engine in [
            Engine::Sequential,
            Engine::Parallel {
                threads: 2,
                shards: 3,
            },
        ] {
            let (cut, tail) = (4, 12);
            let mut full = Simulator::new(&g, |_, _| Frontier { dist: None }).with_engine(engine);
            full.run_rounds(cut).unwrap();
            let shards = full.shard_plan().count();
            let payloads: Vec<Vec<u8>> = (0..shards).map(|k| full.snapshot_shard(k)).collect();

            let mut resumed =
                Simulator::new(&g, |_, _| Frontier { dist: None }).with_engine(engine);
            for (k, payload) in payloads.iter().enumerate() {
                assert!(resumed.restore_shard(k, payload), "shard {k} restore");
            }
            resumed.resume_at(cut);
            for round in cut..cut + tail {
                for v in 0..g.vertex_count() {
                    assert!(
                        resumed.incoming(v) == full.incoming(v).to_vec()[..],
                        "{engine:?} round {round} vertex {v}"
                    );
                }
                assert_eq!(resumed.is_quiescent(), full.is_quiescent());
                assert_eq!(resumed.step(), full.step(), "{engine:?} round {round}");
                assert_eq!(
                    resumed.delivery_work().nodes_stepped,
                    full.delivery_work().nodes_stepped,
                    "{engine:?} round {round}"
                );
            }
            assert!(full.is_quiescent(), "the flood finished within the tail");
            assert_eq!(resumed.nodes(), full.nodes(), "{engine:?}");
            assert_eq!(resumed.stats(), full.stats(), "{engine:?}");
        }
    }

    /// A corrupted payload is refused (`false`) instead of trusted or
    /// panicking, for any prefix truncation or byte flip.
    #[test]
    fn a_mangled_snapshot_payload_is_refused() {
        let g = generators::path(6);
        let mut sim = Simulator::new(&g, |_, _| FloodDist::fresh());
        sim.run_rounds(2).unwrap();
        let good = sim.snapshot_shard(0);
        assert!(sim.restore_shard(0, &good), "pristine payload restores");
        for cut in [0, 1, good.len() / 2, good.len().saturating_sub(1)] {
            assert!(!sim.restore_shard(0, &good[..cut]), "truncation at {cut}");
        }
        let mut flipped = good.clone();
        flipped[0] ^= 0xff;
        assert!(!sim.restore_shard(0, &flipped), "flipped node count");
    }
}
