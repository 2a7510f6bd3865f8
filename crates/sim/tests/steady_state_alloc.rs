//! Steady-state rounds must not allocate: the per-shard send logs and
//! their payload arenas, the slab-backed inboxes — the compact slot
//! vector and the payload slab's arena and span table — counters, and
//! cursor tables are all reused in place. Copying a payload into a warm
//! slab is an append within capacity; scattering a copy is a plain 8-byte
//! slot write. This
//! pins the "inbox slot reuse" guarantee with a counting global allocator
//! rather than by inspection, for every in-process delivery backend.
//!
//! Allocations are counted per thread, so tests running concurrently
//! under the default parallel test runner cannot leak into each other's
//! measured windows. Every measured engine runs with `threads: 1`, so
//! its rounds execute on the test's own thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use bytes::BufMut;
use netdecomp_graph::generators;
use netdecomp_sim::wire::WireReader;
use netdecomp_sim::{
    Codec, Ctx, Engine, FrameTransport, Inbox, Outbox, Protocol, Simulator, Typed, TypedInbox,
    TypedOutbox, TypedProtocol,
};

/// System allocator that counts every allocation (including reallocs)
/// made by the calling thread.
struct CountingAlloc;

thread_local! {
    /// Allocations made by this thread. `const`-initialized and free of
    /// destructors, so reading it never allocates itself.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count_allocation() {
    // `try_with` fails only while the thread is being torn down, after
    // any measured window has closed.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

/// Allocations the calling thread has made so far.
fn allocations() -> usize {
    ALLOCATIONS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// Constant-volume workload: every node broadcasts the same preencoded
/// payload each round (a copy into the warm send arena, not an
/// allocation) and reads everything it hears.
#[derive(Debug, Clone)]
struct SteadyBroadcast {
    payload: Vec<u8>,
    heard: usize,
}

impl Protocol for SteadyBroadcast {
    fn start(&mut self, _ctx: &Ctx<'_>, out: &mut Outbox<'_>) {
        out.broadcast(&self.payload);
    }

    fn round(&mut self, _ctx: &Ctx<'_>, incoming: Inbox<'_>, out: &mut Outbox<'_>) {
        self.heard += incoming.len();
        out.broadcast(&self.payload);
    }
}

/// Warm the simulator past every buffer's high-water mark (including the
/// engine's amortized per-round stats vector), then require a window of
/// further rounds to allocate nothing at all.
fn assert_steady_state_is_allocation_free(engine: Engine) {
    let g = generators::grid2d(12, 12);
    let mut sim = Simulator::new(&g, |id, _| SteadyBroadcast {
        payload: vec![id as u8; 8],
        heard: 0,
    })
    .with_engine(engine);
    // 300 rounds leave the per-round stats vector with capacity >= 512,
    // so the 100 measured rounds cannot trigger its amortized growth.
    for _ in 0..300 {
        sim.step().expect("no limits configured");
    }
    let before = allocations();
    for _ in 0..100 {
        sim.step().expect("no limits configured");
    }
    let during = allocations() - before;
    assert_eq!(
        during, 0,
        "steady-state rounds allocated {during} times under {engine:?}"
    );
    assert!(sim.nodes().iter().all(|n| n.heard > 0));
    // The slab registers payloads per *message*, never per copy: every
    // broadcast lands one segment ref — and therefore one registration —
    // per destination shard it touches, while each of the 2m copies is
    // only an 8-byte slot write.
    let work = sim.delivery_work();
    assert_eq!(work.payload_registrations, work.refs_scanned);
    assert_eq!(work.copies_delivered, 2 * g.edge_count());
    assert!(work.payload_registrations < work.copies_delivered);
    assert_eq!(work.inbox_slot_bytes, 8 * work.copies_delivered);
}

#[test]
fn sequential_steady_state_rounds_do_not_allocate() {
    assert_steady_state_is_allocation_free(Engine::Sequential);
}

#[test]
fn sharded_steady_state_rounds_do_not_allocate() {
    // Single worker thread (no per-round thread spawns — the vendored
    // rayon shim's scoped threads are the one remaining per-round
    // allocation under multi-threaded engines), but the full sharded
    // delivery path — sender-side routing included — with several shards.
    assert_steady_state_is_allocation_free(Engine::Parallel {
        threads: 1,
        shards: 4,
    });
}

#[test]
fn framed_loopback_steady_state_rounds_do_not_allocate() {
    // The whole frame seam — encode (with checksum), loopback handoff,
    // decode, the payload copy into the slab — must recycle every buffer:
    // senders reclaim last round's frame buffers, and receivers reuse
    // their gather/decode tables. Shipping from inside
    // the send half, before the round's barrier, must not add so much as
    // a counter allocation.
    assert_steady_state_is_allocation_free(Engine::Framed {
        threads: 1,
        shards: 4,
        transport: FrameTransport::Loopback,
    });
}

#[test]
fn traced_framed_steady_state_rounds_do_not_allocate() {
    // The trace plane must be free in steady state too: rings are
    // preallocated at construction and commits overwrite slots in place,
    // so enabling per-round phase timing adds clock reads but not a
    // single allocation per round.
    const WINDOW: usize = 32;
    let g = generators::grid2d(12, 12);
    let mut sim = Simulator::new(&g, |id, _| SteadyBroadcast {
        payload: vec![id as u8; 8],
        heard: 0,
    })
    .with_engine(Engine::Framed {
        threads: 1,
        shards: 4,
        transport: FrameTransport::Loopback,
    })
    .with_trace(WINDOW);
    assert!(sim.trace_enabled());
    for _ in 0..300 {
        sim.step().expect("no limits configured");
    }
    let before = allocations();
    for _ in 0..100 {
        sim.step().expect("no limits configured");
    }
    let during = allocations() - before;
    assert_eq!(
        during, 0,
        "traced steady-state rounds allocated {during} times"
    );
    // Snapshotting allocates, so inspect the rings only after the
    // measured window: every shard retains its last WINDOW rounds with
    // nonzero phase timings.
    let traces = sim.flight_traces();
    assert_eq!(traces.len(), 4, "every shard ring must be enabled");
    for (shard, records) in traces {
        assert_eq!(records.len(), WINDOW, "shard {shard} ring must be full");
        let last = records.last().expect("ring is full");
        assert_eq!(last.round, 399, "shard {shard} must hold the last round");
        assert!(
            records.iter().all(|r| r.busy_ns() > 0),
            "shard {shard} records must carry phase timings"
        );
        assert!(
            records.windows(2).all(|w| w[0].round + 1 == w[1].round),
            "shard {shard} records must be chronological"
        );
    }
}

/// Unicast workload rotating through each node's neighbors: exercises the
/// router's flat vertex→shard path with per-round-varying bucket sizes
/// (the rotation cycles within the warmup, so every bucket's high-water
/// mark is reached before measuring).
#[derive(Debug, Clone)]
struct SteadyUnicast {
    payload: Vec<u8>,
    tick: usize,
}

impl Protocol for SteadyUnicast {
    fn start(&mut self, ctx: &Ctx<'_>, out: &mut Outbox<'_>) {
        out.unicast(ctx.neighbors()[0], &self.payload);
    }

    fn round(&mut self, ctx: &Ctx<'_>, _incoming: Inbox<'_>, out: &mut Outbox<'_>) {
        self.tick += 1;
        out.unicast(ctx.neighbors()[self.tick % ctx.degree()], &self.payload);
    }
}

fn assert_unicast_steady_state_is_allocation_free(engine: Engine) {
    let g = generators::grid2d(12, 12);
    let mut sim = Simulator::new(&g, |id, _| SteadyUnicast {
        payload: vec![id as u8; 8],
        tick: id,
    })
    .with_engine(engine);
    for _ in 0..300 {
        sim.step().expect("no limits configured");
    }
    let before = allocations();
    for _ in 0..100 {
        sim.step().expect("no limits configured");
    }
    let during = allocations() - before;
    assert_eq!(
        during, 0,
        "unicast steady-state rounds allocated {during} times under {engine:?}"
    );
    // One unicast per node per round: refs, registrations, copies, and
    // slots all sit at exactly n.
    let work = sim.delivery_work();
    let n = g.vertex_count();
    assert_eq!(work.payload_registrations, n);
    assert_eq!(work.refs_scanned, n);
    assert_eq!(work.copies_delivered, n);
    assert_eq!(work.inbox_slot_bytes, 8 * n);
}

#[test]
fn sharded_unicast_steady_state_rounds_do_not_allocate() {
    assert_unicast_steady_state_is_allocation_free(Engine::Parallel {
        threads: 1,
        shards: 8,
    });
}

#[test]
fn framed_loopback_unicast_steady_state_rounds_do_not_allocate() {
    // Per-round-varying bucket (and therefore frame) sizes: the rotation
    // cycles within the warmup, so every frame buffer's high-water size
    // is reached before measuring.
    assert_unicast_steady_state_is_allocation_free(Engine::Framed {
        threads: 1,
        shards: 8,
        transport: FrameTransport::Loopback,
    });
}

/// A carve-shaped typed message: `(origin: u32, score: f64, hops: u16)`,
/// 14 bytes on the wire.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Hop {
    origin: u32,
    score: f64,
    hops: u16,
}

struct HopCodec;

impl Codec for HopCodec {
    type Msg = Hop;

    fn encode(msg: &Hop, buf: &mut Vec<u8>) {
        buf.put_u32_le(msg.origin);
        buf.put_f64_le(msg.score);
        buf.put_u16_le(msg.hops);
    }

    fn decode(payload: &[u8]) -> Option<Hop> {
        let mut r = WireReader::new(payload);
        let hop = Hop {
            origin: r.u32()?,
            score: r.f64()?,
            hops: r.u16()?,
        };
        r.is_exhausted().then_some(hop)
    }
}

/// A message-driven typed relay: every round each node decodes what it
/// heard and broadcasts a freshly encoded message (its best score, aged
/// by the round), so every send encodes a new payload — the CONGEST
/// carve's relay pattern at constant volume.
#[derive(Debug, Clone)]
struct TypedRelay {
    best: Hop,
}

impl TypedProtocol for TypedRelay {
    type Codec = HopCodec;
    const MESSAGE_DRIVEN: bool = true;

    fn start(&mut self, _ctx: &Ctx<'_>, out: &mut TypedOutbox<'_, HopCodec>) {
        out.broadcast(&self.best);
    }

    fn round(
        &mut self,
        _ctx: &Ctx<'_>,
        incoming: TypedInbox<'_, HopCodec>,
        out: &mut TypedOutbox<'_, HopCodec>,
    ) {
        for (_, hop) in incoming {
            if hop.score > self.best.score {
                self.best = hop;
            }
        }
        self.best.hops = self.best.hops.wrapping_add(1);
        self.best.score -= 1.0;
        out.broadcast(&self.best);
    }
}

/// Typed relays encode a fresh payload per send straight into the send
/// arena: once warm, a round allocates nothing, on the shared-memory
/// backends and on the framed one.
fn assert_typed_relay_is_allocation_free(engine: Engine) {
    let g = generators::grid2d(12, 12);
    let mut sim = Simulator::new(&g, |id, _| {
        Typed::new(TypedRelay {
            best: Hop {
                origin: id as u32,
                score: f64::from((id as u32).wrapping_mul(2_654_435_761) >> 8),
                hops: 0,
            },
        })
    })
    .with_engine(engine);
    for _ in 0..300 {
        sim.step().expect("no limits configured");
    }
    let before = allocations();
    for _ in 0..100 {
        sim.step().expect("no limits configured");
    }
    let during = allocations() - before;
    assert_eq!(
        during, 0,
        "typed relay rounds allocated {during} times under {engine:?}"
    );
    // Everyone hears something every round, so the wake list is every
    // node; each broadcast still reaches all 2m edge ends.
    let work = sim.delivery_work();
    assert_eq!(work.nodes_stepped, g.vertex_count());
    assert_eq!(work.copies_delivered, 2 * g.edge_count());
    assert_eq!(
        sim.stats().per_round.last().map(|r| r.bytes),
        Some(14 * 2 * g.edge_count())
    );
}

#[test]
fn sequential_typed_relay_rounds_do_not_allocate() {
    assert_typed_relay_is_allocation_free(Engine::Sequential);
}

#[test]
fn sharded_typed_relay_rounds_do_not_allocate() {
    assert_typed_relay_is_allocation_free(Engine::Parallel {
        threads: 1,
        shards: 4,
    });
}

#[test]
fn framed_loopback_typed_relay_rounds_do_not_allocate() {
    assert_typed_relay_is_allocation_free(Engine::Framed {
        threads: 1,
        shards: 4,
        transport: FrameTransport::Loopback,
    });
}
