//! Sequential vs. sharded-parallel `Simulator::step` throughput on large
//! graphs, plus delivery-phase micro-benchmarks for both routing regimes.
//!
//! Three groups per graph:
//!
//! - `engine_step/*` — a carve-shaped workload: every node broadcasts a
//!   14-byte wire entry each round and decodes + rank-updates everything
//!   it hears, so compute and delivery both do real work.
//! - `engine_delivery/*` — the broadcast-heavy delivery-bound regime:
//!   every node broadcasts one preencoded payload (a reference-count
//!   bump) and ignores what it hears, so a step is almost entirely the
//!   routed bucket-sort delivery (2m copies per round, routed through the
//!   precomputed adjacency segmentation).
//! - `engine_delivery_unicast/*` — the unicast-heavy regime: every node
//!   sends one preencoded payload to a rotating neighbor (n copies per
//!   round, routed message-by-message through the flat vertex→shard
//!   table).
//!
//! Delivery variants pin `threads: 1` and sweep the shard count *and the
//! delivery backend*, which isolates the per-stage overheads on one
//! core: `sharded_k` vs `sharded_1` prices recipient-range sharding,
//! `framed_loopback_k` vs `sharded_k` prices the frame seam (bucket
//! encode + checksum + decode + payload slicing), and `framed_socket_4`
//! adds a real kernel socket hop. Each delivery variant also reports the
//! compute phase's `nodes_stepped_per_round` and the place phase's
//! measured work counters (`place_refs_per_round`,
//! `place_copies_per_round`, and for framed variants
//! `frame_bytes_per_round` — the volume a process-per-shard transport
//! would put on the wire — plus `checksum_ns_per_round`, the decode-side
//! frame validation time) so the header-work bound is visible
//! in the checked-in JSON rather than only in prose: unicast refs stay
//! exactly flat (= messages) across the shard sweep, and broadcast refs
//! grow only with adjacency-segment fragmentation — bounded by `copies`
//! (`min(degree, shards)` per broadcast), never by a `shards ×` rescan
//! multiplier.
//!
//! Results (with the machine's available parallelism) are written to the
//! file named by `NETDECOMP_BENCH_JSON`; the checked-in
//! `BENCH_engine.json` at the repo root records one such run.
//!
//! ```text
//! NETDECOMP_BENCH_JSON=BENCH_engine.json \
//!     cargo bench -p netdecomp-bench --bench engine
//! ```

use bytes::BufMut;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use netdecomp_bench::workloads::Family;
use netdecomp_graph::Graph;
use netdecomp_sim::wire::WireReader;
use netdecomp_sim::{
    Codec, Ctx, Engine, FrameTransport, Inbox, Outbox, Protocol, Simulator, Typed, TypedInbox,
    TypedOutbox, TypedProtocol,
};

/// A carve-like wire entry: `(origin: u32, score: f64, dist: u16)`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Entry {
    origin: u32,
    score: f64,
    dist: u16,
}

struct EntryCodec;

impl Codec for EntryCodec {
    type Msg = Entry;

    fn encode(e: &Entry, buf: &mut Vec<u8>) {
        buf.put_u32_le(e.origin);
        buf.put_f64_le(e.score);
        buf.put_u16_le(e.dist);
    }

    fn decode(payload: &[u8]) -> Option<Entry> {
        let mut r = WireReader::new(payload);
        let origin = r.u32()?;
        let score = r.f64()?;
        let dist = r.u16()?;
        r.is_exhausted().then_some(Entry {
            origin,
            score,
            dist,
        })
    }
}

/// Broadcasts its best-known entry every round; keeps a top-two ranking of
/// everything heard. Deterministic, never halts, constant message volume
/// (2m entries per round) — a steady-state `step` workload.
#[derive(Debug, Clone)]
struct Ranker {
    best: Entry,
    second: Option<Entry>,
}

impl Ranker {
    fn new(id: usize) -> Self {
        Ranker {
            best: Entry {
                origin: id as u32,
                // Deterministic pseudo-random initial score.
                score: f64::from((id as u32).wrapping_mul(2_654_435_761) >> 8),
                dist: 0,
            },
            second: None,
        }
    }

    fn offer(&mut self, e: Entry) {
        if e.score > self.best.score {
            self.second = Some(self.best);
            self.best = e;
        } else if e.origin != self.best.origin && self.second.is_none_or(|s| e.score > s.score) {
            self.second = Some(e);
        }
    }
}

impl TypedProtocol for Ranker {
    type Codec = EntryCodec;

    fn start(&mut self, _ctx: &Ctx<'_>, out: &mut TypedOutbox<'_, EntryCodec>) {
        out.broadcast(&self.best);
    }

    fn round(
        &mut self,
        _ctx: &Ctx<'_>,
        incoming: TypedInbox<'_, EntryCodec>,
        out: &mut TypedOutbox<'_, EntryCodec>,
    ) {
        for (_, mut e) in incoming {
            e.dist = e.dist.saturating_add(1);
            self.offer(e);
        }
        out.broadcast(&self.best);
    }
}

/// Delivery-bound steady-state workload: broadcast one shared payload,
/// read nothing, so stepping is dominated by the delivery bucket sort.
#[derive(Debug, Clone)]
struct Pulse {
    payload: &'static [u8],
}

impl Protocol for Pulse {
    fn start(&mut self, _ctx: &Ctx<'_>, out: &mut Outbox<'_>) {
        out.broadcast(self.payload);
    }

    fn round(&mut self, _ctx: &Ctx<'_>, _incoming: Inbox<'_>, out: &mut Outbox<'_>) {
        out.broadcast(self.payload);
    }
}

/// Unicast-heavy delivery-bound workload: one preencoded payload to a
/// rotating neighbor per round, read nothing — stepping is dominated by
/// per-message (vertex→shard) routing and singleton-ref delivery.
#[derive(Debug, Clone)]
struct Dart {
    payload: &'static [u8],
    tick: usize,
}

impl Protocol for Dart {
    fn start(&mut self, ctx: &Ctx<'_>, out: &mut Outbox<'_>) {
        if ctx.degree() > 0 {
            out.unicast(ctx.neighbors()[0], self.payload);
        }
    }

    fn round(&mut self, ctx: &Ctx<'_>, _incoming: Inbox<'_>, out: &mut Outbox<'_>) {
        self.tick += 1;
        if ctx.degree() > 0 {
            out.unicast(ctx.neighbors()[self.tick % ctx.degree()], self.payload);
        }
    }
}

fn bench_graph(c: &mut Criterion, label: &str, g: &Graph) {
    let mut group = c.benchmark_group(format!("engine_step/{label}"));
    group.sample_size(12);
    for (name, engine) in [
        ("sequential", Engine::Sequential),
        (
            "parallel_2",
            Engine::Parallel {
                threads: 2,
                shards: 2,
            },
        ),
        (
            "parallel_8",
            Engine::Parallel {
                threads: 8,
                shards: 8,
            },
        ),
    ] {
        group.bench_with_input(BenchmarkId::new(name, g.vertex_count()), g, |b, g| {
            let mut sim =
                Simulator::new(g, |id, _| Typed::new(Ranker::new(id))).with_engine(engine);
            // Prime past the start round so every step is steady-state.
            sim.step().unwrap();
            b.iter(|| sim.step().unwrap());
        });
    }
    group.finish();
}

/// The delivery-bench engine sweep: `threads: 1` throughout, so the
/// variants differ only in shard count and delivery backend. The
/// `framed_*` entries run the same rounds through the frame seam —
/// encode every bucket into a checksummed self-delimiting frame, ship it
/// (in-memory loopback or a Unix-domain socket through the hub), decode,
/// and place from payload slices — so `framed_loopback_k` vs `sharded_k`
/// prices the seam itself and `framed_socket_4` vs `framed_loopback_4`
/// the kernel boundary (syscalls + copies).
const DELIVERY_ENGINES: [(&str, Engine); 8] = [
    ("sequential", Engine::Sequential),
    (
        "sharded_1",
        Engine::Parallel {
            threads: 1,
            shards: 1,
        },
    ),
    (
        "sharded_2",
        Engine::Parallel {
            threads: 1,
            shards: 2,
        },
    ),
    (
        "sharded_4",
        Engine::Parallel {
            threads: 1,
            shards: 4,
        },
    ),
    (
        "sharded_8",
        Engine::Parallel {
            threads: 1,
            shards: 8,
        },
    ),
    (
        "framed_loopback_4",
        Engine::Framed {
            threads: 1,
            shards: 4,
            transport: FrameTransport::Loopback,
        },
    ),
    (
        "framed_loopback_8",
        Engine::Framed {
            threads: 1,
            shards: 8,
            transport: FrameTransport::Loopback,
        },
    ),
    (
        "framed_socket_4",
        Engine::Framed {
            threads: 1,
            shards: 4,
            transport: FrameTransport::Socket,
        },
    ),
];

fn bench_delivery_workload<P, F>(c: &mut Criterion, group_name: &str, g: &Graph, make: F)
where
    P: Protocol + Send + Clone,
    F: Fn() -> P,
{
    let mut group = c.benchmark_group(group_name);
    group.sample_size(12);
    for (name, engine) in DELIVERY_ENGINES {
        group.bench_with_input(BenchmarkId::new(name, g.vertex_count()), g, |b, g| {
            let mut sim = Simulator::new(g, |_, _| make()).with_engine(engine);
            sim.step().unwrap();
            b.iter(|| sim.step().unwrap());
        });
        // Measured place-phase work for this engine: steady-state refs
        // and copies per round. Unicast refs stay flat at `messages`
        // across the shard sweep; broadcast refs are bounded by copies
        // (segment fragmentation), with no shards× rescan multiplier.
        // Payload registrations track refs (per *message*), not copies —
        // the slab-backed inbox's defining ratio — and the slot bytes are
        // the entire per-copy memory traffic (8 bytes per copy).
        let mut probe = Simulator::new(g, |_, _| make()).with_engine(engine);
        probe.step().unwrap();
        probe.step().unwrap();
        let work = probe.delivery_work();
        let id = format!("{name}/{}", g.vertex_count());
        // Compute-side work: these workloads send every round, so every
        // node is stepped (a message-driven protocol steps only the
        // nodes that heard something).
        group.report_metric(&id, "nodes_stepped_per_round", work.nodes_stepped as f64);
        group.report_metric(&id, "place_refs_per_round", work.refs_scanned as f64);
        group.report_metric(&id, "place_copies_per_round", work.copies_delivered as f64);
        group.report_metric(
            &id,
            "payload_registrations_per_round",
            work.payload_registrations as f64,
        );
        group.report_metric(
            &id,
            "inbox_slot_bytes_per_round",
            work.inbox_slot_bytes as f64,
        );
        if matches!(engine, Engine::Framed { .. }) {
            group.report_metric(&id, "frame_bytes_per_round", work.frame_bytes as f64);
            // Decode-side frame validation time (header parse + the fused
            // checksum/structure walk).
            group.report_metric(&id, "checksum_ns_per_round", work.checksum_ns as f64);
            // Transport health (cumulative over the probe run): retries
            // and injected drops are zero on a healthy in-process run
            // (nonzero rows flag a flaky fabric); collect_wait is the
            // receive-side blocking time and prices the socket hop
            // against the in-memory backends.
            group.report_metric(&id, "frames_retried", work.frames_retried as f64);
            group.report_metric(
                &id,
                "frames_dropped_injected",
                work.frames_dropped_injected as f64,
            );
            group.report_metric(&id, "collect_wait_ns", work.collect_wait_ns as f64);
        }
    }
    group.finish();
}

fn bench_delivery(c: &mut Criterion, label: &str, g: &Graph) {
    const PAYLOAD: &[u8] = &[7u8; 14];
    bench_delivery_workload(c, &format!("engine_delivery/{label}"), g, || Pulse {
        payload: PAYLOAD,
    });
    bench_delivery_workload(c, &format!("engine_delivery_unicast/{label}"), g, || Dart {
        payload: PAYLOAD,
        tick: 0,
    });
}

fn bench_engines(c: &mut Criterion) {
    let gnp = Family::Gnp { avg_degree: 8.0 }.build(50_000, 42);
    bench_graph(c, "gnp_50k", &gnp);
    bench_delivery(c, "gnp_50k", &gnp);
    let grid = netdecomp_graph::generators::grid2d(300, 300);
    bench_graph(c, "grid2d_300x300", &grid);
    bench_delivery(c, "grid2d_300x300", &grid);
}

criterion_group!(benches, bench_engines);
criterion_main!(benches);
