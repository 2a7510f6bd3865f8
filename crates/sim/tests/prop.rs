//! Property-based tests for the round engine: flooding computes BFS
//! distances, accounting is self-consistent, budgets are enforced, and the
//! parallel engine is bit-identical to the sequential reference.

use proptest::prelude::*;

use netdecomp_graph::{bfs, Graph, GraphBuilder};
use netdecomp_sim::{
    CongestLimit, Ctx, Determinism, Engine, FrameTransport, Inbox, Outbox, Protocol, Simulator,
};

fn arb_graph(max_n: usize) -> impl Strategy<Value = Graph> {
    (2usize..=max_n).prop_flat_map(|n| {
        proptest::collection::vec((0..n, 0..n), 0..(2 * n)).prop_map(move |pairs| {
            let mut b = GraphBuilder::new(n);
            for (u, v) in pairs {
                if u != v {
                    b.add_edge(u, v).expect("in range");
                }
            }
            b.build()
        })
    })
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct Flood {
    root: usize,
    dist: Option<usize>,
    clock: usize,
}

impl Protocol for Flood {
    fn start(&mut self, ctx: &Ctx<'_>, out: &mut Outbox<'_>) {
        if ctx.id == self.root {
            self.dist = Some(0);
            out.broadcast(b"x");
        }
    }

    fn round(&mut self, _ctx: &Ctx<'_>, incoming: Inbox<'_>, out: &mut Outbox<'_>) {
        self.clock += 1;
        if self.dist.is_none() && !incoming.is_empty() {
            self.dist = Some(self.clock);
            out.broadcast(b"x");
        }
    }

    fn is_halted(&self) -> bool {
        true
    }
}

/// A deterministic but messier protocol for the equivalence property:
/// relays a running XOR of everything heard, with payload sizes and
/// unicast/multicast/broadcast choice depending on seed-derived per-node
/// state — all three message kinds cross the sharded delivery path.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Mixer {
    acc: u64,
    budget: usize,
    quirk: u64,
}

impl Mixer {
    fn new(id: usize, seed: u64) -> Self {
        let quirk = seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(id as u64);
        Mixer {
            acc: quirk,
            budget: 2 + (quirk % 3) as usize,
            quirk,
        }
    }
}

impl Protocol for Mixer {
    fn start(&mut self, _ctx: &Ctx<'_>, out: &mut Outbox<'_>) {
        out.broadcast(&self.acc.to_le_bytes());
    }

    fn round(&mut self, ctx: &Ctx<'_>, incoming: Inbox<'_>, out: &mut Outbox<'_>) {
        for m in incoming.iter() {
            let mut word = [0u8; 8];
            word.copy_from_slice(&m.payload()[..8]);
            // Rotate-then-xor makes the fold sensitive to delivery
            // *order*, not just to the delivered multiset, so a backend
            // that reordered an inbox could not sneak past the property.
            self.acc = self
                .acc
                .rotate_left(5)
                .wrapping_add(u64::from_le_bytes(word).rotate_left((m.from() % 7) as u32));
        }
        if self.budget > 0 && !incoming.is_empty() {
            self.budget -= 1;
            let payload = &self.acc.to_le_bytes();
            let degree = ctx.degree() as u64;
            match self.quirk % 3 {
                0 if degree > 0 => {
                    let target = ctx.neighbors()[(self.acc % degree) as usize];
                    out.unicast(target, payload);
                }
                1 if degree > 0 => {
                    // Multicast to two seed-derived positions (possibly the
                    // same neighbor twice — two copies, like two unicasts).
                    let a = ctx.neighbors()[(self.acc % degree) as usize];
                    let b = ctx.neighbors()[(self.acc.rotate_right(17) % degree) as usize];
                    out.multicast(&[a, b], payload);
                }
                _ => out.broadcast(payload),
            }
        }
    }

    fn is_halted(&self) -> bool {
        self.budget == 0
    }
}

proptest! {
    // 48 cases keep each delivery backend (shared-memory, framed
    // loopback, framed socket) at useful coverage in the equivalence
    // property below.
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn flooding_equals_bfs_on_arbitrary_graphs(g in arb_graph(30), root_pick in 0usize..30) {
        let n = g.vertex_count();
        let root = root_pick % n;
        let mut sim = Simulator::new(&g, |_, _| Flood { root, dist: None, clock: 0 });
        // n+1 rounds always suffice for a flood plus drain.
        sim.run_rounds(n + 1).expect("no limits");
        let expected = bfs::distances(&g, root);
        for (v, want) in expected.iter().enumerate() {
            prop_assert_eq!(sim.nodes()[v].dist, *want, "vertex {}", v);
        }
    }

    #[test]
    fn run_stats_totals_match_per_round_sums(g in arb_graph(24)) {
        let mut sim = Simulator::new(&g, |_, _| Flood { root: 0, dist: None, clock: 0 });
        let run = sim.run_rounds(g.vertex_count() + 1).expect("no limits");
        let msg_sum: usize = run.per_round.iter().map(|r| r.messages).sum();
        let byte_sum: usize = run.per_round.iter().map(|r| r.bytes).sum();
        prop_assert_eq!(run.total_messages, msg_sum);
        prop_assert_eq!(run.total_bytes, byte_sum);
        let max_edge = run.per_round.iter().map(|r| r.max_edge_bytes).max().unwrap_or(0);
        prop_assert_eq!(run.max_edge_bytes, max_edge);
        // Each flood message is one byte; every vertex broadcasts at most
        // once, so total messages <= 2m.
        prop_assert!(run.total_messages <= 2 * g.edge_count());
    }

    #[test]
    fn one_byte_messages_never_violate_one_byte_budget(g in arb_graph(20)) {
        let mut sim = Simulator::new(&g, |_, _| Flood { root: 0, dist: None, clock: 0 })
            .with_limit(CongestLimit::PerEdgeBytes(1));
        // The flood sends at most one 1-byte message per edge per round.
        prop_assert!(sim.run_rounds(g.vertex_count() + 1).is_ok());
    }

    /// The tentpole guarantee: across random graphs, seeds, thread counts,
    /// shard counts, delivery backends, CONGEST limits, and tracing on or
    /// off, the sharded parallel engine — delivery included, whether it
    /// reads in-memory buckets or decoded transport frames — produces
    /// bit-identical node states and `RunStats` to the sequential
    /// reference.
    #[test]
    fn parallel_engine_is_bit_identical_to_sequential(
        g in arb_graph(24),
        seed in 0u64..1_000,
        threads in 2usize..=8,
        shard_pick in 0usize..6,
        limit_pick in 0usize..3,
        backend_pick in 0usize..3,
        trace_pick in 0usize..2,
    ) {
        let limit = match limit_pick {
            0 => CongestLimit::Unlimited,
            1 => CongestLimit::PerEdgeBytes(64),
            _ => CongestLimit::STANDARD_WORDS,
        };
        // Below, at, and above the thread count, primes that divide
        // nothing (7, 13 — 13 usually exceeds n/2 here, so many shards
        // hold one or two vertices and routing segments get maximally
        // fragmented), one shard per vertex, and `0` = the resolved
        // default, one shard per thread.
        let shards = [0, 1, 2, 7, 13, g.vertex_count()][shard_pick];
        // Shared-memory delivery, framed loopback, and the socket fabric
        // (real Unix-domain streams through the hub).
        let engine = match backend_pick {
            0 => Engine::Parallel { threads, shards },
            _ => Engine::Framed {
                threads,
                shards,
                transport: if backend_pick == 1 {
                    FrameTransport::Loopback
                } else {
                    FrameTransport::Socket
                },
            },
        };
        let rounds = g.vertex_count().min(12) + 2;

        let mut seq = Simulator::new(&g, |id, _| Mixer::new(id, seed)).with_limit(limit);
        let mut par = Simulator::new(&g, |id, _| Mixer::new(id, seed))
            .with_limit(limit)
            .with_engine(engine);
        // Tracing must be passive: the flight recorder times the phases
        // and never touches delivery.
        if trace_pick == 1 {
            par = par.with_trace(64);
        }

        let a = seq.run_rounds(rounds);
        // Verified stepping doubles as a scheduling-independence check: it
        // also cross-checks sharded delivery against a sequential merge.
        let b = par.run_rounds_with(rounds, Determinism::Verify);
        prop_assert_eq!(&a, &b, "run outcome diverged");
        if a.is_ok() {
            prop_assert_eq!(seq.nodes(), par.nodes(), "node states diverged");
            prop_assert_eq!(seq.stats(), par.stats(), "stats diverged");
            prop_assert_eq!(seq.is_quiescent(), par.is_quiescent());
            // The inboxes themselves — not just protocol results — must
            // match the sequential reference per vertex, message for
            // message and in order, across the slab-backed representation
            // of every backend (the slot/payload-id layout may differ per
            // shard plan; the resolved view must not).
            for v in 0..g.vertex_count() {
                let resolve = |m: netdecomp_sim::IncomingRef<'_>| (m.from(), m.payload().to_vec());
                let seq_inbox: Vec<_> = seq.incoming(v).iter().map(resolve).collect();
                let par_inbox: Vec<_> = par.incoming(v).iter().map(resolve).collect();
                prop_assert_eq!(seq_inbox, par_inbox, "vertex {} inbox diverged", v);
            }
        }
    }
}
