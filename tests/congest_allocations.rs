//! Allocations per CONGEST decomposition: one seed-1
//! `decompose_distributed` on a fixed G(5 000, 20 000) — the graph of
//! pipebench's seed-1 `congest_gnp_5k` draw — counted by a per-thread
//! counting global allocator, under the benchmark's framed engine and the
//! sequential one.
//!
//! Payloads are plain bytes in per-shard arenas, so a decomposition's
//! allocations are its buffers' growth, not one heap buffer per message.
//! Both engines run every round on the calling thread, so the thread's
//! count is the decomposition's. Measured at 1 308 (framed) and 650
//! (sequential) allocations, and bounded at twice that; with one
//! reference-counted heap buffer per typed send the same runs made
//! 40 019 and 81 104.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashSet;
use std::fmt::Write as _;

use netdecomp::core::distributed::{decompose_distributed, DistributedConfig};
use netdecomp::core::params::DecompositionParams;
use netdecomp::graph::io;
use netdecomp::sim::{Engine, FrameTransport};

/// System allocator counting every allocation and reallocation the
/// calling thread makes.
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

/// The edge list of `G(n, m)` drawn as pipebench draws it: SplitMix64
/// from `seed`, vertex pairs by Lemire's multiply-shift with rejection,
/// self-loops and repeats skipped, edges in draw order.
fn gnm_edge_list(n: usize, m: usize, seed: u64) -> String {
    let mut state = seed;
    let mut below = |bound: u64| loop {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        let wide = u128::from(z ^ (z >> 31)) * u128::from(bound);
        if (wide as u64) >= bound.wrapping_neg() % bound {
            return (wide >> 64) as u64;
        }
    };
    let mut seen = HashSet::with_capacity(m);
    let mut out = format!("{n} {m}\n");
    while seen.len() < m {
        let (u, v) = (below(n as u64), below(n as u64));
        if u != v && seen.insert((u.min(v), u.max(v))) {
            let _ = writeln!(out, "{u} {v}");
        }
    }
    out
}

/// Allocations the calling thread makes in one seed-1 decomposition of
/// the graph under `engine`.
fn allocations_per_decomposition(engine: Engine) -> usize {
    let graph = io::from_edge_list(&gnm_edge_list(5_000, 20_000, 1)).expect("a valid edge list");
    let params = DecompositionParams::for_graph_size(graph.vertex_count());
    let config = DistributedConfig {
        engine,
        ..DistributedConfig::default()
    };
    let before = ALLOCATIONS.with(Cell::get);
    let run = decompose_distributed(&graph, &params, 1, &config).expect("a clean run");
    let made = ALLOCATIONS.with(Cell::get) - before;
    // The draw pipebench checks: the same counters on every engine.
    assert_eq!(
        (
            run.comm.rounds,
            run.comm.total_messages,
            run.comm.total_bytes
        ),
        (210, 502_585, 7_036_190),
        "{engine:?}"
    );
    println!("{engine:?}: {made} allocations per decomposition");
    made
}

#[test]
fn a_framed_decomposition_allocates_for_its_buffers_not_per_message() {
    let made = allocations_per_decomposition(Engine::Framed {
        threads: 1,
        shards: 2,
        transport: FrameTransport::Loopback,
    });
    assert!(made <= 2_600, "{made} allocations");
}

#[test]
fn a_sequential_decomposition_allocates_for_its_buffers_not_per_message() {
    let made = allocations_per_decomposition(Engine::Sequential);
    assert!(made <= 1_300, "{made} allocations");
}
