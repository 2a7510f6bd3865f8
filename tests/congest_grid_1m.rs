//! The paper's CONGEST algorithm at a million vertices: one
//! `decompose_distributed` run on the 1000×1000 grid with the default
//! configuration, held to the centralized `basic::decompose` and to its
//! exact communication counts.
//!
//! Release only, and ignored by default (about 8 s for the message
//! passing plus 3 s for the centralized reference on a 2-CPU x86-64
//! box; far longer unoptimized):
//!
//! ```text
//! cargo test --release --test congest_grid_1m -- --ignored --nocapture
//! ```

#![cfg(not(debug_assertions))]

use std::time::Instant;

use netdecomp::core::basic;
use netdecomp::core::distributed::{decompose_distributed, DistributedConfig};
use netdecomp::core::params::DecompositionParams;
use netdecomp::graph::generators;

#[test]
#[ignore = "1M-vertex CONGEST run; run with --release -- --ignored"]
fn congest_on_the_million_vertex_grid_matches_the_centralized_carve() {
    let g = generators::grid2d(1000, 1000);
    let params = DecompositionParams::for_graph_size(g.vertex_count());
    let t = Instant::now();
    let run = decompose_distributed(&g, &params, 1, &DistributedConfig::default())
        .expect("the default config runs clean");
    let congest_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let central = basic::decompose(&g, &params, 1).expect("centralized carve");
    let central_s = t.elapsed().as_secs_f64();
    println!(
        "1000x1000 grid: CONGEST {congest_s:.2} s ({} rounds, {} messages), \
         basic::decompose {central_s:.2} s",
        run.comm.rounds, run.comm.total_messages
    );
    assert!(run.outcome.events().clean(), "no truncation event");
    assert_eq!(run.outcome.decomposition(), central.decomposition());
    assert_eq!(run.outcome.phases_used(), central.phases_used());
    assert_eq!(run.comm.rounds, 525);
    assert_eq!(run.comm.total_messages, 10_526_029);
}
