//! The paper's CONGEST algorithm on a random graph at 200 000 vertices:
//! `decompose_distributed` on G(n, 4n) (`generators::gnp` with average
//! degree 8, graph seed 1, decomposition seed 1) with the default
//! configuration and on the framed engine, both held to the centralized
//! `basic::decompose`, to each other's communication counts, and to the
//! exact rounds and messages of the run.
//!
//! Release only, and ignored by default (about 0.9 s for the default run,
//! 0.7 s for the framed one and 0.15 s for the centralized reference on a
//! 2-CPU x86-64 box, 2 s in all with the graph; far longer unoptimized):
//!
//! ```text
//! cargo test --release --test congest_gnp_200k -- --ignored --nocapture
//! ```

#![cfg(not(debug_assertions))]

use std::time::Instant;

use netdecomp::core::basic;
use netdecomp::core::distributed::{decompose_distributed, DistributedConfig};
use netdecomp::core::params::DecompositionParams;
use netdecomp::graph::generators;
use netdecomp::sim::{Engine, FrameTransport};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
#[ignore = "200k-vertex CONGEST runs; run with --release -- --ignored"]
fn congest_on_gnp_200k_matches_the_centralized_carve_on_every_engine() {
    let n = 200_000;
    let mut rng = StdRng::seed_from_u64(1);
    let g = generators::gnp(n, 8.0 / (n - 1) as f64, &mut rng).expect("a valid probability");
    let params = DecompositionParams::for_graph_size(n);
    let t = Instant::now();
    let central = basic::decompose(&g, &params, 1).expect("centralized carve");
    let central_s = t.elapsed().as_secs_f64();
    let framed = DistributedConfig {
        engine: Engine::Framed {
            threads: 2,
            shards: 4,
            transport: FrameTransport::Loopback,
        },
        ..DistributedConfig::default()
    };
    let mut runs = Vec::new();
    for (name, config) in [
        ("default", DistributedConfig::default()),
        ("framed", framed),
    ] {
        let t = Instant::now();
        let run = decompose_distributed(&g, &params, 1, &config).expect("the run is clean");
        println!(
            "G(200k, 4n) {name}: CONGEST {:.2} s ({} rounds, {} messages), \
             basic::decompose {central_s:.2} s",
            t.elapsed().as_secs_f64(),
            run.comm.rounds,
            run.comm.total_messages
        );
        assert_eq!(run.outcome, central, "{name}: the centralized outcome");
        runs.push(run);
    }
    assert_eq!(runs[0].comm, runs[1].comm, "both engines count alike");
    assert_eq!(runs[0].comm.rounds, 280);
    assert_eq!(runs[0].comm.total_messages, 17_335_153);
}
