//! The centralized simulation and the message-passing execution are the
//! same algorithm: bit-identical outputs under equal seeds, across
//! forwarding modes, across sequential and parallel engines, with CONGEST
//! budgets respected.

use netdecomp::core::distributed::{
    decompose_distributed, decompose_distributed_high_radius, decompose_distributed_staged,
    DistributedConfig, DistributedRun, Forwarding,
};
use netdecomp::core::params::{DecompositionParams, HighRadiusParams, StagedParams};
use netdecomp::core::{basic, DecompError};
use netdecomp::graph::generators;
use netdecomp::sim::{CongestLimit, Determinism, Engine, FrameTransport};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn central_equals_congest_equals_local_across_graphs() {
    let mut rng = StdRng::seed_from_u64(4);
    let graphs = [
        generators::gnp(80, 0.06, &mut rng).unwrap(),
        generators::grid2d(8, 9),
        generators::caveman(6, 6).unwrap(),
        generators::random_tree(70, &mut rng),
    ];
    for (i, g) in graphs.iter().enumerate() {
        for seed in 0..2u64 {
            let p = DecompositionParams::new(3, 4.0).unwrap();
            let central = basic::decompose(g, &p, seed).unwrap();
            let top2 = decompose_distributed(g, &p, seed, &DistributedConfig::default()).unwrap();
            let full = decompose_distributed(
                g,
                &p,
                seed,
                &DistributedConfig {
                    forwarding: Forwarding::Full,
                    ..DistributedConfig::default()
                },
            )
            .unwrap();
            assert_eq!(
                central.decomposition(),
                top2.outcome.decomposition(),
                "graph {i} seed {seed}: central != top2"
            );
            assert_eq!(
                top2.outcome.decomposition(),
                full.outcome.decomposition(),
                "graph {i} seed {seed}: top2 != full"
            );
            assert_eq!(central.phases_used(), top2.outcome.phases_used());
            assert_eq!(
                central.events().truncation_events,
                top2.outcome.events().truncation_events
            );
        }
    }
}

#[test]
fn congest_budget_of_two_entries_suffices_for_top_two() {
    let g = generators::grid2d(7, 7);
    let p = DecompositionParams::new(3, 4.0).unwrap();
    for seed in 0..3u64 {
        let run = decompose_distributed(
            &g,
            &p,
            seed,
            &DistributedConfig {
                forwarding: Forwarding::TopTwo,
                congest_limit: CongestLimit::PerEdgeBytes(28),
                ..DistributedConfig::default()
            },
        )
        .expect("two 14-byte entries per edge per round must fit");
        assert!(run.comm.max_edge_bytes <= 28, "seed {seed}");
    }
}

#[test]
fn full_forwarding_costs_at_least_as_many_messages() {
    let mut rng = StdRng::seed_from_u64(9);
    let g = generators::gnp(100, 0.05, &mut rng).unwrap();
    let p = DecompositionParams::new(4, 4.0).unwrap();
    let top2 = decompose_distributed(&g, &p, 1, &DistributedConfig::default()).unwrap();
    let full = decompose_distributed(
        &g,
        &p,
        1,
        &DistributedConfig {
            forwarding: Forwarding::Full,
            ..DistributedConfig::default()
        },
    )
    .unwrap();
    assert!(full.comm.total_messages >= top2.comm.total_messages);
    assert!(full.comm.max_edge_bytes >= top2.comm.max_edge_bytes);
}

#[test]
fn round_count_matches_phase_structure() {
    // Every phase runs exactly cap + 1 simulator steps.
    let g = generators::cycle(24);
    let p = DecompositionParams::new(3, 4.0).unwrap();
    let run = decompose_distributed(&g, &p, 2, &DistributedConfig::default()).unwrap();
    let phases = run.outcome.phases_used();
    assert_eq!(run.comm.rounds, phases * (p.radius_cap() + 1));
}

#[test]
fn communication_is_deterministic_under_seed() {
    let g = generators::grid2d(6, 6);
    let p = DecompositionParams::new(3, 4.0).unwrap();
    let a = decompose_distributed(&g, &p, 5, &DistributedConfig::default()).unwrap();
    let b = decompose_distributed(&g, &p, 5, &DistributedConfig::default()).unwrap();
    assert_eq!(a.comm, b.comm);
    assert_eq!(a.outcome, b.outcome);
}

#[test]
fn parallel_engine_is_bit_identical_across_graphs_and_modes() {
    let mut rng = StdRng::seed_from_u64(17);
    let graphs = [
        generators::gnp(80, 0.06, &mut rng).unwrap(),
        generators::grid2d(8, 9),
        generators::caveman(6, 6).unwrap(),
    ];
    let p = DecompositionParams::new(3, 4.0).unwrap();
    // Shard counts that divide nothing evenly or leave shards of one or
    // two vertices, and the frame seam in memory and over sockets.
    let engines = [
        Engine::Parallel {
            threads: 2,
            shards: 0,
        },
        Engine::Parallel {
            threads: 2,
            shards: 4,
        },
        Engine::Parallel {
            threads: 2,
            shards: 13,
        },
        Engine::Framed {
            threads: 2,
            shards: 7,
            transport: FrameTransport::Loopback,
        },
        Engine::Framed {
            threads: 2,
            shards: 4,
            transport: FrameTransport::Socket,
        },
    ];
    for (i, g) in graphs.iter().enumerate() {
        for seed in 0..2u64 {
            for forwarding in [Forwarding::TopTwo, Forwarding::Full] {
                let seq = decompose_distributed(
                    g,
                    &p,
                    seed,
                    &DistributedConfig {
                        forwarding,
                        ..DistributedConfig::default()
                    },
                )
                .unwrap();
                for engine in engines {
                    let par = decompose_distributed(
                        g,
                        &p,
                        seed,
                        &DistributedConfig {
                            forwarding,
                            engine,
                            determinism: Determinism::Verify,
                            ..DistributedConfig::default()
                        },
                    )
                    .unwrap();
                    assert_eq!(
                        seq.outcome, par.outcome,
                        "graph {i} seed {seed} {forwarding:?} {engine:?}: outcome diverged"
                    );
                    assert_eq!(
                        seq.comm, par.comm,
                        "graph {i} seed {seed} {forwarding:?} {engine:?}: stats diverged"
                    );
                }
            }
        }
    }
}

#[test]
fn framed_backends_are_bit_identical_for_the_decomposition() {
    // The full carving protocol through the frame seam: every bucket of
    // every round is serialized into a checksummed frame, shipped by the
    // loopback transport or over real sockets, decoded, and verified
    // round-by-round against the sequential reference merge. Every variant
    // runs several phases on one simulator; the staged one changes β
    // between stages, so its consecutive phases differ in more than their
    // alive sets.
    let g = generators::grid2d(7, 8);
    let p = DecompositionParams::new(3, 4.0).unwrap();
    let staged = StagedParams::new(3, 6.0).unwrap();
    let high = HighRadiusParams::new(12, 4.0).unwrap();
    let variants: [(&str, Variant); 3] = [
        ("basic", &|config, seed| {
            decompose_distributed(&g, &p, seed, config)
        }),
        ("staged", &|config, seed| {
            decompose_distributed_staged(&g, &staged, seed, config)
        }),
        ("high-radius", &|config, seed| {
            decompose_distributed_high_radius(&g, &high, seed, config)
        }),
    ];
    for (name, run) in variants {
        for seed in 0..2u64 {
            let seq = run(&DistributedConfig::default(), seed).unwrap();
            for transport in [FrameTransport::Loopback, FrameTransport::Socket] {
                let framed = run(
                    &DistributedConfig {
                        engine: Engine::Framed {
                            threads: 2,
                            shards: 5,
                            transport,
                        },
                        determinism: Determinism::Verify,
                        ..DistributedConfig::default()
                    },
                    seed,
                )
                .unwrap();
                assert_eq!(
                    seq.outcome, framed.outcome,
                    "{name} seed {seed} {transport:?}: outcome diverged"
                );
                assert_eq!(
                    seq.comm, framed.comm,
                    "{name} seed {seed} {transport:?}: stats diverged"
                );
            }
        }
    }
}

/// One decomposition variant under a config and seed.
type Variant<'a> = &'a dyn Fn(&DistributedConfig, u64) -> Result<DistributedRun, DecompError>;

#[test]
fn parallel_engine_respects_congest_budget() {
    let g = generators::grid2d(7, 7);
    let p = DecompositionParams::new(3, 4.0).unwrap();
    let run = decompose_distributed(
        &g,
        &p,
        1,
        &DistributedConfig {
            forwarding: Forwarding::TopTwo,
            congest_limit: CongestLimit::PerEdgeBytes(28),
            engine: Engine::Parallel {
                threads: 0,
                shards: 0,
            },
            ..DistributedConfig::default()
        },
    )
    .expect("budget holds on the parallel engine too");
    assert!(run.comm.max_edge_bytes <= 28);
}
