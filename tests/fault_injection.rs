//! The robustness contract across the whole stack: an unreliable
//! delivery fabric — dropping, corrupting, delaying frames, or running
//! over real sockets — either delivers faithfully (bit-identical
//! outcomes) or fails with a typed error in bounded time. Never a hang,
//! never a panic, never a silently wrong decomposition.
//!
//! The fault layer is [`FaultInjectingTransport`], seeded and
//! deterministic, plugged into the Elkin–Neiman carve protocol and the
//! Linial–Saks baseline through their `transport` hooks.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use netdecomp::baselines::linial_saks;
use netdecomp::core::distributed::{
    decompose_distributed, decompose_distributed_high_radius, decompose_distributed_staged,
    DistributedConfig,
};
use netdecomp::core::params::{DecompositionParams, HighRadiusParams, StagedParams};
use netdecomp::core::DecompError;
use netdecomp::graph::generators;
use netdecomp::sim::frame::LoopbackTransport;
use netdecomp::sim::{
    CongestLimit, Engine, FaultInjectingTransport, FaultPlan, FrameTransport, SocketTransport,
    TransportFactory,
};

/// Every test must finish far inside this bound — the point of the
/// typed-error contract is that faults cost at most one fabric timeout
/// (default 5 s), not a wedged CI job.
const BOUND: Duration = Duration::from_secs(60);

fn framed(shards: usize) -> Engine {
    Engine::Framed {
        threads: shards,
        shards,
        transport: FrameTransport::Loopback,
    }
}

fn faulty_loopback(plan: FaultPlan) -> TransportFactory {
    TransportFactory::new(move |shards| {
        Box::new(FaultInjectingTransport::new(
            LoopbackTransport::new(shards),
            shards,
            plan,
        ))
    })
}

/// A loopback factory that counts its builds.
fn counting_loopback(builds: &Arc<AtomicUsize>) -> TransportFactory {
    let builds = Arc::clone(builds);
    TransportFactory::new(move |shards| {
        builds.fetch_add(1, Ordering::SeqCst);
        Box::new(LoopbackTransport::new(shards))
    })
}

#[test]
fn every_driver_builds_one_transport_per_run() {
    let g = generators::grid2d(8, 8);
    let builds = Arc::new(AtomicUsize::new(0));
    let factory = counting_loopback(&builds);
    let config = DistributedConfig {
        engine: framed(3),
        transport: Some(factory.clone()),
        ..DistributedConfig::default()
    };
    let check = |name: &str, phases: usize| {
        assert!(phases >= 3, "{name}: only {phases} phases");
        assert_eq!(builds.swap(0, Ordering::SeqCst), 1, "{name}");
    };
    let basic = decompose_distributed(&g, &DecompositionParams::new(3, 4.0).unwrap(), 2, &config);
    check("basic", basic.unwrap().outcome.phases_used());
    let staged = decompose_distributed_staged(&g, &StagedParams::new(3, 6.0).unwrap(), 2, &config);
    check("staged", staged.unwrap().outcome.phases_used());
    let high =
        decompose_distributed_high_radius(&g, &HighRadiusParams::new(12, 4.0).unwrap(), 2, &config);
    check("high-radius", high.unwrap().outcome.phases_used());
    let (ls93, _) = linial_saks::decompose_distributed_with_transport(
        &g,
        &linial_saks::LinialSaksParams::new(3, 4.0).unwrap(),
        2,
        CongestLimit::Unlimited,
        framed(3),
        Some(&factory),
    )
    .unwrap();
    check("ls93", ls93.phases_used);
}

/// A non-framed engine: it ships no frames, so a transport set beside
/// it would never be built.
const PARALLEL: Engine = Engine::Parallel {
    threads: 2,
    shards: 2,
};

/// Asserts that a driver refused its transport as an invalid parameter,
/// before it built one.
fn assert_transport_refused<T>(name: &str, result: Result<T, DecompError>, builds: &AtomicUsize) {
    match result {
        Err(DecompError::InvalidParameter {
            name: "transport",
            reason,
        }) => assert!(reason.contains("Engine::Framed"), "{name}: {reason}"),
        Err(other) => panic!("{name}: want the transport refused, got {other:?}"),
        Ok(_) => panic!("{name}: the run went without its transport"),
    }
    assert_eq!(builds.load(Ordering::SeqCst), 0, "{name}");
}

/// A counting transport beside a non-framed engine. Such a run would go
/// without the transport — a fault-injection run would inject nothing —
/// so every driver refuses it; one test per entry point follows.
fn parallel_with_transport(builds: &Arc<AtomicUsize>) -> DistributedConfig {
    DistributedConfig {
        engine: PARALLEL,
        transport: Some(counting_loopback(builds)),
        ..DistributedConfig::default()
    }
}

#[test]
fn the_carve_refuses_a_transport_its_engine_would_not_build() {
    let builds = Arc::new(AtomicUsize::new(0));
    let p = DecompositionParams::new(3, 4.0).unwrap();
    let config = parallel_with_transport(&builds);
    let result = decompose_distributed(&generators::grid2d(6, 6), &p, 1, &config);
    assert_transport_refused("basic", result, &builds);
}

#[test]
fn the_staged_carve_refuses_a_transport_its_engine_would_not_build() {
    let builds = Arc::new(AtomicUsize::new(0));
    let p = StagedParams::new(3, 6.0).unwrap();
    let config = parallel_with_transport(&builds);
    let result = decompose_distributed_staged(&generators::grid2d(6, 6), &p, 1, &config);
    assert_transport_refused("staged", result, &builds);
}

#[test]
fn the_high_radius_carve_refuses_a_transport_its_engine_would_not_build() {
    let builds = Arc::new(AtomicUsize::new(0));
    let p = HighRadiusParams::new(12, 4.0).unwrap();
    let config = parallel_with_transport(&builds);
    let result = decompose_distributed_high_radius(&generators::grid2d(6, 6), &p, 1, &config);
    assert_transport_refused("high-radius", result, &builds);
}

#[test]
fn linial_saks_refuses_a_transport_its_engine_would_not_build() {
    let builds = Arc::new(AtomicUsize::new(0));
    let result = linial_saks::decompose_distributed_with_transport(
        &generators::grid2d(6, 6),
        &linial_saks::LinialSaksParams::new(3, 4.0).unwrap(),
        1,
        CongestLimit::Unlimited,
        PARALLEL,
        Some(&counting_loopback(&builds)),
    );
    assert_transport_refused("ls93", result, &builds);
}

#[test]
fn a_quiet_fault_layer_keeps_the_carve_bit_identical() {
    let g = generators::grid2d(8, 8);
    let p = DecompositionParams::new(3, 4.0).unwrap();
    for seed in 0..2u64 {
        let reference = decompose_distributed(&g, &p, seed, &DistributedConfig::default()).unwrap();
        let faulted = decompose_distributed(
            &g,
            &p,
            seed,
            &DistributedConfig {
                engine: framed(3),
                transport: Some(faulty_loopback(FaultPlan::quiet(7))),
                ..DistributedConfig::default()
            },
        )
        .unwrap();
        assert_eq!(
            reference.outcome.decomposition(),
            faulted.outcome.decomposition(),
            "seed {seed}: a pass-through fault layer changed the outcome"
        );
        assert_eq!(reference.comm, faulted.comm, "seed {seed}");
    }
}

#[test]
fn the_carve_protocol_runs_over_sockets_bit_identical() {
    let g = generators::caveman(5, 5).unwrap();
    let p = DecompositionParams::new(3, 4.0).unwrap();
    let seed = 11;
    let reference = decompose_distributed(&g, &p, seed, &DistributedConfig::default()).unwrap();
    let socketed = decompose_distributed(
        &g,
        &p,
        seed,
        &DistributedConfig {
            engine: Engine::Framed {
                threads: 3,
                shards: 3,
                transport: FrameTransport::Socket,
            },
            transport: Some(TransportFactory::new(|shards| {
                Box::new(SocketTransport::unix_mesh(shards))
            })),
            ..DistributedConfig::default()
        },
    )
    .unwrap();
    assert_eq!(
        reference.outcome.decomposition(),
        socketed.outcome.decomposition(),
        "the socket fabric changed the outcome"
    );
    assert_eq!(reference.comm, socketed.comm);
}

#[test]
fn dropped_frames_fail_the_carve_typed_within_the_bound() {
    let g = generators::grid2d(8, 8);
    let p = DecompositionParams::new(3, 4.0).unwrap();
    let started = Instant::now();
    let error = decompose_distributed(
        &g,
        &p,
        5,
        &DistributedConfig {
            engine: framed(3),
            transport: Some(faulty_loopback(FaultPlan::drops(13, 500))),
            ..DistributedConfig::default()
        },
    )
    .unwrap_err();
    assert!(
        matches!(&error, DecompError::Simulation { .. }),
        "want a typed simulation failure, got {error:?}"
    );
    assert!(
        started.elapsed() < BOUND,
        "a dropped frame must fail fast, took {:?}",
        started.elapsed()
    );
}

#[test]
fn corrupted_frames_fail_the_carve_typed_within_the_bound() {
    let g = generators::grid2d(8, 8);
    let p = DecompositionParams::new(3, 4.0).unwrap();
    let started = Instant::now();
    let error = decompose_distributed(
        &g,
        &p,
        5,
        &DistributedConfig {
            engine: framed(3),
            transport: Some(faulty_loopback(FaultPlan::corruption(29, 500))),
            ..DistributedConfig::default()
        },
    )
    .unwrap_err();
    assert!(
        matches!(&error, DecompError::Simulation { .. }),
        "want a typed simulation failure, got {error:?}"
    );
    assert!(started.elapsed() < BOUND, "took {:?}", started.elapsed());
}

#[test]
fn a_quiet_fault_layer_keeps_linial_saks_bit_identical() {
    let g = generators::caveman(4, 5).unwrap();
    let p = linial_saks::LinialSaksParams::new(3, 4.0).unwrap();
    let seed = 3;
    let (reference, ref_comm) =
        linial_saks::decompose_distributed(&g, &p, seed, CongestLimit::Unlimited, framed(3))
            .unwrap();
    let factory = faulty_loopback(FaultPlan::quiet(17));
    let (faulted, faulted_comm) = linial_saks::decompose_distributed_with_transport(
        &g,
        &p,
        seed,
        CongestLimit::Unlimited,
        framed(3),
        Some(&factory),
    )
    .unwrap();
    assert_eq!(
        reference.decomposition, faulted.decomposition,
        "a pass-through fault layer changed the baseline outcome"
    );
    assert_eq!(ref_comm, faulted_comm);
}

#[test]
fn dropped_frames_fail_linial_saks_typed_within_the_bound() {
    let g = generators::grid2d(7, 7);
    let p = linial_saks::LinialSaksParams::new(3, 4.0).unwrap();
    let factory = faulty_loopback(FaultPlan::drops(41, 500));
    let started = Instant::now();
    let error = linial_saks::decompose_distributed_with_transport(
        &g,
        &p,
        9,
        CongestLimit::Unlimited,
        framed(3),
        Some(&factory),
    )
    .unwrap_err();
    assert!(
        matches!(&error, DecompError::Simulation { .. }),
        "want a typed simulation failure, got {error:?}"
    );
    assert!(started.elapsed() < BOUND, "took {:?}", started.elapsed());
}
