//! Wall-clock benches of the message-passing execution (E5 engine):
//! distributed (simulator) vs. centralized simulation, and top-two pruning
//! vs. full forwarding.
//!
//! The `congest_framed` group times one `decompose_distributed` of a
//! G(5 000, 20 000)-shaped graph (`generators::gnp` with average degree 8,
//! graph and decomposition seed 1; the shape of pipebench's
//! `congest_gnp_5k`) on pipebench's engine, `Engine::Framed` with one
//! thread, two shards and loopback frames, and on `Engine::Sequential`:
//!
//! ```text
//! NETDECOMP_BENCH_JSON=out.json cargo bench -p netdecomp-bench --bench congest
//! ```

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use netdecomp_bench::workloads::Family;
use netdecomp_core::distributed::{decompose_distributed, DistributedConfig, Forwarding};
use netdecomp_core::{basic, params};
use netdecomp_sim::{Engine, FrameTransport};

fn bench_distributed_vs_central(c: &mut Criterion) {
    let mut group = c.benchmark_group("distributed_vs_central");
    group.sample_size(10);
    let n = 256usize;
    let g = Family::Gnp { avg_degree: 6.0 }.build(n, 7);
    let p = params::DecompositionParams::new(3, 4.0).unwrap();
    group.bench_with_input(BenchmarkId::new("central", n), &g, |b, g| {
        b.iter(|| basic::decompose(g, &p, 1).unwrap())
    });
    group.bench_with_input(BenchmarkId::new("congest_top2", n), &g, |b, g| {
        b.iter(|| decompose_distributed(g, &p, 1, &DistributedConfig::default()).unwrap())
    });
    group.bench_with_input(BenchmarkId::new("congest_top2_parallel", n), &g, |b, g| {
        b.iter(|| {
            decompose_distributed(
                g,
                &p,
                1,
                &DistributedConfig {
                    engine: Engine::Parallel {
                        threads: 0,
                        shards: 0,
                    },
                    ..DistributedConfig::default()
                },
            )
            .unwrap()
        })
    });
    group.bench_with_input(BenchmarkId::new("local_full", n), &g, |b, g| {
        b.iter(|| {
            decompose_distributed(
                g,
                &p,
                1,
                &DistributedConfig {
                    forwarding: Forwarding::Full,
                    ..DistributedConfig::default()
                },
            )
            .unwrap()
        })
    });
    group.finish();
}

fn bench_congest_framed(c: &mut Criterion) {
    let mut group = c.benchmark_group("congest_framed");
    group.sample_size(10);
    let n = 5_000usize;
    let g = Family::Gnp { avg_degree: 8.0 }.build(n, 1);
    let p = params::DecompositionParams::for_graph_size(n);
    let engines = [
        (
            "framed_1t_2s_loopback",
            Engine::Framed {
                threads: 1,
                shards: 2,
                transport: FrameTransport::Loopback,
            },
        ),
        ("sequential", Engine::Sequential),
    ];
    for (name, engine) in engines {
        let config = DistributedConfig {
            engine,
            ..DistributedConfig::default()
        };
        group.bench_with_input(BenchmarkId::new(name, n), &g, |b, g| {
            b.iter(|| decompose_distributed(g, &p, 1, &config).unwrap())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_distributed_vs_central, bench_congest_framed);
criterion_main!(benches);
