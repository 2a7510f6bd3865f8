//! `verify::verify` on decompositions built outside the timed loop.
//!
//! Each row times one call: the per-cluster radius searches, then the
//! exact strong and weak diameter passes. The `G(n, 4n)` rows
//! (`generators::gnp` with average degree 8, graph and decomposition seed
//! as named) have one giant cluster whose searches span several
//! 256-source searches and pack with smaller clusters; the grid rows have
//! many small clusters, whose searches through `G` stay local. Each row
//! also reports its largest cluster.
//!
//! ```text
//! NETDECOMP_BENCH_JSON=out.json cargo bench -p netdecomp-bench --bench verify
//! ```

use criterion::{criterion_group, criterion_main, Criterion};
use netdecomp_bench::workloads::Family;
use netdecomp_core::{basic, params::DecompositionParams, verify};
use netdecomp_graph::{generators, Graph};

fn bench_verify(c: &mut Criterion) {
    let mut cases: Vec<(String, Graph, u64)> = Vec::new();
    for (n, seeds) in [(1_000, 1..=1), (5_000, 1..=3), (20_000, 1..=3)] {
        for seed in seeds {
            let g = Family::Gnp { avg_degree: 8.0 }.build(n, seed);
            cases.push((format!("gnp_4n_{n}/{seed}"), g, seed));
        }
    }
    for side in [141, 447, 1_000] {
        let g = generators::grid2d(side, side);
        cases.push((format!("grid_{side}x{side}/1"), g, 1));
    }
    let mut group = c.benchmark_group("verify");
    group.sample_size(10);
    for (id, g, seed) in &cases {
        let params = DecompositionParams::for_graph_size(g.vertex_count());
        let decomposition = basic::decompose(g, &params, *seed)
            .expect("valid parameters")
            .into_decomposition();
        group.bench_with_input(id, &decomposition, |b, d| {
            b.iter(|| verify::verify(g, d).expect("same vertex count"))
        });
        let largest = verify::verify(g, &decomposition)
            .expect("same vertex count")
            .max_cluster_size;
        group.report_metric(id, "largest_cluster", largest as f64);
    }
    group.finish();
}

criterion_group!(benches, bench_verify);
criterion_main!(benches);
