//! Wall-clock benches of the graph substrate.
//!
//! The `load` group times graph construction: `io::from_edge_list` on an
//! edge-list text, and `GraphBuilder::build` on that text's edges in the
//! text's order (each build iteration also copies the builder's edge list,
//! 16 bytes per edge). `gnm_4n_{n}` is `G(n, 4n)`: `4n` distinct edges
//! drawn uniformly and listed in the order drawn, as the end-to-end
//! benchmark writes its inputs; `grid_{s}x{s}` lists the `s × s` grid's
//! edges in ascending order, as `io::to_edge_list` does.
//!
//! ```text
//! NETDECOMP_BENCH_JSON=out.json cargo bench -p netdecomp-bench --bench graph
//! ```

use std::collections::HashSet;
use std::fmt::Write as _;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use netdecomp_bench::workloads::Family;
use netdecomp_graph::{bfs, components, generators, io, GraphBuilder, VertexSet};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn bench_generators(c: &mut Criterion) {
    let mut group = c.benchmark_group("generators");
    for &n in &[1024usize, 8192] {
        group.bench_with_input(BenchmarkId::new("gnp", n), &n, |b, &n| {
            b.iter(|| {
                let mut rng = StdRng::seed_from_u64(1);
                generators::gnp(n, 6.0 / n as f64, &mut rng).unwrap()
            })
        });
        group.bench_with_input(BenchmarkId::new("random_regular", n), &n, |b, &n| {
            b.iter(|| {
                let mut rng = StdRng::seed_from_u64(1);
                generators::random_regular(n, 4, &mut rng).unwrap()
            })
        });
        group.bench_with_input(BenchmarkId::new("barabasi_albert", n), &n, |b, &n| {
            b.iter(|| {
                let mut rng = StdRng::seed_from_u64(1);
                generators::barabasi_albert(n, 3, &mut rng).unwrap()
            })
        });
    }
    group.finish();
}

fn bench_bfs(c: &mut Criterion) {
    let mut group = c.benchmark_group("bfs");
    for &n in &[1024usize, 8192] {
        let g = Family::Gnp { avg_degree: 6.0 }.build(n, 7);
        group.bench_with_input(BenchmarkId::new("distances", n), &g, |b, g| {
            b.iter(|| bfs::distances(g, 0))
        });
        let alive = VertexSet::full(g.vertex_count());
        group.bench_with_input(BenchmarkId::new("restricted", n), &g, |b, g| {
            b.iter(|| bfs::distances_restricted(g, 0, &alive))
        });
    }
    group.finish();
}

fn bench_components(c: &mut Criterion) {
    let mut group = c.benchmark_group("components");
    for &n in &[1024usize, 8192] {
        let g = Family::Gnp { avg_degree: 2.0 }.build(n, 7);
        group.bench_with_input(BenchmarkId::from_parameter(n), &g, |b, g| {
            b.iter(|| components::components(g))
        });
    }
    group.finish();
}

/// Edges in the order a text lists them.
type EdgeList = Vec<(usize, usize)>;

/// `G(n, m)`: `m` distinct edges drawn uniformly at random, each in the
/// order and orientation it was drawn.
fn gnm_edges(n: usize, m: usize, seed: u64) -> EdgeList {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut seen = HashSet::with_capacity(m);
    let mut edges = Vec::with_capacity(m);
    while edges.len() < m {
        let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
        if u != v && seen.insert((u.min(v), u.max(v))) {
            edges.push((u, v));
        }
    }
    edges
}

fn bench_load(c: &mut Criterion) {
    let mut cases: Vec<(String, usize, EdgeList)> = [1_000, 5_000, 200_000, 1_000_000]
        .into_iter()
        .map(|n| (format!("gnm_4n_{n}"), n, gnm_edges(n, 4 * n, 1)))
        .collect();
    for side in [141, 1_000] {
        let g = generators::grid2d(side, side);
        cases.push((
            format!("grid_{side}x{side}"),
            side * side,
            g.edges().collect(),
        ));
    }
    let mut group = c.benchmark_group("load");
    group.sample_size(10);
    for (id, n, edges) in &cases {
        let mut text = String::with_capacity(16 * (edges.len() + 1));
        let _ = writeln!(text, "{n} {}", edges.len());
        let mut builder = GraphBuilder::with_edge_capacity(*n, edges.len());
        for &(u, v) in edges {
            let _ = writeln!(text, "{u} {v}");
            builder.add_edge(u, v).expect("a valid edge");
        }
        group.bench_with_input(BenchmarkId::new("from_edge_list", id), &text, |b, text| {
            b.iter(|| io::from_edge_list(text).expect("a valid edge list"))
        });
        group.bench_with_input(BenchmarkId::new("build", id), &builder, |b, builder| {
            b.iter(|| builder.clone().build())
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_load,
    bench_generators,
    bench_bfs,
    bench_components
);
criterion_main!(benches);
