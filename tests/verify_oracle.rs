//! `verify::verify` bounds, prunes and batches its diameter searches. These
//! properties hold it to the exhaustive per-cluster loop it replaced: the
//! report must be identical, field for field, `None` cases included.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use netdecomp::baselines::linial_saks::{self, LinialSaksParams};
use netdecomp::core::params::{DecompositionParams, StagedParams};
use netdecomp::core::verify::{self, DecompositionReport};
use netdecomp::core::{basic, staged, NetworkDecomposition};
use netdecomp::graph::{
    bfs, components, contraction, diameter, generators, Graph, GraphBuilder, Partition, VertexId,
    VertexSet,
};

/// The exhaustive verifier: per cluster, its member set, its components
/// and one BFS per member for each diameter, then the colouring read off
/// the contracted supergraph.
fn oracle(graph: &Graph, decomposition: &NetworkDecomposition) -> DecompositionReport {
    let partition = decomposition.partition();
    let cluster_count = partition.cluster_count();
    let mut clusters_connected = true;
    let mut max_strong = Some(0);
    let mut max_weak = Some(0);
    let mut max_size = 0;
    for c in 0..cluster_count {
        let members = partition.cluster_set(c);
        max_size = max_size.max(members.len());
        if components::components_restricted(graph, &members).count() > 1 {
            clusters_connected = false;
        }
        max_strong = max_strong
            .zip(diameter::strong_diameter(graph, &members))
            .map(|(a, b)| a.max(b));
        max_weak = max_weak
            .zip(diameter::weak_diameter(graph, &members))
            .map(|(a, b)| a.max(b));
    }
    let supergraph_properly_colored = match contraction::contract(graph, partition) {
        Ok(contraction) => contraction.supergraph().edges().all(|(cu, cv)| {
            decomposition.block_of_cluster(cu) != decomposition.block_of_cluster(cv)
        }),
        Err(_) => false,
    };
    DecompositionReport {
        vertex_count: graph.vertex_count(),
        cluster_count,
        color_count: decomposition.block_count(),
        complete: partition.is_complete(),
        clusters_connected,
        max_strong_diameter: max_strong,
        max_weak_diameter: max_weak,
        max_cluster_size: max_size,
        mean_cluster_size: if cluster_count == 0 {
            0.0
        } else {
            partition.assigned_count() as f64 / cluster_count as f64
        },
        supergraph_properly_colored,
    }
}

fn assert_matches_oracle(graph: &Graph, decomposition: &NetworkDecomposition, case: &str) {
    let fast = verify::verify(graph, decomposition).expect("same vertex count");
    assert_eq!(fast, oracle(graph, decomposition), "{case}");
}

/// Pushes one cluster per entry of `clusters` (empty ones included) and
/// tags them with `blocks` and `centers`.
fn decomposition(
    n: usize,
    clusters: &[Vec<VertexId>],
    blocks: Vec<usize>,
    centers: Vec<VertexId>,
) -> NetworkDecomposition {
    let mut p = Partition::new(n);
    for members in clusters {
        p.push_cluster(members);
    }
    NetworkDecomposition::from_parts(p, blocks, centers)
}

/// `G(n, m)`: exactly `m` distinct edges drawn uniformly at random.
fn gnm(n: usize, m: usize, rng: &mut StdRng) -> Graph {
    let mut edges = std::collections::HashSet::new();
    while edges.len() < m {
        let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
        if u != v {
            edges.insert((u.min(v), u.max(v)));
        }
    }
    let mut b = GraphBuilder::new(n);
    for (u, v) in edges {
        b.add_edge(u, v).expect("in range");
    }
    b.build()
}

fn arb_graph(max_n: usize) -> impl Strategy<Value = Graph> {
    (2usize..=max_n).prop_flat_map(|n| {
        collection::vec((0..n, 0..n), 0..(3 * n)).prop_map(move |pairs| {
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

/// A graph and an arbitrary partial partition of it, with block tags and
/// centers (possibly outside their cluster, or out of range). `shape`
/// picks the clusters: 0 labels every vertex at random (mostly
/// disconnected clusters); 1 grows a BFS cell around each of the seeds
/// (connected clusters, empty for repeated seeds); 2 does the same and
/// then leaves about a third of the vertices out; 3 moves that third into
/// the last cluster instead, scattering it across the graph.
fn arb_case() -> impl Strategy<Value = (Graph, NetworkDecomposition)> {
    (arb_graph(40), 1usize..10, 1usize..5, 0usize..4).prop_flat_map(
        |(g, cluster_count, block_count, shape)| {
            let n = g.vertex_count();
            (
                Just(g),
                collection::vec(0..=cluster_count, n..n + 1),
                collection::vec(0..n, cluster_count..cluster_count + 1),
                collection::vec((0..block_count, 0..n + 2), cluster_count..cluster_count + 1),
            )
                .prop_map(move |(g, labels, seeds, tags)| {
                    let mut clusters = vec![Vec::new(); cluster_count];
                    if shape == 0 {
                        for (v, &label) in labels.iter().enumerate() {
                            if label < cluster_count {
                                clusters[label].push(v);
                            }
                        }
                    } else {
                        let cells = bfs::multi_source_distances(&g, &seeds);
                        for (v, cell) in cells.iter().enumerate() {
                            let Some((_, seed)) = cell else { continue };
                            let c = seeds.iter().position(|s| s == seed).expect("a seed");
                            match (shape, labels[v] % 3 == 0) {
                                (2, true) => {}
                                (3, true) => clusters[cluster_count - 1].push(v),
                                _ => clusters[c].push(v),
                            }
                        }
                    }
                    let (blocks, centers) = tags.into_iter().unzip();
                    let d = decomposition(n, &clusters, blocks, centers);
                    (g, d)
                })
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn verify_equals_the_exhaustive_loop_on_arbitrary_partitions(case in arb_case()) {
        let (g, d) = case;
        assert_matches_oracle(&g, &d, &format!("{g:?} {d:?}"));
    }
}

#[test]
fn empty_singleton_and_outside_center_clusters() {
    let g = generators::path(6);
    // An empty cluster, a singleton, a path whose center is a vertex of
    // another cluster, and one whose center is out of range.
    let clusters = [vec![], vec![0], vec![1, 2, 3], vec![4, 5]];
    let d = decomposition(6, &clusters, vec![0, 1, 0, 1], vec![0, 0, 5, 99]);
    assert_matches_oracle(&g, &d, "path");
    let report = verify::verify(&g, &d).unwrap();
    assert_eq!(report.max_strong_diameter, Some(2));
    assert_eq!(report.max_cluster_size, 3);

    // Only empty clusters, on a graph with no vertices at all.
    let d = decomposition(0, &[vec![], vec![]], vec![0, 0], vec![0, 0]);
    assert_matches_oracle(&Graph::empty(0), &d, "empty graph");
}

#[test]
fn clusters_disconnected_in_their_subgraph_or_in_g() {
    // Two cycles of 8. {0, 4} is connected only through G; {1, 12} not
    // even there; {8..=11} is a connected path in the second cycle.
    let mut b = GraphBuilder::new(16);
    for base in [0, 8] {
        for i in 0..8 {
            b.add_edge(base + i, base + (i + 1) % 8).unwrap();
        }
    }
    let g = b.build();
    // The singleton {6} has bound 0. A weak pass that stopped there would
    // never measure the disconnected cluster listed after it.
    let clusters = [vec![8, 9, 10, 11], vec![6], vec![0, 4]];
    let through_g = decomposition(16, &clusters, vec![0, 1, 1], vec![9, 6, 4]);
    assert_matches_oracle(&g, &through_g, "weak only");
    let report = verify::verify(&g, &through_g).unwrap();
    assert!(!report.clusters_connected);
    assert_eq!(report.max_strong_diameter, None);
    assert_eq!(report.max_weak_diameter, Some(4));

    let clusters = [vec![8, 9, 10, 11], vec![6], vec![1, 12]];
    let apart = decomposition(16, &clusters, vec![0, 1, 1], vec![9, 6, 1]);
    assert_matches_oracle(&g, &apart, "disconnected in G");
    assert_eq!(verify::verify(&g, &apart).unwrap().max_weak_diameter, None);
}

#[test]
fn a_diameter_pair_found_only_by_the_last_batch() {
    // A path of 131 vertices whose two ends carry the largest ids, so
    // only the last batch of 64 sources holds an end. Its center is the
    // middle vertex, whose radius 65 makes `2r` exactly the diameter 130:
    // the first batch reaches 129 and must not stop the search.
    let n = 131;
    let order: Vec<VertexId> = std::iter::once(n - 2)
        .chain(0..n - 2)
        .chain(std::iter::once(n - 1))
        .collect();
    let mut b = GraphBuilder::new(n);
    for pair in order.windows(2) {
        b.add_edge(pair[0], pair[1]).unwrap();
    }
    let g = b.build();
    let d = decomposition(n, &[(0..n).collect()], vec![0], vec![order[65]]);
    assert_matches_oracle(&g, &d, "path");
    let report = verify::verify(&g, &d).unwrap();
    assert_eq!(report.max_strong_diameter, Some(130));
    assert_eq!(report.max_weak_diameter, Some(130));
}

#[test]
fn clusters_across_64_member_batch_boundaries() {
    let mut rng = StdRng::seed_from_u64(41);
    for size in [63, 64, 65, 130] {
        for trial in 0..4 {
            let n = 320;
            let g = gnm(n, [n, 2 * n, 4 * n, 4 * n][trial], &mut rng);
            // One connected cluster (a BFS ball, within the component of
            // its root) and one scattered cluster of the same size.
            let root = rng.gen_range(0..n);
            let ball: Vec<VertexId> = bfs::ball_restricted(&g, root, n, &VertexSet::full(n))
                .into_iter()
                .map(|(v, _)| v)
                .take(size)
                .collect();
            let mut rest: Vec<VertexId> = g.vertices().filter(|v| !ball.contains(v)).collect();
            rest.shuffle(&mut rng);
            let scattered = rest.split_off(rest.len() - size);
            let mut clusters = vec![ball, scattered];
            // The rest as singletons, or left out.
            if trial % 2 == 0 {
                clusters.extend(rest.iter().map(|&v| vec![v]));
            }
            let blocks = (0..clusters.len()).map(|_| rng.gen_range(0..4)).collect();
            let centers = clusters
                .iter()
                .map(|c| c.first().copied().unwrap_or(0))
                .collect();
            let d = decomposition(n, &clusters, blocks, centers);
            assert_matches_oracle(&g, &d, &format!("size {size}, trial {trial}"));

            // The connected cluster alone, so its diameters are the maxima.
            let alone = decomposition(n, &clusters[..1], vec![0], vec![root]);
            assert_matches_oracle(&g, &alone, &format!("size {size} alone, trial {trial}"));
        }
    }
}

#[test]
fn decompositions_of_gnm_graphs() {
    for n in [60, 200, 500] {
        let mut rng = StdRng::seed_from_u64(n as u64);
        let g = gnm(n, 4 * n, &mut rng);
        let basic_params = DecompositionParams::for_graph_size(n);
        let k = basic_params.k();
        for seed in 0..3 {
            let basic = basic::decompose(&g, &basic_params, seed)
                .unwrap()
                .into_decomposition();
            assert_matches_oracle(&g, &basic, &format!("basic, n {n}, seed {seed}"));
            let staged = staged::decompose(&g, &StagedParams::for_graph_size(n), seed)
                .unwrap()
                .into_decomposition();
            assert_matches_oracle(&g, &staged, &format!("staged, n {n}, seed {seed}"));
            let ls93 = linial_saks::decompose(&g, &LinialSaksParams::new(k, 4.0).unwrap(), seed)
                .unwrap()
                .decomposition;
            assert_matches_oracle(&g, &ls93, &format!("ls93, n {n}, seed {seed}"));
        }
    }
}

#[test]
fn clusters_across_256_source_search_boundaries() {
    let mut rng = StdRng::seed_from_u64(43);
    for size in [255, 256, 257, 513] {
        for trial in 0..2 {
            let n = 1100;
            let g = gnm(n, [2 * n, 4 * n][trial], &mut rng);
            // One connected cluster (a BFS ball, within the component of
            // its root), one scattered cluster of the same size, and the
            // rest as singletons or left out.
            let root = rng.gen_range(0..n);
            let ball: Vec<VertexId> = bfs::ball_restricted(&g, root, n, &VertexSet::full(n))
                .into_iter()
                .map(|(v, _)| v)
                .take(size)
                .collect();
            let mut rest: Vec<VertexId> = g.vertices().filter(|v| !ball.contains(v)).collect();
            rest.shuffle(&mut rng);
            let scattered = rest.split_off(rest.len() - size);
            let mut clusters = vec![ball, scattered];
            if trial == 0 {
                clusters.extend(rest.iter().map(|&v| vec![v]));
            }
            let blocks = (0..clusters.len()).map(|_| rng.gen_range(0..4)).collect();
            let centers = clusters
                .iter()
                .map(|c| c.first().copied().unwrap_or(0))
                .collect();
            let d = decomposition(n, &clusters, blocks, centers);
            assert_matches_oracle(&g, &d, &format!("size {size}, trial {trial}"));

            // The connected cluster alone, so its diameters are the maxima.
            let alone = decomposition(n, &clusters[..1], vec![0], vec![root]);
            assert_matches_oracle(&g, &alone, &format!("size {size} alone, trial {trial}"));
        }
    }
}

#[test]
fn a_diameter_pair_found_only_by_the_last_256_source_search() {
    // A path of 515 vertices whose two ends carry the largest ids, so only
    // the third search of 256 sources holds an end. Its center is the
    // middle vertex, whose radius 257 makes `2r` exactly the diameter 514:
    // the first two searches reach 513 and must not stop the search.
    let n = 2 * 256 + 3;
    let order: Vec<VertexId> = std::iter::once(n - 2)
        .chain(0..n - 2)
        .chain(std::iter::once(n - 1))
        .collect();
    let mut b = GraphBuilder::new(n);
    for pair in order.windows(2) {
        b.add_edge(pair[0], pair[1]).unwrap();
    }
    let g = b.build();
    let d = decomposition(n, &[(0..n).collect()], vec![0], vec![order[257]]);
    assert_matches_oracle(&g, &d, "path");
    let report = verify::verify(&g, &d).unwrap();
    assert_eq!(report.max_strong_diameter, Some(514));
    assert_eq!(report.max_weak_diameter, Some(514));
}

/// A path through `vertices` in order.
fn add_path(b: &mut GraphBuilder, vertices: impl IntoIterator<Item = VertexId>) {
    let vertices: Vec<VertexId> = vertices.into_iter().collect();
    for pair in vertices.windows(2) {
        b.add_edge(pair[0], pair[1]).unwrap();
    }
}

#[test]
fn no_bit_leaks_between_adjacent_clusters_of_one_search() {
    // A 36 × 36 grid cluster (diameter 70) centered at a corner, so its
    // bound is 140, and a path of 101 (diameter 100) centered at its
    // middle, bound 100, whose two ends are both adjacent to the grid's far
    // corner. The grid's six searches end with its last 16 members packed
    // with the whole path; with 117 sources among 1 397 members, that
    // search pushes. A bit that crossed from the path into the grid and
    // back would cut the path's diameter to 51, below the grid's 70.
    let side = 36;
    let grid = side * side;
    let n = grid + 101;
    let mut b = GraphBuilder::new(n);
    for v in 0..grid {
        if v % side + 1 < side {
            b.add_edge(v, v + 1).unwrap();
        }
        if v + side < grid {
            b.add_edge(v, v + side).unwrap();
        }
    }
    add_path(&mut b, grid..n);
    b.add_edge(grid, grid - 1).unwrap();
    b.add_edge(n - 1, grid - 1).unwrap();
    let g = b.build();
    let clusters = [(0..grid).collect(), (grid..n).collect()];
    let d = decomposition(n, &clusters, vec![0, 1], vec![0, grid + 50]);
    assert_matches_oracle(&g, &d, "adjacent clusters");
    let report = verify::verify(&g, &d).unwrap();
    assert_eq!(report.max_strong_diameter, Some(100));
    assert_eq!(report.max_weak_diameter, Some(70));
}

#[test]
fn packed_searches_with_a_cluster_disconnected_in_its_subgraph_or_in_g() {
    // A cycle of 16 (0..16) and, apart from it, a cycle of 8 (16..24).
    let mut b = GraphBuilder::new(24);
    add_path(&mut b, (0..16).chain(std::iter::once(0)));
    add_path(&mut b, (16..24).chain(std::iter::once(16)));
    let g = b.build();
    // {0, 2} and {4, 7} are disconnected in their subgraphs, so the weak
    // pass searches them first, {0, 2} alone, then {4, 7} packed with the
    // two paths, searched from an end, whose bounds 6 and 4 beat the 2
    // found so far.
    let through_g = [
        vec![0, 2],
        vec![4, 7],
        vec![9, 10, 11, 12],
        vec![18, 19, 20],
    ];
    let d = decomposition(24, &through_g, vec![0, 1, 2, 3], vec![0, 4, 9, 18]);
    assert_matches_oracle(&g, &d, "disconnected in G(C)");
    let report = verify::verify(&g, &d).unwrap();
    assert_eq!(report.max_strong_diameter, None);
    assert_eq!(report.max_weak_diameter, Some(3));

    // {4, 21} has its members in different components of G: the packed
    // search must report it disconnected whatever it is packed with.
    let apart = [
        vec![0, 2],
        vec![4, 21],
        vec![9, 10, 11, 12],
        vec![18, 19, 20],
    ];
    let d = decomposition(24, &apart, vec![0, 1, 2, 3], vec![0, 4, 9, 18]);
    assert_matches_oracle(&g, &d, "disconnected in G");
    assert_eq!(verify::verify(&g, &d).unwrap().max_weak_diameter, None);
}

/// The exhaustive loop on the benchmark's `G(5 000, 20 000)` size, whose
/// largest clusters hold hundreds to thousands of members, so their
/// searches span several 256-source searches and pack with smaller
/// clusters. Ignored by default (the exhaustive loop takes seconds in a
/// release build); CI runs it.
#[test]
#[ignore = "seconds of exhaustive BFS; run with --release -- --ignored"]
fn decompositions_with_giant_clusters() {
    let n = 5_000;
    let mut rng = StdRng::seed_from_u64(5);
    let g = gnm(n, 4 * n, &mut rng);
    let params = DecompositionParams::for_graph_size(n);
    for seed in 1..=3 {
        let d = basic::decompose(&g, &params, seed)
            .unwrap()
            .into_decomposition();
        let largest = (0..d.cluster_count())
            .map(|c| d.partition().cluster_set(c).len())
            .max()
            .unwrap_or(0);
        println!("seed {seed}: largest cluster {largest} members");
        assert_matches_oracle(&g, &d, &format!("G(5000, 20000), seed {seed}"));
    }
}
