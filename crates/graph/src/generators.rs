//! Synthetic graph families used as experiment workloads.
//!
//! Deterministic topologies ([`path`], [`cycle`], [`star`], [`complete`],
//! [`complete_bipartite`], [`grid2d`], [`torus2d`], [`hypercube`]) are
//! infallible; randomized families ([`gnp`], [`random_tree`],
//! [`random_regular`], [`barabasi_albert`], [`caveman`]) take a caller-owned
//! RNG so every experiment is reproducible from a seed.
//!
//! The families deliberately span the diameter/expansion spectrum: paths,
//! grids and caveman graphs have large diameter (exercising the high-radius
//! regime of Theorem 3), while G(n,p), random-regular and Barabási–Albert
//! graphs have logarithmic diameter (the headline `k = ln n` regime).

use rand::seq::SliceRandom;
use rand::Rng;

use crate::{Graph, GraphBuilder, GraphError, VertexId};

/// Path on `n` vertices: `0 − 1 − … − (n−1)`.
#[must_use]
pub fn path(n: usize) -> Graph {
    let mut b = GraphBuilder::with_edge_capacity(n, n.saturating_sub(1));
    for v in 1..n {
        b.add_edge(v - 1, v).expect("indices in range");
    }
    b.build()
}

/// Cycle on `n` vertices (`n ≥ 3`); for `n < 3` falls back to a path.
#[must_use]
pub fn cycle(n: usize) -> Graph {
    if n < 3 {
        return path(n);
    }
    let mut b = GraphBuilder::with_edge_capacity(n, n);
    for v in 1..n {
        b.add_edge(v - 1, v).expect("indices in range");
    }
    b.add_edge(n - 1, 0).expect("indices in range");
    b.build()
}

/// Star with hub `0` and `n − 1` leaves.
#[must_use]
pub fn star(n: usize) -> Graph {
    let mut b = GraphBuilder::with_edge_capacity(n, n.saturating_sub(1));
    for v in 1..n {
        b.add_edge(0, v).expect("indices in range");
    }
    b.build()
}

/// Complete graph `K_n`.
#[must_use]
pub fn complete(n: usize) -> Graph {
    let mut b = GraphBuilder::with_edge_capacity(n, n * n.saturating_sub(1) / 2);
    for u in 0..n {
        for v in (u + 1)..n {
            b.add_edge(u, v).expect("indices in range");
        }
    }
    b.build()
}

/// Complete bipartite graph `K_{a,b}`: sides `0..a` and `a..a+b`.
#[must_use]
pub fn complete_bipartite(a: usize, b: usize) -> Graph {
    let mut builder = GraphBuilder::with_edge_capacity(a + b, a * b);
    for u in 0..a {
        for v in a..(a + b) {
            builder.add_edge(u, v).expect("indices in range");
        }
    }
    builder.build()
}

/// `rows × cols` grid; vertex `(r, c)` has index `r·cols + c`.
#[must_use]
pub fn grid2d(rows: usize, cols: usize) -> Graph {
    let mut b = GraphBuilder::new(rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            let v = r * cols + c;
            if c + 1 < cols {
                b.add_edge(v, v + 1).expect("indices in range");
            }
            if r + 1 < rows {
                b.add_edge(v, v + cols).expect("indices in range");
            }
        }
    }
    b.build()
}

/// `rows × cols` torus (grid with wraparound). Wraparound edges that would
/// duplicate grid edges (side length ≤ 2) are collapsed automatically.
#[must_use]
pub fn torus2d(rows: usize, cols: usize) -> Graph {
    let mut b = GraphBuilder::new(rows * cols);
    let idx = |r: usize, c: usize| r * cols + c;
    for r in 0..rows {
        for c in 0..cols {
            let v = idx(r, c);
            if cols > 1 {
                let right = idx(r, (c + 1) % cols);
                if right != v {
                    b.add_edge(v, right).expect("indices in range");
                }
            }
            if rows > 1 {
                let down = idx((r + 1) % rows, c);
                if down != v {
                    b.add_edge(v, down).expect("indices in range");
                }
            }
        }
    }
    b.build()
}

/// Hypercube `Q_d` on `2^d` vertices; vertices adjacent iff their indices
/// differ in exactly one bit.
///
/// # Errors
///
/// [`GraphError::InvalidParameter`] if `d > 24` (guard against 16M+ vertex
/// accidents).
pub fn hypercube(d: u32) -> Result<Graph, GraphError> {
    if d > 24 {
        return Err(GraphError::InvalidParameter {
            reason: format!("hypercube dimension {d} too large (max 24)"),
        });
    }
    let n = 1usize << d;
    let mut b = GraphBuilder::with_edge_capacity(n, n * d as usize / 2);
    for v in 0..n {
        for bit in 0..d {
            let u = v ^ (1 << bit);
            if u > v {
                b.add_edge(v, u).expect("indices in range");
            }
        }
    }
    Ok(b.build())
}

/// Erdős–Rényi `G(n, p)`: each of the `n·(n−1)/2` edges present
/// independently with probability `p`.
///
/// Uses geometric skipping, so the cost is `O(n + m)` rather than `O(n²)`
/// for small `p`.
///
/// # Errors
///
/// [`GraphError::InvalidParameter`] if `p` is not in `[0, 1]` or not finite.
pub fn gnp<R: Rng>(n: usize, p: f64, rng: &mut R) -> Result<Graph, GraphError> {
    if !(0.0..=1.0).contains(&p) || !p.is_finite() {
        return Err(GraphError::InvalidParameter {
            reason: format!("edge probability {p} must lie in [0, 1]"),
        });
    }
    let mut b = GraphBuilder::new(n);
    if p == 0.0 || n < 2 {
        return Ok(b.build());
    }
    if p == 1.0 {
        return Ok(complete(n));
    }
    // Iterate edge slots in lexicographic order, skipping ahead by
    // geometrically distributed gaps. Row `u` owns the `n − 1 − u` slots
    // after the rows before it; slots only increase, so the row cursor only
    // moves forward and the whole sweep costs `O(n + m)`.
    let log1p = (1.0 - p).ln();
    let total = n * (n - 1) / 2;
    let mut slot = 0usize;
    let (mut row, mut row_start) = (0usize, 0usize);
    loop {
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        let skip = (u.ln() / log1p) as usize;
        slot = match slot.checked_add(skip) {
            Some(s) => s,
            None => break,
        };
        if slot >= total {
            break;
        }
        while slot >= row_start + (n - 1 - row) {
            row_start += n - 1 - row;
            row += 1;
        }
        b.add_edge(row, row + 1 + (slot - row_start))
            .expect("indices in range");
        slot += 1;
    }
    Ok(b.build())
}

/// Uniform random labelled tree on `n` vertices via a random Prüfer sequence.
#[must_use]
pub fn random_tree<R: Rng>(n: usize, rng: &mut R) -> Graph {
    if n <= 1 {
        return Graph::empty(n);
    }
    if n == 2 {
        return Graph::from_edges(2, &[(0, 1)]).expect("valid edge");
    }
    let prufer: Vec<usize> = (0..n - 2).map(|_| rng.gen_range(0..n)).collect();
    let mut degree = vec![1usize; n];
    for &x in &prufer {
        degree[x] += 1;
    }
    let mut b = GraphBuilder::with_edge_capacity(n, n - 1);
    // Min-leaf extraction via a pointer sweep (classic O(n) decode needs a
    // heap; O(n log n) with a BinaryHeap is fine here).
    let mut leaves: std::collections::BinaryHeap<std::cmp::Reverse<usize>> = (0..n)
        .filter(|&v| degree[v] == 1)
        .map(std::cmp::Reverse)
        .collect();
    for &x in &prufer {
        let std::cmp::Reverse(leaf) = leaves.pop().expect("tree decode invariant");
        b.add_edge(leaf, x).expect("indices in range");
        degree[x] -= 1;
        if degree[x] == 1 {
            leaves.push(std::cmp::Reverse(x));
        }
    }
    let std::cmp::Reverse(a) = leaves.pop().expect("two leaves remain");
    let std::cmp::Reverse(c) = leaves.pop().expect("two leaves remain");
    b.add_edge(a, c).expect("indices in range");
    b.build()
}

/// Random `d`-regular graph via the configuration (pairing) model with
/// edge-swap repair of self-loops and multi-edges.
///
/// Starting from a uniform stub pairing, defective pairs (loops or
/// duplicates) are repeatedly repaired by double-edge swaps against random
/// partners, which preserves the degree sequence. The repair converges
/// rapidly whenever `d ≪ n`.
///
/// # Errors
///
/// [`GraphError::InvalidParameter`] if `n·d` is odd, `d ≥ n` (with `n > 0`),
/// or the repair budget is exhausted (only plausible for `d` close to `n`).
pub fn random_regular<R: Rng>(n: usize, d: usize, rng: &mut R) -> Result<Graph, GraphError> {
    if d >= n && !(n == 0 && d == 0) {
        return Err(GraphError::InvalidParameter {
            reason: format!("degree {d} must be smaller than n = {n}"),
        });
    }
    if !(n * d).is_multiple_of(2) {
        return Err(GraphError::InvalidParameter {
            reason: format!("n*d = {} must be even", n * d),
        });
    }
    if d == 0 {
        return Ok(Graph::empty(n));
    }
    let mut stubs: Vec<VertexId> = (0..n).flat_map(|v| std::iter::repeat_n(v, d)).collect();
    stubs.shuffle(rng);
    let mut pairs: Vec<(VertexId, VertexId)> =
        stubs.chunks_exact(2).map(|p| (p[0], p[1])).collect();
    let m = pairs.len();
    let budget = 200 * m + 10_000;
    let mut spent = 0usize;
    loop {
        // Index multi-edges: map normalized pair -> multiplicity.
        let mut mult: std::collections::HashMap<(VertexId, VertexId), usize> =
            std::collections::HashMap::with_capacity(m);
        let mut bad: Vec<usize> = Vec::new();
        for (i, &(u, v)) in pairs.iter().enumerate() {
            if u == v {
                bad.push(i);
                continue;
            }
            let key = if u < v { (u, v) } else { (v, u) };
            let count = mult.entry(key).or_insert(0);
            if *count > 0 {
                bad.push(i);
            }
            *count += 1;
        }
        if bad.is_empty() {
            break;
        }
        for i in bad {
            let j = rng.gen_range(0..m);
            if j == i {
                continue;
            }
            // Double-edge swap: (a,b),(c,e) -> (a,e),(c,b).
            let (a, b) = pairs[i];
            let (c, e) = pairs[j];
            pairs[i] = (a, e);
            pairs[j] = (c, b);
        }
        spent += 1;
        if spent > budget {
            return Err(GraphError::InvalidParameter {
                reason: format!(
                    "could not repair a simple {d}-regular pairing for n = {n} within budget"
                ),
            });
        }
    }
    let mut builder = GraphBuilder::with_edge_capacity(n, m);
    for (u, v) in pairs {
        builder.add_edge(u, v).expect("indices in range");
    }
    Ok(builder.build())
}

/// Barabási–Albert preferential attachment: starts from a clique on
/// `m0 = attach` vertices, then each new vertex attaches to `attach` distinct
/// existing vertices chosen proportionally to degree.
///
/// # Errors
///
/// [`GraphError::InvalidParameter`] if `attach == 0` or `attach >= n`.
pub fn barabasi_albert<R: Rng>(n: usize, attach: usize, rng: &mut R) -> Result<Graph, GraphError> {
    if attach == 0 {
        return Err(GraphError::InvalidParameter {
            reason: "attachment count must be positive".into(),
        });
    }
    if attach >= n {
        return Err(GraphError::InvalidParameter {
            reason: format!("attachment count {attach} must be smaller than n = {n}"),
        });
    }
    let mut b = GraphBuilder::new(n);
    // Repeated-endpoint list: sampling uniformly from it is sampling
    // proportionally to degree.
    let mut endpoints: Vec<VertexId> = Vec::with_capacity(2 * n * attach);
    for u in 0..attach {
        for v in (u + 1)..attach {
            b.add_edge(u, v).expect("indices in range");
            endpoints.push(u);
            endpoints.push(v);
        }
    }
    let start = if attach == 1 {
        // Seed with the single vertex 0; the endpoint list must be non-empty
        // for degree-proportional sampling to start.
        endpoints.push(0);
        1
    } else {
        attach
    };
    // The targets stay in draw order, so a seed fixes the edge order and
    // the endpoint list (`attach` is small: a linear `contains` is cheap).
    let mut chosen: Vec<VertexId> = Vec::with_capacity(attach);
    for v in start..n {
        chosen.clear();
        while chosen.len() < attach {
            let u = endpoints[rng.gen_range(0..endpoints.len())];
            if !chosen.contains(&u) {
                chosen.push(u);
            }
        }
        for &u in &chosen {
            b.add_edge(v, u).expect("indices in range");
            endpoints.push(v);
            endpoints.push(u);
        }
    }
    Ok(b.build())
}

/// Connected caveman graph: `caves` cliques of `cave_size` vertices arranged
/// in a ring, consecutive cliques joined by a single edge.
///
/// This family has both dense local structure and large global diameter — the
/// workload where weak-diameter clusters (Linial–Saks) can stray far from
/// their strong diameter.
///
/// # Errors
///
/// [`GraphError::InvalidParameter`] if `caves == 0` or `cave_size == 0`.
pub fn caveman(caves: usize, cave_size: usize) -> Result<Graph, GraphError> {
    if caves == 0 || cave_size == 0 {
        return Err(GraphError::InvalidParameter {
            reason: "caveman graph needs at least one cave of at least one vertex".into(),
        });
    }
    let n = caves * cave_size;
    let mut b = GraphBuilder::new(n);
    for cave in 0..caves {
        let base = cave * cave_size;
        for u in 0..cave_size {
            for v in (u + 1)..cave_size {
                b.add_edge(base + u, base + v).expect("indices in range");
            }
        }
    }
    if caves > 1 {
        for cave in 0..caves {
            let next = (cave + 1) % caves;
            if cave == next {
                continue;
            }
            // Join the "last" vertex of this cave to the "first" of the next.
            let a = cave * cave_size + (cave_size - 1);
            let c = next * cave_size;
            if a != c {
                b.add_edge(a, c).expect("indices in range");
            }
        }
    }
    Ok(b.build())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{components, diameter};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn path_shape() {
        let g = path(5);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(2), 2);
        assert_eq!(diameter::diameter(&g), Some(4));
    }

    #[test]
    fn tiny_paths_and_cycles() {
        assert_eq!(path(0).vertex_count(), 0);
        assert_eq!(path(1).edge_count(), 0);
        assert_eq!(cycle(2).edge_count(), 1); // falls back to path
        assert_eq!(cycle(3).edge_count(), 3);
    }

    #[test]
    fn star_shape() {
        let g = star(6);
        assert_eq!(g.degree(0), 5);
        assert!(g.vertices().skip(1).all(|v| g.degree(v) == 1));
    }

    #[test]
    fn complete_counts() {
        let g = complete(6);
        assert_eq!(g.edge_count(), 15);
        assert_eq!(g.max_degree(), 5);
    }

    #[test]
    fn bipartite_counts_and_properness() {
        let g = complete_bipartite(3, 4);
        assert_eq!(g.vertex_count(), 7);
        assert_eq!(g.edge_count(), 12);
        assert!(!g.has_edge(0, 1));
        assert!(g.has_edge(0, 3));
    }

    #[test]
    fn grid_and_torus_degrees() {
        let g = grid2d(3, 4);
        assert_eq!(g.edge_count(), 3 * 3 + 2 * 4);
        assert_eq!(g.degree(0), 2);
        let t = torus2d(3, 4);
        assert!(t.vertices().all(|v| t.degree(v) == 4));
        assert_eq!(t.edge_count(), 2 * 12);
    }

    #[test]
    fn degenerate_torus_has_no_duplicate_edges() {
        let t = torus2d(2, 2);
        assert!(t.vertices().all(|v| t.degree(v) == 2));
        let t1 = torus2d(1, 5);
        assert_eq!(t1.edge_count(), 5); // single cycle
    }

    #[test]
    fn hypercube_structure() {
        let g = hypercube(4).unwrap();
        assert_eq!(g.vertex_count(), 16);
        assert!(g.vertices().all(|v| g.degree(v) == 4));
        assert_eq!(diameter::diameter(&g), Some(4));
        assert!(hypercube(25).is_err());
    }

    #[test]
    fn gnp_extremes() {
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(gnp(10, 0.0, &mut rng).unwrap().edge_count(), 0);
        assert_eq!(gnp(10, 1.0, &mut rng).unwrap().edge_count(), 45);
        assert!(gnp(10, 1.5, &mut rng).is_err());
        assert!(gnp(10, f64::NAN, &mut rng).is_err());
    }

    #[test]
    fn gnp_edge_count_near_expectation() {
        let mut rng = StdRng::seed_from_u64(7);
        let n = 400;
        let p = 0.05;
        let g = gnp(n, p, &mut rng).unwrap();
        let expected = (n * (n - 1) / 2) as f64 * p;
        let got = g.edge_count() as f64;
        assert!(
            (got - expected).abs() < 5.0 * expected.sqrt(),
            "edge count {got} too far from expectation {expected}"
        );
    }

    /// The slot-to-pair mapping `gnp` used before its row cursor: a rescan
    /// of the rows from 0 for every slot, `O(n)` each.
    fn edge_slot_to_pair_by_rescan(n: usize, slot: usize) -> (VertexId, VertexId) {
        let mut u = 0usize;
        let mut offset = 0usize;
        loop {
            let row = n - 1 - u;
            if slot < offset + row {
                return (u, u + 1 + (slot - offset));
            }
            offset += row;
            u += 1;
        }
    }

    #[test]
    fn edge_slot_mapping_is_bijective() {
        let n = 7;
        let mut seen = std::collections::HashSet::new();
        for slot in 0..(n * (n - 1) / 2) {
            let (u, v) = edge_slot_to_pair_by_rescan(n, slot);
            assert!(u < v && v < n);
            assert!(seen.insert((u, v)));
        }
    }

    #[test]
    fn gnp_edges_are_unchanged_by_the_row_cursor() {
        // `gnp` as it was, mapping every slot by a rescan: the same
        // generator stream and skips, so the same edges for every seed.
        fn gnp_by_rescan(n: usize, p: f64, rng: &mut StdRng) -> Graph {
            let mut b = GraphBuilder::new(n);
            let log1p = (1.0 - p).ln();
            let total = n * (n - 1) / 2;
            let mut slot = 0usize;
            loop {
                let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                let skip = (u.ln() / log1p) as usize;
                slot = match slot.checked_add(skip) {
                    Some(s) if s < total => s,
                    _ => break,
                };
                let (a, c) = edge_slot_to_pair_by_rescan(n, slot);
                b.add_edge(a, c).unwrap();
                slot += 1;
            }
            b.build()
        }
        for seed in 0..20u64 {
            for (n, p) in [(2, 0.5), (3, 0.9), (50, 0.1), (300, 0.02), (1_000, 0.008)] {
                let new = gnp(n, p, &mut StdRng::seed_from_u64(seed)).unwrap();
                let old = gnp_by_rescan(n, p, &mut StdRng::seed_from_u64(seed));
                assert_eq!(new, old, "seed {seed}, n {n}, p {p}");
            }
        }
    }

    #[test]
    fn random_tree_is_tree() {
        let mut rng = StdRng::seed_from_u64(3);
        for n in [1usize, 2, 3, 10, 100] {
            let g = random_tree(n, &mut rng);
            assert_eq!(g.vertex_count(), n);
            assert_eq!(g.edge_count(), n.saturating_sub(1));
            assert!(components::is_connected(&g), "tree on {n} disconnected");
        }
    }

    #[test]
    fn random_regular_is_regular() {
        let mut rng = StdRng::seed_from_u64(5);
        let g = random_regular(50, 4, &mut rng).unwrap();
        assert!(g.vertices().all(|v| g.degree(v) == 4));
        assert!(random_regular(5, 3, &mut rng).is_err()); // odd n*d
        assert!(random_regular(4, 4, &mut rng).is_err()); // d >= n
        assert_eq!(random_regular(5, 0, &mut rng).unwrap().edge_count(), 0);
    }

    #[test]
    fn barabasi_albert_counts() {
        let mut rng = StdRng::seed_from_u64(11);
        let g = barabasi_albert(100, 3, &mut rng).unwrap();
        assert_eq!(g.vertex_count(), 100);
        assert!(components::is_connected(&g));
        // 3 seed-clique edges + 3 per each of the 97 added vertices.
        assert_eq!(g.edge_count(), 3 + 97 * 3);
        assert!(barabasi_albert(5, 0, &mut rng).is_err());
        assert!(barabasi_albert(3, 3, &mut rng).is_err());
    }

    #[test]
    fn barabasi_albert_attach_one_is_tree() {
        let mut rng = StdRng::seed_from_u64(13);
        let g = barabasi_albert(50, 1, &mut rng).unwrap();
        assert!(components::is_connected(&g));
        assert_eq!(g.edge_count(), 49);
    }

    #[test]
    fn caveman_structure() {
        let g = caveman(4, 5).unwrap();
        assert_eq!(g.vertex_count(), 20);
        assert!(components::is_connected(&g));
        // 4 cliques of C(5,2)=10 edges plus 4 ring edges.
        assert_eq!(g.edge_count(), 4 * 10 + 4);
        assert!(caveman(0, 3).is_err());
    }

    #[test]
    fn caveman_single_cave_is_clique() {
        let g = caveman(1, 4).unwrap();
        assert_eq!(g.edge_count(), 6);
    }

    #[test]
    fn caveman_two_caves() {
        let g = caveman(2, 3).unwrap();
        assert!(components::is_connected(&g));
        assert_eq!(g.vertex_count(), 6);
    }
}
