//! Exact and approximate diameters, global and induced.
//!
//! The *strong diameter* of a cluster `C` is the diameter of the induced
//! subgraph `G(C)`; the *weak diameter* measures the same pairs through the
//! whole graph `G`. These are the two quantities the paper contrasts, and
//! [`strong_diameter`] / [`weak_diameter`] compute them exactly, one BFS
//! per member. [`BitParallelBfs`] computes the same maxima 64 sources at a
//! time.

use crate::{bfs, Graph, VertexId, VertexSet};

/// Exact diameter of the graph.
///
/// Returns `None` if the graph is disconnected or empty (the diameter is
/// infinite/undefined); `Some(0)` for a single vertex.
///
/// Runs one BFS per vertex: `O(n·(n+m))`.
#[must_use]
pub fn diameter(g: &Graph) -> Option<usize> {
    if g.is_empty() {
        return None;
    }
    let mut best = 0;
    for v in g.vertices() {
        let d = bfs::distances(g, v);
        let mut ecc = 0;
        for dv in &d {
            match dv {
                Some(x) => ecc = ecc.max(*x),
                None => return None, // disconnected
            }
        }
        best = best.max(ecc);
    }
    Some(best)
}

/// Strong diameter of `cluster`: the maximum pairwise distance *inside the
/// induced subgraph* `G(cluster)`.
///
/// Returns `None` if the induced subgraph is disconnected (infinite strong
/// diameter) and `Some(0)` for singleton or empty clusters.
///
/// This is the exhaustive reference: one BFS with a fresh `n`-length
/// vector per member, `O(|C|·n)` time. [`BitParallelBfs`] gets the same
/// answer from `⌈|C|/64⌉` searches.
///
/// # Panics
///
/// Panics if `cluster`'s universe differs from the graph's vertex count.
#[must_use]
pub fn strong_diameter(g: &Graph, cluster: &VertexSet) -> Option<usize> {
    if cluster.is_empty() {
        return Some(0);
    }
    let mut best = 0;
    for v in cluster.iter() {
        let d = bfs::distances_restricted(g, v, cluster);
        for u in cluster.iter() {
            match d[u] {
                Some(x) => best = best.max(x),
                None => return None,
            }
        }
    }
    Some(best)
}

/// Weak diameter of `cluster`: the maximum pairwise distance measured in the
/// *whole* graph `G`.
///
/// Returns `None` if some pair of cluster vertices is disconnected in `G`.
///
/// This is the exhaustive reference: one whole-graph BFS per member,
/// `O(|C|·(n+m))` time. [`BitParallelBfs`] gets the same answer from
/// `⌈|C|/64⌉` searches, each stopping once it has covered the cluster.
///
/// # Panics
///
/// Panics if `cluster`'s universe differs from the graph's vertex count.
#[must_use]
pub fn weak_diameter(g: &Graph, cluster: &VertexSet) -> Option<usize> {
    assert_eq!(
        cluster.universe(),
        g.vertex_count(),
        "cluster universe must equal the vertex count"
    );
    if cluster.is_empty() {
        return Some(0);
    }
    let mut best = 0;
    for v in cluster.iter() {
        let d = bfs::distances(g, v);
        for u in cluster.iter() {
            match d[u] {
                Some(x) => best = best.max(x),
                None => return None,
            }
        }
    }
    Some(best)
}

/// A breadth-first search from up to 64 sources at once, one bit per
/// source.
///
/// Every vertex carries a `seen` word (bit `i` set once source `i` has
/// reached it) and a `frontier` word (bit `i` set if source `i` reached it
/// at the current level), so 64 searches cost the edge scans of one. Each
/// level takes the cheaper of two directions. While the frontier's edges
/// are few, it *pushes*: every frontier vertex ORs its word into its
/// neighbours', touching only the frontier's edges, which keeps a search
/// local on large sparse graphs. Once they are many, it *pulls*: every
/// vertex still short of some bit ORs its neighbours' words into its own,
/// a scan over the searched region (the set when paths stay inside it,
/// else the whole graph) with no branch per edge. The scratch is three
/// `u64` words, a flag and four list slots per vertex, allocated once by
/// [`BitParallelBfs::new`] and cleared after each search.
///
/// # Example
///
/// ```
/// use netdecomp_graph::{diameter::BitParallelBfs, generators};
///
/// // Cycle of 8 and the set {0, 1, 2, 6}: 2 and 6 are 4 apart in G, but
/// // G({0, 1, 2, 6}) is disconnected, since 6 has no neighbour in the set.
/// let g = generators::cycle(8);
/// let set = [0, 1, 2, 6];
/// let mut bfs = BitParallelBfs::new(g.vertex_count());
/// assert_eq!(bfs.max_distance(&g, &set, &set, false), Some(4));
/// assert_eq!(bfs.max_distance(&g, &set, &set, true), None);
/// assert_eq!(bfs.max_distance(&g, &[0], &[0, 1, 2], true), Some(2));
/// ```
#[derive(Debug, Clone)]
pub struct BitParallelBfs {
    seen: Vec<u64>,
    frontier: Vec<u64>,
    next: Vec<u64>,
    member: Vec<bool>,
    /// The frontier's vertices, while the last level pushed.
    active: Vec<VertexId>,
    reached: Vec<VertexId>,
    /// Every vertex a pushing level reached, to clear after the search.
    visited: Vec<VertexId>,
    /// Vertices of the set some source has yet to reach.
    pending: Vec<VertexId>,
}

impl BitParallelBfs {
    /// Sources one search can carry: the bits of a word.
    pub const MAX_SOURCES: usize = 64;

    /// A level pushes while its frontier has fewer than `1 / PUSH_SHARE` of
    /// the edges a pull would scan: a pushed edge costs a few times a
    /// pulled one (scattered writes and unpredictable branches).
    const PUSH_SHARE: usize = 4;

    /// Scratch for searches over graphs of `n` vertices.
    #[must_use]
    pub fn new(n: usize) -> Self {
        BitParallelBfs {
            seen: vec![0; n],
            frontier: vec![0; n],
            next: vec![0; n],
            member: vec![false; n],
            active: Vec::new(),
            reached: Vec::new(),
            visited: Vec::new(),
            pending: Vec::new(),
        }
    }

    /// The largest distance from any of `sources` to any vertex of `set`,
    /// or `None` if some source cannot reach some vertex of `set`.
    ///
    /// `set` lists distinct vertices and must contain every source. With
    /// `induced`, paths stay inside `set`, so distances are those of
    /// `G(set)`; without it, paths run through all of `G`. The search stops
    /// after the level at which every source has reached every vertex of
    /// `set`.
    ///
    /// The maximum over batches of sources covering `set` is therefore
    /// [`strong_diameter`] of `set` with `induced` and [`weak_diameter`]
    /// without.
    ///
    /// # Panics
    ///
    /// Panics if there are no sources or more than
    /// [`BitParallelBfs::MAX_SOURCES`], if a source is outside `set`, or if
    /// a vertex is out of range of the scratch.
    pub fn max_distance(
        &mut self,
        g: &Graph,
        sources: &[VertexId],
        set: &[VertexId],
        induced: bool,
    ) -> Option<usize> {
        assert!(
            (1..=Self::MAX_SOURCES).contains(&sources.len()),
            "a search takes 1 to 64 sources, not {}",
            sources.len()
        );
        let BitParallelBfs {
            seen,
            frontier,
            next,
            member,
            active,
            reached,
            visited,
            pending,
        } = self;
        for &v in set {
            member[v] = true;
        }
        for (i, &s) in sources.iter().enumerate() {
            assert!(member[s], "source {s} must lie in the set");
            if seen[s] == 0 {
                visited.push(s);
                active.push(s);
            }
            seen[s] |= 1 << i;
            frontier[s] |= 1 << i;
        }
        pending.extend_from_slice(set);
        let full = u64::MAX >> (Self::MAX_SOURCES - sources.len());
        let pull_edges = if induced {
            set.iter().map(|&v| g.degree(v)).sum()
        } else {
            g.directed_edge_count()
        };
        let mut push_edges: usize = active.iter().map(|&u| g.degree(u)).sum();
        // `active` lists the frontier only while the last level pushed.
        let mut listed = true;
        let mut pulled = false;
        let mut grew = true;
        let mut level = 0;
        let result = loop {
            pending.retain(|&v| seen[v] != full);
            if pending.is_empty() {
                break Some(level);
            }
            if !grew {
                break None;
            }
            level += 1;
            let frontier_edges = std::mem::take(&mut push_edges);
            if frontier_edges * Self::PUSH_SHARE < pull_edges {
                if !listed {
                    active.clear();
                    if induced {
                        active.extend(set.iter().copied().filter(|&v| frontier[v] != 0));
                    } else {
                        active.extend(g.vertices().filter(|&v| frontier[v] != 0));
                    }
                    listed = true;
                }
                for &u in active.iter() {
                    let bits = frontier[u];
                    for &v in g.neighbors(u) {
                        let new = bits & !seen[v];
                        if new == 0 || (induced && !member[v]) {
                            continue;
                        }
                        if seen[v] == 0 {
                            visited.push(v);
                        }
                        if next[v] == 0 {
                            reached.push(v);
                            push_edges += g.degree(v);
                        }
                        seen[v] |= new;
                        next[v] |= new;
                    }
                    frontier[u] = 0;
                }
                grew = !reached.is_empty();
                std::mem::swap(active, reached);
                reached.clear();
            } else {
                pulled = true;
                listed = false;
                let mut any = 0;
                let mut pull = |v: VertexId| {
                    let old = seen[v];
                    if old == full {
                        return;
                    }
                    let mut bits = 0;
                    for &u in g.neighbors(v) {
                        bits |= frontier[u];
                    }
                    let new = bits & !old;
                    seen[v] = old | new;
                    next[v] = new;
                    any |= new;
                    push_edges += g.degree(v) * usize::from(new != 0);
                };
                if induced {
                    set.iter().for_each(|&v| pull(v));
                    set.iter().for_each(|&v| frontier[v] = 0);
                } else {
                    g.vertices().for_each(&mut pull);
                    frontier.fill(0);
                }
                grew = any != 0;
            }
            // `next` becomes the frontier; the cleared frontier, `next`.
            std::mem::swap(frontier, next);
        };
        if pulled && !induced {
            seen.fill(0);
            frontier.fill(0);
        } else {
            // Pushing levels reached only `visited`; induced pulling ones,
            // only members.
            let pulled_into = if pulled { set } else { &[][..] };
            for &v in visited.iter().chain(pulled_into) {
                seen[v] = 0;
                frontier[v] = 0;
            }
        }
        for &v in set {
            member[v] = false;
        }
        active.clear();
        visited.clear();
        pending.clear();
        result
    }
}

/// Two-sweep heuristic lower bound on the diameter: BFS from `start`, then
/// BFS from the farthest vertex found. Exact on trees; a lower bound in
/// general. Returns `None` on an empty graph.
///
/// # Panics
///
/// Panics if `start` is out of range on a non-empty graph.
#[must_use]
pub fn two_sweep_lower_bound(g: &Graph, start: VertexId) -> Option<usize> {
    if g.is_empty() {
        return None;
    }
    let d1 = bfs::distances(g, start);
    let far = d1
        .iter()
        .enumerate()
        .filter_map(|(v, d)| d.map(|x| (x, v)))
        .max()
        .map(|(_, v)| v)?;
    Some(bfs::eccentricity(g, far))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn diameter_of_path_and_cycle() {
        assert_eq!(diameter(&generators::path(6)), Some(5));
        assert_eq!(diameter(&generators::cycle(6)), Some(3));
        assert_eq!(diameter(&generators::cycle(7)), Some(3));
        assert_eq!(diameter(&generators::complete(5)), Some(1));
    }

    #[test]
    fn diameter_of_disconnected_is_none() {
        assert_eq!(diameter(&Graph::empty(2)), None);
        assert_eq!(diameter(&Graph::empty(0)), None);
        assert_eq!(diameter(&Graph::empty(1)), Some(0));
    }

    #[test]
    fn strong_vs_weak_diameter_gap() {
        // Cycle of 6; cluster {0, 1, 2} has strong diameter 2,
        // cluster {0, 2, 4} is independent: strong = None, weak = 2.
        let g = generators::cycle(6);
        let contiguous: VertexSet = {
            let mut s = VertexSet::new(6);
            s.extend([0, 1, 2]);
            s
        };
        assert_eq!(strong_diameter(&g, &contiguous), Some(2));
        assert_eq!(weak_diameter(&g, &contiguous), Some(2));

        let spread: VertexSet = {
            let mut s = VertexSet::new(6);
            s.extend([0, 2, 4]);
            s
        };
        assert_eq!(strong_diameter(&g, &spread), None);
        assert_eq!(weak_diameter(&g, &spread), Some(2));
    }

    #[test]
    fn weak_diameter_through_outside_vertices() {
        // Star: leaves {1, 2} are at distance 2 via the hub 0, but the
        // induced subgraph on the leaves has no edges.
        let g = generators::star(4);
        let mut leaves = VertexSet::new(4);
        leaves.extend([1, 2]);
        assert_eq!(weak_diameter(&g, &leaves), Some(2));
        assert_eq!(strong_diameter(&g, &leaves), None);
    }

    #[test]
    fn singleton_and_empty_clusters() {
        let g = generators::path(3);
        let mut single = VertexSet::new(3);
        single.insert(1);
        assert_eq!(strong_diameter(&g, &single), Some(0));
        assert_eq!(weak_diameter(&g, &single), Some(0));
        let empty = VertexSet::new(3);
        assert_eq!(strong_diameter(&g, &empty), Some(0));
        assert_eq!(weak_diameter(&g, &empty), Some(0));
    }

    /// The kernel's answer from one BFS per source.
    fn per_source_max(
        g: &Graph,
        sources: &[VertexId],
        set: &VertexSet,
        induced: bool,
    ) -> Option<usize> {
        let mut best = 0;
        for &s in sources {
            let d = if induced {
                bfs::distances_restricted(g, s, set)
            } else {
                bfs::distances(g, s)
            };
            for u in set.iter() {
                best = best.max(d[u]?);
            }
        }
        Some(best)
    }

    fn kernel(
        bfs: &mut BitParallelBfs,
        g: &Graph,
        sources: &[VertexId],
        set: &VertexSet,
        induced: bool,
    ) -> Option<usize> {
        let members: Vec<VertexId> = set.iter().collect();
        bfs.max_distance(g, sources, &members, induced)
    }

    #[test]
    fn bit_parallel_bfs_matches_one_bfs_per_source() {
        use rand::rngs::StdRng;
        use rand::seq::SliceRandom;
        use rand::{Rng, SeedableRng};

        let mut rng = StdRng::seed_from_u64(17);
        // One scratch for every search: clearing must leave nothing behind.
        let mut bfs = BitParallelBfs::new(150);
        for trial in 0..60 {
            let n = rng.gen_range(2..=150);
            let p = [0.01, 0.03, 0.08, 0.3][trial % 4];
            let g = generators::gnp(n, p, &mut rng).unwrap();
            let keep = rng.gen_range(0.1..1.0);
            let mut set = VertexSet::new(n);
            set.extend(g.vertices().filter(|_| rng.gen_bool(keep)));
            if set.is_empty() {
                set.insert(0);
            }
            let mut members: Vec<VertexId> = set.iter().collect();
            members.shuffle(&mut rng);
            let take = [1, 2, 63, 64, rng.gen_range(1..=64)][trial % 5].min(members.len());
            let sources = &members[..take];
            for induced in [false, true] {
                assert_eq!(
                    kernel(&mut bfs, &g, sources, &set, induced),
                    per_source_max(&g, sources, &set, induced),
                    "trial {trial}: n {n}, {take} sources, induced {induced}"
                );
            }
        }
    }

    #[test]
    fn batches_over_a_set_give_its_strong_and_weak_diameters() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let mut rng = StdRng::seed_from_u64(29);
        let g = generators::gnp(300, 0.012, &mut rng).unwrap();
        let mut bfs = BitParallelBfs::new(g.vertex_count());
        for size in [63, 64, 65, 130] {
            // A BFS ball is connected in G; every other vertex is not.
            let ball: Vec<VertexId> = bfs::ball_restricted(&g, 0, 300, &VertexSet::full(300))
                .into_iter()
                .map(|(v, _)| v)
                .take(size)
                .collect();
            let spread: Vec<VertexId> = g.vertices().step_by(2).take(size).collect();
            for members in [ball, spread] {
                assert_eq!(members.len(), size);
                let mut set = VertexSet::new(g.vertex_count());
                set.extend(members.iter().copied());
                for induced in [false, true] {
                    let mut best = Some(0);
                    for batch in members.chunks(BitParallelBfs::MAX_SOURCES) {
                        best = best
                            .zip(kernel(&mut bfs, &g, batch, &set, induced))
                            .map(|(a, b)| a.max(b));
                    }
                    let exact = if induced {
                        strong_diameter(&g, &set)
                    } else {
                        weak_diameter(&g, &set)
                    };
                    assert_eq!(best, exact, "size {size}, induced {induced}");
                }
            }
        }
    }

    #[test]
    fn bit_parallel_bfs_reports_disconnection() {
        // Two triangles; the set takes one vertex from each.
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]).unwrap();
        let mut set = VertexSet::new(6);
        set.extend([0, 1, 3]);
        let mut bfs = BitParallelBfs::new(6);
        assert_eq!(kernel(&mut bfs, &g, &[0, 1, 3], &set, false), None);
        assert_eq!(kernel(&mut bfs, &g, &[0], &set, true), None);
        let mut left = VertexSet::new(6);
        left.extend([0, 1]);
        assert_eq!(kernel(&mut bfs, &g, &[0, 1], &left, true), Some(1));
        assert_eq!(kernel(&mut bfs, &g, &[1], &left, false), Some(1));
    }

    #[test]
    #[should_panic(expected = "1 to 64 sources")]
    fn bit_parallel_bfs_rejects_65_sources() {
        let g = generators::path(70);
        let sources: Vec<VertexId> = (0..65).collect();
        let _ = BitParallelBfs::new(70).max_distance(&g, &sources, &sources, false);
    }

    #[test]
    #[should_panic(expected = "must lie in the set")]
    fn bit_parallel_bfs_rejects_a_source_outside_the_set() {
        let g = generators::path(4);
        let _ = BitParallelBfs::new(4).max_distance(&g, &[3], &[0, 1], true);
    }

    #[test]
    fn two_sweep_exact_on_paths() {
        let g = generators::path(9);
        assert_eq!(two_sweep_lower_bound(&g, 4), Some(8));
    }

    #[test]
    fn two_sweep_is_lower_bound_on_grid() {
        let g = generators::grid2d(5, 7);
        let exact = diameter(&g).unwrap();
        let lb = two_sweep_lower_bound(&g, 12).unwrap();
        assert!(lb <= exact);
        assert_eq!(exact, 4 + 6);
    }
}
