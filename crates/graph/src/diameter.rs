//! Exact and approximate diameters, global and induced.
//!
//! The *strong diameter* of a cluster `C` is the diameter of the induced
//! subgraph `G(C)`; the *weak diameter* measures the same pairs through the
//! whole graph `G`. These are the two quantities the paper contrasts, and
//! [`strong_diameter`] / [`weak_diameter`] compute them exactly, one BFS
//! per member. [`BitParallelBfs`] computes the same maxima 256 sources at
//! a time, from sources packed across any number of sets.

use std::ops::Range;

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
/// answer from `⌈|C|/256⌉` searches.
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
/// `⌈|C|/256⌉` searches, each stopping once it has covered the cluster.
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

/// Source bits per vertex in a [`BitParallelBfs`] search, in `u64` words.
const WORDS: usize = 4;

/// One bit per source of a search.
type Bits = [u64; WORDS];

const NO_BITS: Bits = [0; WORDS];

fn or(a: Bits, b: Bits) -> Bits {
    std::array::from_fn(|i| a[i] | b[i])
}

fn and(a: Bits, b: Bits) -> Bits {
    std::array::from_fn(|i| a[i] & b[i])
}

fn and_not(a: Bits, b: Bits) -> Bits {
    std::array::from_fn(|i| a[i] & !b[i])
}

fn is_empty(a: Bits) -> bool {
    a.iter().fold(0, |any, &w| any | w) == 0
}

/// Bits `lo..hi`.
fn bit_range(lo: usize, hi: usize) -> Bits {
    std::array::from_fn(|i| {
        let (from, to) = (lo.clamp(64 * i, 64 * i + 64), hi.clamp(64 * i, 64 * i + 64));
        if from >= to {
            0
        } else {
            (u64::MAX >> (64 - (to - from))) << (from - 64 * i)
        }
    })
}

/// One set of a [`BitParallelBfs`] search and the sources drawn from it.
#[derive(Debug, Clone)]
pub struct SourceSet<'a> {
    /// The set's vertices, each listed once.
    pub members: &'a [VertexId],
    /// The positions in `members` of the set's sources.
    pub sources: Range<usize>,
}

/// How a search numbers what it searches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Space {
    /// The packed members, densely, with their same-set edges listed up
    /// front: an induced search.
    Members,
    /// The packed members, then every other vertex as the search first
    /// reaches it, each listing its edges before it first pushes: a search
    /// through `G` while it pushes.
    Reached,
    /// Vertex ids themselves: a search through `G` that pulls, or may.
    Graph,
}

/// A row of `targets` not yet listed.
const UNLISTED: Range<usize> = usize::MAX..usize::MAX;

/// A breadth-first search from up to 256 sources at once, one bit per
/// source, drawn from any number of disjoint vertex sets.
///
/// Every searched vertex carries a `seen` and a `frontier` string of four
/// `u64` words (bit `i` set once source `i` has reached it, and set if it
/// did so at the current level), so 256 searches cost the edge scans of
/// one, each a few word operations. Each source belongs to a
/// [`SourceSet`], and the search reports, per set, the largest distance
/// from its sources to its members. An *induced* search keeps each set's
/// paths inside that set, so its distances are those of `G(set)` and no
/// bit crosses an edge between two sets. Otherwise paths run through all
/// of `G`, and the sets packed into one search share every level's edge
/// scans.
///
/// Each level takes the cheaper of two directions. While the frontier's
/// edges are few, it *pushes*: every frontier vertex ORs its bits into its
/// neighbours', touching only the frontier's edges, which keeps a search
/// local on large sparse graphs. Once they are many, it *pulls*: every
/// vertex still short of some bit ORs its neighbours' bits into its own, a
/// scan with no branch per edge over the searched region.
///
/// Scratch follows what a search touches. An induced search numbers the
/// packed members densely and lists their same-set edges, so its region
/// and its bit strings are the packed sets, not `G`. A search through `G`
/// numbers vertices as it reaches them while it pushes, so a search that
/// stays local (on a grid, say) stays small. The first time one would
/// pull, it starts over on bit strings indexed by vertex, three per vertex
/// of `G` (96 bytes), which later searches through `G` use from the start;
/// so does a search whose sources' edges already foretell a pull at the
/// next level. A `u32` per vertex holds the numbering, and a search clears
/// only what it wrote.
///
/// # Example
///
/// ```
/// use netdecomp_graph::diameter::{BitParallelBfs, SourceSet};
/// use netdecomp_graph::generators;
///
/// // Cycle of 8, the set {0, 1, 2, 6} and its neighbour {3, 4}: 2 and 6
/// // are 4 apart in G, but G({0, 1, 2, 6}) is disconnected, since 6 has
/// // no neighbour in the set.
/// let g = generators::cycle(8);
/// let sets = [
///     SourceSet { members: &[0, 1, 2, 6], sources: 0..4 },
///     SourceSet { members: &[3, 4], sources: 0..1 },
/// ];
/// let mut bfs = BitParallelBfs::default();
/// assert_eq!(bfs.max_distances(&g, &sets, false), [Some(4), Some(1)]);
/// assert_eq!(bfs.max_distances(&g, &sets, true), [None, Some(1)]);
/// // From vertex 0 alone, inside {0, 1, 2}, 2 is the farthest member.
/// let from_0 = [SourceSet { members: &[0, 1, 2], sources: 0..1 }];
/// assert_eq!(bfs.max_distances(&g, &from_0, true), [Some(2)]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct BitParallelBfs {
    /// Per index: the sources that reached it, those that reached it at
    /// the current level, and those that reach it at the next.
    seen: Vec<Bits>,
    frontier: Vec<Bits>,
    next: Vec<Bits>,
    /// Each vertex's number plus one; 0 for vertices not numbered.
    number: Vec<u32>,
    /// The vertex each number stands for.
    vertex: Vec<VertexId>,
    /// Set `k`'s members are numbered `starts[k]..starts[k + 1]`.
    starts: Vec<usize>,
    /// Number `i`'s neighbours are `targets[rows[i]]`, once listed.
    rows: Vec<Range<usize>>,
    targets: Vec<usize>,
    /// The frontier's indices, while the last level pushed.
    active: Vec<usize>,
    reached: Vec<usize>,
    /// Every index a pushing level reached, to clear after the search.
    visited: Vec<usize>,
    /// Members, with their set, that some of their set's sources have yet
    /// to reach.
    pending: Vec<(usize, usize)>,
}

impl BitParallelBfs {
    /// Sources one search can carry: the bits of four words.
    pub const MAX_SOURCES: usize = 64 * WORDS;

    /// A level pushes while its frontier has fewer than `1 / PUSH_SHARE` of
    /// the edges a pull would scan: a pushed edge costs a few times a
    /// pulled one (scattered writes and unpredictable branches).
    const PUSH_SHARE: usize = 4;

    /// For each of `sets`, the largest distance from its sources to its
    /// members, or `None` if some source cannot reach some member.
    ///
    /// With `induced`, a set's paths stay inside it, so its distances are
    /// those of `G(set)`. Without it, paths run through all of `G`. The
    /// search stops after the level at which every set's sources have
    /// reached all of its members, or once no source reaches a new vertex.
    ///
    /// The maximum over searches whose sources cover a set is therefore
    /// [`strong_diameter`] of the set with `induced` and [`weak_diameter`]
    /// without.
    ///
    /// # Panics
    ///
    /// Panics if the sets carry no sources or more than
    /// [`BitParallelBfs::MAX_SOURCES`], if a set's source range is empty or
    /// runs past its members, if the sets share a vertex or list one twice,
    /// or if a vertex is out of range of `g`.
    pub fn max_distances(
        &mut self,
        g: &Graph,
        sets: &[SourceSet<'_>],
        induced: bool,
    ) -> Vec<Option<usize>> {
        let mut masks = Vec::with_capacity(sets.len());
        let mut sources = 0;
        for SourceSet {
            members,
            sources: range,
        } in sets
        {
            assert!(
                !range.is_empty() && range.end <= members.len(),
                "a set's sources must be a non-empty range of its {} members, not {range:?}",
                members.len()
            );
            masks.push(bit_range(sources, sources + range.len()));
            sources += range.len();
        }
        assert!(
            (1..=Self::MAX_SOURCES).contains(&sources),
            "a search takes 1 to {} sources, not {sources}",
            Self::MAX_SOURCES
        );
        self.number_members(g, sets, induced);
        let space = if induced {
            Space::Members
        } else if self.seen.len() >= g.vertex_count() || Self::sources_foretell_a_pull(g, sets) {
            // Strings by vertex exist already, or will be needed at once.
            Space::Graph
        } else {
            Space::Reached
        };
        let found = self.run(g, sets, &masks, space);
        for &v in &self.vertex {
            self.number[v] = 0;
        }
        self.vertex.clear();
        // The listed edges serve this search alone: free them rather than
        // keep them beside the strings of later searches.
        self.rows = Vec::new();
        self.targets = Vec::new();
        found.unwrap_or_else(|| {
            self.run(g, sets, &masks, Space::Graph)
                .expect("a search by vertex can pull")
        })
    }

    /// Whether the sources' edges are so many that one more level at the
    /// average degree would pull.
    fn sources_foretell_a_pull(g: &Graph, sets: &[SourceSet<'_>]) -> bool {
        let source_edges: usize = sets
            .iter()
            .flat_map(|set| &set.members[set.sources.clone()])
            .map(|&v| g.degree(v))
            .sum();
        source_edges * Self::PUSH_SHARE >= g.vertex_count()
    }

    /// Numbers the members of `sets` densely, set after set. For an
    /// induced search, also lists each member's same-set neighbours.
    fn number_members(&mut self, g: &Graph, sets: &[SourceSet<'_>], induced: bool) {
        let BitParallelBfs {
            number,
            vertex,
            starts,
            rows,
            targets,
            ..
        } = self;
        if number.len() < g.vertex_count() {
            *number = vec![0; g.vertex_count()];
        }
        starts.clear();
        for set in sets {
            starts.push(vertex.len());
            for &v in set.members {
                assert!(number[v] == 0, "vertex {v} is listed twice in a search");
                vertex.push(v);
                number[v] = u32::try_from(vertex.len()).expect("fewer than 2^32 vertices");
            }
        }
        starts.push(vertex.len());
        if !induced {
            rows.resize(vertex.len(), UNLISTED);
            return;
        }
        for range in starts.windows(2) {
            // This set's members carry numbers `lo + 1..=hi`.
            let (lo, hi) = (range[0] as u32, range[1] as u32);
            for &v in &vertex[range[0]..range[1]] {
                let from = targets.len();
                targets.extend(g.neighbors(v).iter().filter_map(|&u| {
                    let at = number[u];
                    (at > lo && at <= hi).then(|| at as usize - 1)
                }));
                rows.push(from..targets.len());
            }
        }
    }

    /// The search itself, over `space`; `None` if a search over
    /// [`Space::Reached`] would pull.
    fn run(
        &mut self,
        g: &Graph,
        sets: &[SourceSet<'_>],
        masks: &[Bits],
        space: Space,
    ) -> Option<Vec<Option<usize>>> {
        let BitParallelBfs {
            seen,
            frontier,
            next,
            number,
            vertex,
            starts,
            rows,
            targets,
            active,
            reached,
            visited,
            pending,
        } = self;
        let mut len = match space {
            Space::Graph => g.vertex_count(),
            Space::Members | Space::Reached => vertex.len(),
        };
        if seen.len() < len {
            // The strings are clear between searches: grow them by
            // replacing, not copying, so old and new never coexist.
            for strings in [&mut *seen, &mut *frontier, &mut *next] {
                *strings = Vec::new();
                *strings = vec![NO_BITS; len];
            }
        }
        let index = |k: usize, j: usize| match space {
            Space::Graph => sets[k].members[j],
            Space::Members | Space::Reached => starts[k] + j,
        };
        let degree = |rows: &[Range<usize>], vertex: &[VertexId], v: usize| match space {
            Space::Members => rows[v].len(),
            Space::Reached => g.degree(vertex[v]),
            Space::Graph => g.degree(v),
        };
        // A pull visits each region for the bits of its mask still in play.
        let regions: Vec<(Range<usize>, Bits)> = match space {
            Space::Members => starts
                .windows(2)
                .zip(masks)
                .map(|(w, &mask)| (w[0]..w[1], mask))
                .collect(),
            Space::Reached | Space::Graph => vec![(0..len, bit_range(0, Self::MAX_SOURCES))],
        };
        let pull_edges = match space {
            Space::Members => targets.len(),
            Space::Reached | Space::Graph => g.directed_edge_count(),
        };

        let mut remaining = Vec::with_capacity(sets.len());
        let mut bit = 0;
        for (k, set) in sets.iter().enumerate() {
            for j in set.sources.clone() {
                let v = index(k, j);
                if is_empty(seen[v]) {
                    visited.push(v);
                    active.push(v);
                }
                seen[v][bit / 64] |= 1 << (bit % 64);
                frontier[v][bit / 64] |= 1 << (bit % 64);
                bit += 1;
            }
            pending.extend((0..set.members.len()).map(|j| (index(k, j), k)));
            remaining.push(set.members.len());
        }
        // The bits of sets still short of some member.
        let mut alive = masks.iter().fold(NO_BITS, |a, &m| or(a, m));
        let mut result = vec![None; sets.len()];
        let mut push_edges: usize = active.iter().map(|&u| degree(rows, vertex, u)).sum();
        // `active` lists the frontier only while the last level pushed.
        let mut listed = true;
        let mut pulled = false;
        let mut grew = true;
        let mut level = 0;
        loop {
            pending.retain(|&(v, k)| {
                if !is_empty(and_not(masks[k], seen[v])) {
                    return true;
                }
                remaining[k] -= 1;
                if remaining[k] == 0 {
                    result[k] = Some(level);
                    alive = and_not(alive, masks[k]);
                }
                false
            });
            if pending.is_empty() || !grew {
                break;
            }
            level += 1;
            let frontier_edges = std::mem::take(&mut push_edges);
            if frontier_edges * Self::PUSH_SHARE < pull_edges {
                if !listed {
                    active.clear();
                    active.extend((0..len).filter(|&v| !is_empty(frontier[v])));
                    listed = true;
                }
                if space == Space::Reached {
                    // List the edges of frontier vertices that have not
                    // pushed yet, numbering the neighbours they reach first.
                    for &u in active.iter() {
                        if rows[u] != UNLISTED {
                            continue;
                        }
                        let from = targets.len();
                        for &w in g.neighbors(vertex[u]) {
                            if number[w] == 0 {
                                vertex.push(w);
                                number[w] =
                                    u32::try_from(vertex.len()).expect("fewer than 2^32 vertices");
                            }
                            targets.push(number[w] as usize - 1);
                        }
                        rows[u] = from..targets.len();
                    }
                    len = vertex.len();
                    rows.resize(len, UNLISTED);
                    if seen.len() < len {
                        seen.resize(len, NO_BITS);
                        frontier.resize(len, NO_BITS);
                        next.resize(len, NO_BITS);
                    }
                }
                for &u in active.iter() {
                    let bits = and(frontier[u], alive);
                    frontier[u] = NO_BITS;
                    if is_empty(bits) {
                        continue;
                    }
                    let neighbors = match space {
                        Space::Graph => g.neighbors(u),
                        Space::Members | Space::Reached => &targets[rows[u].clone()],
                    };
                    for &v in neighbors {
                        let new = and_not(bits, seen[v]);
                        if is_empty(new) {
                            continue;
                        }
                        if is_empty(seen[v]) {
                            visited.push(v);
                        }
                        if is_empty(next[v]) {
                            reached.push(v);
                            push_edges += degree(rows, vertex, v);
                        }
                        seen[v] = or(seen[v], new);
                        next[v] = or(next[v], new);
                    }
                }
                grew = !reached.is_empty();
                std::mem::swap(active, reached);
                reached.clear();
            } else if space == Space::Reached {
                // Pulling scans all of `G`: start over by vertex.
                for &v in visited.iter() {
                    seen[v] = NO_BITS;
                    frontier[v] = NO_BITS;
                }
                active.clear();
                visited.clear();
                pending.clear();
                return None;
            } else {
                pulled = true;
                listed = false;
                let mut any = NO_BITS;
                for (region, mask) in &regions {
                    let need = and(*mask, alive);
                    if is_empty(need) {
                        continue;
                    }
                    for v in region.clone() {
                        let old = seen[v];
                        if is_empty(and_not(need, old)) {
                            continue;
                        }
                        let neighbors = match space {
                            Space::Graph => g.neighbors(v),
                            Space::Members | Space::Reached => &targets[rows[v].clone()],
                        };
                        let mut bits = NO_BITS;
                        for &u in neighbors {
                            bits = or(bits, frontier[u]);
                        }
                        let new = and(and_not(bits, old), need);
                        seen[v] = or(old, new);
                        next[v] = new;
                        any = or(any, new);
                        push_edges += degree(rows, vertex, v) * usize::from(!is_empty(new));
                    }
                }
                frontier[..len].fill(NO_BITS);
                grew = !is_empty(any);
            }
            // `next` becomes the frontier; the cleared frontier, `next`.
            std::mem::swap(frontier, next);
        }
        if pulled {
            seen[..len].fill(NO_BITS);
            frontier[..len].fill(NO_BITS);
        } else {
            // Pushing levels reached only `visited`.
            for &v in visited.iter() {
                seen[v] = NO_BITS;
                frontier[v] = NO_BITS;
            }
        }
        active.clear();
        visited.clear();
        pending.clear();
        Some(result)
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

    /// The kernel's answer for one set, from one BFS per source.
    fn per_source_max(g: &Graph, set: &SourceSet<'_>, induced: bool) -> Option<usize> {
        let mut members = VertexSet::new(g.vertex_count());
        members.extend(set.members.iter().copied());
        let mut best = 0;
        for &s in &set.members[set.sources.clone()] {
            let d = if induced {
                bfs::distances_restricted(g, s, &members)
            } else {
                bfs::distances(g, s)
            };
            for &u in set.members {
                best = best.max(d[u]?);
            }
        }
        Some(best)
    }

    fn assert_matches_per_source(
        bfs: &mut BitParallelBfs,
        g: &Graph,
        sets: &[SourceSet<'_>],
        case: &str,
    ) {
        for induced in [false, true] {
            let expected: Vec<Option<usize>> = sets
                .iter()
                .map(|set| per_source_max(g, set, induced))
                .collect();
            assert_eq!(
                bfs.max_distances(g, sets, induced),
                expected,
                "{case}, induced {induced}"
            );
        }
    }

    #[test]
    fn bit_parallel_bfs_matches_one_bfs_per_source() {
        use rand::rngs::StdRng;
        use rand::seq::SliceRandom;
        use rand::{Rng, SeedableRng};

        let mut rng = StdRng::seed_from_u64(17);
        // One scratch for every search: clearing must leave nothing behind.
        let mut bfs = BitParallelBfs::default();
        for trial in 0..80 {
            let n = rng.gen_range(260..=520);
            let degree = [1.0, 2.5, 6.0, 20.0][trial % 4];
            let g = generators::gnp(n, degree / n as f64, &mut rng).unwrap();
            let sources = [1, 64, 65, 255, 256][trial % 5];
            // One set, or several disjoint ones, each a run of a shuffle of
            // the vertices (scattered) or a BFS cell (mostly connected).
            let parts = if trial % 10 < 5 {
                1
            } else {
                rng.gen_range(2..=6usize).min(sources)
            };
            let mut shares = vec![1; parts];
            for _ in parts..sources {
                shares[rng.gen_range(0..parts)] += 1;
            }
            let groups: Vec<Vec<VertexId>> = if trial % 3 == 0 {
                let seeds: Vec<VertexId> = (0..parts).map(|_| rng.gen_range(0..n)).collect();
                let cells = bfs::multi_source_distances(&g, &seeds);
                let mut groups = vec![Vec::new(); parts];
                for (v, cell) in cells.iter().enumerate() {
                    if let Some((_, seed)) = cell {
                        let k = seeds.iter().position(|s| s == seed).expect("a seed");
                        groups[k].push(v);
                    }
                }
                groups
            } else {
                let mut order: Vec<VertexId> = g.vertices().collect();
                order.shuffle(&mut rng);
                let spare = n - sources;
                let mut at = 0;
                shares
                    .iter()
                    .map(|&share| {
                        let size = share + rng.gen_range(0..=spare / parts);
                        at += size;
                        order[at - size..at].to_vec()
                    })
                    .collect()
            };
            let sets: Vec<SourceSet<'_>> = groups
                .iter()
                .zip(&shares)
                .filter_map(|(members, &share)| {
                    let share = share.min(members.len());
                    let from = rng.gen_range(0..=members.len() - share);
                    (share > 0).then(|| SourceSet {
                        members,
                        sources: from..from + share,
                    })
                })
                .collect();
            if sets.is_empty() {
                continue;
            }
            let case = format!("trial {trial}: n {n}, {sources} sources over {parts} sets");
            assert_matches_per_source(&mut bfs, &g, &sets, &case);
            // A fresh scratch has no strings by vertex yet, so a search
            // through `G` starts by numbering what it reaches.
            assert_matches_per_source(&mut BitParallelBfs::default(), &g, &sets, &case);
        }
    }

    #[test]
    fn searches_over_a_set_give_its_strong_and_weak_diameters() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let mut rng = StdRng::seed_from_u64(29);
        let g = generators::gnp(1200, 0.003, &mut rng).unwrap();
        let mut bfs = BitParallelBfs::default();
        for size in [255, 256, 257, 513] {
            // A BFS ball is connected in G; every other vertex is not.
            let ball: Vec<VertexId> = bfs::ball_restricted(&g, 0, 1200, &VertexSet::full(1200))
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
                    for from in (0..size).step_by(BitParallelBfs::MAX_SOURCES) {
                        let to = (from + BitParallelBfs::MAX_SOURCES).min(size);
                        let search = [SourceSet {
                            members: &members,
                            sources: from..to,
                        }];
                        best = best
                            .zip(bfs.max_distances(&g, &search, induced)[0])
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
    fn no_bit_crosses_between_the_sets_of_an_induced_search() {
        // Path 0-1-2-3-4-5. {0, 1, 2} and {3, 4, 5} share the edge 2-3;
        // {0, 2} is connected only through 1, which another set holds.
        let g = generators::path(6);
        let mut bfs = BitParallelBfs::default();
        let halves = [
            SourceSet {
                members: &[0, 1, 2],
                sources: 2..3,
            },
            SourceSet {
                members: &[3, 4, 5],
                sources: 0..3,
            },
        ];
        assert_eq!(bfs.max_distances(&g, &halves, true), [Some(2), Some(2)]);
        assert_eq!(bfs.max_distances(&g, &halves, false), [Some(2), Some(2)]);
        let split = [
            SourceSet {
                members: &[0, 2],
                sources: 0..2,
            },
            SourceSet {
                members: &[1],
                sources: 0..1,
            },
        ];
        assert_eq!(bfs.max_distances(&g, &split, true), [None, Some(0)]);
        assert_eq!(bfs.max_distances(&g, &split, false), [Some(2), Some(0)]);
    }

    #[test]
    fn bit_parallel_bfs_reports_disconnection() {
        // Two triangles; the set takes one vertex from each.
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]).unwrap();
        let mut bfs = BitParallelBfs::default();
        let across = |sources| SourceSet {
            members: &[0, 1, 3],
            sources,
        };
        assert_eq!(bfs.max_distances(&g, &[across(0..3)], false), [None]);
        assert_eq!(bfs.max_distances(&g, &[across(0..1)], true), [None]);
        // The disconnected set fails alone; the set packed with it does not.
        let left = SourceSet {
            members: &[4, 5],
            sources: 0..2,
        };
        for induced in [false, true] {
            let both = [across(0..1), left.clone()];
            assert_eq!(bfs.max_distances(&g, &both, induced), [None, Some(1)]);
        }
    }

    #[test]
    #[should_panic(expected = "1 to 256 sources")]
    fn bit_parallel_bfs_rejects_257_sources() {
        let g = generators::path(300);
        let members: Vec<VertexId> = (0..300).collect();
        let sets = [
            SourceSet {
                members: &members[..200],
                sources: 0..200,
            },
            SourceSet {
                members: &members[200..],
                sources: 0..57,
            },
        ];
        let _ = BitParallelBfs::default().max_distances(&g, &sets, false);
    }

    #[test]
    #[should_panic(expected = "non-empty range")]
    fn bit_parallel_bfs_rejects_a_set_without_sources() {
        let g = generators::path(4);
        let sets = [SourceSet {
            members: &[0, 1],
            sources: 1..1,
        }];
        let _ = BitParallelBfs::default().max_distances(&g, &sets, false);
    }

    #[test]
    #[should_panic(expected = "listed twice")]
    fn bit_parallel_bfs_rejects_overlapping_sets() {
        let g = generators::path(4);
        let sets = [
            SourceSet {
                members: &[0, 1],
                sources: 0..1,
            },
            SourceSet {
                members: &[1, 2],
                sources: 0..1,
            },
        ];
        let _ = BitParallelBfs::default().max_distances(&g, &sets, false);
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
