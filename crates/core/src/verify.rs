//! Exact verification of decomposition properties.
//!
//! The theorems promise four things: every vertex is clustered, every
//! cluster is connected with strong diameter `≤ D`, and the block tags
//! properly color the supergraph `G(P)`. [`verify`] measures all of them
//! (plus the weak diameters, for baseline comparisons) and returns a
//! [`DecompositionReport`] that experiments print as *measured* columns.
//!
//! The check is exact but not exhaustive: it computes the two maximum
//! diameters without a BFS from every member of every cluster.
//!
//! - **Bounds.** Members are grouped by cluster with one counting sort.
//!   One plain BFS per cluster, inside the cluster, from its recorded
//!   center (or its first member if the center lies outside) decides
//!   connectivity and gives a radius `r`, so `r ≤ strong ≤ 2r`, and
//!   `weak ≤ strong`. It needs one source per cluster, so bit-parallel
//!   searches buy it nothing.
//! - **Pruning.** Clusters are visited in decreasing upper bound, and a
//!   cluster's diameter is computed exactly only while its bound exceeds
//!   the largest diameter found so far. The strong pass starts from the
//!   largest radius; the weak pass bounds each cluster by its exact strong
//!   diameter where the strong pass computed one. A cluster disconnected in
//!   `G(C)` has no bound and always gets the weak pass, which also finds a
//!   pair disconnected in `G`. With a disconnected cluster the maximum
//!   strong diameter is `None`, so no strong diameter is computed.
//! - **Packing.** The members of the clusters a pass visits are the
//!   sources of [`BitParallelBfs`] searches of 256 sources, filled back to
//!   back: a large cluster spans several, and one search can carry the
//!   last sources of one cluster and the first of the next few. After each
//!   search the running maximum takes the largest distance found, so the
//!   next search is filled against it; a pass's first search carries its
//!   first cluster alone, because on grids that one result usually prunes
//!   every other cluster.
//! - **Kernel.** Strong searches stay inside each cluster, and weak ones
//!   run through `G`, where the packed clusters share each level's edge
//!   scans; each search stops at the level where every cluster's sources
//!   have reached all its members. A pass costs `⌈s/256⌉` searches (one
//!   more at most, for its first), `s` being the member count of the
//!   clusters that survive pruning, each at most `levels · (n + m)`
//!   operations on four-word bit strings, on top of the one BFS per
//!   cluster for the bounds.
//! - **Scratch.** One `u32` label per vertex for the radius searches, and
//!   one [`BitParallelBfs`] allocated once per call: a `u32` per vertex,
//!   plus three 32-byte strings per packed member for strong searches, and
//!   for weak ones per vertex reached while they stay local, or per vertex
//!   of `G` (96 bytes) once one spreads far enough to pull.
//! - **Coloring.** One edge scan checks that no edge joins two clusters of
//!   one block, which is what a proper coloring of `G(P)` means.
//!
//! The report is the one the exhaustive per-cluster loop (the
//! [`strong_diameter`] and [`weak_diameter`] references) gives. A skipped
//! cluster's diameter is at most its bound, and that bound is at most the
//! running maximum, which is a radius or a distance between two members of
//! one cluster and so at most the true maximum. The maxima and their
//! `None` cases are therefore unchanged.
//!
//! [`strong_diameter`]: netdecomp_graph::diameter::strong_diameter
//! [`weak_diameter`]: netdecomp_graph::diameter::weak_diameter

use std::cmp::Reverse;
use std::ops::Range;

use netdecomp_graph::diameter::{BitParallelBfs, SourceSet};
use netdecomp_graph::{Graph, VertexId};

use crate::{DecompError, NetworkDecomposition};

/// Everything measurable about a decomposition on a concrete graph.
#[derive(Debug, Clone, PartialEq)]
pub struct DecompositionReport {
    /// Vertices in the graph.
    pub vertex_count: usize,
    /// Clusters in the decomposition.
    pub cluster_count: usize,
    /// Blocks = colors `χ`.
    pub color_count: usize,
    /// `true` if every vertex is assigned.
    pub complete: bool,
    /// `true` if every cluster induces a connected subgraph.
    pub clusters_connected: bool,
    /// Maximum strong diameter over clusters (`None` = some cluster is
    /// disconnected, i.e. infinite strong diameter).
    pub max_strong_diameter: Option<usize>,
    /// Maximum weak diameter over clusters (`None` = some pair of
    /// same-cluster vertices is disconnected even in `G`).
    pub max_weak_diameter: Option<usize>,
    /// Size of the largest cluster.
    pub max_cluster_size: usize,
    /// Mean cluster size.
    pub mean_cluster_size: f64,
    /// `true` if block tags properly color the supergraph `G(P)`.
    pub supergraph_properly_colored: bool,
}

impl DecompositionReport {
    /// Is this a valid **strong** `(bound, ·)` decomposition?
    #[must_use]
    pub fn is_valid_strong(&self, diameter_bound: usize) -> bool {
        self.complete
            && self.clusters_connected
            && self.supergraph_properly_colored
            && self
                .max_strong_diameter
                .is_some_and(|d| d <= diameter_bound)
    }

    /// Is this a valid **weak** `(bound, ·)` decomposition? (Clusters may be
    /// disconnected; only the weak diameter is constrained.)
    #[must_use]
    pub fn is_valid_weak(&self, diameter_bound: usize) -> bool {
        self.complete
            && self.supergraph_properly_colored
            && self.max_weak_diameter.is_some_and(|d| d <= diameter_bound)
    }
}

/// Measures every property of `decomposition` on `graph`.
///
/// # Errors
///
/// [`DecompError::GraphMismatch`] if the vertex counts differ.
///
/// # Example
///
/// ```
/// use netdecomp_core::{basic, params::DecompositionParams, verify};
/// use netdecomp_graph::generators;
///
/// let g = generators::cycle(16);
/// let params = DecompositionParams::new(2, 4.0)?;
/// let outcome = basic::decompose(&g, &params, 42)?;
/// let report = verify::verify(&g, outcome.decomposition())?;
/// assert!(report.complete);
/// assert!(report.clusters_connected);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn verify(
    graph: &Graph,
    decomposition: &NetworkDecomposition,
) -> Result<DecompositionReport, DecompError> {
    if decomposition.vertex_count() != graph.vertex_count() {
        return Err(DecompError::GraphMismatch {
            decomposition_n: decomposition.vertex_count(),
            graph_n: graph.vertex_count(),
        });
    }
    let n = graph.vertex_count();
    let assignment = decomposition.partition().assignment();
    let cluster_count = decomposition.cluster_count();
    let mut clusters = Clusters::group(graph, assignment, cluster_count);
    let assigned = clusters.members.len();
    let max_size = (0..cluster_count)
        .map(|c| clusters.members(c).len())
        .max()
        .unwrap_or(0);

    // One BFS inside each cluster from its center: `None` if the cluster
    // is disconnected, else the center's eccentricity `r ≤ strong ≤ 2r`.
    let radius: Vec<Option<usize>> = (0..cluster_count)
        .map(|c| clusters.radius(c, decomposition.center_of_cluster(c)))
        .collect();
    let clusters_connected = radius.iter().all(Option::is_some);

    // Upper bounds on each cluster's strong (hence weak) diameter, made
    // exact where the strong pass computes one; `None` = no bound.
    let mut bound: Vec<Option<usize>> = radius.iter().map(|r| r.map(|r| 2 * r)).collect();
    let mut by_bound: Vec<usize> = (0..cluster_count).collect();
    by_bound.sort_by_key(|&c| Reverse(bound[c].unwrap_or(usize::MAX)));

    let max_strong = if clusters_connected {
        let best = radius.iter().flatten().copied().max().unwrap_or(0);
        let max = clusters
            .max_diameter(&by_bound, &mut bound, best, true)
            .expect("connected clusters have finite strong diameters");
        Some(max)
    } else {
        None
    };

    // Re-sort by the tightened bounds. Unbounded (disconnected) clusters
    // come first, so they are always measured.
    by_bound.sort_by_key(|&c| Reverse(bound[c].unwrap_or(usize::MAX)));
    let max_weak = clusters.max_diameter(&by_bound, &mut bound, 0, false);

    // The block tags properly color `G(P)` iff no edge joins two clusters
    // of one block.
    let blocks = decomposition.cluster_blocks();
    let supergraph_properly_colored =
        graph
            .edges()
            .all(|(u, v)| match (assignment[u], assignment[v]) {
                (Some(cu), Some(cv)) => cu == cv || blocks[cu] != blocks[cv],
                _ => true,
            });

    Ok(DecompositionReport {
        vertex_count: n,
        cluster_count,
        color_count: decomposition.block_count(),
        complete: assigned == n,
        clusters_connected,
        max_strong_diameter: max_strong,
        max_weak_diameter: max_weak,
        max_cluster_size: max_size,
        mean_cluster_size: if cluster_count == 0 {
            0.0
        } else {
            assigned as f64 / cluster_count as f64
        },
        supergraph_properly_colored,
    })
}

/// Members grouped by cluster, with the search scratch they share.
struct Clusters<'a> {
    graph: &'a Graph,
    /// Cluster `c`'s members are `members[start[c]..start[c + 1]]`.
    start: Vec<usize>,
    members: Vec<VertexId>,
    /// Each vertex's cluster, until [`Clusters::radius`] reaches it;
    /// [`UNLABELED`] for vertices outside every cluster or reached.
    label: Vec<u32>,
    /// The radius search's queue.
    queue: Vec<VertexId>,
    bfs: BitParallelBfs,
}

/// The label of a vertex no radius search will enter.
const UNLABELED: u32 = u32::MAX;

impl<'a> Clusters<'a> {
    /// Groups the assigned vertices by cluster with one counting sort; each
    /// group is in increasing vertex order.
    fn group(graph: &'a Graph, assignment: &[Option<usize>], cluster_count: usize) -> Self {
        assert!(
            cluster_count < UNLABELED as usize,
            "fewer than 2^32 - 1 clusters"
        );
        let mut start = vec![0usize; cluster_count + 1];
        for &c in assignment.iter().flatten() {
            start[c + 1] += 1;
        }
        for c in 0..cluster_count {
            start[c + 1] += start[c];
        }
        let mut members = vec![0; start[cluster_count]];
        let mut fill = start.clone();
        let mut label = vec![UNLABELED; assignment.len()];
        for (v, &a) in assignment.iter().enumerate() {
            if let Some(c) = a {
                members[fill[c]] = v;
                fill[c] += 1;
                label[v] = c as u32;
            }
        }
        Clusters {
            graph,
            start,
            members,
            label,
            queue: Vec::new(),
            bfs: BitParallelBfs::default(),
        }
    }

    fn members(&self, c: usize) -> &[VertexId] {
        &self.members[self.start[c]..self.start[c + 1]]
    }

    /// Eccentricity inside cluster `c` of `center`, or of the first member
    /// if `center` lies outside; `None` if the cluster is disconnected.
    /// One plain BFS, level by level, which unlabels what it reaches.
    fn radius(&mut self, c: usize, center: VertexId) -> Option<usize> {
        let Clusters {
            graph,
            start,
            members,
            label,
            queue,
            ..
        } = self;
        let members = &members[start[c]..start[c + 1]];
        let Some(&first) = members.first() else {
            return Some(0);
        };
        let source = if members.binary_search(&center).is_ok() {
            center
        } else {
            first
        };
        let own = c as u32;
        queue.clear();
        queue.push(source);
        label[source] = UNLABELED;
        let (mut head, mut level) = (0, 0);
        loop {
            let end = queue.len();
            for i in head..end {
                for &v in graph.neighbors(queue[i]) {
                    if label[v] == own {
                        label[v] = UNLABELED;
                        queue.push(v);
                    }
                }
            }
            if queue.len() == end {
                break;
            }
            head = end;
            level += 1;
        }
        (queue.len() == members.len()).then_some(level)
    }

    /// The largest diameter, inside each cluster (`induced`, strong) or
    /// through `G` (weak), of the clusters in `order`, given `best`, a
    /// lower bound on it; `None` if a searched cluster has a pair
    /// disconnected in `G`.
    ///
    /// `order` lists the clusters by decreasing `bound`, an upper bound on
    /// each diameter (`None` = unbounded, listed first). Their members are
    /// the sources of searches of [`BitParallelBfs::MAX_SOURCES`], filled
    /// back to back, so one search can carry the last sources of a
    /// cluster and the first of the next. Every search raises `best` to
    /// the largest distance found. Searching stops at the first cluster
    /// whose bound is at most `best`, and a cluster's searches stop once
    /// it reaches its bound. A cluster searched from every member, or up
    /// to its bound, gets its exact diameter as its new bound.
    fn max_diameter(
        &mut self,
        order: &[usize],
        bound: &mut [Option<usize>],
        mut best: usize,
        induced: bool,
    ) -> Option<usize> {
        let Clusters {
            graph,
            start,
            members,
            bfs,
            ..
        } = self;
        let members = |c: usize| &members[start[c]..start[c + 1]];
        // The next sources: the cluster at `order[next]`, from `from` on,
        // whose sources before `from` found distances up to `carried`.
        let (mut next, mut from, mut carried) = (0, 0, 0);
        let mut batch: Vec<(usize, Range<usize>)> = Vec::new();
        let mut first = true;
        loop {
            batch.clear();
            let mut room = BitParallelBfs::MAX_SOURCES;
            while room > 0 && next < order.len() {
                let c = order[next];
                if bound[c].is_some_and(|ub| ub <= best) {
                    // Every later cluster is bounded at most as high.
                    break;
                }
                if first && !batch.is_empty() {
                    break;
                }
                let take = (members(c).len() - from).min(room);
                if take > 0 {
                    batch.push((c, from..from + take));
                }
                room -= take;
                from += take;
                if from == members(c).len() {
                    (next, from) = (next + 1, 0);
                }
            }
            if batch.is_empty() {
                return Some(best);
            }
            let sets: Vec<SourceSet<'_>> = batch
                .iter()
                .map(|(c, sources)| SourceSet {
                    members: members(*c),
                    sources: sources.clone(),
                })
                .collect();
            let found = bfs.max_distances(graph, &sets, induced);
            first = false;
            for ((c, sources), d) in batch.iter().zip(found) {
                // Only the first set can continue a cluster, and only the
                // last can stop short of its end.
                let far = if sources.start > 0 {
                    carried.max(d?)
                } else {
                    d?
                };
                best = best.max(far);
                if sources.end == members(*c).len() || bound[*c].is_some_and(|ub| far >= ub) {
                    bound[*c] = Some(far);
                } else {
                    carried = far;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netdecomp_graph::{generators, Partition};

    fn decomp(partition: Partition, blocks: Vec<usize>) -> NetworkDecomposition {
        let centers = (0..partition.cluster_count())
            .map(|c| partition.cluster_set(c).iter().next().unwrap_or(0))
            .collect();
        NetworkDecomposition::from_parts(partition, blocks, centers)
    }

    #[test]
    fn valid_decomposition_of_path() {
        // Path 0-1-2-3: clusters {0,1} and {2,3}, different blocks.
        let g = generators::path(4);
        let mut p = Partition::new(4);
        p.push_cluster(&[0, 1]);
        p.push_cluster(&[2, 3]);
        let d = decomp(p, vec![0, 1]);
        let r = verify(&g, &d).unwrap();
        assert!(r.complete);
        assert!(r.clusters_connected);
        assert_eq!(r.max_strong_diameter, Some(1));
        assert_eq!(r.max_weak_diameter, Some(1));
        assert!(r.supergraph_properly_colored);
        assert!(r.is_valid_strong(1));
        assert!(!r.is_valid_strong(0));
        assert_eq!(r.color_count, 2);
        assert!((r.mean_cluster_size - 2.0).abs() < 1e-12);
    }

    #[test]
    fn same_block_adjacent_clusters_fail_coloring() {
        let g = generators::path(4);
        let mut p = Partition::new(4);
        p.push_cluster(&[0, 1]);
        p.push_cluster(&[2, 3]);
        let d = decomp(p, vec![0, 0]); // adjacent clusters share a block
        let r = verify(&g, &d).unwrap();
        assert!(!r.supergraph_properly_colored);
        assert!(!r.is_valid_strong(10));
    }

    #[test]
    fn disconnected_cluster_detected() {
        // Path 0-1-2: cluster {0,2} is disconnected (1 is elsewhere).
        let g = generators::path(3);
        let mut p = Partition::new(3);
        p.push_cluster(&[0, 2]);
        p.push_cluster(&[1]);
        let d = decomp(p, vec![0, 1]);
        let r = verify(&g, &d).unwrap();
        assert!(!r.clusters_connected);
        assert_eq!(r.max_strong_diameter, None);
        assert_eq!(r.max_weak_diameter, Some(2));
        assert!(!r.is_valid_strong(100));
        assert!(r.is_valid_weak(2));
    }

    #[test]
    fn incomplete_partition_detected() {
        let g = generators::path(3);
        let mut p = Partition::new(3);
        p.push_cluster(&[0]);
        let d = decomp(p, vec![0]);
        let r = verify(&g, &d).unwrap();
        assert!(!r.complete);
        assert!(!r.is_valid_strong(10));
        assert!(!r.is_valid_weak(10));
    }

    #[test]
    fn graph_mismatch_errors() {
        let g = generators::path(3);
        let p = Partition::new(5);
        let d = decomp(p, vec![]);
        assert!(matches!(
            verify(&g, &d),
            Err(DecompError::GraphMismatch { .. })
        ));
    }

    #[test]
    fn singleton_decomposition_of_clique_needs_n_colors() {
        // Each vertex of K3 alone; every cluster in its own block -> proper.
        let g = generators::complete(3);
        let p = Partition::singletons(3);
        let d = decomp(p, vec![0, 1, 2]);
        let r = verify(&g, &d).unwrap();
        assert!(r.is_valid_strong(0));
        assert_eq!(r.color_count, 3);
        assert_eq!(r.max_strong_diameter, Some(0));

        // Same partition but only one block: improper.
        let p2 = Partition::singletons(3);
        let d2 = decomp(p2, vec![0, 0, 0]);
        assert!(!verify(&g, &d2).unwrap().supergraph_properly_colored);
    }
}
