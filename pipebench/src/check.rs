//! Linear-time output checker, run on every workload.
//!
//! `verify::verify` is exhaustive (one full-graph BFS per vertex) and cannot
//! finish at a million vertices. This checker certifies the properties
//! Theorem 1 promises in `O(n + m)` for the usual case:
//!
//! - every vertex is in a cluster;
//! - no edge joins two clusters of the same block (one edge scan);
//! - each cluster is connected: a stamped BFS from its recorded center,
//!   restricted to the cluster, reaches every member;
//! - `2·radius ≤ 2k − 2` whenever the run had no truncation event. The BFS
//!   radius `r` from the center certifies strong diameter `≤ 2r`.
//!
//! Any member's BFS eccentricity `e` certifies strong diameter `≤ 2e`, so a
//! cluster whose recorded center lies outside it is certified from its
//! first member instead. Only when a clean run's certificate exceeds the
//! bound does the checker fall back to the exact strong diameter (a BFS
//! from every member), which decides the bound. A run with truncation
//! events is not held to the bound, since the theorem promises nothing
//! then; its certificate is still reported.

use netdecomp_core::verify::DecompositionReport;
use netdecomp_core::NetworkDecomposition;
use netdecomp_graph::{Graph, VertexId};

/// What the checker found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckReport {
    /// Every vertex is assigned to a cluster.
    pub complete: bool,
    /// No edge joins two distinct clusters of the same block.
    pub properly_colored: bool,
    /// Every cluster induces a connected subgraph.
    pub connected: bool,
    /// Every cluster's strong diameter is within the bound (always `true`
    /// when the run was not clean: the theorem promises nothing then).
    pub within_bound: bool,
    /// Max over clusters of the certified strong-diameter upper bound:
    /// `2·radius` from the center (or first member), or the exact diameter
    /// where the checker fell back to it. Disconnected clusters do not
    /// contribute.
    pub diameter_cert: usize,
    /// Clusters whose diameter had to be computed exactly.
    pub exact_fallbacks: usize,
    /// Number of clusters.
    pub clusters: usize,
    /// Number of blocks (colors).
    pub colors: usize,
    /// Size of the largest cluster.
    pub max_cluster_size: usize,
    /// Vertices dequeued by all BFS runs (the checker's work count).
    pub bfs_visits: usize,
}

impl CheckReport {
    /// The names of the properties that failed (empty when all hold).
    pub fn failures(&self) -> Vec<&'static str> {
        let mut out = Vec::new();
        if !self.complete {
            out.push("unassigned vertex");
        }
        if !self.properly_colored {
            out.push("adjacent clusters share a block");
        }
        if !self.connected {
            out.push("disconnected cluster");
        }
        if !self.within_bound {
            out.push("cluster diameter over 2k-2");
        }
        out
    }

    /// `true` when this certificate and `verify::verify`'s exhaustive
    /// report say the same thing about one decomposition: the same verdicts
    /// and counts, and `max strong diameter ≤ diameter_cert ≤ 2 × max
    /// strong diameter` (a center's radius is at least half the cluster's
    /// diameter and at most all of it).
    pub fn agrees_with(&self, report: &DecompositionReport) -> bool {
        let counts_agree = self.complete == report.complete
            && self.connected == report.clusters_connected
            && self.clusters == report.cluster_count
            && self.colors == report.color_count
            && self.max_cluster_size == report.max_cluster_size;
        // `verify` cannot contract an incomplete partition and then calls
        // it improperly colored; compare coloring only when complete.
        let coloring_agrees =
            !self.complete || self.properly_colored == report.supergraph_properly_colored;
        let diameter_agrees = match report.max_strong_diameter {
            Some(d) => d <= self.diameter_cert && self.diameter_cert <= 2 * d,
            None => !self.connected,
        };
        counts_agree && coloring_agrees && diameter_agrees
    }
}

/// Reusable BFS state: `stamp[v] == epoch` marks `v` visited by the
/// current search, so no array is cleared between searches.
struct Bfs {
    stamp: Vec<u32>,
    dist: Vec<u32>,
    queue: Vec<VertexId>,
    epoch: u32,
    visits: usize,
}

impl Bfs {
    fn new(n: usize) -> Self {
        Bfs {
            stamp: vec![0; n],
            dist: vec![0; n],
            queue: Vec::new(),
            epoch: 0,
            visits: 0,
        }
    }

    /// BFS from `source` over vertices whose cluster is `cluster`;
    /// returns (vertices reached, eccentricity of `source`).
    fn run(
        &mut self,
        g: &Graph,
        assignment: &[Option<usize>],
        cluster: usize,
        source: VertexId,
    ) -> (usize, usize) {
        self.epoch = self.epoch.checked_add(1).expect("fewer than 2^32 searches");
        self.queue.clear();
        self.queue.push(source);
        self.stamp[source] = self.epoch;
        self.dist[source] = 0;
        let mut head = 0;
        let mut ecc = 0;
        while let Some(&u) = self.queue.get(head) {
            head += 1;
            let du = self.dist[u];
            ecc = ecc.max(du as usize);
            for &v in g.neighbors(u) {
                if self.stamp[v] != self.epoch && assignment[v] == Some(cluster) {
                    self.stamp[v] = self.epoch;
                    self.dist[v] = du + 1;
                    self.queue.push(v);
                }
            }
        }
        self.visits += head;
        (head, ecc)
    }
}

/// Checks `decomposition` of `graph` against Theorem 1's promises with
/// diameter bound `bound` (= `2k − 2`); `clean` is `events().clean()`.
///
/// # Panics
///
/// Panics if the decomposition's vertex count differs from the graph's.
pub fn check(
    graph: &Graph,
    decomposition: &NetworkDecomposition,
    bound: usize,
    clean: bool,
) -> CheckReport {
    let n = graph.vertex_count();
    assert_eq!(
        decomposition.vertex_count(),
        n,
        "decomposition of another graph"
    );
    let assignment = decomposition.partition().assignment();
    let clusters = decomposition.cluster_count();

    // Members grouped by cluster (counting sort), for sizes and fallbacks.
    let mut offsets = vec![0usize; clusters + 1];
    let mut complete = true;
    for a in assignment {
        match a {
            Some(c) if *c < clusters => offsets[c + 1] += 1,
            _ => complete = false,
        }
    }
    for c in 0..clusters {
        offsets[c + 1] += offsets[c];
    }
    let mut cursor = offsets.clone();
    let mut members = vec![0 as VertexId; offsets[clusters]];
    for (v, a) in assignment.iter().enumerate() {
        if let Some(c) = *a {
            if c < clusters {
                members[cursor[c]] = v;
                cursor[c] += 1;
            }
        }
    }

    let mut properly_colored = true;
    for u in graph.vertices() {
        let Some(cu) = assignment[u] else { continue };
        for &v in graph.neighbors(u) {
            if let Some(cv) = assignment[v] {
                if u < v
                    && cu != cv
                    && decomposition.block_of_cluster(cu) == decomposition.block_of_cluster(cv)
                {
                    properly_colored = false;
                }
            }
        }
    }

    let mut bfs = Bfs::new(n);
    let mut connected = true;
    let mut within_bound = true;
    let mut diameter_cert = 0usize;
    let mut exact_fallbacks = 0usize;
    let mut max_cluster_size = 0usize;
    for c in 0..clusters {
        let cluster = &members[offsets[c]..offsets[c + 1]];
        max_cluster_size = max_cluster_size.max(cluster.len());
        let Some(&first) = cluster.first() else {
            continue;
        };
        let center = decomposition.center_of_cluster(c);
        let center_inside = center < n && assignment[center] == Some(c);
        let source = if center_inside { center } else { first };
        let (reached, ecc) = bfs.run(graph, assignment, c, source);
        if reached < cluster.len() {
            connected = false;
            continue;
        }
        let mut cert = 2 * ecc;
        if clean && cert > bound {
            exact_fallbacks += 1;
            cert = cluster
                .iter()
                .map(|&v| bfs.run(graph, assignment, c, v).1)
                .max()
                .unwrap_or(0);
        }
        if clean && cert > bound {
            within_bound = false;
        }
        diameter_cert = diameter_cert.max(cert);
    }

    CheckReport {
        complete,
        properly_colored,
        connected,
        within_bound,
        diameter_cert,
        exact_fallbacks,
        clusters,
        colors: decomposition.block_count(),
        max_cluster_size,
        bfs_visits: bfs.visits,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netdecomp_core::{basic, params::DecompositionParams, verify};
    use netdecomp_graph::{generators, io, Partition};

    fn decomposition(
        n: usize,
        clusters: &[&[VertexId]],
        blocks: &[usize],
        centers: &[VertexId],
    ) -> NetworkDecomposition {
        let mut p = Partition::new(n);
        for members in clusters {
            p.push_cluster(members);
        }
        NetworkDecomposition::from_parts(p, blocks.to_vec(), centers.to_vec())
    }

    #[test]
    fn accepts_a_valid_decomposition() {
        // Path 0-1-2-3-4: {0,1,2} centered at 1, {3,4} centered at 3.
        let g = generators::path(5);
        let d = decomposition(5, &[&[0, 1, 2], &[3, 4]], &[0, 1], &[1, 3]);
        let r = check(&g, &d, 2, true);
        assert!(r.failures().is_empty(), "{r:?}");
        assert_eq!(r.diameter_cert, 2);
        assert_eq!(r.exact_fallbacks, 0);
        assert_eq!((r.clusters, r.colors, r.max_cluster_size), (2, 2, 3));
    }

    #[test]
    fn rejects_an_unassigned_vertex() {
        let g = generators::path(4);
        let d = decomposition(4, &[&[0, 1], &[2]], &[0, 1], &[0, 2]);
        let r = check(&g, &d, 10, true);
        assert_eq!(r.failures(), vec!["unassigned vertex"]);
    }

    #[test]
    fn rejects_a_disconnected_cluster() {
        // {0, 2} skips vertex 1 on the path.
        let g = generators::path(3);
        let d = decomposition(3, &[&[0, 2], &[1]], &[0, 1], &[0, 1]);
        let r = check(&g, &d, 10, true);
        assert_eq!(r.failures(), vec!["disconnected cluster"]);
    }

    #[test]
    fn rejects_adjacent_clusters_in_one_block() {
        let g = generators::path(4);
        let d = decomposition(4, &[&[0, 1], &[2, 3]], &[0, 0], &[0, 2]);
        let r = check(&g, &d, 10, true);
        assert_eq!(r.failures(), vec!["adjacent clusters share a block"]);
    }

    #[test]
    fn rejects_a_radius_over_the_bound() {
        // One cluster, the whole path of 7, centered at an end: radius 6,
        // exact diameter 6, bound 4.
        let g = generators::path(7);
        let d = decomposition(7, &[&[0, 1, 2, 3, 4, 5, 6]], &[0], &[0]);
        let r = check(&g, &d, 4, true);
        assert_eq!(r.failures(), vec!["cluster diameter over 2k-2"]);
        assert_eq!((r.diameter_cert, r.exact_fallbacks), (6, 1));
        // Unclean runs are not held to the bound; the certificate stands.
        let r = check(&g, &d, 4, false);
        assert!(r.failures().is_empty());
        assert_eq!((r.diameter_cert, r.exact_fallbacks), (12, 0));
    }

    #[test]
    fn a_center_outside_its_cluster_is_certified_from_a_member() {
        // {0,1,2} records center 3, which lies in the other cluster. Its
        // first member's radius 2 gives 4 > bound 2, so the exact diameter
        // (2) decides, and it is within the bound.
        let g = generators::path(4);
        let d = decomposition(4, &[&[0, 1, 2], &[3]], &[0, 1], &[3, 3]);
        let r = check(&g, &d, 2, true);
        assert!(r.failures().is_empty(), "{r:?}");
        assert_eq!((r.diameter_cert, r.exact_fallbacks), (2, 1));
    }

    #[test]
    fn agrees_with_the_exhaustive_verifier() {
        for seed in 0..4u64 {
            let g = io::from_edge_list(&crate::gen::gnm_edge_list(400, 1_600, seed)).unwrap();
            let params = DecompositionParams::for_graph_size(400);
            let outcome = basic::decompose(&g, &params, seed).unwrap();
            let d = outcome.decomposition();
            let report = verify::verify(&g, d).unwrap();
            let r = check(&g, d, params.diameter_bound(), outcome.events().clean());
            assert!(r.agrees_with(&report), "seed {seed}: {r:?} vs {report:?}");
        }
    }
}
