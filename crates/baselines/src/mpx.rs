//! The Miller–Peng–Xu padded partition (SPAA 2013) from exponential shifts.
//!
//! Every vertex `u` draws `δ_u ~ EXP(β)`; every vertex `x` joins the cluster
//! of the vertex maximizing `δ_u − d(x, u)`. One shot, no phases: this is a
//! *partition* (every vertex assigned), not yet a decomposition. Guarantees:
//! clusters are connected with strong diameter `O(log n / β)` w.h.p., and
//! each edge is cut with probability `O(β)`.
//!
//! The Elkin–Neiman algorithm adapts exactly this shifted-shortest-path
//! rule, adding the `m₁ − m₂ > 1` margin to carve *blocks* usable as
//! supergraph colors — so one uncapped carve phase over every vertex
//! computes the MPX partition too: each vertex's center is its
//! maximizing origin. Reproducing MPX's own guarantees is experiment E10.

use netdecomp_core::carve::carve_phase;
use netdecomp_core::shift::ShiftSource;
use netdecomp_core::DecompError;
use netdecomp_graph::{Graph, Partition, VertexId, VertexSet};

/// A padded partition with its shifts' rate.
#[derive(Debug, Clone, PartialEq)]
pub struct PaddedPartition {
    /// The partition (complete: every vertex belongs to a cluster).
    pub partition: Partition,
    /// Center of each cluster, indexed by cluster id.
    pub centers: Vec<VertexId>,
    /// The rate β the shifts were drawn with.
    pub beta: f64,
}

/// Measured properties of a padded partition (experiment E10's columns).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PaddedReport {
    /// Number of clusters.
    pub cluster_count: usize,
    /// Fraction of edges whose endpoints lie in different clusters.
    pub cut_fraction: f64,
    /// Maximum strong diameter over clusters (`None` if some cluster is
    /// disconnected — must not happen for MPX).
    pub max_strong_diameter: Option<usize>,
}

/// Builds the padded partition of `graph` with rate `beta`.
///
/// # Errors
///
/// [`DecompError::InvalidParameter`] unless `beta` is finite and positive.
pub fn padded_partition(
    graph: &Graph,
    beta: f64,
    seed: u64,
) -> Result<PaddedPartition, DecompError> {
    let n = graph.vertex_count();
    let source = ShiftSource::new(seed ^ 0x4D50_5831, beta)?; // stream tag "MPX1"
    let shifts: Vec<f64> = (0..n).map(|v| source.shift(0, v)).collect();
    Ok(partition_from_shifts(graph, &shifts, beta))
}

/// The partition `shifts` induce: every vertex `x` joins the origin `u`
/// maximizing `δ_u − d(x, u)`, ties toward the smaller origin id (a fixed
/// consistent tie-break keeps clusters connected).
///
/// That maximizer is the center [`carve_phase`] reports for `x` with
/// every vertex alive and no cap. The sweep stops relaying a broadcast
/// once its value drops below 0, but such a label never wins: `x`'s own
/// label is worth `δ_x ≥ 0`.
fn partition_from_shifts(graph: &Graph, shifts: &[f64], beta: f64) -> PaddedPartition {
    let n = graph.vertex_count();
    let phase = carve_phase(graph, &VertexSet::full(n), shifts, usize::MAX);
    // Origins become clusters in first-appearance order.
    let mut cluster_of_origin = vec![None; n];
    let mut centers = Vec::new();
    let raw = phase
        .decisions
        .iter()
        .map(|decision| {
            let origin = decision.expect("every vertex is alive").center;
            let cluster = *cluster_of_origin[origin].get_or_insert_with(|| {
                centers.push(origin);
                centers.len() - 1
            });
            Some(cluster)
        })
        .collect();
    PaddedPartition {
        partition: Partition::from_assignment(raw),
        centers,
        beta,
    }
}

/// Measures the padded partition's guarantees on `graph`.
#[must_use]
pub fn report(graph: &Graph, padded: &PaddedPartition) -> PaddedReport {
    let partition = &padded.partition;
    let mut cut = 0usize;
    let mut total = 0usize;
    for (u, v) in graph.edges() {
        total += 1;
        if partition.cluster_of(u) != partition.cluster_of(v) {
            cut += 1;
        }
    }
    let mut max_diam: Option<usize> = Some(0);
    for c in 0..partition.cluster_count() {
        let members = partition.cluster_set(c);
        match (
            max_diam,
            netdecomp_graph::diameter::strong_diameter(graph, &members),
        ) {
            (Some(best), Some(d)) => max_diam = Some(best.max(d)),
            _ => max_diam = None,
        }
    }
    PaddedReport {
        cluster_count: partition.cluster_count(),
        cut_fraction: if total == 0 {
            0.0
        } else {
            cut as f64 / total as f64
        },
        max_strong_diameter: max_diam,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netdecomp_graph::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn partition_is_complete_and_connected() {
        let mut rng = StdRng::seed_from_u64(2);
        let g = generators::gnp(150, 0.05, &mut rng).unwrap();
        let padded = padded_partition(&g, 0.4, 7).unwrap();
        assert!(padded.partition.is_complete());
        let r = report(&g, &padded);
        assert!(
            r.max_strong_diameter.is_some(),
            "MPX clusters must be connected"
        );
    }

    #[test]
    fn clusters_connected_across_families_and_seeds() {
        let graphs = [
            generators::grid2d(8, 8),
            generators::cycle(50),
            generators::caveman(5, 6).unwrap(),
        ];
        for (i, g) in graphs.iter().enumerate() {
            for seed in 0..5u64 {
                let padded = padded_partition(g, 0.5, seed).unwrap();
                let r = report(g, &padded);
                assert!(
                    r.max_strong_diameter.is_some(),
                    "disconnected MPX cluster: graph {i} seed {seed}"
                );
            }
        }
    }

    #[test]
    fn higher_beta_cuts_more_edges() {
        // Cut fraction grows with beta (more, smaller clusters). Average
        // over seeds for stability.
        let g = generators::grid2d(12, 12);
        let avg_cut = |beta: f64| -> f64 {
            (0..8u64)
                .map(|s| report(&g, &padded_partition(&g, beta, s).unwrap()).cut_fraction)
                .sum::<f64>()
                / 8.0
        };
        let low = avg_cut(0.05);
        let high = avg_cut(0.8);
        assert!(
            low < high,
            "cut fraction did not grow with beta: {low} vs {high}"
        );
    }

    #[test]
    fn diameter_shrinks_with_beta() {
        let g = generators::cycle(200);
        let diam = |beta: f64| -> usize {
            (0..5u64)
                .map(|s| {
                    report(&g, &padded_partition(&g, beta, s).unwrap())
                        .max_strong_diameter
                        .unwrap()
                })
                .max()
                .unwrap()
        };
        let coarse = diam(0.02);
        let fine = diam(1.0);
        assert!(
            fine < coarse,
            "diameter did not shrink: beta=1.0 gives {fine}, beta=0.02 gives {coarse}"
        );
    }

    #[test]
    fn beta_validation() {
        let g = generators::path(3);
        assert!(padded_partition(&g, 0.0, 1).is_err());
        assert!(padded_partition(&g, -2.0, 1).is_err());
    }

    #[test]
    fn single_vertex_graph() {
        let g = Graph::empty(1);
        let padded = padded_partition(&g, 0.5, 1).unwrap();
        assert_eq!(padded.partition.cluster_count(), 1);
        let r = report(&g, &padded);
        assert_eq!(r.cut_fraction, 0.0);
        assert_eq!(r.max_strong_diameter, Some(0));
    }

    /// The single-label multi-source Dijkstra `padded_partition` ran
    /// before it became a carve adapter: keys `δ_u − d` popped from a
    /// max-heap, ties toward the smaller origin id.
    fn heap_partition(graph: &Graph, shifts: &[f64], beta: f64) -> PaddedPartition {
        use std::cmp::Ordering;
        use std::collections::BinaryHeap;

        #[derive(Debug, Clone, Copy, PartialEq)]
        struct Label {
            value: f64,
            origin: VertexId,
            vertex: VertexId,
        }
        impl Eq for Label {}
        impl Ord for Label {
            fn cmp(&self, other: &Self) -> Ordering {
                self.value
                    .total_cmp(&other.value)
                    .then_with(|| other.origin.cmp(&self.origin))
                    .then_with(|| other.vertex.cmp(&self.vertex))
            }
        }
        impl PartialOrd for Label {
            fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
                Some(self.cmp(other))
            }
        }

        let n = graph.vertex_count();
        let mut heap: BinaryHeap<Label> = BinaryHeap::new();
        let mut assigned: Vec<Option<VertexId>> = vec![None; n];
        for (v, &shift) in shifts.iter().enumerate() {
            heap.push(Label {
                value: shift,
                origin: v,
                vertex: v,
            });
        }
        while let Some(label) = heap.pop() {
            if assigned[label.vertex].is_some() {
                continue;
            }
            assigned[label.vertex] = Some(label.origin);
            for &z in graph.neighbors(label.vertex) {
                if assigned[z].is_none() {
                    heap.push(Label {
                        value: label.value - 1.0,
                        origin: label.origin,
                        vertex: z,
                    });
                }
            }
        }
        let mut cluster_of_origin = std::collections::HashMap::new();
        let mut raw = vec![None; n];
        let mut centers = Vec::new();
        for v in 0..n {
            let origin = assigned[v].expect("every vertex assigned");
            let next = cluster_of_origin.len();
            let c = *cluster_of_origin.entry(origin).or_insert(next);
            if c == centers.len() {
                centers.push(origin);
            }
            raw[v] = Some(c);
        }
        PaddedPartition {
            partition: Partition::from_assignment(raw),
            centers,
            beta,
        }
    }

    #[test]
    fn partitions_and_centers_equal_the_heap_oracle() {
        let mut rng = StdRng::seed_from_u64(5);
        let graphs = [
            generators::grid2d(8, 8),
            generators::grid2d(5, 13),
            generators::cycle(50),
            generators::cycle(7),
            generators::gnp(120, 0.05, &mut rng).unwrap(),
            generators::gnp(60, 0.1, &mut rng).unwrap(),
            generators::caveman(5, 6).unwrap(),
            generators::caveman(3, 4).unwrap(),
        ];
        let betas = [0.02, 0.05, 0.1, 0.2, 0.35, 0.5, 0.75, 1.0];
        let mut cases = 0;
        for (i, g) in graphs.iter().enumerate() {
            for beta in betas {
                for seed in 0..3u64 {
                    let source = ShiftSource::new(seed, beta).unwrap();
                    let drawn: Vec<f64> =
                        (0..g.vertex_count()).map(|v| source.shift(0, v)).collect();
                    // Integral shifts tie values exactly; −0.0 ranks
                    // below +0.0 under `total_cmp`, so a relayed +0.0
                    // must beat a vertex's own −0.0.
                    let integral: Vec<f64> = drawn.iter().map(|r| r.floor()).collect();
                    let signed_zeros: Vec<f64> = integral
                        .iter()
                        .enumerate()
                        .map(|(v, &r)| if r == 0.0 || v % 3 == 0 { -0.0 } else { r })
                        .collect();
                    for shifts in [&drawn, &integral, &signed_zeros] {
                        let got = partition_from_shifts(g, shifts, beta);
                        let want = heap_partition(g, shifts, beta);
                        assert_eq!(got, want, "graph {i} beta {beta} seed {seed}");
                        cases += 1;
                    }
                }
            }
        }
        assert!(cases >= 500, "{cases} cases");
    }

    #[test]
    fn deterministic_under_seed() {
        let g = generators::grid2d(6, 6);
        let a = padded_partition(&g, 0.3, 11).unwrap();
        let b = padded_partition(&g, 0.3, 11).unwrap();
        assert_eq!(a.partition, b.partition);
    }
}
