//! Property-based tests for the baseline algorithms on arbitrary graphs.

use proptest::prelude::*;

use netdecomp_baselines::{ball_carving, linial_saks, mpx};
use netdecomp_core::verify;
use netdecomp_graph::{diameter, Graph, GraphBuilder};

fn arb_graph(max_n: usize) -> impl Strategy<Value = Graph> {
    (4usize..=max_n).prop_flat_map(|n| {
        proptest::collection::vec((0..n, 0..n), 0..(2 * n)).prop_map(move |pairs| {
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn linial_saks_is_complete_weak_and_proper(
        g in arb_graph(40),
        k in 2usize..5,
        seed in 0u64..500,
    ) {
        let p = linial_saks::LinialSaksParams::new(k, 4.0).expect("valid");
        let o = linial_saks::decompose(&g, &p, seed).expect("runs");
        let r = verify::verify(&g, &o.decomposition).expect("same graph");
        prop_assert!(r.complete);
        prop_assert!(r.supergraph_properly_colored);
        prop_assert!(r.is_valid_weak(p.weak_diameter_bound()), "{r:?}");
    }

    #[test]
    fn linial_saks_distributed_matches_centralized(
        g in arb_graph(24),
        seed in 0u64..100,
        engine_pick in 0usize..5,
    ) {
        use netdecomp_sim::{Engine, FrameTransport};
        let p = linial_saks::LinialSaksParams::new(3, 4.0).expect("valid");
        let central = linial_saks::decompose(&g, &p, seed).expect("runs");
        // `shards: 0` resolves to the thread count (2); 13 shards usually
        // exceed n/2, fragmenting the routing segments; the framed engines
        // cross the frame seam in memory and over sockets.
        let engine = [
            Engine::Parallel { threads: 2, shards: 0 },
            Engine::Parallel { threads: 2, shards: 4 },
            Engine::Parallel { threads: 2, shards: 13 },
            Engine::Framed { threads: 2, shards: 7, transport: FrameTransport::Loopback },
            Engine::Framed { threads: 2, shards: 4, transport: FrameTransport::Socket },
        ][engine_pick];
        let (dist, _) = linial_saks::decompose_distributed(
            &g,
            &p,
            seed,
            netdecomp_sim::CongestLimit::Unlimited,
            engine,
        )
        .expect("runs");
        prop_assert_eq!(central.decomposition, dist.decomposition);
    }

    #[test]
    fn mpx_partition_is_complete_and_connected(
        g in arb_graph(40),
        beta in 0.05f64..1.5,
        seed in 0u64..500,
    ) {
        let padded = mpx::padded_partition(&g, beta, seed).expect("valid beta");
        prop_assert!(padded.partition.is_complete());
        for c in 0..padded.partition.cluster_count() {
            let members = padded.partition.cluster_set(c);
            prop_assert!(
                diameter::strong_diameter(&g, &members).is_some(),
                "cluster {} disconnected", c
            );
        }
    }

    #[test]
    fn mpx_centers_belong_to_their_clusters(
        g in arb_graph(30),
        seed in 0u64..200,
    ) {
        let padded = mpx::padded_partition(&g, 0.4, seed).expect("valid beta");
        for (c, &center) in padded.centers.iter().enumerate() {
            prop_assert_eq!(
                padded.partition.cluster_of(center),
                Some(c),
                "center {} not in cluster {}", center, c
            );
        }
    }

    #[test]
    fn ball_carving_covers_with_bounded_radius(
        g in arb_graph(40),
        eps in 0.05f64..2.0,
    ) {
        let outcome = ball_carving::carve(&g, eps).expect("valid eps");
        prop_assert!(outcome.partition.is_complete());
        for c in 0..outcome.partition.cluster_count() {
            let members = outcome.partition.cluster_set(c);
            let d = diameter::strong_diameter(&g, &members);
            prop_assert!(d.is_some(), "ball {} disconnected", c);
            prop_assert!(d.expect("checked") <= 2 * outcome.max_radius);
        }
    }
}
