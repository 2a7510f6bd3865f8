//! Whole decompositions pinned to fixed digests.
//!
//! Each case runs one centralized decomposition (`basic`, `staged` or
//! `high_radius`) on a fixed graph and seed and folds everything it reports
//! — the assignment, every cluster's block and center, the per-phase trace
//! and the event log — into one FNV-1a digest. The expected digests were
//! recorded from the binary-heap carve that the window sweep replaced, so
//! any change to a carve decision, truncated phases included, shows here.
//! FNV-1a is fixed by its definition; `DefaultHasher` may change between
//! Rust releases.

use netdecomp::core::params::{DecompositionParams, HighRadiusParams, StagedParams};
use netdecomp::core::{basic, high_radius, staged, DecompositionOutcome};
use netdecomp::graph::{generators, Graph};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// 64-bit FNV-1a over little-endian words.
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn usize(&mut self, x: usize) {
        self.word(x as u64);
    }
}

fn digest(o: &DecompositionOutcome) -> u64 {
    let mut h = Fnv1a::new();
    let d = o.decomposition();
    h.usize(d.vertex_count());
    for a in d.partition().assignment() {
        // `u64::MAX` marks an unassigned vertex.
        h.word(a.map_or(u64::MAX, |c| c as u64));
    }
    h.usize(d.cluster_count());
    for c in 0..d.cluster_count() {
        h.usize(d.block_of_cluster(c));
        h.usize(d.center_of_cluster(c));
    }
    h.usize(o.phases_used());
    h.usize(o.phase_budget());
    h.usize(o.trace().len());
    for t in o.trace() {
        h.usize(t.phase);
        h.word(t.beta.to_bits());
        h.usize(t.alive_before);
        h.usize(t.carved);
        h.usize(t.clusters_formed);
    }
    h.usize(o.events().truncation_events);
    h.word(o.events().max_shift.to_bits());
    h.usize(o.mixed_center_clusters());
    h.0
}

fn gnp(n: usize, p: f64, seed: u64) -> Graph {
    generators::gnp(n, p, &mut StdRng::seed_from_u64(seed)).unwrap()
}

/// (case name, outcome, expected digest, expected truncation events).
fn cases() -> Vec<(&'static str, DecompositionOutcome, u64, usize)> {
    let g_sparse = gnp(600, 8.0 / 600.0, 3);
    let g_dense = gnp(200, 0.05, 9);
    let grid = generators::grid2d(20, 20);
    let cycle = generators::cycle(120);
    let b2 = DecompositionParams::new(2, 4.0).unwrap();
    let b3 = DecompositionParams::new(3, 4.0).unwrap();
    let s3 = StagedParams::new(3, 6.0).unwrap();
    let h3 = HighRadiusParams::new(3, 4.0).unwrap();
    let h5 = HighRadiusParams::new(5, 4.0).unwrap();
    let run_basic =
        |g: &Graph, p: &DecompositionParams, seed| basic::decompose(g, p, seed).unwrap();
    vec![
        (
            "basic k=3 gnp600 seed 1",
            run_basic(&g_sparse, &b3, 1),
            0xca48_2f13_772b_72d9,
            0,
        ),
        (
            "basic k=2 gnp600 seed 5",
            run_basic(&g_sparse, &b2, 5),
            0xc1af_e7a7_3618_c226,
            0,
        ),
        (
            "basic k=2 gnp600 seed 3",
            run_basic(&g_sparse, &b2, 3),
            0x1f6e_6eb9_df12_a343,
            2,
        ),
        (
            "basic k=2 grid20 seed 7",
            run_basic(&grid, &b2, 7),
            0x5037_488f_34c1_cd92,
            2,
        ),
        (
            "basic k=3 grid20 seed 2",
            run_basic(&grid, &b3, 2),
            0xac97_3aa3_e637_047f,
            0,
        ),
        (
            "basic k=2 cycle120 seed 4",
            run_basic(&cycle, &b2, 4),
            0x8a93_2209_0123_2dcc,
            0,
        ),
        (
            "staged k=3 gnp200 seed 3",
            staged::decompose(&g_dense, &s3, 3).unwrap(),
            0xda8d_bbf6_7080_18f2,
            1,
        ),
        (
            "staged k=3 grid20 seed 6",
            staged::decompose(&grid, &s3, 6).unwrap(),
            0x5e00_e7cd_9cb8_d78e,
            0,
        ),
        (
            "high_radius λ=3 gnp600 seed 2",
            high_radius::decompose(&g_sparse, &h3, 2).unwrap(),
            0xf88a_1edf_c53f_0713,
            1,
        ),
        (
            "high_radius λ=5 grid20 seed 7",
            high_radius::decompose(&grid, &h5, 7).unwrap(),
            0x5a8d_9553_df05_3f08,
            0,
        ),
    ]
}

#[test]
fn decompositions_match_their_pinned_digests() {
    let cases = cases();
    assert!(
        cases.iter().any(|&(_, _, _, truncations)| truncations > 0),
        "the pinned set must cover truncated phases"
    );
    for (name, outcome, want, want_truncations) in cases {
        assert_eq!(
            outcome.events().truncation_events,
            want_truncations,
            "{name}: truncation events"
        );
        assert_eq!(digest(&outcome), want, "{name}: digest");
    }
}
