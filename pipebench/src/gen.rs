//! Seeded input generator: the edge-list text each workload hands to
//! `io::from_edge_list`.
//!
//! The generator lives in the benchmark, not in `netdecomp-graph`, so that
//! a change to the library's generators can never change a workload's
//! input. `generators::gnp` is also unusable at these sizes: its
//! `edge_slot_to_pair` rescans rows from 0 for every sampled edge, which is
//! O(n·m), not the documented O(n+m) (26–28 s at n = 200 000 on a 2-CPU
//! x86-64 box).

use std::collections::HashSet;
use std::fmt::Write as _;

/// SplitMix64: a tiny, fixed, well-mixed generator, so a seed maps to the
/// same input on every platform and every future build.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator whose stream is fixed by `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform value in `0..bound` (Lemire's multiply-shift with
    /// rejection, so no value is favoured).
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "empty range");
        let threshold = bound.wrapping_neg() % bound;
        loop {
            let wide = u128::from(self.next_u64()) * u128::from(bound);
            if (wide as u64) >= threshold {
                return (wide >> 64) as u64;
            }
        }
    }
}

/// `G(n, m)`: `n` vertices and exactly `m` distinct edges drawn uniformly at
/// random, listed in the order they were drawn.
///
/// # Panics
///
/// Panics if `m` exceeds the `n(n−1)/2` possible edges.
pub fn gnm_edge_list(n: usize, m: usize, seed: u64) -> String {
    assert!(
        (m as u128) <= (n as u128) * (n.saturating_sub(1) as u128) / 2,
        "G({n}, {m}) has more edges than pairs"
    );
    let mut rng = SplitMix64::new(seed);
    let mut seen: HashSet<(u32, u32)> = HashSet::with_capacity(m);
    let mut out = String::with_capacity(16 * (m + 1));
    let _ = writeln!(out, "{n} {m}");
    while seen.len() < m {
        let u = rng.below(n as u64) as u32;
        let v = rng.below(n as u64) as u32;
        if u == v {
            continue;
        }
        if seen.insert((u.min(v), u.max(v))) {
            let _ = writeln!(out, "{u} {v}");
        }
    }
    out
}

/// A `rows × cols` grid, vertex `r·cols + c`, each vertex's right edge then
/// its down edge in row-major order.
pub fn grid_edge_list(rows: usize, cols: usize) -> String {
    let m = rows * cols.saturating_sub(1) + cols * rows.saturating_sub(1);
    let mut out = String::with_capacity(16 * (m + 1));
    let _ = writeln!(out, "{} {m}", rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            let v = r * cols + c;
            if c + 1 < cols {
                let _ = writeln!(out, "{v} {}", v + 1);
            }
            if r + 1 < rows {
                let _ = writeln!(out, "{v} {}", v + cols);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use netdecomp_graph::{generators, io};

    #[test]
    fn same_seed_gives_byte_identical_edge_lists() {
        assert_eq!(
            gnm_edge_list(2_000, 8_000, 7),
            gnm_edge_list(2_000, 8_000, 7)
        );
        assert_ne!(
            gnm_edge_list(2_000, 8_000, 7),
            gnm_edge_list(2_000, 8_000, 8)
        );
        assert_eq!(grid_edge_list(30, 40), grid_edge_list(30, 40));
    }

    #[test]
    fn the_stream_is_pinned() {
        // A change here changes every workload's input: results measured
        // before and after it are not comparable.
        let text = gnm_edge_list(2_000, 8_000, 1);
        let head: Vec<&str> = text.lines().take(4).collect();
        assert_eq!(head, ["2000 8000", "1133 1491", "1942 888", "888 1525"]);
    }

    #[test]
    fn gnm_has_exactly_m_distinct_edges() {
        let g = io::from_edge_list(&gnm_edge_list(500, 2_000, 3)).unwrap();
        assert_eq!(g.vertex_count(), 500);
        assert_eq!(g.edge_count(), 2_000);
    }

    #[test]
    fn grid_matches_the_library_grid() {
        let g = io::from_edge_list(&grid_edge_list(7, 9)).unwrap();
        assert_eq!(g, generators::grid2d(7, 9));
    }

    #[test]
    fn below_stays_in_range() {
        let mut rng = SplitMix64::new(1);
        for bound in [1u64, 2, 3, 10, 1 << 40] {
            for _ in 0..1_000 {
                assert!(rng.below(bound) < bound);
            }
        }
    }
}
