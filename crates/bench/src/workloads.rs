//! Named graph workloads shared by all experiments.

use netdecomp_graph::{generators, Graph};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A graph family with everything needed to instantiate it at a size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Family {
    /// Erdős–Rényi with expected degree `avg_degree`.
    Gnp {
        /// Expected average degree (p = avg_degree / (n-1)).
        avg_degree: f64,
    },
    /// Random `d`-regular.
    RandomRegular {
        /// The degree.
        d: usize,
    },
    /// Near-square 2D grid.
    Grid,
    /// Near-square 2D torus.
    Torus,
    /// Cycle.
    Cycle,
    /// Path.
    Path,
    /// Uniform random tree.
    Tree,
    /// Barabási–Albert with `attach` edges per newcomer.
    Ba {
        /// Attachment count.
        attach: usize,
    },
    /// Ring of cliques, `cave_size` vertices each.
    Caveman {
        /// Vertices per clique.
        cave_size: usize,
    },
    /// Hypercube (size rounded down to a power of two).
    Hypercube,
}

impl Family {
    /// Short label for table rows.
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            Family::Gnp { avg_degree } => format!("gnp(d~{avg_degree})"),
            Family::RandomRegular { d } => format!("reg({d})"),
            Family::Grid => "grid".into(),
            Family::Torus => "torus".into(),
            Family::Cycle => "cycle".into(),
            Family::Path => "path".into(),
            Family::Tree => "tree".into(),
            Family::Ba { attach } => format!("ba({attach})"),
            Family::Caveman { cave_size } => format!("caveman({cave_size})"),
            Family::Hypercube => "hypercube".into(),
        }
    }

    /// Instantiates the family at (approximately) `n` vertices.
    ///
    /// # Panics
    ///
    /// Panics if the family's parameters are infeasible at `n` (e.g. a
    /// regular degree `≥ n`); experiment configurations keep them feasible.
    #[must_use]
    pub fn build(&self, n: usize, seed: u64) -> Graph {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x6772_6170_685f_7365);
        match self {
            Family::Gnp { avg_degree } => {
                let p = (avg_degree / (n.max(2) - 1) as f64).min(1.0);
                generators::gnp(n, p, &mut rng).expect("valid p")
            }
            Family::RandomRegular { d } => {
                let d = *d;
                let n = if (n * d) % 2 == 1 { n + 1 } else { n };
                generators::random_regular(n, d, &mut rng).expect("feasible degree")
            }
            Family::Grid => {
                let side = (n as f64).sqrt().round() as usize;
                generators::grid2d(side.max(1), n.div_ceil(side.max(1)))
            }
            Family::Torus => {
                let side = (n as f64).sqrt().round() as usize;
                generators::torus2d(side.max(1), n.div_ceil(side.max(1)))
            }
            Family::Cycle => generators::cycle(n),
            Family::Path => generators::path(n),
            Family::Tree => generators::random_tree(n, &mut rng),
            Family::Ba { attach } => {
                generators::barabasi_albert(n.max(attach + 1), *attach, &mut rng)
                    .expect("feasible attach")
            }
            Family::Caveman { cave_size } => {
                let caves = n.div_ceil(*cave_size).max(1);
                generators::caveman(caves, *cave_size).expect("positive sizes")
            }
            Family::Hypercube => {
                let d = (n.max(2) as f64).log2() as u32;
                generators::hypercube(d).expect("small dimension")
            }
        }
    }
}

/// The default mixed workload used by the theorem sweeps.
#[must_use]
pub fn default_families() -> Vec<Family> {
    vec![
        Family::Gnp { avg_degree: 6.0 },
        Family::RandomRegular { d: 4 },
        Family::Grid,
        Family::Ba { attach: 3 },
        Family::Caveman { cave_size: 8 },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    const EVERY_FAMILY: [Family; 10] = [
        Family::Gnp { avg_degree: 4.0 },
        Family::RandomRegular { d: 3 },
        Family::Grid,
        Family::Torus,
        Family::Cycle,
        Family::Path,
        Family::Tree,
        Family::Ba { attach: 2 },
        Family::Caveman { cave_size: 5 },
        Family::Hypercube,
    ];

    #[test]
    fn all_families_build() {
        for f in EVERY_FAMILY {
            let g = f.build(64, 1);
            assert!(g.vertex_count() >= 32, "{} too small", f.label());
            assert!(!f.label().is_empty());
        }
    }

    #[test]
    fn builds_are_deterministic() {
        for f in EVERY_FAMILY {
            assert_eq!(f.build(100, 7), f.build(100, 7), "{}", f.label());
        }
    }

    #[test]
    fn grid_size_is_close() {
        let g = Family::Grid.build(100, 0);
        assert_eq!(g.vertex_count(), 100);
        let g = Family::Grid.build(90, 0);
        assert!(g.vertex_count() >= 90);
    }
}
