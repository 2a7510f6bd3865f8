//! Theorem 1: the basic strong-diameter decomposition algorithm.
//!
//! Phases `t = 1, …, λ` with `λ = (cn)^{1/k}·ln(cn)`. In each phase every
//! alive vertex samples `r_v ~ EXP(β)` with `β = ln(cn)/k`, broadcasts it
//! `⌊r_v⌋` hops (capped at `k`), and joins the phase's block iff the top two
//! shifted values it heard differ by more than 1. Blocks have strong
//! diameter `≤ 2k − 2`; each phase is one supergraph color.
//!
//! [`decompose`] runs the *centralized simulation* of this algorithm — the
//! exact same per-vertex decisions as the distributed protocol in
//! [`crate::distributed`] (tested to be bit-identical), at in-memory speed.

use netdecomp_graph::Graph;

use crate::driver::{run_phases, BudgetPolicy, PhasePlan};
use crate::outcome::DecompositionOutcome;
use crate::params::DecompositionParams;
use crate::DecompError;

/// Runs Theorem 1's algorithm on `graph` with the given parameters and seed.
///
/// The run continues past the theorem's phase budget until the graph is
/// exhausted (the overrun, whose probability Theorem 1 bounds by `1/c`, is
/// visible via [`DecompositionOutcome::exhausted_within_budget`]).
///
/// # Errors
///
/// [`DecompError::InvalidParameter`] if the derived rate β is degenerate
/// (cannot happen for validated [`DecompositionParams`] on a non-empty
/// graph).
///
/// # Example
///
/// ```
/// use netdecomp_core::{basic, params::DecompositionParams};
/// use netdecomp_graph::generators;
///
/// let g = generators::grid2d(8, 8);
/// let params = DecompositionParams::new(3, 4.0)?;
/// let outcome = basic::decompose(&g, &params, 1)?;
/// assert!(outcome.decomposition().partition().is_complete());
/// // Block tags properly color the supergraph by construction; diameters
/// // are bounded by 2k-2 = 4 whenever no truncation event occurred.
/// # Ok::<(), netdecomp_core::DecompError>(())
/// ```
pub fn decompose(
    graph: &Graph,
    params: &DecompositionParams,
    seed: u64,
) -> Result<DecompositionOutcome, DecompError> {
    decompose_with_policy(graph, params, seed, BudgetPolicy::ContinueUntilEmpty)
}

/// [`decompose`] with an explicit budget policy.
///
/// # Errors
///
/// Same as [`decompose`].
pub fn decompose_with_policy(
    graph: &Graph,
    params: &DecompositionParams,
    seed: u64,
    policy: BudgetPolicy,
) -> Result<DecompositionOutcome, DecompError> {
    let (budget, plan) = schedule(params, graph.vertex_count());
    run_phases(graph, seed, budget, policy, plan)
}

/// Theorem 1's schedule on `n` vertices: the phase budget, and every
/// phase's plan (one rate and cap throughout).
pub(crate) fn schedule(
    params: &DecompositionParams,
    n: usize,
) -> (usize, impl Fn(usize) -> PhasePlan) {
    let beta = params.beta(n);
    let cap = params.radius_cap();
    (params.phase_budget(n), move |_| PhasePlan { beta, cap })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify;
    use netdecomp_graph::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn headline_regime_on_random_graph() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = generators::gnp(300, 0.03, &mut rng).unwrap();
        let params = DecompositionParams::for_graph_size(300);
        let outcome = decompose(&g, &params, 7).unwrap();
        let report = verify::verify(&g, outcome.decomposition()).unwrap();
        assert!(report.complete);
        assert!(report.supergraph_properly_colored);
        if outcome.events().clean() {
            assert!(report.clusters_connected);
            assert!(report
                .max_strong_diameter
                .is_some_and(|d| d <= params.diameter_bound()));
        }
    }

    #[test]
    fn diameter_bound_holds_across_families_and_seeds() {
        let graphs = [
            generators::path(60),
            generators::cycle(50),
            generators::grid2d(7, 8),
            generators::caveman(5, 6).unwrap(),
        ];
        for (i, g) in graphs.iter().enumerate() {
            for seed in 0..3u64 {
                let params = DecompositionParams::new(3, 4.0).unwrap();
                let outcome = decompose(g, &params, seed).unwrap();
                let report = verify::verify(g, outcome.decomposition()).unwrap();
                assert!(report.complete, "graph {i} seed {seed}");
                assert!(report.supergraph_properly_colored, "graph {i} seed {seed}");
                if outcome.events().clean() {
                    assert!(
                        report.is_valid_strong(params.diameter_bound()),
                        "graph {i} seed {seed}: {report:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn k_equals_one_yields_singletons() {
        // 2k - 2 = 0: every cluster must be a single vertex.
        let g = generators::cycle(20);
        let params = DecompositionParams::new(1, 4.0).unwrap();
        let outcome = decompose(&g, &params, 3).unwrap();
        let report = verify::verify(&g, outcome.decomposition()).unwrap();
        assert!(report.complete);
        if outcome.events().clean() {
            assert_eq!(report.max_strong_diameter, Some(0));
            assert_eq!(report.max_cluster_size, 1);
        }
        assert!(report.supergraph_properly_colored);
    }

    #[test]
    fn deterministic_under_seed() {
        let g = generators::grid2d(6, 6);
        let params = DecompositionParams::new(2, 4.0).unwrap();
        let a = decompose(&g, &params, 99).unwrap();
        let b = decompose(&g, &params, 99).unwrap();
        assert_eq!(a.decomposition(), b.decomposition());
        let c = decompose(&g, &params, 100).unwrap();
        // Overwhelmingly likely to differ.
        assert_ne!(a.decomposition(), c.decomposition());
    }

    #[test]
    fn centers_are_never_mixed_without_truncation() {
        for seed in 0..5u64 {
            let g = generators::grid2d(8, 8);
            let params = DecompositionParams::new(4, 4.0).unwrap();
            let outcome = decompose(&g, &params, seed).unwrap();
            if outcome.events().clean() {
                assert_eq!(outcome.mixed_center_clusters(), 0, "seed {seed}");
            }
        }
    }

    #[test]
    fn empty_and_singleton_graphs() {
        let params = DecompositionParams::new(2, 4.0).unwrap();
        let g = netdecomp_graph::Graph::empty(0);
        let outcome = decompose(&g, &params, 1).unwrap();
        assert_eq!(outcome.decomposition().cluster_count(), 0);

        let g1 = netdecomp_graph::Graph::empty(1);
        let outcome = decompose(&g1, &params, 1).unwrap();
        assert_eq!(outcome.decomposition().cluster_count(), 1);
        assert!(outcome.decomposition().partition().is_complete());
    }

    #[test]
    fn phase_budget_usually_suffices() {
        // Corollary 7: exhausted within lambda phases w.p. >= 1 - 1/c.
        let mut ok = 0;
        let trials = 20;
        for seed in 0..trials {
            let g = generators::cycle(64);
            let params = DecompositionParams::new(3, 8.0).unwrap();
            let outcome = decompose(&g, &params, seed).unwrap();
            if outcome.exhausted_within_budget() {
                ok += 1;
            }
        }
        // Bound is 1 - 1/8; demand at least half to keep the test robust.
        assert!(
            ok * 2 >= trials,
            "only {ok}/{trials} runs finished in budget"
        );
    }
}
