//! Theorem 3: the high-radius regime — few colors, large diameter.
//!
//! Inverting the tradeoff of Theorem 1: to end up with only `λ ≤ ln n`
//! blocks, run `λ` phases with radius parameter `k = (cn)^{1/λ}·ln(cn)` and
//! rate `β = ln(cn)/k`. The result is a strong
//! `(2(cn)^{1/λ}·ln(cn), λ)` decomposition with probability `≥ 1 − 3/c`.

use netdecomp_graph::Graph;

use crate::driver::{run_phases, BudgetPolicy, PhasePlan};
use crate::outcome::DecompositionOutcome;
use crate::params::HighRadiusParams;
use crate::DecompError;

/// Runs Theorem 3's algorithm.
///
/// # Errors
///
/// [`DecompError::InvalidParameter`] if the derived rate is degenerate
/// (cannot happen for validated [`HighRadiusParams`]).
///
/// # Example
///
/// ```
/// use netdecomp_core::{high_radius, params::HighRadiusParams};
/// use netdecomp_graph::generators;
///
/// let g = generators::cycle(64);
/// let params = HighRadiusParams::new(3, 4.0)?;
/// let outcome = high_radius::decompose(&g, &params, 2)?;
/// // lambda = 3 colors at most (when the budget sufficed).
/// if outcome.exhausted_within_budget() {
///     assert!(outcome.decomposition().block_count() <= 3);
/// }
/// # Ok::<(), netdecomp_core::DecompError>(())
/// ```
pub fn decompose(
    graph: &Graph,
    params: &HighRadiusParams,
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
    params: &HighRadiusParams,
    seed: u64,
    policy: BudgetPolicy,
) -> Result<DecompositionOutcome, DecompError> {
    let (budget, plan) = schedule(params, graph.vertex_count());
    run_phases(graph, seed, budget, policy, plan)
}

/// Theorem 3's schedule on `n` vertices: the phase budget, and every
/// phase's plan (one rate and cap throughout).
pub(crate) fn schedule(
    params: &HighRadiusParams,
    n: usize,
) -> (usize, impl Fn(usize) -> PhasePlan) {
    let beta = params.beta(n);
    let cap = params.radius_cap(n);
    (params.phase_budget(), move |_| PhasePlan { beta, cap })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify;
    use netdecomp_graph::generators;

    #[test]
    fn few_blocks_large_diameter() {
        let g = generators::cycle(100);
        let params = HighRadiusParams::new(2, 4.0).unwrap();
        let outcome = decompose(&g, &params, 9).unwrap();
        let report = verify::verify(&g, outcome.decomposition()).unwrap();
        assert!(report.complete);
        assert!(report.supergraph_properly_colored);
        if outcome.exhausted_within_budget() {
            assert!(report.color_count <= 2);
        }
        if outcome.events().clean() {
            assert!(report.is_valid_strong(params.diameter_bound(100)));
        }
    }

    #[test]
    fn lambda_one_usually_one_block() {
        // lambda = 1: a single phase must swallow the graph; the radius
        // parameter is huge (cn * ln(cn)), so w.h.p. everything joins one
        // phase. With ContinueUntilEmpty leftovers spill into extra phases.
        let g = generators::path(40);
        let params = HighRadiusParams::new(1, 8.0).unwrap();
        let mut within = 0;
        for seed in 0..10u64 {
            let o = decompose(&g, &params, seed).unwrap();
            if o.exhausted_within_budget() {
                within += 1;
                assert_eq!(o.decomposition().block_count(), 1);
            }
        }
        assert!(within >= 5, "only {within}/10 single-phase runs");
    }

    #[test]
    fn blocks_at_most_phases_used() {
        let g = generators::grid2d(8, 8);
        let params = HighRadiusParams::new(3, 4.0).unwrap();
        let outcome = decompose(&g, &params, 4).unwrap();
        assert!(outcome.decomposition().block_count() <= outcome.phases_used());
    }

    #[test]
    fn deterministic_under_seed() {
        let g = generators::cycle(30);
        let params = HighRadiusParams::new(2, 4.0).unwrap();
        let a = decompose(&g, &params, 12).unwrap();
        let b = decompose(&g, &params, 12).unwrap();
        assert_eq!(a.decomposition(), b.decomposition());
    }
}
