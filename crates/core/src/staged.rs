//! Theorem 2: the staged variant with an improved number of blocks.
//!
//! Instead of one fixed rate, the algorithm runs `ln n` *stages*: stage `i`
//! lasts `s_i = 2(cn/eⁱ)^{1/k}` phases with rate `β_i = ln(cn/eⁱ)/k`.
//! Decreasing β raises the per-phase join probability (Claim 8 gives
//! survival `≤ e^{−2i}` into stage `i`), which compresses the total number
//! of phases — and hence colors — to `4k(cn)^{1/k}`, at the cost of a
//! slightly worse failure probability (`5/c` instead of `3/c`).

use netdecomp_graph::Graph;

use crate::driver::{run_phases, BudgetPolicy, PhasePlan};
use crate::outcome::DecompositionOutcome;
use crate::params::StagedParams;
use crate::DecompError;

/// Maps a global phase index to its stage under the schedule `s_0, s_1, …`.
///
/// Phases past the last stage reuse the final stage's parameters (this only
/// matters for the overrun the driver may record).
fn stage_of_phase(params: &StagedParams, n: usize, phase: usize) -> usize {
    let stages = params.stage_count(n);
    let mut cursor = 0usize;
    for i in 0..stages {
        cursor += params.stage_phases(n, i);
        if phase < cursor {
            return i;
        }
    }
    stages.saturating_sub(1)
}

/// Runs Theorem 2's staged algorithm.
///
/// # Errors
///
/// [`DecompError::InvalidParameter`] if a derived rate is degenerate (cannot
/// happen for validated [`StagedParams`]).
///
/// # Example
///
/// ```
/// use netdecomp_core::{staged, params::StagedParams};
/// use netdecomp_graph::generators;
///
/// let g = generators::grid2d(6, 6);
/// let params = StagedParams::new(3, 6.0)?;
/// let outcome = staged::decompose(&g, &params, 5)?;
/// assert!(outcome.decomposition().partition().is_complete());
/// # Ok::<(), netdecomp_core::DecompError>(())
/// ```
pub fn decompose(
    graph: &Graph,
    params: &StagedParams,
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
    params: &StagedParams,
    seed: u64,
    policy: BudgetPolicy,
) -> Result<DecompositionOutcome, DecompError> {
    let (budget, plan) = schedule(params, graph.vertex_count());
    run_phases(graph, seed, budget, policy, plan)
}

/// Theorem 2's schedule on `n` vertices: the phase budget summed over the
/// stages, and every phase's plan (its stage's rate, one cap throughout).
pub(crate) fn schedule(params: &StagedParams, n: usize) -> (usize, impl Fn(usize) -> PhasePlan) {
    let cap = params.radius_cap();
    let budget: usize = (0..params.stage_count(n))
        .map(|i| params.stage_phases(n, i))
        .sum();
    let p = *params;
    (budget, move |phase| {
        let stage = stage_of_phase(&p, n, phase);
        PhasePlan {
            beta: p.stage_beta(n, stage),
            cap,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify;
    use netdecomp_graph::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn stage_schedule_is_consistent() {
        let params = StagedParams::new(3, 6.0).unwrap();
        let n = 500;
        // First phase of stage 0.
        assert_eq!(stage_of_phase(&params, n, 0), 0);
        // Walk the schedule and verify monotonicity.
        let mut previous = 0;
        for phase in 0..2000 {
            let s = stage_of_phase(&params, n, phase);
            assert!(s >= previous);
            assert!(s < params.stage_count(n));
            previous = s;
        }
        // Far past the schedule: clamps to the last stage.
        assert_eq!(
            stage_of_phase(&params, n, usize::MAX / 2),
            params.stage_count(n) - 1
        );
    }

    #[test]
    fn staged_produces_valid_decomposition() {
        let mut rng = StdRng::seed_from_u64(4);
        let g = generators::gnp(250, 0.04, &mut rng).unwrap();
        let params = StagedParams::new(4, 6.0).unwrap();
        let outcome = decompose(&g, &params, 11).unwrap();
        let report = verify::verify(&g, outcome.decomposition()).unwrap();
        assert!(report.complete);
        assert!(report.supergraph_properly_colored);
        if outcome.events().clean() {
            assert!(report.is_valid_strong(params.diameter_bound()));
        }
    }

    #[test]
    fn staged_tends_to_use_fewer_colors_than_basic() {
        // The whole point of Theorem 2: block count O(k n^{1/k}) vs
        // O(n^{1/k} log n). Compare on a mid-size instance, averaged over
        // seeds so the test is stable.
        use crate::params::DecompositionParams;
        let g = generators::grid2d(12, 12);
        let k = 3;
        let mut basic_sum = 0usize;
        let mut staged_sum = 0usize;
        for seed in 0..5u64 {
            let b = crate::basic::decompose(&g, &DecompositionParams::new(k, 6.0).unwrap(), seed)
                .unwrap();
            let s = decompose(&g, &StagedParams::new(k, 6.0).unwrap(), seed).unwrap();
            basic_sum += b.decomposition().block_count();
            staged_sum += s.decomposition().block_count();
        }
        assert!(
            staged_sum < basic_sum,
            "staged used {staged_sum} blocks vs basic {basic_sum}"
        );
    }

    #[test]
    fn deterministic_under_seed() {
        let g = generators::cycle(40);
        let params = StagedParams::new(2, 6.0).unwrap();
        let a = decompose(&g, &params, 5).unwrap();
        let b = decompose(&g, &params, 5).unwrap();
        assert_eq!(a.decomposition(), b.decomposition());
    }

    #[test]
    fn stop_at_budget_policy_respected() {
        let g = generators::complete(40);
        let params = StagedParams::new(2, 6.0).unwrap();
        let outcome = decompose_with_policy(&g, &params, 1, BudgetPolicy::StopAtBudget).unwrap();
        assert!(outcome.phases_used() <= outcome.phase_budget());
    }
}
