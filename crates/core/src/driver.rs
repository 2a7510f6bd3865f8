//! Shared phase loop used by all three theorem variants.
//!
//! The alive set shrinks geometrically — an alive vertex joins a phase's
//! block with probability about `e^{−β}` — so most phases touch few
//! vertices, and the loop's cost follows the alive set rather than `n`.
//! It keeps the alive set as a bitset, lists it once per phase (`n/64`
//! words plus the members), and carries a shift table and a per-vertex
//! `u32` mark across phases, writing them over the alive vertices only.
//! The carver receives the alive list and returns a decision per alive
//! vertex; clusters come from a search over the joined vertices alone.
//! Per-phase lists are sized exactly by the alive set.

use netdecomp_graph::{Graph, Partition, VertexId, VertexSet};

use crate::carve::{self, CarveDecision, SweepScratch};
use crate::outcome::{DecompositionOutcome, EventLog, PhaseTraceEntry};
use crate::shift::ShiftSource;
use crate::{DecompError, NetworkDecomposition};

/// Per-phase plan: which rate and radius cap to use.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct PhasePlan {
    /// Exponential rate β for this phase.
    pub beta: f64,
    /// Broadcast radius cap (= communication rounds allotted to the phase).
    pub cap: usize,
}

/// Stop policy once the theorem's phase budget is exceeded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BudgetPolicy {
    /// Keep carving until the graph is exhausted, recording the overrun
    /// (default: experiments then report how often the budget sufficed,
    /// which is exactly the probability the theorems bound).
    #[default]
    ContinueUntilEmpty,
    /// Stop at the budget, possibly leaving vertices unassigned.
    StopAtBudget,
}

/// Hard safety multiple of the phase budget after which the driver aborts
/// (the probability of ever reaching this is astronomically small; it guards
/// against hangs on adversarial float inputs).
const HARD_BUDGET_MULTIPLE: usize = 64;

/// The phase loop with the centralized carve ([`SweepScratch::carve`],
/// the sweep behind [`carve::carve_phase`]) and its scratch kept for the
/// whole run.
pub(crate) fn run_phases<F>(
    graph: &Graph,
    seed: u64,
    budget: usize,
    policy: BudgetPolicy,
    plan_for_phase: F,
) -> Result<DecompositionOutcome, DecompError>
where
    F: Fn(usize) -> PhasePlan,
{
    let mut scratch = SweepScratch::new(graph.vertex_count());
    run_phases_with_carver(
        graph,
        seed,
        budget,
        policy,
        plan_for_phase,
        |alive, shifts, cap| Ok(scratch.carve(graph, alive, shifts, cap, 1.0)),
    )
}

/// Marks a vertex outside the block being assembled.
const UNMARKED: u32 = u32::MAX;

/// Generalized phase loop: `carver` computes each phase's decisions — either
/// the centralized sweep ([`SweepScratch::carve`]) or a full message-passing
/// execution (`crate::distributed`). Everything around it (sampling, block
/// assembly, bookkeeping) is shared, so the two paths can only differ in the
/// per-phase decisions themselves.
///
/// `carver(alive, shifts, cap)` gets the alive vertices in ascending order
/// and the shift table (valid at alive vertices only), and returns one
/// decision per alive vertex, in the list's order.
pub(crate) fn run_phases_with_carver<F, C>(
    graph: &Graph,
    seed: u64,
    budget: usize,
    policy: BudgetPolicy,
    plan_for_phase: F,
    mut carver: C,
) -> Result<DecompositionOutcome, DecompError>
where
    F: Fn(usize) -> PhasePlan,
    C: FnMut(&[VertexId], &[f64], usize) -> Result<Vec<CarveDecision>, DecompError>,
{
    let n = graph.vertex_count();
    assert!(
        u32::try_from(n).is_ok(),
        "the phase loop indexes vertices as u32, got {n} vertices"
    );
    let mut alive = VertexSet::full(n);
    let mut shifts = vec![0.0f64; n];
    // Per vertex: its index in the phase's alive list while it waits in
    // the block to be assembled, `UNMARKED` otherwise.
    let mut mark = vec![UNMARKED; n];
    let mut group: Vec<VertexId> = Vec::new();
    let mut partition = Partition::new(n);
    let mut cluster_blocks: Vec<usize> = Vec::new();
    let mut cluster_centers: Vec<VertexId> = Vec::new();
    let mut trace: Vec<PhaseTraceEntry> = Vec::new();
    let mut events = EventLog::default();
    let mut mixed_center_clusters = 0usize;

    let hard_max = budget
        .saturating_mul(HARD_BUDGET_MULTIPLE)
        .saturating_add(1024);
    let mut phase = 0usize;
    while !alive.is_empty() {
        if phase >= budget && policy == BudgetPolicy::StopAtBudget {
            break;
        }
        if phase >= hard_max {
            break;
        }
        let plan = plan_for_phase(phase);
        let source = ShiftSource::new(seed, plan.beta)?;
        let mut members = Vec::with_capacity(alive.len());
        members.extend(alive.iter());
        for &v in &members {
            shifts[v] = source.shift(phase as u64, v);
        }
        let decisions = carver(&members, &shifts, plan.cap)?;
        assert_eq!(
            decisions.len(),
            members.len(),
            "one decision per alive vertex"
        );
        let (truncated, max_shift) = carve::shift_events(&members, &shifts, plan.cap);
        events.truncation_events += truncated;
        events.max_shift = events.max_shift.max(max_shift);

        for (i, (&v, d)) in members.iter().zip(&decisions).enumerate() {
            if d.joined {
                mark[v] = i as u32;
            }
        }
        // Clusters are the components of the block, searched from each
        // unvisited joined vertex in ascending order: the clusters come in
        // the order of their smallest members, which are their roots.
        // Members are unmarked as they are reached, which leaves `mark`
        // clear for the next phase; their order within a group does not
        // matter, since a cluster is only its members' assignment.
        let mut carved = 0usize;
        let mut clusters_formed = 0usize;
        for &root in &members {
            let at = mark[root];
            if at == UNMARKED {
                continue;
            }
            mark[root] = UNMARKED;
            // Lemma 4: all members of a connected component of the block
            // chose the same center (except, possibly, under truncation).
            let center = decisions[at as usize].center;
            let mut consistent = true;
            group.clear();
            group.push(root);
            let mut next = 0;
            while let Some(&u) = group.get(next) {
                next += 1;
                for &z in graph.neighbors(u) {
                    let at = mark[z];
                    if at != UNMARKED {
                        mark[z] = UNMARKED;
                        consistent &= decisions[at as usize].center == center;
                        group.push(z);
                    }
                }
            }
            if !consistent {
                mixed_center_clusters += 1;
            }
            partition.push_cluster(&group);
            cluster_blocks.push(phase);
            cluster_centers.push(center);
            clusters_formed += 1;
            carved += group.len();
            for &v in &group {
                alive.remove(v);
            }
        }
        trace.push(PhaseTraceEntry {
            phase,
            beta: plan.beta,
            alive_before: members.len(),
            carved,
            clusters_formed,
        });
        phase += 1;
    }

    let decomposition =
        NetworkDecomposition::from_parts(partition, cluster_blocks, cluster_centers);
    Ok(DecompositionOutcome::new(
        decomposition,
        phase,
        budget,
        trace,
        events,
        mixed_center_clusters,
    ))
}

/// The dense phase loop the sparse one replaced, kept as its test oracle:
/// fresh `n`-sized tables every phase, a carver returning the dense
/// [`carve::PhaseResult`], and clusters from
/// `components_restricted(..).groups()`. [`run_phases_with_carver`] must
/// reproduce its whole outcome bit for bit.
#[cfg(test)]
pub(crate) fn run_phases_dense<F, C>(
    graph: &Graph,
    seed: u64,
    budget: usize,
    policy: BudgetPolicy,
    plan_for_phase: F,
    mut carver: C,
) -> Result<DecompositionOutcome, DecompError>
where
    F: Fn(usize) -> PhasePlan,
    C: FnMut(&Graph, &VertexSet, &[f64], usize) -> Result<carve::PhaseResult, DecompError>,
{
    use netdecomp_graph::components;

    let n = graph.vertex_count();
    let mut alive = VertexSet::full(n);
    let mut partition = Partition::new(n);
    let mut cluster_blocks: Vec<usize> = Vec::new();
    let mut cluster_centers: Vec<VertexId> = Vec::new();
    let mut trace: Vec<PhaseTraceEntry> = Vec::new();
    let mut events = EventLog::default();
    let mut mixed_center_clusters = 0usize;

    let hard_max = budget
        .saturating_mul(HARD_BUDGET_MULTIPLE)
        .saturating_add(1024);
    let mut phase = 0usize;
    while !alive.is_empty() {
        if phase >= budget && policy == BudgetPolicy::StopAtBudget {
            break;
        }
        if phase >= hard_max {
            break;
        }
        let plan = plan_for_phase(phase);
        let source = ShiftSource::new(seed, plan.beta)?;
        let mut shifts = vec![0.0f64; n];
        for v in alive.iter() {
            shifts[v] = source.shift(phase as u64, v);
        }
        let result = carver(graph, &alive, &shifts, plan.cap)?;
        events.truncation_events += result.truncated;
        events.max_shift = events.max_shift.max(result.max_shift);

        let joined = result.joined();
        let alive_before = alive.len();
        let mut clusters_formed = 0usize;
        if !joined.is_empty() {
            let mut block: VertexSet = VertexSet::new(n);
            for &v in &joined {
                block.insert(v);
            }
            let comps = components::components_restricted(graph, &block);
            for group in comps.groups() {
                let first_center = result.decisions[group[0]]
                    .expect("joined vertices have decisions")
                    .center;
                let consistent = group.iter().all(|&v| {
                    result.decisions[v]
                        .expect("joined vertices have decisions")
                        .center
                        == first_center
                });
                if !consistent {
                    mixed_center_clusters += 1;
                }
                partition.push_cluster(&group);
                cluster_blocks.push(phase);
                cluster_centers.push(first_center);
                clusters_formed += 1;
            }
            for &v in &joined {
                alive.remove(v);
            }
        }
        trace.push(PhaseTraceEntry {
            phase,
            beta: plan.beta,
            alive_before,
            carved: joined.len(),
            clusters_formed,
        });
        phase += 1;
    }

    let decomposition =
        NetworkDecomposition::from_parts(partition, cluster_blocks, cluster_centers);
    Ok(DecompositionOutcome::new(
        decomposition,
        phase,
        budget,
        trace,
        events,
        mixed_center_clusters,
    ))
}

/// A small seeded graph for the oracle sweeps, of family `case % 5`:
/// G(n, p), a grid, a path, a cycle, or a sparse graph with isolated
/// vertices; `n < max_n`.
#[cfg(test)]
pub(crate) fn oracle_graph(
    case: u64,
    rng: &mut rand::rngs::StdRng,
    max_n: usize,
) -> (&'static str, Graph) {
    use netdecomp_graph::generators;
    use rand::Rng;

    let n = rng.gen_range(1..max_n);
    match case % 5 {
        0 => (
            "gnp",
            generators::gnp(n, rng.gen_range(0.02..0.2), rng).unwrap(),
        ),
        1 => {
            let rows = rng.gen_range(1..8usize);
            ("grid", generators::grid2d(rows, n / rows + 1))
        }
        2 => ("path", generators::path(n)),
        3 => ("cycle", generators::cycle(n.max(3))),
        _ => {
            // A few short paths among mostly isolated vertices.
            let edges: Vec<(VertexId, VertexId)> = (1..n)
                .filter(|_| rng.gen_bool(0.3))
                .map(|v| (v - 1, v))
                .collect();
            ("isolated", Graph::from_edges(n, &edges).unwrap())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{DecompositionParams, HighRadiusParams, StagedParams};
    use crate::{basic, high_radius, staged};
    use netdecomp_graph::generators;
    use rand::{Rng, SeedableRng};

    /// The dense oracle with the centralized carve, as the theorem entry
    /// points ran before the loop went sparse.
    fn dense<F: Fn(usize) -> PhasePlan>(
        g: &Graph,
        seed: u64,
        (budget, plan): (usize, F),
        policy: BudgetPolicy,
    ) -> Result<DecompositionOutcome, DecompError> {
        run_phases_dense(g, seed, budget, policy, plan, |g, alive, shifts, cap| {
            Ok(carve::carve_phase(g, alive, shifts, cap))
        })
    }

    /// Every theorem's entry point against the dense loop on the same
    /// schedule: whole outcomes, the largest shift to the bit.
    #[test]
    fn sparse_phases_equal_the_dense_loop() {
        let (mut cases, mut truncated) = (0, 0);
        for case in 0..1200u64 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(case);
            let (family, g) = oracle_graph(case, &mut rng, 70);
            let n = g.vertex_count();
            let ln_n = (n.max(2) as f64).ln().ceil() as usize;
            let k = [1, 2, 3, ln_n][rng.gen_range(0..4usize)];
            let policy = if rng.gen_bool(0.5) {
                BudgetPolicy::ContinueUntilEmpty
            } else {
                BudgetPolicy::StopAtBudget
            };
            let seed = rng.gen::<u64>();
            let (kind, got, want) = match case / 5 % 3 {
                0 => {
                    let p = DecompositionParams::new(k, 4.0).unwrap();
                    let got = basic::decompose_with_policy(&g, &p, seed, policy);
                    (
                        "basic",
                        got,
                        dense(&g, seed, basic::schedule(&p, n), policy),
                    )
                }
                1 => {
                    let p = StagedParams::new(k, 6.0).unwrap();
                    let got = staged::decompose_with_policy(&g, &p, seed, policy);
                    (
                        "staged",
                        got,
                        dense(&g, seed, staged::schedule(&p, n), policy),
                    )
                }
                _ => {
                    let p = HighRadiusParams::new(k, 4.0).unwrap();
                    let got = high_radius::decompose_with_policy(&g, &p, seed, policy);
                    let want = dense(&g, seed, high_radius::schedule(&p, n), policy);
                    ("high-radius", got, want)
                }
            };
            let (got, want) = (got.unwrap(), want.unwrap());
            let what = format!("case {case}: {kind} {family} n={n} k={k} {policy:?}");
            assert_eq!(got, want, "{what}");
            assert_eq!(
                got.events().max_shift.to_bits(),
                want.events().max_shift.to_bits(),
                "{what}"
            );
            cases += 1;
            truncated += usize::from(!got.events().clean());
        }
        assert!(cases >= 1000);
        assert!(truncated >= 100, "only {truncated} runs truncated");
    }

    #[test]
    fn driver_exhausts_a_small_cycle() {
        let g = generators::cycle(12);
        let outcome = run_phases(&g, 3, 100, BudgetPolicy::ContinueUntilEmpty, |_| {
            PhasePlan { beta: 1.0, cap: 3 }
        })
        .unwrap();
        assert!(outcome.decomposition().partition().is_complete());
        assert!(outcome.phases_used() >= 1);
        assert_eq!(outcome.trace().len(), outcome.phases_used());
    }

    #[test]
    fn stop_at_budget_can_leave_vertices() {
        let g = generators::complete(30);
        // beta tiny => joining is rare => one phase almost surely leaves
        // most vertices unassigned.
        let outcome = run_phases(&g, 5, 1, BudgetPolicy::StopAtBudget, |_| PhasePlan {
            beta: 8.0,
            cap: 2,
        })
        .unwrap();
        assert!(outcome.phases_used() <= 1);
    }

    #[test]
    fn trace_alive_counts_are_monotone() {
        let g = generators::grid2d(5, 5);
        let outcome = run_phases(&g, 7, 500, BudgetPolicy::ContinueUntilEmpty, |_| {
            PhasePlan { beta: 0.8, cap: 4 }
        })
        .unwrap();
        let trace = outcome.trace();
        for w in trace.windows(2) {
            assert!(w[1].alive_before <= w[0].alive_before);
            assert_eq!(w[0].alive_before - w[0].carved, w[1].alive_before);
        }
        // Everything eventually carved.
        let total: usize = trace.iter().map(|t| t.carved).sum();
        assert_eq!(total, 25);
    }

    #[test]
    fn zero_vertex_graph_finishes_immediately() {
        let g = netdecomp_graph::Graph::empty(0);
        let outcome = run_phases(&g, 1, 10, BudgetPolicy::ContinueUntilEmpty, |_| PhasePlan {
            beta: 1.0,
            cap: 1,
        })
        .unwrap();
        assert_eq!(outcome.phases_used(), 0);
        assert!(outcome.exhausted_within_budget());
    }
}
