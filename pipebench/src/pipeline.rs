//! The pipeline under test, run two ways from the same public calls.
//!
//! [`run`] is what a user runs: `io::from_edge_list` → `basic::decompose`
//! (or `distributed::decompose_distributed`) → `verify::verify` where the
//! workload asks for it, timed from outside. [`run_traced`] rebuilds the
//! same pipeline from the layers' public functions — the phase loop from
//! `ShiftSource::shift`, `carve::carve_phase` and `components_restricted`,
//! and verify from `graph::{diameter, components, contraction}` — with a
//! span at every layer boundary, and returns what it built so the caller
//! can demand bit-identity with [`run`].

use std::hint::black_box;
use std::time::Instant;

use netdecomp_core::distributed::{self, DistributedConfig};
use netdecomp_core::params::DecompositionParams;
use netdecomp_core::shift::ShiftSource;
use netdecomp_core::verify::{self, DecompositionReport};
use netdecomp_core::{
    basic, carve, DecompositionOutcome, EventLog, NetworkDecomposition, PhaseTraceEntry,
};
use netdecomp_graph::{
    components, contraction, diameter, io, Graph, Partition, VertexId, VertexSet,
};
use netdecomp_sim::{Ctx, Engine, FrameTransport, Inbox, Outbox, Protocol, RunStats, Simulator};

use crate::spans::Tracer;

/// How a workload decomposes and checks its graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `basic::decompose`, then the exhaustive `verify::verify`.
    CentralVerified,
    /// `basic::decompose` alone.
    Central,
    /// `distributed::decompose_distributed` on the framed socket engine.
    Congest,
}

/// The engine of the CONGEST workload: two shards, every cross-shard
/// delivery encoded into frames and decoded by the receiving shard, on one
/// worker thread over the in-memory loopback transport. On a shared 2-CPU
/// box, repeated runs of one seed with two threads or the socket hub spread
/// by ±20% in time and ±15% in peak memory; one thread keeps memory within
/// ±3%.
pub const CONGEST_ENGINE: Engine = Engine::Framed {
    threads: 1,
    shards: 2,
    transport: FrameTransport::Loopback,
};

fn congest_config() -> DistributedConfig {
    DistributedConfig {
        engine: CONGEST_ENGINE,
        ..DistributedConfig::default()
    }
}

/// What one pipeline run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct Output {
    /// The loaded graph.
    pub graph: Graph,
    /// The decomposition run.
    pub outcome: DecompositionOutcome,
    /// Communication totals (CONGEST workload only).
    pub comm: Option<RunStats>,
    /// `verify::verify`'s report (verified workload only).
    pub report: Option<DecompositionReport>,
}

/// Wall time of each stage of one untraced run, in seconds.
#[derive(Debug, Clone, Copy)]
pub struct Timings {
    /// Edge-list text → CSR graph.
    pub setup: f64,
    /// The decomposition.
    pub decompose: f64,
    /// `verify::verify` (0 when the workload does not verify).
    pub verify: f64,
}

impl Timings {
    /// Time to a checked decomposition.
    pub fn pipeline(&self) -> f64 {
        self.setup + self.decompose + self.verify
    }
}

/// Parses the edge list; errors become strings for the run log.
pub fn load(text: &str) -> Result<Graph, String> {
    io::from_edge_list(black_box(text)).map_err(|e| format!("load: {e}"))
}

/// The untraced pipeline, timed stage by stage.
pub fn run(
    mode: Mode,
    text: &str,
    params: &DecompositionParams,
    seed: u64,
) -> Result<(Output, Timings), String> {
    let t0 = Instant::now();
    let graph = load(text)?;
    let t1 = Instant::now();
    let (outcome, comm) = match mode {
        Mode::Congest => {
            let run = distributed::decompose_distributed(&graph, params, seed, &congest_config())
                .map_err(|e| format!("decompose_distributed: {e}"))?;
            (run.outcome, Some(run.comm))
        }
        Mode::Central | Mode::CentralVerified => (
            basic::decompose(&graph, params, seed).map_err(|e| format!("decompose: {e}"))?,
            None,
        ),
    };
    let t2 = Instant::now();
    let report = match mode {
        Mode::CentralVerified => Some(
            verify::verify(&graph, black_box(outcome.decomposition()))
                .map_err(|e| format!("verify: {e}"))?,
        ),
        Mode::Central | Mode::Congest => None,
    };
    let t3 = Instant::now();
    let timings = Timings {
        setup: (t1 - t0).as_secs_f64(),
        decompose: (t2 - t1).as_secs_f64(),
        verify: (t3 - t2).as_secs_f64(),
    };
    Ok((
        Output {
            graph,
            outcome,
            comm,
            report,
        },
        timings,
    ))
}

/// What the traced pipeline produced.
#[derive(Debug, Clone, PartialEq)]
pub struct Traced {
    /// The loaded graph.
    pub graph: Graph,
    /// The decomposition and its run record.
    pub rebuilt: Rebuilt,
    /// Communication totals (CONGEST workload only).
    pub comm: Option<RunStats>,
    /// The rebuilt verify's report and its BFS source count (verified
    /// workload only).
    pub report: Option<(DecompositionReport, usize)>,
}

/// The traced pipeline: spans `pipeline` ⊃ {`graph.load`, decomposition
/// layers, verify layers}. The central modes rebuild the phase loop and
/// verify; the CONGEST mode times `decompose_distributed` as one layer
/// (`congest.run`), since its phases run inside the simulator.
pub fn run_traced(
    tr: &mut Tracer,
    mode: Mode,
    text: &str,
    params: &DecompositionParams,
    seed: u64,
) -> Result<Traced, String> {
    let pipeline = tr.enter("pipeline");
    let s = tr.enter("graph.load");
    let graph = load(text)?;
    tr.exit(s);
    let (rebuilt, comm) = match mode {
        Mode::Congest => {
            let s = tr.enter("congest.run");
            let run = distributed::decompose_distributed(&graph, params, seed, &congest_config())
                .map_err(|e| format!("decompose_distributed: {e}"))?;
            tr.exit(s);
            (Rebuilt::from_outcome(&run.outcome), Some(run.comm))
        }
        Mode::Central | Mode::CentralVerified => {
            let s = tr.enter("decompose");
            let rebuilt = rebuild_phase_loop(tr, &graph, params, seed)?;
            tr.exit(s);
            (rebuilt, None)
        }
    };
    let report = match mode {
        Mode::CentralVerified => Some(traced_verify(tr, &graph, &rebuilt.decomposition)),
        Mode::Central | Mode::Congest => None,
    };
    tr.exit(pipeline);
    Ok(Traced {
        graph,
        rebuilt,
        comm,
        report,
    })
}

/// What the rebuilt phase loop produced, in `DecompositionOutcome` terms.
#[derive(Debug, Clone, PartialEq)]
pub struct Rebuilt {
    /// Partition, blocks and centers.
    pub decomposition: NetworkDecomposition,
    /// Per-phase observations.
    pub trace: Vec<PhaseTraceEntry>,
    /// Truncation events and the largest shift.
    pub events: EventLog,
    /// Clusters whose members disagreed about their center.
    pub mixed_center_clusters: usize,
}

impl Rebuilt {
    /// The same record, taken from a finished run.
    pub fn from_outcome(outcome: &DecompositionOutcome) -> Self {
        Rebuilt {
            decomposition: outcome.decomposition().clone(),
            trace: outcome.trace().to_vec(),
            events: *outcome.events(),
            mixed_center_clusters: outcome.mixed_center_clusters(),
        }
    }

    /// `true` when `outcome` is bit-identical to this rebuild.
    pub fn matches(&self, outcome: &DecompositionOutcome) -> bool {
        self.decomposition == *outcome.decomposition()
            && self.trace == outcome.trace()
            && self.events == *outcome.events()
            && self.trace.len() == outcome.phases_used()
            && self.mixed_center_clusters == outcome.mixed_center_clusters()
    }
}

/// The library phase loop's hard stop, as a multiple of the phase budget
/// (`HARD_BUDGET_MULTIPLE` in `netdecomp_core`); never reached in practice.
const HARD_BUDGET_MULTIPLE: usize = 64;

/// `basic::decompose`'s phase loop, rebuilt from public calls with spans
/// `shift.sample`, `carve.phase` and `assemble` around each layer.
pub fn rebuild_phase_loop(
    tr: &mut Tracer,
    graph: &Graph,
    params: &DecompositionParams,
    seed: u64,
) -> Result<Rebuilt, String> {
    let n = graph.vertex_count();
    let beta = params.beta(n);
    let cap = params.radius_cap();
    let hard_max = params
        .phase_budget(n)
        .saturating_mul(HARD_BUDGET_MULTIPLE)
        .saturating_add(1024);
    let mut alive = VertexSet::full(n);
    let mut partition = Partition::new(n);
    let mut blocks: Vec<usize> = Vec::new();
    let mut centers: Vec<VertexId> = Vec::new();
    let mut trace: Vec<PhaseTraceEntry> = Vec::new();
    let mut events = EventLog::default();
    let mut mixed_center_clusters = 0usize;
    let mut phase = 0usize;
    while !alive.is_empty() && phase < hard_max {
        let s = tr.enter("shift.sample");
        let source = ShiftSource::new(seed, beta).map_err(|e| format!("shift: {e}"))?;
        let mut shifts = vec![0.0f64; n];
        for v in alive.iter() {
            shifts[v] = source.shift(phase as u64, v);
        }
        tr.exit(s);

        let s = tr.enter("carve.phase");
        let result = carve::carve_phase(graph, &alive, &shifts, cap);
        tr.exit(s);

        let s = tr.enter("assemble");
        events.truncation_events += result.truncated;
        events.max_shift = events.max_shift.max(result.max_shift);
        let joined = result.joined();
        let alive_before = alive.len();
        let mut clusters_formed = 0usize;
        if !joined.is_empty() {
            let mut block = VertexSet::new(n);
            for &v in &joined {
                block.insert(v);
            }
            for group in components::components_restricted(graph, &block).groups() {
                let center_of = |v: VertexId| result.decisions[v].map(|d| d.center);
                let first = center_of(group[0]);
                if group.iter().any(|&v| center_of(v) != first) {
                    mixed_center_clusters += 1;
                }
                partition.push_cluster(&group);
                blocks.push(phase);
                centers.push(first.ok_or("joined vertex without a decision")?);
                clusters_formed += 1;
            }
            for &v in &joined {
                alive.remove(v);
            }
        }
        trace.push(PhaseTraceEntry {
            phase,
            beta,
            alive_before,
            carved: joined.len(),
            clusters_formed,
        });
        tr.exit(s);
        phase += 1;
    }
    let s = tr.enter("assemble");
    let decomposition = NetworkDecomposition::from_parts(partition, blocks, centers);
    tr.exit(s);
    Ok(Rebuilt {
        decomposition,
        trace,
        events,
        mixed_center_clusters,
    })
}

/// `verify::verify` rebuilt with spans around each of its layers:
/// `verify.cluster_sets`, `verify.connectivity`, `verify.strong_diameter`,
/// `verify.weak_diameter` and `verify.contract`. Also returns the number
/// of BFS sources the diameter layers ran.
pub fn traced_verify(
    tr: &mut Tracer,
    graph: &Graph,
    decomposition: &NetworkDecomposition,
) -> (DecompositionReport, usize) {
    let v = tr.enter("verify");
    let partition = decomposition.partition();
    let cluster_count = partition.cluster_count();
    let mut clusters_connected = true;
    let mut max_strong: Option<usize> = Some(0);
    let mut max_weak: Option<usize> = Some(0);
    let mut max_size = 0usize;
    let mut sources = 0usize;
    for c in 0..cluster_count {
        let s = tr.enter("verify.cluster_sets");
        let members = partition.cluster_set(c);
        tr.exit(s);
        max_size = max_size.max(members.len());

        let s = tr.enter("verify.connectivity");
        if components::components_restricted(graph, &members).count() > 1 {
            clusters_connected = false;
        }
        tr.exit(s);

        let s = tr.enter("verify.strong_diameter");
        let strong = diameter::strong_diameter(graph, &members);
        tr.exit(s);
        max_strong = max_strong.zip(strong).map(|(a, b)| a.max(b));

        let s = tr.enter("verify.weak_diameter");
        let weak = diameter::weak_diameter(graph, &members);
        tr.exit(s);
        max_weak = max_weak.zip(weak).map(|(a, b)| a.max(b));
        sources += 2 * members.len();
    }
    let s = tr.enter("verify.contract");
    let supergraph_properly_colored = match contraction::contract(graph, partition) {
        Ok(contraction) => contraction.supergraph().edges().all(|(cu, cv)| {
            decomposition.block_of_cluster(cu) != decomposition.block_of_cluster(cv)
        }),
        Err(_) => false,
    };
    tr.exit(s);
    let assigned = partition.assigned_count();
    let report = DecompositionReport {
        vertex_count: graph.vertex_count(),
        cluster_count,
        color_count: decomposition.block_count(),
        complete: partition.is_complete(),
        clusters_connected,
        max_strong_diameter: max_strong,
        max_weak_diameter: max_weak,
        max_cluster_size: max_size,
        mean_cluster_size: if cluster_count == 0 {
            0.0
        } else {
            assigned as f64 / cluster_count as f64
        },
        supergraph_properly_colored,
    };
    tr.exit(v);
    (report, sources)
}

/// A protocol that sends nothing: what a `Simulator` costs to build and
/// step once, with no algorithm in it.
#[derive(Debug, Clone, Copy)]
struct Idle;

impl Protocol for Idle {
    fn start(&mut self, _ctx: &Ctx<'_>, _out: &mut Outbox) {}

    fn round(&mut self, _ctx: &Ctx<'_>, _incoming: Inbox<'_>, _out: &mut Outbox) {}
}

/// One `Simulator::new(..).with_engine(CONGEST_ENGINE)` plus one no-op
/// round on `graph`: the fixed cost each CONGEST phase pays today, since
/// `decompose_distributed` builds a fresh simulator per phase. Seconds.
pub fn sim_build_s(graph: &Graph) -> Result<f64, String> {
    let t = Instant::now();
    let mut sim = Simulator::new(graph, |_, _| Idle).with_engine(CONGEST_ENGINE);
    sim.step().map_err(|e| format!("idle round: {e}"))?;
    drop(black_box(sim));
    Ok(t.elapsed().as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rebuilt_pipeline_is_bit_identical_to_the_library() {
        let text = crate::gen::gnm_edge_list(300, 1_200, 5);
        for seed in 0..6u64 {
            let graph = load(&text).unwrap();
            let params = DecompositionParams::for_graph_size(graph.vertex_count());
            let (out, _) = run(Mode::CentralVerified, &text, &params, seed).unwrap();
            let mut tr = Tracer::new();
            let traced = run_traced(&mut tr, Mode::CentralVerified, &text, &params, seed).unwrap();
            assert!(traced.rebuilt.matches(&out.outcome), "seed {seed}");
            assert_eq!(traced.report.map(|r| r.0), out.report, "seed {seed}");
            assert!(tr.total_s(0, "carve.phase") > 0.0);
        }
    }
}
