//! The Linial–Saks weak-diameter network decomposition (Combinatorica '93).
//!
//! Per phase, every alive vertex `v` draws a radius `r_v` from a truncated
//! geometric distribution and broadcasts `(ID_v, r_v)` to its
//! `r_v`-neighborhood in the current graph. Every vertex elects as its
//! candidate center the **smallest-ID** vertex whose broadcast covers it; it
//! joins the phase's block iff it is *strictly interior* to that center's
//! ball (`d < r_v`), otherwise it stays for later phases. Per-center sets
//! form the clusters; same-phase clusters are non-adjacent, so the phase
//! index properly colors the supergraph.
//!
//! The guarantee is only a **weak** diameter `≤ 2(k − 1)`: a cluster's
//! vertices are all within `k − 1` of its center *through the whole current
//! graph*, but the cluster's induced subgraph may be disconnected (its
//! connecting paths may elect a smaller-ID center). Quantifying how often
//! that happens — and that Elkin–Neiman never lets it happen — is experiment
//! E4 of this reproduction.

use bytes::{BufMut, Bytes};
use netdecomp_core::shift::uniform;
use netdecomp_core::{DecompError, NetworkDecomposition};
use netdecomp_graph::{bfs, Graph, Partition, VertexId, VertexSet};
use netdecomp_sim::wire::{WireReader, WireWriter};
use netdecomp_sim::{
    Codec, CongestLimit, Ctx, Engine, RunStats, Simulator, Snapshot, TransportFactory, Typed,
    TypedInbox, TypedOutbox, TypedProtocol,
};

/// Parameters of the Linial–Saks algorithm.
///
/// `k` is the radius budget (weak diameter `≤ 2(k−1)`); `c > 1` scales the
/// phase budget like in the Elkin–Neiman theorems so the two algorithms are
/// compared at equal confidence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinialSaksParams {
    k: usize,
    c: f64,
}

impl LinialSaksParams {
    /// Creates parameters.
    ///
    /// # Errors
    ///
    /// [`DecompError::InvalidParameter`] if `k < 2` (with radii truncated at
    /// `k − 1 = 0` no vertex is ever strictly interior, so the algorithm
    /// cannot make progress) or `c ≤ 1` or not finite.
    pub fn new(k: usize, c: f64) -> Result<Self, DecompError> {
        if k < 2 {
            return Err(DecompError::InvalidParameter {
                name: "k",
                reason: "must be at least 2 (k = 1 radii are always 0)".into(),
            });
        }
        if !c.is_finite() || c <= 1.0 {
            return Err(DecompError::InvalidParameter {
                name: "c",
                reason: format!("must be a finite value > 1, got {c}"),
            });
        }
        Ok(LinialSaksParams { k, c })
    }

    /// Headline configuration (`k = ⌈ln n⌉`, `c = 4`): the weak
    /// `(O(log n), O(log n))` decomposition in `O(log² n)` time.
    #[must_use]
    pub fn for_graph_size(n: usize) -> Self {
        let k = ((n.max(2) as f64).ln().ceil() as usize).max(1);
        LinialSaksParams { k, c: 4.0 }
    }

    /// The radius budget `k`.
    #[must_use]
    pub fn k(&self) -> usize {
        self.k
    }

    /// The confidence scale `c`.
    #[must_use]
    pub fn c(&self) -> f64 {
        self.c
    }

    /// Geometric success parameter `p = (cn)^{−1/k}`.
    #[must_use]
    pub fn p(&self, n: usize) -> f64 {
        (self.c * n.max(1) as f64).powf(-1.0 / self.k as f64)
    }

    /// Phase budget `⌈(cn)^{1/k}·ln(cn)⌉` — the color bound.
    #[must_use]
    pub fn phase_budget(&self, n: usize) -> usize {
        let cn = self.c * n.max(1) as f64;
        (cn.powf(1.0 / self.k as f64) * cn.ln()).ceil() as usize
    }

    /// The weak-diameter bound `2(k − 1)`.
    #[must_use]
    pub fn weak_diameter_bound(&self) -> usize {
        2 * (self.k - 1)
    }

    /// Rounds per phase in the distributed model: `O(k)` (broadcast out and
    /// decisions back).
    #[must_use]
    pub fn rounds_per_phase(&self) -> usize {
        self.k
    }

    /// Samples the truncated geometric radius for `(seed, phase, vertex)`:
    /// `Pr[r = j] = (1−p)·pʲ` for `j < k−1`, all remaining mass on `k−1`.
    #[must_use]
    pub fn radius(&self, n: usize, seed: u64, phase: u64, v: VertexId) -> usize {
        let p = self.p(n);
        let u = uniform(seed ^ 0x4C53_3933, phase, v); // distinct stream tag "LS93"
                                                       // r = floor(ln(1-u)/ln p) has Pr[r >= j] = p^j.
        let r = ((1.0 - u).ln() / p.ln()).floor();
        (r as usize).min(self.k - 1)
    }
}

/// Result of a Linial–Saks run.
#[derive(Debug, Clone, PartialEq)]
pub struct LinialSaksOutcome {
    /// The decomposition (blocks = phases). Clusters may be *disconnected*;
    /// only their weak diameter is bounded.
    pub decomposition: NetworkDecomposition,
    /// Phases executed until exhaustion.
    pub phases_used: usize,
    /// The budget the parameters promise.
    pub phase_budget: usize,
}

impl LinialSaksOutcome {
    /// `true` if the run finished within its phase budget.
    #[must_use]
    pub fn exhausted_within_budget(&self) -> bool {
        self.phases_used <= self.phase_budget
    }
}

/// Runs the Linial–Saks algorithm to completion.
///
/// # Errors
///
/// Currently infallible for validated parameters; returns `Result` for
/// signature uniformity with the core algorithms.
pub fn decompose(
    graph: &Graph,
    params: &LinialSaksParams,
    seed: u64,
) -> Result<LinialSaksOutcome, DecompError> {
    let n = graph.vertex_count();
    let mut alive = VertexSet::full(n);
    let mut partition = Partition::new(n);
    let mut blocks: Vec<usize> = Vec::new();
    let mut centers: Vec<VertexId> = Vec::new();
    let budget = params.phase_budget(n);
    let hard_max = budget.saturating_mul(64).saturating_add(1024);

    // Per-vertex tables for the whole run, reset over the alive set each
    // phase: only alive vertices are sampled, claimed, or read.
    let mut radii = vec![0usize; n];
    let mut elected: Vec<Option<(VertexId, usize)>> = vec![None; n]; // (center, dist)
    let mut phase = 0usize;
    while !alive.is_empty() && phase < hard_max {
        for v in alive.iter() {
            radii[v] = params.radius(n, seed, phase as u64, v);
            elected[v] = None;
        }
        // Min-ID election: process centers in increasing id; claim unclaimed
        // vertices in their ball.
        for v in alive.iter() {
            // v's ball claims every unclaimed alive vertex within radii[v].
            for (x, d) in bfs::ball_restricted(graph, v, radii[v], &alive) {
                if elected[x].is_none() {
                    elected[x] = Some((v, d));
                }
            }
        }
        // Interior vertices join the block, grouped by center.
        let mut members_of: std::collections::BTreeMap<VertexId, Vec<VertexId>> =
            std::collections::BTreeMap::new();
        for x in alive.iter() {
            if let Some((center, d)) = elected[x] {
                if d < radii[center] {
                    members_of.entry(center).or_default().push(x);
                }
            }
        }
        for (center, members) in members_of {
            partition.push_cluster(&members);
            blocks.push(phase);
            centers.push(center);
            for &x in &members {
                alive.remove(x);
            }
        }
        phase += 1;
    }

    let decomposition = NetworkDecomposition::from_parts(partition, blocks, centers);
    Ok(LinialSaksOutcome {
        decomposition,
        phases_used: phase,
        phase_budget: budget,
    })
}

/// One broadcast entry in the distributed protocol: `(id, r, dist)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct LsLabel {
    id: VertexId,
    r: usize,
    dist: usize,
}

impl LsLabel {
    fn remaining(&self) -> usize {
        self.r.saturating_sub(self.dist)
    }

    /// `self` makes `other` useless at and below the holder: smaller (or
    /// equal) id with at least the remaining range.
    fn dominates(&self, other: &LsLabel) -> bool {
        self.id <= other.id && self.remaining() >= other.remaining()
    }
}

/// Per-vertex protocol state, re-armed for every Linial–Saks phase.
#[derive(Debug, Clone, PartialEq, Eq)]
struct LsNode {
    alive: bool,
    radius: usize,
    /// Pareto frontier of known labels: for each remaining-range value the
    /// smallest id (at most `k` entries).
    known: Vec<LsLabel>,
}

impl LsNode {
    /// A node that takes no part until [`LsNode::arm`] gives it a phase.
    fn idle() -> Self {
        LsNode {
            alive: false,
            radius: 0,
            known: Vec::new(),
        }
    }

    /// Arms the node for a new phase: its alive bit and radius, with no
    /// label known yet (the frontier keeps its capacity).
    fn arm(&mut self, alive: bool, radius: usize) {
        self.alive = alive;
        self.radius = radius;
        self.known.clear();
    }

    fn offer(&mut self, label: LsLabel) -> bool {
        if self.known.iter().any(|k| k.dominates(&label)) {
            return false;
        }
        self.known.retain(|k| !label.dominates(k));
        self.known.push(label);
        true
    }

    /// The elected (minimum-id) coverer and whether this vertex is interior
    /// to it.
    fn election(&self) -> Option<(VertexId, bool)> {
        self.known
            .iter()
            .min_by_key(|l| l.id)
            .map(|l| (l.id, l.dist < l.r))
    }
}

/// Wire format of an [`LsLabel`]: `(id: u32, r: u16, dist: u16)` — 8 bytes,
/// one CONGEST word. The sender pre-increments `dist` for the receiver.
#[derive(Debug, Clone, Copy)]
struct LsCodec;

impl Codec for LsCodec {
    type Msg = LsLabel;

    /// Radii and relayed distances stay below `k`, and
    /// [`decompose_distributed_with_transport`] refuses a `k − 1` past
    /// `u16::MAX`, so neither `u16` can wrap.
    fn encode(label: &LsLabel, buf: &mut Vec<u8>) {
        buf.put_u32_le(label.id as u32);
        buf.put_u16_le(label.r as u16);
        buf.put_u16_le((label.dist + 1) as u16);
    }

    fn decode(payload: &[u8]) -> Option<LsLabel> {
        let mut r = WireReader::new(payload);
        let id = r.u32()? as VertexId;
        let radius = r.u16()? as usize;
        let dist = r.u16()? as usize;
        r.is_exhausted().then_some(LsLabel {
            id,
            r: radius,
            dist,
        })
    }
}

/// Round-boundary serialization for checkpoint/restore: the alive bit
/// and radius the driver re-arms every phase, then the label frontier
/// (in kept order — `offer`'s retain/push order is part of the state).
impl Snapshot for LsNode {
    fn save_state(&self) -> Bytes {
        let mut w = WireWriter::new()
            .u16(u16::from(self.alive))
            .u64(self.radius as u64)
            .u32(self.known.len() as u32);
        for label in &self.known {
            w = w
                .u32(label.id as u32)
                .u16(label.r as u16)
                .u16(label.dist as u16);
        }
        w.finish()
    }

    fn load_state(&mut self, bytes: &[u8]) -> bool {
        let mut r = WireReader::new(bytes);
        let (Some(alive), Some(radius), Some(count)) = (r.u16(), r.u64(), r.u32()) else {
            return false;
        };
        let Ok(radius) = usize::try_from(radius) else {
            return false;
        };
        // Each label consumes 8 bytes; an absurd count can't be genuine.
        if count as usize > bytes.len() / 8 {
            return false;
        }
        let mut known = Vec::with_capacity(count as usize);
        for _ in 0..count {
            let (Some(id), Some(radius), Some(dist)) = (r.u32(), r.u16(), r.u16()) else {
                return false;
            };
            known.push(LsLabel {
                id: id as VertexId,
                r: radius as usize,
                dist: dist as usize,
            });
        }
        if !r.is_exhausted() {
            return false;
        }
        self.arm(alive != 0, radius);
        self.known = known;
        true
    }
}

/// Message-driven: `round` acts only on the labels in its inbox.
impl TypedProtocol for LsNode {
    type Codec = LsCodec;
    const MESSAGE_DRIVEN: bool = true;

    fn start(&mut self, ctx: &Ctx<'_>, out: &mut TypedOutbox<'_, LsCodec>) {
        if !self.alive {
            return;
        }
        let own = LsLabel {
            id: ctx.id,
            r: self.radius,
            dist: 0,
        };
        self.offer(own);
        if own.dist < own.r {
            out.broadcast(&own);
        }
    }

    fn round(
        &mut self,
        _ctx: &Ctx<'_>,
        incoming: TypedInbox<'_, LsCodec>,
        out: &mut TypedOutbox<'_, LsCodec>,
    ) {
        if !self.alive {
            return;
        }
        for (_, label) in incoming {
            if self.offer(label) && label.dist < label.r {
                out.broadcast(&label);
            }
        }
    }

    fn is_halted(&self) -> bool {
        true
    }
}

/// Runs Linial–Saks by actual message passing, returning the outcome and
/// the communication bill. Bit-identical to [`decompose`] under equal
/// seeds (the election and interior tests coincide; tested below).
///
/// Messages are `(id u32, r u16, dist u16)` = 8 bytes; a vertex relays a
/// label only if no known label has both a smaller id and at least its
/// remaining range, so at most `k` labels survive per vertex.
///
/// `engine` selects the simulator's round scheduler; like the
/// Elkin–Neiman driver, the outcome is bit-identical across every
/// `(threads, shards)` configuration.
///
/// # Errors
///
/// As [`decompose_distributed_with_transport`].
pub fn decompose_distributed(
    graph: &Graph,
    params: &LinialSaksParams,
    seed: u64,
    limit: CongestLimit,
    engine: Engine,
) -> Result<(LinialSaksOutcome, RunStats), DecompError> {
    decompose_distributed_with_transport(graph, params, seed, limit, engine, None)
}

/// [`decompose_distributed`] with a custom delivery transport: when
/// `transport` is set, the run's simulator ships the frames of every
/// phase through one `factory.build(shard_count)`, called once per run —
/// the hook that runs the baseline over sockets or a fault-injecting
/// fabric. `engine` must then be [`Engine::Framed`], the one engine that
/// ships frames. Outcomes stay bit-identical to the in-process backends
/// for any transport that delivers faithfully.
///
/// One simulator runs every phase: each phase re-arms the alive nodes
/// (radius, no labels known) and restarts at round 0 with them as the
/// start list, so its work follows the alive set; reading the elections
/// disarms the nodes that joined. No message is in flight at a phase
/// boundary, because a label that reaches a vertex in the last round
/// (`k − 1` hops out) is relayed only if its radius exceeds `k − 1`.
///
/// # Errors
///
/// [`DecompError::Simulation`] if `limit` is violated or the transport
/// fails (timeout, disconnect, corruption — a typed
/// [`netdecomp_sim::SimError`], never a hang);
/// [`DecompError::InvalidParameter`] if `k − 1` exceeds 65 535, the
/// largest radius a message carries, or naming `transport` if one is set
/// on an engine other than [`Engine::Framed`] (both checked before any
/// round runs).
pub fn decompose_distributed_with_transport(
    graph: &Graph,
    params: &LinialSaksParams,
    seed: u64,
    limit: CongestLimit,
    engine: Engine,
    transport: Option<&TransportFactory>,
) -> Result<(LinialSaksOutcome, RunStats), DecompError> {
    if params.k() - 1 > usize::from(u16::MAX) {
        return Err(DecompError::InvalidParameter {
            name: "k",
            reason: format!(
                "radius cap {} exceeds {}, the largest radius a CONGEST message carries",
                params.k() - 1,
                u16::MAX
            ),
        });
    }
    netdecomp_core::distributed::check_transport(engine, transport.is_some())?;
    let n = graph.vertex_count();
    let mut alive = VertexSet::full(n);
    let mut partition = Partition::new(n);
    let mut blocks: Vec<usize> = Vec::new();
    let mut centers: Vec<VertexId> = Vec::new();
    let budget = params.phase_budget(n);
    let hard_max = budget.saturating_mul(64).saturating_add(1024);
    let mut comm = RunStats::default();
    let mut sim = None;

    let mut phase = 0usize;
    while !alive.is_empty() && phase < hard_max {
        let sim = sim.get_or_insert_with(|| {
            let mut sim = Simulator::new(graph, |_, _| Typed::new(LsNode::idle()))
                .with_limit(limit)
                .with_engine(engine);
            if let Some(factory) = transport {
                let shards = sim.shard_plan().count();
                sim = sim.with_transport(factory.build(shards));
            }
            sim
        });
        let listed: Vec<VertexId> = alive.iter().collect();
        let radius = |v| params.radius(n, seed, phase as u64, v);
        arm_alive(sim, &listed, radius);
        // Radii are at most k-1, so k engine steps deliver everything.
        comm.merge(&sim.run_rounds(params.k())?);
        for (center, members) in take_members(sim, &listed) {
            partition.push_cluster(&members);
            blocks.push(phase);
            centers.push(center);
            for &x in &members {
                alive.remove(x);
            }
        }
        phase += 1;
    }

    let decomposition = NetworkDecomposition::from_parts(partition, blocks, centers);
    Ok((
        LinialSaksOutcome {
            decomposition,
            phases_used: phase,
            phase_budget: budget,
        },
        comm,
    ))
}

/// Re-arms the alive nodes `alive` (ascending) with their radii and
/// restarts the simulator with them as the start list, so the phase's
/// start round steps only them. Every other node is already disarmed:
/// idle since construction, or joined in an earlier phase
/// ([`take_members`]).
fn arm_alive(
    sim: &mut Simulator<'_, Typed<LsNode>>,
    alive: &[VertexId],
    radius: impl Fn(VertexId) -> usize,
) {
    let nodes = sim.nodes_mut();
    for &v in alive {
        nodes[v].inner.arm(true, radius(v));
    }
    sim.restart(alive);
}

/// The phase's clusters once its rounds have run: the alive vertices
/// interior to their elected center, grouped by center in ascending
/// order. Disarms the vertices that joined, which the next phase no
/// longer lists.
fn take_members(
    sim: &mut Simulator<'_, Typed<LsNode>>,
    alive: &[VertexId],
) -> std::collections::BTreeMap<VertexId, Vec<VertexId>> {
    let nodes = sim.nodes_mut();
    let mut members_of: std::collections::BTreeMap<VertexId, Vec<VertexId>> =
        std::collections::BTreeMap::new();
    for &y in alive {
        let node = &mut nodes[y].inner;
        if let Some((center, true)) = node.election() {
            node.alive = false;
            members_of.entry(center).or_default().push(y);
        }
    }
    members_of
}

#[cfg(test)]
mod tests {
    use super::*;
    use netdecomp_core::verify;
    use netdecomp_graph::generators;
    use netdecomp_sim::Determinism;

    #[test]
    fn params_validate() {
        assert!(LinialSaksParams::new(0, 4.0).is_err());
        assert!(LinialSaksParams::new(1, 4.0).is_err());
        assert!(LinialSaksParams::new(3, 1.0).is_err());
        assert!(LinialSaksParams::new(3, f64::NAN).is_err());
        assert!(LinialSaksParams::new(3, 2.0).is_ok());
    }

    /// Radii travel as `u16`: a `k − 1` past 65 535 is refused before
    /// any round runs instead of wrapping on the wire.
    #[test]
    fn radius_caps_past_the_wire_width_are_invalid_parameters() {
        let g = generators::path(6);
        let params = LinialSaksParams::new(70_000, 4.0).unwrap();
        match decompose_distributed(&g, &params, 1, CongestLimit::Unlimited, Engine::Sequential) {
            Err(DecompError::InvalidParameter { name: "k", reason }) => {
                assert!(reason.contains("65535"), "{reason}");
            }
            other => panic!("expected an invalid k, got {other:?}"),
        }
        let widest = LinialSaksParams::new(usize::from(u16::MAX) + 1, 4.0).unwrap();
        assert!(
            decompose_distributed(&g, &widest, 1, CongestLimit::Unlimited, Engine::Sequential)
                .is_ok()
        );
    }

    /// Each phase's start round steps exactly its alive nodes (verified
    /// against a reference that starts every node, so an unlisted node
    /// that sent would fail it), and reading the elections disarms the
    /// vertices that joined.
    #[test]
    fn a_phase_starts_only_its_alive_nodes() {
        let g = generators::grid2d(8, 9);
        let n = g.vertex_count();
        let params = LinialSaksParams::new(3, 4.0).unwrap();
        for engine in [
            Engine::Sequential,
            Engine::Parallel {
                threads: 2,
                shards: 3,
            },
            Engine::Framed {
                threads: 1,
                shards: 3,
                transport: netdecomp_sim::FrameTransport::Loopback,
            },
        ] {
            let mut sim = Simulator::new(&g, |_, _| Typed::new(LsNode::idle())).with_engine(engine);
            let mut alive: Vec<VertexId> = (0..n).collect();
            for phase in 0..4u64 {
                arm_alive(&mut sim, &alive, |v| params.radius(n, 7, phase, v));
                sim.step_verified().unwrap();
                assert_eq!(sim.delivery_work().nodes_stepped, alive.len(), "{engine:?}");
                sim.run_rounds_with(params.k() - 1, Determinism::Verify)
                    .unwrap();
                let joined: Vec<VertexId> = take_members(&mut sim, &alive)
                    .into_values()
                    .flatten()
                    .collect();
                assert!(joined.iter().all(|&v| !sim.nodes()[v].inner.alive));
                alive.retain(|v| !joined.contains(v));
            }
            assert!(alive.len() < n, "{engine:?}: some phase carved");
        }
    }

    #[test]
    fn radius_is_truncated_and_deterministic() {
        let p = LinialSaksParams::new(4, 4.0).unwrap();
        for v in 0..500 {
            let r = p.radius(1000, 7, 3, v);
            assert!(r <= 3, "radius {r} exceeds k-1");
            assert_eq!(r, p.radius(1000, 7, 3, v));
        }
    }

    #[test]
    fn radius_distribution_is_geometric() {
        // Pr[r >= 1] = p = (cn)^{-1/k}.
        let params = LinialSaksParams::new(3, 4.0).unwrap();
        let n = 100;
        let p = params.p(n);
        let trials = 60_000;
        let hits = (0..trials)
            .filter(|&t| params.radius(n, 11, t as u64, 0) >= 1)
            .count() as f64
            / trials as f64;
        assert!((hits - p).abs() < 0.01, "Pr[r>=1] = {hits}, expected {p}");
    }

    #[test]
    fn produces_complete_weak_decomposition() {
        let g = generators::grid2d(8, 8);
        let params = LinialSaksParams::new(3, 4.0).unwrap();
        let outcome = decompose(&g, &params, 5).unwrap();
        let report = verify::verify(&g, &outcome.decomposition).unwrap();
        assert!(report.complete);
        assert!(report.supergraph_properly_colored);
        assert!(report
            .max_weak_diameter
            .is_some_and(|d| d <= params.weak_diameter_bound()));
    }

    #[test]
    fn weak_bound_holds_across_families_and_seeds() {
        let graphs = [
            generators::cycle(40),
            generators::caveman(4, 6).unwrap(),
            generators::star(30),
        ];
        for (i, g) in graphs.iter().enumerate() {
            for seed in 0..3u64 {
                let params = LinialSaksParams::new(3, 4.0).unwrap();
                let outcome = decompose(g, &params, seed).unwrap();
                let report = verify::verify(g, &outcome.decomposition).unwrap();
                assert!(report.complete, "graph {i} seed {seed}");
                assert!(
                    report.is_valid_weak(params.weak_diameter_bound()),
                    "graph {i} seed {seed}: {report:?}"
                );
            }
        }
    }

    #[test]
    fn clusters_can_be_disconnected() {
        // The motivating gap: over enough seeds, some LS cluster is
        // disconnected in its induced subgraph (strong diameter infinite).
        // Interior members at distance >= 2 require radius >= 3, so use a
        // generous k and a graph with many overlapping balls.
        let mut saw_disconnected = false;
        let g = generators::grid2d(8, 8);
        for seed in 0..200u64 {
            let params = LinialSaksParams::new(6, 2.0).unwrap();
            let outcome = decompose(&g, &params, seed).unwrap();
            let report = verify::verify(&g, &outcome.decomposition).unwrap();
            if !report.clusters_connected {
                saw_disconnected = true;
                break;
            }
        }
        assert!(
            saw_disconnected,
            "LS93 never produced a disconnected cluster in 200 runs"
        );
    }

    #[test]
    fn k_equals_two_gives_stars() {
        // k = 2: radii in {0, 1}; interior members are at distance 0 or...
        // < r <= 1, so every cluster is a star around its center: weak
        // diameter <= 2 and clusters are connected.
        let g = generators::cycle(10);
        let params = LinialSaksParams::new(2, 4.0).unwrap();
        let outcome = decompose(&g, &params, 2).unwrap();
        let report = verify::verify(&g, &outcome.decomposition).unwrap();
        assert!(report.complete);
        assert!(report.clusters_connected);
        assert!(report.max_weak_diameter.is_some_and(|d| d <= 2));
    }

    #[test]
    fn deterministic_under_seed() {
        let g = generators::grid2d(5, 5);
        let params = LinialSaksParams::new(2, 4.0).unwrap();
        let a = decompose(&g, &params, 9).unwrap();
        let b = decompose(&g, &params, 9).unwrap();
        assert_eq!(a.decomposition, b.decomposition);
    }

    #[test]
    fn empty_graph() {
        let g = Graph::empty(0);
        let params = LinialSaksParams::new(2, 4.0).unwrap();
        let outcome = decompose(&g, &params, 1).unwrap();
        assert_eq!(outcome.phases_used, 0);
        assert_eq!(outcome.decomposition.cluster_count(), 0);
    }

    #[test]
    fn distributed_equals_centralized() {
        let graphs = [
            generators::grid2d(6, 6),
            generators::cycle(30),
            generators::caveman(5, 5).unwrap(),
        ];
        for (i, g) in graphs.iter().enumerate() {
            for seed in 0..3u64 {
                let params = LinialSaksParams::new(4, 4.0).unwrap();
                let central = decompose(g, &params, seed).unwrap();
                for engine in [
                    Engine::Sequential,
                    Engine::Parallel {
                        threads: 2,
                        shards: 4,
                    },
                    Engine::Framed {
                        threads: 2,
                        shards: 4,
                        transport: netdecomp_sim::FrameTransport::Loopback,
                    },
                    Engine::Framed {
                        threads: 1,
                        shards: 3,
                        transport: netdecomp_sim::FrameTransport::Socket,
                    },
                ] {
                    let (dist, comm) =
                        decompose_distributed(g, &params, seed, CongestLimit::Unlimited, engine)
                            .unwrap();
                    assert_eq!(
                        central.decomposition, dist.decomposition,
                        "graph {i} seed {seed} engine {engine:?}"
                    );
                    assert_eq!(central.phases_used, dist.phases_used);
                    assert!(comm.total_messages > 0);
                }
            }
        }
    }

    #[test]
    fn distributed_label_frontier_is_small() {
        // Messages are 8 bytes and at most k survive per vertex; per edge
        // per round at most k labels = 8k bytes.
        let g = generators::grid2d(7, 7);
        let params = LinialSaksParams::new(4, 4.0).unwrap();
        let (_, comm) = decompose_distributed(
            &g,
            &params,
            2,
            CongestLimit::PerEdgeBytes(8 * 4),
            Engine::Sequential,
        )
        .unwrap();
        assert!(comm.max_edge_bytes <= 32);
    }

    #[test]
    fn ls_label_domination_rules() {
        let a = LsLabel {
            id: 1,
            r: 3,
            dist: 0,
        }; // remaining 3
        let b = LsLabel {
            id: 5,
            r: 4,
            dist: 2,
        }; // remaining 2
        assert!(a.dominates(&b));
        assert!(!b.dominates(&a));
        // Larger remaining range with larger id: incomparable.
        let c = LsLabel {
            id: 9,
            r: 9,
            dist: 0,
        };
        assert!(!a.dominates(&c));
        assert!(!c.dominates(&a));
        let mut node = LsNode::idle();
        node.arm(true, 0);
        assert!(node.offer(b));
        assert!(node.offer(a)); // evicts b
        assert_eq!(node.known.len(), 1);
        assert!(node.offer(c)); // incomparable, coexists
        assert_eq!(node.known.len(), 2);
        assert!(!node.offer(b)); // dominated by a
    }

    #[test]
    fn ls_node_snapshots_round_trip_and_refuse_malformed_bytes() {
        let mut node = LsNode::idle();
        node.arm(true, 3);
        for (id, r, dist) in [(7, 3, 0), (2, 2, 1)] {
            node.offer(LsLabel { id, r, dist });
        }
        let saved = node.save_state();
        let mut restored = LsNode::idle();
        assert!(restored.load_state(&saved));
        assert_eq!(restored, node);
        for cut in 0..saved.len() {
            assert!(
                !LsNode::idle().load_state(&saved[..cut]),
                "truncation at {cut}"
            );
        }
        let mut trailing = saved.to_vec();
        trailing.push(0);
        assert!(!restored.load_state(&trailing));
        let mut absurd = saved.to_vec();
        absurd[10..14].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(!restored.load_state(&absurd));
    }
}
