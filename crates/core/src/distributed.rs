//! The faithful distributed (CONGEST) execution of the algorithm.
//!
//! Each phase, every alive vertex broadcasts `(origin, r_v)` to its
//! `⌊r_v⌋`-neighborhood by per-round relaying. With
//! [`Forwarding::TopTwo`], a vertex relays only entries currently among its
//! two best — the paper's CONGEST implementation, where every message is
//! `O(1)` words; with [`Forwarding::Full`] it relays every improvement (the
//! naive LOCAL flood) for comparison. Both produce the same clustering
//! decisions (and the same decisions as the centralized simulation in
//! [`crate::basic`]); the difference — measured by the returned
//! [`RunStats`] — is communication volume.
//!
//! One simulator runs the whole decomposition, so the shard plan, route
//! index, buffers and transport are built once per run, not once per
//! phase. A phase touches only the alive vertices: it re-arms their nodes
//! (alive bit, shift, cap, nothing known) and [`Simulator::restart`]s with
//! them as the start list, so the start round runs only them. Reading the
//! phase's decisions disarms the nodes that joined: a carved node must
//! stay dead, since an alive neighbour's relay still reaches it.
//!
//! Each phase is a broadcast frontier moving one hop per round, and the
//! per-vertex protocol is message-driven: a vertex acts only on what it
//! hears, so a round steps only the vertices that heard something — the
//! frontier — not all `n`.
//!
//! Messages are typed entries `(origin, r, hops)`, encoded once per send,
//! into a buffer the simulator recycles, and decoded once per receipt, as
//! the receiver reads its inbox. An entry's hop distance travels as a
//! `u16`, so every `decompose_distributed*` function refuses a radius cap
//! above 65 535 before any round runs. Rounds can run on the simulator's
//! sharded parallel engine — compute *and* delivery
//! ([`DistributedConfig::engine`]); decisions are bit-identical across
//! every `(threads, shards)` configuration, and
//! [`DistributedConfig::determinism`] can make the simulator verify that
//! per round, the message-driven contract included. On a framed engine
//! only the entries bound for another shard are framed: the self link
//! carries an empty frame, and each shard places the entries it sends to
//! its own vertices straight from its router and send log.
//!
//! One offer rule serves both forwarding modes, at the cost of a few
//! comparisons per delivered copy: each copy's value `r − hops` is
//! computed once, the kept entries' values stay in a local for the whole
//! round, a [`Forwarding::TopTwo`] node never touches the spill list, and
//! a copy of a known origin is rejected outright. Every copy delivered in
//! round `t` has travelled `t` hops, and an origin became known no later,
//! so such a copy never improves what the node holds.

use bytes::{BufMut, Bytes};
use netdecomp_graph::{Graph, VertexId};
use netdecomp_sim::wire::{WireReader, WireWriter};
use netdecomp_sim::{
    Codec, CongestLimit, Ctx, Determinism, Engine, RunStats, Simulator, Snapshot, TransportFactory,
    Typed, TypedInbox, TypedOutbox, TypedProtocol,
};

use crate::carve::CarveDecision;
use crate::driver::{run_phases_with_carver, BudgetPolicy, PhasePlan};
use crate::outcome::DecompositionOutcome;
use crate::params::{DecompositionParams, HighRadiusParams, StagedParams};
use crate::DecompError;

/// Relaying discipline of the per-phase broadcast.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Forwarding {
    /// Relay only entries currently among the vertex's two best — the
    /// paper's CONGEST-compatible rule (§2, final paragraph).
    #[default]
    TopTwo,
    /// Relay every improved entry (LOCAL-model flood); exponentially more
    /// messages, identical decisions.
    Full,
}

/// Configuration of a distributed run.
#[derive(Debug, Clone, Default)]
pub struct DistributedConfig {
    /// Relaying discipline.
    pub forwarding: Forwarding,
    /// Per-edge byte budget enforced by the simulator (`Unlimited` measures
    /// without enforcing).
    pub congest_limit: CongestLimit,
    /// Budget policy, as in the centralized driver.
    pub policy: BudgetPolicy,
    /// Round scheduler (worker threads × delivery shards) for the
    /// underlying simulator.
    pub engine: Engine,
    /// Whether the simulator cross-checks parallel rounds against a
    /// sequential reference ([`Determinism::Verify`]).
    pub determinism: Determinism,
    /// Custom delivery transport for framed engines — the hook that runs
    /// the decomposition over sockets or a fault-injecting fabric. When
    /// set and `engine` is [`Engine::Framed`], the run's simulator routes
    /// the frames of every phase through one `factory.build(shard_count)`,
    /// called once per decomposition, instead of the engine's built-in
    /// backend; ignored for non-framed engines (nothing would be routed
    /// through it).
    pub transport: Option<TransportFactory>,
}

/// A decomposition produced by message passing, with its communication bill.
#[derive(Debug, Clone, PartialEq)]
pub struct DistributedRun {
    /// The algorithm outcome (identical in distribution — in fact, for equal
    /// seeds identical bit-for-bit — to [`crate::basic::decompose`]).
    pub outcome: DecompositionOutcome,
    /// Aggregated communication statistics over all phases.
    pub comm: RunStats,
}

/// One known broadcast entry at a vertex, its fields as wide as on the
/// wire.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Entry {
    /// Origin vertex of the broadcast.
    origin: u32,
    /// The origin's sampled shift `r`.
    r: f64,
    /// Hop distance at which this vertex heard the origin (current best).
    dist: u16,
}

impl Entry {
    /// Fills the unused inline slots of an idle or freshly armed node.
    const NONE: Entry = Entry {
        origin: 0,
        r: 0.0,
        dist: 0,
    };

    fn value(&self) -> f64 {
        self.r - f64::from(self.dist)
    }

    /// Ordering used everywhere: larger value first, ties toward the
    /// smaller origin id — the order in which the centralized window sweep
    /// of [`crate::carve`] visits labels.
    fn beats(&self, other: &Entry) -> bool {
        ahead((self.value(), self.origin), (other.value(), other.origin))
    }
}

/// [`Entry::beats`] on `(value, origin)` pairs whose values are already
/// computed.
fn ahead(a: (f64, u32), b: (f64, u32)) -> bool {
    match a.0.total_cmp(&b.0) {
        std::cmp::Ordering::Greater => true,
        std::cmp::Ordering::Less => false,
        std::cmp::Ordering::Equal => a.1 < b.1,
    }
}

/// Wire format of an [`Entry`]: `(origin: u32, r: f64, dist: u16)` —
/// 14 bytes, under two CONGEST words.
///
/// The sender pre-increments `dist`, so the wire carries the distance *at
/// the receiver* and relaying needs no rewrite before decode.
/// [`CarveNode`]'s snapshot stores distances as `u16` too.
#[derive(Debug, Clone, Copy)]
struct EntryCodec;

impl Codec for EntryCodec {
    type Msg = Entry;

    /// Relayed entries travel at most `cap` hops, and every
    /// `decompose_distributed*` function refuses a cap past
    /// [`MAX_WIRE_CAP`], so the `u16` cannot wrap.
    fn encode(entry: &Entry, buf: &mut Vec<u8>) {
        buf.put_u32_le(entry.origin);
        buf.put_f64_le(entry.r);
        buf.put_u16_le(entry.dist + 1);
    }

    fn decode(payload: &[u8]) -> Option<Entry> {
        let mut r = WireReader::new(payload);
        let origin = r.u32()?;
        let shift = r.f64()?;
        let dist = r.u16()?;
        r.is_exhausted().then_some(Entry {
            origin,
            r: shift,
            dist,
        })
    }
}

/// Per-vertex protocol state, re-armed for every phase the vertex is
/// alive in.
///
/// The known entries form one list, kept sorted best-first: its first two
/// sit inline (`top[..held]`), so a [`Forwarding::TopTwo`] node, which
/// keeps no more, never allocates; a [`Forwarding::Full`] node keeps every
/// further origin in `rest`. Equality reads only the live entries.
#[derive(Debug, Clone)]
struct CarveNode {
    alive: bool,
    r: f64,
    cap: usize,
    mode: Forwarding,
    /// The two best known entries, best first; `top[..held]` are live.
    top: [Entry; 2],
    held: usize,
    /// [`Forwarding::Full`] only: the known entries after the first two,
    /// best first (non-empty only when `held == 2`).
    rest: Vec<Entry>,
}

impl PartialEq for CarveNode {
    fn eq(&self, other: &Self) -> bool {
        self.alive == other.alive
            && self.r == other.r
            && self.cap == other.cap
            && self.mode == other.mode
            && self.top() == other.top()
            && self.rest == other.rest
    }
}

impl CarveNode {
    /// A node that takes no part until [`CarveNode::arm`] gives it a phase.
    fn idle(mode: Forwarding) -> Self {
        CarveNode {
            alive: false,
            r: 0.0,
            cap: 0,
            mode,
            top: [Entry::NONE; 2],
            held: 0,
            rest: Vec::new(),
        }
    }

    /// Arms the node for a new phase: its alive bit, shift and radius
    /// cap, with nothing known yet (the spill list keeps its capacity).
    fn arm(&mut self, alive: bool, r: f64, cap: usize) {
        self.alive = alive;
        self.r = r;
        self.cap = cap;
        self.held = 0;
        self.rest.clear();
    }

    /// The live inline entries: the best two known, best first.
    fn top(&self) -> &[Entry] {
        &self.top[..self.held]
    }

    /// Every known entry, best first.
    fn known(&self) -> impl Iterator<Item = &Entry> {
        self.top().iter().chain(&self.rest)
    }

    /// Records an entry; returns `true` if the knowledge improved (a new
    /// origin was accepted).
    fn offer(&mut self, entry: Entry) -> bool {
        let mut values = self.top_values();
        self.offer_valued(entry, entry.value(), &mut values)
    }

    /// The values of the inline entries, best first (`[..held]` are
    /// live).
    fn top_values(&self) -> [f64; 2] {
        [self.top[0].value(), self.top[1].value()]
    }

    /// The offer rule, for both forwarding modes: [`CarveNode::offer`]
    /// with the entry's `value` and the inline entries' `values` computed
    /// by the caller, who keeps `values` in step across a round's offers.
    ///
    /// A known origin is rejected outright. Every copy delivered in a
    /// round has travelled as many hops as the round's index, and an
    /// origin became known no later, so no copy improves a known origin's
    /// value.
    fn offer_valued(&mut self, entry: Entry, value: f64, values: &mut [f64; 2]) -> bool {
        let key = (value, entry.origin);
        if self.mode == Forwarding::TopTwo
            && self.held == 2
            && !ahead(key, (values[1], self.top[1].origin))
        {
            return false;
        }
        let is_origin = |e: &Entry| e.origin == entry.origin;
        if let Some(i) = self.top().iter().position(is_origin) {
            debug_assert!(value <= values[i], "a later copy improved a known origin");
            return false;
        }
        if self.mode == Forwarding::Full {
            if let Some(known) = self.rest.iter().find(|e| is_origin(e)) {
                debug_assert!(
                    value <= known.value(),
                    "a later copy improved a known origin"
                );
                return false;
            }
        }
        self.insert(entry, value, values);
        true
    }

    /// Inserts an entry whose origin is not known, in best-first order,
    /// keeping `values` in step with the inline entries; a
    /// [`Forwarding::TopTwo`] node drops whatever falls past second.
    fn insert(&mut self, entry: Entry, value: f64, values: &mut [f64; 2]) {
        let key = (value, entry.origin);
        let displaced = match self.held {
            0 => {
                self.top[0] = entry;
                values[0] = value;
                self.held = 1;
                return;
            }
            1 => {
                if ahead(key, (values[0], self.top[0].origin)) {
                    self.top = [entry, self.top[0]];
                    *values = [value, values[0]];
                } else {
                    self.top[1] = entry;
                    values[1] = value;
                }
                self.held = 2;
                return;
            }
            _ if ahead(key, (values[0], self.top[0].origin)) => {
                let third = self.top[1];
                self.top = [entry, self.top[0]];
                *values = [value, values[0]];
                third
            }
            _ if ahead(key, (values[1], self.top[1].origin)) => {
                values[1] = value;
                std::mem::replace(&mut self.top[1], entry)
            }
            _ => entry,
        };
        if self.mode == Forwarding::Full {
            let at = self.rest.partition_point(|e| e.beats(&displaced));
            self.rest.insert(at, displaced);
        }
    }

    /// Should `entry` be relayed one hop further?
    fn should_forward(&self, entry: &Entry) -> bool {
        let radius = (entry.r as usize).min(self.cap);
        if usize::from(entry.dist) + 1 > radius {
            return false;
        }
        match self.mode {
            Forwarding::Full => true,
            Forwarding::TopTwo => self.top().iter().any(|e| e.origin == entry.origin),
        }
    }

    /// The best two entries as a carve decision (driver reads this after
    /// the phase's rounds complete).
    fn decision(&self) -> CarveDecision {
        let best = self.top()[0];
        let m2 = self.top().get(1).map_or(0.0, Entry::value);
        CarveDecision {
            m1: best.value(),
            center: best.origin as VertexId,
            m2,
            joined: best.value() - m2 > 1.0,
        }
    }
}

/// The origins a [`Forwarding::TopTwo`] node improved this round and
/// still keeps, in first-improvement order: at most two, because every
/// one is among the node's two kept entries.
#[derive(Default)]
struct Improved {
    origins: [u32; 2],
    len: usize,
}

impl Improved {
    /// Notes that `origin` just improved `known`: forgets the noted
    /// origin it evicted, if any, and appends `origin` unless already
    /// noted.
    fn note(&mut self, origin: u32, known: &[Entry]) {
        if self.origins[..self.len].contains(&origin) {
            return;
        }
        let mut kept = 0;
        for i in 0..self.len {
            let noted = self.origins[i];
            if known.iter().any(|e| e.origin == noted) {
                self.origins[kept] = noted;
                kept += 1;
            }
        }
        self.origins[kept] = origin;
        self.len = kept + 1;
    }

    fn origins(&self) -> &[u32] {
        &self.origins[..self.len]
    }
}

/// Round-boundary serialization for checkpoint/restore: the alive bit,
/// shift and radius cap the driver re-arms every phase, then the
/// known-entry list in kept order; only `mode` is construction-time
/// configuration a rebuild re-derives.
impl Snapshot for CarveNode {
    fn save_state(&self) -> Bytes {
        let mut w = WireWriter::new()
            .u16(u16::from(self.alive))
            .f64(self.r)
            .u64(self.cap as u64)
            .u32((self.held + self.rest.len()) as u32);
        for entry in self.known() {
            w = w.u32(entry.origin).f64(entry.r).u16(entry.dist);
        }
        w.finish()
    }

    fn load_state(&mut self, bytes: &[u8]) -> bool {
        let mut r = WireReader::new(bytes);
        let (Some(alive), Some(shift), Some(cap), Some(count)) =
            (r.u16(), r.f64(), r.u64(), r.u32())
        else {
            return false;
        };
        let Ok(cap) = usize::try_from(cap) else {
            return false;
        };
        // Each entry consumes 14 bytes; an absurd count can't be genuine,
        // and a top-two node keeps at most two.
        if count as usize > bytes.len() / 14 || (self.mode == Forwarding::TopTwo && count > 2) {
            return false;
        }
        self.arm(alive != 0, shift, cap);
        for i in 0..count as usize {
            let (Some(origin), Some(shift), Some(dist)) = (r.u32(), r.f64(), r.u16()) else {
                return false;
            };
            let entry = Entry {
                origin,
                r: shift,
                dist,
            };
            if i < 2 {
                self.top[i] = entry;
                self.held += 1;
            } else {
                self.rest.push(entry);
            }
        }
        r.is_exhausted()
    }
}

/// Message-driven: `round` reads only its inbox (an empty one improves
/// nothing and relays nothing), so each round steps only the broadcast
/// frontier; and a node that is not alive does nothing in `start`, so a
/// phase's start list is its alive nodes.
impl TypedProtocol for CarveNode {
    type Codec = EntryCodec;
    const MESSAGE_DRIVEN: bool = true;

    fn start(&mut self, ctx: &Ctx<'_>, out: &mut TypedOutbox<'_, EntryCodec>) {
        if !self.alive {
            return;
        }
        let own = Entry {
            origin: u32::try_from(ctx.id).expect("the phase loop admits u32 vertex ids only"),
            r: self.r,
            dist: 0,
        };
        self.offer(own);
        if self.should_forward(&own) {
            out.broadcast(&own);
        }
    }

    /// Relays each origin that improved this round once, in
    /// first-improvement order. Every entry delivered in one round has
    /// travelled as many hops as the round's index, so all copies of an
    /// origin are equal: it improves at most once per round, and once
    /// evicted from the top two it cannot return within the round.
    fn round(
        &mut self,
        _ctx: &Ctx<'_>,
        incoming: TypedInbox<'_, EntryCodec>,
        out: &mut TypedOutbox<'_, EntryCodec>,
    ) {
        if !self.alive {
            return;
        }
        let mut improved = Improved::default();
        let mut values = self.top_values();
        let mut hops = None;
        for (_, entry) in incoming {
            debug_assert_eq!(
                *hops.get_or_insert(entry.dist),
                entry.dist,
                "one round, one hop count"
            );
            if !self.offer_valued(entry, entry.value(), &mut values) {
                continue;
            }
            match self.mode {
                // Relaying depends on the entry alone: relay it now.
                Forwarding::Full => {
                    if self.should_forward(&entry) {
                        out.broadcast(&entry);
                    }
                }
                // Relaying depends on the round's final top two.
                Forwarding::TopTwo => improved.note(entry.origin, self.top()),
            }
        }
        for &origin in improved.origins() {
            let entry = *self
                .top()
                .iter()
                .find(|e| e.origin == origin)
                .expect("noted origins are kept");
            if self.should_forward(&entry) {
                out.broadcast(&entry);
            }
        }
    }

    fn is_halted(&self) -> bool {
        true
    }
}

/// Runs Theorem 1's algorithm by actual message passing on the simulator.
///
/// With the same `seed` and `params`, the returned decomposition is
/// bit-identical to [`crate::basic::decompose`]'s (the integration suite
/// asserts this) — for every [`Engine`]; additionally the communication
/// totals are returned.
///
/// # Errors
///
/// [`DecompError::Simulation`] if the configured CONGEST limit is violated
/// (only possible with [`Forwarding::Full`] or a very small limit);
/// [`DecompError::InvalidParameter`] for degenerate rates, or for a radius
/// cap above 65 535, the largest hop distance a message carries (checked
/// before any round runs).
pub fn decompose_distributed(
    graph: &Graph,
    params: &DecompositionParams,
    seed: u64,
    config: &DistributedConfig,
) -> Result<DistributedRun, DecompError> {
    wire_cap("k", params.radius_cap())?;
    let (budget, plan) = crate::basic::schedule(params, graph.vertex_count());
    run_distributed(graph, seed, budget, config, plan)
}

/// Theorem 2's staged algorithm by actual message passing; the per-stage
/// rate schedule matches [`crate::staged::decompose`] exactly (equal seeds
/// give bit-identical decompositions).
///
/// # Errors
///
/// As [`decompose_distributed`].
pub fn decompose_distributed_staged(
    graph: &Graph,
    params: &StagedParams,
    seed: u64,
    config: &DistributedConfig,
) -> Result<DistributedRun, DecompError> {
    wire_cap("k", params.radius_cap())?;
    let (budget, plan) = crate::staged::schedule(params, graph.vertex_count());
    run_distributed(graph, seed, budget, config, plan)
}

/// Theorem 3's high-radius algorithm by actual message passing.
///
/// # Errors
///
/// As [`decompose_distributed`].
pub fn decompose_distributed_high_radius(
    graph: &Graph,
    params: &HighRadiusParams,
    seed: u64,
    config: &DistributedConfig,
) -> Result<DistributedRun, DecompError> {
    let n = graph.vertex_count();
    wire_cap("lambda", params.radius_cap(n))?;
    let (budget, plan) = crate::high_radius::schedule(params, n);
    run_distributed(graph, seed, budget, config, plan)
}

/// The largest radius cap the wire format carries: an entry's hop
/// distance travels as a `u16`.
const MAX_WIRE_CAP: usize = u16::MAX as usize;

/// `Ok` if the wire format can carry every distance a phase with radius
/// cap `cap` reaches; otherwise [`DecompError::InvalidParameter`] naming
/// the parameter `name` that set it. Checked before any round runs: a
/// wrapped distance would silently change decisions.
fn wire_cap(name: &'static str, cap: usize) -> Result<(), DecompError> {
    if cap > MAX_WIRE_CAP {
        return Err(DecompError::InvalidParameter {
            name,
            reason: format!(
                "radius cap {cap} exceeds {MAX_WIRE_CAP}, the largest hop distance \
                 a CONGEST message carries"
            ),
        });
    }
    Ok(())
}

fn run_distributed<F>(
    graph: &Graph,
    seed: u64,
    budget: usize,
    config: &DistributedConfig,
    plan_for_phase: F,
) -> Result<DistributedRun, DecompError>
where
    F: Fn(usize) -> PhasePlan,
{
    let mut comm = RunStats::default();
    let mut sim = None;
    let outcome = run_phases_with_carver(
        graph,
        seed,
        budget,
        config.policy,
        plan_for_phase,
        |alive, shifts, cap| {
            let sim = sim.get_or_insert_with(|| carve_simulator(graph, config));
            arm_alive(sim, alive, shifts, cap);
            comm.merge(&sim.run_rounds_with(cap + 1, config.determinism)?);
            Ok(take_decisions(sim, alive))
        },
    )?;
    Ok(DistributedRun { outcome, comm })
}

/// The one simulator a decomposition runs on, with every node idle until
/// [`arm_alive`]; with [`DistributedConfig::transport`] set on a framed
/// engine, its frames go through one transport built here.
fn carve_simulator<'g>(
    graph: &'g Graph,
    config: &DistributedConfig,
) -> Simulator<'g, Typed<CarveNode>> {
    let mut sim = Simulator::new(graph, |_, _| Typed::new(CarveNode::idle(config.forwarding)))
        .with_limit(config.congest_limit)
        .with_engine(config.engine);
    if let Some(factory) = &config.transport {
        if matches!(config.engine, Engine::Framed { .. }) {
            let shards = sim.shard_plan().count();
            sim = sim.with_transport(factory.build(shards));
        }
    }
    sim
}

/// Re-arms the alive nodes `alive` for a phase and restarts the simulator
/// with them as the start list, so the next `cap + 1` rounds run the phase
/// exactly as a fresh simulator would. Every other node is already
/// disarmed: idle since construction, or carved by [`take_decisions`].
/// The previous phase leaves no message in flight: a relay in its last
/// round (round `cap`) would need an entry `cap + 1 ≤ radius ≤ cap` hops
/// out.
fn arm_alive(
    sim: &mut Simulator<'_, Typed<CarveNode>>,
    alive: &[VertexId],
    shifts: &[f64],
    cap: usize,
) {
    let nodes = sim.nodes_mut();
    for &v in alive {
        nodes[v].inner.arm(true, shifts[v], cap);
    }
    sim.restart(alive);
}

/// Each alive vertex's decision once a phase's rounds have run, in the
/// order of `alive`; disarms the vertices that joined, which the next
/// phase no longer lists.
fn take_decisions(
    sim: &mut Simulator<'_, Typed<CarveNode>>,
    alive: &[VertexId],
) -> Vec<CarveDecision> {
    let nodes = sim.nodes_mut();
    alive
        .iter()
        .map(|&v| {
            let node = &mut nodes[v].inner;
            let decision = node.decision();
            if decision.joined {
                node.alive = false;
            }
            decision
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::carve::PhaseResult;
    use crate::driver::run_phases_dense;
    use crate::shift::ShiftSource;
    use netdecomp_graph::{generators, VertexSet};

    /// Re-arms every node for a phase and rewinds the simulator to round 0,
    /// so that `start` runs on all `n` nodes: the dense re-arm that
    /// [`arm_alive`] replaced, kept for the dense oracle.
    fn arm_phase(
        sim: &mut Simulator<'_, Typed<CarveNode>>,
        alive: &VertexSet,
        shifts: &[f64],
        cap: usize,
    ) {
        for (v, node) in sim.nodes_mut().iter_mut().enumerate() {
            node.inner.arm(alive.contains(v), shifts[v], cap);
        }
        sim.resume_at(0);
    }

    /// Each alive vertex's decision once a phase's rounds have run, read
    /// into a dense [`PhaseResult`]: the result [`take_decisions`]
    /// replaced, kept for the dense oracle.
    fn phase_result(
        nodes: &[Typed<CarveNode>],
        alive: &VertexSet,
        shifts: &[f64],
        cap: usize,
    ) -> PhaseResult {
        let mut truncated = 0usize;
        let mut max_shift = 0.0f64;
        for v in alive.iter() {
            max_shift = max_shift.max(shifts[v]);
            if (shifts[v] as usize) > cap {
                truncated += 1;
            }
        }
        let decisions = nodes
            .iter()
            .enumerate()
            .map(|(v, node)| alive.contains(v).then(|| node.inner.decision()))
            .collect();
        PhaseResult {
            decisions,
            truncated,
            max_shift,
        }
    }

    /// A CONGEST decomposition as the dense loop ran it: every node
    /// re-armed and started each phase, every decision read.
    fn dense_congest<F>(
        g: &Graph,
        seed: u64,
        budget: usize,
        plan: F,
        config: &DistributedConfig,
    ) -> Result<DistributedRun, DecompError>
    where
        F: Fn(usize) -> PhasePlan,
    {
        let mut comm = RunStats::default();
        let mut sim = None;
        let outcome = run_phases_dense(
            g,
            seed,
            budget,
            config.policy,
            plan,
            |_, alive, shifts, cap| {
                let sim = sim.get_or_insert_with(|| carve_simulator(g, config));
                arm_phase(sim, alive, shifts, cap);
                comm.merge(&sim.run_rounds_with(cap + 1, config.determinism)?);
                Ok(phase_result(sim.nodes(), alive, shifts, cap))
            },
        )?;
        Ok(DistributedRun { outcome, comm })
    }

    /// One phase on a fresh carve simulator.
    fn run_phase(
        g: &Graph,
        alive: &VertexSet,
        shifts: &[f64],
        cap: usize,
        config: &DistributedConfig,
    ) -> (PhaseResult, RunStats) {
        let mut sim = carve_simulator(g, config);
        arm_phase(&mut sim, alive, shifts, cap);
        let stats = sim.run_rounds(cap + 1).unwrap();
        (phase_result(sim.nodes(), alive, shifts, cap), stats)
    }

    fn one_phase_decisions(g: &Graph, shifts: &[f64], cap: usize, mode: Forwarding) -> PhaseResult {
        let alive = VertexSet::full(g.vertex_count());
        let config = DistributedConfig {
            forwarding: mode,
            ..DistributedConfig::default()
        };
        run_phase(g, &alive, shifts, cap, &config).0
    }

    #[test]
    fn distributed_phase_matches_centralized_carve() {
        for seed in 0..4u64 {
            let g = generators::grid2d(5, 6);
            let n = g.vertex_count();
            let src = ShiftSource::new(seed, 0.8).unwrap();
            let shifts: Vec<f64> = (0..n).map(|v| src.shift(0, v)).collect();
            let cap = 4;
            let central = crate::carve::carve_phase(&g, &VertexSet::full(n), &shifts, cap);
            for mode in [Forwarding::TopTwo, Forwarding::Full] {
                let dist = one_phase_decisions(&g, &shifts, cap, mode);
                assert_eq!(
                    central.decisions, dist.decisions,
                    "mode {mode:?} seed {seed}"
                );
            }
        }
    }

    #[test]
    fn top_two_and_full_forwarding_agree() {
        for seed in 10..14u64 {
            let g = generators::cycle(24);
            let src = ShiftSource::new(seed, 0.5).unwrap();
            let shifts: Vec<f64> = (0..24).map(|v| src.shift(3, v)).collect();
            let a = one_phase_decisions(&g, &shifts, 5, Forwarding::TopTwo);
            let b = one_phase_decisions(&g, &shifts, 5, Forwarding::Full);
            assert_eq!(a.decisions, b.decisions, "seed {seed}");
        }
    }

    #[test]
    fn full_forwarding_sends_at_least_as_much() {
        let g = generators::grid2d(6, 6);
        let n = g.vertex_count();
        let src = ShiftSource::new(5, 0.4).unwrap();
        let shifts: Vec<f64> = (0..n).map(|v| src.shift(0, v)).collect();
        let alive = VertexSet::full(n);
        let cfg_top = DistributedConfig::default();
        let cfg_full = DistributedConfig {
            forwarding: Forwarding::Full,
            ..DistributedConfig::default()
        };
        let (_, stats_top) = run_phase(&g, &alive, &shifts, 6, &cfg_top);
        let (_, stats_full) = run_phase(&g, &alive, &shifts, 6, &cfg_full);
        assert!(stats_full.total_messages >= stats_top.total_messages);
    }

    #[test]
    fn end_to_end_distributed_decomposition_is_valid() {
        let g = generators::grid2d(6, 6);
        let params = DecompositionParams::new(3, 4.0).unwrap();
        let run = decompose_distributed(&g, &params, 21, &DistributedConfig::default()).unwrap();
        let report = crate::verify::verify(&g, run.outcome.decomposition()).unwrap();
        assert!(report.complete);
        assert!(report.supergraph_properly_colored);
        if run.outcome.events().clean() {
            assert!(report.is_valid_strong(params.diameter_bound()));
        }
        assert!(run.comm.total_messages > 0);
    }

    #[test]
    fn distributed_equals_centralized_end_to_end() {
        let g = generators::cycle(30);
        let params = DecompositionParams::new(2, 4.0).unwrap();
        for seed in [0u64, 1, 2] {
            let central = crate::basic::decompose(&g, &params, seed).unwrap();
            let dist =
                decompose_distributed(&g, &params, seed, &DistributedConfig::default()).unwrap();
            assert_eq!(
                central.decomposition(),
                dist.outcome.decomposition(),
                "seed {seed}"
            );
            assert_eq!(central.phases_used(), dist.outcome.phases_used());
        }
    }

    #[test]
    fn parallel_verified_engine_equals_sequential_distributed() {
        let g = generators::grid2d(6, 6);
        let params = DecompositionParams::new(3, 4.0).unwrap();
        for seed in [0u64, 7] {
            let seq =
                decompose_distributed(&g, &params, seed, &DistributedConfig::default()).unwrap();
            let par = decompose_distributed(
                &g,
                &params,
                seed,
                &DistributedConfig {
                    engine: Engine::Parallel {
                        threads: 4,
                        shards: 3,
                    },
                    determinism: Determinism::Verify,
                    ..DistributedConfig::default()
                },
            )
            .unwrap();
            assert_eq!(seq.outcome, par.outcome, "seed {seed}");
            assert_eq!(seq.comm, par.comm, "seed {seed}");
        }
    }

    #[test]
    fn top_two_respects_congest_budget() {
        // Two 14-byte entries per edge per round fit in 28 bytes.
        let g = generators::grid2d(5, 5);
        let params = DecompositionParams::new(3, 4.0).unwrap();
        let config = DistributedConfig {
            congest_limit: CongestLimit::PerEdgeBytes(28),
            ..DistributedConfig::default()
        };
        let run = decompose_distributed(&g, &params, 3, &config).unwrap();
        assert!(run.comm.max_edge_bytes <= 28);
    }

    #[test]
    fn staged_distributed_equals_centralized() {
        let g = generators::grid2d(5, 5);
        let params = crate::params::StagedParams::new(3, 6.0).unwrap();
        for seed in [0u64, 1] {
            let central = crate::staged::decompose(&g, &params, seed).unwrap();
            let dist =
                decompose_distributed_staged(&g, &params, seed, &DistributedConfig::default())
                    .unwrap();
            assert_eq!(
                central.decomposition(),
                dist.outcome.decomposition(),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn high_radius_distributed_equals_centralized() {
        let g = generators::cycle(24);
        let params = crate::params::HighRadiusParams::new(2, 4.0).unwrap();
        for seed in [0u64, 1] {
            let central = crate::high_radius::decompose(&g, &params, seed).unwrap();
            let dist =
                decompose_distributed_high_radius(&g, &params, seed, &DistributedConfig::default())
                    .unwrap();
            assert_eq!(
                central.decomposition(),
                dist.outcome.decomposition(),
                "seed {seed}"
            );
        }
    }

    /// A radius cap past the `u16` wire distance is refused before any
    /// round runs: k = 70 000 on a 100k-vertex path would otherwise
    /// relay entries past 65 535 hops with wrapped distances.
    #[test]
    fn radius_caps_past_the_wire_width_are_invalid_parameters() {
        let g = generators::path(6);
        let config = DistributedConfig::default();
        let invalid = |result: Result<DistributedRun, DecompError>, name: &str| match result {
            Err(DecompError::InvalidParameter { name: got, reason }) => {
                assert_eq!(got, name);
                assert!(reason.contains("65535"), "{reason}");
            }
            other => panic!("expected an invalid {name}, got {other:?}"),
        };
        let basic = DecompositionParams::new(70_000, 4.0).unwrap();
        invalid(decompose_distributed(&g, &basic, 1, &config), "k");
        let staged = crate::params::StagedParams::new(70_000, 6.0).unwrap();
        invalid(decompose_distributed_staged(&g, &staged, 1, &config), "k");
        let high = crate::params::HighRadiusParams::new(1, 10_000.0).unwrap();
        assert!(high.radius_cap(6) > MAX_WIRE_CAP);
        invalid(
            decompose_distributed_high_radius(&g, &high, 1, &config),
            "lambda",
        );
        // The largest cap the wire carries still runs.
        let widest = DecompositionParams::new(MAX_WIRE_CAP, 4.0).unwrap();
        assert!(decompose_distributed(&g, &widest, 1, &config).is_ok());
    }

    #[test]
    fn dead_vertices_stay_silent() {
        let g = generators::path(4);
        let mut alive = VertexSet::full(4);
        alive.remove(1);
        let shifts = [9.0, 9.0, 0.2, 0.1];
        let cfg = DistributedConfig::default();
        let (result, _) = run_phase(&g, &alive, &shifts, 4, &cfg);
        assert!(result.decisions[1].is_none());
        // 0's broadcast is blocked by the dead vertex 1.
        let d2 = result.decisions[2].unwrap();
        assert_eq!(d2.center, 2);
    }

    /// Shifts and alive set of `phase` on a graph where phase 0 carved
    /// the vertices `carved`.
    fn phase_inputs(n: usize, seed: u64, phase: u64, carved: &[VertexId]) -> (VertexSet, Vec<f64>) {
        let mut alive = VertexSet::full(n);
        for &v in carved {
            alive.remove(v);
        }
        let src = ShiftSource::new(seed, 0.6).unwrap();
        let shifts = (0..n)
            .map(|v| {
                if alive.contains(v) {
                    src.shift(phase, v)
                } else {
                    0.0
                }
            })
            .collect();
        (alive, shifts)
    }

    #[test]
    fn a_re_armed_simulator_runs_each_phase_like_a_fresh_one() {
        let g = generators::grid2d(6, 7);
        let n = g.vertex_count();
        for config in [
            DistributedConfig::default(),
            DistributedConfig {
                forwarding: Forwarding::Full,
                ..DistributedConfig::default()
            },
            DistributedConfig {
                engine: Engine::Framed {
                    threads: 2,
                    shards: 3,
                    transport: netdecomp_sim::FrameTransport::Loopback,
                },
                ..DistributedConfig::default()
            },
        ] {
            let mut sim = carve_simulator(&g, &config);
            let mut carved = Vec::new();
            for (phase, cap) in [(0u64, 4usize), (1, 2), (2, 5)] {
                let (alive, shifts) = phase_inputs(n, 9, phase, &carved);
                arm_phase(&mut sim, &alive, &shifts, cap);
                let stats = sim.run_rounds(cap + 1).unwrap();
                let reused = phase_result(sim.nodes(), &alive, &shifts, cap);
                let (fresh, fresh_stats) = run_phase(&g, &alive, &shifts, cap, &config);
                assert_eq!(reused, fresh, "{config:?} phase {phase}");
                assert_eq!(stats, fresh_stats, "{config:?} phase {phase}");
                carved.extend(fresh.joined());
            }
        }
    }

    /// A checkpoint taken mid-phase on a re-armed simulator restores into
    /// a freshly built one: the saved alive bits, shifts and caps replace
    /// the idle nodes the rebuild starts from.
    #[test]
    fn a_mid_phase_checkpoint_restores_the_re_armed_nodes() {
        let g = generators::grid2d(6, 6);
        let n = g.vertex_count();
        let config = DistributedConfig {
            engine: Engine::Parallel {
                threads: 2,
                shards: 3,
            },
            ..DistributedConfig::default()
        };
        let (alive0, shifts0) = phase_inputs(n, 4, 0, &[]);
        let mut full = carve_simulator(&g, &config);
        arm_phase(&mut full, &alive0, &shifts0, 4);
        full.run_rounds(5).unwrap();
        let carved = phase_result(full.nodes(), &alive0, &shifts0, 4).joined();

        // Phase 1 with a different cap than phase 0, cut after two rounds.
        let (alive1, shifts1) = phase_inputs(n, 4, 1, &carved);
        let (cap, cut) = (3, 2);
        arm_phase(&mut full, &alive1, &shifts1, cap);
        full.run_rounds(cut).unwrap();
        let shards = full.shard_plan().count();
        assert_eq!(shards, 3);
        let payloads: Vec<Vec<u8>> = (0..shards).map(|k| full.snapshot_shard(k)).collect();
        full.run_rounds(cap + 1 - cut).unwrap();

        let mut resumed = carve_simulator(&g, &config);
        for (k, payload) in payloads.iter().enumerate() {
            assert!(resumed.restore_shard(k, payload), "shard {k} restore");
        }
        resumed.resume_at(cut);
        resumed.run_rounds(cap + 1 - cut).unwrap();

        assert_eq!(resumed.nodes(), full.nodes(), "resumed phase diverged");
        assert_eq!(
            phase_result(resumed.nodes(), &alive1, &shifts1, cap),
            phase_result(full.nodes(), &alive1, &shifts1, cap)
        );
    }

    /// Every CONGEST entry point, on every engine and both forwarding
    /// rules, against the dense loop with the dense re-arm: whole outcomes
    /// and communication bills, round by round.
    #[test]
    fn sparse_phases_equal_the_dense_loop_on_every_engine() {
        use crate::driver::oracle_graph;
        use crate::params::{HighRadiusParams, StagedParams};
        use rand::{Rng, SeedableRng};
        let engines = [
            Engine::Sequential,
            Engine::Parallel {
                threads: 2,
                shards: 3,
            },
            Engine::Framed {
                threads: 2,
                shards: 3,
                transport: netdecomp_sim::FrameTransport::Loopback,
            },
        ];
        let mut truncated = 0;
        for case in 0..200u64 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(case);
            let (family, g) = oracle_graph(case, &mut rng, 40);
            let n = g.vertex_count();
            let ln_n = (n.max(2) as f64).ln().ceil() as usize;
            let k = [2, 3, ln_n][rng.gen_range(0..3usize)];
            let policy = if rng.gen_bool(0.5) {
                BudgetPolicy::ContinueUntilEmpty
            } else {
                BudgetPolicy::StopAtBudget
            };
            let seed = rng.gen::<u64>();
            let kind = case / 5 % 3;
            for forwarding in [Forwarding::TopTwo, Forwarding::Full] {
                let config = |engine| DistributedConfig {
                    forwarding,
                    policy,
                    engine,
                    ..DistributedConfig::default()
                };
                let run = |config: &DistributedConfig, dense: bool| match kind {
                    0 => {
                        let p = DecompositionParams::new(k, 4.0).unwrap();
                        if dense {
                            let (budget, plan) = crate::basic::schedule(&p, n);
                            dense_congest(&g, seed, budget, plan, config)
                        } else {
                            decompose_distributed(&g, &p, seed, config)
                        }
                    }
                    1 => {
                        let p = StagedParams::new(k, 6.0).unwrap();
                        if dense {
                            let (budget, plan) = crate::staged::schedule(&p, n);
                            dense_congest(&g, seed, budget, plan, config)
                        } else {
                            decompose_distributed_staged(&g, &p, seed, config)
                        }
                    }
                    _ => {
                        let p = HighRadiusParams::new(k.max(3), 4.0).unwrap();
                        if dense {
                            let (budget, plan) = crate::high_radius::schedule(&p, n);
                            dense_congest(&g, seed, budget, plan, config)
                        } else {
                            decompose_distributed_high_radius(&g, &p, seed, config)
                        }
                    }
                };
                let want = run(&config(Engine::Sequential), true).unwrap();
                truncated += usize::from(!want.outcome.events().clean());
                for engine in engines {
                    let got = run(&config(engine), false).unwrap();
                    let what = format!(
                        "case {case}: kind {kind} {family} n={n} k={k} {policy:?} \
                         {forwarding:?} {engine:?}"
                    );
                    assert_eq!(got.outcome, want.outcome, "{what}");
                    assert_eq!(got.comm, want.comm, "{what}");
                }
            }
        }
        assert!(truncated >= 20, "only {truncated} runs truncated");
    }

    /// A re-armed phase's start round steps exactly its alive nodes, with
    /// `Verify`'s reference starting every node, and reading the phase's
    /// decisions disarms exactly the nodes that joined.
    #[test]
    fn a_re_armed_phase_starts_only_its_alive_nodes() {
        let g = generators::grid2d(8, 9);
        let n = g.vertex_count();
        for engine in [
            Engine::Sequential,
            Engine::Parallel {
                threads: 2,
                shards: 3,
            },
        ] {
            let config = DistributedConfig {
                engine,
                determinism: Determinism::Verify,
                ..DistributedConfig::default()
            };
            let mut sim = carve_simulator(&g, &config);
            let mut alive: Vec<VertexId> = (0..n).collect();
            let mut carved = 0;
            for phase in 0..4u64 {
                let src = ShiftSource::new(2, 0.6).unwrap();
                let mut shifts = vec![0.0; n];
                for &v in &alive {
                    shifts[v] = src.shift(phase, v);
                }
                arm_alive(&mut sim, &alive, &shifts, 3);
                sim.step_verified().unwrap();
                assert_eq!(sim.delivery_work().nodes_stepped, alive.len(), "{engine:?}");
                sim.run_rounds_with(3, Determinism::Verify).unwrap();
                let decisions = take_decisions(&mut sim, &alive);
                let mut next = Vec::new();
                for (&v, d) in alive.iter().zip(&decisions) {
                    assert_eq!(sim.nodes()[v].inner.alive, !d.joined);
                    if !d.joined {
                        next.push(v);
                    }
                }
                carved += alive.len() - next.len();
                alive = next;
            }
            assert!(carved > 0 && !alive.is_empty(), "{engine:?}: {carved}");
            assert_eq!(
                sim.nodes().iter().filter(|node| node.inner.alive).count(),
                alive.len()
            );
        }
    }

    #[test]
    fn carve_node_snapshots_round_trip_and_refuse_malformed_bytes() {
        let mut node = CarveNode::idle(Forwarding::TopTwo);
        node.arm(true, 2.75, 6);
        for (origin, r, dist) in [(4, 2.75, 0), (9, 3.5, 2)] {
            node.offer(Entry { origin, r, dist });
        }
        let saved = node.save_state();
        let mut restored = CarveNode::idle(Forwarding::TopTwo);
        assert!(restored.load_state(&saved));
        assert_eq!(restored, node);
        for cut in 0..saved.len() {
            assert!(
                !CarveNode::idle(Forwarding::TopTwo).load_state(&saved[..cut]),
                "truncation at {cut}"
            );
        }
        let mut trailing = saved.to_vec();
        trailing.push(0);
        assert!(!restored.load_state(&trailing));
        // An entry count no payload of this length can hold.
        let mut absurd = saved.to_vec();
        absurd[18..22].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(!restored.load_state(&absurd));
    }

    /// The relay rule as it was before it stopped allocating: every
    /// improvement collected in a `Vec`, deduplicated by origin, relayed
    /// in first-improvement order.
    #[derive(Debug, Clone)]
    struct VecRelay(CarveNode);

    impl TypedProtocol for VecRelay {
        type Codec = EntryCodec;

        fn start(&mut self, ctx: &Ctx<'_>, out: &mut TypedOutbox<'_, EntryCodec>) {
            self.0.start(ctx, out);
        }

        fn round(
            &mut self,
            _ctx: &Ctx<'_>,
            incoming: TypedInbox<'_, EntryCodec>,
            out: &mut TypedOutbox<'_, EntryCodec>,
        ) {
            let node = &mut self.0;
            if !node.alive {
                return;
            }
            let mut improved: Vec<Entry> = Vec::new();
            for (_, entry) in incoming {
                if node.offer(entry) {
                    if let Some(slot) = improved.iter_mut().find(|e| e.origin == entry.origin) {
                        if entry.value() > slot.value() {
                            *slot = entry;
                        }
                    } else {
                        improved.push(entry);
                    }
                }
            }
            for entry in improved {
                if node.should_forward(&entry) {
                    out.broadcast(&entry);
                }
            }
        }
    }

    #[test]
    fn relays_match_the_vec_based_rule_message_for_message() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let graphs = [
            generators::gnp(90, 0.08, &mut rng).unwrap(),
            generators::grid2d(7, 7),
        ];
        for (i, g) in graphs.iter().enumerate() {
            let n = g.vertex_count();
            for mode in [Forwarding::TopTwo, Forwarding::Full] {
                let config = DistributedConfig {
                    forwarding: mode,
                    ..DistributedConfig::default()
                };
                for seed in 0..3u64 {
                    let (alive, shifts) = phase_inputs(n, seed, 0, &[2, 5]);
                    let cap = 5;
                    let mut sim = carve_simulator(g, &config);
                    arm_phase(&mut sim, &alive, &shifts, cap);
                    let mut reference = Simulator::new(g, |v, _| {
                        let mut node = CarveNode::idle(mode);
                        node.arm(alive.contains(v), shifts[v], cap);
                        Typed::new(VecRelay(node))
                    });
                    for round in 0..=cap {
                        sim.step().unwrap();
                        reference.step().unwrap();
                        for v in 0..n {
                            assert!(
                                sim.incoming(v) == reference.incoming(v).to_vec()[..],
                                "graph {i} {mode:?} seed {seed} round {round} vertex {v}"
                            );
                        }
                    }
                }
            }
        }
    }
}
