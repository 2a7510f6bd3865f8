//! One phase of block carving: the shifted-shortest-path propagation.
//!
//! Given the current graph `G_t` (the subgraph induced by the alive set) and
//! a shift `r_v` per alive vertex, every vertex `y` must learn the two
//! largest values of `m_v = r_v − d_{G_t}(y, v)` over all `v` whose
//! (truncated) broadcast reaches it, then join the block iff
//! `m₁ − m₂ > 1`, choosing `v₁` as its center.
//!
//! [`carve_phase`] computes this **exactly** — it is a centralized
//! simulation of the phase's communication rounds. A *label* is origin
//! `v`'s broadcast as seen at vertex `y`, `d` hops away; its value
//! `r_v − d` lies in the *window* `W = ⌊r_v⌋ − d`. The phase sweeps the
//! windows in decreasing `W`, jumping over empty ones. Window `W` holds
//! two kinds of labels, each list already ordered by value descending, then
//! origin ascending:
//!
//! - the relays of the labels accepted in window `W + 1` (a relay keeps its
//!   origin and loses exactly 1 from its value, so relaying keeps the
//!   order);
//! - the origins with `⌊r_v⌋ = W`, one contiguous run of the alive vertices
//!   sorted once per phase by `r` descending, then vertex ascending.
//!
//! One merge of the two orders the window. A vertex accepts a label unless
//! it is dead or already holds that origin or two others. A label accepted
//! at `y` is relayed while its broadcast range `min(⌊r_v⌋, cap)` allows: it
//! is stored once, and offered to each neighbour of `y` when the next
//! window is swept, so the sweep holds at most the labels one window
//! accepted. Keeping only a vertex's two best distinct-origin labels is
//! sound for precisely the reason the paper gives for its CONGEST
//! implementation: if two distinct origins dominate a label at `y`, they
//! dominate it (and outlive it, since `m_a > m_b` implies
//! `⌊m_a⌋ ≥ ⌊m_b⌋`, so the dominators' remaining broadcast ranges are no
//! shorter) at every vertex reachable through `y`.
//!
//! The sweep works on the alive vertices only. Its one per-vertex table,
//! a `u32` per vertex that the decomposition drivers keep for a whole run,
//! holds each alive vertex's place in the phase's alive list until the
//! vertex holds two origins, and is restored over the alive set when the
//! phase ends; decisions come back per alive vertex. [`carve_phase`] is an
//! adapter over it that keeps the dense [`PhaseResult`].
//!
//! # Exactness
//!
//! The sweep visits labels in the order of a max-heap keyed on value, then
//! smaller origin — the order a multi-source best-two Dijkstra pops them —
//! so every vertex accepts the same two labels, truncated broadcasts
//! included:
//!
//! - For `0 ≤ d ≤ ⌊r⌋` and `r < 2^53`, `r − d` is exact in `f64`, whether
//!   it is computed once or by subtracting 1 `d` times. Comparing the
//!   computed values under `total_cmp` is therefore comparing the real
//!   values, and relaying a window keeps its order.
//! - Every label of window `W` is an origin or a relay from window `W + 1`,
//!   so it exists before `W` is swept.
//! - What a vertex accepts depends only on the order in which it sees its
//!   labels, and that order is fixed by (value, origin).
//!
//! A window is ordered by the values themselves, never by fractional
//! parts: `r − ⌊r⌋` turns `−0.0` into `+0.0`, while `total_cmp` ranks
//! `+0.0` above `−0.0`, and [`ShiftSource`](crate::shift::ShiftSource)
//! draws `−0.0` when its uniform sample is 0. Propagating hop by hop
//! instead, as the CONGEST execution in [`crate::distributed`] does, relays
//! labels that a later, better one evicts, and can differ from this sweep
//! after a truncated broadcast.

use std::cmp::Ordering;

use netdecomp_graph::{Graph, VertexId, VertexSet};

/// What one vertex decided in one phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CarveDecision {
    /// The best value `m₁ = r_{v₁} − d(y, v₁)`.
    pub m1: f64,
    /// The vertex achieving `m₁` (the would-be center).
    pub center: VertexId,
    /// The second best value `m₂` (0 when only one broadcast arrived, as the
    /// paper defines).
    pub m2: f64,
    /// `true` iff `m₁ − m₂ > 1`: the vertex joins the block this phase.
    pub joined: bool,
}

/// Result of one carving phase over the alive set.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseResult {
    /// Decision per vertex; `None` for vertices outside the alive set.
    pub decisions: Vec<Option<CarveDecision>>,
    /// Number of alive vertices whose `⌊r_v⌋` exceeded the cap (event `E_v`
    /// of Lemma 1); their broadcasts were truncated at the cap.
    pub truncated: usize,
    /// Largest shift sampled among alive vertices this phase.
    pub max_shift: f64,
}

impl PhaseResult {
    /// The vertices that joined the block this phase.
    #[must_use]
    pub fn joined(&self) -> Vec<VertexId> {
        self.decisions
            .iter()
            .enumerate()
            .filter_map(|(v, d)| match d {
                Some(d) if d.joined => Some(v),
                _ => None,
            })
            .collect()
    }
}

/// Shifts at or above this bound are rejected: past it, `f64` no longer
/// represents `r − 1` exactly, so windows would misorder labels.
const SHIFT_LIMIT: f64 = 9_007_199_254_740_992.0; // 2^53

/// Executes one carving phase with the paper's join margin of 1.
///
/// - `alive`: the vertex set of the current graph `G_t`.
/// - `shifts[v]`: the sampled `r_v` (only alive entries are read).
/// - `cap`: broadcast radius cap — the number of communication rounds the
///   phase is allotted (`k` for Theorems 1 and 2). Broadcasts whose `⌊r_v⌋`
///   exceeds it are truncated at `cap` hops and counted in
///   [`PhaseResult::truncated`].
///
/// The phase is one sweep over windows of equal `⌊value⌋` (see the module
/// docs): `O(a log a + Σ deg)` time for `a` alive vertices. This function
/// is an adapter over the sweep the decomposition drivers run: it lists
/// the alive vertices, sweeps them with per-vertex scratch of its own, and
/// expands their decisions into the dense [`PhaseResult`], which costs
/// `O(n)`. The drivers keep that scratch across phases and read the
/// decisions of the alive vertices only, so a phase costs them nothing per
/// dead vertex.
///
/// # Panics
///
/// Panics if `alive`'s universe or `shifts`' length differ from the graph's
/// vertex count, or if an alive vertex's shift is negative, NaN, infinite
/// or at least `2^53` (`−0.0` is accepted).
#[must_use]
pub fn carve_phase(g: &Graph, alive: &VertexSet, shifts: &[f64], cap: usize) -> PhaseResult {
    carve_phase_with_margin(g, alive, shifts, cap, 1.0)
}

/// [`carve_phase`] with an explicit join margin `θ` (join iff
/// `m₁ − m₂ > θ`).
///
/// The paper fixes `θ = 1`; this generalization exists for the ablation
/// experiment (E13): the proof of Lemma 4 uses `θ = 1` exactly — vertices
/// one hop apart see values differing by at most 1, so any `θ < 1` lets
/// adjacent vertices adopt different centers inside one connected block
/// (breaking the strong-diameter argument), while `θ > 1` only slows the
/// carving down (Lemma 5's per-phase join probability shrinks).
///
/// # Panics
///
/// Panics on mismatched sizes or an unusable shift (as [`carve_phase`]),
/// or on a negative/NaN margin.
#[must_use]
pub fn carve_phase_with_margin(
    g: &Graph,
    alive: &VertexSet,
    shifts: &[f64],
    cap: usize,
    margin: f64,
) -> PhaseResult {
    let n = g.vertex_count();
    assert_eq!(alive.universe(), n, "alive universe must match graph");
    let members: Vec<VertexId> = alive.iter().collect();
    let sparse = SweepScratch::new(n).carve(g, &members, shifts, cap, margin);
    let (truncated, max_shift) = shift_events(&members, shifts, cap);
    let mut decisions = vec![None; n];
    for (&v, d) in members.iter().zip(sparse) {
        decisions[v] = Some(d);
    }
    PhaseResult {
        decisions,
        truncated,
        max_shift,
    }
}

/// `(truncated, max_shift)` of one phase, as [`PhaseResult`] reports them:
/// the alive vertices whose `⌊r_v⌋` exceeds `cap`, and the largest shift
/// among them (0 when there is none).
pub(crate) fn shift_events(alive: &[VertexId], shifts: &[f64], cap: usize) -> (usize, f64) {
    let mut truncated = 0usize;
    let mut max_shift = 0.0f64;
    for &v in alive {
        let r = shifts[v];
        max_shift = max_shift.max(r);
        if (r as usize) > cap {
            truncated += 1;
        }
    }
    (truncated, max_shift)
}

/// The sweep's per-vertex scratch: one `u32` per vertex, [`FULL`] for
/// every vertex between phases. A decomposition keeps one for its whole
/// run; each phase writes it over the alive vertices and restores it
/// there before returning, so no phase allocates or visits `n` entries.
#[derive(Debug)]
pub(crate) struct SweepScratch {
    /// Per vertex, during a phase: [`FULL`] once the vertex accepts
    /// nothing more (it holds two origins, or is not alive), otherwise its
    /// index in the phase's alive list.
    holds: Vec<u32>,
}

impl SweepScratch {
    /// Scratch for a graph of `n` vertices.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds `u32::MAX`: a vertex id must fit a `u32`.
    pub(crate) fn new(n: usize) -> Self {
        assert!(
            u32::try_from(n).is_ok(),
            "the carve indexes vertices as u32, got {n} vertices"
        );
        SweepScratch {
            holds: vec![FULL; n],
        }
    }

    /// Runs one phase over the alive vertices `alive` (no repeats) and
    /// returns their decisions, `decisions[i]` being `alive[i]`'s. Reads
    /// `shifts[v]` for alive `v` only.
    ///
    /// # Panics
    ///
    /// As [`carve_phase_with_margin`], for the shifts of `alive` and the
    /// margin.
    pub(crate) fn carve(
        &mut self,
        g: &Graph,
        alive: &[VertexId],
        shifts: &[f64],
        cap: usize,
        margin: f64,
    ) -> Vec<CarveDecision> {
        assert!(
            margin.is_finite() && margin >= 0.0,
            "margin must be finite and nonnegative"
        );
        assert_eq!(shifts.len(), g.vertex_count(), "one shift per vertex");
        assert_eq!(self.holds.len(), g.vertex_count(), "scratch sized for g");
        let mut origins: Vec<Label> = Vec::with_capacity(alive.len());
        for (i, &v) in alive.iter().enumerate() {
            let r = shifts[v];
            // The range admits `−0.0` (it equals `0.0`) and rejects NaN.
            assert!(
                (0.0..SHIFT_LIMIT).contains(&r),
                "shift of alive vertex {v} must be in [0, 2^53), got {r}"
            );
            self.holds[v] = i as u32;
            origins.push(Label {
                value: r,
                origin: v as u32,
                vertex: v as u32,
            });
        }
        origins.sort_unstable_by(Label::sweep_order);

        let mut sweep = Sweep {
            shifts,
            cap,
            margin,
            holds: &mut self.holds,
            decisions: vec![UNHEARD; alive.len()],
            relays: Vec::new(),
        };
        let mut relays: Vec<Label> = Vec::new();
        let mut next = 0usize; // the first origin not yet swept
        let mut w = 0usize;
        loop {
            // The relays out of window `w` belong to window `w − 1`; with
            // none in flight, the sweep jumps to the next origin's window.
            std::mem::swap(&mut relays, &mut sweep.relays);
            sweep.relays.clear();
            w = match (relays.is_empty(), origins.get(next)) {
                (false, _) => w - 1,
                (true, Some(o)) => o.value as usize,
                (true, None) => break,
            };
            let count = origins[next..]
                .iter()
                .take_while(|o| o.value as usize == w)
                .count();
            let run = &origins[next..next + count];
            let (mut i, mut j) = (0, 0);
            while i < relays.len() || j < run.len() {
                let relay_first = j == run.len()
                    || (i < relays.len()
                        && Label::sweep_order(&relays[i], &run[j]) != Ordering::Greater);
                if relay_first {
                    let relay = relays[i];
                    for &z in g.neighbors(relay.vertex as usize) {
                        sweep.offer(
                            w,
                            Label {
                                vertex: z as u32,
                                ..relay
                            },
                        );
                    }
                    i += 1;
                } else {
                    sweep.offer(w, run[j]);
                    j += 1;
                }
            }
            next += count;
        }
        let decisions = sweep.decisions;
        for &v in alive {
            self.holds[v] = FULL;
        }
        decisions
    }
}

/// Marks a vertex that accepts nothing more: it holds two origins or is not
/// alive.
const FULL: u32 = u32::MAX;
/// The decision of an alive vertex that has accepted no label yet.
const UNHEARD: CarveDecision = CarveDecision {
    m1: 0.0,
    center: VertexId::MAX,
    m2: 0.0,
    joined: false,
};

/// Origin `origin`'s broadcast worth `value`: offered to `vertex` when it is
/// an origin's own label, and to each neighbour of `vertex` when it is a
/// relay.
#[derive(Debug, Clone, Copy)]
struct Label {
    value: f64,
    origin: u32,
    vertex: u32,
}

impl Label {
    /// The sweep's order: value descending under `total_cmp`, then origin
    /// ascending. `Less` means `a` is visited first.
    fn sweep_order(a: &Label, b: &Label) -> Ordering {
        b.value
            .total_cmp(&a.value)
            .then_with(|| a.origin.cmp(&b.origin))
    }
}

/// The state of one phase's sweep.
struct Sweep<'a> {
    shifts: &'a [f64],
    cap: usize,
    margin: f64,
    /// [`SweepScratch::holds`].
    holds: &'a mut [u32],
    /// Per alive-list index: the vertex's decision so far, [`UNHEARD`]
    /// until it accepts a label; its `center` is the first origin it
    /// accepted.
    decisions: Vec<CarveDecision>,
    /// Relays of the labels accepted in the window being swept, in the
    /// order they were accepted.
    relays: Vec<Label>,
}

impl Sweep<'_> {
    /// Offers `label`, of window `w`, to its vertex: accept it unless the
    /// vertex is full or already holds the origin, then relay it if its
    /// broadcast goes on.
    fn offer(&mut self, w: usize, label: Label) {
        let Label {
            value,
            origin,
            vertex,
        } = label;
        let at = self.holds[vertex as usize];
        if at == FULL {
            return;
        }
        let decision = &mut self.decisions[at as usize];
        if decision.center == origin as VertexId {
            return;
        }
        if decision.center == UNHEARD.center {
            *decision = CarveDecision {
                m1: value,
                center: origin as VertexId,
                m2: 0.0,
                // m₂ = 0 until a second origin arrives.
                joined: value > self.margin,
            };
        } else {
            self.holds[vertex as usize] = FULL;
            decision.m2 = value;
            decision.joined = decision.m1 - value > self.margin;
        }
        // The label sits `d = ⌊r⌋ − w` hops from its origin and travels one
        // more while `d + 1 ≤ min(⌊r⌋, cap)`.
        let d = self.shifts[origin as usize] as usize - w;
        if w > 0 && d < self.cap {
            self.relays.push(Label {
                value: value - 1.0,
                origin,
                vertex,
            });
        }
    }
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)]
mod tests {
    use super::*;
    use netdecomp_graph::generators;

    fn full(n: usize) -> VertexSet {
        VertexSet::full(n)
    }

    /// The carve reads `⌊r⌋` as `r as usize`: the cast truncates toward
    /// zero and saturates (NaN and negatives to 0, +∞ to the maximum), so
    /// it equals `r.floor() as usize` on every `f64`, without the libm
    /// `floor` call the default x86-64 target makes for it.
    #[test]
    fn a_truncating_cast_is_floor_on_every_f64() {
        use rand::{RngCore, SeedableRng};
        let below_one = 1.0 - f64::EPSILON / 2.0;
        let two_53 = 9_007_199_254_740_992.0;
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let specials = [
            f64::NAN,
            -f64::NAN,
            0.0,
            -0.0,
            -0.5,
            -1.0,
            below_one,
            -below_one,
            1.0,
            4.5,
            two_53,
            two_53 + 2.0,
            -two_53,
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::MIN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        let drawn = (0..100_000).map(|_| f64::from_bits(rng.next_u64()));
        for x in specials.into_iter().chain(drawn) {
            assert_eq!(x as usize, x.floor() as usize, "{x:e}");
            assert_eq!(x as u32, x.floor() as u32, "{x:e}");
        }
    }

    #[test]
    fn isolated_vertex_joins_iff_shift_above_one() {
        let g = Graph::empty(2);
        let res = carve_phase(&g, &full(2), &[1.5, 0.5], 3);
        let d0 = res.decisions[0].unwrap();
        assert!(d0.joined); // m1 = 1.5, m2 = 0
        assert_eq!(d0.center, 0);
        let d1 = res.decisions[1].unwrap();
        assert!(!d1.joined); // m1 = 0.5 - 0 = 0.5 <= 1
    }

    #[test]
    fn single_dominant_center_captures_path() {
        // Vertex 0 has a huge shift; everyone within radius joins with
        // center 0.
        let g = generators::path(5);
        let shifts = [4.5, 0.0, 0.0, 0.0, 0.0];
        let res = carve_phase(&g, &full(5), &shifts, 10);
        for v in 0..5 {
            let d = res.decisions[v].unwrap();
            assert_eq!(d.center, 0, "vertex {v}");
            assert!((d.m1 - (4.5 - v as f64)).abs() < 1e-12);
        }
        // m2 = 0 everywhere (all other broadcasts have radius 0), so a
        // vertex joins iff 4.5 - d(0, v) > 1, i.e. d <= 3.
        for v in 0..4 {
            assert!(res.decisions[v].unwrap().joined, "vertex {v} should join");
        }
        assert!(!res.decisions[4].unwrap().joined, "4.5 - 4 = 0.5 <= 1");
        assert_eq!(res.joined().len(), 4);
    }

    #[test]
    fn radius_truncation_respects_cap() {
        // Same dominant center but cap 2: vertices 3, 4 never hear it.
        let g = generators::path(5);
        let shifts = [4.5, 0.0, 0.0, 0.0, 0.0];
        let res = carve_phase(&g, &full(5), &shifts, 2);
        assert_eq!(res.truncated, 1); // floor(4.5) = 4 > 2
        let d3 = res.decisions[3].unwrap();
        assert_ne!(d3.center, 0);
        let d2 = res.decisions[2].unwrap();
        assert_eq!(d2.center, 0); // distance 2 <= cap
    }

    #[test]
    fn competing_centers_split_a_path() {
        // Two strong centers at the ends; the middle hears both and the
        // difference there is small, so the midpoint stays out.
        let g = generators::path(7);
        let shifts = [5.2, 0.0, 0.0, 0.0, 0.0, 0.0, 5.2];
        let res = carve_phase(&g, &full(7), &shifts, 10);
        // Vertex 3 hears 5.2-3 = 2.2 from both ends: m1 - m2 = 0.
        let d3 = res.decisions[3].unwrap();
        assert!(!d3.joined);
        // Vertex 1 hears 4.2 from 0 and 5.2-5 = 0.2 from 6: joins 0.
        let d1 = res.decisions[1].unwrap();
        assert!(d1.joined);
        assert_eq!(d1.center, 0);
        // Vertex 5 symmetric.
        let d5 = res.decisions[5].unwrap();
        assert!(d5.joined);
        assert_eq!(d5.center, 6);
    }

    #[test]
    fn margin_exactly_one_does_not_join() {
        // Two vertices, shifts engineered so m1 - m2 == 1 exactly.
        let g = generators::path(2);
        let shifts = [3.0, 1.0]; // at vertex 1: m = [3.0 - 1, 1.0] = [2, 1]
        let res = carve_phase(&g, &full(2), &shifts, 5);
        let d1 = res.decisions[1].unwrap();
        assert!((d1.m1 - 2.0).abs() < 1e-12);
        assert!((d1.m2 - 1.0).abs() < 1e-12);
        assert!(!d1.joined, "strict inequality required");
    }

    #[test]
    fn dead_vertices_do_not_relay() {
        // Path 0-1-2 with vertex 1 dead: 0's broadcast cannot reach 2.
        let g = generators::path(3);
        let mut alive = VertexSet::full(3);
        alive.remove(1);
        let shifts = [9.0, 0.0, 0.1];
        let res = carve_phase(&g, &alive, &shifts, 10);
        assert!(res.decisions[1].is_none());
        let d2 = res.decisions[2].unwrap();
        assert_eq!(d2.center, 2, "vertex 2 only hears itself");
        assert!((d2.m1 - 0.1).abs() < 1e-12);
    }

    #[test]
    fn observation2_holds_for_joiners() {
        // Observation 2: a joiner y with center v has d(v,y) < r_v - 1.
        let g = generators::grid2d(6, 6);
        let alive = full(36);
        let shifts: Vec<f64> = (0..36)
            .map(|v| crate::shift::ShiftSource::new(11, 0.7).unwrap().shift(0, v))
            .collect();
        let res = carve_phase(&g, &alive, &shifts, 8);
        let dist_cache: Vec<Vec<Option<usize>>> = (0..36)
            .map(|v| netdecomp_graph::bfs::distances_restricted(&g, v, &alive))
            .collect();
        for y in 0..36 {
            let d = res.decisions[y].unwrap();
            if d.joined {
                let dist = dist_cache[d.center][y].expect("center reachable");
                assert!(
                    (dist as f64) < shifts[d.center] - 1.0,
                    "Observation 2 violated at {y}"
                );
            }
        }
    }

    #[test]
    fn every_alive_vertex_gets_a_decision() {
        let g = generators::cycle(12);
        let shifts: Vec<f64> = (0..12).map(|v| 0.3 * v as f64).collect();
        let res = carve_phase(&g, &full(12), &shifts, 4);
        assert!(res.decisions.iter().all(Option::is_some));
        assert!((res.max_shift - 3.3).abs() < 1e-12);
    }

    #[test]
    fn own_value_is_a_lower_bound_on_m1() {
        let g = generators::cycle(10);
        let shifts: Vec<f64> = (0..10).map(|v| (v as f64) * 0.17).collect();
        let res = carve_phase(&g, &full(10), &shifts, 5);
        for v in 0..10 {
            let d = res.decisions[v].unwrap();
            assert!(d.m1 >= shifts[v] - 1e-12, "m1 below own shift at {v}");
        }
    }

    #[test]
    fn zero_margin_joins_everyone() {
        // theta = 0: every vertex has m1 - m2 >= 0... strictly greater than
        // 0 whenever there is any asymmetry; with distinct shifts all
        // vertices join (MPX-style one-shot partition).
        let g = generators::path(6);
        let shifts: Vec<f64> = (0..6).map(|v| 2.0 + 0.1 * v as f64).collect();
        let res = carve_phase_with_margin(&g, &full(6), &shifts, 10, 0.0);
        assert_eq!(res.joined().len(), 6);
    }

    #[test]
    fn larger_margin_joins_fewer() {
        let g = generators::grid2d(6, 6);
        let src = crate::shift::ShiftSource::new(3, 0.6).unwrap();
        let shifts: Vec<f64> = (0..36).map(|v| src.shift(0, v)).collect();
        let low = carve_phase_with_margin(&g, &full(36), &shifts, 6, 0.5);
        let mid = carve_phase(&g, &full(36), &shifts, 6);
        let high = carve_phase_with_margin(&g, &full(36), &shifts, 6, 2.0);
        assert!(low.joined().len() >= mid.joined().len());
        assert!(mid.joined().len() >= high.joined().len());
    }

    #[test]
    #[should_panic(expected = "margin must be finite")]
    fn negative_margin_panics() {
        let g = generators::path(2);
        let _ = carve_phase_with_margin(&g, &full(2), &[0.0, 0.0], 1, -1.0);
    }

    #[test]
    #[should_panic(expected = "must be in [0, 2^53)")]
    fn negative_shift_panics() {
        let g = generators::path(2);
        let _ = carve_phase(&g, &full(2), &[0.5, -0.25], 1);
    }

    #[test]
    #[should_panic(expected = "must be in [0, 2^53)")]
    fn nan_shift_panics() {
        let g = generators::path(2);
        let _ = carve_phase(&g, &full(2), &[f64::NAN, 0.5], 1);
    }

    #[test]
    #[should_panic(expected = "must be in [0, 2^53)")]
    fn infinite_shift_panics() {
        let g = generators::path(2);
        let _ = carve_phase(&g, &full(2), &[0.5, f64::INFINITY], 1);
    }

    #[test]
    #[should_panic(expected = "must be in [0, 2^53)")]
    fn shift_of_two_to_the_53_panics() {
        let g = generators::path(2);
        let _ = carve_phase(&g, &full(2), &[0.5, SHIFT_LIMIT], 1);
    }

    #[test]
    fn negative_zero_and_dead_vertices_shifts_are_accepted() {
        // ShiftSource draws −0.0; a dead vertex's shift is never read.
        let g = generators::path(3);
        let mut alive = full(3);
        alive.remove(2);
        let res = carve_phase(&g, &alive, &[-0.0, SHIFT_LIMIT.next_down(), f64::NAN], 1);
        assert_eq!(res.decisions[0].unwrap().center, 1);
        assert!(res.decisions[2].is_none());
    }

    #[test]
    fn claim3_path_containment_for_joiners() {
        // Claim 3: if y joined with center v, every vertex on a shortest
        // path from v to y in G_t joined with center v too.
        use netdecomp_graph::bfs;
        for seed in 0..6u64 {
            let g = generators::grid2d(6, 6);
            let n = 36;
            let alive = full(n);
            let src = crate::shift::ShiftSource::new(seed, 0.7).unwrap();
            let shifts: Vec<f64> = (0..n).map(|v| src.shift(0, v)).collect();
            // Use a large cap so no truncation interferes with the claim.
            let res = carve_phase(&g, &alive, &shifts, 100);
            for y in 0..n {
                let d = res.decisions[y].unwrap();
                if !d.joined || d.center == y {
                    continue;
                }
                // Walk one shortest path from y back to the center greedily.
                let dist_from_center = bfs::distances_restricted(&g, d.center, &alive);
                let mut cur = y;
                while cur != d.center {
                    let dc = dist_from_center[cur].expect("reachable");
                    let next = g
                        .neighbors(cur)
                        .iter()
                        .copied()
                        .find(|&z| dist_from_center[z] == Some(dc - 1))
                        .expect("a predecessor exists on a shortest path");
                    let nd = res.decisions[next].unwrap();
                    assert!(nd.joined, "seed {seed}: path vertex {next} not joined");
                    assert_eq!(
                        nd.center, d.center,
                        "seed {seed}: path vertex {next} chose another center"
                    );
                    cur = next;
                }
            }
        }
    }

    #[test]
    fn brute_force_agreement_on_small_graphs() {
        // Compare the pruned Dijkstra against a brute-force evaluation of
        // m_v = r_v - d(y, v) with radius truncation.
        use netdecomp_graph::bfs;
        let seeds = [1u64, 2, 3];
        for seed in seeds {
            let src = crate::shift::ShiftSource::new(seed, 0.9).unwrap();
            let g = generators::grid2d(4, 4);
            let n = 16;
            let alive = full(n);
            let cap = 4usize;
            let shifts: Vec<f64> = (0..n).map(|v| src.shift(0, v)).collect();
            let res = carve_phase(&g, &alive, &shifts, cap);
            for y in 0..n {
                // Brute force: collect r_v - d for all v with d <= min(floor(r_v), cap).
                let mut vals: Vec<(f64, usize)> = Vec::new();
                for v in 0..n {
                    let d = bfs::distances_restricted(&g, v, &alive)[y];
                    if let Some(d) = d {
                        let radius = (shifts[v] as usize).min(cap);
                        if d <= radius {
                            vals.push((shifts[v] - d as f64, v));
                        }
                    }
                }
                vals.sort_by(|a, b| b.0.total_cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
                let expect_m1 = vals[0].0;
                let expect_center = vals[0].1;
                let expect_m2 = vals.get(1).map_or(0.0, |x| x.0);
                let d = res.decisions[y].unwrap();
                assert_eq!(
                    d.center, expect_center,
                    "center mismatch at {y} (seed {seed})"
                );
                assert!((d.m1 - expect_m1).abs() < 1e-12);
                assert!((d.m2 - expect_m2).abs() < 1e-12);
            }
        }
    }

    /// The binary-heap carve the window sweep replaced: a multi-source
    /// best-two Dijkstra over the keys `r_v − d`. The sweep must reproduce
    /// its whole [`PhaseResult`] bit for bit.
    fn heap_oracle(
        g: &Graph,
        alive: &VertexSet,
        shifts: &[f64],
        cap: usize,
        margin: f64,
    ) -> PhaseResult {
        use std::collections::BinaryHeap;

        #[derive(Clone, Copy, PartialEq)]
        struct HeapLabel {
            value: f64,
            origin: VertexId,
            vertex: VertexId,
            dist: usize,
        }
        impl Eq for HeapLabel {}
        impl Ord for HeapLabel {
            fn cmp(&self, other: &Self) -> Ordering {
                self.value
                    .total_cmp(&other.value)
                    .then_with(|| other.origin.cmp(&self.origin))
                    .then_with(|| other.vertex.cmp(&self.vertex))
                    .then_with(|| other.dist.cmp(&self.dist))
            }
        }
        impl PartialOrd for HeapLabel {
            fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
                Some(self.cmp(other))
            }
        }

        let n = g.vertex_count();
        let mut tops: Vec<[Option<(f64, VertexId)>; 2]> = vec![[None; 2]; n];
        let has = |t: &[Option<(f64, VertexId)>; 2], o| t.iter().flatten().any(|&(_, x)| x == o);
        let mut heap = BinaryHeap::new();
        let mut truncated = 0usize;
        let mut max_shift = 0.0f64;
        for v in alive.iter() {
            let r = shifts[v];
            max_shift = max_shift.max(r);
            if (r as usize) > cap {
                truncated += 1;
            }
            heap.push(HeapLabel {
                value: r,
                origin: v,
                vertex: v,
                dist: 0,
            });
        }
        while let Some(label) = heap.pop() {
            let t = &mut tops[label.vertex];
            if has(t, label.origin) || t[1].is_some() {
                continue;
            }
            t[usize::from(t[0].is_some())] = Some((label.value, label.origin));
            let radius = (shifts[label.origin] as usize).min(cap);
            if label.dist + 1 > radius {
                continue;
            }
            for &z in g.neighbors(label.vertex) {
                if alive.contains(z) && tops[z][1].is_none() && !has(&tops[z], label.origin) {
                    heap.push(HeapLabel {
                        value: label.value - 1.0,
                        origin: label.origin,
                        vertex: z,
                        dist: label.dist + 1,
                    });
                }
            }
        }
        let mut decisions = vec![None; n];
        for y in alive.iter() {
            let (m1, center) = tops[y][0].unwrap();
            let m2 = tops[y][1].map_or(0.0, |(v, _)| v);
            decisions[y] = Some(CarveDecision {
                m1,
                center,
                m2,
                joined: m1 - m2 > margin,
            });
        }
        PhaseResult {
            decisions,
            truncated,
            max_shift,
        }
    }

    /// A [`PhaseResult`] flattened to words, every float as its bits, so
    /// that `−0.0 ≠ +0.0`.
    fn bits(r: &PhaseResult) -> Vec<u64> {
        let mut words = vec![r.truncated as u64, r.max_shift.to_bits()];
        for d in &r.decisions {
            match d {
                None => words.push(u64::MAX),
                Some(d) => words.extend([
                    d.m1.to_bits(),
                    d.center as u64,
                    d.m2.to_bits(),
                    u64::from(d.joined),
                ]),
            }
        }
        words
    }

    #[derive(Debug, Clone, Copy)]
    enum ShiftMode {
        /// Continuous `EXP(β)` draws.
        Exponential(f64),
        /// Whole numbers: every label of a window shares one value.
        Integral,
        /// One of a few fractional parts on top of a random floor, so equal
        /// values arise across origins at different distances.
        SharedFraction,
        /// `+0.0`, `−0.0` and small whole numbers, whose relays reach `+0.0`.
        SignedZeros,
    }

    fn draw(mode: ShiftMode, rng: &mut rand::rngs::StdRng) -> f64 {
        use rand::Rng;
        match mode {
            ShiftMode::Exponential(beta) => crate::shift::Exponential::new(beta)
                .unwrap()
                .from_uniform(rng.gen_range(0.0..1.0)),
            ShiftMode::Integral => rng.gen_range(0..7u32).into(),
            ShiftMode::SharedFraction => {
                f64::from(rng.gen_range(0..6u32)) + [0.0, 0.25, 0.5, 0.75][rng.gen_range(0..4usize)]
            }
            ShiftMode::SignedZeros => [0.0, -0.0, -0.0, 1.0, 2.0, 3.0][rng.gen_range(0..6usize)],
        }
    }

    #[test]
    fn window_sweep_equals_the_heap_oracle() {
        use rand::{Rng, SeedableRng};
        const CAPS: [usize; 7] = [0, 1, 2, 3, 5, 8, 100];
        const MARGINS: [f64; 4] = [0.0, 0.5, 1.0, 2.0];
        const MODES: [ShiftMode; 5] = [
            ShiftMode::Exponential(1.2),
            ShiftMode::Exponential(0.3),
            ShiftMode::Integral,
            ShiftMode::SharedFraction,
            ShiftMode::SignedZeros,
        ];
        for case in 0..3000u64 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(case);
            let n = rng.gen_range(1..60usize);
            let (family, g) = match case % 4 {
                0 => (
                    "gnp",
                    generators::gnp(n, rng.gen_range(0.0..0.15), &mut rng).unwrap(),
                ),
                1 => {
                    let rows = rng.gen_range(1..8usize);
                    ("grid", generators::grid2d(rows, n / rows + 1))
                }
                2 => ("path", generators::path(n)),
                _ => ("cycle", generators::cycle(n.max(3))),
            };
            let n = g.vertex_count();
            let dead = [0.0, 0.2, 0.5][rng.gen_range(0..3usize)];
            let mut alive = full(n);
            for v in 0..n {
                if rng.gen_bool(dead) {
                    alive.remove(v);
                }
            }
            let mode = MODES[(case / 4 % 5) as usize];
            let cap = CAPS[rng.gen_range(0..CAPS.len())];
            let margin = MARGINS[rng.gen_range(0..MARGINS.len())];
            let shifts: Vec<f64> = (0..n).map(|_| draw(mode, &mut rng)).collect();
            let want = heap_oracle(&g, &alive, &shifts, cap, margin);
            let got = carve_phase_with_margin(&g, &alive, &shifts, cap, margin);
            assert_eq!(
                bits(&got),
                bits(&want),
                "case {case}: {family} n={n} dead={dead} {mode:?} cap={cap} margin={margin}"
            );
        }
    }
}
