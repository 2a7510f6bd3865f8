//! Deterministic fault injection over any [`Transport`].
//!
//! [`FaultInjectingTransport`] wraps a backend and, on the **receive**
//! edge of every `(round, from, to)` link, decides from a seeded hash —
//! no OS entropy, no timing — whether to drop, corrupt, delay,
//! duplicate, or reorder the frame that just arrived. Injecting after
//! the inner collect keeps the backend's own framing honest (the wire
//! really carried one frame per link; the *receiver* then experiences
//! the fault), and determinism means a failing seed in CI replays
//! exactly on a laptop.
//!
//! The point of the harness is the ISSUE's contract: **every** injected
//! fault must surface as a typed error — `MissingFrame` for drops,
//! `ChecksumMismatch`/`Truncated`/`BadMagic`/`VersionMismatch` for
//! corruption, `Misrouted` for duplicates and reorders — never a hang,
//! never a panic, never silent data damage.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use bytes::Bytes;

use crate::error::TransportError;
use crate::frame::{Transport, TransportHealth};

/// Per-link fault probabilities, in parts per thousand, plus the seed
/// that makes every decision reproducible.
///
/// A rate of 0 disables that fault; 1000 fires it on every link. Rates
/// apply independently per `(round, from, to)` edge, evaluated in the
/// order drop, corrupt, delay, duplicate, reorder (the first firing
/// fault on an edge wins; duplicate/reorder act across a destination's
/// whole slot row).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed mixed into every per-edge decision.
    pub seed: u64,
    /// Chance the frame vanishes (surfaces as `MissingFrame`).
    pub drop_per_mille: u16,
    /// Chance one frame byte is flipped (surfaces as a frame-integrity
    /// error: checksum, truncation, magic, or version).
    pub corrupt_per_mille: u16,
    /// Chance the frame is withheld this round and redelivered next
    /// round (the run usually aborts first, as `MissingFrame`).
    pub delay_per_mille: u16,
    /// Chance a neighbor slot is overwritten with a copy of this frame
    /// (surfaces as `Misrouted`).
    pub duplicate_per_mille: u16,
    /// Chance this frame swaps slots with a neighbor (surfaces as
    /// `Misrouted`).
    pub reorder_per_mille: u16,
    /// Deterministic one-way link outage: every frame on the configured
    /// `from -> to` edge is withheld for a fixed window of rounds, then
    /// the link heals. Unlike the probabilistic faults this is a
    /// *scheduled* event — the chaos soak uses it to prove a k-round
    /// partition either heals inside the recovery window (bit-identical
    /// result) or surfaces as a typed `MissingFrame`/timeout.
    pub partition: Option<LinkPartition>,
}

/// A scheduled one-way link outage (see [`FaultPlan::partition`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkPartition {
    /// Sender side of the severed edge.
    pub from: usize,
    /// Receiver side of the severed edge.
    pub to: usize,
    /// First round (0-based, per-destination collect count) the edge is
    /// down.
    pub start_round: usize,
    /// How many consecutive rounds the edge stays down.
    pub rounds: usize,
}

impl LinkPartition {
    /// Whether this partition severs `(round, from, to)`.
    #[must_use]
    pub fn severs(&self, round: usize, from: usize, to: usize) -> bool {
        from == self.from
            && to == self.to
            && round >= self.start_round
            && round < self.start_round + self.rounds
    }
}

impl FaultPlan {
    /// A plan that injects nothing — the wrapper becomes a pass-through
    /// (useful as a baseline in the same test harness).
    #[must_use]
    pub fn quiet(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            drop_per_mille: 0,
            corrupt_per_mille: 0,
            delay_per_mille: 0,
            duplicate_per_mille: 0,
            reorder_per_mille: 0,
            partition: None,
        }
    }

    /// A plan whose only fault is a scheduled one-way link outage.
    #[must_use]
    pub fn partitioned(seed: u64, partition: LinkPartition) -> FaultPlan {
        FaultPlan {
            partition: Some(partition),
            ..FaultPlan::quiet(seed)
        }
    }

    /// A plan firing only drops at the given rate.
    #[must_use]
    pub fn drops(seed: u64, per_mille: u16) -> FaultPlan {
        FaultPlan {
            drop_per_mille: per_mille,
            ..FaultPlan::quiet(seed)
        }
    }

    /// A plan firing only corruption at the given rate.
    #[must_use]
    pub fn corruption(seed: u64, per_mille: u16) -> FaultPlan {
        FaultPlan {
            corrupt_per_mille: per_mille,
            ..FaultPlan::quiet(seed)
        }
    }
}

/// splitmix64 — tiny, seedable, and plenty for coin flips (and for the
/// supervisor's deterministic restart jitter).
pub(crate) fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A [`Transport`] wrapper that deterministically injures frames on the
/// receive edge. Sends pass straight through to the inner backend.
#[derive(Debug)]
pub struct FaultInjectingTransport<T> {
    inner: T,
    plan: FaultPlan,
    /// Per-destination collect counter — the "round" coordinate of every
    /// fault decision.
    rounds: Vec<AtomicUsize>,
    /// Frames withheld by `delay`, keyed by destination; redelivered
    /// into empty slots on the destination's next collect.
    held: Vec<Mutex<Vec<Bytes>>>,
    dropped: AtomicUsize,
}

impl<T: Transport> FaultInjectingTransport<T> {
    /// Wraps `inner` for a fabric of `shards` shards under `plan`.
    #[must_use]
    pub fn new(inner: T, shards: usize, plan: FaultPlan) -> Self {
        FaultInjectingTransport {
            inner,
            plan,
            rounds: (0..shards).map(|_| AtomicUsize::new(0)).collect(),
            held: (0..shards).map(|_| Mutex::new(Vec::new())).collect(),
            dropped: AtomicUsize::new(0),
        }
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &T {
        &self.inner
    }

    /// One coin flip, deterministic in
    /// `(seed, round, from, to, which-fault)`.
    fn fires(&self, rate: u16, round: usize, from: usize, to: usize, salt: u64) -> bool {
        if rate == 0 {
            return false;
        }
        let key = mix(self.plan.seed
            ^ mix((round as u64) << 40 | (from as u64) << 20 | to as u64)
            ^ salt);
        (key % 1000) < u64::from(rate)
    }
}

impl<T: Transport> Transport for FaultInjectingTransport<T> {
    fn send(&self, from: usize, to: usize, frame: Bytes) {
        self.inner.send(from, to, frame);
    }

    fn collect(&self, to: usize, into: &mut [Option<Bytes>]) -> Result<(), TransportError> {
        self.inner.collect(to, into)?;
        let round = self.rounds[to].fetch_add(1, Ordering::Relaxed);
        // Frames an earlier round withheld; redelivered *after* this
        // round's injuries so a delayed frame lands in the gap its own
        // delay (or a fresh drop) opened.
        let carried = std::mem::take(&mut *self.held[to].lock().expect("no poisoned holding pen"));
        let shards = into.len();
        for from in 0..shards {
            let Some(frame) = into[from].clone() else {
                continue;
            };
            if self
                .plan
                .partition
                .is_some_and(|p| p.severs(round, from, to))
            {
                into[from] = None;
                self.dropped.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            if self.fires(self.plan.drop_per_mille, round, from, to, 0xD209) {
                into[from] = None;
                self.dropped.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            if self.fires(self.plan.corrupt_per_mille, round, from, to, 0xC0A2) {
                let mut bytes = frame.as_slice().to_vec();
                // Flip a bit in the header region so the damage is
                // always in integrity-checked territory.
                let at =
                    (mix(self.plan.seed ^ round as u64 ^ 0xF1F0) as usize) % bytes.len().min(28);
                bytes[at] ^= 0x40;
                into[from] = Some(Bytes::from(bytes));
                continue;
            }
            if self.fires(self.plan.delay_per_mille, round, from, to, 0xDE1A) {
                into[from] = None;
                self.dropped.fetch_add(1, Ordering::Relaxed);
                self.held[to]
                    .lock()
                    .expect("no poisoned holding pen")
                    .push(frame);
                continue;
            }
            if shards > 1 && self.fires(self.plan.duplicate_per_mille, round, from, to, 0xD0B1) {
                let over = (from + 1) % shards;
                into[over] = Some(frame);
                continue;
            }
            if shards > 1 && self.fires(self.plan.reorder_per_mille, round, from, to, 0x2E02) {
                into.swap(from, (from + 1) % shards);
            }
        }
        // Redeliver delayed frames into whatever gaps remain; a slot
        // already live means the stale frame stays lost (its miss was
        // counted when it was withheld).
        for frame in carried {
            let sender =
                u32::from_le_bytes(frame.as_slice()[8..12].try_into().expect("4 bytes")) as usize;
            if let Some(slot @ None) = into.get_mut(sender) {
                *slot = Some(frame);
            }
        }
        Ok(())
    }

    fn health(&self) -> TransportHealth {
        let mut health = self.inner.health();
        health.absorb(TransportHealth {
            frames_dropped_injected: self.dropped.load(Ordering::Relaxed),
            ..TransportHealth::default()
        });
        health
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{encode_entries, LoopbackTransport};

    fn frame(sender: usize, dest: usize, tag: u8) -> Bytes {
        encode_entries(sender, dest, &[(0, 0..1, Some(&[tag]))])
    }

    fn run_round(t: &dyn Transport, shards: usize, tag: u8) -> Vec<Vec<Option<Bytes>>> {
        for from in 0..shards {
            for to in 0..shards {
                t.send(from, to, frame(from, to, tag));
            }
        }
        (0..shards)
            .map(|to| {
                let mut slots = vec![None; shards];
                t.collect(to, &mut slots).unwrap();
                slots
            })
            .collect()
    }

    #[test]
    fn quiet_plan_is_a_pass_through() {
        let shards = 3;
        let t = FaultInjectingTransport::new(
            LoopbackTransport::new(shards),
            shards,
            FaultPlan::quiet(1),
        );
        let got = run_round(&t, shards, 5);
        assert!(got.iter().flatten().all(Option::is_some));
        assert_eq!(t.health().frames_dropped_injected, 0);
    }

    #[test]
    fn drops_are_deterministic_and_counted() {
        let shards = 2;
        let run = |seed| {
            let t = FaultInjectingTransport::new(
                LoopbackTransport::new(shards),
                shards,
                FaultPlan::drops(seed, 500),
            );
            let pattern: Vec<Vec<bool>> = run_round(&t, shards, 1)
                .iter()
                .map(|row| row.iter().map(Option::is_some).collect())
                .collect();
            (pattern, t.health().frames_dropped_injected)
        };
        let (first, dropped) = run(42);
        let (second, _) = run(42);
        assert_eq!(first, second, "same seed, same casualties");
        let total_missing: usize = first.iter().flatten().filter(|&&present| !present).count();
        assert_eq!(dropped, total_missing);
        // A 50% plan over 4 link-rounds virtually always differs from a
        // different seed's pattern across a few seeds.
        assert!(
            (0..8u64).any(|s| run(s).0 != first),
            "seed must influence the fault pattern"
        );
    }

    #[test]
    fn corruption_keeps_frame_present_but_damaged() {
        let shards = 2;
        let t = FaultInjectingTransport::new(
            LoopbackTransport::new(shards),
            shards,
            FaultPlan::corruption(7, 1000),
        );
        let got = run_round(&t, shards, 9);
        for (to, row) in got.iter().enumerate() {
            for (from, slot) in row.iter().enumerate() {
                let damaged = slot.as_ref().expect("corruption never removes the frame");
                assert_ne!(
                    damaged.as_slice(),
                    frame(from, to, 9).as_slice(),
                    "{from}->{to} must be damaged"
                );
            }
        }
    }

    #[test]
    fn delayed_frames_come_back_next_round() {
        let shards = 1;
        let t = FaultInjectingTransport::new(
            LoopbackTransport::new(shards),
            shards,
            FaultPlan {
                delay_per_mille: 1000,
                ..FaultPlan::quiet(3)
            },
        );
        t.send(0, 0, frame(0, 0, 1));
        let mut slots = vec![None; shards];
        t.collect(0, &mut slots).unwrap();
        assert!(slots[0].is_none(), "round 0 frame is withheld");
        // Round 1: also delayed on arrival, but round 0's frame fills
        // the gap.
        t.send(0, 0, frame(0, 0, 2));
        let mut slots = vec![None; shards];
        t.collect(0, &mut slots).unwrap();
        assert_eq!(
            slots[0].as_ref().unwrap().as_slice(),
            frame(0, 0, 1).as_slice(),
            "the delayed round-0 frame is redelivered"
        );
    }

    #[test]
    fn a_partitioned_link_drops_exactly_its_window_then_heals() {
        let shards = 2;
        let t = FaultInjectingTransport::new(
            LoopbackTransport::new(shards),
            shards,
            FaultPlan::partitioned(
                0,
                LinkPartition {
                    from: 1,
                    to: 0,
                    start_round: 1,
                    rounds: 2,
                },
            ),
        );
        for round in 0..4u8 {
            let got = run_round(&t, shards, round);
            let cut = (1..=2).contains(&round);
            assert_eq!(
                got[0][1].is_none(),
                cut,
                "round {round}: 1->0 must be {}",
                if cut { "cut" } else { "alive" }
            );
            // Every other edge is untouched throughout.
            assert!(got[0][0].is_some());
            assert!(got[1].iter().all(Option::is_some));
        }
        assert_eq!(t.health().frames_dropped_injected, 2);
    }

    #[test]
    fn duplicates_and_reorders_misfile_slots() {
        let shards = 2;
        let t = FaultInjectingTransport::new(
            LoopbackTransport::new(shards),
            shards,
            FaultPlan {
                duplicate_per_mille: 1000,
                ..FaultPlan::quiet(11)
            },
        );
        let got = run_round(&t, shards, 4);
        // Every destination's slot 1 was overwritten by a copy of slot
        // 0's frame (sender word says 0, slot says 1): a decoder sees
        // Misrouted.
        for row in &got {
            let copy = row[1].as_ref().expect("duplicate fills the slot");
            let sender = u32::from_le_bytes(copy.as_slice()[8..12].try_into().unwrap());
            assert_eq!(sender, 0, "slot 1 must hold shard 0's duplicated frame");
        }
    }
}
