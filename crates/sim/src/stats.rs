//! Round- and run-level accounting of communication.

use crate::wire::{put_u64, WireReader};

/// Per-edge per-round byte budget, the defining constraint of CONGEST.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CongestLimit {
    /// No limit — the LOCAL model.
    #[default]
    Unlimited,
    /// Hard cap in bytes per directed edge per round; exceeding it is a
    /// [`crate::SimError::CongestViolation`].
    PerEdgeBytes(usize),
}

impl CongestLimit {
    /// The conventional CONGEST budget used across this workspace:
    /// `O(1)` words of `O(log n)` bits — concretely two 8-byte words.
    pub const STANDARD_WORDS: CongestLimit = CongestLimit::PerEdgeBytes(16);
}

/// Work counters from the most recent round's compute and delivery
/// (place) phases, summed over all shards by
/// [`crate::Simulator::delivery_work`].
///
/// These measure the *mechanical* cost of a round, not the protocol's
/// communication (that is [`RoundStats`]): with the sender-side routing
/// index, `refs_scanned` is bounded by `messages + copies` at any shard
/// count — each unicast or multicast target is one ref, each broadcast
/// at most `min(degree, shards)` segment refs — where a per-shard
/// rescan of every sender's messages would cost
/// `O(shards × messages)`. The engine benches report these so the
/// claim is visible in checked-in artifacts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DeliveryWork {
    /// Nodes the compute phase stepped this round. Every node runs
    /// `start`, and every node runs each round of a protocol that is not
    /// [`crate::Protocol::MESSAGE_DRIVEN`]; a message-driven protocol
    /// steps only the nodes that received a message.
    pub nodes_stepped: usize,
    /// Route references examined by receiving shards during the count
    /// pass (the per-message "header work").
    pub refs_scanned: usize,
    /// Message copies deposited into inboxes (one per recipient reached).
    pub copies_delivered: usize,
    /// Payloads copied into receiving shards' slabs this round — one per
    /// unique `(sender, message)` payload per destination shard, the only
    /// place delivery moves payload bytes. With slab-backed inboxes this
    /// tracks `refs_scanned` (per *message*), not `copies_delivered` (per
    /// *copy*): a broadcast's payload is copied once per destination
    /// shard and shared by every copy.
    pub payload_registrations: usize,
    /// Bytes of compact inbox-slot storage written by the scatter pass
    /// this round (`copies × size_of::<InboxSlot>()` — the entire
    /// per-copy memory traffic, since payload bytes move per message).
    pub inbox_slot_bytes: usize,
    /// Encoded bucket-frame bytes received this round, summed over
    /// shards — the volume a process-per-shard transport would put on the
    /// wire. Zero under the shared-memory backends; under
    /// [`crate::Engine::Framed`] it is the measured frame overhead
    /// (headers + ref and payload tables) plus one copy of every routed
    /// payload, reported by the engine benches as `frame_bytes_per_round`.
    pub frame_bytes: usize,
    /// Nanoseconds receiving shards spent validating incoming frames this
    /// round (header parse + the fused checksum/structure walk — the cost
    /// the word-parallel digest attacks), summed over shards. Zero
    /// under the shared-memory backends; reported by the engine benches
    /// as `checksum_ns_per_round`. Wall-clock time, so never compared
    /// across backends for equality — only the structural counters are.
    pub checksum_ns: u64,
    /// Frames deliberately discarded or withheld by a
    /// [`crate::transport::FaultInjectingTransport`] wrapper (cumulative
    /// over the run): drop and delay faults both count here, since both
    /// withhold a frame from the round that expected it. Always zero
    /// outside fault-injection runs — a nonzero value in a production
    /// log means a fault harness is still wired in.
    pub frames_dropped_injected: usize,
    /// Nanoseconds shards spent blocked inside
    /// [`crate::frame::Transport::collect`] waiting for peer frames
    /// (cumulative over the run). Zero on the loopback backend (frames
    /// are already in shared slots); on the socket backend it is the
    /// measured synchronization + wire latency, reported by
    /// the engine benches as `collect_wait_ns`. Wall-clock time, so
    /// never compared across backends for equality.
    pub collect_wait_ns: u64,
    /// Worker re-admissions on the socket fabric (cumulative over the
    /// run): relaunched worker processes. Zero on the shared-memory
    /// backends and on failure-free socket runs.
    pub workers_restarted: usize,
    /// Rounds the socket hub fast-forwarded to relaunched workers from
    /// its per-destination replay logs (cumulative over the run).
    pub rounds_replayed: usize,
    /// Heartbeats a supervisor judged overdue before intervening
    /// (cumulative over the run). Nonzero only under supervision.
    pub heartbeats_missed: usize,
}

impl DeliveryWork {
    /// Adds another shard's (or run's) counters into this one. Every
    /// field saturates instead of overflowing, so a long soak run pins
    /// at the numeric maximum rather than wrapping into a silently
    /// wrong small number — the same contract as [`RunStats::absorb`]
    /// and [`crate::TransportHealth::absorb`].
    pub fn absorb(&mut self, other: &DeliveryWork) {
        self.nodes_stepped = self.nodes_stepped.saturating_add(other.nodes_stepped);
        self.refs_scanned = self.refs_scanned.saturating_add(other.refs_scanned);
        self.copies_delivered = self.copies_delivered.saturating_add(other.copies_delivered);
        self.payload_registrations = self
            .payload_registrations
            .saturating_add(other.payload_registrations);
        self.inbox_slot_bytes = self.inbox_slot_bytes.saturating_add(other.inbox_slot_bytes);
        self.frame_bytes = self.frame_bytes.saturating_add(other.frame_bytes);
        self.checksum_ns = self.checksum_ns.saturating_add(other.checksum_ns);
        self.frames_dropped_injected = self
            .frames_dropped_injected
            .saturating_add(other.frames_dropped_injected);
        self.collect_wait_ns = self.collect_wait_ns.saturating_add(other.collect_wait_ns);
        self.workers_restarted = self
            .workers_restarted
            .saturating_add(other.workers_restarted);
        self.rounds_replayed = self.rounds_replayed.saturating_add(other.rounds_replayed);
        self.heartbeats_missed = self
            .heartbeats_missed
            .saturating_add(other.heartbeats_missed);
    }
}

/// Communication accounting for a single round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RoundStats {
    /// Round index (0-based; round 0 is the `start` round).
    pub round: usize,
    /// Messages delivered this round.
    pub messages: usize,
    /// Total payload bytes delivered this round.
    pub bytes: usize,
    /// Largest payload in bytes crossing any single directed edge this round.
    pub max_edge_bytes: usize,
}

/// Cumulative accounting for a whole run.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RunStats {
    /// Number of rounds executed (including the `start` round).
    pub rounds: usize,
    /// Total messages delivered.
    pub total_messages: usize,
    /// Total payload bytes delivered.
    pub total_bytes: usize,
    /// Max over rounds of [`RoundStats::max_edge_bytes`].
    pub max_edge_bytes: usize,
    /// Per-round breakdown.
    pub per_round: Vec<RoundStats>,
}

impl RunStats {
    /// Folds one round's stats into the totals.
    ///
    /// Message and byte totals saturate instead of overflowing: a
    /// multi-billion-round accumulation pins at `usize::MAX` rather than
    /// wrapping into a silently wrong small number.
    pub fn absorb(&mut self, round: RoundStats) {
        self.rounds = self.rounds.saturating_add(1);
        self.total_messages = self.total_messages.saturating_add(round.messages);
        self.total_bytes = self.total_bytes.saturating_add(round.bytes);
        self.max_edge_bytes = self.max_edge_bytes.max(round.max_edge_bytes);
        self.per_round.push(round);
    }

    /// Merges another run's stats (e.g. a later phase) into this one.
    /// Totals saturate, as in [`RunStats::absorb`].
    pub fn merge(&mut self, other: &RunStats) {
        self.rounds = self.rounds.saturating_add(other.rounds);
        self.total_messages = self.total_messages.saturating_add(other.total_messages);
        self.total_bytes = self.total_bytes.saturating_add(other.total_bytes);
        self.max_edge_bytes = self.max_edge_bytes.max(other.max_edge_bytes);
        self.per_round.extend(other.per_round.iter().copied());
    }

    /// Combines the stats of another shard of the same run into this one.
    ///
    /// Shards run the same rounds side by side, so unlike
    /// [`RunStats::merge`] the round count and the largest per-edge load
    /// are maxima, while messages and bytes add up. `per_round` entries
    /// combine index by index the same way. Totals saturate, as in
    /// [`RunStats::absorb`].
    pub fn combine_shard(&mut self, other: &RunStats) {
        self.rounds = self.rounds.max(other.rounds);
        self.total_messages = self.total_messages.saturating_add(other.total_messages);
        self.total_bytes = self.total_bytes.saturating_add(other.total_bytes);
        self.max_edge_bytes = self.max_edge_bytes.max(other.max_edge_bytes);
        for (i, theirs) in other.per_round.iter().enumerate() {
            match self.per_round.get_mut(i) {
                Some(ours) => {
                    ours.messages = ours.messages.saturating_add(theirs.messages);
                    ours.bytes = ours.bytes.saturating_add(theirs.bytes);
                    ours.max_edge_bytes = ours.max_edge_bytes.max(theirs.max_edge_bytes);
                }
                None => self.per_round.push(*theirs),
            }
        }
    }

    /// Appends the binary form checkpoint payloads and `Stats` control
    /// frames carry: the four totals, the entry count, then four fields
    /// per round, each a little-endian `u64`.
    pub(crate) fn encode(&self, out: &mut Vec<u8>) {
        for v in [
            self.rounds,
            self.total_messages,
            self.total_bytes,
            self.max_edge_bytes,
            self.per_round.len(),
        ] {
            put_u64(out, v as u64);
        }
        for r in &self.per_round {
            for v in [r.round, r.messages, r.bytes, r.max_edge_bytes] {
                put_u64(out, v as u64);
            }
        }
    }

    /// The [`RunStats::encode`] inverse. `None` on a malformed section,
    /// including an entry count the remaining bytes cannot hold, so a
    /// corrupt count never triggers a huge reservation.
    pub(crate) fn decode(r: &mut WireReader<'_>) -> Option<RunStats> {
        let mut stats = RunStats {
            rounds: r.usize()?,
            total_messages: r.usize()?,
            total_bytes: r.usize()?,
            max_edge_bytes: r.usize()?,
            per_round: Vec::new(),
        };
        let entries = r.usize()?;
        // Each entry consumes 32 bytes.
        if entries > r.remaining() / 32 {
            return None;
        }
        stats.per_round.reserve(entries);
        for _ in 0..entries {
            stats.per_round.push(RoundStats {
                round: r.usize()?,
                messages: r.usize()?,
                bytes: r.usize()?,
                max_edge_bytes: r.usize()?,
            });
        }
        Some(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_accumulates() {
        let mut run = RunStats::default();
        run.absorb(RoundStats {
            round: 0,
            messages: 3,
            bytes: 30,
            max_edge_bytes: 10,
        });
        run.absorb(RoundStats {
            round: 1,
            messages: 1,
            bytes: 4,
            max_edge_bytes: 4,
        });
        assert_eq!(run.rounds, 2);
        assert_eq!(run.total_messages, 4);
        assert_eq!(run.total_bytes, 34);
        assert_eq!(run.max_edge_bytes, 10);
        assert_eq!(run.per_round.len(), 2);
    }

    #[test]
    fn merge_combines_runs() {
        let mut a = RunStats::default();
        a.absorb(RoundStats {
            round: 0,
            messages: 1,
            bytes: 8,
            max_edge_bytes: 8,
        });
        let mut b = RunStats::default();
        b.absorb(RoundStats {
            round: 0,
            messages: 2,
            bytes: 40,
            max_edge_bytes: 20,
        });
        a.merge(&b);
        assert_eq!(a.rounds, 2);
        assert_eq!(a.total_bytes, 48);
        assert_eq!(a.max_edge_bytes, 20);
    }

    #[test]
    fn combine_shard_takes_the_longest_run_and_sums_traffic() {
        let round = |round, messages, max_edge_bytes| RoundStats {
            round,
            messages,
            bytes: 8 * messages,
            max_edge_bytes,
        };
        let mut a = RunStats::default();
        a.absorb(round(0, 3, 8));
        a.absorb(round(1, 1, 8));
        let mut b = RunStats::default();
        b.absorb(round(0, 2, 16));
        b.absorb(round(1, 5, 8));
        b.absorb(round(2, 4, 8));
        let mut combined = RunStats::default();
        combined.combine_shard(&a);
        combined.combine_shard(&b);
        assert_eq!(combined.rounds, 3);
        assert_eq!(combined.total_messages, 15);
        assert_eq!(combined.total_bytes, 120);
        assert_eq!(combined.max_edge_bytes, 16);
        assert_eq!(
            combined.per_round,
            vec![round(0, 5, 16), round(1, 6, 8), round(2, 4, 8)]
        );
        // `merge` is the other combination: one run after another.
        a.merge(&b);
        assert_eq!(a.rounds, 5);
    }

    #[test]
    fn absorb_and_merge_saturate_instead_of_overflowing() {
        let near_max = RoundStats {
            round: 0,
            messages: usize::MAX - 1,
            bytes: usize::MAX - 1,
            max_edge_bytes: 1,
        };
        let mut run = RunStats::default();
        run.absorb(near_max);
        run.absorb(near_max);
        assert_eq!(run.total_messages, usize::MAX);
        assert_eq!(run.total_bytes, usize::MAX);
        let mut other = RunStats::default();
        other.absorb(near_max);
        run.merge(&other);
        assert_eq!(run.total_messages, usize::MAX);
        assert_eq!(run.rounds, 3);
    }

    #[test]
    fn delivery_work_absorb_saturates_every_field() {
        let near_max = DeliveryWork {
            nodes_stepped: usize::MAX - 1,
            refs_scanned: usize::MAX - 1,
            copies_delivered: usize::MAX - 1,
            payload_registrations: usize::MAX - 1,
            inbox_slot_bytes: usize::MAX - 1,
            frame_bytes: usize::MAX - 1,
            checksum_ns: u64::MAX - 1,
            frames_dropped_injected: usize::MAX - 1,
            collect_wait_ns: u64::MAX - 1,
            workers_restarted: usize::MAX - 1,
            rounds_replayed: usize::MAX - 1,
            heartbeats_missed: usize::MAX - 1,
        };
        let mut sum = near_max;
        sum.absorb(&near_max);
        assert_eq!(sum.nodes_stepped, usize::MAX);
        assert_eq!(sum.refs_scanned, usize::MAX);
        assert_eq!(sum.copies_delivered, usize::MAX);
        assert_eq!(sum.payload_registrations, usize::MAX);
        assert_eq!(sum.inbox_slot_bytes, usize::MAX);
        assert_eq!(sum.frame_bytes, usize::MAX);
        assert_eq!(sum.checksum_ns, u64::MAX);
        assert_eq!(sum.frames_dropped_injected, usize::MAX);
        assert_eq!(sum.collect_wait_ns, u64::MAX);
        assert_eq!(sum.workers_restarted, usize::MAX);
        assert_eq!(sum.rounds_replayed, usize::MAX);
        assert_eq!(sum.heartbeats_missed, usize::MAX);
        let mut small = DeliveryWork::default();
        small.absorb(&DeliveryWork {
            refs_scanned: 2,
            copies_delivered: 3,
            ..DeliveryWork::default()
        });
        assert_eq!(small.refs_scanned, 2);
        assert_eq!(small.copies_delivered, 3);
    }

    #[test]
    fn default_limit_is_unlimited() {
        assert_eq!(CongestLimit::default(), CongestLimit::Unlimited);
        assert_eq!(CongestLimit::STANDARD_WORDS, CongestLimit::PerEdgeBytes(16));
    }
}
