//! Bounded per-shard replay logs: the hub's memory of what it already
//! delivered, so a restarted worker can be fast-forwarded.
//!
//! The hub keeps one [`ReplayLog`] per destination shard. Every data
//! frame relayed to that shard and every barrier acknowledgement
//! broadcast to it is appended, tagged with the fabric round it belongs
//! to, in the exact order it entered the shard's writer queue — which is
//! the order the client observed it, because the writer drains the queue
//! FIFO. Replaying a suffix of the log over a fresh connection therefore
//! reproduces the byte stream the previous connection would have carried
//! from that round on.
//!
//! The log is bounded to a sliding window of rounds — two checkpoint
//! intervals under a supervisor, so both checkpoints a worker keeps stay
//! replayable: once the fabric's barrier commits round `r`, entries for
//! rounds below `r + 1 - window` are evicted. A relaunched worker asking
//! to resume inside the evicted region is refused with a typed handshake
//! error naming the floor, and the refusal ends the run.

use bytes::Bytes;
use std::collections::VecDeque;

/// One destination shard's bounded, round-tagged delivery log.
#[derive(Debug)]
pub(crate) struct ReplayLog {
    /// How many committed rounds of history to retain.
    window: u64,
    /// `(round, wire bytes)` in original enqueue order; rounds are
    /// non-decreasing.
    entries: VecDeque<(u64, Bytes)>,
    /// Smallest round whose entries are still complete in the log. A
    /// resume below this floor cannot be honored.
    floor: u64,
    /// Payload bytes currently retained (for observability/debugging).
    bytes: usize,
}

/// Outcome of a resume request against one shard's log.
#[derive(Debug)]
pub(crate) enum Snapshot {
    /// The entries to replay (possibly empty) and the number of
    /// distinct rounds they span.
    Entries { frames: Vec<Bytes>, rounds: u64 },
    /// The requested round fell below the retention floor; the caller
    /// reports the floor in its refusal.
    Evicted {
        /// Oldest round the log can still replay.
        floor: u64,
    },
}

impl ReplayLog {
    /// An empty log retaining `window` committed rounds of history.
    /// `window == 0` is clamped to 1: the in-flight round must always
    /// be replayable or no relaunched worker could ever rejoin.
    pub(crate) fn new(window: u64) -> Self {
        ReplayLog {
            window: window.max(1),
            entries: VecDeque::new(),
            floor: 0,
            bytes: 0,
        }
    }

    /// Appends one delivered wire frame (data or barrier ack) belonging
    /// to `round`. Rounds must be appended in non-decreasing order —
    /// guaranteed by the relay lock serializing enqueues per
    /// destination.
    pub(crate) fn record(&mut self, round: u64, frame: Bytes) {
        debug_assert!(
            self.entries.back().is_none_or(|(r, _)| *r <= round),
            "replay log rounds must be non-decreasing"
        );
        self.bytes += frame.len();
        self.entries.push_back((round, frame));
    }

    /// Drops entries that fell out of the window after the fabric
    /// committed every round below `next_round`.
    pub(crate) fn evict_committed(&mut self, next_round: u64) {
        let keep_from = next_round.saturating_sub(self.window);
        if keep_from <= self.floor {
            return;
        }
        self.floor = keep_from;
        while let Some((round, _)) = self.entries.front() {
            if *round >= keep_from {
                break;
            }
            self.bytes -= self.entries[0].1.len();
            self.entries.pop_front();
        }
    }

    /// The replay stream for a client resuming at `resume_round`: every
    /// retained entry with `round >= resume_round`, in original order.
    pub(crate) fn snapshot_from(&self, resume_round: u64) -> Snapshot {
        if resume_round < self.floor {
            return Snapshot::Evicted { floor: self.floor };
        }
        let mut frames = Vec::new();
        let mut rounds = 0;
        let mut last: Option<u64> = None;
        for (round, frame) in &self.entries {
            if *round < resume_round {
                continue;
            }
            if last != Some(*round) {
                rounds += 1;
                last = Some(*round);
            }
            frames.push(frame.clone());
        }
        Snapshot::Entries { frames, rounds }
    }

    /// Oldest round still replayable.
    #[cfg(test)]
    pub(crate) fn floor(&self) -> u64 {
        self.floor
    }

    /// Retained payload bytes.
    #[cfg(test)]
    pub(crate) fn retained_bytes(&self) -> usize {
        self.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(tag: u8) -> Bytes {
        Bytes::from(vec![tag; 4])
    }

    fn must_entries(snap: Snapshot) -> (Vec<Bytes>, u64) {
        match snap {
            Snapshot::Entries { frames, rounds } => (frames, rounds),
            Snapshot::Evicted { floor } => panic!("unexpected eviction, floor {floor}"),
        }
    }

    #[test]
    fn snapshot_preserves_order_and_counts_rounds() {
        let mut log = ReplayLog::new(8);
        log.record(0, frame(1));
        log.record(0, frame(2));
        log.record(1, frame(3));
        log.record(2, frame(4));
        let (frames, rounds) = must_entries(log.snapshot_from(0));
        assert_eq!(frames, vec![frame(1), frame(2), frame(3), frame(4)]);
        assert_eq!(rounds, 3);
        let (frames, rounds) = must_entries(log.snapshot_from(1));
        assert_eq!(frames, vec![frame(3), frame(4)]);
        assert_eq!(rounds, 2);
        let (frames, rounds) = must_entries(log.snapshot_from(5));
        assert!(frames.is_empty());
        assert_eq!(rounds, 0);
    }

    #[test]
    fn eviction_slides_the_window_and_frees_bytes() {
        let mut log = ReplayLog::new(2);
        for round in 0..5u64 {
            log.record(round, frame(round as u8));
        }
        assert_eq!(log.retained_bytes(), 20);
        // Rounds 0..5 committed; keep the last 2 (rounds 3 and 4).
        log.evict_committed(5);
        assert_eq!(log.floor(), 3);
        assert_eq!(log.retained_bytes(), 8);
        let (frames, rounds) = must_entries(log.snapshot_from(3));
        assert_eq!(frames, vec![frame(3), frame(4)]);
        assert_eq!(rounds, 2);
        match log.snapshot_from(2) {
            Snapshot::Evicted { floor } => assert_eq!(floor, 3),
            Snapshot::Entries { .. } => panic!("round 2 should be evicted"),
        }
    }

    #[test]
    fn eviction_never_moves_the_floor_backwards() {
        let mut log = ReplayLog::new(4);
        for round in 0..10u64 {
            log.record(round, frame(round as u8));
        }
        log.evict_committed(10);
        assert_eq!(log.floor(), 6);
        log.evict_committed(3); // stale, must be a no-op
        assert_eq!(log.floor(), 6);
    }

    /// The exact eviction-boundary edges a resume can land on: at the
    /// retained floor (full replay), one below it (typed refusal, never
    /// a silent partial replay), and at `floor + window` (past every
    /// retained entry — a valid *empty* resume, not an eviction).
    #[test]
    fn resume_boundaries_pin_the_off_by_one_edges() {
        let window = 3;
        let mut log = ReplayLog::new(window);
        for round in 0..10u64 {
            log.record(round, frame(round as u8));
        }
        log.evict_committed(10);
        let floor = log.floor();
        assert_eq!(floor, 10 - window, "floor = next_round - window");
        let (frames, rounds) = must_entries(log.snapshot_from(floor));
        assert_eq!(frames, vec![frame(7), frame(8), frame(9)]);
        assert_eq!(rounds, window, "the floor resume replays the whole window");
        match log.snapshot_from(floor - 1) {
            Snapshot::Evicted { floor: named } => assert_eq!(named, floor),
            Snapshot::Entries { .. } => panic!("floor - 1 must be refused, not partially served"),
        }
        let (frames, rounds) = must_entries(log.snapshot_from(floor + window));
        assert!(frames.is_empty(), "past the newest entry nothing replays");
        assert_eq!(rounds, 0);
    }

    #[test]
    fn zero_window_is_clamped_to_one() {
        let mut log = ReplayLog::new(0);
        log.record(0, frame(9));
        log.evict_committed(1);
        let (frames, _) = must_entries(log.snapshot_from(0));
        assert_eq!(frames.len(), 1, "the in-flight round must survive");
    }
}
