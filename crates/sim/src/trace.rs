//! Flight-recorder tracing.
//!
//! Two layers, each usable alone:
//!
//! - [`TraceRing`] — a preallocated per-shard ring buffer of
//!   [`RoundTrace`] records: per-phase wall-clock nanos
//!   (compute / account / ship / place / barrier wait), frame bytes,
//!   checksum nanos, and the restart generation, for the last *K* rounds.
//!   Recording is zero-alloc in steady state — every record is an
//!   in-place overwrite of a preallocated slot — so the engine's
//!   steady-state allocation guarantee holds with tracing enabled, and
//!   tracing never touches delivery logic, so results stay bit-identical
//!   ([`crate::Determinism::Verify`] passes traced on every backend).
//! - [`FlightRecorder`] — the postmortem dump: the last-K rounds of
//!   every reachable ring plus a timeline of supervisor annotations
//!   ([`TraceEvent`]: restarts with their backoff decision, heartbeat
//!   ages, chaos kills, stall kills, replay counts), serialized as
//!   JSONL.
//!
//! # Switches
//!
//! Tracing is off unless a caller turns it on; nothing reads the
//! environment.
//!
//! - [`crate::Simulator::with_trace`]`(window)` — per-round tracing for
//!   an in-process engine's shards, `window` rounds per ring.
//! - [`crate::transport::WorkerConfig::trace`] — a socket worker traces
//!   its shard into a ring of 64 rounds and streams each record to the
//!   hub, which keeps the same window per shard.
//! - [`crate::transport::launcher::SuperviseOptions::trace_out`] — where
//!   the supervisor writes the flight-recorder JSONL dump. The
//!   `netdecomp` binary's `--trace-out FILE` sets it and hands every
//!   worker it spawns the trace switch.
//!
//! # JSONL schema
//!
//! One JSON object per line, discriminated by `"type"`:
//!
//! ```text
//! {"type":"round","shard":1,"round":7,"compute_ns":1200,"account_ns":310,
//!  "ship_ns":450,"place_ns":980,"barrier_wait_ns":150,"frame_bytes":4096,
//!  "checksum_ns":210,"restarts_seen":0}
//! {"type":"event","at_ms":1532,"shard":1,"round":7,"kind":"restart",
//!  "detail":"attempt=1 backoff_ms=61 beat_age_ms=118 rounds_replayed=0"}
//! ```
//!
//! `shard` is `null` on events not attributable to one shard (run
//! completion or a fatal end). The root crate's `launcher_smoke` tests
//! pin both key lists in this order.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// Ring capacity, in rounds, of a traced socket worker and of the hub's
/// per-shard copy of its stream.
pub(crate) const TRACE_WINDOW: usize = 64;

/// One round's attribution record: where the wall-clock went, phase by
/// phase, plus the frame-seam volume counters for the same round.
///
/// All times are wall-clock nanoseconds measured around the phase
/// calls; like [`crate::DeliveryWork::checksum_ns`] they are never compared
/// across backends for equality — only recorded. All accumulation
/// saturates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RoundTrace {
    /// The round this record describes.
    pub round: u64,
    /// Nanoseconds in the compute phase (protocol `start`/`round`).
    pub compute_ns: u64,
    /// Nanoseconds in the account phase (validate + charge + route).
    pub account_ns: u64,
    /// Nanoseconds in the ship phase (encode + hand to the transport);
    /// zero under shared-memory backends.
    pub ship_ns: u64,
    /// Nanoseconds in the place phase (collect + decode + scatter).
    pub place_ns: u64,
    /// Nanoseconds blocked at phase barriers (zero for inline engines,
    /// which have no barriers).
    pub barrier_wait_ns: u64,
    /// Encoded frame bytes this shard received this round (zero under
    /// shared-memory backends).
    pub frame_bytes: u64,
    /// Nanoseconds validating incoming frames this round (zero under
    /// shared-memory backends).
    pub checksum_ns: u64,
    /// Restart generation of the recording process: 0 on a first
    /// launch, the supervisor's attempt count on a relaunched worker.
    pub restarts_seen: u64,
}

impl RoundTrace {
    /// Total attributed phase time (saturating).
    #[must_use]
    pub fn busy_ns(&self) -> u64 {
        self.compute_ns
            .saturating_add(self.account_ns)
            .saturating_add(self.ship_ns)
            .saturating_add(self.place_ns)
            .saturating_add(self.barrier_wait_ns)
    }

    /// Appends this record as one `{"type":"round",...}` JSONL line.
    fn write_json(&self, shard: usize, out: &mut String) {
        use std::fmt::Write as _;
        let _ = writeln!(
            out,
            "{{\"type\":\"round\",\"shard\":{shard},\"round\":{},\
             \"compute_ns\":{},\"account_ns\":{},\"ship_ns\":{},\
             \"place_ns\":{},\"barrier_wait_ns\":{},\"frame_bytes\":{},\
             \"checksum_ns\":{},\"restarts_seen\":{}}}",
            self.round,
            self.compute_ns,
            self.account_ns,
            self.ship_ns,
            self.place_ns,
            self.barrier_wait_ns,
            self.frame_bytes,
            self.checksum_ns,
            self.restarts_seen,
        );
    }
}

/// A preallocated ring buffer holding the last *K* [`RoundTrace`]
/// records of one shard.
///
/// Construction decides everything: [`TraceRing::new`] with a nonzero
/// window preallocates the whole ring up front; a zero window builds a
/// disabled ring whose recording methods are no-ops. Either way, steady-state
/// recording never allocates: a committed round overwrites the oldest
/// slot in place.
#[derive(Debug, Clone, Default)]
pub struct TraceRing {
    /// The ring slots (capacity fixed at construction; empty +
    /// zero-capacity when tracing is disabled).
    records: Vec<RoundTrace>,
    /// Next slot to overwrite once the ring is full.
    head: usize,
    /// The round currently being accumulated, committed by
    /// [`TraceRing::commit`].
    pending: RoundTrace,
}

impl TraceRing {
    /// A ring holding `window` rounds; `window == 0` builds a disabled
    /// (never-allocating, never-recording) ring.
    #[must_use]
    pub fn new(window: usize) -> TraceRing {
        TraceRing {
            records: Vec::with_capacity(window),
            head: 0,
            pending: RoundTrace::default(),
        }
    }

    /// Whether this ring records anything.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.records.capacity() > 0
    }

    /// Committed records held (at most the window).
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` when no round has been committed yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Starts timing a phase: `Some(now)` when enabled, `None` (no
    /// clock read at all) when disabled. Pair with the `note_*`
    /// methods.
    #[must_use]
    pub fn begin(&self) -> Option<Instant> {
        self.enabled().then(Instant::now)
    }

    fn elapsed_ns(since: Option<Instant>) -> u64 {
        since.map_or(0, |t| {
            u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
        })
    }

    /// Adds the time since `since` to the pending round's compute phase.
    pub fn note_compute(&mut self, since: Option<Instant>) {
        self.pending.compute_ns = self
            .pending
            .compute_ns
            .saturating_add(Self::elapsed_ns(since));
    }

    /// Adds the time since `since` to the pending round's account phase.
    pub fn note_account(&mut self, since: Option<Instant>) {
        self.pending.account_ns = self
            .pending
            .account_ns
            .saturating_add(Self::elapsed_ns(since));
    }

    /// Adds the time since `since` to the pending round's ship phase.
    pub fn note_ship(&mut self, since: Option<Instant>) {
        self.pending.ship_ns = self.pending.ship_ns.saturating_add(Self::elapsed_ns(since));
    }

    /// Adds the time since `since` to the pending round's place phase.
    pub fn note_place(&mut self, since: Option<Instant>) {
        self.pending.place_ns = self
            .pending
            .place_ns
            .saturating_add(Self::elapsed_ns(since));
    }

    /// Adds already-measured nanoseconds to the pending round's barrier
    /// wait (one barrier wait covers every shard a worker thread owns,
    /// so the caller measures once and attributes to each).
    pub fn note_barrier_ns(&mut self, ns: u64) {
        self.pending.barrier_wait_ns = self.pending.barrier_wait_ns.saturating_add(ns);
    }

    /// Commits the pending round into the ring (overwriting the oldest
    /// record once full — never allocating) and resets the pending
    /// accumulator. `frame_bytes` / `checksum_ns` are the round's frame
    /// seam counters; `restarts_seen` the recording process's restart
    /// generation. No-op when disabled.
    pub fn commit(&mut self, round: u64, frame_bytes: u64, checksum_ns: u64, restarts_seen: u64) {
        if !self.enabled() {
            return;
        }
        self.pending.round = round;
        self.pending.frame_bytes = frame_bytes;
        self.pending.checksum_ns = checksum_ns;
        self.pending.restarts_seen = restarts_seen;
        if self.records.len() < self.records.capacity() {
            self.records.push(self.pending);
        } else {
            self.records[self.head] = self.pending;
            self.head = (self.head + 1) % self.records.len();
        }
        self.pending = RoundTrace::default();
    }

    /// The most recently committed record, if any.
    #[must_use]
    pub fn last(&self) -> Option<&RoundTrace> {
        if self.records.is_empty() {
            return None;
        }
        let newest = if self.records.len() < self.records.capacity() || self.head == 0 {
            self.records.len() - 1
        } else {
            self.head - 1
        };
        self.records.get(newest)
    }

    /// The committed records in chronological (oldest-first) order.
    pub fn iter(&self) -> impl Iterator<Item = &RoundTrace> {
        let (tail, head) = if self.records.len() < self.records.capacity() {
            (&self.records[..], &[][..])
        } else {
            let (head, tail) = self.records.split_at(self.head);
            (tail, head)
        };
        tail.iter().chain(head.iter())
    }

    /// An owned chronological snapshot (allocates — a cold-path call
    /// for dumps, never made from the round loop).
    #[must_use]
    pub fn snapshot(&self) -> Vec<RoundTrace> {
        self.iter().copied().collect()
    }
}

/// One supervisor (or driver) annotation on the flight-recorder
/// timeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Milliseconds since the recorder was created.
    pub at_ms: u64,
    /// The shard the event is about, if attributable to one.
    pub shard: Option<usize>,
    /// The round the fabric (or the shard) had reached.
    pub round: u64,
    /// Event class: `restart`, `lost`, `stall_kill`, `chaos_kill`,
    /// `halt`, `fatal`, ...
    pub kind: &'static str,
    /// Free-form detail (backoff decision, heartbeat age, replay
    /// counts, error rendering).
    pub detail: String,
}

/// The postmortem collector: per-shard ring snapshots plus a timeline
/// of [`TraceEvent`] annotations, dumped as JSONL.
///
/// Cold-path by design — it allocates freely; nothing here is called
/// from the round loop. A dump is ordered: every shard's round records
/// (shard-major, chronological), then events in insertion order.
#[derive(Debug)]
pub struct FlightRecorder {
    epoch: Instant,
    shards: BTreeMap<usize, Vec<RoundTrace>>,
    events: Vec<TraceEvent>,
}

impl Default for FlightRecorder {
    fn default() -> FlightRecorder {
        FlightRecorder::new()
    }
}

impl FlightRecorder {
    /// An empty recorder; event timestamps are measured from now.
    #[must_use]
    pub fn new() -> FlightRecorder {
        FlightRecorder {
            epoch: Instant::now(),
            shards: BTreeMap::new(),
            events: Vec::new(),
        }
    }

    /// Replaces the recorded ring for `shard` with `records`
    /// (chronological). Replacement (not append) keeps re-streamed
    /// rounds from a restarted worker from duplicating unboundedly —
    /// the newest snapshot per shard is the postmortem-relevant one.
    pub fn absorb_ring(&mut self, shard: usize, records: Vec<RoundTrace>) {
        if records.is_empty() {
            return;
        }
        self.shards.insert(shard, records);
    }

    /// Appends a timeline annotation, timestamped now.
    pub fn event(&mut self, shard: Option<usize>, round: u64, kind: &'static str, detail: String) {
        self.events.push(TraceEvent {
            at_ms: u64::try_from(self.epoch.elapsed().as_millis()).unwrap_or(u64::MAX),
            shard,
            round,
            kind,
            detail,
        });
    }

    /// The annotations recorded so far, in insertion order.
    #[must_use]
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Round records recorded for `shard`, chronological.
    #[must_use]
    pub fn shard_rounds(&self, shard: usize) -> &[RoundTrace] {
        self.shards.get(&shard).map_or(&[], Vec::as_slice)
    }

    /// Renders the whole dump as a JSONL string (see the module docs
    /// for the schema).
    #[must_use]
    pub fn render_jsonl(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (&shard, records) in &self.shards {
            for record in records {
                record.write_json(shard, &mut out);
            }
        }
        for event in &self.events {
            let _ = write!(
                out,
                "{{\"type\":\"event\",\"at_ms\":{},\"shard\":",
                event.at_ms
            );
            match event.shard {
                Some(shard) => {
                    let _ = write!(out, "{shard}");
                }
                None => out.push_str("null"),
            }
            let _ = write!(out, ",\"round\":{},\"kind\":", event.round);
            write_json_string(&mut out, event.kind);
            out.push_str(",\"detail\":");
            write_json_string(&mut out, &event.detail);
            out.push_str("}\n");
        }
        out
    }

    /// Writes the JSONL dump to `out`.
    ///
    /// # Errors
    ///
    /// Propagates the writer's I/O errors.
    pub fn write_jsonl(&self, out: &mut impl Write) -> io::Result<()> {
        out.write_all(self.render_jsonl().as_bytes())
    }

    /// Writes the JSONL dump to a file at `path` (created or
    /// truncated).
    ///
    /// # Errors
    ///
    /// Propagates file creation and write errors.
    pub fn dump_to(&self, path: &Path) -> io::Result<()> {
        let mut file = std::fs::File::create(path)?;
        self.write_jsonl(&mut file)?;
        file.flush()
    }
}

/// Appends `s` as a JSON string literal (quoted, minimally escaped).
fn write_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                use std::fmt::Write as _;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_disabled_ring_records_nothing_and_holds_no_storage() {
        let mut ring = TraceRing::new(0);
        assert!(!ring.enabled());
        assert!(ring.begin().is_none());
        ring.note_compute(None);
        ring.commit(3, 10, 20, 0);
        assert!(ring.is_empty());
        assert_eq!(ring.records.capacity(), 0);
    }

    #[test]
    fn the_ring_wraps_keeping_the_last_k_rounds_chronological() {
        let mut ring = TraceRing::new(4);
        for round in 0..10u64 {
            ring.commit(round, round * 100, 0, 0);
        }
        let rounds: Vec<u64> = ring.iter().map(|r| r.round).collect();
        assert_eq!(rounds, vec![6, 7, 8, 9]);
        assert_eq!(ring.last().unwrap().round, 9);
        assert_eq!(ring.last().unwrap().frame_bytes, 900);
        // The ring never grew past its preallocated window.
        assert_eq!(ring.records.capacity(), 4);
    }

    #[test]
    fn phase_notes_accumulate_into_the_pending_round() {
        let mut ring = TraceRing::new(2);
        let t = ring.begin();
        assert!(t.is_some());
        ring.note_compute(t);
        ring.note_barrier_ns(500);
        ring.note_barrier_ns(250);
        ring.commit(7, 0, 0, 2);
        let last = *ring.last().unwrap();
        assert_eq!(last.round, 7);
        assert_eq!(last.barrier_wait_ns, 750);
        assert_eq!(last.restarts_seen, 2);
        assert!(last.busy_ns() >= 750);
        // The pending accumulator was reset by the commit.
        ring.commit(8, 0, 0, 0);
        assert_eq!(ring.last().unwrap().barrier_wait_ns, 0);
    }

    #[test]
    fn the_recorder_dumps_rounds_and_events_as_jsonl() {
        let mut recorder = FlightRecorder::new();
        let mut ring = TraceRing::new(3);
        ring.commit(5, 128, 77, 1);
        recorder.absorb_ring(2, ring.snapshot());
        recorder.event(Some(2), 5, "restart", "attempt=1 \"quoted\"".into());
        recorder.event(None, 0, "halt", "ok".into());
        let dump = recorder.render_jsonl();
        let lines: Vec<&str> = dump.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"type\":\"round\""), "{dump}");
        assert!(lines[0].contains("\"shard\":2"));
        assert!(lines[0].contains("\"round\":5"));
        assert!(lines[0].contains("\"frame_bytes\":128"));
        assert!(lines[0].contains("\"restarts_seen\":1"));
        assert!(lines[1].contains("\"kind\":\"restart\""));
        assert!(lines[1].contains("\\\"quoted\\\""));
        assert!(lines[2].contains("\"shard\":null"));
        // Every shard's records are reachable by index too.
        assert_eq!(recorder.shard_rounds(2).len(), 1);
        assert!(recorder.shard_rounds(0).is_empty());
    }

    #[test]
    fn json_strings_escape_control_characters() {
        let mut out = String::new();
        write_json_string(&mut out, "a\"b\\c\nd\u{1}");
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\u0001\"");
    }
}
