//! Transports that cross process boundaries, and the harnesses that
//! abuse them.
//!
//! The in-memory [`crate::frame::LoopbackTransport`] proves the framed
//! engine against the simplest possible delivery fabric and prices the
//! frame seam itself. This module provides the rest of the story:
//!
//! - [`SocketTransport`] — data and control frames over Unix-domain (or
//!   TCP) byte streams through a hub process, the same
//!   [`crate::frame::Transport`] seam loopback implements, bit-identical
//!   results included — and real process semantics.
//! - [`launcher`] — one OS process per shard: bind a hub socket, spawn
//!   workers, relaunch the ones that crash or wedge, and reap them with
//!   a deadline, so a worker that cannot be healed is a typed
//!   [`crate::SimError::Transport`] at the launcher, never a zombie
//!   pipeline.
//! - [`run_worker`] — the single-shard driver a worker process runs:
//!   loads the graph, runs the engine's own per-shard round kernel
//!   (compute → account → ship, then place) against a [`HubClient`],
//!   and reports errors through `Error` control frames before exiting.
//! - [`FaultInjectingTransport`] — a deterministic, seeded wrapper over
//!   any backend that drops, corrupts, delays, duplicates, or reorders
//!   frames so tests can prove every failure is a typed error.
//!
//! # Timeouts
//!
//! Every blocking point — connect, handshake, per-round collect, hub
//! relay writes, worker reaping — carries a deadline derived from the
//! fabric timeout ([`DEFAULT_FRAME_TIMEOUT`], 5 s, unless a caller sets
//! `launcher::SuperviseOptions::timeout` or uses a `*_with_timeout`
//! constructor). A wedged or dead peer therefore degrades into a typed
//! [`crate::TransportError`] within a small multiple of that window;
//! there is no code path that waits forever.
//!
//! # Failure modes × recovery actions
//!
//! What the self-healing fabric does for each failure, who notices,
//! and what the caller ultimately observes:
//!
//! | Failure | Detected by | Signal | Recovery | Caller sees |
//! |---|---|---|---|---|
//! | Worker process crashes (incl. SIGKILL mid-frame) | Hub reader (EOF / close mid-frame) + supervisor exit reaping | stream close; `wait()` status | Supervisor relaunches (backoff + jitter, ≤ `max_restarts`); worker re-runs deterministically, re-handshakes with `Hello{resume_round}`, hub replays from the `replay` log and treats re-shipped rounds as echoes | Nothing — run completes bit-identically; `workers_restarted`/`rounds_replayed` counters tick |
//! | Worker crashes with checkpointing on ([`CheckpointPlan`] interval > 0, `netdecomp --checkpoint-interval`) | As above | As above | Relaunched worker loads its newest valid checkpoint from the plan's directory (`--checkpoint-dir`) and re-handshakes at the checkpoint round, so recovery re-runs at most one interval plus the in-flight rounds instead of the whole history | Nothing; `checkpoint_restores` ticks and a `checkpoint_load` event lands in the flight record |
//! | Worker wedges (alive, no progress) | Supervisor: global barrier stall + least-committed victim selection; heartbeat age feeds `heartbeats_missed` | `Heartbeat` control frames + barrier round | Supervisor kills the wedged process, then the crash path above applies | Nothing, or a typed timeout if the stall outlives the collect deadline |
//! | Link drops but both ends live | Client read/write error | socket error | Client's one-shot reconnect-with-handshake; hub replays the collect round | Nothing; `frames_retried` ticks |
//! | Reconnect resumes below the replay window | Hub admission | handshake refusal whose detail starts with the evicted-window prefix | Supervisor restarts the *whole* run from round 0 (deterministic ⇒ still bit-identical) — with checkpointing at an interval ≤ the window, a checkpoint resume always lands inside the window first, so this is the fallback, not the only deep-history path | Nothing, or the typed handshake error when unsupervised |
//! | Checkpoint file torn or corrupted (crash mid-write, bit rot) | Worker's checkpoint loader | trailing [`crate::checkpoint`] digest / header validation | File is *skipped, never trusted*: the loader falls back to the previous retained checkpoint, then to a fresh round-0 run | Nothing; a `checkpoint_reject` event with the typed reason lands in the flight record |
//! | Checkpoint is stale (fabric restarted from round 0 behind it) | Hub admission | handshake refusal with the stale-resume prefix | Worker redials as a fresh join from round 0 and discards the restored state; the refusal is per-connection, never fabric-fatal | Nothing |
//! | Destination never drains its hub queue (slow or absent consumer) | Hub relay (256 MiB per destination) | per-destination queued-bytes accounting | None — unbounded buffering would trade a deadlock for an OOM | Typed [`crate::SimError::Transport`] naming the slow/absent destination shard |
//! | Restart budget exhausted | Supervisor | — | None — supervisor calls the hub's `declare_lost` | Typed [`crate::SimError::Transport`] naming the lost shard |
//! | Wrong graph / frame version / shard id | Hub handshake vetting | `Error` control frame | None (config error, retrying cannot help) | Typed [`crate::TransportCause::Handshake`] |
//! | Corrupt or truncated frame | Receiver's decoder | checksum/structure validation | None (content desync is never retried — re-reading the same bytes cannot fix them) | Typed [`crate::SimError::Frame`] |
//! | Peer reports its own failure | Everyone | `Error` control frame relayed hub-wide | None — orderly teardown | The originating shard's typed error |
//!
//! # Checkpoint/restore
//!
//! With a [`CheckpointPlan`] of interval `k` (rounds) and a directory
//! (`netdecomp --checkpoint-interval k --checkpoint-dir DIR`), every
//! worker serializes its shard —
//! protocol state through the [`crate::Snapshot`] seam, the delivered
//! inbox of the checkpoint cut, per-edge CONGEST counters, and
//! accumulated run statistics — into an atomically-renamed, checksummed
//! file every `k` committed rounds (format in [`crate::checkpoint`]).
//! A relaunched worker loads the newest checkpoint that validates,
//! resumes at its round, and re-handshakes with
//! `Hello{resume_round = checkpoint round}`; choosing `k` no larger
//! than the replay window guarantees the hub can always serve the
//! missing suffix, so recovery costs `O(interval)` re-execution instead
//! of `O(run length)`.
//!
//! # Observability
//!
//! The distributed fabric carries its own trace plane (see
//! [`crate::trace`] for the in-process half):
//!
//! - **`Trace` control frames.** When tracing is enabled
//!   ([`WorkerConfig::trace`]; `netdecomp --trace-out` turns it on for
//!   every worker it spawns), each worker commits a [`crate::RoundTrace`]
//!   per round — per-phase compute/account/ship/place nanos, frame
//!   bytes, checksum time, and the restart generation it is running as
//!   ([`WorkerConfig::attempt`]) — and streams it to the hub as a
//!   `Trace` control frame *before* advancing to the next round.
//! - **Hub timeline merge.** The hub keeps the last 64 records per
//!   shard in memory.
//!   Because the records were streamed eagerly, a worker killed with
//!   SIGKILL still leaves its recent history behind on the hub side.
//! - **Supervisor annotations.** The supervisor folds those per-shard
//!   rings into a [`crate::FlightRecorder`] and annotates the timeline
//!   with its own decisions: restart events (attempt number, backoff
//!   with jitter, heartbeat age, replay count), chaos and stall kills,
//!   whole-run restarts, lost shards, deadline breaches, and the final
//!   halt or fatal outcome.
//! - **Dump.** When `launcher::SuperviseOptions::trace_out` names a
//!   path (`netdecomp --trace-out`), the recorder writes everything as
//!   JSONL —
//!   `{"type":"round",...}` lines per traced round and
//!   `{"type":"event",...}` lines per supervisor decision — both on
//!   clean completion and on any fatal error, so the flight recording
//!   survives exactly the runs you need it for.
//!
//! Tracing never changes results: `Determinism::Verify` remains
//! bit-identical with the trace plane enabled on every backend.
//!
//! The full wire protocol — frame layouts, the handshake, and the
//! failure-mode table — is documented in [`crate::frame`] (formats) and
//! [`control`] (control frames).

pub mod control;
mod fault;
pub mod launcher;
mod replay;
mod socket;
mod worker;

use std::fmt;
use std::sync::Arc;
use std::time::Duration;

use netdecomp_graph::Graph;

use crate::frame::Transport;

pub use fault::{FaultInjectingTransport, FaultPlan, LinkPartition};
pub use socket::{HubAddr, HubClient, SocketTransport, WorkerEvent, WorkerStats};
pub use worker::{
    run_worker, run_worker_checkpointed, run_worker_reporting, CheckpointPlan, WorkerConfig,
    WorkerReport,
};

/// The deadline every transport blocking point inherits unless a
/// caller sets another.
pub const DEFAULT_FRAME_TIMEOUT: Duration = Duration::from_secs(5);

/// How many committed rounds of per-destination delivery history a hub
/// retains for crash recovery unless a caller sets another window. A
/// reconnect asking to resume below the window is refused with a typed
/// handshake error; a supervisor answers that by restarting the whole
/// (deterministic) run. For the hub to be guaranteed able to serve a
/// checkpoint resume, keep the checkpoint interval at or below the
/// window.
pub const DEFAULT_REPLAY_WINDOW: u64 = 1024;

const DIGEST_INIT: u64 = 0xcbf2_9ce4_8422_2325;
const DIGEST_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv64(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(DIGEST_PRIME);
    }
    h
}

/// Digest of a graph's topology, exchanged in the `Hello` handshake.
///
/// Every worker of a distributed run loads the graph independently; two
/// workers that disagree on `n`, `m`, or any adjacency row would shard
/// and route messages inconsistently and produce garbage that no
/// per-frame check could attribute. The hub therefore refuses the
/// mismatch at connect time as a typed
/// [`crate::TransportCause::Handshake`] instead.
#[must_use]
pub fn graph_digest(graph: &Graph) -> u64 {
    let mut h = DIGEST_INIT;
    h = fnv64(h, &(graph.vertex_count() as u64).to_le_bytes());
    h = fnv64(h, &(graph.edge_count() as u64).to_le_bytes());
    for v in 0..graph.vertex_count() {
        let row = graph.neighbors(v);
        h = fnv64(h, &(row.len() as u64).to_le_bytes());
        for &to in row {
            h = fnv64(h, &(to as u64).to_le_bytes());
        }
    }
    h
}

/// A recipe for building a [`Transport`] per run, carried through
/// configuration structs that must stay `Clone + Debug`.
///
/// The engine owns its transport for the length of one `Simulator`, and
/// the shard count is known only once the engine has resolved its plan —
/// so configuration carries a *factory* (shard count in, boxed transport
/// out) rather than a single pre-built instance. The multi-phase drivers
/// (the carve protocol, Linial–Saks) build one simulator per run and
/// call the factory once.
#[derive(Clone)]
pub struct TransportFactory(Arc<dyn Fn(usize) -> Box<dyn Transport> + Send + Sync>);

impl TransportFactory {
    /// Wraps a `shards -> transport` constructor.
    pub fn new(make: impl Fn(usize) -> Box<dyn Transport> + Send + Sync + 'static) -> Self {
        TransportFactory(Arc::new(make))
    }

    /// Builds one transport instance for a run over `shards` shards.
    #[must_use]
    pub fn build(&self, shards: usize) -> Box<dyn Transport> {
        (self.0)(shards)
    }
}

impl fmt::Debug for TransportFactory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TransportFactory").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netdecomp_graph::GraphBuilder;

    fn path_graph(n: usize) -> Graph {
        let mut b = GraphBuilder::new(n);
        for v in 0..n.saturating_sub(1) {
            b.add_edge(v, v + 1).unwrap();
        }
        b.build()
    }

    #[test]
    fn default_timeout_is_five_seconds() {
        assert_eq!(DEFAULT_FRAME_TIMEOUT, Duration::from_millis(5_000));
        let options = launcher::SuperviseOptions::new(2);
        assert_eq!(options.timeout, DEFAULT_FRAME_TIMEOUT);
        assert_eq!(options.replay_window, DEFAULT_REPLAY_WINDOW);
        assert_eq!(options.trace_out, None);
    }

    #[test]
    fn digest_separates_topologies() {
        let a = graph_digest(&path_graph(5));
        let b = graph_digest(&path_graph(6));
        let mut builder = GraphBuilder::new(5);
        builder.add_edge(0, 1).unwrap();
        builder.add_edge(1, 2).unwrap();
        builder.add_edge(2, 3).unwrap();
        builder.add_edge(0, 4).unwrap();
        let c = graph_digest(&builder.build());
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, graph_digest(&path_graph(5)), "digest must be stable");
    }

    #[test]
    fn factory_builds_and_debugs() {
        let factory =
            TransportFactory::new(|shards| Box::new(crate::frame::LoopbackTransport::new(shards)));
        let t = factory.build(3);
        t.send(0, 1, bytes::Bytes::from_static(b"x"));
        let format = format!("{factory:?}");
        assert!(format.contains("TransportFactory"));
        let _clone = factory.clone();
    }
}
