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
//!   checkpoints and restores its shard as its [`CheckpointPlan`] says,
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
//! | Worker process crashes (incl. SIGKILL mid-frame) | Hub reader (EOF / close mid-frame) + supervisor exit reaping | stream close; `wait()` status | Supervisor relaunches (backoff + jitter, ≤ `max_restarts`); the worker loads its run's newest valid checkpoint (or none, and starts at round 0), handshakes with `Hello{resume_round}`, and the hub replays the rounds since from its `replay` log, treating re-shipped rounds as echoes | Nothing — run completes bit-identically; `workers_restarted`/`rounds_replayed` counters tick, and `checkpoint_restores` when a checkpoint loaded (a `checkpoint_load` event lands in the flight record) |
//! | Worker wedges (alive, no progress) | Supervisor: global barrier stall + least-committed victim selection; heartbeat age feeds `heartbeats_missed` | `Heartbeat` control frames + barrier round | Supervisor kills the wedged process, then the crash path above applies | Nothing, or a typed timeout if the stall outlives the collect deadline |
//! | Link drops but both ends live | Client read/write error | socket error | None in the client, which never redials: its collect fails [`crate::TransportCause::Disconnected`] (a failed write, `Io`), the worker exits with it, and the crash path above applies. An in-process mesh has no supervisor | Nothing under supervision; in-process, that typed error |
//! | Resume round the hub cannot serve: below the replay window, or above the rounds the fabric committed | Hub admission | handshake refusal naming the floor or the committed rounds | None. The window holds both checkpoints a worker keeps, so the first takes losing both (torn or corrupt) and a crash more than a window deep; the loader accepts only its own run's checkpoints, so the second takes a broken worker | Typed [`crate::TransportCause::Handshake`]; the run ends |
//! | Checkpoint file torn or corrupted (crash mid-write, bit rot) | Worker's checkpoint loader | trailing [`crate::checkpoint`] digest / header validation | File is *skipped, never trusted*: the loader falls back to the previous retained checkpoint, then to a fresh round-0 run | Nothing; a `checkpoint_reject` event with the typed reason lands in the flight record |
//! | Checkpoint left by an earlier run (a `--checkpoint-dir` reused across runs) | Worker's checkpoint loader | the header's run identity differs from the one the supervisor minted for this run | File is *skipped*, exactly like a torn one: the loader falls back to this run's newest checkpoint, then to round 0 | Nothing; a `checkpoint_reject` event naming the file and "another run's checkpoint" lands in the flight record |
//! | Destination never drains its hub queue (slow or absent consumer) | Hub relay (256 MiB per destination) | per-destination queued-bytes accounting | None — unbounded buffering would trade a deadlock for an OOM | Typed [`crate::SimError::Transport`] naming the slow/absent destination shard |
//! | Restart budget exhausted | Supervisor | — | None — supervisor calls the hub's `declare_lost` | Typed [`crate::SimError::Transport`] naming the lost shard |
//! | Wrong graph / frame version / shard id | Hub handshake vetting | `Error` control frame | None (config error, retrying cannot help) | Typed [`crate::TransportCause::Handshake`] |
//! | Corrupt or truncated frame | Receiver's decoder | checksum/structure validation | None (content desync is never retried — re-reading the same bytes cannot fix them) | Typed [`crate::SimError::Frame`] |
//! | Peer reports its own failure (CONGEST overrun, frame decode, a fabric wider than the graph) | Everyone | `Error` control frame relayed hub-wide | None — orderly teardown: the hub halts, so the supervisor relaunches nothing (a relaunch would repeat a deterministic error) | The originating shard's typed error |
//!
//! # Checkpoint/restore
//!
//! Checkpoint and replay is the one way a supervised worker recovers.
//! With a [`CheckpointPlan`] of interval `k` (rounds) and a directory
//! (`netdecomp --checkpoint-interval k --checkpoint-dir DIR`; `k`
//! defaults to [`DEFAULT_CHECKPOINT_INTERVAL`]), every worker serializes
//! its shard — protocol state through the [`crate::Snapshot`] seam, the
//! delivered inbox of the checkpoint cut, and accumulated run statistics
//! — into an atomically-renamed, checksummed file every `k` committed
//! rounds (format in [`crate::checkpoint`]), stamped with the run
//! identity the supervisor minted ([`WorkerConfig::run`]). A relaunched
//! worker loads the newest checkpoint of its run that validates, resumes
//! at its round (round 0 when none does), and handshakes with
//! `Hello{resume_round = checkpoint round}`. The hub keeps
//! [`crate::checkpoint::RETAIN_CHECKPOINTS`] intervals of replay
//! history, so it can always serve the missing suffix from either
//! checkpoint a worker keeps, and recovery costs `O(interval)`
//! re-execution instead of `O(run length)`.
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
//!   lost shards, deadline breaches, and the final halt or fatal
//!   outcome.
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
use std::num::NonZeroU64;
use std::sync::Arc;
use std::time::Duration;

use netdecomp_graph::Graph;

use crate::frame::Transport;

pub use fault::{FaultInjectingTransport, FaultPlan, LinkPartition};
pub use socket::{HubAddr, HubClient, SocketTransport, WorkerEvent, WorkerStats};
pub use worker::{run_worker, CheckpointPlan, WorkerConfig, WorkerReport};

/// The deadline every transport blocking point inherits unless a
/// caller sets another.
pub const DEFAULT_FRAME_TIMEOUT: Duration = Duration::from_secs(5);

/// Rounds between the checkpoints every supervised worker writes unless
/// a caller sets another interval
/// (`launcher::SuperviseOptions::checkpoint_interval`, `netdecomp
/// --checkpoint-interval`).
pub const DEFAULT_CHECKPOINT_INTERVAL: NonZeroU64 = NonZeroU64::new(512).unwrap();

/// How many committed rounds of per-destination delivery history a hub
/// retains when its workers checkpoint every `interval` rounds: one
/// interval per checkpoint a worker keeps on disk
/// ([`crate::checkpoint::RETAIN_CHECKPOINTS`]), so a relaunched worker can
/// resume from either of them. A resume below the window is refused with
/// a typed handshake error that ends the run.
pub(crate) fn replay_window(interval: NonZeroU64) -> u64 {
    // Saturating: the interval comes from the command line.
    interval
        .get()
        .saturating_mul(crate::checkpoint::RETAIN_CHECKPOINTS as u64)
}

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
        assert_eq!(options.checkpoint_interval, DEFAULT_CHECKPOINT_INTERVAL);
        assert_eq!(replay_window(options.checkpoint_interval), 1024);
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
