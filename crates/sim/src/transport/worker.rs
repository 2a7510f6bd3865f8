//! The single-shard round driver a worker process runs.
//!
//! A distributed run puts one OS process on each shard. Every worker
//! loads the graph independently, computes the same
//! [`ShardPlan::degree_balanced`] partition, and drives only its own
//! vertex range through the engine's per-shard round kernel — compute →
//! account → ship, then place — with a [`HubClient`] as the delivery
//! fabric. The kernel is the *same* code the in-process engine's drivers
//! run, not a reimplementation, which is what makes the
//! process-per-shard deployment bit-identical to the in-process
//! backends.
//!
//! Failure contract: a local violation (CONGEST overrun, frame decode
//! failure) is reported to the fabric as an `Error` control frame before
//! the worker exits, so peers stop on the structured error instead of a
//! timeout; a peer or link failure arrives as a typed
//! [`SimError::Transport`] out of the collect path. Either way
//! [`run_worker`] returns the error — it never hangs and never panics on
//! runtime failures.

use std::path::PathBuf;

use bytes::Bytes;
use netdecomp_graph::{Graph, VertexId};

use crate::checkpoint::{
    decode_worker_payload, encode_worker_payload, load_newest_checkpoint, write_checkpoint,
    Checkpoint,
};
use crate::engine::{Ctx, Delivery, Protocol, RoundKernel, Snapshot};
use crate::frame::{FrameConfig, Transport};
use crate::message::SendLog;
use crate::shard::{DeliveryShard, RouteIndex, Router, ShardPlan};
use crate::trace::{TraceRing, TRACE_WINDOW};
use crate::{CongestLimit, RunStats, SimError, TransportCause, TransportError};

use super::control::{EVENT_CHECKPOINT_LOAD, EVENT_CHECKPOINT_REJECT, EVENT_CHECKPOINT_WRITE};
use super::HubClient;

/// What one worker needs to know to drive its shard.
#[derive(Debug, Clone)]
pub struct WorkerConfig {
    /// This worker's shard index.
    pub shard: usize,
    /// Total shard (= worker) count of the run.
    pub shards: usize,
    /// Number of rounds to execute.
    pub rounds: usize,
    /// CONGEST byte budget, enforced identically to the in-process
    /// engine.
    pub limit: CongestLimit,
    /// Restart generation this process runs as: 0 on the initial spawn,
    /// the supervisor's attempt count on a relaunch. A traced worker
    /// stamps it into every [`crate::RoundTrace`] it records
    /// (`restarts_seen`), and only a relaunch scans for checkpoints.
    pub attempt: u64,
    /// Record a [`crate::RoundTrace`] per round and stream it to the hub
    /// as a `Trace` control frame.
    pub trace: bool,
}

/// What a worker hands back after its run.
#[derive(Debug, Clone, Default)]
pub struct WorkerReport {
    /// Rounds fully committed before return.
    pub rounds_run: usize,
    /// This shard's accumulated message statistics (the launcher can sum
    /// reports across workers; per-round message counts partition over
    /// sender shards).
    pub stats: RunStats,
}

/// A worker's checkpoint configuration plus whatever it recovered from
/// disk *before* dialing the hub.
///
/// The resume round rides in the `Hello` frame, so the newest valid
/// checkpoint must be loaded before the handshake — build the plan
/// first, pass [`CheckpointPlan::resume_round`] to
/// [`HubClient::connect_resuming`], [`reconcile`](Self::reconcile) the
/// granted round, then hand the plan to [`run_worker_checkpointed`].
/// Flight-recorder events staged while offline (one per rejected file,
/// one for the winning load) are flushed to the hub right after the
/// round loop connects.
#[derive(Debug, Default)]
pub struct CheckpointPlan {
    /// Where checkpoints live; `None` disables both restore and writes.
    dir: Option<PathBuf>,
    /// Write a checkpoint every this many committed rounds (0 = never).
    interval: u64,
    /// The graph fingerprint stamped into every checkpoint header.
    graph_digest: u64,
    /// The newest on-disk checkpoint that survived validation, if any.
    loaded: Option<Checkpoint>,
    /// `(round, code, detail)` events staged for the flight recorder.
    pending: Vec<(u64, u8, String)>,
}

impl CheckpointPlan {
    /// Builds the plan for `config`'s shard: checkpoints in `dir` every
    /// `interval` committed rounds. Disabled (a no-op plan) unless a
    /// directory is given and the interval is positive. Only a
    /// *relaunched* worker (`config.attempt > 0`) scans for checkpoints:
    /// a first launch is a fresh run, and any files already in the
    /// directory are leftovers it must not resume from.
    #[must_use]
    pub fn new(
        config: &WorkerConfig,
        graph_digest: u64,
        dir: Option<PathBuf>,
        interval: u64,
    ) -> Self {
        let WorkerConfig {
            shard,
            shards,
            rounds,
            attempt,
            ..
        } = *config;
        let mut plan = CheckpointPlan {
            dir,
            interval,
            graph_digest,
            loaded: None,
            pending: Vec::new(),
        };
        if plan.interval == 0 {
            plan.dir = None;
            return plan;
        }
        let Some(dir) = plan.dir.as_deref() else {
            return plan;
        };
        if attempt == 0 {
            return plan;
        }
        let (loaded, rejected) =
            load_newest_checkpoint(dir, shard, shards, graph_digest, rounds as u64);
        for reject in rejected {
            plan.pending.push((
                0,
                EVENT_CHECKPOINT_REJECT,
                format!("{}: {}", reject.path.display(), reject.reason),
            ));
        }
        if let Some(ckpt) = &loaded {
            plan.pending.push((
                ckpt.round,
                EVENT_CHECKPOINT_LOAD,
                format!(
                    "{}: resuming at round {}",
                    crate::checkpoint::checkpoint_path(dir, shard, ckpt.round).display(),
                    ckpt.round
                ),
            ));
        }
        plan.loaded = loaded;
        plan
    }

    /// The round this plan can resume from: the loaded checkpoint's cut,
    /// or 0 when starting fresh. Pass it to
    /// [`HubClient::connect_resuming`].
    pub fn resume_round(&self) -> u64 {
        self.loaded.as_ref().map_or(0, |c| c.round)
    }

    /// Reconciles the plan with the round the hub actually granted. A
    /// grant below the checkpoint round means the hub refused the resume
    /// (a fresh hub after a whole-run restart knows nothing of our
    /// history — the checkpoint is stale) and admitted us at `granted`
    /// instead; the restored state is discarded and the refusal staged
    /// for the flight recorder. Determinism makes the discard safe: the
    /// re-run recomputes bit-identical state.
    pub fn reconcile(&mut self, granted: u64) {
        let claimed = self.resume_round();
        if granted >= claimed {
            return;
        }
        self.loaded = None;
        self.pending.push((
            granted,
            EVENT_CHECKPOINT_REJECT,
            format!(
                "stale resume: hub granted round {granted}, not the checkpoint's \
                 round {claimed} — restarting from the granted round"
            ),
        ));
    }

    /// Whether the round loop should write checkpoints.
    fn writes(&self) -> bool {
        self.interval > 0 && self.dir.is_some()
    }
}

/// Adapts a [`HubClient`] (one shard's fabric endpoint) to the
/// [`Transport`] seam the engine's shard machinery expects.
#[derive(Debug)]
struct ClientTransport<'a> {
    client: &'a HubClient,
}

impl Transport for ClientTransport<'_> {
    fn send(&self, from: usize, to: usize, frame: Bytes) {
        debug_assert_eq!(
            from,
            self.client.shard(),
            "a worker ships only its own frames"
        );
        self.client.send(to, frame);
    }

    fn collect(&self, _to: usize, into: &mut [Option<Bytes>]) -> Result<(), TransportError> {
        self.client.collect(into)
    }
}

/// Runs `config.rounds` rounds of protocol `P` for one shard of the
/// fabric, returning the report and the shard's final node states (in
/// vertex-id order over the shard's range).
///
/// `make_node` sees exactly what [`crate::Simulator::new`]'s closure
/// sees, so the same constructor drives both deployments.
///
/// # Errors
///
/// The first [`SimError`] the round loop hits: this shard's own CONGEST
/// or frame violation (reported to peers before returning), a peer's
/// structured error relayed by the hub, or a typed
/// [`SimError::Transport`] when the fabric times out, disconnects, or
/// desyncs.
pub fn run_worker<P, F>(
    graph: &Graph,
    client: &HubClient,
    config: &WorkerConfig,
    make_node: F,
) -> Result<(WorkerReport, Vec<P>), SimError>
where
    P: Protocol,
    F: FnMut(VertexId, &Ctx<'_>) -> P,
{
    run_worker_reporting(graph, client, config, make_node, |_| 0)
}

/// [`run_worker`] plus end-of-run reporting: on success the worker
/// streams its [`RunStats`] and a caller-computed result digest to the
/// hub as a `Stats` control frame *before* the `Shutdown` frame (the
/// hub stops reading this connection at `Shutdown`, so order matters).
/// The launcher merges the reports instead of parsing worker stdout,
/// and the digest lets it cross-check that restarted workers converged
/// on the same result.
///
/// # Errors
///
/// As [`run_worker`].
pub fn run_worker_reporting<P, F, D>(
    graph: &Graph,
    client: &HubClient,
    config: &WorkerConfig,
    make_node: F,
    digest_of: D,
) -> Result<(WorkerReport, Vec<P>), SimError>
where
    P: Protocol,
    F: FnMut(VertexId, &Ctx<'_>) -> P,
    D: FnOnce(&[P]) -> u64,
{
    drive_worker(
        graph,
        client,
        config,
        make_node,
        digest_of,
        |_, _, _, _| Ok(0),
        |_, _, _, _| (),
    )
}

/// [`run_worker_reporting`] with deterministic checkpoint/restore: every
/// `plan` interval rounds the worker writes its full round-boundary
/// state (node snapshots, pending inbox, CONGEST counters, accumulated
/// stats) to an atomically-renamed checkpoint file, and a relaunched
/// worker whose plan recovered a checkpoint starts the round loop at the
/// checkpoint round instead of round 0 — crash recovery costs one
/// interval plus the replay window, not the whole run.
///
/// The caller must have dialed with
/// [`HubClient::connect_resuming`]`(…, plan.resume_round())` and
/// [`reconcile`](CheckpointPlan::reconcile)d the granted round: the hub
/// only replays frames from the round the handshake claimed, so loop
/// start and handshake round must agree.
///
/// # Errors
///
/// As [`run_worker`], plus a typed handshake error if the recovered
/// checkpoint's payload does not overlay this worker's shard (a digest
/// collision or a `Snapshot` impl that changed between builds — the
/// handshake already promised the checkpoint round, so running from 0
/// instead would desync the fabric).
pub fn run_worker_checkpointed<P, F, D>(
    graph: &Graph,
    client: &HubClient,
    config: &WorkerConfig,
    plan: CheckpointPlan,
    make_node: F,
    digest_of: D,
) -> Result<(WorkerReport, Vec<P>), SimError>
where
    P: Protocol + Snapshot,
    F: FnMut(VertexId, &Ctx<'_>) -> P,
    D: FnOnce(&[P]) -> u64,
{
    let writes = plan.writes();
    let CheckpointPlan {
        dir,
        interval,
        graph_digest,
        mut loaded,
        mut pending,
    } = plan;
    let me = config.shard;
    let shards = config.shards;
    drive_worker(
        graph,
        client,
        config,
        make_node,
        digest_of,
        |client: &HubClient,
         nodes: &mut [P],
         shard: &mut DeliveryShard,
         report: &mut WorkerReport| {
            // The fabric is up: flush the events staged while offline.
            for (round, code, detail) in pending.drain(..) {
                client.send_event(round, code, detail);
            }
            let Some(ckpt) = loaded.take() else {
                return Ok(0);
            };
            if !decode_worker_payload(&ckpt.payload, nodes, shard, &mut report.stats) {
                return Err(SimError::Transport(TransportError {
                    shard: me,
                    round: ckpt.round as usize,
                    cause: TransportCause::Handshake {
                        detail: format!(
                            "checkpoint for round {} passed its digest but does not \
                             overlay shard {me}'s state (mismatched build?)",
                            ckpt.round
                        ),
                    },
                }));
            }
            let start = ckpt.round as usize;
            report.rounds_run = start;
            Ok(start)
        },
        |client: &HubClient, nodes: &[P], shard: &DeliveryShard, report: &WorkerReport| {
            if !writes || !(report.rounds_run as u64).is_multiple_of(interval) {
                return;
            }
            let dir = dir.as_deref().expect("writes() checked dir");
            let round = report.rounds_run as u64;
            let ckpt = Checkpoint {
                shard: me,
                shards,
                round,
                graph_digest,
                payload: encode_worker_payload(nodes, shard, &report.stats),
            };
            // Best-effort, like stats and traces: a full disk must not
            // kill a healthy run, but the flight record names it.
            match write_checkpoint(dir, &ckpt) {
                Ok(path) => {
                    client.send_event(round, EVENT_CHECKPOINT_WRITE, path.display().to_string());
                }
                Err(error) => {
                    client.send_event(round, EVENT_CHECKPOINT_WRITE, format!("failed: {error}"));
                }
            }
        },
    )
}

/// The shared round loop behind [`run_worker_reporting`] and
/// [`run_worker_checkpointed`]. `prologue` runs once after the shard
/// state is built and returns the round to start from (restoring state
/// and setting `report.rounds_run` if it resumes); `after_round` runs
/// at every round boundary — `report.rounds_run` rounds are committed,
/// `shard` holds the next round's pending inbox — which is exactly the
/// consistent cut a checkpoint captures.
#[allow(clippy::too_many_arguments)]
fn drive_worker<P, F, D, R, A>(
    graph: &Graph,
    client: &HubClient,
    config: &WorkerConfig,
    mut make_node: F,
    digest_of: D,
    prologue: R,
    mut after_round: A,
) -> Result<(WorkerReport, Vec<P>), SimError>
where
    P: Protocol,
    F: FnMut(VertexId, &Ctx<'_>) -> P,
    D: FnOnce(&[P]) -> u64,
    R: FnOnce(
        &HubClient,
        &mut [P],
        &mut DeliveryShard,
        &mut WorkerReport,
    ) -> Result<usize, SimError>,
    A: FnMut(&HubClient, &[P], &DeliveryShard, &WorkerReport),
{
    let plan = ShardPlan::degree_balanced(graph, config.shards);
    if plan.count() != config.shards || config.shard >= config.shards {
        // The plan clamps to the vertex count; a fabric larger than the
        // graph (or a shard index outside it) cannot agree on a
        // partition, and every worker must fail the same typed way.
        return Err(SimError::Transport(TransportError {
            shard: config.shard,
            round: 0,
            cause: TransportCause::Handshake {
                detail: format!(
                    "no {}-shard plan over {} vertices (plan has {} shards)",
                    config.shards,
                    graph.vertex_count(),
                    plan.count()
                ),
            },
        }));
    }
    let me = config.shard;
    let n = graph.vertex_count();
    let routes = RouteIndex::new(graph, &plan);
    let bounds = plan.boundaries();
    let range = plan.range(me);
    let mut shard = DeliveryShard::new(graph, range.start, range.end);
    let mut nodes: Vec<P> = range
        .clone()
        .map(|id| make_node(id, &Ctx::new(id, n, graph)))
        .collect();
    let mut log = SendLog::default();
    let mut router = Router::default();
    if config.trace {
        shard.trace = TraceRing::new(TRACE_WINDOW);
    }
    let transport = ClientTransport { client };
    let mut report = WorkerReport::default();

    let fail = |client: &HubClient, local: SimError| {
        // A structured peer error beats our local rendering of it; a
        // local diagnosis (CONGEST, decode, even a collect timeout) is
        // news the fabric should halt on — report it best-effort (the
        // hub keeps the first error, so echoes are harmless).
        match client.remote_error() {
            Some(remote) => {
                client.send_shutdown();
                remote
            }
            None => {
                client.report_error(&local);
                client.send_shutdown();
                local
            }
        }
    };

    let start = match prologue(client, &mut nodes, &mut shard, &mut report) {
        Ok(start) => start,
        Err(error) => return Err(fail(client, error)),
    };

    for round in start..config.rounds {
        if let Some(error) = client.remote_error() {
            client.send_shutdown();
            return Err(error);
        }
        let kernel = RoundKernel {
            graph,
            routes: &routes,
            bounds,
            limit: config.limit,
            round,
            started: round > 0,
            delivery: Delivery::Framed {
                transport: &transport,
                config: FrameConfig::default(),
            },
        };
        // The send half ships even when accounting failed; the `Error`
        // broadcast that follows is what actually stops the peers.
        if !kernel.send(me, &mut shard, &mut nodes, &mut log, &mut router) {
            let error = shard.error.take().expect("failed account sets the error");
            return Err(fail(client, error));
        }
        kernel.receive(me, &mut shard, true);
        if let Some(error) = shard.error.take() {
            return Err(fail(client, error));
        }
        if shard.trace.enabled() {
            // Commit the round and stream it to the hub immediately —
            // the hub-side copy is what survives a SIGKILL between this
            // round and the next.
            let frame_bytes = shard.work.frame_bytes as u64;
            let checksum_ns = shard.work.checksum_ns;
            shard
                .trace
                .commit(round as u64, frame_bytes, checksum_ns, config.attempt);
            if let Some(last) = shard.trace.last() {
                client.send_trace(std::slice::from_ref(last));
            }
        }
        report.stats.absorb(shard.stats);
        report.rounds_run += 1;
        after_round(client, &nodes, &shard, &report);
    }
    client.send_stats(report.rounds_run as u64, digest_of(&nodes), &report.stats);
    client.send_shutdown();
    Ok((report, nodes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{graph_digest, HubAddr};
    use crate::{Inbox, Outbox, Simulator};
    use netdecomp_graph::GraphBuilder;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    /// Max-id flooding: every node ends with the maximum vertex id of
    /// its connected component. Deterministic, messages every round.
    #[derive(Debug, Clone, PartialEq, Eq)]
    struct MaxFlood {
        best: u64,
    }

    impl Protocol for MaxFlood {
        fn start(&mut self, _ctx: &Ctx<'_>, out: &mut Outbox<'_>) {
            out.broadcast(&self.best.to_le_bytes());
        }

        fn round(&mut self, _ctx: &Ctx<'_>, incoming: Inbox<'_>, out: &mut Outbox<'_>) {
            let mut grew = false;
            for msg in incoming.iter() {
                let heard = u64::from_le_bytes(msg.payload().try_into().expect("8-byte payload"));
                if heard > self.best {
                    self.best = heard;
                    grew = true;
                }
            }
            if grew {
                out.broadcast(&self.best.to_le_bytes());
            }
        }
    }

    fn ladder(n: usize) -> netdecomp_graph::Graph {
        let mut b = GraphBuilder::new(n);
        for v in 1..n {
            b.add_edge(v - 1, v).unwrap();
            if v >= 2 {
                b.add_edge(v - 2, v).unwrap();
            }
        }
        b.build()
    }

    fn unix_addr(tag: &str) -> HubAddr {
        static SEQ: AtomicUsize = AtomicUsize::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        HubAddr::Unix(std::env::temp_dir().join(format!(
            "netdecomp-worker-{}-{tag}-{n}.sock",
            std::process::id()
        )))
    }

    #[test]
    fn distributed_workers_match_the_sequential_engine() {
        let graph = ladder(23);
        let shards = 3;
        let rounds = 12;
        let digest = graph_digest(&graph);
        let timeout = Duration::from_secs(10);
        let (hub, addr) = crate::transport::socket::Hub::listen(
            &unix_addr("equiv"),
            shards,
            timeout,
            Some(digest),
        )
        .unwrap();
        let distributed: Vec<MaxFlood> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..shards)
                .map(|k| {
                    let graph = &graph;
                    let addr = addr.clone();
                    scope.spawn(move || {
                        let client = HubClient::connect(&addr, k, shards, digest, timeout).unwrap();
                        let config = WorkerConfig {
                            shard: k,
                            shards,
                            rounds,
                            limit: CongestLimit::Unlimited,
                            attempt: 0,
                            trace: false,
                        };
                        run_worker(graph, &client, &config, |id, _ctx| MaxFlood {
                            best: id as u64,
                        })
                        .unwrap()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap().1)
                .collect()
        });
        drop(hub);
        let mut reference = Simulator::new(&graph, |id, _ctx| MaxFlood { best: id as u64 });
        reference.run_rounds(rounds).unwrap();
        // Shard ranges are contiguous and ascending, so concatenation is
        // already vertex-id order.
        assert_eq!(distributed.len(), graph.vertex_count());
        assert_eq!(&distributed[..], reference.nodes(), "deployments diverged");
    }

    /// Every vertex broadcasts one byte per round, except that vertex 0 —
    /// always in shard 0 — overruns an 8-byte edge budget in round 1.
    #[derive(Debug, Clone)]
    struct Overrun;

    impl Protocol for Overrun {
        fn start(&mut self, _ctx: &Ctx<'_>, out: &mut Outbox<'_>) {
            out.broadcast(b"x");
        }

        fn round(&mut self, ctx: &Ctx<'_>, _incoming: Inbox<'_>, out: &mut Outbox<'_>) {
            let len = if ctx.id == 0 { 9 } else { 1 };
            out.broadcast(&vec![0u8; len]);
        }
    }

    #[test]
    fn a_congest_overrun_fails_every_worker_with_the_engines_error() {
        let graph = ladder(17);
        let shards = 3;
        let limit = CongestLimit::PerEdgeBytes(8);
        let mut reference = Simulator::new(&graph, |_, _| Overrun).with_limit(limit);
        reference.step().expect("round 0 stays within the budget");
        let expected = reference.step().unwrap_err();
        assert!(
            matches!(
                expected,
                SimError::CongestViolation {
                    from: 0,
                    round: 1,
                    ..
                }
            ),
            "got {expected:?}"
        );
        let digest = graph_digest(&graph);
        let timeout = Duration::from_secs(5);
        let (hub, addr) = crate::transport::socket::Hub::listen(
            &unix_addr("overrun"),
            shards,
            timeout,
            Some(digest),
        )
        .unwrap();
        let started = std::time::Instant::now();
        let errors: Vec<SimError> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..shards)
                .map(|k| {
                    let graph = &graph;
                    let addr = addr.clone();
                    scope.spawn(move || {
                        let client = HubClient::connect(&addr, k, shards, digest, timeout).unwrap();
                        let config = WorkerConfig {
                            shard: k,
                            shards,
                            rounds: 4,
                            limit,
                            attempt: 0,
                            trace: false,
                        };
                        run_worker(graph, &client, &config, |_, _| Overrun).unwrap_err()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        drop(hub);
        // Shard 0 fails locally; its peers stop on the hub-relayed copy of
        // the same error instead of timing out on the missing round.
        for (k, error) in errors.iter().enumerate() {
            assert_eq!(error, &expected, "shard {k}");
        }
        assert!(
            started.elapsed() < timeout,
            "the relayed error took {:?}",
            started.elapsed()
        );
    }

    #[test]
    fn a_worker_that_dies_mid_run_fails_peers_typed() {
        let graph = ladder(12);
        let shards = 2;
        let digest = graph_digest(&graph);
        let timeout = Duration::from_millis(600);
        let (hub, addr) = crate::transport::socket::Hub::listen(
            &unix_addr("death"),
            shards,
            timeout,
            Some(digest),
        )
        .unwrap();
        let error = std::thread::scope(|scope| {
            let survivor = {
                let graph = &graph;
                let addr = addr.clone();
                scope.spawn(move || {
                    let client = HubClient::connect(&addr, 0, shards, digest, timeout).unwrap();
                    let config = WorkerConfig {
                        shard: 0,
                        shards,
                        rounds: 50,
                        limit: CongestLimit::Unlimited,
                        attempt: 0,
                        trace: false,
                    };
                    run_worker(graph, &client, &config, |id, _ctx| MaxFlood {
                        best: id as u64,
                    })
                    .unwrap_err()
                })
            };
            // Shard 1 handshakes, then "crashes": the connection drops
            // without a shutdown frame.
            let casualty = HubClient::connect(&addr, 1, shards, digest, timeout).unwrap();
            drop(casualty);
            survivor.join().unwrap()
        });
        assert!(
            matches!(error, SimError::Transport(_)),
            "want a typed transport error, got {error:?}"
        );
        drop(hub);
    }

    #[test]
    fn an_oversized_fabric_is_a_typed_refusal() {
        let graph = ladder(3);
        let mesh = crate::transport::SocketTransport::unix_mesh_with_timeout(
            1,
            Duration::from_millis(200),
        );
        let config = WorkerConfig {
            shard: 0,
            shards: 64,
            rounds: 1,
            limit: CongestLimit::Unlimited,
            attempt: 0,
            trace: false,
        };
        let error = run_worker(&graph, mesh.client(0), &config, |id, _ctx| MaxFlood {
            best: id as u64,
        })
        .unwrap_err();
        assert!(
            matches!(
                &error,
                SimError::Transport(TransportError {
                    cause: TransportCause::Handshake { .. },
                    ..
                })
            ),
            "got {error:?}"
        );
    }
}
