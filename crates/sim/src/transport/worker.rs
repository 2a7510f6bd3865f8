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
//! Failure contract: a local error (CONGEST overrun, frame decode
//! failure, a fabric wider than the graph has vertices) is reported to
//! the fabric as an `Error` control frame before the worker exits, so
//! peers and the supervisor stop on the structured error instead of a
//! timeout or a relaunch; a peer or link failure arrives as a typed
//! [`SimError::Transport`] out of the collect path. Either way
//! [`run_worker`] returns the error — it never hangs and never panics on
//! runtime failures.

use std::num::NonZeroU64;
use std::path::PathBuf;

use bytes::Bytes;
use netdecomp_graph::{Graph, VertexId};

use crate::checkpoint::{
    decode_worker_payload, encode_worker_payload, load_newest_checkpoint, write_checkpoint,
    Checkpoint,
};
use crate::engine::{Ctx, Delivery, Protocol, RoundKernel, Snapshot};
use crate::frame::Transport;
use crate::message::SendLog;
use crate::shard::{DeliveryShard, Own, RouteIndex, Router, ShardPlan};
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
    /// Identity of the supervised run, minted once per run by the
    /// supervisor and handed to every spawn of it, as `attempt` is. Every
    /// checkpoint the worker writes carries it, and a relaunch resumes
    /// only from checkpoints that do.
    pub run: u64,
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
/// first, pass [`CheckpointPlan::resume_round`] to [`HubClient::connect`],
/// then hand the plan to [`run_worker`]. Flight-recorder events staged
/// while offline (one per rejected file, one for the winning load) are
/// flushed to the hub right after the round loop connects.
///
/// `CheckpointPlan::default()` is the disabled plan — nothing to restore,
/// nothing written — for a worker that runs without a supervisor to
/// relaunch it.
#[derive(Debug, Default)]
pub struct CheckpointPlan {
    /// Where checkpoints live; `None` only in the disabled plan.
    dir: Option<PathBuf>,
    /// Write a checkpoint every this many committed rounds.
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
    /// `interval` committed rounds. Only a *relaunched* worker
    /// (`config.attempt > 0`) scans for checkpoints: a first launch is a
    /// fresh run, and any files already in the directory are leftovers it
    /// must not resume from. A relaunch resumes from the newest valid
    /// checkpoint of its own run (`config.run`), or at round 0 when it
    /// finds none.
    #[must_use]
    pub fn new(
        config: &WorkerConfig,
        graph_digest: u64,
        dir: PathBuf,
        interval: NonZeroU64,
    ) -> Self {
        let mut loaded = None;
        let mut pending = Vec::new();
        if config.attempt > 0 {
            let (found, rejected) = load_newest_checkpoint(
                &dir,
                config.shard,
                config.shards,
                graph_digest,
                config.run,
                config.rounds as u64,
            );
            for reject in rejected {
                pending.push((
                    0,
                    EVENT_CHECKPOINT_REJECT,
                    format!("{}: {}", reject.path.display(), reject.reason),
                ));
            }
            if let Some(ckpt) = &found {
                pending.push((
                    ckpt.round,
                    EVENT_CHECKPOINT_LOAD,
                    format!(
                        "{}: resuming at round {}",
                        crate::checkpoint::checkpoint_path(&dir, config.shard, ckpt.round)
                            .display(),
                        ckpt.round
                    ),
                ));
            }
            loaded = found;
        }
        CheckpointPlan {
            dir: Some(dir),
            interval: interval.get(),
            graph_digest,
            loaded,
            pending,
        }
    }

    /// The round this plan can resume from: the loaded checkpoint's cut,
    /// or 0 when starting fresh. Pass it to [`HubClient::connect`].
    pub fn resume_round(&self) -> u64 {
        self.loaded.as_ref().map_or(0, |c| c.round)
    }

    /// Writes shard `config.shard`'s round-boundary state when
    /// `report.rounds_run` committed rounds land on the interval.
    /// Best-effort, like stats and traces: a full disk must not kill a
    /// healthy run, but the flight record names it.
    fn write_if_due<P: Snapshot>(
        &self,
        client: &HubClient,
        config: &WorkerConfig,
        nodes: &[P],
        shard: &DeliveryShard,
        report: &WorkerReport,
    ) {
        let round = report.rounds_run as u64;
        let Some(dir) = self.dir.as_deref() else {
            return;
        };
        if !round.is_multiple_of(self.interval) {
            return;
        }
        let ckpt = Checkpoint {
            shard: config.shard,
            shards: config.shards,
            round,
            graph_digest: self.graph_digest,
            run: config.run,
            payload: encode_worker_payload(nodes, shard, &report.stats),
        };
        let detail = match write_checkpoint(dir, &ckpt) {
            Ok(path) => path.display().to_string(),
            Err(error) => format!("failed: {error}"),
        };
        client.send_event(round, EVENT_CHECKPOINT_WRITE, detail);
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
/// Checkpoint/restore follows `plan`: a plan that recovered a checkpoint
/// overlays it onto the freshly built shard and starts the round loop at
/// the checkpoint round instead of round 0, and every `interval` rounds
/// the worker writes its full round-boundary state (node snapshots,
/// pending inbox, accumulated stats) to an atomically-renamed
/// checkpoint file. The caller must have dialed with
/// [`HubClient::connect`]`(…, plan.resume_round())`: the hub only
/// replays frames from the round the handshake claimed, so loop start
/// and handshake round must agree. A worker without a supervisor passes
/// `CheckpointPlan::default()`.
///
/// On success the worker streams its [`RunStats`] and `digest_of` its
/// final states to the hub as a `Stats` control frame *before* the
/// `Shutdown` frame (the hub stops reading this connection at
/// `Shutdown`, so order matters). The launcher merges the reports
/// instead of parsing worker stdout, and the digest lets it cross-check
/// that restarted workers converged on the same result.
///
/// # Errors
///
/// The first [`SimError`] the round loop hits: this shard's own CONGEST
/// or frame violation, a peer's structured error relayed by the hub, or
/// a typed [`SimError::Transport`] when the fabric times out,
/// disconnects, or desyncs. Two typed handshake errors come before any
/// round: a fabric of more shards than the graph has vertices (no shard
/// plan every worker agrees on), and a recovered checkpoint whose
/// payload does not overlay this worker's shard (a digest collision or a
/// `Snapshot` impl that changed between builds: the handshake already
/// promised the checkpoint round, so running from 0 instead would desync
/// the fabric). Every local error is reported to the fabric before
/// returning, so the run ends with it.
pub fn run_worker<P, F, D>(
    graph: &Graph,
    client: &HubClient,
    config: &WorkerConfig,
    mut plan: CheckpointPlan,
    mut make_node: F,
    digest_of: D,
) -> Result<(WorkerReport, Vec<P>), SimError>
where
    P: Protocol + Snapshot,
    F: FnMut(VertexId, &Ctx<'_>) -> P,
    D: FnOnce(&[P]) -> u64,
{
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

    let shard_plan = ShardPlan::degree_balanced(graph, config.shards);
    if shard_plan.count() != config.shards || config.shard >= config.shards {
        // The plan clamps to the vertex count; a fabric larger than the
        // graph (or a shard index outside it) cannot agree on a
        // partition, and every worker must fail the same typed way. A
        // relaunch would fail identically, so the fabric must hear it.
        let error = SimError::Transport(TransportError {
            shard: config.shard,
            round: 0,
            cause: TransportCause::Handshake {
                detail: format!(
                    "no {}-shard plan over {} vertices (plan has {} shards)",
                    config.shards,
                    graph.vertex_count(),
                    shard_plan.count()
                ),
            },
        });
        return Err(fail(client, error));
    }
    let me = config.shard;
    let n = graph.vertex_count();
    let routes = RouteIndex::new(graph, &shard_plan);
    let bounds = shard_plan.boundaries();
    let range = shard_plan.range(me);
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

    // The fabric is up: flush the events staged while offline.
    for (round, code, detail) in plan.pending.drain(..) {
        client.send_event(round, code, detail);
    }
    if let Some(ckpt) = plan.loaded.take() {
        if !decode_worker_payload(&ckpt.payload, &mut nodes, &mut shard, &mut report.stats) {
            let error = SimError::Transport(TransportError {
                shard: me,
                round: ckpt.round as usize,
                cause: TransportCause::Handshake {
                    detail: format!(
                        "checkpoint for round {} passed its digest but does not \
                         overlay shard {me}'s state (mismatched build?)",
                        ckpt.round
                    ),
                },
            });
            return Err(fail(client, error));
        }
        report.rounds_run = ckpt.round as usize;
    }

    for round in report.rounds_run..config.rounds {
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
            },
        };
        // The send half ships even when accounting failed; the `Error`
        // broadcast that follows is what actually stops the peers.
        if !kernel.send(me, &mut shard, &mut nodes, &mut log, &mut router) {
            let error = shard.error.take().expect("failed account sets the error");
            return Err(fail(client, error));
        }
        let own = Own {
            log: &log,
            router: &router,
        };
        kernel.receive(me, &mut shard, true, own);
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
        // A round boundary: `report.rounds_run` rounds are committed and
        // `shard` holds the next round's pending inbox — exactly the
        // consistent cut a checkpoint captures.
        plan.write_if_due(client, config, &nodes, &shard, &report);
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

    impl Snapshot for MaxFlood {
        fn save_state(&self) -> Bytes {
            Bytes::from(self.best.to_le_bytes().to_vec())
        }

        fn load_state(&mut self, bytes: &[u8]) -> bool {
            let Ok(raw) = <[u8; 8]>::try_from(bytes) else {
                return false;
            };
            self.best = u64::from_le_bytes(raw);
            true
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
                        let client =
                            HubClient::connect(&addr, k, shards, digest, timeout, 0).unwrap();
                        let config = WorkerConfig {
                            shard: k,
                            shards,
                            rounds,
                            limit: CongestLimit::Unlimited,
                            attempt: 0,
                            run: 0,
                            trace: false,
                        };
                        let make = |id, _: &Ctx<'_>| MaxFlood { best: id as u64 };
                        run_worker(
                            graph,
                            &client,
                            &config,
                            CheckpointPlan::default(),
                            make,
                            |_| 0,
                        )
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

    impl Snapshot for Overrun {
        fn save_state(&self) -> Bytes {
            Bytes::new()
        }

        fn load_state(&mut self, bytes: &[u8]) -> bool {
            bytes.is_empty()
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
                        let client =
                            HubClient::connect(&addr, k, shards, digest, timeout, 0).unwrap();
                        let config = WorkerConfig {
                            shard: k,
                            shards,
                            rounds: 4,
                            limit,
                            attempt: 0,
                            run: 0,
                            trace: false,
                        };
                        let plan = CheckpointPlan::default();
                        run_worker(graph, &client, &config, plan, |_, _| Overrun, |_| 0)
                            .unwrap_err()
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
                    let client = HubClient::connect(&addr, 0, shards, digest, timeout, 0).unwrap();
                    let config = WorkerConfig {
                        shard: 0,
                        shards,
                        rounds: 50,
                        limit: CongestLimit::Unlimited,
                        attempt: 0,
                        run: 0,
                        trace: false,
                    };
                    let make = |id, _: &Ctx<'_>| MaxFlood { best: id as u64 };
                    run_worker(
                        graph,
                        &client,
                        &config,
                        CheckpointPlan::default(),
                        make,
                        |_| 0,
                    )
                    .unwrap_err()
                })
            };
            // Shard 1 handshakes, then "crashes": the connection drops
            // without a shutdown frame.
            let casualty = HubClient::connect(&addr, 1, shards, digest, timeout, 0).unwrap();
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
    fn an_oversized_fabric_is_a_typed_refusal_the_fabric_hears() {
        // A relaunch would fail the same way, so the worker reports the
        // error to the hub, which halts the run on it.
        let graph = ladder(3);
        let digest = graph_digest(&graph);
        let timeout = Duration::from_secs(5);
        let (hub, addr) = crate::transport::socket::Hub::listen(
            &unix_addr("oversized"),
            1,
            timeout,
            Some(digest),
        )
        .unwrap();
        let client = HubClient::connect(&addr, 0, 64, digest, timeout, 0).unwrap();
        let config = WorkerConfig {
            shard: 0,
            shards: 64,
            rounds: 1,
            limit: CongestLimit::Unlimited,
            attempt: 0,
            run: 0,
            trace: false,
        };
        let make = |id, _: &Ctx<'_>| MaxFlood { best: id as u64 };
        let plan = CheckpointPlan::default();
        let error = run_worker(&graph, &client, &config, plan, make, |_| 0).unwrap_err();
        let SimError::Transport(TransportError {
            cause: TransportCause::Handshake { detail },
            ..
        }) = &error
        else {
            panic!("got {error:?}");
        };
        assert!(
            detail.contains("no 64-shard plan over 3 vertices"),
            "{detail}"
        );
        assert!(hub.wait_halted(timeout), "the fabric must hear the error");
        assert_eq!(hub.first_error(), Some(error));
    }
}
