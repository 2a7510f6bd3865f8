//! The socket transport: data and control frames over real byte
//! streams, behind the same [`Transport`] seam the shared-memory
//! backends implement.
//!
//! # Topology: a hub and `shards` spokes
//!
//! Rather than a full mesh of `shards²` connections, every shard holds
//! one full-duplex stream to a **hub**. The hub routes data frames by
//! the destination word in their header, aggregates `RoundBarrier`
//! control frames (broadcasting the acknowledgement once all shards
//! have shipped a round), relays `Error` frames to every peer, and
//! enforces the `Hello` handshake. The same hub code serves both
//! deployments:
//!
//! - **in-process** ([`SocketTransport::unix_mesh`] /
//!   [`SocketTransport::tcp_mesh`]): the engine's framed backend over
//!   real sockets, used by the bit-exact equivalence sweep;
//! - **process-per-shard** ([`super::launcher`]): the hub listens on a
//!   Unix or TCP address, worker processes connect and run
//!   [`super::run_worker`].
//!
//! # Why the hub never deadlocks
//!
//! The hub runs one *reader* and one *writer* thread per connection,
//! decoupled by unbounded per-destination queues. Readers only parse
//! and enqueue — they never block on a slow destination — so a shard
//! that has not collected yet cannot stall frames addressed to a shard
//! that is collecting. Writers block only on their own destination and
//! carry write timeouts, so a wedged peer costs one typed error, not a
//! stuck hub. The barrier acknowledgement for round `r` is enqueued
//! under the barrier lock *after* every reader has enqueued its round-r
//! data frames, so a client that has seen the ack and still misses a
//! frame knows the frame is genuinely absent (`MissingFrame`), not
//! merely late.
//!
//! # Failure handling and recovery
//!
//! Every blocking point carries a deadline (the hub's and each client's
//! timeout, [`super::DEFAULT_FRAME_TIMEOUT`] unless a caller sets one).
//! A client never redials: a dead link fails it typed (the next collect
//! returns [`TransportCause::Disconnected`]), its worker exits, and the
//! supervisor relaunches the worker as after any crash. The hub gives a
//! dead connection a grace window (the supervision grace, at least the
//! frame timeout) for the relaunched worker's handshake before it
//! declares the shard gone and broadcasts a typed `Error` to every peer.
//! All terminal outcomes are [`TransportError`]s — see the failure-mode
//! table in [`crate::transport`].
//!
//! # Deterministic crash recovery
//!
//! Each shard's connection slot supports an **N-epoch lifecycle**: one
//! registration per worker process the shard runs as, each atomically
//! swapping in a fresh stream and a fresh writer queue. The hub keeps,
//! per *sender*, the rounds it has globally committed (`committed`), the
//! barrier count of the sender's current connection (`ship_round`, set
//! by each handshake's `resume_round`), and a per-destination bitmap of
//! the partially-shipped round — together these make relay
//! exactly-once: a relaunched worker deterministically re-ships the
//! rounds from its resume round on, and the hub counts the committed
//! ones as echoes instead of double-delivering them. Per *destination*,
//! a bounded [`super::replay::ReplayLog`] remembers every relayed data
//! frame and barrier ack; a `Hello{resume_round}` handshake puts the
//! acknowledgement and the suffix from that round on at the head of the
//! connection's fresh writer queue, under the relay lock, so replayed
//! traffic can never be overtaken by live traffic and the connection's
//! writer is the only thread that ever writes to it. A resume the hub
//! cannot serve — below the log's retention floor, or above the rounds
//! the fabric committed — is refused with one typed handshake error
//! naming the reason, and the refusal ends the run.

use std::collections::VecDeque;
use std::fmt;
use std::io::{self, Read, Write};
use std::net::{Shutdown as NetShutdown, SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::Bytes;

use crate::error::{FrameError, SimError, TransportCause, TransportError};
use crate::frame::{Transport, TransportHealth, FRAME_VERSION, LEN_OFFSET, MAGIC};
use crate::stats::RunStats;
use crate::trace::RoundTrace;

use super::control::{ControlFrame, CONTROL_MAGIC, MAX_WIRE_FRAME};
use super::replay::{ReplayLog, Snapshot};

/// Byte budget each per-destination relay queue may hold before the
/// hub declares the destination wedged: 256 MiB of queued frames. The
/// queues stay *unbounded* channels (blocking a reader on a slow
/// destination is the deadlock the hub exists to prevent); the cap turns
/// runaway accumulation — a consumer that is too slow or never
/// connected — into a typed error naming the culprit instead of
/// unbounded memory growth.
const DEFAULT_HUB_QUEUE_CAP: usize = 256 * 1024 * 1024;

/// Cap on the hub-side buffer of worker lifecycle events (checkpoint
/// writes, loads, rejections) awaiting a supervisor's drain.
const EVENT_BUFFER_CAP: usize = 1024;

/// Idle-poll granularity of hub reader threads: how quickly a blocked
/// reader notices a hub-wide halt. Purely an exit-latency knob — data
/// readiness wakes a read immediately regardless.
const READ_TICK: Duration = Duration::from_millis(200);

/// Smallest well-formed data frame (a bare header); anything shorter
/// with the data magic means the stream is desynchronized.
const MIN_DATA_FRAME: usize = 32;

/// `u32::MAX` as an origin marks the hub itself (not any shard).
const HUB_ORIGIN: u32 = u32::MAX;

// ---------------------------------------------------------------------
// Streams and addresses
// ---------------------------------------------------------------------

/// One full-duplex byte stream, Unix-domain or TCP behind the same code
/// path.
#[derive(Debug)]
pub(crate) enum Stream {
    /// A Unix-domain socket (the default: no ports, no firewalls).
    Unix(UnixStream),
    /// A TCP socket (loopback in tests; any address in principle).
    Tcp(TcpStream),
}

impl Stream {
    fn try_clone(&self) -> io::Result<Stream> {
        match self {
            Stream::Unix(s) => s.try_clone().map(Stream::Unix),
            Stream::Tcp(s) => s.try_clone().map(Stream::Tcp),
        }
    }

    fn set_read_timeout(&self, t: Option<Duration>) -> io::Result<()> {
        match self {
            Stream::Unix(s) => s.set_read_timeout(t),
            Stream::Tcp(s) => s.set_read_timeout(t),
        }
    }

    fn set_write_timeout(&self, t: Option<Duration>) -> io::Result<()> {
        match self {
            Stream::Unix(s) => s.set_write_timeout(t),
            Stream::Tcp(s) => s.set_write_timeout(t),
        }
    }

    fn shutdown_both(&self) {
        let _ = match self {
            Stream::Unix(s) => s.shutdown(NetShutdown::Both),
            Stream::Tcp(s) => s.shutdown(NetShutdown::Both),
        };
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Unix(s) => s.read(buf),
            Stream::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Unix(s) => s.write(buf),
            Stream::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Unix(s) => s.flush(),
            Stream::Tcp(s) => s.flush(),
        }
    }
}

/// Where a hub listens — printable/parsable so a launcher can hand it
/// to worker processes on their command line (`netdecomp --worker S
/// --hub-addr ADDR`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HubAddr {
    /// `unix:<path>` — a Unix-domain socket path.
    Unix(PathBuf),
    /// `tcp:<addr>` — a TCP socket address, e.g. `tcp:127.0.0.1:4000`.
    Tcp(SocketAddr),
}

impl HubAddr {
    fn connect(&self, timeout: Duration) -> io::Result<Stream> {
        match self {
            HubAddr::Unix(path) => UnixStream::connect(path).map(Stream::Unix),
            HubAddr::Tcp(addr) => TcpStream::connect_timeout(addr, timeout).map(Stream::Tcp),
        }
    }
}

impl fmt::Display for HubAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HubAddr::Unix(path) => write!(f, "unix:{}", path.display()),
            HubAddr::Tcp(addr) => write!(f, "tcp:{addr}"),
        }
    }
}

impl FromStr for HubAddr {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if let Some(path) = s.strip_prefix("unix:") {
            return Ok(HubAddr::Unix(PathBuf::from(path)));
        }
        if let Some(addr) = s.strip_prefix("tcp:") {
            return addr
                .parse()
                .map(HubAddr::Tcp)
                .map_err(|e| format!("bad tcp hub address {addr:?}: {e}"));
        }
        Err(format!(
            "hub address {s:?} must start with \"unix:\" or \"tcp:\""
        ))
    }
}

// ---------------------------------------------------------------------
// Stream framing: one reader for both frame families
// ---------------------------------------------------------------------

/// One frame peeled off a stream: bucket data or a control message.
#[derive(Debug)]
enum Wire {
    Data(Bytes),
    Control(ControlFrame),
}

/// Why a stream read stopped without producing a frame.
#[derive(Debug)]
enum ReadEnd {
    /// The peer closed (or was killed), at a frame boundary or mid-frame
    /// (a SIGKILL mid-ship): unlike a content desync, the stream itself
    /// is gone.
    Eof,
    /// The read timeout elapsed with zero bytes consumed — a poll tick;
    /// the stream is still framed and usable.
    Tick,
    /// The read timeout elapsed mid-frame: bytes are stranded and the
    /// stream can no longer be trusted to be at a frame boundary.
    Stalled,
    /// An OS-level read failure.
    Io(String),
    /// The bytes are not a frame (bad magic, implausible length, or a
    /// control frame that failed validation): desynchronized.
    Desync(String),
}

fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Fills `buf` completely. `started` says whether earlier bytes of the
/// same frame were already consumed (turning a timeout from a clean
/// tick into a mid-frame stall).
fn read_fully(stream: &mut Stream, buf: &mut [u8], mut started: bool) -> Result<(), ReadEnd> {
    let mut got = 0;
    while got < buf.len() {
        match stream.read(&mut buf[got..]) {
            Ok(0) => return Err(ReadEnd::Eof),
            Ok(n) => {
                got += n;
                started = true;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) if is_timeout(&e) => {
                return Err(if started || got > 0 {
                    ReadEnd::Stalled
                } else {
                    ReadEnd::Tick
                })
            }
            Err(e) => return Err(ReadEnd::Io(e.to_string())),
        }
    }
    Ok(())
}

/// Reads exactly one self-delimiting frame (data `NDF` or control `NDC`)
/// from the stream, using whatever read timeout is currently set.
fn read_wire_frame(stream: &mut Stream) -> Result<Wire, ReadEnd> {
    let mut head = [0u8; 8];
    read_fully(stream, &mut head, false)?;
    let is_data = &head[..3] == MAGIC.as_slice();
    if !is_data && &head[..3] != CONTROL_MAGIC.as_slice() {
        return Err(ReadEnd::Desync("unknown frame magic".into()));
    }
    let total = u32::from_le_bytes(
        head[LEN_OFFSET..LEN_OFFSET + 4]
            .try_into()
            .expect("4 bytes"),
    ) as usize;
    let floor = if is_data { MIN_DATA_FRAME } else { head.len() };
    if total < floor || total > MAX_WIRE_FRAME {
        return Err(ReadEnd::Desync(format!("implausible frame length {total}")));
    }
    let mut buf = vec![0u8; total];
    buf[..head.len()].copy_from_slice(&head);
    let split = head.len();
    read_fully(stream, &mut buf[split..], true)?;
    if is_data {
        Ok(Wire::Data(Bytes::from(buf)))
    } else {
        match ControlFrame::decode(&buf) {
            Ok(frame) => Ok(Wire::Control(frame)),
            Err(e) => Err(ReadEnd::Desync(format!("control frame rejected: {e}"))),
        }
    }
}

/// `(sender, dest)` shard words of a data frame (header offsets 8 and
/// 12). Only called on frames [`read_wire_frame`] already length-checked.
fn data_addressing(frame: &Bytes) -> (usize, usize) {
    let b = frame.as_slice();
    (
        u32::from_le_bytes(b[8..12].try_into().expect("4 bytes")) as usize,
        u32::from_le_bytes(b[12..16].try_into().expect("4 bytes")) as usize,
    )
}

// ---------------------------------------------------------------------
// Handshake
// ---------------------------------------------------------------------

/// Client side of the connect-time handshake: send `Hello` (with the
/// round the process starts at), await the hub's echo (or its typed
/// rejection).
fn handshake(
    stream: &mut Stream,
    shard: usize,
    graph_digest: u64,
    resume_round: u64,
    timeout: Duration,
) -> Result<(), TransportCause> {
    let io_cause = |e: &io::Error| TransportCause::Io {
        detail: e.to_string(),
    };
    stream
        .set_read_timeout(Some(timeout))
        .map_err(|e| io_cause(&e))?;
    stream
        .set_write_timeout(Some(timeout))
        .map_err(|e| io_cause(&e))?;
    let hello = ControlFrame::Hello {
        shard: shard as u32,
        frame_version: u32::from(FRAME_VERSION),
        graph_digest,
        resume_round,
    };
    stream
        .write_all(hello.encode().as_slice())
        .and_then(|()| stream.flush())
        .map_err(|e| io_cause(&e))?;
    match read_wire_frame(stream) {
        Ok(Wire::Control(ControlFrame::Hello { .. })) => Ok(()),
        Ok(Wire::Control(ControlFrame::Error { error, .. })) => Err(match error {
            SimError::Transport(TransportError { cause, .. }) => cause,
            other => TransportCause::Remote {
                message: other.to_string(),
            },
        }),
        Ok(_) => Err(TransportCause::Handshake {
            detail: "unexpected reply to hello".into(),
        }),
        Err(ReadEnd::Eof | ReadEnd::Desync(_)) => Err(TransportCause::Handshake {
            detail: "connection closed before the hello acknowledgement".into(),
        }),
        Err(ReadEnd::Tick | ReadEnd::Stalled) => Err(TransportCause::Timeout {
            waited_ms: timeout.as_millis() as u64,
        }),
        Err(ReadEnd::Io(detail)) => Err(TransportCause::Io { detail }),
    }
}

// ---------------------------------------------------------------------
// Hub
// ---------------------------------------------------------------------

/// A unit of outgoing work for a hub writer thread.
enum Item {
    /// Pre-encoded frame bytes (data or control), written verbatim and
    /// counted in the queue's depth.
    Frame(Bytes),
    /// The hello acknowledgement or a replayed frame an admission put at
    /// the head of a fresh queue: written verbatim, outside the depth
    /// the queue cap checks, so replayed history never makes a later
    /// live relay breach the cap.
    Replay(Bytes),
    /// Flush, close the connection, and exit.
    Exit,
}

/// Replaceable halves of one shard's connection. `epoch` counts
/// registrations; a reader or writer whose stream died waits here for a
/// higher epoch (a relaunched worker's connection) before declaring the
/// shard gone. The lifecycle supports any number of epochs: every
/// registration installs a fresh read half, a fresh write half, and the
/// receiver of the fresh writer queue swapped in by
/// [`HubShared::prepare_resume`].
#[derive(Debug, Default)]
struct ConnState {
    epoch: u64,
    fresh_read: Option<Stream>,
    fresh_write: Option<Stream>,
    fresh_rx: Option<(mpsc::Receiver<Item>, Arc<AtomicUsize>)>,
    /// A retained clone used only to `shutdown()` the connection from
    /// the hub owner during teardown.
    current: Option<Stream>,
}

#[derive(Debug, Default)]
struct ConnSlot {
    state: Mutex<ConnState>,
    changed: Condvar,
}

#[derive(Debug)]
struct BarrierState {
    round: u64,
    arrived: Vec<bool>,
    count: usize,
}

/// Per-sender relay accounting: what makes relay exactly-once across
/// worker restarts.
#[derive(Debug)]
struct SenderState {
    /// Round barriers seen on this sender's *current* connection (set to
    /// the handshake's `resume_round` on each admission): the round its
    /// next data frame belongs to. Invariant: `ship_round <= committed`.
    ship_round: u64,
    /// Rounds of this sender globally committed by the barrier
    /// (monotone across epochs). Frames of rounds below this are
    /// deterministic re-sends from a restarted worker — discarded.
    committed: u64,
    /// Destinations already relayed in the in-flight round `committed`;
    /// cleared when that round's live barrier lands. Deduplicates a
    /// relaunched worker's re-ship of a round its crashed process had
    /// partly shipped.
    sent_to: Vec<bool>,
}

/// Everything the relay path touches under one lock: the outgoing
/// queues (swappable per re-admission), per-sender exactly-once state,
/// and per-destination replay logs. Lock order: `barrier` before
/// `relay`; never call out (beyond unbounded `mpsc::send`) while held.
struct RelayState {
    /// Per-destination outgoing queues (unbounded — see the module docs
    /// for why this is the deadlock-freedom keystone). Re-admitting a
    /// shard replaces its sender; the writer notices its receiver
    /// disconnect and picks up the fresh pair.
    queues: Vec<mpsc::Sender<Item>>,
    /// Bytes currently queued per destination, paired with the queue of
    /// the same epoch (swapped together by [`HubShared::prepare_resume`];
    /// the writer decrements through its own epoch's handle). Every
    /// enqueue of an [`Item::Frame`] counts here, so the depth measures
    /// genuine queue occupancy, and [`HubShared::relay_data`] checks it
    /// against the hub's queue cap.
    depths: Vec<Arc<AtomicUsize>>,
    senders: Vec<SenderState>,
    logs: Vec<ReplayLog>,
}

/// What a hub needs to know beyond the address it listens on.
#[derive(Debug, Clone)]
pub(crate) struct HubOptions {
    /// Shard (= spoke) count.
    pub(crate) shards: usize,
    /// Per-blocking-point deadline (reads, writes, client collects).
    pub(crate) timeout: Duration,
    /// How long a dead connection may wait for a replacement before the
    /// shard is declared gone. A supervisor that restarts workers sets
    /// this to cover detection + backoff + relaunch + replay; without
    /// supervision it equals `timeout`.
    pub(crate) grace: Duration,
    /// Graph digest every worker must present (`None`: fixed by the
    /// first hello).
    pub(crate) digest: Option<u64>,
    /// Rounds of per-destination replay history to retain.
    pub(crate) replay_window: u64,
    /// Byte cap per destination relay queue ([`DEFAULT_HUB_QUEUE_CAP`]
    /// unless a test overrides it).
    pub(crate) queue_cap: usize,
}

impl HubOptions {
    pub(crate) fn new(shards: usize, timeout: Duration) -> HubOptions {
        HubOptions {
            shards,
            timeout,
            grace: timeout,
            digest: None,
            replay_window: super::replay_window(super::DEFAULT_CHECKPOINT_INTERVAL),
            queue_cap: DEFAULT_HUB_QUEUE_CAP,
        }
    }
}

/// A worker lifecycle event received as an `Event` control frame:
/// checkpoint writes, loads, and rejections a supervisor folds into
/// its flight recorder (see `super::control::EVENT_CHECKPOINT_WRITE`
/// and friends).
#[derive(Debug, Clone)]
pub struct WorkerEvent {
    /// The reporting shard.
    pub shard: u32,
    /// The round the event belongs to.
    pub round: u64,
    /// Event code (an `EVENT_*` constant; unknown codes pass through).
    pub code: u8,
    /// Human-readable detail — a checkpoint path, a rejection reason.
    pub detail: String,
}

/// A worker's end-of-run report, received as a `Stats` control frame.
#[derive(Debug, Clone)]
pub struct WorkerStats {
    /// Rounds the worker fully committed.
    pub rounds_run: u64,
    /// Protocol-level digest of the worker's final state (0 if unused).
    pub result_digest: u64,
    /// The worker's accumulated message statistics.
    pub stats: RunStats,
}

/// Result of vetting a (re)connect's resume coordinates: the rounds the
/// fresh writer queue replays plus that queue's receiver, which already
/// holds the acknowledgement and the replay.
struct Admission {
    replay_rounds: u64,
    rx: mpsc::Receiver<Item>,
    depth: Arc<AtomicUsize>,
}

struct HubShared {
    shards: usize,
    timeout: Duration,
    grace: Duration,
    relay: Mutex<RelayState>,
    conns: Vec<ConnSlot>,
    barrier: Mutex<BarrierState>,
    done: Mutex<Vec<bool>>,
    /// First failure wins; later failures are echoes of the teardown.
    fatal: Mutex<Option<SimError>>,
    /// An `Error` or final `Shutdown` broadcast has begun.
    halting: AtomicBool,
    /// The hub owner is tearing the fabric down locally.
    stopping: AtomicBool,
    /// Graph digest every worker must present. Fixed by the launcher or
    /// by the first `Hello`.
    digest: Mutex<Option<u64>>,
    /// Last `Heartbeat` (arrival instant, reported round) per shard;
    /// barrier arrivals refresh the instant too, so the age measures
    /// "time since this worker last proved liveness".
    beats: Mutex<Vec<Option<(Instant, u64)>>>,
    /// Per-shard end-of-run `Stats` reports.
    stats_slots: Mutex<Vec<Option<WorkerStats>>>,
    /// Per-shard flight-recorder round records streamed as `Trace`
    /// frames, capped at the workers' trace window — the hub-side copy
    /// of each worker's ring, which is what survives the worker's death.
    traces: Mutex<Vec<VecDeque<RoundTrace>>>,
    /// Worker lifecycle events awaiting a supervisor's drain, oldest
    /// first, capped at [`EVENT_BUFFER_CAP`].
    events: Mutex<VecDeque<WorkerEvent>>,
    /// Per-destination relay queue byte budget
    /// ([`DEFAULT_HUB_QUEUE_CAP`], overridable per hub for tests).
    queue_cap: usize,
    /// Re-registrations (epoch bumps past the first): relaunched
    /// workers.
    workers_restarted: AtomicUsize,
    /// Rounds fast-forwarded to relaunched workers from replay logs.
    rounds_replayed: AtomicUsize,
    /// Heartbeats a supervisor judged overdue before killing a worker.
    heartbeats_missed: AtomicUsize,
    /// Workers that resumed from an on-disk checkpoint (counted when
    /// their `EVENT_CHECKPOINT_LOAD` report arrives — the worker only
    /// sends it after a checkpoint actually restored).
    checkpoint_restores: AtomicUsize,
}

impl fmt::Debug for HubShared {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HubShared")
            .field("shards", &self.shards)
            .field("halting", &self.halting.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl HubShared {
    #[allow(clippy::type_complexity)]
    fn new(options: &HubOptions) -> (Arc<Self>, Vec<(mpsc::Receiver<Item>, Arc<AtomicUsize>)>) {
        let shards = options.shards;
        let mut queues = Vec::with_capacity(shards);
        let mut depths = Vec::with_capacity(shards);
        let mut receivers = Vec::with_capacity(shards);
        for _ in 0..shards {
            let (tx, rx) = mpsc::channel();
            let depth = Arc::new(AtomicUsize::new(0));
            queues.push(tx);
            depths.push(Arc::clone(&depth));
            receivers.push((rx, depth));
        }
        let shared = Arc::new(HubShared {
            shards,
            timeout: options.timeout,
            grace: options.grace.max(options.timeout),
            relay: Mutex::new(RelayState {
                queues,
                depths,
                senders: (0..shards)
                    .map(|_| SenderState {
                        ship_round: 0,
                        committed: 0,
                        sent_to: vec![false; shards],
                    })
                    .collect(),
                logs: (0..shards)
                    .map(|_| ReplayLog::new(options.replay_window))
                    .collect(),
            }),
            conns: (0..shards).map(|_| ConnSlot::default()).collect(),
            barrier: Mutex::new(BarrierState {
                round: 0,
                arrived: vec![false; shards],
                count: 0,
            }),
            done: Mutex::new(vec![false; shards]),
            fatal: Mutex::new(None),
            halting: AtomicBool::new(false),
            stopping: AtomicBool::new(false),
            digest: Mutex::new(options.digest),
            beats: Mutex::new(vec![None; shards]),
            stats_slots: Mutex::new((0..shards).map(|_| None).collect()),
            traces: Mutex::new((0..shards).map(|_| VecDeque::new()).collect()),
            events: Mutex::new(VecDeque::new()),
            queue_cap: options.queue_cap,
            workers_restarted: AtomicUsize::new(0),
            rounds_replayed: AtomicUsize::new(0),
            heartbeats_missed: AtomicUsize::new(0),
            checkpoint_restores: AtomicUsize::new(0),
        });
        (shared, receivers)
    }

    fn enqueue_all(&self, bytes: &Bytes) {
        let relay = self.relay.lock().expect("no poisoned relay state");
        for (q, depth) in relay.queues.iter().zip(&relay.depths) {
            depth.fetch_add(bytes.len(), Ordering::Relaxed);
            let _ = q.send(Item::Frame(bytes.clone()));
        }
    }

    fn finish_queues(&self) {
        let relay = self.relay.lock().expect("no poisoned relay state");
        for q in &relay.queues {
            let _ = q.send(Item::Exit);
        }
    }

    /// Relays one data frame from `from` to `dest` with exactly-once
    /// semantics across sender restarts, logging it for replay.
    ///
    /// # Errors
    ///
    /// A typed error naming `dest` when its queue has accumulated more
    /// than the hub's queue-cap byte budget — a destination that is
    /// too slow (or never connected) to drain what peers ship it. The
    /// *caller* must turn this into [`HubShared::declare_fatal`]: the
    /// teardown broadcast re-takes the relay lock held here.
    fn relay_data(&self, from: usize, dest: usize, frame: Bytes) -> Result<(), SimError> {
        let mut relay = self.relay.lock().expect("no poisoned relay state");
        let relay = &mut *relay;
        let s = &mut relay.senders[from];
        let round = s.ship_round;
        if round < s.committed {
            // A restarted worker deterministically re-shipping a round
            // the fabric already committed: a pure echo.
            return Ok(());
        }
        if s.sent_to[dest] {
            // Duplicate within the in-flight round (a partial re-ship
            // after a crash).
            return Ok(());
        }
        s.sent_to[dest] = true;
        relay.logs[dest].record(round, frame.clone());
        let queued = relay.depths[dest].fetch_add(frame.len(), Ordering::Relaxed) + frame.len();
        let _ = relay.queues[dest].send(Item::Frame(frame));
        if queued > self.queue_cap {
            return Err(SimError::Transport(TransportError {
                shard: dest,
                round: round as usize,
                cause: TransportCause::Io {
                    detail: format!(
                        "hub relay queue for shard {dest} holds {queued} bytes, over the \
                         cap of {} bytes — the destination is too slow to drain its \
                         frames or never connected",
                        self.queue_cap
                    ),
                },
            }));
        }
        Ok(())
    }

    /// Records a worker's liveness proof (heartbeat or barrier
    /// arrival).
    fn note_beat(&self, shard: usize, round: u64) {
        self.beats.lock().expect("no poisoned beats")[shard] = Some((Instant::now(), round));
    }

    fn current_round(&self) -> u64 {
        self.barrier.lock().expect("no poisoned barrier").round
    }

    /// Records the first fatal error and broadcasts `Error` + `Shutdown`
    /// to every spoke, then releases the writers. Idempotent: echoes of
    /// an ongoing teardown are dropped.
    fn declare_fatal(&self, origin: u32, error: SimError) {
        {
            let mut slot = self.fatal.lock().expect("no poisoned fatal slot");
            if slot.is_some() {
                return;
            }
            *slot = Some(error.clone());
        }
        self.halting.store(true, Ordering::SeqCst);
        self.enqueue_all(&ControlFrame::Error { origin, error }.encode());
        self.enqueue_all(&ControlFrame::Shutdown { origin }.encode());
        self.finish_queues();
        self.wake_waiters();
    }

    fn mark_done(&self, shard: usize) {
        let mut done = self.done.lock().expect("no poisoned done flags");
        if done[shard] {
            return;
        }
        done[shard] = true;
        if done.iter().all(|&d| d) {
            self.halting.store(true, Ordering::SeqCst);
            self.enqueue_all(&ControlFrame::Shutdown { origin: HUB_ORIGIN }.encode());
            self.finish_queues();
            self.wake_waiters();
        }
    }

    fn is_done(&self, shard: usize) -> bool {
        self.done.lock().expect("no poisoned done flags")[shard]
    }

    fn halted(&self) -> bool {
        self.halting.load(Ordering::SeqCst) || self.stopping.load(Ordering::SeqCst)
    }

    fn wake_waiters(&self) {
        for slot in &self.conns {
            // Touch the mutex so sleepers cannot miss the notify.
            drop(slot.state.lock().expect("no poisoned conn slot"));
            slot.changed.notify_all();
        }
    }

    /// One shard's round barrier arrived. When the round is complete the
    /// acknowledgement is enqueued to every destination *under the
    /// barrier lock*, which orders it after every reader's enqueues of
    /// that round's data frames.
    ///
    /// Re-admission rules: a barrier at the sender's connection-local
    /// `ship_round` but below `committed` is a relaunched worker's echo
    /// (advances `ship_round` only); a barrier at
    /// `ship_round == committed` is live and goes through the global
    /// barrier as always; any other round is a desync.
    fn on_barrier(&self, from: usize, round: u64) -> Result<(), SimError> {
        self.note_beat(from, round);
        let mut b = self.barrier.lock().expect("no poisoned barrier");
        let mut relay = self.relay.lock().expect("no poisoned relay state");
        let relay = &mut *relay;
        let s = &mut relay.senders[from];
        if round == s.ship_round && round < s.committed {
            s.ship_round = round + 1;
            return Ok(());
        }
        if round != b.round || round != s.ship_round || b.arrived[from] {
            return Err(SimError::Transport(TransportError {
                shard: from,
                round: b.round as usize,
                cause: TransportCause::Io {
                    detail: format!(
                        "barrier desync: shard {from} closed round {round} while the fabric is in round {}",
                        b.round
                    ),
                },
            }));
        }
        b.arrived[from] = true;
        b.count += 1;
        s.ship_round = round + 1;
        s.committed = round + 1;
        s.sent_to.fill(false);
        if b.count == self.shards {
            let ack = ControlFrame::RoundBarrier { round }.encode();
            b.round += 1;
            b.count = 0;
            b.arrived.fill(false);
            for dest in 0..self.shards {
                relay.logs[dest].record(round, ack.clone());
                relay.depths[dest].fetch_add(ack.len(), Ordering::Relaxed);
                let _ = relay.queues[dest].send(Item::Frame(ack.clone()));
            }
            for log in &mut relay.logs {
                log.evict_committed(b.round);
            }
        }
        Ok(())
    }

    /// Vets a connection's resume round and atomically swaps in a fresh
    /// writer queue for `conn`, headed by `ack` and the replay suffix
    /// from that round on: sets the sender's connection-local ship round
    /// and replaces the queue under the relay lock, so no live frame can
    /// precede the acknowledgement or the replay. The caller then
    /// registers the connection, which hands the stream and the fresh
    /// receiver to the writer. A round the fabric has not committed, or
    /// one below the replay floor, is refused with the reason.
    fn prepare_resume(
        &self,
        conn: usize,
        resume_round: u64,
        ack: Bytes,
    ) -> Result<Admission, String> {
        let mut relay = self.relay.lock().expect("no poisoned relay state");
        let relay = &mut *relay;
        let committed = relay.senders[conn].committed;
        if resume_round > committed {
            return Err(format!(
                "shard {conn} asked to resume at round {resume_round}, above the \
                 {committed} rounds the fabric committed for it"
            ));
        }
        let (replay, replay_rounds) = match relay.logs[conn].snapshot_from(resume_round) {
            Snapshot::Entries { frames, rounds } => (frames, rounds),
            Snapshot::Evicted { floor } => {
                return Err(format!(
                    "shard {conn} asked to resume at round {resume_round}, below the \
                     replay floor: the oldest retained round is {floor}"
                ));
            }
        };
        relay.senders[conn].ship_round = resume_round;
        let (tx, rx) = mpsc::channel();
        for frame in std::iter::once(ack).chain(replay) {
            let _ = tx.send(Item::Replay(frame));
        }
        let depth = Arc::new(AtomicUsize::new(0));
        relay.queues[conn] = tx;
        relay.depths[conn] = Arc::clone(&depth);
        Ok(Admission {
            replay_rounds,
            rx,
            depth,
        })
    }

    /// Installs (or replaces, for a relaunched worker) shard `shard`'s
    /// connection and wakes any reader/writer waiting out a dead stream.
    /// `rx` is the receiver of the queue [`HubShared::prepare_resume`]
    /// swapped in for this epoch.
    fn register_conn(
        &self,
        shard: usize,
        stream: Stream,
        rx: mpsc::Receiver<Item>,
        depth: Arc<AtomicUsize>,
    ) -> io::Result<()> {
        let _ = stream.set_read_timeout(Some(READ_TICK));
        let _ = stream.set_write_timeout(Some(self.timeout));
        let read = stream.try_clone()?;
        let keep = stream.try_clone()?;
        let slot = &self.conns[shard];
        let mut state = slot.state.lock().expect("no poisoned conn slot");
        if let Some(old) = state.current.take() {
            old.shutdown_both();
        }
        state.epoch += 1;
        state.fresh_read = Some(read);
        state.fresh_write = Some(stream);
        state.fresh_rx = Some((rx, depth));
        state.current = Some(keep);
        drop(state);
        slot.changed.notify_all();
        Ok(())
    }

    /// Validates a `Hello` against the fabric's expectations. Returns a
    /// handshake failure detail on mismatch.
    fn vet_hello(&self, conn: usize, hello: &ControlFrame) -> Result<(), String> {
        let ControlFrame::Hello {
            shard,
            frame_version,
            graph_digest,
            ..
        } = hello
        else {
            return Err("first frame was not a hello".into());
        };
        if *shard as usize != conn {
            return Err(format!(
                "peer identified as shard {shard}, expected shard {conn}"
            ));
        }
        if *frame_version != u32::from(FRAME_VERSION) {
            return Err(format!(
                "peer encodes frame version {frame_version}, this hub decodes only v{FRAME_VERSION}"
            ));
        }
        let mut expected = self.digest.lock().expect("no poisoned digest");
        match *expected {
            Some(want) if want != *graph_digest => Err(format!(
                "graph digest mismatch: peer loaded {graph_digest:#018x}, fabric expects {want:#018x}"
            )),
            Some(_) => Ok(()),
            None => {
                *expected = Some(*graph_digest);
                Ok(())
            }
        }
    }

    /// Takes the fresh read half installed by [`Self::register_conn`].
    fn take_fresh_read(&self, conn: usize) -> Option<(Stream, u64)> {
        let mut state = self.conns[conn]
            .state
            .lock()
            .expect("no poisoned conn slot");
        state.fresh_read.take().map(|s| (s, state.epoch))
    }

    /// Waits up to the supervision grace window for a relaunched
    /// worker's connection to supply a newer read half than `epoch`.
    fn await_read_replacement(&self, conn: usize, epoch: u64) -> Option<(Stream, u64)> {
        let slot = &self.conns[conn];
        let deadline = Instant::now() + self.grace;
        let mut state = slot.state.lock().expect("no poisoned conn slot");
        loop {
            if self.stopping.load(Ordering::SeqCst) {
                return None;
            }
            if state.epoch > epoch {
                if let Some(s) = state.fresh_read.take() {
                    return Some((s, state.epoch));
                }
                // The matching half was already claimed by a newer
                // thread; this stale waiter bows out.
                return None;
            }
            let remaining = deadline
                .checked_duration_since(Instant::now())
                .filter(|d| !d.is_zero())?;
            let (next, _timed_out) = slot
                .changed
                .wait_timeout(state, remaining)
                .expect("no poisoned conn slot");
            state = next;
        }
    }

    /// Waits up to the supervision grace window for a registration newer
    /// than `epoch` to supply the writer a fresh write half *and* the
    /// receiver of the freshly-swapped queue (they travel together: a
    /// stream is only ever paired with its own epoch's queue).
    #[allow(clippy::type_complexity)]
    fn await_write_replacement(
        &self,
        conn: usize,
        epoch: u64,
    ) -> Option<(Stream, mpsc::Receiver<Item>, Arc<AtomicUsize>, u64)> {
        let slot = &self.conns[conn];
        let deadline = Instant::now() + self.grace;
        let mut state = slot.state.lock().expect("no poisoned conn slot");
        loop {
            if self.stopping.load(Ordering::SeqCst) {
                return None;
            }
            if state.epoch > epoch {
                if let (Some(s), Some((rx, depth))) =
                    (state.fresh_write.take(), state.fresh_rx.take())
                {
                    return Some((s, rx, depth, state.epoch));
                }
                return None;
            }
            let remaining = deadline
                .checked_duration_since(Instant::now())
                .filter(|d| !d.is_zero())?;
            let (next, _timed_out) = slot
                .changed
                .wait_timeout(state, remaining)
                .expect("no poisoned conn slot");
            state = next;
        }
    }
}

/// The hub's `Hello` acknowledgement, which heads the fresh writer queue
/// of every admission — ahead of the replay and of any live frame.
fn hello_ack(shared: &HubShared, conn: usize) -> Bytes {
    ControlFrame::Hello {
        shard: conn as u32,
        frame_version: u32::from(FRAME_VERSION),
        graph_digest: shared
            .digest
            .lock()
            .expect("no poisoned digest")
            .unwrap_or(0),
        resume_round: 0,
    }
    .encode()
}

/// The resume round carried by a vetted `Hello`.
fn hello_resume(hello: &ControlFrame) -> u64 {
    match hello {
        ControlFrame::Hello { resume_round, .. } => *resume_round,
        _ => unreachable!("caller matched this frame as a hello"),
    }
}

/// Why an admission failed: a refused resume round (fabric-fatal)
/// versus the fresh link failing mid-admission (not fatal: the worker
/// fails on its own link, and its relaunch connects anew).
enum AdmitError {
    Refused(String),
    Link(String),
}

/// Admits a vetted connection: swaps in a fresh writer queue headed by
/// the acknowledgement and the replay suffix, then registers the stream
/// with that queue, releasing the shard's reader and writer into the new
/// epoch. The writer alone writes to the stream from then on, while the
/// reader drains it at once — so a large replay cannot stall against a
/// peer that is already shipping its own frames.
fn admit_conn(
    shared: &Arc<HubShared>,
    conn: usize,
    hello: &ControlFrame,
    mut stream: Stream,
) -> Result<(), AdmitError> {
    let ack = hello_ack(shared, conn);
    let admission = match shared.prepare_resume(conn, hello_resume(hello), ack) {
        Ok(admission) => admission,
        Err(detail) => {
            // Tell the connector why before hanging up.
            let refusal = refusal_frame(conn, detail.clone());
            let _ = stream
                .write_all(refusal.as_slice())
                .and_then(|()| stream.flush());
            stream.shutdown_both();
            return Err(AdmitError::Refused(detail));
        }
    };
    let rejoin = {
        let state = shared.conns[conn]
            .state
            .lock()
            .expect("no poisoned conn slot");
        state.epoch > 0
    };
    if rejoin {
        shared.workers_restarted.fetch_add(1, Ordering::Relaxed);
        // Only re-admissions count as recovery: a *first* admission can
        // also replay (a fast peer's frames recorded before this shard
        // registered get re-sent from the log across the queue swap),
        // but that is ordinary startup skew, not a heal.
        if admission.replay_rounds > 0 {
            shared
                .rounds_replayed
                .fetch_add(admission.replay_rounds as usize, Ordering::Relaxed);
        }
    }
    shared
        .register_conn(conn, stream, admission.rx, admission.depth)
        .map_err(|e| AdmitError::Link(format!("connection registration failed: {e}")))?;
    Ok(())
}

/// Pairs-mode connection driver: handshake on the raw hub-side stream,
/// then admit it (releasing the writer, whose fresh queue starts with
/// the acknowledgement) and relay.
fn run_pairs_conn(shared: &Arc<HubShared>, conn: usize, mut stream: Stream) {
    let _ = stream.set_read_timeout(Some(shared.timeout));
    let _ = stream.set_write_timeout(Some(shared.timeout));
    let fail = |detail: String| {
        shared.declare_fatal(
            conn as u32,
            SimError::Transport(TransportError {
                shard: conn,
                round: 0,
                cause: TransportCause::Handshake { detail },
            }),
        );
    };
    let hello = match read_wire_frame(&mut stream) {
        Ok(Wire::Control(hello @ ControlFrame::Hello { .. })) => hello,
        Ok(_) => return fail("first frame was not a hello".into()),
        Err(ReadEnd::Tick | ReadEnd::Stalled) => {
            return fail("no hello within the handshake deadline".into())
        }
        Err(_) => return fail("connection lost during the handshake".into()),
    };
    if let Err(detail) = shared.vet_hello(conn, &hello) {
        return fail(detail);
    }
    if let Err(AdmitError::Refused(detail) | AdmitError::Link(detail)) =
        admit_conn(shared, conn, &hello, stream)
    {
        return fail(detail);
    }
    run_reader(shared, conn);
}

/// Relay loop for one shard's incoming stream (handshake already done by
/// [`run_pairs_conn`] or the accept thread; the stream arrives via
/// [`HubShared::register_conn`]).
fn run_reader(shared: &Arc<HubShared>, conn: usize) {
    let Some((mut stream, mut epoch)) = shared.take_fresh_read(conn) else {
        return;
    };
    loop {
        if shared.halted() {
            return;
        }
        match read_wire_frame(&mut stream) {
            Ok(Wire::Data(frame)) => {
                let (sender, dest) = data_addressing(&frame);
                if sender != conn {
                    shared.declare_fatal(
                        conn as u32,
                        SimError::Frame {
                            shard: conn,
                            round: shared.current_round() as usize,
                            error: FrameError::Misrouted {
                                expected: conn,
                                found: sender,
                            },
                        },
                    );
                    return;
                }
                if dest >= shared.shards {
                    shared.declare_fatal(
                        conn as u32,
                        SimError::Transport(TransportError {
                            shard: conn,
                            round: shared.current_round() as usize,
                            cause: TransportCause::Io {
                                detail: format!("frame addressed to nonexistent shard {dest}"),
                            },
                        }),
                    );
                    return;
                }
                if let Err(error) = shared.relay_data(conn, dest, frame) {
                    // Queue cap breach: declared fatal *here*, outside
                    // the relay lock the breach was detected under.
                    shared.declare_fatal(conn as u32, error);
                    return;
                }
            }
            Ok(Wire::Control(ControlFrame::RoundBarrier { round })) => {
                if let Err(error) = shared.on_barrier(conn, round) {
                    shared.declare_fatal(conn as u32, error);
                    return;
                }
            }
            Ok(Wire::Control(ControlFrame::Heartbeat { round, .. })) => {
                shared.note_beat(conn, round);
            }
            Ok(Wire::Control(ControlFrame::Stats {
                rounds_run,
                result_digest,
                stats,
                ..
            })) => {
                shared.stats_slots.lock().expect("no poisoned stats")[conn] = Some(WorkerStats {
                    rounds_run,
                    result_digest,
                    stats,
                });
            }
            Ok(Wire::Control(ControlFrame::Trace { records, .. })) => {
                let mut traces = shared.traces.lock().expect("no poisoned traces");
                let ring = &mut traces[conn];
                for record in records {
                    if ring.len() == crate::trace::TRACE_WINDOW {
                        ring.pop_front();
                    }
                    ring.push_back(record);
                }
            }
            Ok(Wire::Control(ControlFrame::Event {
                shard,
                round,
                code,
                detail,
            })) => {
                if code == super::control::EVENT_CHECKPOINT_LOAD {
                    shared.checkpoint_restores.fetch_add(1, Ordering::Relaxed);
                }
                let mut events = shared.events.lock().expect("no poisoned events");
                if events.len() == EVENT_BUFFER_CAP {
                    events.pop_front();
                }
                events.push_back(WorkerEvent {
                    shard,
                    round,
                    code,
                    detail,
                });
            }
            Ok(Wire::Control(ControlFrame::Error { origin, error })) => {
                shared.declare_fatal(origin, error);
                return;
            }
            Ok(Wire::Control(ControlFrame::Shutdown { .. })) => {
                shared.mark_done(conn);
                return;
            }
            Ok(Wire::Control(ControlFrame::Hello { .. })) => {
                shared.declare_fatal(
                    conn as u32,
                    SimError::Transport(TransportError {
                        shard: conn,
                        round: shared.current_round() as usize,
                        cause: TransportCause::Io {
                            detail: "unexpected hello mid-stream".into(),
                        },
                    }),
                );
                return;
            }
            Err(ReadEnd::Tick) => {}
            Err(ReadEnd::Eof | ReadEnd::Io(_)) => {
                if shared.is_done(conn) || shared.halted() {
                    return;
                }
                // Grace window: a relaunched worker's connection may
                // replace this stream. A close mid-frame (SIGKILL
                // mid-ship) is recoverable too: the fresh stream starts
                // at a frame boundary and the relay's exactly-once
                // accounting absorbs the re-ship.
                if let Some((fresh, e)) = shared.await_read_replacement(conn, epoch) {
                    stream = fresh;
                    epoch = e;
                    continue;
                }
                if !shared.halted() {
                    shared.declare_fatal(
                        conn as u32,
                        SimError::Transport(TransportError {
                            shard: conn,
                            round: shared.current_round() as usize,
                            cause: TransportCause::Disconnected,
                        }),
                    );
                }
                return;
            }
            Err(ReadEnd::Stalled) => {
                shared.declare_fatal(
                    conn as u32,
                    SimError::Transport(TransportError {
                        shard: conn,
                        round: shared.current_round() as usize,
                        cause: TransportCause::Io {
                            detail: "stream stalled mid-frame".into(),
                        },
                    }),
                );
                return;
            }
            Err(ReadEnd::Desync(detail)) => {
                shared.declare_fatal(
                    conn as u32,
                    SimError::Transport(TransportError {
                        shard: conn,
                        round: shared.current_round() as usize,
                        cause: TransportCause::Io { detail },
                    }),
                );
                return;
            }
        }
    }
}

/// Write loop for one shard's outgoing stream.
///
/// The writer starts with no stream at all: every admission — including
/// the first — swaps the shard's queue and hands the writer a `(stream,
/// queue receiver)` pair for the new epoch, the queue headed by the
/// hello acknowledgement and the replay. When its receiver
/// disconnects (the queue was swapped for a newer epoch) the writer
/// waits out the grace window for the replacement pair. Frames that
/// cannot be written — no stream yet, or a mid-epoch write failure —
/// are *dropped*, never retained across epochs: every data frame and
/// barrier ack is in the destination's replay log, so the next
/// admission re-delivers them in order, and retaining a stale copy
/// would double-deliver. (Un-logged `Error`/`Shutdown` broadcasts can
/// be lost in this narrow window; the client then ends on its own
/// bounded timeout instead — still typed, never a hang.)
///
/// Declaring the shard gone is the *reader's* job (it owns the grace
/// deadline); the writer just bows out quietly when no replacement
/// comes.
fn run_writer(
    shared: &Arc<HubShared>,
    conn: usize,
    rx: mpsc::Receiver<Item>,
    depth: Arc<AtomicUsize>,
) {
    let mut rx = rx;
    let mut depth = depth;
    let mut stream: Option<Stream> = None;
    let mut epoch = 0u64;
    loop {
        let bytes = match rx.recv_timeout(READ_TICK) {
            Ok(Item::Exit) => {
                if let Some(s) = &mut stream {
                    let _ = s.flush();
                    s.shutdown_both();
                }
                return;
            }
            Ok(Item::Frame(bytes)) => {
                // Dequeued: off the books whether or not the write
                // lands (a failed write drops the frame too).
                depth.fetch_sub(bytes.len(), Ordering::Relaxed);
                bytes
            }
            Ok(Item::Replay(bytes)) => bytes,
            Err(mpsc::RecvTimeoutError::Timeout) => {
                if shared.stopping.load(Ordering::SeqCst) {
                    if let Some(s) = &mut stream {
                        let _ = s.flush();
                    }
                    return;
                }
                continue;
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                match shared.await_write_replacement(conn, epoch) {
                    Some((s, fresh_rx, fresh_depth, e)) => {
                        stream = Some(s);
                        rx = fresh_rx;
                        depth = fresh_depth;
                        epoch = e;
                    }
                    None => return,
                }
                continue;
            }
        };
        let Some(s) = stream.as_mut() else {
            continue; // no stream this epoch: replay covers it
        };
        if s.write_all(bytes.as_slice())
            .and_then(|()| s.flush())
            .is_err()
        {
            // The stream died mid-epoch. Drop the frame (the replay log
            // has it) and keep draining; the relaunched worker's
            // admission swaps the queue, which lands us in the
            // disconnected arm above.
            stream = None;
        }
    }
}

/// The routing core shared by the in-process mesh and the
/// process-per-shard launcher. Owns the relay threads; joined (with all
/// blocking bounded) by [`Hub::stop_and_join`].
#[derive(Debug)]
pub(crate) struct Hub {
    shared: Arc<HubShared>,
    threads: Arc<Mutex<Vec<JoinHandle<()>>>>,
    unix_path: Option<PathBuf>,
}

impl Hub {
    /// In-process fabric over `UnixStream::pair()`s — no listener, no
    /// filesystem, no relaunch. Returns the hub and the client-side
    /// stream of each shard.
    fn new_pairs(shards: usize, timeout: Duration) -> io::Result<(Hub, Vec<Stream>)> {
        let (shared, receivers) = HubShared::new(&HubOptions::new(shards, timeout));
        let threads = Arc::new(Mutex::new(Vec::new()));
        let mut client_halves = Vec::with_capacity(shards);
        {
            let mut handles = threads.lock().expect("no poisoned thread list");
            for (conn, (rx, depth)) in receivers.into_iter().enumerate() {
                let hub_shared = Arc::clone(&shared);
                handles.push(
                    std::thread::Builder::new()
                        .name(format!("hub-writer-{conn}"))
                        .spawn(move || run_writer(&hub_shared, conn, rx, depth))
                        .expect("spawn hub writer"),
                );
            }
            for conn in 0..shards {
                let (client, hub_side) = UnixStream::pair()?;
                client_halves.push(Stream::Unix(client));
                let hub_shared = Arc::clone(&shared);
                handles.push(
                    std::thread::Builder::new()
                        .name(format!("hub-reader-{conn}"))
                        .spawn(move || run_pairs_conn(&hub_shared, conn, Stream::Unix(hub_side)))
                        .expect("spawn hub reader"),
                );
            }
        }
        Ok((
            Hub {
                shared,
                threads,
                unix_path: None,
            },
            client_halves,
        ))
    }

    /// Listening fabric for independent clients (worker processes, or
    /// in-process TCP tests). The accept loop handshakes each
    /// connection, installs it by shard id — replacing a dead
    /// connection when its worker is relaunched — and keeps accepting
    /// until the fabric halts.
    pub(crate) fn listen(
        addr: &HubAddr,
        shards: usize,
        timeout: Duration,
        expected_digest: Option<u64>,
    ) -> io::Result<(Hub, HubAddr)> {
        let mut options = HubOptions::new(shards, timeout);
        options.digest = expected_digest;
        Self::listen_with(addr, options)
    }

    /// [`Hub::listen`] with full [`HubOptions`] control (supervision
    /// grace, replay window).
    pub(crate) fn listen_with(addr: &HubAddr, options: HubOptions) -> io::Result<(Hub, HubAddr)> {
        let (listener, bound) = match addr {
            HubAddr::Unix(path) => (
                Listener::Unix(UnixListener::bind(path)?),
                HubAddr::Unix(path.clone()),
            ),
            HubAddr::Tcp(req) => {
                let l = TcpListener::bind(req)?;
                let actual = l.local_addr()?;
                (Listener::Tcp(l), HubAddr::Tcp(actual))
            }
        };
        listener.set_nonblocking(true)?;
        let (shared, receivers) = HubShared::new(&options);
        let threads = Arc::new(Mutex::new(Vec::new()));
        {
            let mut handles = threads.lock().expect("no poisoned thread list");
            for (conn, (rx, depth)) in receivers.into_iter().enumerate() {
                let hub_shared = Arc::clone(&shared);
                handles.push(
                    std::thread::Builder::new()
                        .name(format!("hub-writer-{conn}"))
                        .spawn(move || run_writer(&hub_shared, conn, rx, depth))
                        .expect("spawn hub writer"),
                );
            }
            let accept_shared = Arc::clone(&shared);
            let accept_threads = Arc::clone(&threads);
            handles.push(
                std::thread::Builder::new()
                    .name("hub-accept".into())
                    .spawn(move || run_accept(&accept_shared, &accept_threads, &listener))
                    .expect("spawn hub accept loop"),
            );
        }
        let unix_path = match &bound {
            HubAddr::Unix(path) => Some(path.clone()),
            HubAddr::Tcp(_) => None,
        };
        Ok((
            Hub {
                shared,
                threads,
                unix_path,
            },
            bound,
        ))
    }

    /// The first fatal error the fabric recorded, if any.
    pub(crate) fn first_error(&self) -> Option<SimError> {
        self.shared
            .fatal
            .lock()
            .expect("no poisoned fatal slot")
            .clone()
    }

    /// The fabric's current barrier round (rounds fully committed by
    /// every shard). A supervisor watches this for global stalls.
    pub(crate) fn barrier_round(&self) -> u64 {
        self.shared.current_round()
    }

    /// Per-shard committed round counts — how far each shard's inputs
    /// have been durably folded into the barrier. The least-advanced
    /// not-yet-done shard is the prime wedge suspect.
    pub(crate) fn committed_rounds(&self) -> Vec<u64> {
        let relay = self.shared.relay.lock().expect("no poisoned relay state");
        relay.senders.iter().map(|s| s.committed).collect()
    }

    /// Per-shard liveness: `(age of last proof, round it reported)`.
    /// Heartbeats and barrier arrivals both refresh it.
    pub(crate) fn beat_ages(&self) -> Vec<Option<(Duration, u64)>> {
        let beats = self.shared.beats.lock().expect("no poisoned beats");
        beats
            .iter()
            .map(|b| b.map(|(at, round)| (at.elapsed(), round)))
            .collect()
    }

    /// Which shards have announced orderly completion.
    pub(crate) fn done_flags(&self) -> Vec<bool> {
        self.shared
            .done
            .lock()
            .expect("no poisoned done flags")
            .clone()
    }

    /// Per-shard end-of-run reports received as `Stats` frames.
    pub(crate) fn worker_stats(&self) -> Vec<Option<WorkerStats>> {
        self.shared
            .stats_slots
            .lock()
            .expect("no poisoned stats")
            .clone()
    }

    /// Per-shard flight-recorder records streamed as `Trace` frames
    /// (chronological, capped at the trace window). Empty vectors for
    /// untraced runs. This is the hub's copy of each worker's ring, so
    /// it covers workers that are already dead.
    pub(crate) fn worker_traces(&self) -> Vec<Vec<RoundTrace>> {
        let traces = self.shared.traces.lock().expect("no poisoned traces");
        traces.iter().map(|d| d.iter().copied().collect()).collect()
    }

    /// `(workers_restarted, rounds_replayed, heartbeats_missed,
    /// checkpoint_restores)` so far.
    pub(crate) fn recovery_counters(&self) -> (usize, usize, usize, usize) {
        (
            self.shared.workers_restarted.load(Ordering::Relaxed),
            self.shared.rounds_replayed.load(Ordering::Relaxed),
            self.shared.heartbeats_missed.load(Ordering::Relaxed),
            self.shared.checkpoint_restores.load(Ordering::Relaxed),
        )
    }

    /// Drains the buffered worker lifecycle events (checkpoint writes,
    /// loads, rejections) in arrival order. The hub-side buffer is what
    /// survives a worker's death, exactly like the trace rings.
    pub(crate) fn take_worker_events(&self) -> Vec<WorkerEvent> {
        self.shared
            .events
            .lock()
            .expect("no poisoned events")
            .drain(..)
            .collect()
    }

    /// A supervisor judged a heartbeat overdue (before acting on it).
    pub(crate) fn note_missed_heartbeat(&self) {
        self.shared
            .heartbeats_missed
            .fetch_add(1, Ordering::Relaxed);
    }

    /// A supervisor exhausted its restart budget for `shard`: end the
    /// run with a typed error naming it, releasing every peer.
    pub(crate) fn declare_lost(&self, shard: usize, detail: String) {
        self.shared.declare_fatal(
            shard as u32,
            SimError::Transport(TransportError {
                shard,
                round: self.shared.current_round() as usize,
                cause: TransportCause::Io { detail },
            }),
        );
    }

    /// Waits (polling) until the fabric halts — all shards shut down
    /// orderly, or a fatal error was broadcast — or `limit` elapses.
    /// Returns whether it halted.
    pub(crate) fn wait_halted(&self, limit: Duration) -> bool {
        let deadline = Instant::now() + limit;
        while !self.shared.halting.load(Ordering::SeqCst) {
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        true
    }

    /// Tears the fabric down: closes every connection, releases every
    /// thread (all blocking in the hub is tick- or timeout-bounded), and
    /// joins them. Safe to call on an already-halted hub.
    pub(crate) fn stop_and_join(&mut self) {
        self.shared.stopping.store(true, Ordering::SeqCst);
        self.shared.finish_queues();
        for slot in &self.shared.conns {
            let state = slot.state.lock().expect("no poisoned conn slot");
            if let Some(s) = &state.current {
                s.shutdown_both();
            }
        }
        self.shared.wake_waiters();
        let handles = std::mem::take(&mut *self.threads.lock().expect("no poisoned thread list"));
        for handle in handles {
            let _ = handle.join();
        }
        if let Some(path) = self.unix_path.take() {
            let _ = std::fs::remove_file(path);
        }
    }

    /// Kills shard `shard`'s current connection (fault-injection tests).
    /// Waits for the registration if the accept thread has not finished
    /// it yet — the client learns the handshake result slightly before
    /// the hub records the connection.
    #[cfg(test)]
    fn sever(&self, shard: usize) {
        for _ in 0..1000 {
            {
                let state = self.shared.conns[shard]
                    .state
                    .lock()
                    .expect("no poisoned conn slot");
                if let Some(s) = &state.current {
                    s.shutdown_both();
                    return;
                }
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        panic!("no connection to sever for shard {shard}");
    }
}

impl Drop for Hub {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

#[derive(Debug)]
enum Listener {
    Unix(UnixListener),
    Tcp(TcpListener),
}

impl Listener {
    fn set_nonblocking(&self, nb: bool) -> io::Result<()> {
        match self {
            Listener::Unix(l) => l.set_nonblocking(nb),
            Listener::Tcp(l) => l.set_nonblocking(nb),
        }
    }

    fn accept(&self) -> io::Result<Stream> {
        match self {
            Listener::Unix(l) => l.accept().map(|(s, _)| Stream::Unix(s)),
            Listener::Tcp(l) => l.accept().map(|(s, _)| Stream::Tcp(s)),
        }
    }
}

/// Accept loop of a listening hub: handshake, register (a first connect
/// or a relaunched worker's), spawn the reader on first registration.
fn run_accept(
    shared: &Arc<HubShared>,
    threads: &Arc<Mutex<Vec<JoinHandle<()>>>>,
    listener: &Listener,
) {
    while !shared.halted() {
        let mut stream = match listener.accept() {
            Ok(s) => s,
            Err(e) if is_timeout(&e) => {
                std::thread::sleep(Duration::from_millis(25));
                continue;
            }
            Err(_) => return,
        };
        let _ = stream.set_read_timeout(Some(shared.timeout));
        let _ = stream.set_write_timeout(Some(shared.timeout));
        let hello = match read_wire_frame(&mut stream) {
            Ok(Wire::Control(hello @ ControlFrame::Hello { .. })) => hello,
            _ => {
                // Not a worker (or it died mid-hello): refuse quietly.
                stream.shutdown_both();
                continue;
            }
        };
        let ControlFrame::Hello { shard, .. } = &hello else {
            unreachable!("matched as hello above");
        };
        let conn = *shard as usize;
        if conn >= shared.shards {
            let refusal = refusal_frame(
                conn,
                format!("shard {conn} outside the fabric's 0..{}", shared.shards),
            );
            let _ = stream.write_all(refusal.as_slice());
            stream.shutdown_both();
            continue;
        }
        if let Err(detail) = shared.vet_hello(conn, &hello) {
            // Tell the connector why, then refuse fabric-wide: a worker
            // that loaded the wrong graph poisons the whole run.
            let refusal = refusal_frame(conn, detail.clone());
            let _ = stream.write_all(refusal.as_slice());
            stream.shutdown_both();
            shared.declare_fatal(
                conn as u32,
                SimError::Transport(TransportError {
                    shard: conn,
                    round: 0,
                    cause: TransportCause::Handshake { detail },
                }),
            );
            continue;
        }
        let first_registration = {
            let state = shared.conns[conn]
                .state
                .lock()
                .expect("no poisoned conn slot");
            state.epoch == 0
        };
        // Acknowledgement and replay head the fresh writer queue, so
        // queued traffic from fast peers can never overtake either.
        match admit_conn(shared, conn, &hello, stream) {
            Ok(()) => {}
            Err(AdmitError::Refused(detail)) => {
                // A resume round the hub cannot serve poisons the run
                // the same way a wrong graph does: refuse fabric-wide,
                // typed. No history fits the claim, so the run ends.
                shared.declare_fatal(
                    conn as u32,
                    SimError::Transport(TransportError {
                        shard: conn,
                        round: shared.current_round() as usize,
                        cause: TransportCause::Handshake { detail },
                    }),
                );
                continue;
            }
            Err(AdmitError::Link(_)) => {
                // The peer died mid-admission; its relaunch connects
                // anew.
                continue;
            }
        }
        if first_registration {
            let hub_shared = Arc::clone(shared);
            let handle = std::thread::Builder::new()
                .name(format!("hub-reader-{conn}"))
                .spawn(move || run_reader(&hub_shared, conn))
                .expect("spawn hub reader");
            threads
                .lock()
                .expect("no poisoned thread list")
                .push(handle);
        }
    }
}

fn refusal_frame(shard: usize, detail: String) -> Bytes {
    ControlFrame::Error {
        origin: HUB_ORIGIN,
        error: SimError::Transport(TransportError {
            shard,
            round: 0,
            cause: TransportCause::Handshake { detail },
        }),
    }
    .encode()
}

// ---------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------

/// One shard's endpoint of the socket fabric: sends this shard's frames
/// (auto-closing each round with a `RoundBarrier` after `shards` sends),
/// and collects the round's incoming frames with a deadline.
///
/// Used in-process by [`SocketTransport`] and directly by
/// [`super::run_worker`] in worker processes. All blocking is bounded by
/// the configured timeout; every terminal failure is sticky and typed.
/// A client never redials: recovering a shard whose link died is the
/// supervisor's job, by relaunching its worker.
#[derive(Debug)]
pub struct HubClient {
    shard: usize,
    shards: usize,
    timeout: Duration,
    /// Shared with the heartbeat pacer thread: *all* writes to the hub
    /// go through this one mutex, because interleaving two writers'
    /// partial writes on one stream would desynchronize the framing.
    link: Arc<Mutex<Stream>>,
    sends_this_round: AtomicUsize,
    /// Shared with the pacer so heartbeats report the round being
    /// shipped.
    barrier_round: Arc<AtomicU64>,
    collect_round: AtomicU64,
    /// The running heartbeat pacer, if [`HubClient::start_heartbeats`]
    /// was called; stopped and joined on drop.
    pacer: Mutex<Option<Pacer>>,
    /// Data frames that arrived ahead of their round (a fast peer can
    /// legally run one round ahead of this shard's collect).
    pending: Mutex<VecDeque<Bytes>>,
    /// The structured error a peer reported via an `Error` frame.
    remote: Mutex<Option<SimError>>,
    /// First local transport failure; sticky — every later send is a
    /// no-op and every later collect returns it again.
    fatal: Mutex<Option<TransportError>>,
    collect_wait_ns: AtomicU64,
}

/// A running heartbeat pacer thread and its stop flag.
#[derive(Debug)]
struct Pacer {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<()>,
}

impl HubClient {
    /// Dials a listening hub and performs the `Hello` handshake for a
    /// process that starts at `resume_round`: 0 on a first launch, or the
    /// round of the checkpoint a relaunched worker restored. The hub
    /// replays every inbound frame from that round on and treats
    /// re-shipped earlier rounds as echoes.
    ///
    /// # Errors
    ///
    /// A typed [`TransportError`] when the dial, the handshake exchange,
    /// or the hub's validation fails: cause
    /// [`TransportCause::Handshake`] for refusals — a resume round below
    /// the hub's replay floor or above the rounds it committed included
    /// — and `Io`/`Timeout` for link trouble.
    pub fn connect(
        addr: &HubAddr,
        shard: usize,
        shards: usize,
        graph_digest: u64,
        timeout: Duration,
        resume_round: u64,
    ) -> Result<HubClient, TransportError> {
        let stream = addr.connect(timeout).map_err(|e| TransportError {
            shard,
            round: 0,
            cause: TransportCause::Io {
                detail: format!("connect to {addr} failed: {e}"),
            },
        })?;
        Self::handshaken(stream, shard, shards, graph_digest, timeout, resume_round)
    }

    /// Performs the handshake on a connected stream and wraps it.
    fn handshaken(
        mut stream: Stream,
        shard: usize,
        shards: usize,
        graph_digest: u64,
        timeout: Duration,
        resume_round: u64,
    ) -> Result<HubClient, TransportError> {
        handshake(&mut stream, shard, graph_digest, resume_round, timeout).map_err(|cause| {
            TransportError {
                shard,
                round: 0,
                cause,
            }
        })?;
        Ok(HubClient {
            shard,
            shards,
            timeout,
            link: Arc::new(Mutex::new(stream)),
            sends_this_round: AtomicUsize::new(0),
            barrier_round: Arc::new(AtomicU64::new(resume_round)),
            collect_round: AtomicU64::new(resume_round),
            pacer: Mutex::new(None),
            pending: Mutex::new(VecDeque::new()),
            remote: Mutex::new(None),
            fatal: Mutex::new(None),
            collect_wait_ns: AtomicU64::new(0),
        })
    }

    /// This client's shard index.
    #[must_use]
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// Shard count of the fabric.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The structured error a peer reported, if any — richer than the
    /// rendered [`TransportCause::Remote`] the collect error carries.
    #[must_use]
    pub fn remote_error(&self) -> Option<SimError> {
        self.remote.lock().expect("no poisoned remote slot").clone()
    }

    /// Transport health counters accumulated so far.
    #[must_use]
    pub fn health(&self) -> TransportHealth {
        TransportHealth {
            collect_wait_ns: self.collect_wait_ns.load(Ordering::Relaxed),
            ..TransportHealth::default()
        }
    }

    /// Starts a background pacer that writes a `Heartbeat` control
    /// frame roughly every `interval`, sharing the link mutex with the
    /// regular traffic (it *skips* a beat rather than queue behind a
    /// long collect — the hub treats barrier arrivals as liveness proof
    /// too, so a busy client never looks dead for being busy).
    /// Idempotent: a second call replaces the previous pacer.
    pub fn start_heartbeats(&self, interval: Duration) {
        let interval = interval.max(Duration::from_millis(1));
        let stop = Arc::new(AtomicBool::new(false));
        let link = Arc::clone(&self.link);
        let round = Arc::clone(&self.barrier_round);
        let shard = self.shard as u32;
        let tick = interval.min(Duration::from_millis(50));
        let pacer_stop = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name(format!("heartbeat-{shard}"))
            .spawn(move || {
                let mut last = Instant::now();
                while !pacer_stop.load(Ordering::SeqCst) {
                    if last.elapsed() >= interval {
                        // try_lock: never block behind a collect.
                        if let Ok(mut link) = link.try_lock() {
                            let beat = ControlFrame::Heartbeat {
                                shard,
                                round: round.load(Ordering::SeqCst),
                            }
                            .encode();
                            let _ = link.write_all(beat.as_slice()).and_then(|()| link.flush());
                            last = Instant::now();
                        }
                    }
                    std::thread::sleep(tick);
                }
            })
            .expect("spawn heartbeat pacer");
        let mut slot = self.pacer.lock().expect("no poisoned pacer slot");
        if let Some(old) = slot.replace(Pacer { stop, handle }) {
            old.stop.store(true, Ordering::SeqCst);
            let _ = old.handle.join();
        }
    }

    /// Stops the heartbeat pacer, if one is running.
    pub fn stop_heartbeats(&self) {
        let pacer = self.pacer.lock().expect("no poisoned pacer slot").take();
        if let Some(pacer) = pacer {
            pacer.stop.store(true, Ordering::SeqCst);
            let _ = pacer.handle.join();
        }
    }

    /// Streams this worker's end-of-run report to the hub (best
    /// effort), replacing stdout parsing in distributed mode.
    pub fn send_stats(&self, rounds_run: u64, result_digest: u64, stats: &RunStats) {
        let frame = ControlFrame::Stats {
            shard: self.shard as u32,
            rounds_run,
            result_digest,
            stats: stats.clone(),
        }
        .encode();
        let mut link = self.link.lock().expect("no poisoned link");
        let _ = link.write_all(frame.as_slice()).and_then(|()| link.flush());
    }

    /// Streams flight-recorder round records to the hub (best effort —
    /// a lost trace frame must never fail a run). The hub keeps the
    /// last-K per shard, so the records survive this process's death.
    pub fn send_trace(&self, records: &[RoundTrace]) {
        if records.is_empty() {
            return;
        }
        let frame = ControlFrame::Trace {
            shard: self.shard as u32,
            records: records.to_vec(),
        }
        .encode();
        let mut link = self.link.lock().expect("no poisoned link");
        let _ = link.write_all(frame.as_slice()).and_then(|()| link.flush());
    }

    /// Streams one lifecycle event (checkpoint write/load/rejection) to
    /// the hub, best effort — a lost event must never fail a run.
    pub fn send_event(&self, round: u64, code: u8, detail: String) {
        let frame = ControlFrame::Event {
            shard: self.shard as u32,
            round,
            code,
            detail,
        }
        .encode();
        let mut link = self.link.lock().expect("no poisoned link");
        let _ = link.write_all(frame.as_slice()).and_then(|()| link.flush());
    }

    fn set_fatal(&self, error: TransportError) {
        let mut slot = self.fatal.lock().expect("no poisoned fatal slot");
        if slot.is_none() {
            *slot = Some(error);
        }
    }

    fn taken_fatal(&self) -> Option<TransportError> {
        self.fatal.lock().expect("no poisoned fatal slot").clone()
    }

    /// Makes a failed write sticky. A hub tearing the fabric down relays
    /// `Error` to every spoke *before* closing it, so a write that fails
    /// usually has the origin's structured error already queued, unread,
    /// on the link: pick it up (without waiting for more) so
    /// [`HubClient::remote_error`] reports it instead of this link's
    /// broken pipe.
    fn fail_send(&self, link: &mut Stream, round: u64, error: &io::Error) {
        self.set_fatal(TransportError {
            shard: self.shard,
            round: round as usize,
            cause: TransportCause::Io {
                detail: format!("write to the hub failed: {error}"),
            },
        });
        let _ = link.set_read_timeout(Some(Duration::from_millis(1)));
        loop {
            match read_wire_frame(link) {
                Ok(Wire::Control(ControlFrame::Error { error, .. })) => {
                    *self.remote.lock().expect("no poisoned remote slot") = Some(error);
                    return;
                }
                Ok(_) => {}
                Err(_) => return,
            }
        }
    }

    /// Ships one data frame to `to`. The `shards`-th send of a round
    /// automatically closes the round with a `RoundBarrier`. A write
    /// failure is sticky: later sends are no-ops, and the next
    /// [`HubClient::collect`] surfaces it typed.
    pub fn send(&self, to: usize, frame: Bytes) {
        debug_assert!(to < self.shards, "destination shard out of range");
        if self.taken_fatal().is_some() {
            return;
        }
        let mut link = self.link.lock().expect("no poisoned link");
        let round = self.barrier_round.load(Ordering::Relaxed);
        if let Err(error) = link.write_all(frame.as_slice()).and_then(|()| link.flush()) {
            self.fail_send(&mut link, round, &error);
            return;
        }
        let sent = self.sends_this_round.fetch_add(1, Ordering::Relaxed) + 1;
        if sent == self.shards {
            self.sends_this_round.store(0, Ordering::Relaxed);
            self.barrier_round.store(round + 1, Ordering::Relaxed);
            let barrier = ControlFrame::RoundBarrier { round }.encode();
            if let Err(error) = link
                .write_all(barrier.as_slice())
                .and_then(|()| link.flush())
            {
                self.fail_send(&mut link, round, &error);
            }
        }
    }

    /// Reports this shard's own failure to the fabric (best effort) so
    /// peers stop with the structured error instead of a timeout.
    pub fn report_error(&self, error: &SimError) {
        let frame = ControlFrame::Error {
            origin: self.shard as u32,
            error: error.clone(),
        }
        .encode();
        let mut link = self.link.lock().expect("no poisoned link");
        let _ = link.write_all(frame.as_slice()).and_then(|()| link.flush());
    }

    /// Announces orderly completion (best effort).
    pub fn send_shutdown(&self) {
        let frame = ControlFrame::Shutdown {
            origin: self.shard as u32,
        }
        .encode();
        let mut link = self.link.lock().expect("no poisoned link");
        let _ = link.write_all(frame.as_slice()).and_then(|()| link.flush());
    }

    fn blame_shard(&self, into: &[Option<Bytes>]) -> usize {
        into.iter().position(Option::is_none).unwrap_or(self.shard)
    }

    /// Collects one round: blocks until every sender's slot is filled
    /// *and* the hub's barrier acknowledgement for this round arrived,
    /// or the deadline passes.
    ///
    /// Deadline expiry with the acknowledgement in hand returns `Ok`
    /// with the gaps left `None` — the hub provably relayed everything
    /// it got, so the engine's place phase reports the precise
    /// [`FrameError::MissingFrame`]. Expiry without the acknowledgement
    /// is a typed [`TransportCause::Timeout`].
    ///
    /// # Errors
    ///
    /// A [`TransportError`] on timeout, disconnect (a dead link is
    /// [`TransportCause::Disconnected`]), desync, or when a peer's `Error`
    /// frame arrives (the structured original stays available via
    /// [`HubClient::remote_error`]). All failures are sticky.
    pub fn collect(&self, into: &mut [Option<Bytes>]) -> Result<(), TransportError> {
        let round = self.collect_round.load(Ordering::Relaxed) as usize;
        if let Some(error) = self.taken_fatal() {
            return Err(error);
        }
        let start = Instant::now();
        let deadline = start + self.timeout;
        let mut link = self.link.lock().expect("no poisoned link");
        {
            let mut pending = self.pending.lock().expect("no poisoned pending queue");
            let mut keep = VecDeque::new();
            while let Some(frame) = pending.pop_front() {
                if !file_slot(into, &frame) {
                    keep.push_back(frame);
                }
            }
            *pending = keep;
        }
        let mut got_ack = false;
        let result = loop {
            if got_ack && into.iter().all(Option::is_some) {
                break Ok(());
            }
            let Some(remaining) = deadline
                .checked_duration_since(Instant::now())
                .filter(|d| !d.is_zero())
            else {
                break if got_ack {
                    // Barrier seen: anything still missing was never
                    // shipped; place reports it as MissingFrame.
                    Ok(())
                } else {
                    Err(TransportError {
                        shard: self.blame_shard(into),
                        round,
                        cause: TransportCause::Timeout {
                            waited_ms: start.elapsed().as_millis() as u64,
                        },
                    })
                };
            };
            let _ = link.set_read_timeout(Some(remaining));
            match read_wire_frame(&mut link) {
                Ok(Wire::Data(frame)) => {
                    if !file_slot(into, &frame) {
                        // Already have this sender's frame this round:
                        // a fast peer running one round ahead.
                        self.pending
                            .lock()
                            .expect("no poisoned pending queue")
                            .push_back(frame);
                    }
                }
                Ok(Wire::Control(ControlFrame::RoundBarrier { round: acked })) => {
                    // Acknowledgements arrive once per round, in order,
                    // on every connection (a relaunched worker's replay
                    // starts at its resume round): any other is a desync.
                    if acked != round as u64 {
                        break Err(TransportError {
                            shard: self.shard,
                            round,
                            cause: TransportCause::Io {
                                detail: format!(
                                    "barrier acknowledgement for round {acked} while collecting round {round}"
                                ),
                            },
                        });
                    }
                    got_ack = true;
                }
                Ok(Wire::Control(ControlFrame::Error { origin, error })) => {
                    *self.remote.lock().expect("no poisoned remote slot") = Some(error.clone());
                    break Err(match error {
                        SimError::Transport(e) => e,
                        other => TransportError {
                            shard: origin as usize,
                            round,
                            cause: TransportCause::Remote {
                                message: other.to_string(),
                            },
                        },
                    });
                }
                Ok(Wire::Control(ControlFrame::Shutdown { origin })) => {
                    break Err(TransportError {
                        shard: if origin == HUB_ORIGIN {
                            self.blame_shard(into)
                        } else {
                            origin as usize
                        },
                        round,
                        cause: TransportCause::Disconnected,
                    });
                }
                Ok(Wire::Control(ControlFrame::Hello { .. })) => {
                    break Err(TransportError {
                        shard: self.shard,
                        round,
                        cause: TransportCause::Io {
                            detail: "unexpected hello mid-stream".into(),
                        },
                    });
                }
                Ok(Wire::Control(
                    ControlFrame::Heartbeat { .. }
                    | ControlFrame::Stats { .. }
                    | ControlFrame::Trace { .. }
                    | ControlFrame::Event { .. },
                )) => {
                    // Worker-to-hub frames; a hub never sends them.
                }
                Err(ReadEnd::Tick | ReadEnd::Stalled) => {
                    // Deadline recheck happens at the loop head.
                }
                Err(ReadEnd::Eof) => {
                    break Err(TransportError {
                        shard: self.blame_shard(into),
                        round,
                        cause: TransportCause::Disconnected,
                    });
                }
                Err(ReadEnd::Io(detail)) => {
                    break Err(TransportError {
                        shard: self.blame_shard(into),
                        round,
                        cause: TransportCause::Io { detail },
                    });
                }
                Err(ReadEnd::Desync(detail)) => {
                    break Err(TransportError {
                        shard: self.shard,
                        round,
                        cause: TransportCause::Io { detail },
                    });
                }
            }
        };
        self.collect_wait_ns
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        match result {
            Ok(()) => {
                self.collect_round.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
            Err(error) => {
                self.set_fatal(error.clone());
                Err(error)
            }
        }
    }
}

impl Drop for HubClient {
    fn drop(&mut self) {
        self.stop_heartbeats();
    }
}

/// Files a data frame into its sender's slot; `false` if the slot is
/// already taken (a frame from a future round) or the sender is out of
/// range.
fn file_slot(into: &mut [Option<Bytes>], frame: &Bytes) -> bool {
    let (sender, _dest) = data_addressing(frame);
    match into.get_mut(sender) {
        Some(slot @ None) => {
            *slot = Some(frame.clone());
            true
        }
        _ => false,
    }
}

// ---------------------------------------------------------------------
// SocketTransport
// ---------------------------------------------------------------------

/// [`Transport`] over real sockets: `shards` [`HubClient`] spokes around
/// an in-process `Hub`. Selected by [`crate::Engine::Framed`] with
/// [`crate::FrameTransport::Socket`]; produces bit-identical results to
/// the loopback backend.
#[derive(Debug)]
pub struct SocketTransport {
    clients: Vec<HubClient>,
    hub: Option<Hub>,
}

impl SocketTransport {
    /// Unix-domain fabric over socketpairs (no filesystem footprint),
    /// with the [`super::DEFAULT_FRAME_TIMEOUT`] deadline.
    ///
    /// # Panics
    ///
    /// If the OS refuses socketpair or thread resources at construction
    /// (runtime failures are all typed errors, never panics).
    #[must_use]
    pub fn unix_mesh(shards: usize) -> SocketTransport {
        Self::unix_mesh_with_timeout(shards, super::DEFAULT_FRAME_TIMEOUT)
    }

    /// [`SocketTransport::unix_mesh`] with an explicit deadline, for
    /// tests that exercise timeout paths quickly.
    ///
    /// # Panics
    ///
    /// As [`SocketTransport::unix_mesh`].
    #[must_use]
    pub fn unix_mesh_with_timeout(shards: usize, timeout: Duration) -> SocketTransport {
        let shards = shards.max(1);
        let (hub, halves) = Hub::new_pairs(shards, timeout).expect("unix socketpair fabric");
        let clients = halves
            .into_iter()
            .enumerate()
            .map(|(shard, stream)| {
                HubClient::handshaken(stream, shard, shards, 0, timeout, 0)
                    .expect("in-process handshake")
            })
            .collect();
        SocketTransport {
            clients,
            hub: Some(hub),
        }
    }

    /// This shard's fabric endpoint, for drivers that talk to one shard
    /// directly (e.g. [`super::run_worker`]) or inspect a shard's
    /// [`HubClient::remote_error`] after a failed run.
    #[must_use]
    pub fn client(&self, shard: usize) -> &HubClient {
        &self.clients[shard]
    }

    /// TCP loopback fabric through a real listener — the same
    /// accept/handshake path worker processes use.
    ///
    /// # Panics
    ///
    /// If binding the loopback listener or connecting to it fails at
    /// construction.
    #[must_use]
    pub fn tcp_mesh(shards: usize) -> SocketTransport {
        Self::tcp_mesh_with_timeout(shards, super::DEFAULT_FRAME_TIMEOUT)
    }

    /// [`SocketTransport::tcp_mesh`] with an explicit deadline.
    ///
    /// # Panics
    ///
    /// As [`SocketTransport::tcp_mesh`].
    #[must_use]
    pub fn tcp_mesh_with_timeout(shards: usize, timeout: Duration) -> SocketTransport {
        let shards = shards.max(1);
        let request = HubAddr::Tcp(SocketAddr::from(([127, 0, 0, 1], 0)));
        let (hub, addr) =
            Hub::listen(&request, shards, timeout, None).expect("loopback tcp fabric");
        let clients = (0..shards)
            .map(|shard| {
                HubClient::connect(&addr, shard, shards, 0, timeout, 0)
                    .expect("loopback tcp handshake")
            })
            .collect();
        SocketTransport {
            clients,
            hub: Some(hub),
        }
    }
}

impl Transport for SocketTransport {
    fn send(&self, from: usize, to: usize, frame: Bytes) {
        self.clients[from].send(to, frame);
    }

    fn collect(&self, to: usize, into: &mut [Option<Bytes>]) -> Result<(), TransportError> {
        self.clients[to].collect(into)
    }

    fn health(&self) -> TransportHealth {
        let mut health = TransportHealth::default();
        for client in &self.clients {
            health.absorb(client.health());
        }
        if let Some(hub) = &self.hub {
            let (restarted, replayed, missed, _) = hub.recovery_counters();
            health.workers_restarted += restarted;
            health.rounds_replayed += replayed;
            health.heartbeats_missed += missed;
        }
        health
    }
}

impl Drop for SocketTransport {
    fn drop(&mut self) {
        for client in &self.clients {
            client.send_shutdown();
        }
        if let Some(mut hub) = self.hub.take() {
            hub.stop_and_join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::encode_entries;

    const FAST: Duration = Duration::from_millis(300);

    /// A minimal valid data frame from `sender` to `dest`, tagged with
    /// one payload byte so tests can tell frames apart.
    fn data_frame(sender: usize, dest: usize, tag: u8) -> Bytes {
        encode_entries(sender, dest, &[(0, 0..1, Some(&[tag]))])
    }

    fn collect_all(mesh: &SocketTransport, shards: usize) -> Vec<Vec<Option<Bytes>>> {
        (0..shards)
            .map(|to| {
                let mut slots = vec![None; shards];
                mesh.collect(to, &mut slots).unwrap();
                slots
            })
            .collect()
    }

    #[test]
    fn unix_mesh_routes_a_full_round() {
        let shards = 3;
        let mesh = SocketTransport::unix_mesh_with_timeout(shards, Duration::from_secs(5));
        for from in 0..shards {
            for to in 0..shards {
                mesh.send(from, to, data_frame(from, to, (from * shards + to) as u8));
            }
        }
        let got = collect_all(&mesh, shards);
        for (to, slots) in got.iter().enumerate() {
            for (from, slot) in slots.iter().enumerate() {
                let frame = slot.as_ref().expect("frame must arrive");
                assert_eq!(
                    frame.as_slice(),
                    data_frame(from, to, (from * shards + to) as u8).as_slice()
                );
            }
        }
        assert!(mesh.health().collect_wait_ns > 0);
    }

    #[test]
    fn tcp_mesh_routes_a_full_round() {
        let shards = 2;
        let mesh = SocketTransport::tcp_mesh_with_timeout(shards, Duration::from_secs(5));
        for from in 0..shards {
            for to in 0..shards {
                mesh.send(from, to, data_frame(from, to, 7));
            }
        }
        let got = collect_all(&mesh, shards);
        assert!(got.iter().flatten().all(Option::is_some));
    }

    #[test]
    fn a_round_ahead_peer_is_buffered_not_lost() {
        let shards = 2;
        let mesh = SocketTransport::unix_mesh_with_timeout(shards, Duration::from_secs(5));
        // Round 0: both shards ship.
        for from in 0..shards {
            for to in 0..shards {
                mesh.send(from, to, data_frame(from, to, 10 + from as u8));
            }
        }
        // Shard 0 collects round 0 and immediately ships round 1 while
        // shard 1 has not collected round 0 yet.
        let mut slots = vec![None; shards];
        mesh.collect(0, &mut slots).unwrap();
        for to in 0..shards {
            mesh.send(0, to, data_frame(0, to, 20));
        }
        // Shard 1 now collects round 0 — it must see round 0's frames,
        // with shard 0's round-1 frame parked, not misfiled.
        let mut slots = vec![None; shards];
        mesh.collect(1, &mut slots).unwrap();
        assert_eq!(
            slots[0].as_ref().unwrap().as_slice(),
            data_frame(0, 1, 10).as_slice()
        );
        assert_eq!(
            slots[1].as_ref().unwrap().as_slice(),
            data_frame(1, 1, 11).as_slice()
        );
        // Round 1 completes once shard 1 ships it.
        for to in 0..shards {
            mesh.send(1, to, data_frame(1, to, 21));
        }
        let got = collect_all(&mesh, shards);
        for (to, slots) in got.iter().enumerate() {
            assert_eq!(
                slots[0].as_ref().unwrap().as_slice(),
                data_frame(0, to, 20).as_slice()
            );
            assert_eq!(
                slots[1].as_ref().unwrap().as_slice(),
                data_frame(1, to, 21).as_slice()
            );
        }
    }

    #[test]
    fn missing_barrier_times_out_typed() {
        let shards = 2;
        let mesh = SocketTransport::unix_mesh_with_timeout(shards, FAST);
        // Shard 0 ships its whole round; shard 1 never does.
        for to in 0..shards {
            mesh.send(0, to, data_frame(0, to, 1));
        }
        let started = Instant::now();
        let mut slots = vec![None; shards];
        let error = mesh.collect(0, &mut slots).unwrap_err();
        assert!(
            matches!(error.cause, TransportCause::Timeout { .. }),
            "{error}"
        );
        assert_eq!(error.shard, 1, "the silent peer gets the blame");
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "timeout must be prompt, took {:?}",
            started.elapsed()
        );
        // And the failure is sticky.
        let again = mesh.collect(0, &mut vec![None; shards]).unwrap_err();
        assert_eq!(again.shard, 1);
    }

    #[test]
    fn dead_peer_becomes_a_typed_disconnect_for_everyone() {
        let shards = 2;
        let (hub, mut halves) = Hub::new_pairs(shards, FAST).unwrap();
        let c1_stream = halves.pop().unwrap();
        let c0 = HubClient::handshaken(halves.pop().unwrap(), 0, shards, 0, FAST, 0).unwrap();
        let c1 = HubClient::handshaken(c1_stream, 1, shards, 0, FAST, 0).unwrap();
        drop(c1); // shard 1 "dies": its socket closes
        let started = Instant::now();
        let mut slots = vec![None; shards];
        let error = c0.collect(&mut slots).unwrap_err();
        assert!(
            matches!(error.cause, TransportCause::Disconnected)
                || matches!(error.cause, TransportCause::Timeout { .. }),
            "want disconnect/timeout, got {error}"
        );
        assert!(started.elapsed() < Duration::from_secs(10));
        drop(hub);
    }

    #[test]
    fn peer_error_reports_surface_structured() {
        let shards = 2;
        let mesh = SocketTransport::unix_mesh_with_timeout(shards, Duration::from_secs(5));
        let reported = SimError::RoundLimitExceeded { limit: 3 };
        mesh.clients[0].report_error(&reported);
        let mut slots = vec![None; shards];
        let error = mesh.clients[1].collect(&mut slots).unwrap_err();
        assert_eq!(error.shard, 0);
        assert!(
            matches!(error.cause, TransportCause::Remote { .. }),
            "{error}"
        );
        assert_eq!(mesh.clients[1].remote_error(), Some(reported));
    }

    #[test]
    fn handshake_rejects_wrong_digest() {
        let request = HubAddr::Unix(test_socket_path("digest"));
        let (hub, addr) = Hub::listen(&request, 1, FAST, Some(42)).unwrap();
        let error = HubClient::connect(&addr, 0, 1, 7, FAST, 0).unwrap_err();
        assert!(
            matches!(error.cause, TransportCause::Handshake { .. }),
            "want handshake rejection, got {error}"
        );
        drop(hub);
    }

    #[test]
    fn handshake_rejects_foreign_shard_ids() {
        let request = HubAddr::Unix(test_socket_path("shardid"));
        let (hub, addr) = Hub::listen(&request, 2, FAST, None).unwrap();
        let error = HubClient::connect(&addr, 9, 2, 0, FAST, 0).unwrap_err();
        assert!(
            matches!(error.cause, TransportCause::Handshake { .. }),
            "{error}"
        );
        drop(hub);
    }

    #[test]
    fn a_severed_link_fails_the_collect_typed_and_is_never_redialed() {
        // The client never redials: the collect on a severed link
        // returns a typed `Disconnected` at once, the failure is sticky,
        // and the hub admits nothing new (relaunching the worker is the
        // supervisor's job).
        let request = HubAddr::Unix(test_socket_path("sever"));
        let timeout = Duration::from_secs(5);
        let (hub, addr) = Hub::listen(&request, 1, timeout, None).unwrap();
        let client = HubClient::connect(&addr, 0, 1, 0, timeout, 0).unwrap();
        hub.sever(0);
        let started = Instant::now();
        let error = client.collect(&mut vec![None; 1]).unwrap_err();
        assert!(
            matches!(error.cause, TransportCause::Disconnected),
            "{error}"
        );
        assert!(
            started.elapsed() < timeout,
            "a dead link fails at once, not at the deadline: {:?}",
            started.elapsed()
        );
        client.send(0, data_frame(0, 0, 9));
        assert_eq!(client.collect(&mut vec![None; 1]).unwrap_err(), error);
        assert_eq!(hub.recovery_counters().0, 0, "nothing was re-admitted");
        drop(hub);
    }

    #[test]
    fn a_restarted_worker_is_replayed_and_its_resends_echo_discarded() {
        // Process-level recovery, in miniature: run two rounds, "crash"
        // (drop the client), and bring up a replacement that — like a
        // deterministically re-run worker — resumes from round 0 and
        // re-ships everything. The hub must replay the committed rounds
        // at admission (written on the fresh stream strictly before
        // registration, so live traffic cannot overtake them), discard
        // the re-sent data as echoes, and then accept new rounds live.
        let request = HubAddr::Unix(test_socket_path("restartreplay"));
        let (hub, addr) = Hub::listen(&request, 1, Duration::from_secs(5), None).unwrap();
        let client = HubClient::connect(&addr, 0, 1, 0, Duration::from_secs(5), 0).unwrap();
        for round in 0..2u8 {
            client.send(0, data_frame(0, 0, round));
            let mut slots = vec![None; 1];
            client.collect(&mut slots).unwrap();
        }
        drop(client); // the worker process dies
        let replacement = HubClient::connect(&addr, 0, 1, 0, Duration::from_secs(5), 0).unwrap();
        for round in 0..3u8 {
            // Rounds 0 and 1 are re-runs: data echo-discarded, barrier
            // echo-acked, content served from the replay log. Round 2
            // is new and must go through live.
            replacement.send(0, data_frame(0, 0, round));
            let mut slots = vec![None; 1];
            replacement.collect(&mut slots).unwrap();
            assert_eq!(
                slots[0].as_ref().unwrap().as_slice(),
                data_frame(0, 0, round).as_slice(),
                "round {round} after the restart"
            );
        }
        let (restarted, replayed, _, _) = hub.recovery_counters();
        assert_eq!(restarted, 1, "one re-admission");
        assert_eq!(replayed, 2, "both committed rounds must be replayed");
        drop(hub);
    }

    #[test]
    fn heartbeats_refresh_the_hubs_liveness_view() {
        let request = HubAddr::Unix(test_socket_path("beats"));
        let (hub, addr) = Hub::listen(&request, 1, Duration::from_secs(5), None).unwrap();
        let client = HubClient::connect(&addr, 0, 1, 0, Duration::from_secs(5), 0).unwrap();
        assert!(hub.beat_ages()[0].is_none(), "no proof of life yet");
        client.start_heartbeats(Duration::from_millis(10));
        let deadline = Instant::now() + Duration::from_secs(2);
        while hub.beat_ages()[0].is_none() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        let (age, round) = hub.beat_ages()[0].expect("heartbeat must register");
        assert!(age < Duration::from_secs(1));
        assert_eq!(round, 0, "no barrier passed yet");
        client.stop_heartbeats();
        drop(hub);
    }

    #[test]
    fn stats_frames_land_in_the_hubs_slots() {
        let request = HubAddr::Unix(test_socket_path("stats"));
        let (hub, addr) = Hub::listen(&request, 1, Duration::from_secs(5), None).unwrap();
        let client = HubClient::connect(&addr, 0, 1, 0, Duration::from_secs(5), 0).unwrap();
        let mut stats = RunStats::default();
        stats.absorb(crate::stats::RoundStats {
            round: 0,
            messages: 7,
            bytes: 56,
            max_edge_bytes: 8,
        });
        client.send_stats(3, 0xfeed_beef, &stats);
        let deadline = Instant::now() + Duration::from_secs(2);
        while hub.worker_stats()[0].is_none() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        let got = hub.worker_stats()[0].clone().expect("stats must arrive");
        assert_eq!(got.rounds_run, 3);
        assert_eq!(got.result_digest, 0xfeed_beef);
        assert_eq!(got.stats.total_messages, 7);
        drop(hub);
    }

    #[test]
    fn a_lost_shard_declaration_is_a_typed_error_for_peers() {
        let request = HubAddr::Unix(test_socket_path("lost"));
        let (hub, addr) = Hub::listen(&request, 2, FAST, None).unwrap();
        let c0 = HubClient::connect(&addr, 0, 2, 0, FAST, 0).unwrap();
        let _c1 = HubClient::connect(&addr, 1, 2, 0, FAST, 0).unwrap();
        hub.declare_lost(1, "restart budget exhausted".into());
        let error = c0.collect(&mut vec![None; 2]).unwrap_err();
        assert_eq!(error.shard, 1, "the lost shard gets the blame");
        drop(hub);
    }

    #[test]
    fn hub_addr_round_trips_through_strings() {
        let unix = HubAddr::Unix(PathBuf::from("/tmp/x.sock"));
        assert_eq!(unix.to_string().parse::<HubAddr>().unwrap(), unix);
        let tcp = HubAddr::Tcp(SocketAddr::from(([127, 0, 0, 1], 4040)));
        assert_eq!(tcp.to_string().parse::<HubAddr>().unwrap(), tcp);
        assert!("garbage".parse::<HubAddr>().is_err());
        assert!("tcp:not-an-addr".parse::<HubAddr>().is_err());
    }

    #[test]
    fn an_undrained_relay_queue_breaches_the_cap_typed() {
        // A destination whose writer never drains (too slow, or its
        // worker never connected) accumulates relayed frames round
        // after round. The cap must turn that silent growth into a
        // typed fabric error naming the consumer — never an unbounded
        // allocation. Driven against the relay state directly: rounds
        // are committed by calling the barrier path for both shards, as
        // the readers would, while nobody drains shard 1's queue.
        let mut options = HubOptions::new(2, FAST);
        options.queue_cap = 1024;
        let (shared, receivers) = HubShared::new(&options);
        let frame = data_frame(0, 1, 7);
        let mut breach = None;
        for round in 0..10_000u64 {
            match shared.relay_data(0, 1, frame.clone()) {
                Ok(()) => {
                    // Commit the round so the next ship is not deduped
                    // as an in-round duplicate or an echo.
                    shared.on_barrier(0, round).unwrap();
                    shared.on_barrier(1, round).unwrap();
                }
                Err(error) => {
                    breach = Some(error);
                    break;
                }
            }
        }
        match breach.expect("the cap must trip before 10k undrained rounds") {
            SimError::Transport(TransportError {
                shard,
                cause: TransportCause::Io { detail },
                ..
            }) => {
                assert_eq!(shard, 1, "the undrained destination gets the blame");
                assert!(detail.contains("cap of 1024 bytes"), "{detail}");
                assert!(detail.contains("shard 1"), "names the consumer: {detail}");
            }
            other => panic!("want a typed Io cap breach, got {other:?}"),
        }
        drop(receivers);
    }

    #[test]
    fn replayed_history_does_not_count_against_the_queue_cap() {
        // A cap that holds one frame but not two: shard 1 rejoins and
        // its fresh queue replays round 0's frame, after which one live
        // frame must still fit. Driven against the relay state directly,
        // as the readers and the accept thread would.
        let frame = data_frame(0, 1, 7);
        let mut options = HubOptions::new(2, FAST);
        options.queue_cap = frame.len() + 8;
        let (shared, receivers) = HubShared::new(&options);
        shared.relay_data(0, 1, frame.clone()).unwrap();
        shared.on_barrier(0, 0).unwrap();
        shared.on_barrier(1, 0).unwrap();
        let admission = shared.prepare_resume(1, 0, hello_ack(&shared, 1)).unwrap();
        assert_eq!(admission.replay_rounds, 1);
        assert_eq!(admission.depth.load(Ordering::Relaxed), 0);
        shared
            .relay_data(0, 1, frame)
            .expect("the replay is not counted against the cap");
        drop((admission, receivers));
    }

    #[test]
    fn a_checkpoint_resume_is_granted_and_skips_replayed_history() {
        // Checkpoint recovery in O(interval), in miniature: three
        // committed rounds, a crash, and a replacement that — unlike a
        // rerun from round 0 — presents a checkpoint at the committed
        // frontier. The hub must grant the round and replay *nothing*.
        let request = HubAddr::Unix(test_socket_path("resumeckpt"));
        let (hub, addr) = Hub::listen(&request, 1, Duration::from_secs(5), None).unwrap();
        let client = HubClient::connect(&addr, 0, 1, 0, Duration::from_secs(5), 0).unwrap();
        for round in 0..3u8 {
            client.send(0, data_frame(0, 0, round));
            client.collect(&mut vec![None; 1]).unwrap();
        }
        drop(client); // the worker process dies
        let replacement = HubClient::connect(&addr, 0, 1, 0, Duration::from_secs(5), 3).unwrap();
        replacement.send(0, data_frame(0, 0, 33));
        let mut slots = vec![None; 1];
        replacement.collect(&mut slots).unwrap();
        assert_eq!(
            slots[0].as_ref().unwrap().as_slice(),
            data_frame(0, 0, 33).as_slice(),
            "the first collected frame is round 3's, not replayed history"
        );
        let (_, replayed, _, _) = hub.recovery_counters();
        assert_eq!(replayed, 0, "nothing below the checkpoint round replays");
        drop(hub);
    }

    #[test]
    fn a_resume_below_the_replay_floor_is_a_typed_refusal_that_ends_the_run() {
        // A hub keeping 2 rounds of history commits 5, so its floor is
        // round 3. A replacement asking for round 0 needs history that
        // is gone: it gets a typed handshake refusal naming the floor,
        // and the hub halts on the same error.
        let request = HubAddr::Unix(test_socket_path("belowfloor"));
        let mut options = HubOptions::new(1, Duration::from_secs(5));
        options.replay_window = 2;
        let (hub, addr) = Hub::listen_with(&request, options).unwrap();
        let client = HubClient::connect(&addr, 0, 1, 0, Duration::from_secs(5), 0).unwrap();
        for round in 0..5u8 {
            client.send(0, data_frame(0, 0, round));
            client.collect(&mut vec![None; 1]).unwrap();
        }
        drop(client); // the worker process dies
        let error = HubClient::connect(&addr, 0, 1, 0, Duration::from_secs(5), 0)
            .expect_err("round 0 lies below the floor");
        let TransportCause::Handshake { detail } = &error.cause else {
            panic!("want a handshake refusal, got {error}");
        };
        assert!(detail.contains("oldest retained round is 3"), "{detail}");
        assert!(
            hub.wait_halted(Duration::from_secs(2)),
            "the refusal ends the run"
        );
        match hub.first_error() {
            Some(SimError::Transport(TransportError {
                shard: 0,
                cause: TransportCause::Handshake { detail: held },
                ..
            })) => assert_eq!(&held, detail),
            other => panic!("the hub must hold the refusal, got {other:?}"),
        }
        drop(hub);
    }

    #[test]
    fn a_late_shards_large_replay_cannot_deadlock_its_admission() {
        // Shard 0 ships 1 MiB to shard 1 before shard 1 connects, so
        // shard 1's admission replays more than a socket buffer holds —
        // while shard 1, right after its handshake, ships 1 MiB of its
        // own before it collects. The hub must read that stream while
        // it writes the replay, or both sides stall until they time out.
        let shards = 2;
        let timeout = Duration::from_secs(5);
        let big = |sender: usize, dest: usize| {
            encode_entries(sender, dest, &[(0, 0..1, Some(&vec![7u8; 1 << 20]))])
        };
        let request = HubAddr::Unix(test_socket_path("latereplay"));
        let (hub, addr) = Hub::listen(&request, shards, timeout, None).unwrap();
        let c0 = HubClient::connect(&addr, 0, shards, 0, timeout, 0).unwrap();
        c0.send(1, big(0, 1));
        c0.send(0, data_frame(0, 0, 1));
        let deadline = Instant::now() + timeout;
        while hub.committed_rounds()[0] == 0 {
            assert!(Instant::now() < deadline, "shard 0's round never landed");
            std::thread::sleep(Duration::from_millis(5));
        }
        std::thread::scope(|scope| {
            let early = scope.spawn(|| c0.collect(&mut vec![None; shards]));
            let c1 = HubClient::connect(&addr, 1, shards, 0, timeout, 0).unwrap();
            c1.send(0, big(1, 0));
            c1.send(1, data_frame(1, 1, 2));
            let mut slots = vec![None; shards];
            c1.collect(&mut slots)
                .expect("the late shard collects round 0");
            assert_eq!(slots[0].as_ref().unwrap().as_slice(), big(0, 1).as_slice());
            early
                .join()
                .unwrap()
                .expect("the early shard collects round 0");
        });
        drop(hub);
    }

    #[test]
    fn a_resume_above_the_committed_rounds_is_a_typed_refusal_that_ends_the_run() {
        // A fresh hub has committed nothing, so a worker claiming round 5
        // resumes from a checkpoint no round of this fabric produced. The
        // claim gets a typed handshake refusal naming the rounds, and the
        // hub halts on the same error.
        let request = HubAddr::Unix(test_socket_path("aboveresume"));
        let (hub, addr) = Hub::listen(&request, 1, Duration::from_secs(5), None).unwrap();
        let error = HubClient::connect(&addr, 0, 1, 0, Duration::from_secs(5), 5)
            .expect_err("round 5 was never committed");
        let TransportCause::Handshake { detail } = &error.cause else {
            panic!("want a handshake refusal, got {error}");
        };
        assert!(
            detail.contains("resume at round 5, above the 0 rounds"),
            "{detail}"
        );
        assert!(
            hub.wait_halted(Duration::from_secs(2)),
            "the refusal ends the run"
        );
        match hub.first_error() {
            Some(SimError::Transport(TransportError {
                shard: 0,
                cause: TransportCause::Handshake { detail: held },
                ..
            })) => assert_eq!(&held, detail),
            other => panic!("the hub must hold the refusal, got {other:?}"),
        }
        drop(hub);
    }

    #[test]
    fn worker_events_are_buffered_and_restores_counted() {
        use crate::transport::control::{EVENT_CHECKPOINT_LOAD, EVENT_CHECKPOINT_REJECT};
        let request = HubAddr::Unix(test_socket_path("events"));
        let (hub, addr) = Hub::listen(&request, 1, Duration::from_secs(5), None).unwrap();
        let client = HubClient::connect(&addr, 0, 1, 0, Duration::from_secs(5), 0).unwrap();
        client.send_event(0, EVENT_CHECKPOINT_REJECT, "torn file".into());
        client.send_event(3, EVENT_CHECKPOINT_LOAD, "resumed at round 3".into());
        let deadline = Instant::now() + Duration::from_secs(2);
        let mut events = Vec::new();
        while events.len() < 2 && Instant::now() < deadline {
            events.extend(hub.take_worker_events());
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(events.len(), 2, "both events must buffer");
        assert_eq!(events[0].code, EVENT_CHECKPOINT_REJECT);
        assert_eq!(events[0].detail, "torn file");
        assert_eq!(events[1].round, 3);
        let (_, _, _, restores) = hub.recovery_counters();
        assert_eq!(restores, 1, "only the load event counts as a restore");
        drop(hub);
    }

    fn test_socket_path(tag: &str) -> PathBuf {
        static SEQ: AtomicUsize = AtomicUsize::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "netdecomp-test-{}-{tag}-{n}.sock",
            std::process::id()
        ))
    }
}
