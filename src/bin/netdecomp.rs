//! Command-line interface: decompose a graph given as an edge-list file.
//!
//! ```text
//! netdecomp <file|-> [--algo basic|staged|high-radius|ls93] [--k K] [--c C]
//!           [--lambda L] [--seed S] [--assignment] [--json]
//! netdecomp <file> --distributed N [--rounds R] [--max-restarts M]
//!           [--heartbeat-ms H] [--timeout-ms T] [--hub-addr ADDR]
//!           [--checkpoint-dir DIR] [--checkpoint-interval N]
//!           [--json] [--trace-out FILE]
//! netdecomp <file> --worker S --attempt A [--trace] ...
//!                                      # spawned by --distributed
//! ```
//!
//! The input format is the crate's edge-list text (`n m` header then one
//! `u v` pair per line, `#` comments allowed); `-` reads stdin. Prints the
//! verification report; with `--assignment`, also one `vertex cluster
//! color` triple per line.
//!
//! `--distributed N` exercises the process-per-shard fabric: it binds a
//! socket hub, re-launches this binary `N` times in `--worker` mode (one
//! OS process per shard, connected only by the hub socket), runs a
//! max-id flood over the graph, and cross-checks every worker's final
//! shard states against the in-process sequential engine. The run is
//! *supervised*: each worker heartbeats every `--heartbeat-ms` (0 turns
//! heartbeats and their bookkeeping off), a crashed or wedged worker is
//! relaunched up to `--max-restarts` times, and the hub's replay log
//! fast-forwards the replacement — only an exhausted budget is an
//! error. Worker results arrive as `Stats` control frames over the
//! fabric itself, not by parsing worker stdout. `--timeout-ms` sets the
//! fabric timeout (default 5000) for this invocation and every worker it
//! spawns; `--hub-addr` binds the hub somewhere specific — `unix:PATH`,
//! `tcp:HOST:PORT`, or bare `HOST:PORT` (TCP) — instead of the default
//! loopback temp socket.
//!
//! Flags are parsed once, by [`parse_args`]. A worker gets its settings
//! as command-line arguments ([`worker_args`]) read by the same parser:
//! its shard (`--worker S`), its restart generation (`--attempt A`), the
//! trace switch (`--trace`), the hub's bound address, and the run's
//! shard count, rounds, timeout, heartbeat and checkpoint flags.
//!
//! The environment carries only fault-injection hooks for the soak
//! harness, read once by [`test_hooks`] and inherited by every worker.
//! Crash and wedge are armed only on a worker's first launch (restarts
//! run clean): `NETDECOMP_WORKER_ABORT=<shard>` connects then dies
//! wordlessly on *every* launch (the budget-exhaustion hook);
//! `NETDECOMP_CHAOS_CRASH=<shard>:<round>` exits 137 when that shard
//! computes that round; `NETDECOMP_CHAOS_WEDGE=<shard>:<round>` sleeps
//! forever there (the supervisor must stall-detect and kill it);
//! `NETDECOMP_CHAOS_KILL=<shard>:<round>` has the *supervisor* SIGKILL
//! the shard from outside when it reaches that round;
//! `NETDECOMP_CHAOS_SLOW_MS=<ms>` slows every round of every worker;
//! `NETDECOMP_REPLAY_WINDOW=<rounds>` clamps the hub's replay log so a
//! deep crash falls outside it.
//!
//! Crash recovery in O(interval): `--checkpoint-interval N` has every
//! worker write a checksummed checkpoint of its shard — protocol state,
//! pending inbox, CONGEST counters, stats — every `N` committed rounds,
//! into `--checkpoint-dir` (a temp dir is provisioned when none is
//! named). A relaunched worker resumes from its newest *valid*
//! checkpoint (torn or corrupt files are digest-rejected and skipped,
//! never trusted) and re-handshakes at that round, so the hub's replay
//! log only has to cover one interval — a crash older than the replay
//! window no longer forces a whole-run restart.
//!
//! Observability: `--trace-out FILE` turns on the trace plane in every
//! worker (`--trace`) and has the supervisor dump a flight-recorder
//! JSONL timeline — per-round per-shard phase timings plus
//! restart/kill/halt decisions — to FILE on completion or failure.
//! `--json` replaces the prose summary with one machine-readable JSON
//! object on stdout. On the centralized path it reports the phase loop —
//! `truncation_events`, `alive_vertex_phases` (the alive vertices summed
//! over phases, which the loop's cost follows) and one `phases` row per
//! phase (`phase`, `beta`, `alive_before`, `carved`, `clusters_formed`;
//! none for `ls93`, which keeps no per-phase trace) — and its `timings`
//! object gives the wall seconds spent loading the graph, decomposing it
//! and verifying the result.

use std::io::Read as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use bytes::Bytes;
use netdecomp::baselines::linial_saks;
use netdecomp::core::{
    basic, high_radius, params, staged, verify, DecompositionOutcome, NetworkDecomposition,
    PhaseTraceEntry,
};
use netdecomp::graph::{io, Graph};
use netdecomp::sim::transport::{
    launcher, run_worker_checkpointed, CheckpointPlan, WorkerConfig, DEFAULT_FRAME_TIMEOUT,
};
use netdecomp::sim::{
    graph_digest, CongestLimit, Ctx, HubAddr, HubClient, Inbox, Outbox, Protocol, RunStats,
    ShardPlan, Simulator, Snapshot,
};

#[derive(Debug, Clone)]
struct Options {
    input: String,
    algo: String,
    k: usize,
    c: f64,
    lambda: usize,
    seed: u64,
    assignment: bool,
    /// `--worker S`: this process runs shard `S` of a `--distributed` run.
    worker: Option<usize>,
    /// `--attempt A`: a worker's restart generation (0 on first launch).
    attempt: u64,
    /// `--trace`: a worker records its rounds and streams them to the hub.
    trace: bool,
    distributed: usize,
    rounds: usize,
    max_restarts: usize,
    heartbeat_ms: u64,
    timeout_ms: u64,
    hub_addr: Option<String>,
    json: bool,
    trace_out: Option<String>,
    checkpoint_dir: Option<String>,
    checkpoint_interval: u64,
}

impl Options {
    fn timeout(&self) -> Duration {
        Duration::from_millis(self.timeout_ms)
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: netdecomp <file|-> [--algo basic|staged|high-radius|ls93] \
         [--k K] [--c C] [--lambda L] [--seed S] [--assignment] [--json]\n\
         \x20      netdecomp <file> --distributed N [--rounds R] [--max-restarts M]\n\
         \x20                [--heartbeat-ms H] [--timeout-ms T] [--hub-addr ADDR]\n\
         \x20                [--checkpoint-dir DIR] [--checkpoint-interval N]\n\
         \x20                [--json] [--trace-out FILE]"
    );
    std::process::exit(2)
}

/// Parses the command line (without the program name) — the user's, or
/// the one [`worker_args`] hands a worker.
fn parse_args(args: impl IntoIterator<Item = String>) -> Options {
    let mut opts = Options {
        input: String::new(),
        algo: "basic".into(),
        k: 0, // 0 = derive from n
        c: 0.0,
        lambda: 3,
        seed: 0,
        assignment: false,
        worker: None,
        attempt: 0,
        trace: false,
        distributed: 0,
        rounds: 16,
        max_restarts: 3,
        heartbeat_ms: 50,
        timeout_ms: DEFAULT_FRAME_TIMEOUT.as_millis() as u64,
        hub_addr: None,
        json: false,
        trace_out: None,
        checkpoint_dir: None,
        checkpoint_interval: 0,
    };
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--algo" => opts.algo = args.next().unwrap_or_else(|| usage()),
            "--k" => opts.k = parse_or_usage(args.next()),
            "--c" => opts.c = parse_or_usage(args.next()),
            "--lambda" => opts.lambda = parse_or_usage(args.next()),
            "--seed" => opts.seed = parse_or_usage(args.next()),
            "--assignment" => opts.assignment = true,
            "--worker" => opts.worker = Some(parse_or_usage(args.next())),
            "--attempt" => opts.attempt = parse_or_usage(args.next()),
            "--trace" => opts.trace = true,
            "--distributed" => opts.distributed = parse_or_usage(args.next()),
            "--rounds" => opts.rounds = parse_or_usage(args.next()),
            "--max-restarts" => opts.max_restarts = parse_or_usage(args.next()),
            "--heartbeat-ms" => opts.heartbeat_ms = parse_or_usage(args.next()),
            "--timeout-ms" => opts.timeout_ms = parse_or_usage(args.next()),
            "--hub-addr" => opts.hub_addr = Some(args.next().unwrap_or_else(|| usage())),
            "--json" => opts.json = true,
            "--trace-out" => opts.trace_out = Some(args.next().unwrap_or_else(|| usage())),
            "--checkpoint-dir" => {
                opts.checkpoint_dir = Some(args.next().unwrap_or_else(|| usage()));
            }
            "--checkpoint-interval" => opts.checkpoint_interval = parse_or_usage(args.next()),
            "--help" | "-h" => usage(),
            other if opts.input.is_empty() && !other.starts_with("--") => {
                opts.input = other.to_string();
            }
            _ => usage(),
        }
    }
    if opts.input.is_empty() {
        usage();
    }
    opts
}

/// The command line a `--distributed` supervisor hands the worker for
/// `shard` on launch `attempt`, read back by [`parse_args`]. `opts` is
/// the supervisor's, with `input` a path every worker can open,
/// `hub_addr` the hub's bound address and `checkpoint_dir` the
/// directory checkpoints go to.
fn worker_args(opts: &Options, shard: usize, attempt: usize) -> Vec<String> {
    let mut args = vec![opts.input.clone()];
    let mut flag = |name: &str, value: String| args.extend([name.to_string(), value]);
    flag("--worker", shard.to_string());
    flag("--attempt", attempt.to_string());
    flag("--distributed", opts.distributed.to_string());
    flag("--rounds", opts.rounds.to_string());
    flag("--timeout-ms", opts.timeout_ms.to_string());
    flag("--heartbeat-ms", opts.heartbeat_ms.to_string());
    let interval = opts.checkpoint_interval.to_string();
    flag("--checkpoint-interval", interval);
    if let Some(addr) = &opts.hub_addr {
        flag("--hub-addr", addr.clone());
    }
    if let Some(dir) = &opts.checkpoint_dir {
        flag("--checkpoint-dir", dir.clone());
    }
    if opts.trace_out.is_some() {
        args.push("--trace".into());
    }
    args
}

/// `--hub-addr` accepts the canonical `unix:PATH` / `tcp:HOST:PORT`
/// forms, plus bare `HOST:PORT` as TCP shorthand (the form most users
/// will reach for on a real network).
fn parse_hub_addr(raw: &str) -> Result<HubAddr, String> {
    raw.parse::<HubAddr>()
        .or_else(|first| format!("tcp:{raw}").parse::<HubAddr>().map_err(|_| first))
}

fn parse_or_usage<T: std::str::FromStr>(raw: Option<String>) -> T {
    raw.and_then(|s| s.parse().ok()).unwrap_or_else(|| usage())
}

/// Fault-injection hooks for the chaos soak and the launcher smoke
/// tests (see the module docs). They stay environment variables because
/// every worker inherits them.
#[derive(Debug)]
struct TestHooks {
    /// `NETDECOMP_CHAOS_CRASH`: `(shard, round)` at which that worker
    /// exits 137.
    crash: Option<(usize, u64)>,
    /// `NETDECOMP_CHAOS_WEDGE`: `(shard, round)` at which that worker
    /// sleeps forever.
    wedge: Option<(usize, u64)>,
    /// `NETDECOMP_CHAOS_SLOW_MS`: a sleep before every round of every
    /// worker.
    slow_ms: u64,
    /// `NETDECOMP_CHAOS_KILL`: `(shard, round)` at which the supervisor
    /// SIGKILLs that worker.
    kill: Option<(usize, u64)>,
    /// `NETDECOMP_WORKER_ABORT`: the shard whose worker dies right after
    /// its handshake, on every launch.
    abort: Option<usize>,
    /// `NETDECOMP_REPLAY_WINDOW`: the hub's replay window in rounds.
    replay_window: Option<u64>,
}

/// Reads the [`TestHooks`] — the binary's only environment read.
fn test_hooks() -> TestHooks {
    let var = |name: &str| std::env::var(name).ok();
    let number = |name: &str| var(name).and_then(|raw| raw.trim().parse::<u64>().ok());
    let at = |name: &str| {
        let raw = var(name)?;
        let (shard, round) = raw.split_once(':')?;
        Some((shard.trim().parse().ok()?, round.trim().parse().ok()?))
    };
    TestHooks {
        crash: at("NETDECOMP_CHAOS_CRASH"),
        wedge: at("NETDECOMP_CHAOS_WEDGE"),
        slow_ms: number("NETDECOMP_CHAOS_SLOW_MS").unwrap_or(0),
        kill: at("NETDECOMP_CHAOS_KILL"),
        abort: var("NETDECOMP_WORKER_ABORT").and_then(|raw| raw.trim().parse().ok()),
        replay_window: number("NETDECOMP_REPLAY_WINDOW").filter(|&w| w > 0),
    }
}

/// Minimal JSON string escaping for `--json` output (no serializer dep).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn read_graph(path: &str) -> Result<Graph, Box<dyn std::error::Error>> {
    let text = if path == "-" {
        let mut buf = String::new();
        std::io::stdin().read_to_string(&mut buf)?;
        buf
    } else {
        std::fs::read_to_string(path)?
    };
    Ok(io::from_edge_list(&text)?)
}

/// Max-id flood: every node converges to the maximum vertex id of its
/// connected component. Deterministic and chatty — enough to exercise
/// every shard link of the fabric every round.
#[derive(Debug, Clone, PartialEq)]
struct Flood {
    best: u64,
}

/// Message-driven: a node rebroadcasts only when its inbox raised its
/// best id.
impl Protocol for Flood {
    const MESSAGE_DRIVEN: bool = true;

    fn start(&mut self, _ctx: &Ctx<'_>, out: &mut Outbox<'_>) {
        out.broadcast(&self.best.to_le_bytes());
    }

    fn round(&mut self, _ctx: &Ctx<'_>, incoming: Inbox<'_>, out: &mut Outbox<'_>) {
        let mut grew = false;
        for msg in incoming.iter() {
            let bytes: [u8; 8] = match msg.payload().try_into() {
                Ok(b) => b,
                Err(_) => continue,
            };
            let heard = u64::from_le_bytes(bytes);
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

impl Snapshot for Flood {
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

/// FNV-1a over a shard's flood states, the worker's one-frame proof of
/// what it computed (the parent recomputes it sequentially).
fn digest_bests(bests: impl Iterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for best in bests {
        for byte in best.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn flood_digest(nodes: &[Flood]) -> u64 {
    digest_bests(nodes.iter().map(|n| n.best))
}

/// One worker's share of the [`TestHooks`].
#[derive(Debug, Clone, Copy, Default)]
struct ChaosPlan {
    crash_at: Option<u64>,
    wedge_at: Option<u64>,
    slow_ms: u64,
}

impl ChaosPlan {
    fn for_shard(hooks: &TestHooks, shard: usize) -> ChaosPlan {
        let round = |hook: Option<(usize, u64)>| hook.filter(|&(s, _)| s == shard).map(|(_, r)| r);
        ChaosPlan {
            crash_at: round(hooks.crash),
            wedge_at: round(hooks.wedge),
            slow_ms: hooks.slow_ms,
        }
    }
}

/// [`Flood`] plus the worker-side chaos hooks. Exactly one node per
/// worker — the carrier, the first one built — counts rounds and fires
/// the schedule, so a crash or wedge happens once per shard, mid-compute
/// of a deterministic round (after earlier rounds committed, before this
/// round ships — the worst spot for the replay log). Counting rounds
/// inside `round` is why it is not message-driven: the carrier must run
/// every round, heard or not.
struct ChaosFlood {
    inner: Flood,
    carrier: bool,
    round: u64,
    plan: ChaosPlan,
}

impl ChaosFlood {
    fn chaos(&self, round: u64) {
        if !self.carrier {
            return;
        }
        if self.plan.slow_ms > 0 {
            std::thread::sleep(Duration::from_millis(self.plan.slow_ms));
        }
        if self.plan.wedge_at == Some(round) {
            loop {
                std::thread::sleep(Duration::from_secs(3600));
            }
        }
        if self.plan.crash_at == Some(round) {
            // SIGKILL-grade: no shutdown frame, no unwinding, the exit
            // code a kill -9 reaps as.
            std::process::exit(137);
        }
    }
}

/// Only the protocol state checkpoints: the chaos schedule is
/// configuration (and a relaunched worker runs with the one-shot hooks
/// stripped anyway), so a restored carrier simply stops counting.
impl Snapshot for ChaosFlood {
    fn save_state(&self) -> Bytes {
        self.inner.save_state()
    }

    fn load_state(&mut self, bytes: &[u8]) -> bool {
        self.inner.load_state(bytes)
    }
}

impl Protocol for ChaosFlood {
    fn start(&mut self, ctx: &Ctx<'_>, out: &mut Outbox<'_>) {
        self.chaos(0);
        self.inner.start(ctx, out);
    }

    fn round(&mut self, ctx: &Ctx<'_>, incoming: Inbox<'_>, out: &mut Outbox<'_>) {
        self.round += 1;
        self.chaos(self.round);
        self.inner.round(ctx, incoming, out);
    }
}

/// `--worker S`: shard `S` of a `--distributed` run, configured
/// entirely by its command line ([`worker_args`]). Streams its round
/// count, result digest, and [`RunStats`] to the hub as a `Stats` frame
/// before the shutdown (stdout is only a human-readable echo).
fn worker_main(
    opts: &Options,
    shard: usize,
    hooks: &TestHooks,
    graph: &Graph,
) -> Result<(), Box<dyn std::error::Error>> {
    if opts.distributed == 0 {
        return Err("worker mode needs --distributed N".into());
    }
    let addr = parse_hub_addr(
        opts.hub_addr
            .as_deref()
            .ok_or("worker mode needs --hub-addr")?,
    )?;
    let config = WorkerConfig {
        shard,
        shards: opts.distributed,
        rounds: opts.rounds,
        limit: CongestLimit::Unlimited,
        attempt: opts.attempt,
        trace: opts.trace,
    };
    let digest = graph_digest(graph);
    // The checkpoint must be loaded *before* the handshake — the resume
    // round rides in the Hello frame. A stale claim (fresh hub after a
    // whole-run restart) is granted round 0 instead; reconcile discards
    // the restored state and the run recomputes from scratch.
    let mut plan = CheckpointPlan::new(
        &config,
        digest,
        opts.checkpoint_dir.as_ref().map(PathBuf::from),
        opts.checkpoint_interval,
    );
    let (client, granted) = HubClient::connect_resuming(
        &addr,
        shard,
        config.shards,
        digest,
        opts.timeout(),
        plan.resume_round(),
    )?;
    plan.reconcile(granted);
    if hooks.abort == Some(shard) {
        // Fault hook: die after the handshake without a shutdown frame,
        // exactly like a crashed worker. Peers must get a typed error.
        std::process::exit(42);
    }
    if opts.heartbeat_ms > 0 {
        client.start_heartbeats(Duration::from_millis(opts.heartbeat_ms));
    }
    let chaos = ChaosPlan::for_shard(hooks, shard);
    let mut first = true;
    let (report, nodes) = run_worker_checkpointed(
        graph,
        &client,
        &config,
        plan,
        |id, _ctx| ChaosFlood {
            inner: Flood { best: id as u64 },
            carrier: std::mem::take(&mut first),
            round: 0,
            plan: chaos,
        },
        |nodes| digest_bests(nodes.iter().map(|n| n.inner.best)),
    )?;
    println!(
        "worker {shard} digest {:016x}",
        digest_bests(nodes.iter().map(|n| n.inner.best))
    );
    eprintln!(
        "worker {shard}: {} rounds, {} messages",
        report.rounds_run, report.stats.total_messages
    );
    Ok(())
}

/// `--distributed N`: supervise one `--worker` process per shard against
/// a socket hub — crashed or wedged workers are relaunched and replayed
/// — then cross-check every worker's `Stats`-frame digest against the
/// in-process sequential engine.
fn distributed_main(
    opts: &Options,
    hooks: &TestHooks,
    graph: &Graph,
) -> Result<(), Box<dyn std::error::Error>> {
    if opts.input == "-" {
        return Err("--distributed needs a graph file workers can re-read (not stdin)".into());
    }
    let shards = opts.distributed;
    let timeout = opts.timeout();
    let mut options = launcher::SuperviseOptions::new(shards);
    // The run deadline and stall window scale with the fabric timeout,
    // as `SuperviseOptions::new` derives them from its default.
    options.timeout = timeout;
    options.deadline = timeout * 12;
    options.stall = (timeout / 3).max(Duration::from_millis(250));
    options.graph_digest = Some(graph_digest(graph));
    options.max_restarts = opts.max_restarts;
    options.heartbeat = Duration::from_millis(opts.heartbeat_ms);
    options.backoff_seed = opts.seed;
    options.kill_at = hooks.kill;
    if let Some(window) = hooks.replay_window {
        options.replay_window = window;
    }
    options.trace_out = opts.trace_out.as_ref().map(PathBuf::from);
    if let Some(raw) = &opts.hub_addr {
        options.addr = Some(parse_hub_addr(raw)?);
    }
    // Checkpointing: with an interval set every worker checkpoints its
    // shard each interval rounds. A directory is provisioned under the
    // temp dir when none was named; an explicit one is created if
    // missing and kept afterwards.
    let provisioned = opts.checkpoint_interval > 0 && opts.checkpoint_dir.is_none();
    let ckpt_dir = if opts.checkpoint_interval > 0 {
        let dir = opts.checkpoint_dir.as_ref().map_or_else(
            || std::env::temp_dir().join(format!("netdecomp-ckpt-{}", std::process::id())),
            PathBuf::from,
        );
        std::fs::create_dir_all(&dir)?;
        Some(dir)
    } else {
        None
    };
    let mut worker = opts.clone();
    worker.input = std::fs::canonicalize(&opts.input)?.display().to_string();
    worker.checkpoint_dir = ckpt_dir.as_ref().map(|dir| dir.display().to_string());
    let exe = std::env::current_exe()?;
    let report = launcher::supervise(&options, |shard, addr, attempt| {
        worker.hub_addr = Some(addr.to_string());
        let mut cmd = std::process::Command::new(&exe);
        cmd.args(worker_args(&worker, shard, attempt))
            // Results travel as Stats frames; nobody drains worker pipes
            // under supervision, so don't create any.
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null());
        if attempt > 0 {
            // One-shot chaos: a relaunched worker runs clean, so the
            // crash/wedge it is recovering from cannot recur forever.
            for hook in ["NETDECOMP_CHAOS_CRASH", "NETDECOMP_CHAOS_WEDGE"] {
                cmd.env_remove(hook);
            }
        }
        cmd.spawn()
    })?;
    // Reference run: the same flood on the in-process sequential engine,
    // digested per worker shard range.
    let mut reference = Simulator::new(graph, |id, _ctx| Flood { best: id as u64 });
    reference.run_rounds(opts.rounds)?;
    let plan = ShardPlan::degree_balanced(graph, shards);
    let mut digests_match = true;
    let mut merged = RunStats::default();
    let mut workers_json = Vec::with_capacity(shards);
    for shard in 0..shards {
        let expected = flood_digest(&reference.nodes()[plan.range(shard)]);
        let received = report.worker_stats.get(shard).and_then(Option::as_ref);
        let matched = received.is_some_and(|ws| ws.result_digest == expected);
        digests_match &= matched;
        if let Some(ws) = received {
            merged.combine_shard(&ws.stats);
        }
        let restarts = report.restarts.get(shard).copied().unwrap_or(0);
        if opts.json {
            workers_json.push(format!(
                "{{\"shard\":{shard},\"rounds_run\":{},\"digest\":{},\
                 \"expected_digest\":\"{expected:016x}\",\"matched\":{matched},\
                 \"restarts\":{restarts}}}",
                received.map_or(0, |ws| ws.rounds_run),
                received.map_or("null".into(), |ws| format!("\"{:016x}\"", ws.result_digest)),
            ));
        } else {
            println!(
                "worker {shard}: rounds {} digest {} (expected {expected:016x}) restarts {restarts}",
                received.map_or(0, |ws| ws.rounds_run),
                received.map_or("missing".into(), |ws| format!("{:016x}", ws.result_digest)),
            );
        }
    }
    // Cross-check the shards' combined traffic against the reference too:
    // digests alone would not catch a wrong count.
    let expected = reference.stats();
    let traffic_matches = merged.total_messages == expected.total_messages
        && merged.total_bytes == expected.total_bytes;
    let all_match = digests_match && traffic_matches;
    if opts.json {
        // One machine-readable object on stdout; the prose above is the
        // default precisely because existing harnesses grep for it.
        println!(
            "{{\"type\":\"distributed_summary\",\"shards\":{shards},\"vertices\":{},\
             \"rounds\":{},\"matches_sequential\":{all_match},\"workers\":[{}],\
             \"recovery\":{{\"workers_restarted\":{},\"rounds_replayed\":{},\
             \"heartbeats_missed\":{},\"full_run_restarts\":{},\
             \"checkpoint_restores\":{}}},\
             \"stats\":{{\"rounds\":{},\"total_messages\":{},\"total_bytes\":{},\
             \"max_edge_bytes\":{}}},\"trace_out\":{}}}",
            graph.vertex_count(),
            opts.rounds,
            workers_json.join(","),
            report.workers_restarted,
            report.rounds_replayed,
            report.heartbeats_missed,
            report.full_run_restarts,
            report.checkpoint_restores,
            merged.rounds,
            merged.total_messages,
            merged.total_bytes,
            merged.max_edge_bytes,
            opts.trace_out.as_deref().map_or("null".into(), json_str),
        );
    } else {
        println!(
            "recovery: readmissions={} rounds_replayed={} heartbeats_missed={} \
             full_run_restarts={} checkpoint_restores={}",
            report.workers_restarted,
            report.rounds_replayed,
            report.heartbeats_missed,
            report.full_run_restarts,
            report.checkpoint_restores
        );
        println!(
            "distributed: {shards} workers over {} vertices, rounds={}, {} messages, \
             matches sequential: {all_match}",
            graph.vertex_count(),
            opts.rounds,
            merged.total_messages
        );
        if let Some(path) = &opts.trace_out {
            println!("flight recorder: {path}");
        }
    }
    if !digests_match {
        return Err("distributed run diverged from the sequential engine".into());
    }
    if !traffic_matches {
        return Err(format!(
            "distributed run delivered {} messages and {} bytes, the sequential engine {} and {}",
            merged.total_messages,
            merged.total_bytes,
            expected.total_messages,
            expected.total_bytes
        )
        .into());
    }
    if provisioned {
        // Our temp checkpoint dir served its run; an explicitly named
        // one (or any dir after a failure) is left for forensics.
        if let Some(dir) = &ckpt_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let opts = parse_args(std::env::args().skip(1));
    if opts.timeout_ms == 0 {
        return Err("--timeout-ms must be positive".into());
    }
    let hooks = test_hooks();
    let started = Instant::now();
    let graph = read_graph(&opts.input)?;
    let load_s = started.elapsed().as_secs_f64();
    if let Some(shard) = opts.worker {
        return worker_main(&opts, shard, &hooks, &graph);
    }
    if opts.distributed > 0 {
        return distributed_main(&opts, &hooks, &graph);
    }
    let n = graph.vertex_count();
    let k = if opts.k == 0 {
        ((n.max(2) as f64).ln().ceil() as usize).max(2)
    } else {
        opts.k
    };

    let started = Instant::now();
    // The phase loop's trace and truncation events (`ls93` has neither).
    let mut phases: (Vec<PhaseTraceEntry>, usize) = (Vec::new(), 0);
    let mut traced = |o: DecompositionOutcome| {
        phases = (o.trace().to_vec(), o.events().truncation_events);
        o.into_decomposition()
    };
    let (decomposition, label): (NetworkDecomposition, String) = match opts.algo.as_str() {
        "basic" => {
            let c = if opts.c > 0.0 { opts.c } else { 4.0 };
            let p = params::DecompositionParams::new(k, c)?;
            let o = basic::decompose(&graph, &p, opts.seed)?;
            let label = format!(
                "basic (Theorem 1): k={k} c={c} bound D<=2k-2={} events={}",
                p.diameter_bound(),
                o.events().truncation_events
            );
            (traced(o), label)
        }
        "staged" => {
            let c = if opts.c > 0.0 { opts.c } else { 6.0 };
            let p = params::StagedParams::new(k, c)?;
            let o = staged::decompose(&graph, &p, opts.seed)?;
            let label = format!(
                "staged (Theorem 2): k={k} c={c} bound D<=2k-2={} color bound {}",
                p.diameter_bound(),
                p.color_bound(n)
            );
            (traced(o), label)
        }
        "high-radius" => {
            let c = if opts.c > 0.0 { opts.c } else { 4.0 };
            let p = params::HighRadiusParams::new(opts.lambda, c)?;
            let o = high_radius::decompose(&graph, &p, opts.seed)?;
            let label = format!(
                "high-radius (Theorem 3): lambda={} c={c} bound D<={}",
                opts.lambda,
                p.diameter_bound(n)
            );
            (traced(o), label)
        }
        "ls93" => {
            let c = if opts.c > 0.0 { opts.c } else { 4.0 };
            let p = linial_saks::LinialSaksParams::new(k, c)?;
            let o = linial_saks::decompose(&graph, &p, opts.seed)?;
            let label = format!(
                "linial-saks (weak baseline): k={k} c={c} weak bound D<={}",
                p.weak_diameter_bound()
            );
            (o.decomposition, label)
        }
        other => {
            eprintln!("unknown algorithm `{other}`");
            usage();
        }
    };

    let decompose_s = started.elapsed().as_secs_f64();
    let started = Instant::now();
    let report = verify::verify(&graph, &decomposition)?;
    let verify_s = started.elapsed().as_secs_f64();
    if opts.json {
        let (trace, truncation_events) = phases;
        let alive_vertex_phases: usize = trace.iter().map(|t| t.alive_before).sum();
        let rows: Vec<String> = trace
            .iter()
            .map(|t| {
                format!(
                    "{{\"phase\":{},\"beta\":{},\"alive_before\":{},\"carved\":{},\
                     \"clusters_formed\":{}}}",
                    t.phase, t.beta, t.alive_before, t.carved, t.clusters_formed
                )
            })
            .collect();
        println!(
            "{{\"type\":\"verify_report\",\"algorithm\":{},\"n\":{n},\"m\":{},\
             \"clusters\":{},\"colors\":{},\"complete\":{},\"clusters_connected\":{},\
             \"max_strong_diameter\":{},\"max_weak_diameter\":{},\
             \"supergraph_properly_colored\":{},\"truncation_events\":{truncation_events},\
             \"alive_vertex_phases\":{alive_vertex_phases},\"phases\":[{}],\
             \"timings\":{{\"load_s\":{load_s},\"decompose_s\":{decompose_s},\"verify_s\":{verify_s}}}}}",
            json_str(&label),
            graph.edge_count(),
            report.cluster_count,
            report.color_count,
            report.complete,
            report.clusters_connected,
            report
                .max_strong_diameter
                .map_or("null".into(), |d| d.to_string()),
            report
                .max_weak_diameter
                .map_or("null".into(), |d| d.to_string()),
            report.supergraph_properly_colored,
            rows.join(",")
        );
        if opts.assignment {
            for v in 0..n {
                let c = decomposition.cluster_of(v);
                let b = decomposition.block_of(v);
                println!(
                    "{{\"type\":\"assignment\",\"vertex\":{v},\"cluster\":{},\"color\":{}}}",
                    c.map_or("null".into(), |x| x.to_string()),
                    b.map_or("null".into(), |x| x.to_string())
                );
            }
        }
        return Ok(());
    }
    println!("algorithm: {label}");
    println!("graph: n={} m={}", n, graph.edge_count());
    println!(
        "clusters: {}  colors: {}  complete: {}  connected: {}",
        report.cluster_count, report.color_count, report.complete, report.clusters_connected
    );
    println!(
        "max strong diameter: {}  max weak diameter: {}  proper: {}",
        report
            .max_strong_diameter
            .map_or("inf".into(), |d| d.to_string()),
        report
            .max_weak_diameter
            .map_or("inf".into(), |d| d.to_string()),
        report.supergraph_properly_colored
    );
    if opts.assignment {
        println!("# vertex cluster color");
        for v in 0..n {
            let c = decomposition.cluster_of(v);
            let b = decomposition.block_of(v);
            println!(
                "{v} {} {}",
                c.map_or(-1i64, |x| x as i64),
                b.map_or(-1i64, |x| x as i64)
            );
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Options {
        parse_args(line.split_whitespace().map(String::from))
    }

    #[test]
    fn worker_arguments_round_trip_through_the_parser() {
        let mut opts = parse(
            "graph.txt --distributed 3 --rounds 12 --timeout-ms 2000 --heartbeat-ms 0 \
             --checkpoint-interval 3 --checkpoint-dir /ckpt --trace-out /dump.jsonl --json",
        );
        opts.hub_addr = Some("unix:/hub.sock".into());
        let worker = parse_args(worker_args(&opts, 2, 1));
        assert_eq!(worker.input, "graph.txt");
        assert_eq!(worker.worker, Some(2));
        assert_eq!(worker.attempt, 1);
        assert!(worker.trace);
        assert_eq!(worker.distributed, 3);
        assert_eq!(worker.rounds, 12);
        assert_eq!(worker.timeout_ms, 2000);
        assert_eq!(worker.heartbeat_ms, 0);
        assert_eq!(worker.hub_addr.as_deref(), Some("unix:/hub.sock"));
        assert_eq!(worker.checkpoint_dir.as_deref(), Some("/ckpt"));
        assert_eq!(worker.checkpoint_interval, 3);
        // Without a dump, the worker runs untraced and with defaults.
        let plain = parse("graph.txt --distributed 2");
        let worker = parse_args(worker_args(&plain, 0, 0));
        assert!(!worker.trace);
        assert_eq!(worker.worker, Some(0));
        assert_eq!(worker.timeout_ms, plain.timeout_ms);
        assert_eq!(worker.heartbeat_ms, plain.heartbeat_ms);
        assert_eq!(worker.checkpoint_dir, None);
        assert_eq!(worker.checkpoint_interval, 0);
    }
}
