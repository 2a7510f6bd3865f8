//! Command-line interface: decompose a graph given as an edge-list file.
//!
//! ```text
//! netdecomp <file|-> [--algo basic|staged|high-radius|ls93] [--k K] [--c C]
//!           [--lambda L] [--seed S] [--assignment] [--json]
//! netdecomp <file> --distributed N [--rounds R] [--max-restarts M]
//!           [--heartbeat-ms H] [--timeout-ms T] [--hub-addr ADDR]
//!           [--checkpoint-dir DIR] [--checkpoint-interval N]
//!           [--json] [--trace-out FILE]
//! netdecomp <file> --worker            # spawned by --distributed
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
//! *supervised*: each worker heartbeats (`--heartbeat-ms`, propagated
//! through the environment), a crashed or wedged worker is relaunched up
//! to `--max-restarts` times, and the hub's replay log fast-forwards the
//! replacement — only an exhausted budget is an error. Worker results
//! arrive as `Stats` control frames over the fabric itself, not by
//! parsing worker stdout. `--timeout-ms` pins the fabric timeout for
//! this invocation and every worker it spawns; `--hub-addr` (or
//! `NETDECOMP_HUB_ADDR`) binds the hub somewhere specific — `unix:PATH`,
//! `tcp:HOST:PORT`, or bare `HOST:PORT` (TCP) — instead of the default
//! loopback temp socket.
//!
//! A worker finds its shard, fabric size, hub address, and round budget
//! in the environment variables named by [`launcher`]'s `ENV_*`
//! constants. Chaos hooks for the soak harness, armed only on a worker's
//! first launch (restarts run clean): `NETDECOMP_WORKER_ABORT=<shard>`
//! connects then dies wordlessly on *every* launch (the budget-exhaustion
//! hook); `NETDECOMP_CHAOS_CRASH=<shard>:<round>` exits 137 when that
//! shard computes that round; `NETDECOMP_CHAOS_WEDGE=<shard>:<round>`
//! sleeps forever there (the supervisor must stall-detect and kill it);
//! `NETDECOMP_CHAOS_KILL=<shard>:<round>` has the *supervisor* SIGKILL
//! the shard from outside when it reaches that round;
//! `NETDECOMP_CHAOS_SLOW_MS=<ms>` slows every round of every worker.
//!
//! Crash recovery in O(interval): `--checkpoint-interval N` (or
//! `NETDECOMP_CHECKPOINT_INTERVAL`) has every worker write a checksummed
//! checkpoint of its shard — protocol state, pending inbox, CONGEST
//! counters, stats — every `N` committed rounds, into `--checkpoint-dir`
//! (`NETDECOMP_CHECKPOINT_DIR`; a temp dir is provisioned when unset). A
//! relaunched worker resumes from its newest *valid* checkpoint (torn or
//! corrupt files are digest-rejected and skipped, never trusted) and
//! re-handshakes at that round, so the hub's replay log only has to
//! cover one interval — a crash older than the replay window no longer
//! forces a whole-run restart.
//!
//! Observability: `--trace-out FILE` enables the trace plane
//! (`NETDECOMP_TRACE=1` + `NETDECOMP_TRACE_OUT`, inherited by every
//! worker) and has the supervisor dump a flight-recorder JSONL timeline
//! — per-round per-shard phase timings plus restart/kill/halt decisions
//! — to FILE on completion or failure. `--json` replaces the prose
//! summary with one machine-readable JSON object on stdout; on the
//! centralized path its `timings` object gives the wall seconds spent
//! loading the graph, decomposing it and verifying the result.

use std::io::Read as _;
use std::time::{Duration, Instant};

use bytes::Bytes;
use netdecomp::baselines::linial_saks;
use netdecomp::core::{basic, high_radius, params, staged, verify, NetworkDecomposition};
use netdecomp::graph::{io, Graph};
use netdecomp::sim::transport::{
    checkpoint_dir, checkpoint_interval, launcher, run_worker_checkpointed, CheckpointPlan,
    WorkerConfig,
};
use netdecomp::sim::{
    frame_timeout, graph_digest, replay_window, CongestLimit, Ctx, HubAddr, HubClient, Inbox,
    Outbox, Protocol, RunStats, ShardPlan, Simulator, Snapshot,
};

struct Options {
    input: String,
    algo: String,
    k: usize,
    c: f64,
    lambda: usize,
    seed: u64,
    assignment: bool,
    worker: bool,
    distributed: usize,
    rounds: usize,
    max_restarts: usize,
    heartbeat_ms: u64,
    timeout_ms: Option<u64>,
    hub_addr: Option<String>,
    json: bool,
    trace_out: Option<String>,
    checkpoint_dir: Option<String>,
    checkpoint_interval: Option<u64>,
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

fn parse_args() -> Options {
    let mut opts = Options {
        input: String::new(),
        algo: "basic".into(),
        k: 0, // 0 = derive from n
        c: 0.0,
        lambda: 3,
        seed: 0,
        assignment: false,
        worker: false,
        distributed: 0,
        rounds: 16,
        max_restarts: 3,
        heartbeat_ms: 50,
        timeout_ms: None,
        hub_addr: std::env::var("NETDECOMP_HUB_ADDR").ok(),
        json: false,
        trace_out: None,
        checkpoint_dir: None,
        checkpoint_interval: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--algo" => opts.algo = args.next().unwrap_or_else(|| usage()),
            "--k" => opts.k = parse_or_usage(args.next()),
            "--c" => opts.c = parse_or_usage(args.next()),
            "--lambda" => opts.lambda = parse_or_usage(args.next()),
            "--seed" => opts.seed = parse_or_usage(args.next()),
            "--assignment" => opts.assignment = true,
            "--worker" => opts.worker = true,
            "--distributed" => opts.distributed = parse_or_usage(args.next()),
            "--rounds" => opts.rounds = parse_or_usage(args.next()),
            "--max-restarts" => opts.max_restarts = parse_or_usage(args.next()),
            "--heartbeat-ms" => opts.heartbeat_ms = parse_or_usage(args.next()),
            "--timeout-ms" => opts.timeout_ms = Some(parse_or_usage(args.next())),
            "--hub-addr" => opts.hub_addr = Some(args.next().unwrap_or_else(|| usage())),
            "--json" => opts.json = true,
            "--trace-out" => opts.trace_out = Some(args.next().unwrap_or_else(|| usage())),
            "--checkpoint-dir" => {
                opts.checkpoint_dir = Some(args.next().unwrap_or_else(|| usage()));
            }
            "--checkpoint-interval" => opts.checkpoint_interval = Some(parse_or_usage(args.next())),
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

/// `--hub-addr` / `NETDECOMP_HUB_ADDR` accepts the canonical
/// `unix:PATH` / `tcp:HOST:PORT` forms, plus bare `HOST:PORT` as TCP
/// shorthand (the form most users will reach for on a real network).
fn parse_hub_addr(raw: &str) -> Result<HubAddr, String> {
    raw.parse::<HubAddr>()
        .or_else(|first| format!("tcp:{raw}").parse::<HubAddr>().map_err(|_| first))
}

fn parse_or_usage<T: std::str::FromStr>(raw: Option<String>) -> T {
    raw.and_then(|s| s.parse().ok()).unwrap_or_else(|| usage())
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

impl Protocol for Flood {
    fn start(&mut self, _ctx: &Ctx<'_>, out: &mut Outbox) {
        out.broadcast(Bytes::from(self.best.to_le_bytes().to_vec()));
    }

    fn round(&mut self, _ctx: &Ctx<'_>, incoming: Inbox<'_>, out: &mut Outbox) {
        let mut grew = false;
        for msg in incoming.iter() {
            let bytes: [u8; 8] = match msg.payload().as_slice().try_into() {
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
            out.broadcast(Bytes::from(self.best.to_le_bytes().to_vec()));
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

/// Per-shard chaos schedule parsed from the `NETDECOMP_CHAOS_*` hooks.
#[derive(Debug, Clone, Copy, Default)]
struct ChaosPlan {
    crash_at: Option<u64>,
    wedge_at: Option<u64>,
    slow_ms: u64,
}

/// Parses a `"<shard>:<round>"` hook, returning the round if it names
/// this shard.
fn chaos_round(var: &str, shard: usize) -> Option<u64> {
    let raw = std::env::var(var).ok()?;
    let (s, r) = raw.split_once(':')?;
    if s.trim().parse::<usize>().ok()? != shard {
        return None;
    }
    r.trim().parse::<u64>().ok()
}

impl ChaosPlan {
    fn from_env(shard: usize) -> ChaosPlan {
        ChaosPlan {
            crash_at: chaos_round("NETDECOMP_CHAOS_CRASH", shard),
            wedge_at: chaos_round("NETDECOMP_CHAOS_WEDGE", shard),
            slow_ms: std::env::var("NETDECOMP_CHAOS_SLOW_MS")
                .ok()
                .and_then(|v| v.trim().parse().ok())
                .unwrap_or(0),
        }
    }
}

/// [`Flood`] plus the worker-side chaos hooks. Exactly one node per
/// worker — the carrier, the first one built — counts rounds and fires
/// the schedule, so a crash or wedge happens once per shard, mid-compute
/// of a deterministic round (after earlier rounds committed, before this
/// round ships — the worst spot for the replay log).
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
    fn start(&mut self, ctx: &Ctx<'_>, out: &mut Outbox) {
        self.chaos(0);
        self.inner.start(ctx, out);
    }

    fn round(&mut self, ctx: &Ctx<'_>, incoming: Inbox<'_>, out: &mut Outbox) {
        self.round += 1;
        self.chaos(self.round);
        self.inner.round(ctx, incoming, out);
    }
}

fn env_number(name: &str) -> Result<usize, Box<dyn std::error::Error>> {
    Ok(std::env::var(name)
        .map_err(|_| format!("worker mode needs {name}"))?
        .parse::<usize>()
        .map_err(|_| format!("{name} must be a number"))?)
}

/// `--worker`: one shard of a `--distributed` run, configured entirely
/// through the launcher's environment variables. Streams its round
/// count, result digest, and [`RunStats`] to the hub as a `Stats` frame
/// before the shutdown (stdout is only a human-readable echo).
fn worker_main(graph: &Graph) -> Result<(), Box<dyn std::error::Error>> {
    let shard = env_number(launcher::ENV_SHARD)?;
    let shards = env_number(launcher::ENV_SHARDS)?;
    let rounds = env_number(launcher::ENV_ROUNDS)?;
    let addr: HubAddr = std::env::var(launcher::ENV_ADDR)
        .map_err(|_| format!("worker mode needs {}", launcher::ENV_ADDR))?
        .parse()?;
    let digest = graph_digest(graph);
    // The checkpoint must be loaded *before* the handshake — the resume
    // round rides in the Hello frame. A stale claim (fresh hub after a
    // whole-run restart) is granted round 0 instead; reconcile discards
    // the restored state and the run recomputes from scratch.
    let mut plan = CheckpointPlan::from_env(shard, shards, digest, rounds);
    let (client, granted) = HubClient::connect_resuming(
        &addr,
        shard,
        shards,
        digest,
        frame_timeout(),
        plan.resume_round(),
    )?;
    plan.reconcile(granted);
    if std::env::var("NETDECOMP_WORKER_ABORT").ok() == Some(shard.to_string()) {
        // Fault hook: die after the handshake without a shutdown frame,
        // exactly like a crashed worker. Peers must get a typed error.
        std::process::exit(42);
    }
    let heartbeat_ms: u64 = std::env::var(launcher::ENV_HEARTBEAT)
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0);
    if heartbeat_ms > 0 {
        client.start_heartbeats(Duration::from_millis(heartbeat_ms));
    }
    let config = WorkerConfig {
        shard,
        shards,
        rounds,
        limit: CongestLimit::Unlimited,
    };
    let chaos = ChaosPlan::from_env(shard);
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
fn distributed_main(opts: &Options, graph: &Graph) -> Result<(), Box<dyn std::error::Error>> {
    if opts.input == "-" {
        return Err("--distributed needs a graph file workers can re-read (not stdin)".into());
    }
    let shards = opts.distributed;
    let input = std::fs::canonicalize(&opts.input)?;
    let mut options = launcher::SuperviseOptions::new(shards);
    options.graph_digest = Some(graph_digest(graph));
    options.max_restarts = opts.max_restarts;
    options.heartbeat = Duration::from_millis(opts.heartbeat_ms.max(1));
    options.backoff_seed = opts.seed;
    if let Some(raw) = &opts.hub_addr {
        options.addr = Some(parse_hub_addr(raw)?);
    }
    if let Some((shard, round)) = std::env::var("NETDECOMP_CHAOS_KILL").ok().and_then(|raw| {
        let (s, r) = raw.split_once(':')?;
        Some((s.trim().parse().ok()?, r.trim().parse().ok()?))
    }) {
        options.kill_at = Some((shard, round));
    }
    // Checkpointing: with an interval set (flag or environment) every
    // worker checkpoints its shard each interval rounds. A directory is
    // provisioned under the temp dir when none was named; an explicit
    // one is created if missing and kept afterwards.
    let ckpt_interval = checkpoint_interval();
    let provisioned = ckpt_interval > 0 && checkpoint_dir().is_none();
    let ckpt_dir = if ckpt_interval > 0 {
        let dir = checkpoint_dir().unwrap_or_else(|| {
            std::env::temp_dir().join(format!("netdecomp-ckpt-{}", std::process::id()))
        });
        std::fs::create_dir_all(&dir)?;
        Some(dir)
    } else {
        None
    };
    let exe = std::env::current_exe()?;
    let report = launcher::supervise(&options, |shard, addr, attempt| {
        let mut cmd = std::process::Command::new(&exe);
        cmd.arg(&input)
            .arg("--worker")
            .env(launcher::ENV_SHARD, shard.to_string())
            .env(launcher::ENV_SHARDS, shards.to_string())
            .env(launcher::ENV_ROUNDS, opts.rounds.to_string())
            .env(launcher::ENV_ADDR, addr.to_string())
            .env(
                launcher::ENV_TIMEOUT,
                frame_timeout().as_millis().to_string(),
            )
            .env(launcher::ENV_HEARTBEAT, opts.heartbeat_ms.to_string())
            .env(launcher::ENV_REPLAY_WINDOW, replay_window().to_string())
            // Trace plane: the relaunch generation each worker stamps
            // into its RoundTrace records.
            .env(launcher::ENV_ATTEMPT, attempt.to_string())
            // Results travel as Stats frames; nobody drains worker pipes
            // under supervision, so don't create any.
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null());
        if let Some(dir) = &ckpt_dir {
            cmd.env(launcher::ENV_CHECKPOINT_DIR, dir)
                .env(launcher::ENV_CHECKPOINT_INTERVAL, ckpt_interval.to_string());
        }
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
            netdecomp::sim::trace_out()
                .map_or("null".into(), |p| json_str(&p.display().to_string())),
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
        if let Some(path) = netdecomp::sim::trace_out() {
            println!("flight recorder: {}", path.display());
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
    let opts = parse_args();
    if let Some(ms) = opts.timeout_ms {
        if ms == 0 {
            return Err("--timeout-ms must be positive".into());
        }
        // Pin the fabric timeout for this invocation; the supervisor's
        // spawn closure forwards it to every worker via ENV_TIMEOUT.
        std::env::set_var("NETDECOMP_FRAME_TIMEOUT_MS", ms.to_string());
    }
    if let Some(path) = &opts.trace_out {
        // Enable the trace plane for this process and (via inherited
        // environment) every worker it spawns; the supervisor dumps the
        // flight recording here on completion or failure.
        std::env::set_var("NETDECOMP_TRACE_OUT", path);
        std::env::set_var("NETDECOMP_TRACE", "1");
    }
    // Checkpoint knobs pin the environment the same way --timeout-ms
    // does, so the supervisor and every worker it spawns agree.
    if let Some(n) = opts.checkpoint_interval {
        std::env::set_var(launcher::ENV_CHECKPOINT_INTERVAL, n.to_string());
    }
    if let Some(dir) = &opts.checkpoint_dir {
        std::env::set_var(launcher::ENV_CHECKPOINT_DIR, dir);
    }
    let started = Instant::now();
    let graph = read_graph(&opts.input)?;
    let load_s = started.elapsed().as_secs_f64();
    if opts.worker {
        return worker_main(&graph);
    }
    if opts.distributed > 0 {
        return distributed_main(&opts, &graph);
    }
    let n = graph.vertex_count();
    let k = if opts.k == 0 {
        ((n.max(2) as f64).ln().ceil() as usize).max(2)
    } else {
        opts.k
    };

    let started = Instant::now();
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
            (o.into_decomposition(), label)
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
            (o.into_decomposition(), label)
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
            (o.into_decomposition(), label)
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
        println!(
            "{{\"type\":\"verify_report\",\"algorithm\":{},\"n\":{n},\"m\":{},\
             \"clusters\":{},\"colors\":{},\"complete\":{},\"clusters_connected\":{},\
             \"max_strong_diameter\":{},\"max_weak_diameter\":{},\
             \"supergraph_properly_colored\":{},\
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
            report.supergraph_properly_colored
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
