//! Process-per-shard orchestration: bind a hub, spawn workers, keep
//! them alive, and reap them with a deadline.
//!
//! The launcher owns the lifecycle the robustness contract hinges on:
//! **no child outcome can wedge the parent**. [`supervise`] binds the
//! hub, spawns one worker per shard, and heals the run: a crashed or
//! wedged worker is killed (if needed), relaunched with exponential
//! backoff and deterministic jitter up to a restart budget, resumes from
//! its newest valid checkpoint (or round 0 when it has none), and is
//! re-admitted by the hub's replay log so the run still completes
//! bit-identically. That is the one recovery path. Only an exhausted
//! budget, the overall deadline or an unrecoverable protocol error — a
//! resume below the replay window included — surfaces to the caller, as
//! the fabric's first [`SimError`] or a synthesized
//! [`SimError::Transport`]. With `max_restarts: 0` the first worker
//! failure ends the run.
//!
//! The launcher does not know how to start a worker — the caller
//! supplies a spawn closure mapping `(shard, hub address, attempt, run)`
//! to a [`Child`], and that worker must checkpoint every
//! [`SuperviseOptions::checkpoint_interval`] rounds under the run
//! identity `run` ([`super::WorkerConfig::run`]), which the supervisor
//! mints once per run. The `netdecomp` binary hands each worker its
//! settings as `--worker` command-line arguments.

use std::io;
use std::num::NonZeroU64;
use std::path::PathBuf;
use std::process::Child;
use std::time::{Duration, Instant, SystemTime};

use crate::error::{SimError, TransportCause, TransportError};
use crate::trace::FlightRecorder;

use super::fault::mix;
use super::socket::{Hub, HubOptions};
use super::{HubAddr, WorkerStats};

/// A hub socket path in the system temp directory, unique to this
/// process and call.
#[must_use]
pub fn temp_hub_addr() -> HubAddr {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    HubAddr::Unix(
        std::env::temp_dir().join(format!("netdecomp-hub-{}-{n}.sock", std::process::id())),
    )
}

/// A fresh run identity for [`supervise`]: the wall clock, this process
/// and a per-process count, mixed. Two runs that share a checkpoint
/// directory, even of the same command, get different identities.
fn mint_run_id() -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let nanos = SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map_or(0, |since| since.as_nanos() as u64);
    let local = (u64::from(std::process::id()) << 32) | SEQ.fetch_add(1, Ordering::Relaxed);
    mix(nanos ^ mix(local))
}

/// Everything a supervised launch needs beyond the spawn closure.
#[derive(Debug, Clone)]
pub struct SuperviseOptions {
    /// Worker (= shard) count.
    pub shards: usize,
    /// The fabric timeout handed to the hub (per blocking point).
    pub timeout: Duration,
    /// Overall wall-clock budget for the whole supervised run,
    /// restarts included. When it passes, everything is killed and the
    /// caller gets a typed timeout naming the least-advanced shard.
    pub deadline: Duration,
    /// Graph digest every worker must present; `None` accepts the first
    /// worker's and holds the rest to it.
    pub graph_digest: Option<u64>,
    /// Hub address to bind; `None` picks [`temp_hub_addr`].
    pub addr: Option<HubAddr>,
    /// Restart budget **per shard**: how many relaunches a single shard
    /// may consume before the supervisor declares it lost.
    pub max_restarts: usize,
    /// Base restart delay; attempt `n` waits `backoff × 2^(n-1)` plus
    /// deterministic jitter.
    pub backoff: Duration,
    /// Seed for the restart jitter, so a supervised chaos run is
    /// reproducible end to end.
    pub backoff_seed: u64,
    /// Expected worker heartbeat interval. A stalled fabric whose prime
    /// suspect has not beaten for longer than this counts a missed
    /// heartbeat before the kill. Zero disables the bookkeeping.
    pub heartbeat: Duration,
    /// How long the global barrier round may sit still (with live,
    /// unfinished workers) before the supervisor declares a wedge and
    /// kills the least-advanced shard. Must exceed the longest honest
    /// round, including replay after a restart — but stay well *under*
    /// the fabric timeout: surviving peers wait out at most one timeout
    /// per collect, and the whole kill + relaunch + re-run must land
    /// inside their patience or the wedge degrades into a typed timeout
    /// instead of healing.
    pub stall: Duration,
    /// Chaos hook: SIGKILL this shard the first time its committed (or
    /// heartbeat-reported) round reaches the given value. Exercises the
    /// crash-recovery path from the outside, no worker cooperation
    /// needed. Fires at most once per supervised run, and is sampled at
    /// the supervision tick — a run faster than the tick can finish
    /// before the kill lands, so pair it with slowed rounds when the
    /// kill must happen.
    pub kill_at: Option<(usize, u64)>,
    /// Rounds between the checkpoints every worker writes (the spawn
    /// closure must hand it to them). The hub retains
    /// [`RETAIN_CHECKPOINTS`](crate::checkpoint::RETAIN_CHECKPOINTS)
    /// intervals of replay history, so a relaunched worker can resume
    /// from either checkpoint it keeps.
    pub checkpoint_interval: NonZeroU64,
    /// Where to write the flight-recorder JSONL dump (worker ring
    /// snapshots merged with the supervisor's restart / chaos / stall
    /// annotations — schema in the [`crate::trace`] module docs).
    /// Written on *every* outcome, healed or fatal; `None` (the
    /// default) disables the recorder.
    pub trace_out: Option<PathBuf>,
}

impl SuperviseOptions {
    /// Defaults: fabric timeout [`super::DEFAULT_FRAME_TIMEOUT`],
    /// deadline twelve times that (restarts need headroom), three
    /// restarts per shard, 50 ms base backoff, stall window of a third of
    /// a timeout (at least 250 ms), a checkpoint every
    /// [`super::DEFAULT_CHECKPOINT_INTERVAL`] rounds, no chaos kill, no
    /// flight-recorder dump.
    #[must_use]
    pub fn new(shards: usize) -> SuperviseOptions {
        let timeout = super::DEFAULT_FRAME_TIMEOUT;
        SuperviseOptions {
            shards,
            timeout,
            deadline: timeout * 12,
            graph_digest: None,
            addr: None,
            max_restarts: 3,
            backoff: Duration::from_millis(50),
            backoff_seed: 0,
            heartbeat: Duration::from_millis(100),
            stall: (timeout / 3).max(Duration::from_millis(250)),
            kill_at: None,
            checkpoint_interval: super::DEFAULT_CHECKPOINT_INTERVAL,
            trace_out: None,
        }
    }
}

/// The outcome of a fully-successful supervised run.
#[derive(Debug)]
pub struct SuperviseReport {
    /// Per-shard end-of-run reports streamed to the hub as `Stats`
    /// control frames (replacing stdout parsing). `None` for a shard
    /// whose final frame never arrived.
    pub worker_stats: Vec<Option<WorkerStats>>,
    /// Per-shard relaunch counts (initial spawns not included).
    pub restarts: Vec<usize>,
    /// Hub-side re-admissions: relaunched workers that rejoined.
    pub workers_restarted: usize,
    /// Rounds replayed to relaunched workers from the hub's logs.
    pub rounds_replayed: usize,
    /// Heartbeats judged overdue before a supervisor intervention.
    pub heartbeats_missed: usize,
    /// Workers that resumed from an on-disk checkpoint instead of
    /// re-running from round 0 (their `checkpoint_load` event reached
    /// the hub).
    pub checkpoint_restores: usize,
}

/// One supervised shard's lifecycle state.
enum Slot {
    Running(Child),
    /// Exited 0 but the hub has not yet seen its `Shutdown` — give the
    /// in-flight frame one settle window before calling it a crash.
    Settling(Instant),
    /// Relaunch scheduled (backoff + jitter).
    Backoff(Instant),
    Finished,
    Lost,
}

/// The poll cadence of the supervision loop.
const SUPERVISE_TICK: Duration = Duration::from_millis(10);

/// Binds the hub, spawns one worker per shard, and keeps the run alive
/// through worker crashes and wedges.
///
/// The spawn closure receives `(shard, hub address, attempt, run)`
/// where `attempt` is 0 for the initial spawn and counts up across
/// restarts (so a chaos hook armed only for attempt 0 stays disarmed on
/// every relaunch), and `run` is the identity minted for this run, the
/// same for every spawn of it. A relaunched worker resumes from the
/// newest valid checkpoint of its run — or reruns deterministically
/// from round 0 when it has none — and handshakes at that round; the
/// hub echo-discards re-shipped rounds while replaying the inbound
/// history the worker missed.
///
/// Do not pipe worker stdout/stderr through the spawn closure unless
/// something drains them — the supervisor only reaps exit statuses, so
/// a filled pipe would wedge the child (and then be killed as one).
///
/// # Errors
///
/// - the fabric's first broadcast [`SimError`] — including the typed
///   `Transport` error naming the shard whose restart budget ran out,
///   a worker's own error (a fabric wider than the graph included), and
///   the typed handshake refusal of a resume round the hub cannot serve;
/// - [`TransportCause::Timeout`] naming the least-advanced shard when
///   the overall deadline passes first.
pub fn supervise(
    options: &SuperviseOptions,
    mut spawn: impl FnMut(usize, &HubAddr, usize, u64) -> io::Result<Child>,
) -> Result<SuperviseReport, SimError> {
    let mut recorder = options.trace_out.as_ref().map(|_| FlightRecorder::new());
    let result = supervise_hub(options, &mut spawn, &mut recorder);
    if let (Some(recorder), Some(path)) = (&mut recorder, &options.trace_out) {
        match &result {
            Ok(report) => recorder.event(
                None,
                0,
                "halt",
                format!(
                    "run complete: restarts={:?} rounds_replayed={}",
                    report.restarts, report.rounds_replayed
                ),
            ),
            Err(error) => recorder.event(None, 0, "fatal", error.to_string()),
        }
        // The dump is best-effort postmortem evidence; an unwritable
        // path must not turn a healed run into a failed one.
        let _ = recorder.dump_to(path);
    }
    result
}

/// Drains the hub's per-shard trace streams and buffered worker
/// lifecycle events into the recorder — called before every hub
/// teardown, so the last-K rounds and the checkpoint write/load/reject
/// reports a crashed worker streamed survive into the dump.
fn absorb_worker_traces(recorder: &mut Option<FlightRecorder>, hub: &Hub) {
    if let Some(r) = recorder {
        for (shard, records) in hub.worker_traces().into_iter().enumerate() {
            r.absorb_ring(shard, records);
        }
        for event in hub.take_worker_events() {
            r.event(
                Some(event.shard as usize),
                event.round,
                worker_event_kind(event.code),
                event.detail,
            );
        }
    }
}

/// Maps a worker event code to the flight-recorder kind string it is
/// rendered under in the JSONL dump.
fn worker_event_kind(code: u8) -> &'static str {
    use super::control::{EVENT_CHECKPOINT_LOAD, EVENT_CHECKPOINT_REJECT, EVENT_CHECKPOINT_WRITE};
    match code {
        EVENT_CHECKPOINT_WRITE => "checkpoint_write",
        EVENT_CHECKPOINT_LOAD => "checkpoint_load",
        EVENT_CHECKPOINT_REJECT => "checkpoint_reject",
        _ => "worker_event",
    }
}

/// The supervision loop proper: binds the hub, spawns the workers, and
/// heals them until the fabric halts or the deadline passes.
#[allow(clippy::too_many_lines)]
fn supervise_hub(
    options: &SuperviseOptions,
    spawn: &mut impl FnMut(usize, &HubAddr, usize, u64) -> io::Result<Child>,
    recorder: &mut Option<FlightRecorder>,
) -> Result<SuperviseReport, SimError> {
    let started = Instant::now();
    // Every spawn of this run carries the one identity minted for it.
    let run = mint_run_id();
    let mut spawn = |shard, addr: &HubAddr, attempt| spawn(shard, addr, attempt, run);
    let mut attempts = vec![0usize; options.shards];
    let mut kill_at_armed = options.kill_at;
    let requested = options.addr.clone().unwrap_or_else(temp_hub_addr);
    let synthesized = |shard: usize, cause: TransportCause| {
        SimError::Transport(TransportError {
            shard,
            round: 0,
            cause,
        })
    };
    let mut hub_options = HubOptions::new(options.shards, options.timeout);
    hub_options.digest = options.graph_digest;
    hub_options.replay_window = super::replay_window(options.checkpoint_interval);
    // A dead connection waits for its replacement for up to the whole
    // run budget — the deadline kill below is the real bound, and a
    // shorter grace would race the backoff schedule.
    hub_options.grace = options.deadline;
    let (mut hub, addr) = Hub::listen_with(&requested, hub_options).map_err(|e| {
        synthesized(
            0,
            TransportCause::Io {
                detail: format!("hub bind on {requested} failed: {e}"),
            },
        )
    })?;
    let settle = options.timeout.min(Duration::from_millis(300));
    let mut slots: Vec<Slot> = Vec::with_capacity(options.shards);
    let kill_everything = |slots: &mut Vec<Slot>| {
        for slot in slots.iter_mut() {
            if let Slot::Running(child) = slot {
                let _ = child.kill();
                let _ = child.wait();
            }
        }
    };
    for shard in 0..options.shards {
        match spawn(shard, &addr, 0) {
            Ok(child) => slots.push(Slot::Running(child)),
            Err(e) => {
                kill_everything(&mut slots);
                hub.stop_and_join();
                return Err(synthesized(
                    shard,
                    TransportCause::Io {
                        detail: format!("spawning worker {shard} failed: {e}"),
                    },
                ));
            }
        }
    }
    let mut last_progress = (hub.barrier_round(), 0usize, 0u64);
    let mut last_progress_at = Instant::now();
    loop {
        if hub.wait_halted(SUPERVISE_TICK) {
            break;
        }
        if started.elapsed() >= options.deadline {
            let committed = hub.committed_rounds();
            let done = hub.done_flags();
            let suspect = (0..options.shards)
                .filter(|&s| !done.get(s).copied().unwrap_or(false))
                .min_by_key(|&s| committed.get(s).copied().unwrap_or(0))
                .unwrap_or(0);
            kill_everything(&mut slots);
            let error = hub.first_error().unwrap_or_else(|| {
                synthesized(
                    suspect,
                    TransportCause::Timeout {
                        waited_ms: started.elapsed().as_millis() as u64,
                    },
                )
            });
            if let Some(r) = recorder {
                r.event(
                    Some(suspect),
                    committed.get(suspect).copied().unwrap_or(0),
                    "deadline",
                    format!(
                        "overall deadline passed after {} ms; least-advanced shard killed",
                        started.elapsed().as_millis()
                    ),
                );
            }
            absorb_worker_traces(recorder, &hub);
            hub.stop_and_join();
            return Err(error);
        }
        let done = hub.done_flags();
        let now = Instant::now();
        for shard in 0..options.shards {
            let shard_done = done.get(shard).copied().unwrap_or(false);
            let next = match &mut slots[shard] {
                Slot::Running(child) => match child.try_wait() {
                    Ok(Some(status)) if status.success() && shard_done => Some(Slot::Finished),
                    Ok(Some(status)) if status.success() => Some(Slot::Settling(now + settle)),
                    Ok(Some(_)) => Some(schedule_restart(
                        options,
                        &hub,
                        &mut attempts,
                        shard,
                        recorder,
                    )),
                    Ok(None) => None,
                    Err(_) => Some(schedule_restart(
                        options,
                        &hub,
                        &mut attempts,
                        shard,
                        recorder,
                    )),
                },
                Slot::Settling(_) if shard_done => Some(Slot::Finished),
                Slot::Settling(deadline) if now >= *deadline => Some(schedule_restart(
                    options,
                    &hub,
                    &mut attempts,
                    shard,
                    recorder,
                )),
                Slot::Backoff(due) if now >= *due => match spawn(shard, &addr, attempts[shard]) {
                    Ok(child) => Some(Slot::Running(child)),
                    Err(e) => {
                        hub.declare_lost(shard, format!("relaunching worker {shard} failed: {e}"));
                        Some(Slot::Lost)
                    }
                },
                _ => None,
            };
            if let Some(next) = next {
                slots[shard] = next;
            }
        }
        // Chaos: external SIGKILL once the victim reaches its round.
        if let Some((victim, at_round)) = kill_at_armed {
            let committed = hub.committed_rounds();
            let beat_round = hub
                .beat_ages()
                .get(victim)
                .copied()
                .flatten()
                .map_or(0, |(_, round)| round);
            let reached =
                committed.get(victim).copied().unwrap_or(0) >= at_round || beat_round >= at_round;
            if reached {
                if let Some(Slot::Running(child)) = slots.get_mut(victim) {
                    let _ = child.kill();
                    kill_at_armed = None;
                    if let Some(r) = recorder {
                        r.event(
                            Some(victim),
                            committed.get(victim).copied().unwrap_or(0),
                            "chaos_kill",
                            format!("SIGKILL armed for round {at_round} delivered"),
                        );
                    }
                }
            }
        }
        // Wedge detection: no global progress of any kind for a full
        // stall window means somebody is alive but stuck. Kill the
        // least-advanced unfinished shard; the crash path restarts it.
        let committed = hub.committed_rounds();
        let progress = (
            hub.barrier_round(),
            done.iter().filter(|&&d| d).count(),
            committed.iter().sum::<u64>(),
        );
        if progress != last_progress {
            last_progress = progress;
            last_progress_at = now;
        } else if now.duration_since(last_progress_at) >= options.stall {
            let victim = (0..options.shards)
                .filter(|&s| {
                    !done.get(s).copied().unwrap_or(false) && matches!(slots[s], Slot::Running(_))
                })
                .min_by_key(|&s| committed.get(s).copied().unwrap_or(0));
            if let Some(victim) = victim {
                let beat_stale = !options.heartbeat.is_zero()
                    && hub
                        .beat_ages()
                        .get(victim)
                        .copied()
                        .flatten()
                        .is_none_or(|(age, _)| age > options.heartbeat * 2);
                if beat_stale {
                    hub.note_missed_heartbeat();
                }
                if let Slot::Running(child) = &mut slots[victim] {
                    let _ = child.kill();
                    if let Some(r) = recorder {
                        let age_ms = hub
                            .beat_ages()
                            .get(victim)
                            .copied()
                            .flatten()
                            .map(|(age, _)| age.as_millis());
                        r.event(
                            Some(victim),
                            committed.get(victim).copied().unwrap_or(0),
                            "stall_kill",
                            format!(
                                "no fabric progress for {} ms; beat_age_ms={} beat_stale={}",
                                options.stall.as_millis(),
                                age_ms.map_or_else(|| "none".into(), |ms| ms.to_string()),
                                beat_stale,
                            ),
                        );
                    }
                }
            }
            last_progress_at = now;
        }
    }
    // Halted: orderly completion or a broadcast fatal. Give workers one
    // fabric timeout to exit on their own, then kill stragglers.
    let fabric_error = hub.first_error();
    let grace_end = Instant::now() + options.timeout;
    loop {
        let all_exited = slots.iter_mut().all(|slot| match slot {
            Slot::Running(child) => matches!(child.try_wait(), Ok(Some(_))),
            _ => true,
        });
        if all_exited || Instant::now() >= grace_end {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    kill_everything(&mut slots);
    let worker_stats = hub.worker_stats();
    let (workers_restarted, rounds_replayed, heartbeats_missed, checkpoint_restores) =
        hub.recovery_counters();
    absorb_worker_traces(recorder, &hub);
    hub.stop_and_join();
    if let Some(error) = fabric_error {
        return Err(error);
    }
    Ok(SuperviseReport {
        worker_stats,
        restarts: attempts,
        workers_restarted,
        rounds_replayed,
        heartbeats_missed,
        checkpoint_restores,
    })
}

/// Books one more restart for `shard`: `Backoff` with exponential
/// delay and deterministic jitter, or `Lost` (with the typed fabric
/// error) when the budget is spent. Either decision is annotated onto
/// the flight-recorder timeline with the evidence it rested on — the
/// shard's committed round, last heartbeat age, and the fabric's replay
/// count so far.
fn schedule_restart(
    options: &SuperviseOptions,
    hub: &Hub,
    attempts: &mut [usize],
    shard: usize,
    recorder: &mut Option<FlightRecorder>,
) -> Slot {
    attempts[shard] += 1;
    let nth = attempts[shard];
    let committed = hub.committed_rounds().get(shard).copied().unwrap_or(0);
    let beat_age_ms = hub
        .beat_ages()
        .get(shard)
        .copied()
        .flatten()
        .map(|(age, _)| age.as_millis());
    let (_, rounds_replayed, _, _) = hub.recovery_counters();
    if nth > options.max_restarts {
        hub.declare_lost(
            shard,
            format!(
                "worker {shard} crashed and its restart budget ({}) is exhausted",
                options.max_restarts
            ),
        );
        if let Some(r) = recorder {
            r.event(
                Some(shard),
                committed,
                "lost",
                format!(
                    "restart budget ({}) exhausted at committed round {committed}",
                    options.max_restarts
                ),
            );
        }
        return Slot::Lost;
    }
    let base_ms = options.backoff.as_millis() as u64;
    let exp = base_ms.saturating_mul(1u64 << (nth.min(16) - 1));
    let jitter_span = base_ms / 2 + 1;
    let jitter = mix(options
        .backoff_seed
        .wrapping_add((shard as u64) << 32)
        .wrapping_add(nth as u64))
        % jitter_span;
    if let Some(r) = recorder {
        r.event(
            Some(shard),
            committed,
            "restart",
            format!(
                "worker {shard} down at committed round {committed}: attempt={nth} \
                 backoff_ms={} beat_age_ms={} rounds_replayed={rounds_replayed}",
                exp + jitter,
                beat_age_ms.map_or_else(|| "none".into(), |ms| ms.to_string()),
            ),
        );
    }
    Slot::Backoff(Instant::now() + Duration::from_millis(exp + jitter))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::process::{Command, Stdio};

    /// A supervisor that gives up on the first worker failure, with
    /// deadlines short enough for a unit test.
    fn quick_options(shards: usize) -> SuperviseOptions {
        let mut options = SuperviseOptions::new(shards);
        options.timeout = Duration::from_millis(200);
        options.deadline = Duration::from_millis(600);
        options.stall = Duration::from_millis(250);
        options.max_restarts = 0;
        options
    }

    fn quiet(program: &str, args: &[&str]) -> io::Result<Child> {
        Command::new(program)
            .args(args)
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
    }

    #[test]
    fn workers_that_never_connect_fail_typed_within_the_deadline() {
        // `sleep` stands in for a worker that wedges before connecting:
        // the stall detector kills it and, with no restart budget, the
        // shard is lost (or the deadline fires first).
        let started = Instant::now();
        let error = supervise(&quick_options(2), |_, _, _, _| quiet("sleep", &["30"])).unwrap_err();
        assert!(matches!(error, SimError::Transport(_)), "got {error:?}");
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "the deadline must bound the whole launch, took {:?}",
            started.elapsed()
        );
    }

    #[test]
    fn a_spawn_failure_aborts_the_launch_typed() {
        let error = supervise(&quick_options(2), |shard, _, _, _| {
            if shard == 1 {
                Err(io::Error::new(io::ErrorKind::NotFound, "no such worker"))
            } else {
                quiet("sleep", &["30"])
            }
        })
        .unwrap_err();
        let SimError::Transport(TransportError { shard, cause, .. }) = &error else {
            panic!("got {error:?}");
        };
        assert_eq!(*shard, 1);
        assert!(matches!(cause, TransportCause::Io { .. }), "{error}");
    }

    #[test]
    fn nonzero_worker_exits_surface_when_nothing_was_reported() {
        // Workers that exit immediately without ever connecting: with no
        // restart budget the supervisor declares the shard lost, a typed
        // error, well inside the deadline.
        let started = Instant::now();
        let error = supervise(&quick_options(1), |_, _, _, _| quiet("false", &[])).unwrap_err();
        assert!(matches!(error, SimError::Transport(_)), "got {error:?}");
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "took {:?}",
            started.elapsed()
        );
    }

    #[test]
    fn temp_addresses_are_unique() {
        assert_ne!(temp_hub_addr(), temp_hub_addr());
    }

    #[test]
    fn every_spawn_of_a_run_carries_one_fresh_run_identity() {
        // Workers that exit at once, with one restart each: both spawns
        // of a run see the same identity, and the next run another.
        let mut options = quick_options(1);
        options.max_restarts = 1;
        let mut runs = Vec::new();
        for _ in 0..2 {
            let mut seen = Vec::new();
            let _ = supervise(&options, |_, _, attempt, run| {
                seen.push((attempt, run));
                quiet("false", &[])
            });
            let attempts: Vec<usize> = seen.iter().map(|&(attempt, _)| attempt).collect();
            assert_eq!(attempts, [0, 1], "the spawn and its relaunch");
            assert_eq!(seen[0].1, seen[1].1, "one identity per run");
            runs.push(seen[0].1);
        }
        assert_ne!(runs[0], runs[1], "each run mints its own identity");
    }
}
