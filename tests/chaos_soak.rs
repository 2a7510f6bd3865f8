//! Chaos soak for the self-healing distributed fabric: crash, wedge,
//! and kill real worker processes at seeded rounds and require that
//! every supervised run either completes **bit-identically** to the
//! sequential engine or fails with a typed error naming the culprit
//! shard — and that it does either within a wall-clock budget. Hangs
//! are the one outcome these tests never accept.
//!
//! The binary's chaos hooks (`NETDECOMP_CHAOS_*`, documented in
//! `src/bin/netdecomp.rs`) inject the faults; the sweep width is
//! controlled by `NETDECOMP_CHAOS_SEEDS` (default 8).

use std::io::Write as _;
use std::path::PathBuf;
use std::process::{Command, Output};
use std::time::{Duration, Instant};

const BIN: &str = env!("CARGO_BIN_EXE_netdecomp");
const SHARDS: usize = 3;
const ROUNDS: usize = 12;

/// Per-run wall-clock budget: detection + backoff + relaunch + re-run
/// all fit well inside this on any machine CI uses.
const RUN_BUDGET: Duration = Duration::from_secs(30);

/// Writes a small connected graph (a 2-strip ladder) as edge-list text
/// into the cargo-managed temp dir and returns its path.
fn ladder_file(name: &str, n: usize) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{name}-{}.txt", std::process::id()));
    let mut edges = Vec::new();
    for v in 1..n {
        edges.push((v - 1, v));
        if v >= 2 {
            edges.push((v - 2, v));
        }
    }
    let mut file = std::fs::File::create(&path).unwrap();
    writeln!(file, "{n} {}", edges.len()).unwrap();
    for (u, v) in edges {
        writeln!(file, "{u} {v}").unwrap();
    }
    path
}

/// Runs one supervised distributed invocation under the wall-clock
/// budget, with extra flags and chaos-hook env pairs applied, and
/// returns its output.
fn supervised_run(graph: &PathBuf, flags: &[&str], env: &[(&str, String)]) -> (Output, Duration) {
    let mut command = Command::new(BIN);
    command
        .arg(graph)
        .args(["--distributed", &SHARDS.to_string()])
        .args(["--rounds", &ROUNDS.to_string()])
        .args(flags);
    for (key, value) in env {
        command.env(key, value);
    }
    let started = Instant::now();
    let output = command.output().unwrap();
    let elapsed = started.elapsed();
    assert!(
        elapsed < RUN_BUDGET,
        "a chaos run must never hang: took {elapsed:?} (budget {RUN_BUDGET:?})\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr)
    );
    (output, elapsed)
}

fn assert_healed(output: &Output, label: &str) {
    let stdout = String::from_utf8_lossy(&output.stdout);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        output.status.success(),
        "[{label}] the supervised run must heal and succeed:\nstdout: {stdout}\nstderr: {stderr}"
    );
    assert!(
        stdout.contains("matches sequential: true"),
        "[{label}] the healed run must be bit-identical to the sequential engine:\n{stdout}"
    );
}

/// Extracts `key=<number>` from the binary's `recovery:` summary line.
fn recovery_counter(output: &Output, key: &str) -> u64 {
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .find(|line| line.starts_with("recovery:"))
        .unwrap_or_else(|| panic!("no recovery line in:\n{stdout}"));
    let needle = format!("{key}=");
    let tail = line
        .split_whitespace()
        .find_map(|field| field.strip_prefix(&needle))
        .unwrap_or_else(|| panic!("no `{key}=` field in: {line}"));
    tail.parse().unwrap()
}

/// A splitmix-style scramble so the seeded crash schedule covers
/// different shard/round combinations without any test-side state.
fn scramble(seed: u64) -> u64 {
    let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^ (x >> 27)
}

/// How many seeds the sweep covers: `NETDECOMP_CHAOS_SEEDS`, defaulting
/// to 8.
fn sweep_width() -> u64 {
    std::env::var("NETDECOMP_CHAOS_SEEDS")
        .ok()
        .and_then(|raw| raw.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(8)
}

#[test]
fn a_worker_crash_at_any_seeded_round_heals_bit_identically() {
    // The headline soak: sweep seeds, each picking a shard and a round
    // at which that worker's process dies mid-compute (exit 137, the
    // SIGKILL status). Every run must be supervised back to a
    // bit-identical completion — once with the default checkpoint
    // interval, which these 12 rounds never reach, so the relaunch
    // replays from round 0, and once with a checkpoint every 3 rounds to
    // restore from (the supervisor provisions the directory either way).
    let graph = ladder_file("soak-crash", 36);
    for seed in 0..sweep_width() {
        let mixed = scramble(seed);
        let shard = (mixed % SHARDS as u64) as usize;
        let round = 1 + (mixed >> 8) % (ROUNDS as u64 - 2);
        for checkpoints in [&[][..], &["--checkpoint-interval", "3"][..]] {
            let (output, elapsed) = supervised_run(
                &graph,
                &[&["--timeout-ms", "2000"][..], checkpoints].concat(),
                &[("NETDECOMP_CHAOS_CRASH", format!("{shard}:{round}"))],
            );
            let label = format!("seed {seed}: crash {shard}:{round} {checkpoints:?}");
            assert_healed(&output, &label);
            assert!(
                recovery_counter(&output, "readmissions") >= 1,
                "[{label}] the crash must actually have been healed (took {elapsed:?}):\n{}",
                String::from_utf8_lossy(&output.stdout)
            );
        }
    }
}

#[test]
fn a_wedged_worker_is_killed_and_the_run_recovers() {
    // Shard 2 stops making progress (infinite sleep) at round 4: the
    // supervisor's stall detector must SIGKILL and relaunch it before
    // the surviving peers' collect deadline expires.
    let graph = ladder_file("soak-wedge", 30);
    let (output, _) = supervised_run(
        &graph,
        &["--timeout-ms", "2000"],
        &[("NETDECOMP_CHAOS_WEDGE", "2:4".into())],
    );
    assert_healed(&output, "wedge 2:4");
    assert!(recovery_counter(&output, "readmissions") >= 1);
}

#[test]
fn a_wedge_without_heartbeats_heals_and_misses_none() {
    // `--heartbeat-ms 0` switches heartbeats off on both sides: workers
    // send none, so the supervisor's stall kill must not count any as
    // missed.
    let graph = ladder_file("soak-wedge-quiet", 30);
    let (output, _) = supervised_run(
        &graph,
        &["--timeout-ms", "2000", "--heartbeat-ms", "0"],
        &[("NETDECOMP_CHAOS_WEDGE", "2:4".into())],
    );
    assert_healed(&output, "wedge 2:4 without heartbeats");
    assert!(recovery_counter(&output, "readmissions") >= 1);
    assert_eq!(
        recovery_counter(&output, "heartbeats_missed"),
        0,
        "heartbeats are off, so none can be missed:\n{}",
        String::from_utf8_lossy(&output.stdout)
    );
}

#[test]
fn an_external_sigkill_mid_run_heals_bit_identically() {
    // The supervisor itself delivers SIGKILL to shard 0 once it has
    // committed round 5 — a true `kill -9`, not a cooperative exit.
    // Rounds are slowed so the tick-sampled kill lands mid-run.
    let graph = ladder_file("soak-kill", 30);
    let (output, _) = supervised_run(
        &graph,
        &["--timeout-ms", "4000"],
        &[
            ("NETDECOMP_CHAOS_KILL", "0:5".into()),
            ("NETDECOMP_CHAOS_SLOW_MS", "30".into()),
        ],
    );
    assert_healed(&output, "kill 0:5");
    assert!(recovery_counter(&output, "readmissions") >= 1);
}

#[test]
fn a_crash_leaves_a_flight_recorder_dump_naming_the_dead_shard() {
    // Same crash as the headline soak, but with the trace plane on: the
    // supervisor must leave a JSONL flight recording behind that holds
    // the crashed shard's streamed per-phase round traces (which
    // survived the SIGKILL on the hub side) AND its own restart
    // decision naming that shard.
    let graph = ladder_file("soak-recorder", 36);
    let dump = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("soak-recorder-{}.jsonl", std::process::id()));
    let dump_path = dump.display().to_string();
    let (output, _) = supervised_run(
        &graph,
        &["--timeout-ms", "2000", "--trace-out", &dump_path],
        &[("NETDECOMP_CHAOS_CRASH", "1:5".into())],
    );
    assert_healed(&output, "recorder crash 1:5");
    assert!(recovery_counter(&output, "readmissions") >= 1);
    let recording = std::fs::read_to_string(&dump)
        .unwrap_or_else(|e| panic!("the flight recording {} must exist: {e}", dump.display()));
    assert!(
        recording
            .lines()
            .any(|line| line.contains("\"type\":\"round\"")
                && line.contains("\"shard\":1")
                && line.contains("\"compute_ns\"")),
        "the dump must hold shard 1's per-phase round traces:\n{recording}"
    );
    assert!(
        recording
            .lines()
            .any(|line| line.contains("\"type\":\"event\"")
                && line.contains("\"kind\":\"restart\"")
                && line.contains("\"shard\":1")),
        "the dump must hold the supervisor's restart decision for shard 1:\n{recording}"
    );
    assert!(
        recording
            .lines()
            .any(|line| line.contains("\"kind\":\"halt\"")),
        "a healed run must close the timeline with a halt event:\n{recording}"
    );
    let _ = std::fs::remove_file(&dump);
}

#[test]
fn an_exhausted_restart_budget_is_a_typed_error_naming_the_shard() {
    // Worker 2 dies on every launch (the abort hook stays armed across
    // restarts), so the budget runs out: the run must fail with a typed
    // TransportError naming shard 2 — within the deadline, not a hang.
    let graph = ladder_file("soak-budget", 30);
    let (output, elapsed) = supervised_run(
        &graph,
        &["--timeout-ms", "1000"],
        &[("NETDECOMP_WORKER_ABORT", "2".into())],
    );
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        !output.status.success(),
        "an unhealable worker must fail the run (took {elapsed:?})"
    );
    assert!(
        stderr.contains("TransportError") && stderr.contains("shard: 2"),
        "the failure must be typed and name the culprit shard:\n{stderr}"
    );
}

#[test]
fn a_deep_crash_with_checkpointing_heals_without_a_whole_run_restart() {
    // A crash at round 9 with checkpointing at interval 3, so the hub
    // keeps only 6 rounds of replay history. The crashed worker's newest
    // checkpoint (round 9) is inside that window, so it resumes in
    // O(interval): recovery must go through a checkpoint restore.
    let graph = ladder_file("soak-ckpt-heal", 30);
    let ckpt_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("soak-ckpt-heal-{}", std::process::id()));
    std::fs::create_dir_all(&ckpt_dir).unwrap();
    let ckpt_path = ckpt_dir.display().to_string();
    let (output, _) = supervised_run(
        &graph,
        &[
            "--timeout-ms",
            "2000",
            "--checkpoint-interval",
            "3",
            "--checkpoint-dir",
            &ckpt_path,
        ],
        &[("NETDECOMP_CHAOS_CRASH", "1:9".into())],
    );
    assert_healed(&output, "checkpointed deep crash 1:9");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        recovery_counter(&output, "checkpoint_restores") >= 1,
        "recovery must have gone through a checkpoint restore:\n{stdout}"
    );
    let _ = std::fs::remove_dir_all(&ckpt_dir);
}

#[test]
fn a_torn_checkpoint_is_rejected_by_digest_and_reported_in_the_flight_record() {
    // A torn/corrupt checkpoint file — here outright garbage claiming to
    // be the newest round — must be detected by the digest check,
    // skipped in favor of the previous valid checkpoint, and reported as
    // a typed rejection in the JSONL flight record. Never trusted, never
    // a hang, never a wrong answer.
    let graph = ladder_file("soak-ckpt-torn", 30);
    let tmp = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let ckpt_dir = tmp.join(format!("soak-ckpt-torn-{}", std::process::id()));
    std::fs::create_dir_all(&ckpt_dir).unwrap();
    // Round 12 outranks every checkpoint the run can write before the
    // crash, so the resuming worker must try (and reject) it first.
    std::fs::write(
        ckpt_dir.join("ckpt-s1-r00000012.ndk"),
        b"not a checkpoint at all",
    )
    .unwrap();
    let dump = tmp.join(format!("soak-ckpt-torn-{}.jsonl", std::process::id()));
    let (ckpt_path, dump_path) = (ckpt_dir.display().to_string(), dump.display().to_string());
    let (output, _) = supervised_run(
        &graph,
        &[
            "--timeout-ms",
            "2000",
            "--checkpoint-interval",
            "3",
            "--checkpoint-dir",
            &ckpt_path,
            "--trace-out",
            &dump_path,
        ],
        &[("NETDECOMP_CHAOS_CRASH", "1:9".into())],
    );
    assert_healed(&output, "torn checkpoint crash 1:9");
    assert!(
        recovery_counter(&output, "checkpoint_restores") >= 1,
        "the previous valid checkpoint must still carry the restore:\n{}",
        String::from_utf8_lossy(&output.stdout)
    );
    let recording = std::fs::read_to_string(&dump)
        .unwrap_or_else(|e| panic!("the flight recording {} must exist: {e}", dump.display()));
    assert!(
        recording
            .lines()
            .any(|line| line.contains("\"kind\":\"checkpoint_reject\"")
                && line.contains("ckpt-s1-r00000012.ndk")),
        "the rejection must be in the flight record, naming the torn file:\n{recording}"
    );
    assert!(
        recording
            .lines()
            .any(|line| line.contains("\"kind\":\"checkpoint_load\"")),
        "the fallback load must be in the flight record too:\n{recording}"
    );
    let _ = std::fs::remove_file(&dump);
    let _ = std::fs::remove_dir_all(&ckpt_dir);
}

#[test]
fn a_reused_checkpoint_dir_resumes_from_this_runs_own_checkpoint() {
    // The same command twice in one checkpoint directory. The first run
    // leaves its round-9 and round-12 checkpoints behind; the second
    // crashes shard 1 at round 9. The first run's round 12 outranks the
    // second run's round 9 and validates for the same graph, shard and
    // command, so only the run identity tells them apart: the relaunch
    // must reject it by name and resume from its own round 9.
    let graph = ladder_file("soak-ckpt-reused", 30);
    let tmp = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let ckpt_dir = tmp.join(format!("soak-ckpt-reused-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&ckpt_dir);
    std::fs::create_dir_all(&ckpt_dir).unwrap();
    let dump = tmp.join(format!("soak-ckpt-reused-{}.jsonl", std::process::id()));
    let (ckpt_path, dump_path) = (ckpt_dir.display().to_string(), dump.display().to_string());
    let flags = [
        "--timeout-ms",
        "2000",
        "--checkpoint-interval",
        "3",
        "--checkpoint-dir",
        &ckpt_path,
    ];
    let (first, _) = supervised_run(&graph, &flags, &[]);
    assert_healed(&first, "first run in the directory");
    let earlier = ckpt_dir.join("ckpt-s1-r00000012.ndk");
    assert!(earlier.exists(), "the first run leaves its round 12 behind");
    let (output, _) = supervised_run(
        &graph,
        &[&flags[..], &["--trace-out", &dump_path]].concat(),
        &[("NETDECOMP_CHAOS_CRASH", "1:9".into())],
    );
    assert_healed(&output, "reused directory crash 1:9");
    assert!(
        recovery_counter(&output, "checkpoint_restores") >= 1,
        "the relaunch must restore this run's checkpoint:\n{}",
        String::from_utf8_lossy(&output.stdout)
    );
    let recording = std::fs::read_to_string(&dump)
        .unwrap_or_else(|e| panic!("the flight recording {} must exist: {e}", dump.display()));
    assert!(
        recording
            .lines()
            .any(|line| line.contains("\"kind\":\"checkpoint_reject\"")
                && line.contains("ckpt-s1-r00000012.ndk")
                && line.contains("another run's checkpoint")),
        "the first run's round 12 must be rejected by name:\n{recording}"
    );
    assert!(
        recording
            .lines()
            .any(|line| line.contains("\"kind\":\"checkpoint_load\"")
                && line.contains("ckpt-s1-r00000009.ndk")),
        "the relaunch must resume from this run's round 9:\n{recording}"
    );
    let _ = std::fs::remove_file(&dump);
    let _ = std::fs::remove_dir_all(&ckpt_dir);
}

#[test]
fn a_crash_past_the_default_window_heals_from_a_checkpoint() {
    // 1 100 rounds with no checkpoint flags: every worker checkpoints at
    // the default interval (rounds 512 and 1024), and the hub keeps two
    // intervals (1 024 rounds) of history. A crash at round 1 050 needs
    // round 0, which the hub has evicted, so only the round-1024
    // checkpoint can heal it: a restore plus a short replay, never a
    // rerun of the whole history.
    let graph = ladder_file("soak-default-window", 30);
    let (output, _) = supervised_run(
        &graph,
        &["--timeout-ms", "2000", "--rounds", "1100"],
        &[("NETDECOMP_CHAOS_CRASH", "1:1050".into())],
    );
    assert_healed(&output, "default-window crash 1:1050");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        recovery_counter(&output, "checkpoint_restores") >= 1,
        "recovery must have gone through a checkpoint restore:\n{stdout}"
    );
    assert!(
        recovery_counter(&output, "rounds_replayed") < 1024,
        "a restore replays only the rounds since its checkpoint:\n{stdout}"
    );
}
