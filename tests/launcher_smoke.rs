//! Process-per-shard smoke: the `netdecomp` binary's `--distributed`
//! mode launches one real OS worker process per shard against a socket
//! hub, and a killed worker degrades into a typed error in bounded time.
//!
//! These tests spawn the compiled binary (`CARGO_BIN_EXE_netdecomp`), so
//! they exercise the full stack end to end: launcher → hub → handshake →
//! framed rounds → digest cross-check against the in-process engine.

use std::io::Write as _;
use std::iter::Peekable;
use std::path::PathBuf;
use std::process::Command;
use std::str::Chars;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

const BIN: &str = env!("CARGO_BIN_EXE_netdecomp");

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

#[test]
fn distributed_mode_matches_the_sequential_engine() {
    let graph = ladder_file("launch-ok", 40);
    let output = Command::new(BIN)
        .arg(&graph)
        .args(["--distributed", "3", "--rounds", "25"])
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "distributed run failed:\nstdout: {stdout}\nstderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(
        stdout.contains("matches sequential: true"),
        "workers must agree with the in-process engine:\n{stdout}"
    );
}

#[test]
fn distributed_json_reports_rounds_per_run_not_summed_over_shards() {
    let graph = ladder_file("launch-json", 40);
    let output = Command::new(BIN)
        .arg(&graph)
        .args(["--distributed", "4", "--rounds", "25", "--json"])
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "distributed run failed:\nstdout: {stdout}\nstderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(
        stdout.contains("\"rounds\":25,") && stdout.contains("\"stats\":{\"rounds\":25,"),
        "four shards ran the same 25 rounds side by side:\n{stdout}"
    );
    assert!(stdout.contains("\"matches_sequential\":true"), "{stdout}");
}

/// One supervised `--json` run with the trace plane on (`--trace-out`)
/// and a checkpoint every 3 rounds, shared by the tests that check its
/// result and its output shapes: `(stdout, flight recording)`.
fn traced_checkpointed_run() -> &'static (String, String) {
    static RUN: OnceLock<(String, String)> = OnceLock::new();
    RUN.get_or_init(|| {
        let graph = ladder_file("launch-traced", 40);
        let dump = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
            .join(format!("launch-traced-{}.jsonl", std::process::id()));
        let output = Command::new(BIN)
            .arg(&graph)
            .args(["--distributed", "3", "--rounds", "25", "--json"])
            .args(["--checkpoint-interval", "3", "--trace-out"])
            .arg(&dump)
            .output()
            .unwrap();
        let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
        assert!(
            output.status.success(),
            "traced, checkpointed run failed:\nstdout: {stdout}\nstderr: {}",
            String::from_utf8_lossy(&output.stderr)
        );
        let recording = std::fs::read_to_string(&dump)
            .unwrap_or_else(|e| panic!("no flight recording at {}: {e}", dump.display()));
        let _ = std::fs::remove_file(&dump);
        (stdout, recording)
    })
}

#[test]
fn a_traced_checkpointed_run_matches_the_sequential_engine() {
    // Tracing and checkpointing are passive: a run that writes both and
    // never crashes still matches the in-process engine.
    let (stdout, recording) = traced_checkpointed_run();
    assert!(stdout.contains("\"matches_sequential\":true"), "{stdout}");
    assert!(
        recording
            .lines()
            .any(|line| line.starts_with("{\"type\":\"round\",")),
        "every worker streams its round traces:\n{recording}"
    );
    assert!(
        recording
            .lines()
            .any(|line| line.contains("\"kind\":\"checkpoint_write\"")),
        "every worker checkpoints every 3 rounds:\n{recording}"
    );
}

/// The keys of a one-line JSON value in document order. Nested objects
/// are flattened as `parent.child` and array elements as
/// `parent[].child`; a key that later array elements repeat is listed
/// once.
fn key_paths(json: &str) -> Vec<String> {
    let mut keys = Vec::new();
    collect_keys(&mut json.trim().chars().peekable(), "", &mut keys);
    keys
}

fn collect_keys(chars: &mut Peekable<Chars<'_>>, path: &str, keys: &mut Vec<String>) {
    match chars.next() {
        Some('{') => loop {
            match chars.next() {
                Some('}') => break,
                Some(',' | ' ') => {}
                Some('"') => {
                    let key = json_string(chars);
                    assert_eq!(chars.next(), Some(':'), "no colon after {key}");
                    let child = if path.is_empty() {
                        key
                    } else {
                        format!("{path}.{key}")
                    };
                    if !keys.contains(&child) {
                        keys.push(child.clone());
                    }
                    collect_keys(chars, &child, keys);
                }
                other => panic!("unexpected {other:?} in an object at {path}"),
            }
        },
        Some('[') => loop {
            match chars.peek() {
                Some(']') => {
                    chars.next();
                    break;
                }
                Some(',') => {
                    chars.next();
                }
                _ => collect_keys(chars, &format!("{path}[]"), keys),
            }
        },
        Some('"') => {
            json_string(chars);
        }
        // A number, `true`, `false` or `null`.
        _ => while chars.next_if(|c| !matches!(c, ',' | '}' | ']')).is_some() {},
    }
}

/// Reads a JSON string body after its opening quote.
fn json_string(chars: &mut Peekable<Chars<'_>>) -> String {
    let mut out = String::new();
    while let Some(c) = chars.next() {
        match c {
            '"' => break,
            '\\' => {
                chars.next();
            }
            c => out.push(c),
        }
    }
    out
}

#[test]
fn json_and_flight_recorder_shapes_are_pinned() {
    // `chaos_soak` and the tests above grep these shapes, so their key
    // lists are pinned in order (the trace module docs give the JSONL
    // schema).
    let graph = ladder_file("schema-central", 30);
    let output = Command::new(BIN)
        .arg(&graph)
        .arg("--json")
        .output()
        .unwrap();
    assert!(output.status.success());
    let central = String::from_utf8_lossy(&output.stdout);
    assert_eq!(
        key_paths(&central),
        [
            "type",
            "algorithm",
            "n",
            "m",
            "clusters",
            "colors",
            "complete",
            "clusters_connected",
            "max_strong_diameter",
            "max_weak_diameter",
            "supergraph_properly_colored",
            "truncation_events",
            "alive_vertex_phases",
            "phases",
            "phases[].phase",
            "phases[].beta",
            "phases[].alive_before",
            "phases[].carved",
            "phases[].clusters_formed",
            "timings",
            "timings.load_s",
            "timings.decompose_s",
            "timings.verify_s",
        ],
        "{central}"
    );
    // The first phase starts with all 30 vertices alive; Linial–Saks
    // keeps no per-phase trace.
    assert!(central.contains("\"alive_before\":30,"), "{central}");
    let ls93 = Command::new(BIN)
        .arg(&graph)
        .args(["--algo", "ls93", "--json"])
        .output()
        .unwrap();
    assert!(ls93.status.success());
    let ls93 = String::from_utf8_lossy(&ls93.stdout);
    assert!(
        ls93.contains("\"alive_vertex_phases\":0,\"phases\":[],"),
        "{ls93}"
    );
    let (summary, recording) = traced_checkpointed_run();
    assert_eq!(
        key_paths(summary),
        [
            "type",
            "shards",
            "vertices",
            "rounds",
            "matches_sequential",
            "workers",
            "workers[].shard",
            "workers[].rounds_run",
            "workers[].digest",
            "workers[].expected_digest",
            "workers[].matched",
            "workers[].restarts",
            "recovery",
            "recovery.workers_restarted",
            "recovery.rounds_replayed",
            "recovery.heartbeats_missed",
            "recovery.full_run_restarts",
            "recovery.checkpoint_restores",
            "stats",
            "stats.rounds",
            "stats.total_messages",
            "stats.total_bytes",
            "stats.max_edge_bytes",
            "trace_out",
        ],
        "{summary}"
    );
    let line_of = |kind: &str| {
        recording
            .lines()
            .find(|line| line.starts_with(&format!("{{\"type\":\"{kind}\",")))
            .unwrap_or_else(|| panic!("no {kind} line in:\n{recording}"))
    };
    assert_eq!(
        key_paths(line_of("round")),
        [
            "type",
            "shard",
            "round",
            "compute_ns",
            "account_ns",
            "ship_ns",
            "place_ns",
            "barrier_wait_ns",
            "frame_bytes",
            "checksum_ns",
            "restarts_seen",
        ]
    );
    assert_eq!(
        key_paths(line_of("event")),
        ["type", "at_ms", "shard", "round", "kind", "detail"]
    );
}

#[test]
fn a_killed_worker_is_a_typed_error_not_a_hang() {
    let graph = ladder_file("launch-kill", 30);
    let started = Instant::now();
    let output = Command::new(BIN)
        .arg(&graph)
        .args(["--distributed", "3", "--rounds", "25"])
        // Worker 1 connects, then dies without a word (the binary's
        // fault hook); keep the fabric timeout short so the test is.
        .args(["--timeout-ms", "1000"])
        .env("NETDECOMP_WORKER_ABORT", "1")
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        !output.status.success(),
        "a killed worker must fail the launch"
    );
    assert!(
        stderr.contains("TransportError") && stderr.contains("shard: 1"),
        "the error must be typed and name the dead shard:\n{stderr}"
    );
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "a dead worker must be detected within the fabric timeout, took {:?}",
        started.elapsed()
    );
}

#[test]
fn distributed_zero_falls_through_to_the_centralized_run() {
    // `--distributed 0` means "off": the normal centralized path runs
    // and verifies (the digest-gated handshake refusals themselves are
    // covered by the socket tests in crates/sim).
    let graph = ladder_file("launch-zero", 10);
    let output = Command::new(BIN)
        .arg(&graph)
        .args(["--distributed", "0"])
        .output()
        .unwrap();
    // --distributed 0 falls through to the normal centralized run (the
    // flag is "off"), which must succeed and verify.
    assert!(
        output.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(String::from_utf8_lossy(&output.stdout).contains("algorithm:"));
}

#[test]
fn centralized_json_reports_load_decompose_and_verify_seconds() {
    let graph = ladder_file("central-json", 30);
    let output = Command::new(BIN)
        .arg(&graph)
        .arg("--json")
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(stdout.contains("\"type\":\"verify_report\""), "{stdout}");
    for key in ["load_s", "decompose_s", "verify_s"] {
        let field = format!("\"{key}\":");
        let at = stdout
            .find(&field)
            .unwrap_or_else(|| panic!("no {key} in {stdout}"));
        let value: f64 = stdout[at + field.len()..]
            .split([',', '}'])
            .next()
            .unwrap()
            .parse()
            .unwrap_or_else(|e| panic!("{key} is not a number ({e}): {stdout}"));
        assert!(value.is_finite() && value >= 0.0, "{key} = {value}");
    }
    assert!(stdout.contains("\"timings\":{\"load_s\":"), "{stdout}");
}
