//! Process-per-shard smoke: the `netdecomp` binary's `--distributed`
//! mode launches one real OS worker process per shard against a socket
//! hub, and a killed worker degrades into a typed error in bounded time.
//!
//! These tests spawn the compiled binary (`CARGO_BIN_EXE_netdecomp`), so
//! they exercise the full stack end to end: launcher → hub → handshake →
//! framed rounds → digest cross-check against the in-process engine.

use std::io::Write as _;
use std::path::PathBuf;
use std::process::Command;
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

#[test]
fn a_killed_worker_is_a_typed_error_not_a_hang() {
    let graph = ladder_file("launch-kill", 30);
    let started = Instant::now();
    let output = Command::new(BIN)
        .arg(&graph)
        .args(["--distributed", "3", "--rounds", "25"])
        // Worker 1 connects, then dies without a word (the binary's
        // fault hook); keep the fabric timeout short so the test is.
        .env("NETDECOMP_WORKER_ABORT", "1")
        .env("NETDECOMP_FRAME_TIMEOUT_MS", "1000")
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
