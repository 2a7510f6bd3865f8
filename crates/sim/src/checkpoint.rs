//! Checksummed on-disk checkpoints: deterministic crash recovery in
//! O(checkpoint interval), not O(run length).
//!
//! A checkpoint freezes one shard's complete round-boundary state — the
//! per-vertex protocol states (through the [`crate::Snapshot`] seam),
//! the pending inbox the next compute phase will consume, and the
//! accumulated run statistics — so a
//! relaunched worker can rejoin the fabric at the checkpoint round
//! instead of round 0. A round boundary is already a consistent cut
//! (every delivery of the previous round has been placed, nothing of
//! the next round has run), so no cross-shard coordination is needed
//! beyond writing at the same interval everywhere.
//!
//! # On-disk format
//!
//! One file per `(shard, round)`, named `ckpt-s{shard}-r{round:08}.ndk`,
//! all integers little-endian:
//!
//! ```text
//! offset  len  field
//!      0    4  magic `NDKP`
//!      4    1  format version (currently 3)
//!      5    3  reserved (zero)
//!      8    4  shard u32
//!     12    4  fabric shard count u32
//!     16    8  checkpoint round u64
//!     24    8  graph digest u64
//!     32    8  run identity u64
//!     40    8  payload length u64
//!     48    n  payload (opaque to this header)
//!   48+n    4  digest u32 — the 4-lane [`LaneDigest`] over every
//!               preceding byte, zero-padded to a word boundary
//! ```
//!
//! The digest trails the payload, so a torn write (crash mid-`write`)
//! fails validation exactly like a flipped bit: the loader *skips* the
//! file with a typed reason and falls back to the next-older checkpoint
//! — or to nothing, which the caller treats as "start from round 0". A
//! checkpoint is never trusted, only verified.
//!
//! The run identity names the supervised run that wrote the file, so in
//! a directory reused across runs the loader rejects an earlier run's
//! file by name, even one valid for the same graph, shard and command:
//! a relaunched worker resumes from its own run's newest checkpoint.
//!
//! Writes are atomic: the file is assembled under a `.tmp` name in the
//! same directory and renamed into place, so a reader never observes a
//! half-written file under the checkpoint name. After each successful
//! write the shard's checkpoints at or below the round just written are
//! pruned down to the newest [`RETAIN_CHECKPOINTS`], keeping disk usage
//! flat over arbitrarily long runs while always leaving one fallback
//! generation. A file named above that round cannot be the run's own, so
//! it is left for the loader to judge and takes no generation's place.

use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

use crate::frame::LaneDigest;
use crate::shard::DeliveryShard;
use crate::wire::{put_bytes, put_u64, WireReader};
use crate::{RunStats, Snapshot};

/// File magic: "NetDecomp KeePoint".
const MAGIC: [u8; 4] = *b"NDKP";

/// Current checkpoint format version. Version 1 payloads also carried
/// each shard's per-edge CONGEST counters, which no resumed round reads
/// (account zeroes the counters it touched before it charges); version
/// 2 dropped them, and version 3 added the run identity to the header.
/// A file of an earlier version is rejected by name.
const VERSION: u8 = 3;

/// Fixed header length (everything before the payload).
const HEADER_LEN: usize = 48;

/// Checkpoints kept per shard after a successful write: the newest,
/// plus one older generation to fall back to when the newest turns out
/// torn or corrupt.
pub const RETAIN_CHECKPOINTS: usize = 2;

/// One shard's round-boundary state, as carried by a checkpoint file.
///
/// The payload is opaque at this layer — the worker loop packs protocol
/// states, the pending inbox, and run statistics into it; this module
/// only guarantees the bytes come back intact (or not at all).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    /// The shard this state belongs to.
    pub shard: usize,
    /// The fabric's shard count when the checkpoint was taken.
    pub shards: usize,
    /// The round the state is a boundary of: every round `< round` has
    /// fully run, nothing of `round` has.
    pub round: u64,
    /// Digest of the graph the run executes over.
    pub graph_digest: u64,
    /// Identity of the supervised run that wrote the checkpoint
    /// ([`crate::transport::WorkerConfig::run`]).
    pub run: u64,
    /// The opaque serialized state.
    pub payload: Vec<u8>,
}

/// Why the loader refused one checkpoint file — surfaced as a
/// `checkpoint_reject` flight-recorder event, never silently dropped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RejectedCheckpoint {
    /// The file that failed validation.
    pub path: PathBuf,
    /// The (static, greppable) validation step that failed.
    pub reason: &'static str,
}

/// The canonical file name of shard `shard`'s checkpoint at `round`.
#[must_use]
pub fn checkpoint_path(dir: &Path, shard: usize, round: u64) -> PathBuf {
    dir.join(format!("ckpt-s{shard}-r{round:08}.ndk"))
}

/// Serializes `ckpt` into the on-disk format (header + payload +
/// trailing digest).
#[must_use]
pub fn encode_checkpoint(ckpt: &Checkpoint) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + ckpt.payload.len() + 4);
    out.extend_from_slice(&MAGIC);
    out.push(VERSION);
    out.extend_from_slice(&[0; 3]);
    out.extend_from_slice(&(ckpt.shard as u32).to_le_bytes());
    out.extend_from_slice(&(ckpt.shards as u32).to_le_bytes());
    out.extend_from_slice(&ckpt.round.to_le_bytes());
    out.extend_from_slice(&ckpt.graph_digest.to_le_bytes());
    out.extend_from_slice(&ckpt.run.to_le_bytes());
    out.extend_from_slice(&(ckpt.payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&ckpt.payload);
    let sum = digest(&out);
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

/// The trailing digest: the 4-lane [`LaneDigest`] over `bytes`, its tail
/// zero-padded to a word boundary.
fn digest(bytes: &[u8]) -> u32 {
    let whole = bytes.len() & !3;
    let mut digest = LaneDigest::new();
    digest.update(&bytes[..whole]);
    if whole < bytes.len() {
        let mut tail = [0u8; 4];
        tail[..bytes.len() - whole].copy_from_slice(&bytes[whole..]);
        digest.update(&tail);
    }
    digest.finish()
}

/// Validates `data` as a checkpoint for `shard` of a `shards`-wide run
/// `run` over the graph with `graph_digest`, taken at a round
/// `<= max_round`.
///
/// # Errors
///
/// Returns the first validation step that failed, in check order:
/// structural (truncation, magic, version, digest) before semantic
/// (wrong shard / fabric shape / graph / round / run).
pub fn decode_checkpoint(
    data: &[u8],
    shard: usize,
    shards: usize,
    graph_digest: u64,
    run: u64,
    max_round: u64,
) -> Result<Checkpoint, &'static str> {
    if data.len() < HEADER_LEN + 4 {
        return Err("truncated header");
    }
    if data[..4] != MAGIC {
        return Err("bad magic");
    }
    if data[4] != VERSION {
        return Err("unsupported version");
    }
    let le32 = |at: usize| u32::from_le_bytes(data[at..at + 4].try_into().expect("4 bytes"));
    let le64 = |at: usize| u64::from_le_bytes(data[at..at + 8].try_into().expect("8 bytes"));
    let payload_len = le64(40);
    let Some(expected) = (payload_len as usize)
        .checked_add(HEADER_LEN + 4)
        .filter(|&total| total == data.len())
    else {
        return Err("truncated payload");
    };
    if digest(&data[..expected - 4]) != le32(expected - 4) {
        return Err("digest mismatch");
    }
    if le32(8) as usize != shard {
        return Err("wrong shard");
    }
    if le32(12) as usize != shards {
        return Err("wrong fabric shape");
    }
    if le64(24) != graph_digest {
        return Err("wrong graph");
    }
    let round = le64(16);
    if round > max_round {
        return Err("round beyond run");
    }
    if le64(32) != run {
        return Err("another run's checkpoint");
    }
    Ok(Checkpoint {
        shard,
        shards,
        round,
        graph_digest,
        run,
        payload: data[HEADER_LEN..expected - 4].to_vec(),
    })
}

/// Atomically writes `ckpt` into `dir` (temp file + rename, best-effort
/// fsync) and prunes the shard's files at or below its round down to the
/// newest [`RETAIN_CHECKPOINTS`], this one first. Returns the final path.
///
/// A file of the shard named above `ckpt.round` is torn, foreign or left
/// by an earlier run. It is neither counted nor deleted: counting it
/// would cost a valid fallback generation its place (or the file just
/// written), and a relaunched worker's loader rejects it by name in the
/// flight record.
///
/// # Errors
///
/// Propagates directory-creation, write, and rename failures; pruning
/// failures are swallowed (stale files only cost disk, never
/// correctness — the loader validates whatever it finds).
pub fn write_checkpoint(dir: &Path, ckpt: &Checkpoint) -> io::Result<PathBuf> {
    fs::create_dir_all(dir)?;
    let path = checkpoint_path(dir, ckpt.shard, ckpt.round);
    let tmp = path.with_extension("ndk.tmp");
    let encoded = encode_checkpoint(ckpt);
    {
        let mut file = fs::File::create(&tmp)?;
        file.write_all(&encoded)?;
        let _ = file.sync_all();
    }
    fs::rename(&tmp, &path)?;
    for (_, old) in shard_files(dir, ckpt.shard)
        .into_iter()
        .filter(|&(round, _)| round <= ckpt.round)
        .skip(RETAIN_CHECKPOINTS)
    {
        let _ = fs::remove_file(old);
    }
    Ok(path)
}

/// The shard's checkpoint files in `dir`, newest round first (by the
/// round embedded in the file name — the header round is re-validated
/// by the loader, the name only orders the scan).
fn shard_files(dir: &Path, shard: usize) -> Vec<(u64, PathBuf)> {
    let prefix = format!("ckpt-s{shard}-r");
    let mut files: Vec<(u64, PathBuf)> = fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .filter_map(|entry| {
            let name = entry.file_name().into_string().ok()?;
            let round: u64 = name
                .strip_prefix(&prefix)?
                .strip_suffix(".ndk")?
                .parse()
                .ok()?;
            Some((round, entry.path()))
        })
        .collect();
    files.sort_by(|a, b| b.cmp(a));
    files
}

/// Loads the newest checkpoint in `dir` that validates for this shard,
/// fabric shape, graph, run length and run identity, skipping (never
/// trusting) every torn or corrupt file, and every earlier run's, on the
/// way down. Returns the winner — `None` means "no usable checkpoint,
/// start from round 0" — plus one [`RejectedCheckpoint`] per file that
/// failed, for the flight record.
#[must_use]
pub fn load_newest_checkpoint(
    dir: &Path,
    shard: usize,
    shards: usize,
    graph_digest: u64,
    run: u64,
    max_round: u64,
) -> (Option<Checkpoint>, Vec<RejectedCheckpoint>) {
    let mut rejected = Vec::new();
    for (_, path) in shard_files(dir, shard) {
        let data = match fs::read(&path) {
            Ok(data) => data,
            Err(_) => {
                rejected.push(RejectedCheckpoint {
                    path,
                    reason: "unreadable file",
                });
                continue;
            }
        };
        match decode_checkpoint(&data, shard, shards, graph_digest, run, max_round) {
            Ok(ckpt) => return (Some(ckpt), rejected),
            Err(reason) => rejected.push(RejectedCheckpoint { path, reason }),
        }
    }
    (None, rejected)
}

// ---------------------------------------------------------------------
// Payload codec: the worker-loop state packed inside a checkpoint.
// ---------------------------------------------------------------------

/// Packs one shard's round-boundary state — every node's
/// [`Snapshot::save_state`], the pending inbox, and the accumulated run
/// statistics — into a checkpoint payload.
pub(crate) fn encode_worker_payload<P: Snapshot>(
    nodes: &[P],
    shard: &DeliveryShard,
    stats: &RunStats,
) -> Vec<u8> {
    let mut out = Vec::new();
    put_u64(&mut out, nodes.len() as u64);
    for node in nodes {
        put_bytes(&mut out, &node.save_state());
    }
    shard.save_delivery(&mut out);
    stats.encode(&mut out);
    out
}

/// The [`encode_worker_payload`] inverse: overlays a checkpoint payload
/// onto freshly built nodes and their delivery shard, and replaces
/// `stats` with the checkpointed accumulation. Returns `false` (state
/// unspecified but memory-safe) on any malformed section — the caller
/// falls back to running from round 0.
pub(crate) fn decode_worker_payload<P: Snapshot>(
    payload: &[u8],
    nodes: &mut [P],
    shard: &mut DeliveryShard,
    stats: &mut RunStats,
) -> bool {
    let mut r = WireReader::new(payload);
    let Some(count) = r.u64() else {
        return false;
    };
    if count as usize != nodes.len() {
        return false;
    }
    for node in nodes.iter_mut() {
        let Some(state) = r.len_prefixed() else {
            return false;
        };
        if !node.load_state(state) {
            return false;
        }
    }
    if !shard.restore_delivery(&mut r) {
        return false;
    }
    let Some(restored) = RunStats::decode(&mut r) else {
        return false;
    };
    *stats = restored;
    r.is_exhausted()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The run identity the samples are written under.
    const RUN: u64 = 0x5eed_0001;

    fn sample(round: u64) -> Checkpoint {
        Checkpoint {
            shard: 1,
            shards: 3,
            round,
            graph_digest: 0xfeed_beef,
            run: RUN,
            payload: (0..=200u8).collect(),
        }
    }

    #[test]
    fn a_checkpoint_round_trips_through_the_wire_format() {
        let ckpt = sample(7);
        let encoded = encode_checkpoint(&ckpt);
        let decoded = decode_checkpoint(&encoded, 1, 3, 0xfeed_beef, RUN, 100).unwrap();
        assert_eq!(decoded, ckpt);
    }

    #[test]
    fn every_semantic_mismatch_is_a_named_rejection() {
        let encoded = encode_checkpoint(&sample(7));
        let cases = [
            (
                decode_checkpoint(&encoded, 2, 3, 0xfeed_beef, RUN, 100),
                "wrong shard",
            ),
            (
                decode_checkpoint(&encoded, 1, 4, 0xfeed_beef, RUN, 100),
                "wrong fabric shape",
            ),
            (
                decode_checkpoint(&encoded, 1, 3, 0xdead, RUN, 100),
                "wrong graph",
            ),
            (
                decode_checkpoint(&encoded, 1, 3, 0xfeed_beef, RUN, 6),
                "round beyond run",
            ),
            (
                decode_checkpoint(&encoded, 1, 3, 0xfeed_beef, RUN + 1, 100),
                "another run's checkpoint",
            ),
        ];
        for (result, reason) in cases {
            assert_eq!(result.unwrap_err(), reason);
        }
    }

    /// A file written under the previous format version (whose payload
    /// carried per-edge counters) is refused by name, not misparsed.
    #[test]
    fn a_previous_version_file_is_a_named_rejection() {
        let mut encoded = encode_checkpoint(&sample(7));
        encoded[4] = VERSION - 1;
        assert_eq!(
            decode_checkpoint(&encoded, 1, 3, 0xfeed_beef, RUN, 100),
            Err("unsupported version")
        );
    }

    #[test]
    fn corruption_and_truncation_never_survive_validation() {
        let encoded = encode_checkpoint(&sample(7));
        // Any single flipped bit anywhere in the file fails the digest
        // (or an earlier structural check) — sampled across the file.
        for at in (0..encoded.len()).step_by(7) {
            let mut bad = encoded.clone();
            bad[at] ^= 0x10;
            assert!(
                decode_checkpoint(&bad, 1, 3, 0xfeed_beef, RUN, 100).is_err(),
                "flip at {at} must be rejected"
            );
        }
        // A torn write (any prefix) is structurally rejected.
        for cut in [0, 3, HEADER_LEN - 1, HEADER_LEN + 4, encoded.len() - 1] {
            assert!(
                decode_checkpoint(&encoded[..cut], 1, 3, 0xfeed_beef, RUN, 100).is_err(),
                "cut at {cut} must be rejected"
            );
        }
    }

    #[test]
    fn the_loader_skips_torn_files_and_falls_back_to_the_previous_round() {
        let dir = std::env::temp_dir().join(format!("ndk-ckpt-fallback-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        write_checkpoint(&dir, &sample(4)).unwrap();
        write_checkpoint(&dir, &sample(8)).unwrap();
        // Tear the newest file the way a crash mid-write would.
        let newest = checkpoint_path(&dir, 1, 8);
        let full = fs::read(&newest).unwrap();
        fs::write(&newest, &full[..full.len() / 2]).unwrap();
        let (found, rejected) = load_newest_checkpoint(&dir, 1, 3, 0xfeed_beef, RUN, 100);
        assert_eq!(found.unwrap().round, 4, "must fall back to the older round");
        assert_eq!(rejected.len(), 1);
        assert_eq!(rejected[0].path, newest);
        assert_eq!(rejected[0].reason, "truncated payload");
        // With the fallback corrupted too, the loader reports round 0.
        let older = checkpoint_path(&dir, 1, 4);
        let mut bytes = fs::read(&older).unwrap();
        let at = bytes.len() - 2;
        bytes[at] ^= 0xff;
        fs::write(&older, &bytes).unwrap();
        let (found, rejected) = load_newest_checkpoint(&dir, 1, 3, 0xfeed_beef, RUN, 100);
        assert!(found.is_none());
        assert_eq!(rejected.len(), 2);
        assert_eq!(rejected[1].reason, "digest mismatch");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn writes_are_renamed_into_place_and_pruned_to_the_retention_limit() {
        let dir = std::env::temp_dir().join(format!("ndk-ckpt-retain-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        for round in [3, 6, 9, 12] {
            let path = write_checkpoint(&dir, &sample(round)).unwrap();
            assert_eq!(path, checkpoint_path(&dir, 1, round));
            assert!(path.exists());
        }
        let names: Vec<u64> = shard_files(&dir, 1).into_iter().map(|(r, _)| r).collect();
        assert_eq!(names, vec![12, 9], "only the newest two generations remain");
        // No temp file leaks past a successful write.
        assert!(fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .all(|e| e.file_name().to_string_lossy().ends_with(".ndk")));
        // Another shard's files are invisible to this shard's scan.
        write_checkpoint(
            &dir,
            &Checkpoint {
                shard: 0,
                ..sample(5)
            },
        )
        .unwrap();
        assert_eq!(shard_files(&dir, 1).len(), 2);
        let (found, rejected) = load_newest_checkpoint(&dir, 1, 3, 0xfeed_beef, RUN, 100);
        assert_eq!(found.unwrap().round, 12);
        assert!(rejected.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    /// A garbage file whose name outranks the run's rounds costs the run
    /// none of its generations, and the loader still rejects it by name.
    #[test]
    fn a_garbage_file_named_above_the_run_costs_no_generation() {
        let dir = std::env::temp_dir().join(format!("ndk-ckpt-garbage-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let garbage = checkpoint_path(&dir, 1, 12);
        fs::write(&garbage, b"garbage").unwrap();
        for round in [3, 6, 9] {
            write_checkpoint(&dir, &sample(round)).unwrap();
        }
        let rounds: Vec<u64> = shard_files(&dir, 1).into_iter().map(|(r, _)| r).collect();
        assert_eq!(
            rounds,
            vec![12, 9, 6],
            "two valid generations beside the garbage"
        );
        // Tear the newest valid one: the older generation still resumes.
        let newest = checkpoint_path(&dir, 1, 9);
        let full = fs::read(&newest).unwrap();
        fs::write(&newest, &full[..full.len() / 2]).unwrap();
        let (found, rejected) = load_newest_checkpoint(&dir, 1, 3, 0xfeed_beef, RUN, 100);
        assert_eq!(found.unwrap().round, 6);
        let rejected: Vec<&Path> = rejected.iter().map(|r| r.path.as_path()).collect();
        assert_eq!(rejected, [garbage.as_path(), newest.as_path()]);
        let _ = fs::remove_dir_all(&dir);
    }

    /// In a reused directory, an earlier run's later rounds cannot prune
    /// away the checkpoint just written, and the loader returns this
    /// run's newest checkpoint, rejecting the earlier run's by name.
    #[test]
    fn the_round_just_written_survives_an_earlier_runs_later_rounds() {
        let dir = std::env::temp_dir().join(format!("ndk-ckpt-reused-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        for round in [12, 15] {
            let earlier = Checkpoint {
                run: RUN + 1,
                ..sample(round)
            };
            write_checkpoint(&dir, &earlier).unwrap();
        }
        let path = write_checkpoint(&dir, &sample(3)).unwrap();
        assert!(path.exists(), "the returned path must hold the checkpoint");
        write_checkpoint(&dir, &sample(6)).unwrap();
        let rounds: Vec<u64> = shard_files(&dir, 1).into_iter().map(|(r, _)| r).collect();
        assert_eq!(rounds, vec![15, 12, 6, 3]);
        let (found, rejected) = load_newest_checkpoint(&dir, 1, 3, 0xfeed_beef, RUN, 100);
        assert_eq!(found, Some(sample(6)), "this run's r6, not the earlier r15");
        let rejected: Vec<(&Path, &str)> = rejected
            .iter()
            .map(|r| (r.path.as_path(), r.reason))
            .collect();
        assert_eq!(
            rejected,
            [
                (
                    checkpoint_path(&dir, 1, 15).as_path(),
                    "another run's checkpoint"
                ),
                (
                    checkpoint_path(&dir, 1, 12).as_path(),
                    "another run's checkpoint"
                ),
            ]
        );
        let _ = fs::remove_dir_all(&dir);
    }
}
