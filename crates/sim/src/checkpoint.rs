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
//!      4    1  format version (currently 2)
//!      5    3  reserved (zero)
//!      8    4  shard u32
//!     12    4  fabric shard count u32
//!     16    8  checkpoint round u64
//!     24    8  graph digest u64
//!     32    8  payload length u64
//!     40    n  payload (opaque to this header)
//!   40+n    4  digest u32 — the 4-lane [`LaneDigest`] over every
//!               preceding byte, zero-padded to a word boundary
//! ```
//!
//! The digest trails the payload, so a torn write (crash mid-`write`)
//! fails validation exactly like a flipped bit: the loader *skips* the
//! file with a typed reason and falls back to the next-older checkpoint
//! — or to nothing, which the caller treats as "start from round 0". A
//! checkpoint is never trusted, only verified.
//!
//! Writes are atomic: the file is assembled under a `.tmp` name in the
//! same directory and renamed into place, so a reader never observes a
//! half-written file under the checkpoint name. After each successful
//! write the shard's older checkpoints are pruned down to the newest
//! [`RETAIN_CHECKPOINTS`], keeping disk usage flat over arbitrarily
//! long runs while always leaving one fallback generation.

use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

use crate::frame::LaneDigest;
use crate::shard::DeliveryShard;
use crate::{RoundStats, RunStats, Snapshot};

/// File magic: "NetDecomp KeePoint".
const MAGIC: [u8; 4] = *b"NDKP";

/// Current checkpoint format version. Version 1 payloads also carried
/// each shard's per-edge CONGEST counters, which no resumed round reads
/// (account zeroes the counters it touched before it charges); version
/// 2 dropped them, so a version 1 file is rejected by name.
const VERSION: u8 = 2;

/// Fixed header length (everything before the payload).
const HEADER_LEN: usize = 40;

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
    out.extend_from_slice(&(ckpt.payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&ckpt.payload);
    let mut digest = LaneDigest::new();
    digest.update_padded(&out);
    out.extend_from_slice(&digest.finish().to_le_bytes());
    out
}

/// Validates `data` as a checkpoint for `shard` of a `shards`-wide run
/// over the graph with `graph_digest`, taken at a round `<= max_round`.
///
/// # Errors
///
/// Returns the first validation step that failed, in check order:
/// structural (truncation, magic, version, digest) before semantic
/// (wrong shard / fabric shape / graph / round).
pub fn decode_checkpoint(
    data: &[u8],
    shard: usize,
    shards: usize,
    graph_digest: u64,
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
    let payload_len = le64(32);
    let Some(expected) = (payload_len as usize)
        .checked_add(HEADER_LEN + 4)
        .filter(|&total| total == data.len())
    else {
        return Err("truncated payload");
    };
    let mut digest = LaneDigest::new();
    digest.update_padded(&data[..expected - 4]);
    if digest.finish() != le32(expected - 4) {
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
    Ok(Checkpoint {
        shard,
        shards,
        round,
        graph_digest,
        payload: data[HEADER_LEN..expected - 4].to_vec(),
    })
}

/// Atomically writes `ckpt` into `dir` (temp file + rename, best-effort
/// fsync) and prunes the shard's older checkpoints down to the newest
/// [`RETAIN_CHECKPOINTS`]. Returns the final path.
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
/// fabric shape, graph, and run length, skipping (never trusting) every
/// torn or corrupt file on the way down. Returns the winner — `None`
/// means "no usable checkpoint, start from round 0" — plus one
/// [`RejectedCheckpoint`] per file that failed, for the flight record.
#[must_use]
pub fn load_newest_checkpoint(
    dir: &Path,
    shard: usize,
    shards: usize,
    graph_digest: u64,
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
        match decode_checkpoint(&data, shard, shards, graph_digest, max_round) {
            Ok(ckpt) => return (Some(ckpt), rejected),
            Err(reason) => rejected.push(RejectedCheckpoint { path, reason }),
        }
    }
    (None, rejected)
}

// ---------------------------------------------------------------------
// Payload codec: the worker-loop state packed inside a checkpoint.
// ---------------------------------------------------------------------

/// Appends `v` little-endian.
pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a length-prefixed byte run.
pub(crate) fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    put_u64(out, bytes.len() as u64);
    out.extend_from_slice(bytes);
}

/// A bounds-checked little-endian reader over untrusted bytes: every
/// accessor returns `None` instead of panicking past the end.
#[derive(Debug)]
pub(crate) struct ByteReader<'a> {
    data: &'a [u8],
}

impl<'a> ByteReader<'a> {
    pub(crate) fn new(data: &'a [u8]) -> Self {
        ByteReader { data }
    }

    pub(crate) fn u64(&mut self) -> Option<u64> {
        let (head, rest) = self.data.split_first_chunk::<8>()?;
        self.data = rest;
        Some(u64::from_le_bytes(*head))
    }

    /// A length-prefixed byte run (the [`put_bytes`] inverse).
    pub(crate) fn bytes(&mut self) -> Option<&'a [u8]> {
        let len = usize::try_from(self.u64()?).ok()?;
        if len > self.data.len() {
            return None;
        }
        let (head, rest) = self.data.split_at(len);
        self.data = rest;
        Some(head)
    }

    /// Bytes not yet consumed.
    pub(crate) fn remaining(&self) -> usize {
        self.data.len()
    }

    pub(crate) fn is_exhausted(&self) -> bool {
        self.data.is_empty()
    }
}

fn encode_run_stats(out: &mut Vec<u8>, stats: &RunStats) {
    put_u64(out, stats.rounds as u64);
    put_u64(out, stats.total_messages as u64);
    put_u64(out, stats.total_bytes as u64);
    put_u64(out, stats.max_edge_bytes as u64);
    put_u64(out, stats.per_round.len() as u64);
    for r in &stats.per_round {
        put_u64(out, r.round as u64);
        put_u64(out, r.messages as u64);
        put_u64(out, r.bytes as u64);
        put_u64(out, r.max_edge_bytes as u64);
    }
}

fn decode_run_stats(r: &mut ByteReader<'_>) -> Option<RunStats> {
    let to_usize = |v: u64| usize::try_from(v).ok();
    let mut stats = RunStats {
        rounds: to_usize(r.u64()?)?,
        total_messages: to_usize(r.u64()?)?,
        total_bytes: to_usize(r.u64()?)?,
        max_edge_bytes: to_usize(r.u64()?)?,
        per_round: Vec::new(),
    };
    let entries = to_usize(r.u64()?)?;
    // Each entry consumes 32 bytes; an absurd count can't be genuine.
    if entries > r.remaining() / 32 {
        return None;
    }
    stats.per_round.reserve(entries);
    for _ in 0..entries {
        stats.per_round.push(RoundStats {
            round: to_usize(r.u64()?)?,
            messages: to_usize(r.u64()?)?,
            bytes: to_usize(r.u64()?)?,
            max_edge_bytes: to_usize(r.u64()?)?,
        });
    }
    Some(stats)
}

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
    encode_run_stats(&mut out, stats);
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
    let mut r = ByteReader::new(payload);
    let Some(count) = r.u64() else {
        return false;
    };
    if count as usize != nodes.len() {
        return false;
    }
    for node in nodes.iter_mut() {
        let Some(state) = r.bytes() else {
            return false;
        };
        if !node.load_state(state) {
            return false;
        }
    }
    if !shard.restore_delivery(&mut r) {
        return false;
    }
    let Some(restored) = decode_run_stats(&mut r) else {
        return false;
    };
    *stats = restored;
    r.is_exhausted()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(round: u64) -> Checkpoint {
        Checkpoint {
            shard: 1,
            shards: 3,
            round,
            graph_digest: 0xfeed_beef,
            payload: (0..=200u8).collect(),
        }
    }

    #[test]
    fn a_checkpoint_round_trips_through_the_wire_format() {
        let ckpt = sample(7);
        let encoded = encode_checkpoint(&ckpt);
        let decoded = decode_checkpoint(&encoded, 1, 3, 0xfeed_beef, 100).unwrap();
        assert_eq!(decoded, ckpt);
    }

    #[test]
    fn every_semantic_mismatch_is_a_named_rejection() {
        let encoded = encode_checkpoint(&sample(7));
        let cases = [
            (
                decode_checkpoint(&encoded, 2, 3, 0xfeed_beef, 100),
                "wrong shard",
            ),
            (
                decode_checkpoint(&encoded, 1, 4, 0xfeed_beef, 100),
                "wrong fabric shape",
            ),
            (
                decode_checkpoint(&encoded, 1, 3, 0xdead, 100),
                "wrong graph",
            ),
            (
                decode_checkpoint(&encoded, 1, 3, 0xfeed_beef, 6),
                "round beyond run",
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
            decode_checkpoint(&encoded, 1, 3, 0xfeed_beef, 100),
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
                decode_checkpoint(&bad, 1, 3, 0xfeed_beef, 100).is_err(),
                "flip at {at} must be rejected"
            );
        }
        // A torn write (any prefix) is structurally rejected.
        for cut in [0, 3, HEADER_LEN - 1, HEADER_LEN + 4, encoded.len() - 1] {
            assert!(
                decode_checkpoint(&encoded[..cut], 1, 3, 0xfeed_beef, 100).is_err(),
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
        let (found, rejected) = load_newest_checkpoint(&dir, 1, 3, 0xfeed_beef, 100);
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
        let (found, rejected) = load_newest_checkpoint(&dir, 1, 3, 0xfeed_beef, 100);
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
        let (found, rejected) = load_newest_checkpoint(&dir, 1, 3, 0xfeed_beef, 100);
        assert_eq!(found.unwrap().round, 12);
        assert!(rejected.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn the_byte_reader_refuses_overruns() {
        let mut out = Vec::new();
        put_u64(&mut out, 3);
        put_bytes(&mut out, b"abc");
        let mut r = ByteReader::new(&out);
        assert_eq!(r.u64(), Some(3));
        assert_eq!(r.bytes(), Some(&b"abc"[..]));
        assert!(r.is_exhausted());
        assert_eq!(r.u64(), None);
        // A length prefix past the end is refused, not sliced.
        let mut lying = Vec::new();
        put_u64(&mut lying, 1000);
        lying.extend_from_slice(b"short");
        assert_eq!(ByteReader::new(&lying).bytes(), None);
    }
}
