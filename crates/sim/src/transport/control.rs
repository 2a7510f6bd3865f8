//! Control frames: the non-data half of the wire protocol.
//!
//! Data frames (magic `b"NDF"`, see [`crate::frame`]) carry bucket
//! payloads; **control frames** (magic `b"NDC"`) carry everything a
//! process-per-shard deployment previously did through shared memory:
//! the connect-time handshake, round barriers, typed error propagation,
//! and orderly shutdown. Both frame families are self-delimiting with
//! the total length at byte offset 4, so one stream reader peels either
//! kind without knowing which is coming.
//!
//! # Control frame layout
//!
//! All integers little-endian:
//!
//! ```text
//! offset  bytes  field
//! ------  -----  ---------------------------------------------
//!      0      3  magic  b"NDC"
//!      3      1  kind   (1 Hello, 2 RoundBarrier, 3 Error, 4 Shutdown,
//!                        5 Heartbeat, 6 Stats, 7 Trace, 8 Event)
//!      4      4  total frame length (self-delimiting)
//!      8      4  FNV-1a checksum over bytes [0, 8) ++ [12, len)
//!     12      …  kind-specific payload
//! ```
//!
//! Payloads:
//!
//! - `Hello { shard: u32, frame_version: u32, graph_digest: u64,
//!   resume_round: u64 }` — sent by a client right after connecting;
//!   echoed by the hub as the handshake acknowledgement.
//!   `resume_round` is the round the worker process starts at: 0 on a
//!   first launch or a relaunch without a usable checkpoint, the
//!   checkpoint's round otherwise. The hub replays this shard's inbound
//!   traffic from that round, and counts the worker's re-sends of rounds
//!   it already relayed as echoes.
//! - `RoundBarrier { round: u64 }` — sent by each shard after shipping
//!   a round's data frames; broadcast back by the hub once all shards
//!   have, releasing everyone's collect.
//! - `Error { origin: u32, error: SimError }` — a shard's (or the
//!   hub's) typed failure, binary-encoded; relayed to every peer.
//! - `Shutdown { origin: u32 }` — orderly end of run.
//! - `Heartbeat { shard: u32, round: u64 }` — periodic liveness beacon
//!   a worker's pacer thread writes between data frames; the hub
//!   records the arrival time and reported round so a supervisor can
//!   tell a wedged worker from a slow one.
//! - `Stats { shard: u32, rounds_run: u64, result_digest: u64,
//!   stats: RunStats }` — a worker's end-of-run accounting, streamed
//!   through the fabric (sent *before* `Shutdown`, so the hub's reader
//!   is still alive) instead of being scraped out of stdout; carries
//!   the full per-round breakdown so the launcher can merge reports
//!   with [`crate::RunStats::merge`].
//! - `Trace { shard: u32, records }` — flight-recorder round records
//!   ([`crate::RoundTrace`], nine `u64`s each, preceded by a `u64`
//!   count) streamed by a traced worker as rounds commit; the hub keeps
//!   the last-K per shard so a supervisor's postmortem dump covers a
//!   worker that died mid-run. Sent only by a worker whose
//!   [`super::WorkerConfig::trace`] is set.
//! - `Event { shard: u32, round: u64, code: u8, detail }` — a
//!   worker-side flight-recorder annotation (checkpoint writes, loads,
//!   and rejections — the [`EVENT_CHECKPOINT_WRITE`] code family),
//!   relayed best-effort like `Trace` so the supervisor's postmortem
//!   timeline covers decisions made inside worker processes.
//!
//! [`SimError`] crosses the wire through a small tagged binary codec
//! (`encode_sim_error` / `decode_sim_error`). The only lossy corner
//! is [`FrameError::Malformed`]'s `&'static str` detail: the decoder
//! restores it by matching the closed set of detail strings this build
//! emits (`MALFORMED_DETAILS`); an unknown detail (a newer peer)
//! falls back to `MALFORMED_DETAIL_FALLBACK` rather than failing.

use bytes::Bytes;

use crate::error::{FrameError, SimError, TransportCause, TransportError};
use crate::frame::{fnv1a, FNV_INIT};
use crate::stats::RunStats;
use crate::trace::RoundTrace;
use crate::wire::{put_u64, WireReader};

/// Magic prefix of every control frame.
pub(crate) const CONTROL_MAGIC: &[u8; 3] = b"NDC";

/// Fixed bytes before a control frame's payload.
pub(crate) const CONTROL_HEADER_LEN: usize = 12;

/// Largest control or data frame the stream reader will accept, a
/// desync guard: a corrupted length word must not trigger a
/// multi-gigabyte allocation or an endless read.
pub(crate) const MAX_WIRE_FRAME: usize = 1 << 30;

const KIND_HELLO: u8 = 1;
const KIND_ROUND_BARRIER: u8 = 2;
const KIND_ERROR: u8 = 3;
const KIND_SHUTDOWN: u8 = 4;
const KIND_HEARTBEAT: u8 = 5;
const KIND_STATS: u8 = 6;
const KIND_TRACE: u8 = 7;
const KIND_EVENT: u8 = 8;

/// Encoded size of one [`RoundTrace`] record: nine `u64` fields.
const TRACE_RECORD_LEN: usize = 72;

/// The known [`FrameError::Malformed`] detail strings, used to restore
/// the `&'static str` when an error crosses the wire.
pub(crate) const MALFORMED_DETAILS: &[&str] = &[
    "bytes trail the declared frame length",
    "tables overrun the frame",
    "unknown frame flags",
    "ref points past the payload table",
    "ref slot range is decreasing",
    "payload entry overruns the payload region",
    crate::frame::SELF_FRAME_NOT_EMPTY,
];

/// What a malformed-frame detail decodes to when the sender's string is
/// not in this build's table (a peer from a different build).
pub(crate) const MALFORMED_DETAIL_FALLBACK: &str =
    "malformed frame (remote detail not in this build's table)";

/// One parsed control frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ControlFrame {
    /// Connect-time handshake: who is connecting and what world it
    /// loaded.
    Hello {
        /// The connecting shard's index.
        shard: u32,
        /// The newest data-frame format version the shard encodes.
        frame_version: u32,
        /// Digest of the graph the shard loaded (see
        /// [`crate::transport::graph_digest`]); every shard of a run
        /// must agree.
        graph_digest: u64,
        /// The round the connecting process starts at — 0, or the round
        /// of the checkpoint it restored. The hub replays inbound
        /// traffic from this round on, and counts the process's
        /// deterministic re-sends of rounds it already relayed as echoes
        /// instead of double-delivering them to peers.
        resume_round: u64,
    },
    /// A shard finished shipping `round` (client → hub), or every shard
    /// did and collects may proceed (hub → clients).
    RoundBarrier {
        /// The round the barrier closes.
        round: u64,
    },
    /// A typed failure, relayed so the whole fabric stops with the same
    /// error.
    Error {
        /// Shard that failed (or `u32::MAX` for the hub itself).
        origin: u32,
        /// The failure.
        error: SimError,
    },
    /// Orderly end of run.
    Shutdown {
        /// Shard that finished (or `u32::MAX` for the hub).
        origin: u32,
    },
    /// Periodic liveness beacon from a worker's pacer thread; the hub
    /// records arrival time and round for the supervisor.
    Heartbeat {
        /// Shard that is beating.
        shard: u32,
        /// The round the shard is currently shipping or collecting.
        round: u64,
    },
    /// A worker's end-of-run accounting, sent just before `Shutdown`.
    Stats {
        /// Shard reporting.
        shard: u32,
        /// Rounds the shard fully committed.
        rounds_run: u64,
        /// Protocol-level digest of the shard's final node states (the
        /// launcher cross-checks it against a reference run); semantics
        /// are up to the protocol driver, 0 when unused.
        result_digest: u64,
        /// The shard's accumulated message statistics.
        stats: RunStats,
    },
    /// Flight-recorder round records streamed by a traced worker (one
    /// per committed round).
    Trace {
        /// Shard reporting.
        shard: u32,
        /// The records, oldest first.
        records: Vec<RoundTrace>,
    },
    /// A worker-side flight-recorder annotation (checkpoint writes,
    /// loads, and rejections), relayed so the supervisor's postmortem
    /// timeline covers decisions made inside worker processes. Sent
    /// best-effort, like `Trace`.
    Event {
        /// Shard reporting.
        shard: u32,
        /// The round the event is about.
        round: u64,
        /// Event class (an [`EVENT_CHECKPOINT_WRITE`]-family code; the
        /// hub maps unknown codes to a generic kind rather than
        /// refusing the frame).
        code: u8,
        /// Free-form detail for the JSONL record.
        detail: String,
    },
}

/// [`ControlFrame::Event`] class: a checkpoint file was written.
pub const EVENT_CHECKPOINT_WRITE: u8 = 1;
/// [`ControlFrame::Event`] class: a checkpoint was loaded for resume.
pub const EVENT_CHECKPOINT_LOAD: u8 = 2;
/// [`ControlFrame::Event`] class: a checkpoint file failed validation
/// and was skipped.
pub const EVENT_CHECKPOINT_REJECT: u8 = 3;

impl ControlFrame {
    /// Serializes this control frame (checksummed, self-delimiting).
    #[must_use]
    pub fn encode(&self) -> Bytes {
        let mut payload = Vec::new();
        let kind = match self {
            ControlFrame::Hello {
                shard,
                frame_version,
                graph_digest,
                resume_round,
            } => {
                payload.extend_from_slice(&shard.to_le_bytes());
                payload.extend_from_slice(&frame_version.to_le_bytes());
                payload.extend_from_slice(&graph_digest.to_le_bytes());
                payload.extend_from_slice(&resume_round.to_le_bytes());
                KIND_HELLO
            }
            ControlFrame::RoundBarrier { round } => {
                payload.extend_from_slice(&round.to_le_bytes());
                KIND_ROUND_BARRIER
            }
            ControlFrame::Error { origin, error } => {
                payload.extend_from_slice(&origin.to_le_bytes());
                encode_sim_error(error, &mut payload);
                KIND_ERROR
            }
            ControlFrame::Shutdown { origin } => {
                payload.extend_from_slice(&origin.to_le_bytes());
                KIND_SHUTDOWN
            }
            ControlFrame::Heartbeat { shard, round } => {
                payload.extend_from_slice(&shard.to_le_bytes());
                payload.extend_from_slice(&round.to_le_bytes());
                KIND_HEARTBEAT
            }
            ControlFrame::Stats {
                shard,
                rounds_run,
                result_digest,
                stats,
            } => {
                payload.extend_from_slice(&shard.to_le_bytes());
                payload.extend_from_slice(&rounds_run.to_le_bytes());
                payload.extend_from_slice(&result_digest.to_le_bytes());
                stats.encode(&mut payload);
                KIND_STATS
            }
            ControlFrame::Trace { shard, records } => {
                payload.extend_from_slice(&shard.to_le_bytes());
                put_usize(&mut payload, records.len());
                for record in records {
                    put_u64(&mut payload, record.round);
                    put_u64(&mut payload, record.compute_ns);
                    put_u64(&mut payload, record.account_ns);
                    put_u64(&mut payload, record.ship_ns);
                    put_u64(&mut payload, record.place_ns);
                    put_u64(&mut payload, record.barrier_wait_ns);
                    put_u64(&mut payload, record.frame_bytes);
                    put_u64(&mut payload, record.checksum_ns);
                    put_u64(&mut payload, record.restarts_seen);
                }
                KIND_TRACE
            }
            ControlFrame::Event {
                shard,
                round,
                code,
                detail,
            } => {
                payload.extend_from_slice(&shard.to_le_bytes());
                payload.extend_from_slice(&round.to_le_bytes());
                payload.push(*code);
                put_string(&mut payload, detail);
                KIND_EVENT
            }
        };
        let total = CONTROL_HEADER_LEN + payload.len();
        let mut buf = Vec::with_capacity(total);
        buf.extend_from_slice(CONTROL_MAGIC);
        buf.push(kind);
        buf.extend_from_slice(&(total as u32).to_le_bytes());
        buf.extend_from_slice(&[0; 4]); // checksum, patched below
        buf.extend_from_slice(&payload);
        let sum = fnv1a(fnv1a(FNV_INIT, &buf[..8]), &buf[CONTROL_HEADER_LEN..]);
        buf[8..12].copy_from_slice(&sum.to_le_bytes());
        Bytes::from(buf)
    }

    /// Parses and validates one control frame (full bytes, magic
    /// included).
    ///
    /// # Errors
    ///
    /// Typed [`FrameError`]s, reusing the data-frame vocabulary: bad
    /// magic, truncation, checksum mismatch, unknown kind or a payload
    /// of the wrong shape (`Malformed`).
    pub fn decode(bytes: &[u8]) -> Result<ControlFrame, FrameError> {
        if bytes.len() < CONTROL_HEADER_LEN {
            return Err(FrameError::Truncated {
                needed: CONTROL_HEADER_LEN,
                have: bytes.len(),
            });
        }
        if &bytes[..3] != CONTROL_MAGIC {
            return Err(FrameError::BadMagic);
        }
        let declared = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes")) as usize;
        if declared > bytes.len() {
            return Err(FrameError::Truncated {
                needed: declared,
                have: bytes.len(),
            });
        }
        if declared < bytes.len() {
            return Err(FrameError::Malformed {
                detail: "bytes trail the declared frame length",
            });
        }
        let declared_sum = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
        let computed = fnv1a(fnv1a(FNV_INIT, &bytes[..8]), &bytes[CONTROL_HEADER_LEN..]);
        if computed != declared_sum {
            return Err(FrameError::ChecksumMismatch {
                declared: declared_sum,
                computed,
            });
        }
        let mut r = WireReader::new(&bytes[CONTROL_HEADER_LEN..]);
        let malformed = FrameError::Malformed {
            detail: "control payload has the wrong shape",
        };
        let frame = match bytes[3] {
            KIND_HELLO => ControlFrame::Hello {
                shard: r.u32().ok_or(malformed)?,
                frame_version: r.u32().ok_or(malformed)?,
                graph_digest: r.u64().ok_or(malformed)?,
                resume_round: r.u64().ok_or(malformed)?,
            },
            KIND_ROUND_BARRIER => ControlFrame::RoundBarrier {
                round: r.u64().ok_or(malformed)?,
            },
            KIND_ERROR => ControlFrame::Error {
                origin: r.u32().ok_or(malformed)?,
                error: decode_sim_error(&mut r).ok_or(malformed)?,
            },
            KIND_SHUTDOWN => ControlFrame::Shutdown {
                origin: r.u32().ok_or(malformed)?,
            },
            KIND_HEARTBEAT => ControlFrame::Heartbeat {
                shard: r.u32().ok_or(malformed)?,
                round: r.u64().ok_or(malformed)?,
            },
            KIND_STATS => ControlFrame::Stats {
                shard: r.u32().ok_or(malformed)?,
                rounds_run: r.u64().ok_or(malformed)?,
                result_digest: r.u64().ok_or(malformed)?,
                stats: RunStats::decode(&mut r).ok_or(malformed)?,
            },
            KIND_TRACE => ControlFrame::Trace {
                shard: r.u32().ok_or(malformed)?,
                records: decode_trace_records(&mut r).ok_or(malformed)?,
            },
            KIND_EVENT => ControlFrame::Event {
                shard: r.u32().ok_or(malformed)?,
                round: r.u64().ok_or(malformed)?,
                code: r.u8().ok_or(malformed)?,
                detail: read_string(&mut r).ok_or(malformed)?,
            },
            _ => {
                return Err(FrameError::Malformed {
                    detail: "unknown control frame kind",
                })
            }
        };
        if !r.is_exhausted() {
            return Err(FrameError::Malformed {
                detail: "bytes trail the control payload",
            });
        }
        Ok(frame)
    }
}

fn put_usize(out: &mut Vec<u8>, v: usize) {
    put_u64(out, v as u64);
}

fn put_string(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// Reads a `u32`-length-prefixed UTF-8 string (the [`put_string`]
/// inverse).
fn read_string(r: &mut WireReader<'_>) -> Option<String> {
    let len = r.u32()? as usize;
    String::from_utf8(r.bytes(len)?.to_vec()).ok()
}

fn decode_trace_records(r: &mut WireReader<'_>) -> Option<Vec<RoundTrace>> {
    let entries = r.usize()?;
    // Same allocation guard as the stats decoder: a corrupt count the
    // remaining payload cannot hold is rejected, not reserved.
    if entries > r.remaining() / TRACE_RECORD_LEN {
        return None;
    }
    let mut records = Vec::with_capacity(entries);
    for _ in 0..entries {
        records.push(RoundTrace {
            round: r.u64()?,
            compute_ns: r.u64()?,
            account_ns: r.u64()?,
            ship_ns: r.u64()?,
            place_ns: r.u64()?,
            barrier_wait_ns: r.u64()?,
            frame_bytes: r.u64()?,
            checksum_ns: r.u64()?,
            restarts_seen: r.u64()?,
        });
    }
    Some(records)
}

/// Binary-encodes a [`SimError`] into `out` (appended).
pub(crate) fn encode_sim_error(error: &SimError, out: &mut Vec<u8>) {
    match error {
        SimError::NotNeighbor { from, to } => {
            out.push(1);
            put_usize(out, *from);
            put_usize(out, *to);
        }
        SimError::CongestViolation {
            from,
            to,
            bytes,
            limit,
            round,
        } => {
            out.push(2);
            put_usize(out, *from);
            put_usize(out, *to);
            put_usize(out, *bytes);
            put_usize(out, *limit);
            put_usize(out, *round);
        }
        SimError::RoundLimitExceeded { limit } => {
            out.push(3);
            put_usize(out, *limit);
        }
        SimError::Nondeterminism { round, vertex } => {
            out.push(4);
            put_usize(out, *round);
            put_usize(out, *vertex);
        }
        SimError::Frame {
            shard,
            round,
            error,
        } => {
            out.push(5);
            put_usize(out, *shard);
            put_usize(out, *round);
            encode_frame_error(error, out);
        }
        SimError::Transport(TransportError {
            shard,
            round,
            cause,
        }) => {
            out.push(6);
            put_usize(out, *shard);
            put_usize(out, *round);
            encode_cause(cause, out);
        }
    }
}

fn encode_frame_error(error: &FrameError, out: &mut Vec<u8>) {
    match error {
        FrameError::Truncated { needed, have } => {
            out.push(1);
            put_usize(out, *needed);
            put_usize(out, *have);
        }
        FrameError::BadMagic => out.push(2),
        FrameError::VersionMismatch { found, min, max } => {
            out.push(3);
            out.extend_from_slice(&[*found, *min, *max]);
        }
        FrameError::ChecksumMismatch { declared, computed } => {
            out.push(4);
            out.extend_from_slice(&declared.to_le_bytes());
            out.extend_from_slice(&computed.to_le_bytes());
        }
        FrameError::Malformed { detail } => {
            out.push(5);
            put_string(out, detail);
        }
        FrameError::Misrouted { expected, found } => {
            out.push(6);
            put_usize(out, *expected);
            put_usize(out, *found);
        }
        FrameError::MissingFrame { sender } => {
            out.push(7);
            put_usize(out, *sender);
        }
        FrameError::ForeignSlots { from, lo, hi } => {
            out.push(8);
            put_usize(out, *from);
            put_usize(out, *lo);
            put_usize(out, *hi);
        }
    }
}

fn encode_cause(cause: &TransportCause, out: &mut Vec<u8>) {
    match cause {
        TransportCause::Timeout { waited_ms } => {
            out.push(1);
            put_u64(out, *waited_ms);
        }
        TransportCause::Disconnected => out.push(2),
        TransportCause::Handshake { detail } => {
            out.push(3);
            put_string(out, detail);
        }
        TransportCause::Io { detail } => {
            out.push(4);
            put_string(out, detail);
        }
        TransportCause::Remote { message } => {
            out.push(5);
            put_string(out, message);
        }
    }
}

fn decode_sim_error(r: &mut WireReader<'_>) -> Option<SimError> {
    Some(match r.u8()? {
        1 => SimError::NotNeighbor {
            from: r.usize()?,
            to: r.usize()?,
        },
        2 => SimError::CongestViolation {
            from: r.usize()?,
            to: r.usize()?,
            bytes: r.usize()?,
            limit: r.usize()?,
            round: r.usize()?,
        },
        3 => SimError::RoundLimitExceeded { limit: r.usize()? },
        4 => SimError::Nondeterminism {
            round: r.usize()?,
            vertex: r.usize()?,
        },
        5 => SimError::Frame {
            shard: r.usize()?,
            round: r.usize()?,
            error: decode_frame_error(r)?,
        },
        6 => SimError::Transport(TransportError {
            shard: r.usize()?,
            round: r.usize()?,
            cause: decode_cause(r)?,
        }),
        _ => return None,
    })
}

fn decode_frame_error(r: &mut WireReader<'_>) -> Option<FrameError> {
    Some(match r.u8()? {
        1 => FrameError::Truncated {
            needed: r.usize()?,
            have: r.usize()?,
        },
        2 => FrameError::BadMagic,
        3 => FrameError::VersionMismatch {
            found: r.u8()?,
            min: r.u8()?,
            max: r.u8()?,
        },
        4 => FrameError::ChecksumMismatch {
            declared: r.u32()?,
            computed: r.u32()?,
        },
        5 => {
            let detail = read_string(r)?;
            FrameError::Malformed {
                detail: MALFORMED_DETAILS
                    .iter()
                    .find(|known| ***known == detail)
                    .copied()
                    .unwrap_or(MALFORMED_DETAIL_FALLBACK),
            }
        }
        6 => FrameError::Misrouted {
            expected: r.usize()?,
            found: r.usize()?,
        },
        7 => FrameError::MissingFrame { sender: r.usize()? },
        8 => FrameError::ForeignSlots {
            from: r.usize()?,
            lo: r.usize()?,
            hi: r.usize()?,
        },
        _ => return None,
    })
}

fn decode_cause(r: &mut WireReader<'_>) -> Option<TransportCause> {
    Some(match r.u8()? {
        1 => TransportCause::Timeout {
            waited_ms: r.u64()?,
        },
        2 => TransportCause::Disconnected,
        3 => TransportCause::Handshake {
            detail: read_string(r)?,
        },
        4 => TransportCause::Io {
            detail: read_string(r)?,
        },
        5 => TransportCause::Remote {
            message: read_string(r)?,
        },
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::RoundStats;

    fn sample_errors() -> Vec<SimError> {
        vec![
            SimError::NotNeighbor { from: 3, to: 9 },
            SimError::CongestViolation {
                from: 0,
                to: 1,
                bytes: 64,
                limit: 16,
                round: 3,
            },
            SimError::RoundLimitExceeded { limit: 40 },
            SimError::Nondeterminism {
                round: 4,
                vertex: 2,
            },
            SimError::Frame {
                shard: 3,
                round: 7,
                error: FrameError::ChecksumMismatch {
                    declared: 1,
                    computed: 2,
                },
            },
            SimError::Frame {
                shard: 0,
                round: 0,
                error: FrameError::Malformed {
                    detail: "tables overrun the frame",
                },
            },
            SimError::Frame {
                shard: 1,
                round: 2,
                error: FrameError::ForeignSlots {
                    from: 11,
                    lo: 4,
                    hi: 9,
                },
            },
            SimError::Transport(TransportError {
                shard: 2,
                round: 5,
                cause: TransportCause::Timeout { waited_ms: 750 },
            }),
            SimError::Transport(TransportError {
                shard: 1,
                round: 0,
                cause: TransportCause::Handshake {
                    detail: "graph digest mismatch".into(),
                },
            }),
        ]
    }

    #[test]
    fn control_frames_round_trip() {
        let mut sample_stats = RunStats::default();
        sample_stats.absorb(RoundStats {
            round: 0,
            messages: 12,
            bytes: 96,
            max_edge_bytes: 8,
        });
        sample_stats.absorb(RoundStats {
            round: 1,
            messages: 3,
            bytes: 24,
            max_edge_bytes: 8,
        });
        let mut frames = vec![
            ControlFrame::Hello {
                shard: 3,
                frame_version: 2,
                graph_digest: 0xdead_beef_cafe_f00d,
                resume_round: 17,
            },
            ControlFrame::RoundBarrier { round: 41 },
            ControlFrame::Shutdown { origin: 7 },
            ControlFrame::Heartbeat { shard: 2, round: 9 },
            ControlFrame::Stats {
                shard: 1,
                rounds_run: 2,
                result_digest: 0x1234_5678_9abc_def0,
                stats: sample_stats,
            },
            ControlFrame::Stats {
                shard: 0,
                rounds_run: 0,
                result_digest: 0,
                stats: RunStats::default(),
            },
            ControlFrame::Trace {
                shard: 2,
                records: vec![
                    RoundTrace {
                        round: 7,
                        compute_ns: 1200,
                        account_ns: 310,
                        ship_ns: 450,
                        place_ns: 980,
                        barrier_wait_ns: 150,
                        frame_bytes: 4096,
                        checksum_ns: 210,
                        restarts_seen: 1,
                    },
                    RoundTrace {
                        round: 8,
                        ..RoundTrace::default()
                    },
                ],
            },
            ControlFrame::Trace {
                shard: 0,
                records: Vec::new(),
            },
            ControlFrame::Event {
                shard: 1,
                round: 9,
                code: EVENT_CHECKPOINT_REJECT,
                detail: "digest mismatch: ckpt-s1-r00000009.ndk".into(),
            },
            ControlFrame::Event {
                shard: 0,
                round: 0,
                code: 200,
                detail: String::new(),
            },
        ];
        for error in sample_errors() {
            frames.push(ControlFrame::Error { origin: 1, error });
        }
        for frame in frames {
            let encoded = frame.encode();
            let decoded = ControlFrame::decode(encoded.as_slice()).unwrap();
            assert_eq!(decoded, frame);
        }
    }

    #[test]
    fn every_malformed_detail_survives_the_wire() {
        for &detail in MALFORMED_DETAILS {
            let error = SimError::Frame {
                shard: 0,
                round: 1,
                error: FrameError::Malformed { detail },
            };
            let encoded = ControlFrame::Error {
                origin: 0,
                error: error.clone(),
            }
            .encode();
            let ControlFrame::Error { error: back, .. } =
                ControlFrame::decode(encoded.as_slice()).unwrap()
            else {
                panic!("wrong kind");
            };
            assert_eq!(back, error, "detail {detail:?}");
        }
    }

    #[test]
    fn corruption_is_a_typed_rejection() {
        let encoded = ControlFrame::RoundBarrier { round: 9 }.encode();
        for i in 0..encoded.len() {
            let mut bad = encoded.as_slice().to_vec();
            bad[i] ^= 0x20;
            let verdict = ControlFrame::decode(&bad);
            assert!(
                verdict.is_err(),
                "flipping byte {i} went unnoticed: {verdict:?}"
            );
        }
    }

    #[test]
    fn an_absurd_stats_entry_count_is_rejected_not_allocated() {
        // A validly-checksummed frame whose per-round entry count far
        // exceeds what the payload can hold must fail typed instead of
        // reserving gigabytes.
        let encoded = ControlFrame::Stats {
            shard: 0,
            rounds_run: 1,
            result_digest: 0,
            stats: RunStats::default(),
        }
        .encode();
        let mut bad = encoded.as_slice().to_vec();
        // Payload layout: shard u32, rounds_run u64, result_digest u64,
        // rounds u64, total_messages u64, total_bytes u64,
        // max_edge_bytes u64, entry count u64.
        let count_at = CONTROL_HEADER_LEN + 4 + 8 + 8 + 4 * 8;
        bad[count_at..count_at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        let sum = fnv1a(fnv1a(FNV_INIT, &bad[..8]), &bad[CONTROL_HEADER_LEN..]);
        bad[8..12].copy_from_slice(&sum.to_le_bytes());
        assert!(matches!(
            ControlFrame::decode(&bad),
            Err(FrameError::Malformed { .. })
        ));
    }

    #[test]
    fn an_absurd_trace_record_count_is_rejected_not_allocated() {
        let encoded = ControlFrame::Trace {
            shard: 0,
            records: Vec::new(),
        }
        .encode();
        let mut bad = encoded.as_slice().to_vec();
        // Payload layout: shard u32, then the record count u64.
        let count_at = CONTROL_HEADER_LEN + 4;
        bad[count_at..count_at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        let sum = fnv1a(fnv1a(FNV_INIT, &bad[..8]), &bad[CONTROL_HEADER_LEN..]);
        bad[8..12].copy_from_slice(&sum.to_le_bytes());
        assert!(matches!(
            ControlFrame::decode(&bad),
            Err(FrameError::Malformed { .. })
        ));
    }

    #[test]
    fn data_frame_magic_is_rejected_here() {
        let data = crate::frame::encode_entries(0, 1, &[]);
        assert_eq!(
            ControlFrame::decode(data.as_slice()),
            Err(FrameError::BadMagic)
        );
    }
}
