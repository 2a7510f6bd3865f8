//! Error type for simulation runs.

use std::error::Error;
use std::fmt;

use netdecomp_graph::VertexId;

/// Ways a transport frame can fail validation (see [`crate::frame`] for
/// the wire layout these checks guard).
///
/// Every variant is a *typed* rejection: a truncated, stale-versioned, or
/// bit-flipped frame surfaces as an error from the decode or place path,
/// never as a panic or a silently misdelivered message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum FrameError {
    /// Fewer bytes than the header — or the declared frame length —
    /// requires.
    Truncated {
        /// Bytes the frame claims to need.
        needed: usize,
        /// Bytes actually present.
        have: usize,
    },
    /// The first bytes are not the `NDF` frame magic.
    BadMagic,
    /// Right magic, but a format version outside the range this build
    /// decodes.
    VersionMismatch {
        /// Version byte found in the frame.
        found: u8,
        /// Oldest version this build still decodes.
        min: u8,
        /// Newest version this build decodes (and encodes by default).
        max: u8,
    },
    /// The header checksum does not match the header and table bytes.
    ChecksumMismatch {
        /// Checksum the frame declares.
        declared: u32,
        /// Checksum computed over the received bytes.
        computed: u32,
    },
    /// Structurally invalid: tables or payload entries overrun their
    /// regions, a ref points past the payload table, or similar.
    Malformed {
        /// Which structural check failed.
        detail: &'static str,
    },
    /// The frame's addressing words disagree with the link it arrived on.
    Misrouted {
        /// Shard the link says the frame is for / from.
        expected: usize,
        /// Shard the frame's header claims.
        found: usize,
    },
    /// No frame arrived from this sender shard this round.
    MissingFrame {
        /// The sender shard whose frame is missing.
        sender: usize,
    },
    /// A ref is inconsistent with the graph and plan: its slot range
    /// delivers to vertices outside the receiving shard, its claimed
    /// sender does not belong to the shard the frame came from, or the
    /// slots are not the claimed sender's own CSR row — a correctly
    /// checksummed but misrouted (or fabricated) entry.
    ForeignSlots {
        /// The ref's claimed sender vertex.
        from: VertexId,
        /// First slot of the offending range.
        lo: usize,
        /// One past the last slot.
        hi: usize,
    },
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Truncated { needed, have } => {
                write!(f, "frame truncated: {have} bytes of {needed}")
            }
            FrameError::BadMagic => write!(f, "bad frame magic"),
            FrameError::VersionMismatch { found, min, max } => {
                write!(
                    f,
                    "frame version {found} (this build speaks v{min} through v{max})"
                )
            }
            FrameError::ChecksumMismatch { declared, computed } => write!(
                f,
                "frame checksum mismatch: declared {declared:#010x}, computed {computed:#010x}"
            ),
            FrameError::Malformed { detail } => write!(f, "malformed frame: {detail}"),
            FrameError::Misrouted { expected, found } => {
                write!(
                    f,
                    "misrouted frame: header says shard {found}, link says {expected}"
                )
            }
            FrameError::MissingFrame { sender } => {
                write!(f, "no frame arrived from sender shard {sender}")
            }
            FrameError::ForeignSlots { from, lo, hi } => write!(
                f,
                "frame ref from vertex {from} covers slots {lo}..{hi} outside the receiving shard"
            ),
        }
    }
}

impl Error for FrameError {}

/// Why a transport gave up on the link to a peer shard.
///
/// Every blocking point in the socket backend carries a deadline
/// ([`crate::transport::DEFAULT_FRAME_TIMEOUT`] unless the caller sets
/// one), so a wedged, dead, or misbehaving peer always degrades into one
/// of these typed causes — never into an indefinite hang.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TransportCause {
    /// The deadline elapsed before the peer's frame — or the round
    /// barrier acknowledgement — arrived.
    Timeout {
        /// Milliseconds waited before giving up.
        waited_ms: u64,
    },
    /// The peer's connection closed (EOF): the process died, or shut the
    /// link down mid-round.
    Disconnected,
    /// The connect-time handshake failed: the peer identified as an
    /// unexpected shard, spoke an unsupported frame version, or loaded a
    /// different graph (digest mismatch).
    Handshake {
        /// What the handshake disagreed about.
        detail: String,
    },
    /// An OS-level I/O failure on the link (including a desynchronized
    /// byte stream, where framing can no longer be trusted).
    Io {
        /// The underlying error, rendered.
        detail: String,
    },
    /// A peer reported its own failure through an `Error` control frame;
    /// the original [`SimError`] is carried as rendered text here (the
    /// worker drivers surface the structured error directly).
    Remote {
        /// The peer's error, rendered.
        message: String,
    },
}

impl fmt::Display for TransportCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportCause::Timeout { waited_ms } => {
                write!(f, "timed out after {waited_ms} ms")
            }
            TransportCause::Disconnected => write!(f, "peer disconnected"),
            TransportCause::Handshake { detail } => write!(f, "handshake failed: {detail}"),
            TransportCause::Io { detail } => write!(f, "i/o failure: {detail}"),
            TransportCause::Remote { message } => write!(f, "peer reported an error: {message}"),
        }
    }
}

/// A transport-level failure: the link to one peer shard broke, timed
/// out, or refused the handshake.
///
/// Surfaced by [`crate::frame::Transport::collect`] and threaded through
/// the engine as [`SimError::Transport`], so a dead or wedged shard is
/// always a typed error within the configured deadline — never a hang.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransportError {
    /// The peer shard the failure concerns.
    pub shard: usize,
    /// The round in which the failure surfaced (as counted by whoever
    /// observed it — the engine overwrites this with its authoritative
    /// round number when wrapping into [`SimError::Transport`]).
    pub round: usize,
    /// What went wrong on the link.
    pub cause: TransportCause,
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "transport failure on the link to shard {} at round {}: {}",
            self.shard, self.round, self.cause
        )
    }
}

impl Error for TransportError {}

/// Errors surfaced by the simulation engine.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// A node addressed a message to a vertex that is not its neighbor.
    NotNeighbor {
        /// Sender.
        from: VertexId,
        /// Intended recipient.
        to: VertexId,
    },
    /// The per-edge per-round byte budget of the CONGEST model was exceeded.
    CongestViolation {
        /// Sender.
        from: VertexId,
        /// Recipient.
        to: VertexId,
        /// Bytes the sender tried to push across the edge this round.
        bytes: usize,
        /// Configured limit.
        limit: usize,
        /// Round in which it happened.
        round: usize,
    },
    /// `run_to_quiescence` exhausted its round budget before all nodes halted.
    RoundLimitExceeded {
        /// The budget that was exhausted.
        limit: usize,
    },
    /// Verified stepping ([`crate::Determinism::Verify`]) found the
    /// parallel compute phase producing different outboxes than the
    /// sequential reference — a protocol whose behavior depends on
    /// something other than `(state, incoming)`, e.g. shared mutable
    /// state or ambient randomness.
    Nondeterminism {
        /// Round at which the divergence was detected.
        round: usize,
        /// First vertex whose outbox diverged.
        vertex: VertexId,
    },
    /// A framed backend ([`crate::Engine::Framed`]) received a bucket
    /// frame that failed validation during the place phase.
    Frame {
        /// Destination shard that rejected the frame.
        shard: usize,
        /// Round in which it happened.
        round: usize,
        /// The frame-level failure.
        error: FrameError,
    },
    /// A transport backend lost the link to a peer shard: timeout,
    /// disconnect, failed handshake, I/O failure, or a peer-reported
    /// error (see [`TransportError`]).
    Transport(TransportError),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::NotNeighbor { from, to } => {
                write!(f, "node {from} tried to message non-neighbor {to}")
            }
            SimError::CongestViolation {
                from,
                to,
                bytes,
                limit,
                round,
            } => write!(
                f,
                "congest violation at round {round}: edge {from}->{to} carried {bytes} bytes (limit {limit})"
            ),
            SimError::RoundLimitExceeded { limit } => {
                write!(f, "protocol did not quiesce within {limit} rounds")
            }
            SimError::Nondeterminism { round, vertex } => write!(
                f,
                "parallel compute diverged from the sequential reference at round {round} (vertex {vertex})"
            ),
            SimError::Frame {
                shard,
                round,
                error,
            } => write!(
                f,
                "shard {shard} rejected a bucket frame at round {round}: {error}"
            ),
            SimError::Transport(error) => write!(f, "{error}"),
        }
    }
}

impl From<TransportError> for SimError {
    fn from(error: TransportError) -> Self {
        SimError::Transport(error)
    }
}

impl Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = SimError::NotNeighbor { from: 1, to: 9 };
        assert!(e.to_string().contains("non-neighbor 9"));
        let e = SimError::CongestViolation {
            from: 0,
            to: 1,
            bytes: 64,
            limit: 16,
            round: 3,
        };
        assert!(e.to_string().contains("limit 16"));
        let e = SimError::RoundLimitExceeded { limit: 10 };
        assert!(e.to_string().contains("10 rounds"));
        let e = SimError::Nondeterminism {
            round: 4,
            vertex: 2,
        };
        assert!(e.to_string().contains("round 4"));
        let e = SimError::Frame {
            shard: 3,
            round: 7,
            error: FrameError::ChecksumMismatch {
                declared: 1,
                computed: 2,
            },
        };
        assert!(e.to_string().contains("shard 3"));
        assert!(e.to_string().contains("checksum mismatch"));
        let e = FrameError::Truncated {
            needed: 28,
            have: 5,
        };
        assert!(e.to_string().contains("5 bytes of 28"));
        let e = FrameError::VersionMismatch {
            found: 9,
            min: 1,
            max: 2,
        };
        assert!(e.to_string().contains("version 9"));
        assert!(
            e.to_string().contains("v1 through v2"),
            "the message must name the accepted range, got: {e}"
        );
        let e = SimError::Transport(TransportError {
            shard: 2,
            round: 5,
            cause: TransportCause::Timeout { waited_ms: 750 },
        });
        assert!(e.to_string().contains("shard 2"));
        assert!(e.to_string().contains("round 5"));
        assert!(e.to_string().contains("750 ms"));
        let e = TransportError {
            shard: 1,
            round: 0,
            cause: TransportCause::Handshake {
                detail: "graph digest mismatch".into(),
            },
        };
        assert!(e.to_string().contains("graph digest mismatch"));
        let e = TransportCause::Remote {
            message: "protocol did not quiesce within 3 rounds".into(),
        };
        assert!(e.to_string().contains("peer reported"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SimError>();
        assert_send_sync::<FrameError>();
        assert_send_sync::<TransportError>();
    }
}
