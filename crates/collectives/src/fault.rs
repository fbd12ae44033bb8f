//! Typed communication failures and deterministic fault injection.
//!
//! PR 1's poison mechanism turned any rank panic into a world-wide panic
//! with a fixed message — good enough to avoid deadlock, but opaque to a
//! supervisor that wants to *recover*. This module introduces the typed
//! [`CommError`] surfaced by every fallible collective, the
//! [`InjectedKill`] panic payload used by deterministic kill injection,
//! and the transport-level [`FaultConfig`] (message drops, link stalls,
//! recv timeouts) threaded into the mailbox by
//! [`WorldBuilder::faults`](crate::WorldBuilder::faults).

use crate::mailbox::PoisonInfo;
use std::time::Duration;

/// Default bound on any blocking receive. Generous enough that healthy
/// tests never trip it, small enough that a genuinely dead peer is
/// eventually reported rather than hung on forever.
pub const DEFAULT_RECV_TIMEOUT: Duration = Duration::from_secs(30);

/// A structured, recoverable communication failure.
///
/// Every blocking receive path in the crate resolves to one of these
/// instead of hanging: a peer explicitly marked dead (or silent past the
/// recv timeout) yields `PeerLost`; a world killed by the legacy poison
/// mechanism yields `Poisoned`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommError {
    /// A peer will never answer: it was marked dead, or the receive
    /// timed out waiting for it.
    PeerLost { peer: usize, detail: String },
    /// The world was poisoned (some rank panicked) before or during the
    /// operation.
    Poisoned(PoisonInfo),
    /// The caller handed a collective a buffer it cannot operate on
    /// (e.g. a reduce-scatter length not divisible by the group size).
    /// Raised *before* any message moves, so no peer is left waiting.
    InvalidBuffer {
        /// The collective that rejected the buffer.
        op: &'static str,
        /// What was wrong with it.
        detail: String,
    },
}

impl std::fmt::Display for CommError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommError::PeerLost { peer, detail } => {
                write!(f, "peer rank {peer} lost: {detail}")
            }
            CommError::Poisoned(info) => write!(
                f,
                "world poisoned: rank {} panicked: {}",
                info.origin_rank, info.message
            ),
            CommError::InvalidBuffer { op, detail } => {
                write!(f, "invalid buffer for {op}: {detail}")
            }
        }
    }
}

impl std::error::Error for CommError {}

/// Panic payload of a deterministically injected rank kill. The
/// supervisor downcasts to this to distinguish an *injected* failure
/// (expected, restartable) from a genuine bug.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectedKill {
    pub rank: usize,
    pub step: u64,
}

impl std::fmt::Display for InjectedKill {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "injected kill of rank {} at step {}",
            self.rank, self.step
        )
    }
}

/// Drop the `nth` (1-based) point-to-point message on the `src → dst`
/// link. The receiver observes the loss as a recv timeout → `PeerLost`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DropRule {
    pub src: usize,
    pub dst: usize,
    pub nth: u64,
}

/// Stall the `src → dst` link once: the first message over the link
/// deposits `seconds` of extra virtual latency, charged to the
/// receiver's next blocking collective (timed worlds only).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StallRule {
    pub src: usize,
    pub dst: usize,
    pub seconds: f64,
}

/// Stall the `src → dst` link once in *wall* time: delivery of the
/// first message over the link is held back by `hold` real seconds
/// while the sender proceeds. Unlike [`StallRule`] (virtual latency,
/// visible only to the cost model), a wall stall leaves the receiver
/// genuinely blocked in its receive — exactly what a hung NIC or a
/// preempted peer looks like to the straggler watchdog.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WallStallRule {
    pub src: usize,
    pub dst: usize,
    pub hold: Duration,
}

/// Transport-level fault injection configuration, fixed at world
/// creation so runs are deterministic.
#[derive(Debug, Clone, Default)]
pub struct FaultConfig {
    pub drops: Vec<DropRule>,
    pub stalls: Vec<StallRule>,
    pub wall_stalls: Vec<WallStallRule>,
    /// Bound on every blocking receive; `None` uses
    /// [`DEFAULT_RECV_TIMEOUT`].
    pub recv_timeout: Option<Duration>,
}

impl FaultConfig {
    /// A fault-free configuration (still carries the default timeout, so
    /// even "healthy" worlds cannot hang forever on a dead peer).
    pub fn none() -> Self {
        FaultConfig::default()
    }

    pub fn with_drop(mut self, rule: DropRule) -> Self {
        self.drops.push(rule);
        self
    }

    pub fn with_stall(mut self, rule: StallRule) -> Self {
        self.stalls.push(rule);
        self
    }

    pub fn with_wall_stall(mut self, rule: WallStallRule) -> Self {
        self.wall_stalls.push(rule);
        self
    }

    pub fn with_recv_timeout(mut self, timeout: Duration) -> Self {
        self.recv_timeout = Some(timeout);
        self
    }
}

/// How a rank of a world ended up failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// Deterministic fault injection killed it ([`InjectedKill`]).
    Killed,
    /// It lost a peer (dead rank or recv timeout) — a *secondary*
    /// failure cascading from someone else's death.
    PeerLost,
    /// It panicked for any other reason (a genuine bug).
    Panic,
}

/// One rank's failure, as observed by the launcher.
#[derive(Debug, Clone)]
pub struct FailureRecord {
    pub rank: usize,
    pub kind: FailureKind,
    pub message: String,
    /// The training step at which the rank failed, when known (injected
    /// kills carry it).
    pub step: Option<u64>,
}

/// Resolve a fallible collective the way the infallible public API
/// promises: poison failures re-raise the exact legacy panic message
/// (`exec` keys on it), peer losses propagate as a typed panic payload
/// the supervisor can classify.
pub(crate) fn unwrap_comm<T>(r: Result<T, CommError>) -> T {
    match r {
        Ok(v) => v,
        Err(CommError::Poisoned(info)) => panic!(
            "world poisoned: rank {} panicked: {}",
            info.origin_rank, info.message
        ),
        // A bad buffer is a caller bug: the infallible API panics with
        // the formatted diagnosis (a `String` payload, classified as a
        // genuine panic by the supervisor).
        Err(e @ CommError::InvalidBuffer { .. }) => panic!("{e}"),
        Err(e @ CommError::PeerLost { .. }) => std::panic::panic_any(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comm_error_display() {
        let e = CommError::PeerLost {
            peer: 3,
            detail: "marked dead".into(),
        };
        assert_eq!(e.to_string(), "peer rank 3 lost: marked dead");
        let p = CommError::Poisoned(PoisonInfo {
            origin_rank: 1,
            message: "boom".into(),
        });
        assert_eq!(p.to_string(), "world poisoned: rank 1 panicked: boom");
        let b = CommError::InvalidBuffer {
            op: "reduce_scatter",
            detail: "length 10 not divisible by group size 4".into(),
        };
        assert_eq!(
            b.to_string(),
            "invalid buffer for reduce_scatter: length 10 not divisible by group size 4"
        );
    }

    #[test]
    fn unwrap_comm_reproduces_legacy_poison_message() {
        let err: Result<(), CommError> = Err(CommError::Poisoned(PoisonInfo {
            origin_rank: 2,
            message: "bad".into(),
        }));
        let panic = std::panic::catch_unwind(|| unwrap_comm(err)).unwrap_err();
        let msg = panic.downcast_ref::<String>().unwrap();
        assert_eq!(msg, "world poisoned: rank 2 panicked: bad");
    }

    #[test]
    fn unwrap_comm_propagates_peer_lost_payload() {
        let err: Result<(), CommError> = Err(CommError::PeerLost {
            peer: 0,
            detail: "timeout".into(),
        });
        let panic = std::panic::catch_unwind(|| unwrap_comm(err)).unwrap_err();
        let e = panic.downcast_ref::<CommError>().unwrap();
        assert!(matches!(e, CommError::PeerLost { peer: 0, .. }));
    }
}
