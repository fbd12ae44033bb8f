//! Runtime health telemetry for the transport: per-rank heartbeats,
//! pending-receive tracking, and lane-key decoding.
//!
//! Everything here is written from the collectives hot paths (blocking
//! calls on the main context, `run_job` on the comm stream, the
//! transport send/recv primitives) and read by an observer thread (the
//! exec watchdog, `axonnctl monitor`). Stamps are relaxed atomic stores
//! of a monotonic wall offset; the only mutexes guard the rarely-read
//! "what op / what peer" diagnostic strings.
//!
//! Under `cfg(loom)` the wall clock does not exist; the stamping calls
//! compile to counters only, and ages read as zero. The loom models
//! exercise the message-passing protocol, not the watchdog.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::mailbox::MsgKey;

/// Decode the lane a message key belongs to (see `comm::lane`): the
/// collective phase whose sub-key range the key sits in, or `"p2p"` for
/// raw point-to-point traffic (group key `u64::MAX`).
pub fn lane_name(key: MsgKey) -> &'static str {
    let group = (key >> 64) as u64;
    if group == u64::MAX {
        return "p2p";
    }
    match (key as u32) & 0xffff_0000 {
        0x0000_0000 => "rs",
        0x0001_0000 => "ag",
        0x0002_0000 => "bcast",
        0x0003_0000 => "clock_up",
        0x0004_0000 => "clock_down",
        0x0006_0000 => "lrs",
        0x0007_0000 => "rhd",
        0x0008_0000 => "rdag",
        0x0009_0000 => "tree_up",
        0x000a_0000 => "tree_down",
        _ => "unknown",
    }
}

/// A receive that has been posted but not yet satisfied, as seen by an
/// observer. `age_ms` is wall time since the receive was posted.
#[derive(Debug, Clone, PartialEq)]
pub struct PendingRecv {
    /// Peer the rank is waiting on.
    pub src: usize,
    /// Lane the pending key decodes to (`rs`, `ag`, ...).
    pub lane: &'static str,
    /// Raw message key (diagnostic).
    pub key: MsgKey,
    /// Milliseconds the receive has been outstanding.
    pub age_ms: u64,
}

/// Observer-side snapshot of one rank's health.
#[derive(Debug, Clone)]
pub struct RankTelemetry {
    pub rank: usize,
    /// Milliseconds since the rank last made progress (sent, received,
    /// or entered/finished a collective). Zero under loom.
    pub heartbeat_age_ms: u64,
    /// Collective op the rank is currently inside, if any.
    pub current_op: Option<&'static str>,
    /// Receive the rank is currently blocked on, if any.
    pub pending: Option<PendingRecv>,
    /// Collectives completed so far.
    pub collectives: u64,
    /// Payload bytes sent so far.
    pub bytes_sent: u64,
}

#[derive(Debug)]
struct RankBeat {
    /// Nanoseconds since the world's origin at last progress.
    last_progress_ns: AtomicU64,
    collectives: AtomicU64,
    bytes_sent: AtomicU64,
    current_op: Mutex<Option<&'static str>>,
    /// (src, key, posted-at ns) of the receive currently blocking.
    pending: Mutex<Option<(usize, MsgKey, u64)>>,
}

impl RankBeat {
    fn new() -> RankBeat {
        RankBeat {
            last_progress_ns: AtomicU64::new(0),
            collectives: AtomicU64::new(0),
            bytes_sent: AtomicU64::new(0),
            current_op: Mutex::new(None),
            pending: Mutex::new(None),
        }
    }
}

/// Heartbeat table for one world: one cell per rank, stamped by that
/// rank's threads, snapshotted by observers.
#[derive(Debug, Clone)]
pub struct Beats {
    inner: Arc<BeatsInner>,
}

#[derive(Debug)]
struct BeatsInner {
    #[cfg(not(loom))]
    origin: std::time::Instant,
    beats: Vec<RankBeat>,
}

impl Beats {
    pub fn new(size: usize) -> Beats {
        Beats {
            inner: Arc::new(BeatsInner {
                #[cfg(not(loom))]
                origin: std::time::Instant::now(),
                beats: (0..size).map(|_| RankBeat::new()).collect(),
            }),
        }
    }

    fn now_ns(&self) -> u64 {
        #[cfg(not(loom))]
        {
            self.inner.origin.elapsed().as_nanos() as u64
        }
        #[cfg(loom)]
        {
            0
        }
    }

    /// Record that `rank` made progress now.
    pub fn stamp(&self, rank: usize) {
        let now = self.now_ns();
        self.inner.beats[rank]
            .last_progress_ns
            .store(now, Ordering::Relaxed);
    }

    /// Record that `rank` sent `bytes` of payload.
    pub fn note_send(&self, rank: usize, bytes: u64) {
        self.inner.beats[rank]
            .bytes_sent
            .fetch_add(bytes, Ordering::Relaxed);
        self.stamp(rank);
    }

    /// Record that `rank` completed a collective.
    pub fn note_collective(&self, rank: usize) {
        self.inner.beats[rank]
            .collectives
            .fetch_add(1, Ordering::Relaxed);
        self.stamp(rank);
    }

    /// Mark `rank` as inside collective `op` (cleared by `clear_op`).
    pub fn set_op(&self, rank: usize, op: &'static str) {
        *self.inner.beats[rank].current_op.lock() = Some(op);
        self.stamp(rank);
    }

    pub fn clear_op(&self, rank: usize) {
        *self.inner.beats[rank].current_op.lock() = None;
        self.stamp(rank);
    }

    /// Mark `rank` as blocked receiving `key` from `src`.
    pub fn begin_recv(&self, rank: usize, src: usize, key: MsgKey) {
        let now = self.now_ns();
        *self.inner.beats[rank].pending.lock() = Some((src, key, now));
    }

    /// Clear the pending receive and stamp progress.
    pub fn end_recv(&self, rank: usize) {
        *self.inner.beats[rank].pending.lock() = None;
        self.stamp(rank);
    }

    /// Observer-side snapshot for one rank.
    pub fn snapshot(&self, rank: usize) -> RankTelemetry {
        let beat = &self.inner.beats[rank];
        let now = self.now_ns();
        let last = beat.last_progress_ns.load(Ordering::Relaxed);
        let pending = beat.pending.lock().map(|(src, key, since)| PendingRecv {
            src,
            lane: lane_name(key),
            key,
            age_ms: now.saturating_sub(since) / 1_000_000,
        });
        RankTelemetry {
            rank,
            heartbeat_age_ms: now.saturating_sub(last) / 1_000_000,
            current_op: *beat.current_op.lock(),
            pending,
            collectives: beat.collectives.load(Ordering::Relaxed),
            bytes_sent: beat.bytes_sent.load(Ordering::Relaxed),
        }
    }

    /// Snapshot every rank.
    pub fn snapshot_all(&self) -> Vec<RankTelemetry> {
        (0..self.inner.beats.len())
            .map(|r| self.snapshot(r))
            .collect()
    }

    pub fn size(&self) -> usize {
        self.inner.beats.len()
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use crate::comm::{lane, msg_key};
    use crate::program::sub;

    #[test]
    fn lane_decoding() {
        assert_eq!(lane_name(msg_key(3, 7, lane::RS + sub(0, 1))), "rs");
        assert_eq!(lane_name(msg_key(3, 7, lane::AG + sub(2, 0))), "ag");
        assert_eq!(lane_name(msg_key(3, 7, lane::BCAST)), "bcast");
        assert_eq!(lane_name(msg_key(3, 7, lane::CLOCK_UP)), "clock_up");
        assert_eq!(lane_name(msg_key(3, 7, lane::CLOCK_DOWN)), "clock_down");
        assert_eq!(lane_name(msg_key(3, 7, lane::LRS)), "lrs");
        assert_eq!(lane_name(msg_key(3, 7, lane::RHD + sub(1, 0))), "rhd");
        assert_eq!(lane_name(msg_key(3, 7, lane::RDAG)), "rdag");
        assert_eq!(lane_name(msg_key(3, 7, lane::TREE_UP)), "tree_up");
        assert_eq!(lane_name(msg_key(3, 7, lane::TREE_DOWN)), "tree_down");
        assert_eq!(lane_name(msg_key(u64::MAX, 0, 5)), "p2p");
    }

    #[test]
    fn beats_track_pending_and_progress() {
        let beats = Beats::new(2);
        beats.note_send(0, 1024);
        beats.note_collective(0);
        let key = msg_key(1, 0, lane::RS);
        beats.begin_recv(1, 0, key);
        std::thread::sleep(std::time::Duration::from_millis(5));
        let t = beats.snapshot(1);
        let pending = t.pending.expect("recv outstanding");
        assert_eq!(pending.src, 0);
        assert_eq!(pending.lane, "rs");
        assert!(pending.age_ms >= 4, "age {} ms", pending.age_ms);
        beats.end_recv(1);
        assert!(beats.snapshot(1).pending.is_none());
        let t0 = beats.snapshot(0);
        assert_eq!(t0.collectives, 1);
        assert_eq!(t0.bytes_sent, 1024);
    }

    #[test]
    fn op_markers() {
        let beats = Beats::new(1);
        beats.set_op(0, "all_reduce");
        assert_eq!(beats.snapshot(0).current_op, Some("all_reduce"));
        beats.clear_op(0);
        assert_eq!(beats.snapshot(0).current_op, None);
    }
}
