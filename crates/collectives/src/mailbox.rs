//! Tag-addressed point-to-point transport between ranks.
//!
//! Each rank owns a mailbox: a map from `(source rank, message key)` to a
//! queue of buffers. `send` never blocks (buffered); `recv` blocks until a
//! message with the exact key arrives. Keying messages by a collective-
//! specific tag (rather than relying on FIFO order) is what allows a rank's
//! main thread and its communication worker thread to run *different*
//! collectives between the same rank pairs concurrently without
//! interleaving corruption — the property the overlap optimizations rely
//! on.
//!
//! The transport is also the fault boundary: ranks can be marked dead
//! (receivers waiting on them get [`CommError::PeerLost`] instead of
//! hanging), every blocking receive is bounded by a timeout, and a
//! [`FaultConfig`] can deterministically drop or stall point-to-point
//! messages for fault-injection tests.

use crate::fault::{CommError, FaultConfig, DEFAULT_RECV_TIMEOUT};
use crate::pool::{BufferPool, Payload, PipelineConfig};
use crate::sched::SchedEvent;
use crate::telemetry::{Beats, RankTelemetry};
use parking_lot::{Condvar, Mutex};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
#[cfg(not(loom))]
use std::time::Instant;

/// Message key: identifies which logical transfer a buffer belongs to.
/// Built from (group key, per-group sequence number, step within the
/// collective) by the collective implementations.
pub type MsgKey = u128;

#[derive(Default)]
struct Slot {
    queues: HashMap<(usize, MsgKey), VecDeque<Payload>>,
}

/// One rank's inbox.
pub struct Mailbox {
    slot: Mutex<Slot>,
    signal: Condvar,
    /// World-wide dead-rank registry (rank → reason), shared by every
    /// mailbox of a transport.
    dead: Arc<Mutex<HashMap<usize, String>>>,
}

impl Mailbox {
    fn new(dead: Arc<Mutex<HashMap<usize, String>>>) -> Self {
        Mailbox {
            slot: Mutex::new(Slot::default()),
            signal: Condvar::new(),
            dead,
        }
    }

    fn deposit(&self, from: usize, key: MsgKey, data: Payload) {
        let mut slot = self.slot.lock();
        slot.queues.entry((from, key)).or_default().push_back(data);
        self.signal.notify_all();
    }

    fn take(&self, from: usize, key: MsgKey, timeout: Duration) -> Result<Payload, CommError> {
        // Under `--cfg loom` there is no wall clock: waits are untimed so the
        // model checker explores interleavings deterministically, and a
        // protocol that would need the timeout to make progress shows up as
        // a model deadlock instead.
        #[cfg(not(loom))]
        let deadline = Instant::now() + timeout;
        let mut slot = self.slot.lock();
        loop {
            // Drain queued messages before consulting the dead set: a
            // rank may die *after* sending, and those bytes are valid.
            if let Some(q) = slot.queues.get_mut(&(from, key)) {
                if let Some(data) = q.pop_front() {
                    if q.is_empty() {
                        slot.queues.remove(&(from, key));
                    }
                    return Ok(data);
                }
            }
            if let Some(reason) = self.dead.lock().get(&from).cloned() {
                return Err(CommError::PeerLost {
                    peer: from,
                    detail: reason,
                });
            }
            #[cfg(not(loom))]
            {
                let now = Instant::now();
                if now >= deadline {
                    return Err(CommError::PeerLost {
                        peer: from,
                        detail: format!("recv timed out after {timeout:?}"),
                    });
                }
                self.signal.wait_for(&mut slot, deadline - now);
            }
            #[cfg(loom)]
            {
                let _ = timeout;
                self.signal.wait(&mut slot);
            }
        }
    }
}

/// Consumable fault-injection state (rules are spent as they fire).
#[derive(Default)]
struct FaultRuntime {
    drops: Vec<crate::fault::DropRule>,
    stalls: Vec<crate::fault::StallRule>,
    /// Wall-clock link stalls (loom models never fire them: delivery
    /// happens on a real sleeping thread, which loom cannot schedule).
    #[cfg_attr(loom, allow(dead_code))]
    wall_stalls: Vec<crate::fault::WallStallRule>,
    /// Messages sent per (src, dst) link, counted before drop decisions.
    link_counts: HashMap<(usize, usize), u64>,
}

/// Monotonic world-id source for flight-recorder dump names: every
/// transport in the process gets a distinct id, so dumps from parallel
/// tests never clobber each other.
static NEXT_WORLD_ID: AtomicU64 = AtomicU64::new(1);

/// The transport shared by all ranks of a world.
pub struct Transport {
    /// Mailboxes are behind an `Arc` so wall-stall delivery threads can
    /// outlive the borrow (they capture the vec, not the transport).
    boxes: Arc<Vec<Mailbox>>,
    /// Process-unique world id, baked into flight-recorder dump names.
    id: u64,
    /// Per-rank heartbeat/pending-recv telemetry for the watchdog.
    beats: Beats,
    /// Per-rank crash-surviving event rings.
    #[cfg(not(loom))]
    flight: Vec<Arc<axonn_trace::FlightRecorder>>,
    dead: Arc<Mutex<HashMap<usize, String>>>,
    faults: Mutex<FaultRuntime>,
    /// Virtual seconds of injected link stall awaiting consumption by
    /// each rank's next blocking collective (timed worlds).
    pending_stall: Vec<Mutex<f64>>,
    recv_timeout: Duration,
    /// World-wide slab pool backing pooled payloads.
    pool: BufferPool,
    /// Segmentation policy for ring pipeline chunks.
    pipeline: PipelineConfig,
    /// Per-rank collective-schedule streams for the static verifier
    /// (`axonn-verify`), present when schedule recording is enabled.
    sched: Option<Vec<Mutex<Vec<SchedEvent>>>>,
    /// Set whenever a typed [`CommError`] is produced anywhere in the
    /// world; an errored run's schedule streams are legitimately
    /// asymmetric, so the teardown verifier skips them.
    saw_error: AtomicBool,
}

impl Transport {
    /// A fault-free transport with the default chunk pipeline and no
    /// schedule recording.
    pub fn new(world_size: usize) -> Arc<Self> {
        Self::with_opts(
            world_size,
            FaultConfig::none(),
            PipelineConfig::default(),
            false,
        )
    }

    /// A transport with fault injection, a chunk-pipeline policy and
    /// schedule recording as given (the world builder decides the
    /// recording default from the build profile).
    pub(crate) fn with_opts(
        world_size: usize,
        config: FaultConfig,
        pipeline: PipelineConfig,
        record_schedule: bool,
    ) -> Arc<Self> {
        let dead = Arc::new(Mutex::new(HashMap::new()));
        let id = NEXT_WORLD_ID.fetch_add(1, Ordering::Relaxed);
        Arc::new(Transport {
            boxes: Arc::new(
                (0..world_size)
                    .map(|_| Mailbox::new(dead.clone()))
                    .collect(),
            ),
            id,
            beats: Beats::new(world_size),
            #[cfg(not(loom))]
            flight: (0..world_size)
                .map(|r| Arc::new(axonn_trace::FlightRecorder::new(id, r)))
                .collect(),
            dead,
            faults: Mutex::new(FaultRuntime {
                drops: config.drops,
                stalls: config.stalls,
                wall_stalls: config.wall_stalls,
                link_counts: HashMap::new(),
            }),
            pending_stall: (0..world_size).map(|_| Mutex::new(0.0)).collect(),
            recv_timeout: config.recv_timeout.unwrap_or(DEFAULT_RECV_TIMEOUT),
            pool: BufferPool::new(),
            pipeline,
            sched: record_schedule
                .then(|| (0..world_size).map(|_| Mutex::new(Vec::new())).collect()),
            saw_error: AtomicBool::new(false),
        })
    }

    pub fn world_size(&self) -> usize {
        self.boxes.len()
    }

    /// The world's slab pool.
    pub fn pool(&self) -> &BufferPool {
        &self.pool
    }

    /// The world's chunk-pipeline policy.
    pub fn pipeline(&self) -> &PipelineConfig {
        &self.pipeline
    }

    /// Declare `rank` dead: receivers blocked on it (now or later) get
    /// [`CommError::PeerLost`] once its queued messages are drained,
    /// while traffic between surviving ranks continues. The launcher
    /// marks every panicking rank dead, so its peers cascade out with
    /// typed errors instead of waiting for a rank that will never send.
    pub fn mark_dead(&self, rank: usize, reason: &str) {
        self.dead.lock().insert(rank, reason.to_string());
        self.wake_all();
    }

    /// True if `rank` has been marked dead.
    pub fn is_dead(&self, rank: usize) -> bool {
        self.dead.lock().contains_key(&rank)
    }

    /// Ranks currently marked dead, with reasons.
    pub fn dead_ranks(&self) -> Vec<(usize, String)> {
        let mut v: Vec<(usize, String)> = self
            .dead
            .lock()
            .iter()
            .map(|(r, m)| (*r, m.clone()))
            .collect();
        v.sort_by_key(|(r, _)| *r);
        v
    }

    fn wake_all(&self) {
        for mb in self.boxes.iter() {
            // Touch each mailbox lock so sleeping receivers observe the
            // dead set, then wake them.
            drop(mb.slot.lock());
            mb.signal.notify_all();
        }
    }

    /// Deliver `data` to `dst`'s mailbox under `key`, stamped with the
    /// sender's rank. Never blocks. Subject to injected drop/stall rules.
    /// Accepts anything convertible to a [`Payload`]; forwarding a
    /// received payload is an `Arc` clone, not a copy.
    pub fn send(&self, src: usize, dst: usize, key: MsgKey, data: impl Into<Payload>) {
        let data = data.into();
        debug_assert!(dst < self.boxes.len(), "send to rank {dst} out of world");
        if src < self.beats.size() {
            self.beats.note_send(src, (data.len() * 4) as u64);
        }
        {
            let mut faults = self.faults.lock();
            let count = faults.link_counts.entry((src, dst)).or_insert(0);
            *count += 1;
            let n = *count;
            if let Some(i) = faults
                .drops
                .iter()
                .position(|r| r.src == src && r.dst == dst && r.nth == n)
            {
                faults.drops.remove(i);
                return; // the message is lost on the wire
            }
            if let Some(i) = faults
                .stalls
                .iter()
                .position(|r| r.src == src && r.dst == dst)
            {
                let rule = faults.stalls.remove(i);
                *self.pending_stall[dst].lock() += rule.seconds;
            }
            #[cfg(not(loom))]
            if let Some(i) = faults
                .wall_stalls
                .iter()
                .position(|r| r.src == src && r.dst == dst)
            {
                let rule = faults.wall_stalls.remove(i);
                drop(faults);
                // Hold delivery back in *wall* time: the sender returns
                // immediately (send never blocks) while the receiver
                // stays genuinely parked in `take` until a detached
                // delivery thread wakes up and deposits — what a stalled
                // link looks like to the watchdog.
                let boxes = self.boxes.clone();
                std::thread::Builder::new()
                    .name(format!("axonn-wall-stall-{src}-{dst}"))
                    .spawn(move || {
                        std::thread::sleep(rule.hold);
                        boxes[dst].deposit(src, key, data);
                    })
                    .expect("spawn wall-stall delivery thread");
                return;
            }
        }
        self.boxes[dst].deposit(src, key, data);
    }

    /// Block until a message from `src` with `key` arrives at `dst`.
    ///
    /// # Panics
    /// With a [`CommError::PeerLost`] payload when `src` is dead or the
    /// recv timeout expires; the fallible variant is
    /// [`recv_result`](Self::recv_result).
    pub fn recv(&self, dst: usize, src: usize, key: MsgKey) -> Payload {
        crate::fault::unwrap_comm(self.recv_result(dst, src, key))
    }

    /// Block until a message from `src` with `key` arrives at `dst`, or
    /// until `src` is known dead / the recv timeout expires.
    pub fn recv_result(&self, dst: usize, src: usize, key: MsgKey) -> Result<Payload, CommError> {
        debug_assert!(dst < self.boxes.len(), "recv at rank {dst} out of world");
        self.beats.begin_recv(dst, src, key);
        let out = self.boxes[dst].take(src, key, self.recv_timeout);
        self.beats.end_recv(dst);
        if out.is_err() {
            self.note_error();
            #[cfg(not(loom))]
            if let Err(e) = &out {
                self.flight[dst].record(format!(
                    "recv error src={src} lane={} key={key:#x}: {e}",
                    crate::telemetry::lane_name(key)
                ));
            }
        }
        out
    }

    /// Consume the virtual stall seconds accumulated against `rank` by
    /// injected link stalls (returns 0.0 when none are pending).
    pub fn take_stall(&self, rank: usize) -> f64 {
        std::mem::take(&mut *self.pending_stall[rank].lock())
    }

    /// Process-unique id of this world (flight dumps are named by it).
    pub fn world_id(&self) -> u64 {
        self.id
    }

    /// The per-rank heartbeat/pending-recv table (observer side).
    pub fn beats(&self) -> &Beats {
        &self.beats
    }

    /// Observer-side health snapshot of every rank.
    pub fn telemetry(&self) -> Vec<RankTelemetry> {
        self.beats.snapshot_all()
    }

    /// The flight recorder for `rank`.
    #[cfg(not(loom))]
    pub fn flight(&self, rank: usize) -> &Arc<axonn_trace::FlightRecorder> {
        &self.flight[rank]
    }

    /// Dump `rank`'s flight recorder to disk, returning the path.
    #[cfg(not(loom))]
    pub fn dump_flight(&self, rank: usize, reason: &str) -> std::io::Result<std::path::PathBuf> {
        self.flight[rank].dump(reason)
    }

    /// Dump every rank's flight recorder (best effort — ranks whose
    /// dump fails are skipped), returning the written paths.
    #[cfg(not(loom))]
    pub fn dump_flight_all(&self, reason: &str) -> Vec<std::path::PathBuf> {
        self.flight
            .iter()
            .filter_map(|fr| fr.dump(reason).ok())
            .collect()
    }

    /// True when this world records per-rank collective schedules.
    pub fn recording_schedule(&self) -> bool {
        self.sched.is_some()
    }

    /// Append a schedule event to `rank`'s stream (no-op when recording
    /// is off).
    pub(crate) fn record_event(&self, rank: usize, ev: SchedEvent) {
        if let Some(logs) = &self.sched {
            logs[rank].lock().push(ev);
        }
    }

    /// Snapshot of every rank's recorded schedule stream, when recording
    /// is enabled.
    pub fn schedule_streams(&self) -> Option<Vec<Vec<SchedEvent>>> {
        self.sched
            .as_ref()
            .map(|logs| logs.iter().map(|l| l.lock().clone()).collect())
    }

    /// Note that a typed communication error was produced somewhere in
    /// this world (see [`schedule_clean`](Self::schedule_clean)).
    pub(crate) fn note_error(&self) {
        self.saw_error.store(true, Ordering::Relaxed);
    }

    /// True when the recorded schedule streams reflect a fully successful
    /// run: no dead ranks, no typed communication errors. Only
    /// such streams are required to satisfy the SPMD matching property —
    /// fault-injected or failed runs legally diverge mid-collective.
    pub fn schedule_clean(&self) -> bool {
        self.dead.lock().is_empty() && !self.saw_error.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{DropRule, StallRule};
    use std::thread;

    fn faulty(world_size: usize, config: FaultConfig) -> Arc<Transport> {
        Transport::with_opts(world_size, config, PipelineConfig::default(), false)
    }

    #[test]
    fn send_then_recv_same_thread() {
        let t = Transport::new(2);
        t.send(0, 1, 7, vec![1.0, 2.0]);
        assert_eq!(t.recv(1, 0, 7), vec![1.0, 2.0]);
    }

    #[test]
    fn recv_blocks_until_send() {
        let t = Transport::new(2);
        let t2 = t.clone();
        let h = thread::spawn(move || t2.recv(1, 0, 9));
        thread::sleep(std::time::Duration::from_millis(20));
        t.send(0, 1, 9, vec![3.5]);
        assert_eq!(h.join().unwrap(), vec![3.5]);
    }

    #[test]
    fn keys_are_independent() {
        let t = Transport::new(2);
        t.send(0, 1, 1, vec![1.0]);
        t.send(0, 1, 2, vec![2.0]);
        // Receive out of send order: keys disambiguate.
        assert_eq!(t.recv(1, 0, 2), vec![2.0]);
        assert_eq!(t.recv(1, 0, 1), vec![1.0]);
    }

    #[test]
    fn same_key_is_fifo() {
        let t = Transport::new(2);
        t.send(0, 1, 5, vec![1.0]);
        t.send(0, 1, 5, vec![2.0]);
        assert_eq!(t.recv(1, 0, 5), vec![1.0]);
        assert_eq!(t.recv(1, 0, 5), vec![2.0]);
    }

    #[test]
    fn senders_are_distinguished() {
        let t = Transport::new(3);
        t.send(1, 2, 5, vec![1.0]);
        t.send(0, 2, 5, vec![2.0]);
        assert_eq!(t.recv(2, 0, 5), vec![2.0]);
        assert_eq!(t.recv(2, 1, 5), vec![1.0]);
    }

    #[test]
    fn mark_dead_wakes_blocked_receiver_with_peer_lost() {
        let t = Transport::new(2);
        let t2 = t.clone();
        let h = thread::spawn(move || t2.recv_result(1, 0, 9));
        thread::sleep(std::time::Duration::from_millis(20));
        t.mark_dead(0, "injected kill");
        let err = h.join().unwrap().expect_err("recv from dead peer");
        assert_eq!(
            err,
            CommError::PeerLost {
                peer: 0,
                detail: "injected kill".into()
            }
        );
        assert!(t.is_dead(0));
        assert_eq!(t.dead_ranks(), vec![(0, "injected kill".to_string())]);
        // Survivor-to-survivor traffic is unaffected.
        t.send(1, 1, 3, vec![4.0]);
        assert_eq!(t.recv(1, 1, 3), vec![4.0]);
    }

    #[test]
    fn messages_sent_before_death_remain_receivable() {
        let t = Transport::new(2);
        t.send(0, 1, 5, vec![1.0]);
        t.mark_dead(0, "late");
        assert_eq!(t.recv_result(1, 0, 5).unwrap(), vec![1.0]);
        assert!(matches!(
            t.recv_result(1, 0, 5),
            Err(CommError::PeerLost { peer: 0, .. })
        ));
    }

    #[test]
    fn recv_times_out_as_peer_lost() {
        let t = faulty(
            2,
            FaultConfig::none().with_recv_timeout(Duration::from_millis(30)),
        );
        let start = Instant::now();
        let err = t.recv_result(1, 0, 9).expect_err("must time out");
        assert!(start.elapsed() >= Duration::from_millis(25));
        match err {
            CommError::PeerLost { peer, detail } => {
                assert_eq!(peer, 0);
                assert!(detail.contains("timed out"), "detail: {detail}");
            }
            other => panic!("expected PeerLost, got {other:?}"),
        }
    }

    #[test]
    fn injected_drop_loses_exactly_one_message() {
        let t = faulty(
            2,
            FaultConfig::none()
                .with_drop(DropRule {
                    src: 0,
                    dst: 1,
                    nth: 2,
                })
                .with_recv_timeout(Duration::from_millis(30)),
        );
        t.send(0, 1, 1, vec![1.0]); // 1st: delivered
        t.send(0, 1, 2, vec![2.0]); // 2nd: dropped
        t.send(0, 1, 3, vec![3.0]); // 3rd: delivered
        assert_eq!(t.recv(1, 0, 1), vec![1.0]);
        assert_eq!(t.recv(1, 0, 3), vec![3.0]);
        assert!(matches!(
            t.recv_result(1, 0, 2),
            Err(CommError::PeerLost { peer: 0, .. })
        ));
    }

    #[test]
    fn injected_stall_accrues_to_receiver() {
        let t = faulty(
            2,
            FaultConfig::none().with_stall(StallRule {
                src: 0,
                dst: 1,
                seconds: 2.5,
            }),
        );
        assert_eq!(t.take_stall(1), 0.0);
        t.send(0, 1, 1, vec![1.0]);
        t.send(0, 1, 2, vec![2.0]); // rule already consumed
        assert_eq!(t.take_stall(1), 2.5);
        assert_eq!(t.take_stall(1), 0.0);
        assert_eq!(t.take_stall(0), 0.0);
    }

    #[test]
    fn forwarded_payload_shares_storage() {
        // A ring rank forwarding a received chunk to its successor must
        // not copy: the same slab sits in both mailboxes.
        let t = Transport::new(3);
        let (p, _) = crate::pool::Payload::copy_pooled(t.pool(), &[1.0, 2.0]);
        t.send(0, 1, 7, p);
        let got = t.recv(1, 0, 7);
        let ptr = got.as_slice().as_ptr();
        t.send(1, 2, 7, got.clone());
        let fwd = t.recv(2, 1, 7);
        assert_eq!(fwd.as_slice().as_ptr(), ptr, "forwarding must be zero-copy");
        assert_eq!(fwd, vec![1.0, 2.0]);
    }

    #[test]
    fn many_threads_stress() {
        let n = 8;
        let t = Transport::new(n);
        let handles: Vec<_> = (0..n)
            .map(|r| {
                let t = t.clone();
                thread::spawn(move || {
                    // Everyone sends its rank to everyone, then receives all.
                    for dst in 0..n {
                        t.send(r, dst, 100, vec![r as f32]);
                    }
                    let mut sum = 0.0;
                    for src in 0..n {
                        sum += t.recv(r, src, 100)[0];
                    }
                    sum
                })
            })
            .collect();
        let expect = (0..n).map(|x| x as f32).sum::<f32>();
        for h in handles {
            assert_eq!(h.join().unwrap(), expect);
        }
    }
}
