//! Loom model-checking targets for the transport's concurrency
//! primitives. Build and run with `RUSTFLAGS="--cfg loom"`:
//!
//! ```text
//! RUSTFLAGS="--cfg loom" cargo test -p axonn-verify --test loom
//! ```
//!
//! Under `cfg(loom)` the vendored `parking_lot` delegates its mutexes
//! and condvars to the vendored `loom` model checker, which explores
//! every bounded thread interleaving via DFS with a deterministic
//! cooperative scheduler. A test passing here means the property holds
//! on *all* interleavings, not just the ones the OS happened to pick.
#![cfg(loom)]

use axonn_collectives::mailbox::Transport;
use axonn_collectives::{BufferPool, CommError, Payload};
use loom::thread;
use std::sync::Arc;

/// Message key in the shape the transport expects; the exact value is
/// irrelevant to the mailbox protocol.
const KEY: u128 = 42;

/// No lost wakeup in the mailbox rendezvous: a receiver blocked in
/// `recv` is always woken by a concurrent `send`, in every
/// interleaving. A lost wakeup would leave the receiver parked forever,
/// which loom reports as a deadlock and fails the test.
#[test]
fn mailbox_send_recv_no_lost_wakeup() {
    loom::model(|| {
        let transport = Transport::new(2);
        let t = Arc::clone(&transport);
        let sender = thread::spawn(move || {
            t.send(1, 0, KEY, vec![7.0f32]);
        });
        let got = transport.recv(0, 1, KEY);
        assert_eq!(got.as_slice(), &[7.0]);
        sender.join().unwrap();
    });
}

/// A dead peer wakes its receivers: a receiver parked on rank 1 wakes
/// with `PeerLost` when `mark_dead(1, ..)` runs concurrently, in every
/// interleaving, and a message rank 1 deposited before dying is
/// delivered before the loss is reported. A lost wakeup parks the
/// receiver forever, which loom reports as a deadlock.
#[test]
fn mark_dead_wakes_receiver_after_earlier_sends() {
    loom::model(|| {
        let transport = Transport::new(2);
        let t = Arc::clone(&transport);
        let dying = thread::spawn(move || {
            t.send(1, 0, KEY, vec![7.0f32]);
            t.mark_dead(1, "rank 1 panicked");
        });
        let first = transport.recv_result(0, 1, KEY).expect("sent before death");
        assert_eq!(first.as_slice(), &[7.0]);
        match transport.recv_result(0, 1, KEY) {
            Err(CommError::PeerLost { peer: 1, .. }) => {}
            other => panic!("expected rank 1 lost, got {other:?}"),
        }
        dying.join().unwrap();
    });
}

/// Distinct keys deliver independently: a deposit on one key must not
/// satisfy (or permanently absorb the wakeup of) a receiver parked on
/// another key — the receiver re-checks its own queue and parks again
/// until its key arrives.
#[test]
fn mailbox_distinct_keys_deliver_independently() {
    loom::model(|| {
        let transport = Transport::new(2);
        let t = Arc::clone(&transport);
        let sender = thread::spawn(move || {
            t.send(1, 0, KEY + 1, vec![2.0f32]);
            t.send(1, 0, KEY, vec![1.0f32]);
        });
        assert_eq!(transport.recv(0, 1, KEY).as_slice(), &[1.0]);
        assert_eq!(transport.recv(0, 1, KEY + 1).as_slice(), &[2.0]);
        sender.join().unwrap();
    });
}

/// No double-recycle: when two clones of one pooled payload drop
/// concurrently, the slab returns to the pool exactly once — the next
/// two checkouts of the class see one hit, then one miss.
#[test]
fn pool_concurrent_drop_recycles_once() {
    loom::model(|| {
        let pool = BufferPool::new();
        let (payload, hit) = Payload::copy_pooled(&pool, &[1.0, 2.0, 3.0]);
        assert!(!hit, "fresh pool has nothing shelved");
        let clone = payload.clone();
        let t = thread::spawn(move || drop(clone));
        drop(payload);
        t.join().unwrap();
        // Exactly one shelved slab: hit, then miss.
        let (_p1, hit1) = Payload::copy_pooled(&pool, &[0.0]);
        let (_p2, hit2) = Payload::copy_pooled(&pool, &[0.0]);
        assert!(hit1, "first checkout must reuse the recycled slab");
        assert!(!hit2, "slab must not have been recycled twice");
    });
}

/// No use-after-drain: `into_vec` racing a concurrent clone-drop never
/// observes drained storage — whichever reference is last recycles (or
/// copies), and the data read is always intact.
#[test]
fn pool_into_vec_races_clone_drop_safely() {
    loom::model(|| {
        let pool = BufferPool::new();
        let (payload, _) = Payload::copy_pooled(&pool, &[4.0, 5.0]);
        let clone = payload.clone();
        let t = thread::spawn(move || drop(clone));
        let data = payload.into_vec();
        assert_eq!(data, vec![4.0, 5.0]);
        t.join().unwrap();
    });
}

/// The nonblocking worker's issue/wait handoff, modelled over the
/// mailbox: the main context "issues" by depositing the payload for the
/// worker, the worker executes and deposits the result, and the main
/// context "waits" by receiving it. The two-hop rendezvous must deliver
/// in every interleaving — a lost wakeup on either hop parks a thread
/// forever and loom reports the deadlock.
#[test]
fn issue_wait_handoff_delivers_in_all_interleavings() {
    loom::model(|| {
        let transport = Transport::new(2);
        let t = Arc::clone(&transport);
        let worker = thread::spawn(move || {
            // Worker context: pick up the issued job, execute, hand the
            // result back on the completion key.
            let job = t.recv(1, 0, KEY);
            let done: Vec<f32> = job.as_slice().iter().map(|v| v * 2.0).collect();
            t.send(1, 0, KEY + 1, done);
        });
        // Main context: issue, then wait.
        transport.send(0, 1, KEY, vec![1.0f32, 2.0]);
        let got = transport.recv(0, 1, KEY + 1);
        assert_eq!(got.as_slice(), &[2.0, 4.0]);
        worker.join().unwrap();
    });
}

/// The `OpScope` RAII marker substrate: a rank entering and leaving a
/// collective (`set_op`/`clear_op`, what `Comm::op_scope` and its Drop
/// impl call) racing a watchdog snapshot. The observer must only ever
/// see a coherent marker — the named op or none — and once the guard is
/// gone the marker is always cleared, in every interleaving.
#[test]
fn op_scope_markers_are_coherent_under_snapshot() {
    use axonn_collectives::Beats;
    loom::model(|| {
        let beats = Beats::new(1);
        let b = beats.clone();
        let rank = thread::spawn(move || {
            b.set_op(0, "all_reduce"); // OpScope creation
            b.note_collective(0); // work inside the scope
            b.clear_op(0); // OpScope drop
        });
        let seen = beats.snapshot(0).current_op;
        assert!(
            seen.is_none() || seen == Some("all_reduce"),
            "torn op marker: {seen:?}"
        );
        rank.join().unwrap();
        let final_snap = beats.snapshot(0);
        assert_eq!(final_snap.current_op, None, "guard failed to clear");
        assert_eq!(final_snap.collectives, 1);
    });
}

/// Dropping the pool while a payload is still in flight is safe: the
/// slab's weak pool reference simply fails to upgrade and the buffer is
/// freed instead of shelved — no panic, no dangling shelf.
#[test]
fn pool_dropped_before_payload_is_safe() {
    loom::model(|| {
        let pool = BufferPool::new();
        let (payload, _) = Payload::copy_pooled(&pool, &[9.0]);
        let t = thread::spawn(move || {
            assert_eq!(payload.as_slice(), &[9.0]);
            drop(payload);
        });
        drop(pool);
        t.join().unwrap();
    });
}
