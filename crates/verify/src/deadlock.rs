//! Deadlock check: a conservative fixpoint simulation of the schedule
//! under the *portable* blocking contract — every blocking collective
//! may synchronise all group members (MPI allows any collective to act
//! as a barrier; NCCL serialises a rank's ops on its stream). A
//! schedule certified here completes on any conforming transport; one
//! rejected here relies on buffering or eager completion that the
//! contract does not promise.
//!
//! The model per rank follows the rank's comm-stream [`Placement`]
//! (`axonn_collectives::nonblocking` picks one per rank from its core
//! share, so a schedule must complete under both):
//! * a **main context** walking the event stream: a blocking `Issue`
//!   arrives at its collective instance and blocks until the instance
//!   completes; a `Wait` blocks until its instance completes; `Marker`s
//!   are skipped. An async `Issue` is appended to the rank's worker
//!   queue and the main context moves on ([`Placement::Worker`]), or is
//!   a blocking arrival at the issue point ([`Placement::Inline`]);
//! * a **worker context** executing async ops strictly in issue order:
//!   the front job arrives at its instance, blocks until completion,
//!   then the next job starts. Under the inline placement its queue
//!   stays empty.
//!
//! The worker model is the more concurrent one: the inline model
//! additionally rejects an async issue that meets a blocking collective
//! on another communicator in a different order on another rank.
//!
//! A collective **instance** is keyed `(group_key, seq)` and completes
//! once every member rank has arrived (from either context). The
//! simulation advances all ranks until quiescence; anything unfinished
//! at a no-progress fixpoint is reported as a deadlock with the stuck
//! frontier — this is what catches circular blocking waits across
//! lanes, e.g. two ranks issuing the same two collectives in opposite
//! orders on different communicators.

use crate::diag::Diagnostic;
use axonn_collectives::{SchedEvent, SchedOp};
use std::collections::{HashMap, HashSet, VecDeque};

type Key = (u64, u64); // (group_key, seq)

/// Where a rank runs its asynchronous collectives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// On a comm-worker thread, concurrently with the issuing context.
    Worker,
    /// On the issuing thread, at issue.
    Inline,
}

impl Placement {
    pub fn label(self) -> &'static str {
        match self {
            Placement::Worker => "async collectives on a comm worker",
            Placement::Inline => "async collectives inline at issue",
        }
    }
}

struct Instance {
    members: Vec<usize>,
    arrived: HashSet<usize>,
    complete: bool,
}

struct RankState<'a> {
    events: &'a [SchedEvent],
    pc: usize,
    /// Main context blocked on this instance (with a description).
    blocked: Option<(Key, String)>,
    /// Async jobs handed to the comm worker, in issue order: instance
    /// key, group members, and a description for the stuck report.
    worker: VecDeque<(Key, Vec<usize>, String)>,
}

impl RankState<'_> {
    fn finished(&self) -> bool {
        self.pc == self.events.len() && self.blocked.is_none() && self.worker.is_empty()
    }
}

fn key_of(op: &SchedOp) -> Key {
    (op.group_key, op.seq)
}

fn arrive(
    instances: &mut HashMap<Key, Instance>,
    key: Key,
    members: &[usize],
    rank: usize,
) -> bool {
    let inst = instances.entry(key).or_insert_with(|| Instance {
        members: members.to_vec(),
        arrived: HashSet::new(),
        complete: false,
    });
    inst.arrived.insert(rank)
}

/// Run the deadlock simulation over all ranks' streams, every rank
/// running its async collectives per `placement`.
pub fn check(streams: &[Vec<SchedEvent>], placement: Placement) -> Vec<Diagnostic> {
    let mut ranks: Vec<RankState> = streams
        .iter()
        .map(|events| RankState {
            events,
            pc: 0,
            blocked: None,
            worker: VecDeque::new(),
        })
        .collect();
    let mut instances: HashMap<Key, Instance> = HashMap::new();

    loop {
        let mut progress = false;

        for (rank, state) in ranks.iter_mut().enumerate() {
            // Worker context: pop the front job once its instance
            // completes (the next job's arrival counts on the sweep
            // below).
            if let Some((key, _, _)) = state.worker.front() {
                if instances.get(key).is_some_and(|i| i.complete) {
                    state.worker.pop_front();
                    progress = true;
                }
            }

            // Main context: unblock, then run to the next blocking point.
            if let Some((key, _)) = &state.blocked {
                if instances.get(key).is_some_and(|i| i.complete) {
                    state.blocked = None;
                    progress = true;
                }
            }
            if state.blocked.is_some() {
                continue;
            }
            while state.pc < state.events.len() {
                match &state.events[state.pc] {
                    SchedEvent::Marker { .. }
                    | SchedEvent::BufWrite { .. }
                    | SchedEvent::SlabRecycle { .. } => {
                        // Annotations never block; only the hb/slab
                        // analyses give them meaning.
                        state.pc += 1;
                        progress = true;
                    }
                    SchedEvent::Issue(op) if op.blocking || placement == Placement::Inline => {
                        let key = key_of(op);
                        arrive(&mut instances, key, &op.ranks, rank);
                        state.blocked = Some((key, format!("blocked in {op}")));
                        state.pc += 1;
                        progress = true;
                        break;
                    }
                    SchedEvent::Issue(op) => {
                        // Arrival happens when the worker *reaches* the
                        // job (front of queue), not at issue time — the
                        // sweep below registers it.
                        let key = key_of(op);
                        let desc = format!("comm worker executing {op}");
                        state.worker.push_back((key, op.ranks.clone(), desc));
                        state.pc += 1;
                        progress = true;
                    }
                    SchedEvent::Wait { group_key, seq } => {
                        let key = (*group_key, *seq);
                        if instances.get(&key).is_some_and(|i| i.complete) {
                            state.pc += 1;
                            progress = true;
                        } else {
                            state.blocked = Some((
                                key,
                                format!("waiting on (group {group_key:#x}, seq {seq})"),
                            ));
                            state.pc += 1;
                            progress = true;
                            break;
                        }
                    }
                }
            }
        }

        // Front-of-queue worker arrivals: the comm worker is executing
        // exactly its front job, so that job (and only it) counts as
        // arrived at its instance.
        for (rank, state) in ranks.iter().enumerate() {
            if let Some((key, members, _)) = state.worker.front() {
                if arrive(&mut instances, *key, members, rank) {
                    progress = true;
                }
            }
        }

        // Complete instances whose arrivals cover all members.
        for inst in instances.values_mut() {
            if !inst.complete && inst.members.iter().all(|m| inst.arrived.contains(m)) {
                inst.complete = true;
                progress = true;
            }
        }

        if ranks.iter().all(|r| r.finished()) {
            return Vec::new();
        }
        if !progress {
            let stuck: Vec<(usize, String)> = ranks
                .iter()
                .enumerate()
                .filter(|(_, r)| !r.finished())
                .map(|(rank, r)| {
                    let what = r
                        .blocked
                        .as_ref()
                        .map(|(_, d)| d.clone())
                        .or_else(|| r.worker.front().map(|(_, _, d)| d.clone()))
                        .unwrap_or_else(|| "stream incomplete".to_string());
                    (rank, what)
                })
                .collect();
            return vec![Diagnostic::Deadlock { placement, stuck }];
        }
    }
}
