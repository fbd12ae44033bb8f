//! Seeded schedule defects for negative-path testing: corrupt one
//! rank's extracted stream the way a real SPMD bug would, then assert
//! the verifier rejects it with a diagnostic naming the divergence.

use axonn_collectives::SchedEvent;

/// The defect families the verifier must catch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DefectKind {
    /// Operations swapped on one rank — the classic mismatched-order
    /// bug. Prefers swapping two differing issues on the *same*
    /// communicator (caught by the matching checker); otherwise swaps a
    /// wait before its own issue (caught by the lints). Swaps across
    /// independent communicators are never injected here: the transport
    /// keys every message by `(group, seq, lane)`, so such reorders are
    /// harmless to a comm worker. An inline comm stream is not immune —
    /// see [`IssuePastBlocking`](Self::IssuePastBlocking).
    Reorder,
    /// A wait dropped from one rank: the handle (and any pooled slab it
    /// holds) leaks.
    MissingWait,
    /// One rank contributes a different element count to a collective.
    CountMismatch,
    /// A buffer write inserted right after an async issue on the same
    /// buffer — the write lands inside the collective's overlap window
    /// (caught by the happens-before race detector).
    OverlapRace,
    /// A later async op's slab id rewritten to alias an earlier op's
    /// slab (caught by the slab-lifetime analysis).
    SlabReuse,
    /// An explicit slab recycle inserted right after an async issue,
    /// before the op releases the slab (caught by the slab-lifetime
    /// analysis).
    EarlyRecycle,
    /// An async issue moved past a later blocking collective on another
    /// of the rank's communicators that shares a peer with it. A comm
    /// worker still arrives while the main context blocks; an inline
    /// comm stream blocks at the issue, so the peer, which issued in the
    /// original order, waits for it while this rank waits for the peer
    /// (caught by the inline deadlock model). When the op's wait precedes
    /// that collective, the wait moves with the issue, and the peer's
    /// earlier wait deadlocks the worker model too.
    IssuePastBlocking,
}

/// The ISSUE-facing alias: injected defect kinds.
pub use DefectKind as InjectKind;

impl DefectKind {
    pub fn label(&self) -> &'static str {
        match self {
            DefectKind::Reorder => "reorder",
            DefectKind::MissingWait => "missing-wait",
            DefectKind::CountMismatch => "count-mismatch",
            DefectKind::OverlapRace => "overlap-race",
            DefectKind::SlabReuse => "slab-reuse",
            DefectKind::EarlyRecycle => "early-recycle",
            DefectKind::IssuePastBlocking => "issue-past-blocking",
        }
    }

    /// Every defect family, in label order (CLI help, exhaustive tests).
    pub const ALL: [DefectKind; 7] = [
        DefectKind::Reorder,
        DefectKind::MissingWait,
        DefectKind::CountMismatch,
        DefectKind::OverlapRace,
        DefectKind::SlabReuse,
        DefectKind::EarlyRecycle,
        DefectKind::IssuePastBlocking,
    ];

    /// Parse a CLI spelling (`reorder`, `missing-wait`, `count-mismatch`,
    /// `overlap-race`, `slab-reuse`, `early-recycle`,
    /// `issue-past-blocking`).
    pub fn parse(s: &str) -> Option<DefectKind> {
        DefectKind::ALL.into_iter().find(|k| k.label() == s)
    }
}

fn differs(a: &SchedEvent, b: &SchedEvent) -> bool {
    match (a, b) {
        (SchedEvent::Issue(x), SchedEvent::Issue(y)) => {
            x.kind != y.kind
                || x.ranks != y.ranks
                || x.elems != y.elems
                || x.root != y.root
                || x.reduce != y.reduce
        }
        _ => false,
    }
}

/// Corrupt `rank`'s stream in place. Returns `false` when the stream
/// has no site the defect applies to (e.g. no waits to drop).
pub fn inject(streams: &mut [Vec<SchedEvent>], rank: usize, defect: DefectKind) -> bool {
    let Some(stream) = streams.get_mut(rank) else {
        return false;
    };
    match defect {
        DefectKind::Reorder => {
            let issues: Vec<usize> = stream
                .iter()
                .enumerate()
                .filter_map(|(i, e)| matches!(e, SchedEvent::Issue(_)).then_some(i))
                .collect();
            // Prefer swapping differing ops on the *same* communicator
            // (first-divergent-op matching diagnostic); otherwise swap
            // a wait ahead of its own issue (wait-before-issue lint).
            let same_group = |a: usize, b: usize| match (&stream[a], &stream[b]) {
                (SchedEvent::Issue(x), SchedEvent::Issue(y)) => x.group_key == y.group_key,
                _ => false,
            };
            let mut pick = None;
            'outer: for (n, &p) in issues.iter().enumerate() {
                for &q in &issues[n + 1..] {
                    if differs(&stream[p], &stream[q]) && same_group(p, q) {
                        pick = Some((p, q));
                        break 'outer;
                    }
                }
            }
            if pick.is_none() {
                'outer: for (w, ev) in stream.iter().enumerate() {
                    let SchedEvent::Wait { group_key, seq } = ev else {
                        continue;
                    };
                    for (i, prior) in stream.iter().enumerate().take(w) {
                        if let SchedEvent::Issue(op) = prior {
                            if !op.blocking && op.group_key == *group_key && op.seq == *seq {
                                pick = Some((i, w));
                                break 'outer;
                            }
                        }
                    }
                }
            }
            match pick {
                Some((p, q)) => {
                    stream.swap(p, q);
                    true
                }
                None => false,
            }
        }
        DefectKind::MissingWait => {
            let pos = stream
                .iter()
                .position(|e| matches!(e, SchedEvent::Wait { .. }));
            match pos {
                Some(i) => {
                    stream.remove(i);
                    true
                }
                None => false,
            }
        }
        DefectKind::CountMismatch => {
            for ev in stream.iter_mut() {
                if let SchedEvent::Issue(op) = ev {
                    op.elems += 1;
                    return true;
                }
            }
            false
        }
        DefectKind::OverlapRace => {
            // A write to the op's own buffer immediately after issue:
            // no wait orders it after the window, so it is concurrent
            // with the in-flight collective.
            let site = stream.iter().enumerate().find_map(|(i, e)| match e {
                SchedEvent::Issue(op) if !op.blocking => op.buf.map(|b| (i, b)),
                _ => None,
            });
            match site {
                Some((i, buf)) => {
                    stream.insert(
                        i + 1,
                        SchedEvent::BufWrite {
                            buf,
                            label: "injected-write",
                        },
                    );
                    true
                }
                None => false,
            }
        }
        DefectKind::EarlyRecycle => {
            let site = stream.iter().enumerate().find_map(|(i, e)| match e {
                SchedEvent::Issue(op) if !op.blocking => op.slab.map(|s| (i, s)),
                _ => None,
            });
            match site {
                Some((i, slab)) => {
                    stream.insert(i + 1, SchedEvent::SlabRecycle { slab });
                    true
                }
                None => false,
            }
        }
        DefectKind::SlabReuse => {
            // Alias the second pooled async issue's slab to the first's.
            let mut first_slab = None;
            for ev in stream.iter_mut() {
                let SchedEvent::Issue(op) = ev else { continue };
                if op.blocking || op.slab.is_none() {
                    continue;
                }
                match first_slab {
                    None => first_slab = op.slab,
                    Some(slab) => {
                        op.slab = Some(slab);
                        return true;
                    }
                }
            }
            false
        }
        DefectKind::IssuePastBlocking => match issue_past_blocking_site(stream, rank) {
            Some((issue, wait, blocking)) => {
                // Re-insert right after the blocking collective, the
                // wait (when it moves too) right after its issue.
                let moved: Vec<SchedEvent> = wait
                    .into_iter()
                    .chain([issue])
                    .map(|i| stream.remove(i))
                    .collect();
                let at = blocking + 1 - moved.len();
                stream.splice(at..at, moved.into_iter().rev());
                true
            }
            None => false,
        },
    }
}

/// The first async issue with a later blocking collective on another
/// communicator sharing a peer besides `rank`, and no op on the issue's
/// own communicator in between (so its per-communicator order holds).
/// Returns the issue's index, its wait's index when that precedes the
/// blocking collective (it must move too), and the collective's index.
fn issue_past_blocking_site(
    stream: &[SchedEvent],
    rank: usize,
) -> Option<(usize, Option<usize>, usize)> {
    stream.iter().enumerate().find_map(|(i, e)| {
        let SchedEvent::Issue(a) = e else { return None };
        if a.blocking {
            return None;
        }
        let mut wait = None;
        for (j, later) in stream.iter().enumerate().skip(i + 1) {
            match later {
                SchedEvent::Wait { group_key, seq }
                    if (*group_key, *seq) == (a.group_key, a.seq) =>
                {
                    wait = Some(j);
                }
                SchedEvent::Issue(b) if b.group_key == a.group_key => return None,
                SchedEvent::Issue(b)
                    if b.blocking && b.ranks.iter().any(|r| *r != rank && a.ranks.contains(r)) =>
                {
                    return Some((i, wait, j));
                }
                _ => {}
            }
        }
        None
    })
}
