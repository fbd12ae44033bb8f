//! Slab-lifetime analysis over the happens-before facts of
//! [`crate::hb`]: proves every pooled `Payload` slab is recycled only
//! after all readers' clocks pass its last use.
//!
//! Slab identity (`SchedOp::slab`, the id space of
//! `Payload::buffer_id`) is minted per checkout and never reused, so
//! the clean shape is simple: each slab id appears on exactly one async
//! op, and its implicit recycle (the payload drop inside the comm
//! worker) is ordered after that op's end by construction. Three
//! deviations are defects:
//!
//! * **use-after-recycle / cross-lane aliasing** ([`Diagnostic::SlabReuse`]):
//!   one slab id on two async ops. If their windows are ordered, the
//!   second op is reading storage whose identity was already retired
//!   (use-after-recycle); if the windows are concurrent, two in-flight
//!   collectives on different lanes alias the same slab.
//! * **early recycle** ([`Diagnostic::EarlyRecycle`]): an explicit
//!   [`SchedEvent::SlabRecycle`](axonn_collectives::SchedEvent::SlabRecycle)
//!   not ordered after the end of every window reading the slab — the
//!   pool could re-issue storage a pending collective still reads.
//! * **double recycle** ([`Diagnostic::DoubleRecycle`]): two recycles
//!   of one slab id — the free-list would hold the buffer twice and
//!   serve it to two owners.

use crate::diag::Diagnostic;
use crate::hb::HbAnalysis;
use std::collections::BTreeMap;

/// Run the slab-lifetime checks over a completed happens-before
/// analysis.
pub fn check(analysis: &HbAnalysis) -> Vec<Diagnostic> {
    let mut diags = Vec::new();

    // Slab id → windows using it, in (rank, issue) order. BTreeMap for
    // deterministic diagnostic order.
    let mut by_slab: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    for (i, win) in analysis.windows.iter().enumerate() {
        if let Some(slab) = win.slab {
            by_slab.entry(slab).or_default().push(i);
        }
    }
    for (slab, wins) in &by_slab {
        if wins.len() < 2 {
            continue;
        }
        let mut ordered_wins = wins.clone();
        ordered_wins.sort_by_key(|&i| {
            let w = &analysis.windows[i];
            (w.rank, w.issue_index)
        });
        // Report the first aliasing pair; further pairs on the same slab
        // are the same root cause.
        let a = &analysis.windows[ordered_wins[0]];
        let b = &analysis.windows[ordered_wins[1]];
        let concurrent = match (&a.end, &b.end) {
            (Some(a_end), Some(b_end)) => !a_end.leq(&b.issue) && !b_end.leq(&a.issue),
            _ => true,
        };
        diags.push(Diagnostic::SlabReuse {
            rank: b.rank,
            slab: *slab,
            first_op: a.op_index,
            first_lane: a.lane,
            first_issue: a.issue_index,
            second_op: b.op_index,
            second_lane: b.lane,
            second_issue: b.issue_index,
            concurrent,
        });
    }

    // Explicit recycles: the first must be ordered after every reader's
    // end; any further recycle of the same slab is a double recycle.
    let mut first_recycle: BTreeMap<u64, usize> = BTreeMap::new();
    for (i, rec) in analysis.recycles.iter().enumerate() {
        match first_recycle.get(&rec.slab) {
            Some(&prev) => {
                diags.push(Diagnostic::DoubleRecycle {
                    rank: rec.rank,
                    slab: rec.slab,
                    first_index: analysis.recycles[prev].event_index,
                    second_index: rec.event_index,
                });
            }
            None => {
                first_recycle.insert(rec.slab, i);
                for win in &analysis.windows {
                    if win.slab != Some(rec.slab) {
                        continue;
                    }
                    let released = win.end.as_ref().is_some_and(|end| end.leq(&rec.clock));
                    if !released {
                        diags.push(Diagnostic::EarlyRecycle {
                            rank: rec.rank,
                            recycle_index: rec.event_index,
                            slab: rec.slab,
                            op: win.op.clone(),
                            op_index: win.op_index,
                            lane: win.lane,
                            issue_index: win.issue_index,
                        });
                    }
                }
            }
        }
    }
    diags
}
