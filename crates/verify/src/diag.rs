//! Verifier diagnostics: typed findings with stable, precise rendering.
//!
//! Every diagnostic names the rank(s) involved and the event or op index
//! where the problem was observed, so a failing `axonnctl verify` run (or
//! the teardown check in `axonn_exec::run_spmd`) points at the exact
//! first divergence rather than a generic "schedules differ".

use crate::deadlock::Placement;
use std::fmt;

/// One verifier finding. Severity is uniform: any diagnostic means the
/// schedule violates the SPMD collective contract (or leaks resources)
/// and the configuration must not be launched.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Diagnostic {
    /// Two ranks disagree on the `index`-th collective issued on a
    /// communicator group: different kind, member list, element count,
    /// root, or reduction — or one rank stopped issuing early.
    /// `left`/`right` are the rendered ops (`None` = stream ended).
    Mismatch {
        group_key: u64,
        index: usize,
        rank_a: usize,
        rank_b: usize,
        left: Option<String>,
        right: Option<String>,
    },
    /// A rank waited on an async handle before (or without ever)
    /// issuing the matching collective.
    WaitBeforeIssue {
        rank: usize,
        event_index: usize,
        group_key: u64,
        seq: u64,
    },
    /// A rank waited twice on the same `(group, seq)` instance.
    DoubleWait {
        rank: usize,
        event_index: usize,
        group_key: u64,
        seq: u64,
    },
    /// An async collective was issued but its handle never waited by
    /// schedule end.
    UnwaitedHandle {
        rank: usize,
        issue_index: usize,
        op: String,
    },
    /// An unwaited async op holds a pooled slab, so the slab is still
    /// reachable (not yet recycled) when the schedule ends.
    PooledLeak {
        rank: usize,
        issue_index: usize,
        op: String,
    },
    /// A `bucket_seal` marker was not followed by the linear
    /// reduce-scatter that drains the sealed bucket.
    BucketNotReduced { rank: usize, marker_index: usize },
    /// A reduce-scatter was issued with a buffer length not divisible
    /// by the group size. `message` is formatted identically to the
    /// runtime `CommError::InvalidBuffer` display, so static and
    /// dynamic rejections agree byte for byte.
    IndivisibleReduceScatter {
        rank: usize,
        event_index: usize,
        message: String,
    },
    /// The schedule cannot complete under the portable blocking
    /// contract (every blocking collective may synchronise all
    /// members): the fixpoint simulation of `placement` wedged with the
    /// listed ranks stuck at the described ops.
    Deadlock {
        placement: Placement,
        stuck: Vec<(usize, String)>,
    },
    /// The main context mutated a buffer while a pending nonblocking
    /// collective's overlap window may still read or write it: the
    /// write is neither ordered after the window's end nor before its
    /// issue in the happens-before analysis.
    OverlapRace {
        rank: usize,
        /// Event index of the racing `BufWrite`.
        write_index: usize,
        buf: u64,
        /// The write site's annotation label (e.g. `bucket_grads`).
        label: String,
        /// Rendered async op whose window the write lands in.
        op: String,
        /// Ordinal of that op among the rank's collective issues.
        op_index: usize,
        /// Wire-lane label of the op's kind.
        lane: &'static str,
        /// Event index of the op's issue.
        issue_index: usize,
    },
    /// A pooled slab was explicitly recycled before every async op
    /// reading it released it — the pool could re-issue storage a
    /// pending collective still reads.
    EarlyRecycle {
        rank: usize,
        /// Event index of the premature `SlabRecycle`.
        recycle_index: usize,
        slab: u64,
        /// Rendered async op still holding the slab.
        op: String,
        op_index: usize,
        lane: &'static str,
        issue_index: usize,
    },
    /// One slab id recycled twice: the pool free-list would hold the
    /// buffer twice and serve it to two owners.
    DoubleRecycle {
        rank: usize,
        slab: u64,
        first_index: usize,
        second_index: usize,
    },
    /// One slab id backing two async ops. Ordered windows are a
    /// use-after-recycle (the second op reads retired storage);
    /// concurrent windows are cross-lane aliasing (two in-flight
    /// collectives share the slab).
    SlabReuse {
        rank: usize,
        slab: u64,
        first_op: usize,
        first_lane: &'static str,
        first_issue: usize,
        second_op: usize,
        second_lane: &'static str,
        second_issue: usize,
        concurrent: bool,
    },
}

fn opt_op(op: &Option<String>) -> &str {
    op.as_deref().unwrap_or("nothing (stream ended)")
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Diagnostic::Mismatch {
                group_key,
                index,
                rank_a,
                rank_b,
                left,
                right,
            } => write!(
                f,
                "collective mismatch on group {group_key:#x} at op #{index}: \
                 rank {rank_a} issued {}, rank {rank_b} issued {}",
                opt_op(left),
                opt_op(right)
            ),
            Diagnostic::WaitBeforeIssue {
                rank,
                event_index,
                group_key,
                seq,
            } => write!(
                f,
                "rank {rank} event #{event_index}: wait on (group {group_key:#x}, seq {seq}) \
                 before any matching async issue"
            ),
            Diagnostic::DoubleWait {
                rank,
                event_index,
                group_key,
                seq,
            } => write!(
                f,
                "rank {rank} event #{event_index}: second wait on \
                 (group {group_key:#x}, seq {seq})"
            ),
            Diagnostic::UnwaitedHandle {
                rank,
                issue_index,
                op,
            } => write!(
                f,
                "rank {rank}: async {op} issued at event #{issue_index} is never waited"
            ),
            Diagnostic::PooledLeak {
                rank,
                issue_index,
                op,
            } => write!(
                f,
                "rank {rank}: pooled slab of async {op} issued at event #{issue_index} \
                 is still reachable at schedule end"
            ),
            Diagnostic::BucketNotReduced { rank, marker_index } => write!(
                f,
                "rank {rank}: bucket sealed at event #{marker_index} but never reduced \
                 (no reduce_scatter_linear follows)"
            ),
            Diagnostic::IndivisibleReduceScatter {
                rank,
                event_index,
                message,
            } => write!(f, "rank {rank} event #{event_index}: {message}"),
            Diagnostic::Deadlock { placement, stuck } => {
                write!(
                    f,
                    "schedule cannot complete under the blocking-collective contract ({}); stuck:",
                    placement.label()
                )?;
                for (rank, what) in stuck {
                    write!(f, " [rank {rank}: {what}]")?;
                }
                Ok(())
            }
            Diagnostic::OverlapRace {
                rank,
                write_index,
                buf,
                label,
                op,
                op_index,
                lane,
                issue_index,
            } => write!(
                f,
                "rank {rank} event #{write_index}: write to buffer {buf} ({label}) races \
                 with async {op} at op #{op_index} (lane {lane}, issued at event \
                 #{issue_index}) — the pending collective may still read or write the buffer"
            ),
            Diagnostic::EarlyRecycle {
                rank,
                recycle_index,
                slab,
                op,
                op_index,
                lane,
                issue_index,
            } => write!(
                f,
                "rank {rank} event #{recycle_index}: slab {slab} recycled before async {op} \
                 at op #{op_index} (lane {lane}, issued at event #{issue_index}) released it"
            ),
            Diagnostic::DoubleRecycle {
                rank,
                slab,
                first_index,
                second_index,
            } => write!(
                f,
                "rank {rank} event #{second_index}: slab {slab} recycled twice \
                 (first recycle at event #{first_index})"
            ),
            Diagnostic::SlabReuse {
                rank,
                slab,
                first_op,
                first_lane,
                first_issue,
                second_op,
                second_lane,
                second_issue,
                concurrent,
            } => {
                if *concurrent {
                    write!(
                        f,
                        "rank {rank}: slab {slab} aliased by concurrent async ops — op \
                         #{first_op} (lane {first_lane}, issued at event #{first_issue}) and \
                         op #{second_op} (lane {second_lane}, issued at event #{second_issue})"
                    )
                } else {
                    write!(
                        f,
                        "rank {rank}: slab {slab} of async op #{first_op} (lane {first_lane}, \
                         issued at event #{first_issue}) reused after recycle by async op \
                         #{second_op} (lane {second_lane}, issued at event #{second_issue})"
                    )
                }
            }
        }
    }
}

/// The outcome of a verification pass over one world's schedule streams.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Report {
    /// World size (number of per-rank streams checked).
    pub ranks: usize,
    /// Total collective issues across all ranks.
    pub issues: usize,
    /// Findings, in checker order (local lints, cross-rank matching,
    /// deadlock simulation, happens-before races, slab lifetimes).
    /// Empty means the schedule is certified.
    pub diagnostics: Vec<Diagnostic>,
    /// Wall-clock per-check timings, in microseconds, in the order the
    /// checks ran (`lints`, `matching`, `deadlock`, `hb`, `slab`). Lets
    /// `axonnctl verify` surface slow fixpoints on large grids. Integer
    /// µs keeps the `Eq` derive.
    pub timings_us: Vec<(&'static str, u64)>,
}

impl Report {
    /// True when no checker produced a finding.
    pub fn is_ok(&self) -> bool {
        self.diagnostics.is_empty()
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_ok() {
            write!(
                f,
                "schedule OK: {} ranks, {} collective issues, 0 diagnostics",
                self.ranks, self.issues
            )
        } else {
            writeln!(
                f,
                "schedule REJECTED: {} ranks, {} collective issues, {} diagnostic(s):",
                self.ranks,
                self.issues,
                self.diagnostics.len()
            )?;
            for (i, d) in self.diagnostics.iter().enumerate() {
                if i > 0 {
                    writeln!(f)?;
                }
                write!(f, "  {i}: {d}")?;
            }
            Ok(())
        }
    }
}
