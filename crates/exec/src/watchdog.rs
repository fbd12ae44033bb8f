//! Straggler/hang watchdog: an observer thread that flags ranks whose
//! heartbeat or collective-lane progress stalls past a threshold.
//!
//! The transport stamps per-rank heartbeats on every send, receive
//! completion, and collective entry/exit (see
//! `axonn_collectives::telemetry`); a posted-but-unsatisfied receive is
//! tracked with its peer and lane key. The watchdog polls those beats
//! and reports any rank stuck past the threshold, naming the **rank**,
//! the **pending op**, the **lane key**, and the **peer** it is waiting
//! on — then dumps that rank's flight recorder so the post-mortem has
//! data.
//!
//! The diagnostic is cross-checked against the `verify` schedule plane:
//! when the grid's collective schedule was statically certified
//! deadlock-free (or the completed portion of the run passed runtime
//! matching), a stall cannot be a schedule bug, so the report classifies
//! it as a *runtime* fault — a dead peer, a stalled link (e.g. an `ft`
//! wall-stall injection), or an OS-level straggler. On an uncertified
//! grid the classification stays open.
//!
//! The threshold defaults to `AXONN_WATCHDOG_MS` (2000 ms); a rank is
//! only ever reported once per watchdog (stalls don't re-fire while the
//! same op stays pending).

use axonn_collectives::Comm;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Default stall threshold when `AXONN_WATCHDOG_MS` is unset.
pub const DEFAULT_WATCHDOG_MS: u64 = 2000;

/// Stall threshold from `AXONN_WATCHDOG_MS`, clamped to at least 1 ms.
pub fn watchdog_threshold() -> Duration {
    let ms = std::env::var("AXONN_WATCHDOG_MS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(DEFAULT_WATCHDOG_MS)
        .max(1);
    Duration::from_millis(ms)
}

/// Watchdog configuration.
#[derive(Debug, Clone)]
pub struct WatchdogConfig {
    /// A rank whose pending receive (or in-collective heartbeat) is
    /// older than this is reported as stalled.
    pub threshold: Duration,
    /// How often the observer polls the heartbeat table.
    pub poll: Duration,
    /// Whether the schedule running on this world was certified
    /// deadlock-free by the `verify` plane (statically via
    /// `check_schedules` on a dry extraction, or by a clean runtime
    /// matching pass). Changes the *classification* of a stall, not its
    /// detection.
    pub certified: bool,
}

impl Default for WatchdogConfig {
    fn default() -> WatchdogConfig {
        WatchdogConfig {
            threshold: watchdog_threshold(),
            poll: Duration::from_millis(50),
            certified: false,
        }
    }
}

impl WatchdogConfig {
    /// Default thresholds with the certification flag set.
    pub fn certified(mut self, yes: bool) -> WatchdogConfig {
        self.certified = yes;
        self
    }
}

/// One stalled-rank diagnostic.
#[derive(Debug, Clone)]
pub struct StallReport {
    pub rank: usize,
    /// Milliseconds since the rank last made progress.
    pub heartbeat_age_ms: u64,
    /// Collective the rank was inside, when known.
    pub op: Option<&'static str>,
    /// Lane of the pending receive (`rs`, `ag`, `bcast`, ...).
    pub lane: Option<&'static str>,
    /// Peer the rank is waiting on.
    pub peer: Option<usize>,
    /// Raw message key of the pending receive.
    pub key: Option<u128>,
    /// Schedule-plane cross-check verdict.
    pub classification: String,
    /// Flight-recorder dump written for the stalled rank, when the
    /// write succeeded.
    pub dump: Option<PathBuf>,
}

impl std::fmt::Display for StallReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "rank {} stalled {} ms in {}",
            self.rank,
            self.heartbeat_age_ms,
            self.op.unwrap_or("<no collective>"),
        )?;
        if let (Some(lane), Some(peer)) = (self.lane, self.peer) {
            write!(f, " waiting on rank {peer} (lane {lane})")?;
        }
        write!(f, " — {}", self.classification)
    }
}

/// A running watchdog: observer thread + collected reports.
pub struct Watchdog {
    stop: Arc<AtomicBool>,
    reports: Arc<Mutex<Vec<StallReport>>>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Watchdog {
    /// Spawn an observer watching `probe`'s world under `cfg`. The
    /// probe is any rank's communicator (observers read world-shared
    /// state, so which rank doesn't matter).
    pub fn spawn(probe: Comm, cfg: WatchdogConfig) -> Watchdog {
        let stop = Arc::new(AtomicBool::new(false));
        let reports = Arc::new(Mutex::new(Vec::new()));
        let stop_t = stop.clone();
        let reports_t = reports.clone();
        let handle = std::thread::Builder::new()
            .name("axonn-watchdog".into())
            .spawn(move || {
                let threshold_ms = cfg.threshold.as_millis() as u64;
                let mut reported = vec![false; probe.world_size()];
                while !stop_t.load(Ordering::Relaxed) {
                    for t in probe.telemetry() {
                        if reported[t.rank] {
                            continue;
                        }
                        // A rank counts as stalled when a posted receive
                        // has been outstanding past the threshold, or
                        // when it sits inside a collective with a stale
                        // heartbeat (covers sender-side hangs).
                        let pending_age = t.pending.as_ref().map(|p| p.age_ms).unwrap_or(0);
                        let stalled = pending_age > threshold_ms
                            || (t.current_op.is_some() && t.heartbeat_age_ms > threshold_ms);
                        if !stalled {
                            continue;
                        }
                        reported[t.rank] = true;
                        let classification = if cfg.certified {
                            "runtime fault (schedule statically certified deadlock-free): \
                             suspect link stall, dead peer, or OS straggler"
                                .to_string()
                        } else {
                            "possible schedule bug or runtime fault (schedule not certified)"
                                .to_string()
                        };
                        let mut report = StallReport {
                            rank: t.rank,
                            heartbeat_age_ms: t.heartbeat_age_ms.max(pending_age),
                            op: t.current_op,
                            lane: t.pending.as_ref().map(|p| p.lane),
                            peer: t.pending.as_ref().map(|p| p.src),
                            key: t.pending.as_ref().map(|p| p.key),
                            classification,
                            dump: None,
                        };
                        probe.flight().record(format!("watchdog trip: {report}"));
                        report.dump = probe.dump_flight_rank(t.rank, &format!("{report}")).ok();
                        reports_t.lock().unwrap().push(report);
                    }
                    std::thread::sleep(cfg.poll);
                }
            })
            .expect("spawn watchdog thread");
        Watchdog {
            stop,
            reports,
            handle: Some(handle),
        }
    }

    /// Reports collected so far (the watchdog may still be running).
    pub fn reports(&self) -> Vec<StallReport> {
        self.reports.lock().unwrap().clone()
    }

    /// Stop the observer and return everything it reported.
    pub fn stop(mut self) -> Vec<StallReport> {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
        let out = self.reports.lock().unwrap().clone();
        out
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use axonn_collectives::{CommWorld, ProcessGroup};

    #[test]
    fn healthy_world_reports_nothing() {
        let comms = CommWorld::builder(2).build();
        let probe = comms[0].clone();
        let dog = Watchdog::spawn(
            probe,
            WatchdogConfig {
                threshold: Duration::from_millis(200),
                poll: Duration::from_millis(10),
                certified: true,
            },
        );
        let handles: Vec<_> = comms
            .into_iter()
            .map(|c| {
                std::thread::spawn(move || {
                    let g = ProcessGroup::new((0..2).collect());
                    for _ in 0..20 {
                        let mut v = vec![c.rank() as f32; 64];
                        c.all_reduce(&g, &mut v);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let reports = dog.stop();
        assert!(reports.is_empty(), "false positives: {reports:?}");
    }

    #[test]
    fn threshold_env_default() {
        // Only the default path (env var is process-global).
        assert_eq!(DEFAULT_WATCHDOG_MS, 2000);
        assert!(watchdog_threshold() >= Duration::from_millis(1));
    }
}
