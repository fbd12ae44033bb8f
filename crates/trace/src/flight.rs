//! Crash-surviving flight recorder: a bounded per-rank ring buffer of
//! the most recent runtime events, dumped to disk when something goes
//! wrong (panic, watchdog trip, `ft` failure detection).
//!
//! The post-hoc tracer only yields data from runs that reach
//! `finish()`; the flight recorder exists precisely for runs that
//! don't. Entries are cheap labels, not full
//! [`TraceEvent`](crate::TraceEvent)s — the recorder must stay usable
//! from inside panicking and poisoned contexts, so it holds no
//! references into the run's data structures. The per-collective
//! enter/exit breadcrumbs are a static op name plus a marker, so
//! recording them into a full ring allocates nothing; other events
//! carry preformatted text.
//!
//! Capacity comes from `AXONN_FLIGHT_CAP` (default
//! [`DEFAULT_FLIGHT_CAP`]); dumps land in `AXONN_FLIGHT_DIR` (default
//! `target/flight`), one JSON file per rank named by a world-unique id
//! so concurrent tests don't clobber each other.

use std::collections::VecDeque;
use std::fmt;
use std::io;
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::{SystemTime, UNIX_EPOCH};

use serde::{Serialize, Value};

/// Default ring capacity (events retained per rank).
pub const DEFAULT_FLIGHT_CAP: usize = 256;

/// Ring capacity from `AXONN_FLIGHT_CAP`, clamped to at least 1.
pub fn flight_capacity() -> usize {
    std::env::var("AXONN_FLIGHT_CAP")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(DEFAULT_FLIGHT_CAP)
        .max(1)
}

/// Dump directory from `AXONN_FLIGHT_DIR` (default `target/flight`).
pub fn flight_dir() -> PathBuf {
    std::env::var("AXONN_FLIGHT_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from("target/flight"))
}

fn wall_ns() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0)
}

/// What a flight entry says. Renders as its dump text: `enter {op}`,
/// `exit {op}`, or the text itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlightLabel {
    /// The rank entered collective `op`.
    Enter(&'static str),
    /// The rank left collective `op` (normally or by unwinding).
    Exit(&'static str),
    /// Any other event, preformatted.
    Text(String),
}

impl fmt::Display for FlightLabel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlightLabel::Enter(op) => write!(f, "enter {op}"),
            FlightLabel::Exit(op) => write!(f, "exit {op}"),
            FlightLabel::Text(text) => f.write_str(text),
        }
    }
}

impl From<String> for FlightLabel {
    fn from(text: String) -> FlightLabel {
        FlightLabel::Text(text)
    }
}

impl From<&str> for FlightLabel {
    fn from(text: &str) -> FlightLabel {
        FlightLabel::Text(text.to_string())
    }
}

/// Compares the rendered text, without rendering it.
impl PartialEq<&str> for FlightLabel {
    fn eq(&self, other: &&str) -> bool {
        match self {
            FlightLabel::Enter(op) => other.strip_prefix("enter ") == Some(*op),
            FlightLabel::Exit(op) => other.strip_prefix("exit ") == Some(*op),
            FlightLabel::Text(text) => text == other,
        }
    }
}

/// One recorded moment: a wall timestamp and a label.
#[derive(Debug, Clone)]
pub struct FlightEntry {
    pub wall_ns: u64,
    pub label: FlightLabel,
}

impl Serialize for FlightEntry {
    fn serialize(&self) -> Value {
        Value::Object(vec![
            ("wall_ns".into(), self.wall_ns.serialize()),
            ("label".into(), self.label.to_string().serialize()),
        ])
    }
}

/// Bounded ring of recent events for one rank. `record` is a short
/// mutex-guarded push (the mutex is uncontended in practice — only this
/// rank's threads write); `dump` serializes whatever survived.
#[derive(Debug)]
pub struct FlightRecorder {
    rank: usize,
    /// World-unique id baked into dump filenames.
    world_id: u64,
    cap: usize,
    ring: Mutex<VecDeque<FlightEntry>>,
    /// Total events ever recorded (including evicted ones).
    recorded: Mutex<u64>,
}

impl FlightRecorder {
    pub fn new(world_id: u64, rank: usize) -> FlightRecorder {
        FlightRecorder::with_capacity(world_id, rank, flight_capacity())
    }

    pub fn with_capacity(world_id: u64, rank: usize, cap: usize) -> FlightRecorder {
        let cap = cap.max(1);
        FlightRecorder {
            rank,
            world_id,
            cap,
            ring: Mutex::new(VecDeque::with_capacity(cap)),
            recorded: Mutex::new(0),
        }
    }

    pub fn rank(&self) -> usize {
        self.rank
    }

    pub fn world_id(&self) -> u64 {
        self.world_id
    }

    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Append an event, evicting the oldest once at capacity.
    pub fn record(&self, label: impl Into<FlightLabel>) {
        let entry = FlightEntry {
            wall_ns: wall_ns(),
            label: label.into(),
        };
        let mut ring = self.ring.lock().unwrap();
        if ring.len() == self.cap {
            ring.pop_front();
        }
        ring.push_back(entry);
        *self.recorded.lock().unwrap() += 1;
    }

    /// Number of entries currently retained.
    pub fn len(&self) -> usize {
        self.ring.lock().unwrap().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Copy of the retained entries, oldest first.
    pub fn entries(&self) -> Vec<FlightEntry> {
        self.ring.lock().unwrap().iter().cloned().collect()
    }

    /// The dump path this recorder writes to.
    pub fn dump_path(&self) -> PathBuf {
        flight_dir().join(format!("flight_w{}_rank{}.json", self.world_id, self.rank))
    }

    /// Write the ring to disk as JSON, creating the dump directory if
    /// needed. `reason` names what tripped the dump (panic message,
    /// watchdog diagnostic, fault record). Returns the written path.
    pub fn dump(&self, reason: &str) -> io::Result<PathBuf> {
        let dir = flight_dir();
        std::fs::create_dir_all(&dir)?;
        let path = self.dump_path();
        let body = Value::Object(vec![
            ("rank".into(), self.rank.serialize()),
            ("world_id".into(), self.world_id.serialize()),
            ("reason".into(), reason.serialize()),
            ("dumped_wall_ns".into(), wall_ns().serialize()),
            (
                "recorded_total".into(),
                (*self.recorded.lock().unwrap()).serialize(),
            ),
            ("events".into(), self.entries().serialize()),
        ]);
        let json = serde_json::to_string(&body).expect("flight dump serializes");
        std::fs::write(&path, json)?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_evicts_oldest() {
        let fr = FlightRecorder::with_capacity(1, 0, 3);
        for i in 0..5 {
            fr.record(format!("ev{i}"));
        }
        let entries = fr.entries();
        assert_eq!(entries.len(), 3);
        assert_eq!(entries[0].label, "ev2");
        assert_eq!(entries[2].label, "ev4");
    }

    #[test]
    fn dump_writes_json() {
        // The default-dir dump itself is exercised by the integration
        // tests (AXONN_FLIGHT_DIR is process-global, so setting it here
        // would race parallel unit tests); check the serialized shape
        // and the filename scheme.
        let fr = FlightRecorder::with_capacity(42, 1, 8);
        fr.record("send dst=0 lane=rs");
        fr.record("recv src=0 lane=ag");
        fr.record(FlightLabel::Enter("all_reduce"));
        fr.record(FlightLabel::Exit("all_reduce"));
        let body = Value::Object(vec![("events".into(), fr.entries().serialize())]);
        let json = serde_json::to_string(&body).unwrap();
        assert!(json.contains("send dst=0 lane=rs"));
        assert!(json.contains("recv src=0 lane=ag"));
        assert!(json.contains("\"label\":\"enter all_reduce\""));
        assert!(json.contains("\"label\":\"exit all_reduce\""));
        assert_eq!(
            fr.dump_path().file_name().unwrap().to_str().unwrap(),
            "flight_w42_rank1.json"
        );
    }
}
