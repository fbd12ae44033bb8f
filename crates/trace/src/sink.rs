//! Per-rank event recorder and the finished per-rank trace.

use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use serde::{Serialize, Value};

use crate::event::{EventDetail, Stream, TraceEvent, XferStats};

const STREAMS: usize = 4;

fn stream_slot(stream: Stream) -> usize {
    match stream {
        Stream::Compute => 0,
        Stream::Comm | Stream::CommAg => 1,
        Stream::CommAr => 2,
        Stream::CommRs => 3,
    }
}

/// Lock-cheap per-rank recorder.
///
/// Events land in one `Vec` per stream behind its own mutex; each stream
/// is written by exactly one thread (the rank's compute thread or its
/// communication worker), so the locks are uncontended in steady state —
/// the cost of a `record` call is one CAS plus a `Vec` push. The current
/// layer scope is an atomic so the communication worker can stamp events
/// without touching the compute thread's state.
pub struct TraceSink {
    rank: usize,
    origin: Instant,
    enabled: AtomicBool,
    /// Current layer scope, `-1` when outside any layer.
    layer_scope: AtomicI64,
    streams: [Mutex<Vec<TraceEvent>>; STREAMS],
}

impl TraceSink {
    pub fn new(rank: usize) -> Arc<TraceSink> {
        Arc::new(TraceSink {
            rank,
            origin: Instant::now(),
            enabled: AtomicBool::new(true),
            layer_scope: AtomicI64::new(-1),
            streams: std::array::from_fn(|_| Mutex::new(Vec::new())),
        })
    }

    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Wall-clock nanoseconds since this sink was created.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Pause/resume recording (used while the kernel tuner replays
    /// candidate GEMMs so timing probes don't pollute the schedule).
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Release);
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Acquire)
    }

    /// Enter/leave a layer scope. Events recorded while a scope is set
    /// inherit it, including asynchronous collectives issued from it.
    pub fn set_layer(&self, layer: Option<usize>) {
        let v = layer.map(|l| l as i64).unwrap_or(-1);
        self.layer_scope.store(v, Ordering::Release);
    }

    pub fn layer(&self) -> Option<usize> {
        let v = self.layer_scope.load(Ordering::Acquire);
        (v >= 0).then_some(v as usize)
    }

    /// Record a span with explicit timestamps on both clocks.
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &self,
        stream: Stream,
        t_start: f64,
        t_end: f64,
        wall_start_ns: u64,
        wall_end_ns: u64,
        layer: Option<usize>,
        detail: EventDetail,
    ) {
        self.record_xfer(
            stream,
            t_start,
            t_end,
            wall_start_ns,
            wall_end_ns,
            layer,
            detail,
            XferStats::default(),
        );
    }

    /// [`record`](Self::record) with transport transfer statistics
    /// attached (used by the pooled exec transport for collective spans).
    #[allow(clippy::too_many_arguments)]
    pub fn record_xfer(
        &self,
        stream: Stream,
        t_start: f64,
        t_end: f64,
        wall_start_ns: u64,
        wall_end_ns: u64,
        layer: Option<usize>,
        detail: EventDetail,
        xfer: XferStats,
    ) {
        if !self.is_enabled() {
            return;
        }
        let ev = TraceEvent {
            stream,
            t_start,
            t_end,
            wall_start_ns,
            wall_end_ns,
            layer,
            detail,
            xfer,
        };
        self.streams[stream_slot(stream)]
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(ev);
    }

    /// Record a span, stamping the current layer scope and using a single
    /// wall timestamp captured now for both edges (for events whose wall
    /// duration is not meaningful, e.g. simulator spans).
    pub fn record_scoped(&self, stream: Stream, t_start: f64, t_end: f64, detail: EventDetail) {
        let now = self.now_ns();
        self.record(stream, t_start, t_end, now, now, self.layer(), detail);
    }

    /// Instantaneous marker at virtual time `t` on `stream`.
    pub fn mark(&self, stream: Stream, t: f64, detail: EventDetail) {
        self.record_scoped(stream, t, t, detail);
    }

    /// Open a span whose end is not known yet (e.g. a layer scope that
    /// encloses other events). The event is pushed immediately — keeping
    /// per-stream start times monotone even with nesting — and its end
    /// edge is patched by [`TraceSink::close_span`]. Returns `None` when
    /// recording is paused.
    pub fn open_span(&self, stream: Stream, t_start: f64, detail: EventDetail) -> Option<OpenSpan> {
        if !self.is_enabled() {
            return None;
        }
        let wall = self.now_ns();
        let slot = stream_slot(stream);
        let mut events = self.streams[slot]
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let index = events.len();
        events.push(TraceEvent {
            stream,
            t_start,
            t_end: t_start,
            wall_start_ns: wall,
            wall_end_ns: wall,
            layer: self.layer(),
            detail,
            xfer: XferStats::default(),
        });
        Some(OpenSpan { slot, index })
    }

    /// Close a span opened with [`TraceSink::open_span`], stamping its
    /// virtual and wall end times. Accepts `None` so callers can thread
    /// the handle through without re-checking the enable gate.
    pub fn close_span(&self, span: Option<OpenSpan>, t_end: f64) {
        let Some(OpenSpan { slot, index }) = span else {
            return;
        };
        let wall = self.now_ns();
        let mut events = self.streams[slot]
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(ev) = events.get_mut(index) {
            ev.t_end = ev.t_start.max(t_end);
            ev.wall_end_ns = wall;
        }
    }

    /// Drain every stream into a finished [`RankTrace`].
    pub fn finish(&self) -> RankTrace {
        let mut events = Vec::new();
        for s in &self.streams {
            events.extend(
                s.lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .drain(..),
            );
        }
        // Stable order: by stream slot (drain order) — already grouped;
        // keep per-stream push order untouched.
        RankTrace {
            rank: self.rank,
            events,
        }
    }
}

/// Handle to a span opened with [`TraceSink::open_span`] and awaiting its
/// end edge.
pub struct OpenSpan {
    slot: usize,
    index: usize,
}

/// All events one rank recorded, grouped by stream in push order.
#[derive(Debug, Clone, PartialEq)]
pub struct RankTrace {
    pub rank: usize,
    pub events: Vec<TraceEvent>,
}

impl RankTrace {
    /// Events of one stream, in the order they were recorded.
    pub fn stream_events(&self, stream: Stream) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter().filter(move |e| e.stream == stream)
    }

    /// The ordered event-kind labels on the compute stream — the
    /// rank-independent schedule signature of an SPMD step.
    pub fn kind_signature(&self) -> Vec<String> {
        self.stream_events(Stream::Compute)
            .map(|e| e.detail.kind())
            .collect()
    }

    /// True when virtual timestamps are monotone within every stream
    /// (event start never precedes the previous event's start, and every
    /// span has non-negative length).
    pub fn streams_monotone(&self) -> bool {
        for stream in [
            Stream::Compute,
            Stream::Comm,
            Stream::CommAg,
            Stream::CommAr,
            Stream::CommRs,
        ] {
            let mut prev = f64::NEG_INFINITY;
            for e in self.stream_events(stream) {
                if e.t_start < prev || e.t_end < e.t_start {
                    return false;
                }
                prev = e.t_start;
            }
        }
        true
    }

    /// Deterministic serialization: virtual time and payloads only, no
    /// wall clock. Byte-identical across identical seeded runs.
    pub fn canonical_json(&self) -> String {
        let v = Value::Object(vec![
            ("rank".into(), self.rank.serialize()),
            (
                "events".into(),
                Value::Array(self.events.iter().map(|e| e.canonical_value()).collect()),
            ),
        ]);
        serde_json::to_string(&v).expect("trace serialization is infallible")
    }
}

impl Serialize for RankTrace {
    fn serialize(&self) -> Value {
        Value::Object(vec![
            ("rank".into(), self.rank.serialize()),
            ("events".into(), self.events.serialize()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::CollOp;

    fn gemm() -> EventDetail {
        EventDetail::Gemm {
            mode: "NN",
            flops: 8.0,
            packed_bytes: 512,
            panels: 1,
        }
    }

    #[test]
    fn records_respect_layer_scope_and_enable_gate() {
        let sink = TraceSink::new(3);
        sink.record_scoped(Stream::Compute, 0.0, 1.0, gemm());
        sink.set_layer(Some(2));
        sink.record_scoped(Stream::Compute, 1.0, 2.0, gemm());
        sink.set_enabled(false);
        sink.record_scoped(Stream::Compute, 2.0, 3.0, gemm());
        sink.set_enabled(true);
        sink.set_layer(None);
        let trace = sink.finish();
        assert_eq!(trace.rank, 3);
        assert_eq!(trace.events.len(), 2);
        assert_eq!(trace.events[0].layer, None);
        assert_eq!(trace.events[1].layer, Some(2));
    }

    #[test]
    fn open_close_span_keeps_start_order_and_patches_end() {
        let sink = TraceSink::new(0);
        sink.set_layer(Some(1));
        let span = sink.open_span(Stream::Compute, 0.0, EventDetail::LayerFwd { layer: 1 });
        sink.record_scoped(Stream::Compute, 0.25, 0.75, gemm());
        sink.close_span(span, 1.0);
        sink.set_layer(None);
        let trace = sink.finish();
        assert_eq!(trace.events.len(), 2);
        assert_eq!(trace.events[0].detail.kind(), "layer_fwd");
        assert_eq!(trace.events[0].t_start, 0.0);
        assert_eq!(trace.events[0].t_end, 1.0);
        assert_eq!(trace.events[0].layer, Some(1));
        assert!(trace.streams_monotone());

        // Paused sink yields no handle and close is a no-op.
        let sink = TraceSink::new(0);
        sink.set_enabled(false);
        let span = sink.open_span(Stream::Compute, 0.0, gemm());
        assert!(span.is_none());
        sink.close_span(span, 1.0);
        assert!(sink.finish().events.is_empty());
    }

    #[test]
    fn monotonicity_check_spots_regressions() {
        let sink = TraceSink::new(0);
        sink.record_scoped(Stream::Compute, 0.0, 1.0, gemm());
        sink.record_scoped(
            Stream::Comm,
            5.0,
            6.0,
            EventDetail::Collective {
                op: CollOp::AllReduce,
                group_size: 2,
                bytes: 64,
                seq: 0,
                blocking: false,
                op_seconds: 1.0,
            },
        );
        sink.record_scoped(Stream::Compute, 2.0, 2.5, gemm());
        let good = sink.finish();
        assert!(good.streams_monotone());

        let sink = TraceSink::new(0);
        sink.record_scoped(Stream::Compute, 2.0, 3.0, gemm());
        sink.record_scoped(Stream::Compute, 1.0, 1.5, gemm());
        assert!(!sink.finish().streams_monotone());
    }

    #[test]
    fn canonical_json_is_wall_time_free_and_stable() {
        let build = || {
            let sink = TraceSink::new(1);
            sink.record_scoped(Stream::Compute, 0.0, 0.125, gemm());
            std::thread::sleep(std::time::Duration::from_millis(1));
            sink.record_scoped(Stream::Compute, 0.125, 0.25, gemm());
            sink.finish().canonical_json()
        };
        let a = build();
        let b = build();
        assert_eq!(a, b, "canonical traces must be byte-identical");
        assert!(!a.contains("wall"));
    }

    #[test]
    fn signature_covers_compute_stream_only() {
        let sink = TraceSink::new(0);
        sink.mark(
            Stream::Compute,
            0.0,
            EventDetail::Issue {
                op: CollOp::AllGather,
                group_size: 2,
                bytes: 32,
                seq: 1,
            },
        );
        sink.record_scoped(
            Stream::Comm,
            0.0,
            1.0,
            EventDetail::Collective {
                op: CollOp::AllGather,
                group_size: 2,
                bytes: 32,
                seq: 1,
                blocking: false,
                op_seconds: 1.0,
            },
        );
        sink.record_scoped(Stream::Compute, 0.0, 1.0, gemm());
        let sig = sink.finish().kind_signature();
        assert_eq!(
            sig,
            vec!["issue:all_gather".to_string(), "gemm".to_string()]
        );
    }
}
