//! # axonn-trace — unified tracing & metrics for both execution planes
//!
//! The workspace runs the same 4D-parallel schedule on two planes: the
//! correctness plane executes it with real tensors (`axonn-exec` +
//! `axonn-collectives`), the performance plane simulates it under a
//! machine model (`axonn-sim`). This crate gives both a shared event
//! vocabulary and recorder so a run can be
//!
//! * exported as Chrome trace-event JSON (one track per rank per stream,
//!   loadable in Perfetto / `chrome://tracing`),
//! * folded into the live metrics registry (bytes per collective op,
//!   GEMM flops per mode, wait-gap histograms) under the names a running
//!   world stamps, and
//! * reduced to an overlap-efficiency report — how much collective time
//!   hid under compute, the quantity the paper's Fig. 5 measures.
//!
//! Every event carries both a *virtual* timestamp (from the plane's cost
//! model; deterministic) and a *wall* timestamp (diagnostic). Canonical
//! serializations exclude wall time, so two identical seeded runs produce
//! byte-identical traces — the determinism tests rely on this.

mod chrome;
mod event;
mod flight;
mod live;
mod metrics;
mod report;
mod sink;

pub use chrome::chrome_trace_json;
pub use event::{CollOp, EventDetail, Stream, TraceEvent, XferStats};
pub use flight::{
    flight_capacity, flight_dir, FlightEntry, FlightLabel, FlightRecorder, DEFAULT_FLIGHT_CAP,
};
pub use live::{
    fold_traces, Counter, Gauge, LiveCollectives, LiveHistogram, LiveRegistry, MetricsSnapshot,
    HIST_SHARDS, OVERLAP_WAIT_SECONDS_HIST,
};
pub use metrics::{Histogram, BYTES_BOUNDS, SECONDS_BOUNDS};
pub use report::{LayerOverlap, OverlapReport, TraceSummary};
pub use sink::{OpenSpan, RankTrace, TraceSink};
