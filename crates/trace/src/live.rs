//! The metrics registry: lock-light counters, gauges, and sharded
//! histograms that hot paths update with plain atomic ops while an
//! observer thread reads concurrently. It is the only registry: a
//! finished run's traces are aggregated by folding them through it
//! ([`fold_traces`]).
//!
//! Design constraints, in order:
//!
//! 1. **No allocation and no locks on the update path.** Handles
//!    ([`Counter`], [`Gauge`], [`LiveHistogram`]) are registered once
//!    (cold path, takes the registry mutex) and cloned into the hot
//!    path; `inc`/`observe` are a handful of relaxed atomic ops.
//! 2. **Concurrent readers see a coherent-enough view.** Snapshots are
//!    monotone per cell but not cross-cell atomic — a reader may see a
//!    count without its sum. That is the standard Prometheus contract
//!    and fine for monitoring.
//! 3. **One name vocabulary.** The collective and overlap-wait names
//!    are spelled once, in [`LiveCollectives::new`]. A running world
//!    stamps through it, and [`fold_traces`] replays a finished trace's
//!    collective and wait events through the same calls, so a live
//!    snapshot, a `sim` run (virtual clocks) and a post-hoc summary of
//!    an exec run publish comparable series. `gemm.{mode}.*` and
//!    `tuner.decisions` come only from traces: the fold registers them,
//!    and the live runtime does not stamp them.
//!
//! Histograms are sharded ([`HIST_SHARDS`] ways, threads pick a shard by
//! a thread-local id) so concurrent ranks don't contend on one cache
//! line; a snapshot folds the shards back into a plain
//! [`Histogram`](crate::Histogram).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use serde::{Serialize, Value};

use crate::event::{EventDetail, XferStats};
use crate::metrics::{bucket_of, Histogram, BYTES_BOUNDS, SECONDS_BOUNDS};
use crate::sink::RankTrace;
use crate::CollOp;

/// Monotonic counter handle. Cloning shares the underlying cell.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    pub fn new() -> Counter {
        Counter::default()
    }

    pub fn add(&self, delta: u64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    pub fn inc(&self) {
        self.add(1);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Last-value gauge storing an `f64` as its bit pattern.
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Default for Gauge {
    fn default() -> Gauge {
        Gauge(Arc::new(AtomicU64::new(0f64.to_bits())))
    }
}

impl Gauge {
    pub fn new() -> Gauge {
        Gauge::default()
    }

    pub fn set(&self, value: f64) {
        self.0.store(value.to_bits(), Ordering::Relaxed);
    }

    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Shards per live histogram. Threads hash to a shard by registration
/// order of a thread-local id, so two ranks hammering the same metric
/// usually touch different cache lines.
pub const HIST_SHARDS: usize = 8;

#[derive(Debug)]
struct HistShard {
    /// One slot per bound plus the overflow bucket.
    counts: Vec<AtomicU64>,
    /// Sum of finite observations, stored as f64 bits, CAS-updated.
    sum_bits: AtomicU64,
    total: AtomicU64,
    quarantined: AtomicU64,
}

impl HistShard {
    fn new(buckets: usize) -> HistShard {
        HistShard {
            counts: (0..buckets).map(|_| AtomicU64::new(0)).collect(),
            sum_bits: AtomicU64::new(0f64.to_bits()),
            total: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
        }
    }

    fn add_sum(&self, value: f64) {
        let mut cur = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + value).to_bits();
            match self.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }
}

thread_local! {
    static MY_SHARD: usize = {
        static NEXT_SHARD: AtomicU64 = AtomicU64::new(0);
        NEXT_SHARD.fetch_add(1, Ordering::Relaxed) as usize % HIST_SHARDS
    };
}

/// Sharded fixed-bucket histogram safe for concurrent observation.
/// Shares the non-finite quarantine semantics of [`Histogram`].
#[derive(Debug, Clone)]
pub struct LiveHistogram {
    bounds: Arc<Vec<f64>>,
    shards: Arc<Vec<HistShard>>,
}

impl LiveHistogram {
    pub fn new(bounds: Vec<f64>) -> LiveHistogram {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        let buckets = bounds.len() + 1;
        LiveHistogram {
            bounds: Arc::new(bounds),
            shards: Arc::new((0..HIST_SHARDS).map(|_| HistShard::new(buckets)).collect()),
        }
    }

    pub fn observe(&self, value: f64) {
        let shard = &self.shards[MY_SHARD.with(|s| *s)];
        shard.total.fetch_add(1, Ordering::Relaxed);
        if !value.is_finite() {
            shard.quarantined.fetch_add(1, Ordering::Relaxed);
            return;
        }
        shard.counts[bucket_of(&self.bounds, value)].fetch_add(1, Ordering::Relaxed);
        shard.add_sum(value);
    }

    /// Fold all shards into a plain snapshot histogram.
    pub fn snapshot(&self) -> Histogram {
        let buckets = self.bounds.len() + 1;
        let mut counts = vec![0u64; buckets];
        let mut sum = 0.0;
        let mut total = 0u64;
        let mut quarantined = 0u64;
        for shard in self.shards.iter() {
            for (acc, slot) in counts.iter_mut().zip(&shard.counts) {
                *acc += slot.load(Ordering::Relaxed);
            }
            sum += f64::from_bits(shard.sum_bits.load(Ordering::Relaxed));
            total += shard.total.load(Ordering::Relaxed);
            quarantined += shard.quarantined.load(Ordering::Relaxed);
        }
        Histogram::from_parts((*self.bounds).clone(), counts, sum, total, quarantined)
    }
}

/// Point-in-time view of a [`LiveRegistry`]: plain values, serializable
/// to JSON and Prometheus text.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, f64>,
    pub histograms: BTreeMap<String, Histogram>,
}

impl Serialize for MetricsSnapshot {
    fn serialize(&self) -> Value {
        Value::Object(vec![
            (
                "counters".into(),
                Value::Object(
                    self.counters
                        .iter()
                        .map(|(k, v)| (k.clone(), v.serialize()))
                        .collect(),
                ),
            ),
            (
                "gauges".into(),
                Value::Object(
                    self.gauges
                        .iter()
                        .map(|(k, v)| (k.clone(), v.serialize()))
                        .collect(),
                ),
            ),
            (
                "histograms".into(),
                Value::Object(
                    self.histograms
                        .iter()
                        .map(|(k, v)| (k.clone(), v.serialize()))
                        .collect(),
                ),
            ),
        ])
    }
}

/// Sanitize a dotted metric name into a Prometheus-legal identifier.
fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 6);
    out.push_str("axonn_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

fn fmt_f64(v: f64) -> String {
    if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v}")
    }
}

impl MetricsSnapshot {
    /// Prometheus text exposition format (type hints + cumulative
    /// histogram buckets with an explicit `+Inf` bucket).
    pub fn prometheus_text(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.counters {
            let p = prom_name(name);
            out.push_str(&format!("# TYPE {p} counter\n{p} {value}\n"));
        }
        for (name, value) in &self.gauges {
            let p = prom_name(name);
            out.push_str(&format!("# TYPE {p} gauge\n{p} {}\n", fmt_f64(*value)));
        }
        for (name, h) in &self.histograms {
            let p = prom_name(name);
            out.push_str(&format!("# TYPE {p} histogram\n"));
            let mut cum = 0u64;
            for (i, &c) in h.bucket_counts().iter().enumerate() {
                cum += c;
                let le = h
                    .bounds()
                    .get(i)
                    .copied()
                    .map(fmt_f64)
                    .unwrap_or_else(|| "+Inf".to_string());
                out.push_str(&format!("{p}_bucket{{le=\"{le}\"}} {cum}\n"));
            }
            out.push_str(&format!("{p}_sum {}\n", fmt_f64(h.sum())));
            out.push_str(&format!("{p}_count {}\n", h.count()));
        }
        out
    }

    /// JSON form of the snapshot.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("snapshot serializes")
    }
}

#[derive(Debug, Default)]
struct LiveInner {
    counters: Mutex<BTreeMap<String, Counter>>,
    gauges: Mutex<BTreeMap<String, Gauge>>,
    hists: Mutex<BTreeMap<String, LiveHistogram>>,
}

/// Registry of live metric handles. Registration (`counter` / `gauge` /
/// `histogram`) takes a mutex and may allocate; it is meant to happen
/// once at setup. The returned handles are lock-free. Cloning shares
/// the registry.
#[derive(Debug, Clone, Default)]
pub struct LiveRegistry {
    inner: Arc<LiveInner>,
}

impl LiveRegistry {
    /// An empty registry.
    pub fn new() -> LiveRegistry {
        LiveRegistry::default()
    }

    /// Get or register a counter.
    pub fn counter(&self, name: &str) -> Counter {
        let mut map = self.inner.counters.lock().unwrap();
        map.entry(name.to_string()).or_default().clone()
    }

    /// Get or register a gauge.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut map = self.inner.gauges.lock().unwrap();
        map.entry(name.to_string()).or_default().clone()
    }

    /// Get or register a histogram. Bounds are fixed at first
    /// registration; later callers get the existing handle.
    pub fn histogram(&self, name: &str, bounds: &[f64]) -> LiveHistogram {
        let mut map = self.inner.hists.lock().unwrap();
        map.entry(name.to_string())
            .or_insert_with(|| LiveHistogram::new(bounds.to_vec()))
            .clone()
    }

    /// Coherent-enough point-in-time view of every registered metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters = self
            .inner
            .counters
            .lock()
            .unwrap()
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let gauges = self
            .inner
            .gauges
            .lock()
            .unwrap()
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let histograms = self
            .inner
            .hists
            .lock()
            .unwrap()
            .iter()
            .map(|(k, v)| (k.clone(), v.snapshot()))
            .collect();
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

/// Name of the histogram of overlap wait gaps (seconds the compute
/// stream blocked on an async collective), for readers of a snapshot.
pub const OVERLAP_WAIT_SECONDS_HIST: &str = "overlap.wait_seconds_hist";

/// Per-op handle bundle for one collective op.
#[derive(Debug, Clone)]
struct OpHandles {
    calls: Counter,
    bytes: Counter,
    chunks: Counter,
    alloc_bytes: Counter,
    pool_hits: Counter,
    pool_misses: Counter,
    bytes_hist: LiveHistogram,
    seconds_hist: LiveHistogram,
}

/// Pre-registered handles for everything the collectives hot paths
/// stamp, indexed by [`CollOp::index`]. Built once per world; stamping
/// is array index + atomic adds, no map lookups or allocation.
///
/// The one place the `collective.{op}.*` and `overlap.*` names are
/// spelled: [`fold_traces`] stamps a finished trace through this facade
/// too, so a live snapshot and a post-hoc aggregation of the same run
/// line up.
#[derive(Debug, Clone)]
pub struct LiveCollectives {
    ops: Vec<OpHandles>,
    overlap_waits: Counter,
    overlap_wait_seconds: LiveHistogram,
}

impl LiveCollectives {
    pub fn new(registry: &LiveRegistry) -> LiveCollectives {
        let ops = CollOp::ALL
            .iter()
            .map(|op| {
                let n = op.name();
                OpHandles {
                    calls: registry.counter(&format!("collective.{n}.calls")),
                    bytes: registry.counter(&format!("collective.{n}.bytes")),
                    chunks: registry.counter(&format!("collective.{n}.chunks")),
                    alloc_bytes: registry.counter(&format!("collective.{n}.alloc_bytes")),
                    pool_hits: registry.counter(&format!("collective.{n}.pool_hits")),
                    pool_misses: registry.counter(&format!("collective.{n}.pool_misses")),
                    bytes_hist: registry
                        .histogram(&format!("collective.{n}.bytes_hist"), &BYTES_BOUNDS),
                    seconds_hist: registry
                        .histogram(&format!("collective.{n}.seconds_hist"), &SECONDS_BOUNDS),
                }
            })
            .collect();
        LiveCollectives {
            ops,
            overlap_waits: registry.counter("overlap.waits"),
            overlap_wait_seconds: registry.histogram(OVERLAP_WAIT_SECONDS_HIST, &SECONDS_BOUNDS),
        }
    }

    /// Stamp one finished collective. `seconds` is the modeled op time
    /// when the world tracks time (`None` on untimed worlds — the
    /// seconds histogram is skipped; only timed worlds record collective
    /// trace events, so [`fold_traces`] always has one).
    pub fn record_collective(&self, op: CollOp, bytes: u64, seconds: Option<f64>, xfer: XferStats) {
        let h = &self.ops[op.index()];
        h.calls.inc();
        h.bytes.add(bytes);
        h.bytes_hist.observe(bytes as f64);
        if let Some(s) = seconds {
            h.seconds_hist.observe(s);
        }
        h.chunks.add(xfer.chunks as u64);
        h.alloc_bytes.add(xfer.alloc_bytes);
        h.pool_hits.add(xfer.pool_hits);
        h.pool_misses.add(xfer.pool_misses);
    }

    /// Stamp one overlap wait gap (virtual seconds the main stream
    /// blocked on an async collective).
    pub fn record_wait(&self, gap_seconds: f64) {
        self.overlap_waits.inc();
        self.overlap_wait_seconds.observe(gap_seconds);
    }
}

/// Fold finished traces into `registry`. Collective and overlap-wait
/// events go through [`LiveCollectives`], the calls the runtime makes as
/// it runs, so they land under the same names. GEMM events add to
/// `gemm.{mode}.{calls,flops,packed_bytes,panels}` and tuner decisions
/// to `tuner.decisions`; only the trace plane produces those.
pub fn fold_traces(traces: &[RankTrace], registry: &LiveRegistry) {
    let colls = LiveCollectives::new(registry);
    for ev in traces.iter().flat_map(|t| &t.events) {
        match &ev.detail {
            EventDetail::Collective {
                op,
                bytes,
                op_seconds,
                ..
            } => colls.record_collective(*op, *bytes, Some(*op_seconds), ev.xfer),
            EventDetail::OverlapWait { .. } => colls.record_wait(ev.t_end - ev.t_start),
            EventDetail::Gemm {
                mode,
                flops,
                packed_bytes,
                panels,
            } => {
                registry.counter(&format!("gemm.{mode}.calls")).inc();
                registry
                    .counter(&format!("gemm.{mode}.flops"))
                    .add(*flops as u64);
                registry
                    .counter(&format!("gemm.{mode}.packed_bytes"))
                    .add(*packed_bytes);
                registry
                    .counter(&format!("gemm.{mode}.panels"))
                    .add(*panels as u64);
            }
            EventDetail::TunerDecision { .. } => registry.counter("tuner.decisions").inc(),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_roundtrip() {
        let reg = LiveRegistry::new();
        let c = reg.counter("x.calls");
        c.add(3);
        reg.counter("x.calls").inc(); // same cell
        let g = reg.gauge("x.load");
        g.set(2.5);
        let snap = reg.snapshot();
        assert_eq!(snap.counters["x.calls"], 4);
        assert!((snap.gauges["x.load"] - 2.5).abs() < 1e-12);
    }

    #[test]
    fn live_histogram_quarantines_and_snapshots() {
        let h = LiveHistogram::new(vec![1.0, 10.0]);
        h.observe(0.5);
        h.observe(5.0);
        h.observe(f64::NAN);
        let snap = h.snapshot();
        assert_eq!(snap.count(), 3);
        assert_eq!(snap.quarantined(), 1);
        assert!((snap.sum() - 5.5).abs() < 1e-12);
    }

    #[test]
    fn live_histogram_concurrent_observers() {
        let h = LiveHistogram::new(vec![1.0, 10.0, 100.0]);
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let h = h.clone();
                std::thread::spawn(move || {
                    for i in 0..1000 {
                        h.observe((i % 20) as f64);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let snap = h.snapshot();
        assert_eq!(snap.count(), 4000);
        assert_eq!(snap.bucket_counts().iter().sum::<u64>(), 4000);
    }

    #[test]
    fn prometheus_text_exposition() {
        let reg = LiveRegistry::new();
        reg.counter("collective.all_reduce.calls").add(2);
        reg.gauge("rank0.heartbeat_age_ms").set(12.0);
        let h = reg.histogram("lat", &[1.0, 10.0]);
        h.observe(0.5);
        h.observe(50.0);
        let text = reg.snapshot().prometheus_text();
        assert!(text.contains("# TYPE axonn_collective_all_reduce_calls counter"));
        assert!(text.contains("axonn_collective_all_reduce_calls 2"));
        assert!(text.contains("# TYPE axonn_rank0_heartbeat_age_ms gauge"));
        assert!(text.contains("axonn_lat_bucket{le=\"1\"} 1"));
        assert!(text.contains("axonn_lat_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("axonn_lat_count 2"));
        // JSON snapshot parses.
        let json = reg.snapshot().to_json();
        assert!(json.contains("\"counters\""));
    }

    fn fold_one(record: impl FnOnce(&crate::TraceSink)) -> MetricsSnapshot {
        let sink = crate::TraceSink::new(0);
        record(&sink);
        let reg = LiveRegistry::new();
        fold_traces(&[sink.finish()], &reg);
        reg.snapshot()
    }

    #[test]
    fn fold_aggregates_bytes_flops_and_waits() {
        use crate::event::Stream;
        let snap = fold_one(|sink| {
            sink.record_scoped(
                Stream::Compute,
                0.0,
                1.0,
                EventDetail::Collective {
                    op: CollOp::AllReduce,
                    group_size: 4,
                    bytes: 4096,
                    seq: 0,
                    blocking: true,
                    op_seconds: 1.0,
                },
            );
            sink.record_scoped(
                Stream::Compute,
                1.0,
                2.0,
                EventDetail::Gemm {
                    mode: "NN",
                    flops: 1000.0,
                    packed_bytes: 2048,
                    panels: 3,
                },
            );
            sink.record_scoped(
                Stream::Compute,
                2.0,
                2.5,
                EventDetail::OverlapWait {
                    op: CollOp::AllGather,
                    seq: 1,
                },
            );
        });
        assert_eq!(snap.counters["collective.all_reduce.bytes"], 4096);
        assert_eq!(snap.counters["collective.all_reduce.calls"], 1);
        assert_eq!(snap.counters["gemm.NN.flops"], 1000);
        assert_eq!(snap.counters["gemm.NN.packed_bytes"], 2048);
        assert_eq!(snap.counters["gemm.NN.panels"], 3);
        assert_eq!(
            snap.histograms["collective.all_reduce.bytes_hist"].count(),
            1
        );
        assert_eq!(
            snap.histograms["collective.all_reduce.seconds_hist"].count(),
            1
        );
        assert_eq!(snap.counters["overlap.waits"], 1);
        let waits = &snap.histograms[OVERLAP_WAIT_SECONDS_HIST];
        assert_eq!((waits.count(), waits.sum()), (1, 0.5));
        // Deterministic serialization (sorted keys).
        let a = serde_json::to_string(&snap).unwrap();
        let b = serde_json::to_string(&snap.clone()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn fold_aggregates_transport_xfer_counters() {
        use crate::event::Stream;
        let coll = |seq| EventDetail::Collective {
            op: CollOp::AllReduce,
            group_size: 4,
            bytes: 4096,
            seq,
            blocking: true,
            op_seconds: 1.0,
        };
        let snap = fold_one(|sink| {
            sink.record_xfer(
                Stream::Compute,
                0.0,
                1.0,
                0,
                0,
                None,
                coll(0),
                XferStats {
                    chunks: 2,
                    alloc_bytes: 8192,
                    pool_hits: 0,
                    pool_misses: 2,
                },
            );
            sink.record_xfer(
                Stream::Compute,
                1.0,
                2.0,
                0,
                0,
                None,
                coll(1),
                XferStats {
                    chunks: 2,
                    alloc_bytes: 0,
                    pool_hits: 2,
                    pool_misses: 0,
                },
            );
        });
        assert_eq!(snap.counters["collective.all_reduce.chunks"], 4);
        assert_eq!(snap.counters["collective.all_reduce.alloc_bytes"], 8192);
        assert_eq!(snap.counters["collective.all_reduce.pool_hits"], 2);
        assert_eq!(snap.counters["collective.all_reduce.pool_misses"], 2);
    }
}
