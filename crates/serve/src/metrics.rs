//! `serve.*` metrics in the live registry — the serving plane's half of
//! the dashboard vocabulary `axonnctl monitor` renders.

use axonn_trace::{Counter, Gauge, LiveHistogram, LiveRegistry, SECONDS_BOUNDS};

/// Handle bundle over a [`LiveRegistry`]: one registration at engine
/// construction, lock-free stamping on the decode path.
#[derive(Clone)]
pub struct ServeMetrics {
    registry: LiveRegistry,
    pub submitted: Counter,
    pub admitted: Counter,
    pub completed: Counter,
    pub rejected: Counter,
    pub evicted: Counter,
    pub prefill_tokens: Counter,
    pub decoded_tokens: Counter,
    pub queue_depth: Gauge,
    pub in_flight: Gauge,
    pub tokens_per_s: Gauge,
    pub ttft_seconds: LiveHistogram,
    pub latency_seconds: LiveHistogram,
    pub step_seconds: LiveHistogram,
}

impl ServeMetrics {
    pub fn new(registry: &LiveRegistry) -> ServeMetrics {
        ServeMetrics {
            registry: registry.clone(),
            submitted: registry.counter("serve.requests.submitted"),
            admitted: registry.counter("serve.requests.admitted"),
            completed: registry.counter("serve.requests.completed"),
            rejected: registry.counter("serve.requests.rejected"),
            evicted: registry.counter("serve.requests.evicted"),
            prefill_tokens: registry.counter("serve.tokens.prefill"),
            decoded_tokens: registry.counter("serve.tokens.decoded"),
            queue_depth: registry.gauge("serve.queue.depth"),
            in_flight: registry.gauge("serve.requests.in_flight"),
            tokens_per_s: registry.gauge("serve.tokens_per_s"),
            ttft_seconds: registry.histogram("serve.ttft.seconds", &SECONDS_BOUNDS),
            latency_seconds: registry.histogram("serve.latency.seconds", &SECONDS_BOUNDS),
            step_seconds: registry.histogram("serve.step.seconds", &SECONDS_BOUNDS),
        }
    }

    /// The registry this bundle stamps into (shared, cloneable).
    pub fn registry(&self) -> &LiveRegistry {
        &self.registry
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_register_under_serve_names() {
        let reg = LiveRegistry::new();
        let m = ServeMetrics::new(&reg);
        m.submitted.inc();
        m.decoded_tokens.add(5);
        m.queue_depth.set(3.0);
        m.ttft_seconds.observe(0.002);
        let snap = reg.snapshot();
        assert_eq!(snap.counters.get("serve.requests.submitted"), Some(&1));
        assert_eq!(snap.counters.get("serve.tokens.decoded"), Some(&5));
        assert_eq!(snap.gauges.get("serve.queue.depth"), Some(&3.0));
        assert!(snap.histograms.contains_key("serve.ttft.seconds"));
    }
}
