//! The harness's own trace: one span around every call it makes into
//! the program (name, start, end, the span that caused it, request id).
//! Spans stay in memory and are written out when the run ends. Spans
//! *inside* the program are a later change; see the README's known gaps.

use serde::Value;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Index of the request in the seeded request sequence.
    pub request: Option<u64>,
}

pub struct Spans {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle returned by [`Spans::begin`]; `None` when tracing is off.
pub type SpanId = Option<usize>;

impl Spans {
    pub fn enabled() -> Spans {
        Spans {
            origin: Instant::now(),
            enabled: true,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// The untraced runs: every call is a branch and nothing else.
    pub fn disabled() -> Spans {
        Spans {
            enabled: false,
            ..Spans::enabled()
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str, request: Option<u64>) -> SpanId {
        if !self.enabled {
            return None;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(id);
        Some(id)
    }

    pub fn end(&mut self, id: SpanId) {
        let Some(id) = id else { return };
        self.spans[id].end_ns = self.now_ns();
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans must close innermost first");
    }

    /// Record a span whose endpoints were measured elsewhere (a training
    /// step timed on rank 0's thread), in nanoseconds from `origin`.
    pub fn push_measured(
        &mut self,
        name: &'static str,
        origin: Instant,
        start_ns: u64,
        end_ns: u64,
    ) {
        if !self.enabled {
            return;
        }
        let shift = origin.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: start_ns + shift,
            end_ns: end_ns + shift,
            parent: self.open.last().copied(),
            request: None,
        });
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn to_json(&self) -> Value {
        Value::Array(
            self.spans
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    let opt = |v: Option<u64>| v.map_or(Value::Null, Value::UInt);
                    Value::Object(vec![
                        ("id".into(), Value::UInt(i as u64)),
                        ("name".into(), Value::Str(s.name.into())),
                        ("start_ns".into(), Value::UInt(s.start_ns)),
                        ("end_ns".into(), Value::UInt(s.end_ns)),
                        ("parent".into(), opt(s.parent.map(|p| p as u64))),
                        ("request".into(), opt(s.request)),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_disabled_records_nothing() {
        let mut s = Spans::enabled();
        let outer = s.begin("timed", None);
        let inner = s.begin("step", Some(3));
        s.end(inner);
        s.end(outer);
        assert_eq!(s.len(), 2);
        assert_eq!(s.spans[1].parent, Some(0));
        assert_eq!(s.spans[1].request, Some(3));
        assert!(s.spans[0].end_ns >= s.spans[1].end_ns);

        let mut off = Spans::disabled();
        let id = off.begin("step", None);
        off.end(id);
        assert_eq!(off.len(), 0);
    }
}
