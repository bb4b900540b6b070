//! In-memory host-time spans recorded around the benchmark's calls into
//! each layer, written out as a Chrome trace when the run ends.
//!
//! Every span names its parent, so self time (duration minus the part of
//! the interval its children cover) attributes a pass's wall time to the
//! layer that spent it. Worker threads do not touch the tracer: they
//! return raw `Instant`s and the main thread files them after the join.

use std::time::Instant;

use crate::json::Value;

/// Index of a span inside its [`Tracer`].
pub type SpanId = usize;

/// One closed interval of host time.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: String,
    pub parent: Option<SpanId>,
    /// Chrome-trace thread lane (0 = main thread, `1 + t` = worker `t`).
    pub lane: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder. A disabled tracer records nothing and hands out a dummy
/// id, so untraced runs pay one branch per boundary.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span on the main lane now; close it with [`Tracer::close`].
    pub fn open(&mut self, name: impl Into<String>, parent: Option<SpanId>) -> SpanId {
        let now = Instant::now();
        self.record(name, parent, 0, now, now)
    }

    /// Closes a span opened with [`Tracer::open`] now.
    pub fn close(&mut self, id: SpanId) {
        self.close_at(id, Instant::now());
    }

    /// Closes a span at an instant taken elsewhere (a worker thread's
    /// start, say).
    pub fn close_at(&mut self, id: SpanId, end: Instant) {
        if self.enabled {
            self.spans[id].end_ns = self.ns(end);
        }
    }

    /// Files a span whose endpoints were taken elsewhere.
    pub fn record(
        &mut self,
        name: impl Into<String>,
        parent: Option<SpanId>,
        lane: u32,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        if !self.enabled {
            return 0;
        }
        let span = Span {
            name: name.into(),
            parent,
            lane,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Median duration in seconds of the spans called `name` (0 if none).
    pub fn median_seconds(&self, name: &str) -> f64 {
        let mut durations: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e9)
            .collect();
        crate::stats::sort(&mut durations);
        crate::stats::median(&durations)
    }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its direct children (children may overlap —
/// worker threads under one pass — and are clipped to the parent).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let lo = s.start_ns.max(spans[p].start_ns);
            let hi = s.end_ns.min(spans[p].end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (lo, hi) in kids {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Renders the spans as a Chrome trace (`chrome://tracing`, Perfetto):
/// complete events in microseconds, with the span id, parent id and self
/// time in `args`.
pub fn chrome_trace(spans: &[Span]) -> Value {
    let selfs = self_times(spans);
    let events = spans
        .iter()
        .enumerate()
        .map(|(id, s)| {
            Value::Obj(vec![
                ("name".into(), Value::str(s.name.as_str())),
                ("ph".into(), Value::str("X")),
                ("pid".into(), Value::u64(1)),
                ("tid".into(), Value::u64(u64::from(s.lane))),
                ("ts".into(), Value::f64(s.start_ns as f64 / 1e3)),
                ("dur".into(), Value::f64(s.duration_ns() as f64 / 1e3)),
                (
                    "args".into(),
                    Value::Obj(vec![
                        ("id".into(), Value::u64(id as u64)),
                        (
                            "parent".into(),
                            s.parent.map_or(Value::Null, |p| Value::u64(p as u64)),
                        ),
                        ("self_us".into(), Value::f64(selfs[id] as f64 / 1e3)),
                    ]),
                ),
            ])
        })
        .collect();
    Value::Obj(vec![
        ("displayTimeUnit".into(), Value::str("ns")),
        ("traceEvents".into(), Value::Arr(events)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, parent: Option<SpanId>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: name.into(),
            parent,
            lane: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("pass", None, 0, 100),
            // Two overlapping worker threads cover 10..70 together.
            span("thread[0]", Some(0), 10, 60),
            span("thread[1]", Some(0), 20, 70),
            // A grandchild only reduces its own parent.
            span("txn", Some(1), 30, 40),
            // A child leaking past the parent is clipped to it.
            span("verify", Some(0), 90, 130),
        ];
        assert_eq!(self_times(&spans), vec![100 - 60 - 10, 50 - 10, 50, 10, 40]);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.open("workload", None);
        t.close(id);
        assert!(t.spans().is_empty());
        assert_eq!(t.median_seconds("workload"), 0.0);
    }

    #[test]
    fn chrome_trace_carries_parent_ids_and_parses_back() {
        let mut t = Tracer::new(true);
        let root = t.open("workload", None);
        let child = t.open("setup", Some(root));
        t.close(child);
        t.close(root);
        let text = chrome_trace(t.spans()).to_string();
        let doc = crate::json::parse(&text).expect("valid JSON");
        let events = doc
            .get("traceEvents")
            .and_then(Value::as_arr)
            .expect("events");
        assert_eq!(events.len(), 2);
        let parent = events[1].get("args").and_then(|a| a.get("parent"));
        assert_eq!(parent.and_then(Value::as_u64), Some(root as u64));
    }
}
