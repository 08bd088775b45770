//! The [`Telemetry`] facade instrumented code talks to.
//!
//! A `Telemetry` bundles a span collection and a [`MetricsRegistry`].
//! Instrumented functions take `&mut Telemetry`; callers that do not care
//! pass [`Telemetry::disabled`], whose every operation is a cheap no-op, so
//! instrumentation costs nothing on un-observed paths.

use crate::json::{parse, Json};
use crate::metrics::MetricsRegistry;
use crate::sink::{Event, EventSink};
use crate::span::{SpanId, SpanRecord};
// This file is the sanctioned wall_ms path (mdbs-lint's WALL_CLOCK_ALLOWED);
// determinism comparisons strip wall_ms from spans.
#[allow(clippy::disallowed_types)]
use std::time::Instant;

/// JSON field names that carry wall-clock (non-deterministic) values.
///
/// [`strip_wall_clock`] removes exactly these keys; determinism tests
/// compare what remains byte for byte.
pub const WALL_CLOCK_FIELDS: &[&str] = &["wall_ms"];

/// Metric-name prefixes whose events are scheduling-dependent and therefore
/// non-deterministic across worker counts (e.g. work-steal counts, queue
/// depths, configured worker counts of the derivation pool).
///
/// [`strip_wall_clock`] drops whole counter/gauge/histogram events whose
/// `name` starts with one of these prefixes, so telemetry from an N-worker
/// batch run can be compared byte for byte against a serial run. Everything
/// else in the stream must stay a pure function of the seeds.
pub const SCHEDULING_METRIC_PREFIXES: &[&str] = &["pool.sched."];

/// A telemetry collection: hierarchical spans plus a metrics registry.
#[derive(Debug)]
pub struct Telemetry {
    enabled: bool,
    /// The metrics registry (counters, gauges, histograms).
    pub metrics: MetricsRegistry,
    spans: Vec<SpanRecord>,
    #[allow(clippy::disallowed_types)]
    starts: Vec<Option<Instant>>,
    open: Vec<usize>,
}

impl Default for Telemetry {
    /// The default collection is [`Telemetry::disabled`]: instrumentation
    /// that receives it costs nothing and records nothing.
    fn default() -> Self {
        Telemetry::disabled()
    }
}

impl Telemetry {
    /// A recording collection.
    pub fn enabled() -> Self {
        Telemetry {
            enabled: true,
            metrics: MetricsRegistry::new(),
            spans: Vec::new(),
            starts: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A no-op collection: every method returns immediately.
    pub fn disabled() -> Self {
        Telemetry {
            enabled: false,
            metrics: MetricsRegistry::new(),
            spans: Vec::new(),
            starts: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether this collection records anything.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Appends another collection's spans and metrics to this one.
    ///
    /// Child spans keep their relative order and nesting; their `seq` and
    /// `parent` numbers are offset past this collection's existing spans.
    /// With `under = Some(span)`, the child's root spans are re-parented
    /// beneath that span (open or closed) and every depth is shifted
    /// accordingly; with `under = None` they stay roots. Metrics are folded
    /// in via [`MetricsRegistry::merge`]. The result depends only on the
    /// order of `merge_child` calls, so a batch runner that merges per-job
    /// collections in job-id order gets deterministic combined telemetry no
    /// matter which threads produced them.
    pub fn merge_child(&mut self, child: Telemetry, under: Option<SpanId>) {
        if !self.enabled {
            return;
        }
        let offset = self.spans.len() as u64;
        let (anchor_seq, depth_shift) = match under {
            Some(span) if span != SpanId::DISABLED => match self.spans.get(span.0) {
                Some(record) => (Some(record.seq), record.depth + 1),
                None => (None, 0),
            },
            _ => (None, 0),
        };
        for mut span in child.spans {
            span.seq += offset;
            span.parent = match span.parent {
                Some(parent) => Some(parent + offset),
                None => anchor_seq,
            };
            span.depth += depth_shift;
            self.spans.push(span);
            self.starts.push(None);
        }
        self.metrics.merge(&child.metrics);
    }

    /// Opens a span; it becomes the child of the innermost open span.
    #[allow(clippy::disallowed_methods, clippy::disallowed_types)]
    pub fn begin_span(&mut self, name: &str) -> SpanId {
        if !self.enabled {
            return SpanId::DISABLED;
        }
        let seq = self.spans.len() as u64;
        let parent = self.open.last().map(|&i| self.spans[i].seq);
        let depth = self.open.len();
        self.spans.push(SpanRecord {
            name: name.to_string(),
            seq,
            parent,
            depth,
            fields: Vec::new(),
            wall_ms: 0.0,
            closed: false,
        });
        self.starts.push(Some(Instant::now()));
        self.open.push(seq as usize);
        SpanId(seq as usize)
    }

    /// Attaches a deterministic field to a span (open or closed).
    pub fn field(&mut self, span: SpanId, key: &str, value: impl Into<Json>) {
        if !self.enabled || span == SpanId::DISABLED {
            return;
        }
        if let Some(record) = self.spans.get_mut(span.0) {
            record.fields.push((key.to_string(), value.into()));
        }
    }

    /// Closes a span, recording its wall-clock duration. Any still-open
    /// descendants are closed too (spans strictly nest).
    pub fn end_span(&mut self, span: SpanId) {
        if !self.enabled || span == SpanId::DISABLED {
            return;
        }
        while let Some(&top) = self.open.last() {
            let record = &mut self.spans[top];
            record.closed = true;
            if let Some(start) = self.starts[top].take() {
                record.wall_ms = start.elapsed().as_secs_f64() * 1e3;
            }
            self.open.pop();
            if top == span.0 {
                break;
            }
        }
    }

    /// Increments a counter.
    pub fn inc(&mut self, name: &str, delta: u64) {
        if self.enabled {
            self.metrics.inc(name, delta);
        }
    }

    /// Sets a gauge.
    pub fn gauge(&mut self, name: &str, value: f64) {
        if self.enabled {
            self.metrics.set_gauge(name, value);
        }
    }

    /// Records a histogram observation.
    pub fn observe(&mut self, name: &str, value: f64) {
        if self.enabled {
            self.metrics.observe(name, value);
        }
    }

    /// Folds an external registry (e.g. an agent's) into this collection.
    pub fn merge_metrics(&mut self, other: &MetricsRegistry) {
        if self.enabled {
            self.metrics.merge(other);
        }
    }

    /// The recorded spans, in begin order.
    pub fn spans(&self) -> &[SpanRecord] {
        &self.spans
    }

    /// All recorded data as structured events: spans in begin order, then
    /// counters, gauges and histogram summaries in name order.
    pub fn events(&self) -> Vec<Event> {
        let mut events: Vec<Event> = self.spans.iter().cloned().map(Event::Span).collect();
        for (name, value) in self.metrics.counters() {
            events.push(Event::Counter {
                name: name.to_string(),
                value,
            });
        }
        for (name, value) in self.metrics.gauges() {
            events.push(Event::Gauge {
                name: name.to_string(),
                value,
            });
        }
        for (name, hist) in self.metrics.histograms() {
            events.push(Event::Histogram {
                name: name.to_string(),
                summary: hist.summary(),
            });
        }
        events
    }

    /// Emits every event into a sink (memory, discarding or file-backed).
    pub fn emit_to(&self, sink: &mut dyn EventSink) {
        for event in self.events() {
            sink.emit(&event);
        }
    }

    /// Renders every event as JSONL (one JSON object per line).
    pub fn render_jsonl(&self) -> String {
        let mut out = String::new();
        for event in self.events() {
            out.push_str(&event.to_json().render());
            out.push('\n');
        }
        out
    }

    /// Renders a human-readable summary: the span tree (with wall-clock
    /// durations, which are non-deterministic) followed by the metrics.
    pub fn render_summary(&self) -> String {
        let mut out = String::new();
        if !self.spans.is_empty() {
            out.push_str("spans (wall-clock is non-deterministic):\n");
            for span in &self.spans {
                out.push_str(&"  ".repeat(span.depth + 1));
                out.push_str(&span.name);
                for (key, value) in &span.fields {
                    out.push_str(&format!(" {key}={}", value.render()));
                }
                out.push_str(&format!(" [{:.2} ms]\n", span.wall_ms));
            }
        }
        out.push_str(&self.metrics.render_text());
        if out.is_empty() {
            out.push_str("(no telemetry recorded)\n");
        }
        out
    }
}

/// Removes every [`WALL_CLOCK_FIELDS`] key from each JSONL line and drops
/// whole metric events whose name falls under [`SCHEDULING_METRIC_PREFIXES`],
/// returning the deterministic remainder (lines that fail to parse pass
/// through verbatim). Two same-seed runs — at any worker count — must agree
/// byte for byte on the result.
pub fn strip_wall_clock(jsonl: &str) -> String {
    let mut out = String::new();
    for line in jsonl.lines() {
        if line.trim().is_empty() {
            continue;
        }
        match parse(line) {
            Ok(mut value) => {
                if is_scheduling_metric(&value) {
                    continue;
                }
                strip(&mut value);
                out.push_str(&value.render());
            }
            Err(_) => out.push_str(line),
        }
        out.push('\n');
    }
    out
}

/// Whether an event line is a scheduling-dependent metric (dropped whole by
/// [`strip_wall_clock`]). Spans are never dropped: pipeline code must not
/// name spans under a scheduling prefix.
fn is_scheduling_metric(value: &Json) -> bool {
    let is_metric = matches!(
        value.get("type").and_then(Json::as_str),
        Some("counter" | "gauge" | "histogram")
    );
    is_metric
        && value
            .get("name")
            .and_then(Json::as_str)
            .is_some_and(|name| {
                SCHEDULING_METRIC_PREFIXES
                    .iter()
                    .any(|prefix| name.starts_with(prefix))
            })
}

fn strip(value: &mut Json) {
    match value {
        Json::Obj(pairs) => {
            pairs.retain(|(key, _)| !WALL_CLOCK_FIELDS.contains(&key.as_str()));
            for (_, v) in pairs {
                strip(v);
            }
        }
        Json::Arr(items) => {
            for v in items {
                strip(v);
            }
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::MemorySink;

    fn sample() -> Telemetry {
        let mut tel = Telemetry::enabled();
        let root = tel.begin_span("derive");
        let child = tel.begin_span("derive.sampling");
        tel.field(child, "observations", 200u64);
        tel.field(child, "virtual_s", 12.5);
        tel.end_span(child);
        tel.field(root, "class", "G1");
        tel.end_span(root);
        tel.inc("engine.executions", 401);
        tel.gauge("engine.cost.cpu_s", 3.25);
        tel.observe("engine.contention_inflation", 4.0);
        tel
    }

    #[test]
    fn spans_nest_and_close() {
        let tel = sample();
        let spans = tel.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "derive");
        assert_eq!(spans[0].depth, 0);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].name, "derive.sampling");
        assert_eq!(spans[1].depth, 1);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.closed));
    }

    #[test]
    fn ending_a_parent_closes_open_children() {
        let mut tel = Telemetry::enabled();
        let root = tel.begin_span("outer");
        let _leaked = tel.begin_span("inner");
        tel.end_span(root);
        assert!(tel.spans().iter().all(|s| s.closed));
    }

    #[test]
    fn disabled_telemetry_records_nothing() {
        let mut tel = Telemetry::disabled();
        let span = tel.begin_span("x");
        tel.field(span, "k", 1u64);
        tel.end_span(span);
        tel.inc("c", 1);
        tel.observe("h", 1.0);
        assert!(!tel.is_enabled());
        assert!(tel.spans().is_empty());
        assert!(tel.metrics.is_empty());
        assert_eq!(tel.render_jsonl(), "");
        assert!(tel.render_summary().contains("no telemetry"));
    }

    #[test]
    fn jsonl_lines_all_parse() {
        let tel = sample();
        let jsonl = tel.render_jsonl();
        // 2 spans + 1 counter + 1 gauge + 1 histogram.
        assert_eq!(jsonl.lines().count(), 5);
        for line in jsonl.lines() {
            parse(line).expect("every line is valid JSON");
        }
    }

    #[test]
    fn emit_to_matches_events() {
        let tel = sample();
        let mut sink = MemorySink::new();
        tel.emit_to(&mut sink);
        assert_eq!(sink.events(), tel.events().as_slice());
    }

    #[test]
    fn strip_wall_clock_removes_only_wall_fields() {
        let tel = sample();
        let stripped = strip_wall_clock(&tel.render_jsonl());
        assert!(!stripped.contains("wall_ms"), "{stripped}");
        assert!(stripped.contains("derive.sampling"));
        assert!(stripped.contains("\"observations\":200"));
        assert!(stripped.contains("engine.executions"));
    }

    #[test]
    fn stripped_jsonl_is_deterministic_across_identical_recordings() {
        let a = strip_wall_clock(&sample().render_jsonl());
        let b = strip_wall_clock(&sample().render_jsonl());
        assert_eq!(a, b);
    }

    #[test]
    fn default_telemetry_is_disabled() {
        let tel = Telemetry::default();
        assert!(!tel.is_enabled());
        assert!(tel.spans().is_empty());
    }

    #[test]
    fn merge_child_reparents_and_offsets_child_spans() {
        let mut parent = Telemetry::enabled();
        let batch = parent.begin_span("derive_all");

        let mut child = Telemetry::enabled();
        let job = child.begin_span("derive");
        let stage = child.begin_span("derive.fit");
        child.end_span(stage);
        child.end_span(job);
        child.inc("engine.executions", 7);

        parent.merge_child(child, Some(batch));
        parent.end_span(batch);

        let spans = parent.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].name, "derive");
        assert_eq!(spans[1].seq, 1);
        assert_eq!(
            spans[1].parent,
            Some(0),
            "child root hangs off the batch span"
        );
        assert_eq!(spans[1].depth, 1);
        assert_eq!(spans[2].name, "derive.fit");
        assert_eq!(spans[2].parent, Some(1), "internal nesting is preserved");
        assert_eq!(spans[2].depth, 2);
        assert!(spans.iter().all(|s| s.closed));
        assert_eq!(parent.metrics.counter("engine.executions"), 7);
    }

    #[test]
    fn merge_child_without_anchor_keeps_roots_as_roots() {
        let mut parent = Telemetry::enabled();
        let early = parent.begin_span("setup");
        parent.end_span(early);

        let mut child = Telemetry::enabled();
        let job = child.begin_span("derive");
        child.end_span(job);

        parent.merge_child(child, None);
        let spans = parent.spans();
        assert_eq!(spans[1].parent, None);
        assert_eq!(spans[1].depth, 0);
        assert_eq!(spans[1].seq, 1);
    }

    #[test]
    fn merge_child_order_determines_output_not_thread_timing() {
        let make = |tag: &str| {
            let mut tel = Telemetry::enabled();
            let s = tel.begin_span(tag);
            tel.end_span(s);
            tel
        };
        let mut a = Telemetry::enabled();
        a.merge_child(make("job0"), None);
        a.merge_child(make("job1"), None);
        let mut b = Telemetry::enabled();
        b.merge_child(make("job0"), None);
        b.merge_child(make("job1"), None);
        assert_eq!(
            strip_wall_clock(&a.render_jsonl()),
            strip_wall_clock(&b.render_jsonl())
        );
    }

    #[test]
    fn merge_child_into_disabled_parent_is_a_noop() {
        let mut parent = Telemetry::disabled();
        let mut child = Telemetry::enabled();
        let s = child.begin_span("derive");
        child.end_span(s);
        child.inc("engine.executions", 1);
        parent.merge_child(child, None);
        assert!(parent.spans().is_empty());
        assert!(parent.metrics.is_empty());
    }

    #[test]
    fn strip_drops_scheduling_metrics_but_keeps_like_named_spans() {
        let mut tel = Telemetry::enabled();
        let span = tel.begin_span("derive_all");
        tel.end_span(span);
        tel.inc("pool.jobs_completed", 4);
        tel.inc("pool.sched.steals", 3);
        tel.gauge("pool.sched.workers", 2.0);
        tel.observe("pool.sched.queue_depth", 5.0);
        let stripped = strip_wall_clock(&tel.render_jsonl());
        assert!(!stripped.contains("pool.sched."), "{stripped}");
        assert!(
            stripped.contains("pool.jobs_completed"),
            "deterministic pool counters must survive: {stripped}"
        );
        assert!(stripped.contains("derive_all"));
    }

    #[test]
    fn summary_mentions_spans_and_metrics() {
        let text = sample().render_summary();
        assert!(text.contains("derive.sampling"), "{text}");
        assert!(text.contains("observations=200"), "{text}");
        assert!(text.contains("engine.executions = 401"), "{text}");
        assert!(text.contains("engine.contention_inflation: n=1"), "{text}");
    }
}
