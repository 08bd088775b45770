//! Serving-loop flight recorder and accuracy ledger.
//!
//! Two deterministic observability primitives used by the long-lived
//! estimation server:
//!
//! * [`FlightRecorder`] — a bounded ring of per-request lifecycle
//!   records plus an unbounded log of maintenance / heartbeat / anomaly
//!   events, dumpable as JSONL. Request records are evicted oldest-first
//!   once the ring is full; maintenance events are always retained
//!   because they are few and each one explains a model change.
//! * [`AccuracyLedger`] — per-(site, state) rolling statistics of the
//!   relative error between a served estimate and the cost later
//!   observed for the same site, the residual stream that
//!   feedback-driven model correction consumes.
//!
//! Every field in every record is derived from virtual trace time and
//! seeded computation — nothing here reads a clock, so dumps are
//! byte-identical across runs and worker counts and pass through
//! [`crate::strip_wall_clock`] unchanged.

use std::collections::BTreeMap;
use std::collections::VecDeque;

use crate::json::Json;
use crate::metrics::percentile_sorted;
use crate::Telemetry;

/// Record type tag carried by every flight-recorder JSONL line.
pub const FLIGHT_RECORD_TYPE: &str = "flight";

/// Bounded ring of request lifecycles plus an unbounded maintenance log.
///
/// A capacity of `0` disables the recorder: every `record_*` call is a
/// no-op and [`FlightRecorder::dump_jsonl`] returns an empty string.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightRecorder {
    capacity: usize,
    seq: u64,
    requests: VecDeque<Json>,
    events: Vec<Json>,
}

impl FlightRecorder {
    /// A recorder retaining the last `capacity` request lifecycles
    /// (`0` disables recording entirely).
    pub fn new(capacity: usize) -> FlightRecorder {
        FlightRecorder {
            capacity,
            seq: 0,
            requests: VecDeque::new(),
            events: Vec::new(),
        }
    }

    /// A recorder that drops everything (capacity 0).
    pub fn disabled() -> FlightRecorder {
        FlightRecorder::new(0)
    }

    /// Whether this recorder retains anything at all.
    pub fn is_enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Retained request-lifecycle records, oldest first.
    pub fn requests(&self) -> impl Iterator<Item = &Json> {
        self.requests.iter()
    }

    /// Retained maintenance / heartbeat / anomaly records, oldest first.
    pub fn events(&self) -> &[Json] {
        &self.events
    }

    /// Number of retained request records (≤ capacity).
    pub fn request_len(&self) -> usize {
        self.requests.len()
    }

    /// Number of retained event records.
    pub fn event_len(&self) -> usize {
        self.events.len()
    }

    /// Total retained records.
    pub fn len(&self) -> usize {
        self.requests.len() + self.events.len()
    }

    /// Whether nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn stamp(&mut self, kind: &str, fields: Vec<(String, Json)>) -> Json {
        let mut obj = Vec::with_capacity(fields.len() + 3);
        obj.push(("type".to_string(), Json::from(FLIGHT_RECORD_TYPE)));
        obj.push(("kind".to_string(), Json::from(kind)));
        obj.push(("seq".to_string(), Json::from(self.seq)));
        self.seq += 1;
        obj.extend(fields);
        Json::Obj(obj)
    }

    /// Records one request lifecycle (`kind = "request"`). The ring keeps
    /// only the most recent `capacity` of these, evicting oldest-first.
    pub fn record_request(&mut self, fields: Vec<(String, Json)>) {
        if self.capacity == 0 {
            return;
        }
        let record = self.stamp("request", fields);
        self.requests.push_back(record);
        while self.requests.len() > self.capacity {
            self.requests.pop_front();
        }
    }

    /// Records a maintenance / heartbeat / anomaly event; these are never
    /// evicted (each one explains a model or serving-state change).
    pub fn record_event(&mut self, kind: &str, fields: Vec<(String, Json)>) {
        if self.capacity == 0 {
            return;
        }
        let record = self.stamp(kind, fields);
        self.events.push(record);
    }

    /// All retained records as JSONL, merged back into record order
    /// (ascending `seq`, i.e. the order events happened in trace time).
    pub fn dump_jsonl(&self) -> String {
        let seq_of = |record: &Json| -> u64 {
            record
                .get("seq")
                .and_then(Json::as_i64)
                .map_or(0, |s| s as u64)
        };
        let mut out = String::new();
        let mut reqs = self.requests.iter().peekable();
        let mut evs = self.events.iter().peekable();
        loop {
            let record = match (reqs.peek(), evs.peek()) {
                (Some(r), Some(e)) => {
                    if seq_of(r) <= seq_of(e) {
                        reqs.next()
                    } else {
                        evs.next()
                    }
                }
                (Some(_), None) => reqs.next(),
                (None, Some(_)) => evs.next(),
                (None, None) => break,
            };
            if let Some(record) = record {
                out.push_str(&record.render());
                out.push('\n');
            }
        }
        out
    }
}

/// Tolerance below which a mean signed relative error counts as unbiased.
const BIAS_EPSILON: f64 = 1e-9;

#[derive(Debug, Clone, PartialEq, Default)]
struct LedgerEntry {
    count: u64,
    sum_signed_rel: f64,
    over: u64,
    under: u64,
    abs_rel: Vec<f64>,
    /// Monotone recency stamp for LRU eviction under a cell bound.
    touch: u64,
}

/// One (site, state) row of the accuracy ledger, with derived statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct LedgerSummary {
    /// Site the estimates were served for.
    pub site: String,
    /// Contention-state label the probing cost mapped to (paper labels,
    /// `S1` = highest contention).
    pub state: String,
    /// Number of (estimate, observed) pairs folded in.
    pub count: u64,
    /// Mean signed relative error `(estimate − observed) / observed`;
    /// positive means the model overestimates in this state.
    pub mean_rel: f64,
    /// Mean absolute relative error.
    pub mean_abs_rel: f64,
    /// Nearest-rank p50 of the absolute relative error.
    pub p50_abs_rel: f64,
    /// Nearest-rank p95 of the absolute relative error.
    pub p95_abs_rel: f64,
    /// Bias direction: `'+'` overestimating, `'-'` underestimating,
    /// `'='` within `BIAS_EPSILON` (1e-9) of unbiased.
    pub bias: char,
}

impl LedgerSummary {
    /// The row as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("site".to_string(), Json::from(self.site.as_str())),
            ("state".to_string(), Json::from(self.state.as_str())),
            ("n".to_string(), Json::from(self.count)),
            ("mean_rel_err".to_string(), Json::from(self.mean_rel)),
            (
                "mean_abs_rel_err".to_string(),
                Json::from(self.mean_abs_rel),
            ),
            ("p50_abs_rel_err".to_string(), Json::from(self.p50_abs_rel)),
            ("p95_abs_rel_err".to_string(), Json::from(self.p95_abs_rel)),
            (
                "bias".to_string(),
                Json::from(self.bias.to_string().as_str()),
            ),
        ])
    }
}

/// Per-(site, state) rolling accuracy of served estimates.
///
/// Folds each observed execution cost against the estimate the registry
/// served for the same site, keyed by the contention state the probing
/// cost mapped to. Iteration order is the `BTreeMap` key order, so every
/// rendering is deterministic. Construct with [`AccuracyLedger::bounded`]
/// to cap the number of live cells: a trace naming unbounded distinct
/// sites then evicts the least-recently-recorded cell instead of growing
/// without limit, and counts each eviction
/// ([`AccuracyLedger::evictions`], exported as `serve.ledger.evictions`).
#[derive(Debug, Clone, PartialEq)]
pub struct AccuracyLedger {
    entries: BTreeMap<(String, String), LedgerEntry>,
    max_cells: usize,
    touch_counter: u64,
    evictions: u64,
}

impl Default for AccuracyLedger {
    fn default() -> AccuracyLedger {
        AccuracyLedger {
            entries: BTreeMap::new(),
            max_cells: usize::MAX,
            touch_counter: 0,
            evictions: 0,
        }
    }
}

impl AccuracyLedger {
    /// An empty, unbounded ledger.
    pub fn new() -> AccuracyLedger {
        AccuracyLedger::default()
    }

    /// An empty ledger holding at most `max_cells` (site, state) rows
    /// (clamped to ≥ 1); the least-recently-recorded row is evicted when
    /// a new key would exceed the bound.
    pub fn bounded(max_cells: usize) -> AccuracyLedger {
        AccuracyLedger {
            max_cells: max_cells.max(1),
            ..AccuracyLedger::default()
        }
    }

    /// Folds one (estimate, observed) pair into the `(site, state)` row.
    /// The relative error is `(estimate − observed) / observed` (the
    /// denominator is floored away from zero to stay finite).
    pub fn record(&mut self, site: &str, state: &str, estimate: f64, observed: f64) {
        let denom = observed.abs().max(1e-12);
        let rel = (estimate - observed) / denom;
        let key = (site.to_string(), state.to_string());
        if !self.entries.contains_key(&key) && self.entries.len() >= self.max_cells {
            let oldest = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.touch)
                .map(|(k, _)| k.clone())
                .expect("non-empty at cap");
            self.entries.remove(&oldest);
            self.evictions += 1;
        }
        self.touch_counter += 1;
        let touch = self.touch_counter;
        let entry = self.entries.entry(key).or_default();
        entry.count += 1;
        entry.sum_signed_rel += rel;
        if rel > 0.0 {
            entry.over += 1;
        } else if rel < 0.0 {
            entry.under += 1;
        }
        entry.abs_rel.push(rel.abs());
        entry.touch = touch;
    }

    /// Rows evicted by the cell bound so far (always 0 when unbounded).
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Nearest-rank (p50, p95) of the absolute relative error pooled
    /// across every live row — the single-number quality summary the
    /// correction layer is judged on. `(0.0, 0.0)` when empty.
    pub fn pooled_abs_rel_percentiles(&self) -> (f64, f64) {
        let mut pooled: Vec<f64> = self
            .entries
            .values()
            .flat_map(|e| e.abs_rel.iter().copied())
            .collect();
        pooled.sort_by(f64::total_cmp);
        (
            percentile_sorted(&pooled, 0.50),
            percentile_sorted(&pooled, 0.95),
        )
    }

    /// Whether no pair has been folded in yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of (site, state) rows.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Total pairs folded in across all rows.
    pub fn samples(&self) -> u64 {
        self.entries.values().map(|e| e.count).sum()
    }

    /// Derived per-row statistics, in key order.
    pub fn summaries(&self) -> Vec<LedgerSummary> {
        self.entries
            .iter()
            .map(|((site, state), entry)| {
                let mut sorted = entry.abs_rel.clone();
                sorted.sort_by(f64::total_cmp);
                let n = entry.count as f64;
                let mean_rel = entry.sum_signed_rel / n;
                let mean_abs_rel = sorted.iter().sum::<f64>() / n;
                let bias = if mean_rel > BIAS_EPSILON {
                    '+'
                } else if mean_rel < -BIAS_EPSILON {
                    '-'
                } else {
                    '='
                };
                LedgerSummary {
                    site: site.clone(),
                    state: state.clone(),
                    count: entry.count,
                    mean_rel,
                    mean_abs_rel,
                    p50_abs_rel: percentile_sorted(&sorted, 0.50),
                    p95_abs_rel: percentile_sorted(&sorted, 0.95),
                    bias,
                }
            })
            .collect()
    }

    /// Human-readable table, one row per (site, state), empty string when
    /// the ledger is empty.
    pub fn render(&self) -> String {
        if self.is_empty() {
            return String::new();
        }
        let mut out = String::from("accuracy ledger (site x state):\n");
        for row in self.summaries() {
            out.push_str(&format!(
                "  {}/{}: n={} mean rel {:+.1}% |rel| p50 {:.1}% p95 {:.1}% bias {}\n",
                row.site,
                row.state,
                row.count,
                row.mean_rel * 100.0,
                row.p50_abs_rel * 100.0,
                row.p95_abs_rel * 100.0,
                row.bias,
            ));
        }
        out
    }

    /// The ledger as a JSON array of row objects.
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.summaries()
                .iter()
                .map(LedgerSummary::to_json)
                .collect(),
        )
    }

    /// Folds the ledger into telemetry: per-row absolute-relative-error
    /// histograms (`serve.ledger.<site>.<state>.abs_rel_err`), signed
    /// mean-error gauges (`...mean_rel_err`) and the
    /// `serve.ledger.evictions` counter. All values are seed-pure.
    pub fn fold_metrics(&self, telemetry: &mut Telemetry) {
        for ((site, state), entry) in &self.entries {
            let base = format!("serve.ledger.{site}.{state}");
            for &abs in &entry.abs_rel {
                // lint:allow(unregistered-metric): per-(site,state) names fall under the registered serve.ledger.* histogram prefix
                telemetry.observe(&format!("{base}.abs_rel_err"), abs);
            }
            // lint:allow(unregistered-metric): per-(site,state) names fall under the registered serve.ledger.* gauge prefix
            telemetry.gauge(
                &format!("{base}.mean_rel_err"),
                entry.sum_signed_rel / entry.count as f64,
            );
        }
        telemetry.inc("serve.ledger.evictions", self.evictions);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(id: u64) -> Vec<(String, Json)> {
        vec![(
            "trace_id".to_string(),
            Json::from(format!("r{id}").as_str()),
        )]
    }

    #[test]
    fn ring_keeps_exactly_the_last_n_in_order() {
        let mut rec = FlightRecorder::new(3);
        for i in 0..7 {
            rec.record_request(req(i));
        }
        assert_eq!(rec.request_len(), 3);
        let ids: Vec<&str> = rec
            .requests()
            .map(|r| r.get("trace_id").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(ids, vec!["r4", "r5", "r6"]);
    }

    #[test]
    fn events_survive_request_eviction() {
        let mut rec = FlightRecorder::new(2);
        rec.record_request(req(0));
        rec.record_event("refit", vec![("site".to_string(), Json::from("oracle"))]);
        rec.record_request(req(1));
        rec.record_request(req(2));
        assert_eq!(rec.request_len(), 2);
        assert_eq!(rec.event_len(), 1);
        // Dump interleaves by seq: the refit (seq 1) sits between the two
        // surviving requests? No — request seq 0 was evicted, so the dump
        // starts at the refit.
        let dump = rec.dump_jsonl();
        let kinds: Vec<String> = dump
            .lines()
            .map(|l| {
                crate::json::parse(l)
                    .unwrap()
                    .get("kind")
                    .and_then(Json::as_str)
                    .unwrap()
                    .to_string()
            })
            .collect();
        assert_eq!(kinds, vec!["refit", "request", "request"]);
    }

    #[test]
    fn disabled_recorder_drops_everything() {
        let mut rec = FlightRecorder::disabled();
        rec.record_request(req(0));
        rec.record_event("heartbeat", vec![]);
        assert!(rec.is_empty());
        assert!(!rec.is_enabled());
        assert_eq!(rec.dump_jsonl(), "");
    }

    #[test]
    fn dump_lines_parse_and_carry_type_and_seq() {
        let mut rec = FlightRecorder::new(8);
        rec.record_request(req(0));
        rec.record_event("heartbeat", vec![("at_s".to_string(), Json::from(10.0))]);
        let dump = rec.dump_jsonl();
        let mut seqs = Vec::new();
        for line in dump.lines() {
            let parsed = crate::json::parse(line).expect("flight record parses");
            assert_eq!(parsed.get("type").and_then(Json::as_str), Some("flight"));
            seqs.push(parsed.get("seq").and_then(Json::as_i64).unwrap());
        }
        assert_eq!(seqs, vec![0, 1]);
    }

    #[test]
    fn ledger_matches_hand_computed_residuals() {
        // Three served-then-observed pairs in one (site, state) cell:
        //   estimate 120 vs observed 100 -> rel +0.20
        //   estimate  90 vs observed 100 -> rel -0.10
        //   estimate 150 vs observed 100 -> rel +0.50
        let mut ledger = AccuracyLedger::new();
        ledger.record("oracle", "S1", 120.0, 100.0);
        ledger.record("oracle", "S1", 90.0, 100.0);
        ledger.record("oracle", "S1", 150.0, 100.0);
        let rows = ledger.summaries();
        assert_eq!(rows.len(), 1);
        let row = &rows[0];
        assert_eq!(row.count, 3);
        assert!((row.mean_rel - 0.2).abs() < 1e-12, "mean {}", row.mean_rel);
        assert!((row.mean_abs_rel - (0.2 + 0.1 + 0.5) / 3.0).abs() < 1e-12);
        // Sorted |rel| = [0.10, 0.20, 0.50]; nearest-rank p50 -> rank 2,
        // p95 -> rank 3.
        assert!((row.p50_abs_rel - 0.2).abs() < 1e-12);
        assert!((row.p95_abs_rel - 0.5).abs() < 1e-12);
        assert_eq!(row.bias, '+');
        assert_eq!(ledger.samples(), 3);
    }

    #[test]
    fn ledger_separates_sites_and_states_and_signs_bias() {
        let mut ledger = AccuracyLedger::new();
        ledger.record("oracle", "S1", 80.0, 100.0);
        ledger.record("oracle", "S2", 100.0, 100.0);
        ledger.record("db2", "S1", 130.0, 100.0);
        let rows = ledger.summaries();
        // BTreeMap key order: (db2, S1), (oracle, S1), (oracle, S2).
        let keys: Vec<(String, String)> = rows
            .iter()
            .map(|r| (r.site.clone(), r.state.clone()))
            .collect();
        assert_eq!(
            keys,
            vec![
                ("db2".to_string(), "S1".to_string()),
                ("oracle".to_string(), "S1".to_string()),
                ("oracle".to_string(), "S2".to_string()),
            ]
        );
        assert_eq!(rows[0].bias, '+');
        assert_eq!(rows[1].bias, '-');
        assert_eq!(rows[2].bias, '=');
        let json = ledger.to_json().render();
        let parsed = crate::json::parse(&json).expect("ledger json parses");
        match parsed {
            Json::Arr(rows) => assert_eq!(rows.len(), 3),
            other => panic!("expected array, got {other:?}"),
        }
    }

    #[test]
    fn bounded_ledger_evicts_least_recently_recorded() {
        let mut ledger = AccuracyLedger::bounded(2);
        ledger.record("a", "S1", 110.0, 100.0);
        ledger.record("b", "S1", 110.0, 100.0);
        // Touch `a` so `b` becomes the LRU victim.
        ledger.record("a", "S1", 110.0, 100.0);
        ledger.record("c", "S1", 110.0, 100.0);
        assert_eq!(ledger.len(), 2);
        assert_eq!(ledger.evictions(), 1);
        let keys: Vec<String> = ledger.summaries().iter().map(|r| r.site.clone()).collect();
        // BTreeMap order of the survivors.
        assert_eq!(keys, vec!["a".to_string(), "c".to_string()]);
        // Re-recording an existing key never evicts.
        ledger.record("c", "S1", 110.0, 100.0);
        assert_eq!(ledger.evictions(), 1);
        // The unbounded ledger never evicts.
        let mut unbounded = AccuracyLedger::new();
        for i in 0..64 {
            unbounded.record(&format!("site{i}"), "S1", 110.0, 100.0);
        }
        assert_eq!(unbounded.evictions(), 0);
        assert_eq!(unbounded.len(), 64);
    }

    #[test]
    fn pooled_percentiles_span_all_cells() {
        let mut ledger = AccuracyLedger::new();
        assert_eq!(ledger.pooled_abs_rel_percentiles(), (0.0, 0.0));
        // |rel| samples 0.1 and 0.5 in different cells: pooled sorted
        // [0.1, 0.5], nearest-rank p50 = 0.1, p95 = 0.5.
        ledger.record("a", "S1", 110.0, 100.0);
        ledger.record("b", "S2", 150.0, 100.0);
        let (p50, p95) = ledger.pooled_abs_rel_percentiles();
        assert!((p50 - 0.1).abs() < 1e-12, "p50 {p50}");
        assert!((p95 - 0.5).abs() < 1e-12, "p95 {p95}");
    }

    #[test]
    fn fold_metrics_emits_histogram_and_gauge() {
        let mut ledger = AccuracyLedger::new();
        ledger.record("oracle", "S1", 120.0, 100.0);
        let mut tel = Telemetry::enabled();
        ledger.fold_metrics(&mut tel);
        let jsonl = tel.render_jsonl();
        assert!(jsonl.contains("serve.ledger.oracle.S1.abs_rel_err"));
        assert!(jsonl.contains("serve.ledger.oracle.S1.mean_rel_err"));
    }
}
