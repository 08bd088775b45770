//! A long-lived estimation server over a versioned [`ModelRegistry`].
//!
//! The paper's premise is a *dynamic* multidatabase environment: contention
//! shifts under live traffic and the cost models must be revised while
//! estimates keep flowing. This module is the one serving path: the
//! CLI's batch `serve` is a trace with every request at t = 0, and
//! `serve --loop` replays a timestamped trace:
//!
//! * an **admission queue + micro-batching front-end** — estimation
//!   requests enter a bounded queue and are drained in small batches,
//!   priced inline on the loop thread against the [`ModelRegistry`] the
//!   loop owns (one request costs a few µs, less than handing it to
//!   another thread);
//! * a **background maintenance loop** — observed execution costs are
//!   folded through [`ModelMaintainer::observe`]; enough fresh evidence
//!   triggers [`ModelMaintainer::refit_incremental`] (O(k³), no rescan) and
//!   a tripped drift monitor triggers [`rederive_drifted`] on the
//!   [`crate::pool`] (`ServeConfig::workers` threads) —
//!   either way the fresh model is *published* into the registry under a
//!   new version, and every later request is priced against it;
//! * explicit **backpressure** — the queue is bounded (arrivals beyond
//!   capacity are shed deterministically) and queued requests past their
//!   deadline are shed at dispatch time; queue depth and shed counts are
//!   first-class telemetry.
//!
//! ## Virtual time
//!
//! The loop runs on a deterministic virtual-time driver: every request,
//! observation and environment change arrives as a timestamped line of a
//! [`RequestTrace`], and all queueing/batching/shedding decisions are pure
//! functions of those timestamps and the [`ServeConfig`] — no wall clock on
//! any decision path (per the `mdbs-lint` policy). A scripted trace
//! therefore replays **byte-identically at any worker count**: requests
//! are priced in trace order, every per-line agent is seeded by
//! `split_stream(seed, lineno)`, and rederivations merge their pool
//! results in job order. Latency is
//! measured in virtual seconds (completion minus arrival), which makes tail
//! latency itself reproducible.
//!
//! Service is modelled as a serial backend: a dispatched batch occupies the
//! server for `service_cost_s × batch_len` virtual seconds, during which
//! arrivals keep queueing (and can overflow). This is what produces real
//! backpressure dynamics — bursts fill the queue, the shed policy kicks in,
//! and the depth/latency histograms record it — while staying replayable.
//!
//! ## Observability
//!
//! Every request is minted a deterministic **trace id** at admission
//! (line number + a seed-derived tag) that follows it through queueing,
//! batch dispatch, estimation and its shed/answer outcome; the whole
//! lifecycle lands as one record in the [`FlightRecorder`] ring
//! (`ServeConfig::flight_capacity`), alongside every maintenance event
//! (refits, rederivations, degrades) and anomaly (shed bursts, rederive
//! failures). Observed-vs-served residuals fold into a per-(site, state)
//! [`AccuracyLedger`] exported in the report, the telemetry and
//! [`ServeReport::to_json`]. With `ServeConfig::heartbeat_s > 0`, a
//! snapshot record (queue depth, shed counters, registry version, ledger
//! totals) is emitted every Δt of *virtual* time, turning a replay into
//! a time series. All of it is seed-pure: flight dumps and stripped
//! telemetry stay byte-identical at any worker count.

use crate::catalog::SiteId;
use crate::classes::{classify, QueryClass};
use crate::correction::{CellUpdate, CorrectionConfig, CorrectionLedger, EstimateQuery};
use crate::maintenance::{rederive_drifted, ModelMaintainer};
use crate::observation::Observation;
use crate::pipeline::PipelineCtx;
use crate::registry::{EstimateDetail, ModelRegistry};
use crate::validate::TestPoint;
use mdbs_obs::json::Json;
use mdbs_obs::metrics::percentile_sorted;
use mdbs_obs::recorder::{AccuracyLedger, FlightRecorder, LedgerSummary};
use mdbs_obs::SpanId;
use mdbs_sim::events::EnvironmentEvent;
use mdbs_sim::sql::parse_query;
use mdbs_sim::{LocalCatalog, MdbsAgent, Query};
use mdbs_stats::rng::split_stream;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

/// Knobs of the serving loop. All times are virtual seconds.
///
/// Marked `#[non_exhaustive]`: external crates construct it through
/// [`ServeConfig::builder`], so new knobs (like the `correction_*` family)
/// can be added without breaking callers.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct ServeConfig {
    /// Admission-queue capacity; arrivals beyond it are shed (queue-full).
    pub queue_capacity: usize,
    /// Largest micro-batch dispatched at once.
    pub batch_max: usize,
    /// How long a non-full batch waits for more arrivals before dispatch.
    pub batch_delay_s: f64,
    /// Virtual service cost per request (a batch of n occupies the server
    /// for `n × service_cost_s`).
    pub service_cost_s: f64,
    /// Requests queued longer than this are shed at dispatch time.
    pub deadline_s: f64,
    /// Pending observations per model before an incremental refit runs.
    pub refit_threshold: usize,
    /// Worker threads for rederivations; pricing runs on the loop thread
    /// (`None` → available parallelism). Never affects the report or
    /// stripped telemetry.
    pub workers: Option<usize>,
    /// Virtual-time heartbeat interval in seconds; `0` disables
    /// heartbeats.
    pub heartbeat_s: f64,
    /// Flight-recorder ring capacity (retained request lifecycles); `0`
    /// disables flight recording entirely.
    pub flight_capacity: usize,
    /// Enables the online correction layer ([`crate::correction`]): served
    /// estimates are adjusted by the learned per-(site, state) bias, and
    /// saturated bias escalates maintenance. Off by default.
    pub correction: bool,
    /// EWMA smoothing factor of the correction bias/scale statistics, in
    /// `(0, 1]`.
    pub correction_ewma_alpha: f64,
    /// `|bias|` at which a correction cell saturates and escalates to an
    /// incremental refit (then suspension).
    pub correction_saturation: f64,
    /// Upper bound on correction *and* accuracy-ledger cells; the
    /// least-recently-touched cell is evicted beyond it
    /// (`serve.ledger.evictions` / `serve.correction.evictions`).
    pub ledger_max_cells: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        let correction = CorrectionConfig::default();
        ServeConfig {
            queue_capacity: 64,
            batch_max: 8,
            batch_delay_s: 0.05,
            service_cost_s: 0.01,
            deadline_s: 2.0,
            refit_threshold: 24,
            workers: None,
            heartbeat_s: 0.0,
            flight_capacity: 256,
            correction: false,
            correction_ewma_alpha: correction.ewma_alpha,
            correction_saturation: correction.saturation,
            ledger_max_cells: correction.max_cells,
        }
    }
}

impl ServeConfig {
    /// A builder seeded with [`ServeConfig::default`] — the one way for
    /// external crates to construct a config, since the struct is
    /// `#[non_exhaustive]`.
    pub fn builder() -> ServeConfigBuilder {
        ServeConfigBuilder {
            cfg: ServeConfig::default(),
        }
    }

    /// Clamps degenerate values (zero capacity/batch/threshold, negative
    /// times, out-of-range correction knobs) to the smallest sane ones.
    /// The lenient counterpart of [`ServeConfigBuilder::build`], applied on
    /// server construction so a hand-assembled config can never wedge the
    /// loop.
    fn clamped(self) -> Self {
        ServeConfig {
            queue_capacity: self.queue_capacity.max(1),
            batch_max: self.batch_max.max(1),
            batch_delay_s: self.batch_delay_s.max(0.0),
            service_cost_s: self.service_cost_s.max(0.0),
            deadline_s: self.deadline_s.max(0.0),
            refit_threshold: self.refit_threshold.max(1),
            workers: self.workers,
            heartbeat_s: if self.heartbeat_s.is_finite() {
                self.heartbeat_s.max(0.0)
            } else {
                0.0
            },
            flight_capacity: self.flight_capacity,
            correction: self.correction,
            correction_ewma_alpha: if self.correction_ewma_alpha.is_finite() {
                self.correction_ewma_alpha.clamp(1e-6, 1.0)
            } else {
                CorrectionConfig::default().ewma_alpha
            },
            correction_saturation: if self.correction_saturation.is_finite() {
                self.correction_saturation.max(1e-6)
            } else {
                CorrectionConfig::default().saturation
            },
            ledger_max_cells: self.ledger_max_cells.max(1),
        }
    }

    /// The correction-layer slice of the config.
    pub(crate) fn correction_config(&self) -> CorrectionConfig {
        CorrectionConfig {
            ewma_alpha: self.correction_ewma_alpha,
            saturation: self.correction_saturation,
            max_cells: self.ledger_max_cells,
        }
    }
}

/// Builder for [`ServeConfig`]: every setter overrides one default, and
/// [`ServeConfigBuilder::build`] rejects degenerate combinations instead of
/// silently clamping them.
#[derive(Debug, Clone)]
pub struct ServeConfigBuilder {
    cfg: ServeConfig,
}

impl ServeConfigBuilder {
    /// Admission-queue capacity (must be ≥ 1).
    pub fn queue_capacity(mut self, v: usize) -> Self {
        self.cfg.queue_capacity = v;
        self
    }

    /// Largest micro-batch dispatched at once (must be ≥ 1).
    pub fn batch_max(mut self, v: usize) -> Self {
        self.cfg.batch_max = v;
        self
    }

    /// Batch linger time in virtual seconds (must be finite and ≥ 0).
    pub fn batch_delay_s(mut self, v: f64) -> Self {
        self.cfg.batch_delay_s = v;
        self
    }

    /// Virtual service cost per request (must be finite and ≥ 0).
    pub fn service_cost_s(mut self, v: f64) -> Self {
        self.cfg.service_cost_s = v;
        self
    }

    /// Queueing deadline in virtual seconds (must be finite and ≥ 0).
    pub fn deadline_s(mut self, v: f64) -> Self {
        self.cfg.deadline_s = v;
        self
    }

    /// Pending observations per model before an incremental refit (≥ 1).
    pub fn refit_threshold(mut self, v: usize) -> Self {
        self.cfg.refit_threshold = v;
        self
    }

    /// Worker threads for rederivations; pricing runs on the loop thread
    /// (`None` → available parallelism).
    pub fn workers(mut self, v: Option<usize>) -> Self {
        self.cfg.workers = v;
        self
    }

    /// Virtual-time heartbeat interval; `0` disables heartbeats (must be
    /// finite and ≥ 0).
    pub fn heartbeat_s(mut self, v: f64) -> Self {
        self.cfg.heartbeat_s = v;
        self
    }

    /// Flight-recorder ring capacity; `0` disables flight recording.
    pub fn flight_capacity(mut self, v: usize) -> Self {
        self.cfg.flight_capacity = v;
        self
    }

    /// Enables/disables the online correction layer.
    pub fn correction(mut self, on: bool) -> Self {
        self.cfg.correction = on;
        self
    }

    /// Correction EWMA smoothing factor (must be in `(0, 1]`).
    pub fn correction_ewma_alpha(mut self, v: f64) -> Self {
        self.cfg.correction_ewma_alpha = v;
        self
    }

    /// Correction saturation threshold on `|bias|` (must be finite, > 0).
    pub fn correction_saturation(mut self, v: f64) -> Self {
        self.cfg.correction_saturation = v;
        self
    }

    /// Bound on correction/accuracy-ledger cells (must be ≥ 1).
    pub fn ledger_max_cells(mut self, v: usize) -> Self {
        self.cfg.ledger_max_cells = v;
        self
    }

    /// Validates and returns the config. Degenerate knobs are an error
    /// here (the builder is the caller's chance to hear about a typo'd
    /// flag), unlike server construction, which clamps defensively.
    pub fn build(self) -> Result<ServeConfig, crate::CoreError> {
        let c = &self.cfg;
        let degenerate = |what: &str| Err(crate::CoreError::Degenerate(what.to_string()));
        if c.queue_capacity == 0 {
            return degenerate("queue_capacity must be >= 1");
        }
        if c.batch_max == 0 {
            return degenerate("batch_max must be >= 1");
        }
        if !c.batch_delay_s.is_finite() || c.batch_delay_s < 0.0 {
            return degenerate("batch_delay_s must be finite and >= 0");
        }
        if !c.service_cost_s.is_finite() || c.service_cost_s < 0.0 {
            return degenerate("service_cost_s must be finite and >= 0");
        }
        if !c.deadline_s.is_finite() || c.deadline_s < 0.0 {
            return degenerate("deadline_s must be finite and >= 0");
        }
        if c.refit_threshold == 0 {
            return degenerate("refit_threshold must be >= 1");
        }
        if !c.heartbeat_s.is_finite() || c.heartbeat_s < 0.0 {
            return degenerate("heartbeat_s must be finite and >= 0");
        }
        if !c.correction_ewma_alpha.is_finite()
            || c.correction_ewma_alpha <= 0.0
            || c.correction_ewma_alpha > 1.0
        {
            return degenerate("correction_ewma_alpha must be in (0, 1]");
        }
        if !c.correction_saturation.is_finite() || c.correction_saturation <= 0.0 {
            return degenerate("correction_saturation must be finite and > 0");
        }
        if c.ledger_max_cells == 0 {
            return degenerate("ledger_max_cells must be >= 1");
        }
        Ok(self.cfg)
    }
}

/// One event of a request trace.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// An estimation request: price `sql` at `site`.
    Request {
        /// Target site.
        site: SiteId,
        /// The SQL text to price.
        sql: String,
    },
    /// Execution feedback: run `sql` at `site`, compare the observed cost
    /// against the served estimate, feed the model's maintainer.
    Observe {
        /// Target site.
        site: SiteId,
        /// The SQL text to execute.
        sql: String,
    },
    /// A durable environment change at `site`: page-I/O costs multiplied by
    /// `factor` (> 1 = slower disks). Stale models drift until maintenance
    /// rebuilds them against the changed site.
    Degrade {
        /// Target site.
        site: SiteId,
        /// Multiplicative I/O cost factor (must be finite and positive).
        factor: f64,
    },
}

/// A trace event with its virtual arrival time and source line.
#[derive(Debug, Clone, PartialEq)]
pub struct TracedEvent {
    /// Virtual arrival time (seconds).
    pub at_s: f64,
    /// 1-based line number in the trace file.
    pub lineno: usize,
    /// What arrives.
    pub event: TraceEvent,
}

/// A parsed request/observation trace.
///
/// Malformed lines never abort the parse: they are collected in
/// [`RequestTrace::errors`] with their line numbers and reported inline by
/// the server at their file position — one bad line must not drop the
/// trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RequestTrace {
    /// Well-formed events, in file order (timestamps are non-decreasing).
    pub events: Vec<TracedEvent>,
    /// `(lineno, message)` for every malformed line.
    pub errors: Vec<(usize, String)>,
}

impl RequestTrace {
    /// Parses trace text. Each non-blank, non-`#` line is
    ///
    /// ```text
    /// @TIME request SITE SQL...
    /// @TIME observe SITE SQL...
    /// @TIME degrade SITE FACTOR
    /// ```
    ///
    /// with `TIME` in non-decreasing virtual seconds. Bad lines land in
    /// [`RequestTrace::errors`] and do not advance the clock.
    pub fn parse(text: &str) -> RequestTrace {
        let mut trace = RequestTrace::default();
        let mut last_at = 0.0f64;
        for (i, raw) in text.lines().enumerate() {
            let lineno = i + 1;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            match parse_trace_line(line, last_at) {
                Ok((at_s, event)) => {
                    last_at = at_s;
                    trace.events.push(TracedEvent {
                        at_s,
                        lineno,
                        event,
                    });
                }
                Err(msg) => trace.errors.push((lineno, msg)),
            }
        }
        trace
    }

    /// Number of well-formed events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no well-formed event was parsed.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

fn parse_trace_line(line: &str, last_at: f64) -> Result<(f64, TraceEvent), String> {
    let rest = line
        .strip_prefix('@')
        .ok_or_else(|| "expected `@TIME request|observe|degrade SITE ...`".to_string())?;
    let (time_word, rest) = rest
        .split_once(char::is_whitespace)
        .ok_or_else(|| "expected an event after the timestamp".to_string())?;
    let at_s: f64 = time_word
        .parse()
        .map_err(|_| format!("bad timestamp `{time_word}`"))?;
    if !at_s.is_finite() || at_s < 0.0 {
        return Err(format!(
            "timestamp must be finite and >= 0, got `{time_word}`"
        ));
    }
    if at_s < last_at {
        return Err(format!(
            "timestamp {at_s} goes backwards (previous event at {last_at})"
        ));
    }
    let (kind, rest) = rest
        .trim()
        .split_once(char::is_whitespace)
        .ok_or_else(|| "expected `SITE ...` after the event kind".to_string())?;
    let rest = rest.trim();
    let event = match kind {
        "request" | "observe" => {
            let (site, sql) = rest
                .split_once(char::is_whitespace)
                .ok_or_else(|| format!("expected `SITE SQL...` after `{kind}`"))?;
            let sql = sql.trim();
            if sql.is_empty() {
                return Err(format!("empty SQL after `{kind} {site}`"));
            }
            if kind == "request" {
                TraceEvent::Request {
                    site: site.into(),
                    sql: sql.to_string(),
                }
            } else {
                TraceEvent::Observe {
                    site: site.into(),
                    sql: sql.to_string(),
                }
            }
        }
        "degrade" => {
            let (site, factor_word) = rest
                .split_once(char::is_whitespace)
                .ok_or_else(|| "expected `SITE FACTOR` after `degrade`".to_string())?;
            let factor: f64 = factor_word
                .trim()
                .parse()
                .map_err(|_| format!("bad degrade factor `{}`", factor_word.trim()))?;
            if !factor.is_finite() || factor <= 0.0 {
                return Err(format!(
                    "degrade factor must be finite and > 0, got {factor}"
                ));
            }
            TraceEvent::Degrade {
                site: site.into(),
                factor,
            }
        }
        other => return Err(format!("unknown event kind `{other}`")),
    };
    Ok((at_s, event))
}

/// What one trace replay did, with the deterministic rendered report.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServeReport {
    /// The full human-readable report (summary + per-line outcomes), a pure
    /// function of trace, seed and config — byte-identical at any worker
    /// count.
    pub rendered: String,
    /// Estimation requests admitted or shed.
    pub requests: usize,
    /// Requests answered with an estimate.
    pub answered: usize,
    /// Requests whose class had no registered model.
    pub no_model: usize,
    /// Malformed trace lines plus per-line processing failures.
    pub errors: usize,
    /// Requests shed because the queue was full at arrival.
    pub shed_queue_full: usize,
    /// Requests shed because they out-waited the deadline.
    pub shed_deadline: usize,
    /// Micro-batches dispatched.
    pub batches: usize,
    /// Largest queue depth observed.
    pub max_queue_depth: usize,
    /// Observation events processed.
    pub observations: usize,
    /// Incremental refits published.
    pub incremental_refits: usize,
    /// Drift-triggered rederivations published.
    pub rederivations: usize,
    /// Virtual time at which the last work finished.
    pub virtual_makespan_s: f64,
    /// Median request latency in virtual seconds (0 when nothing served).
    pub latency_p50_s: f64,
    /// 95th-percentile request latency in virtual seconds.
    pub latency_p95_s: f64,
    /// 99th-percentile request latency in virtual seconds.
    pub latency_p99_s: f64,
    /// Virtual-time heartbeat snapshots emitted
    /// (`ServeConfig::heartbeat_s`).
    pub heartbeats: usize,
    /// Estimates (served answers and observation-time estimates) the
    /// correction layer actually adjusted (0 with correction off).
    pub corrections_applied: usize,
    /// Escalations the correction layer triggered: saturation refits plus
    /// cell suspensions (0 with correction off).
    pub correction_escalations: usize,
    /// Pooled median |relative error| across every accuracy-ledger sample
    /// (0 when no observation carried an estimate) — the quality number
    /// the correction layer exists to push down.
    pub ledger_p50_abs_rel_err: f64,
    /// Pooled 95th-percentile |relative error| across every ledger sample.
    pub ledger_p95_abs_rel_err: f64,
    /// Accuracy-ledger cells evicted by the `ledger_max_cells` bound.
    pub ledger_evictions: u64,
    /// Per-(site, state) accuracy of served estimates against observed
    /// costs, in key order (empty when no observation carried an
    /// estimate).
    pub ledger: Vec<LedgerSummary>,
}

impl ServeReport {
    /// Sustained throughput: answered requests per virtual second.
    pub fn throughput_per_virtual_s(&self) -> f64 {
        if self.virtual_makespan_s > 0.0 {
            self.answered as f64 / self.virtual_makespan_s
        } else {
            0.0
        }
    }

    /// Fraction of arrived requests that were shed (0 when none arrived).
    pub fn shed_fraction(&self) -> f64 {
        if self.requests > 0 {
            (self.shed_queue_full + self.shed_deadline) as f64 / self.requests as f64
        } else {
            0.0
        }
    }

    /// The report as a machine-readable JSON object: every counter, the
    /// virtual-time latency summary and the accuracy ledger. A pure
    /// function of (trace, seed, config) like the rendered text.
    pub fn to_json(&self) -> Json {
        Json::Obj(fields([
            ("requests", Json::from(self.requests)),
            ("answered", Json::from(self.answered)),
            ("no_model", Json::from(self.no_model)),
            ("errors", Json::from(self.errors)),
            ("shed_queue_full", Json::from(self.shed_queue_full)),
            ("shed_deadline", Json::from(self.shed_deadline)),
            ("shed_fraction", Json::from(self.shed_fraction())),
            ("batches", Json::from(self.batches)),
            ("max_queue_depth", Json::from(self.max_queue_depth)),
            ("observations", Json::from(self.observations)),
            ("incremental_refits", Json::from(self.incremental_refits)),
            ("rederivations", Json::from(self.rederivations)),
            ("virtual_makespan_s", Json::from(self.virtual_makespan_s)),
            ("latency_p50_s", Json::from(self.latency_p50_s)),
            ("latency_p95_s", Json::from(self.latency_p95_s)),
            ("latency_p99_s", Json::from(self.latency_p99_s)),
            (
                "throughput_per_virtual_s",
                Json::from(self.throughput_per_virtual_s()),
            ),
            ("heartbeats", Json::from(self.heartbeats)),
            ("corrections_applied", Json::from(self.corrections_applied)),
            (
                "correction_escalations",
                Json::from(self.correction_escalations),
            ),
            (
                "ledger_p50_abs_rel_err",
                Json::from(self.ledger_p50_abs_rel_err),
            ),
            (
                "ledger_p95_abs_rel_err",
                Json::from(self.ledger_p95_abs_rel_err),
            ),
            ("ledger_evictions", Json::from(self.ledger_evictions)),
            (
                "ledger",
                Json::Arr(self.ledger.iter().map(LedgerSummary::to_json).collect()),
            ),
        ]))
    }
}

/// Stream salt for trace-id tags, so ids never collide with the per-line
/// agent seed stream.
const TRACE_ID_STREAM: u64 = 0x7472_6163_655f_6964; // "trace_id"

/// Per-fleet-member saturation-refit budget: the first saturation of a
/// model's correction escalates to an incremental refit; once spent,
/// further saturation suspends the cell instead, so raw estimate quality
/// reaches the drift monitor and the heavy rung can fire. Restored by a
/// rederivation.
const SATURATION_REFIT_BUDGET: usize = 1;

/// Deterministic request trace id, minted at admission: the 1-based trace
/// line number (hex) plus a seed-derived tag. Unique per line by
/// construction, and a pure function of `(seed, lineno)` — identical at
/// every worker count.
fn mint_trace_id(root_seed: u64, lineno: usize) -> String {
    let tag = split_stream(root_seed ^ TRACE_ID_STREAM, lineno as u64);
    format!("{lineno:04x}-{:012x}", tag & 0xffff_ffff_ffff)
}

/// JSON object fields (flight records, the report) from borrowed keys.
fn fields<const N: usize>(pairs: [(&str, Json); N]) -> Vec<(String, Json)> {
    pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect()
}

/// A request sitting in the admission queue.
#[derive(Debug, Clone)]
struct QueuedRequest {
    trace_id: String,
    lineno: usize,
    arrived_s: f64,
    site: SiteId,
    sql: String,
}

impl QueuedRequest {
    /// The lifecycle-record prefix shared by every outcome of the request.
    fn lifecycle(&self) -> Vec<(String, Json)> {
        fields([
            ("trace_id", Json::from(self.trace_id.as_str())),
            ("lineno", Json::from(self.lineno)),
            ("site", Json::from(self.site.0.as_str())),
            ("sql", Json::from(self.sql.as_str())),
            ("arrived_s", Json::from(self.arrived_s)),
        ])
    }
}

/// One executed observation, before it is routed to a maintainer.
struct ObservedSample {
    class: QueryClass,
    probe: f64,
    observed: f64,
    estimate: Option<EstimateDetail>,
    x: Vec<f64>,
}

/// A trace line priced against the registry: the line's agent (ticked and
/// probed), its parsed query, and the registry's answer.
struct PricedLine {
    agent: MdbsAgent,
    schema: Arc<LocalCatalog>,
    query: Query,
    class: QueryClass,
    probe: f64,
    estimate: Option<EstimateDetail>,
}

/// The long-lived estimation server: a registry serving the hot path, a
/// fleet of maintainers keeping its models fresh, and the loop config.
#[derive(Debug)]
pub struct EstimationServer {
    /// The registry requests are priced against and maintenance
    /// publishes into.
    pub registry: ModelRegistry,
    fleet: Vec<(SiteId, ModelMaintainer)>,
    config: ServeConfig,
    recorder: FlightRecorder,
}

impl EstimationServer {
    /// A server over `registry` with the given maintainer fleet.
    ///
    /// Invariant: every fleet site must be constructible by the `make_agent`
    /// closure later passed to [`EstimationServer::run`] (rederivation
    /// builds agents for drifted fleet members).
    pub fn new(
        registry: ModelRegistry,
        fleet: Vec<(SiteId, ModelMaintainer)>,
        config: ServeConfig,
    ) -> Self {
        let config = config.clamped();
        let recorder = FlightRecorder::new(config.flight_capacity);
        EstimationServer {
            registry,
            fleet,
            config,
            recorder,
        }
    }

    /// The maintainer fleet (site, maintainer) in construction order.
    pub fn fleet(&self) -> &[(SiteId, ModelMaintainer)] {
        &self.fleet
    }

    /// The flight recorder: request lifecycles (bounded ring) plus
    /// maintenance/heartbeat/anomaly events accumulated by
    /// [`EstimationServer::run`]. Dump with
    /// [`FlightRecorder::dump_jsonl`].
    pub fn recorder(&self) -> &FlightRecorder {
        &self.recorder
    }

    /// Replays a request/observation trace through the serving loop.
    ///
    /// `make_agent` builds a deterministic per-line site agent from a seed
    /// split off `ctx.seed` by the trace line number; it returns `None` for
    /// sites it cannot build (reported as a per-line error, never fatal).
    /// The returned report and the deterministic part of `ctx.telemetry`
    /// are pure functions of `(trace, ctx.seed, config)` — independent of
    /// `config.workers`.
    pub fn run<F>(
        &mut self,
        trace: &RequestTrace,
        make_agent: F,
        ctx: &mut PipelineCtx,
    ) -> ServeReport
    where
        F: Fn(&SiteId, u64) -> Option<MdbsAgent> + Sync,
    {
        let span = ctx.telemetry.begin_span("serve.loop");
        ctx.telemetry
            .field(span, "events", trace.events.len() as u64);
        ctx.telemetry.field(span, "fleet", self.fleet.len() as u64);
        let mut state = ServeLoop::new(self, &make_agent, ctx);
        // Malformed trace lines carry no timestamp that survived parsing;
        // `render` places them in file position.
        for _ in &trace.errors {
            state.report.errors += 1;
            state.ctx.telemetry.inc("serve.line_errors", 1);
        }
        let mut events = trace.events.iter().peekable();
        loop {
            // Dispatch when the batch trigger fires no later than the next
            // arrival (ties dispatch first); otherwise admit the arrival.
            match (state.batch_trigger(), events.peek().map(|ev| ev.at_s)) {
                (Some(t_batch), None) => state.dispatch(t_batch),
                (Some(t_batch), Some(t_event)) if t_batch <= t_event => state.dispatch(t_batch),
                (_, Some(_)) => {
                    let ev = events.next().expect("peeked");
                    state.advance(ev.at_s);
                    match &ev.event {
                        TraceEvent::Request { site, sql } => state.admit(ev, site, sql),
                        TraceEvent::Degrade { site, factor } => state.degrade(ev, site, *factor),
                        TraceEvent::Observe { site, sql } => state.observe(ev, site, sql),
                    }
                }
                (None, None) => break,
            }
        }
        state.finish(trace, span)
    }
}

/// A site agent factory: `(site, seed)` to a fresh agent, `None` for a
/// site it cannot build.
type AgentFactory<'a> = dyn Fn(&SiteId, u64) -> Option<MdbsAgent> + Sync + 'a;

/// The state of one [`EstimationServer::run`] replay, with one method per
/// event kind. Everything here is mutated only on the loop thread, in
/// trace order, which is what makes a replay a pure function of
/// `(trace, seed, config)`.
struct ServeLoop<'a> {
    registry: &'a mut ModelRegistry,
    fleet: &'a mut [(SiteId, ModelMaintainer)],
    config: &'a ServeConfig,
    recorder: &'a mut FlightRecorder,
    make_agent: &'a AgentFactory<'a>,
    ctx: &'a mut PipelineCtx,
    root_seed: u64,
    queue: VecDeque<QueuedRequest>,
    /// Cumulative durable I/O degradation factor per site.
    degradation: BTreeMap<SiteId, f64>,
    /// Per fleet member: observations not yet folded by a refit.
    pending: Vec<Vec<Observation>>,
    /// Report rows, each tagged with the trace line that produced it.
    rows: Vec<(usize, String)>,
    latencies: Vec<f64>,
    report: ServeReport,
    /// Judges the *served* (corrected) estimates.
    ledger: AccuracyLedger,
    /// Learns from the *raw* model output, so a working correction never
    /// erases its own evidence.
    correction: CorrectionLedger,
    saturation_budget: Vec<usize>,
    /// The next virtual-time heartbeat tick, or never.
    next_hb: f64,
    /// Consecutive queue-full sheds, for shed-burst anomaly detection.
    queue_full_streak: usize,
    /// Requests dispatched so far: the heartbeat `pool_jobs` field and the
    /// loop's `pool.jobs_completed` increment.
    dispatched: usize,
    clock: f64,
    /// Virtual completion time of the last dispatched batch.
    busy_until: f64,
}

impl<'a> ServeLoop<'a> {
    fn new(
        server: &'a mut EstimationServer,
        make_agent: &'a AgentFactory<'a>,
        ctx: &'a mut PipelineCtx,
    ) -> Self {
        let EstimationServer {
            registry,
            fleet,
            config,
            recorder,
        } = server;
        ServeLoop {
            registry,
            make_agent,
            root_seed: ctx.seed,
            ctx,
            queue: VecDeque::new(),
            degradation: BTreeMap::new(),
            pending: vec![Vec::new(); fleet.len()],
            rows: Vec::new(),
            latencies: Vec::new(),
            report: ServeReport::default(),
            ledger: AccuracyLedger::bounded(config.ledger_max_cells),
            correction: CorrectionLedger::new(config.correction_config()),
            saturation_budget: vec![SATURATION_REFIT_BUDGET; fleet.len()],
            next_hb: if config.heartbeat_s > 0.0 {
                config.heartbeat_s
            } else {
                f64::INFINITY
            },
            queue_full_streak: 0,
            dispatched: 0,
            clock: 0.0,
            busy_until: 0.0,
            fleet,
            config,
            recorder,
        }
    }

    fn row(&mut self, lineno: usize, text: String) {
        self.rows.push((lineno, text));
    }

    /// A per-line failure: counted, and rendered as an `ERROR` row.
    fn line_error(&mut self, lineno: usize, msg: &str) {
        self.report.errors += 1;
        self.ctx.telemetry.inc("serve.line_errors", 1);
        self.row(lineno, format!("  {lineno:>3} ERROR: {msg}"));
    }

    /// The correction ledger, when the layer is on.
    fn corrector(&self) -> Option<&CorrectionLedger> {
        self.config.correction.then_some(&self.correction)
    }

    /// When the server could next start a batch, if anything is queued.
    fn batch_trigger(&self) -> Option<f64> {
        let head = self.queue.front()?;
        Some(if self.queue.len() >= self.config.batch_max {
            self.busy_until.max(self.clock)
        } else {
            self.busy_until
                .max(head.arrived_s + self.config.batch_delay_s)
        })
    }

    /// Moves the clock to `t`, beating for the heartbeat ticks crossed.
    fn advance(&mut self, t: f64) {
        self.heartbeat(t);
        self.clock = self.clock.max(t);
    }

    /// Emits at most one heartbeat for the ticks up to virtual second `t`,
    /// stamped at the first tick crossed, then moves the schedule past
    /// `t`. Nothing changes between two loop points, so the records of the
    /// skipped ticks would differ only in `at_s`.
    fn heartbeat(&mut self, t: f64) {
        // An infinite `next_hb` means heartbeats are off or the schedule
        // ran past an infinite time.
        let due = self.next_hb <= t && self.next_hb.is_finite();
        if !due {
            return;
        }
        self.emit_heartbeat(self.next_hb);
        let h = self.config.heartbeat_s;
        self.next_hb += h;
        if self.next_hb <= t {
            self.next_hb += (((t - self.next_hb) / h).floor() + 1.0) * h;
            if self.next_hb <= t {
                // `h` is below the float resolution at `t`.
                self.next_hb = if t.is_finite() {
                    f64::from_bits(t.to_bits() + 1)
                } else {
                    f64::INFINITY
                };
            }
        }
    }

    /// One virtual-time heartbeat: a `serve.heartbeat` telemetry span and
    /// a flight-recorder event, both carrying the same snapshot of the
    /// serving state at virtual second `at_s`. Every field is seed-pure.
    fn emit_heartbeat(&mut self, at_s: f64) {
        self.report.heartbeats += 1;
        self.ctx.telemetry.inc("serve.heartbeats", 1);
        let r = &self.report;
        let mut snapshot = fields([
            ("at_s", Json::from(at_s)),
            ("queue_depth", Json::from(self.queue.len())),
            ("requests", Json::from(r.requests)),
            ("answered", Json::from(r.answered)),
            ("shed_queue_full", Json::from(r.shed_queue_full)),
            ("shed_deadline", Json::from(r.shed_deadline)),
            ("batches", Json::from(r.batches)),
            ("observations", Json::from(r.observations)),
            ("incremental_refits", Json::from(r.incremental_refits)),
            ("rederivations", Json::from(r.rederivations)),
            ("registry_version", Json::from(self.registry.version())),
            ("ledger_cells", Json::from(self.ledger.len())),
            ("ledger_samples", Json::from(self.ledger.samples())),
            ("ledger_evictions", Json::from(self.ledger.evictions())),
            ("pool_jobs", Json::from(self.dispatched)),
        ]);
        // Correction state rides along only when the layer is on, so
        // correction-off heartbeats keep their historical shape.
        if let Some(correction) = self.corrector() {
            snapshot.extend(fields([
                ("correction_cells", Json::from(correction.len())),
                ("correction_applied", Json::from(r.corrections_applied)),
                ("correction_max_bias", Json::from(correction.max_abs_bias())),
            ]));
        }
        let span = self.ctx.telemetry.begin_span("serve.heartbeat");
        for (key, value) in &snapshot {
            self.ctx.telemetry.field(span, key, value.clone());
        }
        self.ctx.telemetry.end_span(span);
        self.recorder.record_event("heartbeat", snapshot);
    }

    /// A request arrives: queue it, or shed it when the queue is full.
    fn admit(&mut self, ev: &TracedEvent, site: &SiteId, sql: &str) {
        self.report.requests += 1;
        self.ctx.telemetry.inc("serve.requests", 1);
        let q = QueuedRequest {
            trace_id: mint_trace_id(self.root_seed, ev.lineno),
            lineno: ev.lineno,
            arrived_s: ev.at_s,
            site: site.clone(),
            sql: sql.to_string(),
        };
        let depth = self.queue.len();
        if depth < self.config.queue_capacity {
            self.queue_full_streak = 0;
            self.queue.push_back(q);
            self.report.max_queue_depth = self.report.max_queue_depth.max(depth + 1);
            self.ctx
                .telemetry
                .observe("serve.queue_depth", (depth + 1) as f64);
            return;
        }
        self.report.shed_queue_full += 1;
        self.queue_full_streak += 1;
        self.ctx.telemetry.inc("serve.shed.queue_full", 1);
        self.row(
            ev.lineno,
            format!(
                "  {:>3} @{:.3} SHED (queue full at {depth})",
                ev.lineno, ev.at_s
            ),
        );
        let mut record = q.lifecycle();
        record.extend(fields([
            ("queue_depth", Json::from(depth)),
            ("outcome", Json::from("shed_queue_full")),
        ]));
        self.recorder.record_request(record);
        // A batch's worth of consecutive arrivals bounced off a full queue:
        // record the burst once, when the streak crosses the threshold.
        if self.queue_full_streak == self.config.batch_max {
            self.recorder.record_event(
                "anomaly",
                fields([
                    ("what", Json::from("shed_burst")),
                    ("at_s", Json::from(ev.at_s)),
                    ("consecutive_queue_full", Json::from(self.queue_full_streak)),
                ]),
            );
        }
    }

    /// The batch trigger fires at `t`: shed what out-waited its deadline,
    /// then price up to `batch_max` queued requests inline. A request
    /// costs a few µs, far less than handing a batch to threads.
    fn dispatch(&mut self, t: f64) {
        self.advance(t);
        self.shed_expired();
        let n = self.queue.len().min(self.config.batch_max);
        if n == 0 {
            return;
        }
        let dispatched_s = self.clock;
        let completion = dispatched_s + self.config.service_cost_s * n as f64;
        self.busy_until = completion;
        self.report.batches += 1;
        let batch = self.report.batches;
        self.ctx.telemetry.inc("serve.batches", 1);
        self.ctx.telemetry.observe("serve.batch_size", n as f64);
        for q in self.queue.drain(..n).collect::<Vec<_>>() {
            let outcome = self.price_line(&q.site, &q.sql, q.lineno);
            self.dispatched += 1;
            let latency = completion - q.arrived_s;
            let mut record = q.lifecycle();
            record.extend(fields([
                ("queue_wait_s", Json::from(dispatched_s - q.arrived_s)),
                ("batch", Json::from(batch)),
                ("dispatched_s", Json::from(dispatched_s)),
                ("completed_s", Json::from(completion)),
                ("latency_s", Json::from(latency)),
            ]));
            let prefix = format!(
                "  {:>3} @{:.3}->@{:.3} ({:.3}s) {}",
                q.lineno, q.arrived_s, completion, latency, q.site
            );
            let served = match outcome {
                Ok(PricedLine {
                    class,
                    probe,
                    estimate: Some(detail),
                    ..
                }) => {
                    self.report.answered += 1;
                    self.ctx.telemetry.inc("serve.answered", 1);
                    // Corrected answers carry the `±` residual confidence.
                    let mut provenance = format!("[v{} {}", detail.version, detail.state_label);
                    if detail.corrected {
                        provenance.push_str(&format!(" ±{:.0}%", detail.confidence * 100.0));
                    }
                    record.extend(fields([
                        ("outcome", Json::from("answered")),
                        ("class", Json::from(class.label())),
                        ("probe_s", Json::from(probe)),
                        ("estimate_s", Json::from(detail.estimate)),
                        ("model_version", Json::from(detail.version)),
                        ("state", Json::from(detail.state_label.as_str())),
                    ]));
                    if detail.corrected {
                        self.report.corrections_applied += 1;
                        self.ctx.telemetry.inc("serve.correction.applied", 1);
                        record.extend(fields([
                            ("raw_estimate_s", Json::from(detail.raw_estimate)),
                            ("correction_factor", Json::from(detail.correction)),
                            ("confidence", Json::from(detail.confidence)),
                        ]));
                    }
                    let text = format!(
                        "{prefix} {}: probe {probe:.3}s -> estimate {:.2}s {provenance}]",
                        class.label(),
                        detail.estimate
                    );
                    Some(text)
                }
                Ok(PricedLine { class, .. }) => {
                    self.report.no_model += 1;
                    self.ctx.telemetry.inc("serve.no_model", 1);
                    record.extend(fields([
                        ("outcome", Json::from("no_model")),
                        ("class", Json::from(class.label())),
                    ]));
                    Some(format!("{prefix} {}: no model in registry", class.label()))
                }
                Err(msg) => {
                    self.line_error(q.lineno, &msg);
                    record.extend(fields([
                        ("outcome", Json::from("error")),
                        ("error", Json::from(msg.as_str())),
                    ]));
                    None
                }
            };
            if let Some(text) = served {
                self.latencies.push(latency);
                self.ctx
                    .telemetry
                    .observe("serve.latency_virtual_s", latency);
                self.row(q.lineno, text);
            }
            self.recorder.record_request(record);
        }
    }

    /// Deadline shed: queued requests that out-waited their deadline are
    /// answered with a shed, not served late.
    fn shed_expired(&mut self) {
        let mut shed_now = 0usize;
        while self
            .queue
            .front()
            .is_some_and(|q| self.clock - q.arrived_s > self.config.deadline_s)
        {
            let q = self.queue.pop_front().expect("the head expired");
            let waited = self.clock - q.arrived_s;
            self.report.shed_deadline += 1;
            shed_now += 1;
            self.ctx.telemetry.inc("serve.shed.deadline", 1);
            self.row(
                q.lineno,
                format!(
                    "  {:>3} @{:.3} SHED (deadline: waited {waited:.3}s)",
                    q.lineno, self.clock
                ),
            );
            let mut record = q.lifecycle();
            record.extend(fields([
                ("shed_s", Json::from(self.clock)),
                ("waited_s", Json::from(waited)),
                ("outcome", Json::from("shed_deadline")),
            ]));
            self.recorder.record_request(record);
        }
        // A whole batch's worth of deadline sheds in one dispatch is a shed
        // burst: dump-worthy.
        if shed_now >= self.config.batch_max {
            self.recorder.record_event(
                "anomaly",
                fields([
                    ("what", Json::from("shed_burst")),
                    ("at_s", Json::from(self.clock)),
                    ("shed_deadline", Json::from(shed_now)),
                ]),
            );
        }
    }

    /// A durable I/O degradation at `site`. A step that would leave the
    /// site's cumulative factor non-finite or non-positive is a per-line
    /// error and leaves the factor as it was, so every factor the loop
    /// applies to an agent is valid.
    fn degrade(&mut self, ev: &TracedEvent, site: &SiteId, factor: f64) {
        let cumulative = self.degradation.get(site).copied().unwrap_or(1.0) * factor;
        if !(cumulative.is_finite() && cumulative > 0.0) {
            let msg = format!(
                "degrade x{factor:e} would take the cumulative factor of `{site}` to {cumulative:e}; it must stay finite and > 0"
            );
            return self.line_error(ev.lineno, &msg);
        }
        self.degradation.insert(site.clone(), cumulative);
        self.ctx.telemetry.inc("serve.degrades", 1);
        self.row(
            ev.lineno,
            format!(
                "  {:>3} @{:.3} degrade {site} x{factor:.2} (cumulative x{cumulative:.2})",
                ev.lineno, ev.at_s
            ),
        );
        self.recorder.record_event(
            "degrade",
            fields([
                ("at_s", Json::from(ev.at_s)),
                ("site", Json::from(site.0.as_str())),
                ("factor", Json::from(factor)),
                ("cumulative", Json::from(cumulative)),
            ]),
        );
    }

    /// Execution feedback: run the query, score the served estimate,
    /// feed both ledgers and the model's maintainer, then maintain —
    /// rederive on drift, otherwise escalate a saturated correction or
    /// refit once enough evidence is pending.
    fn observe(&mut self, ev: &TracedEvent, site: &SiteId, sql: &str) {
        self.report.observations += 1;
        self.ctx.telemetry.inc("serve.observations", 1);
        let sample = match self.observe_one(site, sql, ev.lineno) {
            Ok(s) => s,
            Err(msg) => return self.line_error(ev.lineno, &msg),
        };
        // Every observed cost with a served estimate feeds the accuracy
        // ledger, keyed by the contention state the estimate was made in.
        let mut update: Option<CellUpdate> = None;
        if let Some(detail) = &sample.estimate {
            let state = detail.state_label.as_str();
            self.ledger
                .record(&site.0, state, detail.estimate, sample.observed);
            if detail.corrected {
                self.report.corrections_applied += 1;
                self.ctx.telemetry.inc("serve.correction.applied", 1);
            }
            if self.config.correction {
                update = Some(self.correction.observe(
                    &site.0,
                    state,
                    detail.raw_estimate,
                    sample.observed,
                ));
            }
        }
        let idx = self
            .fleet
            .iter()
            .position(|(s, m)| s == site && m.class() == sample.class);
        let (Some(i), Some(detail)) = (idx, sample.estimate) else {
            self.report.no_model += 1;
            self.ctx.telemetry.inc("serve.no_model", 1);
            let text = format!(
                "  {:>3} @{:.3} observe {site} {}: no maintained model",
                ev.lineno,
                ev.at_s,
                sample.class.label()
            );
            return self.row(ev.lineno, text);
        };
        let good = TestPoint {
            observed: sample.observed,
            estimated: detail.estimate,
            result_card: 0,
            probe_cost: sample.probe,
        }
        .is_good();
        let drifted = self.fleet[i]
            .1
            .observe(sample.observed, detail.estimate, self.ctx);
        self.pending[i].push(Observation {
            x: sample.x,
            cost: sample.observed,
            probe_cost: sample.probe,
        });
        self.row(
            ev.lineno,
            format!(
            "  {:>3} @{:.3} observe {site} {}: observed {:.2}s vs estimate {:.2}s [v{} {}] ({})",
            ev.lineno,
            ev.at_s,
            sample.class.label(),
            sample.observed,
            detail.estimate,
            detail.version,
            detail.state_label,
            if good { "good" } else { "off" }
        ),
        );
        if drifted {
            return self.rederive(ev);
        }
        let escalated_refit = match update {
            Some(u) if u.saturated => self.escalate(ev, i, &detail.state_label, &u),
            _ => false,
        };
        if escalated_refit || self.pending[i].len() >= self.config.refit_threshold {
            self.refit(ev, i, sample.class);
        }
    }

    /// Escalation ladder, middle rung: a saturated correction means the
    /// model itself is biased beyond what the cheap rung should paper
    /// over. The first saturation per model spends its refit budget; once
    /// exhausted, the cell is suspended so raw estimate quality reaches
    /// the drift monitor and the heavy rung (rederivation) can trip.
    /// Returns whether fleet member `i` escalated to a refit.
    fn escalate(&mut self, ev: &TracedEvent, i: usize, state: &str, u: &CellUpdate) -> bool {
        let site = &self.fleet[i].0;
        let refit = self.saturation_budget[i] > 0;
        if refit {
            self.saturation_budget[i] -= 1;
        } else if !self.correction.suspend(&site.0, state) {
            return false;
        }
        self.report.correction_escalations += 1;
        self.ctx.telemetry.inc("serve.correction.escalations", 1);
        let (again, action, level) = if refit {
            ("", "incremental refit", "refit")
        } else {
            (
                " again",
                "cell suspended, raw estimates feed the drift monitor",
                "suspend",
            )
        };
        let text = format!(
            "  maintenance @{:.3}: correction saturated{again} ({site} {state} bias {:+.2}) -> {action}",
            ev.at_s, u.bias
        );
        let record = fields([
            ("at_s", Json::from(ev.at_s)),
            ("site", Json::from(site.0.as_str())),
            ("state", Json::from(state)),
            ("level", Json::from(level)),
            ("bias", Json::from(u.bias)),
            ("samples", Json::from(u.samples)),
        ]);
        self.row(ev.lineno, text);
        self.recorder.record_event("escalate", record);
        refit
    }

    /// Cheap path: fold fleet member `i`'s pending evidence into its
    /// sufficient statistics and republish. Either way the pending batch
    /// is consumed — the accumulator absorbs it even when the re-solve is
    /// deferred for lack of per-state evidence.
    fn refit(&mut self, ev: &TracedEvent, i: usize, class: QueryClass) {
        let batch = std::mem::take(&mut self.pending[i]);
        let (site, maintainer) = &mut self.fleet[i];
        let site = site.clone();
        match maintainer.refit_incremental(&site, &batch, Some(&mut *self.registry), self.ctx) {
            Ok(published) => {
                self.report.incremental_refits += 1;
                let version = published.unwrap_or_else(|| self.registry.version());
                self.row(
                    ev.lineno,
                    format!(
                        "  maintenance @{:.3}: incremental refit {site} {} ({} obs) -> registry v{version}",
                        ev.at_s,
                        class.label(),
                        batch.len()
                    ),
                );
                self.recorder.record_event(
                    "refit",
                    fields([
                        ("at_s", Json::from(ev.at_s)),
                        ("site", Json::from(site.0.as_str())),
                        ("class", Json::from(class.label())),
                        ("absorbed", Json::from(batch.len())),
                        ("registry_version", Json::from(version)),
                    ]),
                );
                // The republished model invalidates the learned bias: its
                // cells start cold.
                self.correction.reset_site(&site.0);
            }
            Err(e) => {
                self.ctx.telemetry.inc("maintenance.refit_deferred", 1);
                self.row(
                    ev.lineno,
                    format!(
                        "  maintenance @{:.3}: refit deferred ({e}); serving continues",
                        ev.at_s
                    ),
                );
                self.recorder.record_event(
                    "refit_deferred",
                    fields([
                        ("at_s", Json::from(ev.at_s)),
                        ("site", Json::from(site.0.as_str())),
                        ("error", Json::from(e.to_string().as_str())),
                    ]),
                );
            }
        }
    }

    /// Heavy path: rebuild every currently drifted fleet member on the
    /// pool and publish the fresh snapshots; their pending observations
    /// predate the new models.
    fn rederive(&mut self, ev: &TracedEvent) {
        let drifted: Vec<usize> = (0..self.fleet.len())
            .filter(|&j| self.fleet[j].1.monitor.drifted())
            .collect();
        let (degradation, make_agent) = (&self.degradation, self.make_agent);
        let rebuilt = rederive_drifted(
            self.fleet,
            self.config.workers,
            |site, _class, env_seed| {
                let mut agent =
                    make_agent(site, env_seed).expect("fleet sites are agent-constructible");
                let factor = degradation.get(site).copied().unwrap_or(1.0);
                apply_degradation(&mut agent, factor)
                    .expect("`degrade` keeps every cumulative factor finite and > 0");
                agent
            },
            Some(&mut *self.registry),
            self.ctx,
        );
        let n = match rebuilt {
            Ok(n) => n,
            Err(e) => {
                self.ctx.telemetry.inc("maintenance.rederive_failures", 1);
                self.row(
                    ev.lineno,
                    format!(
                        "  maintenance @{:.3}: rederivation FAILED ({e}); serving continues",
                        ev.at_s
                    ),
                );
                return self.recorder.record_event(
                    "anomaly",
                    fields([
                        ("what", Json::from("rederive_failed")),
                        ("at_s", Json::from(ev.at_s)),
                        ("error", Json::from(e.to_string().as_str())),
                    ]),
                );
            }
        };
        self.report.rederivations += n;
        for j in drifted {
            self.pending[j].clear();
            // The fresh model starts the ladder over: cold correction
            // cells, budget restored.
            self.correction.reset_site(&self.fleet[j].0 .0);
            self.saturation_budget[j] = SATURATION_REFIT_BUDGET;
        }
        let version = self.registry.version();
        self.row(
            ev.lineno,
            format!(
                "  maintenance @{:.3}: rederived {n} drifted model(s) -> registry v{version}",
                ev.at_s
            ),
        );
        self.recorder.record_event(
            "rederive",
            fields([
                ("at_s", Json::from(ev.at_s)),
                ("rebuilt", Json::from(n)),
                ("registry_version", Json::from(version)),
            ]),
        );
    }

    /// The prefix shared by requests and observations: build the line's
    /// agent (seeded by `split_stream(root_seed, lineno)`), apply the
    /// site's degradation, parse, classify, tick, probe and price. Every
    /// failure is a per-line message, never a panic or an abort.
    fn price_line(&self, site: &SiteId, sql: &str, lineno: usize) -> Result<PricedLine, String> {
        let mut agent = (self.make_agent)(site, split_stream(self.root_seed, lineno as u64))
            .ok_or_else(|| format!("unknown site `{site}`"))?;
        let factor = self.degradation.get(site).copied().unwrap_or(1.0);
        apply_degradation(&mut agent, factor)?;
        let schema = agent.shared_catalog();
        let query = parse_query(&schema, sql).map_err(|e| e.to_string())?;
        let class =
            classify(&schema, &query).ok_or_else(|| "query cannot be classified".to_string())?;
        agent.tick();
        let probe = agent.probe();
        let estimate = self.registry.estimate(&EstimateQuery {
            site,
            schema: &schema,
            query: &query,
            probe_cost: probe,
            correction: self.corrector(),
        });
        Ok(PricedLine {
            agent,
            schema,
            query,
            class,
            probe,
            estimate,
        })
    }

    /// Executes one observation event: price, run, package the feedback.
    fn observe_one(
        &self,
        site: &SiteId,
        sql: &str,
        lineno: usize,
    ) -> Result<ObservedSample, String> {
        let mut line = self.price_line(site, sql, lineno)?;
        let x = line
            .class
            .family()
            .extract(&line.schema, &line.query)
            .ok_or_else(|| "explanatory variables cannot be extracted".to_string())?;
        let observed = line
            .agent
            .run(&line.query)
            .map_err(|e| e.to_string())?
            .cost_s;
        // A non-finite cost would poison the ledgers, the drift monitor
        // and the refit accumulator.
        let estimates = line.estimate.as_ref().map(|d| [d.estimate, d.raw_estimate]);
        if !observed.is_finite() || !estimates.map_or(true, |e| e.iter().all(|v| v.is_finite())) {
            return Err(format!(
                "observed cost {observed} or its estimate is not finite"
            ));
        }
        Ok(ObservedSample {
            class: line.class,
            probe: line.probe,
            observed,
            estimate: line.estimate,
            x,
        })
    }

    /// End of trace: trailing heartbeats, latency percentiles, ledger
    /// summaries, the loop span's fields and metrics, and the rendering.
    fn finish(mut self, trace: &RequestTrace, span: SpanId) -> ServeReport {
        self.report.virtual_makespan_s = self.clock.max(self.busy_until);
        // The heartbeat schedule runs to the end of the replay even when
        // the last stretch is pure service time.
        self.heartbeat(self.report.virtual_makespan_s);
        self.latencies.sort_by(f64::total_cmp);
        let (report, tel) = (&mut self.report, &mut self.ctx.telemetry);
        report.latency_p50_s = percentile_sorted(&self.latencies, 0.50);
        report.latency_p95_s = percentile_sorted(&self.latencies, 0.95);
        report.latency_p99_s = percentile_sorted(&self.latencies, 0.99);
        self.ledger.fold_metrics(tel);
        report.ledger = self.ledger.summaries();
        (report.ledger_p50_abs_rel_err, report.ledger_p95_abs_rel_err) =
            self.ledger.pooled_abs_rel_percentiles();
        report.ledger_evictions = self.ledger.evictions();
        if self.config.correction {
            self.correction.fold_metrics(tel);
            tel.field(
                span,
                "corrections_applied",
                report.corrections_applied as u64,
            );
            tel.field(
                span,
                "correction_escalations",
                report.correction_escalations as u64,
            );
        }
        for (key, value) in [
            ("requests", report.requests),
            ("answered", report.answered),
            ("shed", report.shed_queue_full + report.shed_deadline),
            ("observations", report.observations),
            ("incremental_refits", report.incremental_refits),
            ("rederivations", report.rederivations),
            ("heartbeats", report.heartbeats),
            ("ledger_cells", report.ledger.len()),
        ] {
            tel.field(span, key, value as u64);
        }
        tel.gauge("serve.virtual_makespan_s", report.virtual_makespan_s);
        tel.gauge("serve.max_queue_depth", report.max_queue_depth as f64);
        tel.inc("pool.jobs_completed", self.dispatched as u64);
        self.registry.fold_metrics(tel);
        tel.end_span(span);
        self.report.rendered = self.render(trace);
        self.report
    }

    /// The human-readable report: summary lines, the accuracy ledger, then
    /// every row in trace-line order with malformed lines in place.
    fn render(&self, trace: &RequestTrace) -> String {
        let r = &self.report;
        let mut out = format!(
            "serve loop: {} request(s) — {} answered, {} no-model, {} shed ({} queue-full, {} deadline; {:.1}% of requests), {} error line(s)\n",
            r.requests,
            r.answered,
            r.no_model,
            r.shed_queue_full + r.shed_deadline,
            r.shed_queue_full,
            r.shed_deadline,
            r.shed_fraction() * 100.0,
            r.errors
        );
        out.push_str(&format!(
            "maintenance: {} observation(s), {} incremental refit(s), {} rederivation(s); registry v{} ({} model(s))\n",
            r.observations,
            r.incremental_refits,
            r.rederivations,
            self.registry.version(),
            self.registry.len()
        ));
        out.push_str(&format!(
            "virtual time: makespan {:.3}s, latency p50 {:.3}s p95 {:.3}s p99 {:.3}s, peak queue {}, {} batch(es), {} heartbeat(s)\n",
            r.virtual_makespan_s,
            r.latency_p50_s,
            r.latency_p95_s,
            r.latency_p99_s,
            r.max_queue_depth,
            r.batches,
            r.heartbeats
        ));
        if self.config.correction {
            out.push_str(&format!(
                "correction: {} applied, {} escalation(s), {} live cell(s), pooled |rel err| p50 {:.3} p95 {:.3}\n",
                r.corrections_applied,
                r.correction_escalations,
                self.correction.len(),
                r.ledger_p50_abs_rel_err,
                r.ledger_p95_abs_rel_err
            ));
        }
        out.push_str(&self.ledger.render());
        let mut errors = trace.errors.iter().peekable();
        for (lineno, line) in &self.rows {
            while let Some((e, msg)) = errors.next_if(|(e, _)| e < lineno) {
                out.push_str(&format!("  {e:>3} ERROR: {msg}\n"));
            }
            out.push_str(line);
            out.push('\n');
        }
        for (e, msg) in errors {
            out.push_str(&format!("  {e:>3} ERROR: {msg}\n"));
        }
        out
    }
}

/// Builds the maintainer fleet for every model of a versioned
/// [`crate::store::CatalogSnapshot`] whose site passes `site_filter`, in
/// `(site, class)` order, restoring persisted fit accumulators when
/// present so incremental refits resume from the full fitting sample.
pub fn fleet_from_snapshot(
    snapshot: &crate::store::CatalogSnapshot,
    maintenance: crate::maintenance::MaintenanceConfig,
    derivation: crate::derive::DerivationConfig,
    algorithm: crate::states::StateAlgorithm,
    site_filter: impl Fn(&SiteId) -> bool,
) -> Result<Vec<(SiteId, ModelMaintainer)>, crate::CoreError> {
    let catalog = &snapshot.catalog;
    catalog
        .models()
        .filter(|(site, _, _)| site_filter(site))
        .map(|(site, class, model)| {
            let maintainer = ModelMaintainer::from_model(
                class,
                model.clone(),
                catalog.accumulator(site, class).cloned(),
                maintenance.clone(),
                derivation.clone(),
                algorithm,
            )?;
            Ok((site.clone(), maintainer))
        })
        .collect()
}

/// Applies a site's cumulative durable I/O degradation to a fresh agent.
fn apply_degradation(agent: &mut MdbsAgent, factor: f64) -> Result<(), String> {
    if (factor - 1.0).abs() > f64::EPSILON {
        agent
            .apply_event(&EnvironmentEvent::DiskReplacement {
                io_cost_factor: factor,
            })
            .map_err(|e| e.to_string())?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_parses_all_three_event_kinds() {
        let trace = RequestTrace::parse(
            "# serve-loop trace\n\
             @0.0 request oracle select a1 from R2 where a2 < 100\n\
             \n\
             @0.5 observe oracle select a1 from R2 where a2 < 100\n\
             @1.0 degrade oracle 4.0\n",
        );
        assert!(trace.errors.is_empty(), "{:?}", trace.errors);
        assert_eq!(trace.len(), 3);
        assert_eq!(trace.events[0].lineno, 2);
        assert!(matches!(trace.events[0].event, TraceEvent::Request { .. }));
        assert!(matches!(trace.events[1].event, TraceEvent::Observe { .. }));
        assert!(matches!(
            trace.events[2].event,
            TraceEvent::Degrade { factor, .. } if factor == 4.0
        ));
    }

    #[test]
    fn bad_trace_lines_are_collected_not_fatal() {
        let trace = RequestTrace::parse(
            "@0.0 request oracle select a1 from R2 where a2 < 100\n\
             no-at-prefix request oracle select a1 from R2\n\
             @abc request oracle select a1 from R2\n\
             @0.5 frobnicate oracle select a1 from R2\n\
             @0.6 request oracle\n\
             @0.7 degrade oracle -2\n\
             @1.0 request oracle select a1 from R2 where a2 < 50\n\
             @0.2 request oracle select a1 from R2 where a2 < 50\n",
        );
        assert_eq!(trace.len(), 2, "lines 1 and 7 are well-formed");
        assert_eq!(trace.errors.len(), 6);
        let messages: Vec<&str> = trace.errors.iter().map(|(_, m)| m.as_str()).collect();
        assert!(messages.iter().any(|m| m.contains("expected `@TIME")));
        assert!(messages.iter().any(|m| m.contains("bad timestamp")));
        assert!(messages.iter().any(|m| m.contains("unknown event kind")));
        assert!(messages.iter().any(|m| m.contains("goes backwards")));
        assert!(messages.iter().any(|m| m.contains("degrade factor")));
    }

    #[test]
    fn trace_timestamps_must_not_regress_but_may_tie() {
        let trace = RequestTrace::parse(
            "@1.0 request oracle select a1 from R2 where a2 < 100\n\
             @1.0 request oracle select a1 from R2 where a2 < 200\n",
        );
        assert_eq!(trace.len(), 2);
        assert!(trace.errors.is_empty());
    }

    #[test]
    fn serve_config_validation_clamps_degenerate_knobs() {
        let v = ServeConfig {
            queue_capacity: 0,
            batch_max: 0,
            batch_delay_s: -1.0,
            service_cost_s: -1.0,
            deadline_s: -1.0,
            refit_threshold: 0,
            workers: Some(3),
            heartbeat_s: -1.0,
            flight_capacity: 0,
            correction: true,
            correction_ewma_alpha: 7.0,
            correction_saturation: -0.5,
            ledger_max_cells: 0,
        }
        .clamped();
        assert_eq!(v.queue_capacity, 1);
        assert_eq!(v.batch_max, 1);
        assert_eq!(v.batch_delay_s, 0.0);
        assert_eq!(v.service_cost_s, 0.0);
        assert_eq!(v.deadline_s, 0.0);
        assert_eq!(v.refit_threshold, 1);
        assert_eq!(v.workers, Some(3));
        assert_eq!(v.heartbeat_s, 0.0);
        assert_eq!(v.flight_capacity, 0, "capacity 0 = disabled, not clamped");
        assert!(v.correction, "the toggle is never clamped away");
        assert_eq!(v.correction_ewma_alpha, 1.0);
        assert_eq!(v.correction_saturation, 1e-6);
        assert_eq!(v.ledger_max_cells, 1);
        assert_eq!(
            ServeConfig {
                heartbeat_s: f64::NAN,
                ..ServeConfig::default()
            }
            .clamped()
            .heartbeat_s,
            0.0
        );
        let sane = ServeConfig::default();
        assert_eq!(sane.clone().clamped(), sane);
    }

    #[test]
    fn serve_config_builder_accepts_sane_and_rejects_degenerate() {
        let built = ServeConfig::builder()
            .queue_capacity(4)
            .batch_max(2)
            .batch_delay_s(0.05)
            .service_cost_s(0.2)
            .deadline_s(0.5)
            .refit_threshold(20)
            .workers(Some(2))
            .heartbeat_s(10.0)
            .flight_capacity(64)
            .correction(true)
            .correction_ewma_alpha(0.5)
            .correction_saturation(0.4)
            .ledger_max_cells(128)
            .build()
            .expect("sane knobs build");
        assert_eq!(built.queue_capacity, 4);
        assert!(built.correction);
        assert_eq!(built.correction_ewma_alpha, 0.5);
        assert_eq!(built.ledger_max_cells, 128);
        // Defaults alone always build, with correction off.
        let d = ServeConfig::builder().build().expect("defaults build");
        assert_eq!(d, ServeConfig::default());
        assert!(!d.correction, "correction is opt-in");
        // Degenerate knobs are errors, not silent clamps.
        for (name, b) in [
            ("queue", ServeConfig::builder().queue_capacity(0)),
            ("batch", ServeConfig::builder().batch_max(0)),
            ("delay", ServeConfig::builder().batch_delay_s(-1.0)),
            ("service", ServeConfig::builder().service_cost_s(f64::NAN)),
            ("deadline", ServeConfig::builder().deadline_s(-0.1)),
            ("refit", ServeConfig::builder().refit_threshold(0)),
            ("heartbeat", ServeConfig::builder().heartbeat_s(-1.0)),
            ("alpha0", ServeConfig::builder().correction_ewma_alpha(0.0)),
            ("alpha2", ServeConfig::builder().correction_ewma_alpha(2.0)),
            (
                "saturation",
                ServeConfig::builder().correction_saturation(0.0),
            ),
            ("cells", ServeConfig::builder().ledger_max_cells(0)),
        ] {
            assert!(
                matches!(b.build(), Err(crate::CoreError::Degenerate(_))),
                "{name} must be rejected"
            );
        }
    }

    #[test]
    fn trace_ids_are_unique_and_seed_stable() {
        let ids: Vec<String> = (1..=500).map(|l| mint_trace_id(9, l)).collect();
        let mut dedup = ids.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), ids.len(), "trace ids must be unique per line");
        // A pure function of (seed, lineno): stable across calls, distinct
        // across seeds.
        assert_eq!(mint_trace_id(9, 42), mint_trace_id(9, 42));
        assert_ne!(mint_trace_id(9, 42), mint_trace_id(10, 42));
    }

    #[test]
    fn empty_report_json_is_well_formed() {
        let report = ServeReport::default();
        assert_eq!(report.shed_fraction(), 0.0);
        let rendered = report.to_json().render();
        let parsed = mdbs_obs::json::parse(&rendered).expect("report json parses");
        assert_eq!(parsed.get("requests").and_then(Json::as_i64), Some(0));
        assert!(matches!(parsed.get("ledger"), Some(Json::Arr(a)) if a.is_empty()));
    }
}
