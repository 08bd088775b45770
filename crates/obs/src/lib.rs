//! # mdbs-obs
//!
//! The workspace's observability substrate. The paper's whole premise is
//! that a dynamic environment must be *observed* to be modeled; this crate
//! makes our own pipeline observable in the same spirit, while honoring the
//! zero-external-dependency policy (`tests/hermetic.rs`): everything here is
//! `std`-only, including the JSON rendering and parsing.
//!
//! Three layers:
//!
//! * [`metrics`] — a [`MetricsRegistry`] of
//!   counters, gauges and log-bucketed histograms, snapshotable and
//!   renderable as text or JSONL,
//! * [`span`] + [`telemetry`] — hierarchical [`SpanRecord`]s
//!   with deterministic (virtual-time, field) payloads and an explicitly
//!   non-deterministic wall-clock duration, collected by the [`Telemetry`]
//!   facade that instrumented code receives as `&mut Telemetry`,
//! * [`sink`] — a structured [`EventSink`] trait with
//!   in-memory, discarding and file-backed JSONL implementations,
//! * [`recorder`] — the serving-loop [`FlightRecorder`] (bounded ring of
//!   request lifecycles plus maintenance/heartbeat events) and the
//!   per-(site, state) [`AccuracyLedger`] of served-vs-observed relative
//!   error.
//!
//! **Determinism policy.** Telemetry from a seeded run is itself a pure
//! function of the seeds *except* for wall-clock attribution. Wall-clock
//! values live only in fields named by [`telemetry::WALL_CLOCK_FIELDS`]
//! (currently `wall_ms`), and [`telemetry::strip_wall_clock`] removes them
//! from rendered JSONL so determinism comparisons can assert byte equality
//! on the remainder. Never put a non-deterministic value anywhere else.
//!
//! ```
//! use mdbs_obs::Telemetry;
//!
//! let mut tel = Telemetry::enabled();
//! let span = tel.begin_span("derive.sampling");
//! tel.field(span, "observations", 200u64);
//! tel.inc("engine.executions", 200);
//! tel.observe("engine.contention_inflation", 3.5);
//! tel.end_span(span);
//! let jsonl = tel.render_jsonl();
//! assert!(mdbs_obs::telemetry::strip_wall_clock(&jsonl).contains("derive.sampling"));
//! ```

#![warn(missing_docs)]

pub mod json;
pub mod metrics;
pub mod recorder;
pub mod sink;
pub mod span;
pub mod telemetry;

pub use metrics::MetricsRegistry;
pub use recorder::{AccuracyLedger, FlightRecorder, LedgerSummary};
pub use sink::{Event, EventSink, JsonlFileSink, MemorySink, NullSink};
pub use span::{SpanId, SpanRecord};
pub use telemetry::{strip_wall_clock, Telemetry};
