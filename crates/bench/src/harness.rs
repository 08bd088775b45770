//! A tiny in-tree wall-clock benchmark harness.
//!
//! The workspace keeps its dependency set hermetic (path crates only), so
//! the `[[bench]]` targets are plain `fn main()` programs built on this
//! harness instead of an external benchmarking framework. Each measurement
//! runs a closure for a configurable number of warmup iterations (excluded
//! from the report) followed by `iters` timed iterations, then reports the
//! **median** and **p95** per-iteration wall-clock time — the median is
//! robust against scheduler hiccups, the p95 surfaces tail distortions
//! that a mean would hide.
//!
//! Usage inside a bench target (`harness = false` in `Cargo.toml`):
//!
//! ```no_run
//! use mdbs_bench::harness::Harness;
//!
//! let mut h = Harness::new("my_bench");
//! h.bench("fast_path", 10, 100, || 2 + 2);
//! h.finish();
//! ```
//!
//! `cargo bench` passes filter arguments through; [`Harness::new`] reads
//! them from the process arguments, so `cargo bench qr` runs only the
//! measurements whose name contains `"qr"`.
//!
//! `--json PATH` (or `--json=PATH`) additionally writes the report as a
//! machine-readable JSON document when [`Harness::finish`] runs, so CI can
//! track results without scraping the human-oriented table.

use mdbs_obs::json::Json;
use std::hint::black_box;
// lint:allow(no-wall-clock): the bench harness exists to measure wall-clock time; nothing here feeds reproducible output
#[allow(clippy::disallowed_types)]
use std::time::Instant;

/// One completed measurement.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Measurement name (`group/case`-style by convention).
    pub name: String,
    /// Timed iterations (after warmup).
    pub iters: usize,
    /// Median per-iteration time in nanoseconds.
    pub median_ns: u128,
    /// 95th-percentile per-iteration time in nanoseconds.
    pub p95_ns: u128,
    /// Fastest iteration in nanoseconds.
    pub min_ns: u128,
    /// Arithmetic-mean iteration time in nanoseconds.
    pub mean_ns: u128,
}

/// Collects measurements and prints a report at the end.
#[derive(Debug)]
pub struct Harness {
    title: String,
    filters: Vec<String>,
    results: Vec<Measurement>,
    json_path: Option<String>,
}

impl Harness {
    /// A harness reading name filters from the command line (as passed
    /// through by `cargo bench -- <filter>`). `--json PATH` (or
    /// `--json=PATH`) selects a JSON report file; other `--`-prefixed
    /// flags that the test harness would consume, like `--bench`, are
    /// ignored.
    pub fn new(title: &str) -> Harness {
        let mut filters = Vec::new();
        let mut json_path = None;
        let mut args = std::env::args().skip(1);
        while let Some(a) = args.next() {
            if a == "--json" {
                json_path = Some(args.next().expect("--json needs a file path"));
            } else if let Some(p) = a.strip_prefix("--json=") {
                json_path = Some(p.to_string());
            } else if !a.starts_with("--") {
                filters.push(a);
            }
        }
        let mut h = Harness::with_filters(title, filters);
        h.json_path = json_path;
        h
    }

    /// A harness with explicit name filters (empty = run everything).
    pub fn with_filters(title: &str, filters: Vec<String>) -> Harness {
        println!("\n== {title} ==");
        println!(
            "{:<38} {:>8} {:>12} {:>12} {:>12}",
            "benchmark", "iters", "median", "p95", "min"
        );
        Harness {
            title: title.to_string(),
            filters,
            results: Vec::new(),
            json_path: None,
        }
    }

    /// Redirects the JSON report to `path` (what `--json PATH` sets).
    pub fn set_json_path(&mut self, path: impl Into<String>) {
        self.json_path = Some(path.into());
    }

    /// Whether `name` passes the command-line filters.
    fn selected(&self, name: &str) -> bool {
        self.filters.is_empty() || self.filters.iter().any(|f| name.contains(f.as_str()))
    }

    /// Times `f` for `iters` iterations after `warmup` unrecorded runs and
    /// records median/p95/min/mean. The closure's result is passed through
    /// [`black_box`] so the optimizer cannot delete the measured work.
    #[allow(clippy::disallowed_methods, clippy::disallowed_types)]
    pub fn bench<R, F: FnMut() -> R>(&mut self, name: &str, warmup: usize, iters: usize, mut f: F) {
        assert!(iters > 0, "need at least one timed iteration");
        if !self.selected(name) {
            return;
        }
        for _ in 0..warmup {
            black_box(f());
        }
        let mut samples_ns: Vec<u128> = Vec::with_capacity(iters);
        for _ in 0..iters {
            let start = Instant::now();
            black_box(f());
            samples_ns.push(start.elapsed().as_nanos());
        }
        samples_ns.sort_unstable();
        let median_ns = samples_ns[samples_ns.len() / 2];
        // Nearest-rank p95: smallest sample ≥ 95 % of the distribution.
        let p95_idx =
            ((samples_ns.len() as f64 * 0.95).ceil() as usize).clamp(1, samples_ns.len()) - 1;
        let m = Measurement {
            name: name.to_string(),
            iters,
            median_ns,
            p95_ns: samples_ns[p95_idx],
            min_ns: samples_ns[0],
            mean_ns: samples_ns.iter().sum::<u128>() / samples_ns.len() as u128,
        };
        println!(
            "{:<38} {:>8} {:>12} {:>12} {:>12}",
            m.name,
            m.iters,
            format_ns(m.median_ns),
            format_ns(m.p95_ns),
            format_ns(m.min_ns),
        );
        self.results.push(m);
    }

    /// Records a measurement computed outside the wall-clock timer — e.g.
    /// a byte size. `iters` is the number of underlying samples the caller
    /// aggregated; the harness prints and reports it exactly like a timed
    /// measurement.
    pub fn record(&mut self, name: &str, iters: usize, median_ns: u128, p95_ns: u128) {
        assert!(iters > 0, "need at least one underlying sample");
        if !self.selected(name) {
            return;
        }
        let m = Measurement {
            name: name.to_string(),
            iters,
            median_ns,
            p95_ns,
            min_ns: median_ns.min(p95_ns),
            mean_ns: median_ns,
        };
        println!(
            "{:<38} {:>8} {:>12} {:>12} {:>12}",
            m.name,
            m.iters,
            format_ns(m.median_ns),
            format_ns(m.p95_ns),
            format_ns(m.min_ns),
        );
        self.results.push(m);
    }

    /// The measurements recorded so far.
    pub fn results(&self) -> &[Measurement] {
        &self.results
    }

    /// Renders the report as a JSON document (what the `--json` file gets).
    pub fn to_json(&self) -> Json {
        let results: Vec<Json> = self
            .results
            .iter()
            .map(|m| {
                Json::Obj(vec![
                    ("name".into(), Json::Str(m.name.clone())),
                    ("iters".into(), Json::Int(m.iters as i64)),
                    ("median_ns".into(), Json::Int(m.median_ns as i64)),
                    ("p95_ns".into(), Json::Int(m.p95_ns as i64)),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("title".into(), Json::Str(self.title.clone())),
            ("results".into(), Json::Arr(results)),
        ])
    }

    /// Prints the closing line and, when `--json PATH` was given, writes
    /// the JSON report. Call once at the end of `main`.
    pub fn finish(self) {
        if let Some(path) = &self.json_path {
            std::fs::write(path, self.to_json().render() + "\n")
                .unwrap_or_else(|e| panic!("writing bench JSON to {path}: {e}"));
            println!("json report -> {path}");
        }
        println!(
            "== {}: {} measurement(s) ==\n",
            self.title,
            self.results.len()
        );
    }
}

/// Renders nanoseconds with an adaptive unit (ns / µs / ms / s).
fn format_ns(ns: u128) -> String {
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.2} s", ns as f64 / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_requested_iterations_and_orders_stats() {
        let mut h = Harness::with_filters("test", vec![]);
        h.bench("noop", 2, 25, || 1 + 1);
        let m = &h.results()[0];
        assert_eq!(m.iters, 25);
        assert!(m.min_ns <= m.median_ns);
        assert!(m.median_ns <= m.p95_ns);
    }

    #[test]
    fn filters_skip_unmatched_names() {
        let mut h = Harness::with_filters("test", vec!["keep".into()]);
        h.bench("keep/this", 0, 5, || ());
        h.bench("drop/this", 0, 5, || ());
        assert_eq!(h.results().len(), 1);
        assert_eq!(h.results()[0].name, "keep/this");
    }

    #[test]
    fn json_report_has_expected_shape() {
        let mut h = Harness::with_filters("test", vec![]);
        h.bench("a/b", 0, 5, || 1);
        let j = h.to_json();
        assert_eq!(j.get("title").and_then(Json::as_str), Some("test"));
        let results = match j.get("results") {
            Some(Json::Arr(v)) => v,
            other => panic!("results should be an array, got {other:?}"),
        };
        assert_eq!(results.len(), 1);
        let r = &results[0];
        assert_eq!(r.get("name").and_then(Json::as_str), Some("a/b"));
        assert_eq!(r.get("iters").and_then(Json::as_i64), Some(5));
        assert!(r.get("median_ns").and_then(Json::as_i64).is_some());
        assert!(r.get("p95_ns").and_then(Json::as_i64).is_some());
        // The rendered report parses back.
        mdbs_obs::json::parse(&j.render()).expect("valid JSON");
    }

    #[test]
    fn injected_measurements_report_like_timed_ones() {
        let mut h = Harness::with_filters("test", vec![]);
        h.record("size/bytes", 40, 1_000_000, 5_000_000);
        let m = &h.results()[0];
        assert_eq!((m.iters, m.median_ns, m.p95_ns), (40, 1_000_000, 5_000_000));
        let j = h.to_json();
        // Injected rows satisfy the same JSON contract bench-json-check
        // enforces on timed rows.
        let r = match j.get("results") {
            Some(Json::Arr(v)) => &v[0],
            other => panic!("results should be an array, got {other:?}"),
        };
        assert_eq!(r.get("median_ns").and_then(Json::as_i64), Some(1_000_000));
    }

    #[test]
    fn formatting_picks_sane_units() {
        assert_eq!(format_ns(999), "999 ns");
        assert_eq!(format_ns(1_500), "1.50 µs");
        assert_eq!(format_ns(2_000_000), "2.00 ms");
        assert_eq!(format_ns(3_000_000_000), "3.00 s");
    }
}
