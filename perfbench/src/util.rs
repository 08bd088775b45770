//! Timing statistics, the result line, the scratch directory and the
//! thin wrappers the workloads share.

use mdbs_obs::json::{self, Json};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
// lint:allow(no-wall-clock): a benchmark measures wall time; every read is in this file
use std::time::{Duration, Instant};

/// One reported metric: name, value, unit.
pub type Metric = (String, f64, &'static str);

/// What one run reports on its last line.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (requests replayed or derivation jobs run).
    pub attempted: u64,
    /// Of those, the ones that failed, were shed or found no model.
    pub failed: u64,
    /// Metrics in print order.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Appends a metric.
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// The result line. Only a run whose checks all passed gets one.
    pub fn render(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                (
                    name.clone(),
                    Json::Obj(vec![
                        ("value".to_string(), Json::Float(*value)),
                        ("unit".to_string(), Json::from(*unit)),
                    ]),
                )
            })
            .collect();
        Json::Obj(vec![
            ("correct".to_string(), Json::Bool(true)),
            ("attempted".to_string(), Json::Int(self.attempted as i64)),
            ("failed".to_string(), Json::Int(self.failed as i64)),
            ("metrics".to_string(), Json::Obj(metrics)),
        ])
        .render()
    }
}

/// Fails the run with `msg` unless `cond` holds.
pub fn check(cond: bool, msg: impl FnOnce() -> String) -> Result<(), String> {
    if cond {
        Ok(())
    } else {
        Err(format!("check failed: {}", msg()))
    }
}

/// Linear-interpolated quantile `q` in `[0, 1]` of unsorted samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    if s.is_empty() {
        return f64::NAN;
    }
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// A started wall-clock timer.
// lint:allow(no-wall-clock): the benchmark's timer
pub struct Stopwatch(Instant);

impl Stopwatch {
    /// Starts timing now.
    pub fn start() -> Stopwatch {
        Stopwatch(Instant::now()) // lint:allow(no-wall-clock): the benchmark's timer
    }

    /// Wall time since the start.
    pub fn elapsed(&self) -> Duration {
        self.0.elapsed()
    }
}

/// The end of a run's measuring window.
// lint:allow(no-wall-clock): the benchmark's measuring window
pub struct Deadline(Instant);

impl Deadline {
    /// `seconds` from now.
    pub fn after(seconds: f64) -> Deadline {
        Deadline(Stopwatch::start().0 + Duration::from_secs_f64(seconds))
    }

    /// True once the window has closed.
    pub fn passed(&self) -> bool {
        Stopwatch::start().0 >= self.0
    }
}

/// Runs `f` and returns its result with the elapsed wall time.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let watch = Stopwatch::start();
    let out = f();
    (out, watch.elapsed())
}

/// The timed figures of one step of a measuring loop, by name, in the
/// order they were taken.
#[derive(Debug, Default)]
pub struct Walls(Vec<(&'static str, f64)>);

impl Walls {
    /// Records one timed figure.
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.0.push((name, value));
    }

    /// Every figure called `name`.
    pub fn get<'a>(&'a self, name: &'a str) -> impl Iterator<Item = f64> + 'a {
        self.0
            .iter()
            .filter(move |(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// The faster of each pair of figures of two takes of one step.
    fn faster(self, other: Walls) -> Result<Walls, String> {
        let same =
            self.0.len() == other.0.len() && self.0.iter().zip(&other.0).all(|(a, b)| a.0 == b.0);
        check(same, || {
            "two passes over one step timed different work".into()
        })?;
        let pairs = self.0.into_iter().zip(other.0);
        Ok(Walls(
            pairs.map(|((name, a), (_, b))| (name, a.min(b))).collect(),
        ))
    }
}

/// Runs a measuring loop in two passes over the same steps. Pass one runs
/// `step(0)`, `step(1)`, … for half of `seconds` (and at least `min_steps`
/// steps); pass two runs each of those steps again, in order. Every timed
/// figure of a step is the faster of its two takes: interference from the
/// host only ever adds time, and a spell of it shorter than half the
/// window slows at most one take of each step.
pub fn two_passes(
    seconds: f64,
    min_steps: u64,
    mut step: impl FnMut(u64, &mut Walls) -> Result<(), String>,
) -> Result<Vec<Walls>, String> {
    let deadline = Deadline::after(seconds / 2.0);
    let mut first = Vec::new();
    while (first.len() as u64) < min_steps || !deadline.passed() {
        let mut walls = Walls::default();
        step(first.len() as u64, &mut walls)?;
        first.push(walls);
    }
    let mut steps = Vec::with_capacity(first.len());
    for (i, walls) in first.into_iter().enumerate() {
        let mut again = Walls::default();
        step(i as u64, &mut again)?;
        steps.push(walls.faster(again)?);
    }
    Ok(steps)
}

/// Every figure called `name` over all steps.
pub fn all(steps: &[Walls], name: &str) -> Vec<f64> {
    steps.iter().flat_map(|w| w.get(name)).collect()
}

/// A stable digest (64-bit FNV-1a) of an output, to compare takes
/// without keeping them.
pub fn digest(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Wall time in microseconds.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Wall time in milliseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// A per-run scratch directory under the working directory, removed on
/// drop.
pub struct WorkDir(PathBuf);

impl WorkDir {
    /// Creates `.perfbench_work/<name>-<pid>` afresh.
    pub fn create(name: &str) -> Result<WorkDir, String> {
        let dir = Path::new(".perfbench_work").join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }

    /// A path inside the directory, as a string for argv.
    pub fn file(&self, name: &str) -> String {
        self.0.join(name).to_string_lossy().into_owned()
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leaves the parent only when no other run still uses it.
        let _ = std::fs::remove_dir(".perfbench_work");
    }
}

/// Calls the CLI's own entry point with `argv`, as `mdbs-qcost` would.
pub fn cli(argv: &[String]) -> Result<String, String> {
    mdbs_cli::dispatch(argv).map_err(|e| format!("`mdbs-qcost {}` failed: {e}", argv.join(" ")))
}

/// Builds an argv from string-like parts.
pub fn argv<S: AsRef<str>>(parts: &[S]) -> Vec<String> {
    parts.iter().map(|s| s.as_ref().to_string()).collect()
}

/// Reads a file the program wrote.
pub fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

/// Writes an input file for the program.
pub fn write(path: &str, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))
}

/// Parses one JSON document.
pub fn parse_json(text: &str) -> Result<Json, String> {
    json::parse(text.trim()).map_err(|e| format!("bad JSON from the program: {e:?}"))
}

/// A number field of a JSON object.
pub fn num(obj: &Json, key: &str) -> Result<f64, String> {
    obj.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("JSON object has no number `{key}`"))
}

/// The spans and counters of a telemetry JSONL document, as written by
/// `--telemetry` or `Telemetry::render_jsonl`.
#[derive(Debug, Default)]
pub struct TelemetryDump {
    /// `(name, depth, wall_ms)` per span, in record order.
    pub spans: Vec<(String, i64, f64)>,
    /// Counter totals by name.
    pub counters: BTreeMap<String, f64>,
}

impl TelemetryDump {
    /// Parses every line of a telemetry JSONL document.
    pub fn parse(jsonl: &str) -> Result<TelemetryDump, String> {
        let mut dump = TelemetryDump::default();
        for line in jsonl.lines().filter(|l| !l.trim().is_empty()) {
            let rec = parse_json(line)?;
            let name = rec.get("name").and_then(Json::as_str).unwrap_or_default();
            match rec.get("type").and_then(Json::as_str) {
                Some("span") => dump.spans.push((
                    name.to_string(),
                    rec.get("depth").and_then(Json::as_i64).unwrap_or(0),
                    num(&rec, "wall_ms")?,
                )),
                Some("counter") => {
                    *dump.counters.entry(name.to_string()).or_default() += num(&rec, "value")?;
                }
                _ => {}
            }
        }
        Ok(dump)
    }

    /// Wall milliseconds of every span called `name`.
    pub fn span_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|(n, _, _)| n == name)
            .map(|&(_, _, ms)| ms)
            .collect()
    }

    /// Total wall milliseconds of the spans called `name`.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.span_ms(name).iter().sum()
    }

    /// A counter's total (0 when never incremented).
    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }
}
