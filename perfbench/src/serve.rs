//! The `serve_drift` workload and the serve pieces `derive_catalog` shares:
//! back-to-back `serve --loop` replays through the CLI, and a traced replay
//! that times every layer a request crosses.

use crate::derive::{self, IUPMA_UNIFORM};
use crate::gen;
use crate::util::{
    self, check, median, ms, num, quantile, timed, us, Deadline, Outcome, Stopwatch, TelemetryDump,
    Walls, WorkDir,
};
use mdbs_cli::site::{parse_profile, site_agent, SiteName};
use mdbs_core::catalog::SiteId;
use mdbs_core::classes::classify;
use mdbs_core::derive::DerivationConfig;
use mdbs_core::pool;
use mdbs_core::server::fleet_from_snapshot;
use mdbs_core::store::{CatalogStore, FileCatalogStore};
use mdbs_core::{
    EstimateQuery, EstimationServer, MaintenanceConfig, ModelRegistry, PipelineCtx, RequestTrace,
    ServeConfig, ServeReport, StateAlgorithm, TraceEvent,
};
use mdbs_obs::json::Json;
use mdbs_sim::sql::parse_query;
use mdbs_sim::{ContentionProfile, EnvironmentEvent, MdbsAgent};
use mdbs_stats::rng::split_stream;
use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::time::Duration;

/// `--profile` of every replay: the CLI default.
const PROFILE: &str = IUPMA_UNIFORM.profile;

/// `--heartbeat` of drift replays, in virtual seconds.
const HEARTBEAT_S: f64 = 5.0;

/// The serving catalog is a fixture derived with this seed whatever the
/// run's seed, so serve figures vary with the trace alone.
const CATALOG_SEED: u64 = 1;

/// Steps (one replay each) the first pass of every `serve_drift` run takes
/// at least; accuracy figures come from the traces of the first this many.
/// At least `DERIVE_EVERY`, so every run times a re-derivation.
const MIN_STEPS: u64 = 64;

/// Workers of the replays under load (`nproc` of the reference machine).
const JOBS: usize = 2;

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// The serving catalog is derived again after every this many steps, so
/// `derive_models_per_s` samples the whole measuring window rather than
/// the few seconds of set-up. Derivation is deterministic, so the
/// archived catalog the replays serve from never changes.
const DERIVE_EVERY: u64 = 5;

/// Paths of one replay's inputs and outputs.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// The binary catalog served from.
    pub catalog: String,
    /// The trace file.
    pub trace: String,
    /// `--flight-recorder` output.
    pub flight: String,
    /// `--report-json` output.
    pub report: String,
    /// `--telemetry` output of traced replays.
    pub telemetry: String,
    /// `--seed`.
    pub seed: u64,
}

impl Inputs {
    /// Inputs under `dir` serving `catalog`.
    pub fn new(dir: &WorkDir, seed: u64, catalog: &str) -> Inputs {
        Inputs {
            catalog: catalog.to_string(),
            trace: dir.file("trace.txt"),
            flight: dir.file("flight.jsonl"),
            report: dir.file("report.json"),
            telemetry: dir.file("serve.jsonl"),
            seed,
        }
    }
}

/// The `serve --loop` argv; `outputs` forces the flight recorder and the
/// JSON report even for workloads that do not write them.
fn replay_argv(inputs: &Inputs, drift: bool, jobs: usize, outputs: bool) -> Vec<String> {
    let mut argv = util::argv(&[
        "serve",
        "--loop",
        "--catalog",
        &inputs.catalog,
        "--trace",
        &inputs.trace,
        "--jobs",
        &jobs.to_string(),
        "--seed",
        &inputs.seed.to_string(),
        "--profile",
        PROFILE,
    ]);
    if drift {
        argv.extend(util::argv(&[
            "--correction",
            "--heartbeat",
            &HEARTBEAT_S.to_string(),
        ]));
    }
    if outputs || drift {
        argv.extend(util::argv(&[
            "--flight-recorder",
            &inputs.flight,
            "--report-json",
            &inputs.report,
        ]));
    }
    argv
}

/// The summary line of a rendered replay report.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Counts {
    requests: u64,
    answered: u64,
    failed: u64,
}

impl Counts {
    /// Parses `serve loop: R request(s) — A answered, N no-model, S shed
    /// (Q queue-full, D deadline; P% of requests), E error line(s)` and
    /// checks that answered plus failed equals attempted.
    fn parse(out: &str) -> Result<Counts, String> {
        let line = out
            .lines()
            .find(|l| l.starts_with("serve loop: "))
            .ok_or("replay printed no summary line")?;
        let n: Vec<u64> = line
            .split_whitespace()
            .filter_map(|w| w.trim_matches(|c| "(),;".contains(c)).parse().ok())
            .collect();
        let [requests, answered, no_model, shed, _, _, errors] = n[..] else {
            return Err(format!("unexpected summary line `{line}`"));
        };
        let failed = no_model + shed + errors;
        check(answered + failed == requests, || {
            format!("answered + failed != attempted in `{line}`")
        })?;
        Ok(Counts {
            requests,
            answered,
            failed,
        })
    }
}

/// Back-to-back CLI replays by one client. Every replay of one step of
/// the measuring loop must print the same.
#[derive(Debug, Default)]
pub struct Replays {
    /// Digest of what the first replay of each step printed.
    printed: BTreeMap<u64, u64>,
    /// Requests attempted over every replay.
    pub attempted: u64,
    /// Requests failed, shed or unanswered over every replay.
    pub failed: u64,
}

impl Replays {
    /// Replays the current input at `jobs` workers as part of `step`,
    /// recording `replay_ms` and `replay_us_per_answer`. Returns what it
    /// printed, and whether it was the step's first replay.
    pub fn replay(
        &mut self,
        step: u64,
        inputs: &Inputs,
        drift: bool,
        jobs: usize,
        walls: &mut Walls,
    ) -> Result<(String, bool), String> {
        let argv = replay_argv(inputs, drift, jobs, false);
        let (out, wall) = timed(|| util::cli(&argv));
        let out = out?;
        let counts = Counts::parse(&out)?;
        self.attempted += counts.requests;
        self.failed += counts.failed;
        walls.push("replay_ms", ms(wall));
        walls.push(
            "replay_us_per_answer",
            us(wall) / counts.answered.max(1) as f64,
        );
        let digest = util::digest(&out);
        let first = !self.printed.contains_key(&step);
        let seen = *self.printed.entry(step).or_insert(digest);
        check(seen == digest, || {
            format!("replays of the input of step {step} print different reports")
        })?;
        Ok((out, first))
    }
}

/// Pushes `serve_req_per_s` and `replay_wall_ms.*` of measured steps.
pub fn push_serve_metrics(steps: &[Walls], out: &mut Outcome) {
    let walls = util::all(steps, "replay_ms");
    let rates: Vec<f64> = util::all(steps, "replay_us_per_answer")
        .iter()
        .map(|us| 1e6 / us)
        .collect();
    out.push("serve_req_per_s", median(&rates), "1/s");
    out.push("replay_wall_ms.p50", quantile(&walls, 0.5), "ms");
    out.push("replay_wall_ms.p90", quantile(&walls, 0.9), "ms");
}

/// Checks that the replay report, flight records and JSON report of the
/// current input are byte-identical at `--jobs 1` and `--jobs jobs`.
pub fn check_worker_counts(inputs: &Inputs, drift: bool, jobs: usize) -> Result<(), String> {
    let mut outputs = Vec::new();
    for j in [1, jobs] {
        let out = util::cli(&replay_argv(inputs, drift, j, true))?;
        outputs.push((
            out,
            util::read(&inputs.flight)?,
            util::read(&inputs.report)?,
        ));
    }
    check(outputs[0] == outputs[1], || {
        format!("replay outputs differ between --jobs 1 and --jobs {jobs}")
    })
}

/// `(good, judged)` observations of a printed replay: those whose served
/// estimate was "good" (`TestPoint::is_good`), and all that were judged.
fn judged_observations(out: &str) -> (usize, usize) {
    let judged = out.lines().filter(|l| l.contains(" observe "));
    let (mut good, mut all) = (0, 0);
    for line in judged {
        if line.ends_with("(good)") {
            good += 1;
            all += 1;
        } else if line.ends_with("(off)") {
            all += 1;
        }
    }
    (good, all)
}

/// What a serve set-up took and made.
struct Setup {
    /// Wall seconds of the whole set-up.
    wall_s: f64,
    /// Models in the serving catalog.
    models: usize,
}

/// Set-up of `serve_drift`: the first trace file, the serving catalog
/// derived with the CLI defaults at `--jobs 2`, and its binary archive.
fn setup(inputs: &Inputs, text_catalog: &str, telemetry: Option<&str>) -> Result<Setup, String> {
    let start = Stopwatch::start();
    util::write(&inputs.trace, &gen::trace(&gen::SERVE_DRIFT, inputs.seed))?;
    let (models, _) = derive::derive(IUPMA_UNIFORM, CATALOG_SEED, JOBS, text_catalog, telemetry)?;
    derive::archive(text_catalog, &inputs.catalog)?;
    Ok(Setup {
        wall_s: start.elapsed().as_secs_f64(),
        models,
    })
}

/// The untraced `serve_drift` run: end-to-end metrics and output checks.
/// How much maintenance a trace triggers (refits, rederivations) differs a
/// lot between traces and agent seeds, so step `i` replays a fresh trace
/// with a fresh `--seed`, both the sub-seed `split_stream(seed, i)`, and a
/// run samples many of them. Accuracy comes from the replays' own ledger
/// and judged observations.
pub fn run(seed: u64, seconds: f64, dir: &WorkDir) -> Result<Outcome, String> {
    let mut inputs = Inputs::new(dir, split_stream(seed, 0), &dir.file("catalog.mdbc"));
    let text_catalog = dir.file("catalog.txt");
    let mut setups = Vec::new();
    let mut models = 0;
    for _ in 0..SETUP_REPS {
        let done = setup(&inputs, &text_catalog, None)?;
        setups.push(done.wall_s);
        models = done.models;
    }

    let mut replays = Replays::default();
    let (mut good, mut judged, mut ledger_p50) = (0, 0, Vec::new());
    let mut peak_rss = 0.0;
    let steps = util::two_passes(seconds, MIN_STEPS, |i, walls| {
        inputs.seed = split_stream(seed, i);
        util::write(&inputs.trace, &gen::trace(&gen::SERVE_DRIFT, inputs.seed))?;
        let (printed, first) = replays.replay(i, &inputs, true, JOBS, walls)?;
        if first && i < MIN_STEPS {
            let (g, all) = judged_observations(&printed);
            good += g;
            judged += all;
            ledger_p50.push(num(
                &util::parse_json(&util::read(&inputs.report)?)?,
                "ledger_p50_abs_rel_err",
            )?);
        }
        for load in derive::time_loads(&inputs.catalog, models)? {
            walls.push("load_us", load);
        }
        if (i + 1) % DERIVE_EVERY == 0 {
            let (derived, wall) =
                derive::derive(IUPMA_UNIFORM, CATALOG_SEED, JOBS, &text_catalog, None)?;
            check(derived == models, || {
                format!("the serving catalog had {models} models at set-up, {derived} later")
            })?;
            walls.push("derive_s", wall.as_secs_f64());
        }
        // The peak grows in jumps the longer a run goes (two derive workers
        // of the re-derivation peaking together, on top of what replays
        // left on the heap), so it is read once, after set-up and the first
        // replay: a fixed amount of work.
        if first && i == 0 {
            peak_rss = util::peak_rss_mib()?;
        }
        Ok(())
    })?;
    check_worker_counts(&inputs, true, JOBS)?;
    let bytes = std::fs::metadata(&inputs.catalog)
        .map_err(|e| e.to_string())?
        .len();

    let mut out = Outcome {
        attempted: replays.attempted,
        failed: replays.failed,
        ..Outcome::default()
    };
    out.push("setup_s", median(&setups), "s");
    out.push("peak_rss_mb", peak_rss, "MiB");
    push_serve_metrics(&steps, &mut out);
    out.push("estimate_rel_err.p50", median(&ledger_p50), "ratio");
    let derive_rates: Vec<f64> = util::all(&steps, "derive_s")
        .iter()
        .map(|s| models as f64 / s)
        .collect();
    out.push("derive_models_per_s", median(&derive_rates), "1/s");
    let loads = util::all(&steps, "load_us");
    out.push("catalog_load_us.p50", quantile(&loads, 0.5), "us");
    out.push("catalog_load_us.p90", quantile(&loads, 0.9), "us");
    out.push("catalog_bytes", bytes as f64, "bytes");
    out.push(
        "good_estimate_share",
        good as f64 / judged.max(1) as f64,
        "share",
    );
    Ok(out)
}

/// The traced `serve_drift` run: the derive layers of the set-up
/// derivation, the store and validation layers, and the serve layers of
/// traced replays of the first trace.
pub fn run_traced(seed: u64, seconds: f64, dir: &WorkDir) -> Result<Outcome, String> {
    let inputs = Inputs::new(dir, split_stream(seed, 0), &dir.file("catalog.mdbc"));
    let derive_tel = dir.file("derive.jsonl");
    setup(&inputs, &dir.file("catalog.txt"), Some(&derive_tel))?;
    let mut out = Outcome::default();
    derive::derive_layers(
        &[TelemetryDump::parse(&util::read(&derive_tel)?)?],
        &mut out,
    );
    derive::store_layers(&inputs.catalog, &dir.file("store.mdbc"), &mut out)?;
    let (points, wall) = derive::validate(&inputs.catalog, PROFILE, seed)?;
    out.push(
        "core.validate.us_per_query",
        us(wall) / points.len() as f64,
        "us",
    );
    let traced = traced_layers(&inputs, true, JOBS, seconds, &mut out)?;
    out.attempted = traced.attempted;
    out.failed = traced.failed;
    out.push(
        "error_share",
        traced.failed as f64 / traced.attempted as f64,
        "share",
    );
    out.push("trace_overhead_share", traced.overhead, "ratio");
    Ok(out)
}

/// What [`traced_layers`] reports besides the layer table.
pub struct TracedServe {
    /// Requests attempted over the untraced replays.
    pub attempted: u64,
    /// Of those, failed, shed or unanswered.
    pub failed: u64,
    /// Median traced replay wall over median untraced replay wall.
    pub overhead: f64,
}

/// One replay mirrored through the library exactly as `serve --loop`
/// runs it, so the registry and flight recorder stay inspectable.
struct LibraryReplay {
    server: EstimationServer,
    report: ServeReport,
    telemetry: String,
    wall: Duration,
    parse: Duration,
}

/// `record_all` makes the flight recorder keep every request instead of
/// the CLI's default last 256, so every served answer can be checked.
fn library_replay(
    inputs: &Inputs,
    drift: bool,
    traced: bool,
    record_all: bool,
    prefix: Option<RequestTrace>,
) -> Result<LibraryReplay, String> {
    let start = Stopwatch::start();
    let (trace, parse) = match prefix {
        Some(trace) => (trace, Duration::ZERO),
        None => {
            let text = util::read(&inputs.trace)?;
            timed(|| RequestTrace::parse(&text))
        }
    };
    let profile = parse_profile(PROFILE).map_err(|e| e.to_string())?;
    let mut builder = ServeConfig::builder().workers(Some(1)).correction(drift);
    if drift {
        builder = builder.heartbeat_s(HEARTBEAT_S);
    }
    if record_all {
        builder = builder.flight_capacity(trace.len());
    }
    let config = builder.build().map_err(|e| e.to_string())?;
    let maintenance = MaintenanceConfig::builder()
        .build()
        .map_err(|e| e.to_string())?;
    let mut ctx = if traced {
        PipelineCtx::traced(inputs.seed)
    } else {
        PipelineCtx::seeded(inputs.seed)
    };
    let snapshot = FileCatalogStore::sniffing(&inputs.catalog)
        .load(&mut ctx.telemetry)
        .map_err(|e| e.to_string())?;
    let registry = ModelRegistry::from_snapshot(&snapshot);
    let fleet = fleet_from_snapshot(
        &snapshot,
        maintenance,
        DerivationConfig::quick(),
        StateAlgorithm::Iupma,
        |site| SiteName::parse(&site.0).is_ok(),
    )
    .map_err(|e| e.to_string())?;
    let mut server = EstimationServer::new(registry, fleet, config);
    let report = server.run(
        &trace,
        |site: &SiteId, seed: u64| {
            SiteName::parse(&site.0)
                .ok()
                .map(|s| site_agent(s, &profile, seed))
        },
        &mut ctx,
    );
    let mut telemetry = String::new();
    if traced {
        if drift {
            util::write(&inputs.flight, &server.recorder().dump_jsonl())?;
            util::write(&inputs.report, &(report.to_json().render() + "\n"))?;
        }
        telemetry = ctx.telemetry.render_jsonl();
        util::write(&inputs.telemetry, &telemetry)?;
    }
    Ok(LibraryReplay {
        server,
        report,
        telemetry,
        wall: start.elapsed(),
        parse,
    })
}

/// Registries as they stood between maintenance publishes: entry `k`
/// holds the models after the first `k` publishing observations.
struct Epochs {
    cuts: Vec<f64>,
    registries: Vec<ModelRegistry>,
}

impl Epochs {
    /// Rebuilds every epoch by replaying the trace prefix that ends at
    /// each publishing observation (observations never depend on requests,
    /// so the prefix reproduces the registry exactly).
    fn build(
        inputs: &Inputs,
        drift: bool,
        trace: &RequestTrace,
        cuts: Vec<f64>,
    ) -> Result<Epochs, String> {
        let snapshot = FileCatalogStore::sniffing(&inputs.catalog)
            .load(&mut mdbs_obs::Telemetry::disabled())
            .map_err(|e| e.to_string())?;
        let mut registries = vec![ModelRegistry::from_snapshot(&snapshot)];
        for &cut in &cuts {
            let prefix = RequestTrace {
                events: trace
                    .events
                    .iter()
                    .filter(|e| e.at_s <= cut)
                    .cloned()
                    .collect(),
                errors: Vec::new(),
            };
            registries.push(
                library_replay(inputs, drift, false, false, Some(prefix))?
                    .server
                    .registry,
            );
        }
        Ok(Epochs { cuts, registries })
    }

    /// The registry a read at virtual time `t` saw.
    fn at(&self, t: f64) -> &ModelRegistry {
        &self.registries[self.cuts.iter().filter(|&&c| c < t).count()]
    }
}

/// Accumulated wall time and call count of one layer.
#[derive(Debug, Default, Clone, Copy)]
struct Layer {
    us: f64,
    calls: u64,
}

impl Layer {
    fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let (out, d) = timed(f);
        self.us += us(d);
        self.calls += 1;
        out
    }

    fn mean(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.us / self.calls as f64
        }
    }
}

/// Per-layer totals of one shadow pass over a trace.
#[derive(Debug, Default)]
struct Shadow {
    agent_new: Layer,
    schema_clone: Layer,
    sql_parse: Layer,
    classify: Layer,
    probe: Layer,
    estimate: Layer,
    run: Layer,
    requests: u64,
    answered: u64,
    distinct_sql: usize,
    verified: usize,
}

impl Shadow {
    fn total_us(&self) -> f64 {
        [
            self.agent_new,
            self.schema_clone,
            self.sql_parse,
            self.classify,
            self.probe,
            self.estimate,
            self.run,
        ]
        .iter()
        .map(|l| l.us)
        .sum()
    }
}

/// A served answer as the flight recorder kept it.
struct FlightAnswer {
    dispatched_s: f64,
    probe: f64,
    raw_estimate: f64,
    version: i64,
    state: String,
}

/// Answered requests (by line) and the times of publishing maintenance
/// events in a flight-recorder dump.
fn read_flight(dump: &str) -> Result<(BTreeMap<usize, FlightAnswer>, Vec<f64>), String> {
    let mut answers = BTreeMap::new();
    let mut cuts = Vec::new();
    for line in dump.lines() {
        let rec = util::parse_json(line)?;
        match rec.get("kind").and_then(Json::as_str) {
            Some("request") if rec.get("outcome").and_then(Json::as_str) == Some("answered") => {
                let raw = match rec.get("raw_estimate_s") {
                    Some(_) => num(&rec, "raw_estimate_s")?,
                    None => num(&rec, "estimate_s")?,
                };
                answers.insert(
                    num(&rec, "lineno")? as usize,
                    FlightAnswer {
                        dispatched_s: num(&rec, "dispatched_s")?,
                        probe: num(&rec, "probe_s")?,
                        raw_estimate: raw,
                        version: num(&rec, "model_version")? as i64,
                        state: rec.get("state").and_then(Json::as_str).unwrap_or("").into(),
                    },
                );
            }
            Some("refit") | Some("rederive") => cuts.push(num(&rec, "at_s")?),
            _ => {}
        }
    }
    cuts.dedup();
    Ok((answers, cuts))
}

/// Feeds every event, with its per-line seed, through the public calls
/// the server's request and observation paths make, timing each layer.
/// Requests the flight recorder kept are checked bit for bit against what
/// was served: probe cost, raw estimate, model version and state.
fn shadow_pass(
    trace: &RequestTrace,
    epochs: &Epochs,
    flight: &BTreeMap<usize, FlightAnswer>,
    profile: &ContentionProfile,
    seed: u64,
) -> Result<Shadow, String> {
    let mut s = Shadow::default();
    let mut texts = BTreeSet::new();
    let degrades: Vec<(usize, f64, &SiteId, f64)> = trace
        .events
        .iter()
        .filter_map(|e| match &e.event {
            TraceEvent::Degrade { site, factor } => Some((e.lineno, e.at_s, site, *factor)),
            _ => None,
        })
        .collect();
    for ev in &trace.events {
        let (site, sql, observe) = match &ev.event {
            TraceEvent::Request { site, sql } => (site, sql, false),
            TraceEvent::Observe { site, sql } => (site, sql, true),
            TraceEvent::Degrade { .. } => continue,
        };
        let served = if observe {
            None
        } else {
            flight.get(&ev.lineno)
        };
        // A request reads the registry and the site's degradation as they
        // stood when its batch was dispatched; an observation reads them
        // at its own arrival.
        let factor: f64 = degrades
            .iter()
            .filter(|&&(lineno, at, s, _)| {
                s == site
                    && match served {
                        Some(a) => at < a.dispatched_s,
                        None => lineno < ev.lineno,
                    }
            })
            .map(|&(_, _, _, f)| f)
            .product();
        let registry = epochs.at(served.map_or(ev.at_s, |a| a.dispatched_s));
        texts.insert(sql.as_str());

        let site_name = SiteName::parse(&site.0).map_err(|e| e.to_string())?;
        let mut agent: MdbsAgent = s.agent_new.time(|| {
            let mut agent = site_agent(site_name, profile, split_stream(seed, ev.lineno as u64));
            if (factor - 1.0).abs() > f64::EPSILON {
                agent
                    .apply_event(&EnvironmentEvent::DiskReplacement {
                        io_cost_factor: factor,
                    })
                    .map(|()| agent)
                    .map_err(|e| e.to_string())
            } else {
                Ok(agent)
            }
        })?;
        let schema = s.schema_clone.time(|| agent.catalog().clone());
        let query = s
            .sql_parse
            .time(|| parse_query(&schema, sql))
            .map_err(|e| format!("line {}: {e}", ev.lineno))?;
        let class = s.classify.time(|| {
            let class = classify(&schema, &query);
            if observe {
                class.and_then(|c| c.family().extract(&schema, &query).map(|_| c))
            } else {
                class
            }
        });
        let class =
            class.ok_or_else(|| format!("line {}: query cannot be classified", ev.lineno))?;
        let probe = s.probe.time(|| {
            agent.tick();
            agent.probe()
        });
        let detail = s
            .estimate
            .time(|| registry.estimate(&EstimateQuery::raw(site, &schema, &query, probe)));
        if observe {
            let run = s.run.time(|| agent.run(&query));
            black_box(run.map_err(|e| format!("line {}: {e}", ev.lineno))?);
            continue;
        }
        s.requests += 1;
        s.answered += u64::from(detail.is_some());
        if let Some(a) = served {
            let d = detail
                .ok_or_else(|| format!("line {}: served, but no model in the shadow", ev.lineno))?;
            check(
                a.probe.to_bits() == probe.to_bits()
                    && a.raw_estimate.to_bits() == d.raw_estimate.to_bits()
                    && a.version == d.version as i64
                    && a.state == d.state_label,
                || {
                    format!(
                        "line {} ({class:?}): served probe {} estimate {} v{} {} but the traced \
                         replay computed probe {probe} estimate {} v{} {}",
                        ev.lineno,
                        a.probe,
                        a.raw_estimate,
                        a.version,
                        a.state,
                        d.raw_estimate,
                        d.version,
                        d.state_label
                    )
                },
            )?;
            s.verified += 1;
        }
    }
    s.distinct_sql = texts.len();
    Ok(s)
}

/// Median µs of one `pool::run_jobs` call over `batch` no-op jobs.
fn pool_dispatch_us(batch: usize, workers: usize) -> f64 {
    let samples: Vec<f64> = (0..400)
        .map(|_| {
            let jobs: Vec<usize> = (0..batch).collect();
            let (r, d) = timed(|| pool::run_jobs(jobs, workers, |_, j| black_box(j)));
            black_box(r);
            us(d)
        })
        .collect();
    median(&samples)
}

/// The serve layer table. A verification replay through the library,
/// whose flight recorder keeps every request, must reproduce the CLI's
/// report, and every answer it served must match a shadow pass bit for
/// bit. Then each round runs one untraced CLI replay, one traced library
/// replay at `--jobs 1` recording flights as the CLI does, and a shadow
/// pass timing every layer. The layer times come from that separate pass,
/// so the median round must leave a non-negative self time: layers that
/// take longer than the whole replay would describe another computation.
pub fn traced_layers(
    inputs: &Inputs,
    drift: bool,
    jobs: usize,
    seconds: f64,
    out: &mut Outcome,
) -> Result<TracedServe, String> {
    let text = util::read(&inputs.trace)?;
    let trace = RequestTrace::parse(&text);
    let events = trace.len() as f64;
    let profile = parse_profile(PROFILE).map_err(|e| e.to_string())?;

    let verify = library_replay(inputs, drift, true, true, None)?;
    let cli_out = util::cli(&replay_argv(inputs, drift, 1, false))?;
    check(cli_out.contains(&verify.report.rendered), || {
        "the library replay does not reproduce the CLI report".into()
    })?;
    let report = &verify.report;
    let (flight, cuts) = read_flight(&verify.server.recorder().dump_jsonl())?;
    let epochs = Epochs::build(inputs, drift, &trace, cuts)?;
    let s = shadow_pass(&trace, &epochs, &flight, &profile, inputs.seed)?;
    check(s.verified == report.answered && s.verified > 0, || {
        format!(
            "{} of {} served answers verified",
            s.verified, report.answered
        )
    })?;
    check(s.answered == report.answered as u64, || {
        format!(
            "shadow answered {} of {} served",
            s.answered, report.answered
        )
    })?;
    let batches = report.batches as f64;
    let served_jobs = (report.requests - report.shed_queue_full - report.shed_deadline) as f64;
    let jobs_per_batch = served_jobs / batches.max(1.0);
    let batch = (jobs_per_batch.round() as usize).max(1);
    let pool_serial_us = pool_dispatch_us(batch, 1);

    let unchecked = BTreeMap::new();
    let mut plain = Vec::new();
    let mut rows: Vec<BTreeMap<&'static str, f64>> = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    let deadline = Deadline::after(seconds);
    while rows.is_empty() || !deadline.passed() {
        let (cli, wall) = timed(|| util::cli(&replay_argv(inputs, drift, 1, false)));
        let counts = Counts::parse(&cli?)?;
        attempted += counts.requests;
        failed += counts.failed;
        plain.push(ms(wall));

        let lib = library_replay(inputs, drift, true, false, None)?;
        let s = shadow_pass(&trace, &epochs, &unchecked, &profile, inputs.seed)?;
        let tel = TelemetryDump::parse(&lib.telemetry)?;
        let refit_ms = tel.total_ms("maintenance.refit_incremental");
        let rederive_ms = tel.total_ms("maintenance.rederive_batch");
        let wall_us = us(lib.wall);
        let parse_us = us(lib.parse);
        let layers_us =
            s.total_us() + pool_serial_us * batches + (refit_ms + rederive_ms) * 1e3 + parse_us;
        let self_us = (wall_us - layers_us) / events;
        let recorder = lib.server.recorder();
        rows.push(BTreeMap::from([
            ("wall_ms", ms(lib.wall)),
            ("sim.agent_new.us", s.agent_new.mean()),
            ("sim.agent_new.calls", s.agent_new.calls as f64),
            ("sim.schema_clone.us", s.schema_clone.mean()),
            ("sim.sql_parse.us", s.sql_parse.mean()),
            (
                "sim.sql_parse.distinct_share",
                s.distinct_sql as f64 / s.sql_parse.calls.max(1) as f64,
            ),
            ("core.classify.us", s.classify.mean()),
            ("sim.probe.us", s.probe.mean()),
            ("core.registry.estimate.us", s.estimate.mean()),
            (
                "core.registry.answered_share",
                s.answered as f64 / s.requests.max(1) as f64,
            ),
            ("sim.run.us", s.run.mean()),
            ("sim.run.calls", s.run.calls as f64),
            ("core.maintenance.refit.ms", refit_ms),
            ("core.maintenance.rederive.ms", rederive_ms),
            ("obs.recorder.records", recorder.len() as f64),
            (
                "obs.recorder.dump_bytes",
                recorder.dump_jsonl().len() as f64,
            ),
            ("core.trace_parse.us_per_event", parse_us / events),
            ("core.server.self_us_per_event", self_us),
        ]));
    }

    let self_us: Vec<f64> = rows
        .iter()
        .map(|r| r["core.server.self_us_per_event"])
        .collect();
    check(median(&self_us) >= 0.0, || {
        format!(
            "the layers take longer than the replay: self time {:.3} us per event",
            median(&self_us)
        )
    })?;
    for key in rows[0].keys().filter(|&&k| k != "wall_ms") {
        let values: Vec<f64> = rows.iter().map(|r| r[key]).collect();
        let unit = if key.ends_with("us") || key.ends_with("us_per_event") {
            "us"
        } else if key.ends_with("ms") {
            "ms"
        } else if key.ends_with("bytes") {
            "bytes"
        } else if key.ends_with("share") {
            "share"
        } else {
            "count"
        };
        out.push(key, median(&values), unit);
    }
    out.push(
        "core.pool.dispatch.us",
        pool_dispatch_us(batch, pool::effective_workers(Some(jobs), batch)),
        "us",
    );
    out.push("core.pool.batches", batches, "count");
    out.push("core.pool.jobs_per_batch", jobs_per_batch, "count");
    out.push("virtual_latency_s.p95", report.latency_p95_s, "virtual_s");
    out.push(
        "core.maintenance.refits",
        report.incremental_refits as f64,
        "count",
    );
    out.push(
        "core.maintenance.rederivations",
        report.rederivations as f64,
        "count",
    );
    let estimates = (report.answered + report.observations) as f64;
    out.push(
        "core.correction.applied_share",
        report.corrections_applied as f64 / estimates.max(1.0),
        "share",
    );
    let traced: Vec<f64> = rows.iter().map(|r| r["wall_ms"]).collect();
    Ok(TracedServe {
        attempted,
        failed,
        overhead: median(&traced) / median(&plain),
    })
}
