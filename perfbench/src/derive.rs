//! Catalog derivation, archiving, loading and validation: the pieces every
//! workload uses to make its catalog, and the `derive_catalog` workload.

use crate::gen;
use crate::serve;
use crate::util::{
    self, check, median, ms, quantile, timed, us, Deadline, Outcome, Stopwatch, TelemetryDump,
    WorkDir,
};
use mdbs_cli::site::{parse_profile, site_agent, SiteName};
use mdbs_core::store::{CatalogFormat, CatalogStore, FileCatalogStore};
use mdbs_core::validate::{quality, run_test_queries, TestPoint};
use mdbs_obs::Telemetry;
use mdbs_stats::rng::split_stream;
use std::time::Duration;

/// One catalog derivation as a user runs it: every site and class on the
/// worker pool.
#[derive(Debug, Clone, Copy)]
pub struct Derivation {
    /// `--algorithm`.
    pub algorithm: &'static str,
    /// `--profile`.
    pub profile: &'static str,
}

/// IUPMA on the uniform profile: the CLI defaults.
pub const IUPMA_UNIFORM: Derivation = Derivation {
    algorithm: "iupma",
    profile: "uniform:20:125",
};

/// ICMA on the paper's clustered profile.
pub const ICMA_CLUSTERED: Derivation = Derivation {
    algorithm: "icma",
    profile: "clustered",
};

/// Models in a full catalog: 2 sites × 5 classes.
pub const MODELS: usize = 10;

/// Binary loads timed per catalog and step.
const LOADS_PER_ROUND: usize = 25;

/// Test queries per model when validating a catalog.
const TEST_QUERIES_PER_MODEL: usize = 300;

/// Stream salt of the validation agents and queries.
const VALIDATE_STREAM: u64 = 0x7661_6c69_6461_7465;

/// Derives the full catalog into the text file `out` (replacing it) with
/// `derive --site all --class all` at `jobs` workers; returns how many of
/// the `MODELS` jobs produced a model (a failed job is reported by the
/// CLI, not fatal) and the wall time of the call.
pub fn derive(
    d: Derivation,
    seed: u64,
    jobs: usize,
    out: &str,
    telemetry: Option<&str>,
) -> Result<(usize, Duration), String> {
    // `derive` accumulates into an existing catalog; start from nothing.
    let _ = std::fs::remove_file(out);
    let seed = seed.to_string();
    let jobs = jobs.to_string();
    let mut argv = util::argv(&[
        "derive",
        "--site",
        "all",
        "--class",
        "all",
        "--algorithm",
        d.algorithm,
        "--profile",
        d.profile,
        "--seed",
        &seed,
        "--jobs",
        &jobs,
        "--out",
        out,
    ]);
    if let Some(path) = telemetry {
        argv.extend(util::argv(&["--telemetry", path]));
    }
    let (report, wall) = timed(|| util::cli(&argv));
    let report = report?;
    let derived = report
        .strip_prefix("derived ")
        .and_then(|r| r.split_once(&format!(" of {MODELS} model(s)")))
        .and_then(|(n, _)| n.parse().ok())
        .ok_or_else(|| format!("unexpected derive report:\n{report}"))?;
    Ok((derived, wall))
}

/// Archives the text catalog `from` to the binary `to`.
pub fn archive(from: &str, to: &str) -> Result<(), String> {
    util::cli(&util::argv(&[
        "archive",
        "--catalog",
        from,
        "--dest",
        &format!("file:{to}"),
    ]))
    .map(drop)
}

/// Times `LOADS_PER_ROUND` binary loads of `path`, in µs each, checking
/// that each returns the `models` it was archived with.
pub fn time_loads(path: &str, models: usize) -> Result<Vec<f64>, String> {
    let store = FileCatalogStore::sniffing(path);
    let mut loads = Vec::with_capacity(LOADS_PER_ROUND);
    for _ in 0..LOADS_PER_ROUND {
        let (snap, d) = timed(|| store.load(&mut Telemetry::disabled()));
        let snap = snap.map_err(|e| format!("cannot load {path}: {e}"))?;
        check(snap.catalog.len() == models, || {
            format!("{path} loaded {} models", snap.catalog.len())
        })?;
        loads.push(us(d));
    }
    Ok(loads)
}

/// Validates every model of the catalog at `path` on fresh test queries
/// (the paper's "good" criterion, `validate::quality`), each site probed
/// under `profile`. Returns the test points and the wall time spent.
pub fn validate(
    path: &str,
    profile: &str,
    seed: u64,
) -> Result<(Vec<TestPoint>, Duration), String> {
    let profile = parse_profile(profile).map_err(|e| e.to_string())?;
    let snap = FileCatalogStore::sniffing(path)
        .load(&mut Telemetry::disabled())
        .map_err(|e| format!("cannot load {path}: {e}"))?;
    let start = Stopwatch::start();
    let mut points = Vec::new();
    for (i, site) in snap.catalog.sites().iter().enumerate() {
        let site_name = SiteName::parse(&site.0).map_err(|e| e.to_string())?;
        for class in snap.catalog.classes_for(site) {
            let model = snap
                .catalog
                .model(site, class)
                .expect("listed by the catalog");
            let key = (i * 8 + class as usize) as u64;
            let mut agent = site_agent(
                site_name,
                &profile,
                split_stream(seed ^ VALIDATE_STREAM, 2 * key),
            );
            let batch = run_test_queries(
                &mut agent,
                class,
                model,
                TEST_QUERIES_PER_MODEL,
                split_stream(seed ^ VALIDATE_STREAM, 2 * key + 1),
            )
            .map_err(|e| format!("validation of {site} {class:?} failed: {e}"))?;
            points.extend(batch);
        }
    }
    Ok((points, start.elapsed()))
}

/// `(good share, median |relative error|)` of test points.
pub fn accuracy(points: &[TestPoint]) -> (f64, f64) {
    let rel: Vec<f64> = points.iter().map(TestPoint::relative_error).collect();
    (quality(points).good_pct / 100.0, median(&rel))
}

/// Per-layer numbers of traced derivations, read from the `derive.*`
/// spans and the engine/states counters they already emit.
pub fn derive_layers(dumps: &[TelemetryDump], out: &mut Outcome) {
    let stage = |name: &str| dumps.iter().map(|d| d.total_ms(name)).sum::<f64>();
    for s in ["sampling", "states", "selection", "fit", "validation"] {
        out.push(
            &format!("core.derive.{s}.ms"),
            stage(&format!("derive.{s}")),
            "ms",
        );
    }
    let jobs: Vec<f64> = dumps.iter().flat_map(|d| d.span_ms("derive")).collect();
    let max = jobs.iter().copied().fold(0.0, f64::max);
    let mean = jobs.iter().sum::<f64>() / jobs.len().max(1) as f64;
    out.push("core.derive.job_ms.max", max, "ms");
    out.push(
        "core.derive.job_balance",
        if mean > 0.0 { max / mean } else { 0.0 },
        "ratio",
    );
    let counter = |name: &str| dumps.iter().map(|d| d.counter(name)).sum::<f64>();
    out.push(
        "sim.engine.executions_per_model",
        counter("engine.executions") / jobs.len().max(1) as f64,
        "count",
    );
    out.push(
        "core.states.resample_draws",
        counter("states.resample_draws"),
        "count",
    );
}

/// Per-layer numbers of the binary store: median µs per store and load of
/// the catalog at `path`, and its encoded size.
pub fn store_layers(path: &str, scratch: &str, out: &mut Outcome) -> Result<(), String> {
    let snap = FileCatalogStore::sniffing(path)
        .load(&mut Telemetry::disabled())
        .map_err(|e| format!("cannot load {path}: {e}"))?;
    let binary = CatalogFormat::parse("binary").map_err(|e| e.to_string())?;
    let store = FileCatalogStore::new(scratch, binary);
    let mut stores = Vec::new();
    for _ in 0..LOADS_PER_ROUND {
        let (r, d) = timed(|| store.store(&snap, &mut Telemetry::disabled()));
        r.map_err(|e| format!("cannot store {scratch}: {e}"))?;
        stores.push(us(d));
    }
    let loads = time_loads(scratch, snap.catalog.len())?;
    let bytes = std::fs::metadata(scratch).map_err(|e| e.to_string())?.len();
    out.push("core.store.store.us", median(&stores), "us");
    out.push("core.store.load.us", median(&loads), "us");
    out.push("core.store.bytes", bytes as f64, "bytes");
    Ok(())
}

/// Workers of the derivation and replay under load.
const JOBS: usize = 2;

/// Validation replays per derivation round: the dense request trace
/// (`gen::SERVE_DENSE`, default serve options) against the freshly
/// derived IUPMA catalog.
const REPLAYS_PER_ROUND: usize = 2;

/// Derivation rounds the first pass of every run makes at least; accuracy,
/// catalog size and peak memory come from the first this many.
const MIN_ROUNDS: u64 = 8;

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Files of one derive_catalog run.
struct Files {
    uniform: String,
    clustered: String,
    uniform_bin: String,
    clustered_bin: String,
    inputs: serve::Inputs,
}

fn files(dir: &WorkDir, seed: u64) -> Files {
    Files {
        uniform: dir.file("iupma.txt"),
        clustered: dir.file("icma.txt"),
        uniform_bin: dir.file("iupma.mdbc"),
        clustered_bin: dir.file("icma.mdbc"),
        inputs: serve::Inputs::new(dir, seed, &dir.file("iupma.mdbc")),
    }
}

/// Set-up of derive_catalog: write the validation trace and derive a
/// warm-up IUPMA catalog, so lazy start-up work is done before timing.
/// Returns the median wall seconds over `SETUP_REPS`.
fn setup(f: &Files, seed: u64) -> Result<f64, String> {
    let mut times = Vec::new();
    for _ in 0..SETUP_REPS {
        let start = Stopwatch::start();
        util::write(&f.inputs.trace, &gen::trace(&gen::SERVE_DENSE, seed))?;
        derive(IUPMA_UNIFORM, seed, JOBS, &f.uniform, None)?;
        archive(&f.uniform, &f.uniform_bin)?;
        times.push(start.elapsed().as_secs_f64());
    }
    Ok(median(&times))
}

/// What one derivation round produced.
struct Round {
    /// Models derived by the IUPMA and the ICMA job batch.
    models: [usize; 2],
    /// Wall time of the two derivations.
    wall: Duration,
}

impl Round {
    /// Jobs of the round that produced no model.
    fn failed(&self) -> u64 {
        (2 * MODELS - self.models[0] - self.models[1]) as u64
    }
}

/// One derivation round: IUPMA/uniform then ICMA/clustered, each archived.
fn round(f: &Files, seed: u64, jobs: usize, tel: Option<[&str; 2]>) -> Result<Round, String> {
    let (a, wa) = derive(IUPMA_UNIFORM, seed, jobs, &f.uniform, tel.map(|t| t[0]))?;
    let (b, wb) = derive(ICMA_CLUSTERED, seed, jobs, &f.clustered, tel.map(|t| t[1]))?;
    archive(&f.uniform, &f.uniform_bin)?;
    archive(&f.clustered, &f.clustered_bin)?;
    Ok(Round {
        models: [a, b],
        wall: wa + wb,
    })
}

/// The untraced derive_catalog run: end-to-end metrics and output checks.
/// Each round is one step of the two-pass measuring loop, so it runs twice
/// and must derive the same catalogs both times. Round `r` derives from
/// the sub-seed `split_stream(seed, r)`, so one run samples several
/// catalogs; accuracy, size and peak memory come from the first
/// `MIN_ROUNDS` of them, so they do not depend on how many rounds the time
/// allows.
pub fn run(seed: u64, seconds: f64, dir: &WorkDir) -> Result<Outcome, String> {
    let f = files(dir, seed);
    let setup_s = setup(&f, seed)?;
    // Digest of the catalogs each round derived first, and its model counts.
    let mut rounds: Vec<(u64, [usize; 2])> = Vec::new();
    let mut points = Vec::new();
    let mut bytes = 0u64;
    let (mut attempted, mut failed_jobs) = (0, 0);
    let mut replays = serve::Replays::default();
    let mut peak_rss = 0.0;
    let steps = util::two_passes(seconds, MIN_ROUNDS, |r, walls| {
        let round_seed = split_stream(seed, r);
        let done = round(&f, round_seed, JOBS, None)?;
        attempted += 2 * MODELS as u64;
        failed_jobs += done.failed();
        walls.push("derive_s", done.wall.as_secs_f64());
        let digest = util::digest(&(util::read(&f.uniform)? + &util::read(&f.clustered)?));
        let first = rounds.len() as u64 == r;
        if first {
            rounds.push((digest, done.models));
        }
        check(rounds[r as usize].0 == digest, || {
            format!("round {r} derived other catalogs the second time")
        })?;
        // A load sample is the mean of one IUPMA and one ICMA load: their
        // catalogs differ in size, and the median of a mix of the two
        // would sit in the gap between them.
        let uniform = time_loads(&f.uniform_bin, done.models[0])?;
        let clustered = time_loads(&f.clustered_bin, done.models[1])?;
        for (a, b) in uniform.iter().zip(&clustered) {
            walls.push("load_us", (a + b) / 2.0);
        }
        for _ in 0..REPLAYS_PER_ROUND {
            replays.replay(r, &f.inputs, false, JOBS, walls)?;
        }
        if first && r < MIN_ROUNDS {
            points.extend(validate(&f.uniform_bin, IUPMA_UNIFORM.profile, round_seed)?.0);
            points.extend(validate(&f.clustered_bin, ICMA_CLUSTERED.profile, round_seed)?.0);
            for p in [&f.uniform_bin, &f.clustered_bin] {
                bytes += std::fs::metadata(p).map_err(|e| e.to_string())?.len();
            }
        }
        // The peak depends on whether the two derive workers' heaviest
        // phases overlap, and keeps growing in jumps as rounds go on; read
        // after a fixed number of rounds it has settled.
        if first && r == MIN_ROUNDS - 1 {
            peak_rss = util::peak_rss_mib()?;
        }
        Ok(())
    })?;
    serve::check_worker_counts(&f.inputs, false, JOBS)?;

    // Output checks on the last round's catalogs: they do not depend on
    // the worker count, and archive → load → restore gives back the
    // derived bytes.
    let uniform = util::read(&f.uniform)?;
    let clustered = util::read(&f.clustered)?;
    round(&f, split_stream(seed, steps.len() as u64 - 1), 1, None)?;
    check(util::read(&f.uniform)? == uniform, || {
        "IUPMA catalog differs at --jobs 1 and 2".into()
    })?;
    check(util::read(&f.clustered)? == clustered, || {
        "ICMA catalog differs at --jobs 1 and 2".into()
    })?;
    for (text, bin) in [
        (&f.uniform, &f.uniform_bin),
        (&f.clustered, &f.clustered_bin),
    ] {
        let restored = dir.file("restored.txt");
        util::cli(&util::argv(&[
            "restore",
            "--archive",
            &format!("file:{bin}"),
            "--out",
            &restored,
        ]))?;
        check(util::read(&restored)? == util::read(text)?, || {
            format!("archive -> restore of {text} is not byte-identical")
        })?;
    }
    let (good, rel_err) = accuracy(&points);

    let mut out = Outcome {
        attempted: attempted + replays.attempted,
        failed: failed_jobs + replays.failed,
        ..Outcome::default()
    };
    out.push("setup_s", setup_s, "s");
    out.push("peak_rss_mb", peak_rss, "MiB");
    serve::push_serve_metrics(&steps, &mut out);
    out.push("estimate_rel_err.p50", rel_err, "ratio");
    let rates: Vec<f64> = steps
        .iter()
        .zip(&rounds)
        .flat_map(|(walls, (_, models))| {
            walls
                .get("derive_s")
                .map(move |s| (models[0] + models[1]) as f64 / s)
        })
        .collect();
    out.push("derive_models_per_s", median(&rates), "1/s");
    let loads = util::all(&steps, "load_us");
    out.push("catalog_load_us.p50", quantile(&loads, 0.5), "us");
    out.push("catalog_load_us.p90", quantile(&loads, 0.9), "us");
    out.push("catalog_bytes", bytes as f64 / MIN_ROUNDS as f64, "bytes");
    out.push("good_estimate_share", good, "share");
    Ok(out)
}

/// The traced derive_catalog run: derive layers from the spans of traced
/// rounds, the store and validation layers, and the serve layers of one
/// traced validation replay.
pub fn run_traced(seed: u64, seconds: f64, dir: &WorkDir) -> Result<Outcome, String> {
    let f = files(dir, seed);
    setup(&f, seed)?;
    let tel = [dir.file("iupma.jsonl"), dir.file("icma.jsonl")];
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let mut dumps: Vec<Vec<TelemetryDump>> = Vec::new();
    let deadline = Deadline::after(seconds);
    let mut failed_jobs = 0;
    while traced.is_empty() || !deadline.passed() {
        plain.push(ms(round(&f, seed, JOBS, None)?.wall));
        let done = round(&f, seed, JOBS, Some([&tel[0], &tel[1]]))?;
        failed_jobs += done.failed();
        traced.push(ms(done.wall));
        dumps.push(vec![
            TelemetryDump::parse(&util::read(&tel[0])?)?,
            TelemetryDump::parse(&util::read(&tel[1])?)?,
        ]);
    }
    // The round whose traced wall time is the median stands for all.
    let mut order: Vec<usize> = (0..traced.len()).collect();
    order.sort_by(|&a, &b| traced[a].total_cmp(&traced[b]));
    let pick = order[order.len() / 2];

    let mut out = Outcome::default();
    derive_layers(&dumps[pick], &mut out);
    store_layers(&f.uniform_bin, &dir.file("store.mdbc"), &mut out)?;
    let (points, wall) = validate(&f.uniform_bin, IUPMA_UNIFORM.profile, seed)?;
    out.push(
        "core.validate.us_per_query",
        us(wall) / points.len() as f64,
        "us",
    );
    let served = serve::traced_layers(&f.inputs, false, JOBS, 0.0, &mut out)?;
    out.attempted = served.attempted + 2 * MODELS as u64 * traced.len() as u64;
    out.failed = served.failed + failed_jobs;
    out.push(
        "error_share",
        out.failed as f64 / out.attempted as f64,
        "share",
    );
    out.push(
        "trace_overhead_share",
        median(&traced) / median(&plain),
        "ratio",
    );
    Ok(out)
}
