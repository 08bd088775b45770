//! The CLI subcommands. Each returns its report as a `String` so the
//! logic is unit-testable; `main` only prints.

use crate::args::{Args, ArgsError};
use crate::site::{parse_profile, site_agent, SiteName};
use mdbs_core::catalog::SiteId;
use mdbs_core::classes::{classify, QueryClass};
use mdbs_core::correction::EstimateQuery;
use mdbs_core::derive::{derive_all, derive_cost_model, BatchConfig, DerivationConfig, DeriveJob};
use mdbs_core::maintenance::{MaintenanceConfig, MaintenanceConfigBuilder};
use mdbs_core::pipeline::PipelineCtx;
use mdbs_core::registry::ModelRegistry;
use mdbs_core::server::{
    fleet_from_snapshot, EstimationServer, RequestTrace, ServeConfig, ServeConfigBuilder,
    ServeReport, TraceEvent, TracedEvent,
};
use mdbs_core::states::{StateAlgorithm, StatesConfig};
use mdbs_core::store::{
    CatalogFormat, CatalogSnapshot, CatalogStore, FileCatalogStore, StoreError,
};
use mdbs_obs::{JsonlFileSink, Telemetry};
use mdbs_sim::sql::parse_query;
use mdbs_sim::trace::ExecutionTrace;

/// A CLI-level error.
///
/// Each variant keeps its cause as structured data instead of flattening it
/// into a string, so `main` can map variants to exit codes and callers can
/// match on the root cause through [`std::error::Error::source`].
#[derive(Debug)]
#[non_exhaustive]
pub enum CliError {
    /// The command line could not be parsed.
    Args(ArgsError),
    /// The cost-model machinery failed.
    Core(mdbs_core::CoreError),
    /// A file could not be read or written.
    Io {
        /// What the CLI was doing (e.g. `cannot read \`catalog.txt\``).
        context: String,
        /// The underlying IO error.
        source: std::io::Error,
    },
    /// The request was well-formed but cannot be satisfied (unknown class
    /// name, unclassifiable query, missing model, malformed query file...).
    Invalid(String),
}

impl CliError {
    /// The process exit code for this error: 2 for bad input, 3 for IO
    /// failures, 4 for derivation/estimation failures.
    pub fn exit_code(&self) -> u8 {
        match self {
            CliError::Args(_) | CliError::Invalid(_) => 2,
            CliError::Io { .. } => 3,
            CliError::Core(_) => 4,
        }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Args(e) => write!(f, "{e}"),
            CliError::Core(e) => write!(f, "{e}"),
            CliError::Io { context, source } => write!(f, "{context}: {source}"),
            CliError::Invalid(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for CliError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CliError::Args(e) => Some(e),
            CliError::Core(e) => Some(e),
            CliError::Io { source, .. } => Some(source),
            CliError::Invalid(_) => None,
        }
    }
}

impl From<ArgsError> for CliError {
    fn from(e: ArgsError) -> Self {
        CliError::Args(e)
    }
}

impl From<mdbs_core::CoreError> for CliError {
    fn from(e: mdbs_core::CoreError) -> Self {
        CliError::Core(e)
    }
}

impl From<StoreError> for CliError {
    fn from(e: StoreError) -> Self {
        match e {
            // Keep the exit-code taxonomy: unreadable/unwritable files are
            // IO (3), corrupt catalog content is a core failure (4).
            StoreError::Io { context, source } => CliError::Io { context, source },
            StoreError::Corrupt(e) => CliError::Core(e),
        }
    }
}

/// Wraps an IO error with a `context` describing the failed operation.
fn io_err(context: impl Into<String>) -> impl FnOnce(std::io::Error) -> CliError {
    move |source| CliError::Io {
        context: context.into(),
        source,
    }
}

/// Top-level dispatch; returns the text to print.
pub fn dispatch(argv: &[String]) -> Result<String, CliError> {
    let args = Args::parse(argv)?;
    // Only `stats` takes bare operands; everywhere else a non-flag word
    // is a typo, and silently ignoring it would be worse than rejecting.
    if args.command != "stats" {
        if let Some(op) = args.positional().first() {
            return Err(CliError::Invalid(format!(
                "unexpected operand `{op}` (options are `--key value`)"
            )));
        }
    }
    match args.command.as_str() {
        "help" => Ok(usage()),
        "derive" => cmd_derive(&args),
        "estimate" => cmd_estimate(&args),
        "serve" => cmd_serve(&args),
        "run" => cmd_run(&args),
        "catalog" => cmd_catalog(&args),
        "archive" => cmd_archive(&args),
        "restore" => cmd_restore(&args),
        "stats" => cmd_stats(&args),
        other => Err(CliError::Invalid(format!(
            "unknown subcommand `{other}`\n\n{}",
            usage()
        ))),
    }
}

/// The help text.
pub fn usage() -> String {
    "mdbs-qcost — multi-states query sampling for dynamic MDBS environments

USAGE:
  mdbs-qcost derive   --site oracle|db2|all[,..] --class g1|g2|gc|g3|gj|all[,..]
                      [--algorithm iupma|icma] [--profile uniform:20:125]
                      [--samples N] [--max-states M] [--seed N] [--jobs N]
                      [--out catalog.txt] [--telemetry events.jsonl]
  mdbs-qcost estimate --catalog catalog.txt --site oracle|db2
                      --sql \"select ... from ... where ...\"
                      [--profile uniform:20:125] [--seed N] [--execute]
                      [--telemetry events.jsonl]
  mdbs-qcost serve    --catalog catalog.txt --queries queries.txt
                      [--jobs N] [--profile uniform:20:125] [--seed N]
                      [--telemetry events.jsonl]
  mdbs-qcost serve    --loop --catalog catalog.txt --trace trace.txt
                      [--queue N] [--batch N] [--batch-delay S]
                      [--service-cost S] [--deadline S] [--refit N]
                      [--drift-window N] [--drift-min N] [--drift-fraction F]
                      [--algorithm iupma|icma] [--jobs N]
                      [--heartbeat S] [--flight-recorder flight.jsonl]
                      [--report-json report.json]
                      [--profile ...] [--seed N] [--telemetry events.jsonl]
  mdbs-qcost run      --site oracle|db2 --sql \"...\" [--procs N] [--seed N]
                      [--telemetry events.jsonl]
  mdbs-qcost catalog  --file catalog.txt
  mdbs-qcost archive  --catalog catalog.txt --dest file:catalog.mdbc
                      [--format binary|text]
  mdbs-qcost restore  --archive file:catalog.mdbc --out catalog.txt
                      [--format text|binary]
  mdbs-qcost stats    events.jsonl
  mdbs-qcost help

The sites are the built-in simulated local DBSs (an Oracle-8.0-like and a
DB2-5.0-like system over the standard 12-table database R1..R12 with
columns a1..a9). `derive` runs the full multi-states query sampling
pipeline and stores the model in the catalog file; `estimate` prices a SQL
query through the catalog after gauging the site's contention with a
probing query.

`--site` and `--class` accept comma-separated lists or `all`; more than
one site/class pair (or an explicit `--jobs N`) derives the whole batch on
a worker pool. The derived catalog is byte-identical for every `--jobs`
value. `serve` answers a file of queries (one `site SQL...` per line,
`#` comments and blank lines skipped) with the same engine as `serve
--loop`: the file is a trace with every request at t = 0, priced as one
micro-batch on the loop thread (`--jobs` is accepted and has no effect),
and rows come in file order; a malformed line fails inline while the rest
keep being served (nonzero exit only when no line succeeds).

`serve --loop` replays a timestamped trace (`@TIME request|observe|degrade
SITE ...` per line) through a long-lived estimation server: requests enter
a bounded admission queue (capacity `--queue`), drain in micro-batches of
up to `--batch`, priced on the loop thread against immutable registry
snapshots, and `observe` lines feed the drift monitors — enough evidence
triggers an incremental refit (every `--refit` observations) or a full
rederivation (when the good-estimate fraction over the `--drift-window`
falls below `--drift-fraction`, default 0.5) on `--jobs` worker threads,
republished without blocking readers. Queued requests older than
`--deadline` and arrivals beyond the queue capacity are shed. The loop
runs in virtual time: the report and stripped telemetry are byte-identical
for every `--jobs` value.

`serve --loop` observability: `--heartbeat S` emits a snapshot record
(queue depth, shed counters, registry version, accuracy-ledger totals)
every S seconds of *virtual* time, at most one per clock advance;
`--flight-recorder PATH` dumps the flight recorder — the last N request
lifecycles (trace id, queue wait, batch, model version, detected state,
outcome) plus every maintenance event and anomaly — as JSONL;
`--report-json PATH` writes the machine-readable report (all counters,
latency percentiles and the per-site/per-state accuracy ledger). `stats
FILE` renders a telemetry or flight-recorder JSONL back into tables
(heartbeat time series, accuracy ledger), strictly re-parsing every line.

`archive` snapshots a catalog into a destination file (`file:PATH` or a
bare path; other URL schemes are rejected), by default in the compact
binary snapshot-store format (`MDBC` magic, one whole snapshot per
file): floats round-trip bit for bit and loads parse nothing. `restore`
materializes an archive back into a catalog file, by default in the text
interchange format; `--format` overrides either direction.
Every catalog-reading command accepts both formats transparently.

`--telemetry PATH` writes structured spans and metrics as JSONL to PATH
and appends a human-readable summary to the report. All telemetry except
`wall_ms` fields and `pool.sched.*` scheduling metrics is deterministic
for a fixed seed.

EXIT CODES: 0 success, 2 bad arguments or input, 3 IO failure,
4 derivation/estimation failure.
"
    .to_string()
}

fn parse_class(s: &str) -> Result<QueryClass, CliError> {
    match s.to_ascii_lowercase().as_str() {
        "g1" => Ok(QueryClass::UnaryNoIndex),
        "g2" => Ok(QueryClass::UnaryNonClusteredIndex),
        "gc" => Ok(QueryClass::UnaryClusteredIndex),
        "g3" => Ok(QueryClass::JoinNoIndex),
        "gj" => Ok(QueryClass::JoinIndexed),
        other => Err(CliError::Invalid(format!(
            "unknown class `{other}` (expected g1, g2, gc, g3 or gj)"
        ))),
    }
}

/// Parses a comma-separated `--site` list; `all` means every built-in site.
fn parse_sites(s: &str) -> Result<Vec<SiteName>, CliError> {
    if s.eq_ignore_ascii_case("all") {
        return Ok(vec![SiteName::Oracle, SiteName::Db2]);
    }
    s.split(',')
        .map(|part| SiteName::parse(part.trim()).map_err(CliError::from))
        .collect()
}

/// Parses a comma-separated `--class` list; `all` means every query class.
fn parse_classes(s: &str) -> Result<Vec<QueryClass>, CliError> {
    if s.eq_ignore_ascii_case("all") {
        return Ok(QueryClass::all().to_vec());
    }
    s.split(',').map(|part| parse_class(part.trim())).collect()
}

fn parse_algorithm(s: &str) -> Result<StateAlgorithm, CliError> {
    match s.to_ascii_lowercase().as_str() {
        "iupma" => Ok(StateAlgorithm::Iupma),
        "icma" => Ok(StateAlgorithm::Icma),
        other => Err(CliError::Invalid(format!(
            "unknown algorithm `{other}` (expected iupma or icma)"
        ))),
    }
}

/// Loads a catalog snapshot through the store (text or binary, sniffed
/// from content); a missing file is an empty unversioned snapshot — the
/// "first run" convention of `derive`.
fn load_snapshot_or_empty(path: &str, tel: &mut Telemetry) -> Result<CatalogSnapshot, CliError> {
    FileCatalogStore::sniffing(path)
        .load_or_empty(tel)
        .map_err(CliError::from)
}

/// Loads a catalog snapshot through the store; a missing file is an IO
/// error (exit 3) — the convention of every command that *requires* a
/// catalog (`serve`, `estimate`, `catalog`, `archive`).
fn load_snapshot(path: &str, tel: &mut Telemetry) -> Result<CatalogSnapshot, CliError> {
    FileCatalogStore::sniffing(path)
        .load(tel)
        .map_err(CliError::from)
}

/// Resolves an archive destination operand to a filesystem path. The
/// operand is either a bare path or a `file:` URL; any other scheme is
/// rejected up front so a typoed remote destination fails with exit 2
/// instead of creating a file literally named `s3:bucket/x`.
fn parse_destination(operand: &str) -> Result<String, CliError> {
    if let Some(path) = operand.strip_prefix("file:") {
        if path.is_empty() {
            return Err(CliError::Invalid(format!(
                "destination `{operand}` names no path after `file:`"
            )));
        }
        return Ok(path.to_string());
    }
    // A scheme prefix other than `file:` (e.g. `s3:`, `http:`) is an
    // unsupported destination, not a funny filename. Windows-style drive
    // letters are not a concern on the supported platforms, and relative
    // paths never contain `:` before the first separator.
    if let Some((scheme, _)) = operand.split_once(':') {
        if !scheme.is_empty()
            && !scheme.contains('/')
            && scheme
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "+-.".contains(c))
        {
            return Err(CliError::Invalid(format!(
                "unsupported destination scheme `{scheme}:` (only `file:` destinations \
                 and bare paths are supported)"
            )));
        }
    }
    Ok(operand.to_string())
}

fn cmd_derive(args: &Args) -> Result<String, CliError> {
    check_keys(
        args,
        &[
            "site",
            "class",
            "algorithm",
            "profile",
            "samples",
            "max-states",
            "seed",
            "jobs",
            "out",
            "telemetry",
        ],
    )?;
    let sites = parse_sites(args.required("site")?)?;
    let classes = parse_classes(args.required("class")?)?;
    let algorithm = parse_algorithm(args.or_default("algorithm", "iupma"))?;
    let profile = parse_profile(args.or_default("profile", "uniform:20:125"))?;
    let seed = args.parse_opt::<u64>("seed")?.unwrap_or(1);
    let samples = args.parse_opt::<usize>("samples")?;
    let max_states = args.parse_opt::<usize>("max-states")?.unwrap_or(6);
    let jobs = args.parse_opt::<usize>("jobs")?;
    let out_path = args.or_default("out", "catalog.txt").to_string();
    let telemetry_path = args.parse_opt::<String>("telemetry")?;
    let cfg = DerivationConfig {
        states: StatesConfig {
            max_states,
            ..StatesConfig::default()
        },
        sample_size: samples,
        ..DerivationConfig::default()
    };

    if sites.len() == 1 && classes.len() == 1 && jobs.is_none() {
        // Single site/class: the original serial path, with the generator
        // seeded exactly as before so existing catalogs reproduce.
        let (site, class) = (sites[0], classes[0]);
        let mut agent = site_agent(site, &profile, seed);
        let mut ctx = if telemetry_path.is_some() {
            agent.enable_trace(64);
            PipelineCtx::traced(seed.wrapping_add(1))
        } else {
            PipelineCtx::seeded(seed.wrapping_add(1))
        };
        let derived = derive_cost_model(&mut agent, class, algorithm, &cfg, &mut ctx)?;

        let mut snapshot = load_snapshot_or_empty(&out_path, &mut ctx.telemetry)?;
        snapshot.publish_derived(&site.id().into(), &derived);
        FileCatalogStore::sniffing(&out_path).store(&snapshot, &mut ctx.telemetry)?;

        let mut out = String::new();
        out.push_str(&format!(
            "derived {} at site `{}` ({} sample queries)\n",
            class.label(),
            site.id(),
            derived.observations.len()
        ));
        out.push_str(&format!(
            "  contention states: {} | R^2 = {:.3} | SEE = {:.3} | F p-value = {:.2e}\n",
            derived.model.num_states(),
            derived.model.fit.r_squared,
            derived.model.fit.see,
            derived.model.fit.f_p_value
        ));
        out.push_str(&format!(
            "  one-state comparison R^2 = {:.3}\n",
            derived.one_state()?.fit.r_squared
        ));
        out.push_str("\nper-state cost equations:\n");
        out.push_str(&derived.model.render());
        out.push_str(&format!("\ncatalog written to {out_path}\n"));
        if let Some(path) = &telemetry_path {
            out.push_str(&telemetry_section(&ctx.telemetry, agent.trace(), path)?);
        }
        return Ok(out);
    }

    // Batch path: fan every (site, class) pair out to the worker pool.
    // Each job's RNG streams are split from the root seed by the job key,
    // so the derived catalog is identical for every `--jobs` value.
    let batch = BatchConfig {
        derivation: cfg,
        workers: jobs,
    };
    let job_list: Vec<DeriveJob> = sites
        .iter()
        .flat_map(|site| {
            classes
                .iter()
                .map(|class| DeriveJob::new(site.id(), *class, algorithm))
        })
        .collect();
    let total = job_list.len();
    let mut ctx = if telemetry_path.is_some() {
        PipelineCtx::traced(seed)
    } else {
        PipelineCtx::seeded(seed)
    };
    let outcomes = derive_all(
        job_list,
        &batch,
        |job, env_seed| {
            let site = SiteName::parse(&job.site.0).expect("jobs built from parsed sites");
            site_agent(site, &profile, env_seed)
        },
        &mut ctx,
    );

    let mut snapshot = load_snapshot_or_empty(&out_path, &mut ctx.telemetry)?;
    let mut lines = String::new();
    let mut ok = 0usize;
    for outcome in &outcomes {
        match &outcome.result {
            Ok(derived) => {
                ok += 1;
                snapshot.publish_derived(&outcome.job.site, derived);
                lines.push_str(&format!(
                    "  {}: {} states | R^2 = {:.3} | SEE = {:.3} ({} samples)\n",
                    outcome.job.label(),
                    derived.model.num_states(),
                    derived.model.fit.r_squared,
                    derived.model.fit.see,
                    derived.observations.len()
                ));
            }
            Err(e) => lines.push_str(&format!("  {}: FAILED: {e}\n", outcome.job.label())),
        }
    }
    if ok == 0 {
        return Err(CliError::Invalid(format!(
            "all {total} derivation job(s) failed:\n{lines}"
        )));
    }
    FileCatalogStore::sniffing(&out_path).store(&snapshot, &mut ctx.telemetry)?;

    let mut out = format!(
        "derived {ok} of {total} model(s) across {} site(s)\n",
        sites.len()
    );
    out.push_str(&lines);
    out.push_str(&format!("catalog written to {out_path}\n"));
    if let Some(path) = &telemetry_path {
        // The batch reports its publishes in the registry's vocabulary:
        // one per derived model, numbered from 1, and no lookups.
        ctx.telemetry.inc("registry.publishes", ok as u64);
        ctx.telemetry.inc("registry.hits", 0);
        ctx.telemetry.inc("registry.misses", 0);
        ctx.telemetry.gauge("registry.version", ok as f64);
        out.push_str(&telemetry_section(&ctx.telemetry, None, path)?);
    }
    Ok(out)
}

fn cmd_estimate(args: &Args) -> Result<String, CliError> {
    check_keys(
        args,
        &[
            "catalog",
            "site",
            "sql",
            "profile",
            "seed",
            "execute",
            "telemetry",
        ],
    )?;
    let site = SiteName::parse(args.required("site")?)?;
    let catalog_path = args.required("catalog")?;
    let sql = args.required("sql")?;
    let profile = parse_profile(args.or_default("profile", "uniform:20:125"))?;
    let seed = args.parse_opt::<u64>("seed")?.unwrap_or(1);
    let telemetry_path = args.parse_opt::<String>("telemetry")?;

    let mut agent = site_agent(site, &profile, seed);
    let mut tel = if telemetry_path.is_some() {
        agent.enable_metrics();
        agent.enable_trace(16);
        Telemetry::enabled()
    } else {
        Telemetry::disabled()
    };
    let registry = ModelRegistry::from_snapshot(&load_snapshot_or_empty(catalog_path, &mut tel)?);
    let schema = agent.shared_catalog();
    let query = parse_query(&schema, sql).map_err(|e| CliError::Invalid(e.to_string()))?;
    let class = classify(&schema, &query)
        .ok_or_else(|| CliError::Invalid("query cannot be classified".into()))?;

    let span = tel.begin_span("estimate");
    tel.field(span, "class", class.label().to_string());
    agent.tick();
    let probe = agent.probe();
    tel.field(span, "probe_cost_s", probe);
    let site_id: SiteId = site.id().into();
    let Some(detail) = registry.estimate(&EstimateQuery::raw(&site_id, &schema, &query, probe))
    else {
        return Err(CliError::Invalid(format!(
            "no cost model for {} at site `{}` in {catalog_path} — derive one first:\n  \
             mdbs-qcost derive --site {} --class {} --out {catalog_path}",
            class.label(),
            site.id(),
            site.id(),
            class_tag(class),
        )));
    };
    let estimate = detail.estimate;
    let mut out = String::new();
    out.push_str(&format!("query class: {}\n", class.label()));
    out.push_str(&format!(
        "probing cost: {probe:.3}s -> contention state {}\n",
        detail.state_label
    ));
    out.push_str(&format!("estimated cost: {estimate:.2}s\n"));
    tel.field(span, "estimated_cost_s", estimate);
    tel.field(span, "state", detail.state_label.clone());
    if args.flag("execute") {
        let exec = agent
            .run(&query)
            .map_err(|e| CliError::Invalid(e.to_string()))?;
        out.push_str(&format!("observed cost:  {:.2}s\n", exec.cost_s));
        let rel = (estimate - exec.cost_s).abs() / exec.cost_s.max(f64::MIN_POSITIVE);
        out.push_str(&format!("relative error: {:.0}%\n", rel * 100.0));
        tel.field(span, "observed_cost_s", exec.cost_s);
    }
    tel.end_span(span);
    if let Some(path) = &telemetry_path {
        if let Some(metrics) = agent.disable_metrics() {
            tel.merge_metrics(&metrics);
        }
        out.push_str(&telemetry_section(&tel, agent.trace(), path)?);
    }
    Ok(out)
}

/// The `serve` options only `--loop` accepts.
const SERVE_LOOP_ONLY: &[&str] = &[
    "trace",
    "queue",
    "batch",
    "batch-delay",
    "service-cost",
    "deadline",
    "refit",
    "drift-window",
    "drift-min",
    "drift-fraction",
    "algorithm",
    "heartbeat",
    "flight-recorder",
    "report-json",
    "correction",
    "correction-alpha",
    "correction-saturation",
    "ledger-cells",
];

/// `serve`: estimation through [`EstimationServer`]. `--loop` replays a
/// timestamped `--trace`; batch mode prices a `--queries` file of
/// `SITE SQL...` lines as a trace with every request at t = 0. Both run
/// through [`serve_trace`], so a batch line gets the same probe and
/// estimate as a `@0 request` trace line with the same line number, and
/// the report is byte-identical for every `--jobs` value.
fn cmd_serve(args: &Args) -> Result<String, CliError> {
    check_keys(
        args,
        &[
            &[
                "catalog",
                "queries",
                "jobs",
                "profile",
                "seed",
                "telemetry",
                "loop",
            ][..],
            SERVE_LOOP_ONLY,
        ]
        .concat(),
    )?;
    if args.flag("loop") {
        return cmd_serve_loop(args);
    }
    for key in SERVE_LOOP_ONLY {
        if args.parse_opt::<String>(key)?.is_some() {
            return Err(CliError::Invalid(format!(
                "`--{key}` only applies to `serve --loop`"
            )));
        }
    }
    let queries_path = args.required("queries")?;
    let text = std::fs::read_to_string(queries_path)
        .map_err(io_err(format!("cannot read `{queries_path}`")))?;
    let trace = batch_trace(&text, queries_path);
    // The whole file is one micro-batch dispatched at t = 0: nothing waits,
    // so nothing is shed.
    let n = trace.len().max(1);
    let builder = ServeConfig::builder().queue_capacity(n).batch_max(n);
    let (report, out) = serve_trace(
        args,
        "serve",
        &format!("queries {queries_path}"),
        &trace,
        builder,
    )?;
    if report.answered + report.no_model == 0 && report.errors > 0 {
        // Only a batch with *no* serviceable line is a hard failure.
        return Err(CliError::Invalid(format!(
            "serve: all {} line(s) failed:\n{}",
            report.errors, report.rendered
        )));
    }
    Ok(out)
}

/// Turns a `--queries` file into a trace: one request per `SITE SQL...`
/// line, all at t = 0, keyed by file line number. Malformed lines and
/// unknown sites become trace errors located as `PATH:LINE`.
fn batch_trace(text: &str, path: &str) -> RequestTrace {
    let mut trace = RequestTrace::default();
    for (i, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let lineno = i + 1;
        let request = match line.split_once(char::is_whitespace) {
            None => Err("expected `SITE SQL...`".to_string()),
            Some((site, sql)) => SiteName::parse(site)
                .map(|site| TraceEvent::Request {
                    site: site.id().into(),
                    sql: sql.trim().to_string(),
                })
                .map_err(|e| e.to_string()),
        };
        match request {
            Ok(event) => trace.events.push(TracedEvent {
                at_s: 0.0,
                lineno,
                event,
            }),
            Err(msg) => trace
                .errors
                .push((lineno, format!("{path}:{lineno}: {msg}"))),
        }
    }
    trace
}

/// `serve --loop`: replays a timestamped request/observation trace through
/// [`EstimationServer`] — micro-batched estimation against the model registry
/// with background maintenance (incremental refits and drift-triggered
/// rederivations) and deterministic backpressure, all in virtual time.
fn cmd_serve_loop(args: &Args) -> Result<String, CliError> {
    let trace_path = args.required("trace")?;
    let trace_text = std::fs::read_to_string(trace_path)
        .map_err(io_err(format!("cannot read `{trace_path}`")))?;
    let trace = RequestTrace::parse(&trace_text);
    if trace.is_empty() && !trace.errors.is_empty() {
        let details: String = trace
            .errors
            .iter()
            .map(|(lineno, msg)| format!("  {trace_path}:{lineno}: {msg}\n"))
            .collect();
        return Err(CliError::Invalid(format!(
            "serve --loop: no well-formed trace line in {trace_path}:\n{details}"
        )));
    }
    let (_, out) = serve_trace(
        args,
        "serve --loop",
        &format!("trace {trace_path}"),
        &trace,
        ServeConfig::builder(),
    )?;
    Ok(out)
}

/// The one serving path behind batch `serve` and `serve --loop`: loads the
/// catalog, builds the maintainer fleet and the server, replays `trace`
/// and renders the report. `builder` arrives preset by the caller; the
/// `--loop` tuning flags (rejected in batch mode) override it.
fn serve_trace(
    args: &Args,
    command: &str,
    input: &str,
    trace: &RequestTrace,
    builder: ServeConfigBuilder,
) -> Result<(ServeReport, String), CliError> {
    let catalog_path = args.required("catalog")?;
    let jobs = args.parse_opt::<usize>("jobs")?;
    let profile = parse_profile(args.or_default("profile", "uniform:20:125"))?;
    let seed = args.parse_opt::<u64>("seed")?.unwrap_or(1);
    let telemetry_path = args.parse_opt::<String>("telemetry")?;
    let algorithm = parse_algorithm(args.or_default("algorithm", "iupma"))?;
    // Every `--flag` maps onto a builder setter; unset flags keep the
    // preset, and `build()` rejects degenerate combinations with an
    // actionable message instead of silently clamping.
    let builder = builder.workers(jobs).correction(args.flag("correction"));
    let builder = args.apply_opt("queue", builder, ServeConfigBuilder::queue_capacity)?;
    let builder = args.apply_opt("batch", builder, ServeConfigBuilder::batch_max)?;
    let builder = args.apply_opt("batch-delay", builder, ServeConfigBuilder::batch_delay_s)?;
    let builder = args.apply_opt("service-cost", builder, ServeConfigBuilder::service_cost_s)?;
    let builder = args.apply_opt("deadline", builder, ServeConfigBuilder::deadline_s)?;
    let builder = args.apply_opt("refit", builder, ServeConfigBuilder::refit_threshold)?;
    let builder = args.apply_opt("heartbeat", builder, ServeConfigBuilder::heartbeat_s)?;
    let builder = args.apply_opt(
        "correction-alpha",
        builder,
        ServeConfigBuilder::correction_ewma_alpha,
    )?;
    let builder = args.apply_opt(
        "correction-saturation",
        builder,
        ServeConfigBuilder::correction_saturation,
    )?;
    let builder = args.apply_opt(
        "ledger-cells",
        builder,
        ServeConfigBuilder::ledger_max_cells,
    )?;
    let config = builder
        .build()
        .map_err(|e| CliError::Invalid(format!("{command}: {e}")))?;
    let flight_path = args.parse_opt::<String>("flight-recorder")?;
    let report_json_path = args.parse_opt::<String>("report-json")?;
    let mb = MaintenanceConfig::builder();
    let mb = args.apply_opt("drift-window", mb, MaintenanceConfigBuilder::window)?;
    let mb = args.apply_opt("drift-min", mb, MaintenanceConfigBuilder::min_observations)?;
    let mb = args.apply_opt(
        "drift-fraction",
        mb,
        MaintenanceConfigBuilder::min_good_fraction,
    )?;
    let maintenance = mb
        .build()
        .map_err(|e| CliError::Invalid(format!("{command}: {e}")))?;

    let mut ctx = if telemetry_path.is_some() {
        PipelineCtx::traced(seed)
    } else {
        PipelineCtx::seeded(seed)
    };
    let snapshot = load_snapshot(catalog_path, &mut ctx.telemetry)?;
    // The registry resumes version numbering from the snapshot, so models
    // republished by the loop version monotonically past the archive.
    let registry = ModelRegistry::from_snapshot(&snapshot);
    // Maintainers only for sites the CLI can build agents for; rederivation
    // needs to re-run the sampling pipeline against the live site.
    let fleet = fleet_from_snapshot(
        &snapshot,
        maintenance,
        DerivationConfig::quick(),
        algorithm,
        |site| SiteName::parse(&site.0).is_ok(),
    )?;
    let mut server = EstimationServer::new(registry, fleet, config);
    let report = server.run(
        trace,
        |site: &SiteId, agent_seed: u64| {
            SiteName::parse(&site.0)
                .ok()
                .map(|s| site_agent(s, &profile, agent_seed))
        },
        &mut ctx,
    );

    let mut out = format!(
        "{command}: {input} against {catalog_path} ({} maintained model(s))\n",
        server.fleet().len()
    );
    out.push_str(&report.rendered);
    out.push_str(&format!(
        "throughput: {:.2} answered/virtual-s\n",
        report.throughput_per_virtual_s()
    ));
    if let Some(path) = &flight_path {
        let recorder = server.recorder();
        std::fs::write(path, recorder.dump_jsonl())
            .map_err(io_err(format!("cannot write `{path}`")))?;
        out.push_str(&format!(
            "flight recorder: {} record(s) ({} request(s), {} event(s)) written to {path}\n",
            recorder.len(),
            recorder.request_len(),
            recorder.event_len(),
        ));
    }
    if let Some(path) = &report_json_path {
        let mut body = report.to_json().render();
        body.push('\n');
        std::fs::write(path, body).map_err(io_err(format!("cannot write `{path}`")))?;
        out.push_str(&format!("report json: written to {path}\n"));
    }
    if let Some(path) = &telemetry_path {
        out.push_str(&telemetry_section(&ctx.telemetry, None, path)?);
    }
    Ok((report, out))
}

fn cmd_run(args: &Args) -> Result<String, CliError> {
    check_keys(args, &["site", "sql", "procs", "seed", "telemetry"])?;
    let site = SiteName::parse(args.required("site")?)?;
    let sql = args.required("sql")?;
    let procs = args.parse_opt::<f64>("procs")?.unwrap_or(0.0);
    let seed = args.parse_opt::<u64>("seed")?.unwrap_or(1);
    let telemetry_path = args.parse_opt::<String>("telemetry")?;
    let mut agent = site.agent(seed);
    let mut tel = if telemetry_path.is_some() {
        agent.enable_metrics();
        agent.enable_trace(16);
        Telemetry::enabled()
    } else {
        Telemetry::disabled()
    };
    agent.set_load(mdbs_sim::contention::Load::background(procs));
    let query = parse_query(agent.catalog(), sql).map_err(|e| CliError::Invalid(e.to_string()))?;
    let span = tel.begin_span("run");
    tel.field(span, "procs", procs);
    let exec = agent
        .run(&query)
        .map_err(|e| CliError::Invalid(e.to_string()))?;
    let access = exec.access.to_string();
    let result_card = match exec.sizes {
        mdbs_sim::agent::ExecutionSizes::Unary(s) => s.result,
        mdbs_sim::agent::ExecutionSizes::Join(s) => s.result,
    };
    tel.field(span, "access", access.clone());
    tel.field(span, "result_card", result_card);
    tel.field(span, "cost_s", exec.cost_s);
    tel.end_span(span);
    let mut out = format!(
        "site `{}` under {procs:.0} background processes\n\
         access path: {access}\nresult tuples: {result_card}\n\
         elapsed: {:.2}s\n",
        site.id(),
        exec.cost_s
    );
    if let Some(path) = &telemetry_path {
        if let Some(metrics) = agent.disable_metrics() {
            tel.merge_metrics(&metrics);
        }
        out.push_str(&telemetry_section(&tel, agent.trace(), path)?);
    }
    Ok(out)
}

fn cmd_catalog(args: &Args) -> Result<String, CliError> {
    check_keys(args, &["file"])?;
    let path = args.required("file")?;
    let store = FileCatalogStore::sniffing(path);
    let snapshot = store
        .load(&mut Telemetry::disabled())
        .map_err(CliError::from)?;
    let catalog = &snapshot.catalog;
    let mut out = format!(
        "catalog {path}: {} model(s), {} format, snapshot version {}\n",
        catalog.len(),
        store.format().as_str(),
        snapshot.version
    );
    for site in catalog.sites() {
        for class in catalog.classes_for(&site) {
            let m = catalog.model(&site, class).expect("listed");
            out.push_str(&format!(
                "  {site} / {:<28} {} states, {} vars [{}], R^2 = {:.3}\n",
                class.label(),
                m.num_states(),
                m.num_variables(),
                m.var_names.join(", "),
                m.fit.r_squared
            ));
        }
        if catalog.probe_estimator(&site).is_some() {
            out.push_str(&format!("  {site} / probing-cost estimator (eq. 2)\n"));
        }
    }
    Ok(out)
}

/// `archive`: snapshot a catalog into a destination file, defaulting to
/// the compact binary format (load is parse-free, floats round-trip bit
/// for bit). The reverse escape hatch `--format text` re-encodes a binary
/// archive back into the human-readable interchange form.
fn cmd_archive(args: &Args) -> Result<String, CliError> {
    check_keys(args, &["catalog", "dest", "format"])?;
    let catalog_path = args.required("catalog")?;
    let dest = parse_destination(args.required("dest")?)?;
    let format = CatalogFormat::parse(args.or_default("format", "binary"))
        .map_err(|e| CliError::Invalid(e.to_string()))?;
    let mut tel = Telemetry::disabled();
    let snapshot = load_snapshot(catalog_path, &mut tel)?;
    FileCatalogStore::new(&dest, format).store(&snapshot, &mut tel)?;
    let bytes = std::fs::metadata(&dest).map(|m| m.len()).unwrap_or(0);
    Ok(format!(
        "archived {catalog_path} -> {dest}\n  {} model(s), snapshot version {}, {} format, {bytes} bytes\n",
        snapshot.catalog.len(),
        snapshot.version,
        format.as_str(),
    ))
}

/// `restore`: materialize an archive back into a catalog file,
/// defaulting to the text interchange format.
fn cmd_restore(args: &Args) -> Result<String, CliError> {
    check_keys(args, &["archive", "out", "format"])?;
    let archive = parse_destination(args.required("archive")?)?;
    let out_path = args.required("out")?;
    let format = CatalogFormat::parse(args.or_default("format", "text"))
        .map_err(|e| CliError::Invalid(e.to_string()))?;
    let mut tel = Telemetry::disabled();
    let snapshot = load_snapshot(&archive, &mut tel)?;
    FileCatalogStore::new(out_path, format).store(&snapshot, &mut tel)?;
    Ok(format!(
        "restored {archive} -> {out_path}\n  {} model(s), snapshot version {}, {} format\n",
        snapshot.catalog.len(),
        snapshot.version,
        format.as_str(),
    ))
}

/// Renders a telemetry or flight-recorder JSONL file back into tables:
/// heartbeat time series, the per-site/per-state accuracy ledger, and a
/// census of record kinds. Every line is strictly re-parsed through the
/// same JSON implementation that wrote it, so a clean `stats` run doubles
/// as schema validation for the emitted file.
fn cmd_stats(args: &Args) -> Result<String, CliError> {
    check_keys(args, &["file"])?;
    let path = match (args.parse_opt::<String>("file")?, args.positional()) {
        (Some(p), []) => p,
        (None, [p]) => p.clone(),
        (None, []) => {
            return Err(CliError::Invalid(
                "stats: give a JSONL file (`mdbs-qcost stats telemetry.jsonl`)".into(),
            ))
        }
        _ => {
            return Err(CliError::Invalid(
                "stats: give exactly one JSONL file".into(),
            ))
        }
    };
    let text = std::fs::read_to_string(&path).map_err(io_err(format!("cannot read `{path}`")))?;
    render_stats(&path, &text)
}

/// The testable body of `stats`: parses `text` (one JSON object per line)
/// and renders the tables. Fails on the first line that is not a record
/// this workspace could have written.
pub fn render_stats(path: &str, text: &str) -> Result<String, CliError> {
    use mdbs_obs::json::{parse, Json};

    fn num(obj: &Json, key: &str) -> f64 {
        obj.get(key).and_then(Json::as_f64).unwrap_or(0.0)
    }

    let mut lines = 0usize;
    let mut spans = 0usize;
    let mut metrics = 0usize;
    let mut flights = std::collections::BTreeMap::<String, usize>::new();
    let mut heartbeats: Vec<Json> = Vec::new();
    // (site, state) -> [n, mean_rel, p50, p95] folded from the ledger metrics.
    let mut ledger = std::collections::BTreeMap::<(String, String), [f64; 4]>::new();

    for (i, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        let value = parse(line)
            .map_err(|e| CliError::Invalid(format!("{path}:{}: not a JSON record: {e}", i + 1)))?;
        lines += 1;
        match value.get("type").and_then(Json::as_str).unwrap_or("") {
            "span" => {
                spans += 1;
                if value.get("name").and_then(Json::as_str) == Some("serve.heartbeat") {
                    if let Some(fields) = value.get("fields") {
                        heartbeats.push(fields.clone());
                    }
                }
            }
            "counter" | "gauge" | "histogram" => {
                metrics += 1;
                let name = value.get("name").and_then(Json::as_str).unwrap_or("");
                if let Some(rest) = name.strip_prefix("serve.ledger.") {
                    // serve.ledger.<site>.<state>.<metric>; the state label
                    // (`S1`...) never contains a dot, the site id may.
                    if let Some((cell, metric)) = rest.rsplit_once('.') {
                        if let Some((site, state)) = cell.rsplit_once('.') {
                            let row = ledger
                                .entry((site.to_string(), state.to_string()))
                                .or_default();
                            match metric {
                                "mean_rel_err" => row[1] = num(&value, "value"),
                                "abs_rel_err" => {
                                    row[0] = num(&value, "count");
                                    row[2] = num(&value, "p50");
                                    row[3] = num(&value, "p95");
                                }
                                _ => {}
                            }
                        }
                    }
                }
            }
            "flight" => {
                let kind = value.get("kind").and_then(Json::as_str).unwrap_or("?");
                *flights.entry(kind.to_string()).or_default() += 1;
                if kind == "heartbeat" {
                    heartbeats.push(value.clone());
                }
            }
            other => {
                return Err(CliError::Invalid(format!(
                    "{path}:{}: unknown record type `{other}`",
                    i + 1
                )))
            }
        }
    }

    let mut out = format!(
        "stats {path}: {lines} record(s) — {spans} span(s), {metrics} metric(s), {} flight record(s)\n",
        flights.values().sum::<usize>()
    );
    if !flights.is_empty() {
        out.push_str("flight records by kind:\n");
        for (kind, n) in &flights {
            out.push_str(&format!("  {kind:<16} {n}\n"));
        }
    }
    if !heartbeats.is_empty() {
        out.push_str("heartbeats:\n");
        out.push_str(
            "      at_s  queue  requests  answered  shed  batches  observations  refits  rederives  registry\n",
        );
        for hb in &heartbeats {
            let shed = num(hb, "shed_queue_full") + num(hb, "shed_deadline");
            out.push_str(&format!(
                "  {:>8.3}  {:>5}  {:>8}  {:>8}  {:>4}  {:>7}  {:>12}  {:>6}  {:>9}  {:>8}\n",
                num(hb, "at_s"),
                num(hb, "queue_depth") as u64,
                num(hb, "requests") as u64,
                num(hb, "answered") as u64,
                shed as u64,
                num(hb, "batches") as u64,
                num(hb, "observations") as u64,
                num(hb, "incremental_refits") as u64,
                num(hb, "rederivations") as u64,
                num(hb, "registry_version") as u64,
            ));
        }
    }
    if !ledger.is_empty() {
        out.push_str("accuracy ledger (site x state):\n");
        for ((site, state), row) in &ledger {
            out.push_str(&format!(
                "  {site}/{state}: n={} mean rel {:+.1}% |rel| p50 {:.1}% p95 {:.1}%\n",
                row[0] as u64,
                row[1] * 100.0,
                row[2] * 100.0,
                row[3] * 100.0,
            ));
        }
    }
    Ok(out)
}

fn class_tag(class: QueryClass) -> &'static str {
    match class {
        QueryClass::UnaryNoIndex => "g1",
        QueryClass::UnaryNonClusteredIndex => "g2",
        QueryClass::UnaryClusteredIndex => "gc",
        QueryClass::JoinNoIndex => "g3",
        QueryClass::JoinIndexed => "gj",
    }
}

/// The single reporting path for telemetry: writes the events as JSONL to
/// `path` and returns the human-readable section (telemetry summary plus,
/// when present, the agent's execution-trace report).
fn telemetry_section(
    tel: &Telemetry,
    trace: Option<&ExecutionTrace>,
    path: &str,
) -> Result<String, CliError> {
    let mut sink = JsonlFileSink::create(std::path::Path::new(path))
        .map_err(io_err(format!("cannot create telemetry file `{path}`")))?;
    tel.emit_to(&mut sink);
    sink.finish()
        .map_err(io_err(format!("cannot write telemetry file `{path}`")))?;
    let mut out = format!(
        "\ntelemetry: {} event(s) written to {path}\n",
        tel.events().len()
    );
    out.push_str(&tel.render_summary());
    if let Some(trace) = trace {
        out.push_str(&trace.report());
    }
    Ok(out)
}

fn check_keys(args: &Args, known: &[&str]) -> Result<(), CliError> {
    let unknown = args.unknown_keys(known);
    if unknown.is_empty() {
        Ok(())
    } else {
        Err(CliError::Invalid(format!(
            "unknown option(s): {}",
            unknown
                .iter()
                .map(|k| format!("--{k}"))
                .collect::<Vec<_>>()
                .join(", ")
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdbs_core::catalog::GlobalCatalog;

    fn argv(s: &str) -> Vec<String> {
        // Split on spaces except inside single quotes (for --sql).
        let mut out = Vec::new();
        let mut cur = String::new();
        let mut quoted = false;
        for ch in s.chars() {
            match ch {
                '\'' => quoted = !quoted,
                ' ' if !quoted => {
                    if !cur.is_empty() {
                        out.push(std::mem::take(&mut cur));
                    }
                }
                _ => cur.push(ch),
            }
        }
        if !cur.is_empty() {
            out.push(cur);
        }
        out
    }

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("mdbs-cli-tests");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        dir.join(name).to_string_lossy().into_owned()
    }

    #[test]
    fn help_lists_subcommands() {
        let out = dispatch(&argv("help")).unwrap();
        for cmd in ["derive", "estimate", "serve", "run", "catalog"] {
            assert!(out.contains(cmd), "help misses {cmd}");
        }
    }

    #[test]
    fn unknown_subcommand_mentions_usage() {
        let e = dispatch(&argv("frobnicate")).unwrap_err();
        assert!(e.to_string().contains("unknown subcommand"));
        assert!(e.to_string().contains("USAGE"));
    }

    #[test]
    fn run_executes_sql() {
        let out = dispatch(&argv(
            "run --site oracle --sql 'select a1, a5 from R7 where a3 > 300 and a8 < 2000' --procs 60",
        ))
        .unwrap();
        assert!(out.contains("access path"), "{out}");
        assert!(out.contains("elapsed"), "{out}");
    }

    #[test]
    fn run_rejects_bad_sql() {
        let e = dispatch(&argv("run --site oracle --sql 'select from'")).unwrap_err();
        assert!(e.to_string().contains("SQL error"), "{e}");
    }

    #[test]
    fn derive_then_estimate_roundtrip() {
        let path = tmp("roundtrip-catalog.txt");
        let _ = std::fs::remove_file(&path);
        let out = dispatch(&argv(&format!(
            "derive --site oracle --class g1 --samples 160 --max-states 3 --out {path}"
        )))
        .unwrap();
        assert!(out.contains("contention states"), "{out}");
        assert!(std::path::Path::new(&path).exists());

        let out = dispatch(&argv(&format!(
            "estimate --catalog {path} --site oracle \
             --sql 'select a1, a5 from R8 where a5 > 100 and a6 < 500' --execute"
        )))
        .unwrap();
        assert!(out.contains("estimated cost"), "{out}");
        assert!(out.contains("observed cost"), "{out}");

        let out = dispatch(&argv(&format!("catalog --file {path}"))).unwrap();
        assert!(out.contains("G1"), "{out}");
    }

    #[test]
    fn estimate_without_model_suggests_derive() {
        let path = tmp("empty-catalog.txt");
        let _ = std::fs::remove_file(&path);
        std::fs::write(&path, GlobalCatalog::new().export()).unwrap();
        let e = dispatch(&argv(&format!(
            "estimate --catalog {path} --site db2 --sql 'select a1 from R2 where a2 < 100'"
        )))
        .unwrap_err();
        assert!(e.to_string().contains("derive one first"), "{e}");
        assert!(e.to_string().contains("--class g1"), "{e}");
    }

    #[test]
    fn typoed_flag_is_caught() {
        let e = dispatch(&argv(
            "run --site oracle --sql 'select a1 from R2' --porcs 9",
        ))
        .unwrap_err();
        assert!(e.to_string().contains("--porcs"), "{e}");
    }

    #[test]
    fn derive_supports_icma_and_clustered_profiles() {
        let path = tmp("icma-catalog.txt");
        let _ = std::fs::remove_file(&path);
        let out = dispatch(&argv(&format!(
            "derive --site db2 --class g1 --algorithm icma --profile clustered \
             --samples 150 --max-states 3 --out {path}"
        )))
        .unwrap();
        assert!(out.contains("contention states"), "{out}");
    }

    #[test]
    fn derive_rejects_bad_options() {
        for bad in [
            "derive --site teradata --class g1",
            "derive --site oracle --class g9",
            "derive --site oracle,postgres --class g1",
            "derive --site oracle --class g1,gx",
            "derive --site oracle --class g1 --algorithm kmeans",
            "derive --site oracle --class g1 --profile uniform:bad:10",
        ] {
            assert!(dispatch(&argv(bad)).is_err(), "`{bad}` should fail");
        }
    }

    #[test]
    fn catalog_command_reports_unreadable_files() {
        let e = dispatch(&argv("catalog --file /nonexistent/nowhere.txt")).unwrap_err();
        assert!(e.to_string().contains("cannot read"), "{e}");
        let path = tmp("garbage.txt");
        std::fs::write(&path, "not a catalog at all").unwrap();
        assert!(dispatch(&argv(&format!("catalog --file {path}"))).is_err());
    }

    #[test]
    fn errors_carry_structured_causes_and_exit_codes() {
        use std::error::Error as _;

        let core = CliError::from(mdbs_core::CoreError::InsufficientSamples { needed: 9, got: 1 });
        assert!(matches!(
            core,
            CliError::Core(mdbs_core::CoreError::InsufficientSamples { needed: 9, .. })
        ));
        assert!(core.source().is_some(), "core errors chain their cause");
        assert_eq!(core.exit_code(), 4);

        let args = CliError::from(ArgsError("bad flag".into()));
        assert!(args.source().is_some());
        assert_eq!(args.exit_code(), 2);

        let io = dispatch(&argv("catalog --file /nonexistent/nowhere.txt")).unwrap_err();
        assert!(matches!(io, CliError::Io { .. }), "{io:?}");
        assert!(io.source().is_some());
        assert_eq!(io.exit_code(), 3);

        let invalid = dispatch(&argv("frobnicate")).unwrap_err();
        assert_eq!(invalid.exit_code(), 2);
    }

    #[test]
    fn derive_batch_catalog_is_identical_across_worker_counts() {
        let p1 = tmp("batch-j1-catalog.txt");
        let p2 = tmp("batch-j4-catalog.txt");
        let _ = std::fs::remove_file(&p1);
        let _ = std::fs::remove_file(&p2);
        let out = dispatch(&argv(&format!(
            "derive --site oracle,db2 --class g1 --samples 150 --max-states 3 \
             --jobs 1 --out {p1}"
        )))
        .unwrap();
        assert!(out.contains("derived 2 of 2 model(s)"), "{out}");
        assert!(out.contains("oracle/"), "{out}");
        assert!(out.contains("db2/"), "{out}");
        dispatch(&argv(&format!(
            "derive --site oracle,db2 --class g1 --samples 150 --max-states 3 \
             --jobs 4 --out {p2}"
        )))
        .unwrap();
        let c1 = std::fs::read_to_string(&p1).unwrap();
        let c2 = std::fs::read_to_string(&p2).unwrap();
        assert!(!c1.trim().is_empty());
        assert_eq!(c1, c2, "batch catalog must not depend on worker count");
    }

    #[test]
    fn serve_answers_queries_in_input_order_independent_of_workers() {
        let cat = tmp("serve-catalog.txt");
        let _ = std::fs::remove_file(&cat);
        dispatch(&argv(&format!(
            "derive --site oracle --class g1 --samples 150 --max-states 3 --out {cat}"
        )))
        .unwrap();
        let qf = tmp("serve-queries.txt");
        std::fs::write(
            &qf,
            "# batch estimation smoke\n\
             oracle select a1, a5 from R8 where a5 > 100 and a6 < 500\n\
             \n\
             db2 select a1 from R2 where a2 < 100\n\
             oracle select R2.a1, R3.a2 from R2 join R3 on R2.a5 = R3.a5\n\
             teradata select a1 from R2 where a2 < 100\n",
        )
        .unwrap();
        let out = dispatch(&argv(&format!(
            "serve --catalog {cat} --queries {qf} --jobs 2"
        )))
        .unwrap();
        assert!(
            out.contains("3 request(s) — 1 answered, 2 no-model, 0 shed"),
            "{out}"
        );
        assert!(out.contains("1 error line(s)"), "{out}");
        assert!(out.contains("1 batch(es)"), "one micro-batch:\n{out}");
        assert!(out.contains("no model in registry"), "{out}");
        let rows: Vec<usize> = [
            "  2 @0.000->@",
            "  4 @0.000->@",
            "  5 @0.000->@",
            "  6 ERROR",
        ]
        .iter()
        .map(|row| {
            out.find(row)
                .unwrap_or_else(|| panic!("no `{row}` row:\n{out}"))
        })
        .collect();
        assert!(
            rows.windows(2).all(|w| w[0] < w[1]),
            "rows must keep input order:\n{out}"
        );
        assert!(out.contains(&format!("{qf}:6: unknown site")), "{out}");
        for jobs in [1, 8] {
            let other = dispatch(&argv(&format!(
                "serve --catalog {cat} --queries {qf} --jobs {jobs}"
            )))
            .unwrap();
            assert_eq!(out, other, "serve output must not depend on worker count");
        }
    }

    #[test]
    fn serve_keeps_serving_good_lines_when_some_are_bad() {
        // Regression: one malformed line used to discard the whole batch
        // after the pool had already computed every answer.
        let cat = tmp("serve-mixed-catalog.txt");
        let _ = std::fs::remove_file(&cat);
        dispatch(&argv(&format!(
            "derive --site oracle --class g1 --samples 150 --max-states 3 --out {cat}"
        )))
        .unwrap();
        let qf = tmp("serve-mixed-queries.txt");
        std::fs::write(
            &qf,
            "oracle select a1 from R2 where a2 < 100\n\
             oracle select bogus syntax here\n\
             teradata select a1 from R2 where a2 < 100\n\
             oracle select a1, a5 from R8 where a5 > 100 and a6 < 500\n",
        )
        .unwrap();
        let out = dispatch(&argv(&format!(
            "serve --catalog {cat} --queries {qf} --jobs 2"
        )))
        .unwrap();
        assert!(out.contains("2 answered"), "{out}");
        assert!(out.contains("2 error line(s)"), "{out}");
        assert!(out.contains(&format!("{qf}:3: unknown site")), "{out}");
        // Failure rows stay inline, in line-number order with the answers.
        let l1 = out.find("  1 @0.000").expect("line 1 answered");
        let l2 = out.find("  2 ERROR").expect("line 2 failed inline");
        let l3 = out.find("  3 ERROR").expect("line 3 failed inline");
        let l4 = out.find("  4 @0.000").expect("line 4 answered");
        assert!(
            l1 < l2 && l2 < l3 && l3 < l4,
            "rows keep input order:\n{out}"
        );
        let serial = dispatch(&argv(&format!(
            "serve --catalog {cat} --queries {qf} --jobs 1"
        )))
        .unwrap();
        assert_eq!(out, serial, "mixed output must not depend on worker count");
    }

    #[test]
    fn serve_reports_malformed_query_lines_with_location() {
        let cat = tmp("serve-bad-catalog.txt");
        std::fs::write(&cat, GlobalCatalog::new().export()).unwrap();
        let qf = tmp("serve-bad-queries.txt");
        std::fs::write(&qf, "oracle\n").unwrap();
        let e = dispatch(&argv(&format!("serve --catalog {cat} --queries {qf}"))).unwrap_err();
        assert!(e.to_string().contains(&format!("{qf}:1")), "{e}");
        assert_eq!(e.exit_code(), 2);
        std::fs::write(&qf, "teradata select a1 from R2\n").unwrap();
        let e = dispatch(&argv(&format!("serve --catalog {cat} --queries {qf}"))).unwrap_err();
        assert!(e.to_string().contains("unknown site"), "{e}");
        // A line that fails only at dispatch (bad SQL) fails the batch too.
        std::fs::write(&qf, "oracle select bogus syntax here\n").unwrap();
        let e = dispatch(&argv(&format!("serve --catalog {cat} --queries {qf}"))).unwrap_err();
        assert!(e.to_string().contains("  1 ERROR"), "{e}");
        assert_eq!(e.exit_code(), 2);
    }

    #[test]
    fn run_telemetry_writes_parseable_jsonl_and_folds_the_trace_report() {
        let path = tmp("run-telemetry.jsonl");
        let _ = std::fs::remove_file(&path);
        let out = dispatch(&argv(&format!(
            "run --site oracle --sql 'select a1, a5 from R7 where a3 > 300 and a8 < 2000' \
             --procs 40 --telemetry {path}"
        )))
        .unwrap();
        assert!(out.contains("telemetry:"), "{out}");
        assert!(out.contains("engine.executions"), "{out}");
        // The agent's execution-trace report rides in the same section
        // (single reporting path, no separate trace output).
        assert!(out.contains("trace: "), "{out}");
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(!text.trim().is_empty(), "telemetry file is empty");
        for line in text.lines() {
            mdbs_obs::json::parse(line)
                .unwrap_or_else(|e| panic!("unparseable telemetry line `{line}`: {e:?}"));
        }
    }

    #[test]
    fn derive_telemetry_emits_one_span_per_stage() {
        let catalog = tmp("telemetry-catalog.txt");
        let events = tmp("derive-telemetry.jsonl");
        let _ = std::fs::remove_file(&catalog);
        let _ = std::fs::remove_file(&events);
        let out = dispatch(&argv(&format!(
            "derive --site oracle --class g1 --samples 150 --max-states 3 \
             --out {catalog} --telemetry {events}"
        )))
        .unwrap();
        assert!(out.contains("telemetry:"), "{out}");
        let text = std::fs::read_to_string(&events).unwrap();
        for stage in [
            "derive.sampling",
            "derive.states",
            "derive.selection",
            "derive.fit",
            "derive.validation",
        ] {
            let n = text
                .lines()
                .filter(|l| l.contains(&format!("\"name\":\"{stage}\"")))
                .count();
            assert_eq!(n, 1, "expected exactly one `{stage}` span, got {n}");
        }
    }

    #[test]
    fn batch_derive_telemetry_nests_per_job_spans_under_derive_all() {
        let catalog = tmp("batch-telemetry-catalog.txt");
        let events = tmp("batch-telemetry.jsonl");
        let _ = std::fs::remove_file(&catalog);
        let _ = std::fs::remove_file(&events);
        dispatch(&argv(&format!(
            "derive --site oracle,db2 --class g1 --samples 150 --max-states 3 \
             --jobs 2 --out {catalog} --telemetry {events}"
        )))
        .unwrap();
        let text = std::fs::read_to_string(&events).unwrap();
        let derive_all_spans = text
            .lines()
            .filter(|l| l.contains("\"name\":\"derive_all\""))
            .count();
        assert_eq!(derive_all_spans, 1, "{text}");
        let sampling_spans = text
            .lines()
            .filter(|l| l.contains("\"name\":\"derive.sampling\""))
            .count();
        assert_eq!(sampling_spans, 2, "one per job:\n{text}");
        assert!(text.contains("registry.publishes"), "{text}");
    }

    #[test]
    fn telemetry_path_errors_are_reported_not_panicked() {
        let e = dispatch(&argv(
            "run --site oracle --sql 'select a1 from R2 where a2 < 100' \
             --telemetry /nonexistent/dir/t.jsonl",
        ))
        .unwrap_err();
        assert!(e.to_string().contains("telemetry"), "{e}");
        assert_eq!(e.exit_code(), 3);
    }

    #[test]
    fn serve_loop_observability_end_to_end() {
        use mdbs_obs::json::Json;

        let cat = tmp("loop-obs-catalog.txt");
        let _ = std::fs::remove_file(&cat);
        dispatch(&argv(&format!(
            "derive --site oracle --class g1 --samples 150 --max-states 3 --seed 7 --out {cat}"
        )))
        .unwrap();
        let trace = tmp("loop-obs.trace");
        std::fs::write(
            &trace,
            "@0.0 request oracle select a1 from R2 where a2 < 100\n\
             @1.0 observe oracle select a1 from R2 where a2 < 100\n\
             @2.0 request oracle select a3 from R4 where a4 > 200\n\
             @3.0 observe oracle select a3 from R4 where a4 > 200\n\
             @5.0 request oracle select a3 from R4 where a4 > 200\n\
             @9.0 request oracle select a1 from R2 where a2 < 100\n",
        )
        .unwrap();
        let tel = tmp("loop-obs-tel.jsonl");
        let flight = tmp("loop-obs-flight.jsonl");
        let report = tmp("loop-obs-report.json");
        let out = dispatch(&argv(&format!(
            "serve --loop --catalog {cat} --trace {trace} --seed 7 --heartbeat 4 \
             --flight-recorder {flight} --report-json {report} --telemetry {tel}"
        )))
        .unwrap();
        assert!(out.contains("heartbeat(s)"), "{out}");
        assert!(out.contains("accuracy ledger"), "{out}");
        assert!(out.contains("flight recorder:"), "{out}");
        assert!(out.contains("report json: written"), "{out}");

        // The machine-readable report round-trips and carries the ledger.
        let rep = std::fs::read_to_string(&report).unwrap();
        let rep = mdbs_obs::json::parse(&rep).unwrap();
        assert!(
            matches!(rep.get("ledger"), Some(Json::Arr(rows)) if !rows.is_empty()),
            "report json must carry a non-empty ledger: {}",
            rep.render()
        );
        // One beat per clock advance that crosses a tick: @5 crosses 4s
        // and @9 crosses 8s.
        assert!(rep.get("heartbeats").and_then(Json::as_i64).unwrap_or(0) >= 2);

        // `stats` renders both emitted files back into tables.
        let st = dispatch(&argv(&format!("stats {tel}"))).unwrap();
        assert!(st.contains("heartbeats:"), "{st}");
        assert!(st.contains("accuracy ledger"), "{st}");
        let sf = dispatch(&argv(&format!("stats --file {flight}"))).unwrap();
        assert!(sf.contains("flight records by kind:"), "{sf}");
        assert!(sf.contains("request"), "{sf}");
        assert!(sf.contains("heartbeat"), "{sf}");
    }

    #[test]
    fn stats_rejects_bad_input() {
        assert!(dispatch(&argv("stats")).is_err());
        assert!(dispatch(&argv("stats /nonexistent/nowhere.jsonl")).is_err());
        let bad = tmp("stats-bad.jsonl");
        std::fs::write(&bad, "not json\n").unwrap();
        let e = dispatch(&argv(&format!("stats {bad}"))).unwrap_err();
        assert!(e.to_string().contains(":1"), "{e}");
        assert!(dispatch(&argv(&format!("stats {bad} extra.jsonl"))).is_err());
        let alien = tmp("stats-alien.jsonl");
        std::fs::write(&alien, "{\"type\":\"mystery\"}\n").unwrap();
        let e = dispatch(&argv(&format!("stats {alien}"))).unwrap_err();
        assert!(e.to_string().contains("unknown record type"), "{e}");
    }

    #[test]
    fn operands_rejected_outside_stats() {
        let e = dispatch(&argv("derive oops --site oracle")).unwrap_err();
        assert!(e.to_string().contains("unexpected operand"), "{e}");
    }

    #[test]
    fn derive_accumulates_into_the_same_catalog() {
        let path = tmp("accumulate-catalog.txt");
        let _ = std::fs::remove_file(&path);
        dispatch(&argv(&format!(
            "derive --site oracle --class g1 --samples 150 --max-states 3 --out {path}"
        )))
        .unwrap();
        dispatch(&argv(&format!(
            "derive --site db2 --class g1 --samples 150 --max-states 3 --out {path}"
        )))
        .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let catalog = GlobalCatalog::import(&text).unwrap();
        assert_eq!(catalog.len(), 2);
        assert_eq!(catalog.sites().len(), 2);
    }

    /// Derive into an existing catalog publishes each derived model on top
    /// of the loaded snapshot: the written version is the loaded version
    /// plus the number of models derived, on the single-job and batch
    /// paths alike.
    #[test]
    fn derive_into_an_existing_catalog_adds_one_version_per_model() {
        let path = tmp("derive-versions.txt");
        let _ = std::fs::remove_file(&path);
        let opts = format!("--samples 150 --max-states 3 --out {path}");
        for (sites, jobs, models, version) in [
            ("oracle", "", 1, 1),
            ("oracle,db2", "--jobs 1", 2, 3),
            ("db2", "", 2, 4),
        ] {
            dispatch(&argv(&format!(
                "derive --site {sites} --class g1 {jobs} {opts}"
            )))
            .unwrap();
            let text = std::fs::read_to_string(&path).unwrap();
            let (catalog, written) = GlobalCatalog::import_versioned(&text).unwrap();
            assert_eq!(catalog.len(), models, "after deriving {sites}");
            assert_eq!(written, version, "after deriving {sites}");
        }
    }

    /// text → binary archive → restored text must reproduce the original
    /// catalog bytes exactly, and every catalog-reading command accepts
    /// the binary archive transparently.
    #[test]
    fn archive_restore_round_trips_catalog_bytes() {
        let path = tmp("archive-catalog.txt");
        let arch = tmp("archive-catalog.mdbc");
        let back = tmp("archive-catalog-restored.txt");
        for p in [&path, &arch, &back] {
            let _ = std::fs::remove_file(p);
        }
        dispatch(&argv(&format!(
            "derive --site oracle --class g1 --samples 150 --max-states 3 --out {path}"
        )))
        .unwrap();

        let out = dispatch(&argv(&format!(
            "archive --catalog {path} --dest file:{arch}"
        )))
        .unwrap();
        assert!(out.contains("binary format"), "{out}");
        let out = dispatch(&argv(&format!(
            "restore --archive file:{arch} --out {back}"
        )))
        .unwrap();
        assert!(out.contains("text format"), "{out}");

        let original = std::fs::read(&path).unwrap();
        let restored = std::fs::read(&back).unwrap();
        assert_eq!(original, restored, "restore must be byte-identical");
        let archived = std::fs::read(&arch).unwrap();
        assert!(archived.starts_with(b"MDBC"), "archive is not binary");
        assert!(
            archived.len() * 2 <= original.len(),
            "binary archive not compact: {} vs {} bytes",
            archived.len(),
            original.len()
        );

        // The binary archive is a first-class catalog everywhere else.
        let out = dispatch(&argv(&format!("catalog --file {arch}"))).unwrap();
        assert!(out.contains("binary format"), "{out}");
        assert!(out.contains("G1"), "{out}");
        let out = dispatch(&argv(&format!(
            "estimate --catalog {arch} --site oracle \
             --sql 'select a1, a5 from R8 where a5 > 100 and a6 < 500'"
        )))
        .unwrap();
        assert!(out.contains("estimated cost"), "{out}");
    }

    #[test]
    fn archive_rejects_remote_destination_schemes() {
        let path = tmp("archive-scheme-catalog.txt");
        std::fs::write(&path, GlobalCatalog::new().export()).unwrap();
        let e = dispatch(&argv(&format!(
            "archive --catalog {path} --dest s3:bucket/catalog.mdbc"
        )))
        .unwrap_err();
        assert!(
            e.to_string()
                .contains("unsupported destination scheme `s3:`"),
            "{e}"
        );
        assert_eq!(e.exit_code(), 2);

        let e = dispatch(&argv(&format!(
            "archive --catalog {path} --dest file: --format text"
        )))
        .unwrap_err();
        assert!(e.to_string().contains("names no path"), "{e}");

        let e = dispatch(&argv(&format!(
            "archive --catalog {path} --dest {path}.out --format sideways"
        )))
        .unwrap_err();
        assert!(e.to_string().contains("unknown catalog format"), "{e}");
        assert_eq!(e.exit_code(), 2);
    }

    #[test]
    fn restore_maps_archive_failures_onto_exit_codes() {
        // Missing archive: IO failure, exit 3.
        let e = dispatch(&argv(
            "restore --archive /nonexistent/a.mdbc --out /tmp/x.txt",
        ))
        .unwrap_err();
        assert!(matches!(e, CliError::Io { .. }), "{e:?}");
        assert_eq!(e.exit_code(), 3);

        // Truncated binary archive: corrupt catalog, exit 4.
        let arch = tmp("truncated.mdbc");
        std::fs::write(&arch, b"MDBC\x01\x00\x00\x00S").unwrap();
        let out = tmp("truncated-restore.txt");
        let e = dispatch(&argv(&format!("restore --archive {arch} --out {out}"))).unwrap_err();
        assert!(matches!(e, CliError::Core(_)), "{e:?}");
        assert_eq!(e.exit_code(), 4);
        assert!(e.to_string().contains("catalog binary error"), "{e}");
    }
}
