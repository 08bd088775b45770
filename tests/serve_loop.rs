//! The long-lived estimation server (`mdbs_core::server`).
//!
//! The contract under test: a scripted request/observation trace replayed
//! through [`EstimationServer`] drives the full maintenance loop — requests
//! micro-batched onto the pool against registry snapshots, backpressure
//! shedding, at least one incremental refit and one drift-triggered
//! rederivation — and the report plus stripped telemetry are a pure
//! function of `(trace, seed, config)`, byte-identical at any worker
//! count. Readers racing maintenance republishes must observe monotone
//! snapshot versions.

use mdbs_core::catalog::{GlobalCatalog, SiteId};
use mdbs_core::classes::QueryClass;
use mdbs_core::derive::{derive_cost_model, DerivationConfig};
use mdbs_core::maintenance::{MaintenanceConfig, ModelMaintainer};
use mdbs_core::model::ModelAccumulator;
use mdbs_core::pipeline::PipelineCtx;
use mdbs_core::registry::ModelRegistry;
use mdbs_core::sampling::SampleGenerator;
use mdbs_core::server::{
    fleet_from_catalog, EstimationServer, RequestTrace, ServeConfig, ServeReport, TraceEvent,
    TracedEvent,
};
use mdbs_core::states::StateAlgorithm;
use mdbs_core::variables::VariableFamily;
use mdbs_core::Observation;
use mdbs_obs::telemetry::strip_wall_clock;
use mdbs_sim::datagen::standard_database;
use mdbs_sim::{ContentionProfile, LoadBuilder, MdbsAgent, VendorProfile};

fn oracle_agent(env_seed: u64) -> MdbsAgent {
    let mut agent = MdbsAgent::new(VendorProfile::oracle8(), standard_database(42), env_seed);
    agent.set_load_builder(LoadBuilder::new(ContentionProfile::Uniform {
        lo: 20.0,
        hi: 125.0,
    }));
    agent
}

/// A catalog with one maintained model (oracle / G1) plus its persisted
/// fit accumulator, exactly what `derive` writes for `serve --loop`.
fn seeded_catalog() -> GlobalCatalog {
    let mut agent = oracle_agent(40);
    let derived = derive_cost_model(
        &mut agent,
        QueryClass::UnaryNoIndex,
        StateAlgorithm::Iupma,
        &DerivationConfig::quick(),
        &mut PipelineCtx::seeded(41),
    )
    .expect("seed derivation succeeds");
    let mut catalog = GlobalCatalog::new();
    let site = SiteId::from("oracle");
    catalog.insert_model(
        site.clone(),
        QueryClass::UnaryNoIndex,
        derived.model.clone(),
    );
    catalog.insert_accumulator(
        site,
        QueryClass::UnaryNoIndex,
        ModelAccumulator::from_observations(&derived.model, &derived.observations),
    );
    catalog
}

const G1_SQLS: &[&str] = &[
    "select a1 from R2 where a2 < 100",
    "select a1, a5 from R8 where a5 > 100 and a6 < 500",
    "select a3 from R4 where a4 > 200",
    "select a1, a3 from R6 where a6 < 900",
    "select a5 from R10 where a7 > 50",
];

/// A trace exercising every serving-loop behaviour:
///
/// 1. a burst that overflows the bounded queue (queue-full sheds) and then
///    out-waits the deadline (deadline sheds);
/// 2. steady good traffic: 20 observations that reach the refit threshold
///    → one incremental refit, with requests answered throughout;
/// 3. a durable 12× I/O degradation followed by bad traffic that trips the
///    drift monitor → one pooled rederivation — and a final request that
///    must still be answered afterwards. 12× is strong enough to push
///    observed costs out of the good-estimate band yet mild enough that
///    the startup-dominated probing query does not shift the contention
///    state and mask the drift.
fn scripted_trace() -> String {
    let mut t = String::from("# serve-loop determinism trace\n");
    // Phase 1: burst of 10 requests at t=0 against queue_capacity=4,
    // batch_max=2, service=0.2s, deadline=0.5s.
    for i in 0..10 {
        t.push_str(&format!(
            "@0.0 request oracle {}\n",
            G1_SQLS[i % G1_SQLS.len()]
        ));
    }
    // Phase 2: good traffic toward the refit threshold (20 pending).
    let mut at = 5.0;
    for i in 0..20 {
        t.push_str(&format!(
            "@{at:.1} observe oracle {}\n",
            G1_SQLS[i % G1_SQLS.len()]
        ));
        at += 1.0;
        if i % 5 == 4 {
            t.push_str(&format!(
                "@{at:.1} request oracle {}\n",
                G1_SQLS[(i + 2) % G1_SQLS.len()]
            ));
            at += 1.0;
        }
    }
    // Phase 3: durable degradation, then traffic that trips the monitor.
    t.push_str(&format!("@{at:.1} degrade oracle 12.0\n"));
    at += 1.0;
    for i in 0..16 {
        t.push_str(&format!(
            "@{at:.1} observe oracle {}\n",
            G1_SQLS[i % G1_SQLS.len()]
        ));
        at += 1.0;
        if i % 6 == 5 {
            t.push_str(&format!(
                "@{at:.1} request oracle {}\n",
                G1_SQLS[(i + 1) % G1_SQLS.len()]
            ));
            at += 1.0;
        }
    }
    // Requests must still be answered after the rederivation.
    t.push_str(&format!("@{:.1} request oracle {}\n", at + 5.0, G1_SQLS[0]));
    t
}

fn loop_config(workers: usize) -> ServeConfig {
    ServeConfig::builder()
        .queue_capacity(4)
        .batch_max(2)
        .batch_delay_s(0.05)
        .service_cost_s(0.2)
        .deadline_s(0.5)
        .refit_threshold(20)
        .workers(Some(workers))
        // Observability has its own suite (`tests/observability.rs`); this
        // one pins the plain serving contract.
        .heartbeat_s(0.0)
        .flight_capacity(0)
        .build()
        .expect("sane config")
}

fn maintenance_config() -> MaintenanceConfig {
    MaintenanceConfig::builder()
        .window(20)
        .min_observations(8)
        .min_good_fraction(0.55)
        .build()
        .expect("sane config")
}

fn run_loop(
    catalog: &GlobalCatalog,
    trace: &RequestTrace,
    workers: usize,
) -> (String, String, ServeReport) {
    let mut ctx = PipelineCtx::traced(9);
    let report = replay(catalog, trace, loop_config(workers), &mut ctx);
    let stripped = strip_wall_clock(&ctx.telemetry.render_jsonl());
    (report.rendered.clone(), stripped, report)
}

fn replay(
    catalog: &GlobalCatalog,
    trace: &RequestTrace,
    config: ServeConfig,
    ctx: &mut PipelineCtx,
) -> ServeReport {
    let registry = ModelRegistry::from_catalog(catalog);
    let fleet = fleet_from_catalog(
        catalog,
        maintenance_config(),
        DerivationConfig::quick(),
        StateAlgorithm::Iupma,
        |site| site.0 == "oracle",
    )
    .expect("fleet builds from the catalog");
    let mut server = EstimationServer::new(registry, fleet, config);
    server.run(
        trace,
        |site: &SiteId, seed: u64| (site.0 == "oracle").then(|| oracle_agent(seed)),
        ctx,
    )
}

#[test]
fn serve_loop_drives_refit_and_rederivation_deterministically() {
    let catalog = seeded_catalog();
    let trace = RequestTrace::parse(&scripted_trace());
    assert!(
        trace.errors.is_empty(),
        "trace must be clean: {:?}",
        trace.errors
    );

    let (serial_out, serial_tel, report) = run_loop(&catalog, &trace, 1);

    // The loop went through both maintenance paths while serving.
    assert!(
        report.incremental_refits >= 1,
        "no incremental refit ran:\n{serial_out}"
    );
    assert!(
        report.rederivations >= 1,
        "no drift-triggered rederivation ran:\n{serial_out}"
    );
    assert!(report.answered >= 10, "requests starved:\n{serial_out}");
    // The final request (after the rederivation) was answered.
    let final_lineno = trace.events.last().expect("non-empty trace").lineno;
    let final_row = serial_out
        .lines()
        .find(|l| l.trim_start().starts_with(&format!("{final_lineno} @")))
        .unwrap_or_else(|| panic!("no row for the final request:\n{serial_out}"));
    assert!(
        final_row.contains("estimate"),
        "request after rederivation was not answered: {final_row}"
    );

    // Backpressure engaged: the burst overflowed the queue and then
    // out-waited the deadline.
    assert!(
        report.shed_queue_full > 0,
        "no queue-full shed:\n{serial_out}"
    );
    assert!(report.shed_deadline > 0, "no deadline shed:\n{serial_out}");
    assert_eq!(
        report.max_queue_depth, 4,
        "queue never filled:\n{serial_out}"
    );
    assert!(report.latency_p95_s >= report.latency_p50_s);
    assert!(report.virtual_makespan_s > 0.0);

    // Queue-depth and shed counters are first-class telemetry, and the
    // scheduling-dependent metrics were confined to the stripped prefix.
    for metric in [
        "serve.queue_depth",
        "serve.shed.queue_full",
        "serve.shed.deadline",
        "serve.latency_virtual_s",
        "serve.batch_size",
        "maintenance.incremental_refits",
        "maintenance.rederivations",
    ] {
        assert!(
            serial_tel.contains(metric),
            "missing {metric}:\n{serial_tel}"
        );
    }
    assert!(!serial_tel.contains("pool.sched."), "{serial_tel}");

    // Byte-identical replay at any worker count: report and telemetry.
    for workers in [2, 8] {
        let (out, tel, _) = run_loop(&catalog, &trace, workers);
        assert_eq!(
            serial_out, out,
            "serve-loop report must not depend on worker count ({workers})"
        );
        assert_eq!(
            serial_tel, tel,
            "stripped serve-loop telemetry must not depend on worker count ({workers})"
        );
    }
}

#[test]
fn one_bad_trace_line_does_not_drop_the_replay() {
    let catalog = seeded_catalog();
    let trace = RequestTrace::parse(
        "@0.0 request oracle select a1 from R2 where a2 < 100\n\
         @0.1 frobnicate oracle nonsense\n\
         @0.2 request oracle select syntactically broken\n\
         @0.3 request teradata select a1 from R2 where a2 < 100\n\
         @0.4 request oracle select a3 from R4 where a4 > 200\n",
    );
    assert_eq!(
        trace.errors.len(),
        1,
        "only the unknown kind fails at parse"
    );
    let (out, _, report) = run_loop(&catalog, &trace, 2);
    assert_eq!(report.answered, 2, "good lines kept being served:\n{out}");
    assert_eq!(
        report.errors, 3,
        "parse error + bad SQL + unknown site, all inline:\n{out}"
    );
    assert!(out.contains("ERROR"), "{out}");
    assert!(out.contains("unknown site"), "{out}");
}

/// A long idle gap crosses a million heartbeat ticks. Nothing changes
/// between two loop points, so the loop beats once per clock advance
/// (stamped at the first tick crossed) instead of once per tick; an
/// interval below the float resolution at the arrival still terminates.
#[test]
fn heartbeats_coalesce_across_a_long_idle_gap() {
    let catalog = seeded_catalog();
    let trace = RequestTrace::parse(
        "@0 request oracle select a1 from R2 where a2 < 100\n\
         @1000000 request oracle select a1 from R2 where a2 < 100\n",
    );
    for (interval, max_beats) in [(1.0, 3), (1e-12, 4)] {
        let config = ServeConfig::builder()
            .heartbeat_s(interval)
            .build()
            .expect("sane config");
        let report = replay(&catalog, &trace, config, &mut PipelineCtx::seeded(9));
        assert_eq!(report.answered, 2, "{}", report.rendered);
        assert!(
            (1..=max_beats).contains(&report.heartbeats),
            "{} heartbeats at interval {interval}",
            report.heartbeats
        );
    }
}

/// A degrade that would push a site's cumulative I/O factor out of
/// (0, inf) is a per-line error that leaves the factor unchanged, whether
/// it comes from parsed text (overflow) or from the public event API
/// (a factor no parser would accept).
#[test]
fn out_of_range_cumulative_degrade_is_a_line_error() {
    let catalog = seeded_catalog();
    let sql = "select a1 from R2 where a2 < 100";
    let mut trace = RequestTrace::parse(&format!(
        "@0 degrade oracle 1e200\n@1 degrade oracle 1e200\n@2 request oracle {sql}\n"
    ));
    for (i, factor) in [f64::NAN, -1.0, 0.0, f64::INFINITY].into_iter().enumerate() {
        let lineno = 4 + 2 * i;
        let at_s = 3.0 + i as f64;
        trace.events.push(TracedEvent {
            at_s,
            lineno,
            event: TraceEvent::Degrade {
                site: SiteId::from("oracle"),
                factor,
            },
        });
        trace.events.push(TracedEvent {
            at_s,
            lineno: lineno + 1,
            event: TraceEvent::Request {
                site: SiteId::from("oracle"),
                sql: sql.to_string(),
            },
        });
    }
    let report = replay(
        &catalog,
        &trace,
        loop_config(1),
        &mut PipelineCtx::seeded(9),
    );
    let out = &report.rendered;
    assert_eq!(report.errors, 5, "{out}");
    assert_eq!(report.answered, 5, "oracle keeps being answered:\n{out}");
    assert!(out.contains("2 ERROR: degrade x1e200"), "{out}");
    assert!(!out.contains("cumulative xinf"), "{out}");
    assert!(!out.contains("I/O cost factor"), "{out}");
}

/// Satellite: readers estimating concurrently with maintenance publishing
/// incremental-refit snapshots never see a torn or version-regressing
/// read — the versions each reader observes are monotone.
#[test]
fn estimation_versions_are_monotone_under_incremental_refit_republish() {
    let mut agent = oracle_agent(80);
    let derived = derive_cost_model(
        &mut agent,
        QueryClass::UnaryNoIndex,
        StateAlgorithm::Iupma,
        &DerivationConfig::quick(),
        &mut PipelineCtx::seeded(81),
    )
    .expect("derivation succeeds");
    let site = SiteId::from("oracle");
    let mut maintainer = ModelMaintainer::new(
        derived,
        MaintenanceConfig::default(),
        DerivationConfig::quick(),
        StateAlgorithm::Iupma,
    );
    let registry = ModelRegistry::new();
    registry.publish(
        site.clone(),
        QueryClass::UnaryNoIndex,
        maintainer.derived.model.clone(),
    );

    // Pre-generate the refit batches serially (the agent is not shared).
    let family = VariableFamily::Unary;
    let mut generator = SampleGenerator::new(82);
    let batches: Vec<Vec<Observation>> = (0..20)
        .map(|_| {
            let mut batch = Vec::with_capacity(10);
            while batch.len() < 10 {
                let q = generator.generate(QueryClass::UnaryNoIndex, agent.catalog());
                let Some(x) = family.extract(agent.catalog(), &q) else {
                    continue;
                };
                agent.tick();
                let probe = agent.probe();
                let cost = agent.run(&q).expect("query runs").cost_s;
                batch.push(Observation {
                    x,
                    cost,
                    probe_cost: probe,
                });
            }
            batch
        })
        .collect();
    let schema = agent.catalog().clone();
    let query = SampleGenerator::new(83).generate(QueryClass::UnaryNoIndex, &schema);

    #[allow(clippy::disallowed_methods)]
    // lint:allow(no-raw-threads): reader/republish race stress test needs raw racing threads; nothing output-relevant is computed
    std::thread::scope(|scope| {
        let registry = &registry;
        let (site, schema, query) = (&site, &schema, &query);
        scope.spawn(move || {
            let mut ctx = PipelineCtx::seeded(84);
            for batch in &batches {
                maintainer
                    .refit_incremental(site, batch, Some(registry), &mut ctx)
                    .expect("incremental refit publishes");
            }
        });
        for _ in 0..3 {
            scope.spawn(move || {
                let mut last_version = 0u64;
                for _ in 0..400 {
                    let detail = registry
                        .estimate(&mdbs_core::correction::EstimateQuery::raw(
                            site, schema, query, 1.0,
                        ))
                        .expect("model never absent while republishing");
                    let (estimate, version) = (detail.estimate, detail.version);
                    assert!(estimate.is_finite(), "torn read produced {estimate}");
                    assert!(
                        version >= last_version,
                        "snapshot version regressed: {version} < {last_version}"
                    );
                    last_version = version;
                }
            });
        }
    });
    // Every refit published exactly one new snapshot on top of the seed.
    assert_eq!(registry.version(), 21);
    assert_eq!(registry.len(), 1);
}
