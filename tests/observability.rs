//! The serving-loop flight recorder, accuracy ledger and heartbeats
//! (`mdbs_core::server` + `mdbs_obs::recorder`).
//!
//! The contract under test: with observability enabled the serving loop
//! stays a pure function of `(trace, seed, config)` — the flight-recorder
//! dump, the heartbeat stream and the accuracy ledger are byte-identical
//! at any worker count — and every request admitted to the loop can be
//! reconstructed from its flight record via a unique, seed-stable trace id.

use std::collections::BTreeSet;

use mdbs_core::catalog::{GlobalCatalog, SiteId};
use mdbs_core::classes::QueryClass;
use mdbs_core::derive::{derive_cost_model, DerivationConfig};
use mdbs_core::maintenance::MaintenanceConfig;
use mdbs_core::model::ModelAccumulator;
use mdbs_core::pipeline::PipelineCtx;
use mdbs_core::registry::ModelRegistry;
use mdbs_core::server::{fleet_from_snapshot, EstimationServer, RequestTrace, ServeConfig};
use mdbs_core::states::StateAlgorithm;
use mdbs_core::store::CatalogSnapshot;
use mdbs_obs::json::Json;
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

fn seeded_catalog() -> CatalogSnapshot {
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
        ModelAccumulator::from_observations(&derived.model, &derived.observations)
            .expect("finite sample"),
    );
    CatalogSnapshot::at_version(catalog, 0)
}

const G1_SQLS: &[&str] = &[
    "select a1 from R2 where a2 < 100",
    "select a1, a5 from R8 where a5 > 100 and a6 < 500",
    "select a3 from R4 where a4 > 200",
    "select a1, a3 from R6 where a6 < 900",
    "select a5 from R10 where a7 > 50",
];

/// Request burst (sheds) + interleaved request/observe traffic spanning
/// ~40s of virtual time, enough for several heartbeats and a populated
/// per-state ledger.
fn scripted_trace() -> String {
    let mut t = String::from("# observability trace\n");
    for i in 0..8 {
        t.push_str(&format!(
            "@0.0 request oracle {}\n",
            G1_SQLS[i % G1_SQLS.len()]
        ));
    }
    let mut at = 4.0;
    for i in 0..18 {
        t.push_str(&format!(
            "@{at:.1} observe oracle {}\n",
            G1_SQLS[i % G1_SQLS.len()]
        ));
        at += 1.0;
        if i % 3 == 2 {
            t.push_str(&format!(
                "@{at:.1} request oracle {}\n",
                G1_SQLS[(i + 1) % G1_SQLS.len()]
            ));
            at += 1.0;
        }
    }
    t.push_str(&format!("@{:.1} request oracle {}\n", at + 5.0, G1_SQLS[0]));
    t
}

/// `recording` switches the whole observability layer (heartbeats and
/// the flight recorder) on or off; the recorder is sized to keep every
/// one of the trace's `events` lifecycles.
fn obs_config(workers: usize, recording: bool, events: usize) -> ServeConfig {
    ServeConfig::builder()
        .queue_capacity(4)
        .batch_max(2)
        .batch_delay_s(0.05)
        .service_cost_s(0.2)
        .deadline_s(0.5)
        .refit_threshold(20)
        .workers(Some(workers))
        .heartbeat_s(if recording { 10.0 } else { 0.0 })
        .flight_capacity(if recording { events } else { 0 })
        .build()
        .expect("sane config")
}

struct LoopRun {
    rendered: String,
    telemetry: String,
    flight: String,
    report: mdbs_core::server::ServeReport,
}

fn run_loop(
    catalog: &CatalogSnapshot,
    trace: &RequestTrace,
    workers: usize,
    recording: bool,
) -> LoopRun {
    let registry = ModelRegistry::from_snapshot(catalog);
    let fleet = fleet_from_snapshot(
        catalog,
        MaintenanceConfig::default(),
        DerivationConfig::quick(),
        StateAlgorithm::Iupma,
        |site| site.0 == "oracle",
    )
    .expect("fleet builds from the catalog");
    let mut server =
        EstimationServer::new(registry, fleet, obs_config(workers, recording, trace.len()));
    let mut ctx = if recording {
        PipelineCtx::traced(9)
    } else {
        PipelineCtx::seeded(9)
    };
    let report = server.run(
        trace,
        |site: &SiteId, seed: u64| (site.0 == "oracle").then(|| oracle_agent(seed)),
        &mut ctx,
    );
    LoopRun {
        rendered: report.rendered.clone(),
        telemetry: mdbs_obs::telemetry::strip_wall_clock(&ctx.telemetry.render_jsonl()),
        flight: server.recorder().dump_jsonl(),
        report,
    }
}

/// Every flight record parses through the workspace's own JSON reader and
/// carries the type tag; request records carry a trace id.
fn trace_ids(flight_jsonl: &str) -> Vec<String> {
    let mut ids = Vec::new();
    for line in flight_jsonl.lines() {
        let record = mdbs_obs::json::parse(line)
            .unwrap_or_else(|e| panic!("unparseable flight record `{line}`: {e:?}"));
        assert_eq!(
            record.get("type").and_then(Json::as_str),
            Some("flight"),
            "{line}"
        );
        if record.get("kind").and_then(Json::as_str) == Some("request") {
            let id = record
                .get("trace_id")
                .and_then(Json::as_str)
                .unwrap_or_else(|| panic!("request record without trace_id: {line}"));
            ids.push(id.to_string());
        }
    }
    ids
}

#[test]
fn flight_recorder_and_heartbeats_are_worker_independent() {
    let catalog = seeded_catalog();
    let trace = RequestTrace::parse(&scripted_trace());
    assert!(trace.errors.is_empty(), "{:?}", trace.errors);

    let serial = run_loop(&catalog, &trace, 1, true);

    // The loop heartbeat-ed at least twice over ~40s of virtual time at
    // Δt = 10s, and each beat landed in all three streams.
    assert!(
        serial.report.heartbeats >= 2,
        "expected >=2 heartbeats:\n{}",
        serial.rendered
    );
    let span_beats = serial
        .telemetry
        .lines()
        .filter(|l| l.contains("\"name\":\"serve.heartbeat\""))
        .count();
    assert_eq!(span_beats, serial.report.heartbeats, "{}", serial.telemetry);
    let flight_beats = serial
        .flight
        .lines()
        .filter(|l| l.contains("\"kind\":\"heartbeat\""))
        .count();
    assert_eq!(flight_beats, serial.report.heartbeats, "{}", serial.flight);

    // A heartbeat's `pool_jobs` counts the requests dispatched before it:
    // with every lifecycle retained, it equals the request records whose
    // `dispatched_s` is at or before the beat.
    let records: Vec<Json> = serial
        .flight
        .lines()
        .map(|l| mdbs_obs::json::parse(l).expect("flight record parses"))
        .collect();
    let kind = |r: &Json, k: &str| r.get("kind").and_then(Json::as_str) == Some(k);
    let f64_of = |r: &Json, key: &str| r.get(key).and_then(Json::as_f64);
    let dispatched: Vec<f64> = records
        .iter()
        .filter(|r| kind(r, "request"))
        .filter_map(|r| f64_of(r, "dispatched_s"))
        .collect();
    assert!(!dispatched.is_empty(), "{}", serial.flight);
    for beat in records.iter().filter(|r| kind(r, "heartbeat")) {
        let at_s = f64_of(beat, "at_s").expect("heartbeat at_s");
        let expected = dispatched.iter().filter(|&&d| d <= at_s).count();
        assert_eq!(
            beat.get("pool_jobs").and_then(Json::as_i64),
            Some(expected as i64),
            "heartbeat at {at_s}"
        );
    }

    // Trace ids: one per recorded request lifecycle, all distinct.
    let ids = trace_ids(&serial.flight);
    assert!(!ids.is_empty(), "no request lifecycles recorded");
    let unique: BTreeSet<_> = ids.iter().collect();
    assert_eq!(unique.len(), ids.len(), "duplicate trace ids: {ids:?}");

    // Byte-identical at any worker count: report, stripped telemetry and
    // the flight-recorder dump (flight records carry no wall-clock).
    for workers in [2, 8] {
        let run = run_loop(&catalog, &trace, workers, true);
        assert_eq!(serial.rendered, run.rendered, "report ({workers} workers)");
        assert_eq!(
            serial.telemetry, run.telemetry,
            "stripped telemetry ({workers} workers)"
        );
        assert_eq!(serial.flight, run.flight, "flight dump ({workers} workers)");
        assert_eq!(trace_ids(&run.flight), ids, "trace ids ({workers} workers)");
    }

    // Recording rides outside the virtual clock: with the whole layer off
    // nothing is dumped, and answers and virtual latencies are unchanged.
    let quiet = run_loop(&catalog, &trace, 1, false);
    assert!(quiet.flight.is_empty(), "{}", quiet.flight);
    assert_eq!(quiet.report.heartbeats, 0);
    assert_eq!(quiet.report.answered, serial.report.answered);
    for (off, on) in [
        (
            quiet.report.virtual_makespan_s,
            serial.report.virtual_makespan_s,
        ),
        (quiet.report.latency_p50_s, serial.report.latency_p50_s),
        (quiet.report.latency_p95_s, serial.report.latency_p95_s),
    ] {
        assert_eq!(off.to_bits(), on.to_bits(), "recording moved the clock");
    }
}

#[test]
fn ledger_reaches_report_rendering_and_json() {
    let catalog = seeded_catalog();
    let trace = RequestTrace::parse(&scripted_trace());
    let run = run_loop(&catalog, &trace, 2, true);

    // Every observation of a query the registry could price feeds the
    // ledger, keyed by the state detected at estimation time.
    assert!(!run.report.ledger.is_empty(), "{}", run.rendered);
    let total: u64 = run.report.ledger.iter().map(|row| row.count).sum();
    assert_eq!(
        total as usize, run.report.observations,
        "every priced observation lands in exactly one ledger cell"
    );
    for row in &run.report.ledger {
        assert_eq!(row.site, "oracle");
        assert!(row.state.starts_with('S'), "paper label: {}", row.state);
        assert!(row.p95_abs_rel >= row.p50_abs_rel);
        assert!(['+', '-', '='].contains(&row.bias));
    }
    assert!(run.rendered.contains("accuracy ledger"), "{}", run.rendered);

    // Machine-readable report: renders, re-parses, and carries the same
    // ledger cells the human report shows.
    let json = run.report.to_json().render();
    let parsed = mdbs_obs::json::parse(&json).expect("report json round-trips");
    let Some(Json::Arr(rows)) = parsed.get("ledger") else {
        panic!("report json misses the ledger: {json}");
    };
    assert_eq!(rows.len(), run.report.ledger.len());
    assert_eq!(
        parsed.get("heartbeats").and_then(Json::as_i64),
        Some(run.report.heartbeats as i64)
    );
    assert_eq!(
        parsed.get("shed_fraction").and_then(Json::as_f64),
        Some(run.report.shed_fraction())
    );

    // The rendered shed line reports the percentage, not just raw counts.
    assert!(run.rendered.contains("% of requests"), "{}", run.rendered);
}

/// Ledger arithmetic end-to-end on a minimal trace: three observations of
/// the same query class must fold into ledger cells whose counts sum to 3
/// and whose mean signed error matches the per-cell residuals re-derived
/// from the flight of the report itself.
#[test]
fn ledger_counts_match_a_three_observation_trace() {
    let catalog = seeded_catalog();
    let trace = RequestTrace::parse(
        "@0.0 observe oracle select a1 from R2 where a2 < 100\n\
         @1.0 observe oracle select a3 from R4 where a4 > 200\n\
         @2.0 observe oracle select a5 from R10 where a7 > 50\n",
    );
    assert!(trace.errors.is_empty(), "{:?}", trace.errors);
    let run = run_loop(&catalog, &trace, 1, true);
    assert_eq!(run.report.observations, 3);
    let total: u64 = run.report.ledger.iter().map(|row| row.count).sum();
    assert_eq!(total, 3, "{}", run.rendered);
    for row in &run.report.ledger {
        assert!(row.mean_abs_rel >= 0.0);
        assert!(row.mean_rel.abs() <= row.mean_abs_rel + 1e-12);
    }
}
