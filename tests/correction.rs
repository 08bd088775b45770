//! The feedback-driven correction layer end to end (`mdbs_core::correction`
//! + `mdbs_core::server`).
//!
//! The contract under test: with correction enabled the serving loop stays
//! a pure function of `(trace, seed, config)` — report, flight dump and
//! stripped telemetry byte-identical at any worker count — the escalation
//! ladder fires in order (correct → incremental refit → suspend →
//! rederive) on a drifting site, and the corrected run's pooled estimate
//! error beats the uncorrected run on the same trace.

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

/// Healthy warmup traffic, then a durable `factor`x I/O degradation, then
/// enough observes for the correction layer to react, with interleaved
/// requests exercising corrected answers throughout. At 12x the trace
/// walks the whole escalation ladder: cells saturate (→ escalated refit),
/// saturate again (→ suspension), and the raw estimates finally trip the
/// drift monitor (→ rederivation). At a mild 1.7x the bias sits in the
/// drift monitor's blind spot (within the 2x good threshold) and below the
/// saturation rung — the regime the correction layer exists for.
fn drift_trace(factor: f64) -> String {
    let mut t = String::from("# correction drift trace\n");
    let mut at = 0.0;
    for i in 0..20 {
        t.push_str(&format!(
            "@{at:.1} observe oracle {}\n",
            G1_SQLS[i % G1_SQLS.len()]
        ));
        at += 1.0;
        if i % 4 == 3 {
            t.push_str(&format!(
                "@{at:.1} request oracle {}\n",
                G1_SQLS[(i + 2) % G1_SQLS.len()]
            ));
            at += 1.0;
        }
    }
    t.push_str(&format!("@{at:.1} degrade oracle {factor:.1}\n"));
    at += 1.0;
    for i in 0..48 {
        t.push_str(&format!(
            "@{at:.1} observe oracle {}\n",
            G1_SQLS[i % G1_SQLS.len()]
        ));
        at += 1.0;
        if i % 4 == 1 {
            t.push_str(&format!(
                "@{at:.1} request oracle {}\n",
                G1_SQLS[(i + 3) % G1_SQLS.len()]
            ));
            at += 1.0;
        }
    }
    t.push_str(&format!("@{:.1} request oracle {}\n", at + 2.0, G1_SQLS[0]));
    t
}

fn correction_config(workers: usize, correction: bool) -> ServeConfig {
    ServeConfig::builder()
        .queue_capacity(8)
        .batch_max(4)
        .batch_delay_s(0.05)
        .service_cost_s(0.05)
        .deadline_s(1.0)
        // Volume-triggered refits off: only the escalation ladder refits.
        .refit_threshold(usize::MAX)
        .workers(Some(workers))
        .heartbeat_s(20.0)
        .flight_capacity(512)
        .correction(correction)
        .build()
        .expect("sane config")
}

fn maintenance_config() -> MaintenanceConfig {
    MaintenanceConfig::builder()
        .window(20)
        .min_observations(10)
        .min_good_fraction(0.5)
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
    correction: bool,
) -> LoopRun {
    let registry = ModelRegistry::from_snapshot(catalog);
    let fleet = fleet_from_snapshot(
        catalog,
        maintenance_config(),
        DerivationConfig::quick(),
        StateAlgorithm::Iupma,
        |site| site.0 == "oracle",
    )
    .expect("fleet builds from the catalog");
    let mut server = EstimationServer::new(registry, fleet, correction_config(workers, correction));
    let mut ctx = PipelineCtx::traced(9);
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

/// `(kind, level)` for every flight event record, in recording order.
fn event_seq(flight_jsonl: &str) -> Vec<(String, String)> {
    let mut seq = Vec::new();
    for line in flight_jsonl.lines() {
        let record = mdbs_obs::json::parse(line)
            .unwrap_or_else(|e| panic!("unparseable flight record `{line}`: {e:?}"));
        let Some(kind) = record.get("kind").and_then(Json::as_str) else {
            continue;
        };
        let level = record
            .get("level")
            .and_then(Json::as_str)
            .unwrap_or_default();
        seq.push((kind.to_string(), level.to_string()));
    }
    seq
}

#[test]
fn corrected_loop_is_byte_identical_across_worker_counts() {
    let catalog = seeded_catalog();
    let trace = RequestTrace::parse(&drift_trace(12.0));
    assert!(trace.errors.is_empty(), "{:?}", trace.errors);

    let serial = run_loop(&catalog, &trace, 1, true);
    assert!(
        serial.report.corrections_applied > 0,
        "correction never fired:\n{}",
        serial.rendered
    );
    for workers in [2, 8] {
        let run = run_loop(&catalog, &trace, workers, true);
        assert_eq!(serial.rendered, run.rendered, "report ({workers} workers)");
        assert_eq!(
            serial.telemetry, run.telemetry,
            "stripped telemetry ({workers} workers)"
        );
        assert_eq!(serial.flight, run.flight, "flight dump ({workers} workers)");
    }
}

#[test]
fn escalation_ladder_fires_in_order_on_a_drifting_site() {
    let catalog = seeded_catalog();
    let trace = RequestTrace::parse(&drift_trace(12.0));
    let run = run_loop(&catalog, &trace, 2, true);

    let seq = event_seq(&run.flight);
    let pos = |kind: &str, level: &str| {
        seq.iter()
            .position(|(k, l)| k == kind && (level.is_empty() || l == level))
    };
    let refit_escalation = pos("escalate", "refit").unwrap_or_else(|| {
        panic!(
            "no refit escalation in flight events: {seq:?}\n{}",
            run.rendered
        )
    });
    let suspend_escalation = pos("escalate", "suspend").unwrap_or_else(|| {
        panic!(
            "no suspend escalation in flight events: {seq:?}\n{}",
            run.rendered
        )
    });
    let rederive = pos("rederive", "").unwrap_or_else(|| {
        panic!(
            "no rederivation in flight events: {seq:?}\n{}",
            run.rendered
        )
    });
    assert!(
        refit_escalation < suspend_escalation,
        "refit escalation must precede suspension: {seq:?}"
    );
    assert!(
        suspend_escalation < rederive,
        "suspension must precede rederivation: {seq:?}"
    );
    assert!(
        run.report.correction_escalations >= 2,
        "both ladder rungs counted:\n{}",
        run.rendered
    );
    assert!(
        run.report.rederivations >= 1,
        "drift monitor tripped after suspension:\n{}",
        run.rendered
    );
    assert!(run.report.corrections_applied > 0, "{}", run.rendered);
}

#[test]
fn correction_beats_uncorrected_serving_on_a_drifting_site() {
    // A mild durable degradation: too small for the 2x drift monitor or
    // the saturation rung, so neither run rebuilds — the uncorrected run
    // simply keeps serving ~40% biased estimates while the corrected run
    // divides the bias out.
    let catalog = seeded_catalog();
    let trace = RequestTrace::parse(&drift_trace(1.7));
    let on = run_loop(&catalog, &trace, 2, true);
    let off = run_loop(&catalog, &trace, 2, false);

    assert!(off.report.corrections_applied == 0);
    // The ledger folds and applies between batches, never on the virtual
    // clock: correction leaves answers and virtual latencies unchanged.
    assert_eq!(on.report.answered, off.report.answered);
    for (a, b) in [
        (on.report.virtual_makespan_s, off.report.virtual_makespan_s),
        (on.report.latency_p50_s, off.report.latency_p50_s),
        (on.report.latency_p95_s, off.report.latency_p95_s),
    ] {
        assert_eq!(a.to_bits(), b.to_bits(), "correction moved the clock");
    }
    assert!(
        on.report.ledger_p50_abs_rel_err < off.report.ledger_p50_abs_rel_err,
        "correction must lower pooled p50 |rel err|: on {} vs off {}\non:\n{}\noff:\n{}",
        on.report.ledger_p50_abs_rel_err,
        off.report.ledger_p50_abs_rel_err,
        on.rendered,
        off.rendered
    );
}

#[test]
fn correction_off_matches_legacy_rendering() {
    // With correction disabled every answered line keeps the legacy
    // `[vN SL]` provenance annotation — no `±` confidence suffix — and no
    // correction summary line is rendered.
    let catalog = seeded_catalog();
    let trace = RequestTrace::parse(&drift_trace(12.0));
    let off = run_loop(&catalog, &trace, 2, false);
    assert!(!off.rendered.contains('±'), "{}", off.rendered);
    assert!(!off.rendered.contains("correction:"), "{}", off.rendered);
    // And with it enabled, at least one answered line carries the
    // confidence annotation.
    let on = run_loop(&catalog, &trace, 2, true);
    assert!(on.rendered.contains('±'), "{}", on.rendered);
    assert!(on.rendered.contains("correction:"), "{}", on.rendered);
}
