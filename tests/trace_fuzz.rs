//! Seeded fuzz sweep of the serve-loop trace path
//! (`RequestTrace::parse` + `EstimationServer::run`).
//!
//! Every case is a fixed-seed, in-tree mutation of one of the committed
//! traces (`examples/serve_loop.trace`, `examples/serve_drift.trace`):
//! cuts at every prefix, byte flips passed through `from_utf8_lossy`, and
//! grammar-aware swaps of event kinds, sites, timestamps (tied, huge,
//! backwards, non-finite), degrade factors near 0 and near overflow, and
//! empty or garbage SQL. The contract: no case panics, and in every
//! replay each request line ends in exactly one outcome — answered,
//! no-model, shed or an `ERROR` row.

use std::panic::{catch_unwind, AssertUnwindSafe};

use mdbs_core::catalog::{GlobalCatalog, SiteId};
use mdbs_core::classes::QueryClass;
use mdbs_core::derive::{derive_cost_model, DerivationConfig};
use mdbs_core::maintenance::MaintenanceConfig;
use mdbs_core::model::ModelAccumulator;
use mdbs_core::pipeline::PipelineCtx;
use mdbs_core::registry::ModelRegistry;
use mdbs_core::server::{
    fleet_from_catalog, EstimationServer, RequestTrace, ServeConfig, ServeReport, TraceEvent,
};
use mdbs_core::states::StateAlgorithm;
use mdbs_sim::datagen::standard_database;
use mdbs_sim::{ContentionProfile, LoadBuilder, MdbsAgent, VendorProfile};
use mdbs_stats::rng::Rng;

const BASES: [(&str, &str); 2] = [
    ("serve_loop", include_str!("../examples/serve_loop.trace")),
    ("serve_drift", include_str!("../examples/serve_drift.trace")),
];

const KINDS: &[&str] = &["request", "observe", "degrade", "frobnicate", "REQUEST", ""];
const SITES: &[&str] = &["oracle", "db2", "teradata", "ORACLE", ""];
const HUGE_TIMES: &[&str] = &[
    "1e15",
    "1e300",
    "1.7976931348623157e308",
    "1e309",
    "inf",
    "nan",
    "-1",
    "-0",
    "0x10",
    "",
];
const FACTORS: &[&str] = &[
    "1e-300",
    "5e-324",
    "1e-200",
    "0",
    "-0",
    "1e200",
    "1e300",
    "1.7976931348623157e308",
    "1e999",
    "nan",
    "inf",
    "-4",
    "four",
    "",
];
const SQLS: &[&str] = &[
    "",
    "select",
    "select from",
    "!!!",
    "select a1 from R99 where a2 < 100",
    "select a1 from R2 where a2 < 1e999",
    "select a1 from R2 where a2 <",
    "select a1 from R2 where a2 < 100 and",
    "select a1, a1, a1 from R2 where a2 < -5",
    "select a1 from R1, R2 where R1.a1 = R2.a1",
    "select a9 from R12 where a9 > 1000000000",
    "sélect ä1 fröm R2",
    "select a1 from R2 where a2 < 100 order by a1",
];

fn agent(vendor: VendorProfile, env_seed: u64) -> MdbsAgent {
    let mut agent = MdbsAgent::new(vendor, standard_database(42), env_seed);
    agent.set_load_builder(LoadBuilder::new(ContentionProfile::Uniform {
        lo: 20.0,
        hi: 125.0,
    }));
    agent
}

/// One maintained model (oracle / G1) with its fit accumulator. `db2`
/// agents exist but have no model, so mutated sites reach the no-model
/// path as well as the unknown-site error.
fn seeded_catalog() -> GlobalCatalog {
    let mut oracle = agent(VendorProfile::oracle8(), 40);
    let derived = derive_cost_model(
        &mut oracle,
        QueryClass::UnaryNoIndex,
        StateAlgorithm::Iupma,
        &DerivationConfig::quick(),
        &mut PipelineCtx::seeded(41),
    )
    .expect("seed derivation succeeds");
    let mut catalog = GlobalCatalog::new();
    let site = SiteId::from("oracle");
    catalog.insert_accumulator(
        site.clone(),
        QueryClass::UnaryNoIndex,
        ModelAccumulator::from_observations(&derived.model, &derived.observations),
    );
    catalog.insert_model(site, QueryClass::UnaryNoIndex, derived.model);
    catalog
}

fn make_agent(site: &SiteId, seed: u64) -> Option<MdbsAgent> {
    match site.0.as_str() {
        "oracle" => Some(agent(VendorProfile::oracle8(), seed)),
        "db2" => Some(agent(VendorProfile::db2v5(), seed)),
        _ => None,
    }
}

fn pick(rng: &mut Rng, options: &[&'static str]) -> &'static str {
    rng.choose(options).copied().unwrap_or("")
}

/// Mutates one event line of `lines` in a grammar-aware way.
fn mutate_line(rng: &mut Rng, lines: &mut Vec<String>) {
    let events: Vec<usize> = (0..lines.len())
        .filter(|&i| lines[i].starts_with('@'))
        .collect();
    let Some(&i) = rng.choose(&events) else {
        return;
    };
    let words: Vec<String> = lines[i].split_whitespace().map(str::to_string).collect();
    if words.len() < 3 {
        lines.remove(i);
        return;
    }
    let (time, kind, site) = (&words[0][1..], &words[1], &words[2]);
    let tail = words[3..].join(" ");
    lines[i] = match rng.gen_range(0..9u32) {
        0 => format!("@{time} {} {site} {tail}", pick(rng, KINDS)),
        1 => format!("@{time} {kind} {} {tail}", pick(rng, SITES)),
        2 => {
            // Tie with the previous event's timestamp.
            let prev = events
                .iter()
                .rev()
                .find(|&&j| j < i)
                .map(|&j| lines[j].split_whitespace().next().unwrap_or("@0")[1..].to_string())
                .unwrap_or_else(|| "0".to_string());
            format!("@{prev} {kind} {site} {tail}")
        }
        3 => format!("@{} {kind} {site} {tail}", pick(rng, HUGE_TIMES)),
        4 => format!("@{time} degrade {site} {}", pick(rng, FACTORS)),
        5 => format!("@{time} {kind} {site} {}", pick(rng, SQLS)),
        6 => {
            let copy = lines[i].clone();
            lines.insert(i, copy);
            return;
        }
        7 => {
            lines.remove(i);
            return;
        }
        _ => {
            let j = rng.gen_range(0..lines.len());
            lines.swap(i, j);
            return;
        }
    };
}

fn grammar_mutant(rng: &mut Rng, base: &str) -> String {
    let mut lines: Vec<String> = base.lines().map(str::to_string).collect();
    for _ in 0..rng.gen_range(1..4usize) {
        mutate_line(rng, &mut lines);
    }
    lines.join("\n")
}

fn byte_flip_mutant(rng: &mut Rng, base: &str) -> String {
    let mut bytes = base.as_bytes().to_vec();
    for _ in 0..rng.gen_range(1..5usize) {
        let i = rng.gen_range(0..bytes.len());
        bytes[i] ^= rng.gen_range(1..256u32) as u8;
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Parses `text`, failing with the case label on a panic, and checks that
/// every non-blank, non-comment line became exactly one event or error.
fn parse_case(label: &str, text: &str) -> RequestTrace {
    let trace = catch_unwind(|| RequestTrace::parse(text))
        .unwrap_or_else(|_| panic!("{label}: RequestTrace::parse panicked on:\n{text}"));
    let significant = text
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.trim().starts_with('#'))
        .count();
    assert_eq!(
        trace.events.len() + trace.errors.len(),
        significant,
        "{label}: a line was dropped:\n{text}"
    );
    trace
}

fn replay(catalog: &GlobalCatalog, trace: &RequestTrace, case: usize) -> ServeReport {
    // Most replays keep the drift monitor quiet (a debug-build
    // rederivation takes about a second); every 75th lets it trip.
    let min_good = if case % 75 == 74 { 0.65 } else { 0.0 };
    let maintenance = MaintenanceConfig::builder()
        .window(20)
        .min_observations(8)
        .min_good_fraction(min_good)
        .build()
        .expect("sane maintenance config");
    let fleet = fleet_from_catalog(
        catalog,
        maintenance,
        DerivationConfig::quick(),
        StateAlgorithm::Iupma,
        |site| site.0 == "oracle",
    )
    .expect("fleet builds");
    let config = ServeConfig::builder()
        .queue_capacity(4)
        .batch_max(2)
        .batch_delay_s(0.05)
        .service_cost_s(0.2)
        .deadline_s(0.5)
        .refit_threshold(20)
        .workers(Some(1))
        .heartbeat_s(5.0)
        .flight_capacity(trace.len())
        .correction(case % 2 == 1)
        .build()
        .expect("sane serve config");
    let mut server = EstimationServer::new(ModelRegistry::from_catalog(catalog), fleet, config);
    server.run(trace, make_agent, &mut PipelineCtx::seeded(7))
}

/// Each request line has exactly one row, and it is one of the four
/// outcomes; the per-outcome row counts match the report's counters.
fn assert_every_request_settles(label: &str, trace: &RequestTrace, report: &ServeReport) {
    let rows: Vec<&str> = report.rendered.lines().collect();
    let (mut answered, mut no_model, mut shed) = (0, 0, 0);
    for ev in &trace.events {
        if !matches!(ev.event, TraceEvent::Request { .. }) {
            continue;
        }
        let prefix = format!("  {:>3} ", ev.lineno);
        let mine: Vec<&str> = rows
            .iter()
            .filter_map(|r| r.strip_prefix(prefix.as_str()))
            .collect();
        assert_eq!(
            mine.len(),
            1,
            "{label}: line {} has {} rows:\n{}",
            ev.lineno,
            mine.len(),
            report.rendered
        );
        let row = mine[0];
        if row.contains(" SHED (") {
            shed += 1;
        } else if row.contains(" -> estimate ") {
            answered += 1;
        } else if row.ends_with(": no model in registry") {
            no_model += 1;
        } else {
            assert!(
                row.starts_with("ERROR: "),
                "{label}: line {} has no outcome: {row}",
                ev.lineno
            );
        }
    }
    assert_eq!(answered, report.answered, "{label}\n{}", report.rendered);
    assert_eq!(
        shed,
        report.shed_queue_full + report.shed_deadline,
        "{label}\n{}",
        report.rendered
    );
    assert!(no_model <= report.no_model, "{label}\n{}", report.rendered);
}

#[test]
fn mutated_traces_never_panic_and_every_request_settles() {
    let catalog = seeded_catalog();
    let mut rng = Rng::seed_from_u64(0x7472_6163_655f_667a);
    let (mut parsed, mut replays, mut rederived) = (0usize, 0usize, 0usize);
    // Parses every case; replays one case in `every` end to end.
    let mut check = |label: String, text: &str, every: usize| {
        let trace = parse_case(&label, text);
        parsed += 1;
        if parsed % every == 0 {
            let report = catch_unwind(AssertUnwindSafe(|| replay(&catalog, &trace, replays)))
                .unwrap_or_else(|_| panic!("{label}: replay panicked on:\n{text}"));
            assert_every_request_settles(&label, &trace, &report);
            rederived += report.rederivations;
            replays += 1;
        }
    };
    for (name, base) in BASES {
        // Cut at every prefix (char boundaries; the traces are ASCII).
        for cut in (0..=base.len()).filter(|&i| base.is_char_boundary(i)) {
            check(format!("{name} cut {cut}"), &base[..cut], 200);
        }
        for i in 0..1500 {
            let text = byte_flip_mutant(&mut rng, base);
            check(format!("{name} flip {i}"), &text, 50);
        }
        for i in 0..1500 {
            let text = grammar_mutant(&mut rng, base);
            check(format!("{name} grammar {i}"), &text, 25);
        }
    }
    assert!(parsed >= 10_000, "only {parsed} parse cases");
    assert!(replays >= 200, "only {replays} replays");
    assert!(rederived > 0, "no replay reached a rederivation");
}
