//! SQL-to-execution integration: the textual surface drives the whole
//! stack — parse, classify, estimate through a derived model, execute,
//! compare — across both simulated vendors.

use mdbs_core::catalog::{GlobalCatalog, SiteId};
use mdbs_core::classes::{classify, QueryClass};
use mdbs_core::derive::{derive_cost_model, DerivationConfig};
use mdbs_core::pipeline::PipelineCtx;
use mdbs_core::states::StateAlgorithm;
use mdbs_sim::datagen::standard_database;
use mdbs_sim::sql::{parse_query, to_sql};
use mdbs_sim::{ContentionProfile, LoadBuilder, MdbsAgent, VendorProfile};

fn dynamic_agent(vendor: VendorProfile, db_seed: u64) -> MdbsAgent {
    let mut agent = MdbsAgent::new(vendor, standard_database(db_seed), 77);
    agent.set_load_builder(LoadBuilder::new(ContentionProfile::Uniform {
        lo: 20.0,
        hi: 125.0,
    }));
    agent
}

#[test]
fn papers_query_runs_on_both_vendors() {
    let sql = "select a1, a5, a7 from R7 where a3 > 300 and a8 < 2000";
    for (vendor, db_seed) in [(VendorProfile::oracle8(), 42), (VendorProfile::db2v5(), 43)] {
        let mut agent = dynamic_agent(vendor, db_seed);
        let query = parse_query(agent.catalog(), sql).expect("paper query parses");
        agent.tick();
        let exec = agent.run(&query).expect("paper query executes");
        assert!(exec.cost_s > 0.0);
    }
}

#[test]
fn sql_estimate_then_execute_roundtrip() {
    let mut agent = dynamic_agent(VendorProfile::oracle8(), 42);
    let derived = derive_cost_model(
        &mut agent,
        QueryClass::UnaryNoIndex,
        StateAlgorithm::Iupma,
        &DerivationConfig {
            sample_size: Some(260),
            fit_probe_estimator: false,
            ..DerivationConfig::default()
        },
        &mut PipelineCtx::seeded(5),
    )
    .expect("derivation succeeds");
    let mut catalog = GlobalCatalog::new();
    let site: SiteId = "s".into();
    catalog.insert_model(site.clone(), QueryClass::UnaryNoIndex, derived.model);
    let registry = mdbs_core::ModelRegistry::from_snapshot(
        &mdbs_core::store::CatalogSnapshot::at_version(catalog, 0),
    );

    // A batch of hand-written SQL queries of the derived class.
    let sqls = [
        "select a1, a5 from R8 where a5 > 100 and a6 < 400",
        "select * from R4 where a2 between 50 and 800",
        "select a2, a4, a9 from R10 where a6 >= 10 and a9 <= 900",
        "select a1 from R6 where a5 < 60 order by a2",
    ];
    let schema = agent.catalog().clone();
    let mut good = 0;
    for sql in sqls {
        let query = parse_query(&schema, sql).unwrap_or_else(|e| panic!("`{sql}`: {e}"));
        assert_eq!(
            classify(&schema, &query),
            Some(QueryClass::UnaryNoIndex),
            "`{sql}` classified off-class"
        );
        agent.tick();
        let probe = agent.probe();
        let est = registry
            .estimate(&mdbs_core::correction::EstimateQuery::raw(
                &site, &schema, &query, probe,
            ))
            .expect("model stored for the class")
            .estimate;
        let obs = agent.run(&query).expect("query executes").cost_s;
        let ratio = (est / obs).max(obs / est.max(1e-9));
        if est > 0.0 && ratio <= 2.0 {
            good += 1;
        }
    }
    assert!(good >= 3, "only {good}/4 SQL estimates were good");
}

#[test]
fn roundtrip_preserves_execution_semantics() {
    // parse(to_sql(q)) must not just equal q structurally — it must cost
    // the same when executed (same access path, same sizes).
    let mut agent = MdbsAgent::new(VendorProfile::db2v5(), standard_database(43), 3);
    let schema = agent.catalog().clone();
    let sql = "select a1, a4 from R5 where a2 < 500 and a7 > 40 order by a4";
    let q1 = parse_query(&schema, sql).expect("parses");
    let q2 = parse_query(&schema, &to_sql(&schema, &q1)).expect("re-parses");
    assert_eq!(q1, q2);
    let e1 = agent.run(&q1).expect("runs");
    let e2 = agent.run(&q2).expect("runs");
    assert_eq!(e1.access, e2.access);
    assert_eq!(e1.sizes, e2.sizes);
}

#[test]
fn join_sql_executes_and_classifies() {
    let mut agent = dynamic_agent(VendorProfile::oracle8(), 42);
    let schema = agent.catalog().clone();
    let sql = "select R2.a1, R4.a2 from R2 join R4 on R2.a5 = R4.a5 \
               where R2.a2 < 500 and R4.a6 > 100";
    let query = parse_query(&schema, sql).expect("join parses");
    assert_eq!(classify(&schema, &query), Some(QueryClass::JoinNoIndex));
    agent.tick();
    let exec = agent.run(&query).expect("join executes");
    assert!(exec.cost_s > 0.0);
}

#[test]
fn generated_queries_roundtrip_through_sql() {
    // A seeded sweep over both sites' schemas and every query class: the
    // rendered SQL of each sampled query parses back to the same query.
    use mdbs_core::sampling::SampleGenerator;
    let mut checked = 0;
    for db_seed in [42, 43] {
        let schema = standard_database(db_seed);
        let mut generator = SampleGenerator::new(0x5A1 ^ db_seed);
        for class in QueryClass::all() {
            for query in generator.generate_many(class, &schema, 220) {
                let sql = to_sql(&schema, &query);
                let parsed = parse_query(&schema, &sql)
                    .unwrap_or_else(|e| panic!("`{sql}` failed to re-parse: {e}"));
                assert_eq!(parsed, query, "sql was `{sql}`");
                checked += 1;
            }
        }
    }
    assert!(checked >= 2_000, "only {checked} queries swept");
}
