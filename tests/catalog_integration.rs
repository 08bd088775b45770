//! The MDBS global catalog with genuinely derived models, priced through
//! the model registry: classification → model lookup → variable
//! extraction → state-aware estimation, end to end.

use mdbs_core::catalog::{GlobalCatalog, SiteId};
use mdbs_core::classes::{classify, QueryClass};
use mdbs_core::correction::EstimateQuery;
use mdbs_core::derive::{derive_cost_model, DerivationConfig};
use mdbs_core::pipeline::PipelineCtx;
use mdbs_core::probing::ProbeCostEstimator;
use mdbs_core::registry::ModelRegistry;
use mdbs_core::sampling::SampleGenerator;
use mdbs_core::states::StateAlgorithm;
use mdbs_core::store::CatalogSnapshot;
use mdbs_sim::contention::Load;
use mdbs_sim::datagen::standard_database;
use mdbs_sim::{ContentionProfile, LoadBuilder, MdbsAgent, VendorProfile};

fn populated_catalog() -> (GlobalCatalog, MdbsAgent, SiteId) {
    let site: SiteId = "s1".into();
    let mut agent = MdbsAgent::new(VendorProfile::oracle8(), standard_database(42), 50);
    agent.set_load_builder(LoadBuilder::new(ContentionProfile::Uniform {
        lo: 20.0,
        hi: 125.0,
    }));
    let mut catalog = GlobalCatalog::new();
    let cfg = DerivationConfig {
        sample_size: Some(220),
        fit_probe_estimator: true,
        ..DerivationConfig::default()
    };
    for class in [QueryClass::UnaryNoIndex, QueryClass::UnaryNonClusteredIndex] {
        let derived = derive_cost_model(
            &mut agent,
            class,
            StateAlgorithm::Iupma,
            &cfg,
            &mut PipelineCtx::seeded(51),
        )
        .expect("derivation succeeds");
        if let Some(est) = derived.probe_estimator() {
            catalog.insert_probe_estimator(site.clone(), est.expect("estimator fits"));
        }
        catalog.insert_model(site.clone(), class, derived.model);
    }
    (catalog, agent, site)
}

/// The catalog as the serving path loads it: an unversioned snapshot.
fn registry_of(catalog: &GlobalCatalog) -> ModelRegistry {
    ModelRegistry::from_snapshot(&CatalogSnapshot::at_version(catalog.clone(), 0))
}

#[test]
fn catalog_estimates_match_observations_reasonably() {
    let (catalog, mut agent, site) = populated_catalog();
    assert_eq!(catalog.len(), 2);
    assert_eq!(catalog.classes_for(&site).len(), 2);

    let registry = registry_of(&catalog);
    let schema = agent.catalog().clone();
    let mut generator = SampleGenerator::new(77);
    let mut good = 0;
    let trials = 30;
    for _ in 0..trials {
        let query = generator.generate(QueryClass::UnaryNoIndex, &schema);
        agent.tick();
        let probe = agent.probe();
        let est = registry
            .estimate(&EstimateQuery::raw(&site, &schema, &query, probe))
            .expect("model available for the class")
            .estimate;
        let obs = agent.run(&query).expect("query runs").cost_s;
        let ratio = (est / obs).max(obs / est.max(1e-9));
        if est > 0.0 && ratio <= 2.0 {
            good += 1;
        }
    }
    assert!(
        good * 100 >= trials * 50,
        "catalog estimates good for only {good}/{trials} queries"
    );
}

#[test]
fn catalog_dispatches_by_class() {
    let (catalog, agent, site) = populated_catalog();
    let registry = registry_of(&catalog);
    let schema = agent.catalog().clone();
    let mut generator = SampleGenerator::new(78);
    // Queries of both stored classes estimate; join queries (no model) do not.
    let unary = generator.generate(QueryClass::UnaryNoIndex, &schema);
    let indexed = generator.generate(QueryClass::UnaryNonClusteredIndex, &schema);
    let join = generator.generate(QueryClass::JoinNoIndex, &schema);
    assert!(registry
        .estimate(&EstimateQuery::raw(&site, &schema, &unary, 1.0))
        .is_some());
    assert!(registry
        .estimate(&EstimateQuery::raw(&site, &schema, &indexed, 1.0))
        .is_some());
    assert!(registry
        .estimate(&EstimateQuery::raw(&site, &schema, &join, 1.0))
        .is_none());
    // And the classification the catalog relied on is consistent.
    assert_eq!(classify(&schema, &unary), Some(QueryClass::UnaryNoIndex));
    assert_eq!(classify(&schema, &join), Some(QueryClass::JoinNoIndex));
}

#[test]
fn catalog_survives_export_import_with_identical_estimates() {
    let (catalog, mut agent, site) = populated_catalog();
    let text = catalog.export();
    let restored = GlobalCatalog::import(&text).expect("import succeeds");
    assert_eq!(restored.len(), catalog.len());
    assert!(restored.probe_estimator(&site).is_some());

    // Every estimate must be bit-identical after the round trip.
    let before = registry_of(&catalog);
    let after = registry_of(&restored);
    let schema = agent.catalog().clone();
    let mut generator = SampleGenerator::new(81);
    for _ in 0..20 {
        let q = generator.generate(QueryClass::UnaryNoIndex, &schema);
        agent.tick();
        let probe = agent.probe();
        let query = EstimateQuery::raw(&site, &schema, &q, probe);
        assert_eq!(before.estimate(&query), after.estimate(&query));
    }
    // And a second export is byte-identical (canonical form).
    assert_eq!(restored.export(), text);
}

#[test]
fn estimated_probe_costs_can_replace_observed_ones() {
    let (catalog, mut agent, site) = populated_catalog();
    let est: &ProbeCostEstimator = catalog
        .probe_estimator(&site)
        .expect("estimator stored during derivation");
    // Across the load range, estimated probe costs must rank environments
    // the same way observed ones do (monotone agreement).
    let mut pairs = Vec::new();
    for procs in [25.0, 60.0, 95.0, 120.0] {
        agent.set_load(Load::background(procs));
        let stats = agent.stats();
        pairs.push((est.estimate(&stats), agent.probe()));
    }
    for w in pairs.windows(2) {
        assert!(
            w[1].0 > w[0].0,
            "estimated probe cost not increasing: {pairs:?}"
        );
        assert!(w[1].1 > w[0].1, "observed probe cost not increasing");
    }
}
