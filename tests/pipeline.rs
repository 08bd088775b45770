//! Cross-crate integration: the full multi-states derivation pipeline
//! against simulated local DBSs, exercising `mdbs-stats`, `mdbs-sim` and
//! `mdbs-core` together.

use mdbs_core::classes::QueryClass;
use mdbs_core::derive::{derive_cost_model, DerivationConfig};
use mdbs_core::pipeline::PipelineCtx;
use mdbs_core::selection::SelectionConfig;
use mdbs_core::states::{StateAlgorithm, StatesConfig};
use mdbs_core::validate::{quality, run_test_queries};
use mdbs_sim::datagen::standard_database;
use mdbs_sim::{ContentionProfile, LoadBuilder, MdbsAgent, VendorProfile};

fn dynamic_agent(vendor: VendorProfile, db_seed: u64, env_seed: u64) -> MdbsAgent {
    let mut agent = MdbsAgent::new(vendor, standard_database(db_seed), env_seed);
    agent.set_load_builder(LoadBuilder::new(ContentionProfile::Uniform {
        lo: 20.0,
        hi: 125.0,
    }));
    agent
}

fn quick_cfg(samples: usize) -> DerivationConfig {
    DerivationConfig {
        sample_size: Some(samples),
        fit_probe_estimator: false,
        ..DerivationConfig::default()
    }
}

#[test]
fn unary_pipeline_on_oracle() {
    let mut agent = dynamic_agent(VendorProfile::oracle8(), 42, 1);
    let derived = derive_cost_model(
        &mut agent,
        QueryClass::UnaryNoIndex,
        StateAlgorithm::Iupma,
        &quick_cfg(260),
        &mut PipelineCtx::seeded(2),
    )
    .expect("derivation succeeds");
    assert!(derived.model.num_states() >= 2);
    assert!(derived.model.fit.r_squared > 0.9);
    assert!(derived.model.fit.f_p_value < 0.01, "model fails the F-test");
    // The model must include at least one cardinality variable.
    assert!(derived.model.var_names.iter().any(|n| n.starts_with("N_")));
    // Estimates on held-out queries are mostly usable.
    let points = run_test_queries(&mut agent, QueryClass::UnaryNoIndex, &derived.model, 40, 3)
        .expect("test run succeeds");
    let q = quality(&points);
    assert!(q.good_pct > 50.0, "only {}% good", q.good_pct);
}

#[test]
fn join_pipeline_on_db2() {
    let mut agent = dynamic_agent(VendorProfile::db2v5(), 43, 4);
    let derived = derive_cost_model(
        &mut agent,
        QueryClass::JoinNoIndex,
        StateAlgorithm::Iupma,
        &quick_cfg(300),
        &mut PipelineCtx::seeded(5),
    )
    .expect("join derivation succeeds");
    assert!(derived.model.num_states() >= 2);
    assert!(derived.model.fit.r_squared > 0.85);
    // Join models should lean on intermediate/cartesian sizes.
    assert!(derived
        .model
        .var_names
        .iter()
        .any(|n| n.contains("N_I") || n.contains("N_R") || n.contains("N_O")));
}

#[test]
fn every_class_derives_on_both_vendors() {
    for (vendor, db_seed) in [(VendorProfile::oracle8(), 42), (VendorProfile::db2v5(), 43)] {
        for class in QueryClass::all() {
            let mut agent = dynamic_agent(vendor.clone(), db_seed, 100 + db_seed);
            let cfg = DerivationConfig {
                states: StatesConfig {
                    max_states: 3,
                    ..StatesConfig::default()
                },
                sample_size: Some(170),
                fit_probe_estimator: false,
                ..DerivationConfig::default()
            };
            let derived = derive_cost_model(
                &mut agent,
                class,
                StateAlgorithm::Iupma,
                &cfg,
                &mut PipelineCtx::seeded(6),
            )
            .unwrap_or_else(|e| panic!("{class:?} on {}: {e}", vendor.name));
            assert!(
                derived.model.fit.r_squared > 0.6,
                "{class:?} on {} fits poorly: {}",
                vendor.name,
                derived.model.fit.r_squared
            );
        }
    }
}

#[test]
fn icma_pipeline_on_clustered_environment() {
    let mut agent = MdbsAgent::new(VendorProfile::oracle8(), standard_database(42), 9);
    agent.set_load_builder(LoadBuilder::new(ContentionProfile::paper_clustered()));
    let derived = derive_cost_model(
        &mut agent,
        QueryClass::UnaryNoIndex,
        StateAlgorithm::Icma,
        &quick_cfg(260),
        &mut PipelineCtx::seeded(10),
    )
    .expect("ICMA derivation succeeds");
    assert!(derived.model.num_states() >= 2);
    assert!(derived.model.fit.r_squared > 0.85);
}

#[test]
fn probe_estimator_supports_estimation_flow() {
    let mut agent = dynamic_agent(VendorProfile::oracle8(), 42, 11);
    let cfg = DerivationConfig {
        sample_size: Some(200),
        fit_probe_estimator: true,
        ..DerivationConfig::default()
    };
    let derived = derive_cost_model(
        &mut agent,
        QueryClass::UnaryNoIndex,
        StateAlgorithm::Iupma,
        &cfg,
        &mut PipelineCtx::seeded(12),
    )
    .expect("derivation with probe estimator");
    let est = derived
        .probe_estimator()
        .expect("estimator requested")
        .expect("estimator fits");
    assert!(
        est.r_squared > 0.7,
        "eq.(2) fit too weak: {}",
        est.r_squared
    );
    // Using the *estimated* probe cost should land in the same or an
    // adjacent contention state as the observed one, most of the time.
    let mut close = 0;
    let trials = 30;
    for _ in 0..trials {
        agent.tick();
        let stats = agent.stats();
        let predicted = est.estimate(&stats);
        let observed = agent.probe();
        let s_pred = derived.model.states.state_of(predicted);
        let s_obs = derived.model.states.state_of(observed);
        if s_pred.abs_diff(s_obs) <= 1 {
            close += 1;
        }
    }
    assert!(
        close * 100 >= trials * 70,
        "estimated probe matched observed state only {close}/{trials} times"
    );
}

#[test]
fn derivation_is_deterministic() {
    let run = || {
        let mut agent = dynamic_agent(VendorProfile::db2v5(), 43, 21);
        derive_cost_model(
            &mut agent,
            QueryClass::UnaryNonClusteredIndex,
            StateAlgorithm::Iupma,
            &quick_cfg(200),
            &mut PipelineCtx::seeded(22),
        )
        .expect("derivation succeeds")
    };
    let a = run();
    let b = run();
    assert_eq!(a.model.coefficients, b.model.coefficients);
    assert_eq!(a.model.states.edges(), b.model.states.edges());
    assert_eq!(a.model.var_names, b.model.var_names);
}

#[test]
fn sort_variable_selected_for_sorted_workloads() {
    // The sample generator orders about a third of unary queries; sorting
    // adds an N·log N cost the basic size variables cannot fully explain.
    // The SORT candidate competes with N_R (they correlate on the sorted
    // subset), so selection is run over three independent samples and the
    // variable must win in most of them.
    let mut selected = 0;
    for seed in [31u64, 51, 71] {
        let mut agent = dynamic_agent(VendorProfile::oracle8(), 42, seed);
        let cfg = DerivationConfig {
            sample_size: Some(400),
            fit_probe_estimator: false,
            selection: SelectionConfig {
                forward_min_gain: 0.005,
            },
            ..DerivationConfig::default()
        };
        let derived = derive_cost_model(
            &mut agent,
            QueryClass::UnaryNoIndex,
            StateAlgorithm::Iupma,
            &cfg,
            &mut PipelineCtx::seeded(seed + 1),
        )
        .expect("derivation succeeds");
        if derived.model.var_names.iter().any(|n| n == "SORT") {
            selected += 1;
        }
        let points = run_test_queries(
            &mut agent,
            QueryClass::UnaryNoIndex,
            &derived.model,
            40,
            seed + 2,
        )
        .expect("test run succeeds");
        let q = quality(&points);
        assert!(q.good_pct > 50.0, "seed {seed}: only {}% good", q.good_pct);
    }
    assert!(selected >= 2, "SORT selected in only {selected}/3 samples");
}
