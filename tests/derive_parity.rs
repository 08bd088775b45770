//! Parity of the statistics derivation computes once with the passes they
//! replaced: a derived model's accumulator (read off variable selection's
//! per-state Gram blocks) against `ModelAccumulator::from_observations`
//! over the fitting sample, and the on-demand one-state comparison model
//! against the eager fit — both bit for bit, at the paper's sample sizes.

use mdbs_bench::workloads::Site;
use mdbs_core::derive::{derive_all, BatchConfig, DerivationConfig, DeriveJob, DerivedModel};
use mdbs_core::maintenance::{rederive_drifted, MaintenanceConfig, ModelMaintainer};
use mdbs_core::model::{fit_cost_model, CostModel, ModelAccumulator, ModelForm};
use mdbs_core::pipeline::PipelineCtx;
use mdbs_core::sampling::planned_sample_size;
use mdbs_core::states::StateAlgorithm;
use mdbs_core::{QueryClass, StateSet};
use mdbs_obs::json::Json;
use mdbs_sim::MdbsAgent;

/// Every number of two accumulators, compared by bit pattern.
fn assert_bitwise_equal(got: &ModelAccumulator, want: &ModelAccumulator, at: &str) {
    assert_eq!(got.form(), want.form(), "{at}: form");
    assert_eq!(got.states(), want.states(), "{at}: states");
    assert_eq!(got.var_indexes(), want.var_indexes(), "{at}: variables");
    assert_eq!(got.var_names(), want.var_names(), "{at}: names");
    assert_eq!(got.blocks().len(), want.blocks().len(), "{at}: blocks");
    for (s, (g, w)) in got.blocks().iter().zip(want.blocks()).enumerate() {
        let bits = |b: &mdbs_stats::GramAccumulator| -> Vec<u64> {
            b.xtx()
                .iter()
                .chain(b.xty())
                .chain([b.yty(), b.sum_y()].iter())
                .map(|v| v.to_bits())
                .collect()
        };
        assert_eq!((g.k(), g.n()), (w.k(), w.n()), "{at}: state {s} shape");
        assert_eq!(bits(g), bits(w), "{at}: state {s} moments");
    }
}

fn model_bits(m: &CostModel) -> Vec<u64> {
    let fit = &m.fit;
    m.coefficients
        .iter()
        .flatten()
        .chain(&[
            fit.r_squared,
            fit.adj_r_squared,
            fit.see,
            fit.f_statistic,
            fit.f_p_value,
        ])
        .map(|v| v.to_bits())
        .collect()
}

fn agent_for(job: &DeriveJob, env_seed: u64) -> MdbsAgent {
    let site = match job.site.0.as_str() {
        "oracle" => Site::Oracle,
        _ => Site::Db2,
    };
    match job.algorithm {
        StateAlgorithm::Iupma => site.dynamic_agent(env_seed),
        StateAlgorithm::Icma => site.clustered_agent(env_seed),
    }
}

/// Both sites × all five classes with one algorithm, at eq. (4) sizes.
fn derive_catalog(algorithm: StateAlgorithm, seed: u64) -> Vec<(DeriveJob, DerivedModel)> {
    let jobs: Vec<DeriveJob> = ["db2", "oracle"]
        .into_iter()
        .flat_map(|site| {
            QueryClass::all()
                .into_iter()
                .map(move |class| DeriveJob::new(site, class, algorithm))
        })
        .collect();
    let cfg = BatchConfig {
        derivation: DerivationConfig::default(),
        workers: Some(2),
    };
    derive_all(jobs, &cfg, agent_for, &mut PipelineCtx::seeded(seed))
        .into_iter()
        .map(|o| (o.job, o.result.expect("derivation succeeds")))
        .collect()
}

/// All 5 classes × IUPMA and ICMA × 3 seeds: the accumulator a derivation
/// carries is `from_observations` of its model over its sample, bit for
/// bit, including samples that targeted resampling grew.
#[test]
fn derived_accumulators_equal_the_observation_pass() {
    let (mut compared, mut resampled) = (0, 0);
    for algorithm in [StateAlgorithm::Iupma, StateAlgorithm::Icma] {
        for seed in 1..=3 {
            for (job, derived) in derive_catalog(algorithm, seed) {
                let at = format!("{} seed {seed}", job.label());
                let want =
                    ModelAccumulator::from_observations(&derived.model, &derived.observations);
                assert_bitwise_equal(derived.accumulator(), &want, &at);
                let planned = planned_sample_size(
                    job.class.family(),
                    DerivationConfig::default().states.max_states,
                );
                if derived.observations.len() > planned {
                    resampled += 1;
                }
                compared += 1;
            }
        }
    }
    assert_eq!(compared, 60);
    assert!(resampled >= 1, "no derivation drew targeted resamples");
}

/// `one_state()` is the eager comparison fit, bit for bit, and the traced
/// `derive.fit` span reports its R².
#[test]
fn one_state_on_demand_equals_the_eager_fit() {
    let job = DeriveJob::new("db2", QueryClass::UnaryNoIndex, StateAlgorithm::Iupma);
    let mut agent = agent_for(&job, 3);
    let mut ctx = PipelineCtx::traced(4);
    let derived = mdbs_core::derive::derive_cost_model(
        &mut agent,
        job.class,
        job.algorithm,
        &DerivationConfig::default(),
        &mut ctx,
    )
    .expect("derivation succeeds");
    let eager = fit_cost_model(
        ModelForm::Coincident,
        StateSet::single(),
        derived.model.var_indexes.clone(),
        derived.model.var_names.clone(),
        &derived.observations,
    )
    .expect("one-state fit succeeds");
    let lazy = derived.one_state().expect("one-state fit succeeds");
    assert_eq!(model_bits(&lazy), model_bits(&eager));
    assert_eq!(lazy, eager);
    let traced = ctx
        .telemetry
        .spans()
        .iter()
        .find(|s| s.name == "derive.fit")
        .and_then(|s| s.fields.iter().find(|(k, _)| k == "one_state_r_squared"))
        .and_then(|(_, v)| Json::as_f64(v))
        .expect("the traced fit span reports the one-state R²");
    assert_eq!(traced.to_bits(), eager.fit.r_squared.to_bits());
}

/// A serve-loop rederivation (`rederive_drifted`, best of three attempts)
/// and the serial `rederive` leave the maintainer with the accumulator of
/// the winning attempt's sample, and incremental refits keep absorbing
/// into it.
#[test]
fn rederived_accumulators_equal_the_observation_pass() {
    let cfg = DerivationConfig::default();
    let job = DeriveJob::new("oracle", QueryClass::JoinNoIndex, StateAlgorithm::Icma);
    let mut agent = agent_for(&job, 11);
    let derived = mdbs_core::derive::derive_cost_model(
        &mut agent,
        job.class,
        job.algorithm,
        &cfg,
        &mut PipelineCtx::seeded(12),
    )
    .expect("derivation succeeds");
    let maintenance = MaintenanceConfig::builder()
        .window(10)
        .min_observations(5)
        .build()
        .expect("sane config");
    let mut maintainer = ModelMaintainer::new(derived, maintenance, cfg, job.algorithm);
    let check = |m: &ModelMaintainer, at: &str| {
        let want = ModelAccumulator::from_observations(&m.derived.model, &m.derived.observations);
        assert_bitwise_equal(m.accumulator(), &want, at);
    };
    check(&maintainer, "initial");
    let mut ctx = PipelineCtx::seeded(13);
    for _ in 0..10 {
        maintainer.observe(1.0, 100.0, &mut ctx);
    }
    let mut fleet = vec![(job.site.clone(), maintainer)];
    let rebuilt = rederive_drifted(
        &mut fleet,
        Some(2),
        |_, _, env_seed| agent_for(&job, env_seed),
        None,
        &mut ctx,
    )
    .expect("rederivation succeeds");
    assert_eq!(rebuilt, 1);
    let (_, mut maintainer) = fleet.pop().expect("one maintainer");
    assert_eq!(maintainer.rederivations, 1);
    check(&maintainer, "after rederive_drifted");
    maintainer
        .rederive(&mut agent_for(&job, 14), &mut PipelineCtx::seeded(15))
        .expect("rederivation succeeds");
    check(&maintainer, "after rederive");
    let fresh: Vec<_> = maintainer.derived.observations[..40].to_vec();
    maintainer
        .refit_incremental(&job.site, &fresh, None, &mut ctx)
        .expect("refit succeeds");
    check(&maintainer, "after refit_incremental");
}
