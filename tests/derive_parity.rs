//! Parity of the statistics derivation computes once, or only on demand,
//! with the passes they replaced: a derived model's accumulator (read off
//! variable selection's per-state Gram blocks) against
//! `ModelAccumulator::from_observations` over the fitting sample, the
//! on-demand one-state comparison model against the eager fit, and the
//! probing-cost estimator fitted from deferred monitor readings against
//! the estimator fitted from eager `stats()` readings — all bit for bit,
//! at the paper's sample sizes.

use mdbs_bench::workloads::Site;
use mdbs_core::derive::{
    derive_all, BatchConfig, BatchOutcome, DerivationConfig, DeriveJob, DerivedModel,
};
use mdbs_core::maintenance::{rederive_drifted, MaintenanceConfig, ModelMaintainer};
use mdbs_core::model::{fit_cost_model, CostModel, ModelAccumulator, ModelForm};
use mdbs_core::pipeline::PipelineCtx;
use mdbs_core::probing::ProbeCostEstimator;
use mdbs_core::sampling::{planned_sample_size, SampleGenerator};
use mdbs_core::states::StateAlgorithm;
use mdbs_core::store::CatalogSnapshot;
use mdbs_core::{CoreError, QueryClass, StateSet};
use mdbs_obs::json::Json;
use mdbs_sim::contention::Load;
use mdbs_sim::MdbsAgent;
use mdbs_stats::rng::split_stream;

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

/// Both sites × all five classes with one algorithm, at eq. (4) sizes, in
/// job order (each site's classes in `classes` order).
fn derive_batch(algorithm: StateAlgorithm, seed: u64, classes: &[QueryClass]) -> Vec<BatchOutcome> {
    let jobs: Vec<DeriveJob> = ["db2", "oracle"]
        .into_iter()
        .flat_map(|site| {
            classes
                .iter()
                .map(move |&class| DeriveJob::new(site, class, algorithm))
        })
        .collect();
    let cfg = BatchConfig {
        derivation: DerivationConfig::default(),
        workers: Some(2),
    };
    derive_all(jobs, &cfg, agent_for, &mut PipelineCtx::seeded(seed))
}

/// [`derive_batch`] over the canonical class order, every job succeeding.
fn derive_catalog(algorithm: StateAlgorithm, seed: u64) -> Vec<(DeriveJob, DerivedModel)> {
    derive_batch(algorithm, seed, &QueryClass::all())
        .into_iter()
        .map(|o| (o.job, o.result.expect("derivation succeeds")))
        .collect()
}

/// Every number of an estimator, by bit pattern, with its predictors.
fn estimator_bits(e: &ProbeCostEstimator) -> (Vec<usize>, Vec<String>, Vec<u64>) {
    let floats = e
        .coefficients
        .iter()
        .chain([e.r_squared, e.see].iter())
        .map(|v| v.to_bits())
        .collect();
    (e.selected.clone(), e.names.clone(), floats)
}

/// A taken-then-read monitor reading is the eager `stats()` snapshot bit
/// for bit, and the agent's generator continues exactly as after the eager
/// call: over dynamic and pinned loads, the next 1,000 draws (ticks,
/// probes and eager readings) of the two agents agree.
#[test]
fn deferred_readings_equal_eager_stats() {
    for (name, mut agent) in [
        ("oracle dynamic", Site::Oracle.dynamic_agent(5)),
        ("db2 clustered", Site::Db2.clustered_agent(6)),
        ("oracle thrashing", {
            let mut a = Site::Oracle.agent(7);
            a.set_load(Load::background(140.0));
            a
        }),
    ] {
        for round in 0..20 {
            agent.tick();
            let mut eager = agent.clone();
            let want = eager.stats();
            let got = agent.stats_deferred().read(agent.machine().spec());
            assert_eq!(
                format!("{got:?}"),
                format!("{want:?}"),
                "{name} round {round}"
            );
            assert_eq!(
                got.probe_predictors().map(f64::to_bits),
                want.probe_predictors().map(f64::to_bits),
                "{name} round {round}"
            );
            let mut a_draws = Vec::with_capacity(1000);
            let mut b_draws = Vec::with_capacity(1000);
            let mut a = agent.clone();
            for (agent, draws) in [(&mut a, &mut a_draws), (&mut eager, &mut b_draws)] {
                while draws.len() < 1000 {
                    agent.tick();
                    draws.push(agent.probe().to_bits());
                    draws.push(agent.stats().load_avg_1m.to_bits());
                }
            }
            assert_eq!(a_draws, b_draws, "{name} round {round}: later draws");
        }
    }
}

/// The first-pass sampling loop as it read the monitor before deferral:
/// an eager `stats()` before each probe.
fn eager_probe_sample(
    agent: &mut MdbsAgent,
    class: QueryClass,
    n: usize,
    generator: &mut SampleGenerator,
) -> Vec<(mdbs_sim::SystemStats, f64)> {
    let family = class.family();
    let mut pairs = Vec::with_capacity(n);
    while pairs.len() < n {
        let query = generator.generate(class, agent.catalog());
        if family.extract(agent.catalog(), &query).is_none() {
            continue;
        }
        agent.tick();
        let stats = agent.stats();
        let probe = agent.probe();
        agent.run(&query).expect("generated queries run");
        pairs.push((stats, probe));
    }
    pairs
}

/// For every job of an IUPMA and an ICMA all-classes batch, the estimator
/// `probe_estimator()` fits from the deferred readings is the estimator
/// fitted from eager readings of the same environment, bit for bit.
#[test]
fn probe_estimator_on_demand_equals_the_eager_fit() {
    let seed = 21;
    let max_states = DerivationConfig::default().states.max_states;
    for algorithm in [StateAlgorithm::Iupma, StateAlgorithm::Icma] {
        for outcome in derive_batch(algorithm, seed, &QueryClass::all()) {
            let job = &outcome.job;
            let derived = outcome.result.expect("derivation succeeds");
            // The job's generation stream, split from the root seed by its
            // key as `derive_all` splits it.
            let gen_seed = split_stream(seed, job.job_key() ^ 0x4745_4E00);
            let mut agent = agent_for(job, outcome.env_seed);
            let n = planned_sample_size(job.class.family(), max_states);
            let pairs = eager_probe_sample(
                &mut agent,
                job.class,
                n,
                &mut SampleGenerator::new(gen_seed),
            );
            for ((_, probe), o) in pairs.iter().zip(&derived.observations) {
                assert_eq!(probe.to_bits(), o.probe_cost.to_bits(), "{}", job.label());
            }
            let eager = ProbeCostEstimator::fit(&pairs, 0.05).expect("eager fit succeeds");
            let lazy = derived
                .probe_estimator()
                .expect("estimator requested")
                .expect("deferred fit succeeds");
            assert_eq!(
                estimator_bits(&lazy),
                estimator_bits(&eager),
                "{}",
                job.label()
            );
        }
    }
}

/// Publishing a batch keeps the catalog that publishing every outcome one
/// by one leaves (every estimator here fits). When a site's last job
/// failed, the site keeps the estimator of its latest successful job.
#[test]
fn publish_batch_keeps_each_sites_last_estimator() {
    for algorithm in [StateAlgorithm::Iupma, StateAlgorithm::Icma] {
        let mut outcomes = derive_batch(algorithm, 31, &QueryClass::all());
        let mut batch = CatalogSnapshot::new();
        assert!(batch.publish_batch(&outcomes).is_empty());
        let mut one_by_one = CatalogSnapshot::new();
        for outcome in &outcomes {
            let derived = outcome.result.as_ref().expect("derivation succeeds");
            one_by_one
                .publish_derived(&outcome.job.site, derived)
                .expect("estimator fits");
        }
        assert_eq!(batch.version, one_by_one.version);
        assert_eq!(
            batch.catalog.export_versioned(batch.version),
            one_by_one.catalog.export_versioned(one_by_one.version)
        );

        // Jobs 0–4 are db2's, 5–9 oracle's: fail db2's last job.
        let fitted = |o: &BatchOutcome| {
            let derived = o.result.as_ref().expect("derivation succeeds");
            estimator_bits(&derived.probe_estimator().expect("requested").expect("fits"))
        };
        let (db2, oracle) = (outcomes[4].job.site.clone(), outcomes[9].job.site.clone());
        assert_ne!(fitted(&outcomes[3]), fitted(&outcomes[4]));
        outcomes[4].result = Err(CoreError::InsufficientSamples { needed: 1, got: 0 });
        let mut batch = CatalogSnapshot::new();
        assert!(batch.publish_batch(&outcomes).is_empty());
        assert_eq!(batch.version, 9);
        let kept = |site| estimator_bits(batch.catalog.probe_estimator(site).expect("kept"));
        assert_eq!(kept(&db2), fitted(&outcomes[3]), "{algorithm:?}");
        assert_eq!(kept(&oracle), fitted(&outcomes[9]), "{algorithm:?}");
    }
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
                    ModelAccumulator::from_observations(&derived.model, &derived.observations)
                        .expect("finite sample");
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
        let want = ModelAccumulator::from_observations(&m.derived.model, &m.derived.observations)
            .expect("finite sample");
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
