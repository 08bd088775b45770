//! Serial vs multi-worker batch derivation wall-clock, plus the model
//! registry's lookup path. The interesting number is the speedup of
//! `derive_all/{2,4,8}_workers` over `derive_all/1_worker` — on a
//! single-CPU host it is ~1x by construction; the derived catalog is
//! byte-identical at every worker count either way.
//!
//! `derive_all/paper_size/{1,2}_workers` is what `derive --site all
//! --class all` does: the 10 jobs (2 sites × 5 classes, IUPMA) at eq. (4)
//! sample sizes, then the serial tail on the calling thread — publishing
//! each model into a snapshot and exporting the text catalog.
//! `maintenance/rederive_quick` is one serve-loop rederivation: one
//! drifted model rebuilt by `rederive_drifted`, best of 3 quick attempts.

use mdbs_bench::experiments::parallel_derive::{job_agent, run_batch};
use mdbs_bench::harness::Harness;
use mdbs_bench::workloads::Site;
use mdbs_core::classes::QueryClass;
use mdbs_core::derive::{derive_all, derive_cost_model, BatchConfig, DerivationConfig, DeriveJob};
use mdbs_core::maintenance::{rederive_drifted, MaintenanceConfig, ModelMaintainer};
use mdbs_core::pipeline::PipelineCtx;
use mdbs_core::registry::ModelRegistry;
use mdbs_core::states::StateAlgorithm;
use mdbs_core::store::CatalogSnapshot;

fn main() {
    let mut h = Harness::new("parallel_batch");

    for workers in [1usize, 2, 4, 8] {
        h.bench(&format!("derive_all/{workers}_workers"), 0, 5, || {
            let (export, _) = run_batch(150, workers, 7).expect("batch derivation succeeds");
            export
        });
    }

    // The whole batch at the paper's sample sizes, then the serial tail.
    let paper_jobs: Vec<DeriveJob> = ["oracle", "db2"]
        .into_iter()
        .flat_map(|site| {
            QueryClass::all()
                .into_iter()
                .map(move |class| DeriveJob::new(site, class, StateAlgorithm::Iupma))
        })
        .collect();
    for workers in [1usize, 2] {
        let cfg = BatchConfig {
            derivation: DerivationConfig::default(),
            workers: Some(workers),
        };
        h.bench(
            &format!("derive_all/paper_size/{workers}_workers"),
            1,
            10,
            || {
                let outcomes = derive_all(
                    paper_jobs.clone(),
                    &cfg,
                    job_agent,
                    &mut PipelineCtx::seeded(7),
                );
                let mut snapshot = CatalogSnapshot::new();
                for outcome in &outcomes {
                    let derived = outcome.result.as_ref().expect("derivation succeeds");
                    snapshot.publish_derived(&outcome.job.site, derived);
                }
                snapshot.catalog.export_versioned(snapshot.version)
            },
        );
    }

    // One serve-loop rederivation: a drifted maintainer rebuilt on the
    // pool, best of its 3 quick attempts.
    let quick = DerivationConfig::quick();
    let job = DeriveJob::new("oracle", QueryClass::UnaryNoIndex, StateAlgorithm::Iupma);
    let derived = derive_cost_model(
        &mut job_agent(&job, 41),
        job.class,
        job.algorithm,
        &quick,
        &mut PipelineCtx::seeded(42),
    )
    .expect("derivation succeeds");
    let drift = MaintenanceConfig::builder()
        .window(10)
        .min_observations(5)
        .build()
        .expect("sane config");
    let mut drifted = ModelMaintainer::new(derived, drift, quick, job.algorithm);
    for _ in 0..10 {
        drifted.observe(1.0, 100.0, &mut PipelineCtx::default());
    }
    h.bench("maintenance/rederive_quick", 1, 20, || {
        let mut fleet = vec![(job.site.clone(), drifted.clone())];
        rederive_drifted(
            &mut fleet,
            Some(1),
            |site, _, env_seed| {
                job_agent(
                    &DeriveJob::new(site.clone(), job.class, job.algorithm),
                    env_seed,
                )
            },
            None,
            &mut PipelineCtx::seeded(43),
        )
        .expect("rederivation succeeds")
    });

    // The registry lookup every served estimate makes.
    let mut agent = Site::Oracle.dynamic_agent(31);
    let derived = derive_cost_model(
        &mut agent,
        QueryClass::UnaryNoIndex,
        StateAlgorithm::Iupma,
        &DerivationConfig::quick(),
        &mut PipelineCtx::seeded(32),
    )
    .expect("derivation succeeds");
    let mut registry = ModelRegistry::new();
    registry.publish("oracle".into(), QueryClass::UnaryNoIndex, derived.model);
    let site = "oracle".into();
    h.bench("registry/get_hit", 100, 10_000, || {
        registry.get(&site, QueryClass::UnaryNoIndex)
    });
    h.bench("registry/get_miss", 100, 10_000, || {
        registry.get(&site, QueryClass::JoinNoIndex)
    });

    h.finish();
}
