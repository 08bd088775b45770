//! The parallel derivation engine.
//!
//! The contract under test: `derive_all` output — models *and* telemetry
//! after the sanctioned wall-clock/scheduling strip — is a pure function of
//! the root seed, independent of worker count and thread scheduling.

use mdbs_bench::experiments::parallel_derive::job_agent;
use mdbs_core::catalog::GlobalCatalog;
use mdbs_core::classes::QueryClass;
use mdbs_core::derive::{derive_all, BatchConfig, DerivationConfig, DeriveJob};
use mdbs_core::pipeline::PipelineCtx;
use mdbs_core::states::StateAlgorithm;
use mdbs_obs::telemetry::strip_wall_clock;

fn batch_jobs() -> Vec<DeriveJob> {
    let mut jobs = Vec::new();
    for site in ["db2", "oracle"] {
        for class in [QueryClass::UnaryNoIndex, QueryClass::UnaryNonClusteredIndex] {
            jobs.push(DeriveJob::new(site, class, StateAlgorithm::Iupma));
        }
    }
    jobs
}

fn run_batch(workers: usize) -> (String, String) {
    let cfg = BatchConfig {
        derivation: DerivationConfig::quick(),
        workers: Some(workers),
    };
    let mut ctx = PipelineCtx::traced(7);
    let outcomes = derive_all(batch_jobs(), &cfg, job_agent, &mut ctx);
    let mut catalog = GlobalCatalog::new();
    for outcome in outcomes {
        let derived = outcome
            .result
            .unwrap_or_else(|e| panic!("job failed at {workers} workers: {e}"));
        catalog.insert_model(outcome.job.site, outcome.job.class, derived.model);
    }
    (
        catalog.export(),
        strip_wall_clock(&ctx.telemetry.render_jsonl()),
    )
}

#[test]
fn one_worker_and_many_workers_produce_identical_models_and_telemetry() {
    let (serial_catalog, serial_telemetry) = run_batch(1);
    let (parallel_catalog, parallel_telemetry) = run_batch(4);
    assert!(!serial_catalog.trim().is_empty());
    assert_eq!(
        serial_catalog, parallel_catalog,
        "derived models must not depend on worker count"
    );
    assert!(!serial_telemetry.trim().is_empty());
    assert_eq!(
        serial_telemetry, parallel_telemetry,
        "telemetry minus wall-clock and pool.sched.* must not depend on worker count"
    );
    // The scheduling-dependent metrics really were confined to the
    // sanctioned prefix (and stripped), not silently omitted.
    assert!(
        serial_telemetry.contains("derive_all"),
        "{serial_telemetry}"
    );
    assert!(
        serial_telemetry.contains("pool.jobs_completed"),
        "{serial_telemetry}"
    );
    assert!(
        !serial_telemetry.contains("pool.sched."),
        "{serial_telemetry}"
    );
}
