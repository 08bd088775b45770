//! Serial vs multi-worker batch derivation wall-clock, plus the model
//! registry's lookup path. The interesting number is the speedup of
//! `derive_all/{2,4,8}_workers` over `derive_all/1_worker` — on a
//! single-CPU host it is ~1x by construction; the derived catalog is
//! byte-identical at every worker count either way.

use mdbs_bench::experiments::parallel_derive::run_batch;
use mdbs_bench::harness::Harness;
use mdbs_bench::workloads::Site;
use mdbs_core::classes::QueryClass;
use mdbs_core::derive::{derive_cost_model, DerivationConfig};
use mdbs_core::pipeline::PipelineCtx;
use mdbs_core::registry::ModelRegistry;
use mdbs_core::states::StateAlgorithm;

fn main() {
    let mut h = Harness::new("parallel_batch");

    for workers in [1usize, 2, 4, 8] {
        h.bench(&format!("derive_all/{workers}_workers"), 0, 5, || {
            let (export, _) = run_batch(150, workers, 7).expect("batch derivation succeeds");
            export
        });
    }

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
