//! One runner per table/figure of the paper's evaluation.
//!
//! Every runner returns a plain data struct with a `Display` impl that
//! prints rows in the shape of the paper's artifact; the `repro` binary
//! just prints them, the integration tests assert on the fields, and the
//! in-tree wall-clock benches time them.

pub mod ablations;
pub mod fig1;
pub mod fig10;
pub mod fig4_9;
pub mod parallel_derive;
pub mod plan_quality;
pub mod sensitivity;
pub mod states_sweep;
pub mod table4;
pub mod table5;
pub mod table6;

pub use ablations::{forms_ablation, probe_ablation, FormsAblation, ProbeAblation};
pub use fig1::{fig1, Fig1};
pub use fig10::{fig10, Fig10};
pub use fig4_9::{average_improvement, fig4_9, Fig4to9};
pub use parallel_derive::{parallel_derive, ParallelDerive, ParallelDeriveRow};
pub use plan_quality::{plan_quality, PlanQuality};
pub use sensitivity::{noise_sensitivity, range_sensitivity, Sensitivity};
pub use states_sweep::{states_sweep, StatesSweep};
pub use table4::{table4, Table4};
pub use table5::{table5, Table5, Table5Config, Table5Row};
pub use table6::{table6, Table6, Table6Row};

use mdbs_core::classes::QueryClass;
use mdbs_core::model::CostModel;
use mdbs_core::sampling::SampleGenerator;
use mdbs_core::validate::TestPoint;
use mdbs_core::CoreError;
use mdbs_sim::agent::ExecutionSizes;
use mdbs_sim::MdbsAgent;

/// One executed test query with estimates from several models at once —
/// all models price the *same* execution, which is both fairer and cheaper
/// than re-running the workload per model.
#[derive(Debug, Clone)]
pub struct MultiEstimatePoint {
    /// Observed elapsed cost.
    pub observed: f64,
    /// Result cardinality (the x-axis of Figures 4–9).
    pub result_card: u64,
    /// Probing cost gauged before execution.
    pub probe_cost: f64,
    /// One estimate per supplied model, in order.
    pub estimates: Vec<f64>,
}

impl MultiEstimatePoint {
    /// Converts the `k`-th estimate into a [`TestPoint`].
    pub fn test_point(&self, k: usize) -> TestPoint {
        TestPoint {
            observed: self.observed,
            estimated: self.estimates[k],
            result_card: self.result_card,
            probe_cost: self.probe_cost,
        }
    }
}

/// Runs `n` random test queries of `class`, estimating each with every
/// model in `models` before executing it.
pub fn run_test_suite(
    agent: &mut MdbsAgent,
    class: QueryClass,
    models: &[&CostModel],
    n: usize,
    seed: u64,
) -> Result<Vec<MultiEstimatePoint>, CoreError> {
    let family = class.family();
    let mut generator = SampleGenerator::new(seed);
    let mut points = Vec::with_capacity(n);
    while points.len() < n {
        let query = generator.generate(class, agent.catalog());
        let Some(x) = family.extract(agent.catalog(), &query) else {
            continue;
        };
        agent.tick();
        let probe_cost = agent.probe();
        let estimates = models
            .iter()
            .map(|m| {
                let x_sel: Vec<f64> = m.var_indexes.iter().map(|&i| x[i]).collect();
                m.estimate(&x_sel, probe_cost)
            })
            .collect();
        let exec = agent
            .run(&query)
            .map_err(|e| CoreError::Agent(e.to_string()))?;
        let result_card = match exec.sizes {
            ExecutionSizes::Unary(s) => s.result,
            ExecutionSizes::Join(s) => s.result,
        };
        points.push(MultiEstimatePoint {
            observed: exec.cost_s,
            result_card,
            probe_cost,
            estimates,
        });
    }
    Ok(points)
}

/// Extracts the per-model [`TestPoint`] series from a multi-estimate run.
pub fn test_points(points: &[MultiEstimatePoint], k: usize) -> Vec<TestPoint> {
    points.iter().map(|p| p.test_point(k)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Site;
    use mdbs_core::derive::{derive_cost_model, DerivationConfig};
    use mdbs_core::states::StateAlgorithm;

    #[test]
    fn multi_estimate_runner_prices_all_models_once() {
        let mut agent = Site::Oracle.dynamic_agent(900);
        let derived = derive_cost_model(
            &mut agent,
            QueryClass::UnaryNoIndex,
            StateAlgorithm::Iupma,
            &DerivationConfig::quick(),
            &mut mdbs_core::pipeline::PipelineCtx::seeded(901),
        )
        .unwrap();
        let points = run_test_suite(
            &mut agent,
            QueryClass::UnaryNoIndex,
            &[&derived.model, &derived.one_state().unwrap()],
            12,
            902,
        )
        .unwrap();
        assert_eq!(points.len(), 12);
        for p in &points {
            assert_eq!(p.estimates.len(), 2);
            assert!(p.observed > 0.0);
            let tp = p.test_point(0);
            assert_eq!(tp.observed, p.observed);
            assert_eq!(tp.estimated, p.estimates[0]);
        }
        let series = test_points(&points, 1);
        assert_eq!(series.len(), 12);
    }
}
