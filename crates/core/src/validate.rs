//! Model validation on test workloads (paper §4.3 and §5).
//!
//! "Unlike the scientific computation in engineering, the accuracy of cost
//! estimation in query optimization is not required to be very high. The
//! estimated costs with relative errors within 30% are considered to be
//! *very good*, and the estimated costs that are within the range of
//! one-time larger or smaller than the corresponding observed costs (e.g.,
//! 2 minutes vs 4 minutes) are considered to be *good*."

use crate::classes::QueryClass;
use crate::model::CostModel;
use crate::sampling::SampleGenerator;
use crate::CoreError;
use mdbs_sim::agent::ExecutionSizes;
use mdbs_sim::MdbsAgent;

/// Relative-error bound for a *very good* estimate.
pub const VERY_GOOD_REL_ERR: f64 = 0.30;
/// Factor bound for a *good* estimate (within 2× either way).
pub const GOOD_FACTOR: f64 = 2.0;

/// One test-query estimate/observation pair.
#[derive(Debug, Clone, PartialEq)]
pub struct TestPoint {
    /// Observed elapsed cost (seconds).
    pub observed: f64,
    /// Cost estimated by the model before execution.
    pub estimated: f64,
    /// Result cardinality (the x-axis of paper Figures 4–9).
    pub result_card: u64,
    /// Probing cost gauged for this execution.
    pub probe_cost: f64,
}

impl TestPoint {
    /// Relative error `|est − obs| / obs`.
    pub fn relative_error(&self) -> f64 {
        if self.observed <= 0.0 {
            return f64::INFINITY;
        }
        (self.estimated - self.observed).abs() / self.observed
    }

    /// Very good: relative error within 30 %.
    pub fn is_very_good(&self) -> bool {
        self.relative_error() <= VERY_GOOD_REL_ERR
    }

    /// Good: within one time larger or smaller (a factor of two), or
    /// already very good.
    pub fn is_good(&self) -> bool {
        if self.is_very_good() {
            return true;
        }
        if self.estimated <= 0.0 || self.observed <= 0.0 {
            return false;
        }
        let ratio = (self.estimated / self.observed).max(self.observed / self.estimated);
        ratio <= GOOD_FACTOR
    }
}

/// Aggregate quality of a set of test points.
#[derive(Debug, Clone, PartialEq)]
pub struct Quality {
    /// Number of test queries.
    pub n: usize,
    /// Percentage of very good estimates (0–100).
    pub very_good_pct: f64,
    /// Percentage of good estimates (0–100).
    pub good_pct: f64,
    /// Mean relative error over finite points.
    pub mean_rel_err: f64,
}

/// Summarizes test points into the paper's quality percentages.
pub fn quality(points: &[TestPoint]) -> Quality {
    let n = points.len();
    if n == 0 {
        return Quality {
            n: 0,
            very_good_pct: 0.0,
            good_pct: 0.0,
            mean_rel_err: f64::NAN,
        };
    }
    let vg = points.iter().filter(|p| p.is_very_good()).count();
    let g = points.iter().filter(|p| p.is_good()).count();
    let finite: Vec<f64> = points
        .iter()
        .map(TestPoint::relative_error)
        .filter(|e| e.is_finite())
        .collect();
    Quality {
        n,
        very_good_pct: 100.0 * vg as f64 / n as f64,
        good_pct: 100.0 * g as f64 / n as f64,
        mean_rel_err: finite.iter().sum::<f64>() / finite.len().max(1) as f64,
    }
}

/// Runs `n` random test queries of `class` against `agent`, estimating each
/// with `model` *before* execution (probing first, like the real flow) and
/// then observing its actual cost.
pub fn run_test_queries(
    agent: &mut MdbsAgent,
    class: QueryClass,
    model: &CostModel,
    n: usize,
    seed: u64,
) -> Result<Vec<TestPoint>, CoreError> {
    let family = class.family();
    let mut generator = SampleGenerator::new(seed);
    let mut points = Vec::with_capacity(n);
    while points.len() < n {
        let query = generator.next_query(class, agent.catalog());
        let Some(x) = family.extract(agent.catalog(), query) else {
            continue;
        };
        agent.tick();
        let probe_cost = agent.probe();
        let x_sel: Vec<f64> = model.var_indexes.iter().map(|&i| x[i]).collect();
        let estimated = model.estimate(&x_sel, probe_cost);
        let exec = agent
            .run(query)
            .map_err(|e| CoreError::Agent(e.to_string()))?;
        let result_card = match exec.sizes {
            ExecutionSizes::Unary(s) => s.result,
            ExecutionSizes::Join(s) => s.result,
        };
        points.push(TestPoint {
            observed: exec.cost_s,
            estimated,
            result_card,
            probe_cost,
        });
    }
    Ok(points)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(observed: f64, estimated: f64) -> TestPoint {
        TestPoint {
            observed,
            estimated,
            result_card: 0,
            probe_cost: 1.0,
        }
    }

    #[test]
    fn very_good_band() {
        assert!(point(10.0, 10.0).is_very_good());
        assert!(point(10.0, 12.9).is_very_good());
        assert!(point(10.0, 7.1).is_very_good());
        assert!(!point(10.0, 13.5).is_very_good());
    }

    #[test]
    fn good_band_is_a_factor_of_two() {
        assert!(point(10.0, 19.9).is_good());
        assert!(point(10.0, 5.1).is_good());
        assert!(!point(10.0, 20.5).is_good());
        assert!(!point(10.0, 4.9).is_good());
        // 2 minutes vs 4 minutes — the paper's own example of "good".
        assert!(point(120.0, 240.0).is_good());
        // 2 minutes vs 3 hours — "not acceptable".
        assert!(!point(120.0, 10_800.0).is_good());
    }

    #[test]
    fn very_good_implies_good() {
        for est in [7.1, 9.0, 10.0, 12.0, 12.9] {
            let p = point(10.0, est);
            if p.is_very_good() {
                assert!(p.is_good());
            }
        }
    }

    #[test]
    fn nonpositive_estimates_are_bad() {
        assert!(!point(10.0, 0.0).is_good());
        assert!(!point(10.0, -3.0).is_good());
    }

    #[test]
    fn quality_aggregates() {
        let pts = vec![
            point(10.0, 10.0),  // very good
            point(10.0, 15.0),  // good
            point(10.0, 100.0), // bad
            point(10.0, 11.0),  // very good
        ];
        let q = quality(&pts);
        assert_eq!(q.n, 4);
        assert!((q.very_good_pct - 50.0).abs() < 1e-9);
        assert!((q.good_pct - 75.0).abs() < 1e-9);
        assert!(q.mean_rel_err > 0.0);
    }

    #[test]
    fn empty_quality_is_degenerate() {
        let q = quality(&[]);
        assert_eq!(q.n, 0);
        assert!(q.mean_rel_err.is_nan());
    }
}
