//! **E-TAB6** — paper Table 6: "Statistics for Cost Models in a Clustered
//! Case".
//!
//! When the contention level follows a non-uniform, clustered distribution
//! (Figure 10), both state-determination algorithms still work, but ICMA's
//! cluster-aligned boundaries beat IUPMA's fixed uniform grid: the paper
//! measured R² 0.991 vs 0.978 and 82 % vs 58 % very-good estimates for a
//! query class under clustered contention.
//!
//! To isolate the partitioning question, both algorithms here run over the
//! *same* sample of observations, are compared at the *same* number of
//! states (the paper's table shows 3 vs 3), and are scored on the *same*
//! held-out test workload.

use crate::experiments::{run_test_suite, test_points};
use crate::workloads::{seed_for, Site};
use mdbs_core::classes::QueryClass;
use mdbs_core::derive::collect_observations;
use mdbs_core::model::CostModel;
use mdbs_core::pipeline::PipelineCtx;
use mdbs_core::sampling::SampleGenerator;
use mdbs_core::selection::{select_variables, SelectionConfig};
use mdbs_core::states::{determine_states, NoResampling, StateAlgorithm, StatesConfig};
use mdbs_core::validate::{quality, Quality};
use mdbs_core::CoreError;

/// One row of Table 6: one state-determination algorithm.
#[derive(Debug, Clone)]
pub struct Table6Row {
    /// Algorithm name (`IUPMA` / `ICMA`).
    pub algorithm: String,
    /// Number of contention states determined.
    pub states: usize,
    /// R² on the (shared) sampling data.
    pub r_squared: f64,
    /// Standard error of estimation.
    pub see: f64,
    /// Average observed sample cost (shared between the rows).
    pub avg_cost: f64,
    /// Estimate quality on the shared clustered test workload.
    pub quality: Quality,
    /// The fitted model.
    pub model: CostModel,
}

/// The full Table-6 result.
#[derive(Debug, Clone)]
pub struct Table6 {
    /// Class label.
    pub label: String,
    /// IUPMA and ICMA rows (paper order: IUPMA first).
    pub rows: Vec<Table6Row>,
}

impl Table6 {
    /// The row of one algorithm.
    pub fn row(&self, algorithm: &str) -> Option<&Table6Row> {
        self.rows.iter().find(|r| r.algorithm == algorithm)
    }
}

impl std::fmt::Display for Table6 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Table 6: cost models in a clustered case — {}",
            self.label
        )?;
        writeln!(
            f,
            "{:<8} {:>3} {:>8} {:>11} {:>11} {:>10} {:>7}",
            "algo", "m", "R^2", "SEE", "avg cost", "very good", "good"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:<8} {:>3} {:>8.3} {:>11.3e} {:>11.3e} {:>9.0}% {:>6.0}%",
                r.algorithm,
                r.states,
                r.r_squared,
                r.see,
                r.avg_cost,
                r.quality.very_good_pct,
                r.quality.good_pct
            )?;
        }
        Ok(())
    }
}

/// Runs the clustered-contention comparison for `class` on the Oracle site.
pub fn table6(
    class: QueryClass,
    sample_size: Option<usize>,
    test_queries: usize,
) -> Result<Table6, CoreError> {
    let site = Site::Oracle;
    let family = class.family();
    let n = sample_size.unwrap_or_else(|| {
        mdbs_core::sampling::planned_sample_size(family, StatesConfig::default().max_states)
    });

    // One shared sample in the clustered environment.
    let mut agent = site.clustered_agent(seed_for(site, class, 20));
    let mut generator = SampleGenerator::new(seed_for(site, class, 21));
    let base_observations = collect_observations(&mut agent, class, n, &mut generator, None)?;
    let avg_cost =
        base_observations.iter().map(|o| o.cost).sum::<f64>() / base_observations.len() as f64;

    let basic = family.basic_indexes();
    let basic_names: Vec<String> = basic
        .iter()
        .map(|&i| family.all()[i].name.to_string())
        .collect();

    // ICMA first (its natural state count becomes the matched budget).
    let fit_algo = |algo: StateAlgorithm, cap: Option<usize>| -> Result<CostModel, CoreError> {
        let mut obs = base_observations.clone();
        let cfg = StatesConfig {
            max_states: cap.unwrap_or_else(|| StatesConfig::default().max_states),
            ..StatesConfig::default()
        };
        let states_result = determine_states(
            algo,
            &mut obs,
            &basic,
            &basic_names,
            &cfg,
            &mut NoResampling,
            &mut PipelineCtx::default(),
        )?;
        let sel = select_variables(
            family,
            &obs,
            &states_result.model.states,
            &SelectionConfig::default(),
            &mut PipelineCtx::default(),
        )?;
        Ok(sel.model)
    };
    let icma_model = fit_algo(StateAlgorithm::Icma, None)?;
    let iupma_model = fit_algo(StateAlgorithm::Iupma, Some(icma_model.num_states()))?;

    // Shared test workload, both models priced per query.
    let points = run_test_suite(
        &mut agent,
        class,
        &[&iupma_model, &icma_model],
        test_queries,
        seed_for(site, class, 22),
    )?;

    let rows = vec![
        Table6Row {
            algorithm: "IUPMA".into(),
            states: iupma_model.num_states(),
            r_squared: iupma_model.fit.r_squared,
            see: iupma_model.fit.see,
            avg_cost,
            quality: quality(&test_points(&points, 0)),
            model: iupma_model,
        },
        Table6Row {
            algorithm: "ICMA".into(),
            states: icma_model.num_states(),
            r_squared: icma_model.fit.r_squared,
            see: icma_model.fit.see,
            avg_cost,
            quality: quality(&test_points(&points, 1)),
            model: icma_model,
        },
    ];
    Ok(Table6 {
        label: format!("{} on {}", class.label(), site.name()),
        rows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_algorithms_produce_valid_models() {
        let t = table6(QueryClass::UnaryNoIndex, Some(220), 40).unwrap();
        assert_eq!(t.rows.len(), 2);
        for r in &t.rows {
            assert!(r.states >= 2, "{} stayed single-state", r.algorithm);
            assert!(r.r_squared > 0.85, "{} R² {}", r.algorithm, r.r_squared);
        }
        assert!(t.row("IUPMA").is_some());
        assert!(t.row("ICMA").is_some());
        // Matched comparison: same sample, comparable state budgets.
        let (a, b) = (t.row("IUPMA").unwrap(), t.row("ICMA").unwrap());
        assert_eq!(a.avg_cost, b.avg_cost);
        assert!(a.states <= b.states);
    }

    #[test]
    fn icma_at_least_matches_iupma_on_clustered_loads() {
        let t = table6(QueryClass::UnaryNoIndex, Some(260), 60).unwrap();
        let iupma = t.row("IUPMA").unwrap();
        let icma = t.row("ICMA").unwrap();
        // The paper's shape: with the same data and state budget, ICMA's
        // cluster-aligned boundaries fit the clustered case at least as
        // well as the uniform grid.
        assert!(
            icma.r_squared >= iupma.r_squared - 0.02,
            "ICMA {} vs IUPMA {}",
            icma.r_squared,
            iupma.r_squared
        );
    }
}
