//! **E-TAB5** — paper Table 5: "Statistics for Cost Models".
//!
//! For each representative query class (G1, G2, G3) on each local DBS
//! (DB2, Oracle), three cost models are compared:
//!
//! * **multi-states** — the paper's method, derived in the dynamic
//!   environment (IUPMA),
//! * **one-state** — the static query sampling method applied to *dynamic*
//!   sampling data (Static Approach 2),
//! * **static** — the static method applied to data from a *static*
//!   environment (Static Approach 1), then evaluated in the dynamic one.
//!
//! Reported per model: R², standard error of estimation, average sample
//! cost, and the percentages of very-good (≤30 % relative error) and good
//! (within 2×) estimates on a held-out dynamic test workload.

use crate::experiments::{run_test_suite, test_points, MultiEstimatePoint};
use crate::workloads::{paper_classes, seed_for, Site};
use mdbs_core::classes::QueryClass;
use mdbs_core::derive::{derive_cost_model, DerivationConfig, DerivedModel};
use mdbs_core::model::CostModel;
use mdbs_core::pipeline::PipelineCtx;
use mdbs_core::states::{StateAlgorithm, StatesConfig};
use mdbs_core::validate::quality;
use mdbs_core::CoreError;

/// Scale of a Table-5 style run.
#[derive(Debug, Clone)]
pub struct Table5Config {
    /// Override sample size per derivation (None → paper eq. (4)).
    pub sample_size: Option<usize>,
    /// Maximum number of contention states.
    pub max_states: usize,
    /// Held-out test queries per combination.
    pub test_queries: usize,
}

impl Default for Table5Config {
    fn default() -> Self {
        Table5Config {
            sample_size: None,
            max_states: 6,
            test_queries: 100,
        }
    }
}

impl Table5Config {
    /// A reduced configuration for smoke tests and benches.
    pub fn quick() -> Self {
        Table5Config {
            sample_size: Some(180),
            max_states: 4,
            test_queries: 40,
        }
    }
}

/// All artifacts of one (site, class) combination — reused by Table 4 and
/// Figures 4–9.
#[derive(Debug, Clone)]
pub struct ComboResult {
    /// The site.
    pub site: Site,
    /// The query class.
    pub class: QueryClass,
    /// Paper-style label, e.g. `G1 (DB2 5.0)`.
    pub label: String,
    /// Multi-states derivation.
    pub derived: DerivedModel,
    /// Its one-state comparison model ([`DerivedModel::one_state`]).
    pub one_state: CostModel,
    /// Static Approach 1: derived in the static environment.
    pub static1: DerivedModel,
    /// Dynamic test workload; estimates are `[multi, one-state, static]`.
    pub points: Vec<MultiEstimatePoint>,
}

/// One printed row of Table 5.
#[derive(Debug, Clone)]
pub struct Table5Row {
    /// Combination label.
    pub combo: String,
    /// Model type (`multi-states (m)`, `one-state`, `static`).
    pub model_type: String,
    /// Number of contention states of the model.
    pub states: usize,
    /// R² on its own sampling data.
    pub r_squared: f64,
    /// Standard error of estimation on its own sampling data.
    pub see: f64,
    /// Average observed cost of its sample queries.
    pub avg_cost: f64,
    /// Percentage of very good estimates on the dynamic test workload.
    pub very_good_pct: f64,
    /// Percentage of good estimates on the dynamic test workload.
    pub good_pct: f64,
}

/// The full Table-5 result.
#[derive(Debug, Clone)]
pub struct Table5 {
    /// Three rows per combination.
    pub rows: Vec<Table5Row>,
    /// Underlying per-combination artifacts.
    pub combos: Vec<ComboResult>,
}

impl Table5 {
    /// The rows of one model type, in combo order.
    pub fn rows_of(&self, model_type: &str) -> Vec<&Table5Row> {
        self.rows
            .iter()
            .filter(|r| r.model_type == model_type)
            .collect()
    }
}

impl std::fmt::Display for Table5 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Table 5: statistics for cost models")?;
        writeln!(
            f,
            "{:<18} {:<16} {:>3} {:>8} {:>11} {:>11} {:>10} {:>7}",
            "class", "model type", "m", "R^2", "SEE", "avg cost", "very good", "good"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:<18} {:<16} {:>3} {:>8.3} {:>11.3e} {:>11.3e} {:>9.0}% {:>6.0}%",
                r.combo,
                r.model_type,
                r.states,
                r.r_squared,
                r.see,
                r.avg_cost,
                r.very_good_pct,
                r.good_pct
            )?;
        }
        Ok(())
    }
}

/// Derives everything for one (site, class) combination.
pub fn derive_combo(
    site: Site,
    class: QueryClass,
    label: &str,
    cfg: &Table5Config,
) -> Result<ComboResult, CoreError> {
    // Multi-states + one-state, derived in the dynamic environment.
    let mut dyn_agent = site.dynamic_agent(seed_for(site, class, 0));
    let derivation_cfg = DerivationConfig {
        states: StatesConfig {
            max_states: cfg.max_states,
            ..StatesConfig::default()
        },
        sample_size: cfg.sample_size,
        fit_probe_estimator: false,
        ..DerivationConfig::default()
    };
    let derived = derive_cost_model(
        &mut dyn_agent,
        class,
        StateAlgorithm::Iupma,
        &derivation_cfg,
        &mut PipelineCtx::seeded(seed_for(site, class, 1)),
    )?;

    // Static Approach 1: same budget, static environment, single state.
    let mut static_agent = site.static_agent(seed_for(site, class, 2));
    let static_cfg = DerivationConfig {
        states: StatesConfig {
            max_states: 1,
            ..StatesConfig::default()
        },
        sample_size: cfg.sample_size,
        fit_probe_estimator: false,
        ..DerivationConfig::default()
    };
    let static1 = derive_cost_model(
        &mut static_agent,
        class,
        StateAlgorithm::Iupma,
        &static_cfg,
        &mut PipelineCtx::seeded(seed_for(site, class, 3)),
    )?;

    // Held-out test workload in the dynamic environment, priced by all
    // three models at once.
    let one_state = derived.one_state()?;
    let points = run_test_suite(
        &mut dyn_agent,
        class,
        &[&derived.model, &one_state, &static1.model],
        cfg.test_queries,
        seed_for(site, class, 4),
    )?;

    Ok(ComboResult {
        site,
        class,
        label: format!("{label} ({})", site.name()),
        derived,
        one_state,
        static1,
        points,
    })
}

/// Runs the full Table-5 experiment: 3 classes × 2 sites × 3 model types.
/// The six (site, class) combinations are independent and fan out through
/// the worker pool (one worker per combination); rows keep the paper's
/// order because the pool returns results in job order.
pub fn table5(cfg: &Table5Config) -> Result<Table5, CoreError> {
    let mut jobs = Vec::new();
    for site in Site::all() {
        for (class, label) in paper_classes() {
            jobs.push((site, class, label));
        }
    }
    let workers = jobs.len();
    let (results, _report) = mdbs_core::pool::run_jobs(jobs, workers, |_, (site, class, label)| {
        derive_combo(site, class, label, cfg)
    });

    let mut combos = Vec::new();
    let mut rows = Vec::new();
    for result in results {
        {
            let combo = result?;
            let specs: [(&str, &DerivedModel, usize); 3] = [
                ("multi-states", &combo.derived, 0),
                ("one-state", &combo.derived, 1),
                ("static", &combo.static1, 2),
            ];
            for (kind, derivation, est_idx) in specs {
                let (model, avg_cost) = match kind {
                    "one-state" => (&combo.one_state, derivation.avg_sample_cost),
                    _ => (&derivation.model, derivation.avg_sample_cost),
                };
                let q = quality(&test_points(&combo.points, est_idx));
                rows.push(Table5Row {
                    combo: combo.label.clone(),
                    model_type: if kind == "multi-states" {
                        format!("multi-states ({})", model.num_states())
                    } else {
                        kind.to_string()
                    },
                    states: model.num_states(),
                    r_squared: model.fit.r_squared,
                    see: model.fit.see,
                    avg_cost,
                    very_good_pct: q.very_good_pct,
                    good_pct: q.good_pct,
                });
            }
            combos.push(combo);
        }
    }
    Ok(Table5 { rows, combos })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_combo_has_paper_shape() {
        let cfg = Table5Config::quick();
        let combo = derive_combo(Site::Oracle, QueryClass::UnaryNoIndex, "G1", &cfg).unwrap();
        // Multi-states fits the dynamic data better than one-state.
        assert!(combo.derived.model.fit.r_squared > combo.one_state.fit.r_squared);
        // The static model fits its own (static) data extremely well...
        assert!(combo.static1.model.fit.r_squared > 0.9);
        // ...but its sample costs are far below the dynamic ones.
        assert!(combo.static1.avg_sample_cost < combo.derived.avg_sample_cost);
        assert_eq!(combo.points.len(), cfg.test_queries);
    }

    #[test]
    fn quick_table_quality_ordering() {
        let cfg = Table5Config::quick();
        let combo = derive_combo(Site::Db2, QueryClass::UnaryNoIndex, "G1", &cfg).unwrap();
        let multi = quality(&test_points(&combo.points, 0));
        let one = quality(&test_points(&combo.points, 1));
        let stat = quality(&test_points(&combo.points, 2));
        // The paper's headline: multi-states gives the most good estimates,
        // the purely static model the fewest.
        assert!(
            multi.good_pct >= one.good_pct,
            "multi {} < one-state {}",
            multi.good_pct,
            one.good_pct
        );
        assert!(
            stat.good_pct < multi.good_pct,
            "static {} not worse than multi {}",
            stat.good_pct,
            multi.good_pct
        );
    }
}
