//! Ablations over the paper's design choices.
//!
//! * **E-FORMS** — §3.2 argues the qualitative variable must affect *both*
//!   the intercept and the slopes, because contention inflates the
//!   initialization cost and the per-tuple I/O/CPU costs alike: "the
//!   general qualitative regression model is more appropriate". This
//!   ablation fits all four forms of Table 2 on the same sample and scores
//!   them on the same test workload.
//! * **E-PROBE** — §3.3 proposes estimating the probing cost from system
//!   statistics (eq. (2)) instead of executing the probe, noting that
//!   "estimation errors may introduce certain inaccuracy". This ablation
//!   quantifies that inaccuracy: the same model, the same test workload,
//!   states selected once by the observed and once by the estimated
//!   probing cost.

use crate::experiments::{run_test_suite, test_points};
use crate::workloads::{seed_for, Site};
use mdbs_core::classes::QueryClass;
use mdbs_core::derive::{collect_observations, derive_cost_model, DerivationConfig};
use mdbs_core::model::{fit_cost_model, ModelForm};
use mdbs_core::pipeline::PipelineCtx;
use mdbs_core::probing::ProbeCostEstimator;
use mdbs_core::qualvar::StateSet;
use mdbs_core::sampling::SampleGenerator;
use mdbs_core::states::StateAlgorithm;
use mdbs_core::validate::{quality, Quality, TestPoint};
use mdbs_core::CoreError;
use mdbs_sim::agent::ExecutionSizes;

/// One row of the form ablation.
#[derive(Debug, Clone)]
pub struct FormRow {
    /// The regression form.
    pub form: ModelForm,
    /// Number of states the form actually distinguishes.
    pub states: usize,
    /// Raw parameters fitted.
    pub params: usize,
    /// R² on the shared sample.
    pub r_squared: f64,
    /// SEE on the shared sample.
    pub see: f64,
    /// Quality on the shared test workload.
    pub quality: Quality,
}

/// The E-FORMS result.
#[derive(Debug, Clone)]
pub struct FormsAblation {
    /// Workload label.
    pub label: String,
    /// One row per form (Coincident, Parallel, Concurrent, General).
    pub rows: Vec<FormRow>,
}

impl FormsAblation {
    /// The row of one form.
    pub fn row(&self, form: ModelForm) -> Option<&FormRow> {
        self.rows.iter().find(|r| r.form == form)
    }
}

impl std::fmt::Display for FormsAblation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Qualitative-form ablation (paper §3.2, Table 2) — {}",
            self.label
        )?;
        writeln!(
            f,
            "{:<12} {:>3} {:>7} {:>8} {:>11} {:>10} {:>7}",
            "form", "m", "params", "R^2", "SEE", "very good", "good"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:<12} {:>3} {:>7} {:>8.3} {:>11.3e} {:>9.0}% {:>6.0}%",
                format!("{:?}", r.form),
                r.states,
                r.params,
                r.r_squared,
                r.see,
                r.quality.very_good_pct,
                r.quality.good_pct
            )?;
        }
        Ok(())
    }
}

/// Runs the form ablation for one class at the Oracle site: one shared
/// sample, one shared state partition, one shared test workload.
pub fn forms_ablation(
    class: QueryClass,
    sample_size: usize,
    states_m: usize,
    test_queries: usize,
) -> Result<FormsAblation, CoreError> {
    let site = Site::Oracle;
    let family = class.family();
    let mut agent = site.dynamic_agent(seed_for(site, class, 40));
    let mut generator = SampleGenerator::new(seed_for(site, class, 41));
    let observations = collect_observations(&mut agent, class, sample_size, &mut generator, None)?;
    let (lo, hi) = observations
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(a, b), o| {
            (a.min(o.probe_cost), b.max(o.probe_cost))
        });
    let states = StateSet::uniform(lo, hi, states_m)?;
    let basic = family.basic_indexes();
    let names: Vec<String> = basic
        .iter()
        .map(|&i| family.all()[i].name.to_string())
        .collect();

    let mut models = Vec::new();
    for form in [
        ModelForm::Coincident,
        ModelForm::Parallel,
        ModelForm::Concurrent,
        ModelForm::General,
    ] {
        let st = if matches!(form, ModelForm::Coincident) {
            StateSet::single()
        } else {
            states.clone()
        };
        models.push(fit_cost_model(
            form,
            st,
            basic.clone(),
            names.clone(),
            &observations,
        )?);
    }

    let refs: Vec<&mdbs_core::model::CostModel> = models.iter().collect();
    let points = run_test_suite(
        &mut agent,
        class,
        &refs,
        test_queries,
        seed_for(site, class, 42),
    )?;

    let rows = models
        .iter()
        .enumerate()
        .map(|(k, m)| FormRow {
            form: m.form,
            states: m.num_states(),
            params: m.fit.k,
            r_squared: m.fit.r_squared,
            see: m.fit.see,
            quality: quality(&test_points(&points, k)),
        })
        .collect();
    Ok(FormsAblation {
        label: format!("{} on {}", class.label(), site.name()),
        rows,
    })
}

/// The E-PROBE result: the same model driven by observed vs estimated
/// probing costs.
#[derive(Debug, Clone)]
pub struct ProbeAblation {
    /// Workload label.
    pub label: String,
    /// eq. (2) fit quality.
    pub estimator_r_squared: f64,
    /// Names of the significant system-statistics parameters.
    pub estimator_parameters: Vec<String>,
    /// Quality with the observed probing cost.
    pub observed: Quality,
    /// Quality with the estimated probing cost.
    pub estimated: Quality,
    /// Fraction of test queries whose estimated probe landed in the same
    /// contention state as the observed one.
    pub state_agreement: f64,
}

impl std::fmt::Display for ProbeAblation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Probing-cost estimation ablation (paper §3.3, eq. (2)) — {}",
            self.label
        )?;
        writeln!(
            f,
            "eq.(2): R^2 = {:.3}, significant parameters: {}",
            self.estimator_r_squared,
            self.estimator_parameters.join(", ")
        )?;
        writeln!(
            f,
            "state agreement (estimated vs observed probe): {:.0}%",
            100.0 * self.state_agreement
        )?;
        writeln!(
            f,
            "{:<18} {:>10} {:>7}",
            "probe source", "very good", "good"
        )?;
        for (name, q) in [("observed", &self.observed), ("estimated", &self.estimated)] {
            writeln!(
                f,
                "{:<18} {:>9.0}% {:>6.0}%",
                name, q.very_good_pct, q.good_pct
            )?;
        }
        Ok(())
    }
}

/// Runs the probe-estimation ablation for one class at the Oracle site.
pub fn probe_ablation(
    class: QueryClass,
    sample_size: usize,
    test_queries: usize,
) -> Result<ProbeAblation, CoreError> {
    let site = Site::Oracle;
    let family = class.family();
    let mut agent = site.dynamic_agent(seed_for(site, class, 44));
    let cfg = DerivationConfig {
        sample_size: Some(sample_size),
        fit_probe_estimator: true,
        ..DerivationConfig::default()
    };
    let derived = derive_cost_model(
        &mut agent,
        class,
        StateAlgorithm::Iupma,
        &cfg,
        &mut PipelineCtx::seeded(seed_for(site, class, 45)),
    )?;
    let estimator: ProbeCostEstimator = derived
        .probe_estimator()
        .expect("estimator requested in config")?;

    // Test flow executed once; each query priced twice (observed probe vs
    // estimated probe from a statistics snapshot).
    let mut generator = SampleGenerator::new(seed_for(site, class, 46));
    let mut observed_pts = Vec::new();
    let mut estimated_pts = Vec::new();
    let mut agree = 0usize;
    let mut n = 0usize;
    while n < test_queries {
        let query = generator.generate(class, agent.catalog());
        let Some(x) = family.extract(agent.catalog(), &query) else {
            continue;
        };
        agent.tick();
        let stats = agent.stats();
        let probe_est = estimator.estimate(&stats);
        let probe_obs = agent.probe();
        let x_sel: Vec<f64> = derived.model.var_indexes.iter().map(|&i| x[i]).collect();
        let est_with_obs = derived.model.estimate(&x_sel, probe_obs);
        let est_with_est = derived.model.estimate(&x_sel, probe_est);
        if derived.model.states.state_of(probe_obs) == derived.model.states.state_of(probe_est) {
            agree += 1;
        }
        let exec = agent
            .run(&query)
            .map_err(|e| CoreError::Agent(e.to_string()))?;
        let result_card = match exec.sizes {
            ExecutionSizes::Unary(s) => s.result,
            ExecutionSizes::Join(s) => s.result,
        };
        observed_pts.push(TestPoint {
            observed: exec.cost_s,
            estimated: est_with_obs,
            result_card,
            probe_cost: probe_obs,
        });
        estimated_pts.push(TestPoint {
            observed: exec.cost_s,
            estimated: est_with_est,
            result_card,
            probe_cost: probe_est,
        });
        n += 1;
    }

    Ok(ProbeAblation {
        label: format!("{} on {}", class.label(), site.name()),
        estimator_r_squared: estimator.r_squared,
        estimator_parameters: estimator.names.clone(),
        observed: quality(&observed_pts),
        estimated: quality(&estimated_pts),
        state_agreement: agree as f64 / test_queries.max(1) as f64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn general_form_wins_the_ablation() {
        let a = forms_ablation(QueryClass::UnaryNoIndex, 260, 4, 50).unwrap();
        assert_eq!(a.rows.len(), 4);
        let general = a.row(ModelForm::General).unwrap();
        let coincident = a.row(ModelForm::Coincident).unwrap();
        let parallel = a.row(ModelForm::Parallel).unwrap();
        // §3.2's claim: the general form fits best; any state-aware form
        // beats the coincident (static) one.
        assert!(general.r_squared >= parallel.r_squared - 1e-9);
        assert!(general.r_squared > coincident.r_squared + 0.05);
        assert!(general.quality.good_pct >= coincident.quality.good_pct);
        // Parameter counts ordered as per Table 2.
        let concurrent = a.row(ModelForm::Concurrent).unwrap();
        assert!(coincident.params < parallel.params);
        assert!(parallel.params < concurrent.params);
        assert!(concurrent.params < general.params);
    }

    #[test]
    fn estimated_probe_is_nearly_as_good_as_observed() {
        let a = probe_ablation(QueryClass::UnaryNoIndex, 220, 50).unwrap();
        assert!(a.estimator_r_squared > 0.7);
        assert!(!a.estimator_parameters.is_empty());
        assert!(a.state_agreement > 0.5, "agreement {}", a.state_agreement);
        // The paper: estimation errors introduce *some* inaccuracy, but the
        // approach stays usable.
        assert!(
            a.estimated.good_pct >= a.observed.good_pct - 25.0,
            "estimated probe collapses quality: {} vs {}",
            a.estimated.good_pct,
            a.observed.good_pct
        );
    }
}
