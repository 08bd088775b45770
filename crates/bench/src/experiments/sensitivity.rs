//! **E-SENS** — sensitivity analysis (extension beyond the paper).
//!
//! Two sweeps probe the robustness of the multi-states method:
//!
//! * **observation noise** — how does estimate quality degrade as the
//!   momentary cost fluctuation grows? (The paper fixes one testbed noise
//!   level; a reproduction should know how sharp that edge is.)
//! * **dynamic-range width** — how do the chosen state count and the gap
//!   between the multi-states and the one-state model grow with the spread
//!   of the contention level? (At zero width the two must coincide — the
//!   static method is the multi-states method's special case, paper §1.)

use crate::experiments::{run_test_suite, test_points};
use crate::workloads::UNIFORM_LO;
use mdbs_core::classes::QueryClass;
use mdbs_core::derive::{derive_cost_model, DerivationConfig};
use mdbs_core::pipeline::PipelineCtx;
use mdbs_core::states::StateAlgorithm;
use mdbs_core::validate::{quality, Quality};
use mdbs_core::CoreError;
use mdbs_sim::datagen::standard_database;
use mdbs_sim::{ContentionProfile, LoadBuilder, MdbsAgent, VendorProfile};

/// One sweep point.
#[derive(Debug, Clone)]
pub struct SensitivityRow {
    /// The swept parameter's value.
    pub parameter: f64,
    /// Number of contention states the pipeline chose.
    pub states: usize,
    /// Multi-states R² on the sample.
    pub r_squared: f64,
    /// One-state R² on the same sample.
    pub one_state_r_squared: f64,
    /// Multi-states quality on held-out queries.
    pub multi: Quality,
    /// One-state quality on the same held-out queries.
    pub one_state: Quality,
}

/// A labelled sweep.
#[derive(Debug, Clone)]
pub struct Sensitivity {
    /// What is being swept.
    pub parameter_name: String,
    /// Sweep rows, in parameter order.
    pub rows: Vec<SensitivityRow>,
}

impl std::fmt::Display for Sensitivity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Sensitivity sweep over {}", self.parameter_name)?;
        writeln!(
            f,
            "{:>10} {:>3} {:>9} {:>12} {:>14} {:>13}",
            self.parameter_name, "m", "R^2", "1-state R^2", "multi vg/good", "1-state vg/g"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:>10.3} {:>3} {:>9.3} {:>12.3} {:>6.0}%/{:>4.0}% {:>6.0}%/{:>4.0}%",
                r.parameter,
                r.states,
                r.r_squared,
                r.one_state_r_squared,
                r.multi.very_good_pct,
                r.multi.good_pct,
                r.one_state.very_good_pct,
                r.one_state.good_pct
            )?;
        }
        Ok(())
    }
}

fn sweep_point(
    vendor: VendorProfile,
    profile: ContentionProfile,
    parameter: f64,
    sample_size: usize,
    test_queries: usize,
) -> Result<SensitivityRow, CoreError> {
    let mut agent = MdbsAgent::new(vendor, standard_database(42), 901);
    agent.set_load_builder(LoadBuilder::new(profile));
    let cfg = DerivationConfig {
        sample_size: Some(sample_size),
        fit_probe_estimator: false,
        ..DerivationConfig::default()
    };
    let derived = derive_cost_model(
        &mut agent,
        QueryClass::UnaryNoIndex,
        StateAlgorithm::Iupma,
        &cfg,
        &mut PipelineCtx::seeded(902),
    )?;
    let one_state = derived.one_state()?;
    let points = run_test_suite(
        &mut agent,
        QueryClass::UnaryNoIndex,
        &[&derived.model, &one_state],
        test_queries,
        903,
    )?;
    Ok(SensitivityRow {
        parameter,
        states: derived.model.num_states(),
        r_squared: derived.model.fit.r_squared,
        one_state_r_squared: one_state.fit.r_squared,
        multi: quality(&test_points(&points, 0)),
        one_state: quality(&test_points(&points, 1)),
    })
}

/// Sweep A: observation noise levels (relative standard deviation of the
/// multiplicative cost noise).
pub fn noise_sensitivity(
    sample_size: usize,
    test_queries: usize,
) -> Result<Sensitivity, CoreError> {
    let mut rows = Vec::new();
    for noise in [0.02, 0.05, 0.10, 0.20] {
        let mut vendor = VendorProfile::oracle8();
        vendor.noise_rel = noise;
        rows.push(sweep_point(
            vendor,
            ContentionProfile::Uniform {
                lo: UNIFORM_LO,
                hi: 125.0,
            },
            noise,
            sample_size,
            test_queries,
        )?);
    }
    Ok(Sensitivity {
        parameter_name: "noise".into(),
        rows,
    })
}

/// Sweep B: the width of the dynamic contention range (background
/// processes uniform in `[20, 20 + width]`).
pub fn range_sensitivity(
    sample_size: usize,
    test_queries: usize,
) -> Result<Sensitivity, CoreError> {
    let mut rows = Vec::new();
    for width in [20.0, 60.0, 105.0, 140.0] {
        rows.push(sweep_point(
            VendorProfile::oracle8(),
            ContentionProfile::Uniform {
                lo: UNIFORM_LO,
                hi: UNIFORM_LO + width,
            },
            width,
            sample_size,
            test_queries,
        )?);
    }
    Ok(Sensitivity {
        parameter_name: "range".into(),
        rows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noise_degrades_quality_monotonically_at_the_ends() {
        let s = noise_sensitivity(200, 40).unwrap();
        assert_eq!(s.rows.len(), 4);
        let first = &s.rows[0];
        let last = &s.rows[3];
        // 10x more noise must hurt both fit and estimate quality.
        assert!(first.r_squared > last.r_squared);
        assert!(
            first.multi.very_good_pct > last.multi.very_good_pct,
            "{} vs {}",
            first.multi.very_good_pct,
            last.multi.very_good_pct
        );
    }

    #[test]
    fn wider_dynamic_range_widens_the_one_state_gap() {
        let s = range_sensitivity(200, 40).unwrap();
        assert_eq!(s.rows.len(), 4);
        let narrow = &s.rows[0];
        let wide = &s.rows[3];
        // The one-state model collapses as the range grows...
        assert!(
            wide.one_state_r_squared < narrow.one_state_r_squared,
            "{} vs {}",
            wide.one_state_r_squared,
            narrow.one_state_r_squared
        );
        // ...while the multi-states model holds up.
        assert!(wide.r_squared > 0.85, "{}", wide.r_squared);
        let narrow_gap = narrow.r_squared - narrow.one_state_r_squared;
        let wide_gap = wide.r_squared - wide.one_state_r_squared;
        assert!(wide_gap > narrow_gap, "{narrow_gap} vs {wide_gap}");
    }
}
