//! Probing-cost estimation from system statistics (paper §3.3, eq. (2)).
//!
//! Executing the probing query before every cost estimate adds overhead. The
//! paper's alternative: fit a regression `C_probe = β0 + β1·s1 + … + βq·sq`
//! between the probing cost and a few major contention parameters (CPU
//! load, I/O utilization, used memory, …), then *estimate* the probing cost
//! from a statistics snapshot — "a standard statistical procedure can be
//! used to determine the significant parameters", implemented here as
//! backward elimination on coefficient t-tests.

use crate::CoreError;
use mdbs_sim::SystemStats;
use mdbs_stats::{Matrix, OlsFit};

/// A fitted probing-cost estimator.
#[derive(Debug, Clone)]
pub struct ProbeCostEstimator {
    /// Indexes of the retained predictors within
    /// [`SystemStats::probe_predictors`].
    pub selected: Vec<usize>,
    /// Names of the retained predictors.
    pub names: Vec<String>,
    /// Intercept followed by one coefficient per retained predictor.
    pub coefficients: Vec<f64>,
    /// R² of the final fit.
    pub r_squared: f64,
    /// Standard error of estimation of the final fit.
    pub see: f64,
}

impl ProbeCostEstimator {
    /// Fits eq. (2) on `(statistics snapshot, observed probing cost)` pairs,
    /// keeping only parameters significant at level `alpha`.
    pub fn fit(samples: &[(SystemStats, f64)], alpha: f64) -> Result<Self, CoreError> {
        Self::fit_rows(
            samples.iter().map(|(s, c)| (s.probe_predictors(), *c)),
            alpha,
        )
    }

    /// [`Self::fit`] over `(predictors, observed probing cost)` rows, the
    /// predictors as [`SystemStats::probe_predictors`] orders them.
    pub(crate) fn fit_rows(
        rows: impl ExactSizeIterator<Item = ([f64; 4], f64)>,
        alpha: f64,
    ) -> Result<Self, CoreError> {
        let all_names = SystemStats::probe_predictor_names();
        let q = all_names.len();
        if rows.len() < q + 3 {
            return Err(CoreError::InsufficientSamples {
                needed: q + 3,
                got: rows.len(),
            });
        }
        // Every sample's predictors, read once: row r is
        // preds[r·q..(r+1)·q].
        let mut preds = Vec::with_capacity(rows.len() * q);
        let mut y = Vec::with_capacity(rows.len());
        for (row, cost) in rows {
            preds.extend_from_slice(&row);
            y.push(cost);
        }
        let mut selected: Vec<usize> = (0..q).collect();
        // Drop constant predictors up front (zero variance breaks OLS).
        selected.retain(|&j| {
            let first = preds[j];
            preds
                .iter()
                .skip(j)
                .step_by(q)
                .any(|v| (v - first).abs() > 1e-12)
        });
        loop {
            let fitted = Self::fit_subset(&preds, q, &y, &selected)?;
            // Find the least significant predictor (skip the intercept).
            let worst = fitted
                .t_p_values
                .iter()
                .enumerate()
                .skip(1)
                .max_by(|(_, a), (_, b)| a.partial_cmp(b).expect("finite p-values"));
            match worst {
                Some((pos, &p)) if p > alpha && selected.len() > 1 => {
                    selected.remove(pos - 1);
                }
                _ => {
                    return Ok(ProbeCostEstimator {
                        names: selected.iter().map(|&j| all_names[j].to_string()).collect(),
                        selected,
                        coefficients: fitted.coefficients,
                        r_squared: fitted.r_squared,
                        see: fitted.see,
                    });
                }
            }
        }
    }

    /// Fits the intercept and the `selected` columns of the row-major
    /// `preds` (rows of width `q`) to `y`.
    fn fit_subset(
        preds: &[f64],
        q: usize,
        y: &[f64],
        selected: &[usize],
    ) -> Result<OlsFit, CoreError> {
        let width = selected.len() + 1;
        let mut data = Vec::with_capacity(y.len() * width);
        for row in preds.chunks_exact(q) {
            data.push(1.0);
            data.extend(selected.iter().map(|&j| row[j]));
        }
        let x = Matrix::from_vec(y.len(), width, data).map_err(CoreError::Numeric)?;
        OlsFit::fit(&x, y, true).map_err(CoreError::Numeric)
    }

    /// Estimates the probing cost from a statistics snapshot.
    pub fn estimate(&self, stats: &SystemStats) -> f64 {
        let preds = stats.probe_predictors();
        let mut c = self.coefficients[0];
        for (k, &j) in self.selected.iter().enumerate() {
            c += self.coefficients[k + 1] * preds[j];
        }
        c.max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdbs_sim::contention::Load;
    use mdbs_sim::datagen::standard_database;
    use mdbs_sim::{MdbsAgent, VendorProfile};
    use mdbs_stats::rng::Rng;

    /// Gathers (stats, probe cost) pairs across the load range.
    fn gather(n: usize) -> Vec<(SystemStats, f64)> {
        let mut agent = MdbsAgent::new(VendorProfile::oracle8(), standard_database(42), 11);
        let mut rng = Rng::seed_from_u64(5);
        (0..n)
            .map(|_| {
                agent.set_load(Load::background(rng.gen_range(0.0..130.0)));
                let stats = agent.stats();
                let probe = agent.probe();
                (stats, probe)
            })
            .collect()
    }

    #[test]
    fn estimator_tracks_probe_cost() {
        let samples = gather(150);
        let est = ProbeCostEstimator::fit(&samples, 0.05).unwrap();
        assert!(est.r_squared > 0.8, "R² only {}", est.r_squared);
        // Held-out check: estimates within a reasonable band on average.
        let holdout = gather(40);
        let mut rel = 0.0;
        for (s, c) in &holdout {
            rel += ((est.estimate(s) - c) / c).abs();
        }
        rel /= holdout.len() as f64;
        assert!(rel < 0.5, "mean relative error {rel}");
    }

    #[test]
    fn insignificant_parameters_are_dropped() {
        let samples = gather(150);
        let est = ProbeCostEstimator::fit(&samples, 0.05).unwrap();
        assert!(!est.selected.is_empty());
        assert_eq!(est.selected.len(), est.names.len());
        assert_eq!(est.coefficients.len(), est.selected.len() + 1);
    }

    #[test]
    fn too_few_samples_is_an_error() {
        let samples = gather(4);
        assert!(matches!(
            ProbeCostEstimator::fit(&samples, 0.05),
            Err(CoreError::InsufficientSamples { .. })
        ));
    }

    #[test]
    fn estimate_is_nonnegative() {
        let samples = gather(120);
        let est = ProbeCostEstimator::fit(&samples, 0.05).unwrap();
        let mut agent = MdbsAgent::new(VendorProfile::db2v5(), standard_database(1), 3);
        agent.set_load(Load::idle());
        let s = agent.stats();
        assert!(est.estimate(&s) >= 0.0);
    }
}
