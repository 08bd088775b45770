//! Ordinary least squares with the diagnostic suite used by the paper.
//!
//! Given a design matrix `X` (the caller decides which columns it contains —
//! intercept, quantitative variables, indicator-gated interaction terms, …)
//! and a response vector `y`, [`OlsFit::fit`] produces coefficient estimates
//! together with the statistics the multi-states query sampling method keys
//! on:
//!
//! * the **coefficient of total (multiple) determination** R² and its
//!   adjusted variant — "the higher, the better" (paper §3.3, footnote 5),
//! * the **standard error of estimation** SEE = √(SSE / (n − k)) — "the
//!   smaller, the better" (footnote 6, and eq. (3) in §4.2),
//! * the overall **F statistic** and its p-value, used for model validation
//!   at significance level α = 0.01 (§5),
//! * per-coefficient standard errors and t statistics, used to pick the
//!   significant system-contention parameters for probing-cost estimation
//!   (§3.3, eq. (2)).

use crate::distributions::{f_p_value, student_t_quantile, t_p_value_two_sided};
use crate::matrix::{Matrix, QR_SINGULAR_RELATIVE_TOLERANCE};
use crate::StatsError;

/// Convenient alias: regression routines share the crate error type.
pub type RegressionError = StatsError;

/// The total sum of squares SST, computed from the response moments
/// `Σy²`, `Σy` and `n`.
///
/// This is the **single** place that decides centered vs uncentered SST
/// for every solver in the crate (the observation-space QR of
/// [`OlsFit::fit`] and the sufficient-statistics solver of
/// [`crate::suffstats::GramAccumulator::solve`]):
///
/// * with an intercept (or a full set of per-state indicator columns,
///   which spans the constant) SST is taken **about the mean** of `y`:
///   `Σy² − (Σy)²/n`, clamped at zero against floating-point
///   cancellation;
/// * without an intercept, **about zero**: `Σy²`.
pub fn total_sum_of_squares(yty: f64, sum_y: f64, n: usize, has_intercept: bool) -> f64 {
    if has_intercept {
        (yty - sum_y * sum_y / n as f64).max(0.0)
    } else {
        yty
    }
}

/// Whole-model goodness-of-fit diagnostics shared by the QR and Gram
/// solvers (see [`fit_summary`]).
#[derive(Debug, Clone, PartialEq)]
pub struct FitSummary {
    /// Coefficient of total determination R².
    pub r_squared: f64,
    /// Adjusted R².
    pub adj_r_squared: f64,
    /// Standard error of estimation √(SSE/(n−k)).
    pub see: f64,
    /// Overall F statistic.
    pub f_statistic: f64,
    /// Upper-tail p-value of the F statistic.
    pub f_p_value: f64,
}

/// Computes R², adjusted R², SEE and the overall F test from the two sums
/// of squares — the shared back half of every OLS solve in this crate.
///
/// Degenerate inputs follow the conventions the pipeline relies on:
/// `sst ≤ 0` gives R² = 1, and a perfect fit (`sse ≤ 0`) or a model with
/// no slope parameters reports `F = ∞` with p-value 0.
pub fn fit_summary(
    sse: f64,
    sst: f64,
    n: usize,
    k: usize,
    has_intercept: bool,
) -> Result<FitSummary, StatsError> {
    let df_resid = (n.saturating_sub(k)) as f64;
    // Number of slope parameters for the F test (intercept excluded).
    let df_model = if has_intercept {
        k.saturating_sub(1) as f64
    } else {
        k as f64
    };
    let r_squared = if sst > 0.0 { 1.0 - sse / sst } else { 1.0 };
    let adj_r_squared = if sst > 0.0 && df_resid > 0.0 {
        1.0 - (sse / df_resid) / (sst / (n as f64 - if has_intercept { 1.0 } else { 0.0 }))
    } else {
        r_squared
    };
    let see = if df_resid > 0.0 {
        (sse / df_resid).sqrt()
    } else {
        0.0
    };
    let (f_statistic, f_pv) = if df_model > 0.0 && df_resid > 0.0 && sse > 0.0 {
        let msr = (sst - sse).max(0.0) / df_model;
        let mse = sse / df_resid;
        let f = msr / mse;
        (f, f_p_value(f, df_model, df_resid)?)
    } else {
        (f64::INFINITY, 0.0)
    };
    Ok(FitSummary {
        r_squared,
        adj_r_squared,
        see,
        f_statistic,
        f_p_value: f_pv,
    })
}

/// Per-coefficient inference results, index-aligned with the coefficient
/// vector.
#[derive(Debug, Clone, PartialEq)]
pub struct CoefficientInference {
    /// Standard error of each coefficient.
    pub std_errors: Vec<f64>,
    /// t statistic of each coefficient.
    pub t_statistics: Vec<f64>,
    /// Two-sided p-value of each coefficient's t statistic.
    pub t_p_values: Vec<f64>,
}

/// Per-coefficient inference shared by the QR and Gram solvers: standard
/// errors `√(σ²·diag((XᵀX)⁻¹))`, t statistics and their two-sided
/// p-values. `inverse_diagonal` is `diag((XᵀX)⁻¹)`.
pub fn coefficient_inference(
    coefficients: &[f64],
    inverse_diagonal: &[f64],
    sse: f64,
    n: usize,
    k: usize,
) -> Result<CoefficientInference, StatsError> {
    let df_resid = (n.saturating_sub(k)) as f64;
    let sigma2 = if df_resid > 0.0 { sse / df_resid } else { 0.0 };
    let mut coef_std_errors = Vec::with_capacity(k);
    for &d in &inverse_diagonal[..k] {
        coef_std_errors.push((sigma2 * d).max(0.0).sqrt());
    }
    let mut t_statistics = Vec::with_capacity(k);
    let mut t_p_values = Vec::with_capacity(k);
    for i in 0..k {
        let t = if coef_std_errors[i] > 0.0 {
            coefficients[i] / coef_std_errors[i]
        } else {
            f64::INFINITY
        };
        t_statistics.push(t);
        t_p_values.push(if t.is_finite() && df_resid > 0.0 {
            t_p_value_two_sided(t, df_resid)?
        } else {
            0.0
        });
    }
    Ok(CoefficientInference {
        std_errors: coef_std_errors,
        t_statistics,
        t_p_values,
    })
}

/// The result of an ordinary-least-squares fit.
#[derive(Debug, Clone)]
pub struct OlsFit {
    /// Estimated coefficients, one per design-matrix column.
    pub coefficients: Vec<f64>,
    /// Fitted values `X·β`.
    pub fitted: Vec<f64>,
    /// Residuals `y − X·β`.
    pub residuals: Vec<f64>,
    /// Residual sum of squares.
    pub sse: f64,
    /// Total sum of squares (about the mean of `y`).
    pub sst: f64,
    /// Coefficient of total determination R².
    pub r_squared: f64,
    /// Adjusted R².
    pub adj_r_squared: f64,
    /// Standard error of estimation √(SSE/(n−k)).
    pub see: f64,
    /// Overall F statistic (regression mean square / residual mean square).
    pub f_statistic: f64,
    /// Upper-tail p-value of the F statistic.
    pub f_p_value: f64,
    /// Standard error of each coefficient.
    pub coef_std_errors: Vec<f64>,
    /// t statistic of each coefficient.
    pub t_statistics: Vec<f64>,
    /// Two-sided p-value of each coefficient's t statistic.
    pub t_p_values: Vec<f64>,
    /// Number of observations.
    pub n: usize,
    /// Number of fitted parameters (design-matrix columns).
    pub k: usize,
    /// `(XᵀX)⁻¹`, kept for interval construction.
    xtx_inverse: Matrix,
}

impl OlsFit {
    /// Fits `y ≈ X·β` by least squares and computes all diagnostics.
    ///
    /// `x` must have at least one more row than columns (one residual degree
    /// of freedom); rank deficiency surfaces as [`StatsError::Singular`].
    ///
    /// `has_intercept` controls how R² is computed: with an intercept (or
    /// a full set of per-state indicator columns, which spans the constant)
    /// SST is taken about the mean of `y`; without, about zero.
    ///
    /// The solve is a Householder QR of `X` whose reflectors are applied
    /// straight to `y` (`β = R⁻¹·(Qᵀy)[..k]`, see
    /// [`crate::matrix::HouseholderQr::solve`]): Q is never formed, so a
    /// fit costs O(n·k²) rather than O(n²·k).
    pub fn fit(x: &Matrix, y: &[f64], has_intercept: bool) -> Result<OlsFit, StatsError> {
        let n = x.rows();
        let k = x.cols();
        if y.len() != n {
            return Err(StatsError::DimensionMismatch {
                context: format!("fit: {} rows vs {} responses", n, y.len()),
            });
        }
        if n < k + 1 {
            return Err(StatsError::InsufficientData {
                needed: k + 1,
                got: n,
            });
        }
        let qr = x.householder_qr()?;
        let coefficients = qr.solve(y)?;
        let fitted = x.matvec(&coefficients)?;
        let residuals: Vec<f64> = y.iter().zip(&fitted).map(|(a, b)| a - b).collect();
        let sse: f64 = residuals.iter().map(|e| e * e).sum();
        let yty: f64 = y.iter().map(|v| v * v).sum();
        let sum_y: f64 = y.iter().sum();
        let sst = total_sum_of_squares(yty, sum_y, n, has_intercept);
        let summary = fit_summary(sse, sst, n, k, has_intercept)?;

        // Coefficient covariance: σ² (XᵀX)⁻¹ = σ² R⁻¹ R⁻ᵀ.
        let r_inv = qr.r().invert_upper_triangular()?;
        let xtx_inverse = r_inv.matmul(&r_inv.transpose())?;
        let inverse_diagonal: Vec<f64> = (0..k).map(|i| xtx_inverse[(i, i)]).collect();
        let inference = coefficient_inference(&coefficients, &inverse_diagonal, sse, n, k)?;

        Ok(OlsFit {
            coefficients,
            fitted,
            residuals,
            sse,
            sst,
            r_squared: summary.r_squared,
            adj_r_squared: summary.adj_r_squared,
            see: summary.see,
            f_statistic: summary.f_statistic,
            f_p_value: summary.f_p_value,
            coef_std_errors: inference.std_errors,
            t_statistics: inference.t_statistics,
            t_p_values: inference.t_p_values,
            n,
            k,
            xtx_inverse,
        })
    }

    /// Predicts the response for one design-matrix row.
    pub fn predict(&self, row: &[f64]) -> Result<f64, StatsError> {
        if row.len() != self.coefficients.len() {
            return Err(StatsError::DimensionMismatch {
                context: format!(
                    "predict: row has {} values, model has {} coefficients",
                    row.len(),
                    self.coefficients.len()
                ),
            });
        }
        Ok(row.iter().zip(&self.coefficients).map(|(a, b)| a * b).sum())
    }

    /// Whether the overall F-test rejects "all slopes are zero" at level
    /// `alpha` — the paper validates every derived cost model this way at
    /// α = 0.01.
    pub fn is_significant(&self, alpha: f64) -> bool {
        self.f_p_value < alpha
    }

    /// Leverage of a design row: `xᵀ (XᵀX)⁻¹ x`.
    fn leverage(&self, row: &[f64]) -> Result<f64, StatsError> {
        if row.len() != self.k {
            return Err(StatsError::DimensionMismatch {
                context: format!(
                    "leverage: row has {} values, model has {} columns",
                    row.len(),
                    self.k
                ),
            });
        }
        let v = self.xtx_inverse.matvec(row)?;
        Ok(row.iter().zip(&v).map(|(a, b)| a * b).sum())
    }

    /// `(1 − alpha)` confidence interval for the *mean response* at a
    /// design row.
    pub fn confidence_interval(&self, row: &[f64], alpha: f64) -> Result<(f64, f64), StatsError> {
        self.interval(row, alpha, 0.0)
    }

    /// `(1 − alpha)` prediction interval for a *new observation* at a
    /// design row — wider than the confidence interval by the residual
    /// variance.
    pub fn prediction_interval(&self, row: &[f64], alpha: f64) -> Result<(f64, f64), StatsError> {
        self.interval(row, alpha, 1.0)
    }

    fn interval(&self, row: &[f64], alpha: f64, extra: f64) -> Result<(f64, f64), StatsError> {
        if !(0.0 < alpha && alpha < 1.0) {
            return Err(StatsError::InvalidArgument(format!(
                "interval: alpha = {alpha} outside (0, 1)"
            )));
        }
        let df = (self.n - self.k) as f64;
        if df <= 0.0 {
            return Err(StatsError::InsufficientData {
                needed: self.k + 1,
                got: self.n,
            });
        }
        let yhat = self.predict(row)?;
        let h = self.leverage(row)?.max(0.0);
        let se = self.see * (extra + h).sqrt();
        let t = student_t_quantile(1.0 - alpha / 2.0, df)?;
        Ok((yhat - t * se, yhat + t * se))
    }
}

/// The result of [`fit_block_diagonal`]: the coefficients and the
/// whole-model diagnostics, without per-coefficient inference.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockDiagonalFit {
    /// Estimated coefficients, block after block.
    pub coefficients: Vec<f64>,
    /// Residual sum of squares over every row.
    pub sse: f64,
    /// Total sum of squares over every row (see [`total_sum_of_squares`]).
    pub sst: f64,
    /// R², adjusted R², SEE and the overall F test of the pooled fit.
    pub summary: FitSummary,
    /// Number of observations.
    pub n: usize,
    /// Number of fitted parameters.
    pub k: usize,
}

/// Least squares over a block-diagonal design, given as its diagonal
/// blocks `(X_b, y_b)`: block `b`'s rows touch only its own columns, which
/// follow block `b − 1`'s. The general qualitative model (paper Table 2)
/// is one, with a block per contention state.
///
/// Each block is one Householder QR whose reflectors are applied to `y_b`
/// ([`crate::matrix::HouseholderQr::solve`]), so the work is `Σ n_b·k_b²`
/// rather than `n·k²` for the assembled design. The singularity rule is
/// the assembled design's: a block with fewer rows than columns, or any
/// `|Rᵢᵢ|` at most [`QR_SINGULAR_RELATIVE_TOLERANCE`] times the largest
/// over every block, is [`StatsError::Singular`]. SSE and SST pool over
/// every row into one [`fit_summary`].
///
/// A single block reproduces [`OlsFit::fit`]'s coefficients, sums of
/// squares and summary bit for bit.
pub fn fit_block_diagonal(
    blocks: &[(Matrix, Vec<f64>)],
    has_intercept: bool,
) -> Result<BlockDiagonalFit, StatsError> {
    if let Some((x, y)) = blocks.iter().find(|(x, y)| x.rows() != y.len()) {
        return Err(StatsError::DimensionMismatch {
            context: format!("fit: {} rows vs {} responses", x.rows(), y.len()),
        });
    }
    let n: usize = blocks.iter().map(|(x, _)| x.rows()).sum();
    let k: usize = blocks.iter().map(|(x, _)| x.cols()).sum();
    if n < k + 1 {
        return Err(StatsError::InsufficientData {
            needed: k + 1,
            got: n,
        });
    }
    if blocks.iter().any(|(x, _)| x.rows() < x.cols()) {
        return Err(StatsError::Singular);
    }
    let factors = blocks
        .iter()
        .map(|(x, _)| x.householder_qr())
        .collect::<Result<Vec<_>, _>>()?;
    let r_diagonal = || {
        factors.iter().flat_map(|qr| {
            let r = qr.r();
            (0..r.rows()).map(move |i| r[(i, i)].abs())
        })
    };
    let scale = r_diagonal().fold(0.0f64, f64::max);
    if r_diagonal().any(|d| d <= QR_SINGULAR_RELATIVE_TOLERANCE * scale.max(1.0)) {
        return Err(StatsError::Singular);
    }
    let mut coefficients = Vec::with_capacity(k);
    let mut block_sse = Vec::with_capacity(blocks.len());
    for ((x, y), qr) in blocks.iter().zip(&factors) {
        let beta = qr.solve(y)?;
        let fitted = x.matvec(&beta)?;
        block_sse.push(
            y.iter()
                .zip(&fitted)
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f64>(),
        );
        coefficients.extend(beta);
    }
    let sse: f64 = block_sse.iter().sum();
    let responses = || blocks.iter().flat_map(|(_, y)| y);
    let yty: f64 = responses().map(|v| v * v).sum();
    let sum_y: f64 = responses().sum();
    let sst = total_sum_of_squares(yty, sum_y, n, has_intercept);
    let summary = fit_summary(sse, sst, n, k, has_intercept)?;
    Ok(BlockDiagonalFit {
        coefficients,
        sse,
        sst,
        summary,
        n,
        k,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn design(xs: &[f64]) -> Matrix {
        Matrix::from_rows(&xs.iter().map(|&x| vec![1.0, x]).collect::<Vec<_>>()).unwrap()
    }

    #[test]
    fn perfect_linear_fit_has_r2_one() {
        let xs = [0.0, 1.0, 2.0, 3.0, 4.0];
        let y: Vec<f64> = xs.iter().map(|x| 3.0 + 2.0 * x).collect();
        let fit = OlsFit::fit(&design(&xs), &y, true).unwrap();
        assert!((fit.coefficients[0] - 3.0).abs() < 1e-10);
        assert!((fit.coefficients[1] - 2.0).abs() < 1e-10);
        assert!((fit.r_squared - 1.0).abs() < 1e-10);
        assert!(fit.see < 1e-8);
    }

    #[test]
    fn r_squared_in_unit_interval() {
        let xs = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0];
        let y = [5.0, 3.0, 6.0, 2.0, 7.0, 4.0]; // Nearly-noise response.
        let fit = OlsFit::fit(&design(&xs), &y, true).unwrap();
        assert!((0.0..=1.0).contains(&fit.r_squared), "{}", fit.r_squared);
        assert!(fit.adj_r_squared <= fit.r_squared);
    }

    #[test]
    fn known_regression_example() {
        // Classic NIST-style check: y = 1 + 2x with small symmetric noise.
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let y = [3.1, 4.9, 7.1, 8.9, 11.1, 12.9];
        let fit = OlsFit::fit(&design(&xs), &y, true).unwrap();
        assert!((fit.coefficients[0] - 1.0).abs() < 0.2);
        assert!((fit.coefficients[1] - 2.0).abs() < 0.05);
        assert!(fit.r_squared > 0.999);
        assert!(fit.is_significant(0.01));
    }

    #[test]
    fn f_test_does_not_reject_pure_noise() {
        // x carries no information about y; F-test should not be significant.
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0];
        let y = [2.0, 2.1, 1.9, 2.0, 2.05, 1.95, 2.02, 1.98];
        let fit = OlsFit::fit(&design(&xs), &y, true).unwrap();
        assert!(!fit.is_significant(0.01), "p = {}", fit.f_p_value);
    }

    #[test]
    fn residuals_sum_to_zero_with_intercept() {
        let xs = [0.0, 1.0, 2.0, 3.0, 7.0];
        let y = [1.0, 4.0, 2.0, 8.0, 9.0];
        let fit = OlsFit::fit(&design(&xs), &y, true).unwrap();
        let s: f64 = fit.residuals.iter().sum();
        assert!(s.abs() < 1e-9);
    }

    #[test]
    fn multi_predictor_fit() {
        // y = 1 + 2 x1 - 3 x2, exact.
        let rows: Vec<Vec<f64>> = (0..12)
            .map(|i| {
                let x1 = (i % 4) as f64;
                let x2 = (i / 4) as f64;
                vec![1.0, x1, x2]
            })
            .collect();
        let x = Matrix::from_rows(&rows).unwrap();
        let y: Vec<f64> = rows.iter().map(|r| 1.0 + 2.0 * r[1] - 3.0 * r[2]).collect();
        let fit = OlsFit::fit(&x, &y, true).unwrap();
        assert!((fit.coefficients[1] - 2.0).abs() < 1e-9);
        assert!((fit.coefficients[2] + 3.0).abs() < 1e-9);
    }

    #[test]
    fn coefficient_t_stats_flag_irrelevant_column() {
        // x2 is irrelevant noise-free constant-ish column.
        let rows: Vec<Vec<f64>> = (0..30)
            .map(|i| {
                let x1 = i as f64;
                let x2 = ((i * 7919) % 13) as f64 / 13.0; // Pseudo-random, uncorrelated.
                vec![1.0, x1, x2]
            })
            .collect();
        let x = Matrix::from_rows(&rows).unwrap();
        let y: Vec<f64> = rows
            .iter()
            .enumerate()
            .map(|(i, r)| 5.0 + 4.0 * r[1] + if i % 2 == 0 { 0.3 } else { -0.3 })
            .collect();
        let fit = OlsFit::fit(&x, &y, true).unwrap();
        // x1 highly significant, x2 not.
        assert!(fit.t_p_values[1] < 1e-6);
        assert!(fit.t_p_values[2] > 0.05);
    }

    #[test]
    fn predict_matches_fitted() {
        let xs = [0.0, 1.0, 2.0, 3.0];
        let y = [1.0, 3.0, 5.0, 7.0];
        let x = design(&xs);
        let fit = OlsFit::fit(&x, &y, true).unwrap();
        for (i, &xi) in xs.iter().enumerate() {
            let p = fit.predict(&[1.0, xi]).unwrap();
            assert!((p - fit.fitted[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn prediction_interval_wider_than_confidence_interval() {
        let xs: Vec<f64> = (0..30).map(|i| i as f64).collect();
        let y: Vec<f64> = xs
            .iter()
            .enumerate()
            .map(|(i, x)| 2.0 + 3.0 * x + if i % 2 == 0 { 0.4 } else { -0.4 })
            .collect();
        let fit = OlsFit::fit(&design(&xs), &y, true).unwrap();
        let row = [1.0, 15.0];
        let (c_lo, c_hi) = fit.confidence_interval(&row, 0.05).unwrap();
        let (p_lo, p_hi) = fit.prediction_interval(&row, 0.05).unwrap();
        let yhat = fit.predict(&row).unwrap();
        assert!(c_lo < yhat && yhat < c_hi);
        assert!(p_lo < c_lo && c_hi < p_hi, "prediction not wider");
    }

    #[test]
    fn prediction_interval_covers_most_observations() {
        // 95% interval should cover ~all of these low-noise points.
        let xs: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let y: Vec<f64> = xs
            .iter()
            .enumerate()
            .map(|(i, x)| 1.0 + 0.5 * x + ((i * 31 % 7) as f64 - 3.0) * 0.1)
            .collect();
        let fit = OlsFit::fit(&design(&xs), &y, true).unwrap();
        let covered = xs
            .iter()
            .zip(&y)
            .filter(|(&x, &yv)| {
                let (lo, hi) = fit.prediction_interval(&[1.0, x], 0.05).unwrap();
                lo <= yv && yv <= hi
            })
            .count();
        assert!(covered >= 47, "covered only {covered}/50");
    }

    #[test]
    fn intervals_widen_away_from_the_data_center() {
        let xs: Vec<f64> = (0..20).map(|i| i as f64).collect();
        let y: Vec<f64> = xs
            .iter()
            .enumerate()
            .map(|(i, x)| x + if i % 2 == 0 { 0.3 } else { -0.3 })
            .collect();
        let fit = OlsFit::fit(&design(&xs), &y, true).unwrap();
        let width = |x: f64| {
            let (lo, hi) = fit.confidence_interval(&[1.0, x], 0.05).unwrap();
            hi - lo
        };
        assert!(width(50.0) > width(9.5), "no extrapolation penalty");
    }

    #[test]
    fn interval_validates_inputs() {
        let fit = OlsFit::fit(&design(&[0.0, 1.0, 2.0, 3.0]), &[0.0, 1.0, 2.0, 3.0], true).unwrap();
        assert!(fit.prediction_interval(&[1.0], 0.05).is_err());
        assert!(fit.prediction_interval(&[1.0, 2.0], 0.0).is_err());
        assert!(fit.prediction_interval(&[1.0, 2.0], 1.0).is_err());
    }

    #[test]
    fn fit_requires_spare_degree_of_freedom() {
        let x = design(&[0.0, 1.0]);
        assert!(matches!(
            OlsFit::fit(&x, &[1.0, 2.0], true),
            Err(StatsError::InsufficientData { .. })
        ));
    }

    #[test]
    fn predict_rejects_wrong_width() {
        let fit = OlsFit::fit(&design(&[0.0, 1.0, 2.0]), &[0.0, 1.0, 2.0], true).unwrap();
        assert!(fit.predict(&[1.0]).is_err());
    }
}
