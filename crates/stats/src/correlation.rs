//! Pearson simple correlation.
//!
//! The mixed backward/forward variable-selection procedure (paper §4.2)
//! ranks candidate explanatory variables by their *simple correlation
//! coefficient* with the response (or with the current model's residuals),
//! computed separately within each contention state and then averaged.

/// Pearson product-moment correlation between two equally long samples.
///
/// Returns `0.0` when either sample is constant (no linear relationship can
/// be measured), when the samples are shorter than two points, or when the
/// sums of squares overflow (values near `f64::MAX` make them `inf` and the
/// ratio `NaN`) — this is exactly the "contributes nothing" interpretation
/// the selection procedure wants for degenerate columns.
pub fn pearson(x: &[f64], y: &[f64]) -> f64 {
    let n = x.len().min(y.len());
    if n < 2 {
        return 0.0;
    }
    let nf = n as f64;
    let mx = x[..n].iter().sum::<f64>() / nf;
    let my = y[..n].iter().sum::<f64>() / nf;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for i in 0..n {
        let dx = x[i] - mx;
        let dy = y[i] - my;
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    let r = sxy / (sxx.sqrt() * syy.sqrt());
    if sxx <= 0.0 || syy <= 0.0 || r.is_nan() {
        return 0.0;
    }
    r.clamp(-1.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::pearson;

    #[test]
    fn perfect_positive_and_negative() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let y: Vec<f64> = x.iter().map(|v| 2.0 * v + 1.0).collect();
        assert!((pearson(&x, &y) - 1.0).abs() < 1e-12);
        let yn: Vec<f64> = x.iter().map(|v| -3.0 * v).collect();
        assert!((pearson(&x, &yn) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn constant_series_yields_zero() {
        assert_eq!(pearson(&[1.0, 1.0, 1.0], &[1.0, 2.0, 3.0]), 0.0);
        assert_eq!(pearson(&[1.0, 2.0, 3.0], &[5.0, 5.0, 5.0]), 0.0);
    }

    #[test]
    fn overflowing_sums_yield_zero() {
        let x = [1e200, -1e200, 3.0, 4.0];
        assert_eq!(pearson(&x, &[1.0, 2.0, 3.0, 5.0]), 0.0);
        assert_eq!(pearson(&[1.0, 2.0, 3.0, 5.0], &x), 0.0);
    }

    #[test]
    fn short_series_yields_zero() {
        assert_eq!(pearson(&[1.0], &[2.0]), 0.0);
        assert_eq!(pearson(&[], &[]), 0.0);
    }

    #[test]
    fn symmetric() {
        let x = [1.0, 3.0, 2.0, 5.0, 4.0];
        let y = [2.0, 1.0, 4.0, 3.0, 6.0];
        assert!((pearson(&x, &y) - pearson(&y, &x)).abs() < 1e-15);
    }

    #[test]
    fn known_value() {
        // Hand-computed example: r = 0.9 for this classic pair.
        let x = [1.0, 2.0, 3.0, 4.0, 5.0];
        let y = [2.0, 4.0, 5.0, 4.0, 5.0];
        let r = pearson(&x, &y);
        assert!((r - 0.7745966692).abs() < 1e-9, "{r}");
    }

    #[test]
    fn bounded_in_unit_interval() {
        let x = [1.0, -2.0, 3.5, 0.0, 9.0, -4.0];
        let y = [0.3, 8.0, -1.0, 2.0, 2.0, 0.0];
        let r = pearson(&x, &y);
        assert!((-1.0..=1.0).contains(&r));
    }
}
