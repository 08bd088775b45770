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
///
/// Samples of different lengths are cut to the shorter one. The arithmetic
/// is [`Centered::correlation`]'s, so both give the same bits.
pub fn pearson(x: &[f64], y: &[f64]) -> f64 {
    let n = x.len().min(y.len());
    if n < 2 {
        return 0.0;
    }
    Centered::new(&x[..n]).correlation(&Centered::new(&y[..n]))
}

/// A sample's deviations from its own mean and their sum of squares: the
/// half of [`pearson`] that does not depend on the other sample. A column
/// correlated with many targets — one state's variable against the
/// response, then against each forward step's residuals — is centred once.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Centered {
    dev: Vec<f64>,
    ss: f64,
}

impl Centered {
    /// Centres a copy of `x`.
    pub fn new(x: &[f64]) -> Centered {
        Centered::from_vec(x.to_vec())
    }

    /// Centres `x` in place: the mean is the sum over the length, each
    /// deviation `x_i − x̄`, and the sum of squares adds them in order.
    pub fn from_vec(mut x: Vec<f64>) -> Centered {
        let mean = x.iter().sum::<f64>() / x.len() as f64;
        let mut ss = 0.0;
        for v in &mut x {
            *v -= mean;
            ss += *v * *v;
        }
        Centered { dev: x, ss }
    }

    /// Sample size.
    pub fn len(&self) -> usize {
        self.dev.len()
    }

    /// True for an empty sample.
    pub fn is_empty(&self) -> bool {
        self.dev.is_empty()
    }

    /// The Pearson correlation with another centred sample of the same
    /// length, with [`pearson`]'s conventions: `0.0` below two points, for
    /// a constant sample, or when a sum of squares overflows.
    pub fn correlation(&self, other: &Centered) -> f64 {
        let n = self.len().min(other.len());
        if n < 2 {
            return 0.0;
        }
        let mut sxy = 0.0;
        for (dx, dy) in self.dev[..n].iter().zip(&other.dev[..n]) {
            sxy += dx * dy;
        }
        let (sxx, syy) = (self.ss, other.ss);
        let r = sxy / (sxx.sqrt() * syy.sqrt());
        if sxx <= 0.0 || syy <= 0.0 || r.is_nan() {
            return 0.0;
        }
        r.clamp(-1.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::{pearson, Centered};

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

    /// The centred halves give `pearson`'s bits, reused across targets.
    #[test]
    fn centred_correlation_matches_pearson_bitwise() {
        let x = [1.0, -2.0, 3.5, 0.0, 9.0, -4.0, 1e-3];
        let targets: [[f64; 7]; 3] = [
            [0.3, 8.0, -1.0, 2.0, 2.0, 0.0, 5.5],
            [1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0],
            [1e200, -1e200, 3.0, 4.0, 0.0, 1.0, 2.0],
        ];
        let cx = Centered::new(&x);
        for y in &targets {
            let r = cx.correlation(&Centered::new(y));
            assert_eq!(r.to_bits(), pearson(&x, y).to_bits());
        }
        assert_eq!(
            Centered::new(&[2.0]).correlation(&Centered::new(&[3.0])),
            0.0
        );
    }

    #[test]
    fn bounded_in_unit_interval() {
        let x = [1.0, -2.0, 3.5, 0.0, 9.0, -4.0];
        let y = [0.3, 8.0, -1.0, 2.0, 2.0, 0.0];
        let r = pearson(&x, &y);
        assert!((-1.0..=1.0).contains(&r));
    }
}
