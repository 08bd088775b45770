//! Variance inflation factors.
//!
//! Multicollinearity — explanatory variables highly correlated among
//! themselves — makes estimated regression coefficients unstable. The paper
//! (§4.3, citing Neter et al.) detects it with the variance inflation
//! factor: regress each explanatory variable on all the others and compute
//! `VIF_j = 1 / (1 − R²_j)`. Variables with large VIF are dropped from the
//! cost model.
//!
//! `R²_j` is a second-moment statistic, so [`gram_variance_inflation_factors`]
//! reads it off the sufficient statistics of the sample (a
//! [`GramAccumulator`] block) in O(p³) per variable, without touching the
//! observations; variable selection uses it. The observation-space
//! [`variance_inflation_factors`] runs one QR auxiliary regression per
//! variable and is kept as the reference the Gram route is tested against.

use crate::matrix::Matrix;
use crate::regression::OlsFit;
use crate::suffstats::{cholesky_factor, GramAccumulator, CHOLESKY_RELATIVE_TOLERANCE};
use crate::StatsError;

/// Conventional "large VIF" threshold (Neter et al. suggest 10).
pub const DEFAULT_VIF_THRESHOLD: f64 = 10.0;

/// Computes the variance inflation factor of every column of `columns`.
///
/// `columns` holds the candidate explanatory variables as equally long
/// slices (no intercept column — one is added internally to each auxiliary
/// regression). A column that is perfectly explained by the others gets
/// `f64::INFINITY`.
pub fn variance_inflation_factors(columns: &[Vec<f64>]) -> Result<Vec<f64>, StatsError> {
    let p = columns.len();
    if p == 0 {
        return Ok(Vec::new());
    }
    let n = columns[0].len();
    for (j, c) in columns.iter().enumerate() {
        if c.len() != n {
            return Err(StatsError::DimensionMismatch {
                context: format!("vif: column {j} has {} rows, expected {n}", c.len()),
            });
        }
    }
    if p == 1 {
        // A single variable cannot be collinear with others.
        return Ok(vec![1.0]);
    }
    let mut vifs = Vec::with_capacity(p);
    for j in 0..p {
        // Auxiliary regression of column j on the remaining columns.
        let mut rows = Vec::with_capacity(n);
        for i in 0..n {
            let mut row = Vec::with_capacity(p);
            row.push(1.0);
            for (k, col) in columns.iter().enumerate() {
                if k != j {
                    row.push(col[i]);
                }
            }
            rows.push(row);
        }
        let x = Matrix::from_rows(&rows)?;
        if n < p + 1 {
            return Err(StatsError::InsufficientData {
                needed: p + 1,
                got: n,
            });
        }
        let r2 = match OlsFit::fit(&x, &columns[j], true) {
            Ok(fit) => fit.r_squared,
            // Exact linear dependence *among the other columns* makes plain
            // OLS fail, but column j may still be far from their span. A
            // tiny ridge penalty regularizes the redundancy without
            // materially changing the projection, so R² stays meaningful.
            Err(StatsError::Singular) => ridge_r_squared(&x, &columns[j])?,
            Err(e) => return Err(e),
        };
        vifs.push(vif_from_r_squared(r2, 1e-12));
    }
    Ok(vifs)
}

/// `1 / (1 − R²)`, infinite once `R²` is within `resolution` of one.
fn vif_from_r_squared(r2: f64, resolution: f64) -> f64 {
    if r2 >= 1.0 - resolution {
        f64::INFINITY
    } else {
        1.0 / (1.0 - r2)
    }
}

/// A centred sum of squares `Σx² − (Σx)²/n` at or below this fraction of
/// the raw `Σx²` is rounding noise: the column is constant.
const CONSTANT_TOLERANCE: f64 = 1e-12;

/// Computes the variance inflation factors of the variables at positions
/// `which` from the sufficient statistics of their sample.
///
/// `block` holds the Gram statistics of the rows `[1, x₁, …, x_p]` (column
/// 0 is the intercept), so position `j` names column `j + 1`. The result
/// matches [`variance_inflation_factors`] on the same observations up to
/// rounding, with the same conventions:
///
/// * `R²_j` is `r_jᵀ·R⁻¹·r_j` over the correlation-scaled centred
///   cross-products (the Schur complement of the other variables). The
///   VIF is infinite once `1 − R²_j` falls to the resolution of moments
///   formed from raw sums, the Gram solver's pivot tolerance
///   [`CHOLESKY_RELATIVE_TOLERANCE`] (`1e-10`; the observation-space
///   route resolves `1e-12`), so an exact linear dependence is `∞` on
///   both routes and only VIFs above `1e10` read differently;
/// * a constant column is perfectly explained by the intercept: `∞`;
/// * when the *other* columns are linearly dependent (a constant one
///   included), `R²_j` comes from the same tiny ridge regression as the
///   observation-space route, built from the block's `XᵀX` and `Xᵀx_j`;
/// * one variable alone has VIF 1, and fewer than `p + 1` rows is
///   [`StatsError::InsufficientData`].
pub fn gram_variance_inflation_factors(
    block: &GramAccumulator,
    which: &[usize],
) -> Result<Vec<f64>, StatsError> {
    let k = block.k();
    let p = k.checked_sub(1).ok_or_else(|| {
        StatsError::InvalidArgument("vif: the Gram block has no intercept column".into())
    })?;
    if let Some(j) = which.iter().find(|&&j| j >= p) {
        return Err(StatsError::InvalidArgument(format!(
            "vif: variable {j} outside 0..{p}"
        )));
    }
    if p <= 1 {
        // A single variable cannot be collinear with others.
        return Ok(vec![1.0; which.len()]);
    }
    let n = block.n();
    if n < p + 1 {
        return Err(StatsError::InsufficientData {
            needed: p + 1,
            got: n,
        });
    }
    let xtx = block.xtx();
    let nf = n as f64;
    // Centred cross-products C_ab = Σx_a·x_b − Σx_a·Σx_b / n.
    let mut centred = vec![0.0; p * p];
    for a in 0..p {
        for b in 0..p {
            centred[a * p + b] = xtx[(a + 1) * k + b + 1] - xtx[a + 1] * xtx[b + 1] / nf;
        }
    }
    let constant: Vec<bool> = (0..p)
        .map(|a| centred[a * p + a] <= CONSTANT_TOLERANCE * xtx[(a + 1) * k + a + 1])
        .collect();
    // Correlation scale; only entries between non-constant columns are read.
    let sd: Vec<f64> = (0..p).map(|a| centred[a * p + a].sqrt()).collect();
    let mut corr = vec![1.0; p * p];
    for a in 0..p {
        for b in (0..p).filter(|&b| b != a) {
            corr[a * p + b] = centred[a * p + b] / (sd[a] * sd[b]);
        }
    }
    which
        .iter()
        .map(|&j| {
            if constant[j] {
                return Ok(f64::INFINITY);
            }
            let others: Vec<usize> = (0..p).filter(|&a| a != j).collect();
            let r2 = match centred_r_squared(&corr, p, j, &others, &constant) {
                Some(r2) => r2,
                None => gram_ridge_r_squared(block, j, &others, centred[j * p + j])?,
            };
            Ok(vif_from_r_squared(r2, CHOLESKY_RELATIVE_TOLERANCE))
        })
        .collect()
}

/// `R²` of variable `j` on `others` (plus the intercept) from the `p × p`
/// correlation matrix `corr` of the centred cross-products: with `R` the
/// correlations among `others` and `r_j` theirs with `j`,
/// `R² = ‖L⁻¹·r_j‖²` for the Cholesky factor `R = L·Lᵀ`. `None` when
/// `others` are linearly dependent: a constant column, or a Cholesky
/// pivot at the relative tolerance of the Gram solver.
fn centred_r_squared(
    corr: &[f64],
    p: usize,
    j: usize,
    others: &[usize],
    constant: &[bool],
) -> Option<f64> {
    if others.iter().any(|&a| constant[a]) {
        return None;
    }
    let q = others.len();
    let sub: Vec<f64> = others
        .iter()
        .flat_map(|&a| others.iter().map(move |&b| corr[a * p + b]))
        .collect();
    let l = cholesky_factor(q, &sub).ok()?;
    let mut z = vec![0.0; q];
    let mut r2 = 0.0;
    for (u, &a) in others.iter().enumerate() {
        let mut sum = corr[a * p + j];
        for t in 0..u {
            sum -= l[u * q + t] * z[t];
        }
        z[u] = sum / l[u * q + u];
        r2 += z[u] * z[u];
    }
    Some(r2)
}

/// [`ridge_r_squared`] from a Gram block: the ridge system over the
/// columns `[1, others]` takes its `XᵀX` and `Xᵀx_j` from the block, and
/// `SSE = Σx_j² − 2βᵀXᵀx_j + βᵀXᵀXβ`. `sst` is the centred `Σ(x_j − x̄_j)²`.
fn gram_ridge_r_squared(
    block: &GramAccumulator,
    j: usize,
    others: &[usize],
    sst: f64,
) -> Result<f64, StatsError> {
    let k = block.k();
    let xtx = block.xtx();
    let cols: Vec<usize> = std::iter::once(0)
        .chain(others.iter().map(|&a| a + 1))
        .collect();
    let q = cols.len();
    let gram: Vec<f64> = cols
        .iter()
        .flat_map(|&a| cols.iter().map(move |&b| xtx[a * k + b]))
        .collect();
    let xty: Vec<f64> = cols.iter().map(|&a| xtx[a * k + j + 1]).collect();
    let beta = ridge_solve(Matrix::from_vec(q, q, gram.clone())?, &xty)?;
    let bxy: f64 = beta.iter().zip(&xty).map(|(b, v)| b * v).sum();
    let mut bxxb = 0.0;
    for (i, row) in gram.chunks_exact(q).enumerate() {
        let xi: f64 = row.iter().zip(&beta).map(|(a, b)| a * b).sum();
        bxxb += beta[i] * xi;
    }
    let sse = xtx[(j + 1) * k + j + 1] - 2.0 * bxy + bxxb;
    Ok(if sst > 0.0 {
        (1.0 - sse / sst).clamp(0.0, 1.0)
    } else {
        1.0
    })
}

/// R² of a ridge regression `min ‖Xβ − y‖² + λ‖β‖²` with a vanishingly
/// small λ, used only when the auxiliary design is exactly rank-deficient.
fn ridge_r_squared(x: &Matrix, y: &[f64]) -> Result<f64, StatsError> {
    let xt = x.transpose();
    let beta = ridge_solve(xt.matmul(x)?, &xt.matvec(y)?)?;
    let fitted = x.matvec(&beta)?;
    let sse: f64 = y.iter().zip(&fitted).map(|(a, b)| (a - b) * (a - b)).sum();
    let mean = y.iter().sum::<f64>() / y.len() as f64;
    let sst: f64 = y.iter().map(|v| (v - mean) * (v - mean)).sum();
    Ok(if sst > 0.0 {
        (1.0 - sse / sst).clamp(0.0, 1.0)
    } else {
        1.0
    })
}

/// Solves `(XᵀX + λI)·β = Xᵀy` with `λ = 1e-10 · max(max diagonal, 1)`.
fn ridge_solve(mut xtx: Matrix, xty: &[f64]) -> Result<Vec<f64>, StatsError> {
    let k = xtx.cols();
    let lambda = {
        let max_diag = (0..k).fold(0.0f64, |acc, i| acc.max(xtx[(i, i)].abs()));
        1e-10 * max_diag.max(1.0)
    };
    for i in 0..k {
        xtx[(i, i)] += lambda;
    }
    xtx.solve(xty)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orthogonal_columns_have_vif_one() {
        // Two orthogonal (uncorrelated) columns.
        let c1: Vec<f64> = (0..20).map(|i| (i % 2) as f64).collect();
        let c2: Vec<f64> = (0..20).map(|i| ((i / 2) % 2) as f64).collect();
        let v = variance_inflation_factors(&[c1, c2]).unwrap();
        for vif in v {
            assert!((vif - 1.0).abs() < 1e-6, "{vif}");
        }
    }

    #[test]
    fn duplicated_column_has_infinite_vif() {
        let c1: Vec<f64> = (0..15).map(|i| i as f64).collect();
        let c2 = c1.clone();
        let c3: Vec<f64> = (0..15).map(|i| ((i * 31) % 7) as f64).collect();
        let v = variance_inflation_factors(&[c1, c2, c3]).unwrap();
        assert!(v[0].is_infinite());
        assert!(v[1].is_infinite());
        assert!(v[2].is_finite());
    }

    #[test]
    fn near_collinear_columns_have_large_vif() {
        let c1: Vec<f64> = (0..30).map(|i| i as f64).collect();
        let c2: Vec<f64> = c1
            .iter()
            .enumerate()
            .map(|(i, v)| 2.0 * v + if i % 2 == 0 { 0.01 } else { -0.01 })
            .collect();
        let v = variance_inflation_factors(&[c1, c2]).unwrap();
        assert!(v[0] > DEFAULT_VIF_THRESHOLD);
        assert!(v[1] > DEFAULT_VIF_THRESHOLD);
    }

    #[test]
    fn single_column_is_trivially_one() {
        let v = variance_inflation_factors(&[vec![1.0, 2.0, 3.0]]).unwrap();
        assert_eq!(v, vec![1.0]);
    }

    #[test]
    fn empty_input_ok() {
        assert!(variance_inflation_factors(&[]).unwrap().is_empty());
    }

    /// The Gram block of `columns` over the row `[1, x₁, …, x_p]`.
    fn block(columns: &[Vec<f64>]) -> GramAccumulator {
        let mut acc = GramAccumulator::new(columns.len() + 1);
        for i in 0..columns[0].len() {
            let row: Vec<f64> = std::iter::once(1.0)
                .chain(columns.iter().map(|c| c[i]))
                .collect();
            acc.add_row(&row, 0.0).unwrap();
        }
        acc
    }

    #[test]
    fn gram_route_follows_the_reference_conventions() {
        let c1: Vec<f64> = (0..30).map(|i| i as f64).collect();
        let c2: Vec<f64> = (0..30).map(|i| ((i * 31) % 7) as f64).collect();
        let c3: Vec<f64> = c1
            .iter()
            .enumerate()
            .map(|(i, v)| 2.0 * v + if i % 2 == 0 { 0.01 } else { -0.01 })
            .collect();
        let constant = vec![44.0; 30];
        let cases = [
            vec![c1.clone(), c2.clone()],
            vec![c1.clone(), c2.clone(), c3.clone()],
            // Duplicate: both copies are infinite, the third is not.
            vec![c1.clone(), c1.clone(), c2.clone()],
            // A constant column is infinite; the others then need the
            // ridge fallback, since the constant is collinear with the
            // intercept.
            vec![c1.clone(), constant, c2.clone()],
        ];
        for columns in &cases {
            let want = variance_inflation_factors(columns).unwrap();
            let all: Vec<usize> = (0..columns.len()).collect();
            let got = gram_variance_inflation_factors(&block(columns), &all).unwrap();
            for (g, w) in got.iter().zip(&want) {
                assert_eq!(g.is_infinite(), w.is_infinite(), "{got:?} vs {want:?}");
                // Centring raw sums loses about ε·VIF: the near-collinear
                // pair here has VIF 3e6.
                if w.is_finite() {
                    assert!((g - w).abs() <= 1e-7 * w, "{got:?} vs {want:?}");
                }
            }
            // One position alone reads the same value.
            let last = columns.len() - 1;
            let one = gram_variance_inflation_factors(&block(columns), &[last]).unwrap();
            assert_eq!(one[0].to_bits(), got[last].to_bits());
        }
        assert_eq!(
            gram_variance_inflation_factors(&block(std::slice::from_ref(&c1)), &[0]).unwrap(),
            vec![1.0]
        );
        let short = block(&[c1[..2].to_vec(), c2[..2].to_vec()]);
        assert_eq!(
            gram_variance_inflation_factors(&short, &[0]),
            Err(StatsError::InsufficientData { needed: 3, got: 2 })
        );
        assert!(gram_variance_inflation_factors(&block(&[c1, c2]), &[2]).is_err());
    }

    #[test]
    fn ragged_columns_rejected() {
        let r = variance_inflation_factors(&[vec![1.0, 2.0], vec![1.0]]);
        assert!(r.is_err());
    }
}
