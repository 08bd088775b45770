//! The general qualitative model (paper Table 2) has a block-diagonal
//! design: state `s`'s rows touch only state `s`'s `p + 1` columns. Both
//! of its solvers now work one block at a time, and these tests hold them
//! to the dense solves of the assembled design that they replaced:
//!
//! * `solve_block_diagonal` on the per-state Gram blocks, with
//!   `gram_coefficient_inference` for the standard errors, t statistics and
//!   p-values, is bit-identical to the dense `k × k` Gram solve (kept below
//!   verbatim, with its Cholesky helpers) over Cholesky, QR-fallback and
//!   singular systems;
//! * `fit_block_diagonal` on the per-state observation blocks agrees with
//!   `OlsFit::fit` of the assembled observation-space design within the
//!   `C·m·ε·κ(R)` bound of `qr_thin.rs` — the Householder reflectors of the
//!   dense QR mix rows of different states, so the two round differently —
//!   and both call the same designs singular;
//! * `fit_block_diagonal` on one block is `OlsFit::fit` bit for bit.

use mdbs_stats::distributions::t_p_value_two_sided;
use mdbs_stats::matrix::Matrix;
use mdbs_stats::regression::{fit_summary, total_sum_of_squares, CoefficientInference, OlsFit};
use mdbs_stats::rng::Rng;
use mdbs_stats::suffstats::CHOLESKY_RELATIVE_TOLERANCE;
use mdbs_stats::{
    fit_block_diagonal, gram_coefficient_inference, solve_block_diagonal, GramAccumulator, GramFit,
    StatsError,
};

// ---- The dense Gram solve the block solver replaced, verbatim except for
// ---- reading the accumulator through its getters and returning the
// ---- per-coefficient inference beside the fit (the block solve leaves it
// ---- to `gram_coefficient_inference`).

fn dense_solve(
    acc: &GramAccumulator,
    has_intercept: bool,
) -> Result<(GramFit, CoefficientInference), StatsError> {
    let (k, n) = (acc.k(), acc.n());
    if n < k + 1 {
        return Err(StatsError::InsufficientData {
            needed: k + 1,
            got: n,
        });
    }
    let (coefficients, xtx_inverse, cholesky) = match cholesky_factor(k, acc.xtx()) {
        Ok(l) => {
            let beta = cholesky_solve(k, &l, acc.xty());
            let inv = cholesky_inverse(k, &l);
            (beta, inv, true)
        }
        Err(StatsError::Singular) => {
            let a = Matrix::from_vec(k, k, acc.xtx().to_vec())?;
            let (q, r) = a.qr()?;
            let inv = r.invert_upper_triangular()?.matmul(&q.transpose())?;
            let beta = inv.matvec(acc.xty())?;
            (beta, inv, false)
        }
        Err(e) => return Err(e),
    };
    let bxy: f64 = coefficients.iter().zip(acc.xty()).map(|(b, v)| b * v).sum();
    let mut bxxb = 0.0;
    for i in 0..k {
        let row = &acc.xtx()[i * k..(i + 1) * k];
        let xi: f64 = row.iter().zip(&coefficients).map(|(a, b)| a * b).sum();
        bxxb += coefficients[i] * xi;
    }
    let sse = (acc.yty() - 2.0 * bxy + bxxb).max(0.0);
    let sst = total_sum_of_squares(acc.yty(), acc.sum_y(), n, has_intercept);
    let summary = fit_summary(sse, sst, n, k, has_intercept)?;
    let inference = coefficient_inference(&coefficients, &xtx_inverse, sse, n, k)?;
    let fit = GramFit {
        coefficients,
        sse,
        sst,
        r_squared: summary.r_squared,
        adj_r_squared: summary.adj_r_squared,
        see: summary.see,
        f_statistic: summary.f_statistic,
        f_p_value: summary.f_p_value,
        n,
        k,
        solved_by_cholesky: cholesky,
    };
    Ok((fit, inference))
}

fn cholesky_factor(k: usize, a: &[f64]) -> Result<Vec<f64>, StatsError> {
    let max_diag = (0..k).fold(0.0f64, |m, i| m.max(a[i * k + i].abs()));
    let tol = CHOLESKY_RELATIVE_TOLERANCE * max_diag.max(1.0);
    let mut l = vec![0.0; k * k];
    for i in 0..k {
        for j in 0..=i {
            let mut sum = a[i * k + j];
            for t in 0..j {
                sum -= l[i * k + t] * l[j * k + t];
            }
            if i == j {
                if sum <= tol {
                    return Err(StatsError::Singular);
                }
                l[i * k + i] = sum.sqrt();
            } else {
                l[i * k + j] = sum / l[j * k + j];
            }
        }
    }
    Ok(l)
}

fn cholesky_solve(k: usize, l: &[f64], b: &[f64]) -> Vec<f64> {
    let mut z = vec![0.0; k];
    for i in 0..k {
        let mut sum = b[i];
        for j in 0..i {
            sum -= l[i * k + j] * z[j];
        }
        z[i] = sum / l[i * k + i];
    }
    let mut x = vec![0.0; k];
    for i in (0..k).rev() {
        let mut sum = z[i];
        for j in (i + 1)..k {
            sum -= l[j * k + i] * x[j];
        }
        x[i] = sum / l[i * k + i];
    }
    x
}

fn cholesky_inverse(k: usize, l: &[f64]) -> Matrix {
    let mut inv = Matrix::zeros(k, k);
    for j in 0..k {
        let mut e = vec![0.0; k];
        e[j] = 1.0;
        let col = cholesky_solve(k, l, &e);
        for i in 0..k {
            inv[(i, j)] = col[i];
        }
    }
    inv
}

fn coefficient_inference(
    coefficients: &[f64],
    xtx_inverse: &Matrix,
    sse: f64,
    n: usize,
    k: usize,
) -> Result<CoefficientInference, StatsError> {
    let df_resid = (n.saturating_sub(k)) as f64;
    let sigma2 = if df_resid > 0.0 { sse / df_resid } else { 0.0 };
    let mut coef_std_errors = Vec::with_capacity(k);
    for i in 0..k {
        coef_std_errors.push((sigma2 * xtx_inverse[(i, i)]).max(0.0).sqrt());
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

// ---- Seeded block-diagonal samples.

/// How a sample's per-state columns are drawn.
#[derive(Debug, Clone, Copy)]
enum Kind {
    /// Unit-scale variables: Cholesky accepts every pivot.
    UnitScale,
    /// Cardinality-scale variables (up to 1e6): the intercept pivot falls
    /// below the tolerance relative to the largest diagonal entry, so the
    /// QR fallback runs.
    CardinalityScale,
    /// Each state's variables at its own scale, 1e-8 to 1e6: a state that
    /// is well conditioned alone can be singular against the largest
    /// diagonal of another state.
    MixedScale,
    /// One state's last variable duplicates its first: exactly singular.
    Duplicated,
    /// One state's variables are constant: collinear with its intercept.
    ConstantState,
}

const KINDS: [Kind; 5] = [
    Kind::UnitScale,
    Kind::CardinalityScale,
    Kind::MixedScale,
    Kind::Duplicated,
    Kind::ConstantState,
];

/// One state's observations: local rows `[1, x₁..x_p]` and responses.
struct StateSample {
    rows: Vec<Vec<f64>>,
    y: Vec<f64>,
}

fn sample(rng: &mut Rng, kind: Kind, states: usize, p: usize) -> Vec<StateSample> {
    let odd = rng.gen_range(0..states);
    (0..states)
        .map(|s| {
            let n = p + 2 + rng.gen_range(0usize..30);
            let scale = match kind {
                Kind::UnitScale => 1.0,
                Kind::CardinalityScale => 1e6,
                Kind::MixedScale => 10f64.powi(rng.gen_range(0usize..15) as i32 - 8),
                Kind::Duplicated | Kind::ConstantState => 1e3,
            };
            let truth: Vec<f64> = (0..=p).map(|_| rng.normal(0.0, 3.0)).collect();
            let mut rows = Vec::with_capacity(n);
            let mut y = Vec::with_capacity(n);
            for _ in 0..n {
                let mut row = vec![1.0];
                for _ in 0..p {
                    row.push(rng.gen_f64() * scale);
                }
                match kind {
                    Kind::Duplicated if s == odd && p >= 2 => row[p] = row[1],
                    Kind::ConstantState if s == odd => row[1..].fill(7.0),
                    _ => {}
                }
                let signal: f64 = row.iter().zip(&truth).map(|(a, b)| a * b).sum();
                y.push(signal + rng.normal(0.0, 1.0 + signal.abs() * 1e-3));
                rows.push(row);
            }
            StateSample { rows, y }
        })
        .collect()
}

fn accumulate(state: &StateSample) -> GramAccumulator {
    let mut acc = GramAccumulator::new(state.rows[0].len());
    for (row, &y) in state.rows.iter().zip(&state.y) {
        acc.add_row(row, y).unwrap();
    }
    acc
}

fn assert_same_bits(at: &str, what: &str, got: &[f64], want: &[f64]) {
    assert_eq!(got.len(), want.len(), "{at} {what}");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "{at} {what}[{i}]: {g} vs {w}");
    }
}

#[test]
fn block_gram_solve_is_bit_identical_to_the_dense_solve() {
    let mut rng = Rng::seed_from_u64(0xB10C_D1A6);
    let (mut cholesky, mut fallback, mut singular) = (0, 0, 0);
    for case in 0..3_000 {
        let kind = KINDS[case % KINDS.len()];
        let states = 1 + rng.gen_range(0usize..6);
        let p = rng.gen_range(0usize..6);
        let at = format!("case {case} {kind:?} states={states} p={p}");
        let blocks: Vec<GramAccumulator> = sample(&mut rng, kind, states, p)
            .iter()
            .map(accumulate)
            .collect();
        // The assembled general-form Gram matrix: state s at columns
        // s·(p+1)..(s+1)·(p+1), exact zeros elsewhere.
        let mut dense = GramAccumulator::new(states * (p + 1));
        for (s, block) in blocks.iter().enumerate() {
            let placement: Vec<usize> = (s * (p + 1)..(s + 1) * (p + 1)).collect();
            dense.merge_placed(block, &placement).unwrap();
        }
        match (
            solve_block_diagonal(&blocks, true),
            dense_solve(&dense, true),
        ) {
            (Ok(got), Ok((want, want_inference))) => {
                assert_same_bits(&at, "coefficients", &got.coefficients, &want.coefficients);
                assert_same_bits(
                    &at,
                    "sums and summary",
                    &[
                        got.sse,
                        got.sst,
                        got.r_squared,
                        got.adj_r_squared,
                        got.see,
                        got.f_statistic,
                        got.f_p_value,
                    ],
                    &[
                        want.sse,
                        want.sst,
                        want.r_squared,
                        want.adj_r_squared,
                        want.see,
                        want.f_statistic,
                        want.f_p_value,
                    ],
                );
                let inference = gram_coefficient_inference(&blocks, &got).unwrap();
                assert_same_bits(
                    &at,
                    "std errors",
                    &inference.std_errors,
                    &want_inference.std_errors,
                );
                assert_same_bits(
                    &at,
                    "t",
                    &inference.t_statistics,
                    &want_inference.t_statistics,
                );
                assert_same_bits(
                    &at,
                    "t p-values",
                    &inference.t_p_values,
                    &want_inference.t_p_values,
                );
                assert_eq!((got.n, got.k), (want.n, want.k), "{at}");
                assert_eq!(got.solved_by_cholesky, want.solved_by_cholesky, "{at}");
                if want.solved_by_cholesky {
                    cholesky += 1;
                } else {
                    fallback += 1;
                }
            }
            (Err(got), Err(want)) => {
                assert_eq!(got, want, "{at}");
                singular += 1;
            }
            (got, want) => panic!("{at}: {got:?} vs {want:?}"),
        }
    }
    println!("cholesky {cholesky}, QR fallback {fallback}, singular {singular}");
    assert!(cholesky >= 200, "{cholesky} Cholesky solves");
    assert!(fallback >= 500, "{fallback} QR-fallback solves");
    assert!(singular >= 500, "{singular} singular systems");
}

/// The constant of the `ε·κ(R)` bound, as in `qr_thin.rs`.
const FIT_BOUND_C: f64 = 16.0;

#[test]
fn per_state_fit_matches_the_dense_qr_within_eps_kappa() {
    let mut rng = Rng::seed_from_u64(0x5747_E0F1);
    let (mut fits, mut singular) = (0, 0);
    let mut worst = [0.0f64; 3];
    for case in 0..600 {
        let kind = KINDS[case % KINDS.len()];
        if matches!(kind, Kind::MixedScale) {
            continue; // Near the threshold the two R diagonals may disagree.
        }
        let states = 1 + rng.gen_range(0usize..5);
        let p = rng.gen_range(0usize..5);
        let at = format!("case {case} {kind:?} states={states} p={p}");
        let samples = sample(&mut rng, kind, states, p);
        let groups: Vec<(Matrix, Vec<f64>)> = samples
            .iter()
            .map(|s| (Matrix::from_rows(&s.rows).unwrap(), s.y.clone()))
            .collect();
        // The assembled observation-space design, states interleaved in a
        // shuffled row order as observations arrive.
        let width = states * (p + 1);
        let mut rows: Vec<(Vec<f64>, f64)> = Vec::new();
        for (s, sample) in samples.iter().enumerate() {
            for (local, &y) in sample.rows.iter().zip(&sample.y) {
                let mut row = vec![0.0; width];
                row[s * (p + 1)..(s + 1) * (p + 1)].copy_from_slice(local);
                rows.push((row, y));
            }
        }
        rng.shuffle(&mut rows);
        let (design, y): (Vec<Vec<f64>>, Vec<f64>) = rows.into_iter().unzip();
        let x = Matrix::from_rows(&design).unwrap();
        let (got, want) = match (fit_block_diagonal(&groups, true), OlsFit::fit(&x, &y, true)) {
            (Ok(got), Ok(want)) => (got, want),
            (Err(got), Err(want)) => {
                assert_eq!(got, want, "{at}");
                singular += 1;
                continue;
            }
            (got, want) => panic!("{at}: {got:?} vs {:?}", want.map(|w| w.coefficients)),
        };
        // As in qr_thin.rs: ‖Δβ‖ ≤ C·m·ε·κ(R)·(‖β‖ + ‖y‖/‖R‖), fitted
        // values move by at most δ = ‖R‖·‖Δβ‖, SSE by 2·√SSE·δ + δ² plus
        // its own rounding, R² by that over SST.
        let m = y.len();
        let eps = f64::EPSILON;
        let norm = |v: &[f64]| v.iter().map(|a| a * a).sum::<f64>().sqrt();
        let frob = |a: &Matrix| {
            let mut s = 0.0;
            for i in 0..a.rows() {
                s += a.row(i).iter().map(|v| v * v).sum::<f64>();
            }
            s.sqrt()
        };
        let r = x.householder_qr().unwrap().r().clone();
        let r_norm = frob(&r);
        let kappa = r_norm * frob(&r.invert_upper_triangular().unwrap());
        let beta_bound =
            FIT_BOUND_C * m as f64 * eps * kappa * (norm(&want.coefficients) + norm(&y) / r_norm);
        let delta = r_norm * beta_bound;
        let sse_bound =
            2.0 * want.sse.sqrt() * delta + delta * delta + FIT_BOUND_C * m as f64 * eps * want.sse;
        let r2_bound = sse_bound / want.sst + eps;
        let beta_gap = got
            .coefficients
            .iter()
            .zip(&want.coefficients)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt();
        let sse_gap = (got.sse - want.sse).abs();
        let r2_gap = (got.summary.r_squared - want.r_squared).abs();
        for (w, (gap, bound, what)) in worst.iter_mut().zip([
            (beta_gap, beta_bound, "coefficients"),
            (sse_gap, sse_bound, "SSE"),
            (r2_gap, r2_bound, "R²"),
        ]) {
            assert!(gap <= bound, "{at} {what}: |Δ| = {gap:e} > bound {bound:e}");
            if bound > 0.0 {
                *w = w.max(gap / bound);
            }
        }
        assert_eq!((got.n, got.k), (want.n, want.k), "{at}");
        fits += 1;
    }
    println!("worst |Δ|/bound (coefficients, SSE, R²): {worst:?}");
    assert!(fits >= 150, "{fits} fits compared");
    assert!(singular >= 100, "{singular} singular designs compared");
}

#[test]
fn one_group_fit_is_ols_fit_bit_for_bit() {
    let mut rng = Rng::seed_from_u64(0x0E_6F17);
    let (mut fits, mut errors) = (0, 0);
    for case in 0..1_000 {
        let kind = KINDS[case % KINDS.len()];
        let p = rng.gen_range(0usize..8);
        let at = format!("case {case} {kind:?} p={p}");
        let state = sample(&mut rng, kind, 1, p).pop().unwrap();
        // Every few cases drop rows to probe the too-few-rows error.
        let keep = if case % 7 == 0 {
            p + 1
        } else {
            state.rows.len()
        };
        let x = Matrix::from_rows(&state.rows[..keep]).unwrap();
        let y = state.y[..keep].to_vec();
        match (
            fit_block_diagonal(&[(x.clone(), y.clone())], true),
            OlsFit::fit(&x, &y, true),
        ) {
            (Ok(got), Ok(want)) => {
                assert_same_bits(&at, "coefficients", &got.coefficients, &want.coefficients);
                assert_same_bits(
                    &at,
                    "sums and summary",
                    &[
                        got.sse,
                        got.sst,
                        got.summary.r_squared,
                        got.summary.adj_r_squared,
                        got.summary.see,
                        got.summary.f_statistic,
                        got.summary.f_p_value,
                    ],
                    &[
                        want.sse,
                        want.sst,
                        want.r_squared,
                        want.adj_r_squared,
                        want.see,
                        want.f_statistic,
                        want.f_p_value,
                    ],
                );
                assert_eq!((got.n, got.k), (want.n, want.k), "{at}");
                fits += 1;
            }
            (Err(got), Err(want)) => {
                assert_eq!(got, want, "{at}");
                errors += 1;
            }
            (got, want) => panic!("{at}: {got:?} vs {:?}", want.map(|w| w.coefficients)),
        }
    }
    assert!(fits >= 500, "{fits} fits compared");
    assert!(errors >= 200, "{errors} errors compared");
}

/// A state whose variable is tiny next to another state's: well
/// conditioned on its own, singular against the largest `|Rᵢᵢ|` of the
/// whole design, in both the per-state fit and the dense QR.
#[test]
fn a_tiny_state_is_singular_against_the_whole_design() {
    let mut rng = Rng::seed_from_u64(0x7177);
    let state = |rng: &mut Rng, scale: f64| -> (Matrix, Vec<f64>) {
        let rows: Vec<Vec<f64>> = (0..40).map(|_| vec![1.0, rng.gen_f64() * scale]).collect();
        let y = (0..40).map(|_| rng.normal(5.0, 1.0)).collect();
        (Matrix::from_rows(&rows).unwrap(), y)
    };
    let tiny = state(&mut rng, 1e-10);
    let huge = state(&mut rng, 1e6);
    assert!(fit_block_diagonal(std::slice::from_ref(&tiny), true).is_ok());
    assert!(OlsFit::fit(&tiny.0, &tiny.1, true).is_ok());
    let mut design = Vec::new();
    let mut y = Vec::new();
    for (s, (x, ys)) in [&tiny, &huge].into_iter().enumerate() {
        for (i, &yi) in ys.iter().enumerate() {
            let mut row = vec![0.0; 4];
            row[2 * s..2 * s + 2].copy_from_slice(x.row(i));
            design.push(row);
            y.push(yi);
        }
    }
    let dense = OlsFit::fit(&Matrix::from_rows(&design).unwrap(), &y, true);
    assert_eq!(dense.unwrap_err(), StatsError::Singular);
    assert_eq!(
        fit_block_diagonal(&[tiny, huge], true).unwrap_err(),
        StatsError::Singular
    );
}
