//! `Matrix::qr` builds thin Q row by row from the kept Householder
//! vectors, and `OlsFit::fit` never forms Q at all: it applies the
//! reflectors straight to `y`. These tests compare both with the
//! explicit-Q factorization they replaced, which accumulated every
//! reflector into an `m × m` identity:
//!
//! * Q and R carry the same `to_bits` patterns as the reference;
//! * the `OlsFit` coefficients, SSE and R² agree with the reference's
//!   `R⁻¹·Qᵀy` fit within a bound proportional to `ε·κ(R)` — `Qᵀy`
//!   rounds differently when the reflectors act on `y` than when an
//!   explicit Q multiplies it — and a design the reference calls singular
//!   is singular for `OlsFit` too (both decide on the same R).

use mdbs_stats::matrix::Matrix;
use mdbs_stats::regression::{total_sum_of_squares, OlsFit};
use mdbs_stats::rng::Rng;
use mdbs_stats::StatsError;

/// The explicit-Q Householder QR that `Matrix::qr` replaced, verbatim
/// except for returning the thin factors through `Matrix::from_vec`.
fn explicit_q_qr(a: &Matrix) -> (Matrix, Matrix) {
    let (m, n) = (a.rows(), a.cols());
    assert!(m >= n);
    let mut r = a.clone();
    let mut q = Matrix::identity(m);
    let mut v = vec![0.0; m];
    for k in 0..n {
        let mut norm = 0.0;
        for i in k..m {
            norm += r[(i, k)] * r[(i, k)];
        }
        let norm = norm.sqrt();
        if norm == 0.0 {
            continue;
        }
        let alpha = if r[(k, k)] >= 0.0 { -norm } else { norm };
        let mut vnorm2 = 0.0;
        for i in k..m {
            v[i] = r[(i, k)];
            if i == k {
                v[i] -= alpha;
            }
            vnorm2 += v[i] * v[i];
        }
        if vnorm2 == 0.0 {
            continue;
        }
        for j in k..n {
            let mut dot = 0.0;
            for i in k..m {
                dot += v[i] * r[(i, j)];
            }
            let scale = 2.0 * dot / vnorm2;
            for i in k..m {
                r[(i, j)] -= scale * v[i];
            }
        }
        for i in 0..m {
            let mut dot = 0.0;
            for l in k..m {
                dot += q[(i, l)] * v[l];
            }
            let scale = 2.0 * dot / vnorm2;
            for l in k..m {
                q[(i, l)] -= scale * v[l];
            }
        }
    }
    let mut q_thin = Matrix::zeros(m, n);
    for i in 0..m {
        for j in 0..n {
            q_thin[(i, j)] = q[(i, j)];
        }
    }
    let mut r_thin = Matrix::zeros(n, n);
    for i in 0..n {
        for j in i..n {
            r_thin[(i, j)] = r[(i, j)];
        }
    }
    (q_thin, r_thin)
}

/// The coefficients the explicit-Q fit computed: `R⁻¹·Qᵀy` by back
/// substitution with `OlsFit`'s singularity threshold.
fn reference_coefficients(q: &Matrix, r: &Matrix, y: &[f64]) -> Result<Vec<f64>, StatsError> {
    let b = q.transpose().matvec(y)?;
    let n = r.cols();
    let scale = (0..n).fold(0.0f64, |acc, k| acc.max(r[(k, k)].abs()));
    let mut coef = vec![0.0; n];
    for i in (0..n).rev() {
        let mut sum = b[i];
        for j in (i + 1)..n {
            sum -= r[(i, j)] * coef[j];
        }
        if r[(i, i)].abs() <= 1e-12 * scale.max(1.0) {
            return Err(StatsError::Singular);
        }
        coef[i] = sum / r[(i, i)];
    }
    Ok(coef)
}

fn assert_bits_equal(what: &str, got: &Matrix, want: &Matrix) {
    assert_eq!(
        (got.rows(), got.cols()),
        (want.rows(), want.cols()),
        "{what}"
    );
    for i in 0..want.rows() {
        for j in 0..want.cols() {
            assert_eq!(
                got[(i, j)].to_bits(),
                want[(i, j)].to_bits(),
                "{what} ({i},{j}): {} vs {}",
                got[(i, j)],
                want[(i, j)]
            );
        }
    }
}

/// How the columns of a test matrix are built.
#[derive(Debug, Clone, Copy)]
enum Columns {
    Random,
    /// The middle column is all zeros: its reflector is skipped.
    ZeroColumn,
    /// The last column duplicates the first.
    Duplicated,
    /// The last column is the sum of the first two.
    RankDeficient,
}

fn matrix(rng: &mut Rng, m: usize, n: usize, columns: Columns) -> Matrix {
    let mut data: Vec<f64> = (0..m * n)
        .map(|_| rng.normal(0.0, 1.0) * 10f64.powi(rng.gen_range(0usize..6) as i32 - 2))
        .collect();
    for i in 0..m {
        let row = &mut data[i * n..(i + 1) * n];
        match columns {
            Columns::Random => {}
            Columns::ZeroColumn => row[n / 2] = 0.0,
            Columns::Duplicated if n >= 2 => row[n - 1] = row[0],
            Columns::RankDeficient if n >= 3 => row[n - 1] = row[0] + row[1],
            Columns::Duplicated | Columns::RankDeficient => {}
        }
    }
    Matrix::from_vec(m, n, data).unwrap()
}

#[test]
fn thin_q_is_bit_identical_to_the_explicit_q_factorization() {
    let mut rng = Rng::seed_from_u64(0x7410_0A11);
    let mut compared = 0;
    for (m, n, columns) in grid() {
        let at = format!("{m}x{n} {columns:?}");
        let x = matrix(&mut rng, m, n, columns);
        let (q, r) = x.qr().unwrap();
        let (want_q, want_r) = explicit_q_qr(&x);
        assert_bits_equal(&format!("{at} Q"), &q, &want_q);
        assert_bits_equal(&format!("{at} R"), &r, &want_r);
        compared += 1;
    }
    assert!(compared >= 250, "{compared} factorizations compared");
}

/// The constant of the `ε·κ(R)` bound below. Over this grid the worst
/// observed `|Δ|/bound` is 0.023 for the coefficients, 0.0059 for SSE and
/// 0.0054 for R², so the bound holds with a margin of 40× or more.
const FIT_BOUND_C: f64 = 16.0;

#[test]
fn fit_without_q_matches_the_explicit_q_fit_within_eps_kappa() {
    let mut rng = Rng::seed_from_u64(0x7410_0A11);
    let (mut fits, mut singular) = (0, 0);
    let mut worst = [0.0f64; 3];
    for (m, n, columns) in grid() {
        let x = matrix(&mut rng, m, n, columns);
        if m == n {
            continue; // OlsFit needs a residual degree of freedom.
        }
        let at = format!("{m}x{n} {columns:?}");
        let y: Vec<f64> = (0..m).map(|_| rng.normal(5.0, 3.0)).collect();
        let (want_q, want_r) = explicit_q_qr(&x);
        let fit = OlsFit::fit(&x, &y, true);
        let want = reference_coefficients(&want_q, &want_r, &y);
        let (fit, want) = match (fit, want) {
            (Ok(fit), Ok(want)) => (fit, want),
            (Err(got), Err(want)) => {
                assert_eq!(got, want, "{at}");
                singular += 1;
                continue;
            }
            (fit, want) => panic!("{at}: {:?} vs {want:?}", fit.map(|f| f.coefficients)),
        };
        // Perturbation bound for least squares through R: an error δb in
        // Qᵀy moves β by R⁻¹·δb, and |δb| ≲ m·ε·‖y‖ for either way of
        // forming it, so ‖Δβ‖ ≤ C·m·ε·κ(R)·(‖β‖ + ‖y‖/‖R‖) with
        // κ(R) = ‖R‖·‖R⁻¹‖ (Frobenius). The fitted values move by at most
        // δ = ‖R‖·‖Δβ‖, so SSE = ‖y − Xβ‖² moves by at most
        // 2·√SSE·δ + δ² plus the rounding of its own sum, and R² by that
        // over SST.
        let eps = f64::EPSILON;
        let norm = |v: &[f64]| v.iter().map(|a| a * a).sum::<f64>().sqrt();
        let frob = |a: &Matrix| {
            let mut s = 0.0;
            for i in 0..a.rows() {
                s += a.row(i).iter().map(|v| v * v).sum::<f64>();
            }
            s.sqrt()
        };
        let r_norm = frob(&want_r);
        let kappa = r_norm * frob(&want_r.invert_upper_triangular().unwrap());
        let beta_bound = FIT_BOUND_C * m as f64 * eps * kappa * (norm(&want) + norm(&y) / r_norm);
        let delta = r_norm * beta_bound;
        let fitted = x.matvec(&want).unwrap();
        let want_sse: f64 = y.iter().zip(&fitted).map(|(a, b)| (a - b) * (a - b)).sum();
        let yty: f64 = y.iter().map(|v| v * v).sum();
        let sst = total_sum_of_squares(yty, y.iter().sum(), m, true);
        let want_r2 = if sst > 0.0 { 1.0 - want_sse / sst } else { 1.0 };
        let sse_bound =
            2.0 * want_sse.sqrt() * delta + delta * delta + FIT_BOUND_C * m as f64 * eps * want_sse;
        let r2_bound = sse_bound / sst + eps;

        let beta_gap = fit
            .coefficients
            .iter()
            .zip(&want)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt();
        let sse_gap = (fit.sse - want_sse).abs();
        let r2_gap = (fit.r_squared - want_r2).abs();
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
        fits += 1;
    }
    assert!(fits >= 40, "{fits} fits compared");
    assert!(singular >= 40, "{singular} singular designs compared");
    println!("worst |Δ|/bound (coefficients, SSE, R²): {worst:?}");
}

/// The shapes both tests sweep: m ∈ {n, n+1, 4n+1, 4n+3} for n ∈ 1..=16
/// and every column kind, plus 1,000-row random designs for n = 1 and 16.
/// A 1,000-row explicit Q costs 2·10⁶ multiply-adds per reflector, so to
/// keep the debug build fast that height takes the narrowest and the
/// widest random design only.
fn grid() -> Vec<(usize, usize, Columns)> {
    let mut grid = Vec::new();
    for n in 1..=16 {
        for m in [n, n + 1, 4 * n + 1, 4 * n + 3, 1_000] {
            for columns in [
                Columns::Random,
                Columns::ZeroColumn,
                Columns::Duplicated,
                Columns::RankDeficient,
            ] {
                if m == 1_000 && !(matches!(columns, Columns::Random) && (n == 1 || n == 16)) {
                    continue;
                }
                grid.push((m, n, columns));
            }
        }
    }
    grid
}
