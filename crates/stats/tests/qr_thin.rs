//! `Matrix::qr` builds thin Q row by row from the kept Householder
//! vectors. These tests pin it, bit for bit, to the explicit-Q
//! factorization it replaced, which accumulated every reflector into an
//! `m × m` identity: Q, R and the `OlsFit` coefficients built on them
//! must carry the same `to_bits` patterns.

use mdbs_stats::matrix::Matrix;
use mdbs_stats::regression::OlsFit;
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

/// The coefficients `OlsFit::fit` computes, on the explicit-Q factors:
/// `R⁻¹·Qᵀy` by back substitution with the same singularity threshold.
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
    let (mut fits, mut singular) = (0, 0);
    for n in 1..=16 {
        for m in [n, n + 1, 4 * n + 1, 4 * n + 3, 1_000] {
            for columns in [
                Columns::Random,
                Columns::ZeroColumn,
                Columns::Duplicated,
                Columns::RankDeficient,
            ] {
                // A 1,000-row explicit Q costs 2·10⁶ multiply-adds per
                // reflector, so to keep the debug build fast that height
                // takes the narrowest and the widest random design only.
                if m == 1_000 && !(matches!(columns, Columns::Random) && (n == 1 || n == 16)) {
                    continue;
                }
                let at = format!("{m}x{n} {columns:?}");
                let x = matrix(&mut rng, m, n, columns);
                let (q, r) = x.qr().unwrap();
                let (want_q, want_r) = explicit_q_qr(&x);
                assert_bits_equal(&format!("{at} Q"), &q, &want_q);
                assert_bits_equal(&format!("{at} R"), &r, &want_r);
                if m > n {
                    let y: Vec<f64> = (0..m).map(|_| rng.normal(5.0, 3.0)).collect();
                    let fit = OlsFit::fit(&x, &y, true).map(|f| f.coefficients);
                    let want = reference_coefficients(&want_q, &want_r, &y);
                    match (&fit, &want) {
                        (Ok(got), Ok(want)) => {
                            let bits =
                                |v: &[f64]| v.iter().map(|c| c.to_bits()).collect::<Vec<_>>();
                            assert_eq!(bits(got), bits(want), "{at} coefficients");
                            fits += 1;
                        }
                        (Err(got), Err(want)) => {
                            assert_eq!(got, want, "{at}");
                            singular += 1;
                        }
                        _ => panic!("{at}: {fit:?} vs {want:?}"),
                    }
                }
            }
        }
    }
    assert!(fits >= 40, "{fits} fits compared");
    assert!(singular >= 40, "{singular} singular designs compared");
}
