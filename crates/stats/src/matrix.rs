//! Dense, row-major matrices with the factorizations needed for OLS.
//!
//! The regression problems in this workspace are small (tens of columns,
//! hundreds to thousands of rows), so a straightforward dense implementation
//! with Householder QR is both adequate and numerically robust — QR avoids
//! squaring the condition number the way normal equations would, which
//! matters because explanatory variables such as "result cardinality" and
//! "result table length" are often strongly correlated.

use crate::StatsError;

/// Rows of Q that [`HouseholderQr::q`] builds together: their independent dot
/// products interleave, which hides the latency of each row's sequential
/// sum (8 rows measured no faster than 4).
const QR_ROW_BLOCK: usize = 4;

/// A dense, row-major `rows × cols` matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix from a row-major data vector.
    ///
    /// Returns an error when `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self, StatsError> {
        if data.len() != rows * cols {
            return Err(StatsError::DimensionMismatch {
                context: format!(
                    "from_vec: {} elements for a {rows}x{cols} matrix",
                    data.len()
                ),
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Creates a matrix from a slice of equally sized rows.
    pub fn from_rows(rows: &[Vec<f64>]) -> Result<Self, StatsError> {
        let nrows = rows.len();
        let ncols = rows.first().map_or(0, Vec::len);
        let mut data = Vec::with_capacity(nrows * ncols);
        for (i, r) in rows.iter().enumerate() {
            if r.len() != ncols {
                return Err(StatsError::DimensionMismatch {
                    context: format!("row {i} has {} elements, expected {ncols}", r.len()),
                });
            }
            data.extend_from_slice(r);
        }
        Ok(Matrix {
            rows: nrows,
            cols: ncols,
            data,
        })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrows row `r` as a slice.
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copies column `c` out into a vector.
    pub fn col(&self, c: usize) -> Vec<f64> {
        (0..self.rows).map(|r| self[(r, c)]).collect()
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                t[(c, r)] = self[(r, c)];
            }
        }
        t
    }

    /// Matrix product `self * other`.
    pub fn matmul(&self, other: &Matrix) -> Result<Matrix, StatsError> {
        if self.cols != other.rows {
            return Err(StatsError::DimensionMismatch {
                context: format!(
                    "matmul: {}x{} * {}x{}",
                    self.rows, self.cols, other.rows, other.cols
                ),
            });
        }
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == 0.0 {
                    continue;
                }
                for j in 0..other.cols {
                    out[(i, j)] += a * other[(k, j)];
                }
            }
        }
        Ok(out)
    }

    /// Matrix-vector product `self * v`.
    pub fn matvec(&self, v: &[f64]) -> Result<Vec<f64>, StatsError> {
        if self.cols != v.len() {
            return Err(StatsError::DimensionMismatch {
                context: format!("matvec: {}x{} * len-{}", self.rows, self.cols, v.len()),
            });
        }
        Ok((0..self.rows)
            .map(|r| self.row(r).iter().zip(v).map(|(a, b)| a * b).sum::<f64>())
            .collect())
    }

    /// Householder QR factorization, with thin Q formed explicitly.
    ///
    /// Requires `rows >= cols`. Returns `(q, r)` with `q` of shape
    /// `rows × cols` (thin Q, orthonormal columns) and `r` upper triangular
    /// `cols × cols` such that `self ≈ q · r`.
    ///
    /// This is [`Matrix::householder_qr`] followed by
    /// [`HouseholderQr::q`]; least squares never needs Q itself, so
    /// [`Matrix::least_squares`] and `OlsFit::fit` apply the reflectors to
    /// `y` instead ([`HouseholderQr::apply_qt`]). Forming thin Q costs
    /// O(m²·n) work; callers that only need `Qᵀy` should not pay it.
    pub fn qr(&self) -> Result<(Matrix, Matrix), StatsError> {
        let qr = self.householder_qr()?;
        Ok((qr.q(), qr.r))
    }

    /// Householder QR factorization that keeps the reflectors instead of
    /// forming Q.
    ///
    /// Requires `rows >= cols`. R is reduced column by column in O(m·n²)
    /// on a column-major working copy, so every norm, dot product and
    /// update runs down one contiguous column slice (in the order of the
    /// row-major loops it replaced, bit for bit); every applied reflector
    /// `H_k = I − 2vvᵀ/(vᵀv)` is kept as `(k, vᵀv, v[k..m])`, so
    /// `Q = H_0·H_1·…` is available implicitly through
    /// [`HouseholderQr::apply_qt`] (O(m·n) per vector) and explicitly
    /// through [`HouseholderQr::q`]. A column that is already zero at and
    /// below the diagonal keeps no reflector.
    pub fn householder_qr(&self) -> Result<HouseholderQr, StatsError> {
        let (m, n) = (self.rows, self.cols);
        if m < n {
            return Err(StatsError::DimensionMismatch {
                context: format!("qr: need rows >= cols, got {m}x{n}"),
            });
        }
        // Column-major copy: column j is cols[j·m..(j+1)·m].
        let mut cols = vec![0.0; m * n];
        for (i, row) in self.data.chunks_exact(n.max(1)).enumerate() {
            for (j, &x) in row.iter().enumerate() {
                cols[j * m + i] = x;
            }
        }
        let mut reflectors: Vec<(usize, f64, Vec<f64>)> = Vec::with_capacity(n);
        for k in 0..n {
            // The Householder vector of column k at and below the diagonal.
            let below = &cols[k * m + k..(k + 1) * m];
            let norm = below.iter().fold(0.0, |acc, &x| acc + x * x).sqrt();
            if norm == 0.0 {
                continue; // Column already zero below (and at) the diagonal.
            }
            let alpha = if below[0] >= 0.0 { -norm } else { norm };
            let mut v = below.to_vec();
            v[0] -= alpha;
            let vnorm2 = v.iter().fold(0.0, |acc, &x| acc + x * x);
            if vnorm2 == 0.0 {
                continue;
            }
            // Apply H = I - 2 v vᵀ / (vᵀv) to R (columns k..n).
            for col in cols[k * m..].chunks_exact_mut(m) {
                let tail = &mut col[k..];
                let dot = v
                    .iter()
                    .zip(tail.iter())
                    .fold(0.0, |acc, (v, r)| acc + v * r);
                let scale = 2.0 * dot / vnorm2;
                for (r, &vi) in tail.iter_mut().zip(&v) {
                    *r -= scale * vi;
                }
            }
            reflectors.push((k, vnorm2, v));
        }
        let mut r_thin = Matrix::zeros(n, n);
        for (j, col) in cols.chunks_exact(m.max(1)).enumerate() {
            for (i, &x) in col[..=j].iter().enumerate() {
                r_thin[(i, j)] = x;
            }
        }
        Ok(HouseholderQr {
            rows: m,
            r: r_thin,
            reflectors,
        })
    }

    /// Solves the least-squares problem `min ‖self·x − y‖₂` via QR.
    ///
    /// See [`HouseholderQr::solve`]; Q is never formed. Returns
    /// [`StatsError::Singular`] when a diagonal entry of `R` is
    /// (numerically) zero, i.e. the design matrix is rank-deficient.
    pub fn least_squares(&self, y: &[f64]) -> Result<Vec<f64>, StatsError> {
        if y.len() != self.rows {
            return Err(StatsError::DimensionMismatch {
                context: format!(
                    "least_squares: {} observations, {} rows",
                    y.len(),
                    self.rows
                ),
            });
        }
        if self.rows < self.cols {
            return Err(StatsError::InsufficientData {
                needed: self.cols,
                got: self.rows,
            });
        }
        self.householder_qr()?.solve(y)
    }

    /// Solves the square linear system `self · x = b` via QR.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, StatsError> {
        if self.rows != self.cols {
            return Err(StatsError::DimensionMismatch {
                context: format!("solve: matrix is {}x{}, not square", self.rows, self.cols),
            });
        }
        self.least_squares(b)
    }

    /// Inverts the upper-triangular matrix in-place semantics free manner;
    /// used for coefficient covariance `(XᵀX)⁻¹ = R⁻¹ R⁻ᵀ`.
    pub fn invert_upper_triangular(&self) -> Result<Matrix, StatsError> {
        if self.rows != self.cols {
            return Err(StatsError::DimensionMismatch {
                context: "invert_upper_triangular: not square".into(),
            });
        }
        let n = self.rows;
        let mut inv = Matrix::zeros(n, n);
        for j in 0..n {
            // Solve R x = e_j.
            let mut e = vec![0.0; n];
            e[j] = 1.0;
            let x = back_substitute(self, &e)?;
            for i in 0..n {
                inv[(i, j)] = x[i];
            }
        }
        Ok(inv)
    }

    /// Maximum absolute element; useful for tolerance checks in tests.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0, |acc, v| acc.max(v.abs()))
    }
}

/// A Householder QR factorization `A = Q·R` of an `m × n` matrix (`m ≥ n`)
/// that holds R and the reflectors rather than Q (see
/// [`Matrix::householder_qr`]).
#[derive(Debug, Clone)]
pub struct HouseholderQr {
    rows: usize,
    /// Upper-triangular `n × n` factor.
    r: Matrix,
    /// Every applied reflector `H = I − 2vvᵀ/(vᵀv)` as `(k, vᵀv, v[k..m])`,
    /// in application order: `Q = H_0·H_1·…`.
    reflectors: Vec<(usize, f64, Vec<f64>)>,
}

impl HouseholderQr {
    /// The upper-triangular `n × n` factor R.
    pub fn r(&self) -> &Matrix {
        &self.r
    }

    /// The first `n` entries of `Qᵀy`, without forming Q.
    ///
    /// `Qᵀ = …·H_1·H_0`, so the reflectors apply to `y` in factorization
    /// order, H₀ first, each with R's own arithmetic: `dot = Σ v_i·w_i`,
    /// `scale = 2·dot/vᵀv`, `w_i −= scale·v_i`. O(m·n) work.
    pub fn apply_qt(&self, y: &[f64]) -> Result<Vec<f64>, StatsError> {
        if y.len() != self.rows {
            return Err(StatsError::DimensionMismatch {
                context: format!("apply_qt: len-{} vector, {} rows", y.len(), self.rows),
            });
        }
        let mut w = y.to_vec();
        for (k, vnorm2, v) in &self.reflectors {
            let tail = &mut w[*k..];
            let dot: f64 = tail.iter().zip(v).fold(0.0, |acc, (w, v)| acc + v * w);
            let scale = 2.0 * dot / vnorm2;
            for (w, &v) in tail.iter_mut().zip(v) {
                *w -= scale * v;
            }
        }
        w.truncate(self.r.cols());
        Ok(w)
    }

    /// The least-squares solution `x = R⁻¹·(Qᵀy)[..n]` of `A·x ≈ y`:
    /// [`HouseholderQr::apply_qt`], then back substitution. Returns
    /// [`StatsError::Singular`] when a diagonal entry of R is at most
    /// [`QR_SINGULAR_RELATIVE_TOLERANCE`] times the largest one (or that
    /// tolerance itself when the largest is below 1).
    pub fn solve(&self, y: &[f64]) -> Result<Vec<f64>, StatsError> {
        back_substitute(&self.r, &self.apply_qt(y)?)
    }

    /// Forms thin Q (`m × n`, orthonormal columns).
    ///
    /// Built one row at a time, because `Q ← Q·H_k` acts on each row of Q
    /// independently. Each row starts as a row of the identity and takes
    /// every reflector in the order (and with the arithmetic) of the full
    /// accumulation, so Q is bit-identical to the explicit `m × m` product,
    /// while no `m × m` buffer is allocated: scratch memory is O(m·n), the
    /// reflectors plus four rows of length `m` built together. The work is
    /// O(m²·n).
    pub fn q(&self) -> Matrix {
        let (m, n) = (self.rows, self.r.cols());
        // Q = H_0·H_1·…, row by row: row i of Q is e_iᵀ·H_0·H_1·…, and each
        // H_k = I − 2vvᵀ/(vᵀv) only reads and writes entries k..m of it.
        // Rows go in blocks so their sequential dot products interleave.
        let mut q_thin = Matrix::zeros(m, n);
        let mut rows = vec![[0.0; QR_ROW_BLOCK]; m];
        for first in (0..m).step_by(QR_ROW_BLOCK) {
            let block = QR_ROW_BLOCK.min(m - first);
            for (l, row) in rows.iter_mut().enumerate() {
                for (b, q) in row.iter_mut().enumerate() {
                    *q = if l == first + b { 1.0 } else { 0.0 };
                }
            }
            for (k, vnorm2, v) in &self.reflectors {
                let tail = &mut rows[*k..];
                let mut dot = [0.0; QR_ROW_BLOCK];
                for (q, &vl) in tail.iter().zip(v) {
                    for b in 0..QR_ROW_BLOCK {
                        dot[b] += q[b] * vl;
                    }
                }
                let scale = dot.map(|d| 2.0 * d / vnorm2);
                for (q, &vl) in tail.iter_mut().zip(v) {
                    for b in 0..QR_ROW_BLOCK {
                        q[b] -= scale[b] * vl;
                    }
                }
            }
            for b in 0..block {
                for j in 0..n {
                    q_thin[(first + b, j)] = rows[j][b];
                }
            }
        }
        q_thin
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

/// Relative singularity threshold of every QR solve: a diagonal entry of R
/// at most `QR_SINGULAR_RELATIVE_TOLERANCE` times the largest `|Rᵢᵢ|` (or
/// times 1 when that is below 1) makes the system [`StatsError::Singular`].
pub const QR_SINGULAR_RELATIVE_TOLERANCE: f64 = 1e-12;

/// Solves `r · x = b` for upper-triangular `r` by back substitution.
fn back_substitute(r: &Matrix, b: &[f64]) -> Result<Vec<f64>, StatsError> {
    let n = r.cols();
    // Relative singularity threshold against the largest diagonal entry.
    let scale = (0..n).fold(0.0f64, |acc, k| acc.max(r[(k, k)].abs()));
    let mut x = vec![0.0; n];
    for i in (0..n).rev() {
        let mut sum = b[i];
        for j in (i + 1)..n {
            sum -= r[(i, j)] * x[j];
        }
        let d = r[(i, i)];
        if d.abs() <= QR_SINGULAR_RELATIVE_TOLERANCE * scale.max(1.0) {
            return Err(StatsError::Singular);
        }
        x[i] = sum / d;
    }
    Ok(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol * (1.0 + a.abs().max(b.abs()))
    }

    #[test]
    fn from_vec_validates_shape() {
        assert!(Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]).is_err());
        assert!(Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).is_ok());
    }

    #[test]
    fn from_rows_rejects_ragged_input() {
        let rows = vec![vec![1.0, 2.0], vec![3.0]];
        assert!(Matrix::from_rows(&rows).is_err());
    }

    #[test]
    fn transpose_involution() {
        let m = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let m = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let i = Matrix::identity(2);
        assert_eq!(m.matmul(&i).unwrap(), m);
        assert_eq!(i.matmul(&m).unwrap(), m);
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let b = Matrix::from_vec(3, 1, vec![1.0, 0.0, -1.0]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.col(0), vec![-2.0, -2.0]);
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = Matrix::from_vec(2, 2, vec![2.0, 1.0, 0.0, 3.0]).unwrap();
        assert_eq!(a.matvec(&[1.0, 2.0]).unwrap(), vec![4.0, 6.0]);
    }

    #[test]
    fn qr_reconstructs_matrix() {
        let a = Matrix::from_vec(
            4,
            3,
            vec![
                1.0, 2.0, 3.0, //
                4.0, 5.0, 6.0, //
                7.0, 8.0, 10.0, //
                2.0, -1.0, 0.5,
            ],
        )
        .unwrap();
        let (q, r) = a.qr().unwrap();
        let back = q.matmul(&r).unwrap();
        for i in 0..4 {
            for j in 0..3 {
                assert!(approx(back[(i, j)], a[(i, j)], 1e-10), "({i},{j})");
            }
        }
        // Q has orthonormal columns.
        let qtq = q.transpose().matmul(&q).unwrap();
        for i in 0..3 {
            for j in 0..3 {
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!(approx(qtq[(i, j)], expect, 1e-10));
            }
        }
        // R upper triangular.
        for i in 0..3 {
            for j in 0..i {
                assert_eq!(r[(i, j)], 0.0);
            }
        }
    }

    #[test]
    fn least_squares_exact_system() {
        // y = 2 + 3x fitted exactly.
        let x = Matrix::from_rows(&[
            vec![1.0, 0.0],
            vec![1.0, 1.0],
            vec![1.0, 2.0],
            vec![1.0, 3.0],
        ])
        .unwrap();
        let y = [2.0, 5.0, 8.0, 11.0];
        let beta = x.least_squares(&y).unwrap();
        assert!(approx(beta[0], 2.0, 1e-10));
        assert!(approx(beta[1], 3.0, 1e-10));
    }

    #[test]
    fn least_squares_overdetermined_noisy() {
        // Residuals of OLS must be orthogonal to design columns.
        let x = Matrix::from_rows(&[
            vec![1.0, 0.0],
            vec![1.0, 1.0],
            vec![1.0, 2.0],
            vec![1.0, 3.0],
            vec![1.0, 4.0],
        ])
        .unwrap();
        let y = [1.1, 1.9, 3.2, 3.8, 5.1];
        let beta = x.least_squares(&y).unwrap();
        let fitted = x.matvec(&beta).unwrap();
        let resid: Vec<f64> = y.iter().zip(&fitted).map(|(a, b)| a - b).collect();
        for c in 0..2 {
            let dot: f64 = x.col(c).iter().zip(&resid).map(|(a, b)| a * b).sum();
            assert!(dot.abs() < 1e-9, "column {c} dot {dot}");
        }
    }

    #[test]
    fn least_squares_detects_rank_deficiency() {
        // Second column is an exact duplicate of the first.
        let x = Matrix::from_rows(&[vec![1.0, 1.0], vec![2.0, 2.0], vec![3.0, 3.0]]).unwrap();
        assert_eq!(x.least_squares(&[1.0, 2.0, 3.0]), Err(StatsError::Singular));
    }

    #[test]
    fn solve_square_system() {
        let a = Matrix::from_vec(2, 2, vec![2.0, 1.0, 1.0, 3.0]).unwrap();
        let x = a.solve(&[5.0, 10.0]).unwrap();
        assert!(approx(x[0], 1.0, 1e-10));
        assert!(approx(x[1], 3.0, 1e-10));
    }

    #[test]
    fn invert_upper_triangular_roundtrip() {
        let r = Matrix::from_vec(3, 3, vec![2.0, 1.0, -1.0, 0.0, 3.0, 0.5, 0.0, 0.0, 1.5]).unwrap();
        let inv = r.invert_upper_triangular().unwrap();
        let prod = r.matmul(&inv).unwrap();
        for i in 0..3 {
            for j in 0..3 {
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!(approx(prod[(i, j)], expect, 1e-10));
            }
        }
    }

    #[test]
    fn least_squares_rejects_underdetermined() {
        let x = Matrix::from_rows(&[vec![1.0, 2.0, 3.0]]).unwrap();
        assert!(matches!(
            x.least_squares(&[1.0]),
            Err(StatsError::InsufficientData { .. })
        ));
    }
}
