//! Sufficient-statistics regression: incremental Gram-matrix OLS.
//!
//! Every fit the multi-states pipeline performs — a partition proposal in
//! IUPMA/ICMA, a merge in phase 2, a candidate add/drop in variable
//! selection, an incremental maintenance refit — is ordinary least squares
//! over some subset (rows) and sub-selection (columns) of one fixed data
//! set. All of those fits are determined by the **sufficient statistics**
//!
//! ```text
//! XᵀX (k×k),  Xᵀy (k),  Σy²,  Σy,  n
//! ```
//!
//! which a [`GramAccumulator`] maintains under rank-1 row updates
//! ([`GramAccumulator::add_row`] / [`GramAccumulator::remove_row`]), block
//! merges (`+`, [`GramAccumulator::merge`]) and column-subset extraction
//! ([`GramAccumulator::subset`]). Once accumulated, a candidate fit is an
//! O(k³) solve ([`GramAccumulator::solve`]) **independent of n** — the
//! observations are never rescanned.
//!
//! [`GramPrefix`] layers prefix sums on top: accumulate rows once in
//! probing-cost order and any *contiguous* observation range — which is
//! exactly what a contention-state partition induces — comes back as a
//! prefix difference in O(k²) ([`GramPrefix::range`]).
//!
//! ## Numerical policy
//!
//! The normal-equations matrix XᵀX has the squared condition number of X,
//! so the solver is defensive: it attempts a Cholesky factorization first
//! (fast, and trustworthy while the pivots stay above a relative threshold
//! of the largest diagonal entry) and falls back to Householder QR on the
//! k×k Gram matrix when any pivot degenerates. Exact rank deficiency
//! surfaces as [`StatsError::Singular`] from either route, matching the
//! observation-space QR solver in [`crate::regression::OlsFit`] so callers'
//! skip/propagate logic is engine-agnostic.

use crate::matrix::{HouseholderQr, Matrix, QR_SINGULAR_RELATIVE_TOLERANCE};
use crate::regression::{
    coefficient_inference, fit_summary, total_sum_of_squares, CoefficientInference,
};
use crate::StatsError;

/// Relative pivot tolerance of the Cholesky factorization: a pivot below
/// `CHOLESKY_RELATIVE_TOLERANCE × max diagonal entry` is treated as rank
/// deficiency and triggers the QR fallback. The value mirrors the
/// relative threshold of the QR back substitution
/// ([`QR_SINGULAR_RELATIVE_TOLERANCE`]) but is two orders looser because
/// forming XᵀX squares the condition number.
pub const CHOLESKY_RELATIVE_TOLERANCE: f64 = 1e-10;

/// Sufficient statistics of a least-squares problem: `XᵀX`, `Xᵀy`, `Σy²`,
/// `Σy` and the row count `n`.
#[derive(Debug, Clone, PartialEq)]
pub struct GramAccumulator {
    k: usize,
    n: usize,
    /// Row-major `k × k`, kept fully (symmetry is maintained, not exploited,
    /// so subsetting and merging stay simple index arithmetic).
    xtx: Vec<f64>,
    xty: Vec<f64>,
    yty: f64,
    sum_y: f64,
}

impl GramAccumulator {
    /// An empty accumulator for design rows of width `k`.
    pub fn new(k: usize) -> GramAccumulator {
        GramAccumulator {
            k,
            n: 0,
            xtx: vec![0.0; k * k],
            xty: vec![0.0; k],
            yty: 0.0,
            sum_y: 0.0,
        }
    }

    /// Rebuilds an accumulator from previously exported parts (the catalog
    /// persistence path). Dimensions must agree: `xtx` is `k²` long, `xty`
    /// is `k` long.
    pub fn from_parts(
        k: usize,
        n: usize,
        xtx: Vec<f64>,
        xty: Vec<f64>,
        yty: f64,
        sum_y: f64,
    ) -> Result<GramAccumulator, StatsError> {
        if xtx.len() != k * k || xty.len() != k {
            return Err(StatsError::DimensionMismatch {
                context: format!(
                    "from_parts: k = {k} but xtx has {} and xty has {} entries",
                    xtx.len(),
                    xty.len()
                ),
            });
        }
        Ok(GramAccumulator {
            k,
            n,
            xtx,
            xty,
            yty,
            sum_y,
        })
    }

    /// Design-row width `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of accumulated rows `n`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The `XᵀX` entries, row-major `k × k`.
    pub fn xtx(&self) -> &[f64] {
        &self.xtx
    }

    /// The `Xᵀy` entries.
    pub fn xty(&self) -> &[f64] {
        &self.xty
    }

    /// `Σy²` over the accumulated rows.
    pub fn yty(&self) -> f64 {
        self.yty
    }

    /// `Σy` over the accumulated rows.
    pub fn sum_y(&self) -> f64 {
        self.sum_y
    }

    /// True when `XᵀX` is bit-exactly symmetric (`xtx[i][j]` and
    /// `xtx[j][i]` share the same bit pattern for every pair). Row updates
    /// keep this invariant by construction; only [`Self::from_parts`] can
    /// introduce an asymmetric matrix.
    pub fn xtx_is_symmetric(&self) -> bool {
        let k = self.k;
        for i in 0..k {
            for j in (i + 1)..k {
                if self.xtx[i * k + j].to_bits() != self.xtx[j * k + i].to_bits() {
                    return false;
                }
            }
        }
        true
    }

    /// Serializes the sufficient statistics to a compact byte string:
    /// little-endian `u32 k`, `u64 n`, a flags byte, the `XᵀX` entries,
    /// the `Xᵀy` entries, `Σy²` and `Σy`, every float in the
    /// variable-length encoding of [`push_f64_compact`] (bit-exact round
    /// trip; integer-valued sums over cardinality variables dominate Gram
    /// matrices and shrink to a few bytes each).
    ///
    /// When `XᵀX` is bit-exactly symmetric — which row updates guarantee —
    /// only the lower triangle is written (`k(k+1)/2` floats instead of
    /// `k²`); a flags bit records which layout was used so
    /// [`Self::from_bytes`] can mirror it back.
    pub fn to_bytes(&self) -> Vec<u8> {
        let k = self.k;
        let symmetric = self.xtx_is_symmetric();
        let xtx_len = if symmetric { k * (k + 1) / 2 } else { k * k };
        let mut out = Vec::with_capacity(4 + 8 + 1 + 9 * (xtx_len + k + 2));
        out.extend_from_slice(&(k as u32).to_le_bytes());
        out.extend_from_slice(&(self.n as u64).to_le_bytes());
        out.push(u8::from(symmetric));
        if symmetric {
            for i in 0..k {
                for j in 0..=i {
                    push_f64_compact(&mut out, self.xtx[i * k + j]);
                }
            }
        } else {
            for v in &self.xtx {
                push_f64_compact(&mut out, *v);
            }
        }
        for v in &self.xty {
            push_f64_compact(&mut out, *v);
        }
        push_f64_compact(&mut out, self.yty);
        push_f64_compact(&mut out, self.sum_y);
        out
    }

    /// Rebuilds an accumulator from [`Self::to_bytes`] output. The slice
    /// must contain exactly one encoded accumulator; trailing bytes are an
    /// error (the container formats are length-prefixed, so a correct
    /// reader always hands over an exact slice).
    pub fn from_bytes(bytes: &[u8]) -> Result<GramAccumulator, StatsError> {
        let mut cur = ByteCursor::new(bytes);
        let k = cur.u32()? as usize;
        let n = cur.u64()? as usize;
        let flags = cur.u8()?;
        if flags > 1 {
            return Err(StatsError::InvalidArgument(
                "gram bytes: unknown flags".into(),
            ));
        }
        let symmetric = flags == 1;
        // Every compact float takes at least one byte, so a `k` whose
        // blocks need more floats than there are bytes left is corrupt —
        // checked before `k * k` is allocated.
        let floats = if symmetric {
            k.checked_mul(k + 1).map(|t| t / 2)
        } else {
            k.checked_mul(k)
        }
        .and_then(|xtx| xtx.checked_add(k + 2));
        if floats.map_or(true, |f| f > cur.remaining()) {
            return Err(StatsError::InvalidArgument(format!(
                "gram bytes: {k} variables need more values than the {} bytes left",
                cur.remaining()
            )));
        }
        let mut xtx = vec![0.0; k * k];
        if symmetric {
            for i in 0..k {
                for j in 0..=i {
                    let v = cur.f64()?;
                    xtx[i * k + j] = v;
                    xtx[j * k + i] = v;
                }
            }
        } else {
            for slot in xtx.iter_mut() {
                *slot = cur.f64()?;
            }
        }
        let mut xty = vec![0.0; k];
        for slot in xty.iter_mut() {
            *slot = cur.f64()?;
        }
        let yty = cur.f64()?;
        let sum_y = cur.f64()?;
        cur.finish()?;
        GramAccumulator::from_parts(k, n, xtx, xty, yty, sum_y)
    }

    fn check_row(&self, row: &[f64]) -> Result<(), StatsError> {
        if row.len() != self.k {
            return Err(StatsError::DimensionMismatch {
                context: format!(
                    "gram row has {} values, accumulator holds {}",
                    row.len(),
                    self.k
                ),
            });
        }
        Ok(())
    }

    /// Folds one observation `(row, y)` in: a rank-1 update of `XᵀX` plus
    /// the response moments.
    pub fn add_row(&mut self, row: &[f64], y: f64) -> Result<(), StatsError> {
        self.check_row(row)?;
        add_rank_one(&mut self.xtx, &mut self.xty, row, y);
        self.yty += y * y;
        self.sum_y += y;
        self.n += 1;
        Ok(())
    }

    /// Folds `(row, y)` in as [`Self::add_row`] does, but into the upper
    /// triangle of `XᵀX` only (`j ≥ i`), so each product is computed once;
    /// the lower triangle is left as it is. After a run of these,
    /// [`Self::mirror_upper`] leaves a symmetric block bit for bit where
    /// the same run of `add_row` would have (`xᵢ·xⱼ = xⱼ·xᵢ` in IEEE).
    pub fn add_row_upper(&mut self, row: &[f64], y: f64) -> Result<(), StatsError> {
        self.check_row(row)?;
        let k = self.k;
        for (i, (&ri, xty_i)) in row.iter().zip(&mut self.xty).enumerate() {
            let upper = &mut self.xtx[i * k + i..(i + 1) * k];
            for (a, &rj) in upper.iter_mut().zip(&row[i..]) {
                *a += ri * rj;
            }
            *xty_i += ri * y;
        }
        self.yty += y * y;
        self.sum_y += y;
        self.n += 1;
        Ok(())
    }

    /// Copies the upper triangle of `XᵀX` onto the lower one; see
    /// [`Self::add_row_upper`].
    pub fn mirror_upper(&mut self) {
        let k = self.k;
        for i in 1..k {
            for j in 0..i {
                self.xtx[i * k + j] = self.xtx[j * k + i];
            }
        }
    }

    /// Removes one previously added observation (a rank-1 downdate). The
    /// caller asserts the row was in fact accumulated; removing from an
    /// empty accumulator is an error.
    pub fn remove_row(&mut self, row: &[f64], y: f64) -> Result<(), StatsError> {
        self.check_row(row)?;
        if self.n == 0 {
            return Err(StatsError::InvalidArgument(
                "remove_row on an empty accumulator".into(),
            ));
        }
        let rows = self.xtx.chunks_exact_mut(self.k.max(1));
        for ((xtx_row, xty_i), &ri) in rows.zip(&mut self.xty).zip(row) {
            for (a, &rj) in xtx_row.iter_mut().zip(row) {
                *a -= ri * rj;
            }
            *xty_i -= ri * y;
        }
        self.yty -= y * y;
        self.sum_y -= y;
        self.n -= 1;
        Ok(())
    }

    /// Merges another accumulator of the same width into this one
    /// (statistics are additive over disjoint row sets).
    pub fn merge(&mut self, other: &GramAccumulator) -> Result<(), StatsError> {
        if other.k != self.k {
            return Err(StatsError::DimensionMismatch {
                context: format!("merge: width {} vs {}", other.k, self.k),
            });
        }
        for (a, b) in self.xtx.iter_mut().zip(&other.xtx) {
            *a += b;
        }
        for (a, b) in self.xty.iter_mut().zip(&other.xty) {
            *a += b;
        }
        self.yty += other.yty;
        self.sum_y += other.sum_y;
        self.n += other.n;
        Ok(())
    }

    /// Merges another accumulator whose local column `j` occupies global
    /// column `placement[j]` of this (wider) accumulator — the assembly
    /// step that pools per-state blocks into one qualitative-model Gram
    /// matrix. `placement` must be as wide as `other` and stay inside
    /// `self`'s bounds.
    pub fn merge_placed(
        &mut self,
        other: &GramAccumulator,
        placement: &[usize],
    ) -> Result<(), StatsError> {
        if placement.len() != other.k {
            return Err(StatsError::DimensionMismatch {
                context: format!(
                    "merge_placed: {} placements for width {}",
                    placement.len(),
                    other.k
                ),
            });
        }
        if placement.iter().any(|&c| c >= self.k) {
            return Err(StatsError::InvalidArgument(format!(
                "merge_placed: placement exceeds width {}",
                self.k
            )));
        }
        for (i, &gi) in placement.iter().enumerate() {
            for (j, &gj) in placement.iter().enumerate() {
                self.xtx[gi * self.k + gj] += other.xtx[i * other.k + j];
            }
            self.xty[gi] += other.xty[i];
        }
        self.yty += other.yty;
        self.sum_y += other.sum_y;
        self.n += other.n;
        Ok(())
    }

    /// Extracts the sufficient statistics of the column subset `cols` — the
    /// statistics of the same rows with the other columns dropped, which is
    /// exactly what a variable-selection candidate fit needs.
    pub fn subset(&self, cols: &[usize]) -> Result<GramAccumulator, StatsError> {
        let mut out = GramAccumulator::new(0);
        self.subset_into(cols, &mut out)?;
        Ok(out)
    }

    /// [`Self::subset`] into `out`, reusing its buffers.
    pub fn subset_into(&self, cols: &[usize], out: &mut GramAccumulator) -> Result<(), StatsError> {
        if cols.iter().any(|&c| c >= self.k) {
            return Err(StatsError::InvalidArgument(format!(
                "subset: column out of range 0..{}",
                self.k
            )));
        }
        let k = cols.len();
        out.xtx.clear();
        out.xtx.reserve(k * k);
        out.xty.clear();
        out.xty.reserve(k);
        for &ci in cols {
            let row = &self.xtx[ci * self.k..(ci + 1) * self.k];
            out.xtx.extend(cols.iter().map(|&cj| row[cj]));
            out.xty.push(self.xty[ci]);
        }
        out.k = k;
        out.n = self.n;
        out.yty = self.yty;
        out.sum_y = self.sum_y;
        Ok(())
    }

    /// Solves the accumulated least-squares problem and computes the
    /// coefficients and fit summary from the sufficient statistics alone:
    /// the one-block case of [`solve_block_diagonal`].
    ///
    /// Requires one spare degree of freedom (`n ≥ k + 1`), like the
    /// observation-space solver. Rank deficiency surfaces as
    /// [`StatsError::Singular`] whether Cholesky or the QR fallback
    /// detected it.
    pub fn solve(&self, has_intercept: bool) -> Result<GramFit, StatsError> {
        solve_block_diagonal(std::slice::from_ref(self), has_intercept)
    }

    /// The diagonal of `XᵀX`.
    fn diagonal(&self) -> impl Iterator<Item = f64> + '_ {
        (0..self.k).map(|i| self.xtx[i * self.k + i])
    }
}

/// Solves a least-squares problem whose `XᵀX` is block-diagonal, given its
/// diagonal blocks in column order: block `b`'s columns follow block
/// `b − 1`'s and no row touches two blocks. The general qualitative model
/// (paper Table 2) is one: state `s`'s observations touch only state `s`'s
/// `p + 1` columns. A single block is [`GramAccumulator::solve`].
///
/// The result is the solve of the assembled `k × k` matrix bit for bit,
/// because the exact zeros off the blocks add and subtract nothing, as
/// long as every decision is taken over the whole matrix:
///
/// * the Cholesky pivot tolerance is relative to the largest diagonal
///   entry of any block;
/// * every block goes through Cholesky, or, when any pivot of any block
///   degenerates, every block goes through the QR fallback;
/// * the fallback's R-diagonal singularity threshold is relative to the
///   largest `|Rᵢᵢ|` of any block;
/// * SSE accumulates over the global column order.
///
/// The work is `Σ k_b³` rather than `(Σ k_b)³`. The solve computes no
/// per-coefficient inference: the states search, variable selection and
/// maintenance refits read only the coefficients and the fit summary.
/// [`gram_coefficient_inference`] recomputes standard errors, t statistics
/// and their p-values on demand, by the route this solve took.
///
/// A search that solves many candidates passes one [`GramWorkspace`] to
/// [`solve_block_diagonal_in`] instead: the same arithmetic, without the
/// factors' heap allocations.
pub fn solve_block_diagonal(
    blocks: &[GramAccumulator],
    has_intercept: bool,
) -> Result<GramFit, StatsError> {
    solve_block_diagonal_in(blocks, has_intercept, &mut GramWorkspace::default())
}

/// Scratch memory of [`solve_block_diagonal_in`]: the Cholesky factors of
/// every block, or the QR fallback's factorizations and inverses. Buffers
/// grow to the largest problem solved and are reused, so a search that
/// scores many candidates allocates them about once.
#[derive(Debug, Clone, Default)]
pub struct GramWorkspace {
    /// Per block, row-major `k_b × k_b`: the Cholesky factor L.
    factors: Vec<f64>,
    /// The Cholesky forward-substitution vector.
    forward: Vec<f64>,
    /// Per block, the QR fallback's factorization and inverse `R⁻¹Qᵀ`.
    qrs: Vec<HouseholderQr>,
    inverses: Vec<Matrix>,
    /// One block's Q, Qᵀ and R⁻¹.
    q: Matrix,
    q_transpose: Matrix,
    r_inverse: Matrix,
}

impl GramWorkspace {
    /// Factors every block by Cholesky with the absolute pivot tolerance
    /// `tol` into `factors`; `false` when any pivot degenerates.
    fn cholesky(&mut self, blocks: &[GramAccumulator], tol: f64) -> bool {
        self.factors.clear();
        for b in blocks {
            let start = self.factors.len();
            self.factors.resize(start + b.k * b.k, 0.0);
            if cholesky_factor_into(b.k, &b.xtx, tol, &mut self.factors[start..]).is_err() {
                return false;
            }
        }
        true
    }

    /// The QR fallback's inverse of every Gram block, `(XᵀX)⁻¹ = R⁻¹Qᵀ`
    /// from the QR of the block itself ([`Matrix::qr`], then
    /// [`Matrix::invert_upper_triangular`] and [`Matrix::matmul`] with the
    /// transpose of Q), or [`StatsError::Singular`] when an R diagonal
    /// entry of any block is at most [`QR_SINGULAR_RELATIVE_TOLERANCE`]
    /// times the largest one of any block.
    fn qr_inverses(&mut self, blocks: &[GramAccumulator]) -> Result<&[Matrix], StatsError> {
        if self.qrs.len() < blocks.len() {
            self.qrs.resize_with(blocks.len(), HouseholderQr::default);
            self.inverses.resize_with(blocks.len(), Matrix::default);
        }
        for (b, qr) in blocks.iter().zip(&mut self.qrs) {
            qr.factor(b.k, b.k, &b.xtx)?;
        }
        let qrs = &self.qrs[..blocks.len()];
        let r_diagonal = || {
            qrs.iter().flat_map(|qr| {
                let r = qr.r();
                (0..r.rows()).map(move |i| r[(i, i)].abs())
            })
        };
        let scale = r_diagonal().fold(0.0f64, f64::max);
        if r_diagonal().any(|d| d <= QR_SINGULAR_RELATIVE_TOLERANCE * scale.max(1.0)) {
            return Err(StatsError::Singular);
        }
        for (qr, inverse) in qrs.iter().zip(&mut self.inverses) {
            qr.q_into(&mut self.q);
            self.q.transpose_into(&mut self.q_transpose);
            qr.r().invert_upper_triangular_into(&mut self.r_inverse)?;
            self.r_inverse.matmul_into(&self.q_transpose, inverse)?;
        }
        Ok(&self.inverses[..blocks.len()])
    }
}

/// [`solve_block_diagonal`] with caller-owned scratch memory: bit for bit
/// the same fit, with no heap traffic for the factors.
pub fn solve_block_diagonal_in(
    blocks: &[GramAccumulator],
    has_intercept: bool,
    ws: &mut GramWorkspace,
) -> Result<GramFit, StatsError> {
    let k: usize = blocks.iter().map(|b| b.k).sum();
    let n: usize = blocks.iter().map(|b| b.n).sum();
    if n < k + 1 {
        return Err(StatsError::InsufficientData {
            needed: k + 1,
            got: n,
        });
    }
    let tol = block_pivot_tolerance(blocks);
    let mut coefficients = Vec::with_capacity(k);
    let cholesky = ws.cholesky(blocks, tol);
    if cholesky {
        let mut offset = 0;
        for b in blocks {
            let l = &ws.factors[offset..offset + b.k * b.k];
            let start = coefficients.len();
            coefficients.resize(start + b.k, 0.0);
            cholesky_solve_into(b.k, l, &b.xty, &mut ws.forward, &mut coefficients[start..]);
            offset += b.k * b.k;
        }
    } else {
        for (b, inverse) in blocks.iter().zip(ws.qr_inverses(blocks)?) {
            coefficients.extend(inverse.matvec(&b.xty)?);
        }
    }

    // SSE = yᵀy − 2βᵀ(Xᵀy) + βᵀ(XᵀX)β, clamped: the quadratic form is
    // exact algebra but loses absolute precision ~ε·yᵀy, which can dip
    // below zero for near-perfect fits.
    let bxy: f64 = coefficients
        .iter()
        .zip(blocks.iter().flat_map(|b| &b.xty))
        .map(|(b, v)| b * v)
        .sum();
    let mut bxxb = 0.0;
    let mut offset = 0;
    for b in blocks {
        let beta = &coefficients[offset..offset + b.k];
        for (i, row) in b.xtx.chunks_exact(b.k).enumerate() {
            let xi: f64 = row.iter().zip(beta).map(|(a, c)| a * c).sum();
            bxxb += beta[i] * xi;
        }
        offset += b.k;
    }
    let (yty, sum_y) = blocks
        .iter()
        .fold((0.0, 0.0), |(q, s), b| (q + b.yty, s + b.sum_y));
    let sse = (yty - 2.0 * bxy + bxxb).max(0.0);
    let sst = total_sum_of_squares(yty, sum_y, n, has_intercept);
    let summary = fit_summary(sse, sst, n, k, has_intercept)?;
    Ok(GramFit {
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
    })
}

/// The Cholesky pivot tolerance of a block-diagonal solve: relative to the
/// largest diagonal entry of any block.
fn block_pivot_tolerance(blocks: &[GramAccumulator]) -> f64 {
    let max_diag = blocks
        .iter()
        .flat_map(GramAccumulator::diagonal)
        .fold(0.0f64, |m, d| m.max(d.abs()));
    CHOLESKY_RELATIVE_TOLERANCE * max_diag.max(1.0)
}

/// Standard errors, t statistics and two-sided t p-values of a
/// [`solve_block_diagonal`] fit, recomputed from the blocks it solved.
///
/// The diagonal of `(XᵀX)⁻¹` comes by the route the fit took
/// ([`GramFit::solved_by_cholesky`]): one Cholesky solve per unit vector
/// against each block's factor, or the diagonal of each block's QR
/// fallback inverse `R⁻¹Qᵀ`, with the solve's own tolerances. The values
/// are bit for bit what the solve computed when it still carried them.
/// `blocks` must be the ones `fit` was solved from.
pub fn gram_coefficient_inference(
    blocks: &[GramAccumulator],
    fit: &GramFit,
) -> Result<CoefficientInference, StatsError> {
    let k: usize = blocks.iter().map(|b| b.k).sum();
    if k != fit.k || fit.coefficients.len() != k {
        return Err(StatsError::DimensionMismatch {
            context: format!(
                "inference: blocks of width {k} for a fit of {} coefficients",
                fit.coefficients.len()
            ),
        });
    }
    let mut inverse_diagonal = Vec::with_capacity(k);
    if fit.solved_by_cholesky {
        let tol = block_pivot_tolerance(blocks);
        for b in blocks {
            let l = cholesky_factor_with_tolerance(b.k, &b.xtx, tol)?;
            inverse_diagonal.extend(cholesky_inverse_diagonal(b.k, &l));
        }
    } else {
        let mut ws = GramWorkspace::default();
        for inverse in ws.qr_inverses(blocks)? {
            inverse_diagonal.extend((0..inverse.rows()).map(|i| inverse[(i, i)]));
        }
    }
    coefficient_inference(&fit.coefficients, &inverse_diagonal, fit.sse, fit.n, k)
}

impl std::ops::AddAssign<&GramAccumulator> for GramAccumulator {
    /// Block merge; panics on width mismatch (use [`GramAccumulator::merge`]
    /// for a fallible version).
    fn add_assign(&mut self, other: &GramAccumulator) {
        self.merge(other).expect("accumulator widths must match");
    }
}

impl std::ops::Add<&GramAccumulator> for GramAccumulator {
    type Output = GramAccumulator;

    /// Block merge; panics on width mismatch (use [`GramAccumulator::merge`]
    /// for a fallible version).
    fn add(mut self, other: &GramAccumulator) -> GramAccumulator {
        self += other;
        self
    }
}

/// The result of a sufficient-statistics OLS solve: the coefficients and
/// fit summary of [`crate::regression::OlsFit`], without the
/// per-observation fitted values and residuals (which cannot be
/// reconstructed from the statistics) or the per-coefficient inference
/// (see [`gram_coefficient_inference`]).
#[derive(Debug, Clone, PartialEq)]
pub struct GramFit {
    /// Estimated coefficients, one per design column.
    pub coefficients: Vec<f64>,
    /// Residual sum of squares.
    pub sse: f64,
    /// Total sum of squares (see [`total_sum_of_squares`]).
    pub sst: f64,
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
    /// Number of observations.
    pub n: usize,
    /// Number of fitted parameters.
    pub k: usize,
    /// Whether the Cholesky route succeeded (`false` → QR fallback ran).
    pub solved_by_cholesky: bool,
}

impl GramFit {
    /// Predicts the response for one design row.
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
}

/// Prefix sums of [`GramAccumulator`]s over an ordered row sequence.
///
/// Accumulate rows once (in probing-cost order, for the contention-state
/// use case) and the statistics of any contiguous range `[a, b)` come back
/// as a prefix difference in O(k²) — no rescan of the observations.
///
/// The prefixes live in one flat buffer, one slot of stride
/// `k(k+1)/2 + k + 2` per prefix (the upper triangle of `XᵀX` row by row,
/// `Xᵀy`, `Σy²`, `Σy`; the row count of slot `i` is `i`), so a push copies
/// one slot forward and adds one row into it with
/// [`GramAccumulator::add_row`]'s arithmetic, each product of the
/// symmetric `XᵀX` once; [`Self::range`] mirrors the triangle.
#[derive(Debug, Clone)]
pub struct GramPrefix {
    k: usize,
    /// Slot `i` holds rows `0..i`; there are `rows pushed + 1` slots.
    sums: Vec<f64>,
}

impl GramPrefix {
    /// An empty prefix structure for rows of width `k`.
    pub fn new(k: usize) -> GramPrefix {
        GramPrefix::with_capacity(k, 0)
    }

    /// An empty prefix structure for rows of width `k`, with room for
    /// `rows` pushes.
    pub fn with_capacity(k: usize, rows: usize) -> GramPrefix {
        let stride = Self::stride_of(k);
        let mut sums = Vec::with_capacity((rows + 1) * stride);
        sums.resize(stride, 0.0);
        GramPrefix { k, sums }
    }

    fn stride_of(k: usize) -> usize {
        Self::triangle_of(k) + k + 2
    }

    /// Entries of the upper triangle of a `k × k` matrix.
    fn triangle_of(k: usize) -> usize {
        k * (k + 1) / 2
    }

    /// Design-row width `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of rows accumulated.
    pub fn len(&self) -> usize {
        self.sums.len() / Self::stride_of(self.k) - 1
    }

    /// True when no rows have been pushed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends the next row in sequence.
    pub fn push(&mut self, row: &[f64], y: f64) -> Result<(), StatsError> {
        let k = self.k;
        if row.len() != k {
            return Err(StatsError::DimensionMismatch {
                context: format!("gram row has {} values, accumulator holds {k}", row.len()),
            });
        }
        let stride = Self::stride_of(k);
        let last = self.sums.len() - stride;
        self.sums.extend_from_within(last..);
        let next = &mut self.sums[last + stride..];
        let (mut upper, rest) = next.split_at_mut(Self::triangle_of(k));
        let (xty, moments) = rest.split_at_mut(k);
        for (i, (&ri, xty_i)) in row.iter().zip(xty).enumerate() {
            let (upper_row, tail) = std::mem::take(&mut upper).split_at_mut(k - i);
            for (a, &rj) in upper_row.iter_mut().zip(&row[i..]) {
                *a += ri * rj;
            }
            *xty_i += ri * y;
            upper = tail;
        }
        moments[0] += y * y;
        moments[1] += y;
        Ok(())
    }

    /// Drops every row after the first `rows`, so the next push appends
    /// row `rows`. Keeping more rows than there are is a no-op.
    pub fn truncate(&mut self, rows: usize) {
        self.sums.truncate((rows + 1) * Self::stride_of(self.k));
    }

    /// Slot `i`: the sums over rows `0..i`.
    fn slot(&self, i: usize) -> &[f64] {
        let stride = Self::stride_of(self.k);
        &self.sums[i * stride..(i + 1) * stride]
    }

    /// Sufficient statistics of the contiguous row range `[a, b)`.
    pub fn range(&self, a: usize, b: usize) -> Result<GramAccumulator, StatsError> {
        if a > b || b > self.len() {
            return Err(StatsError::InvalidArgument(format!(
                "range [{a}, {b}) outside 0..{}",
                self.len()
            )));
        }
        let k = self.k;
        let mut diff = self.slot(b).iter().zip(self.slot(a)).map(|(x, y)| x - y);
        let mut xtx = vec![0.0; k * k];
        for i in 0..k {
            for (j, d) in (i..k).zip(diff.by_ref()) {
                xtx[i * k + j] = d;
                xtx[j * k + i] = d;
            }
        }
        let xty = diff.by_ref().take(k).collect();
        Ok(GramAccumulator {
            k,
            n: b - a,
            xtx,
            xty,
            yty: diff.next().expect("slot holds Σy²"),
            sum_y: diff.next().expect("slot holds Σy"),
        })
    }
}

/// `XᵀX += row·rowᵀ` and `Xᵀy += row·y` over a row-major `k × k` block and
/// its `k` right-hand sides, entry by entry in row order.
fn add_rank_one(xtx: &mut [f64], xty: &mut [f64], row: &[f64], y: f64) {
    let rows = xtx.chunks_exact_mut(row.len().max(1));
    for ((xtx_row, xty_i), &ri) in rows.zip(xty).zip(row) {
        for (a, &rj) in xtx_row.iter_mut().zip(row) {
            *a += ri * rj;
        }
        *xty_i += ri * y;
    }
}

/// Cholesky factorization `A = L·Lᵀ` of a symmetric positive-definite
/// matrix given row-major; returns the lower factor or
/// [`StatsError::Singular`] when a pivot falls below the relative
/// tolerance (see [`CHOLESKY_RELATIVE_TOLERANCE`]).
pub(crate) fn cholesky_factor(k: usize, a: &[f64]) -> Result<Vec<f64>, StatsError> {
    let max_diag = (0..k).fold(0.0f64, |m, i| m.max(a[i * k + i].abs()));
    cholesky_factor_with_tolerance(k, a, CHOLESKY_RELATIVE_TOLERANCE * max_diag.max(1.0))
}

/// [`cholesky_factor`] with an absolute pivot tolerance `tol`: a pivot at
/// or below it is [`StatsError::Singular`].
fn cholesky_factor_with_tolerance(k: usize, a: &[f64], tol: f64) -> Result<Vec<f64>, StatsError> {
    let mut l = vec![0.0; k * k];
    cholesky_factor_into(k, a, tol, &mut l)?;
    Ok(l)
}

/// [`cholesky_factor_with_tolerance`] into the zeroed row-major `k × k`
/// slice `l`.
fn cholesky_factor_into(k: usize, a: &[f64], tol: f64, l: &mut [f64]) -> Result<(), StatsError> {
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
    Ok(())
}

/// Solves `L·Lᵀ·x = b` by forward then backward substitution.
fn cholesky_solve(k: usize, l: &[f64], b: &[f64]) -> Vec<f64> {
    let mut x = vec![0.0; k];
    cholesky_solve_into(k, l, b, &mut Vec::new(), &mut x);
    x
}

/// [`cholesky_solve`] into `x`, with `z` as the forward-substitution
/// scratch vector.
fn cholesky_solve_into(k: usize, l: &[f64], b: &[f64], z: &mut Vec<f64>, x: &mut [f64]) {
    z.clear();
    z.resize(k, 0.0);
    for i in 0..k {
        let mut sum = b[i];
        for j in 0..i {
            sum -= l[i * k + j] * z[j];
        }
        z[i] = sum / l[i * k + i];
    }
    for i in (0..k).rev() {
        let mut sum = z[i];
        for j in (i + 1)..k {
            sum -= l[j * k + i] * x[j];
        }
        x[i] = sum / l[i * k + i];
    }
}

/// The diagonal of `(L·Lᵀ)⁻¹`: entry `j` of the solve against the unit
/// vector `e_j`.
fn cholesky_inverse_diagonal(k: usize, l: &[f64]) -> Vec<f64> {
    (0..k)
        .map(|j| {
            let mut e = vec![0.0; k];
            e[j] = 1.0;
            cholesky_solve(k, l, &e)[j]
        })
        .collect()
}

/// Appends `v` in the compact variable-length float encoding: one length
/// byte `L` (0..=8), then the `L` significant high-order bytes of the
/// value's little-endian IEEE-754 representation — low-order zero bytes
/// are dropped. Counts and integer-valued sums (ubiquitous in Gram
/// matrices over cardinality variables) shrink to a few bytes, zero to a
/// single byte; a full-precision fraction costs one extra byte. The bit
/// pattern round-trips exactly, and the encoding is canonical: for every
/// value there is exactly one byte string, so encoders are byte-stable.
pub fn push_f64_compact(out: &mut Vec<u8>, v: f64) {
    let b = v.to_le_bytes();
    let z = b.iter().take_while(|&&x| x == 0).count();
    out.push((8 - z) as u8);
    out.extend_from_slice(&b[z..]);
}

/// Reads one [`push_f64_compact`] value from the front of `bytes`,
/// returning the value and the number of bytes consumed. `None` on
/// truncation, a length byte above 8, or a non-canonical encoding (a
/// dropped-zero length whose first payload byte is still zero).
pub fn read_f64_compact(bytes: &[u8]) -> Option<(f64, usize)> {
    let (&len, rest) = bytes.split_first()?;
    let len = len as usize;
    if len > 8 || rest.len() < len || (len > 0 && rest[0] == 0) {
        return None;
    }
    let mut b = [0u8; 8];
    b[8 - len..].copy_from_slice(&rest[..len]);
    Some((f64::from_le_bytes(b), 1 + len))
}

/// Bounds-checked little-endian reader over an exact byte slice; feeds
/// [`GramAccumulator::from_bytes`].
struct ByteCursor<'a> {
    bytes: &'a [u8],
    off: usize,
}

impl<'a> ByteCursor<'a> {
    fn new(bytes: &'a [u8]) -> ByteCursor<'a> {
        ByteCursor { bytes, off: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], StatsError> {
        let end = self
            .off
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| StatsError::InvalidArgument("gram bytes: truncated".into()))?;
        let s = &self.bytes[self.off..end];
        self.off = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, StatsError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, StatsError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, StatsError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64, StatsError> {
        let (v, used) = read_f64_compact(&self.bytes[self.off..])
            .ok_or_else(|| StatsError::InvalidArgument("gram bytes: bad compact float".into()))?;
        self.off += used;
        Ok(v)
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.off
    }

    fn finish(&self) -> Result<(), StatsError> {
        if self.off != self.bytes.len() {
            return Err(StatsError::InvalidArgument(
                "gram bytes: trailing bytes".into(),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regression::OlsFit;

    /// Mixed absolute/relative closeness at the parity tolerance.
    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() <= 1e-9 * (1.0 + a.abs().max(b.abs()))
    }

    /// Noisy multi-column design (noise keeps SSE well away from the
    /// catastrophic-cancellation regime of perfect fits).
    fn noisy_design(n: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                let x1 = (i % 17) as f64 * 1.5;
                let x2 = ((i * 7) % 23) as f64 - 11.0;
                vec![1.0, x1, x2]
            })
            .collect();
        let y: Vec<f64> = rows
            .iter()
            .enumerate()
            .map(|(i, r)| 2.0 + 3.0 * r[1] - 0.8 * r[2] + ((i * 31 % 13) as f64 - 6.0) * 0.3)
            .collect();
        (rows, y)
    }

    fn accumulate(rows: &[Vec<f64>], y: &[f64]) -> GramAccumulator {
        let mut acc = GramAccumulator::new(rows[0].len());
        for (r, &v) in rows.iter().zip(y) {
            acc.add_row(r, v).unwrap();
        }
        acc
    }

    #[test]
    fn gram_solve_matches_ols_fit() {
        let (rows, y) = noisy_design(120);
        let acc = accumulate(&rows, &y);
        let gram = acc.solve(true).unwrap();
        let ols = OlsFit::fit(&Matrix::from_rows(&rows).unwrap(), &y, true).unwrap();
        assert!(gram.solved_by_cholesky);
        for (a, b) in gram.coefficients.iter().zip(&ols.coefficients) {
            assert!(close(*a, *b), "{a} vs {b}");
        }
        assert!(close(gram.sse, ols.sse), "{} vs {}", gram.sse, ols.sse);
        assert!(close(gram.sst, ols.sst));
        assert!(close(gram.r_squared, ols.r_squared));
        assert!(close(gram.adj_r_squared, ols.adj_r_squared));
        assert!(close(gram.see, ols.see));
        assert!(close(gram.f_statistic, ols.f_statistic));
        assert!(close(gram.f_p_value, ols.f_p_value));
        let inference = gram_coefficient_inference(std::slice::from_ref(&acc), &gram).unwrap();
        for (a, b) in inference.std_errors.iter().zip(&ols.coef_std_errors) {
            assert!(close(*a, *b), "std err {a} vs {b}");
        }
        for (a, b) in inference.t_statistics.iter().zip(&ols.t_statistics) {
            assert!(close(*a, *b), "t {a} vs {b}");
        }
        assert_eq!((gram.n, gram.k), (ols.n, ols.k));
    }

    #[test]
    fn no_intercept_solve_matches_ols_fit() {
        let (rows, y) = noisy_design(60);
        let rows: Vec<Vec<f64>> = rows.into_iter().map(|r| r[1..].to_vec()).collect();
        let acc = accumulate(&rows, &y);
        let gram = acc.solve(false).unwrap();
        let ols = OlsFit::fit(&Matrix::from_rows(&rows).unwrap(), &y, false).unwrap();
        assert!(close(gram.sst, ols.sst));
        assert!(close(gram.r_squared, ols.r_squared));
        assert!(close(gram.adj_r_squared, ols.adj_r_squared));
    }

    #[test]
    fn remove_row_is_the_inverse_of_add_row() {
        let (rows, y) = noisy_design(50);
        let mut acc = accumulate(&rows, &y);
        let reference = accumulate(&rows[..49], &y[..49]);
        acc.remove_row(&rows[49], y[49]).unwrap();
        assert_eq!(acc.n(), 49);
        let a = acc.solve(true).unwrap();
        let b = reference.solve(true).unwrap();
        for (x, y) in a.coefficients.iter().zip(&b.coefficients) {
            assert!(close(*x, *y));
        }
        assert!(close(a.see, b.see));
    }

    #[test]
    fn merge_equals_joint_accumulation() {
        let (rows, y) = noisy_design(80);
        let left = accumulate(&rows[..30], &y[..30]);
        let right = accumulate(&rows[30..], &y[30..]);
        let merged = left.clone() + &right;
        let joint = accumulate(&rows, &y);
        assert_eq!(merged.n(), joint.n());
        let a = merged.solve(true).unwrap();
        let b = joint.solve(true).unwrap();
        for (x, y) in a.coefficients.iter().zip(&b.coefficients) {
            assert!(close(*x, *y));
        }
        assert!(close(a.r_squared, b.r_squared));
    }

    #[test]
    fn subset_matches_reduced_design() {
        let (rows, y) = noisy_design(70);
        let acc = accumulate(&rows, &y);
        let reduced_rows: Vec<Vec<f64>> = rows.iter().map(|r| vec![r[0], r[2]]).collect();
        let direct = accumulate(&reduced_rows, &y);
        let sub = acc.subset(&[0, 2]).unwrap();
        let a = sub.solve(true).unwrap();
        let b = direct.solve(true).unwrap();
        for (x, y) in a.coefficients.iter().zip(&b.coefficients) {
            assert!(close(*x, *y));
        }
        assert!(close(a.see, b.see));
        assert!(acc.subset(&[0, 9]).is_err());
    }

    #[test]
    fn prefix_range_matches_direct_accumulation() {
        let (rows, y) = noisy_design(90);
        let mut prefix = GramPrefix::new(3);
        for (r, &v) in rows.iter().zip(&y) {
            prefix.push(r, v).unwrap();
        }
        assert_eq!(prefix.len(), 90);
        let mid = prefix.range(20, 75).unwrap();
        let direct = accumulate(&rows[20..75], &y[20..75]);
        assert_eq!(mid.n(), direct.n());
        let a = mid.solve(true).unwrap();
        let b = direct.solve(true).unwrap();
        for (x, y) in a.coefficients.iter().zip(&b.coefficients) {
            assert!(close(*x, *y));
        }
        assert!(prefix.range(10, 5).is_err());
        assert!(prefix.range(0, 91).is_err());
        assert_eq!(prefix.range(0, prefix.len()).unwrap().n(), 90);
    }

    /// The prefix sums each product of the triangle once and mirrors it;
    /// `add_row_upper` plus `mirror_upper` does the same in place. Both
    /// must equal `add_row`'s full-matrix sums bit for bit, and a truncated
    /// prefix must continue as if the dropped rows had never been pushed.
    #[test]
    fn triangle_sums_equal_full_sums_bitwise() {
        let bits = |acc: &GramAccumulator| {
            let mut v: Vec<u64> = acc.xtx().iter().map(|x| x.to_bits()).collect();
            v.extend(acc.xty().iter().map(|x| x.to_bits()));
            v.extend([acc.yty().to_bits(), acc.sum_y().to_bits(), acc.n() as u64]);
            v
        };
        let (rows, y) = noisy_design(90);
        let mut prefix = GramPrefix::new(3);
        let mut upper = GramAccumulator::new(3);
        for (r, &v) in rows.iter().zip(&y) {
            prefix.push(r, v).unwrap();
            upper.add_row_upper(r, v).unwrap();
        }
        upper.mirror_upper();
        let full = accumulate(&rows, &y);
        assert_eq!(bits(&upper), bits(&full));
        for b in [1, 37, 90] {
            let direct = accumulate(&rows[..b], &y[..b]);
            assert_eq!(
                bits(&prefix.range(0, b).unwrap()),
                bits(&direct),
                "rows 0..{b}"
            );
        }
        let shifted: Vec<f64> = y.iter().map(|v| v + 1.5).collect();
        let mut fresh = GramPrefix::new(3);
        for (r, &v) in rows.iter().zip(y[..40].iter().chain(&shifted[40..])) {
            fresh.push(r, v).unwrap();
        }
        prefix.truncate(40);
        assert_eq!(prefix.len(), 40);
        for (r, &v) in rows[40..].iter().zip(&shifted[40..]) {
            prefix.push(r, v).unwrap();
        }
        for (a, b) in [(0, 90), (12, 41), (40, 90)] {
            let (p, f) = (prefix.range(a, b).unwrap(), fresh.range(a, b).unwrap());
            assert_eq!(bits(&p), bits(&f), "rows {a}..{b}");
        }
    }

    #[test]
    fn merge_placed_assembles_block_diagonal() {
        // Two per-state blocks of width 2 placed into a 4-wide general
        // design: state 0 → columns {0,1}, state 1 → columns {2,3}.
        let (rows, y) = noisy_design(60);
        let z: Vec<Vec<f64>> = rows.iter().map(|r| vec![1.0, r[1]]).collect();
        let b0 = accumulate(&z[..30], &y[..30]);
        let b1 = accumulate(&z[30..], &y[30..]);
        let mut pooled = GramAccumulator::new(4);
        pooled.merge_placed(&b0, &[0, 1]).unwrap();
        pooled.merge_placed(&b1, &[2, 3]).unwrap();
        // Reference: rows built the design-matrix way.
        let mut direct = GramAccumulator::new(4);
        for (i, (zr, &v)) in z.iter().zip(&y).enumerate() {
            let row = if i < 30 {
                vec![zr[0], zr[1], 0.0, 0.0]
            } else {
                vec![0.0, 0.0, zr[0], zr[1]]
            };
            direct.add_row(&row, v).unwrap();
        }
        // xtx/xty accumulate per-block in the same order either way and
        // match bitwise; yty/sum_y sum in a different grouping, so compare
        // those at tolerance.
        assert_eq!(pooled.n(), direct.n());
        assert_eq!(pooled.xtx(), direct.xtx());
        assert_eq!(pooled.xty(), direct.xty());
        assert!(close(pooled.yty(), direct.yty()));
        assert!(close(pooled.sum_y(), direct.sum_y()));
        assert!(pooled.merge_placed(&b0, &[0]).is_err());
        assert!(pooled.merge_placed(&b0, &[0, 7]).is_err());
    }

    #[test]
    fn exactly_singular_gram_errors() {
        // Second column is 2× the first: rank 1.
        let mut acc = GramAccumulator::new(2);
        for i in 0..10 {
            let x = i as f64;
            acc.add_row(&[x, 2.0 * x], x * 3.0).unwrap();
        }
        assert_eq!(acc.solve(true).unwrap_err(), StatsError::Singular);
    }

    #[test]
    fn qr_fallback_handles_ill_conditioned_systems() {
        // A Gram matrix whose Schur-complement pivot (1e-5 relative 1e-11
        // of the max diagonal) sits below the Cholesky tolerance (1e-10
        // relative) but above the QR back-substitution threshold (1e-12
        // relative), so the solve must succeed via the fallback.
        let acc = GramAccumulator::from_parts(
            2,
            10,
            vec![1.0e6, 1.0e3, 1.0e3, 1.0 + 1.0e-5],
            vec![2.0e6, 2.01e3],
            4.1e6,
            4.0e3,
        )
        .unwrap();
        let fit = acc.solve(true).unwrap();
        assert!(!fit.solved_by_cholesky, "expected the QR fallback");
        assert!(fit.coefficients.iter().all(|c| c.is_finite()));
    }

    /// One workspace reused across block sets of different counts, widths
    /// and routes (Cholesky and QR fallback) gives every fit bit for bit
    /// as a fresh solve does: no state leaks between solves.
    #[test]
    fn reused_workspace_matches_fresh_solves() {
        let (rows, y) = noisy_design(60);
        let wide = accumulate(&rows, &y);
        let narrow = wide.subset(&[0, 2]).unwrap();
        let ill = GramAccumulator::from_parts(
            2,
            10,
            vec![1.0e6, 1.0e3, 1.0e3, 1.0 + 1.0e-5],
            vec![2.0e6, 2.01e3],
            4.1e6,
            4.0e3,
        )
        .unwrap();
        let sets = [
            vec![wide.clone()],
            vec![ill.clone()],
            vec![wide.clone(), narrow.clone()],
            vec![ill.clone(), ill.clone(), wide.clone()],
            vec![narrow],
            vec![wide],
        ];
        let mut ws = GramWorkspace::default();
        let mut routes = Vec::new();
        for blocks in &sets {
            let fresh = solve_block_diagonal(blocks, true).unwrap();
            let reused = solve_block_diagonal_in(blocks, true, &mut ws).unwrap();
            let bits = |f: &GramFit| -> Vec<u64> {
                f.coefficients
                    .iter()
                    .chain([&f.sse])
                    .map(|v| v.to_bits())
                    .collect()
            };
            assert_eq!(bits(&reused), bits(&fresh));
            assert_eq!(reused.solved_by_cholesky, fresh.solved_by_cholesky);
            routes.push(fresh.solved_by_cholesky);
        }
        assert!(
            routes.contains(&true) && routes.contains(&false),
            "{routes:?}"
        );
    }

    #[test]
    fn insufficient_rows_error_matches_ols() {
        let mut acc = GramAccumulator::new(3);
        acc.add_row(&[1.0, 2.0, 3.0], 1.0).unwrap();
        assert_eq!(
            acc.solve(true).unwrap_err(),
            StatsError::InsufficientData { needed: 4, got: 1 }
        );
    }

    #[test]
    fn dimension_errors_are_reported() {
        let mut acc = GramAccumulator::new(2);
        assert!(acc.add_row(&[1.0], 1.0).is_err());
        assert!(acc.remove_row(&[1.0, 2.0], 1.0).is_err()); // empty
        let other = GramAccumulator::new(3);
        assert!(acc.merge(&other).is_err());
        assert!(GramAccumulator::from_parts(2, 1, vec![0.0; 3], vec![0.0; 2], 0.0, 0.0).is_err());
    }

    #[test]
    fn from_parts_roundtrip() {
        let (rows, y) = noisy_design(25);
        let acc = accumulate(&rows, &y);
        let back = GramAccumulator::from_parts(
            acc.k(),
            acc.n(),
            acc.xtx().to_vec(),
            acc.xty().to_vec(),
            acc.yty(),
            acc.sum_y(),
        )
        .unwrap();
        assert_eq!(back, acc);
    }

    #[test]
    fn predict_checks_width() {
        let (rows, y) = noisy_design(30);
        let fit = accumulate(&rows, &y).solve(true).unwrap();
        assert!(fit.predict(&[1.0, 2.0, 3.0]).is_ok());
        assert!(fit.predict(&[1.0]).is_err());
    }

    #[test]
    fn byte_codec_roundtrip_bit_exact() {
        let (rows, y) = noisy_design(40);
        let acc = accumulate(&rows, &y);
        assert!(acc.xtx_is_symmetric());
        let bytes = acc.to_bytes();
        // Symmetric: only the lower triangle is stored, each float at
        // most 9 bytes in the compact encoding — and encoding twice is
        // byte-stable.
        let k = acc.k();
        assert!(bytes.len() <= 4 + 8 + 1 + 9 * (k * (k + 1) / 2 + k + 2));
        assert_eq!(bytes, acc.to_bytes());
        let back = GramAccumulator::from_bytes(&bytes).unwrap();
        assert_eq!(back, acc);
        for (a, b) in back.xtx().iter().zip(acc.xtx()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn byte_codec_asymmetric_fallback() {
        // from_parts can carry an asymmetric XᵀX; the codec must keep it.
        let mut xtx = vec![1.0, 2.0, 3.0, 4.0];
        xtx[1] = 2.5; // xtx[0][1] != xtx[1][0]
        let acc = GramAccumulator::from_parts(2, 3, xtx, vec![5.0, 6.0], 7.0, 8.0).unwrap();
        assert!(!acc.xtx_is_symmetric());
        let bytes = acc.to_bytes();
        // Full k² floats, small integer-ish values: 2-3 bytes each.
        assert!(bytes.len() <= 4 + 8 + 1 + 9 * (4 + 2 + 2));
        assert_eq!(GramAccumulator::from_bytes(&bytes).unwrap(), acc);
    }

    #[test]
    fn byte_codec_rejects_malformed() {
        let (rows, y) = noisy_design(10);
        let bytes = accumulate(&rows, &y).to_bytes();
        // Truncation at every boundary fails cleanly.
        for cut in [0, 3, 4, 12, 13, bytes.len() - 1] {
            assert!(GramAccumulator::from_bytes(&bytes[..cut]).is_err(), "{cut}");
        }
        // Trailing garbage is rejected, not ignored.
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(GramAccumulator::from_bytes(&padded).is_err());
        // An unknown flags byte is rejected.
        let mut bad = bytes.clone();
        bad[12] = 9;
        assert!(GramAccumulator::from_bytes(&bad).is_err());
        // A variable count the remaining bytes cannot hold is rejected
        // before anything is allocated for it, in both block layouts.
        for k in [1u32 << 10, 1 << 20, u32::MAX] {
            for flags in [0u8, 1] {
                let mut huge = bytes.clone();
                huge[..4].copy_from_slice(&k.to_le_bytes());
                huge[12] = flags;
                let err = GramAccumulator::from_bytes(&huge).unwrap_err();
                assert!(err.to_string().contains("bytes left"), "k={k}: {err}");
            }
        }
    }

    #[test]
    fn compact_float_encoding_is_canonical_and_minimal() {
        let mut buf = Vec::new();
        push_f64_compact(&mut buf, 0.0);
        assert_eq!(buf, [0]);
        buf.clear();
        // An integer-valued double drops its low-order zero bytes.
        push_f64_compact(&mut buf, 167.0);
        assert_eq!(buf.len(), 4, "{buf:?}");
        assert_eq!(read_f64_compact(&buf), Some((167.0, 4)));
        // Non-canonical: a leading payload zero that should be dropped.
        assert_eq!(read_f64_compact(&[2, 0, 64]), None);
        // Length byte above 8, truncated payload, empty input.
        assert_eq!(read_f64_compact(&[9, 1, 2, 3, 4, 5, 6, 7, 8, 9]), None);
        assert_eq!(read_f64_compact(&[3, 1]), None);
        assert_eq!(read_f64_compact(&[]), None);
    }

    #[test]
    fn byte_codec_preserves_special_floats() {
        let acc = GramAccumulator::from_parts(
            1,
            2,
            vec![f64::INFINITY],
            vec![-0.0],
            f64::MIN_POSITIVE,
            -f64::NAN,
        )
        .unwrap();
        let back = GramAccumulator::from_bytes(&acc.to_bytes()).unwrap();
        assert_eq!(back.xtx()[0], f64::INFINITY);
        assert_eq!(back.xty()[0].to_bits(), (-0.0f64).to_bits());
        assert_eq!(back.yty(), f64::MIN_POSITIVE);
        assert_eq!(back.sum_y().to_bits(), (-f64::NAN).to_bits());
    }
}
