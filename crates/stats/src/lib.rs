//! # mdbs-stats
//!
//! Numerical and statistical substrate for the `mdbs-qcost` workspace.
//!
//! The multi-states query sampling method of Zhu, Sun & Motheramgari
//! (ICDE 2000) is built on classical multiple linear regression with
//! qualitative (indicator) variables, model-diagnostic statistics
//! (R², standard error of estimation, F-tests, variance inflation factors,
//! simple correlation coefficients) and agglomerative hierarchical
//! clustering. This crate provides all of those from first principles:
//!
//! * [`matrix`] — a small dense matrix type with Householder QR
//!   factorization and least-squares / linear-system solvers,
//! * [`regression`] — ordinary least squares with the full diagnostic suite,
//! * [`suffstats`] — incremental sufficient-statistics (Gram-matrix)
//!   regression: rank-1 updates, block merges, column subsets, prefix sums,
//!   an O(k³) solver for the coefficients and fit summary, and the
//!   per-coefficient inference on demand,
//! * [`distributions`] — Γ/β special functions and Normal, Student-t and
//!   F cumulative distribution functions,
//! * [`correlation`] — Pearson simple correlation,
//! * [`vif`] — variance inflation factors for multicollinearity screening,
//! * [`clustering`] — agglomerative hierarchical clustering with centroid
//!   linkage (used by the ICMA contention-state algorithm),
//! * [`describe`] — descriptive statistics and histograms,
//! * [`rng`] — the workspace's single deterministic pseudo-random number
//!   generator (xoshiro256++ seeded via SplitMix64).
//!
//! The crate is dependency-free (std only) and fully deterministic.

#![warn(missing_docs)]

pub mod clustering;
pub mod correlation;
pub mod describe;
pub mod distributions;
pub mod matrix;
pub mod regression;
pub mod rng;
pub mod suffstats;
pub mod vif;

pub use clustering::{cluster_1d, cluster_path_1d, Cluster1D};
pub use correlation::{pearson, Centered};
pub use describe::Summary;
pub use matrix::Matrix;
pub use regression::{fit_block_diagonal, BlockDiagonalFit, OlsFit, RegressionError};
pub use rng::Rng;
pub use suffstats::{
    gram_coefficient_inference, solve_block_diagonal, solve_block_diagonal_in, GramAccumulator,
    GramFit, GramPrefix, GramWorkspace,
};

/// Error type shared by numerical routines in this crate.
#[derive(Debug, Clone, PartialEq)]
pub enum StatsError {
    /// Matrix dimensions do not conform for the requested operation.
    DimensionMismatch {
        /// Human-readable description of the conflict.
        context: String,
    },
    /// The system is singular or numerically rank-deficient.
    Singular,
    /// Not enough observations/degrees of freedom for the computation.
    InsufficientData {
        /// Observations required.
        needed: usize,
        /// Observations available.
        got: usize,
    },
    /// An input argument is outside its valid domain.
    InvalidArgument(String),
}

impl std::fmt::Display for StatsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StatsError::DimensionMismatch { context } => {
                write!(f, "dimension mismatch: {context}")
            }
            StatsError::Singular => write!(f, "matrix is singular or rank-deficient"),
            StatsError::InsufficientData { needed, got } => {
                write!(f, "insufficient data: needed {needed}, got {got}")
            }
            StatsError::InvalidArgument(msg) => write!(f, "invalid argument: {msg}"),
        }
    }
}

impl std::error::Error for StatsError {}
