//! # mdbs-core
//!
//! The **multi-states query sampling method** of
//! *"Developing Cost Models with Qualitative Variables for Dynamic
//! Multidatabase Environments"* (Zhu, Sun, Motheramgari — ICDE 2000).
//!
//! A multidatabase system (MDBS) cannot see inside its autonomous local
//! database systems, yet its global query optimizer needs per-site cost
//! models. The static query sampling method fits regression cost models to
//! observed sample-query costs — but in a *dynamic* environment the same
//! query's cost can swing by an order of magnitude with the background
//! load. This crate implements the paper's fix:
//!
//! 1. gauge the combined contention level with a cheap **probing query**
//!    ([`probing`]),
//! 2. split the probing-cost range into discrete **contention states** with
//!    the **IUPMA** or **ICMA** algorithms ([`states`], [`qualvar`]),
//! 3. fit a **qualitative regression cost model** whose intercept *and*
//!    slopes vary by state ([`model`]), with automatic variable selection
//!    ([`variables`], [`selection`]) and multicollinearity screening,
//! 4. validate with R², SEE, F-tests and good-estimate percentages
//!    ([`validate`]),
//! 5. store models in the MDBS global catalog ([`catalog`]) and use them
//!    for global query optimization ([`optimizer`]).
//!
//! The end-to-end pipeline — sampling, probing, state determination,
//! selection, fitting, validation — lives in [`mod@derive`]. The quickest way
//! in:
//!
//! ```
//! use mdbs_core::derive::{DerivationConfig, derive_cost_model};
//! use mdbs_core::classes::QueryClass;
//! use mdbs_core::pipeline::PipelineCtx;
//! use mdbs_core::states::StateAlgorithm;
//! use mdbs_sim::{MdbsAgent, VendorProfile, LoadBuilder, ContentionProfile};
//! use mdbs_sim::datagen::standard_database;
//!
//! let mut agent = MdbsAgent::new(VendorProfile::oracle8(), standard_database(42), 1);
//! agent.set_load_builder(LoadBuilder::new(ContentionProfile::Uniform { lo: 5.0, hi: 120.0 }));
//! let cfg = DerivationConfig::quick(); // small sample for doc-test speed
//! let derived = derive_cost_model(
//!     &mut agent,
//!     QueryClass::UnaryNoIndex,
//!     StateAlgorithm::Iupma,
//!     &cfg,
//!     &mut PipelineCtx::seeded(7),
//! ).unwrap();
//! assert!(derived.model.fit.r_squared > 0.5);
//! ```
//!
//! Every pipeline entry point takes a [`pipeline::PipelineCtx`] carrying the
//! cross-cutting concerns (telemetry, RNG seed); batch derivation over many
//! `(site, class)` pairs goes through [`derive::derive_all`], which fans out
//! to a scoped-thread [`pool`]. The serving loop prices requests against
//! a versioned [`registry::ModelRegistry`] it owns.

#![warn(missing_docs)]

pub mod catalog;
pub mod classes;
pub mod correction;
pub mod derive;
pub mod maintenance;
pub mod mdbs;
pub mod model;
pub mod observation;
pub mod optimizer;
pub mod persist;
pub mod pipeline;
pub mod pool;
pub mod probing;
pub mod qualvar;
pub mod registry;
pub mod sampling;
pub mod selection;
pub mod server;
pub mod states;
pub mod store;
pub mod validate;
pub mod variables;

pub use catalog::GlobalCatalog;
pub use classes::QueryClass;
pub use correction::{Correction, CorrectionConfig, CorrectionLedger, EstimateQuery};
pub use derive::{
    derive_all, derive_cost_model, BatchConfig, BatchOutcome, DerivationConfig, DeriveJob,
    DerivedModel,
};
pub use maintenance::{MaintenanceConfig, MaintenanceConfigBuilder};
pub use mdbs::{GlobalExecution, Mdbs};
pub use model::{CostModel, ModelAccumulator, ModelForm};
pub use observation::Observation;
pub use pipeline::PipelineCtx;
pub use qualvar::StateSet;
pub use registry::{EstimateDetail, ModelRegistry, RegisteredModel};
pub use server::{
    EstimationServer, RequestTrace, ServeConfig, ServeConfigBuilder, ServeReport, TraceEvent,
};
pub use states::StateAlgorithm;
pub use store::{CatalogFormat, CatalogSnapshot, CatalogStore, FileCatalogStore, StoreError};

/// Errors produced by the cost-model derivation machinery.
///
/// Marked `#[non_exhaustive]`: downstream matches must keep a wildcard arm
/// so new failure modes can be added without a breaking change. The
/// [`std::error::Error::source`] chain exposes the underlying numerical
/// error for [`CoreError::Numeric`], so callers can match on the root cause
/// instead of parsing messages.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CoreError {
    /// Too few observations for the requested model.
    InsufficientSamples {
        /// Observations required.
        needed: usize,
        /// Observations available.
        got: usize,
    },
    /// The underlying numerical routine failed.
    Numeric(mdbs_stats::StatsError),
    /// The local agent rejected a query.
    Agent(String),
    /// The observations are degenerate (e.g. all probing costs equal when a
    /// multi-state partition was requested).
    Degenerate(String),
}

impl std::fmt::Display for CoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreError::InsufficientSamples { needed, got } => {
                write!(f, "insufficient samples: needed {needed}, got {got}")
            }
            CoreError::Numeric(e) => write!(f, "numeric error: {e}"),
            CoreError::Agent(e) => write!(f, "agent error: {e}"),
            CoreError::Degenerate(msg) => write!(f, "degenerate data: {msg}"),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Numeric(e) => Some(e),
            _ => None,
        }
    }
}

impl From<mdbs_stats::StatsError> for CoreError {
    fn from(e: mdbs_stats::StatsError) -> Self {
        CoreError::Numeric(e)
    }
}
