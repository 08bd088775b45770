//! # mdbs-sim
//!
//! A deterministic simulator of **autonomous local database systems** and of
//! the **dynamic environment** they run in, standing in for the paper's
//! testbed (Oracle 8.0 and DB2 5.0 under Solaris on SUN UltraSparc 2
//! workstations driven by a CORDS-MDBS "load builder").
//!
//! The multi-states query sampling method treats each local DBS as a black
//! box: it can only *submit a query and observe its elapsed cost*. This
//! crate provides exactly that black box:
//!
//! * [`machine`] — a simulated host with CPU time-slicing, I/O queueing and
//!   memory pressure (swap thrashing), producing the super-linear cost
//!   blow-up of paper Figure 1,
//! * [`contention`] — the load builder: background-process populations and
//!   contention-level trajectories (uniform, clustered, sweeps),
//! * [`sysstats`] — Unix-style system statistics (paper Table 1) derived
//!   from the machine state, used for probing-cost *estimation* (eq. (2)),
//! * [`catalog`], [`datagen`] — local schemas and the paper's synthetic
//!   databases (12 tables, 3,000–250,000 tuples, varied indexes),
//! * [`query`], [`selectivity`] — unary and 2-way-join local queries and
//!   their result-size derivation,
//! * [`access`], [`engine`] — the local DBMS's own access-path choice and
//!   ground-truth cost model (init + I/O + CPU, inflated by contention),
//! * [`vendor`] — per-DBMS cost-constant profiles (`Oracle8`-like vs
//!   `Db2V5`-like),
//! * [`agent`] — the MDBS agent façade the method talks to: `run`, `probe`,
//!   `stats`, `set_load`.
//!
//! Everything is seeded and reproducible; "elapsed time" is virtual seconds.

#![warn(missing_docs)]

pub mod access;
pub mod agent;
pub mod catalog;
pub mod contention;
pub mod datagen;
pub mod engine;
pub mod events;
pub mod machine;
pub mod query;
pub mod selectivity;
pub mod sql;
pub mod sysstats;
pub mod trace;
pub mod util;
pub mod vendor;

pub use agent::{Execution, MdbsAgent};
pub use catalog::{ColumnDef, IndexKind, LocalCatalog, TableDef, TableId};
pub use contention::{ContentionProfile, Load, LoadBuilder};
pub use events::EnvironmentEvent;
pub use machine::{Machine, MachineSpec};
pub use query::{JoinQuery, Predicate, Query, UnaryQuery};
pub use sql::parse_query;
pub use sysstats::{DeferredStats, SystemStats};
pub use vendor::VendorProfile;
