//! # mdbs-bench
//!
//! The reproduction harness: one runner per table and figure of the paper's
//! evaluation (§5), shared by the `repro` binary, the in-tree wall-clock
//! benches ([`harness`]) and the integration tests.
//!
//! | Experiment | Paper artifact | Runner |
//! |---|---|---|
//! | E-FIG1 | Fig. 1 — query cost vs concurrent processes | [`experiments::fig1`](mod@experiments::fig1) |
//! | E-TAB4 | Table 4 — derived multi-states cost models | [`experiments::table4`](mod@experiments::table4) |
//! | E-TAB5 | Table 5 — multi-states vs one-state vs static | [`experiments::table5`](mod@experiments::table5) |
//! | E-TAB6 | Table 6 — IUPMA vs ICMA, clustered contention | [`experiments::table6`](mod@experiments::table6) |
//! | E-FIG4..9 | Figs. 4–9 — observed vs estimated test costs | [`experiments::fig4_9`](mod@experiments::fig4_9) |
//! | E-FIG10 | Fig. 10 — contention-level histogram | [`experiments::fig10`](mod@experiments::fig10) |
//! | E-STATES | §5 — R² as the state count grows | [`experiments::states_sweep`](mod@experiments::states_sweep) |

#![warn(missing_docs)]

pub mod experiments;
pub mod harness;
pub mod workloads;
