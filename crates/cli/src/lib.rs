//! # mdbs-cli
//!
//! The command-line interface of the `mdbs-qcost` workspace: derive
//! multi-states cost models against the built-in simulated local DBSs,
//! keep them in a catalog file, and estimate or execute SQL queries.
//!
//! ```text
//! mdbs-qcost derive   --site oracle --class g1 --out catalog.txt
//! mdbs-qcost estimate --catalog catalog.txt --site oracle \
//!                     --sql "select a1, a5, a7 from R7 where a3 > 300 and a8 < 2000" \
//!                     --execute
//! mdbs-qcost run      --site db2 --sql "select * from R4 where a2 < 100" --procs 80
//! mdbs-qcost catalog  --file catalog.txt
//! ```
//!
//! All logic lives in [`commands::dispatch`] and returns strings, so the
//! whole surface is unit-tested; `main` only prints.

#![warn(missing_docs)]

pub mod args;
pub mod commands;
pub mod site;

pub use commands::{dispatch, usage, CliError};
