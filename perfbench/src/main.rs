//! `perfbench` — the end-to-end and per-layer benchmark of `mdbs-qcost`.
//!
//! ```text
//! perfbench --workload serve_drift|derive_catalog
//!           --seed N --seconds S --trace 0|1
//! ```
//!
//! Each run makes its inputs from `--seed`, sets up (trace file, catalog)
//! several times and reports the median set-up time, then measures for
//! `--seconds`. End-to-end runs (`--trace 0`) call the CLI's own entry
//! point, `mdbs_cli::dispatch`, with argv — `derive`, `archive` and
//! `serve --loop` — so argument handling, per-request agent construction
//! and catalog loads are all timed. Serve replays are a closed loop of
//! back-to-back replays by one client; each replays a trace that is an
//! open loop in virtual time. Traced runs (`--trace 1`) time the public
//! functions of each layer from outside and read the `derive.*` and
//! `maintenance.*` spans the program already emits.
//!
//! Every run checks the program's outputs (byte-identity across worker
//! counts, archive round trips, answered + failed = attempted, and the
//! traced replay against the served answers). A failed check exits 1
//! without a result line; otherwise the last line of stdout is one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`.

// Measuring wall time is this crate's job; the workspace's no-wall-clock
// policy covers the program, whose outputs must stay byte-stable.
#![allow(clippy::disallowed_types, clippy::disallowed_methods)]
#![forbid(unsafe_code)]

mod derive;
mod gen;
mod serve;
mod util;

use std::process::ExitCode;

/// Parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        let bad = |what: &str| format!("bad {what} `{value}`");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("seed"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("seconds"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad("seconds"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace flag")),
                })
            }
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn run(args: &Args) -> Result<util::Outcome, String> {
    let dir = util::WorkDir::create(&args.workload)?;
    let (seed, secs) = (args.seed, args.seconds);
    match (args.workload.as_str(), args.trace) {
        ("serve_drift", false) => serve::run(seed, secs, &dir),
        ("serve_drift", true) => serve::run_traced(seed, secs, &dir),
        ("derive_catalog", false) => derive::run(seed, secs, &dir),
        ("derive_catalog", true) => derive::run_traced(seed, secs, &dir),
        (other, _) => Err(format!(
            "unknown workload `{other}` (expected serve_drift or derive_catalog)"
        )),
    }
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|args| run(&args));
    match outcome {
        Ok(outcome) => {
            println!("{}", outcome.render());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
