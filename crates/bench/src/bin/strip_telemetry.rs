//! `strip-telemetry` — normalizes mixed CLI output for byte-comparison.
//!
//! Reads a file (first argument) or stdin, passes non-telemetry lines
//! through unchanged, and rewrites the embedded telemetry JSONL with
//! [`mdbs_obs::telemetry::strip_wall_clock`]: `wall_ms` span fields are
//! dropped and scheduling-dependent metrics (the `pool.sched.` prefix)
//! removed. What remains is exactly the deterministic portion, so CI can
//! `cmp` two `serve --loop --telemetry` runs at different `--jobs` counts.
//!
//! Telemetry lines are recognized as lines that parse as JSON objects with
//! a `"type"` key (`span`/`counter`/`gauge`/`histogram`) — the shape every
//! line of [`mdbs_obs::telemetry::Telemetry::render_jsonl`] has, and which
//! none of the human-oriented report lines share.

use mdbs_obs::json::parse;
use mdbs_obs::telemetry::strip_wall_clock;
use std::io::Read;

fn main() {
    let mut input = String::new();
    match std::env::args().nth(1) {
        Some(path) => {
            input = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("strip-telemetry: reading {path}: {e}"));
        }
        None => {
            std::io::stdin()
                .read_to_string(&mut input)
                .expect("strip-telemetry: reading stdin");
        }
    }
    let mut out = String::new();
    for line in input.lines() {
        let is_telemetry =
            line.starts_with('{') && parse(line).is_ok_and(|j| j.get("type").is_some());
        if is_telemetry {
            // strip_wall_clock may drop the line entirely (sched metrics).
            out.push_str(&strip_wall_clock(line));
        } else {
            out.push_str(line);
            out.push('\n');
        }
    }
    print!("{out}");
}
