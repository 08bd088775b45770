//! Validates a bench-harness `--json` report.
//!
//! CI runs a bench with `--json PATH` and then this checker against the
//! produced file, so a regression in the report shape (or a bench that
//! silently recorded nothing) fails the pipeline instead of producing an
//! unparseable artifact. Exit status 0 means the file parses and every
//! measurement carries the expected fields.

use mdbs_obs::json::{parse, Json};

fn fail(msg: &str) -> ! {
    eprintln!("bench-json-check: {msg}");
    std::process::exit(1);
}

fn main() {
    let path = match std::env::args().nth(1) {
        Some(p) => p,
        None => fail("usage: bench-json-check <report.json>"),
    };
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => fail(&format!("reading {path}: {e}")),
    };
    let doc = match parse(&text) {
        Ok(d) => d,
        Err(e) => fail(&format!("{path}: invalid JSON: {e}")),
    };
    let title = doc
        .get("title")
        .and_then(Json::as_str)
        .unwrap_or_else(|| fail(&format!("{path}: missing string `title`")));
    let results = match doc.get("results") {
        Some(Json::Arr(items)) => items,
        _ => fail(&format!("{path}: missing array `results`")),
    };
    if results.is_empty() {
        fail(&format!("{path}: no measurements recorded"));
    }
    for (i, r) in results.iter().enumerate() {
        let name = r
            .get("name")
            .and_then(Json::as_str)
            .unwrap_or_else(|| fail(&format!("{path}: result {i}: missing string `name`")));
        for field in ["iters", "median_ns", "p95_ns"] {
            let v = r
                .get(field)
                .and_then(Json::as_i64)
                .unwrap_or_else(|| fail(&format!("{path}: `{name}`: missing integer `{field}`")));
            if v <= 0 {
                fail(&format!("{path}: `{name}`: non-positive `{field}` ({v})"));
            }
        }
    }
    println!(
        "bench-json-check: {path} ok — `{title}`, {} measurement(s)",
        results.len()
    );
}
