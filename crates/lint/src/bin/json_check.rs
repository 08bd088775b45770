//! Validates an `mdbs-lint --json` report.
//!
//! CI runs the lint with `--json PATH` and then this checker against the
//! produced file, mirroring `bench-json-check`: a regression in the report
//! shape fails the pipeline instead of producing an unparseable artifact.
//! Exit status 0 means the file parses, carries the expected fields, and
//! `finding_count` agrees with the `findings` array (which, unlike a bench
//! report, may legitimately be empty).

use mdbs_obs::json::{parse, Json};

fn fail(msg: &str) -> ! {
    eprintln!("lint-json-check: {msg}");
    std::process::exit(1);
}

fn main() {
    let path = match std::env::args().nth(1) {
        Some(p) => p,
        None => fail("usage: lint-json-check <report.json>"),
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
    let count = doc
        .get("finding_count")
        .and_then(Json::as_i64)
        .unwrap_or_else(|| fail(&format!("{path}: missing integer `finding_count`")));
    let findings = match doc.get("findings") {
        Some(Json::Arr(items)) => items,
        _ => fail(&format!("{path}: missing array `findings`")),
    };
    if count != findings.len() as i64 {
        fail(&format!(
            "{path}: finding_count {count} != findings length {}",
            findings.len()
        ));
    }
    for (i, f) in findings.iter().enumerate() {
        for field in ["file", "rule", "message"] {
            if f.get(field).and_then(Json::as_str).is_none() {
                fail(&format!("{path}: finding {i}: missing string `{field}`"));
            }
        }
        let line = f
            .get("line")
            .and_then(Json::as_i64)
            .unwrap_or_else(|| fail(&format!("{path}: finding {i}: missing integer `line`")));
        if line <= 0 {
            fail(&format!(
                "{path}: finding {i}: non-positive `line` ({line})"
            ));
        }
    }
    println!(
        "lint-json-check: {path} ok — `{title}`, {} finding(s)",
        findings.len()
    );
}
