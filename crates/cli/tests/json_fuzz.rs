//! Seeded fuzz sweep of the `stats` re-parse (`mdbs_obs::json::parse` and
//! `mdbs_cli::commands::render_stats`).
//!
//! Every case is a fixed-seed, in-tree mutation of a rendered flight
//! record or telemetry line: cuts at every byte prefix, byte flips passed
//! through `from_utf8_lossy`, and runs of `[` or `{"k":` openers up to
//! 100,000 deep spliced into the line. The contract: no case panics or
//! aborts (a stack overflow would end this process), `parse` ends in a
//! value or a typed `JsonError` with a message, and `stats` ends in a
//! rendered report or a typed bad-input error (exit code 2).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::Command;

use mdbs_cli::commands::render_stats;
use mdbs_obs::json::{self, Json};
use mdbs_obs::{FlightRecorder, Telemetry};
use mdbs_stats::rng::Rng;

/// The lines the sweep mutates, as rendered by the writers `stats` reads
/// back: a flight dump (an answered request, an error request and a
/// heartbeat) and a telemetry stream (a heartbeat span with fields, a
/// counter, a gauge and a ledger histogram).
fn base_lines() -> Vec<String> {
    let fields = |pairs: &[(&str, Json)]| -> Vec<(String, Json)> {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect()
    };
    let mut recorder = FlightRecorder::new(8);
    recorder.record_request(fields(&[
        ("at_s", Json::Float(1.25)),
        ("sql", Json::from("select a1 from R7 where a3 > 300")),
        ("outcome", Json::from("answered")),
        ("estimate_s", Json::Float(4.75)),
        ("model_version", Json::Int(3)),
        ("state", Json::from("S2")),
    ]));
    recorder.record_request(fields(&[
        ("outcome", Json::from("error")),
        ("error", Json::from("unknown relation `R99` \"quoted\"")),
    ]));
    let beat = [("at_s", Json::Float(10.0)), ("requests", Json::Int(40))];
    recorder.record_event("heartbeat", fields(&beat));
    let mut telemetry = Telemetry::enabled();
    let span = telemetry.begin_span("serve.heartbeat");
    for (key, value) in beat {
        telemetry.field(span, key, value);
    }
    telemetry.end_span(span);
    telemetry.inc("serve.requests", 40);
    telemetry.gauge("serve.queue_depth", 2.0);
    for rel in [0.05, 0.12, 0.3] {
        telemetry.observe("serve.ledger.oracle.S1.abs_rel_err", rel);
    }
    let text = recorder.dump_jsonl() + &telemetry.render_jsonl();
    text.lines().map(str::to_string).collect()
}

/// Pushes one case through `parse` and, after the intact `context` lines,
/// through `stats`; both must end typed. Tallies values parsed, typed
/// parse errors, stats reports and typed stats errors.
fn check(at: &str, context: &str, line: &str, tally: &mut [usize; 4]) {
    match catch_unwind(AssertUnwindSafe(|| json::parse(line))) {
        Err(_) => panic!("{at}: json::parse panicked"),
        Ok(Ok(_)) => tally[0] += 1,
        Ok(Err(e)) => {
            assert!(!e.message.is_empty() && e.at <= line.len(), "{at}: {e}");
            tally[1] += 1;
        }
    }
    let text = format!("{context}{line}\n");
    match catch_unwind(AssertUnwindSafe(|| render_stats("fuzz", &text))) {
        Err(_) => panic!("{at}: stats panicked"),
        Ok(Ok(report)) => {
            assert!(report.starts_with("stats fuzz: "), "{at}: {report}");
            tally[2] += 1;
        }
        Ok(Err(e)) => {
            assert_eq!(e.exit_code(), 2, "{at}: {e}");
            tally[3] += 1;
        }
    }
}

/// `depth` openers (`[` or `{"k":`) around a scalar, closed or not.
fn bracket_run(depth: usize, object: bool, closed: bool) -> String {
    let (open, close) = if object { ("{\"k\":", "}") } else { ("[", "]") };
    let tail = close.repeat(if closed { depth } else { 0 });
    format!("{}0{tail}", open.repeat(depth))
}

/// Bytes a flip draws half the time: JSON's structural characters and the
/// starts of escapes and numbers.
const STRUCTURAL: &[u8] = b"[]{}\",:\\0-e.";

#[test]
fn seeded_record_mutations_never_panic_and_end_typed() {
    let bases = base_lines();
    let mut rng = Rng::seed_from_u64(0x5EED_1502);
    let mut tally = [0usize; 4];
    for (b, base) in bases.iter().enumerate() {
        // The unmutated line parses and `stats` reads it.
        assert!(json::parse(base).is_ok(), "base {b} `{base}`");
        assert!(render_stats("base", base).is_ok(), "base {b} `{base}`");
        // Odd cases follow the lines before this one, intact.
        let context: String = bases[..b].iter().map(|l| format!("{l}\n")).collect();
        let ctx = |i: usize| if i % 2 == 0 { "" } else { context.as_str() };
        let bytes = base.as_bytes();

        for cut in 0..bytes.len() {
            let line = String::from_utf8_lossy(&bytes[..cut]);
            check(&format!("{b} cut {cut}"), ctx(cut), &line, &mut tally);
        }

        // One to three bytes set to arbitrary or structural values.
        for flip in 0..1000 {
            let mut mutated = bytes.to_vec();
            for _ in 0..rng.gen_range(1usize..=3) {
                let at = rng.gen_range(0..mutated.len());
                mutated[at] = if rng.gen_bool(0.5) {
                    rng.gen_range(0u64..256) as u8
                } else {
                    STRUCTURAL[rng.gen_range(0..STRUCTURAL.len())]
                };
            }
            let line = String::from_utf8_lossy(&mutated);
            check(&format!("{b} flip {flip}"), ctx(flip), &line, &mut tally);
        }

        // A run of openers, log-uniform in depth up to 100,000, spliced in
        // at a random byte, closed or not.
        for run in 0..400 {
            let depth = 10f64.powf(rng.gen_f64() * 5.0) as usize;
            let splice = bracket_run(depth, rng.gen_bool(0.5), rng.gen_bool(0.5));
            let (head, tail) = bytes.split_at(rng.gen_range(0..=bytes.len()));
            let line = String::from_utf8_lossy(head) + splice.as_str();
            let line = line + String::from_utf8_lossy(tail);
            check(&format!("{b} run {run}"), ctx(run), &line, &mut tally);
        }
    }
    // Whole-line runs at, just past, and far past the cap.
    for depth in [json::MAX_DEPTH, json::MAX_DEPTH + 1, 50_000, 100_000] {
        for object in [false, true] {
            let line = bracket_run(depth, object, true);
            check(&format!("depth {depth}"), "", &line, &mut tally);
        }
    }

    let [parsed, parse_errors, reports, stats_errors] = tally;
    let cases = parsed + parse_errors;
    assert!(cases >= 10_000, "{cases} cases");
    // The sweep reaches both ends of both contracts.
    assert!(parsed >= 300, "{parsed} mutations parsed");
    assert!(parse_errors >= 5_000, "{parse_errors} mutations rejected");
    assert!(reports >= 300, "{reports} stats reports");
    println!("{cases} cases: {parsed} parsed, {parse_errors} parse errors; stats: {reports} reports, {stats_errors} errors");
}

/// The binary end to end: a 50,000-deep line is bad input (exit 2) with
/// the depth message, not a stack overflow.
#[test]
fn stats_on_a_deeply_nested_line_exits_2() {
    let path = std::env::temp_dir().join(format!("mdbs-json-fuzz-{}.jsonl", std::process::id()));
    std::fs::write(&path, bracket_run(50_000, false, true) + "\n").expect("write");
    let out = Command::new(env!("CARGO_BIN_EXE_mdbs-qcost"))
        .arg("stats")
        .arg(&path)
        .output()
        .expect("run mdbs-qcost");
    let _ = std::fs::remove_file(&path);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("nesting deeper than 128"), "{stderr}");
}
