//! Fixture tests: every rule is exercised by a file that violates it
//! (asserting rule id *and* line), waivers demonstrably suppress, and the
//! meta-test runs the full lint over the real workspace and requires zero
//! findings — so the tree itself stays policy-clean and every sanctioned
//! exception carries a justification.
//!
//! The fixtures live under `tests/fixtures/`, which the workspace walker
//! skips, so the deliberately-violating files never pollute the real run.
//! `check_rust_source` takes the workspace-relative path as data, letting
//! each fixture be presented under whatever policy position its rule
//! needs (a restricted crate, a crate root, …).

use std::collections::BTreeSet;
use std::path::Path;

use mdbs_lint::{
    analyze_source, check_manifest_text, check_rust_source, render, render_json, Finding,
};

fn lines_for(findings: &[Finding], rule: &str) -> Vec<usize> {
    findings
        .iter()
        .filter(|f| f.rule == rule)
        .map(|f| f.line)
        .collect()
}

fn assert_only(findings: &[Finding], rule: &str, lines: &[usize]) {
    assert!(
        findings.iter().all(|f| f.rule == rule),
        "expected only `{rule}` findings, got:\n{}",
        render(findings)
    );
    assert_eq!(
        lines_for(findings, rule),
        lines,
        "wrong lines for `{rule}`:\n{}",
        render(findings)
    );
}

#[test]
fn wall_clock_fixture_flags_the_instant_line() {
    let f = check_rust_source(
        "crates/core/src/wall_clock.rs",
        include_str!("fixtures/wall_clock.rs"),
    );
    assert_only(&f, mdbs_lint::NO_WALL_CLOCK, &[5]);
}

#[test]
fn ambient_entropy_fixture_flags_the_splitmix_constant() {
    let f = check_rust_source(
        "crates/sim/src/ambient_entropy.rs",
        include_str!("fixtures/ambient_entropy.rs"),
    );
    assert_only(&f, mdbs_lint::NO_AMBIENT_ENTROPY, &[5]);
}

#[test]
fn raw_threads_fixture_flags_the_spawn_line() {
    let f = check_rust_source(
        "crates/bench/src/raw_threads.rs",
        include_str!("fixtures/raw_threads.rs"),
    );
    assert_only(&f, mdbs_lint::NO_RAW_THREADS, &[5]);
}

#[test]
fn unordered_iteration_fixture_flags_the_iter_line() {
    let src = include_str!("fixtures/unordered_iteration.rs");
    let f = check_rust_source("crates/core/src/unordered_iteration.rs", src);
    assert_only(&f, mdbs_lint::NO_UNORDERED_ITERATION, &[8]);
    // The same source under an unrestricted crate is not the rule's business.
    assert!(check_rust_source("crates/obs/src/unordered_iteration.rs", src).is_empty());
}

#[test]
fn no_unsafe_fixture_flags_the_block_and_the_missing_forbid() {
    let f = check_rust_source(
        "crates/fixture/src/lib.rs",
        include_str!("fixtures/no_unsafe.rs"),
    );
    assert_only(&f, mdbs_lint::NO_UNSAFE, &[1, 5]);
}

#[test]
fn bad_waiver_fixture_flags_each_broken_waiver() {
    let f = check_rust_source(
        "crates/core/src/bad_waiver.rs",
        include_str!("fixtures/bad_waiver.rs"),
    );
    assert_only(&f, mdbs_lint::BAD_WAIVER, &[4, 7, 10, 12, 13]);
}

#[test]
fn waived_fixture_is_clean() {
    let f = check_rust_source(
        "crates/core/src/waived.rs",
        include_str!("fixtures/waived.rs"),
    );
    assert!(
        f.is_empty(),
        "justified waivers must suppress:\n{}",
        render(&f)
    );
}

#[test]
fn bad_manifest_fixture_flags_every_leak() {
    let allowed: BTreeSet<String> = ["mdbs-core", "mdbs-lint"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let f = check_manifest_text(
        "crates/fixture/Cargo.toml",
        include_str!("fixtures/bad_manifest.toml"),
        &allowed,
    );
    assert_only(&f, mdbs_lint::HERMETIC_MANIFESTS, &[6, 7, 9]);
}

#[test]
fn unregistered_metric_fixture_flags_missing_and_mismatched_names() {
    let files = vec![analyze_source(
        "crates/core/src/unregistered_metric.rs",
        include_str!("fixtures/unregistered_metric.rs"),
    )];
    let reg = "fixture.registered counter core/unregistered_metric deterministic\n\
               fixture.kind_mismatch counter core/unregistered_metric deterministic\n";
    let mut f = mdbs_lint::telemetry_registry::check_telemetry(&files, Some(reg));
    f.sort();
    assert!(f.iter().all(|x| x.rule == mdbs_lint::UNREGISTERED_METRIC));
    let in_fixture: Vec<usize> = f
        .iter()
        .filter(|x| x.file.ends_with("unregistered_metric.rs"))
        .map(|x| x.line)
        .collect();
    assert_eq!(in_fixture, vec![6, 7], "{}", render(&f));
    assert!(
        f.iter().any(|x| {
            x.file == mdbs_lint::telemetry_registry::REGISTRY_PATH
                && x.line == 2
                && x.message.contains("no longer emitted")
        }),
        "the unmatched counter entry must trip the still-emitted check:\n{}",
        render(&f)
    );
}

/// Deleting one entry from the committed registry must fail the gate: the
/// name it covered becomes an unregistered emission (or, for a prefix
/// entry, un-waivers its `format!` sites via review — either way, loud).
#[test]
fn deleting_a_registry_line_breaks_the_telemetry_gate() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let registry_path = root.join(mdbs_lint::telemetry_registry::REGISTRY_PATH);
    let full = std::fs::read_to_string(&registry_path).expect("registry is committed");
    let victim = "serve.requests ";
    assert!(full.lines().any(|l| l.starts_with(victim)));
    let truncated: String = full
        .lines()
        .filter(|l| !l.starts_with(victim))
        .map(|l| format!("{l}\n"))
        .collect();

    let mut files = Vec::new();
    let mut stack = vec![root.join("crates")];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir).expect("readable") {
            let path = entry.expect("entry").path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                let rel = path
                    .strip_prefix(&root)
                    .expect("under root")
                    .to_string_lossy()
                    .replace('\\', "/");
                if mdbs_lint::is_workspace_pass_source(&rel) {
                    let src = std::fs::read_to_string(&path).expect("readable source");
                    files.push(analyze_source(&rel, &src));
                }
            }
        }
    }

    let clean = mdbs_lint::telemetry_registry::check_telemetry(&files, Some(&full));
    assert!(clean.is_empty(), "{}", render(&clean));
    let broken = mdbs_lint::telemetry_registry::check_telemetry(&files, Some(&truncated));
    assert!(
        broken
            .iter()
            .any(|f| f.message.contains("serve.requests") && f.message.contains("not registered")),
        "dropping the entry must surface its emission:\n{}",
        render(&broken)
    );
}

#[test]
fn json_rendering_is_schema_shaped_and_stable() {
    let findings = vec![Finding {
        file: "crates/core/src/x.rs".into(),
        line: 7,
        rule: mdbs_lint::NO_WALL_CLOCK,
        message: "wall-clock read".into(),
    }];
    let json = render_json(&findings);
    assert_eq!(
        json,
        "{\"title\":\"mdbs-lint\",\"finding_count\":1,\"findings\":[{\"file\":\"crates/core/src/x.rs\",\"line\":7,\"rule\":\"no-wall-clock\",\"message\":\"wall-clock read\"}]}\n"
    );
    assert_eq!(render_json(&findings), json, "byte-stable across calls");
    assert_eq!(
        render_json(&[]),
        "{\"title\":\"mdbs-lint\",\"finding_count\":0,\"findings\":[]}\n"
    );
}

/// The meta-test: the real tree must lint clean. Any new `Instant`, raw
/// thread, map iteration or external dependency shows up here (and in
/// ci.sh) until it is either fixed or waived with a justification.
#[test]
fn the_real_workspace_has_zero_findings() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let findings = mdbs_lint::check_workspace(&root).expect("workspace is readable");
    assert!(
        findings.is_empty(),
        "the workspace must lint clean (fix or waive with a justification):\n{}",
        render(&findings)
    );
}

/// Two full runs over the same tree must render byte-identically — the
/// property ci.sh asserts with `cmp` on the binary's output.
#[test]
fn workspace_lint_output_is_byte_stable() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let a = render(&mdbs_lint::check_workspace(&root).expect("first run"));
    let b = render(&mdbs_lint::check_workspace(&root).expect("second run"));
    assert_eq!(a, b);
}
