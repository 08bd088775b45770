//! The policy rules and their token-level checkers.
//!
//! Each rule is a named, waivable check over the scanned token stream of
//! one source file (or, for `hermetic-manifests`, one `Cargo.toml`). The
//! rules implement the part of DESIGN §5's determinism/hermeticity policy
//! that is left to the lint:
//!
//! | rule id | what it flags |
//! |---|---|
//! | `no-wall-clock` | `Instant`/`SystemTime` outside the sanctioned wall-clock files |
//! | `no-ambient-entropy` | ambient-entropy sources and RNG reimplementation outside `mdbs_stats::rng` |
//! | `hermetic-manifests` | manifest dependencies outside the in-tree path-crate whitelist; a crate manifest without `[lints] workspace = true` |
//! | `bad-waiver` | a `lint:allow` waiver with no rule, no justification, or an unknown rule |
//! | `unregistered-metric` | a telemetry name not in `crates/lint/telemetry.registry` (workspace pass, [`crate::telemetry_registry`]) |
//!
//! `unsafe` is rustc's (`[workspace.lints.rust] unsafe_code = "forbid"`,
//! which the `[lints] workspace = true` check carries to every crate);
//! raw threads and `HashMap`/`HashSet` are clippy's (`clippy.toml`).
//!
//! A finding is suppressed by an inline waiver `// lint:allow(rule):
//! <justification>` on the finding's line or the line directly above. The
//! justification is mandatory — a bare waiver is a `bad-waiver` finding,
//! and `bad-waiver` itself cannot be waived.

use crate::scanner::{scan, ScannedFile};
use crate::Finding;
use std::collections::BTreeSet;

/// Rule id: wall-clock types outside the sanctioned files.
pub const NO_WALL_CLOCK: &str = "no-wall-clock";
/// Rule id: ambient entropy / RNG reimplementation outside `mdbs_stats::rng`.
pub const NO_AMBIENT_ENTROPY: &str = "no-ambient-entropy";
/// Rule id: manifest dependencies outside the in-tree whitelist, or a
/// crate manifest that does not inherit the workspace lints.
pub const HERMETIC_MANIFESTS: &str = "hermetic-manifests";
/// Rule id: a malformed or unknown-rule waiver comment.
pub const BAD_WAIVER: &str = "bad-waiver";
/// Rule id: a telemetry name emitted but not registered (or registry
/// drift). See [`crate::telemetry_registry`].
pub const UNREGISTERED_METRIC: &str = "unregistered-metric";

/// Every rule id, in report order.
pub const ALL_RULES: [&str; 5] = [
    NO_WALL_CLOCK,
    NO_AMBIENT_ENTROPY,
    HERMETIC_MANIFESTS,
    BAD_WAIVER,
    UNREGISTERED_METRIC,
];

/// Files allowed to touch `Instant`/`SystemTime`: the telemetry `wall_ms`
/// attribution path and the bench wall-clock harness.
const WALL_CLOCK_ALLOWED: [&str; 2] =
    ["crates/obs/src/telemetry.rs", "crates/bench/src/harness.rs"];

/// The one file allowed to implement an RNG.
const ENTROPY_ALLOWED: [&str; 1] = ["crates/stats/src/rng.rs"];

/// Identifiers that pull entropy from the environment (std hashing
/// randomness, external RNG crates' entry points).
const ENTROPY_IDENTS: [&str; 6] = [
    "RandomState",
    "DefaultHasher",
    "thread_rng",
    "from_entropy",
    "OsRng",
    "getrandom",
];

/// Markers of an RNG implementation: the reference algorithm names and the
/// SplitMix64 increment constant (hand-rolling a second generator outside
/// `mdbs_stats::rng` is a policy violation even though it is seedable).
const RNG_IMPL_IDENTS: [&str; 3] = ["splitmix64", "xoshiro256", "SplitMix64"];
const SPLITMIX64_GAMMA: &str = "0x9e3779b97f4a7c15";

fn path_in(rel_path: &str, list: &[&str]) -> bool {
    list.contains(&rel_path)
}

/// Runs every source-level rule over one Rust file. `rel_path` is the
/// workspace-relative path with `/` separators; it selects the per-file
/// allowlists, so callers (and tests) can present a source under any
/// policy position they like.
pub fn check_rust_source(rel_path: &str, source: &str) -> Vec<Finding> {
    let scanned = scan(source);
    let mut findings = Vec::new();

    check_waiver_health(rel_path, &scanned, &mut findings);
    check_wall_clock(rel_path, &scanned, &mut findings);
    check_ambient_entropy(rel_path, &scanned, &mut findings);

    findings.sort();
    findings
}

/// Pushes `finding` unless a well-formed waiver covers it.
pub(crate) fn push_unless_waived(
    scanned: &ScannedFile,
    findings: &mut Vec<Finding>,
    rel_path: &str,
    line: usize,
    rule: &'static str,
    message: String,
) {
    if !scanned.is_waived(rule, line) {
        findings.push(Finding {
            file: rel_path.to_string(),
            line,
            rule,
            message,
        });
    }
}

fn check_waiver_health(rel_path: &str, scanned: &ScannedFile, findings: &mut Vec<Finding>) {
    for m in &scanned.malformed_waivers {
        findings.push(Finding {
            file: rel_path.to_string(),
            line: m.line,
            rule: BAD_WAIVER,
            message: m.problem.clone(),
        });
    }
    for w in &scanned.waivers {
        if !ALL_RULES.contains(&w.rule.as_str()) {
            findings.push(Finding {
                file: rel_path.to_string(),
                line: w.line,
                rule: BAD_WAIVER,
                message: format!("waiver names unknown rule `{}`", w.rule),
            });
        } else if w.rule == BAD_WAIVER {
            findings.push(Finding {
                file: rel_path.to_string(),
                line: w.line,
                rule: BAD_WAIVER,
                message: "`bad-waiver` cannot itself be waived".to_string(),
            });
        }
    }
}

fn check_wall_clock(rel_path: &str, scanned: &ScannedFile, findings: &mut Vec<Finding>) {
    if path_in(rel_path, &WALL_CLOCK_ALLOWED) {
        return;
    }
    for t in &scanned.tokens {
        if t.text == "Instant" || t.text == "SystemTime" {
            push_unless_waived(
                scanned,
                findings,
                rel_path,
                t.line,
                NO_WALL_CLOCK,
                format!(
                    "`{}` outside the sanctioned wall-clock files (telemetry wall_ms, bench harness)",
                    t.text
                ),
            );
        }
    }
}

fn check_ambient_entropy(rel_path: &str, scanned: &ScannedFile, findings: &mut Vec<Finding>) {
    for t in &scanned.tokens {
        if ENTROPY_IDENTS.contains(&t.text.as_str()) {
            push_unless_waived(
                scanned,
                findings,
                rel_path,
                t.line,
                NO_AMBIENT_ENTROPY,
                format!("`{}` draws entropy from the environment; all randomness must flow from seeded `mdbs_stats::rng` streams", t.text),
            );
        }
    }
    if path_in(rel_path, &ENTROPY_ALLOWED) {
        return;
    }
    for t in &scanned.tokens {
        let lowered = t.text.to_ascii_lowercase();
        let is_impl_marker = RNG_IMPL_IDENTS
            .iter()
            .any(|m| lowered == m.to_ascii_lowercase())
            || normalized_hex(&t.text).as_deref() == Some(SPLITMIX64_GAMMA);
        if is_impl_marker {
            push_unless_waived(
                scanned,
                findings,
                rel_path,
                t.line,
                NO_AMBIENT_ENTROPY,
                format!(
                    "`{}` looks like an RNG implementation outside `mdbs_stats::rng`",
                    t.text
                ),
            );
        }
    }
}

/// Lower-cases a hex literal and strips `_` separators; `None` for
/// anything that is not a `0x` literal.
fn normalized_hex(token: &str) -> Option<String> {
    let lowered = token.to_ascii_lowercase();
    lowered.starts_with("0x").then(|| lowered.replace('_', ""))
}

// ---------------------------------------------------------------------------
// hermetic-manifests
// ---------------------------------------------------------------------------

/// True for any `[…]` section header that declares dependencies; carries
/// the dependency name for the `[dependencies.<name>]` long form.
fn dependency_section(header: &str) -> Option<Option<String>> {
    let inner = header.trim().trim_start_matches('[').trim_end_matches(']');
    let parts: Vec<&str> = inner.split('.').collect();
    for (i, part) in parts.iter().enumerate() {
        if part.ends_with("dependencies") {
            return Some(parts.get(i + 1).map(|s| s.trim().to_string()));
        }
    }
    None
}

/// True for `crates/<name>/Cargo.toml`, the manifests that must inherit
/// the workspace lints.
fn is_crate_manifest(rel_path: &str) -> bool {
    matches!(
        rel_path.split('/').collect::<Vec<_>>().as_slice(),
        ["crates", _, "Cargo.toml"]
    )
}

/// Checks one manifest against the in-tree whitelist: every dependency —
/// regular, dev, build, workspace-table or long-form — must name an
/// in-tree crate and resolve by `path`/`workspace`, never a registry
/// version. `allowed` is the set of in-tree package names. A crate
/// manifest must also carry `[lints] workspace = true`, which is how the
/// root manifest's `unsafe_code = "forbid"` reaches every crate.
pub fn check_manifest_text(rel_path: &str, text: &str, allowed: &BTreeSet<String>) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut in_dep_section = false;
    let mut in_lints = false;
    let mut inherits_lints = false;
    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if in_lints && line.split_whitespace().collect::<String>() == "workspace=true" {
            inherits_lints = true;
        }
        if line.starts_with('[') {
            in_lints = line == "[lints]";
            match dependency_section(line) {
                Some(Some(name)) => {
                    in_dep_section = false;
                    if !allowed.contains(&name) {
                        findings.push(Finding {
                            file: rel_path.to_string(),
                            line: lineno,
                            rule: HERMETIC_MANIFESTS,
                            message: format!("dependency section `{line}` names `{name}`, which is not an in-tree crate"),
                        });
                    }
                }
                Some(None) => in_dep_section = true,
                None => in_dep_section = false,
            }
            continue;
        }
        if !in_dep_section {
            continue;
        }
        let Some((name, value)) = line.split_once('=') else {
            continue;
        };
        let name = name.trim().trim_matches('"');
        if !allowed.contains(name) {
            findings.push(Finding {
                file: rel_path.to_string(),
                line: lineno,
                rule: HERMETIC_MANIFESTS,
                message: format!(
                    "dependency `{name}` is not an in-tree crate (zero-external-dependency policy)"
                ),
            });
        } else if !value.contains("path") && !value.contains("workspace") {
            findings.push(Finding {
                file: rel_path.to_string(),
                line: lineno,
                rule: HERMETIC_MANIFESTS,
                message: format!(
                    "`{name}` must be a path or workspace dependency, got `{}`",
                    value.trim()
                ),
            });
        }
    }
    if is_crate_manifest(rel_path) && !inherits_lints {
        findings.push(Finding {
            file: rel_path.to_string(),
            line: 1,
            rule: HERMETIC_MANIFESTS,
            message: "crate manifest lacks `[lints] workspace = true`, so the workspace's `unsafe_code = \"forbid\"` does not reach it".to_string(),
        });
    }
    findings.sort();
    findings
}

/// Extracts the `[package] name = "…"` from a manifest, if any.
pub fn package_name(text: &str) -> Option<String> {
    let mut in_package = false;
    for raw in text.lines() {
        let line = raw.trim();
        if line.starts_with('[') {
            in_package = line == "[package]";
            continue;
        }
        if in_package {
            if let Some((key, value)) = line.split_once('=') {
                if key.trim() == "name" {
                    return Some(value.trim().trim_matches('"').to_string());
                }
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_of(findings: &[Finding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn wall_clock_flagged_outside_allowlist_only() {
        let src = "use std::time::Instant;\n";
        assert_eq!(
            rules_of(&check_rust_source("crates/core/src/derive.rs", src)),
            vec![NO_WALL_CLOCK]
        );
        assert!(check_rust_source("crates/obs/src/telemetry.rs", src).is_empty());
        assert!(check_rust_source("crates/bench/src/harness.rs", src).is_empty());
    }

    #[test]
    fn waiver_on_same_or_previous_line_suppresses() {
        let trailing =
            "let t = Instant::now(); // lint:allow(no-wall-clock): speedup table is wall-clock\n";
        assert!(check_rust_source("crates/core/src/x.rs", trailing).is_empty());
        let above =
            "// lint:allow(no-wall-clock): speedup table is wall-clock\nlet t = Instant::now();\n";
        assert!(check_rust_source("crates/core/src/x.rs", above).is_empty());
        let far = "// lint:allow(no-wall-clock): too far away\n\nlet t = Instant::now();\n";
        assert_eq!(
            rules_of(&check_rust_source("crates/core/src/x.rs", far)),
            vec![NO_WALL_CLOCK]
        );
    }

    #[test]
    fn ambient_entropy_and_rng_reimpl_flagged() {
        let f = check_rust_source(
            "crates/sim/src/x.rs",
            "use std::collections::hash_map::RandomState;\n",
        );
        assert_eq!(rules_of(&f), vec![NO_AMBIENT_ENTROPY]);
        let f = check_rust_source(
            "crates/sim/src/x.rs",
            "state.wrapping_add(0x9E37_79B9_7F4A_7C15);\n",
        );
        assert_eq!(rules_of(&f), vec![NO_AMBIENT_ENTROPY]);
        // The real implementation file is exempt from the reimpl markers…
        assert!(check_rust_source(
            "crates/stats/src/rng.rs",
            "fn splitmix64(s: &mut u64) -> u64 { 0x9E37_79B9_7F4A_7C15 }"
        )
        .is_empty());
        // …but not from true ambient sources.
        assert_eq!(
            rules_of(&check_rust_source(
                "crates/stats/src/rng.rs",
                "let h = RandomState::new();"
            )),
            vec![NO_AMBIENT_ENTROPY]
        );
    }

    #[test]
    fn bad_waivers_are_findings_and_unwaivable() {
        let f = check_rust_source("crates/core/src/x.rs", "// lint:allow(no-wall-clock)\n");
        assert_eq!(rules_of(&f), vec![BAD_WAIVER]);
        let f = check_rust_source(
            "crates/core/src/x.rs",
            "// lint:allow(no-such-rule): because\n",
        );
        assert_eq!(rules_of(&f), vec![BAD_WAIVER]);
        let f = check_rust_source(
            "crates/core/src/x.rs",
            "// lint:allow(bad-waiver): nice try\n",
        );
        assert_eq!(rules_of(&f), vec![BAD_WAIVER]);
    }

    #[test]
    fn manifest_whitelist_flags_external_and_registry_deps() {
        let allowed: BTreeSet<String> = ["mdbs-core", "mdbs-stats"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let check = |deps: &str| {
            let text = format!("{deps}[lints]\nworkspace = true\n");
            check_manifest_text("crates/x/Cargo.toml", &text, &allowed)
        };
        assert!(check("[dependencies]\nmdbs-core = { workspace = true }\n").is_empty());
        let f = check("[dependencies]\nrand = \"0.8\"\n");
        assert_eq!(rules_of(&f), vec![HERMETIC_MANIFESTS]);
        assert_eq!(f[0].line, 2);
        let registry = check("[dependencies]\nmdbs-stats = \"0.1\"\n");
        assert_eq!(rules_of(&registry), vec![HERMETIC_MANIFESTS]);
        let longform = check("[dependencies.serde]\nversion = \"1\"\n");
        assert_eq!(rules_of(&longform), vec![HERMETIC_MANIFESTS]);
        let dev = check("[dev-dependencies]\ncriterion = \"0.5\"\n");
        assert_eq!(rules_of(&dev), vec![HERMETIC_MANIFESTS]);
        // A crate manifest that does not inherit the workspace lints is
        // flagged at line 1; the root manifest defines them instead.
        let bare = "[dependencies]\nmdbs-core = { workspace = true }\n";
        let f = check_manifest_text("crates/x/Cargo.toml", bare, &allowed);
        assert_eq!(rules_of(&f), vec![HERMETIC_MANIFESTS]);
        assert_eq!(f[0].line, 1);
        assert!(check_manifest_text("Cargo.toml", bare, &allowed).is_empty());
    }

    #[test]
    fn package_name_parses() {
        assert_eq!(
            package_name("[package]\nname = \"mdbs-lint\"\nversion = \"0.1.0\"\n").as_deref(),
            Some("mdbs-lint")
        );
        assert_eq!(package_name("[workspace]\nmembers = []\n"), None);
    }
}
