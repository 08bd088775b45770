//! # mdbs-lint
//!
//! In-tree static analysis for the workspace's determinism and
//! hermeticity policy (DESIGN §5). The runtime byte-compare gates
//! (`tests/determinism.rs`, `tests/parallel.rs`, the ci.sh `--jobs` sweep)
//! catch a nondeterminism bug only when the seed and the schedule happen to
//! expose it; this crate enforces the *source-level* invariants those
//! gates rely on, on every commit:
//!
//! * **`no-wall-clock`** — `Instant`/`SystemTime` only in the telemetry
//!   `wall_ms` path and the bench harness.
//! * **`no-ambient-entropy`** — no environment entropy (`RandomState`,
//!   `thread_rng`, …) anywhere, and no RNG implementation outside
//!   `mdbs_stats::rng`; every stream is split from a seed.
//! * **`hermetic-manifests`** — every manifest dependency is an in-tree
//!   path crate (the zero-external-dependency policy), and every crate
//!   manifest inherits the workspace lints (`[lints] workspace = true`).
//! * **`unregistered-metric`** — every telemetry name is in
//!   `crates/lint/telemetry.registry`.
//!
//! The other determinism rules each have one compiler-level owner: rustc
//! forbids `unsafe` through the root manifest's `[workspace.lints.rust]`,
//! and clippy (`clippy.toml`) disallows raw thread creation outside
//! `mdbs_core::pool` and the `HashMap`/`HashSet` types. `clippy.toml`
//! also bans the wall-clock types outside the files `no-wall-clock`
//! exempts; that rule stays here because perfbench's waivers name it.
//!
//! Sanctioned exceptions are written in the code as
//! `// lint:allow(<rule>): <justification>` on (or directly above) the
//! offending line. The justification is mandatory — a bare waiver is a
//! **`bad-waiver`** finding in its own right, so every exception in the
//! tree carries its reason next to it.
//!
//! Diagnostics are emitted as deterministic, sorted
//! `file:line rule message` lines, so the lint's own output is byte-stable
//! and CI can diff two runs to assert it.

#![warn(missing_docs)]

pub mod graph;
pub mod rules;
pub mod scanner;
pub mod telemetry_registry;

pub use rules::{
    check_manifest_text, check_rust_source, ALL_RULES, BAD_WAIVER, HERMETIC_MANIFESTS,
    NO_AMBIENT_ENTROPY, NO_WALL_CLOCK, UNREGISTERED_METRIC,
};

use mdbs_obs::json::Json;
use std::collections::BTreeSet;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// One diagnostic: a policy violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Workspace-relative path with `/` separators.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// The violated rule's id.
    pub rule: &'static str,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{} {} {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Renders findings one per line, in their (already sorted) order.
pub fn render(findings: &[Finding]) -> String {
    let mut out = String::new();
    for f in findings {
        out.push_str(&f.to_string());
        out.push('\n');
    }
    out
}

/// Renders findings as a machine-readable JSON report (the `--json PATH`
/// output), in the same schema style as the bench harness reports: a
/// `title`, a count, and one object per (already sorted) finding. The
/// rendering is compact and insertion-ordered, so two runs over the same
/// tree produce byte-identical files.
pub fn render_json(findings: &[Finding]) -> String {
    let items: Vec<Json> = findings
        .iter()
        .map(|f| {
            Json::Obj(vec![
                ("file".into(), Json::Str(f.file.clone())),
                ("line".into(), Json::Int(f.line as i64)),
                ("rule".into(), Json::Str(f.rule.to_string())),
                ("message".into(), Json::Str(f.message.clone())),
            ])
        })
        .collect();
    let doc = Json::Obj(vec![
        ("title".into(), Json::Str("mdbs-lint".into())),
        ("finding_count".into(), Json::Int(findings.len() as i64)),
        ("findings".into(), Json::Arr(items)),
    ]);
    let mut out = doc.render();
    out.push('\n');
    out
}

/// One source file prepared for the telemetry pass: its scanned token
/// stream plus its call sites.
#[derive(Debug)]
pub struct AnalyzedFile {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// The scanner's view: tokens, strings, waivers.
    pub scanned: scanner::ScannedFile,
    /// The structural view: call sites and `#[cfg(test)]` ranges.
    pub graph: graph::FileGraph,
}

/// Scans and extracts one source file for the telemetry pass.
pub fn analyze_source(path: &str, source: &str) -> AnalyzedFile {
    let scanned = scanner::scan(source);
    let graph = graph::extract(&scanned);
    AnalyzedFile {
        path: path.to_string(),
        scanned,
        graph,
    }
}

/// Directory names the walker never descends into: build artifacts,
/// version control, and the lint's own intentionally-violating fixtures.
const SKIP_DIRS: [&str; 3] = ["target", ".git", "fixtures"];

/// Recursively collects files under `dir` whose name satisfies `want`,
/// in sorted order for deterministic output.
fn walk(dir: &Path, want: &dyn Fn(&str) -> bool, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .map(|e| e.map(|e| e.path()))
        .collect::<io::Result<_>>()?;
    entries.sort();
    for path in entries {
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default()
            .to_string();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_str()) || name.starts_with('.') {
                continue;
            }
            walk(&path, want, out)?;
        } else if want(&name) {
            out.push(path);
        }
    }
    Ok(())
}

fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect::<Vec<_>>()
        .join("/")
}

/// The set of in-tree package names: every `crates/*/Cargo.toml`'s
/// `[package] name`. This *is* the dependency whitelist — a crate may
/// depend on the workspace's own path crates and nothing else.
pub fn in_tree_package_names(root: &Path) -> io::Result<BTreeSet<String>> {
    let crates = root.join("crates");
    let mut names = BTreeSet::new();
    let mut entries: Vec<PathBuf> = fs::read_dir(&crates)?
        .map(|e| e.map(|e| e.path()))
        .collect::<io::Result<_>>()?;
    entries.sort();
    for entry in entries {
        let manifest = entry.join("Cargo.toml");
        if manifest.is_file() {
            if let Some(name) = rules::package_name(&fs::read_to_string(&manifest)?) {
                names.insert(name);
            }
        }
    }
    Ok(names)
}

/// Runs the `hermetic-manifests` rule alone: checks the root manifest and
/// every crate manifest against the in-tree whitelist.
/// `tests/hermetic.rs` is a thin wrapper over this function, so the
/// manifest whitelist lives in exactly one place.
pub fn check_manifests(root: &Path) -> io::Result<Vec<Finding>> {
    let allowed = in_tree_package_names(root)?;
    if allowed.len() < 2 {
        return Err(io::Error::new(
            io::ErrorKind::NotFound,
            format!(
                "{} does not look like the workspace root (found {} crate manifest(s) under crates/)",
                root.display(),
                allowed.len()
            ),
        ));
    }
    let mut manifests = vec![root.join("Cargo.toml")];
    let mut entries: Vec<PathBuf> = fs::read_dir(root.join("crates"))?
        .map(|e| e.map(|e| e.path()))
        .collect::<io::Result<_>>()?;
    entries.sort();
    for entry in entries {
        let manifest = entry.join("Cargo.toml");
        if manifest.is_file() {
            manifests.push(manifest);
        }
    }
    let mut findings = Vec::new();
    for manifest in manifests {
        let text = fs::read_to_string(&manifest)?;
        findings.extend(check_manifest_text(
            &rel_path(root, &manifest),
            &text,
            &allowed,
        ));
    }
    findings.sort();
    Ok(findings)
}

/// True when `rel` is production source the telemetry pass analyzes:
/// `crates/<crate>/src/**.rs` (integration tests, fixtures and examples
/// are out of scope — tests may emit names the registry does not carry).
pub fn is_workspace_pass_source(rel: &str) -> bool {
    let Some(rest) = rel.strip_prefix("crates/") else {
        return false;
    };
    match rest.split_once('/') {
        Some((_crate_dir, tail)) => tail.starts_with("src/"),
        None => false,
    }
}

/// Runs every rule over the whole workspace at `root`: all `.rs` files
/// (skipping `target/`, dot-directories and `fixtures/`) plus all
/// manifests, then the workspace pass (the telemetry-name registry) over
/// `crates/*/src`.
/// Findings come back sorted and deduplicated, so rendering them is
/// byte-stable across runs and machines.
pub fn check_workspace(root: &Path) -> io::Result<Vec<Finding>> {
    let mut findings = check_manifests(root)?;
    let mut sources = Vec::new();
    walk(root, &|name| name.ends_with(".rs"), &mut sources)?;
    let mut analyzed = Vec::new();
    for path in sources {
        let text = fs::read_to_string(&path)?;
        let rel = rel_path(root, &path);
        findings.extend(check_rust_source(&rel, &text));
        if is_workspace_pass_source(&rel) {
            analyzed.push(analyze_source(&rel, &text));
        }
    }
    let registry_text = fs::read_to_string(root.join(telemetry_registry::REGISTRY_PATH)).ok();
    findings.extend(telemetry_registry::check_telemetry(
        &analyzed,
        registry_text.as_deref(),
    ));
    findings.sort();
    findings.dedup();
    Ok(findings)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finding_display_matches_the_documented_format() {
        let f = Finding {
            file: "crates/core/src/x.rs".into(),
            line: 7,
            rule: rules::NO_WALL_CLOCK,
            message: "boom".into(),
        };
        assert_eq!(f.to_string(), "crates/core/src/x.rs:7 no-wall-clock boom");
        assert_eq!(render(&[f]), "crates/core/src/x.rs:7 no-wall-clock boom\n");
    }

    #[test]
    fn findings_sort_by_file_then_line_then_rule() {
        let mut v = [
            Finding {
                file: "b.rs".into(),
                line: 1,
                rule: rules::NO_AMBIENT_ENTROPY,
                message: String::new(),
            },
            Finding {
                file: "a.rs".into(),
                line: 9,
                rule: rules::NO_WALL_CLOCK,
                message: String::new(),
            },
            Finding {
                file: "a.rs".into(),
                line: 2,
                rule: rules::NO_WALL_CLOCK,
                message: String::new(),
            },
        ];
        v.sort();
        assert_eq!(v[0].file, "a.rs");
        assert_eq!(v[0].line, 2);
        assert_eq!(v[2].file, "b.rs");
    }
}
