//! The policy rules and their token-level checkers.
//!
//! Each rule is a named, waivable check over the scanned token stream of
//! one source file (or, for `hermetic-manifests`, one `Cargo.toml`). The
//! rules implement DESIGN §5's determinism/hermeticity policy:
//!
//! | rule id | what it flags |
//! |---|---|
//! | `no-wall-clock` | `Instant`/`SystemTime` outside the sanctioned wall-clock files |
//! | `no-ambient-entropy` | ambient-entropy sources and RNG reimplementation outside `mdbs_stats::rng` |
//! | `no-raw-threads` | `thread::{spawn,scope,Builder}` outside `mdbs_core::pool` |
//! | `no-unordered-iteration` | `HashMap`/`HashSet` iteration in core/sim/stats/cli without ordering evidence |
//! | `no-unsafe` | any `unsafe` token; crate roots missing `#![forbid(unsafe_code)]` |
//! | `hermetic-manifests` | manifest dependencies outside the in-tree path-crate whitelist |
//! | `bad-waiver` | a `lint:allow` waiver with no rule, no justification, or an unknown rule |
//! | `unregistered-metric` | a telemetry name not in `crates/lint/telemetry.registry` (workspace pass, [`crate::telemetry_registry`]) |
//!
//! A finding is suppressed by an inline waiver `// lint:allow(rule):
//! <justification>` on the finding's line or the line directly above. The
//! justification is mandatory — a bare waiver is a `bad-waiver` finding,
//! and `bad-waiver` itself cannot be waived.
//!
//! ### Heuristics, stated honestly
//!
//! `no-unordered-iteration` is a taint analysis over tokens, not types: a
//! name is *unordered-tainted* when its declaration mentions `HashMap`/
//! `HashSet` (directly, through a `type` alias, or through a containing
//! generic), and iteration-shaped calls (`.iter()`, `.keys()`, …) whose
//! receiver chain touches a tainted name are flagged — unless ordering
//! evidence (`sort*`, a `BTreeMap`/`BTreeSet` collect, or an
//! order-insensitive sink such as `sum`/`count`/`min`/`max`/`all`/`any`)
//! appears within the following [`ORDER_EVIDENCE_WINDOW`] tokens. The
//! heuristic can miss iteration reached through a function boundary; the
//! `clippy.toml` `disallowed-types` layer and the runtime byte-compare
//! gates back it up.

use crate::scanner::{scan, ScannedFile, Token};
use crate::Finding;
use std::collections::BTreeSet;

/// Rule id: wall-clock types outside the sanctioned files.
pub const NO_WALL_CLOCK: &str = "no-wall-clock";
/// Rule id: ambient entropy / RNG reimplementation outside `mdbs_stats::rng`.
pub const NO_AMBIENT_ENTROPY: &str = "no-ambient-entropy";
/// Rule id: raw thread creation outside `mdbs_core::pool`.
pub const NO_RAW_THREADS: &str = "no-raw-threads";
/// Rule id: unordered map/set iteration on output-relevant crates.
pub const NO_UNORDERED_ITERATION: &str = "no-unordered-iteration";
/// Rule id: `unsafe` code or a crate root missing `#![forbid(unsafe_code)]`.
pub const NO_UNSAFE: &str = "no-unsafe";
/// Rule id: manifest dependencies outside the in-tree whitelist.
pub const HERMETIC_MANIFESTS: &str = "hermetic-manifests";
/// Rule id: a malformed or unknown-rule waiver comment.
pub const BAD_WAIVER: &str = "bad-waiver";
/// Rule id: a telemetry name emitted but not registered (or registry
/// drift). See [`crate::telemetry_registry`].
pub const UNREGISTERED_METRIC: &str = "unregistered-metric";

/// Every rule id, in report order.
pub const ALL_RULES: [&str; 8] = [
    NO_WALL_CLOCK,
    NO_AMBIENT_ENTROPY,
    NO_RAW_THREADS,
    NO_UNORDERED_ITERATION,
    NO_UNSAFE,
    HERMETIC_MANIFESTS,
    BAD_WAIVER,
    UNREGISTERED_METRIC,
];

/// Files allowed to touch `Instant`/`SystemTime`: the telemetry `wall_ms`
/// attribution path and the bench wall-clock harness.
const WALL_CLOCK_ALLOWED: [&str; 2] =
    ["crates/obs/src/telemetry.rs", "crates/bench/src/harness.rs"];

/// The one file allowed to create OS threads.
const RAW_THREADS_ALLOWED: [&str; 1] = ["crates/core/src/pool.rs"];

/// The one file allowed to implement an RNG.
const ENTROPY_ALLOWED: [&str; 1] = ["crates/stats/src/rng.rs"];

/// Crates whose iteration order reaches deterministic output paths.
const UNORDERED_RESTRICTED: [&str; 4] = [
    "crates/core/",
    "crates/sim/",
    "crates/stats/",
    "crates/cli/",
];

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

/// Iteration-shaped methods on maps/sets.
const ITER_METHODS: [&str; 10] = [
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "into_keys",
    "into_values",
    "drain",
    "retain",
];

/// Tokens accepted as evidence that an unordered iteration is made
/// deterministic: an explicit sort, a collect into an ordered container,
/// or an order-insensitive reduction.
const ORDER_EVIDENCE: [&str; 17] = [
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "sort_unstable_by",
    "sort_unstable_by_key",
    "BTreeMap",
    "BTreeSet",
    "sum",
    "count",
    "min",
    "max",
    "min_by",
    "max_by",
    "min_by_key",
    "max_by_key",
    "any",
];

/// How far (in tokens) after an iteration call ordering evidence may
/// appear. Generous enough to span a `collect(); x.sort();` pair, small
/// enough not to absorb the next function.
pub const ORDER_EVIDENCE_WINDOW: usize = 60;

const UNORDERED_BASE_TYPES: [&str; 2] = ["HashMap", "HashSet"];

fn path_in(rel_path: &str, list: &[&str]) -> bool {
    list.contains(&rel_path)
}

fn is_restricted_for_iteration(rel_path: &str) -> bool {
    UNORDERED_RESTRICTED.iter().any(|p| rel_path.starts_with(p))
}

/// True for `crates/<name>/src/lib.rs`, `crates/<name>/src/main.rs` and
/// `crates/<name>/src/bin/<file>.rs` — the compilation roots that must
/// carry `#![forbid(unsafe_code)]`.
fn is_crate_root(rel_path: &str) -> bool {
    let parts: Vec<&str> = rel_path.split('/').collect();
    match parts.as_slice() {
        ["crates", _, "src", f] => *f == "lib.rs" || *f == "main.rs",
        ["crates", _, "src", "bin", f] => f.ends_with(".rs"),
        _ => false,
    }
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
    check_raw_threads(rel_path, &scanned, &mut findings);
    if is_restricted_for_iteration(rel_path) {
        check_unordered_iteration(rel_path, &scanned, &mut findings);
    }
    check_unsafe(rel_path, &scanned, &mut findings);

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

fn check_raw_threads(rel_path: &str, scanned: &ScannedFile, findings: &mut Vec<Finding>) {
    if path_in(rel_path, &RAW_THREADS_ALLOWED) {
        return;
    }
    let toks = &scanned.tokens;
    for i in 0..toks.len().saturating_sub(3) {
        if toks[i].text == "thread"
            && toks[i + 1].text == ":"
            && toks[i + 2].text == ":"
            && matches!(toks[i + 3].text.as_str(), "spawn" | "scope" | "Builder")
        {
            push_unless_waived(
                scanned,
                findings,
                rel_path,
                toks[i + 3].line,
                NO_RAW_THREADS,
                format!(
                    "`thread::{}` outside `mdbs_core::pool`; fan work out through the pool",
                    toks[i + 3].text
                ),
            );
        }
    }
}

fn check_unsafe(rel_path: &str, scanned: &ScannedFile, findings: &mut Vec<Finding>) {
    for t in &scanned.tokens {
        if t.text == "unsafe" {
            push_unless_waived(
                scanned,
                findings,
                rel_path,
                t.line,
                NO_UNSAFE,
                "`unsafe` is forbidden throughout the workspace".to_string(),
            );
        }
    }
    if is_crate_root(rel_path) && !has_forbid_unsafe(&scanned.tokens) {
        push_unless_waived(
            scanned,
            findings,
            rel_path,
            1,
            NO_UNSAFE,
            "crate root lacks `#![forbid(unsafe_code)]`".to_string(),
        );
    }
}

fn has_forbid_unsafe(toks: &[Token]) -> bool {
    const PAT: [&str; 8] = ["#", "!", "[", "forbid", "(", "unsafe_code", ")", "]"];
    toks.windows(PAT.len())
        .any(|w| w.iter().zip(PAT).all(|(t, p)| t.text == p))
}

// ---------------------------------------------------------------------------
// no-unordered-iteration: token-level taint analysis.
// ---------------------------------------------------------------------------

fn check_unordered_iteration(rel_path: &str, scanned: &ScannedFile, findings: &mut Vec<Finding>) {
    let toks = &scanned.tokens;
    let (unordered_types, tainted) = collect_taint(toks);

    for i in 0..toks.len() {
        if !ITER_METHODS.contains(&toks[i].text.as_str()) {
            continue;
        }
        if i + 1 >= toks.len() || toks[i + 1].text != "(" {
            continue;
        }
        if i == 0 || toks[i - 1].text != "." {
            continue; // not a method call
        }
        if !receiver_chain_tainted(toks, i - 1, &unordered_types, &tainted) {
            continue;
        }
        if has_order_evidence(toks, i) {
            continue;
        }
        push_unless_waived(
            scanned,
            findings,
            rel_path,
            toks[i].line,
            NO_UNORDERED_ITERATION,
            format!(
                "`.{}()` over an unordered map/set with no ordering evidence within {} tokens (sort, BTree collect, or an order-insensitive reduction)",
                toks[i].text, ORDER_EVIDENCE_WINDOW
            ),
        );
    }
}

/// Collects `(unordered type names, tainted value names)` for one file.
///
/// Type names: `HashMap`/`HashSet` plus every `type X = …;` alias whose
/// right-hand side mentions one. Value names: identifiers whose declared
/// type, initializer, or `for`-loop source mentions an unordered type or an
/// already-tainted name. Runs to a small fixpoint so declaration order
/// does not matter.
fn collect_taint(toks: &[Token]) -> (BTreeSet<String>, BTreeSet<String>) {
    let mut types: BTreeSet<String> = UNORDERED_BASE_TYPES.iter().map(|s| s.to_string()).collect();
    let mut tainted: BTreeSet<String> = BTreeSet::new();

    for _ in 0..4 {
        let before = (types.len(), tainted.len());

        // `type Alias = … HashMap … ;`
        for i in 0..toks.len() {
            if toks[i].text == "type" && i + 1 < toks.len() && is_ident(&toks[i + 1].text) {
                let rhs_hit = toks[i + 2..]
                    .iter()
                    .take_while(|t| t.text != ";")
                    .take(40)
                    .any(|t| types.contains(&t.text));
                if rhs_hit {
                    types.insert(toks[i + 1].text.clone());
                }
            }
        }

        for i in 0..toks.len() {
            // `name : <type…>` — field declarations, lets with ascription,
            // fn params, struct-literal fields whose value builds a map.
            if is_ident(&toks[i].text)
                && i + 2 < toks.len()
                && toks[i + 1].text == ":"
                && toks[i + 2].text != ":"
                && (i == 0 || toks[i - 1].text != ":")
                && window_mentions(&toks[i + 2..], &types, &tainted)
            {
                tainted.insert(toks[i].text.clone());
            }
            // `name = … HashMap::new() …`
            if is_ident(&toks[i].text)
                && i + 2 < toks.len()
                && toks[i + 1].text == "="
                && toks[i + 2].text != "="
                && (i == 0 || !matches!(toks[i - 1].text.as_str(), "=" | "<" | ">" | "!"))
                && toks[i + 2..]
                    .iter()
                    .take(10)
                    .any(|t| types.contains(&t.text))
            {
                tainted.insert(toks[i].text.clone());
            }
            // `for <pattern> in <expr> {` — taint the pattern bindings when
            // the iterated expression touches tainted state.
            if toks[i].text == "for" {
                let mut j = i + 1;
                let mut pattern = Vec::new();
                while j < toks.len() && toks[j].text != "in" && toks[j].text != "{" && j < i + 16 {
                    if is_ident(&toks[j].text) && toks[j].text != "mut" {
                        pattern.push(toks[j].text.clone());
                    }
                    j += 1;
                }
                if j >= toks.len() || toks[j].text != "in" {
                    continue; // `impl … for …` or an overlong pattern
                }
                let expr_hit = toks[j + 1..]
                    .iter()
                    .take_while(|t| t.text != "{")
                    .take(40)
                    .any(|t| types.contains(&t.text) || tainted.contains(&t.text));
                if expr_hit {
                    for name in pattern {
                        tainted.insert(name);
                    }
                }
            }
        }

        if (types.len(), tainted.len()) == before {
            break;
        }
    }
    (types, tainted)
}

/// Looks through a declared-type window (up to 40 tokens, stopping at a
/// top-level `,` `;` `=` `{` or `)`) for an unordered type or tainted name.
fn window_mentions(toks: &[Token], types: &BTreeSet<String>, tainted: &BTreeSet<String>) -> bool {
    let mut depth: i32 = 0;
    for t in toks.iter().take(40) {
        match t.text.as_str() {
            "<" | "(" | "[" => depth += 1,
            ">" | ")" | "]" => {
                if depth == 0 {
                    return false;
                }
                depth -= 1;
            }
            "," | ";" | "=" | "{" if depth == 0 => return false,
            _ => {
                if types.contains(&t.text) || tainted.contains(&t.text) {
                    return true;
                }
            }
        }
    }
    false
}

/// Walks a method-call receiver chain backwards from the `.` at `dot`,
/// skipping balanced `(…)`/`[…]`/turbofish groups, and reports whether any
/// identifier on the chain is tainted (or is an unordered type itself,
/// catching `HashMap::new().iter()`).
fn receiver_chain_tainted(
    toks: &[Token],
    dot: usize,
    types: &BTreeSet<String>,
    tainted: &BTreeSet<String>,
) -> bool {
    let mut j = dot as isize - 1;
    let mut steps = 0;
    while j >= 0 && steps < 200 {
        steps += 1;
        let text = toks[j as usize].text.as_str();
        match text {
            ")" | "]" | ">" => {
                let open = match text {
                    ")" => "(",
                    "]" => "[",
                    _ => "<",
                };
                let close = text;
                let mut depth = 1;
                j -= 1;
                while j >= 0 && depth > 0 {
                    let t = toks[j as usize].text.as_str();
                    if t == close {
                        depth += 1;
                    } else if t == open {
                        depth -= 1;
                    }
                    j -= 1;
                }
            }
            "?" | "&" | "." | ":" | "*" => j -= 1,
            _ if is_ident(text) => {
                if types.contains(text) || tainted.contains(text) {
                    return true;
                }
                // Continue only through `.` / `::` chains.
                if j > 0
                    && (toks[j as usize - 1].text == "."
                        || (toks[j as usize - 1].text == ":" && j > 1))
                {
                    j -= 1;
                } else {
                    return false;
                }
            }
            _ => return false,
        }
    }
    false
}

/// True when ordering evidence appears within [`ORDER_EVIDENCE_WINDOW`]
/// tokens after the iteration call at `i`.
fn has_order_evidence(toks: &[Token], i: usize) -> bool {
    toks[i + 1..]
        .iter()
        .take(ORDER_EVIDENCE_WINDOW)
        .any(|t| ORDER_EVIDENCE.contains(&t.text.as_str()))
}

fn is_ident(text: &str) -> bool {
    let mut chars = text.chars();
    matches!(chars.next(), Some(c) if c.is_alphabetic() || c == '_')
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

/// Checks one manifest against the in-tree whitelist: every dependency —
/// regular, dev, build, workspace-table or long-form — must name an
/// in-tree crate and resolve by `path`/`workspace`, never a registry
/// version. `allowed` is the set of in-tree package names.
pub fn check_manifest_text(rel_path: &str, text: &str, allowed: &BTreeSet<String>) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut in_dep_section = false;
    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line.starts_with('[') {
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
    fn raw_threads_flagged_outside_pool() {
        for call in ["thread::spawn", "std::thread::scope", "thread::Builder"] {
            let src = format!("{call}(|| {{}});\n");
            assert_eq!(
                rules_of(&check_rust_source("crates/sim/src/x.rs", &src)),
                vec![NO_RAW_THREADS],
                "{call}"
            );
            assert!(
                check_rust_source("crates/core/src/pool.rs", &src).is_empty(),
                "{call} allowed in pool"
            );
        }
    }

    #[test]
    fn unordered_iteration_needs_evidence_in_restricted_crates() {
        let bare =
            "let m: HashMap<u32, u32> = HashMap::new();\nfor (k, v) in m.iter() { emit(k, v); }\n";
        assert_eq!(
            rules_of(&check_rust_source("crates/core/src/x.rs", bare)),
            vec![NO_UNORDERED_ITERATION]
        );
        // Outside the restricted crates the rule does not apply.
        assert!(check_rust_source("crates/obs/src/x.rs", bare).is_empty());
        // Sorting right after the collect is evidence.
        let sorted = "let m: HashMap<u32, u32> = HashMap::new();\nlet mut ks: Vec<u32> = m.keys().cloned().collect();\nks.sort();\n";
        assert!(check_rust_source("crates/core/src/x.rs", sorted).is_empty());
        // An order-insensitive reduction is evidence.
        let summed = "let m: HashMap<u32, u32> = HashMap::new();\nlet n: u32 = m.values().sum();\n";
        assert!(check_rust_source("crates/core/src/x.rs", summed).is_empty());
        // Vec iteration in the same file is not tainted.
        let vecs = "let m: HashMap<u32, u32> = HashMap::new();\nlet v: Vec<u32> = vec![];\nfor x in v.iter() { emit(x); }\n";
        assert!(check_rust_source("crates/core/src/x.rs", vecs).is_empty());
    }

    #[test]
    fn taint_flows_through_aliases_locks_and_for_bindings() {
        let src = "type Shard = RwLock<HashMap<u32, u32>>;\nstruct R { shards: Vec<Shard> }\nfn f(r: &R) {\n  for shard in &r.shards {\n    for (k, v) in shard.read().expect(\"lock\").iter() { emit(k, v); }\n  }\n}\n";
        let f = check_rust_source("crates/core/src/x.rs", src);
        assert_eq!(rules_of(&f), vec![NO_UNORDERED_ITERATION]);
        assert_eq!(f[0].line, 5);
    }

    #[test]
    fn unsafe_token_and_missing_forbid_flagged() {
        let f = check_rust_source("crates/core/src/x.rs", "unsafe { *p }\n");
        assert_eq!(rules_of(&f), vec![NO_UNSAFE]);
        // A crate root without the attribute is a finding at line 1…
        let f = check_rust_source("crates/core/src/lib.rs", "pub mod x;\n");
        assert_eq!(rules_of(&f), vec![NO_UNSAFE]);
        assert_eq!(f[0].line, 1);
        // …and with it, clean. A non-root file does not need it.
        assert!(check_rust_source(
            "crates/core/src/lib.rs",
            "#![forbid(unsafe_code)]\npub mod x;\n"
        )
        .is_empty());
        assert!(check_rust_source("crates/core/src/x.rs", "pub fn f() {}\n").is_empty());
    }

    #[test]
    fn bin_roots_are_crate_roots() {
        assert!(is_crate_root("crates/cli/src/main.rs"));
        assert!(is_crate_root("crates/bench/src/bin/repro.rs"));
        assert!(is_crate_root("crates/core/src/lib.rs"));
        assert!(!is_crate_root("crates/core/src/derive.rs"));
        assert!(!is_crate_root("tests/parallel.rs"));
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
        let good = "[dependencies]\nmdbs-core = { workspace = true }\n";
        assert!(check_manifest_text("crates/x/Cargo.toml", good, &allowed).is_empty());
        let external = "[dependencies]\nrand = \"0.8\"\n";
        let f = check_manifest_text("crates/x/Cargo.toml", external, &allowed);
        assert_eq!(rules_of(&f), vec![HERMETIC_MANIFESTS]);
        assert_eq!(f[0].line, 2);
        let registry = "[dependencies]\nmdbs-stats = \"0.1\"\n";
        let f = check_manifest_text("crates/x/Cargo.toml", registry, &allowed);
        assert_eq!(rules_of(&f), vec![HERMETIC_MANIFESTS]);
        let longform = "[dependencies.serde]\nversion = \"1\"\n";
        let f = check_manifest_text("crates/x/Cargo.toml", longform, &allowed);
        assert_eq!(rules_of(&f), vec![HERMETIC_MANIFESTS]);
        let dev = "[dev-dependencies]\ncriterion = \"0.5\"\n";
        let f = check_manifest_text("crates/x/Cargo.toml", dev, &allowed);
        assert_eq!(rules_of(&f), vec![HERMETIC_MANIFESTS]);
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
