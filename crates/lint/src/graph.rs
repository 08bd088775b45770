//! Token-level call-site extraction for one scanned file.
//!
//! The telemetry pass ([`crate::telemetry_registry`]) needs a shallow
//! structural view of every source file: which call sites it contains
//! (`name(` at a token position) and which token ranges belong to
//! `#[cfg(test)]` items. Both are recovered from the scanner's token
//! stream — no syntax tree and no name resolution.

use crate::scanner::ScannedFile;

/// One call site: `name(` at a token position.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// The callee name as written.
    pub name: String,
    /// 1-based line of the name token.
    pub line: usize,
    /// Index of the name token in the scanned token stream.
    pub token_index: usize,
}

/// The extracted structure of one file.
#[derive(Debug, Default)]
pub struct FileGraph {
    /// Call sites in token order.
    pub calls: Vec<CallSite>,
    /// Token ranges `[start, end)` of `#[cfg(test)]`-gated items; calls
    /// inside them are excluded from the telemetry pass (tests may emit
    /// names the registry does not carry).
    pub test_ranges: Vec<(usize, usize)>,
}

impl FileGraph {
    /// True when `token_index` falls inside a `#[cfg(test)]` item.
    pub fn in_test_code(&self, token_index: usize) -> bool {
        self.test_ranges
            .iter()
            .any(|&(s, e)| token_index >= s && token_index < e)
    }
}

/// Tokens that look like `name(` but are control flow or bindings, never
/// calls the graph should record.
const CALL_BLACKLIST: &[&str] = &[
    "if", "while", "match", "for", "return", "loop", "in", "as", "move", "else", "let", "fn",
    "impl", "pub", "use", "mod", "where",
];

/// Finds the token index one past the matching closer for the opener at
/// `open` (`tokens[open]` must be the opener). Returns `tokens.len()` when
/// unbalanced (the compiler, not the lint, rejects that).
fn balanced(s: &ScannedFile, open: usize, opener: &str, closer: &str) -> usize {
    let mut depth = 0usize;
    let mut i = open;
    while i < s.tokens.len() {
        let t = s.tokens[i].text.as_str();
        if t == opener {
            depth += 1;
        } else if t == closer {
            depth -= 1;
            if depth == 0 {
                return i + 1;
            }
        }
        i += 1;
    }
    s.tokens.len()
}

/// `#[cfg(test)]` item ranges: from the attribute to the end of the next
/// balanced `{…}` block (covers both `mod tests { … }` and gated fns).
fn cfg_test_ranges(s: &ScannedFile) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let n = s.tokens.len();
    let mut i = 0;
    while i + 6 < n {
        let is_cfg_test = s.tokens[i].text == "#"
            && s.tokens[i + 1].text == "["
            && s.tokens[i + 2].text == "cfg"
            && s.tokens[i + 3].text == "("
            && s.tokens[i + 4].text == "test"
            && s.tokens[i + 5].text == ")"
            && s.tokens[i + 6].text == "]";
        if is_cfg_test {
            let mut j = i + 7;
            while j < n && s.tokens[j].text != "{" && s.tokens[j].text != ";" {
                j += 1;
            }
            if j < n && s.tokens[j].text == "{" {
                let end = balanced(s, j, "{", "}");
                out.push((i, end));
                i = end;
                continue;
            }
        }
        i += 1;
    }
    out
}

/// Extracts the file's call sites and test ranges from its scanned tokens.
pub fn extract(s: &ScannedFile) -> FileGraph {
    let mut g = FileGraph {
        test_ranges: cfg_test_ranges(s),
        ..FileGraph::default()
    };
    for i in 0..s.tokens.len().saturating_sub(1) {
        if s.tokens[i + 1].text != "(" {
            continue;
        }
        let name = &s.tokens[i].text;
        if !name
            .chars()
            .next()
            .is_some_and(|c| c.is_alphabetic() || c == '_')
        {
            continue;
        }
        if CALL_BLACKLIST.contains(&name.as_str()) {
            continue;
        }
        if i > 0 && s.tokens[i - 1].text == "fn" {
            continue; // definition, not a call
        }
        g.calls.push(CallSite {
            name: name.clone(),
            line: s.tokens[i].line,
            token_index: i,
        });
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scanner::scan;

    #[test]
    fn call_sites_record_name_line_and_position() {
        let s = scan("fn f() {\n    a.g();\n    Reg::publish(x);\n    if (y) {}\n}");
        let g = extract(&s);
        let calls: Vec<(&str, usize)> = g.calls.iter().map(|c| (c.name.as_str(), c.line)).collect();
        assert_eq!(calls, vec![("g", 2), ("publish", 3)], "no `f` def, no `if`");
        for c in &g.calls {
            assert_eq!(s.tokens[c.token_index].text, c.name);
        }
    }

    #[test]
    fn macros_are_not_calls() {
        let s = scan("fn f() { format!(\"x\"); assert_eq!(a, b); }");
        let g = extract(&s);
        assert!(g
            .calls
            .iter()
            .all(|c| c.name != "format" && c.name != "assert_eq"));
    }

    #[test]
    fn cfg_test_ranges_cover_test_modules() {
        let s = scan("fn live() {}\n#[cfg(test)]\nmod tests {\n    fn t() { live(); }\n}");
        let g = extract(&s);
        let call = g.calls.iter().find(|c| c.name == "live").unwrap();
        assert!(g.in_test_code(call.token_index));
    }
}
