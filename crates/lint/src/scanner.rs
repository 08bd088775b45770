//! A comment- and string-aware token scanner for Rust source.
//!
//! The lint rules only need a shallow view of a file: the sequence of
//! identifier / number / punctuation tokens with their line numbers, plus
//! the text of every line comment (where waivers live). Everything inside
//! string literals, char literals and comments is invisible to the rules —
//! a doc comment may freely discuss `Instant` without tripping
//! `no-wall-clock`.
//!
//! This is deliberately *not* a full Rust lexer. It understands exactly the
//! constructs that would otherwise corrupt the token stream: `//` and
//! nested `/* */` comments, cooked strings with escapes, raw (and byte)
//! strings with `#` fences, char literals, and the char-vs-lifetime
//! ambiguity of `'`. Anything fancier (macros, attributes, generics) simply
//! flows through as punctuation tokens for the rules to pattern-match.

/// One token of a scanned source file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// The token text: an identifier, a number literal, or a single
    /// punctuation character.
    pub text: String,
    /// 1-based source line the token starts on.
    pub line: usize,
}

/// An inline policy waiver: `// lint:allow(rule): justification`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Waiver {
    /// 1-based line the waiver comment is on.
    pub line: usize,
    /// The rule id named inside `lint:allow(...)`.
    pub rule: String,
    /// The justification text after the closing `):`. Guaranteed non-empty
    /// for waivers in `waivers`; empty ones land in `malformed_waivers`.
    pub justification: String,
}

/// A malformed waiver comment: still *looks* like `lint:allow`, but does
/// not carry a well-formed `(rule): justification` tail. The policy makes
/// these findings in their own right.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MalformedWaiver {
    /// 1-based line of the broken waiver.
    pub line: usize,
    /// What is wrong with it.
    pub problem: String,
}

/// A string literal observed while scanning. Strings stay invisible to the
/// token stream (the per-file rules must not see their contents), but the
/// telemetry pass needs them: it reads metric names out of constructor
/// calls.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StringLit {
    /// 1-based line the literal starts on.
    pub line: usize,
    /// The literal's body, verbatim source text between the delimiters
    /// (escape sequences are *not* processed — registry names never
    /// contain them).
    pub value: String,
    /// Index into [`ScannedFile::tokens`] of the first token *after* this
    /// literal. A call pattern `name (` at token `i`/`i+1` has this string
    /// as its first argument iff `token_index == i + 2`.
    pub token_index: usize,
}

/// The result of scanning one source file.
#[derive(Debug, Default)]
pub struct ScannedFile {
    /// Code tokens in source order (comments and literals stripped).
    pub tokens: Vec<Token>,
    /// Well-formed waivers found in line comments.
    pub waivers: Vec<Waiver>,
    /// `lint:allow` comments that fail to parse or lack a justification.
    pub malformed_waivers: Vec<MalformedWaiver>,
    /// String literals in source order, with the token position they
    /// occupy. Invisible to `tokens`; used by the telemetry pass only.
    pub strings: Vec<StringLit>,
}

impl ScannedFile {
    /// True when `rule` is waived for a finding on `line`: a waiver covers
    /// its own line (trailing comment) and the line directly below it
    /// (standalone comment above the offending statement).
    pub fn is_waived(&self, rule: &str, line: usize) -> bool {
        self.waivers
            .iter()
            .any(|w| w.rule == rule && (w.line == line || w.line + 1 == line))
    }
}

/// Scans Rust source into tokens and waivers. Never fails: unterminated
/// literals simply consume the rest of the file (the compiler, not the
/// lint, is responsible for rejecting them).
pub fn scan(source: &str) -> ScannedFile {
    let mut out = ScannedFile::default();
    let chars: Vec<char> = source.chars().collect();
    let mut i = 0;
    let mut line = 1;
    let n = chars.len();

    // Advances `idx` past a cooked string/char body until `quote`,
    // honouring backslash escapes and counting newlines.
    let consume_cooked = |idx: &mut usize, line: &mut usize, quote: char, chars: &[char]| {
        while *idx < chars.len() {
            match chars[*idx] {
                '\\' => {
                    // An escaped newline (string continuation) still ends
                    // a source line and must be counted.
                    if *idx + 1 < chars.len() && chars[*idx + 1] == '\n' {
                        *line += 1;
                    }
                    *idx += 2;
                }
                '\n' => {
                    *line += 1;
                    *idx += 1;
                }
                c if c == quote => {
                    *idx += 1;
                    return;
                }
                _ => *idx += 1,
            }
        }
    };

    while i < n {
        let c = chars[i];
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_whitespace() => i += 1,
            '/' if i + 1 < n && chars[i + 1] == '/' => {
                // Line comment: collect its text for waiver parsing.
                let start = i + 2;
                let mut j = start;
                while j < n && chars[j] != '\n' {
                    j += 1;
                }
                let text: String = chars[start..j].iter().collect();
                parse_waiver_comment(&text, line, &mut out);
                i = j;
            }
            '/' if i + 1 < n && chars[i + 1] == '*' => {
                // Block comment, possibly nested.
                let mut depth = 1;
                i += 2;
                while i < n && depth > 0 {
                    if chars[i] == '\n' {
                        line += 1;
                        i += 1;
                    } else if chars[i] == '/' && i + 1 < n && chars[i + 1] == '*' {
                        depth += 1;
                        i += 2;
                    } else if chars[i] == '*' && i + 1 < n && chars[i + 1] == '/' {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
            }
            '"' => {
                let start_line = line;
                let start = i + 1;
                i += 1;
                consume_cooked(&mut i, &mut line, '"', &chars);
                // `i` is one past the closing quote (or == n if unterminated).
                let end = if i > start && chars[i - 1] == '"' {
                    i - 1
                } else {
                    i
                };
                out.strings.push(StringLit {
                    line: start_line,
                    value: chars[start..end].iter().collect(),
                    token_index: out.tokens.len(),
                });
            }
            '\'' => {
                // Char literal or lifetime. `'\x'`/`'\\'` is a char;
                // `'a'` is a char; `'a` (no closing quote after one
                // ident) is a lifetime and has no terminator.
                if i + 1 < n && chars[i + 1] == '\\' {
                    // Leave `i` on the backslash so the escape pair
                    // (`\'`, `\\`, …) is skipped as a unit.
                    i += 1;
                    consume_cooked(&mut i, &mut line, '\'', &chars);
                } else {
                    let mut j = i + 1;
                    while j < n && (chars[j].is_alphanumeric() || chars[j] == '_') {
                        j += 1;
                    }
                    if j < n && chars[j] == '\'' && j > i + 1 {
                        i = j + 1; // 'a' — char literal
                    } else if j == i + 1 && j < n {
                        // Punctuation char literal like '(' or ' '.
                        i += 2;
                        consume_cooked(&mut i, &mut line, '\'', &chars);
                    } else {
                        i = j; // 'lifetime
                    }
                }
            }
            c if c.is_alphabetic() || c == '_' => {
                let start = i;
                while i < n && (chars[i].is_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
                let ident: String = chars[start..i].iter().collect();
                // Raw/byte string prefixes: r"..", r#".."#, b"..", br#".."#.
                if matches!(ident.as_str(), "r" | "b" | "br" | "rb") && i < n {
                    let mut hashes = 0;
                    let mut j = i;
                    while j < n && chars[j] == '#' {
                        hashes += 1;
                        j += 1;
                    }
                    if j < n && chars[j] == '"' && (hashes > 0 || chars[i] == '"') {
                        // Consume until `"` followed by `hashes` hashes.
                        let start_line = line;
                        j += 1;
                        let body_start = j;
                        let mut body_end = n;
                        loop {
                            if j >= n {
                                break;
                            }
                            if chars[j] == '\n' {
                                line += 1;
                                j += 1;
                                continue;
                            }
                            if chars[j] == '"' {
                                let mut k = 0;
                                while k < hashes && j + 1 + k < n && chars[j + 1 + k] == '#' {
                                    k += 1;
                                }
                                if k == hashes {
                                    body_end = j;
                                    j += 1 + hashes;
                                    break;
                                }
                            }
                            j += 1;
                        }
                        out.strings.push(StringLit {
                            line: start_line,
                            value: chars[body_start..body_end].iter().collect(),
                            token_index: out.tokens.len(),
                        });
                        i = j;
                        continue; // prefix consumed as part of the literal
                    }
                }
                out.tokens.push(Token { text: ident, line });
            }
            c if c.is_ascii_digit() => {
                let start = i;
                while i < n && (chars[i].is_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
                out.tokens.push(Token {
                    text: chars[start..i].iter().collect(),
                    line,
                });
            }
            _ => {
                out.tokens.push(Token {
                    text: c.to_string(),
                    line,
                });
                i += 1;
            }
        }
    }
    out
}

/// The waiver grammar inside a line comment:
/// `lint:allow(<rule>): <non-empty justification>`.
///
/// A waiver must be the *whole* comment: the text after `//` (trimmed)
/// must begin with `lint:allow`. Doc comments (`///`, `//!`) never carry
/// waivers, so prose may discuss the syntax freely.
fn parse_waiver_comment(comment: &str, line: usize, out: &mut ScannedFile) {
    if comment.starts_with('/') || comment.starts_with('!') {
        return; // doc comment
    }
    let trimmed = comment.trim_start();
    if !trimmed.starts_with("lint:allow") {
        return;
    }
    let rest = &trimmed["lint:allow".len()..];
    let Some(rest) = rest.strip_prefix('(') else {
        out.malformed_waivers.push(MalformedWaiver {
            line,
            problem: "expected `lint:allow(<rule>): <justification>`".into(),
        });
        return;
    };
    let Some(close) = rest.find(')') else {
        out.malformed_waivers.push(MalformedWaiver {
            line,
            problem: "unclosed rule name in `lint:allow(`".into(),
        });
        return;
    };
    let rule = rest[..close].trim().to_string();
    let tail = &rest[close + 1..];
    let justification = match tail.strip_prefix(':') {
        Some(j) => j.trim().to_string(),
        None => {
            out.malformed_waivers.push(MalformedWaiver {
                line,
                problem: format!("waiver for `{rule}` lacks a `: <justification>` tail"),
            });
            return;
        }
    };
    if justification.is_empty() {
        out.malformed_waivers.push(MalformedWaiver {
            line,
            problem: format!("waiver for `{rule}` has an empty justification"),
        });
        return;
    }
    out.waivers.push(Waiver {
        line,
        rule,
        justification,
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(src: &str) -> Vec<String> {
        scan(src).tokens.into_iter().map(|t| t.text).collect()
    }

    #[test]
    fn idents_numbers_and_punct_tokenize_with_lines() {
        let s = scan("let x = 5;\nfoo.bar()");
        let got: Vec<(String, usize)> = s.tokens.iter().map(|t| (t.text.clone(), t.line)).collect();
        assert_eq!(
            got,
            vec![
                ("let".into(), 1),
                ("x".into(), 1),
                ("=".into(), 1),
                ("5".into(), 1),
                (";".into(), 1),
                ("foo".into(), 2),
                (".".into(), 2),
                ("bar".into(), 2),
                ("(".into(), 2),
                (")".into(), 2),
            ]
        );
    }

    #[test]
    fn comments_are_invisible_to_the_token_stream() {
        assert_eq!(
            texts("a // HashMap Instant\nb /* thread::spawn /* nested */ still */ c"),
            vec!["a", "b", "c"]
        );
    }

    #[test]
    fn string_contents_are_invisible() {
        assert_eq!(
            texts(r#"x("HashMap \" Instant"); y"#),
            vec!["x", "(", ")", ";", "y"]
        );
    }

    #[test]
    fn raw_and_byte_strings_are_invisible() {
        assert_eq!(
            texts(r##"f(r#"Instant "quoted" inside"#, b"SystemTime", r"HashMap"); z"##),
            vec!["f", "(", ",", ",", ")", ";", "z"]
        );
    }

    #[test]
    fn char_literals_and_lifetimes_disambiguate() {
        // 'a' is a char; 'b (no close) is a lifetime; '\'' is escaped.
        assert_eq!(
            texts("m('a', '\\'', x::<'b>())"),
            vec!["m", "(", ",", ",", "x", ":", ":", "<", ">", "(", ")", ")"]
        );
    }

    #[test]
    fn multiline_strings_keep_line_numbers_right() {
        let s = scan("let a = \"one\ntwo\";\nInstant");
        let inst = s.tokens.iter().find(|t| t.text == "Instant").unwrap();
        assert_eq!(inst.line, 3);
    }

    #[test]
    fn escaped_newline_string_continuations_keep_line_numbers_right() {
        let s = scan("let a = \"one\\\ntwo\";\nInstant");
        let inst = s.tokens.iter().find(|t| t.text == "Instant").unwrap();
        assert_eq!(inst.line, 3);
    }

    #[test]
    fn well_formed_waiver_parses() {
        let s = scan("// lint:allow(no-wall-clock): honest speedup table\nfoo();");
        assert_eq!(s.waivers.len(), 1);
        assert_eq!(s.waivers[0].rule, "no-wall-clock");
        assert_eq!(s.waivers[0].justification, "honest speedup table");
        assert!(s.is_waived("no-wall-clock", 1));
        assert!(s.is_waived("no-wall-clock", 2), "covers the next line");
        assert!(!s.is_waived("no-wall-clock", 3));
        assert!(!s.is_waived("no-ambient-entropy", 2));
    }

    #[test]
    fn waiver_without_justification_is_malformed() {
        for src in [
            "// lint:allow(no-wall-clock)",
            "// lint:allow(no-wall-clock):",
            "// lint:allow(no-wall-clock):   ",
            "// lint:allow no-wall-clock: x",
            "// lint:allow(no-wall-clock",
        ] {
            let s = scan(src);
            assert!(s.waivers.is_empty(), "{src}");
            assert_eq!(s.malformed_waivers.len(), 1, "{src}");
        }
    }

    #[test]
    fn waiver_text_inside_a_string_is_not_a_waiver() {
        let s = scan(r#"let x = "lint:allow(no-wall-clock): nope";"#);
        assert!(s.waivers.is_empty());
        assert!(s.malformed_waivers.is_empty());
    }

    #[test]
    fn string_literals_are_captured_with_token_positions() {
        let s = scan(r#"tel.inc("serve.requests", 1);"#);
        // Tokens: tel . inc ( , 1 ) ;  — the string sits between `(` and `,`.
        assert_eq!(s.strings.len(), 1);
        assert_eq!(s.strings[0].value, "serve.requests");
        assert_eq!(s.strings[0].line, 1);
        let open = s.tokens.iter().position(|t| t.text == "(").unwrap();
        assert_eq!(s.strings[0].token_index, open + 1);
    }

    #[test]
    fn raw_string_with_hash_guards_containing_fn_and_parens_stays_opaque() {
        // Call-site extraction must not see `fn evil(` inside the literal as
        // a definition or call site — and the literal value is captured.
        let src = r###"let t = r##"fn evil() { pool::run_jobs(x) }"##; next()"###;
        let s = scan(src);
        assert!(!s.tokens.iter().any(|t| t.text == "evil"));
        assert!(!s.tokens.iter().any(|t| t.text == "run_jobs"));
        assert_eq!(s.strings.len(), 1);
        assert_eq!(s.strings[0].value, "fn evil() { pool::run_jobs(x) }");
        assert!(s.tokens.iter().any(|t| t.text == "next"));
    }

    #[test]
    fn nested_block_comment_terminating_at_eof_is_consumed() {
        // Unterminated nested comment swallows the rest of the file
        // without panicking or leaking tokens.
        let s = scan("a /* outer /* inner */ still-open fn ghost(");
        assert_eq!(
            s.tokens.iter().map(|t| t.text.as_str()).collect::<Vec<_>>(),
            vec!["a"]
        );
    }

    #[test]
    fn char_vs_lifetime_inside_generic_call_sites() {
        // `split::<'a, Vec<char>>('x', 'y')` — lifetimes tokenize away,
        // char args vanish, the call pattern `split (`…`)` survives for the
        // call-site extraction (after the turbofish punctuation).
        let s = scan("split::<'a, Vec<char>>('x', 'y'); done");
        let texts: Vec<&str> = s.tokens.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(
            texts,
            vec![
                "split", ":", ":", "<", ",", "Vec", "<", "char", ">", ">", "(", ",", ")", ";",
                "done"
            ]
        );
        assert!(s.strings.is_empty());
    }
}
