//! `mdbs-lint` — machine-checks the workspace's determinism and
//! hermeticity policy. See [`mdbs_lint`] for the rules.
//!
//! ```text
//! mdbs-lint [WORKSPACE_ROOT] [--json PATH]
//! ```
//!
//! Walks the workspace (default: the current directory) and prints every
//! policy violation as a sorted, deterministic `file:line rule message`
//! line on stdout. With `--json PATH`, additionally writes the findings as
//! a byte-stable JSON report (validated by `lint-json-check`, the same way
//! `bench-json-check` validates bench reports). Exit codes:
//!
//! * `0` — no findings (nothing printed),
//! * `1` — findings printed,
//! * `2` — usage or I/O error (message on stderr).

use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!("usage: mdbs-lint [WORKSPACE_ROOT] [--json PATH]");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut json_path: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--json" {
            match args.next() {
                Some(p) if json_path.is_none() => json_path = Some(PathBuf::from(p)),
                _ => return usage(),
            }
        } else if arg.starts_with('-') || root.is_some() {
            return usage();
        } else {
            root = Some(PathBuf::from(arg));
        }
    }
    let root = root.unwrap_or_else(|| PathBuf::from("."));
    match mdbs_lint::check_workspace(&root) {
        Ok(findings) => {
            if let Some(path) = &json_path {
                if let Err(e) = std::fs::write(path, mdbs_lint::render_json(&findings)) {
                    eprintln!("mdbs-lint: writing {}: {e}", path.display());
                    return ExitCode::from(2);
                }
            }
            if findings.is_empty() {
                ExitCode::SUCCESS
            } else {
                print!("{}", mdbs_lint::render(&findings));
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("mdbs-lint: {e}");
            ExitCode::from(2)
        }
    }
}
