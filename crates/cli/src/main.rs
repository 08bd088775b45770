//! `mdbs-qcost` — see [`mdbs_cli`] for the full documentation.

#![forbid(unsafe_code)]

use std::io::{ErrorKind, Write};
use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let argv = if argv.is_empty() {
        vec!["help".to_string()]
    } else {
        argv
    };
    match mdbs_cli::dispatch(&argv) {
        Ok(report) => {
            let mut out = std::io::stdout().lock();
            match writeln!(out, "{report}").and_then(|()| out.flush()) {
                Ok(()) => ExitCode::SUCCESS,
                // The reader went away (`… | head`): the work is done and
                // nobody is left to read the report.
                Err(e) if e.kind() == ErrorKind::BrokenPipe => ExitCode::SUCCESS,
                Err(e) => {
                    let _ = writeln!(std::io::stderr(), "error: writing the report: {e}");
                    ExitCode::from(3)
                }
            }
        }
        Err(e) => {
            let _ = writeln!(std::io::stderr(), "error: {e}");
            ExitCode::from(e.exit_code())
        }
    }
}
