//! The report goes to stdout through a fallible write: a reader that has
//! gone away (`mdbs-qcost derive … | head`) ends the process quietly, and
//! any other write error is a typed I/O failure (exit 3), never a panic.

use std::process::{Command, Stdio};

fn mdbs_qcost() -> Command {
    Command::new(env!("CARGO_BIN_EXE_mdbs-qcost"))
}

#[test]
fn a_closed_stdout_ends_quietly() {
    let out = std::env::temp_dir().join(format!("mdbs-broken-pipe-{}.txt", std::process::id()));
    let _ = std::fs::remove_file(&out);
    let mut child = mdbs_qcost()
        .args([
            "derive",
            "--site",
            "oracle",
            "--class",
            "g1",
            "--algorithm",
            "icma",
            "--profile",
            "clustered",
            "--seed",
            "4",
            "--jobs",
            "1",
            "--out",
        ])
        .arg(&out)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn mdbs-qcost");
    // Close the read end before the derivation finishes and prints.
    drop(child.stdout.take());
    let done = child.wait_with_output().expect("wait for mdbs-qcost");
    let stderr = String::from_utf8_lossy(&done.stderr);
    let _ = std::fs::remove_file(&out);
    assert_ne!(done.status.code(), Some(101), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    assert!(done.status.success(), "{:?}, stderr: {stderr}", done.status);
}

#[test]
fn another_write_error_is_an_io_failure() {
    // Linux's /dev/full fails every write with "no space left on device".
    let Ok(full) = std::fs::OpenOptions::new().write(true).open("/dev/full") else {
        return;
    };
    let done = mdbs_qcost()
        .arg("help")
        .stdout(full)
        .stderr(Stdio::piped())
        .output()
        .expect("run mdbs-qcost");
    let stderr = String::from_utf8_lossy(&done.stderr);
    assert_eq!(done.status.code(), Some(3), "stderr: {stderr}");
    assert!(stderr.starts_with("error: "), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}
