//! The `repro` binary fails loudly: a mistyped experiment id must exit
//! non-zero, so a script that re-emits a record and then diffs it cannot
//! pass on the stale committed file.

use std::process::Command;

#[test]
fn an_unknown_experiment_id_exits_non_zero() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("bogus")
        .output()
        .unwrap_or_else(|e| panic!("repro runs: {e}"));
    assert!(!out.status.success(), "repro bogus exited {}", out.status);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown experiment `bogus`"), "{stderr}");
}
