//! `bench-diff` as a user runs it: a flag it does not know is an error,
//! not a file name.

use std::process::Command;

#[test]
fn bench_diff_rejects_an_unknown_flag_instead_of_opening_it() {
    for (args, flag) in [
        (&["--samples", "0"][..], "--samples"),
        (&["base.json", "cur.json", "-x"][..], "-x"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_bench-diff"))
            .args(args)
            .output()
            .expect("bench-diff runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(
            stderr.contains(&format!("error: unknown option `{flag}`")),
            "{args:?}: {stderr}"
        );
    }
}
