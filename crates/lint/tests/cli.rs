//! Command-line contract of the `blameit-lint` binary.

use std::process::Command;

#[test]
fn retired_cache_flags_exit_2_like_any_unknown_flag() {
    // The analysis cache and its two flags are gone; a script that
    // still passes one must fail loudly (usage, exit 2), not lint.
    for args in [&["--no-cache"][..], &["--cache-dir", "x"], &["--bogus"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_blameit-lint"))
            .args(args)
            .output()
            .expect("blameit-lint runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("unknown argument"), "{args:?}: {stderr}");
    }
}
