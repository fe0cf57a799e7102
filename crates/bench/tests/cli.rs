//! `reproduce` rejects bad arguments before running anything.

use std::process::Command;

/// Runs `reproduce` with `args` and returns its exit code.
fn exit_code(args: &[&str]) -> Option<i32> {
    Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(args)
        .output()
        .expect("reproduce starts")
        .status
        .code()
}

#[test]
fn bad_arguments_exit_2_before_any_experiment_runs() {
    let out = std::env::temp_dir().join(format!("subsonic-cli-{}", std::process::id()));
    let out_s = out.to_str().expect("utf-8 temp dir");
    // a valid id ahead of an unknown one must not run
    assert_eq!(
        exit_code(&["--quick", "--out", out_s, "t1", "bogus"]),
        Some(2)
    );
    assert!(!out.exists(), "{} was created", out.display());
    // the retired perf-suite subcommand is an unknown id like any other
    assert_eq!(exit_code(&["--quick", "--out", out_s, "bench"]), Some(2));
    assert!(!out.exists(), "{} was created", out.display());
    assert_eq!(exit_code(&["--quick", "--out"]), Some(2));
    assert_eq!(exit_code(&["--trace"]), Some(2));
}
