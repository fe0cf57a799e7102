//! Process hygiene of the `procs_*` workloads, exercised on the real binary:
//! after a quick run — healthy, or with every job forced over its hard
//! timeout — no `net-worker` of this binary is left running and the job
//! directories are gone.

use std::path::Path;
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_benchmark");

/// Pids of live processes whose command line is this binary in worker mode.
fn live_workers() -> Vec<u32> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir("/proc").expect("procfs").flatten() {
        let Some(pid) = entry
            .file_name()
            .to_str()
            .and_then(|s| s.parse::<u32>().ok())
        else {
            continue;
        };
        let cmdline = std::fs::read(entry.path().join("cmdline")).unwrap_or_default();
        let mut args = cmdline.split(|b| *b == 0);
        let is_worker = args.next() == Some(BIN.as_bytes()) && args.next() == Some(b"net-worker");
        let stat = std::fs::read_to_string(entry.path().join("stat")).unwrap_or_default();
        let zombie = stat
            .rsplit(')')
            .next()
            .is_some_and(|rest| rest.trim_start().starts_with('Z'));
        if is_worker && !zombie {
            out.push(pid);
        }
    }
    out
}

fn quick_run(out_dir: &Path, timeout_ms: Option<&str>) -> (Option<i32>, String) {
    let mut cmd = Command::new(BIN);
    cmd.args([
        "--workload",
        "procs_tcp_lb2d",
        "--seed",
        "3",
        "--seconds",
        "0.2",
        "--trace",
        "0",
    ])
    .arg("--out")
    .arg(out_dir);
    if let Some(ms) = timeout_ms {
        cmd.env("SUBSONIC_BENCHMARK_JOB_TIMEOUT_MS", ms);
    }
    let output = cmd.output().expect("run the benchmark binary");
    let stdout = String::from_utf8_lossy(&output.stdout).to_string();
    (
        output.status.code(),
        stdout.lines().last().unwrap_or_default().to_string(),
    )
}

#[test]
fn no_worker_survives_a_quick_run_or_a_timed_out_one() {
    if cfg!(debug_assertions) {
        eprintln!(
            "skipped: the binary refuses to measure a debug build (run `cargo test --release`)"
        );
        return;
    }
    let out_dir =
        std::env::temp_dir().join(format!("subsonic-benchmark-hygiene-{}", std::process::id()));

    let (code, line) = quick_run(&out_dir, None);
    assert_eq!(code, Some(0), "healthy quick run: {line}");
    assert!(
        line.contains("\"correct\":true") && line.contains("\"failed\":0"),
        "{line}"
    );
    assert_eq!(
        live_workers(),
        Vec::<u32>::new(),
        "a worker outlived a healthy run"
    );
    assert!(
        !out_dir.join("tmp").exists(),
        "job directories must be removed"
    );

    // 1 ms is below any job: every operation must fail, none may hang
    let (code, line) = quick_run(&out_dir, Some("1"));
    assert_eq!(code, Some(1), "timed-out run must exit nonzero: {line}");
    assert!(line.contains("\"correct\":false"), "{line}");
    assert_eq!(
        live_workers(),
        Vec::<u32>::new(),
        "a worker outlived a failed run"
    );
    assert!(
        !out_dir.join("tmp").exists(),
        "job directories must be removed"
    );
    let _ = std::fs::remove_dir_all(&out_dir);
}
