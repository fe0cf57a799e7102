//! Process hygiene for the two `procs_*` workloads: every job gets a
//! private run directory inside the benchmark's output directory (removed
//! afterwards), a hard timeout that fails the operation instead of hanging
//! the benchmark, and a guard that SIGKILLs any worker still alive when the
//! job ends — normally, by error, or by panic — so no `net-worker` outlives
//! a failed run.

use crate::sys;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};
use subsonic_exec::Problem2;
use subsonic_net::{run_problem, NetConfig, NetOutcome, ProcessHost};
use subsonic_obs::FlightRecorder;

/// Hard wall-clock limit of one job: far above any healthy job (≈1–2 s)
/// and far below the driver's 180 s limit for a whole run.
/// `SUBSONIC_BENCHMARK_JOB_TIMEOUT_MS` shortens it so the hygiene test can
/// force the timeout path on the real binary.
pub fn job_timeout() -> Duration {
    std::env::var("SUBSONIC_BENCHMARK_JOB_TIMEOUT_MS")
        .ok()
        .and_then(|ms| ms.parse().ok())
        .map_or(Duration::from_secs(45), Duration::from_millis)
}

/// Grace after the children were killed for `run_problem` to notice the
/// closed sockets and return.
const UNWIND_GRACE: Duration = Duration::from_secs(10);

/// How often the waiting job loop samples the workers' `VmHWM`.
const RSS_SAMPLE_PERIOD: Duration = Duration::from_millis(25);

/// The argument that turns this binary into a worker process.
pub const WORKER_ARG: &str = "net-worker";

static NEXT_JOB: AtomicU64 = AtomicU64::new(0);

/// Kills every child process when dropped.
struct ChildGuard;

impl Drop for ChildGuard {
    fn drop(&mut self) {
        sys::kill_children();
    }
}

/// Removes the job's run directory when dropped.
struct DirGuard(PathBuf);

impl Drop for DirGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs one `run_problem` job on two real worker processes (this binary
/// re-executed with [`WORKER_ARG`]).
pub fn run_job(
    problem: &Problem2,
    mut cfg: NetConfig,
    recorder: &FlightRecorder,
    out_dir: &Path,
    timeout: Duration,
) -> Result<NetOutcome, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let dir = out_dir.join("tmp").join(format!(
        "job-{}-{}",
        std::process::id(),
        NEXT_JOB.fetch_add(1, Ordering::Relaxed)
    ));
    let _dir_guard = DirGuard(dir.clone());
    let _child_guard = ChildGuard;
    cfg.run_dir = dir.clone();

    // run_problem blocks; a channel lets this thread enforce the deadline
    let (tx, rx) = mpsc::channel();
    let problem = problem.clone();
    let recorder = recorder.clone();
    let worker = std::thread::spawn(move || {
        let result = ProcessHost::new(exe, vec![WORKER_ARG.to_string()], dir)
            .and_then(|mut host| run_problem(&problem, &cfg, &mut host, &recorder));
        let _ = tx.send(result);
    });
    // While the job runs this thread has nothing to do but watch the clock,
    // so it also samples the workers' resident-set high-water marks.
    let started = Instant::now();
    let result = loop {
        match rx.recv_timeout(RSS_SAMPLE_PERIOD) {
            Ok(result) => break Some(result),
            Err(mpsc::RecvTimeoutError::Disconnected) => break None,
            Err(mpsc::RecvTimeoutError::Timeout) if started.elapsed() >= timeout => break None,
            Err(mpsc::RecvTimeoutError::Timeout) => sys::sample_worker_rss(WORKER_ARG),
        }
    };
    match result {
        Some(result) => {
            let _ = worker.join();
            result.map_err(|e| e.to_string())
        }
        None => {
            // closing the workers' sockets makes run_problem fail fast
            sys::kill_children();
            if rx.recv_timeout(UNWIND_GRACE).is_ok() {
                let _ = worker.join();
            }
            Err(format!(
                "job exceeded its {} ms hard timeout",
                timeout.as_millis()
            ))
        }
    }
}
