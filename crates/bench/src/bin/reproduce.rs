//! `reproduce` — regenerates every table and figure of the paper.
//!
//! Usage:
//!
//! ```text
//! reproduce [--quick] [--out DIR] [--trace FILE] [id ...]
//! reproduce net-worker
//! ```
//!
//! Without ids, runs every experiment in `subsonic::experiments::ALL_IDS`.
//! Writes one CSV per result table into `DIR` (default `results/`), a
//! `summary.md` with all tables and PASS/FAIL shape checks and a
//! `METRICS.json` dump of the run's metrics registry, then prints the
//! summary to stdout. With `--trace FILE`, instrumented experiments (the
//! `faults` recovery run) record a flight-recorder timeline that is exported
//! as Chrome trace-event JSON — load it at `ui.perfetto.dev`.
//!
//! Every argument is checked before any experiment runs: an unknown id or
//! flag, or a flag missing its value, prints the usage and exits 2 without
//! writing anything. Every run ends with a one-line PASS/FAIL verdict per
//! experiment, and the process exits 1 when any shape check failed — CI can
//! gate on the exit code alone.
//!
//! The `net-worker` subcommand is not for humans: it turns this binary into
//! one worker process of the distributed runtime (the `dist` experiment
//! re-executes itself with it, directed by `SUBSONIC_NET_DIR` /
//! `SUBSONIC_NET_WORKER` in the environment).

use std::io::Write;
use std::path::PathBuf;
use subsonic::experiments::{run_experiment_obs, ObsSession, ALL_IDS};

fn usage() {
    eprintln!("usage: reproduce [--quick] [--out DIR] [--trace FILE] [id ...]");
    eprintln!("       reproduce net-worker");
    eprintln!("ids: {}", ALL_IDS.join(" "));
}

fn usage_error(msg: &str) -> ! {
    eprintln!("error: {msg}");
    usage();
    std::process::exit(2);
}

fn main() {
    let mut quick = false;
    let mut out_dir = PathBuf::from("results");
    let mut trace_out: Option<PathBuf> = None;
    let mut ids: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "net-worker" if ids.is_empty() && !quick => {
                if let Err(e) = subsonic_net::process_worker_main() {
                    eprintln!("net-worker: {e}");
                    std::process::exit(1);
                }
                return;
            }
            "--quick" => quick = true,
            "--out" => match args.next() {
                Some(dir) => out_dir = dir.into(),
                None => usage_error("--out needs a directory"),
            },
            "--trace" => match args.next() {
                Some(file) => trace_out = Some(file.into()),
                None => usage_error("--trace needs a file"),
            },
            "--help" | "-h" => {
                usage();
                return;
            }
            id if ALL_IDS.contains(&id) => ids.push(id.to_string()),
            id => usage_error(&format!("unknown experiment id '{id}'")),
        }
    }
    if ids.is_empty() {
        ids = ALL_IDS.iter().map(|s| s.to_string()).collect();
    }
    let obs = if trace_out.is_some() {
        ObsSession::tracing()
    } else {
        ObsSession::metrics_only()
    };
    // the dist experiment respawns this binary as its worker processes
    if let Ok(me) = std::env::current_exe() {
        std::env::set_var("SUBSONIC_NET_WORKER_BIN", me);
        std::env::set_var("SUBSONIC_NET_WORKER_ARGS", "net-worker");
    }

    let mut summary = String::from("# Reproduction summary\n\n");
    let mut verdicts: Vec<(String, usize, f64)> = Vec::new();
    for id in &ids {
        let t0 = std::time::Instant::now();
        eprint!("running {id} ... ");
        let _ = std::io::stderr().flush();
        let result = run_experiment_obs(id, quick, Some(&obs)).expect("every id in ALL_IDS runs");
        let dt = t0.elapsed().as_secs_f64();
        let bad = result.checks.iter().filter(|c| !c.pass).count();
        eprintln!("{} ({dt:.1} s)", if bad == 0 { "PASS" } else { "FAIL" });
        verdicts.push((id.clone(), bad, dt));
        let md = subsonic_bench::emit_result(&result, &out_dir).expect("cannot write results");
        summary.push_str(&md);
        summary.push('\n');
    }
    let failures = verdicts.iter().filter(|(_, bad, _)| *bad > 0).count();
    std::fs::create_dir_all(&out_dir).expect("cannot create results dir");
    std::fs::write(out_dir.join("summary.md"), &summary).expect("cannot write summary");
    std::fs::write(out_dir.join("METRICS.json"), obs.metrics.to_json())
        .expect("cannot write metrics");
    if let Some(path) = trace_out {
        let json = subsonic_obs::chrome::export(&obs.recorder);
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir).expect("cannot create trace dir");
        }
        std::fs::write(&path, json).expect("cannot write trace");
        eprintln!("wrote {} (load at ui.perfetto.dev)", path.display());
    }
    println!("{summary}");
    // the one-line-per-experiment verdict block, last so it is what a human
    // (or a CI log tail) sees first
    eprintln!("== verdicts ==");
    for (id, bad, dt) in &verdicts {
        if *bad == 0 {
            eprintln!("PASS {id} ({dt:.1} s)");
        } else {
            eprintln!("FAIL {id} ({dt:.1} s, {bad} failing check(s))");
        }
    }
    if failures > 0 {
        eprintln!("{failures} of {} experiment(s) failed", verdicts.len());
        std::process::exit(1);
    }
    eprintln!("all {} experiment(s) passed", verdicts.len());
}
