//! The repository's benchmark: seven workloads, end-to-end metrics with
//! tracing off, then a traced pass with per-layer metrics and a per-step
//! budget table. See `README.md` in this directory.
//!
//! ```text
//! benchmark [--seed S] [--quick | --seconds T] [--workload NAME] [--sets N] [--out DIR]
//! benchmark --workload NAME --seed S --seconds T --trace 0|1     (one pass, the driver's contract)
//! benchmark compare A.json B.json
//! benchmark selfcheck [--seed S] [--seconds T]
//! benchmark validate BENCHMARK.json | emit-spec | net-worker
//! ```

mod compare;
mod fluid;
mod harness;
mod json;
mod layers;
mod probes;
mod procs;
mod run;
mod spec;
mod stats;
mod sys;
#[cfg(test)]
mod tests;
mod workloads;

use json::Value;
use run::Options;
use spec::{Better, Workload};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

/// Default input seed (the paper's year).
const DEFAULT_SEED: u64 = 1995;

/// Fewest set-up repetitions per run; `setup_s` is their median.
const SETUPS: usize = 7;
/// The same for smoke runs (windows under [`SMOKE_BELOW_S`]).
const SMOKE_SETUPS: usize = 2;
const SMOKE_BELOW_S: f64 = 3.0;

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    sets: usize,
    out_dir: PathBuf,
    positional: Vec<String>,
}

fn usage() -> String {
    "usage: benchmark [--seed S] [--quick | --seconds T] [--workload NAME] [--sets N] [--out DIR]\n       \
     benchmark --workload NAME --seed S --seconds T --trace 0|1\n       \
     benchmark compare A.json B.json | selfcheck [--seed S] [--seconds T] | validate FILE | emit-spec"
        .to_string()
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: f64::from(spec::RUN_SECONDS),
        trace: None,
        sets: 1,
        out_dir: PathBuf::from("out"),
        positional: Vec::new(),
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                args.workload = Some(
                    Workload::from_name(&name)
                        .ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed wants a whole number")?
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|_| "--seconds wants a number")?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--quick" => args.seconds = 1.0,
            "--trace" => {
                args.trace = Some(match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace wants 0 or 1".into()),
                })
            }
            "--sets" => {
                args.sets = value("--sets")?
                    .parse()
                    .map_err(|_| "--sets wants a whole number")?;
                if !(1..=32).contains(&args.sets) {
                    return Err("--sets must be 1 to 32".into());
                }
            }
            "--out" => args.out_dir = PathBuf::from(value("--out")?),
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            other => args.positional.push(other.to_string()),
        }
    }
    Ok(args)
}

fn command_line(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Build and machine facts recorded next to every result.
fn meta(seed: u64, seconds: f64) -> Value {
    let m = sys::machine();
    Value::obj([
        (
            "git_commit",
            Value::str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc", Value::str(command_line("rustc", &["--version"]))),
        (
            "simd_lanes",
            Value::Num(subsonic_solvers::kernels::simd_lanes() as f64),
        ),
        (
            "intra_threads",
            Value::Num(subsonic_solvers::kernels::intra_threads() as f64),
        ),
        ("nproc", Value::Num(m.nproc as f64)),
        ("cpu_model", Value::str(m.cpu_model)),
        ("l2_bytes", Value::Num(m.l2_bytes as f64)),
        ("l3_bytes_vm_reported", Value::Num(m.l3_bytes as f64)),
        (
            "mem_copy_buffer_bytes",
            Value::Num(probes::COPY_BYTES as f64),
        ),
        ("parallelism", Value::Num(workloads::P as f64)),
        ("seed", Value::Num(seed as f64)),
        ("seconds_per_pass", Value::num(seconds)),
    ])
}

fn print_end_to_end(r: &run::EndToEndResult) {
    println!("== {} — end to end (tracing off) ==", r.workload.name());
    println!("   {}", r.workload.sizes());
    println!(
        "   {:<16} {:>14} {:<9} {:>14} {:>22} {:>6}",
        "metric", "undisturbed", "unit", "median", "worse tail", "n"
    );
    for m in &r.metrics {
        let tail = stats::upper_percentile(&m.samples, m.better == Better::Lower)
            .map_or_else(|| "-".to_string(), |(p, v)| format!("p{p:.0} {v:.5e}"));
        println!(
            "   {:<16} {:>14.6e} {:<9} {:>14.6e} {:>22} {:>6}",
            m.name,
            m.value,
            m.unit,
            stats::median(&m.samples),
            tail,
            m.samples.len()
        );
    }
    if !r.recovery_s.is_empty() {
        let median = stats::median(&r.recovery_s);
        println!(
            "   {:<16} {:>14} {:<9} {:>14.6e} {:>22} {:>6}",
            "recovery_s",
            "-",
            "s",
            median,
            "-",
            r.recovery_s.len()
        );
    }
    println!(
        "   ops_attempted {}  ops_failed {}  ({:.1} s)",
        r.attempted,
        r.failures.len(),
        r.wall_s
    );
}

fn print_traced(r: &layers::TracedResult) {
    println!("== {} — per layer (traced pass) ==", r.workload.name());
    println!("   {:<18} {:<36} {:>14} unit", "layer", "metric", "value");
    for (name, value) in &r.layers {
        let m = spec::PER_LAYER
            .iter()
            .find(|m| m.name == *name)
            .expect("known metric");
        println!(
            "   {:<18} {:<36} {:>14.6e} {:<6}{}",
            m.layer,
            name,
            value,
            m.unit,
            if m.exact { " exact" } else { "" }
        );
    }
    r.print_budget();
    if let Some(p) = &r.trace_path {
        println!("   trace: {}", p.display());
    }
    println!(
        "   ops_attempted {}  ops_failed {}  ({:.1} s)",
        r.attempted,
        r.failures.len(),
        r.wall_s
    );
}

/// One pass over one workload in this process; the last line of stdout is
/// the driver's result object.
fn single_pass(args: &Args, workload: Workload, trace: bool, json_out: Option<&Path>) -> ExitCode {
    let opts = Options {
        seed: args.seed,
        seconds: args.seconds,
        setups: if args.seconds < SMOKE_BELOW_S {
            SMOKE_SETUPS
        } else {
            SETUPS
        },
        out_dir: args.out_dir.clone(),
    };
    let (line, full, ok) = if trace {
        let r = layers::traced(workload, &opts);
        print_traced(&r);
        (r.contract_line(), r.to_json(), r.failures.is_empty())
    } else {
        let r = run::end_to_end(workload, &opts);
        print_end_to_end(&r);
        (r.contract_line(), r.to_json(), r.correct())
    };
    let _ = std::fs::remove_dir(opts.out_dir.join("tmp"));
    if let Some(path) = json_out {
        if let Err(e) = std::fs::write(path, full.to_pretty()) {
            eprintln!("benchmark: cannot write {}: {e}", path.display());
            return ExitCode::from(1);
        }
    }
    println!("{}", line.to_line());
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Runs one pass in a child process of this binary (clean peak RSS, clean
/// allocator) and returns what it measured. The child's report is passed
/// through; its result line is not.
fn child_pass(args: &Args, workload: Workload, trace: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    std::fs::create_dir_all(&args.out_dir).map_err(|e| e.to_string())?;
    let json_path = args
        .out_dir
        .join(format!("pass_{}_{}.json", workload.name(), u8::from(trace)));
    let output = Command::new(exe)
        .args([
            "--workload",
            workload.name(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .args([
            "--seed",
            &args.seed.to_string(),
            "--seconds",
            &args.seconds.to_string(),
        ])
        .arg("--out")
        .arg(&args.out_dir)
        .env("SUBSONIC_BENCHMARK_JSON", &json_path)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    lines.pop(); // the driver's result line
    for l in lines {
        println!("{l}");
    }
    let text =
        std::fs::read_to_string(&json_path).map_err(|e| format!("{}: {e}", json_path.display()))?;
    let _ = std::fs::remove_file(&json_path);
    json::parse(&text)
}

/// One full set: every selected workload, end-to-end pass then traced pass.
fn run_set(args: &Args) -> (Value, f64) {
    let mut workloads = Vec::new();
    let mut failed = 0.0;
    for w in Workload::ALL
        .into_iter()
        .filter(|w| args.workload.is_none_or(|only| only == *w))
    {
        let mut entry = match child_pass(args, w, false) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("benchmark: {} end-to-end pass: {e}", w.name());
                failed += 1.0;
                continue;
            }
        };
        failed += entry
            .get("ops_failed")
            .and_then(Value::as_f64)
            .unwrap_or(1.0);
        match child_pass(args, w, true) {
            Ok(t) => {
                failed += t.get("ops_failed").and_then(Value::as_f64).unwrap_or(1.0);
                if let Value::Obj(pairs) = &mut entry {
                    pairs.push(("traced".to_string(), t));
                }
            }
            Err(e) => {
                eprintln!("benchmark: {} traced pass: {e}", w.name());
                failed += 1.0;
            }
        }
        println!();
        workloads.push((w.name().to_string(), entry));
    }
    (
        Value::obj([
            ("seed", Value::Num(args.seed as f64)),
            ("workloads", Value::Obj(workloads)),
        ]),
        failed,
    )
}

fn run_sets(args: &Args, sets: usize) -> (Value, f64) {
    let mut all = Vec::new();
    let mut failed = 0.0;
    for i in 0..sets {
        if sets > 1 {
            println!("#### set {} of {sets}", i + 1);
        }
        let (set, f) = run_set(args);
        all.push(set);
        failed += f;
    }
    let file = Value::obj([
        ("schema", Value::str("subsonic-benchmark-v1")),
        ("claim", Value::Null),
        ("meta", meta(args.seed, args.seconds)),
        ("sets", Value::Arr(all)),
    ]);
    (file, failed)
}

fn full_run(args: &Args) -> ExitCode {
    let t0 = Instant::now();
    let m = sys::machine();
    println!(
        "subsonic benchmark: seed {}, {} s per pass, P = {}, closed loop with one client",
        args.seed,
        args.seconds,
        workloads::P
    );
    println!(
        "machine: {} x {}, L2 {} KiB, L3 {} MiB (VM-reported)",
        m.nproc,
        m.cpu_model,
        m.l2_bytes >> 10,
        m.l3_bytes >> 20
    );
    if m.nproc < workloads::P {
        eprintln!("benchmark: WARNING nproc = {} < P = {}: the parallel workloads are oversubscribed, wall-clock scaling is meaningless", m.nproc, workloads::P);
    }
    for m in &spec::END_TO_END {
        println!(
            "  {} [{}; {} is better; bound {:.0} %]: {}",
            m.name,
            m.unit,
            m.better.word(),
            m.bound * 100.0,
            m.definition
        );
    }
    if args.seconds < f64::from(spec::RUN_SECONDS) {
        println!("NOTE: shortened passes are for smoke testing; the numbers are not comparable");
    }
    println!();
    let (file, failed) = run_sets(args, args.sets);
    let path = args.out_dir.join("result.json");
    if let Err(e) = std::fs::write(&path, file.to_pretty()) {
        eprintln!("benchmark: cannot write {}: {e}", path.display());
        return ExitCode::from(1);
    }
    println!(
        "wrote {} ({:.0} s total); ops_failed = {failed}",
        path.display(),
        t0.elapsed().as_secs_f64()
    );
    if failed == 0.0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some(procs::WORKER_ARG) {
        return match subsonic_net::process_worker_main() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("net-worker: {e}");
                ExitCode::from(1)
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let positional: Vec<&str> = args.positional.iter().map(String::as_str).collect();
    match positional.as_slice() {
        ["emit-spec"] => {
            print!("{}", spec::benchmark_json(spec::RUN_SECONDS).to_pretty());
            return ExitCode::SUCCESS;
        }
        ["validate", path] => {
            return match std::fs::read_to_string(path)
                .map_err(|e| e.to_string())
                .and_then(|t| spec::validate_benchmark_json(&t))
            {
                Ok(()) => {
                    println!("{path}: valid, matches benchmark/src/spec.rs");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("benchmark: {path}: {e}");
                    ExitCode::from(1)
                }
            };
        }
        ["compare", a, b] => {
            return match (load(a), load(b)) {
                (Ok(a), Ok(b)) => {
                    let c = compare::compare(&a, &b);
                    let bad = c
                        .rows
                        .iter()
                        .any(|(_, _, v)| *v == compare::Verdict::Regressed)
                        || !c.count_mismatches.is_empty();
                    ExitCode::from(u8::from(bad))
                }
                (Err(e), _) | (_, Err(e)) => {
                    eprintln!("benchmark: {e}");
                    ExitCode::from(2)
                }
            };
        }
        [] | ["run"] | ["selfcheck"] => {}
        _ => {
            eprintln!(
                "benchmark: unexpected arguments {positional:?}\n{}",
                usage()
            );
            return ExitCode::from(2);
        }
    }
    if cfg!(debug_assertions) {
        eprintln!(
            "benchmark: refusing to measure a debug build; use run.sh (cargo build --release)"
        );
        return ExitCode::from(2);
    }
    if positional == ["selfcheck"] {
        println!("selfcheck: two full sets of the same build must agree within the benchmark's own bounds");
        let (a, failed_a) = run_sets(&args, 1);
        let (b, failed_b) = run_sets(&args, 1);
        let c = compare::compare(&a, &b);
        let ok = c.all_unchanged() && failed_a + failed_b == 0.0;
        println!("selfcheck: {}", if ok { "PASS" } else { "FAIL" });
        return ExitCode::from(u8::from(!ok));
    }
    match (args.workload, args.trace) {
        (Some(w), Some(trace)) => {
            let json_out = std::env::var_os("SUBSONIC_BENCHMARK_JSON").map(PathBuf::from);
            single_pass(&args, w, trace, json_out.as_deref())
        }
        (None, Some(_)) => {
            eprintln!("benchmark: --trace needs --workload\n{}", usage());
            ExitCode::from(2)
        }
        (_, None) => full_run(&args),
    }
}
