//! What the benchmark asks the operating system: CPU time and peak resident
//! set of the process tree, the machine description recorded in `meta`, and
//! the child-process scan behind the `procs_*` hygiene guard.
//!
//! Linux only. Resource usage comes from hand-declared `getrusage(2)` (std
//! links libc already; no crate is added), everything else from `/proc` and
//! `/sys`, with the text parsers split out so the unit tests can feed them
//! fixed strings.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// `struct timeval` on 64-bit Linux.
#[repr(C)]
#[derive(Clone, Copy, Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals followed by 14 longs, none
/// of which is read here.
#[repr(C)]
#[derive(Clone, Copy, Default)]
struct RawRusage {
    utime: Timeval,
    stime: Timeval,
    rest: [i64; 14],
}

const RUSAGE_SELF: i32 = 0;
const RUSAGE_CHILDREN: i32 = -1;
const SIGKILL: i32 = 9;

extern "C" {
    fn getrusage(who: i32, usage: *mut RawRusage) -> i32;
    fn kill(pid: i32, sig: i32) -> i32;
}

/// User + system CPU seconds of one `getrusage` scope.
fn cpu_s(who: i32) -> f64 {
    let mut raw = RawRusage::default();
    // SAFETY: `raw` is a live, writable, correctly sized and aligned
    // `struct rusage` for this platform (layout above), and `who` is one of
    // the two constants the call defines; the kernel only writes into it.
    let rc = unsafe { getrusage(who, &mut raw) };
    if rc != 0 {
        return 0.0;
    }
    let secs = |t: Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    secs(raw.utime) + secs(raw.stime)
}

/// CPU seconds consumed so far by this process plus every child it has
/// reaped — the whole process tree of a `procs_*` job once `run_problem`
/// has returned (its host waits for the workers).
pub fn cpu_tree_s() -> f64 {
    cpu_s(RUSAGE_SELF) + cpu_s(RUSAGE_CHILDREN)
}

/// A `kB` field such as `VmHWM` out of a `/proc/<pid>/status` text.
pub fn parse_status_kib(status: &str, field: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse().ok())
}

/// Resident-set high-water mark of process `pid`, KiB (0 if it is gone).
fn vm_hwm_kib(pid: u32) -> u64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| parse_status_kib(&s, "VmHWM"))
        .unwrap_or(0)
}

/// Largest `VmHWM` any worker process has shown, KiB. `getrusage`'s
/// `ru_maxrss` cannot stand in for it: a child spawned by `vfork` + `exec`
/// inherits the *parent's* high-water mark at spawn time, so a worker
/// smaller than its supervisor would be invisible.
static WORKER_HWM_KIB: AtomicU64 = AtomicU64::new(0);

/// Samples the high-water mark of every live child that has become a
/// worker (`argv[1] == worker_arg`; before `exec` a child still shares this
/// process's image). Called by the job loop while it waits.
pub fn sample_worker_rss(worker_arg: &str) {
    for pid in child_pids() {
        let cmdline = std::fs::read(format!("/proc/{pid}/cmdline")).unwrap_or_default();
        if cmdline.split(|b| *b == 0).nth(1) == Some(worker_arg.as_bytes()) {
            WORKER_HWM_KIB.fetch_max(vm_hwm_kib(pid), Ordering::Relaxed);
        }
    }
}

/// Peak resident set of the workload's process tree, MiB: this process's
/// high-water mark plus `workers` times the largest worker's (the workers
/// of one job hold symmetric tiles, so the largest stands for each).
pub fn peak_rss_mib(workers: usize) -> f64 {
    let own = vm_hwm_kib(std::process::id()) as f64;
    let worker = WORKER_HWM_KIB.load(Ordering::Relaxed) as f64;
    (own + workers as f64 * worker) / 1024.0
}

/// The parent pid out of a `/proc/<pid>/stat` line. The command name sits in
/// parentheses and may itself hold spaces and parentheses, so fields are
/// counted from the *last* `)`.
pub fn parse_stat_ppid(stat: &str) -> Option<u32> {
    let rest = &stat[stat.rfind(')')? + 1..];
    // rest = " S ppid pgrp ..."
    rest.split_whitespace().nth(1)?.parse().ok()
}

/// Pids of this process's live (or zombie) direct children: the kernel's
/// per-thread `children` lists where it offers them, else a scan of every
/// `/proc/<pid>/stat` for this process as parent.
pub fn child_pids() -> Vec<u32> {
    let mut out = Vec::new();
    if let Ok(tasks) = std::fs::read_dir("/proc/self/task") {
        let mut listed = false;
        for task in tasks.flatten() {
            if let Ok(text) = std::fs::read_to_string(task.path().join("children")) {
                listed = true;
                out.extend(
                    text.split_whitespace()
                        .filter_map(|p| p.parse::<u32>().ok()),
                );
            }
        }
        if listed {
            return out;
        }
    }
    let me = std::process::id();
    let Ok(dir) = std::fs::read_dir("/proc") else {
        return out;
    };
    for entry in dir.flatten() {
        let Some(pid) = entry
            .file_name()
            .to_str()
            .and_then(|s| s.parse::<u32>().ok())
        else {
            continue;
        };
        if let Ok(stat) = std::fs::read_to_string(entry.path().join("stat")) {
            if parse_stat_ppid(&stat) == Some(me) {
                out.push(pid);
            }
        }
    }
    out
}

/// SIGKILLs every direct child. Used when a `procs_*` job overruns its hard
/// timeout and from the guard that runs on driver drop/panic: the workers'
/// sockets close, the supervisor's `run_problem` returns an error, and no
/// `net-worker` outlives a failed run.
pub fn kill_children() -> usize {
    let pids = child_pids();
    for &pid in &pids {
        // SAFETY: plain syscall on an integer pid; the pid came from /proc
        // with this process as its parent, so the signal cannot reach an
        // unrelated process unless the child was already reaped and its pid
        // reused as *our* child again.
        unsafe {
            kill(pid as i32, SIGKILL);
        }
    }
    pids.len()
}

/// `model name` of the first CPU in a `/proc/cpuinfo` text.
pub fn parse_cpu_model(cpuinfo: &str) -> Option<String> {
    cpuinfo
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_string())
}

/// A sysfs cache size such as `4096K` or `260M`, in bytes.
pub fn parse_cache_size(text: &str) -> Option<u64> {
    let t = text.trim();
    let (num, mult) = match t.chars().last()? {
        'K' => (&t[..t.len() - 1], 1u64 << 10),
        'M' => (&t[..t.len() - 1], 1 << 20),
        'G' => (&t[..t.len() - 1], 1 << 30),
        _ => (t, 1),
    };
    num.parse::<u64>().ok().map(|n| n * mult)
}

/// Machine facts recorded next to every result.
#[derive(Debug, Clone, Default)]
pub struct Machine {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// CPU model string.
    pub cpu_model: String,
    /// Per-core L2, bytes (0 if the VM does not report it).
    pub l2_bytes: u64,
    /// L3 as the VM reports it, bytes (0 if absent).
    pub l3_bytes: u64,
}

/// Reads the machine description.
pub fn machine() -> Machine {
    let cache = |level: u32| -> u64 {
        let base = Path::new("/sys/devices/system/cpu/cpu0/cache");
        (0..8)
            .filter_map(|i| {
                let dir = base.join(format!("index{i}"));
                let lvl: u32 = std::fs::read_to_string(dir.join("level"))
                    .ok()?
                    .trim()
                    .parse()
                    .ok()?;
                let kind = std::fs::read_to_string(dir.join("type")).ok()?;
                if lvl != level || kind.trim() == "Instruction" {
                    return None;
                }
                parse_cache_size(&std::fs::read_to_string(dir.join("size")).ok()?)
            })
            .max()
            .unwrap_or(0)
    };
    Machine {
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        cpu_model: std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| parse_cpu_model(&s))
            .unwrap_or_else(|| "unknown".into()),
        l2_bytes: cache(2),
        l3_bytes: cache(3),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_ppid_survives_hostile_command_names() {
        assert_eq!(parse_stat_ppid("42 (cat) S 7 42 42 0"), Some(7));
        assert_eq!(parse_stat_ppid("42 (a b) c) d) R 1234 42"), Some(1234));
        assert_eq!(parse_stat_ppid("garbage"), None);
        assert_eq!(parse_stat_ppid("42 (x) S"), None);
    }

    #[test]
    fn cpu_model_and_cache_sizes_parse() {
        let info = "processor\t: 0\nmodel name\t: Intel(R) Xeon(R) @ 2.10GHz\nflags: x\n";
        assert_eq!(
            parse_cpu_model(info).as_deref(),
            Some("Intel(R) Xeon(R) @ 2.10GHz")
        );
        assert_eq!(parse_cpu_model("nothing here"), None);
        assert_eq!(parse_cache_size("4096K\n"), Some(4 << 20));
        assert_eq!(parse_cache_size("260M"), Some(260 << 20));
        assert_eq!(parse_cache_size("512"), Some(512));
        assert_eq!(parse_cache_size("K"), None);
        assert_eq!(parse_cache_size(""), None);
    }

    #[test]
    fn rusage_reads_this_process() {
        // burn a little CPU so the counters cannot both be zero
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(i);
        }
        std::hint::black_box(x);
        assert!(cpu_tree_s() > 0.0);
        assert!(peak_rss_mib(0) > 0.5, "a running process holds > 0.5 MiB");
        let status = "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t    1644 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(parse_status_kib(status, "VmHWM"), Some(1644));
        assert_eq!(parse_status_kib(status, "VmRSS"), Some(1000));
        assert_eq!(parse_status_kib(status, "VmSwap"), None);
        assert_eq!(parse_status_kib("VmHWM: lots", "VmHWM"), None);
    }

    #[test]
    fn a_spawned_child_is_found_and_killed() {
        let mut child = std::process::Command::new("sleep")
            .arg("30")
            .spawn()
            .expect("spawn sleep");
        assert!(child_pids().contains(&child.id()));
        assert!(kill_children() >= 1);
        let status = child.wait().expect("reap");
        assert!(!status.success(), "the child must have died by signal");
        assert!(!child_pids().contains(&child.id()));
    }
}
