//! The normative names: seven workloads, the end-to-end metrics the driver
//! gates, and the per-layer metrics with the prediction each one carries
//! (which end-to-end metric it should move on which workload, and where the
//! prediction is *no change*). `BENCHMARK.json` at the repository root is
//! this table in the driver's format; `benchmark validate` cross-checks the
//! two so neither can drift.

use crate::json::Value;
use Better::{Higher, Lower};

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Plain single-threaded LB on a grid far larger than L2.
    SerialLb2d,
    /// Two threads on 24×24 tiles: exchange-dominated.
    ThreadsLb2dFine,
    /// Two threads on 24³ finite-difference tiles: the 3D twins.
    ThreadsFd3d,
    /// Two real worker processes over loopback TCP.
    ProcsTcpLb2d,
    /// Two real worker processes over lossy UDP with one SIGKILL.
    ProcsUdpKill,
    /// The 20-process production cluster simulation with faults.
    SimProduction20,
    /// The 1024-host switched weak-scaling simulation.
    SimScale1024,
}

impl Workload {
    /// All seven, in report order.
    pub const ALL: [Workload; 7] = [
        Workload::SerialLb2d,
        Workload::ThreadsLb2dFine,
        Workload::ThreadsFd3d,
        Workload::ProcsTcpLb2d,
        Workload::ProcsUdpKill,
        Workload::SimProduction20,
        Workload::SimScale1024,
    ];

    /// The normative name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SerialLb2d => "serial_lb2d",
            Workload::ThreadsLb2dFine => "threads_lb2d_fine",
            Workload::ThreadsFd3d => "threads_fd3d",
            Workload::ProcsTcpLb2d => "procs_tcp_lb2d",
            Workload::ProcsUdpKill => "procs_udp_kill",
            Workload::SimProduction20 => "sim_production20",
            Workload::SimScale1024 => "sim_scale1024",
        }
    }

    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists — one line, recorded in `BENCHMARK.json`.
    pub fn why(self) -> &'static str {
        match self {
            Workload::SerialLb2d => "Single-thread LB on 1024x512 (~90 MB, far beyond the 2 MiB/core L2): solvers is ~100% of a step, so a kernel change that moves fewer bytes shows here and nowhere else.",
            Workload::ThreadsLb2dFine => "2 threads on 24x24 LB tiles (Fig. 5's small-tile droop): compute is a minority of the step, so exec channels/sync and grid pack/unpack dominate.",
            Workload::ThreadsFd3d => "2 threads on 24^3 finite-difference tiles: the 3D twins (fd3, pack3/unpack3, threaded3, halo 4, six faces); a 2D-tuned change that costs 3D shows here.",
            Workload::ProcsTcpLb2d => "2 real worker processes over loopback TCP on 256x128 LB: the substrate reproduce bench never timed (wire codec, sockets, supervisor commits, spawn and gather).",
            Workload::ProcsUdpKill => "Same problem over UDP with seed-placed loss/dup/reorder and one SIGKILL: the fault path of net (RFC 6298 retransmission, checkpoint ship, respawn, replay).",
            Workload::SimProduction20 => "20-process production cluster sim with crash, freeze, bus bursts, a loss window and a migration: every sim.rs component at the paper's scale (logic-bound).",
            Workload::SimScale1024 => "1024 hosts, switched net, 32x32 processes of 30x30: the calendar queue's synchronized-burst path and the virtual-time bus (queue-bound).",
        }
    }

    /// Frozen sizes, for the report header and the README.
    pub fn sizes(self) -> &'static str {
        match self {
            Workload::SerialLb2d => "LocalRunner2, LatticeBoltzmann2, channel 1024x512 halo-mask 2, 1x1; round = 12 steps",
            Workload::ThreadsLb2dFine => "ThreadedRunner2 (default schedule), LatticeBoltzmann2, channel 48x24 -> 2x1 tiles of 24x24; round = run(1500)",
            Workload::ThreadsFd3d => "ThreadedRunner3 (default schedule), FiniteDifference3, duct 48x24x24 -> 2x1x1 tiles of 24^3; round = run(100)",
            Workload::ProcsTcpLb2d => "run_problem + ProcessHost (2 worker processes), TCP, LatticeBoltzmann, channel 256x128 -> 2x1 tiles of 128x128; job = 600 steps, interval 100",
            Workload::ProcsUdpKill => "same problem, UDP, 8 loss + 6 dup + 6 reorder unit windows placed by the seed, NetKill{worker 1, at_step 150, attempt 0}; job = 300 steps, interval 100",
            Workload::SimProduction20 => "ClusterConfig::production(new_2d(LB, 750, 600, 5, 4), seed) + crash/freeze/2 bus bursts/loss window/1 requested migration; round = 5000 sim steps",
            Workload::SimScale1024 => "ClusterConfig::measurement, 1024 x Hp715_50, net.switched(), 32x32 processes of 30x30; round = 200 sim steps",
        }
    }
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better (rates).
    Higher,
    /// Smaller is better (times, costs, counts).
    Lower,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One end-to-end metric: what a user of the system sees, gated by the
/// driver on every workload.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Normative name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
    /// Definition, for the README and the report header.
    pub definition: &'static str,
}

/// The end-to-end metrics. Every one is defined on every workload (the
/// driver's contract); `recovery_s`, which exists on one workload only, is
/// carried as a per-layer metric under its normative name.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        definition: "wall from problem construction until stepping is possible (serial: Problem::new + LocalRunner::new + 2 steps; threads: ThreadedRunner::new + run(1); procs: a whole one-step run_problem job; sim: ClusterSim::new + run to step 1); the undisturbed value (10th percentile) of 7 to 101 set-ups",
    },
    EndToEnd {
        name: "steps_per_s",
        unit: "steps/s",
        better: Better::Higher,
        bound: 0.25,
        definition: "integration steps / wall of the timed call (LocalRunner::run, ThreadedRunner::run, run_problem incl. spawn and gather; committed steps on procs_udp_kill; simulated steps / host wall on sim_*); the undisturbed value (90th percentile) over rounds",
    },
    EndToEnd {
        name: "cpu_s_per_kstep",
        unit: "s/kstep",
        better: Better::Lower,
        bound: 0.25,
        definition: "user+system CPU seconds of the whole process tree (self + reaped workers) per 1000 steps of a timed call; the undisturbed value (10th percentile) over rounds",
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.1,
        definition: "peak resident set of the workload's process tree: own high-water mark + 2 x the largest worker's",
    },
    EndToEnd {
        name: "events_per_s",
        unit: "events/s",
        better: Better::Higher,
        bound: 0.25,
        definition: "work items / wall of the timed call: ClusterSim::events_processed() on sim_*, lattice-node updates (fluid nodes x steps) on the fluid workloads; the undisturbed value (90th percentile) over rounds",
    },
];

/// One per-layer metric with its prediction.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// Normative name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Layer (crate or module) it measures.
    pub layer: &'static str,
    /// Must repeat bit-for-bit between runs of one seed.
    pub exact: bool,
    /// `(end-to-end metric, workload)` pairs it should move.
    pub moves: &'static [(&'static str, &'static str)],
    /// Workloads where the prediction is no change.
    pub flat: &'static [&'static str],
}

const FLUID_KERNEL_MOVES: &[(&str, &str)] = &[
    ("steps_per_s", "serial_lb2d"),
    ("steps_per_s", "threads_fd3d"),
    ("steps_per_s", "procs_tcp_lb2d"),
    ("steps_per_s", "threads_lb2d_fine"),
];
const SIMS: &[&str] = &["sim_production20", "sim_scale1024"];
const GRID_MOVES: &[(&str, &str)] = &[
    ("steps_per_s", "threads_lb2d_fine"),
    ("steps_per_s", "threads_fd3d"),
];
const EXEC_MOVES: &[(&str, &str)] = &[
    ("steps_per_s", "threads_lb2d_fine"),
    ("cpu_s_per_kstep", "threads_lb2d_fine"),
    ("steps_per_s", "threads_fd3d"),
    ("cpu_s_per_kstep", "threads_fd3d"),
];
const SPAWN_MOVES: &[(&str, &str)] = &[
    ("setup_s", "threads_lb2d_fine"),
    ("setup_s", "threads_fd3d"),
];
const EXEC_FLAT: &[&str] = &["serial_lb2d", "sim_production20", "sim_scale1024"];
const CKPT_MOVES: &[(&str, &str)] = &[
    ("steps_per_s", "procs_tcp_lb2d"),
    ("steps_per_s", "procs_udp_kill"),
];
const THREADS_SERIAL: &[&str] = &["serial_lb2d", "threads_lb2d_fine", "threads_fd3d"];
const THREADS: &[&str] = &["threads_lb2d_fine", "threads_fd3d"];
const NET_MOVES: &[(&str, &str)] = &[
    ("steps_per_s", "procs_tcp_lb2d"),
    ("cpu_s_per_kstep", "procs_tcp_lb2d"),
];
const FAULT_MOVES: &[(&str, &str)] = &[("steps_per_s", "procs_udp_kill")];
const TCP_ONLY: &[&str] = &["procs_tcp_lb2d"];
const SIM_LOGIC_MOVES: &[(&str, &str)] = &[
    ("events_per_s", "sim_production20"),
    ("steps_per_s", "sim_production20"),
];
const SIM_ENGINE_MOVES: &[(&str, &str)] = &[
    ("events_per_s", "sim_scale1024"),
    ("steps_per_s", "sim_scale1024"),
];
const SIM_BOTH_MOVES: &[(&str, &str)] = &[
    ("events_per_s", "sim_production20"),
    ("events_per_s", "sim_scale1024"),
];
const FLUIDS: &[&str] = &[
    "serial_lb2d",
    "threads_lb2d_fine",
    "threads_fd3d",
    "procs_tcp_lb2d",
    "procs_udp_kill",
];
const OBS_MOVES: &[(&str, &str)] = &[
    ("steps_per_s", "threads_lb2d_fine"),
    ("steps_per_s", "procs_tcp_lb2d"),
    ("events_per_s", "sim_production20"),
];

#[allow(clippy::too_many_arguments)]
const fn row(
    name: &'static str,
    unit: &'static str,
    better: Better,
    layer: &'static str,
    exact: bool,
    moves: &'static [(&'static str, &'static str)],
    flat: &'static [&'static str],
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        layer,
        exact,
        moves,
        flat,
    }
}

/// The per-layer metrics, from the traced pass. A value of 0 on a workload
/// means the layer does no work there (the driver's contract wants every
/// name on every workload).
#[rustfmt::skip]
pub const PER_LAYER: [PerLayer; 58] = [
    // solvers: probe = solver.compute(tile, phase) for each Compute op of plan()
    row("solvers.compute_s_per_step", "s", Lower, "solvers", false, FLUID_KERNEL_MOVES, SIMS),
    row("solvers.node_updates_per_s", "1/s", Higher, "solvers", false, FLUID_KERNEL_MOVES, SIMS),
    row("solvers.simd_speedup", "ratio", Higher, "solvers", false, FLUID_KERNEL_MOVES, SIMS),
    row("solvers.bytes_per_update_computed", "B", Lower, "solvers", true, FLUID_KERNEL_MOVES, SIMS),
    row("solvers.flops_per_update_computed", "flop", Lower, "solvers", true, FLUID_KERNEL_MOVES, SIMS),
    row("solvers.roofline_frac", "frac", Higher, "solvers", false, FLUID_KERNEL_MOVES, SIMS),
    // machine ceiling: a shift here means the box changed, not the code
    row("mem.copy_bytes_per_s", "B/s", Higher, "machine", false, &[("steps_per_s", "serial_lb2d")], SIMS),
    // grid: probe = solver.pack / solver.unpack per neighbour face
    row("grid.pack_s_per_step", "s", Lower, "grid", false, GRID_MOVES, &["serial_lb2d"]),
    row("grid.unpack_s_per_step", "s", Lower, "grid", false, GRID_MOVES, &["serial_lb2d"]),
    row("grid.pack_doubles_per_s", "1/s", Higher, "grid", false, GRID_MOVES, &["serial_lb2d"]),
    row("grid.pack_vs_memcpy", "ratio", Higher, "grid", false, GRID_MOVES, &["serial_lb2d"]),
    row("grid.halo_doubles_per_step", "count", Lower, "grid", true, GRID_MOVES, &["serial_lb2d"]),
    row("grid.halo_msgs_per_step", "count", Lower, "grid", true, GRID_MOVES, &["serial_lb2d"]),
    // exec: api = RunOutcome{2,3}.timing, wall by the driver
    row("exec.t_calc_s_per_step", "s", Lower, "exec", false, EXEC_MOVES, EXEC_FLAT),
    row("exec.t_com_s_per_step", "s", Lower, "exec", false, EXEC_MOVES, EXEC_FLAT),
    row("exec.t_pack_s_per_step", "s", Lower, "exec", false, EXEC_MOVES, EXEC_FLAT),
    row("exec.utilization", "frac", Higher, "exec", false, EXEC_MOVES, EXEC_FLAT),
    row("exec.buf_allocs_per_kstep", "count", Lower, "exec", false, EXEC_MOVES, EXEC_FLAT),
    row("exec.wait_s_per_step", "s", Lower, "exec", false, EXEC_MOVES, EXEC_FLAT),
    row("exec.runner_overhead_s_per_step", "s", Lower, "exec", false, EXEC_MOVES, EXEC_FLAT),
    row("exec.spawn_s", "s", Lower, "exec", false, SPAWN_MOVES, EXEC_FLAT),
    row("exec.parallel_efficiency", "frac", Higher, "exec", false, EXEC_MOVES, EXEC_FLAT),
    row("exec.budget_unexplained_frac", "frac", Lower, "exec", false, EXEC_MOVES, EXEC_FLAT),
    // exec::checkpoint: probe = dump_tile2 / restore_tile2 on a 128x128 LB tile
    row("exec.ckpt.dump_bytes_per_s", "B/s", Higher, "exec::checkpoint", false, CKPT_MOVES, THREADS_SERIAL),
    row("exec.ckpt.restore_bytes_per_s", "B/s", Higher, "exec::checkpoint", false, CKPT_MOVES, THREADS_SERIAL),
    row("exec.ckpt.bytes_per_tile", "B", Lower, "exec::checkpoint", true, CKPT_MOVES, THREADS_SERIAL),
    // net::wire / net::link: probe on Msg::Halo with the workload's strip
    row("net.wire.encode_s_per_msg", "s", Lower, "net::wire", false, NET_MOVES, THREADS),
    row("net.wire.decode_s_per_msg", "s", Lower, "net::wire", false, NET_MOVES, THREADS),
    row("net.wire.bytes_per_halo_msg", "B", Lower, "net::wire", true, NET_MOVES, THREADS),
    row("net.link.tcp_frame_rtt_s", "s", Lower, "net::link", false, NET_MOVES, THREADS),
    row("net.link.mem_frame_rtt_s", "s", Lower, "net::link", false, NET_MOVES, THREADS),
    // net runtime: api = NetOutcome.timing, differencing by the driver
    row("net.t_calc_s_per_step", "s", Lower, "net", false, NET_MOVES, THREADS),
    row("net.t_com_s_per_step", "s", Lower, "net", false, NET_MOVES, THREADS),
    row("net.utilization", "frac", Higher, "net", false, NET_MOVES, THREADS),
    row("net.msgs_per_step", "count", Lower, "net", true, NET_MOVES, THREADS),
    row("net.commit_s_per_segment", "s", Lower, "net", false, NET_MOVES, THREADS),
    row("net.vs_threads_ratio", "ratio", Higher, "net", false, NET_MOVES, THREADS),
    row("net.budget_unexplained_frac", "frac", Lower, "net", false, NET_MOVES, THREADS),
    // net fault path: api = NetOutcome, one extra clean UDP job
    row("net.chaos.loss", "count", Lower, "net::chaos", true, FAULT_MOVES, TCP_ONLY),
    row("net.chaos.dup", "count", Lower, "net::chaos", true, FAULT_MOVES, TCP_ONLY),
    row("net.chaos.reorder", "count", Lower, "net::chaos", true, FAULT_MOVES, TCP_ONLY),
    row("net.restarts", "count", Lower, "net", true, FAULT_MOVES, TCP_ONLY),
    row("net.window_retries", "count", Lower, "net", false, FAULT_MOVES, TCP_ONLY),
    row("net.recovery.replayed_steps", "count", Lower, "net", true, FAULT_MOVES, TCP_ONLY),
    row("net.udp.loss_penalty_s", "s", Lower, "net::udp", false, FAULT_MOVES, TCP_ONLY),
    row("recovery_s", "s", Lower, "net", false, FAULT_MOVES, TCP_ONLY),
    // cluster: api = ClusterStats, probes on CalendarQueue / NetworkModel
    row("cluster.events", "count", Lower, "cluster", true, SIM_BOTH_MOVES, FLUIDS),
    row("cluster.events_per_sim_step", "count", Lower, "cluster", true, SIM_BOTH_MOVES, FLUIDS),
    row("cluster.sim_s_per_wall_s", "ratio", Higher, "cluster", false, SIM_BOTH_MOVES, FLUIDS),
    row("cluster.migrations", "count", Lower, "cluster", true, SIM_LOGIC_MOVES, FLUIDS),
    row("cluster.recoveries", "count", Lower, "cluster", true, SIM_LOGIC_MOVES, FLUIDS),
    row("cluster.retransmits", "count", Lower, "cluster", true, SIM_LOGIC_MOVES, FLUIDS),
    row("cluster.queue.ops_per_s", "1/s", Higher, "cluster::events", false, SIM_ENGINE_MOVES, FLUIDS),
    row("cluster.bus.ops_per_s", "1/s", Higher, "cluster::bus", false, SIM_ENGINE_MOVES, FLUIDS),
    row("cluster.bytes_per_host", "B", Lower, "cluster", false, &[("peak_rss_mib", "sim_scale1024")], FLUIDS),
    // obs: traced vs untraced pass
    row("obs.trace_overhead_frac", "frac", Lower, "obs", false, OBS_MOVES, &[]),
    row("obs.events_recorded", "count", Lower, "obs", false, OBS_MOVES, &[]),
    row("obs.events_dropped", "count", Lower, "obs", false, OBS_MOVES, &[]),
];

/// `BENCHMARK.json` as this table dictates it.
pub fn benchmark_json(run_seconds: u32) -> Value {
    Value::obj([
        (
            "command",
            Value::Arr(vec![Value::str("bash"), Value::str("benchmark/run.sh")]),
        ),
        ("paths", Value::Arr(vec![Value::str("benchmark")])),
        ("run_seconds", Value::Num(f64::from(run_seconds))),
        (
            "workloads",
            Value::Arr(
                Workload::ALL
                    .iter()
                    .map(|w| {
                        Value::obj([("name", Value::str(w.name())), ("why", Value::str(w.why()))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Value::obj([
                            ("name", Value::str(m.name)),
                            ("unit", Value::str(m.unit)),
                            ("better", Value::str(m.better.word())),
                            ("bound", Value::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Value::obj([
                            ("name", Value::str(m.name)),
                            ("unit", Value::str(m.unit)),
                            ("better", Value::str(m.better.word())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// The measuring time `BENCHMARK.json` fixes for one run.
pub const RUN_SECONDS: u32 = 10;

fn name_ok(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn unit_ok(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Checks the tables against the driver's limits and against each other:
/// every name well-formed and unique, 2–8 workloads, at most 16 end-to-end
/// and 128 per-layer metrics, `setup_s` present, bounds in (0, 0.25], and
/// every per-layer prediction naming an end-to-end metric and a workload
/// that exist.
pub fn validate_tables() -> Result<(), String> {
    let mut seen = std::collections::BTreeSet::new();
    let mut unique = |n: &str| -> Result<(), String> {
        if !name_ok(n) {
            return Err(format!("bad name {n:?}"));
        }
        if !seen.insert(n.to_string()) {
            return Err(format!("name {n:?} used twice"));
        }
        Ok(())
    };
    if !(2..=8).contains(&Workload::ALL.len()) {
        return Err("need 2 to 8 workloads".into());
    }
    for w in Workload::ALL {
        unique(w.name())?;
        if w.why().len() > 200 || w.why().contains('\n') {
            return Err(format!(
                "why of {} is not one line of <= 200 chars",
                w.name()
            ));
        }
    }
    if END_TO_END.is_empty()
        || END_TO_END.len() > 16
        || PER_LAYER.is_empty()
        || PER_LAYER.len() > 128
    {
        return Err("metric count out of range".into());
    }
    for m in &END_TO_END {
        unique(m.name)?;
        if !unit_ok(m.unit) {
            return Err(format!("bad unit {:?} on {}", m.unit, m.name));
        }
        if !(m.bound > 0.0 && m.bound <= 0.25) {
            return Err(format!("bound of {} outside (0, 0.25]", m.name));
        }
    }
    let setup = END_TO_END.iter().find(|m| m.name == "setup_s");
    if !setup.is_some_and(|m| m.unit == "s" && m.better == Better::Lower) {
        return Err("setup_s (s, lower) is required".into());
    }
    for m in &PER_LAYER {
        unique(m.name)?;
        if !unit_ok(m.unit) {
            return Err(format!("bad unit {:?} on {}", m.unit, m.name));
        }
        if m.moves.is_empty() {
            return Err(format!("{} predicts nothing", m.name));
        }
        for (metric, workload) in m.moves {
            if !END_TO_END.iter().any(|e| e.name == *metric) {
                return Err(format!("{} moves unknown metric {metric}", m.name));
            }
            if Workload::from_name(workload).is_none() {
                return Err(format!("{} moves unknown workload {workload}", m.name));
            }
        }
        for workload in m.flat {
            if Workload::from_name(workload).is_none() {
                return Err(format!("{} flat on unknown workload {workload}", m.name));
            }
        }
    }
    Ok(())
}

/// Validates a `BENCHMARK.json` text: it parses, has exactly the driver's
/// keys, `paths == ["benchmark"]`, and matches the tables above field for
/// field.
pub fn validate_benchmark_json(text: &str) -> Result<(), String> {
    validate_tables()?;
    let v = crate::json::parse(text)?;
    let keys: Vec<&str> = v
        .as_obj()
        .ok_or("BENCHMARK.json is not an object")?
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    let want = [
        "command",
        "paths",
        "run_seconds",
        "workloads",
        "end_to_end",
        "per_layer",
    ];
    if keys.len() != want.len() || !want.iter().all(|k| keys.contains(k)) {
        return Err(format!("keys are {keys:?}, want exactly {want:?}"));
    }
    if v.get("paths") != Some(&Value::Arr(vec![Value::str("benchmark")])) {
        return Err("paths must be [\"benchmark\"]".into());
    }
    let secs = v.get("run_seconds").and_then(Value::as_f64).unwrap_or(0.0);
    if !(1.0..=60.0).contains(&secs) || secs.fract() != 0.0 {
        return Err("run_seconds must be a whole number from 1 to 60".into());
    }
    let expect = benchmark_json(secs as u32);
    for key in want {
        if v.get(key) != expect.get(key) {
            return Err(format!(
                "{key} differs from benchmark/src/spec.rs (regenerate with `benchmark emit-spec`)"
            ));
        }
    }
    if text.len() > 64 << 10 {
        return Err("BENCHMARK.json exceeds 64 KiB".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_meet_the_driver_limits_and_name_real_targets() {
        validate_tables().expect("spec tables");
        assert_eq!(Workload::ALL.len(), 7);
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("sched_trace"), None);
    }

    #[test]
    fn generated_benchmark_json_validates_and_tampering_is_caught() {
        let good = benchmark_json(RUN_SECONDS).to_pretty();
        validate_benchmark_json(&good).expect("generated file");
        let renamed = good.replace("\"serial_lb2d\"", "\"serial lb2d\"");
        assert!(validate_benchmark_json(&renamed).is_err());
        let extra = good.replacen('{', "{\"claim\": null,", 1);
        assert!(validate_benchmark_json(&extra).is_err());
        let moved = good.replace("[\"benchmark\"]", "[\"bench\"]");
        assert!(validate_benchmark_json(&moved).is_err());
        assert!(validate_benchmark_json("{").is_err());
    }

    #[test]
    fn name_and_unit_rules() {
        assert!(name_ok("net.chaos.loss") && name_ok("1st") && !name_ok(".x") && !name_ok("a b"));
        assert!(!name_ok(&"x".repeat(65)));
        assert!(unit_ok("s/kstep") && unit_ok("1/s") && !unit_ok("CPU-s / 1000 steps"));
    }

    #[test]
    fn root_benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        validate_benchmark_json(&text).expect("root BENCHMARK.json");
    }
}
